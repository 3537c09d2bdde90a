//! R-R1: crash/recovery robustness of the encrypted mirror pipeline.
//!
//! Not a figure from the paper — the paper asserts (§4) that keeping the
//! vTPM state resident in Dom0-controlled memory lets the manager be
//! restarted without guest-visible loss, but reports no experiment for
//! it. R-R1 supplies one: seeded chaos runs (frame corruption, ring
//! faults, grant revocation, forced manager crashes between mirror page
//! writes) are replayed through the full stack and diffed against a
//! reference TPM oracle. The claim under test: every committed
//! generation survives — a recovered manager always lands on exactly
//! the pre- or post-command state, never on a torn or stale one — and
//! the whole scenario is deterministic under replay.

use vtpm::MirrorMode;
use vtpm_harness::{replay, ChaosConfig};

use crate::Outcome;

/// One chaos scenario (seed × mirror mode), replayed twice.
#[derive(Debug, Clone)]
pub struct R1Row {
    /// Human-readable seed label.
    pub seed: String,
    /// Mirror mode the manager ran in.
    pub mode: &'static str,
    /// Faults the plan actually scheduled.
    pub faults: usize,
    /// Manager crashes injected and recovered from.
    pub crash_recoveries: u64,
    /// Recoveries that landed on the post-command state (update committed).
    pub recovered_post: u64,
    /// Recoveries that landed on the pre-command state (update torn off).
    pub recovered_pre: u64,
    /// Frontend reconnects after grant revocation.
    pub ring_reconnects: u64,
    /// Oracle divergences (the headline number: must be 0).
    pub divergences: usize,
    /// CTR nonce pairs reused across the run (must be 0).
    pub nonce_reuses: u64,
    /// Requests the manager completed end to end, summed over epochs
    /// (from the telemetry registry).
    pub completed: u64,
    /// Telemetry span-ring overflow drops (must be 0 at harness sizes).
    pub dropped_events: u64,
    /// Post-commit hygiene scrubs that failed (expected only under
    /// injected crash faults; recovery re-scrubs).
    pub scrub_failures: u64,
    /// Mirror generations burned by the retry escrow — the mechanism
    /// that keeps `nonce_reuses` at 0 after failed commits.
    pub retried_generation_burns: u64,
    /// Whether the replay produced a byte-identical report.
    pub deterministic: bool,
}

/// Run `seeds` scenarios per mirror mode, each `events` long with up to
/// `faults` injected faults, replaying every one to check determinism.
pub fn run(seeds: usize, events: usize, faults: usize) -> Vec<R1Row> {
    let mut rows = Vec::new();
    for (mode, mode_name) in
        [(MirrorMode::Encrypted, "encrypted"), (MirrorMode::Cleartext, "cleartext")]
    {
        for s in 0..seeds {
            let label = format!("r1-{s}");
            let cfg = ChaosConfig { events, faults, mirror_mode: mode, ..ChaosConfig::default() };
            let (a, deterministic) = replay(&cfg, label.as_bytes()).expect("chaos run");
            rows.push(R1Row {
                seed: label,
                mode: mode_name,
                faults: a.faults.len(),
                crash_recoveries: a.crash_recoveries,
                recovered_post: a.recovered_post,
                recovered_pre: a.recovered_pre,
                ring_reconnects: a.ring_reconnects,
                divergences: a.divergences.len(),
                nonce_reuses: a.nonce_reuses,
                completed: a.completed,
                dropped_events: a.dropped_events,
                scrub_failures: a.scrub_failures,
                retried_generation_burns: a.retried_generation_burns,
                deterministic,
            });
        }
    }
    rows
}

/// Render the table.
pub fn render(rows: &[R1Row]) -> String {
    let mut out = String::new();
    out.push_str("R-R1  Chaos + crash/recovery of the mirror pipeline (replayed twice per seed)\n");
    out.push_str(&format!(
        "{:<8} {:<10} {:>6} {:>8} {:>5} {:>5} {:>10} {:>9} {:>5} {:>9} {:>8} {:>9} {:>7} {:>6}\n",
        "seed", "mode", "faults", "crashes", "post", "pre", "reconnect", "completed", "drops",
        "scrubfail", "retburns", "diverge", "nonce", "det"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:<10} {:>6} {:>8} {:>5} {:>5} {:>10} {:>9} {:>5} {:>9} {:>8} {:>9} {:>7} {:>6}\n",
            r.seed,
            r.mode,
            r.faults,
            r.crash_recoveries,
            r.recovered_post,
            r.recovered_pre,
            r.ring_reconnects,
            r.completed,
            r.dropped_events,
            r.scrub_failures,
            r.retried_generation_burns,
            r.divergences,
            r.nonce_reuses,
            if r.deterministic { "yes" } else { "NO" },
        ));
    }
    let crashes: u64 = rows.iter().map(|r| r.crash_recoveries).sum();
    let diverged: usize = rows.iter().map(|r| r.divergences).sum();
    let nondet = rows.iter().filter(|r| !r.deterministic).count();
    out.push_str(&format!(
        "totals: {} scenarios, {} crash recoveries, {} commands completed, {} span drops, \
         {} scrub failures, {} divergences, {} nondeterministic replays\n",
        rows.len(),
        crashes,
        rows.iter().map(|r| r.completed).sum::<u64>(),
        rows.iter().map(|r| r.dropped_events).sum::<u64>(),
        rows.iter().map(|r| r.scrub_failures).sum::<u64>(),
        diverged,
        nondet,
    ));
    out
}

/// The `repro` entry: this experiment at CI size (`quick`) or full size.
pub fn repro(quick: bool) -> Outcome {
    let (seeds, events, faults) = if quick { (4, 48, 4) } else { (16, 80, 6) };
    Outcome::table(render(&run(seeds, events, faults)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_generations_always_survive() {
        let rows = run(4, 48, 4);
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert_eq!(r.divergences, 0, "seed {} ({}) diverged", r.seed, r.mode);
            assert_eq!(r.nonce_reuses, 0, "seed {} ({}) reused a nonce", r.seed, r.mode);
            assert!(r.deterministic, "seed {} ({}) replayed differently", r.seed, r.mode);
            assert_eq!(
                r.recovered_post + r.recovered_pre,
                r.crash_recoveries,
                "seed {} ({}): a recovery matched neither legal state",
                r.seed,
                r.mode
            );
        }
        // The sweep must actually exercise the crash path, and the
        // telemetry registry must have seen the traffic without losing
        // span records.
        assert!(
            rows.iter().map(|r| r.crash_recoveries).sum::<u64>() > 0,
            "no scenario drew a crash fault; widen the sweep"
        );
        for r in &rows {
            assert!(r.completed > 0, "seed {} ({}) completed no requests", r.seed, r.mode);
            assert_eq!(r.dropped_events, 0, "seed {} ({}) dropped spans", r.seed, r.mode);
        }
        let table = render(&rows);
        assert!(table.contains("0 divergences"));
        assert!(table.contains("0 nondeterministic"));
    }
}
