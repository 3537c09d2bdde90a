//! R-A1: the attestation plane at farm scale.
//!
//! Not a figure from the paper — the paper's deep-quote protocol binds
//! a vTPM quote to the hardware TPM, but issues and checks one quote at
//! a time. R-A1 evaluates the plane `crates/attest` builds on top of it
//! on the three axes a fleet-facing attestation service is judged by:
//!
//! * **Issuance throughput** — the same quote-request stream (round-
//!   robin over the instances, PCR state unchanged) against a
//!   per-request issuer (cache disabled: every request pays the two
//!   RSA private operations of a deep quote) and against the
//!   batched+cached issuer (nonce-window coalescing plus the
//!   generation-keyed cache). The gate requires the cached plane to
//!   clear [`MIN_CACHE_SPEEDUP`]x the per-request qps.
//! * **Verification at farm scale** — a pool of verifiers (1k+ at full
//!   size) batch-submitting evidence; every honest submission must be
//!   accepted, and the per-submission latency distribution is reported
//!   from the shared attestation-telemetry histogram.
//! * **Defense** — seeded attest-chaos scenarios
//!   ([`vtpm_harness::AttestChaosConfig`]): every replay and stale
//!   injection must be refused *and* raised by the sentinel, the
//!   scripted quote storm must end with the sentinel-driven admission
//!   loop throttling the storming verifier, and attack-free seeds must
//!   produce zero critical alerts. The scenario family folds every
//!   violated expectation into its divergence list, so the gate here is
//!   "all defense rows divergence-free".

use std::sync::Arc;
use std::time::Instant;

use vtpm::Platform;
use vtpm_attest::{IssuerConfig, QuoteIssuer, Submission, VerifierConfig, VerifierPool};
use vtpm_harness::{AttestChaosConfig, Scenario};

/// The cached plane must clear this multiple of the per-request qps at
/// unchanged PCR state.
pub const MIN_CACHE_SPEEDUP: f64 = 3.0;

/// One issuance mode's throughput measurement.
#[derive(Debug, Clone)]
pub struct IssueRow {
    /// `per-request` or `batched+cached`.
    pub mode: &'static str,
    /// Quote requests served.
    pub quotes: usize,
    /// Requests that paid a full signing pass (two RSA private ops).
    pub signing_passes: u64,
    /// Requests absorbed by the cache or coalesced behind a flight.
    pub absorbed: u64,
    /// Wall time for the whole stream.
    pub wall_ns: u64,
    /// Quotes per second.
    pub qps: f64,
}

/// The farm-scale verification measurement.
#[derive(Debug, Clone)]
pub struct VerifyStats {
    /// Verifier identities submitting.
    pub verifiers: usize,
    /// Submissions processed.
    pub submissions: u64,
    /// Submissions accepted (must equal `submissions`).
    pub accepted: u64,
    /// Median per-submission verification latency, wall ns.
    pub p50_ns: u64,
    /// 99th-percentile per-submission verification latency, wall ns.
    pub p99_ns: u64,
    /// Verifications per second over the whole farm pass.
    pub vps: f64,
}

/// One seeded defense scenario (attack or attack-free sweep).
#[derive(Debug, Clone)]
pub struct DefenseRow {
    /// Seed label.
    pub seed: String,
    /// Whether this row injected attacks (false = FP sweep).
    pub attack: bool,
    /// Replay injections presented / refused.
    pub injected_replays: u64,
    /// Replay injections refused as `Replayed`.
    pub replays_refused: u64,
    /// Stale injections presented / refused.
    pub injected_stale: u64,
    /// Stale injections refused as `Stale`.
    pub stale_refused: u64,
    /// Whether the storm verifier ended the run throttled.
    pub storm_throttled: bool,
    /// Critical sentinel alerts (attack rows expect ≥ 2; clean rows
    /// must see 0 — a violation shows up in `divergences`).
    pub critical: u64,
    /// Violated expectations, verbatim from the scenario family.
    pub divergences: Vec<String>,
}

/// The full R-A1 result.
#[derive(Debug, Clone)]
pub struct A1Report {
    /// Per-request then batched+cached issuance.
    pub issue: Vec<IssueRow>,
    /// `batched+cached qps / per-request qps`.
    pub speedup: f64,
    /// Farm-scale verification.
    pub verify: VerifyStats,
    /// Defense scenarios, attack rows first.
    pub defense: Vec<DefenseRow>,
}

/// The CI gate: cached issuance clears the speedup floor, every honest
/// submission is accepted, and no defense scenario diverged.
pub fn gate_failed(r: &A1Report) -> bool {
    r.speedup < MIN_CACHE_SPEEDUP
        || r.verify.accepted != r.verify.submissions
        || r.defense.iter().any(|d| !d.divergences.is_empty())
}

/// Drive one issuance mode over `quotes` requests at fixed PCR state.
fn issue_pass(cache: bool, instances: usize, quotes: usize) -> IssueRow {
    let mode = if cache { "batched+cached" } else { "per-request" };
    let platform = Platform::improved(mode.as_bytes()).expect("platform boots");
    let mut ids = Vec::with_capacity(instances);
    for i in 0..instances {
        ids.push(platform.launch_guest(&format!("a1-{mode}-{i}")).expect("guest").instance);
    }
    let issuer = QuoteIssuer::new(IssuerConfig { cache, ..Default::default() });
    for &id in &ids {
        issuer.provision(&platform, id).expect("enroll instance");
    }
    let now = platform.hv.clock.now_ns();
    let t0 = Instant::now();
    for q in 0..quotes {
        issuer.issue(&platform, ids[q % instances], now).expect("issue");
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let snap = issuer.telemetry().snapshot();
    IssueRow {
        mode,
        quotes,
        signing_passes: snap.signing_passes,
        absorbed: snap.cache_hits + snap.coalesced,
        wall_ns,
        qps: quotes as f64 / (wall_ns.max(1) as f64 / 1e9),
    }
}

/// Farm-scale verification: `verifiers` identities, batches of 64.
fn verify_pass(instances: usize, verifiers: usize) -> VerifyStats {
    let platform = Platform::improved(b"a1/verify-farm").expect("platform boots");
    let mut ids = Vec::with_capacity(instances);
    for i in 0..instances {
        ids.push(platform.launch_guest(&format!("a1-farm-{i}")).expect("guest").instance);
    }
    let issuer = QuoteIssuer::new(IssuerConfig::default());
    for &id in &ids {
        issuer.provision(&platform, id).expect("enroll instance");
    }
    let now = platform.hv.clock.now_ns();
    let evidence: Vec<_> =
        ids.iter().map(|&id| issuer.issue(&platform, id, now).expect("issue")).collect();

    let pool = VerifierPool::with_telemetry(
        VerifierConfig::default(),
        Arc::clone(issuer.telemetry()),
    );
    let t0 = Instant::now();
    let mut accepted = 0u64;
    let all: Vec<u32> = (0..verifiers as u32).collect();
    for chunk in all.chunks(64) {
        let batch: Vec<Submission> = chunk
            .iter()
            .map(|&v| Submission::from_evidence(v, &evidence[v as usize % instances]))
            .collect();
        accepted +=
            pool.verify_batch(&batch, now).iter().filter(|verdict| verdict.accepted()).count()
                as u64;
    }
    let wall_ns = t0.elapsed().as_nanos().max(1) as u64;
    let snap = issuer.telemetry().snapshot();
    VerifyStats {
        verifiers,
        submissions: snap.verified,
        accepted,
        p50_ns: snap.verify_latency.p50,
        p99_ns: snap.verify_latency.p99,
        vps: verifiers as f64 / (wall_ns as f64 / 1e9),
    }
}

/// Run R-A1: both issuance modes, the verification farm, then
/// `attack_seeds` injected scenarios and `clean_seeds` FP-sweep runs.
pub fn run(
    instances: usize,
    verifiers: usize,
    quotes: usize,
    uncached_quotes: usize,
    attack_seeds: usize,
    clean_seeds: usize,
) -> A1Report {
    let per_request = issue_pass(false, instances, uncached_quotes);
    let cached = issue_pass(true, instances, quotes);
    let speedup = cached.qps / per_request.qps.max(f64::MIN_POSITIVE);
    let verify = verify_pass(instances, verifiers);

    let mut defense = Vec::new();
    let cfg = AttestChaosConfig::default();
    for (n, attack) in
        (0..attack_seeds).map(|s| (s, true)).chain((0..clean_seeds).map(|s| (s, false)))
    {
        let label = if attack { format!("a1-att-{n}") } else { format!("a1-clean-{n}") };
        let scenario = if attack { cfg.clone() } else { cfg.attack_free() };
        let rep = scenario.run(label.as_bytes()).expect("attest chaos");
        defense.push(DefenseRow {
            seed: label,
            attack,
            injected_replays: rep.injected_replays,
            replays_refused: rep.replays_refused,
            injected_stale: rep.injected_stale,
            stale_refused: rep.stale_refused,
            storm_throttled: rep.storm_throttled,
            critical: rep.sentinel_critical,
            divergences: rep.divergences,
        });
    }

    A1Report { issue: vec![per_request, cached], speedup, verify, defense }
}

/// Render the tables.
pub fn render(r: &A1Report) -> String {
    let mut out = String::new();
    out.push_str("R-A1  Attestation plane at farm scale\n");
    out.push_str(&format!(
        "  {:<16} {:>8} {:>9} {:>9} {:>11} {:>12}\n",
        "issuance", "quotes", "signing", "absorbed", "wall", "qps"
    ));
    for row in &r.issue {
        out.push_str(&format!(
            "  {:<16} {:>8} {:>9} {:>9} {:>8.1} ms {:>12.0}\n",
            row.mode,
            row.quotes,
            row.signing_passes,
            row.absorbed,
            row.wall_ns as f64 / 1e6,
            row.qps,
        ));
    }
    out.push_str(&format!(
        "  cached/per-request speedup: {:.1}x (gate >= {:.0}x)\n\n",
        r.speedup, MIN_CACHE_SPEEDUP
    ));
    let v = &r.verify;
    out.push_str(&format!(
        "  verify farm: {} verifiers, {}/{} accepted, p50 {:.1} us, p99 {:.1} us, {:.0} verifications/s\n\n",
        v.verifiers,
        v.accepted,
        v.submissions,
        v.p50_ns as f64 / 1e3,
        v.p99_ns as f64 / 1e3,
        v.vps,
    ));
    out.push_str(&format!(
        "  {:<14} {:>7} {:>9} {:>9} {:>9} {:>9} {:>11}\n",
        "defense seed", "attack", "replays", "stale", "throttle", "critical", "divergences"
    ));
    for d in &r.defense {
        out.push_str(&format!(
            "  {:<14} {:>7} {:>5}/{:<3} {:>5}/{:<3} {:>9} {:>9} {:>11}\n",
            d.seed,
            if d.attack { "yes" } else { "no" },
            d.replays_refused,
            d.injected_replays,
            d.stale_refused,
            d.injected_stale,
            if !d.attack {
                "-"
            } else if d.storm_throttled {
                "yes"
            } else {
                "NO"
            },
            d.critical,
            d.divergences.len(),
        ));
        for line in &d.divergences {
            out.push_str(&format!("      {line}\n"));
        }
    }
    out.push_str(&format!(
        "gate: {}\n",
        if gate_failed(r) { "FAIL" } else { "PASS" }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_holds_at_test_size() {
        let r = run(2, 48, 96, 12, 1, 1);
        assert!(
            r.speedup >= MIN_CACHE_SPEEDUP,
            "cached issuance only {:.1}x over per-request",
            r.speedup
        );
        let cached = &r.issue[1];
        assert!(cached.signing_passes <= 2 + 2, "unchanged PCR state keeps paying RSA");
        assert_eq!(r.verify.accepted, r.verify.submissions, "honest farm submission refused");
        assert_eq!(r.defense.len(), 2);
        for d in &r.defense {
            assert!(d.divergences.is_empty(), "{}: {:?}", d.seed, d.divergences);
        }
        let attack = &r.defense[0];
        assert!(attack.attack && attack.storm_throttled);
        assert_eq!(attack.replays_refused, attack.injected_replays);
        assert_eq!(attack.stale_refused, attack.injected_stale);
        let clean = &r.defense[1];
        assert!(!clean.attack);
        assert_eq!(clean.critical, 0, "false positive on the attack-free sweep");
        assert!(!gate_failed(&r));
        assert!(render(&r).contains("gate: PASS"));
    }
}
