//! R-F3 (Figure 3): vTPM migration time versus instance state size,
//! cleartext (baseline) vs sealed (improved) protocol.
//!
//! Each point runs the cluster's staged hand-off (prepare → quiesce →
//! transfer → verify → commit → release) between two hosts through
//! [`m1::measure`], the same hand-offs R-M1 reads in virtual time, and
//! reports the wall-clock time of the `migrate` calls. State size is
//! grown by defining NV areas in the instance before migration.
//! Expected shape: both curves grow with state size; the sealed
//! protocol pays a near-constant premium (one RSA-OAEP of the session
//! key, the destination TPM's unwrap, an AES pass and a hash), so the
//! *relative* overhead shrinks as state grows.
//!
//! The gate: no sealed `Transfer` frame on the wiretap may expose a
//! high-entropy fragment of the state, at any size. The probe set is
//! checked the way A7's `probe_sanity` checks its own: the clear
//! hand-off of the same size must expose every probe, so the gate
//! cannot pass by probing for nothing.

use crate::exp::m1;
use crate::{gate, Outcome};

/// One point of the figure.
#[derive(Debug, Clone)]
pub struct F3Point {
    /// Instance state size in bytes at transfer time.
    pub state_bytes: u64,
    /// Clear-protocol hand-off time (wall us per `migrate`).
    pub clear_us: f64,
    /// Sealed-protocol hand-off time (wall us per `migrate`).
    pub sealed_us: f64,
    /// Probe sanity: the clear `Transfer` frames exposed every state
    /// probe (and there was at least one).
    pub clear_exposes: bool,
    /// No sealed `Transfer` frame exposed any state probe.
    pub sealed_hides: bool,
}

/// Run the sweep over NV payload sizes (KiB), `reps` hand-offs per mode.
pub fn run(nv_kib: &[usize], reps: usize) -> Vec<F3Point> {
    nv_kib
        .iter()
        .map(|&kib| {
            let (clear, sealed) = (m1::measure(kib, false, reps), m1::measure(kib, true, reps));
            F3Point {
                state_bytes: clear.state_bytes,
                clear_us: clear.wall_us,
                sealed_us: sealed.wall_us,
                clear_exposes: clear.probes > 0 && clear.probes_exposed == clear.probes,
                sealed_hides: sealed.probes > 0 && sealed.probes_exposed == 0,
            }
        })
        .collect()
}

/// Render the series.
pub fn render(points: &[F3Point]) -> String {
    let mut out = String::new();
    out.push_str(
        "R-F3  vTPM migration time vs instance state size (2-host cluster hand-off, wall time)\n\
         state(KiB)   clear(us)   sealed(us)   premium     clear-exposes-state  sealed-hides-state\n",
    );
    for p in points {
        out.push_str(&format!(
            "{:<12.1} {:>9.1} {:>12.1} {:>8.1}us   {:<20} {}\n",
            p.state_bytes as f64 / 1024.0,
            p.clear_us,
            p.sealed_us,
            p.sealed_us - p.clear_us,
            p.clear_exposes,
            p.sealed_hides,
        ));
    }
    out
}

/// Whether every point's probes are sane and the sealed wire hid them.
pub fn wire_check_passes(points: &[F3Point]) -> bool {
    points.iter().all(|p| p.clear_exposes && p.sealed_hides)
}

/// The `repro` entry: this experiment at CI size (`quick`) or full size.
pub fn repro(quick: bool) -> Outcome {
    let (kib, reps): (&[usize], usize) =
        if quick { (&[0, 8, 32], 2) } else { (&[0, 4, 16, 64, 256], 5) };
    let points = run(kib, reps);
    Outcome {
        text: render(&points),
        gate: gate(!wire_check_passes(&points), || {
            "R-F3 a sealed Transfer frame exposed state (or the clear probe check failed)".into()
        }),
        fields: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_holds_small() {
        let points = run(&[0, 8], 1);
        assert_eq!(points.len(), 2);
        // State grows with NV payload.
        assert!(points[1].state_bytes > points[0].state_bytes + 4096);
        // The probes are sane, sealed always hides state, both complete.
        assert!(wire_check_passes(&points));
        for p in &points {
            assert!(p.clear_us > 0.0 && p.sealed_us > 0.0);
        }
        assert!(render(&points).contains("R-F3"));
    }
}
