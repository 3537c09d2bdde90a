//! R-F1 (Figure 1): aggregate throughput versus number of guest VMs,
//! baseline vs improved.
//!
//! Closed-loop mixed workload per guest; the series shows both curves
//! climbing with VM count until the manager saturates, with the improved
//! curve tracking the baseline within the per-command overhead band.

use vtpm::{Guest, Platform};
use vtpm_ac::SecurePlatform;
use workload::{run_concurrent, CommandMix};

/// One point on the figure.
#[derive(Debug, Clone)]
pub struct F1Point {
    /// Guests running concurrently.
    pub vms: usize,
    /// Baseline throughput (ops per wall second).
    pub base_ops_s: f64,
    /// Improved throughput (ops per wall second).
    pub imp_ops_s: f64,
    /// Baseline virtual-time throughput.
    pub base_ops_vs: f64,
    /// Improved virtual-time throughput.
    pub imp_ops_vs: f64,
}

/// Run the sweep.
pub fn run(vm_counts: &[usize], ops_per_guest: usize) -> Vec<F1Point> {
    vm_counts
        .iter()
        .map(|&vms| {
            let base = Platform::baseline(format!("f1-base-{vms}").as_bytes()).expect("platform");
            let guests: Vec<Guest> =
                (0..vms).map(|i| base.launch_guest(&format!("g{i}")).expect("guest")).collect();
            let b = run_concurrent(&base.hv, guests, &CommandMix::light(), ops_per_guest, b"f1");

            let sp =
                SecurePlatform::full(format!("f1-imp-{vms}").as_bytes()).expect("platform");
            let guests: Vec<Guest> =
                (0..vms).map(|i| sp.launch_guest(&format!("g{i}")).expect("guest")).collect();
            let i = run_concurrent(
                &sp.platform.hv,
                guests,
                &CommandMix::light(),
                ops_per_guest,
                b"f1",
            );
            assert_eq!(b.errors + i.errors, 0, "workload must run clean");

            F1Point {
                vms,
                base_ops_s: b.throughput_wall(),
                imp_ops_s: i.throughput_wall(),
                base_ops_vs: b.throughput_virtual(),
                imp_ops_vs: i.throughput_virtual(),
            }
        })
        .collect()
}

/// Render the series.
pub fn render(points: &[F1Point]) -> String {
    let mut out = String::new();
    out.push_str(
        "R-F1  Aggregate throughput vs concurrent VMs (light mix)\n\
         vms   base(ops/s wall)  impr(ops/s wall)   base(ops/s virt)  impr(ops/s virt)\n",
    );
    for p in points {
        out.push_str(&format!(
            "{:<5} {:>17.0} {:>17.0} {:>18.1} {:>17.1}\n",
            p.vms, p.base_ops_s, p.imp_ops_s, p.base_ops_vs, p.imp_ops_vs
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_holds_small() {
        // Enough ops that each side runs for tens of milliseconds: over a
        // handful of ops one preemption skews the wall-clock ratio 10x.
        let points = run(&[1, 2], 300);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.base_ops_s > 0.0 && p.imp_ops_s > 0.0);
            // The paper-shaped claim lives in virtual time: improved
            // within a few percent of baseline.
            assert!(p.imp_ops_vs > p.base_ops_vs * 0.9, "{p:?}");
            // Wall-clock carries software AC cost; just sanity-bound it.
            assert!(p.imp_ops_s > p.base_ops_s / 5.0, "{p:?}");
        }
        assert!(render(&points).contains("R-F1"));
    }
}
