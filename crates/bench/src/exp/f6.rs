//! R-F6 (extension figure): response time versus offered load.
//!
//! Closed-loop runs (R-F1) measure capacity; real guests offer load
//! stochastically. This experiment measures each configuration's
//! *virtual-time service cost* for a representative operation, then runs
//! a Poisson-arrival M/D/1 queue at increasing offered load to produce
//! the latency curve a hardware-TPM deployment would see. Expected shape:
//! both curves are flat until utilization approaches 1, then blow up; the
//! improved curve's knee sits marginally earlier (its service time is a
//! fraction of a percent longer).

use vtpm_ac::{AcConfig, SecurePlatform};
use workload::{offered_load_model, GuestSession, Op};

use crate::Outcome;

/// One point of the figure.
#[derive(Debug, Clone)]
pub struct F6Point {
    /// Offered load as a fraction of baseline capacity.
    pub utilization: f64,
    /// Mean response time, baseline (virtual ms).
    pub base_ms: f64,
    /// Mean response time, improved (virtual ms).
    pub imp_ms: f64,
}

/// Measure one configuration's virtual service time for `op` (ns).
fn service_ns(cfg: AcConfig, seed: &[u8], op: Op, reps: usize) -> u64 {
    let sp = SecurePlatform::new(seed, cfg).expect("platform");
    let guest = sp.launch_guest("svc").expect("guest");
    let clock = &sp.platform.hv.clock;
    let mut session = GuestSession::prepare(guest.front, seed).expect("prepare");
    session.run(op).expect("warmup");
    let v0 = clock.now_ns();
    for _ in 0..reps {
        session.run(op).expect("op");
    }
    (clock.now_ns() - v0) / reps as u64
}

/// Run the sweep at the given utilization points.
pub fn run(utilizations: &[f64], arrivals: usize) -> Vec<F6Point> {
    let base_service = service_ns(AcConfig::none(), b"f6-base", Op::Extend, 20);
    let imp_service = service_ns(AcConfig::default(), b"f6-imp", Op::Extend, 20);
    let capacity = 1e9 / base_service as f64; // baseline ops/sec

    utilizations
        .iter()
        .map(|&u| {
            let rate = capacity * u;
            let base = offered_load_model(rate, base_service, arrivals, 42);
            let imp = offered_load_model(rate, imp_service, arrivals, 42);
            F6Point {
                utilization: u,
                base_ms: base.mean_response_ns / 1e6,
                imp_ms: imp.mean_response_ns / 1e6,
            }
        })
        .collect()
}

/// Render the series.
pub fn render(points: &[F6Point]) -> String {
    let mut out = String::new();
    out.push_str(
        "R-F6  Response time vs offered load (M/D/1 over measured virtual service times, Extend op)\n\
         utilization   base(ms)   improved(ms)\n",
    );
    for p in points {
        out.push_str(&format!(
            "{:<13.2} {:>8.3} {:>13.3}\n",
            p.utilization, p.base_ms, p.imp_ms
        ));
    }
    out
}

/// The `repro` entry: this experiment at CI size (`quick`) or full size.
pub fn repro(quick: bool) -> Outcome {
    let (utils, arrivals): (&[f64], usize) = if quick {
        (&[0.2, 0.8], 10_000)
    } else {
        (&[0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99], 200_000)
    };
    Outcome::table(render(&run(utils, arrivals)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_holds_small() {
        let points = run(&[0.2, 0.9], 2_000);
        assert_eq!(points.len(), 2);
        // Latency explodes near saturation in both configurations.
        assert!(points[1].base_ms > 1.5 * points[0].base_ms);
        assert!(points[1].imp_ms > 1.5 * points[0].imp_ms);
        // Improved is never faster than baseline.
        for p in &points {
            assert!(p.imp_ms >= p.base_ms * 0.99, "{p:?}");
        }
        assert!(render(&points).contains("R-F6"));
    }
}
