//! R-F2 (Figure 2): where the improved path's overhead goes.
//!
//! Two complementary views of the same Seal-command workload:
//!
//! * the *modelled* virtual-time cost of each mechanism (from
//!   [`vtpm_ac::AcCosts`], what a hardware deployment pays), and
//! * the *measured* wall-clock delta obtained by switching each
//!   mechanism on alone versus the all-off floor.

use vtpm::Guest;
use vtpm_ac::{AcConfig, AcCosts, SecurePlatform};
use workload::{GuestSession, Op, Samples};

use crate::Outcome;

/// One bar of the figure.
#[derive(Debug, Clone)]
pub struct F2Component {
    /// Mechanism label.
    pub name: &'static str,
    /// Modelled virtual cost per Seal request (ns).
    pub modelled_ns: u64,
    /// Measured wall-clock delta vs the all-off floor (ns/op; can be
    /// noisy — the modelled column carries the paper-shaped claim).
    pub measured_delta_ns: f64,
}

fn mean_seal_latency(cfg: AcConfig, seed: &[u8], reps: usize) -> f64 {
    let sp = SecurePlatform::new(seed, cfg).expect("platform");
    let guest: Guest = sp.launch_guest("f2").expect("guest");
    let mut session = GuestSession::prepare(guest.front, seed).expect("prepare");
    session.run(Op::Seal).expect("warmup");
    let mut samples = Samples::new();
    for _ in 0..reps {
        samples.push(session.run_timed(Op::Seal).expect("seal"));
    }
    samples.summary().expect("samples").mean_ns
}

/// Run the breakdown with `reps` Seal repetitions per configuration.
pub fn run(reps: usize) -> Vec<F2Component> {
    let costs = AcCosts::default();
    // A Seal *operation* is three commands (OSAP, Seal; plus the OIAP of
    // the response path is part of Seal's auth) — approximate the tag
    // cost with the Seal command size (~100 bytes) times commands (2).
    let approx_cmd_bytes = 100u64;
    let per_request_auth =
        costs.auth_base_ns + costs.auth_per_byte_ns * approx_cmd_bytes;
    let commands_per_op = 2u64;

    let floor = mean_seal_latency(AcConfig::none(), b"f2-floor", reps);
    let auth = mean_seal_latency(
        AcConfig { auth: true, replay: false, policy: false, audit: false, max_guest_locality: 4 },
        b"f2-auth",
        reps,
    );
    let replay = mean_seal_latency(
        AcConfig { auth: true, replay: true, policy: false, audit: false, max_guest_locality: 4 },
        b"f2-replay",
        reps,
    );
    let policy = mean_seal_latency(
        AcConfig { auth: false, replay: false, policy: true, audit: false, max_guest_locality: 4 },
        b"f2-policy",
        reps,
    );
    let audit = mean_seal_latency(
        AcConfig { auth: false, replay: false, policy: false, audit: true, max_guest_locality: 4 },
        b"f2-audit",
        reps,
    );

    vec![
        F2Component {
            name: "auth (AC1 tag verify)",
            modelled_ns: per_request_auth * commands_per_op,
            measured_delta_ns: auth - floor,
        },
        F2Component {
            name: "replay guard",
            modelled_ns: costs.replay_ns * commands_per_op,
            measured_delta_ns: replay - auth,
        },
        F2Component {
            name: "policy (AC2)",
            modelled_ns: costs.policy_ns * commands_per_op,
            measured_delta_ns: policy - floor,
        },
        F2Component {
            name: "audit (AC4)",
            modelled_ns: costs.audit_ns * commands_per_op,
            measured_delta_ns: audit - floor,
        },
    ]
}

/// Render the breakdown.
pub fn render(components: &[F2Component]) -> String {
    let mut out = String::new();
    out.push_str(
        "R-F2  Overhead breakdown of the improved path (per Seal operation)\n\
         component                modelled(us)   measured-delta(us)\n",
    );
    let total: u64 = components.iter().map(|c| c.modelled_ns).sum();
    for c in components {
        out.push_str(&format!(
            "{:<24} {:>12.2} {:>20.2}\n",
            c.name,
            c.modelled_ns as f64 / 1e3,
            c.measured_delta_ns / 1e3,
        ));
    }
    out.push_str(&format!("modelled total: {:.2} us\n", total as f64 / 1e3));
    out
}

/// The `repro` entry: this experiment at CI size (`quick`) or full size.
pub fn repro(quick: bool) -> Outcome {
    Outcome::table(render(&run(if quick { 10 } else { 200 })))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_holds_small() {
        let comps = run(3);
        assert_eq!(comps.len(), 4);
        // The HMAC verify dominates the modelled budget, as the paper's
        // breakdown should show.
        let auth = comps.iter().find(|c| c.name.starts_with("auth")).unwrap();
        for other in comps.iter().filter(|c| !c.name.starts_with("auth")) {
            assert!(auth.modelled_ns > other.modelled_ns, "{}", other.name);
        }
        assert!(render(&comps).contains("modelled total"));
    }
}
