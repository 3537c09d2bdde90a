//! R-T4 (ablation table): cost and coverage of each mechanism alone.
//!
//! For every AC configuration: the mean latency of a Seal/Extend mix
//! (cost) and how many of the six attacks the configuration blocks
//! (coverage). The full configuration should block everything for a
//! total cost close to the sum of its parts.

use attacks::AttackMatrix;
use vtpm::Guest;
use vtpm_ac::{AcConfig, SecurePlatform};
use workload::{GuestSession, Op, Samples};

use crate::Outcome;

/// One ablation row.
#[derive(Debug, Clone)]
pub struct T4Row {
    /// Configuration label.
    pub label: &'static str,
    /// Mean latency of the mixed workload (wall us/op).
    pub mean_us: f64,
    /// Mean virtual-time latency (us/op).
    pub mean_virt_us: f64,
    /// Attacks blocked (out of 6).
    pub blocked: usize,
}

/// The configurations swept, with labels.
pub fn configurations() -> Vec<(&'static str, AcConfig)> {
    vec![
        ("none (baseline-equivalent)", AcConfig::none()),
        (
            "auth only (AC1)",
            AcConfig { auth: true, replay: true, policy: false, audit: false, max_guest_locality: 4 },
        ),
        (
            "policy only (AC2)",
            AcConfig { auth: false, replay: false, policy: true, audit: false, max_guest_locality: 4 },
        ),
        (
            "audit only (AC4)",
            AcConfig { auth: false, replay: false, policy: false, audit: true, max_guest_locality: 4 },
        ),
        ("full (AC1+AC2+AC4)", AcConfig::default()),
    ]
}

fn warm(guest: &mut Guest) {
    let mut c = guest.client(b"warm");
    c.startup_clear().expect("startup");
    c.extend(0, &[1; 20]).expect("extend");
}

/// Run the ablation with `reps` ops per configuration.
pub fn run(reps: usize) -> Vec<T4Row> {
    configurations()
        .into_iter()
        .map(|(label, cfg)| {
            let sp =
                SecurePlatform::new(format!("t4-{label}").as_bytes(), cfg).expect("platform");

            // Cost: Seal/Extend alternation on a prepared guest.
            let guest = sp.launch_guest("bench").expect("guest");
            let clock = &sp.platform.hv.clock;
            let mut session = GuestSession::prepare(guest.front, b"t4").expect("prepare");
            let mut wall = Samples::new();
            let mut virt = Samples::new();
            for i in 0..reps {
                let op = if i % 2 == 0 { Op::Seal } else { Op::Extend };
                let v0 = clock.now_ns();
                wall.push(session.run_timed(op).expect("op"));
                virt.push(clock.now_ns() - v0);
            }

            // Coverage: the attack matrix. Note: the *mechanism layer*
            // (encrypted mirror + scrubbed rings = AC3) is part of the
            // improved platform in every row, so dump/sniff attacks are
            // blocked everywhere; the rows differentiate the hook-level
            // mechanisms.
            let mut victim = sp.launch_guest("victim").expect("guest");
            let mut attacker = sp.launch_guest("attacker").expect("guest");
            warm(&mut victim);
            warm(&mut attacker);
            let matrix = AttackMatrix::run(label, &sp.platform, &victim, &mut attacker);

            T4Row {
                label,
                mean_us: wall.summary().expect("samples").mean_ns / 1e3,
                mean_virt_us: virt.summary().expect("samples").mean_ns / 1e3,
                blocked: matrix.outcomes.len() - matrix.successes(),
            }
        })
        .collect()
}

/// Render the table.
pub fn render(rows: &[T4Row]) -> String {
    let mut out = String::new();
    out.push_str(
        "R-T4  Ablation: per-mechanism cost and attack coverage\n\
         configuration                  mean(virt us)  mean(wall us)  attacks-blocked/6\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<30} {:>13.1} {:>14.1} {:>12}\n",
            r.label, r.mean_virt_us, r.mean_us, r.blocked
        ));
    }
    out
}

/// The `repro` entry: this experiment at CI size (`quick`) or full size.
pub fn repro(quick: bool) -> Outcome {
    Outcome::table(render(&run(if quick { 10 } else { 100 })))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_holds_small() {
        let rows = run(4);
        assert_eq!(rows.len(), 5);
        let full = rows.last().unwrap();
        assert_eq!(full.blocked, 6, "full config blocks everything");
        let none = &rows[0];
        // Even 'none' blocks the AC3-layer attacks (dump, sniff).
        assert!(none.blocked >= 2, "mechanism layer alone blocks dump/sniff");
        assert!(none.blocked < 6, "hook mechanisms add coverage");
        // Full config costs at least as much virtual time as none.
        assert!(full.mean_virt_us >= none.mean_virt_us);
        assert!(render(&rows).contains("R-T4"));
    }
}
