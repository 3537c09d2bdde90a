//! R-T1 (Table 1): per-command latency, baseline vs improved, with the
//! access-control overhead percentage.
//!
//! One guest per configuration, closed loop, `reps` repetitions of each
//! operation. Both wall-clock (our software stack) and virtual time (the
//! modelled hardware-TPM deployment) are reported; the paper-shaped
//! claim is the *overhead percentage*, which the virtual column carries.

use vtpm::Platform;
use vtpm_ac::SecurePlatform;
use workload::{GuestSession, Op, Samples, Summary};

use crate::Outcome;

/// One table row.
#[derive(Debug, Clone)]
pub struct T1Row {
    /// Operation measured.
    pub op: Op,
    /// Baseline wall-clock summary.
    pub base_wall: Summary,
    /// Improved wall-clock summary.
    pub imp_wall: Summary,
    /// Baseline virtual-time summary.
    pub base_virt: Summary,
    /// Improved virtual-time summary.
    pub imp_virt: Summary,
}

impl T1Row {
    /// Wall-clock overhead of the improved path, percent.
    pub fn overhead_wall_pct(&self) -> f64 {
        self.imp_wall.overhead_pct(&self.base_wall)
    }

    /// Virtual-time overhead, percent (the hardware-deployment number).
    pub fn overhead_virt_pct(&self) -> f64 {
        self.imp_virt.overhead_pct(&self.base_virt)
    }
}

fn measure<T: tpm::Transport>(
    session: &mut GuestSession<T>,
    clock: &xen_sim::VirtualClock,
    ops: &[Op],
    reps: usize,
) -> Vec<(Op, Samples, Samples)> {
    ops.iter()
        .map(|&op| {
            let mut wall = Samples::new();
            let mut virt = Samples::new();
            // One warmup rep outside the samples.
            session.run(op).expect("warmup");
            for _ in 0..reps {
                let v0 = clock.now_ns();
                let ns = session.run_timed(op).expect("op runs");
                wall.push(ns);
                virt.push(clock.now_ns() - v0);
            }
            (op, wall, virt)
        })
        .collect()
}

/// Run the experiment: `reps` samples per op per configuration.
pub fn run(reps: usize) -> Vec<T1Row> {
    let ops = [Op::GetRandom, Op::PcrRead, Op::Extend, Op::Seal, Op::Unseal, Op::Quote];

    let base = Platform::baseline(b"t1-baseline").expect("platform");
    let bg = base.launch_guest("t1").expect("guest");
    let mut bs = GuestSession::prepare(bg.front, b"t1-base").expect("prepare");
    let base_samples = measure(&mut bs, &base.hv.clock, &ops, reps);

    let sp = SecurePlatform::full(b"t1-improved").expect("platform");
    let ig = sp.launch_guest("t1").expect("guest");
    let mut is = GuestSession::prepare(ig.front, b"t1-imp").expect("prepare");
    let imp_samples = measure(&mut is, &sp.platform.hv.clock, &ops, reps);

    base_samples
        .into_iter()
        .zip(imp_samples)
        .map(|((op, bw, bv), (op2, iw, iv))| {
            assert_eq!(op, op2);
            T1Row {
                op,
                base_wall: bw.summary().expect("samples"),
                imp_wall: iw.summary().expect("samples"),
                base_virt: bv.summary().expect("samples"),
                imp_virt: iv.summary().expect("samples"),
            }
        })
        .collect()
}

/// Render the table.
pub fn render(rows: &[T1Row]) -> String {
    let mut out = String::new();
    out.push_str(
        "R-T1  Per-command latency: baseline vs improved access control\n\
         op          base(virt ms)  impr(virt ms)  ovh(virt)   base(wall us)  impr(wall us)  ovh(wall)\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<11} {:>13.3} {:>14.3} {:>9.2}% {:>14.1} {:>14.1} {:>9.2}%\n",
            r.op.name(),
            r.base_virt.mean_ns / 1e6,
            r.imp_virt.mean_ns / 1e6,
            r.overhead_virt_pct(),
            r.base_wall.mean_ns / 1e3,
            r.imp_wall.mean_ns / 1e3,
            r.overhead_wall_pct(),
        ));
    }
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
        let rows = run(3);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            // Improved adds overhead but stays within the same order of
            // magnitude (paper shape: single-digit-to-low-tens percent
            // in virtual time, where hardware-TPM cost dominates).
            assert!(
                r.imp_virt.mean_ns >= r.base_virt.mean_ns,
                "{}: improved must not be faster in virtual time",
                r.op.name()
            );
            assert!(
                r.overhead_virt_pct() < 100.0,
                "{}: overhead {}% out of band",
                r.op.name(),
                r.overhead_virt_pct()
            );
        }
        // RSA ops dwarf hash ops in virtual time.
        let get_random = rows.iter().find(|r| r.op == Op::GetRandom).unwrap();
        let quote = rows.iter().find(|r| r.op == Op::Quote).unwrap();
        assert!(quote.base_virt.mean_ns > 10.0 * get_random.base_virt.mean_ns);
        let table = render(&rows);
        assert!(table.contains("GetRandom"));
        assert!(table.contains("Quote"));
    }
}
