//! # vtpm-bench
//!
//! The experiment harness: one module per table/figure of the
//! reconstructed evaluation (see DESIGN.md for the index and EXPERIMENTS.md
//! for recorded results). Each module exposes `run(...)` returning typed
//! rows, `render(...)` producing its text table, and `repro(quick)`, which
//! holds the experiment's CI-sized and full sizes and returns an
//! [`Outcome`]: the table, the gate verdict and the fields of its
//! `BENCH_<exp>.json` artifact. The `repro` binary is a loop over
//! [`EXPERIMENTS`].
//!
//! | module | experiment |
//! |---|---|
//! | [`exp::t1`] | R-T1: per-command latency, baseline vs improved |
//! | [`exp::f1`] | R-F1: throughput vs concurrent VMs |
//! | [`exp::t2`] | R-T2: attack matrix |
//! | [`exp::f2`] | R-F2: overhead breakdown of the improved path |
//! | [`exp::t3`] | R-T3: policy-engine latency vs rule count |
//! | [`exp::f3`] | R-F3: migration time vs state size |
//! | [`exp::t4`] | R-T4: per-mechanism ablation |
//! | [`exp::f5`] | R-F5: dump-scan at scale |
//! | [`exp::r1`] | R-R1: chaos + crash/recovery of the mirror pipeline |
//! | [`exp::o1`] | R-O1: telemetry self-overhead on the request path |
//! | [`exp::o2`] | R-O2: fleet observatory — aggregation fidelity, SLO burn loop, self-overhead |
//! | [`exp::m1`] | R-M1: live-migration downtime vs state size (cluster) |
//! | [`exp::m2`] | R-M2: fleet churn sweep — p99 downtime + exactly-once accounting |
//! | [`exp::d1`] | R-D1: sentinel detection quality (FP sweep + injections) |
//! | [`exp::p1`] | R-P1: manager hot path vs resident instance count |
//! | [`exp::c1`] | R-C1: crypto floor (RSA/AES/SHA) with regression gates |
//! | [`exp::a1`] | R-A1: attestation plane at farm scale |

/// Experiment modules, one per table/figure.
pub mod exp {
    pub mod a1;
    pub mod c1;
    pub mod d1;
    pub mod f1;
    pub mod f2;
    pub mod f3;
    pub mod f5;
    pub mod f6;
    pub mod m1;
    pub mod m2;
    pub mod o1;
    pub mod o2;
    pub mod p1;
    pub mod r1;
    pub mod t1;
    pub mod t2;
    pub mod t3;
    pub mod t4;
}

use vtpm_harness::json::Field;

/// Every experiment `repro` knows, in `repro all` order.
pub const EXPERIMENTS: [(&str, fn(bool) -> Outcome); 18] = [
    ("t1", exp::t1::repro),
    ("f1", exp::f1::repro),
    ("t2", exp::t2::repro),
    ("f2", exp::f2::repro),
    ("t3", exp::t3::repro),
    ("f3", exp::f3::repro),
    ("t4", exp::t4::repro),
    ("f5", exp::f5::repro),
    ("f6", exp::f6::repro),
    ("r1", exp::r1::repro),
    ("o1", exp::o1::repro),
    ("m1", exp::m1::repro),
    ("m2", exp::m2::repro),
    ("o2", exp::o2::repro),
    ("d1", exp::d1::repro),
    ("p1", exp::p1::repro),
    ("c1", exp::c1::repro),
    ("a1", exp::a1::repro),
];

/// What one experiment run hands back: its table, its gate verdict and
/// the fields of its artifact.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The rendered table.
    pub text: String,
    /// `Err(reason)` when a budget gate failed; ungated experiments
    /// always pass.
    pub gate: Result<(), String>,
    /// Artifact fields, in order, between the envelope's `quick` and
    /// `gate` keys.
    pub fields: Vec<(&'static str, Field)>,
}

impl Outcome {
    /// An ungated experiment: its table and a bare artifact envelope.
    pub fn table(text: String) -> Outcome {
        Outcome { text, gate: Ok(()), fields: Vec::new() }
    }

    /// The artifact: one line of JSON,
    /// `{"bench":<exp>,"quick":..,<fields>,"gate":"PASS"|"FAIL"}`.
    pub fn artifact(&self, exp: &str, quick: bool) -> String {
        let mut fields = vec![("bench", Field::from(exp)), ("quick", quick.into())];
        fields.extend(self.fields.iter().cloned());
        fields.push(("gate", Field::from(if self.gate.is_ok() { "PASS" } else { "FAIL" })));
        Field::Obj(fields).to_json()
    }
}

/// The median of `samples` (the upper one for an even count), sorting
/// them in place.
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// A gate verdict: `Ok` unless `failed`, else the reason naming the
/// budget that was missed.
pub fn gate(failed: bool, reason: impl FnOnce() -> String) -> Result<(), String> {
    if failed {
        Err(reason())
    } else {
        Ok(())
    }
}
