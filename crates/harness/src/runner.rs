//! The one chaos runner: every scenario family is a [`Scenario`] whose
//! report knows its own [`fields`](ScenarioReport::fields) and
//! [`clean`](ScenarioReport::clean) verdict, so replay, verdict and
//! rendering are written once here instead of once per family.
//!
//! Adding a family means implementing [`Scenario::run`] for its config
//! and [`ScenarioReport::fields`] + [`ScenarioReport::clean`] for its
//! report; [`replay`], [`report_json`], [`render_text`] and the `chaos`
//! CLI then work for it unchanged. Each family keeps its own run loop —
//! event traces, rounds, phases and matrix cells share no step shape.

use vtpm_sentinel::{Sentinel, Severity};
use xen_sim::Result as XenResult;

use crate::json::Field;

/// One seeded chaos family: a config that runs a seed into a report.
pub trait Scenario {
    /// Everything observable about one run.
    type Report: ScenarioReport;

    /// Run one seeded scenario. The report must be a pure function of
    /// `seed` and `self` — that is the contract [`replay`] checks.
    fn run(&self, seed: &[u8]) -> XenResult<Self::Report>;
}

/// What the runner needs from a family's report.
pub trait ScenarioReport: PartialEq {
    /// Family tag: the `family` field of the JSON report and the
    /// bracketed tag of its text line.
    const FAMILY: &'static str;

    /// Scalars, lists and nested objects in output order (the `family`
    /// tag is added by [`report_json`]).
    fn fields(&self) -> Vec<(&'static str, Field)>;

    /// The family's pass/fail rule for one run.
    fn clean(&self) -> bool;
}

/// Run `seed` twice; returns the first report and whether the replay
/// produced an identical one.
pub fn replay<S: Scenario>(scenario: &S, seed: &[u8]) -> XenResult<(S::Report, bool)> {
    let first = scenario.run(seed)?;
    let deterministic = scenario.run(seed)? == first;
    Ok((first, deterministic))
}

/// `report` as one single-line JSON object, `{"family":FAMILY,...}`.
pub fn report_json<R: ScenarioReport>(report: &R) -> String {
    let mut fields = vec![("family", Field::from(R::FAMILY))];
    fields.extend(report.fields());
    Field::Obj(fields).to_json()
}

/// `report` as one text line, `seed LABEL [FAMILY]: name value ...`,
/// followed by one indented line per entry of every string list
/// (divergences, alerts, failures). The `seed` field is shown as
/// `label`; other lists show their length on the main line.
pub fn render_text<R: ScenarioReport>(label: &str, report: &R, deterministic: bool) -> String {
    let mut line = format!("seed {label} [{}]:", R::FAMILY);
    let mut detail = String::new();
    for (name, value) in report.fields() {
        if name == "seed" {
            continue;
        }
        line.push_str(&format!(" {} {}", name.replace('_', "-"), text_value(&value)));
        if let Field::List(items) = value {
            for item in items {
                if let Field::Str(s) = item {
                    detail.push_str(&format!("    {s}\n"));
                }
            }
        }
    }
    if !deterministic {
        line.push_str("  REPLAY MISMATCH");
    }
    line.push('\n');
    line + &detail
}

fn text_value(value: &Field) -> String {
    match value {
        Field::Num(_) | Field::Float(..) | Field::Bool(_) => value.to_json(),
        Field::Str(s) => s.clone(),
        Field::Digest(d) => crate::json::hex(&d[..8]),
        Field::List(items) => items.len().to_string(),
        Field::Obj(fields) => {
            let inner: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{} {}", k.replace('_', "-"), text_value(v)))
                .collect();
            format!("({})", inner.join(" "))
        }
    }
}

/// Critical (attack-class) alerts the sentinel has raised.
pub(crate) fn critical_count(sentinel: &Sentinel) -> u64 {
    sentinel.alerts().iter().filter(|a| a.severity == Severity::Critical).count() as u64
}

/// The sentinel's end-of-run tail every family shares: the alert lines
/// in firing order (folded into `transcript` as they are collected) and
/// the critical count.
pub(crate) fn sentinel_tail(sentinel: &Sentinel, transcript: &mut Vec<u8>) -> (Vec<String>, u64) {
    let lines: Vec<String> = sentinel.alerts().iter().map(|a| a.line()).collect();
    for line in &lines {
        transcript.extend_from_slice(line.as_bytes());
    }
    (lines, critical_count(sentinel))
}
