//! Chaos CLI: replay N seeded fault scenarios, each twice, and fail on
//! any oracle divergence, nonce reuse, or nondeterministic replay.
//!
//! ```text
//! chaos [--seeds N] [--events N] [--faults N] [--mode encrypted|cleartext]
//!       [--base LABEL] [--jobs N]
//!       [--family mirror|migration|attest|fleet|all] [--matrix] [--json]
//! ```
//!
//! Seeds run in parallel across `--jobs` worker threads (default: all
//! cores). Every seed is still executed twice and diffed, the per-seed
//! output lines are printed in seed order regardless of completion
//! order, and the exit status is unchanged: 0 clean, 1 divergence /
//! nonce reuse / nondeterministic replay, 2 bad usage.
//!
//! `--family` picks the scenario family: `mirror` (default) is the
//! single-host mirror pipeline, `migration` the multi-host cluster
//! scenarios, `attest` the attestation-plane quote-storm/replay
//! scenarios, `fleet` the control-plane churn scenarios (failure
//! detection, concurrent drivers, rebalancing under crash storms), and
//! `all` runs every family. Each family's clean rule lives with its
//! report (`ScenarioReport::clean`). `--matrix` additionally runs the
//! exhaustive crash-at-every-step migration matrix (both roles x every
//! protocol step) on one seed. `--mode` picks the mirror mode and, for
//! the migration family and the matrix alike, sealed (`encrypted`) or
//! cleartext packages.
//!
//! `--json` switches the per-seed output to one JSON object per line
//! (stable field order; `report` is the full seed report, plus
//! `deterministic` and `failed` verdicts), still printed in seed order
//! — pipe it into `jq` or the bench tooling. The summary line and exit
//! status are unchanged.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use vtpm::MirrorMode;
use vtpm_harness::{
    render_text, replay, report_json, AttestChaosConfig, ChaosConfig, CrashMatrix,
    FleetChaosConfig, MigrationChaosConfig, Scenario, ScenarioReport,
};

/// Everything one seed produced: its report text (divergence detail
/// included) and whether it counts as a failure.
struct SeedOutcome {
    text: String,
    failed: bool,
}

/// Run one seed twice, diff the replays, and render the report line.
fn run_seed<S: Scenario>(scenario: &S, label: &str, json: bool) -> SeedOutcome {
    let (report, deterministic) = match replay(scenario, label.as_bytes()) {
        Ok(r) => r,
        Err(e) => {
            return SeedOutcome { text: format!("seed {label}: harness error: {e}\n"), failed: true }
        }
    };
    let failed = !deterministic || !report.clean();
    let text = if json {
        format!(
            "{{\"report\":{},\"deterministic\":{deterministic},\"failed\":{failed}}}\n",
            report_json(&report)
        )
    } else {
        render_text(label, &report, deterministic)
    };
    SeedOutcome { text, failed }
}

/// Fan `seeds` out over `jobs` worker threads, printing outcomes in
/// seed order; returns the number of failed seeds.
fn run_family(seeds: usize, jobs: usize, run: impl Fn(usize) -> SeedOutcome + Sync) -> usize {
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, SeedOutcome)>();
    let mut failures = 0usize;
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let next = &next;
            let run = &run;
            scope.spawn(move || loop {
                let s = next.fetch_add(1, Ordering::Relaxed);
                if s >= seeds {
                    break;
                }
                if tx.send((s, run(s))).is_err() {
                    break;
                }
            });
        }
        drop(tx);

        let mut pending: BTreeMap<usize, SeedOutcome> = BTreeMap::new();
        let mut next_print = 0usize;
        for (s, outcome) in rx {
            pending.insert(s, outcome);
            while let Some(o) = pending.remove(&next_print) {
                print!("{}", o.text);
                if o.failed {
                    failures += 1;
                }
                next_print += 1;
            }
        }
    });
    failures
}

/// What one invocation runs: the selected families with their configs,
/// and how.
struct Plan {
    seeds: usize,
    jobs: usize,
    base: String,
    json: bool,
    mirror: Option<ChaosConfig>,
    migration: Option<MigrationChaosConfig>,
    attest: Option<AttestChaosConfig>,
    fleet: Option<FleetChaosConfig>,
    matrix: Option<CrashMatrix>,
}

impl Plan {
    /// Run `scenario` over every seed, labelled `{base}-{tag}{s}`;
    /// returns the number of failed seeds.
    fn sweep<S: Scenario + Sync>(&self, scenario: &S, tag: &str) -> usize {
        run_family(self.seeds, self.jobs, |s| {
            run_seed(scenario, &format!("{}-{tag}{s}", self.base), self.json)
        })
    }
}

/// Parse the command line; `Err` carries the usage exit status.
fn parse(args: &[String]) -> Result<Plan, ExitCode> {
    let mut seeds = 32usize;
    let mut cfg = ChaosConfig::default();
    let mut base = String::from("chaos");
    let mut jobs = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut family = "mirror";
    let mut matrix = false;
    let mut json = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| -> Option<&String> {
            let v = it.next();
            if v.is_none() {
                eprintln!("{name} needs a value");
            }
            v
        };
        match arg.as_str() {
            "--seeds" => match take("--seeds").and_then(|v| v.parse().ok()) {
                Some(n) => seeds = n,
                None => return Err(ExitCode::from(2)),
            },
            "--events" => match take("--events").and_then(|v| v.parse().ok()) {
                Some(n) => cfg.events = n,
                None => return Err(ExitCode::from(2)),
            },
            "--faults" => match take("--faults").and_then(|v| v.parse().ok()) {
                Some(n) => cfg.faults = n,
                None => return Err(ExitCode::from(2)),
            },
            "--mode" => match take("--mode").map(String::as_str) {
                Some("encrypted") => cfg.mirror_mode = MirrorMode::Encrypted,
                Some("cleartext") => cfg.mirror_mode = MirrorMode::Cleartext,
                _ => {
                    eprintln!("--mode is encrypted|cleartext");
                    return Err(ExitCode::from(2));
                }
            },
            "--base" => match take("--base") {
                Some(b) => base = b.clone(),
                None => return Err(ExitCode::from(2)),
            },
            "--jobs" => match take("--jobs").and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1usize => jobs = n,
                _ => {
                    eprintln!("--jobs needs a positive integer");
                    return Err(ExitCode::from(2));
                }
            },
            "--family" => match take("--family").map(String::as_str) {
                Some(f @ ("mirror" | "migration" | "attest" | "fleet" | "all")) => family = f,
                _ => {
                    eprintln!("--family is mirror|migration|attest|fleet|all");
                    return Err(ExitCode::from(2));
                }
            },
            "--matrix" => matrix = true,
            "--json" => json = true,
            other => {
                eprintln!("unknown argument: {other}");
                return Err(ExitCode::from(2));
            }
        }
    }

    let runs = |f: &str| family == f || family == "all";
    // Packages ship sealed exactly when the mirror is encrypted, for the
    // migration family and the crash matrix alike.
    let sealed = cfg.mirror_mode == MirrorMode::Encrypted;
    Ok(Plan {
        seeds,
        jobs: jobs.min(seeds.max(1)),
        base,
        json,
        mirror: runs("mirror").then_some(cfg),
        migration: runs("migration").then(|| MigrationChaosConfig { sealed, ..Default::default() }),
        attest: runs("attest").then(AttestChaosConfig::default),
        fleet: runs("fleet").then(FleetChaosConfig::default),
        matrix: matrix.then_some(CrashMatrix { sealed }),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let plan = match parse(&args) {
        Ok(plan) => plan,
        Err(code) => return code,
    };

    // Work-stealing over the seed index; results stream back over a
    // channel and are printed strictly in seed order (out-of-order
    // completions buffer until their turn).
    let mut failures = 0usize;
    let mut ran = 0usize;
    if let Some(cfg) = &plan.mirror {
        failures += plan.sweep(cfg, "");
        ran += plan.seeds;
    }
    if let Some(cfg) = &plan.migration {
        failures += plan.sweep(cfg, "mig-");
        ran += plan.seeds;
    }
    if let Some(cfg) = &plan.attest {
        failures += plan.sweep(cfg, "att-");
        ran += plan.seeds;
    }
    if let Some(cfg) = &plan.fleet {
        failures += plan.sweep(cfg, "fleet-");
        ran += plan.seeds;
    }
    if let Some(matrix) = &plan.matrix {
        let outcome = run_seed(matrix, &format!("{}-matrix", plan.base), plan.json);
        print!("{}", outcome.text);
        if outcome.failed {
            failures += 1;
        }
        ran += 1;
    }

    if failures > 0 {
        println!("{failures}/{ran} seeds failed");
        ExitCode::from(1)
    } else {
        println!("{ran} seeds clean, replays deterministic");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(args: &[&str]) -> Result<Plan, ExitCode> {
        parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn matrix_follows_the_mode_like_the_migration_family() {
        for (mode, sealed) in [("encrypted", true), ("cleartext", false)] {
            let p = plan(&["--mode", mode, "--family", "migration", "--matrix"]).unwrap();
            assert_eq!(p.matrix, Some(CrashMatrix { sealed }), "--mode {mode}");
            assert_eq!(p.migration.map(|m| m.sealed), Some(sealed), "--mode {mode}");
            assert!(p.mirror.is_none() && p.attest.is_none() && p.fleet.is_none());
        }
        assert_eq!(plan(&[]).unwrap().matrix, None, "the matrix is opt-in");
    }

    #[test]
    fn family_all_selects_every_family_and_both_is_gone() {
        let p = plan(&["--family", "all"]).unwrap();
        assert!(p.mirror.is_some() && p.migration.is_some());
        assert!(p.attest.is_some() && p.fleet.is_some());
        assert!(plan(&["--family", "both"]).is_err());
    }
}
