//! `repro` — regenerate, gate and emit every table and figure of the
//! evaluation.
//!
//! ```text
//! repro [EXP...|all] [--quick] [--out DIR]
//! ```
//!
//! Runs each named experiment of [`vtpm_bench::EXPERIMENTS`] (no name or
//! `all` runs them all) at full size, or at CI size with `--quick`, and
//! prints its table. With `--out DIR` it also writes
//! `DIR/BENCH_<exp>.json`, one line of
//! `{"bench":"<exp>","quick":..,<fields>,"gate":"PASS"|"FAIL"}`.
//!
//! Exits 1 if any experiment's budget gate failed (each failure is
//! named on stderr) — the CI gate in `scripts/ci.sh` relies on it — and
//! 2 on an unknown experiment or option.

use std::path::PathBuf;
use std::process::exit;

use vtpm_bench::{Outcome, EXPERIMENTS};

fn usage(problem: &str) -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    eprintln!("{problem}\nusage: repro [{}|all]... [--quick] [--out DIR]", names.join("|"));
    exit(2);
}

fn main() {
    let mut quick = false;
    let mut out: Option<PathBuf> = None;
    let mut selected: Vec<(&str, fn(bool) -> Outcome)> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => match args.next() {
                Some(dir) => out = Some(dir.into()),
                None => usage("--out needs a directory"),
            },
            "all" => selected.extend(EXPERIMENTS),
            name => match EXPERIMENTS.iter().find(|(n, _)| *n == name) {
                Some(&exp) => selected.push(exp),
                None => usage(&format!("unknown experiment or option `{name}`")),
            },
        }
    }
    if selected.is_empty() {
        selected.extend(EXPERIMENTS);
    }
    if let Some(dir) = &out {
        std::fs::create_dir_all(dir).expect("create artifact directory");
    }

    let mut failed = false;
    for (name, repro) in selected {
        let t0 = std::time::Instant::now();
        let outcome = repro(quick);
        println!("{}", outcome.text);
        println!("[{} completed in {:.1}s]\n", name, t0.elapsed().as_secs_f64());
        if let Some(dir) = &out {
            let path = dir.join(format!("BENCH_{name}.json"));
            std::fs::write(&path, outcome.artifact(name, quick) + "\n")
                .expect("write bench artifact");
            eprintln!("wrote {}", path.display());
        }
        if let Err(reason) = &outcome.gate {
            eprintln!("budget gate failed: {reason}");
            failed = true;
        }
    }
    if failed {
        exit(1);
    }
}
