//! # e2e — the end-to-end vTPM request-path benchmark
//!
//! Drives the shipped improved stack (`vtpm_ac::SecurePlatform::full`:
//! AC1–AC4, encrypted mirror, scrubbed rings) through real `TpmFront`s
//! with `workload::GuestSession`, so every measured operation crosses
//! guest client → frontend → ring + event channel → tpmback → AC hook →
//! TPM → encrypted-mirror commit and back.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <measure-1vm|attest-1vm|tenants-64|all> --seed <u64> \
//!     [--seconds <n>] [--trace [0|1]] [--trace-out <path>]
//! ```
//!
//! Every metric is printed as `name workload value unit`; the last line
//! is one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! The untraced run reports the end-to-end metrics, the `--trace` run the
//! per-layer ones. Output checks run in the same command (zero denials,
//! errors, throttles and mirror failures; `AuditLog::verify` over the
//! whole chain; every guest's resident image equal to its exported
//! state; commands sent == manager requests finished == audit entries
//! appended) and any failure makes the exit code nonzero. `all` runs each
//! workload in a child process of its own, so `peak_rss_mb` and
//! `setup_s` belong to that workload and no backend thread of one
//! workload disturbs the next.
//!
//! ## Load model
//!
//! Closed loop: every guest has at most one TPM command outstanding, as a
//! TPM 1.2 device serves one command at a time. Load comes from at most
//! two client threads; each owns a fixed set of guests and drives them in
//! turn, one operation at a time. An operation is a full
//! `GuestSession::run`, auth sessions included. A run measures for
//! `--seconds` after an untimed warm-up of 20% of that (the wake-up path
//! speeds up over the first seconds of ping-pong traffic). The seed
//! generates every guest's op stream and session secrets; the program
//! receives only the commands they produce. Platform key material is
//! fixed per workload, so set-up is the same work in every run.
//!
//! Every thread of a run — clients and the platform's backend threads —
//! is confined to one CPU (the highest-numbered one the process may use).
//! A ring round trip then wakes a thread on the same CPU rather than a
//! sleeping second CPU, whose wake-up time on a shared virtual machine
//! depends on the host's other tenants. Unpinned, ten attest-1vm runs on
//! a busy host read a median `cmd_p50_us` of 16.5 µs with an
//! interquartile range of 61% of it, against 7.3 µs and under 5% on a
//! quiet one; a cheap command is mostly its two wake-ups.
//!
//! ## Workloads
//!
//! * `measure-1vm` — 1 guest, 1 client, `CommandMix::measurement()`
//!   (Extend 45 / PcrRead 35 / Seal 10 / GetRandom 10). The write path:
//!   about 0.4 mirror updates per command, and mirror refresh (serialize,
//!   page diff, AES-CTR, metadata commit) is most of the Dom0 time. RSA
//!   work and cross-guest wake-ups are nearly absent.
//! * `attest-1vm` — 1 guest, 1 client, `CommandMix::attestation_heavy()`
//!   (Quote 50 / PcrRead 30 / Extend 10 / GetRandom 10). The RSA-signing
//!   and OIAP-session path, read-mostly: a mirror optimisation must leave
//!   it flat and a crypto optimisation must move it.
//! * `tenants-64` — 64 resident guests, 2 clients each cycling through
//!   its 32 guests, `CommandMix::light()` (GetRandom 40 / PcrRead 40 /
//!   Extend 20). A consolidation host: many resident vTPMs, two active at
//!   a time. Crypto is nil; the ring and event-channel path dominates (one
//!   host-wide condvar wakes every backend thread on each notify), so
//!   transport and scheduling optimisations show here and nowhere else.
//!
//! ## End-to-end metrics (untraced run)
//!
//! `ops_per_s`; `op_p50_us`/`op_p90_us` per operation; `cmd_p50_us`/
//! `cmd_p90_us` per TPM command as the guest driver sees it (envelope
//! signing plus the ring round trip); `setup_s`, the median of several
//! set-ups (platform boot + every guest launched + `GuestSession::prepare`
//! for each); `peak_rss_mb`, the process `VmHWM` read when a fixed number
//! of ops has completed, so memory is compared at equal work.
//!
//! `ops_per_s` and `setup_s` are read on the *own-time* clock (see
//! `clock.rs`): process CPU time plus the pinned CPU's idle time. While
//! the benchmark holds its CPU this is wall time (they agreed within
//! 0.1% over a quiet run, the CPU never idling); time the host or another
//! process takes the CPU away does not count, while waiting the program
//! itself does on that CPU still counts. With a busy loop sharing the
//! pinned CPU, wall-clock throughput on attest-1vm halved, while own-time
//! throughput read within 1% of runs with the busy loop on the other CPU.
//! Latencies are wall clock; a percentile is barely moved by preemption,
//! which lands in few operations (`cmd_p50_us` rose 9% in that test).
//!
//! The window is cut into forty sub-windows, each driven by freshly
//! spawned client threads, and the throughput and latency metrics are the
//! mean over the ten with the highest throughput: the ones least
//! disturbed by other load on a shared host. Latencies are
//! multi-modal (each command type has its own cluster), so a percentile
//! is taken as the mean of the samples within ±5 points of it: a plain
//! p50 that falls between two clusters jumps from one to the other when
//! the mix shifts by a fraction of a percent. Tails are p90; p99 spreads
//! far more run to run (cross-core wake timing), so it is a per-layer
//! diagnostic (`op_p99_us`, `cmd_p99_us`). Failed operations are reported
//! as `failed` of `attempted` and must be zero, so there is no
//! `error_rate` metric (it is printed as a line).
//!
//! ## Per-layer metrics (`--trace` run) and what each should move
//!
//! All times are wall clock, taken around public calls from this
//! package's own files. (b) runs first: a *direct* run with no ring that
//! calls the Dom0 layers in the order `VtpmManager::handle` does
//! (`Envelope::decode`, `hook.authorize`, `with_instance` with
//! `VtpmInstance::execute` timed inside, `ResponseEnvelope::encode`).
//! Then (a), the *in-place* ring run, alternates plain and traced
//! segments in twelve P T T P blocks; traced segments install a timing
//! wrapper around the shipped hook with `VtpmManager::set_hook` (it
//! delegates `overhead_ns`, so virtual time does not change).
//!
//! | metric | run | should move | on |
//! |---|---|---|---|
//! | `tpm.client_self_us` (op minus transport, per command) | a | `op_p50_us` | attest-1vm |
//! | `vtpm.front.build_envelope_us` (AC1 HMAC in the guest) | a | `cmd_p50_us` | measure-1vm |
//! | `vtpm.front.transact_envelope_us`, `_p99_us` | a | `cmd_p50_us`, `cmd_p90_us` | tenants-64 (flat on 1vm) |
//! | `vtpm-ac.authorize_us` (backend thread) | a | `cmd_p50_us` | measure-1vm, tenants-64 |
//! | `vtpm.transport.codec_us` | b | `cmd_p50_us` | all |
//! | `vtpm-ac.authorize_direct_us` (uncontended) | b | — gap to `authorize_us` is contention | tenants-64 |
//! | `tpm.execute_us` | b | `op_p50_us`, `ops_per_s` | attest-1vm (flat on tenants-64) |
//! | `vtpm.mirror.refresh_us` (lock, serialize, mirror update) | b | `op_p50_us`, `ops_per_s` | measure-1vm (flat on attest-1vm) |
//! | `xen-sim.ring_wait_us` (derived: transact − codec − authorize − execute − refresh) | a−b | `cmd_p50_us` | tenants-64 |
//! | `vtpm.launch_guest_ms`, `workload.prepare_ms` | set-up | `setup_s` | tenants-64 |
//! | `vtpm-ac.audit_entries` | counts | `peak_rss_mb` | all |
//!
//! Counts (`tpm.cmds_per_op`, `vtpm.mirror.{updates,pages,bytes}_per_cmd`,
//! `vtpm.manager.mirror_skipped_ratio`, `vtpm-ac.audit_entries`) are
//! deltas of public counters over the first 2000 direct ops, so they
//! repeat exactly for a seed. `vtpm.mirror.clean_update_ratio` is printed
//! too but is not a metric: it is zero on every workload. Modelled beside
//! measured: `vtpm-ac.authorize_modelled_us` (the hook's `overhead_ns`),
//! `tpm.execute_modelled_us` (`tpm::command_cost_ns`), `virt_us_per_cmd`
//! (virtual-clock delta per command) and, printed only since it is a
//! constant, `xen-sim.ring_modelled_us` (2 × `transport_cost_ns`).
//! `trace.coverage_pct` is the layers' summed self time over op time in
//! the direct run; `trace.overhead_pct` is the median over blocks of the
//! traced segments' throughput loss against the plain ones.
//! `xen-sim.ring_wait_us` subtracts direct-run figures from an in-place
//! one, so on the 1vm workloads, where the wait is a few µs, it can read
//! slightly negative. `--trace-out <path>` appends the spans of the first
//! 5000 commands of each run as JSON lines (op → command → layer; backend
//! `authorize` spans joined to their command by (domain, seq)).
//!
//! ## Bounds
//!
//! Each end-to-end bound in `BENCHMARK.json` was fixed from two sets of
//! ten 15 s runs per workload (seeds 301–310 and 401–410, the three
//! workloads interleaved) on a 2-vCPU virtual machine shared with other
//! load. The spread is the interquartile range over the median.
//!
//! | metric | measure-1vm | attest-1vm | tenants-64 | bound |
//! |---|---|---|---|---|
//! | `ops_per_s` | 3.5%, 5.6% | 2.7%, 6.9% | 2.4%, 4.9% | 0.25 |
//! | `op_p50_us` | 4.9%, 5.6% | 3.0%, 7.5% | 2.3%, 5.0% | 0.25 |
//! | `op_p90_us` | 1.4%, 3.2% | 1.7%, 5.2% | 3.2%, 5.4% | 0.25 |
//! | `cmd_p50_us` | 5.6%, 7.9% | 2.5%, 6.7% | 2.3%, 4.9% | 0.25 |
//! | `cmd_p90_us` | 1.4%, 3.1% | 1.9%, 5.3% | 3.2%, 5.4% | 0.25 |
//! | `setup_s` | 21.5%, 26.5% | 6.7%, 5.2% | 9.9%, 8.5% | 0.25 |
//! | `peak_rss_mb` | 0.3%, 0.3% | 0.4%, 0.4% | 0.2%, 0.1% | 0.10 |
//!
//! The medians of the two sets agreed within 2% on every timing metric
//! and within 4% on `setup_s`. The timing bounds still sit at the 0.25
//! ceiling: the host's own speed drifts by up to ~25% over tens of
//! minutes (attest-1vm read 19.4k to 26.7k ops/s over two sets of runs
//! made back to back), and neither pinning nor the own-time clock
//! removes that.
//! `setup_s` on measure-1vm is a set-up of ~85 ms whose runs now and then
//! read several times that (one run in twenty read 0.33 s); its median
//! over ten runs held at 0.085–0.086 s.

mod clock;
mod front;
mod run;

use std::io::Write;
use std::process::ExitCode;

use run::{Plan, Report, Window, WORKLOADS};

const USAGE: &str = "usage: e2e --workload <measure-1vm|attest-1vm|tenants-64|all> --seed <u64> \
                     [--seconds <n>] [--trace [0|1]] [--trace-out <path>]";

struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        trace_out: None,
    };
    let mut seed = None;
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--workload" => cli.workload = value(i)?.clone(),
            "--seed" => seed = Some(value(i)?.parse().map_err(|_| "--seed takes a u64")?),
            "--seconds" => {
                cli.seconds = value(i)?.parse().map_err(|_| "--seconds takes a number")?;
                if !(cli.seconds > 0.0 && cli.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace-out" => cli.trace_out = Some(value(i)?.clone()),
            "--trace" => {
                cli.trace = true;
                match args.get(i + 1).map(String::as_str) {
                    Some("0") => cli.trace = false,
                    Some("1") => {}
                    _ => {
                        i += 1;
                        continue;
                    }
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    cli.seed = seed.ok_or("--seed is required")?;
    if cli.workload != "all" && !WORKLOADS.iter().any(|w| w.name == cli.workload) {
        return Err(format!("unknown workload {:?}", cli.workload));
    }
    Ok(cli)
}

/// Run each workload in a child process of its own.
fn run_all(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("e2e: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for wl in &WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", wl.name, "--seed", &cli.seed.to_string()]);
        cmd.args([
            "--seconds",
            &cli.seconds.to_string(),
            "--trace",
            if cli.trace { "1" } else { "0" },
        ]);
        if let Some(path) = &cli.trace_out {
            cmd.args(["--trace-out", path]);
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("e2e: {} failed ({status})", wl.name);
                ok = false;
            }
            Err(e) => {
                eprintln!("e2e: cannot start {}: {e}", wl.name);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every line to print: one per metric and note, then the result object.
fn render(r: &Report) -> Vec<String> {
    let mut lines: Vec<String> = r
        .metrics
        .iter()
        .chain(&r.notes)
        .map(|(name, value, unit)| format!("{name} {} {value} {unit}", r.workload))
        .collect();
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    lines.push(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failures.is_empty(),
        r.attempted,
        r.failed,
        metrics.join(", ")
    ));
    lines
}

/// Append the kept spans to `path` as JSON lines.
fn write_spans(r: &Report, path: &str) -> std::io::Result<()> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut out = std::io::BufWriter::new(file);
    for (run, s) in &r.spans {
        write!(
            out,
            "{{\"workload\": \"{}\", \"run\": \"{run}\", \"name\": \"{}\", \"id\": {}, \"parent\": {}, \
             \"start_ns\": {}, \"dur_ns\": {}, \"domain\": {}, \"seq\": {}",
            r.workload, s.name, s.id, s.parent, s.start_ns, s.dur_ns, s.domain, s.seq
        )?;
        if !s.label.is_empty() {
            write!(out, ", \"op\": \"{}\"", s.label)?;
        }
        writeln!(out, "}}")?;
    }
    out.flush()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.workload == "all" {
        return run_all(&cli);
    }
    let wl = WORKLOADS
        .iter()
        .find(|w| w.name == cli.workload)
        .expect("validated by parse");
    if let Err(e) = clock::pin_to_one_cpu() {
        eprintln!("e2e: cannot pin to one CPU: {e}");
        return ExitCode::FAILURE;
    }
    let plan = Plan {
        window: Window::Seconds(cli.seconds),
        guests: wl.guests,
    };
    let result = if cli.trace {
        run::run_traced(wl, cli.seed, plan)
    } else {
        run::run_untraced(wl, cli.seed, plan)
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2e: {}: {e}", wl.name);
            return ExitCode::FAILURE;
        }
    };
    for (name, value, _) in &report.metrics {
        if !value.is_finite() {
            report
                .failures
                .push(format!("metric {name} is not a number"));
        }
    }
    if let Some(path) = &cli.trace_out {
        if let Err(e) = write_spans(&report, path) {
            report
                .failures
                .push(format!("cannot write spans to {path}: {e}"));
        }
    }
    for f in &report.failures {
        eprintln!("e2e: {}: CHECK FAILED: {f}", wl.name);
    }
    for line in render(&report) {
        println!("{line}");
    }
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names listed under `key` in BENCHMARK.json.
    fn listed(key: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let section = &json[start..];
        let end = section.find(']').expect("section closes");
        section[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_string())
            .collect()
    }

    fn toy(wl: &run::Workload) -> Plan {
        Plan {
            window: Window::Ops(200),
            guests: wl.guests.min(4),
        }
    }

    fn assert_reports(key: &str, report: &Report) {
        assert!(
            report.failures.is_empty(),
            "{}: {:?}",
            report.workload,
            report.failures
        );
        assert!(report.attempted > 0 && report.failed == 0);
        let printed: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
        for name in listed(key) {
            assert!(
                printed.contains(&name.as_str()),
                "{}: {name} not printed",
                report.workload
            );
        }
        assert_eq!(
            printed.len(),
            listed(key).len(),
            "{}: unlisted metric printed",
            report.workload
        );
        let last = render(report).pop().expect("result line");
        assert!(last.starts_with("{\"correct\": true,"), "{last}");
    }

    #[test]
    fn every_workload_runs_clean_at_toy_size() {
        let names: Vec<String> = listed("workloads");
        assert_eq!(names, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
        for wl in &WORKLOADS {
            assert_reports(
                "end_to_end",
                &run::run_untraced(wl, 7, toy(wl)).expect("untraced run"),
            );
            let traced = run::run_traced(wl, 7, toy(wl)).expect("traced run");
            assert_reports("per_layer", &traced);
            assert!(!traced.spans.is_empty(), "{}: no spans kept", wl.name);
        }
    }

    #[test]
    fn counts_repeat_exactly_for_a_seed() {
        let wl = &WORKLOADS[0];
        let counts = |r: Report| -> Vec<(&'static str, f64)> {
            r.metrics
                .into_iter()
                .filter(|m| m.2 == "count" || m.2 == "B" || m.2 == "ratio")
                .map(|m| (m.0, m.1))
                .collect()
        };
        let a = counts(run::run_traced(wl, 3, toy(wl)).expect("first run"));
        let b = counts(run::run_traced(wl, 3, toy(wl)).expect("second run"));
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn parse_accepts_both_trace_forms() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let cli = parse(&args("--workload tenants-64 --seed 3 --trace")).unwrap();
        assert!(cli.trace);
        let cli = parse(&args("--workload all --seed 3 --seconds 2 --trace 0")).unwrap();
        assert!(!cli.trace && cli.seconds == 2.0);
        assert!(parse(&args("--workload nope --seed 1")).is_err());
        assert!(parse(&args("--workload attest-1vm")).is_err());
    }
}
