//! `manager_bench` — the Dom0 manager's scaling numbers, as machine-
//! readable JSON (`BENCH_manager.json`, one object, stable field
//! order). Runs the R-P1 sweep: wall ns per command on the routing hot
//! path (PcrRead round-robin) and the mirror write path (Extend +
//! flush) at each resident-instance count, under both the per-command
//! and group-commit flush policies, plus the staging/commit/flush
//! amortization counters.
//!
//! The gate is the scaling ratio: read-path ns/cmd at the largest count
//! divided by the smallest count, worst case over both policies. The
//! sharded routing table should keep this near 1.0; anything above
//! [`p1::BUDGET_RATIO`] fails the run.
//!
//! ```text
//! manager_bench [--quick] [--out PATH]
//! ```
//!
//! Exits nonzero if the gate fails — `scripts/bench.sh` relies on that.

use vtpm_bench::exp::p1;
use vtpm_harness::json_str;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_manager.json")
        .to_string();

    // Quick keeps the 100-vs-10k endpoints (the gate is the ratio of
    // the extremes); full adds the midpoint for curve shape.
    let counts: &[usize] = if quick { &[100, 10_000] } else { &[100, 1_000, 10_000] };
    let (read_cmds, mutate_cmds) = if quick { (40_000, 2_000) } else { (50_000, 5_000) };

    let points = p1::run(counts, read_cmds, mutate_cmds);
    let ratio = p1::overhead_ratio(&points);
    let gate_failed = ratio > p1::BUDGET_RATIO;

    eprint!("{}", p1::render(&points));

    let rows = points
        .iter()
        .map(|p| {
            format!(
                "{{\"instances\":{},\"policy\":{},\"read_ns_per_cmd\":{:.1},\
                 \"mutate_ns_per_cmd\":{:.1},\"staged_updates\":{},\
                 \"batched_commits\":{},\"flushes\":{},\"data_pages_written\":{}}}",
                p.instances,
                json_str(if p.batched { "batched" } else { "per-command" }),
                p.read_ns_per_cmd,
                p.mutate_ns_per_cmd,
                p.staged_updates,
                p.batched_commits,
                p.flushes,
                p.data_pages_written
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let json = format!(
        "{{\"bench\":\"manager\",\"quick\":{},\"read_cmds\":{},\"mutate_cmds\":{},\
         \"points\":[{}],\"overhead_ratio\":{:.3},\"budget_ratio\":{:.1},\"gate\":{}}}\n",
        quick,
        read_cmds,
        mutate_cmds,
        rows,
        ratio,
        p1::BUDGET_RATIO,
        json_str(if gate_failed { "FAIL" } else { "PASS" }),
    );

    std::fs::write(&out_path, &json).expect("write bench artifact");
    print!("{json}");
    eprintln!("wrote {out_path}");
    if gate_failed {
        std::process::exit(1);
    }
}
