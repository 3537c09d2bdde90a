//! `observatory_bench` — the fleet observatory's numbers, as machine-
//! readable JSON (`BENCH_observatory.json`, one object, stable field
//! order). Everything is the R-O2 experiment re-emitted for the
//! artifact directory:
//!
//! * **Clean sweep** — attack-free fleet chaos seeds with the
//!   observatory in the loop: scrape counts, SLO burns (must be zero),
//!   false suspicions, byte-identical replays.
//! * **Aggregation fidelity** — merged cross-host p99 vs the exact
//!   order statistic over every span served, with the 1/16 bound.
//! * **Closed loop** — the injected blackout regression walking
//!   burn → sentinel relay → rebalancer pause → age-out clear →
//!   resume.
//! * **Self-overhead** — wall ns per scrape+evaluate pass as a share
//!   of the controller's heartbeat period (duty cycle), against the
//!   3% budget, with the modelled fabric time alongside.
//!
//! ```text
//! observatory_bench [--quick] [--out PATH]
//! ```
//!
//! Exits nonzero if the R-O2 gate fails — `scripts/bench.sh` and the
//! CI observatory stage rely on that.

use vtpm_bench::exp::o2;
use vtpm_harness::json_str;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_observatory.json")
        .to_string();

    let (hosts, vms, rounds, seeds) = if quick { (8, 24, 5, 1) } else { (24, 120, 8, 2) };
    let report = o2::run(hosts, vms, rounds, seeds);
    let gate_failed = o2::gate_failed(&report);

    let rows = report
        .clean
        .iter()
        .map(|x| {
            format!(
                "{{\"seed\":{},\"scrapes\":{},\"slo_burns\":{},\"slo_clears\":{},\
                 \"suspects\":{},\"false_suspects\":{},\"replay_ok\":{}}}",
                json_str(&x.seed),
                x.scrapes,
                x.slo_burns,
                x.slo_clears,
                x.suspects,
                x.false_suspects,
                x.replay_ok,
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let f = &report.fidelity;
    let l = &report.slo_loop;
    let json = format!(
        "{{\"bench\":\"observatory\",\"quick\":{},\"hosts\":{},\"vms\":{},\"rounds\":{},\
         \"sweep\":[{}],\
         \"fidelity\":{{\"samples\":{},\"exact_p99_ns\":{},\"fleet_p99_ns\":{},\
         \"rel_err\":{:.6},\"bound\":{:.6},\"count_match\":{}}},\
         \"closed_loop\":{{\"pre_clean\":{},\"raised\":{},\"alerted\":{},\"paused\":{},\
         \"cleared\":{},\"resumed\":{}}},\
         \"overhead_hosts\":{},\"scrape_wall_ns\":{:.0},\"scrape_virtual_ns\":{:.0},\
         \"period_ns\":{},\"overhead_pct\":{:.3},\"budget_pct\":{:.1},\"gate\":{}}}\n",
        quick,
        report.hosts,
        report.vms,
        report.rounds,
        rows,
        f.samples,
        f.exact_p99_ns,
        f.fleet_p99_ns,
        f.rel_err,
        o2::REL_ERR_BOUND,
        f.count_match,
        l.pre_clean,
        l.raised,
        l.alerted,
        l.paused,
        l.cleared,
        l.resumed,
        report.overhead_hosts,
        report.scrape_wall_ns,
        report.scrape_virtual_ns,
        report.period_ns,
        report.overhead_pct(),
        o2::BUDGET_PCT,
        json_str(if gate_failed { "FAIL" } else { "PASS" }),
    );

    std::fs::write(&out_path, &json).expect("write bench artifact");
    print!("{json}");
    eprintln!("wrote {out_path}");
    if gate_failed {
        std::process::exit(1);
    }
}
