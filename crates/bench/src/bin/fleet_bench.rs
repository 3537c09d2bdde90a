//! `fleet_bench` — the fleet control plane's numbers, as machine-
//! readable JSON (`BENCH_fleet.json`, one object, stable field order).
//! Three measurements:
//!
//! * **Churn sweep** — the R-M2 scenario (phi-accrual detection,
//!   concurrent drivers, rebalancer under host churn): per-seed
//!   committed/conflict/suspect counts, the cluster-wide p99
//!   quiesce→commit blackout in virtual time, exactly-once accounting,
//!   and byte-identical replay of every seed.
//! * **Detector ingest** — wall ns per heartbeat through the
//!   phi-accrual estimator at fleet width, plus ns per phi query. This
//!   is the budget the control plane pays per heartbeat received.
//! * **Controller tick** — wall ns per `Fleet::tick` over a live
//!   cluster at bench scale with the driver pool saturated; the
//!   steady-state cost of running the control loop.
//!
//! ```text
//! fleet_bench [--quick] [--out PATH]
//! ```
//!
//! Exits nonzero if the R-M2 gate fails (lost/duplicated/orphaned
//! vTPM, a double-winner conflict, a replay mismatch, or a blown
//! blackout budget) — `scripts/bench.sh` relies on that.

use std::time::Instant;

use vtpm_bench::exp::m2;
use vtpm_cluster::{Cluster, ClusterConfig};
use vtpm_fleet::{FailureDetectorConfig, Fleet, FleetConfig, PhiAccrualDetector};
use vtpm_harness::json_str;

/// Wall ns per heartbeat ingested and per phi query, median of `reps`
/// passes over `hosts` hosts x `beats` heartbeats each.
fn detector_ns(hosts: usize, beats: usize, reps: usize) -> (f64, f64) {
    let mut ingest: Vec<f64> = Vec::with_capacity(reps);
    let mut query: Vec<f64> = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut d = PhiAccrualDetector::new(FailureDetectorConfig::default());
        for h in 0..hosts {
            d.register(h, 0);
        }
        let period = 1_000_000u64; // 1ms heartbeat period, slight per-host skew
        let t0 = Instant::now();
        for b in 0..beats {
            for h in 0..hosts {
                d.heartbeat(h, b as u64 * period + h as u64 * 37);
            }
        }
        ingest.push(t0.elapsed().as_nanos() as f64 / (beats * hosts) as f64);
        let now = beats as u64 * period;
        let t0 = Instant::now();
        for h in 0..hosts {
            std::hint::black_box(d.phi(h, now));
        }
        query.push(t0.elapsed().as_nanos() as f64 / hosts as f64);
    }
    ingest.sort_by(|a, b| a.total_cmp(b));
    query.sort_by(|a, b| a.total_cmp(b));
    (ingest[reps / 2], query[reps / 2])
}

/// Wall ns per controller tick at (`hosts`, `vms`) scale, median of
/// `reps` passes of `ticks` ticks. The skewed initial placement keeps
/// the rebalancer and the driver pool busy for the whole measurement.
fn tick_ns(hosts: usize, vms: usize, ticks: usize, reps: usize) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|rep| {
            let seed = format!("fleet-bench-tick-{rep}");
            let mut c = Cluster::new(
                seed.as_bytes(),
                ClusterConfig { hosts, frames_per_host: 4096, ..Default::default() },
            )
            .expect("cluster");
            for _ in 0..vms {
                c.create_vm().expect("vm");
            }
            let mut fleet = Fleet::new(FleetConfig::default(), &c);
            let t0 = Instant::now();
            for _ in 0..ticks {
                fleet.tick(&mut c);
            }
            t0.elapsed().as_nanos() as f64 / ticks as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_fleet.json")
        .to_string();

    // Churn sweep: the gated R-M2 numbers (full scale is `repro m2`'s
    // 100x1000; the bench keeps the artifact minutes-free).
    let (hosts, vms, rounds, seeds) = if quick { (8, 24, 6, 2) } else { (24, 120, 8, 3) };
    let report = m2::run(hosts, vms, rounds, seeds);
    let gate_failed = m2::gate_failed(&report);

    let (dhosts, beats, dreps) = if quick { (100, 2_000, 3) } else { (100, 20_000, 5) };
    let (ingest_ns, phi_ns) = detector_ns(dhosts, beats, dreps);

    let (thosts, tvms, ticks, treps) = if quick { (16, 64, 50, 3) } else { (32, 256, 200, 5) };
    let tick = tick_ns(thosts, tvms, ticks, treps);

    let rows = report
        .rows
        .iter()
        .map(|x| {
            format!(
                "{{\"seed\":{},\"committed\":{},\"failed\":{},\"conflicts\":{},\
                 \"conflict_pairs\":{},\"multi_winner\":{},\"crashes\":{},\"suspects\":{},\
                 \"false_suspects\":{},\"downtime_p99_ns\":{},\"downtime_max_ns\":{},\
                 \"accounting_violations\":{},\"replay_ok\":{}}}",
                json_str(&x.seed),
                x.committed,
                x.failed,
                x.conflicts,
                x.conflict_pairs,
                x.multi_winner,
                x.crashes,
                x.suspects,
                x.false_suspects,
                x.downtime_p99_ns,
                x.downtime_max_ns,
                x.accounting_violations,
                x.replay_ok,
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let json = format!(
        "{{\"bench\":\"fleet\",\"quick\":{},\"hosts\":{},\"vms\":{},\"rounds\":{},\
         \"sweep\":[{}],\"worst_p99_downtime_ns\":{},\"budget_p99_ns\":{},\
         \"detector_hosts\":{},\"heartbeat_ingest_ns\":{:.1},\"phi_query_ns\":{:.1},\
         \"tick_hosts\":{},\"tick_vms\":{},\"tick_ns\":{:.0},\"gate\":{}}}\n",
        quick,
        report.hosts,
        report.vms,
        report.rounds,
        rows,
        m2::worst_p99_ns(&report),
        m2::BUDGET_P99_NS,
        dhosts,
        ingest_ns,
        phi_ns,
        thosts,
        tvms,
        tick,
        json_str(if gate_failed { "FAIL" } else { "PASS" }),
    );

    std::fs::write(&out_path, &json).expect("write bench artifact");
    print!("{json}");
    eprintln!("wrote {out_path}");
    if gate_failed {
        std::process::exit(1);
    }
}
