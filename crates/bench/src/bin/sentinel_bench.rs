//! `sentinel_bench` — the sentinel plane's perf numbers, as machine-
//! readable JSON (`BENCH_sentinel.json`, one object, stable field
//! order). Three measurements:
//!
//! * **Detection** — the R-D1 scripted injections (A1, A7, replay
//!   storm): detected yes/no, virtual-time latency, and events fed
//!   until the firing, plus the false-positive count over a small
//!   attack-free sweep.
//! * **Sentinel throughput** — wall ns per stream event through the
//!   full engine (flight recorder + all five detectors) on a synthetic
//!   but realistic event mix. This is the budget a deployment pays per
//!   span/audit record shipped to the detection plane.
//! * **Telemetry self-overhead** — R-O1's gated number (max deployment-
//!   basis percentage), re-measured here so the trajectory of the whole
//!   observability stack lives in one artifact.
//!
//! ```text
//! sentinel_bench [--quick] [--out PATH]
//! ```
//!
//! Exits nonzero if the R-D1 gate fails (a missed injection or a clean-
//! sweep false positive) — `scripts/bench.sh` relies on that.

use std::time::Instant;

use vtpm_bench::exp::{d1, o1};
use vtpm_harness::json_str;
use vtpm_sentinel::{Sentinel, SentinelConfig, StreamEvent};
use vtpm_telemetry::{Outcome, SpanRecord};

/// Synthesize a realistic event mix: mostly allowed spans, a sprinkle
/// of denials spread across domains (below the EWMA threshold), and
/// periodic gauges — the exhaust shape of a healthy host.
fn synthetic_stream(n: usize) -> Vec<StreamEvent> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let i64 = i as u64;
        if i % 50 == 49 {
            out.push(StreamEvent::Gauge {
                host: 0,
                at_ns: i64 * 1_000,
                name: "mirror_scrub_failures",
                value: 0,
            });
            continue;
        }
        let denied = i % 10 == 3;
        out.push(StreamEvent::Span {
            host: 0,
            record: SpanRecord {
                request_id: i64 + 1,
                domain: 1 + (i as u32 % 7),
                ordinal: 0x14,
                ingress_ns: i64 * 1_000,
                end_ns: i64 * 1_000 + 800,
                outcome: if denied { Outcome::Denied(2) } else { Outcome::Ok },
                ..SpanRecord::default()
            },
        });
    }
    out
}

/// Wall ns/event through the full engine, median of `reps` passes.
fn throughput_ns_per_event(events: usize, reps: usize) -> f64 {
    let stream = synthetic_stream(events);
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let mut s = Sentinel::new(SentinelConfig::default());
            let t0 = Instant::now();
            for ev in &stream {
                std::hint::black_box(s.observe(ev.clone()));
            }
            t0.elapsed().as_nanos() as f64 / events as f64
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
        .unwrap_or("BENCH_sentinel.json")
        .to_string();

    // Detection quality: the scripted injections plus a small clean
    // sweep (the full 65-scenario FP sweep is `repro d1`'s job).
    let (mirror, migration, events, faults) = if quick { (2, 2, 30, 3) } else { (8, 8, 60, 5) };
    let report = d1::run(mirror, migration, events, faults);

    let (ev_count, reps) = if quick { (20_000, 3) } else { (200_000, 5) };
    let ns_per_event = throughput_ns_per_event(ev_count, reps);

    let (batches, per_batch) = if quick { (10, 200) } else { (40, 500) };
    let o1_rows = o1::run(batches, per_batch);
    let telemetry_pct = o1::max_overhead_pct(&o1_rows);

    let gate_failed = d1::gate_failed(&report);
    let detections = report
        .attacks
        .iter()
        .map(|a| {
            format!(
                "{{\"name\":{},\"blocked\":{},\"detected\":{},\"detector\":{},\
                 \"latency_ns\":{},\"events_to_detect\":{}}}",
                json_str(a.name),
                a.blocked,
                a.detected,
                json_str(a.detector),
                a.latency_ns,
                a.events_to_detect
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let json = format!(
        "{{\"bench\":\"sentinel\",\"quick\":{},\"detection\":[{}],\
         \"clean_scenarios\":{},\"false_positives\":{},\
         \"sentinel_ns_per_event\":{:.1},\"throughput_events\":{},\
         \"telemetry_max_deploy_overhead_pct\":{:.3},\"gate\":{}}}\n",
        quick,
        detections,
        report.clean.len(),
        d1::false_positives(&report),
        ns_per_event,
        ev_count,
        telemetry_pct,
        json_str(if gate_failed { "FAIL" } else { "PASS" }),
    );

    std::fs::write(&out_path, &json).expect("write bench artifact");
    print!("{json}");
    eprintln!("wrote {out_path}");
    if gate_failed {
        std::process::exit(1);
    }
}
