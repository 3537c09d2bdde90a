//! `attest_bench` — the attestation plane's perf numbers, as machine-
//! readable JSON (`BENCH_attest.json`, one object, stable field
//! order). Three measurements, all from the R-A1 harness:
//!
//! * **Issuance** — qps of the per-request issuer (every quote pays
//!   two RSA private ops) vs the batched+cached plane at unchanged PCR
//!   state, and the resulting speedup (gated at
//!   [`a1::MIN_CACHE_SPEEDUP`]x).
//! * **Verification** — farm-scale submission throughput plus the
//!   p50/p99 per-submission latency from the shared attestation
//!   telemetry histogram.
//! * **Defense** — the seeded attest-chaos scenarios: replay/stale
//!   refusal counts, the storm-throttle closed loop, critical-alert
//!   counts, and any divergence the family recorded.
//!
//! ```text
//! attest_bench [--quick] [--out PATH]
//! ```
//!
//! Exits nonzero if the R-A1 gate fails (speedup floor missed, honest
//! submission refused, or any defense divergence) — `scripts/bench.sh`
//! relies on that.

use vtpm_bench::exp::a1;
use vtpm_harness::json_str;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_attest.json")
        .to_string();

    let (instances, verifiers, quotes, uncached, attacks, cleans) =
        if quick { (4, 64, 512, 64, 1, 1) } else { (16, 1_024, 10_000, 512, 3, 3) };
    let report = a1::run(instances, verifiers, quotes, uncached, attacks, cleans);
    let gate_failed = a1::gate_failed(&report);

    let issue = report
        .issue
        .iter()
        .map(|r| {
            format!(
                "{{\"mode\":{},\"quotes\":{},\"signing_passes\":{},\"absorbed\":{},\
                 \"wall_ns\":{},\"qps\":{:.1}}}",
                json_str(r.mode),
                r.quotes,
                r.signing_passes,
                r.absorbed,
                r.wall_ns,
                r.qps
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let defense = report
        .defense
        .iter()
        .map(|d| {
            format!(
                "{{\"seed\":{},\"attack\":{},\"replays_refused\":{},\"injected_replays\":{},\
                 \"stale_refused\":{},\"injected_stale\":{},\"storm_throttled\":{},\
                 \"critical\":{},\"divergences\":{}}}",
                json_str(&d.seed),
                d.attack,
                d.replays_refused,
                d.injected_replays,
                d.stale_refused,
                d.injected_stale,
                d.storm_throttled,
                d.critical,
                d.divergences.len()
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let v = &report.verify;
    let json = format!(
        "{{\"bench\":\"attest\",\"quick\":{},\"issue\":[{}],\"cache_speedup\":{:.2},\
         \"verify\":{{\"verifiers\":{},\"submissions\":{},\"accepted\":{},\
         \"p50_ns\":{},\"p99_ns\":{},\"vps\":{:.1}}},\"defense\":[{}],\"gate\":{}}}\n",
        quick,
        issue,
        report.speedup,
        v.verifiers,
        v.submissions,
        v.accepted,
        v.p50_ns,
        v.p99_ns,
        v.vps,
        defense,
        json_str(if gate_failed { "FAIL" } else { "PASS" }),
    );

    std::fs::write(&out_path, &json).expect("write bench artifact");
    print!("{json}");
    eprintln!("wrote {out_path}");
    if gate_failed {
        std::process::exit(1);
    }
}
