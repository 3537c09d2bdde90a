//! `crypto_bench` — the crypto floor's numbers, as machine-readable
//! JSON (`BENCH_crypto.json`, one object, stable field order). Runs the
//! R-C1 measurement set: optimized RSA-1024 private op (CRT +
//! Montgomery + fixed-window) vs the retained schoolbook reference,
//! pipelined AES-128-CTR keystream vs scalar rounds, and SHA-256 bulk
//! and small-message costs.
//!
//! The gates are the ones `repro c1` enforces: optimized-vs-schoolbook
//! RSA speedup ≥ [`c1::MIN_RSA_SPEEDUP`]x, the optimized private op
//! under [`c1::MAX_RSA_PRIV_US`] µs, and pipelined CTR at or above
//! [`c1::MIN_AES_CTR_MBPS`] MB/s.
//!
//! ```text
//! crypto_bench [--quick] [--out PATH]
//! ```
//!
//! Exits nonzero if a gate fails — `scripts/bench.sh` relies on that.

use vtpm_bench::exp::c1;
use vtpm_harness::json_str;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_crypto.json")
        .to_string();

    // Same sizes as `repro c1` full/--quick: the gate compares medians
    // measured in one process, so the quick run stays trustworthy.
    let (passes, rsa_reps, schoolbook_reps, aes_mib) =
        if quick { (3, 10, 3, 1) } else { (5, 30, 6, 4) };

    let report = c1::run(passes, rsa_reps, schoolbook_reps, aes_mib);
    let gate_failed = c1::gate_failed(&report);

    eprint!("{}", c1::render(&report));

    let json = format!(
        "{{\"bench\":\"crypto\",\"quick\":{},\"rsa_priv_us\":{:.2},\
         \"rsa_schoolbook_us\":{:.2},\"rsa_speedup\":{:.2},\"rsa_pub_us\":{:.2},\
         \"aes_ctr_mbps\":{:.1},\"aes_ctr_scalar_mbps\":{:.1},\
         \"sha256_mbps\":{:.1},\"sha256_small_ns\":{:.0},\
         \"min_rsa_speedup\":{:.1},\"max_rsa_priv_us\":{:.0},\
         \"min_aes_ctr_mbps\":{:.0},\"gate\":{}}}\n",
        quick,
        report.rsa_priv_us,
        report.rsa_schoolbook_us,
        report.rsa_speedup,
        report.rsa_pub_us,
        report.aes_ctr_mbps,
        report.aes_ctr_scalar_mbps,
        report.sha256_mbps,
        report.sha256_small_ns,
        c1::MIN_RSA_SPEEDUP,
        c1::MAX_RSA_PRIV_US,
        c1::MIN_AES_CTR_MBPS,
        json_str(if gate_failed { "FAIL" } else { "PASS" }),
    );

    std::fs::write(&out_path, &json).expect("write bench artifact");
    print!("{json}");
    eprintln!("wrote {out_path}");
    if gate_failed {
        std::process::exit(1);
    }
}
