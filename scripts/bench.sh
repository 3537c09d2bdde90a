#!/usr/bin/env bash
# Performance trajectory artifacts: one machine-readable JSON line per
# gated experiment, written by `repro --out` as BENCH_<exp>.json
# (`{"bench":"<exp>","quick":..,<fields>,"gate":"PASS"|"FAIL"}`):
#
#   BENCH_d1.json — sentinel: the R-D1 scripted-injection results
#     (detected / detector / virtual-time latency / events-to-detection),
#     the false-positive count over the attack-free sweep, and wall ns
#     per stream event through the full engine.
#   BENCH_p1.json — Dom0 manager scaling: read/mutate wall ns per command
#     and mirror data pages written at 100/1k/10k resident instances, and
#     the 1.5x read-path scaling ratio.
#   BENCH_f1.json — throughput against guests, every ring served by
#     Dom0's one tpmback loop: aggregate and per-guest wall cmd/s,
#     baseline and improved virtual-time throughput, failed operations.
#   BENCH_c1.json — crypto floor: optimized vs schoolbook RSA-1024 and the
#     speedup, the RSA-512 sign, RSA-1024 keygen (mean over the 32
#     fixed seeds whose prime-search work is counted), pipelined vs
#     scalar AES-128-CTR, SHA-256, and the floors.
#   BENCH_a1.json — attestation plane: per-request vs cached issuance qps,
#     farm-scale verification p50/p99, and the seeded defense counts.
#   BENCH_m2.json — fleet control plane: the churn sweep (exactly-once
#     accounting, p99 blackout, replays), wall ns per heartbeat and per
#     phi query in the failure detector, and wall ns per controller tick.
#   BENCH_o2.json — fleet observatory: clean-seed burns and replays,
#     merged-p99 fidelity against the 1/16 bound, the blackout closed
#     loop, and the scrape duty cycle against the 3% budget.
#   BENCH_o1.json — telemetry self-overhead on the request path (max
#     deployment-basis percentage against the 3% budget).
#
# Exits nonzero if any experiment's gate fails; every artifact is still
# written first.
#
# Usage:
#   scripts/bench.sh             # full sizes
#   scripts/bench.sh --quick     # CI-sized
#   BENCH_OUT=/tmp scripts/bench.sh   # artifact directory

set -euo pipefail
cd "$(dirname "$0")/.."

out_dir="${BENCH_OUT:-.}"
quick=()
if [ "${1:-}" = "--quick" ]; then
    quick=(--quick)
fi

cargo run --release -p vtpm-bench --bin repro -- \
    d1 p1 f1 c1 a1 m2 o2 o1 "${quick[@]}" --out "$out_dir"
