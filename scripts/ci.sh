#!/usr/bin/env bash
# The CI gate: everything a change must survive before merging.
#
#   1. tier-1: release build + the full test suite of every workspace
#      member (the root Cargo.toml lists them all as default-members),
#      then a release build of every target (the examples use APIs
#      tier-1 does not compile), which must print no `warning:` line,
#      and the dead-code guard: `scripts/dead_pub_fns.sh` must find no
#      `pub fn`, and no `pub struct|enum|trait|type|const|static`, whose
#      name occurs only in its own definition across crates/ src/
#      tests/ examples/ e2ebench/src/ (a deletion that strands a private
#      helper trips the first check, an API or constant nothing uses the
#      second), then the end-to-end benchmark's smoke
#      tests (`e2ebench/` is its own workspace, so tier-1 cannot see an
#      API break there), then one 1 s `tenants-64` run: 64 resident
#      guests, all served by Dom0's one tpmback loop blocked on Dom0's
#      fired-port queue, so the multiplexed wake-up path runs at
#      consolidation scale (the smoke tests stop at 4 guests). The run
#      exits nonzero if an output check fails: audit chain verify,
#      resident == exported state, sent == finished == audited (~15 s, mostly
#      set-up), and the step fails if the result line's `peak_rss_mb`
#      exceeds 16 MB: machine frames commit host memory only when first
#      written (~7 MB here), so a store that commits every frame up front
#      again (~39 MB) trips it; then one 1 s `measure-1vm` run with the same output
#      checks: one guest on the Extend/Seal write path, ~0.41 encrypted
#      mirror updates per command, so the payload-sized mirror
#      encrypt/digest path runs end to end at load (~5 s), and the step
#      fails if its `peak_rss_mb` exceeds 9 MB: the AC4 audit log keeps
#      every entry but stores ~8 bytes of chain material per command
#      (~7 MB here), so a log that holds a 72-byte record per command
#      again (~12 MB) trips it; then one 1 s
#      `attest-1vm` run with the same output checks: one guest on the
#      Quote-heavy mix, so OIAP sessions and the RSA-512 CRT sign over
#      the fixed-width Montgomery kernel run end to end at load (~5 s);
#   2. chaos smoke: 8 seeded fault scenarios through the full stack,
#      each replayed twice (determinism) — parallel across cores;
#   3. migration chaos smoke: 8 seeded multi-host migration scenarios
#      plus the exhaustive crash-at-every-step matrix (both roles x
#      every protocol step) on one seed, each replayed twice;
#   4. R-O1: the telemetry self-overhead budget. `repro o1` exits
#      nonzero if the enabled-vs-disabled registry increment exceeds
#      3% of the modelled deployment command latency, failing the gate;
#   5. R-M1 + R-F3: the migration downtime budget and the sealed-wire
#      check, one `repro m1 f3 --quick`. `repro m1` exits nonzero if
#      sealed (destination-bound) transfer adds more than 7 ms of
#      guest-visible blackout over clear transfer at any state size;
#      `repro f3` exits nonzero if any sealed `Transfer` frame on the
#      fabric wiretap exposes a high-entropy fragment of the state at
#      any size, or if the clear hand-off of the same size fails to
#      expose every such probe (a probe set that matches nothing);
#   6. R-D1: the sentinel smoke. `repro d1 --quick` replays a small
#      attack-free chaos sweep with the detection plane consuming every
#      span, audit record, gauge, and dump-trail entry, then injects
#      A1/A7/replay-storm. It exits nonzero on any clean-seed critical
#      alert (a false positive) or any missed injection;
#   7. R-P1 + R-F1: the manager scaling budget and throughput against
#      guests. `repro p1 --quick` measures the routing hot path (PcrRead
#      over a fixed active set) at 100 and 10 000 resident instances and
#      exits nonzero if the per-command cost degrades by more than 1.5x
#      between the endpoints; `repro f1 --quick` runs 1, 2 and 4
#      guests, baseline and improved, each on Dom0's one tpmback loop,
#      and exits nonzero on any failed guest operation or if improved
#      virtual-time throughput falls below 0.9x the baseline at any
#      guest count;
#   8. R-C1: the crypto floor. `repro c1 --quick` measures the optimized
#      RSA-1024 private op (CRT + fixed-width Montgomery + fixed window)
#      against the retained schoolbook reference, the selected AES-CTR
#      keystream and SHA-1/SHA-256 kernels beside the portable ones (and
#      reports the RSA-512 sign and RSA-1024/RSA-2048 keygen ungated),
#      counts the prime-search work of 32 fixed-seed RSA-1024 keys, and
#      exits nonzero if the RSA speedup drops below 4x, the private op
#      exceeds 2 ms, CTR throughput falls below 40 MB/s, 1 MiB through
#      the selected and the portable kernels hashes or encrypts
#      differently, or a key takes on average more than 105 Miller–Rabin
#      exponentiations or 2.05 prime searches (the counts repeat
#      exactly: 95.0 and 2.00).
#      Then, on a CPU whose /proc/cpuinfo lists `sha_ni` and `aes`, the
#      step fails unless BENCH_c1.json reports `"kernels":"sha-ni+aes-ni"`:
#      a dispatch that silently fell back to the portable kernels passes
#      every other gate, only slower;
#   9. attest chaos smoke + R-A1: 8 seeded quote-storm/replay-injection
#      scenarios replayed twice each, then `repro a1 --quick` — exits
#      nonzero if the batched+cached issuer falls below 3x the
#      per-request qps at unchanged PCR state, an honest submission is
#      refused, any injected replay/stale quote slips through or goes
#      undetected, the storm-throttle loop fails to close, or an
#      attack-free seed raises a critical alert;
#  10. fleet chaos smoke + R-M2: 8 seeded churn-storm scenarios through
#      the fleet control plane (phi-accrual detection, concurrent
#      drivers, rebalancer) replayed twice each, then `repro m2 --quick`
#      — exits nonzero if any vTPM ends lost/duplicated/orphaned, any
#      journal stays in doubt, any injected double-drive commits two
#      winners, any seed fails byte-identical replay, the p99
#      quiesce->commit blackout blows its budget, or the failure
#      detector suspects more than 2 live hosts on any seed;
#  11. R-O2: the fleet observatory. `repro o2 --quick` runs attack-free
#      churn seeds with the observatory scraping every host and exits
#      nonzero if any SLO burns on a clean seed (zero false burns), a
#      seed fails byte-identical replay with the observatory enabled,
#      the merged cross-host p99 drifts past the histogram's 1/16
#      relative-error bound against exact per-span ground truth, an
#      injected migration-blackout regression fails to walk the full
#      burn -> sentinel alert -> rebalancer pause -> clear -> resume
#      loop, or one scrape+evaluate pass costs more than 3% of the
#      controller's heartbeat period (the R-O1 self-overhead budget,
#      lifted to the fleet plane);
#  12. chaos transcript hash: `chaos --seeds 8 --base pr14 --family all
#      --matrix --json` must hash to the pinned sha256 — every family's
#      verdicts, counters, alert lines and fleet downtimes byte for
#      byte (~50 s on 2 cores). Refactors of the harness, sentinel or
#      telemetry must leave it unchanged.
#
# Every `repro` step also writes its BENCH_<exp>.json artifact under
# target/bench.
#
# Usage:
#   scripts/ci.sh            # full gate
#   CHAOS_JOBS=4 scripts/ci.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: tests =="
cargo test -q

echo "== all targets: examples build, warning-free =="
cargo build --release --all-targets 2>&1 | tee target/all-targets-build.log
if grep -q '^warning:' target/all-targets-build.log; then
    echo "the all-targets release build printed warnings" >&2
    exit 1
fi

echo "== dead code: no pub item that nothing uses =="
if ! dead=$(scripts/dead_pub_fns.sh); then
    echo "pub items whose only occurrence is their definition:" >&2
    echo "$dead" >&2
    exit 1
fi

echo "== e2ebench: end-to-end benchmark smoke tests =="
cargo test --offline --manifest-path e2ebench/Cargo.toml

echo "== e2ebench: tenants-64, 64 concurrent backends, peak RSS <= 16 MB =="
cargo run --release --offline --manifest-path e2ebench/Cargo.toml --bin e2e -- \
    --workload tenants-64 --seed 1 --seconds 1 | tee target/e2e-tenants-64.log
rss=$(tail -n 1 target/e2e-tenants-64.log | sed -n 's/.*"peak_rss_mb": {"value": \([0-9.]*\).*/\1/p')
if [ -z "$rss" ] || awk -v rss="$rss" 'BEGIN { exit !(rss > 16) }'; then
    echo "tenants-64 peak_rss_mb ${rss:-missing} exceeds the 16 MB ceiling" >&2
    exit 1
fi

echo "== e2ebench: measure-1vm, encrypted mirror write path, peak RSS <= 9 MB =="
cargo run --release --offline --manifest-path e2ebench/Cargo.toml --bin e2e -- \
    --workload measure-1vm --seed 1 --seconds 1 | tee target/e2e-measure-1vm.log
rss=$(tail -n 1 target/e2e-measure-1vm.log | sed -n 's/.*"peak_rss_mb": {"value": \([0-9.]*\).*/\1/p')
if [ -z "$rss" ] || awk -v rss="$rss" 'BEGIN { exit !(rss > 9) }'; then
    echo "measure-1vm peak_rss_mb ${rss:-missing} exceeds the 9 MB ceiling" >&2
    exit 1
fi

echo "== e2ebench: attest-1vm, Quote/OIAP/RSA signing path =="
cargo run --release --offline --manifest-path e2ebench/Cargo.toml --bin e2e -- \
    --workload attest-1vm --seed 1 --seconds 1

echo "== chaos smoke: 8 seeds, replayed twice each =="
CHAOS_BASE=ci CHAOS_FAMILY=mirror scripts/chaos.sh 8

echo "== migration chaos smoke: 8 seeds + crash-at-every-step matrix =="
cargo run --release -p vtpm-harness --bin chaos -- \
    --seeds 8 --base ci-mig --family migration --matrix

echo "== R-O1: telemetry overhead budget (hard 3% gate) =="
cargo run --release -p vtpm-bench --bin repro -- o1 --out target/bench

echo "== R-M1 + R-F3: migration downtime budget (sealing premium <= 7ms), sealed wire hides state =="
cargo run --release -p vtpm-bench --bin repro -- m1 f3 --quick --out target/bench

echo "== R-D1: sentinel smoke (zero clean-seed FPs, all injections detected) =="
cargo run --release -p vtpm-bench --bin repro -- d1 --quick --out target/bench

echo "== R-P1: manager scaling budget (10k/100-instance read path <= 1.5x) =="
cargo run --release -p vtpm-bench --bin repro -- p1 --quick --out target/bench

echo "== R-F1: throughput vs guests on one tpmback loop (no failed op, virtual >= 0.9x baseline) =="
cargo run --release -p vtpm-bench --bin repro -- f1 --quick --out target/bench

echo "== R-C1: crypto floor (RSA speedup >= 4x, CTR >= 40 MB/s, kernels agree, keygen work) =="
cargo run --release -p vtpm-bench --bin repro -- c1 --quick --out target/bench
if grep -qw sha_ni /proc/cpuinfo 2>/dev/null && grep -qw aes /proc/cpuinfo 2>/dev/null \
    && ! grep -q '"kernels":"sha-ni+aes-ni"' target/bench/BENCH_c1.json; then
    echo "R-C1 did not select SHA-NI and AES-NI on a CPU that lists sha_ni and aes:" >&2
    grep -o '"kernels":"[^"]*"' target/bench/BENCH_c1.json >&2
    exit 1
fi

echo "== attest chaos smoke: 8 seeds, replayed twice each =="
cargo run --release -p vtpm-harness --bin chaos -- \
    --seeds 8 --base ci-att --family attest

echo "== R-A1: attestation plane (cached qps >= 3x, clean defense sweep) =="
cargo run --release -p vtpm-bench --bin repro -- a1 --quick --out target/bench

echo "== fleet chaos smoke: 8 seeds, replayed twice each =="
cargo run --release -p vtpm-harness --bin chaos -- \
    --seeds 8 --base ci-fleet --family fleet

echo "== R-M2: fleet churn sweep (exactly-once accounting, single-winner conflicts) =="
cargo run --release -p vtpm-bench --bin repro -- m2 --quick --out target/bench

echo "== R-O2: fleet observatory (zero false burns, SLO closed loop, <= 3% overhead) =="
cargo run --release -p vtpm-bench --bin repro -- o2 --quick --out target/bench

echo "== chaos transcript hash: all families + matrix, byte-identical =="
# Re-pin this value only when a change is meant to alter what a seed
# does or reports, and say why in that change. Example: a newly scraped
# counter lengthens every host's scrape frame, the fabric charges frames
# to virtual time by size, and so the fleet downtimes move.
CHAOS_SHA256=a527a87395132c48035db57f07065ec4e9a512bb3f7eb5be154acf6b8bb54463
got=$(cargo run --release -q -p vtpm-harness --bin chaos -- \
    --seeds 8 --base pr14 --family all --matrix --json | sha256sum | cut -d' ' -f1)
if [ "$got" != "$CHAOS_SHA256" ]; then
    echo "chaos transcript hash changed: $got, pinned $CHAOS_SHA256" >&2
    exit 1
fi

echo "CI gate passed."
