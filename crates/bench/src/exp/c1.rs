//! R-C1: the crypto floor — wall-clock cost of the primitives everything
//! else pays, with regression gates on the optimized paths.
//!
//! Three numbers carry the story:
//!
//! * **RSA private-op speedup**: the optimized path (CRT + fixed-width
//!   CIOS Montgomery products + fixed 4-bit-window exponentiation)
//!   against the retained schoolbook reference
//!   (`raw_schoolbook`: non-CRT square-and-multiply over mul-then-divide
//!   arithmetic). The two are proven byte-identical by the differential
//!   test battery (`crates/tpm-crypto/tests/`), which is what makes
//!   gating on the fast path safe. The gate requires ≥
//!   [`MIN_RSA_SPEEDUP`]x.
//! * **AES-CTR throughput**: the selected keystream kernel (AES-NI
//!   where the CPU has it, else the 4-block-pipelined T-table) against
//!   an absolute MB/s floor ([`MIN_AES_CTR_MBPS`]), reported beside the
//!   portable T-table kernel and the single-block scalar reference
//!   rounds.
//! * **Absolute RSA floor**: the optimized private op must stay under
//!   [`MAX_RSA_PRIV_US`] µs even on a loaded CI machine.
//!
//! The hash and cipher kernels are picked at run time (SHA-NI and
//! AES-NI on x86-64 CPUs that report them), so the report names the
//! kernels it measured (`kernels`) and reports SHA-1, SHA-256 and
//! AES-CTR throughput for both the selected and the portable kernel. A
//! further gate requires 1 MiB through both kernels to hash and encrypt
//! byte-identically: a hardware kernel that drifts from its portable
//! reference fails the run, not just the test suite.
//!
//! Ungated context figures show what the request path pays: the
//! RSA-512 private op (the signing-key size `GuestSession::prepare`
//! creates, so the cost of every Quote and Sign in the e2e workloads),
//! RSA-1024 key generation (guest setup: each vTPM's EK and SRK) and
//! RSA-2048 key generation (the TPM 1.2 production size).
//!
//! Key generation is also counted, which repeats exactly where its
//! timing does not: [`RsaPrivateKey::generate_counted`] reports the
//! prime search's work, and the means over [`KEYGEN_WORK_KEYS`] fixed
//! RSA-1024 seeds are gated. Mean Miller–Rabin exponentiations per key
//! must stay at most [`MAX_KEYGEN_EXPS`] (a sieve that lets more
//! composites through, or a search that draws more candidates, raises
//! it), and mean primes searched at most [`MAX_KEYGEN_PRIMES`] (two per
//! key: a search that throws prime pairs away raises it).
//!
//! All timed sections take the **median of several passes** — the gate
//! ratios compare medians measured in the same process, which is robust
//! against the multi-tenant noise a CI box sees; the generous absolute
//! floors catch only order-of-magnitude regressions (e.g. losing CRT or
//! the key-schedule cache), not scheduler jitter.

use tpm_crypto::sha1::Sha1;
use tpm_crypto::sha256::Sha256;
use tpm_crypto::{Aes128, Aes256, AesCtr, BigUint, Digest, Drbg, KeygenWork, RsaPrivateKey};
use vtpm_harness::json::Field;

use crate::{gate, median, Outcome};

/// Required optimized-vs-schoolbook RSA private-op speedup. The
/// measured value sits far above this (CRT alone is ~4x; Montgomery +
/// window over mul-then-divide is another order of magnitude); the gate
/// fails only if an edit effectively disables one of the optimizations.
pub const MIN_RSA_SPEEDUP: f64 = 4.0;

/// Absolute ceiling on the optimized RSA-1024 private op, µs.
pub const MAX_RSA_PRIV_US: f64 = 2_000.0;

/// Absolute floor on pipelined AES-CTR keystream throughput, MB/s.
pub const MIN_AES_CTR_MBPS: f64 = 40.0;

/// Seed of the RSA-2048 key each 2048-bit keygen pass generates.
const KEYGEN_2048_SEED: &[u8] = b"r-c1 keygen 2048";

/// Fixed-seed RSA-1024 keys whose prime-search work R-C1 counts and
/// whose generation it times.
pub const KEYGEN_WORK_KEYS: u32 = 32;

/// Ceiling on mean Miller–Rabin exponentiations per RSA-1024 key over
/// the [`KEYGEN_WORK_KEYS`] seeds: ~10% above the 95.0 the top-two-bit,
/// 2^10-sieve search does on them (a search that set only the top bit
/// and trial-divided by the primes up to 113 did 211.8).
pub const MAX_KEYGEN_EXPS: f64 = 105.0;

/// Ceiling on mean prime searches per RSA-1024 key: two per key, with a
/// margin for the rare pair discarded because `e` divides `phi`.
pub const MAX_KEYGEN_PRIMES: f64 = 2.05;

/// One R-C1 measurement set (all medians over the run's passes).
#[derive(Debug, Clone)]
pub struct C1Report {
    /// Optimized RSA-1024 private op (CRT + Montgomery + window), µs.
    pub rsa_priv_us: f64,
    /// Schoolbook reference private op (non-CRT, mul-then-divide), µs.
    pub rsa_schoolbook_us: f64,
    /// `rsa_schoolbook_us / rsa_priv_us`.
    pub rsa_speedup: f64,
    /// RSA-1024 public op (e = 65537), µs.
    pub rsa_pub_us: f64,
    /// Optimized RSA-512 private op (the guest signing-key size), µs.
    pub rsa512_priv_us: f64,
    /// RSA-1024 key generation, ms per key: one timed pass over the
    /// [`KEYGEN_WORK_KEYS`] fixed seeds whose work is counted.
    pub rsa1024_keygen_ms: f64,
    /// RSA-2048 key generation, ms (one fixed seed).
    pub rsa2048_keygen_ms: f64,
    /// Mean prime searches per RSA-1024 key over the
    /// [`KEYGEN_WORK_KEYS`] fixed seeds (this and the next three).
    pub keygen_primes: f64,
    /// Mean candidates drawn per key.
    pub keygen_candidates: f64,
    /// Mean candidates the sieve removed per key.
    pub keygen_sieved: f64,
    /// Mean Miller–Rabin exponentiations per key.
    pub keygen_exps: f64,
    /// AES-128-CTR keystream through the selected kernel, MB/s.
    pub aes_ctr_mbps: f64,
    /// AES-128-CTR keystream through the portable T-table kernel, MB/s.
    pub aes_ctr_portable_mbps: f64,
    /// Single-block scalar-rounds CTR reference, MB/s.
    pub aes_ctr_scalar_mbps: f64,
    /// SHA-1 bulk throughput through the selected kernel, MB/s.
    pub sha1_mbps: f64,
    /// SHA-256 bulk throughput through the selected kernel, MB/s.
    pub sha256_mbps: f64,
    /// SHA-256 bulk throughput through the portable kernel, MB/s.
    pub sha256_portable_mbps: f64,
    /// SHA-256 of a 40-byte message (the DRBG block shape), ns.
    pub sha256_small_ns: f64,
    /// The selected hash and cipher kernels, e.g. `"sha-ni+aes-ni"`, or
    /// `"portable"` when every one is the portable kernel.
    pub kernels: String,
    /// 1 MiB hashed (SHA-1, SHA-256) and encrypted (AES-128/256-CTR)
    /// through the selected and the portable kernels gave identical bytes.
    pub kernels_identical: bool,
}

/// The selected kernels, distinct names joined by `+`: `"sha-ni+aes-ni"`
/// on a CPU with both extensions, `"portable"` on one with neither.
fn kernels() -> String {
    let mut names: Vec<&str> = Vec::new();
    for name in [Sha1::new().kernel(), Sha256::new().kernel(), tpm_crypto::aes::kernel()] {
        if !names.contains(&name) {
            names.push(name);
        }
    }
    names.join("+")
}

/// Hash and encrypt `data` through the selected and the portable
/// kernels; true when every output matches byte for byte.
fn kernels_agree(data: &[u8]) -> bool {
    fn digest<D: Digest>(mut h: D, data: &[u8]) -> Vec<u8> {
        h.update(data);
        h.finalize()
    }
    let nonce = *b"r-c1 eq!";
    let c128 = Aes128::new(&[0x3cu8; 16]);
    let c256 = Aes256::new(&[0xc3u8; 32]);
    let mut ctr = [data.to_vec(), data.to_vec(), data.to_vec(), data.to_vec()];
    c128.ctr_xor_at(&nonce, &mut ctr[0], 3);
    c128.ctr_xor_at_portable(&nonce, &mut ctr[1], 3);
    c256.ctr_xor_at(&nonce, &mut ctr[2], 3);
    c256.ctr_xor_at_portable(&nonce, &mut ctr[3], 3);
    digest(Sha1::new(), data) == digest(Sha1::portable(), data)
        && digest(Sha256::new(), data) == digest(Sha256::portable(), data)
        && ctr[0] == ctr[1]
        && ctr[2] == ctr[3]
}

/// Time `f` (which performs `ops` operations) over `passes` passes and
/// return the median µs per operation.
fn med_us_per_op(passes: usize, ops: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..passes.max(1))
        .map(|_| {
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6 / ops.max(1) as f64
        })
        .collect();
    median(&mut samples)
}

/// Run the floor measurements. `passes` controls noise robustness,
/// `rsa_reps`/`schoolbook_reps` the per-pass op counts, `aes_mib` the
/// keystream size per pass.
pub fn run(passes: usize, rsa_reps: usize, schoolbook_reps: usize, aes_mib: usize) -> C1Report {
    let mut rng = Drbg::new(b"r-c1 crypto floor");
    let key = RsaPrivateKey::generate(1024, &mut rng);
    let m = BigUint::from_bytes_be(&rng.bytes(100)).rem(&key.public.n);
    let c = key.public.raw(&m);

    let rsa_priv_us = med_us_per_op(passes, rsa_reps, || {
        for _ in 0..rsa_reps {
            std::hint::black_box(key.raw(std::hint::black_box(&c)));
        }
    });
    let rsa_schoolbook_us = med_us_per_op(passes, schoolbook_reps, || {
        for _ in 0..schoolbook_reps {
            std::hint::black_box(key.raw_schoolbook(std::hint::black_box(&c)));
        }
    });
    let rsa_pub_us = med_us_per_op(passes, rsa_reps * 8, || {
        for _ in 0..rsa_reps * 8 {
            std::hint::black_box(key.public.raw(std::hint::black_box(&m)));
        }
    });
    let key512 = RsaPrivateKey::generate(512, &mut rng);
    let c512 = key512.public.raw(&m.rem(&key512.public.n));
    let rsa512_priv_us = med_us_per_op(passes, rsa_reps * 4, || {
        for _ in 0..rsa_reps * 4 {
            std::hint::black_box(key512.raw(std::hint::black_box(&c512)));
        }
    });
    let rsa2048_keygen_ms = med_us_per_op(passes, 1, || {
        std::hint::black_box(RsaPrivateKey::generate(2048, &mut Drbg::new(KEYGEN_2048_SEED)));
    }) / 1e3;
    let mut work = KeygenWork::default();
    let keygen_start = std::time::Instant::now();
    for i in 0..KEYGEN_WORK_KEYS {
        let seed = format!("r-c1 keygen work {i}");
        let (key, w) = RsaPrivateKey::generate_counted(1024, &mut Drbg::new(seed.as_bytes()));
        std::hint::black_box(key);
        work.primes_searched += w.primes_searched;
        work.candidates += w.candidates;
        work.sieved += w.sieved;
        work.exponentiations += w.exponentiations;
    }
    let keys = f64::from(KEYGEN_WORK_KEYS);
    let rsa1024_keygen_ms = keygen_start.elapsed().as_secs_f64() * 1e3 / keys;

    let mut buf = vec![0u8; aes_mib.max(1) << 20];
    let ctr = AesCtr::new(&[7u8; 16], *b"r-c1ctr!");
    let aes_us_per_mib = med_us_per_op(passes, aes_mib.max(1), || {
        ctr.apply_keystream(std::hint::black_box(&mut buf));
    });
    let aes_ctr_mbps = 1e6 / aes_us_per_mib;
    let cipher = tpm_crypto::Aes128::new(&[7u8; 16]);
    let aes_portable_us_per_mib = med_us_per_op(passes, aes_mib.max(1), || {
        cipher.ctr_xor_at_portable(b"r-c1ctr!", std::hint::black_box(&mut buf), 0);
    });
    let aes_ctr_portable_mbps = 1e6 / aes_portable_us_per_mib;

    // Scalar reference throughput: single blocks through the byte-wise
    // reference rounds (same work the pre-optimization code did). Uses a
    // smaller buffer — it is ~5-10x slower and only context, not a gate.
    let scalar_len = (aes_mib.max(1) << 20) / 4;
    let scalar_us = med_us_per_op(passes, 1, || {
        let mut block = [0u8; 16];
        for i in 0..scalar_len / 16 {
            block[8..].copy_from_slice(&(i as u64).to_be_bytes());
            cipher.encrypt_block_scalar(std::hint::black_box(&mut block));
        }
        std::hint::black_box(&block);
    });
    let aes_ctr_scalar_mbps = scalar_len as f64 / (1 << 20) as f64 * 1e6 / scalar_us;

    let sha_us_per_mib = med_us_per_op(passes, aes_mib.max(1), || {
        std::hint::black_box(tpm_crypto::sha256(std::hint::black_box(&buf)));
    });
    let sha256_mbps = 1e6 / sha_us_per_mib;
    let sha_portable_us_per_mib = med_us_per_op(passes, aes_mib.max(1), || {
        let mut h = Sha256::portable();
        h.update(std::hint::black_box(&buf));
        std::hint::black_box(h.finalize());
    });
    let sha256_portable_mbps = 1e6 / sha_portable_us_per_mib;
    let sha1_us_per_mib = med_us_per_op(passes, aes_mib.max(1), || {
        std::hint::black_box(tpm_crypto::sha1(std::hint::black_box(&buf)));
    });
    let sha1_mbps = 1e6 / sha1_us_per_mib;

    let small = [0x5au8; 40];
    let small_reps = 200_000;
    let sha256_small_ns = med_us_per_op(passes, small_reps, || {
        for _ in 0..small_reps {
            std::hint::black_box(tpm_crypto::sha256(std::hint::black_box(&small)));
        }
    }) * 1e3;

    C1Report {
        rsa_priv_us,
        rsa_schoolbook_us,
        rsa_speedup: rsa_schoolbook_us / rsa_priv_us,
        rsa_pub_us,
        rsa512_priv_us,
        rsa1024_keygen_ms,
        rsa2048_keygen_ms,
        keygen_primes: work.primes_searched as f64 / keys,
        keygen_candidates: work.candidates as f64 / keys,
        keygen_sieved: work.sieved as f64 / keys,
        keygen_exps: work.exponentiations as f64 / keys,
        aes_ctr_mbps,
        aes_ctr_portable_mbps,
        aes_ctr_scalar_mbps,
        sha1_mbps,
        sha256_mbps,
        sha256_portable_mbps,
        sha256_small_ns,
        kernels: kernels(),
        kernels_identical: kernels_agree(&buf[..1 << 20]),
    }
}

/// True if any floor is violated.
pub fn gate_failed(r: &C1Report) -> bool {
    r.rsa_speedup < MIN_RSA_SPEEDUP
        || r.rsa_priv_us > MAX_RSA_PRIV_US
        || r.aes_ctr_mbps < MIN_AES_CTR_MBPS
        || !r.kernels_identical
        || r.keygen_primes > MAX_KEYGEN_PRIMES
        || r.keygen_exps > MAX_KEYGEN_EXPS
}

/// Render the table.
pub fn render(r: &C1Report) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "R-C1  Crypto floor (medians; RSA-1024, AES-128-CTR, SHA-1/SHA-256; kernels {})\n",
        r.kernels
    ));
    out.push_str(&format!(
        "rsa private op (CRT+Montgomery+window): {:>9.1} us   (ceiling {:.0} us)\n",
        r.rsa_priv_us, MAX_RSA_PRIV_US
    ));
    out.push_str(&format!(
        "rsa private op (schoolbook reference):  {:>9.1} us\n",
        r.rsa_schoolbook_us
    ));
    out.push_str(&format!(
        "rsa private-op speedup:                 {:>9.1} x    (floor {:.0}x)\n",
        r.rsa_speedup, MIN_RSA_SPEEDUP
    ));
    out.push_str(&format!("rsa public op:                          {:>9.1} us\n", r.rsa_pub_us));
    out.push_str(&format!(
        "rsa-512 private op (guest signing key): {:>9.1} us\n",
        r.rsa512_priv_us
    ));
    out.push_str(&format!(
        "rsa-1024 keygen ({KEYGEN_WORK_KEYS}-key mean):          {:>9.1} ms\n",
        r.rsa1024_keygen_ms
    ));
    out.push_str(&format!(
        "rsa-2048 keygen:                        {:>9.1} ms\n",
        r.rsa2048_keygen_ms
    ));
    out.push_str(&format!(
        "rsa-1024 keygen work (mean of {KEYGEN_WORK_KEYS} keys):\n  \
         primes searched                       {:>9.2}      (ceiling {MAX_KEYGEN_PRIMES})\n  \
         candidates drawn                      {:>9.1}\n  \
         removed by the sieve                  {:>9.1}\n  \
         miller-rabin exponentiations          {:>9.1}      (ceiling {MAX_KEYGEN_EXPS:.0})\n",
        r.keygen_primes, r.keygen_candidates, r.keygen_sieved, r.keygen_exps
    ));
    out.push_str(&format!(
        "aes-ctr keystream (selected kernel):    {:>9.1} MB/s (floor {:.0} MB/s)\n",
        r.aes_ctr_mbps, MIN_AES_CTR_MBPS
    ));
    out.push_str(&format!(
        "aes-ctr keystream (portable t-table):   {:>9.1} MB/s\n",
        r.aes_ctr_portable_mbps
    ));
    out.push_str(&format!(
        "aes-ctr keystream (scalar reference):   {:>9.1} MB/s\n",
        r.aes_ctr_scalar_mbps
    ));
    out.push_str(&format!("sha1 bulk (selected kernel):            {:>9.1} MB/s\n", r.sha1_mbps));
    out.push_str(&format!("sha256 bulk (selected kernel):          {:>9.1} MB/s\n", r.sha256_mbps));
    out.push_str(&format!(
        "sha256 bulk (portable kernel):          {:>9.1} MB/s\n",
        r.sha256_portable_mbps
    ));
    out.push_str(&format!(
        "sha256 40-byte message:                 {:>9.0} ns\n",
        r.sha256_small_ns
    ));
    out.push_str(&format!(
        "selected == portable kernels (1 MiB):  {:>9}\n",
        r.kernels_identical
    ));
    out.push_str(&format!(
        "gate: {}\n",
        if gate_failed(r) { "FAIL" } else { "PASS" }
    ));
    out
}

/// The `repro` entry: this experiment at CI size (`quick`) or full size.
pub fn repro(quick: bool) -> Outcome {
    // Medians over 3 passes: the gate compares in-process ratios, which
    // survive CI noise at these sizes.
    let (passes, rsa_reps, schoolbook_reps, aes_mib) =
        if quick { (3, 10, 3, 1) } else { (5, 30, 6, 4) };
    let r = run(passes, rsa_reps, schoolbook_reps, aes_mib);
    Outcome {
        text: render(&r),
        gate: gate(gate_failed(&r), || {
            format!(
                "R-C1 crypto floor: RSA speedup {:.2}x (>= {MIN_RSA_SPEEDUP}x), private op \
                 {:.0} us (<= {MAX_RSA_PRIV_US} us), AES-CTR {:.1} MB/s (>= {MIN_AES_CTR_MBPS}), \
                 {} kernels identical to portable: {}, RSA-1024 keygen {:.2} primes \
                 (<= {MAX_KEYGEN_PRIMES}) and {:.1} exponentiations (<= {MAX_KEYGEN_EXPS}) per key",
                r.rsa_speedup,
                r.rsa_priv_us,
                r.aes_ctr_mbps,
                r.kernels,
                r.kernels_identical,
                r.keygen_primes,
                r.keygen_exps
            )
        }),
        fields: vec![
            ("rsa_priv_us", Field::Float(r.rsa_priv_us, 2)),
            ("rsa_schoolbook_us", Field::Float(r.rsa_schoolbook_us, 2)),
            ("rsa_speedup", Field::Float(r.rsa_speedup, 2)),
            ("rsa_pub_us", Field::Float(r.rsa_pub_us, 2)),
            ("rsa512_priv_us", Field::Float(r.rsa512_priv_us, 2)),
            ("rsa1024_keygen_ms", Field::Float(r.rsa1024_keygen_ms, 2)),
            ("rsa2048_keygen_ms", Field::Float(r.rsa2048_keygen_ms, 2)),
            ("keygen_primes_per_key", Field::Float(r.keygen_primes, 3)),
            ("keygen_candidates_per_key", Field::Float(r.keygen_candidates, 2)),
            ("keygen_sieved_per_key", Field::Float(r.keygen_sieved, 2)),
            ("keygen_exps_per_key", Field::Float(r.keygen_exps, 2)),
            ("aes_ctr_mbps", Field::Float(r.aes_ctr_mbps, 1)),
            ("aes_ctr_portable_mbps", Field::Float(r.aes_ctr_portable_mbps, 1)),
            ("aes_ctr_scalar_mbps", Field::Float(r.aes_ctr_scalar_mbps, 1)),
            ("sha1_mbps", Field::Float(r.sha1_mbps, 1)),
            ("sha256_mbps", Field::Float(r.sha256_mbps, 1)),
            ("sha256_portable_mbps", Field::Float(r.sha256_portable_mbps, 1)),
            ("sha256_small_ns", Field::Float(r.sha256_small_ns, 0)),
            ("kernels", Field::Str(r.kernels.clone())),
            ("kernels_identical", Field::Bool(r.kernels_identical)),
            ("min_rsa_speedup", Field::Float(MIN_RSA_SPEEDUP, 1)),
            ("max_rsa_priv_us", Field::Float(MAX_RSA_PRIV_US, 0)),
            ("min_aes_ctr_mbps", Field::Float(MIN_AES_CTR_MBPS, 0)),
            ("max_keygen_primes", Field::Float(MAX_KEYGEN_PRIMES, 2)),
            ("max_keygen_exps", Field::Float(MAX_KEYGEN_EXPS, 0)),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_holds_small() {
        let r = run(2, 4, 2, 1);
        assert!(r.rsa_priv_us > 0.0);
        assert!(r.rsa_schoolbook_us > r.rsa_priv_us, "schoolbook must be slower");
        // The real gate demands 4x; even a tiny noisy sample clears 2x
        // comfortably when CRT+Montgomery are in place.
        assert!(r.rsa_speedup > 2.0, "speedup {:.1}", r.rsa_speedup);
        assert!(r.rsa512_priv_us > 0.0 && r.rsa512_priv_us < r.rsa_priv_us);
        assert!(r.rsa1024_keygen_ms > 0.0 && r.rsa2048_keygen_ms > r.rsa1024_keygen_ms);
        assert!((2.0..=MAX_KEYGEN_PRIMES).contains(&r.keygen_primes), "{}", r.keygen_primes);
        assert!(r.keygen_sieved < r.keygen_candidates);
        assert!(r.keygen_exps <= MAX_KEYGEN_EXPS, "exps {}", r.keygen_exps);
        assert!(r.aes_ctr_mbps > r.aes_ctr_scalar_mbps, "pipeline must beat scalar");
        assert!(r.kernels_identical, "kernels {} disagree with portable", r.kernels);
        let table = render(&r);
        assert!(table.contains("R-C1"));
        assert!(table.contains("speedup"));
    }
}
