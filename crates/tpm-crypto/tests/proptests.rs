//! Differential property tests: the optimized paths (Montgomery +
//! fixed-window exponentiation, CRT + Garner recombination, the
//! selected AES-CTR kernel, the SHA-NI compression kernels) must be
//! **byte-identical** to the slow reference paths they replaced
//! (`mod_pow_schoolbook`, `raw_schoolbook`, single-block scalar CTR, the
//! portable T-table CTR and the portable SHA rounds) on arbitrary
//! inputs — including the boundary shapes where windowed/pipelined code
//! classically breaks: operands hugging the modulus, all-ones carry
//! chains, p≈q CRT keys, zero/one exponents, ragged lengths, odd batch
//! remainders, and counter wrap-around.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::proptest;
use tpm_crypto::aes::{Aes128, Aes256, AesCtr};
use tpm_crypto::bignum::MontgomeryCtx;
use tpm_crypto::rsa::RsaPrivateKey;
use tpm_crypto::sha1::Sha1;
use tpm_crypto::sha256::Sha256;
use tpm_crypto::{BigUint, Digest, Drbg};

// ------------------------------------------------------ helper plumbing

/// Scalar single-block CTR reference: one counter block at a time
/// through the byte-wise reference rounds, no batching, no seek logic.
fn ctr_reference_128(key: &[u8; 16], nonce: &[u8; 8], data: &mut [u8], start_block: u64) {
    let cipher = Aes128::new(key);
    for (i, chunk) in data.chunks_mut(16).enumerate() {
        let mut block = [0u8; 16];
        block[..8].copy_from_slice(nonce);
        block[8..].copy_from_slice(&start_block.wrapping_add(i as u64).to_be_bytes());
        cipher.encrypt_block_scalar(&mut block);
        for (d, k) in chunk.iter_mut().zip(block.iter()) {
            *d ^= k;
        }
    }
}

fn ctr_reference_256(key: &[u8; 32], nonce: &[u8; 8], data: &mut [u8], start_block: u64) {
    let cipher = Aes256::new(key);
    for (i, chunk) in data.chunks_mut(16).enumerate() {
        let mut block = [0u8; 16];
        block[..8].copy_from_slice(nonce);
        block[8..].copy_from_slice(&start_block.wrapping_add(i as u64).to_be_bytes());
        cipher.encrypt_block_scalar(&mut block);
        for (d, k) in chunk.iter_mut().zip(block.iter()) {
            *d ^= k;
        }
    }
}

/// `data` fed to `h` in three pieces, cut at `a` and `b` (any values;
/// reduced into range and ordered).
fn digest_split<D: Digest>(mut h: D, data: &[u8], a: usize, b: usize) -> Vec<u8> {
    let (a, b) = (a % (data.len() + 1), b % (data.len() + 1));
    let (lo, hi) = (a.min(b), a.max(b));
    h.update(&data[..lo]);
    h.update(&data[lo..hi]);
    h.update(&data[hi..]);
    h.finalize()
}

/// `data` fed to `h` in one piece.
fn digest_whole<D: Digest>(mut h: D, data: &[u8]) -> Vec<u8> {
    h.update(data);
    h.finalize()
}

/// A CTR start block: near the top of the counter space (so the 64-bit
/// counter wraps inside the message, at any position within a batch),
/// near zero, or anywhere.
fn ctr_start(kind: u8, offset: u64, anywhere: u64) -> u64 {
    match kind % 3 {
        0 => u64::MAX - offset,
        1 => offset,
        _ => anywhere,
    }
}

/// Deterministically generated RSA keys, shared across cases (keygen is
/// the expensive part; the differential property varies the message).
/// RSA-512 (4-limb CRT halves), two RSA-1024 (8 limbs) and RSA-2048
/// (16 limbs; its public op runs at 32): every kernel width an RSA key
/// of these sizes reaches.
fn test_keys() -> &'static [RsaPrivateKey] {
    use std::sync::OnceLock;
    static KEYS: OnceLock<Vec<RsaPrivateKey>> = OnceLock::new();
    KEYS.get_or_init(|| {
        [
            (b"proptest-key-512".as_slice(), 512),
            (b"proptest-key-a".as_slice(), 1024),
            (b"proptest-key-b".as_slice(), 1024),
            (b"proptest-key-2048".as_slice(), 2048),
        ]
        .iter()
        .map(|&(seed, bits)| {
            let mut rng = Drbg::new(seed);
            RsaPrivateKey::generate(bits, &mut rng)
        })
        .collect()
    })
}

/// Modulus sizes in limbs that straddle every Montgomery kernel width
/// (4, 8, 16, 32, 64 limbs), from 1 limb up to 65 — above 4096 bits,
/// where `mod_pow` falls back to square-and-multiply.
const WIDTH_LIMBS: [usize; 12] = [1, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65];

/// An odd `k`-limb modulus with every limb all ones.
fn all_ones(k: usize) -> BigUint {
    BigUint::from_hex(&"f".repeat(16 * k))
}

/// Big-endian bytes of the little-endian limbs `limbs`.
fn limbs_be(limbs: &[u64]) -> Vec<u8> {
    limbs.iter().rev().flat_map(|l| l.to_be_bytes()).collect()
}

// --------------------------------------------- RSA / bignum differential

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// CRT + Montgomery + window private op == plain schoolbook c^d mod n.
    #[test]
    fn rsa_crt_matches_schoolbook(msg in vec(any::<u8>(), 1..100), key_idx in 0usize..4) {
        let key = &test_keys()[key_idx];
        let m = BigUint::from_bytes_be(&msg).rem(&key.public.n);
        let c = key.public.raw(&m);
        prop_assert_eq!(key.raw(&c).to_bytes_be(), key.raw_schoolbook(&c).to_bytes_be());
        // And the roundtrip actually decrypts.
        prop_assert_eq!(key.raw(&c).to_bytes_be(), m.to_bytes_be());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Keygen from any seed, at 512 and 1024 bits: both primes have their
    /// top two bits set, so the modulus has exactly the asked size with
    /// no retry; the primes differ; and the CRT private op matches
    /// schoolbook `c^d mod n`.
    #[test]
    fn keygen_primes_have_top_two_bits_and_exact_modulus(
        seed in vec(any::<u8>(), 1..32),
        msg in vec(any::<u8>(), 1..64),
    ) {
        for bits in [512, 1024] {
            let (key, work) = RsaPrivateKey::generate_counted(bits, &mut Drbg::new(&seed));
            for prime in [&key.p, &key.q] {
                prop_assert_eq!(prime.bits(), bits / 2);
                prop_assert!(prime.bit(bits / 2 - 2), "second-highest bit clear");
            }
            prop_assert!(key.p != key.q);
            prop_assert_eq!(key.public.n.bits(), bits);
            prop_assert_eq!(key.p.mul(&key.q), key.public.n.clone());
            prop_assert!(work.primes_searched >= 2 && work.primes_searched % 2 == 0);
            prop_assert!(work.sieved < work.candidates);
            // Every prime found costs its 20 witnesses.
            prop_assert!(work.exponentiations >= 20 * work.primes_searched);
            let m = BigUint::from_bytes_be(&msg).rem(&key.public.n);
            let c = key.public.raw(&m);
            prop_assert_eq!(key.raw(&c).to_bytes_be(), key.raw_schoolbook(&c).to_bytes_be());
            prop_assert_eq!(key.raw(&c), m);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Montgomery fixed-window mod_pow == schoolbook on random odd moduli
    /// of 1..5 limbs (the even-modulus fallback shares the schoolbook
    /// structure already).
    #[test]
    fn mod_pow_matches_schoolbook(
        base in vec(any::<u8>(), 0..40),
        exp in vec(any::<u8>(), 0..24),
        modulus in vec(any::<u8>(), 1..40),
    ) {
        // Force the modulus odd and nonzero.
        let mut modulus = modulus;
        *modulus.last_mut().unwrap() |= 1;
        let m = BigUint::from_bytes_be(&modulus);
        let b = BigUint::from_bytes_be(&base);
        let e = BigUint::from_bytes_be(&exp);
        prop_assert_eq!(
            b.mod_pow(&e, &m).to_bytes_be(),
            b.mod_pow_schoolbook(&e, &m).to_bytes_be()
        );
    }

    /// The same differential at exact limb counts on each side of every
    /// kernel width, so the 8- to 64-limb kernels and the >4096-bit
    /// fallback are reached without an RSA key. `top` sets the modulus'
    /// most significant bit: at a full width that puts n above R/2, the
    /// only shape where the kernel's pre-subtraction value overflows
    /// into the extra limb.
    #[test]
    fn mod_pow_matches_schoolbook_at_each_width(
        width in 0usize..WIDTH_LIMBS.len(),
        limbs in vec(any::<u64>(), 65..66),
        base in vec(any::<u64>(), 66..67),
        exp in vec(any::<u8>(), 0..24),
        top in any::<bool>(),
    ) {
        let k = WIDTH_LIMBS[width];
        let mut m_limbs = limbs[..k].to_vec();
        m_limbs[0] |= 1;
        m_limbs[k - 1] |= if top { 1 << 63 } else { 1 };
        let m = BigUint::from_bytes_be(&limbs_be(&m_limbs));
        // One limb wider than the modulus: mod_pow must reduce it first.
        let b = BigUint::from_bytes_be(&limbs_be(&base[..k + 1]));
        let e = BigUint::from_bytes_be(&exp);
        prop_assert_eq!(
            b.mod_pow(&e, &m).to_bytes_be(),
            b.mod_pow_schoolbook(&e, &m).to_bytes_be()
        );
    }

    /// Selected CTR kernel == scalar single-block CTR for arbitrary
    /// lengths, offsets into the stream, and keys.
    #[test]
    fn ctr_pipelined_matches_scalar(
        key in proptest::array::uniform16(any::<u8>()),
        nonce in proptest::array::uniform8(any::<u8>()),
        data in vec(any::<u8>(), 0..300),
        start in any::<u64>(),
    ) {
        let mut fast = data.clone();
        AesCtr::new(&key, nonce).apply_keystream_at(&mut fast, start);
        let mut slow = data.clone();
        ctr_reference_128(&key, &nonce, &mut slow, start);
        prop_assert_eq!(fast, slow);
    }

    /// Same for AES-256, plus the cached-schedule entry point.
    #[test]
    fn ctr256_pipelined_matches_scalar(
        key in proptest::array::uniform32(any::<u8>()),
        nonce in proptest::array::uniform8(any::<u8>()),
        data in vec(any::<u8>(), 0..200),
        start in any::<u64>(),
    ) {
        let mut fast = data.clone();
        Aes256::new(&key).ctr_xor_at(&nonce, &mut fast, start);
        let mut slow = data.clone();
        ctr_reference_256(&key, &nonce, &mut slow, start);
        prop_assert_eq!(fast, slow);
    }

    /// Splitting a stream at any point must not change the bytes: the
    /// pipelined path's 4-block batching may never leak into output
    /// position. Also covers ragged (non-multiple-of-16) splits.
    #[test]
    fn ctr_split_invariance(
        key in proptest::array::uniform16(any::<u8>()),
        nonce in proptest::array::uniform8(any::<u8>()),
        blocks in 0usize..12,
        extra in 0usize..16,
        split_block in 0usize..12,
    ) {
        let len = blocks * 16 + extra;
        let data: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
        let ctr = AesCtr::new(&key, nonce);
        let mut whole = data.clone();
        ctr.apply_keystream(&mut whole);
        let cut = (split_block * 16).min(len);
        let mut parts = data.clone();
        ctr.apply_keystream_at(&mut parts[..cut], 0);
        ctr.apply_keystream_at(&mut parts[cut..], (cut / 16) as u64);
        prop_assert_eq!(whole, parts);
    }
}

// ------------------------------- hardware kernels vs portable kernels

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Selected SHA-1 kernel (SHA-NI where the CPU reports it) == the
    /// portable kernel, for 0–300 byte messages streamed in three pieces
    /// cut anywhere (the reference gets the message whole).
    #[test]
    fn sha1_selected_matches_portable(
        data in vec(any::<u8>(), 0..301),
        a in any::<usize>(),
        b in any::<usize>(),
    ) {
        prop_assert_eq!(
            digest_split(Sha1::new(), &data, a, b),
            digest_whole(Sha1::portable(), &data)
        );
    }

    /// Same for SHA-256.
    #[test]
    fn sha256_selected_matches_portable(
        data in vec(any::<u8>(), 0..301),
        a in any::<usize>(),
        b in any::<usize>(),
    ) {
        prop_assert_eq!(
            digest_split(Sha256::new(), &data, a, b),
            digest_whole(Sha256::portable(), &data)
        );
    }

    /// Selected AES-128-CTR kernel (AES-NI where the CPU reports it) ==
    /// the portable T-table kernel: lengths with partial tail blocks and
    /// every remainder of the hardware kernel's batch, start blocks that
    /// wrap the counter mid-message.
    #[test]
    fn ctr128_selected_matches_portable(
        key in proptest::array::uniform16(any::<u8>()),
        nonce in proptest::array::uniform8(any::<u8>()),
        data in vec(any::<u8>(), 0..301),
        start in (any::<u8>(), 0u64..24, any::<u64>()),
    ) {
        let start = ctr_start(start.0, start.1, start.2);
        let cipher = Aes128::new(&key);
        let mut fast = data.clone();
        cipher.ctr_xor_at(&nonce, &mut fast, start);
        let mut slow = data;
        cipher.ctr_xor_at_portable(&nonce, &mut slow, start);
        prop_assert_eq!(fast, slow);
    }

    /// Same for AES-256.
    #[test]
    fn ctr256_selected_matches_portable(
        key in proptest::array::uniform32(any::<u8>()),
        nonce in proptest::array::uniform8(any::<u8>()),
        data in vec(any::<u8>(), 0..301),
        start in (any::<u8>(), 0u64..24, any::<u64>()),
    ) {
        let start = ctr_start(start.0, start.1, start.2);
        let cipher = Aes256::new(&key);
        let mut fast = data.clone();
        cipher.ctr_xor_at(&nonce, &mut fast, start);
        let mut slow = data;
        cipher.ctr_xor_at_portable(&nonce, &mut slow, start);
        prop_assert_eq!(fast, slow);
    }
}

/// A dispatch that silently fell back to the portable kernels would pass
/// every differential test above, only slower: on a CPU that reports the
/// extension, the hardware kernel must be the one selected.
#[test]
fn hardware_kernels_selected_when_the_cpu_reports_them() {
    #[cfg(target_arch = "x86_64")]
    let (sha, aes) = (is_x86_feature_detected!("sha"), is_x86_feature_detected!("aes"));
    #[cfg(not(target_arch = "x86_64"))]
    let (sha, aes) = (false, false);
    let sha_kernel = if sha { "sha-ni" } else { "portable" };
    assert_eq!(Sha1::new().kernel(), sha_kernel);
    assert_eq!(Sha256::new().kernel(), sha_kernel);
    assert_eq!(tpm_crypto::aes::kernel(), if aes { "aes-ni" } else { "portable" });
    // The reference states stay portable whatever the CPU.
    assert_eq!(Sha1::portable().kernel(), "portable");
    assert_eq!(Sha256::portable().kernel(), "portable");
}

/// Counter wrap-around: the 64-bit block counter wraps modulo 2^64 and
/// the pipelined batcher must wrap exactly like the scalar path across
/// the boundary (including mid-batch).
#[test]
fn ctr_counter_wrap_boundary() {
    let key = [0x42u8; 16];
    let nonce = [7u8; 8];
    for offset in 0..5u64 {
        let start = u64::MAX - offset;
        let data: Vec<u8> = (0..160).map(|i| i as u8).collect();
        let mut fast = data.clone();
        AesCtr::new(&key, nonce).apply_keystream_at(&mut fast, start);
        let mut slow = data.clone();
        ctr_reference_128(&key, &nonce, &mut slow, start);
        assert_eq!(fast, slow, "wrap at MAX - {offset}");
    }
}

// ----------------------------------------------------- bignum edge cases

/// Operands hugging the modulus: base in {m-2, m-1, m, m+1} (mod_pow
/// reduces first; the Montgomery engine must agree with schoolbook on
/// every one, including the conditional-final-subtraction edge). Run at
/// every limb count of [`WIDTH_LIMBS`] with the modulus' top bit set, so
/// each kernel width sees n > R/2, and through both the short-exponent
/// and the windowed ladder.
#[test]
fn mont_base_near_modulus() {
    let mut moduli = vec![
        BigUint::from_hex("f123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"),
        BigUint::from_u64(0xffff_ffff_ffff_fff1),
        BigUint::from_u64(3),
    ];
    for &k in &WIDTH_LIMBS {
        moduli.push(all_ones(k));
        moduli.push(BigUint::from_hex(&format!("8{}", &"0123456789abcdef".repeat(k)[1..])));
    }
    let exps = [BigUint::from_hex("10001"), BigUint::from_hex("c0ffee0123456789abcdef0fedcba987")];
    for m in &moduli {
        assert!(m.is_odd());
        for exp in &exps {
            for delta in 0..4u64 {
                let base = if delta < 2 {
                    m.sub(&BigUint::from_u64(2 - delta)) // m-2, m-1
                } else {
                    m.add(&BigUint::from_u64(delta - 2)) // m, m+1
                };
                assert_eq!(
                    base.mod_pow(exp, m).to_bytes_be(),
                    base.mod_pow_schoolbook(exp, m).to_bytes_be(),
                    "modulus {} base m{:+} exp {}",
                    m.to_hex(),
                    delta as i64 - 2,
                    exp.to_hex()
                );
            }
        }
    }
}

/// All-ones limbs force the longest possible carry-propagation chains
/// through the Montgomery product, at every limb count of
/// [`WIDTH_LIMBS`]: an all-ones modulus fills its kernel width exactly
/// (n = R - 1) whenever the count is itself a width.
#[test]
fn mont_all_ones_carry_chains() {
    let exps = [
        BigUint::from_u64(2),
        BigUint::from_u64(3),
        BigUint::from_hex(&"f".repeat(32)),
        BigUint::from_hex("8000000000000001"),
    ];
    for &k in &WIDTH_LIMBS {
        // An odd value with every bit set, and 2^(64k-4) - 1 below it.
        let m = all_ones(k);
        let base = BigUint::from_hex(&"f".repeat(16 * k - 1));
        for e in &exps {
            assert_eq!(
                base.mod_pow(e, &m).to_bytes_be(),
                base.mod_pow_schoolbook(e, &m).to_bytes_be(),
                "limbs {k} exp {}",
                e.to_hex()
            );
        }
    }
}

/// Zero and one exponents, and exponents that are exact multiples of
/// the 4-bit window, on both engines.
#[test]
fn mont_trivial_and_window_aligned_exponents() {
    let m = BigUint::from_hex("c000000000000000000000000000000000000000000000000000000000000df1");
    let base = BigUint::from_u64(0xdead_beef_cafe_f00d);
    let cases = [
        BigUint::zero(),
        BigUint::one(),
        BigUint::from_u64(16),          // one full window, low bits zero
        BigUint::from_u64(0x10000),     // window-aligned power of two
        BigUint::from_u64(0xffff),      // every window all-ones
        BigUint::from_hex("100000000000000000000000000000000"), // > modulus bits
    ];
    for e in &cases {
        assert_eq!(
            base.mod_pow(e, &m).to_bytes_be(),
            base.mod_pow_schoolbook(e, &m).to_bytes_be(),
            "exp {}",
            e.to_hex()
        );
    }
    // exp = 0 must yield exactly 1 regardless of engine.
    assert!(base.mod_pow(&BigUint::zero(), &m).is_one());
    // modulus 1: everything is 0.
    assert!(base.mod_pow(&BigUint::from_u64(5), &BigUint::one()).is_zero());
}

/// Direct MontgomeryCtx::pow probes with base < n at the extremes
/// (0, 1, n-1), bypassing mod_pow's pre-reduction.
#[test]
fn mont_ctx_direct_extremes() {
    let m = BigUint::from_hex("fedcba9876543210fedcba9876543210fedcba9876543210fedcba9876543211");
    let ctx = MontgomeryCtx::new(&m);
    let e = BigUint::from_u64(65537);
    for base in [BigUint::zero(), BigUint::one(), m.sub(&BigUint::one())] {
        assert_eq!(
            ctx.pow(&base, &e).to_bytes_be(),
            base.mod_pow_schoolbook(&e, &m).to_bytes_be(),
            "base {}",
            base.to_hex()
        );
    }
    // (n-1)^2 mod n == 1: the classic conditional-subtraction probe.
    let nm1 = m.sub(&BigUint::one());
    assert!(ctx.pow(&nm1, &BigUint::from_u64(2)).is_one());
}

/// CRT with p ≈ q (twin-ish primes): m1 - m2 is tiny, h is tiny, and
/// Garner's recombination must still be exact. Built from a hand-rolled
/// key over p = 10007, q = 10009 rather than generated primes so the
/// near-equal shape is guaranteed.
#[test]
fn crt_close_primes() {
    let p = BigUint::from_u64(10007);
    let q = BigUint::from_u64(10009);
    let n = p.mul(&q);
    let e = BigUint::from_u64(65537);
    let phi = p.sub(&BigUint::one()).mul(&q.sub(&BigUint::one()));
    let d = e.mod_inverse(&phi).expect("e coprime to phi");
    let dp = d.rem(&p.sub(&BigUint::one()));
    let dq = d.rem(&q.sub(&BigUint::one()));
    let qinv = q.mod_inverse(&p).expect("q invertible mod p");
    let key = RsaPrivateKey {
        public: tpm_crypto::rsa::RsaPublicKey { n: n.clone(), e },
        d,
        p,
        q,
        dp,
        dq,
        qinv,
    };
    // Every residue class shape: 0, 1, multiples of p and q, n-1.
    let mut probes = vec![
        BigUint::zero(),
        BigUint::one(),
        BigUint::from_u64(10007), // ≡ 0 mod p
        BigUint::from_u64(10009), // ≡ 0 mod q
        n.sub(&BigUint::one()),
    ];
    for x in 2..40u64 {
        probes.push(BigUint::from_u64(x * 2_500_001 % 100_160_063));
    }
    for c in &probes {
        let c = c.rem(&key.public.n);
        assert_eq!(
            key.raw(&c).to_bytes_be(),
            key.raw_schoolbook(&c).to_bytes_be(),
            "cipher {}",
            c.to_hex()
        );
    }
}

/// The generated 1024-bit keys as well: raw == raw_schoolbook on edge
/// ciphertexts (0, 1, n-1) where CRT's m1/m2 degenerate.
#[test]
fn crt_edge_ciphertexts() {
    for key in test_keys() {
        let n = &key.public.n;
        for c in [BigUint::zero(), BigUint::one(), n.sub(&BigUint::one())] {
            assert_eq!(
                key.raw(&c).to_bytes_be(),
                key.raw_schoolbook(&c).to_bytes_be(),
                "cipher {}",
                c.to_hex()
            );
        }
    }
}
