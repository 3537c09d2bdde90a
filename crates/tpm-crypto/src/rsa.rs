//! RSA for the TPM 1.2 emulator: key generation (sieved Miller–Rabin), CRT
//! private operations, OAEP encryption padding (the TPM_ES_RSAESOAEP_SHA1_MGF1
//! scheme) and PKCS#1 v1.5 signature padding (TPM_SS_RSASSAPKCS1v15_SHA1).
//!
//! This is a reproduction-grade implementation: correct and test-vectored,
//! but not hardened against local side channels beyond constant-time MAC
//! comparison (the simulated attacker model here is memory disclosure, not
//! power analysis).

use crate::bignum::{BigUint, MontgomeryCtx};
use crate::drbg::Drbg;
use crate::hash::sha1;

/// Public exponent used throughout (F4).
pub const E: u64 = 65537;

/// An RSA public key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RsaPublicKey {
    /// Modulus n = p*q.
    pub n: BigUint,
    /// Public exponent.
    pub e: BigUint,
}

/// An RSA private key with CRT components.
#[derive(Clone, Debug)]
pub struct RsaPrivateKey {
    /// The matching public key.
    pub public: RsaPublicKey,
    /// Private exponent d = e^{-1} mod lcm(p-1, q-1).
    pub d: BigUint,
    /// First prime.
    pub p: BigUint,
    /// Second prime.
    pub q: BigUint,
    /// d mod (p-1).
    pub dp: BigUint,
    /// d mod (q-1).
    pub dq: BigUint,
    /// q^{-1} mod p.
    pub qinv: BigUint,
}

/// Errors from RSA padding/size validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsaError {
    /// Message too long for the key/padding combination.
    MessageTooLong,
    /// Ciphertext or signature length does not match the modulus.
    BadLength,
    /// Padding check failed on decryption or verification.
    BadPadding,
}

impl std::fmt::Display for RsaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsaError::MessageTooLong => write!(f, "message too long for RSA key"),
            RsaError::BadLength => write!(f, "input length does not match modulus"),
            RsaError::BadPadding => write!(f, "RSA padding check failed"),
        }
    }
}

impl std::error::Error for RsaError {}

impl RsaPublicKey {
    /// Modulus size in bytes.
    pub fn size(&self) -> usize {
        self.n.to_bytes_be().len()
    }

    /// Raw public operation m^e mod n.
    pub fn raw(&self, m: &BigUint) -> BigUint {
        m.mod_pow(&self.e, &self.n)
    }

    /// OAEP-SHA1 encrypt (TPM_ES_RSAESOAEP_SHA1_MGF1). `label` is the OAEP
    /// encoding parameter — the TPM uses the ASCII bytes "TCPA".
    pub fn encrypt_oaep(
        &self,
        msg: &[u8],
        label: &[u8],
        rng: &mut Drbg,
    ) -> Result<Vec<u8>, RsaError> {
        let k = self.size();
        let h_len = 20;
        if msg.len() + 2 * h_len + 2 > k {
            return Err(RsaError::MessageTooLong);
        }
        // EM = 0x00 || maskedSeed || maskedDB
        let l_hash = sha1(label);
        let mut db = vec![0u8; k - h_len - 1];
        db[..h_len].copy_from_slice(&l_hash);
        let msg_start = db.len() - msg.len();
        db[msg_start - 1] = 0x01;
        db[msg_start..].copy_from_slice(msg);

        let seed = rng.bytes(h_len);
        let db_mask = mgf1(&seed, db.len());
        for (b, m) in db.iter_mut().zip(&db_mask) {
            *b ^= m;
        }
        let seed_mask = mgf1(&db, h_len);
        let masked_seed: Vec<u8> = seed.iter().zip(&seed_mask).map(|(s, m)| s ^ m).collect();

        let mut em = Vec::with_capacity(k);
        em.push(0);
        em.extend_from_slice(&masked_seed);
        em.extend_from_slice(&db);
        let c = self.raw(&BigUint::from_bytes_be(&em));
        Ok(c.to_bytes_be_padded(k).expect("ciphertext fits modulus"))
    }

    /// Verify a PKCS#1 v1.5 SHA-1 signature over `msg`.
    pub fn verify_pkcs1_sha1(&self, msg: &[u8], sig: &[u8]) -> Result<(), RsaError> {
        let k = self.size();
        if sig.len() != k {
            return Err(RsaError::BadLength);
        }
        let em = self
            .raw(&BigUint::from_bytes_be(sig))
            .to_bytes_be_padded(k)
            .ok_or(RsaError::BadPadding)?;
        let expected = pkcs1_sha1_encode(msg, k)?;
        if crate::hmac::ct_eq(&em, &expected) {
            Ok(())
        } else {
            Err(RsaError::BadPadding)
        }
    }
}

impl RsaPrivateKey {
    /// Generate a key with a modulus of `bits` bits (must be even, >= 512).
    pub fn generate(bits: usize, rng: &mut Drbg) -> Self {
        Self::generate_counted(bits, rng).0
    }

    /// [`generate`](Self::generate), also returning the work the prime
    /// search did. The count is a by-product of the one key-generation
    /// path, so it is exact and repeats for a given seed.
    pub fn generate_counted(bits: usize, rng: &mut Drbg) -> (Self, KeygenWork) {
        assert!(bits >= 512 && bits.is_multiple_of(2), "unsupported RSA size {bits}");
        let e = BigUint::from_u64(E);
        let mut work = KeygenWork::default();
        loop {
            let p = gen_prime(bits / 2, rng, &mut work);
            let q = gen_prime(bits / 2, rng, &mut work);
            if p == q {
                continue;
            }
            let one = BigUint::one();
            let p1 = p.sub(&one);
            let q1 = q.sub(&one);
            let phi = p1.mul(&q1);
            if !phi.gcd(&e).is_one() {
                continue;
            }
            let n = p.mul(&q);
            // p, q >= 1.5 * 2^(bits/2 - 1), so n >= 2.25 * 2^(bits - 2).
            assert_eq!(n.bits(), bits, "top-two-bit primes give an exact-size modulus");
            let d = e.mod_inverse(&phi).expect("e invertible mod phi");
            let dp = d.rem(&p1);
            let dq = d.rem(&q1);
            let qinv = q.mod_inverse(&p).expect("q invertible mod p");
            let key = RsaPrivateKey {
                public: RsaPublicKey { n, e },
                d,
                p,
                q,
                dp,
                dq,
                qinv,
            };
            return (key, work);
        }
    }

    /// Raw private operation c^d mod n via CRT.
    ///
    /// Computes the two half-size exponentiations `m1 = c^dp mod p` and
    /// `m2 = c^dq mod q`, then recombines with Garner's formula
    /// `m = m2 + q * (qinv * (m1 - m2) mod p)`, which is exact (no final
    /// reduction mod n needed) because `m < q*p = n`. Each half-size
    /// exponentiation costs ~1/4 of a full one, so CRT is ~4x faster
    /// than [`raw_schoolbook`](Self::raw_schoolbook) before the
    /// Montgomery/window wins even start. Both halves run through
    /// [`BigUint::mod_pow`]'s fixed-width CIOS Montgomery kernel: the
    /// 256-bit primes of an RSA-512 key at 4 limbs, RSA-1024 at 8, up to
    /// RSA-4096 at 32 (a 4096-bit public op runs at 64).
    pub fn raw(&self, c: &BigUint) -> BigUint {
        let m1 = c.rem(&self.p).mod_pow(&self.dp, &self.p);
        let m2 = c.rem(&self.q).mod_pow(&self.dq, &self.q);
        // h = qinv * (m1 - m2) mod p
        let h = self.qinv.mul_mod(&m1.sub_mod(&m2.rem(&self.p), &self.p), &self.p);
        m2.add(&self.q.mul(&h))
    }

    /// Raw private operation `c^d mod n` without CRT or Montgomery —
    /// plain square-and-multiply over mul-then-divide arithmetic.
    ///
    /// This is the differential reference for the fast path: slow but
    /// obviously correct, sharing no code with the Montgomery engine or
    /// the CRT recombination. Tests assert [`raw`](Self::raw) matches it
    /// byte for byte; `repro c1` uses it as the speedup baseline.
    pub fn raw_schoolbook(&self, c: &BigUint) -> BigUint {
        c.mod_pow_schoolbook(&self.d, &self.public.n)
    }

    /// OAEP-SHA1 decrypt.
    pub fn decrypt_oaep(&self, cipher: &[u8], label: &[u8]) -> Result<Vec<u8>, RsaError> {
        let k = self.public.size();
        if cipher.len() != k {
            return Err(RsaError::BadLength);
        }
        let h_len = 20;
        if k < 2 * h_len + 2 {
            return Err(RsaError::BadLength);
        }
        let em = self
            .raw(&BigUint::from_bytes_be(cipher))
            .to_bytes_be_padded(k)
            .ok_or(RsaError::BadPadding)?;
        if em[0] != 0 {
            return Err(RsaError::BadPadding);
        }
        let masked_seed = &em[1..1 + h_len];
        let masked_db = &em[1 + h_len..];
        let seed_mask = mgf1(masked_db, h_len);
        let seed: Vec<u8> = masked_seed.iter().zip(&seed_mask).map(|(s, m)| s ^ m).collect();
        let db_mask = mgf1(&seed, masked_db.len());
        let db: Vec<u8> = masked_db.iter().zip(&db_mask).map(|(b, m)| b ^ m).collect();

        let l_hash = sha1(label);
        if !crate::hmac::ct_eq(&db[..h_len], &l_hash) {
            return Err(RsaError::BadPadding);
        }
        // Find the 0x01 separator after the zero run.
        let mut idx = h_len;
        while idx < db.len() && db[idx] == 0 {
            idx += 1;
        }
        if idx >= db.len() || db[idx] != 0x01 {
            return Err(RsaError::BadPadding);
        }
        Ok(db[idx + 1..].to_vec())
    }

    /// PKCS#1 v1.5 SHA-1 signature over `msg`.
    pub fn sign_pkcs1_sha1(&self, msg: &[u8]) -> Result<Vec<u8>, RsaError> {
        let k = self.public.size();
        let em = pkcs1_sha1_encode(msg, k)?;
        let s = self.raw(&BigUint::from_bytes_be(&em));
        Ok(s.to_bytes_be_padded(k).expect("signature fits modulus"))
    }
}

/// PKCS#1 v1.5 EMSA encoding with the SHA-1 DigestInfo prefix.
fn pkcs1_sha1_encode(msg: &[u8], k: usize) -> Result<Vec<u8>, RsaError> {
    // DigestInfo ::= SEQUENCE { AlgorithmIdentifier sha1, OCTET STRING hash }
    const PREFIX: [u8; 15] = [
        0x30, 0x21, 0x30, 0x09, 0x06, 0x05, 0x2b, 0x0e, 0x03, 0x02, 0x1a, 0x05, 0x00, 0x04,
        0x14,
    ];
    let t_len = PREFIX.len() + 20;
    if k < t_len + 11 {
        return Err(RsaError::MessageTooLong);
    }
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.resize(k - t_len - 1, 0xff);
    em.push(0x00);
    em.extend_from_slice(&PREFIX);
    em.extend_from_slice(&sha1(msg));
    Ok(em)
}

/// MGF1 with SHA-1 (PKCS#1 §B.2.1).
fn mgf1(seed: &[u8], len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 20);
    let mut counter = 0u32;
    while out.len() < len {
        let mut input = Vec::with_capacity(seed.len() + 4);
        input.extend_from_slice(seed);
        input.extend_from_slice(&counter.to_be_bytes());
        out.extend_from_slice(&sha1(&input));
        counter += 1;
    }
    out.truncate(len);
    out
}

/// Work one key generation did, counted as the prime search runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KeygenWork {
    /// Prime searches run: two per key, plus two per discarded pair
    /// (`p == q`, or `e` not coprime to `phi`).
    pub primes_searched: u64,
    /// Random candidates drawn.
    pub candidates: u64,
    /// Candidates the small-prime sieve removed before Miller–Rabin.
    pub sieved: u64,
    /// Miller–Rabin modular exponentiations `a^d mod n`, one per witness
    /// tried.
    pub exponentiations: u64,
}

/// Miller–Rabin rounds: random witnesses a candidate must pass to be
/// taken as prime.
const MR_ROUNDS: usize = 20;

/// Generate a probable prime of exactly `bits` bits whose top two bits
/// are set.
fn gen_prime(bits: usize, rng: &mut Drbg, work: &mut KeygenWork) -> BigUint {
    search_prime(bits, rng, work, |candidate, rng, work| {
        miller_rabin(candidate, MR_ROUNDS, rng, work)
    })
}

/// Random odd `bits`-bit candidates [`search_prime`] may draw per bit of
/// size before it gives up. About one odd `k`-bit number in `0.35 k` is
/// prime, so the cap is ~290 times the expected count and a correct
/// primality test misses it with probability about `e^-288`.
const PRIME_CANDIDATES_PER_BIT: usize = 100;

/// Draw random odd `bits`-bit candidates until `is_prime` accepts one.
///
/// Each candidate has its top two bits set, so the product of two
/// `k`-bit primes always has exactly `2k` bits (FIPS 186-4 B.3.3 asks
/// for primes of at least `sqrt(2) * 2^(k-1)`; these are at least
/// `1.5 * 2^(k-1)`). The sieve removes every candidate with an odd prime
/// factor below [`SIEVE_BOUND`] before `is_prime` draws a witness, and
/// since `bits >= 12` no candidate is itself a table prime.
///
/// Panics after `PRIME_CANDIDATES_PER_BIT * max(bits, 16)` draws: only a
/// broken primality test (in practice, wrong modular exponentiation)
/// gets there, and it should fail loudly rather than spin forever.
fn search_prime(
    bits: usize,
    rng: &mut Drbg,
    work: &mut KeygenWork,
    mut is_prime: impl FnMut(&BigUint, &mut Drbg, &mut KeygenWork) -> bool,
) -> BigUint {
    assert!(bits >= 12, "prime search below 12 bits");
    work.primes_searched += 1;
    let limit = PRIME_CANDIDATES_PER_BIT * bits.max(16);
    for _ in 0..limit {
        let mut candidate = random_bits(bits, rng);
        candidate.set_bit(bits - 1);
        candidate.set_bit(bits - 2);
        candidate.set_bit(0);
        work.candidates += 1;
        if has_small_factor(&candidate) {
            work.sieved += 1;
            continue;
        }
        if is_prime(&candidate, rng, work) {
            return candidate;
        }
    }
    panic!(
        "no prime among {limit} random {bits}-bit candidates (about {} expected): \
         the primality test, or the modular exponentiation under it, is broken",
        bits * 7 / 20
    );
}

/// The sieve tests candidates against every odd prime below this bound.
const SIEVE_BOUND: u32 = 1 << 10;

/// The 171 odd primes below [`SIEVE_BOUND`], ascending.
const SIEVE_PRIMES: [u32; 171] = {
    let mut primes = [0u32; 171];
    let (mut n, mut found) = (3u32, 0usize);
    while n < SIEVE_BOUND {
        let mut d = 3;
        while d * d <= n && n % d != 0 {
            d += 2;
        }
        if d * d > n {
            primes[found] = n;
            found += 1;
        }
        n += 2;
    }
    assert!(found == primes.len());
    primes
};

/// [`SIEVE_PRIMES`] packed, in order, into the 51 runs whose product fits
/// in a `u32`: `(product, start, end)` for `SIEVE_PRIMES[start..end]`.
const SIEVE_GROUPS: [(u32, usize, usize); 51] = {
    let mut groups = [(0u32, 0usize, 0usize); 51];
    let (mut count, mut start) = (0, 0);
    while start < SIEVE_PRIMES.len() {
        let (mut product, mut end) = (1u64, start);
        while end < SIEVE_PRIMES.len() && product * SIEVE_PRIMES[end] as u64 <= u32::MAX as u64 {
            product *= SIEVE_PRIMES[end] as u64;
            end += 1;
        }
        groups[count] = (product as u32, start, end);
        count += 1;
        start = end;
    }
    assert!(count == groups.len());
    groups
};

/// True if an odd prime below [`SIEVE_BOUND`] divides `candidate`. One
/// single-word remainder per group ([`BigUint::rem_u32`]) gives the
/// residue every prime of the group is tested against; no `BigUint` is
/// built. Groups run smallest primes first, so most composites leave
/// after the first.
fn has_small_factor(candidate: &BigUint) -> bool {
    SIEVE_GROUPS.iter().any(|&(product, start, end)| {
        let r = candidate.rem_u32(product);
        SIEVE_PRIMES[start..end].iter().any(|&p| r.is_multiple_of(p))
    })
}

/// Uniform value with at most `bits` bits.
fn random_bits(bits: usize, rng: &mut Drbg) -> BigUint {
    if bits == 0 {
        return BigUint::zero();
    }
    let nbytes = bits.div_ceil(8);
    let mut bytes = rng.bytes(nbytes);
    let excess = nbytes * 8 - bits;
    bytes[0] &= 0xffu8 >> excess;
    BigUint::from_bytes_be(&bytes)
}

/// Uniform value in `[low, high)` (both > 0, low < high).
fn random_range(low: &BigUint, high: &BigUint, rng: &mut Drbg) -> BigUint {
    let span = high.sub(low);
    let bits = span.bits();
    loop {
        let r = random_bits(bits, rng);
        if r < span {
            return low.add(&r);
        }
    }
}

/// Miller–Rabin probabilistic primality test with `rounds` random
/// bases, counting each exponentiation into `work`. One Montgomery
/// context serves every witness's `a^d mod n` and the squarings after
/// it.
fn miller_rabin(n: &BigUint, rounds: usize, rng: &mut Drbg, work: &mut KeygenWork) -> bool {
    let one = BigUint::one();
    let two = BigUint::from_u64(2);
    if n < &two {
        return false;
    }
    if n == &two || n == &BigUint::from_u64(3) {
        return true;
    }
    if n.is_even() {
        return false;
    }
    // n - 1 = d * 2^s with d odd.
    let n1 = n.sub(&one);
    let mut d = n1.clone();
    let mut s = 0usize;
    while d.is_even() {
        d = d.shr(1);
        s += 1;
    }
    let ctx = MontgomeryCtx::new(n);
    'witness: for _ in 0..rounds {
        let a = random_range(&two, &n1, rng);
        work.exponentiations += 1;
        let mut x = ctx.pow(&a, &d);
        if x == one || x == n1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = ctx.pow(&x, &two);
            if x == n1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_key() -> RsaPrivateKey {
        // 512-bit keys keep the test suite fast; correctness is size-independent.
        let mut rng = Drbg::new(b"rsa-test-key");
        RsaPrivateKey::generate(512, &mut rng)
    }

    #[test]
    #[should_panic(expected = "no prime among 6400 random 64-bit candidates")]
    fn prime_search_is_bounded() {
        // A primality test that never succeeds stands in for a broken
        // modular exponentiation: the search must panic, not spin.
        let mut work = KeygenWork::default();
        search_prime(64, &mut Drbg::new(b"never prime"), &mut work, |_, _, _| false);
    }

    /// True if a table prime divides `candidate`, by one [`BigUint::rem`]
    /// per prime: the reference the sieve is held to.
    fn table_divides(candidate: &BigUint) -> bool {
        SIEVE_PRIMES
            .iter()
            .any(|&p| candidate.rem(&BigUint::from_u64(p.into())).is_zero())
    }

    #[test]
    fn sieve_table_is_every_odd_prime_below_the_bound_packed_into_u32_groups() {
        let mut rng = Drbg::new(b"sieve table");
        let mut work = KeygenWork::default();
        let odd_primes: Vec<u32> = (3..SIEVE_BOUND)
            .step_by(2)
            .filter(|&n| miller_rabin(&BigUint::from_u64(n.into()), 16, &mut rng, &mut work))
            .collect();
        assert_eq!(SIEVE_PRIMES.to_vec(), odd_primes);
        let mut next = 0;
        for &(product, start, end) in &SIEVE_GROUPS {
            assert_eq!(start, next, "groups cover the table in order");
            assert!(end > start);
            let exact: u64 = SIEVE_PRIMES[start..end].iter().map(|&p| u64::from(p)).product();
            assert_eq!(u64::from(product), exact, "product fits in u32");
            next = end;
        }
        assert_eq!(next, SIEVE_PRIMES.len());
    }

    #[test]
    fn sieve_matches_bigint_rem_on_random_odd_candidates() {
        let mut rng = Drbg::new(b"sieve differential");
        let mut rejected = 0;
        for i in 0..600 {
            let bits = 256 + rng.below(2048 - 256 + 1) as usize;
            let mut odd = random_bits(bits, &mut rng);
            odd.set_bit(bits - 1);
            odd.set_bit(0);
            // 1021 is the last table prime and 1031 the first prime past it.
            let candidate = match i % 3 {
                0 => odd,
                1 => odd.mul(&BigUint::from_u64(1021)),
                _ => odd.mul(&BigUint::from_u64(1031)),
            };
            for &(product, start, end) in &SIEVE_GROUPS {
                let r = candidate.rem_u32(product);
                let want = candidate.rem(&BigUint::from_u64(product.into()));
                assert_eq!(BigUint::from_u64(r.into()), want, "group product {product}");
                for &p in &SIEVE_PRIMES[start..end] {
                    let want = candidate.rem(&BigUint::from_u64(p.into()));
                    assert_eq!(BigUint::from_u64((r % p).into()), want, "prime {p}");
                }
            }
            assert_eq!(has_small_factor(&candidate), table_divides(&candidate), "{candidate:?}");
            if i % 3 == 1 {
                assert!(has_small_factor(&candidate), "1021 * r must be rejected");
            }
            rejected += usize::from(has_small_factor(&candidate));
        }
        // Every 1021 multiple, and ~84% of the other odd numbers (an odd
        // factor below 2^10): ~540 of 600.
        assert!((480..600).contains(&rejected), "{rejected} of 600 rejected");
    }

    #[test]
    fn sieve_passes_products_of_primes_past_the_table() {
        let mut rng = Drbg::new(b"sieve pass");
        let mut work = KeygenWork::default();
        for bits in [256, 512, 1024] {
            let r = gen_prime(bits, &mut rng, &mut work);
            let c = r.mul(&BigUint::from_u64(1031));
            assert!(!has_small_factor(&c), "1031 * prime must pass the sieve");
            assert!(has_small_factor(&r.mul(&BigUint::from_u64(1021))));
            assert!(!has_small_factor(&r.mul(&r)));
        }
    }

    #[test]
    fn miller_rabin_knowns() {
        let mut rng = Drbg::new(b"mr");
        let mut work = KeygenWork::default();
        for p in [2u64, 3, 5, 7, 97, 65537, 2147483647] {
            assert!(miller_rabin(&BigUint::from_u64(p), 16, &mut rng, &mut work), "{p} is prime");
        }
        for c in [0u64, 1, 4, 9, 15, 561, 41041, 65536, 2147483649] {
            let composite = !miller_rabin(&BigUint::from_u64(c), 16, &mut rng, &mut work);
            assert!(composite, "{c} is composite");
        }
    }

    #[test]
    fn miller_rabin_large_prime() {
        let mut rng = Drbg::new(b"mr2");
        let mut work = KeygenWork::default();
        // 2^127 - 1 (Mersenne prime)
        let p = BigUint::one().shl(127).sub(&BigUint::one());
        assert!(miller_rabin(&p, 16, &mut rng, &mut work));
        // 2^128 - 1 is composite.
        let c = BigUint::one().shl(128).sub(&BigUint::one());
        assert!(!miller_rabin(&c, 16, &mut rng, &mut work));
    }

    #[test]
    fn keygen_produces_consistent_crt() {
        let key = test_key();
        assert_eq!(key.p.mul(&key.q), key.public.n);
        assert_eq!(key.public.n.bits(), 512);
        // d*e = 1 mod (p-1)(q-1)
        let phi = key.p.sub(&BigUint::one()).mul(&key.q.sub(&BigUint::one()));
        assert!(key.d.mul_mod(&key.public.e, &phi).is_one());
    }

    #[test]
    fn raw_roundtrip() {
        let key = test_key();
        let m = BigUint::from_u64(0x1234_5678_9abc_def0);
        let c = key.public.raw(&m);
        assert_eq!(key.raw(&c), m);
    }

    #[test]
    fn oaep_roundtrip() {
        let key = test_key();
        let mut rng = Drbg::new(b"oaep");
        // 512-bit OAEP fits at most k - 2*20 - 2 = 22 bytes; an AES key fits.
        let msg = b"vtpm-master-key!";
        let c = key.public.encrypt_oaep(msg, b"TCPA", &mut rng).unwrap();
        assert_eq!(c.len(), key.public.size());
        let p = key.decrypt_oaep(&c, b"TCPA").unwrap();
        assert_eq!(p, msg);
    }

    #[test]
    fn oaep_randomized() {
        let key = test_key();
        let mut rng = Drbg::new(b"oaep-rand");
        let c1 = key.public.encrypt_oaep(b"m", b"TCPA", &mut rng).unwrap();
        let c2 = key.public.encrypt_oaep(b"m", b"TCPA", &mut rng).unwrap();
        assert_ne!(c1, c2, "OAEP must be randomized");
    }

    #[test]
    fn oaep_wrong_label_rejected() {
        let key = test_key();
        let mut rng = Drbg::new(b"oaep-label");
        let c = key.public.encrypt_oaep(b"secret", b"TCPA", &mut rng).unwrap();
        assert_eq!(key.decrypt_oaep(&c, b"WRONG"), Err(RsaError::BadPadding));
    }

    #[test]
    fn oaep_tampered_ciphertext_rejected() {
        let key = test_key();
        let mut rng = Drbg::new(b"oaep-tamper");
        let mut c = key.public.encrypt_oaep(b"secret", b"TCPA", &mut rng).unwrap();
        c[10] ^= 0xff;
        assert!(key.decrypt_oaep(&c, b"TCPA").is_err());
    }

    #[test]
    fn oaep_message_too_long() {
        let key = test_key();
        let mut rng = Drbg::new(b"oaep-long");
        let too_long = vec![0u8; key.public.size() - 2 * 20 - 1];
        assert_eq!(
            key.public.encrypt_oaep(&too_long, b"TCPA", &mut rng),
            Err(RsaError::MessageTooLong)
        );
        // Exactly the limit works.
        let max = vec![7u8; key.public.size() - 2 * 20 - 2];
        let c = key.public.encrypt_oaep(&max, b"TCPA", &mut rng).unwrap();
        assert_eq!(key.decrypt_oaep(&c, b"TCPA").unwrap(), max);
    }

    #[test]
    fn sign_verify_roundtrip() {
        let key = test_key();
        let sig = key.sign_pkcs1_sha1(b"quote data").unwrap();
        assert!(key.public.verify_pkcs1_sha1(b"quote data", &sig).is_ok());
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let key = test_key();
        let sig = key.sign_pkcs1_sha1(b"quote data").unwrap();
        assert_eq!(
            key.public.verify_pkcs1_sha1(b"other data", &sig),
            Err(RsaError::BadPadding)
        );
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let key = test_key();
        let mut sig = key.sign_pkcs1_sha1(b"quote data").unwrap();
        sig[0] ^= 1;
        assert!(key.public.verify_pkcs1_sha1(b"quote data", &sig).is_err());
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let key = test_key();
        let mut rng = Drbg::new(b"other-key");
        let other = RsaPrivateKey::generate(512, &mut rng);
        let sig = key.sign_pkcs1_sha1(b"msg").unwrap();
        assert!(other.public.verify_pkcs1_sha1(b"msg", &sig).is_err());
    }

    #[test]
    fn keygen_deterministic_from_seed() {
        let mut r1 = Drbg::new(b"det");
        let mut r2 = Drbg::new(b"det");
        let k1 = RsaPrivateKey::generate(512, &mut r1);
        let k2 = RsaPrivateKey::generate(512, &mut r2);
        assert_eq!(k1.public, k2.public);
    }

    #[test]
    fn mgf1_known_properties() {
        let m = mgf1(b"seed", 45);
        assert_eq!(m.len(), 45);
        // Prefix property: longer output extends shorter output.
        let m2 = mgf1(b"seed", 20);
        assert_eq!(&m[..20], &m2[..]);
    }
}
