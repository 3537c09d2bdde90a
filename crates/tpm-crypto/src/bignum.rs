//! Arbitrary-precision unsigned integers sized for RSA-grade arithmetic.
//!
//! Limbs are little-endian `u64`; every value is kept *normalized* (no
//! trailing zero limbs), so equality and comparison are limb-wise.
//!
//! Modular exponentiation for odd moduli — the only case TPM 1.2 RSA
//! needs — runs through [`MontgomeryCtx`]: the modulus is zero-padded
//! to a fixed width of 4, 8, 16, 32 or 64 limbs, and one CIOS
//! Montgomery product, monomorphized per width, does every multiply
//! and square on stack arrays. Exponentiation uses fixed 2^4 windows,
//! so a w-bit exponent costs w squarings plus w/4 multiplies plus a
//! 15-entry table instead of w + w/2 multiplies. There is no separate
//! squaring kernel. Odd moduli above 4096 bits and even moduli take
//! plain square-and-multiply so the API stays total, and
//! [`BigUint::mod_pow_schoolbook`] retains that slow
//! full-product-then-Knuth-divide path as an independent differential
//! reference — the test battery asserts the Montgomery path is
//! byte-identical to it (`tests/proptests.rs`).
//!
//! None of this is hardened against local side channels (the window
//! scan skips zero windows, the final Montgomery subtraction is
//! conditional); the simulated attacker model is memory disclosure,
//! not power or timing analysis — see `rsa.rs`.

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian limbs, normalized: `limbs.last() != Some(&0)`.
    limbs: Vec<u64>,
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl BigUint {
    /// The value 0.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Build from a single machine word.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Parse big-endian bytes (the TPM wire format for RSA material).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len().div_ceil(8));
        let mut chunk_iter = bytes.rchunks(8);
        for chunk in chunk_iter.by_ref() {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Serialize to big-endian bytes with no leading zeros (empty for 0).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zeros of the most significant limb.
                let skip = (limb.leading_zeros() / 8) as usize;
                out.extend_from_slice(&bytes[skip..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Serialize to exactly `len` big-endian bytes, left-padded with zeros.
    ///
    /// Returns `None` if the value does not fit.
    pub fn to_bytes_be_padded(&self, len: usize) -> Option<Vec<u8>> {
        let raw = self.to_bytes_be();
        if raw.len() > len {
            return None;
        }
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        Some(out)
    }

    /// Hex string (lowercase, no leading zeros, `"0"` for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = String::new();
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:016x}"));
            }
        }
        s
    }

    /// Parse a hex string (no prefix). Panics on non-hex characters.
    pub fn from_hex(s: &str) -> Self {
        let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        let mut limbs = Vec::with_capacity(s.len().div_ceil(16));
        let bytes = s.as_bytes();
        let mut end = bytes.len();
        while end > 0 {
            let start = end.saturating_sub(16);
            let limb = u64::from_str_radix(
                std::str::from_utf8(&bytes[start..end]).unwrap(),
                16,
            )
            .expect("invalid hex digit");
            limbs.push(limb);
            end = start;
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// True iff the value is 0.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is 1.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// True iff the low bit is 0 (zero counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// True iff the low bit is 1.
    pub fn is_odd(&self) -> bool {
        !self.is_even()
    }

    /// Number of significant bits (0 for the value 0).
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Value of bit `i` (LSB is bit 0).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Set bit `i` to 1, growing the limb vector as needed.
    pub fn set_bit(&mut self, i: usize) {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1u64 << (i % 64);
    }

    /// `self + other`.
    #[allow(clippy::needless_range_loop)]
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (longer, shorter) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(longer.len() + 1);
        let mut carry = 0u64;
        for i in 0..longer.len() {
            let b = shorter.get(i).copied().unwrap_or(0);
            let (s1, c1) = longer[i].overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self - other`; returns `None` on underflow.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self.cmp_abs(other) == Ordering::Less {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigUint { limbs: out };
        n.normalize();
        Some(n)
    }

    /// `self - other`; panics on underflow.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        self.checked_sub(other).expect("BigUint subtraction underflow")
    }

    /// Schoolbook product. RSA operand sizes (16–32 limbs) do not repay
    /// Karatsuba's bookkeeping, and the hot path (modexp) uses Montgomery
    /// multiplication anyway.
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Left shift by `n` bits.
    pub fn shl(&self, n: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &limb in &self.limbs {
                out.push((limb << bit_shift) | carry);
                carry = limb >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Right shift by `n` bits.
    pub fn shr(&self, n: usize) -> BigUint {
        let limb_shift = n / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = n % 64;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                out.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
            }
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    fn cmp_abs(&self, other: &BigUint) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {}
            o => return o,
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => {}
                o => return o,
            }
        }
        Ordering::Equal
    }

    /// Quotient and remainder; panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "BigUint division by zero");
        if self.cmp_abs(divisor) == Ordering::Less {
            return (BigUint::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.div_rem_u64(divisor.limbs[0]);
            return (q, BigUint::from_u64(r));
        }
        self.div_rem_knuth(divisor)
    }

    /// Division by a single limb.
    fn div_rem_u64(&self, d: u64) -> (BigUint, u64) {
        let mut q = vec![0u64; self.limbs.len()];
        let mut rem = 0u128;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            q[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        let mut qn = BigUint { limbs: q };
        qn.normalize();
        (qn, rem as u64)
    }

    /// Knuth Algorithm D (TAOCP Vol. 2, 4.3.1) over u64 limbs.
    fn div_rem_knuth(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        // D1: normalize so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let v = divisor.shl(shift);
        let u = self.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;

        // Working dividend with one extra high limb.
        let mut un = u.limbs.clone();
        un.push(0);
        let vn = &v.limbs;
        let mut q = vec![0u64; m + 1];

        let b = 1u128 << 64;
        for j in (0..=m).rev() {
            // D3: estimate qhat from the top two dividend limbs.
            let top = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
            let mut qhat = top / vn[n - 1] as u128;
            let mut rhat = top % vn[n - 1] as u128;
            while qhat >= b
                || qhat * vn[n - 2] as u128 > ((rhat << 64) | un[j + n - 2] as u128)
            {
                qhat -= 1;
                rhat += vn[n - 1] as u128;
                if rhat >= b {
                    break;
                }
            }

            // D4: multiply and subtract.
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * vn[i] as u128 + carry;
                carry = p >> 64;
                let t = un[j + i] as i128 - (p as u64) as i128 + borrow;
                un[j + i] = t as u64;
                borrow = t >> 64; // arithmetic shift: 0 or -1
            }
            let t = un[j + n] as i128 - carry as i128 + borrow;
            un[j + n] = t as u64;

            q[j] = qhat as u64;

            // D6: add back if we over-subtracted.
            if t < 0 {
                q[j] -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let s = un[j + i] as u128 + vn[i] as u128 + carry;
                    un[j + i] = s as u64;
                    carry = s >> 64;
                }
                un[j + n] = un[j + n].wrapping_add(carry as u64);
            }
        }

        let mut quotient = BigUint { limbs: q };
        quotient.normalize();
        let mut rem = BigUint { limbs: un[..n].to_vec() };
        rem.normalize();
        (quotient, rem.shr(shift))
    }

    /// `self mod m`.
    pub fn rem(&self, m: &BigUint) -> BigUint {
        self.div_rem(m).1
    }

    /// `self mod m` for a one-word modulus, allocating nothing: the value
    /// is reduced in 32-bit half-limbs, most significant first, so every
    /// step is one `u64 % u64` division whose dividend (the running
    /// residue shifted up 32 bits, plus the next half-limb) cannot
    /// overflow. Panics if `m` is zero.
    pub(crate) fn rem_u32(&self, m: u32) -> u32 {
        let m = u64::from(m);
        let mut r = 0u64;
        for &limb in self.limbs.iter().rev() {
            r = ((r << 32) | (limb >> 32)) % m;
            r = ((r << 32) | (limb & 0xffff_ffff)) % m;
        }
        r as u32
    }

    /// `self * other mod m` via full product + reduction (cold path).
    pub fn mul_mod(&self, other: &BigUint, m: &BigUint) -> BigUint {
        self.mul(other).rem(m)
    }

    /// `self - other mod m` (operands must already be `< m`).
    pub fn sub_mod(&self, other: &BigUint, m: &BigUint) -> BigUint {
        if self.cmp_abs(other) != Ordering::Less {
            self.sub(other)
        } else {
            self.add(m).sub(other)
        }
    }

    /// `self^exp mod m`. Montgomery fixed-window for odd `m`, plain
    /// square-and-multiply otherwise. Panics if `m` is zero.
    pub fn mod_pow(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "mod_pow with zero modulus");
        if m.is_one() {
            return BigUint::zero();
        }
        if exp.is_zero() {
            return BigUint::one();
        }
        if m.is_odd() {
            return MontgomeryCtx::new(m).pow(self, exp);
        }
        // Even moduli (not used by RSA, kept for totality).
        self.mod_pow_schoolbook(exp, m)
    }

    /// `self^exp mod m` by plain square-and-multiply over full products
    /// and Knuth division — the retained schoolbook path.
    ///
    /// This is deliberately *not* routed through [`MontgomeryCtx`]: it
    /// shares no code with the optimized fast path, which makes it an
    /// independent differential reference. The KAT/proptest battery and
    /// the R-C1 experiment both assert the Montgomery fixed-window
    /// (and, in `rsa.rs`, the CRT) results are byte-identical to this
    /// function's output. It doubles as the fallback for even moduli and
    /// odd moduli above 4096 bits, which have no Montgomery kernel.
    /// Panics if `m` is zero.
    pub fn mod_pow_schoolbook(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "mod_pow with zero modulus");
        if m.is_one() {
            return BigUint::zero();
        }
        if exp.is_zero() {
            return BigUint::one();
        }
        let mut base = self.rem(m);
        let mut result = BigUint::one();
        for i in 0..exp.bits() {
            if exp.bit(i) {
                result = result.mul_mod(&base, m);
            }
            base = base.mul_mod(&base, m);
        }
        result
    }

    /// Greatest common divisor (binary GCD).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let mut shift = 0usize;
        while a.is_even() && b.is_even() {
            a = a.shr(1);
            b = b.shr(1);
            shift += 1;
        }
        while a.is_even() {
            a = a.shr(1);
        }
        loop {
            while b.is_even() {
                b = b.shr(1);
            }
            if a.cmp_abs(&b) == Ordering::Greater {
                std::mem::swap(&mut a, &mut b);
            }
            b = b.sub(&a);
            if b.is_zero() {
                break;
            }
        }
        a.shl(shift)
    }

    /// Modular inverse of `self` mod `m`, or `None` if `gcd(self, m) != 1`.
    ///
    /// Extended Euclid over signed cofactors tracked as (sign, magnitude).
    pub fn mod_inverse(&self, m: &BigUint) -> Option<BigUint> {
        if m.is_zero() || m.is_one() {
            return None;
        }
        // Iterative extended Euclid: r0 = m, r1 = self mod m.
        let mut r0 = m.clone();
        let mut r1 = self.rem(m);
        // t0 = 0, t1 = 1 with explicit signs.
        let mut t0 = (false, BigUint::zero()); // (negative?, magnitude)
        let mut t1 = (false, BigUint::one());
        while !r1.is_zero() {
            let (q, r2) = r0.div_rem(&r1);
            // t2 = t0 - q * t1
            let qt1 = q.mul(&t1.1);
            let t2 = sub_signed(&t0, &(t1.0, qt1));
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if !r0.is_one() {
            return None;
        }
        // t0 is the inverse, possibly negative.
        let inv = if t0.0 {
            m.sub(&t0.1.rem(m))
        } else {
            t0.1.rem(m)
        };
        let inv = if inv.cmp_abs(m) == Ordering::Equal { BigUint::zero() } else { inv };
        Some(inv)
    }
}

/// Signed subtraction over (negative?, magnitude) pairs.
fn sub_signed(a: &(bool, BigUint), b: &(bool, BigUint)) -> (bool, BigUint) {
    match (a.0, b.0) {
        // a - b with same sign: compare magnitudes.
        (false, false) | (true, true) => {
            if a.1.cmp_abs(&b.1) != Ordering::Less {
                (a.0 && !a.1.sub(&b.1).is_zero(), a.1.sub(&b.1))
            } else {
                (!a.0, b.1.sub(&a.1))
            }
        }
        // (+a) - (-b) = a + b
        (false, true) => (false, a.1.add(&b.1)),
        // (-a) - (+b) = -(a + b)
        (true, false) => (true, a.1.add(&b.1)),
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_abs(other)
    }
}

/// Montgomery multiplication context for a fixed odd modulus.
///
/// The modulus is zero-padded to the smallest width N in
/// [`MONT_WIDTHS`] (4, 8, 16, 32 or 64 limbs) that holds it, and the
/// context works with the radix R = 2^(64N). R > n is all Montgomery
/// reduction needs, so the padding changes no result: every output is
/// fully reduced mod n. Each width gets its own monomorphized
/// exponentiation ([`MontgomeryCtx::pow`] dispatches once per call), so
/// operands are fixed-size stack arrays and the one product kernel,
/// [`cios`], runs without bounds checks or heap scratch. Squarings go
/// through the same kernel: at a fixed width the general product beats
/// a dedicated squaring routine. Exponentiation scans the exponent in
/// fixed 4-bit windows over a 15-entry table.
///
/// Moduli above 4096 bits (64 limbs) have no kernel; `pow` takes the
/// plain square-and-multiply path there, which TPM 1.2 never reaches
/// (`CreateWrapKey` caps keys at 4096 bits).
pub struct MontgomeryCtx {
    /// Modulus limbs (little-endian), zero-padded to the kernel width.
    n: Vec<u64>,
    /// `-n^{-1} mod 2^64`.
    n0_inv: u64,
    /// `R^2 mod n`, for conversion into Montgomery form (same width).
    r2: Vec<u64>,
    /// The modulus as a BigUint (for conversions).
    modulus: BigUint,
}

/// Kernel widths in limbs; a modulus is padded to the smallest that fits.
const MONT_WIDTHS: [usize; 5] = [4, 8, 16, 32, 64];

/// Window width for fixed-window exponentiation. 4 divides the limb
/// width, so a window never straddles limbs; the table costs 14 extra
/// products and removes three of every four multiply steps.
const WINDOW_BITS: usize = 4;

impl MontgomeryCtx {
    /// Build a context; panics if `m` is even or zero.
    pub fn new(m: &BigUint) -> Self {
        assert!(m.is_odd(), "Montgomery modulus must be odd");
        let Some(&width) = MONT_WIDTHS.iter().find(|&&w| w >= m.limbs.len()) else {
            // Above 4096 bits: `pow` falls back to square-and-multiply.
            return MontgomeryCtx { n: Vec::new(), n0_inv: 0, r2: Vec::new(), modulus: m.clone() };
        };
        let mut n = m.limbs.clone();
        n.resize(width, 0);
        // Newton iteration for the inverse of n[0] mod 2^64.
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n[0].wrapping_mul(inv)));
        }
        let n0_inv = inv.wrapping_neg();
        // R^2 mod n where R = 2^(64 * width).
        let mut r2 = BigUint::one().shl(128 * width).rem(m).limbs;
        r2.resize(width, 0);
        MontgomeryCtx { n, n0_inv, r2, modulus: m.clone() }
    }

    /// Modular exponentiation: `base^exp mod n` (a base `>= n` is
    /// reduced first).
    ///
    /// Fixed-window: the exponent is scanned most-significant-first in
    /// aligned 4-bit windows; each window costs four squarings plus at
    /// most one table multiply (zero windows skip the multiply, which
    /// leaks window Hamming information — acceptable here, see the
    /// module docs on the side-channel model).
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let base = if *base >= self.modulus { &base.rem(&self.modulus) } else { base };
        match self.n.len() {
            4 => self.pow_n::<4>(base, exp),
            8 => self.pow_n::<8>(base, exp),
            16 => self.pow_n::<16>(base, exp),
            32 => self.pow_n::<32>(base, exp),
            64 => self.pow_n::<64>(base, exp),
            _ => base.mod_pow_schoolbook(exp, &self.modulus),
        }
    }

    /// [`pow`](Self::pow) at a fixed width of `N` limbs (`base < n`).
    fn pow_n<const N: usize>(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let n: &[u64; N] = self.n.as_slice().try_into().expect("modulus padded to N");
        let r2: &[u64; N] = self.r2.as_slice().try_into().expect("R^2 padded to N");
        let mul = |a: &[u64; N], b: &[u64; N]| cios(a, b, n, self.n0_inv);
        let mut one = [0u64; N];
        one[0] = 1;
        // Montgomery form of x is montmul(x, R^2); montmul(x_M, 1) undoes it.
        let from_mont = |a: &[u64; N]| {
            let mut r = BigUint { limbs: mul(a, &one).to_vec() };
            r.normalize();
            r
        };

        let nbits = exp.bits();
        if nbits == 0 {
            // base^0 = 1 mod n (0 when n == 1).
            return from_mont(&mul(&one, r2));
        }
        let mut base_limbs = [0u64; N];
        base_limbs[..base.limbs.len()].copy_from_slice(&base.limbs);
        let base_m = mul(&base_limbs, r2);

        // Short exponents (e.g. the public exponent 65537) cannot
        // amortize the 14-product window table; plain left-to-right
        // square-and-multiply wins there.
        if nbits <= 64 {
            let mut acc = base_m;
            for i in (0..nbits - 1).rev() {
                acc = mul(&acc, &acc);
                if exp.bit(i) {
                    acc = mul(&acc, &base_m);
                }
            }
            return from_mont(&acc);
        }

        // Table of base^w in Montgomery form for w = 1..15. Index 0 is
        // never read: the top window holds the exponent's MSB and zero
        // windows skip the multiply.
        let mut table = [[0u64; N]; 1 << WINDOW_BITS];
        table[1] = base_m;
        for w in 2..1 << WINDOW_BITS {
            table[w] = mul(&table[w - 1], &base_m);
        }

        let nwin = nbits.div_ceil(WINDOW_BITS);
        // Top window (always nonzero: it contains the exponent's MSB).
        let mut acc = table[window4(&exp.limbs, nwin - 1)];
        for win in (0..nwin - 1).rev() {
            for _ in 0..WINDOW_BITS {
                acc = mul(&acc, &acc);
            }
            let w = window4(&exp.limbs, win);
            if w != 0 {
                acc = mul(&acc, &table[w]);
            }
        }
        from_mont(&acc)
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }
}

/// Montgomery product `a * b * R^{-1} mod n` with R = 2^(64N), by CIOS
/// (coarsely integrated operand scanning, Koç et al.): each row adds
/// `a * b[i]` and then one reduction multiple `m * n`, shifting a limb
/// out, so the accumulator stays N + 2 limbs and no wide product is
/// ever formed. Requires `a, b < n` and `n` odd; the result is `< n`.
#[inline(always)]
fn cios<const N: usize>(a: &[u64; N], b: &[u64; N], n: &[u64; N], n0: u64) -> [u64; N] {
    let mut t = [0u64; N];
    // t[N], the limb above the accumulator. Bounded by 1 between rows.
    let mut t_hi = 0u64;
    for &bi in b {
        let mut c = 0u64;
        for j in 0..N {
            let s = t[j] as u128 + a[j] as u128 * bi as u128 + c as u128;
            t[j] = s as u64;
            c = (s >> 64) as u64;
        }
        let s = t_hi as u128 + c as u128;
        let (top, top_carry) = (s as u64, (s >> 64) as u64);
        // m makes t + m*n divisible by 2^64; shift the zero limb out.
        let m = t[0].wrapping_mul(n0);
        let s = t[0] as u128 + m as u128 * n[0] as u128;
        let mut c = (s >> 64) as u64;
        for j in 1..N {
            let s = t[j] as u128 + m as u128 * n[j] as u128 + c as u128;
            t[j - 1] = s as u64;
            c = (s >> 64) as u64;
        }
        let s = top as u128 + c as u128;
        t[N - 1] = s as u64;
        t_hi = top_carry + (s >> 64) as u64;
    }
    // t < 2n here; one conditional subtraction finishes the reduction.
    if t_hi != 0 || !limbs_lt(&t, n) {
        let mut borrow = false;
        for j in 0..N {
            let (d1, b1) = t[j].overflowing_sub(n[j]);
            let (d2, b2) = d1.overflowing_sub(borrow as u64);
            t[j] = d2;
            borrow = b1 || b2;
        }
    }
    t
}

/// `a < b` over equal-width little-endian limbs.
#[inline(always)]
fn limbs_lt<const N: usize>(a: &[u64; N], b: &[u64; N]) -> bool {
    for j in (0..N).rev() {
        if a[j] != b[j] {
            return a[j] < b[j];
        }
    }
    false
}

/// Aligned 4-bit window `win` of a little-endian limb slice (window 0 is
/// the least significant nibble). Windows never straddle limbs because
/// 4 divides 64.
#[inline]
fn window4(limbs: &[u64], win: usize) -> usize {
    let bit = win * WINDOW_BITS;
    let limb = bit / 64;
    if limb >= limbs.len() {
        return 0;
    }
    ((limbs[limb] >> (bit % 64)) & 0xf) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> BigUint {
        BigUint::from_hex(s)
    }

    #[test]
    fn zero_and_one_identities() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(BigUint::zero().add(&BigUint::one()), BigUint::one());
        assert_eq!(BigUint::one().mul(&BigUint::zero()), BigUint::zero());
        assert_eq!(BigUint::from_u64(0), BigUint::zero());
    }

    #[test]
    fn bytes_roundtrip_strips_leading_zeros() {
        let v = BigUint::from_bytes_be(&[0, 0, 1, 2, 3]);
        assert_eq!(v.to_bytes_be(), vec![1, 2, 3]);
        assert_eq!(v, BigUint::from_u64(0x010203));
    }

    #[test]
    fn padded_bytes() {
        let v = BigUint::from_u64(0xAB);
        assert_eq!(v.to_bytes_be_padded(4).unwrap(), vec![0, 0, 0, 0xAB]);
        assert!(BigUint::from_hex("ffffffffff").to_bytes_be_padded(2).is_none());
    }

    #[test]
    fn hex_roundtrip() {
        let v = n("deadbeef00112233445566778899aabbccddeeff");
        assert_eq!(v.to_hex(), "deadbeef00112233445566778899aabbccddeeff");
        assert_eq!(n("0"), BigUint::zero());
    }

    #[test]
    fn add_with_carry_chain() {
        let a = n("ffffffffffffffffffffffffffffffff");
        assert_eq!(a.add(&BigUint::one()), n("100000000000000000000000000000000"));
    }

    #[test]
    fn sub_with_borrow_chain() {
        let a = n("100000000000000000000000000000000");
        assert_eq!(a.sub(&BigUint::one()), n("ffffffffffffffffffffffffffffffff"));
        assert!(BigUint::one().checked_sub(&a).is_none());
    }

    #[test]
    fn mul_known_values() {
        let a = n("ffffffffffffffff");
        let b = n("ffffffffffffffff");
        assert_eq!(a.mul(&b), n("fffffffffffffffe0000000000000001"));
        // 2^128 * 2^128 = 2^256
        let c = BigUint::one().shl(128);
        assert_eq!(c.mul(&c), BigUint::one().shl(256));
    }

    #[test]
    fn shifts() {
        let a = n("1234_5678_9abc_def0".replace('_', "").as_str());
        assert_eq!(a.shl(4).shr(4), a);
        assert_eq!(a.shr(200), BigUint::zero());
        assert_eq!(BigUint::one().shl(64), n("10000000000000000"));
        assert_eq!(a.shl(64).shr(64), a);
    }

    #[test]
    fn bits_and_bit_access() {
        let a = BigUint::one().shl(127);
        assert_eq!(a.bits(), 128);
        assert!(a.bit(127));
        assert!(!a.bit(126));
        assert!(!a.bit(500));
        assert_eq!(BigUint::zero().bits(), 0);
        let mut b = BigUint::zero();
        b.set_bit(70);
        assert_eq!(b, BigUint::one().shl(70));
    }

    #[test]
    fn div_rem_small() {
        let (q, r) = BigUint::from_u64(100).div_rem(&BigUint::from_u64(7));
        assert_eq!(q, BigUint::from_u64(14));
        assert_eq!(r, BigUint::from_u64(2));
    }

    #[test]
    fn div_rem_multi_limb() {
        // (2^192 + 5) / (2^64 + 3)
        let a = BigUint::one().shl(192).add(&BigUint::from_u64(5));
        let b = BigUint::one().shl(64).add(&BigUint::from_u64(3));
        let (q, r) = a.div_rem(&b);
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r < b);
    }

    #[test]
    fn div_rem_knuth_addback_path() {
        // A case constructed to exercise qhat correction: top limbs nearly equal.
        let a = n("8000000000000000000000000000000000000000000000000000000000000003");
        let b = n("8000000000000000000000000000000000000000000000000001");
        let (q, r) = a.div_rem(&b);
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r < b);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = BigUint::one().div_rem(&BigUint::zero());
    }

    #[test]
    fn mod_pow_known() {
        // 4^13 mod 497 = 445
        let r = BigUint::from_u64(4).mod_pow(&BigUint::from_u64(13), &BigUint::from_u64(497));
        assert_eq!(r, BigUint::from_u64(445));
    }

    #[test]
    fn mod_pow_fermat_little() {
        // a^(p-1) = 1 mod p for prime p not dividing a.
        let p = n("ffffffffffffffffffffffffffffff61"); // a 128-bit prime
        let a = n("123456789abcdef0123456789abcdef");
        let r = a.mod_pow(&p.sub(&BigUint::one()), &p);
        assert_eq!(r, BigUint::one());
    }

    #[test]
    fn mod_pow_even_modulus_fallback() {
        // 3^5 mod 16 = 243 mod 16 = 3
        let r = BigUint::from_u64(3).mod_pow(&BigUint::from_u64(5), &BigUint::from_u64(16));
        assert_eq!(r, BigUint::from_u64(3));
    }

    #[test]
    fn mod_pow_zero_exponent() {
        let m = BigUint::from_u64(97);
        assert_eq!(BigUint::from_u64(5).mod_pow(&BigUint::zero(), &m), BigUint::one());
    }

    #[test]
    fn mod_pow_modulus_one() {
        assert_eq!(
            BigUint::from_u64(5).mod_pow(&BigUint::from_u64(3), &BigUint::one()),
            BigUint::zero()
        );
    }

    #[test]
    fn gcd_known() {
        assert_eq!(
            BigUint::from_u64(48).gcd(&BigUint::from_u64(36)),
            BigUint::from_u64(12)
        );
        assert_eq!(BigUint::zero().gcd(&BigUint::from_u64(7)), BigUint::from_u64(7));
        assert_eq!(BigUint::from_u64(7).gcd(&BigUint::zero()), BigUint::from_u64(7));
    }

    #[test]
    fn mod_inverse_known() {
        // 3 * 5 = 15 = 1 mod 7 -> inverse of 3 mod 7 is 5
        let inv = BigUint::from_u64(3).mod_inverse(&BigUint::from_u64(7)).unwrap();
        assert_eq!(inv, BigUint::from_u64(5));
        // Not invertible when gcd != 1.
        assert!(BigUint::from_u64(6).mod_inverse(&BigUint::from_u64(9)).is_none());
    }

    #[test]
    fn mod_inverse_large() {
        let m = n("ffffffffffffffffffffffffffffff61");
        let a = n("deadbeefdeadbeefdeadbeef");
        let inv = a.mod_inverse(&m).unwrap();
        assert_eq!(a.mul_mod(&inv, &m), BigUint::one());
    }

    #[test]
    fn montgomery_matches_plain() {
        let m = n("c7f1bb1d3956411ab7b9a9b25a9a9b25a9a9b25a9a9b25a9a9b25a9a9b25a9b");
        let base = n("1234567890abcdef1234567890abcdef");
        let exp = n("10001");
        let ctx = MontgomeryCtx::new(&m);
        let mont = ctx.pow(&base, &exp);
        // Plain square-and-multiply reference.
        let mut acc = BigUint::one();
        let mut b = base.rem(&m);
        for i in 0..exp.bits() {
            if exp.bit(i) {
                acc = acc.mul_mod(&b, &m);
            }
            b = b.mul_mod(&b, &m);
        }
        assert_eq!(mont, acc);
    }

    #[test]
    fn ordering() {
        assert!(n("ff") < n("100"));
        assert!(n("10000000000000000") > n("ffffffffffffffff"));
        assert_eq!(n("42").cmp(&n("42")), Ordering::Equal);
    }
}
