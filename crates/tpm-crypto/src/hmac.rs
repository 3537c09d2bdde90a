//! HMAC (RFC 2104) generic over the [`Digest`] trait.
//!
//! TPM 1.2 authorization sessions (OIAP/OSAP) use HMAC-SHA1; the paper's
//! AC1 request authentication uses HMAC-SHA256.

use crate::hash::Digest;

/// Largest digest block this HMAC handles on the stack: both SHA-1 and
/// SHA-256 have 64-byte blocks.
const MAX_BLOCK_LEN: usize = 64;

/// Streaming HMAC state. Allocation-free: the key pads live in stack
/// arrays.
#[derive(Clone)]
pub struct Hmac<D: Digest> {
    inner: D,
    /// Key XOR opad (its first `D::BLOCK_LEN` bytes), retained for the
    /// outer pass.
    opad_key: [u8; MAX_BLOCK_LEN],
}

impl<D: Digest> Hmac<D> {
    /// Initialize with `key` (any length; hashed down if longer than a block).
    pub fn new(key: &[u8]) -> Self {
        const { assert!(D::BLOCK_LEN <= MAX_BLOCK_LEN && D::OUTPUT_LEN <= MAX_BLOCK_LEN) };
        let mut ipad = [0u8; MAX_BLOCK_LEN];
        if key.len() > D::BLOCK_LEN {
            let mut h = D::new();
            h.update(key);
            h.finalize_into(&mut ipad[..D::OUTPUT_LEN]);
        } else {
            ipad[..key.len()].copy_from_slice(key);
        }
        let mut opad_key = ipad;
        for (i, o) in ipad.iter_mut().zip(opad_key.iter_mut()) {
            *i ^= 0x36;
            *o ^= 0x5c;
        }
        let mut inner = D::new();
        inner.update(&ipad[..D::BLOCK_LEN]);
        Hmac { inner, opad_key }
    }

    /// Absorb message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Produce the MAC into `out` (exactly `D::OUTPUT_LEN` bytes),
    /// consuming the state. Allocation-free.
    pub fn finalize_into(self, out: &mut [u8]) {
        let mut inner_hash = [0u8; MAX_BLOCK_LEN];
        self.inner.finalize_into(&mut inner_hash[..D::OUTPUT_LEN]);
        let mut outer = D::new();
        outer.update(&self.opad_key[..D::BLOCK_LEN]);
        outer.update(&inner_hash[..D::OUTPUT_LEN]);
        outer.finalize_into(out);
    }

    /// Produce the MAC as a fresh `Vec`, consuming the state.
    pub fn finalize(self) -> Vec<u8> {
        let mut out = vec![0u8; D::OUTPUT_LEN];
        self.finalize_into(&mut out);
        out
    }

    /// One-shot convenience.
    pub fn mac(key: &[u8], data: &[u8]) -> Vec<u8> {
        let mut h = Self::new(key);
        h.update(data);
        h.finalize()
    }
}

/// Constant-time byte-slice equality: the comparison time depends only on
/// the lengths, never on where the first mismatch occurs. MAC verification
/// must use this rather than `==` to avoid a timing oracle.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

/// HMAC-SHA1 one-shot (TPM 1.2 auth sessions). Allocation-free.
pub fn hmac_sha1(key: &[u8], data: &[u8]) -> [u8; 20] {
    let mut h = Hmac::<crate::sha1::Sha1>::new(key);
    h.update(data);
    let mut out = [0u8; 20];
    h.finalize_into(&mut out);
    out
}

/// HMAC-SHA256 one-shot (AC1 request authentication). Allocation-free.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; 32] {
    let mut h = Hmac::<crate::sha256::Sha256>::new(key);
    h.update(data);
    let mut out = [0u8; 32];
    h.finalize_into(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha1::Sha1;
    use crate::sha256::Sha256;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 2202 test vectors for HMAC-SHA1.
    #[test]
    fn rfc2202_case1() {
        let key = [0x0b; 20];
        assert_eq!(
            hex(&Hmac::<Sha1>::mac(&key, b"Hi There")),
            "b617318655057264e28bc0b6fb378c8ef146be00"
        );
    }

    #[test]
    fn rfc2202_case2() {
        assert_eq!(
            hex(&Hmac::<Sha1>::mac(b"Jefe", b"what do ya want for nothing?")),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
        );
    }

    #[test]
    fn rfc2202_case3() {
        let key = [0xaa; 20];
        let data = [0xdd; 50];
        assert_eq!(
            hex(&Hmac::<Sha1>::mac(&key, &data)),
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3"
        );
    }

    #[test]
    fn rfc2202_long_key() {
        // Case 6: 80-byte key forces the hash-the-key path.
        let key = [0xaa; 80];
        assert_eq!(
            hex(&Hmac::<Sha1>::mac(&key, b"Test Using Larger Than Block-Size Key - Hash Key First")),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112"
        );
    }

    // RFC 4231 test vectors for HMAC-SHA256.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0b; 20];
        assert_eq!(
            hex(&Hmac::<Sha256>::mac(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        assert_eq!(
            hex(&Hmac::<Sha256>::mac(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn streaming_equals_oneshot() {
        let key = b"secret key";
        let data: Vec<u8> = (0..150u8).collect();
        let oneshot = Hmac::<Sha256>::mac(key, &data);
        let mut h = Hmac::<Sha256>::new(key);
        h.update(&data[..77]);
        h.update(&data[77..]);
        assert_eq!(h.finalize(), oneshot);
    }

    #[test]
    fn ct_eq_semantics() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"abcd"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn distinct_keys_distinct_macs() {
        let m1 = hmac_sha256(b"key1", b"msg");
        let m2 = hmac_sha256(b"key2", b"msg");
        assert_ne!(m1, m2);
    }
}
