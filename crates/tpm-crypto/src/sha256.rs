//! SHA-256 (FIPS 180-4). Used by the access-control layer (AC1 credentials,
//! AC4 audit-log hash chain), the encrypted mirror's page digests and
//! metadata checksum, and the DRBG, where a modern digest is appropriate
//! even though the emulated TPM itself speaks SHA-1.
//!
//! Two compression kernels sit behind [`Sha256`], picked when a state is
//! created ([`Digest::new`]): on x86-64 CPUs that report SHA-NI, the
//! SHA256RNDS2/SHA256MSG1/SHA256MSG2 kernel, fed every run of whole
//! blocks in one call; elsewhere the portable FIPS 180-4 rounds below,
//! which [`Sha256::portable`] also runs on any CPU as the differential
//! reference. Digests are identical.

use crate::hash::{BlockBuffer, Digest, ShaKernel};

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
    0x5be0cd19,
];

/// Round constants; the SHA-NI kernel adds them to the schedule words too.
pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2,
];

/// Streaming SHA-256 state.
#[derive(Clone)]
pub struct Sha256 {
    h: [u32; 8],
    buf: BlockBuffer,
    kernel: ShaKernel,
}

impl Sha256 {
    /// A state that runs the portable kernel whatever the CPU reports:
    /// the reference the differential tests hold the selected kernel
    /// ([`Digest::new`]) to.
    pub fn portable() -> Self {
        Sha256 { h: H0, buf: BlockBuffer::new(), kernel: ShaKernel::Portable }
    }

    /// The compression kernel this state runs: `"sha-ni"` or `"portable"`.
    pub fn kernel(&self) -> &'static str {
        self.kernel.name()
    }
}

/// Compress whole 64-byte `blocks` into `h` with `kernel`.
fn compress(kernel: ShaKernel, h: &mut [u32; 8], blocks: &[u8]) {
    match kernel {
        ShaKernel::Portable => compress_portable(h, blocks),
        // SAFETY: `ShaNi` is only built by `ShaKernel::detect` after
        // `x86::sha_detected()` confirmed every feature the kernel enables.
        #[cfg(target_arch = "x86_64")]
        ShaKernel::ShaNi => unsafe { crate::x86::sha256_compress(h, blocks) },
    }
}

/// The portable kernel: the FIPS 180-4 rounds, one block at a time.
fn compress_portable(h: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().unwrap());
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *s = s.wrapping_add(v);
        }
    }
}

impl Digest for Sha256 {
    const OUTPUT_LEN: usize = 32;
    const BLOCK_LEN: usize = 64;

    fn new() -> Self {
        Sha256 { kernel: ShaKernel::detect(), ..Sha256::portable() }
    }

    fn update(&mut self, data: &[u8]) {
        let (h, kernel) = (&mut self.h, self.kernel);
        self.buf.update(data, |blocks| compress(kernel, h, blocks));
    }

    fn finalize_into(mut self, out: &mut [u8]) {
        assert_eq!(out.len(), Self::OUTPUT_LEN);
        let (h, kernel) = (&mut self.h, self.kernel);
        self.buf.finalize(|blocks| compress(kernel, h, blocks));
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.h) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn empty_vector() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            hex(&Sha256::digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&Sha256::digest(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..200u8).collect();
        let oneshot = Sha256::digest(&data);
        for split in [0usize, 1, 63, 64, 65, 128, 199, 200] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), oneshot, "split at {split}");
        }
    }
}
