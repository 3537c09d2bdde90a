//! SHA-1 (FIPS 180-4). TPM 1.2 is specified over SHA-1, so despite its
//! collision weakness it is the digest this emulator must provide (PCR
//! Extend, OIAP/OSAP HMACs, the Quote digest, OAEP/MGF1); the
//! access-control layer itself authenticates with HMAC where collisions do
//! not apply.
//!
//! Two compression kernels sit behind [`Sha1`], picked when a state is
//! created ([`Digest::new`]): on x86-64 CPUs that report SHA-NI, the
//! SHA1RNDS4/SHA1NEXTE/SHA1MSG1/SHA1MSG2 kernel, fed every run of whole
//! blocks in one call; elsewhere the portable FIPS 180-4 rounds below,
//! which [`Sha1::portable`] also runs on any CPU as the differential
//! reference. Digests are identical.

use crate::hash::{BlockBuffer, Digest, ShaKernel};

const H0: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];

/// Streaming SHA-1 state.
#[derive(Clone)]
pub struct Sha1 {
    h: [u32; 5],
    buf: BlockBuffer,
    kernel: ShaKernel,
}

impl Sha1 {
    /// A state that runs the portable kernel whatever the CPU reports:
    /// the reference the differential tests hold the selected kernel
    /// ([`Digest::new`]) to.
    pub fn portable() -> Self {
        Sha1 { h: H0, buf: BlockBuffer::new(), kernel: ShaKernel::Portable }
    }

    /// The compression kernel this state runs: `"sha-ni"` or `"portable"`.
    pub fn kernel(&self) -> &'static str {
        self.kernel.name()
    }
}

/// Compress whole 64-byte `blocks` into `h` with `kernel`.
fn compress(kernel: ShaKernel, h: &mut [u32; 5], blocks: &[u8]) {
    match kernel {
        ShaKernel::Portable => compress_portable(h, blocks),
        // SAFETY: `ShaNi` is only built by `ShaKernel::detect` after
        // `x86::sha_detected()` confirmed every feature the kernel enables.
        #[cfg(target_arch = "x86_64")]
        ShaKernel::ShaNi => unsafe { crate::x86::sha1_compress(h, blocks) },
    }
}

/// The portable kernel: the FIPS 180-4 rounds, one block at a time.
fn compress_portable(h: &mut [u32; 5], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().unwrap());
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }

        let [mut a, mut b, mut c, mut d, mut e] = *h;
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | (!b & d), 0x5A827999),
                20..=39 => (b ^ c ^ d, 0x6ED9EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
                _ => (b ^ c ^ d, 0xCA62C1D6),
            };
            let t = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = t;
        }
        for (s, v) in h.iter_mut().zip([a, b, c, d, e]) {
            *s = s.wrapping_add(v);
        }
    }
}

impl Digest for Sha1 {
    const OUTPUT_LEN: usize = 20;
    const BLOCK_LEN: usize = 64;

    fn new() -> Self {
        Sha1 { kernel: ShaKernel::detect(), ..Sha1::portable() }
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
        assert_eq!(hex(&Sha1::digest(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn abc_vector() {
        assert_eq!(hex(&Sha1::digest(b"abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            hex(&Sha1::digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(hex(&Sha1::digest(&data)), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let oneshot = Sha1::digest(&data);
        for split in [0usize, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), oneshot, "split at {split}");
        }
    }

    #[test]
    fn block_boundary_lengths() {
        // Exercise padding around the 56-byte boundary where the length
        // field forces an extra block.
        for len in 54..=66usize {
            let data = vec![0x42u8; len];
            let mut h = Sha1::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), Sha1::digest(&data), "len {len}");
        }
    }
}
