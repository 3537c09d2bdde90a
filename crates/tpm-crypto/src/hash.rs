//! Digest trait shared by SHA-1 and SHA-256, plus convenience one-shots.

/// A streaming cryptographic hash.
///
/// Implementations are allocation-free per block; `finalize` consumes the
/// state so a digest cannot be reused accidentally.
pub trait Digest: Clone {
    /// Output size in bytes.
    const OUTPUT_LEN: usize;
    /// Internal block size in bytes (used by HMAC).
    const BLOCK_LEN: usize;

    /// Fresh initial state.
    fn new() -> Self;
    /// Absorb `data`.
    fn update(&mut self, data: &[u8]);
    /// Produce the digest into `out` (exactly `OUTPUT_LEN` bytes),
    /// consuming the state. This is the allocation-free primitive the
    /// hot paths (HMAC, DRBG, audit chain, one-shots) build on.
    fn finalize_into(self, out: &mut [u8]);

    /// Produce the digest as a fresh `Vec`, consuming the state.
    fn finalize(self) -> Vec<u8>
    where
        Self: Sized,
    {
        let mut out = vec![0u8; Self::OUTPUT_LEN];
        self.finalize_into(&mut out);
        out
    }

    /// One-shot convenience.
    fn digest(data: &[u8]) -> Vec<u8> {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }
}

/// The compression kernel a SHA-1 or SHA-256 state runs, chosen when the
/// state is created.
#[derive(Clone, Copy)]
pub(crate) enum ShaKernel {
    /// The scalar FIPS 180-4 rounds: every CPU, and the differential
    /// reference.
    Portable,
    /// The SHA-NI instructions (`crate::x86`). Built only by
    /// [`ShaKernel::detect`], after the CPU reported every feature the
    /// kernels enable; the dispatch's `unsafe` call relies on that.
    #[cfg(target_arch = "x86_64")]
    ShaNi,
}

impl ShaKernel {
    /// The fastest kernel this CPU runs.
    pub(crate) fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if crate::x86::sha_detected() {
            return ShaKernel::ShaNi;
        }
        ShaKernel::Portable
    }

    /// `"sha-ni"` or `"portable"`.
    pub(crate) fn name(self) -> &'static str {
        match self {
            ShaKernel::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            ShaKernel::ShaNi => "sha-ni",
        }
    }
}

/// The message buffering SHA-1 and SHA-256 share: both absorb 64-byte
/// blocks and end with the same padding (0x80, zeros, then the 64-bit
/// big-endian bit length). `compress` is only ever handed whole blocks,
/// as many at once as are ready, so a kernel keeps its chaining state in
/// registers across a run of blocks.
#[derive(Clone)]
pub(crate) struct BlockBuffer {
    /// Partial block.
    buf: [u8; 64],
    len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl BlockBuffer {
    pub(crate) const fn new() -> Self {
        BlockBuffer { buf: [0; 64], len: 0, total_len: 0 }
    }

    /// Absorb `data`: at most one call for a completed buffered block and
    /// one for the run of whole blocks that follows it.
    pub(crate) fn update(&mut self, mut data: &[u8], mut compress: impl FnMut(&[u8])) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.len > 0 {
            let take = (64 - self.len).min(data.len());
            self.buf[self.len..self.len + take].copy_from_slice(&data[..take]);
            self.len += take;
            data = &data[take..];
            if self.len < 64 {
                return;
            }
            compress(&self.buf);
            self.len = 0;
        }
        let whole = data.len() - data.len() % 64;
        if whole > 0 {
            compress(&data[..whole]);
        }
        let rest = &data[whole..];
        self.buf[..rest.len()].copy_from_slice(rest);
        self.len = rest.len();
    }

    /// Pad in place and hand the final one or two blocks to `compress` in
    /// one call.
    pub(crate) fn finalize(self, compress: impl FnOnce(&[u8])) {
        let mut tail = [0u8; 128];
        tail[..self.len].copy_from_slice(&self.buf[..self.len]);
        tail[self.len] = 0x80;
        let end = if self.len < 56 { 64 } else { 128 };
        tail[end - 8..end].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        compress(&tail[..end]);
    }
}

/// One-shot SHA-1 (the TPM 1.2 hash). Allocation-free.
pub fn sha1(data: &[u8]) -> [u8; 20] {
    let mut h = crate::sha1::Sha1::new();
    h.update(data);
    let mut out = [0u8; 20];
    h.finalize_into(&mut out);
    out
}

/// One-shot SHA-256. Allocation-free.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = crate::sha256::Sha256::new();
    h.update(data);
    let mut out = [0u8; 32];
    h.finalize_into(&mut out);
    out
}
