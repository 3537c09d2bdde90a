//! A deterministic random bit generator in the style of Hash_DRBG
//! (NIST SP 800-90A, simplified): SHA-256 over (key, reseed counter, block
//! counter). The TPM emulator uses one DRBG instance per TPM so that a
//! given seed reproduces an identical TPM lifetime — essential for
//! deterministic tests and for replaying experiments.

use crate::hash::sha256;

/// Blocks generated between two ratchets of the working state (32 MiB).
const RATCHET_BLOCKS: u64 = 1 << 20;

/// Deterministic generator; never blocks, never fails.
///
/// Output is a *stream*: requesting 10 bytes then 22 bytes yields exactly
/// the same bytes as one 32-byte request (partial blocks are buffered,
/// not discarded), so consumers can draw in any chunking.
pub struct Drbg {
    /// Working state, replaced on reseed.
    v: [u8; 32],
    /// Blocks generated since the last reseed.
    counter: u64,
    /// Unconsumed tail of the last generated block.
    pending: [u8; 32],
    pending_len: usize,
}

impl Drbg {
    /// Instantiate from seed material of any length.
    pub fn new(seed: &[u8]) -> Self {
        Drbg { v: sha256(seed), counter: 0, pending: [0; 32], pending_len: 0 }
    }

    /// Mix fresh entropy into the state. Discards any buffered output.
    pub fn reseed(&mut self, entropy: &[u8]) {
        self.mix(entropy);
        self.pending_len = 0;
    }

    /// Replace the working state with `H(v || entropy)` and restart the
    /// block counter.
    fn mix(&mut self, entropy: &[u8]) {
        let mut buf = Vec::with_capacity(32 + entropy.len());
        buf.extend_from_slice(&self.v);
        buf.extend_from_slice(entropy);
        self.v = sha256(&buf);
        self.counter = 0;
    }

    /// Fill `out` with pseudo-random bytes.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        let mut done = 0;
        // Drain buffered output first.
        if self.pending_len > 0 {
            let take = self.pending_len.min(out.len());
            out[..take].copy_from_slice(&self.pending[32 - self.pending_len..32 - self.pending_len + take]);
            self.pending_len -= take;
            done = take;
        }
        let mut block_in = [0u8; 40];
        block_in[..32].copy_from_slice(&self.v);
        while done < out.len() {
            block_in[32..].copy_from_slice(&self.counter.to_be_bytes());
            self.counter = self.counter.wrapping_add(1);
            let block = sha256(&block_in);
            let take = (out.len() - done).min(32);
            out[done..done + take].copy_from_slice(&block[..take]);
            if take < 32 {
                // Buffer the tail for the next call.
                self.pending = block;
                self.pending_len = 32 - take;
            }
            done += take;
            // Every RATCHET_BLOCKS blocks, ratchet the state forward so
            // earlier output cannot be recomputed from a captured state
            // (backtracking resistance). It happens at a block boundary
            // and keeps the buffered tail, so the stream does not depend
            // on how it is drawn.
            if self.counter >= RATCHET_BLOCKS {
                let v = self.v;
                self.mix(&v);
                block_in[..32].copy_from_slice(&self.v);
            }
        }
    }

    /// Convenience: `n` pseudo-random bytes.
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut out = vec![0u8; n];
        self.fill_bytes(&mut out);
        out
    }

    /// A pseudo-random u64.
    pub fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill_bytes(&mut b);
        u64::from_be_bytes(b)
    }

    /// A pseudo-random u32.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform value in `[0, bound)`; panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0);
        // Rejection sampling to avoid modulo bias.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = Drbg::new(b"seed");
        let mut b = Drbg::new(b"seed");
        assert_eq!(a.bytes(100), b.bytes(100));
    }

    #[test]
    fn distinct_seeds_diverge() {
        let mut a = Drbg::new(b"seed-a");
        let mut b = Drbg::new(b"seed-b");
        assert_ne!(a.bytes(32), b.bytes(32));
    }

    #[test]
    fn sequential_output_differs() {
        let mut d = Drbg::new(b"x");
        let first = d.bytes(32);
        let second = d.bytes(32);
        assert_ne!(first, second);
    }

    #[test]
    fn chunked_matches_bulk() {
        let mut a = Drbg::new(b"s");
        let mut b = Drbg::new(b"s");
        let bulk = a.bytes(64);
        let mut chunked = b.bytes(32);
        chunked.extend(b.bytes(32));
        assert_eq!(bulk, chunked);
    }

    #[test]
    fn misaligned_chunks_match_bulk() {
        let mut a = Drbg::new(b"s");
        let mut b = Drbg::new(b"s");
        let bulk = a.bytes(100);
        let mut pieced = b.bytes(7);
        pieced.extend(b.bytes(1));
        pieced.extend(b.bytes(40));
        pieced.extend(b.bytes(52));
        assert_eq!(bulk, pieced, "stream semantics: chunking must not matter");
    }

    #[test]
    fn chunking_does_not_matter_across_the_ratchet() {
        // Two blocks before the ratchet: the 100-byte draw spans it.
        let near_ratchet = || {
            let mut d = Drbg::new(b"s");
            d.counter = RATCHET_BLOCKS - 2;
            d
        };
        let (mut a, mut b) = (near_ratchet(), near_ratchet());
        let bulk = a.bytes(100);
        let mut pieced = b.bytes(7);
        pieced.extend(b.bytes(1));
        pieced.extend(b.bytes(40));
        pieced.extend(b.bytes(52));
        assert_eq!(bulk, pieced, "stream semantics hold across the ratchet");
        assert_eq!(a.bytes(64), b.bytes(64));
        // The ratchet did run: the stream after it is not the pre-ratchet
        // state's blocks 2^20 and on.
        let mut block_in = [0u8; 40];
        block_in[..32].copy_from_slice(&near_ratchet().v);
        block_in[32..].copy_from_slice(&RATCHET_BLOCKS.to_be_bytes());
        assert_ne!(bulk[64..96], sha256(&block_in)[..]);
    }

    #[test]
    fn reseed_changes_stream() {
        let mut a = Drbg::new(b"s");
        let mut b = Drbg::new(b"s");
        b.reseed(b"extra");
        assert_ne!(a.bytes(32), b.bytes(32));
    }

    #[test]
    fn below_in_range_and_covers() {
        let mut d = Drbg::new(b"range");
        let mut seen = [false; 7];
        for _ in 0..500 {
            let v = d.below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear in 500 draws");
    }

    #[test]
    fn rough_uniformity() {
        // Byte-value mean over a large sample should be near 127.5.
        let mut d = Drbg::new(b"uniform");
        let sample = d.bytes(65536);
        let mean: f64 = sample.iter().map(|&b| b as f64).sum::<f64>() / sample.len() as f64;
        assert!((mean - 127.5).abs() < 2.0, "mean {mean}");
    }
}
