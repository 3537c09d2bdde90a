//! x86-64 hardware kernels: SHA-NI compression for SHA-1 and SHA-256, and
//! an AES-NI CTR keystream for both AES key sizes.
//!
//! Each kernel is a safe `#[target_feature]` function, so calling it is
//! `unsafe` everywhere except from code compiled with the same features.
//! The callers ([`crate::sha1`], [`crate::sha256`], [`crate::aes`]) call
//! them only after the matching `*_detected` check below returned true at
//! run time; on any other CPU they run their portable kernels, which
//! are also the differential reference the tests compare these against.
//! Outputs are byte-identical to the portable kernels.
//!
//! Every kernel runs its whole multi-block loop inside one call, so the
//! chaining state or the round keys stay in registers across blocks.

use core::arch::x86_64::*;

/// True when the CPU has every feature the SHA-NI kernels enable.
pub(crate) fn sha_detected() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// True when the CPU has every feature the AES-NI kernel enables.
pub(crate) fn aes_detected() -> bool {
    is_x86_feature_detected!("aes") && is_x86_feature_detected!("sse2")
}

/// Unaligned 16-byte load.
#[inline]
fn load(bytes: &[u8; 16]) -> __m128i {
    // SAFETY: `bytes` is 16 readable bytes, and `loadu` has no alignment
    // requirement. SSE2 is part of the x86-64 baseline.
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
}

/// Unaligned 16-byte store.
#[inline]
fn store(bytes: &mut [u8; 16], v: __m128i) {
    // SAFETY: `bytes` is 16 writable bytes, and `storeu` has no alignment
    // requirement. SSE2 is part of the x86-64 baseline.
    unsafe { _mm_storeu_si128(bytes.as_mut_ptr().cast(), v) }
}

/// The four 16-byte quarters of a 64-byte message block.
#[inline]
fn quarters(block: &[u8; 64]) -> [&[u8; 16]; 4] {
    let (q, _) = block.as_chunks::<16>();
    [&q[0], &q[1], &q[2], &q[3]]
}

// ------------------------------------------------------------- SHA-256

/// Four SHA-256 rounds: `w` holds W[4i..4i+4] (lane 0 first).
macro_rules! sha256_rounds4 {
    ($abef:ident, $cdgh:ident, $w:expr, $i:expr) => {{
        let k = &crate::sha256::K[4 * $i..4 * $i + 4];
        let k = _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32);
        let wk = _mm_add_epi32($w, k);
        $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
        $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }};
}

/// Next four schedule words from the previous sixteen, then four rounds.
macro_rules! sha256_schedule_rounds4 {
    ($abef:ident, $cdgh:ident, $w0:ident, $w1:ident, $w2:ident, $w3:ident, $w4:ident, $i:expr) => {{
        // W[t-16] + σ0(W[t-15]), + W[t-7], + σ1(W[t-2]).
        let s = _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4));
        $w4 = _mm_sha256msg2_epu32(s, $w3);
        sha256_rounds4!($abef, $cdgh, $w4, $i);
    }};
}

/// SHA-256 compression of the whole 64-byte blocks in `blocks` into `h`,
/// with SHA256RNDS2/SHA256MSG1/SHA256MSG2.
///
/// Callers must have seen [`sha_detected`] return true.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
pub(crate) fn sha256_compress(h: &mut [u32; 8], blocks: &[u8]) {
    let (blocks, rest) = blocks.as_chunks::<64>();
    debug_assert!(rest.is_empty(), "whole blocks only");
    // Byte-swap each 32-bit word: the message words are big-endian.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    // SHA256RNDS2 keeps the state as (A, B, E, F) and (C, D, G, H), most
    // significant lane first.
    let dcba = _mm_set_epi32(h[3] as i32, h[2] as i32, h[1] as i32, h[0] as i32);
    let hgfe = _mm_set_epi32(h[7] as i32, h[6] as i32, h[5] as i32, h[4] as i32);
    let cdab = _mm_shuffle_epi32(dcba, 0xB1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

    for block in blocks {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let [q0, q1, q2, q3] = quarters(block);
        let mut w0 = _mm_shuffle_epi8(load(q0), bswap);
        let mut w1 = _mm_shuffle_epi8(load(q1), bswap);
        let mut w2 = _mm_shuffle_epi8(load(q2), bswap);
        let mut w3 = _mm_shuffle_epi8(load(q3), bswap);
        let mut w4;

        sha256_rounds4!(abef, cdgh, w0, 0);
        sha256_rounds4!(abef, cdgh, w1, 1);
        sha256_rounds4!(abef, cdgh, w2, 2);
        sha256_rounds4!(abef, cdgh, w3, 3);
        sha256_schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, w4, 4);
        sha256_schedule_rounds4!(abef, cdgh, w1, w2, w3, w4, w0, 5);
        sha256_schedule_rounds4!(abef, cdgh, w2, w3, w4, w0, w1, 6);
        sha256_schedule_rounds4!(abef, cdgh, w3, w4, w0, w1, w2, 7);
        sha256_schedule_rounds4!(abef, cdgh, w4, w0, w1, w2, w3, 8);
        sha256_schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, w4, 9);
        sha256_schedule_rounds4!(abef, cdgh, w1, w2, w3, w4, w0, 10);
        sha256_schedule_rounds4!(abef, cdgh, w2, w3, w4, w0, w1, 11);
        sha256_schedule_rounds4!(abef, cdgh, w3, w4, w0, w1, w2, 12);
        sha256_schedule_rounds4!(abef, cdgh, w4, w0, w1, w2, w3, 13);
        sha256_schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, w4, 14);
        sha256_schedule_rounds4!(abef, cdgh, w1, w2, w3, w4, w0, 15);

        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1B);
    let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
    let hgfe = _mm_alignr_epi8(dchg, feba, 8);
    h[0] = _mm_extract_epi32(dcba, 0) as u32;
    h[1] = _mm_extract_epi32(dcba, 1) as u32;
    h[2] = _mm_extract_epi32(dcba, 2) as u32;
    h[3] = _mm_extract_epi32(dcba, 3) as u32;
    h[4] = _mm_extract_epi32(hgfe, 0) as u32;
    h[5] = _mm_extract_epi32(hgfe, 1) as u32;
    h[6] = _mm_extract_epi32(hgfe, 2) as u32;
    h[7] = _mm_extract_epi32(hgfe, 3) as u32;
}

// --------------------------------------------------------------- SHA-1

/// Four SHA-1 rounds of function group `$f`: E for them is derived from
/// `$prev` (the state four rounds back) plus the schedule words `$w`.
macro_rules! sha1_rounds4 {
    ($abcd:ident, $prev:ident, $w:expr, $f:literal) => {
        _mm_sha1rnds4_epu32($abcd, _mm_sha1nexte_epu32($prev, $w), $f)
    };
}

/// Next four schedule words from the previous sixteen, then four rounds.
macro_rules! sha1_schedule_rounds4 {
    ($abcd:ident, $prev:ident,
     $w0:ident, $w1:ident, $w2:ident, $w3:ident, $w4:ident, $f:literal) => {
        // rotl1(W[t-3] ^ W[t-8] ^ W[t-14] ^ W[t-16]).
        $w4 = _mm_sha1msg2_epu32(_mm_xor_si128(_mm_sha1msg1_epu32($w0, $w1), $w2), $w3);
        $prev = sha1_rounds4!($abcd, $prev, $w4, $f);
    };
}

/// SHA-1 compression of the whole 64-byte blocks in `blocks` into `h`,
/// with SHA1RNDS4/SHA1NEXTE/SHA1MSG1/SHA1MSG2.
///
/// Callers must have seen [`sha_detected`] return true.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
pub(crate) fn sha1_compress(h: &mut [u32; 5], blocks: &[u8]) {
    let (blocks, rest) = blocks.as_chunks::<64>();
    debug_assert!(rest.is_empty(), "whole blocks only");
    // Reverse all 16 bytes: big-endian words, with W[0] in lane 3 where
    // SHA1RNDS4 expects the first word.
    let reverse = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);

    let mut abcd = _mm_set_epi32(h[0] as i32, h[1] as i32, h[2] as i32, h[3] as i32);
    let mut e = _mm_set_epi32(h[4] as i32, 0, 0, 0);

    for block in blocks {
        let [q0, q1, q2, q3] = quarters(block);
        let mut w0 = _mm_shuffle_epi8(load(q0), reverse);
        let mut w1 = _mm_shuffle_epi8(load(q1), reverse);
        let mut w2 = _mm_shuffle_epi8(load(q2), reverse);
        let mut w3 = _mm_shuffle_epi8(load(q3), reverse);
        let mut w4;

        // h0 and h1 alternate as "the state now" and "four rounds back".
        let mut h0 = abcd;
        let mut h1 = _mm_sha1rnds4_epu32(h0, _mm_add_epi32(e, w0), 0);
        // Rounds 0..20.
        h0 = sha1_rounds4!(h1, h0, w1, 0);
        h1 = sha1_rounds4!(h0, h1, w2, 0);
        h0 = sha1_rounds4!(h1, h0, w3, 0);
        sha1_schedule_rounds4!(h0, h1, w0, w1, w2, w3, w4, 0);
        // Rounds 20..40.
        sha1_schedule_rounds4!(h1, h0, w1, w2, w3, w4, w0, 1);
        sha1_schedule_rounds4!(h0, h1, w2, w3, w4, w0, w1, 1);
        sha1_schedule_rounds4!(h1, h0, w3, w4, w0, w1, w2, 1);
        sha1_schedule_rounds4!(h0, h1, w4, w0, w1, w2, w3, 1);
        sha1_schedule_rounds4!(h1, h0, w0, w1, w2, w3, w4, 1);
        // Rounds 40..60.
        sha1_schedule_rounds4!(h0, h1, w1, w2, w3, w4, w0, 2);
        sha1_schedule_rounds4!(h1, h0, w2, w3, w4, w0, w1, 2);
        sha1_schedule_rounds4!(h0, h1, w3, w4, w0, w1, w2, 2);
        sha1_schedule_rounds4!(h1, h0, w4, w0, w1, w2, w3, 2);
        sha1_schedule_rounds4!(h0, h1, w0, w1, w2, w3, w4, 2);
        // Rounds 60..80.
        sha1_schedule_rounds4!(h1, h0, w1, w2, w3, w4, w0, 3);
        sha1_schedule_rounds4!(h0, h1, w2, w3, w4, w0, w1, 3);
        sha1_schedule_rounds4!(h1, h0, w3, w4, w0, w1, w2, 3);
        sha1_schedule_rounds4!(h0, h1, w4, w0, w1, w2, w3, 3);
        sha1_schedule_rounds4!(h1, h0, w0, w1, w2, w3, w4, 3);

        abcd = _mm_add_epi32(abcd, h0);
        e = _mm_sha1nexte_epu32(h1, e);
    }

    h[0] = _mm_extract_epi32(abcd, 3) as u32;
    h[1] = _mm_extract_epi32(abcd, 2) as u32;
    h[2] = _mm_extract_epi32(abcd, 1) as u32;
    h[3] = _mm_extract_epi32(abcd, 0) as u32;
    h[4] = _mm_extract_epi32(e, 3) as u32;
}

// ------------------------------------------------------------- AES-CTR

/// Counter blocks encrypted per batch: AESENC's latency is several times
/// its issue interval, so eight independent blocks keep the unit busy.
const LANES: usize = 8;

/// XOR the CTR keystream (8-byte `nonce`, 64-bit big-endian block counter
/// from `start_block`, wrapping) into `data` with AESENC/AESENCLAST.
/// `round_keys` is the expanded schedule in FIPS 197 byte order, which is
/// the order the AES-NI instructions take: 11 round keys for AES-128, 15
/// for AES-256. A ragged last batch encrypts a full batch of counters and
/// uses only the bytes it needs.
///
/// Callers must have seen [`aes_detected`] return true.
#[target_feature(enable = "aes,sse2")]
pub(crate) fn aes_ctr_xor<const R: usize>(
    round_keys: &[[u8; 16]; R],
    nonce: &[u8; 8],
    data: &mut [u8],
    start_block: u64,
) {
    let mut keys = [_mm_setzero_si128(); R];
    for (k, rk) in keys.iter_mut().zip(round_keys) {
        *k = load(rk);
    }
    let nonce = i64::from_le_bytes(*nonce);
    let mut counter = start_block;
    for chunk in data.chunks_mut(16 * LANES) {
        let mut blocks = [_mm_setzero_si128(); LANES];
        for (i, b) in blocks.iter_mut().enumerate() {
            // Bytes 0..8 the nonce, bytes 8..16 the big-endian counter.
            let ctr = counter.wrapping_add(i as u64).to_be_bytes();
            *b = _mm_xor_si128(_mm_set_epi64x(i64::from_le_bytes(ctr), nonce), keys[0]);
        }
        for k in &keys[1..R - 1] {
            for b in blocks.iter_mut() {
                *b = _mm_aesenc_si128(*b, *k);
            }
        }
        let mut stream = [0u8; 16 * LANES];
        for (b, out) in blocks.iter().zip(stream.as_chunks_mut::<16>().0) {
            store(out, _mm_aesenclast_si128(*b, keys[R - 1]));
        }
        for (d, k) in chunk.iter_mut().zip(stream.iter()) {
            *d ^= k;
        }
        counter = counter.wrapping_add(LANES as u64);
    }
}
