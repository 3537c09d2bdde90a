//! Property tests for the histogram wire format, which the observatory
//! decodes from every host's scrape: encode∘decode must be the
//! identity, every strict prefix and any trailing byte must be
//! rejected, arbitrary bytes must never panic the decoder, and nothing
//! the decoder accepts may panic `snapshot`, `merge` or `delta_since`.

use std::collections::BTreeSet;

use proptest::collection::{btree_set, vec};
use proptest::prelude::*;
use proptest::proptest;
use vtpm_telemetry::Histogram;

fn histogram_of(values: &[u64]) -> Histogram {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// Wire bytes shaped like an encoding — `count, sum, max, n, then n ×
/// (index u16, count u64)` — from fuzzable parts. Indices may fall
/// past the bucket table, `big` splits `u64`'s whole range across the
/// buckets (so merging two copies overflows every running sum), and
/// the header count may lie, so the decoder sees both accepted and
/// rejected frames.
fn framed(
    indices: &BTreeSet<u16>,
    counts: &[u64],
    big: bool,
    sum: u64,
    max: u64,
    lie: bool,
) -> Vec<u8> {
    let mut entries: Vec<(u16, u64)> =
        indices.iter().copied().zip(counts.iter().copied()).collect();
    if big && !entries.is_empty() {
        let share = u64::MAX / entries.len() as u64;
        entries.iter_mut().for_each(|e| e.1 = share);
    }
    let total = entries.iter().fold(0u64, |acc, &(_, n)| acc.wrapping_add(n));
    let mut out = Vec::new();
    out.extend_from_slice(&total.wrapping_add(lie as u64).to_be_bytes());
    out.extend_from_slice(&sum.to_be_bytes());
    out.extend_from_slice(&max.to_be_bytes());
    out.extend_from_slice(&(entries.len() as u32).to_be_bytes());
    for (idx, n) in entries {
        out.extend_from_slice(&idx.to_be_bytes());
        out.extend_from_slice(&n.to_be_bytes());
    }
    out
}

/// Everything a scrape consumer does with a decoded histogram: none
/// of it may panic, however hostile the accepted values.
fn exercise(h: &Histogram) {
    let _ = h.snapshot();
    let merged = Histogram::new();
    merged.merge(h);
    merged.merge(h);
    let _ = merged.snapshot();
    let _ = merged.delta_since(h).map(|d| d.snapshot());
    let _ = h.delta_since(&merged).map(|d| d.snapshot());
    let _ = h.delta_since(h).map(|d| d.snapshot());
    let _ = h.fraction_over(h.max());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode ∘ decode == identity: same summary, same bytes.
    #[test]
    fn roundtrip(values in vec(any::<u64>(), 0..64)) {
        let h = histogram_of(&values);
        let bytes = h.encode();
        let back = Histogram::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(back.snapshot(), h.snapshot());
        prop_assert_eq!(back.encode(), bytes);
    }

    /// Every strict prefix of a valid encoding is rejected.
    #[test]
    fn prefixes_rejected(values in vec(any::<u64>(), 0..32)) {
        let bytes = histogram_of(&values).encode();
        for cut in 0..bytes.len() {
            prop_assert!(Histogram::decode(&bytes[..cut]).is_none(), "prefix of {} bytes", cut);
        }
    }

    /// A valid encoding with any trailing byte is rejected.
    #[test]
    fn trailing_byte_rejected(values in vec(any::<u64>(), 0..32), tail in any::<u8>()) {
        let mut bytes = histogram_of(&values).encode();
        bytes.push(tail);
        prop_assert!(Histogram::decode(&bytes).is_none());
    }

    /// Arbitrary bytes never panic the decoder, and whatever it accepts
    /// survives snapshot, merge and delta_since.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..160)) {
        if let Some(h) = Histogram::decode(&bytes) {
            exercise(&h);
        }
    }

    /// Frame-shaped hostile input: accepted frames are canonical (they
    /// re-encode to the same bytes) and survive every consumer.
    #[test]
    fn accepted_frames_are_canonical_and_safe(
        indices in btree_set(any::<u16>().prop_map(|i| i % 1_000), 0..12),
        counts in vec(1u64..1_000_000, 12..13),
        big in any::<bool>(),
        sum in any::<u64>(),
        max in any::<u64>(),
        lie in 0u8..8,
    ) {
        let bytes = framed(&indices, &counts, big, sum, max, lie == 0);
        if let Some(h) = Histogram::decode(&bytes) {
            prop_assert_eq!(h.encode(), bytes);
            exercise(&h);
        }
    }
}
