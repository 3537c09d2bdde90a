//! Property tests for the fabric wire formats (heartbeats, observatory
//! metrics frames and migration protocol messages): encode∘decode must
//! be the identity, and the decoders must never panic (and must reject
//! truncations and trailing garbage) on hostile bytes. Migration
//! messages must also decode canonically. The `(vm, epoch)` header
//! bound inside every `Transfer` payload gets the same treatment: a
//! clear package's payload comes straight off the fabric.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::proptest;
use vtpm_cluster::{decode_payload, encode_payload, HeartbeatFrame, MetricsFrame, MigMessage};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode ∘ decode == identity for every (host, seq, at_ns).
    #[test]
    fn roundtrip(host in any::<u32>(), seq in any::<u64>(), at_ns in any::<u64>()) {
        let hb = HeartbeatFrame { host, seq, at_ns };
        prop_assert_eq!(HeartbeatFrame::decode(&hb.encode()), Some(hb));
    }

    /// Every strict prefix of a valid frame is rejected, as is the
    /// frame with any trailing byte.
    #[test]
    fn truncation_and_trailing_rejected(
        host in any::<u32>(),
        seq in any::<u64>(),
        at_ns in any::<u64>(),
        tail in any::<u8>(),
    ) {
        let bytes = HeartbeatFrame { host, seq, at_ns }.encode();
        for cut in 0..bytes.len() {
            prop_assert_eq!(HeartbeatFrame::decode(&bytes[..cut]), None);
        }
        let mut trailing = bytes.clone();
        trailing.push(tail);
        prop_assert_eq!(HeartbeatFrame::decode(&trailing), None);
    }

    /// Arbitrary bytes never panic the decoder.
    #[test]
    fn decode_never_panics(bytes in vec(any::<u8>(), 0..64)) {
        let _ = HeartbeatFrame::decode(&bytes);
    }
}

/// Names from arbitrary bytes: lossy decoding yields multi-byte UTF-8
/// (U+FFFD) as well as ASCII.
fn name() -> impl Strategy<Value = String> {
    vec(any::<u8>(), 0..12).prop_map(|b| String::from_utf8_lossy(&b).into_owned())
}

/// A metrics frame from fuzzable parts.
fn metrics_frame(
    host: u32,
    at_ns: u64,
    series: Vec<(String, Vec<u8>)>,
    counters: Vec<(String, u64)>,
) -> MetricsFrame {
    MetricsFrame { host, at_ns, series, counters }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode ∘ decode == identity for arbitrary metrics frames.
    #[test]
    fn metrics_roundtrip(
        host in any::<u32>(),
        at_ns in any::<u64>(),
        series in vec((name(), vec(any::<u8>(), 0..40)), 0..6),
        counters in vec((name(), any::<u64>()), 0..6),
    ) {
        let mf = metrics_frame(host, at_ns, series, counters);
        prop_assert_eq!(MetricsFrame::decode(&mf.encode()), Some(mf));
    }

    /// Every strict prefix of a valid metrics frame is rejected, as is
    /// the frame with any trailing byte.
    #[test]
    fn metrics_truncation_and_trailing_rejected(
        host in any::<u32>(),
        series in vec((name(), vec(any::<u8>(), 0..24)), 0..4),
        counters in vec((name(), any::<u64>()), 0..4),
        tail in any::<u8>(),
    ) {
        let bytes = metrics_frame(host, 7, series, counters).encode();
        for cut in 0..bytes.len() {
            prop_assert_eq!(MetricsFrame::decode(&bytes[..cut]), None);
        }
        let mut trailing = bytes.clone();
        trailing.push(tail);
        prop_assert_eq!(MetricsFrame::decode(&trailing), None);
    }

    /// Arbitrary bytes never panic the metrics decoder — including
    /// bytes that start with a valid frame header.
    #[test]
    fn metrics_decode_never_panics(
        bytes in vec(any::<u8>(), 0..256),
        headed in any::<bool>(),
    ) {
        let mut input = if headed {
            metrics_frame(1, 2, Vec::new(), Vec::new()).encode()[..13].to_vec()
        } else {
            Vec::new()
        };
        input.extend_from_slice(&bytes);
        let _ = MetricsFrame::decode(&input);
    }
}

/// A migration protocol message of variant `variant % 8` from fuzzable
/// fields; variants without a payload ignore `a`, `b` and `ok`.
fn mig_message(
    variant: u8,
    (vm, epoch, trace): (u32, u64, u64),
    a: Vec<u8>,
    b: Vec<u8>,
    ok: bool,
) -> MigMessage {
    match variant % 8 {
        0 => MigMessage::Prepare { vm, epoch, trace },
        1 => MigMessage::PrepareAck { vm, epoch, trace, ek_n: a, ek_e: b },
        2 => MigMessage::PrepareReject { vm, epoch, trace },
        3 => MigMessage::Transfer { vm, epoch, trace, package: a },
        4 => MigMessage::VerifyAck { vm, epoch, trace, ok },
        5 => MigMessage::Commit { vm, epoch, trace },
        6 => MigMessage::CommitAck { vm, epoch, trace },
        _ => MigMessage::Abort { vm, epoch, trace },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode ∘ decode == identity for every variant with arbitrary
    /// fields.
    #[test]
    fn mig_roundtrip(
        variant in any::<u8>(),
        key in (any::<u32>(), any::<u64>(), any::<u64>()),
        a in vec(any::<u8>(), 0..48),
        b in vec(any::<u8>(), 0..8),
        ok in any::<bool>(),
    ) {
        let m = mig_message(variant, key, a, b, ok);
        prop_assert_eq!(MigMessage::decode(&m.encode()), Some(m));
    }

    /// Canonical form: whatever decodes re-encodes to the very bytes it
    /// came from, so two distinct frames never decode to one message.
    /// Each byte of a valid frame in turn is overwritten with `byte`.
    #[test]
    fn mig_decode_is_canonical(
        variant in any::<u8>(),
        key in (any::<u32>(), any::<u64>(), any::<u64>()),
        a in vec(any::<u8>(), 0..24),
        ok in any::<bool>(),
        byte in any::<u8>(),
    ) {
        let bytes = mig_message(variant, key, a, vec![1, 0, 1], ok).encode();
        for at in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[at] = byte;
            if let Some(m) = MigMessage::decode(&mutated) {
                prop_assert_eq!(m.encode(), mutated);
            }
        }
    }

    /// Every strict prefix of a valid message is rejected, as is the
    /// message with any trailing byte.
    #[test]
    fn mig_truncation_and_trailing_rejected(
        variant in any::<u8>(),
        key in (any::<u32>(), any::<u64>(), any::<u64>()),
        a in vec(any::<u8>(), 0..24),
        ok in any::<bool>(),
        tail in any::<u8>(),
    ) {
        let bytes = mig_message(variant, key, a, vec![1, 0, 1], ok).encode();
        for cut in 0..bytes.len() {
            prop_assert_eq!(MigMessage::decode(&bytes[..cut]), None);
        }
        let mut trailing = bytes.clone();
        trailing.push(tail);
        prop_assert_eq!(MigMessage::decode(&trailing), None);
    }

    /// Arbitrary bytes never panic the decoder — including bytes behind
    /// a valid tag and header, which reach the payload parsers.
    #[test]
    fn mig_decode_never_panics(
        bytes in vec(any::<u8>(), 0..96),
        tag in 0u8..12,
        headed in any::<bool>(),
    ) {
        let mut input = if headed { vec![tag; 21] } else { Vec::new() };
        input.extend_from_slice(&bytes);
        let _ = MigMessage::decode(&input);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// decode_payload ∘ encode_payload == identity for every
    /// (vm, epoch, state).
    #[test]
    fn payload_roundtrip(
        vm in any::<u32>(),
        epoch in any::<u64>(),
        state in vec(any::<u8>(), 0..96),
    ) {
        let payload = encode_payload(vm, epoch, &state);
        prop_assert_eq!(decode_payload(&payload), Some((vm, epoch, state)));
    }

    /// Arbitrary bytes never panic the payload decoder; whatever it
    /// accepts re-encodes to the very bytes it came from.
    #[test]
    fn payload_decode_never_panics(bytes in vec(any::<u8>(), 0..64)) {
        if let Some((vm, epoch, state)) = decode_payload(&bytes) {
            prop_assert_eq!(encode_payload(vm, epoch, &state), bytes);
        }
    }

    /// Every input shorter than the 12-byte header is refused.
    #[test]
    fn payload_shorter_than_header_refused(bytes in vec(any::<u8>(), 0..12)) {
        prop_assert_eq!(decode_payload(&bytes), None);
    }
}
