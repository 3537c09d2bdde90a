//! Migration protocol wire messages.
//!
//! The handoff is an eight-step, source-driven exchange:
//!
//! ```text
//!  source                       fabric                    destination
//!  s0 Prepare{vm,e}       ──────────────►
//!                                          s1 journal DstPrepared, or
//!                         ◄────────────── PrepareAck{ek} / PrepareReject
//!  s2 journal SrcQuiesced, freeze guest
//!  s3 Transfer{package}   ──────────────►
//!                                          s4 verify binding/integrity/
//!                         ◄────────────── epoch; VerifyAck{ok}
//!  s5 Commit              ──────────────►
//!                                          s6 journal DstCommitted,
//!                         ◄────────────── adopt; CommitAck
//!  s7 journal SrcReleased, scrub local copy
//! ```
//!
//! Every message carries (`vm`, `epoch`) so each side can match it
//! against its durable journal, plus the attempt's cluster-wide
//! `trace` id (minted once at the source by
//! `vtpm_telemetry::migration_trace_id`), so spans and audit records
//! on source, destination, and fabric stitch into one causal trace;
//! the sealed package additionally binds the (vm, epoch) pair *inside*
//! the encrypted payload (see [`encode_payload`]/[`decode_payload`]),
//! so an attacker cannot re-envelope an old package's ciphertext under
//! a fresh epoch — the digest covers the header.
//!
//! Decoding is hardened the same way as `MigrationPackage::decode`:
//! untrusted bytes yield `None`, never a panic, and trailing garbage is
//! rejected.

use tpm::buffer::{Reader, Writer};

/// A protocol message on the fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MigMessage {
    /// s0 → destination: propose migrating `vm` at `epoch`.
    Prepare { vm: u32, epoch: u64, trace: u64 },
    /// s1 → source: accepted; seal to this EK (modulus/exponent bytes).
    PrepareAck { vm: u32, epoch: u64, trace: u64, ek_n: Vec<u8>, ek_e: Vec<u8> },
    /// s1 → source: refused (stale/replayed epoch, or vm already here).
    PrepareReject { vm: u32, epoch: u64, trace: u64 },
    /// s3 → destination: the packaged state.
    Transfer { vm: u32, epoch: u64, trace: u64, package: Vec<u8> },
    /// s4 → source: package verified (or not).
    VerifyAck { vm: u32, epoch: u64, trace: u64, ok: bool },
    /// s5 → destination: make it authoritative.
    Commit { vm: u32, epoch: u64, trace: u64 },
    /// s6 → source: adopted; safe to release.
    CommitAck { vm: u32, epoch: u64, trace: u64 },
    /// Either direction: abandon (vm, epoch).
    Abort { vm: u32, epoch: u64, trace: u64 },
}

const TAG_PREPARE: u8 = 1;
const TAG_PREPARE_ACK: u8 = 2;
const TAG_PREPARE_REJECT: u8 = 3;
const TAG_TRANSFER: u8 = 4;
const TAG_VERIFY_ACK: u8 = 5;
const TAG_COMMIT: u8 = 6;
const TAG_COMMIT_ACK: u8 = 7;
const TAG_ABORT: u8 = 8;

fn put_epoch(w: &mut Writer, epoch: u64) {
    w.u32((epoch >> 32) as u32);
    w.u32(epoch as u32);
}

fn get_epoch(r: &mut Reader) -> Option<u64> {
    let hi = r.u32().ok()? as u64;
    let lo = r.u32().ok()? as u64;
    Some(hi << 32 | lo)
}

fn put_u64(w: &mut Writer, v: u64) {
    put_epoch(w, v);
}

fn get_u64(r: &mut Reader) -> Option<u64> {
    get_epoch(r)
}

impl MigMessage {
    /// The (vm, epoch) pair every message carries.
    pub fn key(&self) -> (u32, u64) {
        match *self {
            MigMessage::Prepare { vm, epoch, .. }
            | MigMessage::PrepareAck { vm, epoch, .. }
            | MigMessage::PrepareReject { vm, epoch, .. }
            | MigMessage::Transfer { vm, epoch, .. }
            | MigMessage::VerifyAck { vm, epoch, .. }
            | MigMessage::Commit { vm, epoch, .. }
            | MigMessage::CommitAck { vm, epoch, .. }
            | MigMessage::Abort { vm, epoch, .. } => (vm, epoch),
        }
    }

    /// The causal trace id every message carries (header field, minted
    /// at the source when the attempt began).
    pub fn trace(&self) -> u64 {
        match *self {
            MigMessage::Prepare { trace, .. }
            | MigMessage::PrepareAck { trace, .. }
            | MigMessage::PrepareReject { trace, .. }
            | MigMessage::Transfer { trace, .. }
            | MigMessage::VerifyAck { trace, .. }
            | MigMessage::Commit { trace, .. }
            | MigMessage::CommitAck { trace, .. }
            | MigMessage::Abort { trace, .. } => trace,
        }
    }

    /// Serialize for the fabric.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        let (vm, epoch) = self.key();
        let trace = self.trace();
        let tag = match self {
            MigMessage::Prepare { .. } => TAG_PREPARE,
            MigMessage::PrepareAck { .. } => TAG_PREPARE_ACK,
            MigMessage::PrepareReject { .. } => TAG_PREPARE_REJECT,
            MigMessage::Transfer { .. } => TAG_TRANSFER,
            MigMessage::VerifyAck { .. } => TAG_VERIFY_ACK,
            MigMessage::Commit { .. } => TAG_COMMIT,
            MigMessage::CommitAck { .. } => TAG_COMMIT_ACK,
            MigMessage::Abort { .. } => TAG_ABORT,
        };
        w.u8(tag);
        w.u32(vm);
        put_epoch(&mut w, epoch);
        put_u64(&mut w, trace);
        match self {
            MigMessage::PrepareAck { ek_n, ek_e, .. } => {
                w.sized_u32(ek_n);
                w.sized_u32(ek_e);
            }
            MigMessage::Transfer { package, .. } => {
                w.sized_u32(package);
            }
            MigMessage::VerifyAck { ok, .. } => {
                w.u8(*ok as u8);
            }
            _ => {}
        }
        w.into_vec()
    }

    /// Parse untrusted fabric bytes. `None` on anything malformed,
    /// including trailing bytes.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let tag = r.u8().ok()?;
        let vm = r.u32().ok()?;
        let epoch = get_epoch(&mut r)?;
        let trace = get_u64(&mut r)?;
        let msg = match tag {
            TAG_PREPARE => MigMessage::Prepare { vm, epoch, trace },
            TAG_PREPARE_ACK => {
                let ek_n = r.sized_u32().ok()?.to_vec();
                let ek_e = r.sized_u32().ok()?.to_vec();
                MigMessage::PrepareAck { vm, epoch, trace, ek_n, ek_e }
            }
            TAG_PREPARE_REJECT => MigMessage::PrepareReject { vm, epoch, trace },
            TAG_TRANSFER => {
                MigMessage::Transfer { vm, epoch, trace, package: r.sized_u32().ok()?.to_vec() }
            }
            TAG_VERIFY_ACK => {
                // Only the two bytes `encode` writes: any other value
                // would decode to a message that re-encodes differently.
                let ok = match r.u8().ok()? {
                    0 => false,
                    1 => true,
                    _ => return None,
                };
                MigMessage::VerifyAck { vm, epoch, trace, ok }
            }
            TAG_COMMIT => MigMessage::Commit { vm, epoch, trace },
            TAG_COMMIT_ACK => MigMessage::CommitAck { vm, epoch, trace },
            TAG_ABORT => MigMessage::Abort { vm, epoch, trace },
            _ => return None,
        };
        if r.remaining() != 0 {
            return None;
        }
        Some(msg)
    }
}

/// Wire tag for [`HeartbeatFrame`] — outside the [`MigMessage`] tag
/// space (1–8), so a heartbeat can never be mistaken for a protocol
/// message and vice versa.
const TAG_HEARTBEAT: u8 = 9;

/// A periodic liveness beacon on the fabric's control inbox.
///
/// Each live host emits one per fleet round; the failure detector feeds
/// on the *inter-arrival gaps*, so the only payload that matters is who
/// sent it and when (virtual clock at send time). `seq` makes rounds
/// distinguishable on the wiretap and lets a consumer spot gaps
/// directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatFrame {
    /// The sending host.
    pub host: u32,
    /// The fleet round that triggered this beacon.
    pub seq: u64,
    /// Virtual-clock timestamp at send time.
    pub at_ns: u64,
}

impl HeartbeatFrame {
    /// Serialize for the fabric.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(TAG_HEARTBEAT);
        w.u32(self.host);
        put_u64(&mut w, self.seq);
        put_u64(&mut w, self.at_ns);
        w.into_vec()
    }

    /// Parse untrusted fabric bytes. `None` on anything malformed,
    /// including trailing bytes — same hardening as
    /// [`MigMessage::decode`].
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        if r.u8().ok()? != TAG_HEARTBEAT {
            return None;
        }
        let host = r.u32().ok()?;
        let seq = get_u64(&mut r)?;
        let at_ns = get_u64(&mut r)?;
        if r.remaining() != 0 {
            return None;
        }
        Some(HeartbeatFrame { host, seq, at_ns })
    }
}

/// Wire tag for [`MetricsFrame`] — outside both the [`MigMessage`]
/// space (1–8) and [`HeartbeatFrame`]'s tag (9).
const TAG_METRICS: u8 = 10;

/// One host's telemetry scrape on the fabric's control inbox.
///
/// Carries the host's registry as named sparse histogram encodings
/// (`vtpm_telemetry::Histogram::encode`) plus monotone counters. The
/// series are *cumulative* — the observatory diffs consecutive scrapes
/// into per-window deltas — so a dropped frame loses resolution, never
/// samples. Series bytes are opaque here: the frame hardens its own
/// framing (names, lengths, trailing bytes) and the observatory
/// hardens the histogram payloads on ingest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsFrame {
    /// The scraped host.
    pub host: u32,
    /// Virtual-clock timestamp at scrape time.
    pub at_ns: u64,
    /// `(series name, sparse histogram bytes)` pairs.
    pub series: Vec<(String, Vec<u8>)>,
    /// `(counter name, cumulative value)` pairs.
    pub counters: Vec<(String, u64)>,
}

impl MetricsFrame {
    /// Serialize for the fabric.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(TAG_METRICS);
        w.u32(self.host);
        put_u64(&mut w, self.at_ns);
        w.u32(self.series.len() as u32);
        for (name, bytes) in &self.series {
            w.sized_u32(name.as_bytes());
            w.sized_u32(bytes);
        }
        w.u32(self.counters.len() as u32);
        for (name, value) in &self.counters {
            w.sized_u32(name.as_bytes());
            put_u64(&mut w, *value);
        }
        w.into_vec()
    }

    /// Parse untrusted fabric bytes. `None` on anything malformed,
    /// including non-UTF-8 names and trailing bytes — same hardening
    /// as [`MigMessage::decode`].
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        if r.u8().ok()? != TAG_METRICS {
            return None;
        }
        let host = r.u32().ok()?;
        let at_ns = get_u64(&mut r)?;
        let n_series = r.u32().ok()? as usize;
        // Each series costs ≥ 8 framing bytes; a length claiming more
        // entries than the buffer could hold is rejected up front.
        if n_series > bytes.len() / 8 {
            return None;
        }
        let mut series = Vec::with_capacity(n_series);
        for _ in 0..n_series {
            let name = String::from_utf8(r.sized_u32().ok()?.to_vec()).ok()?;
            let payload = r.sized_u32().ok()?.to_vec();
            series.push((name, payload));
        }
        let n_counters = r.u32().ok()? as usize;
        if n_counters > bytes.len() / 8 {
            return None;
        }
        let mut counters = Vec::with_capacity(n_counters);
        for _ in 0..n_counters {
            let name = String::from_utf8(r.sized_u32().ok()?.to_vec()).ok()?;
            let value = get_u64(&mut r)?;
            counters.push((name, value));
        }
        if r.remaining() != 0 {
            return None;
        }
        Some(MetricsFrame { host, at_ns, series, counters })
    }
}

/// Bind (`vm`, `epoch`) inside the migration payload: the package's
/// integrity digest covers this header, so the pair cannot be swapped
/// without breaking verification — a replayed old ciphertext cannot be
/// dressed up as a newer epoch.
pub fn encode_payload(vm: u32, epoch: u64, state: &[u8]) -> Vec<u8> {
    let mut w = Writer::with_capacity(12 + state.len());
    w.u32(vm);
    put_epoch(&mut w, epoch);
    w.bytes(state);
    w.into_vec()
}

/// Split a payload back into its bound header and the vTPM state.
pub fn decode_payload(payload: &[u8]) -> Option<(u32, u64, Vec<u8>)> {
    let mut r = Reader::new(payload);
    let vm = r.u32().ok()?;
    let epoch = get_epoch(&mut r)?;
    let state = r.bytes(r.remaining()).ok()?.to_vec();
    Some((vm, epoch, state))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: u64 = (1 << 63) | (3 << 32) | 1;

    fn all_messages() -> Vec<MigMessage> {
        vec![
            MigMessage::Prepare { vm: 3, epoch: 1, trace: TRACE },
            MigMessage::PrepareAck {
                vm: 3,
                epoch: 1,
                trace: TRACE,
                ek_n: vec![0xAA; 128],
                ek_e: vec![1, 0, 1],
            },
            MigMessage::PrepareReject { vm: 3, epoch: 1, trace: TRACE },
            MigMessage::Transfer { vm: 3, epoch: u64::MAX - 1, trace: u64::MAX, package: vec![0x55; 300] },
            MigMessage::VerifyAck { vm: 3, epoch: 1, trace: TRACE, ok: true },
            MigMessage::VerifyAck { vm: 3, epoch: 1, trace: TRACE, ok: false },
            MigMessage::Commit { vm: 3, epoch: 1, trace: TRACE },
            MigMessage::CommitAck { vm: 3, epoch: 1, trace: TRACE },
            MigMessage::Abort { vm: 3, epoch: 1, trace: TRACE },
        ]
    }

    #[test]
    fn wire_roundtrip_every_variant() {
        for m in all_messages() {
            let bytes = m.encode();
            assert_eq!(MigMessage::decode(&bytes), Some(m.clone()));
            // The header trace id survives the wire on every variant.
            assert_eq!(MigMessage::decode(&bytes).unwrap().trace(), m.trace());
        }
    }

    #[test]
    fn trailing_and_truncated_bytes_rejected() {
        for m in all_messages() {
            let mut bytes = m.encode();
            bytes.push(0);
            assert_eq!(MigMessage::decode(&bytes), None, "trailing byte accepted");
            bytes.pop();
            for cut in 0..bytes.len() {
                assert!(
                    MigMessage::decode(&bytes[..cut]).is_none(),
                    "truncation to {cut} accepted"
                );
            }
        }
        assert_eq!(MigMessage::decode(&[]), None);
        assert_eq!(MigMessage::decode(&[99, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2]), None);
    }

    #[test]
    fn heartbeat_roundtrip_and_hardening() {
        let hb = HeartbeatFrame { host: 97, seq: u64::MAX - 3, at_ns: 1 << 50 };
        let bytes = hb.encode();
        assert_eq!(HeartbeatFrame::decode(&bytes), Some(hb));
        // Heartbeats and protocol messages live in disjoint tag spaces.
        assert_eq!(MigMessage::decode(&bytes), None);
        for m in all_messages() {
            assert_eq!(HeartbeatFrame::decode(&m.encode()), None);
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(HeartbeatFrame::decode(&trailing), None);
        for cut in 0..bytes.len() {
            assert_eq!(HeartbeatFrame::decode(&bytes[..cut]), None);
        }
    }

    #[test]
    fn metrics_frame_roundtrip_and_hardening() {
        let mf = MetricsFrame {
            host: 42,
            at_ns: 1 << 51,
            series: vec![
                ("total".into(), vec![0u8; 28]),
                ("stage_exec".into(), vec![7u8; 40]),
            ],
            counters: vec![("allowed".into(), u64::MAX - 9), ("denied".into(), 0)],
        };
        let bytes = mf.encode();
        assert_eq!(MetricsFrame::decode(&bytes), Some(mf.clone()));
        // Disjoint from both other control-plane tag spaces.
        assert_eq!(MigMessage::decode(&bytes), None);
        assert_eq!(HeartbeatFrame::decode(&bytes), None);
        assert_eq!(MetricsFrame::decode(&HeartbeatFrame { host: 1, seq: 2, at_ns: 3 }.encode()), None);
        for m in all_messages() {
            assert_eq!(MetricsFrame::decode(&m.encode()), None);
        }
        // Trailing and truncated bytes rejected at every length.
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(MetricsFrame::decode(&trailing), None);
        for cut in 0..bytes.len() {
            assert_eq!(MetricsFrame::decode(&bytes[..cut]), None, "cut {cut}");
        }
        // Non-UTF-8 series names rejected: corrupt the first name byte
        // ("total" starts right after its u32 length field).
        let name_at = 1 + 4 + 8 + 4 + 4;
        let mut bad = bytes.clone();
        bad[name_at] = 0xFF;
        assert_eq!(MetricsFrame::decode(&bad), None);
        // An absurd series count cannot allocate.
        let mut huge = MetricsFrame { host: 1, at_ns: 2, series: vec![], counters: vec![] }.encode();
        huge[13..17].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(MetricsFrame::decode(&huge), None);
    }

    #[test]
    fn payload_binds_vm_and_epoch() {
        let p = encode_payload(9, 1 << 40, b"state bytes");
        let (vm, epoch, state) = decode_payload(&p).unwrap();
        assert_eq!((vm, epoch), (9, 1 << 40));
        assert_eq!(state, b"state bytes");
        // Header is part of the bytes the package digest will cover.
        let p2 = encode_payload(9, (1 << 40) + 1, b"state bytes");
        assert_ne!(p, p2);
    }
}
