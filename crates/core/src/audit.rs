//! AC4: the tamper-evident audit log.
//!
//! Every access decision is appended as an entry hash-chained to its
//! predecessor (`h_i = SHA256(h_{i-1} || entry_i)`), so truncation or
//! in-place modification is detectable by re-walking the chain. In a full
//! deployment the head hash would be periodically extended into a vTPM
//! PCR; here the chain itself plus [`AuditLog::verify`] covers the
//! mechanism.
//!
//! The log keeps every entry from index 0, so it grows with every
//! command, and it is stored small. Per entry it holds only the fields
//! the chain hashes: the timestamp and the request id as zigzag deltas
//! from the previous entry, then domain, instance and ordinal, each as
//! an LEB128 varint, then the one-byte outcome code. The index and the
//! 32-byte link are not stored. Each run of 256 entries closes with a
//! checkpoint: the byte offset, the delta base and the chain hash at
//! that point. The log also keeps the head and a denial count. A
//! request-path entry (one small domain and instance, a small ordinal,
//! ids counting up, a few µs of virtual time apart) takes 7–9 bytes
//! where an [`AuditEntry`] takes 72 (8.2–8.6 on average on the
//! end-to-end benchmark's workloads); migration and verifier records
//! (`request_id` 0, wider time steps) take 10–13.
//!
//! [`AuditLog::entries`] decodes the bytes and recomputes every link
//! with the same hash, but emits the *stored* hash at each checkpoint
//! and at the head. The export is therefore bit-identical to the
//! entries the log hashed when it recorded them. An edit to the stored
//! bytes that leaves the stored hashes alone makes a recomputed link
//! disagree with the stored hash after it, so [`AuditLog::verify`]
//! rejects the export, as it rejects an edited [`AuditEntry`]. Bytes
//! that do not decode at all give an entry at index `u64::MAX`, which
//! never verifies. [`AuditLog::entries_since`] starts decoding at the
//! checkpoint before the index asked for.

use parking_lot::Mutex;
use tpm_crypto::{sha256::Sha256, Digest};

use vtpm::DenyReason;

/// A live-migration protocol stage transition, recorded by the cluster
/// migration driver into the hash chain of every host it touches — so a
/// host that later denies having handed an instance off (or claims a
/// different epoch) contradicts its own tamper-evident log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationStage {
    /// Destination accepted a prepare for (vm, epoch).
    Prepared = 0,
    /// Source froze the instance (downtime window opens).
    Quiesced = 1,
    /// Source shipped the sealed package.
    Transferred = 2,
    /// Destination verified binding/integrity/epoch of the package.
    Verified = 3,
    /// Destination adopted the instance (downtime window closes).
    Committed = 4,
    /// Source released (scrubbed) its copy.
    Released = 5,
    /// Either side aborted; the source copy stays authoritative.
    Aborted = 6,
    /// Destination refused a stale or replayed epoch (anti-rollback).
    RejectedStale = 7,
}

/// The decision recorded for an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditOutcome {
    /// Request was dispatched.
    Allowed,
    /// Request was denied for the given reason.
    Denied(DenyReason),
    /// A live-migration stage transition (AC4 coverage of the handoff
    /// protocol; the entry's `instance` is the cluster-wide vm id and
    /// its `ordinal` carries the migration epoch).
    Migration(MigrationStage),
}

/// One audit record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditEntry {
    /// Position in the log (0-based).
    pub index: u64,
    /// Virtual timestamp (ns) when the decision was made.
    pub timestamp_ns: u64,
    /// Telemetry request id (`RequestContext::request_id`), covered by
    /// the chain hash, so audit entries join against telemetry spans.
    /// 0 for decisions made outside the instrumented request path.
    pub request_id: u64,
    /// Requesting domain (claimed).
    pub domain: u32,
    /// Target instance.
    pub instance: u32,
    /// TPM ordinal (0 when unparsable).
    pub ordinal: u32,
    /// The decision.
    pub outcome: AuditOutcome,
    /// Chain hash up to and including this entry.
    pub chain: [u8; 32],
}

/// Serialized chain material for one entry: three u64s, three u32s, and
/// the outcome code — 37 bytes, built on the stack.
fn entry_material(
    index: u64,
    timestamp_ns: u64,
    request_id: u64,
    domain: u32,
    instance: u32,
    ordinal: u32,
    outcome: &AuditOutcome,
) -> [u8; 37] {
    let mut buf = [0u8; 37];
    buf[0..8].copy_from_slice(&index.to_be_bytes());
    buf[8..16].copy_from_slice(&timestamp_ns.to_be_bytes());
    buf[16..24].copy_from_slice(&request_id.to_be_bytes());
    buf[24..28].copy_from_slice(&domain.to_be_bytes());
    buf[28..32].copy_from_slice(&instance.to_be_bytes());
    buf[32..36].copy_from_slice(&ordinal.to_be_bytes());
    let code: u8 = match outcome {
        AuditOutcome::Allowed => 0,
        AuditOutcome::Denied(r) => 1 + *r as u8,
        // Migration stages occupy a disjoint code band well above any
        // deny reason, so no stage can collide with (or be rewritten
        // into) an allow/deny record without breaking the chain.
        AuditOutcome::Migration(s) => 32 + *s as u8,
    };
    buf[36] = code;
    buf
}

/// One chain link: `SHA256(prev ‖ material)`, streamed through the
/// incremental context — no concatenation buffer, no allocation. The
/// digest is byte-identical to hashing the concatenation.
fn chain_hash(prev: &[u8; 32], material: &[u8; 37]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(prev);
    h.update(material);
    let mut out = [0u8; 32];
    h.finalize_into(&mut out);
    out
}

/// Entries per segment. Each full segment stores a [`Checkpoint`], so
/// [`AuditLog::entries_since`] decodes at most 255 entries it does not
/// return.
const SEGMENT: u64 = 256;

/// The decoder's state at the end of a full segment.
#[derive(Debug, Clone, Copy, Default)]
struct Checkpoint {
    /// Byte offset at which the next segment starts.
    offset: usize,
    /// Timestamp and request id of the segment's last entry: the delta
    /// base of the next entry.
    timestamp_ns: u64,
    request_id: u64,
    /// Chain hash of the segment's last entry.
    chain: [u8; 32],
}

/// The stored form of the log: per entry only the chain material,
/// delta- and varint-encoded, plus one checkpoint per full segment.
#[derive(Default)]
struct Store {
    bytes: Vec<u8>,
    checkpoints: Vec<Checkpoint>,
    len: u64,
    /// Timestamp and request id of the last entry (the delta base).
    last_timestamp_ns: u64,
    last_request_id: u64,
    head: [u8; 32],
    denials: usize,
}

/// LEB128: seven bits per byte, low group first, high bit = more.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Read one LEB128 value; `None` on a truncated run or one that
/// overflows 64 bits.
fn get_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let b = *bytes.get(*pos)?;
        *pos += 1;
        let group = u64::from(b & 0x7F);
        if shift == 63 && group > 1 {
            return None;
        }
        v |= group << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
    }
    None
}

/// Zigzag: a small difference of either sign becomes a small unsigned
/// value. `from` and `to` may be any u64s; the difference wraps.
fn zigzag_delta(from: u64, to: u64) -> u64 {
    let d = to.wrapping_sub(from);
    (d << 1) ^ ((d as i64 >> 63) as u64)
}

fn apply_zigzag_delta(from: u64, z: u64) -> u64 {
    from.wrapping_add((z >> 1) ^ 0u64.wrapping_sub(z & 1))
}

/// Inverse of the outcome code `entry_material` writes.
fn outcome_from_code(code: u8) -> Option<AuditOutcome> {
    use DenyReason::*;
    use MigrationStage::*;
    const DENY: [DenyReason; 9] = [
        NoCredential,
        BadTag,
        Replay,
        BindingMismatch,
        OrdinalDenied,
        SourceMismatch,
        LocalityDenied,
        StaleQuote,
        QuoteReplay,
    ];
    const STAGES: [MigrationStage; 8] =
        [Prepared, Quiesced, Transferred, Verified, Committed, Released, Aborted, RejectedStale];
    match code {
        0 => Some(AuditOutcome::Allowed),
        1..=31 => DENY.get(usize::from(code) - 1).map(|&r| AuditOutcome::Denied(r)),
        _ => STAGES.get(usize::from(code) - 32).map(|&s| AuditOutcome::Migration(s)),
    }
}

/// What an export emits where the stored bytes do not decode: no entry
/// at index `u64::MAX` can verify, so the export is rejected.
fn malformed() -> AuditEntry {
    AuditEntry {
        index: u64::MAX,
        timestamp_ns: 0,
        request_id: 0,
        domain: 0,
        instance: 0,
        ordinal: 0,
        outcome: AuditOutcome::Allowed,
        chain: [0; 32],
    }
}

impl Store {
    fn push(
        &mut self,
        timestamp_ns: u64,
        request_id: u64,
        domain: u32,
        instance: u32,
        ordinal: u32,
        outcome: AuditOutcome,
    ) -> [u8; 32] {
        let material =
            entry_material(self.len, timestamp_ns, request_id, domain, instance, ordinal, &outcome);
        self.head = chain_hash(&self.head, &material);
        put_varint(&mut self.bytes, zigzag_delta(self.last_timestamp_ns, timestamp_ns));
        put_varint(&mut self.bytes, zigzag_delta(self.last_request_id, request_id));
        put_varint(&mut self.bytes, domain.into());
        put_varint(&mut self.bytes, instance.into());
        put_varint(&mut self.bytes, ordinal.into());
        self.bytes.push(material[36]);
        self.last_timestamp_ns = timestamp_ns;
        self.last_request_id = request_id;
        self.len += 1;
        if matches!(outcome, AuditOutcome::Denied(_)) {
            self.denials += 1;
        }
        if self.len.is_multiple_of(SEGMENT) {
            self.checkpoints.push(Checkpoint {
                offset: self.bytes.len(),
                timestamp_ns,
                request_id,
                chain: self.head,
            });
        }
        self.head
    }

    /// Copy out what decoding entries `from..` needs: the segment that
    /// holds `from` and everything after it.
    fn tail(&self, from: u64) -> Tail {
        let segment = (from / SEGMENT) as usize;
        let base = match segment {
            0 => Checkpoint::default(),
            s => self.checkpoints[s - 1],
        };
        Tail {
            first: segment as u64 * SEGMENT,
            base,
            bytes: self.bytes[base.offset..].to_vec(),
            checkpoints: self.checkpoints[segment..].to_vec(),
            len: self.len,
            head: self.head,
        }
    }
}

/// A snapshot of the log from one segment start on, decoded off the lock.
struct Tail {
    /// Index of the entry at `bytes[0]`.
    first: u64,
    /// Checkpoint closing the segment before `first` (zero state at 0).
    base: Checkpoint,
    bytes: Vec<u8>,
    checkpoints: Vec<Checkpoint>,
    len: u64,
    head: [u8; 32],
}

impl Tail {
    /// Decode every entry and recompute its link, but emit the stored
    /// hash where a segment ends and at the head: an edited byte changes
    /// the material, and the recomputed link then fails `verify` against
    /// the stored hash that follows it. Entries before `from` are
    /// decoded, not emitted. A run that does not decode, or ends off its
    /// checkpoint's offset, emits [`malformed`] and stops.
    fn decode(&self, from: u64) -> Vec<AuditEntry> {
        let mut out = Vec::with_capacity(self.len.saturating_sub(from) as usize);
        let mut prev = self.base.chain;
        let (mut timestamp_ns, mut request_id) = (self.base.timestamp_ns, self.base.request_id);
        let mut pos = 0;
        let mut checkpoints = self.checkpoints.iter();
        for index in self.first..self.len {
            let Some(mut e) = self.read(index, &mut pos, timestamp_ns, request_id) else {
                out.push(malformed());
                return out;
            };
            timestamp_ns = e.timestamp_ns;
            request_id = e.request_id;
            e.chain = chain_hash(
                &prev,
                &entry_material(
                    index,
                    e.timestamp_ns,
                    e.request_id,
                    e.domain,
                    e.instance,
                    e.ordinal,
                    &e.outcome,
                ),
            );
            if (index + 1).is_multiple_of(SEGMENT) {
                match checkpoints.next() {
                    Some(c) if c.offset.checked_sub(self.base.offset) == Some(pos) => {
                        e.chain = c.chain;
                        timestamp_ns = c.timestamp_ns;
                        request_id = c.request_id;
                    }
                    _ => {
                        out.push(malformed());
                        return out;
                    }
                }
            }
            if index + 1 == self.len {
                if pos != self.bytes.len() {
                    out.push(malformed());
                    return out;
                }
                e.chain = self.head;
            }
            prev = e.chain;
            if index >= from {
                out.push(e);
            }
        }
        out
    }

    /// One entry's fields at `pos` (chain left zero), or `None` if the
    /// bytes there do not decode.
    fn read(
        &self,
        index: u64,
        pos: &mut usize,
        timestamp_ns: u64,
        request_id: u64,
    ) -> Option<AuditEntry> {
        let bytes = &self.bytes;
        let timestamp_ns = apply_zigzag_delta(timestamp_ns, get_varint(bytes, pos)?);
        let request_id = apply_zigzag_delta(request_id, get_varint(bytes, pos)?);
        let domain = u32::try_from(get_varint(bytes, pos)?).ok()?;
        let instance = u32::try_from(get_varint(bytes, pos)?).ok()?;
        let ordinal = u32::try_from(get_varint(bytes, pos)?).ok()?;
        let outcome = outcome_from_code(*bytes.get(*pos)?)?;
        *pos += 1;
        Some(AuditEntry {
            index,
            timestamp_ns,
            request_id,
            domain,
            instance,
            ordinal,
            outcome,
            chain: [0; 32],
        })
    }
}

/// The log.
#[derive(Default)]
pub struct AuditLog {
    store: Mutex<Store>,
}

impl AuditLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a decision; returns the new chain head. `request_id` is
    /// the telemetry id the manager minted for the request (0 outside
    /// the request path); it is covered by the chain hash.
    pub fn record(
        &self,
        timestamp_ns: u64,
        request_id: u64,
        domain: u32,
        instance: u32,
        ordinal: u32,
        outcome: AuditOutcome,
    ) -> [u8; 32] {
        self.store.lock().push(timestamp_ns, request_id, domain, instance, ordinal, outcome)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.store.lock().len as usize
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.store.lock().len == 0
    }

    /// Every entry, decoded (reporting, verification).
    pub fn entries(&self) -> Vec<AuditEntry> {
        self.entries_since(0)
    }

    /// The entries from index `from` on (none if `from >= len()`), so a
    /// reader that keeps a cursor decodes only what it has not seen.
    /// Equal to `entries()[from..]`.
    pub fn entries_since(&self, from: usize) -> Vec<AuditEntry> {
        let from = from as u64;
        let tail = {
            let store = self.store.lock();
            if from >= store.len {
                return Vec::new();
            }
            store.tail(from)
        };
        tail.decode(from)
    }

    /// Bytes the log holds: the encoded entries plus the checkpoints.
    pub fn stored_bytes(&self) -> usize {
        let store = self.store.lock();
        store.bytes.len() + store.checkpoints.len() * std::mem::size_of::<Checkpoint>()
    }

    /// Count of denied entries.
    pub fn denials(&self) -> usize {
        self.store.lock().denials
    }

    /// Current chain head (zero hash when empty).
    pub fn head(&self) -> [u8; 32] {
        self.store.lock().head
    }

    /// Re-walk the chain; true iff every link verifies. `verify` on a
    /// tampered copy (the attacker's edited log) returns false.
    pub fn verify(entries: &[AuditEntry]) -> bool {
        let mut prev = [0u8; 32];
        for (i, e) in entries.iter().enumerate() {
            if e.index != i as u64 {
                return false;
            }
            let material = entry_material(
                e.index,
                e.timestamp_ns,
                e.request_id,
                e.domain,
                e.instance,
                e.ordinal,
                &e.outcome,
            );
            if chain_hash(&prev, &material) != e.chain {
                return false;
            }
            prev = e.chain;
        }
        true
    }
}

#[cfg(test)]
impl AuditLog {
    /// XOR `mask` into one stored byte: an edit to the log in Dom0's
    /// heap that leaves the stored hashes alone.
    fn flip_stored_byte(&self, at: usize, mask: u8) {
        self.store.lock().bytes[at] ^= mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_with(n: usize) -> AuditLog {
        let log = AuditLog::new();
        for i in 0..n {
            let outcome = if i % 3 == 0 {
                AuditOutcome::Denied(DenyReason::BadTag)
            } else {
                AuditOutcome::Allowed
            };
            log.record(i as u64 * 1000, i as u64 + 1, 1, 1, 0x17, outcome);
        }
        log
    }

    #[test]
    fn chain_verifies_when_untouched() {
        let log = log_with(10);
        assert_eq!(log.len(), 10);
        assert!(AuditLog::verify(&log.entries()));
        assert_eq!(log.denials(), 4);
        assert_ne!(log.head(), [0; 32]);
    }

    #[test]
    fn empty_log_verifies() {
        let log = AuditLog::new();
        assert!(AuditLog::verify(&log.entries()));
        assert_eq!(log.head(), [0; 32]);
        assert!(log.is_empty());
    }

    #[test]
    fn in_place_edit_detected() {
        let log = log_with(5);
        let mut entries = log.entries();
        entries[2].domain = 99; // attacker rewrites who did it
        assert!(!AuditLog::verify(&entries));
    }

    #[test]
    fn request_id_edit_detected() {
        // The span join key is covered by the chain: an attacker cannot
        // re-point an audit entry at a different request's span.
        let log = log_with(5);
        let mut entries = log.entries();
        entries[2].request_id = 42;
        assert!(!AuditLog::verify(&entries));
    }

    #[test]
    fn outcome_flip_detected() {
        let log = log_with(5);
        let mut entries = log.entries();
        entries[3].outcome = AuditOutcome::Allowed;
        assert!(!AuditLog::verify(&entries));
    }

    #[test]
    fn truncation_from_middle_detected() {
        let log = log_with(5);
        let mut entries = log.entries();
        entries.remove(1);
        assert!(!AuditLog::verify(&entries));
        // Truncating the *tail* is only detectable against an externally
        // anchored head — verify() alone accepts a clean prefix:
        let prefix = &log.entries()[..3];
        assert!(AuditLog::verify(prefix));
        // ...which is why the head hash matters:
        assert_ne!(prefix.last().unwrap().chain, log.head());
    }

    #[test]
    fn migration_stage_entries_are_chained() {
        let log = AuditLog::new();
        for (i, stage) in [
            MigrationStage::Prepared,
            MigrationStage::Quiesced,
            MigrationStage::Transferred,
            MigrationStage::Verified,
            MigrationStage::Committed,
            MigrationStage::Released,
        ]
        .into_iter()
        .enumerate()
        {
            // instance = cluster vm id, ordinal = migration epoch.
            log.record(i as u64 * 500, 0, 2, 7, 3, AuditOutcome::Migration(stage));
        }
        assert!(AuditLog::verify(&log.entries()));
        assert_eq!(log.denials(), 0, "stage records are not denials");
        // Rewriting history — claiming the handoff aborted when the log
        // says it committed — breaks the chain.
        let mut entries = log.entries();
        entries[4].outcome = AuditOutcome::Migration(MigrationStage::Aborted);
        assert!(!AuditLog::verify(&entries));
        // So does moving the epoch (ordinal) of a recorded stage.
        let mut entries = log.entries();
        entries[0].ordinal = 2;
        assert!(!AuditLog::verify(&entries));
    }

    #[test]
    fn chain_hash_edit_detected() {
        let log = log_with(4);
        let mut entries = log.entries();
        entries[1].chain[0] ^= 1;
        assert!(!AuditLog::verify(&entries));
    }

    #[test]
    fn concurrent_appends_keep_chain_valid() {
        use std::sync::Arc;
        let log = Arc::new(AuditLog::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        log.record(i, 0, t, 1, 0x15, AuditOutcome::Allowed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.len(), 200);
        assert!(AuditLog::verify(&log.entries()));
    }

    /// A request-path record stream: one domain and instance, ids that
    /// count up, virtual time a few µs apart, a handful of ordinals.
    fn request_shaped(n: u64) -> AuditLog {
        let log = AuditLog::new();
        let mut t = 1_000_000u64;
        for i in 0..n {
            t += 1_500 + (i * 7_919) % 9_000;
            let ordinal = [0x14, 0x15, 0x17, 0x18, 0x0A, 0x16][(i % 6) as usize];
            log.record(t, i + 1, 1, 1, ordinal, AuditOutcome::Allowed);
        }
        log
    }

    #[test]
    fn outcome_codes_round_trip() {
        use DenyReason::*;
        let mut outcomes = vec![AuditOutcome::Allowed];
        for r in [
            NoCredential,
            BadTag,
            Replay,
            BindingMismatch,
            OrdinalDenied,
            SourceMismatch,
            LocalityDenied,
            StaleQuote,
            QuoteReplay,
        ] {
            outcomes.push(AuditOutcome::Denied(r));
        }
        for s in 0..8u8 {
            let stage = outcome_from_code(32 + s).expect("every stage code decodes");
            outcomes.push(stage);
        }
        for o in outcomes {
            let code = entry_material(0, 0, 0, 0, 0, 0, &o)[36];
            assert_eq!(outcome_from_code(code), Some(o));
        }
        assert_eq!(outcome_from_code(10), None);
        assert_eq!(outcome_from_code(40), None);
    }

    #[test]
    fn entries_since_is_a_suffix() {
        let log = request_shaped(600);
        let all = log.entries();
        assert_eq!(all.len(), 600);
        assert!(AuditLog::verify(&all));
        assert_eq!(all.last().unwrap().chain, log.head());
        for k in [0, 1, 255, 256, 257, 511, 512, 599, 600, 601] {
            assert_eq!(log.entries_since(k), all[k.min(600)..], "from {k}");
        }
    }

    #[test]
    fn stored_byte_flip_fails_verify() {
        // 300 request-shaped entries and three at the extremes: one full
        // segment closed by a checkpoint, and a partial one closed by
        // the head, with 10-byte and 5-byte varints among them. Every
        // bit of the stored varints and outcome codes, flipped alone,
        // breaks the export.
        let log = request_shaped(300);
        let stale = AuditOutcome::Migration(MigrationStage::RejectedStale);
        log.record(u64::MAX, 0, u32::MAX, u32::MAX, u32::MAX, stale);
        log.record(0, u64::MAX, 0, 7, 3, AuditOutcome::Denied(DenyReason::QuoteReplay));
        log.record(1 << 63, 1, 1, 1, 0x14, AuditOutcome::Allowed);
        assert!(AuditLog::verify(&log.entries()));
        let bytes = log.store.lock().bytes.len();
        for at in 0..bytes {
            for bit in 0..8 {
                log.flip_stored_byte(at, 1 << bit);
                assert!(!AuditLog::verify(&log.entries()), "byte {at} bit {bit}");
                log.flip_stored_byte(at, 1 << bit);
            }
        }
        assert!(AuditLog::verify(&log.entries()));
    }

    #[test]
    fn request_records_take_at_most_12_bytes() {
        let n = 100_000;
        let log = request_shaped(n);
        let per_entry = log.stored_bytes() as f64 / n as f64;
        assert!(per_entry <= 12.0, "{per_entry:.2} stored bytes per entry");
    }
}
