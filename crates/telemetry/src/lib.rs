//! # vtpm-telemetry
//!
//! Tracing, metrics, and audit-correlated observability for the vTPM
//! stack. Deliberately dependency-free (std only) so it can sit below
//! every other crate in the workspace.
//!
//! The crate provides four pieces, mirroring the request path:
//!
//! * **Spans** — a [`Span`] is minted at ring ingress with a fresh
//!   [`RequestId`] and carried through
//!   `transport → hook → Tpm::execute → mirror commit`, stamping each
//!   stage boundary with a caller-supplied monotonic timestamp. The
//!   clock is *injected* (plain `u64` nanoseconds), so instrumented
//!   code can feed the xen-sim virtual clock and stay byte-
//!   deterministic under the chaos harness.
//! * **Event pipeline** — finished spans are pushed into one bounded,
//!   preallocated [`SpanRing`], with an *exact*
//!   [`Telemetry::dropped_events`] counter on overflow.
//! * **Metrics registry** — one [`Registry`] type: a fixed array of
//!   atomic counters plus a fixed array of log-linear [`Histogram`]s
//!   (p50/p90/p99/p99.9), laid out by a static [`Schema`] and addressed
//!   by typed [`Counter`]/[`Series`] constants. The request path, the
//!   migration driver, the attestation plane and the fleet controller
//!   each own one and keep only typed accessors over it.
//! * **Exporters** — a coherent JSON snapshot ([`MetricsSnapshot`],
//!   single consistent read) and a Chrome trace-event dump
//!   ([`chrome_trace`]) loadable in `chrome://tracing` / Perfetto.
//!
//! The hot path costs a handful of relaxed atomic ops plus one
//! uncontended lock per finished span, and never allocates; everything
//! heavier (drain, snapshot, export) happens on the observer's thread.

mod attest;
mod deny_rate;
mod export;
mod fleet;
mod histogram;
mod migration;
mod registry;
mod ring;
mod rollup;

pub use attest::AttestTelemetry;
pub use deny_rate::DenyRate;
pub use export::{chrome_trace, cluster_chrome_trace, hist_json, prom_summary};
pub use fleet::{FleetTelemetry, FLEET_STAGE_LABELS};
pub use histogram::{Histogram, HistogramSnapshot};
pub use migration::{
    migration_trace_id, MigrationOutcome, MigrationSpanRecord, MigrationTelemetry,
    MIGRATION_STAGE_LABELS,
};
pub use registry::{Counter, Registry, RegistrySnapshot, Schema, Series};
pub use ring::{SpanRing, DEFAULT_SPAN_CAPACITY};
pub use rollup::{RollupSeries, DEFAULT_ROLLUP_TIERS};

use std::sync::atomic::Ordering;

/// Identifies one request end-to-end: minted at ring ingress,
/// propagated through the hook into the audit log, so hash-chained
/// audit entries are joinable against span records. Ids start at 1;
/// 0 means "no request" (e.g. administrative audit entries).
pub type RequestId = u64;

/// Cluster-wide causal trace id. For host-local requests the trace *is*
/// the request ([`RequestId`] doubles as the trace id); for live
/// migrations a dedicated id is minted by [`migration_trace_id`] at the
/// source and carried inside every wire frame of the attempt, so the
/// spans and audit records it touches on source, destination, and
/// fabric stitch into one causal trace. Migration trace ids live in a
/// disjoint high band (bit 63 set) and can never collide with the
/// small sequential request ids.
pub type TraceId = u64;

/// Terminal state of a request, mirroring the transport's
/// `ResponseStatus`. `Denied` carries the deny-reason code assigned by
/// the access-control layer (see [`DENY_LABELS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Executed by the TPM and mirrored.
    Ok,
    /// Rejected by the access-control hook; payload is the
    /// `DenyReason` code.
    Denied(u8),
    /// Authorized, but the target instance does not exist (or was
    /// destroyed mid-flight).
    NoInstance,
    /// The envelope failed to decode.
    Malformed,
}

impl Outcome {
    /// Stable lowercase label for exports.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Denied(_) => "denied",
            Outcome::NoInstance => "no-instance",
            Outcome::Malformed => "malformed",
        }
    }
}

/// Deny-reason labels indexed by the code the access-control layer
/// attaches to [`Outcome::Denied`]. Codes 0–6 match
/// `vtpm::hook::DenyReason::code()`; code 7 ([`DENY_REJECTED_STALE`])
/// is reserved for migration-protocol stale/replay refusals recorded
/// via [`Telemetry::note_protocol_deny`]; code 8 ([`DENY_ADMISSION`])
/// for refusals by per-domain admission control at ring ingress;
/// codes 9 ([`DENY_STALE_QUOTE`]) and 10 ([`DENY_QUOTE_REPLAY`]) for
/// the attestation verifier plane's freshness-window and replay-ledger
/// refusals (also `DenyReason::StaleQuote` / `DenyReason::QuoteReplay`);
/// unknown codes map to the final `"other"` slot. Kept here as a table
/// (rather than importing the enum) because `vtpm` depends on this
/// crate, not the reverse.
pub const DENY_LABELS: [&str; 12] = [
    "no-credential",
    "bad-tag",
    "replay",
    "binding-mismatch",
    "ordinal-denied",
    "source-mismatch",
    "locality-denied",
    "rejected-stale",
    "admission",
    "stale-quote",
    "quote-replay",
    "other",
];

/// Deny-reason code for a migration-protocol stale/replayed-epoch
/// refusal (`RejectedStale`). Sits just above the access-control
/// `DenyReason` band (0–6) in [`DENY_LABELS`].
pub const DENY_REJECTED_STALE: u8 = 7;

/// Deny-reason code for a request refused at ring ingress by the
/// manager's per-domain admission control (throttled source domain).
pub const DENY_ADMISSION: u8 = 8;

/// Deny-reason code for a deep quote refused by the verifier plane's
/// freshness-window policy (issued in a nonce-window older than the
/// configured lag).
pub const DENY_STALE_QUOTE: u8 = 9;

/// Deny-reason code for a deep quote re-presented by the same verifier
/// after already being consumed (verifier-plane replay ledger hit).
pub const DENY_QUOTE_REPLAY: u8 = 10;

/// Fixed-size record of one request's journey. All timestamps are
/// caller-supplied monotonic nanoseconds (virtual or wall clock); a
/// stage that never ran keeps the previous stage's stamp so its
/// duration reads as zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// End-to-end request id (also stored in the audit log).
    pub request_id: RequestId,
    /// Source guest domain.
    pub domain: u32,
    /// TPM command ordinal (0 if the envelope never decoded).
    pub ordinal: u32,
    /// Ring ingress / start of handling.
    pub ingress_ns: u64,
    /// Transport decode + signature verification done.
    pub decode_ns: u64,
    /// Access-control decision done.
    pub ac_ns: u64,
    /// `Tpm::execute` returned.
    pub exec_ns: u64,
    /// Mirror commit done.
    pub mirror_ns: u64,
    /// Response encoded; span closed.
    pub end_ns: u64,
    /// Bytes the mirror wrote for this command (data + meta pages).
    pub mirror_bytes: u64,
    /// Terminal state.
    pub outcome: Outcome,
}

impl Default for SpanRecord {
    fn default() -> Self {
        SpanRecord {
            request_id: 0,
            domain: 0,
            ordinal: 0,
            ingress_ns: 0,
            decode_ns: 0,
            ac_ns: 0,
            exec_ns: 0,
            mirror_ns: 0,
            end_ns: 0,
            mirror_bytes: 0,
            outcome: Outcome::Malformed,
        }
    }
}

impl SpanRecord {
    /// Duration of the transport (decode/verify) stage.
    pub fn ingress_stage_ns(&self) -> u64 {
        self.decode_ns.saturating_sub(self.ingress_ns)
    }
    /// Duration of the access-control hook stage.
    pub fn ac_stage_ns(&self) -> u64 {
        self.ac_ns.saturating_sub(self.decode_ns)
    }
    /// Duration of the TPM execute stage.
    pub fn exec_stage_ns(&self) -> u64 {
        self.exec_ns.saturating_sub(self.ac_ns)
    }
    /// Duration of the mirror-commit stage.
    pub fn mirror_stage_ns(&self) -> u64 {
        self.mirror_ns.saturating_sub(self.exec_ns)
    }
    /// End-to-end duration.
    pub fn total_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.ingress_ns)
    }
}

/// A live span: a [`SpanRecord`] under construction, handed out by
/// [`Telemetry::begin`] and consumed by [`Telemetry::finish`]. Plain
/// data on the caller's stack — no allocation, no registry borrow, so
/// holding one across `await`-free hot code costs nothing.
#[derive(Debug)]
pub struct Span {
    record: SpanRecord,
}

impl Span {
    /// The request id minted for this span.
    pub fn request_id(&self) -> RequestId {
        self.record.request_id
    }
    /// Attach the source domain once known.
    pub fn set_domain(&mut self, domain: u32) {
        self.record.domain = domain;
    }
    /// Attach the command ordinal once decoded.
    pub fn set_ordinal(&mut self, ordinal: u32) {
        self.record.ordinal = ordinal;
    }
    /// Bytes the mirror wrote for this command.
    pub fn set_mirror_bytes(&mut self, bytes: u64) {
        self.record.mirror_bytes = bytes;
    }
    /// Stamp the end of transport decode/verify.
    pub fn stamp_decode(&mut self, now_ns: u64) {
        self.record.decode_ns = now_ns;
    }
    /// Stamp the end of the access-control decision.
    pub fn stamp_ac(&mut self, now_ns: u64) {
        self.record.ac_ns = now_ns;
    }
    /// Stamp the end of TPM execution.
    pub fn stamp_exec(&mut self, now_ns: u64) {
        self.record.exec_ns = now_ns;
    }
    /// Stamp the end of the mirror commit.
    pub fn stamp_mirror(&mut self, now_ns: u64) {
        self.record.mirror_ns = now_ns;
    }
    /// Set the terminal outcome.
    pub fn set_outcome(&mut self, outcome: Outcome) {
        self.record.outcome = outcome;
    }
    /// Read access for instrumented code that wants to inspect stamps.
    pub fn record(&self) -> &SpanRecord {
        &self.record
    }
}

static SCHEMA: Schema<22, 6> = {
    type T = Telemetry;
    let d = T::DENY;
    Schema::new(
        [
            T::BEGUN, T::FINISHED, T::ALLOWED, T::DENIED, T::NO_INSTANCE, T::MALFORMED,
            T::RING_EXCHANGES, T::RING_RX_BYTES, T::RING_TX_BYTES, T::DROPPED_EVENTS,
            d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7], d[8], d[9], d[10], d[11],
        ],
        [T::STAGE_INGRESS, T::STAGE_AC, T::STAGE_EXEC, T::STAGE_MIRROR, T::TOTAL, T::MIRROR_BYTES],
    )
};

/// The request-path telemetry: request-id minting, outcome and deny
/// counters, stage histograms, and the buffered span ring, on one
/// [`Registry`]. One per `VtpmManager`; cheap to share behind an `Arc`.
///
/// The outcome counters always count. Spans — the stage histograms,
/// the end-to-end and mirror-bytes series, and the span ring — are
/// optional ([`Telemetry::counters_only`] turns them off).
pub struct Telemetry {
    registry: Registry<22, 6>,
    spans: Option<SpanRing>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// Requests begun; also the last minted [`RequestId`].
    pub const BEGUN: Counter = Counter::new(0, "begun");
    /// Requests finished — the coherence epoch, bumped last with
    /// `Release`.
    pub const FINISHED: Counter = Counter::new(1, "finished");
    /// Requests the hook allowed (includes `no_instance`).
    pub const ALLOWED: Counter = Counter::new(2, "allowed");
    /// Requests denied, admission refusals included.
    pub const DENIED: Counter = Counter::new(3, "denied");
    /// Allowed requests whose instance was missing/destroyed.
    pub const NO_INSTANCE: Counter = Counter::new(4, "no_instance");
    /// Envelopes that failed to decode.
    pub const MALFORMED: Counter = Counter::new(5, "malformed");
    /// Ring request/response exchanges seen at the device backend.
    pub const RING_EXCHANGES: Counter = Counter::new(6, "ring_exchanges");
    /// Request payload bytes received on rings.
    pub const RING_RX_BYTES: Counter = Counter::new(7, "ring_rx_bytes");
    /// Response payload bytes written to rings.
    pub const RING_TX_BYTES: Counter = Counter::new(8, "ring_tx_bytes");
    /// Exact span-ring overflow drops.
    pub const DROPPED_EVENTS: Counter = Counter::new(9, "dropped_events");
    /// Per-reason deny counters, indexed by deny code per
    /// [`DENY_LABELS`] and scraped as `deny:<label>`.
    pub const DENY: [Counter; DENY_LABELS.len()] = [
        Counter::new(10, "deny:no-credential"),
        Counter::new(11, "deny:bad-tag"),
        Counter::new(12, "deny:replay"),
        Counter::new(13, "deny:binding-mismatch"),
        Counter::new(14, "deny:ordinal-denied"),
        Counter::new(15, "deny:source-mismatch"),
        Counter::new(16, "deny:locality-denied"),
        Counter::new(17, "deny:rejected-stale"),
        Counter::new(18, "deny:admission"),
        Counter::new(19, "deny:stale-quote"),
        Counter::new(20, "deny:quote-replay"),
        Counter::new(21, "deny:other"),
    ];
    /// Transport decode/verify stage latency.
    pub const STAGE_INGRESS: Series = Series::new(0, "stage_ingress");
    /// Access-control hook stage latency.
    pub const STAGE_AC: Series = Series::new(1, "stage_ac");
    /// TPM execute stage latency.
    pub const STAGE_EXEC: Series = Series::new(2, "stage_exec");
    /// Mirror commit stage latency.
    pub const STAGE_MIRROR: Series = Series::new(3, "stage_mirror");
    /// End-to-end request latency.
    pub const TOTAL: Series = Series::new(4, "total");
    /// Mirror bytes written per executed command.
    pub const MIRROR_BYTES: Series = Series::new(5, "mirror_bytes");

    /// Registry with the default span-ring capacity
    /// ([`DEFAULT_SPAN_CAPACITY`] slots).
    pub fn new() -> Self {
        Self::with_span_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// Registry with `capacity` span slots in total. Small capacities
    /// are how tests provoke exact, countable overflow.
    pub fn with_span_capacity(capacity: usize) -> Self {
        Telemetry {
            registry: Registry::new(&SCHEMA),
            spans: Some(SpanRing::with_capacity(capacity)),
        }
    }

    /// Registry that counts outcomes but records no spans: no stage
    /// histograms, no span ring.
    pub fn counters_only() -> Self {
        Telemetry { registry: Registry::new(&SCHEMA), spans: None }
    }

    /// The deny counter for reason `code`; unknown codes map to the
    /// final `"other"` slot.
    #[inline]
    pub fn deny_counter(code: u8) -> Counter {
        Self::DENY[(code as usize).min(DENY_LABELS.len() - 1)]
    }

    /// Mint a request id and open a span at ring ingress. One relaxed
    /// atomic increment (`begun` doubles as the id counter); no
    /// allocation.
    #[inline]
    pub fn begin(&self, now_ns: u64) -> Span {
        let id = self.registry.atomic(Self::BEGUN).fetch_add(1, Ordering::Relaxed) + 1;
        let mut record = SpanRecord::default();
        record.request_id = id;
        record.ingress_ns = now_ns;
        // Unstamped stages read as zero-duration, not as [0, now].
        record.decode_ns = now_ns;
        record.ac_ns = now_ns;
        record.exec_ns = now_ns;
        record.mirror_ns = now_ns;
        Span { record }
    }

    /// Close a span: stamp the end, bump the outcome counters (derived
    /// from the outcome, so conservation holds exactly), fold the
    /// record into the histograms and buffer it in the span ring when
    /// spans are on, and bump `finished` last.
    ///
    /// Ordering contract, relied on by coherent readers: the outcome
    /// counter (`allowed`/`denied`/`malformed`) is bumped first, its
    /// sub-counter (`no_instance`, the deny reason) next with
    /// `Release`, and `finished` last with `Release`.
    pub fn finish(&self, mut span: Span, end_ns: u64) {
        span.record.end_ns = end_ns;
        let reg = &self.registry;
        let r = &span.record;
        match r.outcome {
            Outcome::Ok => reg.add(Self::ALLOWED, 1),
            Outcome::NoInstance => {
                // The hook allowed it; the stack just had nowhere to
                // send it. Counts as allowed for conservation.
                reg.add(Self::ALLOWED, 1);
                reg.atomic(Self::NO_INSTANCE).fetch_add(1, Ordering::Release);
            }
            Outcome::Denied(code) => {
                reg.add(Self::DENIED, 1);
                reg.atomic(Self::deny_counter(code)).fetch_add(1, Ordering::Release);
            }
            Outcome::Malformed => reg.add(Self::MALFORMED, 1),
        }
        if let Some(ring) = &self.spans {
            if r.outcome != Outcome::Malformed {
                reg.record(Self::STAGE_INGRESS, r.ingress_stage_ns());
                reg.record(Self::STAGE_AC, r.ac_stage_ns());
            }
            if r.outcome == Outcome::Ok {
                reg.record(Self::STAGE_EXEC, r.exec_stage_ns());
                reg.record(Self::STAGE_MIRROR, r.mirror_stage_ns());
                reg.record(Self::MIRROR_BYTES, r.mirror_bytes);
            }
            reg.record(Self::TOTAL, r.total_ns());
            if !ring.push(span.record) {
                reg.add(Self::DROPPED_EVENTS, 1);
            }
        }
        // `finished` is bumped last so a snapshot observing
        // begun == finished has also observed every histogram update.
        reg.atomic(Self::FINISHED).fetch_add(1, Ordering::Release);
    }

    /// Record a denial that happened *outside* the per-request span
    /// path — e.g. a migration-protocol stale/replayed-epoch refusal
    /// ([`DENY_REJECTED_STALE`]). Only the per-reason counter moves:
    /// no span finished, so the request-conservation invariant
    /// (`allowed + denied + malformed == finished`) is untouched and
    /// `denied` keeps counting guest requests exactly. Never called
    /// with [`DENY_ADMISSION`], which counts guest requests only.
    #[inline]
    pub fn note_protocol_deny(&self, code: u8) {
        debug_assert_ne!(code, DENY_ADMISSION, "admission refusals are request outcomes");
        self.registry.add(Self::deny_counter(code), 1);
    }

    /// Record one ring exchange (request/response pair) at the device
    /// backend, with payload byte counts in each direction.
    #[inline]
    pub fn note_ring_exchange(&self, rx_bytes: u64, tx_bytes: u64) {
        self.registry.add(Self::RING_EXCHANGES, 1);
        self.registry.add(Self::RING_RX_BYTES, rx_bytes);
        self.registry.add(Self::RING_TX_BYTES, tx_bytes);
    }

    /// The underlying registry (typed reads, coherence protocols).
    pub fn registry(&self) -> &Registry<22, 6> {
        &self.registry
    }

    /// Exact number of span records dropped on ring overflow.
    pub fn dropped_events(&self) -> u64 {
        self.registry.get(Self::DROPPED_EVENTS)
    }

    /// Drain all buffered spans (oldest-first), e.g. for a Chrome trace
    /// dump. Spans drained once are gone; the ring keeps only what has
    /// not been drained and has not overflowed. Empty when spans are
    /// off.
    pub fn drain_spans(&self) -> Vec<SpanRecord> {
        self.spans.as_ref().map_or_else(Vec::new, SpanRing::drain)
    }

    /// Take a coherent snapshot of every counter and histogram.
    ///
    /// Coherence protocol: read `(begun, finished)` before and after
    /// collecting; if both pairs match, no span finished mid-snapshot
    /// and the numbers are mutually consistent. Retries a bounded
    /// number of times, then returns the last (best-effort) read —
    /// callers snapshotting at quiescence (tests, end-of-run reports)
    /// always get the exact fixed point on the first try.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.snapshot_with_aux(&[])
    }

    /// [`Telemetry::snapshot`] plus caller-supplied auxiliary gauges
    /// (e.g. mirror scrub/replay counters owned by other subsystems)
    /// folded into the same coherent read and JSON export.
    pub fn snapshot_with_aux(&self, aux: &[(&'static str, u64)]) -> MetricsSnapshot {
        const MAX_RETRIES: usize = 16;
        let mut snap = MetricsSnapshot::new(self.registry.snapshot(), aux);
        for _ in 0..MAX_RETRIES {
            let begun = self.registry.atomic(Self::BEGUN).load(Ordering::Acquire);
            let finished = self.registry.atomic(Self::FINISHED).load(Ordering::Acquire);
            if begun == snap.begun && finished == snap.finished {
                break;
            }
            snap = MetricsSnapshot::new(self.registry.snapshot(), aux);
        }
        snap
    }

    /// Walk every histogram series in the registry under its stable
    /// scrape name. This is the observatory's wire contract: the scrape
    /// path encodes exactly these series (sparse, via
    /// [`Histogram::encode`]) and the fleet controller merges them
    /// cross-host under the same names.
    pub fn visit_histograms(&self, f: impl FnMut(&'static str, &Histogram)) {
        self.registry.visit_histograms(f);
    }

    /// Walk every counter under its stable scrape name (companion to
    /// [`Telemetry::visit_histograms`]). Per-reason deny counters
    /// scrape as `deny:<label>`, and only once nonzero: a host's scrape
    /// frame is charged to the fabric's virtual clock by size, so the
    /// frame carries no zero-valued reasons.
    pub fn visit_counters(&self, mut f: impl FnMut(&'static str, u64)) {
        self.registry.visit_counters(|name, v| {
            if v > 0 || !name.starts_with("deny:") {
                f(name, v);
            }
        });
    }
}

/// One coherent read of the whole registry. Produced by
/// [`Telemetry::snapshot`]; serialized by
/// [`MetricsSnapshot::to_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Spans opened.
    pub begun: u64,
    /// Spans closed.
    pub finished: u64,
    /// `begun - finished` at snapshot time.
    pub in_flight: u64,
    /// Requests the hook allowed (includes `no_instance`).
    pub allowed: u64,
    /// Requests the hook denied.
    pub denied: u64,
    /// Allowed requests whose instance was missing/destroyed.
    pub no_instance: u64,
    /// Envelopes that failed to decode.
    pub malformed: u64,
    /// Exact span-ring overflow drops.
    pub dropped_events: u64,
    /// Ring request/response exchanges seen at the device backend.
    pub ring_exchanges: u64,
    /// Request payload bytes received on rings.
    pub ring_rx_bytes: u64,
    /// Response payload bytes written to rings.
    pub ring_tx_bytes: u64,
    /// Per-reason deny counts, labelled per [`DENY_LABELS`].
    pub deny_reasons: Vec<(&'static str, u64)>,
    /// Transport decode/verify stage latency.
    pub stage_ingress: HistogramSnapshot,
    /// Access-control hook stage latency.
    pub stage_ac: HistogramSnapshot,
    /// TPM execute stage latency.
    pub stage_exec: HistogramSnapshot,
    /// Mirror commit stage latency.
    pub stage_mirror: HistogramSnapshot,
    /// End-to-end request latency.
    pub total: HistogramSnapshot,
    /// Mirror bytes written per executed command.
    pub mirror_bytes: HistogramSnapshot,
    /// Caller-supplied gauges from other subsystems (mirror scrubs,
    /// replay hits, …).
    pub aux: Vec<(&'static str, u64)>,
}

impl MetricsSnapshot {
    /// The operator view of one request-registry read.
    fn new(s: RegistrySnapshot, aux: &[(&'static str, u64)]) -> Self {
        type T = Telemetry;
        MetricsSnapshot {
            begun: s[T::BEGUN],
            finished: s[T::FINISHED],
            in_flight: s[T::BEGUN].saturating_sub(s[T::FINISHED]),
            allowed: s[T::ALLOWED],
            denied: s[T::DENIED],
            no_instance: s[T::NO_INSTANCE],
            malformed: s[T::MALFORMED],
            dropped_events: s[T::DROPPED_EVENTS],
            ring_exchanges: s[T::RING_EXCHANGES],
            ring_rx_bytes: s[T::RING_RX_BYTES],
            ring_tx_bytes: s[T::RING_TX_BYTES],
            deny_reasons: DENY_LABELS.iter().zip(T::DENY).map(|(&l, c)| (l, s[c])).collect(),
            stage_ingress: s[T::STAGE_INGRESS],
            stage_ac: s[T::STAGE_AC],
            stage_exec: s[T::STAGE_EXEC],
            stage_mirror: s[T::STAGE_MIRROR],
            total: s[T::TOTAL],
            mirror_bytes: s[T::MIRROR_BYTES],
            aux: aux.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_one(t: &Telemetry, outcome: Outcome, base: u64) {
        let mut s = t.begin(base);
        s.set_domain(3);
        s.stamp_decode(base + 10);
        match outcome {
            Outcome::Malformed => {}
            _ => {
                s.stamp_ac(base + 30);
                if outcome == Outcome::Ok {
                    s.set_ordinal(0x17);
                    s.stamp_exec(base + 130);
                    s.stamp_mirror(base + 150);
                    s.set_mirror_bytes(4096);
                }
            }
        }
        s.set_outcome(outcome);
        t.finish(s, base + 160);
    }

    #[test]
    fn outcomes_drive_conservation_counters() {
        let t = Telemetry::new();
        for i in 0..10 {
            run_one(&t, Outcome::Ok, i * 1000);
        }
        for i in 0..4 {
            run_one(&t, Outcome::Denied(2), 100_000 + i * 1000);
        }
        run_one(&t, Outcome::Denied(99), 200_000); // unknown code → "other"
        for i in 0..3 {
            run_one(&t, Outcome::NoInstance, 300_000 + i * 1000);
        }
        run_one(&t, Outcome::Malformed, 400_000);
        let s = t.snapshot();
        assert_eq!(s.begun, 19);
        assert_eq!(s.finished, 19);
        assert_eq!(s.in_flight, 0);
        assert_eq!(s.allowed, 13); // 10 ok + 3 no-instance
        assert_eq!(s.denied, 5);
        assert_eq!(s.no_instance, 3);
        assert_eq!(s.malformed, 1);
        assert_eq!(s.allowed + s.denied + s.malformed, s.finished);
        // Per-reason split: code 2 = "replay", unknown → "other".
        assert_eq!(s.deny_reasons[2], ("replay", 4));
        assert_eq!(s.deny_reasons[DENY_LABELS.len() - 1], ("other", 1));
        // Histogram population rules.
        assert_eq!(s.total.count, 19);
        assert_eq!(s.stage_ingress.count, 18); // all but malformed
        assert_eq!(s.stage_ac.count, 18);
        assert_eq!(s.stage_exec.count, 10); // executed only
        assert_eq!(s.stage_mirror.count, 10);
        assert_eq!(s.mirror_bytes.count, 10);
        assert_eq!(s.mirror_bytes.max, 4096);
    }

    #[test]
    fn stage_durations_come_from_stamps() {
        let t = Telemetry::new();
        run_one(&t, Outcome::Ok, 1_000);
        let s = t.snapshot();
        assert_eq!(s.stage_ingress.max, 10);
        assert_eq!(s.stage_ac.max, 20);
        assert_eq!(s.stage_exec.max, 100);
        assert_eq!(s.stage_mirror.max, 20);
        assert_eq!(s.total.max, 160);
        let spans = t.drain_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].request_id, 1);
        assert_eq!(spans[0].total_ns(), 160);
    }

    #[test]
    fn request_ids_are_unique_and_monotonic() {
        let t = Telemetry::new();
        let a = t.begin(0);
        let b = t.begin(0);
        assert_eq!(a.request_id(), 1);
        assert_eq!(b.request_id(), 2);
        t.finish(a, 1);
        t.finish(b, 1);
        assert_eq!(t.snapshot().in_flight, 0);
    }

    #[test]
    fn unstamped_stages_read_zero() {
        let t = Telemetry::new();
        let mut s = t.begin(500);
        s.set_outcome(Outcome::Malformed);
        t.finish(s, 510);
        let snap = t.snapshot();
        assert_eq!(snap.total.max, 10);
        let spans = t.drain_spans();
        assert_eq!(spans[0].ingress_stage_ns(), 0);
        assert_eq!(spans[0].ac_stage_ns(), 0);
        assert_eq!(spans[0].exec_stage_ns(), 0);
        assert_eq!(spans[0].mirror_stage_ns(), 0);
    }

    #[test]
    fn dropped_events_exact_under_overflow() {
        let t = Telemetry::with_span_capacity(4);
        // 4 slots for 500 spans: the ring overflows, and the accounting
        // must stay exact, kept + dropped == finished.
        for i in 0..500 {
            run_one(&t, Outcome::Ok, i * 10);
        }
        let s = t.snapshot();
        assert_eq!(s.finished, 500);
        let kept = t.drain_spans().len() as u64;
        assert_eq!(kept + s.dropped_events, 500);
        assert!(s.dropped_events > 0, "tiny ring must overflow");
        // Counters and histograms are unaffected by span drops.
        assert_eq!(s.allowed, 500);
        assert_eq!(s.stage_exec.count, 500);
    }

    #[test]
    fn snapshot_is_coherent_under_concurrency() {
        use std::sync::Arc;
        let t = Arc::new(Telemetry::new());
        let workers: Vec<_> = (0..4)
            .map(|w| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        run_one(&t, if i % 7 == 0 { Outcome::Denied(1) } else { Outcome::Ok }, w * 1_000_000 + i);
                    }
                })
            })
            .collect();
        // Snapshots taken mid-run must always satisfy the outcome sum
        // (each counter bumped before `finished`).
        for _ in 0..50 {
            let s = t.snapshot();
            assert!(s.allowed + s.denied + s.malformed >= s.finished);
            assert!(s.begun >= s.finished);
        }
        for w in workers {
            w.join().unwrap();
        }
        let s = t.snapshot();
        assert_eq!(s.begun, 20_000);
        assert_eq!(s.finished, 20_000);
        assert_eq!(s.allowed + s.denied, 20_000);
        assert_eq!(s.total.count, 20_000);
    }

    #[test]
    fn protocol_denies_count_without_breaking_conservation() {
        let t = Telemetry::new();
        run_one(&t, Outcome::Ok, 0);
        t.note_protocol_deny(DENY_REJECTED_STALE);
        t.note_protocol_deny(DENY_REJECTED_STALE);
        t.note_protocol_deny(DENY_STALE_QUOTE);
        t.note_protocol_deny(DENY_QUOTE_REPLAY);
        let s = t.snapshot();
        assert_eq!(s.deny_reasons[DENY_REJECTED_STALE as usize], ("rejected-stale", 2));
        assert_eq!(s.deny_reasons[DENY_STALE_QUOTE as usize], ("stale-quote", 1));
        assert_eq!(s.deny_reasons[DENY_QUOTE_REPLAY as usize], ("quote-replay", 1));
        // No span finished for the protocol refusals: request-level
        // conservation still holds exactly.
        assert_eq!(s.allowed + s.denied + s.malformed, s.finished);
        assert_eq!(s.denied, 0);
    }

    #[test]
    fn snapshot_with_aux_carries_gauges() {
        let t = Telemetry::new();
        let s = t.snapshot_with_aux(&[("mirror_scrub_failures", 3), ("replay_hits", 9)]);
        assert_eq!(s.aux, vec![("mirror_scrub_failures", 3), ("replay_hits", 9)]);
    }

    #[test]
    fn counters_only_keeps_outcomes_and_drops_spans() {
        let t = Telemetry::counters_only();
        run_one(&t, Outcome::Ok, 0);
        run_one(&t, Outcome::Denied(DENY_ADMISSION), 1_000);
        run_one(&t, Outcome::Malformed, 2_000);
        let s = t.snapshot();
        assert_eq!((s.begun, s.finished, s.allowed, s.denied, s.malformed), (3, 3, 1, 1, 1));
        assert_eq!(s.deny_reasons[DENY_ADMISSION as usize], ("admission", 1));
        assert_eq!((s.total.count, s.stage_ingress.count, s.dropped_events), (0, 0, 0));
        assert!(t.drain_spans().is_empty());
    }

    #[test]
    fn deny_counters_scrape_as_deny_labels() {
        for (c, label) in Telemetry::DENY.iter().zip(DENY_LABELS) {
            assert_eq!(c.name(), format!("deny:{label}"));
        }
        assert_eq!(Telemetry::deny_counter(200), Telemetry::DENY[DENY_LABELS.len() - 1]);
    }
}
