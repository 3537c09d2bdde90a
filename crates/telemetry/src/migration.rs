//! Migration observability: per-attempt spans and cluster-wide stage /
//! downtime histograms.
//!
//! The cluster migration driver runs a staged handoff (prepare →
//! quiesce → transfer → verify → commit → release); each attempt is
//! summarized into a [`MigrationSpanRecord`] with per-stage durations
//! stamped from the injected virtual clock, and folded into
//! [`MigrationTelemetry`]'s histograms. Guest-visible *downtime* — the
//! window from source quiesce to destination commit, during which the
//! instance answers on no host — gets its own histogram: it is the
//! headline number of the R-M1 experiment.
//!
//! Like the request-path registry, everything here takes caller-supplied
//! nanosecond timestamps, so chaos replays stay byte-deterministic.

use std::sync::Mutex;

use crate::registry::{Counter, Registry, RegistrySnapshot, Schema, Series};
use crate::{Histogram, RequestId, TraceId};

/// Stage labels, in protocol order. Indexes into
/// [`MigrationSpanRecord::stage_ns`] and [`MigrationTelemetry::STAGES`].
pub const MIGRATION_STAGE_LABELS: [&str; 6] =
    ["prepare", "quiesce", "transfer", "verify", "commit", "release"];

/// Mint the cluster-wide [`TraceId`] for migration attempt `(vm,
/// epoch)`. Deterministic — both a replay of the same seed and the
/// destination's own audit trail agree on it — and disjoint from the
/// per-request id space: bit 63 is always set, while request ids are
/// small sequential integers. The id is minted once at the source and
/// shipped inside every wire frame of the attempt; receivers record
/// the value from the wire rather than re-deriving it, exactly as a
/// real tracing header would behave.
pub fn migration_trace_id(vm: u32, epoch: u64) -> TraceId {
    (1u64 << 63) | ((vm as u64) << 32) | (epoch & 0xFFFF_FFFF)
}

/// Terminal state of one migration attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationOutcome {
    /// Handoff committed; the instance now runs on the destination.
    Committed,
    /// Aborted at some stage; the source copy stayed authoritative.
    Aborted,
    /// The destination refused the attempt outright as a stale or
    /// replayed epoch (anti-rollback).
    RejectedStale,
}

impl MigrationOutcome {
    /// Stable lowercase label for exports.
    pub fn label(self) -> &'static str {
        match self {
            MigrationOutcome::Committed => "committed",
            MigrationOutcome::Aborted => "aborted",
            MigrationOutcome::RejectedStale => "rejected-stale",
        }
    }
}

/// One migration attempt, summarized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationSpanRecord {
    /// Cluster-wide causal trace id of the attempt (see
    /// [`migration_trace_id`]), carried in every wire frame.
    pub trace_id: TraceId,
    /// The request-id key under which both hosts chained this attempt's
    /// audit records (equal to [`MigrationSpanRecord::trace_id`] —
    /// migration audit entries join spans through the same
    /// `request_id` field per-request entries use).
    pub request_id: RequestId,
    /// Cluster-wide vm id being moved.
    pub vm: u32,
    /// Migration epoch of this attempt.
    pub epoch: u64,
    /// Source host index.
    pub src_host: u32,
    /// Destination host index.
    pub dst_host: u32,
    /// Whether the package crossed the fabric sealed (vs cleartext).
    pub sealed: bool,
    /// Serialized vTPM state size (plaintext bytes).
    pub state_bytes: u64,
    /// Encoded package size as shipped on the fabric.
    pub package_bytes: u64,
    /// Virtual timestamp (ns) when the attempt began — lets exporters
    /// lay the stage durations out on the absolute timeline next to
    /// per-request spans.
    pub start_ns: u64,
    /// Per-stage durations (ns), indexed per
    /// [`MIGRATION_STAGE_LABELS`]; stages never reached read zero.
    pub stage_ns: [u64; 6],
    /// Source-quiesce → destination-commit (ns); zero unless committed.
    pub downtime_ns: u64,
    /// Whole-attempt duration (ns).
    pub total_ns: u64,
    /// How the attempt ended.
    pub outcome: MigrationOutcome,
}

static SCHEMA: Schema<4, 9> = {
    type M = MigrationTelemetry;
    Schema::new(
        [M::STARTED, M::COMMITTED, M::ABORTED, M::REJECTED_STALE],
        [
            M::STAGES[0], M::STAGES[1], M::STAGES[2], M::STAGES[3], M::STAGES[4], M::STAGES[5],
            M::DOWNTIME, M::TOTAL, M::PACKAGE_BYTES,
        ],
    )
};

/// Cluster-wide migration metrics: attempt counters, per-stage latency
/// histograms, the downtime histogram, and the retained span records.
/// One per cluster; snapshots are exact at quiescence.
pub struct MigrationTelemetry {
    registry: Registry<4, 9>,
    spans: Mutex<Vec<MigrationSpanRecord>>,
}

impl Default for MigrationTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl MigrationTelemetry {
    /// Attempts begun (committed + aborted + rejected + in-flight/crashed).
    pub const STARTED: Counter = Counter::new(0, "migration_started");
    /// Attempts that committed.
    pub const COMMITTED: Counter = Counter::new(1, "migration_committed");
    /// Attempts that aborted.
    pub const ABORTED: Counter = Counter::new(2, "migration_aborted");
    /// Attempts refused as stale/replayed epochs.
    pub const REJECTED_STALE: Counter = Counter::new(3, "migration_rejected_stale");
    /// Per-stage durations, per [`MIGRATION_STAGE_LABELS`].
    pub const STAGES: [Series; 6] = [
        Series::new(0, "migration_prepare"),
        Series::new(1, "migration_quiesce"),
        Series::new(2, "migration_transfer"),
        Series::new(3, "migration_verify"),
        Series::new(4, "migration_commit"),
        Series::new(5, "migration_release"),
    ];
    /// Guest-visible downtime (source quiesce → destination commit),
    /// committed attempts only.
    pub const DOWNTIME: Series = Series::new(6, "migration_downtime");
    /// Whole-attempt duration.
    pub const TOTAL: Series = Series::new(7, "migration_total");
    /// Encoded package bytes on the fabric.
    pub const PACKAGE_BYTES: Series = Series::new(8, "migration_package_bytes");

    /// Empty registry.
    pub fn new() -> Self {
        MigrationTelemetry { registry: Registry::new(&SCHEMA), spans: Mutex::new(Vec::new()) }
    }

    /// Note that an attempt began (before any stage runs, so a crashed
    /// attempt still counts as started).
    pub fn note_started(&self) {
        self.registry.add(Self::STARTED, 1);
    }

    /// Fold a finished attempt into counters and histograms and retain
    /// its span record. Downtime is recorded only for committed
    /// attempts — an abort re-opens the source, so the guest-visible
    /// gap it caused is bounded by the quiesce stage, not by a
    /// quiesce→commit distance that never happened.
    pub fn record(&self, span: MigrationSpanRecord) {
        let r = &self.registry;
        match span.outcome {
            MigrationOutcome::Committed => {
                r.add(Self::COMMITTED, 1);
                r.record(Self::DOWNTIME, span.downtime_ns);
            }
            MigrationOutcome::Aborted => r.add(Self::ABORTED, 1),
            MigrationOutcome::RejectedStale => r.add(Self::REJECTED_STALE, 1),
        }
        for (stage, ns) in Self::STAGES.into_iter().zip(span.stage_ns) {
            if ns > 0 {
                r.record(stage, ns);
            }
        }
        r.record(Self::TOTAL, span.total_ns);
        r.record(Self::PACKAGE_BYTES, span.package_bytes);
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Walk every histogram series under its stable scrape name — the
    /// observatory's wire contract.
    pub fn visit_histograms(&self, f: impl FnMut(&'static str, &Histogram)) {
        self.registry.visit_histograms(f);
    }

    /// Walk every counter under its stable scrape name.
    pub fn visit_counters(&self, f: impl FnMut(&'static str, u64)) {
        self.registry.visit_counters(f);
    }

    /// Retained span records, oldest first.
    pub fn spans(&self) -> Vec<MigrationSpanRecord> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Coherent-at-quiescence snapshot; index it with this type's
    /// constants.
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(outcome: MigrationOutcome, downtime_ns: u64) -> MigrationSpanRecord {
        MigrationSpanRecord {
            trace_id: migration_trace_id(1, 3),
            request_id: migration_trace_id(1, 3),
            vm: 1,
            epoch: 3,
            src_host: 0,
            dst_host: 2,
            sealed: true,
            state_bytes: 9000,
            package_bytes: 9200,
            start_ns: 1_000,
            stage_ns: [100, 50, 4000, 6000, 200, 150],
            downtime_ns,
            total_ns: 10_500,
            outcome,
        }
    }

    #[test]
    fn trace_ids_are_deterministic_and_disjoint_from_request_ids() {
        let a = migration_trace_id(1, 3);
        assert_eq!(a, migration_trace_id(1, 3), "same attempt, same id");
        assert_ne!(a, migration_trace_id(1, 4), "epochs separate attempts");
        assert_ne!(a, migration_trace_id(2, 3), "vms separate attempts");
        // Request ids are small sequential integers; migration traces
        // live in the high band and can never collide with them.
        assert!(a >= 1 << 63);
    }

    #[test]
    fn outcomes_split_counters_and_downtime_is_commit_only() {
        let t = MigrationTelemetry::new();
        for _ in 0..3 {
            t.note_started();
        }
        t.record(span(MigrationOutcome::Committed, 6_250));
        t.record(span(MigrationOutcome::Aborted, 0));
        t.record(span(MigrationOutcome::RejectedStale, 0));
        let s = t.snapshot();
        type T = MigrationTelemetry;
        assert_eq!(
            (s[T::STARTED], s[T::COMMITTED], s[T::ABORTED], s[T::REJECTED_STALE]),
            (3, 1, 1, 1)
        );
        assert_eq!(s[T::DOWNTIME].count, 1, "only the commit contributes downtime");
        assert_eq!(s[T::DOWNTIME].max, 6_250);
        assert_eq!(s[T::TOTAL].count, 3);
        assert_eq!(s[T::PACKAGE_BYTES].max, 9200);
        assert_eq!(T::STAGES[2].name(), "migration_transfer");
        assert_eq!(s[T::STAGES[2]].count, 3);
        assert_eq!(t.spans().len(), 3);
    }

    #[test]
    fn unreached_stages_stay_out_of_histograms() {
        let t = MigrationTelemetry::new();
        t.note_started();
        let mut s = span(MigrationOutcome::Aborted, 0);
        // Abort at verify: commit/release never ran.
        s.stage_ns[4] = 0;
        s.stage_ns[5] = 0;
        t.record(s);
        let snap = t.snapshot();
        let stages = MigrationTelemetry::STAGES;
        assert_eq!(snap[stages[3]].count, 1);
        assert_eq!(snap[stages[4]].count, 0);
        assert_eq!(snap[stages[5]].count, 0);
    }

    #[test]
    fn stage_series_follow_the_stage_labels() {
        for (stage, label) in MigrationTelemetry::STAGES.iter().zip(MIGRATION_STAGE_LABELS) {
            assert_eq!(stage.name(), format!("migration_{label}"));
        }
    }
}
