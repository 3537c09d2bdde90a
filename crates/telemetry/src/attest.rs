//! Attestation-plane observability: quote-issue stage histograms and
//! verification latency histograms.
//!
//! The attestation plane (crate `vtpm-attest`) has two hot paths worth
//! watching: *issuance* — where a signing pass pays two RSA private
//! ops (the instance vTPM quote plus the hardware countersign) unless
//! the issued-quote cache absorbs the request — and *verification* —
//! where a `VerifierPool` grinds through batches of submitted quote
//! chains. Each signing pass records its per-stage durations into the
//! stage histograms; cache hits and coalesced waiters only bump
//! counters (that is the whole point of the cache). Verification
//! records one latency sample per submission plus the batch-size
//! distribution, so the R-A1 experiment can report a meaningful p99.
//!
//! Durations here are caller-supplied nanoseconds. The issuer and pool
//! measure wall time (they do real RSA work, unlike the virtual-cost
//! request path); nothing from this module feeds a chaos transcript,
//! so replay determinism is unaffected.

use crate::registry::{Counter, Registry, RegistrySnapshot, Schema, Series};

static SCHEMA: Schema<7, 6> = {
    type A = AttestTelemetry;
    Schema::new(
        [
            A::REQUESTED, A::SIGNING_PASSES, A::CACHE_HITS, A::COALESCED,
            A::VERIFIED, A::ACCEPTED, A::REFUSED,
        ],
        [
            A::STAGES[0], A::STAGES[1], A::STAGES[2],
            A::ISSUE_TOTAL, A::VERIFY_LATENCY, A::BATCH_SIZE,
        ],
    )
};

/// Plane-wide attestation metrics: issuance counters + stage
/// histograms, verification latency and batch sizes. Shared by the
/// issuer and the verifier pool.
pub struct AttestTelemetry {
    registry: Registry<7, 6>,
}

impl Default for AttestTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl AttestTelemetry {
    /// Quote requests that reached the issuer.
    pub const REQUESTED: Counter = Counter::new(0, "attest_requested");
    /// Requests that paid a full signing pass (two RSA private ops).
    pub const SIGNING_PASSES: Counter = Counter::new(1, "attest_signing_passes");
    /// Requests served from the issued-quote cache.
    pub const CACHE_HITS: Counter = Counter::new(2, "attest_cache_hits");
    /// Requests coalesced behind a concurrent signing pass.
    pub const COALESCED: Counter = Counter::new(3, "attest_coalesced");
    /// Submissions the verifier pool processed.
    pub const VERIFIED: Counter = Counter::new(4, "attest_verified");
    /// Submissions accepted.
    pub const ACCEPTED: Counter = Counter::new(5, "attest_accepted");
    /// Submissions refused (any reason).
    pub const REFUSED: Counter = Counter::new(6, "attest_refused");
    /// Per-stage signing-pass durations, in signing-pass order: the
    /// vTPM quote, the hardware countersign, assembly.
    pub const STAGES: [Series; 3] = [
        Series::new(0, "attest_vtpm-quote"),
        Series::new(1, "attest_hw-countersign"),
        Series::new(2, "attest_assemble"),
    ];
    /// Whole-signing-pass duration.
    pub const ISSUE_TOTAL: Series = Series::new(3, "attest_issue_total");
    /// Per-submission verification latency, under the series name the
    /// observatory's verify-latency SLO and profile read.
    pub const VERIFY_LATENCY: Series = Series::new(4, "verify_ns");
    /// Verification batch sizes.
    pub const BATCH_SIZE: Series = Series::new(5, "attest_batch_size");

    /// Empty registry.
    pub fn new() -> Self {
        AttestTelemetry { registry: Registry::new(&SCHEMA) }
    }

    /// Note one quote request arriving at the issuer (hit or miss).
    pub fn note_requested(&self) {
        self.registry.add(Self::REQUESTED, 1);
    }

    /// Note a request served straight from the issued-quote cache.
    pub fn note_cache_hit(&self) {
        self.registry.add(Self::CACHE_HITS, 1);
    }

    /// Note a request that blocked behind a concurrent signing pass for
    /// the same instance and was then served from the cache it filled.
    pub fn note_coalesced(&self) {
        self.registry.add(Self::COALESCED, 1);
    }

    /// Fold one signing pass into the stage histograms: per-stage
    /// durations (ns) indexed like [`Self::STAGES`], and the whole pass.
    pub fn record_issue(&self, stage_ns: [u64; 3], total_ns: u64) {
        self.registry.add(Self::SIGNING_PASSES, 1);
        for (stage, ns) in Self::STAGES.into_iter().zip(stage_ns) {
            if ns > 0 {
                self.registry.record(stage, ns);
            }
        }
        self.registry.record(Self::ISSUE_TOTAL, total_ns);
    }

    /// Record one verified submission and its wall latency.
    pub fn note_verify(&self, accepted: bool, latency_ns: u64) {
        self.registry.add(Self::VERIFIED, 1);
        self.registry.add(if accepted { Self::ACCEPTED } else { Self::REFUSED }, 1);
        self.registry.record(Self::VERIFY_LATENCY, latency_ns);
    }

    /// Record the size of one verification batch.
    pub fn note_batch(&self, size: u64) {
        self.registry.record(Self::BATCH_SIZE, size);
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

    type T = AttestTelemetry;

    const STAGE_NS: [u64; 3] = [40_000, 60_000, 1_000];

    #[test]
    fn issuance_counters_and_stages_accumulate() {
        let t = AttestTelemetry::new();
        for _ in 0..10 {
            t.note_requested();
        }
        t.record_issue(STAGE_NS, 101_000);
        t.record_issue(STAGE_NS, 101_000);
        for _ in 0..6 {
            t.note_cache_hit();
        }
        t.note_coalesced();
        t.note_coalesced();
        let s = t.snapshot();
        assert_eq!(
            (s[T::REQUESTED], s[T::SIGNING_PASSES], s[T::CACHE_HITS], s[T::COALESCED]),
            (10, 2, 6, 2)
        );
        assert_eq!(T::STAGES[0].name(), "attest_vtpm-quote");
        assert_eq!(s[T::STAGES[0]].count, 2);
        assert_eq!(s[T::ISSUE_TOTAL].count, 2);
    }

    #[test]
    fn verification_splits_accepts_and_refusals() {
        let t = AttestTelemetry::new();
        t.note_batch(3);
        t.note_verify(true, 5_000);
        t.note_verify(true, 6_000);
        t.note_verify(false, 700);
        let s = t.snapshot();
        assert_eq!((s[T::VERIFIED], s[T::ACCEPTED], s[T::REFUSED]), (3, 2, 1));
        assert_eq!(s[T::VERIFY_LATENCY].count, 3);
        assert_eq!(s[T::BATCH_SIZE].max, 3);
    }

    #[test]
    fn unreached_stages_stay_out_of_histograms() {
        let t = AttestTelemetry::new();
        t.record_issue([40_000, 60_000, 0], 100_000);
        let s = t.snapshot();
        assert_eq!(s[T::STAGES[1]].count, 1);
        assert_eq!(s[T::STAGES[2]].count, 0);
    }

    #[test]
    fn stage_series_follow_the_stage_labels() {
        let names = T::STAGES.map(|stage| stage.name());
        assert_eq!(names, ["attest_vtpm-quote", "attest_hw-countersign", "attest_assemble"]);
    }
}
