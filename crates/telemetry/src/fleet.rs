//! Fleet control-plane observability: per-tick stage histograms and
//! cluster-wide drive outcome counters.
//!
//! The fleet controller runs a fixed loop each round — observe
//! heartbeats, evaluate suspicion, plan rebalance moves, drive the
//! in-flight migration pool — and charges virtual time in every phase
//! (fabric latency for heartbeats, protocol steps for drives). Each
//! phase's virtual-clock cost is folded into a per-stage histogram
//! here, alongside counters for every way a drive can end and a
//! cluster-wide downtime histogram over *committed* drives (the
//! concurrent-fleet counterpart of R-M1's single-migration downtime:
//! contention between interleaved drives shows up directly in the tail,
//! which is why R-M2 reports this histogram's p99).
//!
//! Everything takes caller-supplied virtual-clock durations, so chaos
//! replays stay byte-deterministic.

use crate::registry::{Counter, Registry, RegistrySnapshot, Schema, Series};
use crate::Histogram;

/// Fleet tick phase labels, in loop order; [`FleetTelemetry::STAGES`]
/// holds the matching series.
pub const FLEET_STAGE_LABELS: [&str; 4] = ["observe", "suspect", "plan", "drive"];

static SCHEMA: Schema<11, 5> = {
    type F = FleetTelemetry;
    Schema::new(
        [
            F::TICKS, F::HEARTBEATS_SEEN, F::SUSPECTS_RAISED, F::FALSE_SUSPECTS, F::SUBMITTED,
            F::COMMITTED, F::REJECTED_STALE, F::ABORTED, F::ABANDONED, F::REFUSED, F::CONFLICTS,
        ],
        [F::STAGES[0], F::STAGES[1], F::STAGES[2], F::STAGES[3], F::DOWNTIME],
    )
};

/// Counters + histograms for one fleet controller.
pub struct FleetTelemetry {
    registry: Registry<11, 5>,
}

impl Default for FleetTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl FleetTelemetry {
    /// Controller ticks run.
    pub const TICKS: Counter = Counter::new(0, "fleet_ticks");
    /// Heartbeats consumed from the control inbox.
    pub const HEARTBEATS_SEEN: Counter = Counter::new(1, "fleet_heartbeats_seen");
    /// Hosts that newly crossed the suspicion threshold.
    pub const SUSPECTS_RAISED: Counter = Counter::new(2, "fleet_suspects_raised");
    /// Suspicions raised against hosts that were actually alive.
    pub const FALSE_SUSPECTS: Counter = Counter::new(3, "fleet_false_suspects");
    /// Drives admitted to the pool.
    pub const SUBMITTED: Counter = Counter::new(4, "fleet_drives_submitted");
    /// Drives that committed.
    pub const COMMITTED: Counter = Counter::new(5, "fleet_drives_committed");
    /// Drives refused stale (lost an epoch race).
    pub const REJECTED_STALE: Counter = Counter::new(6, "fleet_drives_rejected_stale");
    /// Drives aborted.
    pub const ABORTED: Counter = Counter::new(7, "fleet_drives_aborted");
    /// Drives abandoned to a host crash.
    pub const ABANDONED: Counter = Counter::new(8, "fleet_drives_abandoned");
    /// Submissions refused before entering the pool.
    pub const REFUSED: Counter = Counter::new(9, "fleet_drives_refused");
    /// Submissions that raced another in-flight drive of the same VM.
    pub const CONFLICTS: Counter = Counter::new(10, "fleet_conflicts");
    /// Virtual time per tick phase, per [`FLEET_STAGE_LABELS`].
    pub const STAGES: [Series; 4] = [
        Series::new(0, "fleet_observe"),
        Series::new(1, "fleet_suspect"),
        Series::new(2, "fleet_plan"),
        Series::new(3, "fleet_drive"),
    ];
    /// Quiesce→commit downtime over committed drives, cluster-wide —
    /// the blackout series the SLO engine watches.
    pub const DOWNTIME: Series = Series::new(4, "fleet_downtime");

    /// An empty registry.
    pub fn new() -> Self {
        FleetTelemetry { registry: Registry::new(&SCHEMA) }
    }

    /// One controller tick completed.
    pub fn note_tick(&self) {
        self.registry.add(Self::TICKS, 1);
    }

    /// `n` heartbeats consumed from the control inbox.
    pub fn note_heartbeats(&self, n: u64) {
        self.registry.add(Self::HEARTBEATS_SEEN, n);
    }

    /// A host newly crossed the suspicion threshold. `false_positive`
    /// marks a host the simulation knows is actually alive.
    pub fn note_suspect(&self, false_positive: bool) {
        self.registry.add(Self::SUSPECTS_RAISED, 1);
        self.registry.add(Self::FALSE_SUSPECTS, false_positive as u64);
    }

    /// A drive entered the pool.
    pub fn note_submitted(&self, conflict: bool) {
        self.registry.add(Self::SUBMITTED, 1);
        self.registry.add(Self::CONFLICTS, conflict as u64);
    }

    /// A drive committed; `downtime_ns` is its quiesce→commit window.
    pub fn note_committed(&self, downtime_ns: u64) {
        self.registry.add(Self::COMMITTED, 1);
        self.registry.record(Self::DOWNTIME, downtime_ns);
    }

    /// A drive lost an epoch race and was refused stale.
    pub fn note_rejected_stale(&self) {
        self.registry.add(Self::REJECTED_STALE, 1);
    }

    /// A drive aborted (fault, lost ack, verification failure).
    pub fn note_aborted(&self) {
        self.registry.add(Self::ABORTED, 1);
    }

    /// A drive was abandoned because a host it touched crashed.
    pub fn note_abandoned(&self) {
        self.registry.add(Self::ABANDONED, 1);
    }

    /// A submission was refused before entering the pool (pool full,
    /// or the VM had no live home).
    pub fn note_refused(&self) {
        self.registry.add(Self::REFUSED, 1);
    }

    /// Fold `ns` of virtual time into tick phase `stage` (one of
    /// [`FleetTelemetry::STAGES`]).
    pub fn record_stage(&self, stage: Series, ns: u64) {
        self.registry.record(stage, ns);
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

    /// Freeze everything; index the result with this type's constants.
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type T = FleetTelemetry;

    #[test]
    fn counters_and_histograms_fold_into_the_snapshot() {
        let t = FleetTelemetry::new();
        t.note_tick();
        t.note_heartbeats(5);
        t.note_suspect(false);
        t.note_suspect(true);
        t.note_submitted(false);
        t.note_submitted(true);
        t.note_committed(1_000_000);
        t.note_rejected_stale();
        t.record_stage(T::STAGES[3], 42);
        let s = t.snapshot();
        assert_eq!(s[T::TICKS], 1);
        assert_eq!(s[T::HEARTBEATS_SEEN], 5);
        assert_eq!((s[T::SUSPECTS_RAISED], s[T::FALSE_SUSPECTS]), (2, 1));
        assert_eq!((s[T::SUBMITTED], s[T::CONFLICTS]), (2, 1));
        assert_eq!((s[T::COMMITTED], s[T::REJECTED_STALE]), (1, 1));
        assert_eq!(s[T::DOWNTIME].count, 1);
        assert!(s[T::DOWNTIME].p99 > 0);
        assert_eq!(s[T::STAGES[3]].count, 1);
        assert_eq!(s[T::STAGES[0]].count, 0);
    }

    #[test]
    fn every_slot_is_scraped_under_its_stable_name() {
        let t = FleetTelemetry::new();
        let mut series = Vec::new();
        t.visit_histograms(|name, _| series.push(name));
        assert_eq!(
            series,
            ["fleet_observe", "fleet_suspect", "fleet_plan", "fleet_drive", "fleet_downtime"]
        );
        let mut counters = Vec::new();
        t.visit_counters(|name, _| counters.push(name));
        assert_eq!(counters.len(), 11);
        for (stage, label) in T::STAGES.iter().zip(FLEET_STAGE_LABELS) {
            assert_eq!(stage.name(), format!("fleet_{label}"));
        }
    }
}
