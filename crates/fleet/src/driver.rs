//! A bounded pool of concurrent migration drivers.
//!
//! The cluster's [`Cluster::migrate`] drives one attempt start to
//! finish; a fleet controller needs many attempts *interleaved* — each
//! `tick` advances every in-flight run by one protocol step, so two
//! migrations with a common host genuinely race through the shared
//! fabric inboxes. Epoch arbitration keeps the race safe:
//!
//! * every submission passes an **epoch floor** of one past the highest
//!   epoch already in flight for that VM, so a double-drive never mints
//!   the same epoch twice;
//! * the source journal's quiesce step admits exactly one of them — the
//!   later epoch wins `open_quiesce`, the other is refused down the
//!   existing `RejectedStale` path.
//!
//! The one subtlety is *settlement order*. [`Cluster::finish_run`]
//! calls `resolve(vm)`, which aborts any open quiesce that has not
//! committed — correct for a lone attempt, disastrous if a losing
//! attempt settles while the winning attempt of the same VM is still
//! mid-flight (it would thaw the VM under the winner's transfer: the
//! two-runnable-copies bug). So a run that finishes stepping is
//! **parked** until no other run of its VM remains active, and only
//! then settled.

use vtpm_cluster::{Cluster, MigrateOutcome, MigrationRun};

/// Why the controller drove a migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriveReason {
    /// Load-skew rebalancing (most- to least-loaded host).
    Rebalance,
    /// Draining a suspected host before it dies for real.
    Evacuate,
    /// Submitted directly by the operator / chaos harness.
    Manual,
}

impl DriveReason {
    /// Stable lowercase label (used in chaos JSON).
    pub fn label(self) -> &'static str {
        match self {
            DriveReason::Rebalance => "rebalance",
            DriveReason::Evacuate => "evacuate",
            DriveReason::Manual => "manual",
        }
    }
}

/// Where a driven attempt stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriveOutcome {
    /// Still being stepped (or parked awaiting settlement).
    InFlight,
    /// Committed; the VM runs on the destination.
    Committed,
    /// Aborted; the source kept the VM.
    Aborted,
    /// Lost an epoch race to a concurrent drive of the same VM.
    RejectedStale,
    /// A host it touched crashed mid-flight; the journals settle it
    /// during recovery instead of the driver.
    Abandoned,
    /// Never admitted (pool full, or the VM had no live home).
    Refused,
}

impl DriveOutcome {
    /// Stable lowercase label (used in chaos JSON).
    pub fn label(self) -> &'static str {
        match self {
            DriveOutcome::InFlight => "in-flight",
            DriveOutcome::Committed => "committed",
            DriveOutcome::Aborted => "aborted",
            DriveOutcome::RejectedStale => "rejected-stale",
            DriveOutcome::Abandoned => "abandoned",
            DriveOutcome::Refused => "refused",
        }
    }
}

/// The durable record of one drive decision — admitted or refused —
/// kept for the life of the pool so chaos reports can account for
/// every attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriveDecision {
    /// VM being moved.
    pub vm: u32,
    /// Source host at submit time (the VM's home; `dst` echoed when the
    /// VM had no home to read).
    pub src: usize,
    /// Requested destination host.
    pub dst: usize,
    /// The attempt's migration epoch (0 when refused before minting).
    pub epoch: u64,
    /// Causal trace id carried in the attempt's wire frames (0 when
    /// refused before minting).
    pub trace: u64,
    /// Why the controller drove it.
    pub reason: DriveReason,
    /// Whether this decision raced another in-flight drive of the same
    /// VM (set on *both* sides of the race).
    pub conflict: bool,
    /// How it ended (or [`DriveOutcome::InFlight`]).
    pub outcome: DriveOutcome,
    /// Quiesce→commit downtime, committed drives only.
    pub downtime_ns: u64,
    /// Refusal detail (`"pool-full"`, `"no-home"`) or `""`.
    pub why: &'static str,
}

/// Result of a [`DriverPool::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submitted {
    /// Admitted; the decision is at `idx` in [`DriverPool::decisions`].
    Admitted {
        /// Index into the decision log.
        idx: usize,
        /// Trace id of the in-flight attempt.
        trace: u64,
        /// Whether it races another in-flight drive of the same VM.
        conflict: bool,
    },
    /// Refused; the decision is at `idx` with the reason in `why`.
    Refused {
        /// Index into the decision log.
        idx: usize,
        /// Refusal detail.
        why: &'static str,
    },
}

struct Drive {
    run: MigrationRun,
    idx: usize,
}

/// Bounded pool of in-flight migration runs, stepped round-robin.
pub struct DriverPool {
    max_in_flight: usize,
    active: Vec<Drive>,
    parked: Vec<Drive>,
    decisions: Vec<DriveDecision>,
}

impl DriverPool {
    /// A pool allowing at most `max_in_flight` concurrent runs.
    pub fn new(max_in_flight: usize) -> Self {
        DriverPool { max_in_flight: max_in_flight.max(1), active: Vec::new(), parked: Vec::new(), decisions: Vec::new() }
    }

    /// Runs currently held (stepping or parked).
    pub fn in_flight(&self) -> usize {
        self.active.len() + self.parked.len()
    }

    /// Whether any held run moves `vm`.
    pub fn has_vm(&self, vm: u32) -> bool {
        self.active.iter().chain(&self.parked).any(|d| d.run.vm == vm)
    }

    /// Every decision ever taken, in submission order. In-flight ones
    /// read [`DriveOutcome::InFlight`] until settled.
    pub fn decisions(&self) -> &[DriveDecision] {
        &self.decisions
    }

    /// Submit a drive of `vm` to `dst`. Refusals are recorded in the
    /// decision log too — a fleet that silently dropped plans could
    /// never prove it accounted for every VM.
    pub fn submit(
        &mut self,
        cluster: &mut Cluster,
        vm: u32,
        dst: usize,
        reason: DriveReason,
    ) -> Submitted {
        let src = cluster.home_of(vm).unwrap_or(dst);
        let refuse = |pool: &mut Self, why: &'static str| {
            pool.decisions.push(DriveDecision {
                vm,
                src,
                dst,
                epoch: 0,
                trace: 0,
                reason,
                conflict: false,
                outcome: DriveOutcome::Refused,
                downtime_ns: 0,
                why,
            });
            Submitted::Refused { idx: pool.decisions.len() - 1, why }
        };
        if self.in_flight() >= self.max_in_flight {
            return refuse(self, "pool-full");
        }
        // One past the highest epoch already in flight for this VM:
        // the journals cannot keep two *simultaneous* proposals apart
        // (they learn an epoch only once it prepares or quiesces), so
        // the pool does.
        let floor = self
            .active
            .iter()
            .chain(&self.parked)
            .filter(|d| d.run.vm == vm)
            .map(|d| d.run.epoch + 1)
            .max()
            .unwrap_or(0);
        let conflict = floor > 0;
        let Some(run) = cluster.begin_migration_from(vm, dst, floor) else {
            return refuse(self, "no-home");
        };
        if conflict {
            // Mark both sides of the race.
            for d in self.active.iter().chain(&self.parked) {
                if d.run.vm == vm {
                    self.decisions[d.idx].conflict = true;
                }
            }
        }
        self.decisions.push(DriveDecision {
            vm,
            src: run.src,
            dst,
            epoch: run.epoch,
            trace: run.trace,
            reason,
            conflict,
            outcome: DriveOutcome::InFlight,
            downtime_ns: 0,
            why: "",
        });
        let idx = self.decisions.len() - 1;
        self.active.push(Drive { run, idx });
        Submitted::Admitted { idx, trace: self.decisions[idx].trace, conflict }
    }

    /// Advance every active run by one protocol step, then settle
    /// whatever can settle. Returns the decision indices settled this
    /// tick.
    pub fn tick(&mut self, cluster: &mut Cluster) -> Vec<usize> {
        let mut still = Vec::with_capacity(self.active.len());
        for mut d in std::mem::take(&mut self.active) {
            if cluster.step(&mut d.run) {
                still.push(d);
            } else {
                self.parked.push(d);
            }
        }
        self.active = still;
        self.settle(cluster)
    }

    /// Settle parked runs whose VM has no other active run. Settling
    /// earlier would let a loser's `resolve` thaw the VM under a
    /// still-flying winner.
    fn settle(&mut self, cluster: &mut Cluster) -> Vec<usize> {
        let mut settled = Vec::new();
        let mut keep = Vec::with_capacity(self.parked.len());
        for d in std::mem::take(&mut self.parked) {
            if self.active.iter().any(|a| a.run.vm == d.run.vm) {
                keep.push(d);
                continue;
            }
            let (vm, epoch) = (d.run.vm, d.run.epoch);
            let quiesced = d.run.quiesced_at_ns();
            let outcome = cluster.finish_run(d.run);
            let dec = &mut self.decisions[d.idx];
            dec.outcome = match outcome {
                MigrateOutcome::Committed => DriveOutcome::Committed,
                MigrateOutcome::Aborted => DriveOutcome::Aborted,
                MigrateOutcome::RejectedStale => DriveOutcome::RejectedStale,
            };
            if outcome == MigrateOutcome::Committed {
                if let (Some(commit), Some(q)) = (cluster.commit_time(vm, epoch), quiesced) {
                    dec.downtime_ns = commit.saturating_sub(q);
                }
            }
            settled.push(d.idx);
        }
        self.parked = keep;
        settled
    }

    /// Drop every run touching `host` (it crashed): the run's volatile
    /// protocol state is exactly what a real toolstack daemon loses.
    /// The decisions read [`DriveOutcome::Abandoned`]; the journals
    /// settle the in-doubt handoffs during recovery, not the driver.
    /// Returns the abandoned decision indices.
    pub fn abandon_host(&mut self, host: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for list in [&mut self.active, &mut self.parked] {
            list.retain(|d| {
                if d.run.src == host || d.run.dst == host {
                    out.push(d.idx);
                    false
                } else {
                    true
                }
            });
        }
        for &idx in &out {
            self.decisions[idx].outcome = DriveOutcome::Abandoned;
        }
        out.sort_unstable();
        out
    }

    /// VMs of runs abandoned runs would have left quiesced on a
    /// still-alive source: the set of VMs held by runs touching `host`
    /// whose *source* is not `host`. Callers resolve these after a
    /// crash so no VM stays frozen behind a dead destination.
    pub fn vms_needing_resolve(&self, host: usize) -> Vec<u32> {
        let mut vms: Vec<u32> = self
            .active
            .iter()
            .chain(&self.parked)
            .filter(|d| d.run.dst == host && d.run.src != host)
            .map(|d| d.run.vm)
            .collect();
        vms.sort_unstable();
        vms.dedup();
        vms
    }

    /// Step every held run to completion and settle all of it. Bounded:
    /// each run has at most [`MigrationRun::STEPS`] steps left.
    pub fn drain(&mut self, cluster: &mut Cluster) -> Vec<usize> {
        let mut settled = Vec::new();
        let mut guard = 0;
        while self.in_flight() > 0 {
            settled.extend(self.tick(cluster));
            guard += 1;
            assert!(guard <= MigrationRun::STEPS + 1, "drain failed to converge");
        }
        settled
    }
}
