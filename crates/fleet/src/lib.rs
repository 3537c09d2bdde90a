//! # vtpm-fleet — fleet control plane over the migration cluster
//!
//! The cluster layer moves one vTPM at a time and assumes somebody
//! competent is deciding *what* to move. This crate is that somebody:
//! a deterministic control loop that watches host health through
//! fabric heartbeats, scores suspicion with a phi-accrual
//! [`detector`], and drives a bounded pool of concurrent migrations
//! through [`driver`] with per-VM epoch arbitration so racing drives
//! resolve to exactly one winner.
//!
//! Each [`Fleet::tick`] runs four phases on the cluster's virtual
//! clock, every phase's cost folded into the fleet telemetry's stage
//! histograms:
//!
//! 1. **observe** — every live host heartbeats over the fabric's
//!    control plane (same wire costs and fault injection as data
//!    frames); arrivals feed the detector;
//! 2. **suspect** — suspicion scores are re-read; hosts crossing the
//!    threshold join the suspect set (and leave it on recovery);
//! 3. **plan** — unless paused, drain suspected hosts and shave load
//!    skew, bounded per tick; the pause latch is wired to the
//!    sentinel's churn-storm detector, because rebalancing *into* a
//!    crash storm multiplies in-doubt handoffs;
//! 4. **drive** — every in-flight run advances one protocol step, and
//!    finished runs settle under the pool's parking rule.
//!
//! ```
//! use vtpm_cluster::{Cluster, ClusterConfig};
//! use vtpm_fleet::{Fleet, FleetConfig};
//!
//! let mut cluster = Cluster::new(b"doc", ClusterConfig::default()).unwrap();
//! let vm = cluster.create_vm().unwrap();
//! let mut fleet = Fleet::new(FleetConfig::default(), &cluster);
//! fleet.drive(&mut cluster, vm, 2);
//! for _ in 0..12 {
//!     fleet.tick(&mut cluster);
//! }
//! assert_eq!(cluster.runnable_hosts(vm), vec![2]);
//! ```

pub mod detector;
pub mod driver;

use std::collections::{BTreeMap, BTreeSet};

use vtpm_cluster::{Cluster, ControlFrame, MetricsFrame, FABRIC_MSG_NS};
use vtpm_observatory::Observatory;
use vtpm_telemetry::{FleetTelemetry, RegistrySnapshot, Series};

pub use detector::{PhiAccrualDetector, BOOTSTRAP_FLOOR_NS};
pub use driver::{DriveDecision, DriveOutcome, DriveReason, DriverPool, Submitted};

/// Tuning for a [`Fleet`].
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Concurrent migration runs the pool holds.
    pub max_in_flight: usize,
    /// Plans submitted per tick (evacuation + rebalance combined).
    pub max_plan_per_tick: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig { max_in_flight: 8, max_plan_per_tick: 4 }
    }
}

/// Rebalance when the VM-count spread between the most- and
/// least-loaded eligible hosts exceeds this.
const SKEW_THRESHOLD: isize = 1;

/// Minimum virtual-time gap between heartbeat rounds emitted by
/// [`Fleet::pump_heartbeats`]. The embedding calls `pump` from its
/// traffic loops; this floor keeps a 100-host fleet from spamming the
/// control plane (each round costs `hosts × FABRIC_MSG_NS` of shared
/// virtual time) while still bounding heartbeat silence — the
/// phased-gap silence that used to manufacture false suspects.
pub const HEARTBEAT_INTERVAL_NS: u64 = 25_000_000;

/// Synthetic host id under which the controller's own registries
/// (cluster-wide migration telemetry, the fleet stage histograms) are
/// ingested into the observatory — far above any real host index.
pub const CONTROLLER_HOST: u32 = u32::MAX;

/// The tick phases' series in the fleet stage histograms
/// ([`FleetTelemetry::STAGES`]).
const STAGE_OBSERVE: Series = FleetTelemetry::STAGES[0];
const STAGE_SUSPECT: Series = FleetTelemetry::STAGES[1];
const STAGE_PLAN: Series = FleetTelemetry::STAGES[2];
const STAGE_DRIVE: Series = FleetTelemetry::STAGES[3];

/// The fleet controller: detector + driver pool + plan loop.
pub struct Fleet {
    cfg: FleetConfig,
    detector: PhiAccrualDetector,
    pool: DriverPool,
    telemetry: FleetTelemetry,
    /// Next heartbeat sequence number per host.
    seqs: Vec<u64>,
    /// Ground-truth down set, asserted by the embedding (the harness
    /// crashes hosts by fiat). The controller itself acts only on
    /// *suspicion*; the truth is kept so telemetry can score false
    /// suspects and so no heartbeats are faked for dead hosts.
    down: BTreeSet<usize>,
    /// Hosts whose suspicion currently exceeds the threshold.
    suspected: BTreeSet<usize>,
    /// Rebalance-pause latch (sentinel churn-storm closed loop).
    paused: bool,
    /// Virtual time of the last heartbeat round (tick or pump).
    last_pump_ns: u64,
    /// Metrics frames drained off the control inbox, awaiting the next
    /// [`Fleet::scrape`] hand-off to the observatory. (The control
    /// inbox is shared: a tick's observe phase may drain scrapes that
    /// were still in flight — they are stashed here, never eaten.)
    pending_metrics: Vec<MetricsFrame>,
}

impl Fleet {
    /// A controller over `cluster`'s current hosts, all presumed live.
    ///
    /// The detector's bootstrap interval is [`BOOTSTRAP_FLOOR_NS`],
    /// raised to `4 × hosts × FABRIC_MSG_NS`: one fleet-wide heartbeat
    /// round serializes on the shared virtual clock, so by the time the
    /// controller evaluates suspicion the *first* host's beacon is
    /// already `hosts × FABRIC_MSG_NS` old — a cold 1 ms bootstrap at
    /// 100 hosts would indict live hosts on pure send-order skew
    /// (the R-M2 false-suspect finding).
    pub fn new(cfg: FleetConfig, cluster: &Cluster) -> Self {
        let mut detector = PhiAccrualDetector::new(
            BOOTSTRAP_FLOOR_NS.max(4 * cluster.hosts.len() as u64 * FABRIC_MSG_NS),
        );
        let now = cluster.clock.now_ns();
        for h in 0..cluster.hosts.len() {
            detector.register(h, now);
        }
        Fleet {
            cfg,
            detector,
            pool: DriverPool::new(cfg.max_in_flight),
            telemetry: FleetTelemetry::new(),
            seqs: vec![0; cluster.hosts.len()],
            down: BTreeSet::new(),
            suspected: BTreeSet::new(),
            paused: false,
            last_pump_ns: now,
            pending_metrics: Vec::new(),
        }
    }

    /// Latch the planner off (churn storm raging).
    pub fn pause_rebalance(&mut self) {
        self.paused = true;
    }

    /// Release the planner latch (storm cleared).
    pub fn resume_rebalance(&mut self) {
        self.paused = false;
    }

    /// Whether the planner is latched off.
    pub fn paused(&self) -> bool {
        self.paused
    }

    /// Hosts currently suspected, ascending.
    pub fn suspects(&self) -> Vec<usize> {
        self.suspected.iter().copied().collect()
    }

    /// The driver pool (decision log, in-flight count).
    pub fn pool(&self) -> &DriverPool {
        &self.pool
    }

    /// Snapshot of the fleet telemetry; index it with
    /// [`FleetTelemetry`]'s constants.
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.telemetry.snapshot()
    }

    /// The embedding crashed `host`. Every run touching it is
    /// abandoned (the driver's volatile state is lost exactly like a
    /// real toolstack daemon's); VMs a dead *destination* would leave
    /// frozen on a live source are resolved immediately — unless a
    /// concurrent run still holds the VM, in which case its own
    /// settlement resolves.
    pub fn host_down(&mut self, cluster: &mut Cluster, host: usize) {
        let stranded = self.pool.vms_needing_resolve(host);
        for _ in self.pool.abandon_host(host) {
            self.telemetry.note_abandoned();
        }
        for vm in stranded {
            if !self.pool.has_vm(vm) {
                cluster.resolve(vm);
            }
        }
        self.down.insert(host);
    }

    /// The embedding recovered `host` (journal replayed, manager
    /// rebuilt). The detector restarts with a fresh bootstrap — the
    /// silence that got the host suspected is history, not evidence —
    /// and every in-doubt handoff recorded on its journal settles.
    pub fn host_up(&mut self, cluster: &mut Cluster, host: usize) {
        self.down.remove(&host);
        self.suspected.remove(&host);
        self.detector.register(host, cluster.clock.now_ns());
        let vms: Vec<u32> =
            cluster.hosts[host].journal.mapped_vms().iter().map(|&(vm, _)| vm).collect();
        for vm in vms {
            if !self.pool.has_vm(vm) {
                cluster.resolve(vm);
            }
        }
    }

    /// A new host joined the cluster at index `host`.
    pub fn host_joined(&mut self, cluster: &Cluster, host: usize) {
        if self.seqs.len() <= host {
            self.seqs.resize(host + 1, 0);
        }
        self.detector.register(host, cluster.clock.now_ns());
    }

    /// Submit a manual drive of `vm` to `dst` (the chaos harness's
    /// double-drive injection rides this).
    pub fn drive(&mut self, cluster: &mut Cluster, vm: u32, dst: usize) -> Submitted {
        self.submit(cluster, vm, dst, DriveReason::Manual)
    }

    fn submit(&mut self, cluster: &mut Cluster, vm: u32, dst: usize, reason: DriveReason) -> Submitted {
        let sub = self.pool.submit(cluster, vm, dst, reason);
        match sub {
            Submitted::Admitted { conflict, .. } => self.telemetry.note_submitted(conflict),
            Submitted::Refused { .. } => self.telemetry.note_refused(),
        }
        sub
    }

    /// One control-loop round: observe → suspect → plan → drive.
    /// Returns the decision indices settled this tick.
    pub fn tick(&mut self, cluster: &mut Cluster) -> Vec<usize> {
        self.telemetry.note_tick();

        // Observe: live hosts heartbeat over the control plane, then
        // the controller drains arrivals into the detector.
        let t0 = cluster.clock.now_ns();
        self.observe(cluster);
        let t1 = cluster.clock.now_ns();
        self.telemetry.record_stage(STAGE_OBSERVE, t1 - t0);

        // Suspect: re-read every score against the threshold.
        let now = cluster.clock.now_ns();
        for h in self.detector.tracked() {
            if self.detector.is_suspect(h, now) {
                if self.suspected.insert(h) {
                    self.telemetry.note_suspect(!self.down.contains(&h));
                }
            } else {
                self.suspected.remove(&h);
            }
        }
        let t2 = cluster.clock.now_ns();
        self.telemetry.record_stage(STAGE_SUSPECT, t2 - t1);

        // Plan: evacuation first (a suspected host's VMs are one crash
        // away from being stranded), then load skew.
        if !self.paused {
            self.plan(cluster);
        }
        let t3 = cluster.clock.now_ns();
        self.telemetry.record_stage(STAGE_PLAN, t3 - t2);

        // Drive: every in-flight run advances one protocol step.
        let settled = self.pool.tick(cluster);
        for &idx in &settled {
            let d = self.pool.decisions()[idx];
            match d.outcome {
                DriveOutcome::Committed => self.telemetry.note_committed(d.downtime_ns),
                DriveOutcome::RejectedStale => self.telemetry.note_rejected_stale(),
                DriveOutcome::Aborted => self.telemetry.note_aborted(),
                _ => {}
            }
        }
        let t4 = cluster.clock.now_ns();
        self.telemetry.record_stage(STAGE_DRIVE, t4 - t3);
        settled
    }

    /// One heartbeat round: every live host beacons over the control
    /// plane, then the controller drains arrivals. Returns the number
    /// of heartbeats observed.
    fn observe(&mut self, cluster: &mut Cluster) -> u64 {
        for h in 0..cluster.hosts.len() {
            if !self.down.contains(&h) {
                self.seqs[h] += 1;
                let seq = self.seqs[h];
                cluster.send_heartbeat(h, seq);
            }
        }
        self.drain_control(cluster)
    }

    /// Drain the fabric's control inbox: heartbeats feed the failure
    /// detector; metrics frames (observatory scrapes sharing the same
    /// inbox) are stashed for the next [`Fleet::scrape`].
    fn drain_control(&mut self, cluster: &mut Cluster) -> u64 {
        let mut beats = 0u64;
        for frame in cluster.recv_control_frames() {
            match frame {
                ControlFrame::Heartbeat(hb) => {
                    self.detector.heartbeat(hb.host as usize, hb.at_ns);
                    beats += 1;
                }
                ControlFrame::Metrics(mf) => self.pending_metrics.push(mf),
            }
        }
        self.telemetry.note_heartbeats(beats);
        self.last_pump_ns = cluster.clock.now_ns();
        beats
    }

    /// Emit a heartbeat round *between* ticks if at least
    /// [`HEARTBEAT_INTERVAL_NS`] of virtual time has
    /// passed since the last round. Embeddings call this from their
    /// traffic loops so long drive/traffic stages no longer starve the
    /// detector into false suspicion (the R-M2 finding); the interval
    /// floor keeps the control plane from being spammed. Returns the
    /// heartbeats observed (0 when the round was skipped).
    pub fn pump_heartbeats(&mut self, cluster: &mut Cluster) -> u64 {
        let now = cluster.clock.now_ns();
        if now.saturating_sub(self.last_pump_ns) < HEARTBEAT_INTERVAL_NS {
            return 0;
        }
        self.observe(cluster)
    }

    /// One observatory scrape pass: every live host ships its
    /// telemetry registry over the fabric as a [`MetricsFrame`]
    /// (charged the same wire costs and fault odds as data frames),
    /// the frames are drained and ingested, and the controller's own
    /// registries — cluster-wide migration telemetry and the fleet
    /// stage histograms, which include `fleet_downtime`, the blackout
    /// SLO series — are folded in under [`CONTROLLER_HOST`]. The
    /// current suspect set is handed over for burn-event correlation.
    pub fn scrape(&mut self, cluster: &mut Cluster, obs: &mut Observatory) {
        for h in 0..cluster.hosts.len() {
            if !self.down.contains(&h) {
                cluster.send_metrics(h);
            }
        }
        self.drain_control(cluster);
        let suspects: Vec<u32> = self.suspected.iter().map(|&h| h as u32).collect();
        obs.note_suspects(&suspects);
        for mf in std::mem::take(&mut self.pending_metrics) {
            obs.ingest_scrape(mf.host, mf.at_ns, &mf.series, &mf.counters);
        }
        let now = cluster.clock.now_ns();
        cluster
            .telemetry()
            .visit_histograms(|name, h| obs.ingest_local(CONTROLLER_HOST, now, name, h));
        cluster
            .telemetry()
            .visit_counters(|name, v| obs.ingest_counter(CONTROLLER_HOST, now, name, v));
        self.telemetry
            .visit_histograms(|name, h| obs.ingest_local(CONTROLLER_HOST, now, name, h));
        self.telemetry
            .visit_counters(|name, v| obs.ingest_counter(CONTROLLER_HOST, now, name, v));
    }

    /// Hosts the planner may *target*: alive by the controller's own
    /// evidence (not suspected) and not known down. Suspicion — not
    /// ground truth — gates eligibility; a false suspect merely loses
    /// traffic until its next heartbeat clears it.
    fn eligible(&self, cluster: &Cluster) -> Vec<usize> {
        (0..cluster.hosts.len())
            .filter(|h| !self.down.contains(h) && !self.suspected.contains(h))
            .collect()
    }

    fn plan(&mut self, cluster: &mut Cluster) {
        let eligible = self.eligible(cluster);
        if eligible.len() < 2 {
            return;
        }
        // Effective load per eligible host: journal placement plus the
        // prospective effect of every in-flight drive. Planning off
        // raw journal counts would pile one tick's plans onto the same
        // least-loaded destination — the moves only land ticks later.
        let mut load: BTreeMap<usize, isize> = eligible
            .iter()
            .map(|&h| (h, cluster.hosts[h].journal.mapped_vms().len() as isize))
            .collect();
        for d in self.pool.decisions() {
            if d.outcome == DriveOutcome::InFlight {
                if let Some(c) = load.get_mut(&d.src) {
                    *c -= 1;
                }
                if let Some(c) = load.get_mut(&d.dst) {
                    *c += 1;
                }
            }
        }
        let mut budget = self.cfg.max_plan_per_tick;

        // Evacuate suspected-but-not-down hosts. (A truly dead source
        // cannot push state — those VMs wait for recovery; that is the
        // protocol's one-copy rule, not a planner choice.)
        let suspects: Vec<usize> =
            self.suspected.iter().copied().filter(|h| !self.down.contains(h)).collect();
        'evac: for s in suspects {
            for (vm, _) in cluster.hosts[s].journal.mapped_vms() {
                if budget == 0 {
                    break 'evac;
                }
                if self.pool.has_vm(vm) {
                    continue;
                }
                let Some((&dst, _)) = load.iter().min_by_key(|&(&h, &c)| (c, h)) else {
                    break 'evac;
                };
                if matches!(
                    self.submit(cluster, vm, dst, DriveReason::Evacuate),
                    Submitted::Refused { .. }
                ) {
                    break 'evac;
                }
                *load.get_mut(&dst).unwrap() += 1;
                budget -= 1;
            }
        }

        // Shave load skew among eligible hosts, one VM at a time so a
        // plan never outruns what the pool can actually drive.
        while budget > 0 {
            let Some((&max_h, &max)) =
                load.iter().max_by_key(|&(&h, &c)| (c, usize::MAX - h))
            else {
                break;
            };
            let Some((&min_h, &min)) = load.iter().min_by_key(|&(&h, &c)| (c, h)) else { break };
            if max - min <= SKEW_THRESHOLD {
                break;
            }
            let Some(vm) = cluster.hosts[max_h]
                .journal
                .mapped_vms()
                .iter()
                .map(|&(vm, _)| vm)
                .find(|&vm| !self.pool.has_vm(vm))
            else {
                break;
            };
            if matches!(
                self.submit(cluster, vm, min_h, DriveReason::Rebalance),
                Submitted::Refused { .. }
            ) {
                break;
            }
            *load.get_mut(&max_h).unwrap() -= 1;
            *load.get_mut(&min_h).unwrap() += 1;
            budget -= 1;
        }
    }

    /// Step every in-flight run to completion and settle everything —
    /// the end-of-run sweep the chaos harness uses before auditing.
    pub fn drain(&mut self, cluster: &mut Cluster) -> Vec<usize> {
        let settled = self.pool.drain(cluster);
        for &idx in &settled {
            let d = self.pool.decisions()[idx];
            match d.outcome {
                DriveOutcome::Committed => self.telemetry.note_committed(d.downtime_ns),
                DriveOutcome::RejectedStale => self.telemetry.note_rejected_stale(),
                DriveOutcome::Aborted => self.telemetry.note_aborted(),
                _ => {}
            }
        }
        settled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtpm_cluster::ClusterConfig;
    use workload::generate_trace;

    fn small() -> ClusterConfig {
        ClusterConfig { frames_per_host: 1024, ..Default::default() }
    }

    fn seeded(seed: &[u8], vms: usize) -> (Cluster, Vec<u32>) {
        let mut cluster = Cluster::new(seed, small()).unwrap();
        let ids: Vec<u32> = (0..vms).map(|_| cluster.create_vm().unwrap()).collect();
        for &vm in &ids {
            for ev in generate_trace(&[seed, b"/", &[vm as u8][..]].concat(), 6) {
                cluster.apply_event(vm, &ev);
            }
        }
        (cluster, ids)
    }

    #[test]
    fn double_drive_resolves_to_exactly_one_winner() {
        let (mut cluster, vms) = seeded(b"fleet-t1", 1);
        let vm = vms[0];
        let mut fleet = Fleet::new(FleetConfig::default(), &cluster);
        let a = fleet.drive(&mut cluster, vm, 1);
        let b = fleet.drive(&mut cluster, vm, 2);
        assert!(matches!(a, Submitted::Admitted { conflict: false, .. }));
        assert!(matches!(b, Submitted::Admitted { conflict: true, .. }));
        for _ in 0..16 {
            fleet.tick(&mut cluster);
        }
        let dec: Vec<_> = fleet
            .pool()
            .decisions()
            .iter()
            .filter(|d| d.vm == vm && d.outcome != DriveOutcome::Refused)
            .collect();
        assert_eq!(dec.len(), 2);
        assert!(dec.iter().all(|d| d.conflict), "both sides of the race marked");
        let winners = dec.iter().filter(|d| d.outcome == DriveOutcome::Committed).count();
        let losers = dec.iter().filter(|d| d.outcome == DriveOutcome::RejectedStale).count();
        assert_eq!((winners, losers), (1, 1), "decisions: {dec:?}");
        assert_eq!(cluster.runnable_hosts(vm).len(), 1, "exactly one live copy");
        let snap = fleet.snapshot();
        assert_eq!(snap[FleetTelemetry::CONFLICTS], 1);
        assert_eq!(snap[FleetTelemetry::COMMITTED], 1);
        assert_eq!(snap[FleetTelemetry::REJECTED_STALE], 1);
        let downtime = snap[FleetTelemetry::DOWNTIME];
        assert!(downtime.count == 1 && downtime.max > 0);
    }

    #[test]
    fn silent_host_gets_suspected_and_drained_then_cleared_on_revival() {
        let (mut cluster, vms) = seeded(b"fleet-t2", 3);
        // Pile everything onto host 0 so the evacuation is visible.
        for &vm in &vms {
            if cluster.home_of(vm) != Some(0) {
                cluster.migrate(vm, 0);
            }
        }
        let mut fleet = Fleet::new(FleetConfig::default(), &cluster);
        fleet.pause_rebalance();
        cluster.fabric.crash_host(0);
        fleet.host_down(&mut cluster, 0);
        // Heartbeat silence accrues until host 0 crosses the threshold.
        let mut rounds = 0;
        while !fleet.suspects().contains(&0) {
            fleet.tick(&mut cluster);
            cluster.clock.advance_ns(500_000);
            rounds += 1;
            assert!(rounds < 64, "host 0 never suspected");
        }
        let snap = fleet.snapshot();
        assert_eq!(snap[FleetTelemetry::SUSPECTS_RAISED], 1);
        assert_eq!(
            snap[FleetTelemetry::FALSE_SUSPECTS],
            0,
            "a truly dead host is not a false positive"
        );
        // Revival clears the suspicion (fresh detector bootstrap).
        cluster.recover_host(0).unwrap();
        fleet.host_up(&mut cluster, 0);
        assert!(fleet.suspects().is_empty());
        fleet.tick(&mut cluster);
        assert!(fleet.suspects().is_empty());
        // The VMs survived the outage exactly once each.
        for &vm in &vms {
            assert_eq!(cluster.runnable_hosts(vm).len(), 1);
        }
    }

    #[test]
    fn planner_shaves_skew_but_not_while_paused() {
        let (mut cluster, vms) = seeded(b"fleet-t3", 4);
        for &vm in &vms {
            if cluster.home_of(vm) != Some(0) {
                cluster.migrate(vm, 0);
            }
        }
        let mut fleet = Fleet::new(FleetConfig::default(), &cluster);
        fleet.pause_rebalance();
        fleet.tick(&mut cluster);
        assert_eq!(fleet.snapshot()[FleetTelemetry::SUBMITTED], 0, "paused planner must not plan");
        fleet.resume_rebalance();
        for _ in 0..24 {
            fleet.tick(&mut cluster);
        }
        fleet.drain(&mut cluster);
        let counts: Vec<usize> =
            (0..3).map(|h| cluster.hosts[h].journal.mapped_vms().len()).collect();
        let (max, min) = (counts.iter().max().unwrap(), counts.iter().min().unwrap());
        assert!(max - min <= 1, "still skewed: {counts:?}");
        for &vm in &vms {
            assert_eq!(cluster.runnable_hosts(vm).len(), 1);
        }
        assert!(fleet.snapshot()[FleetTelemetry::COMMITTED] >= 2);
    }

    #[test]
    fn pump_respects_the_interval_floor_and_feeds_the_detector() {
        let (mut cluster, _) = seeded(b"fleet-t5", 1);
        let mut fleet = Fleet::new(FleetConfig::default(), &cluster);
        // A fresh controller just stamped last_pump_ns: pumping
        // immediately is a no-op, no matter how often it is called.
        assert_eq!(fleet.pump_heartbeats(&mut cluster), 0);
        assert_eq!(fleet.pump_heartbeats(&mut cluster), 0);
        // Past the interval, one round fires (all 4 hosts beacon)...
        cluster.clock.advance_ns(HEARTBEAT_INTERVAL_NS);
        assert_eq!(fleet.pump_heartbeats(&mut cluster), cluster.hosts.len() as u64);
        // ...and re-arms the floor.
        assert_eq!(fleet.pump_heartbeats(&mut cluster), 0);
        // Pumped rounds keep a long traffic stage from manufacturing
        // suspicion: interleave advance+pump well past where silence
        // alone would have indicted everyone.
        for _ in 0..40 {
            cluster.clock.advance_ns(HEARTBEAT_INTERVAL_NS);
            fleet.pump_heartbeats(&mut cluster);
        }
        let now = cluster.clock.now_ns();
        for h in fleet.detector.tracked() {
            assert!(!fleet.detector.is_suspect(h, now), "host {h} falsely suspected");
        }
        assert_eq!(fleet.snapshot()[FleetTelemetry::FALSE_SUSPECTS], 0);
    }

    #[test]
    fn scrape_populates_an_observatory_with_host_and_controller_series() {
        let (mut cluster, vms) = seeded(b"fleet-t6", 2);
        let mut fleet = Fleet::new(FleetConfig::default(), &cluster);
        fleet.drive(&mut cluster, vms[0], 1);
        for _ in 0..12 {
            fleet.tick(&mut cluster);
        }
        let mut obs = Observatory::default();
        fleet.scrape(&mut cluster, &mut obs);
        // Every live host shipped a frame; the controller's own
        // registries landed under the synthetic id.
        let (scrapes, rejects, resets) = obs.stats();
        assert_eq!(scrapes, cluster.hosts.len() as u64);
        assert_eq!((rejects, resets), (0, 0));
        assert!(obs.host_count() >= cluster.hosts.len() + 1);
        // The guest traffic seeded per-host `total` latencies; the
        // committed drive seeded the blackout SLO series fleet-wide.
        assert!(obs.fleet_total("total").map_or(0, |h| h.count()) > 0, "host request series missing");
        assert!(
            obs.host_total(CONTROLLER_HOST, "fleet_downtime").map_or(0, |h| h.count()) > 0,
            "controller blackout series missing"
        );
        // A second scrape diffs into deltas instead of double-counting.
        let before = obs.fleet_total("total").map_or(0, |h| h.count());
        fleet.scrape(&mut cluster, &mut obs);
        assert_eq!(obs.fleet_total("total").map_or(0, |h| h.count()), before);
    }

    #[test]
    fn pool_refusals_are_recorded_not_dropped() {
        let (mut cluster, vms) = seeded(b"fleet-t4", 2);
        let mut fleet =
            Fleet::new(FleetConfig { max_in_flight: 1, ..Default::default() }, &cluster);
        let ghost = fleet.drive(&mut cluster, 9999, 1);
        assert!(matches!(ghost, Submitted::Refused { why: "no-home", .. }));
        let first = fleet.drive(&mut cluster, vms[0], 1);
        assert!(matches!(first, Submitted::Admitted { .. }));
        let second = fleet.drive(&mut cluster, vms[1], 1);
        assert!(matches!(second, Submitted::Refused { why: "pool-full", .. }));
        assert_eq!(fleet.snapshot()[FleetTelemetry::REFUSED], 2);
        assert_eq!(fleet.pool().decisions().len(), 3);
    }
}
