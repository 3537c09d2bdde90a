//! Fleet chaos: churn-storm scenarios over the fleet control plane.
//!
//! [`FleetChaosConfig`] runs one seeded scenario with a [`Fleet`]
//! controller in the loop: heartbeat-fed failure detection, a bounded
//! pool of concurrent migration drivers, and the suspicion-driven
//! rebalancer — under continuous host churn. Each round applies guest
//! traffic, takes one seeded action (a manual drive, a deliberate
//! *double-drive* of the same VM, a fabric fault, a host crash that
//! stays down for a seeded number of rounds, or a host join), then
//! runs the controller for a few ticks so in-flight migrations
//! genuinely interleave.
//!
//! The run-end sweep is the point: every down host is revived, the
//! pool drained, every VM resolved — and then the harness requires
//! **zero lost, duplicated, or orphaned vTPMs**, every journal
//! settled, every injected conflict resolved to at most one winner,
//! and every at-rest VM byte-equal to its differential oracle. Running
//! the same seed twice must produce byte-identical reports.
//!
//! The sentinel watches the whole run through the same exhaust as the
//! migration family, plus crash-recovery markers. Each round a
//! [`crate::sentinel_feed::Actuator`] acts on the round's new alerts in
//! stream order: churn-storm and migration-blackout burn raises hold
//! the controller's rebalance pause until every raised cause has
//! cleared — the closed loop under test, not a bolt-on.

use std::collections::BTreeMap;

use tpm_crypto::drbg::Drbg;
use tpm_crypto::sha256;
use vtpm_cluster::{Cluster, ClusterConfig, FabricFault, FabricStats};
use vtpm_fleet::{DriveDecision, DriveOutcome, Fleet, FleetConfig, Submitted, CONTROLLER_HOST};
use vtpm_observatory::Observatory;
use vtpm_sentinel::{Sentinel, SentinelConfig, StreamEvent};
use vtpm_telemetry::FleetTelemetry;
use workload::{generate_trace, TpmOracle};
use xen_sim::Result as XenResult;

use crate::json::{hex, Field};
use crate::migration_chaos::fabric_field;
use crate::runner::{sentinel_tail, Scenario, ScenarioReport};
use crate::sentinel_feed::{audit_event, Actuator, Levers};

/// Tunables for one fleet-chaos scenario.
#[derive(Debug, Clone)]
pub struct FleetChaosConfig {
    /// Hosts booted up front.
    pub hosts: usize,
    /// Cap on joins (the fleet may grow to this many hosts).
    pub max_hosts: usize,
    /// VMs created up front.
    pub vms: usize,
    /// Rounds of traffic + one action + controller ticks.
    pub rounds: usize,
    /// Controller ticks per round.
    pub ticks_per_round: usize,
    /// Trace events per at-rest VM per round.
    pub events_per_round: usize,
    /// Ship sealed packages.
    pub sealed: bool,
    /// Dom0 frame budget per host.
    pub frames_per_host: usize,
    /// Diff every at-rest VM against its oracle each round (always done
    /// in the final sweep; disable per-round for large sweeps).
    pub oracle_checks: bool,
    /// Run the fleet observatory in the loop: per-round metric scrapes
    /// over the fabric, SLO burn-rate evaluation, and the burn →
    /// sentinel → rebalance-pause loop. On by default; the replay
    /// determinism gate covers it either way.
    pub observatory: bool,
    /// Controller tuning.
    pub fleet: FleetConfig,
    /// Sentinel tuning. The default raises `replay_burst` above the
    /// driver pool's concurrency: a control plane running
    /// `max_in_flight` racing drives *legitimately* loses epoch races
    /// in bursts, and the serial-migration threshold (4) would read
    /// every double-drive flurry as a replay storm. An actual replayer
    /// produces dozens of rejections, so detection keeps its teeth.
    pub sentinel: SentinelConfig,
}

impl Default for FleetChaosConfig {
    fn default() -> Self {
        FleetChaosConfig {
            hosts: 3,
            max_hosts: 5,
            vms: 4,
            rounds: 10,
            ticks_per_round: 3,
            events_per_round: 4,
            sealed: true,
            frames_per_host: 1024,
            oracle_checks: true,
            observatory: true,
            fleet: FleetConfig::default(),
            sentinel: SentinelConfig { replay_burst: 2 * FleetConfig::default().max_in_flight },
        }
    }
}

/// Everything observable about one fleet-chaos run; two runs of the
/// same seed and config must compare equal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetChaosReport {
    /// Hex of the seed.
    pub seed: String,
    /// Rounds executed.
    pub rounds: usize,
    /// Controller ticks run.
    pub ticks: u64,
    /// Drives that committed.
    pub committed: u64,
    /// Drives that aborted.
    pub aborted: u64,
    /// Drives refused stale (lost an epoch race).
    pub rejected_stale: u64,
    /// Drives abandoned to host crashes.
    pub abandoned: u64,
    /// Submissions refused before entering the pool.
    pub refused: u64,
    /// Submissions that raced another in-flight drive of the same VM.
    pub conflicts: u64,
    /// Deliberate double-drives injected (both sides admitted).
    pub conflict_pairs: u64,
    /// Injected conflicts that ended with more than one committed
    /// winner — must be zero, always.
    pub multi_winner_conflicts: u64,
    /// Host crashes injected.
    pub crashes: u64,
    /// Host revivals (every crash is revived by run end).
    pub revivals: u64,
    /// Hosts joined mid-run.
    pub joins: u64,
    /// Suspicions the detector raised.
    pub suspects_raised: u64,
    /// Suspicions against hosts that were actually alive.
    pub false_suspects: u64,
    /// Rebalance pauses applied by a churn-storm raise.
    pub storm_pauses: u64,
    /// Rebalance resumes applied by a churn-storm clear.
    pub storm_resumes: u64,
    /// Observatory metric scrape passes completed.
    pub scrapes: u64,
    /// SLO burn raises the observatory evaluated over the run — zero on
    /// an attack-free run with healthy objectives.
    pub slo_burns: u64,
    /// Matching burn clears.
    pub slo_clears: u64,
    /// Rebalance pauses applied by a migration-blackout burn raise
    /// (these burns pause the planner like churn storms do).
    pub slo_pauses: u64,
    /// Rebalance resumes applied by a migration-blackout clear.
    pub slo_resumes: u64,
    /// VMs runnable nowhere after the final sweep (must be 0).
    pub lost: u64,
    /// VMs runnable on more than one host at any check (must be 0).
    pub duplicated: u64,
    /// Manager instances without a journal mapping after the final
    /// sweep (must be 0).
    pub orphaned: u64,
    /// Journal runs still in doubt (open quiesce/prepare) after the
    /// final sweep (must be 0).
    pub unsettled: u64,
    /// p99 of quiesce→commit downtime over committed drives.
    pub downtime_p99_ns: u64,
    /// Max of the same histogram.
    pub downtime_max_ns: u64,
    /// Every driver decision, in submission order — per-attempt trace
    /// ids, winner/loser outcomes, refusal reasons.
    pub drives: Vec<DriveDecision>,
    /// Fabric counters at run end.
    pub fabric: FabricStats,
    /// Invariant violations and oracle divergences (empty when correct).
    pub divergences: Vec<String>,
    /// Sentinel alert lines over the whole run.
    pub sentinel_alerts: Vec<String>,
    /// Critical (attack-class) alerts — must be zero on clean seeds
    /// (churn-storm alerts are Warning by design).
    pub sentinel_critical: u64,
    /// SHA-256 over the run transcript.
    pub transcript: [u8; 32],
}

impl ScenarioReport for FleetChaosReport {
    const FAMILY: &'static str = "fleet";

    fn fields(&self) -> Vec<(&'static str, Field)> {
        let drives = self
            .drives
            .iter()
            .map(|d| {
                Field::Obj(vec![
                    ("vm", u64::from(d.vm).into()),
                    ("src", d.src.into()),
                    ("dst", d.dst.into()),
                    ("epoch", d.epoch.into()),
                    ("trace", d.trace.into()),
                    ("reason", d.reason.label().into()),
                    ("conflict", d.conflict.into()),
                    ("outcome", d.outcome.label().into()),
                    ("downtime_ns", d.downtime_ns.into()),
                    ("why", d.why.into()),
                ])
            })
            .collect();
        vec![
            ("seed", self.seed.as_str().into()),
            ("rounds", self.rounds.into()),
            ("ticks", self.ticks.into()),
            ("committed", self.committed.into()),
            ("aborted", self.aborted.into()),
            ("rejected_stale", self.rejected_stale.into()),
            ("abandoned", self.abandoned.into()),
            ("refused", self.refused.into()),
            ("conflicts", self.conflicts.into()),
            ("conflict_pairs", self.conflict_pairs.into()),
            ("multi_winner_conflicts", self.multi_winner_conflicts.into()),
            ("crashes", self.crashes.into()),
            ("revivals", self.revivals.into()),
            ("joins", self.joins.into()),
            ("suspects_raised", self.suspects_raised.into()),
            ("false_suspects", self.false_suspects.into()),
            ("storm_pauses", self.storm_pauses.into()),
            ("storm_resumes", self.storm_resumes.into()),
            ("scrapes", self.scrapes.into()),
            ("slo_burns", self.slo_burns.into()),
            ("slo_clears", self.slo_clears.into()),
            ("slo_pauses", self.slo_pauses.into()),
            ("slo_resumes", self.slo_resumes.into()),
            ("lost", self.lost.into()),
            ("duplicated", self.duplicated.into()),
            ("orphaned", self.orphaned.into()),
            ("unsettled", self.unsettled.into()),
            ("downtime_p99_ns", self.downtime_p99_ns.into()),
            ("downtime_max_ns", self.downtime_max_ns.into()),
            ("drives", Field::List(drives)),
            ("fabric", fabric_field(&self.fabric)),
            ("divergences", Field::strs(&self.divergences)),
            ("sentinel_alerts", Field::strs(&self.sentinel_alerts)),
            ("sentinel_critical", self.sentinel_critical.into()),
            ("transcript", Field::Digest(self.transcript)),
        ]
    }

    /// No divergences, every VM accounted for exactly once (zero lost /
    /// duplicated / orphaned, journals settled), every injected
    /// conflict resolved to at most one winner, and no critical
    /// sentinel alert (churn-storm alerts are Warning-class and
    /// expected).
    fn clean(&self) -> bool {
        self.divergences.is_empty()
            && self.lost == 0
            && self.duplicated == 0
            && self.orphaned == 0
            && self.unsettled == 0
            && self.multi_winner_conflicts == 0
            && self.sentinel_critical == 0
    }
}

impl Scenario for FleetChaosConfig {
    type Report = FleetChaosReport;

    /// Run one seeded fleet-chaos scenario. Deterministic in `seed` and
    /// `self`.
    fn run(&self, seed: &[u8]) -> XenResult<FleetChaosReport> {
        let mut rng = Drbg::new(&[seed, b"/fleet-chaos"].concat());
        let mut cluster = Cluster::new(
            &[seed, b"/cluster"].concat(),
            ClusterConfig {
                hosts: self.hosts,
                sealed: self.sealed,
                frames_per_host: self.frames_per_host,
                ..Default::default()
            },
        )?;
        let mut fleet = Fleet::new(self.fleet, &cluster);
        let mut sentinel = Sentinel::new(self.sentinel);
        let mut observatory = self.observatory.then(|| Observatory::new(Default::default()));

        let mut report =
            FleetChaosReport { seed: hex(seed), rounds: self.rounds, ..Default::default() };
        let mut transcript: Vec<u8> = Vec::new();

        let mut oracles: Vec<TpmOracle> = Vec::new();
        for _ in 0..self.vms {
            let vm = cluster.create_vm()?;
            oracles.push(cluster.with_vm(vm, |i| TpmOracle::capture(&i.tpm)).expect("fresh vm"));
        }

        // Down hosts and the round each revives in (harness fiat: a down
        // host is not stepped, pumped, or heartbeated until revival).
        let mut down: BTreeMap<usize, usize> = BTreeMap::new();
        // Injected double-drives, as decision-index pairs.
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        // Stream cursors so the sentinel sees each record exactly once.
        let mut audit_fed = vec![0usize; self.hosts];
        let mut spans_fed = 0usize;
        let mut actuator = Actuator::default();

        let revive =
            |cluster: &mut Cluster, fleet: &mut Fleet, sentinel: &mut Sentinel, h: usize| -> XenResult<()> {
                cluster.recover_host(h)?;
                fleet.host_up(cluster, h);
                sentinel.observe(StreamEvent::CrashRecovery {
                    host: h as u32,
                    at_ns: cluster.hosts[h].platform.hv.clock.now_ns(),
                });
                Ok(())
            };

        for round in 0..self.rounds {
            transcript.extend_from_slice(&(round as u32).to_be_bytes());

            // Revivals due this round.
            let due: Vec<usize> =
                down.iter().filter(|&(_, &at)| at <= round).map(|(&h, _)| h).collect();
            let mut revived: Vec<usize> = Vec::new();
            for h in due {
                revive(&mut cluster, &mut fleet, &mut sentinel, h)?;
                down.remove(&h);
                revived.push(h);
                report.revivals += 1;
                transcript.extend_from_slice(&[b'U', h as u8]);
            }

            // Traffic against every at-rest VM on a live host.
            for vm in 0..self.vms as u32 {
                let runnable = cluster.runnable_hosts(vm);
                let [home] = runnable[..] else { continue };
                if down.contains_key(&home) || fleet.pool().has_vm(vm) {
                    continue;
                }
                let trace_seed =
                    [seed, b"/traffic/", &(round as u32).to_be_bytes(), &vm.to_be_bytes()].concat();
                for ev in generate_trace(&trace_seed, self.events_per_round) {
                    if cluster.apply_event(vm, &ev) {
                        oracles[vm as usize].apply(&ev);
                    } else {
                        report
                            .divergences
                            .push(format!("round {round}: vm {vm} refused traffic at rest"));
                    }
                }
                // Traffic advances virtual time; keep heartbeats flowing
                // through long stages so silence stays an evidence of
                // failure, not of a busy harness (the R-M2 false-suspect
                // fix). The call is interval-gated, so this is cheap.
                fleet.pump_heartbeats(&mut cluster);
            }

            let homes: Vec<Option<usize>> =
                (0..self.vms as u32).map(|v| cluster.home_of(v)).collect();

            // One seeded action. Drives only touch VMs homed on live hosts
            // and live destinations — a dead toolstack daemon submits
            // nothing; everything else is fair game.
            let up: Vec<usize> =
                (0..cluster.hosts.len()).filter(|h| !down.contains_key(h)).collect();
            let drivable: Vec<u32> = (0..self.vms as u32)
                .filter(|&vm| {
                    cluster.home_of(vm).is_some_and(|h| !down.contains_key(&h))
                        && !fleet.pool().has_vm(vm)
                })
                .collect();
            match rng.below(6) {
                // Single drive.
                0 | 1 if !drivable.is_empty() && up.len() >= 2 => {
                    let vm = drivable[rng.below(drivable.len() as u64) as usize];
                    let home = cluster.home_of(vm).expect("drivable");
                    let others: Vec<usize> = up.iter().copied().filter(|&h| h != home).collect();
                    let dst = others[rng.below(others.len() as u64) as usize];
                    fleet.drive(&mut cluster, vm, dst);
                    transcript.extend_from_slice(&[b'D', vm as u8, dst as u8]);
                }
                // Double-drive: the same VM toward two destinations in the
                // same breath — the epoch-arbitration race on purpose.
                2 if !drivable.is_empty() && up.len() >= 3 => {
                    let vm = drivable[rng.below(drivable.len() as u64) as usize];
                    let home = cluster.home_of(vm).expect("drivable");
                    let others: Vec<usize> = up.iter().copied().filter(|&h| h != home).collect();
                    let d1 = others[rng.below(others.len() as u64) as usize];
                    let mut d2 = others[rng.below(others.len() as u64) as usize];
                    if d2 == d1 {
                        d2 = others[(others.iter().position(|&h| h == d1).unwrap() + 1)
                            % others.len()];
                    }
                    let a = fleet.drive(&mut cluster, vm, d1);
                    let b = fleet.drive(&mut cluster, vm, d2);
                    if let (Submitted::Admitted { idx: ia, .. }, Submitted::Admitted { idx: ib, .. }) =
                        (a, b)
                    {
                        pairs.push((ia, ib));
                        report.conflict_pairs += 1;
                    }
                    transcript.extend_from_slice(&[b'W', vm as u8, d1 as u8, d2 as u8]);
                }
                // Fabric fault armed on an upcoming send (control-plane
                // heartbeats ride the same counter, so drops here are how
                // false suspects happen).
                3 => {
                    let kind = match rng.below(3) {
                        0 => FabricFault::Drop,
                        1 => FabricFault::Duplicate,
                        _ => FabricFault::Reorder,
                    };
                    let at = cluster.fabric.stats().sent + rng.below(8);
                    cluster.fabric.inject_fault(at, kind);
                    transcript.push(b'F');
                }
                // Crash a host; it stays down for a seeded number of
                // rounds. Never the last live host.
                4 if up.len() > 1 => {
                    let h = up[rng.below(up.len() as u64) as usize];
                    cluster.fabric.crash_host(h);
                    fleet.host_down(&mut cluster, h);
                    down.insert(h, round + 1 + rng.below(3) as usize);
                    report.crashes += 1;
                    transcript.extend_from_slice(&[b'X', h as u8]);
                }
                // Join a host (until the cap).
                5 if cluster.hosts.len() < self.max_hosts => {
                    let h = cluster.add_host()?;
                    fleet.host_joined(&cluster, h);
                    audit_fed.push(0);
                    report.joins += 1;
                    transcript.extend_from_slice(&[b'J', h as u8]);
                }
                _ => transcript.push(b'Q'),
            }

            // Run the controller.
            for _ in 0..self.ticks_per_round {
                fleet.tick(&mut cluster);
            }
            // Adoption is a restore (fresh TPM boot over preserved state),
            // and so is recovery: sync the oracles' active-counter latches.
            for vm in 0..self.vms as u32 {
                let now = cluster.home_of(vm);
                let moved = now != homes[vm as usize];
                let revived_home = now.is_some_and(|h| revived.contains(&h));
                if moved || revived_home {
                    oracles[vm as usize].note_reboot();
                }
            }

            // Per-round invariants: no VM may ever be runnable twice; VMs
            // at rest on live hosts must match their oracles.
            for vm in 0..self.vms as u32 {
                let runnable = cluster.runnable_hosts(vm);
                if runnable.len() > 1 {
                    report.duplicated += 1;
                    report
                        .divergences
                        .push(format!("round {round}: vm {vm} runnable on {runnable:?}"));
                }
                transcript.push(cluster.home_of(vm).map_or(0xFF, |h| h as u8));
                if self.oracle_checks {
                    let [home] = runnable[..] else { continue };
                    if down.contains_key(&home) || fleet.pool().has_vm(vm) {
                        continue;
                    }
                    match cluster.with_vm(vm, |i| oracles[vm as usize].diff(&i.tpm)) {
                        Some(d) if d.is_empty() => {}
                        Some(d) => report
                            .divergences
                            .push(format!("round {round}: vm {vm} diverged: {}", d.join("; "))),
                        None => report
                            .divergences
                            .push(format!("round {round}: vm {vm} has no live instance")),
                    }
                }
            }

            // Observatory pass: scrape every host's registry over the
            // fabric, evaluate the SLO burn rules on the merged fleet
            // series, and publish burn transitions to the sentinel as
            // `slo_burn:<rule>` gauges (worst-window ratio in percent;
            // zero on a clear).
            if let Some(obs) = observatory.as_mut() {
                fleet.scrape(&mut cluster, obs);
                report.scrapes += 1;
                for ev in obs.evaluate(cluster.clock.now_ns()) {
                    if ev.burning {
                        report.slo_burns += 1;
                    } else {
                        report.slo_clears += 1;
                    }
                    sentinel.observe(StreamEvent::Gauge {
                        host: CONTROLLER_HOST,
                        at_ns: ev.at_ns,
                        name: ev.gauge,
                        value: (ev.burn_ratio * 100.0) as u64,
                    });
                }
            }

            // Feed the round's exhaust to the sentinel, then close the
            // loop: the actuator holds the rebalance pause while a churn
            // storm or a migration-blackout burn is raised.
            for (h, fed) in audit_fed.iter_mut().enumerate() {
                let entries = cluster.hosts[h].audit.entries();
                for e in &entries[*fed..] {
                    sentinel.observe(audit_event(h as u32, e));
                }
                *fed = entries.len();
            }
            let spans = cluster.telemetry().spans();
            for m in &spans[spans_fed..] {
                sentinel.observe(StreamEvent::MigrationSpan(m.clone()));
            }
            spans_fed = spans.len();
            let acted =
                actuator.apply(&sentinel, Levers { fleet: Some(&mut fleet), ..Levers::default() });
            report.storm_pauses += acted.storm_pauses as u64;
            report.storm_resumes += acted.storm_resumes as u64;
            report.slo_pauses += acted.slo_pauses as u64;
            report.slo_resumes += acted.slo_resumes as u64;
        }

        // Final sweep: revive everything, drain the pool, settle every VM,
        // then account for each one exactly once.
        let still_down: Vec<usize> = down.keys().copied().collect();
        for h in still_down {
            revive(&mut cluster, &mut fleet, &mut sentinel, h)?;
            down.remove(&h);
            report.revivals += 1;
        }
        let drained_homes: Vec<Option<usize>> =
            (0..self.vms as u32).map(|v| cluster.home_of(v)).collect();
        fleet.drain(&mut cluster);
        for vm in 0..self.vms as u32 {
            cluster.resolve(vm);
            if cluster.home_of(vm) != drained_homes[vm as usize] {
                oracles[vm as usize].note_reboot();
            }
        }
        for vm in 0..self.vms as u32 {
            let runnable = cluster.runnable_hosts(vm);
            match runnable.len() {
                0 => {
                    report.lost += 1;
                    report.divergences.push(format!("final: vm {vm} runnable nowhere"));
                }
                1 => match cluster.with_vm(vm, |i| oracles[vm as usize].diff(&i.tpm)) {
                    Some(d) if d.is_empty() => {}
                    Some(d) => report
                        .divergences
                        .push(format!("final: vm {vm} diverged: {}", d.join("; "))),
                    None => report.divergences.push(format!("final: vm {vm} has no live instance")),
                },
                _ => {
                    report.duplicated += 1;
                    report.divergences.push(format!("final: vm {vm} runnable on {runnable:?}"));
                }
            }
        }
        // Orphans (instances without a journal mapping), in-doubt journal
        // runs, audit chain integrity — per host.
        for h in 0..cluster.hosts.len() {
            let mapped: Vec<_> =
                cluster.hosts[h].journal.mapped_vms().iter().map(|&(_, l)| l).collect();
            for id in cluster.hosts[h].platform.manager.instance_ids() {
                if !mapped.contains(&id) {
                    report.orphaned += 1;
                    report.divergences.push(format!("final: host {h} orphaned instance {id:?}"));
                }
            }
            for vm in 0..self.vms as u32 {
                if cluster.hosts[h].journal.open_quiesce(vm).is_some()
                    || cluster.hosts[h].journal.open_prepare(vm).is_some()
                {
                    report.unsettled += 1;
                    report
                        .divergences
                        .push(format!("final: host {h} journal still in doubt for vm {vm}"));
                }
            }
            let entries = cluster.hosts[h].audit.entries();
            if !vtpm_ac::AuditLog::verify(&entries) {
                report.divergences.push(format!("final: host {h} audit chain broken"));
            }
            transcript.extend_from_slice(&(entries.len() as u32).to_be_bytes());
            transcript
                .extend_from_slice(&(cluster.hosts[h].journal.records().len() as u32).to_be_bytes());
        }
        // Every injected conflict: at most one winner, ever.
        for &(ia, ib) in &pairs {
            let d = fleet.pool().decisions();
            let winners = [d[ia], d[ib]]
                .iter()
                .filter(|d| d.outcome == DriveOutcome::Committed)
                .count();
            if winners > 1 {
                report.multi_winner_conflicts += 1;
                report.divergences.push(format!(
                    "final: conflict over vm {} produced {winners} winners",
                    d[ia].vm
                ));
            }
        }

        // Fold the controller's own accounting into the report.
        let snap = fleet.snapshot();
        report.ticks = snap[FleetTelemetry::TICKS];
        report.committed = snap[FleetTelemetry::COMMITTED];
        report.aborted = snap[FleetTelemetry::ABORTED];
        report.rejected_stale = snap[FleetTelemetry::REJECTED_STALE];
        report.abandoned = snap[FleetTelemetry::ABANDONED];
        report.refused = snap[FleetTelemetry::REFUSED];
        report.conflicts = snap[FleetTelemetry::CONFLICTS];
        report.suspects_raised = snap[FleetTelemetry::SUSPECTS_RAISED];
        report.false_suspects = snap[FleetTelemetry::FALSE_SUSPECTS];
        report.downtime_p99_ns = snap[FleetTelemetry::DOWNTIME].p99;
        report.downtime_max_ns = snap[FleetTelemetry::DOWNTIME].max;
        report.drives = fleet.pool().decisions().to_vec();
        report.fabric = cluster.fabric.stats();

        for d in &report.drives {
            transcript.extend_from_slice(&d.vm.to_be_bytes());
            transcript.extend_from_slice(&d.epoch.to_be_bytes());
            transcript.extend_from_slice(&d.trace.to_be_bytes());
            transcript.extend_from_slice(d.outcome.label().as_bytes());
        }
        for n in [
            report.fabric.sent,
            report.fabric.delivered,
            report.fabric.dropped,
            report.fabric.duplicated,
            report.fabric.reordered,
            report.fabric.crash_lost,
            snap[FleetTelemetry::HEARTBEATS_SEEN],
        ] {
            transcript.extend_from_slice(&n.to_be_bytes());
        }
        if let Some(obs) = &observatory {
            let (scraped, rejects, resets) = obs.stats();
            for n in [scraped, rejects, resets, report.slo_burns, report.slo_clears] {
                transcript.extend_from_slice(&n.to_be_bytes());
            }
        }
        (report.sentinel_alerts, report.sentinel_critical) =
            sentinel_tail(&sentinel, &mut transcript);
        report.transcript = sha256(&transcript);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{replay, report_json};

    #[test]
    fn fleet_chaos_is_deterministic_and_accounts_for_every_vm() {
        let cfg = FleetChaosConfig { rounds: 8, ..Default::default() };
        let (a, deterministic) = replay(&cfg, b"fleet-chaos-unit").unwrap();
        assert!(deterministic, "replay must be byte-identical");
        assert!(a.divergences.is_empty(), "divergences: {:?}", a.divergences);
        assert_eq!((a.lost, a.duplicated, a.orphaned, a.unsettled), (0, 0, 0, 0));
        assert_eq!(a.multi_winner_conflicts, 0);
        assert!(a.ticks > 0 && a.committed + a.aborted + a.rejected_stale + a.crashes > 0);
        let c = cfg.run(b"fleet-chaos-unit-2").unwrap();
        assert_ne!(a.transcript, c.transcript, "different seeds, different transcripts");
    }

    #[test]
    fn double_drives_surface_in_the_decision_log() {
        // Sweep seeds until one injects a double-drive, then check the
        // decision log tells the winner/loser story end to end.
        for s in 0..16u8 {
            let cfg = FleetChaosConfig { rounds: 12, ..Default::default() };
            let r = cfg.run(&[&b"fleet-pair-"[..], &[s]].concat()).unwrap();
            assert!(r.divergences.is_empty(), "seed {s}: {:?}", r.divergences);
            if r.conflict_pairs == 0 {
                continue;
            }
            assert!(r.conflicts >= r.conflict_pairs);
            let conflicted: Vec<_> = r.drives.iter().filter(|d| d.conflict).collect();
            assert!(conflicted.len() >= 2);
            assert!(conflicted.iter().all(|d| d.trace != 0), "admitted drives carry trace ids");
            return;
        }
        panic!("no seed injected a double-drive in 16 tries");
    }

    #[test]
    fn report_json_is_one_line_and_tagged() {
        let cfg = FleetChaosConfig { rounds: 3, vms: 2, ..Default::default() };
        let r = cfg.run(b"fleet-json-unit").unwrap();
        let json = report_json(&r);
        assert!(json.starts_with("{\"family\":\"fleet\","));
        assert!(!json.contains('\n'));
        assert!(json.contains("\"drives\":["));
        assert!(json.contains("\"downtime_p99_ns\":"));
    }

    #[test]
    fn fleet_verdict_flips_on_each_failure_condition() {
        assert!(FleetChaosReport::default().clean());
        let base = FleetChaosReport::default;
        for unclean in [
            FleetChaosReport { divergences: vec!["final: x".into()], ..base() },
            FleetChaosReport { lost: 1, ..base() },
            FleetChaosReport { duplicated: 1, ..base() },
            FleetChaosReport { orphaned: 1, ..base() },
            FleetChaosReport { unsettled: 1, ..base() },
            FleetChaosReport { multi_winner_conflicts: 1, ..base() },
            FleetChaosReport { sentinel_critical: 1, ..base() },
        ] {
            assert!(!unclean.clean(), "{unclean:?}");
        }
    }
}
