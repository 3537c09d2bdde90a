//! Migration chaos: seeded multi-host scenarios over the cluster layer,
//! and the exhaustive crash-at-every-step matrix.
//!
//! Two [`Scenario`]s:
//!
//! * [`MigrationChaosConfig`] — one seeded scenario on a live cluster:
//!   workload traffic interleaved with migrations, fabric faults
//!   (drop/duplicate/reorder at seeded send offsets), mid-protocol host
//!   crashes, and rebalance passes. After every round the harness
//!   asserts the exactly-once invariant (each VM runnable on exactly
//!   one host) and diffs every VM against its [`TpmOracle`]. Running
//!   the same seed twice must produce byte-identical reports.
//!
//! * [`CrashMatrix`] — the systematic half: for both roles
//!   (source, destination) and every protocol step `k` in `0..=8`,
//!   drive a migration exactly `k` steps, crash that role's host,
//!   recover it, resolve, and require the VM runnable on exactly one
//!   host with oracle-verified state — never a mixed or duplicated
//!   copy. Completed handoffs additionally get the captured `Transfer`
//!   frame replayed at the new home, which the burned-epoch check must
//!   refuse.

use tpm_crypto::drbg::Drbg;
use tpm_crypto::sha256;
use vtpm_cluster::{
    Cluster, ClusterConfig, FabricFault, FabricStats, MigMessage, MigrateOutcome,
};
use vtpm_sentinel::{Sentinel, SentinelConfig, StreamEvent};
use workload::{generate_trace, TpmOracle};
use xen_sim::Result as XenResult;

use crate::json::{hex, Field};
use crate::runner::{critical_count, sentinel_tail, Scenario, ScenarioReport};
use crate::sentinel_feed::{audit_event, dump_event};

/// Tunables for one migration-chaos scenario.
#[derive(Debug, Clone)]
pub struct MigrationChaosConfig {
    /// Hosts in the cluster.
    pub hosts: usize,
    /// VMs created up front.
    pub vms: usize,
    /// Rounds of traffic + one action each.
    pub rounds: usize,
    /// Trace events per VM per round.
    pub events_per_round: usize,
    /// Ship sealed packages (`false` = cleartext baseline).
    pub sealed: bool,
    /// Dom0 frame budget per host.
    pub frames_per_host: usize,
}

impl Default for MigrationChaosConfig {
    fn default() -> Self {
        MigrationChaosConfig {
            hosts: 3,
            vms: 3,
            rounds: 10,
            events_per_round: 6,
            sealed: true,
            frames_per_host: 1024,
        }
    }
}

/// Everything observable about one migration-chaos run; two runs of the
/// same seed and config must compare equal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MigrationChaosReport {
    /// Hex of the seed.
    pub seed: String,
    /// Rounds executed.
    pub rounds: usize,
    /// Migrations that committed.
    pub committed: u64,
    /// Migrations that aborted.
    pub aborted: u64,
    /// Attempts the destination refused as stale (burned epoch).
    pub rejected_stale: u64,
    /// Mid-protocol host crash/recovery cycles.
    pub crashes: u64,
    /// VMs moved by rebalance passes.
    pub rebalance_moves: u64,
    /// Fabric counters at run end.
    pub fabric: FabricStats,
    /// Invariant violations and oracle divergences (empty when correct).
    pub divergences: Vec<String>,
    /// Sentinel alert lines over the whole run (audit chains, migration
    /// spans, crash markers from every host feed one stream).
    pub sentinel_alerts: Vec<String>,
    /// Critical (attack-class) alerts among `sentinel_alerts` — must be
    /// zero on clean seeds (the R-D1 false-positive gate).
    pub sentinel_critical: u64,
    /// Black-box flight dumps the sentinel captured.
    pub sentinel_flight_dumps: u64,
    /// SHA-256 over the run transcript.
    pub transcript: [u8; 32],
}

impl ScenarioReport for MigrationChaosReport {
    const FAMILY: &'static str = "migration";

    fn fields(&self) -> Vec<(&'static str, Field)> {
        vec![
            ("seed", self.seed.as_str().into()),
            ("rounds", self.rounds.into()),
            ("committed", self.committed.into()),
            ("aborted", self.aborted.into()),
            ("rejected_stale", self.rejected_stale.into()),
            ("crashes", self.crashes.into()),
            ("rebalance_moves", self.rebalance_moves.into()),
            ("fabric", fabric_field(&self.fabric)),
            ("divergences", Field::strs(&self.divergences)),
            ("sentinel_alerts", Field::strs(&self.sentinel_alerts)),
            ("sentinel_critical", self.sentinel_critical.into()),
            ("sentinel_flight_dumps", self.sentinel_flight_dumps.into()),
            ("transcript", Field::Digest(self.transcript)),
        ]
    }

    /// Divergence-free, and no critical sentinel alert (this family
    /// injects faults, never attacks).
    fn clean(&self) -> bool {
        self.divergences.is_empty() && self.sentinel_critical == 0
    }
}

/// Fabric counters as a nested report object (migration and fleet).
pub(crate) fn fabric_field(f: &FabricStats) -> Field {
    Field::Obj(vec![
        ("sent", f.sent.into()),
        ("delivered", f.delivered.into()),
        ("dropped", f.dropped.into()),
        ("duplicated", f.duplicated.into()),
        ("reordered", f.reordered.into()),
        ("crash_lost", f.crash_lost.into()),
    ])
}

/// Assert the exactly-once invariant and the oracle diff for `vm`.
fn check_vm(
    cluster: &Cluster,
    vm: u32,
    oracle: &TpmOracle,
    at: &str,
    divergences: &mut Vec<String>,
) {
    let runnable = cluster.runnable_hosts(vm);
    if runnable.len() != 1 {
        divergences.push(format!("{at}: vm {vm} runnable on {runnable:?}, expected exactly one"));
        return;
    }
    match cluster.with_vm(vm, |i| oracle.diff(&i.tpm)) {
        Some(d) if d.is_empty() => {}
        Some(d) => divergences.push(format!("{at}: vm {vm} diverged: {}", d.join("; "))),
        None => divergences.push(format!("{at}: vm {vm} has no live instance")),
    }
}

/// A recovered manager (or an adopted instance) is a fresh TPM boot
/// over preserved permanent state: sync each affected oracle's
/// active-counter latch. A VM is affected when it moved hosts (adopt is
/// a restore) or its current home is the host that just crashed.
fn sync_reboots(
    cluster: &Cluster,
    homes_before: &[Option<usize>],
    crashed: Option<usize>,
    oracles: &mut [TpmOracle],
) {
    for (vm, oracle) in oracles.iter_mut().enumerate() {
        let now = cluster.home_of(vm as u32);
        if now != homes_before[vm] || (now.is_some() && now == crashed) {
            oracle.note_reboot();
        }
    }
}

impl Scenario for MigrationChaosConfig {
    type Report = MigrationChaosReport;

    /// Run one seeded migration-chaos scenario. Deterministic in `seed`
    /// and `self`.
    fn run(&self, seed: &[u8]) -> XenResult<MigrationChaosReport> {
        let mut rng = Drbg::new(&[seed, b"/mig-chaos"].concat());
        let mut cluster = Cluster::new(
            &[seed, b"/cluster"].concat(),
            ClusterConfig {
                hosts: self.hosts,
                sealed: self.sealed,
                frames_per_host: self.frames_per_host,
                ..Default::default()
            },
        )?;
        let mut report = MigrationChaosReport {
            seed: hex(seed),
            rounds: self.rounds,
            ..Default::default()
        };
        let mut transcript: Vec<u8> = Vec::new();
        let mut sentinel = Sentinel::new(SentinelConfig::default());
        // Stream cursors: audit entries already fed, per host, and
        // migration spans already fed — the sentinel sees each record once,
        // in a deterministic host-major order per round.
        let mut audit_fed = vec![0usize; self.hosts];
        let mut spans_fed = 0usize;

        let mut oracles: Vec<TpmOracle> = Vec::new();
        for _ in 0..self.vms {
            let vm = cluster.create_vm()?;
            oracles.push(cluster.with_vm(vm, |i| TpmOracle::capture(&i.tpm)).expect("fresh vm"));
        }

        for round in 0..self.rounds {
            transcript.extend_from_slice(&(round as u32).to_be_bytes());

            // Traffic against every VM (all are at rest between rounds).
            for vm in 0..self.vms as u32 {
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
            }

            // One seeded action.
            let vm = rng.below(self.vms as u64) as u32;
            let home = cluster.home_of(vm).unwrap_or(0);
            let dst = (home + 1 + rng.below((self.hosts - 1) as u64) as usize) % self.hosts;
            let homes: Vec<Option<usize>> =
                (0..self.vms as u32).map(|v| cluster.home_of(v)).collect();
            let mut crashed = None;
            match rng.below(4) {
                // Clean migration, or one with a fabric fault armed on an
                // upcoming send.
                action @ (0 | 1) => {
                    if action == 1 {
                        let kind = match rng.below(3) {
                            0 => FabricFault::Drop,
                            1 => FabricFault::Duplicate,
                            _ => FabricFault::Reorder,
                        };
                        let at = cluster.fabric.stats().sent + rng.below(8);
                        cluster.fabric.inject_fault(at, kind);
                        transcript.push(b'F');
                    }
                    let outcome = cluster.migrate(vm, dst);
                    transcript.push(match outcome {
                        MigrateOutcome::Committed => {
                            report.committed += 1;
                            b'C'
                        }
                        MigrateOutcome::Aborted => {
                            report.aborted += 1;
                            b'A'
                        }
                        MigrateOutcome::RejectedStale => {
                            report.rejected_stale += 1;
                            b'R'
                        }
                    });
                }
                // Crash one side after a seeded number of protocol steps,
                // recover it, settle via the journals.
                2 => {
                    let k = rng.below(9) as usize;
                    let crash_src = rng.below(2) == 0;
                    if let Some(mut run) = cluster.begin_migration(vm, dst) {
                        for _ in 0..k {
                            if !cluster.step(&mut run) {
                                break;
                            }
                        }
                        let h = if crash_src { run.src } else { run.dst };
                        cluster.recover_host(h)?;
                        crashed = Some(h);
                        cluster.resolve(vm);
                        report.crashes += 1;
                        transcript.extend_from_slice(&[b'X', h as u8, k as u8]);
                    }
                }
                // Rebalance pass.
                _ => {
                    let moves = cluster.rebalance().expect("chaos cluster has hosts");
                    report.rebalance_moves += moves as u64;
                    transcript.extend_from_slice(&[b'B', moves as u8]);
                }
            }

            sync_reboots(&cluster, &homes, crashed, &mut oracles);
            for v in 0..self.vms as u32 {
                check_vm(&cluster, v, &oracles[v as usize], &format!("round {round}"), &mut report.divergences);
                transcript.push(cluster.home_of(v).map_or(0xFF, |h| h as u8));
            }

            // Feed this round's observability exhaust to the sentinel:
            // every host's new audit entries, then new migration spans,
            // then the crash marker if one fired.
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
            if let Some(h) = crashed {
                // Stamped on the crashed host's own clock — the same one its
                // recovery scan's dump-trail entry carries — so the sentinel
                // can correlate the two.
                sentinel.observe(StreamEvent::CrashRecovery {
                    host: h as u32,
                    at_ns: cluster.hosts[h].platform.hv.clock.now_ns(),
                });
            }
        }

        // Final sweep: invariants, audit chains, fabric counters.
        for v in 0..self.vms as u32 {
            check_vm(&cluster, v, &oracles[v as usize], "final", &mut report.divergences);
        }
        for h in 0..self.hosts {
            let entries = cluster.hosts[h].audit.entries();
            if !vtpm_ac::AuditLog::verify(&entries) {
                report.divergences.push(format!("final: host {h} audit chain broken"));
            }
            transcript.extend_from_slice(&(entries.len() as u32).to_be_bytes());
            transcript
                .extend_from_slice(&(cluster.hosts[h].journal.records().len() as u32).to_be_bytes());
        }
        report.fabric = cluster.fabric.stats();
        for n in [
            report.fabric.sent,
            report.fabric.delivered,
            report.fabric.dropped,
            report.fabric.duplicated,
            report.fabric.reordered,
            report.fabric.crash_lost,
        ] {
            transcript.extend_from_slice(&n.to_be_bytes());
        }
        // Close out the sentinel stream: every host's dump trail. The only
        // dumps a fault-injecting (but attack-free) run produces are the
        // crash-recovery scans, which the sentinel excuses by correlation
        // with the CrashRecovery markers fed above.
        for h in 0..self.hosts {
            for d in cluster.hosts[h].platform.hv.dump_events() {
                sentinel.observe(dump_event(h as u32, &d));
            }
        }
        (report.sentinel_alerts, report.sentinel_critical) =
            sentinel_tail(&sentinel, &mut transcript);
        report.sentinel_flight_dumps = sentinel.flight_dumps().len() as u64;
        transcript.push(report.sentinel_flight_dumps as u8);
        report.transcript = sha256(&transcript);
        Ok(report)
    }
}

/// The exhaustive crash-at-every-step matrix: crash {source,
/// destination} after every protocol step `k` in `0..=8`, on a fresh
/// two-host cluster per cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashMatrix {
    /// Ship sealed packages (`false` = cleartext baseline).
    pub sealed: bool,
}

/// One cell of the crash matrix.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MatrixCell {
    /// Which side crashed: `"src"` or `"dst"`.
    pub role: &'static str,
    /// Protocol steps completed before the crash (0..=8).
    pub after_step: usize,
    /// The one host the VM was runnable on after recovery + resolve.
    pub survivor: usize,
    /// Whether the handoff had committed (VM ended on the destination).
    pub moved: bool,
}

/// Result of the exhaustive crash-at-every-step matrix.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrashMatrixReport {
    /// Hex of the seed.
    pub seed: String,
    /// One cell per (role, k): 18 total.
    pub cells: Vec<MatrixCell>,
    /// Replayed `Transfer` frames refused at the new home.
    pub replays_rejected: u64,
    /// Invariant violations (empty when correct).
    pub failures: Vec<String>,
    /// Critical sentinel alerts summed over every cell (each cell runs
    /// its own sentinel over both hosts' audit chains and dump trails;
    /// a single replayed frame stays under the replay-watch burst, so
    /// clean cells contribute zero).
    pub sentinel_critical: u64,
    /// SHA-256 over the matrix transcript.
    pub transcript: [u8; 32],
}

impl ScenarioReport for CrashMatrixReport {
    const FAMILY: &'static str = "matrix";

    fn fields(&self) -> Vec<(&'static str, Field)> {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                Field::Obj(vec![
                    ("role", c.role.into()),
                    ("after_step", c.after_step.into()),
                    ("survivor", c.survivor.into()),
                    ("moved", c.moved.into()),
                ])
            })
            .collect();
        vec![
            ("seed", self.seed.as_str().into()),
            ("cells", Field::List(cells)),
            ("replays_rejected", self.replays_rejected.into()),
            ("failures", Field::strs(&self.failures)),
            ("sentinel_critical", self.sentinel_critical.into()),
            ("transcript", Field::Digest(self.transcript)),
        ]
    }

    /// No invariant failure, and every cell ran: 2 roles x 9 crash
    /// points. (Cell sentinel false positives are already failures.)
    fn clean(&self) -> bool {
        self.failures.is_empty() && self.cells.len() == 18
    }
}

impl Scenario for CrashMatrix {
    type Report = CrashMatrixReport;

    /// Run every cell. Deterministic in `seed` and `self`.
    fn run(&self, seed: &[u8]) -> XenResult<CrashMatrixReport> {
        let mut report = CrashMatrixReport { seed: hex(seed), ..Default::default() };
        let mut transcript: Vec<u8> = Vec::new();

        for (role, crash_src) in [("src", true), ("dst", false)] {
            for k in 0..=8usize {
                let cell = format!("{role}/k={k}");
                let cell_seed = [seed, b"/", role.as_bytes(), b"/", &[k as u8]].concat();
                let mut cluster = Cluster::new(
                    &cell_seed,
                    ClusterConfig {
                        hosts: 2,
                        sealed: self.sealed,
                        frames_per_host: 1024,
                        ..Default::default()
                    },
                )?;
                let vm = cluster.create_vm()?;
                let mut oracle =
                    cluster.with_vm(vm, |i| TpmOracle::capture(&i.tpm)).expect("fresh vm");
                for ev in generate_trace(&[cell_seed.as_slice(), b"/traffic"].concat(), 12) {
                    if cluster.apply_event(vm, &ev) {
                        oracle.apply(&ev);
                    }
                }
                let home = cluster.home_of(vm).expect("vm placed");
                let dst = 1 - home;
                let mut run = cluster.begin_migration(vm, dst).expect("vm runnable");
                for _ in 0..k {
                    if !cluster.step(&mut run) {
                        break;
                    }
                }
                let crash_host = if crash_src { run.src } else { run.dst };
                cluster.recover_host(crash_host)?;
                let recovered_at = cluster.hosts[crash_host].platform.hv.clock.now_ns();
                cluster.resolve(vm);

                let runnable = cluster.runnable_hosts(vm);
                let [survivor] = runnable[..] else {
                    report.failures.push(format!(
                        "{cell}: vm runnable on {runnable:?}, expected exactly one host"
                    ));
                    transcript.push(0xFF);
                    continue;
                };
                // The recovered state must be the pre- or post-migration
                // image — which are the same TPM state, on one host or the
                // other; what must never appear is a second runnable copy
                // or a state matching neither.
                match cluster.with_vm(vm, |i| oracle.diff(&i.tpm)) {
                    Some(d) if d.is_empty() => {}
                    Some(d) => report
                        .failures
                        .push(format!("{cell}: survivor state diverged: {}", d.join("; "))),
                    None => report.failures.push(format!("{cell}: survivor has no live instance")),
                }
                if survivor == crash_host || survivor != home {
                    oracle.note_reboot();
                }
                // The survivor must keep serving.
                for ev in generate_trace(&[cell_seed.as_slice(), b"/after"].concat(), 6) {
                    if cluster.apply_event(vm, &ev) {
                        oracle.apply(&ev);
                    } else {
                        report.failures.push(format!("{cell}: survivor refused traffic"));
                        break;
                    }
                }
                check_vm(&cluster, vm, &oracle, &cell, &mut report.failures);

                // Committed handoff: replay the captured Transfer frame at
                // the new home; the burned epoch must refuse it.
                let moved = survivor != home;
                if moved {
                    let replay = cluster
                        .fabric
                        .wiretap()
                        .iter()
                        .find(|f| {
                            f.len() > 1
                                && matches!(
                                    MigMessage::decode(&f[1..]),
                                    Some(MigMessage::Transfer { .. })
                                )
                        })
                        .cloned();
                    if let Some(frame) = replay {
                        cluster.fabric.requeue(survivor, frame);
                        cluster.pump_host(survivor);
                        if cluster.runnable_hosts(vm) == vec![survivor] {
                            report.replays_rejected += 1;
                        } else {
                            report
                                .failures
                                .push(format!("{cell}: replayed package disturbed placement"));
                        }
                        check_vm(&cluster, vm, &oracle, &format!("{cell} post-replay"), &mut report.failures);
                    }
                }

                transcript.extend_from_slice(&[k as u8, crash_src as u8, survivor as u8, moved as u8]);
                // A per-cell sentinel over both hosts' exhaust: the crash,
                // recovery, and single replayed frame are all expected —
                // a critical alert means a detector misread normal fault
                // handling as an attack.
                let mut sentinel = Sentinel::new(SentinelConfig::default());
                sentinel.observe(StreamEvent::CrashRecovery {
                    host: crash_host as u32,
                    at_ns: recovered_at,
                });
                for h in 0..2 {
                    transcript.extend_from_slice(
                        &(cluster.hosts[h].journal.records().len() as u32).to_be_bytes(),
                    );
                    let entries = cluster.hosts[h].audit.entries();
                    if !vtpm_ac::AuditLog::verify(&entries) {
                        report.failures.push(format!("{cell}: host {h} audit chain broken"));
                    }
                    transcript.extend_from_slice(&(entries.len() as u32).to_be_bytes());
                    for e in &entries {
                        sentinel.observe(audit_event(h as u32, e));
                    }
                    for d in cluster.hosts[h].platform.hv.dump_events() {
                        sentinel.observe(dump_event(h as u32, &d));
                    }
                }
                let critical = critical_count(&sentinel);
                if critical > 0 {
                    for a in sentinel.alerts() {
                        report.failures.push(format!("{cell}: sentinel false positive: {}", a.line()));
                    }
                }
                report.sentinel_critical += critical;
                transcript.push(critical as u8);
                report.cells.push(MatrixCell { role, after_step: k, survivor, moved });
            }
        }
        report.transcript = sha256(&transcript);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::replay;

    #[test]
    fn migration_chaos_is_deterministic_and_clean() {
        let cfg = MigrationChaosConfig { rounds: 6, events_per_round: 4, ..Default::default() };
        let (a, deterministic) = replay(&cfg, b"mig-chaos-unit").unwrap();
        assert!(deterministic, "replay must be byte-identical");
        assert!(a.divergences.is_empty(), "divergences: {:?}", a.divergences);
        // The seeded plan must actually exercise the machinery.
        assert!(a.committed + a.aborted + a.rejected_stale + a.crashes + a.rebalance_moves > 0);
        let c = cfg.run(b"mig-chaos-unit-2").unwrap();
        assert_ne!(a.transcript, c.transcript, "different seeds, different transcripts");
    }

    #[test]
    fn crash_matrix_covers_every_step_and_never_duplicates() {
        let (r, deterministic) = replay(&CrashMatrix { sealed: true }, b"matrix-unit").unwrap();
        assert!(deterministic, "matrix replay must be byte-identical");
        assert!(r.failures.is_empty(), "failures: {:?}", r.failures);
        assert_eq!(r.cells.len(), 18, "2 roles x 9 crash points");
        for role in ["src", "dst"] {
            for k in 0..=8usize {
                assert!(
                    r.cells.iter().any(|c| c.role == role && c.after_step == k),
                    "missing cell {role}/k={k}"
                );
            }
        }
        // Completed handoffs exist (late crashes) and each one had its
        // replayed package refused.
        let moved = r.cells.iter().filter(|c| c.moved).count() as u64;
        assert!(moved >= 4, "expected the late-crash cells to commit, got {moved}");
        assert_eq!(r.replays_rejected, moved);
        // Early source crashes leave the VM home; late ones see it through.
        assert!(r.cells.iter().any(|c| c.role == "src" && !c.moved));
        assert!(r.cells.iter().any(|c| c.role == "src" && c.moved));
    }

    #[test]
    fn migration_verdict_flips_on_each_failure_condition() {
        assert!(MigrationChaosReport::default().clean());
        for unclean in [
            MigrationChaosReport { divergences: vec!["final: x".into()], ..Default::default() },
            MigrationChaosReport { sentinel_critical: 1, ..Default::default() },
        ] {
            assert!(!unclean.clean(), "{unclean:?}");
        }
    }

    #[test]
    fn matrix_verdict_needs_every_cell_and_no_failure() {
        let full = CrashMatrixReport { cells: vec![MatrixCell::default(); 18], ..Default::default() };
        assert!(full.clean());
        let short = CrashMatrixReport { cells: vec![MatrixCell::default(); 17], ..full.clone() };
        assert!(!short.clean());
        let failed = CrashMatrixReport { failures: vec!["src/k=0: x".into()], ..full };
        assert!(!failed.clean());
    }
}
