//! N simulated hosts, the migration protocol driver, and the
//! placement/rebalance layer.
//!
//! ## Exactly-once
//!
//! The invariant the whole module is built around: **at every point, a
//! VM's vTPM is runnable on at most one host, and at rest on exactly
//! one**. "Runnable" means a host's durable journal maps the VM to a
//! local instance, the instance is live in its manager, and it is not
//! quiesced. The protocol enforces it with:
//!
//! * **quiesce before transfer** — the source freezes the instance
//!   (journalled, then flagged) before the state leaves the host, so
//!   the shipped snapshot can never diverge from a still-serving copy;
//! * **commit before release** — the destination adopts (mirror-backed)
//!   and journals `DstCommitted` before the source journals
//!   `SrcReleased` and scrubs, so the moment of handoff is the commit
//!   record, and a crash on either side leaves the journals able to
//!   prove which side owns the VM;
//! * **epoch anti-rollback** — every attempt carries a migration epoch
//!   above everything either journal has seen for that VM; a replayed
//!   prepare or package re-presents a burned epoch and is refused.
//!
//! Crash recovery ([`Cluster::recover_host`]) rebuilds a host's manager
//! from its mirror frames, then replays the journal over it: re-freeze
//! VMs with an open outgoing quiesce (the flag itself is volatile —
//! skipping this is the classic two-hosts bug: a recovered source would
//! silently serve a VM whose state is mid-flight), and scrub orphan
//! instances the journal does not map (an adopt that crashed before its
//! commit record). [`Cluster::resolve`] then settles any in-doubt
//! attempt by reading both journals — the model's stand-in for the
//! toolstack control plane, which (unlike the lossy fabric) is assumed
//! reliable.

use std::collections::HashMap;
use std::sync::Arc;

use tpm_crypto::bignum::BigUint;
use tpm_crypto::drbg::Drbg;
use tpm_crypto::rsa::RsaPublicKey;
use vtpm::migration::{self, MigrationPackage};
use vtpm::{Envelope, InstanceId, ManagerConfig, MirrorMode, Platform, ResponseEnvelope, VtpmInstance};
use vtpm_ac::{AuditLog, AuditOutcome, MigrationStage};
use vtpm_telemetry::{
    migration_trace_id, MigrationOutcome, MigrationSpanRecord, MigrationTelemetry,
    DENY_REJECTED_STALE,
};
use workload::trace::{apply_to_tpm, TraceEvent};
use xen_sim::{DomainId, Result as XenResult, VirtualClock};

use crate::fabric::Fabric;
use crate::journal::{JournalRecord, MigrationJournal};
use crate::protocol::{decode_payload, encode_payload, HeartbeatFrame, MetricsFrame, MigMessage};

/// One decoded frame off the fabric's control inbox — the union the
/// fleet controller drains so heartbeats and telemetry scrapes share
/// one ordered channel without eating each other.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlFrame {
    /// A liveness beacon for the failure detector.
    Heartbeat(HeartbeatFrame),
    /// A telemetry scrape for the observatory.
    Metrics(MetricsFrame),
}

/// Modelled cost of OAEP-encrypting the session key to the destination
/// EK (public-key op, done in Dom0 software).
///
/// Calibrated against the optimized `tpm-crypto` floor (see EXPERIMENTS.md
/// R-C1): an RSA-1024 public op measures ~13 µs, so 250 µs keeps the
/// same ~20x safety margin over measured software cost that the pre-PR-7
/// constants carried over the unoptimized code.
pub const RSA_SEAL_NS: u64 = 250_000;
/// Modelled cost of unwrapping the session key inside the destination's
/// hardware TPM (private-key op on a slow discrete chip). Recalibrated
/// with the R-C1 floor the same way: the optimized CRT private op
/// measures ~120–300 µs in Dom0 software; a discrete chip is slower but
/// no longer plausibly 6 ms against this floor, so the model charges
/// 2.5 ms.
pub const RSA_OPEN_NS: u64 = 2_500_000;
/// Modelled AES-CTR cost per byte (each direction). The pipelined
/// T-table CTR measures ~3.5 ns/byte software; 2 ns/byte models the
/// destination's bulk-decrypt engine and is unchanged from PR 4.
pub const SYM_BYTE_NS: u64 = 2;
/// Modelled cost of pausing the guest's vTPM device (quiesce).
pub const QUIESCE_NS: u64 = 50_000;

/// Guest domains are mapped as `VM_DOMAIN_BASE + vm` on every host.
pub const VM_DOMAIN_BASE: u32 = 100;

/// Cluster construction parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of simulated hosts.
    pub hosts: usize,
    /// Ship sealed (destination-bound) packages; `false` is the
    /// baseline cleartext protocol.
    pub sealed: bool,
    /// Mirror mode for every host's manager.
    pub mirror_mode: MirrorMode,
    /// Dom0 frame budget per host.
    pub frames_per_host: usize,
    /// NV budget per vTPM (the knob benchmarks use to grow state size).
    pub nv_budget: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            hosts: 3,
            sealed: true,
            mirror_mode: MirrorMode::Encrypted,
            frames_per_host: 4096,
            nv_budget: 32 * 1024,
        }
    }
}

/// Volatile destination-side state of one incoming migration. Lives in
/// host memory only — a crash wipes it, and recovery must re-derive
/// everything it needs from the journal.
struct Inbound {
    /// Verified plaintext payload, held between verify and commit.
    verified: Option<Vec<u8>>,
}

/// One simulated host: a full [`Platform`] plus its durable migration
/// journal and hash-chained audit log.
pub struct ClusterHost {
    /// The platform (hypervisor, hardware TPM, vTPM manager).
    pub platform: Platform,
    /// Durable migration journal (survives crashes).
    pub journal: MigrationJournal,
    /// This host's AC4 audit log; migration stages are chained into it.
    pub audit: AuditLog,
    inbound: HashMap<(u32, u64), Inbound>,
}

impl ClusterHost {
    fn committed_at(&self, vm: u32, epoch: u64) -> bool {
        self.journal
            .records()
            .iter()
            .any(|r| matches!(*r, JournalRecord::DstCommitted { vm: v, epoch: e, .. } if v == vm && e == epoch))
    }
}

/// How a completed migration attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrateOutcome {
    /// The VM now runs on the destination.
    Committed,
    /// The attempt aborted; the source still runs the VM.
    Aborted,
    /// The destination refused the epoch (burned by an earlier attempt);
    /// retry with a fresh epoch.
    RejectedStale,
}

/// Typed failures of cluster-level placement operations. Fleet-scale
/// callers (the rebalancer in particular) hit these programmatically —
/// a zero-host fleet is an input, not a bug — so they must not panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterError {
    /// The operation needs at least one joined host.
    NoHosts,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NoHosts => write!(f, "cluster has no hosts"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Source-side protocol phase of a [`MigrationRun`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Proposed,
    Quiesced,
    TransferSent,
    CommitSent,
    Released,
    Rejected,
    Aborted,
}

/// One in-flight migration attempt, driven step by step so the chaos
/// matrix can crash either side after any step. The run holds the
/// *source's volatile* protocol state — abandoning it (source crash)
/// models exactly the loss a real toolstack daemon suffers; the
/// journals keep what matters.
pub struct MigrationRun {
    /// Cluster-wide VM id being moved.
    pub vm: u32,
    /// Source host index.
    pub src: usize,
    /// Destination host index.
    pub dst: usize,
    /// The attempt's migration epoch.
    pub epoch: u64,
    /// Cluster-wide causal trace id (minted from `(vm, epoch)` at
    /// `begin_migration`, carried in every wire frame, and recorded as
    /// the `request_id` of both hosts' migration audit entries).
    pub trace: u64,
    local: InstanceId,
    phase: Phase,
    step: usize,
    dst_ek: Option<RsaPublicKey>,
    start_ns: u64,
    step_ns: [u64; 8],
    quiesce_at_ns: Option<u64>,
    state_bytes: u64,
    package_bytes: u64,
}

impl MigrationRun {
    /// Steps completed so far (0..=8).
    pub fn steps_done(&self) -> usize {
        self.step
    }

    /// Virtual-clock instant the guest froze, if the run got that far.
    /// Concurrent drivers use it together with
    /// [`Cluster::commit_time`] to attribute per-attempt downtime.
    pub fn quiesced_at_ns(&self) -> Option<u64> {
        self.quiesce_at_ns
    }

    /// Total protocol steps.
    pub const STEPS: usize = 8;
}

/// The cluster: hosts + fabric + shared clock + placement.
pub struct Cluster {
    /// The simulated hosts.
    pub hosts: Vec<ClusterHost>,
    /// The message fabric joining them.
    pub fabric: Fabric,
    /// Cluster-wide virtual clock (fabric latency, crypto costs,
    /// downtime measurement all charge here).
    pub clock: Arc<VirtualClock>,
    telemetry: MigrationTelemetry,
    cfg: ClusterConfig,
    seed: Vec<u8>,
    next_vm: u32,
    seqs: HashMap<u32, u64>,
    commit_ns: HashMap<(u32, u64), u64>,
}

impl Cluster {
    /// Boot `cfg.hosts` platforms from `seed` and join them.
    pub fn new(seed: &[u8], cfg: ClusterConfig) -> XenResult<Self> {
        let clock = Arc::new(VirtualClock::new());
        let mut hosts = Vec::with_capacity(cfg.hosts);
        for h in 0..cfg.hosts {
            hosts.push(Self::boot_host(seed, &cfg, h)?);
        }
        Ok(Cluster {
            fabric: Fabric::new(cfg.hosts, Arc::clone(&clock)),
            clock,
            hosts,
            telemetry: MigrationTelemetry::new(),
            cfg,
            seed: seed.to_vec(),
            next_vm: 0,
            seqs: HashMap::new(),
            commit_ns: HashMap::new(),
        })
    }

    fn boot_host(seed: &[u8], cfg: &ClusterConfig, h: usize) -> XenResult<ClusterHost> {
        let host_seed = [seed, b"/host/", &(h as u32).to_be_bytes()].concat();
        let platform = Platform::with_config(
            &host_seed,
            cfg.frames_per_host,
            ManagerConfig {
                mirror_mode: cfg.mirror_mode,
                vtpm_config: tpm::TpmConfig { nv_budget: cfg.nv_budget, ..Default::default() },
                ..Default::default()
            },
            true,
        )?;
        Ok(ClusterHost {
            platform,
            journal: MigrationJournal::new(),
            audit: AuditLog::new(),
            inbound: HashMap::new(),
        })
    }

    /// Join a freshly-booted host to the running cluster (host-join
    /// churn). The platform seed is derived exactly as in
    /// [`Cluster::new`], so a cluster grown to N hosts is
    /// byte-identical to one born with N. Returns the new host index.
    pub fn add_host(&mut self) -> XenResult<usize> {
        let h = self.hosts.len();
        // Wire frames carry the sender index in one byte.
        assert!(h < 256, "fabric framing caps the fleet at 256 hosts");
        let host = Self::boot_host(&self.seed, &self.cfg, h)?;
        self.hosts.push(host);
        let joined = self.fabric.add_host();
        debug_assert_eq!(joined, h);
        Ok(h)
    }

    /// Cluster-wide migration metrics.
    pub fn telemetry(&self) -> &MigrationTelemetry {
        &self.telemetry
    }

    /// The construction parameters.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Create a VM on the least-loaded host; returns its cluster-wide id.
    pub fn create_vm(&mut self) -> XenResult<u32> {
        let host = (0..self.hosts.len())
            .min_by_key(|&h| self.hosts[h].journal.mapped_vms().len())
            .expect("cluster has hosts");
        let vm = self.next_vm;
        self.next_vm += 1;
        let local = self.hosts[host].platform.manager.create_instance()?;
        self.hosts[host]
            .journal
            .append(JournalRecord::VmCreated { vm, local, epoch: 0 });
        self.seqs.insert(vm, 0);
        Ok(vm)
    }

    /// VM ids created so far.
    pub fn vms(&self) -> Vec<u32> {
        (0..self.next_vm).collect()
    }

    /// Hosts on which `vm` is *runnable*: journal-mapped, instance live,
    /// not quiesced. The exactly-once invariant says this has length 1
    /// at rest and never exceeds 1.
    pub fn runnable_hosts(&self, vm: u32) -> Vec<usize> {
        (0..self.hosts.len())
            .filter(|&h| {
                let host = &self.hosts[h];
                match host.journal.local_of(vm) {
                    Some(local) => {
                        host.platform.manager.instance_ids().contains(&local)
                            && host.platform.manager.is_quiesced(local) != Some(true)
                    }
                    None => false,
                }
            })
            .collect()
    }

    /// The host whose journal currently maps `vm` (runnable or frozen).
    pub fn home_of(&self, vm: u32) -> Option<usize> {
        (0..self.hosts.len()).find(|&h| self.hosts[h].journal.local_of(vm).is_some())
    }

    /// Run `f` against `vm`'s live instance, wherever it is. Prefers the
    /// runnable copy: while a migration is in doubt (destination committed,
    /// source quiesced but not yet released) two hosts map the VM, and the
    /// copy that serves guest traffic is the runnable one — reading the
    /// frozen source there would observe stale state.
    pub fn with_vm<R>(&self, vm: u32, f: impl FnOnce(&mut VtpmInstance) -> R) -> Option<R> {
        let h = match self.runnable_hosts(vm).first() {
            Some(&h) => h,
            None => self.home_of(vm)?,
        };
        let local = self.hosts[h].journal.local_of(vm)?;
        self.hosts[h].platform.manager.with_instance(local, f)
    }

    /// Drive one workload event at `vm`. Wire events go through the
    /// manager's guest request path (and bounce with `NoInstance` while
    /// the VM is quiesced — the migration blackout the downtime
    /// histogram measures); toolstack events use `with_instance`.
    /// Returns `false` if the VM was not runnable anywhere.
    pub fn apply_event(&mut self, vm: u32, event: &TraceEvent) -> bool {
        let hosts = self.runnable_hosts(vm);
        assert!(hosts.len() <= 1, "vm {vm} runnable on {hosts:?} — exactly-once violated");
        let Some(&h) = hosts.first() else { return false };
        let local = self.hosts[h].journal.local_of(vm).expect("runnable implies mapped");
        if event.is_toolstack() {
            self.hosts[h]
                .platform
                .manager
                .with_instance(local, |i| apply_to_tpm(&mut i.tpm, event))
                .is_some()
        } else {
            let seq = self.seqs.entry(vm).or_insert(0);
            *seq += 1;
            let env = Envelope {
                domain: VM_DOMAIN_BASE + vm,
                instance: local,
                seq: *seq,
                locality: 0,
                tag: None,
                command: event.wire_command().expect("wire event"),
            };
            let resp = self.hosts[h]
                .platform
                .manager
                .handle(DomainId(VM_DOMAIN_BASE + vm), &env.encode());
            ResponseEnvelope::decode(&resp).is_ok()
        }
    }

    fn frame(from: usize, msg: &MigMessage) -> Vec<u8> {
        let mut f = vec![from as u8];
        f.extend_from_slice(&msg.encode());
        f
    }

    fn unframe(bytes: &[u8]) -> Option<(usize, MigMessage)> {
        let (&from, rest) = bytes.split_first()?;
        Some((from as usize, MigMessage::decode(rest)?))
    }

    /// Chain a migration stage into `host`'s audit log under the
    /// attempt's causal trace id — the hash chain covers `trace`, so
    /// both hosts' logs join the cluster-wide trace through the same
    /// `request_id` field per-request entries use.
    fn audit_stage(
        &self,
        host: usize,
        peer: usize,
        vm: u32,
        epoch: u64,
        trace: u64,
        stage: MigrationStage,
    ) {
        self.hosts[host].audit.record(
            self.clock.now_ns(),
            trace,
            peer as u32,
            vm,
            epoch as u32,
            AuditOutcome::Migration(stage),
        );
    }

    /// Surface a stale/replayed-epoch refusal on `host`'s per-reason
    /// deny counters (`rejected-stale` slot) without touching the
    /// request-conservation counters — no guest span exists for a
    /// protocol refusal.
    fn note_stale_deny(&self, host: usize) {
        self.hosts[host].platform.manager.telemetry().note_protocol_deny(DENY_REJECTED_STALE);
    }

    /// Emit `host`'s periodic liveness beacon onto the fabric's control
    /// inbox (same wire model and fault hooks as protocol traffic).
    /// The failure detector feeds on the arrival gaps of these frames.
    pub fn send_heartbeat(&mut self, host: usize, seq: u64) {
        let hb =
            HeartbeatFrame { host: host as u32, seq, at_ns: self.clock.now_ns() };
        let mut f = vec![host as u8];
        f.extend_from_slice(&hb.encode());
        self.fabric.send_control(f);
    }

    /// Drain the control inbox into decoded heartbeats, in arrival
    /// order. Garbage frames are dropped (hardened decode, no panic).
    ///
    /// Heartbeat-only view of [`Cluster::recv_control_frames`]: any
    /// metrics frames in the inbox are *discarded*. Callers running the
    /// observatory must use `recv_control_frames` so scrapes are not
    /// eaten.
    pub fn recv_heartbeats(&mut self) -> Vec<HeartbeatFrame> {
        self.recv_control_frames()
            .into_iter()
            .filter_map(|f| match f {
                ControlFrame::Heartbeat(hb) => Some(hb),
                ControlFrame::Metrics(_) => None,
            })
            .collect()
    }

    /// Drain the control inbox into decoded control-plane frames
    /// (heartbeats and telemetry scrapes), in arrival order. Garbage
    /// frames are dropped (hardened decode, no panic).
    pub fn recv_control_frames(&mut self) -> Vec<ControlFrame> {
        let mut out = Vec::new();
        while let Some(bytes) = self.fabric.recv_control() {
            let Some((_, rest)) = bytes.split_first() else { continue };
            if let Some(hb) = HeartbeatFrame::decode(rest) {
                out.push(ControlFrame::Heartbeat(hb));
            } else if let Some(mf) = MetricsFrame::decode(rest) {
                out.push(ControlFrame::Metrics(mf));
            }
        }
        out
    }

    /// Snapshot `host`'s telemetry registry into a [`MetricsFrame`]:
    /// every histogram series as its sparse wire encoding plus the
    /// monotone counters, stamped with the virtual clock. Series are
    /// cumulative; the observatory diffs consecutive frames.
    pub fn metrics_frame(&self, host: usize) -> MetricsFrame {
        let t = self.hosts[host].platform.manager.telemetry();
        let mut series = Vec::new();
        t.visit_histograms(|name, h| series.push((name.to_string(), h.encode())));
        let mut counters = Vec::new();
        t.visit_counters(|name, v| counters.push((name.to_string(), v)));
        MetricsFrame { host: host as u32, at_ns: self.clock.now_ns(), series, counters }
    }

    /// Emit `host`'s telemetry scrape onto the fabric's control inbox
    /// (same wire model, virtual-time charges, and fault hooks as all
    /// other control traffic).
    pub fn send_metrics(&mut self, host: usize) {
        let mut f = vec![host as u8];
        f.extend_from_slice(&self.metrics_frame(host).encode());
        self.fabric.send_control(f);
    }

    /// When the destination journalled `DstCommitted` for this attempt
    /// (virtual clock), if it did — the downtime endpoint concurrent
    /// drivers pair with [`MigrationRun::quiesced_at_ns`].
    pub fn commit_time(&self, vm: u32, epoch: u64) -> Option<u64> {
        self.commit_ns.get(&(vm, epoch)).copied()
    }

    /// Begin migrating `vm` to `dst`. `None` if the VM has no live home
    /// or is already on `dst`.
    pub fn begin_migration(&mut self, vm: u32, dst: usize) -> Option<MigrationRun> {
        self.begin_migration_from(vm, dst, 0)
    }

    /// [`Cluster::begin_migration`] with an epoch floor: the attempt's
    /// epoch is at least `epoch_floor`. Concurrent drivers pass the
    /// highest epoch they already have in flight for this VM plus one,
    /// so a double-drive never mints the same epoch twice — the
    /// journals only learn an epoch once it quiesces or prepares, which
    /// is too late to keep two *simultaneous* proposals apart.
    pub fn begin_migration_from(
        &mut self,
        vm: u32,
        dst: usize,
        epoch_floor: u64,
    ) -> Option<MigrationRun> {
        let src = self.home_of(vm)?;
        if src == dst {
            return None;
        }
        let local = self.hosts[src].journal.local_of(vm)?;
        if !self.hosts[src].platform.manager.instance_ids().contains(&local) {
            return None;
        }
        let epoch = self.hosts[src].journal.next_epoch(vm).max(epoch_floor);
        self.telemetry.note_started();
        Some(MigrationRun {
            vm,
            src,
            dst,
            epoch,
            trace: migration_trace_id(vm, epoch),
            local,
            phase: Phase::Proposed,
            step: 0,
            dst_ek: None,
            start_ns: self.clock.now_ns(),
            step_ns: [0; 8],
            quiesce_at_ns: None,
            state_bytes: 0,
            package_bytes: 0,
        })
    }

    /// Execute the next protocol step. Returns `true` while the run has
    /// more steps. The step layout (source-driven; destination work is
    /// message-driven inside [`Cluster::pump_host`]):
    ///
    /// 0. source sends `Prepare`
    /// 1. destination pumps (journal `DstPrepared`, ack with its EK)
    /// 2. source pumps (journal `SrcQuiesced`, freeze the instance)
    /// 3. source packages + sends `Transfer`
    /// 4. destination pumps (open, verify binding/integrity/epoch)
    /// 5. source pumps (`VerifyAck` → send `Commit`)
    /// 6. destination pumps (adopt, journal `DstCommitted`, ack)
    /// 7. source pumps (`CommitAck` → journal `SrcReleased`, scrub)
    pub fn step(&mut self, run: &mut MigrationRun) -> bool {
        if run.step >= MigrationRun::STEPS || matches!(run.phase, Phase::Rejected | Phase::Aborted)
        {
            return false;
        }
        let t0 = self.clock.now_ns();
        match run.step {
            0 => {
                self.fabric.send(
                    run.dst,
                    Self::frame(
                        run.src,
                        &MigMessage::Prepare { vm: run.vm, epoch: run.epoch, trace: run.trace },
                    ),
                );
            }
            1 | 4 | 6 => self.pump_host(run.dst),
            2 => self.src_pump_prepare(run),
            3 => self.src_transfer(run),
            5 => self.src_pump_verify(run),
            7 => self.src_pump_commit_ack(run),
            _ => unreachable!(),
        }
        run.step_ns[run.step] = self.clock.now_ns() - t0;
        run.step += 1;
        run.step < MigrationRun::STEPS && !matches!(run.phase, Phase::Rejected | Phase::Aborted)
    }

    /// Drain `host`'s inbox, handling destination-side protocol
    /// messages. Source-side messages (acks) are left for the run
    /// driving them; unknown or stale frames are discarded.
    pub fn pump_host(&mut self, host: usize) {
        let mut acks: Vec<Vec<u8>> = Vec::new();
        while let Some(bytes) = self.fabric.recv(host) {
            let Some((from, msg)) = Self::unframe(&bytes) else { continue };
            // The destination records the trace id it saw on the wire,
            // not a locally re-derived one — exactly as a real tracing
            // header propagates.
            match msg {
                MigMessage::Prepare { vm, epoch, trace } => {
                    self.dst_prepare(host, from, vm, epoch, trace)
                }
                MigMessage::Transfer { vm, epoch, trace, package } => {
                    self.dst_transfer(host, from, vm, epoch, trace, &package)
                }
                MigMessage::Commit { vm, epoch, trace } => {
                    self.dst_commit(host, from, vm, epoch, trace)
                }
                MigMessage::Abort { vm, epoch, trace } => self.dst_abort(host, vm, epoch, trace),
                // Source-side ack: not ours to consume.
                _ => acks.push(bytes),
            }
        }
        // Re-queue acks in arrival order for the run's own pump.
        for bytes in acks {
            self.requeue(host, bytes);
        }
    }

    fn requeue(&mut self, host: usize, bytes: Vec<u8>) {
        // Direct inbox append without re-charging wire cost.
        self.fabric.requeue(host, bytes);
    }

    fn dst_prepare(&mut self, host: usize, from: usize, vm: u32, epoch: u64, trace: u64) {
        let stale = {
            let h = &self.hosts[host];
            if h.journal.open_prepare(vm) == Some(epoch) {
                // Duplicate of an accepted prepare: idempotent re-ack.
                let ek = h.platform.hw_ek_public();
                self.fabric.send(
                    from,
                    Self::frame(
                        host,
                        &MigMessage::PrepareAck {
                            vm,
                            epoch,
                            trace,
                            ek_n: ek.n.to_bytes_be(),
                            ek_e: ek.e.to_bytes_be(),
                        },
                    ),
                );
                return;
            }
            h.journal.seen_epoch(vm, epoch)
                || h.journal.local_of(vm).is_some()
                || h.journal.last_committed_epoch(vm).is_some_and(|c| epoch <= c)
        };
        if stale {
            self.audit_stage(host, from, vm, epoch, trace, MigrationStage::RejectedStale);
            self.note_stale_deny(host);
            self.fabric
                .send(from, Self::frame(host, &MigMessage::PrepareReject { vm, epoch, trace }));
            return;
        }
        self.hosts[host].journal.append(JournalRecord::DstPrepared { vm, epoch });
        self.hosts[host].inbound.insert((vm, epoch), Inbound { verified: None });
        self.audit_stage(host, from, vm, epoch, trace, MigrationStage::Prepared);
        let ek = self.hosts[host].platform.hw_ek_public();
        self.fabric.send(
            from,
            Self::frame(
                host,
                &MigMessage::PrepareAck {
                    vm,
                    epoch,
                    trace,
                    ek_n: ek.n.to_bytes_be(),
                    ek_e: ek.e.to_bytes_be(),
                },
            ),
        );
    }

    fn dst_transfer(
        &mut self,
        host: usize,
        from: usize,
        vm: u32,
        epoch: u64,
        trace: u64,
        package: &[u8],
    ) {
        // Duplicate after a successful verify: idempotent re-ack.
        if self.hosts[host]
            .inbound
            .get(&(vm, epoch))
            .is_some_and(|i| i.verified.is_some())
        {
            self.fabric.send(
                from,
                Self::frame(host, &MigMessage::VerifyAck { vm, epoch, trace, ok: true }),
            );
            return;
        }
        if self.hosts[host].journal.open_prepare(vm) != Some(epoch) {
            // Replayed package for a closed or never-opened prepare —
            // the anti-rollback refusal.
            self.audit_stage(host, from, vm, epoch, trace, MigrationStage::RejectedStale);
            self.note_stale_deny(host);
            self.fabric.send(
                from,
                Self::frame(host, &MigMessage::VerifyAck { vm, epoch, trace, ok: false }),
            );
            return;
        }
        let verdict = MigrationPackage::decode(package).ok().and_then(|pkg| {
            // The private-key unwrap happens inside the destination's
            // hardware TPM; the CTR+digest pass covers the payload.
            // Clear packages pay neither.
            if matches!(pkg, MigrationPackage::Sealed { .. }) {
                self.clock.advance_ns(RSA_OPEN_NS + package.len() as u64 * SYM_BYTE_NS);
            }
            self.hosts[host].platform.open_migration_package(&pkg).ok()
        });
        let ok = match verdict.and_then(|payload| decode_payload(&payload)) {
            // The sealed header must match the wire claim — an old
            // payload cannot be re-dressed as this epoch.
            Some((pvm, pepoch, state)) if pvm == vm && pepoch == epoch => {
                self.hosts[host].inbound.insert((vm, epoch), Inbound { verified: Some(state) });
                self.audit_stage(host, from, vm, epoch, trace, MigrationStage::Verified);
                true
            }
            _ => {
                self.audit_stage(host, from, vm, epoch, trace, MigrationStage::Aborted);
                false
            }
        };
        self.fabric
            .send(from, Self::frame(host, &MigMessage::VerifyAck { vm, epoch, trace, ok }));
    }

    fn dst_commit(&mut self, host: usize, from: usize, vm: u32, epoch: u64, trace: u64) {
        if self.hosts[host].committed_at(vm, epoch) {
            // Duplicate commit: idempotent re-ack.
            self.fabric
                .send(from, Self::frame(host, &MigMessage::CommitAck { vm, epoch, trace }));
            return;
        }
        let plaintext = self.hosts[host]
            .inbound
            .get_mut(&(vm, epoch))
            .and_then(|i| i.verified.take());
        let open = self.hosts[host].journal.open_prepare(vm) == Some(epoch);
        match plaintext {
            Some(state) if open => {
                let reseed =
                    [self.seed.as_slice(), b"/adopt/", &vm.to_be_bytes(), &epoch.to_be_bytes()]
                        .concat();
                let cfg = self.hosts[host].platform.manager.config().vtpm_config.clone();
                // Adopt (durably mirrored) *before* the commit record:
                // a crash in between leaves an orphan the journal does
                // not map, which recovery scrubs — never a committed
                // record with no state behind it.
                let adopted = VtpmInstance::from_state(0, &state, &reseed, cfg)
                    .ok()
                    .and_then(|inst| self.hosts[host].platform.manager.adopt_instance(inst).ok());
                match adopted {
                    Some(local) => {
                        self.hosts[host]
                            .journal
                            .append(JournalRecord::DstCommitted { vm, epoch, local });
                        self.hosts[host].inbound.remove(&(vm, epoch));
                        self.audit_stage(host, from, vm, epoch, trace, MigrationStage::Committed);
                        self.commit_ns.insert((vm, epoch), self.clock.now_ns());
                        self.fabric.send(
                            from,
                            Self::frame(host, &MigMessage::CommitAck { vm, epoch, trace }),
                        );
                    }
                    None => {
                        self.dst_abort(host, vm, epoch, trace);
                        self.fabric
                            .send(from, Self::frame(host, &MigMessage::Abort { vm, epoch, trace }));
                    }
                }
            }
            _ => {
                // No verified plaintext (crash wiped it, or the verify
                // never happened): refuse, close the prepare.
                self.dst_abort(host, vm, epoch, trace);
                self.fabric
                    .send(from, Self::frame(host, &MigMessage::Abort { vm, epoch, trace }));
            }
        }
    }

    fn dst_abort(&mut self, host: usize, vm: u32, epoch: u64, trace: u64) {
        if self.hosts[host].journal.open_prepare(vm) == Some(epoch) {
            self.hosts[host].journal.append(JournalRecord::DstAborted { vm, epoch });
            self.hosts[host].inbound.remove(&(vm, epoch));
            self.audit_stage(host, host, vm, epoch, trace, MigrationStage::Aborted);
        }
    }

    /// Source step 2: consume the prepare response; quiesce on ack.
    fn src_pump_prepare(&mut self, run: &mut MigrationRun) {
        let mut rejected = false;
        self.drain_src(run, |msg, _| match msg {
            MigMessage::PrepareAck { ek_n, ek_e, .. } => Some(RsaPublicKey {
                n: BigUint::from_bytes_be(&ek_n),
                e: BigUint::from_bytes_be(&ek_e),
            }),
            MigMessage::PrepareReject { .. } => {
                rejected = true;
                None
            }
            _ => None,
        })
        .into_iter()
        .for_each(|ek| run.dst_ek = Some(ek));

        if rejected {
            // The destination burned this epoch before we froze
            // anything; journal the abort (burning it here too) so the
            // retry proposes a strictly higher one.
            self.hosts[run.src]
                .journal
                .append(JournalRecord::SrcAborted { vm: run.vm, epoch: run.epoch });
            self.audit_stage(run.src, run.dst, run.vm, run.epoch, run.trace, MigrationStage::Aborted);
            run.phase = Phase::Rejected;
            return;
        }
        if run.dst_ek.is_some() && run.phase == Phase::Proposed {
            // Concurrent-driver arbitration. Quiescing is the source's
            // commit point: whichever attempt journals `SrcQuiesced`
            // first owns the handoff. A later attempt that finds the
            // freeze already held (open quiesce at another epoch), or
            // finds the VM moved away while it was proposing, has lost
            // the race — refuse it down the stale path instead of
            // double-freezing (which would let two transfers export and
            // commit the same VM on two destinations).
            let j = &self.hosts[run.src].journal;
            if j.open_quiesce(run.vm).is_some() || j.local_of(run.vm) != Some(run.local) {
                self.reject_run(run);
                return;
            }
            // Write-ahead: journal the freeze, then flip the flag.
            self.hosts[run.src]
                .journal
                .append(JournalRecord::SrcQuiesced { vm: run.vm, epoch: run.epoch });
            self.hosts[run.src].platform.manager.set_quiesced(run.local, true);
            self.clock.advance_ns(QUIESCE_NS);
            self.audit_stage(run.src, run.dst, run.vm, run.epoch, run.trace, MigrationStage::Quiesced);
            run.quiesce_at_ns = Some(self.clock.now_ns());
            run.phase = Phase::Quiesced;
        } else if run.phase == Phase::Proposed {
            // PrepareAck lost on the fabric: give up before freezing.
            self.abort_run(run);
        }
    }

    /// Source step 3: package the frozen state and ship it.
    fn src_transfer(&mut self, run: &mut MigrationRun) {
        if run.phase != Phase::Quiesced {
            return;
        }
        let Some(state) = self.hosts[run.src].platform.manager.export_instance_state(run.local)
        else {
            self.abort_run(run);
            return;
        };
        run.state_bytes = state.len() as u64;
        let payload = encode_payload(run.vm, run.epoch, &state);
        let package = if self.cfg.sealed {
            let ek = run.dst_ek.as_ref().expect("quiesced implies acked");
            let mut rng = Drbg::new(
                &[
                    self.seed.as_slice(),
                    b"/mig/",
                    &run.vm.to_be_bytes(),
                    &run.epoch.to_be_bytes(),
                ]
                .concat(),
            );
            self.clock.advance_ns(RSA_SEAL_NS + payload.len() as u64 * SYM_BYTE_NS);
            migration::package_sealed(&payload, ek, &mut rng)
        } else {
            migration::package_clear(&payload)
        };
        let encoded = package.encode();
        run.package_bytes = encoded.len() as u64;
        self.audit_stage(run.src, run.dst, run.vm, run.epoch, run.trace, MigrationStage::Transferred);
        self.fabric.send(
            run.dst,
            Self::frame(
                run.src,
                &MigMessage::Transfer {
                    vm: run.vm,
                    epoch: run.epoch,
                    trace: run.trace,
                    package: encoded,
                },
            ),
        );
        run.phase = Phase::TransferSent;
    }

    /// Source step 5: consume the verify response; commit on ok.
    fn src_pump_verify(&mut self, run: &mut MigrationRun) {
        if run.phase != Phase::TransferSent {
            return;
        }
        let mut verdict = None;
        self.drain_src(run, |msg, _| {
            if let MigMessage::VerifyAck { ok, .. } = msg {
                verdict = Some(ok);
            }
            None::<()>
        });
        match verdict {
            Some(true) => {
                self.fabric.send(
                    run.dst,
                    Self::frame(
                        run.src,
                        &MigMessage::Commit { vm: run.vm, epoch: run.epoch, trace: run.trace },
                    ),
                );
                run.phase = Phase::CommitSent;
            }
            // Verification failed, or the ack/transfer was lost: the
            // commit was never sent, so a unilateral abort is safe.
            _ => self.abort_run(run),
        }
    }

    /// Source step 7: consume the commit ack; release on success.
    fn src_pump_commit_ack(&mut self, run: &mut MigrationRun) {
        if run.phase != Phase::CommitSent {
            return;
        }
        let mut acked = false;
        self.drain_src(run, |msg, _| {
            if matches!(msg, MigMessage::CommitAck { .. }) {
                acked = true;
            }
            None::<()>
        });
        if acked {
            self.release_src(run.src, run.dst, run.vm, run.epoch, run.trace);
            run.phase = Phase::Released;
        }
        // No ack: in doubt — the commit may or may not have landed.
        // The run ends undecided and resolve() settles it from the
        // journals; aborting unilaterally here could put the VM on two
        // hosts at once.
    }

    fn release_src(&mut self, src: usize, dst: usize, vm: u32, epoch: u64, trace: u64) {
        // Write-ahead: the release record first, then the scrub — a
        // crash in between leaves an orphan instance recovery scrubs.
        let local = self.hosts[src].journal.local_of(vm);
        self.hosts[src].journal.append(JournalRecord::SrcReleased { vm, epoch });
        if let Some(local) = local {
            let _ = self.hosts[src].platform.manager.destroy_instance(local);
        }
        self.audit_stage(src, dst, vm, epoch, trace, MigrationStage::Released);
    }

    /// Refuse a losing concurrent attempt through the stale path: burn
    /// its epoch on the source (the retry proposes strictly higher),
    /// chain a `RejectedStale` audit stage, bump the per-reason deny
    /// counter, and close the destination's dangling prepare.
    fn reject_run(&mut self, run: &mut MigrationRun) {
        self.hosts[run.src]
            .journal
            .append(JournalRecord::SrcAborted { vm: run.vm, epoch: run.epoch });
        self.audit_stage(
            run.src,
            run.dst,
            run.vm,
            run.epoch,
            run.trace,
            MigrationStage::RejectedStale,
        );
        self.note_stale_deny(run.src);
        self.fabric.send(
            run.dst,
            Self::frame(
                run.src,
                &MigMessage::Abort { vm: run.vm, epoch: run.epoch, trace: run.trace },
            ),
        );
        run.phase = Phase::Rejected;
    }

    fn abort_run(&mut self, run: &mut MigrationRun) {
        self.hosts[run.src]
            .journal
            .append(JournalRecord::SrcAborted { vm: run.vm, epoch: run.epoch });
        if run.quiesce_at_ns.is_some() {
            self.hosts[run.src].platform.manager.set_quiesced(run.local, false);
        }
        self.audit_stage(run.src, run.dst, run.vm, run.epoch, run.trace, MigrationStage::Aborted);
        self.fabric.send(
            run.dst,
            Self::frame(
                run.src,
                &MigMessage::Abort { vm: run.vm, epoch: run.epoch, trace: run.trace },
            ),
        );
        run.phase = Phase::Aborted;
    }

    /// Drain the source inbox, mapping messages that belong to `run`
    /// through `f`. Frames keyed to *other* (vm, epoch) attempts are
    /// put back in arrival order — concurrent drivers share a source's
    /// inbox, so another run's acks may be interleaved with ours and
    /// must survive the pass. Only frames that fail to decode are
    /// discarded. (Epochs are never reused, so a frame matching this
    /// run's key can only belong to this attempt.)
    fn drain_src<R>(
        &mut self,
        run: &MigrationRun,
        mut f: impl FnMut(MigMessage, usize) -> Option<R>,
    ) -> Vec<R> {
        let mut out = Vec::new();
        let mut keep: Vec<Vec<u8>> = Vec::new();
        // Bound the pass by what is queued now: requeued frames must
        // not be re-examined within the same drain.
        for _ in 0..self.fabric.pending(run.src) {
            let Some(bytes) = self.fabric.recv(run.src) else { break };
            match Self::unframe(&bytes) {
                Some((from, msg)) if msg.key() == (run.vm, run.epoch) => {
                    if let Some(r) = f(msg, from) {
                        out.push(r);
                    }
                }
                Some(_) => keep.push(bytes),
                None => {}
            }
        }
        for bytes in keep {
            self.requeue(run.src, bytes);
        }
        out
    }

    /// Settle `vm` after a run ended (normally, in doubt, or by crash):
    /// read every journal — the reliable control plane — and drive both
    /// sides to a consistent rest state. Idempotent.
    pub fn resolve(&mut self, vm: u32) {
        // An open outgoing quiesce: committed remotely → finish the
        // release; otherwise abort and thaw.
        for s in 0..self.hosts.len() {
            let Some(epoch) = self.hosts[s].journal.open_quiesce(vm) else { continue };
            // No run survives to here (recovery path); the trace id is a
            // pure function of (vm, epoch), so re-deriving it yields the
            // exact value the original attempt's wire frames carried.
            let trace = migration_trace_id(vm, epoch);
            let committed_on =
                (0..self.hosts.len()).find(|&d| d != s && self.hosts[d].committed_at(vm, epoch));
            match committed_on {
                Some(d) => self.release_src(s, d, vm, epoch, trace),
                None => {
                    self.hosts[s].journal.append(JournalRecord::SrcAborted { vm, epoch });
                    if let Some(local) = self.hosts[s].journal.local_of(vm) {
                        self.hosts[s].platform.manager.set_quiesced(local, false);
                    }
                    self.audit_stage(s, s, vm, epoch, trace, MigrationStage::Aborted);
                }
            }
        }
        // Dangling incoming prepares (source crashed or its abort was
        // lost): close them so the epochs stay burned but inactive.
        for d in 0..self.hosts.len() {
            if let Some(epoch) = self.hosts[d].journal.open_prepare(vm) {
                self.dst_abort(d, vm, epoch, migration_trace_id(vm, epoch));
            }
        }
    }

    /// Finish a stepped-out run: settle global state and fold the
    /// attempt into telemetry. Returns how it ended.
    pub fn finish_run(&mut self, run: MigrationRun) -> MigrateOutcome {
        self.resolve(run.vm);
        let committed = self.hosts[run.dst].committed_at(run.vm, run.epoch);
        let outcome = if committed {
            MigrateOutcome::Committed
        } else if run.phase == Phase::Rejected {
            MigrateOutcome::RejectedStale
        } else {
            MigrateOutcome::Aborted
        };
        let downtime_ns = if committed {
            let commit = self
                .commit_ns
                .get(&(run.vm, run.epoch))
                .copied()
                .unwrap_or_else(|| self.clock.now_ns());
            commit.saturating_sub(run.quiesce_at_ns.unwrap_or(commit))
        } else {
            0
        };
        let s = &run.step_ns;
        self.telemetry.record(MigrationSpanRecord {
            trace_id: run.trace,
            request_id: run.trace,
            vm: run.vm,
            epoch: run.epoch,
            src_host: run.src as u32,
            dst_host: run.dst as u32,
            sealed: self.cfg.sealed,
            state_bytes: run.state_bytes,
            package_bytes: run.package_bytes,
            start_ns: run.start_ns,
            // prepare, quiesce, transfer, verify, commit, release.
            stage_ns: [s[0] + s[1], s[2], s[3], s[4], s[5] + s[6], s[7]],
            downtime_ns,
            total_ns: self.clock.now_ns().saturating_sub(run.start_ns),
            outcome: match outcome {
                MigrateOutcome::Committed => MigrationOutcome::Committed,
                MigrateOutcome::Aborted => MigrationOutcome::Aborted,
                MigrateOutcome::RejectedStale => MigrationOutcome::RejectedStale,
            },
        });
        outcome
    }

    /// Migrate `vm` to `dst` end to end, retrying (with a fresh epoch)
    /// if the destination rejects a burned epoch left by an earlier
    /// crashed attempt.
    pub fn migrate(&mut self, vm: u32, dst: usize) -> MigrateOutcome {
        let mut last = MigrateOutcome::Aborted;
        for _ in 0..3 {
            let Some(mut run) = self.begin_migration(vm, dst) else { return last };
            while self.step(&mut run) {}
            last = self.finish_run(run);
            if last != MigrateOutcome::RejectedStale {
                return last;
            }
        }
        last
    }

    /// Crash host `h`: its manager, quiesce flags, inbound migration
    /// buffers, and socket inboxes are gone; mirror frames and the
    /// journal (disk) survive. Then recover: rebuild the manager from
    /// the mirror, replay the journal over it (re-freeze open outgoing
    /// quiesces, scrub orphans), ready to serve again.
    pub fn recover_host(&mut self, h: usize) -> XenResult<vtpm::RecoveryReport> {
        self.fabric.crash_host(h);
        self.hosts[h].inbound.clear();
        let report = self.hosts[h].platform.recover_manager()?;
        // Re-assert volatile state the journal proves. A recovered
        // instance comes back *thawed*; skipping the re-freeze would
        // let the source serve a VM whose state is mid-handoff — the
        // two-runnable-copies bug.
        let mapped = self.hosts[h].journal.mapped_vms();
        for &(vm, local) in &mapped {
            if self.hosts[h].journal.open_quiesce(vm).is_some() {
                self.hosts[h].platform.manager.set_quiesced(local, true);
            }
        }
        // Scrub orphans: instances the mirror resurrected but the
        // journal does not map (adopt or release interrupted between
        // state write and record).
        let mapped_locals: Vec<_> = mapped.iter().map(|&(_, l)| l).collect();
        for id in self.hosts[h].platform.manager.instance_ids() {
            if !mapped_locals.contains(&id) {
                let _ = self.hosts[h].platform.manager.destroy_instance(id);
            }
        }
        Ok(report)
    }

    /// One rebalance pass: move VMs from the most- to the least-loaded
    /// host until the spread is ≤ 1. Returns the committed moves, or
    /// [`ClusterError::NoHosts`] on an empty fleet — a reachable input
    /// once hosts join and leave at runtime, so it must not panic.
    pub fn rebalance(&mut self) -> Result<usize, ClusterError> {
        if self.hosts.is_empty() {
            return Err(ClusterError::NoHosts);
        }
        let mut moves = 0;
        for _ in 0..self.next_vm {
            let counts: Vec<usize> = (0..self.hosts.len())
                .map(|h| self.hosts[h].journal.mapped_vms().len())
                .collect();
            let Some((max_h, &max)) =
                counts.iter().enumerate().max_by_key(|&(h, &c)| (c, usize::MAX - h))
            else {
                return Err(ClusterError::NoHosts);
            };
            let Some((min_h, &min)) = counts.iter().enumerate().min_by_key(|&(h, &c)| (c, h))
            else {
                return Err(ClusterError::NoHosts);
            };
            if max - min <= 1 {
                break;
            }
            let Some(&(vm, _)) = self.hosts[max_h].journal.mapped_vms().first() else { break };
            if self.migrate(vm, min_h) == MigrateOutcome::Committed {
                moves += 1;
            } else {
                break;
            }
        }
        Ok(moves)
    }
}
