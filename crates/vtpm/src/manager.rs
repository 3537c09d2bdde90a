//! The vTPM manager: the Dom0 service that owns every vTPM instance,
//! routes guest commands to them, and holds their state.
//!
//! Dom0 serves every guest ring from one tpmback loop, so one thread
//! calls [`VtpmManager::handle`] on the deployed path. Each structure
//! has one lock: the routing table is one `RwLock<HashMap>`, held only to
//! clone an instance's handle, and each instance sits behind its own
//! `parking_lot::Mutex`, held for the command's work. Toolstack calls
//! (create, destroy, migration) from other threads contend only on the
//! instance they touch. The table lock is always released before an
//! instance lock is taken.
//!
//! Per-domain admission control ([`crate::admission`]) rides on that
//! shape: it refuses traffic from persistently denied domains at ring
//! ingress, before any hook or TPM work is spent on it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use tpm::{command_cost_ns, ordinal_of, TpmConfig};
use xen_sim::{DomainId, Hypervisor, Result as XenResult};

use vtpm_telemetry::{MetricsSnapshot, Outcome, Span, Telemetry};

use crate::admission::AdmissionController;
use crate::hook::{AccessDecision, AccessHook, RequestContext, StockHook};
use crate::instance::{InstanceId, VtpmInstance};
use crate::mirror::{MirrorMode, StateMirror};
use crate::transport::{Envelope, ResponseEnvelope, ResponseStatus};

/// Manager configuration.
#[derive(Clone)]
pub struct ManagerConfig {
    /// How instance state is held resident (AC3 switch).
    pub mirror_mode: MirrorMode,
    /// Config for the virtual TPMs this manager manufactures.
    pub vtpm_config: TpmConfig,
    /// Virtual nanoseconds charged per request for the transport hop
    /// (ring copy + event channel + context switch), per direction.
    pub transport_cost_ns: u64,
    /// Whether to charge the modelled hardware-TPM command cost to the
    /// virtual clock (true for experiments reporting virtual time).
    pub charge_virtual_time: bool,
    /// Runtime switch for request spans: the stage histograms and the
    /// span ring. Off, the registry still counts every outcome (the
    /// counters behind [`VtpmManager::stats_snapshot`]) but records no
    /// latencies and buffers no spans.
    pub telemetry_enabled: bool,
    /// Span-ring slots in total. Small values let tests provoke exact,
    /// countable overflow.
    pub telemetry_span_capacity: usize,
    /// Per-domain admission control at ring ingress (default: disabled).
    pub admission: bool,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig {
            mirror_mode: MirrorMode::Cleartext,
            vtpm_config: TpmConfig::default(),
            transport_cost_ns: 15_000, // ~15µs per hop, typical split-driver cost
            charge_virtual_time: true,
            telemetry_enabled: true,
            telemetry_span_capacity: vtpm_telemetry::DEFAULT_SPAN_CAPACITY,
            admission: false,
        }
    }
}

/// One coherent operator-facing view of the manager's counters: the
/// request outcomes, derived from the telemetry registry, plus the
/// mirror hygiene counters. Produced by [`VtpmManager::stats_snapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ManagerStatsSnapshot {
    /// Requests that reached an instance and executed
    /// (`allowed − no_instance`).
    pub handled: u64,
    /// Requests denied by the access hook (`denied − deny:admission`).
    pub denied: u64,
    /// Requests that failed before dispatch: bad envelope or no
    /// instance (`malformed + no_instance`).
    pub errors: u64,
    /// Handled requests whose serialize + mirror step was skipped.
    pub mirror_skipped: u64,
    /// Mirror updates that failed after a successful TPM mutation.
    pub mirror_failures: u64,
    /// Post-commit hygiene scrubs that failed (stale slot bytes linger).
    pub scrub_failures: u64,
    /// Mirror updates that had to durably burn generations consumed by a
    /// failed earlier attempt before committing (retries after failure).
    pub retried_generation_burns: u64,
    /// Requests refused at ring ingress by admission control
    /// (`deny:admission`).
    pub throttled: u64,
    /// Total finished requests. The snapshot is coherent:
    /// `handled + denied + errors + throttled == finished` holds for
    /// every snapshot, even ones taken mid-load.
    pub finished: u64,
}

/// The routing table: id → instance. Lookup on the hot path takes the
/// read lock only long enough to clone the instance's handle; the work
/// itself runs under that instance's own mutex.
type InstanceTable = RwLock<HashMap<InstanceId, Arc<Mutex<VtpmInstance>>>>;

/// The manager.
pub struct VtpmManager {
    hv: Arc<Hypervisor>,
    seed: Vec<u8>,
    cfg: ManagerConfig,
    hook: RwLock<Arc<dyn AccessHook>>,
    instances: InstanceTable,
    mirror: StateMirror,
    admission: AdmissionController,
    next_instance: AtomicU32,
    /// Request telemetry: outcome counters always, spans when enabled.
    telemetry: Arc<Telemetry>,
    /// Handled requests that left the TPM's permanent state untouched,
    /// so the serialize + mirror step was skipped outright.
    mirror_skipped: AtomicU64,
    /// Mirror updates that failed after a successful TPM mutation (host
    /// memory exhaustion or an injected fault). The mirror is stale
    /// until the next successful refresh; a crash in that window loses
    /// the unmirrored mutations.
    mirror_failures: AtomicU64,
}

/// Build the registry a fresh manager should carry: spans on or off per
/// the runtime config switch, outcome counters always.
fn make_telemetry(cfg: &ManagerConfig) -> Arc<Telemetry> {
    Arc::new(if cfg.telemetry_enabled {
        Telemetry::with_span_capacity(cfg.telemetry_span_capacity)
    } else {
        Telemetry::counters_only()
    })
}

impl VtpmManager {
    /// Stand up a manager on `hv`. The mirror master key is derived from
    /// the seed (in the full platform it is unsealed from the hardware
    /// TPM at boot — see `persist`).
    pub fn new(hv: Arc<Hypervisor>, seed: &[u8], cfg: ManagerConfig) -> XenResult<Self> {
        Self::with_master_key(hv, seed, cfg, Self::derive_master_key(seed))
    }

    /// The mirror master key a manager booted from `seed` uses. Public so
    /// the crash/restart path can re-derive it: recovery rebuilds the
    /// manager from the Dom0 mirror frames alone, and the key is the one
    /// secret that must come from outside those frames.
    pub fn derive_master_key(seed: &[u8]) -> [u8; 16] {
        let key_material = tpm_crypto::sha256(&[seed, b"/mirror-master-key"].concat());
        key_material[..16].try_into().expect("16 bytes")
    }

    /// Stand up a manager with an explicit master key (the restore path,
    /// where the key was just unsealed from the hardware TPM).
    pub fn with_master_key(
        hv: Arc<Hypervisor>,
        seed: &[u8],
        cfg: ManagerConfig,
        master_key: [u8; 16],
    ) -> XenResult<Self> {
        let mirror = StateMirror::new(Arc::clone(&hv), cfg.mirror_mode, master_key)?;
        Ok(VtpmManager {
            hv,
            seed: seed.to_vec(),
            telemetry: make_telemetry(&cfg),
            admission: AdmissionController::new(cfg.admission),
            cfg,
            hook: RwLock::new(Arc::new(StockHook)),
            instances: InstanceTable::default(),
            mirror,
            next_instance: AtomicU32::new(1),
            mirror_skipped: AtomicU64::new(0),
            mirror_failures: AtomicU64::new(0),
        })
    }

    /// Rebuild a manager from the Dom0 mirror frames alone — the crash/
    /// restart path. The old manager process is gone; all that survives
    /// is simulated machine memory. Recovery re-derives the master key
    /// from the seed (in the full platform: unseals it from the hardware
    /// TPM), scans Dom0 memory for committed mirror regions, restores
    /// each instance's TPM from its decrypted image, and resumes serving
    /// the original instance ids so in-flight guests reconnect.
    ///
    /// The caller re-installs its access hook; hooks hold host policy,
    /// not guest state, and are not part of the mirrored image.
    pub fn recover(
        hv: Arc<Hypervisor>,
        seed: &[u8],
        cfg: ManagerConfig,
    ) -> XenResult<(Self, RecoveryReport)> {
        let master_key = Self::derive_master_key(seed);
        let (mirror, mirror_report) =
            StateMirror::recover(Arc::clone(&hv), cfg.mirror_mode, master_key)?;
        let mgr = VtpmManager {
            hv,
            seed: seed.to_vec(),
            telemetry: make_telemetry(&cfg),
            admission: AdmissionController::new(cfg.admission),
            cfg,
            hook: RwLock::new(Arc::new(StockHook)),
            instances: InstanceTable::default(),
            mirror,
            next_instance: AtomicU32::new(1),
            mirror_skipped: AtomicU64::new(0),
            mirror_failures: AtomicU64::new(0),
        };
        let mut report = RecoveryReport {
            resumed: Vec::new(),
            failed: Vec::new(),
            mirror: mirror_report,
        };
        for id in mgr.mirror.instance_ids() {
            let Ok(state) = mgr.mirror.read(id) else {
                report.failed.push(id);
                continue;
            };
            match VtpmInstance::from_state(id, &state, &mgr.seed, mgr.cfg.vtpm_config.clone()) {
                Ok(mut instance) => {
                    // The mirror is current by construction — the image
                    // just came from it.
                    instance.mirrored_generation = instance.tpm.state_generation();
                    mgr.instances.write().insert(id, Arc::new(Mutex::new(instance)));
                    mgr.next_instance.fetch_max(id + 1, Ordering::Relaxed);
                    report.resumed.push(id);
                }
                Err(_) => report.failed.push(id),
            }
        }
        Ok((mgr, report))
    }

    /// Install an access hook (the improved layer); replaces the current
    /// one atomically.
    pub fn set_hook(&self, hook: Arc<dyn AccessHook>) {
        *self.hook.write() = hook;
    }

    /// The active hook (a manager restart re-installs it).
    pub(crate) fn hook(&self) -> Arc<dyn AccessHook> {
        Arc::clone(&self.hook.read())
    }

    /// Name of the active hook.
    pub fn hook_name(&self) -> String {
        self.hook.read().name().to_string()
    }

    /// The manager's configuration.
    pub fn config(&self) -> &ManagerConfig {
        &self.cfg
    }

    /// The hypervisor this manager runs on.
    pub fn hypervisor(&self) -> &Arc<Hypervisor> {
        &self.hv
    }

    /// The request telemetry registry.
    #[inline]
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// One coherent snapshot of the whole registry, with the mirror
    /// hygiene and nonce-audit counters folded in as auxiliary gauges.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let io = self.mirror.io_stats();
        self.telemetry.snapshot_with_aux(&[
            ("mirror_updates", io.updates),
            ("mirror_clean_updates", io.clean_updates),
            ("mirror_data_pages_written", io.data_pages_written),
            ("mirror_pages_scrubbed", io.pages_scrubbed),
            ("mirror_bytes_written", io.bytes_written),
            ("mirror_scrub_failures", io.scrub_failures),
            ("mirror_retried_generation_burns", io.retried_generation_burns),
            ("mirror_skipped", self.mirror_skipped.load(Ordering::Relaxed)),
            ("mirror_failures", self.mirror_failures.load(Ordering::Relaxed)),
            ("nonce_reuses", self.mirror.nonce_reuses()),
            ("admission_refused", self.admission.refused_total()),
            ("admission_throttle_events", self.admission.throttle_events()),
        ])
    }

    /// Coherent operator-facing counters: a view over the telemetry
    /// registry's outcome counters plus the mirror hygiene counters
    /// (skips, failures, scrub failures, retry burns).
    ///
    /// The outcome counters are read seqlock-style against the
    /// `finished` epoch. [`Telemetry::finish`] bumps the outcome
    /// counter, then its sub-counter (`no_instance` or the deny
    /// reason) with `Release`, then `finished` with `Release`; here the
    /// sub-counters are read with `Acquire` *before* the outcomes, so a
    /// sub-counter bump from an unfinished request makes its outcome
    /// visible too and the sum check below rejects the read. A snapshot
    /// is only returned when `finished` was stable across the reads
    /// *and* `allowed + denied + malformed` sums to it, so
    /// `handled + denied + errors + throttled == finished` holds for
    /// every snapshot, even ones taken mid-load.
    pub fn stats_snapshot(&self) -> ManagerStatsSnapshot {
        type T = Telemetry;
        let io = self.mirror.io_stats();
        let reg = self.telemetry.registry();
        let throttle = T::deny_counter(vtpm_telemetry::DENY_ADMISSION);
        loop {
            let f0 = reg.atomic(T::FINISHED).load(Ordering::Acquire);
            let no_instance = reg.atomic(T::NO_INSTANCE).load(Ordering::Acquire);
            let throttled = reg.atomic(throttle).load(Ordering::Acquire);
            let allowed = reg.get(T::ALLOWED);
            let denied = reg.get(T::DENIED);
            let malformed = reg.get(T::MALFORMED);
            let f1 = reg.atomic(T::FINISHED).load(Ordering::Acquire);
            if f0 == f1 && allowed + denied + malformed == f0 {
                return ManagerStatsSnapshot {
                    handled: allowed - no_instance,
                    denied: denied - throttled,
                    errors: malformed + no_instance,
                    throttled,
                    finished: f0,
                    mirror_skipped: self.mirror_skipped.load(Ordering::Relaxed),
                    mirror_failures: self.mirror_failures.load(Ordering::Relaxed),
                    scrub_failures: io.scrub_failures,
                    retried_generation_burns: io.retried_generation_burns,
                };
            }
            // A writer is between its outcome bump and the epoch bump —
            // a few-instruction window; spin until the world is still.
            std::hint::spin_loop();
        }
    }

    /// The per-domain admission controller (diagnostics and the
    /// sentinel→manager closed loop).
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// Mirror a brand-new instance's first image, scrubbing and
    /// untracking the region if the update fails partway. Without the
    /// cleanup a failed first update leaked a tracked region with
    /// part-written frames: never routed, never scrubbed, and in the
    /// way of any later instance reusing the id.
    fn mirror_initial(&self, id: InstanceId, state: &[u8]) -> XenResult<()> {
        self.mirror.update(id, state).map_err(|e| {
            let _ = self.mirror.discard_uncommitted(id);
            e
        })?;
        Ok(())
    }

    /// Create a fresh vTPM instance; returns its id.
    pub fn create_instance(&self) -> XenResult<InstanceId> {
        let id = self.next_instance.fetch_add(1, Ordering::Relaxed);
        let mut instance = VtpmInstance::new(id, &self.seed, self.cfg.vtpm_config.clone());
        let state = instance.tpm.serialize_state();
        self.mirror_initial(id, &state)?;
        instance.mirrored_generation = instance.tpm.state_generation();
        self.instances.write().insert(id, Arc::new(Mutex::new(instance)));
        Ok(id)
    }

    /// Register an instance built elsewhere (migration arrival).
    pub fn adopt_instance(&self, instance: VtpmInstance) -> XenResult<InstanceId> {
        let id = self.next_instance.fetch_add(1, Ordering::Relaxed);
        let mut instance = instance;
        instance.id = id;
        let state = instance.tpm.serialize_state();
        self.mirror_initial(id, &state)?;
        instance.mirrored_generation = instance.tpm.state_generation();
        self.instances.write().insert(id, Arc::new(Mutex::new(instance)));
        Ok(id)
    }

    /// Re-insert an instance under its original id (restore path). The id
    /// counter is advanced past it so future ids never collide.
    pub fn restore_instance(&self, id: InstanceId, mut instance: VtpmInstance) -> XenResult<()> {
        instance.id = id;
        let state = instance.tpm.serialize_state();
        self.mirror_initial(id, &state)?;
        instance.mirrored_generation = instance.tpm.state_generation();
        self.instances.write().insert(id, Arc::new(Mutex::new(instance)));
        self.next_instance.fetch_max(id + 1, Ordering::Relaxed);
        Ok(())
    }

    /// Remove an instance, scrubbing its resident image.
    ///
    /// Ordering matters: the instance is unrouted (removed from the
    /// table) and tombstoned (`destroyed`, set under its lock) *before*
    /// the mirror is scrubbed. Requests that cloned the handle earlier
    /// must wait for the lock and then observe the tombstone, so no
    /// concurrent mutation can re-mirror state after the scrub and leave
    /// an orphaned resident image in Dom0 frames; taking the table write
    /// lock up front also makes concurrent destroys race safely (one
    /// wins, the other sees `false`). If the scrub fails (injected
    /// fault, host trouble) the instance is re-registered and stays
    /// usable — its mirror region is likewise retained for a re-scrub on
    /// retry — instead of losing state or leaking frames.
    pub fn destroy_instance(&self, id: InstanceId) -> XenResult<bool> {
        let Some(handle) = self.instances.write().remove(&id) else {
            return Ok(false);
        };
        let mut instance = handle.lock();
        instance.destroyed = true;
        if let Err(e) = self.mirror.remove(id) {
            instance.destroyed = false;
            drop(instance);
            self.instances.write().insert(id, handle);
            return Err(e);
        }
        Ok(true)
    }

    /// Freeze (or thaw) an instance for live migration. While quiesced,
    /// guest requests through [`handle`](Self::handle) are refused with
    /// `NoInstance`; toolstack access via
    /// [`with_instance`](Self::with_instance) keeps working so the
    /// migration driver can export the frozen state. Returns `false` if
    /// the instance does not exist (or was destroyed).
    ///
    /// The flag lives in volatile manager memory: a crashed-and-recovered
    /// manager comes back with every instance thawed, and the migration
    /// driver must re-quiesce from its durable journal before the guest
    /// can race in a command.
    pub fn set_quiesced(&self, id: InstanceId, quiesced: bool) -> bool {
        let Some(handle) = self.instances.read().get(&id).cloned() else {
            return false;
        };
        let mut guard = handle.lock();
        if guard.destroyed {
            return false;
        }
        guard.quiesced = quiesced;
        true
    }

    /// Whether instance `id` is currently quiesced for migration.
    pub fn is_quiesced(&self, id: InstanceId) -> Option<bool> {
        let handle = self.instances.read().get(&id).cloned()?;
        let guard = handle.lock();
        if guard.destroyed {
            return None;
        }
        Some(guard.quiesced)
    }

    /// Instance ids currently live, ascending.
    pub fn instance_ids(&self) -> Vec<InstanceId> {
        let mut ids: Vec<InstanceId> = self.instances.read().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Run `f` with exclusive access to instance `id` (toolstack paths:
    /// migration, diagnostics).
    pub fn with_instance<R>(
        &self,
        id: InstanceId,
        f: impl FnOnce(&mut VtpmInstance) -> R,
    ) -> Option<R> {
        let handle = self.instances.read().get(&id).cloned()?;
        let mut guard = handle.lock();
        if guard.destroyed {
            return None;
        }
        let out = f(&mut guard);
        // Toolstack paths can mutate the TPM directly; keep the resident
        // image current before the lock drops so concurrent readers of
        // the mirror never see a stale or torn image.
        self.refresh_mirror(id, &mut guard);
        Some(out)
    }

    /// Re-mirror `instance` if its permanent state moved past what the
    /// mirror holds. Must be called with the instance lock held. Returns
    /// the bytes the mirror durably wrote for this refresh (0 when
    /// skipped, clean, or failed) — the telemetry span records it.
    fn refresh_mirror(&self, id: InstanceId, instance: &mut VtpmInstance) -> u64 {
        let gen = instance.tpm.state_generation();
        if gen == instance.mirrored_generation {
            self.mirror_skipped.fetch_add(1, Ordering::Relaxed);
            return 0;
        }
        let state = instance.tpm.serialize_state();
        match self.mirror.update(id, &state) {
            Ok(bytes) => {
                instance.mirrored_generation = gen;
                bytes
            }
            // Mirror failure (host memory exhaustion, injected fault) is
            // not the guest's problem and the mutation already happened:
            // count it, leave the stale marker, and retry on the next
            // mutation. The mirror's atomic commit guarantees the failed
            // update left the previous committed image intact.
            Err(_) => {
                self.mirror_failures.fetch_add(1, Ordering::Relaxed);
                0
            }
        }
    }

    /// Serialize an instance's TPM state (migration source side).
    pub fn export_instance_state(&self, id: InstanceId) -> Option<Vec<u8>> {
        self.with_instance(id, |i| i.tpm.serialize_state())
    }

    /// Read an instance's resident image back out of the mirror
    /// (decrypting in Encrypted mode). Diagnostics/tests: the manager's
    /// own view of what a coherent resident image should decode to.
    pub fn resident_image(&self, id: InstanceId) -> XenResult<Vec<u8>> {
        self.mirror.read(id)
    }

    /// Close `span` with `outcome`, stamping the end from the sim clock:
    /// the registry counts the outcome and bumps the `finished` epoch.
    #[inline]
    fn close_span(&self, mut span: Span, outcome: Outcome) {
        span.set_outcome(outcome);
        self.telemetry.finish(span, self.hv.clock.now_ns());
    }

    /// Handle one enveloped request arriving from `source_domain`.
    /// Returns the encoded response envelope. This is the manager's hot
    /// path; it takes no global lock while the TPM executes.
    ///
    /// Telemetry: a span is minted at entry (ring ingress) and closed on
    /// every exit path. All stamps come from the hypervisor's virtual
    /// clock, so traces and histograms are byte-deterministic under the
    /// chaos harness; the ingress stage covers the up-front transport
    /// charge (both hops), the AC stage the hook's modelled cost, and
    /// the execute stage the TPM command cost.
    pub fn handle(&self, source_domain: DomainId, envelope_bytes: &[u8]) -> Vec<u8> {
        let mut span = self.telemetry.begin(self.hv.clock.now_ns());
        span.set_domain(source_domain.0);
        // Every request pays both transport hops (request in + response
        // out): malformed and denied requests crossed the ring too, and
        // their rejection travels back the same way. Charging this up
        // front keeps the virtual-time model consistent across outcomes.
        if self.cfg.charge_virtual_time {
            self.hv.clock.advance_ns(2 * self.cfg.transport_cost_ns);
        }
        let envelope = match Envelope::decode(envelope_bytes) {
            Ok(e) => e,
            Err(_) => {
                self.admission.record_outcome(source_domain.0, false);
                self.close_span(span, Outcome::Malformed);
                return ResponseEnvelope {
                    seq: 0,
                    status: ResponseStatus::Malformed,
                    body: Vec::new(),
                }
                .encode();
            }
        };
        span.set_ordinal(ordinal_of(&envelope.command).unwrap_or(0));
        span.stamp_decode(self.hv.clock.now_ns());

        // Per-domain admission control at ring ingress: a domain whose
        // traffic the hook keeps denying is refused here, before any
        // hook evaluation or TPM work is spent on it. The refusal is
        // not fed back as an outcome — `admit` already decays the
        // domain's EWMA per refusal, which is how it earns release.
        if self.admission.admit(source_domain.0).is_err() {
            self.close_span(span, Outcome::Denied(vtpm_telemetry::DENY_ADMISSION));
            return ResponseEnvelope {
                seq: envelope.seq,
                status: ResponseStatus::Throttled,
                body: Vec::new(),
            }
            .encode();
        }

        let ctx = RequestContext {
            request_id: span.request_id(),
            source_domain,
            claimed_domain: envelope.domain,
            instance: envelope.instance,
            seq: envelope.seq,
            locality: envelope.locality,
            ordinal: ordinal_of(&envelope.command),
            tag: envelope.tag.as_ref(),
            command: &envelope.command,
        };

        // Access control: the paper's contribution hangs entirely on this
        // call. StockHook makes it a no-op (baseline).
        let hook = self.hook.read().clone();
        if self.cfg.charge_virtual_time {
            let ac_cost = hook.overhead_ns(&ctx);
            if ac_cost > 0 {
                self.hv.clock.advance_ns(ac_cost);
            }
        }
        let decision = hook.authorize(&ctx);
        span.stamp_ac(self.hv.clock.now_ns());
        if let AccessDecision::Deny(reason) = decision {
            self.admission.record_outcome(source_domain.0, true);
            self.close_span(span, Outcome::Denied(reason.code()));
            return ResponseEnvelope {
                seq: envelope.seq,
                status: ResponseStatus::Denied,
                body: Vec::new(),
            }
            .encode();
        }

        let handle = self.instances.read().get(&envelope.instance).cloned();
        let handle = match handle {
            Some(h) => h,
            None => {
                self.admission.record_outcome(source_domain.0, false);
                self.close_span(span, Outcome::NoInstance);
                return ResponseEnvelope {
                    seq: envelope.seq,
                    status: ResponseStatus::NoInstance,
                    body: Vec::new(),
                }
                .encode();
            }
        };

        // Only dispatched commands pay the modelled TPM execution cost.
        if self.cfg.charge_virtual_time {
            let cmd_cost = ctx.ordinal.map(command_cost_ns).unwrap_or(1_000_000);
            self.hv.clock.advance_ns(cmd_cost);
        }

        let body = {
            let mut instance = handle.lock();
            // The handle may have been cloned before a concurrent
            // destroy unrouted the instance; executing now would
            // re-mirror state the destroy just scrubbed.
            if instance.destroyed || instance.quiesced {
                // Quiesced instances (frozen for live migration) refuse
                // guest traffic exactly like missing ones: the frontend
                // backs off and retries, and after a committed migration
                // the retry lands on the destination host instead.
                self.admission.record_outcome(source_domain.0, false);
                self.close_span(span, Outcome::NoInstance);
                return ResponseEnvelope {
                    seq: envelope.seq,
                    status: ResponseStatus::NoInstance,
                    body: Vec::new(),
                }
                .encode();
            }
            let body = instance.execute(envelope.locality, &envelope.command);
            instance.stats.last_seq = instance.stats.last_seq.max(envelope.seq);
            span.stamp_exec(self.hv.clock.now_ns());
            // Serialize + mirror under the instance lock, and only when
            // the command actually moved the permanent state: read-only
            // traffic skips the whole snapshot path, and concurrent
            // commands can never publish mirror images out of order.
            let mirror_bytes = self.refresh_mirror(envelope.instance, &mut instance);
            span.set_mirror_bytes(mirror_bytes);
            span.stamp_mirror(self.hv.clock.now_ns());
            body
        };

        self.admission.record_outcome(source_domain.0, false);
        self.close_span(span, Outcome::Ok);
        ResponseEnvelope { seq: envelope.seq, status: ResponseStatus::Ok, body }.encode()
    }

    /// The mirror master key (crate-internal; see `persist`).
    pub(crate) fn mirror_master_key(&self) -> Option<[u8; 16]> {
        self.mirror.master_key()
    }

    /// Ground truth for the dump experiments: the frames holding instance
    /// `id`'s resident image.
    pub fn mirror_frames(&self, id: InstanceId) -> Option<Vec<usize>> {
        self.mirror.region_frames(id)
    }

    /// The mirror mode in force.
    pub fn mirror_mode(&self) -> MirrorMode {
        self.mirror.mode()
    }

    /// Mirror write-path counters (pages/bytes written, clean updates).
    pub fn mirror_io_stats(&self) -> crate::mirror::MirrorIoStats {
        self.mirror.io_stats()
    }

    /// Start auditing mirror CTR nonce pairs (tests/harness; see
    /// [`StateMirror::enable_nonce_audit`]).
    pub fn enable_nonce_audit(&self) {
        self.mirror.enable_nonce_audit();
    }

    /// Nonce-pair collisions observed since the audit was enabled.
    pub fn nonce_reuses(&self) -> u64 {
        self.mirror.nonce_reuses()
    }
}

/// What [`VtpmManager::recover`] managed to bring back.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Instances restored from their committed mirror image and serving
    /// again under their original ids, ascending.
    pub resumed: Vec<InstanceId>,
    /// Instances whose mirror region was found but whose image failed
    /// verification or did not parse as TPM state.
    pub failed: Vec<InstanceId>,
    /// The underlying memory-scan report.
    pub mirror: crate::mirror::MirrorRecovery,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mirror::MAX_STATE_BYTES;
    use tpm::{parse_response, rc};
    use xen_sim::XenError;

    fn setup(mode: MirrorMode) -> (Arc<Hypervisor>, VtpmManager) {
        let hv = Arc::new(Hypervisor::boot(2048, 8).unwrap());
        let mgr = VtpmManager::new(
            Arc::clone(&hv),
            b"mgr-test",
            ManagerConfig { mirror_mode: mode, ..Default::default() },
        )
        .unwrap();
        (hv, mgr)
    }

    fn startup_cmd() -> Vec<u8> {
        vec![0x00, 0xC1, 0, 0, 0, 12, 0, 0, 0, 0x99, 0, 1]
    }

    fn envelope(domain: u32, instance: u32, seq: u64, cmd: Vec<u8>) -> Vec<u8> {
        Envelope { domain, instance, seq, locality: 0, tag: None, command: cmd }.encode()
    }

    #[test]
    fn create_and_route_commands() {
        let (_hv, mgr) = setup(MirrorMode::Cleartext);
        let id = mgr.create_instance().unwrap();
        let resp = mgr.handle(DomainId(1), &envelope(1, id, 1, startup_cmd()));
        let renv = ResponseEnvelope::decode(&resp).unwrap();
        assert_eq!(renv.status, ResponseStatus::Ok);
        assert_eq!(renv.seq, 1);
        assert_eq!(parse_response(&renv.body).unwrap().1, rc::SUCCESS);
        let s = mgr.stats_snapshot();
        assert_eq!((s.handled, s.denied, s.errors), (1, 0, 0));
    }

    #[test]
    fn unknown_instance_reported() {
        let (_hv, mgr) = setup(MirrorMode::Cleartext);
        let resp = mgr.handle(DomainId(1), &envelope(1, 999, 1, startup_cmd()));
        let renv = ResponseEnvelope::decode(&resp).unwrap();
        assert_eq!(renv.status, ResponseStatus::NoInstance);
        let s = mgr.stats_snapshot();
        assert_eq!((s.handled, s.denied, s.errors), (0, 0, 1));
    }

    #[test]
    fn malformed_envelope_reported() {
        let (_hv, mgr) = setup(MirrorMode::Cleartext);
        let resp = mgr.handle(DomainId(1), b"garbage");
        let renv = ResponseEnvelope::decode(&resp).unwrap();
        assert_eq!(renv.status, ResponseStatus::Malformed);
    }

    #[test]
    fn stock_hook_allows_cross_instance_access() {
        // The W1/W2 baseline weakness, demonstrated at the manager level:
        // domain 2 can talk to domain 1's instance unimpeded.
        let (_hv, mgr) = setup(MirrorMode::Cleartext);
        let victim = mgr.create_instance().unwrap();
        let resp = mgr.handle(DomainId(2), &envelope(1 /* spoofed */, victim, 1, startup_cmd()));
        assert_eq!(ResponseEnvelope::decode(&resp).unwrap().status, ResponseStatus::Ok);
    }

    #[test]
    fn destroy_instance_stops_routing() {
        let (_hv, mgr) = setup(MirrorMode::Cleartext);
        let id = mgr.create_instance().unwrap();
        assert!(mgr.destroy_instance(id).unwrap());
        assert!(!mgr.destroy_instance(id).unwrap());
        let resp = mgr.handle(DomainId(1), &envelope(1, id, 1, startup_cmd()));
        assert_eq!(
            ResponseEnvelope::decode(&resp).unwrap().status,
            ResponseStatus::NoInstance
        );
    }

    #[test]
    fn quiesce_refuses_guests_but_not_toolstack() {
        let (_hv, mgr) = setup(MirrorMode::Encrypted);
        let id = mgr.create_instance().unwrap();
        let resp = mgr.handle(DomainId(1), &envelope(1, id, 1, startup_cmd()));
        assert_eq!(ResponseEnvelope::decode(&resp).unwrap().status, ResponseStatus::Ok);

        // Frozen for migration: guest traffic bounces like the instance
        // is gone, but the toolstack export path still reaches it.
        assert!(mgr.set_quiesced(id, true));
        assert_eq!(mgr.is_quiesced(id), Some(true));
        let resp = mgr.handle(DomainId(1), &envelope(1, id, 2, startup_cmd()));
        assert_eq!(
            ResponseEnvelope::decode(&resp).unwrap().status,
            ResponseStatus::NoInstance
        );
        assert!(mgr.with_instance(id, |i| i.tpm.serialize_state()).is_some());

        // Thawed (migration aborted): service resumes.
        assert!(mgr.set_quiesced(id, false));
        let resp = mgr.handle(DomainId(1), &envelope(1, id, 3, startup_cmd()));
        assert_eq!(ResponseEnvelope::decode(&resp).unwrap().status, ResponseStatus::Ok);

        // Unknown / destroyed instances can't be quiesced.
        assert!(!mgr.set_quiesced(999, true));
        assert_eq!(mgr.is_quiesced(999), None);
        assert!(mgr.destroy_instance(id).unwrap());
        assert!(!mgr.set_quiesced(id, true));
    }

    /// Hook that refuses everything, with a modelled check cost.
    struct DenyAllHook;

    impl AccessHook for DenyAllHook {
        fn authorize(&self, _ctx: &RequestContext<'_>) -> AccessDecision {
            AccessDecision::Deny(crate::hook::DenyReason::NoCredential)
        }
        fn overhead_ns(&self, _ctx: &RequestContext<'_>) -> u64 {
            2_500
        }
        fn name(&self) -> &str {
            "deny-all"
        }
    }

    #[test]
    fn virtual_time_charged_per_command() {
        let (hv, mgr) = setup(MirrorMode::Cleartext);
        let id = mgr.create_instance().unwrap();
        let t0 = hv.clock.now_ns();
        mgr.handle(DomainId(1), &envelope(1, id, 1, startup_cmd()));
        let t1 = hv.clock.now_ns();
        // startup cost (1ms) + 2 * transport (15µs each).
        assert_eq!(t1 - t0, 1_000_000 + 30_000);

        // A malformed request still crossed the ring both ways: it pays
        // the transport hops (but no AC or command cost).
        let t2 = hv.clock.now_ns();
        mgr.handle(DomainId(1), b"garbage");
        assert_eq!(hv.clock.now_ns() - t2, 30_000);

        // A denied request pays transport + the hook's modelled cost,
        // but never the TPM command cost.
        mgr.set_hook(Arc::new(DenyAllHook));
        let t3 = hv.clock.now_ns();
        let resp = mgr.handle(DomainId(1), &envelope(1, id, 2, startup_cmd()));
        assert_eq!(ResponseEnvelope::decode(&resp).unwrap().status, ResponseStatus::Denied);
        assert_eq!(hv.clock.now_ns() - t3, 30_000 + 2_500);
    }

    fn pcr_read_cmd() -> Vec<u8> {
        let mut cmd = Vec::new();
        cmd.extend_from_slice(&0x00C1u16.to_be_bytes());
        cmd.extend_from_slice(&14u32.to_be_bytes());
        cmd.extend_from_slice(&tpm::ordinal::PCR_READ.to_be_bytes());
        cmd.extend_from_slice(&0u32.to_be_bytes());
        cmd
    }

    fn extend_cmd(idx: u32, digest: [u8; 20]) -> Vec<u8> {
        let mut cmd = Vec::new();
        cmd.extend_from_slice(&0x00C1u16.to_be_bytes());
        cmd.extend_from_slice(&34u32.to_be_bytes());
        cmd.extend_from_slice(&tpm::ordinal::EXTEND.to_be_bytes());
        cmd.extend_from_slice(&idx.to_be_bytes());
        cmd.extend_from_slice(&digest);
        cmd
    }

    #[test]
    fn read_only_commands_skip_the_mirror() {
        let (_hv, mgr) = setup(MirrorMode::Encrypted);
        let id = mgr.create_instance().unwrap();
        mgr.handle(DomainId(1), &envelope(1, id, 1, startup_cmd()));
        let before = mgr.mirror_io_stats();
        let skipped_before = mgr.stats_snapshot().mirror_skipped;
        for s in 0..20u64 {
            let resp = mgr.handle(DomainId(1), &envelope(1, id, 2 + s, pcr_read_cmd()));
            assert_eq!(ResponseEnvelope::decode(&resp).unwrap().status, ResponseStatus::Ok);
        }
        let after = mgr.mirror_io_stats();
        assert_eq!(after.updates, before.updates, "read-only commands must not call the mirror");
        assert_eq!(after.bytes_written, before.bytes_written);
        assert_eq!(mgr.stats_snapshot().mirror_skipped, skipped_before + 20);
    }

    #[test]
    fn mutating_commands_write_only_dirty_pages() {
        let hv = Arc::new(Hypervisor::boot(2048, 8).unwrap());
        let mgr = VtpmManager::new(
            Arc::clone(&hv),
            b"dirty-pages",
            ManagerConfig {
                mirror_mode: MirrorMode::Encrypted,
                vtpm_config: TpmConfig { nv_budget: 64 * 1024, ..Default::default() },
                ..Default::default()
            },
        )
        .unwrap();
        let id = mgr.create_instance().unwrap();
        mgr.handle(DomainId(1), &envelope(1, id, 1, startup_cmd()));
        // Grow the state across several pages so a PCR extend dirties
        // only the page(s) holding the PCR bank, not the NV payload.
        mgr.with_instance(id, |i| {
            i.tpm.provision_nv(0x60, &vec![0xE7u8; 3 * 4096]).unwrap();
        })
        .unwrap();
        let total_pages =
            mgr.with_instance(id, |i| i.tpm.serialize_state().len().div_ceil(4096)).unwrap() as u64;
        assert!(total_pages >= 4, "state must span several pages for this test");
        let before = mgr.mirror_io_stats();
        let resp = mgr.handle(DomainId(1), &envelope(1, id, 2, extend_cmd(5, [0xAB; 20])));
        assert_eq!(ResponseEnvelope::decode(&resp).unwrap().status, ResponseStatus::Ok);
        let after = mgr.mirror_io_stats();
        let written = after.data_pages_written - before.data_pages_written;
        assert!(written >= 1, "the extend must dirty at least one page");
        assert!(
            written < total_pages,
            "a one-PCR change must not rewrite the whole {total_pages}-page image (wrote {written})"
        );
    }

    #[test]
    fn concurrent_hammer_with_resize_never_tears_the_image() {
        // One instance is hammered with mutating commands from several
        // threads while another thread grows and shrinks its state via
        // with_instance. The mirror must always decode to a coherent
        // snapshot (no torn image) and, after the final shrink, no stale
        // bytes of the large image may survive in a full Dom0 dump.
        let hv = Arc::new(Hypervisor::boot(8192, 16).unwrap());
        let mgr = Arc::new(
            VtpmManager::new(
                Arc::clone(&hv),
                b"hammer",
                ManagerConfig {
                    mirror_mode: MirrorMode::Cleartext,
                    vtpm_config: TpmConfig { nv_budget: 64 * 1024, ..Default::default() },
                    charge_virtual_time: false,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        let id = mgr.create_instance().unwrap();
        mgr.handle(DomainId(1), &envelope(1, id, 1, startup_cmd()));

        let mut workers = Vec::new();
        for t in 0..4u64 {
            let mgr = Arc::clone(&mgr);
            workers.push(std::thread::spawn(move || {
                for s in 0..50u64 {
                    let resp = mgr.handle(
                        DomainId(1),
                        &envelope(1, id, 1000 * (t + 1) + s, extend_cmd((t % 8) as u32, [s as u8; 20])),
                    );
                    assert_eq!(ResponseEnvelope::decode(&resp).unwrap().status, ResponseStatus::Ok);
                }
            }));
        }
        // Resizer: repeatedly grow (define + write a fat NV area) and
        // shrink (release it) the serialized state.
        {
            let mgr = Arc::clone(&mgr);
            workers.push(std::thread::spawn(move || {
                for round in 0..10u32 {
                    mgr.with_instance(id, |i| {
                        i.tpm.provision_nv(0x80 + round, &vec![0xD5u8; 2 * 4096]).unwrap();
                    })
                    .unwrap();
                    mgr.with_instance(id, |i| {
                        i.tpm.release_nv(0x80 + round).unwrap();
                    })
                    .unwrap();
                }
            }));
        }
        // Reader: the mirror must decode to a valid snapshot at any
        // point — a torn image fails restore_state.
        {
            let mgr = Arc::clone(&mgr);
            workers.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    let image = mgr.resident_image(id).expect("image readable");
                    tpm::Tpm::restore_state(&image, b"probe", tpm::TpmConfig::default())
                        .expect("mirror image must never be torn");
                }
            }));
        }
        for w in workers {
            w.join().unwrap();
        }

        // After the hammering, the image equals a fresh serialization...
        let state = mgr.export_instance_state(id).unwrap();
        assert_eq!(mgr.resident_image(id).unwrap(), state);
        // ...and no stale fat-NV bytes survive anywhere in the dump.
        let probe = vec![0xD5u8; 64];
        let mut dump = Vec::new();
        for (_, _, page) in hv.dump_memory(DomainId::DOM0).unwrap() {
            dump.extend_from_slice(&page[..]);
        }
        assert!(
            !dump.windows(probe.len()).any(|w| w == &probe[..]),
            "stale bytes of the released NV area survived in the dump"
        );
    }

    #[test]
    fn mirror_tracks_instance_state() {
        let (hv, mgr) = setup(MirrorMode::Cleartext);
        let id = mgr.create_instance().unwrap();
        mgr.handle(DomainId(1), &envelope(1, id, 1, startup_cmd()));
        // The resident image must contain the instance's EK prime — fetch
        // ground truth and scan the Dom0 dump.
        let state = mgr.export_instance_state(id).unwrap();
        let mut dump = Vec::new();
        for (_, _, page) in hv.dump_memory(DomainId::DOM0).unwrap() {
            dump.extend_from_slice(&page[..]);
        }
        assert!(
            dump.windows(state.len().min(64)).any(|w| w == &state[..state.len().min(64)]),
            "baseline resident image must appear in the dump"
        );
    }

    #[test]
    fn encrypted_mirror_hides_state() {
        let (hv, mgr) = setup(MirrorMode::Encrypted);
        let id = mgr.create_instance().unwrap();
        mgr.handle(DomainId(1), &envelope(1, id, 1, startup_cmd()));
        let state = mgr.export_instance_state(id).unwrap();
        let mut dump = Vec::new();
        for (_, _, page) in hv.dump_memory(DomainId::DOM0).unwrap() {
            dump.extend_from_slice(&page[..]);
        }
        let probe = &state[..64.min(state.len())];
        assert!(
            !dump.windows(probe.len()).any(|w| w == probe),
            "encrypted resident image must not leak cleartext state"
        );
    }

    #[test]
    fn concurrent_requests_to_distinct_instances() {
        let (_hv, mgr) = setup(MirrorMode::Cleartext);
        let mgr = Arc::new(mgr);
        let ids: Vec<u32> = (0..4).map(|_| mgr.create_instance().unwrap()).collect();
        let mut handles = Vec::new();
        for (t, id) in ids.into_iter().enumerate() {
            let mgr = Arc::clone(&mgr);
            handles.push(std::thread::spawn(move || {
                for s in 0..10u64 {
                    let resp = mgr.handle(
                        DomainId(t as u32 + 1),
                        &envelope(t as u32 + 1, id, s, startup_cmd()),
                    );
                    assert_eq!(
                        ResponseEnvelope::decode(&resp).unwrap().status,
                        ResponseStatus::Ok
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(mgr.stats_snapshot().handled, 40);
    }

    #[test]
    fn adopt_instance_assigns_new_id() {
        let (_hv, mgr) = setup(MirrorMode::Cleartext);
        let inst = VtpmInstance::new(99, b"elsewhere", TpmConfig::default());
        let id = mgr.adopt_instance(inst).unwrap();
        assert!(mgr.instance_ids().contains(&id));
        let resp = mgr.handle(DomainId(1), &envelope(1, id, 1, startup_cmd()));
        assert_eq!(ResponseEnvelope::decode(&resp).unwrap().status, ResponseStatus::Ok);
    }

    /// A TPM config with room to grow state past the mirror's limit.
    fn roomy_config() -> TpmConfig {
        TpmConfig { nv_budget: 1 << 20, ..Default::default() }
    }

    /// NV payload that takes any instance's state past the mirror limit.
    fn oversize_nv() -> Vec<u8> {
        vec![0x9C; 900 * 1024]
    }

    fn oversize_instance() -> VtpmInstance {
        let mut inst = VtpmInstance::new(99, b"elsewhere", roomy_config());
        inst.tpm.provision_nv(0x61, &oversize_nv()).unwrap();
        inst
    }

    fn free_frames(hv: &Hypervisor) -> usize {
        hv.with_memory(|m| m.free_frames())
    }

    fn assert_state_too_large(err: XenError) {
        match err {
            XenError::StateTooLarge { bytes, max } => {
                assert_eq!(max, MAX_STATE_BYTES);
                assert!(bytes > max, "{bytes} bytes is within the {max}-byte limit");
            }
            other => panic!("expected StateTooLarge, got {other}"),
        }
    }

    #[test]
    fn restore_refuses_oversize_state_and_tracks_no_region() {
        let (hv, mgr) = setup(MirrorMode::Encrypted);
        let free = free_frames(&hv);
        assert_state_too_large(mgr.restore_instance(5, oversize_instance()).unwrap_err());
        assert!(mgr.mirror.instance_ids().is_empty());
        assert!(mgr.instance_ids().is_empty());
        assert_eq!(free_frames(&hv), free, "a refused restore must allocate no frame");
    }

    #[test]
    fn adopt_refuses_oversize_state_and_tracks_no_region() {
        let (hv, mgr) = setup(MirrorMode::Encrypted);
        let free = free_frames(&hv);
        assert_state_too_large(mgr.adopt_instance(oversize_instance()).unwrap_err());
        assert!(mgr.mirror.instance_ids().is_empty());
        assert!(mgr.instance_ids().is_empty());
        assert_eq!(free_frames(&hv), free, "a refused adopt must allocate no frame");
    }

    #[test]
    fn instance_growing_past_the_mirror_limit_keeps_its_last_image() {
        let hv = Arc::new(Hypervisor::boot(2048, 8).unwrap());
        let mgr = VtpmManager::new(
            Arc::clone(&hv),
            b"oversize",
            ManagerConfig {
                mirror_mode: MirrorMode::Encrypted,
                vtpm_config: roomy_config(),
                ..Default::default()
            },
        )
        .unwrap();
        let id = mgr.create_instance().unwrap();
        mgr.handle(DomainId(1), &envelope(1, id, 1, startup_cmd()));
        let committed = mgr.export_instance_state(id).unwrap();
        let generation = mgr.mirror.generation(id);
        let failures = mgr.stats_snapshot().mirror_failures;
        let grown = mgr
            .with_instance(id, |i| {
                i.tpm.provision_nv(0x61, &oversize_nv()).unwrap();
                i.tpm.serialize_state()
            })
            .unwrap();
        assert_eq!(mgr.stats_snapshot().mirror_failures, failures + 1);
        assert_state_too_large(mgr.mirror.update(id, &grown).unwrap_err());
        assert_eq!(mgr.resident_image(id).unwrap(), committed, "last committed image must survive");
        assert_eq!(mgr.mirror.generation(id), generation);
    }

    #[test]
    fn recover_resumes_instances_from_frames_alone() {
        let (hv, mgr) = setup(MirrorMode::Encrypted);
        let a = mgr.create_instance().unwrap();
        let b = mgr.create_instance().unwrap();
        mgr.handle(DomainId(1), &envelope(1, a, 1, startup_cmd()));
        mgr.handle(DomainId(1), &envelope(1, a, 2, extend_cmd(3, [0x44; 20])));
        mgr.handle(DomainId(2), &envelope(2, b, 1, startup_cmd()));
        let state_a = mgr.export_instance_state(a).unwrap();
        let state_b = mgr.export_instance_state(b).unwrap();
        // Kill the manager: only simulated machine memory survives.
        drop(mgr);
        let (rec, report) = VtpmManager::recover(
            Arc::clone(&hv),
            b"mgr-test",
            ManagerConfig { mirror_mode: MirrorMode::Encrypted, ..Default::default() },
        )
        .unwrap();
        assert_eq!(report.resumed, vec![a, b]);
        assert_eq!(report.failed, Vec::<u32>::new());
        assert_eq!(rec.export_instance_state(a).unwrap(), state_a);
        assert_eq!(rec.export_instance_state(b).unwrap(), state_b);
        // The recovered instances keep serving commands under their ids.
        let resp = rec.handle(DomainId(1), &envelope(1, a, 3, extend_cmd(3, [0x55; 20])));
        assert_eq!(ResponseEnvelope::decode(&resp).unwrap().status, ResponseStatus::Ok);
        // And new instances never collide with resumed ids.
        let c = rec.create_instance().unwrap();
        assert!(c > b);
    }

    #[test]
    fn recover_after_crash_mid_command_yields_pre_or_post_state() {
        let (hv, mgr) = setup(MirrorMode::Encrypted);
        let id = mgr.create_instance().unwrap();
        mgr.handle(DomainId(1), &envelope(1, id, 1, startup_cmd()));
        let pre = mgr.export_instance_state(id).unwrap();
        // Crash between the TPM mutation's first and second mirror write.
        hv.inject_write_crash(DomainId::DOM0, 1);
        let resp = mgr.handle(DomainId(1), &envelope(1, id, 2, extend_cmd(7, [0x66; 20])));
        assert_eq!(ResponseEnvelope::decode(&resp).unwrap().status, ResponseStatus::Ok);
        assert_eq!(mgr.stats_snapshot().mirror_failures, 1);
        let post = mgr.export_instance_state(id).unwrap();
        hv.clear_faults();
        drop(mgr);
        let (rec, report) = VtpmManager::recover(
            Arc::clone(&hv),
            b"mgr-test",
            ManagerConfig { mirror_mode: MirrorMode::Encrypted, ..Default::default() },
        )
        .unwrap();
        assert_eq!(report.resumed, vec![id]);
        let got = rec.export_instance_state(id).unwrap();
        assert!(got == pre || got == post, "recovered state must be pre- or post-command");
    }

    #[test]
    fn failed_destroy_then_retry_leaves_no_orphaned_frames() {
        // A failed destroy must keep the instance wired to its ORIGINAL
        // mirror region: if the region were dropped on the failed scrub,
        // the next mutation would re-mirror into fresh frames and orphan
        // the old ones — still holding the image and a valid metadata
        // page a later recovery would resurrect.
        let (hv, mgr) = setup(MirrorMode::Cleartext);
        let id = mgr.create_instance().unwrap();
        mgr.handle(DomainId(1), &envelope(1, id, 1, startup_cmd()));
        hv.inject_write_crash(DomainId::DOM0, 0);
        assert!(mgr.destroy_instance(id).is_err());
        hv.clear_faults();
        // Instance still usable; the mutation re-mirrors in place.
        let resp = mgr.handle(DomainId(1), &envelope(1, id, 2, extend_cmd(2, [0x33; 20])));
        assert_eq!(ResponseEnvelope::decode(&resp).unwrap().status, ResponseStatus::Ok);
        let state = mgr.export_instance_state(id).unwrap();
        assert_eq!(mgr.destroy_instance(id), Ok(true));
        assert!(mgr.mirror_frames(id).is_none());
        // No byte of the instance survives anywhere in the Dom0 dump...
        let probe = &state[..64.min(state.len())];
        let mut dump = Vec::new();
        for (_, _, page) in hv.dump_memory(DomainId::DOM0).unwrap() {
            dump.extend_from_slice(&page[..]);
        }
        assert!(
            !dump.windows(probe.len()).any(|w| w == probe),
            "destroyed instance state survived in the dump"
        );
        // ...and no stale metadata page lets recovery resurrect it.
        drop(mgr);
        let (_, report) = VtpmManager::recover(
            Arc::clone(&hv),
            b"mgr-test",
            ManagerConfig { mirror_mode: MirrorMode::Cleartext, ..Default::default() },
        )
        .unwrap();
        assert_eq!(report.resumed, Vec::<u32>::new());
        assert_eq!(report.failed, Vec::<u32>::new());
    }

    #[test]
    fn destroy_racing_with_requests_never_leaves_orphaned_mirror_state() {
        // Requests that grabbed the instance handle before destroy
        // unrouted it must observe the tombstone after the scrub instead
        // of re-mirroring state into Dom0 frames nobody tracks anymore.
        let hv = Arc::new(Hypervisor::boot(8192, 16).unwrap());
        let mgr = Arc::new(
            VtpmManager::new(
                Arc::clone(&hv),
                b"destroy-race",
                ManagerConfig {
                    mirror_mode: MirrorMode::Cleartext,
                    charge_virtual_time: false,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        for round in 0..8u32 {
            let id = mgr.create_instance().unwrap();
            mgr.handle(DomainId(1), &envelope(1, id, 1, startup_cmd()));
            let hammer = {
                let mgr = Arc::clone(&mgr);
                std::thread::spawn(move || {
                    for s in 0..30u64 {
                        // Ok before the destroy lands, NoInstance after;
                        // never anything else.
                        let resp = mgr.handle(
                            DomainId(1),
                            &envelope(1, id, 2 + s, extend_cmd((round % 8) as u32, [s as u8; 20])),
                        );
                        let status = ResponseEnvelope::decode(&resp).unwrap().status;
                        assert!(
                            status == ResponseStatus::Ok || status == ResponseStatus::NoInstance,
                            "unexpected status during destroy race: {status:?}"
                        );
                    }
                })
            };
            assert_eq!(mgr.destroy_instance(id), Ok(true));
            hammer.join().unwrap();
            assert!(
                mgr.mirror_frames(id).is_none(),
                "round {round}: a racing request re-mirrored a destroyed instance"
            );
        }
        drop(mgr);
        let (_, report) = VtpmManager::recover(
            Arc::clone(&hv),
            b"destroy-race",
            ManagerConfig { mirror_mode: MirrorMode::Cleartext, ..Default::default() },
        )
        .unwrap();
        assert_eq!(report.resumed, Vec::<u32>::new(), "orphaned mirror state resurrected");
        assert_eq!(report.failed, Vec::<u32>::new());
    }

    #[test]
    fn destroy_instance_survives_scrub_failure() {
        let (hv, mgr) = setup(MirrorMode::Cleartext);
        let id = mgr.create_instance().unwrap();
        mgr.handle(DomainId(1), &envelope(1, id, 1, startup_cmd()));
        hv.inject_write_crash(DomainId::DOM0, 0);
        assert!(mgr.destroy_instance(id).is_err(), "scrub failure must surface");
        hv.clear_faults();
        // The instance is still routed and usable after the failed scrub.
        let resp = mgr.handle(DomainId(1), &envelope(1, id, 2, extend_cmd(1, [0x11; 20])));
        assert_eq!(ResponseEnvelope::decode(&resp).unwrap().status, ResponseStatus::Ok);
        assert_eq!(mgr.destroy_instance(id), Ok(true));
        assert_eq!(mgr.destroy_instance(id), Ok(false));
    }

    /// Hook that denies every request from one source domain.
    struct DenyDomainHook(u32);

    impl AccessHook for DenyDomainHook {
        fn authorize(&self, ctx: &RequestContext<'_>) -> AccessDecision {
            if ctx.source_domain.0 == self.0 {
                AccessDecision::Deny(crate::hook::DenyReason::NoCredential)
            } else {
                AccessDecision::Allow
            }
        }
        fn name(&self) -> &str {
            "deny-domain"
        }
    }

    #[test]
    fn admission_throttles_abusive_domain_then_releases() {
        // A domain whose traffic the hook keeps denying gets refused at
        // ring ingress (Throttled) once its deny-rate EWMA trips; the
        // refusals themselves decay the EWMA until the domain is
        // re-admitted. A clean domain sharing the manager is never
        // throttled.
        let hv = Arc::new(Hypervisor::boot(2048, 8).unwrap());
        let mgr = VtpmManager::new(
            Arc::clone(&hv),
            b"admission",
            ManagerConfig {
                mirror_mode: MirrorMode::Cleartext,
                charge_virtual_time: false,
                admission: true,
                ..Default::default()
            },
        )
        .unwrap();
        let id = mgr.create_instance().unwrap();
        mgr.handle(DomainId(1), &envelope(1, id, 1, startup_cmd()));
        mgr.set_hook(Arc::new(DenyDomainHook(2)));

        // Hammer from the abusive domain until the gate trips.
        let mut saw_throttled_at = None;
        for s in 0..40u64 {
            let resp = mgr.handle(DomainId(2), &envelope(2, id, s, pcr_read_cmd()));
            let status = ResponseEnvelope::decode(&resp).unwrap().status;
            match status {
                ResponseStatus::Denied => {
                    assert!(saw_throttled_at.is_none(), "denied again after throttle tripped");
                }
                ResponseStatus::Throttled => {
                    saw_throttled_at = Some(s);
                    break;
                }
                other => panic!("unexpected status {other:?}"),
            }
        }
        let tripped = saw_throttled_at.expect("sustained denials must trip the throttle");
        assert!(
            tripped >= vtpm_telemetry::DenyRate::MIN_SAMPLES,
            "throttle tripped before min_samples denials"
        );
        assert!(mgr.admission().is_throttled(2));
        assert_eq!(mgr.admission().throttle_events(), 1);

        // The clean domain is untouched while domain 2 is throttled.
        let resp = mgr.handle(DomainId(1), &envelope(1, id, 100, pcr_read_cmd()));
        assert_eq!(ResponseEnvelope::decode(&resp).unwrap().status, ResponseStatus::Ok);

        // Each refusal decays the EWMA; the domain earns release in a
        // bounded number of attempts and reaches the hook again.
        let mut released_at = None;
        for s in 0..40u64 {
            let resp = mgr.handle(DomainId(2), &envelope(2, id, 200 + s, pcr_read_cmd()));
            let status = ResponseEnvelope::decode(&resp).unwrap().status;
            if status == ResponseStatus::Denied {
                released_at = Some(s);
                break;
            }
            assert_eq!(status, ResponseStatus::Throttled);
        }
        assert!(released_at.is_some(), "throttled domain never earned release");
        assert!(!mgr.admission().is_throttled(2));
        assert!(mgr.admission().refused_total() > 0);

        // Conservation holds across the mixed outcomes.
        let snap = mgr.stats_snapshot();
        assert!(snap.throttled > 0);
        assert_eq!(snap.handled + snap.denied + snap.errors + snap.throttled, snap.finished);
    }

    #[test]
    fn admission_disabled_by_default_never_throttles() {
        let (_hv, mgr) = setup(MirrorMode::Cleartext);
        let id = mgr.create_instance().unwrap();
        mgr.set_hook(Arc::new(DenyAllHook));
        for s in 0..50u64 {
            let resp = mgr.handle(DomainId(3), &envelope(3, id, s, startup_cmd()));
            assert_eq!(
                ResponseEnvelope::decode(&resp).unwrap().status,
                ResponseStatus::Denied,
                "disabled admission must never interpose"
            );
        }
        assert_eq!(mgr.stats_snapshot().throttled, 0);
        assert_eq!(mgr.admission().throttle_events(), 0);
    }

    #[test]
    fn destroys_race_handles_without_orphaning_mirror_state() {
        // Instances are destroyed while worker threads hammer all of
        // them. The destroy ordering (unroute → tombstone → scrub) must
        // hold: destroyed ids leave no mirror frames behind and recovery
        // resurrects exactly the survivors.
        let hv = Arc::new(Hypervisor::boot(16384, 16).unwrap());
        let mgr = Arc::new(
            VtpmManager::new(
                Arc::clone(&hv),
                b"shard-race",
                ManagerConfig {
                    mirror_mode: MirrorMode::Cleartext,
                    charge_virtual_time: false,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        let ids: Vec<u32> = (0..12).map(|_| mgr.create_instance().unwrap()).collect();
        for &id in &ids {
            mgr.handle(DomainId(1), &envelope(1, id, 1, startup_cmd()));
        }
        // Destroy every other instance.
        let doomed: Vec<u32> = ids.iter().copied().step_by(2).collect();
        let survivors: Vec<u32> = ids.iter().copied().skip(1).step_by(2).collect();

        let mut workers = Vec::new();
        for (t, &id) in ids.iter().enumerate() {
            let mgr = Arc::clone(&mgr);
            workers.push(std::thread::spawn(move || {
                for s in 0..25u64 {
                    let resp = mgr.handle(
                        DomainId(1),
                        &envelope(1, id, 2 + s, extend_cmd((t % 8) as u32, [s as u8; 20])),
                    );
                    let status = ResponseEnvelope::decode(&resp).unwrap().status;
                    assert!(
                        status == ResponseStatus::Ok || status == ResponseStatus::NoInstance,
                        "unexpected status during destroy race: {status:?}"
                    );
                }
            }));
        }
        {
            let mgr = Arc::clone(&mgr);
            let doomed = doomed.clone();
            workers.push(std::thread::spawn(move || {
                for id in doomed {
                    assert_eq!(mgr.destroy_instance(id), Ok(true));
                }
            }));
        }
        for w in workers {
            w.join().unwrap();
        }
        for &id in &doomed {
            assert!(mgr.mirror_frames(id).is_none(), "destroyed id {id} kept mirror frames");
        }
        for &id in &survivors {
            assert!(mgr.mirror_frames(id).is_some(), "survivor {id} lost its mirror region");
        }
        drop(mgr);
        let (_, report) = VtpmManager::recover(
            Arc::clone(&hv),
            b"shard-race",
            ManagerConfig { mirror_mode: MirrorMode::Cleartext, ..Default::default() },
        )
        .unwrap();
        assert_eq!(report.resumed, survivors, "recovery must resurrect exactly the survivors");
        assert_eq!(report.failed, Vec::<u32>::new());
    }

    #[test]
    fn stats_snapshot_conserves_under_concurrent_traffic() {
        // The seqlock snapshot must satisfy
        // handled + denied + errors + throttled == finished at any
        // sampling instant, even while workers are mid-account.
        let (_hv, mgr) = setup(MirrorMode::Cleartext);
        let mgr = Arc::new(mgr);
        let id = mgr.create_instance().unwrap();
        mgr.handle(DomainId(1), &envelope(1, id, 1, startup_cmd()));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut workers = Vec::new();
        for t in 0..3u64 {
            let mgr = Arc::clone(&mgr);
            workers.push(std::thread::spawn(move || {
                for s in 0..200u64 {
                    // Mix of ok (valid id) and error (missing id) exits.
                    let target = if s % 3 == 0 { 999 } else { id };
                    mgr.handle(DomainId(1), &envelope(1, target, 1000 * t + s, pcr_read_cmd()));
                }
            }));
        }
        let sampler = {
            let mgr = Arc::clone(&mgr);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // Sample before checking `stop`: on a busy host the
                // workers can finish before this thread first runs.
                let mut samples = 0u64;
                loop {
                    let s = mgr.stats_snapshot();
                    assert_eq!(
                        s.handled + s.denied + s.errors + s.throttled,
                        s.finished,
                        "snapshot violated outcome conservation"
                    );
                    samples += 1;
                    if stop.load(Ordering::Relaxed) {
                        break samples;
                    }
                }
            })
        };
        for w in workers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let samples = sampler.join().unwrap();
        assert!(samples > 0);
        let s = mgr.stats_snapshot();
        assert_eq!(s.finished, 601); // startup + 600 worker requests
    }
}
