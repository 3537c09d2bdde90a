//! # vtpm-harness
//!
//! Deterministic chaos + differential testing for the vTPM stack.
//!
//! Five seeded families share one runner ([`runner`]): each family's
//! config implements [`Scenario`] — `run(seed)` returns a report that is
//! a pure function of the seed — and each report implements
//! [`ScenarioReport`]: `fields()` (what the JSON encoder and the text
//! renderer print, in order) and `clean()` (the family's pass/fail
//! rule). [`replay`] runs a seed twice and compares the reports; the
//! `chaos` CLI, the `repro` experiments and the tests all go through it.
//!
//! | family      | config                   | what one seed exercises            |
//! |-------------|--------------------------|------------------------------------|
//! | `mirror`    | [`ChaosConfig`]          | single-host mirror pipeline faults |
//! | `migration` | [`MigrationChaosConfig`] | multi-host migration under faults  |
//! | `matrix`    | [`CrashMatrix`]          | crash at every migration step      |
//! | `attest`    | [`AttestChaosConfig`]    | quote replay / stale / storm       |
//! | `fleet`     | [`FleetChaosConfig`]     | control-plane churn storms         |
//!
//! To add a family, implement [`Scenario::run`] for its config and
//! [`ScenarioReport::fields`] + [`ScenarioReport::clean`] for its
//! report; replay, verdicts, JSON and text output then come for free.
//!
//! The mirror family (this module) takes a seed and does three things
//! with it:
//!
//! 1. derives a command trace ([`workload::generate_trace`]) — the same
//!    guest workload every run of that seed;
//! 2. derives a [`FaultPlan`] — *which* fault fires *before which
//!    event*, chosen from the same seed, so fault timing replays
//!    exactly;
//! 3. replays the trace through the **full stack** (guest frontend →
//!    ring → backend → manager → instance TPM → encrypted mirror)
//!    while a [`workload::TpmOracle`] replays it independently, and
//!    diffs the two.
//!
//! Faults cover the four families the mirror pipeline must survive:
//! frame corruption in the mirror region (detected via the committed
//! digests, then repaired), dropped and duplicated ring responses,
//! grant revocation mid-exchange (the guest reconnects), and a forced
//! manager crash between any two mirror page writes — after which the
//! manager is rebuilt from the Dom0 mirror frames alone
//! ([`VtpmManager::recover`]) and the recovered TPM must equal either
//! the pre- or the post-command oracle, never anything else.
//!
//! Every observable of a run is folded into a transcript hash; running
//! the same seed twice must produce byte-identical [`ChaosReport`]s,
//! which is what `tests/chaos.rs` and `scripts/chaos.sh` check.

pub mod attest_chaos;
pub mod fleet_chaos;
pub mod json;
pub mod migration_chaos;
pub mod runner;
pub mod sentinel_feed;

pub use attest_chaos::{AttestChaosConfig, AttestChaosReport};
pub use fleet_chaos::{FleetChaosConfig, FleetChaosReport};
pub use json::hex;
pub use migration_chaos::{
    CrashMatrix, CrashMatrixReport, MatrixCell, MigrationChaosConfig, MigrationChaosReport,
};
pub use runner::{render_text, replay, report_json, Scenario, ScenarioReport};
pub use sentinel_feed::{
    attest_event, audit_event, dump_event, Actions, Actuator, Levers,
};

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tpm::{Tpm, TpmConfig, Transport as _};
use tpm_crypto::drbg::Drbg;
use tpm_crypto::sha256;
use vtpm::{provision_device, ManagerConfig, MirrorMode, TpmBack, TpmFront, VtpmManager};
use vtpm_sentinel::{Sentinel, SentinelConfig, StreamEvent};
use workload::trace::apply_to_tpm;
use workload::{generate_trace, TpmOracle, TraceEvent};
use xen_sim::{DomainConfig, DomainId, Hypervisor, Result as XenResult, RingFault};

use crate::json::Field;
use crate::runner::sentinel_tail;

/// One planned fault, fired immediately before the event at its index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannedFault {
    /// XOR garbage into a committed mirror frame; the read path must
    /// detect it, and un-XORing must heal it.
    CorruptFrame,
    /// The backend's response to this command is lost on the ring.
    RingDrop,
    /// The backend's response is delivered twice.
    RingDuplicate,
    /// The guest revokes its ring grants mid-exchange; the device pair
    /// must be torn down and reconnected.
    RevokeGrants,
    /// The manager crashes after `0..n` further mirror page writes and
    /// is rebuilt from the Dom0 frames alone.
    CrashAfterWrites(u64),
}

impl PlannedFault {
    /// Short stable name (transcripts, reports).
    pub fn name(&self) -> &'static str {
        match self {
            PlannedFault::CorruptFrame => "corrupt-frame",
            PlannedFault::RingDrop => "ring-drop",
            PlannedFault::RingDuplicate => "ring-duplicate",
            PlannedFault::RevokeGrants => "revoke-grants",
            PlannedFault::CrashAfterWrites(_) => "crash",
        }
    }

    /// Whether this fault rides on a ring exchange (and therefore needs
    /// a wire event to fire on).
    fn needs_wire(&self) -> bool {
        matches!(
            self,
            PlannedFault::RingDrop | PlannedFault::RingDuplicate | PlannedFault::RevokeGrants
        )
    }
}

/// A seeded schedule of faults over a trace: event index → fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The schedule. At most one fault per event.
    pub faults: BTreeMap<usize, PlannedFault>,
}

impl FaultPlan {
    /// Derive a plan of up to `count` faults for `trace` from `seed`.
    /// Ring faults only land on wire events (toolstack events never
    /// cross the ring); index 0 (the initial Startup) is left clean so
    /// every run starts from a started TPM.
    pub fn generate(seed: &[u8], trace: &[TraceEvent], count: usize) -> FaultPlan {
        let mut rng = Drbg::new(&[seed, b"/fault-plan"].concat());
        let mut faults = BTreeMap::new();
        if trace.len() < 2 {
            return FaultPlan { faults };
        }
        // Bounded rejection sampling: a pathological trace (all
        // toolstack events, say) must not loop forever.
        let mut attempts = 0;
        while faults.len() < count && attempts < count * 64 + 64 {
            attempts += 1;
            let fault = match rng.below(5) {
                0 => PlannedFault::CorruptFrame,
                1 => PlannedFault::RingDrop,
                2 => PlannedFault::RingDuplicate,
                3 => PlannedFault::RevokeGrants,
                _ => PlannedFault::CrashAfterWrites(rng.below(8)),
            };
            let idx = 1 + rng.below((trace.len() - 1) as u64) as usize;
            if faults.contains_key(&idx) || (fault.needs_wire() && trace[idx].is_toolstack()) {
                continue;
            }
            faults.insert(idx, fault);
        }
        FaultPlan { faults }
    }
}

/// Tunables for one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Trace length.
    pub events: usize,
    /// Faults to schedule.
    pub faults: usize,
    /// Mirror mode under test.
    pub mirror_mode: MirrorMode,
    /// NV budget for the instance (large enough that the trace's NV
    /// provisioning grows the state across mirror pages).
    pub nv_budget: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            events: 80,
            faults: 6,
            mirror_mode: MirrorMode::Encrypted,
            nv_budget: 32 * 1024,
        }
    }
}

/// Everything observable about one chaos run. Two runs of the same
/// seed and config must compare equal — that is the determinism
/// contract `scripts/chaos.sh` enforces.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Hex of the seed the run was derived from.
    pub seed: String,
    /// Events replayed.
    pub events: usize,
    /// The faults that were scheduled, in firing order.
    pub faults: Vec<(usize, &'static str)>,
    /// Manager crash/recovery cycles performed.
    pub crash_recoveries: u64,
    /// Recoveries whose state matched the post-command oracle.
    pub recovered_post: u64,
    /// Recoveries whose state matched the pre-command oracle.
    pub recovered_pre: u64,
    /// Device reconnects after grant revocation.
    pub ring_reconnects: u64,
    /// Oracle/stack divergences (empty on a correct stack).
    pub divergences: Vec<String>,
    /// Mirror CTR nonce-pair collisions observed across the whole run,
    /// crash/recovery cycles included (must be 0).
    pub nonce_reuses: u64,
    /// Requests the manager completed end to end (telemetry `finished`),
    /// summed across every manager epoch (recovery replaces the manager
    /// and with it the registry, so per-epoch counts are accumulated
    /// just before each replacement).
    pub completed: u64,
    /// Span-ring overflow drops, summed across manager epochs. The
    /// harness sizes the ring generously, so nonzero here means the
    /// telemetry pipeline lost events it should have kept.
    pub dropped_events: u64,
    /// Mirror pages whose hygiene scrub failed, summed across epochs
    /// (must be 0 — a failed scrub leaks stale ciphertext to Dom0).
    pub scrub_failures: u64,
    /// Mirror generations burned via the attempted-generation escrow on
    /// retry, summed across epochs. Nonzero is expected whenever crash
    /// faults interrupt commits; it is the mechanism that keeps
    /// `nonce_reuses` at 0.
    pub retried_generation_burns: u64,
    /// Sentinel alert lines, in firing order. A clean chaos run (faults
    /// are injected, attacks are not) must produce zero critical
    /// alerts — that is the R-D1 false-positive gate.
    pub sentinel_alerts: Vec<String>,
    /// Critical (attack-class) alerts among `sentinel_alerts`.
    pub sentinel_critical: u64,
    /// Black-box flight dumps the sentinel captured.
    pub sentinel_flight_dumps: u64,
    /// SHA-256 over the run transcript (every response, generation and
    /// recovery outcome, in order).
    pub transcript: [u8; 32],
}

impl ScenarioReport for ChaosReport {
    const FAMILY: &'static str = "mirror";

    fn fields(&self) -> Vec<(&'static str, Field)> {
        let faults = self
            .faults
            .iter()
            .map(|&(at, name)| Field::Obj(vec![("at", at.into()), ("fault", name.into())]))
            .collect();
        vec![
            ("seed", self.seed.as_str().into()),
            ("events", self.events.into()),
            ("faults", Field::List(faults)),
            ("crash_recoveries", self.crash_recoveries.into()),
            ("recovered_post", self.recovered_post.into()),
            ("recovered_pre", self.recovered_pre.into()),
            ("ring_reconnects", self.ring_reconnects.into()),
            ("completed", self.completed.into()),
            ("dropped_events", self.dropped_events.into()),
            ("scrub_failures", self.scrub_failures.into()),
            ("retried_generation_burns", self.retried_generation_burns.into()),
            ("nonce_reuses", self.nonce_reuses.into()),
            ("divergences", Field::strs(&self.divergences)),
            ("sentinel_alerts", Field::strs(&self.sentinel_alerts)),
            ("sentinel_critical", self.sentinel_critical.into()),
            ("sentinel_flight_dumps", self.sentinel_flight_dumps.into()),
            ("transcript", Field::Digest(self.transcript)),
        ]
    }

    /// Scrub failures are *not* a failure condition: an injected crash
    /// can land on a post-commit hygiene scrub, which is best-effort by
    /// design (recovery re-scrubs); they are reported and covered by
    /// the replay diff instead. A critical sentinel alert on this
    /// attack-free family is a false positive and fails the run.
    fn clean(&self) -> bool {
        self.divergences.is_empty()
            && self.nonce_reuses == 0
            && self.dropped_events == 0
            && self.sentinel_critical == 0
    }
}

/// Fold one manager epoch's telemetry and mirror counters into the
/// report. Called immediately before crash recovery replaces the
/// manager (which discards its registry) and once at run end, so the
/// report's totals cover the whole run. Each call point is quiescent —
/// no exchange is in flight — so the conservation invariants must hold
/// *exactly*; a violation is reported as a divergence like any other
/// oracle mismatch.
fn absorb_epoch_counters(
    mgr: &VtpmManager,
    report: &mut ChaosReport,
    at: &str,
    sentinel: &mut Sentinel,
    now_ns: u64,
) {
    let t = mgr.telemetry();
    let s = t.snapshot();
    if s.in_flight != 0 {
        report.divergences.push(format!(
            "{at}: telemetry reports {} requests in flight at quiescence",
            s.in_flight
        ));
    }
    if s.allowed + s.denied + s.malformed != s.finished {
        report.divergences.push(format!(
            "{at}: outcome counters do not conserve: {} + {} + {} != {}",
            s.allowed, s.denied, s.malformed, s.finished
        ));
    }
    report.completed += s.finished;
    report.dropped_events += s.dropped_events;
    // The sentinel consumes this epoch's spans as a stream; the
    // ring is drained here anyway (the registry dies with the
    // epoch), so detection adds no retention cost.
    for record in t.drain_spans() {
        sentinel.observe(StreamEvent::Span { host: 0, record });
    }
    let io = mgr.mirror_io_stats();
    report.scrub_failures += io.scrub_failures;
    report.retried_generation_burns += io.retried_generation_burns;
    sentinel.observe(StreamEvent::Gauge {
        host: 0,
        at_ns: now_ns,
        name: "mirror_scrub_failures",
        value: io.scrub_failures,
    });
    sentinel.observe(StreamEvent::Gauge {
        host: 0,
        at_ns: now_ns,
        name: "nonce_reuses",
        value: mgr.nonce_reuses(),
    });
}

/// Synchronously complete one ring exchange: the caller's command goes
/// in, the backend is pumped on a scoped thread until it has served
/// (or failed), and the response comes back. `served_err` is true when
/// the backend died serving (grant revocation).
fn exchange(front: &mut TpmFront, back: &TpmBack, cmd: &[u8]) -> (Vec<u8>, bool) {
    std::thread::scope(|s| {
        let server = s.spawn(|| {
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                match back.serve_pending() {
                    Ok(0) => {}
                    Ok(_) => return false,
                    Err(_) => return true,
                }
                if Instant::now() >= deadline {
                    return false;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let resp = front.transact(cmd);
        let served_err = server.join().unwrap_or(false);
        (resp, served_err)
    })
}

impl Scenario for ChaosConfig {
    type Report = ChaosReport;

    /// Run one seeded chaos scenario end to end. See the crate docs for
    /// what a run does; the returned report is deterministic in `seed` and
    /// `self`.
    fn run(&self, seed: &[u8]) -> XenResult<ChaosReport> {
        let trace = generate_trace(seed, self.events);
        let plan = FaultPlan::generate(seed, &trace, self.faults);
        let mut corrupt_rng = Drbg::new(&[seed, b"/corrupt"].concat());

        let hv = Arc::new(Hypervisor::boot(8192, 16)?);
        let mgr_cfg = ManagerConfig {
            mirror_mode: self.mirror_mode,
            vtpm_config: TpmConfig { nv_budget: self.nv_budget, ..Default::default() },
            ..Default::default()
        };
        let mut mgr = Arc::new(VtpmManager::new(Arc::clone(&hv), seed, mgr_cfg.clone())?);
        mgr.enable_nonce_audit();

        let guest = hv.create_domain(
            DomainId::DOM0,
            DomainConfig { memory_pages: 64, ..DomainConfig::small("chaos-guest") },
        )?;
        let id = mgr.create_instance()?;
        provision_device(&hv, guest, id)?;
        let mut front = TpmFront::connect(Arc::clone(&hv), guest)?;
        // Dropped responses are resolved by this timeout; keep it short.
        front.timeout = Duration::from_millis(300);
        let mut back = TpmBack::connect(Arc::clone(&hv), Arc::clone(&mgr), guest)?;

        let mut oracle = mgr
            .with_instance(id, |i| TpmOracle::capture(&i.tpm))
            .expect("instance just created");

        let mut report = ChaosReport {
            seed: hex(seed),
            events: trace.len(),
            faults: plan.faults.iter().map(|(&i, f)| (i, f.name())).collect(),
            ..Default::default()
        };
        let mut transcript: Vec<u8> = Vec::new();
        let mut sentinel = Sentinel::new(SentinelConfig::default());

        for (i, ev) in trace.iter().enumerate() {
            let fault = plan.faults.get(&i).copied();
            transcript.extend_from_slice(&(i as u32).to_be_bytes());

            // Pre-event fault arming.
            match fault {
                Some(PlannedFault::CorruptFrame) => {
                    // Corrupt a committed mirror frame, prove the read path
                    // refuses the image, heal it, prove it reads again.
                    // Offsets stay inside the first META_FIXED bytes, which
                    // both the meta checksum and the per-page digests cover.
                    let frames = mgr.mirror_frames(id).unwrap_or_default();
                    if !frames.is_empty() {
                        let mfn = frames[corrupt_rng.below(frames.len() as u64) as usize];
                        let off = corrupt_rng.below(20) as usize;
                        let mut xor = [0u8; 16];
                        corrupt_rng.fill_bytes(&mut xor);
                        xor[0] |= 1; // never a no-op
                        hv.corrupt_frame(mfn, off, &xor)?;
                        let detected = mgr.resident_image(id).is_err();
                        hv.corrupt_frame(mfn, off, &xor)?; // XOR is its own inverse
                        let healed = mgr.resident_image(id).is_ok();
                        if !detected {
                            report
                                .divergences
                                .push(format!("event {i}: frame corruption went undetected"));
                        }
                        if !healed {
                            report
                                .divergences
                                .push(format!("event {i}: repaired mirror still unreadable"));
                        }
                        transcript.push(detected as u8);
                        transcript.push(healed as u8);
                    }
                }
                Some(PlannedFault::RingDrop) => hv.inject_ring_fault(RingFault::Drop),
                Some(PlannedFault::RingDuplicate) => hv.inject_ring_fault(RingFault::Duplicate),
                Some(PlannedFault::RevokeGrants) => hv.inject_ring_fault(RingFault::RevokeGrants),
                Some(PlannedFault::CrashAfterWrites(k)) => hv.inject_write_crash(DomainId::DOM0, k),
                None => {}
            }
            let pre_oracle = matches!(fault, Some(PlannedFault::CrashAfterWrites(_)))
                .then(|| oracle.clone());

            // Apply the event through the stack and (except for lost
            // commands) the oracle.
            if let Some(wire) = ev.wire_command() {
                let (resp, backend_died) = exchange(&mut front, &back, &wire);
                transcript.extend_from_slice(&(resp.len() as u32).to_be_bytes());
                transcript.extend_from_slice(&resp);
                if matches!(fault, Some(PlannedFault::RevokeGrants)) {
                    if !backend_died {
                        report
                            .divergences
                            .push(format!("event {i}: grant revocation did not stop the backend"));
                    }
                    // The request died with the ring before reaching the
                    // manager: the oracle must NOT see it. Reconnect the
                    // device pair the way a rebooting frontend would.
                    let old = std::mem::replace(&mut front, TpmFront::connect(Arc::clone(&hv), guest)?);
                    old.disconnect();
                    front.timeout = Duration::from_millis(300);
                    back = TpmBack::connect(Arc::clone(&hv), Arc::clone(&mgr), guest)?;
                    report.ring_reconnects += 1;
                } else {
                    // Executed server-side even when the response was lost
                    // (RingDrop) — that ambiguity is exactly what the
                    // oracle model must capture.
                    oracle.apply(ev);
                }
            } else {
                mgr.with_instance(id, |inst| apply_to_tpm(&mut inst.tpm, ev))
                    .expect("instance routed");
                oracle.apply(ev);
            }

            // Post-event crash/recovery cycle.
            if matches!(fault, Some(PlannedFault::CrashAfterWrites(_))) {
                report.nonce_reuses += mgr.nonce_reuses();
                // Recovery builds a fresh manager (and a fresh telemetry
                // registry); bank this epoch's counters first.
                absorb_epoch_counters(
                    &mgr,
                    &mut report,
                    &format!("event {i}"),
                    &mut sentinel,
                    hv.clock.now_ns(),
                );
                hv.clear_faults();
                let (rec, rec_report) = VtpmManager::recover(Arc::clone(&hv), seed, mgr_cfg.clone())?;
                let rec = Arc::new(rec);
                rec.enable_nonce_audit();
                back.rebind(Arc::clone(&rec));
                mgr = rec;
                report.crash_recoveries += 1;
                sentinel.observe(StreamEvent::CrashRecovery { host: 0, at_ns: hv.clock.now_ns() });
                transcript.push(rec_report.resumed.len() as u8);
                transcript.push(rec_report.failed.len() as u8);

                // The recovered TPM must equal the post- or pre-command
                // oracle — the two legal outcomes of an atomic commit.
                let diff_post = mgr.with_instance(id, |inst| oracle.diff(&inst.tpm));
                match diff_post {
                    Some(d) if d.is_empty() => {
                        report.recovered_post += 1;
                        transcript.push(b'P');
                    }
                    Some(_) => {
                        let pre = pre_oracle.expect("cloned before crash");
                        match mgr.with_instance(id, |inst| pre.diff(&inst.tpm)) {
                            Some(d) if d.is_empty() => {
                                // Roll the oracle back: the command's effects
                                // died with the uncommitted mirror update.
                                oracle = pre;
                                report.recovered_pre += 1;
                                transcript.push(b'p');
                            }
                            Some(d) => report.divergences.push(format!(
                                "event {i}: recovered state matches neither pre nor post oracle: {}",
                                d.join("; ")
                            )),
                            None => report
                                .divergences
                                .push(format!("event {i}: instance vanished in recovery")),
                        }
                    }
                    None => report
                        .divergences
                        .push(format!("event {i}: instance not resumed after crash")),
                }

                // The rebuilt TPM is a fresh boot over preserved permanent
                // state: its active-counter latch is clear, so the oracle's
                // must be too or later increments land on different counters.
                oracle.note_reboot();
            }

            // Periodic full differential check.
            if i % 16 == 15 {
                let d = mgr
                    .with_instance(id, |inst| oracle.diff(&inst.tpm))
                    .unwrap_or_else(|| vec!["instance missing".into()]);
                transcript.push(d.len() as u8);
                report
                    .divergences
                    .extend(d.into_iter().map(|d| format!("event {i}: {d}")));
            }
        }

        // Final differential check + mirror coherence.
        let d = mgr
            .with_instance(id, |inst| oracle.diff(&inst.tpm))
            .unwrap_or_else(|| vec!["instance missing".into()]);
        report.divergences.extend(d.into_iter().map(|d| format!("final: {d}")));
        let image = mgr.resident_image(id)?;
        if Tpm::restore_state(&image, seed, mgr_cfg.vtpm_config.clone()).is_err() {
            report.divergences.push("final: resident image does not decode".into());
        }
        let in_memory = mgr.export_instance_state(id).expect("instance routed");
        if image != in_memory {
            report.divergences.push("final: resident image diverges from live state".into());
        }
        report.nonce_reuses += mgr.nonce_reuses();
        absorb_epoch_counters(&mgr, &mut report, "final", &mut sentinel, hv.clock.now_ns());
        // Any use of the hypervisor's dump facility goes to the sentinel
        // too. The chaos workload itself never dumps; the crash-recovery
        // scans that do are excused by the CrashRecovery markers fed above,
        // so an alert here is real.
        for d in hv.dump_events() {
            sentinel.observe(sentinel_feed::dump_event(0, &d));
        }
        (report.sentinel_alerts, report.sentinel_critical) =
            sentinel_tail(&sentinel, &mut transcript);
        report.sentinel_flight_dumps = sentinel.flight_dumps().len() as u64;
        transcript.push(report.sentinel_flight_dumps as u8);
        report.transcript = sha256(&transcript);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plans_are_deterministic_and_eligible() {
        let trace = generate_trace(b"plan-seed", 120);
        let a = FaultPlan::generate(b"plan-seed", &trace, 8);
        let b = FaultPlan::generate(b"plan-seed", &trace, 8);
        assert_eq!(a, b);
        assert!(!a.faults.is_empty());
        assert!(!a.faults.contains_key(&0), "the initial Startup stays clean");
        for (&idx, fault) in &a.faults {
            if fault.needs_wire() {
                assert!(!trace[idx].is_toolstack(), "ring fault on a toolstack event");
            }
        }
        let c = FaultPlan::generate(b"other-seed", &trace, 8);
        assert_ne!(a, c, "different seeds must give different plans");
    }

    #[test]
    fn empty_trace_yields_empty_plan() {
        assert!(FaultPlan::generate(b"s", &[], 4).faults.is_empty());
        let one = generate_trace(b"s", 1);
        assert!(FaultPlan::generate(b"s", &one, 4).faults.is_empty());
    }

    #[test]
    fn mirror_verdict_flips_on_each_failure_condition() {
        assert!(ChaosReport::default().clean());
        for unclean in [
            ChaosReport { divergences: vec!["final: x".into()], ..Default::default() },
            ChaosReport { nonce_reuses: 1, ..Default::default() },
            ChaosReport { dropped_events: 1, ..Default::default() },
            ChaosReport { sentinel_critical: 1, ..Default::default() },
        ] {
            assert!(!unclean.clean(), "{unclean:?}");
        }
        // Scrub failures are surfaced, not failed on.
        assert!(ChaosReport { scrub_failures: 1, ..Default::default() }.clean());
    }
}
