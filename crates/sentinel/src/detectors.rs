//! The built-in detector set.
//!
//! Detectors are small online state machines: one `observe` per stream
//! event, no background threads, no clocks of their own — time is
//! whatever the event stream says. Each security detector *latches* per
//! scope (host, domain, …): the first firing raises the alert and dumps
//! the black box; repeats of the same condition stay quiet so a noisy
//! attack cannot flood the alert log it is trying to hide in.
//!
//! Every tunable below has exactly one value in use, so it is a
//! constant with its rationale next to it; the one exception is the
//! replay-watch burst ([`crate::SentinelConfig`]).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use vtpm_telemetry::{
    DenyRate, MigrationOutcome, Outcome, DENY_QUOTE_REPLAY, DENY_REJECTED_STALE, DENY_STALE_QUOTE,
};

use crate::{Alert, AlertKind, AuditKind, StreamEvent, Transition};

/// `MigrationStage::RejectedStale as u8` — the audit stage code of an
/// anti-rollback refusal (kept as a constant to avoid a dependency on
/// the access-control crate).
pub const STAGE_REJECTED_STALE: u8 = 7;

/// `vtpm_attest::Verdict::Stale.code()` — kept as a constant to avoid a
/// dependency on the attestation crate.
pub const VERDICT_STALE: u8 = 1;
/// `vtpm_attest::Verdict::Replayed.code()`.
pub const VERDICT_REPLAYED: u8 = 2;

/// Sliding window for the replay watch (virtual ns).
pub const REPLAY_WINDOW_NS: u64 = 10_000_000;
/// Cumulative mirror scrub failures tolerated before escalation.
pub const SCRUB_BUDGET: u64 = 64;
/// A Dom0 dump this close (virtual ns) to an observed crash-recovery on
/// the same host is the manager's own recovery scan, not an attack, and
/// is not flagged. The recovery scan and the crash-recovery marker are
/// stamped by the same virtual clock with no workload in between, so
/// 1ms of grace is already generous.
pub const RECOVERY_DUMP_GRACE_NS: u64 = 1_000_000;
/// Sliding window for the quote-storm detector (virtual ns).
pub const QUOTE_STORM_WINDOW_NS: u64 = 1_000_000;
/// Attestation submissions from one verifier within the window that
/// qualify as a storm. A verifier with a legitimate cadence polls once
/// per nonce-window (seconds of virtual time); 64 submissions inside
/// one millisecond is mechanical hammering.
pub const QUOTE_STORM_BURST: usize = 64;
/// Sliding window for the stale-quote watch (virtual ns).
pub const STALE_QUOTE_WINDOW_NS: u64 = 10_000_000;
/// Stale/replayed presentations within the window that trip the watch.
/// The freshness window is issuer-published, so an honest verifier
/// ages out of it at most once per window roll; a burst of four
/// refusals means replayed/hoarded evidence.
pub const STALE_QUOTE_BURST: usize = 4;
/// Sliding window for the churn-storm / host-flap watch (virtual ns).
/// Migration-chaos rounds advance virtual time by whole milliseconds
/// each (fabric frames + RSA opens), so organic crashes land several ms
/// apart; four recoveries crammed into 5 ms is a storm by construction.
pub const CHURN_WINDOW_NS: u64 = 5_000_000;
/// Crash-recoveries (any host) within the window that qualify as a
/// churn storm.
pub const CHURN_STORM_CRASHES: usize = 4;
/// Once a storm is raised, it clears when the window drains to at most
/// this many crash-recoveries.
pub const CHURN_CLEAR_CRASHES: usize = 1;
/// Crash-recoveries of a *single* host within the window that flag
/// that host as flapping.
pub const HOST_FLAP_CRASHES: usize = 3;

/// Drop timestamps older than `window_ns` before `at_ns`.
fn slide(q: &mut VecDeque<u64>, at_ns: u64, window_ns: u64) {
    while q.front().is_some_and(|&t| t + window_ns < at_ns) {
        q.pop_front();
    }
}

/// Per-(host, domain) [`DenyRate`] over request spans — the same rule,
/// with the same constants, that the manager's admission controller
/// applies at ring ingress. The alert's subject is the domain.
#[derive(Default)]
pub struct DenyRateWatch {
    /// BTreeMap for deterministic iteration/debug output.
    rates: BTreeMap<(u32, u32), DenyRate>,
    fired: BTreeSet<(u32, u32)>,
}

impl DenyRateWatch {
    /// Consume one event; return an alert if the watch fires on it.
    pub fn observe(&mut self, ev: &StreamEvent) -> Option<Alert> {
        let StreamEvent::Span { host, record } = ev else { return None };
        let key = (*host, record.domain);
        let rate = self.rates.entry(key).or_default();
        if !rate.record(matches!(record.outcome, Outcome::Denied(_))) || !self.fired.insert(key) {
            return None;
        }
        Some(Alert {
            trace_id: Some(record.request_id),
            subject: Some(record.domain),
            ..Alert::new(
                AlertKind::DenyRate,
                Transition::Raise,
                *host,
                record.end_ns,
                format!(
                    "domain {} deny-rate EWMA {:.3} > {:.3} after {} spans",
                    record.domain,
                    rate.value(),
                    DenyRate::THRESHOLD,
                    rate.samples()
                ),
            )
        })
    }
}

/// Fires on any unexplained use of the memory-dump facility.
///
/// Nothing in ordinary operation — request handling, mirroring, live
/// migration — ever reads frames through the dump path; "memory dump
/// software" *is* the A1/A7 attack, and the victim's state lives in
/// Dom0-owned mirror frames, so the mere use of the facility is the
/// fingerprint, foreign frames or not. The one legitimate user is the
/// manager's crash-recovery scan, which sweeps Dom0 memory for mirror
/// metadata: Dom0 dumps landing within `grace_ns` of an observed
/// crash-recovery on the same host are excused. A guest dumping only
/// its *own* frames is ignored — the hypervisor shows it nothing
/// cross-domain. Everything else fires. The check is structural, not
/// statistical, so it has zero false positives by construction on
/// attack-free streams.
pub struct DumpSignature {
    grace_ns: u64,
    /// Crash-recovery timestamps per host, as observed on the stream.
    recoveries: BTreeMap<u32, Vec<u64>>,
    fired: BTreeSet<(u32, u32)>,
}

impl DumpSignature {
    /// New detector excusing recovery scans within `grace_ns`.
    pub fn new(grace_ns: u64) -> Self {
        DumpSignature { grace_ns, recoveries: BTreeMap::new(), fired: BTreeSet::new() }
    }

    /// Is this a Dom0 dump explained by a recovery on the same host?
    /// Timestamps compare on the host's own clock: the scan and the
    /// recovery marker are stamped back to back during `recover`.
    fn recovery_scan(&self, host: u32, caller_domain: u32, at_ns: u64) -> bool {
        caller_domain == 0
            && self
                .recoveries
                .get(&host)
                .is_some_and(|rs| rs.iter().any(|&r| at_ns.abs_diff(r) <= self.grace_ns))
    }

    /// Consume one event; return an alert if the detector fires on it.
    pub fn observe(&mut self, ev: &StreamEvent) -> Option<Alert> {
        if let StreamEvent::CrashRecovery { host, at_ns } = ev {
            self.recoveries.entry(*host).or_default().push(*at_ns);
            return None;
        }
        let StreamEvent::Dump(d) = ev else { return None };
        let guest_self_dump = d.caller_domain != 0 && d.foreign_frames == 0;
        if guest_self_dump
            || self.recovery_scan(d.host, d.caller_domain, d.at_ns)
            || !self.fired.insert((d.host, d.caller_domain))
        {
            return None;
        }
        Some(Alert::new(
            AlertKind::DumpSignature,
            Transition::Raise,
            d.host,
            d.at_ns,
            format!(
                "dom{} dumped {} frames ({} foreign) outside any recovery window — \
                 memory-dump attack pattern",
                d.caller_domain, d.frames, d.foreign_frames
            ),
        ))
    }
}

/// A sliding-window burst counter: fires once per scope when `burst`
/// hits land within `window_ns` of virtual time. Three detectors are
/// this one struct with a different hit source, chosen by its kind:
///
/// * **replay-watch** — `RejectedStale` refusals per host, a replayer
///   hammering burned epochs at a destination. Sources: audit records
///   chaining the `RejectedStale` migration stage, protocol-deny audit
///   codes, and migration spans that ended `RejectedStale`. A healthy
///   `migrate()` retry loop produces at most a couple per attempt.
/// * **quote-storm** — attestation submissions per (host, verifier),
///   whatever their verdicts. An honest verifier polls at the
///   nonce-window cadence, seconds of virtual time apart; a scripted
///   storm is a dense run no honest cadence can reach. The alert's
///   subject is the verifier, which the harness's actuator throttles
///   at the verifier pool — the same closed loop deny-rate drives for
///   ring ingress.
/// * **stale-quote** — stale or replayed deep-quote presentations per
///   host, from verifier-plane verdicts and from audit records carrying
///   the matching per-reason deny codes, so the watch works whether the
///   pool's audit chain or its event stream (or both) is wired in. One
///   refusal is routine — an honest verifier can age out of the
///   freshness window across a roll — but a burst means someone is
///   hoarding evidence and re-presenting it.
pub struct BurstWatch {
    kind: AlertKind,
    window_ns: u64,
    burst: usize,
    /// Recent hit timestamps per (host, subject).
    hits: BTreeMap<(u32, Option<u32>), VecDeque<u64>>,
    fired: BTreeSet<(u32, Option<u32>)>,
}

/// One hit: (host, subject, virtual ns, trace id).
type Hit = (u32, Option<u32>, u64, Option<u64>);

impl BurstWatch {
    /// New `kind` watch firing at `burst` hits within `window_ns`.
    pub fn new(kind: AlertKind, window_ns: u64, burst: usize) -> Self {
        BurstWatch { kind, window_ns, burst, hits: BTreeMap::new(), fired: BTreeSet::new() }
    }

    /// What `ev` counts as for this watch, if anything.
    fn hit(&self, ev: &StreamEvent) -> Option<Hit> {
        use AuditKind::{Denied, MigrationStage};
        match (self.kind, ev) {
            (AlertKind::ReplayWatch, StreamEvent::Audit(a))
                if matches!(
                    a.kind,
                    MigrationStage(STAGE_REJECTED_STALE) | Denied(DENY_REJECTED_STALE)
                ) =>
            {
                Some((a.host, None, a.at_ns, Some(a.request_id)))
            }
            (AlertKind::ReplayWatch, StreamEvent::MigrationSpan(m))
                if m.outcome == MigrationOutcome::RejectedStale =>
            {
                Some((m.dst_host, None, ev.at_ns(), Some(m.trace_id)))
            }
            (AlertKind::QuoteStorm, StreamEvent::Attest(a)) => {
                Some((a.host, Some(a.verifier), a.at_ns, None))
            }
            (AlertKind::StaleQuote, StreamEvent::Attest(a))
                if matches!(a.verdict, VERDICT_STALE | VERDICT_REPLAYED) =>
            {
                Some((a.host, None, a.at_ns, None))
            }
            (AlertKind::StaleQuote, StreamEvent::Audit(a))
                if matches!(a.kind, Denied(DENY_STALE_QUOTE) | Denied(DENY_QUOTE_REPLAY)) =>
            {
                Some((a.host, None, a.at_ns, Some(a.request_id)))
            }
            _ => None,
        }
    }

    /// Consume one event; return an alert if the watch fires on it.
    pub fn observe(&mut self, ev: &StreamEvent) -> Option<Alert> {
        let (host, subject, at_ns, trace_id) = self.hit(ev)?;
        let q = self.hits.entry((host, subject)).or_default();
        q.push_back(at_ns);
        slide(q, at_ns, self.window_ns);
        if q.len() < self.burst || !self.fired.insert((host, subject)) {
            return None;
        }
        let (n, ms) = (q.len(), self.window_ns / 1_000_000);
        let detail = match self.kind {
            AlertKind::ReplayWatch => {
                format!("{n} stale-epoch rejections within {ms}ms — migration replay storm")
            }
            AlertKind::QuoteStorm => format!(
                "verifier {} sent {n} attestation requests within {}us — quote storm",
                subject.unwrap_or_default(),
                self.window_ns / 1_000
            ),
            // AlertKind::StaleQuote: `hit` admits no other kind.
            _ => format!(
                "{n} stale/replayed quote presentations within {ms}ms — quote replay attack"
            ),
        };
        Some(Alert {
            trace_id,
            subject,
            ..Alert::new(self.kind, Transition::Raise, host, at_ns, detail)
        })
    }
}

/// Nonce reuse is never acceptable: the mirror's encryption depends on
/// nonce uniqueness, so a nonzero `nonce_reuses` gauge is an invariant
/// break, full stop.
#[derive(Default)]
pub struct NonceHygiene {
    fired: BTreeSet<u32>,
}

impl NonceHygiene {
    /// Consume one event; return an alert if the detector fires on it.
    pub fn observe(&mut self, ev: &StreamEvent) -> Option<Alert> {
        let StreamEvent::Gauge { host, at_ns, name, value } = ev else { return None };
        if *name != "nonce_reuses" || *value == 0 || !self.fired.insert(*host) {
            return None;
        }
        Some(Alert::new(
            AlertKind::NonceHygiene,
            Transition::Raise,
            *host,
            *at_ns,
            format!("nonce_reuses = {value} — encryption nonce uniqueness violated"),
        ))
    }
}

/// Escalates when cumulative mirror scrub failures cross a budget.
///
/// Individual scrub failures are expected under injected faults (the
/// manager retries and burns the generation), so this is a *warning*
/// threshold on the cumulative gauge, not a per-event alarm.
pub struct ScrubEscalation {
    budget: u64,
    fired: BTreeSet<u32>,
}

impl ScrubEscalation {
    /// New detector tolerating up to `budget` failures per host.
    pub fn new(budget: u64) -> Self {
        ScrubEscalation { budget, fired: BTreeSet::new() }
    }

    /// Consume one event; return an alert if the detector fires on it.
    pub fn observe(&mut self, ev: &StreamEvent) -> Option<Alert> {
        let StreamEvent::Gauge { host, at_ns, name, value } = ev else { return None };
        if *name != "mirror_scrub_failures" || *value < self.budget || !self.fired.insert(*host) {
            return None;
        }
        Some(Alert::new(
            AlertKind::ScrubEscalation,
            Transition::Raise,
            *host,
            *at_ns,
            format!(
                "mirror_scrub_failures = {value} reached budget {} — mirror hygiene degrading",
                self.budget
            ),
        ))
    }
}

/// Watches host crash-recovery markers for fleet churn: a **storm**
/// (too many recoveries across the fleet inside the window) and
/// per-host **flapping** (one host recovering repeatedly).
///
/// Storm alerts are *stateful*, not latched: a [`Transition::Raise`]
/// when the window fills to `storm`, and a [`Transition::Clear`] when
/// it drains back to `clear` or fewer recoveries — the harness's
/// actuator holds the rebalance pause on exactly that pair, so the
/// closed loop both opens and closes. Every stream event slides the
/// window (all events carry virtual time), so a quiet fleet clears on
/// the next heartbeat-driven span or audit record rather than waiting
/// for another crash. Flap alerts ([`AlertKind::HostFlap`]) latch per
/// host, like the other security detectors, and actuate nothing.
///
/// Severity is `Warning` throughout: churn is an operational condition
/// (the rebalancer must *pause*, not page), and clean chaos seeds
/// legitimately produce it — a `Critical` here would turn every
/// churn-heavy seed into a false positive.
pub struct ChurnStorm {
    window_ns: u64,
    storm: usize,
    clear: usize,
    flap: usize,
    /// Recent recovery timestamps, fleet-wide.
    recent: VecDeque<u64>,
    /// Recent recovery timestamps per host.
    per_host: BTreeMap<u32, VecDeque<u64>>,
    storm_active: bool,
    flapped: BTreeSet<u32>,
}

impl ChurnStorm {
    /// New watch over `window_ns` of virtual time.
    pub fn new(window_ns: u64, storm: usize, clear: usize, flap: usize) -> Self {
        ChurnStorm {
            window_ns,
            storm,
            clear,
            flap,
            recent: VecDeque::new(),
            per_host: BTreeMap::new(),
            storm_active: false,
            flapped: BTreeSet::new(),
        }
    }

    /// Churn alerts implicate the host they were attributed to.
    fn alert(
        kind: AlertKind,
        transition: Transition,
        host: u32,
        at_ns: u64,
        detail: String,
    ) -> Alert {
        Alert { subject: Some(host), ..Alert::new(kind, transition, host, at_ns, detail) }
    }

    /// Consume one event; return an alert if the watch fires on it.
    pub fn observe(&mut self, ev: &StreamEvent) -> Option<Alert> {
        let at_ns = ev.at_ns();
        let ms = self.window_ns / 1_000_000;
        slide(&mut self.recent, at_ns, self.window_ns);
        if let StreamEvent::CrashRecovery { host, at_ns } = *ev {
            self.recent.push_back(at_ns);
            let q = self.per_host.entry(host).or_default();
            q.push_back(at_ns);
            slide(q, at_ns, self.window_ns);
            let flapping = q.len();
            if !self.storm_active && self.recent.len() >= self.storm {
                self.storm_active = true;
                return Some(Self::alert(
                    AlertKind::ChurnStorm,
                    Transition::Raise,
                    host,
                    at_ns,
                    format!(
                        "churn storm: {} host recoveries within {ms}ms — \
                         rebalancing should pause",
                        self.recent.len()
                    ),
                ));
            }
            if flapping >= self.flap && self.flapped.insert(host) {
                return Some(Self::alert(
                    AlertKind::HostFlap,
                    Transition::Raise,
                    host,
                    at_ns,
                    format!("host {host} flapping: {flapping} recoveries within {ms}ms"),
                ));
            }
        } else if self.storm_active && self.recent.len() <= self.clear {
            self.storm_active = false;
            return Some(Self::alert(
                AlertKind::ChurnStorm,
                Transition::Clear,
                ev.host(),
                at_ns,
                format!(
                    "cleared: churn subsided to {} recoveries within {ms}ms",
                    self.recent.len()
                ),
            ));
        }
        None
    }
}

/// Relays observatory SLO burn transitions into the alert plane.
///
/// The observatory publishes its burn-rate verdicts as gauges named
/// `slo_burn:<rule>`: a nonzero value is the worst-window burn ratio in
/// percent at raise time, zero is a clear. This detector turns those
/// samples into [`AlertKind::SloBurn`] alerts carrying the rule —
/// stateful per rule like [`ChurnStorm`], not latched-forever: a
/// [`Transition::Raise`] with the ratio, then a [`Transition::Clear`].
/// The harness's actuator holds the rebalance pause while the
/// `migration-blackout` rule is raised. Repeats of the same state stay
/// quiet, so a long burn produces two alerts total, not one per
/// evaluation pass.
///
/// Severity is `Warning`: an error budget burning is an operational
/// page, not a security verdict — the attack-detection gates of R-D1
/// count only criticals and must not see these.
#[derive(Default)]
pub struct SloBurn {
    /// Burning state per rule name (the gauge suffix).
    raised: BTreeMap<&'static str, bool>,
}

impl SloBurn {
    /// Consume one event; return an alert if the relay fires on it.
    pub fn observe(&mut self, ev: &StreamEvent) -> Option<Alert> {
        let StreamEvent::Gauge { host, at_ns, name, value } = ev else { return None };
        let rule = name.strip_prefix("slo_burn:")?;
        let burning = *value > 0;
        let was = self.raised.insert(rule, burning).unwrap_or(false);
        if burning == was {
            return None;
        }
        let (transition, detail) = if burning {
            (
                Transition::Raise,
                format!("slo burn: {rule} at {value}% of error budget — multi-window burn rate"),
            )
        } else {
            (Transition::Clear, format!("cleared: {rule} burn subsided"))
        };
        Some(Alert::new(AlertKind::SloBurn { rule }, transition, *host, *at_ns, detail))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DumpView, Severity};

    #[test]
    fn churn_storm_raises_then_clears_then_rearms() {
        let mut d = ChurnStorm::new(1_000, 3, 1, 10);
        let crash = |h, t| StreamEvent::CrashRecovery { host: h, at_ns: t };
        assert!(d.observe(&crash(0, 100)).is_none());
        assert!(d.observe(&crash(1, 200)).is_none());
        let storm = d.observe(&crash(2, 300)).expect("third recovery in window is a storm");
        assert_eq!((storm.kind, storm.transition), (AlertKind::ChurnStorm, Transition::Raise));
        assert_eq!(storm.severity(), Severity::Warning);
        // More churn while active stays quiet (stateful, not spammy).
        assert!(d.observe(&crash(3, 400)).is_none());
        // Any later event slides the window; once it drains, the clear
        // fires exactly once.
        let quiet = StreamEvent::Gauge { host: 0, at_ns: 5_000, name: "x", value: 0 };
        let cleared = d.observe(&quiet).expect("drained window clears the storm");
        assert_eq!((cleared.kind, cleared.transition), (AlertKind::ChurnStorm, Transition::Clear));
        assert!(d.observe(&quiet).is_none());
        // A fresh burst re-raises.
        assert!(d.observe(&crash(0, 6_000)).is_none());
        assert!(d.observe(&crash(1, 6_100)).is_none());
        assert!(d.observe(&crash(2, 6_200)).is_some());
    }

    #[test]
    fn host_flap_latches_per_host() {
        let mut d = ChurnStorm::new(1_000, 100, 1, 2);
        let crash = |h, t| StreamEvent::CrashRecovery { host: h, at_ns: t };
        assert!(d.observe(&crash(7, 100)).is_none());
        let flap = d.observe(&crash(7, 200)).expect("second recovery of host 7 flaps");
        assert_eq!((flap.kind, flap.transition), (AlertKind::HostFlap, Transition::Raise));
        assert_eq!(flap.subject, Some(7));
        // Latched: a third recovery stays quiet; another host is fresh.
        assert!(d.observe(&crash(7, 300)).is_none());
        assert!(d.observe(&crash(8, 300)).is_none());
        assert!(d.observe(&crash(8, 400)).is_some());
    }

    #[test]
    fn dump_signature_excuses_recovery_scans() {
        let mut d = DumpSignature::new(1_000);
        // Recovery observed at t=5_000; the Dom0 scan just before it is
        // the manager rebuilding its mirror, not an attack.
        assert!(d
            .observe(&StreamEvent::CrashRecovery { host: 0, at_ns: 5_000 })
            .is_none());
        let scan = StreamEvent::Dump(DumpView {
            host: 0,
            at_ns: 4_500,
            caller_domain: 0,
            frames: 64,
            foreign_frames: 40,
        });
        assert!(d.observe(&scan).is_none(), "recovery scan must not fire");
        // The same dump far outside the grace window is an attack, and
        // a recovery on another host does not excuse it.
        assert!(d
            .observe(&StreamEvent::CrashRecovery { host: 1, at_ns: 90_000 })
            .is_none());
        let late = StreamEvent::Dump(DumpView {
            host: 0,
            at_ns: 90_000,
            caller_domain: 0,
            frames: 64,
            foreign_frames: 40,
        });
        assert!(d.observe(&late).is_some());
    }

    #[test]
    fn dump_signature_ignores_self_dumps_and_latches() {
        let mut d = DumpSignature::new(1_000);
        let benign = StreamEvent::Dump(DumpView {
            host: 0,
            at_ns: 10,
            caller_domain: 4,
            frames: 8,
            foreign_frames: 0,
        });
        assert!(d.observe(&benign).is_none());
        let hostile = StreamEvent::Dump(DumpView {
            host: 0,
            at_ns: 20,
            caller_domain: 0,
            frames: 64,
            foreign_frames: 40,
        });
        assert!(d.observe(&hostile).is_some());
        assert!(d.observe(&hostile).is_none(), "second identical dump is latched");
        // A different host fires independently.
        let other_host = StreamEvent::Dump(DumpView {
            host: 1,
            at_ns: 30,
            caller_domain: 0,
            frames: 64,
            foreign_frames: 40,
        });
        assert!(d.observe(&other_host).is_some());
    }

    #[test]
    fn replay_watch_window_slides() {
        let mut w = BurstWatch::new(AlertKind::ReplayWatch, 1_000, 3);
        let audit = |at_ns| {
            StreamEvent::Audit(crate::AuditView {
                host: 0,
                at_ns,
                request_id: 0x8000_0000_0000_0001,
                domain: 1,
                instance: 1,
                ordinal: 1,
                kind: AuditKind::MigrationStage(STAGE_REJECTED_STALE),
            })
        };
        // Three refusals, but spread wider than the window: silent.
        assert!(w.observe(&audit(0)).is_none());
        assert!(w.observe(&audit(2_000)).is_none());
        assert!(w.observe(&audit(4_000)).is_none());
        // Two more right away close the burst inside one window.
        assert!(w.observe(&audit(4_100)).is_none());
        assert!(w.observe(&audit(4_200)).is_some());
    }

    #[test]
    fn quote_storm_keys_on_verifier_and_carries_it() {
        let mut d = BurstWatch::new(AlertKind::QuoteStorm, 1_000, 4);
        let attest = |verifier, at_ns| {
            StreamEvent::Attest(crate::AttestView {
                host: 0,
                at_ns,
                verifier,
                instance: 3,
                verdict: 0,
            })
        };
        // Two verifiers interleaved: neither alone reaches the burst
        // until verifier 7's fourth submission inside the window.
        assert!(d.observe(&attest(7, 100)).is_none());
        assert!(d.observe(&attest(8, 110)).is_none());
        assert!(d.observe(&attest(7, 200)).is_none());
        assert!(d.observe(&attest(7, 300)).is_none());
        let a = d.observe(&attest(7, 400)).expect("storm");
        assert_eq!(a.subject, Some(7), "alert must implicate the verifier");
        assert_eq!(a.severity(), Severity::Critical);
        // Latched per (host, verifier); the other verifier still can fire.
        assert!(d.observe(&attest(7, 500)).is_none());
        assert!(d.observe(&attest(8, 510)).is_none());
        assert!(d.observe(&attest(8, 520)).is_none());
        assert!(d.observe(&attest(8, 530)).is_some());
    }

    #[test]
    fn quote_storm_ignores_honest_cadence() {
        let mut d = BurstWatch::new(AlertKind::QuoteStorm, 1_000, 4);
        for i in 0..100u64 {
            // One submission per 10 windows of virtual time.
            let ev = StreamEvent::Attest(crate::AttestView {
                host: 0,
                at_ns: i * 10_000,
                verifier: 1,
                instance: 3,
                verdict: 0,
            });
            assert!(d.observe(&ev).is_none(), "honest cadence must stay silent");
        }
    }

    #[test]
    fn stale_quote_watch_mixes_attest_and_audit_sources() {
        let mut d = BurstWatch::new(AlertKind::StaleQuote, 10_000, 4);
        let stale = |at_ns| {
            StreamEvent::Attest(crate::AttestView {
                host: 0,
                at_ns,
                verifier: 5,
                instance: 3,
                verdict: VERDICT_STALE,
            })
        };
        let replay_audit = |at_ns| {
            StreamEvent::Audit(crate::AuditView {
                host: 0,
                at_ns,
                request_id: 0xABCD,
                domain: 5,
                instance: 3,
                ordinal: 0x16,
                kind: AuditKind::Denied(DENY_QUOTE_REPLAY),
            })
        };
        assert!(d.observe(&stale(100)).is_none());
        assert!(d.observe(&replay_audit(200)).is_none());
        assert!(d.observe(&stale(300)).is_none());
        assert!(d.observe(&replay_audit(400)).is_some(), "mixed burst fires");
        // Accepted verdicts never count.
        let mut clean = BurstWatch::new(AlertKind::StaleQuote, 10_000, 2);
        for i in 0..50u64 {
            let ev = StreamEvent::Attest(crate::AttestView {
                host: 0,
                at_ns: i,
                verifier: 1,
                instance: 3,
                verdict: 0,
            });
            assert!(clean.observe(&ev).is_none());
        }
    }

    #[test]
    fn slo_burn_relays_raise_and_clear_per_rule() {
        let mut d = SloBurn::default();
        let gauge = |name, value, at_ns| StreamEvent::Gauge { host: 9, at_ns, name, value };
        // Raise carries the rule and ratio; repeats stay quiet.
        let raise = d
            .observe(&gauge("slo_burn:migration-blackout", 240, 1_000))
            .expect("first burning sample raises");
        let blackout = AlertKind::SloBurn { rule: "migration-blackout" };
        assert_eq!((raise.kind, raise.transition), (blackout, Transition::Raise));
        assert_eq!(raise.severity(), Severity::Warning);
        assert!(d.observe(&gauge("slo_burn:migration-blackout", 300, 2_000)).is_none());
        // An unrelated rule tracks independently; plain gauges are not ours.
        assert!(d.observe(&gauge("slo_burn:verify-latency", 0, 2_500)).is_none());
        assert!(d.observe(&gauge("mirror_scrub_failures", 500, 2_600)).is_none());
        // Clear fires once for the same rule, then re-arms.
        let clear = d
            .observe(&gauge("slo_burn:migration-blackout", 0, 3_000))
            .expect("zero sample clears");
        assert_eq!((clear.kind, clear.transition), (blackout, Transition::Clear));
        assert!(d.observe(&gauge("slo_burn:migration-blackout", 0, 3_500)).is_none());
        assert!(d.observe(&gauge("slo_burn:migration-blackout", 110, 4_000)).is_some());
    }

    #[test]
    fn scrub_escalation_is_a_threshold_not_a_tripwire() {
        let mut s = ScrubEscalation::new(4);
        let gauge = |value| StreamEvent::Gauge {
            host: 0,
            at_ns: 1,
            name: "mirror_scrub_failures",
            value,
        };
        assert!(s.observe(&gauge(3)).is_none());
        let a = s.observe(&gauge(4)).expect("budget reached");
        assert_eq!(a.severity(), Severity::Warning);
        assert!(s.observe(&gauge(100)).is_none(), "latched per host");
    }
}
