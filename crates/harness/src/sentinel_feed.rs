//! Adapters from the stack's native records to the sentinel's
//! plain-field [`StreamEvent`]s, and the [`Actuator`] that closes the
//! loop from the sentinel's alerts back into the planes' levers.
//!
//! `vtpm-sentinel` deliberately depends only on the telemetry crate, so
//! audit entries and hypervisor dump events cross into it as flattened
//! views; the harness owns the conversion (it is the process boundary a
//! real detection plane would sit behind).

use std::collections::BTreeSet;

use vtpm::AdmissionController;
use vtpm_ac::{AuditEntry, AuditOutcome};
use vtpm_attest::{AttestEvent, VerifierPool};
use vtpm_fleet::Fleet;
use vtpm_sentinel::{
    AlertKind, AttestView, AuditKind, AuditView, DumpView, Sentinel, StreamEvent, Transition,
};
use xen_sim::DumpEvent;

/// Flatten one audit-chain entry for the sentinel stream.
pub fn audit_event(host: u32, e: &AuditEntry) -> StreamEvent {
    let kind = match e.outcome {
        AuditOutcome::Allowed => AuditKind::Allowed,
        AuditOutcome::Denied(r) => AuditKind::Denied(r.code()),
        AuditOutcome::Migration(s) => AuditKind::MigrationStage(s as u8),
    };
    StreamEvent::Audit(AuditView {
        host,
        at_ns: e.timestamp_ns,
        request_id: e.request_id,
        domain: e.domain,
        instance: e.instance,
        ordinal: e.ordinal,
        kind,
    })
}

/// Flatten one hypervisor dump-trail entry for the sentinel stream.
pub fn dump_event(host: u32, d: &DumpEvent) -> StreamEvent {
    StreamEvent::Dump(DumpView {
        host,
        at_ns: d.at_ns,
        caller_domain: d.caller.0,
        frames: d.frames,
        foreign_frames: d.foreign_frames,
    })
}

/// Flatten one verifier-plane verdict for the sentinel stream.
pub fn attest_event(host: u32, e: &AttestEvent) -> StreamEvent {
    StreamEvent::Attest(AttestView {
        host,
        at_ns: e.at_ns,
        verifier: e.verifier,
        instance: e.instance,
        verdict: e.verdict,
    })
}

/// The levers an [`Actuator`] may pull. A `None` lever is not wired
/// into this loop; alerts for it pass by.
#[derive(Default)]
pub struct Levers<'a> {
    /// Ring-ingress admission throttle (a manager's
    /// [`admission()`](vtpm::VtpmManager::admission)).
    pub admission: Option<&'a AdmissionController>,
    /// The verifier pool's admission throttle.
    pub verifiers: Option<&'a VerifierPool>,
    /// The fleet controller's rebalance pause.
    pub fleet: Option<&'a mut Fleet>,
}

/// Lever transitions one [`Actuator::apply`] pass actually applied.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Actions {
    /// Domains newly throttled at ring ingress.
    pub domains_throttled: usize,
    /// Verifiers newly throttled at the pool.
    pub verifiers_throttled: usize,
    /// Rebalance pauses applied by a churn-storm raise.
    pub storm_pauses: usize,
    /// Rebalance resumes applied by a churn-storm clear.
    pub storm_resumes: usize,
    /// Rebalance pauses applied by a migration-blackout burn.
    pub slo_pauses: usize,
    /// Rebalance resumes applied by a migration-blackout clear.
    pub slo_resumes: usize,
}

/// The one closed loop from sentinel alerts to the planes' levers.
///
/// [`apply`](Actuator::apply) walks the alerts it has not seen yet, in
/// stream order, and matches on their kind:
///
/// * a deny-rate raise throttles its subject domain at ring ingress;
/// * a quote-storm raise throttles its subject verifier at the pool;
/// * churn-storm and **migration-blackout** SLO burn raises and clears
///   hold the rebalancer paused while *any* of those causes is raised.
///   Rebalancing into churn multiplies in-doubt handoffs, and the
///   rebalancer is the one controller lever that adds guest-visible
///   downtime, so either cause alone keeps it paused.
///
/// Every other kind is surfaced, not acted on: its lever lives on
/// another plane (verify latency, scrub budget), or it is a security
/// verdict for a human. The throttles are latches and the pause is
/// level-sensitive, so feeding the same alerts again — even to a fresh
/// actuator — applies nothing.
#[derive(Debug, Default)]
pub struct Actuator {
    /// Alerts of the sentinel already acted on.
    fed: usize,
    /// Raised causes holding the rebalancer paused.
    pause_causes: BTreeSet<AlertKind>,
}

impl Actuator {
    /// Act on every alert `sentinel` raised since the last call.
    pub fn apply(&mut self, sentinel: &Sentinel, levers: Levers) -> Actions {
        let Levers { admission, verifiers, mut fleet } = levers;
        let mut acted = Actions::default();
        for alert in &sentinel.alerts()[self.fed..] {
            match (alert.kind, alert.transition, alert.subject) {
                (AlertKind::DenyRate, Transition::Raise, Some(domain))
                    if admission.is_some_and(|a| a.throttle(domain)) =>
                {
                    acted.domains_throttled += 1;
                }
                (AlertKind::QuoteStorm, Transition::Raise, Some(verifier))
                    if verifiers.is_some_and(|p| p.throttle_verifier(verifier)) =>
                {
                    acted.verifiers_throttled += 1;
                }
                (
                    cause @ (AlertKind::ChurnStorm
                    | AlertKind::SloBurn { rule: "migration-blackout" }),
                    transition,
                    _,
                ) => {
                    if transition == Transition::Raise {
                        self.pause_causes.insert(cause);
                    } else {
                        self.pause_causes.remove(&cause);
                    }
                    let hold = !self.pause_causes.is_empty();
                    let Some(fleet) = fleet.as_deref_mut().filter(|f| f.paused() != hold) else {
                        continue;
                    };
                    if hold {
                        fleet.pause_rebalance();
                    } else {
                        fleet.resume_rebalance();
                    }
                    *match (cause == AlertKind::ChurnStorm, hold) {
                        (true, true) => &mut acted.storm_pauses,
                        (true, false) => &mut acted.storm_resumes,
                        (false, true) => &mut acted.slo_pauses,
                        (false, false) => &mut acted.slo_resumes,
                    } += 1;
                }
                _ => {}
            }
        }
        self.fed = sentinel.alerts().len();
        acted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtpm_attest::VerifierConfig;
    use vtpm_cluster::{Cluster, ClusterConfig};
    use vtpm_fleet::FleetConfig;
    use vtpm_sentinel::SentinelConfig;
    use vtpm_telemetry::{Outcome, SpanRecord};

    fn denied_span(host: u32, id: u64, domain: u32, end_ns: u64) -> StreamEvent {
        StreamEvent::Span {
            host,
            record: SpanRecord {
                request_id: id,
                domain,
                ordinal: 0x14,
                ingress_ns: end_ns.saturating_sub(100),
                decode_ns: end_ns.saturating_sub(80),
                ac_ns: end_ns.saturating_sub(60),
                exec_ns: end_ns.saturating_sub(40),
                mirror_ns: end_ns.saturating_sub(20),
                end_ns,
                mirror_bytes: 0,
                outcome: Outcome::Denied(0),
            },
        }
    }

    fn gauge(name: &'static str, value: u64, at_ns: u64) -> StreamEvent {
        StreamEvent::Gauge { host: 99, at_ns, name, value }
    }

    /// Four recoveries of distinct hosts inside the churn window.
    fn crash_burst(from_ns: u64) -> Vec<StreamEvent> {
        (0..4)
            .map(|h| StreamEvent::CrashRecovery { host: h, at_ns: from_ns + u64::from(h) })
            .collect()
    }

    #[test]
    fn actuator_pulls_exactly_the_lever_of_each_kind() {
        let cluster = Cluster::new(b"actuator", ClusterConfig::default()).unwrap();
        let storm = |i: u64| {
            let at_ns = 1_000 + i * 100;
            StreamEvent::Attest(AttestView { host: 0, at_ns, verifier: 7, instance: 3, verdict: 0 })
        };
        // One row per actuated kind, plus kinds that are only surfaced:
        // the stream that raises it for subject 7 (or the fleet), and
        // the actions and (domain 7 throttled, verifier 7 throttled,
        // fleet paused) state it must leave.
        let rows = vec![
            (
                "deny-rate",
                (0..20).map(|i| denied_span(0, i, 7, 1_000 * i)).collect(),
                Actions { domains_throttled: 1, ..Actions::default() },
                (true, false, false),
            ),
            (
                "quote-storm",
                (0..70).map(storm).collect(),
                Actions { verifiers_throttled: 1, ..Actions::default() },
                (false, true, false),
            ),
            (
                "churn-storm",
                crash_burst(1_000),
                Actions { storm_pauses: 1, ..Actions::default() },
                (false, false, true),
            ),
            (
                "migration-blackout burn",
                vec![gauge("slo_burn:migration-blackout", 250, 1_000)],
                Actions { slo_pauses: 1, ..Actions::default() },
                (false, false, true),
            ),
            (
                "surfaced only",
                // Three recoveries of host 7 flap it without a storm.
                [0, 1, 2]
                    .map(|t| StreamEvent::CrashRecovery { host: 7, at_ns: t })
                    .into_iter()
                    .chain([gauge("slo_burn:verify-latency", 130, 9_000)])
                    .collect(),
                Actions::default(),
                (false, false, false),
            ),
        ];
        for (name, stream, want, state) in rows {
            let mut sentinel = Sentinel::new(SentinelConfig::default());
            sentinel.observe_all(stream);
            assert!(!sentinel.alerts().is_empty(), "{name}: stream raised nothing");
            let admission = AdmissionController::new(true);
            let pool = VerifierPool::new(VerifierConfig { admission: true, ..Default::default() });
            let mut fleet = Fleet::new(FleetConfig::default(), &cluster);
            let act = |actuator: &mut Actuator, fleet: &mut Fleet| {
                let levers = Levers {
                    admission: Some(&admission),
                    verifiers: Some(&pool),
                    fleet: Some(fleet),
                };
                actuator.apply(&sentinel, levers)
            };
            let mut actuator = Actuator::default();
            assert_eq!(act(&mut actuator, &mut fleet), want, "{name}");
            let engaged = (admission.is_throttled(7), pool.is_throttled(7), fleet.paused());
            assert_eq!(engaged, state, "{name}");
            assert!(!admission.is_throttled(8) && !pool.is_throttled(8), "{name}: uninvolved");
            // Idempotent: nothing new for this actuator, and a fresh one
            // replaying the same alerts finds every lever already set.
            assert_eq!(act(&mut actuator, &mut fleet), Actions::default(), "{name}: re-apply");
            assert_eq!(act(&mut Actuator::default(), &mut fleet), Actions::default(), "{name}");
            assert_eq!((admission.is_throttled(7), pool.is_throttled(7), fleet.paused()), state);
            assert!(admission.throttle_events() <= 1, "{name}: latch counted twice");
        }
    }

    #[test]
    fn rebalance_pause_holds_while_any_cause_is_raised() {
        let cluster = Cluster::new(b"pause-causes", ClusterConfig::default()).unwrap();
        let mut fleet = Fleet::new(FleetConfig::default(), &cluster);
        let mut sentinel = Sentinel::new(SentinelConfig::default());
        let mut actuator = Actuator::default();
        // Feed one round at a time, acting after each.
        let mut round = |events: Vec<StreamEvent>, fleet: &mut Fleet| {
            sentinel.observe_all(events);
            actuator.apply(&sentinel, Levers { fleet: Some(fleet), ..Levers::default() });
            fleet.paused()
        };
        assert!(round(vec![gauge("slo_burn:migration-blackout", 250, 1_000)], &mut fleet));
        assert!(round(crash_burst(2_000), &mut fleet), "churn raise while burning");
        // The storm clears, but the blackout burn still needs the pause.
        assert!(round(vec![gauge("fleet_quiet", 0, 20_000_000)], &mut fleet), "churn clear");
        assert!(!round(vec![gauge("slo_burn:migration-blackout", 0, 30_000_000)], &mut fleet));
        // And the other way round: an SLO clear must not release a pause
        // the storm still holds.
        assert!(round(crash_burst(40_000_000), &mut fleet));
        assert!(round(vec![gauge("slo_burn:migration-blackout", 300, 40_000_010)], &mut fleet));
        assert!(round(vec![gauge("slo_burn:migration-blackout", 0, 40_000_020)], &mut fleet));
        assert!(!round(vec![gauge("fleet_quiet", 0, 60_000_000)], &mut fleet), "storm clears");
    }

    #[test]
    fn deny_rate_alert_throttles_the_implicated_domain() {
        let hv = std::sync::Arc::new(xen_sim::Hypervisor::boot(2048, 8).unwrap());
        let config = vtpm::ManagerConfig { admission: true, ..Default::default() };
        let mgr = vtpm::VtpmManager::new(hv, b"bridge", config).unwrap();

        // A sustained majority-denied stream from domain 7 trips the
        // sentinel's deny-rate detector...
        let mut sentinel = Sentinel::new(SentinelConfig::default());
        sentinel.observe_all((0..20).map(|i| denied_span(0, i, 7, 1_000 * i)));
        assert!(sentinel.alerts().iter().any(|a| a.kind == AlertKind::DenyRate
            && a.transition == Transition::Raise
            && a.subject == Some(7)));

        // ...and the actuator latches the manager's admission throttle
        // for exactly that domain, idempotently.
        assert!(!mgr.admission().is_throttled(7));
        let levers = || Levers { admission: Some(mgr.admission()), ..Levers::default() };
        let mut actuator = Actuator::default();
        assert_eq!(actuator.apply(&sentinel, levers()).domains_throttled, 1);
        assert!(mgr.admission().is_throttled(7));
        assert!(!mgr.admission().is_throttled(1), "uninvolved domains stay admitted");
        let again = Actuator::default().apply(&sentinel, levers());
        assert_eq!(again, Actions::default(), "re-applying is a no-op");
        assert_eq!(mgr.admission().throttle_events(), 1);
    }

    #[test]
    fn slo_burn_alert_pauses_and_resumes_the_rebalancer() {
        let cluster = Cluster::new(b"slo-bridge", ClusterConfig::default()).unwrap();
        let mut fleet = Fleet::new(FleetConfig::default(), &cluster);
        let mut sentinel = Sentinel::new(SentinelConfig::default());
        let mut actuator = Actuator::default();
        let mut act = |sentinel: &Sentinel, fleet: &mut Fleet| {
            actuator.apply(sentinel, Levers { fleet: Some(fleet), ..Levers::default() })
        };
        let paused = Actions { slo_pauses: 1, ..Actions::default() };
        let resumed = Actions { slo_resumes: 1, ..Actions::default() };

        // An observatory blackout burn arrives as a gauge, trips the
        // sentinel's slo-burn relay...
        sentinel.observe(gauge("slo_burn:migration-blackout", 250, 1_000));
        let burn = AlertKind::SloBurn { rule: "migration-blackout" };
        assert!(sentinel.alerts().iter().any(|a| a.kind == burn));

        // ...and the actuator pauses the rebalancer, idempotently.
        assert!(!fleet.paused());
        assert_eq!(act(&sentinel, &mut fleet), paused);
        assert!(fleet.paused());
        assert_eq!(act(&sentinel, &mut fleet), Actions::default(), "re-applying is a no-op");

        // A verify-latency burn is not this loop's lever.
        sentinel.observe(gauge("slo_burn:verify-latency", 130, 2_000));
        assert_eq!(act(&sentinel, &mut fleet), Actions::default());
        let mut latency_only = Sentinel::new(SentinelConfig::default());
        latency_only.observe(gauge("slo_burn:verify-latency", 130, 2_000));
        assert!(!latency_only.alerts().is_empty());
        let mut other = Fleet::new(FleetConfig::default(), &cluster);
        let levers = Levers { fleet: Some(&mut other), ..Levers::default() };
        assert_eq!(Actuator::default().apply(&latency_only, levers), Actions::default());
        assert!(!other.paused());

        // The clear releases the latch.
        sentinel.observe(gauge("slo_burn:migration-blackout", 0, 3_000));
        assert_eq!(act(&sentinel, &mut fleet), resumed);
        assert!(!fleet.paused());
    }

    #[test]
    fn quote_storm_alert_throttles_the_implicated_verifier() {
        // A scripted verifier hammering the plane trips the sentinel's
        // quote-storm detector...
        let mut sentinel = Sentinel::new(SentinelConfig::default());
        sentinel.observe_all((0..70u64).map(|i| {
            let at_ns = 1_000 + i * 100;
            StreamEvent::Attest(AttestView { host: 0, at_ns, verifier: 42, instance: 3, verdict: 0 })
        }));
        assert!(sentinel.alerts().iter().any(|a| a.kind == AlertKind::QuoteStorm
            && a.transition == Transition::Raise
            && a.subject == Some(42)));

        // ...and the actuator latches the pool's admission throttle for
        // exactly that verifier.
        let pool = VerifierPool::new(VerifierConfig { admission: true, ..Default::default() });
        assert!(!pool.is_throttled(42));
        let levers = || Levers { verifiers: Some(&pool), ..Levers::default() };
        assert_eq!(Actuator::default().apply(&sentinel, levers()).verifiers_throttled, 1);
        assert!(pool.is_throttled(42));
        assert!(!pool.is_throttled(7), "uninvolved verifiers stay admitted");
        let again = Actuator::default().apply(&sentinel, levers());
        assert_eq!(again, Actions::default(), "re-applying is a no-op");
    }
}
