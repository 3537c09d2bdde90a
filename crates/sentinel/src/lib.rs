//! # vtpm-sentinel — streaming security-detection plane
//!
//! The telemetry crate *measures*; this crate *watches*. A [`Sentinel`]
//! consumes the platform's observability exhaust — request spans,
//! migration spans, audit records, hypervisor dump events, and gauge
//! snapshots — as one ordered stream of [`StreamEvent`]s and runs a
//! fixed set of online detectors over it, one [`AlertKind`] each:
//!
//! * **deny-rate anomaly** — per-VM [`vtpm_telemetry::DenyRate`] EWMA of
//!   the denied fraction, the same rule the manager's admission
//!   controller applies ([`detectors::DenyRateWatch`]);
//! * **dump-attack signature** — any cross-domain use of the memory
//!   dump facility, the structural fingerprint of the A1–A7 attack
//!   family ([`detectors::DumpSignature`]);
//! * **migration-replay watch** — bursts of `RejectedStale` refusals;
//! * **nonce hygiene** — any observed nonce reuse
//!   ([`detectors::NonceHygiene`]);
//! * **scrub escalation** — cumulative mirror scrub failures past a
//!   budget ([`detectors::ScrubEscalation`]);
//! * **quote-storm** — per-verifier attestation-submission bursts
//!   against the verifier plane; its alerts carry the offending
//!   verifier as their `subject`, which the harness's actuator
//!   throttles at the pool, mirroring the deny-rate → ring-admission
//!   path;
//! * **stale-quote watch** — bursts of stale or replayed deep-quote
//!   presentations (these three are one sliding-window
//!   [`detectors::BurstWatch`] with different hit sources);
//! * **churn storm / host flap** — fleet-wide crash-recovery storms and
//!   per-host flapping ([`detectors::ChurnStorm`]);
//! * **SLO burn relay** — observatory burn-rate transitions arriving as
//!   `slo_burn:<rule>` gauges ([`detectors::SloBurn`]).
//!
//! Every [`Alert`] is typed: its kind, a [`Transition`] (`Raise`, or
//! `Clear` for the two stateful detectors, churn storm and SLO burn),
//! and the subject it implicates. Severity and the transcript label
//! derive from the kind; the `detail` prose is for humans only, and no
//! control decision reads it.
//!
//! Everything is driven by caller-supplied virtual-time stamps and the
//! stream order — no wall clock, no randomness — so a chaos replay of
//! the same seed produces byte-identical alerts, and the R-D1
//! experiment can gate hard on "zero false positives on clean seeds,
//! every injected attack detected".
//!
//! A bounded [`FlightRecorder`] (the black box) retains the last N
//! events; the engine snapshots it into a [`FlightDump`] whenever a
//! detector fires or a crash-recovery marker passes by, giving each
//! alert its surrounding context without unbounded retention.
//!
//! The crate deliberately depends only on `vtpm-telemetry`: audit and
//! hypervisor facts arrive as plain-field views ([`AuditView`],
//! [`DumpView`]) so the sentinel can run out-of-process of the stack it
//! observes, exactly like a real detection plane.

pub mod detectors;
pub mod flight;

pub use flight::{FlightDump, FlightRecorder};

use detectors::{
    BurstWatch, ChurnStorm, DenyRateWatch, DumpSignature, NonceHygiene, ScrubEscalation, SloBurn,
};
use vtpm_telemetry::{MigrationSpanRecord, SpanRecord};

/// Audit-record outcome, as the sentinel sees it: a plain-field mirror
/// of the access-control crate's `AuditOutcome` (codes match its wire
/// encoding) so this crate needs no dependency on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditKind {
    /// Request allowed and executed.
    Allowed,
    /// Request denied; payload is the deny-reason code (see
    /// `vtpm_telemetry::DENY_LABELS`).
    Denied(u8),
    /// A migration-protocol stage was chained; payload is the stage
    /// code (`MigrationStage as u8`; 7 = `RejectedStale`).
    MigrationStage(u8),
}

/// One audit record, flattened for the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditView {
    /// Host whose audit chain recorded it.
    pub host: u32,
    /// Virtual timestamp (ns).
    pub at_ns: u64,
    /// Request id / migration trace id the entry is chained under.
    pub request_id: u64,
    /// Requesting domain (or peer host for migration stages).
    pub domain: u32,
    /// Target vTPM instance (or cluster vm id).
    pub instance: u32,
    /// TPM ordinal (or migration epoch, truncated).
    pub ordinal: u32,
    /// How the entry ended.
    pub kind: AuditKind,
}

/// One use of the hypervisor memory-dump facility, flattened from
/// `xen_sim::DumpEvent`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DumpView {
    /// Host the dump ran on.
    pub host: u32,
    /// Virtual timestamp (ns).
    pub at_ns: u64,
    /// Domain that invoked the dump.
    pub caller_domain: u32,
    /// Frames returned.
    pub frames: u64,
    /// Frames owned by *other* domains — zero for benign self-dumps,
    /// positive exactly when memory crossed a domain boundary.
    pub foreign_frames: u64,
}

/// One attestation-verification outcome, flattened from the verifier
/// plane's event stream (`vtpm_attest::AttestEvent`) — plain fields so
/// this crate needs no dependency on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttestView {
    /// Host whose verifier pool judged the submission.
    pub host: u32,
    /// Virtual timestamp (ns).
    pub at_ns: u64,
    /// Submitting verifier's identity.
    pub verifier: u32,
    /// Instance the evidence claimed (0 when it never decoded).
    pub instance: u32,
    /// Verdict code (`vtpm_attest::Verdict::code`): 0 accepted,
    /// 1 stale, 2 replayed, 3 bad-chain, 4 untrusted-hw-aik,
    /// 5 measurement-mismatch, 6 malformed, 7 throttled.
    pub verdict: u8,
}

/// One event on the sentinel's input stream, in virtual-time order.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    /// A finished request span from some host's telemetry ring.
    Span {
        /// Host the request ran on.
        host: u32,
        /// The span record.
        record: SpanRecord,
    },
    /// A finished migration attempt (cluster-wide; carries src/dst).
    MigrationSpan(MigrationSpanRecord),
    /// An audit-chain record.
    Audit(AuditView),
    /// A memory-dump trail entry.
    Dump(DumpView),
    /// A verifier-plane verdict on one attestation submission.
    Attest(AttestView),
    /// A named gauge observation (e.g. `nonce_reuses`,
    /// `mirror_scrub_failures`), sampled from a metrics snapshot.
    Gauge {
        /// Host the gauge belongs to.
        host: u32,
        /// Virtual timestamp of the sample (ns).
        at_ns: u64,
        /// Stable gauge name.
        name: &'static str,
        /// Current value.
        value: u64,
    },
    /// A host finished crash recovery — always worth a black-box dump.
    CrashRecovery {
        /// The recovered host.
        host: u32,
        /// Virtual timestamp (ns).
        at_ns: u64,
    },
}

impl StreamEvent {
    /// Virtual timestamp of the event (ns).
    pub fn at_ns(&self) -> u64 {
        match self {
            StreamEvent::Span { record, .. } => record.end_ns,
            StreamEvent::MigrationSpan(m) => m.start_ns.saturating_add(m.total_ns),
            StreamEvent::Audit(a) => a.at_ns,
            StreamEvent::Dump(d) => d.at_ns,
            StreamEvent::Attest(a) => a.at_ns,
            StreamEvent::Gauge { at_ns, .. } | StreamEvent::CrashRecovery { at_ns, .. } => *at_ns,
        }
    }

    /// Host the event is attributed to (source host for migrations).
    pub fn host(&self) -> u32 {
        match self {
            StreamEvent::Span { host, .. }
            | StreamEvent::Gauge { host, .. }
            | StreamEvent::CrashRecovery { host, .. } => *host,
            StreamEvent::MigrationSpan(m) => m.src_host,
            StreamEvent::Audit(a) => a.host,
            StreamEvent::Dump(d) => d.host,
            StreamEvent::Attest(a) => a.host,
        }
    }

    /// Compact, deterministic one-line rendering for flight dumps.
    pub fn describe(&self) -> String {
        match self {
            StreamEvent::Span { host, record } => format!(
                "span host={host} req={} dom={} ord={:#06x} outcome={}",
                record.request_id,
                record.domain,
                record.ordinal,
                record.outcome.label()
            ),
            StreamEvent::MigrationSpan(m) => format!(
                "migration trace={:#x} vm={} epoch={} {}→{} outcome={}",
                m.trace_id,
                m.vm,
                m.epoch,
                m.src_host,
                m.dst_host,
                m.outcome.label()
            ),
            StreamEvent::Audit(a) => format!(
                "audit host={} req={:#x} dom={} kind={:?}",
                a.host, a.request_id, a.domain, a.kind
            ),
            StreamEvent::Dump(d) => format!(
                "dump host={} caller=dom{} frames={} foreign={}",
                d.host, d.caller_domain, d.frames, d.foreign_frames
            ),
            StreamEvent::Attest(a) => format!(
                "attest host={} verifier={} instance={} verdict={}",
                a.host, a.verifier, a.instance, a.verdict
            ),
            StreamEvent::Gauge { host, name, value, .. } => {
                format!("gauge host={host} {name}={value}")
            }
            StreamEvent::CrashRecovery { host, .. } => format!("crash-recovery host={host}"),
        }
    }
}

/// How loudly a detector fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Operationally interesting; not a security event by itself.
    Warning,
    /// A security invariant broke or an attack signature matched.
    Critical,
}

impl Severity {
    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

/// What an alert is about: one variant per detector. Severity and the
/// transcript label derive from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertKind {
    /// A (host, domain) deny-rate EWMA tripped; subject = the domain.
    DenyRate,
    /// Unexplained use of the memory-dump facility.
    DumpSignature,
    /// Burst of stale-epoch migration refusals.
    ReplayWatch,
    /// Nonzero nonce-reuse gauge.
    NonceHygiene,
    /// Cumulative mirror scrub failures reached budget.
    ScrubEscalation,
    /// One verifier's attestation submission burst; subject = the
    /// verifier.
    QuoteStorm,
    /// Burst of stale or replayed quote presentations.
    StaleQuote,
    /// Fleet-wide crash-recovery storm, raised then cleared; subject =
    /// the host whose event tipped it.
    ChurnStorm,
    /// One host recovering repeatedly; subject = that host.
    HostFlap,
    /// Observatory SLO burn on `rule`, raised then cleared.
    SloBurn {
        /// Rule name (the `slo_burn:` gauge suffix).
        rule: &'static str,
    },
}

impl AlertKind {
    /// Stable label: the transcript key of [`Alert::line`] and R-D1's
    /// `detector` field. Host flapping is reported by the churn-storm
    /// detector and keeps its label.
    pub fn label(self) -> &'static str {
        match self {
            AlertKind::DenyRate => "deny-rate",
            AlertKind::DumpSignature => "dump-signature",
            AlertKind::ReplayWatch => "replay-watch",
            AlertKind::NonceHygiene => "nonce-hygiene",
            AlertKind::ScrubEscalation => "scrub-escalation",
            AlertKind::QuoteStorm => "quote-storm",
            AlertKind::StaleQuote => "stale-quote",
            AlertKind::ChurnStorm | AlertKind::HostFlap => "churn-storm",
            AlertKind::SloBurn { .. } => "slo-burn",
        }
    }

    /// Security verdicts are critical; operational conditions (scrub
    /// budget, churn, SLO burns) are warnings.
    pub fn severity(self) -> Severity {
        match self {
            AlertKind::ScrubEscalation
            | AlertKind::ChurnStorm
            | AlertKind::HostFlap
            | AlertKind::SloBurn { .. } => Severity::Warning,
            _ => Severity::Critical,
        }
    }
}

/// Whether an alert opens or closes its condition. Latching detectors
/// only ever raise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// The condition began.
    Raise,
    /// The condition subsided.
    Clear,
}

/// One detector firing.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Which condition fired.
    pub kind: AlertKind,
    /// Raise or clear.
    pub transition: Transition,
    /// The domain, verifier or host the alert implicates, per
    /// [`AlertKind`]; `None` when the detector attributes none.
    pub subject: Option<u32>,
    /// Host the triggering event was attributed to.
    pub host: u32,
    /// Virtual timestamp of the triggering event (ns) — detection
    /// latency is `at_ns - attack_start_ns`.
    pub at_ns: u64,
    /// Causal trace/request id of the triggering event, when it has one.
    pub trace_id: Option<u64>,
    /// Human-readable specifics (deterministic for a given stream).
    pub detail: String,
}

impl Alert {
    /// An alert with no subject or trace id.
    pub(crate) fn new(
        kind: AlertKind,
        transition: Transition,
        host: u32,
        at_ns: u64,
        detail: String,
    ) -> Self {
        Alert { kind, transition, subject: None, host, at_ns, trace_id: None, detail }
    }

    /// The kind's severity.
    pub fn severity(&self) -> Severity {
        self.kind.severity()
    }

    /// Deterministic transcript line.
    pub fn line(&self) -> String {
        let trace = match self.trace_id {
            Some(t) => format!(" trace={t:#x}"),
            None => String::new(),
        };
        format!(
            "[{}] {} host={} at={}ns{}: {}",
            self.severity().label(),
            self.kind.label(),
            self.host,
            self.at_ns,
            trace,
            self.detail
        )
    }
}

/// Events the flight recorder retains (per sentinel).
pub const FLIGHT_CAPACITY: usize = 256;
/// At most this many flight dumps are kept (first firings matter most;
/// later ones only bump counters).
pub const MAX_FLIGHT_DUMPS: usize = 8;

/// The sentinel's one tunable; every other threshold is a constant in
/// [`detectors`].
#[derive(Debug, Clone, Copy)]
pub struct SentinelConfig {
    /// `RejectedStale` refusals within
    /// [`detectors::REPLAY_WINDOW_NS`] that trip the replay watch.
    pub replay_burst: usize,
}

impl Default for SentinelConfig {
    fn default() -> Self {
        // migrate() retries at most twice after a rejection, so a
        // healthy run can produce a couple of stale refusals — a burst
        // of four within the window cannot happen without an active
        // replayer.
        SentinelConfig { replay_burst: 4 }
    }
}

/// The streaming engine: feeds every event to the black box and the
/// detector set, collects alerts, and snapshots the black box when one
/// fires.
pub struct Sentinel {
    deny_rate: DenyRateWatch,
    dump: DumpSignature,
    replay: BurstWatch,
    nonce: NonceHygiene,
    scrub: ScrubEscalation,
    quote_storm: BurstWatch,
    stale_quote: BurstWatch,
    churn: ChurnStorm,
    slo: SloBurn,
    flight: FlightRecorder,
    alerts: Vec<Alert>,
    dumps: Vec<FlightDump>,
    events_seen: u64,
}

impl Sentinel {
    /// A sentinel running every detector.
    pub fn new(cfg: SentinelConfig) -> Self {
        use detectors::*;
        Sentinel {
            deny_rate: DenyRateWatch::default(),
            dump: DumpSignature::new(RECOVERY_DUMP_GRACE_NS),
            replay: BurstWatch::new(AlertKind::ReplayWatch, REPLAY_WINDOW_NS, cfg.replay_burst),
            nonce: NonceHygiene::default(),
            scrub: ScrubEscalation::new(SCRUB_BUDGET),
            quote_storm: BurstWatch::new(
                AlertKind::QuoteStorm,
                QUOTE_STORM_WINDOW_NS,
                QUOTE_STORM_BURST,
            ),
            stale_quote: BurstWatch::new(
                AlertKind::StaleQuote,
                STALE_QUOTE_WINDOW_NS,
                STALE_QUOTE_BURST,
            ),
            churn: ChurnStorm::new(
                CHURN_WINDOW_NS,
                CHURN_STORM_CRASHES,
                CHURN_CLEAR_CRASHES,
                HOST_FLAP_CRASHES,
            ),
            slo: SloBurn::default(),
            flight: FlightRecorder::new(FLIGHT_CAPACITY),
            alerts: Vec::new(),
            dumps: Vec::new(),
            events_seen: 0,
        }
    }

    /// Feed one event through the black box and every detector.
    /// Returns how many new alerts fired.
    pub fn observe(&mut self, ev: StreamEvent) -> usize {
        self.events_seen += 1;
        self.flight.push(ev.clone());
        let new_alerts = [
            self.deny_rate.observe(&ev),
            self.dump.observe(&ev),
            self.replay.observe(&ev),
            self.nonce.observe(&ev),
            self.scrub.observe(&ev),
            self.quote_storm.observe(&ev),
            self.stale_quote.observe(&ev),
            self.churn.observe(&ev),
            self.slo.observe(&ev),
        ];
        let mut fired = 0;
        for alert in new_alerts.into_iter().flatten() {
            fired += 1;
            self.dump_black_box(format!("alert: {}", alert.line()), alert.at_ns);
            self.alerts.push(alert);
        }
        if let StreamEvent::CrashRecovery { at_ns, host } = ev {
            self.dump_black_box(format!("crash-recovery host={host}"), at_ns);
        }
        fired
    }

    /// Feed a batch, preserving order.
    pub fn observe_all(&mut self, events: impl IntoIterator<Item = StreamEvent>) -> usize {
        events.into_iter().map(|ev| self.observe(ev)).sum()
    }

    fn dump_black_box(&mut self, reason: String, at_ns: u64) {
        if self.dumps.len() < MAX_FLIGHT_DUMPS {
            self.dumps.push(self.flight.dump(reason, at_ns));
        }
    }

    /// Every alert so far, in firing order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Alerts at [`Severity::Critical`] — the attack-detection verdicts
    /// the R-D1 gate counts.
    pub fn critical_alerts(&self) -> impl Iterator<Item = &Alert> {
        self.alerts.iter().filter(|a| a.severity() == Severity::Critical)
    }

    /// Black-box snapshots captured so far.
    pub fn flight_dumps(&self) -> &[FlightDump] {
        &self.dumps
    }

    /// Events consumed.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Deterministic summary block for chaos transcripts: event count,
    /// then one line per alert, then one line per flight dump.
    pub fn summary_lines(&self) -> Vec<String> {
        let mut out =
            vec![format!("sentinel: events={} alerts={}", self.events_seen, self.alerts.len())];
        out.extend(self.alerts.iter().map(Alert::line));
        out.extend(self.dumps.iter().map(FlightDump::summary));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtpm_telemetry::{migration_trace_id, Outcome};

    fn span(host: u32, id: u64, end_ns: u64, outcome: Outcome) -> StreamEvent {
        StreamEvent::Span {
            host,
            record: SpanRecord {
                request_id: id,
                domain: 3,
                ordinal: 0x14,
                ingress_ns: end_ns.saturating_sub(100),
                decode_ns: end_ns.saturating_sub(80),
                ac_ns: end_ns.saturating_sub(60),
                exec_ns: end_ns.saturating_sub(40),
                mirror_ns: end_ns.saturating_sub(20),
                end_ns,
                mirror_bytes: 0,
                outcome,
            },
        }
    }

    #[test]
    fn clean_stream_stays_silent() {
        let mut s = Sentinel::new(SentinelConfig::default());
        for i in 0..100 {
            // Mostly-allowed traffic with a sprinkle of denies, benign
            // self-dumps, zero gauges: nothing here is anomalous.
            let outcome = if i % 10 == 0 { Outcome::Denied(2) } else { Outcome::Ok };
            s.observe(span(0, i, 1_000 * i, outcome));
        }
        s.observe(StreamEvent::Dump(DumpView {
            host: 0,
            at_ns: 200_000,
            caller_domain: 5,
            frames: 8,
            foreign_frames: 0,
        }));
        s.observe(StreamEvent::Gauge { host: 0, at_ns: 201_000, name: "nonce_reuses", value: 0 });
        assert!(s.alerts().is_empty(), "clean stream fired: {:?}", s.alerts());
        assert!(s.flight_dumps().is_empty());
    }

    #[test]
    fn foreign_dump_fires_critical_with_black_box() {
        let mut s = Sentinel::new(SentinelConfig::default());
        s.observe(span(1, 7, 5_000, Outcome::Ok));
        let fired = s.observe(StreamEvent::Dump(DumpView {
            host: 1,
            at_ns: 9_000,
            caller_domain: 0,
            frames: 128,
            foreign_frames: 96,
        }));
        assert_eq!(fired, 1);
        let a = &s.alerts()[0];
        assert_eq!((a.kind, a.severity()), (AlertKind::DumpSignature, Severity::Critical));
        assert_eq!(a.at_ns, 9_000);
        // The black box captured the span that preceded the dump.
        assert_eq!(s.flight_dumps().len(), 1);
        assert!(s.flight_dumps()[0].events.iter().any(|e| matches!(e, StreamEvent::Span { .. })));
    }

    #[test]
    fn replay_burst_fires_once_and_carries_trace() {
        let mut s = Sentinel::new(SentinelConfig::default());
        let trace = migration_trace_id(4, 9);
        for i in 0..6u64 {
            s.observe(StreamEvent::Audit(AuditView {
                host: 2,
                at_ns: 1_000_000 + i * 1_000,
                request_id: trace,
                domain: 1,
                instance: 4,
                ordinal: 9,
                kind: AuditKind::MigrationStage(7),
            }));
        }
        let fired: Vec<_> =
            s.alerts().iter().filter(|a| a.kind == AlertKind::ReplayWatch).collect();
        assert_eq!(fired.len(), 1, "latched after first firing");
        assert_eq!(fired[0].trace_id, Some(trace));
    }

    #[test]
    fn kind_labels_pin_the_transcript_detector_names() {
        // Chaos transcripts, their pinned hash and R-D1's `detector`
        // field all read these strings, so each kind keeps the name
        // (and severity) its detector had before alerts were typed.
        use AlertKind::*;
        use Severity::{Critical, Warning};
        let pinned = [
            (DenyRate, "deny-rate", Critical),
            (DumpSignature, "dump-signature", Critical),
            (ReplayWatch, "replay-watch", Critical),
            (NonceHygiene, "nonce-hygiene", Critical),
            (ScrubEscalation, "scrub-escalation", Warning),
            (QuoteStorm, "quote-storm", Critical),
            (StaleQuote, "stale-quote", Critical),
            (ChurnStorm, "churn-storm", Warning),
            (HostFlap, "churn-storm", Warning),
            (SloBurn { rule: "migration-blackout" }, "slo-burn", Warning),
        ];
        for (kind, label, severity) in pinned {
            assert_eq!((kind.label(), kind.severity()), (label, severity), "{kind:?}");
        }
    }

    #[test]
    fn summary_is_deterministic() {
        let run = || {
            let mut s = Sentinel::new(SentinelConfig::default());
            for i in 0..20 {
                s.observe(span(0, i, 500 * i, Outcome::Denied(1)));
            }
            s.observe(StreamEvent::Gauge {
                host: 0,
                at_ns: 99_000,
                name: "nonce_reuses",
                value: 2,
            });
            s.summary_lines()
        };
        let a = run();
        assert_eq!(a, run(), "same stream must produce byte-identical summaries");
        assert!(a.iter().any(|l| l.contains("deny-rate")), "sustained denies fire: {a:?}");
        assert!(a.iter().any(|l| l.contains("nonce-hygiene")), "nonce reuse fires: {a:?}");
    }
}
