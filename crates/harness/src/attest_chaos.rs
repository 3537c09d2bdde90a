//! Seeded chaos for the attestation plane: quote storms, replay and
//! stale-evidence injection, PCR churn against the issued-quote cache —
//! all under the same byte-determinism contract as the mirror and
//! migration families.
//!
//! One run derives everything from the seed (which instance each
//! verifier polls, when PCRs are extended, which evidence is held back
//! for replay) and advances only the platform's virtual clock, so two
//! runs of the same seed produce identical [`AttestChaosReport`]s:
//! evidence bytes are deterministic (PKCS#1 v1.5 signing is
//! deterministic given key and digest), verdicts are pure functions of
//! the submission stream, and the sentinel sees the same events in the
//! same order.
//!
//! The run has four phases:
//!
//! 1. **honest traffic** — every verifier polls a seed-chosen instance
//!    once per nonce-window; between rounds, seed-chosen PCR extends
//!    bump permanent-state generations and must invalidate the issued
//!    cache (a post-extend quote showing pre-extend PCR values would be
//!    a divergence). The first few submissions are immediately
//!    re-presented by their original verifier while still fresh; every
//!    such **replay injection** must come back [`Verdict::Replayed`].
//! 2. **stale injection** — evidence held back from the first round is
//!    presented by fresh verifier identities, in a tight burst, after
//!    the clock has rolled past the freshness window; every injection
//!    must come back [`Verdict::Stale`], and the burst must trip the
//!    sentinel's stale-quote watch.
//! 3. **quote storm** — one scripted verifier hammers the pool far
//!    above any honest cadence; the sentinel must raise `quote-storm`,
//!    and the harness actuator closes the loop into the pool's admission
//!    throttle so the next submission is [`Verdict::Throttled`].
//!
//! With injections and the storm disabled the run is attack-free, and
//! any critical sentinel alert is reported as a divergence — the
//! false-positive half of the R-A1 gate.

use std::sync::Arc;

use tpm_crypto::drbg::Drbg;
use tpm_crypto::sha256;
use vtpm::Platform;
use vtpm_ac::AuditLog;
use vtpm_attest::{
    IssuerConfig, QuoteIssuer, Submission, Verdict, VerifierConfig, VerifierPool,
};
use vtpm_sentinel::{Alert, AlertKind, Sentinel, SentinelConfig};
use vtpm_telemetry::{AttestTelemetry, Telemetry};
use xen_sim::Result as XenResult;

use crate::json::{hex, Field};
use crate::runner::{sentinel_tail, Scenario, ScenarioReport};
use crate::sentinel_feed::{attest_event, audit_event, Actuator, Levers};

/// Tunables for one attestation chaos run.
#[derive(Debug, Clone)]
pub struct AttestChaosConfig {
    /// Guests to launch and enroll.
    pub instances: usize,
    /// Honest verifier identities.
    pub verifiers: usize,
    /// Honest polling rounds (one nonce-window each).
    pub rounds: usize,
    /// Phase-1 submissions to re-present immediately as replays.
    pub replay_injections: usize,
    /// Phase-1 submissions to re-present stale, as one burst. Keep at
    /// or above the sentinel's `stale_quote_burst` (default 4) if the
    /// run is expected to trip the stale-quote watch.
    pub stale_injections: usize,
    /// Whether to run the scripted quote storm.
    pub storm: bool,
    /// Nonce-window width (virtual ns), shared by issuer and pool.
    pub window_ns: u64,
}

impl Default for AttestChaosConfig {
    fn default() -> Self {
        AttestChaosConfig {
            instances: 3,
            verifiers: 12,
            rounds: 5,
            replay_injections: 3,
            stale_injections: 4,
            storm: true,
            window_ns: 1_000_000_000,
        }
    }
}

impl AttestChaosConfig {
    /// The attack-free variant of this config: same honest traffic, no
    /// injections, no storm — the false-positive sweep.
    pub fn attack_free(&self) -> Self {
        AttestChaosConfig {
            replay_injections: 0,
            stale_injections: 0,
            storm: false,
            ..self.clone()
        }
    }
}

/// Everything observable about one attestation chaos run. Two runs of
/// the same seed and config must compare equal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttestChaosReport {
    /// Hex of the seed.
    pub seed: String,
    /// Honest polling rounds performed.
    pub rounds: usize,
    /// Honest submissions (phase 1).
    pub submissions: u64,
    /// Honest submissions accepted (must equal `submissions`).
    pub accepted: u64,
    /// Replay injections presented / refused as `Replayed`.
    pub injected_replays: u64,
    /// Replay injections that came back `Replayed`.
    pub replays_refused: u64,
    /// Stale injections presented / refused as `Stale`.
    pub injected_stale: u64,
    /// Stale injections that came back `Stale`.
    pub stale_refused: u64,
    /// Storm-phase submissions.
    pub storm_submissions: u64,
    /// Whether the storm verifier ended the run throttled by the
    /// sentinel-driven admission loop.
    pub storm_throttled: bool,
    /// Issuer signing passes (each pays the two-RSA deep-quote cost).
    pub signing_passes: u64,
    /// Issuer requests served from cache or coalesced.
    pub cache_absorbed: u64,
    /// PCR extends injected between rounds (each must invalidate).
    pub pcr_extends: u64,
    /// Stale-quote denials in the per-reason telemetry counters.
    pub stale_denials: u64,
    /// Quote-replay denials in the per-reason telemetry counters.
    pub replay_denials: u64,
    /// Whether the audit hash chain verified at run end.
    pub audit_chain_ok: bool,
    /// Sentinel alert lines, in firing order.
    pub sentinel_alerts: Vec<String>,
    /// Critical alerts among them.
    pub sentinel_critical: u64,
    /// Invariant violations (empty on a correct stack).
    pub divergences: Vec<String>,
    /// SHA-256 over the run transcript.
    pub transcript: [u8; 32],
}

impl ScenarioReport for AttestChaosReport {
    const FAMILY: &'static str = "attest";

    fn fields(&self) -> Vec<(&'static str, Field)> {
        vec![
            ("seed", self.seed.as_str().into()),
            ("rounds", self.rounds.into()),
            ("submissions", self.submissions.into()),
            ("accepted", self.accepted.into()),
            ("injected_replays", self.injected_replays.into()),
            ("replays_refused", self.replays_refused.into()),
            ("injected_stale", self.injected_stale.into()),
            ("stale_refused", self.stale_refused.into()),
            ("storm_submissions", self.storm_submissions.into()),
            ("storm_throttled", self.storm_throttled.into()),
            ("signing_passes", self.signing_passes.into()),
            ("cache_absorbed", self.cache_absorbed.into()),
            ("pcr_extends", self.pcr_extends.into()),
            ("stale_denials", self.stale_denials.into()),
            ("replay_denials", self.replay_denials.into()),
            ("audit_chain_ok", self.audit_chain_ok.into()),
            ("divergences", Field::strs(&self.divergences)),
            ("sentinel_alerts", Field::strs(&self.sentinel_alerts)),
            ("sentinel_critical", self.sentinel_critical.into()),
            ("transcript", Field::Digest(self.transcript)),
        ]
    }

    /// Divergence-free, nothing more. Critical alerts are *expected*
    /// here (injected attacks must be detected); a missed detection, and
    /// any critical alert on an attack-free run, is already reported as
    /// a divergence by the run itself.
    fn clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

impl Scenario for AttestChaosConfig {
    type Report = AttestChaosReport;

    /// Run one seeded attestation chaos scenario. Deterministic in `seed`
    /// and `self`.
    fn run(&self, seed: &[u8]) -> XenResult<AttestChaosReport> {
        let mut rng = Drbg::new(&[seed, b"/attest-plan"].concat());
        let platform = Platform::improved(seed)?;
        let clock = &platform.hv.clock;

        let mut guests = Vec::with_capacity(self.instances);
        for i in 0..self.instances {
            guests.push(platform.launch_guest(&format!("attest-{i}"))?);
        }

        let issuer = QuoteIssuer::new(IssuerConfig { window_ns: self.window_ns, ..Default::default() });
        for g in &guests {
            issuer
                .provision(&platform, g.instance)
                .unwrap_or_else(|e| panic!("provision instance {}: {e}", g.instance));
        }

        let mut pool = VerifierPool::with_telemetry(
            VerifierConfig {
                window_ns: self.window_ns,
                admission: true,
                ..Default::default()
            },
            Arc::clone(issuer.telemetry()),
        );
        let telemetry = Arc::new(Telemetry::new());
        let audit = Arc::new(AuditLog::new());
        pool.attach_telemetry(Arc::clone(&telemetry));
        pool.attach_audit(Arc::clone(&audit));

        let mut sentinel = Sentinel::new(SentinelConfig::default());
        let mut transcript: Vec<u8> = Vec::new();
        let mut report = AttestChaosReport {
            seed: hex(seed),
            rounds: self.rounds,
            ..Default::default()
        };

        let submit = |pool: &VerifierPool,
                      verifier: u32,
                      bytes: Vec<u8>,
                      now_ns: u64,
                      transcript: &mut Vec<u8>| {
            let digest = sha256(&bytes);
            let verdict = pool.verify_one(&Submission { verifier, bytes }, now_ns);
            transcript.extend_from_slice(&verifier.to_be_bytes());
            transcript.extend_from_slice(&digest);
            transcript.push(verdict.code());
            verdict
        };

        // Phase 1: honest polling, one round per nonce-window, with
        // seed-chosen PCR churn between rounds. Evidence from the first
        // round is held back for the stale-injection burst; the first few
        // submissions are replayed immediately while still fresh.
        let mut held: Vec<Vec<u8>> = Vec::new();
        for round in 0..self.rounds {
            clock.advance_ns(self.window_ns);
            for v in 0..self.verifiers as u32 {
                let pick = rng.below(guests.len() as u64) as usize;
                let instance = guests[pick].instance;
                let now = clock.now_ns();
                let evidence = issuer
                    .issue(&platform, instance, now)
                    .unwrap_or_else(|e| panic!("issue for instance {instance}: {e}"));
                if evidence.quote.vtpm_pcr_values.is_empty() {
                    report.divergences.push(format!("round {round}: evidence without PCR values"));
                }
                let bytes = evidence.encode();
                if round == 0 {
                    held.push(bytes.clone());
                }
                let verdict = submit(&pool, v, bytes.clone(), now, &mut transcript);
                report.submissions += 1;
                if verdict.accepted() {
                    report.accepted += 1;
                } else {
                    report
                        .divergences
                        .push(format!("round {round}: honest submission by {v} judged {verdict}"));
                }
                // Replay injection: re-present the identical, still-fresh
                // evidence under the same verifier identity.
                if report.injected_replays < self.replay_injections as u64 {
                    report.injected_replays += 1;
                    match submit(&pool, v, bytes, now, &mut transcript) {
                        Verdict::Replayed => report.replays_refused += 1,
                        other => report
                            .divergences
                            .push(format!("replay injection by {v} judged {other}, want replayed")),
                    }
                }
            }
            // Seed-chosen PCR extend: the permanent-state generation bumps,
            // so the next round's quote MUST show the new PCR value — a
            // cached pre-extend quote surviving the extend is a divergence.
            if rng.below(2) == 0 {
                let pick = rng.below(guests.len() as u64) as usize;
                let g = &mut guests[pick];
                let mut measurement = [0u8; 20];
                rng.fill_bytes(&mut measurement);
                let before = issuer
                    .issue(&platform, g.instance, clock.now_ns())
                    .expect("pre-extend issue")
                    .quote
                    .vtpm_pcr_values
                    .clone();
                g.client(b"attest-chaos-extend")
                    .extend(0, &measurement)
                    .expect("extend measured PCR");
                report.pcr_extends += 1;
                let after = issuer
                    .issue(&platform, g.instance, clock.now_ns())
                    .expect("post-extend issue")
                    .quote
                    .vtpm_pcr_values
                    .clone();
                if before == after {
                    report.divergences.push(format!(
                        "round {round}: PCR extend did not invalidate the issued-quote cache"
                    ));
                }
            }
        }

        // Phase 2: stale-injection burst — fresh verifier identities
        // present round-0 evidence after the clock has rolled well past
        // the freshness window, packed tight enough to trip the sentinel's
        // stale-quote watch.
        clock.advance_ns(self.window_ns * 4);
        for i in 0..self.stale_injections.min(held.len()) {
            clock.advance_ns(1_000);
            let verifier = 100_000 + i as u32;
            let bytes = held[i].clone();
            let verdict = submit(&pool, verifier, bytes, clock.now_ns(), &mut transcript);
            report.injected_stale += 1;
            match verdict {
                Verdict::Stale => report.stale_refused += 1,
                other => report
                    .divergences
                    .push(format!("stale injection judged {other}, want stale")),
            }
        }

        // Phase 3: quote storm — one scripted identity hammers the pool at
        // a cadence no honest verifier reaches, then the sentinel-driven
        // admission loop closes on it.
        const STORM_VERIFIER: u32 = 999_999;
        if self.storm {
            clock.advance_ns(self.window_ns);
            let instance = guests[0].instance;
            for _ in 0..80 {
                clock.advance_ns(1_000);
                let now = clock.now_ns();
                let evidence = issuer.issue(&platform, instance, now).expect("storm issue");
                submit(&pool, STORM_VERIFIER, evidence.encode(), now, &mut transcript);
                report.storm_submissions += 1;
            }
        }

        // Feed the sentinel: the pool's verdict stream plus the audit
        // chain's refusal records, in that order.
        for ev in pool.drain_events() {
            sentinel.observe(attest_event(0, &ev));
        }
        for entry in audit.entries() {
            sentinel.observe(audit_event(0, &entry));
        }

        if self.storm {
            let storm =
                |a: &Alert| a.kind == AlertKind::QuoteStorm && a.subject == Some(STORM_VERIFIER);
            if !sentinel.alerts().iter().any(storm) {
                report.divergences.push("quote storm went undetected".into());
            }
            let levers = Levers { verifiers: Some(&pool), ..Levers::default() };
            Actuator::default().apply(&sentinel, levers);
            if !pool.is_throttled(STORM_VERIFIER) {
                report.divergences.push("storm verifier not throttled by the closed loop".into());
            }
            clock.advance_ns(1_000);
            let now = clock.now_ns();
            let evidence = issuer.issue(&platform, guests[0].instance, now).expect("post-storm issue");
            let verdict = submit(&pool, STORM_VERIFIER, evidence.encode(), now, &mut transcript);
            report.storm_submissions += 1;
            if verdict != Verdict::Throttled {
                report
                    .divergences
                    .push(format!("throttled storm verifier judged {verdict}, want throttled"));
            }
            report.storm_throttled = verdict == Verdict::Throttled;
        }
        if report.injected_stale >= 4
            && !sentinel.alerts().iter().any(|a| a.kind == AlertKind::StaleQuote)
        {
            report.divergences.push("stale-quote burst went undetected".into());
        }

        // Attack-free runs must be alert-free: any critical here is a
        // false positive.
        let attack_free =
            self.replay_injections == 0 && self.stale_injections == 0 && !self.storm;
        (report.sentinel_alerts, report.sentinel_critical) =
            sentinel_tail(&sentinel, &mut transcript);
        if attack_free && report.sentinel_critical > 0 {
            report
                .divergences
                .push(format!("{} critical alerts on an attack-free run", report.sentinel_critical));
        }

        // Cross-check the plane's own books.
        type A = AttestTelemetry;
        let snap = issuer.telemetry().snapshot();
        report.signing_passes = snap[A::SIGNING_PASSES];
        report.cache_absorbed = snap[A::CACHE_HITS] + snap[A::COALESCED];
        if snap[A::REQUESTED] != snap[A::SIGNING_PASSES] + report.cache_absorbed {
            report.divergences.push(format!(
                "issuer counters do not conserve: {} != {} + {}",
                snap[A::REQUESTED], snap[A::SIGNING_PASSES], report.cache_absorbed
            ));
        }
        let tsnap = telemetry.snapshot();
        let deny_label = |code: u8| tsnap.deny_reasons[code as usize].1;
        report.stale_denials = deny_label(vtpm_telemetry::DENY_STALE_QUOTE);
        report.replay_denials = deny_label(vtpm_telemetry::DENY_QUOTE_REPLAY);
        if report.stale_denials < report.stale_refused
            || report.replay_denials < report.replays_refused
        {
            report.divergences.push("refusals missing from the per-reason deny counters".into());
        }
        let entries = audit.entries();
        report.audit_chain_ok = AuditLog::verify(&entries)
            && audit.denials() as u64 >= report.stale_refused + report.replays_refused;
        if !report.audit_chain_ok {
            report.divergences.push("audit chain broken or refusals unaudited".into());
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
    fn attest_chaos_is_deterministic_and_clean() {
        let cfg = AttestChaosConfig {
            instances: 2,
            verifiers: 6,
            rounds: 3,
            ..Default::default()
        };
        let (a, deterministic) = replay(&cfg, b"attest-chaos-det").unwrap();
        assert!(deterministic, "same seed must replay byte-identically");
        assert!(a.divergences.is_empty(), "divergences: {:?}", a.divergences);
        assert_eq!(a.accepted, a.submissions);
        assert_eq!(a.replays_refused, a.injected_replays);
        assert_eq!(a.stale_refused, a.injected_stale);
        assert!(a.storm_throttled);
        assert!(a.audit_chain_ok);
        assert!(a.cache_absorbed > 0, "verifier fan-in must hit the cache");
    }

    #[test]
    fn attack_free_run_raises_nothing() {
        let cfg = AttestChaosConfig {
            instances: 2,
            verifiers: 6,
            rounds: 3,
            ..Default::default()
        }
        .attack_free();
        let r = cfg.run(b"attest-chaos-calm").unwrap();
        assert!(r.divergences.is_empty(), "divergences: {:?}", r.divergences);
        assert_eq!(r.sentinel_critical, 0, "alerts: {:?}", r.sentinel_alerts);
        assert_eq!(r.accepted, r.submissions);
    }

    #[test]
    fn attest_verdict_fails_on_divergence_only() {
        assert!(AttestChaosReport::default().clean());
        // Detected attacks raise critical alerts; that is the point.
        assert!(AttestChaosReport { sentinel_critical: 3, ..Default::default() }.clean());
        let diverged =
            AttestChaosReport { divergences: vec!["quote storm went undetected".into()], ..Default::default() };
        assert!(!diverged.clean());
    }
}
