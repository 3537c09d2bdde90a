//! The verifying half of the plane: a pool that absorbs batches of
//! submitted evidence and judges each against chain validity,
//! freshness, replay history, and per-verifier admission control.
//!
//! Chain verification (two RSA public operations plus a log replay) is
//! amortized with a digest-keyed memo: identical evidence — the common
//! case when thousands of verifiers fetch the same cached quote — is
//! cryptographically checked once per pool. The memo key is the SHA-256
//! of the *encoded blob*, so evidence that differs anywhere (a wrong EK
//! modulus, a tampered log entry, one flipped signature byte) has a
//! different digest and is judged entirely on its own; a bad chain can
//! never ride a good chain's memo entry through a batch.
//!
//! Policy refusals that matter to the access-control story — stale
//! quotes outside the freshness window and replay-ledger hits — are
//! folded into the platform's per-reason deny counters and the
//! tamper-evident audit hash chain, exactly like the request-path
//! denials the hook produces.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use tpm::ordinal;
use vtpm::deep_quote::{self, DeepQuoteError};
use vtpm::{AdmissionController, DenyReason};
use vtpm_ac::{AuditLog, AuditOutcome};
use vtpm_telemetry::{AttestTelemetry, Telemetry};

use crate::wire::{window_nonce, Evidence, WireError};
use crate::AttestEvent;

/// How one submission was judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Chain valid, fresh, first presentation: trust the PCR claim.
    Accepted,
    /// Issued in a nonce-window older than the freshness policy allows
    /// (or claiming a window from the future).
    Stale,
    /// This verifier already presented exactly this evidence.
    Replayed,
    /// The cryptographic chain failed (signature, log replay, or EK
    /// registration).
    BadChain(DeepQuoteError),
    /// The hardware AIK is not in the pool's trust set.
    UntrustedHwAik,
    /// The attested PCR values do not match the golden measurement.
    MeasurementMismatch,
    /// The blob did not parse as evidence.
    Malformed(WireError),
    /// The submitting verifier is throttled by admission control.
    Throttled,
}

impl Verdict {
    /// Stable numeric code, as carried on [`AttestEvent`]s.
    pub fn code(&self) -> u8 {
        match self {
            Verdict::Accepted => 0,
            Verdict::Stale => 1,
            Verdict::Replayed => 2,
            Verdict::BadChain(_) => 3,
            Verdict::UntrustedHwAik => 4,
            Verdict::MeasurementMismatch => 5,
            Verdict::Malformed(_) => 6,
            Verdict::Throttled => 7,
        }
    }

    /// Whether the submission was accepted.
    pub fn accepted(&self) -> bool {
        matches!(self, Verdict::Accepted)
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Accepted => f.write_str("accepted"),
            Verdict::Stale => f.write_str("stale (outside freshness window)"),
            Verdict::Replayed => f.write_str("replayed"),
            Verdict::BadChain(e) => write!(f, "bad chain ({e:?})"),
            Verdict::UntrustedHwAik => f.write_str("untrusted hardware aik"),
            Verdict::MeasurementMismatch => f.write_str("measurement mismatch"),
            Verdict::Malformed(e) => write!(f, "malformed ({e})"),
            Verdict::Throttled => f.write_str("throttled"),
        }
    }
}

/// One piece of evidence as a verifier presents it: raw wire bytes plus
/// the submitting verifier's identity.
#[derive(Debug, Clone)]
pub struct Submission {
    /// Verifier identity (admission-control and replay-ledger key).
    pub verifier: u32,
    /// Encoded [`Evidence`] blob.
    pub bytes: Vec<u8>,
}

impl Submission {
    /// Wrap already-decoded evidence for submission.
    pub fn from_evidence(verifier: u32, evidence: &Evidence) -> Self {
        Submission { verifier, bytes: evidence.encode() }
    }
}

/// Verifier-pool policy.
#[derive(Debug, Clone)]
pub struct VerifierConfig {
    /// Nonce-window width (must match the issuer's).
    pub window_ns: u64,
    /// Maximum age, in windows, of acceptable evidence. With the
    /// default of 2, evidence from the current and previous window
    /// passes; anything older is [`Verdict::Stale`].
    pub freshness_windows: u64,
    /// Per-verifier admission control (disabled by default, like the
    /// manager's ring-ingress throttle).
    pub admission: bool,
    /// Expected PCR values for accepted quotes, when the relying party
    /// pins a golden measurement.
    pub golden_pcrs: Option<Vec<[u8; 20]>>,
    /// Chain-memo entry cap; the memo is cleared when it grows past
    /// this (bounds memory under adversarial unique-blob floods).
    pub memo_cap: usize,
}

impl Default for VerifierConfig {
    fn default() -> Self {
        VerifierConfig {
            window_ns: 1_000_000_000,
            freshness_windows: 2,
            admission: false,
            golden_pcrs: None,
            memo_cap: 4096,
        }
    }
}

/// The verifying service: batch verification with a chain memo, a
/// freshness-window policy, a `(verifier, evidence)` replay ledger, and
/// per-verifier admission control.
pub struct VerifierPool {
    cfg: VerifierConfig,
    /// Chain-verification memo keyed on evidence digest.
    memo: Mutex<BTreeMap<[u8; 32], Result<(), DeepQuoteError>>>,
    /// Every `(verifier, evidence digest)` ever accepted or judged.
    ledger: Mutex<BTreeSet<(u32, [u8; 32])>>,
    /// Hardware AIK moduli the pool trusts. Empty set = trust-on-parse
    /// (chain validity alone decides), for deployments that pin trust
    /// via the golden measurement instead.
    trusted_hw_aiks: Mutex<BTreeSet<Vec<u8>>>,
    admission: AdmissionController,
    events: Mutex<Vec<AttestEvent>>,
    attest: Arc<AttestTelemetry>,
    telemetry: Option<Arc<Telemetry>>,
    audit: Option<Arc<AuditLog>>,
}

impl VerifierPool {
    /// New pool with its own attestation-telemetry registry.
    pub fn new(cfg: VerifierConfig) -> Self {
        Self::with_telemetry(cfg, Arc::new(AttestTelemetry::new()))
    }

    /// New pool folding into a shared attestation-telemetry registry
    /// (typically the issuer's, so R-A1 reads one snapshot).
    pub fn with_telemetry(cfg: VerifierConfig, attest: Arc<AttestTelemetry>) -> Self {
        let admission = AdmissionController::new(cfg.admission);
        VerifierPool {
            cfg,
            memo: Mutex::new(BTreeMap::new()),
            ledger: Mutex::new(BTreeSet::new()),
            trusted_hw_aiks: Mutex::new(BTreeSet::new()),
            admission,
            events: Mutex::new(Vec::new()),
            attest,
            telemetry: None,
            audit: None,
        }
    }

    /// Fold policy refusals into a platform telemetry registry (the
    /// per-reason deny counters).
    pub fn attach_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.telemetry = Some(telemetry);
    }

    /// Chain policy refusals into a tamper-evident audit log.
    pub fn attach_audit(&mut self, audit: Arc<AuditLog>) {
        self.audit = Some(audit);
    }

    /// The pool's attestation-telemetry registry.
    pub fn telemetry(&self) -> &Arc<AttestTelemetry> {
        &self.attest
    }

    /// Pin a trusted hardware AIK modulus. Once any is pinned, chains
    /// countersigned by an unknown hardware AIK are refused.
    pub fn trust_hw_aik(&self, modulus: &[u8]) {
        self.trusted_hw_aiks.lock().insert(modulus.to_vec());
    }

    /// The admission controller (for closed-loop wiring: the harness's
    /// alert actuator throttles quote-storm subjects here).
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// Throttle a verifier (sentinel closed loop). Returns whether the
    /// verifier was newly throttled.
    pub fn throttle_verifier(&self, verifier: u32) -> bool {
        self.admission.throttle(verifier)
    }

    /// Whether a verifier is currently throttled.
    pub fn is_throttled(&self, verifier: u32) -> bool {
        self.admission.is_throttled(verifier)
    }

    /// Drain the pool's verification-outcome event stream (the
    /// sentinel feed).
    pub fn drain_events(&self) -> Vec<AttestEvent> {
        std::mem::take(&mut *self.events.lock())
    }

    /// Verify a whole batch, one verdict per submission in order.
    pub fn verify_batch(&self, batch: &[Submission], now_ns: u64) -> Vec<Verdict> {
        self.attest.note_batch(batch.len() as u64);
        batch.iter().map(|s| self.verify_one(s, now_ns)).collect()
    }

    /// Verify one submission at (virtual) time `now_ns`.
    pub fn verify_one(&self, submission: &Submission, now_ns: u64) -> Verdict {
        let t0 = Instant::now();
        let verdict = self.judge(submission, now_ns);
        self.attest.note_verify(verdict.accepted(), t0.elapsed().as_nanos() as u64);
        self.admission.record_outcome(submission.verifier, !verdict.accepted());

        let (instance, digest) = match Evidence::decode(&submission.bytes) {
            Ok(e) => (e.instance, e.digest()),
            Err(_) => (0, tpm_crypto::sha256(&submission.bytes)),
        };
        match verdict {
            Verdict::Stale => self.note_refusal(DenyReason::StaleQuote, &digest, submission, instance, now_ns),
            Verdict::Replayed => self.note_refusal(DenyReason::QuoteReplay, &digest, submission, instance, now_ns),
            _ => {}
        }
        self.events.lock().push(AttestEvent {
            verifier: submission.verifier,
            instance,
            at_ns: now_ns,
            verdict: verdict.code(),
        });
        verdict
    }

    fn judge(&self, submission: &Submission, now_ns: u64) -> Verdict {
        if self.admission.admit(submission.verifier).is_err() {
            return Verdict::Throttled;
        }
        let evidence = match Evidence::decode(&submission.bytes) {
            Ok(e) => e,
            Err(e) => return Verdict::Malformed(e),
        };

        // Freshness: the claimed window must be the current one or at
        // most `freshness_windows - 1` behind it — and never ahead of
        // the verifier's clock.
        let current = now_ns / self.cfg.window_ns;
        if evidence.window > current
            || current - evidence.window >= self.cfg.freshness_windows
        {
            return Verdict::Stale;
        }

        // Chain validity, memoized on the content digest. The nonce is
        // recomputed from the *claimed* window, so a blob re-labelled
        // with a fresher window fails its signature check here.
        let digest = evidence.digest();
        let chain = {
            let cached = self.memo.lock().get(&digest).copied();
            match cached {
                Some(r) => r,
                None => {
                    let r = deep_quote::verify(&evidence.quote, &window_nonce(evidence.window));
                    let mut memo = self.memo.lock();
                    if memo.len() >= self.cfg.memo_cap {
                        memo.clear();
                    }
                    memo.insert(digest, r);
                    r
                }
            }
        };
        if let Err(e) = chain {
            return Verdict::BadChain(e);
        }

        {
            let trusted = self.trusted_hw_aiks.lock();
            if !trusted.is_empty() && !trusted.contains(&evidence.quote.hw_aik_modulus) {
                return Verdict::UntrustedHwAik;
            }
        }

        if let Some(golden) = &self.cfg.golden_pcrs {
            if &evidence.quote.vtpm_pcr_values != golden {
                return Verdict::MeasurementMismatch;
            }
        }

        // Replay ledger: one presentation per (verifier, evidence).
        // Insert-last so only otherwise-acceptable evidence is burned.
        if !self.ledger.lock().insert((submission.verifier, digest)) {
            return Verdict::Replayed;
        }
        Verdict::Accepted
    }

    /// Fold a stale/replay refusal into the per-reason deny counters
    /// and the audit hash chain.
    fn note_refusal(
        &self,
        reason: DenyReason,
        digest: &[u8; 32],
        submission: &Submission,
        instance: u32,
        now_ns: u64,
    ) {
        if let Some(t) = &self.telemetry {
            t.note_protocol_deny(reason.code());
        }
        if let Some(audit) = &self.audit {
            let request_id = u64::from_be_bytes(digest[..8].try_into().expect("8 bytes"));
            audit.record(
                now_ns,
                request_id,
                submission.verifier,
                instance,
                ordinal::QUOTE,
                AuditOutcome::Denied(reason),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::issuer::{IssuerConfig, QuoteIssuer};
    use vtpm::Platform;

    fn farm() -> (vtpm::Platform, u32, QuoteIssuer) {
        let p = Platform::improved(b"attest-verifier").unwrap();
        let g = p.launch_guest("a").unwrap();
        let issuer = QuoteIssuer::new(IssuerConfig::default());
        issuer.provision(&p, g.instance).unwrap();
        (p, g.instance, issuer)
    }

    #[test]
    fn issued_evidence_is_accepted_once_and_replay_refused() {
        let (p, inst, issuer) = farm();
        let pool = VerifierPool::new(VerifierConfig::default());
        let e = issuer.issue(&p, inst, 10).unwrap();
        let sub = Submission::from_evidence(1, &e);
        assert_eq!(pool.verify_one(&sub, 10), Verdict::Accepted);
        assert_eq!(pool.verify_one(&sub, 20), Verdict::Replayed);
        // A different verifier presenting the same evidence is fine:
        // the ledger is per-verifier.
        assert_eq!(pool.verify_one(&Submission { verifier: 2, ..sub.clone() }, 20), Verdict::Accepted);
        let s = pool.telemetry().snapshot();
        type A = AttestTelemetry;
        assert_eq!((s[A::VERIFIED], s[A::ACCEPTED], s[A::REFUSED]), (3, 2, 1));
    }

    #[test]
    fn stale_window_refused_fresh_window_accepted() {
        let (p, inst, issuer) = farm();
        let pool = VerifierPool::new(VerifierConfig::default());
        let e = issuer.issue(&p, inst, 10).unwrap();
        let sub = Submission::from_evidence(1, &e);
        // Two windows later (freshness_windows = 2): stale.
        assert_eq!(pool.verify_one(&sub, 2_000_000_010), Verdict::Stale);
        // One window later: still fresh.
        assert_eq!(pool.verify_one(&sub, 1_000_000_010), Verdict::Accepted);
        // Claimed window ahead of the verifier clock would need a
        // time-traveling issuer: also stale.
        let mut future = e.as_ref().clone();
        future.window += 50;
        assert_eq!(
            pool.verify_one(&Submission::from_evidence(1, &future), 10),
            Verdict::Stale
        );
    }

    #[test]
    fn relabelled_window_fails_signature_not_freshness() {
        let (p, inst, issuer) = farm();
        let pool = VerifierPool::new(VerifierConfig::default());
        let e = issuer.issue(&p, inst, 10).unwrap();
        // Attacker "refreshes" stale evidence by bumping the claimed
        // window. The verifier recomputes the nonce from that window,
        // so the vTPM signature no longer verifies.
        let mut fresh = e.as_ref().clone();
        fresh.window += 1;
        assert_eq!(
            pool.verify_one(&Submission::from_evidence(1, &fresh), 1_000_000_010),
            Verdict::BadChain(DeepQuoteError::BadVtpmSignature)
        );
    }

    #[test]
    fn wrong_ek_chain_fails_inside_an_otherwise_valid_batch() {
        let (p, inst, issuer) = farm();
        let pool = VerifierPool::new(VerifierConfig::default());
        let e = issuer.issue(&p, inst, 10).unwrap();
        let mut spoofed = e.as_ref().clone();
        // Swap in an EK that is not in the registration log.
        spoofed.quote.vtpm_ek_modulus = vec![0x42; spoofed.quote.vtpm_ek_modulus.len()];
        let batch = vec![
            Submission::from_evidence(1, &e),
            Submission::from_evidence(2, &spoofed),
            Submission::from_evidence(3, &e),
        ];
        let verdicts = pool.verify_batch(&batch, 10);
        assert_eq!(verdicts[0], Verdict::Accepted);
        assert_eq!(verdicts[1], Verdict::BadChain(DeepQuoteError::UnregisteredInstance));
        assert_eq!(verdicts[2], Verdict::Accepted);
        assert_eq!(pool.telemetry().snapshot()[AttestTelemetry::BATCH_SIZE].max, 3);
    }

    #[test]
    fn untrusted_hw_aik_refused_once_trust_is_pinned() {
        let (p, inst, issuer) = farm();
        let pool = VerifierPool::new(VerifierConfig::default());
        let e = issuer.issue(&p, inst, 10).unwrap();
        pool.trust_hw_aik(&[0xEE; 64]);
        assert_eq!(
            pool.verify_one(&Submission::from_evidence(1, &e), 10),
            Verdict::UntrustedHwAik
        );
        pool.trust_hw_aik(&e.quote.hw_aik_modulus);
        assert_eq!(pool.verify_one(&Submission::from_evidence(1, &e), 10), Verdict::Accepted);
    }

    #[test]
    fn golden_measurement_mismatch_refused() {
        let (p, inst, issuer) = farm();
        let e = issuer.issue(&p, inst, 10).unwrap();
        let pool = VerifierPool::new(VerifierConfig {
            golden_pcrs: Some(vec![[0xAB; 20]; e.quote.vtpm_pcr_values.len()]),
            ..VerifierConfig::default()
        });
        assert_eq!(
            pool.verify_one(&Submission::from_evidence(1, &e), 10),
            Verdict::MeasurementMismatch
        );
        let pool = VerifierPool::new(VerifierConfig {
            golden_pcrs: Some(e.quote.vtpm_pcr_values.clone()),
            ..VerifierConfig::default()
        });
        assert_eq!(pool.verify_one(&Submission::from_evidence(1, &e), 10), Verdict::Accepted);
    }

    #[test]
    fn malformed_bytes_refused_without_panic() {
        let pool = VerifierPool::new(VerifierConfig::default());
        let v = pool.verify_one(&Submission { verifier: 1, bytes: vec![1, 2, 3] }, 0);
        assert!(matches!(v, Verdict::Malformed(_)));
    }

    #[test]
    fn throttled_verifier_refused_and_released() {
        let (p, inst, issuer) = farm();
        let pool = VerifierPool::new(VerifierConfig {
            admission: true,
            ..VerifierConfig::default()
        });
        assert!(pool.throttle_verifier(9));
        let e = issuer.issue(&p, inst, 10).unwrap();
        assert_eq!(
            pool.verify_one(&Submission::from_evidence(9, &e), 10),
            Verdict::Throttled
        );
        // An unthrottled verifier sails through.
        assert_eq!(pool.verify_one(&Submission::from_evidence(8, &e), 10), Verdict::Accepted);
    }

    #[test]
    fn refusals_hit_deny_counters_and_audit_chain() {
        let (p, inst, issuer) = farm();
        let mut pool = VerifierPool::new(VerifierConfig::default());
        let telemetry = Arc::new(Telemetry::new());
        let audit = Arc::new(AuditLog::new());
        pool.attach_telemetry(Arc::clone(&telemetry));
        pool.attach_audit(Arc::clone(&audit));

        let e = issuer.issue(&p, inst, 10).unwrap();
        let sub = Submission::from_evidence(1, &e);
        assert_eq!(pool.verify_one(&sub, 10), Verdict::Accepted);
        assert_eq!(pool.verify_one(&sub, 20), Verdict::Replayed);
        assert_eq!(pool.verify_one(&sub, 5_000_000_000), Verdict::Stale);

        let snap = telemetry.snapshot();
        assert_eq!(
            snap.deny_reasons[DenyReason::QuoteReplay.code() as usize],
            ("quote-replay", 1)
        );
        assert_eq!(
            snap.deny_reasons[DenyReason::StaleQuote.code() as usize],
            ("stale-quote", 1)
        );

        assert_eq!(audit.denials(), 2);
        let entries = audit.entries();
        assert!(entries
            .iter()
            .any(|d| d.outcome == AuditOutcome::Denied(DenyReason::QuoteReplay)));
        assert!(entries
            .iter()
            .any(|d| d.outcome == AuditOutcome::Denied(DenyReason::StaleQuote)));
        assert!(AuditLog::verify(&entries), "audit hash chain must stay intact");
    }

    #[test]
    fn chain_memo_amortizes_identical_evidence() {
        let (p, inst, issuer) = farm();
        let pool = VerifierPool::new(VerifierConfig::default());
        let e = issuer.issue(&p, inst, 10).unwrap();
        for v in 0..32 {
            assert_eq!(
                pool.verify_one(&Submission::from_evidence(v, &e), 10),
                Verdict::Accepted
            );
        }
        assert_eq!(pool.memo.lock().len(), 1, "one memo entry serves the whole fan-out");
    }

    #[test]
    fn events_report_every_outcome() {
        let (p, inst, issuer) = farm();
        let pool = VerifierPool::new(VerifierConfig::default());
        let e = issuer.issue(&p, inst, 10).unwrap();
        let sub = Submission::from_evidence(1, &e);
        pool.verify_one(&sub, 10);
        pool.verify_one(&sub, 20);
        let events = pool.drain_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0], AttestEvent { verifier: 1, instance: inst, at_ns: 10, verdict: 0 });
        assert_eq!(events[1].verdict, Verdict::Replayed.code());
        assert!(pool.drain_events().is_empty());
    }
}
