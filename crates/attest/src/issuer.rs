//! Batched deep-quote issuance: one signing pass per (instance,
//! PCR-state generation, nonce-window), everything else served from
//! cache.
//!
//! The expensive part of a deep quote is two RSA private operations —
//! the instance vTPM's quote signature and the hardware TPM's
//! countersign. Under a quote storm (thousands of verifiers polling
//! the same farm) almost all of that work is redundant: the PCR state
//! has not moved and the nonce-window has not rolled, so the evidence
//! is byte-identical. The issuer exploits that:
//!
//! * Requests are keyed on `(instance, state_generation, window)`.
//!   The generation is the TPM's permanent-state counter, bumped by
//!   every PCR extend (and any other permanent mutation) and *not* by
//!   quote execution itself — so a cache hit proves the evidence
//!   still describes the live PCR state, and an extend between two
//!   quotes forces a fresh signing pass.
//! * Concurrent misses for one instance coalesce behind a
//!   per-instance single-flight lock: the first request signs, the
//!   rest wake up, re-check the cache, and leave with the same
//!   `Arc<Evidence>`.
//! * Entries from windows older than the previous one are pruned on
//!   insert, bounding the cache at ~2 windows per instance.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use tpm::{DirectTransport, PcrSelection, TpmClient};
use vtpm::deep_quote::DeepQuote;
use vtpm::{InstanceId, Platform};
use vtpm_telemetry::{AttestTelemetry, QuoteSpanRecord};

use crate::wire::{window_nonce, Evidence};

/// Issuer tuning.
#[derive(Debug, Clone)]
pub struct IssuerConfig {
    /// Width of one nonce-window in (virtual) nanoseconds. Everything
    /// asking within one window shares a nonce and therefore evidence.
    pub window_ns: u64,
    /// PCRs a quote covers.
    pub selection: Vec<usize>,
    /// Whether the issued-quote cache is consulted. Disabled, every
    /// request pays a full signing pass — the R-A1 baseline.
    pub cache: bool,
}

impl Default for IssuerConfig {
    fn default() -> Self {
        IssuerConfig { window_ns: 1_000_000_000, selection: vec![0, 1], cache: true }
    }
}

/// Why issuance failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueError {
    /// No live instance with that id.
    UnknownInstance,
    /// The instance has no enrolled attestation identity yet.
    NotEnrolled,
    /// A TPM command in the signing pass failed.
    Tpm(&'static str),
}

impl std::fmt::Display for IssueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IssueError::UnknownInstance => f.write_str("no such instance"),
            IssueError::NotEnrolled => f.write_str("instance has no attestation identity"),
            IssueError::Tpm(what) => write!(f, "tpm failure during {what}"),
        }
    }
}

impl std::error::Error for IssueError {}

/// A provisioned per-instance attestation identity: a loaded signing
/// key inside the instance vTPM plus the public material evidence
/// carries.
#[derive(Clone)]
struct AikIdentity {
    handle: u32,
    auth: [u8; 20],
    modulus: Vec<u8>,
    ek_modulus: Vec<u8>,
}

/// The issuing half of the attestation plane.
pub struct QuoteIssuer {
    cfg: IssuerConfig,
    identities: Mutex<BTreeMap<InstanceId, AikIdentity>>,
    cache: Mutex<BTreeMap<(InstanceId, u64, u64), Arc<Evidence>>>,
    flights: Mutex<BTreeMap<InstanceId, Arc<Mutex<()>>>>,
    telemetry: Arc<AttestTelemetry>,
}

impl QuoteIssuer {
    /// New issuer with its own telemetry registry.
    pub fn new(cfg: IssuerConfig) -> Self {
        Self::with_telemetry(cfg, Arc::new(AttestTelemetry::new()))
    }

    /// New issuer folding into a shared telemetry registry.
    pub fn with_telemetry(cfg: IssuerConfig, telemetry: Arc<AttestTelemetry>) -> Self {
        QuoteIssuer {
            cfg,
            identities: Mutex::new(BTreeMap::new()),
            cache: Mutex::new(BTreeMap::new()),
            flights: Mutex::new(BTreeMap::new()),
            telemetry,
        }
    }

    /// The issuer's telemetry registry.
    pub fn telemetry(&self) -> &Arc<AttestTelemetry> {
        &self.telemetry
    }

    /// The configured selection, as quotes will cover it.
    pub fn selection(&self) -> PcrSelection {
        PcrSelection::of(&self.cfg.selection)
    }

    /// Nonce-window index for a timestamp under this issuer's config.
    pub fn window_of(&self, now_ns: u64) -> u64 {
        now_ns / self.cfg.window_ns
    }

    /// Enroll an instance whose TPM is *already owned*, creating and
    /// loading the attestation key under the given SRK auth. This is
    /// the path for guests that took ownership themselves and delegate
    /// quote signing to the platform's attestation agent.
    pub fn enroll_with_auths(
        &self,
        platform: &Platform,
        instance: InstanceId,
        srk_auth: &[u8; 20],
        key_auth: &[u8; 20],
    ) -> Result<(), IssueError> {
        let ek_modulus =
            platform.instance_ek_modulus(instance).ok_or(IssueError::UnknownInstance)?;
        let identity = platform
            .manager
            .with_instance(instance, |i| -> Result<AikIdentity, IssueError> {
                let mut c = TpmClient::new(
                    DirectTransport { tpm: &mut i.tpm, locality: 0 },
                    &[b"attest-enroll-", &instance.to_be_bytes()[..]].concat(),
                );
                let blob = c
                    .create_wrap_key(
                        tpm::handle::SRK,
                        srk_auth,
                        tpm::KeyUsage::Signing,
                        512,
                        key_auth,
                        None,
                    )
                    .map_err(|_| IssueError::Tpm("aik create"))?;
                let handle = c
                    .load_key2(tpm::handle::SRK, srk_auth, &blob)
                    .map_err(|_| IssueError::Tpm("aik load"))?;
                Ok(AikIdentity {
                    handle,
                    auth: *key_auth,
                    modulus: blob.n,
                    ek_modulus: ek_modulus.clone(),
                })
            })
            .ok_or(IssueError::UnknownInstance)??;
        self.identities.lock().insert(instance, identity);
        Ok(())
    }

    /// Toolstack-side provisioning for instances nobody has claimed:
    /// start the TPM if needed, take ownership with auths derived from
    /// the instance id, and enroll. Used by experiments and the farm
    /// harness where the attestation agent owns guest vTPM identity.
    pub fn provision(&self, platform: &Platform, instance: InstanceId) -> Result<(), IssueError> {
        let (owner, srk, key) = derive_auths(instance);
        platform
            .manager
            .with_instance(instance, |i| {
                let mut c = TpmClient::new(
                    DirectTransport { tpm: &mut i.tpm, locality: 0 },
                    &[b"attest-provision-", &instance.to_be_bytes()[..]].concat(),
                );
                // Both are no-ops on an already-started / already-owned
                // TPM; the enroll step below needs only a usable SRK.
                let _ = c.startup_clear();
                let _ = c.take_ownership(&owner, &srk);
            })
            .ok_or(IssueError::UnknownInstance)?;
        self.enroll_with_auths(platform, instance, &srk, &key)
    }

    /// Issue (or fetch) the deep quote for `instance` in the window
    /// containing `now_ns`. Every caller of the same window sees the
    /// same `Arc` as long as the instance's PCR state has not moved.
    pub fn issue(
        &self,
        platform: &Platform,
        instance: InstanceId,
        now_ns: u64,
    ) -> Result<Arc<Evidence>, IssueError> {
        self.telemetry.note_requested();
        let window = self.window_of(now_ns);

        if self.cfg.cache {
            let generation = platform
                .manager
                .with_instance(instance, |i| i.tpm.state_generation())
                .ok_or(IssueError::UnknownInstance)?;
            if let Some(hit) = self.cache.lock().get(&(instance, generation, window)) {
                self.telemetry.note_cache_hit();
                return Ok(Arc::clone(hit));
            }
        }

        // Single-flight: one signing pass per instance at a time;
        // everyone else queues here and usually leaves via the cache.
        let flight =
            Arc::clone(self.flights.lock().entry(instance).or_insert_with(Default::default));
        let _in_flight = flight.lock();

        if self.cfg.cache {
            let generation = platform
                .manager
                .with_instance(instance, |i| i.tpm.state_generation())
                .ok_or(IssueError::UnknownInstance)?;
            if let Some(hit) = self.cache.lock().get(&(instance, generation, window)) {
                self.telemetry.note_coalesced();
                return Ok(Arc::clone(hit));
            }
        }

        let identity =
            self.identities.lock().get(&instance).cloned().ok_or(IssueError::NotEnrolled)?;
        let nonce = window_nonce(window);
        let sel = self.selection();

        let t0 = Instant::now();
        let (generation, values, vtpm_signature) = platform
            .manager
            .with_instance(instance, |i| -> Result<_, IssueError> {
                let mut c = TpmClient::new(
                    DirectTransport { tpm: &mut i.tpm, locality: 0 },
                    &[b"attest-quote-", &instance.to_be_bytes()[..]].concat(),
                );
                let (values, sig) = c
                    .quote(identity.handle, &identity.auth, &nonce, &sel)
                    .map_err(|_| IssueError::Tpm("vtpm quote"))?;
                // Read the generation under the same instance lock as
                // the quote: the cache key must describe exactly the
                // state the signature covers.
                Ok((i.tpm.state_generation(), values, sig))
            })
            .ok_or(IssueError::UnknownInstance)??;
        let t1 = Instant::now();
        let (hw_binding_pcr, hw_signature, hw_aik_modulus) = platform
            .hw_countersign(&nonce, &vtpm_signature)
            .map_err(|_| IssueError::Tpm("hw countersign"))?;
        let t2 = Instant::now();

        let evidence = Arc::new(Evidence {
            instance,
            window,
            quote: DeepQuote {
                vtpm_pcr_values: values,
                vtpm_selection: self.cfg.selection.clone(),
                vtpm_signature,
                vtpm_aik_modulus: identity.modulus.clone(),
                vtpm_ek_modulus: identity.ek_modulus.clone(),
                hw_binding_pcr,
                hw_signature,
                hw_aik_modulus,
                registration_log: platform.registration_log(),
            },
        });
        let t3 = Instant::now();

        if self.cfg.cache {
            let mut cache = self.cache.lock();
            // Windows roll forward only; anything older than the
            // previous window can never be served fresh again.
            cache.retain(|&(id, _, w), _| id != instance || w + 1 >= window);
            cache.insert((instance, generation, window), Arc::clone(&evidence));
        }

        self.telemetry.record_issue(QuoteSpanRecord {
            instance,
            window,
            generation,
            stage_ns: [
                (t1 - t0).as_nanos() as u64,
                (t2 - t1).as_nanos() as u64,
                (t3 - t2).as_nanos() as u64,
            ],
            total_ns: (t3 - t0).as_nanos() as u64,
        });
        Ok(evidence)
    }
}

/// Deterministic toolstack auth secrets for [`QuoteIssuer::provision`]:
/// (owner, srk, key usage) derived from the instance id.
fn derive_auths(instance: InstanceId) -> ([u8; 20], [u8; 20], [u8; 20]) {
    let one = |tag: &[u8]| -> [u8; 20] {
        let d = tpm_crypto::sha256(&[b"VTPM-ATTEST-AUTH/", tag, &instance.to_be_bytes()].concat());
        let mut a = [0u8; 20];
        a.copy_from_slice(&d[..20]);
        a
    };
    (one(b"owner"), one(b"srk"), one(b"key"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtpm::deep_quote;

    #[test]
    fn issue_caches_within_window_and_generation() {
        let p = Platform::improved(b"attest-issuer-1").unwrap();
        let g = p.launch_guest("a").unwrap();
        let issuer = QuoteIssuer::new(IssuerConfig::default());
        issuer.provision(&p, g.instance).unwrap();

        let e1 = issuer.issue(&p, g.instance, 10).unwrap();
        let e2 = issuer.issue(&p, g.instance, 20).unwrap();
        assert!(Arc::ptr_eq(&e1, &e2), "same window + same state → cached evidence");
        let s = issuer.telemetry().snapshot();
        type A = AttestTelemetry;
        assert_eq!((s[A::REQUESTED], s[A::SIGNING_PASSES], s[A::CACHE_HITS]), (2, 1, 1));

        // The evidence itself verifies against the window nonce.
        deep_quote::verify(&e1.quote, &window_nonce(e1.window)).unwrap();
    }

    #[test]
    fn window_roll_forces_new_signing_pass() {
        let p = Platform::improved(b"attest-issuer-2").unwrap();
        let g = p.launch_guest("a").unwrap();
        let issuer = QuoteIssuer::new(IssuerConfig::default());
        issuer.provision(&p, g.instance).unwrap();

        let e1 = issuer.issue(&p, g.instance, 10).unwrap();
        let e2 = issuer.issue(&p, g.instance, 10 + 1_000_000_000).unwrap();
        assert_ne!(e1.window, e2.window);
        assert_ne!(*e1, *e2);
        assert_eq!(issuer.telemetry().snapshot()[AttestTelemetry::SIGNING_PASSES], 2);
    }

    #[test]
    fn pcr_extend_between_quotes_misses_cache() {
        let p = Platform::improved(b"attest-issuer-3").unwrap();
        let mut g = p.launch_guest("a").unwrap();
        let issuer = QuoteIssuer::new(IssuerConfig::default());
        issuer.provision(&p, g.instance).unwrap();

        let e1 = issuer.issue(&p, g.instance, 10).unwrap();
        // The guest extends a measured PCR: the permanent-state
        // generation bumps, so the cached quote no longer describes
        // the live state and MUST not be served again.
        let mut c = g.client(b"extend");
        c.extend(0, &[0x5A; 20]).unwrap();
        let e2 = issuer.issue(&p, g.instance, 20).unwrap();
        assert!(!Arc::ptr_eq(&e1, &e2), "extend must invalidate the cache");
        assert_ne!(e1.quote.vtpm_pcr_values, e2.quote.vtpm_pcr_values);
        let s = issuer.telemetry().snapshot();
        assert_eq!((s[AttestTelemetry::SIGNING_PASSES], s[AttestTelemetry::CACHE_HITS]), (2, 0));
        // Both quotes verify — each against the same window nonce,
        // each over its own PCR state.
        deep_quote::verify(&e1.quote, &window_nonce(e1.window)).unwrap();
        deep_quote::verify(&e2.quote, &window_nonce(e2.window)).unwrap();
    }

    #[test]
    fn cache_disabled_pays_rsa_every_time() {
        let p = Platform::improved(b"attest-issuer-4").unwrap();
        let g = p.launch_guest("a").unwrap();
        let issuer =
            QuoteIssuer::new(IssuerConfig { cache: false, ..IssuerConfig::default() });
        issuer.provision(&p, g.instance).unwrap();
        issuer.issue(&p, g.instance, 10).unwrap();
        issuer.issue(&p, g.instance, 20).unwrap();
        let s = issuer.telemetry().snapshot();
        type A = AttestTelemetry;
        assert_eq!((s[A::SIGNING_PASSES], s[A::CACHE_HITS], s[A::COALESCED]), (2, 0, 0));
    }

    #[test]
    fn concurrent_requests_coalesce_into_one_signing_pass() {
        let p = Platform::improved(b"attest-issuer-5").unwrap();
        let g = p.launch_guest("a").unwrap();
        let issuer = QuoteIssuer::new(IssuerConfig::default());
        issuer.provision(&p, g.instance).unwrap();

        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| issuer.issue(&p, g.instance, 50).unwrap());
            }
        });
        let s = issuer.telemetry().snapshot();
        assert_eq!(s[AttestTelemetry::REQUESTED], 8);
        assert_eq!(s[AttestTelemetry::SIGNING_PASSES], 1, "one pass serves the whole storm");
        assert_eq!(s[AttestTelemetry::CACHE_HITS] + s[AttestTelemetry::COALESCED], 7);
    }

    #[test]
    fn unknown_and_unenrolled_instances_refused() {
        let p = Platform::improved(b"attest-issuer-6").unwrap();
        let g = p.launch_guest("a").unwrap();
        let issuer = QuoteIssuer::new(IssuerConfig::default());
        assert_eq!(issuer.issue(&p, 9999, 0), Err(IssueError::UnknownInstance));
        assert_eq!(issuer.issue(&p, g.instance, 0), Err(IssueError::NotEnrolled));
    }
}
