//! The improved access-control hook: AC1 + AC2 + AC4 behind the
//! manager's [`vtpm::AccessHook`] seam.
//!
//! Mechanisms are individually switchable ([`AcConfig`]) so the ablation
//! experiment (R-T4) can measure each one's cost and coverage alone. The
//! full configuration checks, in order:
//!
//! 1. *source consistency* — the envelope's claimed domain must equal the
//!    domain the ring actually belongs to (the backend's ground truth);
//! 2. *credential binding* (AC1) — the (domain, instance) pair must have
//!    a provisioned credential and the envelope tag must verify under it
//!    (constant-time compare);
//! 3. *replay* — the sequence number must advance;
//! 4. *locality* — the claimed locality must not exceed the domain's cap;
//! 5. *command policy* (AC2) — the (domain, ordinal) decision must allow.
//!
//! Every decision is appended to the hash-chained audit log (AC4).

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;
use tpm_crypto::ct_eq;
use xen_sim::Hypervisor;

use vtpm::{AccessDecision, AccessHook, DenyReason, RequestContext};

use crate::audit::{AuditLog, AuditOutcome};
use crate::credentials::CredentialTable;
use crate::policy::PolicyEngine;
use crate::replay::ReplayGuard;

/// Which mechanisms are active (the ablation switchboard).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcConfig {
    /// AC1: credential + tag verification and source consistency.
    pub auth: bool,
    /// AC1b: sequence-number replay protection (requires `auth`).
    pub replay: bool,
    /// AC2: ordinal policy filtering.
    pub policy: bool,
    /// AC4: audit logging.
    pub audit: bool,
    /// Maximum locality a guest may claim.
    pub max_guest_locality: u8,
}

impl Default for AcConfig {
    fn default() -> Self {
        AcConfig { auth: true, replay: true, policy: true, audit: true, max_guest_locality: 1 }
    }
}

impl AcConfig {
    /// Everything off — behaves like the stock hook (the ablation floor).
    pub fn none() -> Self {
        AcConfig { auth: false, replay: false, policy: false, audit: false, max_guest_locality: 4 }
    }
}

/// Modelled virtual-time costs of each mechanism (ns). Values reflect the
/// arithmetic actually performed (HMAC-SHA256 over command bytes, a map
/// probe, an append) on ~2010 server cores.
#[derive(Debug, Clone, Copy)]
pub struct AcCosts {
    /// Fixed HMAC setup cost.
    pub auth_base_ns: u64,
    /// HMAC cost per command byte.
    pub auth_per_byte_ns: u64,
    /// Replay-guard probe.
    pub replay_ns: u64,
    /// Cached policy decision.
    pub policy_ns: u64,
    /// Audit append (hash chain).
    pub audit_ns: u64,
}

impl Default for AcCosts {
    fn default() -> Self {
        AcCosts {
            auth_base_ns: 1_500,
            auth_per_byte_ns: 3,
            replay_ns: 120,
            policy_ns: 250,
            audit_ns: 900,
        }
    }
}

/// The improved hook.
pub struct ImprovedHook {
    cfg: AcConfig,
    costs: AcCosts,
    /// Credential table (AC1).
    pub credentials: Arc<CredentialTable>,
    /// Policy engine (AC2).
    pub policy: Arc<PolicyEngine>,
    /// Replay guard.
    pub replay: Arc<ReplayGuard>,
    /// Audit log (AC4).
    pub audit: Arc<AuditLog>,
    /// Per-domain locality caps overriding the default.
    locality_caps: RwLock<HashMap<u32, u8>>,
    /// Clock for audit timestamps.
    hv: Arc<Hypervisor>,
}

impl ImprovedHook {
    /// Build a hook with the given configuration and the recommended
    /// policy.
    pub fn new(hv: Arc<Hypervisor>, seed: &[u8], cfg: AcConfig) -> Self {
        ImprovedHook {
            cfg,
            costs: AcCosts::default(),
            credentials: Arc::new(CredentialTable::new(seed)),
            policy: Arc::new(PolicyEngine::recommended()),
            replay: Arc::new(ReplayGuard::new()),
            audit: Arc::new(AuditLog::new()),
            locality_caps: RwLock::new(HashMap::new()),
            hv,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> AcConfig {
        self.cfg
    }

    /// Raise/lower a single domain's locality cap.
    pub fn set_locality_cap(&self, domain: u32, cap: u8) {
        self.locality_caps.write().insert(domain, cap);
    }

    fn locality_cap(&self, domain: u32) -> u8 {
        self.locality_caps
            .read()
            .get(&domain)
            .copied()
            .unwrap_or(self.cfg.max_guest_locality)
    }

    fn decide(&self, ctx: &RequestContext<'_>) -> AccessDecision {
        if self.cfg.auth {
            // 1. Source consistency.
            if ctx.claimed_domain != ctx.source_domain.0 {
                return AccessDecision::Deny(DenyReason::SourceMismatch);
            }
            // 2. Credential binding + tag.
            let key = match self.credentials.key_for(ctx.claimed_domain, ctx.instance) {
                Some(k) => k,
                None => {
                    let reason = match self.credentials.binding_of(ctx.claimed_domain) {
                        Some(_) => DenyReason::BindingMismatch,
                        None => DenyReason::NoCredential,
                    };
                    return AccessDecision::Deny(reason);
                }
            };
            let tag = match ctx.tag {
                Some(t) => t,
                None => return AccessDecision::Deny(DenyReason::BadTag),
            };
            // Recompute over the same fields the frontend signed.
            let expected = vtpm::Envelope::tag_for(
                &key,
                ctx.claimed_domain,
                ctx.instance,
                ctx.seq,
                ctx.locality,
                ctx.command,
            );
            if !ct_eq(&expected, tag) {
                return AccessDecision::Deny(DenyReason::BadTag);
            }
            // 3. Replay.
            if self.cfg.replay
                && !self.replay.check_and_advance(ctx.claimed_domain, ctx.instance, ctx.seq)
            {
                return AccessDecision::Deny(DenyReason::Replay);
            }
        }
        // 4. Locality.
        if ctx.locality > self.locality_cap(ctx.claimed_domain) {
            return AccessDecision::Deny(DenyReason::LocalityDenied);
        }
        // 5. Policy.
        if self.cfg.policy {
            let ord = match ctx.ordinal {
                Some(o) => o,
                None => return AccessDecision::Deny(DenyReason::OrdinalDenied),
            };
            if !self.policy.check(ctx.claimed_domain, ord) {
                return AccessDecision::Deny(DenyReason::OrdinalDenied);
            }
        }
        AccessDecision::Allow
    }
}

impl AccessHook for ImprovedHook {
    fn authorize(&self, ctx: &RequestContext<'_>) -> AccessDecision {
        let decision = self.decide(ctx);
        if self.cfg.audit {
            let outcome = match decision {
                AccessDecision::Allow => AuditOutcome::Allowed,
                AccessDecision::Deny(r) => AuditOutcome::Denied(r),
            };
            self.audit.record(
                self.hv.clock.now_ns(),
                ctx.request_id,
                ctx.claimed_domain,
                ctx.instance,
                ctx.ordinal.unwrap_or(0),
                outcome,
            );
        }
        decision
    }

    fn overhead_ns(&self, ctx: &RequestContext<'_>) -> u64 {
        let mut ns = 0;
        if self.cfg.auth {
            ns += self.costs.auth_base_ns
                + self.costs.auth_per_byte_ns * ctx.command.len() as u64;
            if self.cfg.replay {
                ns += self.costs.replay_ns;
            }
        }
        if self.cfg.policy {
            ns += self.costs.policy_ns;
        }
        if self.cfg.audit {
            ns += self.costs.audit_ns;
        }
        ns
    }

    fn name(&self) -> &str {
        "improved-ac"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtpm::Envelope;
    use xen_sim::DomainId;

    fn hook(cfg: AcConfig) -> ImprovedHook {
        let hv = Arc::new(Hypervisor::boot(64, 4).unwrap());
        ImprovedHook::new(hv, b"hook-test", cfg)
    }

    fn seal_cmd() -> Vec<u8> {
        // header only; just enough to carry the SEAL ordinal
        let mut cmd = vec![0u8; 14];
        cmd[..2].copy_from_slice(&0x00C2u16.to_be_bytes());
        cmd[2..6].copy_from_slice(&14u32.to_be_bytes());
        cmd[6..10].copy_from_slice(&tpm::ordinal::SEAL.to_be_bytes());
        cmd
    }

    /// Build a well-formed signed envelope and its context pieces.
    fn signed_envelope(h: &ImprovedHook, domain: u32, instance: u32, seq: u64) -> Envelope {
        let key = h
            .credentials
            .key_for(domain, instance)
            .expect("provisioned");
        Envelope {
            domain,
            instance,
            seq,
            locality: 0,
            tag: None,
            command: seal_cmd(),
        }
        .sign(&key)
    }

    fn ctx<'a>(e: &'a Envelope, source: u32) -> RequestContext<'a> {
        RequestContext {
            request_id: e.seq, // tests reuse the seq as a stand-in id
            source_domain: DomainId(source),
            claimed_domain: e.domain,
            instance: e.instance,
            seq: e.seq,
            locality: e.locality,
            ordinal: tpm::ordinal_of(&e.command),
            tag: e.tag.as_ref(),
            command: &e.command,
        }
    }

    #[test]
    fn valid_request_allowed_and_audited() {
        let h = hook(AcConfig::default());
        h.credentials.provision(3, 7);
        let e = signed_envelope(&h, 3, 7, 1);
        assert_eq!(h.authorize(&ctx(&e, 3)), AccessDecision::Allow);
        assert_eq!(h.audit.len(), 1);
        assert_eq!(h.audit.denials(), 0);
    }

    #[test]
    fn spoofed_source_denied() {
        let h = hook(AcConfig::default());
        h.credentials.provision(3, 7);
        let e = signed_envelope(&h, 3, 7, 1);
        // Arrives from domain 5's ring while claiming domain 3.
        assert_eq!(
            h.authorize(&ctx(&e, 5)),
            AccessDecision::Deny(DenyReason::SourceMismatch)
        );
    }

    #[test]
    fn missing_credential_denied() {
        let h = hook(AcConfig::default());
        let e = Envelope {
            domain: 3,
            instance: 7,
            seq: 1,
            locality: 0,
            tag: Some([0; 32]),
            command: seal_cmd(),
        };
        assert_eq!(
            h.authorize(&ctx(&e, 3)),
            AccessDecision::Deny(DenyReason::NoCredential)
        );
    }

    #[test]
    fn cross_instance_binding_mismatch() {
        let h = hook(AcConfig::default());
        h.credentials.provision(3, 7);
        // Domain 3 tries instance 8 (e.g. after a XenStore rebinding).
        let key = h.credentials.key_for(3, 7).unwrap();
        let e = Envelope {
            domain: 3,
            instance: 8,
            seq: 1,
            locality: 0,
            tag: None,
            command: seal_cmd(),
        }
        .sign(&key);
        assert_eq!(
            h.authorize(&ctx(&e, 3)),
            AccessDecision::Deny(DenyReason::BindingMismatch)
        );
    }

    #[test]
    fn bad_or_missing_tag_denied() {
        let h = hook(AcConfig::default());
        h.credentials.provision(3, 7);
        // Missing tag.
        let mut e = signed_envelope(&h, 3, 7, 1);
        e.tag = None;
        assert_eq!(h.authorize(&ctx(&e, 3)), AccessDecision::Deny(DenyReason::BadTag));
        // Corrupted tag.
        let mut e2 = signed_envelope(&h, 3, 7, 2);
        e2.tag.as_mut().unwrap()[0] ^= 1;
        assert_eq!(h.authorize(&ctx(&e2, 3)), AccessDecision::Deny(DenyReason::BadTag));
        // Tag under the wrong key.
        let e3 = Envelope {
            domain: 3,
            instance: 7,
            seq: 3,
            locality: 0,
            tag: None,
            command: seal_cmd(),
        }
        .sign(b"not-the-credential");
        assert_eq!(h.authorize(&ctx(&e3, 3)), AccessDecision::Deny(DenyReason::BadTag));
    }

    #[test]
    fn replay_denied() {
        let h = hook(AcConfig::default());
        h.credentials.provision(3, 7);
        let e = signed_envelope(&h, 3, 7, 5);
        assert_eq!(h.authorize(&ctx(&e, 3)), AccessDecision::Allow);
        // Identical envelope again.
        assert_eq!(h.authorize(&ctx(&e, 3)), AccessDecision::Deny(DenyReason::Replay));
        // And an older sequence.
        let e_old = signed_envelope(&h, 3, 7, 4);
        assert_eq!(h.authorize(&ctx(&e_old, 3)), AccessDecision::Deny(DenyReason::Replay));
        assert_eq!(h.audit.denials(), 2);
    }

    #[test]
    fn policy_denies_admin_ordinals() {
        let h = hook(AcConfig::default());
        h.credentials.provision(3, 7);
        let key = h.credentials.key_for(3, 7).unwrap();
        let mut cmd = seal_cmd();
        cmd[6..10].copy_from_slice(&tpm::ordinal::NV_DEFINE_SPACE.to_be_bytes());
        let e = Envelope { domain: 3, instance: 7, seq: 1, locality: 0, tag: None, command: cmd }
            .sign(&key);
        assert_eq!(
            h.authorize(&ctx(&e, 3)),
            AccessDecision::Deny(DenyReason::OrdinalDenied)
        );
    }

    #[test]
    fn locality_cap_enforced_and_overridable() {
        let h = hook(AcConfig::default());
        h.credentials.provision(3, 7);
        let key = h.credentials.key_for(3, 7).unwrap();
        let make = |seq, locality| {
            Envelope {
                domain: 3,
                instance: 7,
                seq,
                locality,
                tag: None,
                command: seal_cmd(),
            }
            .sign(&key)
        };
        let e = make(1, 3);
        assert_eq!(
            h.authorize(&ctx(&e, 3)),
            AccessDecision::Deny(DenyReason::LocalityDenied)
        );
        h.set_locality_cap(3, 4);
        let e2 = make(2, 3);
        assert_eq!(h.authorize(&ctx(&e2, 3)), AccessDecision::Allow);
    }

    #[test]
    fn ablation_disables_mechanisms() {
        // Auth off: untagged spoofed envelopes pass (policy still on).
        let h = hook(AcConfig { auth: false, replay: false, ..Default::default() });
        let e = Envelope {
            domain: 3,
            instance: 7,
            seq: 0,
            locality: 0,
            tag: None,
            command: seal_cmd(),
        };
        assert_eq!(h.authorize(&ctx(&e, 5)), AccessDecision::Allow);

        // Everything off behaves like stock.
        let h2 = hook(AcConfig::none());
        let mut cmd = seal_cmd();
        cmd[6..10].copy_from_slice(&tpm::ordinal::OWNER_CLEAR.to_be_bytes());
        let e2 =
            Envelope { domain: 1, instance: 1, seq: 0, locality: 4, tag: None, command: cmd };
        assert_eq!(h2.authorize(&ctx(&e2, 9)), AccessDecision::Allow);
        assert_eq!(h2.audit.len(), 0, "audit off records nothing");
    }

    #[test]
    fn overhead_scales_with_mechanisms() {
        let hv = Arc::new(Hypervisor::boot(64, 4).unwrap());
        let full = ImprovedHook::new(Arc::clone(&hv), b"s", AcConfig::default());
        let none = ImprovedHook::new(Arc::clone(&hv), b"s", AcConfig::none());
        let auth_only = ImprovedHook::new(
            hv,
            b"s",
            AcConfig { policy: false, audit: false, ..Default::default() },
        );
        let e = Envelope {
            domain: 1,
            instance: 1,
            seq: 1,
            locality: 0,
            tag: None,
            command: seal_cmd(),
        };
        let c = ctx(&e, 1);
        assert_eq!(none.overhead_ns(&c), 0);
        assert!(auth_only.overhead_ns(&c) > 0);
        assert!(full.overhead_ns(&c) > auth_only.overhead_ns(&c));
    }

    #[test]
    fn audit_chain_stays_valid_under_mixed_traffic() {
        let h = hook(AcConfig::default());
        h.credentials.provision(3, 7);
        for seq in 1..=10u64 {
            let e = signed_envelope(&h, 3, 7, seq);
            h.authorize(&ctx(&e, 3));
            // And one junk request per round.
            let junk = Envelope {
                domain: 9,
                instance: 9,
                seq,
                locality: 0,
                tag: Some([0; 32]),
                command: seal_cmd(),
            };
            h.authorize(&ctx(&junk, 9));
        }
        assert_eq!(h.audit.len(), 20);
        assert_eq!(h.audit.denials(), 10);
        assert!(crate::audit::AuditLog::verify(&h.audit.entries()));
    }
}
