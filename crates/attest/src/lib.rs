//! # vtpm-attest
//!
//! The cloud-scale attestation plane: deep-quote issuance and
//! verification as a high-volume service, built on the hardware-rooted
//! binding protocol in `vtpm::deep_quote`.
//!
//! A farm of guests is useless to a relying party unless quotes can be
//! *checked* at the rate verifiers ask for them — and a naive design
//! pays two RSA private operations (the instance vTPM quote plus the
//! hardware countersign) for every single request. This crate splits
//! the plane into two halves:
//!
//! * **Issuer** ([`QuoteIssuer`]) — deep quotes are issued against
//!   *nonce-windows* (`window = now_ns / WINDOW_NS`, nonce derived
//!   from the window index), so every verifier asking during the same
//!   window receives the same evidence. Concurrent requests against
//!   one instance coalesce behind a per-instance single-flight lock
//!   into one signing pass, and issued quotes are cached keyed on
//!   `(instance, PCR-state generation, window)` — an unchanged PCR
//!   state never pays RSA twice, while any PCR-extending command bumps
//!   the permanent-state generation counter and invalidates the entry
//!   automatically.
//! * **Verifier** ([`VerifierPool`]) — batch-verifies submitted quote
//!   chains (vTPM AIK → registration log → hardware AIK), amortizing
//!   chain verification across identical evidence via a digest-keyed
//!   memo (a chain that differs anywhere — wrong EK, tampered log —
//!   has a different digest and is judged on its own), enforces a
//!   two-window freshness policy, and keeps a `(verifier, evidence)`
//!   replay ledger, pruned to that horizon, so a re-presented quote is
//!   refused with an audited per-reason denial. Per-verifier admission control
//!   (same EWMA machinery as the manager's ring-ingress throttle)
//!   closes the loop with the sentinel's quote-storm detector.
//!
//! Evidence crosses the wire as a strict, self-delimiting encoding
//! ([`Evidence::encode`]/[`Evidence::decode`]): trailing bytes and
//! malformed chains are rejected outright, mirroring the
//! `MigrationPackage` hygiene rules.

mod issuer;
mod verifier;
mod wire;

pub use issuer::{IssueError, IssuerConfig, QuoteIssuer};
pub use verifier::{Submission, Verdict, VerifierConfig, VerifierPool};
pub use wire::{window_nonce, Evidence, WireError, WINDOW_NS};

/// One verification outcome, as the pool's drainable event stream
/// reports it: who submitted, what they submitted, when, and how it
/// was judged. The harness bridges these into sentinel
/// `StreamEvent::Attest` events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttestEvent {
    /// Verifier identity that submitted the evidence.
    pub verifier: u32,
    /// Instance the evidence claims (0 when it never decoded).
    pub instance: u32,
    /// Caller-supplied timestamp of the verification (virtual ns).
    pub at_ns: u64,
    /// Verdict code, per [`Verdict::code`].
    pub verdict: u8,
}
