//! # vtpm-xen
//!
//! Umbrella crate for the reproduction of *Improvement for vTPM Access
//! Control on Xen* (Morikawa, Ebara, Onishi, Nakano — ICPPW 2010).
//!
//! Re-exports the whole stack so examples and integration tests can work
//! against one crate:
//!
//! * [`crypto`] — from-scratch SHA-1/SHA-256, HMAC, bignum/RSA, AES-CTR,
//!   DRBG ([`tpm_crypto`]);
//! * [`xen`] — the Xen simulator: domains, memory + dump facility, grant
//!   tables, event channels, rings, XenStore ([`xen_sim`]);
//! * [`tpm12`] — the software TPM 1.2 emulator and client ([`tpm`]);
//! * [`vtpm_stack`] — the stock vTPM subsystem: manager, split driver,
//!   persistence, migration, platform assembly ([`vtpm`]);
//! * [`access_control`] — **the paper's contribution**: AC1–AC4 and
//!   [`vtpm_ac::SecurePlatform`] ([`vtpm_ac`]);
//! * [`attack`] — the evaluation's attacker toolkit ([`attacks`]);
//! * [`bench_workload`] — command mixes, drivers, runners ([`workload`]);
//! * [`telemetry`] — spans, metrics, and exporters threaded
//!   through the whole request path ([`vtpm_telemetry`]);
//! * [`cluster`] — multi-host fabric and the live-migration protocol:
//!   exactly-once hand-off, epoch anti-rollback, placement/rebalance
//!   ([`vtpm_cluster`]);
//! * [`sentinel`] — the streaming security-detection plane: detectors
//!   over the span/audit/gauge/dump-trail/attest stream, a bounded
//!   flight recorder, and a Prometheus-style exporter
//!   ([`vtpm_sentinel`]);
//! * [`attest`] — the cloud-scale attestation plane: nonce-window
//!   batched deep-quote issuance with a generation-keyed cache, and a
//!   batch-verifying pool with freshness policy, replay ledger, and
//!   audited refusals ([`vtpm_attest`]);
//! * [`fleet`] — the fleet control plane: phi-accrual failure
//!   detection over fabric heartbeats, a bounded pool of concurrent
//!   migration drivers with epoch arbitration, and the
//!   suspicion-driven rebalancer ([`vtpm_fleet`]);
//! * [`observatory`] — the fleet-wide metrics plane: cross-host
//!   histogram aggregation over scraped fabric frames, downsampling
//!   rollups in virtual time, the multi-window SLO burn-rate engine
//!   feeding the sentinel's closed loops, and per-subsystem profiling
//!   attribution from one text/JSON endpoint ([`vtpm_observatory`]).
//!
//! ## Quickstart
//!
//! ```
//! use vtpm_xen::access_control::SecurePlatform;
//!
//! // The paper's improved system: encrypted state, scrubbed rings,
//! // credentialed guests, command policy, audit log.
//! let platform = SecurePlatform::full(b"my-host").unwrap();
//! let mut guest = platform.launch_guest("web1").unwrap();
//! let mut tpm = guest.client(b"app");
//! tpm.startup_clear().unwrap();
//! let nonce = tpm.get_random(16).unwrap();
//! assert_eq!(nonce.len(), 16);
//! ```

pub use attacks as attack;
pub use tpm as tpm12;
pub use vtpm_attest as attest;
pub use tpm_crypto as crypto;
pub use vtpm_cluster as cluster;
pub use vtpm_fleet as fleet;
pub use vtpm_observatory as observatory;
pub use vtpm_sentinel as sentinel;
pub use vtpm as vtpm_stack;
pub use vtpm_ac as access_control;
pub use vtpm_telemetry as telemetry;
pub use workload as bench_workload;
pub use xen_sim as xen;

/// The commonly used types, one import away.
pub mod prelude {
    pub use attacks::{AttackMatrix, MemoryDump};
    pub use tpm::{handle, ordinal, rc, PcrSelection, Tpm, TpmClient, TpmConfig};
    pub use vtpm::{Guest, ManagerConfig, MirrorMode, Platform, VtpmManager};
    pub use vtpm_ac::{AcConfig, PolicyEngine, SecurePlatform};
    pub use vtpm_attest::{
        Evidence, IssuerConfig, QuoteIssuer, Submission, Verdict, VerifierConfig, VerifierPool,
    };
    pub use vtpm_cluster::{Cluster, ClusterConfig, MigrateOutcome};
    pub use vtpm_fleet::{Fleet, FleetConfig};
    pub use vtpm_observatory::{Observatory, SloRule};
    pub use vtpm_sentinel::{AlertKind, Sentinel, SentinelConfig, StreamEvent};
    pub use workload::{run_concurrent, CommandMix, GuestSession, Op};
    pub use xen_sim::{DomainConfig, DomainId, Hypervisor};
}
