//! # vtpm
//!
//! The Xen vTPM subsystem, rebuilt on the `xen-sim` substrate with the
//! `tpm` emulator — the system that *Improvement for vTPM Access Control
//! on Xen* (ICPPW 2010) modifies.
//!
//! Architecture (mirroring Berger et al., USENIX Security 2006, as
//! shipped in Xen):
//!
//! ```text
//!  guest                     Dom0
//!  ┌───────────────┐         ┌──────────────────────────────┐
//!  │ TpmClient     │         │ TpmBack ──► VtpmManager      │
//!  │   │           │  ring   │               │  ┌─────────┐ │
//!  │ TpmFront ─────┼────────►│               ├─►│instance1│ │
//!  └───────────────┘ +event  │               │  └─────────┘ │
//!                    channel │               │  ┌─────────┐ │
//!                            │  StateMirror ◄┴─►│instance2│ │
//!                            │  (Dom0 frames)   └─────────┘ │
//!                            └─────────────────┬────────────┘
//!                                     hardware TPM (seals master key)
//! ```
//!
//! The crate exposes the [`hook::AccessHook`] seam: the manager consults
//! it before dispatching every request. [`hook::StockHook`] (allow
//! everything) is the baseline; the `vtpm-ac` crate implements the
//! paper's improved access control behind the same trait.
//!
//! Mechanisms that belong to the *improved* configuration but live here
//! (they are transport/memory mechanics, not policy): the encrypted
//! state mirror ([`mirror::MirrorMode::Encrypted`]), ring scrubbing
//! (`scrub` flags on the drivers), sealed persistence ([`persist`]) and
//! destination-bound migration ([`migration`]).

pub mod admission;
pub mod deep_quote;
pub mod device;
pub mod hook;
pub mod instance;
pub mod manager;
pub mod migration;
pub mod mirror;
pub mod persist;
pub mod platform;
pub mod server;
pub mod transport;

pub use admission::{AdmissionController, AdmissionError};
pub use deep_quote::{DeepQuote, DeepQuoteError, BINDING_PCR};
pub use device::{provision_device, TpmBack, TpmFront, VTPM_FAIL_RC};
pub use hook::{AccessDecision, AccessHook, DenyReason, RequestContext, StockHook};
pub use instance::{InstanceId, InstanceStats, VtpmInstance};
pub use manager::{ManagerConfig, ManagerStatsSnapshot, RecoveryReport, VtpmManager};
pub use migration::{MigrationError, MigrationPackage};
pub use mirror::{MirrorIoStats, MirrorMode, MirrorRecovery, StateMirror};
pub use persist::{persist, restore, PersistError};
pub use platform::{Guest, Platform, HW_OWNER_AUTH, HW_SRK_AUTH};
pub use server::ManagerServer;
pub use transport::{Envelope, ResponseEnvelope, ResponseStatus, TAG_LEN};
