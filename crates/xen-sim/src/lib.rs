//! # xen-sim
//!
//! A discrete simulator of the Xen interfaces that the vTPM subsystem of
//! *Improvement for vTPM Access Control on Xen* (ICPPW 2010) touches.
//!
//! The reproduction cannot run a real hypervisor, so this crate rebuilds
//! the relevant substrate with the same actors, interfaces, and — most
//! importantly — the same *trust boundaries*:
//!
//! * [`memory`] — machine frames with ownership and a protection tag; the
//!   [`Hypervisor::dump_memory`] facility reproduces Dom0 memory-dump
//!   tooling (the paper's stated attack vector).
//! * [`domain`] + [`hypervisor`] — domain create/destroy with Dom0
//!   privilege checks.
//! * [`grant`] — grant tables, the authorization mechanism for shared
//!   pages.
//! * [`event`] — event channels with a per-domain fired-port queue that
//!   driver loops block on.
//! * [`ring`] — byte-stream shared rings (the split-driver transport),
//!   stored *inside* simulated memory so ring traffic is dumpable.
//! * [`xenstore`] — the hierarchical store with real xenstored permission
//!   semantics, including the Dom0 override that enables the rebinding
//!   attack the paper's AC1 defends against.
//! * [`clock`] — virtual time, kept separate from wall-clock benchmarks.

pub mod clock;
pub mod domain;
pub mod error;
pub mod event;
pub mod fault;
pub mod grant;
pub mod hypervisor;
pub mod memory;
pub mod ring;
pub mod xenstore;

pub use clock::VirtualClock;
pub use domain::{Domain, DomainConfig, DomainId, DomainState};
pub use error::{Result, XenError};
pub use event::{Endpoint, EventChannels, Fired, Port};
pub use fault::RingFault;
pub use grant::{GrantAccess, GrantRef, GrantTables};
pub use hypervisor::{DumpEvent, Hypervisor};
pub use memory::{MachineMemory, PageProtection, PAGE_SIZE};
pub use ring::{ByteRing, PageRegion, RingDir};
pub use xenstore::{Perms, XenStore};
