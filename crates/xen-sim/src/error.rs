//! Error type shared by all simulator subsystems.

use crate::domain::DomainId;

/// Errors returned by hypervisor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XenError {
    /// The referenced domain does not exist.
    NoSuchDomain(DomainId),
    /// The referenced domain exists but is not in a state that allows the
    /// operation (e.g. issuing hypercalls from a dead domain).
    BadDomainState(DomainId, &'static str),
    /// Out of machine frames.
    OutOfMemory,
    /// The referenced frame does not exist or is not owned by the caller.
    BadFrame,
    /// Access to a hypervisor-protected frame was denied.
    ProtectedFrame,
    /// The grant reference is invalid, revoked, or does not authorize the
    /// requested access.
    BadGrant,
    /// The grant is still mapped and cannot be revoked.
    GrantInUse,
    /// The event channel port is invalid or not bound.
    BadPort,
    /// XenStore path does not exist.
    NoSuchPath(String),
    /// XenStore permission denied for the calling domain.
    PermissionDenied(String),
    /// XenStore path component or payload is malformed.
    BadPath(String),
    /// Ring is full (producer would overwrite unconsumed entries).
    RingFull,
    /// Ring is empty.
    RingEmpty,
    /// Ring message too large for a slot.
    MessageTooLarge,
    /// A stored or exchanged image (a mirror page, a XenStore device
    /// record, a migration package) is malformed or a toolstack step on
    /// it failed; the payload names which.
    BadImage(&'static str),
    /// A state image exceeds what its store can hold: `bytes` is its
    /// size, `max` the store's limit.
    StateTooLarge {
        /// Size of the refused state, in bytes.
        bytes: usize,
        /// Largest size the store accepts, in bytes.
        max: usize,
    },
    /// The operation requires privilege the calling domain lacks.
    NotPrivileged(DomainId),
    /// An injected fault fired (chaos/fault-injection harness). The
    /// payload names the fault for diagnostics; production code never
    /// constructs this variant.
    Injected(&'static str),
}

impl std::fmt::Display for XenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XenError::NoSuchDomain(d) => write!(f, "no such domain: {d}"),
            XenError::BadDomainState(d, s) => write!(f, "domain {d} in bad state: {s}"),
            XenError::OutOfMemory => write!(f, "out of machine memory"),
            XenError::BadFrame => write!(f, "bad machine frame reference"),
            XenError::ProtectedFrame => write!(f, "frame is hypervisor-protected"),
            XenError::BadGrant => write!(f, "bad grant reference"),
            XenError::GrantInUse => write!(f, "grant still mapped"),
            XenError::BadPort => write!(f, "bad event channel port"),
            XenError::NoSuchPath(p) => write!(f, "xenstore: no such path: {p}"),
            XenError::PermissionDenied(p) => write!(f, "xenstore: permission denied: {p}"),
            XenError::BadPath(p) => write!(f, "xenstore: bad path: {p}"),
            XenError::RingFull => write!(f, "shared ring full"),
            XenError::RingEmpty => write!(f, "shared ring empty"),
            XenError::MessageTooLarge => write!(f, "message exceeds ring slot size"),
            XenError::BadImage(why) => write!(f, "bad domain image: {why}"),
            XenError::StateTooLarge { bytes, max } => {
                write!(f, "state too large: {bytes} bytes exceeds the {max}-byte limit")
            }
            XenError::NotPrivileged(d) => write!(f, "domain {d} is not privileged"),
            XenError::Injected(what) => write!(f, "injected fault: {what}"),
        }
    }
}

impl std::error::Error for XenError {}

/// Convenient result alias.
pub type Result<T> = std::result::Result<T, XenError>;
