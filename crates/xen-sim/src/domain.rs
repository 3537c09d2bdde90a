//! Domain identity, lifecycle state, and configuration.

use std::fmt;

/// Identifier of a domain. Dom0 is always id 0; guests get ids >= 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainId(pub u32);

impl DomainId {
    /// The privileged control domain.
    pub const DOM0: DomainId = DomainId(0);

    /// Whether this is the privileged control domain.
    pub fn is_dom0(&self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dom{}", self.0)
    }
}

/// Lifecycle state of a domain: a domain runs from creation until it is
/// destroyed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainState {
    /// Runnable.
    Running,
    /// Destroyed; resources released.
    Dead,
}

/// Static configuration supplied at domain creation.
#[derive(Debug, Clone)]
pub struct DomainConfig {
    /// Human-readable name (unique per host in real Xen; we enforce it).
    pub name: String,
    /// Number of memory pages to allocate at build time.
    pub memory_pages: usize,
}

impl DomainConfig {
    /// A small default guest: 16 pages.
    pub fn small(name: &str) -> Self {
        DomainConfig { name: name.to_string(), memory_pages: 16 }
    }
}

impl Default for DomainConfig {
    fn default() -> Self {
        DomainConfig::small("guest")
    }
}

/// A domain record held by the hypervisor.
#[derive(Debug, Clone)]
pub struct Domain {
    /// Identity.
    pub id: DomainId,
    /// Name from the config.
    pub name: String,
    /// Current lifecycle state.
    pub state: DomainState,
    /// Machine frame numbers owned by this domain, in pseudo-physical order:
    /// `frames[pfn]` is the machine frame backing guest page `pfn`.
    pub frames: Vec<usize>,
}

impl Domain {
    /// Whether the domain can currently execute hypercalls.
    pub fn is_alive(&self) -> bool {
        self.state == DomainState::Running
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dom0_identity() {
        assert!(DomainId::DOM0.is_dom0());
        assert!(!DomainId(3).is_dom0());
        assert_eq!(format!("{}", DomainId(5)), "dom5");
    }

    #[test]
    fn config_defaults() {
        let c = DomainConfig::small("web1");
        assert_eq!(c.name, "web1");
        assert_eq!(c.memory_pages, 16);
    }

    #[test]
    fn alive_states() {
        let mut d = Domain {
            id: DomainId(1),
            name: "t".into(),
            state: DomainState::Running,
            frames: vec![],
        };
        assert!(d.is_alive());
        d.state = DomainState::Dead;
        assert!(!d.is_alive());
    }
}
