//! XenStore: the hierarchical key-value configuration store shared by the
//! toolstack and split drivers.
//!
//! In stock Xen the guest→vTPM-instance association lives here
//! (`/local/domain/<id>/device/vtpm/...`), protected only by node
//! permissions that the privileged domain can always override. That is
//! weakness W1: a Dom0-level attacker rewrites the binding and routes a
//! victim's TPM traffic to an instance it controls. The simulator
//! reproduces those permission semantics faithfully, including the Dom0
//! override, so the attack works against the baseline and the improved
//! layer has something real to defeat.

use std::collections::BTreeMap;

use crate::domain::DomainId;
use crate::error::{Result, XenError};

/// Per-node permission record, mirroring xenstored's owner/readers/writers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Perms {
    /// Owning domain: full access, may change permissions.
    pub owner: DomainId,
    /// Domains allowed to read (beyond owner and Dom0).
    pub readers: Vec<DomainId>,
    /// Domains allowed to write (beyond owner and Dom0).
    pub writers: Vec<DomainId>,
}

impl Perms {
    /// Node owned by `owner`, private to it (and Dom0).
    pub fn private(owner: DomainId) -> Self {
        Perms { owner, readers: Vec::new(), writers: Vec::new() }
    }

    /// Node owned by `owner`, world-readable.
    pub fn readable(owner: DomainId) -> Self {
        Perms { owner, readers: vec![DomainId(u32::MAX)], writers: Vec::new() }
    }

    const ANY: DomainId = DomainId(u32::MAX);

    fn can_read(&self, d: DomainId) -> bool {
        // Dom0 can always read: this is the real xenstored behaviour and
        // is precisely what the rebinding/recon attack leans on.
        d.is_dom0()
            || d == self.owner
            || self.readers.contains(&d)
            || self.readers.contains(&Self::ANY)
    }

    fn can_write(&self, d: DomainId) -> bool {
        d.is_dom0()
            || d == self.owner
            || self.writers.contains(&d)
            || self.writers.contains(&Self::ANY)
    }
}

#[derive(Debug, Clone)]
struct Node {
    value: Vec<u8>,
    perms: Perms,
}

/// The store. Single-threaded core; the hypervisor wraps it in a lock.
#[derive(Default)]
pub struct XenStore {
    nodes: BTreeMap<String, Node>,
}

fn validate_path(path: &str) -> Result<()> {
    if path.is_empty()
        || !path.starts_with('/')
        || (path.len() > 1 && path.ends_with('/'))
        || path.contains("//")
        || path.bytes().any(|b| b == 0 || b.is_ascii_whitespace())
    {
        return Err(XenError::BadPath(path.to_string()));
    }
    Ok(())
}

fn parent_of(path: &str) -> Option<&str> {
    if path == "/" {
        return None;
    }
    match path.rfind('/') {
        Some(0) => Some("/"),
        Some(i) => Some(&path[..i]),
        None => None,
    }
}

impl XenStore {
    /// A store containing only the root node, owned by Dom0.
    pub fn new() -> Self {
        let mut s = XenStore::default();
        s.nodes.insert(
            "/".to_string(),
            Node { value: Vec::new(), perms: Perms::readable(DomainId::DOM0) },
        );
        s
    }

    /// Write `value` at `path` as domain `caller`, creating intermediate
    /// nodes (owned by the caller) as needed. Requires write access to the
    /// nearest existing ancestor.
    pub fn write(&mut self, caller: DomainId, path: &str, value: &[u8]) -> Result<()> {
        validate_path(path)?;
        if let Some(node) = self.nodes.get_mut(path) {
            if !node.perms.can_write(caller) {
                return Err(XenError::PermissionDenied(path.to_string()));
            }
            node.value = value.to_vec();
            return Ok(());
        }
        // Creating: check write permission on the nearest existing ancestor.
        let mut probe = path;
        let ancestor = loop {
            match parent_of(probe) {
                Some(p) => {
                    if self.nodes.contains_key(p) {
                        break p;
                    }
                    probe = p;
                }
                None => return Err(XenError::BadPath(path.to_string())),
            }
        };
        if !self.nodes[ancestor].perms.can_write(caller) {
            return Err(XenError::PermissionDenied(path.to_string()));
        }
        // Create the chain of missing nodes.
        let mut missing: Vec<&str> = Vec::new();
        let mut probe = path;
        while probe != ancestor {
            missing.push(probe);
            probe = parent_of(probe).expect("ancestor exists above");
        }
        for p in missing.iter().rev() {
            self.nodes.insert(
                p.to_string(),
                Node { value: Vec::new(), perms: Perms::private(caller) },
            );
        }
        self.nodes.get_mut(path).expect("just inserted").value = value.to_vec();
        Ok(())
    }

    /// Read the value at `path` as `caller`.
    pub fn read(&self, caller: DomainId, path: &str) -> Result<Vec<u8>> {
        validate_path(path)?;
        let node = self.nodes.get(path).ok_or_else(|| XenError::NoSuchPath(path.to_string()))?;
        if !node.perms.can_read(caller) {
            return Err(XenError::PermissionDenied(path.to_string()));
        }
        Ok(node.value.clone())
    }

    /// Read as a UTF-8 string (convenience for toolstack code).
    pub fn read_string(&self, caller: DomainId, path: &str) -> Result<String> {
        Ok(String::from_utf8_lossy(&self.read(caller, path)?).into_owned())
    }

    /// Replace the permissions of `path`. Only the owner or Dom0 may do so.
    pub fn set_perms(&mut self, caller: DomainId, path: &str, perms: Perms) -> Result<()> {
        validate_path(path)?;
        let node = self.nodes.get_mut(path).ok_or_else(|| XenError::NoSuchPath(path.to_string()))?;
        if !(caller.is_dom0() || caller == node.perms.owner) {
            return Err(XenError::PermissionDenied(path.to_string()));
        }
        node.perms = perms;
        Ok(())
    }

    /// Whether `path` exists (no permission check — existence is cheap to
    /// probe in real xenstored too).
    pub fn exists(&self, path: &str) -> bool {
        self.nodes.contains_key(path)
    }

    /// Remove a destroyed domain's entries: its `/local/domain/<id>`
    /// home and every backend directory Dom0 keeps for it
    /// (`/local/domain/0/backend/<type>/<id>`).
    pub fn purge_domain(&mut self, domain: DomainId) {
        let home = format!("/local/domain/{}", domain.0);
        let prefix = format!("{home}/");
        let id = domain.0.to_string();
        self.nodes.retain(|k, _| {
            let backend_of =
                k.strip_prefix("/local/domain/0/backend/").and_then(|r| r.split('/').nth(1));
            *k != home && !k.starts_with(&prefix) && backend_of != Some(id.as_str())
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D0: DomainId = DomainId::DOM0;
    const D1: DomainId = DomainId(1);
    const D2: DomainId = DomainId(2);

    fn store() -> XenStore {
        XenStore::new()
    }

    #[test]
    fn write_read_roundtrip() {
        let mut s = store();
        s.write(D0, "/local/domain/1/name", b"web1").unwrap();
        assert_eq!(s.read(D0, "/local/domain/1/name").unwrap(), b"web1");
        assert_eq!(s.read_string(D0, "/local/domain/1/name").unwrap(), "web1");
    }

    #[test]
    fn intermediate_nodes_created() {
        let mut s = store();
        s.write(D0, "/a/b/c", b"v").unwrap();
        assert!(s.exists("/a"));
        assert!(s.exists("/a/b"));
        assert_eq!(s.read(D0, "/a/b/c").unwrap(), b"v");
        assert_eq!(s.read(D0, "/a/b").unwrap(), b"", "an intermediate node is empty");
    }

    #[test]
    fn path_validation() {
        let mut s = store();
        for bad in ["", "relative", "/trailing/", "/dou//ble", "/has space", "/nul\0byte"] {
            assert!(matches!(s.write(D0, bad, b"x"), Err(XenError::BadPath(_))), "{bad:?}");
        }
        // Root itself is writable (it's a node).
        s.write(D0, "/", b"root").unwrap();
    }

    #[test]
    fn guest_cannot_read_private_foreign_node() {
        let mut s = store();
        s.write(D0, "/secret", b"x").unwrap();
        assert!(matches!(s.read(D1, "/secret"), Err(XenError::PermissionDenied(_))));
        // But a reader grant opens it.
        s.set_perms(D0, "/secret", Perms { owner: D0, readers: vec![D1], writers: vec![] })
            .unwrap();
        assert_eq!(s.read(D1, "/secret").unwrap(), b"x");
        // D2 still locked out.
        assert!(matches!(s.read(D2, "/secret"), Err(XenError::PermissionDenied(_))));
    }

    #[test]
    fn dom0_overrides_all_permissions() {
        let mut s = store();
        // Guest-owned private node...
        s.write(D0, "/local/domain/1", b"").unwrap();
        s.set_perms(D0, "/local/domain/1", Perms::private(D1)).unwrap();
        s.write(D1, "/local/domain/1/private", b"guest-secret").unwrap();
        // ...is still fully accessible to Dom0. This is the W1 surface.
        assert_eq!(s.read(D0, "/local/domain/1/private").unwrap(), b"guest-secret");
        s.write(D0, "/local/domain/1/private", b"overwritten").unwrap();
        assert_eq!(s.read(D1, "/local/domain/1/private").unwrap(), b"overwritten");
    }

    #[test]
    fn guest_cannot_write_foreign_subtree() {
        let mut s = store();
        s.write(D0, "/local/domain/2", b"").unwrap();
        s.set_perms(D0, "/local/domain/2", Perms::private(D2)).unwrap();
        assert!(matches!(
            s.write(D1, "/local/domain/2/device/vtpm", b"steal"),
            Err(XenError::PermissionDenied(_))
        ));
    }

    #[test]
    fn purge_domain_clears_only_its_home() {
        let mut s = store();
        s.write(D0, "/local/domain/1/device", b"x").unwrap();
        s.write(D0, "/local/domain/10/name", b"neighbour").unwrap();
        s.purge_domain(D1);
        assert!(!s.exists("/local/domain/1"));
        assert!(!s.exists("/local/domain/1/device"));
        // A sibling whose id shares the prefix survives.
        assert_eq!(s.read(D0, "/local/domain/10/name").unwrap(), b"neighbour");
    }

    #[test]
    fn purge_domain_clears_its_backend_entries() {
        let mut s = store();
        s.write(D0, "/local/domain/0/name", b"Domain-0").unwrap();
        for id in [1, 10] {
            for ty in ["vtpm", "vif"] {
                s.write(D0, &format!("/local/domain/0/backend/{ty}/{id}/0/frontend-id"), b"x").unwrap();
            }
        }
        s.purge_domain(D1);
        for ty in ["vtpm", "vif"] {
            assert!(!s.exists(&format!("/local/domain/0/backend/{ty}/1")), "{ty}");
            assert!(!s.exists(&format!("/local/domain/0/backend/{ty}/1/0/frontend-id")), "{ty}");
            // Id 10 shares the prefix and keeps its entries; the type
            // directory itself stays.
            assert!(s.exists(&format!("/local/domain/0/backend/{ty}/10/0/frontend-id")), "{ty}");
            assert!(s.exists(&format!("/local/domain/0/backend/{ty}")), "{ty}");
        }
        assert_eq!(s.read(D0, "/local/domain/0/name").unwrap(), b"Domain-0");
    }

    #[test]
    fn set_perms_requires_ownership() {
        let mut s = store();
        s.write(D0, "/node", b"").unwrap();
        assert!(matches!(
            s.set_perms(D1, "/node", Perms::private(D1)),
            Err(XenError::PermissionDenied(_))
        ));
    }
}
