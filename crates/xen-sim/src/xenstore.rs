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

/// A watch event: the path that changed and the token registered with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchEvent {
    /// The path that was written or removed.
    pub path: String,
    /// Token supplied at watch registration.
    pub token: String,
}

#[derive(Debug)]
struct Watch {
    domain: DomainId,
    prefix: String,
    token: String,
}

/// A buffered transaction (xenstored's optimistic-concurrency model).
struct Txn {
    caller: DomainId,
    /// Paths read, with the node version observed (0 = absent).
    reads: BTreeMap<String, u64>,
    /// Buffered mutations in order; `None` value = remove.
    writes: Vec<(String, Option<Vec<u8>>)>,
}

/// The store. Single-threaded core; the hypervisor wraps it in a lock.
#[derive(Default)]
pub struct XenStore {
    nodes: BTreeMap<String, Node>,
    watches: Vec<Watch>,
    /// Per-domain queues of fired watch events.
    pending: BTreeMap<DomainId, Vec<WatchEvent>>,
    /// Per-path version counters (bumped on every committed mutation).
    versions: BTreeMap<String, u64>,
    txns: BTreeMap<u32, Txn>,
    next_txn: u32,
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
            self.bump_version(path);
            self.fire_watches(path);
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
        self.bump_version(path);
        self.fire_watches(path);
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

    /// List the immediate children names of `path`.
    pub fn list(&self, caller: DomainId, path: &str) -> Result<Vec<String>> {
        validate_path(path)?;
        let node = self.nodes.get(path).ok_or_else(|| XenError::NoSuchPath(path.to_string()))?;
        if !node.perms.can_read(caller) {
            return Err(XenError::PermissionDenied(path.to_string()));
        }
        let prefix = if path == "/" { "/".to_string() } else { format!("{path}/") };
        let mut out = Vec::new();
        for key in self.nodes.range(prefix.clone()..) {
            let (k, _) = key;
            if !k.starts_with(&prefix) {
                break;
            }
            let rest = &k[prefix.len()..];
            if !rest.is_empty() && !rest.contains('/') {
                out.push(rest.to_string());
            }
        }
        Ok(out)
    }

    /// Remove `path` and its entire subtree.
    pub fn remove(&mut self, caller: DomainId, path: &str) -> Result<()> {
        validate_path(path)?;
        if path == "/" {
            return Err(XenError::BadPath(path.to_string()));
        }
        let node = self.nodes.get(path).ok_or_else(|| XenError::NoSuchPath(path.to_string()))?;
        if !node.perms.can_write(caller) {
            return Err(XenError::PermissionDenied(path.to_string()));
        }
        let prefix = format!("{path}/");
        let doomed: Vec<String> = self
            .nodes
            .keys()
            .filter(|k| k.as_str() == path || k.starts_with(&prefix))
            .cloned()
            .collect();
        for k in doomed {
            self.nodes.remove(&k);
            self.bump_version(&k);
        }
        self.fire_watches(path);
        Ok(())
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

    /// Register a watch for `caller` on `prefix`; any write/remove at or
    /// below the prefix queues a [`WatchEvent`] for the caller.
    pub fn watch(&mut self, caller: DomainId, prefix: &str, token: &str) -> Result<()> {
        validate_path(prefix)?;
        self.watches.push(Watch {
            domain: caller,
            prefix: prefix.to_string(),
            token: token.to_string(),
        });
        Ok(())
    }

    /// Remove a previously registered watch.
    pub fn unwatch(&mut self, caller: DomainId, prefix: &str, token: &str) {
        self.watches
            .retain(|w| !(w.domain == caller && w.prefix == prefix && w.token == token));
    }

    /// Drain the queued watch events for `caller`.
    pub fn take_events(&mut self, caller: DomainId) -> Vec<WatchEvent> {
        self.pending.remove(&caller).unwrap_or_default()
    }

    fn fire_watches(&mut self, changed: &str) {
        for w in &self.watches {
            let hit = changed == w.prefix
                || changed.starts_with(&format!("{}/", w.prefix))
                || w.prefix == "/";
            if hit {
                self.pending.entry(w.domain).or_default().push(WatchEvent {
                    path: changed.to_string(),
                    token: w.token.clone(),
                });
            }
        }
    }

    /// Whether `path` exists (no permission check — existence is cheap to
    /// probe in real xenstored too).
    pub fn exists(&self, path: &str) -> bool {
        self.nodes.contains_key(path)
    }

    // ---- transactions (xenstored optimistic concurrency) -------------------

    fn version_of(&self, path: &str) -> u64 {
        self.versions.get(path).copied().unwrap_or(0)
    }

    fn bump_version(&mut self, path: &str) {
        *self.versions.entry(path.to_string()).or_insert(0) += 1;
    }

    /// Begin a transaction for `caller`; returns its id.
    pub fn txn_begin(&mut self, caller: DomainId) -> u32 {
        self.next_txn += 1;
        let id = self.next_txn;
        self.txns.insert(id, Txn { caller, reads: BTreeMap::new(), writes: Vec::new() });
        id
    }

    /// Read within a transaction: sees the transaction's own buffered
    /// writes, records the read for commit-time validation.
    pub fn txn_read(&mut self, id: u32, path: &str) -> Result<Vec<u8>> {
        validate_path(path)?;
        let txn = self.txns.get(&id).ok_or_else(|| XenError::BadPath("no such txn".into()))?;
        let caller = txn.caller;
        // Own buffered write wins (read-your-writes).
        if let Some((_, buffered)) =
            txn.writes.iter().rev().find(|(p, _)| p == path)
        {
            return match buffered {
                Some(v) => Ok(v.clone()),
                None => Err(XenError::NoSuchPath(path.to_string())),
            };
        }
        let version = self.version_of(path);
        let result = self.read(caller, path);
        let txn = self.txns.get_mut(&id).expect("checked");
        txn.reads.insert(path.to_string(), version);
        result
    }

    /// Buffer a write within a transaction (validated at commit).
    pub fn txn_write(&mut self, id: u32, path: &str, value: &[u8]) -> Result<()> {
        validate_path(path)?;
        let txn = self.txns.get_mut(&id).ok_or_else(|| XenError::BadPath("no such txn".into()))?;
        txn.writes.push((path.to_string(), Some(value.to_vec())));
        Ok(())
    }

    /// Buffer a removal within a transaction.
    pub fn txn_remove(&mut self, id: u32, path: &str) -> Result<()> {
        validate_path(path)?;
        let txn = self.txns.get_mut(&id).ok_or_else(|| XenError::BadPath("no such txn".into()))?;
        txn.writes.push((path.to_string(), None));
        Ok(())
    }

    /// Discard a transaction.
    pub fn txn_abort(&mut self, id: u32) {
        self.txns.remove(&id);
    }

    /// Commit: `Ok(true)` on success; `Ok(false)` when a concurrently
    /// committed write invalidated the read set (caller retries, as the
    /// xenstored protocol's EAGAIN demands). Permission errors surface as
    /// `Err` and abort the transaction.
    pub fn txn_commit(&mut self, id: u32) -> Result<bool> {
        let txn = self.txns.remove(&id).ok_or_else(|| XenError::BadPath("no such txn".into()))?;
        // Validate the read set.
        for (path, seen_version) in &txn.reads {
            if self.version_of(path) != *seen_version {
                return Ok(false); // EAGAIN
            }
        }
        // Apply the write set atomically (first permission failure rolls
        // back nothing because we pre-check all of them).
        for (path, value) in &txn.writes {
            let allowed = match self.nodes.get(path.as_str()) {
                Some(node) => node.perms.can_write(txn.caller),
                // Creation permission resolved by write() itself; probe
                // the nearest ancestor as write() will.
                None => true,
            };
            if !allowed && value.is_some() {
                return Err(XenError::PermissionDenied(path.clone()));
            }
        }
        for (path, value) in txn.writes {
            match value {
                Some(v) => self.write(txn.caller, &path, &v)?,
                None => {
                    // Removing an already-absent node inside a txn is a
                    // no-op, matching xenstored.
                    if self.nodes.contains_key(&path) {
                        self.remove(txn.caller, &path)?;
                    }
                }
            }
        }
        Ok(true)
    }

    /// Remove the entire `/local/domain/<id>` subtree plus every watch of a
    /// destroyed domain.
    pub fn purge_domain(&mut self, domain: DomainId) {
        let home = format!("/local/domain/{}", domain.0);
        let prefix = format!("{home}/");
        let doomed: Vec<String> = self
            .nodes
            .keys()
            .filter(|k| k.as_str() == home || k.starts_with(&prefix))
            .cloned()
            .collect();
        for k in doomed {
            self.nodes.remove(&k);
        }
        self.watches.retain(|w| w.domain != domain);
        self.pending.remove(&domain);
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
        assert_eq!(s.list(D0, "/a").unwrap(), vec!["b"]);
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
    fn list_children_only() {
        let mut s = store();
        s.write(D0, "/a/x", b"").unwrap();
        s.write(D0, "/a/y", b"").unwrap();
        s.write(D0, "/a/y/deep", b"").unwrap();
        s.write(D0, "/ab", b"").unwrap(); // sibling with shared prefix
        let mut kids = s.list(D0, "/a").unwrap();
        kids.sort();
        assert_eq!(kids, vec!["x", "y"]);
    }

    #[test]
    fn remove_subtree() {
        let mut s = store();
        s.write(D0, "/a/b/c", b"").unwrap();
        s.write(D0, "/a/b2", b"").unwrap();
        s.remove(D0, "/a/b").unwrap();
        assert!(!s.exists("/a/b"));
        assert!(!s.exists("/a/b/c"));
        assert!(s.exists("/a/b2"));
        assert!(matches!(s.remove(D0, "/a/b"), Err(XenError::NoSuchPath(_))));
    }

    #[test]
    fn root_cannot_be_removed() {
        let mut s = store();
        assert!(matches!(s.remove(D0, "/"), Err(XenError::BadPath(_))));
    }

    #[test]
    fn watches_fire_on_subtree_changes() {
        let mut s = store();
        s.watch(D0, "/local/domain/1", "tok").unwrap();
        s.write(D0, "/local/domain/1/device/vtpm/0", b"x").unwrap();
        s.write(D0, "/other", b"y").unwrap();
        let evs = s.take_events(D0);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].path, "/local/domain/1/device/vtpm/0");
        assert_eq!(evs[0].token, "tok");
        // Drained.
        assert!(s.take_events(D0).is_empty());
    }

    #[test]
    fn watches_fire_on_remove() {
        let mut s = store();
        s.write(D0, "/a/b", b"x").unwrap();
        s.watch(D1, "/a", "t").unwrap();
        // D1 needs read perm for nothing here: watches see paths, not values.
        s.remove(D0, "/a/b").unwrap();
        assert_eq!(s.take_events(D1).len(), 1);
    }

    #[test]
    fn unwatch_stops_events() {
        let mut s = store();
        s.watch(D0, "/a", "t").unwrap();
        s.unwatch(D0, "/a", "t");
        s.write(D0, "/a/b", b"x").unwrap();
        assert!(s.take_events(D0).is_empty());
    }

    #[test]
    fn purge_domain_clears_home_and_watches() {
        let mut s = store();
        s.write(D0, "/local/domain/1/device", b"x").unwrap();
        s.watch(D1, "/anything", "t").unwrap();
        s.purge_domain(D1);
        assert!(!s.exists("/local/domain/1"));
        s.write(D0, "/anything/below", b"x").unwrap();
        assert!(s.take_events(D1).is_empty());
    }

    #[test]
    fn txn_commit_applies_atomically() {
        let mut s = store();
        let t = s.txn_begin(D0);
        s.txn_write(t, "/a/x", b"1").unwrap();
        s.txn_write(t, "/a/y", b"2").unwrap();
        // Nothing visible before commit.
        assert!(!s.exists("/a/x"));
        assert!(s.txn_commit(t).unwrap());
        assert_eq!(s.read(D0, "/a/x").unwrap(), b"1");
        assert_eq!(s.read(D0, "/a/y").unwrap(), b"2");
    }

    #[test]
    fn txn_read_your_writes() {
        let mut s = store();
        s.write(D0, "/node", b"old").unwrap();
        let t = s.txn_begin(D0);
        assert_eq!(s.txn_read(t, "/node").unwrap(), b"old");
        s.txn_write(t, "/node", b"new").unwrap();
        assert_eq!(s.txn_read(t, "/node").unwrap(), b"new");
        // Outside the txn, still old.
        assert_eq!(s.read(D0, "/node").unwrap(), b"old");
        assert!(s.txn_commit(t).unwrap());
        assert_eq!(s.read(D0, "/node").unwrap(), b"new");
    }

    #[test]
    fn txn_conflict_detected() {
        let mut s = store();
        s.write(D0, "/counter", b"1").unwrap();
        let t = s.txn_begin(D0);
        s.txn_read(t, "/counter").unwrap();
        // A concurrent plain write lands first.
        s.write(D0, "/counter", b"2").unwrap();
        s.txn_write(t, "/counter", b"1+1").unwrap();
        assert_eq!(s.txn_commit(t).unwrap(), false, "EAGAIN: caller retries");
        // The concurrent value survived.
        assert_eq!(s.read(D0, "/counter").unwrap(), b"2");
        // Retry succeeds.
        let t2 = s.txn_begin(D0);
        s.txn_read(t2, "/counter").unwrap();
        s.txn_write(t2, "/counter", b"3").unwrap();
        assert!(s.txn_commit(t2).unwrap());
        assert_eq!(s.read(D0, "/counter").unwrap(), b"3");
    }

    #[test]
    fn txn_conflict_on_removed_node() {
        let mut s = store();
        s.write(D0, "/gone", b"x").unwrap();
        let t = s.txn_begin(D0);
        s.txn_read(t, "/gone").unwrap();
        s.remove(D0, "/gone").unwrap();
        s.txn_write(t, "/other", b"y").unwrap();
        assert_eq!(s.txn_commit(t).unwrap(), false);
    }

    #[test]
    fn txn_abort_discards() {
        let mut s = store();
        let t = s.txn_begin(D0);
        s.txn_write(t, "/never", b"x").unwrap();
        s.txn_abort(t);
        assert!(!s.exists("/never"));
        assert!(s.txn_commit(t).is_err(), "aborted txn id is dead");
    }

    #[test]
    fn txn_respects_permissions_at_commit() {
        let mut s = store();
        s.write(D0, "/secret", b"x").unwrap();
        let t = s.txn_begin(D1);
        s.txn_write(t, "/secret", b"overwrite").unwrap();
        assert!(matches!(s.txn_commit(t), Err(XenError::PermissionDenied(_))));
        assert_eq!(s.read(D0, "/secret").unwrap(), b"x");
    }

    #[test]
    fn txn_remove_buffered() {
        let mut s = store();
        s.write(D0, "/tmp", b"x").unwrap();
        let t = s.txn_begin(D0);
        s.txn_remove(t, "/tmp").unwrap();
        assert!(s.exists("/tmp"));
        assert!(matches!(s.txn_read(t, "/tmp"), Err(XenError::NoSuchPath(_))));
        assert!(s.txn_commit(t).unwrap());
        assert!(!s.exists("/tmp"));
    }

    #[test]
    fn independent_txns_on_disjoint_paths_both_commit() {
        let mut s = store();
        let t1 = s.txn_begin(D0);
        let t2 = s.txn_begin(D0);
        s.txn_write(t1, "/a", b"1").unwrap();
        s.txn_write(t2, "/b", b"2").unwrap();
        assert!(s.txn_commit(t1).unwrap());
        assert!(s.txn_commit(t2).unwrap());
        assert!(s.exists("/a") && s.exists("/b"));
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
