//! The hypervisor: one value tying together memory, domains, grants,
//! event channels and XenStore, with Xen's privilege rules enforced at
//! the API boundary.
//!
//! The struct is internally synchronized (fine-grained locks per
//! subsystem) so `Arc<Hypervisor>` can be shared by frontend threads, the
//! multi-threaded vTPM manager, and attacker threads concurrently — the
//! concurrency shape of a real host.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

use parking_lot::{Mutex, RwLock};

use crate::clock::VirtualClock;
use crate::domain::{Domain, DomainConfig, DomainId, DomainState};
use crate::error::{Result, XenError};
use crate::event::EventChannels;
use crate::fault::{FaultState, RingFault, WriteCrash};
use crate::grant::{GrantAccess, GrantRef, GrantTables};
use crate::memory::{MachineMemory, PageProtection, PAGE_SIZE};
use crate::xenstore::{Perms, XenStore};

/// One dumped frame: (mfn, owner, contents).
pub type DumpedFrame = (usize, DomainId, Box<[u8; PAGE_SIZE]>);

/// One recorded use of the dump facility. Real hypervisors leave a
/// trace of `xc_map_foreign_range` in `xl dmesg`; this is the simulated
/// equivalent — the structural signal the sentinel's dump-signature
/// detector keys on. Ordinary guest/manager traffic never dumps, so any
/// entry with `foreign_frames > 0` is a cross-domain memory read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DumpEvent {
    /// Virtual time of the call.
    pub at_ns: u64,
    /// Domain that invoked the dump.
    pub caller: DomainId,
    /// Frames returned in total.
    pub frames: u64,
    /// Frames owned by a domain other than the caller (Dom0's
    /// foreign-mapping reach; always 0 for a plain guest).
    pub foreign_frames: u64,
}

/// The simulated host.
pub struct Hypervisor {
    /// Virtual time for this host.
    pub clock: VirtualClock,
    /// Event channels (already internally shared).
    pub events: EventChannels,
    memory: RwLock<MachineMemory>,
    domains: RwLock<HashMap<DomainId, Domain>>,
    grants: Mutex<GrantTables>,
    xenstore: Mutex<XenStore>,
    next_domid: AtomicU32,
    /// Injected-fault state (chaos harness); `faults_armed` keeps the
    /// write hot path lock-free while nothing is armed.
    fault: Mutex<FaultState>,
    faults_armed: AtomicBool,
    /// Monotonic count of attempted Dom0 `page_write` calls. The crash
    /// harness uses deltas of this to enumerate "between any two mirror
    /// page writes" crash points.
    dom0_writes: AtomicU64,
    /// Every use of the dump facility, in call order (see [`DumpEvent`]).
    dump_log: Mutex<Vec<DumpEvent>>,
}

impl Hypervisor {
    /// Boot a host with `total_frames` frames of RAM. Dom0 is created
    /// automatically with `dom0_pages` pages.
    pub fn boot(total_frames: usize, dom0_pages: usize) -> Result<Self> {
        let hv = Hypervisor {
            clock: VirtualClock::new(),
            events: EventChannels::new(),
            memory: RwLock::new(MachineMemory::new(total_frames)),
            domains: RwLock::new(HashMap::new()),
            grants: Mutex::new(GrantTables::new()),
            xenstore: Mutex::new(XenStore::new()),
            next_domid: AtomicU32::new(1),
            fault: Mutex::new(FaultState::default()),
            faults_armed: AtomicBool::new(false),
            dom0_writes: AtomicU64::new(0),
            dump_log: Mutex::new(Vec::new()),
        };
        let frames = hv.memory.write().alloc_frames(DomainId::DOM0, dom0_pages)?;
        hv.domains.write().insert(
            DomainId::DOM0,
            Domain {
                id: DomainId::DOM0,
                name: "Domain-0".to_string(),
                state: DomainState::Running,
                frames,
            },
        );
        hv.xenstore.lock().write(DomainId::DOM0, "/local/domain/0/name", b"Domain-0")?;
        Ok(hv)
    }

    fn require_dom0(&self, caller: DomainId) -> Result<()> {
        if caller.is_dom0() {
            Ok(())
        } else {
            Err(XenError::NotPrivileged(caller))
        }
    }

    fn require_alive(&self, id: DomainId) -> Result<()> {
        let domains = self.domains.read();
        let d = domains.get(&id).ok_or(XenError::NoSuchDomain(id))?;
        if d.is_alive() {
            Ok(())
        } else {
            Err(XenError::BadDomainState(id, "not alive"))
        }
    }

    // ---- domain lifecycle -------------------------------------------------

    /// Create a guest domain (Dom0-only, like the toolstack).
    ///
    /// The name check and the insert happen under one `domains` write
    /// lock, taken after the memory lock (the order `alloc_pages` uses),
    /// so two concurrent creates with one name cannot both succeed.
    pub fn create_domain(&self, caller: DomainId, cfg: DomainConfig) -> Result<DomainId> {
        self.require_dom0(caller)?;
        let mut mem = self.memory.write();
        let mut domains = self.domains.write();
        if domains.values().any(|d| d.name == cfg.name) {
            return Err(XenError::BadDomainState(DomainId(0), "duplicate name"));
        }
        let id = DomainId(self.next_domid.fetch_add(1, Ordering::Relaxed));
        let frames = mem.alloc_frames(id, cfg.memory_pages)?;
        drop(mem);
        domains.insert(
            id,
            Domain { id, name: cfg.name.clone(), state: DomainState::Running, frames },
        );
        drop(domains);
        // Provision the XenStore home directory, owned by the guest.
        let mut xs = self.xenstore.lock();
        let home = format!("/local/domain/{}", id.0);
        xs.write(DomainId::DOM0, &home, b"")?;
        xs.set_perms(DomainId::DOM0, &home, Perms::private(id))?;
        xs.write(DomainId::DOM0, &format!("{home}/name"), cfg.name.as_bytes())?;
        Ok(id)
    }

    /// Destroy a domain: frames scrubbed and freed, grants severed, event
    /// channels closed, XenStore home removed.
    pub fn destroy_domain(&self, caller: DomainId, id: DomainId) -> Result<()> {
        self.require_dom0(caller)?;
        if id.is_dom0() {
            return Err(XenError::BadDomainState(id, "cannot destroy Dom0"));
        }
        let frames = {
            let mut domains = self.domains.write();
            let d = domains.get_mut(&id).ok_or(XenError::NoSuchDomain(id))?;
            d.state = DomainState::Dead;
            std::mem::take(&mut d.frames)
        };
        {
            let mut mem = self.memory.write();
            for mfn in frames {
                // Frames may have been grant-transferred away; ignore those.
                if mem.owner(mfn) == Ok(id) {
                    mem.free_frame(mfn)?;
                }
            }
        }
        self.grants.lock().purge_domain(id);
        self.events.purge_domain(id);
        self.xenstore.lock().purge_domain(id);
        self.domains.write().remove(&id);
        Ok(())
    }

    /// Snapshot of a domain record.
    pub fn domain_info(&self, id: DomainId) -> Result<Domain> {
        self.domains.read().get(&id).cloned().ok_or(XenError::NoSuchDomain(id))
    }

    // ---- memory -----------------------------------------------------------

    /// Allocate extra frames for `owner` (driver buffers etc.).
    pub fn alloc_pages(&self, owner: DomainId, n: usize) -> Result<Vec<usize>> {
        self.require_alive(owner)?;
        let frames = self.memory.write().alloc_frames(owner, n)?;
        self.domains.write().get_mut(&owner).expect("alive").frames.extend(&frames);
        Ok(frames)
    }

    /// Return `mfns` to the free pool: each is scrubbed and dropped from
    /// `owner`'s frame list. All-or-nothing: if any frame is not
    /// `owner`'s, or is listed twice, none is freed.
    pub fn free_pages(&self, owner: DomainId, mfns: &[usize]) -> Result<()> {
        // Memory before domains, the order `create_domain` takes them;
        // holding both keeps a concurrent `alloc_pages` from reusing a
        // freed frame before it leaves the frame list.
        let mut mem = self.memory.write();
        let mut domains = self.domains.write();
        let d = domains.get_mut(&owner).ok_or(XenError::NoSuchDomain(owner))?;
        for (i, &mfn) in mfns.iter().enumerate() {
            if mem.owner(mfn)? != owner || mfns[..i].contains(&mfn) {
                return Err(XenError::BadFrame);
            }
        }
        for &mfn in mfns {
            mem.free_frame(mfn)?;
        }
        d.frames.retain(|f| !mfns.contains(f));
        Ok(())
    }

    /// Write into a frame as `caller`; the frame must be owned by the
    /// caller (mapped-grant writes go through [`Hypervisor::grant_write`]).
    pub fn page_write(&self, caller: DomainId, mfn: usize, off: usize, data: &[u8]) -> Result<()> {
        if caller.is_dom0() {
            self.dom0_writes.fetch_add(1, Ordering::Relaxed);
        }
        if self.faults_armed.load(Ordering::Relaxed) {
            self.check_write_fault(caller)?;
        }
        let mut mem = self.memory.write();
        if mem.owner(mfn)? != caller {
            return Err(XenError::BadFrame);
        }
        mem.write(mfn, off, data)
    }

    /// Consult the armed faults before performing a write as `caller`.
    fn check_write_fault(&self, caller: DomainId) -> Result<()> {
        let mut fault = self.fault.lock();
        if fault.crashed == Some(caller) {
            return Err(XenError::Injected("domain crashed"));
        }
        if let Some(wc) = &mut fault.write_crash {
            if wc.domain == caller {
                if wc.remaining == 0 {
                    fault.crashed = Some(caller);
                    fault.write_crash = None;
                    return Err(XenError::Injected("write crash tripped"));
                }
                wc.remaining -= 1;
            }
        }
        Ok(())
    }

    // ---- fault injection (chaos harness hooks) -----------------------------

    /// Arm a write-crash: `after_writes` more `page_write` calls by
    /// `domain` succeed, then every further write by it fails with
    /// [`XenError::Injected`] until [`Hypervisor::clear_faults`]. Models a
    /// process crash between two mirror page writes: memory keeps exactly
    /// the writes that landed before the trip point.
    pub fn inject_write_crash(&self, domain: DomainId, after_writes: u64) {
        let mut fault = self.fault.lock();
        fault.write_crash = Some(WriteCrash { domain, remaining: after_writes });
        self.faults_armed.store(true, Ordering::Relaxed);
    }

    /// Whether an armed write-crash has tripped (the domain is "dead").
    pub fn fault_crashed(&self) -> bool {
        self.faults_armed.load(Ordering::Relaxed) && self.fault.lock().crashed.is_some()
    }

    /// Queue a one-shot ring fault for the split-driver backend to
    /// consume before sending its next response.
    pub fn inject_ring_fault(&self, f: RingFault) {
        let mut fault = self.fault.lock();
        fault.ring.push_back(f);
        self.faults_armed.store(true, Ordering::Relaxed);
    }

    /// Backend hook: take the next queued ring fault, if any.
    pub fn take_ring_fault(&self) -> Option<RingFault> {
        if !self.faults_armed.load(Ordering::Relaxed) {
            return None;
        }
        let mut fault = self.fault.lock();
        let f = fault.ring.pop_front();
        if !fault.any_armed() {
            self.faults_armed.store(false, Ordering::Relaxed);
        }
        f
    }

    /// Disarm every injected fault (the "restart" point of a crash test).
    pub fn clear_faults(&self) {
        let mut fault = self.fault.lock();
        *fault = FaultState::default();
        self.faults_armed.store(false, Ordering::Relaxed);
    }

    /// Attempted Dom0 `page_write` calls so far (monotonic). Harnesses
    /// diff this across a command to enumerate crash points.
    pub fn dom0_page_writes(&self) -> u64 {
        self.dom0_writes.load(Ordering::Relaxed)
    }

    /// XOR `xor` into frame `mfn` at `off`, bypassing ownership — the
    /// corruption fault (bit rot / a hostile process scribbling on the
    /// mirror). Protected frames remain untouchable, per the threat
    /// model. Not subject to write-crash faults: corruption is something
    /// that happens *to* memory, not an action of the crashed domain.
    pub fn corrupt_frame(&self, mfn: usize, off: usize, xor: &[u8]) -> Result<()> {
        let mut mem = self.memory.write();
        if mem.protection(mfn)? == PageProtection::Protected {
            return Err(XenError::ProtectedFrame);
        }
        let mut buf = vec![0u8; xor.len()];
        mem.read(mfn, off, &mut buf)?;
        for (b, x) in buf.iter_mut().zip(xor) {
            *b ^= x;
        }
        mem.write(mfn, off, &buf)
    }

    /// Read from a caller-owned frame.
    pub fn page_read(&self, caller: DomainId, mfn: usize, off: usize, buf: &mut [u8]) -> Result<()> {
        let mem = self.memory.read();
        if mem.owner(mfn)? != caller {
            return Err(XenError::BadFrame);
        }
        mem.read(mfn, off, buf)
    }

    /// Tag a frame hypervisor-protected (callable only by Dom0's trusted
    /// stub — in our model the vTPM manager — via this privileged call).
    pub fn protect_frame(&self, caller: DomainId, mfn: usize) -> Result<()> {
        self.require_dom0(caller)?;
        self.memory.write().set_protection(mfn, PageProtection::Protected)
    }

    /// Run `f` with shared access to machine memory. Drivers use this to
    /// operate rings without copying page-sized buffers through the API.
    pub fn with_memory<R>(&self, f: impl FnOnce(&MachineMemory) -> R) -> R {
        f(&self.memory.read())
    }

    /// Run `f` with exclusive access to machine memory.
    pub fn with_memory_mut<R>(&self, f: impl FnOnce(&mut MachineMemory) -> R) -> R {
        f(&mut self.memory.write())
    }

    // ---- the dump facility (the attack surface) ----------------------------

    /// Memory-dump as `caller` would see it.
    ///
    /// * Dom0 reads **every normal frame in the machine** — this is
    ///   `xc_map_foreign_range` / "memory dump software" from the abstract.
    /// * A guest reads only its own frames.
    /// * [`PageProtection::Protected`] frames are invisible to everyone.
    ///
    /// Returns `(mfn, owner, contents)` triples.
    pub fn dump_memory(&self, caller: DomainId) -> Result<Vec<DumpedFrame>> {
        self.require_alive(caller)?;
        let mem = self.memory.read();
        let mfns = if caller.is_dom0() { mem.all_allocated() } else { mem.frames_of(caller) };
        let mut out = Vec::with_capacity(mfns.len());
        for mfn in mfns {
            match mem.dump_frame(mfn) {
                Ok(page) => out.push((mfn, mem.owner(mfn)?, Box::new(page))),
                Err(XenError::ProtectedFrame) => continue,
                Err(e) => return Err(e),
            }
        }
        drop(mem);
        // Leave a trace: dumping is observable even when it succeeds,
        // so introspection tooling (the sentinel) can flag it after the
        // fact — the one thing the bare facility never offered.
        let foreign = out.iter().filter(|(_, owner, _)| *owner != caller).count() as u64;
        self.dump_log.lock().push(DumpEvent {
            at_ns: self.clock.now_ns(),
            caller,
            frames: out.len() as u64,
            foreign_frames: foreign,
        });
        Ok(out)
    }

    /// The dump trail, in call order. Empty on a host where nothing ever
    /// used the dump facility — the sentinel treats any entry not
    /// explained by a crash-recovery scan as a dump-attack signature.
    pub fn dump_events(&self) -> Vec<DumpEvent> {
        self.dump_log.lock().clone()
    }

    // ---- grants -----------------------------------------------------------

    /// `granter` grants `grantee` access to its frame `mfn`.
    pub fn grant(
        &self,
        granter: DomainId,
        grantee: DomainId,
        mfn: usize,
        access: GrantAccess,
    ) -> Result<GrantRef> {
        self.require_alive(granter)?;
        let mem = self.memory.read();
        if mem.owner(mfn)? != granter {
            return Err(XenError::BadFrame);
        }
        drop(mem);
        Ok(self.grants.lock().grant(granter, grantee, mfn, access))
    }

    /// Map a grant as `mapper`, returning the frame number.
    pub fn grant_map(&self, gref: GrantRef, mapper: DomainId) -> Result<usize> {
        self.require_alive(mapper)?;
        let (mfn, _access) = self.grants.lock().map(gref, mapper)?;
        Ok(mfn)
    }

    /// Unmap a grant.
    pub fn grant_unmap(&self, gref: GrantRef, mapper: DomainId) -> Result<()> {
        self.grants.lock().unmap(gref, mapper)
    }

    /// Revoke a grant (granter only; fails while mapped).
    pub fn grant_revoke(&self, gref: GrantRef, caller: DomainId) -> Result<()> {
        self.grants.lock().revoke(gref, caller)
    }

    /// Write through a mapped grant: verifies the grant names `caller` as
    /// grantee with write access.
    pub fn grant_write(&self, gref: GrantRef, caller: DomainId, off: usize, data: &[u8]) -> Result<()> {
        let mut grants = self.grants.lock();
        let (mfn, access) = grants.map(gref, caller)?;
        let result = if access == GrantAccess::ReadWrite {
            self.memory.write().write(mfn, off, data)
        } else {
            Err(XenError::BadGrant)
        };
        grants.unmap(gref, caller)?;
        result
    }

    /// Read through a mapped grant.
    pub fn grant_read(&self, gref: GrantRef, caller: DomainId, off: usize, buf: &mut [u8]) -> Result<()> {
        let mut grants = self.grants.lock();
        let (mfn, _access) = grants.map(gref, caller)?;
        let result = self.memory.read().read(mfn, off, buf);
        grants.unmap(gref, caller)?;
        result
    }

    // ---- XenStore ---------------------------------------------------------

    /// Write a XenStore node.
    pub fn xs_write(&self, caller: DomainId, path: &str, value: &[u8]) -> Result<()> {
        self.require_alive(caller)?;
        self.xenstore.lock().write(caller, path, value)
    }

    /// Read a XenStore node.
    pub fn xs_read(&self, caller: DomainId, path: &str) -> Result<Vec<u8>> {
        self.require_alive(caller)?;
        self.xenstore.lock().read(caller, path)
    }

    /// Read a XenStore node as a string.
    pub fn xs_read_string(&self, caller: DomainId, path: &str) -> Result<String> {
        self.require_alive(caller)?;
        self.xenstore.lock().read_string(caller, path)
    }

    /// Set node permissions.
    pub fn xs_set_perms(&self, caller: DomainId, path: &str, perms: Perms) -> Result<()> {
        self.xenstore.lock().set_perms(caller, path, perms)
    }

    /// Whether a path exists.
    pub fn xs_exists(&self, path: &str) -> bool {
        self.xenstore.lock().exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D0: DomainId = DomainId::DOM0;

    fn host() -> Hypervisor {
        Hypervisor::boot(256, 16).unwrap()
    }

    #[test]
    fn boot_creates_dom0() {
        let hv = host();
        let d0 = hv.domain_info(D0).unwrap();
        assert_eq!(d0.name, "Domain-0");
        assert_eq!(d0.frames.len(), 16);
        assert_eq!(hv.xs_read_string(D0, "/local/domain/0/name").unwrap(), "Domain-0");
    }

    #[test]
    fn create_and_destroy_guest() {
        let hv = host();
        let g = hv.create_domain(D0, DomainConfig::small("web1")).unwrap();
        assert_eq!(hv.domain_info(g).unwrap().state, DomainState::Running);
        assert!(hv.xs_exists(&format!("/local/domain/{}", g.0)));
        hv.destroy_domain(D0, g).unwrap();
        assert!(hv.domain_info(g).is_err());
        assert!(!hv.xs_exists(&format!("/local/domain/{}", g.0)));
    }

    #[test]
    fn guest_cannot_create_domains() {
        let hv = host();
        let g = hv.create_domain(D0, DomainConfig::small("g")).unwrap();
        assert_eq!(
            hv.create_domain(g, DomainConfig::small("evil")),
            Err(XenError::NotPrivileged(g))
        );
        assert_eq!(hv.destroy_domain(g, g), Err(XenError::NotPrivileged(g)));
    }

    #[test]
    fn duplicate_names_rejected() {
        let hv = host();
        hv.create_domain(D0, DomainConfig::small("web1")).unwrap();
        let free = hv.with_memory(|m| m.free_frames());
        assert!(hv.create_domain(D0, DomainConfig::small("web1")).is_err());
        assert_eq!(hv.with_memory(|m| m.free_frames()), free, "a refused create keeps no frames");
    }

    #[test]
    fn dom0_indestructible() {
        let hv = host();
        assert!(hv.destroy_domain(D0, D0).is_err());
    }

    #[test]
    fn page_rw_enforces_ownership() {
        let hv = host();
        let g = hv.create_domain(D0, DomainConfig::small("g")).unwrap();
        let gf = hv.domain_info(g).unwrap().frames[0];
        hv.page_write(g, gf, 0, b"mine").unwrap();
        let mut buf = [0u8; 4];
        hv.page_read(g, gf, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"mine");
        // Another guest can't touch it directly.
        let g2 = hv.create_domain(D0, DomainConfig::small("g2")).unwrap();
        assert_eq!(hv.page_write(g2, gf, 0, b"evil"), Err(XenError::BadFrame));
        assert_eq!(hv.page_read(g2, gf, 0, &mut buf), Err(XenError::BadFrame));
    }

    #[test]
    fn grant_flow_end_to_end() {
        let hv = host();
        let g = hv.create_domain(D0, DomainConfig::small("g")).unwrap();
        let gf = hv.domain_info(g).unwrap().frames[0];
        hv.page_write(g, gf, 0, b"shared-data").unwrap();
        let gref = hv.grant(g, D0, gf, GrantAccess::ReadWrite).unwrap();
        // Dom0 reads through the grant.
        let mut buf = [0u8; 11];
        hv.grant_read(gref, D0, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"shared-data");
        // And writes back.
        hv.grant_write(gref, D0, 0, b"written-back").unwrap();
        let mut buf2 = [0u8; 12];
        hv.page_read(g, gf, 0, &mut buf2).unwrap();
        assert_eq!(&buf2, b"written-back");
    }

    #[test]
    fn grant_requires_frame_ownership() {
        let hv = host();
        let g = hv.create_domain(D0, DomainConfig::small("g")).unwrap();
        let dom0_frame = hv.domain_info(D0).unwrap().frames[0];
        // Guest cannot grant a Dom0-owned frame.
        assert_eq!(
            hv.grant(g, D0, dom0_frame, GrantAccess::ReadOnly),
            Err(XenError::BadFrame)
        );
    }

    #[test]
    fn dump_semantics_by_privilege() {
        let hv = host();
        let g = hv.create_domain(D0, DomainConfig::small("g")).unwrap();
        let gf = hv.domain_info(g).unwrap().frames[0];
        hv.page_write(g, gf, 100, b"GUEST-SECRET").unwrap();

        // Dom0 dump sees the guest's page.
        let dump = hv.dump_memory(D0).unwrap();
        let found = dump.iter().any(|(_, owner, page)| {
            *owner == g && page.windows(12).any(|w| w == b"GUEST-SECRET")
        });
        assert!(found, "Dom0 dump must expose guest memory (the W3 baseline)");

        // The guest's own dump only covers its frames.
        let gdump = hv.dump_memory(g).unwrap();
        assert!(gdump.iter().all(|(_, owner, _)| *owner == g));

        // Protected frames disappear from the Dom0 dump.
        hv.protect_frame(D0, gf).unwrap();
        let dump2 = hv.dump_memory(D0).unwrap();
        assert!(dump2.iter().all(|(mfn, _, _)| *mfn != gf));
    }

    #[test]
    fn dump_calls_leave_an_introspectable_trail() {
        let hv = host();
        let g = hv.create_domain(D0, DomainConfig::small("g")).unwrap();
        assert!(hv.dump_events().is_empty(), "no dumps yet, no trail");

        hv.clock.advance_ns(1_000);
        let dump = hv.dump_memory(D0).unwrap();
        let guest_frames = dump.iter().filter(|(_, owner, _)| *owner == g).count() as u64;
        hv.dump_memory(g).unwrap();

        let events = hv.dump_events();
        assert_eq!(events.len(), 2);
        // Dom0's dump crossed domain boundaries; the guest's did not.
        assert_eq!(events[0].caller, D0);
        assert_eq!(events[0].at_ns, 1_000);
        assert_eq!(events[0].frames, dump.len() as u64);
        assert!(events[0].foreign_frames >= guest_frames && events[0].foreign_frames > 0);
        assert_eq!((events[1].caller, events[1].foreign_frames), (g, 0));
    }

    #[test]
    fn protect_frame_is_privileged() {
        let hv = host();
        let g = hv.create_domain(D0, DomainConfig::small("g")).unwrap();
        let gf = hv.domain_info(g).unwrap().frames[0];
        assert_eq!(hv.protect_frame(g, gf), Err(XenError::NotPrivileged(g)));
    }

    #[test]
    fn free_pages_returns_frames_to_the_pool() {
        let hv = host();
        let g = hv.create_domain(D0, DomainConfig::small("g")).unwrap();
        let free = hv.with_memory(|m| m.free_frames());
        let dom0 = hv.domain_info(D0).unwrap().frames.len();
        let mfns = hv.alloc_pages(D0, 3).unwrap();
        hv.page_write(D0, mfns[1], 0, b"left-behind").unwrap();
        // Refused whole: a frame of another owner, or one listed twice.
        let gf = hv.domain_info(g).unwrap().frames[0];
        assert_eq!(hv.free_pages(D0, &[mfns[0], gf]), Err(XenError::BadFrame));
        assert_eq!(hv.free_pages(D0, &[mfns[0], mfns[0]]), Err(XenError::BadFrame));
        assert_eq!(hv.with_memory(|m| m.free_frames()), free - 3);

        hv.free_pages(D0, &mfns).unwrap();
        assert_eq!(hv.with_memory(|m| m.free_frames()), free);
        assert_eq!(hv.domain_info(D0).unwrap().frames.len(), dom0);
        let again = hv.alloc_pages(g, 3).unwrap();
        for mfn in again {
            let mut buf = [0xEEu8; 11];
            hv.page_read(g, mfn, 0, &mut buf).unwrap();
            assert_eq!(buf, [0; 11], "a freed frame comes back zeroed");
        }
    }

    #[test]
    fn alloc_pages_grows_domain() {
        let hv = host();
        let g = hv.create_domain(D0, DomainConfig::small("g")).unwrap();
        let before = hv.domain_info(g).unwrap().frames.len();
        let newf = hv.alloc_pages(g, 4).unwrap();
        assert_eq!(newf.len(), 4);
        assert_eq!(hv.domain_info(g).unwrap().frames.len(), before + 4);
    }

    #[test]
    fn xenstore_via_hypervisor_respects_perms() {
        let hv = host();
        let g = hv.create_domain(D0, DomainConfig::small("g")).unwrap();
        let home = format!("/local/domain/{}", g.0);
        // Guest writes in its own home.
        hv.xs_write(g, &format!("{home}/data"), b"v").unwrap();
        // Another guest cannot read it.
        let g2 = hv.create_domain(D0, DomainConfig::small("g2")).unwrap();
        assert!(matches!(
            hv.xs_read(g2, &format!("{home}/data")),
            Err(XenError::PermissionDenied(_))
        ));
        // Dom0 can (the W1 surface).
        assert_eq!(hv.xs_read(D0, &format!("{home}/data")).unwrap(), b"v");
    }

    #[test]
    fn dead_domain_hypercalls_fail() {
        let hv = host();
        let g = hv.create_domain(D0, DomainConfig::small("g")).unwrap();
        hv.destroy_domain(D0, g).unwrap();
        assert!(hv.xs_write(g, "/x", b"v").is_err());
        assert!(hv.alloc_pages(g, 1).is_err());
        assert!(hv.dump_memory(g).is_err());
    }

    #[test]
    fn write_crash_trips_after_n_writes() {
        let hv = host();
        let mfn = hv.alloc_pages(D0, 1).unwrap()[0];
        hv.inject_write_crash(D0, 2);
        hv.page_write(D0, mfn, 0, b"one").unwrap();
        hv.page_write(D0, mfn, 0, b"two").unwrap();
        assert_eq!(
            hv.page_write(D0, mfn, 0, b"three"),
            Err(XenError::Injected("write crash tripped"))
        );
        assert!(hv.fault_crashed());
        // Stays dead until cleared.
        assert!(hv.page_write(D0, mfn, 0, b"four").is_err());
        hv.clear_faults();
        assert!(!hv.fault_crashed());
        hv.page_write(D0, mfn, 0, b"five").unwrap();
    }

    #[test]
    fn write_crash_scoped_to_domain() {
        let hv = host();
        let g = hv.create_domain(D0, DomainConfig::small("g")).unwrap();
        let gf = hv.domain_info(g).unwrap().frames[0];
        let d0f = hv.alloc_pages(D0, 1).unwrap()[0];
        hv.inject_write_crash(D0, 0);
        assert!(hv.page_write(D0, d0f, 0, b"x").is_err());
        // The guest is unaffected by Dom0's crash.
        hv.page_write(g, gf, 0, b"guest fine").unwrap();
    }

    #[test]
    fn ring_faults_queue_fifo() {
        let hv = host();
        assert_eq!(hv.take_ring_fault(), None);
        hv.inject_ring_fault(crate::fault::RingFault::Drop);
        hv.inject_ring_fault(crate::fault::RingFault::Duplicate);
        assert_eq!(hv.take_ring_fault(), Some(crate::fault::RingFault::Drop));
        assert_eq!(hv.take_ring_fault(), Some(crate::fault::RingFault::Duplicate));
        assert_eq!(hv.take_ring_fault(), None);
    }

    #[test]
    fn corrupt_frame_flips_bits_but_respects_protection() {
        let hv = host();
        let mfn = hv.alloc_pages(D0, 1).unwrap()[0];
        hv.page_write(D0, mfn, 10, &[0xAA]).unwrap();
        hv.corrupt_frame(mfn, 10, &[0xFF]).unwrap();
        let mut b = [0u8; 1];
        hv.page_read(D0, mfn, 10, &mut b).unwrap();
        assert_eq!(b[0], 0x55);
        hv.protect_frame(D0, mfn).unwrap();
        assert_eq!(hv.corrupt_frame(mfn, 10, &[0xFF]), Err(XenError::ProtectedFrame));
    }

    #[test]
    fn dom0_write_counter_monotonic() {
        let hv = host();
        let mfn = hv.alloc_pages(D0, 1).unwrap()[0];
        let before = hv.dom0_page_writes();
        hv.page_write(D0, mfn, 0, b"a").unwrap();
        hv.page_write(D0, mfn, 0, b"b").unwrap();
        assert_eq!(hv.dom0_page_writes(), before + 2);
    }

    #[test]
    fn concurrent_domain_creation_unique_ids() {
        use std::sync::Arc;
        let hv = Arc::new(host());
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let hv = Arc::clone(&hv);
                std::thread::spawn(move || {
                    hv.create_domain(D0, DomainConfig::small(&format!("t{i}"))).unwrap()
                })
            })
            .collect();
        let mut ids: Vec<DomainId> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8, "domain ids must be unique under concurrency");
    }
}
