//! Machine memory: fixed-size frames with ownership and protection tags.
//!
//! This module is the root of the paper's threat model. Real Xen lets a
//! privileged Dom0 process map any guest frame (`xc_map_foreign_range`) and
//! dump it — that is the "CPU and memory dump software" the abstract cites.
//! We reproduce exactly that capability in [`MachineMemory::dump_frame`]
//! and its policy wrapper in the hypervisor: Dom0 can read every *normal*
//! frame in the machine; a frame tagged [`PageProtection::Protected`]
//! models memory the hypervisor withholds even from Dom0 (the mechanism
//! the paper's improvement relies on for its key material, AC3).
//!
//! A frame's 4 KiB page is allocated on first write: an allocated frame
//! nobody has written reads (and dumps) as zeros without holding any
//! host memory, so a host's footprint follows the frames its domains
//! actually touch, not its configured RAM. Allocation and free zero the
//! pages that exist, so every frame still reads "allocated zeroed,
//! scrubbed on free" byte for byte.

use crate::domain::DomainId;
use crate::error::{Result, XenError};

/// Bytes per page, as on x86 Xen.
pub const PAGE_SIZE: usize = 4096;

/// Protection tag of a machine frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageProtection {
    /// Ordinary RAM: mappable (and hence dumpable) by the privileged domain.
    Normal,
    /// Hypervisor-protected: no domain, not even Dom0, may map or dump it.
    /// Models the protected-memory facility the improved vTPM keeps its
    /// master keys in.
    Protected,
}

/// One machine frame. `data` is `None` until the first write; an absent
/// page reads as zeros.
struct Frame {
    data: Option<Box<[u8; PAGE_SIZE]>>,
    owner: DomainId,
    protection: PageProtection,
    allocated: bool,
}

impl Frame {
    fn free() -> Self {
        Frame {
            data: None,
            owner: DomainId::DOM0,
            protection: PageProtection::Normal,
            allocated: false,
        }
    }

    /// Zero the page, if one exists.
    fn scrub(&mut self) {
        if let Some(page) = &mut self.data {
            page.fill(0);
        }
    }
}

/// All machine memory of the simulated host.
///
/// Not internally synchronized: the hypervisor wraps it in a lock. Frame
/// numbers (`mfn`s) are indices into the frame table and are stable for the
/// lifetime of the host.
pub struct MachineMemory {
    frames: Vec<Frame>,
    free_list: Vec<usize>,
}

impl MachineMemory {
    /// A machine with `total_frames` frames of RAM.
    pub fn new(total_frames: usize) -> Self {
        let frames = (0..total_frames).map(|_| Frame::free()).collect();
        // Allocate low frames first for readability of tests/dumps.
        let free_list = (0..total_frames).rev().collect();
        MachineMemory { frames, free_list }
    }

    /// Frames remaining.
    pub fn free_frames(&self) -> usize {
        self.free_list.len()
    }

    /// Total frames in the machine.
    pub fn total_frames(&self) -> usize {
        self.frames.len()
    }

    /// Allocate one zeroed frame for `owner`.
    pub fn alloc_frame(&mut self, owner: DomainId) -> Result<usize> {
        let mfn = self.free_list.pop().ok_or(XenError::OutOfMemory)?;
        let f = &mut self.frames[mfn];
        f.scrub();
        f.owner = owner;
        f.protection = PageProtection::Normal;
        f.allocated = true;
        Ok(mfn)
    }

    /// Allocate `n` zeroed frames for `owner`; all-or-nothing.
    pub fn alloc_frames(&mut self, owner: DomainId, n: usize) -> Result<Vec<usize>> {
        if self.free_list.len() < n {
            return Err(XenError::OutOfMemory);
        }
        Ok((0..n).map(|_| self.alloc_frame(owner).expect("checked above")).collect())
    }

    /// Release a frame. The contents are scrubbed immediately, as Xen does
    /// for pages returned to the heap.
    pub fn free_frame(&mut self, mfn: usize) -> Result<()> {
        let f = self.frames.get_mut(mfn).ok_or(XenError::BadFrame)?;
        if !f.allocated {
            return Err(XenError::BadFrame);
        }
        f.scrub();
        f.allocated = false;
        f.protection = PageProtection::Normal;
        self.free_list.push(mfn);
        Ok(())
    }

    /// Owner of a frame.
    pub fn owner(&self, mfn: usize) -> Result<DomainId> {
        let f = self.frames.get(mfn).ok_or(XenError::BadFrame)?;
        if !f.allocated {
            return Err(XenError::BadFrame);
        }
        Ok(f.owner)
    }

    /// Protection tag of a frame.
    pub fn protection(&self, mfn: usize) -> Result<PageProtection> {
        let f = self.frames.get(mfn).ok_or(XenError::BadFrame)?;
        if !f.allocated {
            return Err(XenError::BadFrame);
        }
        Ok(f.protection)
    }

    /// Change the protection tag (hypervisor-internal operation).
    pub fn set_protection(&mut self, mfn: usize, prot: PageProtection) -> Result<()> {
        let f = self.frames.get_mut(mfn).ok_or(XenError::BadFrame)?;
        if !f.allocated {
            return Err(XenError::BadFrame);
        }
        f.protection = prot;
        Ok(())
    }

    /// Read `buf.len()` bytes at `offset` within frame `mfn` *as the owner
    /// or the hypervisor* — protection is not checked here; callers that
    /// act for another domain must check policy first.
    pub fn read(&self, mfn: usize, offset: usize, buf: &mut [u8]) -> Result<()> {
        let f = self.frames.get(mfn).ok_or(XenError::BadFrame)?;
        if !f.allocated || offset + buf.len() > PAGE_SIZE {
            return Err(XenError::BadFrame);
        }
        match &f.data {
            Some(page) => buf.copy_from_slice(&page[offset..offset + buf.len()]),
            None => buf.fill(0),
        }
        Ok(())
    }

    /// Write bytes at `offset` within frame `mfn` (same caveat as [`read`]).
    /// The frame's page is allocated here if this is its first write.
    ///
    /// [`read`]: MachineMemory::read
    pub fn write(&mut self, mfn: usize, offset: usize, data: &[u8]) -> Result<()> {
        let f = self.frames.get_mut(mfn).ok_or(XenError::BadFrame)?;
        if !f.allocated || offset + data.len() > PAGE_SIZE {
            return Err(XenError::BadFrame);
        }
        let page = f.data.get_or_insert_with(|| Box::new([0; PAGE_SIZE]));
        page[offset..offset + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Dump a frame *with protection enforced*: returns the 4 KiB contents
    /// (zeros for a frame never written) unless the frame is
    /// [`PageProtection::Protected`], which models the hypervisor refusing
    /// the foreign mapping.
    pub fn dump_frame(&self, mfn: usize) -> Result<[u8; PAGE_SIZE]> {
        let f = self.frames.get(mfn).ok_or(XenError::BadFrame)?;
        if !f.allocated {
            return Err(XenError::BadFrame);
        }
        if f.protection == PageProtection::Protected {
            return Err(XenError::ProtectedFrame);
        }
        Ok(f.data.as_deref().copied().unwrap_or([0; PAGE_SIZE]))
    }

    /// All allocated frame numbers owned by `owner`.
    pub fn frames_of(&self, owner: DomainId) -> Vec<usize> {
        self.frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.allocated && f.owner == owner)
            .map(|(i, _)| i)
            .collect()
    }

    /// All allocated frame numbers in the machine.
    pub fn all_allocated(&self) -> Vec<usize> {
        self.frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.allocated)
            .map(|(i, _)| i)
            .collect()
    }

    /// Frames that hold a page: the host memory the store commits.
    #[cfg(test)]
    fn pages_held(&self) -> usize {
        self.frames.iter().filter(|f| f.data.is_some()).count()
    }

    /// Transfer ownership of a frame (grant-transfer / ballooning path).
    pub fn transfer(&mut self, mfn: usize, to: DomainId) -> Result<()> {
        let f = self.frames.get_mut(mfn).ok_or(XenError::BadFrame)?;
        if !f.allocated {
            return Err(XenError::BadFrame);
        }
        f.owner = to;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D1: DomainId = DomainId(1);
    const D2: DomainId = DomainId(2);

    #[test]
    fn alloc_and_free_cycle() {
        let mut m = MachineMemory::new(4);
        assert_eq!(m.free_frames(), 4);
        let a = m.alloc_frame(D1).unwrap();
        let b = m.alloc_frame(D1).unwrap();
        assert_ne!(a, b);
        assert_eq!(m.free_frames(), 2);
        m.free_frame(a).unwrap();
        assert_eq!(m.free_frames(), 3);
        // Double free rejected.
        assert_eq!(m.free_frame(a), Err(XenError::BadFrame));
    }

    #[test]
    fn exhaustion() {
        let mut m = MachineMemory::new(2);
        m.alloc_frame(D1).unwrap();
        m.alloc_frame(D1).unwrap();
        assert_eq!(m.alloc_frame(D1), Err(XenError::OutOfMemory));
        // all-or-nothing bulk alloc
        let mut m2 = MachineMemory::new(3);
        assert_eq!(m2.alloc_frames(D1, 5), Err(XenError::OutOfMemory));
        assert_eq!(m2.free_frames(), 3, "failed bulk alloc must not leak frames");
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = MachineMemory::new(1);
        let f = m.alloc_frame(D1).unwrap();
        m.write(f, 100, b"hello").unwrap();
        let mut buf = [0u8; 5];
        m.read(f, 100, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn bounds_checked() {
        let mut m = MachineMemory::new(1);
        let f = m.alloc_frame(D1).unwrap();
        assert_eq!(m.write(f, PAGE_SIZE - 2, b"xyz"), Err(XenError::BadFrame));
        let mut buf = [0u8; 8];
        assert_eq!(m.read(f, PAGE_SIZE - 4, &mut buf), Err(XenError::BadFrame));
        assert_eq!(m.read(999, 0, &mut buf), Err(XenError::BadFrame));
    }

    #[test]
    fn frames_are_scrubbed_on_free_and_alloc() {
        let mut m = MachineMemory::new(1);
        let f = m.alloc_frame(D1).unwrap();
        m.write(f, 0, b"secret").unwrap();
        m.free_frame(f).unwrap();
        let f2 = m.alloc_frame(D2).unwrap();
        assert_eq!(f, f2, "single-frame machine reuses the frame");
        let mut buf = [0u8; 6];
        m.read(f2, 0, &mut buf).unwrap();
        assert_eq!(buf, [0; 6], "previous owner's data must be scrubbed");
    }

    #[test]
    fn protection_blocks_dump_but_not_owner_access() {
        let mut m = MachineMemory::new(1);
        let f = m.alloc_frame(D1).unwrap();
        m.write(f, 0, b"key material").unwrap();
        m.set_protection(f, PageProtection::Protected).unwrap();
        assert_eq!(m.dump_frame(f), Err(XenError::ProtectedFrame));
        // The hypervisor-mediated owner path still works.
        let mut buf = [0u8; 12];
        m.read(f, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"key material");
        // Back to normal -> dumpable again.
        m.set_protection(f, PageProtection::Normal).unwrap();
        let page = m.dump_frame(f).unwrap();
        assert_eq!(&page[..12], b"key material");
    }

    #[test]
    fn ownership_listing_and_transfer() {
        let mut m = MachineMemory::new(4);
        let a = m.alloc_frame(D1).unwrap();
        let _b = m.alloc_frame(D2).unwrap();
        let c = m.alloc_frame(D1).unwrap();
        let mut of1 = m.frames_of(D1);
        of1.sort_unstable();
        let mut expect = vec![a, c];
        expect.sort_unstable();
        assert_eq!(of1, expect);
        m.transfer(a, D2).unwrap();
        assert_eq!(m.owner(a).unwrap(), D2);
        assert_eq!(m.frames_of(D1), vec![c]);
    }

    #[test]
    fn protection_cleared_on_free() {
        let mut m = MachineMemory::new(1);
        let f = m.alloc_frame(D1).unwrap();
        m.set_protection(f, PageProtection::Protected).unwrap();
        m.free_frame(f).unwrap();
        let f2 = m.alloc_frame(D2).unwrap();
        assert_eq!(m.protection(f2).unwrap(), PageProtection::Normal);
    }

    #[test]
    fn unwritten_frame_reads_and_dumps_zeros_without_a_page() {
        let mut m = MachineMemory::new(2);
        let f = m.alloc_frame(D1).unwrap();
        let mut buf = [0xEEu8; 64];
        m.read(f, 100, &mut buf).unwrap();
        assert_eq!(buf, [0; 64]);
        assert_eq!(m.dump_frame(f).unwrap(), [0; PAGE_SIZE]);
        assert!(m.frames[f].data.is_none(), "reads and dumps commit no page");
        assert_eq!(m.pages_held(), 0);
    }

    #[test]
    fn written_freed_reallocated_frame_reads_zeros() {
        let mut m = MachineMemory::new(1);
        let f = m.alloc_frame(D1).unwrap();
        m.write(f, PAGE_SIZE - 6, b"secret").unwrap();
        m.free_frame(f).unwrap();
        let f2 = m.alloc_frame(D2).unwrap();
        assert_eq!(f, f2);
        assert_eq!(m.dump_frame(f2).unwrap(), [0; PAGE_SIZE]);
        let mut buf = [0xEEu8; 6];
        m.read(f2, PAGE_SIZE - 6, &mut buf).unwrap();
        assert_eq!(buf, [0; 6]);
    }

    #[test]
    fn protected_frame_with_a_page_refuses_dump() {
        let mut m = MachineMemory::new(2);
        let written = m.alloc_frame(D1).unwrap();
        let blank = m.alloc_frame(D1).unwrap();
        m.write(written, 0, b"k").unwrap();
        assert!(m.frames[written].data.is_some());
        for f in [written, blank] {
            m.set_protection(f, PageProtection::Protected).unwrap();
            assert_eq!(m.dump_frame(f), Err(XenError::ProtectedFrame));
        }
    }

    #[test]
    fn pages_held_counts_distinct_frames_written() {
        let mut m = MachineMemory::new(8);
        let frames = m.alloc_frames(D1, 6).unwrap();
        for &f in &frames[..3] {
            m.write(f, 0, b"a").unwrap();
            m.write(f, 9, b"b").unwrap();
        }
        m.write(frames[0], 1, b"again").unwrap();
        let mut buf = [0u8; 4];
        m.read(frames[4], 0, &mut buf).unwrap();
        assert_eq!(m.pages_held(), 3);

        let hv = crate::hypervisor::Hypervisor::boot(8192, 32).unwrap();
        assert_eq!(hv.with_memory(|m| m.pages_held()), 0, "booting writes no frame");
    }
}
