//! Monotonic counters (TPM_CreateCounter family).
//!
//! TPM 1.2 provides owner-created monotonic counters whose values can
//! only increase — the primitive behind rollback protection for sealed
//! databases and audit logs. The 1.2 PC-client profile allows only one
//! counter to be *active* (incrementable) per boot; we model that rule
//! because the vTPM migration path must preserve it.

use std::collections::BTreeMap;

use crate::types::DIGEST_LEN;

/// One counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counter {
    /// Current value.
    pub value: u32,
    /// Authorization secret for increment/release.
    pub auth: [u8; DIGEST_LEN],
    /// 4-byte label supplied at creation.
    pub label: [u8; 4],
}

/// Errors from counter operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterError {
    /// The handle names no counter.
    BadHandle,
    /// All counter slots are in use, no handle is left, or the counter
    /// is at its maximum value.
    NoSpace,
    /// A different counter is already active this boot.
    NotActive,
}

/// The counter table.
pub struct CounterStore {
    counters: BTreeMap<u32, Counter>,
    next_handle: u32,
    capacity: usize,
    /// The counter incremented first this boot; only it may increment
    /// again until the next startup.
    active: Option<u32>,
}

impl CounterStore {
    /// A store with `capacity` counters (1.2 chips: at least 4).
    pub fn new(capacity: usize) -> Self {
        CounterStore { counters: BTreeMap::new(), next_handle: 1, capacity, active: None }
    }

    /// Create a counter; returns its handle. Starts at 1 (per spec, the
    /// first increment of a new counter family starts above zero).
    /// Handles never wrap: `u32::MAX` is never issued, and create reports
    /// [`CounterError::NoSpace`] instead.
    pub fn create(&mut self, auth: [u8; DIGEST_LEN], label: [u8; 4]) -> Result<u32, CounterError> {
        if self.counters.len() >= self.capacity {
            return Err(CounterError::NoSpace);
        }
        let handle = self.next_handle;
        self.next_handle = handle.checked_add(1).ok_or(CounterError::NoSpace)?;
        self.counters.insert(handle, Counter { value: 1, auth, label });
        Ok(handle)
    }

    /// Increment; only one counter may be active per boot. A counter at
    /// `u32::MAX` is spent: it reports [`CounterError::NoSpace`] rather
    /// than wrap back to 0.
    pub fn increment(&mut self, handle: u32) -> Result<u32, CounterError> {
        let c = self.counters.get_mut(&handle).ok_or(CounterError::BadHandle)?;
        if self.active.is_some_and(|active| active != handle) {
            return Err(CounterError::NotActive);
        }
        c.value = c.value.checked_add(1).ok_or(CounterError::NoSpace)?;
        self.active = Some(handle);
        Ok(c.value)
    }

    /// Read the value (no authorization per spec).
    pub fn read(&self, handle: u32) -> Result<&Counter, CounterError> {
        self.counters.get(&handle).ok_or(CounterError::BadHandle)
    }

    /// Release (delete) a counter.
    pub fn release(&mut self, handle: u32) -> Result<(), CounterError> {
        self.counters.remove(&handle).map(|_| ()).ok_or(CounterError::BadHandle)?;
        if self.active == Some(handle) {
            self.active = None;
        }
        Ok(())
    }

    /// New boot: any counter may become the active one again. Values are
    /// retained (they are non-volatile).
    pub fn startup(&mut self) {
        self.active = None;
    }

    /// Handles currently defined.
    pub fn handles(&self) -> Vec<u32> {
        self.counters.keys().copied().collect()
    }

    /// Restore a counter verbatim (state deserialization). Handles stop
    /// below `u32::MAX`, as in [`CounterStore::create`], so `u32::MAX` is
    /// refused.
    pub fn restore(&mut self, handle: u32, counter: Counter) -> Result<(), CounterError> {
        let next = handle.checked_add(1).ok_or(CounterError::BadHandle)?;
        self.next_handle = self.next_handle.max(next);
        self.counters.insert(handle, counter);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> CounterStore {
        CounterStore::new(4)
    }

    #[test]
    fn create_read_increment() {
        let mut s = store();
        let h = s.create([1; 20], *b"log1").unwrap();
        assert_eq!(s.read(h).unwrap().value, 1);
        assert_eq!(s.increment(h).unwrap(), 2);
        assert_eq!(s.increment(h).unwrap(), 3);
        assert_eq!(s.read(h).unwrap().label, *b"log1");
    }

    #[test]
    fn one_active_counter_per_boot() {
        let mut s = store();
        let a = s.create([1; 20], *b"aaaa").unwrap();
        let b = s.create([2; 20], *b"bbbb").unwrap();
        s.increment(a).unwrap();
        assert_eq!(s.increment(b), Err(CounterError::NotActive));
        // After "reboot" the other counter can be chosen.
        s.startup();
        s.increment(b).unwrap();
        assert_eq!(s.increment(a), Err(CounterError::NotActive));
    }

    #[test]
    fn values_survive_startup() {
        let mut s = store();
        let h = s.create([1; 20], *b"keep").unwrap();
        s.increment(h).unwrap();
        s.startup();
        assert_eq!(s.read(h).unwrap().value, 2);
    }

    #[test]
    fn capacity_and_release() {
        let mut s = CounterStore::new(2);
        let a = s.create([0; 20], *b"aaaa").unwrap();
        let _b = s.create([0; 20], *b"bbbb").unwrap();
        assert_eq!(s.create([0; 20], *b"cccc"), Err(CounterError::NoSpace));
        s.release(a).unwrap();
        assert_eq!(s.release(a), Err(CounterError::BadHandle));
        s.create([0; 20], *b"cccc").unwrap();
        assert_eq!(s.handles().len(), 2);
    }

    #[test]
    fn releasing_active_counter_frees_the_boot_slot() {
        let mut s = store();
        let a = s.create([0; 20], *b"aaaa").unwrap();
        let b = s.create([0; 20], *b"bbbb").unwrap();
        s.increment(a).unwrap();
        s.release(a).unwrap();
        // b may now become active without a reboot.
        s.increment(b).unwrap();
    }

    #[test]
    fn restore_preserves_handles() {
        let mut s = store();
        let h = s.create([3; 20], *b"orig").unwrap();
        s.increment(h).unwrap();
        let c = s.read(h).unwrap().clone();
        let mut s2 = store();
        s2.restore(h, c.clone()).unwrap();
        assert_eq!(s2.read(h).unwrap().value, 2);
        // New handles don't collide.
        let h2 = s2.create([0; 20], *b"next").unwrap();
        assert_ne!(h, h2);
        // Handles stop below `u32::MAX`: refused, never wrapped.
        let mut s3 = store();
        assert_eq!(s3.restore(u32::MAX, c.clone()), Err(CounterError::BadHandle));
        s3.restore(u32::MAX - 1, c).unwrap();
        assert_eq!(s3.create([0; 20], *b"none"), Err(CounterError::NoSpace));
        // A restored value of `u32::MAX` is spent: it never wraps to 0.
        let spent = Counter { value: u32::MAX, auth: [0; 20], label: *b"full" };
        s3.restore(7, spent).unwrap();
        assert_eq!(s3.increment(7), Err(CounterError::NoSpace));
        assert_eq!(s3.read(7).unwrap().value, u32::MAX);
    }
}
