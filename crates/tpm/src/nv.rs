//! Non-volatile storage (TPM_NV_*).
//!
//! The vTPM manager uses NV space in the *hardware* TPM to root its
//! persistent state (the sealed symmetric key protecting the instance
//! database). Each area has an index, fixed size, and simplified
//! attributes: owner-write protection and an optional PCR read binding.

use std::collections::BTreeMap;

use crate::pcr::{PcrBank, PcrSelection};
use crate::types::DIGEST_LEN;

/// Attributes of an NV area.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NvAttributes {
    /// Writes require owner authorization.
    pub owner_write: bool,
    /// Reads require owner authorization.
    pub owner_read: bool,
    /// Optional PCR binding that must match for reads.
    pub read_pcr: Option<(PcrSelection, [u8; DIGEST_LEN])>,
    /// Write-once: after the first write the area locks.
    pub write_once: bool,
}

impl Default for NvAttributes {
    fn default() -> Self {
        NvAttributes { owner_write: true, owner_read: false, read_pcr: None, write_once: false }
    }
}

/// One defined NV area.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NvArea {
    /// Declared size in bytes.
    pub size: usize,
    /// Attributes.
    pub attrs: NvAttributes,
    /// Contents (zero-filled until written).
    pub data: Vec<u8>,
    /// Whether the area has been written (write_once locking).
    pub written: bool,
}

/// Errors from NV operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NvError {
    /// Index not defined / already defined.
    BadIndex,
    /// Offset+length outside the area.
    OutOfRange,
    /// Owner authorization required but absent.
    AuthRequired,
    /// PCR binding did not match.
    WrongPcr,
    /// Area is locked (write-once already written).
    Locked,
    /// Total NV budget exhausted.
    NoSpace,
}

/// The NV store.
pub struct NvStore {
    areas: BTreeMap<u32, NvArea>,
    budget: usize,
    used: usize,
}

impl NvStore {
    /// A store with `budget` total bytes (1.2 chips had ~1-2 KiB).
    pub fn new(budget: usize) -> Self {
        NvStore { areas: BTreeMap::new(), budget, used: 0 }
    }

    /// Define a new area. Fails if the index exists or budget is exceeded.
    pub fn define(&mut self, index: u32, size: usize, attrs: NvAttributes) -> Result<(), NvError> {
        if self.areas.contains_key(&index) {
            return Err(NvError::BadIndex);
        }
        if self.used + size > self.budget {
            return Err(NvError::NoSpace);
        }
        self.used += size;
        self.areas.insert(
            index,
            NvArea { size, attrs, data: vec![0; size], written: false },
        );
        Ok(())
    }

    /// Release an area (owner operation; caller enforces authorization).
    pub fn release(&mut self, index: u32) -> Result<(), NvError> {
        let area = self.areas.remove(&index).ok_or(NvError::BadIndex)?;
        self.used -= area.size;
        Ok(())
    }

    /// Write `data` at `offset`; `owner_authorized` says whether the
    /// caller proved owner auth.
    pub fn write(
        &mut self,
        index: u32,
        offset: usize,
        data: &[u8],
        owner_authorized: bool,
    ) -> Result<(), NvError> {
        let area = self.areas.get_mut(&index).ok_or(NvError::BadIndex)?;
        if area.attrs.owner_write && !owner_authorized {
            return Err(NvError::AuthRequired);
        }
        if area.attrs.write_once && area.written {
            return Err(NvError::Locked);
        }
        if offset + data.len() > area.size {
            return Err(NvError::OutOfRange);
        }
        area.data[offset..offset + data.len()].copy_from_slice(data);
        area.written = true;
        Ok(())
    }

    /// Read `len` bytes at `offset`, checking owner auth and PCR binding
    /// against the live bank.
    pub fn read(
        &self,
        index: u32,
        offset: usize,
        len: usize,
        owner_authorized: bool,
        pcrs: &PcrBank,
    ) -> Result<Vec<u8>, NvError> {
        let area = self.areas.get(&index).ok_or(NvError::BadIndex)?;
        if area.attrs.owner_read && !owner_authorized {
            return Err(NvError::AuthRequired);
        }
        if let Some((sel, digest)) = &area.attrs.read_pcr {
            if &pcrs.composite_hash(sel) != digest {
                return Err(NvError::WrongPcr);
            }
        }
        if offset + len > area.size {
            return Err(NvError::OutOfRange);
        }
        Ok(area.data[offset..offset + len].to_vec())
    }

    /// Defined indices.
    pub fn indices(&self) -> Vec<u32> {
        self.areas.keys().copied().collect()
    }

    /// Bytes of budget remaining.
    pub fn free_bytes(&self) -> usize {
        self.budget - self.used
    }

    /// Access an area record (state serialization).
    pub fn area(&self, index: u32) -> Option<&NvArea> {
        self.areas.get(&index)
    }

    /// Restore an area record verbatim (state deserialization).
    pub fn restore_area(&mut self, index: u32, area: NvArea) {
        self.used += area.size;
        self.areas.insert(index, area);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> PcrBank {
        PcrBank::new()
    }

    #[test]
    fn define_write_read_cycle() {
        let mut nv = NvStore::new(1024);
        nv.define(1, 32, NvAttributes::default()).unwrap();
        nv.write(1, 0, b"hello", true).unwrap();
        assert_eq!(nv.read(1, 0, 5, false, &bank()).unwrap(), b"hello");
        // Unwritten tail reads zeros.
        assert_eq!(nv.read(1, 5, 3, false, &bank()).unwrap(), vec![0, 0, 0]);
    }

    #[test]
    fn duplicate_define_rejected() {
        let mut nv = NvStore::new(1024);
        nv.define(1, 32, NvAttributes::default()).unwrap();
        assert_eq!(nv.define(1, 16, NvAttributes::default()), Err(NvError::BadIndex));
    }

    #[test]
    fn budget_enforced_and_released() {
        let mut nv = NvStore::new(64);
        nv.define(1, 48, NvAttributes::default()).unwrap();
        assert_eq!(nv.define(2, 32, NvAttributes::default()), Err(NvError::NoSpace));
        assert_eq!(nv.free_bytes(), 16);
        nv.release(1).unwrap();
        nv.define(2, 64, NvAttributes::default()).unwrap();
        assert_eq!(nv.free_bytes(), 0);
    }

    #[test]
    fn owner_write_protection() {
        let mut nv = NvStore::new(128);
        nv.define(1, 16, NvAttributes::default()).unwrap();
        assert_eq!(nv.write(1, 0, b"x", false), Err(NvError::AuthRequired));
        nv.write(1, 0, b"x", true).unwrap();
        // A world-writable area.
        nv.define(
            2,
            16,
            NvAttributes { owner_write: false, ..Default::default() },
        )
        .unwrap();
        nv.write(2, 0, b"y", false).unwrap();
    }

    #[test]
    fn owner_read_protection() {
        let mut nv = NvStore::new(128);
        nv.define(
            1,
            16,
            NvAttributes { owner_read: true, ..Default::default() },
        )
        .unwrap();
        nv.write(1, 0, b"secret", true).unwrap();
        assert_eq!(nv.read(1, 0, 6, false, &bank()), Err(NvError::AuthRequired));
        assert_eq!(nv.read(1, 0, 6, true, &bank()).unwrap(), b"secret");
    }

    #[test]
    fn pcr_bound_read() {
        let mut pcrs = bank();
        let sel = PcrSelection::of(&[4]);
        let digest = pcrs.composite_hash(&sel);
        let mut nv = NvStore::new(128);
        nv.define(
            1,
            16,
            NvAttributes { read_pcr: Some((sel, digest)), owner_write: false, ..Default::default() },
        )
        .unwrap();
        nv.write(1, 0, b"bound", false).unwrap();
        // Matches while PCR 4 untouched.
        assert_eq!(nv.read(1, 0, 5, false, &pcrs).unwrap(), b"bound");
        // Extend PCR 4 -> read refused.
        pcrs.extend(4, &[1; 20]).unwrap();
        assert_eq!(nv.read(1, 0, 5, false, &pcrs), Err(NvError::WrongPcr));
    }

    #[test]
    fn write_once_locks() {
        let mut nv = NvStore::new(128);
        nv.define(
            1,
            16,
            NvAttributes { write_once: true, ..Default::default() },
        )
        .unwrap();
        nv.write(1, 0, b"first", true).unwrap();
        assert_eq!(nv.write(1, 0, b"again", true), Err(NvError::Locked));
        assert_eq!(nv.read(1, 0, 5, false, &bank()).unwrap(), b"first");
    }

    #[test]
    fn bounds_checked() {
        let mut nv = NvStore::new(128);
        nv.define(1, 8, NvAttributes::default()).unwrap();
        assert_eq!(nv.write(1, 6, b"abc", true), Err(NvError::OutOfRange));
        assert_eq!(nv.read(1, 6, 3, false, &bank()), Err(NvError::OutOfRange));
        assert_eq!(nv.write(9, 0, b"a", true), Err(NvError::BadIndex));
    }

    #[test]
    fn restore_roundtrip() {
        let mut nv = NvStore::new(128);
        nv.define(7, 8, NvAttributes::default()).unwrap();
        nv.write(7, 0, b"persist", true).unwrap();
        let area = nv.area(7).unwrap().clone();
        let mut nv2 = NvStore::new(128);
        nv2.restore_area(7, area);
        assert_eq!(nv2.read(7, 0, 7, false, &bank()).unwrap(), b"persist");
        assert_eq!(nv2.free_bytes(), 120);
    }
}
