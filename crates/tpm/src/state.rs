//! TPM state (de)serialization.
//!
//! A vTPM instance *is* a TPM whose lifetime outlives any single host
//! boot: the manager must snapshot its permanent state (ownership, EK,
//! SRK, PCRs, NV) to persist or migrate it, and rebuild an identical TPM
//! later. Transient state (loaded keys, sessions) is deliberately not
//! captured — real TPMs lose it at power-off too.
//!
//! The snapshot contains private key material in the clear. Whether those
//! bytes ever touch dumpable memory is exactly the difference between the
//! baseline vTPM manager and the paper's improved one (AC3).

use tpm_crypto::bignum::BigUint;
use tpm_crypto::rsa::{RsaPrivateKey, RsaPublicKey, E};

use crate::buffer::{BufError, Reader, Writer};
use crate::keys::LoadedKey;
use crate::nv::{NvArea, NvAttributes};
use crate::pcr::{PcrBank, PcrSelection};
use crate::tpm::Tpm;
use crate::types::{KeyUsage, DIGEST_LEN, NUM_PCRS};

/// Magic + version prefix of the snapshot format.
const MAGIC: &[u8; 4] = b"VTS1";

/// Errors from snapshot parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateError {
    /// Bad magic/version, truncated or trailing data, or a field outside
    /// the canonical form [`Tpm::serialize_state`] writes.
    Malformed,
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed TPM state snapshot")
    }
}

impl std::error::Error for StateError {}

impl From<BufError> for StateError {
    fn from(_: BufError) -> Self {
        StateError::Malformed
    }
}

fn write_private_key(w: &mut Writer, key: &RsaPrivateKey) {
    w.sized_u32(&key.p.to_bytes_be());
    w.sized_u32(&key.public.n.to_bytes_be());
}

fn read_private_key(r: &mut Reader) -> Result<RsaPrivateKey, StateError> {
    let p = read_int(r)?;
    let n = read_int(r)?;
    rebuild(p, n).ok_or(StateError::Malformed)
}

/// A nonzero key integer in minimal big-endian form: no leading zero
/// byte, as `BigUint::to_bytes_be` writes it.
fn read_int(r: &mut Reader) -> Result<BigUint, StateError> {
    let bytes = r.sized_u32()?;
    match bytes.first() {
        Some(&top) if top != 0 => Ok(BigUint::from_bytes_be(bytes)),
        _ => Err(StateError::Malformed),
    }
}

/// A flag or presence byte: 0 or 1, nothing else.
fn read_bool(r: &mut Reader) -> Result<bool, StateError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(StateError::Malformed),
    }
}

/// The next index of a strictly ascending sequence, as the snapshot's
/// ordered maps write them: a repeat or a step back is malformed.
fn read_ascending(r: &mut Reader, last: &mut Option<u32>) -> Result<u32, StateError> {
    let v = r.u32()?;
    if last.is_some_and(|l| v <= l) {
        return Err(StateError::Malformed);
    }
    *last = Some(v);
    Ok(v)
}

fn rebuild(p: BigUint, n: BigUint) -> Option<RsaPrivateKey> {
    if p.is_zero() || n.is_zero() {
        return None;
    }
    let (q, rem) = n.div_rem(&p);
    if !rem.is_zero() {
        return None;
    }
    let one = BigUint::one();
    let e = BigUint::from_u64(E);
    let p1 = p.checked_sub(&one)?;
    let q1 = q.checked_sub(&one)?;
    let phi = p1.mul(&q1);
    let d = e.mod_inverse(&phi)?;
    let dp = d.rem(&p1);
    let dq = d.rem(&q1);
    let qinv = q.mod_inverse(&p)?;
    Some(RsaPrivateKey { public: RsaPublicKey { n, e }, d, p, q, dp, dq, qinv })
}

impl Tpm {
    /// Snapshot the permanent state to bytes.
    pub fn serialize_state(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(1024);
        w.bytes(MAGIC);
        w.u8(self.is_started() as u8);
        w.u8(self.is_owned() as u8);
        w.bytes(self.owner_auth_ref());
        w.bytes(self.tpm_proof_ref());
        write_private_key(&mut w, self.ek_ref());
        match self.srk_ref() {
            Some(srk) => {
                w.u8(1);
                write_private_key(&mut w, &srk.private);
                w.bytes(&srk.usage_auth);
            }
            None => {
                w.u8(0);
            }
        }
        for pcr in self.pcrs().snapshot() {
            w.bytes(pcr);
        }
        // NV areas.
        let indices = self.nv_ref().indices();
        w.u32(indices.len() as u32);
        for idx in indices {
            let area = self.nv_ref().area(idx).expect("listed");
            w.u32(idx);
            w.u32(area.size as u32);
            w.u8(area.attrs.owner_write as u8);
            w.u8(area.attrs.owner_read as u8);
            w.u8(area.attrs.write_once as u8);
            w.u8(area.written as u8);
            match &area.attrs.read_pcr {
                Some((sel, digest)) => {
                    w.u8(1);
                    w.bytes(&sel.encode());
                    w.bytes(digest);
                }
                None => {
                    w.u8(0);
                }
            }
            w.sized_u32(&area.data);
        }
        // Monotonic counters (non-volatile by definition).
        let counter_handles = self.counters_ref().handles();
        w.u32(counter_handles.len() as u32);
        for h in counter_handles {
            let c = self.counters_ref().read(h).expect("listed");
            w.u32(h);
            w.u32(c.value);
            w.bytes(&c.auth);
            w.bytes(&c.label);
        }
        w.into_vec()
    }

    /// Rebuild a TPM from a snapshot. `seed` re-seeds the DRBG (randomness
    /// is not part of permanent state).
    ///
    /// The bytes are untrusted (a Clear migration package, a cleartext
    /// mirror Dom0 can write), so only the canonical form is accepted:
    /// flag and presence bytes are 0 or 1, key integers minimal, NV
    /// indices and counter handles strictly ascending, a PCR selection
    /// the 3-byte bitmap [`PcrSelection::encode`] writes, and nothing
    /// after the last counter. Whatever decodes re-serializes to the
    /// same bytes.
    pub fn restore_state(data: &[u8], seed: &[u8], cfg: crate::tpm::TpmConfig) -> Result<Tpm, StateError> {
        let mut r = Reader::new(data);
        if r.bytes(4)? != MAGIC {
            return Err(StateError::Malformed);
        }
        let started = read_bool(&mut r)?;
        let owned = read_bool(&mut r)?;
        let owner_auth: [u8; DIGEST_LEN] = r.digest()?;
        let tpm_proof: [u8; DIGEST_LEN] = r.digest()?;
        let ek = read_private_key(&mut r)?;
        let srk = if read_bool(&mut r)? {
            let private = read_private_key(&mut r)?;
            let usage_auth = r.digest()?;
            Some(LoadedKey { usage: KeyUsage::Storage, private, usage_auth, pcr_binding: None })
        } else {
            None
        };
        let mut pcr_values = [[0u8; DIGEST_LEN]; NUM_PCRS];
        for v in pcr_values.iter_mut() {
            *v = r.digest()?;
        }
        let pcrs = PcrBank::restore(pcr_values);

        let mut tpm = Tpm::from_parts(
            cfg, seed, started, owned, owner_auth, tpm_proof, ek, srk, pcrs,
        );

        let n_areas = r.u32()?;
        let mut last_idx = None;
        for _ in 0..n_areas {
            let idx = read_ascending(&mut r, &mut last_idx)?;
            let size = r.u32()? as usize;
            let owner_write = read_bool(&mut r)?;
            let owner_read = read_bool(&mut r)?;
            let write_once = read_bool(&mut r)?;
            let written = read_bool(&mut r)?;
            let read_pcr = if read_bool(&mut r)? {
                let encoded = r.bytes(5)?;
                let (sel, _) = PcrSelection::decode(encoded).ok_or(StateError::Malformed)?;
                if sel.encode() != encoded {
                    return Err(StateError::Malformed);
                }
                Some((sel, r.digest()?))
            } else {
                None
            };
            let area_data = r.sized_u32()?.to_vec();
            if area_data.len() != size {
                return Err(StateError::Malformed);
            }
            tpm.nv_mut().restore_area(
                idx,
                NvArea {
                    size,
                    attrs: NvAttributes { owner_write, owner_read, read_pcr, write_once },
                    data: area_data,
                    written,
                },
            );
        }
        let n_counters = r.u32()?;
        let mut last_handle = None;
        for _ in 0..n_counters {
            let h = read_ascending(&mut r, &mut last_handle)?;
            let value = r.u32()?;
            let auth = r.digest()?;
            let label: [u8; 4] = r.bytes(4)?.try_into().expect("4 bytes");
            tpm.counters_mut()
                .restore(h, crate::counter::Counter { value, auth, label })
                .map_err(|_| StateError::Malformed)?;
        }
        if r.remaining() != 0 {
            return Err(StateError::Malformed);
        }
        Ok(tpm)
    }
}

#[cfg(test)]
mod tests {
    use crate::client::{DirectTransport, TpmClient};
    use crate::tpm::{Tpm, TpmConfig};
    use crate::types::handle;

    const OWNER: [u8; 20] = [1; 20];
    const SRK_AUTH: [u8; 20] = [2; 20];

    #[test]
    fn snapshot_roundtrip_preserves_seal() {
        let mut tpm = Tpm::new(b"state-seal");
        let blob = {
            let mut c = TpmClient::new(DirectTransport { tpm: &mut tpm, locality: 0 }, b"c");
            c.startup_clear().unwrap();
            c.take_ownership(&OWNER, &SRK_AUTH).unwrap();
            c.extend(4, &[9; 20]).unwrap();
            c.seal(handle::SRK, &SRK_AUTH, &[5; 20], None, b"survives").unwrap()
        };
        let snap = tpm.serialize_state();

        // Rebuild on a "different host".
        let mut tpm2 = Tpm::restore_state(&snap, b"new-seed", TpmConfig::default()).unwrap();
        assert!(tpm2.is_owned());
        assert_eq!(tpm2.pcrs().read(4), tpm.pcrs().read(4));
        let mut c2 = TpmClient::new(DirectTransport { tpm: &mut tpm2, locality: 0 }, b"c2");
        // Resume (not clear!) keeps PCRs; sessions were transient anyway.
        c2.startup_state().unwrap();
        let out = c2.unseal(handle::SRK, &SRK_AUTH, &[5; 20], &blob).unwrap();
        assert_eq!(out, b"survives");
    }

    #[test]
    fn snapshot_of_unowned_tpm() {
        let tpm = Tpm::new(b"state-unowned");
        let snap = tpm.serialize_state();
        let tpm2 = Tpm::restore_state(&snap, b"s", TpmConfig::default()).unwrap();
        assert!(!tpm2.is_owned());
        assert!(!tpm2.is_started());
    }

    #[test]
    fn snapshot_preserves_nv() {
        let mut tpm = Tpm::new(b"state-nv");
        {
            let mut c = TpmClient::new(DirectTransport { tpm: &mut tpm, locality: 0 }, b"c");
            c.startup_clear().unwrap();
            c.take_ownership(&OWNER, &SRK_AUTH).unwrap();
            c.nv_define(&OWNER, 0x20, 16, 0x1).unwrap();
            c.nv_write(Some(&OWNER), 0x20, 0, b"nv-data").unwrap();
        }
        let snap = tpm.serialize_state();
        let mut tpm2 = Tpm::restore_state(&snap, b"s", TpmConfig::default()).unwrap();
        let mut c2 = TpmClient::new(DirectTransport { tpm: &mut tpm2, locality: 0 }, b"c2");
        c2.startup_state().unwrap();
        assert_eq!(c2.nv_read(Some(&OWNER), 0x20, 0, 7).unwrap(), b"nv-data");
    }

    #[test]
    fn snapshot_preserves_counters() {
        let mut tpm = Tpm::new(b"state-counter");
        let cauth = [7u8; 20];
        let id = {
            let mut c = TpmClient::new(DirectTransport { tpm: &mut tpm, locality: 0 }, b"c");
            c.startup_clear().unwrap();
            c.take_ownership(&OWNER, &SRK_AUTH).unwrap();
            let (id, _) = c.create_counter(&OWNER, &cauth, *b"ctr1").unwrap();
            c.increment_counter(id, &cauth).unwrap();
            id
        };
        let snap = tpm.serialize_state();
        let mut tpm2 = Tpm::restore_state(&snap, b"s", TpmConfig::default()).unwrap();
        let mut c2 = TpmClient::new(DirectTransport { tpm: &mut tpm2, locality: 0 }, b"c2");
        c2.startup_state().unwrap();
        let (label, value) = c2.read_counter(id).unwrap();
        assert_eq!(label, *b"ctr1");
        assert_eq!(value, 2, "monotonic value survives the snapshot");
        // And it still increments with the original auth.
        assert_eq!(c2.increment_counter(id, &cauth).unwrap(), 3);
    }

    #[test]
    fn garbage_rejected() {
        assert!(Tpm::restore_state(b"nonsense", b"s", TpmConfig::default()).is_err());
        assert!(Tpm::restore_state(b"", b"s", TpmConfig::default()).is_err());
        // Right magic, truncated body.
        assert!(Tpm::restore_state(b"VTS1\x01", b"s", TpmConfig::default()).is_err());
    }

    #[test]
    fn noncanonical_snapshots_refused() {
        let snap = Tpm::new(b"state-strict").serialize_state();
        let restore = |bytes: &[u8]| Tpm::restore_state(bytes, b"s", TpmConfig::default());
        assert!(restore(&snap).is_ok());
        // A trailing byte.
        let mut trailing = snap.clone();
        trailing.push(0);
        assert!(restore(&trailing).is_err());
        // A `started` flag byte of 2.
        let mut flag = snap.clone();
        flag[4] = 2;
        assert!(restore(&flag).is_err());
        // One counter at handle u32::MAX: no handle can follow it.
        let mut counter = snap[..snap.len() - 4].to_vec();
        counter.extend_from_slice(&1u32.to_be_bytes());
        counter.extend_from_slice(&u32::MAX.to_be_bytes());
        counter.extend_from_slice(&[0; 4 + 20 + 4]);
        assert!(restore(&counter).is_err());
        // The same counter one handle lower is accepted.
        let at = snap.len();
        counter[at..at + 4].copy_from_slice(&(u32::MAX - 1).to_be_bytes());
        assert!(restore(&counter).is_ok());
    }

    #[test]
    fn snapshot_differs_between_tpms() {
        let a = Tpm::new(b"tpm-a");
        let b = Tpm::new(b"tpm-b");
        assert_ne!(a.serialize_state(), b.serialize_state());
    }
}
