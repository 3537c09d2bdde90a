//! The TPM 1.2 key hierarchy: the SRK at the root, storage keys wrapping
//! children, signing keys for quotes.
//!
//! A *wrapped key blob* is what leaves the TPM: public material in clear,
//! private material OAEP-encrypted to the parent storage key, so only a
//! TPM holding the parent can load it. The blob layout here is a
//! simplified-but-faithful TPM_KEY12: usage, public modulus/exponent,
//! optional PCR binding, and the encrypted private payload (prime p +
//! usageAuth). `q` is recovered as `n / p` at load time.

use std::collections::HashMap;

use tpm_crypto::bignum::BigUint;
use tpm_crypto::drbg::Drbg;
use tpm_crypto::rsa::{RsaPrivateKey, RsaPublicKey, E};

use crate::buffer::{BufError, Reader, Writer};
use crate::pcr::PcrSelection;
use crate::types::{KeyUsage, DIGEST_LEN};

/// OAEP label for key wrapping (the spec uses "TCPA" for all TPM OAEP).
pub const OAEP_LABEL: &[u8] = b"TCPA";

/// OAEP label that seals a blob's PCR `binding` into its ciphertext:
/// [`OAEP_LABEL`], then for a PCR-bound blob its selection and
/// digest-at-release. Wrapped keys and sealed data both use it, so a
/// blob whose clear binding was stripped or replaced fails to decrypt;
/// an unbound blob's label is exactly [`OAEP_LABEL`].
pub(crate) fn binding_label(binding: &Option<(PcrSelection, [u8; DIGEST_LEN])>) -> Vec<u8> {
    let mut label = OAEP_LABEL.to_vec();
    if let Some((sel, digest)) = binding {
        label.extend_from_slice(&sel.encode());
        label.extend_from_slice(digest);
    }
    label
}

/// A key loaded into a TPM slot.
#[derive(Clone)]
pub struct LoadedKey {
    /// What the key may be used for.
    pub usage: KeyUsage,
    /// Full private key (present because the key is loaded).
    pub private: RsaPrivateKey,
    /// Authorization secret required to use the key.
    pub usage_auth: [u8; DIGEST_LEN],
    /// Optional PCR binding: (selection, digest-at-release).
    pub pcr_binding: Option<(PcrSelection, [u8; DIGEST_LEN])>,
}

impl LoadedKey {
    /// The public half.
    pub fn public(&self) -> &RsaPublicKey {
        &self.private.public
    }
}

/// A wrapped key blob as produced by TPM_CreateWrapKey.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyBlob {
    /// Usage type.
    pub usage: KeyUsage,
    /// Public modulus.
    pub n: Vec<u8>,
    /// Optional PCR binding carried in the clear part, and bound into
    /// the OAEP label of `enc_private`: Quote and Sign with the loaded
    /// key require the current composite to equal its digest.
    pub pcr_binding: Option<(PcrSelection, [u8; DIGEST_LEN])>,
    /// OAEP ciphertext of the private payload, decryptable by the parent.
    pub enc_private: Vec<u8>,
}

impl KeyBlob {
    /// Serialize to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64 + self.n.len() + self.enc_private.len());
        w.u16(self.usage.to_u16());
        w.sized_u32(&self.n);
        w.u32(E as u32);
        encode_pcr_binding(&mut w, &self.pcr_binding);
        w.sized_u32(&self.enc_private);
        w.into_vec()
    }

    /// Parse from wire bytes, returning the blob and bytes consumed.
    pub fn decode(data: &[u8]) -> Result<(Self, usize), BufError> {
        let mut r = Reader::new(data);
        let usage = KeyUsage::from_u16(r.u16()?).ok_or(BufError::BadLength)?;
        let n = r.sized_u32()?.to_vec();
        let e = r.u32()?;
        if e != E as u32 {
            return Err(BufError::BadLength);
        }
        let pcr_binding = decode_pcr_binding(&mut r)?;
        let enc_private = r.sized_u32()?.to_vec();
        Ok((
            KeyBlob { usage, n, pcr_binding, enc_private },
            r.position(),
        ))
    }
}

/// Encode a blob's optional PCR binding: a presence byte, then the
/// selection and digest-at-release.
pub(crate) fn encode_pcr_binding(
    w: &mut Writer,
    binding: &Option<(PcrSelection, [u8; DIGEST_LEN])>,
) {
    match binding {
        Some((sel, digest)) => {
            w.u8(1);
            w.bytes(&sel.encode());
            w.bytes(digest);
        }
        None => {
            w.u8(0);
        }
    }
}

/// Decode a blob's optional PCR binding in the one form
/// [`encode_pcr_binding`] writes: a presence byte of 0 or 1 and a 3-byte
/// selection. Command parameters go through the lenient
/// [`PcrSelection::decode`] instead.
pub(crate) fn decode_pcr_binding(
    r: &mut Reader,
) -> Result<Option<(PcrSelection, [u8; DIGEST_LEN])>, BufError> {
    match r.u8()? {
        0 => Ok(None),
        1 => match PcrSelection::decode(r.bytes(5)?) {
            Some((sel, 5)) => Ok(Some((sel, r.digest()?))),
            _ => Err(BufError::BadLength),
        },
        _ => Err(BufError::BadLength),
    }
}

/// Errors from key operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyError {
    /// The blob failed to decrypt or parse under this parent.
    BadBlob,
    /// Loaded-key slots are exhausted.
    NoSpace,
    /// The handle names no loaded key.
    BadHandle,
    /// The parent key cannot wrap (not a storage key).
    NotStorageKey,
}

/// Create a fresh keypair and wrap it to `parent`.
///
/// Returns the blob; the private key never leaves in the clear. `bits` is
/// the child modulus size.
pub fn create_wrap_key(
    parent: &LoadedKey,
    usage: KeyUsage,
    bits: usize,
    usage_auth: [u8; DIGEST_LEN],
    pcr_binding: Option<(PcrSelection, [u8; DIGEST_LEN])>,
    rng: &mut Drbg,
) -> Result<KeyBlob, KeyError> {
    if !parent.usage.can_store() {
        return Err(KeyError::NotStorageKey);
    }
    let key = RsaPrivateKey::generate(bits, rng);
    wrap_key(parent, usage, &key, usage_auth, pcr_binding, rng)
}

/// Wrap an existing keypair to `parent` (used by tests and by vTPM state
/// migration, where a key must be re-wrapped to a new parent).
pub fn wrap_key(
    parent: &LoadedKey,
    usage: KeyUsage,
    key: &RsaPrivateKey,
    usage_auth: [u8; DIGEST_LEN],
    pcr_binding: Option<(PcrSelection, [u8; DIGEST_LEN])>,
    rng: &mut Drbg,
) -> Result<KeyBlob, KeyError> {
    if !parent.usage.can_store() {
        return Err(KeyError::NotStorageKey);
    }
    // Private payload: u16 p-length || p || usageAuth.
    let p_bytes = key.p.to_bytes_be();
    let mut payload = Writer::with_capacity(2 + p_bytes.len() + DIGEST_LEN);
    payload.sized_u16(&p_bytes);
    payload.bytes(&usage_auth);
    let enc_private = parent
        .public()
        .encrypt_oaep(payload.as_slice(), &binding_label(&pcr_binding), rng)
        .map_err(|_| KeyError::BadBlob)?;
    Ok(KeyBlob {
        usage,
        n: key.public.n.to_bytes_be(),
        pcr_binding,
        enc_private,
    })
}

/// Unwrap a blob under `parent`, reconstructing the full private key.
pub fn unwrap_key(parent: &LoadedKey, blob: &KeyBlob) -> Result<LoadedKey, KeyError> {
    if !parent.usage.can_store() {
        return Err(KeyError::NotStorageKey);
    }
    let payload = parent
        .private
        .decrypt_oaep(&blob.enc_private, &binding_label(&blob.pcr_binding))
        .map_err(|_| KeyError::BadBlob)?;
    let mut r = Reader::new(&payload);
    let p_bytes = r.sized_u16().map_err(|_| KeyError::BadBlob)?;
    let usage_auth: [u8; DIGEST_LEN] = r.digest().map_err(|_| KeyError::BadBlob)?;
    let p = BigUint::from_bytes_be(p_bytes);
    let n = BigUint::from_bytes_be(&blob.n);
    if p.is_zero() || n.is_zero() {
        return Err(KeyError::BadBlob);
    }
    let (q, rem) = n.div_rem(&p);
    if !rem.is_zero() {
        return Err(KeyError::BadBlob);
    }
    let private = rebuild_private(p, q, n).ok_or(KeyError::BadBlob)?;
    Ok(LoadedKey { usage: blob.usage, private, usage_auth, pcr_binding: blob.pcr_binding })
}

/// Rebuild CRT material from the two primes.
fn rebuild_private(p: BigUint, q: BigUint, n: BigUint) -> Option<RsaPrivateKey> {
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

/// The loaded-key slot table.
pub struct KeyStore {
    slots: HashMap<u32, LoadedKey>,
    next_handle: u32,
    capacity: usize,
}

impl KeyStore {
    /// A store with `capacity` loadable slots (hardware TPMs have ~10).
    pub fn new(capacity: usize) -> Self {
        KeyStore { slots: HashMap::new(), next_handle: 0x0100_0000, capacity }
    }

    /// Insert a key, returning its transient handle.
    pub fn load(&mut self, key: LoadedKey) -> Result<u32, KeyError> {
        if self.slots.len() >= self.capacity {
            return Err(KeyError::NoSpace);
        }
        let handle = self.next_handle;
        self.next_handle += 1;
        self.slots.insert(handle, key);
        Ok(handle)
    }

    /// Look up a loaded key.
    pub fn get(&self, handle: u32) -> Result<&LoadedKey, KeyError> {
        self.slots.get(&handle).ok_or(KeyError::BadHandle)
    }

    /// Evict a loaded key.
    pub fn flush(&mut self, handle: u32) -> Result<(), KeyError> {
        self.slots.remove(&handle).map(|_| ()).ok_or(KeyError::BadHandle)
    }

    /// Number of keys currently loaded.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no keys are loaded.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Evict everything (TPM_Startup(CLEAR)).
    pub fn clear(&mut self) {
        self.slots.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storage_parent(rng: &mut Drbg) -> LoadedKey {
        LoadedKey {
            usage: KeyUsage::Storage,
            private: RsaPrivateKey::generate(1024, rng),
            usage_auth: [0; 20],
            pcr_binding: None,
        }
    }

    #[test]
    fn create_and_unwrap_roundtrip() {
        let mut rng = Drbg::new(b"keys-roundtrip");
        let parent = storage_parent(&mut rng);
        let auth = [7u8; 20];
        let blob =
            create_wrap_key(&parent, KeyUsage::Signing, 512, auth, None, &mut rng).unwrap();
        let child = unwrap_key(&parent, &blob).unwrap();
        assert_eq!(child.usage, KeyUsage::Signing);
        assert_eq!(child.usage_auth, auth);
        // The reconstructed private key actually works.
        let sig = child.private.sign_pkcs1_sha1(b"test").unwrap();
        assert!(child.public().verify_pkcs1_sha1(b"test", &sig).is_ok());
    }

    #[test]
    fn pcr_binding_is_sealed_into_the_oaep_label() {
        let mut rng = Drbg::new(b"keys-binding-label");
        let parent = storage_parent(&mut rng);
        let unbound =
            create_wrap_key(&parent, KeyUsage::Signing, 512, [1; 20], None, &mut rng).unwrap();
        // An unbound blob keeps the plain "TCPA" label.
        assert!(parent.private.decrypt_oaep(&unbound.enc_private, OAEP_LABEL).is_ok());

        // A bound blob's label carries the binding, which unwrap returns.
        let binding = Some((PcrSelection::of(&[10]), [0x5a; DIGEST_LEN]));
        let bound =
            create_wrap_key(&parent, KeyUsage::Signing, 512, [1; 20], binding, &mut rng).unwrap();
        assert!(parent.private.decrypt_oaep(&bound.enc_private, OAEP_LABEL).is_err());
        assert_eq!(unwrap_key(&parent, &bound).unwrap().pcr_binding, binding);
    }

    #[test]
    fn wrong_parent_cannot_unwrap() {
        let mut rng = Drbg::new(b"keys-wrongparent");
        let parent = storage_parent(&mut rng);
        let other = storage_parent(&mut rng);
        let blob =
            create_wrap_key(&parent, KeyUsage::Signing, 512, [0; 20], None, &mut rng).unwrap();
        assert!(matches!(unwrap_key(&other, &blob), Err(KeyError::BadBlob)));
    }

    #[test]
    fn non_storage_parent_rejected() {
        let mut rng = Drbg::new(b"keys-nonstorage");
        let mut parent = storage_parent(&mut rng);
        parent.usage = KeyUsage::Signing;
        assert!(matches!(
            create_wrap_key(&parent, KeyUsage::Signing, 512, [0; 20], None, &mut rng),
            Err(KeyError::NotStorageKey)
        ));
    }

    #[test]
    fn blob_wire_roundtrip() {
        let mut rng = Drbg::new(b"keys-wire");
        let parent = storage_parent(&mut rng);
        let binding = Some((PcrSelection::of(&[0, 5]), [3u8; 20]));
        let blob = create_wrap_key(&parent, KeyUsage::Binding, 512, [1; 20], binding, &mut rng)
            .unwrap();
        let bytes = blob.encode();
        let (blob2, used) = KeyBlob::decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(blob, blob2);
    }

    #[test]
    fn blob_decode_rejects_garbage() {
        assert!(KeyBlob::decode(&[0xFF; 4]).is_err());
        assert!(KeyBlob::decode(&[]).is_err());
        // Valid blob with a flipped usage field.
        let mut rng = Drbg::new(b"keys-garbage");
        let parent = storage_parent(&mut rng);
        let blob =
            create_wrap_key(&parent, KeyUsage::Signing, 512, [0; 20], None, &mut rng).unwrap();
        let mut bytes = blob.encode();
        bytes[0] = 0xEE;
        assert!(KeyBlob::decode(&bytes).is_err());
    }

    #[test]
    fn tampered_enc_private_fails_unwrap() {
        let mut rng = Drbg::new(b"keys-tamper");
        let parent = storage_parent(&mut rng);
        let mut blob =
            create_wrap_key(&parent, KeyUsage::Signing, 512, [0; 20], None, &mut rng).unwrap();
        let last = blob.enc_private.len() - 1;
        blob.enc_private[last] ^= 1;
        assert!(unwrap_key(&parent, &blob).is_err());
    }

    #[test]
    fn keystore_slots_and_capacity() {
        let mut rng = Drbg::new(b"keys-slots");
        let parent = storage_parent(&mut rng);
        let mut store = KeyStore::new(2);
        let h1 = store.load(parent.clone()).unwrap();
        let h2 = store.load(parent.clone()).unwrap();
        assert_ne!(h1, h2);
        assert_eq!(store.load(parent.clone()), Err(KeyError::NoSpace));
        assert!(store.get(h1).is_ok());
        store.flush(h1).unwrap();
        assert_eq!(store.get(h1).err(), Some(KeyError::BadHandle));
        // Slot freed; loading works again.
        store.load(parent).unwrap();
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn keystore_clear() {
        let mut rng = Drbg::new(b"keys-clear");
        let parent = storage_parent(&mut rng);
        let mut store = KeyStore::new(4);
        store.load(parent).unwrap();
        store.clear();
        assert!(store.is_empty());
    }

    #[test]
    fn deep_hierarchy_wraps() {
        // SRK -> storage child -> signing grandchild.
        let mut rng = Drbg::new(b"keys-deep");
        let srk = storage_parent(&mut rng);
        let child_blob =
            create_wrap_key(&srk, KeyUsage::Storage, 1024, [2; 20], None, &mut rng).unwrap();
        let child = unwrap_key(&srk, &child_blob).unwrap();
        let grand_blob =
            create_wrap_key(&child, KeyUsage::Signing, 512, [3; 20], None, &mut rng).unwrap();
        let grand = unwrap_key(&child, &grand_blob).unwrap();
        let sig = grand.private.sign_pkcs1_sha1(b"deep").unwrap();
        assert!(grand.public().verify_pkcs1_sha1(b"deep", &sig).is_ok());
    }
}
