//! Client-side TPM 1.2 driver: builds command byte streams, manages
//! authorization sessions, verifies response MACs.
//!
//! This is the code that runs *inside a guest* in the vTPM architecture
//! (the kernel TPM driver + trousers equivalent). It talks to any
//! [`Transport`] — a direct in-process TPM for unit tests, or the
//! tpmfront/ring path in the full stack.

use tpm_crypto::drbg::Drbg;
use tpm_crypto::hmac::ct_eq;
use tpm_crypto::rsa::RsaPublicKey;
use tpm_crypto::BigUint;

use crate::buffer::{Reader, Writer};
use crate::keys::KeyBlob;
use crate::pcr::PcrSelection;
use crate::session::{command_auth, out_param_digest, SessionTable};
use crate::tpm::{adip_encrypt, SealedBlob};
use crate::types::{entity, ordinal, rc, tag, KeyUsage, DIGEST_LEN};

/// Anything that can carry a TPM command and return its response.
pub trait Transport {
    /// Send `cmd`, receive the full response buffer.
    fn transact(&mut self, cmd: &[u8]) -> Vec<u8>;
}

impl<T: Transport + ?Sized> Transport for &mut T {
    fn transact(&mut self, cmd: &[u8]) -> Vec<u8> {
        (**self).transact(cmd)
    }
}

/// Direct in-process transport (tests, manager-internal use).
pub struct DirectTransport<'a> {
    /// The TPM to drive.
    pub tpm: &'a mut crate::tpm::Tpm,
    /// Locality commands arrive at.
    pub locality: u8,
}

impl Transport for DirectTransport<'_> {
    fn transact(&mut self, cmd: &[u8]) -> Vec<u8> {
        self.tpm.execute(self.locality, cmd)
    }
}

/// Client-side errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The TPM returned a non-zero code.
    Tpm(u32),
    /// Response could not be parsed.
    Malformed,
    /// The response authorization MAC failed — the transport tampered
    /// with the reply (or impersonated the TPM).
    ResponseAuth,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Tpm(code) => write!(f, "TPM error {code:#x}"),
            ClientError::Malformed => write!(f, "malformed TPM response"),
            ClientError::ResponseAuth => write!(f, "response authorization MAC mismatch"),
        }
    }
}

impl std::error::Error for ClientError {}

type Result<T> = std::result::Result<T, ClientError>;

/// An open auth session tracked by the client.
struct ClientSession {
    handle: u32,
    nonce_even: [u8; 20],
    /// HMAC key: entity auth (OIAP) or shared secret (OSAP).
    key: [u8; DIGEST_LEN],
}

/// The session-managing TPM client.
pub struct TpmClient<T: Transport> {
    transport: T,
    rng: Drbg,
}

impl<T: Transport> TpmClient<T> {
    /// Wrap a transport. `seed` drives client-side nonces.
    pub fn new(transport: T, seed: &[u8]) -> Self {
        TpmClient { transport, rng: Drbg::new(seed) }
    }

    /// Access the underlying transport.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    fn nonce(&mut self) -> [u8; 20] {
        let mut n = [0u8; 20];
        self.rng.fill_bytes(&mut n);
        n
    }

    // ---- plain commands ----------------------------------------------------

    fn simple(&mut self, ord: u32, params: &[u8]) -> Result<Vec<u8>> {
        let mut w = Writer::with_capacity(10 + params.len());
        w.u16(tag::RQU_COMMAND).u32(0).u32(ord).bytes(params);
        let total = w.len() as u32;
        w.patch_u32(2, total);
        let resp = self.transport.transact(w.as_slice());
        let (tag_v, code, body) =
            crate::tpm::parse_response(&resp).map_err(|_| ClientError::Malformed)?;
        if code != rc::SUCCESS {
            return Err(ClientError::Tpm(code));
        }
        if tag_v != tag::RSP_COMMAND {
            return Err(ClientError::Malformed);
        }
        Ok(body.to_vec())
    }

    /// TPM_Startup(ST_CLEAR).
    pub fn startup_clear(&mut self) -> Result<()> {
        self.simple(ordinal::STARTUP, &0x0001u16.to_be_bytes()).map(|_| ())
    }

    /// TPM_Startup(ST_STATE) — resume with preserved PCRs.
    pub fn startup_state(&mut self) -> Result<()> {
        self.simple(ordinal::STARTUP, &0x0002u16.to_be_bytes()).map(|_| ())
    }

    /// TPM_GetRandom.
    pub fn get_random(&mut self, n: u32) -> Result<Vec<u8>> {
        let body = self.simple(ordinal::GET_RANDOM, &n.to_be_bytes())?;
        let mut r = Reader::new(&body);
        Ok(r.sized_u32().map_err(|_| ClientError::Malformed)?.to_vec())
    }

    /// TPM_PcrRead.
    pub fn pcr_read(&mut self, index: u32) -> Result<[u8; 20]> {
        let body = self.simple(ordinal::PCR_READ, &index.to_be_bytes())?;
        body.as_slice().try_into().map_err(|_| ClientError::Malformed)
    }

    /// TPM_Extend.
    pub fn extend(&mut self, index: u32, digest: &[u8; 20]) -> Result<[u8; 20]> {
        let mut params = Writer::with_capacity(24);
        params.u32(index).bytes(digest);
        let body = self.simple(ordinal::EXTEND, params.as_slice())?;
        body.as_slice().try_into().map_err(|_| ClientError::Malformed)
    }

    /// TPM_ReadPubek — returns the EK public key.
    pub fn read_pubek(&mut self) -> Result<RsaPublicKey> {
        let body = self.simple(ordinal::READ_PUBEK, &[])?;
        let mut r = Reader::new(&body);
        let n = r.sized_u32().map_err(|_| ClientError::Malformed)?;
        Ok(RsaPublicKey {
            n: BigUint::from_bytes_be(n),
            e: BigUint::from_u64(tpm_crypto::rsa::E),
        })
    }

    /// TPM_FlushSpecific on a key handle.
    pub fn flush_key(&mut self, handle: u32) -> Result<()> {
        let mut params = Writer::new();
        params.u32(handle).u32(0x0000_0001);
        self.simple(ordinal::FLUSH_SPECIFIC, params.as_slice()).map(|_| ())
    }

    // ---- session machinery ----------------------------------------------------

    fn open_oiap(&mut self, key: [u8; DIGEST_LEN]) -> Result<ClientSession> {
        let body = self.simple(ordinal::OIAP, &[])?;
        let mut r = Reader::new(&body);
        let handle = r.u32().map_err(|_| ClientError::Malformed)?;
        let nonce_even = r.digest().map_err(|_| ClientError::Malformed)?;
        Ok(ClientSession { handle, nonce_even, key })
    }

    fn open_osap(
        &mut self,
        etype: u16,
        evalue: u32,
        entity_auth: &[u8; DIGEST_LEN],
    ) -> Result<ClientSession> {
        let nonce_odd_osap = self.nonce();
        let mut params = Writer::new();
        params.u16(etype).u32(evalue).bytes(&nonce_odd_osap);
        let body = self.simple(ordinal::OSAP, params.as_slice())?;
        let mut r = Reader::new(&body);
        let handle = r.u32().map_err(|_| ClientError::Malformed)?;
        let nonce_even = r.digest().map_err(|_| ClientError::Malformed)?;
        let nonce_even_osap = r.digest().map_err(|_| ClientError::Malformed)?;
        let mut msg = [0u8; 40];
        msg[..20].copy_from_slice(&nonce_even_osap);
        msg[20..].copy_from_slice(&nonce_odd_osap);
        let shared = tpm_crypto::hmac_sha1(entity_auth, &msg);
        Ok(ClientSession { handle, nonce_even, key: shared })
    }

    /// Execute an auth1 command: append the auth trailer, verify the
    /// response MAC. Session is single-use (continueAuthSession = false).
    fn auth1(&mut self, ord: u32, params: &[u8], session: ClientSession) -> Result<Vec<u8>> {
        let nonce_odd = self.nonce();
        let mac = command_auth(&session.key, ord, params, &session.nonce_even, &nonce_odd, false);

        let mut w = Writer::with_capacity(10 + params.len() + 45);
        w.u16(tag::RQU_AUTH1_COMMAND).u32(0).u32(ord).bytes(params);
        w.u32(session.handle).bytes(&nonce_odd).u8(0).bytes(&mac);
        let total = w.len() as u32;
        w.patch_u32(2, total);

        let resp = self.transport.transact(w.as_slice());
        let (tag_v, code, body) =
            crate::tpm::parse_response(&resp).map_err(|_| ClientError::Malformed)?;
        if code != rc::SUCCESS {
            return Err(ClientError::Tpm(code));
        }
        if tag_v != tag::RSP_AUTH1_COMMAND || body.len() < 41 {
            return Err(ClientError::Malformed);
        }
        let out_params = &body[..body.len() - 41];
        let trailer = &body[body.len() - 41..];
        let new_nonce_even: [u8; 20] = trailer[..20].try_into().unwrap();
        let cont = trailer[20] != 0;
        let resp_mac = &trailer[21..41];
        let od = out_param_digest(code, ord, out_params);
        let expect =
            SessionTable::response_auth(&session.key, &od, &new_nonce_even, &nonce_odd, cont);
        if !ct_eq(&expect, resp_mac) {
            return Err(ClientError::ResponseAuth);
        }
        Ok(out_params.to_vec())
    }

    /// Execute an auth2 command (Unseal): two single-use sessions.
    fn auth2(
        &mut self,
        ord: u32,
        params: &[u8],
        s1: ClientSession,
        s2: ClientSession,
    ) -> Result<Vec<u8>> {
        let nonce_odd1 = self.nonce();
        let nonce_odd2 = self.nonce();
        let mac1 = command_auth(&s1.key, ord, params, &s1.nonce_even, &nonce_odd1, false);
        let mac2 = command_auth(&s2.key, ord, params, &s2.nonce_even, &nonce_odd2, false);

        let mut w = Writer::with_capacity(10 + params.len() + 90);
        w.u16(tag::RQU_AUTH2_COMMAND).u32(0).u32(ord).bytes(params);
        w.u32(s1.handle).bytes(&nonce_odd1).u8(0).bytes(&mac1);
        w.u32(s2.handle).bytes(&nonce_odd2).u8(0).bytes(&mac2);
        let total = w.len() as u32;
        w.patch_u32(2, total);

        let resp = self.transport.transact(w.as_slice());
        let (tag_v, code, body) =
            crate::tpm::parse_response(&resp).map_err(|_| ClientError::Malformed)?;
        if code != rc::SUCCESS {
            return Err(ClientError::Tpm(code));
        }
        if tag_v != tag::RSP_AUTH2_COMMAND || body.len() < 82 {
            return Err(ClientError::Malformed);
        }
        let out_params = &body[..body.len() - 82];
        let t1 = &body[body.len() - 82..body.len() - 41];
        let t2 = &body[body.len() - 41..];
        let od = out_param_digest(code, ord, out_params);
        for (trailer, sess, nonce_odd) in [(t1, &s1, &nonce_odd1), (t2, &s2, &nonce_odd2)] {
            let ne: [u8; 20] = trailer[..20].try_into().unwrap();
            let cont = trailer[20] != 0;
            let mac = &trailer[21..41];
            let expect = SessionTable::response_auth(&sess.key, &od, &ne, nonce_odd, cont);
            if !ct_eq(&expect, mac) {
                return Err(ClientError::ResponseAuth);
            }
        }
        Ok(out_params.to_vec())
    }

    // ---- authorized commands -------------------------------------------------

    /// TPM_TakeOwnership: encrypts the new owner and SRK auth secrets to
    /// the EK, authorizes with the new owner auth. Returns the SRK public
    /// modulus.
    pub fn take_ownership(
        &mut self,
        owner_auth: &[u8; 20],
        srk_auth: &[u8; 20],
    ) -> Result<Vec<u8>> {
        let ek = self.read_pubek()?;
        let enc_owner = ek
            .encrypt_oaep(owner_auth, b"TCPA", &mut self.rng)
            .map_err(|_| ClientError::Malformed)?;
        let enc_srk = ek
            .encrypt_oaep(srk_auth, b"TCPA", &mut self.rng)
            .map_err(|_| ClientError::Malformed)?;
        let mut params = Writer::new();
        params.sized_u32(&enc_owner).sized_u32(&enc_srk);
        let session = self.open_oiap(*owner_auth)?;
        let body = self.auth1(ordinal::TAKE_OWNERSHIP, params.as_slice(), session)?;
        let mut r = Reader::new(&body);
        Ok(r.sized_u32().map_err(|_| ClientError::Malformed)?.to_vec())
    }

    /// TPM_OwnerClear.
    pub fn owner_clear(&mut self, owner_auth: &[u8; 20]) -> Result<()> {
        let session = self.open_oiap(*owner_auth)?;
        self.auth1(ordinal::OWNER_CLEAR, &[], session).map(|_| ())
    }

    /// TPM_CreateWrapKey under `parent_handle`. The new key's usage auth
    /// is ADIP-encrypted inside an OSAP session on the parent.
    pub fn create_wrap_key(
        &mut self,
        parent_handle: u32,
        parent_auth: &[u8; 20],
        usage: KeyUsage,
        bits: u32,
        usage_auth: &[u8; 20],
        pcr_binding: Option<&PcrSelection>,
    ) -> Result<KeyBlob> {
        let session = self.open_osap(entity::KEYHANDLE, parent_handle, parent_auth)?;
        let enc_auth = adip_encrypt(&session.key, &session.nonce_even, usage_auth);
        let mut params = Writer::new();
        params.u32(parent_handle).bytes(&enc_auth).u16(usage.to_u16()).u32(bits);
        match pcr_binding {
            Some(sel) => {
                params.u8(1).bytes(&sel.encode()).bytes(&[0u8; 20]);
            }
            None => {
                params.u8(0);
            }
        }
        let body = self.auth1(ordinal::CREATE_WRAP_KEY, params.as_slice(), session)?;
        let mut r = Reader::new(&body);
        let blob_bytes = r.sized_u32().map_err(|_| ClientError::Malformed)?;
        let (blob, _) = KeyBlob::decode(blob_bytes).map_err(|_| ClientError::Malformed)?;
        Ok(blob)
    }

    /// TPM_LoadKey2: load a wrapped key under its parent; returns the
    /// transient handle.
    pub fn load_key2(
        &mut self,
        parent_handle: u32,
        parent_auth: &[u8; 20],
        blob: &KeyBlob,
    ) -> Result<u32> {
        let mut params = Writer::new();
        params.u32(parent_handle).sized_u32(&blob.encode());
        let session = self.open_oiap(*parent_auth)?;
        let body = self.auth1(ordinal::LOAD_KEY2, params.as_slice(), session)?;
        let mut r = Reader::new(&body);
        r.u32().map_err(|_| ClientError::Malformed)
    }

    /// TPM_Seal under storage key `key_handle`; `data_auth` protects the
    /// blob, optional PCR binding restricts unsealing.
    pub fn seal(
        &mut self,
        key_handle: u32,
        key_auth: &[u8; 20],
        data_auth: &[u8; 20],
        pcr_binding: Option<&PcrSelection>,
        data: &[u8],
    ) -> Result<SealedBlob> {
        let session = self.open_osap(entity::KEYHANDLE, key_handle, key_auth)?;
        let enc_auth = adip_encrypt(&session.key, &session.nonce_even, data_auth);
        let mut params = Writer::new();
        params.u32(key_handle).bytes(&enc_auth);
        match pcr_binding {
            Some(sel) => {
                params.u8(1).bytes(&sel.encode()).bytes(&[0u8; 20]);
            }
            None => {
                params.u8(0);
            }
        }
        params.sized_u32(data);
        let body = self.auth1(ordinal::SEAL, params.as_slice(), session)?;
        let mut r = Reader::new(&body);
        let blob_bytes = r.sized_u32().map_err(|_| ClientError::Malformed)?;
        let (blob, _) = SealedBlob::decode(blob_bytes).map_err(|_| ClientError::Malformed)?;
        Ok(blob)
    }

    /// TPM_Unseal (auth2: key session + data session).
    pub fn unseal(
        &mut self,
        key_handle: u32,
        key_auth: &[u8; 20],
        data_auth: &[u8; 20],
        blob: &SealedBlob,
    ) -> Result<Vec<u8>> {
        let mut params = Writer::new();
        params.u32(key_handle).sized_u32(&blob.encode());
        let s1 = self.open_oiap(*key_auth)?;
        let s2 = self.open_oiap(*data_auth)?;
        let body = self.auth2(ordinal::UNSEAL, params.as_slice(), s1, s2)?;
        let mut r = Reader::new(&body);
        Ok(r.sized_u32().map_err(|_| ClientError::Malformed)?.to_vec())
    }

    /// TPM_Quote with signing key `key_handle` over `selection`; returns
    /// (selected PCR values, signature).
    pub fn quote(
        &mut self,
        key_handle: u32,
        key_auth: &[u8; 20],
        external_data: &[u8; 20],
        selection: &PcrSelection,
    ) -> Result<(Vec<[u8; 20]>, Vec<u8>)> {
        let mut params = Writer::new();
        params.u32(key_handle).bytes(external_data).bytes(&selection.encode());
        let session = self.open_oiap(*key_auth)?;
        let body = self.auth1(ordinal::QUOTE, params.as_slice(), session)?;
        // Parse: selection + u32 size + values + sized sig.
        let (sel, used) = PcrSelection::decode(&body).ok_or(ClientError::Malformed)?;
        let mut r = Reader::new(&body);
        r.bytes(used).map_err(|_| ClientError::Malformed)?;
        let total = r.u32().map_err(|_| ClientError::Malformed)? as usize;
        if total != sel.count() * 20 {
            return Err(ClientError::Malformed);
        }
        let mut values = Vec::with_capacity(sel.count());
        for _ in 0..sel.count() {
            values.push(r.digest().map_err(|_| ClientError::Malformed)?);
        }
        let sig = r.sized_u32().map_err(|_| ClientError::Malformed)?.to_vec();
        Ok((values, sig))
    }

    /// TPM_Sign with signing key `key_handle`.
    pub fn sign(&mut self, key_handle: u32, key_auth: &[u8; 20], data: &[u8]) -> Result<Vec<u8>> {
        let mut params = Writer::new();
        params.u32(key_handle).sized_u32(data);
        let session = self.open_oiap(*key_auth)?;
        let body = self.auth1(ordinal::SIGN, params.as_slice(), session)?;
        let mut r = Reader::new(&body);
        Ok(r.sized_u32().map_err(|_| ClientError::Malformed)?.to_vec())
    }

    /// TPM_CreateCounter (owner-authorized, OSAP): returns (countID, value).
    pub fn create_counter(
        &mut self,
        owner_auth: &[u8; 20],
        counter_auth: &[u8; 20],
        label: [u8; 4],
    ) -> Result<(u32, u32)> {
        let session = self.open_osap(entity::OWNER, crate::types::handle::OWNER, owner_auth)?;
        let enc_auth = adip_encrypt(&session.key, &session.nonce_even, counter_auth);
        let mut params = Writer::new();
        params.bytes(&enc_auth).bytes(&label);
        let body = self.auth1(ordinal::CREATE_COUNTER, params.as_slice(), session)?;
        let mut r = Reader::new(&body);
        let id = r.u32().map_err(|_| ClientError::Malformed)?;
        let value = r.u32().map_err(|_| ClientError::Malformed)?;
        Ok((id, value))
    }

    /// TPM_IncrementCounter: returns the new value.
    pub fn increment_counter(&mut self, id: u32, counter_auth: &[u8; 20]) -> Result<u32> {
        let session = self.open_oiap(*counter_auth)?;
        let body = self.auth1(ordinal::INCREMENT_COUNTER, &id.to_be_bytes(), session)?;
        let mut r = Reader::new(&body);
        r.u32().map_err(|_| ClientError::Malformed)
    }

    /// TPM_ReadCounter: returns (label, value); no authorization.
    pub fn read_counter(&mut self, id: u32) -> Result<([u8; 4], u32)> {
        let body = self.simple(ordinal::READ_COUNTER, &id.to_be_bytes())?;
        let mut r = Reader::new(&body);
        let label: [u8; 4] = r
            .bytes(4)
            .map_err(|_| ClientError::Malformed)?
            .try_into()
            .map_err(|_| ClientError::Malformed)?;
        let value = r.u32().map_err(|_| ClientError::Malformed)?;
        Ok((label, value))
    }

    /// TPM_ReleaseCounter.
    pub fn release_counter(&mut self, id: u32, counter_auth: &[u8; 20]) -> Result<()> {
        let session = self.open_oiap(*counter_auth)?;
        self.auth1(ordinal::RELEASE_COUNTER, &id.to_be_bytes(), session).map(|_| ())
    }

    /// TPM_NV_DefineSpace (owner-authorized). `attr_bits`: bit0 owner
    /// write, bit1 owner read, bit2 write-once.
    pub fn nv_define(
        &mut self,
        owner_auth: &[u8; 20],
        index: u32,
        size: u32,
        attr_bits: u32,
    ) -> Result<()> {
        let mut params = Writer::new();
        params.u32(index).u32(size).u32(attr_bits);
        let session = self.open_oiap(*owner_auth)?;
        self.auth1(ordinal::NV_DEFINE_SPACE, params.as_slice(), session).map(|_| ())
    }

    /// TPM_NV_WriteValue; pass `owner_auth` for owner-protected areas.
    pub fn nv_write(
        &mut self,
        owner_auth: Option<&[u8; 20]>,
        index: u32,
        offset: u32,
        data: &[u8],
    ) -> Result<()> {
        let mut params = Writer::new();
        params.u32(index).u32(offset).sized_u32(data);
        match owner_auth {
            Some(auth) => {
                let session = self.open_oiap(*auth)?;
                self.auth1(ordinal::NV_WRITE_VALUE, params.as_slice(), session).map(|_| ())
            }
            None => self.simple(ordinal::NV_WRITE_VALUE, params.as_slice()).map(|_| ()),
        }
    }

    /// TPM_NV_ReadValue.
    pub fn nv_read(
        &mut self,
        owner_auth: Option<&[u8; 20]>,
        index: u32,
        offset: u32,
        len: u32,
    ) -> Result<Vec<u8>> {
        let mut params = Writer::new();
        params.u32(index).u32(offset).u32(len);
        let body = match owner_auth {
            Some(auth) => {
                let session = self.open_oiap(*auth)?;
                self.auth1(ordinal::NV_READ_VALUE, params.as_slice(), session)?
            }
            None => self.simple(ordinal::NV_READ_VALUE, params.as_slice())?,
        };
        let mut r = Reader::new(&body);
        Ok(r.sized_u32().map_err(|_| ClientError::Malformed)?.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpm::{quote_info_digest, Tpm};

    const OWNER: [u8; 20] = [1u8; 20];
    const SRK_AUTH: [u8; 20] = [2u8; 20];

    fn owned_client(tpm: &mut Tpm) -> TpmClient<DirectTransport<'_>> {
        let mut c = TpmClient::new(DirectTransport { tpm, locality: 0 }, b"client-seed");
        c.startup_clear().unwrap();
        c.take_ownership(&OWNER, &SRK_AUTH).unwrap();
        c
    }

    #[test]
    fn take_ownership_end_to_end() {
        let mut tpm = Tpm::new(b"e2e-own");
        let mut c = TpmClient::new(DirectTransport { tpm: &mut tpm, locality: 0 }, b"cl");
        c.startup_clear().unwrap();
        let srk_pub = c.take_ownership(&OWNER, &SRK_AUTH).unwrap();
        assert!(!srk_pub.is_empty());
        assert!(tpm.is_owned());
        // Second TakeOwnership refused.
        let mut c2 = TpmClient::new(DirectTransport { tpm: &mut tpm, locality: 0 }, b"cl2");
        assert_eq!(
            c2.take_ownership(&OWNER, &SRK_AUTH),
            Err(ClientError::Tpm(rc::OWNER_SET))
        );
    }

    #[test]
    fn take_ownership_then_clear() {
        let mut tpm = Tpm::new(b"e2e-clear");
        let mut c = owned_client(&mut tpm);
        c.owner_clear(&OWNER).unwrap();
        assert!(!c.transport_mut().tpm.is_owned());
    }

    #[test]
    fn owner_clear_wrong_auth_fails() {
        let mut tpm = Tpm::new(b"e2e-clear2");
        let mut c = owned_client(&mut tpm);
        assert_eq!(c.owner_clear(&[9; 20]), Err(ClientError::Tpm(rc::AUTHFAIL)));
    }

    #[test]
    fn create_load_sign_verify() {
        let mut tpm = Tpm::new(b"e2e-key");
        let mut c = owned_client(&mut tpm);
        let key_auth = [3u8; 20];
        let blob = c
            .create_wrap_key(
                crate::types::handle::SRK,
                &SRK_AUTH,
                KeyUsage::Signing,
                512,
                &key_auth,
                None,
            )
            .unwrap();
        let h = c.load_key2(crate::types::handle::SRK, &SRK_AUTH, &blob).unwrap();
        let sig = c.sign(h, &key_auth, b"message").unwrap();
        // Verify against the blob's public key.
        let pk = RsaPublicKey {
            n: BigUint::from_bytes_be(&blob.n),
            e: BigUint::from_u64(tpm_crypto::rsa::E),
        };
        assert!(pk.verify_pkcs1_sha1(b"message", &sig).is_ok());
        // Wrong key auth fails.
        assert_eq!(
            c.sign(h, &[0; 20], b"message"),
            Err(ClientError::Tpm(rc::AUTHFAIL))
        );
        c.flush_key(h).unwrap();
        assert_eq!(
            c.sign(h, &key_auth, b"m"),
            Err(ClientError::Tpm(rc::INVALID_KEYHANDLE))
        );
    }

    #[test]
    fn storage_key_cannot_sign() {
        let mut tpm = Tpm::new(b"e2e-usage");
        let mut c = owned_client(&mut tpm);
        let key_auth = [4u8; 20];
        let blob = c
            .create_wrap_key(
                crate::types::handle::SRK,
                &SRK_AUTH,
                KeyUsage::Storage,
                1024,
                &key_auth,
                None,
            )
            .unwrap();
        let h = c.load_key2(crate::types::handle::SRK, &SRK_AUTH, &blob).unwrap();
        assert_eq!(
            c.sign(h, &key_auth, b"m"),
            Err(ClientError::Tpm(rc::INVALID_KEYUSAGE))
        );
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let mut tpm = Tpm::new(b"e2e-seal");
        let mut c = owned_client(&mut tpm);
        let data_auth = [5u8; 20];
        let secret = b"master key material";
        let blob = c
            .seal(crate::types::handle::SRK, &SRK_AUTH, &data_auth, None, secret)
            .unwrap();
        let out = c
            .unseal(crate::types::handle::SRK, &SRK_AUTH, &data_auth, &blob)
            .unwrap();
        assert_eq!(out, secret);
    }

    #[test]
    fn unseal_wrong_data_auth_fails() {
        let mut tpm = Tpm::new(b"e2e-seal2");
        let mut c = owned_client(&mut tpm);
        let blob = c
            .seal(crate::types::handle::SRK, &SRK_AUTH, &[5; 20], None, b"s")
            .unwrap();
        assert_eq!(
            c.unseal(crate::types::handle::SRK, &SRK_AUTH, &[6; 20], &blob),
            Err(ClientError::Tpm(rc::AUTHFAIL))
        );
    }

    #[test]
    fn unseal_from_other_tpm_fails() {
        // A blob sealed by TPM A must not unseal on TPM B even with the
        // same SRK auth (tpmProof differs) — but B has a different SRK
        // anyway, so decryption fails outright.
        let mut tpm_a = Tpm::new(b"tpm-a");
        let blob = {
            let mut c = owned_client(&mut tpm_a);
            c.seal(crate::types::handle::SRK, &SRK_AUTH, &[5; 20], None, b"s").unwrap()
        };
        let mut tpm_b = Tpm::new(b"tpm-b");
        let mut c = owned_client(&mut tpm_b);
        assert!(matches!(
            c.unseal(crate::types::handle::SRK, &SRK_AUTH, &[5; 20], &blob),
            Err(ClientError::Tpm(_))
        ));
    }

    #[test]
    fn seal_with_pcr_binding_enforced() {
        let mut tpm = Tpm::new(b"e2e-sealpcr");
        let mut c = owned_client(&mut tpm);
        let sel = PcrSelection::of(&[10]);
        let data_auth = [5u8; 20];
        let blob = c
            .seal(crate::types::handle::SRK, &SRK_AUTH, &data_auth, Some(&sel), b"pcr-bound")
            .unwrap();
        // Unseals while PCR 10 unchanged.
        let out = c
            .unseal(crate::types::handle::SRK, &SRK_AUTH, &data_auth, &blob)
            .unwrap();
        assert_eq!(out, b"pcr-bound");
        // Extend PCR 10 -> refused.
        c.extend(10, &[0xEE; 20]).unwrap();
        assert_eq!(
            c.unseal(crate::types::handle::SRK, &SRK_AUTH, &data_auth, &blob),
            Err(ClientError::Tpm(rc::WRONGPCRVAL))
        );
        // The binding is sealed into the OAEP label: stripping it, or
        // re-binding the blob to the current composite, fails to decrypt.
        let stripped = SealedBlob { pcr_binding: None, ..blob.clone() };
        let current = c.transport_mut().tpm.pcrs().composite_hash(&sel);
        let rebound = SealedBlob { pcr_binding: Some((sel, current)), ..blob.clone() };
        for forged in [stripped, rebound] {
            assert_eq!(
                c.unseal(crate::types::handle::SRK, &SRK_AUTH, &data_auth, &forged),
                Err(ClientError::Tpm(rc::DECRYPT_ERROR))
            );
        }
    }

    #[test]
    fn key_with_pcr_binding_enforced() {
        let srk = crate::types::handle::SRK;
        let mut tpm = Tpm::new(b"e2e-keypcr");
        let mut c = owned_client(&mut tpm);
        let sel = PcrSelection::of(&[10]);
        let key_auth = [6u8; 20];
        let nonce = [1u8; 20];
        let blob = c
            .create_wrap_key(srk, &SRK_AUTH, KeyUsage::Signing, 512, &key_auth, Some(&sel))
            .unwrap();
        let unbound =
            c.create_wrap_key(srk, &SRK_AUTH, KeyUsage::Signing, 512, &key_auth, None).unwrap();
        // The binding is sealed into the OAEP label: a blob with it
        // stripped, swapped for another PCR's current composite, or given
        // another digest does not load.
        let other = PcrSelection::of(&[11]);
        let other_now = c.transport_mut().tpm.pcrs().composite_hash(&other);
        let (_, digest) = blob.pcr_binding.unwrap();
        let mut wrong_digest = digest;
        wrong_digest[0] ^= 1;
        for forged in [None, Some((other, other_now)), Some((sel, wrong_digest))] {
            let forged = KeyBlob { pcr_binding: forged, ..blob.clone() };
            assert_eq!(
                c.load_key2(srk, &SRK_AUTH, &forged),
                Err(ClientError::Tpm(rc::DECRYPT_ERROR))
            );
        }
        let h = c.load_key2(srk, &SRK_AUTH, &blob).unwrap();
        let hu = c.load_key2(srk, &SRK_AUTH, &unbound).unwrap();
        c.quote(h, &key_auth, &nonce, &sel).unwrap();
        c.sign(h, &key_auth, b"m").unwrap();
        // Extending a PCR outside the selection changes nothing.
        c.extend(11, &[0xEE; 20]).unwrap();
        c.quote(h, &key_auth, &nonce, &other).unwrap();
        c.sign(h, &key_auth, b"m").unwrap();
        // Extending the selected PCR: the bound key refuses Quote and
        // Sign, the unbound key is unaffected.
        c.extend(10, &[0xEE; 20]).unwrap();
        assert_eq!(c.quote(h, &key_auth, &nonce, &sel), Err(ClientError::Tpm(rc::WRONGPCRVAL)));
        assert_eq!(c.sign(h, &key_auth, b"m"), Err(ClientError::Tpm(rc::WRONGPCRVAL)));
        c.quote(hu, &key_auth, &nonce, &sel).unwrap();
        c.sign(hu, &key_auth, b"m").unwrap();
    }

    #[test]
    fn quote_signature_verifies() {
        let mut tpm = Tpm::new(b"e2e-quote");
        let mut c = owned_client(&mut tpm);
        let key_auth = [6u8; 20];
        let blob = c
            .create_wrap_key(
                crate::types::handle::SRK,
                &SRK_AUTH,
                KeyUsage::Signing,
                512,
                &key_auth,
                None,
            )
            .unwrap();
        let h = c.load_key2(crate::types::handle::SRK, &SRK_AUTH, &blob).unwrap();
        c.extend(7, &[0x11; 20]).unwrap();
        let sel = PcrSelection::of(&[7]);
        let external = [0x42u8; 20];
        let (values, sig) = c.quote(h, &key_auth, &external, &sel).unwrap();
        assert_eq!(values.len(), 1);
        // Reconstruct the quote digest and verify.
        let composite = c.transport_mut().tpm.pcrs().composite_hash(&sel);
        let digest = quote_info_digest(&composite, &external);
        let pk = RsaPublicKey {
            n: BigUint::from_bytes_be(&blob.n),
            e: BigUint::from_u64(tpm_crypto::rsa::E),
        };
        assert!(pk.verify_pkcs1_sha1(&digest, &sig).is_ok());
        // A different external nonce must not verify against this sig.
        let digest2 = quote_info_digest(&composite, &[0x43; 20]);
        assert!(pk.verify_pkcs1_sha1(&digest2, &sig).is_err());
    }

    #[test]
    fn nv_cycle_via_client() {
        let mut tpm = Tpm::new(b"e2e-nv");
        let mut c = owned_client(&mut tpm);
        c.nv_define(&OWNER, 0x10, 32, 0x1).unwrap();
        c.nv_write(Some(&OWNER), 0x10, 0, b"persisted").unwrap();
        assert_eq!(c.nv_read(None, 0x10, 0, 9).unwrap(), b"persisted");
        // Owner-write area refuses unauthenticated writes.
        assert!(matches!(c.nv_write(None, 0x10, 0, b"x"), Err(ClientError::Tpm(_))));
        // Wrong owner auth for define.
        assert!(matches!(c.nv_define(&[9; 20], 0x11, 8, 0), Err(ClientError::Tpm(_))));
    }

    #[test]
    fn pcr_extend_via_client_matches_direct() {
        let mut tpm = Tpm::new(b"e2e-pcr");
        let mut c = TpmClient::new(DirectTransport { tpm: &mut tpm, locality: 0 }, b"cl");
        c.startup_clear().unwrap();
        let v = c.extend(1, &[7; 20]).unwrap();
        assert_eq!(c.pcr_read(1).unwrap(), v);
    }

    #[test]
    fn get_random_via_client() {
        let mut tpm = Tpm::new(b"e2e-rand");
        let mut c = TpmClient::new(DirectTransport { tpm: &mut tpm, locality: 0 }, b"cl");
        c.startup_clear().unwrap();
        let a = c.get_random(32).unwrap();
        let b = c.get_random(32).unwrap();
        assert_eq!(a.len(), 32);
        assert_ne!(a, b);
    }

    #[test]
    fn counter_lifecycle_via_client() {
        let mut tpm = Tpm::new(b"e2e-counter");
        let mut c = owned_client(&mut tpm);
        let cauth = [7u8; 20];
        let (id, v0) = c.create_counter(&OWNER, &cauth, *b"rbak").unwrap();
        assert_eq!(v0, 1);
        assert_eq!(c.increment_counter(id, &cauth).unwrap(), 2);
        assert_eq!(c.increment_counter(id, &cauth).unwrap(), 3);
        let (label, v) = c.read_counter(id).unwrap();
        assert_eq!(label, *b"rbak");
        assert_eq!(v, 3);
        // Wrong auth fails, counter unchanged.
        assert_eq!(
            c.increment_counter(id, &[0; 20]),
            Err(ClientError::Tpm(rc::AUTHFAIL))
        );
        assert_eq!(c.read_counter(id).unwrap().1, 3);
        c.release_counter(id, &cauth).unwrap();
        assert!(matches!(c.read_counter(id), Err(ClientError::Tpm(_))));
    }

    #[test]
    fn create_counter_requires_owner() {
        let mut tpm = Tpm::new(b"e2e-counter2");
        let mut c = owned_client(&mut tpm);
        assert!(matches!(
            c.create_counter(&[9; 20], &[7; 20], *b"nope"),
            Err(ClientError::Tpm(_))
        ));
    }

    #[test]
    fn one_active_counter_per_boot_via_wire() {
        let mut tpm = Tpm::new(b"e2e-counter3");
        let mut c = owned_client(&mut tpm);
        let ca = [7u8; 20];
        let cb = [8u8; 20];
        let (a, _) = c.create_counter(&OWNER, &ca, *b"ctra").unwrap();
        let (b, _) = c.create_counter(&OWNER, &cb, *b"ctrb").unwrap();
        c.increment_counter(a, &ca).unwrap();
        assert_eq!(
            c.increment_counter(b, &cb),
            Err(ClientError::Tpm(rc::BAD_PARAMETER))
        );
        // Resume (not clear — that wipes PCRs but counters persist either
        // way) frees the active slot.
        c.startup_state().unwrap();
        assert_eq!(c.increment_counter(b, &cb).unwrap(), 2);
    }

    #[test]
    fn response_tamper_detected() {
        // A transport that flips a bit in auth1 response bodies.
        struct Tamper<'a>(&'a mut Tpm);
        impl Transport for Tamper<'_> {
            fn transact(&mut self, cmd: &[u8]) -> Vec<u8> {
                let mut resp = self.0.execute(0, cmd);
                let (t, code, _) = crate::tpm::parse_response(&resp).unwrap();
                if t == tag::RSP_AUTH1_COMMAND && code == rc::SUCCESS && resp.len() > 60 {
                    resp[12] ^= 0x01; // flip a bit inside outParams
                }
                resp
            }
        }
        let mut tpm = Tpm::new(b"e2e-tamper");
        {
            let _ = owned_client(&mut tpm);
        }
        let mut c = TpmClient::new(Tamper(&mut tpm), b"cl");
        let blob = c.create_wrap_key(
            crate::types::handle::SRK,
            &SRK_AUTH,
            KeyUsage::Signing,
            512,
            &[0; 20],
            None,
        );
        assert_eq!(blob.err(), Some(ClientError::ResponseAuth));
    }
}
