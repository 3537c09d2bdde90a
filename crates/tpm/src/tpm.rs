//! The TPM 1.2 command engine.
//!
//! [`Tpm::execute`] takes a raw command byte stream at a locality and
//! returns the raw response — the same interface a hardware TPM's TIS
//! buffer exposes, and exactly what the vTPM layer forwards. All parsing,
//! authorization, and state mutation happens here.

use tpm_crypto::drbg::Drbg;
use tpm_crypto::rsa::RsaPrivateKey;
use tpm_crypto::sha1;

use crate::buffer::{BufError, Reader, Writer};
use crate::counter::{CounterError, CounterStore};
use crate::keys::{self, KeyBlob, KeyError, KeyStore, LoadedKey};
use crate::nv::{NvAttributes, NvError, NvStore};
use crate::pcr::{PcrBank, PcrSelection};
use crate::session::{
    out_param_digest, param_digest, AuthCheck, SessionTable,
};
use crate::types::{entity, handle, ordinal, rc, tag, KeyUsage, DIGEST_LEN, NUM_PCRS};

/// Manufacturing/runtime parameters of a TPM instance.
#[derive(Debug, Clone)]
pub struct TpmConfig {
    /// Modulus bits for the EK and SRK. 1024 keeps simulations fast while
    /// exercising identical code paths to 2048-bit production chips.
    pub root_key_bits: usize,
    /// Default modulus bits for created (child) keys.
    pub child_key_bits: usize,
    /// Loaded-key slots.
    pub key_slots: usize,
    /// Concurrent auth sessions.
    pub session_slots: usize,
    /// NV storage budget in bytes.
    pub nv_budget: usize,
}

impl Default for TpmConfig {
    fn default() -> Self {
        TpmConfig {
            root_key_bits: 1024,
            child_key_bits: 512,
            key_slots: 10,
            session_slots: 16,
            nv_budget: 2048,
        }
    }
}

/// A software TPM 1.2.
pub struct Tpm {
    cfg: TpmConfig,
    rng: Drbg,
    started: bool,
    owned: bool,
    owner_auth: [u8; DIGEST_LEN],
    /// Secret proof value mixed into sealed blobs so only this TPM can
    /// unseal them (TPM_PERMANENT_DATA.tpmProof).
    tpm_proof: [u8; DIGEST_LEN],
    ek: RsaPrivateKey,
    srk: Option<LoadedKey>,
    pcrs: PcrBank,
    keys: KeyStore,
    sessions: SessionTable,
    nv: NvStore,
    counters: CounterStore,
    /// Count of commands executed (diagnostics / experiments).
    pub commands_executed: u64,
    /// Bumped on every mutation of *permanent* state (the part
    /// `serialize_state` captures). Lets callers skip re-serialization
    /// and mirroring when a command touched only transient state.
    state_generation: u64,
}

/// A parsed authorization trailer.
#[derive(Debug, Clone, Copy)]
struct AuthBlock {
    handle: u32,
    nonce_odd: [u8; 20],
    continue_session: bool,
    auth: [u8; 20],
}

const AUTH_BLOCK_LEN: usize = 4 + 20 + 1 + 20;
const HEADER_LEN: usize = 2 + 4 + 4;

fn parse_auth_block(data: &[u8]) -> Result<AuthBlock, BufError> {
    let mut r = Reader::new(data);
    Ok(AuthBlock {
        handle: r.u32()?,
        nonce_odd: r.digest()?,
        continue_session: r.u8()? != 0,
        auth: r.digest()?,
    })
}

/// The sealed-data blob produced by TPM_Seal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedBlob {
    /// Optional PCR binding: selection and digest-at-release.
    pub pcr_binding: Option<(PcrSelection, [u8; DIGEST_LEN])>,
    /// OAEP ciphertext: tpmProof || dataAuth || sized data.
    pub enc_data: Vec<u8>,
}

impl SealedBlob {
    /// Wire encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(32 + self.enc_data.len());
        keys::encode_pcr_binding(&mut w, &self.pcr_binding);
        w.sized_u32(&self.enc_data);
        w.into_vec()
    }

    /// Wire decoding; returns the blob and bytes consumed.
    pub fn decode(data: &[u8]) -> Result<(Self, usize), BufError> {
        let mut r = Reader::new(data);
        let pcr_binding = keys::decode_pcr_binding(&mut r)?;
        let enc_data = r.sized_u32()?.to_vec();
        Ok((SealedBlob { pcr_binding, enc_data }, r.position()))
    }
}

impl Tpm {
    /// Manufacture a TPM: generates the EK and the tpmProof from `seed`.
    /// Deterministic for a given seed, so experiments replay identically.
    pub fn manufacture(seed: &[u8], cfg: TpmConfig) -> Self {
        let mut rng = Drbg::new(seed);
        let ek = RsaPrivateKey::generate(cfg.root_key_bits, &mut rng);
        let mut tpm_proof = [0u8; DIGEST_LEN];
        rng.fill_bytes(&mut tpm_proof);
        Tpm {
            keys: KeyStore::new(cfg.key_slots),
            sessions: SessionTable::new(cfg.session_slots),
            nv: NvStore::new(cfg.nv_budget),
            counters: CounterStore::new(4),
            cfg,
            rng,
            started: false,
            owned: false,
            owner_auth: [0; DIGEST_LEN],
            tpm_proof,
            ek,
            srk: None,
            pcrs: PcrBank::new(),
            commands_executed: 0,
            state_generation: 0,
        }
    }

    /// Manufacture with default config.
    pub fn new(seed: &[u8]) -> Self {
        Self::manufacture(seed, TpmConfig::default())
    }

    /// The configuration this TPM was manufactured with.
    pub fn config(&self) -> &TpmConfig {
        &self.cfg
    }

    /// Whether TPM_Startup has run.
    pub fn is_started(&self) -> bool {
        self.started
    }

    /// Whether the TPM has an owner (and hence an SRK).
    pub fn is_owned(&self) -> bool {
        self.owned
    }

    /// Generation of the permanent state. Unchanged between two calls
    /// means `serialize_state` would return identical bytes; callers use
    /// this to elide snapshot + mirror work after read-only commands.
    pub fn state_generation(&self) -> u64 {
        self.state_generation
    }

    /// Record a permanent-state mutation.
    #[inline]
    fn touch_state(&mut self) {
        self.state_generation += 1;
    }

    /// Direct PCR access for platform code (the simulated BIOS/bootloader
    /// measures into PCRs without the command interface, as real
    /// pre-OS firmware effectively does via hardware localities).
    pub fn pcrs_mut(&mut self) -> &mut PcrBank {
        // Conservative: hand-out of mutable PCR access counts as a
        // mutation even if the caller ends up not writing.
        self.touch_state();
        &mut self.pcrs
    }

    /// Read-only PCR access.
    pub fn pcrs(&self) -> &PcrBank {
        &self.pcrs
    }

    /// Pre-provision an NV area with data, bypassing authorization — the
    /// manufacturing path vendors use to install EK certificates, and the
    /// path the benchmark harness uses to grow instance state.
    pub fn provision_nv(&mut self, index: u32, data: &[u8]) -> Result<(), NvError> {
        self.nv.define(
            index,
            data.len(),
            NvAttributes { owner_write: false, ..Default::default() },
        )?;
        self.nv.write(index, 0, data, true)?;
        self.touch_state();
        Ok(())
    }

    /// Release a provisioned NV area (the companion of `provision_nv`,
    /// used by the harness to shrink instance state again).
    pub fn release_nv(&mut self, index: u32) -> Result<(), NvError> {
        self.nv.release(index)?;
        self.touch_state();
        Ok(())
    }

    /// Read-only NV store view (diagnostics and the differential-testing
    /// oracle, which diffs final NV contents against a reference model).
    pub fn nv(&self) -> &NvStore {
        &self.nv
    }

    /// Read-only counter-table view (same callers as [`Tpm::nv`]).
    pub fn counters(&self) -> &CounterStore {
        &self.counters
    }

    /// Toolstack path: create a monotonic counter without the wire-format
    /// authorization plumbing (companion of [`Tpm::provision_nv`]).
    pub fn create_counter(&mut self, auth: [u8; DIGEST_LEN], label: [u8; 4]) -> Result<u32, CounterError> {
        let handle = self.counters.create(auth, label)?;
        self.touch_state();
        Ok(handle)
    }

    /// Toolstack path: increment a counter; returns the new value.
    pub fn increment_counter(&mut self, handle: u32) -> Result<u32, CounterError> {
        let value = self.counters.increment(handle)?;
        self.touch_state();
        Ok(value)
    }

    /// TPM-internal OAEP decryption with the EK.
    ///
    /// Models the endorsement-key operations the 1.2 migration commands
    /// (TPM_CreateMigrationBlob family) perform inside the chip: the EK
    /// private half never leaves the TPM; callers hand in ciphertext and
    /// get plaintext. The vTPM migration protocol binds packages to the
    /// destination platform through this.
    pub fn ek_decrypt_oaep(&self, ciphertext: &[u8]) -> Result<Vec<u8>, tpm_crypto::RsaError> {
        self.ek.decrypt_oaep(ciphertext, b"TCPA")
    }

    /// The EK public key (freely readable, as via TPM_ReadPubek).
    pub fn ek_public(&self) -> tpm_crypto::RsaPublicKey {
        self.ek.public.clone()
    }

    // ---- state-snapshot plumbing (used by the `state` module) -------------

    /// Owner auth secret (crate-internal: snapshots only).
    pub(crate) fn owner_auth_ref(&self) -> &[u8; DIGEST_LEN] {
        &self.owner_auth
    }

    /// tpmProof (crate-internal: snapshots only).
    pub(crate) fn tpm_proof_ref(&self) -> &[u8; DIGEST_LEN] {
        &self.tpm_proof
    }

    /// EK (crate-internal: snapshots only).
    pub(crate) fn ek_ref(&self) -> &RsaPrivateKey {
        &self.ek
    }

    /// SRK (crate-internal: snapshots only).
    pub(crate) fn srk_ref(&self) -> Option<&LoadedKey> {
        self.srk.as_ref()
    }

    /// NV store (crate-internal: snapshots only).
    pub(crate) fn nv_ref(&self) -> &NvStore {
        &self.nv
    }

    /// Mutable NV store (crate-internal: snapshot restore).
    pub(crate) fn nv_mut(&mut self) -> &mut NvStore {
        self.touch_state();
        &mut self.nv
    }

    /// Counter store (crate-internal: snapshots only).
    pub(crate) fn counters_ref(&self) -> &CounterStore {
        &self.counters
    }

    /// Mutable counter store (crate-internal: snapshot restore).
    pub(crate) fn counters_mut(&mut self) -> &mut CounterStore {
        self.touch_state();
        &mut self.counters
    }

    /// Assemble a TPM from restored permanent state.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        cfg: TpmConfig,
        seed: &[u8],
        started: bool,
        owned: bool,
        owner_auth: [u8; DIGEST_LEN],
        tpm_proof: [u8; DIGEST_LEN],
        ek: RsaPrivateKey,
        srk: Option<LoadedKey>,
        pcrs: PcrBank,
    ) -> Self {
        Tpm {
            keys: KeyStore::new(cfg.key_slots),
            sessions: SessionTable::new(cfg.session_slots),
            nv: NvStore::new(cfg.nv_budget),
            counters: CounterStore::new(4),
            cfg,
            rng: Drbg::new(seed),
            started,
            owned,
            owner_auth,
            tpm_proof,
            ek,
            srk,
            pcrs,
            commands_executed: 0,
            state_generation: 0,
        }
    }

    /// Execute one command at `locality`, producing the response bytes.
    pub fn execute(&mut self, locality: u8, request: &[u8]) -> Vec<u8> {
        self.commands_executed += 1;
        match self.execute_inner(locality, request) {
            Ok(resp) => resp,
            Err(code) => error_response(code),
        }
    }

    fn execute_inner(&mut self, locality: u8, request: &[u8]) -> Result<Vec<u8>, u32> {
        if request.len() < HEADER_LEN {
            return Err(rc::BAD_PARAM_SIZE);
        }
        let mut r = Reader::new(request);
        let tag_v = r.u16().map_err(|_| rc::BAD_PARAM_SIZE)?;
        let size = r.u32().map_err(|_| rc::BAD_PARAM_SIZE)? as usize;
        let ord = r.u32().map_err(|_| rc::BAD_PARAM_SIZE)?;
        if size != request.len() {
            return Err(rc::BAD_PARAM_SIZE);
        }

        // Startup gating: only Startup is allowed before Startup.
        if !self.started && ord != ordinal::STARTUP {
            return Err(rc::INVALID_POSTINIT);
        }

        let n_auth = match tag_v {
            tag::RQU_COMMAND => 0usize,
            tag::RQU_AUTH1_COMMAND => 1,
            tag::RQU_AUTH2_COMMAND => 2,
            _ => return Err(rc::BADTAG),
        };
        let trailer = n_auth * AUTH_BLOCK_LEN;
        if request.len() < HEADER_LEN + trailer {
            return Err(rc::BAD_PARAM_SIZE);
        }
        let params = &request[HEADER_LEN..request.len() - trailer];
        let auth1 = if n_auth >= 1 {
            Some(
                parse_auth_block(&request[request.len() - trailer..])
                    .map_err(|_| rc::BAD_PARAM_SIZE)?,
            )
        } else {
            None
        };
        let auth2 = if n_auth == 2 {
            Some(
                parse_auth_block(&request[request.len() - AUTH_BLOCK_LEN..])
                    .map_err(|_| rc::BAD_PARAM_SIZE)?,
            )
        } else {
            None
        };

        match ord {
            ordinal::STARTUP => self.cmd_startup(params),
            ordinal::GET_RANDOM => self.cmd_get_random(params),
            ordinal::PCR_READ => self.cmd_pcr_read(params),
            ordinal::EXTEND => self.cmd_extend(params),
            ordinal::PCR_RESET => self.cmd_pcr_reset(params, locality),
            ordinal::OIAP => self.cmd_oiap(params),
            ordinal::OSAP => self.cmd_osap(params),
            ordinal::READ_PUBEK => self.cmd_read_pubek(params),
            ordinal::GET_CAPABILITY => self.cmd_get_capability(params),
            ordinal::FLUSH_SPECIFIC => self.cmd_flush_specific(params),
            ordinal::SAVE_STATE => Ok(simple_response(rc::SUCCESS, &[])),
            ordinal::TAKE_OWNERSHIP => {
                self.cmd_take_ownership(params, auth1.ok_or(rc::AUTHFAIL)?, ord)
            }
            ordinal::OWNER_CLEAR => self.cmd_owner_clear(params, auth1.ok_or(rc::AUTHFAIL)?, ord),
            ordinal::CREATE_WRAP_KEY => {
                self.cmd_create_wrap_key(params, auth1.ok_or(rc::AUTHFAIL)?, ord)
            }
            ordinal::LOAD_KEY2 => self.cmd_load_key2(params, auth1.ok_or(rc::AUTHFAIL)?, ord),
            ordinal::SEAL => self.cmd_seal(params, auth1.ok_or(rc::AUTHFAIL)?, ord),
            ordinal::UNSEAL => self.cmd_unseal(
                params,
                auth1.ok_or(rc::AUTHFAIL)?,
                auth2.ok_or(rc::AUTHFAIL)?,
                ord,
            ),
            ordinal::QUOTE => self.cmd_quote(params, auth1.ok_or(rc::AUTHFAIL)?, ord),
            ordinal::SIGN => self.cmd_sign(params, auth1.ok_or(rc::AUTHFAIL)?, ord),
            ordinal::NV_DEFINE_SPACE => {
                self.cmd_nv_define(params, auth1.ok_or(rc::AUTHFAIL)?, ord)
            }
            ordinal::NV_WRITE_VALUE => self.cmd_nv_write(params, auth1, ord),
            ordinal::NV_READ_VALUE => self.cmd_nv_read(params, auth1, ord),
            ordinal::CREATE_COUNTER => {
                self.cmd_create_counter(params, auth1.ok_or(rc::AUTHFAIL)?, ord)
            }
            ordinal::INCREMENT_COUNTER => {
                self.cmd_increment_counter(params, auth1.ok_or(rc::AUTHFAIL)?, ord)
            }
            ordinal::READ_COUNTER => self.cmd_read_counter(params),
            ordinal::RELEASE_COUNTER => {
                self.cmd_release_counter(params, auth1.ok_or(rc::AUTHFAIL)?, ord)
            }
            _ => Err(rc::BAD_ORDINAL),
        }
    }

    // ---- unauthorized commands ---------------------------------------------

    fn cmd_startup(&mut self, params: &[u8]) -> Result<Vec<u8>, u32> {
        let mut r = Reader::new(params);
        let startup_type = r.u16().map_err(|_| rc::BAD_PARAM_SIZE)?;
        match startup_type {
            // TPM_ST_CLEAR
            0x0001 => {
                self.pcrs = PcrBank::new();
                self.keys.clear();
                self.sessions.clear();
                self.counters.startup();
                self.started = true;
                self.touch_state();
                Ok(simple_response(rc::SUCCESS, &[]))
            }
            // TPM_ST_STATE — resume (vTPM resume path keeps PCRs).
            0x0002 => {
                self.sessions.clear();
                self.counters.startup();
                if !self.started {
                    self.started = true;
                    self.touch_state();
                }
                Ok(simple_response(rc::SUCCESS, &[]))
            }
            _ => Err(rc::BAD_PARAMETER),
        }
    }

    fn cmd_get_random(&mut self, params: &[u8]) -> Result<Vec<u8>, u32> {
        let mut r = Reader::new(params);
        let n = r.u32().map_err(|_| rc::BAD_PARAM_SIZE)? as usize;
        // The spec caps output at what the internal buffer holds.
        let n = n.min(4096);
        let bytes = self.rng.bytes(n);
        let mut out = Writer::with_capacity(4 + n);
        out.sized_u32(&bytes);
        Ok(simple_response(rc::SUCCESS, out.as_slice()))
    }

    fn cmd_pcr_read(&mut self, params: &[u8]) -> Result<Vec<u8>, u32> {
        let mut r = Reader::new(params);
        let idx = r.u32().map_err(|_| rc::BAD_PARAM_SIZE)? as usize;
        let v = self.pcrs.read(idx).ok_or(rc::BADINDEX)?;
        Ok(simple_response(rc::SUCCESS, &v))
    }

    fn cmd_extend(&mut self, params: &[u8]) -> Result<Vec<u8>, u32> {
        let mut r = Reader::new(params);
        let idx = r.u32().map_err(|_| rc::BAD_PARAM_SIZE)? as usize;
        let digest = r.digest().map_err(|_| rc::BAD_PARAM_SIZE)?;
        let v = self.pcrs.extend(idx, &digest).ok_or(rc::BADINDEX)?;
        self.touch_state();
        Ok(simple_response(rc::SUCCESS, &v))
    }

    fn cmd_pcr_reset(&mut self, params: &[u8], locality: u8) -> Result<Vec<u8>, u32> {
        let (sel, _) = PcrSelection::decode(params).ok_or(rc::BAD_PARAM_SIZE)?;
        for i in sel.indices() {
            if !self.pcrs.reset(i, locality) {
                return Err(rc::BAD_LOCALITY);
            }
        }
        self.touch_state();
        Ok(simple_response(rc::SUCCESS, &[]))
    }

    fn cmd_oiap(&mut self, _params: &[u8]) -> Result<Vec<u8>, u32> {
        let (h, nonce_even) = self.sessions.open_oiap(&mut self.rng).ok_or(rc::RESOURCES)?;
        let mut out = Writer::with_capacity(24);
        out.u32(h).bytes(&nonce_even);
        Ok(simple_response(rc::SUCCESS, out.as_slice()))
    }

    fn cmd_osap(&mut self, params: &[u8]) -> Result<Vec<u8>, u32> {
        let mut r = Reader::new(params);
        let entity_type = r.u16().map_err(|_| rc::BAD_PARAM_SIZE)?;
        let entity_value = r.u32().map_err(|_| rc::BAD_PARAM_SIZE)?;
        let nonce_odd_osap = r.digest().map_err(|_| rc::BAD_PARAM_SIZE)?;
        let (norm_entity, auth_secret) = self.entity_auth(entity_type, entity_value)?;
        let (h, nonce_even, nonce_even_osap) = self
            .sessions
            .open_osap(norm_entity.0, norm_entity.1, &auth_secret, &nonce_odd_osap, &mut self.rng)
            .ok_or(rc::RESOURCES)?;
        let mut out = Writer::with_capacity(44);
        out.u32(h).bytes(&nonce_even).bytes(&nonce_even_osap);
        Ok(simple_response(rc::SUCCESS, out.as_slice()))
    }

    fn cmd_read_pubek(&mut self, _params: &[u8]) -> Result<Vec<u8>, u32> {
        let mut out = Writer::new();
        out.sized_u32(&self.ek.public.n.to_bytes_be());
        Ok(simple_response(rc::SUCCESS, out.as_slice()))
    }

    fn cmd_get_capability(&mut self, params: &[u8]) -> Result<Vec<u8>, u32> {
        let mut r = Reader::new(params);
        let cap = r.u32().map_err(|_| rc::BAD_PARAM_SIZE)?;
        let sub = r.u32().map_err(|_| rc::BAD_PARAM_SIZE)?;
        // TPM_CAP_PROPERTY with a few TPM_CAP_PROP_* subcaps.
        let value: u32 = match (cap, sub) {
            (0x0005, 0x0101) => NUM_PCRS as u32,             // PROP_PCR
            (0x0005, 0x0102) => 0x0102,                      // PROP_MANUFACTURER-ish
            (0x0005, 0x0103) => self.cfg.key_slots as u32,   // PROP_SLOTS
            (0x0005, 0x010B) => self.owned as u32,           // owner present (custom)
            _ => return Err(rc::BAD_PARAMETER),
        };
        let mut out = Writer::new();
        out.sized_u32(&value.to_be_bytes());
        Ok(simple_response(rc::SUCCESS, out.as_slice()))
    }

    fn cmd_flush_specific(&mut self, params: &[u8]) -> Result<Vec<u8>, u32> {
        let mut r = Reader::new(params);
        let h = r.u32().map_err(|_| rc::BAD_PARAM_SIZE)?;
        let resource_type = r.u32().map_err(|_| rc::BAD_PARAM_SIZE)?;
        match resource_type {
            // TPM_RT_KEY
            0x0000_0001 => self.keys.flush(h).map_err(|_| rc::INVALID_KEYHANDLE)?,
            // TPM_RT_AUTH
            0x0000_0002 => {
                if !self.sessions.flush(h) {
                    return Err(rc::INVALID_AUTHHANDLE);
                }
            }
            _ => return Err(rc::BAD_PARAMETER),
        }
        Ok(simple_response(rc::SUCCESS, &[]))
    }

    // ---- authorized commands ------------------------------------------------

    fn cmd_take_ownership(
        &mut self,
        params: &[u8],
        auth: AuthBlock,
        ord: u32,
    ) -> Result<Vec<u8>, u32> {
        if self.owned {
            return Err(rc::OWNER_SET);
        }
        let mut r = Reader::new(params);
        let enc_owner_auth = r.sized_u32().map_err(|_| rc::BAD_PARAM_SIZE)?;
        let enc_srk_auth = r.sized_u32().map_err(|_| rc::BAD_PARAM_SIZE)?;
        let owner_auth: [u8; 20] = self
            .ek
            .decrypt_oaep(enc_owner_auth, keys::OAEP_LABEL)
            .map_err(|_| rc::DECRYPT_ERROR)?
            .try_into()
            .map_err(|_| rc::BAD_PARAMETER)?;
        let srk_auth: [u8; 20] = self
            .ek
            .decrypt_oaep(enc_srk_auth, keys::OAEP_LABEL)
            .map_err(|_| rc::DECRYPT_ERROR)?
            .try_into()
            .map_err(|_| rc::BAD_PARAMETER)?;

        // The auth session is keyed by the *new* owner auth.
        let digest = param_digest(ord, params);
        let key = self
            .sessions
            .resolve_key(auth.handle, (entity::OWNER, handle::OWNER), &owner_auth)
            .ok_or(rc::INVALID_AUTHHANDLE)?;
        let (check, fresh) = self.sessions.verify(
            auth.handle,
            (entity::OWNER, handle::OWNER),
            &owner_auth,
            &digest,
            &auth.nonce_odd,
            auth.continue_session,
            &auth.auth,
            &mut self.rng,
        );
        self.auth_ok(check)?;

        // Generate the SRK.
        let srk_private = RsaPrivateKey::generate(self.cfg.root_key_bits, &mut self.rng);
        let srk_pub = srk_private.public.n.to_bytes_be();
        self.srk = Some(LoadedKey {
            usage: KeyUsage::Storage,
            private: srk_private,
            usage_auth: srk_auth,
            pcr_binding: None,
        });
        self.owner_auth = owner_auth;
        self.owned = true;
        self.touch_state();

        let mut out = Writer::new();
        out.sized_u32(&srk_pub);
        Ok(auth1_response(
            rc::SUCCESS,
            ord,
            out.as_slice(),
            &key,
            &fresh.expect("verified"),
            &auth.nonce_odd,
            auth.continue_session,
        ))
    }

    fn cmd_owner_clear(
        &mut self,
        params: &[u8],
        auth: AuthBlock,
        ord: u32,
    ) -> Result<Vec<u8>, u32> {
        if !self.owned {
            return Err(rc::NOSRK);
        }
        let owner_auth = self.owner_auth;
        let (key, fresh) =
            self.check_auth1(&auth, (entity::OWNER, handle::OWNER), &owner_auth, ord, params)?;
        self.owned = false;
        self.owner_auth = [0; DIGEST_LEN];
        self.srk = None;
        self.keys.clear();
        self.touch_state();
        Ok(auth1_response(rc::SUCCESS, ord, &[], &key, &fresh, &auth.nonce_odd, auth.continue_session))
    }

    fn cmd_create_wrap_key(
        &mut self,
        params: &[u8],
        auth: AuthBlock,
        ord: u32,
    ) -> Result<Vec<u8>, u32> {
        let mut r = Reader::new(params);
        let parent_handle = r.u32().map_err(|_| rc::BAD_PARAM_SIZE)?;
        let enc_usage_auth = r.digest().map_err(|_| rc::BAD_PARAM_SIZE)?;
        let usage = KeyUsage::from_u16(r.u16().map_err(|_| rc::BAD_PARAM_SIZE)?)
            .ok_or(rc::BAD_PARAMETER)?;
        let bits = r.u32().map_err(|_| rc::BAD_PARAM_SIZE)? as usize;
        let pcr_binding = self.read_pcr_binding(&mut r, params)?;

        if !(512..=4096).contains(&bits) || !bits.is_multiple_of(2) {
            return Err(rc::BAD_PARAMETER);
        }
        let parent = self.key(parent_handle)?;
        if !parent.usage.can_store() {
            return Err(rc::INVALID_KEYUSAGE);
        }
        let parent_auth = parent.usage_auth;
        // The new key's usageAuth arrives ADIP-encrypted: XOR with
        // SHA1(sharedSecret || nonceEven). Requires an OSAP session.
        let session = self.sessions.get(auth.handle).ok_or(rc::INVALID_AUTHHANDLE)?;
        let nonce_even_before = session.nonce_even;
        let key = self
            .sessions
            .resolve_key(auth.handle, (entity::KEYHANDLE, parent_handle), &parent_auth)
            .ok_or(rc::AUTHFAIL)?;
        let (check, fresh) = self.sessions.verify(
            auth.handle,
            (entity::KEYHANDLE, parent_handle),
            &parent_auth,
            &param_digest(ord, params),
            &auth.nonce_odd,
            auth.continue_session,
            &auth.auth,
            &mut self.rng,
        );
        self.auth_ok(check)?;
        let usage_auth = adip_decrypt(&key, &nonce_even_before, &enc_usage_auth);

        let parent = loaded_key(&self.srk, &self.keys, parent_handle)?;
        let blob =
            keys::create_wrap_key(parent, usage, bits, usage_auth, pcr_binding, &mut self.rng)
                .map_err(key_rc)?;
        let mut out = Writer::new();
        out.sized_u32(&blob.encode());
        Ok(auth1_response(
            rc::SUCCESS,
            ord,
            out.as_slice(),
            &key,
            &fresh.expect("verified"),
            &auth.nonce_odd,
            auth.continue_session,
        ))
    }

    fn cmd_load_key2(&mut self, params: &[u8], auth: AuthBlock, ord: u32) -> Result<Vec<u8>, u32> {
        let mut r = Reader::new(params);
        let parent_handle = r.u32().map_err(|_| rc::BAD_PARAM_SIZE)?;
        let blob_bytes = r.sized_u32().map_err(|_| rc::BAD_PARAM_SIZE)?;
        let parent_auth = self.key(parent_handle)?.usage_auth;
        let (key, fresh) = self.check_auth1(
            &auth,
            (entity::KEYHANDLE, parent_handle),
            &parent_auth,
            ord,
            params,
        )?;
        let blob = match KeyBlob::decode(blob_bytes) {
            Ok((blob, used)) if used == blob_bytes.len() => blob,
            _ => return Err(rc::BAD_PARAMETER),
        };
        let loaded = keys::unwrap_key(self.key(parent_handle)?, &blob).map_err(key_rc)?;
        let new_handle = self.keys.load(loaded).map_err(key_rc)?;
        let mut out = Writer::new();
        out.u32(new_handle);
        Ok(auth1_response(rc::SUCCESS, ord, out.as_slice(), &key, &fresh, &auth.nonce_odd, auth.continue_session))
    }

    fn cmd_seal(&mut self, params: &[u8], auth: AuthBlock, ord: u32) -> Result<Vec<u8>, u32> {
        let mut r = Reader::new(params);
        let key_handle = r.u32().map_err(|_| rc::BAD_PARAM_SIZE)?;
        let enc_data_auth = r.digest().map_err(|_| rc::BAD_PARAM_SIZE)?;
        let pcr_binding = self.read_pcr_binding(&mut r, params)?;
        let data = r.sized_u32().map_err(|_| rc::BAD_PARAM_SIZE)?.to_vec();

        let storage = self.key(key_handle)?;
        if !storage.usage.can_store() {
            return Err(rc::INVALID_KEYUSAGE);
        }
        let storage_auth = storage.usage_auth;
        let session = self.sessions.get(auth.handle).ok_or(rc::INVALID_AUTHHANDLE)?;
        let nonce_even_before = session.nonce_even;
        let key = self
            .sessions
            .resolve_key(auth.handle, (entity::KEYHANDLE, key_handle), &storage_auth)
            .ok_or(rc::AUTHFAIL)?;
        let (check, fresh) = self.sessions.verify(
            auth.handle,
            (entity::KEYHANDLE, key_handle),
            &storage_auth,
            &param_digest(ord, params),
            &auth.nonce_odd,
            auth.continue_session,
            &auth.auth,
            &mut self.rng,
        );
        self.auth_ok(check)?;
        let data_auth = adip_decrypt(&key, &nonce_even_before, &enc_data_auth);

        // Payload: tpmProof || dataAuth || sized data.
        let mut payload = Writer::with_capacity(42 + data.len());
        payload.bytes(&self.tpm_proof);
        payload.bytes(&data_auth);
        payload.sized_u16(&data);
        let enc_data = loaded_key(&self.srk, &self.keys, key_handle)?
            .public()
            .encrypt_oaep(payload.as_slice(), &keys::binding_label(&pcr_binding), &mut self.rng)
            .map_err(|_| rc::BAD_PARAMETER /* data too large for key */)?;
        let blob = SealedBlob { pcr_binding, enc_data };
        let mut out = Writer::new();
        out.sized_u32(&blob.encode());
        Ok(auth1_response(
            rc::SUCCESS,
            ord,
            out.as_slice(),
            &key,
            &fresh.expect("verified"),
            &auth.nonce_odd,
            auth.continue_session,
        ))
    }

    fn cmd_unseal(
        &mut self,
        params: &[u8],
        auth_key: AuthBlock,
        auth_data: AuthBlock,
        ord: u32,
    ) -> Result<Vec<u8>, u32> {
        let mut r = Reader::new(params);
        let key_handle = r.u32().map_err(|_| rc::BAD_PARAM_SIZE)?;
        let blob_bytes = r.sized_u32().map_err(|_| rc::BAD_PARAM_SIZE)?;
        let blob = match SealedBlob::decode(blob_bytes) {
            Ok((blob, used)) if used == blob_bytes.len() => blob,
            _ => return Err(rc::BAD_PARAMETER),
        };
        // First session authorizes the key.
        let storage_auth = self.key(key_handle)?.usage_auth;
        let (_k1, fresh1) = self.check_auth1(
            &auth_key,
            (entity::KEYHANDLE, key_handle),
            &storage_auth,
            ord,
            params,
        )?;

        // Decrypt and validate the blob.
        let payload = self
            .key(key_handle)?
            .private
            .decrypt_oaep(&blob.enc_data, &keys::binding_label(&blob.pcr_binding))
            .map_err(|_| rc::DECRYPT_ERROR)?;
        let mut pr = Reader::new(&payload);
        let proof = pr.digest().map_err(|_| rc::DECRYPT_ERROR)?;
        let data_auth = pr.digest().map_err(|_| rc::DECRYPT_ERROR)?;
        let data = pr.sized_u16().map_err(|_| rc::DECRYPT_ERROR)?.to_vec();
        if proof != self.tpm_proof {
            // Blob sealed by a different TPM.
            return Err(rc::DECRYPT_ERROR);
        }
        self.binding_holds(&blob.pcr_binding)?;

        // Second session proves knowledge of the data auth.
        let (key2, fresh2) = self.check_auth1(
            &auth_data,
            (entity::KEYHANDLE, key_handle),
            &data_auth,
            ord,
            params,
        )?;

        let mut out = Writer::new();
        out.sized_u32(&data);
        Ok(auth2_response(
            rc::SUCCESS,
            ord,
            out.as_slice(),
            &_k1,
            &fresh1,
            &auth_key.nonce_odd,
            auth_key.continue_session,
            &key2,
            &fresh2,
            &auth_data.nonce_odd,
            auth_data.continue_session,
        ))
    }

    fn cmd_quote(&mut self, params: &[u8], auth: AuthBlock, ord: u32) -> Result<Vec<u8>, u32> {
        let mut r = Reader::new(params);
        let key_handle = r.u32().map_err(|_| rc::BAD_PARAM_SIZE)?;
        let external_data = r.digest().map_err(|_| rc::BAD_PARAM_SIZE)?;
        let (sel, _) =
            PcrSelection::decode(&params[r.position()..]).ok_or(rc::BAD_PARAM_SIZE)?;
        let signing_auth = self.signing_auth(key_handle)?;
        let (key, fresh) =
            self.check_auth1(&auth, (entity::KEYHANDLE, key_handle), &signing_auth, ord, params)?;
        let signing = self.key(key_handle)?;
        self.binding_holds(&signing.pcr_binding)?;

        let composite = self.pcrs.composite_hash(&sel);
        let quote_info = quote_info_digest(&composite, &external_data);
        let sig = signing.private.sign_pkcs1_sha1(&quote_info).map_err(|_| rc::BAD_PARAMETER)?;

        // Response: pcrData (selection + u32 size + values) + sized sig.
        let mut out = Writer::new();
        out.bytes(&sel.encode());
        let indices = sel.indices();
        out.u32((indices.len() * DIGEST_LEN) as u32);
        for i in indices {
            out.bytes(&self.pcrs.read(i).expect("selection validated"));
        }
        out.sized_u32(&sig);
        Ok(auth1_response(rc::SUCCESS, ord, out.as_slice(), &key, &fresh, &auth.nonce_odd, auth.continue_session))
    }

    fn cmd_sign(&mut self, params: &[u8], auth: AuthBlock, ord: u32) -> Result<Vec<u8>, u32> {
        let mut r = Reader::new(params);
        let key_handle = r.u32().map_err(|_| rc::BAD_PARAM_SIZE)?;
        let data = r.sized_u32().map_err(|_| rc::BAD_PARAM_SIZE)?.to_vec();
        let signing_auth = self.signing_auth(key_handle)?;
        let (key, fresh) =
            self.check_auth1(&auth, (entity::KEYHANDLE, key_handle), &signing_auth, ord, params)?;
        let signing = self.key(key_handle)?;
        self.binding_holds(&signing.pcr_binding)?;
        let sig = signing.private.sign_pkcs1_sha1(&data).map_err(|_| rc::BAD_PARAMETER)?;
        let mut out = Writer::new();
        out.sized_u32(&sig);
        Ok(auth1_response(rc::SUCCESS, ord, out.as_slice(), &key, &fresh, &auth.nonce_odd, auth.continue_session))
    }

    fn cmd_nv_define(&mut self, params: &[u8], auth: AuthBlock, ord: u32) -> Result<Vec<u8>, u32> {
        if !self.owned {
            return Err(rc::NOSRK);
        }
        let mut r = Reader::new(params);
        let index = r.u32().map_err(|_| rc::BAD_PARAM_SIZE)?;
        let size = r.u32().map_err(|_| rc::BAD_PARAM_SIZE)? as usize;
        let attr_bits = r.u32().map_err(|_| rc::BAD_PARAM_SIZE)?;
        let owner_auth = self.owner_auth;
        let (key, fresh) =
            self.check_auth1(&auth, (entity::OWNER, handle::OWNER), &owner_auth, ord, params)?;
        let attrs = NvAttributes {
            owner_write: attr_bits & 0x1 != 0,
            owner_read: attr_bits & 0x2 != 0,
            write_once: attr_bits & 0x4 != 0,
            read_pcr: None,
        };
        self.nv.define(index, size, attrs).map_err(nv_rc)?;
        self.touch_state();
        Ok(auth1_response(rc::SUCCESS, ord, &[], &key, &fresh, &auth.nonce_odd, auth.continue_session))
    }

    fn cmd_nv_write(
        &mut self,
        params: &[u8],
        auth: Option<AuthBlock>,
        ord: u32,
    ) -> Result<Vec<u8>, u32> {
        let mut r = Reader::new(params);
        let index = r.u32().map_err(|_| rc::BAD_PARAM_SIZE)?;
        let offset = r.u32().map_err(|_| rc::BAD_PARAM_SIZE)? as usize;
        let data = r.sized_u32().map_err(|_| rc::BAD_PARAM_SIZE)?.to_vec();
        match auth {
            Some(a) => {
                let owner_auth = self.owner_auth;
                let (key, fresh) =
                    self.check_auth1(&a, (entity::OWNER, handle::OWNER), &owner_auth, ord, params)?;
                self.nv.write(index, offset, &data, true).map_err(nv_rc)?;
                self.touch_state();
                Ok(auth1_response(rc::SUCCESS, ord, &[], &key, &fresh, &a.nonce_odd, a.continue_session))
            }
            None => {
                self.nv.write(index, offset, &data, false).map_err(nv_rc)?;
                self.touch_state();
                Ok(simple_response(rc::SUCCESS, &[]))
            }
        }
    }

    fn cmd_nv_read(
        &mut self,
        params: &[u8],
        auth: Option<AuthBlock>,
        ord: u32,
    ) -> Result<Vec<u8>, u32> {
        let mut r = Reader::new(params);
        let index = r.u32().map_err(|_| rc::BAD_PARAM_SIZE)?;
        let offset = r.u32().map_err(|_| rc::BAD_PARAM_SIZE)? as usize;
        let len = r.u32().map_err(|_| rc::BAD_PARAM_SIZE)? as usize;
        match auth {
            Some(a) => {
                let owner_auth = self.owner_auth;
                let (key, fresh) =
                    self.check_auth1(&a, (entity::OWNER, handle::OWNER), &owner_auth, ord, params)?;
                let data = self.nv.read(index, offset, len, true, &self.pcrs).map_err(nv_rc)?;
                let mut out = Writer::new();
                out.sized_u32(&data);
                Ok(auth1_response(rc::SUCCESS, ord, out.as_slice(), &key, &fresh, &a.nonce_odd, a.continue_session))
            }
            None => {
                let data = self.nv.read(index, offset, len, false, &self.pcrs).map_err(nv_rc)?;
                let mut out = Writer::new();
                out.sized_u32(&data);
                Ok(simple_response(rc::SUCCESS, out.as_slice()))
            }
        }
    }

    /// TPM_CreateCounter (owner-authorized via OSAP; counter auth arrives
    /// ADIP-encrypted like every new-entity auth).
    fn cmd_create_counter(
        &mut self,
        params: &[u8],
        auth: AuthBlock,
        ord: u32,
    ) -> Result<Vec<u8>, u32> {
        if !self.owned {
            return Err(rc::NOSRK);
        }
        let mut r = Reader::new(params);
        let enc_counter_auth = r.digest().map_err(|_| rc::BAD_PARAM_SIZE)?;
        let label: [u8; 4] = r
            .bytes(4)
            .map_err(|_| rc::BAD_PARAM_SIZE)?
            .try_into()
            .expect("4 bytes");
        let session = self.sessions.get(auth.handle).ok_or(rc::INVALID_AUTHHANDLE)?;
        let nonce_even_before = session.nonce_even;
        let owner_auth = self.owner_auth;
        let key = self
            .sessions
            .resolve_key(auth.handle, (entity::OWNER, handle::OWNER), &owner_auth)
            .ok_or(rc::AUTHFAIL)?;
        let (check, fresh) = self.sessions.verify(
            auth.handle,
            (entity::OWNER, handle::OWNER),
            &owner_auth,
            &param_digest(ord, params),
            &auth.nonce_odd,
            auth.continue_session,
            &auth.auth,
            &mut self.rng,
        );
        self.auth_ok(check)?;
        let counter_auth = adip_decrypt(&key, &nonce_even_before, &enc_counter_auth);
        let count_id = self.counters.create(counter_auth, label).map_err(counter_rc)?;
        self.touch_state();
        let value = self.counters.read(count_id).expect("just created").value;
        let mut out = Writer::new();
        out.u32(count_id).u32(value);
        Ok(auth1_response(
            rc::SUCCESS,
            ord,
            out.as_slice(),
            &key,
            &fresh.expect("verified"),
            &auth.nonce_odd,
            auth.continue_session,
        ))
    }

    /// TPM_IncrementCounter (counter-authorized).
    fn cmd_increment_counter(
        &mut self,
        params: &[u8],
        auth: AuthBlock,
        ord: u32,
    ) -> Result<Vec<u8>, u32> {
        let mut r = Reader::new(params);
        let count_id = r.u32().map_err(|_| rc::BAD_PARAM_SIZE)?;
        let counter_auth = self.counters.read(count_id).map_err(counter_rc)?.auth;
        let (key, fresh) = self.check_auth1(
            &auth,
            (entity::COUNTER, count_id),
            &counter_auth,
            ord,
            params,
        )?;
        let value = self.counters.increment(count_id).map_err(counter_rc)?;
        self.touch_state();
        let mut out = Writer::new();
        out.u32(value);
        Ok(auth1_response(rc::SUCCESS, ord, out.as_slice(), &key, &fresh, &auth.nonce_odd, auth.continue_session))
    }

    /// TPM_ReadCounter (no authorization, per spec).
    fn cmd_read_counter(&mut self, params: &[u8]) -> Result<Vec<u8>, u32> {
        let mut r = Reader::new(params);
        let count_id = r.u32().map_err(|_| rc::BAD_PARAM_SIZE)?;
        let counter = self.counters.read(count_id).map_err(counter_rc)?;
        let mut out = Writer::new();
        out.bytes(&counter.label).u32(counter.value);
        Ok(simple_response(rc::SUCCESS, out.as_slice()))
    }

    /// TPM_ReleaseCounter (counter-authorized).
    fn cmd_release_counter(
        &mut self,
        params: &[u8],
        auth: AuthBlock,
        ord: u32,
    ) -> Result<Vec<u8>, u32> {
        let mut r = Reader::new(params);
        let count_id = r.u32().map_err(|_| rc::BAD_PARAM_SIZE)?;
        let counter_auth = self.counters.read(count_id).map_err(counter_rc)?.auth;
        let (key, fresh) = self.check_auth1(
            &auth,
            (entity::COUNTER, count_id),
            &counter_auth,
            ord,
            params,
        )?;
        self.counters.release(count_id).map_err(counter_rc)?;
        self.touch_state();
        Ok(auth1_response(rc::SUCCESS, ord, &[], &key, &fresh, &auth.nonce_odd, auth.continue_session))
    }

    // ---- helpers -------------------------------------------------------------

    /// Resolve a key handle (SRK or transient).
    fn key(&self, h: u32) -> Result<&LoadedKey, u32> {
        loaded_key(&self.srk, &self.keys, h)
    }

    /// The usage auth of signing key `h`, copied out so the session
    /// check can borrow `self` mutably; the key is borrowed again for
    /// the RSA step.
    fn signing_auth(&self, h: u32) -> Result<[u8; DIGEST_LEN], u32> {
        let signing = self.key(h)?;
        if !signing.usage.can_sign() {
            return Err(rc::INVALID_KEYUSAGE);
        }
        Ok(signing.usage_auth)
    }

    /// Normalize an OSAP entity and fetch its auth secret.
    fn entity_auth(&self, etype: u16, evalue: u32) -> Result<((u16, u32), [u8; DIGEST_LEN]), u32> {
        match etype {
            entity::OWNER => {
                if !self.owned {
                    return Err(rc::NOSRK);
                }
                Ok(((entity::OWNER, handle::OWNER), self.owner_auth))
            }
            entity::SRK => {
                let srk = self.srk.as_ref().ok_or(rc::NOSRK)?;
                Ok(((entity::KEYHANDLE, handle::SRK), srk.usage_auth))
            }
            entity::KEYHANDLE => {
                let key = self.key(evalue)?;
                Ok(((entity::KEYHANDLE, evalue), key.usage_auth))
            }
            entity::COUNTER => {
                let counter = self.counters.read(evalue).map_err(counter_rc)?;
                Ok(((entity::COUNTER, evalue), counter.auth))
            }
            _ => Err(rc::BAD_PARAMETER),
        }
    }

    /// Standard auth1 verification; returns (hmac key, fresh nonceEven).
    fn check_auth1(
        &mut self,
        auth: &AuthBlock,
        entity: (u16, u32),
        entity_auth: &[u8; DIGEST_LEN],
        ord: u32,
        params: &[u8],
    ) -> Result<([u8; DIGEST_LEN], [u8; 20]), u32> {
        let key = self
            .sessions
            .resolve_key(auth.handle, entity, entity_auth)
            .ok_or(rc::INVALID_AUTHHANDLE)?;
        let (check, fresh) = self.sessions.verify(
            auth.handle,
            entity,
            entity_auth,
            &param_digest(ord, params),
            &auth.nonce_odd,
            auth.continue_session,
            &auth.auth,
            &mut self.rng,
        );
        self.auth_ok(check)?;
        Ok((key, fresh.expect("verified")))
    }

    fn auth_ok(&self, check: AuthCheck) -> Result<(), u32> {
        match check {
            AuthCheck::Ok => Ok(()),
            AuthCheck::Failed => Err(rc::AUTHFAIL),
            AuthCheck::BadHandle => Err(rc::INVALID_AUTHHANDLE),
        }
    }

    /// `Err(WRONGPCRVAL)` unless a blob's PCR `binding` (if any) matches
    /// the current composite. Unseal checks a sealed blob's binding;
    /// Quote and Sign check the binding of the key they sign with.
    fn binding_holds(&self, binding: &Option<(PcrSelection, [u8; DIGEST_LEN])>) -> Result<(), u32> {
        match binding {
            Some((sel, digest_at_release)) if self.pcrs.composite_hash(sel) != *digest_at_release => {
                Err(rc::WRONGPCRVAL)
            }
            _ => Ok(()),
        }
    }

    /// Parse the optional PCR-binding section used by Seal/CreateWrapKey:
    /// flag u8, then selection + digest-at-release. A zero digest means
    /// "bind to the current composite".
    fn read_pcr_binding(
        &self,
        r: &mut Reader,
        params: &[u8],
    ) -> Result<Option<(PcrSelection, [u8; DIGEST_LEN])>, u32> {
        let flag = r.u8().map_err(|_| rc::BAD_PARAM_SIZE)?;
        if flag == 0 {
            return Ok(None);
        }
        let (sel, used) =
            PcrSelection::decode(&params[r.position()..]).ok_or(rc::BAD_PARAM_SIZE)?;
        r.bytes(used).map_err(|_| rc::BAD_PARAM_SIZE)?;
        let digest = r.digest().map_err(|_| rc::BAD_PARAM_SIZE)?;
        let digest = if digest == [0; DIGEST_LEN] {
            self.pcrs.composite_hash(&sel)
        } else {
            digest
        };
        Ok(Some((sel, digest)))
    }
}

/// Map key-layer errors to TPM return codes.
fn key_rc(e: KeyError) -> u32 {
    match e {
        KeyError::BadBlob => rc::DECRYPT_ERROR,
        KeyError::NoSpace => rc::RESOURCES,
        KeyError::BadHandle => rc::INVALID_KEYHANDLE,
        KeyError::NotStorageKey => rc::INVALID_KEYUSAGE,
    }
}

/// Map counter-layer errors to TPM return codes.
fn counter_rc(e: CounterError) -> u32 {
    match e {
        CounterError::BadHandle => rc::BADINDEX,
        CounterError::NoSpace => rc::RESOURCES,
        CounterError::NotActive => rc::BAD_PARAMETER,
    }
}

/// Map NV-layer errors to TPM return codes.
fn nv_rc(e: NvError) -> u32 {
    match e {
        NvError::BadIndex => rc::BADINDEX,
        NvError::OutOfRange => rc::BAD_PARAMETER,
        NvError::AuthRequired => rc::AUTHFAIL,
        NvError::WrongPcr => rc::WRONGPCRVAL,
        NvError::Locked => rc::AREA_LOCKED,
        NvError::NoSpace => rc::RESOURCES,
    }
}

/// ADIP: decrypt an encrypted auth value with XOR of SHA1(key || nonceEven).
fn adip_decrypt(
    key: &[u8; DIGEST_LEN],
    nonce_even: &[u8; 20],
    enc: &[u8; DIGEST_LEN],
) -> [u8; DIGEST_LEN] {
    let mut buf = [0u8; 40];
    buf[..20].copy_from_slice(key);
    buf[20..].copy_from_slice(nonce_even);
    let pad = sha1(&buf);
    let mut out = [0u8; DIGEST_LEN];
    for i in 0..DIGEST_LEN {
        out[i] = enc[i] ^ pad[i];
    }
    out
}

/// Caller-side ADIP encryption (same XOR).
pub fn adip_encrypt(
    key: &[u8; DIGEST_LEN],
    nonce_even: &[u8; 20],
    plain: &[u8; DIGEST_LEN],
) -> [u8; DIGEST_LEN] {
    adip_decrypt(key, nonce_even, plain)
}

/// TPM_QUOTE_INFO digest: SHA1(version || "QUOT" || composite || external).
pub fn quote_info_digest(
    composite: &[u8; DIGEST_LEN],
    external_data: &[u8; DIGEST_LEN],
) -> [u8; DIGEST_LEN] {
    let mut buf = [0u8; 4 + 4 + 20 + 20];
    buf[0] = 1;
    buf[1] = 1;
    buf[4..8].copy_from_slice(b"QUOT");
    buf[8..28].copy_from_slice(composite);
    buf[28..48].copy_from_slice(external_data);
    sha1(&buf)
}

/// Verifier-side TPM_PCR_COMPOSITE digest over externally supplied PCR
/// values: SHA1(selection || u32 value-bytes || values). Computes the
/// same digest `PcrBank::composite_hash` produces inside the TPM for
/// the same selection, so a remote verifier can reconstruct the
/// composite a quote signed from the values shipped alongside it.
pub fn pcr_composite_digest(
    selection: &PcrSelection,
    values: &[[u8; DIGEST_LEN]],
) -> [u8; DIGEST_LEN] {
    let encoded = selection.encode();
    let mut buf = Vec::with_capacity(encoded.len() + 4 + values.len() * DIGEST_LEN);
    buf.extend_from_slice(&encoded);
    buf.extend_from_slice(&((values.len() * DIGEST_LEN) as u32).to_be_bytes());
    for v in values {
        buf.extend_from_slice(v);
    }
    sha1(&buf)
}

/// Response with no auth sessions.
fn simple_response(code: u32, out_params: &[u8]) -> Vec<u8> {
    let mut w = Writer::with_capacity(10 + out_params.len());
    w.u16(tag::RSP_COMMAND).u32(0).u32(code).bytes(out_params);
    let total = w.len() as u32;
    w.patch_u32(2, total);
    w.into_vec()
}

/// Error response (always tag RSP_COMMAND, no params).
fn error_response(code: u32) -> Vec<u8> {
    simple_response(code, &[])
}

/// Response with one auth trailer.
fn auth1_response(
    code: u32,
    ord: u32,
    out_params: &[u8],
    key: &[u8; DIGEST_LEN],
    nonce_even: &[u8; 20],
    nonce_odd: &[u8; 20],
    continue_session: bool,
) -> Vec<u8> {
    let mut w = Writer::with_capacity(10 + out_params.len() + 41);
    w.u16(tag::RSP_AUTH1_COMMAND).u32(0).u32(code).bytes(out_params);
    let od = out_param_digest(code, ord, out_params);
    let mac = SessionTable::response_auth(key, &od, nonce_even, nonce_odd, continue_session);
    w.bytes(nonce_even).u8(continue_session as u8).bytes(&mac);
    let total = w.len() as u32;
    w.patch_u32(2, total);
    w.into_vec()
}

/// Response with two auth trailers.
#[allow(clippy::too_many_arguments)]
fn auth2_response(
    code: u32,
    ord: u32,
    out_params: &[u8],
    key1: &[u8; DIGEST_LEN],
    nonce_even1: &[u8; 20],
    nonce_odd1: &[u8; 20],
    cont1: bool,
    key2: &[u8; DIGEST_LEN],
    nonce_even2: &[u8; 20],
    nonce_odd2: &[u8; 20],
    cont2: bool,
) -> Vec<u8> {
    let mut w = Writer::with_capacity(10 + out_params.len() + 82);
    w.u16(tag::RSP_AUTH2_COMMAND).u32(0).u32(code).bytes(out_params);
    let od = out_param_digest(code, ord, out_params);
    let mac1 = SessionTable::response_auth(key1, &od, nonce_even1, nonce_odd1, cont1);
    w.bytes(nonce_even1).u8(cont1 as u8).bytes(&mac1);
    let mac2 = SessionTable::response_auth(key2, &od, nonce_even2, nonce_odd2, cont2);
    w.bytes(nonce_even2).u8(cont2 as u8).bytes(&mac2);
    let total = w.len() as u32;
    w.patch_u32(2, total);
    w.into_vec()
}

/// Parse a response header: (tag, rc, body-after-rc).
pub fn parse_response(resp: &[u8]) -> Result<(u16, u32, &[u8]), BufError> {
    let mut r = Reader::new(resp);
    let tag_v = r.u16()?;
    let size = r.u32()? as usize;
    let code = r.u32()?;
    if size != resp.len() {
        return Err(BufError::BadLength);
    }
    Ok((tag_v, code, &resp[10..]))
}

/// Key handle lookup over the two fields it reads, so a caller can hold
/// the key while it borrows `rng` mutably.
fn loaded_key<'a>(srk: &'a Option<LoadedKey>, keys: &'a KeyStore, h: u32) -> Result<&'a LoadedKey, u32> {
    if h == handle::SRK {
        return srk.as_ref().ok_or(rc::NOSRK);
    }
    keys.get(h).map_err(|_| rc::INVALID_KEYHANDLE)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn started_tpm() -> Tpm {
        let mut t = Tpm::new(b"test-tpm");
        let resp = t.execute(0, &startup_cmd());
        let (_, code, _) = parse_response(&resp).unwrap();
        assert_eq!(code, rc::SUCCESS);
        t
    }

    fn startup_cmd() -> Vec<u8> {
        let mut w = Writer::new();
        w.u16(tag::RQU_COMMAND).u32(0).u32(ordinal::STARTUP).u16(0x0001);
        let total = w.len() as u32;
        w.patch_u32(2, total);
        w.into_vec()
    }

    fn simple_cmd(ord: u32, params: &[u8]) -> Vec<u8> {
        let mut w = Writer::new();
        w.u16(tag::RQU_COMMAND).u32(0).u32(ord).bytes(params);
        let total = w.len() as u32;
        w.patch_u32(2, total);
        w.into_vec()
    }

    #[test]
    fn startup_required_first() {
        let mut t = Tpm::new(b"x");
        let resp = t.execute(0, &simple_cmd(ordinal::GET_RANDOM, &8u32.to_be_bytes()));
        let (_, code, _) = parse_response(&resp).unwrap();
        assert_eq!(code, rc::INVALID_POSTINIT);
    }

    #[test]
    fn get_random_returns_requested_bytes() {
        let mut t = started_tpm();
        let resp = t.execute(0, &simple_cmd(ordinal::GET_RANDOM, &16u32.to_be_bytes()));
        let (tag_v, code, body) = parse_response(&resp).unwrap();
        assert_eq!(tag_v, tag::RSP_COMMAND);
        assert_eq!(code, rc::SUCCESS);
        let mut r = Reader::new(body);
        let bytes = r.sized_u32().unwrap();
        assert_eq!(bytes.len(), 16);
        // Two calls differ.
        let resp2 = t.execute(0, &simple_cmd(ordinal::GET_RANDOM, &16u32.to_be_bytes()));
        assert_ne!(resp, resp2);
    }

    #[test]
    fn pcr_read_and_extend_via_wire() {
        let mut t = started_tpm();
        // Read PCR 5 -> zeros.
        let resp = t.execute(0, &simple_cmd(ordinal::PCR_READ, &5u32.to_be_bytes()));
        let (_, code, body) = parse_response(&resp).unwrap();
        assert_eq!(code, rc::SUCCESS);
        assert_eq!(body, &[0u8; 20][..]);
        // Extend PCR 5.
        let mut params = Writer::new();
        params.u32(5).bytes(&[0xAB; 20]);
        let resp = t.execute(0, &simple_cmd(ordinal::EXTEND, params.as_slice()));
        let (_, code, new_val) = parse_response(&resp).unwrap();
        assert_eq!(code, rc::SUCCESS);
        assert_eq!(new_val, &t.pcrs().read(5).unwrap()[..]);
        assert_ne!(new_val, &[0u8; 20][..]);
    }

    #[test]
    fn bad_pcr_index_rejected() {
        let mut t = started_tpm();
        let resp = t.execute(0, &simple_cmd(ordinal::PCR_READ, &99u32.to_be_bytes()));
        let (_, code, _) = parse_response(&resp).unwrap();
        assert_eq!(code, rc::BADINDEX);
    }

    #[test]
    fn pcr_reset_locality_rules_via_wire() {
        let mut t = started_tpm();
        let mut params = Writer::new();
        params.bytes(&PcrSelection::of(&[16]).encode());
        // Locality 0: refused.
        let resp = t.execute(0, &simple_cmd(ordinal::PCR_RESET, params.as_slice()));
        assert_eq!(parse_response(&resp).unwrap().1, rc::BAD_LOCALITY);
        // Locality 2: allowed.
        let resp = t.execute(2, &simple_cmd(ordinal::PCR_RESET, params.as_slice()));
        assert_eq!(parse_response(&resp).unwrap().1, rc::SUCCESS);
    }

    #[test]
    fn size_mismatch_rejected() {
        let mut t = started_tpm();
        let mut cmd = simple_cmd(ordinal::GET_RANDOM, &8u32.to_be_bytes());
        // Corrupt the size field.
        cmd[5] = 0xFF;
        let resp = t.execute(0, &cmd);
        assert_eq!(parse_response(&resp).unwrap().1, rc::BAD_PARAM_SIZE);
    }

    #[test]
    fn unknown_ordinal_rejected() {
        let mut t = started_tpm();
        let resp = t.execute(0, &simple_cmd(0xdead_beef, &[]));
        assert_eq!(parse_response(&resp).unwrap().1, rc::BAD_ORDINAL);
    }

    #[test]
    fn bad_tag_rejected() {
        let mut t = started_tpm();
        let mut w = Writer::new();
        w.u16(0x1234).u32(0).u32(ordinal::GET_RANDOM).u32(4);
        let total = w.len() as u32;
        w.patch_u32(2, total);
        let resp = t.execute(0, &w.into_vec());
        assert_eq!(parse_response(&resp).unwrap().1, rc::BADTAG);
    }

    #[test]
    fn oiap_opens_sessions_until_capacity() {
        let mut t = started_tpm();
        for _ in 0..t.cfg.session_slots {
            let resp = t.execute(0, &simple_cmd(ordinal::OIAP, &[]));
            assert_eq!(parse_response(&resp).unwrap().1, rc::SUCCESS);
        }
        let resp = t.execute(0, &simple_cmd(ordinal::OIAP, &[]));
        assert_eq!(parse_response(&resp).unwrap().1, rc::RESOURCES);
    }

    #[test]
    fn read_pubek_exposes_modulus() {
        let mut t = started_tpm();
        let resp = t.execute(0, &simple_cmd(ordinal::READ_PUBEK, &[]));
        let (_, code, body) = parse_response(&resp).unwrap();
        assert_eq!(code, rc::SUCCESS);
        let mut r = Reader::new(body);
        let n = r.sized_u32().unwrap();
        assert_eq!(n, t.ek.public.n.to_bytes_be());
    }

    #[test]
    fn get_capability_properties() {
        let mut t = started_tpm();
        let mut params = Writer::new();
        params.u32(0x0005).u32(0x0101);
        let resp = t.execute(0, &simple_cmd(ordinal::GET_CAPABILITY, params.as_slice()));
        let (_, code, body) = parse_response(&resp).unwrap();
        assert_eq!(code, rc::SUCCESS);
        let mut r = Reader::new(body);
        let v = r.sized_u32().unwrap();
        assert_eq!(u32::from_be_bytes(v.try_into().unwrap()), 24);
    }

    #[test]
    fn manufacture_deterministic() {
        let a = Tpm::new(b"same-seed");
        let b = Tpm::new(b"same-seed");
        assert_eq!(a.ek.public, b.ek.public);
        assert_eq!(a.tpm_proof, b.tpm_proof);
        let c = Tpm::new(b"other-seed");
        assert_ne!(a.tpm_proof, c.tpm_proof);
    }

    #[test]
    fn startup_state_preserves_pcrs() {
        let mut t = started_tpm();
        t.pcrs_mut().extend(3, &[1; 20]).unwrap();
        let pcr3 = t.pcrs().read(3).unwrap();
        // Startup(ST_STATE)
        let mut w = Writer::new();
        w.u16(tag::RQU_COMMAND).u32(0).u32(ordinal::STARTUP).u16(0x0002);
        let total = w.len() as u32;
        w.patch_u32(2, total);
        let resp = t.execute(0, &w.into_vec());
        assert_eq!(parse_response(&resp).unwrap().1, rc::SUCCESS);
        assert_eq!(t.pcrs().read(3).unwrap(), pcr3);
        // Startup(ST_CLEAR) resets them.
        let resp = t.execute(0, &startup_cmd());
        assert_eq!(parse_response(&resp).unwrap().1, rc::SUCCESS);
        assert_eq!(t.pcrs().read(3).unwrap(), [0; 20]);
    }

    #[test]
    fn truncated_command_rejected() {
        let mut t = started_tpm();
        let resp = t.execute(0, &[0x00, 0xC1, 0x00]);
        assert_eq!(parse_response(&resp).unwrap().1, rc::BAD_PARAM_SIZE);
    }

    #[test]
    fn state_generation_tracks_permanent_mutations_only() {
        let mut t = started_tpm();
        let g0 = t.state_generation();
        // Read-only / transient-only commands leave the generation alone.
        t.execute(0, &simple_cmd(ordinal::GET_RANDOM, &16u32.to_be_bytes()));
        t.execute(0, &simple_cmd(ordinal::PCR_READ, &5u32.to_be_bytes()));
        t.execute(0, &simple_cmd(ordinal::OIAP, &[]));
        t.execute(0, &simple_cmd(ordinal::READ_PUBEK, &[]));
        assert_eq!(t.state_generation(), g0, "transient commands must not bump");
        // A PCR extend is a permanent mutation.
        let mut params = Writer::new();
        params.u32(5).bytes(&[0xAB; 20]);
        t.execute(0, &simple_cmd(ordinal::EXTEND, params.as_slice()));
        assert!(t.state_generation() > g0, "extend must bump");
        // A failing mutation (bad index) must not bump.
        let g1 = t.state_generation();
        let mut bad = Writer::new();
        bad.u32(99).bytes(&[0xAB; 20]);
        t.execute(0, &simple_cmd(ordinal::EXTEND, bad.as_slice()));
        assert_eq!(t.state_generation(), g1, "failed extend must not bump");
        // Equal generations really do mean identical snapshots.
        let snap_a = t.serialize_state();
        t.execute(0, &simple_cmd(ordinal::GET_RANDOM, &16u32.to_be_bytes()));
        assert_eq!(t.state_generation(), g1);
        assert_eq!(t.serialize_state(), snap_a);
    }

    #[test]
    fn auth_command_without_session_block_fails() {
        let mut t = started_tpm();
        // SEAL sent with a plain tag -> AUTHFAIL (no auth block).
        let resp = t.execute(0, &simple_cmd(ordinal::SEAL, &[]));
        let code = parse_response(&resp).unwrap().1;
        assert!(code != rc::SUCCESS);
    }
}
