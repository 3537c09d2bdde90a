//! The assembled platform: hypervisor + hardware TPM + vTPM manager +
//! per-guest devices, served by Dom0's one tpmback loop.
//!
//! This is the top-level object examples, experiments, and attacks work
//! against. [`Platform::baseline`] is the stock Xen vTPM system;
//! [`Platform::improved`] flips on the paper's mechanisms that live at
//! the mechanism layer (encrypted mirror, ring scrubbing) and is where
//! the `vtpm-ac` crate installs its hook and credentials.
//!
//! A platform has no migration path of its own: a vTPM moves between
//! hosts only through the cluster protocol (`vtpm-cluster`). The
//! platform's share of it is [`Platform::hw_ek_public`], the key a
//! source seals to, and [`Platform::open_migration_package`], which
//! opens a package inside this host's hardware TPM.

use std::sync::Arc;

use parking_lot::Mutex;

use tpm::{DirectTransport, Tpm, TpmClient};
use tpm_crypto::rsa::RsaPublicKey;
use xen_sim::{DomainConfig, DomainId, Hypervisor, Result as XenResult, XenError};

use crate::device::{provision_device, TpmBack, TpmBackLoop, TpmFront};
use crate::instance::InstanceId;
use crate::manager::{ManagerConfig, VtpmManager};
use crate::migration::{self, MigrationPackage};
use crate::mirror::MirrorMode;

/// Well-known hardware-TPM owner auth for simulated platforms.
pub const HW_OWNER_AUTH: [u8; 20] = [0x11; 20];
/// Well-known hardware-TPM SRK auth for simulated platforms.
pub const HW_SRK_AUTH: [u8; 20] = [0x22; 20];

/// The hardware attestation identity key, created lazily.
struct HwAik {
    handle: u32,
    auth: [u8; 20],
    modulus: Vec<u8>,
}

/// A guest with a connected vTPM device.
pub struct Guest {
    /// The guest's domain.
    pub domain: DomainId,
    /// Its vTPM instance.
    pub instance: InstanceId,
    /// The frontend driver (implements [`tpm::Transport`]).
    pub front: TpmFront,
}

impl Guest {
    /// A session-managing TPM client over this guest's frontend.
    pub fn client(&mut self, seed: &[u8]) -> TpmClient<&mut TpmFront> {
        TpmClient::new(&mut self.front, seed)
    }
}

/// One simulated physical host.
pub struct Platform {
    /// The hypervisor.
    pub hv: Arc<Hypervisor>,
    /// The physical TPM soldered to this host.
    pub hw_tpm: Arc<Mutex<Tpm>>,
    /// The vTPM manager in Dom0.
    pub manager: Arc<VtpmManager>,
    /// Whether devices are provisioned with ring scrubbing.
    pub scrub_rings: bool,
    /// Dom0's tpmback loop, serving every guest's ring.
    backends: TpmBackLoop,
    seed: Vec<u8>,
    hw_aik: Mutex<Option<HwAik>>,
    registration_log: Mutex<Vec<[u8; 20]>>,
}

impl Platform {
    /// Build a platform with an explicit manager configuration.
    pub fn with_config(
        seed: &[u8],
        total_frames: usize,
        cfg: ManagerConfig,
        scrub_rings: bool,
    ) -> XenResult<Self> {
        let hv = Arc::new(Hypervisor::boot(total_frames, 32)?);
        // Manufacture and initialize the hardware TPM.
        let mut hw = Tpm::manufacture(&[seed, b"/hw-tpm"].concat(), cfg.vtpm_config.clone());
        {
            let mut client =
                TpmClient::new(DirectTransport { tpm: &mut hw, locality: 0 }, b"platform-boot");
            client.startup_clear().map_err(|_| XenError::BadImage("hw tpm startup"))?;
            client
                .take_ownership(&HW_OWNER_AUTH, &HW_SRK_AUTH)
                .map_err(|_| XenError::BadImage("hw tpm ownership"))?;
        }
        let manager = Arc::new(VtpmManager::new(Arc::clone(&hv), seed, cfg)?);
        Ok(Platform {
            backends: TpmBackLoop::new(Arc::clone(&hv)),
            hv,
            hw_tpm: Arc::new(Mutex::new(hw)),
            manager,
            scrub_rings,
            seed: seed.to_vec(),
            hw_aik: Mutex::new(None),
            registration_log: Mutex::new(Vec::new()),
        })
    }

    /// The stock Xen vTPM system: cleartext resident state, no scrubbing,
    /// no access control (StockHook).
    pub fn baseline(seed: &[u8]) -> XenResult<Self> {
        Self::with_config(
            seed,
            8192,
            ManagerConfig { mirror_mode: MirrorMode::Cleartext, ..Default::default() },
            false,
        )
    }

    /// The improved mechanism layer: encrypted resident state + ring
    /// scrubbing. The `vtpm-ac` crate completes it by installing its hook
    /// and provisioning credentials.
    pub fn improved(seed: &[u8]) -> XenResult<Self> {
        Self::with_config(
            seed,
            8192,
            ManagerConfig { mirror_mode: MirrorMode::Encrypted, ..Default::default() },
            true,
        )
    }

    /// Launch a guest VM with a provisioned, connected vTPM device whose
    /// backend is registered with Dom0's tpmback loop.
    ///
    /// A launch that fails part-way is undone in reverse: the instance is
    /// destroyed (mirror scrub included), then the domain (its frames,
    /// grants and event channels). The backend is registered last, so a
    /// failed launch never leaves one with the loop. The launch's own
    /// error is returned; an undo step that fails too leaves what it
    /// could not remove (a refused instance destroy keeps the instance
    /// listed in [`VtpmManager::instance_ids`]).
    pub fn launch_guest(&self, name: &str) -> XenResult<Guest> {
        let domain = self.hv.create_domain(
            DomainId::DOM0,
            DomainConfig { memory_pages: 32, ..DomainConfig::small(name) },
        )?;
        let launched = self.manager.create_instance().and_then(|instance| {
            self.connect_guest(domain, instance).inspect_err(|_| {
                let _ = self.manager.destroy_instance(instance);
            })
        });
        match launched {
            Ok((guest, back)) => {
                self.backends.register(back);
                Ok(guest)
            }
            Err(e) => {
                let _ = self.hv.destroy_domain(DomainId::DOM0, domain);
                Err(e)
            }
        }
    }

    /// The launch steps between instance creation and backend
    /// registration: provision and connect the device, then register the
    /// instance's attestation identity.
    fn connect_guest(&self, domain: DomainId, instance: InstanceId) -> XenResult<(Guest, TpmBack)> {
        provision_device(&self.hv, domain, instance)?;
        let mut front = TpmFront::connect(Arc::clone(&self.hv), domain)?;
        front.scrub = self.scrub_rings;
        let mut back = TpmBack::connect(Arc::clone(&self.hv), Arc::clone(&self.manager), domain)?;
        back.scrub = self.scrub_rings;

        // Register the instance's identity with the hardware TPM for deep
        // attestation: extend its EK digest into the binding PCR and log it.
        self.register_attestation_identity(instance)?;

        Ok((Guest { domain, instance, front }, back))
    }

    // ---- deep attestation ---------------------------------------------------

    /// EK modulus of a live instance (its attestation identity).
    pub fn instance_ek_modulus(&self, instance: InstanceId) -> Option<Vec<u8>> {
        self.manager
            .with_instance(instance, |i| i.tpm.ek_public().n.to_bytes_be())
    }

    /// Extend the instance's EK digest into the hardware binding PCR and
    /// append it to the registration log.
    fn register_attestation_identity(&self, instance: InstanceId) -> XenResult<()> {
        let ek = self
            .instance_ek_modulus(instance)
            .ok_or(XenError::BadImage("no such instance"))?;
        let digest = crate::deep_quote::registration_digest(&ek);
        let mut hw = self.hw_tpm.lock();
        let mut client =
            TpmClient::new(DirectTransport { tpm: &mut hw, locality: 0 }, b"register-aik");
        client
            .extend(crate::deep_quote::BINDING_PCR as u32, &digest)
            .map_err(|_| XenError::BadImage("binding pcr extend"))?;
        self.registration_log.lock().push(digest);
        Ok(())
    }

    /// Snapshot of the registration log (ships with deep quotes).
    pub fn registration_log(&self) -> Vec<[u8; 20]> {
        self.registration_log.lock().clone()
    }

    /// Hardware-TPM countersignature for a deep quote: quotes the binding
    /// PCR with external data chaining `nonce` and the guest's vTPM quote
    /// signature. Returns (binding PCR value, hw signature, hw AIK
    /// modulus). The hardware AIK is created lazily on first use.
    pub fn hw_countersign(
        &self,
        nonce: &[u8; 20],
        vtpm_signature: &[u8],
    ) -> XenResult<([u8; 20], Vec<u8>, Vec<u8>)> {
        let mut hw = self.hw_tpm.lock();
        // Lazily create the hardware AIK.
        let mut aik_slot = self.hw_aik.lock();
        if aik_slot.is_none() {
            let auth = {
                let digest = tpm_crypto::sha256(&[self.seed.as_slice(), b"/hw-aik"].concat());
                let mut a = [0u8; 20];
                a.copy_from_slice(&digest[..20]);
                a
            };
            let mut client =
                TpmClient::new(DirectTransport { tpm: &mut hw, locality: 0 }, b"hw-aik");
            let blob = client
                .create_wrap_key(
                    tpm::handle::SRK,
                    &HW_SRK_AUTH,
                    tpm::KeyUsage::Signing,
                    512,
                    &auth,
                    None,
                )
                .map_err(|_| XenError::BadImage("hw aik create"))?;
            let handle = client
                .load_key2(tpm::handle::SRK, &HW_SRK_AUTH, &blob)
                .map_err(|_| XenError::BadImage("hw aik load"))?;
            *aik_slot = Some(HwAik { handle, auth, modulus: blob.n });
        }
        let aik = aik_slot.as_ref().expect("just created");

        let external = crate::deep_quote::chain_digest(nonce, vtpm_signature);
        let sel = tpm::PcrSelection::of(&[crate::deep_quote::BINDING_PCR]);
        let mut client =
            TpmClient::new(DirectTransport { tpm: &mut hw, locality: 0 }, b"hw-quote");
        let (values, sig) = client
            .quote(aik.handle, &aik.auth, &external, &sel)
            .map_err(|_| XenError::BadImage("hw quote"))?;
        Ok((values[0], sig, aik.modulus.clone()))
    }

    /// This platform's hardware EK public key (what a migration source
    /// binds packages to).
    pub fn hw_ek_public(&self) -> RsaPublicKey {
        self.hw_tpm.lock().ek_public()
    }

    /// Open a migration package with this host's hardware TPM without
    /// adopting it — the cluster migration driver verifies the payload
    /// (destination binding, integrity, epoch header) *before* deciding
    /// to commit, and only then builds an instance from the plaintext.
    pub fn open_migration_package(
        &self,
        package: &MigrationPackage,
    ) -> Result<Vec<u8>, migration::MigrationError> {
        migration::open_package(package, &self.hw_tpm.lock())
    }

    /// The seed this platform was built from (deterministic derivations —
    /// the cluster migration driver keys its per-host DRBGs off it).
    pub fn seed(&self) -> &[u8] {
        &self.seed
    }

    /// Simulate a Dom0 vTPM-manager crash + restart: drop the in-memory
    /// manager, rebuild one from the mirror frames alone
    /// ([`VtpmManager::recover`]) with the same access hook installed,
    /// and [`TpmBack::rebind`] every backend to it, so launched guests
    /// keep their rings and are served again under the same policy.
    /// Ring service is paused throughout: no request reaches the dropped
    /// manager, and none reaches the recovered one before every backend
    /// points at it; it resumes as this returns. If recovery fails, the
    /// backends are dropped. Volatile per-instance flags (the migration
    /// quiesce bit) do not survive — callers holding durable migration
    /// state must re-assert them.
    pub fn recover_manager(&mut self) -> XenResult<crate::manager::RecoveryReport> {
        let mut backends = self.backends.pause();
        let recovered =
            VtpmManager::recover(Arc::clone(&self.hv), &self.seed, self.manager.config().clone());
        let (mgr, report) = match recovered {
            Ok(r) => r,
            Err(e) => {
                backends.clear();
                return Err(e);
            }
        };
        // Publish the recovered manager. Existing Arc clones of the old
        // manager keep their dead view, exactly like stale handles into
        // a crashed daemon.
        mgr.set_hook(self.manager.hook());
        let mgr = Arc::new(mgr);
        backends.values_mut().for_each(|b| b.rebind(Arc::clone(&mgr)));
        drop(backends);
        self.manager = mgr;
        Ok(report)
    }

    /// Stop ring service and drop every backend (also done on drop).
    /// Guests launched later are served again.
    pub fn shutdown(&self) {
        self.backends.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpm::PcrSelection;

    #[test]
    fn baseline_platform_boots_and_serves() {
        let p = Platform::baseline(b"plat-1").unwrap();
        let mut g = p.launch_guest("web1").unwrap();
        let mut c = g.client(b"c");
        c.startup_clear().unwrap();
        assert_eq!(c.get_random(8).unwrap().len(), 8);
        assert!(p.hw_tpm.lock().is_owned());
    }

    #[test]
    fn improved_platform_scrubs_and_encrypts() {
        let p = Platform::improved(b"plat-2").unwrap();
        assert!(p.scrub_rings);
        assert_eq!(p.manager.mirror_mode(), MirrorMode::Encrypted);
        let mut g = p.launch_guest("web1").unwrap();
        assert!(g.front.scrub);
        let mut c = g.client(b"c");
        c.startup_clear().unwrap();
    }

    #[test]
    fn guests_get_distinct_instances_and_domains() {
        let p = Platform::baseline(b"plat-3").unwrap();
        let g1 = p.launch_guest("a").unwrap();
        let g2 = p.launch_guest("b").unwrap();
        assert_ne!(g1.domain, g2.domain);
        assert_ne!(g1.instance, g2.instance);
    }

    #[test]
    fn full_guest_workflow_seal_quote() {
        let p = Platform::baseline(b"plat-4").unwrap();
        let mut g = p.launch_guest("app").unwrap();
        let mut c = g.client(b"c");
        c.startup_clear().unwrap();
        let owner = [7u8; 20];
        let srk = [8u8; 20];
        c.take_ownership(&owner, &srk).unwrap();
        // Seal under the vTPM's SRK, bound to PCR 12.
        c.extend(12, &[1; 20]).unwrap();
        let blob = c
            .seal(tpm::handle::SRK, &srk, &[9; 20], Some(&PcrSelection::of(&[12])), b"db-key")
            .unwrap();
        assert_eq!(c.unseal(tpm::handle::SRK, &srk, &[9; 20], &blob).unwrap(), b"db-key");
        // Change the measurement -> unseal refused.
        c.extend(12, &[2; 20]).unwrap();
        assert!(c.unseal(tpm::handle::SRK, &srk, &[9; 20], &blob).is_err());
    }

    #[test]
    fn deep_attestation_end_to_end() {
        use crate::deep_quote::{self, DeepQuote, DeepQuoteError};

        let p = Platform::improved(b"plat-deep").unwrap();
        let mut g = p.launch_guest("attested").unwrap();
        let ek_modulus = p.instance_ek_modulus(g.instance).unwrap();

        // The guest: boot, measure, make an AIK, quote with the nonce.
        let mut c = g.client(b"c");
        c.startup_clear().unwrap();
        let owner = [1u8; 20];
        let srk = [2u8; 20];
        let key_auth = [3u8; 20];
        c.take_ownership(&owner, &srk).unwrap();
        c.extend(0, &[0x42; 20]).unwrap();
        let blob = c
            .create_wrap_key(tpm::handle::SRK, &srk, tpm::KeyUsage::Signing, 512, &key_auth, None)
            .unwrap();
        let aik = c.load_key2(tpm::handle::SRK, &srk, &blob).unwrap();
        let nonce = [0x77u8; 20];
        let sel = tpm::PcrSelection::of(&[0]);
        let (values, vtpm_sig) = c.quote(aik, &key_auth, &nonce, &sel).unwrap();

        // The platform countersigns.
        let (hw_pcr, hw_sig, hw_aik_modulus) = p.hw_countersign(&nonce, &vtpm_sig).unwrap();

        let bundle = DeepQuote {
            vtpm_pcr_values: values,
            vtpm_selection: vec![0],
            vtpm_signature: vtpm_sig,
            vtpm_aik_modulus: blob.n.clone(),
            vtpm_ek_modulus: ek_modulus,
            hw_binding_pcr: hw_pcr,
            hw_signature: hw_sig,
            hw_aik_modulus,
            registration_log: p.registration_log(),
        };
        deep_quote::verify(&bundle, &nonce).unwrap();

        // Negatives.
        // Wrong nonce: the vTPM signature check fails first.
        assert_eq!(
            deep_quote::verify(&bundle, &[0x78; 20]),
            Err(DeepQuoteError::BadVtpmSignature)
        );
        // Unregistered instance: claim a different EK.
        let mut spoofed = bundle.clone();
        spoofed.vtpm_ek_modulus = vec![0xFF; 128];
        assert_eq!(
            deep_quote::verify(&spoofed, &nonce),
            Err(DeepQuoteError::UnregisteredInstance)
        );
        // Tampered log: replay no longer matches the attested PCR.
        let mut cut = bundle.clone();
        cut.registration_log.push([9; 20]);
        assert_eq!(deep_quote::verify(&cut, &nonce), Err(DeepQuoteError::LogMismatch));
        // Tampered hardware signature.
        let mut badhw = bundle.clone();
        badhw.hw_signature[0] ^= 1;
        assert_eq!(
            deep_quote::verify(&badhw, &nonce),
            Err(DeepQuoteError::BadHwSignature)
        );
    }

    #[test]
    fn deep_attestation_covers_multiple_guests() {
        use crate::deep_quote;

        let p = Platform::improved(b"plat-deep-multi").unwrap();
        let g1 = p.launch_guest("a").unwrap();
        let g2 = p.launch_guest("b").unwrap();
        let log = p.registration_log();
        assert_eq!(log.len(), 2);
        // Both instances' EK digests are present and ordered.
        let d1 = deep_quote::registration_digest(&p.instance_ek_modulus(g1.instance).unwrap());
        let d2 = deep_quote::registration_digest(&p.instance_ek_modulus(g2.instance).unwrap());
        assert_eq!(log, vec![d1, d2]);
        // The hardware PCR matches the replayed log.
        let hw_pcr = p.hw_tpm.lock().pcrs().read(deep_quote::BINDING_PCR).unwrap();
        assert_eq!(deep_quote::replay_log(&log), hw_pcr);
    }

    #[test]
    fn clear_migration_exposes_state() {
        let src = Platform::baseline(b"src-clear").unwrap();
        let g = src.launch_guest("mig").unwrap();
        let state = src.manager.export_instance_state(g.instance).unwrap();
        let package = migration::package_clear(&state);
        assert!(package.exposes(&state[..64]), "baseline migration ships cleartext");
        // No destination binding: any platform opens it.
        let anyone = Platform::baseline(b"anyone").unwrap();
        assert_eq!(anyone.open_migration_package(&package).unwrap(), state);
    }

    #[test]
    fn sealed_package_rejected_by_wrong_platform() {
        let src = Platform::improved(b"src-x").unwrap();
        let dst = Platform::improved(b"dst-x").unwrap();
        let mallory = Platform::improved(b"mallory").unwrap();
        let g = src.launch_guest("mig").unwrap();
        let state = src.manager.export_instance_state(g.instance).unwrap();
        let mut rng = tpm_crypto::drbg::Drbg::new(b"src-x/migration");
        let package = migration::package_sealed(&state, &dst.hw_ek_public(), &mut rng);
        assert!(!package.exposes(&state[..64]));
        assert_eq!(
            mallory.open_migration_package(&package).err(),
            Some(migration::MigrationError::WrongDestination)
        );
        // The rightful destination still opens it.
        assert_eq!(dst.open_migration_package(&package).unwrap(), state);
    }

    #[test]
    fn launch_after_shutdown_is_served_again() {
        let p = Platform::baseline(b"plat-relaunch").unwrap();
        let _g = p.launch_guest("a").unwrap();
        p.shutdown();
        let mut g = p.launch_guest("b").unwrap();
        g.client(b"c").startup_clear().unwrap();
    }

    #[test]
    fn shutdown_idempotent() {
        let p = Platform::baseline(b"plat-sd").unwrap();
        let _g = p.launch_guest("a").unwrap();
        p.shutdown();
        p.shutdown();
    }

    #[test]
    fn failed_launch_undoes_its_domain_and_instance() {
        let seed = b"plat-starved";
        let cfg = ManagerConfig::default();
        let probe = Platform::with_config(seed, 8192, cfg.clone(), false).unwrap();
        let booted = probe.hv.with_memory(|m| m.total_frames() - m.free_frames());
        // Frames for the guest domain and nothing else: the domain is
        // created, then `create_instance` finds no frame for the mirror.
        let p = Platform::with_config(seed, booted + 32, cfg.clone(), false).unwrap();
        let free = p.hv.with_memory(|m| m.free_frames());
        let ids = p.manager.instance_ids();
        assert_eq!(p.launch_guest("starved").err(), Some(XenError::OutOfMemory));
        assert_eq!(p.hv.with_memory(|m| m.free_frames()), free, "the domain's frames came back");
        assert_eq!(p.manager.instance_ids(), ids);

        // A launch that fails at any later step hands back every frame
        // too, the destroyed instance's mirror frames included, and
        // leaves no backend entry in Dom0's XenStore tree. Each fresh
        // platform gives its first guest domain id 1.
        let backend = "/local/domain/0/backend/vtpm/1";
        let mut failures = 0;
        for spare in 1.. {
            let p = Platform::with_config(seed, booted + 32 + spare, cfg.clone(), false).unwrap();
            let free = p.hv.with_memory(|m| m.free_frames());
            match p.launch_guest("starved") {
                Ok(g) => {
                    assert_eq!(g.domain, DomainId(1));
                    assert!(p.hv.xs_exists(backend));
                    break;
                }
                Err(e) => assert_eq!(e, XenError::OutOfMemory),
            }
            failures += 1;
            assert_eq!(p.hv.with_memory(|m| m.free_frames()), free, "with {spare} spare frames");
            assert_eq!(p.manager.instance_ids(), ids, "with {spare} spare frames");
            assert!(!p.hv.xs_exists(backend), "with {spare} spare frames");
        }
        assert!(failures > 0, "some launch must fail after the instance exists");
    }

    #[test]
    fn instance_churn_returns_every_frame() {
        let p = Platform::baseline(b"plat-churn").unwrap();
        let free = p.hv.with_memory(|m| m.free_frames());
        let dom0 = p.hv.domain_info(DomainId::DOM0).unwrap().frames.len();
        for _ in 0..10 {
            let id = p.manager.create_instance().unwrap();
            assert!(p.hv.with_memory(|m| m.free_frames()) < free, "the instance's mirror holds frames");
            assert!(p.manager.destroy_instance(id).unwrap());
        }
        assert_eq!(p.hv.with_memory(|m| m.free_frames()), free);
        assert_eq!(p.hv.domain_info(DomainId::DOM0).unwrap().frames.len(), dom0);
    }
}
