//! Cross-crate integration: the whole stack (crypto → TPM → Xen sim →
//! vTPM → access control) driven through public APIs only.

use vtpm_xen::prelude::*;
use vtpm_xen::tpm12::KeyUsage;

const OWNER: [u8; 20] = [1; 20];
const SRK: [u8; 20] = [2; 20];

#[test]
fn guest_lifecycle_on_baseline() {
    let p = Platform::baseline(b"it-lifecycle").unwrap();
    let mut g = p.launch_guest("it").unwrap();
    let mut tpm = g.client(b"it");
    tpm.startup_clear().unwrap();
    tpm.take_ownership(&OWNER, &SRK).unwrap();

    // Key hierarchy through the full transport.
    let storage_blob = tpm
        .create_wrap_key(handle::SRK, &SRK, KeyUsage::Storage, 1024, &[3; 20], None)
        .unwrap();
    let storage = tpm.load_key2(handle::SRK, &SRK, &storage_blob).unwrap();
    let sign_blob = tpm
        .create_wrap_key(storage, &[3; 20], KeyUsage::Signing, 512, &[4; 20], None)
        .unwrap();
    let signer = tpm.load_key2(storage, &[3; 20], &sign_blob).unwrap();
    let sig = tpm.sign(signer, &[4; 20], b"deep hierarchy").unwrap();
    assert_eq!(sig.len(), 64);

    // Seal bound to a PCR through the full transport.
    tpm.extend(14, &[7; 20]).unwrap();
    let blob = tpm
        .seal(handle::SRK, &SRK, &[5; 20], Some(&PcrSelection::of(&[14])), b"bound")
        .unwrap();
    assert_eq!(tpm.unseal(handle::SRK, &SRK, &[5; 20], &blob).unwrap(), b"bound");
    tpm.extend(14, &[8; 20]).unwrap();
    assert!(tpm.unseal(handle::SRK, &SRK, &[5; 20], &blob).is_err());
}

#[test]
fn sixteen_guests_concurrently() {
    let p = Platform::baseline(b"it-sixteen").unwrap();
    let guests: Vec<Guest> = (0..16).map(|i| p.launch_guest(&format!("g{i}")).unwrap()).collect();
    let handles: Vec<_> = guests
        .into_iter()
        .enumerate()
        .map(|(i, mut g)| {
            std::thread::spawn(move || {
                let mut tpm = g.client(format!("c{i}").as_bytes());
                tpm.startup_clear().unwrap();
                for r in 0..5u8 {
                    tpm.extend(0, &[r; 20]).unwrap();
                }
                tpm.pcr_read(0).unwrap()
            })
        })
        .collect();
    let values: Vec<[u8; 20]> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // All guests ran the same extends -> identical PCRs, all isolated.
    assert!(values.windows(2).all(|w| w[0] == w[1]));
    assert_eq!(p.manager.stats_snapshot().handled, 16 * 7);
}

#[test]
fn secure_platform_full_workflow_with_policy() {
    let sp = SecurePlatform::full(b"it-secure").unwrap();
    let mut g = sp.launch_guest("it").unwrap();
    let mut tpm = g.client(b"it");
    tpm.startup_clear().unwrap();
    tpm.take_ownership(&OWNER, &SRK).unwrap();
    // Allowed path works end to end.
    let blob = tpm.seal(handle::SRK, &SRK, &[5; 20], None, b"ok").unwrap();
    assert_eq!(tpm.unseal(handle::SRK, &SRK, &[5; 20], &blob).unwrap(), b"ok");
    // Denied path (nv-admin group) is filtered before the vTPM sees it.
    assert!(tpm.nv_define(&OWNER, 0x10, 16, 1).is_err());
    assert!(sp.hook.audit.denials() > 0);
    // Live policy update: deny sealing, see it enforced immediately.
    sp.hook.policy.replace("deny group sealing\ndefault allow\n").unwrap();
    assert!(tpm.seal(handle::SRK, &SRK, &[5; 20], None, b"now denied").is_err());
    // And re-allow.
    sp.hook.policy.replace("default allow\n").unwrap();
    tpm.seal(handle::SRK, &SRK, &[5; 20], None, b"allowed again").unwrap();
}

#[test]
fn virtual_time_accounts_hardware_costs() {
    let p = Platform::baseline(b"it-vtime").unwrap();
    let mut g = p.launch_guest("it").unwrap();
    let clock = &p.hv.clock;
    let mut tpm = g.client(b"it");
    tpm.startup_clear().unwrap();

    let t0 = clock.now_ns();
    tpm.pcr_read(0).unwrap();
    let cheap = clock.now_ns() - t0;

    tpm.take_ownership(&OWNER, &SRK).unwrap();
    let t1 = clock.now_ns();
    tpm.seal(handle::SRK, &SRK, &[5; 20], None, b"x").unwrap();
    let seal = clock.now_ns() - t1;

    // A Seal (OSAP + TPM_Seal, RSA inside) must cost far more virtual
    // time than a PcrRead.
    assert!(seal > 10 * cheap, "seal {seal} vs pcr_read {cheap}");
}

#[test]
fn manager_reboot_cycle_via_persistence() {
    use vtpm_xen::vtpm_stack::{persist, restore, ManagerConfig, MirrorMode};

    let sp = SecurePlatform::full(b"it-reboot").unwrap();
    let mut g = sp.launch_guest("it").unwrap();
    {
        let mut tpm = g.client(b"it");
        tpm.startup_clear().unwrap();
        tpm.extend(2, &[0xBB; 20]).unwrap();
    }
    let pcr2 = sp
        .platform
        .manager
        .with_instance(g.instance, |i| i.tpm.pcrs().read(2).unwrap())
        .unwrap();

    // "Shut down": persist the database sealed to the hardware TPM.
    let db = {
        let mut hw = sp.platform.hw_tpm.lock();
        persist(&sp.platform.manager, &mut hw, &vtpm_xen::vtpm_stack::HW_SRK_AUTH).unwrap()
    };

    // "Reboot": fresh hypervisor, same hardware TPM, restore.
    let hv2 = std::sync::Arc::new(Hypervisor::boot(4096, 16).unwrap());
    let mgr2 = {
        let mut hw = sp.platform.hw_tpm.lock();
        restore(
            hv2,
            b"it-reboot",
            ManagerConfig { mirror_mode: MirrorMode::Encrypted, ..Default::default() },
            &db,
            &mut hw,
            &vtpm_xen::vtpm_stack::HW_SRK_AUTH,
        )
        .unwrap()
    };
    let pcr2_restored = mgr2.with_instance(g.instance, |i| i.tpm.pcrs().read(2).unwrap()).unwrap();
    assert_eq!(pcr2, pcr2_restored);
}

#[test]
fn migration_preserves_sealed_data() {
    use vtpm_xen::tpm12::DirectTransport;

    // A blob sealed under the vTPM's SRK on the source host unseals on
    // the destination after a sealed (destination-bound) hand-off.
    let mut cluster = Cluster::new(b"it-mig", ClusterConfig::default()).unwrap();
    assert!(cluster.config().sealed);
    let vm = cluster.create_vm().unwrap();
    let src = cluster.home_of(vm).unwrap();
    let blob = cluster
        .with_vm(vm, |i| {
            let mut tpm = TpmClient::new(DirectTransport { tpm: &mut i.tpm, locality: 0 }, b"it");
            tpm.startup_clear().unwrap();
            tpm.take_ownership(&OWNER, &SRK).unwrap();
            tpm.seal(handle::SRK, &SRK, &[5; 20], None, b"travels").unwrap()
        })
        .unwrap();

    let dst = (src + 1) % cluster.config().hosts;
    assert_eq!(cluster.migrate(vm, dst), MigrateOutcome::Committed);
    assert_eq!(cluster.runnable_hosts(vm), vec![dst]);

    let unsealed = cluster
        .with_vm(vm, |i| {
            let mut c = TpmClient::new(DirectTransport { tpm: &mut i.tpm, locality: 0 }, b"dst");
            c.startup_state().unwrap();
            c.unseal(handle::SRK, &SRK, &[5; 20], &blob).unwrap()
        })
        .unwrap();
    assert_eq!(unsealed, b"travels");
}
