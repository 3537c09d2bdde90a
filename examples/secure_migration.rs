//! Live-migrate a VM's vTPM between two physical hosts, comparing the
//! baseline cleartext protocol against the improved destination-bound
//! sealed protocol — including what an on-path attacker sees, and why a
//! third host cannot steal the package.
//!
//! ```text
//! cargo run --release --example secure_migration
//! ```

use vtpm_harness::hex;
use vtpm_xen::prelude::*;
use vtpm_xen::vtpm_stack::MigrationPackage;

fn seed_guest(platform: &SecurePlatform) -> (u32, [u8; 20]) {
    let mut guest = platform.launch_guest("mig-vm").expect("guest");
    let mut tpm = guest.client(b"app");
    tpm.startup_clear().expect("startup");
    let owner = [1u8; 20];
    let srk = [2u8; 20];
    tpm.take_ownership(&owner, &srk).expect("ownership");
    tpm.extend(7, &[0x5E; 20]).expect("measure");
    let pcr7 = tpm.pcr_read(7).expect("read");
    (guest.instance, pcr7)
}

fn main() {
    let source = SecurePlatform::full(b"host-A").expect("source host");
    let destination = SecurePlatform::full(b"host-B").expect("destination host");
    let mallory = SecurePlatform::full(b"host-M").expect("attacker host");

    let (instance, pcr7_before) = seed_guest(&source);
    println!("source: vTPM instance {instance} with PCR7 = {}", hex(&pcr7_before[..8]));

    // --- baseline protocol for comparison -----------------------------------
    let state = source.platform.manager.export_instance_state(instance).expect("state");
    let clear_pkg = vtpm_xen::vtpm_stack::migration::package_clear(&state);
    println!(
        "baseline package: {} bytes, state visible to on-path observer: {}",
        clear_pkg.encode().len(),
        clear_pkg.exposes(&state[..64]),
    );

    // --- improved protocol ---------------------------------------------------
    let dst_ek = destination.platform.hw_ek_public();
    let sealed_pkg: MigrationPackage = source
        .platform
        .export_instance(instance, true, Some(&dst_ek))
        .expect("export");
    println!(
        "sealed package:   {} bytes, state visible to on-path observer: {}",
        sealed_pkg.encode().len(),
        sealed_pkg.exposes(&state[..64]),
    );
    println!("source instance destroyed: {}", !source
        .platform
        .manager
        .instance_ids()
        .contains(&instance));

    // A stolen package is useless on any other physical host: the session
    // key is bound to the destination's hardware TPM EK.
    match mallory.platform.import_instance(&sealed_pkg) {
        Err(e) => println!("mallory's import fails: {e}"),
        Ok(_) => unreachable!("package must be destination-bound"),
    }

    // The rightful destination imports and the vTPM state survives intact.
    let new_id = destination.platform.import_instance(&sealed_pkg).expect("import");
    let pcr7_after = destination
        .platform
        .manager
        .with_instance(new_id, |i| i.tpm.pcrs().read(7).expect("pcr"))
        .expect("instance");
    println!(
        "destination: instance {new_id} restored, PCR7 = {} (match: {})",
        hex(&pcr7_after[..8]),
        pcr7_after == pcr7_before
    );
    assert_eq!(pcr7_after, pcr7_before);
}
