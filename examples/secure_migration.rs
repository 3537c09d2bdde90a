//! Live-migrate a VM's vTPM between two physical hosts of a 3-host
//! cluster, comparing the baseline cleartext hand-off against the
//! improved destination-bound sealed one — including what an on-path
//! attacker sees on the fabric, and why the third host cannot open the
//! package it carried.
//!
//! ```text
//! cargo run --release --example secure_migration
//! ```

use vtpm_harness::hex;
use vtpm_xen::attack::high_entropy_fragments;
use vtpm_xen::cluster::MigMessage;
use vtpm_xen::prelude::*;
use vtpm_xen::tpm12::DirectTransport;
use vtpm_xen::vtpm_stack::MigrationPackage;

/// Boot the VM's vTPM, take ownership and measure into PCR 7.
fn seed_vm(cluster: &Cluster, vm: u32) -> [u8; 20] {
    cluster
        .with_vm(vm, |i| {
            let mut tpm = TpmClient::new(DirectTransport { tpm: &mut i.tpm, locality: 0 }, b"app");
            tpm.startup_clear().expect("startup");
            tpm.take_ownership(&[1; 20], &[2; 20]).expect("ownership");
            tpm.extend(7, &[0x5E; 20]).expect("measure");
            tpm.pcr_read(7).expect("read")
        })
        .expect("vm is live")
}

/// The package of the hand-off's `Transfer` frame, as a wiretap saw it.
fn tapped_package(cluster: &Cluster) -> MigrationPackage {
    cluster
        .fabric
        .wiretap()
        .iter()
        .find_map(|f| match MigMessage::decode(&f[1..]) {
            Some(MigMessage::Transfer { package, .. }) => MigrationPackage::decode(&package).ok(),
            _ => None,
        })
        .expect("the hand-off sent a Transfer frame")
}

fn main() {
    for sealed in [false, true] {
        let mode = if sealed { "sealed" } else { "baseline" };
        let mut cluster = Cluster::new(b"secure-migration", ClusterConfig { sealed, ..Default::default() })
            .expect("cluster");
        let vm = cluster.create_vm().expect("vm");
        let src = cluster.home_of(vm).expect("placed");
        let (dst, mallory) = ((src + 1) % 3, (src + 2) % 3);

        let pcr7_before = seed_vm(&cluster, vm);
        let state = cluster.with_vm(vm, |i| i.tpm.serialize_state()).expect("vm is live");
        let probes = high_entropy_fragments(&state, 4);
        println!("{mode}: vm {vm} on host {src}, PCR7 = {}", hex(&pcr7_before[..8]));

        assert_eq!(cluster.migrate(vm, dst), MigrateOutcome::Committed);
        let pkg = tapped_package(&cluster);
        let seen = probes.iter().filter(|&&(a, b)| pkg.exposes(&state[a..b])).count();
        println!(
            "  wiretap: {}-byte package, {seen}/{} state fragments visible to an on-path observer",
            pkg.encode().len(),
            probes.len(),
        );

        // A stolen sealed package is useless on any other physical host:
        // the session key is bound to the destination's hardware TPM EK.
        let stolen = cluster.hosts[mallory].platform.open_migration_package(&pkg);
        match &stolen {
            Err(e) => println!("  host {mallory} cannot open it: {e}"),
            Ok(_) => println!("  host {mallory} opens it too: the baseline has no destination binding"),
        }
        assert_eq!(stolen.is_err(), sealed);

        let pcr7_after = cluster.with_vm(vm, |i| i.tpm.pcrs().read(7).expect("pcr")).expect("vm");
        println!(
            "  host {dst} serves vm {vm}: PCR7 = {} (match: {})",
            hex(&pcr7_after[..8]),
            pcr7_after == pcr7_before
        );
        assert_eq!(cluster.runnable_hosts(vm), vec![dst]);
        assert_eq!(pcr7_after, pcr7_before);
    }
}
