//! # vtpm-cluster — multi-host fabric with live vTPM migration
//!
//! The paper's access-control improvements assume the vTPM can follow
//! its guest across hosts; this crate builds that cluster layer on the
//! simulator: N [`vtpm::Platform`] instances as hosts, a deterministic
//! lossy/reordering/duplicating message [`fabric`], an eight-step live
//! migration [`protocol`] (prepare → quiesce → sealed transfer → verify
//! → commit/abort) with an **exactly-once** handoff guarantee, durable
//! per-host [`journal`]s for crash recovery, monotonic migration epochs
//! for anti-rollback, and a placement/rebalance layer that moves VMs
//! under live workload traffic.
//!
//! ```
//! use vtpm_cluster::{Cluster, ClusterConfig, MigrateOutcome};
//! use workload::generate_trace;
//!
//! let mut cluster = Cluster::new(b"doc-seed", ClusterConfig::default()).unwrap();
//! let vm = cluster.create_vm().unwrap();
//! for ev in generate_trace(b"doc-trace", 10) {
//!     cluster.apply_event(vm, &ev);
//! }
//! assert_eq!(cluster.migrate(vm, 2), MigrateOutcome::Committed);
//! assert_eq!(cluster.runnable_hosts(vm), vec![2]);
//! ```

pub mod cluster;
pub mod fabric;
pub mod journal;
pub mod protocol;

pub use cluster::{
    Cluster, ClusterConfig, ClusterError, ClusterHost, ControlFrame, MigrateOutcome, MigrationRun,
    QUIESCE_NS, RSA_OPEN_NS, RSA_SEAL_NS, SYM_BYTE_NS, VM_DOMAIN_BASE,
};
pub use fabric::{Fabric, FabricFault, FabricStats, FABRIC_BYTE_NS, FABRIC_MSG_NS};
pub use journal::{JournalRecord, MigrationJournal};
pub use protocol::{decode_payload, encode_payload, HeartbeatFrame, MetricsFrame, MigMessage};

#[cfg(test)]
mod tests {
    use super::*;
    use vtpm_telemetry::MigrationTelemetry;
    use workload::{generate_trace, TpmOracle};

    fn small() -> ClusterConfig {
        ClusterConfig { frames_per_host: 1024, ..Default::default() }
    }

    fn capture(cluster: &Cluster, vm: u32) -> TpmOracle {
        cluster.with_vm(vm, |i| TpmOracle::capture(&i.tpm)).unwrap()
    }

    fn assert_matches_oracle(cluster: &Cluster, vm: u32, oracle: &TpmOracle) {
        let diff = cluster.with_vm(vm, |i| oracle.diff(&i.tpm)).unwrap();
        assert!(diff.is_empty(), "state diverged: {diff:?}");
    }

    #[test]
    fn sealed_migration_preserves_state_and_serves_after() {
        let mut cluster = Cluster::new(b"cluster-t1", small()).unwrap();
        let vm = cluster.create_vm().unwrap();
        for ev in generate_trace(b"t1-trace", 40) {
            assert!(cluster.apply_event(vm, &ev));
        }
        let before = capture(&cluster, vm);
        let src = cluster.home_of(vm).unwrap();
        let dst = (src + 1) % cluster.config().hosts;

        assert_eq!(cluster.migrate(vm, dst), MigrateOutcome::Committed);
        assert_eq!(cluster.runnable_hosts(vm), vec![dst]);
        assert_matches_oracle(&cluster, vm, &before);

        // Keeps serving on the new host.
        for ev in generate_trace(b"t1-after", 20) {
            assert!(cluster.apply_event(vm, &ev));
        }
        // Both sides chained the stages into their audit logs.
        for h in [src, dst] {
            let entries = cluster.hosts[h].audit.entries();
            assert!(!entries.is_empty() && vtpm_ac::AuditLog::verify(&entries));
        }
        // Downtime was measured for the committed run.
        let snap = cluster.telemetry().snapshot();
        type M = MigrationTelemetry;
        assert_eq!((snap[M::STARTED], snap[M::COMMITTED]), (1, 1));
        assert!(snap[M::DOWNTIME].count == 1 && snap[M::DOWNTIME].max > 0);
    }

    #[test]
    fn clear_mode_migrates_too() {
        let mut cluster =
            Cluster::new(b"cluster-t2", ClusterConfig { sealed: false, ..small() }).unwrap();
        let vm = cluster.create_vm().unwrap();
        for ev in generate_trace(b"t2-trace", 25) {
            cluster.apply_event(vm, &ev);
        }
        let before = capture(&cluster, vm);
        assert_eq!(cluster.migrate(vm, 1), MigrateOutcome::Committed);
        assert_matches_oracle(&cluster, vm, &before);
    }

    #[test]
    fn tapped_transfer_opens_only_where_its_mode_allows() {
        use vtpm::migration::{MigrationError, MigrationPackage};
        for sealed in [true, false] {
            let mut cluster =
                Cluster::new(b"cluster-t9", ClusterConfig { sealed, ..small() }).unwrap();
            let vm = cluster.create_vm().unwrap();
            assert_eq!(cluster.home_of(vm), Some(0));
            let state = cluster.with_vm(vm, |i| i.tpm.serialize_state()).unwrap();
            assert_eq!(cluster.migrate(vm, 1), MigrateOutcome::Committed);
            let local = cluster.hosts[0].journal.local_of(vm);
            assert_eq!(local, None, "the source released the vm");

            // The 0→1 hand-off's Transfer frame, as a wiretap saw it.
            let pkg = cluster
                .fabric
                .wiretap()
                .iter()
                .find_map(|f| match MigMessage::decode(&f[1..]) {
                    Some(MigMessage::Transfer { package, .. }) => {
                        Some(MigrationPackage::decode(&package).unwrap())
                    }
                    _ => None,
                })
                .unwrap();
            assert_eq!(matches!(pkg, MigrationPackage::Sealed { .. }), sealed);
            assert_eq!(pkg.exposes(&state), !sealed, "sealed={sealed}");

            // Host 2 never prepared this hand-off: a sealed package is
            // bound to host 1's hardware TPM and host 2's refuses it;
            // the clear baseline opens anywhere.
            let stolen = cluster.hosts[2].platform.open_migration_package(&pkg);
            if sealed {
                assert_eq!(stolen, Err(MigrationError::WrongDestination));
            } else {
                assert!(stolen.is_ok());
            }
            let payload = cluster.hosts[1].platform.open_migration_package(&pkg).unwrap();
            let (pvm, epoch, opened) = decode_payload(&payload).unwrap();
            assert_eq!((pvm, epoch), (vm, 1));
            assert_eq!(opened, state);
        }
    }

    #[test]
    fn replayed_transfer_is_rejected_and_epoch_burned() {
        let mut cluster = Cluster::new(b"cluster-t3", small()).unwrap();
        let vm = cluster.create_vm().unwrap();
        for ev in generate_trace(b"t3-trace", 15) {
            cluster.apply_event(vm, &ev);
        }
        assert_eq!(cluster.migrate(vm, 1), MigrateOutcome::Committed);
        // Replay the captured Transfer frame at the destination: the
        // prepare for that epoch is closed, so it must be refused.
        let transfer = cluster
            .fabric
            .wiretap()
            .iter()
            .find(|f| matches!(MigMessage::decode(&f[1..]), Some(MigMessage::Transfer { .. })))
            .cloned()
            .unwrap();
        let before = capture(&cluster, vm);
        cluster.fabric.requeue(1, transfer);
        cluster.pump_host(1);
        assert_eq!(cluster.runnable_hosts(vm), vec![1]);
        assert_matches_oracle(&cluster, vm, &before);

        // A replayed Prepare for the burned epoch is refused as well.
        let prepare = cluster
            .fabric
            .wiretap()
            .iter()
            .find(|f| matches!(MigMessage::decode(&f[1..]), Some(MigMessage::Prepare { .. })))
            .cloned()
            .unwrap();
        cluster.fabric.requeue(1, prepare);
        cluster.pump_host(1);
        assert_eq!(cluster.hosts[1].journal.open_prepare(vm), None);
        assert_eq!(cluster.runnable_hosts(vm), vec![1]);
    }

    #[test]
    fn lost_prepare_ack_aborts_cleanly_and_retry_succeeds() {
        let mut cluster = Cluster::new(b"cluster-t4", small()).unwrap();
        let vm = cluster.create_vm().unwrap();
        for ev in generate_trace(b"t4-trace", 10) {
            cluster.apply_event(vm, &ev);
        }
        let before = capture(&cluster, vm);
        // Drop send #1 (the PrepareAck).
        cluster.fabric.inject_fault(1, FabricFault::Drop);
        let mut run = cluster.begin_migration(vm, 1).unwrap();
        while cluster.step(&mut run) {}
        assert_eq!(cluster.finish_run(run), MigrateOutcome::Aborted);
        // Source still authoritative, state untouched, VM thawed.
        assert_eq!(cluster.runnable_hosts(vm), vec![0]);
        assert_matches_oracle(&cluster, vm, &before);
        // The dangling destination prepare was closed by resolve().
        assert_eq!(cluster.hosts[1].journal.open_prepare(vm), None);
        // A later attempt (fresh epoch past the burned one) succeeds.
        assert_eq!(cluster.migrate(vm, 1), MigrateOutcome::Committed);
        assert_matches_oracle(&cluster, vm, &before);
    }

    #[test]
    fn duplicated_messages_do_not_break_a_healthy_run() {
        for at in 0..6 {
            let mut cluster = Cluster::new(b"cluster-t5", small()).unwrap();
            let vm = cluster.create_vm().unwrap();
            for ev in generate_trace(b"t5-trace", 10) {
                cluster.apply_event(vm, &ev);
            }
            let before = capture(&cluster, vm);
            cluster.fabric.inject_fault(at, FabricFault::Duplicate);
            let outcome = cluster.migrate(vm, 2);
            assert_eq!(outcome, MigrateOutcome::Committed, "dup at send {at}");
            assert_eq!(cluster.runnable_hosts(vm), vec![2], "dup at send {at}");
            assert_matches_oracle(&cluster, vm, &before);
        }
    }

    #[test]
    fn rebalance_spreads_vms_under_traffic() {
        let mut cluster = Cluster::new(b"cluster-t6", small()).unwrap();
        // create_vm places on the least-loaded host, so force the skew
        // by migrating everything onto host 0 first.
        let vms: Vec<u32> = (0..4).map(|_| cluster.create_vm().unwrap()).collect();
        for &vm in &vms {
            for ev in generate_trace(&[b"t6-trace/", &[vm as u8][..]].concat(), 8) {
                cluster.apply_event(vm, &ev);
            }
            if cluster.home_of(vm) != Some(0) {
                assert_eq!(cluster.migrate(vm, 0), MigrateOutcome::Committed);
            }
        }
        let moves = cluster.rebalance().expect("populated cluster");
        assert!(moves >= 2, "expected at least two moves, got {moves}");
        let counts: Vec<usize> =
            (0..3).map(|h| cluster.hosts[h].journal.mapped_vms().len()).collect();
        assert!(counts.iter().all(|&c| c >= 1), "still skewed: {counts:?}");
        // Every VM runnable on exactly one host and still serving.
        for &vm in &vms {
            assert_eq!(cluster.runnable_hosts(vm).len(), 1);
            for ev in generate_trace(&[b"t6-after/", &[vm as u8][..]].concat(), 4) {
                assert!(cluster.apply_event(vm, &ev));
            }
        }
    }

    #[test]
    fn trace_id_joins_wire_frames_audit_chains_and_span() {
        let mut cluster = Cluster::new(b"cluster-t8", small()).unwrap();
        let vm = cluster.create_vm().unwrap();
        for ev in generate_trace(b"t8-trace", 10) {
            cluster.apply_event(vm, &ev);
        }
        assert_eq!(cluster.migrate(vm, 1), MigrateOutcome::Committed);

        let spans = cluster.telemetry().spans();
        assert_eq!(spans.len(), 1);
        let trace = spans[0].trace_id;
        assert_eq!(spans[0].request_id, trace, "span joins audit chains by the same key");
        assert_eq!(trace, vtpm_telemetry::migration_trace_id(vm, spans[0].epoch));

        // Every wire frame of the attempt carried the trace id.
        for frame in cluster.fabric.wiretap() {
            let msg = MigMessage::decode(&frame[1..]).expect("wiretap frame decodes");
            assert_eq!(msg.trace(), trace, "frame {msg:?} lost the trace header");
        }
        // Both hosts chained the migration stages under that id, so the
        // trace joins source and destination audit logs causally.
        for h in [0usize, 1] {
            let entries = cluster.hosts[h].audit.entries();
            assert!(vtpm_ac::AuditLog::verify(&entries));
            let stages: Vec<_> = entries
                .iter()
                .filter(|e| {
                    matches!(e.outcome, vtpm_ac::AuditOutcome::Migration(_))
                        && e.request_id == trace
                })
                .collect();
            assert!(!stages.is_empty(), "host {h} has no audit entries under trace {trace:#x}");
        }
    }

    #[test]
    fn quiesced_vm_bounces_guest_traffic() {
        let mut cluster = Cluster::new(b"cluster-t7", small()).unwrap();
        let vm = cluster.create_vm().unwrap();
        for ev in generate_trace(b"t7-trace", 5) {
            cluster.apply_event(vm, &ev);
        }
        let mut run = cluster.begin_migration(vm, 1).unwrap();
        // Through quiesce (steps 0..=2), before transfer.
        for _ in 0..3 {
            assert!(cluster.step(&mut run));
        }
        assert!(cluster.runnable_hosts(vm).is_empty(), "quiesced VM must not be runnable");
        assert!(!cluster.apply_event(vm, &generate_trace(b"t7-extra", 1)[0]));
        // Finish the run; the VM serves again on the destination.
        while cluster.step(&mut run) {}
        assert_eq!(cluster.finish_run(run), MigrateOutcome::Committed);
        assert_eq!(cluster.runnable_hosts(vm), vec![1]);
    }
}
