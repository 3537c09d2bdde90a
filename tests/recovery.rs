//! Crash/recovery correctness of the mirror pipeline.
//!
//! The mirror commits an update as: dirty data pages → shadow slots,
//! then one metadata page write (the atomic commit point), then
//! post-commit scrubs. A manager crash between *any* two of those page
//! writes must be recoverable from the Dom0 frames alone, and the
//! recovered TPM must equal exactly the pre-command or the post-command
//! state — nothing in between, nothing else.
//!
//! The k-of-n matrix below enumerates every crash point: a fault-free
//! twin run counts the command's Dom0 page writes (n), then one fresh
//! platform per k ∈ [0, n] crashes after exactly k writes and recovers.

use std::sync::Arc;
use std::time::Duration;

use vtpm_xen::access_control::SecurePlatform;
use vtpm_xen::bench_workload::TpmOracle;
use vtpm_xen::tpm12::TpmConfig;
use vtpm_xen::vtpm_stack::{ManagerConfig, MirrorMode, Platform, VtpmManager};
use vtpm_xen::xen::{DomainId, Hypervisor};

fn cfg() -> ManagerConfig {
    ManagerConfig {
        mirror_mode: MirrorMode::Encrypted,
        vtpm_config: TpmConfig { nv_budget: 32 * 1024, ..Default::default() },
        ..Default::default()
    }
}

/// Deterministically rebuild the same pre-command world: a started
/// instance whose state spans several mirror pages.
fn build_world(seed: &[u8]) -> (Arc<Hypervisor>, VtpmManager, u32) {
    use vtpm_xen::bench_workload::trace::apply_to_tpm;
    use vtpm_xen::bench_workload::TraceEvent;
    let hv = Arc::new(Hypervisor::boot(4096, 8).unwrap());
    let mgr = VtpmManager::new(Arc::clone(&hv), seed, cfg()).unwrap();
    let id = mgr.create_instance().unwrap();
    mgr.with_instance(id, |i| {
        apply_to_tpm(&mut i.tpm, &TraceEvent::Startup);
        i.tpm.provision_nv(0x50, &vec![0xB7; 10 * 1024]).unwrap();
    })
    .unwrap();
    (hv, mgr, id)
}

/// The command under test: an NV provision that grows the image across
/// page boundaries — several dirty data pages plus the meta commit plus
/// post-commit scrubs, i.e. the longest write sequence the mirror does.
fn target_command(mgr: &VtpmManager, id: u32) {
    mgr.with_instance(id, |i| {
        let _ = i.tpm.provision_nv(0x51, &vec![0xC9; 6 * 1024]);
        let _ = i.tpm.pcrs_mut().extend(4, &[0x5C; 20]);
    })
    .unwrap();
}

#[test]
fn crash_matrix_every_k_recovers_to_pre_or_post() {
    const SEED: &[u8] = b"crash-matrix";

    // Fault-free twin run: count the command's Dom0 page writes (n) and
    // capture the two legal outcome states + oracles.
    let (hv, mgr, id) = build_world(SEED);
    let pre_state = mgr.export_instance_state(id).unwrap();
    let pre_oracle = mgr.with_instance(id, |i| TpmOracle::capture(&i.tpm)).unwrap();
    let writes_before = hv.dom0_page_writes();
    target_command(&mgr, id);
    let n = hv.dom0_page_writes() - writes_before;
    let post_state = mgr.export_instance_state(id).unwrap();
    let post_oracle = mgr.with_instance(id, |i| TpmOracle::capture(&i.tpm)).unwrap();
    assert!(n >= 3, "target command must span several page writes (got {n})");
    assert_ne!(pre_state, post_state);
    drop(mgr);

    let (mut saw_pre, mut saw_post) = (0u64, 0u64);
    for k in 0..=n {
        let (hv, mgr, id2) = build_world(SEED);
        assert_eq!(id2, id, "world rebuild must be deterministic");
        assert_eq!(mgr.export_instance_state(id).unwrap(), pre_state);

        hv.inject_write_crash(DomainId::DOM0, k);
        target_command(&mgr, id);
        hv.clear_faults();
        drop(mgr);

        let (rec, report) = VtpmManager::recover(Arc::clone(&hv), SEED, cfg()).unwrap();
        assert_eq!(report.resumed, vec![id], "k={k}");
        assert_eq!(report.failed, Vec::<u32>::new(), "k={k}");

        let got = rec.export_instance_state(id).unwrap();
        if got == pre_state {
            saw_pre += 1;
            assert_eq!(
                rec.with_instance(id, |i| pre_oracle.diff(&i.tpm)).unwrap(),
                Vec::<String>::new(),
                "k={k}: recovered state equals pre bytes but diverges from pre oracle"
            );
        } else if got == post_state {
            saw_post += 1;
            assert_eq!(
                rec.with_instance(id, |i| post_oracle.diff(&i.tpm)).unwrap(),
                Vec::<String>::new(),
                "k={k}: recovered state equals post bytes but diverges from post oracle"
            );
        } else {
            panic!("k={k}/{n}: recovered state is neither pre- nor post-command");
        }

        // The recovered manager keeps working: the generation burn means
        // further mutations never reuse a crash-consumed CTR nonce.
        rec.enable_nonce_audit();
        rec.with_instance(id, |i| i.tpm.pcrs_mut().extend(9, &[k as u8; 20]).unwrap())
            .unwrap();
        assert_eq!(rec.nonce_reuses(), 0, "k={k}");
        assert_eq!(
            rec.resident_image(id).unwrap(),
            rec.export_instance_state(id).unwrap(),
            "k={k}: mirror incoherent after post-recovery mutation"
        );
    }

    // k=0 dies before the first write (old image intact); k=n never
    // trips (update commits). Both legal outcomes must appear.
    assert!(saw_pre >= 1, "no crash point preserved the pre-state");
    assert!(saw_post >= 1, "no crash point reached the post-state");
    assert_eq!(saw_pre + saw_post, n + 1);
}

#[test]
fn multi_instance_crash_matrix_recovers_each_instance_to_pre_or_post() {
    // Multi-instance variant of the k-of-n matrix: three instances are
    // mutated in order, each update committing inline (dirty shadow
    // pages, then its metadata frame). A crash after any k of the
    // sequence's page writes must recover every instance to exactly its
    // pre- or post-mutation state, and the committed set must be a
    // prefix of the mutation order (the crash fails every later write,
    // so no instance can commit after an earlier one failed).
    const SEED: &[u8] = b"multi-instance-matrix";
    use vtpm_xen::bench_workload::trace::apply_to_tpm;
    use vtpm_xen::bench_workload::TraceEvent;

    fn build_world(seed: &[u8]) -> (Arc<Hypervisor>, VtpmManager, Vec<u32>) {
        let hv = Arc::new(Hypervisor::boot(8192, 8).unwrap());
        let mgr = VtpmManager::new(Arc::clone(&hv), seed, cfg()).unwrap();
        let ids: Vec<u32> = (0..3).map(|_| mgr.create_instance().unwrap()).collect();
        for (j, &id) in ids.iter().enumerate() {
            mgr.with_instance(id, |i| {
                apply_to_tpm(&mut i.tpm, &TraceEvent::Startup);
                i.tpm.provision_nv(0x40 + j as u32, &vec![0xA0 + j as u8; 4 * 1024]).unwrap();
            })
            .unwrap();
        }
        (hv, mgr, ids)
    }

    // The sequence under test: one distinct mutation per instance, in
    // id order, each mirrored before the next starts.
    fn run_sequence(mgr: &VtpmManager, ids: &[u32]) {
        for (j, &id) in ids.iter().enumerate() {
            mgr.with_instance(id, |i| {
                let _ = i.tpm.provision_nv(0x60 + j as u32, &vec![0xC0 + j as u8; 3 * 1024]);
                let _ = i.tpm.pcrs_mut().extend(j, &[0x70 + j as u8; 20]);
            })
            .unwrap();
        }
    }

    // Fault-free twin run: count the sequence's Dom0 page writes and
    // capture the legal per-instance outcome states.
    let (hv, mgr, ids) = build_world(SEED);
    let pre: Vec<Vec<u8>> =
        ids.iter().map(|&id| mgr.export_instance_state(id).unwrap()).collect();
    let pre_oracle: Vec<TpmOracle> = ids
        .iter()
        .map(|&id| mgr.with_instance(id, |i| TpmOracle::capture(&i.tpm)).unwrap())
        .collect();
    let writes_before = hv.dom0_page_writes();
    run_sequence(&mgr, &ids);
    let n = hv.dom0_page_writes() - writes_before;
    let post: Vec<Vec<u8>> =
        ids.iter().map(|&id| mgr.export_instance_state(id).unwrap()).collect();
    let post_oracle: Vec<TpmOracle> = ids
        .iter()
        .map(|&id| mgr.with_instance(id, |i| TpmOracle::capture(&i.tpm)).unwrap())
        .collect();
    assert!(n >= 6, "a three-instance sequence must span many page writes (got {n})");
    for j in 0..ids.len() {
        assert_ne!(pre[j], post[j], "instance {j} must change in the sequence");
    }
    drop(mgr);

    let (mut saw_all_pre, mut saw_all_post, mut saw_mixed) = (0u64, 0u64, 0u64);
    for k in 0..=n {
        let (hv, mgr, ids2) = build_world(SEED);
        assert_eq!(ids2, ids, "world rebuild must be deterministic");

        hv.inject_write_crash(DomainId::DOM0, k);
        run_sequence(&mgr, &ids);
        hv.clear_faults();
        drop(mgr);

        let (rec, report) = VtpmManager::recover(Arc::clone(&hv), SEED, cfg()).unwrap();
        assert_eq!(report.resumed, ids, "k={k}");
        assert_eq!(report.failed, Vec::<u32>::new(), "k={k}");

        let mut committed = Vec::new();
        for (j, &id) in ids.iter().enumerate() {
            let got = rec.export_instance_state(id).unwrap();
            if got == pre[j] {
                committed.push(false);
                assert_eq!(
                    rec.with_instance(id, |i| pre_oracle[j].diff(&i.tpm)).unwrap(),
                    Vec::<String>::new(),
                    "k={k} instance {j}: pre bytes but pre-oracle divergence"
                );
            } else if got == post[j] {
                committed.push(true);
                assert_eq!(
                    rec.with_instance(id, |i| post_oracle[j].diff(&i.tpm)).unwrap(),
                    Vec::<String>::new(),
                    "k={k} instance {j}: post bytes but post-oracle divergence"
                );
            } else {
                panic!("k={k}/{n} instance {j}: state is neither pre- nor post-mutation");
            }
        }
        // In-order commits: the committed set is a prefix.
        assert!(
            committed.windows(2).all(|w| w[0] || !w[1]),
            "k={k}: non-prefix commit pattern {committed:?} — commit order violated"
        );
        if committed.iter().all(|&c| !c) {
            saw_all_pre += 1;
        }
        if committed.iter().all(|&c| c) {
            saw_all_post += 1;
        } else if committed[0] {
            saw_mixed += 1;
        }

        // The recovered manager keeps its nonce-burn discipline: fresh
        // mutations never reuse a consumed nonce.
        rec.enable_nonce_audit();
        for &id in &ids {
            rec.with_instance(id, |i| i.tpm.pcrs_mut().extend(9, &[k as u8; 20]).unwrap())
                .unwrap();
        }
        assert_eq!(rec.nonce_reuses(), 0, "k={k}");
        for &id in &ids {
            assert_eq!(
                rec.resident_image(id).unwrap(),
                rec.export_instance_state(id).unwrap(),
                "k={k}: mirror incoherent after post-recovery mutations"
            );
        }
    }
    assert!(saw_all_pre >= 1, "no crash point preserved every pre-state");
    assert!(saw_all_post >= 1, "no crash point committed every mutation");
    assert!(saw_mixed >= 1, "no crash point fell between two instances' commits");
}

#[test]
fn crash_during_destroy_then_recovery_keeps_instance() {
    // A scrub crash during destroy_instance must not lose the instance:
    // the failed destroy leaves it routed, and a subsequent manager
    // crash + recovery still resumes it from its committed region.
    const SEED: &[u8] = b"destroy-crash";
    let (hv, mgr, id) = build_world(SEED);
    let state = mgr.export_instance_state(id).unwrap();
    hv.inject_write_crash(DomainId::DOM0, 0);
    assert!(mgr.destroy_instance(id).is_err());
    hv.clear_faults();
    drop(mgr);
    let (rec, report) = VtpmManager::recover(Arc::clone(&hv), SEED, cfg()).unwrap();
    assert_eq!(report.resumed, vec![id]);
    assert_eq!(rec.export_instance_state(id).unwrap(), state);
}

/// A manager restart must not strand the guests launched before it:
/// every backend is rebound to the recovered manager, the same frontend
/// is served again without reconnecting, and no request reaches the
/// dropped manager.
#[test]
fn recover_manager_keeps_launched_guests_served() {
    let mut platform = Platform::improved(b"recover-serves-guests").unwrap();
    let mut guest = platform.launch_guest("g").unwrap();
    // Bounded, so a stranded guest fails fast instead of hanging.
    guest.front.timeout = Duration::from_secs(2);
    let mut client = guest.client(b"c");
    client.startup_clear().unwrap();
    client.get_random(8).unwrap();
    client.extend(5, &[0x5A; 20]).unwrap();

    let dropped = Arc::clone(&platform.manager);
    let handled_before = dropped.stats_snapshot().handled;
    let report = platform.recover_manager().unwrap();
    assert_eq!(report.resumed.len(), 1);

    assert_eq!(client.get_random(8).unwrap().len(), 8);
    assert_ne!(client.pcr_read(5).unwrap(), [0; 20], "state survived the restart");
    assert_eq!(platform.manager.stats_snapshot().handled, 2, "the recovered manager served");
    assert_eq!(dropped.stats_snapshot().handled, handled_before, "the dropped manager served");
}

/// Service resumes after a restart under the same access control: the
/// recovered manager runs the installed hook, so a credentialed guest is
/// still served and audited, and a guest without a credential is still
/// refused.
#[test]
fn recover_manager_keeps_the_access_hook() {
    let mut sp = SecurePlatform::full(b"recover-keeps-hook").unwrap();
    let mut guest = sp.launch_guest("g").unwrap();
    let mut rogue = sp.platform.launch_guest("rogue").unwrap();
    guest.front.timeout = Duration::from_secs(2);
    rogue.front.timeout = Duration::from_secs(2);
    guest.client(b"c").startup_clear().unwrap();
    let hook = sp.platform.manager.hook_name();

    sp.platform.recover_manager().unwrap();
    assert_eq!(sp.platform.manager.hook_name(), hook);
    let audited = sp.hook.audit.len();
    assert_eq!(guest.client(b"c2").get_random(8).unwrap().len(), 8);
    assert!(sp.hook.audit.len() > audited, "the recovered manager skipped the hook");
    assert!(rogue.client(b"r").startup_clear().is_err());
}

#[test]
fn persist_truncation_sweep_never_panics() {
    // Every strict prefix of a valid encrypted database must be rejected
    // with a typed error — no panic, no partial restore.
    use vtpm_xen::tpm12::{DirectTransport, Tpm, TpmClient};
    use vtpm_xen::vtpm_stack::persist::{persist, restore};

    let (_hv, mgr, _id) = build_world(b"persist-sweep");
    let mut hw = Tpm::new(b"sweep-hw");
    let mut c = TpmClient::new(DirectTransport { tpm: &mut hw, locality: 0 }, b"boot");
    c.startup_clear().unwrap();
    c.take_ownership(&[1; 20], &[2; 20]).unwrap();
    let db = persist(&mgr, &mut hw, &[2; 20]).unwrap();

    // Dense sweep over the header + strided sweep over the body.
    let lens: Vec<usize> = (0..db.len().min(160))
        .chain((160..db.len()).step_by(41))
        .chain(db.len().saturating_sub(48)..db.len())
        .collect();
    for len in lens {
        let hv = Arc::new(Hypervisor::boot(1024, 8).unwrap());
        let r = restore(hv, b"persist-sweep", ManagerConfig::default(), &db[..len], &mut hw, &[2; 20]);
        assert!(r.is_err(), "truncated db (len {len}/{}) must be rejected", db.len());
    }
}

#[test]
fn chaos_harness_smoke() {
    // One seeded chaos scenario end to end, replayed for determinism —
    // the full harness lives in crates/harness; this keeps a sentinel in
    // the root test suite.
    use vtpm_harness::{replay, ChaosConfig};
    let cfg = ChaosConfig { events: 32, faults: 3, ..ChaosConfig::default() };
    let (a, deterministic) = replay(&cfg, b"root-smoke").unwrap();
    assert!(deterministic, "chaos replay must be deterministic");
    assert_eq!(a.divergences, Vec::<String>::new());
    assert_eq!(a.nonce_reuses, 0);
}
