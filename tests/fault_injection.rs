//! Fault injection: the stack must degrade cleanly, never panic, when
//! components misbehave — garbage on the wire, dead backends, exhausted
//! resources.

use std::time::Duration;

use vtpm_xen::prelude::*;
use vtpm_xen::vtpm_stack::{Envelope, ResponseEnvelope, ResponseStatus};

#[test]
fn garbage_envelopes_get_malformed_responses() {
    let p = Platform::baseline(b"fault-garbage").unwrap();
    let _g = p.launch_guest("g").unwrap();
    // A compromised component floods the manager with junk.
    for len in [0usize, 1, 7, 50, 300] {
        let junk = vec![0xA5u8; len];
        let resp = p.manager.handle(DomainId(1), &junk);
        let renv = ResponseEnvelope::decode(&resp).unwrap();
        assert_eq!(renv.status, ResponseStatus::Malformed, "len {len}");
    }
    // Legitimate traffic still flows afterwards.
    let mut g2 = p.launch_guest("g2").unwrap();
    let mut tpm = g2.client(b"c");
    tpm.startup_clear().unwrap();
}

#[test]
fn garbage_tpm_commands_get_tpm_errors_not_panics() {
    // Valid envelope, garbage command bytes: the TPM must answer with an
    // error response for every mutation.
    let p = Platform::baseline(b"fault-cmd").unwrap();
    let g = p.launch_guest("g").unwrap();
    let mut rng = vtpm_xen::crypto::Drbg::new(b"fuzz");
    for i in 0..200u64 {
        let len = (rng.next_u32() % 64) as usize;
        let cmd = rng.bytes(len);
        let env = Envelope {
            domain: g.domain.0,
            instance: g.instance,
            seq: i + 1,
            locality: 0,
            tag: None,
            command: cmd,
        };
        let resp = p.manager.handle(g.domain, &env.encode());
        let renv = ResponseEnvelope::decode(&resp).unwrap();
        assert_eq!(renv.status, ResponseStatus::Ok, "manager dispatched");
        let (_, code, _) = vtpm_xen::tpm12::parse_response(&renv.body).unwrap();
        assert_ne!(code, 0, "garbage must not succeed");
    }
}

#[test]
fn dead_backend_times_out_cleanly() {
    let p = Platform::baseline(b"fault-dead").unwrap();
    let mut g = p.launch_guest("g").unwrap();
    {
        let mut tpm = g.client(b"c");
        tpm.startup_clear().unwrap();
    }
    // Kill every backend thread, then call again with a short timeout.
    p.shutdown();
    g.front.timeout = Duration::from_millis(100);
    let mut tpm = g.client(b"c2");
    let t0 = std::time::Instant::now();
    let result = tpm.get_random(8);
    assert!(matches!(result, Err(vtpm_xen::tpm12::ClientError::Tpm(_))));
    assert!(t0.elapsed() < Duration::from_secs(5), "bounded timeout");
}

#[test]
fn revoked_grants_on_one_guest_leave_the_others_served() {
    use vtpm_xen::xen::RingFault;
    let p = Platform::baseline(b"fault-isolation").unwrap();
    let mut a = p.launch_guest("a").unwrap();
    let mut b = p.launch_guest("b").unwrap();
    a.client(b"a").startup_clear().unwrap();
    b.client(b"b").startup_clear().unwrap();
    // Guest A yanks its ring grants mid-exchange: its request dies with
    // the ring and Dom0's loop drops A's backend.
    a.front.timeout = Duration::from_millis(200);
    p.hv.inject_ring_fault(RingFault::RevokeGrants);
    assert!(matches!(
        a.client(b"a2").get_random(8),
        Err(vtpm_xen::tpm12::ClientError::Tpm(_))
    ));
    // Guest B, served by the same loop, never notices.
    b.front.timeout = Duration::from_secs(2);
    let mut tpm = b.client(b"b2");
    for r in 0..10u8 {
        tpm.extend(3, &[r; 20]).unwrap();
    }
    assert_eq!(tpm.get_random(8).unwrap().len(), 8);
    // And a guest launched afterwards is served too.
    let mut c = p.launch_guest("c").unwrap();
    c.client(b"c").startup_clear().unwrap();
}

#[test]
fn frame_exhaustion_fails_gracefully() {
    use vtpm_xen::vtpm_stack::ManagerConfig;
    // A host too small for many guests: launches fail with OutOfMemory,
    // nothing panics, earlier guests keep working.
    let p = vtpm_xen::vtpm_stack::Platform::with_config(
        b"fault-oom",
        128, // tiny machine
        ManagerConfig::default(),
        false,
    )
    .unwrap();
    let mut launched = Vec::new();
    let mut failures = 0;
    for i in 0..8 {
        match p.launch_guest(&format!("g{i}")) {
            Ok(g) => launched.push(g),
            Err(e) => {
                failures += 1;
                assert!(matches!(e, vtpm_xen::xen::XenError::OutOfMemory), "{e}");
            }
        }
    }
    assert!(failures > 0, "the tiny machine must run out");
    assert!(!launched.is_empty(), "at least one guest fits");
    let mut tpm = launched[0].client(b"c");
    tpm.startup_clear().unwrap();
}

#[test]
fn session_exhaustion_and_recovery_through_full_stack() {
    let p = Platform::baseline(b"fault-sessions").unwrap();
    let g = p.launch_guest("g").unwrap();
    let session_slots = p.manager.config().vtpm_config.session_slots;
    // Drive raw OIAP commands until the vTPM runs out of session slots.
    let mut handles = Vec::new();
    let mut seq = 0u64;
    let send = |seq: &mut u64, cmd: Vec<u8>| {
        *seq += 1;
        let env = Envelope {
            domain: g.domain.0,
            instance: g.instance,
            seq: *seq,
            locality: 0,
            tag: None,
            command: cmd,
        };
        let resp = p.manager.handle(g.domain, &env.encode());
        ResponseEnvelope::decode(&resp).unwrap().body
    };
    // Startup first.
    send(&mut seq, vec![0x00, 0xC1, 0, 0, 0, 12, 0, 0, 0, 0x99, 0, 1]);
    let oiap = |_: usize| {
        let mut c = vec![0x00, 0xC1, 0, 0, 0, 10];
        c.extend_from_slice(&vtpm_xen::tpm12::ordinal::OIAP.to_be_bytes());
        c
    };
    for i in 0..session_slots {
        let body = send(&mut seq, oiap(i));
        let (_, code, out) = vtpm_xen::tpm12::parse_response(&body).unwrap();
        assert_eq!(code, 0);
        handles.push(u32::from_be_bytes(out[..4].try_into().unwrap()));
    }
    // One more is refused with RESOURCES.
    let body = send(&mut seq, oiap(99));
    let (_, code, _) = vtpm_xen::tpm12::parse_response(&body).unwrap();
    assert_eq!(code, vtpm_xen::tpm12::rc::RESOURCES);
    // Flush one session; capacity returns.
    let mut flush = vec![0x00, 0xC1, 0, 0, 0, 18];
    flush.extend_from_slice(&vtpm_xen::tpm12::ordinal::FLUSH_SPECIFIC.to_be_bytes());
    flush.extend_from_slice(&handles[0].to_be_bytes());
    flush.extend_from_slice(&2u32.to_be_bytes());
    let body = send(&mut seq, flush);
    assert_eq!(vtpm_xen::tpm12::parse_response(&body).unwrap().1, 0);
    let body = send(&mut seq, oiap(100));
    assert_eq!(vtpm_xen::tpm12::parse_response(&body).unwrap().1, 0);
}

#[test]
fn destroyed_instance_leaves_no_residue() {
    let p = Platform::baseline(b"fault-residue").unwrap();
    let mut g = p.launch_guest("g").unwrap();
    {
        let mut tpm = g.client(b"c");
        tpm.startup_clear().unwrap();
    }
    let state = p.manager.export_instance_state(g.instance).unwrap();
    let probe = &state[50..114]; // EK prime region: high-entropy
    // Present in the dump while alive (baseline).
    let dump = vtpm_xen::attack::MemoryDump::capture(p.manager.hypervisor(), DomainId::DOM0)
        .unwrap();
    assert!(dump.contains_any(&[probe]));
    // Destroy: the mirror is scrubbed, nothing remains.
    assert!(p.manager.destroy_instance(g.instance).unwrap());
    let dump = vtpm_xen::attack::MemoryDump::capture(p.manager.hypervisor(), DomainId::DOM0)
        .unwrap();
    assert!(!dump.contains_any(&[probe]), "destroyed instance must be scrubbed");
    // Requests to the dead instance answer NoInstance.
    let env = Envelope {
        domain: g.domain.0,
        instance: g.instance,
        seq: 999,
        locality: 0,
        tag: None,
        command: vec![0x00, 0xC1, 0, 0, 0, 12, 0, 0, 0, 0x99, 0, 1],
    };
    let resp = p.manager.handle(g.domain, &env.encode());
    assert_eq!(
        ResponseEnvelope::decode(&resp).unwrap().status,
        ResponseStatus::NoInstance
    );
}

#[test]
fn failed_initial_mirror_leaves_no_tracked_region() {
    // Regression: create_instance mirrors the fresh instance's first
    // image before routing it. If that update dies partway (Dom0 write
    // fault), the half-written region used to stay *tracked* — never
    // routed, never scrubbed, and squatting on the id. The error path
    // must untrack it so the failed create leaves nothing behind.
    // Sweep the crash point across every write of the initial mirror.
    use std::sync::Arc;
    use vtpm_xen::vtpm_stack::{ManagerConfig, MirrorMode, VtpmManager};

    let cfg = ManagerConfig { mirror_mode: MirrorMode::Encrypted, ..Default::default() };
    let mut k = 0u64;
    loop {
        let hv = Arc::new(Hypervisor::boot(4096, 8).unwrap());
        let mgr =
            VtpmManager::new(Arc::clone(&hv), b"fault-create-leak", cfg.clone()).unwrap();
        let first = mgr.create_instance().unwrap();
        hv.inject_write_crash(DomainId::DOM0, k);
        let res = mgr.create_instance();
        hv.clear_faults();
        match res {
            Err(_) => {
                // The failed create's id (allocated monotonically) must
                // not keep a mirror region, and the survivor is intact.
                assert!(
                    mgr.mirror_frames(first + 1).is_none(),
                    "k={k}: failed create leaked a tracked mirror region"
                );
                assert_eq!(mgr.instance_ids(), vec![first]);
                assert!(mgr.mirror_frames(first).is_some());
                // Recovery from the frames alone agrees: only the
                // survivor comes back, nothing half-written resurrects.
                drop(mgr);
                let (rec, report) =
                    VtpmManager::recover(Arc::clone(&hv), b"fault-create-leak", cfg.clone())
                        .unwrap();
                assert_eq!(report.resumed, vec![first], "k={k}");
                assert_eq!(report.failed, Vec::<u32>::new(), "k={k}");
                // The recovered world can reuse the id space freely.
                let next = rec.create_instance().unwrap();
                assert!(rec.mirror_frames(next).is_some());
            }
            Ok(id) => {
                // Enough budget for a full create: the sweep is done.
                assert!(mgr.mirror_frames(id).is_some());
                assert!(k > 0, "k=0 must fail the create");
                break;
            }
        }
        k += 1;
        assert!(k < 200, "initial mirror should not take 200 writes");
    }
}

#[test]
fn oversized_command_rejected_at_the_ring() {
    let p = Platform::baseline(b"fault-oversize").unwrap();
    let mut g = p.launch_guest("g").unwrap();
    // Larger than the ring's capacity: write_msg refuses, transact errors.
    let huge = vec![0u8; 16 * 1024];
    let env = g.front.build_envelope(&huge);
    assert!(g.front.transact_envelope(&env).is_err());
    // The frontend remains usable for sane commands.
    let mut tpm = g.client(b"c");
    tpm.startup_clear().unwrap();
}
