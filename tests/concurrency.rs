//! Concurrency stress: the platform under simultaneous legitimate load,
//! attack traffic, and toolstack activity — the actual operating
//! conditions of a consolidation host.

use std::sync::Arc;

use vtpm_xen::prelude::*;
use vtpm_xen::vtpm_stack::{Envelope, ResponseEnvelope, ResponseStatus};

#[test]
fn workload_and_attacks_interleaved() {
    let sp = SecurePlatform::full(b"conc-mixed").unwrap();
    let guests: Vec<Guest> = (0..4).map(|i| sp.launch_guest(&format!("g{i}")).unwrap()).collect();
    let victim_instance = guests[0].instance;
    let victim_domain = guests[0].domain;

    // Legit guests hammer their vTPMs...
    let worker_handles: Vec<_> = guests
        .into_iter()
        .enumerate()
        .map(|(i, mut g)| {
            std::thread::spawn(move || {
                let mut tpm = g.client(format!("w{i}").as_bytes());
                tpm.startup_clear().unwrap();
                for r in 0..20u8 {
                    tpm.extend(0, &[r; 20]).unwrap();
                    tpm.get_random(8).unwrap();
                }
            })
        })
        .collect();

    // ...while an attacker floods forged envelopes at the victim.
    let manager = Arc::clone(&sp.platform.manager);
    let attacker = std::thread::spawn(move || {
        let mut denied = 0;
        for seq in 0..200u64 {
            let forged = Envelope {
                domain: victim_domain.0,
                instance: victim_instance,
                seq: 10_000 + seq,
                locality: 0,
                tag: None,
                command: vec![0x00, 0xC1, 0, 0, 0, 14, 0, 0, 0, 0x14, 0, 0, 0, 0],
            };
            let resp = manager.handle(victim_domain, &forged.encode());
            if ResponseEnvelope::decode(&resp).unwrap().status == ResponseStatus::Denied {
                denied += 1;
            }
        }
        denied
    });

    for h in worker_handles {
        h.join().unwrap();
    }
    let denied = attacker.join().unwrap();
    assert_eq!(denied, 200, "every forged envelope denied under load");
    // The legit traffic all succeeded: 4 guests * (1 + 40) commands.
    let stats = sp.platform.manager.stats_snapshot();
    let (handled, denied_stat) = (stats.handled, stats.denied);
    assert_eq!(handled, 4 * 41);
    assert_eq!(denied_stat, 200);
    // Audit chain intact after the concurrent barrage.
    let audit = sp.hook.audit.entries();
    assert!(vtpm_xen::access_control::AuditLog::verify(&audit));

    // The telemetry registry observed the same world: conservation over
    // outcomes, histograms consistent with the manager's own counters,
    // and every audit entry joinable back to a span via its request id.
    let snap = sp.platform.manager.metrics_snapshot();
    assert_eq!(snap.in_flight, 0, "quiescent manager has no open spans");
    assert_eq!(snap.allowed + snap.denied + snap.malformed, snap.finished);
    assert_eq!(snap.stage_exec.count, handled, "one execute-stage sample per handled command");
    assert_eq!(snap.denied, denied_stat);
    assert_eq!(snap.stage_ac.count, snap.allowed + snap.denied);
    assert_eq!(snap.total.count, snap.finished);
    for e in &audit {
        assert!(e.request_id > 0, "audit entry without a span join key");
        assert!(e.request_id <= snap.begun, "audit entry cites an unminted request id");
    }
}

/// N concurrent guest domains against one manager with a deliberately
/// tiny span ring: the decision counters must conserve exactly, the
/// stage histograms must agree with `stats_snapshot()`, and the overflow
/// drop count must be exact (kept + dropped == finished), not an
/// estimate.
#[test]
fn telemetry_conserves_and_counts_drops_exactly() {
    use vtpm_xen::access_control::ImprovedHook;
    use vtpm_xen::vtpm_stack::Envelope;

    const GUESTS: u32 = 4;
    const EXTENDS: u64 = 100;
    const FORGED: u64 = 150;
    const GARBAGE: u64 = 50;

    let hv = Arc::new(Hypervisor::boot(4096, 16).unwrap());
    let mgr = Arc::new(
        VtpmManager::new(
            Arc::clone(&hv),
            b"conc-telemetry",
            ManagerConfig {
                charge_virtual_time: false,
                // 16 stripes x 4 slots: far fewer than the spans this
                // test finishes, so the ring must overflow.
                telemetry_span_capacity: 4,
                ..Default::default()
            },
        )
        .unwrap(),
    );
    let hook = Arc::new(ImprovedHook::new(Arc::clone(&hv), b"conc-telemetry", AcConfig::default()));
    let keyed: Vec<(u32, u32, Vec<u8>)> = (1..=GUESTS)
        .map(|dom| {
            let inst = mgr.create_instance().unwrap();
            (dom, inst, hook.credentials.provision(dom, inst).to_vec())
        })
        .collect();
    mgr.set_hook(Arc::clone(&hook) as _);

    let cmd = |ordinal: u32, body: &[u8]| {
        let mut c = Vec::new();
        c.extend_from_slice(&0x00C1u16.to_be_bytes());
        c.extend_from_slice(&((10 + body.len()) as u32).to_be_bytes());
        c.extend_from_slice(&ordinal.to_be_bytes());
        c.extend_from_slice(body);
        c
    };
    let extend_body = {
        let mut b = Vec::new();
        b.extend_from_slice(&3u32.to_be_bytes());
        b.extend_from_slice(&[0x5Au8; 20]);
        b
    };

    let mut handles = Vec::new();
    for (dom, inst, key) in keyed.clone() {
        let mgr = Arc::clone(&mgr);
        let startup = cmd(ordinal::STARTUP, &1u16.to_be_bytes());
        let extend = cmd(ordinal::EXTEND, &extend_body);
        handles.push(std::thread::spawn(move || {
            for seq in 1..=(1 + EXTENDS) {
                let command = if seq == 1 { startup.clone() } else { extend.clone() };
                let env = Envelope { domain: dom, instance: inst, seq, locality: 0, tag: None, command }
                    .sign(&key);
                mgr.handle(DomainId(dom), &env.encode());
            }
        }));
    }
    // An attacker floods unsigned envelopes (denied: bad-tag)...
    {
        let mgr = Arc::clone(&mgr);
        let (dom, inst, _) = keyed[0].clone();
        let extend = cmd(ordinal::EXTEND, &extend_body);
        handles.push(std::thread::spawn(move || {
            for seq in 0..FORGED {
                let env = Envelope {
                    domain: dom,
                    instance: inst,
                    seq: 1_000_000 + seq,
                    locality: 0,
                    tag: None,
                    command: extend.clone(),
                };
                mgr.handle(DomainId(dom), &env.encode());
            }
        }));
    }
    // ...while garbage bytes exercise the malformed path.
    {
        let mgr = Arc::clone(&mgr);
        handles.push(std::thread::spawn(move || {
            for _ in 0..GARBAGE {
                mgr.handle(DomainId(1), &[0xFF; 16]);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let total = GUESTS as u64 * (1 + EXTENDS) + FORGED + GARBAGE;
    let snap = mgr.metrics_snapshot();
    assert_eq!(snap.begun, total);
    assert_eq!(snap.finished, total);
    assert_eq!(snap.in_flight, 0);
    // Exact conservation over outcomes.
    assert_eq!(snap.allowed, GUESTS as u64 * (1 + EXTENDS));
    assert_eq!(snap.denied, FORGED);
    assert_eq!(snap.malformed, GARBAGE);
    assert_eq!(snap.allowed + snap.denied + snap.malformed, snap.finished);
    assert_eq!(snap.deny_reasons[1], ("bad-tag", FORGED));
    // Histograms agree with the manager's own counters.
    let stats = mgr.stats_snapshot();
    assert_eq!(snap.stage_exec.count, stats.handled);
    assert_eq!(snap.stage_mirror.count, stats.handled);
    assert_eq!(snap.stage_ac.count, snap.allowed + snap.denied);
    assert_eq!(snap.total.count, snap.finished);
    assert_eq!(snap.denied, stats.denied);
    // Overflow accounting is exact: every finished span was either kept
    // in the ring or counted as dropped, nothing in between.
    let kept = mgr.telemetry().drain_spans().len() as u64;
    assert!(snap.dropped_events > 0, "tiny ring must overflow under this load");
    assert_eq!(kept + snap.dropped_events, snap.finished);
}

/// A sampler thread reads `stats_snapshot()` continuously while mixed
/// traffic (ok, denied, error, throttled) hammers the manager: every
/// snapshot must satisfy handled + denied + errors + throttled ==
/// finished. Before the seqlock, independent Relaxed loads let a
/// mid-command sample violate that conservation.
#[test]
fn stats_snapshots_conserve_while_mixed_traffic_runs() {
    use vtpm_xen::vtpm_stack::Envelope;

    let hv = Arc::new(Hypervisor::boot(4096, 16).unwrap());
    let mgr = Arc::new(
        VtpmManager::new(
            Arc::clone(&hv),
            b"conc-conserve",
            ManagerConfig {
                charge_virtual_time: false,
                admission: true,
                ..Default::default()
            },
        )
        .unwrap(),
    );
    let inst = mgr.create_instance().unwrap();
    let startup = vec![0x00, 0xC1, 0, 0, 0, 12, 0, 0, 0, 0x99, 0, 1];
    mgr.handle(
        DomainId(1),
        &Envelope { domain: 1, instance: inst, seq: 1, locality: 0, tag: None, command: startup }
            .encode(),
    );

    let pcr_read = {
        let mut c = Vec::new();
        c.extend_from_slice(&0x00C1u16.to_be_bytes());
        c.extend_from_slice(&14u32.to_be_bytes());
        c.extend_from_slice(&ordinal::PCR_READ.to_be_bytes());
        c.extend_from_slice(&0u32.to_be_bytes());
        c
    };

    const WORKERS: u64 = 3;
    const REQUESTS: u64 = 300;
    let mut handles = Vec::new();
    for t in 0..WORKERS {
        let mgr = Arc::clone(&mgr);
        let cmd = pcr_read.clone();
        handles.push(std::thread::spawn(move || {
            for s in 0..REQUESTS {
                // Ok traffic, NoInstance errors, and malformed garbage
                // interleave so every outcome counter is in motion.
                match s % 3 {
                    0 => {
                        mgr.handle(DomainId(1), &[0xEE; 11]);
                    }
                    1 => {
                        let env = Envelope {
                            domain: 1,
                            instance: 9999,
                            seq: 10_000 * t + s,
                            locality: 0,
                            tag: None,
                            command: cmd.clone(),
                        };
                        mgr.handle(DomainId(1), &env.encode());
                    }
                    _ => {
                        let env = Envelope {
                            domain: 1,
                            instance: inst,
                            seq: 10_000 * t + s,
                            locality: 0,
                            tag: None,
                            command: cmd.clone(),
                        };
                        mgr.handle(DomainId(1), &env.encode());
                    }
                }
            }
        }));
    }
    // Throttled exits too: latch domain 5 and bounce requests off it.
    {
        let mgr = Arc::clone(&mgr);
        let cmd = pcr_read.clone();
        handles.push(std::thread::spawn(move || {
            mgr.admission().throttle(5);
            for s in 0..REQUESTS {
                let env = Envelope {
                    domain: 5,
                    instance: inst,
                    seq: 50_000 + s,
                    locality: 0,
                    tag: None,
                    command: cmd.clone(),
                };
                mgr.handle(DomainId(5), &env.encode());
            }
        }));
    }
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let sampler = {
        let mgr = Arc::clone(&mgr);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            // Sample before checking `stop`: on a busy host the workers
            // can finish before this thread first runs.
            let mut samples = 0u64;
            loop {
                let s = mgr.stats_snapshot();
                assert_eq!(
                    s.handled + s.denied + s.errors + s.throttled,
                    s.finished,
                    "mid-traffic snapshot violated outcome conservation"
                );
                samples += 1;
                if stop.load(std::sync::atomic::Ordering::Relaxed) {
                    break samples;
                }
            }
        })
    };
    for h in handles {
        h.join().unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    assert!(sampler.join().unwrap() > 0);

    let s = mgr.stats_snapshot();
    assert_eq!(s.finished, 1 + (WORKERS + 1) * REQUESTS);
    assert!(s.throttled > 0, "the throttled domain must have been refused at ingress");
    assert_eq!(s.handled + s.denied + s.errors + s.throttled, s.finished);
}

#[test]
fn xenstore_transactions_race_correctly() {
    let hv = Arc::new(Hypervisor::boot(256, 8).unwrap());
    hv.xs_write(DomainId::DOM0, "/shared/counter", b"0").unwrap();

    // N threads each perform M read-modify-write transactions with the
    // EAGAIN retry loop; the final counter must equal N*M exactly.
    const THREADS: usize = 4;
    const INCREMENTS: usize = 25;
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let hv = Arc::clone(&hv);
            std::thread::spawn(move || {
                for _ in 0..INCREMENTS {
                    loop {
                        let txn = hv.xs_txn_begin(DomainId::DOM0).unwrap();
                        let cur: u64 = String::from_utf8(
                            hv.xs_txn_read(txn, "/shared/counter").unwrap(),
                        )
                        .unwrap()
                        .parse()
                        .unwrap();
                        hv.xs_txn_write(txn, "/shared/counter", (cur + 1).to_string().as_bytes())
                            .unwrap();
                        if hv.xs_txn_commit(txn).unwrap() {
                            break; // committed
                        }
                        // EAGAIN: retry
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let final_value: u64 = hv
        .xs_read_string(DomainId::DOM0, "/shared/counter")
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(final_value, (THREADS * INCREMENTS) as u64);
}

#[test]
fn launches_and_destroys_race_with_traffic() {
    let p = Platform::baseline(b"conc-churn").unwrap();
    // A stable guest runs traffic while other guests churn.
    let mut stable = p.launch_guest("stable").unwrap();
    let p = Arc::new(p);
    let churn = {
        let p = Arc::clone(&p);
        std::thread::spawn(move || {
            for round in 0..5 {
                let g = p.launch_guest(&format!("churn{round}")).unwrap();
                let mut tpm_client = vtpm_xen::tpm12::TpmClient::new(g.front, b"churn");
                tpm_client.startup_clear().unwrap();
                // Destroy the instance out from under future traffic.
                p.manager.destroy_instance(g.instance).unwrap();
            }
        })
    };
    let mut tpm = stable.client(b"stable");
    tpm.startup_clear().unwrap();
    for r in 0..30u8 {
        tpm.extend(1, &[r; 20]).unwrap();
    }
    churn.join().unwrap();
    // The stable guest never saw interference.
    assert_ne!(tpm.pcr_read(1).unwrap(), [0; 20]);
}
