//! Criterion bench for R-F2: the hook's authorize() call alone, per AC
//! configuration — the measured microcost behind the breakdown — plus
//! the full `handle()` path per command class, with mirror bytes written
//! per command reported alongside the wall time.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vtpm::{AccessHook, Envelope, ManagerConfig, MirrorMode, RequestContext, VtpmManager};
use vtpm_ac::{AcConfig, ImprovedHook};
use xen_sim::{DomainId, Hypervisor};

fn bench_hook(c: &mut Criterion) {
    let mut group = c.benchmark_group("overhead_breakdown");
    let hv = Arc::new(Hypervisor::boot(64, 4).unwrap());
    let configs: Vec<(&str, AcConfig)> = vec![
        ("none", AcConfig::none()),
        ("auth", AcConfig { auth: true, replay: false, policy: false, audit: false, max_guest_locality: 4 }),
        ("policy", AcConfig { auth: false, replay: false, policy: true, audit: false, max_guest_locality: 4 }),
        ("full", AcConfig { replay: false, ..AcConfig::default() }),
    ];
    for (name, cfg) in configs {
        let hook = ImprovedHook::new(Arc::clone(&hv), b"bench-f2", cfg);
        let key = hook.credentials.provision(1, 1);
        let mut cmd = vec![0u8; 64];
        cmd[..2].copy_from_slice(&0x00C1u16.to_be_bytes());
        cmd[2..6].copy_from_slice(&64u32.to_be_bytes());
        cmd[6..10].copy_from_slice(&tpm::ordinal::SEAL.to_be_bytes());
        let env = Envelope { domain: 1, instance: 1, seq: 1, locality: 0, tag: None, command: cmd }
            .sign(&key);
        group.bench_with_input(BenchmarkId::new("authorize", name), &env, |b, env| {
            b.iter(|| {
                let ctx = RequestContext {
                    request_id: 0,
                    source_domain: DomainId(1),
                    claimed_domain: env.domain,
                    instance: env.instance,
                    seq: env.seq,
                    locality: env.locality,
                    ordinal: tpm::ordinal_of(&env.command),
                    tag: env.tag.as_ref(),
                    command: &env.command,
                };
                std::hint::black_box(hook.authorize(&ctx))
            })
        });
    }
    group.finish();
}

/// The end-to-end `handle()` path per command class and mirror mode.
/// Each benchmark also reports the mirror bytes written per command over
/// its timed run: read-only commands skip serialization and mirroring
/// entirely (0 B/cmd), mutating ones pay only for dirty pages.
fn bench_handle_with_mirror(c: &mut Criterion) {
    let mut group = c.benchmark_group("overhead_breakdown");
    group.sample_size(10);

    let pcr_read: Vec<u8> = {
        let mut cmd = Vec::new();
        cmd.extend_from_slice(&0x00C1u16.to_be_bytes());
        cmd.extend_from_slice(&14u32.to_be_bytes());
        cmd.extend_from_slice(&tpm::ordinal::PCR_READ.to_be_bytes());
        cmd.extend_from_slice(&0u32.to_be_bytes());
        cmd
    };
    let extend: Vec<u8> = {
        let mut cmd = Vec::new();
        cmd.extend_from_slice(&0x00C1u16.to_be_bytes());
        cmd.extend_from_slice(&34u32.to_be_bytes());
        cmd.extend_from_slice(&tpm::ordinal::EXTEND.to_be_bytes());
        cmd.extend_from_slice(&3u32.to_be_bytes());
        cmd.extend_from_slice(&[0xA5u8; 20]);
        cmd
    };

    for (cmd_name, cmd) in [("pcr_read", &pcr_read), ("extend", &extend)] {
        for (mode_name, mode) in
            [("cleartext", MirrorMode::Cleartext), ("encrypted", MirrorMode::Encrypted)]
        {
            let hv = Arc::new(Hypervisor::boot(4096, 16).unwrap());
            let mgr = VtpmManager::new(
                Arc::clone(&hv),
                b"bench-handle",
                ManagerConfig {
                    mirror_mode: mode,
                    charge_virtual_time: false,
                    ..Default::default()
                },
            )
            .unwrap();
            let inst = mgr.create_instance().unwrap();
            let startup = Envelope {
                domain: 1,
                instance: inst,
                seq: 1,
                locality: 0,
                tag: None,
                command: vec![0x00, 0xC1, 0, 0, 0, 12, 0, 0, 0, 0x99, 0, 1],
            };
            mgr.handle(DomainId(1), &startup.encode());

            let mut seq = 1u64;
            group.bench_with_input(
                BenchmarkId::new(format!("handle_{mode_name}"), cmd_name),
                cmd,
                |b, cmd| {
                    b.iter(|| {
                        seq += 1;
                        let env = Envelope {
                            domain: 1,
                            instance: inst,
                            seq,
                            locality: 0,
                            tag: None,
                            command: cmd.clone(),
                        };
                        mgr.handle(DomainId(1), &env.encode())
                    })
                },
            );
            // Mirror cost now comes from the telemetry registry: the
            // per-command byte histogram is measured at the commit site,
            // not reconstructed from global counter deltas.
            let snap = mgr.metrics_snapshot();
            let mb = &snap.mirror_bytes;
            eprintln!(
                "overhead_breakdown/mirror_bytes/{mode_name}/{cmd_name}: \
                 mean {:.1} B/cmd (p50 {} p99 {} max {}) over {} cmds",
                mb.mean, mb.p50, mb.p99, mb.max, mb.count,
            );
        }
    }
    group.finish();
}

/// Per-stage virtual-time breakdown of the full improved-AC request
/// path, measured (not reconstructed by subtraction): the manager's
/// telemetry spans stamp every stage boundary off the sim clock, and
/// the registry's log-linear histograms summarize them.
fn report_stage_breakdown(_c: &mut Criterion) {
    let hv = Arc::new(Hypervisor::boot(4096, 16).unwrap());
    let mgr = VtpmManager::new(
        Arc::clone(&hv),
        b"bench-stages",
        ManagerConfig { mirror_mode: MirrorMode::Encrypted, ..Default::default() },
    )
    .unwrap();
    let hook = Arc::new(ImprovedHook::new(Arc::clone(&hv), b"bench-stages", AcConfig::default()));
    let inst = mgr.create_instance().unwrap();
    let key = hook.credentials.provision(1, inst);
    mgr.set_hook(hook);
    let startup = vec![0x00, 0xC1, 0, 0, 0, 12, 0, 0, 0, 0x99, 0, 1];
    let extend: Vec<u8> = {
        let mut cmd = Vec::new();
        cmd.extend_from_slice(&0x00C1u16.to_be_bytes());
        cmd.extend_from_slice(&34u32.to_be_bytes());
        cmd.extend_from_slice(&tpm::ordinal::EXTEND.to_be_bytes());
        cmd.extend_from_slice(&3u32.to_be_bytes());
        cmd.extend_from_slice(&[0xA5u8; 20]);
        cmd
    };
    let mut seq = 0u64;
    let mut send = |cmd: &[u8]| {
        seq += 1;
        let env = Envelope {
            domain: 1,
            instance: inst,
            seq,
            locality: 0,
            tag: None,
            command: cmd.to_vec(),
        }
        .sign(&key);
        mgr.handle(DomainId(1), &env.encode());
    };
    send(&startup);
    for _ in 0..200 {
        send(&extend);
    }
    let snap = mgr.metrics_snapshot();
    for (stage, h) in [
        ("ingress", &snap.stage_ingress),
        ("ac_hook", &snap.stage_ac),
        ("execute", &snap.stage_exec),
        ("mirror", &snap.stage_mirror),
        ("total", &snap.total),
    ] {
        eprintln!(
            "overhead_breakdown/stage_virtual_ns/{stage}: \
             p50 {} p90 {} p99 {} max {} (n={})",
            h.p50, h.p90, h.p99, h.max, h.count,
        );
    }
}

criterion_group!(benches, bench_hook, bench_handle_with_mirror, report_stage_breakdown);
criterion_main!(benches);
