//! Watch a three-host cluster through the observability plane: stitch
//! every host's request spans and a live migration into one causal
//! Chrome trace, then run the A7 migration-window dump attack and let
//! the streaming sentinel catch it from the same exhaust.
//!
//! ```text
//! cargo run --release --example sentinel_watch
//! ```
//!
//! Writes `target/cluster-trace.json` — open it in `chrome://tracing`
//! or Perfetto: one process lane per host, the migration's stage spans
//! laid across source and destination, every slice carrying the
//! `trace_id` both hosts' audit hash-chains recorded.

use vtpm_harness::{audit_event, dump_event};
use vtpm_xen::attack::migration_window_dump;
use vtpm_xen::bench_workload::generate_trace;
use vtpm_xen::prelude::*;
use vtpm_xen::telemetry::cluster_chrome_trace;

fn main() {
    // Three sealed-transfer hosts on a deterministic fabric.
    let mut cluster = Cluster::new(
        b"sentinel-demo",
        ClusterConfig { hosts: 3, ..ClusterConfig::default() },
    )
    .expect("cluster");
    let vm = cluster.create_vm().expect("vm");
    for ev in generate_trace(b"sentinel-demo/warm", 8) {
        cluster.apply_event(vm, &ev);
    }

    // A committed live hand-off to the next host over.
    let src = cluster.home_of(vm).expect("placed");
    let dst = (src + 1) % 3;
    assert_eq!(cluster.migrate(vm, dst), MigrateOutcome::Committed);

    // Stitch the cluster into one causal trace: per-host request spans
    // plus the migration attempt, joined by trace_id to both hosts'
    // audit chains.
    let host_spans: Vec<(u32, Vec<_>)> = cluster
        .hosts
        .iter()
        .enumerate()
        .map(|(h, host)| (h as u32, host.platform.manager.telemetry().drain_spans()))
        .collect();
    let migrations = cluster.telemetry().spans();
    let trace = cluster_chrome_trace(&host_spans, &migrations);
    std::fs::create_dir_all("target").expect("target dir");
    std::fs::write("target/cluster-trace.json", &trace).expect("write trace");
    println!(
        "stitched trace: target/cluster-trace.json ({} bytes, {} hosts, {} migration)",
        trace.len(),
        host_spans.len(),
        migrations.len(),
    );
    let mig = &migrations[0];
    println!(
        "  trace_id {:#018x}: vm {} epoch {} host {} -> host {} ({} ns downtime)",
        mig.trace_id, mig.vm, mig.epoch, mig.src_host, mig.dst_host, mig.downtime_ns
    );

    // Now the attack: mid-transfer, dump Dom0 RAM on both ends and
    // record the fabric. Sealed transfer + encrypted mirrors keep the
    // state out of reach...
    let outcome = migration_window_dump(&mut cluster, vm, src);
    println!("\nA7 migration-window dump: succeeded = {}", outcome.succeeded);
    println!("  {}", outcome.detail);
    assert!(!outcome.succeeded, "sealed transfer must hide the state");

    // ...and the sentinel, replaying the very same audit + dump-trail
    // exhaust as a virtual-time stream, flags the attempt.
    let mut sentinel = Sentinel::new(SentinelConfig::default());
    for (h, host) in cluster.hosts.iter().enumerate() {
        for e in host.audit.entries() {
            sentinel.observe(audit_event(h as u32, &e));
        }
        for d in host.platform.hv.dump_events() {
            sentinel.observe(dump_event(h as u32, &d));
        }
    }
    println!("\nsentinel: {} events, alerts:", sentinel.events_seen());
    for a in sentinel.alerts() {
        println!("  {}", a.line());
    }
    assert!(
        sentinel.critical_alerts().any(|a| a.detector == "dump-signature"),
        "the dump-signature detector must fire on the attack's dumps"
    );
    println!("\nthe attack was blocked AND detected.");
}
