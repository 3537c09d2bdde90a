//! Ride out a churn storm on a 100-host fleet: the phi-accrual
//! failure detector, the concurrent migration driver pool, and the
//! suspicion-driven rebalancer keep working while 10 hosts crash in
//! the middle of an active rebalance — and at the end every vTPM in
//! the fleet exists exactly once.
//!
//! ```text
//! cargo run --release --example fleet_storm
//! ```
//!
//! The storm also exercises the sentinel closed loop: the burst of
//! crash-recoveries trips the churn-storm detector (a `Warning` — an
//! operational condition, not a page), which pauses the rebalancer
//! via the same alert actuator the chaos harness drives; when the
//! churn subsides the detector emits its `Clear` transition and the
//! rebalancer resumes.

use vtpm_fleet::{Fleet, FleetConfig};
use vtpm_harness::{Actuator, Levers};
use vtpm_sentinel::{Sentinel, SentinelConfig, StreamEvent};
use vtpm_xen::cluster::{Cluster, ClusterConfig};
use vtpm_xen::telemetry::FleetTelemetry;

fn main() {
    // 90 loaded hosts; 10 more join empty in a moment, so the
    // rebalancer has real work in flight when the storm hits.
    let mut cluster = Cluster::new(
        b"fleet-storm",
        ClusterConfig { hosts: 90, frames_per_host: 2048, ..Default::default() },
    )
    .expect("cluster");
    let vms = 270;
    for _ in 0..vms {
        cluster.create_vm().expect("vm");
    }
    let mut fleet = Fleet::new(
        FleetConfig { max_in_flight: 16, max_plan_per_tick: 8, ..FleetConfig::default() },
        &cluster,
    );
    let mut sentinel = Sentinel::new(SentinelConfig::default());
    let mut actuator = Actuator::default();

    for _ in 0..10 {
        let h = cluster.add_host().expect("join");
        fleet.host_joined(&cluster, h);
    }
    println!(
        "fleet: {} hosts / {vms} vTPMs; 10 empty hosts just joined — rebalancing begins",
        cluster.hosts.len()
    );

    // Let the rebalancer get properly underway.
    for _ in 0..3 {
        fleet.tick(&mut cluster);
    }
    println!(
        "rebalance active: {} drives in flight, {} committed so far",
        fleet.pool().in_flight(),
        fleet.snapshot()[FleetTelemetry::COMMITTED],
    );

    // The storm: 10 loaded hosts drop dead mid-rebalance. In-flight
    // drives touching them are abandoned; their VMs are stranded until
    // revival.
    let doomed: Vec<usize> = (0..90).step_by(9).collect();
    for &h in &doomed {
        cluster.fabric.crash_host(h);
        fleet.host_down(&mut cluster, h);
    }
    println!("storm: hosts {doomed:?} crashed during the rebalance");

    // The control plane keeps running on what's left; the detector
    // starts suspecting the silent hosts from their missing heartbeats.
    for _ in 0..6 {
        fleet.tick(&mut cluster);
    }
    println!(
        "after the storm: {} suspects ({} drives abandoned, {} committed)",
        fleet.suspects().len(),
        fleet.snapshot()[FleetTelemetry::ABANDONED],
        fleet.snapshot()[FleetTelemetry::COMMITTED],
    );

    // Revival burst: every recovery is a CrashRecovery marker on the
    // sentinel's stream — ten inside one window is a churn storm.
    for &h in &doomed {
        cluster.recover_host(h).expect("recovery");
        fleet.host_up(&mut cluster, h);
        sentinel.observe(StreamEvent::CrashRecovery {
            host: h as u32,
            at_ns: cluster.hosts[h].platform.hv.clock.now_ns(),
        });
    }
    let acted = actuator.apply(&sentinel, Levers { fleet: Some(&mut fleet), ..Levers::default() });
    assert!(
        acted.storm_pauses > 0 && fleet.paused(),
        "ten recoveries in a window must trip the storm"
    );
    println!(
        "churn-storm alert raised: \"{}\" — rebalancer paused",
        sentinel.alerts().last().map(|a| a.detail.as_str()).unwrap_or(""),
    );

    // Ticks continue while paused: evacuations and in-flight drives
    // still run; only new rebalance plans are held back.
    for _ in 0..4 {
        fleet.tick(&mut cluster);
    }

    // Quiet returns: the next event after the window drains clears the
    // storm, and the actuator resumes the rebalancer.
    sentinel.observe(StreamEvent::Gauge {
        host: 0,
        at_ns: cluster.clock.now_ns() + 50_000_000,
        name: "fleet_quiet",
        value: 0,
    });
    let acted = actuator.apply(&sentinel, Levers { fleet: Some(&mut fleet), ..Levers::default() });
    assert!(acted.storm_resumes > 0 && !fleet.paused(), "quiet window must clear the storm");
    println!(
        "churn cleared: \"{}\" — rebalancer resumed",
        sentinel.alerts().last().map(|a| a.detail.as_str()).unwrap_or(""),
    );

    // Finish the rebalance, settle every journal, then account for
    // every vTPM in the fleet.
    for _ in 0..30 {
        fleet.tick(&mut cluster);
        if fleet.pool().in_flight() == 0 && fleet.suspects().is_empty() {
            break;
        }
    }
    fleet.drain(&mut cluster);
    for vm in 0..vms {
        cluster.resolve(vm);
    }

    let mut lost = 0usize;
    let mut duplicated = 0usize;
    for vm in 0..vms {
        match cluster.runnable_hosts(vm).len() {
            0 => lost += 1,
            1 => {}
            _ => duplicated += 1,
        }
    }
    let mut orphaned = 0usize;
    for h in 0..cluster.hosts.len() {
        let mapped: Vec<_> =
            cluster.hosts[h].journal.mapped_vms().iter().map(|&(_, id)| id).collect();
        orphaned += cluster.hosts[h]
            .platform
            .manager
            .instance_ids()
            .iter()
            .filter(|id| !mapped.contains(id))
            .count();
    }
    let snap = fleet.snapshot();
    println!(
        "settled: {} drives committed / {} aborted / {} abandoned across the run",
        snap[FleetTelemetry::COMMITTED],
        snap[FleetTelemetry::ABORTED],
        snap[FleetTelemetry::ABANDONED],
    );
    println!(
        "accounting over {vms} vTPMs on {} hosts: {lost} lost, {duplicated} duplicated, \
         {orphaned} orphaned",
        cluster.hosts.len(),
    );
    assert_eq!((lost, duplicated, orphaned), (0, 0, 0), "every vTPM exactly once");
    println!("every vTPM accounted for exactly once — the storm cost nothing");
}
