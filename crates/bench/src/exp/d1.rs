//! R-D1: streaming detection quality of the sentinel plane.
//!
//! Not a figure from the paper — the paper hardens the access path but
//! offers nothing for *detection*: a Dom0 "memory dump software" run
//! (its own abstract's attack) leaves no trace an operator could act
//! on. R-D1 evaluates the sentinel on the two axes a detection plane
//! lives or dies by:
//!
//! * **False positives** — the full chaos sweep (mirror-family seeds,
//!   migration-family seeds, and the 18-cell crash matrix) replayed
//!   with the sentinel consuming every span, audit record, gauge, and
//!   dump-trail entry. These runs inject crashes, fabric faults, frame
//!   corruption, and grant revocations — every *benign* anomaly the
//!   stack knows — and contain no attack, so any critical alert is a
//!   false positive. The CI gate requires exactly zero.
//! * **Detection** — scripted injections of the dump-based attacks (A1
//!   single-host state theft, A7 migration-window dump) plus a
//!   migration replay storm, each against the *improved* platform (the
//!   attack is blocked; the sentinel must still see the attempt).
//!   Detection latency is `alert.at_ns - attack_start_ns` in the same
//!   virtual time the rest of the evaluation reports; the gate requires
//!   every injection detected.
//!
//! The sweep sizes (32 + 32 + 1 = 65 scenarios at full size) match the
//! chaos CI sweep, so "zero false positives" is claimed over the same
//! corpus the determinism gate replays byte-for-byte.
//!
//! Alongside the gate, [`throughput`] reports the wall cost of the full
//! engine (flight recorder + all five detectors) per stream event on a
//! synthetic healthy-host mix: the budget a deployment pays per span or
//! audit record shipped to the detection plane.

use std::time::Instant;

use attacks::{dump_instance_state, migration_window_dump};
use vtpm::MirrorMode;
use vtpm_ac::SecurePlatform;
use vtpm_cluster::{Cluster, ClusterConfig, MigrateOutcome, MigMessage};
use vtpm_harness::json::Field;
use vtpm_harness::{
    audit_event, dump_event, ChaosConfig, CrashMatrix, MigrationChaosConfig, Scenario,
};
use vtpm_sentinel::{AlertKind, Sentinel, SentinelConfig, StreamEvent};
use vtpm_telemetry::SpanRecord;
use workload::generate_trace;

use crate::{gate, median, Outcome};

/// One attack-free scenario of the sweep.
#[derive(Debug, Clone)]
pub struct CleanRow {
    /// Scenario family (`mirror`, `migration`, `matrix`).
    pub family: &'static str,
    /// Seed label.
    pub seed: String,
    /// Critical sentinel alerts — every one is a false positive.
    pub critical: u64,
    /// The alert lines, verbatim (for the failure report).
    pub alerts: Vec<String>,
}

/// One scripted attack injection.
#[derive(Debug, Clone)]
pub struct AttackRow {
    /// Injection name.
    pub name: &'static str,
    /// Whether the platform blocked the attack (it always should — the
    /// sentinel's job is noticing the *attempt*).
    pub blocked: bool,
    /// Whether a critical alert fired.
    pub detected: bool,
    /// Which detector fired first, if any.
    pub detector: Option<AlertKind>,
    /// `alert.at_ns - attack_start_ns`, virtual ns.
    pub latency_ns: u64,
    /// Stream events fed between attack start and the firing.
    pub events_to_detect: usize,
}

/// The full R-D1 result.
#[derive(Debug, Clone)]
pub struct D1Report {
    /// Attack-free sweep, one row per scenario.
    pub clean: Vec<CleanRow>,
    /// Scripted injections.
    pub attacks: Vec<AttackRow>,
}

/// Total critical alerts across the attack-free sweep (the FP count).
pub fn false_positives(r: &D1Report) -> u64 {
    r.clean.iter().map(|c| c.critical).sum()
}

/// Injections that no detector caught.
pub fn undetected(r: &D1Report) -> usize {
    r.attacks.iter().filter(|a| !a.detected).count()
}

/// The CI gate: zero false positives on clean seeds AND every
/// injection detected.
pub fn gate_failed(r: &D1Report) -> bool {
    false_positives(r) > 0 || undetected(r) > 0
}

/// Run the sweep: `mirror_seeds` + `migration_seeds` attack-free chaos
/// scenarios plus the crash matrix, then the scripted injections.
pub fn run(mirror_seeds: usize, migration_seeds: usize, events: usize, faults: usize) -> D1Report {
    let mut clean = Vec::new();
    for s in 0..mirror_seeds {
        let label = format!("d1-{s}");
        let cfg = ChaosConfig {
            events,
            faults,
            mirror_mode: MirrorMode::Encrypted,
            ..ChaosConfig::default()
        };
        let rep = cfg.run(label.as_bytes()).expect("chaos run");
        clean.push(CleanRow {
            family: "mirror",
            seed: label,
            critical: rep.sentinel_critical,
            alerts: rep.sentinel_alerts,
        });
    }
    for s in 0..migration_seeds {
        let label = format!("d1-mig-{s}");
        let rep =
            MigrationChaosConfig::default().run(label.as_bytes()).expect("migration chaos run");
        clean.push(CleanRow {
            family: "migration",
            seed: label,
            critical: rep.sentinel_critical,
            alerts: rep.sentinel_alerts,
        });
    }
    {
        let rep = CrashMatrix { sealed: true }.run(b"d1-matrix").expect("crash matrix");
        clean.push(CleanRow {
            family: "matrix",
            seed: "d1-matrix".into(),
            critical: rep.sentinel_critical,
            alerts: rep.failures,
        });
    }

    D1Report { clean, attacks: vec![inject_a1(), inject_a7(), inject_replay_storm()] }
}

/// Feed `events` one by one; stop at the first critical alert. Returns
/// (events fed until detection, firing detector, firing timestamp).
fn feed_until_critical(
    sentinel: &mut Sentinel,
    events: impl IntoIterator<Item = StreamEvent>,
) -> (usize, Option<(AlertKind, u64)>) {
    let mut fed = 0usize;
    for ev in events {
        fed += 1;
        if sentinel.observe(ev) > 0 {
            if let Some(a) = sentinel.alerts().last() {
                return (fed, Some((a.kind, a.at_ns)));
            }
        }
    }
    (fed, None)
}

/// **A1 injection** — Dom0 memory-dump state theft against the improved
/// single-host platform, sentinel watching the audit log and dump trail.
fn inject_a1() -> AttackRow {
    let sp = SecurePlatform::full(b"d1/a1").expect("platform boots");
    let mut victim = sp.launch_guest("victim").expect("guest launches");
    {
        let mut c = victim.client(b"d1/a1/warm");
        c.startup_clear().unwrap();
        c.extend(0, &[7; 20]).unwrap();
        c.get_random(16).unwrap();
    }
    // Pre-attack exhaust is context, not evidence: feed it first.
    let mut sentinel = Sentinel::new(SentinelConfig::default());
    let context = sp.hook.audit.entries();
    for e in &context {
        sentinel.observe(audit_event(0, e));
    }
    let hv = sp.platform.manager.hypervisor();
    let start_ns = hv.clock.now_ns();

    let outcome = dump_instance_state(&sp.platform, &victim);

    let stream = sp
        .hook
        .audit
        .entries_since(context.len())
        .iter()
        .map(|e| audit_event(0, e))
        .chain(hv.dump_events().iter().map(|d| dump_event(0, d)))
        .collect::<Vec<_>>();
    let (fed, hit) = feed_until_critical(&mut sentinel, stream);
    AttackRow {
        name: "A1 dump-state",
        blocked: !outcome.succeeded,
        detected: hit.is_some(),
        detector: hit.map(|(d, _)| d),
        latency_ns: hit.map(|(_, at)| at.saturating_sub(start_ns)).unwrap_or(0),
        events_to_detect: fed,
    }
}

/// **A7 injection** — migration-window dump on a sealed three-host
/// cluster, sentinel watching every host's exhaust.
fn inject_a7() -> AttackRow {
    let mut cluster = Cluster::new(
        b"d1/a7",
        ClusterConfig {
            hosts: 3,
            sealed: true,
            mirror_mode: MirrorMode::Encrypted,
            frames_per_host: 1024,
            ..Default::default()
        },
    )
    .expect("cluster boots");
    let vm = cluster.create_vm().expect("vm");
    for ev in generate_trace(b"d1/a7/warm", 12) {
        cluster.apply_event(vm, &ev);
    }
    let mut sentinel = Sentinel::new(SentinelConfig::default());
    for h in 0..3u32 {
        for e in cluster.hosts[h as usize].audit.entries() {
            sentinel.observe(audit_event(h, &e));
        }
    }
    let src = cluster.home_of(vm).expect("vm placed");
    let dst = (src + 1) % 3;
    let start_ns = cluster.hosts[src].platform.hv.clock.now_ns();

    let outcome = migration_window_dump(&mut cluster, vm, dst);

    let stream = (0..3u32)
        .flat_map(|h| {
            cluster.hosts[h as usize]
                .platform
                .hv
                .dump_events()
                .into_iter()
                .map(move |d| dump_event(h, &d))
                .collect::<Vec<_>>()
        })
        .collect::<Vec<_>>();
    let (fed, hit) = feed_until_critical(&mut sentinel, stream);
    AttackRow {
        name: "A7 migration-window",
        blocked: !outcome.succeeded,
        detected: hit.is_some(),
        detector: hit.map(|(d, _)| d),
        latency_ns: hit.map(|(_, at)| at.saturating_sub(start_ns)).unwrap_or(0),
        events_to_detect: fed,
    }
}

/// **Replay-storm injection** — a captured `Transfer` frame hammered at
/// the new home six times after a committed migration; each replay is
/// refused at the burned epoch and audited `RejectedStale`, and the
/// burst trips the replay watch.
fn inject_replay_storm() -> AttackRow {
    let mut cluster = Cluster::new(
        b"d1/replay",
        ClusterConfig {
            hosts: 2,
            sealed: true,
            mirror_mode: MirrorMode::Encrypted,
            frames_per_host: 1024,
            ..Default::default()
        },
    )
    .expect("cluster boots");
    let vm = cluster.create_vm().expect("vm");
    for ev in generate_trace(b"d1/replay/warm", 12) {
        cluster.apply_event(vm, &ev);
    }
    let committed = cluster.migrate(vm, 1) == MigrateOutcome::Committed;

    let mut sentinel = Sentinel::new(SentinelConfig::default());
    let mut context = [0usize; 2];
    for h in 0..2u32 {
        let entries = cluster.hosts[h as usize].audit.entries();
        context[h as usize] = entries.len();
        for e in &entries {
            sentinel.observe(audit_event(h, e));
        }
    }
    let frame = cluster
        .fabric
        .wiretap()
        .iter()
        .find(|f| {
            f.len() > 1 && matches!(MigMessage::decode(&f[1..]), Some(MigMessage::Transfer { .. }))
        })
        .cloned()
        .expect("committed migration left a Transfer on the wiretap");
    let start_ns = cluster.clock.now_ns();
    for _ in 0..6 {
        cluster.fabric.requeue(1, frame.clone());
        cluster.pump_host(1);
    }

    let stream = (0..2u32)
        .flat_map(|h| {
            cluster.hosts[h as usize]
                .audit
                .entries_since(context[h as usize])
                .iter()
                .map(|e| audit_event(h, e))
                .collect::<Vec<_>>()
        })
        .collect::<Vec<_>>();
    let (fed, hit) = feed_until_critical(&mut sentinel, stream);
    AttackRow {
        name: "replay-storm",
        // "Blocked" here = the storm never disturbed placement.
        blocked: committed && cluster.runnable_hosts(vm) == vec![1],
        detected: hit.is_some(),
        detector: hit.map(|(d, _)| d),
        latency_ns: hit.map(|(_, at)| at.saturating_sub(start_ns)).unwrap_or(0),
        events_to_detect: fed,
    }
}

/// Wall cost of the full sentinel engine on a synthetic stream.
#[derive(Debug, Clone)]
pub struct Throughput {
    /// Events in the stream.
    pub events: usize,
    /// Median wall ns per event over the timed passes.
    pub ns_per_event: f64,
}

/// Synthesize a realistic event mix: mostly allowed spans, a sprinkle
/// of denials spread across domains (below the EWMA threshold), and
/// periodic gauges — the exhaust shape of a healthy host.
fn synthetic_stream(n: usize) -> Vec<StreamEvent> {
    (0..n as u64)
        .map(|i| {
            if i % 50 == 49 {
                return StreamEvent::Gauge {
                    host: 0,
                    at_ns: i * 1_000,
                    name: "mirror_scrub_failures",
                    value: 0,
                };
            }
            let denied = i % 10 == 3;
            StreamEvent::Span {
                host: 0,
                record: SpanRecord {
                    request_id: i + 1,
                    domain: 1 + (i % 7) as u32,
                    ordinal: 0x14,
                    ingress_ns: i * 1_000,
                    end_ns: i * 1_000 + 800,
                    outcome: if denied {
                        vtpm_telemetry::Outcome::Denied(2)
                    } else {
                        vtpm_telemetry::Outcome::Ok
                    },
                    ..SpanRecord::default()
                },
            }
        })
        .collect()
}

/// Feed `events` synthetic events through a fresh engine `reps` times;
/// the median wall ns per event.
pub fn throughput(events: usize, reps: usize) -> Throughput {
    let stream = synthetic_stream(events);
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let mut s = Sentinel::new(SentinelConfig::default());
            let t0 = Instant::now();
            for ev in &stream {
                std::hint::black_box(s.observe(ev.clone()));
            }
            t0.elapsed().as_nanos() as f64 / events.max(1) as f64
        })
        .collect();
    Throughput { events, ns_per_event: median(&mut samples) }
}

/// Render the tables.
pub fn render(r: &D1Report) -> String {
    let mut out = String::new();
    out.push_str("R-D1  Sentinel detection quality: FP sweep + scripted injections\n");
    let per_family = |fam: &str| {
        let rows: Vec<&CleanRow> = r.clean.iter().filter(|c| c.family == fam).collect();
        let fps: u64 = rows.iter().map(|c| c.critical).sum();
        (rows.len(), fps)
    };
    for fam in ["mirror", "migration", "matrix"] {
        let (n, fps) = per_family(fam);
        out.push_str(&format!(
            "  clean {fam:<10} {n:>3} scenarios   {fps} critical alerts (false positives)\n"
        ));
    }
    for c in r.clean.iter().filter(|c| c.critical > 0) {
        out.push_str(&format!("    FP {} [{}]:\n", c.seed, c.family));
        for a in &c.alerts {
            out.push_str(&format!("      {a}\n"));
        }
    }
    out.push_str(&format!(
        "\n  {:<22} {:>8} {:>9} {:>16} {:>12} {:>7}\n",
        "injection", "blocked", "detected", "detector", "latency", "events"
    ));
    for a in &r.attacks {
        out.push_str(&format!(
            "  {:<22} {:>8} {:>9} {:>16} {:>9.1} us {:>7}\n",
            a.name,
            if a.blocked { "yes" } else { "NO" },
            if a.detected { "yes" } else { "MISSED" },
            a.detector.map_or("-", AlertKind::label),
            a.latency_ns as f64 / 1e3,
            a.events_to_detect,
        ));
    }
    out.push_str(&format!(
        "totals: {} clean scenarios, {} false positives, {}/{} injections detected\n",
        r.clean.len(),
        false_positives(r),
        r.attacks.len() - undetected(r),
        r.attacks.len(),
    ));
    out
}

/// The `repro` entry: this experiment at CI size (`quick`) or full size.
pub fn repro(quick: bool) -> Outcome {
    // Full size: 32 + 32 + the matrix = the 65-scenario sweep the chaos
    // CI stage replays byte-for-byte.
    let (mirror, migration, events, faults) = if quick { (4, 4, 30, 3) } else { (32, 32, 60, 5) };
    let (stream_events, reps) = if quick { (20_000, 3) } else { (200_000, 5) };
    outcome(&run(mirror, migration, events, faults), &throughput(stream_events, reps))
}

/// The table, gate and artifact fields of one sweep and throughput run.
fn outcome(r: &D1Report, t: &Throughput) -> Outcome {
    let detection = r.attacks.iter().map(|a| {
        Field::Obj(vec![
            ("name", a.name.into()),
            ("blocked", a.blocked.into()),
            ("detected", a.detected.into()),
            ("detector", a.detector.map_or("-", AlertKind::label).into()),
            ("latency_ns", a.latency_ns.into()),
            ("events_to_detect", a.events_to_detect.into()),
        ])
    });
    Outcome {
        text: format!(
            "{}sentinel throughput: {:.1} ns/event over {} synthetic events (median)\n",
            render(r),
            t.ns_per_event,
            t.events
        ),
        gate: gate(gate_failed(r), || {
            format!(
                "R-D1: {} false positives and {} missed injections (budget: none)",
                false_positives(r),
                undetected(r)
            )
        }),
        fields: vec![
            ("detection", Field::List(detection.collect())),
            ("clean_scenarios", r.clean.len().into()),
            ("false_positives", false_positives(r).into()),
            ("sentinel_ns_per_event", Field::Float(t.ns_per_event, 1)),
            ("throughput_events", t.events.into()),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_holds_at_test_size() {
        let r = run(2, 2, 30, 3);
        assert_eq!(r.clean.len(), 5);
        assert_eq!(false_positives(&r), 0, "false positive: {:#?}", r.clean);
        assert_eq!(undetected(&r), 0, "missed injection: {:#?}", r.attacks);
        for a in &r.attacks {
            assert!(a.blocked, "{} was not blocked", a.name);
        }
        // The right detector catches each injection.
        let by_name = |n: &str| r.attacks.iter().find(|a| a.name == n).unwrap();
        assert_eq!(by_name("A1 dump-state").detector, Some(AlertKind::DumpSignature));
        assert_eq!(by_name("A7 migration-window").detector, Some(AlertKind::DumpSignature));
        assert_eq!(by_name("replay-storm").detector, Some(AlertKind::ReplayWatch));
        assert!(!gate_failed(&r));
        let table = render(&r);
        assert!(table.contains("3/3 injections detected"));
        let artifact = outcome(&r, &throughput(2_000, 1)).artifact("d1", true);
        assert!(!artifact.contains('\n') && artifact.ends_with("\"gate\":\"PASS\"}"), "{artifact}");
        assert!(artifact.contains("\"sentinel_ns_per_event\":"), "{artifact}");
    }
}
