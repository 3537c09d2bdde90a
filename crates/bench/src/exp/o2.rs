//! R-O2: fleet observatory — cross-host aggregation fidelity, the SLO
//! burn-rate closed loop, burn cleanliness under chaos, and the
//! plane's own overhead.
//!
//! Not a figure from the paper — like R-O1 it validates this repo's
//! observability subsystem, here the fleet-wide layer on top of the
//! per-host registries. Four claims, each gated:
//!
//! 1. **Cleanliness.** The fleet chaos family runs with the
//!    observatory enabled by default; on attack-free seeds (host churn
//!    is normal operation, not an attack) no SLO rule may burn —
//!    organic blackout p99 sits far under the 300 ms objective — and
//!    every seed must still replay byte-identically with the
//!    observatory's transcript contribution included.
//! 2. **Fidelity.** A fleet-wide p99 computed from merged cross-host
//!    scrapes must match the exact order statistic over every span the
//!    hosts actually served within the log-linear histogram's
//!    [`REL_ERR_BOUND`] (1/16) relative-error guarantee, with sample
//!    counts agreeing exactly (scrape deltas lose nothing).
//! 3. **Closed loop.** An injected migration-blackout regression
//!    (downtime samples at 500 ms ≫ the 300 ms objective) must raise a
//!    burn, reach the sentinel's `slo-burn` relay as a gauge, pause
//!    the rebalancer through [`vtpm_harness::Actuator`], then clear
//!    and resume once the bad windows age out of the rollups.
//! 4. **Self-overhead.** The controller-side wall cost of one full
//!    scrape + evaluate pass (decode, delta-diff, rollup, rule
//!    evaluation for every host) must stay within [`BUDGET_PCT`] of
//!    the control loop's own cadence — the default heartbeat interval
//!    — so the plane consumes at most 3% of the controller's duty
//!    cycle and ≥ 97% remains for actual control. (An
//!    enabled-vs-disabled A/B over whole chaos runs cannot measure
//!    this: the metrics frames shift the fabric fault schedule, so
//!    the two runs execute *different scenarios* and the wall diff is
//!    scenario drift, not plane cost.) The virtual fabric time the
//!    pass occupies is reported alongside for the wall/deployment
//!    split R-O1 established.

use std::time::Instant;

use vtpm_cluster::{Cluster, ClusterConfig};
use vtpm_fleet::{Fleet, FleetConfig, CONTROLLER_HOST, HEARTBEAT_INTERVAL_NS};
use vtpm_harness::json::Field;
use vtpm_harness::{replay, Actuator, FleetChaosConfig, Levers};
use vtpm_observatory::{BurnEvent, Observatory};
use vtpm_sentinel::{AlertKind, Sentinel, SentinelConfig, StreamEvent};
use vtpm_telemetry::Histogram;
use workload::generate_trace;

use crate::{gate, median, Outcome};

/// Merged-p99 vs exact order statistic bound — the histogram's
/// relative-error guarantee, which the merge must not widen.
pub const REL_ERR_BOUND: f64 = 1.0 / 16.0;

/// Hard self-overhead budget: wall ns per scrape+evaluate pass as a
/// percentage of the controller's heartbeat interval (its duty
/// cycle).
pub const BUDGET_PCT: f64 = 3.0;

/// One attack-free chaos seed with the observatory in the loop.
#[derive(Debug, Clone, PartialEq)]
pub struct O2CleanRow {
    /// Seed label.
    pub seed: String,
    /// Scrape passes the controller ran.
    pub scrapes: u64,
    /// SLO burn raises (must be 0 attack-free).
    pub slo_burns: u64,
    /// SLO burn clears.
    pub slo_clears: u64,
    /// Suspicions raised by the failure detector.
    pub suspects: u64,
    /// Suspicions against live hosts.
    pub false_suspects: u64,
    /// Replayed byte-identically (observatory transcript included).
    pub replay_ok: bool,
}

/// Merged-scrape p99 vs the exact per-span ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct O2Fidelity {
    /// Spans served (the exact sample set).
    pub samples: usize,
    /// Span-ring drops (must be 0 for the comparison to be exact).
    pub dropped: u64,
    /// Exact order-statistic p99 over every span (virtual ns).
    pub exact_p99_ns: u64,
    /// p99 of the observatory's merged fleet-wide `total` series.
    pub fleet_p99_ns: u64,
    /// |fleet − exact| / exact.
    pub rel_err: f64,
    /// Merged count equals the span count (delta scrapes lose nothing).
    pub count_match: bool,
}

/// The injected-regression closed loop, stage by stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct O2Loop {
    /// Healthy baseline produced no events.
    pub pre_clean: bool,
    /// The regression raised a migration-blackout burn.
    pub raised: bool,
    /// The burn gauge tripped the sentinel's slo-burn relay.
    pub alerted: bool,
    /// The bridge paused the rebalancer.
    pub paused: bool,
    /// The burn cleared once the bad windows aged out.
    pub cleared: bool,
    /// The clear resumed the rebalancer.
    pub resumed: bool,
}

impl O2Loop {
    /// Every stage of the loop held.
    pub fn complete(&self) -> bool {
        self.pre_clean && self.raised && self.alerted && self.paused && self.cleared && self.resumed
    }
}

/// The experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct O2Report {
    /// Chaos sweep scale.
    pub hosts: usize,
    /// VMs under management in the sweep.
    pub vms: usize,
    /// Rounds per seed.
    pub rounds: usize,
    /// One row per attack-free seed.
    pub clean: Vec<O2CleanRow>,
    /// Aggregation fidelity vs sorted ground truth.
    pub fidelity: O2Fidelity,
    /// The injected-regression loop.
    pub slo_loop: O2Loop,
    /// Hosts in the overhead rig.
    pub overhead_hosts: usize,
    /// Median wall ns per scrape+evaluate pass.
    pub scrape_wall_ns: f64,
    /// Median virtual ns the same pass charges on the fabric
    /// (reported for the wall/deployment split, not gated).
    pub scrape_virtual_ns: f64,
    /// The control loop's cadence the pass must fit into — the
    /// default heartbeat interval.
    pub period_ns: u64,
}

impl O2Report {
    /// Wall cost of one pass as a percentage of the control loop's
    /// cadence — the number the budget gates.
    pub fn overhead_pct(&self) -> f64 {
        self.scrape_wall_ns / self.period_ns as f64 * 100.0
    }
}

/// The CI gate: no attack-free burn, byte-identical replays, fidelity
/// within the histogram bound with exact counts, the full closed loop,
/// and the self-overhead budget.
pub fn gate_failed(r: &O2Report) -> bool {
    r.clean.iter().any(|x| x.slo_burns > 0 || !x.replay_ok)
        || !r.fidelity.count_match
        || r.fidelity.rel_err > REL_ERR_BOUND
        || !r.slo_loop.complete()
        || r.overhead_pct() > BUDGET_PCT
}

fn clean_config(hosts: usize, vms: usize, rounds: usize) -> FleetChaosConfig {
    FleetChaosConfig {
        hosts,
        max_hosts: hosts + hosts / 10,
        vms,
        rounds,
        oracle_checks: vms <= 64,
        events_per_round: 2,
        frames_per_host: 4096,
        ..FleetChaosConfig::default()
    }
}

fn clean_sweep(hosts: usize, vms: usize, rounds: usize, seeds: usize) -> Vec<O2CleanRow> {
    let cfg = clean_config(hosts, vms, rounds);
    (0..seeds)
        .map(|s| {
            let label = format!("o2-{hosts}x{vms}-{s}");
            let (a, replay_ok) = replay(&cfg, label.as_bytes()).expect("fleet chaos run");
            O2CleanRow {
                seed: label,
                scrapes: a.scrapes,
                slo_burns: a.slo_burns,
                slo_clears: a.slo_clears,
                suspects: a.suspects_raised,
                false_suspects: a.false_suspects,
                replay_ok,
            }
        })
        .collect()
}

/// Drive real guest traffic over a live cluster, scrape it through the
/// fleet controller each round, and compare the merged p99 to the exact
/// order statistic over every span the hosts served.
fn fidelity(hosts: usize, vms_per_host: usize, rounds: usize, events: usize) -> O2Fidelity {
    let mut cluster = Cluster::new(
        b"o2-fidelity",
        ClusterConfig { hosts, frames_per_host: 4096, ..Default::default() },
    )
    .expect("cluster");
    let vms = (hosts * vms_per_host) as u32;
    for _ in 0..vms {
        cluster.create_vm().expect("vm");
    }
    let mut fleet = Fleet::new(FleetConfig::default(), &cluster);
    let mut obs = Observatory::default();
    for round in 0..rounds as u32 {
        for vm in 0..vms {
            let seed =
                [b"o2/fidelity/" as &[u8], &round.to_be_bytes(), &vm.to_be_bytes()].concat();
            for ev in generate_trace(&seed, events) {
                cluster.apply_event(vm, &ev);
            }
        }
        fleet.scrape(&mut cluster, &mut obs);
    }

    // Exact ground truth: the span rings hold every request end-to-end.
    let mut exact: Vec<u64> = Vec::new();
    let mut dropped = 0u64;
    for h in 0..cluster.hosts.len() {
        let t = cluster.hosts[h].platform.manager.telemetry();
        dropped += t.dropped_events();
        exact.extend(t.drain_spans().iter().map(|r| r.total_ns()));
    }
    exact.sort_unstable();
    let exact_p99 = exact[(exact.len() - 1) * 99 / 100];
    let fleet_hist = obs.fleet_total("total").expect("scraped total series");
    let fleet_p99 = fleet_hist.snapshot().p99;
    O2Fidelity {
        samples: exact.len(),
        dropped,
        exact_p99_ns: exact_p99,
        fleet_p99_ns: fleet_p99,
        rel_err: (fleet_p99 as f64 - exact_p99 as f64).abs() / exact_p99 as f64,
        count_match: dropped == 0 && fleet_hist.count() == exact.len() as u64,
    }
}

fn relay(sentinel: &mut Sentinel, events: &[BurnEvent]) {
    for ev in events {
        sentinel.observe(StreamEvent::Gauge {
            host: CONTROLLER_HOST,
            at_ns: ev.at_ns,
            name: ev.gauge,
            value: (ev.burn_ratio * 100.0) as u64,
        });
    }
}

/// Inject a blackout regression and walk the full loop: observatory
/// burn → sentinel gauge relay → rebalancer pause → age-out clear →
/// resume.
fn closed_loop() -> O2Loop {
    let cluster = Cluster::new(b"o2-loop", ClusterConfig::default()).expect("cluster");
    let mut fleet = Fleet::new(FleetConfig::default(), &cluster);
    let mut sentinel = Sentinel::new(SentinelConfig::default());
    let mut obs = Observatory::default();

    // Healthy baseline: 200 blackouts at 5 ms — nothing burns.
    let h = Histogram::new();
    for _ in 0..200 {
        h.record(5_000_000);
    }
    obs.ingest_local(CONTROLLER_HOST, 1_000_000_000, "fleet_downtime", &h);
    let pre_clean = obs.evaluate(1_000_000_000).is_empty();

    // The regression: 50 blackouts at 500 ms ≫ the 300 ms objective.
    for _ in 0..50 {
        h.record(500_000_000);
    }
    obs.ingest_local(CONTROLLER_HOST, 2_000_000_000, "fleet_downtime", &h);
    let events = obs.evaluate(2_000_000_000);
    let raised = events.iter().any(|e| e.rule == "migration-blackout" && e.burning);
    relay(&mut sentinel, &events);
    let alerted = sentinel.alerts().iter().any(|a| matches!(a.kind, AlertKind::SloBurn { .. }));
    let mut actuator = Actuator::default();
    let mut act = |sentinel: &Sentinel, fleet: &mut Fleet| {
        actuator.apply(sentinel, Levers { fleet: Some(fleet), ..Levers::default() })
    };
    let paused = act(&sentinel, &mut fleet).slo_pauses == 1 && fleet.paused();

    // Far enough into the virtual future the bad samples age out of
    // every live rollup ring; the burn clears and the actuator resumes.
    let (mut cleared, mut resumed) = (false, false);
    for i in 1..=40u64 {
        let now = 2_000_000_000 + i * 60_000_000_000;
        let events = obs.evaluate(now);
        cleared |= events.iter().any(|e| e.rule == "migration-blackout" && !e.burning);
        relay(&mut sentinel, &events);
        resumed |= act(&sentinel, &mut fleet).slo_resumes > 0;
    }
    O2Loop { pre_clean, raised, alerted, paused, cleared, resumed: resumed && !fleet.paused() }
}

/// Wall vs virtual cost of one scrape+evaluate pass at `hosts` scale,
/// medians over `reps` passes with fresh traffic between passes so
/// every scrape carries non-empty deltas.
fn overhead(hosts: usize, reps: usize) -> (f64, f64) {
    let mut cluster = Cluster::new(
        b"o2-overhead",
        ClusterConfig { hosts, frames_per_host: 4096, ..Default::default() },
    )
    .expect("cluster");
    let vms = (hosts * 2) as u32;
    for _ in 0..vms {
        cluster.create_vm().expect("vm");
    }
    let mut fleet = Fleet::new(FleetConfig::default(), &cluster);
    let mut obs = Observatory::default();
    fn traffic(cluster: &mut Cluster, vms: u32, rep: u32) {
        for vm in 0..vms.min(8) {
            let seed = [b"o2/overhead/" as &[u8], &rep.to_be_bytes(), &vm.to_be_bytes()].concat();
            for ev in generate_trace(&seed, 4) {
                cluster.apply_event(vm, &ev);
            }
        }
    }
    // Warm pass: first scrape builds every per-host map and rollup.
    traffic(&mut cluster, vms, u32::MAX);
    fleet.scrape(&mut cluster, &mut obs);
    std::hint::black_box(obs.evaluate(cluster.clock.now_ns()));

    let mut wall: Vec<f64> = Vec::with_capacity(reps);
    let mut virt: Vec<f64> = Vec::with_capacity(reps);
    for rep in 0..reps {
        traffic(&mut cluster, vms, rep as u32);
        let v0 = cluster.clock.now_ns();
        let t0 = Instant::now();
        fleet.scrape(&mut cluster, &mut obs);
        std::hint::black_box(obs.evaluate(cluster.clock.now_ns()));
        wall.push(t0.elapsed().as_nanos() as f64);
        virt.push((cluster.clock.now_ns() - v0) as f64);
    }
    (median(&mut wall), median(&mut virt))
}

/// Run the experiment: `seeds` attack-free chaos scenarios at
/// (`hosts`, `vms`) scale plus the fixed fidelity, closed-loop, and
/// overhead rigs (scaled off `hosts`).
pub fn run(hosts: usize, vms: usize, rounds: usize, seeds: usize) -> O2Report {
    let clean = clean_sweep(hosts, vms, rounds, seeds);
    let fidelity = fidelity(hosts.clamp(4, 8), 2, 4, 8);
    let slo_loop = closed_loop();
    let overhead_hosts = hosts.clamp(8, 16);
    let (scrape_wall_ns, scrape_virtual_ns) = overhead(overhead_hosts, 9);
    O2Report {
        hosts,
        vms,
        rounds,
        clean,
        fidelity,
        slo_loop,
        overhead_hosts,
        scrape_wall_ns,
        scrape_virtual_ns,
        period_ns: HEARTBEAT_INTERVAL_NS,
    }
}

/// Render the table, ending with the PASS/FAIL verdict line the CI
/// gate greps for.
pub fn render(r: &O2Report) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "R-O2  Fleet observatory: {} hosts / {} VMs, {} rounds per attack-free seed\n\
         seed             scrapes  burns  clears  suspects(false)  replay\n",
        r.hosts, r.vms, r.rounds,
    ));
    for x in &r.clean {
        out.push_str(&format!(
            "{:<16} {:>8} {:>6} {:>7} {:>12}({:<4}) {:>7}\n",
            x.seed,
            x.scrapes,
            x.slo_burns,
            x.slo_clears,
            x.suspects,
            x.false_suspects,
            if x.replay_ok { "ok" } else { "MISMATCH" },
        ));
    }
    let f = &r.fidelity;
    out.push_str(&format!(
        "fidelity: merged fleet p99 {:.1}us vs exact {:.1}us over {} spans — rel err {:.4} \
         (bound {:.4}), counts {}\n",
        f.fleet_p99_ns as f64 / 1e3,
        f.exact_p99_ns as f64 / 1e3,
        f.samples,
        f.rel_err,
        REL_ERR_BOUND,
        if f.count_match { "exact" } else { "MISMATCH" },
    ));
    let l = &r.slo_loop;
    out.push_str(&format!(
        "closed loop: baseline-clean={} raise={} alert={} pause={} clear={} resume={}\n",
        l.pre_clean, l.raised, l.alerted, l.paused, l.cleared, l.resumed,
    ));
    out.push_str(&format!(
        "self-overhead: {:.0}ns wall per scrape+evaluate pass ({} hosts) in a {:.1}ms control \
         period — {:.3}% duty cycle ({:.0}ns modelled fabric time)\n",
        r.scrape_wall_ns,
        r.overhead_hosts,
        r.period_ns as f64 / 1e6,
        r.overhead_pct(),
        r.scrape_virtual_ns,
    ));
    let pass = !gate_failed(r);
    out.push_str(&format!(
        "gate: zero attack-free burns, byte-identical replays, rel err <= 1/16 with exact \
         counts, full burn->pause->clear->resume loop, overhead <= {:.1}% — {}\n",
        BUDGET_PCT,
        if pass { "PASS" } else { "FAIL" },
    ));
    out
}

/// The `repro` entry: this experiment at CI size (`quick`) or full size.
pub fn repro(quick: bool) -> Outcome {
    // The observatory rides R-M2's chaos family; its gates (no
    // attack-free burn, fidelity, loop, overhead) are scale-free, so the
    // full sweep stays lighter than R-M2's.
    let (hosts, vms, rounds, seeds) = if quick { (8, 24, 5, 1) } else { (32, 160, 8, 2) };
    let r = run(hosts, vms, rounds, seeds);
    let sweep = r.clean.iter().map(|x| {
        Field::Obj(vec![
            ("seed", x.seed.as_str().into()),
            ("scrapes", x.scrapes.into()),
            ("slo_burns", x.slo_burns.into()),
            ("slo_clears", x.slo_clears.into()),
            ("suspects", x.suspects.into()),
            ("false_suspects", x.false_suspects.into()),
            ("replay_ok", x.replay_ok.into()),
        ])
    });
    let (f, l) = (&r.fidelity, &r.slo_loop);
    Outcome {
        text: render(&r),
        gate: gate(gate_failed(&r), || {
            format!(
                "R-O2: zero attack-free SLO burns, byte-identical replays, merged-p99 \
                 fidelity <= 1/16 with exact counts, the full burn closed loop and <= \
                 {BUDGET_PCT}% scrape overhead (measured {:.3}%)",
                r.overhead_pct()
            )
        }),
        fields: vec![
            ("hosts", r.hosts.into()),
            ("vms", r.vms.into()),
            ("rounds", r.rounds.into()),
            ("sweep", Field::List(sweep.collect())),
            (
                "fidelity",
                Field::Obj(vec![
                    ("samples", f.samples.into()),
                    ("exact_p99_ns", f.exact_p99_ns.into()),
                    ("fleet_p99_ns", f.fleet_p99_ns.into()),
                    ("rel_err", Field::Float(f.rel_err, 6)),
                    ("bound", Field::Float(REL_ERR_BOUND, 6)),
                    ("count_match", f.count_match.into()),
                ]),
            ),
            (
                "closed_loop",
                Field::Obj(vec![
                    ("pre_clean", l.pre_clean.into()),
                    ("raised", l.raised.into()),
                    ("alerted", l.alerted.into()),
                    ("paused", l.paused.into()),
                    ("cleared", l.cleared.into()),
                    ("resumed", l.resumed.into()),
                ]),
            ),
            ("overhead_hosts", r.overhead_hosts.into()),
            ("scrape_wall_ns", Field::Float(r.scrape_wall_ns, 0)),
            ("scrape_virtual_ns", Field::Float(r.scrape_virtual_ns, 0)),
            ("period_ns", r.period_ns.into()),
            ("overhead_pct", Field::Float(r.overhead_pct(), 3)),
            ("budget_pct", Field::Float(BUDGET_PCT, 1)),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_seeds_replay_without_burning() {
        let rows = clean_sweep(6, 12, 4, 1);
        assert_eq!(rows.len(), 1);
        for x in &rows {
            assert!(x.replay_ok, "{}: replay diverged", x.seed);
            assert_eq!(x.slo_burns, 0, "{}: attack-free seed burned an SLO", x.seed);
            assert!(x.scrapes > 0, "{}: observatory never scraped", x.seed);
        }
    }

    #[test]
    fn merged_p99_tracks_ground_truth_and_loop_closes() {
        let f = fidelity(4, 2, 3, 6);
        assert!(f.count_match, "scrape deltas lost samples: {f:?}");
        assert!(f.rel_err <= REL_ERR_BOUND, "fidelity out of bound: {f:?}");

        let l = closed_loop();
        assert!(l.complete(), "closed loop incomplete: {l:?}");
    }

    #[test]
    fn overhead_rig_measures_both_bases() {
        let (wall, virt) = overhead(8, 3);
        // Debug builds blow the 3% release gate; the shape must hold
        // regardless: both bases positive, virtual dominated by the
        // per-frame fabric charge.
        assert!(wall > 0.0);
        assert!(virt >= 8.0 * 150_000.0, "fabric charge missing: {virt}");
    }
}
