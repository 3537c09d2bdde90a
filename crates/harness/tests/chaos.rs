//! Integration tests for the chaos harness: several seeds, each with a
//! distinct fault plan, run against the oracle — and each run replayed
//! to prove the whole scenario (faults included) is deterministic.

use vtpm::MirrorMode;
use vtpm_harness::{
    replay, AttestChaosConfig, ChaosConfig, CrashMatrix, FaultPlan, FleetChaosConfig,
    MigrationChaosConfig, PlannedFault, Scenario, ScenarioReport,
};
use workload::generate_trace;

fn quick() -> ChaosConfig {
    // Smaller than the CLI defaults: these run in debug CI.
    ChaosConfig { events: 48, faults: 4, ..ChaosConfig::default() }
}

#[test]
fn seeded_runs_are_deterministic() {
    for seed in [b"det-0".as_slice(), b"det-1", b"det-2"] {
        let (_, deterministic) = replay(&quick(), seed).unwrap();
        assert!(deterministic, "same seed must replay byte-identically");
    }
}

#[test]
fn chaos_never_diverges_from_the_oracle() {
    for s in 0..4u32 {
        let seed = format!("chaos-ci-{s}");
        let report = quick().run(seed.as_bytes()).unwrap();
        assert_eq!(
            report.divergences,
            Vec::<String>::new(),
            "seed {seed} diverged"
        );
        assert_eq!(report.nonce_reuses, 0, "seed {seed} reused a CTR nonce pair");
        assert_eq!(report.events, 48);
    }
}

#[test]
fn cleartext_mode_is_also_covered() {
    let cfg = ChaosConfig { mirror_mode: MirrorMode::Cleartext, ..quick() };
    let report = cfg.run(b"chaos-clear").unwrap();
    assert_eq!(report.divergences, Vec::<String>::new());
}

#[test]
fn crash_heavy_plan_always_recovers_to_pre_or_post() {
    // Force a crash-rich scenario by sweeping seeds until the derived
    // plan contains crashes, then require every recovery to have
    // matched one of the two legal states.
    let mut crashes_seen = 0;
    for s in 0..12u32 {
        let seed = format!("crashy-{s}");
        let trace = generate_trace(seed.as_bytes(), 48);
        let plan = FaultPlan::generate(seed.as_bytes(), &trace, 4);
        let planned_crashes = plan
            .faults
            .values()
            .filter(|f| matches!(f, PlannedFault::CrashAfterWrites(_)))
            .count() as u64;
        if planned_crashes == 0 {
            continue;
        }
        let report = quick().run(seed.as_bytes()).unwrap();
        assert_eq!(report.crash_recoveries, planned_crashes);
        assert_eq!(
            report.recovered_post + report.recovered_pre,
            report.crash_recoveries,
            "seed {seed}: some recovery matched neither oracle state"
        );
        assert_eq!(report.divergences, Vec::<String>::new(), "seed {seed}");
        crashes_seen += planned_crashes;
        if crashes_seen >= 3 {
            return;
        }
    }
    assert!(crashes_seen > 0, "no seed produced a crash fault; widen the sweep");
}

/// Replay one toy-size seed of `scenario` through the runner and
/// require the verdict the CLI would print as clean.
fn replays_clean<S: Scenario>(scenario: S) {
    let seed = format!("toy-{}", S::Report::FAMILY);
    let (report, deterministic) = replay(&scenario, seed.as_bytes()).unwrap();
    assert!(deterministic, "{}: replay diverged", S::Report::FAMILY);
    assert!(report.clean(), "{}: unclean report: {:?}", S::Report::FAMILY, report.fields());
}

#[test]
fn every_family_replays_deterministically_and_clean() {
    let families: [fn(); 6] = [
        || replays_clean(ChaosConfig { events: 24, faults: 3, ..ChaosConfig::default() }),
        || replays_clean(MigrationChaosConfig { rounds: 3, events_per_round: 3, ..Default::default() }),
        || replays_clean(CrashMatrix { sealed: true }),
        || replays_clean(CrashMatrix { sealed: false }),
        || {
            replays_clean(AttestChaosConfig {
                instances: 2,
                verifiers: 4,
                rounds: 2,
                ..Default::default()
            })
        },
        || replays_clean(FleetChaosConfig { rounds: 3, vms: 2, ..Default::default() }),
    ];
    for family in families {
        family();
    }
}
