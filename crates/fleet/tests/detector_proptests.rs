//! Property tests for the phi-accrual failure detector — the two
//! monotonicity laws the rebalancer's safety argument leans on, under
//! arbitrary heartbeat histories.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::proptest;
use vtpm_fleet::{PhiAccrualDetector, BOOTSTRAP_FLOOR_NS};

fn detector_with(history: &[u64]) -> (PhiAccrualDetector, u64) {
    let mut d = PhiAccrualDetector::new(BOOTSTRAP_FLOOR_NS);
    d.register(0, 0);
    let mut t = 0u64;
    for &gap in history {
        t += gap;
        d.heartbeat(0, t);
    }
    (d, t)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Between heartbeats, suspicion never decreases as time passes:
    /// phi(t1) <= phi(t2) for t1 <= t2, whatever the arrival history.
    #[test]
    fn suspicion_is_monotone_in_silence(
        history in vec(1u64..5_000_000, 0..24),
        d1 in 0u64..50_000_000,
        d2 in 0u64..50_000_000,
    ) {
        let (d, last) = detector_with(&history);
        let (t1, t2) = (last + d1.min(d2), last + d1.max(d2));
        let p1 = d.phi(0, t1).unwrap();
        let p2 = d.phi(0, t2).unwrap();
        prop_assert!(p1 <= p2, "phi decayed on its own: {p1} at {t1} > {p2} at {t2}");
    }

    /// A fresh heartbeat is always (weakly) good news: suspicion right
    /// after an arrival is never higher than right before it, and is
    /// exactly zero at the arrival instant.
    #[test]
    fn a_fresh_heartbeat_never_raises_suspicion(
        history in vec(1u64..5_000_000, 0..24),
        silence in 1u64..50_000_000,
    ) {
        let (mut d, last) = detector_with(&history);
        let now = last + silence;
        let before = d.phi(0, now).unwrap();
        d.heartbeat(0, now);
        let after = d.phi(0, now).unwrap();
        prop_assert!(after <= before, "arrival raised suspicion: {before} -> {after}");
        prop_assert_eq!(after, 0.0);
    }

    /// Suspicion is a pure function of the heartbeat history — two
    /// detectors fed the same arrivals agree bit for bit (the property
    /// chaos replay determinism rests on).
    #[test]
    fn phi_is_deterministic(
        history in vec(1u64..5_000_000, 0..24),
        silence in 0u64..50_000_000,
    ) {
        let (a, last) = detector_with(&history);
        let (b, _) = detector_with(&history);
        let now = last + silence;
        prop_assert_eq!(a.phi(0, now), b.phi(0, now));
        prop_assert_eq!(a.is_suspect(0, now), b.is_suspect(0, now));
    }
}
