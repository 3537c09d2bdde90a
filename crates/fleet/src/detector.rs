//! Phi-accrual failure detection over fabric heartbeats.
//!
//! Classic threshold detectors answer "is the host dead?" with a
//! boolean that flips the instant a timeout expires; phi-accrual
//! detectors (Hayashibara et al., the design Cassandra ships) instead
//! output a *continuous suspicion score* that grows with the time since
//! the last heartbeat, scaled by the host's own observed inter-arrival
//! history. A host whose heartbeats always landed 1 ms apart becomes
//! suspicious after a few milliseconds of silence; a host that was
//! always jittery earns more patience. The threshold
//! ([`SUSPECT_PHI`]) sets how much silence a false positive costs.
//!
//! Everything here runs on the cluster's virtual clock, so suspicion
//! scores are a pure function of the heartbeat arrival times — chaos
//! replays of the fleet are byte-identical.
//!
//! Two properties the proptests pin down, because the rebalancer's
//! safety argument leans on them:
//!
//! * between heartbeats, `phi` is monotonically non-decreasing in
//!   elapsed time — suspicion never decays on its own;
//! * a fresh heartbeat never raises `phi` — arrival is always
//!   (weakly) good news.

use std::collections::{BTreeMap, VecDeque};

/// Inter-arrival samples kept per host.
const WINDOW: usize = 16;
/// Samples required before the host's own history replaces the
/// bootstrap interval.
const MIN_SAMPLES: usize = 3;
/// The least bootstrap interval a fleet uses: the assumed mean
/// inter-arrival until [`MIN_SAMPLES`] real ones exist. `Fleet::new`
/// raises it with the fleet's size.
pub const BOOTSTRAP_FLOOR_NS: u64 = 1_000_000;
/// Floor on the mean inter-arrival, so a burst of back-to-back
/// heartbeats cannot collapse the scale to zero and make every
/// subsequent silence look infinitely suspicious.
const MIN_MEAN_NS: u64 = 1_000;
/// Suspicion threshold: `phi >= SUSPECT_PHI` marks the host suspected.
/// phi ≈ 1 after one decade of silence past the mean (base-10, like
/// the original paper's formulation).
const SUSPECT_PHI: f64 = 3.0;

struct HostHistory {
    last_ns: u64,
    intervals: VecDeque<u64>,
}

/// Per-host suspicion scores accrued from heartbeat arrivals.
pub struct PhiAccrualDetector {
    /// Assumed mean inter-arrival until a host has [`MIN_SAMPLES`].
    bootstrap_interval_ns: u64,
    hosts: BTreeMap<usize, HostHistory>,
}

impl PhiAccrualDetector {
    /// An empty detector that assumes `bootstrap_interval_ns` between
    /// heartbeats until a host has a history of its own.
    pub fn new(bootstrap_interval_ns: u64) -> Self {
        PhiAccrualDetector { bootstrap_interval_ns, hosts: BTreeMap::new() }
    }

    /// Start (or restart) tracking `host`, treating `now_ns` as a
    /// synthetic first arrival. Re-registering wipes the history — a
    /// revived host gets a fresh bootstrap rather than inheriting the
    /// silence that got it suspected.
    pub fn register(&mut self, host: usize, now_ns: u64) {
        self.hosts.insert(host, HostHistory { last_ns: now_ns, intervals: VecDeque::new() });
    }

    /// Stop tracking `host`.
    pub fn deregister(&mut self, host: usize) {
        self.hosts.remove(&host);
    }

    /// Hosts currently tracked, ascending.
    pub fn tracked(&self) -> Vec<usize> {
        self.hosts.keys().copied().collect()
    }

    /// Record a heartbeat from `host` stamped `at_ns`. Unknown hosts
    /// are auto-registered (a joining host's first heartbeat may beat
    /// the controller's bookkeeping through the fabric). Heartbeats
    /// arriving out of order (fabric reordering) never move `last_ns`
    /// backwards.
    pub fn heartbeat(&mut self, host: usize, at_ns: u64) {
        let Some(h) = self.hosts.get_mut(&host) else {
            self.register(host, at_ns);
            return;
        };
        if at_ns <= h.last_ns {
            return;
        }
        h.intervals.push_back(at_ns - h.last_ns);
        while h.intervals.len() > WINDOW {
            h.intervals.pop_front();
        }
        h.last_ns = at_ns;
    }

    /// Mean inter-arrival the score is scaled by: the host's own
    /// history once it has enough samples, the bootstrap interval
    /// before that, floored either way.
    fn mean_ns(&self, h: &HostHistory) -> u64 {
        let mean = if h.intervals.len() >= MIN_SAMPLES {
            h.intervals.iter().sum::<u64>() / h.intervals.len() as u64
        } else {
            self.bootstrap_interval_ns
        };
        mean.max(MIN_MEAN_NS)
    }

    /// Suspicion score for `host` at `now_ns`; `None` if untracked.
    ///
    /// `phi = elapsed / (mean · ln 10)` — the exponential-arrival
    /// closed form of the accrual estimator: phi 1 after one decade of
    /// silence beyond the mean, 2 after two, and so on. Monotone in
    /// `elapsed` for a fixed history, and exactly 0 at the instant a
    /// heartbeat lands.
    pub fn phi(&self, host: usize, now_ns: u64) -> Option<f64> {
        let h = self.hosts.get(&host)?;
        let elapsed = now_ns.saturating_sub(h.last_ns);
        Some(elapsed as f64 / (self.mean_ns(h) as f64 * std::f64::consts::LN_10))
    }

    /// Whether `host`'s suspicion has crossed [`SUSPECT_PHI`].
    /// Untracked hosts are not suspected (they are simply unknown).
    pub fn is_suspect(&self, host: usize, now_ns: u64) -> bool {
        self.phi(host, now_ns).is_some_and(|p| p >= SUSPECT_PHI)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silence_accrues_suspicion_and_a_heartbeat_resets_it() {
        let mut d = PhiAccrualDetector::new(BOOTSTRAP_FLOOR_NS);
        d.register(0, 0);
        // Steady 1 ms heartbeats build history.
        for k in 1..=8u64 {
            d.heartbeat(0, k * 1_000_000);
        }
        assert_eq!(d.phi(0, 8_000_000), Some(0.0));
        // Suspicion grows with silence, crossing the threshold.
        let p1 = d.phi(0, 12_000_000).unwrap();
        let p2 = d.phi(0, 20_000_000).unwrap();
        assert!(p1 > 0.0 && p2 > p1);
        assert!(d.is_suspect(0, 40_000_000));
        // One fresh heartbeat clears it.
        d.heartbeat(0, 40_000_000);
        assert!(!d.is_suspect(0, 40_000_000));
        assert_eq!(d.phi(0, 40_000_000), Some(0.0));
    }

    #[test]
    fn jittery_hosts_earn_patience() {
        let mut slow = PhiAccrualDetector::new(BOOTSTRAP_FLOOR_NS);
        let mut fast = PhiAccrualDetector::new(BOOTSTRAP_FLOOR_NS);
        slow.register(0, 0);
        fast.register(0, 0);
        for k in 1..=8u64 {
            slow.heartbeat(0, k * 4_000_000);
            fast.heartbeat(0, k * 1_000_000);
        }
        // Same absolute silence after the last arrival; the host with
        // the slower cadence is scored less suspicious.
        let silence = 10_000_000;
        let p_slow = slow.phi(0, 8 * 4_000_000 + silence).unwrap();
        let p_fast = fast.phi(0, 8 * 1_000_000 + silence).unwrap();
        assert!(p_slow < p_fast, "slow {p_slow} vs fast {p_fast}");
    }

    #[test]
    fn reregistration_wipes_the_suspicion() {
        let mut d = PhiAccrualDetector::new(BOOTSTRAP_FLOOR_NS);
        d.register(3, 0);
        for k in 1..=4u64 {
            d.heartbeat(3, k * 1_000_000);
        }
        assert!(d.is_suspect(3, 50_000_000));
        d.register(3, 50_000_000);
        assert!(!d.is_suspect(3, 50_000_000));
        d.deregister(3);
        assert_eq!(d.phi(3, 60_000_000), None);
        assert!(!d.is_suspect(3, 60_000_000));
    }

    #[test]
    fn reordered_heartbeats_never_rewind_the_clock() {
        let mut d = PhiAccrualDetector::new(BOOTSTRAP_FLOOR_NS);
        d.register(0, 0);
        d.heartbeat(0, 5_000_000);
        let before = d.phi(0, 6_000_000).unwrap();
        // A stale (reordered) heartbeat must not make the host look
        // older than its freshest arrival.
        d.heartbeat(0, 2_000_000);
        assert_eq!(d.phi(0, 6_000_000), Some(before));
    }
}
