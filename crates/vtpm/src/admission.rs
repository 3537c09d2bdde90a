//! Per-domain admission control at ring ingress.
//!
//! The sentinel's deny-rate detector watches the same signal from the
//! outside: a domain whose requests are overwhelmingly denied is either
//! probing the access-control layer or runaway-broken, and every one of
//! its requests still costs the manager a decode, a hook evaluation, and
//! two transport hops. Admission control moves that cut to the front of
//! the pipeline: the manager feeds each request's outcome into a
//! per-domain [`DenyRate`] — the one EWMA rule the sentinel's detector
//! also uses, same constants — and once a domain trips it its requests
//! are refused right after decode — before the hook runs — with
//! [`ResponseStatus::Throttled`](crate::transport::ResponseStatus).
//!
//! A throttled domain is not banished: every refused request decays the
//! EWMA by `DECAY`, and once it falls below
//! `DenyRate::THRESHOLD * RELEASE_RATIO` the domain is re-admitted. A
//! cooperating guest that stops sending garbage therefore recovers after
//! a bounded number of refusals, while a flooding attacker keeps itself
//! throttled by its own traffic.
//!
//! The controller can also be tripped from outside via
//! [`AdmissionController::throttle`] — the harness's alert actuator
//! throttles the subject of every raised deny-rate alert here, closing
//! the loop the paper's architecture draws between detection (sentinel)
//! and enforcement (manager).
//!
//! Everything here is deterministic: `f64` EWMA arithmetic and
//! `BTreeMap` iteration give byte-identical replay under the chaos
//! harness.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use vtpm_telemetry::DenyRate;

/// Multiplier applied to the EWMA per *refused* request while
/// throttled — refusals are how a throttled domain cools down.
const DECAY: f64 = 0.9;

/// A throttled domain is released once its EWMA falls below
/// `DenyRate::THRESHOLD * RELEASE_RATIO` (hysteresis against flapping).
const RELEASE_RATIO: f64 = 0.5;

/// A request refused at ring ingress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionError {
    /// The throttled source domain.
    pub domain: u32,
    /// Its deny-rate EWMA at refusal time, in thousandths (integer so
    /// the error stays `Eq` and log lines stay deterministic).
    pub deny_rate_milli: u32,
}

/// Per-domain admission state.
#[derive(Debug, Clone, Copy, Default)]
struct DomainState {
    /// Deny-rate EWMA over this domain's outcomes.
    rate: DenyRate,
    /// Whether the domain is currently refused at ingress.
    throttled: bool,
    /// Requests refused while throttled (diagnostics).
    refused: u64,
}

/// The per-domain admission controller. One per manager; all methods
/// take `&self` and are safe from any thread.
pub struct AdmissionController {
    /// Master switch. Off by default: baseline experiments and the
    /// existing test matrix see no behaviour change.
    enabled: bool,
    domains: Mutex<BTreeMap<u32, DomainState>>,
    refused_total: AtomicU64,
    throttle_events: AtomicU64,
}

impl AdmissionController {
    pub fn new(enabled: bool) -> Self {
        AdmissionController {
            enabled,
            domains: Mutex::new(BTreeMap::new()),
            refused_total: AtomicU64::new(0),
            throttle_events: AtomicU64::new(0),
        }
    }

    /// Gate a request from `domain` at ring ingress. `Ok` admits it;
    /// `Err` refuses it before any hook or TPM work. Each refusal decays
    /// the domain's EWMA, so a throttled domain that keeps (or stops)
    /// sending eventually crosses the release level and is re-admitted.
    pub fn admit(&self, domain: u32) -> Result<(), AdmissionError> {
        if !self.enabled {
            return Ok(());
        }
        let mut domains = self.domains.lock();
        let state = domains.entry(domain).or_default();
        if !state.throttled {
            return Ok(());
        }
        state.rate.decay(DECAY);
        if state.rate.value() < DenyRate::THRESHOLD * RELEASE_RATIO {
            state.throttled = false;
            return Ok(());
        }
        state.refused += 1;
        self.refused_total.fetch_add(1, Ordering::Relaxed);
        Err(AdmissionError {
            domain,
            deny_rate_milli: (state.rate.value() * 1000.0) as u32,
        })
    }

    /// Feed one admitted request's outcome back into `domain`'s EWMA
    /// (`denied` = the access hook denied it). Trips the throttle when
    /// the rate crosses the threshold after the cold-start window.
    pub fn record_outcome(&self, domain: u32, denied: bool) {
        if !self.enabled {
            return;
        }
        let mut domains = self.domains.lock();
        let state = domains.entry(domain).or_default();
        if state.rate.record(denied) && !state.throttled {
            state.throttled = true;
            self.throttle_events.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Trip the throttle for `domain` from outside — the sentinel
    /// closed loop. The EWMA is latched at 1.0 so release still requires
    /// the full decay run; the cold-start guard is considered satisfied
    /// (an external detector already saw enough evidence). Returns
    /// whether this call newly latched the domain (false when disabled
    /// or already throttled).
    pub fn throttle(&self, domain: u32) -> bool {
        if !self.enabled {
            return false;
        }
        let mut domains = self.domains.lock();
        let state = domains.entry(domain).or_default();
        let newly = !state.throttled;
        if newly {
            state.throttled = true;
            self.throttle_events.fetch_add(1, Ordering::Relaxed);
        }
        state.rate.saturate();
        newly
    }

    /// Whether `domain` is currently refused at ingress.
    pub fn is_throttled(&self, domain: u32) -> bool {
        self.domains.lock().get(&domain).map(|s| s.throttled).unwrap_or(false)
    }

    /// `domain`'s current deny-rate EWMA (diagnostics).
    pub fn deny_rate(&self, domain: u32) -> f64 {
        self.domains.lock().get(&domain).map(|s| s.rate.value()).unwrap_or(0.0)
    }

    /// Total requests refused at ingress.
    pub fn refused_total(&self) -> u64 {
        self.refused_total.load(Ordering::Relaxed)
    }

    /// Times any domain transitioned into the throttled state.
    pub fn throttle_events(&self) -> u64 {
        self.throttle_events.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_controller_admits_everything() {
        let ac = AdmissionController::new(false);
        for _ in 0..100 {
            ac.record_outcome(1, true);
            assert!(ac.admit(1).is_ok());
        }
        assert_eq!(ac.throttle_events(), 0);
    }

    #[test]
    fn sustained_denials_trip_then_refusals_decay_to_release() {
        let ac = AdmissionController::new(true);
        // All-denied traffic trips after the cold-start window.
        let mut tripped_at = None;
        for i in 0..32 {
            assert!(ac.admit(7).is_ok(), "not yet tripped at outcome {i}");
            ac.record_outcome(7, true);
            if ac.is_throttled(7) {
                tripped_at = Some(i);
                break;
            }
        }
        let tripped_at = tripped_at.expect("all-denied domain must trip");
        assert!(tripped_at + 1 >= DenyRate::MIN_SAMPLES as usize);
        assert_eq!(ac.throttle_events(), 1);

        // Refusals decay the EWMA until release; then admission resumes.
        let mut refusals = 0;
        while let Err(e) = ac.admit(7) {
            assert_eq!(e.domain, 7);
            refusals += 1;
            assert!(refusals < 100, "decay must release in bounded refusals");
        }
        assert!(refusals > 0);
        assert!(!ac.is_throttled(7));
        assert_eq!(ac.refused_total(), refusals);
    }

    #[test]
    fn clean_traffic_never_trips_and_domains_are_independent() {
        let ac = AdmissionController::new(true);
        for _ in 0..100 {
            ac.record_outcome(1, false);
            ac.record_outcome(2, true);
        }
        assert!(ac.admit(1).is_ok());
        assert!(!ac.is_throttled(1));
        assert!(ac.admit(2).is_err(), "domain 2's denials are its own");
    }

    #[test]
    fn external_throttle_latches_full_decay_run() {
        let ac = AdmissionController::new(true);
        ac.throttle(3);
        assert!(ac.is_throttled(3));
        assert!(ac.admit(3).is_err());
        assert!((ac.deny_rate(3) - DECAY).abs() < 1e-9);
        // Repeated throttle calls don't double-count events.
        ac.throttle(3);
        assert_eq!(ac.throttle_events(), 1);
    }
}
