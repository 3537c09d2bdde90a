//! The one deny-rate rule: an EWMA of the denied fraction of a
//! source's requests.
//!
//! Two layers judge a domain by it: the sentinel's deny-rate detector
//! watches spans from the outside, and the manager's admission
//! controller refuses at ring ingress. Both fold outcomes through
//! [`DenyRate::record`] with the same constants, so they trip on
//! exactly the same evidence.

/// Deny-rate EWMA over one source's outcomes.
///
/// A guest probing ordinals it has no credential for shows up as a
/// sustained majority-denied stream; normal workloads (even chaos ones
/// that mix some denied traffic in) stay well below the threshold.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DenyRate {
    ewma: f64,
    samples: u64,
}

impl DenyRate {
    /// EWMA smoothing factor.
    pub const ALPHA: f64 = 0.2;
    /// EWMA level that trips. Chaos workloads legitimately mix denied
    /// traffic in; only a sustained majority-denied stream is
    /// anomalous.
    pub const THRESHOLD: f64 = 0.9;
    /// Outcomes observed before the rate may trip (cold-start guard).
    pub const MIN_SAMPLES: u64 = 8;

    /// Fold one outcome (`denied` = the access hook refused it).
    /// Returns whether the rate is now tripped: past the cold-start
    /// guard and above the threshold.
    pub fn record(&mut self, denied: bool) -> bool {
        let x = if denied { 1.0 } else { 0.0 };
        self.ewma = Self::ALPHA * x + (1.0 - Self::ALPHA) * self.ewma;
        self.samples += 1;
        self.samples >= Self::MIN_SAMPLES && self.ewma > Self::THRESHOLD
    }

    /// The current EWMA.
    pub fn value(&self) -> f64 {
        self.ewma
    }

    /// Outcomes folded so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Latch the rate at 1.0 with the cold-start guard satisfied — an
    /// outside detector already saw enough evidence.
    pub fn saturate(&mut self) {
        self.ewma = 1.0;
        self.samples = self.samples.max(Self::MIN_SAMPLES);
    }

    /// Scale the EWMA by `factor` (a throttled source cooling down).
    pub fn decay(&mut self, factor: f64) {
        self.ewma *= factor;
    }
}
