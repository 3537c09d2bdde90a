//! Virtual time.
//!
//! The simulator separates *virtual* time (what the modelled hardware
//! would take — e.g. a hardware TPM spending milliseconds on an RSA
//! signature) from wall-clock time (what our Rust code actually costs,
//! measured by the `repro` experiments and the end-to-end benchmark).
//! Components charge virtual time onto this clock; experiment harnesses
//! read both.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic virtual clock in nanoseconds. Thread-safe and lock-free:
/// concurrent workers charge time with relaxed atomics (the total is what
/// experiments consume, not the interleaving).
#[derive(Debug, Default)]
pub struct VirtualClock {
    now_ns: AtomicU64,
}

impl VirtualClock {
    /// A clock starting at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns.load(Ordering::Relaxed)
    }

    /// Advance the clock by `ns`, returning the new time.
    pub fn advance_ns(&self, ns: u64) -> u64 {
        self.now_ns.fetch_add(ns, Ordering::Relaxed) + ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(VirtualClock::new().now_ns(), 0);
    }

    #[test]
    fn advance_accumulates() {
        let c = VirtualClock::new();
        assert_eq!(c.advance_ns(10), 10);
        assert_eq!(c.advance_ns(2_000), 10 + 2_000);
        assert_eq!(c.now_ns(), 2_010);
    }

    #[test]
    fn concurrent_advances_sum() {
        use std::sync::Arc;
        let c = Arc::new(VirtualClock::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.advance_ns(3);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.now_ns(), 8 * 1000 * 3);
    }
}
