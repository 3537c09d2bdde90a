//! AC1 (continued): replay protection.
//!
//! The tag makes envelopes unforgeable but not unrepeatable — an attacker
//! who dumps a ring can resubmit a captured envelope verbatim. Each
//! (domain, instance) pair therefore carries a strictly increasing
//! sequence number; the guard accepts an envelope only if its sequence
//! exceeds the highest accepted so far.
//!
//! The table is one mutex over one map. Dom0's one tpmback loop is the
//! only thread on the request path, so the lock is uncontended there.

use std::collections::HashMap;

use parking_lot::Mutex;

/// The per-binding sequence tracker.
#[derive(Default)]
pub struct ReplayGuard {
    last: Mutex<HashMap<(u32, u32), u64>>,
}

impl ReplayGuard {
    /// Fresh guard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accept `seq` for (domain, instance) iff it advances; updates the
    /// watermark on acceptance.
    pub fn check_and_advance(&self, domain: u32, instance: u32, seq: u64) -> bool {
        let mut last = self.last.lock();
        let entry = last.entry((domain, instance)).or_insert(0);
        if seq > *entry {
            *entry = seq;
            true
        } else {
            false
        }
    }

    /// Current watermark for a binding.
    pub fn watermark(&self, domain: u32, instance: u32) -> u64 {
        self.last.lock().get(&(domain, instance)).copied().unwrap_or(0)
    }

    /// Forget a binding (domain destruction / re-provision).
    pub fn reset(&self, domain: u32, instance: u32) {
        self.last.lock().remove(&(domain, instance));
    }

    /// Bindings tracked (diagnostics).
    pub fn len(&self) -> usize {
        self.last.lock().len()
    }

    /// True when no binding is tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_acceptance() {
        let g = ReplayGuard::new();
        assert!(g.check_and_advance(1, 1, 1));
        assert!(g.check_and_advance(1, 1, 2));
        // Replay of 2 and regression to 1 both refused.
        assert!(!g.check_and_advance(1, 1, 2));
        assert!(!g.check_and_advance(1, 1, 1));
        // Gaps are fine (lost messages).
        assert!(g.check_and_advance(1, 1, 100));
        assert_eq!(g.watermark(1, 1), 100);
    }

    #[test]
    fn zero_never_accepted() {
        let g = ReplayGuard::new();
        assert!(!g.check_and_advance(1, 1, 0), "sequences start at 1");
    }

    #[test]
    fn bindings_independent() {
        let g = ReplayGuard::new();
        assert!(g.check_and_advance(1, 1, 5));
        assert!(g.check_and_advance(1, 2, 5));
        assert!(g.check_and_advance(2, 1, 5));
    }

    #[test]
    fn reset_forgets() {
        let g = ReplayGuard::new();
        g.check_and_advance(1, 1, 50);
        g.reset(1, 1);
        assert!(g.check_and_advance(1, 1, 1));
    }

    #[test]
    fn concurrent_unique_acceptance() {
        use std::sync::Arc;
        // With racing submitters of the same seq, exactly one wins.
        let g = Arc::new(ReplayGuard::new());
        let mut handles = Vec::new();
        let accepted = Arc::new(std::sync::atomic::AtomicU64::new(0));
        for _ in 0..8 {
            let g = Arc::clone(&g);
            let accepted = Arc::clone(&accepted);
            handles.push(std::thread::spawn(move || {
                for seq in 1..=100u64 {
                    if g.check_and_advance(9, 9, seq) {
                        accepted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(accepted.load(std::sync::atomic::Ordering::Relaxed), 100);
    }

    #[test]
    fn striping_preserves_per_binding_isolation() {
        // Many bindings in one table; watermarks never bleed into each
        // other.
        let g = ReplayGuard::new();
        for domain in 0..64u32 {
            for instance in 0..4u32 {
                let seq = u64::from(domain * 10 + instance + 1);
                assert!(g.check_and_advance(domain, instance, seq));
            }
        }
        assert_eq!(g.len(), 64 * 4);
        for domain in 0..64u32 {
            for instance in 0..4u32 {
                let seq = u64::from(domain * 10 + instance + 1);
                assert_eq!(g.watermark(domain, instance), seq);
                assert!(!g.check_and_advance(domain, instance, seq));
            }
        }
        // Reset one binding; its neighbours keep their watermarks.
        g.reset(7, 2);
        assert_eq!(g.watermark(7, 2), 0);
        assert_eq!(g.watermark(7, 1), 72);
        assert_eq!(g.len(), 64 * 4 - 1);
    }

    #[test]
    fn concurrent_distinct_bindings_all_accepted() {
        use std::sync::Arc;
        // Threads on disjoint bindings must not interfere: every
        // submission is a fresh maximum for its own binding.
        let g = Arc::new(ReplayGuard::new());
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let g = Arc::clone(&g);
            handles.push(std::thread::spawn(move || {
                for seq in 1..=200u64 {
                    assert!(g.check_and_advance(t, t * 3, seq));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..8u32 {
            assert_eq!(g.watermark(t, t * 3), 200);
        }
    }
}
