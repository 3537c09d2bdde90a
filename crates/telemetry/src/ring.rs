//! Bounded, lock-free span rings.
//!
//! Completed [`SpanRecord`](crate::SpanRecord)s are pushed into a set of
//! fixed-capacity ring buffers, striped 16 ways by `RequestId` exactly
//! like `vtpm-ac`'s `ReplayGuard` stripes its replay windows, so
//! concurrent producers on different requests land on different cache
//! lines. Each stripe is a Vyukov-style bounded MPMC queue: every slot
//! carries its own sequence atomic, a push is one CAS plus one store,
//! and a full ring is detected *exactly* (the CAS loop observes
//! `seq == head` only when the consumer lags a full lap), which is what
//! makes the `dropped_events` counter exact rather than heuristic.
//!
//! Nothing allocates after construction; push never blocks and never
//! spins unboundedly (a failed claim means either "full" → counted
//! drop, or "lost the race" → retry with a fresh tail).

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::SpanRecord;

/// Stripe count; matches `ReplayGuard`'s 16-way striping.
pub const SPAN_SHARDS: usize = 16;

/// Default per-stripe capacity (slots). Power of two.
pub const DEFAULT_SPAN_CAPACITY: usize = 1024;

struct Slot {
    seq: AtomicUsize,
    value: UnsafeCell<SpanRecord>,
}

/// One bounded MPMC stripe.
struct Stripe {
    slots: Box<[Slot]>,
    mask: usize,
    head: AtomicUsize,
    tail: AtomicUsize,
}

unsafe impl Sync for Stripe {}
unsafe impl Send for Stripe {}

impl Stripe {
    fn new(capacity: usize) -> Self {
        assert!(capacity.is_power_of_two(), "stripe capacity must be a power of two");
        let slots: Box<[Slot]> = (0..capacity)
            .map(|i| Slot { seq: AtomicUsize::new(i), value: UnsafeCell::new(SpanRecord::default()) })
            .collect();
        Stripe { slots, mask: capacity - 1, head: AtomicUsize::new(0), tail: AtomicUsize::new(0) }
    }

    /// Push a record; `false` means the stripe is full and the record
    /// was dropped.
    fn push(&self, record: SpanRecord) -> bool {
        let mut tail = self.tail.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[tail & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == tail {
                // Slot free for this lap; claim it.
                match self.tail.compare_exchange_weak(tail, tail + 1, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => {
                        // Sole owner of the slot until we publish seq.
                        unsafe { *slot.value.get() = record };
                        slot.seq.store(tail + 1, Ordering::Release);
                        return true;
                    }
                    Err(actual) => tail = actual,
                }
            } else if seq < tail {
                // Consumer is a full lap behind: ring is full.
                return false;
            } else {
                // Another producer advanced past us; catch up.
                tail = self.tail.load(Ordering::Relaxed);
            }
        }
    }

    /// Pop the oldest record, if any.
    fn pop(&self) -> Option<SpanRecord> {
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[head & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let expected = head + 1;
            if seq == expected {
                match self.head.compare_exchange_weak(head, head + 1, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => {
                        let value = unsafe { (*slot.value.get()).clone() };
                        // Free the slot for the producer's next lap.
                        slot.seq.store(head + self.mask + 1, Ordering::Release);
                        return Some(value);
                    }
                    Err(actual) => head = actual,
                }
            } else if seq < expected {
                // Empty.
                return None;
            } else {
                head = self.head.load(Ordering::Relaxed);
            }
        }
    }
}

/// The striped span ring: 16 bounded MPMC stripes. `push` reports
/// overflow so the owner can count every drop exactly.
pub struct SpanRing {
    stripes: Box<[Stripe]>,
}

impl SpanRing {
    /// A ring with `per_stripe` slots in each of the 16 stripes
    /// (rounded up to a power of two, minimum 2).
    pub fn with_capacity(per_stripe: usize) -> Self {
        let cap = per_stripe.max(2).next_power_of_two();
        SpanRing { stripes: (0..SPAN_SHARDS).map(|_| Stripe::new(cap)).collect() }
    }

    #[inline]
    fn stripe_for(&self, request_id: u64) -> &Stripe {
        // Fibonacci multiplicative hash, same idiom as ReplayGuard.
        let h = request_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.stripes[(h >> 60) as usize & (SPAN_SHARDS - 1)]
    }

    /// Push a completed span. Returns false when its stripe is full and
    /// the record was dropped.
    #[inline]
    pub fn push(&self, record: SpanRecord) -> bool {
        self.stripe_for(record.request_id).push(record)
    }

    /// Drain every buffered span, oldest-first per stripe, sorted by
    /// ingress timestamp across stripes (stable for equal stamps).
    pub fn drain(&self) -> Vec<SpanRecord> {
        let mut out = Vec::new();
        for stripe in self.stripes.iter() {
            while let Some(r) = stripe.pop() {
                out.push(r);
            }
        }
        out.sort_by_key(|r| (r.ingress_ns, r.request_id));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Outcome;

    fn span(id: u64) -> SpanRecord {
        SpanRecord { request_id: id, ingress_ns: id, outcome: Outcome::Ok, ..SpanRecord::default() }
    }

    #[test]
    fn push_pop_roundtrip() {
        let ring = SpanRing::with_capacity(8);
        let dropped = (0..100).filter(|&i| !ring.push(span(i))).count();
        let drained = ring.drain();
        assert_eq!(drained.len() + dropped, 100);
        // Whatever survived comes back in ingress order.
        for w in drained.windows(2) {
            assert!(w[0].ingress_ns <= w[1].ingress_ns);
        }
    }

    #[test]
    fn exact_drop_count_single_stripe() {
        let ring = SpanRing::with_capacity(4);
        // Same request id → same stripe; capacity 4 → exactly 6 drops.
        let dropped = (0..10).filter(|_| !ring.push(span(7))).count();
        assert_eq!(dropped, 6);
        assert_eq!(ring.drain().len(), 4);
    }

    #[test]
    fn drain_resets_for_reuse() {
        let ring = SpanRing::with_capacity(4);
        for round in 0..5u64 {
            for i in 0..4 {
                assert!(ring.push(span(round * 4 + i)), "drained rings never overflow");
            }
            let got = ring.drain();
            assert!(!got.is_empty());
            assert!(ring.drain().is_empty());
        }
    }

    #[test]
    fn concurrent_push_conserves_records() {
        use std::sync::Arc;
        let ring = Arc::new(SpanRing::with_capacity(1024));
        let threads = 8;
        let per = 5_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    (0..per).filter(|&i| !ring.push(span(t * per + i))).count() as u64
                })
            })
            .collect();
        let dropped: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let kept = ring.drain().len() as u64;
        assert_eq!(kept + dropped, threads * per, "every push is kept or counted dropped");
    }

    #[test]
    fn concurrent_push_and_drain() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let ring = Arc::new(SpanRing::with_capacity(64));
        let stop = Arc::new(AtomicBool::new(false));
        let drainer = {
            let ring = Arc::clone(&ring);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut total = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    total += ring.drain().len() as u64;
                }
                total += ring.drain().len() as u64;
                total
            })
        };
        let producers: Vec<_> = (0..4u64)
            .map(|t| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    (0..20_000).filter(|&i| !ring.push(span(t * 20_000 + i))).count() as u64
                })
            })
            .collect();
        let dropped: u64 = producers.into_iter().map(|p| p.join().unwrap()).sum();
        stop.store(true, Ordering::Relaxed);
        let drained = drainer.join().unwrap();
        assert_eq!(drained + dropped, 80_000);
    }
}
