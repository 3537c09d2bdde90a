//! The bounded span ring.
//!
//! Completed [`SpanRecord`](crate::SpanRecord)s are pushed into one
//! fixed-capacity FIFO behind one mutex. Dom0's one tpmback loop is the
//! only producer on the request path, so the lock is uncontended there.
//! The queue's storage is reserved at construction and a push into a
//! full ring is refused, never grown, which is what makes the
//! `dropped_events` counter exact rather than heuristic: every finished
//! span is either kept or counted dropped.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::SpanRecord;

/// Default capacity (slots).
pub const DEFAULT_SPAN_CAPACITY: usize = 16 * 1024;

/// The span ring. `push` reports overflow so the owner can count every
/// drop exactly.
pub struct SpanRing {
    capacity: usize,
    queue: Mutex<VecDeque<SpanRecord>>,
}

impl SpanRing {
    /// A ring with `capacity` slots in total (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SpanRing { capacity, queue: Mutex::new(VecDeque::with_capacity(capacity)) }
    }

    /// Push a completed span. Returns false when the ring is full and the
    /// record was dropped.
    #[inline]
    pub fn push(&self, record: SpanRecord) -> bool {
        let mut queue = self.queue.lock().expect("span ring poisoned");
        if queue.len() == self.capacity {
            return false;
        }
        queue.push_back(record);
        true
    }

    /// Drain every buffered span, sorted by ingress timestamp, then by
    /// request id.
    pub fn drain(&self) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> =
            self.queue.lock().expect("span ring poisoned").drain(..).collect();
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
    fn drops_are_the_pushes_past_capacity() {
        // While the ring is undrained, drops == pushes - capacity.
        let ring = SpanRing::with_capacity(4);
        let mut dropped = 0u64;
        for pushes in 1..=10u64 {
            dropped += u64::from(!ring.push(span(pushes)));
            assert_eq!(dropped, pushes.saturating_sub(4));
        }
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
        use std::sync::atomic::{AtomicBool, Ordering};
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
