//! The one metrics registry every subsystem builds on: a fixed array
//! of `AtomicU64` counters and a fixed array of [`Histogram`]s, laid
//! out by a static [`Schema`] and addressed by typed constants — a
//! [`Counter`] or a [`Series`] carries its slot index and its stable
//! scrape name. Bumps by constant, the scrape walk and the frozen
//! [`RegistrySnapshot`] are written once, here; `Telemetry`,
//! `MigrationTelemetry`, `AttestTelemetry` and `FleetTelemetry` keep
//! only typed accessors over one registry each.

use std::ops::Index;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::{Histogram, HistogramSnapshot};

macro_rules! slot {
    ($(#[$doc:meta])* $ty:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct $ty {
            index: usize,
            name: &'static str,
        }

        impl $ty {
            /// Slot `index` of its schema, scraped as `name`.
            pub const fn new(index: usize, name: &'static str) -> Self {
                $ty { index, name }
            }

            /// The stable scrape name.
            pub const fn name(self) -> &'static str {
                self.name
            }
        }
    };
}

slot!(
    /// Typed index of one counter in a registry's [`Schema`].
    Counter
);
slot!(
    /// Typed index of one histogram series in a registry's [`Schema`].
    Series
);

/// The static layout of a registry: `C` counters and `H` histogram
/// series, in scrape order.
pub struct Schema<const C: usize, const H: usize> {
    counters: [Counter; C],
    series: [Series; H],
}

impl<const C: usize, const H: usize> Schema<C, H> {
    /// A schema over `counters` and `series`. Panics — a compile error
    /// when evaluated for a `static` — if any constant's index is not
    /// its position in the list.
    pub const fn new(counters: [Counter; C], series: [Series; H]) -> Self {
        let mut i = 0;
        while i < C {
            assert!(counters[i].index == i, "counter index out of schema order");
            i += 1;
        }
        let mut i = 0;
        while i < H {
            assert!(series[i].index == i, "series index out of schema order");
            i += 1;
        }
        Schema { counters, series }
    }
}

/// Lock-free counters and histograms laid out by one [`Schema`].
pub struct Registry<const C: usize, const H: usize> {
    schema: &'static Schema<C, H>,
    counters: [AtomicU64; C],
    series: [Histogram; H],
}

impl<const C: usize, const H: usize> Registry<C, H> {
    /// An all-zero registry over `schema`.
    pub fn new(schema: &'static Schema<C, H>) -> Self {
        Registry {
            schema,
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            series: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// Add `n` to counter `c` (relaxed).
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        self.atomic(c).fetch_add(n, Ordering::Relaxed);
    }

    /// Record one value into series `s`.
    #[inline]
    pub fn record(&self, s: Series, v: u64) {
        self.histogram(s).record(v);
    }

    /// Current value of counter `c` (relaxed).
    pub fn get(&self, c: Counter) -> u64 {
        self.atomic(c).load(Ordering::Relaxed)
    }

    /// The atomic behind counter `c`, for the coherence protocols that
    /// need `Release` bumps and `Acquire` reads.
    #[inline]
    pub fn atomic(&self, c: Counter) -> &AtomicU64 {
        debug_assert_eq!(self.schema.counters[c.index], c, "counter from another schema");
        &self.counters[c.index]
    }

    #[inline]
    fn histogram(&self, s: Series) -> &Histogram {
        debug_assert_eq!(self.schema.series[s.index], s, "series from another schema");
        &self.series[s.index]
    }

    /// Walk every counter, in schema order, under its scrape name.
    pub fn visit_counters(&self, mut f: impl FnMut(&'static str, u64)) {
        for (c, v) in self.schema.counters.iter().zip(&self.counters) {
            f(c.name, v.load(Ordering::Relaxed));
        }
    }

    /// Walk every histogram series, in schema order, under its scrape
    /// name — the observatory's wire contract.
    pub fn visit_histograms(&self, mut f: impl FnMut(&'static str, &Histogram)) {
        for (s, h) in self.schema.series.iter().zip(&self.series) {
            f(s.name, h);
        }
    }

    /// Freeze every counter and series. Counters are read with
    /// `Acquire`, in schema order, before any histogram.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: (self.schema.counters.iter().zip(&self.counters))
                .map(|(c, v)| (c.name, v.load(Ordering::Acquire)))
                .collect(),
            series: (self.schema.series.iter().zip(&self.series))
                .map(|(s, h)| (s.name, h.snapshot()))
                .collect(),
        }
    }
}

/// One read of a [`Registry`], indexed by the same typed constants
/// that write it: `snap[FleetTelemetry::COMMITTED]` is a `u64`,
/// `snap[FleetTelemetry::DOWNTIME]` a [`HistogramSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct RegistrySnapshot {
    counters: Vec<(&'static str, u64)>,
    series: Vec<(&'static str, HistogramSnapshot)>,
}

impl Index<Counter> for RegistrySnapshot {
    type Output = u64;

    fn index(&self, c: Counter) -> &u64 {
        let (name, v) = &self.counters[c.index];
        assert_eq!(*name, c.name, "counter from another schema");
        v
    }
}

impl Index<Series> for RegistrySnapshot {
    type Output = HistogramSnapshot;

    fn index(&self, s: Series) -> &HistogramSnapshot {
        let (name, h) = &self.series[s.index];
        assert_eq!(*name, s.name, "series from another schema");
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HITS: Counter = Counter::new(0, "hits");
    const MISSES: Counter = Counter::new(1, "misses");
    const LATENCY: Series = Series::new(0, "latency");
    static SCHEMA: Schema<2, 1> = Schema::new([HITS, MISSES], [LATENCY]);

    #[test]
    fn typed_constants_write_and_read_the_same_slot() {
        let r = Registry::new(&SCHEMA);
        r.add(HITS, 3);
        r.add(MISSES, 1);
        r.record(LATENCY, 40);
        assert_eq!((r.get(HITS), r.get(MISSES)), (3, 1));
        let s = r.snapshot();
        assert_eq!((s[HITS], s[MISSES]), (3, 1));
        assert_eq!(s[LATENCY].count, 1);
        assert_eq!(s[LATENCY].max, 40);
    }

    #[test]
    fn visits_walk_every_slot_in_schema_order() {
        let r = Registry::new(&SCHEMA);
        r.add(MISSES, 2);
        let mut counters = Vec::new();
        r.visit_counters(|name, v| counters.push((name, v)));
        assert_eq!(counters, vec![("hits", 0), ("misses", 2)]);
        let mut series = Vec::new();
        r.visit_histograms(|name, h| series.push((name, h.count())));
        assert_eq!(series, vec![("latency", 0)]);
    }

    #[test]
    #[should_panic(expected = "out of schema order")]
    fn misplaced_constants_are_rejected() {
        let _ = Schema::new([MISSES, HITS], [LATENCY]);
    }

    #[test]
    #[should_panic(expected = "another schema")]
    fn snapshot_refuses_a_foreign_constant() {
        let s = Registry::new(&SCHEMA).snapshot();
        let _ = s[Counter::new(1, "elsewhere")];
    }
}
