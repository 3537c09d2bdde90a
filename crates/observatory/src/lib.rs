//! # vtpm-observatory
//!
//! The fleet-wide metrics plane: one place that answers "is the fleet
//! healthy, which budget is burning, and where did the microsecond
//! go" for a hundred hosts at once.
//!
//! Four pieces, layered on the telemetry crate's primitives:
//!
//! * **Cross-host aggregation** — hosts ship their registries over the
//!   fabric as sparse histogram encodings
//!   ([`vtpm_telemetry::Histogram::encode`]); the observatory diffs
//!   consecutive cumulative scrapes into deltas
//!   ([`Histogram::delta_since`]) and folds them per host *and*
//!   fleet-wide. Because the log-linear merge is exact, a fleet-wide
//!   p99 carries the same ≤ 1/16 relative-error bound as a single
//!   host's — exact-enough by construction, proven in this crate's
//!   tests against sorted ground truth.
//! * **Downsampling storage** — every series lands in a
//!   [`RollupSeries`] (raw → 10 s → 1 m virtual-time rings) with
//!   count/sum/max conservation across rollup boundaries.
//! * **SLO burn-rate engine** — multi-window rules ([`SloRule`]) over
//!   the merged windows, latched raise/clear [`BurnEvent`]s carrying
//!   the gauge names the sentinel's `slo-burn` detector watches, so
//!   alerts flow into the existing closed loops (pause rebalancing,
//!   throttle admission).
//! * **Profiling attribution** — per-subsystem
//!   (ring/crypto/mirror/migration/verify) virtual-time shares from
//!   the scraped stage series, per host and fleet-wide, rendered from
//!   one text/JSON endpoint through the shared telemetry encoders.
//!
//! Everything is driven by caller-supplied virtual timestamps and the
//! deterministic scrape order, so chaos replays stay byte-identical
//! with the observatory enabled.

mod profile;
mod slo;

pub use profile::{shares, subsystem_for, PROFILE_SUBSYSTEMS};
pub use slo::{
    default_rules, BurnEvent, SloKind, SloRule, GAUGE_MIGRATION_BLACKOUT, GAUGE_MIRROR_SCRUB,
    GAUGE_VERIFY_LATENCY,
};

use std::collections::BTreeMap;
use std::fmt::Write as _;

use slo::BurnState;
use vtpm_telemetry::{hist_json, prom_summary, Histogram, RollupSeries, DEFAULT_ROLLUP_TIERS};

/// Per-host scrape state: previous cumulative histograms (for
/// delta-diffing), rolled-up deltas, and counter baselines.
struct HostState {
    prev: BTreeMap<String, Histogram>,
    series: BTreeMap<String, RollupSeries>,
    counter_prev: BTreeMap<String, u64>,
    last_scrape_ns: u64,
    scrapes: u64,
}

impl HostState {
    fn new() -> Self {
        HostState {
            prev: BTreeMap::new(),
            series: BTreeMap::new(),
            counter_prev: BTreeMap::new(),
            last_scrape_ns: 0,
            scrapes: 0,
        }
    }
}

/// The fleet-wide metrics plane. One per controller; single-threaded
/// by design (it lives on the control loop, not the hot path).
///
/// Every series rolls up through [`DEFAULT_ROLLUP_TIERS`], and the SLO
/// rules evaluated are [`default_rules`].
pub struct Observatory {
    rules: Vec<SloRule>,
    hosts: BTreeMap<u32, HostState>,
    /// Fleet-wide merged series (same deltas the hosts absorb).
    fleet: BTreeMap<String, RollupSeries>,
    /// Fleet-wide counter *increments* rolled up over virtual time
    /// (for incident-budget rules); latest cumulative values kept
    /// alongside for export.
    counter_rollups: BTreeMap<String, RollupSeries>,
    counter_totals: BTreeMap<String, u64>,
    burns: BTreeMap<&'static str, BurnState>,
    last_suspects: Vec<u32>,
    scrapes: u64,
    decode_rejects: u64,
    host_resets: u64,
}

impl Default for Observatory {
    /// An empty plane.
    fn default() -> Self {
        Observatory {
            rules: default_rules(),
            hosts: BTreeMap::new(),
            fleet: BTreeMap::new(),
            counter_rollups: BTreeMap::new(),
            counter_totals: BTreeMap::new(),
            burns: BTreeMap::new(),
            last_suspects: Vec::new(),
            scrapes: 0,
            decode_rejects: 0,
            host_resets: 0,
        }
    }
}

impl Observatory {
    /// Ingest one host's scrape: named sparse histogram encodings plus
    /// cumulative counters, as carried by a fabric metrics frame. The
    /// fields are passed apart from the frame type itself so this
    /// crate depends only on `vtpm-telemetry`.
    ///
    /// Series bytes are untrusted: payloads that fail the hardened
    /// decode are counted in `decode_rejects` and skipped. A series
    /// that went backwards means the host restarted; its fresh
    /// cumulative state counts as the delta and `host_resets` ticks.
    pub fn ingest_scrape(
        &mut self,
        host: u32,
        at_ns: u64,
        series: &[(String, Vec<u8>)],
        counters: &[(String, u64)],
    ) {
        self.scrapes += 1;
        for (name, bytes) in series {
            let Some(cur) = Histogram::decode(bytes) else {
                self.decode_rejects += 1;
                continue;
            };
            self.ingest_cumulative(host, at_ns, name, cur);
        }
        for (name, value) in counters {
            self.ingest_counter(host, at_ns, name, *value);
        }
        let state = self.hosts.entry(host).or_insert_with(HostState::new);
        state.last_scrape_ns = at_ns;
        state.scrapes += 1;
    }

    /// Ingest one cumulative histogram the controller holds locally
    /// (cluster-wide migration telemetry, the fleet controller's own
    /// stage registry, a verifier pool) under a synthetic host id —
    /// same delta-diffing as scraped series.
    pub fn ingest_local(&mut self, host: u32, at_ns: u64, name: &str, current: &Histogram) {
        let copy = Histogram::new();
        copy.merge(current);
        self.ingest_cumulative(host, at_ns, name, copy);
    }

    fn ingest_cumulative(&mut self, host: u32, at_ns: u64, name: &str, cur: Histogram) {
        let tiers = &DEFAULT_ROLLUP_TIERS;
        let state = self.hosts.entry(host).or_insert_with(HostState::new);
        let delta = match state.prev.get(name) {
            Some(prev) => match cur.delta_since(prev) {
                Some(d) => d,
                None => {
                    // Registry went backwards: host restarted; the
                    // fresh cumulative state is the delta.
                    self.host_resets += 1;
                    let d = Histogram::new();
                    d.merge(&cur);
                    d
                }
            },
            None => {
                let d = Histogram::new();
                d.merge(&cur);
                d
            }
        };
        state.prev.insert(name.to_string(), cur);
        if delta.count() == 0 && delta.sum() == 0 {
            return;
        }
        state
            .series
            .entry(name.to_string())
            .or_insert_with(|| RollupSeries::new(tiers))
            .observe(at_ns, &delta);
        self.fleet
            .entry(name.to_string())
            .or_insert_with(|| RollupSeries::new(tiers))
            .observe(at_ns, &delta);
    }

    /// Ingest one cumulative counter (scraped or controller-local).
    /// Windowed *increments* feed the incident-budget rules; a value
    /// that went backwards counts as a host reset and the fresh value
    /// as the increment. Scraped values are untrusted, so the
    /// fleet-wide total saturates at `u64::MAX` rather than overflow.
    pub fn ingest_counter(&mut self, host: u32, at_ns: u64, name: &str, value: u64) {
        let state = self.hosts.entry(host).or_insert_with(HostState::new);
        let increment = match state.counter_prev.get(name) {
            Some(&prev) if value >= prev => value - prev,
            Some(_) => {
                self.host_resets += 1;
                value
            }
            None => value,
        };
        state.counter_prev.insert(name.to_string(), value);
        let total = self.counter_totals.entry(name.to_string()).or_insert(0);
        *total = total.saturating_add(increment);
        if increment > 0 {
            self.counter_rollups
                .entry(name.to_string())
                .or_insert_with(|| RollupSeries::new(&DEFAULT_ROLLUP_TIERS))
                .record(at_ns, increment);
        }
    }

    /// Record the failure detector's current suspect set, so burn
    /// events can correlate "which budget is burning" with "which host
    /// the detector already blames".
    pub fn note_suspects(&mut self, suspects: &[u32]) {
        self.last_suspects = suspects.to_vec();
    }

    /// Evaluate every rule against the merged fleet windows at
    /// `now_ns`. Returns only *transitions* (latched): one raise when
    /// a rule starts burning, one clear when it recovers.
    pub fn evaluate(&mut self, now_ns: u64) -> Vec<BurnEvent> {
        let mut events = Vec::new();
        for rule in &self.rules {
            // Burn ratio per window = (observed error rate) /
            // (budget × multiplier); the rule burns when every window
            // is ≥ 1. Report the *smallest* window ratio — the
            // constraining one.
            let mut worst = f64::INFINITY;
            for &(window_ns, multiplier) in rule.windows {
                let ratio = match rule.kind {
                    SloKind::LatencyOver { threshold_ns, budget } => {
                        match self.fleet.get(rule.series) {
                            Some(series) => {
                                let merged = series.merged_window(now_ns, window_ns);
                                merged.fraction_over(threshold_ns) / (budget * multiplier)
                            }
                            None => 0.0,
                        }
                    }
                    SloKind::CounterBudget { budget } => match self.counter_rollups.get(rule.series)
                    {
                        Some(series) => {
                            let burned = series.merged_window(now_ns, window_ns).sum();
                            burned as f64 / (budget as f64 * multiplier)
                        }
                        None => 0.0,
                    },
                };
                worst = worst.min(ratio);
            }
            let burning = worst >= 1.0 && worst.is_finite();
            let state = self.burns.entry(rule.name).or_default();
            if burning != state.raised {
                state.raised = burning;
                if burning {
                    state.raises += 1;
                } else {
                    state.clears += 1;
                }
                events.push(BurnEvent {
                    rule: rule.name,
                    gauge: rule.gauge,
                    burning,
                    burn_ratio: if burning { worst } else { 0.0 },
                    at_ns: now_ns,
                    suspects: if burning { self.last_suspects.clone() } else { Vec::new() },
                });
            }
        }
        events
    }

    /// Everything the fleet ever recorded for `series`, merged across
    /// hosts and rollup tiers — conservation-exact.
    pub fn fleet_total(&self, series: &str) -> Option<Histogram> {
        self.fleet.get(series).map(|s| s.total())
    }

    /// One host's total for `series`.
    pub fn host_total(&self, host: u32, series: &str) -> Option<Histogram> {
        self.hosts.get(&host)?.series.get(series).map(|s| s.total())
    }

    /// Hosts currently tracked.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// `(scrapes, decode_rejects, host_resets)` — plane health.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.scrapes, self.decode_rejects, self.host_resets)
    }

    /// Rules currently latched as burning, in rule order.
    pub fn burning(&self) -> Vec<&'static str> {
        self.rules
            .iter()
            .filter(|r| self.burns.get(r.name).is_some_and(|b| b.raised))
            .map(|r| r.name)
            .collect()
    }

    /// Lifetime `(raises, clears)` for one rule.
    pub fn burn_counts(&self, rule: &str) -> (u64, u64) {
        self.burns.get(rule).map_or((0, 0), |b| (b.raises, b.clears))
    }

    /// Per-subsystem virtual-time attribution, fleet-wide.
    pub fn fleet_profile(&self) -> Vec<(&'static str, u64, f64)> {
        let mut ns = [0u64; 5];
        for (name, series) in &self.fleet {
            if let Some(sub) = subsystem_for(name) {
                let idx = PROFILE_SUBSYSTEMS.iter().position(|&s| s == sub).unwrap();
                ns[idx] += series.total().sum();
            }
        }
        shares(&ns)
    }

    /// Per-subsystem virtual-time attribution for one host.
    pub fn host_profile(&self, host: u32) -> Vec<(&'static str, u64, f64)> {
        let mut ns = [0u64; 5];
        if let Some(state) = self.hosts.get(&host) {
            for (name, series) in &state.series {
                if let Some(sub) = subsystem_for(name) {
                    let idx = PROFILE_SUBSYSTEMS.iter().position(|&s| s == sub).unwrap();
                    ns[idx] += series.total().sum();
                }
            }
        }
        shares(&ns)
    }

    /// The fleet-wide endpoint, Prometheus text exposition. Every
    /// histogram renders through the shared
    /// [`vtpm_telemetry::prom_summary`] encoder — the same bytes-path
    /// as per-host exports, so the formats cannot drift.
    pub fn render_text(&self, now_ns: u64) -> String {
        let mut out = String::with_capacity(4096);
        let _ = writeln!(out, "# observatory: {} hosts, {} scrapes", self.hosts.len(), self.scrapes);
        out.push_str("# TYPE vtpm_fleet_series summary\n");
        for (name, series) in &self.fleet {
            let snap = series.total().snapshot();
            prom_summary(&mut out, "vtpm_fleet_series", &format!("series=\"{name}\""), &snap);
        }
        out.push_str("# TYPE vtpm_fleet_counter_total counter\n");
        for (name, total) in &self.counter_totals {
            let _ = writeln!(out, "vtpm_fleet_counter_total{{counter=\"{name}\"}} {total}");
        }
        out.push_str("# TYPE vtpm_slo_burning gauge\n");
        for rule in &self.rules {
            let b = self.burns.get(rule.name).map_or(false, |b| b.raised);
            let _ = writeln!(out, "vtpm_slo_burning{{rule=\"{}\"}} {}", rule.name, b as u8);
        }
        out.push_str("# TYPE vtpm_profile_share gauge\n");
        for (sub, ns, share) in self.fleet_profile() {
            let _ = writeln!(
                out,
                "vtpm_profile_share{{subsystem=\"{sub}\"}} {share:.6}\nvtpm_profile_ns{{subsystem=\"{sub}\"}} {ns}"
            );
        }
        let _ = writeln!(out, "vtpm_observatory_decode_rejects {}", self.decode_rejects);
        let _ = writeln!(out, "vtpm_observatory_host_resets {}", self.host_resets);
        let _ = writeln!(out, "vtpm_observatory_now_ns {now_ns}");
        out
    }

    /// The same endpoint as JSON, through the shared
    /// [`vtpm_telemetry::hist_json`] encoder.
    pub fn render_json(&self, now_ns: u64) -> String {
        let mut out = String::with_capacity(4096);
        let _ = write!(
            out,
            "{{\n  \"now_ns\": {}, \"hosts\": {}, \"scrapes\": {}, \"decode_rejects\": {}, \"host_resets\": {},\n",
            now_ns,
            self.hosts.len(),
            self.scrapes,
            self.decode_rejects,
            self.host_resets
        );
        out.push_str("  \"fleet\": {");
        for (i, (name, series)) in self.fleet.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": {}", hist_json(&series.total().snapshot()));
        }
        out.push_str("},\n  \"counters\": {");
        for (i, (name, total)) in self.counter_totals.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": {total}");
        }
        out.push_str("},\n  \"slo\": [");
        for (i, rule) in self.rules.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let b = self.burns.get(rule.name).copied().unwrap_or_default();
            let _ = write!(
                out,
                "{{\"rule\": \"{}\", \"burning\": {}, \"raises\": {}, \"clears\": {}}}",
                rule.name, b.raised, b.raises, b.clears
            );
        }
        out.push_str("],\n  \"profile\": {");
        for (i, (sub, ns, share)) in self.fleet_profile().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{sub}\": {{\"ns\": {ns}, \"share\": {share:.6}}}");
        }
        out.push_str("}\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scrape_of(host: u32, at_ns: u64, name: &str, h: &Histogram) -> Vec<(String, Vec<u8>)> {
        let _ = host;
        let _ = at_ns;
        vec![(name.to_string(), h.encode())]
    }

    #[test]
    fn fleet_p99_matches_sorted_ground_truth_within_bound() {
        // The acceptance test: merged cross-host p99 vs the exact
        // order-statistic over every sample, within the histogram's
        // 1/16 relative-error guarantee.
        let mut obs = Observatory::default();
        let mut all: Vec<u64> = Vec::new();
        let mut x = 0x1234_5678_9abc_def0u64;
        for host in 0..8u32 {
            let h = Histogram::new();
            for _ in 0..5_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let v = x % 3_000_000 + 1;
                h.record(v);
                all.push(v);
            }
            obs.ingest_scrape(host, 1_000, &scrape_of(host, 1_000, "total", &h), &[]);
        }
        all.sort_unstable();
        let exact_p99 = all[(all.len() - 1) * 99 / 100];
        let fleet = obs.fleet_total("total").expect("series exists");
        assert_eq!(fleet.count(), 40_000);
        let approx_p99 = fleet.snapshot().p99;
        let err = (approx_p99 as f64 - exact_p99 as f64).abs() / exact_p99 as f64;
        assert!(err <= 1.0 / 16.0, "p99 {approx_p99} vs exact {exact_p99}: rel err {err}");
    }

    #[test]
    fn cumulative_scrapes_diff_into_deltas() {
        let mut obs = Observatory::default();
        let h = Histogram::new();
        h.record(100);
        obs.ingest_scrape(3, 1_000, &scrape_of(3, 1_000, "total", &h), &[]);
        h.record(200);
        h.record(300);
        obs.ingest_scrape(3, 2_000, &scrape_of(3, 2_000, "total", &h), &[]);
        let total = obs.fleet_total("total").unwrap();
        // Deltas, not double-counted cumulatives.
        assert_eq!(total.count(), 3);
        assert_eq!(total.sum(), 600);
        // A shrunken registry (host restart) is a reset, not a panic.
        let fresh = Histogram::new();
        fresh.record(50);
        obs.ingest_scrape(3, 3_000, &scrape_of(3, 3_000, "total", &fresh), &[]);
        assert_eq!(obs.stats().2, 1, "one host reset");
        assert_eq!(obs.fleet_total("total").unwrap().count(), 4);
    }

    #[test]
    fn garbage_series_bytes_are_counted_not_ingested() {
        let mut obs = Observatory::default();
        obs.ingest_scrape(0, 1, &[("total".to_string(), vec![0xFF; 7])], &[]);
        assert_eq!(obs.stats(), (1, 1, 0));
        assert!(obs.fleet_total("total").is_none());
    }

    #[test]
    fn blackout_burn_raises_once_and_clears_latched() {
        let mut obs = Observatory::default();
        // 200 fast downtimes, then a regression: 50 samples at 500 ms.
        let h = Histogram::new();
        for _ in 0..200 {
            h.record(5_000_000); // 5 ms
        }
        obs.ingest_local(1000, 1_000_000_000, "fleet_downtime", &h);
        assert_eq!(obs.evaluate(1_000_000_000), vec![], "healthy fleet: no burn");
        for _ in 0..50 {
            h.record(500_000_000); // 500 ms ≫ 300 ms objective
        }
        obs.ingest_local(1000, 2_000_000_000, "fleet_downtime", &h);
        let events = obs.evaluate(2_000_000_000);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].rule, "migration-blackout");
        assert_eq!(events[0].gauge, GAUGE_MIGRATION_BLACKOUT);
        assert!(events[0].burning && events[0].burn_ratio >= 1.0);
        // Latched: still burning → no second raise.
        assert_eq!(obs.evaluate(2_100_000_000), vec![]);
        assert_eq!(obs.burning(), vec!["migration-blackout"]);
        // Far in the virtual future the bad windows age out of every
        // live ring; the rule clears exactly once.
        let mut cleared = Vec::new();
        for i in 0..40u64 {
            let now = 3_000_000_000 + i * 60_000_000_000;
            cleared.extend(obs.evaluate(now));
        }
        assert_eq!(cleared.len(), 1, "exactly one clear event");
        assert!(!cleared[0].burning);
        assert_eq!(obs.burn_counts("migration-blackout"), (1, 1));
    }

    #[test]
    fn burn_events_carry_suspect_correlation() {
        let mut obs = Observatory::default();
        obs.note_suspects(&[7, 13]);
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(900_000_000);
        }
        obs.ingest_local(1000, 1_000, "fleet_downtime", &h);
        let events = obs.evaluate(1_000);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].suspects, vec![7, 13]);
    }

    #[test]
    fn counter_budget_rule_burns_on_windowed_increments() {
        let mut obs = Observatory::default();
        obs.ingest_counter(2, 1_000, "mirror_scrub_failures", 10);
        assert_eq!(obs.evaluate(1_000), vec![], "10 < 64 budget");
        obs.ingest_counter(2, 2_000, "mirror_scrub_failures", 80);
        let events = obs.evaluate(2_000);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].rule, "mirror-scrub");
        // Counter went backwards → reset semantics, no underflow.
        obs.ingest_counter(2, 3_000, "mirror_scrub_failures", 5);
        assert!(obs.stats().2 >= 1);
    }

    #[test]
    fn hostile_counter_scrapes_saturate_the_fleet_total() {
        let mut obs = Observatory::default();
        let counters = [("begun".to_string(), u64::MAX)];
        obs.ingest_scrape(0, 1_000, &[], &counters);
        obs.ingest_scrape(1, 1_000, &[], &counters);
        assert!(obs.render_json(1_000).contains("\"begun\": 18446744073709551615"));
        assert!(obs.render_text(1_000).contains("counter=\"begun\"} 18446744073709551615"));
        assert_eq!(obs.evaluate(1_000), vec![]);
    }

    #[test]
    fn profile_attributes_time_to_subsystems() {
        let mut obs = Observatory::default();
        let exec = Histogram::new();
        exec.record(3_000);
        let mirror = Histogram::new();
        mirror.record(1_000);
        obs.ingest_scrape(
            0,
            1_000,
            &[
                ("stage_exec".to_string(), exec.encode()),
                ("stage_mirror".to_string(), mirror.encode()),
            ],
            &[],
        );
        let profile = obs.fleet_profile();
        let crypto = profile.iter().find(|(s, _, _)| *s == "crypto").unwrap();
        assert_eq!(crypto.1, 3_000);
        assert!((crypto.2 - 0.75).abs() < 1e-9);
        let host = obs.host_profile(0);
        assert_eq!(host, profile, "single host: host and fleet shares agree");
    }

    #[test]
    fn endpoints_render_both_formats_from_shared_encoders() {
        let mut obs = Observatory::default();
        let h = Histogram::new();
        for v in [10, 1_000, 50_000] {
            h.record(v);
        }
        obs.ingest_scrape(0, 1_000, &scrape_of(0, 1_000, "total", &h), &[("allowed".into(), 3)]);
        let text = obs.render_text(2_000);
        assert!(text.contains("vtpm_fleet_series{series=\"total\",quantile=\"0.99\"}"));
        assert!(text.contains("vtpm_fleet_counter_total{counter=\"allowed\"} 3"));
        assert!(text.contains("vtpm_slo_burning{rule=\"migration-blackout\"} 0"));
        assert!(text.contains("vtpm_profile_share{subsystem=\"crypto\"}"));
        let json = obs.render_json(2_000);
        assert!(json.contains("\"total\": {\"count\": 3"));
        assert!(json.contains("\"rule\": \"migration-blackout\", \"burning\": false"));
        assert!(json.contains("\"profile\""));
    }
}
