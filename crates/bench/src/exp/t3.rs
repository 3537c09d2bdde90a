//! R-T3 (Table 3): policy-engine decision latency versus rule count,
//! with and without the decision cache.
//!
//! Expected shape: uncached decisions grow linearly with the rule list;
//! cached decisions stay flat (one map probe) regardless of rule count.

use tpm::ordinal;
use vtpm_ac::PolicyEngine;

use crate::Outcome;

/// One table row.
#[derive(Debug, Clone)]
pub struct T3Row {
    /// Rules loaded.
    pub rules: usize,
    /// Mean ns per cached decision.
    pub cached_ns: f64,
    /// Mean ns per uncached decision.
    pub uncached_ns: f64,
}

/// Build an engine with `n` non-matching specific rules followed by the
/// recommended tail, so every decision walks the whole list uncached.
pub fn synthetic_engine(n: usize) -> PolicyEngine {
    let mut text = String::new();
    for i in 0..n {
        // Specific rules for domains that never appear in queries.
        text.push_str(&format!("deny dom {} group owner\n", 100_000 + i as u32));
    }
    text.push_str("deny group nv-admin\ndefault allow\n");
    PolicyEngine::parse(&text).expect("synthetic policy parses")
}

fn mean_ns(mut f: impl FnMut(), iters: usize) -> f64 {
    let t0 = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// Run the sweep.
pub fn run(rule_counts: &[usize], iters: usize) -> Vec<T3Row> {
    rule_counts
        .iter()
        .map(|&rules| {
            let engine = synthetic_engine(rules);
            // Decisions rotate domains/ordinals so the cache holds a
            // realistic handful of entries.
            let domains = [1u32, 2, 3, 4];
            let ords = [ordinal::SEAL, ordinal::QUOTE, ordinal::EXTEND, ordinal::GET_RANDOM];
            // Prime the cache.
            for &d in &domains {
                for &o in &ords {
                    engine.check(d, o);
                }
            }
            let mut i = 0usize;
            let cached_ns = mean_ns(
                || {
                    let d = domains[i % 4];
                    let o = ords[(i / 4) % 4];
                    std::hint::black_box(engine.check(d, o));
                    i += 1;
                },
                iters,
            );
            let mut j = 0usize;
            let uncached_ns = mean_ns(
                || {
                    let d = domains[j % 4];
                    let o = ords[(j / 4) % 4];
                    std::hint::black_box(engine.check_uncached(d, o));
                    j += 1;
                },
                iters,
            );
            T3Row { rules, cached_ns, uncached_ns }
        })
        .collect()
}

/// Render the table.
pub fn render(rows: &[T3Row]) -> String {
    let mut out = String::new();
    out.push_str(
        "R-T3  Policy decision latency vs rule count\n\
         rules    cached(ns)   uncached(ns)   speedup\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:>10.1} {:>14.1} {:>8.1}x\n",
            r.rules,
            r.cached_ns,
            r.uncached_ns,
            r.uncached_ns / r.cached_ns.max(0.1),
        ));
    }
    out
}

/// The `repro` entry: this experiment at CI size (`quick`) or full size.
pub fn repro(quick: bool) -> Outcome {
    let (rules, iters): (&[usize], usize) =
        if quick { (&[10, 100, 1_000], 20_000) } else { (&[10, 100, 1_000, 10_000], 200_000) };
    Outcome::table(render(&run(rules, iters)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_holds_small() {
        let rows = run(&[10, 1000], 2000);
        assert_eq!(rows.len(), 2);
        // Uncached scales with rules: 1000 rules must cost clearly more
        // than 10 rules.
        assert!(
            rows[1].uncached_ns > 5.0 * rows[0].uncached_ns,
            "uncached {} vs {}",
            rows[1].uncached_ns,
            rows[0].uncached_ns
        );
        // Cached stays roughly flat (allow generous noise).
        assert!(
            rows[1].cached_ns < 20.0 * rows[0].cached_ns.max(1.0),
            "cached {} vs {}",
            rows[1].cached_ns,
            rows[0].cached_ns
        );
        // At 1000 rules the cache wins big.
        assert!(rows[1].uncached_ns > 3.0 * rows[1].cached_ns);
        assert!(render(&rows).contains("R-T3"));
    }

    #[test]
    fn synthetic_engine_semantics() {
        let e = synthetic_engine(50);
        assert_eq!(e.rule_count(), 51);
        assert!(!e.check(1, ordinal::NV_DEFINE_SPACE));
        assert!(e.check(1, ordinal::SEAL));
    }
}
