//! R-P1: the Dom0 manager's hot path at scale — wall-clock per-command
//! overhead versus resident instance count.
//!
//! The routing table is sharded (64-way striped instance/region maps),
//! so the read-path cost of `handle` should stay flat from 100 to
//! 10 000 resident instances: the gate ([`overhead_ratio`] vs
//! [`BUDGET_RATIO`]) fails the build if the largest count's ns/cmd
//! exceeds 1.5x the smallest's. The read phase round-robins over a
//! fixed-size active set (64 instances, spread across the id range so
//! every shard is exercised) while the *resident* count scales — that
//! isolates the routing/lookup cost from the unavoidable cache
//! footprint of touching 10k distinct multi-KiB TPM states, which is a
//! property of DRAM, not of the manager. The mutate phase drives
//! dirty-page traffic through the mirror write path (each update
//! writes its dirty shadow pages and commits one metadata frame) and
//! reports the data pages written.
//!
//! Worlds are fanned out from one template instance: a single
//! `create_instance` pays the RSA keygen, then `restore_instance`
//! clones its serialized state under fresh ids, which is what makes a
//! 10k-instance point affordable.

use std::sync::Arc;

use vtpm::{Envelope, ManagerConfig, MirrorMode, VtpmInstance, VtpmManager};
use vtpm_harness::json::Field;
use xen_sim::{DomainId, Hypervisor};

use crate::{gate, Outcome};

/// Hard ceiling on `ns/cmd(largest count) / ns/cmd(smallest count)`.
pub const BUDGET_RATIO: f64 = 1.5;

/// One measured point of the scaling curve.
#[derive(Debug, Clone)]
pub struct P1Point {
    /// Resident instances in the world.
    pub instances: usize,
    /// Wall ns per PcrRead command over the fixed active set (routing
    /// hot path).
    pub read_ns_per_cmd: f64,
    /// Wall ns per Extend round-robin command (mirror write path).
    pub mutate_ns_per_cmd: f64,
    /// Data pages written during the mutate phase.
    pub data_pages_written: u64,
}

fn pcr_read_cmd() -> Vec<u8> {
    let mut cmd = Vec::with_capacity(14);
    cmd.extend_from_slice(&0x00C1u16.to_be_bytes());
    cmd.extend_from_slice(&14u32.to_be_bytes());
    cmd.extend_from_slice(&tpm::ordinal::PCR_READ.to_be_bytes());
    cmd.extend_from_slice(&0u32.to_be_bytes());
    cmd
}

fn extend_cmd(idx: u32) -> Vec<u8> {
    let mut cmd = Vec::with_capacity(34);
    cmd.extend_from_slice(&0x00C1u16.to_be_bytes());
    cmd.extend_from_slice(&34u32.to_be_bytes());
    cmd.extend_from_slice(&tpm::ordinal::EXTEND.to_be_bytes());
    cmd.extend_from_slice(&idx.to_be_bytes());
    cmd.extend_from_slice(&[0x5A; 20]);
    cmd
}

fn envelope(instance: u32, seq: u64, command: Vec<u8>) -> Vec<u8> {
    Envelope { domain: 1, instance, seq, locality: 0, tag: None, command }.encode()
}

/// One resident-instance world under measurement.
struct World {
    _hv: Arc<Hypervisor>,
    mgr: VtpmManager,
    ids: Vec<u32>,
    /// Fixed-size active set, evenly spaced so all 64 shards see
    /// traffic regardless of the resident count.
    active: Vec<u32>,
    seq: u64,
}

impl World {
    /// Build a `count`-instance world by cloning one template instance's
    /// state under fresh ids (one keygen total).
    fn build(count: usize) -> World {
        // ~4 frames per single-page encrypted region (meta + A/B slots +
        // slack) plus headroom for growth during the mutate phase.
        let frames = count * 8 + 2048;
        let hv = Arc::new(Hypervisor::boot(frames, 16).expect("boot"));
        let mgr = VtpmManager::new(
            Arc::clone(&hv),
            b"p1-scale",
            ManagerConfig {
                mirror_mode: MirrorMode::Encrypted,
                charge_virtual_time: false,
                telemetry_enabled: false,
                ..Default::default()
            },
        )
        .expect("manager");
        let first = mgr.create_instance().expect("template");
        // Start the template once; every clone inherits the started state.
        let startup = vec![0x00, 0xC1, 0, 0, 0, 12, 0, 0, 0, 0x99, 0, 1];
        mgr.handle(DomainId(1), &envelope(first, 1, startup));
        let state = mgr.export_instance_state(first).expect("template state");
        let cfg = mgr.config().vtpm_config.clone();
        let mut ids = Vec::with_capacity(count);
        ids.push(first);
        for i in 1..count {
            let id = first + i as u32;
            let inst = VtpmInstance::from_state(id, &state, &id.to_be_bytes(), cfg.clone())
                .expect("clone template");
            mgr.restore_instance(id, inst).expect("fan out");
            ids.push(id);
        }
        let active =
            (0..64.min(ids.len())).map(|i| ids[i * ids.len() / 64.min(ids.len())]).collect();
        World { _hv: hv, mgr, ids, active, seq: 1 }
    }

    /// One timed pass of `cmds` PcrReads round-robin over the active
    /// set; wall ns per command.
    fn read_pass(&mut self, cmds: usize) -> f64 {
        let read = pcr_read_cmd();
        let t0 = std::time::Instant::now();
        for j in 0..cmds {
            self.seq += 1;
            let instance = self.active[j % self.active.len()];
            self.mgr.handle(DomainId(1), &envelope(instance, self.seq, read.clone()));
        }
        t0.elapsed().as_nanos() as f64 / cmds.max(1) as f64
    }

    /// `cmds` Extends round-robin over every instance.
    fn mutate_phase(&mut self, read_ns_per_cmd: f64, cmds: usize) -> P1Point {
        let io_before = self.mgr.mirror_io_stats();
        let ext = extend_cmd(3);
        let t1 = std::time::Instant::now();
        for j in 0..cmds {
            self.seq += 1;
            let instance = self.ids[j % self.ids.len()];
            self.mgr.handle(DomainId(1), &envelope(instance, self.seq, ext.clone()));
        }
        let mutate_ns_per_cmd = t1.elapsed().as_nanos() as f64 / cmds.max(1) as f64;
        let io = self.mgr.mirror_io_stats();
        P1Point {
            instances: self.ids.len(),
            read_ns_per_cmd,
            mutate_ns_per_cmd,
            data_pages_written: io.data_pages_written - io_before.data_pages_written,
        }
    }
}

/// Run the sweep: for each instance count, `read_cmds` PcrReads, then
/// `mutate_cmds` Extends. Every world is built before any is timed and
/// their read passes alternate, so host drift during the run lands on
/// every count alike instead of on one endpoint of the ratio.
pub fn run(counts: &[usize], read_cmds: usize, mutate_cmds: usize) -> Vec<P1Point> {
    let mut worlds: Vec<World> = counts.iter().map(|&count| World::build(count)).collect();
    // Best of six timed passes (after a warmup) — the gate compares
    // ratios, so per-run scheduler noise matters more than absolute
    // accuracy.
    let mut best = vec![f64::INFINITY; worlds.len()];
    for pass in 0..7 {
        for (w, best) in worlds.iter_mut().zip(&mut best) {
            let ns = w.read_pass(read_cmds);
            if pass > 0 {
                *best = best.min(ns);
            }
        }
    }
    worlds.iter_mut().zip(best).map(|(w, read_ns)| w.mutate_phase(read_ns, mutate_cmds)).collect()
}

/// The gate: `read ns/cmd` ratio of largest-count to smallest-count.
/// 1.0 = perfectly flat.
pub fn overhead_ratio(points: &[P1Point]) -> f64 {
    let (Some(first), Some(last)) = (points.first(), points.last()) else { return 0.0 };
    let base = first.read_ns_per_cmd;
    if base > 0.0 && base.is_finite() { last.read_ns_per_cmd / base } else { 0.0 }
}

/// Render the table.
pub fn render(points: &[P1Point]) -> String {
    let mut out = String::new();
    out.push_str("R-P1  Manager hot path vs resident instances (wall ns/cmd)\n");
    out.push_str("instances  read-ns/cmd  mut-ns/cmd  pages\n");
    for p in points {
        out.push_str(&format!(
            "{:<10} {:>11.0} {:>11.0} {:>6}\n",
            p.instances, p.read_ns_per_cmd, p.mutate_ns_per_cmd, p.data_pages_written,
        ));
    }
    out.push_str(&format!(
        "scaling ratio (best read-ns, largest/smallest count): {:.2}x (budget {:.1}x)\n",
        overhead_ratio(points),
        BUDGET_RATIO
    ));
    out
}

/// The `repro` entry: this experiment at CI size (`quick`) or full size.
pub fn repro(quick: bool) -> Outcome {
    // The gate is the ratio of the extremes, so quick keeps the 100- and
    // 10k-instance endpoints and drops the middle.
    let (counts, read_cmds, mutate_cmds): (&[usize], usize, usize) = if quick {
        (&[100, 10_000], 40_000, 2_000)
    } else {
        (&[100, 1_000, 10_000], 50_000, 5_000)
    };
    let points = run(counts, read_cmds, mutate_cmds);
    let ratio = overhead_ratio(&points);
    let rows = points.iter().map(|p| {
        Field::Obj(vec![
            ("instances", p.instances.into()),
            ("read_ns_per_cmd", Field::Float(p.read_ns_per_cmd, 1)),
            ("mutate_ns_per_cmd", Field::Float(p.mutate_ns_per_cmd, 1)),
            ("data_pages_written", p.data_pages_written.into()),
        ])
    });
    Outcome {
        text: render(&points),
        gate: gate(ratio > BUDGET_RATIO, || {
            format!("R-P1 read-path scaling ratio {ratio:.2}x > {BUDGET_RATIO:.1}x")
        }),
        fields: vec![
            ("read_cmds", read_cmds.into()),
            ("mutate_cmds", mutate_cmds.into()),
            ("points", Field::List(rows.collect())),
            ("overhead_ratio", Field::Float(ratio, 3)),
            ("budget_ratio", Field::Float(BUDGET_RATIO, 1)),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_holds_small() {
        let points = run(&[4, 16], 60, 32);
        assert_eq!(points.len(), 2, "one per-command row per count");
        assert_eq!(points.iter().map(|p| p.instances).collect::<Vec<_>>(), [4, 16]);
        for p in &points {
            assert!(p.read_ns_per_cmd > 0.0);
            assert!(p.mutate_ns_per_cmd > 0.0);
            assert!(p.data_pages_written > 0, "every Extend dirties the mirror");
        }
        let r = render(&points);
        assert!(r.contains("R-P1"));
        assert!(overhead_ratio(&points) > 0.0);
    }
}
