//! R-F4 (Figure 4): manager scalability — aggregate throughput versus
//! worker threads.
//!
//! The worker-pool server drains a pre-built queue of cheap requests
//! spread over many instances (per-instance locks, no global lock), so
//! throughput should climb with workers until core count or the
//! memory-mirror lock saturates.

use std::sync::Arc;

use vtpm::{Envelope, ManagerConfig, ManagerServer, VtpmManager};
use xen_sim::{DomainId, Hypervisor};

use crate::Outcome;

/// One point of the figure.
#[derive(Debug, Clone)]
pub struct F4Point {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Requests served per wall second.
    pub ops_s: f64,
}

fn build_requests(instances: &[u32], per_instance: usize) -> Vec<(DomainId, Vec<u8>)> {
    let mut out = Vec::with_capacity(instances.len() * per_instance);
    for (gi, &inst) in instances.iter().enumerate() {
        for s in 0..per_instance {
            // TPM_PcrRead(0): cheap and stateless-ish.
            let mut cmd = Vec::with_capacity(14);
            cmd.extend_from_slice(&0x00C1u16.to_be_bytes());
            cmd.extend_from_slice(&14u32.to_be_bytes());
            cmd.extend_from_slice(&tpm::ordinal::PCR_READ.to_be_bytes());
            cmd.extend_from_slice(&0u32.to_be_bytes());
            let env = Envelope {
                domain: gi as u32 + 1,
                instance: inst,
                seq: s as u64 + 2,
                locality: 0,
                tag: None,
                command: cmd,
            };
            out.push((DomainId(gi as u32 + 1), env.encode()));
        }
    }
    out
}

/// Run the sweep: `instances` vTPMs, `per_instance` requests each, for
/// every worker count.
pub fn run(worker_counts: &[usize], instances: usize, per_instance: usize) -> Vec<F4Point> {
    worker_counts
        .iter()
        .map(|&workers| {
            let hv = Arc::new(Hypervisor::boot(16384, 32).expect("boot"));
            let mgr = Arc::new(
                VtpmManager::new(
                    Arc::clone(&hv),
                    format!("f4-{workers}").as_bytes(),
                    ManagerConfig { charge_virtual_time: false, ..Default::default() },
                )
                .expect("manager"),
            );
            let ids: Vec<u32> =
                (0..instances).map(|_| mgr.create_instance().expect("instance")).collect();
            // Start every instance once so commands succeed.
            for (gi, &inst) in ids.iter().enumerate() {
                let startup = Envelope {
                    domain: gi as u32 + 1,
                    instance: inst,
                    seq: 1,
                    locality: 0,
                    tag: None,
                    command: vec![0x00, 0xC1, 0, 0, 0, 12, 0, 0, 0, 0x99, 0, 1],
                };
                mgr.handle(DomainId(gi as u32 + 1), &startup.encode());
            }
            let requests = build_requests(&ids, per_instance);
            let total = requests.len();

            let server = ManagerServer::new(Arc::clone(&mgr), workers);
            let t0 = std::time::Instant::now();
            // Submit everything, then drain the replies.
            let receivers: Vec<_> = requests
                .into_iter()
                .map(|(src, env)| server.submit(src, env))
                .collect();
            for rx in receivers {
                rx.recv().expect("response");
            }
            let elapsed = t0.elapsed().as_secs_f64();
            server.shutdown();
            F4Point { workers, ops_s: total as f64 / elapsed }
        })
        .collect()
}

/// Render the series.
pub fn render(points: &[F4Point]) -> String {
    let mut out = String::new();
    out.push_str("R-F4  Manager throughput vs worker threads (PcrRead flood)\n");
    out.push_str("workers   ops/s      scaling-vs-1\n");
    let base = points.first().map(|p| p.ops_s).unwrap_or(1.0);
    for p in points {
        out.push_str(&format!(
            "{:<9} {:>9.0} {:>12.2}x\n",
            p.workers,
            p.ops_s,
            p.ops_s / base
        ));
    }
    out
}

/// The `repro` entry: this experiment at CI size (`quick`) or full size.
pub fn repro(quick: bool) -> Outcome {
    let (workers, instances, per_instance) = if quick {
        (vec![1, 2, 4], 8, 300)
    } else {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        ((0..).map(|i| 1usize << i).take_while(|&w| w <= cores.max(2)).collect(), 16, 2_000)
    };
    Outcome::table(render(&run(&workers, instances, per_instance)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_holds_small() {
        let points = run(&[1, 2], 4, 50);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.ops_s > 0.0);
        }
        assert!(render(&points).contains("R-F4"));
    }
}
