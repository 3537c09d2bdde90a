//! R-F5 (Figure 5): the attacker's side of the dump attack at scale —
//! scan time and leak count versus number of co-resident VMs.
//!
//! Each guest runs some vTPM traffic; the attacker then dumps all of
//! Dom0-visible RAM and scans (one scoped thread per core) for every
//! instance's key material. Expected shape: scan time grows with VM
//! count (more RAM, more needles); leak count equals the VM count on the
//! baseline and is zero on the improved platform.

use attacks::MemoryDump;
use vtpm::{Guest, Platform};
use vtpm_ac::SecurePlatform;
use xen_sim::DomainId;

use crate::Outcome;

/// One point of the figure.
#[derive(Debug, Clone)]
pub struct F5Point {
    /// Guests on the host.
    pub vms: usize,
    /// Pages in the dump (baseline host).
    pub pages: usize,
    /// Scan wall time, ms (baseline host).
    pub scan_ms: f64,
    /// Instances whose state leaked on the baseline host.
    pub base_leaks: usize,
    /// Instances whose state leaked on the improved host.
    pub imp_leaks: usize,
}

fn warm(guest: &mut Guest) {
    let mut c = guest.client(b"warm");
    c.startup_clear().expect("startup");
    c.extend(1, &[7; 20]).expect("extend");
}

/// High-entropy 64-byte probe of an instance's state.
fn probe(state: &[u8]) -> Vec<u8> {
    match attacks::dump::high_entropy_fragments(state, 1).first() {
        Some(&(a, b)) => state[a..b].to_vec(),
        None => state[..64.min(state.len())].to_vec(),
    }
}

fn leaks_on(platform: &Platform, guests: &[Guest]) -> (usize, usize, f64) {
    let probes: Vec<Vec<u8>> = guests
        .iter()
        .map(|g| probe(&platform.manager.export_instance_state(g.instance).expect("state")))
        .collect();
    let needles: Vec<&[u8]> = probes.iter().map(|p| p.as_slice()).collect();
    let dump = MemoryDump::capture(platform.manager.hypervisor(), DomainId::DOM0)
        .expect("dom0 dumps");
    let t0 = std::time::Instant::now();
    let hits = dump.scan(&needles);
    let scan_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut leaked: Vec<usize> = hits.iter().map(|h| h.needle).collect();
    leaked.sort_unstable();
    leaked.dedup();
    (leaked.len(), dump.pages.len(), scan_ms)
}

/// Run the sweep.
pub fn run(vm_counts: &[usize]) -> Vec<F5Point> {
    vm_counts
        .iter()
        .map(|&vms| {
            let base = Platform::baseline(format!("f5-base-{vms}").as_bytes()).expect("platform");
            let mut base_guests: Vec<Guest> =
                (0..vms).map(|i| base.launch_guest(&format!("g{i}")).expect("guest")).collect();
            for g in &mut base_guests {
                warm(g);
            }
            let (base_leaks, pages, scan_ms) = leaks_on(&base, &base_guests);

            let sp = SecurePlatform::full(format!("f5-imp-{vms}").as_bytes()).expect("platform");
            let mut imp_guests: Vec<Guest> =
                (0..vms).map(|i| sp.launch_guest(&format!("g{i}")).expect("guest")).collect();
            for g in &mut imp_guests {
                warm(g);
            }
            let (imp_leaks, _, _) = leaks_on(&sp.platform, &imp_guests);

            F5Point { vms, pages, scan_ms, base_leaks, imp_leaks }
        })
        .collect()
}

/// Render the series.
pub fn render(points: &[F5Point]) -> String {
    let mut out = String::new();
    out.push_str(
        "R-F5  Dump-scan at scale: time and leaked instances vs VM count\n\
         vms   dump(pages)   scan(ms)   leaked(baseline)   leaked(improved)\n",
    );
    for p in points {
        out.push_str(&format!(
            "{:<5} {:>11} {:>10.2} {:>14}/{:<4} {:>12}/{:<4}\n",
            p.vms, p.pages, p.scan_ms, p.base_leaks, p.vms, p.imp_leaks, p.vms
        ));
    }
    out
}

/// The `repro` entry: this experiment at CI size (`quick`) or full size.
pub fn repro(quick: bool) -> Outcome {
    let vms: &[usize] = if quick { &[1, 4, 8] } else { &[1, 2, 4, 8, 16, 32] };
    Outcome::table(render(&run(vms)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_holds_small() {
        let points = run(&[1, 3]);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert_eq!(p.base_leaks, p.vms, "baseline leaks every instance");
            assert_eq!(p.imp_leaks, 0, "improved leaks nothing");
        }
        assert!(points[1].pages >= points[0].pages);
        assert!(render(&points).contains("R-F5"));
    }
}
