//! R-F3 (Figure 3): vTPM migration time versus instance state size,
//! cleartext (baseline) vs sealed (improved) protocol.
//!
//! State size is grown by defining NV areas in the instance before
//! migration. Expected shape: both curves grow linearly with state size;
//! the sealed protocol pays a near-constant premium (one RSA-OAEP of the
//! session key + AES pass + hash), so the *relative* overhead shrinks as
//! state grows.

use vtpm::Platform;

use crate::Outcome;

/// One point of the figure.
#[derive(Debug, Clone)]
pub struct F3Point {
    /// Instance state size in bytes at export time.
    pub state_bytes: usize,
    /// Clear-protocol migration time (wall us, export+import).
    pub clear_us: f64,
    /// Sealed-protocol migration time (wall us, export+import).
    pub sealed_us: f64,
    /// Whether the sealed package hid the state (sanity column).
    pub sealed_hides: bool,
}

fn setup_instance(platform: &Platform, extra_nv_kib: usize, seed: &[u8]) -> (u32, usize) {
    let guest = platform.launch_guest(&format!("mig-{extra_nv_kib}")).expect("guest");
    let instance = guest.instance;
    // Inflate the state via NV areas written with pseudo-random data.
    platform
        .manager
        .with_instance(instance, |i| {
            let mut rng = tpm_crypto::Drbg::new(seed);
            for k in 0..extra_nv_kib {
                let idx = 0x100 + k as u32;
                i.tpm.provision_nv(idx, &rng.bytes(1024)).expect("nv budget fits");
            }
        })
        .expect("instance exists");
    let size = platform.manager.export_instance_state(instance).expect("state").len();
    (instance, size)
}

/// Run the sweep over NV payload sizes (KiB).
pub fn run(nv_kib: &[usize], reps: usize) -> Vec<F3Point> {
    nv_kib
        .iter()
        .map(|&kib| {
            // Fresh source/destination pairs per point; TPM budget must
            // accommodate the NV payload.
            let mk = |seed: &[u8]| {
                let cfg = vtpm::ManagerConfig {
                    vtpm_config: tpm::TpmConfig {
                        nv_budget: (kib + 4) * 1024,
                        ..Default::default()
                    },
                    ..Default::default()
                };
                Platform::with_config(seed, 16384, cfg, false).expect("platform")
            };

            let mut clear_total = 0f64;
            let mut sealed_total = 0f64;
            let mut state_bytes = 0usize;
            let mut sealed_hides = true;
            for rep in 0..reps {
                // Clear protocol.
                let src = mk(format!("f3-src-c-{kib}-{rep}").as_bytes());
                let dst = mk(format!("f3-dst-c-{kib}-{rep}").as_bytes());
                let (inst, size) = setup_instance(&src, kib, b"f3-nv");
                state_bytes = size;
                let t0 = std::time::Instant::now();
                let pkg = src.export_instance(inst, false, None).expect("export");
                dst.import_instance(&pkg).expect("import");
                clear_total += t0.elapsed().as_nanos() as f64 / 1e3;

                // Sealed protocol.
                let src = mk(format!("f3-src-s-{kib}-{rep}").as_bytes());
                let dst = mk(format!("f3-dst-s-{kib}-{rep}").as_bytes());
                let (inst, _) = setup_instance(&src, kib, b"f3-nv");
                let state = src.manager.export_instance_state(inst).expect("state");
                let dst_ek = dst.hw_ek_public();
                let t0 = std::time::Instant::now();
                let pkg = src.export_instance(inst, true, Some(&dst_ek)).expect("export");
                dst.import_instance(&pkg).expect("import");
                sealed_total += t0.elapsed().as_nanos() as f64 / 1e3;
                sealed_hides &= !pkg.exposes(&state[..64.min(state.len())]);
            }
            F3Point {
                state_bytes,
                clear_us: clear_total / reps as f64,
                sealed_us: sealed_total / reps as f64,
                sealed_hides,
            }
        })
        .collect()
}

/// Render the series.
pub fn render(points: &[F3Point]) -> String {
    let mut out = String::new();
    out.push_str(
        "R-F3  vTPM migration time vs instance state size\n\
         state(KiB)   clear(us)   sealed(us)   premium     sealed-hides-state\n",
    );
    for p in points {
        out.push_str(&format!(
            "{:<12.1} {:>9.1} {:>12.1} {:>8.1}us   {}\n",
            p.state_bytes as f64 / 1024.0,
            p.clear_us,
            p.sealed_us,
            p.sealed_us - p.clear_us,
            p.sealed_hides,
        ));
    }
    out
}

/// The `repro` entry: this experiment at CI size (`quick`) or full size.
pub fn repro(quick: bool) -> Outcome {
    let (kib, reps): (&[usize], usize) =
        if quick { (&[0, 8, 32], 2) } else { (&[0, 4, 16, 64, 256], 5) };
    Outcome::table(render(&run(kib, reps)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_holds_small() {
        let points = run(&[0, 8], 1);
        assert_eq!(points.len(), 2);
        // State grows with NV payload.
        assert!(points[1].state_bytes > points[0].state_bytes + 4096);
        // Sealed always hides state; both complete.
        for p in &points {
            assert!(p.sealed_hides);
            assert!(p.clear_us > 0.0 && p.sealed_us > 0.0);
        }
        assert!(render(&points).contains("R-F3"));
    }
}
