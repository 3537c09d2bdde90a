//! A consolidated web farm using vTPM-based remote attestation — the
//! scenario the paper's introduction motivates (many VMs on one host,
//! each needing its own TPM) — served through the attestation plane.
//!
//! Eight guests boot and measure a (simulated) software stack into
//! their vTPM PCRs; the platform's [`QuoteIssuer`] enrolls each one and
//! answers the whole farm's challenges out of its nonce-window cache
//! (one signing pass per guest, no matter how many verifiers ask). A
//! [`VerifierPool`] pinned to the golden measurements batch-verifies
//! every quote chain and catches the one guest whose measurement was
//! tampered with.
//!
//! ```text
//! cargo run --release --example attestation_farm
//! ```

use vtpm_xen::crypto::sha1;
use vtpm_xen::prelude::*;
use vtpm_xen::telemetry::AttestTelemetry;

const FARM_SIZE: usize = 8;

/// "Boot" a guest: measure kernel + app into PCRs 0 and 1. Every farm
/// member runs the same stack, so honest guests produce identical PCRs.
fn boot_and_measure(guest: &mut Guest, tamper: bool) {
    let mut tpm = guest.client(b"boot");
    tpm.startup_clear().expect("startup");
    let owner = [1u8; 20];
    let srk = [2u8; 20];
    tpm.take_ownership(&owner, &srk).expect("ownership");
    tpm.extend(0, &sha1(b"kernel-5.0-golden")).expect("measure kernel");
    let app = if tamper { b"app-1.0-BACKDOORED".as_slice() } else { b"app-1.0-golden".as_slice() };
    tpm.extend(1, &sha1(app)).expect("measure app");
}

/// What the honest stack's PCRs 0 and 1 extend to.
fn golden_pcrs() -> Vec<[u8; 20]> {
    [b"kernel-5.0-golden".as_slice(), b"app-1.0-golden".as_slice()]
        .iter()
        .map(|m| {
            let mut buf = [0u8; 40];
            buf[20..].copy_from_slice(&sha1(m));
            sha1(&buf)
        })
        .collect()
}

fn main() {
    let platform = SecurePlatform::full(b"attestation-farm").expect("platform");
    println!("farm host up; launching {FARM_SIZE} guests...");

    // Launch and measure concurrently — each guest on its own thread,
    // exactly how a consolidation host behaves.
    let handles: Vec<_> = (0..FARM_SIZE)
        .map(|i| {
            let tampered = i == 5; // one compromised guest
            let mut guest = platform.launch_guest(&format!("web{i}")).expect("guest");
            std::thread::spawn(move || {
                boot_and_measure(&mut guest, tampered);
                guest
            })
        })
        .collect();
    let guests: Vec<Guest> = handles.into_iter().map(|h| h.join().expect("guest thread")).collect();

    // Enroll every guest with the platform's attestation agent. The
    // guests took ownership themselves, so enrollment reuses their SRK.
    let issuer = QuoteIssuer::new(IssuerConfig::default());
    for g in &guests {
        issuer
            .enroll_with_auths(&platform.platform, g.instance, &[2u8; 20], &[3u8; 20])
            .expect("enroll");
    }

    // The relying party pins the golden measurements; everything else —
    // chain verification down to the hardware EK, freshness, replay —
    // is the pool's standing policy.
    let pool = VerifierPool::new(VerifierConfig {
        golden_pcrs: Some(golden_pcrs()),
        ..Default::default()
    });

    // Four independent verifiers each challenge the whole farm in the
    // same nonce-window: one signing pass per guest serves all of them,
    // the rest comes straight from the issued-quote cache.
    const VERIFIERS: u32 = 4;
    let now = platform.platform.hv.clock.now_ns();
    let batch: Vec<Submission> = (0..VERIFIERS)
        .flat_map(|v| {
            guests.iter().map(move |g| (v, g.instance)).collect::<Vec<_>>()
        })
        .map(|(v, instance)| {
            let evidence = issuer.issue(&platform.platform, instance, now).expect("issue");
            Submission::from_evidence(v, &evidence)
        })
        .collect();
    let verdicts = pool.verify_batch(&batch, now);

    let mut failed = 0;
    for (i, g) in guests.iter().enumerate() {
        let verdict = &verdicts[i]; // verifier 0's round, one row per guest
        if verdict.accepted() {
            println!("  web{} (instance {:<2}) ATTESTED", i, g.instance);
        } else {
            println!("  web{} (instance {:<2}) REJECTED  ({verdict})", i, g.instance);
        }
    }
    failed += verdicts.iter().filter(|v| !v.accepted()).count();
    println!(
        "\n{} of {} challenges attested, {failed} rejected",
        verdicts.len() - failed,
        verdicts.len()
    );
    assert_eq!(
        failed,
        VERIFIERS as usize,
        "exactly the tampered guest fails, for every verifier"
    );

    let snap = issuer.telemetry().snapshot();
    println!(
        "issuer: {} requests, {} signing passes, {} served from cache (audit denials: {})",
        snap[AttestTelemetry::REQUESTED],
        snap[AttestTelemetry::SIGNING_PASSES],
        snap[AttestTelemetry::CACHE_HITS] + snap[AttestTelemetry::COALESCED],
        platform.hook.audit.denials()
    );
}
