//! Quickstart: boot the improved platform, launch a guest, and use its
//! vTPM for the three canonical TPM tasks — random numbers, sealed
//! storage, and a signed attestation quote.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use vtpm_harness::hex;
use vtpm_xen::prelude::*;

fn main() {
    // A simulated physical host running the paper's improved vTPM stack:
    // encrypted resident state, scrubbed rings, credentialed guests,
    // command policy, audit log.
    let platform = SecurePlatform::full(b"quickstart-host").expect("platform boots");
    println!("host up: hook = {}", platform.platform.manager.hook_name());

    // Launch a guest. The domain builder provisions its vTPM credential.
    let mut guest = platform.launch_guest("web1").expect("guest launches");
    println!(
        "guest {} launched with vTPM instance {}",
        guest.domain, guest.instance
    );

    // Inside the guest: a TPM 1.2 client over the split driver.
    let mut tpm = guest.client(b"quickstart-app");
    tpm.startup_clear().expect("vTPM starts");

    // 1. Random numbers.
    let nonce = tpm.get_random(16).expect("random");
    println!("random nonce: {}", hex(&nonce));

    // 2. Sealed storage: take ownership, then seal a secret to PCR 10.
    let owner_auth = [0x0Au8; 20];
    let srk_auth = [0x0Bu8; 20];
    tpm.take_ownership(&owner_auth, &srk_auth).expect("ownership");
    tpm.extend(10, &[0x42; 20]).expect("measure the application");
    let data_auth = [0x0Cu8; 20];
    let sealed = tpm
        .seal(handle::SRK, &srk_auth, &data_auth, Some(&PcrSelection::of(&[10])), b"db-password")
        .expect("seal");
    let recovered = tpm.unseal(handle::SRK, &srk_auth, &data_auth, &sealed).expect("unseal");
    println!("sealed + unsealed secret: {}", String::from_utf8_lossy(&recovered));

    // 3. Attestation: create a signing key and quote PCR 10.
    let key_auth = [0x0Du8; 20];
    let blob = tpm
        .create_wrap_key(handle::SRK, &srk_auth, tpm12_usage_signing(), 512, &key_auth, None)
        .expect("create key");
    let key = tpm.load_key2(handle::SRK, &srk_auth, &blob).expect("load key");
    let external = [0x77u8; 20];
    let (pcrs, sig) = tpm
        .quote(key, &key_auth, &external, &PcrSelection::of(&[10]))
        .expect("quote");
    println!("quoted PCR10 = {}", hex(&pcrs[0]));
    println!("signature ({} bytes): {}...", sig.len(), hex(&sig[..8]));

    // The verifier side: check the signature against the key's public half.
    let composite = {
        // Recompute TPM_COMPOSITE_HASH from the quoted values.
        let sel = PcrSelection::of(&[10]);
        let mut buf = Vec::new();
        buf.extend_from_slice(&sel.encode());
        buf.extend_from_slice(&20u32.to_be_bytes());
        buf.extend_from_slice(&pcrs[0]);
        vtpm_xen::crypto::sha1(&buf)
    };
    let digest = vtpm_xen::tpm12::quote_info_digest(&composite, &external);
    let pk = vtpm_xen::crypto::RsaPublicKey {
        n: vtpm_xen::crypto::BigUint::from_bytes_be(&blob.n),
        e: vtpm_xen::crypto::BigUint::from_u64(vtpm_xen::crypto::rsa::E),
    };
    pk.verify_pkcs1_sha1(&digest, &sig).expect("quote verifies");
    println!("remote verifier: quote signature VALID");

    // Every request above went through the access-control hook.
    println!(
        "audit log: {} entries, {} denials",
        platform.hook.audit.len(),
        platform.hook.audit.denials()
    );

    // Observability: every command above was also traced by the
    // telemetry registry. Dump the coherent metrics snapshot (counters,
    // per-stage latency histograms, mirror bytes) as JSON and the
    // buffered spans as a Chrome trace — load the latter in
    // chrome://tracing or https://ui.perfetto.dev to see the request
    // timeline per stage, joinable to the audit log via request id.
    let manager = &platform.platform.manager;
    let snapshot = manager.metrics_snapshot().expect("telemetry enabled by default");
    let spans = manager.telemetry().expect("telemetry enabled by default").drain_spans();
    std::fs::create_dir_all("target").expect("target dir");
    std::fs::write("target/quickstart-metrics.json", snapshot.to_json()).expect("write metrics");
    std::fs::write("target/quickstart-trace.json", vtpm_xen::telemetry::chrome_trace(&spans))
        .expect("write trace");
    println!(
        "telemetry: {} requests traced ({} allowed, {} denied), \
         metrics -> target/quickstart-metrics.json, \
         trace ({} spans) -> target/quickstart-trace.json",
        snapshot.finished, snapshot.allowed, snapshot.denied, spans.len(),
    );

    // Fleet-wide view: the same registry, scraped into the observatory.
    // On a real fleet the controller decodes every host's encoded
    // frames off the fabric; a single host feeds the identical
    // merge/rollup/SLO path through the local ingest hooks. Both the
    // per-host snapshot above and the fleet endpoint below render
    // through the shared telemetry encoders, so the two formats cannot
    // drift apart.
    let telemetry = manager.telemetry().expect("telemetry enabled by default");
    let mut observatory = Observatory::default();
    let scrape_ns = 1_000_000u64;
    telemetry.visit_histograms(|name, h| observatory.ingest_local(0, scrape_ns, name, h));
    telemetry.visit_counters(|name, v| observatory.ingest_counter(0, scrape_ns, name, v));
    let burns = observatory.evaluate(scrape_ns);
    let p99 = observatory.fleet_total("total").map(|h| h.snapshot().p99).unwrap_or(0);
    std::fs::write("target/quickstart-fleet.prom", observatory.render_text(scrape_ns))
        .expect("write fleet exposition");
    std::fs::write("target/quickstart-fleet.json", observatory.render_json(scrape_ns))
        .expect("write fleet json");
    println!(
        "observatory: fleet p99 total latency {p99} ns, {} SLO transitions, \
         endpoints -> target/quickstart-fleet.prom + .json",
        burns.len(),
    );
}

fn tpm12_usage_signing() -> vtpm_xen::tpm12::KeyUsage {
    vtpm_xen::tpm12::KeyUsage::Signing
}
