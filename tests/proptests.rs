//! Property-based tests on the core data structures and invariants,
//! spanning crates.

use proptest::prelude::*;

use vtpm_xen::crypto::{BigUint, Drbg};
use vtpm_xen::tpm12::buffer::{Reader, Writer};
use vtpm_xen::tpm12::{PcrSelection, Tpm};
use vtpm_xen::vtpm_stack::{Envelope, ResponseEnvelope, ResponseStatus};
use vtpm_xen::xen::{ByteRing, DomainId, MachineMemory, PageRegion, RingDir};

// ---- bignum arithmetic laws -------------------------------------------------

fn biguint() -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u8>(), 0..48).prop_map(|v| BigUint::from_bytes_be(&v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bytes_roundtrip(v in biguint()) {
        prop_assert_eq!(BigUint::from_bytes_be(&v.to_bytes_be()), v);
    }

    #[test]
    fn add_commutative(a in biguint(), b in biguint()) {
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn add_sub_inverse(a in biguint(), b in biguint()) {
        prop_assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn mul_distributes(a in biguint(), b in biguint(), c in biguint()) {
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn div_rem_law(a in biguint(), b in biguint()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(q.mul(&b).add(&r), a);
    }

    #[test]
    fn shifts_inverse(a in biguint(), n in 0usize..200) {
        prop_assert_eq!(a.shl(n).shr(n), a);
    }

    #[test]
    fn mod_pow_multiplicative(a in biguint(), b in biguint(), m in biguint()) {
        // (a*b)^1 mod m == (a mod m)(b mod m) mod m, m odd & > 1
        let m = { let mut m2 = m; m2.set_bit(0); m2 };
        prop_assume!(m > BigUint::one());
        let lhs = a.mul(&b).rem(&m);
        let rhs = a.rem(&m).mul_mod(&b.rem(&m), &m);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn montgomery_modexp_matches_naive(a in biguint(), e in biguint(), m in biguint()) {
        // mod_pow (Montgomery for odd m) against a reference
        // square-and-multiply built from mul_mod only.
        let m = { let mut m2 = m; m2.set_bit(0); m2 };
        prop_assume!(m > BigUint::one());
        let fast = a.mod_pow(&e, &m);
        let mut acc = BigUint::one().rem(&m);
        let mut base = a.rem(&m);
        for i in 0..e.bits() {
            if e.bit(i) {
                acc = acc.mul_mod(&base, &m);
            }
            base = base.mul_mod(&base, &m);
        }
        prop_assert_eq!(fast, acc);
    }

    #[test]
    fn mod_inverse_correct(a in biguint(), m in biguint()) {
        let m = { let mut m2 = m; m2.set_bit(0); m2 }; // odd modulus
        prop_assume!(m > BigUint::one());
        if let Some(inv) = a.mod_inverse(&m) {
            prop_assert!(a.mul_mod(&inv, &m).is_one());
        }
    }
}

// ---- hashes: streaming == one-shot, any split --------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sha1_split_invariant(data in proptest::collection::vec(any::<u8>(), 0..300), split in 0usize..300) {
        use vtpm_xen::crypto::{Digest, sha1};
        let split = split.min(data.len());
        let mut h = vtpm_xen::crypto::sha1::Sha1::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha1(&data).to_vec());
    }

    #[test]
    fn hmac_verifies_only_same_key_and_message(
        key in proptest::collection::vec(any::<u8>(), 1..64),
        msg in proptest::collection::vec(any::<u8>(), 0..128),
        flip in any::<u8>(),
    ) {
        use vtpm_xen::crypto::hmac_sha256;
        let mac = hmac_sha256(&key, &msg);
        prop_assert_eq!(hmac_sha256(&key, &msg), mac);
        if !msg.is_empty() {
            let mut msg2 = msg.clone();
            let idx = flip as usize % msg2.len();
            msg2[idx] ^= 0x01;
            prop_assert_ne!(hmac_sha256(&key, &msg2), mac);
        }
    }

    #[test]
    fn aes_ctr_is_involutive(
        key in proptest::array::uniform16(any::<u8>()),
        nonce in proptest::array::uniform8(any::<u8>()),
        data in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        use vtpm_xen::crypto::AesCtr;
        let ctr = AesCtr::new(&key, nonce);
        let mut buf = data.clone();
        ctr.apply_keystream(&mut buf);
        ctr.apply_keystream(&mut buf);
        prop_assert_eq!(buf, data);
    }
}

// ---- TPM wire marshalling ----------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn writer_reader_roundtrip(a in any::<u8>(), b in any::<u16>(), c in any::<u32>(),
                               blob in proptest::collection::vec(any::<u8>(), 0..100)) {
        let mut w = Writer::new();
        w.u8(a).u16(b).u32(c).sized_u32(&blob).sized_u16(&blob);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        prop_assert_eq!(r.u8().unwrap(), a);
        prop_assert_eq!(r.u16().unwrap(), b);
        prop_assert_eq!(r.u32().unwrap(), c);
        prop_assert_eq!(r.sized_u32().unwrap(), blob.as_slice());
        prop_assert_eq!(r.sized_u16().unwrap(), blob.as_slice());
        prop_assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn pcr_selection_roundtrip(indices in proptest::collection::btree_set(0usize..24, 0..24)) {
        let v: Vec<usize> = indices.iter().copied().collect();
        let sel = PcrSelection::of(&v);
        let enc = sel.encode();
        let (dec, used) = PcrSelection::decode(&enc).unwrap();
        prop_assert_eq!(used, enc.len());
        prop_assert_eq!(dec, sel);
        prop_assert_eq!(dec.indices(), v);
    }

    #[test]
    fn envelope_roundtrip(domain in any::<u32>(), instance in any::<u32>(), seq in any::<u64>(),
                          locality in 0u8..5, tagged in any::<bool>(),
                          cmd in proptest::collection::vec(any::<u8>(), 0..200)) {
        let e = Envelope {
            domain, instance, seq, locality,
            tag: if tagged { Some([7; 32]) } else { None },
            command: cmd,
        };
        prop_assert_eq!(Envelope::decode(&e.encode()).unwrap(), e);
    }

    #[test]
    fn envelope_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = Envelope::decode(&bytes);
        let _ = ResponseEnvelope::decode(&bytes);
    }

    #[test]
    fn response_envelope_roundtrip(seq in any::<u64>(),
                                   body in proptest::collection::vec(any::<u8>(), 0..100)) {
        let r = ResponseEnvelope { seq, status: ResponseStatus::Ok, body };
        prop_assert_eq!(ResponseEnvelope::decode(&r.encode()).unwrap(), r);
    }
}

// ---- shared ring under arbitrary message sequences -----------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ring_fifo_under_arbitrary_traffic(
        msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..400), 1..30)
    ) {
        let mut mem = MachineMemory::new(3);
        let mfns = mem.alloc_frames(DomainId(1), 2).unwrap();
        let ring = ByteRing::new(PageRegion::new(mfns)).unwrap();
        ring.init(&mut mem).unwrap();

        // Interleave writes and reads; whenever the ring is full, drain one.
        let mut expect = std::collections::VecDeque::new();
        for (i, msg) in msgs.iter().enumerate() {
            loop {
                match ring.write_msg(&mut mem, RingDir::FrontToBack, i as u32, msg) {
                    Ok(()) => { expect.push_back((i as u32, msg.clone())); break; }
                    Err(vtpm_xen::xen::XenError::RingFull) => {
                        let got = ring.read_msg(&mut mem, RingDir::FrontToBack).unwrap().unwrap();
                        let want = expect.pop_front().unwrap();
                        prop_assert_eq!(got, want);
                    }
                    Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                }
            }
        }
        while let Some(got) = ring.read_msg(&mut mem, RingDir::FrontToBack).unwrap() {
            let want = expect.pop_front().unwrap();
            prop_assert_eq!(got, want);
        }
        prop_assert!(expect.is_empty());
    }
}

// ---- policy language: parse is total over generated rule sets -------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn policy_generated_rules_parse_and_decide(
        rules in proptest::collection::vec((any::<bool>(), 0u32..8, 0usize..10), 0..40),
        default_allow in any::<bool>(),
        query_dom in 0u32..8,
    ) {
        use vtpm_xen::access_control::PolicyEngine;
        const GROUPS: [&str; 10] = ["owner", "nv-admin", "nv", "pcr", "sealing",
                                    "attestation", "keys", "session", "random", "other"];
        let mut text = String::new();
        for (allow, dom, group) in &rules {
            text.push_str(&format!(
                "{} dom {} group {}\n",
                if *allow { "allow" } else { "deny" },
                dom,
                GROUPS[*group],
            ));
        }
        text.push_str(if default_allow { "default allow\n" } else { "default deny\n" });
        let engine = PolicyEngine::parse(&text).unwrap();
        prop_assert_eq!(engine.rule_count(), rules.len());
        // Decisions are deterministic and cache-consistent.
        for ord in [0x17u32, 0x16, 0x46, 0x0D] {
            let d1 = engine.check(query_dom, ord);
            prop_assert_eq!(d1, engine.check_uncached(query_dom, ord));
            prop_assert_eq!(d1, engine.check(query_dom, ord));
        }
    }
}

// ---- seal/unseal over arbitrary payloads ---------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn seal_unseal_arbitrary_payloads(data in proptest::collection::vec(any::<u8>(), 0..40)) {
        use vtpm_xen::tpm12::{DirectTransport, Tpm, TpmClient, handle};
        let mut tpm = Tpm::new(b"prop-seal");
        let mut c = TpmClient::new(DirectTransport { tpm: &mut tpm, locality: 0 }, b"c");
        c.startup_clear().unwrap();
        c.take_ownership(&[1; 20], &[2; 20]).unwrap();
        let blob = c.seal(handle::SRK, &[2; 20], &[3; 20], None, &data).unwrap();
        prop_assert_eq!(c.unseal(handle::SRK, &[2; 20], &[3; 20], &blob).unwrap(), data);
    }
}

// ---- robustness: untrusted-input parsers never panic -----------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn blob_decoders_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        use vtpm_xen::tpm12::{KeyBlob, SealedBlob};
        use vtpm_xen::vtpm_stack::MigrationPackage;
        let _ = KeyBlob::decode(&bytes);
        let _ = SealedBlob::decode(&bytes);
        let _ = MigrationPackage::decode(&bytes);
        let _ = PcrSelection::decode(&bytes);
    }

    #[test]
    fn migration_package_roundtrips_and_rejects_trailing_bytes(
        state in proptest::collection::vec(any::<u8>(), 0..200),
        enc_session_key in proptest::collection::vec(any::<u8>(), 0..160),
        nonce_bytes in proptest::collection::vec(any::<u8>(), 8..9),
        ciphertext in proptest::collection::vec(any::<u8>(), 0..200),
        digest_bytes in proptest::collection::vec(any::<u8>(), 32..33),
        trailer in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        use vtpm_xen::vtpm_stack::MigrationPackage;
        let nonce: [u8; 8] = nonce_bytes.try_into().unwrap();
        let digest: [u8; 32] = digest_bytes.try_into().unwrap();
        let packages = [
            MigrationPackage::Clear(state),
            MigrationPackage::Sealed { enc_session_key, nonce, ciphertext, digest },
        ];
        for p in packages {
            let wire = p.encode();
            // A package is a complete wire object: it round-trips, and
            // any appended bytes make the whole blob malformed.
            prop_assert_eq!(MigrationPackage::decode(&wire).as_ref(), Ok(&p));
            let mut padded = wire;
            padded.extend_from_slice(&trailer);
            prop_assert!(MigrationPackage::decode(&padded).is_err());
        }
    }
}

// ---- TPM blob codecs: round trip, canonical form, framing ----------------------

/// A PCR binding: any selection, any digest-at-release.
fn bound_pcr_binding() -> impl Strategy<Value = (PcrSelection, [u8; 20])> {
    use proptest::array::{uniform20, uniform4};
    (uniform4(any::<u8>()), uniform20(any::<u8>())).prop_map(|(bits, digest)| {
        (PcrSelection::decode(&[0, 3, bits[0], bits[1], bits[2]]).unwrap().0, digest)
    })
}

/// An optional PCR binding.
fn pcr_binding() -> impl Strategy<Value = Option<(PcrSelection, [u8; 20])>> {
    (any::<bool>(), bound_pcr_binding()).prop_map(|(present, b)| present.then_some(b))
}

/// Both blob kinds, encoded, from fuzzable fields.
fn blob_wires(
    usage: u8,
    n: Vec<u8>,
    binding: Option<(PcrSelection, [u8; 20])>,
    enc: Vec<u8>,
) -> [Vec<u8>; 2] {
    use vtpm_xen::tpm12::{KeyBlob, KeyUsage, SealedBlob};
    let usage = [KeyUsage::Signing, KeyUsage::Storage, KeyUsage::Binding, KeyUsage::Legacy]
        [usage as usize % 4];
    let key = KeyBlob { usage, n, pcr_binding: binding, enc_private: enc.clone() };
    let sealed = SealedBlob { pcr_binding: binding, enc_data: enc };
    [key.encode(), sealed.encode()]
}

/// Decode `bytes` as blob kind `kind` (0 = key, 1 = sealed), returning
/// the re-encoding and the bytes consumed.
fn blob_decode(kind: usize, bytes: &[u8]) -> Option<(Vec<u8>, usize)> {
    use vtpm_xen::tpm12::{KeyBlob, SealedBlob};
    match kind {
        0 => KeyBlob::decode(bytes).ok().map(|(b, used)| (b.encode(), used)),
        _ => SealedBlob::decode(bytes).ok().map(|(b, used)| (b.encode(), used)),
    }
}

/// Run `ord` on `tpm` with one OIAP session per secret in `auths`,
/// returning the response code.
fn execute_authorized(
    tpm: &mut vtpm_xen::tpm12::Tpm,
    ord: u32,
    params: &[u8],
    auths: &[[u8; 20]],
) -> u32 {
    use vtpm_xen::tpm12::session::command_auth;
    use vtpm_xen::tpm12::{ordinal, parse_response, tag};
    let tag = if auths.len() == 1 { tag::RQU_AUTH1_COMMAND } else { tag::RQU_AUTH2_COMMAND };
    let mut w = Writer::new();
    w.u16(tag).u32(0).u32(ord).bytes(params);
    for (i, key) in auths.iter().enumerate() {
        let mut oiap = Writer::new();
        oiap.u16(tag::RQU_COMMAND).u32(10).u32(ordinal::OIAP);
        let resp = tpm.execute(0, oiap.as_slice());
        let (_, _, body) = parse_response(&resp).unwrap();
        let mut r = Reader::new(body);
        let handle = r.u32().unwrap();
        let nonce_even = r.digest().unwrap();
        let nonce_odd = [i as u8 + 1; 20];
        let mac = command_auth(key, ord, params, &nonce_even, &nonce_odd, false);
        w.u32(handle).bytes(&nonce_odd).u8(0).bytes(&mac);
    }
    let total = w.len() as u32;
    w.patch_u32(2, total);
    parse_response(&tpm.execute(0, w.as_slice())).unwrap().1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// decode ∘ encode == identity, consuming exactly the encoding.
    #[test]
    fn blob_roundtrip(
        usage in any::<u8>(),
        n in proptest::collection::vec(any::<u8>(), 0..48),
        binding in pcr_binding(),
        enc in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        for (kind, wire) in blob_wires(usage, n, binding, enc).into_iter().enumerate() {
            prop_assert_eq!(blob_decode(kind, &wire), Some((wire.clone(), wire.len())));
        }
    }

    /// Canonical form: whatever decodes re-encodes to the very bytes it
    /// consumed, so two distinct blobs never decode to one. Each byte of
    /// a valid blob in turn is overwritten with `byte`.
    #[test]
    fn blob_decode_is_canonical(
        usage in any::<u8>(),
        n in proptest::collection::vec(any::<u8>(), 0..8),
        binding in pcr_binding(),
        enc in proptest::collection::vec(any::<u8>(), 0..8),
        byte in any::<u8>(),
    ) {
        for (kind, wire) in blob_wires(usage, n, binding, enc).into_iter().enumerate() {
            for at in 0..wire.len() {
                let mut mutated = wire.clone();
                mutated[at] = byte;
                if let Some((re, used)) = blob_decode(kind, &mutated) {
                    prop_assert_eq!(re, mutated[..used].to_vec());
                }
            }
        }
    }

    /// A blob's selection always carries 3 bitmap bytes: the shorter
    /// forms `PcrSelection::decode` accepts in a command parameter are
    /// refused inside a blob.
    #[test]
    fn blob_refuses_a_short_pcr_selection(
        usage in any::<u8>(),
        n in proptest::collection::vec(any::<u8>(), 0..24),
        binding in bound_pcr_binding(),
        enc in proptest::collection::vec(any::<u8>(), 0..24),
        size in 0usize..3,
    ) {
        // The binding starts after usage, sized n and exponent in a key
        // blob, at the front of a sealed blob.
        let offsets = [2 + 4 + n.len() + 4, 0];
        let wires = blob_wires(usage, n, Some(binding), enc);
        for (kind, (wire, at)) in wires.into_iter().zip(offsets).enumerate() {
            // Presence byte, then u16 size 3 and the bitmap.
            prop_assert_eq!(&wire[at..at + 3], &[1, 0, 3]);
            let mut short = wire[..at + 1].to_vec();
            short.extend_from_slice(&(size as u16).to_be_bytes());
            short.extend_from_slice(&wire[at + 3..at + 3 + size]);
            short.extend_from_slice(&wire[at + 6..]);
            prop_assert_eq!(blob_decode(kind, &short), None);
        }
    }

    /// Every strict prefix of a valid blob is rejected; a trailing byte
    /// is left unconsumed (the command handlers refuse it, below).
    #[test]
    fn blob_truncation_rejected_and_trailing_byte_unconsumed(
        usage in any::<u8>(),
        n in proptest::collection::vec(any::<u8>(), 0..24),
        binding in pcr_binding(),
        enc in proptest::collection::vec(any::<u8>(), 0..24),
        tail in any::<u8>(),
    ) {
        for (kind, wire) in blob_wires(usage, n, binding, enc).into_iter().enumerate() {
            for cut in 0..wire.len() {
                prop_assert_eq!(blob_decode(kind, &wire[..cut]), None);
            }
            let mut trailing = wire.clone();
            trailing.push(tail);
            prop_assert_eq!(blob_decode(kind, &trailing), Some((wire.clone(), wire.len())));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// LoadKey2 and Unseal take a blob only if it fills its sized field:
    /// with one trailing byte they answer BAD_PARAMETER, without it they
    /// succeed under the same authorization.
    #[test]
    fn blob_commands_refuse_a_trailing_byte(
        tail in any::<u8>(),
        bound in any::<bool>(),
    ) {
        use vtpm_xen::tpm12::{handle, ordinal, rc, DirectTransport, KeyUsage, Tpm, TpmClient};
        const SRK_AUTH: [u8; 20] = [2; 20];
        const DATA_AUTH: [u8; 20] = [3; 20];
        let mut tpm = Tpm::new(b"prop-blob-trailer");
        let (key, sealed) = {
            let mut c = TpmClient::new(DirectTransport { tpm: &mut tpm, locality: 0 }, b"c");
            c.startup_clear().unwrap();
            c.take_ownership(&[1; 20], &SRK_AUTH).unwrap();
            let sel = PcrSelection::of(&[10]);
            let sel = bound.then_some(&sel);
            let key = c
                .create_wrap_key(handle::SRK, &SRK_AUTH, KeyUsage::Signing, 512, &DATA_AUTH, sel)
                .unwrap();
            (key.encode(), c.seal(handle::SRK, &SRK_AUTH, &DATA_AUTH, sel, b"s").unwrap().encode())
        };
        for (ord, blob, auths) in [
            (ordinal::LOAD_KEY2, key, vec![SRK_AUTH]),
            (ordinal::UNSEAL, sealed, vec![SRK_AUTH, DATA_AUTH]),
        ] {
            let mut padded = blob.clone();
            padded.push(tail);
            for (bytes, expect) in [(padded, rc::BAD_PARAMETER), (blob, rc::SUCCESS)] {
                let mut params = Writer::new();
                params.u32(handle::SRK).sized_u32(&bytes);
                prop_assert_eq!(execute_authorized(&mut tpm, ord, params.as_slice(), &auths), expect);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tpm_execute_never_panics_on_fuzz(
        cmds in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..12),
        locality in 0u8..5,
    ) {
        use vtpm_xen::tpm12::Tpm;
        let mut tpm = Tpm::new(b"fuzz-tpm");
        // Start it so commands reach the dispatcher proper.
        tpm.execute(0, &[0x00, 0xC1, 0, 0, 0, 12, 0, 0, 0, 0x99, 0, 1]);
        for cmd in &cmds {
            let resp = tpm.execute(locality, cmd);
            // Every response parses and carries a code.
            let (_, _code, _) = vtpm_xen::tpm12::parse_response(&resp).unwrap();
        }
    }

    #[test]
    fn tpm_execute_never_panics_on_near_valid_fuzz(
        ord_idx in 0usize..24,
        tag_sel in 0u8..4,
        body in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        // Valid header (tag, size, real ordinal) + arbitrary body: the
        // deepest parser paths.
        use vtpm_xen::tpm12::{ordinal, Tpm};
        const ORDS: [u32; 24] = [
            ordinal::OIAP, ordinal::OSAP, ordinal::TAKE_OWNERSHIP, ordinal::EXTEND,
            ordinal::PCR_READ, ordinal::QUOTE, ordinal::SEAL, ordinal::UNSEAL,
            ordinal::CREATE_WRAP_KEY, ordinal::GET_CAPABILITY, ordinal::LOAD_KEY2,
            ordinal::GET_RANDOM, ordinal::SIGN, ordinal::STARTUP, ordinal::FLUSH_SPECIFIC,
            ordinal::READ_PUBEK, ordinal::OWNER_CLEAR, ordinal::NV_DEFINE_SPACE,
            ordinal::NV_WRITE_VALUE, ordinal::NV_READ_VALUE, ordinal::PCR_RESET,
            ordinal::CREATE_COUNTER, ordinal::INCREMENT_COUNTER, ordinal::READ_COUNTER,
        ];
        let tag: u16 = match tag_sel {
            0 => 0x00C1,
            1 => 0x00C2,
            2 => 0x00C3,
            _ => 0x1234,
        };
        let mut cmd = Vec::with_capacity(10 + body.len());
        cmd.extend_from_slice(&tag.to_be_bytes());
        cmd.extend_from_slice(&((10 + body.len()) as u32).to_be_bytes());
        cmd.extend_from_slice(&ORDS[ord_idx].to_be_bytes());
        cmd.extend_from_slice(&body);
        let mut tpm = Tpm::new(b"fuzz-tpm2");
        tpm.execute(0, &[0x00, 0xC1, 0, 0, 0, 12, 0, 0, 0, 0x99, 0, 1]);
        let resp = tpm.execute(0, &cmd);
        let _ = vtpm_xen::tpm12::parse_response(&resp).unwrap();
    }
}

// ---- TPM state snapshots: untrusted bytes, canonical form ----------------------

/// Snapshots of two real TPMs, built once (RSA keygen is too slow
/// per-case): a fresh unowned one and an owned one with an SRK and a
/// measured PCR. Each holds no NV area and no counter and is cut before
/// its NV count, so a case appends the areas and counters it draws.
fn state_prefixes() -> &'static [Vec<u8>; 2] {
    use std::sync::OnceLock;
    use vtpm_xen::tpm12::{DirectTransport, Tpm, TpmClient, TpmConfig};
    static PREFIXES: OnceLock<[Vec<u8>; 2]> = OnceLock::new();
    PREFIXES.get_or_init(|| {
        let cfg = TpmConfig { root_key_bits: 512, ..TpmConfig::default() };
        let fresh = Tpm::manufacture(b"prop-state-fresh", cfg.clone());
        let mut owned = Tpm::manufacture(b"prop-state-owned", cfg);
        {
            let mut c = TpmClient::new(DirectTransport { tpm: &mut owned, locality: 0 }, b"c");
            c.startup_clear().unwrap();
            c.take_ownership(&[1; 20], &[2; 20]).unwrap();
            c.extend(3, &[0x33; 20]).unwrap();
        }
        [fresh, owned].map(|tpm| {
            let snap = tpm.serialize_state();
            let (prefix, counts) = snap.split_at(snap.len() - 8);
            assert_eq!(counts, [0; 8], "no NV area and no counter");
            prefix.to_vec()
        })
    })
}

/// An NV area: index, the four attribute flags as bits, an optional PCR
/// binding, and its data.
type StateArea = (u32, u8, Option<(PcrSelection, [u8; 20])>, Vec<u8>);
/// A counter: handle, value, auth, label.
type StateCounter = (u32, u32, [u8; 20], [u8; 4]);

fn state_area() -> impl Strategy<Value = StateArea> {
    (any::<u32>(), 0u8..16, pcr_binding(), proptest::collection::vec(any::<u8>(), 0..12))
}

fn state_counter() -> impl Strategy<Value = StateCounter> {
    use proptest::array::{uniform20, uniform4};
    (any::<u32>(), any::<u32>(), uniform20(any::<u8>()), uniform4(any::<u8>()))
}

/// A snapshot in the layout `Tpm::serialize_state` writes: `prefix`, then
/// the areas and counters in ascending index/handle order, one per index
/// or handle.
fn state_snapshot(
    prefix: &[u8],
    mut areas: Vec<StateArea>,
    mut counters: Vec<StateCounter>,
) -> Vec<u8> {
    areas.sort_by_key(|a| a.0);
    areas.dedup_by_key(|a| a.0);
    counters.sort_by_key(|c| c.0);
    counters.dedup_by_key(|c| c.0);
    let mut w = Writer::new();
    w.bytes(prefix).u32(areas.len() as u32);
    for (index, flags, binding, data) in &areas {
        w.u32(*index).u32(data.len() as u32);
        for bit in 0..4 {
            w.u8(flags >> bit & 1);
        }
        match binding {
            Some((sel, digest)) => w.u8(1).bytes(&sel.encode()).bytes(digest),
            None => w.u8(0),
        };
        w.sized_u32(data);
    }
    w.u32(counters.len() as u32);
    for (handle, value, auth, label) in &counters {
        w.u32(*handle).u32(*value).bytes(auth).bytes(label);
    }
    w.into_vec()
}

/// Restore `bytes`; when they decode, they must re-serialize to
/// themselves.
fn restore_canonical(bytes: &[u8]) -> Result<bool, TestCaseError> {
    use vtpm_xen::tpm12::{Tpm, TpmConfig};
    match Tpm::restore_state(bytes, b"prop-state", TpmConfig::default()) {
        Ok(tpm) => {
            prop_assert_eq!(tpm.serialize_state(), bytes.to_vec());
            Ok(true)
        }
        Err(_) => Ok(false),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A snapshot in the serialized layout restores and re-serializes to
    /// the same bytes, unless a counter sits at handle `u32::MAX` (no
    /// handle can follow it): that one is refused, never a panic.
    #[test]
    fn state_restore_roundtrip(
        owned in any::<bool>(),
        areas in proptest::collection::vec(state_area(), 0..4),
        counters in proptest::collection::vec(state_counter(), 0..4),
    ) {
        let last_handle = counters.iter().any(|c| c.0 == u32::MAX);
        let snap = state_snapshot(&state_prefixes()[owned as usize], areas, counters);
        prop_assert_eq!(restore_canonical(&snap)?, !last_handle);
    }

    /// Arbitrary bytes never panic the decoder, and whatever decodes is
    /// canonical. The bytes follow one of three heads (none, the magic,
    /// or the valid head of a snapshot) and come as big-endian words, half
    /// of them 0 or 1, so counts and flags often land on values the
    /// decoder must judge, then up to 3 loose bytes.
    #[test]
    fn state_restore_never_panics_on_arbitrary_bytes(
        head in 0usize..4,
        words in proptest::collection::vec(
            (0u32..4, any::<u32>()).prop_map(|(k, w)| if k < 2 { k } else { w }),
            0..160,
        ),
        tail in proptest::collection::vec(any::<u8>(), 0..4),
    ) {
        let mut bytes = match head {
            0 => Vec::new(),
            1 => b"VTS1".to_vec(),
            _ => state_prefixes()[head - 2].clone(),
        };
        for w in &words {
            bytes.extend_from_slice(&w.to_be_bytes());
        }
        bytes.extend_from_slice(&tail);
        restore_canonical(&bytes)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Canonical form under mutation: each byte of a valid snapshot in
    /// turn is overwritten with `byte`, and each is deleted; no mutation
    /// panics, and any that decodes re-serializes byte-identically (so a
    /// flag byte of 2, a padded key integer or a short PCR selection is
    /// refused, not normalized).
    #[test]
    fn state_restore_is_canonical_under_mutation(
        owned in any::<bool>(),
        areas in proptest::collection::vec(state_area(), 0..3),
        counters in proptest::collection::vec(state_counter(), 0..3),
        byte in any::<u8>(),
    ) {
        let snap = state_snapshot(&state_prefixes()[owned as usize], areas, counters);
        for at in 0..snap.len() {
            let mut mutated = snap.clone();
            mutated[at] = byte;
            restore_canonical(&mutated)?;
            mutated.remove(at);
            restore_canonical(&mutated)?;
        }
    }

    /// Framing: every strict prefix of a valid snapshot and the snapshot
    /// with one trailing byte are refused.
    #[test]
    fn state_restore_refuses_truncation_and_a_trailing_byte(
        owned in any::<bool>(),
        areas in proptest::collection::vec(state_area(), 0..3),
        counters in proptest::collection::vec(state_counter(), 0..3),
        tail in any::<u8>(),
    ) {
        let counters: Vec<_> = counters.into_iter().filter(|c| c.0 != u32::MAX).collect();
        let snap = state_snapshot(&state_prefixes()[owned as usize], areas, counters);
        prop_assert!(restore_canonical(&snap)?);
        for cut in 0..snap.len() {
            prop_assert!(!restore_canonical(&snap[..cut])?);
        }
        let mut trailing = snap;
        trailing.push(tail);
        prop_assert!(!restore_canonical(&trailing)?);
    }
}

// ---- mirror hygiene under random mutation sequences ------------------------------

fn dump_dom0(hv: &vtpm_xen::xen::Hypervisor) -> Vec<u8> {
    let mut dump = Vec::new();
    for (_, _, page) in hv.dump_memory(DomainId::DOM0).unwrap() {
        dump.extend_from_slice(&page[..]);
    }
    dump
}

fn chaos_manager(
    mode: vtpm_xen::vtpm_stack::MirrorMode,
    seed: &[u8],
) -> (std::sync::Arc<vtpm_xen::xen::Hypervisor>, vtpm_xen::vtpm_stack::VtpmManager) {
    use vtpm_xen::vtpm_stack::{ManagerConfig, VtpmManager};
    use vtpm_xen::xen::Hypervisor;
    let hv = std::sync::Arc::new(Hypervisor::boot(4096, 8).unwrap());
    let mgr = VtpmManager::new(
        std::sync::Arc::clone(&hv),
        seed,
        ManagerConfig {
            mirror_mode: mode,
            vtpm_config: vtpm_xen::tpm12::TpmConfig { nv_budget: 32 * 1024, ..Default::default() },
            ..Default::default()
        },
    )
    .unwrap();
    (hv, mgr)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random extend / NV-provision / NV-release / reboot sequences, in
    /// Encrypted mode with the CTR nonce audit armed: no (page, counter)
    /// nonce pair is ever consumed twice, whatever the resize pattern.
    #[test]
    fn mirror_nonces_never_repeat_under_random_mutation(
        ops in proptest::collection::vec((0u8..4, any::<u8>(), 1u16..6000), 1..24),
    ) {
        use vtpm_xen::bench_workload::trace::apply_to_tpm;
        use vtpm_xen::bench_workload::TraceEvent;
        use vtpm_xen::vtpm_stack::MirrorMode;

        let (_hv, mgr) = chaos_manager(MirrorMode::Encrypted, b"prop-nonce");
        mgr.enable_nonce_audit();
        let id = mgr.create_instance().unwrap();
        mgr.with_instance(id, |i| apply_to_tpm(&mut i.tpm, &TraceEvent::Startup)).unwrap();
        for (kind, b, len) in &ops {
            let ev = match kind {
                0 => TraceEvent::Extend { pcr: (*b % 16) as u32, digest: [*b; 20] },
                1 => TraceEvent::ProvisionNv {
                    index: 0x0100 + (*b % 6) as u32,
                    fill: *b,
                    len: *len,
                },
                2 => TraceEvent::ReleaseNv { index: 0x0100 + (*b % 6) as u32 },
                _ => TraceEvent::Startup,
            };
            mgr.with_instance(id, |i| apply_to_tpm(&mut i.tpm, &ev)).unwrap();
        }
        prop_assert_eq!(mgr.nonce_reuses(), 0);
    }

    /// After an NV area is released (the serialized image shrinks), a
    /// full Dom0 dump contains no run of the area's fill bytes: dropped
    /// pages of prior image generations are scrubbed, not just unlinked.
    #[test]
    fn shrink_leaves_no_prior_generation_bytes_in_dump(
        fill in 1u8..=255,
        pages in 2usize..5,
        encrypted in any::<bool>(),
    ) {
        use vtpm_xen::bench_workload::trace::apply_to_tpm;
        use vtpm_xen::bench_workload::TraceEvent;
        use vtpm_xen::vtpm_stack::MirrorMode;

        let mode = if encrypted { MirrorMode::Encrypted } else { MirrorMode::Cleartext };
        let (hv, mgr) = chaos_manager(mode, b"prop-shrink");
        let id = mgr.create_instance().unwrap();
        mgr.with_instance(id, |i| apply_to_tpm(&mut i.tpm, &TraceEvent::Startup)).unwrap();
        mgr.with_instance(id, |i| {
            i.tpm.provision_nv(0x70, &vec![fill; pages * 4096]).unwrap();
        })
        .unwrap();
        mgr.with_instance(id, |i| i.tpm.release_nv(0x70).unwrap()).unwrap();

        let probe = vec![fill; 64];
        let dump = dump_dom0(&hv);
        prop_assert!(
            !dump.windows(probe.len()).any(|w| w == &probe[..]),
            "fill byte {fill:#x} from a released {pages}-page NV area survived in the dump"
        );
        // The shrunken image is still coherent.
        let image = mgr.resident_image(id).unwrap();
        prop_assert_eq!(image, mgr.export_instance_state(id).unwrap());
    }
}

// ---- migration package robustness ------------------------------------------------

/// A valid sealed package, the destination hardware TPM it is bound to,
/// and its plaintext, built once (EK generation is too slow per-case).
fn sealed_fixture() -> &'static (vtpm_xen::vtpm_stack::MigrationPackage, Tpm, Vec<u8>) {
    use std::sync::OnceLock;
    static FIXTURE: OnceLock<(vtpm_xen::vtpm_stack::MigrationPackage, Tpm, Vec<u8>)> =
        OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dst = Tpm::new(b"prop-mig-ek");
        let mut rng = Drbg::new(b"prop-mig-session");
        let state: Vec<u8> = (0..700u32).map(|i| (i * 31 % 251) as u8).collect();
        let pkg =
            vtpm_xen::vtpm_stack::migration::package_sealed(&state, &dst.ek_public(), &mut rng);
        (pkg, dst, state)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Decoding + opening arbitrary mutations of a real sealed package
    /// never panics, and no single-byte corruption ever opens.
    #[test]
    fn mutated_sealed_packages_never_open(
        flip_at in any::<u16>(),
        flip_bit in 0u8..8,
        truncate_at in any::<u16>(),
    ) {
        use vtpm_xen::vtpm_stack::MigrationPackage;
        let (pkg, dst, state) = sealed_fixture();
        let good = pkg.encode();

        // Truncation: decode must reject or the opened result must be an
        // error — a short read can never produce the original state.
        let t = truncate_at as usize % good.len();
        if let Ok(p) = MigrationPackage::decode(&good[..t]) {
            prop_assert!(vtpm_xen::vtpm_stack::migration::open_package(&p, dst).is_err());
        }

        // Single-bit corruption anywhere in the package: every byte of a
        // sealed package is load-bearing, so opening must fail.
        let mut bad = good.clone();
        let at = flip_at as usize % bad.len();
        bad[at] ^= 1 << flip_bit;
        if let Ok(p) = MigrationPackage::decode(&bad) {
            match vtpm_xen::vtpm_stack::migration::open_package(&p, dst) {
                Ok(opened) => prop_assert_ne!(
                    opened, state.clone(),
                    "corrupted package opened to the original state"
                ),
                Err(_) => {}
            }
        }
    }
}

// ---- telemetry histogram merge ----------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Folding one log-linear histogram into another is indistinguishable
    /// from recording every value into a single histogram: count, sum and
    /// max combine losslessly, and every reported quantile stays within
    /// the structural <= 1/16 relative-error bound of the true quantile
    /// of the combined value multiset. This is the invariant the cluster
    /// roll-up (per-host histograms merged into one view) depends on.
    #[test]
    fn histogram_merge_conserves_mass_and_error_bound(
        xs in proptest::collection::vec(any::<u64>(), 0..300),
        ys in proptest::collection::vec(any::<u64>(), 0..300),
    ) {
        use vtpm_xen::telemetry::Histogram;

        let a = Histogram::new();
        let b = Histogram::new();
        let whole = Histogram::new();
        for &v in &xs {
            a.record(v);
            whole.record(v);
        }
        for &v in &ys {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        let merged = a.snapshot();

        // Merge == single-histogram recording, bit for bit.
        prop_assert_eq!(merged, whole.snapshot());

        // Mass conservation against ground truth (sum wraps like the
        // underlying atomic counter does).
        prop_assert_eq!(merged.count, (xs.len() + ys.len()) as u64);
        let true_sum = xs.iter().chain(&ys).fold(0u64, |acc, &v| acc.wrapping_add(v));
        prop_assert_eq!(merged.sum, true_sum);
        prop_assert_eq!(merged.max, xs.iter().chain(&ys).copied().max().unwrap_or(0));

        // Each quantile of the merged histogram is within 1/16 relative
        // error of the true order statistic at the same rank (exact in
        // the linear range).
        let mut all: Vec<u64> = xs.iter().chain(&ys).copied().collect();
        all.sort_unstable();
        if !all.is_empty() {
            for (q, got) in [(0.50, merged.p50), (0.90, merged.p90),
                             (0.99, merged.p99), (0.999, merged.p999)] {
                let rank = ((q * all.len() as f64).ceil() as usize).max(1);
                let want = all[rank - 1];
                if want < 16 {
                    prop_assert_eq!(got, want, "q{} exact below linear max", q);
                } else {
                    let err = (got as f64 - want as f64).abs() / want as f64;
                    prop_assert!(
                        err <= 1.0 / 16.0 + 1e-9,
                        "q{}: got {}, want {}, relative error {}", q, got, want, err
                    );
                }
            }
        }
    }
}

// ---- DRBG determinism -----------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn drbg_chunking_invariant(seed in proptest::collection::vec(any::<u8>(), 0..32),
                               chunks in proptest::collection::vec(1usize..50, 1..8)) {
        let total: usize = chunks.iter().sum();
        let mut a = Drbg::new(&seed);
        let bulk = a.bytes(total);
        let mut b = Drbg::new(&seed);
        let mut pieced = Vec::new();
        for c in &chunks {
            pieced.extend(b.bytes(*c));
        }
        prop_assert_eq!(bulk, pieced);
    }
}

// ---- AC4 audit log: the stored form round-trips -----------------------------

use vtpm_xen::access_control::{AuditEntry, AuditLog, AuditOutcome, MigrationStage};
use vtpm_xen::vtpm_stack::DenyReason;

/// Every outcome the log can record: allow, each deny reason, each
/// migration stage.
fn audit_outcomes() -> Vec<AuditOutcome> {
    use DenyReason::*;
    use MigrationStage::*;
    let mut all = vec![AuditOutcome::Allowed];
    all.extend(
        [
            NoCredential,
            BadTag,
            Replay,
            BindingMismatch,
            OrdinalDenied,
            SourceMismatch,
            LocalityDenied,
            StaleQuote,
            QuoteReplay,
        ]
        .map(AuditOutcome::Denied),
    );
    all.extend(
        [Prepared, Quiesced, Transferred, Verified, Committed, Released, Aborted, RejectedStale]
            .map(AuditOutcome::Migration),
    );
    all
}

/// One generated record: timestamp, request id, (domain, instance,
/// ordinal), and an index into [`audit_outcomes`].
type AuditRecord = (u64, u64, (u32, u32, u32), usize);

/// The entries a log of `records` must export, built independently of
/// the log: `chain_i = SHA256(chain_{i-1} ‖ material_i)` with the
/// 37-byte big-endian material and outcome code.
fn reference_entries(records: &[AuditRecord]) -> Vec<AuditEntry> {
    use vtpm_xen::crypto::{sha256::Sha256, Digest};
    let outcomes = audit_outcomes();
    let mut prev = [0u8; 32];
    let mut out = Vec::new();
    for (i, &(timestamp_ns, request_id, (domain, instance, ordinal), o)) in
        records.iter().enumerate()
    {
        let outcome = outcomes[o];
        let code = match outcome {
            AuditOutcome::Allowed => 0,
            AuditOutcome::Denied(r) => 1 + r as u8,
            AuditOutcome::Migration(s) => 32 + s as u8,
        };
        let mut h = Sha256::new();
        h.update(&prev);
        h.update(&(i as u64).to_be_bytes());
        h.update(&timestamp_ns.to_be_bytes());
        h.update(&request_id.to_be_bytes());
        h.update(&domain.to_be_bytes());
        h.update(&instance.to_be_bytes());
        h.update(&ordinal.to_be_bytes());
        h.update(&[code]);
        h.finalize_into(&mut prev);
        out.push(AuditEntry {
            index: i as u64,
            timestamp_ns,
            request_id,
            domain,
            instance,
            ordinal,
            outcome,
            chain: prev,
        });
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn audit_log_round_trips_arbitrary_records(
        records in proptest::collection::vec(
            (any::<u64>(), any::<u64>(), (any::<u32>(), any::<u32>(), any::<u32>()), 0usize..18),
            0..600,
        ),
    ) {
        let log = AuditLog::new();
        let outcomes = audit_outcomes();
        for &(t, id, (d, i, ord), o) in &records {
            log.record(t, id, d, i, ord, outcomes[o]);
        }
        let want = reference_entries(&records);
        let got = log.entries();
        prop_assert_eq!(&got, &want);
        prop_assert!(AuditLog::verify(&got));
        for k in 0..=records.len() + 1 {
            prop_assert_eq!(log.entries_since(k), want[k.min(want.len())..].to_vec());
        }
        prop_assert_eq!(log.head(), want.last().map_or([0; 32], |e| e.chain));
        let denials = want.iter().filter(|e| matches!(e.outcome, AuditOutcome::Denied(_))).count();
        prop_assert_eq!(log.denials(), denials);
        prop_assert_eq!(log.len(), records.len());
    }
}
