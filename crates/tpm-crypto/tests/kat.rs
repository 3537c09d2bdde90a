//! Known-answer tests (NIST CAVP / FIPS / RFC vectors) for every
//! primitive in `tpm-crypto`, run against **both** implementations
//! wherever two exist: the optimized default path and the retained
//! scalar reference. The optimization PR's contract is "no output byte
//! changes"; this file is where that contract is pinned to published
//! answers rather than to the code's own history.

use tpm_crypto::aes::{Aes128, Aes256, AesCtr, AesCtr256};
use tpm_crypto::hash::{sha1, sha256, Digest};
use tpm_crypto::hmac::Hmac;
use tpm_crypto::sha1::Sha1;
use tpm_crypto::sha256::Sha256;
use tpm_crypto::{Drbg, KeygenWork, RsaPrivateKey};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

// ---------------------------------------------------------------- SHA-1

/// FIPS 180-4 / CAVP SHA-1 short- and long-message vectors.
#[test]
fn sha1_cavp_vectors() {
    let cases: &[(&[u8], &str)] = &[
        (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
        (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
        ),
        (
            b"The quick brown fox jumps over the lazy dog",
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12",
        ),
    ];
    for (msg, want) in cases {
        assert_eq!(hex(&sha1(msg)), *want);
    }
}

#[test]
fn sha1_million_a() {
    let data = vec![b'a'; 1_000_000];
    assert_eq!(hex(&sha1(&data)), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

// -------------------------------------------------------------- SHA-256

/// FIPS 180-4 / CAVP SHA-256 vectors.
#[test]
fn sha256_cavp_vectors() {
    let cases: &[(&[u8], &str)] = &[
        (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            b"The quick brown fox jumps over the lazy dog",
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592",
        ),
    ];
    for (msg, want) in cases {
        assert_eq!(hex(&sha256(msg)), *want);
    }
}

#[test]
fn sha256_million_a() {
    let data = vec![b'a'; 1_000_000];
    assert_eq!(
        hex(&sha256(&data)),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    );
}

/// The same message fed in every possible two-part split, plus some
/// byte-at-a-time and odd-chunk schedules, must match the one-shot: the
/// direct-padding `finalize_into` may never observe the chunking.
#[test]
fn sha256_streaming_splits_match_oneshot() {
    let msg = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
    let want = "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1";
    for split in 0..=msg.len() {
        let mut h = Sha256::new();
        h.update(&msg[..split]);
        h.update(&msg[split..]);
        assert_eq!(hex(&h.finalize()), want, "split at {split}");
    }
    // Byte-at-a-time.
    let mut h = Sha256::new();
    for b in msg {
        h.update(std::slice::from_ref(b));
    }
    assert_eq!(hex(&h.finalize()), want);
    // Three-way ragged splits crossing the 64-byte block boundary.
    let long: Vec<u8> = (0..200u16).map(|i| i as u8).collect();
    let oneshot = sha256(&long);
    for (a, b) in [(1, 63), (63, 1), (64, 64), (5, 120), (63, 2)] {
        let mut h = Sha256::new();
        h.update(&long[..a]);
        h.update(&long[a..a + b]);
        h.update(&long[a + b..]);
        let mut out = [0u8; 32];
        h.finalize_into(&mut out);
        assert_eq!(out, oneshot, "splits {a}/{b}");
    }
}

#[test]
fn sha1_streaming_splits_match_oneshot() {
    let msg = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
    let want = "84983e441c3bd26ebaae4aa1f95129e5e54670f1";
    for split in 0..=msg.len() {
        let mut h = Sha1::new();
        h.update(&msg[..split]);
        h.update(&msg[split..]);
        assert_eq!(hex(&h.finalize()), want, "split at {split}");
    }
}

/// Padding-boundary regression (the old `finalize` padded with per-byte
/// `update` calls; the rewrite pads in place): message lengths sitting
/// exactly at the 0 / 55 / 56 / 63 / 64 / 65-byte edges, where the
/// padding either just fits (≤55), forces an extra block (56..=63), or
/// starts a fresh block (64). Expected digests computed with a third
/// party implementation (Python `hashlib`).
#[test]
fn sha_block_boundary_lengths() {
    // (len, sha256, sha1) over the pattern byte[i] = (7 i + 3) mod 256.
    let cases: &[(usize, &str, &str)] = &[
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
        (1, "084fed08b978af4d7d196a7446a86b58009e636b611db16211b65a9aadff29c5",
            "9842926af7ca0a8cca12604f945414f07b01e13d"),
        (55, "e7313d333c272e639f790978283f9eb392e843d0f29b7016828bb1daa4aac70b",
            "ddf57317ef34bfee3b6df83d359098930eb278bc"),
        (56, "4324d65f3c103567f5589c710bc08f8523f929a9272e3af36fc968e52abc6c27",
            "a0d492bb0fc889d0eca3bc137066ab6f4f74f369"),
        (63, "81c80242132f230c3bd41b3e63bbcff16107339549214a99614ff26664625055",
            "c55856749bef509bdfe6bfebfc7bf4e793e82132"),
        (64, "39e3d7b6b5d075d37d053ad89b24b41bef4f3c29760c84447cab3f3be1882241",
            "bede92be29c3874e1b54ddc77988d606fc857a8e"),
        (65, "aacca6ff74fdbb296d165a45cecfa04e5127bc008770fbbdd48006f2d2fae95e",
            "b05a80522b053d6dc7e0a517d0e70212c7dad11f"),
        (119, "9ce7368e4daf32341631b492e80359dc9f594b48453cd0dd5bf0b19279cc177e",
            "504e27376a6e0f0dba8295b85cb25dc4dfa17d23"),
        (120, "7836b787757e95e58b3ca5aec90b1b004e8deba1e50e9675af9cabf1a13a04b5",
            "82134b02fb3f702491be9bed581eeab59334acb2"),
        (127, "a8d23e75d936f303d248888d9b165ee543f4cbafcad3c9dd2a79bd84faa11d07",
            "34d5e582029e9b9b85b2febe31da3db7cdabaaea"),
        (128, "d2742f1f4ac6bb7ca2b239ee18402ba8b3f9f8e652d2a72973c2b9ba11c08cf6",
            "a09133e6730ffe899efb70204cb5646cd5dc24ee"),
    ];
    for &(len, want256, want1) in cases {
        let msg: Vec<u8> = (0..len).map(|i| ((i * 7 + 3) % 256) as u8).collect();
        assert_eq!(hex(&sha256(&msg)), want256, "sha256 len {len}");
        assert_eq!(hex(&sha1(&msg)), want1, "sha1 len {len}");
        // The streaming path must agree with the one-shot at the same edges.
        let mut h = Sha256::new();
        h.update(&msg);
        assert_eq!(hex(&h.finalize()), want256, "streaming sha256 len {len}");
    }
}

// ---------------------------------------------------------- HMAC-SHA256

/// RFC 4231 HMAC-SHA256 test cases 1–4, 6, 7 (5 is a truncated-output
/// case this API does not expose).
#[test]
fn hmac_sha256_rfc4231() {
    let tc: &[(Vec<u8>, Vec<u8>, &str)] = &[
        (
            vec![0x0b; 20],
            b"Hi There".to_vec(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        ),
        (
            b"Jefe".to_vec(),
            b"what do ya want for nothing?".to_vec(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        ),
        (
            vec![0xaa; 20],
            vec![0xdd; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        ),
        (
            (1..=25u8).collect(),
            vec![0xcd; 50],
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
        ),
        (
            vec![0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        ),
        (
            vec![0xaa; 131],
            b"This is a test using a larger than block-size key and a larger than \
              block-size data. The key needs to be hashed before being used by the \
              HMAC algorithm."
                .to_vec(),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
        ),
    ];
    for (i, (key, data, want)) in tc.iter().enumerate() {
        assert_eq!(hex(&Hmac::<Sha256>::mac(key, data)), *want, "RFC 4231 case {}", i + 1);
        // Streamed in two halves through the same state machine.
        let mut h = Hmac::<Sha256>::new(key);
        let mid = data.len() / 2;
        h.update(&data[..mid]);
        h.update(&data[mid..]);
        assert_eq!(hex(&h.finalize()), *want, "streamed RFC 4231 case {}", i + 1);
    }
}

// ----------------------------------------------------------- AES (ECB)

/// SP 800-38A F.1.1: AES-128 ECB encryption, all four blocks, on both
/// the T-table and scalar paths.
#[test]
fn aes128_ecb_sp800_38a() {
    let key: [u8; 16] = unhex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
    let cipher = Aes128::new(&key);
    let cases = [
        ("6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97"),
        ("ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf"),
        ("30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688"),
        ("f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4"),
    ];
    for (plain, want) in cases {
        let mut t: [u8; 16] = unhex(plain).try_into().unwrap();
        let mut s = t;
        cipher.encrypt_block(&mut t);
        cipher.encrypt_block_scalar(&mut s);
        assert_eq!(hex(&t), want, "t-table {plain}");
        assert_eq!(hex(&s), want, "scalar {plain}");
    }
}

/// SP 800-38A F.1.5: AES-256 ECB encryption, both paths.
#[test]
fn aes256_ecb_sp800_38a() {
    let key: [u8; 32] =
        unhex("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4")
            .try_into()
            .unwrap();
    let cipher = Aes256::new(&key);
    let cases = [
        ("6bc1bee22e409f96e93d7e117393172a", "f3eed1bdb5d2a03c064b5a7e3db181f8"),
        ("ae2d8a571e03ac9c9eb76fac45af8e51", "591ccb10d410ed26dc5ba74a31362870"),
        ("30c81c46a35ce411e5fbc1191a0a52ef", "b6ed21b99ca6f4f9f153e7b1beafed1d"),
        ("f69f2445df4f9b17ad2b417be66c3710", "23304b7a39f9f3ff067d8d8f9e24ecc7"),
    ];
    for (plain, want) in cases {
        let mut t: [u8; 16] = unhex(plain).try_into().unwrap();
        let mut s = t;
        cipher.encrypt_block(&mut t);
        cipher.encrypt_block_scalar(&mut s);
        assert_eq!(hex(&t), want, "t-table {plain}");
        assert_eq!(hex(&s), want, "scalar {plain}");
    }
}

// ----------------------------------------------------------- AES (CTR)

/// The SP 800-38A CTR vectors use the 128-bit initial counter block
/// `f0f1f2f3f4f5f6f7 f8f9fafbfcfdfeff`. In this crate's split layout
/// that is nonce `f0..f7` with the block counter starting at
/// `0xf8f9fafbfcfdfeff`; no carry crosses the 64-bit boundary within
/// four blocks, so the mapping is exact.
const CTR_NONCE: [u8; 8] = [0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7];
const CTR_START: u64 = 0xf8f9_fafb_fcfd_feff;

const CTR_PLAIN: &str = "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51\
                         30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710";

/// SP 800-38A F.5.1: CTR-AES128 encryption (all 64 bytes), through the
/// pipelined path, the seekable per-block path, and a scalar
/// single-block reference built on `encrypt_block_scalar`.
#[test]
fn aes128_ctr_sp800_38a() {
    let key: [u8; 16] = unhex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
    let want = "874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff\
                5ae4df3edbd5d35e5b4f09020db03eab1e031dda2fbe03d1792170a0f3009cee";
    // Pipelined (4-blocks-at-a-time) path.
    let mut data = unhex(CTR_PLAIN);
    AesCtr::new(&key, CTR_NONCE).apply_keystream_at(&mut data, CTR_START);
    assert_eq!(hex(&data), want);
    // One block at a time through the seek API (exercises the scalar tail).
    let mut data = unhex(CTR_PLAIN);
    let ctr = AesCtr::new(&key, CTR_NONCE);
    for (i, chunk) in data.chunks_mut(16).enumerate() {
        ctr.apply_keystream_at(chunk, CTR_START.wrapping_add(i as u64));
    }
    assert_eq!(hex(&data), want);
    // Scalar reference: counter blocks through encrypt_block_scalar.
    let cipher = Aes128::new(&key);
    let mut data = unhex(CTR_PLAIN);
    for (i, chunk) in data.chunks_mut(16).enumerate() {
        let mut block = [0u8; 16];
        block[..8].copy_from_slice(&CTR_NONCE);
        block[8..].copy_from_slice(&CTR_START.wrapping_add(i as u64).to_be_bytes());
        cipher.encrypt_block_scalar(&mut block);
        for (d, k) in chunk.iter_mut().zip(block.iter()) {
            *d ^= k;
        }
    }
    assert_eq!(hex(&data), want);
}

/// SP 800-38A F.5.5: CTR-AES256 encryption.
#[test]
fn aes256_ctr_sp800_38a() {
    let key: [u8; 32] =
        unhex("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4")
            .try_into()
            .unwrap();
    let want = "601ec313775789a5b7a7f504bbf3d228f443e3ca4d62b59aca84e990cacaf5c5\
                2b0930daa23de94ce87017ba2d84988ddfc9c58db67aada613c2dd08457941a6";
    let mut data = unhex(CTR_PLAIN);
    AesCtr256::new(&key, CTR_NONCE).apply_keystream_at(&mut data, CTR_START);
    assert_eq!(hex(&data), want);
    // Scalar reference path.
    let cipher = Aes256::new(&key);
    let mut data = unhex(CTR_PLAIN);
    for (i, chunk) in data.chunks_mut(16).enumerate() {
        let mut block = [0u8; 16];
        block[..8].copy_from_slice(&CTR_NONCE);
        block[8..].copy_from_slice(&CTR_START.wrapping_add(i as u64).to_be_bytes());
        cipher.encrypt_block_scalar(&mut block);
        for (d, k) in chunk.iter_mut().zip(block.iter()) {
            *d ^= k;
        }
    }
    assert_eq!(hex(&data), want);
}

// ------------------------------------------------------------ RSA keygen

/// Key generation pinned to its own output: `sha256(n)` and the search's
/// work count for one seed per size. The values are not published
/// vectors; they pin the candidate stream (DRBG draws, top-two-bit
/// candidates, sieve, 20 Miller–Rabin witnesses), so a change meant to
/// keep every generated key shows here as byte-identical, and one that
/// alters the stream must re-pin these and say why.
#[test]
fn rsa_keygen_pinned_modulus() {
    let cases: &[(usize, &[u8], &str, KeygenWork)] = &[
        (
            512,
            b"kat keygen 512",
            "68731051d3e47cd57724b896c0357e2e89892075cee53e0df9ab3acfebbf5c4c",
            KeygenWork { primes_searched: 2, candidates: 158, sieved: 130, exponentiations: 66 },
        ),
        (
            1024,
            b"kat keygen 1024",
            "20e81d4ed447b4b9d0cdb1f3d9d0b82786b68282e7d286d4d1270aa988239bdc",
            KeygenWork { primes_searched: 2, candidates: 245, sieved: 199, exponentiations: 84 },
        ),
    ];
    for (bits, seed, want, want_work) in cases {
        let (key, work) = RsaPrivateKey::generate_counted(*bits, &mut Drbg::new(seed));
        assert_eq!(hex(&sha256(&key.public.n.to_bytes_be())), *want, "RSA-{bits}");
        assert_eq!(work, *want_work, "RSA-{bits}");
    }
}
