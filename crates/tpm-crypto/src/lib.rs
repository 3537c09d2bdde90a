//! # tpm-crypto
//!
//! From-scratch cryptographic substrate for the vtpm-xen reproduction of
//! *Improvement for vTPM Access Control on Xen* (ICPPW 2010).
//!
//! The offline dependency set contains no cryptography, and the paper's
//! system sits on a TPM 1.2 — so this crate implements exactly what that
//! stack needs, validated against published test vectors:
//!
//! * [`sha1`]/[`sha256`] — FIPS 180-4 digests behind the [`hash::Digest`] trait.
//! * [`hmac`] — RFC 2104 HMAC, generic over the digest, plus constant-time
//!   comparison ([`hmac::ct_eq`]).
//! * [`bignum`] — u64-limb big integers with Knuth division and a
//!   fixed-width Montgomery engine (one CIOS product monomorphized for
//!   4 to 64 limbs, fixed 4-bit window exponentiation) plus a retained
//!   schoolbook reference path.
//! * [`rsa`] — key generation (Miller–Rabin), CRT private ops with Garner
//!   recombination (and [`rsa::RsaPrivateKey::raw_schoolbook`] as the
//!   differential baseline), OAEP-SHA1 and PKCS#1 v1.5-SHA1 padding
//!   (the TPM 1.2 schemes).
//! * [`aes`] — AES-128/256 via compile-time T-tables with a 4-block
//!   interleaved CTR pipeline for vTPM state protection (AC3); the
//!   original byte-wise rounds survive as the scalar reference path.
//! * [`drbg`] — a deterministic hash DRBG so a seeded TPM replays
//!   identically across runs.
//!
//! Everything here is deterministic given a seed; nothing reads OS entropy
//! directly, which keeps simulation runs reproducible.

pub mod aes;
pub mod bignum;
pub mod drbg;
pub mod hash;
pub mod hmac;
pub mod rsa;
pub mod sha1;
pub mod sha256;

pub use aes::{Aes128, Aes256, AesCtr, AesCtr256};
pub use bignum::BigUint;
pub use drbg::Drbg;
pub use hash::{sha1, sha256, Digest};
pub use hmac::{ct_eq, hmac_sha1, hmac_sha256, Hmac};
pub use rsa::{RsaError, RsaPrivateKey, RsaPublicKey};
