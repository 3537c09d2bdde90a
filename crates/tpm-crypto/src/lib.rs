//! # tpm-crypto
//!
//! From-scratch cryptographic substrate for the vtpm-xen reproduction of
//! *Improvement for vTPM Access Control on Xen* (ICPPW 2010).
//!
//! The offline dependency set contains no cryptography, and the paper's
//! system sits on a TPM 1.2 — so this crate implements exactly what that
//! stack needs, validated against published test vectors:
//!
//! * [`sha1`]/[`sha256`] — FIPS 180-4 digests behind the [`hash::Digest`] trait,
//!   each with a SHA-NI compression kernel and a portable one.
//! * [`hmac`] — RFC 2104 HMAC, generic over the digest and allocation-free,
//!   plus constant-time comparison ([`hmac::ct_eq`]).
//! * [`bignum`] — u64-limb big integers with Knuth division and a
//!   fixed-width Montgomery engine (one CIOS product monomorphized for
//!   4 to 64 limbs, fixed 4-bit window exponentiation) plus a retained
//!   schoolbook reference path.
//! * [`rsa`] — key generation (top-two-bit candidates, a single-word sieve
//!   over the odd primes below 2^10, 20-round Miller–Rabin on one
//!   Montgomery context, with the work counted in [`rsa::KeygenWork`]),
//!   CRT private ops with Garner recombination (and
//!   [`rsa::RsaPrivateKey::raw_schoolbook`] as the differential
//!   baseline), OAEP-SHA1 and PKCS#1 v1.5-SHA1 padding (the TPM 1.2
//!   schemes).
//! * [`aes`] — AES-128/256 CTR for vTPM state protection (AC3): an
//!   AES-NI keystream kernel, a portable T-table kernel with a 4-block
//!   interleaved CTR pipeline, and the original byte-wise rounds as the
//!   scalar reference path.
//! * [`drbg`] — a deterministic hash DRBG so a seeded TPM replays
//!   identically across runs.
//!
//! Everything here is deterministic given a seed; nothing reads OS entropy
//! directly, which keeps simulation runs reproducible.
//!
//! ## Hardware kernels
//!
//! On x86-64, SHA-1, SHA-256 and AES-CTR each pick a hardware kernel at
//! run time with `is_x86_feature_detected!`: SHA-NI
//! (`sha1rnds4`/`sha256rnds2` and their message-schedule instructions)
//! and AES-NI (`aesenc`/`aesenclast`, eight counter blocks in flight).
//! There is no build flag or setting: one binary runs everywhere, and on
//! a CPU without the extensions (or another architecture) the portable
//! kernels run instead. Both produce byte-identical output. The portable
//! kernels stay callable on their own ([`sha1::Sha1::portable`],
//! [`sha256::Sha256::portable`], [`aes::Aes128::ctr_xor_at_portable`]) as
//! the differential reference the tests hold the hardware kernels to,
//! and [`aes::kernel`], [`sha256::Sha256::kernel`] and
//! [`sha1::Sha1::kernel`] name the kernel in use. The only `unsafe` in
//! the crate is in those kernels (the private `x86` module) and at their
//! call sites, each behind the feature check that guards it.
//!
//! Side channels: SHA is data-independent in every kernel. AES-NI does
//! no table lookups, so its timing does not depend on key or data; the
//! portable T-table kernel makes key- and data-dependent loads and keeps
//! the cache-timing caveat in [`aes`].

pub mod aes;
pub mod bignum;
pub mod drbg;
pub mod hash;
pub mod hmac;
pub mod rsa;
pub mod sha1;
pub mod sha256;
#[cfg(target_arch = "x86_64")]
mod x86;

pub use aes::{Aes128, Aes256, AesCtr, AesCtr256};
pub use bignum::BigUint;
pub use drbg::Drbg;
pub use hash::{sha1, sha256, Digest};
pub use hmac::{ct_eq, hmac_sha1, hmac_sha256, Hmac};
pub use rsa::{KeygenWork, RsaError, RsaPrivateKey, RsaPublicKey};
