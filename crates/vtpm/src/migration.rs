//! vTPM migration between platforms.
//!
//! Moving a VM takes its vTPM with it. The instance state is the crown
//! jewels (EK/SRK privates, owner secrets), so how it crosses the wire
//! matters:
//!
//! * [`MigrationPackage::Clear`] — the baseline: raw state bytes, exactly
//!   as a naive `xm save`-style implementation ships them. Anything on
//!   the path (or a dump of either host during the window) reads them.
//! * [`MigrationPackage::Sealed`] — the improved protocol: state is
//!   AES-128-CTR-encrypted under a fresh session key, which is itself
//!   OAEP-encrypted to the *destination hardware TPM's EK* — so only a
//!   platform holding that physical TPM can open the package — plus a
//!   SHA-256 integrity digest.
//!
//! This module holds the package format only. A vTPM leaves a host
//! through one path, the cluster migration protocol (`vtpm-cluster`):
//! its transfer step builds the package with [`package_clear`] or
//! [`package_sealed`], and the destination opens it with
//! [`open_package`] through [`crate::Platform::open_migration_package`]
//! before it commits.
//!
//! ## Session key and nonce are single-use
//!
//! The (session key, CTR nonce) pair of a sealed package must never be
//! reused for a second package: CTR mode under a repeated (key, nonce)
//! is a two-time pad — XOR of two ciphertexts is XOR of the two states.
//! [`package_sealed`] therefore draws a *fresh* key and nonce from the
//! caller's DRBG on every call, and callers must never cache or replay
//! a (key, nonce) pair across packages — retrying a failed transfer
//! means building a new package, not re-encrypting under the old pair.
//! `tests::nonces_and_session_keys_are_single_use` pins this down.

use tpm_crypto::aes::AesCtr;
use tpm_crypto::drbg::Drbg;
use tpm_crypto::rsa::RsaPublicKey;
use tpm_crypto::sha256;

use tpm::buffer::{BufError, Reader, Writer};

/// A vTPM state package in transit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MigrationPackage {
    /// Baseline: cleartext state.
    Clear(Vec<u8>),
    /// Improved: encrypted + destination-bound + integrity-protected.
    Sealed {
        /// Session key, OAEP-encrypted to the destination EK.
        enc_session_key: Vec<u8>,
        /// CTR nonce.
        nonce: [u8; 8],
        /// AES-128-CTR ciphertext of the state.
        ciphertext: Vec<u8>,
        /// SHA-256 of the plaintext state.
        digest: [u8; 32],
    },
}

/// Errors from package handling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationError {
    /// Session key failed to decrypt (wrong destination TPM).
    WrongDestination,
    /// Integrity digest mismatch (tampered in transit).
    Corrupted,
    /// Serialized package malformed.
    Malformed,
}

impl std::fmt::Display for MigrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrationError::WrongDestination => write!(f, "package not bound to this TPM"),
            MigrationError::Corrupted => write!(f, "package integrity check failed"),
            MigrationError::Malformed => write!(f, "malformed migration package"),
        }
    }
}

impl std::error::Error for MigrationError {}

/// Build a cleartext (baseline) package.
pub fn package_clear(state: &[u8]) -> MigrationPackage {
    MigrationPackage::Clear(state.to_vec())
}

/// Build a sealed package bound to `dst_ek`.
pub fn package_sealed(
    state: &[u8],
    dst_ek: &RsaPublicKey,
    rng: &mut Drbg,
) -> MigrationPackage {
    let mut session_key = [0u8; 16];
    rng.fill_bytes(&mut session_key);
    let mut nonce = [0u8; 8];
    rng.fill_bytes(&mut nonce);
    let mut ciphertext = state.to_vec();
    AesCtr::new(&session_key, nonce).apply_keystream(&mut ciphertext);
    let enc_session_key = dst_ek
        .encrypt_oaep(&session_key, b"TCPA", rng)
        .expect("16-byte key fits any supported EK size");
    MigrationPackage::Sealed { enc_session_key, nonce, ciphertext, digest: sha256(state) }
}

/// Open a package on the destination with its *hardware TPM*: the
/// session key is decrypted inside the TPM ([`tpm::Tpm::ek_decrypt_oaep`]),
/// so the EK private key never leaves it. Clear packages open anywhere —
/// the baseline has no destination binding.
pub fn open_package(package: &MigrationPackage, hw: &tpm::Tpm) -> Result<Vec<u8>, MigrationError> {
    match package {
        MigrationPackage::Clear(state) => Ok(state.clone()),
        MigrationPackage::Sealed { enc_session_key, nonce, ciphertext, digest } => {
            let key_bytes = hw
                .ek_decrypt_oaep(enc_session_key)
                .map_err(|_| MigrationError::WrongDestination)?;
            let key: [u8; 16] =
                key_bytes.try_into().map_err(|_| MigrationError::WrongDestination)?;
            let mut state = ciphertext.clone();
            AesCtr::new(&key, *nonce).apply_keystream(&mut state);
            if &sha256(&state) != digest {
                return Err(MigrationError::Corrupted);
            }
            Ok(state)
        }
    }
}

impl MigrationPackage {
    /// Serialize for the wire.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            MigrationPackage::Clear(state) => {
                w.u8(0);
                w.sized_u32(state);
            }
            MigrationPackage::Sealed { enc_session_key, nonce, ciphertext, digest } => {
                w.u8(1);
                w.sized_u32(enc_session_key);
                w.bytes(nonce);
                w.sized_u32(ciphertext);
                w.bytes(digest);
            }
        }
        w.into_vec()
    }

    /// Parse from the wire. Trailing bytes after a well-formed package
    /// are rejected: a package is a complete wire object, and anything
    /// appended to it (smuggled payload, sloppy framing upstream) makes
    /// the whole blob malformed rather than silently ignored.
    pub fn decode(data: &[u8]) -> Result<Self, MigrationError> {
        let mut r = Reader::new(data);
        let kind = r.u8().map_err(|_: BufError| MigrationError::Malformed)?;
        let package = match kind {
            0 => MigrationPackage::Clear(
                r.sized_u32().map_err(|_| MigrationError::Malformed)?.to_vec(),
            ),
            1 => {
                let enc_session_key =
                    r.sized_u32().map_err(|_| MigrationError::Malformed)?.to_vec();
                let nonce: [u8; 8] = r
                    .bytes(8)
                    .map_err(|_| MigrationError::Malformed)?
                    .try_into()
                    .map_err(|_| MigrationError::Malformed)?;
                let ciphertext = r.sized_u32().map_err(|_| MigrationError::Malformed)?.to_vec();
                let digest: [u8; 32] = r
                    .bytes(32)
                    .map_err(|_| MigrationError::Malformed)?
                    .try_into()
                    .map_err(|_| MigrationError::Malformed)?;
                MigrationPackage::Sealed { enc_session_key, nonce, ciphertext, digest }
            }
            _ => return Err(MigrationError::Malformed),
        };
        if r.remaining() != 0 {
            return Err(MigrationError::Malformed);
        }
        Ok(package)
    }

    /// Whether the state bytes are visible in the serialized package
    /// (attack-surface probe used by experiments).
    pub fn exposes(&self, probe: &[u8]) -> bool {
        let bytes = self.encode();
        !probe.is_empty() && bytes.windows(probe.len()).any(|w| w == probe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The destination's hardware TPM.
    fn dst_tpm() -> tpm::Tpm {
        tpm::Tpm::new(b"dst-ek")
    }

    #[test]
    fn clear_package_roundtrip_and_leaks() {
        let state = b"EK-PRIVATE-PRIME-FACTORS";
        let p = package_clear(state);
        assert_eq!(open_package(&p, &dst_tpm()).unwrap(), state);
        assert!(p.exposes(state), "baseline package is cleartext");
    }

    #[test]
    fn sealed_package_roundtrip_and_hides() {
        let dst = dst_tpm();
        let mut rng = Drbg::new(b"mig");
        let state = b"EK-PRIVATE-PRIME-FACTORS";
        let p = package_sealed(state, &dst.ek_public(), &mut rng);
        assert!(!p.exposes(state), "sealed package must hide the state");
        assert_eq!(open_package(&p, &dst).unwrap(), state);
    }

    #[test]
    fn sealed_package_bound_to_destination() {
        let dst = dst_tpm();
        let mut rng = Drbg::new(b"mig2");
        let p = package_sealed(b"state", &dst.ek_public(), &mut rng);
        let other = tpm::Tpm::new(b"other-ek");
        assert_eq!(open_package(&p, &other), Err(MigrationError::WrongDestination));
    }

    #[test]
    fn tampered_ciphertext_detected() {
        let dst = dst_tpm();
        let mut rng = Drbg::new(b"mig3");
        let p = package_sealed(b"some vtpm state bytes", &dst.ek_public(), &mut rng);
        if let MigrationPackage::Sealed { enc_session_key, nonce, mut ciphertext, digest } = p {
            ciphertext[0] ^= 1;
            let tampered =
                MigrationPackage::Sealed { enc_session_key, nonce, ciphertext, digest };
            assert_eq!(open_package(&tampered, &dst), Err(MigrationError::Corrupted));
        } else {
            unreachable!();
        }
    }

    #[test]
    fn wire_roundtrip_both_kinds() {
        let dst = dst_tpm();
        let mut rng = Drbg::new(b"mig4");
        for p in [package_clear(b"abc"), package_sealed(b"abc", &dst.ek_public(), &mut rng)] {
            let bytes = p.encode();
            assert_eq!(MigrationPackage::decode(&bytes).unwrap(), p);
        }
        assert_eq!(MigrationPackage::decode(&[9]), Err(MigrationError::Malformed));
        assert_eq!(MigrationPackage::decode(&[]), Err(MigrationError::Malformed));
    }

    #[test]
    fn session_keys_are_fresh() {
        let dst = dst_tpm();
        let mut rng = Drbg::new(b"mig5");
        let p1 = package_sealed(b"s", &dst.ek_public(), &mut rng);
        let p2 = package_sealed(b"s", &dst.ek_public(), &mut rng);
        assert_ne!(p1, p2, "each migration uses a fresh session key/nonce");
    }

    #[test]
    fn nonces_and_session_keys_are_single_use() {
        // The single-use contract from the module docs: repeated
        // `package_sealed` calls — same state, same destination, same
        // DRBG — must never repeat a CTR nonce or a wrapped session
        // key. A repeat would turn CTR into a two-time pad.
        let dst = dst_tpm();
        let mut rng = Drbg::new(b"mig-nonce-freshness");
        let mut nonces = std::collections::HashSet::new();
        let mut keys = std::collections::HashSet::new();
        for _ in 0..16 {
            match package_sealed(b"identical state bytes", &dst.ek_public(), &mut rng) {
                MigrationPackage::Sealed { enc_session_key, nonce, .. } => {
                    assert!(nonces.insert(nonce), "CTR nonce reused across packages");
                    assert!(keys.insert(enc_session_key), "wrapped session key repeated");
                }
                MigrationPackage::Clear(_) => unreachable!(),
            }
        }
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let dst = dst_tpm();
        let mut rng = Drbg::new(b"mig-trailing");
        for p in [package_clear(b"abc"), package_sealed(b"abc", &dst.ek_public(), &mut rng)] {
            let mut bytes = p.encode();
            assert_eq!(MigrationPackage::decode(&bytes).unwrap(), p);
            bytes.push(0x00);
            assert_eq!(MigrationPackage::decode(&bytes), Err(MigrationError::Malformed));
            bytes.pop();
            bytes.extend_from_slice(b"smuggled");
            assert_eq!(MigrationPackage::decode(&bytes), Err(MigrationError::Malformed));
        }
    }

    #[test]
    fn sealed_package_bound_to_destination_hardware_tpm() {
        // The wrong-destination path through real hardware TPMs: a
        // package sealed to host A's EK opens inside A's TPM but is
        // refused by a *second* hardware TPM (host B), whose EK private
        // key simply cannot unwrap the session key.
        let cfg = tpm::TpmConfig::default();
        let tpm_a = tpm::Tpm::manufacture(b"hw-tpm-a", cfg.clone());
        let tpm_b = tpm::Tpm::manufacture(b"hw-tpm-b", cfg);
        let mut rng = Drbg::new(b"mig-two-hw");
        let state = b"EK-PRIVATE-PRIME-FACTORS";
        let p = package_sealed(state, &tpm_a.ek_public(), &mut rng);
        assert_eq!(open_package(&p, &tpm_a).unwrap(), state);
        assert_eq!(
            open_package(&p, &tpm_b),
            Err(MigrationError::WrongDestination)
        );
        // Clear packages open anywhere — the baseline has no binding.
        assert_eq!(open_package(&package_clear(state), &tpm_b).unwrap(), state);
    }
}
