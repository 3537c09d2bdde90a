//! The evidence wire format: strict, self-delimiting, hostile-input
//! safe.
//!
//! An [`Evidence`] blob is what an issuer hands a verifier: the
//! instance id, the nonce-window it was issued against, and the full
//! deep-quote bundle. `decode` applies the same hygiene rules as
//! `MigrationPackage::decode`: every field is length-checked against a
//! hard cap *before* allocation, chains that cannot be well-formed
//! (empty signatures, unsorted PCR selections, value/selection count
//! mismatches) are rejected as malformed, and trailing bytes after a
//! well-formed blob make the whole thing malformed rather than being
//! silently ignored.

use tpm::buffer::{Reader, Writer};
use tpm::{DIGEST_LEN, NUM_PCRS};
use tpm_crypto::{sha1, sha256};
use vtpm::deep_quote::DeepQuote;

/// Wire format version byte.
const VERSION: u8 = 1;

/// Hard cap on signature / modulus field lengths (8192-bit RSA).
const MAX_KEY_FIELD: usize = 1024;

/// Hard cap on registration-log entries one blob may carry.
const MAX_LOG_ENTRIES: usize = 4096;

/// Why a blob failed to parse or could never be a valid chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Ran out of bytes mid-field.
    Truncated,
    /// Bytes left over after a complete blob.
    TrailingBytes,
    /// Unknown version byte.
    BadVersion,
    /// A field violates the chain's structural rules (selection not
    /// strictly ascending / out of range, count mismatch, empty or
    /// oversized key material, oversized log).
    MalformedChain,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            WireError::Truncated => "evidence truncated",
            WireError::TrailingBytes => "trailing bytes after evidence",
            WireError::BadVersion => "unknown evidence version",
            WireError::MalformedChain => "malformed quote chain",
        };
        f.write_str(s)
    }
}

impl std::error::Error for WireError {}

/// Width of one nonce-window in (virtual) nanoseconds: the issuer's
/// `window = now_ns / WINDOW_NS`, and the unit the verifier judges
/// freshness in. Everything asking within one window shares a nonce
/// and therefore evidence.
pub const WINDOW_NS: u64 = 1_000_000_000;

/// The nonce every quote in window `window` is issued against:
/// `SHA1("VTPM-ATTEST-WINDOW" || window_be)`. Deriving the nonce from
/// the window index is what lets one signing pass serve every verifier
/// of that window — and lets a verifier recompute the expected nonce
/// from the blob alone, so a blob claiming one window but signed over
/// another fails its signature check.
pub fn window_nonce(window: u64) -> [u8; DIGEST_LEN] {
    let mut buf = [0u8; 18 + 8];
    buf[..18].copy_from_slice(b"VTPM-ATTEST-WINDOW");
    buf[18..].copy_from_slice(&window.to_be_bytes());
    sha1(&buf)
}

/// A complete attestation evidence blob: one deep quote bound to an
/// instance and a nonce-window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evidence {
    /// The attested vTPM instance.
    pub instance: u32,
    /// Nonce-window the quote was issued against (the quote nonce is
    /// [`window_nonce`] of this).
    pub window: u64,
    /// The deep-quote bundle.
    pub quote: DeepQuote,
}

impl Evidence {
    /// Serialize for the wire.
    pub fn encode(&self) -> Vec<u8> {
        let q = &self.quote;
        let mut w = Writer::with_capacity(64 + q.vtpm_signature.len() + q.hw_signature.len());
        w.u8(VERSION);
        w.u32(self.instance);
        w.bytes(&self.window.to_be_bytes());
        w.u8(q.vtpm_selection.len() as u8);
        for &i in &q.vtpm_selection {
            w.u8(i as u8);
        }
        for v in &q.vtpm_pcr_values {
            w.bytes(v);
        }
        w.sized_u16(&q.vtpm_signature);
        w.sized_u16(&q.vtpm_aik_modulus);
        w.sized_u16(&q.vtpm_ek_modulus);
        w.bytes(&q.hw_binding_pcr);
        w.sized_u16(&q.hw_signature);
        w.sized_u16(&q.hw_aik_modulus);
        w.u16(q.registration_log.len() as u16);
        for e in &q.registration_log {
            w.bytes(e);
        }
        w.into_vec()
    }

    /// Parse from the wire. Rejects trailing bytes and structurally
    /// impossible chains; never panics on hostile input.
    pub fn decode(data: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(data);
        let trunc = |_: tpm::buffer::BufError| WireError::Truncated;
        if r.u8().map_err(trunc)? != VERSION {
            return Err(WireError::BadVersion);
        }
        let instance = r.u32().map_err(trunc)?;
        let window = u64::from_be_bytes(
            r.bytes(8).map_err(trunc)?.try_into().expect("8 bytes read"),
        );

        let sel_count = r.u8().map_err(trunc)? as usize;
        if sel_count == 0 || sel_count > NUM_PCRS {
            return Err(WireError::MalformedChain);
        }
        let mut vtpm_selection = Vec::with_capacity(sel_count);
        for _ in 0..sel_count {
            let idx = r.u8().map_err(trunc)? as usize;
            // Strictly ascending and in range: one canonical encoding
            // per selection, so a blob cannot smuggle duplicates past
            // the composite reconstruction.
            if idx >= NUM_PCRS || vtpm_selection.last().is_some_and(|&l| idx <= l) {
                return Err(WireError::MalformedChain);
            }
            vtpm_selection.push(idx);
        }
        let mut vtpm_pcr_values = Vec::with_capacity(sel_count);
        for _ in 0..sel_count {
            vtpm_pcr_values.push(r.digest().map_err(trunc)?);
        }

        let key_field = |r: &mut Reader| -> Result<Vec<u8>, WireError> {
            let b = r.sized_u16().map_err(trunc)?;
            if b.is_empty() || b.len() > MAX_KEY_FIELD {
                return Err(WireError::MalformedChain);
            }
            Ok(b.to_vec())
        };
        let vtpm_signature = key_field(&mut r)?;
        let vtpm_aik_modulus = key_field(&mut r)?;
        let vtpm_ek_modulus = key_field(&mut r)?;
        let hw_binding_pcr = r.digest().map_err(trunc)?;
        let hw_signature = key_field(&mut r)?;
        let hw_aik_modulus = key_field(&mut r)?;

        let log_count = r.u16().map_err(trunc)? as usize;
        if log_count > MAX_LOG_ENTRIES {
            return Err(WireError::MalformedChain);
        }
        // A registered instance implies a non-empty log; an empty one
        // can only ever fail verification, so refuse it at the parser.
        if log_count == 0 {
            return Err(WireError::MalformedChain);
        }
        let mut registration_log = Vec::with_capacity(log_count);
        for _ in 0..log_count {
            registration_log.push(r.digest().map_err(trunc)?);
        }

        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes);
        }
        Ok(Evidence {
            instance,
            window,
            quote: DeepQuote {
                vtpm_pcr_values,
                vtpm_selection,
                vtpm_signature,
                vtpm_aik_modulus,
                vtpm_ek_modulus,
                hw_binding_pcr,
                hw_signature,
                hw_aik_modulus,
                registration_log,
            },
        })
    }

    /// Content digest of the encoded blob: the replay-ledger and
    /// chain-memo key. Any difference anywhere in the evidence — a
    /// different window, a swapped EK, one flipped signature byte —
    /// yields a different digest.
    pub fn digest(&self) -> [u8; 32] {
        sha256(&self.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample() -> Evidence {
        Evidence {
            instance: 7,
            window: 42,
            quote: DeepQuote {
                vtpm_pcr_values: vec![[0x11; 20], [0x22; 20]],
                vtpm_selection: vec![0, 1],
                vtpm_signature: vec![0xAA; 64],
                vtpm_aik_modulus: vec![0xBB; 64],
                vtpm_ek_modulus: vec![0xCC; 128],
                hw_binding_pcr: [0x33; 20],
                hw_signature: vec![0xDD; 64],
                hw_aik_modulus: vec![0xEE; 64],
                registration_log: vec![[0x44; 20], [0x55; 20]],
            },
        }
    }

    #[test]
    fn roundtrip() {
        let e = sample();
        assert_eq!(Evidence::decode(&e.encode()).unwrap(), e);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert_eq!(Evidence::decode(&bytes), Err(WireError::TrailingBytes));
    }

    #[test]
    fn truncation_rejected_at_every_length() {
        let bytes = sample().encode();
        for n in 0..bytes.len() {
            assert!(Evidence::decode(&bytes[..n]).is_err(), "prefix {n} must not parse");
        }
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = sample().encode();
        bytes[0] = 9;
        assert_eq!(Evidence::decode(&bytes), Err(WireError::BadVersion));
    }

    #[test]
    fn unsorted_selection_rejected() {
        let mut e = sample();
        e.quote.vtpm_selection = vec![1, 0];
        e.quote.vtpm_pcr_values = vec![[0x11; 20], [0x22; 20]];
        assert_eq!(Evidence::decode(&e.encode()), Err(WireError::MalformedChain));
    }

    #[test]
    fn empty_signature_rejected() {
        let mut e = sample();
        e.quote.vtpm_signature = Vec::new();
        assert_eq!(Evidence::decode(&e.encode()), Err(WireError::MalformedChain));
    }

    #[test]
    fn empty_log_rejected() {
        let mut e = sample();
        e.quote.registration_log = Vec::new();
        assert_eq!(Evidence::decode(&e.encode()), Err(WireError::MalformedChain));
    }

    #[test]
    fn digest_distinguishes_any_field() {
        let a = sample();
        let mut b = sample();
        b.quote.vtpm_ek_modulus[0] ^= 1;
        assert_ne!(a.digest(), b.digest());
        let mut c = sample();
        c.window += 1;
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn window_nonce_is_per_window() {
        assert_ne!(window_nonce(1), window_nonce(2));
        assert_eq!(window_nonce(7), window_nonce(7));
    }
}
