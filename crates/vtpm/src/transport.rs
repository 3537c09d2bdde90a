//! The vTPM transport envelope.
//!
//! Every TPM command crossing the split driver is wrapped in a small
//! envelope identifying the claimed sender, the target instance, and a
//! sequence number. In the **baseline** (stock Xen vTPM) configuration
//! the envelope is unauthenticated — the manager believes whatever it
//! says, which is weakness W1/W2. The **improved** configuration adds an
//! HMAC-SHA256 tag over all envelope fields plus the command bytes, keyed
//! by a per-domain credential provisioned outside XenStore (mechanism AC1).

use tpm::buffer::{BufError, Reader, Writer};
use tpm_crypto::sha256::Sha256;
use tpm_crypto::Hmac;

/// Magic bytes opening every envelope ("VP" for vTPM Packet).
const MAGIC: u16 = 0x5650;
/// Envelope format version.
const VERSION: u8 = 1;

/// Length of the AC1 authentication tag.
pub const TAG_LEN: usize = 32;

/// A request envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Sender's claimed domain id.
    pub domain: u32,
    /// Target vTPM instance.
    pub instance: u32,
    /// Monotonic per-(domain,instance) sequence number.
    pub seq: u64,
    /// Locality the command claims to arrive at.
    pub locality: u8,
    /// Optional AC1 tag.
    pub tag: Option<[u8; TAG_LEN]>,
    /// The raw TPM command.
    pub command: Vec<u8>,
}

impl Envelope {
    /// Serialize to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(32 + TAG_LEN + self.command.len());
        w.u16(MAGIC).u8(VERSION);
        w.u8(self.tag.is_some() as u8);
        w.u32(self.domain).u32(self.instance);
        w.u32((self.seq >> 32) as u32).u32(self.seq as u32);
        w.u8(self.locality);
        if let Some(tag) = &self.tag {
            w.bytes(tag);
        }
        w.sized_u32(&self.command);
        w.into_vec()
    }

    /// Parse from wire bytes.
    pub fn decode(data: &[u8]) -> Result<Envelope, BufError> {
        let mut r = Reader::new(data);
        if r.u16()? != MAGIC || r.u8()? != VERSION {
            return Err(BufError::BadLength);
        }
        let has_tag = r.u8()? != 0;
        let domain = r.u32()?;
        let instance = r.u32()?;
        let seq = ((r.u32()? as u64) << 32) | r.u32()? as u64;
        let locality = r.u8()?;
        let tag = if has_tag {
            let mut t = [0u8; TAG_LEN];
            t.copy_from_slice(r.bytes(TAG_LEN)?);
            Some(t)
        } else {
            None
        };
        let command = r.sized_u32()?.to_vec();
        Ok(Envelope { domain, instance, seq, locality, tag, command })
    }

    /// Compute the AC1 tag for this envelope's fields under `key`.
    pub fn compute_tag(&self, key: &[u8]) -> [u8; TAG_LEN] {
        Self::tag_for(key, self.domain, self.instance, self.seq, self.locality, &self.command)
    }

    /// The AC1 tag over every envelope field except the tag itself —
    /// domain, instance, seq (big-endian), locality, then the command —
    /// streamed into the HMAC without assembling those bytes. A verifier
    /// that already holds the fields separately calls this directly.
    pub fn tag_for(
        key: &[u8],
        domain: u32,
        instance: u32,
        seq: u64,
        locality: u8,
        command: &[u8],
    ) -> [u8; TAG_LEN] {
        let mut header = [0u8; 17];
        header[..4].copy_from_slice(&domain.to_be_bytes());
        header[4..8].copy_from_slice(&instance.to_be_bytes());
        header[8..16].copy_from_slice(&seq.to_be_bytes());
        header[16] = locality;
        let mut mac = Hmac::<Sha256>::new(key);
        mac.update(&header);
        mac.update(command);
        let mut tag = [0u8; TAG_LEN];
        mac.finalize_into(&mut tag);
        tag
    }

    /// Attach a tag computed under `key`.
    pub fn sign(mut self, key: &[u8]) -> Envelope {
        self.tag = Some(self.compute_tag(key));
        self
    }
}

/// Response status carried back to the frontend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseStatus {
    /// Command executed; body is the TPM response.
    Ok,
    /// Access control denied the request.
    Denied,
    /// The named instance does not exist.
    NoInstance,
    /// Envelope was malformed.
    Malformed,
    /// Refused at ring ingress by per-domain admission control; the
    /// frontend should back off before retrying.
    Throttled,
}

impl ResponseStatus {
    fn to_u8(self) -> u8 {
        match self {
            ResponseStatus::Ok => 0,
            ResponseStatus::Denied => 1,
            ResponseStatus::NoInstance => 2,
            ResponseStatus::Malformed => 3,
            ResponseStatus::Throttled => 4,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(ResponseStatus::Ok),
            1 => Some(ResponseStatus::Denied),
            2 => Some(ResponseStatus::NoInstance),
            3 => Some(ResponseStatus::Malformed),
            4 => Some(ResponseStatus::Throttled),
            _ => None,
        }
    }

    /// Stable lowercase label, matching the telemetry outcome labels.
    pub fn name(self) -> &'static str {
        match self {
            ResponseStatus::Ok => "ok",
            ResponseStatus::Denied => "denied",
            ResponseStatus::NoInstance => "no-instance",
            ResponseStatus::Malformed => "malformed",
            ResponseStatus::Throttled => "throttled",
        }
    }
}

/// A response envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseEnvelope {
    /// Echo of the request sequence number.
    pub seq: u64,
    /// Outcome.
    pub status: ResponseStatus,
    /// TPM response bytes (empty unless `status == Ok`).
    pub body: Vec<u8>,
}

impl ResponseEnvelope {
    /// Serialize to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(16 + self.body.len());
        w.u16(MAGIC).u8(VERSION).u8(self.status.to_u8());
        w.u32((self.seq >> 32) as u32).u32(self.seq as u32);
        w.sized_u32(&self.body);
        w.into_vec()
    }

    /// Parse from wire bytes.
    pub fn decode(data: &[u8]) -> Result<ResponseEnvelope, BufError> {
        let mut r = Reader::new(data);
        if r.u16()? != MAGIC || r.u8()? != VERSION {
            return Err(BufError::BadLength);
        }
        let status = ResponseStatus::from_u8(r.u8()?).ok_or(BufError::BadLength)?;
        let seq = ((r.u32()? as u64) << 32) | r.u32()? as u64;
        let body = r.sized_u32()?.to_vec();
        Ok(ResponseEnvelope { seq, status, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Envelope {
        Envelope {
            domain: 3,
            instance: 7,
            seq: 0x1_0000_0002,
            locality: 0,
            tag: None,
            command: vec![0xC1, 0x00, 0x01, 0x02],
        }
    }

    #[test]
    fn envelope_roundtrip_untagged() {
        let e = sample();
        let bytes = e.encode();
        assert_eq!(Envelope::decode(&bytes).unwrap(), e);
    }

    #[test]
    fn envelope_roundtrip_tagged() {
        let e = sample().sign(b"credential-key");
        assert!(e.tag.is_some());
        let bytes = e.encode();
        let d = Envelope::decode(&bytes).unwrap();
        assert_eq!(d, e);
        // Tag verifies.
        assert_eq!(d.compute_tag(b"credential-key"), d.tag.unwrap());
        // And fails under the wrong key.
        assert_ne!(d.compute_tag(b"other-key"), d.tag.unwrap());
    }

    #[test]
    fn tag_covers_every_field() {
        let base = sample().sign(b"k");
        let tag = base.tag.unwrap();
        for mutate in [
            |e: &mut Envelope| e.domain += 1,
            |e: &mut Envelope| e.instance += 1,
            |e: &mut Envelope| e.seq += 1,
            |e: &mut Envelope| e.locality = 2,
            |e: &mut Envelope| e.command[0] ^= 1,
        ] {
            let mut m = base.clone();
            mutate(&mut m);
            assert_ne!(m.compute_tag(b"k"), tag, "mutation must invalidate tag");
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Envelope::decode(&[]).is_err());
        assert!(Envelope::decode(&[0xFF; 8]).is_err());
        let mut bytes = sample().encode();
        bytes[0] ^= 0xFF; // magic
        assert!(Envelope::decode(&bytes).is_err());
    }

    #[test]
    fn decode_rejects_truncated_tagged() {
        let mut bytes = sample().sign(b"k").encode();
        bytes.truncate(20);
        assert!(Envelope::decode(&bytes).is_err());
    }

    #[test]
    fn response_roundtrip_all_statuses() {
        for status in [
            ResponseStatus::Ok,
            ResponseStatus::Denied,
            ResponseStatus::NoInstance,
            ResponseStatus::Malformed,
            ResponseStatus::Throttled,
        ] {
            let r = ResponseEnvelope { seq: 42, status, body: vec![1, 2, 3] };
            let d = ResponseEnvelope::decode(&r.encode()).unwrap();
            assert_eq!(d, r);
        }
    }

    #[test]
    fn response_decode_rejects_bad_status() {
        let mut bytes = ResponseEnvelope { seq: 1, status: ResponseStatus::Ok, body: vec![] }
            .encode();
        bytes[3] = 99;
        assert!(ResponseEnvelope::decode(&bytes).is_err());
    }

    #[test]
    fn seq_survives_full_64_bits() {
        let mut e = sample();
        e.seq = u64::MAX - 5;
        let d = Envelope::decode(&e.encode()).unwrap();
        assert_eq!(d.seq, u64::MAX - 5);
    }
}
