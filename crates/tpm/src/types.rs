//! TPM 1.2 wire-protocol constants (TPM Main Specification Part 2).
//!
//! Only the subset the vTPM stack exercises is defined, but the values are
//! the real ones, so byte streams produced here look like genuine TPM 1.2
//! traffic — which matters for the dump/sniffing experiments.

/// Command/response tags.
pub mod tag {
    /// Command with no authorization sessions.
    pub const RQU_COMMAND: u16 = 0x00C1;
    /// Command with one authorization session.
    pub const RQU_AUTH1_COMMAND: u16 = 0x00C2;
    /// Command with two authorization sessions.
    pub const RQU_AUTH2_COMMAND: u16 = 0x00C3;
    /// Response with no authorization sessions.
    pub const RSP_COMMAND: u16 = 0x00C4;
    /// Response with one authorization session.
    pub const RSP_AUTH1_COMMAND: u16 = 0x00C5;
    /// Response with two authorization sessions.
    pub const RSP_AUTH2_COMMAND: u16 = 0x00C6;
}

/// Command ordinals.
pub mod ordinal {
    /// TPM_OIAP — open an object-independent auth session.
    pub const OIAP: u32 = 0x0000000A;
    /// TPM_OSAP — open an object-specific auth session.
    pub const OSAP: u32 = 0x0000000B;
    /// TPM_TakeOwnership.
    pub const TAKE_OWNERSHIP: u32 = 0x0000000D;
    /// TPM_Extend — extend a PCR.
    pub const EXTEND: u32 = 0x00000014;
    /// TPM_PcrRead.
    pub const PCR_READ: u32 = 0x00000015;
    /// TPM_Quote.
    pub const QUOTE: u32 = 0x00000016;
    /// TPM_Seal.
    pub const SEAL: u32 = 0x00000017;
    /// TPM_Unseal.
    pub const UNSEAL: u32 = 0x00000018;
    /// TPM_CreateWrapKey.
    pub const CREATE_WRAP_KEY: u32 = 0x0000001F;
    /// TPM_GetCapability.
    pub const GET_CAPABILITY: u32 = 0x00000065;
    /// TPM_LoadKey2.
    pub const LOAD_KEY2: u32 = 0x00000041;
    /// TPM_GetRandom.
    pub const GET_RANDOM: u32 = 0x00000046;
    /// TPM_Sign.
    pub const SIGN: u32 = 0x0000003C;
    /// TPM_Startup.
    pub const STARTUP: u32 = 0x00000099;
    /// TPM_FlushSpecific — evict a loaded key or session.
    pub const FLUSH_SPECIFIC: u32 = 0x000000BA;
    /// TPM_ReadPubek.
    pub const READ_PUBEK: u32 = 0x0000007C;
    /// TPM_OwnerClear.
    pub const OWNER_CLEAR: u32 = 0x0000005B;
    /// TPM_NV_DefineSpace.
    pub const NV_DEFINE_SPACE: u32 = 0x000000CC;
    /// TPM_NV_WriteValue.
    pub const NV_WRITE_VALUE: u32 = 0x000000CD;
    /// TPM_NV_ReadValue.
    pub const NV_READ_VALUE: u32 = 0x000000CF;
    /// TPM_PCR_Reset.
    pub const PCR_RESET: u32 = 0x000000C8;
    /// TPM_SaveState (vTPM suspend path).
    pub const SAVE_STATE: u32 = 0x00000098;
    /// TPM_CreateCounter.
    pub const CREATE_COUNTER: u32 = 0x000000DC;
    /// TPM_IncrementCounter.
    pub const INCREMENT_COUNTER: u32 = 0x000000DD;
    /// TPM_ReadCounter.
    pub const READ_COUNTER: u32 = 0x000000DE;
    /// TPM_ReleaseCounter.
    pub const RELEASE_COUNTER: u32 = 0x000000DF;

    /// Human-readable ordinal name (diagnostics, audit logs, reports).
    pub fn name(ord: u32) -> &'static str {
        match ord {
            OIAP => "TPM_OIAP",
            OSAP => "TPM_OSAP",
            TAKE_OWNERSHIP => "TPM_TakeOwnership",
            EXTEND => "TPM_Extend",
            PCR_READ => "TPM_PcrRead",
            QUOTE => "TPM_Quote",
            SEAL => "TPM_Seal",
            UNSEAL => "TPM_Unseal",
            CREATE_WRAP_KEY => "TPM_CreateWrapKey",
            GET_CAPABILITY => "TPM_GetCapability",
            LOAD_KEY2 => "TPM_LoadKey2",
            GET_RANDOM => "TPM_GetRandom",
            SIGN => "TPM_Sign",
            STARTUP => "TPM_Startup",
            FLUSH_SPECIFIC => "TPM_FlushSpecific",
            READ_PUBEK => "TPM_ReadPubek",
            OWNER_CLEAR => "TPM_OwnerClear",
            NV_DEFINE_SPACE => "TPM_NV_DefineSpace",
            NV_WRITE_VALUE => "TPM_NV_WriteValue",
            NV_READ_VALUE => "TPM_NV_ReadValue",
            PCR_RESET => "TPM_PCR_Reset",
            SAVE_STATE => "TPM_SaveState",
            CREATE_COUNTER => "TPM_CreateCounter",
            INCREMENT_COUNTER => "TPM_IncrementCounter",
            READ_COUNTER => "TPM_ReadCounter",
            RELEASE_COUNTER => "TPM_ReleaseCounter",
            _ => "TPM_Unknown",
        }
    }
}

/// Return codes.
pub mod rc {
    /// Success.
    pub const SUCCESS: u32 = 0;
    /// Authentication failed.
    pub const AUTHFAIL: u32 = 1;
    /// Bad index (PCR or NV).
    pub const BADINDEX: u32 = 2;
    /// Bad parameter.
    pub const BAD_PARAMETER: u32 = 3;
    /// TPM already has an owner.
    pub const OWNER_SET: u32 = 0x14;
    /// No space / resource exhaustion.
    pub const RESOURCES: u32 = 0x15;
    /// The named key handle is invalid (TPM_KEYNOTFOUND).
    pub const INVALID_KEYHANDLE: u32 = 0x0D;
    /// Bad command tag (TPM_BADTAG).
    pub const BADTAG: u32 = 0x1E;
    /// Bad ordinal.
    pub const BAD_ORDINAL: u32 = 0x0A;
    /// Command size field disagrees with the buffer.
    pub const BAD_PARAM_SIZE: u32 = 0x19;
    /// PCR composite disagrees (unseal against wrong PCR state).
    pub const WRONGPCRVAL: u32 = 0x18;
    /// Key usage not permitted (e.g. signing with a storage key).
    pub const INVALID_KEYUSAGE: u32 = 0x24;
    /// The named session handle is invalid.
    pub const INVALID_AUTHHANDLE: u32 = 0x28;
    /// NV area is locked/write-protected.
    pub const AREA_LOCKED: u32 = 0x3C;
    /// Command arrived at a disallowed locality.
    pub const BAD_LOCALITY: u32 = 0x3D;
    /// Decryption of a blob failed.
    pub const DECRYPT_ERROR: u32 = 0x21;
    /// TPM_NOSRK — no storage root key present.
    pub const NOSRK: u32 = 0x12;
    /// Operation disabled until reboot/startup.
    pub const INVALID_POSTINIT: u32 = 0x26;
}

/// Well-known permanent handles.
pub mod handle {
    /// The Storage Root Key.
    pub const SRK: u32 = 0x4000_0000;
    /// The owner (authorization target for owner-authorized commands).
    pub const OWNER: u32 = 0x4000_0001;
    /// The Endorsement Key.
    pub const EK: u32 = 0x4000_0006;
}

/// Entity types for OSAP.
pub mod entity {
    /// A loaded key handle.
    pub const KEYHANDLE: u16 = 0x0001;
    /// The owner.
    pub const OWNER: u16 = 0x0002;
    /// The SRK.
    pub const SRK: u16 = 0x0004;
    /// A monotonic counter.
    pub const COUNTER: u16 = 0x000A;
}

/// Key usage values (TPM_KEY_USAGE).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyUsage {
    /// Signing only.
    Signing,
    /// Storage (wrapping children, sealing).
    Storage,
    /// Binding (encrypt small blobs externally).
    Binding,
    /// Legacy (sign + bind) — allowed for both.
    Legacy,
}

impl KeyUsage {
    /// Encode as the spec's u16.
    pub fn to_u16(self) -> u16 {
        match self {
            KeyUsage::Signing => 0x0010,
            KeyUsage::Storage => 0x0011,
            KeyUsage::Binding => 0x0014,
            KeyUsage::Legacy => 0x0015,
        }
    }

    /// Decode from the spec's u16.
    pub fn from_u16(v: u16) -> Option<Self> {
        match v {
            0x0010 => Some(KeyUsage::Signing),
            0x0011 => Some(KeyUsage::Storage),
            0x0014 => Some(KeyUsage::Binding),
            0x0015 => Some(KeyUsage::Legacy),
            _ => None,
        }
    }

    /// May this key sign?
    pub fn can_sign(self) -> bool {
        matches!(self, KeyUsage::Signing | KeyUsage::Legacy)
    }

    /// May this key wrap children / seal?
    pub fn can_store(self) -> bool {
        matches!(self, KeyUsage::Storage)
    }
}

/// Number of PCRs in a 1.2 TPM.
pub const NUM_PCRS: usize = 24;
/// SHA-1 digest length, the TPM 1.2 digest size.
pub const DIGEST_LEN: usize = 20;
/// Nonce length.
pub const NONCE_LEN: usize = 20;
/// Auth code (HMAC-SHA1) length.
pub const AUTH_LEN: usize = 20;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_usage_roundtrip() {
        for u in [KeyUsage::Signing, KeyUsage::Storage, KeyUsage::Binding, KeyUsage::Legacy] {
            assert_eq!(KeyUsage::from_u16(u.to_u16()), Some(u));
        }
        assert_eq!(KeyUsage::from_u16(0xFFFF), None);
    }

    #[test]
    fn usage_capabilities() {
        assert!(KeyUsage::Signing.can_sign());
        assert!(!KeyUsage::Signing.can_store());
        assert!(KeyUsage::Storage.can_store());
        assert!(!KeyUsage::Storage.can_sign());
        assert!(KeyUsage::Legacy.can_sign());
    }

    #[test]
    fn ordinal_names() {
        assert_eq!(ordinal::name(ordinal::SEAL), "TPM_Seal");
        assert_eq!(ordinal::name(0xdeadbeef), "TPM_Unknown");
    }

    #[test]
    fn spec_values_spotcheck() {
        assert_eq!(tag::RQU_AUTH1_COMMAND, 0x00C2);
        assert_eq!(ordinal::EXTEND, 0x14);
        assert_eq!(handle::SRK, 0x4000_0000);
        assert_eq!(rc::SUCCESS, 0);
    }
}
