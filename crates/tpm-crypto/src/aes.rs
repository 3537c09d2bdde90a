//! AES-128/256 block cipher (FIPS 197) and CTR-mode keystream.
//!
//! Used by the paper's AC3 mechanism to keep vTPM instance state encrypted
//! in memory, and by the vTPM manager to persist instance state. Only the
//! forward (encrypt) direction is needed because CTR decryption is
//! encryption of the counter stream.
//!
//! Three implementations of the round function coexist, with distinct
//! roles:
//!
//! * the **AES-NI kernel** (the fast path on x86-64 CPUs that report
//!   AES-NI, picked at run time per [`Aes128::ctr_xor_at`] call; see
//!   [`kernel`]): AESENC/AESENCLAST over the byte schedule, eight counter
//!   blocks in flight. No table lookups, so no key- or data-dependent
//!   memory access;
//! * the **T-table kernel** (the portable fallback, and the reference the
//!   differential tests hold the AES-NI kernel to via
//!   [`Aes128::ctr_xor_at_portable`]): SubBytes+ShiftRows+MixColumns
//!   fused into four 256-entry u32 tables generated at compile time, one
//!   XOR-chain per state column per round, driven four CTR blocks at a
//!   time so the four independent lookup chains overlap in the pipeline.
//!   Single blocks ([`Aes128::encrypt_block`]) also take this path;
//! * the **scalar path** ([`Aes128::encrypt_block_scalar`]): the
//!   original byte-at-a-time SubBytes/ShiftRows/MixColumns rounds,
//!   retained verbatim as the reference the KAT and property tests
//!   compare the T-table path against.
//!
//! All three share one key schedule, expanded once per key: the AES-NI
//! kernel loads the same `round_keys` bytes the scalar path uses, and the
//! T-table path reads the same schedule as words. [`Aes128`] /
//! [`Aes256`] are cheap to clone and cache — see `vtpm::mirror`, which
//! reuses the master-key schedule across every page of a snapshot.
//! Outputs are byte-identical across the three.
//!
//! Side channels: T-table lookups are key- and data-dependent loads, so
//! on a CPU without AES-NI a co-resident party that can time the cache
//! may learn key bits; this reproduction accepts that for its portable
//! fallback. The AES-NI kernel makes no table lookups and has no such
//! channel.

/// AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab,
    0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4,
    0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71,
    0xd8, 0x31, 0x15, 0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6,
    0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb,
    0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf, 0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45,
    0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44,
    0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73, 0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a,
    0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49,
    0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08, 0xba, 0x78, 0x25,
    0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e,
    0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1,
    0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb,
    0x16,
];

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiply by x in GF(2^8) modulo the AES polynomial.
#[inline]
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// T-table 0: `TE0[x]` packs the MixColumns column `(2·S(x), S(x), S(x),
/// 3·S(x))` as a big-endian word, so one lookup performs SubBytes and the
/// x-contribution of MixColumns for a whole column. TE1..TE3 are byte
/// rotations of TE0 matching the other three MixColumns rows.
const fn make_te0() -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        let s2 = xtime(s);
        let s3 = s2 ^ s;
        t[i] = ((s2 as u32) << 24) | ((s as u32) << 16) | ((s as u32) << 8) | (s3 as u32);
        i += 1;
    }
    t
}

const fn rotate_table(src: &[u32; 256], bits: u32) -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        t[i] = src[i].rotate_right(bits);
        i += 1;
    }
    t
}

const TE0: [u32; 256] = make_te0();
const TE1: [u32; 256] = rotate_table(&TE0, 8);
const TE2: [u32; 256] = rotate_table(&TE0, 16);
const TE3: [u32; 256] = rotate_table(&TE0, 24);

/// One full T-table round for a single column. The column's row-r byte
/// comes from input column `c + r` (ShiftRows), MSB is row 0.
macro_rules! te_col {
    ($a:expr, $b:expr, $c:expr, $d:expr) => {
        TE0[($a >> 24) as usize]
            ^ TE1[(($b >> 16) & 0xff) as usize]
            ^ TE2[(($c >> 8) & 0xff) as usize]
            ^ TE3[($d & 0xff) as usize]
    };
}

/// Final round (no MixColumns) for a single column: plain S-box bytes.
macro_rules! sbox_col {
    ($a:expr, $b:expr, $c:expr, $d:expr) => {
        ((SBOX[($a >> 24) as usize] as u32) << 24)
            ^ ((SBOX[(($b >> 16) & 0xff) as usize] as u32) << 16)
            ^ ((SBOX[(($c >> 8) & 0xff) as usize] as u32) << 8)
            ^ (SBOX[($d & 0xff) as usize] as u32)
    };
}

/// T-table encryption of one block. `rk` is the word-form key schedule:
/// `4 * (rounds + 1)` big-endian words.
#[inline]
fn encrypt_one(rk: &[u32], block: &mut [u8; 16]) {
    let nr = rk.len() / 4 - 1;
    let mut c0 = u32::from_be_bytes(block[0..4].try_into().unwrap()) ^ rk[0];
    let mut c1 = u32::from_be_bytes(block[4..8].try_into().unwrap()) ^ rk[1];
    let mut c2 = u32::from_be_bytes(block[8..12].try_into().unwrap()) ^ rk[2];
    let mut c3 = u32::from_be_bytes(block[12..16].try_into().unwrap()) ^ rk[3];
    for r in 1..nr {
        let t0 = te_col!(c0, c1, c2, c3) ^ rk[4 * r];
        let t1 = te_col!(c1, c2, c3, c0) ^ rk[4 * r + 1];
        let t2 = te_col!(c2, c3, c0, c1) ^ rk[4 * r + 2];
        let t3 = te_col!(c3, c0, c1, c2) ^ rk[4 * r + 3];
        c0 = t0;
        c1 = t1;
        c2 = t2;
        c3 = t3;
    }
    let t0 = sbox_col!(c0, c1, c2, c3) ^ rk[4 * nr];
    let t1 = sbox_col!(c1, c2, c3, c0) ^ rk[4 * nr + 1];
    let t2 = sbox_col!(c2, c3, c0, c1) ^ rk[4 * nr + 2];
    let t3 = sbox_col!(c3, c0, c1, c2) ^ rk[4 * nr + 3];
    block[0..4].copy_from_slice(&t0.to_be_bytes());
    block[4..8].copy_from_slice(&t1.to_be_bytes());
    block[8..12].copy_from_slice(&t2.to_be_bytes());
    block[12..16].copy_from_slice(&t3.to_be_bytes());
}

/// T-table encryption of four independent blocks, rounds interleaved so
/// the four dependent lookup chains overlap in the pipeline. This is the
/// CTR fast path: counter blocks are independent by construction.
#[inline]
fn encrypt_four(rk: &[u32], blocks: &mut [[u8; 16]; 4]) {
    let nr = rk.len() / 4 - 1;
    let mut s = [[0u32; 4]; 4];
    for (b, block) in blocks.iter().enumerate() {
        for c in 0..4 {
            s[b][c] =
                u32::from_be_bytes(block[c * 4..c * 4 + 4].try_into().unwrap()) ^ rk[c];
        }
    }
    for r in 1..nr {
        for state in s.iter_mut() {
            let [c0, c1, c2, c3] = *state;
            state[0] = te_col!(c0, c1, c2, c3) ^ rk[4 * r];
            state[1] = te_col!(c1, c2, c3, c0) ^ rk[4 * r + 1];
            state[2] = te_col!(c2, c3, c0, c1) ^ rk[4 * r + 2];
            state[3] = te_col!(c3, c0, c1, c2) ^ rk[4 * r + 3];
        }
    }
    for (b, block) in blocks.iter_mut().enumerate() {
        let [c0, c1, c2, c3] = s[b];
        let t0 = sbox_col!(c0, c1, c2, c3) ^ rk[4 * nr];
        let t1 = sbox_col!(c1, c2, c3, c0) ^ rk[4 * nr + 1];
        let t2 = sbox_col!(c2, c3, c0, c1) ^ rk[4 * nr + 2];
        let t3 = sbox_col!(c3, c0, c1, c2) ^ rk[4 * nr + 3];
        block[0..4].copy_from_slice(&t0.to_be_bytes());
        block[4..8].copy_from_slice(&t1.to_be_bytes());
        block[8..12].copy_from_slice(&t2.to_be_bytes());
        block[12..16].copy_from_slice(&t3.to_be_bytes());
    }
}

/// CTR keystream XOR over a word-form key schedule: 8-byte nonce, 64-bit
/// big-endian block counter, four blocks per batch through
/// [`encrypt_four`], scalar tail for the remainder.
fn ctr_xor(rk: &[u32], nonce: &[u8; 8], data: &mut [u8], start_block: u64) {
    let mut chunks = data.chunks_exact_mut(64);
    let mut block_idx = start_block;
    for chunk in &mut chunks {
        let mut ks = [[0u8; 16]; 4];
        for (i, blk) in ks.iter_mut().enumerate() {
            blk[..8].copy_from_slice(nonce);
            blk[8..].copy_from_slice(&block_idx.wrapping_add(i as u64).to_be_bytes());
        }
        encrypt_four(rk, &mut ks);
        for (i, blk) in ks.iter().enumerate() {
            for (d, k) in chunk[i * 16..(i + 1) * 16].iter_mut().zip(blk.iter()) {
                *d ^= k;
            }
        }
        block_idx = block_idx.wrapping_add(4);
    }
    for chunk in chunks.into_remainder().chunks_mut(16) {
        let mut ks = [0u8; 16];
        ks[..8].copy_from_slice(nonce);
        ks[8..].copy_from_slice(&block_idx.to_be_bytes());
        encrypt_one(rk, &mut ks);
        for (d, k) in chunk.iter_mut().zip(ks.iter()) {
            *d ^= k;
        }
        block_idx = block_idx.wrapping_add(1);
    }
}

/// The CTR kernel this CPU runs for [`Aes128::ctr_xor_at`] and
/// [`Aes256::ctr_xor_at`]: `"aes-ni"`, or `"portable"` (the T-table
/// pipeline).
pub fn kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if crate::x86::aes_detected() {
        return "aes-ni";
    }
    "portable"
}

/// CTR keystream XOR through the selected kernel: AES-NI over the byte
/// schedule when the CPU has it, the T-table pipeline over the word
/// schedule otherwise.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn ctr_xor_selected<const R: usize, const W: usize>(
    round_keys: &[[u8; 16]; R],
    rk: &[u32; W],
    nonce: &[u8; 8],
    data: &mut [u8],
    start_block: u64,
) {
    #[cfg(target_arch = "x86_64")]
    if crate::x86::aes_detected() {
        // SAFETY: `aes_detected()` just confirmed every feature
        // `aes_ctr_xor` enables.
        unsafe { crate::x86::aes_ctr_xor(round_keys, nonce, data, start_block) };
        return;
    }
    ctr_xor(rk, nonce, data, start_block);
}

/// AES-128 with a precomputed key schedule.
#[derive(Clone)]
pub struct Aes128 {
    /// 11 round keys of 16 bytes each (AES-NI and scalar reference paths).
    round_keys: [[u8; 16]; 11],
    /// The same schedule as 44 big-endian words (T-table path).
    rk: [u32; 44],
}

impl Aes128 {
    /// Expand a 16-byte key.
    pub fn new(key: &[u8; 16]) -> Self {
        let mut w = [[0u8; 4]; 44];
        for i in 0..4 {
            w[i].copy_from_slice(&key[i * 4..i * 4 + 4]);
        }
        for i in 4..44 {
            let mut t = w[i - 1];
            if i % 4 == 0 {
                t.rotate_left(1);
                for b in &mut t {
                    *b = SBOX[*b as usize];
                }
                t[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ t[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        for (r, rkb) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rkb[c * 4..c * 4 + 4].copy_from_slice(&w[r * 4 + c]);
            }
        }
        let mut rk = [0u32; 44];
        for (i, word) in w.iter().enumerate() {
            rk[i] = u32::from_be_bytes(*word);
        }
        Aes128 { round_keys, rk }
    }

    /// Encrypt one 16-byte block in place (T-table path).
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        encrypt_one(&self.rk, block);
    }

    /// Encrypt one block with the original byte-wise rounds. Retained as
    /// the differential reference; tests assert it matches
    /// [`encrypt_block`](Self::encrypt_block) on every input they try.
    pub fn encrypt_block_scalar(&self, block: &mut [u8; 16]) {
        encrypt_scalar(&self.round_keys, block);
    }

    /// Encrypt four independent blocks with interleaved rounds.
    pub fn encrypt4(&self, blocks: &mut [[u8; 16]; 4]) {
        encrypt_four(&self.rk, blocks);
    }

    /// XOR the CTR keystream (8-byte `nonce`, block counter starting at
    /// `start_block`) into `data` with the selected kernel ([`kernel`]).
    /// This is the schedule-cached fast path: one `Aes128` can stream any
    /// number of nonces without re-expanding the key.
    pub fn ctr_xor_at(&self, nonce: &[u8; 8], data: &mut [u8], start_block: u64) {
        ctr_xor_selected(&self.round_keys, &self.rk, nonce, data, start_block);
    }

    /// The same keystream through the portable T-table pipeline, four
    /// blocks per batch, whatever the CPU: the fallback kernel, and the
    /// reference the differential tests hold the AES-NI kernel to.
    pub fn ctr_xor_at_portable(&self, nonce: &[u8; 8], data: &mut [u8], start_block: u64) {
        ctr_xor(&self.rk, nonce, data, start_block);
    }
}

/// AES-256 with a precomputed key schedule.
#[derive(Clone)]
pub struct Aes256 {
    /// 15 round keys of 16 bytes each (AES-NI and scalar reference paths).
    round_keys: [[u8; 16]; 15],
    /// The same schedule as 60 big-endian words (T-table path).
    rk: [u32; 60],
}

impl Aes256 {
    /// Expand a 32-byte key.
    pub fn new(key: &[u8; 32]) -> Self {
        let mut w = [[0u8; 4]; 60];
        for i in 0..8 {
            w[i].copy_from_slice(&key[i * 4..i * 4 + 4]);
        }
        for i in 8..60 {
            let mut t = w[i - 1];
            if i % 8 == 0 {
                t.rotate_left(1);
                for b in &mut t {
                    *b = SBOX[*b as usize];
                }
                t[0] ^= RCON[i / 8 - 1];
            } else if i % 8 == 4 {
                for b in &mut t {
                    *b = SBOX[*b as usize];
                }
            }
            for j in 0..4 {
                w[i][j] = w[i - 8][j] ^ t[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 15];
        for (r, rkb) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rkb[c * 4..c * 4 + 4].copy_from_slice(&w[r * 4 + c]);
            }
        }
        let mut rk = [0u32; 60];
        for (i, word) in w.iter().enumerate() {
            rk[i] = u32::from_be_bytes(*word);
        }
        Aes256 { round_keys, rk }
    }

    /// Encrypt one 16-byte block in place (T-table path).
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        encrypt_one(&self.rk, block);
    }

    /// Encrypt one block with the byte-wise reference rounds.
    pub fn encrypt_block_scalar(&self, block: &mut [u8; 16]) {
        encrypt_scalar(&self.round_keys, block);
    }

    /// Encrypt four independent blocks with interleaved rounds.
    pub fn encrypt4(&self, blocks: &mut [[u8; 16]; 4]) {
        encrypt_four(&self.rk, blocks);
    }

    /// XOR the CTR keystream into `data`; see [`Aes128::ctr_xor_at`].
    pub fn ctr_xor_at(&self, nonce: &[u8; 8], data: &mut [u8], start_block: u64) {
        ctr_xor_selected(&self.round_keys, &self.rk, nonce, data, start_block);
    }

    /// The portable T-table keystream; see [`Aes128::ctr_xor_at_portable`].
    pub fn ctr_xor_at_portable(&self, nonce: &[u8; 8], data: &mut [u8], start_block: u64) {
        ctr_xor(&self.rk, nonce, data, start_block);
    }
}

/// Byte-wise reference encryption shared by both key sizes.
fn encrypt_scalar(round_keys: &[[u8; 16]], block: &mut [u8; 16]) {
    let nr = round_keys.len() - 1;
    add_round_key(block, &round_keys[0]);
    for rk in &round_keys[1..nr] {
        sub_bytes(block);
        shift_rows(block);
        mix_columns(block);
        add_round_key(block, rk);
    }
    sub_bytes(block);
    shift_rows(block);
    add_round_key(block, &round_keys[nr]);
}

#[inline]
fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        state[i] ^= rk[i];
    }
}

#[inline]
fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

/// State layout is column-major: byte (row r, col c) is `state[c*4 + r]`.
#[inline]
fn shift_rows(state: &mut [u8; 16]) {
    // Row 1: shift left by 1.
    let t = state[1];
    state[1] = state[5];
    state[5] = state[9];
    state[9] = state[13];
    state[13] = t;
    // Row 2: shift left by 2.
    state.swap(2, 10);
    state.swap(6, 14);
    // Row 3: shift left by 3 (= right by 1).
    let t = state[15];
    state[15] = state[11];
    state[11] = state[7];
    state[7] = state[3];
    state[3] = t;
}

#[inline]
fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = &mut state[c * 4..c * 4 + 4];
        let (a0, a1, a2, a3) = (col[0], col[1], col[2], col[3]);
        let all = a0 ^ a1 ^ a2 ^ a3;
        col[0] = a0 ^ all ^ xtime(a0 ^ a1);
        col[1] = a1 ^ all ^ xtime(a1 ^ a2);
        col[2] = a2 ^ all ^ xtime(a2 ^ a3);
        col[3] = a3 ^ all ^ xtime(a3 ^ a0);
    }
}

/// CTR mode over AES-128. Encryption and decryption are the same operation.
pub struct AesCtr {
    cipher: Aes128,
    nonce: [u8; 8],
}

impl AesCtr {
    /// Create a CTR context with an 8-byte nonce; the remaining 8 bytes of
    /// the counter block hold the big-endian block index.
    pub fn new(key: &[u8; 16], nonce: [u8; 8]) -> Self {
        AesCtr { cipher: Aes128::new(key), nonce }
    }

    /// Create a CTR context from an already-expanded cipher, skipping the
    /// key schedule. This is how per-object nonce streams share one
    /// cached schedule.
    pub fn from_cipher(cipher: Aes128, nonce: [u8; 8]) -> Self {
        AesCtr { cipher, nonce }
    }

    /// XOR the keystream (starting at block `start_block`) into `data`.
    pub fn apply_keystream_at(&self, data: &mut [u8], start_block: u64) {
        self.cipher.ctr_xor_at(&self.nonce, data, start_block);
    }

    /// XOR the keystream into `data` starting at block 0.
    pub fn apply_keystream(&self, data: &mut [u8]) {
        self.apply_keystream_at(data, 0);
    }
}

/// CTR mode over AES-256; same counter-block layout as [`AesCtr`].
pub struct AesCtr256 {
    cipher: Aes256,
    nonce: [u8; 8],
}

impl AesCtr256 {
    /// Create a CTR context with an 8-byte nonce.
    pub fn new(key: &[u8; 32], nonce: [u8; 8]) -> Self {
        AesCtr256 { cipher: Aes256::new(key), nonce }
    }

    /// Create a CTR context from an already-expanded cipher.
    pub fn from_cipher(cipher: Aes256, nonce: [u8; 8]) -> Self {
        AesCtr256 { cipher, nonce }
    }

    /// XOR the keystream (starting at block `start_block`) into `data`.
    pub fn apply_keystream_at(&self, data: &mut [u8], start_block: u64) {
        self.cipher.ctr_xor_at(&self.nonce, data, start_block);
    }

    /// XOR the keystream into `data` starting at block 0.
    pub fn apply_keystream(&self, data: &mut [u8]) {
        self.apply_keystream_at(data, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn fips197_appendix_b() {
        let key: [u8; 16] = unhex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let mut block: [u8; 16] =
            unhex("3243f6a8885a308d313198a2e0370734").try_into().unwrap();
        Aes128::new(&key).encrypt_block(&mut block);
        assert_eq!(hex(&block), "3925841d02dc09fbdc118597196a0b32");
    }

    #[test]
    fn fips197_appendix_c1() {
        let key: [u8; 16] = unhex("000102030405060708090a0b0c0d0e0f").try_into().unwrap();
        let mut block: [u8; 16] =
            unhex("00112233445566778899aabbccddeeff").try_into().unwrap();
        Aes128::new(&key).encrypt_block(&mut block);
        assert_eq!(hex(&block), "69c4e0d86a7b0430d8cdb78070b4c55a");
    }

    #[test]
    fn fips197_appendix_c3_aes256() {
        let key: [u8; 32] =
            unhex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
                .try_into()
                .unwrap();
        let mut block: [u8; 16] =
            unhex("00112233445566778899aabbccddeeff").try_into().unwrap();
        Aes256::new(&key).encrypt_block(&mut block);
        assert_eq!(hex(&block), "8ea2b7ca516745bfeafc49904b496089");
    }

    #[test]
    fn ttable_matches_scalar_reference() {
        let c128 = Aes128::new(&[0x5a; 16]);
        let c256 = Aes256::new(&[0xa5; 32]);
        for seed in 0u8..32 {
            let mut a = [0u8; 16];
            for (i, b) in a.iter_mut().enumerate() {
                *b = seed.wrapping_mul(31).wrapping_add(i as u8 * 17);
            }
            let mut t = a;
            let mut s = a;
            c128.encrypt_block(&mut t);
            c128.encrypt_block_scalar(&mut s);
            assert_eq!(t, s, "aes128 seed {seed}");
            let mut t = a;
            let mut s = a;
            c256.encrypt_block(&mut t);
            c256.encrypt_block_scalar(&mut s);
            assert_eq!(t, s, "aes256 seed {seed}");
        }
    }

    #[test]
    fn encrypt4_matches_single() {
        let cipher = Aes128::new(&[0x3c; 16]);
        let mut quad = [[0u8; 16]; 4];
        for (i, b) in quad.iter_mut().enumerate() {
            b.fill(i as u8 * 63);
        }
        let singles: Vec<[u8; 16]> = quad
            .iter()
            .map(|b| {
                let mut s = *b;
                cipher.encrypt_block(&mut s);
                s
            })
            .collect();
        cipher.encrypt4(&mut quad);
        assert_eq!(quad.to_vec(), singles);
    }

    #[test]
    fn ctr_roundtrip() {
        let key = [7u8; 16];
        let ctr = AesCtr::new(&key, *b"noncenon");
        let plain: Vec<u8> = (0..100u8).collect();
        let mut data = plain.clone();
        ctr.apply_keystream(&mut data);
        assert_ne!(data, plain);
        ctr.apply_keystream(&mut data);
        assert_eq!(data, plain);
    }

    #[test]
    fn ctr_seek_matches_stream() {
        // Applying the keystream from block 2 must equal the tail of a
        // from-zero application.
        let key = [9u8; 16];
        let ctr = AesCtr::new(&key, [1, 2, 3, 4, 5, 6, 7, 8]);
        let mut full = vec![0u8; 64];
        ctr.apply_keystream(&mut full);
        let mut tail = vec![0u8; 32];
        ctr.apply_keystream_at(&mut tail, 2);
        assert_eq!(&full[32..], &tail[..]);
    }

    #[test]
    fn ctr_distinct_nonces_distinct_streams() {
        let key = [3u8; 16];
        let mut a = vec![0u8; 16];
        let mut b = vec![0u8; 16];
        AesCtr::new(&key, [0; 8]).apply_keystream(&mut a);
        AesCtr::new(&key, [1, 0, 0, 0, 0, 0, 0, 0]).apply_keystream(&mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn ctr_partial_block() {
        let key = [5u8; 16];
        let ctr = AesCtr::new(&key, [0; 8]);
        let mut data = vec![0xAAu8; 7];
        ctr.apply_keystream(&mut data);
        ctr.apply_keystream(&mut data);
        assert_eq!(data, vec![0xAAu8; 7]);
    }

    #[test]
    fn ctr_from_cipher_matches_keyed() {
        let key = [0x42u8; 16];
        let nonce = [9u8; 8];
        let mut a = vec![0u8; 80];
        let mut b = vec![0u8; 80];
        AesCtr::new(&key, nonce).apply_keystream(&mut a);
        AesCtr::from_cipher(Aes128::new(&key), nonce).apply_keystream(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn ctr256_roundtrip_and_seek() {
        let key = [0x11u8; 32];
        let ctr = AesCtr256::new(&key, [2; 8]);
        let plain: Vec<u8> = (0..130).map(|i| i as u8).collect();
        let mut data = plain.clone();
        ctr.apply_keystream(&mut data);
        assert_ne!(data, plain);
        let mut tail = data[64..].to_vec();
        ctr.apply_keystream_at(&mut tail, 4);
        assert_eq!(&tail[..], &plain[64..]);
    }
}
