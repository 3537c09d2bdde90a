//! The manager's resident state image — the memory-dump target.
//!
//! A real vTPM manager keeps every instance's working state in its own
//! address space, which on the baseline system is ordinary Dom0 memory:
//! anything with Dom0 privileges (or a Dom0 memory-dump tool, per the
//! paper's abstract) reads the instances' EKs, SRKs, owner secrets in the
//! clear. This module makes that explicit: each instance's serialized
//! state is *mirrored* into simulated Dom0 frames after every mutation.
//!
//! * [`MirrorMode::Cleartext`] — baseline: the snapshot bytes go into the
//!   frames as-is.
//! * [`MirrorMode::Encrypted`] — the paper's AC3: the snapshot is
//!   AES-128-CTR-encrypted with a per-manager master key that lives only
//!   in a hypervisor-protected frame, so a dump yields ciphertext and no
//!   key.
//!
//! # Region layout: A/B shadow slots with an atomic metadata commit
//!
//! Each instance's region is one self-describing metadata frame plus
//! *two* frame slots per data page. The committed image lives in each
//! page's *active* slot; updates write dirty pages into the *inactive*
//! (shadow) slot and then commit the whole generation with a single
//! metadata-frame write — the frame store writes pages atomically, so a
//! crash between any two writes leaves either the old or the new
//! generation fully intact, never a torn mix.
//!
//! ```text
//! metadata frame: [0..4)   magic "VTMR"
//!                 [4..8)   instance id, u32 BE
//!                 [8..16)  generation, u64 BE
//!                 [16..24) payload length, u64 BE
//!                 [24..28) data page count, u32 BE
//!                 [28..36) key-check tag (Encrypted mode; zeros otherwise)
//!                 [36..u)  20-byte page entries, u = 36 + 20 * count:
//!                            active mfn u32 | shadow mfn u32 |
//!                            write counter u32 | stored-payload digest 8 B
//!                 [u..end-32) zero filler
//!                 [end-32..) SHA-256 of [0..u)
//! data frames:    payload pages (slot A / slot B): the page's payload
//!                 bytes, then a zero tail (only the last page has one)
//! ```
//!
//! The crypto cost follows the payload, not the page. Each data page's
//! payload bytes are AES-CTR'd at the page's fixed block offset and
//! digested; the zero tail is neither encrypted nor hashed. Instead a
//! reader rejects any frame whose tail is not all zero, and any metadata
//! frame with a nonzero filler byte, so every byte of a committed frame is
//! still covered — by the digest or checksum, or by that zero check. The
//! zero tail shows the payload length, which `[16..24)` already stores in
//! the clear.
//!
//! Updates are incremental: the mirror keeps a plaintext cache of the
//! last image and rewrites only the data pages whose contents changed
//! (plus the metadata frame). In `Encrypted` mode every page write uses a
//! fresh nonce — `id || generation` — and a per-page CTR block offset,
//! so no two writes of *different* plaintext ever share a keystream (the
//! classic CTR two-time-pad the old whole-image scheme was open to).
//!
//! **Failed updates burn their generation.** A dirty update may die after
//! encrypting shadow pages under `generation + 1` but before the commit;
//! those nonces are *consumed* even though nothing committed. The region
//! tracks the highest possibly-consumed generation (`attempted`), and a
//! retry first re-commits the *old* image's metadata at `attempted` —
//! durably burning the consumed counters — before encrypting anything
//! under `attempted + 1`. The durable invariant this maintains is
//! `attempted <= committed generation + 1` at every instant, which is
//! exactly what lets [`StateMirror::recover`] cover all consumed nonces
//! by burning a single generation. Generations that would truncate in
//! the 32-bit nonce counter field are refused ([`XenError::BadImage`])
//! instead of silently wrapping the nonce space.
//!
//! **Hygiene.** After the commit, replaced slots and the slots of dropped
//! pages are zeroed, so no byte of a previous, committed generation
//! survives in a Dom0 dump. A crash inside that post-commit scrub (or
//! mid-update, leaving uncommitted bytes in shadow slots) is healed by
//! [`StateMirror::recover`], which re-scrubs every shadow slot. The one
//! accepted gap: frames allocated for an uncommitted *growth* are not
//! reachable from the committed metadata and stay unscrubbed until
//! reused — in `Encrypted` mode they only ever hold ciphertext.
//!
//! **Recovery.** [`StateMirror::recover`] rebuilds the whole region table
//! from a Dom0 memory scan alone: it finds checksummed "VTMR" metadata
//! frames, verifies the key-check tag and per-page digests, and restores
//! each instance's committed image. It then *burns a generation* — the
//! crashed manager may have consumed `generation + 1` nonces on
//! uncommitted shadow writes, so recovery re-commits the metadata at
//! `generation + 1`, guaranteeing future writes never reuse a (page,
//! counter) pair even across crash/restart cycles.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use tpm_crypto::aes::Aes128;
use xen_sim::{DomainId, Hypervisor, Result as XenResult, XenError, PAGE_SIZE};

/// Metadata magic: identifies a mirror metadata frame in a memory scan.
const META_MAGIC: [u8; 4] = *b"VTMR";
/// Fixed metadata header size (magic, id, generation, length, page
/// count, key-check tag).
const META_FIXED: usize = 36;
/// Per-page metadata entry: active mfn, shadow mfn, counter, digest.
const META_ENTRY: usize = 20;
/// Trailing SHA-256 over the rest of the metadata frame.
const META_CHECKSUM: usize = 32;
/// AES blocks per data page (disjoint CTR ranges across pages).
const BLOCKS_PER_PAGE: u64 = (PAGE_SIZE / 16) as u64;
/// Data pages addressable by one metadata frame (~800 KiB of state).
const MAX_DATA_PAGES: usize = (PAGE_SIZE - META_FIXED - META_CHECKSUM) / META_ENTRY;
/// Largest state one region can mirror.
pub(crate) const MAX_STATE_BYTES: usize = MAX_DATA_PAGES * PAGE_SIZE;

/// How instance state is held in Dom0 memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MirrorMode {
    /// Baseline: cleartext resident image.
    Cleartext,
    /// Improved (AC3): encrypted resident image, key in protected memory.
    Encrypted,
}

struct Region {
    /// The metadata frame, allocated on the first non-empty update.
    meta_mfn: Option<usize>,
    /// This instance's key-check tag, computed once when the region is
    /// created (see [`StateMirror::key_check_tag`]).
    key_check: [u8; 8],
    /// Two backing frames per data page (A/B slots).
    slots: Vec<[usize; 2]>,
    /// Which slot of each page holds the committed image.
    active: Vec<u8>,
    /// Committed payload length.
    len: usize,
    /// Committed generation; bumped on every dirty update and mixed into
    /// the nonce of each page written during that update.
    generation: u64,
    /// Highest generation whose nonces may have been consumed by shadow
    /// writes, committed or not. Equal to `generation` except after a
    /// failed dirty update; a retry must durably burn it (re-commit the
    /// old metadata at `attempted`) before consuming `attempted + 1`, so
    /// `attempted <= on-frame generation + 1` always holds and recovery's
    /// single-generation burn covers every consumed nonce.
    attempted: u64,
    /// Counter value each data page was last written with (nonce part).
    page_counters: Vec<u32>,
    /// Truncated SHA-256 of each page's stored (post-cipher) bytes.
    page_digests: Vec<[u8; 8]>,
    /// Plaintext of the last mirrored image — the diff baseline.
    cache: Vec<u8>,
    /// Scrubbed frames freed by shrinks, kept for regrow reuse.
    spare: Vec<usize>,
}

/// Shards in the striped region table (a power of two: ids map to
/// shards with a mask).
const REGION_SHARDS: usize = 64;

/// N-way striped id → region map. Create/destroy of one instance takes
/// only its shard's lock, so mass churn stops serializing on a single
/// global table lock.
struct RegionTable {
    shards: Vec<RwLock<HashMap<u32, Arc<Mutex<Region>>>>>,
}

impl RegionTable {
    fn new() -> Self {
        RegionTable {
            shards: (0..REGION_SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, id: u32) -> &RwLock<HashMap<u32, Arc<Mutex<Region>>>> {
        &self.shards[id as usize & (REGION_SHARDS - 1)]
    }

    fn get(&self, id: u32) -> Option<Arc<Mutex<Region>>> {
        self.shard(id).read().get(&id).cloned()
    }

    fn contains(&self, id: u32) -> bool {
        self.shard(id).read().contains_key(&id)
    }

    fn insert(&self, id: u32, region: Arc<Mutex<Region>>) {
        self.shard(id).write().insert(id, region);
    }

    /// Every tracked id, ascending.
    fn ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self
            .shards
            .iter()
            .flat_map(|s| s.read().keys().copied().collect::<Vec<_>>())
            .collect();
        ids.sort_unstable();
        ids
    }
}

/// A parsed per-page metadata entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MetaEntry {
    active_mfn: u32,
    shadow_mfn: u32,
    counter: u32,
    digest: [u8; 8],
}

/// Truncated digest of a stored page's payload bytes (corruption
/// detection; the zero tail is checked by comparison instead).
fn page_digest(payload: &[u8]) -> [u8; 8] {
    tpm_crypto::sha256(payload)[..8].try_into().expect("8 bytes")
}

/// Bytes of a metadata frame in use for `count` page entries: the
/// checksummed prefix.
fn meta_used(count: usize) -> usize {
    META_FIXED + META_ENTRY * count
}

/// Serialize a full metadata frame, checksummed over its used prefix.
fn build_meta(
    id: u32,
    generation: u64,
    len: u64,
    key_check: [u8; 8],
    entries: &[MetaEntry],
) -> [u8; PAGE_SIZE] {
    let mut meta = [0u8; PAGE_SIZE];
    meta[..4].copy_from_slice(&META_MAGIC);
    meta[4..8].copy_from_slice(&id.to_be_bytes());
    meta[8..16].copy_from_slice(&generation.to_be_bytes());
    meta[16..24].copy_from_slice(&len.to_be_bytes());
    meta[24..28].copy_from_slice(&(entries.len() as u32).to_be_bytes());
    meta[28..36].copy_from_slice(&key_check);
    for (i, e) in entries.iter().enumerate() {
        let at = META_FIXED + META_ENTRY * i;
        meta[at..at + 4].copy_from_slice(&e.active_mfn.to_be_bytes());
        meta[at + 4..at + 8].copy_from_slice(&e.shadow_mfn.to_be_bytes());
        meta[at + 8..at + 12].copy_from_slice(&e.counter.to_be_bytes());
        meta[at + 12..at + 20].copy_from_slice(&e.digest);
    }
    let sum = tpm_crypto::sha256(&meta[..meta_used(entries.len())]);
    meta[PAGE_SIZE - META_CHECKSUM..].copy_from_slice(&sum);
    meta
}

/// Parse and validate a metadata frame. `None` for anything that is not
/// a well-formed, checksum-intact mirror metadata page: `count` is
/// bounded before it sizes anything, and the filler between the last
/// entry and the checksum must be zero.
fn parse_meta(meta: &[u8]) -> Option<(u32, u64, usize, [u8; 8], Vec<MetaEntry>)> {
    if meta.len() != PAGE_SIZE || meta[..4] != META_MAGIC {
        return None;
    }
    let count = u32::from_be_bytes(meta[24..28].try_into().ok()?) as usize;
    if count > MAX_DATA_PAGES {
        return None;
    }
    let used = meta_used(count);
    if meta[used..PAGE_SIZE - META_CHECKSUM].iter().any(|&b| b != 0) {
        return None;
    }
    let sum = tpm_crypto::sha256(&meta[..used]);
    if meta[PAGE_SIZE - META_CHECKSUM..] != sum {
        return None;
    }
    let id = u32::from_be_bytes(meta[4..8].try_into().ok()?);
    let generation = u64::from_be_bytes(meta[8..16].try_into().ok()?);
    let len = usize::try_from(u64::from_be_bytes(meta[16..24].try_into().ok()?)).ok()?;
    let key_check: [u8; 8] = meta[28..36].try_into().ok()?;
    if len.div_ceil(PAGE_SIZE) != count {
        return None;
    }
    let mut entries = Vec::with_capacity(count);
    for i in 0..count {
        let at = META_FIXED + META_ENTRY * i;
        entries.push(MetaEntry {
            active_mfn: u32::from_be_bytes(meta[at..at + 4].try_into().ok()?),
            shadow_mfn: u32::from_be_bytes(meta[at + 4..at + 8].try_into().ok()?),
            counter: u32::from_be_bytes(meta[at + 8..at + 12].try_into().ok()?),
            digest: meta[at + 12..at + 20].try_into().ok()?,
        });
    }
    Some((id, generation, len, key_check, entries))
}

/// Mirror write-path counters (all monotonic; snapshot with
/// [`StateMirror::io_stats`]). The benches report bytes-per-command from
/// these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MirrorIoStats {
    /// `update` calls.
    pub updates: u64,
    /// `update` calls that found nothing dirty and wrote no page at all.
    pub clean_updates: u64,
    /// Data pages rewritten because their contents changed.
    pub data_pages_written: u64,
    /// Stale trailing pages zeroed by scrub-on-shrink.
    pub pages_scrubbed: u64,
    /// Metadata pages written.
    pub meta_pages_written: u64,
    /// Total bytes pushed through `page_write`.
    pub bytes_written: u64,
    /// Post-commit scrubs that failed. The commit itself stood; the stale
    /// slot bytes linger until the frame is reused or `recover` re-scrubs.
    pub scrub_failures: u64,
    /// Updates that first had to durably burn generations a failed
    /// earlier attempt consumed (`attempted > generation` on entry) —
    /// each one is a retry after a mirror failure, re-committing the old
    /// image's metadata before consuming fresh CTR nonces.
    pub retried_generation_burns: u64,
}

#[derive(Default)]
struct IoCounters {
    updates: AtomicU64,
    clean_updates: AtomicU64,
    data_pages_written: AtomicU64,
    pages_scrubbed: AtomicU64,
    meta_pages_written: AtomicU64,
    bytes_written: AtomicU64,
    scrub_failures: AtomicU64,
    retried_generation_burns: AtomicU64,
}

/// The mirror. One per manager.
///
/// Concurrency shape: the region table is read-mostly (`RwLock`); each
/// instance's region sits behind its own `Mutex`, so concurrent requests
/// to *different* instances mirror their state in parallel — the manager
/// hot path never funnels through a global lock.
pub struct StateMirror {
    hv: Arc<Hypervisor>,
    mode: MirrorMode,
    regions: RegionTable,
    /// AES key (Encrypted mode). Also written to `key_frame` so the
    /// "protected memory" story is literal: the only in-simulation copy
    /// of the key sits in a frame the dump facility refuses to read.
    master_key: Option<[u8; 16]>,
    /// Expanded AES schedule for `master_key`, computed once at
    /// construction: every page of every snapshot streams through this
    /// cached schedule instead of re-expanding the key per page.
    master_cipher: Option<Aes128>,
    key_frame: Option<usize>,
    io: IoCounters,
    /// Opt-in (page, counter) nonce-pair audit (tests/harness).
    audit_on: std::sync::atomic::AtomicBool,
    audit: Mutex<NonceAudit>,
}

/// Records every (id, page, counter) CTR nonce tuple ever used, counting
/// collisions. Enabled by [`StateMirror::enable_nonce_audit`].
#[derive(Default)]
struct NonceAudit {
    seen: std::collections::HashSet<(u32, u32, u32)>,
    reuses: u64,
}

/// What [`StateMirror::recover`] found in the Dom0 memory scan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MirrorRecovery {
    /// Instances rebuilt from committed metadata, ascending id order.
    pub recovered: Vec<u32>,
    /// Instances whose metadata was found but whose pages (or key-check
    /// tag) failed verification; their state is NOT loaded.
    pub corrupt: Vec<u32>,
    /// Shadow slots zeroed while healing possible crash leftovers.
    pub shadow_pages_scrubbed: u64,
}

fn page_slice(buf: &[u8], i: usize) -> &[u8] {
    let start = i * PAGE_SIZE;
    if start >= buf.len() {
        &[]
    } else {
        &buf[start..buf.len().min(start + PAGE_SIZE)]
    }
}

impl StateMirror {
    /// Create a mirror; in `Encrypted` mode, `master_key` is stored in a
    /// freshly allocated hypervisor-protected Dom0 frame.
    pub fn new(hv: Arc<Hypervisor>, mode: MirrorMode, master_key: [u8; 16]) -> XenResult<Self> {
        let (key, key_frame) = match mode {
            MirrorMode::Cleartext => (None, None),
            MirrorMode::Encrypted => {
                let mfn = hv.alloc_pages(DomainId::DOM0, 1)?[0];
                hv.page_write(DomainId::DOM0, mfn, 0, &master_key)?;
                hv.protect_frame(DomainId::DOM0, mfn)?;
                (Some(master_key), Some(mfn))
            }
        };
        Ok(StateMirror {
            hv,
            mode,
            regions: RegionTable::new(),
            master_cipher: key.as_ref().map(Aes128::new),
            master_key: key,
            key_frame,
            io: IoCounters::default(),
            audit_on: std::sync::atomic::AtomicBool::new(false),
            audit: Mutex::new(NonceAudit::default()),
        })
    }

    /// Start recording every (page, counter) nonce pair this mirror uses
    /// so tests can assert none is ever reused.
    pub fn enable_nonce_audit(&self) {
        self.audit_on.store(true, Ordering::Relaxed);
    }

    /// Number of nonce-pair collisions observed since the audit was
    /// enabled (0 when the audit is off — or when the scheme is sound).
    pub fn nonce_reuses(&self) -> u64 {
        self.audit.lock().reuses
    }

    fn audit_nonce(&self, id: u32, page: u32, counter: u32) {
        if self.audit_on.load(Ordering::Relaxed) {
            let mut audit = self.audit.lock();
            if !audit.seen.insert((id, page, counter)) {
                audit.reuses += 1;
            }
        }
    }

    /// Per-instance tag binding the metadata frame to the master key, so
    /// recovery under a wrong key fails loudly instead of decrypting
    /// garbage. Zeros in `Cleartext` mode.
    fn key_check_tag(&self, id: u32) -> [u8; 8] {
        match &self.master_key {
            None => [0; 8],
            Some(key) => {
                let mut buf = Vec::with_capacity(16 + 4 + 17);
                buf.extend_from_slice(key);
                buf.extend_from_slice(&id.to_be_bytes());
                buf.extend_from_slice(b"/mirror-key-check");
                tpm_crypto::sha256(&buf)[..8].try_into().expect("8 bytes")
            }
        }
    }

    /// The mode this mirror runs in.
    pub fn mode(&self) -> MirrorMode {
        self.mode
    }

    /// The protected key frame, if any (diagnostics/tests).
    pub fn key_frame(&self) -> Option<usize> {
        self.key_frame
    }

    /// The master key (crate-internal: the persistence layer seals it to
    /// the hardware TPM; it must never cross the crate boundary).
    pub(crate) fn master_key(&self) -> Option<[u8; 16]> {
        self.master_key
    }

    /// Snapshot the write-path counters.
    pub fn io_stats(&self) -> MirrorIoStats {
        MirrorIoStats {
            updates: self.io.updates.load(Ordering::Relaxed),
            clean_updates: self.io.clean_updates.load(Ordering::Relaxed),
            data_pages_written: self.io.data_pages_written.load(Ordering::Relaxed),
            pages_scrubbed: self.io.pages_scrubbed.load(Ordering::Relaxed),
            meta_pages_written: self.io.meta_pages_written.load(Ordering::Relaxed),
            bytes_written: self.io.bytes_written.load(Ordering::Relaxed),
            scrub_failures: self.io.scrub_failures.load(Ordering::Relaxed),
            retried_generation_burns: self.io.retried_generation_burns.load(Ordering::Relaxed),
        }
    }

    /// Fetch or create the per-instance region handle. Only the id's
    /// shard is locked.
    fn region_handle(&self, id: u32) -> Arc<Mutex<Region>> {
        let shard = self.regions.shard(id);
        if let Some(r) = shard.read().get(&id) {
            return Arc::clone(r);
        }
        let mut table = shard.write();
        Arc::clone(table.entry(id).or_insert_with(|| {
            Arc::new(Mutex::new(Region {
                meta_mfn: None,
                key_check: self.key_check_tag(id),
                slots: Vec::new(),
                active: Vec::new(),
                len: 0,
                generation: 0,
                attempted: 0,
                page_counters: Vec::new(),
                page_digests: Vec::new(),
                cache: Vec::new(),
                spare: Vec::new(),
            }))
        }))
    }

    /// Pull a zeroed frame from the region's spare pool, or allocate.
    fn take_frame(&self, region: &mut Region) -> XenResult<usize> {
        match region.spare.pop() {
            Some(mfn) => Ok(mfn),
            None => Ok(self.hv.alloc_pages(DomainId::DOM0, 1)?[0]),
        }
    }

    /// Zero a frame, counting the scrub in the I/O stats.
    fn scrub_frame(&self, mfn: usize) -> XenResult<()> {
        let zeros = [0u8; PAGE_SIZE];
        self.hv.page_write(DomainId::DOM0, mfn, 0, &zeros)?;
        self.io.pages_scrubbed.fetch_add(1, Ordering::Relaxed);
        self.io.bytes_written.fetch_add(PAGE_SIZE as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Best-effort scrub for post-commit hygiene: the generation already
    /// committed, so a failure must not fail the update — count it and
    /// move on (the bytes linger until the frame is reused or `recover`
    /// re-scrubs the shadow slots).
    fn scrub_frame_best_effort(&self, mfn: usize) {
        if self.scrub_frame(mfn).is_err() {
            self.io.scrub_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Durably burn the nonces a failed earlier update may have consumed:
    /// re-commit the *currently committed* image's metadata at
    /// `region.attempted`, so the on-frame generation catches up with the
    /// highest consumed counter before the caller consumes `attempted + 1`.
    /// On failure nothing new was consumed and the burn stays pending.
    fn burn_attempted(&self, id: u32, region: &mut Region) -> XenResult<()> {
        let pages = region.len.div_ceil(PAGE_SIZE);
        let entries: Vec<MetaEntry> = (0..pages)
            .map(|i| {
                let act = region.active[i];
                MetaEntry {
                    active_mfn: region.slots[i][act as usize] as u32,
                    shadow_mfn: region.slots[i][1 - act as usize] as u32,
                    counter: region.page_counters[i],
                    digest: region.page_digests[i],
                }
            })
            .collect();
        let meta = build_meta(id, region.attempted, region.len as u64, region.key_check, &entries);
        let mfn = region.meta_mfn.expect("attempted > generation implies an allocated meta frame");
        self.hv.page_write(DomainId::DOM0, mfn, 0, &meta)?;
        self.io.meta_pages_written.fetch_add(1, Ordering::Relaxed);
        self.io.bytes_written.fetch_add(PAGE_SIZE as u64, Ordering::Relaxed);
        region.generation = region.attempted;
        Ok(())
    }

    /// Per-page CTR nonce: instance id then the page's write counter.
    fn page_nonce(id: u32, counter: u32) -> [u8; 8] {
        let mut nonce = [0u8; 8];
        nonce[..4].copy_from_slice(&id.to_be_bytes());
        nonce[4..8].copy_from_slice(&counter.to_be_bytes());
        nonce
    }

    /// Write `state` as instance `id`'s resident image, growing the
    /// backing region as needed. Takes only the instance's own lock.
    ///
    /// Incremental and crash-consistent: only pages whose plaintext
    /// differs from the cached previous image are rewritten, each into
    /// its page's inactive (shadow) slot; the single metadata-frame
    /// write at the end is the atomic commit point. The in-memory region
    /// only flips to the new generation after that commit succeeds, so a
    /// failure anywhere leaves the committed image untouched (and, if it
    /// got as far as its shadow writes, `attempted = generation + 1` for
    /// the next update to burn).
    ///
    /// Returns the bytes durably written to publish this update — dirty
    /// data pages plus metadata commits (including a retry's generation
    /// burn), excluding post-commit hygiene scrubs — which telemetry
    /// records as mirror-bytes-per-command. A clean update returns 0.
    pub fn update(&self, id: u32, state: &[u8]) -> XenResult<u64> {
        let data_pages = state.len().div_ceil(PAGE_SIZE);
        if data_pages > MAX_DATA_PAGES {
            return Err(XenError::StateTooLarge { bytes: state.len(), max: MAX_STATE_BYTES });
        }
        let handle = self.region_handle(id);
        let mut guard = handle.lock();
        let region = &mut *guard;
        self.io.updates.fetch_add(1, Ordering::Relaxed);

        let old_pages = region.len.div_ceil(PAGE_SIZE);
        // A page is dirty when its payload bytes or its payload length
        // changed: the digest and keystream cover exactly the payload.
        let dirty: Vec<usize> = (0..data_pages)
            .filter(|&i| page_slice(state, i) != page_slice(&region.cache, i))
            .collect();
        let shrunk = data_pages < old_pages;
        if dirty.is_empty() && !shrunk && state.len() == region.len {
            self.io.clean_updates.fetch_add(1, Ordering::Relaxed);
            return Ok(0);
        }
        let mut bytes_this_update = 0u64;

        if region.meta_mfn.is_none() {
            let mfn = self.take_frame(region)?;
            region.meta_mfn = Some(mfn);
        }
        while region.slots.len() < data_pages {
            let a = self.take_frame(region)?;
            let b = self.take_frame(region)?;
            region.slots.push([a, b]);
            // New pages are written below; slot 0 becomes active at
            // commit (the placeholder 1 makes the target math uniform).
            region.active.push(1);
        }

        // A failed earlier update may have consumed `attempted` nonces
        // without committing; burn them durably before consuming more, or
        // an in-process retry would re-encrypt different plaintext under
        // the same (id, page, counter) CTR nonce — keystream reuse for an
        // attacker holding dumps from before and after the retry.
        if region.attempted > region.generation {
            self.burn_attempted(id, region)?;
            self.io.retried_generation_burns.fetch_add(1, Ordering::Relaxed);
            bytes_this_update += PAGE_SIZE as u64;
        }
        let next_gen = region.generation + 1;
        // The nonce carries the generation as a u32; refuse to wrap the
        // counter space rather than silently truncate into reuse.
        if next_gen > u64::from(u32::MAX) {
            return Err(XenError::BadImage("mirror nonce space exhausted; re-key required"));
        }
        let counter = next_gen as u32;

        // Write every dirty page into its shadow slot. Nothing here is
        // visible to readers until the metadata commit. The first shadow
        // write consumes `next_gen` nonces, so mark them attempted first.
        if !dirty.is_empty() {
            region.attempted = next_gen;
        }
        let mut new_counters = region.page_counters.clone();
        new_counters.resize(data_pages, 0);
        let mut new_digests = region.page_digests.clone();
        new_digests.resize(data_pages, [0; 8]);
        let mut new_active = region.active.clone();
        // Only the payload bytes are encrypted and digested; the frame
        // still gets a full page write, payload then zero tail.
        let mut page = [0u8; PAGE_SIZE];
        for &i in &dirty {
            let chunk = page_slice(state, i);
            let (payload, tail) = page.split_at_mut(chunk.len());
            payload.copy_from_slice(chunk);
            tail.fill(0);
            if let MirrorMode::Encrypted = self.mode {
                let cipher = self.master_cipher.as_ref().expect("encrypted mode has key");
                cipher.ctr_xor_at(&Self::page_nonce(id, counter), payload, i as u64 * BLOCKS_PER_PAGE);
                self.audit_nonce(id, i as u32, counter);
            }
            let target = 1 - region.active[i];
            self.hv.page_write(DomainId::DOM0, region.slots[i][target as usize], 0, &page)?;
            self.io.data_pages_written.fetch_add(1, Ordering::Relaxed);
            self.io.bytes_written.fetch_add(PAGE_SIZE as u64, Ordering::Relaxed);
            bytes_this_update += PAGE_SIZE as u64;
            new_counters[i] = counter;
            new_digests[i] = page_digest(&page[..chunk.len()]);
            new_active[i] = target;
        }

        // The commit point: one atomic metadata-frame write.
        let entries: Vec<MetaEntry> = (0..data_pages)
            .map(|i| {
                let act = new_active[i] as usize;
                MetaEntry {
                    active_mfn: region.slots[i][act] as u32,
                    shadow_mfn: region.slots[i][1 - act] as u32,
                    counter: new_counters[i],
                    digest: new_digests[i],
                }
            })
            .collect();
        let meta = build_meta(id, next_gen, state.len() as u64, region.key_check, &entries);
        let meta_mfn = region.meta_mfn.expect("allocated above");
        self.hv.page_write(DomainId::DOM0, meta_mfn, 0, &meta)?;
        self.io.meta_pages_written.fetch_add(1, Ordering::Relaxed);
        self.io.bytes_written.fetch_add(PAGE_SIZE as u64, Ordering::Relaxed);
        bytes_this_update += PAGE_SIZE as u64;

        // Committed — fold the new generation into the in-memory region.
        region.generation = next_gen;
        region.attempted = next_gen;
        region.active = new_active;
        region.page_counters = new_counters;
        region.page_digests = new_digests;
        region.len = state.len();
        region.cache = state.to_vec();

        // Post-commit hygiene: zero the replaced slots of rewritten
        // pages that existed in the previous image, and both slots of
        // dropped pages (which join the spare pool). The commit already
        // stood, so scrub failures are counted but never fail the update
        // — returning Err here would leave the manager's
        // mirrored-generation marker stale and trigger a spurious full
        // re-mirror (burning another generation) for a mutation that in
        // fact committed. A crash or failure in here strands stale bytes
        // only until the frame is reused or `recover` re-scrubs every
        // shadow slot.
        for &i in dirty.iter().filter(|&&i| i < old_pages) {
            self.scrub_frame_best_effort(region.slots[i][1 - region.active[i] as usize]);
        }
        while region.slots.len() > data_pages {
            let [a, b] = region.slots.pop().expect("len checked");
            region.active.pop();
            self.scrub_frame_best_effort(a);
            self.scrub_frame_best_effort(b);
            region.spare.push(a);
            region.spare.push(b);
        }
        Ok(bytes_this_update)
    }

    /// Tear down a region whose first update never committed
    /// (`generation == 0`) — the create/adopt/restore error path, where
    /// a failed initial `update` left allocated, possibly part-written
    /// frames tracked but no metadata ever published. Scrubs are
    /// best-effort (the fault that failed the update may still hold;
    /// the frames carry no committed metadata and, in `Encrypted` mode,
    /// only ciphertext, so nothing can be resurrected from them) and
    /// the region is untracked unconditionally. Regions with a
    /// committed generation are left untouched: a failed re-update of a
    /// live region (e.g. a restore onto a recovered id) keeps its
    /// committed image and the ordinary burn-on-retry semantics.
    pub fn discard_uncommitted(&self, id: u32) -> XenResult<()> {
        let committed = match self.regions.get(id) {
            None => return Ok(()),
            Some(handle) => handle.lock().generation > 0,
        };
        if committed {
            return Ok(());
        }
        let mut table = self.regions.shard(id).write();
        let Some(handle) = table.get(&id).cloned() else {
            return Ok(());
        };
        let region = handle.lock();
        for mfn in region
            .meta_mfn
            .into_iter()
            .chain(region.slots.iter().flatten().copied())
            .chain(region.spare.iter().copied())
        {
            self.scrub_frame_best_effort(mfn);
        }
        drop(region);
        table.remove(&id);
        Ok(())
    }

    /// Read back instance `id`'s resident image (decrypting in Encrypted
    /// mode). This is the manager's own access path; the attacker reads
    /// the frames through the dump facility instead.
    ///
    /// Verifies the metadata checksum and every page digest, so any
    /// corruption of the resident frames surfaces as
    /// [`XenError::BadImage`] instead of silently decoding garbage.
    pub fn read(&self, id: u32) -> XenResult<Vec<u8>> {
        let handle = self.regions.get(id).ok_or(XenError::BadFrame)?;
        let region = handle.lock();
        let meta_mfn = region.meta_mfn.ok_or(XenError::BadFrame)?;
        let mut meta = [0u8; PAGE_SIZE];
        self.hv.page_read(DomainId::DOM0, meta_mfn, 0, &mut meta)?;
        let (mid, generation, len, key_check, entries) =
            parse_meta(&meta).ok_or(XenError::BadImage("mirror metadata corrupt"))?;
        if mid != id || generation != region.generation || len != region.len {
            return Err(XenError::BadImage("mirror metadata stale"));
        }
        if key_check != region.key_check {
            return Err(XenError::BadImage("mirror key mismatch"));
        }
        self.decode_image(id, len, &entries)
    }

    /// Read, verify, and decrypt the committed image a metadata frame
    /// describes. A frame must hold its payload bytes then an all-zero
    /// tail: the tail is checked by comparison (before the digest, which
    /// covers the payload only), so no stored byte goes unverified.
    fn decode_image(&self, id: u32, len: usize, entries: &[MetaEntry]) -> XenResult<Vec<u8>> {
        let mut image = vec![0u8; len];
        let mut page = [0u8; PAGE_SIZE];
        for (i, e) in entries.iter().enumerate() {
            self.hv.page_read(DomainId::DOM0, e.active_mfn as usize, 0, &mut page)?;
            let done = i * PAGE_SIZE;
            let (payload, tail) = page.split_at_mut(PAGE_SIZE.min(len - done));
            if tail.iter().any(|&b| b != 0) || page_digest(payload) != e.digest {
                return Err(XenError::BadImage("mirror page corrupt"));
            }
            if let MirrorMode::Encrypted = self.mode {
                let cipher = self.master_cipher.as_ref().expect("encrypted mode has key");
                cipher.ctr_xor_at(&Self::page_nonce(id, e.counter), payload, i as u64 * BLOCKS_PER_PAGE);
            }
            image[done..done + payload.len()].copy_from_slice(payload);
        }
        Ok(image)
    }

    /// Drop instance `id`'s region, scrubbing its frames.
    ///
    /// The region stays in the table until every frame scrub succeeds: a
    /// partial failure must leave the region re-scrubbable by a retry,
    /// not orphan half-scrubbed frames (with a still-valid metadata page
    /// a later `recover` would resurrect) outside any bookkeeping. The
    /// metadata frame is scrubbed first for the same reason — once it is
    /// gone, no crash or partial failure can resurrect the image.
    pub fn remove(&self, id: u32) -> XenResult<()> {
        // Shard lock before region lock, like every other table
        // accessor; holding the shard's write lock across the scrub also
        // keeps a concurrent `update` from re-creating the region
        // mid-removal.
        let mut table = self.regions.shard(id).write();
        let Some(handle) = table.get(&id).cloned() else {
            return Ok(());
        };
        let region = handle.lock();
        let zeros = [0u8; PAGE_SIZE];
        let slot_frames = region.slots.iter().flatten().copied();
        for mfn in region.meta_mfn.into_iter().chain(slot_frames).chain(region.spare.iter().copied()) {
            self.hv.page_write(DomainId::DOM0, mfn, 0, &zeros)?;
        }
        drop(region);
        table.remove(&id);
        Ok(())
    }

    /// Frames backing instance `id`'s *committed* image (tests/attack
    /// ground truth). The first entry is the metadata frame; the rest
    /// are the active data slots in page order.
    pub fn region_frames(&self, id: u32) -> Option<Vec<usize>> {
        self.regions.get(id).map(|r| {
            let region = r.lock();
            let mut mfns: Vec<usize> = region.meta_mfn.into_iter().collect();
            mfns.extend(
                region.slots.iter().zip(&region.active).map(|(pair, &a)| pair[a as usize]),
            );
            mfns
        })
    }

    /// Committed generation of instance `id`, if it has a region.
    pub fn generation(&self, id: u32) -> Option<u64> {
        self.regions.get(id).map(|r| r.lock().generation)
    }

    /// Ids with a live region, ascending.
    pub fn instance_ids(&self) -> Vec<u32> {
        self.regions.ids()
    }

    /// Rebuild a mirror from the Dom0 frames alone — the manager
    /// crash/restart path. Scans Dom0 memory for checksummed metadata
    /// frames, verifies each instance's key-check tag and page digests,
    /// restores the committed images, scrubs every shadow slot (healing
    /// leftovers of a crash mid-update or mid-scrub), and re-commits
    /// each region at `generation + 1` so nonces consumed by uncommitted
    /// pre-crash writes are never reused.
    ///
    /// Instances failing verification are listed in
    /// [`MirrorRecovery::corrupt`] and left untouched on the frames.
    pub fn recover(
        hv: Arc<Hypervisor>,
        mode: MirrorMode,
        master_key: [u8; 16],
    ) -> XenResult<(Self, MirrorRecovery)> {
        let mirror = Self::new(hv, mode, master_key)?;
        let mut report = MirrorRecovery::default();
        let dump = mirror.hv.dump_memory(DomainId::DOM0)?;
        for (mfn, owner, page) in &dump {
            // Only Dom0-owned frames are trusted: a guest could forge a
            // well-formed metadata page in its own memory.
            if !owner.is_dom0() {
                continue;
            }
            let Some((id, generation, len, key_check, entries)) = parse_meta(&page[..]) else {
                continue;
            };
            if mirror.regions.contains(id) {
                continue;
            }
            let expected_key_check = mirror.key_check_tag(id);
            if key_check != expected_key_check {
                report.corrupt.push(id);
                continue;
            }
            let Ok(image) = mirror.decode_image(id, len, &entries) else {
                report.corrupt.push(id);
                continue;
            };
            let region = Region {
                meta_mfn: Some(*mfn),
                key_check: expected_key_check,
                slots: entries.iter().map(|e| [e.active_mfn as usize, e.shadow_mfn as usize]).collect(),
                active: vec![0; entries.len()],
                len,
                // Burn the generation the crashed manager may have used
                // for uncommitted shadow writes (see module docs).
                generation: generation + 1,
                attempted: generation + 1,
                page_counters: entries.iter().map(|e| e.counter).collect(),
                page_digests: entries.iter().map(|e| e.digest).collect(),
                cache: image,
                spare: Vec::new(),
            };
            for e in &entries {
                mirror.scrub_frame(e.shadow_mfn as usize)?;
                report.shadow_pages_scrubbed += 1;
            }
            let meta = build_meta(id, generation + 1, len as u64, expected_key_check, &entries);
            mirror.hv.page_write(DomainId::DOM0, *mfn, 0, &meta)?;
            mirror.io.meta_pages_written.fetch_add(1, Ordering::Relaxed);
            mirror.io.bytes_written.fetch_add(PAGE_SIZE as u64, Ordering::Relaxed);
            mirror.regions.insert(id, Arc::new(Mutex::new(region)));
            report.recovered.push(id);
        }
        report.recovered.sort_unstable();
        report.corrupt.sort_unstable();
        report.corrupt.dedup();
        Ok((mirror, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hv() -> Arc<Hypervisor> {
        Arc::new(Hypervisor::boot(512, 8).unwrap())
    }

    fn contains(haystack: &[u8], needle: &[u8]) -> bool {
        !needle.is_empty() && haystack.windows(needle.len()).any(|w| w == needle)
    }

    fn dump_all(hv: &Hypervisor) -> Vec<u8> {
        let mut blob = Vec::new();
        for (_, _, page) in hv.dump_memory(DomainId::DOM0).unwrap() {
            blob.extend_from_slice(&page[..]);
        }
        blob
    }

    /// Raw bytes of instance `id`'s data frames, in order.
    fn raw_data_frames(hv: &Hypervisor, m: &StateMirror, id: u32) -> Vec<Vec<u8>> {
        m.region_frames(id)
            .unwrap()
            .iter()
            .skip(1)
            .map(|&mfn| {
                let mut page = vec![0u8; PAGE_SIZE];
                hv.page_read(DomainId::DOM0, mfn, 0, &mut page).unwrap();
                page
            })
            .collect()
    }

    #[test]
    fn cleartext_mirror_roundtrip_and_dumpable() {
        let hv = hv();
        let m = StateMirror::new(Arc::clone(&hv), MirrorMode::Cleartext, [0; 16]).unwrap();
        let state = b"SRK-PRIME-MATERIAL-0123456789";
        m.update(7, state).unwrap();
        assert_eq!(m.read(7).unwrap(), state);
        // The baseline resident image leaks into the Dom0 dump.
        assert!(contains(&dump_all(&hv), state));
    }

    #[test]
    fn encrypted_mirror_roundtrip_and_not_dumpable() {
        let hv = hv();
        let key = [0xA5; 16];
        let m = StateMirror::new(Arc::clone(&hv), MirrorMode::Encrypted, key).unwrap();
        let state = b"SRK-PRIME-MATERIAL-0123456789";
        m.update(7, state).unwrap();
        // Manager path still reads cleartext.
        assert_eq!(m.read(7).unwrap(), state);
        let dump = dump_all(&hv);
        assert!(!contains(&dump, state), "ciphertext only in the dump");
        assert!(!contains(&dump, &key), "master key must not appear in the dump");
    }

    #[test]
    fn key_frame_is_protected() {
        let hv = hv();
        let m = StateMirror::new(Arc::clone(&hv), MirrorMode::Encrypted, [1; 16]).unwrap();
        let kf = m.key_frame().unwrap();
        // The dump refuses the protected frame.
        let dump = hv.dump_memory(DomainId::DOM0).unwrap();
        assert!(dump.iter().all(|(mfn, _, _)| *mfn != kf));
    }

    #[test]
    fn multi_page_state() {
        let hv = hv();
        let m = StateMirror::new(Arc::clone(&hv), MirrorMode::Cleartext, [0; 16]).unwrap();
        let state: Vec<u8> = (0..3u32 * PAGE_SIZE as u32).map(|i| i as u8).collect();
        m.update(1, &state).unwrap();
        assert_eq!(m.read(1).unwrap(), state);
        // Shrink back down.
        m.update(1, b"tiny").unwrap();
        assert_eq!(m.read(1).unwrap(), b"tiny");
    }

    #[test]
    fn growth_after_initial_allocation() {
        let hv = hv();
        let m = StateMirror::new(Arc::clone(&hv), MirrorMode::Cleartext, [0; 16]).unwrap();
        m.update(1, b"small").unwrap();
        let before = m.region_frames(1).unwrap().len();
        let big = vec![7u8; 2 * PAGE_SIZE];
        m.update(1, &big).unwrap();
        assert!(m.region_frames(1).unwrap().len() > before);
        assert_eq!(m.read(1).unwrap(), big);
    }

    #[test]
    fn remove_scrubs_frames() {
        let hv = hv();
        let m = StateMirror::new(Arc::clone(&hv), MirrorMode::Cleartext, [0; 16]).unwrap();
        m.update(3, b"WIPE-ME-PLEASE").unwrap();
        m.remove(3).unwrap();
        assert!(!contains(&dump_all(&hv), b"WIPE-ME-PLEASE"));
        assert!(m.read(3).is_err());
    }

    #[test]
    fn distinct_instances_isolated() {
        let hv = hv();
        let m = StateMirror::new(Arc::clone(&hv), MirrorMode::Encrypted, [9; 16]).unwrap();
        m.update(1, b"instance-one").unwrap();
        m.update(2, b"instance-two").unwrap();
        assert_eq!(m.read(1).unwrap(), b"instance-one");
        assert_eq!(m.read(2).unwrap(), b"instance-two");
    }

    #[test]
    fn identical_update_writes_nothing() {
        let hv = hv();
        let m = StateMirror::new(Arc::clone(&hv), MirrorMode::Encrypted, [4; 16]).unwrap();
        let state = vec![0x5Au8; PAGE_SIZE + 100];
        m.update(1, &state).unwrap();
        let before = m.io_stats();
        m.update(1, &state).unwrap();
        let after = m.io_stats();
        assert_eq!(after.updates, before.updates + 1);
        assert_eq!(after.clean_updates, before.clean_updates + 1);
        assert_eq!(after.bytes_written, before.bytes_written, "clean update writes zero bytes");
    }

    #[test]
    fn only_dirty_pages_rewritten() {
        let hv = hv();
        let m = StateMirror::new(Arc::clone(&hv), MirrorMode::Encrypted, [4; 16]).unwrap();
        let mut state = vec![1u8; 4 * PAGE_SIZE];
        m.update(1, &state).unwrap();
        let before = m.io_stats();
        // Touch one byte in the third page.
        state[2 * PAGE_SIZE + 17] ^= 0xFF;
        m.update(1, &state).unwrap();
        let after = m.io_stats();
        assert_eq!(after.data_pages_written, before.data_pages_written + 1);
        assert_eq!(after.meta_pages_written, before.meta_pages_written + 1);
        assert_eq!(m.read(1).unwrap(), state);
    }

    #[test]
    fn scrub_on_shrink_leaves_no_stale_bytes() {
        for mode in [MirrorMode::Cleartext, MirrorMode::Encrypted] {
            let hv = hv();
            let m = StateMirror::new(Arc::clone(&hv), mode, [0x3C; 16]).unwrap();
            // A large image whose tail carries a recognizable secret.
            let mut big = vec![0u8; 3 * PAGE_SIZE + 777];
            for (i, b) in big.iter_mut().enumerate() {
                *b = (i % 251) as u8;
            }
            let secret = b"TAIL-SECRET-MUST-NOT-SURVIVE-SHRINK";
            let at = big.len() - secret.len();
            big[at..].copy_from_slice(secret);
            m.update(9, &big).unwrap();

            // Shrink to a state sharing only the first few bytes.
            let small = &big[..300];
            m.update(9, small).unwrap();
            assert_eq!(m.read(9).unwrap(), small);

            // No byte of the previous larger image survives anywhere in a
            // full Dom0 dump — neither cleartext nor its old ciphertext
            // tail (dropped frames are zeroed, partial page zero-padded).
            let dump = dump_all(&hv);
            assert!(!contains(&dump, secret), "{mode:?}: secret survived shrink");
            for frame in raw_data_frames(&hv, &m, 9).iter().skip(1) {
                assert!(frame.iter().all(|&b| b == 0), "{mode:?}: stale tail frame not scrubbed");
            }
        }
    }

    #[test]
    fn rewrite_of_same_plaintext_gets_fresh_keystream() {
        // A -> B -> A: the third image re-encrypts A's bytes under a new
        // counter, so its ciphertext differs from the first even though
        // the plaintext is identical (no deterministic encryption).
        let hv = hv();
        let m = StateMirror::new(Arc::clone(&hv), MirrorMode::Encrypted, [0x77; 16]).unwrap();
        let a = vec![0xAAu8; 600];
        let b = vec![0xBBu8; 600];
        m.update(5, &a).unwrap();
        let ct1 = raw_data_frames(&hv, &m, 5)[0].clone();
        m.update(5, &b).unwrap();
        m.update(5, &a).unwrap();
        let ct2 = raw_data_frames(&hv, &m, 5)[0].clone();
        assert_eq!(m.read(5).unwrap(), a);
        assert_ne!(ct1, ct2, "same plaintext must not produce the same ciphertext twice");
    }

    #[test]
    fn ctr_two_time_pad_defeated() {
        // The classic attack on the old fixed-nonce scheme: with C1 and
        // C2 encrypted under the same keystream, C1 xor C2 = P1 xor P2.
        // With per-write counters the keystreams differ, so the XOR of
        // the two ciphertext dumps must NOT equal the plaintext XOR.
        let hv = hv();
        let m = StateMirror::new(Arc::clone(&hv), MirrorMode::Encrypted, [0x19; 16]).unwrap();
        let p1 = vec![0x11u8; 512];
        let p2 = vec![0x22u8; 512];
        m.update(8, &p1).unwrap();
        let c1 = raw_data_frames(&hv, &m, 8)[0][..512].to_vec();
        m.update(8, &p2).unwrap();
        let c2 = raw_data_frames(&hv, &m, 8)[0][..512].to_vec();
        let ct_xor: Vec<u8> = c1.iter().zip(&c2).map(|(a, b)| a ^ b).collect();
        let pt_xor: Vec<u8> = p1.iter().zip(&p2).map(|(a, b)| a ^ b).collect();
        assert_ne!(ct_xor, pt_xor, "two-dump XOR must not cancel the keystream");
    }

    #[test]
    fn pages_use_disjoint_keystream_ranges() {
        // Two pages written in the same update share a nonce; their CTR
        // block ranges must not overlap, or equal plaintext pages would
        // leak equality. Encrypt two identical pages and compare.
        let hv = hv();
        let m = StateMirror::new(Arc::clone(&hv), MirrorMode::Encrypted, [0x42; 16]).unwrap();
        let state = vec![0xCDu8; 2 * PAGE_SIZE];
        m.update(2, &state).unwrap();
        let frames = raw_data_frames(&hv, &m, 2);
        assert_ne!(frames[0], frames[1], "identical plaintext pages must encrypt differently");
        assert_eq!(m.read(2).unwrap(), state);
    }

    #[test]
    fn grow_after_shrink_roundtrips() {
        let hv = hv();
        let m = StateMirror::new(Arc::clone(&hv), MirrorMode::Encrypted, [6; 16]).unwrap();
        let big: Vec<u8> = (0..2 * PAGE_SIZE + 50).map(|i| (i % 255) as u8).collect();
        m.update(4, &big).unwrap();
        m.update(4, b"short").unwrap();
        let bigger: Vec<u8> = (0..3 * PAGE_SIZE).map(|i| (i % 253) as u8).collect();
        m.update(4, &bigger).unwrap();
        assert_eq!(m.read(4).unwrap(), bigger);
    }

    #[test]
    fn crash_at_every_write_leaves_a_committed_image() {
        // Crash Dom0 after k page writes of the second update, for every
        // k until the update survives. Recovery from the frames alone
        // must always yield exactly the old or the new image.
        let old_img: Vec<u8> = (0..2 * PAGE_SIZE + 333).map(|i| (i % 191) as u8).collect();
        let new_img: Vec<u8> = (0..3 * PAGE_SIZE + 11).map(|i| (i % 187) as u8 ^ 0x5A).collect();
        let key = [0x21; 16];
        let mut k = 0;
        loop {
            let hv = hv();
            let m = StateMirror::new(Arc::clone(&hv), MirrorMode::Encrypted, key).unwrap();
            m.update(4, &old_img).unwrap();
            hv.inject_write_crash(DomainId::DOM0, k);
            let res = m.update(4, &new_img);
            hv.clear_faults();
            drop(m);
            let (rec, report) = StateMirror::recover(Arc::clone(&hv), MirrorMode::Encrypted, key).unwrap();
            assert_eq!(report.corrupt, Vec::<u32>::new(), "k={k}");
            assert_eq!(report.recovered, vec![4], "k={k}");
            let got = rec.read(4).unwrap();
            assert!(got == old_img || got == new_img, "k={k}: torn image recovered");
            if res.is_ok() {
                assert_eq!(got, new_img, "k={k}: committed update must survive recovery");
                break;
            }
            k += 1;
            assert!(k < 64, "crash sweep did not terminate");
        }
    }

    #[test]
    fn crash_during_shrink_preserves_old_or_new() {
        let big: Vec<u8> = (0..3 * PAGE_SIZE + 777).map(|i| (i % 193) as u8).collect();
        let small = b"post-shrink tiny image".to_vec();
        let key = [0x2C; 16];
        let mut k = 0;
        loop {
            let hv = hv();
            let m = StateMirror::new(Arc::clone(&hv), MirrorMode::Encrypted, key).unwrap();
            m.update(9, &big).unwrap();
            hv.inject_write_crash(DomainId::DOM0, k);
            let res = m.update(9, &small);
            hv.clear_faults();
            drop(m);
            let (rec, report) = StateMirror::recover(Arc::clone(&hv), MirrorMode::Encrypted, key).unwrap();
            assert_eq!(report.recovered, vec![9], "k={k}");
            let got = rec.read(9).unwrap();
            assert!(got == big || got == small, "k={k}: torn image after shrink crash");
            if res.is_ok() {
                assert_eq!(got, small, "k={k}");
                break;
            }
            k += 1;
            assert!(k < 64, "shrink crash sweep did not terminate");
        }
    }

    #[test]
    fn recovery_rebuilds_all_instances_and_scrubs_uncommitted_bytes() {
        // Cleartext so uncommitted shadow bytes are directly greppable:
        // crash mid-update, recover, and the aborted generation's bytes
        // must be gone from the dump while the committed image survives.
        let hv = hv();
        let m = StateMirror::new(Arc::clone(&hv), MirrorMode::Cleartext, [0; 16]).unwrap();
        m.update(1, b"COMMITTED-IMAGE-ONE").unwrap();
        m.update(2, b"COMMITTED-IMAGE-TWO").unwrap();
        hv.inject_write_crash(DomainId::DOM0, 0);
        assert!(m.update(1, b"UNCOMMITTED-SECRET-BYTES").is_err());
        hv.clear_faults();
        drop(m);
        let (rec, report) = StateMirror::recover(Arc::clone(&hv), MirrorMode::Cleartext, [0; 16]).unwrap();
        assert_eq!(report.recovered, vec![1, 2]);
        assert!(report.shadow_pages_scrubbed >= 2);
        assert_eq!(rec.read(1).unwrap(), b"COMMITTED-IMAGE-ONE");
        assert_eq!(rec.read(2).unwrap(), b"COMMITTED-IMAGE-TWO");
        let dump = dump_all(&hv);
        assert!(!contains(&dump, b"UNCOMMITTED-SECRET-BYTES"), "aborted write must be scrubbed");
        assert!(contains(&dump, b"COMMITTED-IMAGE-ONE"));
    }

    #[test]
    fn recovery_burns_the_possibly_used_generation() {
        let hv = hv();
        let key = [9; 16];
        let m = StateMirror::new(Arc::clone(&hv), MirrorMode::Encrypted, key).unwrap();
        m.update(1, &vec![1u8; 600]).unwrap();
        assert_eq!(m.generation(1), Some(1));
        // Crash before any write: generation 2's nonces may have hit the
        // frames, so recovery must not hand generation 2 out again.
        hv.inject_write_crash(DomainId::DOM0, 0);
        assert!(m.update(1, &vec![2u8; 600]).is_err());
        hv.clear_faults();
        drop(m);
        let (rec, _) = StateMirror::recover(Arc::clone(&hv), MirrorMode::Encrypted, key).unwrap();
        rec.enable_nonce_audit();
        assert_eq!(rec.generation(1), Some(2), "recovery re-commits at generation + 1");
        rec.update(1, &vec![2u8; 600]).unwrap();
        assert_eq!(rec.generation(1), Some(3));
        assert_eq!(rec.read(1).unwrap(), vec![2u8; 600]);
        assert_eq!(rec.nonce_reuses(), 0);
    }

    #[test]
    fn failed_update_burns_generation_for_in_process_retry() {
        // The in-process analogue of recovery's burn-a-generation rule: a
        // crashed update consumed (id, page, gen+1) nonces on the frames,
        // so the manager's retry-on-next-mutation must not hand the same
        // counter out again for different plaintext (keystream reuse for
        // an attacker dumping Dom0 before and after the retry). One rule
        // wherever the update dies: after the first or the second of the
        // two dirty shadow writes (k = 0, 1) or at the metadata commit
        // (k = 2), the retry burns exactly one generation.
        for k in 0..3 {
            let hv = hv();
            let m = StateMirror::new(Arc::clone(&hv), MirrorMode::Encrypted, [0x5D; 16]).unwrap();
            m.enable_nonce_audit();
            let a = vec![0xA1u8; PAGE_SIZE + 700];
            let b = vec![0xB2u8; PAGE_SIZE + 700];
            let c = vec![0xC3u8; PAGE_SIZE + 700];
            m.update(1, &a).unwrap();
            hv.inject_write_crash(DomainId::DOM0, k);
            assert!(m.update(1, &b).is_err(), "k={k}");
            hv.clear_faults();
            assert_eq!(m.read(1).unwrap(), a, "k={k}: a failed update leaves the committed image");
            m.update(1, &c).unwrap();
            assert_eq!(m.nonce_reuses(), 0, "k={k}: retry reused a consumed (page, counter) nonce");
            assert_eq!(m.read(1).unwrap(), c, "k={k}");
            // The burn re-committed the old image at the consumed
            // generation before the retry consumed the next one: 1
            // (initial) -> 2 (burned by the failed attempt) -> 3 (the
            // retry's commit).
            assert_eq!(m.generation(1), Some(3), "k={k}");
            assert_eq!(m.io_stats().retried_generation_burns, 1, "k={k}");
        }
    }

    #[test]
    fn repeated_failed_updates_keep_burns_durable_across_crash_recovery() {
        // Two failed attempts in a row consume two generations; the burn
        // must land on the frames (not just in memory) so a crash before
        // any successful commit still lets recovery's single-generation
        // burn cover every consumed nonce.
        let hv = hv();
        let key = [0x6E; 16];
        let m = StateMirror::new(Arc::clone(&hv), MirrorMode::Encrypted, key).unwrap();
        let a = vec![0xA1u8; 600];
        m.update(1, &a).unwrap(); // committed generation 1
        // Attempt 2: dies before any write lands; counter 2 is consumed.
        hv.inject_write_crash(DomainId::DOM0, 0);
        assert!(m.update(1, &vec![0xB2u8; 600]).is_err());
        hv.clear_faults();
        // Attempt 3: the durable burn (metadata at generation 2) lands,
        // then the shadow write for counter 3 dies.
        hv.inject_write_crash(DomainId::DOM0, 1);
        assert!(m.update(1, &vec![0xC3u8; 600]).is_err());
        hv.clear_faults();
        assert_eq!(m.generation(1), Some(2), "burn must commit before new nonces are consumed");
        drop(m);
        // Crash now: the frames say generation 2, and counter 3 was the
        // highest consumed. Recovery burns to 3; the next write uses 4.
        let (rec, report) = StateMirror::recover(Arc::clone(&hv), MirrorMode::Encrypted, key).unwrap();
        assert_eq!(report.recovered, vec![1]);
        assert_eq!(rec.read(1).unwrap(), a, "only generation 1 ever committed an image");
        assert_eq!(rec.generation(1), Some(3), "recovery must burn past every consumed counter");
        rec.enable_nonce_audit();
        let d = vec![0xD4u8; 600];
        rec.update(1, &d).unwrap();
        assert_eq!(rec.generation(1), Some(4));
        assert_eq!(rec.read(1).unwrap(), d);
        assert_eq!(rec.nonce_reuses(), 0);
    }

    #[test]
    fn post_commit_scrub_failure_does_not_fail_the_update() {
        // Once the metadata commit landed, a failing hygiene scrub must
        // not turn the update into an error: the caller would treat the
        // mutation as unmirrored and re-mirror (burning a generation) for
        // an image that in fact committed.
        let hv = hv();
        let m = StateMirror::new(Arc::clone(&hv), MirrorMode::Encrypted, [0x31; 16]).unwrap();
        m.enable_nonce_audit();
        let a = vec![0xA7u8; 600];
        let b = vec![0xB8u8; 600];
        let c = vec![0xC9u8; 600];
        m.update(1, &a).unwrap();
        // One dirty shadow write + the metadata commit succeed; the
        // post-commit scrub of the replaced slot fails.
        hv.inject_write_crash(DomainId::DOM0, 2);
        m.update(1, &b).expect("commit stood; scrub failure must be non-fatal");
        hv.clear_faults();
        assert_eq!(m.io_stats().scrub_failures, 1);
        assert_eq!(m.read(1).unwrap(), b);
        assert_eq!(m.generation(1), Some(2));
        // And the next update neither re-mirrors spuriously nor reuses a
        // nonce.
        m.update(1, &c).unwrap();
        assert_eq!(m.generation(1), Some(3));
        assert_eq!(m.read(1).unwrap(), c);
        assert_eq!(m.nonce_reuses(), 0);
    }

    #[test]
    fn nonce_counter_exhaustion_refused_not_truncated() {
        // The metadata generation is u64 but the nonce carries it as u32;
        // past u32::MAX the mirror must refuse to write rather than wrap
        // the (id, page, counter) space. Plant a committed region near
        // the limit and walk over it.
        let hv = hv();
        let key = [0x4B; 16];
        let probe = StateMirror::new(Arc::clone(&hv), MirrorMode::Encrypted, key).unwrap();
        let tag = probe.key_check_tag(33);
        let meta = build_meta(33, u64::from(u32::MAX) - 2, 0, tag, &[]);
        let mfn = hv.alloc_pages(DomainId::DOM0, 1).unwrap()[0];
        hv.page_write(DomainId::DOM0, mfn, 0, &meta).unwrap();
        drop(probe);
        let (rec, report) = StateMirror::recover(Arc::clone(&hv), MirrorMode::Encrypted, key).unwrap();
        assert_eq!(report.recovered, vec![33]);
        // One generation of headroom left (u32::MAX itself)...
        rec.update(33, b"last nonce that fits").unwrap();
        assert_eq!(rec.generation(33), Some(u64::from(u32::MAX)));
        // ...then hard refusal, leaving the committed image untouched.
        assert!(matches!(
            rec.update(33, b"would wrap the counter"),
            Err(XenError::BadImage(_))
        ));
        assert_eq!(rec.read(33).unwrap(), b"last nonce that fits");
    }

    #[test]
    fn failed_remove_keeps_region_for_rescrub() {
        // A partial scrub failure must leave the region tracked so a
        // retry scrubs the same frames — dropping it would orphan frames
        // still holding the image (and a valid metadata page recovery
        // would resurrect).
        let hv = hv();
        let m = StateMirror::new(Arc::clone(&hv), MirrorMode::Cleartext, [0; 16]).unwrap();
        m.update(3, b"WIPE-ME-EVENTUALLY").unwrap();
        hv.inject_write_crash(DomainId::DOM0, 0);
        assert!(m.remove(3).is_err());
        hv.clear_faults();
        assert!(m.region_frames(3).is_some(), "region must stay tracked after a failed scrub");
        m.remove(3).unwrap();
        assert!(m.region_frames(3).is_none());
        assert!(!contains(&dump_all(&hv), b"WIPE-ME-EVENTUALLY"));
    }

    #[test]
    fn nonce_audit_sees_no_reuse_across_grow_shrink_cycles() {
        let hv = hv();
        let m = StateMirror::new(Arc::clone(&hv), MirrorMode::Encrypted, [3; 16]).unwrap();
        m.enable_nonce_audit();
        for round in 0..20u8 {
            let len = if round % 3 == 2 { 100 } else { (round as usize + 1) * 900 };
            let img = vec![round ^ 0xC3; len];
            m.update(6, &img).unwrap();
            assert_eq!(m.read(6).unwrap(), img);
        }
        assert_eq!(m.nonce_reuses(), 0);
    }

    #[test]
    fn corrupted_data_frame_detected_and_repairable() {
        let hv = hv();
        let m = StateMirror::new(Arc::clone(&hv), MirrorMode::Encrypted, [7; 16]).unwrap();
        let img: Vec<u8> = (0..PAGE_SIZE + 123).map(|i| (i % 201) as u8).collect();
        m.update(3, &img).unwrap();
        let frames = m.region_frames(3).unwrap();
        hv.corrupt_frame(frames[1], 100, &[0xFF, 0x0F, 0xF0]).unwrap();
        assert!(matches!(m.read(3), Err(XenError::BadImage(_))), "corruption must not decode");
        // XOR is an involution: undoing the corruption restores the page.
        hv.corrupt_frame(frames[1], 100, &[0xFF, 0x0F, 0xF0]).unwrap();
        assert_eq!(m.read(3).unwrap(), img);
    }

    #[test]
    fn corrupted_meta_frame_detected() {
        let hv = hv();
        let m = StateMirror::new(Arc::clone(&hv), MirrorMode::Encrypted, [8; 16]).unwrap();
        m.update(5, b"meta integrity matters").unwrap();
        let meta_mfn = m.region_frames(5).unwrap()[0];
        hv.corrupt_frame(meta_mfn, 9, &[0x01]).unwrap();
        assert!(matches!(m.read(5), Err(XenError::BadImage(_))));
        // A mangled metadata frame is invisible to recovery: the region
        // is simply not found (checksums make partial trust impossible).
        drop(m);
        let (_, report) = StateMirror::recover(Arc::clone(&hv), MirrorMode::Encrypted, [8; 16]).unwrap();
        assert!(report.recovered.is_empty());
    }

    #[test]
    fn recovery_with_wrong_key_rejects_instances() {
        let hv = hv();
        let m = StateMirror::new(Arc::clone(&hv), MirrorMode::Encrypted, [0xAB; 16]).unwrap();
        m.update(11, b"sealed to one key only").unwrap();
        drop(m);
        let (rec, report) = StateMirror::recover(Arc::clone(&hv), MirrorMode::Encrypted, [0xCD; 16]).unwrap();
        assert_eq!(report.corrupt, vec![11], "wrong key must be detected, not decode garbage");
        assert!(report.recovered.is_empty());
        assert!(rec.read(11).is_err());
    }

    #[test]
    fn discard_uncommitted_untracks_and_scrubs_a_never_committed_region() {
        let hv = hv();
        let m = StateMirror::new(Arc::clone(&hv), MirrorMode::Cleartext, [0; 16]).unwrap();
        // First-ever update dies mid-stage: the region is tracked but
        // generation 0 never committed.
        hv.inject_write_crash(DomainId::DOM0, 0);
        assert!(m.update(9, b"NEVER-COMMITTED-BYTES").is_err());
        hv.clear_faults();
        assert!(m.region_frames(9).is_some(), "failed first update leaves the region tracked");
        m.discard_uncommitted(9).unwrap();
        assert!(m.region_frames(9).is_none());
        assert!(!contains(&dump_all(&hv), b"NEVER-COMMITTED-BYTES"));
        // A committed region is left intact: discard only covers regions
        // whose metadata was never published.
        m.update(10, b"committed").unwrap();
        m.discard_uncommitted(10).unwrap();
        assert!(m.region_frames(10).is_some());
        assert_eq!(m.read(10).unwrap(), b"committed");
    }

    #[test]
    fn flipped_zero_tail_byte_is_detected() {
        // The digest covers only the payload bytes; the zero tail is
        // verified by comparison. Any single flipped tail byte must still
        // fail `read` and make recovery list the instance as corrupt.
        for mode in [MirrorMode::Cleartext, MirrorMode::Encrypted] {
            let hv = hv();
            let key = [0x5E; 16];
            let m = StateMirror::new(Arc::clone(&hv), mode, key).unwrap();
            let img: Vec<u8> = (0..700).map(|i| (i % 233) as u8 + 1).collect();
            m.update(3, &img).unwrap();
            let data_mfn = m.region_frames(3).unwrap()[1];
            let tail = img.len()..PAGE_SIZE;
            for off in tail.clone() {
                hv.corrupt_frame(data_mfn, off, &[0x80]).unwrap();
                assert!(
                    matches!(m.read(3), Err(XenError::BadImage("mirror page corrupt"))),
                    "{mode:?}: tail byte {off} flipped unnoticed"
                );
                hv.corrupt_frame(data_mfn, off, &[0x80]).unwrap();
            }
            for off in tail.clone().step_by(397).chain([tail.end - 1]) {
                hv.corrupt_frame(data_mfn, off, &[0x01]).unwrap();
                let (_, report) = StateMirror::recover(Arc::clone(&hv), mode, key).unwrap();
                assert_eq!(report.corrupt, vec![3], "{mode:?}: tail byte {off}");
                assert!(report.recovered.is_empty(), "{mode:?}: tail byte {off}");
                hv.corrupt_frame(data_mfn, off, &[0x01]).unwrap();
            }
            assert_eq!(m.read(3).unwrap(), img);
        }
    }

    #[test]
    fn flipped_meta_filler_byte_is_refused() {
        // The checksum covers only the used metadata prefix; the filler
        // up to the checksum must be zero, so a flipped filler byte makes
        // the frame invalid for `read` and invisible to recovery.
        for mode in [MirrorMode::Cleartext, MirrorMode::Encrypted] {
            let hv = hv();
            let key = [0x6F; 16];
            let m = StateMirror::new(Arc::clone(&hv), mode, key).unwrap();
            m.update(4, b"filler must stay zero").unwrap();
            let meta_mfn = m.region_frames(4).unwrap()[0];
            let filler = meta_used(1)..PAGE_SIZE - META_CHECKSUM;
            for off in filler.clone() {
                hv.corrupt_frame(meta_mfn, off, &[0x04]).unwrap();
                assert!(
                    matches!(m.read(4), Err(XenError::BadImage("mirror metadata corrupt"))),
                    "{mode:?}: filler byte {off} flipped unnoticed"
                );
                hv.corrupt_frame(meta_mfn, off, &[0x04]).unwrap();
            }
            for off in filler.clone().step_by(401).chain([filler.end - 1]) {
                hv.corrupt_frame(meta_mfn, off, &[0x10]).unwrap();
                let (rec, report) = StateMirror::recover(Arc::clone(&hv), mode, key).unwrap();
                assert!(report.recovered.is_empty(), "{mode:?}: filler byte {off}");
                assert!(rec.instance_ids().is_empty(), "{mode:?}: filler byte {off}");
                hv.corrupt_frame(meta_mfn, off, &[0x10]).unwrap();
            }
            assert_eq!(m.read(4).unwrap(), b"filler must stay zero");
        }
    }

    #[test]
    fn page_whose_payload_length_changes_is_rewritten() {
        // Trailing zero bytes are payload, not tail: dropping or adding
        // them changes what the page's digest and keystream cover, so the
        // page must be rewritten even though its zero-padded bytes match.
        for mode in [MirrorMode::Cleartext, MirrorMode::Encrypted] {
            let hv = hv();
            let m = StateMirror::new(Arc::clone(&hv), mode, [0x2B; 16]).unwrap();
            let mut padded = b"abc".to_vec();
            padded.resize(PAGE_SIZE + 40, 0);
            for img in [&padded[..PAGE_SIZE + 5], &padded[..PAGE_SIZE + 40], b"abc", &padded[..100], b"abc"] {
                m.update(2, img).unwrap();
                assert_eq!(m.read(2).unwrap(), img, "{mode:?}: {} bytes", img.len());
            }
        }
    }

    #[test]
    fn shrink_leaves_a_zero_tail_on_the_last_live_page() {
        for mode in [MirrorMode::Cleartext, MirrorMode::Encrypted] {
            let hv = hv();
            let m = StateMirror::new(Arc::clone(&hv), mode, [0x7A; 16]).unwrap();
            let big = vec![0xEEu8; 2 * PAGE_SIZE + 900];
            m.update(8, &big).unwrap();
            let small = vec![0x11u8; 1500];
            m.update(8, &small).unwrap();
            let frames = raw_data_frames(&hv, &m, 8);
            assert_eq!(frames.len(), 1);
            assert!(
                frames[0][small.len()..].iter().all(|&b| b == 0),
                "{mode:?}: last live page has a nonzero tail after shrink"
            );
            assert_eq!(m.read(8).unwrap(), small);
        }
    }

    mod meta_props {
        use super::*;
        use proptest::array::uniform8;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// A metadata page for the never-panic property: random bytes,
        /// optionally given the magic, a chosen `count` and `len`, and a zero
        /// filler with a valid checksum (when `count` fits), so cases reach
        /// every check in `parse_meta`. A set `shape` bit 6 truncates it.
        fn hostile_meta(mut page: Vec<u8>, count: u32, len: u64, cut: usize, shape: u8) -> Vec<u8> {
            if shape & 1 != 0 {
                page[..4].copy_from_slice(&META_MAGIC);
            }
            if shape & 2 != 0 {
                page[24..28].copy_from_slice(&count.to_be_bytes());
            }
            if shape & 4 != 0 {
                page[16..24].copy_from_slice(&len.to_be_bytes());
            }
            let count = count as usize;
            if shape & 8 != 0 && count <= MAX_DATA_PAGES {
                page[meta_used(count)..PAGE_SIZE - META_CHECKSUM].fill(0);
                let sum = tpm_crypto::sha256(&page[..meta_used(count)]);
                page[PAGE_SIZE - META_CHECKSUM..].copy_from_slice(&sum);
            }
            if shape & 64 != 0 {
                page.truncate(cut);
            }
            page
        }

        fn any_count() -> impl Strategy<Value = u32> {
            (any::<bool>(), any::<u32>(), 0..=MAX_DATA_PAGES as u32 + 2)
                .prop_map(|(wild, any, small)| if wild { any } else { small })
        }

        fn entries() -> impl Strategy<Value = Vec<MetaEntry>> {
            vec((any::<u32>(), any::<u32>(), any::<u32>(), uniform8(any::<u8>())), 0..MAX_DATA_PAGES + 1)
                .prop_map(|raw| {
                    raw.into_iter()
                        .map(|(active_mfn, shadow_mfn, counter, digest)| MetaEntry {
                            active_mfn,
                            shadow_mfn,
                            counter,
                            digest,
                        })
                        .collect()
                })
        }

        /// A payload length whose page count is `count`.
        fn len_for(count: usize, off: usize) -> u64 {
            if count == 0 {
                0
            } else {
                ((count - 1) * PAGE_SIZE + 1 + off % PAGE_SIZE) as u64
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn parse_meta_never_panics_on_hostile_pages(
                bytes in vec(any::<u8>(), PAGE_SIZE..PAGE_SIZE + 1),
                count in any_count(),
                len in (any::<bool>(), any::<u64>(), 0usize..PAGE_SIZE),
                cut in 0usize..2 * PAGE_SIZE,
                shape in any::<u8>(),
            ) {
                let (consistent, wild_len, off) = len;
                let len = if consistent { len_for(count as usize, off) } else { wild_len };
                let page = hostile_meta(bytes, count, len, cut, shape);
                if let Some((_, _, len, _, entries)) = parse_meta(&page) {
                    prop_assert!(entries.len() <= MAX_DATA_PAGES);
                    prop_assert_eq!(len.div_ceil(PAGE_SIZE), entries.len());
                }
            }

            #[test]
            fn parse_meta_inverts_build_meta(
                id in any::<u32>(),
                generation in any::<u64>(),
                off in 0usize..PAGE_SIZE,
                key_check in uniform8(any::<u8>()),
                entries in entries(),
            ) {
                let len = len_for(entries.len(), off);
                let meta = build_meta(id, generation, len, key_check, &entries);
                let parsed = parse_meta(&meta).expect("a built frame parses");
                prop_assert_eq!(parsed, (id, generation, len as usize, key_check, entries));
            }

            #[test]
            fn parse_meta_refuses_any_nonzero_filler_byte(
                entries in entries(),
                at in any::<usize>(),
                xor in 1u8..=255,
            ) {
                let len = len_for(entries.len(), 0);
                let mut meta = build_meta(1, 1, len, [0; 8], &entries);
                let filler = meta_used(entries.len())..PAGE_SIZE - META_CHECKSUM;
                meta[filler.start + at % filler.len()] ^= xor;
                prop_assert!(parse_meta(&meta).is_none());
            }
        }
    }
}
