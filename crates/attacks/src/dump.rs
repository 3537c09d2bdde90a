//! The memory-dump attacker: the abstract's "CPU and memory dump
//! software" running with Dom0 privileges.
//!
//! [`MemoryDump::capture`] takes everything the hypervisor will map for
//! Dom0 (all normal frames machine-wide); [`MemoryDump::scan`] then
//! searches it for needles — in the experiments, ground-truth secrets the
//! harness planted (instance state bytes, SRK primes, sealed plaintext,
//! command traffic). The scan runs one scoped thread per core over
//! contiguous page chunks: a real attacker scans gigabytes, and the
//! R-F5 experiment measures exactly this scaling.

use xen_sim::{DomainId, Hypervisor, PAGE_SIZE};

/// One captured dump.
pub struct MemoryDump {
    /// (mfn, owner, page contents) triples.
    pub pages: Vec<(usize, DomainId, Box<[u8; PAGE_SIZE]>)>,
}

/// One needle hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hit {
    /// Index of the needle in the scan set.
    pub needle: usize,
    /// Frame it was found in.
    pub mfn: usize,
    /// Owner of that frame.
    pub owner: DomainId,
    /// Byte offset within the frame (start of the match, which may
    /// continue into the next frame for straddling needles — see
    /// [`MemoryDump::scan`]).
    pub offset: usize,
}

/// Scan statistics for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanStats {
    /// Frames captured.
    pub pages: usize,
    /// Total bytes scanned.
    pub bytes: usize,
    /// Number of hits.
    pub hits: usize,
}

impl MemoryDump {
    /// Capture as `attacker` (Dom0 sees everything unprotected; a guest
    /// sees only itself).
    pub fn capture(hv: &Hypervisor, attacker: DomainId) -> xen_sim::Result<Self> {
        Ok(MemoryDump { pages: hv.dump_memory(attacker)? })
    }

    /// Bytes captured.
    pub fn len(&self) -> usize {
        self.pages.len() * PAGE_SIZE
    }

    /// Whether the capture is empty.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Search for every needle in parallel across pages. Matches that
    /// straddle a page boundary are found when the pages are
    /// machine-adjacent (mfn, mfn+1), which covers contiguous buffers.
    pub fn scan(&self, needles: &[&[u8]]) -> Vec<Hit> {
        let max_needle = needles.iter().map(|n| n.len()).max().unwrap_or(0);
        if max_needle == 0 {
            return Vec::new();
        }
        // Index by mfn for adjacency stitching.
        let by_mfn: std::collections::HashMap<usize, usize> =
            self.pages.iter().enumerate().map(|(i, (mfn, _, _))| (*mfn, i)).collect();

        let scan_page = |(mfn, owner, page): &(usize, DomainId, Box<[u8; PAGE_SIZE]>)| {
            // Build a window of this page plus the head of the next
            // adjacent page so straddling matches are seen once.
            let mut buf = Vec::with_capacity(PAGE_SIZE + max_needle);
            buf.extend_from_slice(&page[..]);
            if let Some(&ni) = by_mfn.get(&(mfn + 1)) {
                let (_, _, next) = &self.pages[ni];
                buf.extend_from_slice(&next[..max_needle.min(PAGE_SIZE)]);
            }
            let mut local = Vec::new();
            for (ni, needle) in needles.iter().enumerate() {
                if needle.is_empty() {
                    continue;
                }
                let limit = PAGE_SIZE.min(buf.len());
                let mut start = 0;
                while start < limit {
                    let window_end = (start + needle.len()).min(buf.len());
                    if window_end - start < needle.len() {
                        break;
                    }
                    match find(&buf[start..], needle) {
                        Some(pos) if start + pos < PAGE_SIZE => {
                            local.push(Hit {
                                needle: ni,
                                mfn: *mfn,
                                owner: *owner,
                                offset: start + pos,
                            });
                            start += pos + 1;
                        }
                        _ => break,
                    }
                }
            }
            local
        };
        let scan_page = &scan_page;
        let threads = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
        let chunk = self.pages.len().div_ceil(threads).max(1);
        let mut hits: Vec<Hit> = std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .pages
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || part.iter().flat_map(scan_page).collect::<Vec<_>>())
                })
                .collect();
            workers.into_iter().flat_map(|w| w.join().expect("scan worker panicked")).collect()
        });
        hits.sort_by_key(|h| (h.needle, h.mfn, h.offset));
        hits
    }

    /// Convenience: does any needle appear at all?
    pub fn contains_any(&self, needles: &[&[u8]]) -> bool {
        !self.scan(needles).is_empty()
    }

    /// Scan statistics for a needle set.
    pub fn stats(&self, needles: &[&[u8]]) -> ScanStats {
        ScanStats { pages: self.pages.len(), bytes: self.len(), hits: self.scan(needles).len() }
    }
}

/// Pick up to `n` 64-byte windows of `data` with high byte diversity
/// (>= 30 distinct values) — the signature of key material rather than
/// padding or zeroed registers. This is how dump tooling chooses probes:
/// low-entropy fragments would "match" zero pages everywhere and prove
/// nothing. Returns `(start, end)` ranges.
pub fn high_entropy_fragments(data: &[u8], n: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = 0;
    while start + 64 <= data.len() && out.len() < n {
        let window = &data[start..start + 64];
        let mut seen = [false; 256];
        let mut distinct = 0;
        for &b in window {
            if !seen[b as usize] {
                seen[b as usize] = true;
                distinct += 1;
            }
        }
        if distinct >= 30 {
            out.push((start, start + 64));
            start += 64;
        } else {
            start += 32;
        }
    }
    out
}

/// Naive subslice search (memmem). Needles are short (tens of bytes);
/// the two-loop form optimizes fine.
fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() || haystack.len() < needle.len() {
        return None;
    }
    haystack.windows(needle.len()).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xen_sim::DomainConfig;

    fn hv() -> Hypervisor {
        Hypervisor::boot(128, 8).unwrap()
    }

    #[test]
    fn finds_planted_secret() {
        let hv = hv();
        let g = hv.create_domain(DomainId::DOM0, DomainConfig::small("g")).unwrap();
        let f = hv.domain_info(g).unwrap().frames[0];
        hv.page_write(g, f, 1000, b"NEEDLE-IN-HAYSTACK").unwrap();
        let dump = MemoryDump::capture(&hv, DomainId::DOM0).unwrap();
        let hits = dump.scan(&[b"NEEDLE-IN-HAYSTACK"]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].mfn, f);
        assert_eq!(hits[0].owner, g);
        assert_eq!(hits[0].offset, 1000);
    }

    #[test]
    fn finds_straddling_secret() {
        let hv = hv();
        let g = hv.create_domain(
            DomainId::DOM0,
            DomainConfig { memory_pages: 4, ..DomainConfig::small("g") },
        )
        .unwrap();
        let frames = hv.domain_info(g).unwrap().frames;
        // Find two machine-adjacent frames.
        let mut sorted = frames.clone();
        sorted.sort_unstable();
        let pair = sorted.windows(2).find(|w| w[1] == w[0] + 1).expect("adjacent frames");
        let needle = b"STRADDLING-SECRET";
        let split = 8; // 8 bytes at the end of page 0, rest in page 1
        hv.page_write(g, pair[0], PAGE_SIZE - split, &needle[..split]).unwrap();
        hv.page_write(g, pair[1], 0, &needle[split..]).unwrap();
        let dump = MemoryDump::capture(&hv, DomainId::DOM0).unwrap();
        let hits = dump.scan(&[needle]);
        assert_eq!(hits.len(), 1, "straddling match must be found");
        assert_eq!(hits[0].mfn, pair[0]);
        assert_eq!(hits[0].offset, PAGE_SIZE - split);
    }

    #[test]
    fn guest_attacker_sees_only_itself() {
        let hv = hv();
        let victim = hv.create_domain(DomainId::DOM0, DomainConfig::small("v")).unwrap();
        let attacker = hv.create_domain(DomainId::DOM0, DomainConfig::small("a")).unwrap();
        let vf = hv.domain_info(victim).unwrap().frames[0];
        hv.page_write(victim, vf, 0, b"VICTIM-ONLY").unwrap();
        let dump = MemoryDump::capture(&hv, attacker).unwrap();
        assert!(!dump.contains_any(&[b"VICTIM-ONLY"]));
        // But Dom0 sees it.
        let dump0 = MemoryDump::capture(&hv, DomainId::DOM0).unwrap();
        assert!(dump0.contains_any(&[b"VICTIM-ONLY"]));
    }

    #[test]
    fn multiple_needles_and_occurrences() {
        let hv = hv();
        let g = hv.create_domain(DomainId::DOM0, DomainConfig::small("g")).unwrap();
        let frames = hv.domain_info(g).unwrap().frames;
        hv.page_write(g, frames[0], 0, b"AAAA-SECRET").unwrap();
        hv.page_write(g, frames[1], 50, b"AAAA-SECRET").unwrap();
        hv.page_write(g, frames[2], 99, b"BBBB-SECRET").unwrap();
        let dump = MemoryDump::capture(&hv, DomainId::DOM0).unwrap();
        let hits = dump.scan(&[b"AAAA-SECRET", b"BBBB-SECRET", b"CCCC-ABSENT"]);
        assert_eq!(hits.iter().filter(|h| h.needle == 0).count(), 2);
        assert_eq!(hits.iter().filter(|h| h.needle == 1).count(), 1);
        assert_eq!(hits.iter().filter(|h| h.needle == 2).count(), 0);
    }

    #[test]
    fn overlapping_occurrences_in_one_page() {
        let hv = hv();
        let g = hv.create_domain(DomainId::DOM0, DomainConfig::small("g")).unwrap();
        let f = hv.domain_info(g).unwrap().frames[0];
        hv.page_write(g, f, 0, b"XYXYXY").unwrap();
        let dump = MemoryDump::capture(&hv, DomainId::DOM0).unwrap();
        let hits = dump.scan(&[b"XYXY"]);
        assert_eq!(hits.len(), 2, "overlapping matches at 0 and 2");
    }

    #[test]
    fn stats_shape() {
        let hv = hv();
        let dump = MemoryDump::capture(&hv, DomainId::DOM0).unwrap();
        let stats = dump.stats(&[b"nothing-here"]);
        assert_eq!(stats.bytes, stats.pages * PAGE_SIZE);
        assert_eq!(stats.hits, 0);
        assert!(!dump.is_empty());
    }

    #[test]
    fn empty_needles_no_hits() {
        let hv = hv();
        let dump = MemoryDump::capture(&hv, DomainId::DOM0).unwrap();
        assert!(dump.scan(&[]).is_empty());
        assert!(dump.scan(&[b""]).is_empty());
    }
}
