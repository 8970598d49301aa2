//! Page-table backing state: which regions are hugepage-backed.
//!
//! The kernel's transparent-hugepage (THP) machinery backs an aligned,
//! fully-mapped 2 MiB region with a single hugepage. TCMalloc's pageheap can
//! *subrelease* a partially-free hugepage (`madvise(DONTNEED)` on a
//! sub-range), which forces the kernel to split it into base pages — freeing
//! memory but permanently degrading TLB reach for the survivors (§3, §4.4).
//! [`PageTable`] tracks that state and computes the **hugepage coverage**
//! metric of Figure 17a: the fraction of resident heap bytes backed by
//! hugepages.
//!
//! # Counter invariant
//!
//! Residency is sampled after every replayed event, so every aggregate
//! query ([`resident_bytes`], [`huge_backed_bytes`], [`hugepage_coverage`],
//! [`denied_hugepages`]) is a field read, never a walk of the regions.
//! Three running counters always equal a from-scratch recount of the map:
//!
//! * `resident_bytes` — mapped bytes minus released TCMalloc pages;
//! * `huge_regions` — regions still backed by a hugepage. A huge region
//!   never has a released page, so huge-backed bytes are exactly
//!   `huge_regions × 2 MiB`;
//! * `denied_regions` — regions denied THP backing at `mmap` time and not
//!   yet collapsed or broken.
//!
//! Only the five mutators touch them: [`on_mmap_backed`] adds whole
//! regions, [`on_munmap`] subtracts a region's *resident* part and its
//! flags, [`subrelease`] and [`reoccupy`] count only the mask bits that
//! actually flip (so repeating either never counts a page twice), and
//! [`promote`] moves one region from denied to huge. [`subrelease`] also
//! clears `denied`: a subrelease-broken hugepage is ordinary small-page
//! memory and never promotes.
//!
//! [`resident_bytes`]: PageTable::resident_bytes
//! [`huge_backed_bytes`]: PageTable::huge_backed_bytes
//! [`hugepage_coverage`]: PageTable::hugepage_coverage
//! [`denied_hugepages`]: PageTable::denied_hugepages
//! [`on_mmap_backed`]: PageTable::on_mmap_backed
//! [`on_munmap`]: PageTable::on_munmap
//! [`subrelease`]: PageTable::subrelease
//! [`reoccupy`]: PageTable::reoccupy
//! [`promote`]: PageTable::promote

use crate::addr::{HUGE_PAGE_BYTES, TCMALLOC_PAGES_PER_HUGE, TCMALLOC_PAGE_BYTES};
use crate::faults::OsError;
use std::collections::BTreeMap;
use wsc_sim_hw::tlb::PageSize;

/// Words of the per-hugepage released-page bitmask (256 TCMalloc pages).
const MASK_WORDS: usize = (TCMALLOC_PAGES_PER_HUGE as usize) / 64;

/// Backing state of one mapped hugepage-sized region.
#[derive(Clone, Debug, PartialEq, Eq)]
struct HugeState {
    /// Still backed by a single 2 MiB hugepage?
    huge: bool,
    /// THP compaction failed at `mmap` time: the region has always been
    /// 4 KiB-backed and is eligible for khugepaged-style collapse once it
    /// is fully resident. Subrelease clears it: subrelease-broken
    /// hugepages (`denied == false`, `huge == false`) are *not* eligible —
    /// the kernel never transparently rebuilds those, which is the §3
    /// degradation story.
    denied: bool,
    /// For broken hugepages: bitmask of *released* (non-resident) TCMalloc
    /// pages. All-zero while `huge` is true.
    released: [u64; MASK_WORDS],
}

impl HugeState {
    fn new_huge() -> Self {
        Self {
            huge: true,
            denied: false,
            released: [0; MASK_WORDS],
        }
    }

    fn new_denied() -> Self {
        Self {
            huge: false,
            denied: true,
            released: [0; MASK_WORDS],
        }
    }

    fn released_pages(&self) -> u32 {
        self.released.iter().map(|w| w.count_ones()).sum()
    }

    fn resident_bytes(&self) -> u64 {
        HUGE_PAGE_BYTES - self.released_pages() as u64 * TCMALLOC_PAGE_BYTES
    }
}

/// Bitmask of TCMalloc pages `lo..hi` within one hugepage (`hi <= 256`).
fn page_mask(lo: u64, hi: u64) -> [u64; MASK_WORDS] {
    let mut mask = [0; MASK_WORDS];
    for (w, word) in mask.iter_mut().enumerate() {
        let (w_lo, w_hi) = (w as u64 * 64, w as u64 * 64 + 64);
        let (a, b) = (lo.max(w_lo), hi.min(w_hi));
        if a < b {
            *word = (u64::MAX >> (64 - (b - a))) << (a - w_lo);
        }
    }
    mask
}

/// Splits the TCMalloc-page range `first..last` into per-hugepage pieces:
/// `(hugepage index, mask of the pages it covers there)`, ascending. An
/// empty range has no pieces.
fn hugepage_pieces(first: u64, last: u64) -> impl Iterator<Item = (u64, [u64; MASK_WORDS])> {
    let hps = if first < last {
        first / TCMALLOC_PAGES_PER_HUGE..last.div_ceil(TCMALLOC_PAGES_PER_HUGE)
    } else {
        0..0
    };
    hps.map(move |hp| {
        let base = hp * TCMALLOC_PAGES_PER_HUGE;
        let lo = first.max(base) - base;
        let hi = last.min(base + TCMALLOC_PAGES_PER_HUGE) - base;
        (hp, page_mask(lo, hi))
    })
}

/// Tracks the backing (huge vs base pages, residency) of every mapped
/// hugepage-sized region in a process, with O(1) aggregate queries (see
/// the module's counter invariant).
///
/// # Example
///
/// ```
/// use wsc_sim_os::pagetable::PageTable;
/// use wsc_sim_os::addr::HUGE_PAGE_BYTES;
///
/// let mut pt = PageTable::new();
/// pt.on_mmap(0, HUGE_PAGE_BYTES);
/// assert!(pt.is_huge_backed(0));
/// assert!((pt.hugepage_coverage() - 1.0).abs() < 1e-12);
/// pt.subrelease(0, 8 * 1024).expect("range is mapped"); // break the hugepage
/// assert!(!pt.is_huge_backed(0));
/// assert!(pt.hugepage_coverage() < 1.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct PageTable {
    regions: BTreeMap<u64, HugeState>,
    /// Sum of every region's resident bytes.
    resident_bytes: u64,
    /// Regions with `huge` set.
    huge_regions: u64,
    /// Regions with `denied` set.
    denied_regions: u64,
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        Self::default()
    }

    fn for_each_hugepage(addr: u64, len: u64) -> impl Iterator<Item = u64> {
        assert!(
            addr.is_multiple_of(HUGE_PAGE_BYTES) && len.is_multiple_of(HUGE_PAGE_BYTES),
            "mmap/munmap must be hugepage-granular: addr={addr:#x} len={len:#x}"
        );
        (addr / HUGE_PAGE_BYTES)..((addr + len) / HUGE_PAGE_BYTES)
    }

    /// Registers a new hugepage-aligned mapping; THP backs every 2 MiB of it
    /// with a hugepage.
    ///
    /// # Panics
    ///
    /// Panics on misaligned arguments or double-mapping.
    pub fn on_mmap(&mut self, addr: u64, len: u64) {
        self.on_mmap_backed(addr, len, true);
    }

    /// Registers a new hugepage-aligned mapping with explicit backing:
    /// `huge = false` models THP compaction failure, where the kernel grants
    /// the mapping but backs it with base pages (fully resident, zero
    /// hugepage coverage) until a later collapse [`promote`]s it.
    ///
    /// # Panics
    ///
    /// Panics on misaligned arguments or double-mapping.
    ///
    /// [`promote`]: Self::promote
    pub fn on_mmap_backed(&mut self, addr: u64, len: u64, huge: bool) {
        for hp in Self::for_each_hugepage(addr, len) {
            let state = if huge {
                HugeState::new_huge()
            } else {
                HugeState::new_denied()
            };
            let prev = self.regions.insert(hp, state);
            assert!(prev.is_none(), "double mmap of hugepage {hp}");
            self.resident_bytes += HUGE_PAGE_BYTES;
            if huge {
                self.huge_regions += 1;
            } else {
                self.denied_regions += 1;
            }
        }
    }

    /// Removes a mapping entirely.
    ///
    /// # Panics
    ///
    /// Panics on misaligned arguments or unmapping an absent region.
    pub fn on_munmap(&mut self, addr: u64, len: u64) {
        for hp in Self::for_each_hugepage(addr, len) {
            let state = self
                .regions
                .remove(&hp)
                .unwrap_or_else(|| panic!("munmap of unmapped hugepage {hp}"));
            self.resident_bytes -= state.resident_bytes();
            self.huge_regions -= u64::from(state.huge);
            self.denied_regions -= u64::from(state.denied);
        }
    }

    /// `madvise(DONTNEED)` on a TCMalloc-page-granular sub-range: every
    /// touched hugepage is split into base pages (losing any denied-backing
    /// eligibility for collapse) and the range becomes non-resident.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::UnmappedRange`] (naming the first offending
    /// hugepage) if any part of the range is not mapped; nothing is applied
    /// in that case, so a stray subrelease is reportable, not fatal.
    ///
    /// # Panics
    ///
    /// Panics on misaligned arguments (an allocator bug, not an OS outcome).
    pub fn subrelease(&mut self, addr: u64, len: u64) -> Result<(), OsError> {
        assert!(
            addr.is_multiple_of(TCMALLOC_PAGE_BYTES) && len.is_multiple_of(TCMALLOC_PAGE_BYTES),
            "subrelease must be TCMalloc-page-granular"
        );
        let first = addr / TCMALLOC_PAGE_BYTES;
        let last = (addr + len) / TCMALLOC_PAGE_BYTES;
        // Validate the whole range before touching anything: EINVAL leaves
        // the page table exactly as it was.
        if let Some((hp, _)) =
            hugepage_pieces(first, last).find(|(hp, _)| !self.regions.contains_key(hp))
        {
            return Err(OsError::UnmappedRange(hp));
        }
        for (hp, mask) in hugepage_pieces(first, last) {
            let state = self.regions.get_mut(&hp).expect("validated above");
            self.huge_regions -= u64::from(state.huge);
            self.denied_regions -= u64::from(state.denied);
            state.huge = false;
            state.denied = false;
            let mut flipped = 0;
            for (word, m) in state.released.iter_mut().zip(mask) {
                flipped += (m & !*word).count_ones();
                *word |= m;
            }
            self.resident_bytes -= u64::from(flipped) * TCMALLOC_PAGE_BYTES;
        }
        Ok(())
    }

    /// The application touches a previously-subreleased range again: the
    /// kernel faults base pages back in. The hugepage stays broken — the
    /// kernel does not transparently rebuild it, which is exactly the
    /// "subrelease leads to performance degradation" effect of §3. Pages
    /// already resident and unmapped pages are left alone.
    pub fn reoccupy(&mut self, addr: u64, len: u64) {
        let first = addr / TCMALLOC_PAGE_BYTES;
        let last = (addr + len).div_ceil(TCMALLOC_PAGE_BYTES);
        for (hp, mask) in hugepage_pieces(first, last) {
            if let Some(state) = self.regions.get_mut(&hp) {
                let mut flipped = 0;
                for (word, m) in state.released.iter_mut().zip(mask) {
                    flipped += (m & *word).count_ones();
                    *word &= !m;
                }
                self.resident_bytes += u64::from(flipped) * TCMALLOC_PAGE_BYTES;
            }
        }
    }

    /// khugepaged-style collapse: rebuilds hugepage backing for the region
    /// containing `addr`, but only if the region was *denied* hugepage
    /// backing at `mmap` time and is currently fully resident. Returns
    /// whether the promotion happened. Subrelease-broken hugepages never
    /// promote (the kernel does not rebuild those, §3).
    pub fn promote(&mut self, addr: u64) -> bool {
        match self.regions.get_mut(&(addr / HUGE_PAGE_BYTES)) {
            Some(s) if s.denied && s.released_pages() == 0 => {
                s.huge = true;
                s.denied = false;
                self.huge_regions += 1;
                self.denied_regions -= 1;
                true
            }
            _ => false,
        }
    }

    /// Was the hugepage containing `addr` denied hugepage backing at `mmap`
    /// time (and neither collapsed back nor broken by a subrelease since)?
    pub fn is_denied(&self, addr: u64) -> bool {
        self.regions
            .get(&(addr / HUGE_PAGE_BYTES))
            .is_some_and(|s| s.denied)
    }

    /// Is every TCMalloc page of the hugepage containing `addr` resident?
    pub fn is_fully_resident(&self, addr: u64) -> bool {
        self.regions
            .get(&(addr / HUGE_PAGE_BYTES))
            .is_some_and(|s| s.released_pages() == 0)
    }

    /// Number of mapped hugepage regions currently denied hugepage backing.
    pub fn denied_hugepages(&self) -> u64 {
        self.denied_regions
    }

    /// Base addresses of the regions currently denied hugepage backing, in
    /// ascending order. Walks the map; check [`denied_hugepages`] first.
    ///
    /// [`denied_hugepages`]: Self::denied_hugepages
    pub fn denied_bases(&self) -> impl Iterator<Item = u64> + '_ {
        self.regions
            .iter()
            .filter(|(_, s)| s.denied)
            .map(|(&hp, _)| hp * HUGE_PAGE_BYTES)
    }

    /// Is the hugepage containing `addr` still backed by a real hugepage?
    pub fn is_huge_backed(&self, addr: u64) -> bool {
        self.regions
            .get(&(addr / HUGE_PAGE_BYTES))
            .is_some_and(|s| s.huge)
    }

    /// Is `addr` mapped at all?
    pub fn is_mapped(&self, addr: u64) -> bool {
        self.regions.contains_key(&(addr / HUGE_PAGE_BYTES))
    }

    /// Translation page size for `addr`, for feeding the TLB simulator.
    /// Unmapped or broken regions translate at base-page granularity.
    pub fn page_size_of(&self, addr: u64) -> PageSize {
        if self.is_huge_backed(addr) {
            PageSize::Huge2M
        } else {
            PageSize::Base4K
        }
    }

    /// Total mapped bytes.
    pub fn mapped_bytes(&self) -> u64 {
        self.regions.len() as u64 * HUGE_PAGE_BYTES
    }

    /// Resident bytes (mapped minus subreleased).
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Resident bytes backed by hugepages.
    pub fn huge_backed_bytes(&self) -> u64 {
        self.huge_regions * HUGE_PAGE_BYTES
    }

    /// Hugepage coverage: fraction of resident bytes backed by hugepages
    /// (Figure 17a). 0 when nothing is resident.
    pub fn hugepage_coverage(&self) -> f64 {
        let resident = self.resident_bytes();
        if resident == 0 {
            0.0
        } else {
            self.huge_backed_bytes() as f64 / resident as f64
        }
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    const HP: u64 = HUGE_PAGE_BYTES;
    const TP: u64 = TCMALLOC_PAGE_BYTES;

    /// The pre-counter full scan, kept as the oracle: `(resident bytes,
    /// huge-backed bytes, denied regions)` recounted from every region.
    fn recount(pt: &PageTable) -> (u64, u64, u64) {
        let resident = pt.regions.values().map(HugeState::resident_bytes).sum();
        let huge = pt
            .regions
            .values()
            .filter(|s| s.huge)
            .map(HugeState::resident_bytes)
            .sum();
        let denied = pt.regions.values().filter(|s| s.denied).count() as u64;
        (resident, huge, denied)
    }

    /// Asserts the O(1) counters equal the full scan.
    fn assert_counters(pt: &PageTable) {
        assert_eq!(
            (
                pt.resident_bytes(),
                pt.huge_backed_bytes(),
                pt.denied_hugepages()
            ),
            recount(pt)
        );
    }

    #[test]
    fn subreleasing_a_page_twice_decrements_once() {
        let mut pt = PageTable::new();
        pt.on_mmap(0, HP);
        pt.subrelease(TP, TP).unwrap();
        assert_eq!(pt.resident_bytes(), HP - TP);
        pt.subrelease(TP, TP).unwrap();
        assert_eq!(pt.resident_bytes(), HP - TP, "already released");
        // An overlapping range only counts its new pages.
        pt.subrelease(0, 3 * TP).unwrap();
        assert_eq!(pt.resident_bytes(), HP - 3 * TP);
        assert_counters(&pt);
    }

    #[test]
    fn reoccupying_a_resident_page_does_not_increment() {
        let mut pt = PageTable::new();
        pt.on_mmap(0, HP);
        pt.reoccupy(0, 4 * TP);
        assert_eq!(pt.resident_bytes(), HP, "never released");
        pt.subrelease(2 * TP, 2 * TP).unwrap();
        pt.reoccupy(0, 8 * TP);
        assert_eq!(pt.resident_bytes(), HP, "only the two released pages");
        pt.reoccupy(0, 8 * TP);
        assert_eq!(pt.resident_bytes(), HP);
        // Unmapped pages are ignored.
        pt.reoccupy(4 * HP, HP);
        assert_eq!(pt.resident_bytes(), HP);
        assert_counters(&pt);
    }

    #[test]
    fn munmap_of_a_broken_region_subtracts_only_its_resident_part() {
        let mut pt = PageTable::new();
        pt.on_mmap(0, 2 * HP);
        pt.subrelease(HP + 10 * TP, 100 * TP).unwrap();
        assert_eq!(pt.resident_bytes(), 2 * HP - 100 * TP);
        pt.on_munmap(HP, HP);
        assert_eq!(pt.resident_bytes(), HP);
        assert_eq!(pt.huge_backed_bytes(), HP);
        assert_counters(&pt);
    }

    #[test]
    fn promote_moves_one_region_from_denied_to_huge() {
        let mut pt = PageTable::new();
        pt.on_mmap_backed(0, 2 * HP, false);
        assert_eq!(pt.denied_hugepages(), 2);
        assert_eq!(pt.huge_backed_bytes(), 0);
        assert!(pt.promote(HP));
        assert_eq!(pt.denied_hugepages(), 1);
        assert_eq!(pt.huge_backed_bytes(), HP);
        assert_eq!(pt.resident_bytes(), 2 * HP);
        assert!(!pt.promote(HP), "already huge");
        assert_eq!(pt.denied_bases().collect::<Vec<_>>(), vec![0]);
        assert_counters(&pt);
    }

    #[test]
    fn subrelease_clears_denied_backing() {
        let mut pt = PageTable::new();
        pt.on_mmap_backed(0, HP, false);
        pt.subrelease(0, TP).unwrap();
        assert!(!pt.is_denied(0));
        assert_eq!(pt.denied_hugepages(), 0);
        pt.reoccupy(0, TP);
        assert!(pt.is_fully_resident(0));
        assert!(!pt.promote(0), "subrelease-broken hugepages never promote");
        assert_counters(&pt);
    }

    #[test]
    fn rejected_and_empty_subreleases_change_nothing() {
        let mut pt = PageTable::new();
        pt.on_mmap(0, HP);
        assert_eq!(
            pt.subrelease(HP - TP, 2 * TP),
            Err(OsError::UnmappedRange(1))
        );
        pt.subrelease(5 * TP, 0).unwrap();
        assert!(pt.is_huge_backed(0));
        assert_eq!(pt.resident_bytes(), HP);
        assert_counters(&pt);
    }

    #[test]
    fn page_mask_covers_word_boundaries() {
        assert_eq!(page_mask(0, 256), [u64::MAX; MASK_WORDS]);
        assert_eq!(page_mask(63, 65), [1 << 63, 1, 0, 0]);
        assert_eq!(page_mask(64, 128), [0, u64::MAX, 0, 0]);
        assert_eq!(page_mask(255, 256), [0, 0, 0, 1 << 63]);
        assert_eq!(page_mask(7, 7), [0; MASK_WORDS]);
    }

    #[test]
    fn mmap_is_huge_backed() {
        let mut pt = PageTable::new();
        pt.on_mmap(HP * 4, HP * 2);
        assert!(pt.is_huge_backed(HP * 4));
        assert!(pt.is_huge_backed(HP * 5 + 12345));
        assert!(!pt.is_mapped(HP * 6));
        assert_eq!(pt.mapped_bytes(), 2 * HP);
        assert_eq!(pt.resident_bytes(), 2 * HP);
        assert!((pt.hugepage_coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "double mmap")]
    fn double_mmap_panics() {
        let mut pt = PageTable::new();
        pt.on_mmap(0, HP);
        pt.on_mmap(0, HP);
    }

    #[test]
    #[should_panic(expected = "hugepage-granular")]
    fn misaligned_mmap_panics() {
        let mut pt = PageTable::new();
        pt.on_mmap(4096, HP);
    }

    #[test]
    fn subrelease_breaks_hugepage_and_coverage_drops() {
        let mut pt = PageTable::new();
        pt.on_mmap(0, 2 * HP);
        pt.subrelease(0, 4 * TP).unwrap();
        assert!(!pt.is_huge_backed(0));
        assert!(pt.is_huge_backed(HP), "second hugepage untouched");
        assert_eq!(pt.resident_bytes(), 2 * HP - 4 * TP);
        let cov = pt.hugepage_coverage();
        // One of ~two hugepages' worth of resident bytes is huge-backed.
        assert!(cov > 0.4 && cov < 0.6, "coverage {cov}");
    }

    #[test]
    fn reoccupy_restores_residency_not_hugeness() {
        let mut pt = PageTable::new();
        pt.on_mmap(0, HP);
        pt.subrelease(0, HP).unwrap();
        assert_eq!(pt.resident_bytes(), 0);
        pt.reoccupy(0, HP);
        assert_eq!(pt.resident_bytes(), HP);
        assert!(!pt.is_huge_backed(0), "THP does not rebuild");
        assert_eq!(pt.hugepage_coverage(), 0.0);
    }

    #[test]
    fn munmap_removes() {
        let mut pt = PageTable::new();
        pt.on_mmap(0, HP);
        pt.on_munmap(0, HP);
        assert!(!pt.is_mapped(0));
        assert_eq!(pt.mapped_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "unmapped")]
    fn munmap_absent_panics() {
        let mut pt = PageTable::new();
        pt.on_munmap(0, HP);
    }

    #[test]
    fn page_size_for_tlb() {
        let mut pt = PageTable::new();
        pt.on_mmap(0, HP);
        assert_eq!(pt.page_size_of(100), PageSize::Huge2M);
        pt.subrelease(0, TP).unwrap();
        assert_eq!(pt.page_size_of(100), PageSize::Base4K);
        assert_eq!(pt.page_size_of(HP * 99), PageSize::Base4K);
    }
}
