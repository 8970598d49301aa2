//! Property tests for the simulated kernel memory subsystem.
//!
//! Deterministic seeded-loop properties (hermetic replacement for the
//! original proptest strategies): inputs come from a [`wsc_prng::SmallRng`]
//! stream seeded per case, so runs are identical everywhere.

use std::collections::BTreeMap;
use wsc_prng::SmallRng;
use wsc_sim_os::addr::{HUGE_PAGE_BYTES, TCMALLOC_PAGES_PER_HUGE, TCMALLOC_PAGE_BYTES};
use wsc_sim_os::pagetable::PageTable;
use wsc_sim_os::vmm::Vmm;
use wsc_sim_os::OsError;

#[test]
fn mappings_never_overlap_and_stay_aligned() {
    for case in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(0x0520 + case);
        let mut vmm = Vmm::new();
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        let n = rng.gen_range(1usize..40);
        for _ in 0..n {
            let len = rng.gen_range(1u64..(64 << 20));
            let addr = vmm.mmap(len).expect("no fault plan").addr;
            assert_eq!(addr % HUGE_PAGE_BYTES, 0);
            let rounded = len.div_ceil(HUGE_PAGE_BYTES) * HUGE_PAGE_BYTES;
            for &(a, l) in &ranges {
                assert!(addr + rounded <= a || a + l <= addr);
            }
            ranges.push((addr, rounded));
        }
        let total: u64 = ranges.iter().map(|&(_, l)| l).sum();
        assert_eq!(vmm.mapped_bytes(), total);
    }
}

#[test]
fn residency_accounting_matches_subreleases() {
    for case in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(0x0521 + case);
        let hp_count = rng.gen_range(1u64..8);
        let mut vmm = Vmm::new();
        let base = vmm
            .mmap(hp_count * HUGE_PAGE_BYTES)
            .expect("no fault plan")
            .addr;
        let pages_total = hp_count * HUGE_PAGE_BYTES / TCMALLOC_PAGE_BYTES;
        // Track released TCMalloc pages exactly.
        let mut released = vec![false; pages_total as usize];
        let cuts = rng.gen_range(0usize..12);
        for _ in 0..cuts {
            let start = rng.gen_range(0u64..2048) % pages_total;
            let len = rng.gen_range(1u64..64).min(pages_total - start);
            if len == 0 {
                continue;
            }
            vmm.subrelease(
                base + start * TCMALLOC_PAGE_BYTES,
                len * TCMALLOC_PAGE_BYTES,
            )
            .expect("mapped range");
            for p in start..start + len {
                released[p as usize] = true;
            }
        }
        let released_pages = released.iter().filter(|&&r| r).count() as u64;
        assert_eq!(
            vmm.page_table().resident_bytes(),
            (pages_total - released_pages) * TCMALLOC_PAGE_BYTES
        );
        // Coverage: only untouched hugepages remain huge-backed.
        for hp in 0..hp_count {
            let touched = released[(hp * 256) as usize..((hp + 1) * 256) as usize]
                .iter()
                .any(|&r| r);
            assert_eq!(
                vmm.page_table().is_huge_backed(base + hp * HUGE_PAGE_BYTES),
                !touched
            );
        }
    }
}

#[test]
fn reoccupy_restores_residency_exactly() {
    for case in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(0x0522 + case);
        let start = rng.gen_range(0u64..200);
        let len = rng.gen_range(1u64..56);
        let mut vmm = Vmm::new();
        let base = vmm.mmap(HUGE_PAGE_BYTES).expect("no fault plan").addr;
        vmm.subrelease(base, HUGE_PAGE_BYTES).expect("mapped range");
        assert_eq!(vmm.page_table().resident_bytes(), 0);
        vmm.reoccupy(
            base + start * TCMALLOC_PAGE_BYTES,
            len * TCMALLOC_PAGE_BYTES,
        );
        assert_eq!(vmm.page_table().resident_bytes(), len * TCMALLOC_PAGE_BYTES);
        // Still broken: reoccupation does not rebuild the hugepage.
        assert!(!vmm.page_table().is_huge_backed(base));
    }
}

/// Hugepage regions the differential test plays in; index `ARENA` and
/// above are never mapped.
const ARENA: u64 = 12;
const PAGES_PER_HUGE: usize = TCMALLOC_PAGES_PER_HUGE as usize;

/// Scan oracle: one region's state, kept page by page.
#[derive(Clone)]
struct ModelRegion {
    huge: bool,
    denied: bool,
    released: Vec<bool>,
}

/// Recounts every aggregate from scratch: `(resident, huge-backed,
/// denied)`.
fn recount(model: &BTreeMap<u64, ModelRegion>) -> (u64, u64, u64) {
    let mut resident = 0;
    let mut huge = 0;
    let mut denied = 0;
    for r in model.values() {
        let bytes = r.released.iter().filter(|&&x| !x).count() as u64 * TCMALLOC_PAGE_BYTES;
        resident += bytes;
        if r.huge {
            huge += bytes;
        }
        denied += u64::from(r.denied);
    }
    (resident, huge, denied)
}

fn assert_matches(pt: &PageTable, model: &BTreeMap<u64, ModelRegion>, what: &str) {
    let (resident, huge, denied) = recount(model);
    assert_eq!(pt.resident_bytes(), resident, "{what}: resident_bytes");
    assert_eq!(pt.huge_backed_bytes(), huge, "{what}: huge_backed_bytes");
    let coverage = if resident == 0 {
        0.0
    } else {
        huge as f64 / resident as f64
    };
    assert_eq!(
        pt.hugepage_coverage().to_bits(),
        coverage.to_bits(),
        "{what}: hugepage_coverage"
    );
    assert_eq!(pt.denied_hugepages(), denied, "{what}: denied_hugepages");
    assert_eq!(
        pt.mapped_bytes(),
        model.len() as u64 * HUGE_PAGE_BYTES,
        "{what}: mapped_bytes"
    );
    let bases: Vec<u64> = model
        .iter()
        .filter(|(_, r)| r.denied)
        .map(|(&hp, _)| hp * HUGE_PAGE_BYTES)
        .collect();
    assert_eq!(pt.denied_bases().collect::<Vec<_>>(), bases, "{what}");
    for hp in 0..=ARENA {
        let addr = hp * HUGE_PAGE_BYTES;
        let r = model.get(&hp);
        assert_eq!(pt.is_mapped(addr), r.is_some(), "{what}: hp {hp}");
        assert_eq!(pt.is_huge_backed(addr), r.is_some_and(|r| r.huge));
        assert_eq!(pt.is_denied(addr), r.is_some_and(|r| r.denied));
        assert_eq!(
            pt.is_fully_resident(addr),
            r.is_some_and(|r| r.released.iter().all(|&x| !x))
        );
    }
}

/// A random run of `1..=4` hugepages starting in the arena.
fn hugepage_run(rng: &mut SmallRng) -> (u64, u64) {
    let start = rng.gen_range(0..ARENA);
    let len = rng.gen_range(1u64..5).min(ARENA - start);
    (start, len)
}

/// Seeded differential test: the page table's O(1) counters against a
/// from-scratch recount of an independent page-by-page model, after every
/// operation of a random interleaving of mmap (huge or denied backing),
/// munmap of partially released regions, overlapping and repeated
/// subreleases, rejected stray subreleases, reoccupation of resident,
/// released and unmapped pages, and promotion.
#[test]
fn counters_match_a_scan_oracle_under_random_interleavings() {
    let mut rejected = 0u64;
    let mut promoted = 0u64;
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0x0523 + case);
        let mut pt = PageTable::new();
        let mut model: BTreeMap<u64, ModelRegion> = BTreeMap::new();
        for step in 0..300 {
            let what = format!("case {case} step {step}");
            match rng.gen_range(0u32..12) {
                0..=1 => {
                    let (start, len) = hugepage_run(&mut rng);
                    if (start..start + len).any(|hp| model.contains_key(&hp)) {
                        continue;
                    }
                    let huge = rng.gen_bool(0.5);
                    pt.on_mmap_backed(start * HUGE_PAGE_BYTES, len * HUGE_PAGE_BYTES, huge);
                    for hp in start..start + len {
                        let r = ModelRegion {
                            huge,
                            denied: !huge,
                            released: vec![false; PAGES_PER_HUGE],
                        };
                        model.insert(hp, r);
                    }
                }
                2 => {
                    let (start, len) = hugepage_run(&mut rng);
                    let len = (0..len)
                        .take_while(|i| model.contains_key(&(start + i)))
                        .count() as u64;
                    if len == 0 {
                        continue;
                    }
                    pt.on_munmap(start * HUGE_PAGE_BYTES, len * HUGE_PAGE_BYTES);
                    for hp in start..start + len {
                        model.remove(&hp);
                    }
                }
                3..=6 => {
                    // Half the time a short range inside one region (often
                    // repeating or overlapping an earlier one), otherwise a
                    // range that may cross regions or stray past the arena.
                    let first = rng.gen_range(0..ARENA * TCMALLOC_PAGES_PER_HUGE);
                    let len = if rng.gen_bool(0.5) {
                        rng.gen_range(1u64..8)
                    } else {
                        rng.gen_range(1u64..3 * TCMALLOC_PAGES_PER_HUGE)
                    };
                    let last = first + len;
                    let hps =
                        first / TCMALLOC_PAGES_PER_HUGE..last.div_ceil(TCMALLOC_PAGES_PER_HUGE);
                    let before = (recount(&model), pt.resident_bytes());
                    let got = pt.subrelease(first * TCMALLOC_PAGE_BYTES, len * TCMALLOC_PAGE_BYTES);
                    match hps.clone().find(|hp| !model.contains_key(hp)) {
                        Some(hp) => {
                            assert_eq!(got, Err(OsError::UnmappedRange(hp)), "{what}");
                            assert_eq!(before, (recount(&model), pt.resident_bytes()));
                            rejected += 1;
                        }
                        None => {
                            assert_eq!(got, Ok(()), "{what}");
                            for page in first..last {
                                let r = model
                                    .get_mut(&(page / TCMALLOC_PAGES_PER_HUGE))
                                    .expect("validated");
                                r.huge = false;
                                r.denied = false;
                                r.released[(page % TCMALLOC_PAGES_PER_HUGE) as usize] = true;
                            }
                        }
                    }
                }
                7..=9 => {
                    // Byte-granular: an unaligned range touches every page
                    // it overlaps.
                    let addr = rng.gen_range(0..(ARENA + 1) * HUGE_PAGE_BYTES);
                    let len = rng.gen_range(0..HUGE_PAGE_BYTES);
                    pt.reoccupy(addr, len);
                    let first = addr / TCMALLOC_PAGE_BYTES;
                    let last = (addr + len).div_ceil(TCMALLOC_PAGE_BYTES);
                    for page in first..last {
                        if let Some(r) = model.get_mut(&(page / TCMALLOC_PAGES_PER_HUGE)) {
                            r.released[(page % TCMALLOC_PAGES_PER_HUGE) as usize] = false;
                        }
                    }
                }
                _ => {
                    let hp = rng.gen_range(0..=ARENA);
                    let want = model
                        .get_mut(&hp)
                        .filter(|r| r.denied && r.released.iter().all(|&x| !x))
                        .map(|r| {
                            r.huge = true;
                            r.denied = false;
                        })
                        .is_some();
                    let addr = hp * HUGE_PAGE_BYTES + rng.gen_range(0..HUGE_PAGE_BYTES);
                    assert_eq!(pt.promote(addr), want, "{what}: promote");
                    promoted += u64::from(want);
                }
            }
            assert_matches(&pt, &model, &what);
        }
    }
    assert!(rejected > 0, "the interleaving exercised stray subreleases");
    assert!(promoted > 0, "the interleaving exercised promotion");
}
