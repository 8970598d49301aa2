//! Last-level-cache occupancy model with cross-domain transfer tracking.
//!
//! Table 1 of the paper attributes the NUCA-aware transfer cache's throughput
//! win to a lower LLC load miss rate: when the allocator hands a core an
//! object that was last touched in *another* LLC domain, the first accesses
//! must fetch the data across the on-die fabric. [`LlcModel`] keeps one
//! byte-capacity LRU per cache domain and classifies every access as a local
//! hit, a remote-domain transfer, or a memory miss — which is all the driver
//! needs to charge realistic stall cycles and report MPKI.

use crate::topology::DomainId;
use std::collections::hash_map::{Entry, HashMap};
use wsc_prng::IdBuildHasher;

/// Outcome of an LLC access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LlcAccess {
    /// The block was resident in the accessing domain's LLC.
    Hit,
    /// The block was resident in a *different* domain's LLC and had to be
    /// transferred (the NUCA penalty of Figure 11).
    MissRemote,
    /// The block came from memory.
    MissMemory,
}

/// LLC access counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LlcStats {
    /// Total accesses.
    pub accesses: u64,
    /// Local hits.
    pub hits: u64,
    /// Cross-domain transfers.
    pub remote_misses: u64,
    /// Memory misses.
    pub memory_misses: u64,
}

impl LlcStats {
    /// Total misses (remote + memory).
    pub fn misses(&self) -> u64 {
        self.remote_misses + self.memory_misses
    }

    /// Miss fraction, 0 when no accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }
}

/// One cached block: a node of its domain's intrusive LRU list.
#[derive(Clone, Copy, Debug)]
struct Node {
    key: u64,
    bytes: u64,
    domain: usize,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

/// One domain's LRU order and byte budget; its nodes live in the model's
/// shared node pool.
#[derive(Clone, Copy, Debug)]
struct Domain {
    used: u64,
    head: usize, // most recent; NIL when empty
    tail: usize, // least recent
}

/// Per-domain LLC model for one machine.
///
/// Blocks are identified by an opaque `u64` key (the workload driver uses the
/// object's base address rounded to a cache-friendly granule).
///
/// A block lives in at most one domain: a remote miss *moves* it to the
/// accessing domain. So one index maps each resident block to its node, the
/// node records its domain, and each domain keeps only its own LRU links and
/// byte budget — every access is a single hash probe however many domains
/// the machine has.
///
/// # Example
///
/// ```
/// use wsc_sim_hw::cache::{LlcAccess, LlcModel};
/// use wsc_sim_hw::topology::DomainId;
///
/// let mut llc = LlcModel::new(2, 1 << 20);
/// assert_eq!(llc.access(DomainId(0), 42, 64), LlcAccess::MissMemory);
/// assert_eq!(llc.access(DomainId(0), 42, 64), LlcAccess::Hit);
/// // Domain 1 touching the same block pays a cross-domain transfer.
/// assert_eq!(llc.access(DomainId(1), 42, 64), LlcAccess::MissRemote);
/// ```
#[derive(Clone, Debug)]
pub struct LlcModel {
    /// Capacity of each domain, bytes.
    capacity: u64,
    domains: Vec<Domain>,
    /// Block -> node index, across all domains.
    // lint:allow(hashmap-decl) keyed lookup only; never iterated
    index: HashMap<u64, usize, IdBuildHasher>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    stats: LlcStats,
}

impl LlcModel {
    /// Creates a model with `num_domains` LLC domains of `bytes_per_domain`
    /// capacity each.
    ///
    /// # Panics
    ///
    /// Panics if `num_domains` is zero or capacity is zero.
    pub fn new(num_domains: usize, bytes_per_domain: u64) -> Self {
        assert!(num_domains > 0, "need at least one domain");
        assert!(bytes_per_domain > 0, "LLC capacity must be positive");
        Self {
            capacity: bytes_per_domain,
            domains: vec![
                Domain {
                    used: 0,
                    head: NIL,
                    tail: NIL,
                };
                num_domains
            ],
            index: HashMap::default(),
            nodes: Vec::new(),
            free: Vec::new(),
            stats: LlcStats::default(),
        }
    }

    fn unlink(&mut self, i: usize) {
        let Node {
            domain, prev, next, ..
        } = self.nodes[i];
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.domains[domain].head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.domains[domain].tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        let d = self.nodes[i].domain;
        let head = self.domains[d].head;
        self.nodes[i].prev = NIL;
        self.nodes[i].next = head;
        if head != NIL {
            self.nodes[head].prev = i;
        }
        self.domains[d].head = i;
        if self.domains[d].tail == NIL {
            self.domains[d].tail = i;
        }
    }

    /// Unlinks node `i` from its domain and returns its bytes to the budget.
    fn detach(&mut self, i: usize) {
        self.unlink(i);
        let n = self.nodes[i];
        self.domains[n.domain].used -= n.bytes;
    }

    /// Places the unlinked node `i` at the front of domain `d` as `bytes`,
    /// first evicting `d`'s LRU blocks until it fits. Oversized blocks are
    /// clamped to capacity (streaming a block larger than the LLC just
    /// flushes it).
    fn attach(&mut self, i: usize, d: usize, bytes: u64) {
        let bytes = bytes.min(self.capacity).max(1);
        while self.domains[d].used + bytes > self.capacity && self.domains[d].tail != NIL {
            let victim = self.domains[d].tail;
            self.detach(victim);
            self.index.remove(&self.nodes[victim].key);
            self.free.push(victim);
        }
        self.nodes[i].domain = d;
        self.nodes[i].bytes = bytes;
        self.domains[d].used += bytes;
        self.push_front(i);
    }

    /// Performs one access from `domain` to `block` of `bytes` and
    /// classifies it.
    ///
    /// # Panics
    ///
    /// Panics if `domain` is out of range.
    pub fn access(&mut self, domain: DomainId, block: u64, bytes: u64) -> LlcAccess {
        let d = domain.index();
        assert!(d < self.domains.len(), "domain {domain} out of range");
        self.stats.accesses += 1;
        match self.index.entry(block) {
            Entry::Occupied(e) => {
                let i = *e.get();
                if self.nodes[i].domain == d {
                    if self.domains[d].head != i {
                        self.unlink(i);
                        self.push_front(i);
                    }
                    self.stats.hits += 1;
                    return LlcAccess::Hit;
                }
                // Transfer: the line moves to the accessing domain.
                self.detach(i);
                self.attach(i, d, bytes);
                self.stats.remote_misses += 1;
                LlcAccess::MissRemote
            }
            Entry::Vacant(e) => {
                let node = Node {
                    key: block,
                    bytes: 0,
                    domain: d,
                    prev: NIL,
                    next: NIL,
                };
                let i = if let Some(i) = self.free.pop() {
                    self.nodes[i] = node;
                    i
                } else {
                    self.nodes.push(node);
                    self.nodes.len() - 1
                };
                e.insert(i);
                self.attach(i, d, bytes);
                self.stats.memory_misses += 1;
                LlcAccess::MissMemory
            }
        }
    }

    /// Evicts a block everywhere (the backing memory was unmapped).
    pub fn evict(&mut self, block: u64) {
        if let Some(i) = self.index.remove(&block) {
            self.detach(i);
            self.free.push(i);
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> LlcStats {
        self.stats
    }

    /// Resets counters (cache contents stay warm).
    pub fn reset_stats(&mut self) {
        self.stats = LlcStats::default();
    }

    /// Number of modeled domains.
    pub fn num_domains(&self) -> usize {
        self.domains.len()
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    /// The per-domain model this one replaced: one LRU and one index per
    /// domain, every miss probing (and removing from) every other domain.
    /// Kept as the differential-test oracle.
    mod per_domain {
        use crate::cache::{LlcAccess, LlcStats};
        use crate::topology::DomainId;
        use std::collections::HashMap;

        /// An intrusive byte-capacity LRU keyed by block id.
        #[derive(Clone, Debug)]
        struct LruBytes {
            capacity: u64,
            used: u64,
            /// key -> node index; order lives in the intrusive head/tail links
            // lint:allow(hashmap-decl) keyed lookup only; never iterated
            index: HashMap<u64, usize>,
            nodes: Vec<Node>,
            head: usize, // most recent; usize::MAX when empty
            tail: usize, // least recent
            free: Vec<usize>,
        }

        #[derive(Clone, Copy, Debug)]
        struct Node {
            key: u64,
            bytes: u64,
            prev: usize,
            next: usize,
        }

        const NIL: usize = usize::MAX;

        impl LruBytes {
            fn new(capacity: u64) -> Self {
                Self {
                    capacity,
                    used: 0,
                    index: HashMap::new(),
                    nodes: Vec::new(),
                    head: NIL,
                    tail: NIL,
                    free: Vec::new(),
                }
            }

            fn unlink(&mut self, i: usize) {
                let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
                if prev != NIL {
                    self.nodes[prev].next = next;
                } else {
                    self.head = next;
                }
                if next != NIL {
                    self.nodes[next].prev = prev;
                } else {
                    self.tail = prev;
                }
            }

            fn push_front(&mut self, i: usize) {
                self.nodes[i].prev = NIL;
                self.nodes[i].next = self.head;
                if self.head != NIL {
                    self.nodes[self.head].prev = i;
                }
                self.head = i;
                if self.tail == NIL {
                    self.tail = i;
                }
            }

            /// Returns true (and refreshes recency) if `key` is resident.
            fn touch(&mut self, key: u64) -> bool {
                if let Some(&i) = self.index.get(&key) {
                    if self.head != i {
                        self.unlink(i);
                        self.push_front(i);
                    }
                    true
                } else {
                    false
                }
            }

            /// Inserts `key`; evicts LRU entries until it fits. Oversized blocks are
            /// clamped to capacity (streaming a block larger than the LLC just
            /// flushes it).
            fn insert(&mut self, key: u64, bytes: u64) {
                if self.touch(key) {
                    return;
                }
                let bytes = bytes.min(self.capacity).max(1);
                while self.used + bytes > self.capacity && self.tail != NIL {
                    let victim = self.tail;
                    let vkey = self.nodes[victim].key;
                    self.used -= self.nodes[victim].bytes;
                    self.unlink(victim);
                    self.index.remove(&vkey);
                    self.free.push(victim);
                }
                let node = Node {
                    key,
                    bytes,
                    prev: NIL,
                    next: NIL,
                };
                let i = if let Some(i) = self.free.pop() {
                    self.nodes[i] = node;
                    i
                } else {
                    self.nodes.push(node);
                    self.nodes.len() - 1
                };
                self.index.insert(key, i);
                self.used += bytes;
                self.push_front(i);
            }

            fn remove(&mut self, key: u64) {
                if let Some(i) = self.index.remove(&key) {
                    self.used -= self.nodes[i].bytes;
                    self.unlink(i);
                    self.free.push(i);
                }
            }

            fn contains(&self, key: u64) -> bool {
                self.index.contains_key(&key)
            }
        }

        pub struct PerDomainLlc {
            domains: Vec<LruBytes>,
            stats: LlcStats,
        }

        impl PerDomainLlc {
            pub fn new(num_domains: usize, bytes_per_domain: u64) -> Self {
                Self {
                    domains: (0..num_domains)
                        .map(|_| LruBytes::new(bytes_per_domain))
                        .collect(),
                    stats: LlcStats::default(),
                }
            }

            pub fn access(&mut self, domain: DomainId, block: u64, bytes: u64) -> LlcAccess {
                let d = domain.index();
                assert!(d < self.domains.len(), "domain {domain} out of range");
                self.stats.accesses += 1;
                if self.domains[d].touch(block) {
                    self.stats.hits += 1;
                    return LlcAccess::Hit;
                }
                // Not local: is any other domain holding it?
                let remote = self
                    .domains
                    .iter()
                    .enumerate()
                    .any(|(i, dom)| i != d && dom.contains(block));
                if remote {
                    // Transfer: the line moves to the accessing domain.
                    for (i, dom) in self.domains.iter_mut().enumerate() {
                        if i != d {
                            dom.remove(block);
                        }
                    }
                    self.domains[d].insert(block, bytes);
                    self.stats.remote_misses += 1;
                    LlcAccess::MissRemote
                } else {
                    self.domains[d].insert(block, bytes);
                    self.stats.memory_misses += 1;
                    LlcAccess::MissMemory
                }
            }

            /// Evicts a block everywhere (the backing memory was unmapped).
            pub fn evict(&mut self, block: u64) {
                for dom in &mut self.domains {
                    dom.remove(block);
                }
            }

            pub fn stats(&self) -> LlcStats {
                self.stats
            }
        }
    }

    /// Seeded access/evict streams over a key space a few times larger than
    /// the cache, so LRU eviction, remote transfers and explicit evicts all
    /// happen: every outcome and the final counters match the per-domain
    /// model.
    #[test]
    fn single_index_matches_per_domain_model() {
        use wsc_prng::SmallRng;
        for domains in [1usize, 2, 8] {
            for seed in 0..8u64 {
                let mut rng = SmallRng::seed_from_u64(seed * 31 + domains as u64);
                let capacity = 4096;
                let mut fast = LlcModel::new(domains, capacity);
                let mut oracle = per_domain::PerDomainLlc::new(domains, capacity);
                for step in 0..20_000 {
                    let block = rng.gen_range(0..64u64);
                    if rng.gen_range(0..16u32) == 0 {
                        fast.evict(block);
                        oracle.evict(block);
                        continue;
                    }
                    let d = DomainId(rng.gen_range(0..domains as u32));
                    // Mostly small blocks, some oversized (clamped) ones.
                    let bytes = if rng.gen_range(0..64u32) == 0 {
                        rng.gen_range(capacity..4 * capacity)
                    } else {
                        rng.gen_range(0..512u64)
                    };
                    assert_eq!(
                        fast.access(d, block, bytes),
                        oracle.access(d, block, bytes),
                        "{domains} domains, seed {seed}, step {step}"
                    );
                }
                let s = fast.stats();
                assert_eq!(s, oracle.stats(), "{domains} domains, seed {seed}");
                assert!(s.hits > 1000 && s.memory_misses > 1000, "{s:?}");
                assert!(domains == 1 || s.remote_misses > 1000, "{s:?}");
            }
        }
    }

    #[test]
    fn hit_after_insert() {
        let mut llc = LlcModel::new(1, 1024);
        assert_eq!(llc.access(DomainId(0), 1, 100), LlcAccess::MissMemory);
        assert_eq!(llc.access(DomainId(0), 1, 100), LlcAccess::Hit);
        assert_eq!(llc.stats().hits, 1);
        assert_eq!(llc.stats().memory_misses, 1);
    }

    #[test]
    fn capacity_eviction_is_lru() {
        let mut llc = LlcModel::new(1, 300);
        llc.access(DomainId(0), 1, 100);
        llc.access(DomainId(0), 2, 100);
        llc.access(DomainId(0), 3, 100);
        llc.access(DomainId(0), 1, 100); // refresh 1
        llc.access(DomainId(0), 4, 100); // evicts 2 (LRU)
        assert_eq!(llc.access(DomainId(0), 1, 100), LlcAccess::Hit);
        assert_eq!(llc.access(DomainId(0), 2, 100), LlcAccess::MissMemory);
    }

    #[test]
    fn cross_domain_transfer() {
        let mut llc = LlcModel::new(2, 1024);
        llc.access(DomainId(0), 7, 64);
        assert_eq!(llc.access(DomainId(1), 7, 64), LlcAccess::MissRemote);
        // Line moved: now local to domain 1, gone from domain 0.
        assert_eq!(llc.access(DomainId(1), 7, 64), LlcAccess::Hit);
        assert_eq!(llc.access(DomainId(0), 7, 64), LlcAccess::MissRemote);
    }

    #[test]
    fn evict_removes_everywhere() {
        let mut llc = LlcModel::new(2, 1024);
        llc.access(DomainId(0), 9, 64);
        llc.evict(9);
        assert_eq!(llc.access(DomainId(0), 9, 64), LlcAccess::MissMemory);
    }

    #[test]
    fn oversized_block_clamped() {
        let mut llc = LlcModel::new(1, 100);
        assert_eq!(llc.access(DomainId(0), 1, 1000), LlcAccess::MissMemory);
        assert_eq!(llc.access(DomainId(0), 1, 1000), LlcAccess::Hit);
    }

    #[test]
    fn stats_miss_rate() {
        let mut llc = LlcModel::new(1, 1024);
        llc.access(DomainId(0), 1, 10);
        llc.access(DomainId(0), 1, 10);
        llc.access(DomainId(0), 2, 10);
        let s = llc.stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.misses(), 2);
        assert!((s.miss_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_domain_panics() {
        let mut llc = LlcModel::new(1, 1024);
        llc.access(DomainId(5), 1, 10);
    }

    #[test]
    fn many_blocks_consistency() {
        // Stress the intrusive list: interleave inserts/touches/removes.
        let mut llc = LlcModel::new(2, 4096);
        for i in 0..1000u64 {
            llc.access(DomainId((i % 2) as u32), i % 97, 64);
            if i % 13 == 0 {
                llc.evict(i % 97);
            }
        }
        let s = llc.stats();
        assert_eq!(s.accesses, 1000);
        assert_eq!(s.hits + s.misses(), 1000);
    }
}
