//! A byte-budget LRU cache over variable-sized objects ("tiles").
//!
//! The matmul experiments simulate the L2 at *tile* granularity: each
//! `BM×BK` input tile is one object. This keeps an 8192³ GEMM tractable
//! (thousands of tile touches instead of 10¹¹ element touches) while
//! still capturing the reuse effect the grouped thread-block layout
//! exists for.
//!
//! **Resident streams are not replayed.** That effect exists only when
//! the distinct tiles overflow the cache. When they all fit, nothing is
//! ever evicted — the resident bytes plus a missing tile never exceed
//! the distinct bytes — so each distinct tile misses once and every
//! other touch hits, in any order. The cost model prices such a stream
//! in closed form ([`crate::TileWaves::resident`]) without touching
//! this cache, and without the schedule; a test holds the closed form
//! to this cache field for field over random pid orders.
//!
//! **Complexity.** Resident objects live in a slab of nodes threaded on
//! an intrusive doubly-linked recency list (most recent at the head),
//! beside an `id → slot` map with a cheap integer hasher. A touch is
//! one map probe plus O(1) list surgery; each eviction pops the tail in
//! O(1). A trace of `T` touches therefore costs O(T) whatever the
//! number of resident tiles (a paper-size matmul keeps thousands).
//!
//! **Exact LRU.** The victim is the resident object whose last touch is
//! the oldest. Every touch moves its object to the head, so the list
//! is ordered by last-touch time and the tail is that object. Touch
//! times are distinct, so there are no ties to break: the order is the
//! same one a per-touch stamp and a scan for the smallest stamp would
//! give, and hits, misses and miss bytes match that scan exactly.
//!
//! **Oversized objects.** An object larger than the whole capacity is
//! still a miss that evicts every resident object, but it is not
//! inserted: it streams through, and touching it again misses again.
//! A hit keeps the size the object was inserted with.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The null link of the recency list.
const NIL: u32 = u32::MAX;

/// One resident object: its id, size and recency-list neighbours
/// (`prev` is more recent, `next` less recent).
#[derive(Clone, Copy, Debug)]
struct Node {
    id: i64,
    bytes: usize,
    prev: u32,
    next: u32,
}

/// A cheap hasher for the simulator's maps: one folded 64×64→128-bit
/// multiply per 8-byte word, so both the low bits (bucket index) and the
/// high bits (the map's control tag) depend on every bit of a dense or
/// strided id. It hashes this cache's `i64` ids in one multiply and the
/// traffic memo's string keys ([`crate::traffic`]) a word at a time.
/// Every key is rendered by the cost model (or re-imported from a
/// sidecar it wrote), and each new memo key costs a trace replay, far
/// more than a collision chain could add, so neither map needs the
/// defence against chosen collisions that SipHash pays for.
#[derive(Default)]
pub(crate) struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8-byte word")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let p = u128::from(self.0 ^ x) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    fn write_i64(&mut self, x: i64) {
        self.write_u64(x as u64);
    }
}

/// LRU cache keyed by arbitrary `i64` ids with per-object byte sizes.
#[derive(Clone, Debug)]
pub struct TileCache {
    capacity: usize,
    used: usize,
    nodes: Vec<Node>,
    free: Vec<u32>,
    slots: HashMap<i64, u32, BuildHasherDefault<FoldHasher>>,
    /// Most recently touched resident object.
    head: u32,
    /// Least recently touched resident object: the next victim.
    tail: u32,
    hits: u64,
    misses: u64,
    miss_bytes: u64,
}

impl TileCache {
    /// Creates a cache with the given byte capacity.
    pub fn new(capacity: usize) -> TileCache {
        TileCache {
            capacity,
            used: 0,
            nodes: Vec::new(),
            free: Vec::new(),
            slots: HashMap::default(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            miss_bytes: 0,
        }
    }

    /// Touches object `id` of `bytes` size; returns `true` on hit.
    pub fn touch(&mut self, id: i64, bytes: usize) -> bool {
        if let Some(&slot) = self.slots.get(&id) {
            if slot != self.head {
                self.unlink(slot);
                self.push_front(slot);
            }
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        self.miss_bytes += bytes as u64;
        // Evict LRU objects until the new one fits.
        while self.used + bytes > self.capacity && self.tail != NIL {
            let victim = self.tail;
            self.unlink(victim);
            let Node { id, bytes, .. } = self.nodes[victim as usize];
            self.slots.remove(&id);
            self.used -= bytes;
            self.free.push(victim);
        }
        if bytes <= self.capacity {
            let node = Node {
                id,
                bytes,
                prev: NIL,
                next: NIL,
            };
            let slot = match self.free.pop() {
                Some(slot) => {
                    self.nodes[slot as usize] = node;
                    slot
                }
                None => {
                    self.nodes.push(node);
                    u32::try_from(self.nodes.len() - 1).expect("fewer than 2^32 resident tiles")
                }
            };
            self.push_front(slot);
            self.slots.insert(id, slot);
            self.used += bytes;
        }
        false
    }

    /// Detaches `slot` from the recency list.
    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    /// Links a detached `slot` in as the most recent object.
    fn push_front(&mut self, slot: u32) {
        let old = self.head;
        let node = &mut self.nodes[slot as usize];
        node.prev = NIL;
        node.next = old;
        match old {
            NIL => self.tail = slot,
            h => self.nodes[h as usize].prev = slot,
        }
        self.head = slot;
    }

    /// Total bytes fetched on misses.
    pub fn miss_bytes(&self) -> u64 {
        self.miss_bytes
    }

    /// Hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_rng::Lcg;

    /// The stamp-scan cache the recency list replaced: every touch takes
    /// a fresh stamp, and each eviction scans the resident objects for
    /// the smallest one. The reference the property test holds the
    /// O(1) cache to.
    struct StampScanCache {
        capacity: usize,
        used: usize,
        stamp: u64,
        resident: std::collections::HashMap<i64, (u64, usize)>, // id -> (last use, bytes)
        hits: u64,
        misses: u64,
        miss_bytes: u64,
    }

    impl StampScanCache {
        fn new(capacity: usize) -> StampScanCache {
            StampScanCache {
                capacity,
                used: 0,
                stamp: 0,
                resident: Default::default(),
                hits: 0,
                misses: 0,
                miss_bytes: 0,
            }
        }

        fn touch(&mut self, id: i64, bytes: usize) -> bool {
            self.stamp += 1;
            if let Some(slot) = self.resident.get_mut(&id) {
                slot.0 = self.stamp;
                self.hits += 1;
                return true;
            }
            self.misses += 1;
            self.miss_bytes += bytes as u64;
            while self.used + bytes > self.capacity && !self.resident.is_empty() {
                let (&lru, _) = self
                    .resident
                    .iter()
                    .min_by_key(|(_, (s, _))| *s)
                    .expect("non-empty");
                let (_, b) = self.resident.remove(&lru).expect("present");
                self.used -= b;
            }
            if bytes <= self.capacity {
                self.resident.insert(id, (self.stamp, bytes));
                self.used += bytes;
            }
            false
        }
    }

    #[test]
    fn hit_after_insert() {
        let mut c = TileCache::new(100);
        assert!(!c.touch(1, 40));
        assert!(c.touch(1, 40));
        assert_eq!(c.miss_bytes(), 40);
    }

    #[test]
    fn byte_budget_evicts_lru() {
        let mut c = TileCache::new(100);
        c.touch(1, 60);
        c.touch(2, 60); // evicts 1
        assert!(!c.touch(1, 60));
    }

    #[test]
    fn touch_refreshes_lru() {
        let mut c = TileCache::new(120);
        c.touch(1, 60);
        c.touch(2, 60);
        c.touch(1, 60); // 2 becomes LRU
        c.touch(3, 60); // evicts 2
        assert!(c.touch(1, 60));
        assert!(!c.touch(2, 60));
    }

    #[test]
    fn oversized_object_streams_through() {
        let mut c = TileCache::new(10);
        assert!(!c.touch(1, 100));
        assert!(!c.touch(1, 100), "must not be cached");
        assert_eq!(c.miss_bytes(), 200);
    }

    /// Seeded random touch streams — re-touches of recent ids, mixed
    /// sizes, long eviction runs over ids that never repeat, and objects
    /// larger than the whole capacity — count hits, misses and miss
    /// bytes exactly as the stamp-scan cache does, after every touch.
    #[test]
    fn recency_list_matches_the_stamp_scan_oracle() {
        let mut rng = Lcg(0x711e_cace);
        for round in 0..200 {
            let capacity = [0usize, 64, 1000, 4096][round % 4] + rng.below(512) as usize;
            let mut fast = TileCache::new(capacity);
            let mut oracle = StampScanCache::new(capacity);
            let ids = 1 + rng.below(64) as u64;
            let mut next_fresh = 1_000_000i64;
            for step in 0..600 {
                let (id, bytes) = match rng.below(8) {
                    // A long eviction run: fresh ids that never repeat.
                    0 => {
                        next_fresh += 1;
                        (next_fresh, 1 + rng.below(256) as usize)
                    }
                    // Larger than the whole capacity: evicts everything.
                    1 if step % 7 == 0 => (rng.below(ids), capacity + 1 + rng.below(64) as usize),
                    // A re-touch of a small working set, mixed sizes
                    // (a hit keeps the size it was inserted with).
                    2 | 3 => (rng.below(4), [16usize, 48, 200][rng.below(3) as usize]),
                    // Negative and strided ids.
                    4 => (-(rng.below(ids) << 20), 1 + rng.below(128) as usize),
                    _ => (rng.below(ids), 1 + rng.below(300) as usize),
                };
                let want = oracle.touch(id, bytes);
                assert_eq!(fast.touch(id, bytes), want, "round {round} step {step}");
                assert_eq!(
                    (fast.hits(), fast.misses(), fast.miss_bytes()),
                    (oracle.hits, oracle.misses, oracle.miss_bytes),
                    "round {round} step {step}: touch({id}, {bytes})"
                );
                assert_eq!(fast.used, oracle.used);
                assert_eq!(fast.slots.len(), oracle.resident.len());
            }
        }
    }
}
