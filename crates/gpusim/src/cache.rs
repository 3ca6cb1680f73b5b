//! A set-associative LRU cache simulator (used as the L2 model).
//!
//! Addresses are in *lines*; callers pick the granularity (32-byte
//! sectors for element traces, whole tiles for the tile-level matmul
//! simulation).

/// Aggregate cache statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Number of hits.
    pub hits: u64,
    /// Number of misses.
    pub misses: u64,
}

/// A set-associative cache with LRU replacement over abstract line ids.
#[derive(Clone, Debug)]
pub struct Cache {
    sets: Vec<Vec<(i64, u64)>>, // (line id, last-use stamp)
    assoc: usize,
    stamp: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache with `lines` total lines and associativity
    /// `assoc` (lines are grouped into `lines/assoc` sets).
    ///
    /// # Panics
    ///
    /// Panics if `assoc == 0` or `lines < assoc`.
    pub fn new(lines: usize, assoc: usize) -> Cache {
        assert!(assoc > 0 && lines >= assoc, "invalid cache geometry");
        let nsets = (lines / assoc).max(1);
        Cache {
            sets: vec![Vec::with_capacity(assoc); nsets],
            assoc,
            stamp: 0,
            stats: CacheStats::default(),
        }
    }

    /// Accesses `line`, updating LRU state and statistics; `true` on a
    /// hit.
    pub fn access(&mut self, line: i64) -> bool {
        self.stamp += 1;
        let stamp = self.stamp;
        let nsets = self.sets.len() as i64;
        let set = &mut self.sets[line.rem_euclid(nsets) as usize];
        if let Some(slot) = set.iter_mut().find(|(l, _)| *l == line) {
            slot.1 = stamp;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        if set.len() >= self.assoc {
            // Evict LRU.
            let (pos, _) = set
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, s))| *s)
                .expect("set non-empty");
            set.swap_remove(pos);
        }
        set.push((line, stamp));
        false
    }

    /// The statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(4, 4);
        assert!(!c.access(7));
        assert!(c.access(7));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = Cache::new(2, 2);
        c.access(1);
        c.access(2);
        c.access(1); // 2 is now LRU
        c.access(3); // evicts 2
        assert!(c.access(1));
        assert!(!c.access(2));
    }

    #[test]
    fn set_mapping_isolates_sets() {
        // 2 sets x 1 way: lines 0 and 2 collide, 0 and 1 do not.
        let mut c = Cache::new(2, 1);
        c.access(0);
        c.access(1);
        assert!(c.access(0));
        c.access(2); // evicts 0 (same set)
        assert!(!c.access(0));
    }

    #[test]
    fn hit_rate_math() {
        let mut c = Cache::new(8, 8);
        for _ in 0..3 {
            c.access(42);
        }
        assert_eq!(c.stats(), CacheStats { hits: 2, misses: 1 });
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = Cache::new(4, 4);
        // Cyclic sweep over 8 lines with LRU: always miss.
        for _ in 0..4 {
            for l in 0..8 {
                c.access(l);
            }
        }
        assert_eq!(c.stats().hits, 0);
    }
}
