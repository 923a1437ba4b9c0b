//! Set-associative cache simulator with true-LRU replacement.
//!
//! Used three times by the microarchitecture simulation: as the 32 KiB L1
//! instruction cache, the 32 KiB L1 data cache, and the last-level cache,
//! reproducing the cache-behaviour study of Figure 5.

/// A set-associative cache with LRU replacement.
///
/// ```
/// use varch::cache::Cache;
/// let mut c = Cache::new(64, 2, 16); // 2 KiB, 2-way, 16 sets... (64B lines)
/// assert!(!c.access(0x1000));        // cold miss
/// assert!(c.access(0x1000));         // hit
/// assert_eq!(c.misses(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    line_bytes: u64,
    sets: u64,
    ways: usize,
    /// `sets × ways` tags; `u64::MAX` marks an empty way.
    tags: Vec<u64>,
    /// Per-way LRU stamps (higher = more recent).
    stamps: Vec<u64>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` or `sets` is not a power of two, or any
    /// parameter is zero.
    pub fn new(line_bytes: u64, ways: usize, sets: u64) -> Cache {
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(ways > 0, "cache needs at least one way");
        Cache {
            line_bytes,
            sets,
            ways,
            tags: vec![u64::MAX; (sets as usize) * ways],
            stamps: vec![0; (sets as usize) * ways],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// A 32 KiB, 8-way, 64 B-line cache (typical L1).
    pub fn l1_32k() -> Cache {
        Cache::new(64, 8, 64)
    }

    /// A 2 MiB, 16-way last-level cache.
    pub fn llc_2m() -> Cache {
        Cache::new(64, 16, 2048)
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.line_bytes * self.sets * self.ways as u64
    }

    /// Accesses one address; returns `true` on hit. Misses allocate.
    pub fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let line = addr / self.line_bytes;
        let set = (line % self.sets) as usize;
        let tag = line / self.sets;
        let base = set * self.ways;
        let ways = &mut self.tags[base..base + self.ways];
        if let Some(w) = ways.iter().position(|&t| t == tag) {
            self.stamps[base + w] = self.clock;
            self.hits += 1;
            return true;
        }
        // Miss: evict the LRU way.
        let victim =
            (0..self.ways).min_by_key(|&w| self.stamps[base + w]).expect("at least one way");
        self.tags[base + victim] = tag;
        self.stamps[base + victim] = self.clock;
        self.misses += 1;
        false
    }

    /// Accesses every line of the region `[addr, addr + bytes)`; returns
    /// the number of misses.
    pub fn access_region(&mut self, addr: u64, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let first = addr / self.line_bytes;
        let last = (addr + bytes - 1) / self.line_bytes;
        let mut misses = 0;
        for line in first..=last {
            if !self.access(line * self.line_bytes) {
                misses += 1;
            }
        }
        misses
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; 0 when no accesses were made.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }

    /// Resets counters (not contents): useful after a warmup phase.
    pub fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
impl Cache {
    /// An 8 MiB, 16-way last-level cache (the i7-6700K's LLC size).
    pub fn llc_8m() -> Cache {
        Cache::new(64, 16, 8192)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(64, 4, 16);
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
        assert_eq!(c.misses(), 2);
        assert_eq!(c.hits(), 2);
    }

    #[test]
    fn lru_eviction_order() {
        // 1 set, 2 ways: A, B, then C evicts A (LRU).
        let mut c = Cache::new(64, 2, 1);
        c.access(0x000); // A
        c.access(0x040); // B
        c.access(0x000); // A (refresh)
        c.access(0x080); // C evicts B
        assert!(c.access(0x000), "A must survive");
        assert!(!c.access(0x040), "B must have been evicted");
    }

    #[test]
    fn working_set_within_capacity_has_no_steady_state_misses() {
        let mut c = Cache::l1_32k();
        // 16 KiB working set, swept twice.
        for _ in 0..2 {
            for line in 0..256u64 {
                c.access(line * 64);
            }
        }
        assert_eq!(c.misses(), 256, "only cold misses expected");
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        let mut c = Cache::new(64, 4, 16); // 4 KiB
                                           // 8 KiB streaming sweep, repeated: every access misses (LRU +
                                           // sequential sweep is the pathological case).
        for _ in 0..3 {
            for line in 0..128u64 {
                c.access(line * 64);
            }
        }
        assert!(c.miss_ratio() > 0.9, "ratio {}", c.miss_ratio());
    }

    #[test]
    fn region_access_counts_lines() {
        let mut c = Cache::l1_32k();
        // 132 bytes starting 2 before a line boundary span 4 lines.
        assert_eq!(c.access_region(0x1000 - 2, 132), 4);
        assert_eq!(c.access_region(0x1000 - 2, 132), 0);
        assert_eq!(c.access_region(0x5000, 0), 0);
    }

    #[test]
    fn capacity_formula() {
        assert_eq!(Cache::l1_32k().capacity(), 32 * 1024);
        assert_eq!(Cache::llc_8m().capacity(), 8 * 1024 * 1024);
    }
}
