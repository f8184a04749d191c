//! Set-associative LRU cache model, used for the 4 KB counter cache and
//! 8 KB MAC cache of the Secure/TNPU designs (paper §4.1, Figure 5).
//!
//! The model tracks tags and dirty bits only — contents are irrelevant to
//! timing — and reports hit/miss/writeback statistics.

use seculator_arch::layer::BLOCK_BYTES;
use serde::{Deserialize, Serialize};

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss rate in [0, 1]; 0 when there were no accesses.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    dirty: bool,
    /// Monotonic timestamp of last use (LRU).
    lru: u64,
    valid: bool,
}

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// Whether a dirty victim was written back to make room.
    pub writeback: bool,
}

/// A set-associative LRU cache over line addresses.
///
/// # Examples
///
/// ```
/// use seculator_sim::cache::Cache;
///
/// let mut c = Cache::new(4 * 1024, 64, 4);
/// assert!(!c.access(0, false).hit); // cold miss
/// assert!(c.access(0, false).hit);  // now resident
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    sets: Vec<Vec<Line>>,
    assoc: usize,
    set_count: u64,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache of `capacity_bytes` with `line_bytes` lines and
    /// the given associativity.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes, capacity smaller
    /// than one way of lines).
    #[must_use]
    pub fn new(capacity_bytes: u64, line_bytes: u64, assoc: usize) -> Self {
        assert!(
            capacity_bytes > 0 && line_bytes > 0 && assoc > 0,
            "degenerate cache geometry"
        );
        let lines = capacity_bytes / line_bytes;
        assert!(
            lines as usize >= assoc,
            "capacity must hold at least one set"
        );
        let set_count = (lines / assoc as u64).max(1);
        Self {
            sets: vec![Vec::with_capacity(assoc); set_count as usize],
            assoc,
            set_count,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Accesses `line_addr` (already divided by the line size), marking
    /// the line dirty if `write`. Returns hit/writeback information.
    // Inlined into the timing engines' line-run loops: as an
    // out-of-line call, its speed swung by about 17 % with the address
    // the linker happened to give it.
    #[inline]
    pub fn access(&mut self, line_addr: u64, write: bool) -> AccessOutcome {
        self.clock += 1;
        let set_idx = (line_addr % self.set_count) as usize;
        let set = &mut self.sets[set_idx];
        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == line_addr) {
            line.lru = self.clock;
            line.dirty |= write;
            self.stats.hits += 1;
            return AccessOutcome {
                hit: true,
                writeback: false,
            };
        }
        self.stats.misses += 1;
        let mut writeback = false;
        if set.len() < self.assoc {
            set.push(Line {
                tag: line_addr,
                dirty: write,
                lru: self.clock,
                valid: true,
            });
        } else {
            let victim = set.iter_mut().min_by_key(|l| l.lru).expect("non-empty set");
            if victim.dirty {
                writeback = true;
                self.stats.writebacks += 1;
            }
            *victim = Line {
                tag: line_addr,
                dirty: write,
                lru: self.clock,
                valid: true,
            };
        }
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    /// Accesses `line_addr` `n` times in a row: [`Cache::access`] once,
    /// then `n − 1` counted hits. Returns the first access's outcome; the
    /// others always hit without a writeback.
    ///
    /// Exactly equal to `n` calls of `access`: the trailing accesses hit
    /// the line the first one just made most recently used in its set
    /// and change no line's recency order, so no later hit, miss,
    /// writeback or victim choice can differ.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0.
    #[inline]
    pub fn access_run(&mut self, line_addr: u64, write: bool, n: u64) -> AccessOutcome {
        assert!(n > 0, "a run is at least one access");
        let first = self.access(line_addr, write);
        self.stats.hits += n - 1;
        first
    }

    /// Current statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Flushes all lines, counting dirty ones as writebacks, and returns
    /// how many were written back. Statistics are preserved.
    pub fn flush(&mut self) -> u64 {
        let mut wb = 0;
        for set in &mut self.sets {
            for line in set.iter() {
                if line.valid && line.dirty {
                    wb += 1;
                }
            }
            set.clear();
        }
        self.stats.writebacks += wb;
        wb
    }

    /// Resets statistics without touching contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

/// The metadata lines touched by `blocks` consecutive 64-byte blocks
/// starting at `base_addr`, where one line covers `coverage` data bytes:
/// yields `(line, blocks_in_that_line)` in address order, one item per
/// maximal run of blocks whose `addr / coverage` is the same.
///
/// # Examples
///
/// ```
/// use seculator_sim::cache::line_runs;
///
/// // Blocks at 448, 512, …, 1088 under 512-byte lines.
/// let runs: Vec<_> = line_runs(448, 11, 512).collect();
/// assert_eq!(runs, [(0, 1), (1, 8), (2, 2)]);
/// ```
pub fn line_runs(base_addr: u64, blocks: u64, coverage: u64) -> impl Iterator<Item = (u64, u64)> {
    let (mut addr, mut left) = (base_addr, blocks);
    std::iter::from_fn(move || {
        if left == 0 {
            return None;
        }
        let line = addr / coverage;
        // Blocks b ≥ 0 with addr + 64·b below the next line's start.
        let n = ((line + 1) * coverage - addr)
            .div_ceil(BLOCK_BYTES)
            .min(left);
        addr += n * BLOCK_BYTES;
        left -= n;
        Some((line, n))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_then_hot() {
        let mut c = Cache::new(1024, 64, 2);
        assert!(!c.access(5, false).hit);
        assert!(c.access(5, false).hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2-way, map three lines to the same set: capacity 128 B = 2 lines,
        // 1 set.
        let mut c = Cache::new(128, 64, 2);
        c.access(1, false);
        c.access(2, false);
        c.access(1, false); // 1 is now MRU
        assert!(!c.access(3, false).hit); // evicts 2
        assert!(c.access(1, false).hit, "MRU line must survive");
        assert!(!c.access(2, false).hit, "LRU line must have been evicted");
    }

    #[test]
    fn dirty_evictions_write_back() {
        let mut c = Cache::new(128, 64, 2);
        c.access(1, true);
        c.access(2, false);
        let out = c.access(3, false); // evicts dirty line 1
        assert!(out.writeback);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn streaming_miss_rate_is_one() {
        let mut c = Cache::new(4096, 64, 4);
        for addr in 0..10_000u64 {
            c.access(addr, false);
        }
        assert!((c.stats().miss_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn repeated_small_working_set_hits() {
        let mut c = Cache::new(4096, 64, 4);
        for _ in 0..100 {
            for addr in 0..32u64 {
                c.access(addr, false);
            }
        }
        // 32 cold misses out of 3200 accesses.
        assert!(c.stats().miss_rate() < 0.02);
    }

    #[test]
    fn flush_counts_dirty_lines() {
        let mut c = Cache::new(4096, 64, 4);
        c.access(1, true);
        c.access(2, true);
        c.access(3, false);
        assert_eq!(c.flush(), 2);
        assert!(!c.access(1, false).hit, "flush must empty the cache");
    }

    #[test]
    fn conflict_misses_emerge_from_set_mapping() {
        // Direct-mapped 4-line cache: addresses 0 and 4 conflict.
        let mut c = Cache::new(256, 64, 1);
        for _ in 0..10 {
            c.access(0, false);
            c.access(4, false);
        }
        assert_eq!(c.stats().hits, 0, "ping-pong conflict must never hit");
    }
}
