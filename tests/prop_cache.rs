//! The metadata-cache model against a naive reference: on random line
//! traces, `Cache` must behave exactly as a per-set recency list with
//! least-recently-used eviction, and `Cache::access_run` and `line_runs`
//! must equal the per-access and per-block walks they replace.

use proptest::prelude::*;
use seculator::sim::cache::{line_runs, AccessOutcome, Cache, CacheStats};
use std::ops::Range;

/// Geometries as (capacity bytes, associativity) over 64-byte lines:
/// one set, direct-mapped, 2-way, and the paper's 4-way counter and MAC
/// caches.
const GEOMETRIES: [(u64, usize); 5] = [(256, 4), (512, 1), (1024, 2), (4096, 4), (8192, 4)];

/// Each set a list of (line, dirty), least recently used first.
struct RecencyLru {
    sets: Vec<Vec<(u64, bool)>>,
    assoc: usize,
    stats: CacheStats,
}

impl RecencyLru {
    fn new(capacity_bytes: u64, assoc: usize) -> Self {
        let sets = (capacity_bytes / 64 / assoc as u64).max(1) as usize;
        Self {
            sets: vec![Vec::new(); sets],
            assoc,
            stats: CacheStats::default(),
        }
    }

    fn access(&mut self, line: u64, write: bool) -> AccessOutcome {
        let set_count = self.sets.len() as u64;
        let set = &mut self.sets[(line % set_count) as usize];
        if let Some(i) = set.iter().position(|&(l, _)| l == line) {
            let (_, dirty) = set.remove(i);
            set.push((line, dirty || write));
            self.stats.hits += 1;
            return AccessOutcome {
                hit: true,
                writeback: false,
            };
        }
        self.stats.misses += 1;
        let writeback = set.len() == self.assoc && set.remove(0).1;
        if writeback {
            self.stats.writebacks += 1;
        }
        set.push((line, write));
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    /// Dirty lines still resident.
    fn dirty(&self) -> u64 {
        self.sets.iter().flatten().filter(|&&(_, d)| d).count() as u64
    }
}

/// A geometry, and a trace drawn by `access` from up to 3x as many
/// distinct lines as the geometry holds, so traces both hit and evict.
fn traces<S: Strategy>(
    access: impl Fn(Range<u64>) -> S,
) -> impl Strategy<Value = ((u64, usize), Vec<S::Value>)> {
    (prop::sample::select(GEOMETRIES.to_vec()), 1u64..4).prop_flat_map(
        move |((capacity, assoc), spread)| {
            let lines = capacity / 64 * spread;
            (
                Just((capacity, assoc)),
                prop::collection::vec(access(0..lines), 1..400),
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every outcome, the final statistics and the dirty lines a flush
    /// writes back equal the recency-list reference.
    #[test]
    fn lru_equals_a_recency_list_reference(
        (geometry, ops) in traces(|lines| (lines, any::<bool>())),
    ) {
        let (capacity, assoc) = geometry;
        let mut cache = Cache::new(capacity, 64, assoc);
        let mut reference = RecencyLru::new(capacity, assoc);
        for (i, &(line, write)) in ops.iter().enumerate() {
            prop_assert_eq!(
                cache.access(line, write),
                reference.access(line, write),
                "access {} (line {}, write {}) in {:?}", i, line, write, geometry
            );
        }
        prop_assert_eq!(cache.stats(), reference.stats);
        prop_assert_eq!(cache.flush(), reference.dirty());
    }

    /// `access_run(l, w, n)` equals `n` calls of `access(l, w)`: the same
    /// outcome on every access and the same statistics after every run.
    #[test]
    fn access_run_equals_repeated_access(
        (geometry, runs) in traces(|lines| (lines, any::<bool>(), 1u64..10)),
    ) {
        let (capacity, assoc) = geometry;
        let mut by_run = Cache::new(capacity, 64, assoc);
        let mut by_access = Cache::new(capacity, 64, assoc);
        for &(line, write, n) in &runs {
            let first = by_access.access(line, write);
            prop_assert_eq!(by_run.access_run(line, write, n), first);
            for _ in 1..n {
                prop_assert!(by_access.access(line, write).hit);
            }
            prop_assert_eq!(by_run.stats(), by_access.stats());
        }
        prop_assert_eq!(by_run.flush(), by_access.flush());
    }

    /// `line_runs` is the run-length encoding of the per-block line
    /// sequence `(base + 64·b) / coverage`, for any base.
    #[test]
    fn line_runs_group_the_per_block_lines(
        base in 0u64..1 << 16,
        blocks in 0u64..300,
        coverage in prop::sample::select(vec![32u64, 64, 100, 512, 4096]),
    ) {
        let mut per_block: Vec<(u64, u64)> = Vec::new();
        for b in 0..blocks {
            let line = (base + 64 * b) / coverage;
            match per_block.last_mut() {
                Some((l, n)) if *l == line => *n += 1,
                _ => per_block.push((line, 1)),
            }
        }
        prop_assert_eq!(line_runs(base, blocks, coverage).collect::<Vec<_>>(), per_block);
    }
}
