//! Timing models of the six simulated designs (paper Table 5):
//!
//! | Design       | Integrity (MAC) | Encryption | Anti-replay      |
//! |--------------|-----------------|------------|------------------|
//! | Baseline     | none            | none       | none             |
//! | Secure (SGX) | per-block       | CTR        | counters + tree  |
//! | TNPU         | per-block       | XTS        | tile VNs (table) |
//! | GuardNN      | per-block       | CTR        | tile VNs (host)  |
//! | Seculator    | per-layer       | CTR        | generated VNs    |
//! | Seculator+   | per-layer       | CTR        | generated VNs (+ MEA protection) |
//!
//! Each engine translates tile transfers into extra DRAM metadata
//! traffic, cache activity, and exposed (non-overlappable) cycles. The
//! *mechanisms* — which structures exist and what they touch — follow the
//! paper; the latency constants come from [`NpuConfig`].

use crate::error::SecurityError;
use seculator_arch::trace::{AccessOp, TileAccess};
use seculator_sim::cache::{line_runs, Cache, CacheStats};
use seculator_sim::config::NpuConfig;
use seculator_sim::dram::{Dram, TrafficClass};
use serde::{Deserialize, Serialize};

/// The simulated designs of paper Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchemeKind {
    /// Unsecure accelerator (normalization reference).
    Baseline,
    /// SGX-Client-like design: per-block counters protected by a Merkle
    /// tree (4 KB counter cache) and per-block MACs (8 KB MAC cache).
    Secure,
    /// TNPU: tile VNs in a host-resident Tensor Table, per-block MACs in
    /// an 8 KB on-chip MAC cache, AES-XTS encryption.
    Tnpu,
    /// GuardNN: tile VNs managed by a host scheduler, per-block MACs in
    /// DRAM with no cache, AES-CTR encryption.
    GuardNn,
    /// Seculator: generated VNs, per-layer XOR-MACs, AES-CTR.
    Seculator,
    /// Seculator with layer widening for MEA/side-channel protection.
    SeculatorPlus,
}

impl SchemeKind {
    /// All designs in Table 5 order.
    pub const ALL: [Self; 6] = [
        Self::Baseline,
        Self::Secure,
        Self::Tnpu,
        Self::GuardNn,
        Self::Seculator,
        Self::SeculatorPlus,
    ];

    /// Display name used in figures.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Baseline => "baseline",
            Self::Secure => "secure",
            Self::Tnpu => "tnpu",
            Self::GuardNn => "guardnn",
            Self::Seculator => "seculator",
            Self::SeculatorPlus => "seculator+",
        }
    }

    /// The Table 5 feature row for this design:
    /// (integrity granularity, encryption mode, anti-replay, MEA
    /// protection).
    #[must_use]
    pub fn features(&self) -> (&'static str, &'static str, &'static str, bool) {
        match self {
            Self::Baseline => ("none", "none", "none", false),
            Self::Secure => ("per-block", "CTR", "counters", false),
            Self::Tnpu => ("per-block", "XTS", "VN", false),
            Self::GuardNn => ("per-block", "CTR", "VN", false),
            Self::Seculator => ("per-layer", "CTR", "VN", false),
            Self::SeculatorPlus => ("per-layer", "CTR", "VN", true),
        }
    }
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Security cost of one tile transfer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileSecurityCost {
    /// Extra DRAM cycles (metadata bursts) that stream with the data.
    pub memory_cycles: u64,
    /// Cycles that cannot be hidden (synchronous host/table round trips).
    pub exposed_cycles: u64,
}

/// A per-scheme timing engine. One instance lives for a whole network
/// run, so metadata caches persist across layers like real hardware.
pub trait SchemeTiming: std::fmt::Debug {
    /// The design being modeled.
    fn kind(&self) -> SchemeKind;

    /// Serial cycles at layer start (e.g. shipping the VN triplet is one
    /// instruction; key schedule happens once at boot — both ≈ free).
    fn layer_begin(&mut self) -> u64 {
        0
    }

    /// Security cost of one tile transfer of `blocks` 64-byte blocks
    /// starting at `base_addr`. May move metadata through `dram`.
    fn on_tile(
        &mut self,
        access: &TileAccess,
        base_addr: u64,
        blocks: u64,
        dram: &mut Dram,
    ) -> TileSecurityCost;

    /// Serial cycles at layer end (e.g. Seculator's register compare).
    fn layer_end(&mut self, _dram: &mut Dram) -> u64 {
        0
    }

    /// Counter-cache statistics, if the design has one.
    fn counter_cache(&self) -> Option<CacheStats> {
        None
    }

    /// MAC-cache statistics, if the design has one.
    fn mac_cache(&self) -> Option<CacheStats> {
        None
    }

    /// Counter-cache statistics, or a structured error naming the scheme
    /// and the missing structure — for callers that *require* the cache
    /// to exist (reports, comparisons) and must not panic if it doesn't.
    ///
    /// # Errors
    ///
    /// [`SecurityError::MetadataStructureMissing`] when the design keeps
    /// no counter cache (e.g. Seculator generates VNs on the fly).
    fn require_counter_cache(&self) -> Result<CacheStats, SecurityError> {
        self.counter_cache()
            .ok_or(SecurityError::MetadataStructureMissing {
                scheme: self.kind(),
                structure: "counter cache",
            })
    }

    /// MAC-cache statistics, or a structured error naming the scheme and
    /// the missing structure.
    ///
    /// # Errors
    ///
    /// [`SecurityError::MetadataStructureMissing`] when the design keeps
    /// no MAC cache (e.g. Seculator's MACs never leave the chip).
    fn require_mac_cache(&self) -> Result<CacheStats, SecurityError> {
        self.mac_cache()
            .ok_or(SecurityError::MetadataStructureMissing {
                scheme: self.kind(),
                structure: "mac cache",
            })
    }
}

/// Builds the timing engine for a design.
///
/// # Examples
///
/// ```
/// use seculator_core::engine::{make_engine, SchemeKind};
/// use seculator_sim::config::NpuConfig;
///
/// let engine = make_engine(SchemeKind::Seculator, &NpuConfig::paper());
/// assert_eq!(engine.kind(), SchemeKind::Seculator);
/// assert!(engine.mac_cache().is_none(), "Seculator stores no MACs");
/// ```
#[must_use]
pub fn make_engine(kind: SchemeKind, cfg: &NpuConfig) -> Box<dyn SchemeTiming> {
    match kind {
        SchemeKind::Baseline => Box::new(BaselineTiming),
        SchemeKind::Secure => Box::new(SecureTiming::new(cfg)),
        SchemeKind::Tnpu => Box::new(TnpuTiming::new(cfg)),
        SchemeKind::GuardNn => Box::new(GuardNnTiming::new(cfg)),
        SchemeKind::Seculator | SchemeKind::SeculatorPlus => {
            Box::new(SeculatorTiming::new(cfg, kind))
        }
    }
}

/// The unsecure baseline: no security work at all.
#[derive(Debug, Clone, Copy)]
pub struct BaselineTiming;

impl SchemeTiming for BaselineTiming {
    fn kind(&self) -> SchemeKind {
        SchemeKind::Baseline
    }

    fn on_tile(&mut self, _: &TileAccess, _: u64, _: u64, _: &mut Dram) -> TileSecurityCost {
        TileSecurityCost::default()
    }
}

/// Data bytes covered by one 64-byte line of the counter store: each page
/// (64 blocks) has one major counter + 64 minor counters (paper §4.1.1:
/// "a counter cache entry can keep track of 64×16 = 1024 pixels" = 4 KB).
const COUNTER_LINE_COVERAGE: u64 = 64 * 64;
/// Data bytes covered by one 64-byte line of MAC storage: 8 MACs of 8
/// bytes as modeled by the paper's §4.1.1 arithmetic (128 pixels = 512 B).
const MAC_LINE_COVERAGE: u64 = 8 * 64;

/// Looks up, in `cache`, the metadata line of each of `blocks` 64-byte
/// blocks from `base_addr`, one [`Cache::access_run`] per line rather
/// than one access per block; returns the (read, written) metadata
/// bytes, `line_traffic` per miss and per dirty writeback.
fn walk_line_runs(
    cache: &mut Cache,
    base_addr: u64,
    blocks: u64,
    coverage: u64,
    write: bool,
    line_traffic: u64,
) -> (u64, u64) {
    let (mut read, mut written) = (0, 0);
    for (line, n) in line_runs(base_addr, blocks, coverage) {
        let out = cache.access_run(line, write, n);
        if !out.hit {
            read += line_traffic;
        }
        if out.writeback {
            written += line_traffic;
        }
    }
    (read, written)
}

/// SGX-Client-like design: counter cache + Merkle tree + MAC cache.
#[derive(Debug)]
pub struct SecureTiming {
    counter_cache: Cache,
    mac_cache: Cache,
    merkle_levels: u32,
    crypto_fill: u64,
}

impl SecureTiming {
    /// Creates the engine with the Table 1 cache sizes.
    #[must_use]
    pub fn new(cfg: &NpuConfig) -> Self {
        Self {
            counter_cache: Cache::new(
                cfg.counter_cache_bytes,
                cfg.block_bytes,
                cfg.cache_associativity,
            ),
            mac_cache: Cache::new(
                cfg.mac_cache_bytes,
                cfg.block_bytes,
                cfg.cache_associativity,
            ),
            merkle_levels: cfg.merkle_levels_in_dram,
            crypto_fill: cfg.aes_block_cycles,
        }
    }
}

impl SchemeTiming for SecureTiming {
    fn kind(&self) -> SchemeKind {
        SchemeKind::Secure
    }

    fn on_tile(
        &mut self,
        access: &TileAccess,
        base_addr: u64,
        blocks: u64,
        dram: &mut Dram,
    ) -> TileSecurityCost {
        let is_write = access.op == AccessOp::Write;
        // The two caches share no state, so walking one and then the
        // other equals interleaving them block by block. A counter-line
        // miss fetches the line and verifies it up the tree; a dirty
        // eviction writes it back and updates the tree path.
        let (ctr_read, ctr_write) = walk_line_runs(
            &mut self.counter_cache,
            base_addr,
            blocks,
            COUNTER_LINE_COVERAGE,
            is_write,
            64 * (1 + u64::from(self.merkle_levels)),
        );
        let (mac_read, mac_write) = walk_line_runs(
            &mut self.mac_cache,
            base_addr,
            blocks,
            MAC_LINE_COVERAGE,
            is_write,
            64,
        );
        let (meta_read, meta_write) = (ctr_read + mac_read, ctr_write + mac_write);
        dram.record_read(meta_read, TrafficClass::Metadata);
        dram.record_write(meta_write, TrafficClass::Metadata);
        TileSecurityCost {
            memory_cycles: self.crypto_fill + dram.pipelined_meta_cycles(meta_read + meta_write),
            exposed_cycles: 0,
        }
    }

    fn counter_cache(&self) -> Option<CacheStats> {
        Some(self.counter_cache.stats())
    }

    fn mac_cache(&self) -> Option<CacheStats> {
        Some(self.mac_cache.stats())
    }
}

/// TNPU: Tensor-Table tile VNs + per-block MACs in an 8 KB cache + XTS.
#[derive(Debug)]
pub struct TnpuTiming {
    mac_cache: Cache,
    tensor_table_cycles: u64,
    crypto_fill: u64,
}

impl TnpuTiming {
    /// Creates the engine.
    #[must_use]
    pub fn new(cfg: &NpuConfig) -> Self {
        Self {
            mac_cache: Cache::new(
                cfg.mac_cache_bytes,
                cfg.block_bytes,
                cfg.cache_associativity,
            ),
            tensor_table_cycles: cfg.tensor_table_cycles,
            crypto_fill: cfg.aes_block_cycles,
        }
    }
}

impl SchemeTiming for TnpuTiming {
    fn kind(&self) -> SchemeKind {
        SchemeKind::Tnpu
    }

    fn on_tile(
        &mut self,
        access: &TileAccess,
        base_addr: u64,
        blocks: u64,
        dram: &mut Dram,
    ) -> TileSecurityCost {
        let (meta_read, meta_write) = walk_line_runs(
            &mut self.mac_cache,
            base_addr,
            blocks,
            MAC_LINE_COVERAGE,
            access.op == AccessOp::Write,
            64,
        );
        dram.record_read(meta_read, TrafficClass::Metadata);
        dram.record_write(meta_write, TrafficClass::Metadata);
        // The Tensor Table tracks *output tile* updates; input and weight
        // tile VNs are static within a layer and are fetched once (held
        // in a register), so only ofmap transfers pay the synchronous
        // table round trip.
        let exposed_cycles = if access.tensor == seculator_arch::trace::TensorClass::Ofmap {
            self.tensor_table_cycles
        } else {
            0
        };
        TileSecurityCost {
            memory_cycles: self.crypto_fill + dram.pipelined_meta_cycles(meta_read + meta_write),
            exposed_cycles,
        }
    }

    fn mac_cache(&self) -> Option<CacheStats> {
        Some(self.mac_cache.stats())
    }
}

/// GuardNN: host-scheduler VNs, uncached per-block MACs in DRAM.
#[derive(Debug)]
pub struct GuardNnTiming {
    host_roundtrip: u64,
    crypto_fill: u64,
}

impl GuardNnTiming {
    /// Creates the engine.
    #[must_use]
    pub fn new(cfg: &NpuConfig) -> Self {
        Self {
            host_roundtrip: cfg.host_roundtrip_cycles,
            crypto_fill: cfg.aes_block_cycles,
        }
    }
}

impl SchemeTiming for GuardNnTiming {
    fn kind(&self) -> SchemeKind {
        SchemeKind::GuardNn
    }

    fn on_tile(
        &mut self,
        access: &TileAccess,
        _base_addr: u64,
        blocks: u64,
        dram: &mut Dram,
    ) -> TileSecurityCost {
        // GuardNN keeps no MAC cache: every block read must fetch its MAC
        // line before the data can be consumed. With only a 2-deep fetch
        // window, each 64-byte MAC line is re-fetched every 2 data blocks
        // on reads; writes read-modify-write one line per 8-block group.
        let mut exposed_cycles = 0;
        let (meta_read, meta_write) = match access.op {
            AccessOp::Read => {
                // Read VNs are delivered synchronously by the host-side
                // scheduler (paper §8.3).
                exposed_cycles += self.host_roundtrip;
                (blocks.div_ceil(2) * 64, 0)
            }
            AccessOp::Write => {
                // Write VNs come from on-chip counters (free); MAC lines
                // are read-modified-written per 8-block group.
                let lines = blocks.div_ceil(8);
                (lines * 64, lines * 64)
            }
        };
        dram.record_read(meta_read, TrafficClass::Metadata);
        dram.record_write(meta_write, TrafficClass::Metadata);
        TileSecurityCost {
            memory_cycles: self.crypto_fill + dram.pipelined_meta_cycles(meta_read + meta_write),
            exposed_cycles,
        }
    }
}

/// Seculator: VN generator FSM + layer-level XOR-MAC registers. No
/// metadata storage, no metadata traffic; only the crypto pipeline fill
/// per tile and a register compare per layer.
#[derive(Debug)]
pub struct SeculatorTiming {
    kind: SchemeKind,
    crypto_fill: u64,
}

impl SeculatorTiming {
    /// Creates the engine (`kind` selects Seculator vs Seculator+;
    /// their per-access timing is identical — widening changes the
    /// workload, not the datapath).
    #[must_use]
    pub fn new(cfg: &NpuConfig, kind: SchemeKind) -> Self {
        debug_assert!(matches!(
            kind,
            SchemeKind::Seculator | SchemeKind::SeculatorPlus
        ));
        Self {
            kind,
            crypto_fill: cfg.aes_block_cycles,
        }
    }
}

impl SchemeTiming for SeculatorTiming {
    fn kind(&self) -> SchemeKind {
        self.kind
    }

    fn on_tile(
        &mut self,
        _access: &TileAccess,
        _base_addr: u64,
        _blocks: u64,
        _dram: &mut Dram,
    ) -> TileSecurityCost {
        TileSecurityCost {
            memory_cycles: self.crypto_fill,
            exposed_cycles: 0,
        }
    }

    fn layer_end(&mut self, _dram: &mut Dram) -> u64 {
        // MAC_W vs MAC_FR ⊕ MAC_R register compare.
        4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seculator_arch::trace::TensorClass;
    use seculator_sim::config::NpuConfig;
    use seculator_sim::dram::Dram;

    fn access(op: AccessOp) -> TileAccess {
        TileAccess {
            tensor: TensorClass::Ofmap,
            op,
            tile: 0,
            bytes: 1024,
            vn: 1,
            first_read: false,
            last_write: false,
        }
    }

    fn dram() -> Dram {
        Dram::new(NpuConfig::paper().dram)
    }

    #[test]
    fn baseline_is_free() {
        let mut e = BaselineTiming;
        let mut d = dram();
        let c = e.on_tile(&access(AccessOp::Read), 0, 16, &mut d);
        assert_eq!(c, TileSecurityCost::default());
        assert_eq!(d.stats().total_bytes(), 0);
    }

    #[test]
    fn secure_streaming_miss_rates_match_coverage_ratios() -> Result<(), SecurityError> {
        let cfg = NpuConfig::paper();
        let mut e = SecureTiming::new(&cfg);
        let mut d = dram();
        // Stream 64 MB of distinct blocks (1M blocks) — far beyond both
        // caches, so miss rates approach the compulsory floor:
        // MAC 1/8 = 12.5 %, counter 1/64 ≈ 1.6 %.
        let blocks_per_tile = 1024;
        for t in 0..1024u64 {
            let _ = e.on_tile(
                &access(AccessOp::Read),
                t * blocks_per_tile * 64,
                blocks_per_tile,
                &mut d,
            );
        }
        let mac = e.require_mac_cache()?.miss_rate();
        let ctr = e.require_counter_cache()?.miss_rate();
        assert!((mac - 0.125).abs() < 0.01, "mac miss rate {mac}");
        assert!((ctr - 1.0 / 64.0).abs() < 0.005, "counter miss rate {ctr}");
        assert!(
            mac > 5.0 * ctr,
            "paper: MAC cache misses ≫ counter cache misses"
        );
        Ok(())
    }

    #[test]
    fn guardnn_moves_more_metadata_than_tnpu() {
        let cfg = NpuConfig::paper();
        let mut g = GuardNnTiming::new(&cfg);
        let mut t = TnpuTiming::new(&cfg);
        let mut dg = dram();
        let mut dt = dram();
        for i in 0..256u64 {
            let _ = g.on_tile(&access(AccessOp::Write), i * 64 * 64, 64, &mut dg);
            let _ = t.on_tile(&access(AccessOp::Write), i * 64 * 64, 64, &mut dt);
        }
        let g_meta = dg.stats().meta_read_bytes + dg.stats().meta_write_bytes;
        let t_meta = dt.stats().meta_read_bytes + dt.stats().meta_write_bytes;
        assert!(g_meta > t_meta, "guardnn {g_meta} vs tnpu {t_meta}");
    }

    #[test]
    fn seculator_generates_no_metadata_traffic() {
        let cfg = NpuConfig::paper();
        let mut e = SeculatorTiming::new(&cfg, SchemeKind::Seculator);
        let mut d = dram();
        let c = e.on_tile(&access(AccessOp::Write), 0, 128, &mut d);
        assert_eq!(d.stats().total_bytes(), 0);
        assert_eq!(c.exposed_cycles, 0);
        assert!(c.memory_cycles > 0, "crypto pipeline fill still costs");
        assert!(e.layer_end(&mut d) > 0);
    }

    #[test]
    fn tnpu_pays_tensor_table_per_tile() {
        let cfg = NpuConfig::paper();
        let mut e = TnpuTiming::new(&cfg);
        let mut d = dram();
        let c = e.on_tile(&access(AccessOp::Read), 0, 8, &mut d);
        assert_eq!(c.exposed_cycles, cfg.tensor_table_cycles);
    }

    #[test]
    fn scheme_metadata_ordering_matches_paper() {
        // For a common write-heavy streaming pattern:
        // GuardNN > Secure > TNPU > Seculator in metadata bytes.
        let cfg = NpuConfig::paper();
        let mut engines: Vec<Box<dyn SchemeTiming>> = vec![
            Box::new(SecureTiming::new(&cfg)),
            Box::new(TnpuTiming::new(&cfg)),
            Box::new(GuardNnTiming::new(&cfg)),
            Box::new(SeculatorTiming::new(&cfg, SchemeKind::Seculator)),
        ];
        let mut meta = Vec::new();
        for e in engines.iter_mut() {
            let mut d = dram();
            for i in 0..512u64 {
                let _ = e.on_tile(&access(AccessOp::Write), i * 64 * 64, 64, &mut d);
                let _ = e.on_tile(&access(AccessOp::Read), i * 64 * 64, 64, &mut d);
            }
            meta.push((
                e.kind(),
                d.stats().meta_read_bytes + d.stats().meta_write_bytes,
            ));
        }
        let get = |k: SchemeKind| {
            meta.iter()
                .find(|(kk, _)| *kk == k)
                .map(|(_, bytes)| *bytes)
                .unwrap_or_else(|| panic!("scheme {k} missing from sweep"))
        };
        assert!(get(SchemeKind::GuardNn) > get(SchemeKind::Tnpu));
        assert!(get(SchemeKind::Tnpu) > get(SchemeKind::Seculator));
        assert_eq!(get(SchemeKind::Seculator), 0);
    }

    #[test]
    fn secure_dirty_evictions_write_metadata_back() {
        // A tiny MAC cache forced to evict dirty lines must emit
        // metadata *writes*, not just reads.
        let cfg = NpuConfig {
            mac_cache_bytes: 256,
            counter_cache_bytes: 256,
            ..NpuConfig::paper()
        };
        let mut e = SecureTiming::new(&cfg);
        let mut d = dram();
        // Write tiles far apart so every line is dirty and then evicted.
        for i in 0..64u64 {
            let _ = e.on_tile(&access(AccessOp::Write), i * 1_000_000, 16, &mut d);
        }
        assert!(d.stats().meta_write_bytes > 0, "{:?}", d.stats());
    }

    #[test]
    fn default_hooks_are_free() {
        let mut e = BaselineTiming;
        let mut d = dram();
        assert_eq!(e.layer_begin(), 0);
        assert_eq!(e.layer_end(&mut d), 0);
        assert!(e.counter_cache().is_none());
        assert!(e.mac_cache().is_none());
    }

    #[test]
    fn missing_metadata_structures_surface_as_structured_errors() {
        let cfg = NpuConfig::paper();
        let e = SeculatorTiming::new(&cfg, SchemeKind::Seculator);
        let err = e.require_mac_cache().unwrap_err();
        assert_eq!(
            err,
            SecurityError::MetadataStructureMissing {
                scheme: SchemeKind::Seculator,
                structure: "mac cache",
            }
        );
        assert!(
            !err.is_breach(),
            "a missing cache is API misuse, not tampering"
        );
        assert!(e.require_counter_cache().is_err());
        // Designs that do keep the structures succeed.
        let s = SecureTiming::new(&cfg);
        assert!(s.require_mac_cache().is_ok());
        assert!(s.require_counter_cache().is_ok());
    }

    #[test]
    fn display_names_match_table5() {
        assert_eq!(SchemeKind::Seculator.to_string(), "seculator");
        assert_eq!(SchemeKind::SeculatorPlus.to_string(), "seculator+");
        assert_eq!(SchemeKind::GuardNn.to_string(), "guardnn");
    }

    #[test]
    fn guardnn_reads_cost_more_metadata_than_writes_per_block() {
        let cfg = NpuConfig::paper();
        let mut e = GuardNnTiming::new(&cfg);
        let mut dr = dram();
        let _ = e.on_tile(&access(AccessOp::Read), 0, 64, &mut dr);
        let read_meta = dr.stats().meta_read_bytes;
        let mut dw = dram();
        let mut e2 = GuardNnTiming::new(&cfg);
        let _ = e2.on_tile(&access(AccessOp::Write), 0, 64, &mut dw);
        let write_meta = dw.stats().meta_read_bytes + dw.stats().meta_write_bytes;
        // Reads refetch a line per 2 blocks (32 lines); writes RMW a line
        // per 8 blocks (8+8 lines).
        assert_eq!(read_meta, 32 * 64);
        assert_eq!(write_meta, 16 * 64);
    }

    impl SecureTiming {
        /// The per-block reference: both caches looked up once per
        /// 64-byte block, interleaved. `on_tile` must equal it.
        fn on_tile_per_block(
            &mut self,
            access: &TileAccess,
            base_addr: u64,
            blocks: u64,
            dram: &mut Dram,
        ) -> TileSecurityCost {
            let is_write = access.op == AccessOp::Write;
            let mut meta_read = 0u64;
            let mut meta_write = 0u64;
            for b in 0..blocks {
                let addr = base_addr + b * 64;
                // Counter lookup (and bump on write).
                let c = self
                    .counter_cache
                    .access(addr / COUNTER_LINE_COVERAGE, is_write);
                if !c.hit {
                    // Fetch the counter line and verify it up the tree.
                    meta_read += 64 * (1 + u64::from(self.merkle_levels));
                }
                if c.writeback {
                    // Write back the counter line and update the tree path.
                    meta_write += 64 * (1 + u64::from(self.merkle_levels));
                }
                // MAC lookup / update.
                let m = self.mac_cache.access(addr / MAC_LINE_COVERAGE, is_write);
                if !m.hit {
                    meta_read += 64;
                }
                if m.writeback {
                    meta_write += 64;
                }
            }
            dram.record_read(meta_read, TrafficClass::Metadata);
            dram.record_write(meta_write, TrafficClass::Metadata);
            TileSecurityCost {
                memory_cycles: self.crypto_fill
                    + dram.pipelined_meta_cycles(meta_read + meta_write),
                exposed_cycles: 0,
            }
        }
    }

    impl TnpuTiming {
        /// The per-block reference: the MAC cache looked up once per
        /// 64-byte block. `on_tile` must equal it.
        fn on_tile_per_block(
            &mut self,
            access: &TileAccess,
            base_addr: u64,
            blocks: u64,
            dram: &mut Dram,
        ) -> TileSecurityCost {
            let is_write = access.op == AccessOp::Write;
            let mut meta_read = 0u64;
            let mut meta_write = 0u64;
            for b in 0..blocks {
                let addr = base_addr + b * 64;
                let m = self.mac_cache.access(addr / MAC_LINE_COVERAGE, is_write);
                if !m.hit {
                    meta_read += 64;
                }
                if m.writeback {
                    meta_write += 64;
                }
            }
            dram.record_read(meta_read, TrafficClass::Metadata);
            dram.record_write(meta_write, TrafficClass::Metadata);
            let exposed_cycles = if access.tensor == TensorClass::Ofmap {
                self.tensor_table_cycles
            } else {
                0
            };
            TileSecurityCost {
                memory_cycles: self.crypto_fill
                    + dram.pipelined_meta_cycles(meta_read + meta_write),
                exposed_cycles,
            }
        }
    }

    /// A line-run engine (index 0) and its per-block reference (index 1)
    /// per design, each with its own DRAM, fed the same tiles.
    struct Differential {
        secure: [(SecureTiming, Dram); 2],
        tnpu: [(TnpuTiming, Dram); 2],
    }

    impl Differential {
        fn new(cfg: &NpuConfig) -> Self {
            let dram = || Dram::new(cfg.dram);
            Self {
                secure: [
                    (SecureTiming::new(cfg), dram()),
                    (SecureTiming::new(cfg), dram()),
                ],
                tnpu: [
                    (TnpuTiming::new(cfg), dram()),
                    (TnpuTiming::new(cfg), dram()),
                ],
            }
        }

        /// Runs one tile through all four engines; the cost, DRAM and
        /// cache statistics must be identical after it.
        fn tile(&mut self, a: &TileAccess, base: u64, blocks: u64) {
            let [(s, sd), (sr, srd)] = &mut self.secure;
            let at = format!("secure: {blocks} blocks at {base:#x}");
            assert_eq!(
                s.on_tile(a, base, blocks, sd),
                sr.on_tile_per_block(a, base, blocks, srd),
                "{at}"
            );
            assert_eq!(sd.stats(), srd.stats(), "{at}");
            assert_eq!(s.counter_cache.stats(), sr.counter_cache.stats(), "{at}");
            assert_eq!(s.mac_cache.stats(), sr.mac_cache.stats(), "{at}");
            let [(t, td), (tr, trd)] = &mut self.tnpu;
            let at = format!("tnpu: {blocks} blocks at {base:#x}");
            assert_eq!(
                t.on_tile(a, base, blocks, td),
                tr.on_tile_per_block(a, base, blocks, trd),
                "{at}"
            );
            assert_eq!(td.stats(), trd.stats(), "{at}");
            assert_eq!(t.mac_cache.stats(), tr.mac_cache.stats(), "{at}");
        }
    }

    #[test]
    fn line_runs_equal_per_block_on_resnet18() {
        let npu = crate::TimingNpu::default();
        let cfg = npu.config();
        let schedules = npu
            .map(&seculator_models::zoo::resnet18())
            .expect("ResNet-18 maps onto the global buffer");
        let mut diff = Differential::new(cfg);
        let mut tiles = 0u64;
        for (s, r) in schedules.iter().zip(crate::npu::lay_out(&schedules)) {
            s.for_each_step(|step| {
                for a in &step.accesses {
                    let blocks = cfg.blocks(a.bytes);
                    diff.tile(a, r.tile_base(a, blocks), blocks);
                    tiles += 1;
                }
            });
        }
        assert!(tiles > 10_000, "{tiles} tiles");
    }

    #[test]
    fn line_runs_equal_per_block_on_random_tiles() {
        let tiny_caches = NpuConfig {
            mac_cache_bytes: 256,
            counter_cache_bytes: 256,
            ..NpuConfig::paper()
        };
        for (cfg, seed) in [(NpuConfig::tiny(), 1), (tiny_caches, 2)] {
            let mut rng = proptest::test_runner::TestRng::from_seed(seed);
            let mut diff = Differential::new(&cfg);
            for _ in 0..2000 {
                let blocks = match rng.gen_below(3) {
                    0 => rng.gen_below(2),
                    1 => rng.gen_below(16),
                    // Spanning up to 17 counter lines and 129 MAC lines.
                    _ => rng.gen_below(1024),
                };
                // On a counter-line boundary, on a block boundary, or at
                // any byte, within 256 KB so lines are revisited and
                // evicted.
                let base = match rng.gen_below(3) {
                    0 => rng.gen_below(64) * COUNTER_LINE_COVERAGE,
                    1 => rng.gen_below(4096) * 64,
                    _ => rng.gen_below(1 << 18),
                };
                let a = TileAccess {
                    tensor: [TensorClass::Ifmap, TensorClass::Weight, TensorClass::Ofmap]
                        [rng.gen_below(3) as usize],
                    op: [AccessOp::Read, AccessOp::Write][rng.gen_below(2) as usize],
                    ..access(AccessOp::Read)
                };
                diff.tile(&a, base, blocks);
            }
            for (engine, _) in &diff.secure {
                for c in [engine.counter_cache.stats(), engine.mac_cache.stats()] {
                    assert!(c.hits > 0 && c.misses > 0 && c.writebacks > 0, "{c:?}");
                }
            }
        }
    }

    #[test]
    fn table5_features() {
        assert_eq!(SchemeKind::Seculator.features().0, "per-layer");
        assert_eq!(SchemeKind::Tnpu.features().1, "XTS");
        assert!(SchemeKind::SeculatorPlus.features().3);
        assert_eq!(SchemeKind::ALL.len(), 6);
    }
}
