//! First-order energy accounting for a simulated run: DRAM transfer
//! energy, PE-array compute energy, metadata-cache access energy, and
//! crypto-engine energy. An extension beyond the paper's evaluation
//! (which reports only module power in Table 6); it quantifies the other
//! side of Seculator's story — fewer DRAM metadata accesses mean less
//! energy, because off-chip transfers dominate accelerator energy.

use crate::stats::RunStats;
use serde::{Deserialize, Serialize};

/// Energy cost coefficients (picojoules), first-order numbers typical of
/// a 7–8 nm accelerator with off-chip DDR4.
///
/// # Examples
///
/// ```
/// use seculator_sim::energy::EnergyModel;
/// use seculator_sim::stats::RunStats;
///
/// let model = EnergyModel::default();
/// let empty = RunStats::default();
/// assert_eq!(model.estimate(&empty, 0, false).total_pj(), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// DRAM transfer energy per byte (≈ 20 pJ/B for DDR4 I/O + core).
    pub dram_pj_per_byte: f64,
    /// One multiply-accumulate in the PE array (≈ 1 pJ at 8 nm, incl.
    /// local register movement).
    pub mac_pj: f64,
    /// One metadata-cache access (few-KB SRAM, ≈ 5 pJ).
    pub cache_access_pj: f64,
    /// AES encryption of one 64-byte block (four AES-128 invocations).
    pub aes_block_pj: f64,
    /// SHA-256 over one 64-byte block.
    pub sha_block_pj: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self {
            dram_pj_per_byte: 20.0,
            mac_pj: 1.0,
            cache_access_pj: 5.0,
            aes_block_pj: 250.0,
            sha_block_pj: 120.0,
        }
    }
}

/// Energy breakdown of one run, in picojoules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Data movement over the DRAM bus.
    pub dram_data_pj: f64,
    /// Metadata movement over the DRAM bus.
    pub dram_meta_pj: f64,
    /// PE-array arithmetic.
    pub compute_pj: f64,
    /// Metadata-cache accesses.
    pub cache_pj: f64,
    /// Crypto engines (AES + SHA per protected block).
    pub crypto_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy in picojoules.
    #[must_use]
    pub fn total_pj(&self) -> f64 {
        self.dram_data_pj + self.dram_meta_pj + self.compute_pj + self.cache_pj + self.crypto_pj
    }
}

impl EnergyModel {
    /// Estimates the energy of a completed run. `macs` is the workload's
    /// MAC count; `protected` says whether block crypto ran (false for
    /// the unsecure baseline).
    #[must_use]
    pub fn estimate(&self, run: &RunStats, macs: u64, protected: bool) -> EnergyBreakdown {
        let d = run.dram_totals();
        let data_bytes = (d.data_read_bytes + d.data_write_bytes) as f64;
        let meta_bytes = (d.meta_read_bytes + d.meta_write_bytes) as f64;
        let cache_accesses = run
            .counter_cache
            .map(|c| c.accesses())
            .unwrap_or(0)
            .saturating_add(run.mac_cache.map(|c| c.accesses()).unwrap_or(0))
            as f64;
        let protected_blocks = if protected { data_bytes / 64.0 } else { 0.0 };
        EnergyBreakdown {
            dram_data_pj: data_bytes * self.dram_pj_per_byte,
            dram_meta_pj: meta_bytes * self.dram_pj_per_byte,
            compute_pj: macs as f64 * self.mac_pj,
            cache_pj: cache_accesses * self.cache_access_pj,
            crypto_pj: protected_blocks * (self.aes_block_pj + self.sha_block_pj),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::DramStats;
    use crate::stats::LayerStats;

    fn run_with(data: u64, meta: u64) -> RunStats {
        RunStats {
            scheme: "x".into(),
            workload: "w".into(),
            layers: vec![LayerStats {
                layer_id: 0,
                cycles: 1,
                compute_cycles: 1,
                memory_cycles: 1,
                security_cycles: 0,
                dram: DramStats {
                    data_read_bytes: data,
                    meta_read_bytes: meta,
                    ..DramStats::default()
                },
            }],
            counter_cache: None,
            mac_cache: None,
        }
    }

    #[test]
    fn dram_dominates_for_memory_bound_runs() {
        let m = EnergyModel::default();
        let e = m.estimate(&run_with(1_000_000, 0), 1000, false);
        assert!(e.dram_data_pj > e.compute_pj * 100.0);
        assert_eq!(e.crypto_pj, 0.0, "baseline runs no crypto");
    }

    #[test]
    fn metadata_traffic_costs_energy() {
        let m = EnergyModel::default();
        let clean = m.estimate(&run_with(1000, 0), 0, true);
        let meta = m.estimate(&run_with(1000, 500), 0, true);
        assert!(meta.total_pj() > clean.total_pj());
        assert!((meta.dram_meta_pj - 500.0 * 20.0).abs() < 1e-9);
    }

    #[test]
    fn crypto_energy_scales_with_protected_blocks() {
        let m = EnergyModel::default();
        let small = m.estimate(&run_with(64 * 10, 0), 0, true);
        let big = m.estimate(&run_with(64 * 100, 0), 0, true);
        assert!((big.crypto_pj / small.crypto_pj - 10.0).abs() < 1e-9);
    }

    #[test]
    fn totals_sum_components() {
        let m = EnergyModel::default();
        let e = m.estimate(&run_with(640, 64), 1_000_000, true);
        let sum = e.dram_data_pj + e.dram_meta_pj + e.compute_pj + e.cache_pj + e.crypto_pj;
        assert!((e.total_pj() - sum).abs() < 1e-9);
        assert!(e.total_pj() > 0.0);
    }
}
