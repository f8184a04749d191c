//! The top-level timing NPU: maps each layer of a network to a dataflow
//! (the paper uses Timeloop; we use `seculator_arch::mapper`), replays
//! the tile schedule under a chosen security design, and produces the
//! statistics behind the paper's Figures 4, 5, 7 and 8.

use crate::engine::{make_engine, SchemeKind};
use seculator_arch::mapper::{map_network, MapperConfig, MapperError};
use seculator_arch::trace::{AccessOp, LayerSchedule, TensorClass, TileAccess};
use seculator_models::Network;
use seculator_sim::address::{AddressAllocator, TensorRegion};
use seculator_sim::config::NpuConfig;
use seculator_sim::dram::{Dram, TrafficClass};
use seculator_sim::executor::{LayerTimer, StepCost};
use seculator_sim::stats::{LayerStats, RunStats};
use seculator_sim::systolic::SystolicArray;

/// The simulated secure NPU.
///
/// # Examples
///
/// ```
/// use seculator_core::{SchemeKind, TimingNpu};
/// use seculator_models::zoo::tiny_cnn;
///
/// let npu = TimingNpu::default(); // paper Table 1 configuration
/// let stats = npu.run(&tiny_cnn(), SchemeKind::Seculator)?;
/// assert!(stats.total_cycles() > 0);
/// # Ok::<(), seculator_arch::mapper::MapperError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TimingNpu {
    cfg: NpuConfig,
}

/// The DRAM regions of one layer's three tensors.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Regions {
    pub(crate) ifmap: TensorRegion,
    pub(crate) weights: Option<TensorRegion>,
    pub(crate) ofmap: TensorRegion,
}

impl Regions {
    /// Address of the first of the `blocks` 64-byte blocks of tile
    /// `a.tile` of `a.tensor`.
    pub(crate) fn tile_base(&self, a: &TileAccess, blocks: u64) -> u64 {
        let region = match a.tensor {
            TensorClass::Ifmap => self.ifmap,
            TensorClass::Weight => self.weights.expect("weight access without weight region"),
            TensorClass::Ofmap => self.ofmap,
        };
        region.base + a.tile * blocks * 64
    }
}

fn aligned_region_bytes(tiles: u64, tile_bytes: u64) -> u64 {
    tiles * tile_bytes.div_ceil(64) * 64
}

/// Lays out every layer's tensors in DRAM: layer i+1's ifmap is layer
/// i's ofmap.
pub(crate) fn lay_out(schedules: &[LayerSchedule]) -> Vec<Regions> {
    let mut alloc = AddressAllocator::new();
    let mut regions = Vec::with_capacity(schedules.len());
    let input = alloc.alloc(
        schedules
            .first()
            .map(|s| aligned_region_bytes(s.ifmap_tiles(), s.ifmap_tile_bytes()))
            .unwrap_or(0),
    );
    let mut prev_ofmap = input;
    for s in schedules {
        let weights = (s.weight_tile_bytes() > 0).then(|| {
            alloc.alloc(aligned_region_bytes(
                u64::from(s.spec().alphas.alpha_c) * u64::from(s.spec().alphas.alpha_k),
                s.weight_tile_bytes(),
            ))
        });
        let ofmap = alloc.alloc(aligned_region_bytes(s.ofmap_tiles(), s.ofmap_tile_bytes()));
        regions.push(Regions {
            ifmap: prev_ofmap,
            weights,
            ofmap,
        });
        prev_ofmap = ofmap;
    }
    regions
}

impl TimingNpu {
    /// Creates an NPU with the given configuration.
    #[must_use]
    pub fn new(cfg: NpuConfig) -> Self {
        Self { cfg }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &NpuConfig {
        &self.cfg
    }

    /// Maps the network's layers onto dataflows that fit the global
    /// buffer (minimum-traffic mapping per layer).
    ///
    /// # Errors
    ///
    /// Propagates [`MapperError`] when a layer cannot fit.
    pub fn map(&self, network: &Network) -> Result<Vec<LayerSchedule>, MapperError> {
        let mapper_cfg = MapperConfig {
            global_buffer_bytes: self.cfg.global_buffer_bytes,
            ..MapperConfig::default()
        };
        map_network(&network.layers, &mapper_cfg)
    }

    /// Runs one inference of `network` under `scheme` and returns the
    /// cycle/traffic statistics.
    ///
    /// # Errors
    ///
    /// Propagates [`MapperError`] when a layer cannot fit the buffer.
    pub fn run(&self, network: &Network, scheme: SchemeKind) -> Result<RunStats, MapperError> {
        let schedules = self.map(network)?;
        Ok(self.run_schedules(&network.name, &schedules, scheme))
    }

    /// Runs pre-mapped schedules (lets callers reuse one mapping across
    /// all schemes so comparisons are apples-to-apples, as in the paper).
    #[must_use]
    pub fn run_schedules(
        &self,
        workload: &str,
        schedules: &[LayerSchedule],
        scheme: SchemeKind,
    ) -> RunStats {
        let systolic = SystolicArray::new(&self.cfg);
        let mut engine = make_engine(scheme, &self.cfg);
        let mut dram = Dram::new(self.cfg.dram);
        let regions = lay_out(schedules);

        let mut layers = Vec::with_capacity(schedules.len());
        for (s, r) in schedules.iter().zip(&regions) {
            let mut timer = LayerTimer::new();
            let dram_before = dram.stats();
            timer.charge_serial(engine.layer_begin());

            s.for_each_step(|step| {
                let mut cost = StepCost {
                    compute: systolic.step_cycles(step.macs),
                    memory: 0,
                    exposed_security: 0,
                };
                for a in &step.accesses {
                    let blocks = self.cfg.blocks(a.bytes);
                    let base_addr = r.tile_base(a, blocks);
                    cost.memory += match a.op {
                        AccessOp::Read => dram.read(a.bytes, TrafficClass::Data),
                        AccessOp::Write => dram.write(a.bytes, TrafficClass::Data),
                    };
                    let sec = engine.on_tile(a, base_addr, blocks, &mut dram);
                    cost.memory += sec.memory_cycles;
                    cost.exposed_security += sec.exposed_cycles;
                }
                timer.charge(cost);
            });

            timer.charge_serial(engine.layer_end(&mut dram));
            let dram_after = dram.stats();
            layers.push(LayerStats {
                layer_id: s.layer().id,
                cycles: timer.total_cycles(),
                compute_cycles: timer.compute_cycles(),
                memory_cycles: timer.memory_cycles(),
                security_cycles: timer.security_cycles(),
                dram: seculator_sim::dram::DramStats {
                    data_read_bytes: dram_after.data_read_bytes - dram_before.data_read_bytes,
                    data_write_bytes: dram_after.data_write_bytes - dram_before.data_write_bytes,
                    meta_read_bytes: dram_after.meta_read_bytes - dram_before.meta_read_bytes,
                    meta_write_bytes: dram_after.meta_write_bytes - dram_before.meta_write_bytes,
                    bursts: dram_after.bursts - dram_before.bursts,
                },
            });
        }

        RunStats {
            scheme: scheme.name().to_string(),
            workload: workload.to_string(),
            layers,
            counter_cache: engine.counter_cache(),
            mac_cache: engine.mac_cache(),
        }
    }

    /// Convenience: runs every design of Table 5 (minus Seculator+ whose
    /// workload transformation is the caller's choice) on one network
    /// with a shared mapping.
    ///
    /// # Errors
    ///
    /// Propagates [`MapperError`].
    pub fn compare_schemes(
        &self,
        network: &Network,
        schemes: &[SchemeKind],
    ) -> Result<Vec<RunStats>, MapperError> {
        let schedules = self.map(network)?;
        Ok(schemes
            .iter()
            .map(|&s| self.run_schedules(&network.name, &schedules, s))
            .collect())
    }
}

impl Default for TimingNpu {
    fn default() -> Self {
        Self::new(NpuConfig::paper())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seculator_models::zoo::tiny_cnn;

    #[test]
    fn baseline_run_produces_sane_stats() {
        let npu = TimingNpu::default();
        let stats = npu.run(&tiny_cnn(), SchemeKind::Baseline).unwrap();
        assert_eq!(stats.layers.len(), tiny_cnn().depth());
        assert!(stats.total_cycles() > 0);
        assert!(stats.total_dram_bytes() > 0);
        let d = stats.dram_totals();
        assert_eq!(
            d.meta_read_bytes + d.meta_write_bytes,
            0,
            "baseline moves no metadata"
        );
    }

    #[test]
    fn scheme_performance_ordering_matches_paper() {
        let npu = TimingNpu::default();
        let runs = npu
            .compare_schemes(
                &tiny_cnn(),
                &[
                    SchemeKind::Baseline,
                    SchemeKind::Secure,
                    SchemeKind::Tnpu,
                    SchemeKind::GuardNn,
                    SchemeKind::Seculator,
                ],
            )
            .unwrap();
        let cycles: std::collections::HashMap<&str, u64> = runs
            .iter()
            .map(|r| (r.scheme.as_str(), r.total_cycles()))
            .collect();
        assert!(cycles["baseline"] <= cycles["seculator"]);
        assert!(cycles["seculator"] < cycles["tnpu"], "{cycles:?}");
        assert!(cycles["tnpu"] < cycles["guardnn"], "{cycles:?}");
        assert!(cycles["seculator"] < cycles["secure"], "{cycles:?}");
    }

    #[test]
    fn traffic_ordering_matches_paper_figure8() {
        let npu = TimingNpu::default();
        let runs = npu
            .compare_schemes(
                &tiny_cnn(),
                &[
                    SchemeKind::Baseline,
                    SchemeKind::Tnpu,
                    SchemeKind::GuardNn,
                    SchemeKind::Seculator,
                ],
            )
            .unwrap();
        let bytes: std::collections::HashMap<&str, u64> = runs
            .iter()
            .map(|r| (r.scheme.as_str(), r.total_dram_bytes()))
            .collect();
        assert!(bytes["seculator"] >= bytes["baseline"]);
        assert!(bytes["tnpu"] > bytes["seculator"], "{bytes:?}");
        assert!(bytes["guardnn"] > bytes["tnpu"], "{bytes:?}");
    }

    #[test]
    fn unmappable_network_propagates_the_error() {
        use seculator_sim::config::NpuConfig;
        let npu = TimingNpu::new(NpuConfig {
            global_buffer_bytes: 16,
            ..NpuConfig::paper()
        });
        assert!(npu.run(&tiny_cnn(), SchemeKind::Baseline).is_err());
    }

    #[test]
    fn seculator_plus_timing_equals_seculator_on_the_same_workload() {
        // The engines are identical; Seculator+ differs only in the
        // workload transformation (widening/noise), applied by callers.
        let npu = TimingNpu::default();
        let a = npu.run(&tiny_cnn(), SchemeKind::Seculator).unwrap();
        let b = npu.run(&tiny_cnn(), SchemeKind::SeculatorPlus).unwrap();
        assert_eq!(a.total_cycles(), b.total_cycles());
    }

    #[test]
    fn per_layer_stats_sum_to_totals() {
        let npu = TimingNpu::default();
        let stats = npu.run(&tiny_cnn(), SchemeKind::Secure).unwrap();
        let sum: u64 = stats.layers.iter().map(|l| l.cycles).sum();
        assert_eq!(sum, stats.total_cycles());
        let bytes: u64 = stats.layers.iter().map(|l| l.dram.total_bytes()).sum();
        assert_eq!(bytes, stats.total_dram_bytes());
    }

    #[test]
    fn shared_mapping_keeps_data_traffic_identical_across_schemes() {
        let npu = TimingNpu::default();
        let runs = npu
            .compare_schemes(&tiny_cnn(), &[SchemeKind::Baseline, SchemeKind::Seculator])
            .unwrap();
        let d0 = runs[0].dram_totals();
        let d1 = runs[1].dram_totals();
        assert_eq!(d0.data_read_bytes, d1.data_read_bytes);
        assert_eq!(d0.data_write_bytes, d1.data_write_bytes);
    }
}
