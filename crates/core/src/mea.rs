//! Model-extraction-attack (MEA) analysis — the threat Seculator+ exists
//! to blunt (paper §3, §7.5).
//!
//! The base Seculator design encrypts all data, but an observer of the
//! memory *address bus* still sees the tile-transfer sequence, and DNN
//! traffic is so structured that layer dimensions can be recovered from
//! it (the premise of NeurObfuscator-style attacks the paper cites).
//! This module makes that threat executable:
//!
//! - [`AddressTraceObserver`] records what a bus snooper sees: per-layer
//!   read/write byte volumes and burst counts (addresses are visible even
//!   when contents are ciphertext).
//! - [`infer_layer_dims`] is the attacker: it reconstructs each layer's
//!   ofmap size from the observed write volume and estimates depth from
//!   layer boundaries.
//! - The defense knobs — [`crate::widening::widen_network`] and
//!   [`crate::widening::intersperse_dummy`] — make the inference wrong,
//!   which the tests (and `figures`' `mea` experiment) quantify.

use seculator_arch::trace::{AccessOp, LayerSchedule, TensorClass};
use serde::{Deserialize, Serialize};

/// What a memory-bus snooper observes for one layer: address-visible
/// traffic volumes (contents are encrypted, addresses are not).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerObservation {
    /// Bytes read from the ifmap region.
    pub ifmap_read_bytes: u64,
    /// Bytes read from the weight region.
    pub weight_read_bytes: u64,
    /// Bytes written to the ofmap region (final versions only —
    /// distinguishable because they are never read back in-layer).
    pub final_write_bytes: u64,
    /// All ofmap write bytes including intermediate versions.
    pub total_write_bytes: u64,
    /// Number of distinct tile bursts observed.
    pub bursts: u64,
}

/// Passive bus observer: folds a layer schedule into what the attacker
/// can see.
///
/// # Examples
///
/// ```
/// use seculator_core::mea::{infer_layer_dims, AddressTraceObserver};
/// use seculator_core::TimingNpu;
/// use seculator_models::zoo::tiny_cnn;
///
/// let net = tiny_cnn();
/// let schedules = TimingNpu::default().map(&net)?;
/// let observations = AddressTraceObserver::observe_network(&schedules);
/// let inferred = infer_layer_dims(&observations);
/// // The undefended trace leaks layer 0's output size exactly.
/// assert_eq!(inferred[0].ofmap_pixels, net.layers[0].ofmap_bytes() / 4);
/// # Ok::<(), seculator_arch::mapper::MapperError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct AddressTraceObserver;

impl AddressTraceObserver {
    /// Observes one layer's tile-transfer stream.
    #[must_use]
    pub fn observe(schedule: &LayerSchedule) -> LayerObservation {
        let mut obs = LayerObservation::default();
        schedule.for_each_step(|step| {
            for a in &step.accesses {
                obs.bursts += 1;
                match (a.tensor, a.op) {
                    (TensorClass::Ifmap, AccessOp::Read) => obs.ifmap_read_bytes += a.bytes,
                    (TensorClass::Weight, AccessOp::Read) => obs.weight_read_bytes += a.bytes,
                    (TensorClass::Ofmap, AccessOp::Write) => {
                        obs.total_write_bytes += a.bytes;
                        if a.last_write {
                            obs.final_write_bytes += a.bytes;
                        }
                    }
                    (TensorClass::Ofmap, AccessOp::Read) => {}
                    _ => {}
                }
            }
        });
        obs
    }

    /// Observes a whole network (one observation per layer).
    #[must_use]
    pub fn observe_network(schedules: &[LayerSchedule]) -> Vec<LayerObservation> {
        schedules.iter().map(Self::observe).collect()
    }
}

/// The attacker's per-layer estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InferredLayer {
    /// Estimated ofmap pixels (`K·H·W`) from final write volume.
    pub ofmap_pixels: u64,
    /// Estimated parameter count from weight-read volume (an upper bound
    /// when weights are re-streamed).
    pub params_upper_bound: u64,
}

/// Infers per-layer dimensions from bus observations — the core of a
/// model-extraction attack. With 4-byte pixels, final-version ofmap
/// writes directly leak `K·H·W`; first-pass weight reads bound the
/// parameter count.
#[must_use]
pub fn infer_layer_dims(observations: &[LayerObservation]) -> Vec<InferredLayer> {
    observations
        .iter()
        .map(|o| InferredLayer {
            ofmap_pixels: o.final_write_bytes / 4,
            params_upper_bound: o.weight_read_bytes / 4,
        })
        .collect()
}

/// How accurately the attacker recovered the real network: mean relative
/// error of the per-layer ofmap-pixel estimates (0 = perfect extraction,
/// larger = better obfuscation).
///
/// # Panics
///
/// Panics if the two slices have different lengths or a real layer has
/// zero output pixels.
#[must_use]
pub fn extraction_error(inferred: &[InferredLayer], real_ofmap_pixels: &[u64]) -> f64 {
    assert_eq!(
        inferred.len(),
        real_ofmap_pixels.len(),
        "layer count mismatch"
    );
    let mut total = 0.0;
    for (inf, real) in inferred.iter().zip(real_ofmap_pixels) {
        assert!(*real > 0, "real layer must produce output");
        total += ((inf.ofmap_pixels as f64 - *real as f64) / *real as f64).abs();
    }
    total / inferred.len() as f64
}

/// Summary of an attack-vs-defense experiment: how well extraction works
/// against the plain network and against the obfuscated one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeaReport {
    /// Mean relative error against the undefended execution.
    pub error_undefended: f64,
    /// Mean relative error when the attacker applies the same inference
    /// to the obfuscated execution (judged against the *real* network).
    pub error_defended: f64,
    /// Apparent depth the attacker sees undefended.
    pub observed_depth_undefended: usize,
    /// Apparent depth the attacker sees defended.
    pub observed_depth_defended: usize,
}

/// Runs the full attack-vs-defense experiment: observe the real
/// schedules, observe the obfuscated schedules, and score both
/// inferences against the real network's layer sizes.
#[must_use]
pub fn evaluate_defense(
    real: &[LayerSchedule],
    obfuscated: &[LayerSchedule],
    real_ofmap_pixels: &[u64],
) -> MeaReport {
    let undefended = infer_layer_dims(&AddressTraceObserver::observe_network(real));
    let defended = infer_layer_dims(&AddressTraceObserver::observe_network(obfuscated));
    // The attacker does not know which observed layers are real; judge the
    // first `real.len()` observations against the real network (best case
    // for the attacker when dummies are appended/interleaved).
    let judged: Vec<InferredLayer> = defended
        .iter()
        .copied()
        .take(real_ofmap_pixels.len())
        .collect();
    MeaReport {
        error_undefended: extraction_error(&undefended, real_ofmap_pixels),
        error_defended: extraction_error(&judged, real_ofmap_pixels),
        observed_depth_undefended: undefended.len(),
        observed_depth_defended: defended.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::widening::{intersperse_dummy, widen_network};
    use seculator_arch::mapper::{map_network, MapperConfig};
    use seculator_models::zoo::{tiny_cnn, tiny_mlp};

    fn schedules_of(net: &seculator_models::Network) -> Vec<LayerSchedule> {
        map_network(&net.layers, &MapperConfig::default()).expect("maps")
    }

    fn real_pixels(net: &seculator_models::Network) -> Vec<u64> {
        net.layers.iter().map(|l| l.ofmap_bytes() / 4).collect()
    }

    #[test]
    fn attacker_extracts_undefended_dimensions_accurately() {
        let net = tiny_cnn();
        let obs = AddressTraceObserver::observe_network(&schedules_of(&net));
        let inferred = infer_layer_dims(&obs);
        let err = extraction_error(&inferred, &real_pixels(&net));
        assert!(
            err < 0.05,
            "undefended extraction should be near-perfect, err={err}"
        );
    }

    #[test]
    fn widening_inflates_every_inferred_layer() {
        let net = tiny_cnn();
        let widened = widen_network(&net, 2, 1);
        let report = evaluate_defense(
            &schedules_of(&net),
            &schedules_of(&widened),
            &real_pixels(&net),
        );
        // The defense degrades extraction 5x, or disguises the depth.
        assert!(
            report.error_defended >= report.error_undefended.max(1e-9) * 5.0
                || report.observed_depth_defended != report.observed_depth_undefended,
            "{report:?}"
        );
        assert!(
            report.error_defended > 1.0,
            "2x widening ⇒ ≥3x pixel inflation"
        );
    }

    #[test]
    fn dummy_interspersing_disguises_depth() {
        let net = tiny_cnn();
        let noisy = intersperse_dummy(&net, &tiny_mlp());
        let report = evaluate_defense(
            &schedules_of(&net),
            &schedules_of(&noisy),
            &real_pixels(&net),
        );
        assert_ne!(
            report.observed_depth_defended, report.observed_depth_undefended,
            "dummy layers must change the apparent depth"
        );
    }

    #[test]
    fn observation_volumes_are_consistent_with_traffic() {
        let net = tiny_cnn();
        for s in schedules_of(&net) {
            let obs = AddressTraceObserver::observe(&s);
            let t = s.traffic();
            assert_eq!(obs.ifmap_read_bytes, t.ifmap_read);
            assert_eq!(obs.weight_read_bytes, t.weight_read);
            assert_eq!(obs.total_write_bytes, t.ofmap_write);
            assert!(obs.final_write_bytes <= obs.total_write_bytes);
        }
    }
}
