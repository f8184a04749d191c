//! Schedule replay: executes a convolution layer in int8 by walking its
//! `LayerSchedule` trace step by step and performing the arithmetic each
//! step implies — the partial convolution over the step's (spatial tile
//! × output group × channel group) region, accumulated in the order the
//! NPU issues the steps.
//!
//! The region is read off the trace itself, not rebuilt from the
//! schedule's loop nest: the step's ofmap `Write` names the output tile
//! (`tile = spatial · α_K + group`) and its version number names the
//! channel group (`VN − 1` for the accumulating shapes; a single-write
//! step accumulates every channel group on chip). Property tests show
//! every dataflow of the paper's Tables 2–3 reproduces [`qconv2d`] bit
//! for bit, so the traces — and the VN patterns derived from them —
//! describe a real computation.
//!
//! [`qconv2d`]: crate::quant::qconv2d

use std::ops::Range;

use crate::quant::{Operands, QAccum3, QTensor3, QTensor4};
use seculator_arch::dataflow::ScheduleShape;
use seculator_arch::layer::LayerKind;
use seculator_arch::trace::{AccessOp, LayerSchedule, TensorClass};

/// Errors from the schedule replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The operands do not fit the schedule's layer.
    ShapeMismatch {
        /// Human-readable description of the mismatch.
        what: &'static str,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ShapeMismatch { what } => write!(f, "shape mismatch: {what}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Replays a convolution schedule's trace ([`LayerSchedule::for_each_step`])
/// in int8, returning the exact i32 accumulators.
///
/// # Errors
///
/// Returns [`ExecError::ShapeMismatch`] when the layer is not a
/// convolution or a tensor's shape disagrees with the layer.
///
/// # Panics
///
/// Panics if a trace step carries no ofmap write (every schedule shape
/// ends each step with one), or if the layer depth `c · r · s` exceeds
/// 131,071, the most products an `i32` accumulator sums exactly.
pub fn execute_qconv(
    schedule: &LayerSchedule,
    input: &QTensor3,
    weights: &QTensor4,
) -> Result<QAccum3, ExecError> {
    let LayerKind::Conv(conv) = schedule.layer().kind else {
        return Err(ExecError::ShapeMismatch {
            what: "layer is not a convolution",
        });
    };
    let d = schedule.layer().dims();
    let [k, c, h, w, in_h, in_w, r, s] =
        [d.k, d.c, d.h, d.w, d.in_h, d.in_w, d.r, d.s].map(|v| v as usize);
    if (input.c, input.h, input.w) != (c, in_h, in_w) {
        return Err(ExecError::ShapeMismatch {
            what: "input tensor vs layer dims",
        });
    }
    if (weights.k, weights.c, weights.r, weights.s) != (k, c, r, s) {
        return Err(ExecError::ShapeMismatch {
            what: "weight tensor vs layer dims",
        });
    }

    let spec = schedule.spec();
    let t = spec.tiling;
    let (kt, ct, ht, wt) = (t.kt as usize, t.ct as usize, t.ht as usize, t.wt as usize);
    let alpha_k = u64::from(spec.alphas.alpha_k);
    let tile_cols = w.div_ceil(wt);
    let operands = Operands {
        input,
        weights,
        stride: conv.stride as usize,
    };

    let mut out = operands.output_plane();
    schedule.for_each_step(|step| {
        let write = step
            .accesses
            .iter()
            .find(|a| a.tensor == TensorClass::Ofmap && a.op == AccessOp::Write)
            .expect("every schedule step ends in its ofmap write");
        let spatial = (write.tile / alpha_k) as usize;
        let group = (write.tile % alpha_k) as usize;
        let channels = match spec.shape {
            ScheduleShape::SingleWrite => 0..c,
            _ => span(write.vn as usize - 1, ct, c),
        };
        let pixels = (
            span(spatial / tile_cols, ht, h),
            span(spatial % tile_cols, wt, w),
        );
        operands.accumulate(&mut out, span(group, kt, k), pixels, channels);
    });
    Ok(out)
}

/// The `index`-th tile of `size` along an axis of length `len`
/// (the last tile may be ragged).
fn span(index: usize, size: usize, len: usize) -> Range<usize> {
    index * size..((index + 1) * size).min(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::qconv2d;
    use seculator_arch::dataflow::{ConvDataflow, Dataflow};
    use seculator_arch::layer::{ConvShape, LayerDesc};
    use seculator_arch::tiling::TileConfig;

    fn schedule(df: ConvDataflow, shape: ConvShape, tiling: TileConfig) -> LayerSchedule {
        let layer = LayerDesc::new(0, LayerKind::Conv(shape));
        LayerSchedule::new(layer, Dataflow::Conv(df), tiling).expect("resolves")
    }

    #[test]
    fn every_dataflow_replays_the_direct_convolution() {
        // K=5 over KT=2 and 3×3 tiles over a 7×7 (stride 1) or 4×4
        // (stride 2) ofmap leave ragged last tiles.
        let tiling = TileConfig {
            kt: 2,
            ct: 2,
            ht: 3,
            wt: 3,
        };
        let input = QTensor3::seeded(4, 7, 7, 11);
        let weights = QTensor4::seeded(5, 4, 3, 3, 13);
        for stride in [1, 2] {
            let shape = ConvShape {
                stride,
                ..ConvShape::simple(5, 4, 7, 3)
            };
            let direct = qconv2d(&input, &weights, stride as usize);
            for df in ConvDataflow::ALL {
                let replayed = execute_qconv(&schedule(df, shape, tiling), &input, &weights);
                assert_eq!(replayed, Ok(direct.clone()), "{df:?}, stride {stride}");
            }
        }
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let shape = ConvShape::simple(4, 4, 8, 3);
        let tiling = TileConfig {
            kt: 4,
            ct: 4,
            ht: 8,
            wt: 8,
        };
        let s = schedule(ConvDataflow::IrFullChannel, shape, tiling);
        let weights = QTensor4::seeded(4, 4, 3, 3, 2);
        let bad_input = QTensor3::seeded(3, 8, 8, 1);
        assert!(matches!(
            execute_qconv(&s, &bad_input, &weights),
            Err(ExecError::ShapeMismatch { .. })
        ));
        let bad_filter = QTensor4::seeded(4, 4, 1, 1, 2);
        assert!(matches!(
            execute_qconv(&s, &QTensor3::seeded(4, 8, 8, 1), &bad_filter),
            Err(ExecError::ShapeMismatch { .. })
        ));
    }
}
