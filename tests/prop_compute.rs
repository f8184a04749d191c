//! Property tests closing the loop between schedules and arithmetic:
//! the convolution kernel equals the scalar oracle exactly over strides,
//! filter sizes, input shapes and channel-group orders; and for
//! randomized layer shapes, tilings, strides and filter sizes,
//! replaying every dataflow's schedule trace step by step in int8
//! computes the direct convolution bit for bit — so the traces (and the
//! VN patterns derived from them) describe a real computation. The
//! systolic grid is held to the same exact standard.

use std::ops::Range;

use proptest::prelude::*;
use seculator::arch::dataflow::{ConvDataflow, Dataflow};
use seculator::arch::layer::{ConvShape, LayerDesc, LayerKind};
use seculator::arch::tiling::TileConfig;
use seculator::arch::trace::LayerSchedule;
use seculator::compute::{
    execute_qconv, qconv2d, qconv2d_grouped, QTensor3, QTensor4, SystolicGrid,
};
use seculator::core::splitmix;
use seculator_bench::oracle_qconv2d_grouped;

/// A seeded partition of `0..c` into contiguous channel groups, in a
/// seeded order.
fn channel_groups(c: usize, seed: u64) -> Vec<Range<usize>> {
    let mut state = seed;
    let mut groups = Vec::new();
    let mut start = 0;
    for end in 1..=c {
        if end == c || splitmix(&mut state) & 1 == 0 {
            groups.push(start..end);
            start = end;
        }
    }
    for i in (1..groups.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        groups.swap(i, j);
    }
    groups
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The kernel behind every convolution equals the scalar oracle
    /// exactly: strides 1–3, filter sizes 1, 2, 3 and 5 in each
    /// dimension (even sizes take pad 0), non-square inputs down to
    /// 1×1, and any partition of the input channels into groups, in any
    /// order.
    #[test]
    fn grouped_convolution_matches_the_scalar_oracle(
        k in 1usize..=6,
        c in 1usize..=8,
        h in 1usize..=9,
        w in 1usize..=9,
        r in prop::sample::select(vec![1usize, 2, 3, 5]),
        s in prop::sample::select(vec![1usize, 2, 3, 5]),
        stride in 1usize..=3,
        seed in any::<u64>(),
    ) {
        let input = QTensor3::seeded(c, h, w, seed);
        let weights = QTensor4::seeded(k, c, r, s, seed ^ 0x5555);
        let groups = channel_groups(c, seed);
        let fast = qconv2d_grouped(&input, &weights, stride, &groups);
        let oracle = oracle_qconv2d_grouped(&input, &weights, stride, &groups);
        prop_assert!(fast == oracle, "groups {groups:?} diverged from the oracle");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All 12 dataflows of Tables 2–3, under randomized (possibly
    /// ragged) tilings, stride 1 or 2, and 1×1 or 3×3 filters, replay
    /// to exactly the direct convolution.
    #[test]
    fn tiled_execution_matches_direct_convolution(
        k in 1u32..=6,
        c in 1u32..=5,
        hw in 4u32..=10,
        kt in 1u32..=6,
        ct in 1u32..=5,
        tile in 1u32..=6,
        stride in 1u32..=2,
        rs in prop::sample::select(vec![1u32, 3]),
        seed in any::<u64>(),
    ) {
        let shape = ConvShape { stride, ..ConvShape::simple(k, c, hw, rs) };
        let layer = LayerDesc::new(0, LayerKind::Conv(shape));
        let tile = tile.min(shape.out_h());
        let tiling = TileConfig { kt: kt.min(k), ct: ct.min(c), ht: tile, wt: tile };
        let input = QTensor3::seeded(c as usize, hw as usize, hw as usize, seed);
        let weights = QTensor4::seeded(k as usize, c as usize, rs as usize, rs as usize, seed ^ 0x5555);
        let direct = qconv2d(&input, &weights, stride as usize);
        for df in ConvDataflow::ALL {
            let schedule = LayerSchedule::new(layer, Dataflow::Conv(df), tiling).expect("resolves");
            let replayed = execute_qconv(&schedule, &input, &weights).expect("shapes match");
            prop_assert!(replayed == direct, "{df:?} replay diverged from qconv2d");
        }
    }

    /// The int8 systolic grid computes exact GEMMs — the pointwise
    /// convolution of a `k×1×n` input by `m×k×1×1` filters — for
    /// arbitrary (small) shapes, including ones that don't divide the
    /// array.
    #[test]
    fn systolic_grid_matches_reference_gemm(
        m in 1usize..=20,
        k in 1usize..=20,
        n in 1usize..=20,
        rows in 2usize..=8,
        cols in 2usize..=8,
        seed in any::<u64>(),
    ) {
        let weights = QTensor4::seeded(m, k, 1, 1, seed);
        let input = QTensor3::seeded(k, 1, n, seed ^ 0xAAAA);
        let mut grid = SystolicGrid::new(rows, cols);
        prop_assert!(grid.gemm(&weights, &input) == qconv2d(&input, &weights, 1));
    }

    /// 1×1 convolution with stride 1 is exactly a per-pixel channel mix:
    /// over a `c×hw×hw` map it equals the grid's GEMM over the same
    /// pixels laid out as one `c×1×(hw·hw)` row.
    #[test]
    fn pointwise_conv_equals_gemm(
        k in 1usize..=4,
        c in 1usize..=4,
        hw in 2usize..=6,
        seed in any::<u64>(),
    ) {
        let input = QTensor3::seeded(c, hw, hw, seed);
        let weights = QTensor4::seeded(k, c, 1, 1, seed ^ 0x1234);
        let conv = qconv2d(&input, &weights, 1);
        let mut row = QTensor3::zeros(c, 1, hw * hw, input.scale);
        for cc in 0..c {
            for y in 0..hw {
                for x in 0..hw {
                    *row.at_mut(cc, 0, y * hw + x) = input.get(cc, y, x);
                }
            }
        }
        let gemm = SystolicGrid::new(4, 4).gemm(&weights, &row);
        for kk in 0..k {
            for y in 0..hw {
                for x in 0..hw {
                    prop_assert!(conv.get(kk, y, x) == gemm.get(kk, 0, y * hw + x));
                }
            }
        }
    }
}
