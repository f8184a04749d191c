//! Real arithmetic under real schedules: replay a convolution layer's
//! schedule trace step by step, in int8, for every Table 2/3 dataflow,
//! and show each computes exactly the direct convolution; then run a
//! pointwise convolution on the cycle-stepped systolic PE grid.
//!
//! This demonstrates that the schedules the security machinery reasons
//! about (and derives VN patterns from) describe a *correct* computation
//! order, not just a plausible traffic trace.
//!
//! ```sh
//! cargo run --release --example tiled_compute
//! ```

use seculator::arch::dataflow::{ConvDataflow, Dataflow};
use seculator::arch::layer::{ConvShape, LayerDesc, LayerKind};
use seculator::arch::tiling::TileConfig;
use seculator::arch::trace::LayerSchedule;
use seculator::compute::{execute_qconv, qconv2d, QTensor3, QTensor4, SystolicGrid};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ── 1. The systolic array computes exact int8 GEMMs ──
    let weights = QTensor4::seeded(48, 96, 1, 1, 1);
    let input = QTensor3::seeded(96, 1, 40, 2);
    let mut grid = SystolicGrid::new(32, 32);
    let systolic = grid.gemm(&weights, &input);
    assert_eq!(systolic, qconv2d(&input, &weights, 1), "grid diverged");
    println!(
        "systolic 32×32 grid vs direct 1×1 conv (48 filters · 96 channels · 40 pixels): \
         bit-identical over {} cycles",
        grid.cycles_run()
    );

    // ── 2. Every dataflow's trace replays to the same convolution ──
    let layer = LayerDesc::new(0, LayerKind::Conv(ConvShape::simple(8, 4, 16, 3)));
    let tiling = TileConfig {
        kt: 4,
        ct: 2,
        ht: 8,
        wt: 8,
    };
    let input = QTensor3::seeded(4, 16, 16, 7);
    let weights = QTensor4::seeded(8, 4, 3, 3, 9);
    let direct = qconv2d(&input, &weights, 1);

    println!("\ntrace replay vs direct convolution (K=8 C=4 H=W=16, 3×3, int8):");
    println!("{:<46} {:>6} {:>14}", "dataflow", "steps", "result");
    for df in ConvDataflow::ALL {
        let schedule = LayerSchedule::new(layer, Dataflow::Conv(df), tiling)?;
        let replayed = execute_qconv(&schedule, &input, &weights)?;
        assert_eq!(replayed, direct, "{df:?} diverged");
        let mut steps = 0;
        schedule.for_each_step(|_| steps += 1);
        println!("{:<46} {steps:>6} {:>14}", df.style_name(), "bit-identical");
    }

    println!(
        "\nAll 12 dataflows accumulate partial products in different orders but\n\
         reach the same result — which is exactly why their VN sequences are\n\
         deterministic and why layer-level MACs can replace per-block ones."
    );
    Ok(())
}
