//! Timing-model validation — the reproduction's analogue of the paper's
//! "rigorously validated with ARM SCALE-Sim and native hardware" (§4.1):
//! the *analytical* systolic timing model used by the simulator must
//! agree with the *cycle-stepped functional* PE grid, which computes
//! real int8 GEMMs one cycle at a time.

use seculator::compute::{QTensor3, QTensor4, SystolicGrid};
use seculator::sim::config::NpuConfig;
use seculator::sim::systolic::SystolicArray;

#[test]
fn analytical_gemm_cycles_match_the_cycle_stepped_grid() {
    let cfg = NpuConfig {
        pe_rows: 8,
        pe_cols: 8,
        ..NpuConfig::paper()
    };
    let model = SystolicArray::new(&cfg);
    for (m, k, n) in [(8u64, 16u64, 8u64), (16, 32, 16), (8, 100, 8), (24, 10, 24)] {
        let mut grid = SystolicGrid::new(8, 8);
        let weights = QTensor4::seeded(m as usize, k as usize, 1, 1, 1);
        let input = QTensor3::seeded(k as usize, 1, n as usize, 2);
        let _ = grid.gemm(&weights, &input);
        let measured = grid.cycles_run();
        // Analytical: row_patches · col_patches · (2·rows + k). The grid
        // charges (k + rows + cols − 2) per patch.
        let patches = m.div_ceil(8) * n.div_ceil(8);
        let grid_formula = patches * (k + 8 + 8 - 2);
        assert_eq!(
            measured, grid_formula,
            "grid model self-consistency ({m},{k},{n})"
        );
        // The simulator's coarser formula must agree within the
        // fill/drain constant per patch (2 cycles here).
        let analytical = model.gemm_cycles(m, k, n);
        let delta = analytical.abs_diff(measured);
        assert!(
            delta <= 2 * patches,
            "analytical {analytical} vs measured {measured} for ({m},{k},{n})"
        );
    }
}

#[test]
fn step_cycles_lower_bound_holds_against_real_execution() {
    // The per-step model is a throughput bound: macs / PEs + fill. A real
    // GEMM of the same MAC count on the grid can never finish faster.
    let cfg = NpuConfig {
        pe_rows: 8,
        pe_cols: 8,
        ..NpuConfig::paper()
    };
    let model = SystolicArray::new(&cfg);
    let (m, k, n) = (16usize, 24usize, 16usize);
    let macs = (m * k * n) as u64;
    let mut grid = SystolicGrid::new(8, 8);
    let _ = grid.gemm(
        &QTensor4::seeded(m, k, 1, 1, 3),
        &QTensor3::seeded(k, 1, n, 4),
    );
    assert!(
        grid.cycles_run() >= model.step_cycles(macs) - u64::from(cfg.pe_rows + cfg.pe_cols),
        "functional grid ({}) beat the throughput bound ({})",
        grid.cycles_run(),
        model.step_cycles(macs)
    );
}
