//! A functional output-stationary systolic array: an explicit `rows ×
//! cols` PE grid computing int8 GEMM tiles the way the paper's 32×32
//! array does, stepped cycle by cycle with skewed operand injection. This
//! is the compute heart the timing model in `seculator-sim` abstracts;
//! here it runs a pointwise (1×1) convolution and is checked bit for bit
//! against [`qconv2d`].
//!
//! [`qconv2d`]: crate::quant::qconv2d

use std::ops::Range;

use crate::quant::{QAccum3, QTensor3, QTensor4};

/// One processing element: an i32 multiply-accumulate register plus i8
/// operand latches that forward to the right/down neighbours.
#[derive(Debug, Clone, Copy, Default)]
struct Pe {
    acc: i32,
    a_latch: i8,
    b_latch: i8,
}

/// A functional output-stationary systolic array.
///
/// Operands are injected with the classic diagonal skew: row `i` of `A`
/// enters the west edge delayed by `i` cycles; column `j` of `B` enters
/// the north edge delayed by `j` cycles. After `K + rows + cols − 2`
/// cycles every PE `(i,j)` holds `Σ_k A[i][k]·B[k][j]`.
#[derive(Debug, Clone)]
pub struct SystolicGrid {
    rows: usize,
    cols: usize,
    pes: Vec<Pe>,
    cycles_run: u64,
}

impl SystolicGrid {
    /// Creates an array of the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be non-zero");
        Self {
            rows,
            cols,
            pes: vec![Pe::default(); rows * cols],
            cycles_run: 0,
        }
    }

    /// Total cycles stepped since construction.
    #[must_use]
    pub fn cycles_run(&self) -> u64 {
        self.cycles_run
    }

    /// The pointwise convolution of `input` (`k × 1 × n`) by `weights`
    /// (`m × k × 1 × 1`) as the GEMM `A(m×k) · B(k×n)`: the `m × 1 × n`
    /// output is tiled into array-sized patches, each run on the grid.
    ///
    /// # Panics
    ///
    /// Panics if the filters are not 1×1, the input has more than one
    /// row, or the channel counts disagree.
    #[must_use]
    pub fn gemm(&mut self, weights: &QTensor4, input: &QTensor3) -> QAccum3 {
        assert!(
            weights.r == 1 && weights.s == 1,
            "the grid runs 1×1 filters"
        );
        assert_eq!(input.h, 1, "the grid streams a k×1×n input");
        assert_eq!(weights.c, input.c, "inner dimensions must agree");
        let (m, n) = (weights.k, input.w);
        let mut out = QAccum3::zeros(m, 1, n);
        for r0 in (0..m).step_by(self.rows) {
            for c0 in (0..n).step_by(self.cols) {
                let patch = (r0..(r0 + self.rows).min(m), c0..(c0 + self.cols).min(n));
                self.run_patch(weights, input, patch, &mut out);
            }
        }
        out
    }

    /// Computes the output patch `rows × cols` by explicit cycle-stepping
    /// from cleared PEs, writing the accumulators into `out`.
    fn run_patch(
        &mut self,
        weights: &QTensor4,
        input: &QTensor3,
        (rows, cols): (Range<usize>, Range<usize>),
        out: &mut QAccum3,
    ) {
        self.pes.fill(Pe::default());
        let k = input.c;
        let width = self.cols;
        let idx = move |r: usize, c: usize| r * width + c;
        // The operand entering at cycle `t`, skewed by `lane` cycles.
        let skewed = |t: usize, lane: usize| t.checked_sub(lane).filter(|&step| step < k);
        for t in 0..k + self.rows + self.cols - 2 {
            // Propagate operands one hop per cycle, farthest PEs first so
            // each latch moves exactly one step.
            for r in (0..self.rows).rev() {
                for c in (0..self.cols).rev() {
                    let a_in = if c == 0 {
                        // West edge: filter row `rows.start + r`, skewed by r cycles.
                        match skewed(t, r) {
                            Some(step) if r < rows.len() => weights.get(rows.start + r, step, 0, 0),
                            _ => 0,
                        }
                    } else {
                        self.pes[idx(r, c - 1)].a_latch
                    };
                    let b_in = if r == 0 {
                        // North edge: input column `cols.start + c`, skewed by c cycles.
                        match skewed(t, c) {
                            Some(step) if c < cols.len() => input.get(step, 0, cols.start + c),
                            _ => 0,
                        }
                    } else {
                        self.pes[idx(r - 1, c)].b_latch
                    };
                    let pe = &mut self.pes[idx(r, c)];
                    pe.acc += i32::from(a_in) * i32::from(b_in);
                    pe.a_latch = a_in;
                    pe.b_latch = b_in;
                }
            }
            self.cycles_run += 1;
        }
        for (r, m) in rows.enumerate() {
            for (c, x) in cols.clone().enumerate() {
                *out.at_mut(m, 0, x) = self.pes[idx(r, c)].acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::qconv2d;

    fn operands(m: usize, k: usize, n: usize, seed: u64) -> (QTensor4, QTensor3) {
        (
            QTensor4::seeded(m, k, 1, 1, seed),
            QTensor3::seeded(k, 1, n, seed ^ 0xFFFF),
        )
    }

    #[test]
    fn tiled_gemm_equals_the_pointwise_convolution_for_awkward_shapes() {
        for (m, k, n) in [
            (1, 1, 1),
            (4, 6, 4),
            (8, 8, 8),
            (9, 7, 10),
            (17, 5, 3),
            (3, 20, 17),
        ] {
            let (weights, input) = operands(m, k, n, (m * 100 + k * 10 + n) as u64);
            let mut grid = SystolicGrid::new(8, 8);
            assert_eq!(
                grid.gemm(&weights, &input),
                qconv2d(&input, &weights, 1),
                "({m},{k},{n})"
            );
        }
    }

    #[test]
    fn patch_cycle_count_matches_analytical_model() {
        // k + rows + cols - 2 cycles per patch.
        let (weights, input) = operands(4, 10, 4, 1);
        let mut grid = SystolicGrid::new(4, 4);
        let _ = grid.gemm(&weights, &input);
        assert_eq!(grid.cycles_run(), 10 + 4 + 4 - 2);
    }

    #[test]
    fn accumulators_reset_between_patches() {
        let (weights, input) = operands(4, 5, 4, 9);
        let mut grid = SystolicGrid::new(4, 4);
        let first = grid.gemm(&weights, &input);
        assert_eq!(grid.gemm(&weights, &input), first);
    }
}
