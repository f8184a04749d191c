//! # seculator-bench
//!
//! Shared harness code for regenerating every table and figure of the
//! paper's evaluation. The `figures` binary dispatches on an experiment
//! id (`fig4`, `table2`, …, or `all`).

#![warn(missing_docs)]

use std::ops::Range;

use seculator_compute::{QAccum3, QTensor3, QTensor4};
use seculator_core::{SchemeKind, TimingNpu};
use seculator_models::Network;
use seculator_sim::stats::RunStats;

/// The five designs compared in Figures 4/7/8 (Seculator+ is exercised
/// separately by the Figure 9 widening sweep).
pub const COMPARED_SCHEMES: [SchemeKind; 5] = [
    SchemeKind::Baseline,
    SchemeKind::Secure,
    SchemeKind::Tnpu,
    SchemeKind::GuardNn,
    SchemeKind::Seculator,
];

/// One workload's runs under every compared scheme (shared mapping).
#[derive(Debug, Clone)]
pub struct WorkloadRuns {
    /// Workload name.
    pub name: String,
    /// One [`RunStats`] per scheme, in [`COMPARED_SCHEMES`] order.
    pub runs: Vec<RunStats>,
}

impl WorkloadRuns {
    /// The baseline run (normalization reference).
    #[must_use]
    pub fn baseline(&self) -> &RunStats {
        &self.runs[0]
    }

    /// The run for `scheme`.
    ///
    /// # Panics
    ///
    /// Panics if `scheme` was not part of the comparison.
    #[must_use]
    pub fn get(&self, scheme: SchemeKind) -> &RunStats {
        self.runs
            .iter()
            .find(|r| r.scheme == scheme.name())
            .expect("scheme was part of the comparison")
    }
}

/// Runs every compared scheme on every workload with a shared per-layer
/// mapping (workloads are run in parallel across threads).
#[must_use]
pub fn run_comparison(npu: &TimingNpu, workloads: &[Network]) -> Vec<WorkloadRuns> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = workloads
            .iter()
            .map(|net| {
                scope.spawn(move || {
                    let runs = npu
                        .compare_schemes(net, &COMPARED_SCHEMES)
                        .expect("paper benchmarks map onto the 240 KB global buffer");
                    WorkloadRuns {
                        name: net.name.clone(),
                        runs,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread"))
            .collect()
    })
}

/// Geometric mean of a slice of ratios.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Formats a ratio table row: name followed by one column per value.
#[must_use]
pub fn row(name: &str, values: &[f64]) -> String {
    let mut out = format!("{name:<12}");
    for v in values {
        out.push_str(&format!(" {v:>10.3}"));
    }
    out
}

/// The scalar convolution oracle that the compute crate's kernel is
/// tested (`tests/prop_compute.rs`) and timed (`figures compute`)
/// against: one channel group at a time in the given order, k → y → x →
/// c·r·s within a group, with a bounds-checked padded read per
/// multiply-accumulate. Its result must equal
/// [`seculator_compute::qconv2d_grouped`] exactly.
///
/// # Panics
///
/// Panics if channel counts disagree or `stride` is zero.
#[must_use]
pub fn oracle_qconv2d_grouped(
    input: &QTensor3,
    weights: &QTensor4,
    stride: usize,
    channel_group_order: &[Range<usize>],
) -> QAccum3 {
    assert_eq!(input.c, weights.c, "channel mismatch");
    assert!(stride > 0, "stride must be positive");
    let mut out = QAccum3::zeros(
        weights.k,
        input.h.div_ceil(stride),
        input.w.div_ceil(stride),
    );
    let (ks, ys, xs) = (0..weights.k, 0..out.h, 0..out.w);
    for cs in channel_group_order {
        let pad_r = (weights.r as isize - 1) / 2;
        let pad_s = (weights.s as isize - 1) / 2;
        for k in ks.clone() {
            for y in ys.clone() {
                for x in xs.clone() {
                    let mut acc = 0i32;
                    for c in cs.clone() {
                        for r in 0..weights.r {
                            for s in 0..weights.s {
                                let iy = (y * stride) as isize + r as isize - pad_r;
                                let ix = (x * stride) as isize + s as isize - pad_s;
                                acc += i32::from(input.get_padded(c, iy, ix))
                                    * i32::from(weights.get(k, c, r, s));
                            }
                        }
                    }
                    *out.at_mut(k, y, x) += acc;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_identity_ratios() {
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 0.5]) - 1.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn comparison_runs_all_schemes_on_a_tiny_workload() {
        let npu = TimingNpu::default();
        let nets = vec![seculator_models::zoo::tiny_cnn()];
        let out = run_comparison(&npu, &nets);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].runs.len(), COMPARED_SCHEMES.len());
        assert_eq!(out[0].baseline().scheme, "baseline");
        assert_eq!(out[0].get(SchemeKind::Seculator).scheme, "seculator");
    }
}
