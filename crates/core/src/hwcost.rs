//! Hardware cost model — the reproduction's substitute for the paper's
//! Cadence Genus synthesis flow (Table 6: AES-128 3900 µm² / 640 µW,
//! SHA-256 270 µm² / 40 µW, VN generator 40 µm² / 4.4 µW at 8 nm).
//!
//! We cannot run an EDA flow in this environment, so we model area/power
//! from first-order gate counts (NAND2-equivalent) at an 8 nm-class gate
//! density, and report both the model's estimate and the paper's
//! synthesized value side by side. The table's role in the paper is the
//! *conclusion* that the added hardware is negligible (< 0.005 mm²,
//! ≈ 0.7 mW total), which the model reproduces.

use serde::{Deserialize, Serialize};

/// NAND2-equivalent area at an 8 nm-class node, µm² per gate.
/// (≈ 0.06 µm²/gate raw density, ×~4 for wiring/utilization overheads.)
const UM2_PER_GATE: f64 = 0.24;

/// Dynamic + leakage power per gate at moderate activity, µW per gate.
const UW_PER_GATE: f64 = 0.04;

/// One synthesized security module.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModuleCost {
    /// Module name.
    pub name: &'static str,
    /// NAND2-equivalent gate count (model input).
    pub gates: u64,
    /// Paper-reported area in µm² (Table 6).
    pub paper_area_um2: f64,
    /// Paper-reported power in µW (Table 6).
    pub paper_power_uw: f64,
}

impl ModuleCost {
    /// Model-estimated area in µm².
    #[must_use]
    pub fn model_area_um2(&self) -> f64 {
        self.gates as f64 * UM2_PER_GATE
    }

    /// Model-estimated power in µW.
    #[must_use]
    pub fn model_power_uw(&self) -> f64 {
        self.gates as f64 * UW_PER_GATE
    }
}

/// The three modules of paper Table 6.
///
/// Gate counts: an unrolled AES-128 round datapath with key schedule is
/// ≈ 16 k gates; a SHA-256 compression round with message schedule is
/// ≈ 1.1 k gates sequentially reused; the VN generator is three counters
/// and two comparators ≈ 170 gates.
#[must_use]
pub fn table6_modules() -> [ModuleCost; 3] {
    [
        ModuleCost {
            name: "AES-128",
            gates: 16_000,
            paper_area_um2: 3900.0,
            paper_power_uw: 640.0,
        },
        ModuleCost {
            name: "SHA-256",
            gates: 1_100,
            paper_area_um2: 270.0,
            paper_power_uw: 40.0,
        },
        ModuleCost {
            name: "VN generator",
            gates: 170,
            paper_area_um2: 40.0,
            paper_power_uw: 4.4,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_estimates_land_within_2x_of_synthesis() {
        for m in table6_modules() {
            let ratio = m.model_area_um2() / m.paper_area_um2;
            assert!(
                (0.5..=2.0).contains(&ratio),
                "{}: model {:.0} µm² vs paper {:.0} µm²",
                m.name,
                m.model_area_um2(),
                m.paper_area_um2
            );
        }
    }

    #[test]
    fn totals_match_paper_headline() {
        // The paper's "4210 µm², sub-mW" headline.
        let total_area: f64 = table6_modules().iter().map(|m| m.paper_area_um2).sum();
        assert!((total_area - 4210.0).abs() < 1.0);
        let total_power: f64 = table6_modules().iter().map(|m| m.paper_power_uw).sum();
        assert!(total_power < 1000.0, "sub-mW total power");
    }

    #[test]
    fn vn_generator_is_orders_of_magnitude_cheaper_than_aes() {
        let [aes, _, vn] = table6_modules();
        assert!(aes.paper_area_um2 / vn.paper_area_um2 > 50.0);
        assert!(aes.model_area_um2() / vn.model_area_um2() > 50.0);
    }
}
