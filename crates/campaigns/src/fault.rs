//! The fault campaign: seeded single-fault trials against the
//! detect-and-recover driver.
//!
//! [`run_fault_campaign`] sweeps fault kinds × persistence × injection
//! points on a fixed small network, fully deterministically from a
//! seed, and reports the detection rate (must be 1.0), the
//! false-positive rate on clean runs (must be 0.0), recovery outcomes,
//! and recovery-latency statistics via [`RecoveryCost`]. Every trial
//! runs through `infer_journaled` on a fresh journal with no clock. The
//! CLI exposes it as `seculator fault-campaign --seed N --faults K`.

use crate::{verdict, Report};
use seculator_compute::quant::{QTensor3, QTensor4};
use seculator_core::secure_infer::Instruments;
use seculator_core::{
    infer_journaled, infer_plain, splitmix, DurableState, FaultInjector, FaultKind, FaultSpec,
    IncidentLog, JournaledError, PadTracker, Persistence, QConvLayer, RecoveryCost, SecureSession,
};
use seculator_crypto::keys::DeviceSecret;

/// Requantization shift used by the campaign workload.
const CAMPAIGN_SHIFT: u32 = 6;

/// The campaign workload: a small 3-layer CNN with multi-group
/// accumulation (so the partial/final write plan is exercised for real).
fn campaign_network() -> Vec<QConvLayer> {
    vec![
        QConvLayer {
            weights: QTensor4::seeded(6, 3, 3, 3, 11),
            stride: 1,
            channel_groups: vec![0..1, 1..3],
        },
        QConvLayer {
            weights: QTensor4::seeded(4, 6, 3, 3, 12),
            stride: 1,
            channel_groups: vec![0..2, 2..6],
        },
        QConvLayer::simple(QTensor4::seeded(2, 4, 3, 3, 13), 2),
    ]
}

fn campaign_input() -> QTensor3 {
    QTensor3::seeded(3, 10, 10, 21)
}

/// Outcome of one campaign trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultTrial {
    /// The injected fault; `None` for a clean (control) trial.
    pub spec: Option<FaultSpec>,
    /// Whether any breach was detected (incident log non-empty or
    /// abort).
    pub detected: bool,
    /// Whether the run completed with a verified output.
    pub recovered: bool,
    /// Whether the run aborted gracefully.
    pub aborted: bool,
    /// For completed runs: output bit-identical to the unprotected
    /// reference. Aborted runs release no output and are vacuously safe.
    pub output_correct: bool,
    /// Re-fetch recoveries spent.
    pub refetches: u32,
    /// Layer re-executions spent.
    pub reexecutions: u32,
    /// Corruptions the injector actually applied.
    pub injections: u64,
    /// Modeled recovery latency in cycles ([`RecoveryCost`]).
    pub recovery_cycles: u64,
}

/// Aggregated campaign results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultCampaignReport {
    /// All trials, faulty first, then clean controls.
    pub trials: Vec<FaultTrial>,
    /// The recovery-latency model used.
    pub cost: RecoveryCost,
}

impl FaultCampaignReport {
    /// Faulty trials where the injector actually fired.
    fn injected(&self) -> impl Iterator<Item = &FaultTrial> {
        self.trials
            .iter()
            .filter(|t| t.spec.is_some() && t.injections > 0)
    }

    /// Clean control trials.
    fn clean(&self) -> impl Iterator<Item = &FaultTrial> {
        self.trials.iter().filter(|t| t.spec.is_none())
    }

    /// Fraction of injected faults that were detected. The acceptance
    /// bar is exactly 1.0.
    #[must_use]
    pub fn detection_rate(&self) -> f64 {
        let (mut total, mut detected) = (0u32, 0u32);
        for t in self.injected() {
            total += 1;
            detected += u32::from(t.detected);
        }
        if total == 0 {
            1.0
        } else {
            f64::from(detected) / f64::from(total)
        }
    }

    /// Clean trials that reported a breach. The acceptance bar is 0.
    #[must_use]
    pub fn false_positives(&self) -> u32 {
        self.clean().filter(|t| t.detected).count() as u32
    }

    /// Fraction of clean trials that reported a breach.
    #[must_use]
    pub fn false_positive_rate(&self) -> f64 {
        let total = self.clean().count() as u32;
        if total == 0 {
            0.0
        } else {
            f64::from(self.false_positives()) / f64::from(total)
        }
    }

    /// True when no trial released an incorrect output — the pipeline's
    /// core safety property (detect *before* release).
    #[must_use]
    pub fn no_silent_corruption(&self) -> bool {
        self.trials.iter().all(|t| t.output_correct)
    }

    /// Trials recovered purely by re-fetching.
    #[must_use]
    pub fn refetch_recoveries(&self) -> u32 {
        self.injected()
            .filter(|t| t.recovered && t.refetches > 0 && t.reexecutions == 0)
            .count() as u32
    }

    /// Trials that needed at least one layer re-execution to recover.
    #[must_use]
    pub fn reexecution_recoveries(&self) -> u32 {
        self.injected()
            .filter(|t| t.recovered && t.reexecutions > 0)
            .count() as u32
    }

    /// Trials that ended in a graceful abort.
    #[must_use]
    pub fn aborts(&self) -> u32 {
        self.injected().filter(|t| t.aborted).count() as u32
    }

    /// Mean recovery latency over trials that performed any recovery.
    #[must_use]
    pub fn mean_recovery_cycles(&self) -> f64 {
        let recovering: Vec<u64> = self
            .trials
            .iter()
            .filter(|t| t.recovery_cycles > 0)
            .map(|t| t.recovery_cycles)
            .collect();
        if recovering.is_empty() {
            0.0
        } else {
            recovering.iter().sum::<u64>() as f64 / recovering.len() as f64
        }
    }

    /// Worst-case recovery latency observed.
    #[must_use]
    pub fn max_recovery_cycles(&self) -> u64 {
        self.trials
            .iter()
            .map(|t| t.recovery_cycles)
            .max()
            .unwrap_or(0)
    }
}

impl Report for FaultCampaignReport {
    /// True when the campaign meets the acceptance bar: every injected
    /// fault detected, no false positives, no wrong output released.
    fn passed(&self) -> bool {
        self.detection_rate() >= 1.0 && self.false_positives() == 0 && self.no_silent_corruption()
    }

    fn summary(&self) -> String {
        let injected = self.injected().count();
        let clean = self.clean().count();
        let mut out = String::new();
        out.push_str(&format!(
            "fault trials        : {injected} injected, {clean} clean controls\n"
        ));
        out.push_str(&format!(
            "detection rate      : {:.1}% ({} of {})\n",
            100.0 * self.detection_rate(),
            self.injected().filter(|t| t.detected).count(),
            injected
        ));
        out.push_str(&format!(
            "false positives     : {} ({:.1}%)\n",
            self.false_positives(),
            100.0 * self.false_positive_rate()
        ));
        out.push_str(&format!(
            "recovered (refetch) : {}\n",
            self.refetch_recoveries()
        ));
        out.push_str(&format!(
            "recovered (re-exec) : {}\n",
            self.reexecution_recoveries()
        ));
        out.push_str(&format!("graceful aborts     : {}\n", self.aborts()));
        out.push_str(&format!(
            "recovery latency    : mean {:.0} cycles, worst {} cycles\n",
            self.mean_recovery_cycles(),
            self.max_recovery_cycles()
        ));
        out.push_str(&format!(
            "silent corruption   : {}\n",
            if self.no_silent_corruption() {
                "none"
            } else {
                "DETECTED (violation!)"
            }
        ));
        out.push_str(&format!("verdict             : {}", verdict(self.passed())));
        out
    }
}

/// Runs a deterministic fault campaign: `faults` single-fault trials
/// sweeping every expressible (kind × persistence) combination across
/// layers, plus `clean_trials` fault-free controls, all under the
/// default recovery ladder.
///
/// Determinism: identical arguments ⇒ identical report, bit for bit.
#[must_use]
pub fn run_fault_campaign(seed: u64, faults: u32, clean_trials: u32) -> FaultCampaignReport {
    let layers = campaign_network();
    let input = campaign_input();
    let reference = infer_plain(&layers, &input, CAMPAIGN_SHIFT);
    let cost = RecoveryCost::default();
    let secret = DeviceSecret::from_seed(9);
    let combos: Vec<(FaultKind, Persistence)> = FaultKind::ALL
        .into_iter()
        .flat_map(|k| Persistence::ALL.into_iter().map(move |p| (k, p)))
        .filter(|(k, p)| {
            FaultSpec {
                kind: *k,
                persistence: *p,
                layer: 0,
                block: 0,
            }
            .is_expressible()
        })
        .collect();

    let mut state = seed;
    let mut trials = Vec::new();
    // Fault trials first, then the clean controls.
    for t in 0..u64::from(faults) + u64::from(clean_trials) {
        let (spec, nonce) = if t < u64::from(faults) {
            let (kind, persistence) = combos[(t % combos.len() as u64) as usize];
            let spec = FaultSpec {
                kind,
                persistence,
                layer: (splitmix(&mut state) % layers.len() as u64) as u32,
                block: splitmix(&mut state) % 64,
            };
            (Some(spec), 0x1000 + t)
        } else {
            (None, 0x9000 + t - u64::from(faults))
        };
        let mut injector = spec.map(|spec| FaultInjector::new(splitmix(&mut state), vec![spec]));
        let session = SecureSession {
            secret,
            nonce,
            shift: CAMPAIGN_SHIFT,
        };
        let outcome = infer_journaled(
            &layers,
            &input,
            &session,
            &mut DurableState::default(),
            &mut Instruments {
                tracker: &mut PadTracker::new(),
                injector: injector.as_mut(),
                clock: None,
            },
        );
        let recovered = outcome.is_ok();
        let aborted = matches!(outcome, Err(JournaledError::Aborted(_)));
        let (incidents, max_layer_blocks, output_correct) = match outcome {
            Ok(run) => (run.incidents, run.max_layer_blocks, run.output == reference),
            // An abort releases no output: vacuously safe after a fault,
            // but a clean run must never abort.
            Err(JournaledError::Aborted(abort)) => {
                (abort.incidents, abort.max_layer_blocks, spec.is_some())
            }
            // With no clock and a fresh journal neither a power cut nor a
            // security stop can occur; if one does, the trial fails.
            Err(JournaledError::Crashed(_) | JournaledError::Security(_)) => {
                (IncidentLog::new(), 0, false)
            }
        };
        let (refetches, reexecutions) = (incidents.refetches(), incidents.reexecutions());
        trials.push(FaultTrial {
            spec,
            detected: !incidents.is_empty(),
            recovered,
            aborted,
            output_correct,
            refetches,
            reexecutions,
            injections: injector.as_ref().map_or(0, FaultInjector::injections),
            recovery_cycles: if spec.is_some() {
                cost.cycles(refetches, reexecutions, max_layer_blocks)
            } else {
                0
            },
        });
    }

    FaultCampaignReport { trials, cost }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_is_deterministic() {
        let a = run_fault_campaign(crate::defaults::SEED, 13, 2);
        let b = run_fault_campaign(crate::defaults::SEED, 13, 2);
        assert_eq!(a, b, "same seed ⇒ identical campaign");
    }

    #[test]
    fn campaign_meets_the_acceptance_bar() {
        // One full sweep of every expressible combination.
        let report = run_fault_campaign(crate::defaults::SEED, 13, 3);
        assert!(
            (report.detection_rate() - 1.0).abs() < f64::EPSILON,
            "detection must be 100%: {}",
            report.summary()
        );
        assert_eq!(report.false_positives(), 0, "{}", report.summary());
        assert!(report.no_silent_corruption(), "{}", report.summary());
        assert!(report.passed());
        // Every trial's fault actually fired.
        for t in report.trials.iter().filter(|t| t.spec.is_some()) {
            assert!(t.injections > 0, "vacuous trial: {:?}", t.spec);
        }
        // The sweep exercises all three recovery outcomes.
        assert!(report.refetch_recoveries() > 0, "{}", report.summary());
        assert!(report.reexecution_recoveries() > 0, "{}", report.summary());
        assert!(report.aborts() > 0, "{}", report.summary());
        assert!(report.max_recovery_cycles() > 0);
        assert!(report.summary().contains("PASS"));
    }
}
