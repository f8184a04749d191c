//! The crash campaign: seeded power cuts over every interruptible
//! instant of the campaign models, then a freshness-preserving resume
//! from the journal.
//!
//! [`run_crash_campaign`] cuts mid-tile, mid-MAC-update,
//! mid-journal-append and mid-resume, lets a seeded adversary act
//! across the outage ([`CrashVariant`]), and checks the acceptance bar:
//! resumed outputs bit-exact, zero pad reuse, torn tails discarded
//! benignly, tampered journals refused, and at most one layer of work
//! re-executed per crash.

use crate::{calibrate, verdict, Report};
use seculator_compute::quant::QTensor3;
use seculator_core::journal::RECORD_BYTES;
use seculator_core::secure_infer::Instruments;
use seculator_core::{
    campaign_models, infer_journaled, infer_plain, infer_resume, splitmix, BlockCoords,
    CampaignModel, CrashClock, DurableState, IncidentLog, IncidentRecord, JournalRecord,
    JournaledError, JournaledRun, LadderSummary, PadTracker, PowerLoss, RecoveryAction,
    RecoveryCost, SecurityError,
};

/// What the adversary does between the crash and the resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashVariant {
    /// Nothing: a pure power loss. Resume must be bit-exact and redo at
    /// most the interrupted layer.
    Pure,
    /// Tamper a committed tensor in (persistent, attacker-owned) DRAM
    /// while power is down. Resume must roll the commit back, never
    /// accept the stale/tampered ciphertext, and still finish bit-exact.
    TamperDram,
    /// Cut the power again during recovery. The second resume must still
    /// converge bit-exact (crash-during-recovery is in scope).
    DoubleCrash,
    /// Flip a bit inside a *sealed* journal record. Resume must refuse
    /// the journal outright ([`SecurityError::JournalIntegrity`]).
    JournalTamper,
}

/// One power cut and its verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashTrial {
    /// Model the cut was injected into.
    pub model: &'static str,
    /// Interruptible instant that was cut (0-based).
    pub cut: u64,
    /// Adversary behavior across the outage (after any degradation —
    /// e.g. a journal-tamper roll with an empty journal runs as `Pure`).
    pub variant: CrashVariant,
    /// Layer the loss struck.
    pub layer: u32,
    /// Pipeline phase the loss struck
    /// ([`CrashPhase::name`](seculator_core::CrashPhase::name)).
    pub phase: &'static str,
    /// Whether the trial met its acceptance condition.
    pub ok: bool,
    /// Human-readable verdict detail.
    pub detail: String,
}

/// Aggregate result of a crash campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashCampaignReport {
    /// Root seed the report derives from.
    pub seed: u64,
    /// Models swept.
    pub models: u32,
    /// Uninterrupted journaled runs matched `infer_plain` on every model.
    pub calibration_ok: bool,
    /// The pad-reuse oracle fired on a deliberate duplicate and stayed
    /// quiet across epochs (the detector detects).
    pub detector_ok: bool,
    /// Every cut, in injection order.
    pub trials: Vec<CrashTrial>,
    /// Counter/nonce reuses observed anywhere (must be 0).
    pub pad_reuses: u32,
    /// Tampered/stale committed ciphertext accepted at resume (must be 0).
    pub stale_accepts: u32,
    /// Recovery-ladder totals aggregated over every resumed run.
    pub ladder: LadderSummary,
}

impl Report for CrashCampaignReport {
    fn passed(&self) -> bool {
        self.calibration_ok
            && self.detector_ok
            && self.pad_reuses == 0
            && self.stale_accepts == 0
            && self.trials.iter().all(|t| t.ok)
    }

    fn summary(&self) -> String {
        let mut phases: Vec<&'static str> = self.trials.iter().map(|t| t.phase).collect();
        phases.sort_unstable();
        phases.dedup();
        let count = |v: CrashVariant| self.trials.iter().filter(|t| t.variant == v).count();
        let failures = self.trials.iter().filter(|t| !t.ok).count();
        let mut out = String::new();
        out.push_str(&format!(
            "crash campaign seed={}: {} cuts over {} models\n",
            self.seed,
            self.trials.len(),
            self.models
        ));
        out.push_str(&format!(
            "calibration: {}; pad-reuse detector self-test: {}\n",
            if self.calibration_ok { "ok" } else { "FAILED" },
            if self.detector_ok { "ok" } else { "FAILED" },
        ));
        out.push_str(&format!("phases cut: {}\n", phases.join(", ")));
        out.push_str(&format!(
            "variants: pure={} tamper-dram={} double-crash={} journal-tamper={}\n",
            count(CrashVariant::Pure),
            count(CrashVariant::TamperDram),
            count(CrashVariant::DoubleCrash),
            count(CrashVariant::JournalTamper),
        ));
        out.push_str(&format!(
            "pad reuses: {}; stale acceptances: {}; failures: {}\n",
            self.pad_reuses, self.stale_accepts, failures
        ));
        out.push_str(&format!("ladder: {}\n", self.ladder.to_json()));
        out.push_str(&format!("verdict: {}", verdict(self.passed())));
        out
    }
}

/// The detector must detect: a deliberate duplicate fires, a fresh epoch
/// does not (that is the whole point of epoch derivation).
fn detector_selftest() -> bool {
    let mut t = PadTracker::new();
    let c = BlockCoords {
        fmap_id: 0,
        layer_id: 0,
        version: 1,
        block_index: 0,
    };
    t.on_encrypt(0, c, 0).is_ok() && t.on_encrypt(0, c, 0).is_err() && t.on_encrypt(1, c, 0).is_ok()
}

/// Shared bookkeeping across one campaign.
struct CampaignState {
    incidents: IncidentLog,
    max_blocks: u64,
    pad_reuses: u32,
    stale_accepts: u32,
}

impl CampaignState {
    fn absorb(&mut self, run: &JournaledRun) {
        self.incidents
            .records
            .extend(run.incidents.records.iter().cloned());
        self.max_blocks = self.max_blocks.max(run.max_layer_blocks);
    }

    fn note_error(&mut self, err: &JournaledError) {
        if let JournaledError::Security(SecurityError::CounterReuse { .. }) = err {
            self.pad_reuses += 1;
        }
    }
}

/// Resumes `model` from `durable` after `loss`, ticking `clock` when
/// one is given; `tracker` carries every pad issued before the cut.
fn resume(
    model: &CampaignModel,
    durable: &mut DurableState,
    tracker: &mut PadTracker,
    clock: Option<&mut CrashClock>,
    loss: PowerLoss,
) -> Result<JournaledRun, JournaledError> {
    infer_resume(
        &model.layers,
        &model.input,
        &model.session,
        durable,
        &mut Instruments {
            tracker,
            injector: None,
            clock,
        },
        Some(loss),
    )
}

/// Runs one seeded power cut against one model.
#[allow(clippy::too_many_lines)]
fn run_trial(
    model: &CampaignModel,
    expected: &QTensor3,
    cut: u64,
    roll: u64,
    rng: &mut u64,
    state: &mut CampaignState,
) -> CrashTrial {
    let mut durable = DurableState::default();
    let mut tracker = PadTracker::new();
    let mut clock = CrashClock::armed(cut);
    let first = infer_journaled(
        &model.layers,
        &model.input,
        &model.session,
        &mut durable,
        &mut Instruments {
            tracker: &mut tracker,
            injector: None,
            clock: Some(&mut clock),
        },
    );
    let trial = |variant, layer, phase, ok, detail: String| CrashTrial {
        model: model.name,
        cut,
        variant,
        layer,
        phase,
        ok,
        detail,
    };

    let loss = match first {
        Err(JournaledError::Crashed(loss)) => loss,
        Ok(run) => {
            // The cut landed past the run's last instant (only possible
            // if calibration and this run diverged — flag it).
            let ok = run.output == *expected;
            state.absorb(&run);
            return trial(
                CrashVariant::Pure,
                0,
                "none",
                ok,
                "cut never fired".to_string(),
            );
        }
        Err(err) => {
            state.note_error(&err);
            return trial(
                CrashVariant::Pure,
                0,
                "none",
                false,
                format!("pre-crash failure: {err}"),
            );
        }
    };

    // Decide the adversary's move, degrading gracefully when the journal
    // has nothing to attack yet.
    let commits = durable
        .journal
        .replay(&model.session.secret, model.session.nonce)
        .map(|r| (r.records.len(), r.last_commit().copied()))
        .unwrap_or((0, None));
    let variant = match roll % 4 {
        1 if commits.1.is_some() => CrashVariant::TamperDram,
        2 => CrashVariant::DoubleCrash,
        3 if commits.0 > 0 => CrashVariant::JournalTamper,
        _ => CrashVariant::Pure,
    };

    match variant {
        CrashVariant::Pure => {
            let resumed = resume(model, &mut durable, &mut tracker, None, loss);
            match resumed {
                Ok(run) => {
                    let bitexact = run.output == *expected;
                    let bound = run.first_executed_layer == loss.layer;
                    state.absorb(&run);
                    let ok = bitexact && bound;
                    trial(
                        variant,
                        loss.layer,
                        loss.phase.name(),
                        ok,
                        format!(
                            "bit-exact={bitexact} resumed-at={} crashed-at={}",
                            run.first_executed_layer, loss.layer
                        ),
                    )
                }
                Err(err) => {
                    state.note_error(&err);
                    trial(
                        variant,
                        loss.layer,
                        loss.phase.name(),
                        false,
                        format!("resume failed: {err}"),
                    )
                }
            }
        }
        CrashVariant::TamperDram => {
            // Corrupt the newest committed tensor while power is down.
            let rec = commits
                .1
                .unwrap_or_else(|| JournalRecord::epoch_open(0, 0, 0));
            durable.dram.tamper_bit(rec.base_addr, 5, 3);
            let resumed = resume(model, &mut durable, &mut tracker, None, loss);
            match resumed {
                Ok(run) => {
                    let bitexact = run.output == *expected;
                    let rolled_back = run.incidents.rollbacks() > 0;
                    if !rolled_back {
                        // The tampered commit slipped through verification.
                        state.stale_accepts += 1;
                    }
                    state.absorb(&run);
                    trial(
                        variant,
                        loss.layer,
                        loss.phase.name(),
                        bitexact && rolled_back,
                        format!(
                            "bit-exact={bitexact} rollbacks={}",
                            run.incidents.rollbacks()
                        ),
                    )
                }
                Err(err) => {
                    state.note_error(&err);
                    trial(
                        variant,
                        loss.layer,
                        loss.phase.name(),
                        false,
                        format!("tampered resume failed: {err}"),
                    )
                }
            }
        }
        CrashVariant::DoubleCrash => {
            let cut2 = splitmix(rng) % cut.max(1);
            let mut clock2 = CrashClock::armed(cut2);
            let second = resume(model, &mut durable, &mut tracker, Some(&mut clock2), loss);
            let loss2 = match second {
                Ok(run) => {
                    // The second cut landed past the (shorter) resume.
                    let ok = run.output == *expected;
                    state.absorb(&run);
                    return trial(
                        variant,
                        loss.layer,
                        loss.phase.name(),
                        ok,
                        "second cut never fired".to_string(),
                    );
                }
                Err(JournaledError::Crashed(l2)) => {
                    // The crashed resume still *initiated* a resume; its
                    // audit record died with the run, so mirror it here —
                    // directly into `records` (like `absorb`), because
                    // the dying run's own `push` already counted it in
                    // the global telemetry. This keeps the printed
                    // ladder in lock-step with `--metrics` counters.
                    state.incidents.records.push(IncidentRecord {
                        layer_id: loss.layer,
                        attempt: 0,
                        action: RecoveryAction::Resume,
                        cause: SecurityError::PowerInterrupted {
                            layer_id: loss.layer,
                        },
                    });
                    l2
                }
                Err(err) => {
                    state.note_error(&err);
                    return trial(
                        variant,
                        loss.layer,
                        loss.phase.name(),
                        false,
                        format!("first resume failed: {err}"),
                    );
                }
            };
            let final_run = resume(model, &mut durable, &mut tracker, None, loss2);
            match final_run {
                Ok(run) => {
                    let bitexact = run.output == *expected;
                    let bound = run.first_executed_layer >= loss2.layer.min(loss.layer);
                    state.absorb(&run);
                    trial(
                        variant,
                        loss2.layer,
                        loss2.phase.name(),
                        bitexact && bound,
                        format!(
                            "bit-exact={bitexact} resumed-at={} second-crash-at={}",
                            run.first_executed_layer, loss2.layer
                        ),
                    )
                }
                Err(err) => {
                    state.note_error(&err);
                    trial(
                        variant,
                        loss2.layer,
                        loss2.phase.name(),
                        false,
                        format!("second resume failed: {err}"),
                    )
                }
            }
        }
        CrashVariant::JournalTamper => {
            let idx = (splitmix(rng) as usize) % (commits.0 * RECORD_BYTES);
            durable.journal.tamper_byte(idx);
            let resumed = resume(model, &mut durable, &mut tracker, None, loss);
            let refused = matches!(
                resumed,
                Err(JournaledError::Security(
                    SecurityError::JournalIntegrity { .. }
                ))
            );
            trial(
                variant,
                loss.layer,
                loss.phase.name(),
                refused,
                format!("journal byte {idx} flipped; refused={refused}"),
            )
        }
    }
}

/// Sweeps seeded power cuts over every interruptible instant of the
/// campaign models and checks the crash-consistency acceptance bar.
///
/// For each model the campaign first calibrates (an uninterrupted
/// journaled run must be bit-exact vs [`infer_plain`] — this also counts
/// the interruptible instants), then injects `cuts_per_model` seeded
/// cuts, each followed by a seeded adversary move ([`CrashVariant`]).
/// Identical arguments reproduce the report byte for byte.
#[must_use]
pub fn run_crash_campaign(seed: u64, cuts_per_model: u32) -> CrashCampaignReport {
    let mut rng = seed;
    let mut calibration_ok = true;
    let mut state = CampaignState {
        incidents: IncidentLog::new(),
        max_blocks: 0,
        pad_reuses: 0,
        stale_accepts: 0,
    };
    let mut trials = Vec::new();
    let models = campaign_models();

    for model in &models {
        let expected = infer_plain(&model.layers, &model.input, model.session.shift);
        // Calibration: count the interruptible instants and require the
        // uninterrupted journaled output to be bit-exact.
        match calibrate(model) {
            (Ok(run), steps) if run.output == expected && steps > 0 => {
                state.absorb(&run);
                for _ in 0..cuts_per_model {
                    let cut = splitmix(&mut rng) % steps;
                    let roll = splitmix(&mut rng);
                    trials.push(run_trial(model, &expected, cut, roll, &mut rng, &mut state));
                }
            }
            _ => calibration_ok = false,
        }
    }

    let ladder = state
        .incidents
        .ladder_summary(&RecoveryCost::default(), state.max_blocks);
    CrashCampaignReport {
        seed,
        models: models.len() as u32,
        calibration_ok,
        detector_ok: detector_selftest(),
        trials,
        pad_reuses: state.pad_reuses,
        stale_accepts: state.stale_accepts,
        ladder,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_campaign_sweeps_enough_cuts_over_enough_models() {
        let models = campaign_models();
        assert!(models.len() >= 3);
        assert!(u64::from(crate::defaults::CRASH_CUTS) * models.len() as u64 >= 200);
    }

    #[test]
    fn tiny_campaign_passes_and_is_deterministic() {
        let a = run_crash_campaign(7, 3);
        let b = run_crash_campaign(7, 3);
        assert!(a.passed(), "{}", a.summary());
        assert_eq!(a, b, "same seed must reproduce byte-identically");
        assert_eq!(a.summary(), b.summary());
        assert_eq!(a.trials.len(), 9);
        assert!(a.ladder.resumes > 0, "resumed runs feed the ladder summary");
        let other = run_crash_campaign(8, 3);
        assert!(other.passed(), "{}", other.summary());
        assert_ne!(
            a.trials, other.trials,
            "different seeds must pick different cuts"
        );
    }

    #[test]
    fn pad_reuse_detector_selftest_detects() {
        assert!(detector_selftest());
    }
}
