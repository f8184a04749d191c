//! Adversarial fault injection against the secure inference pipeline.
//!
//! The paper's threat model (§3) gives the attacker full control of
//! off-chip DRAM, yet the rest of the codebase only ever drives
//! [`UntrustedDram`]'s adversary API from hand-written tests. This module
//! turns the adversary into a first-class, *seeded* component that
//! interposes between the crypto datapath and DRAM, so the
//! detect-and-recover driver ([`crate::secure_infer::infer_journaled`])
//! can be attacked systematically.
//!
//! # Fault taxonomy
//!
//! Five [`FaultKind`]s × three [`Persistence`] classes:
//!
//! | kind                    | what it corrupts                           |
//! |-------------------------|--------------------------------------------|
//! | `BitFlip`               | one bit of one ciphertext block            |
//! | `StaleReplay`           | serves/restores a stale-VN ciphertext      |
//! | `BlockSwap`             | relocates a block to a sibling address     |
//! | `DroppedWrite`          | a store silently never reaches DRAM        |
//! | `MacRegisterCorruption` | glitches the on-chip `MAC_W` register      |
//!
//! - [`Persistence::TransientRead`] corrupts the value *returned by a
//!   load* (a glitched bus/row), leaving DRAM intact — one re-fetch
//!   recovers.
//! - [`Persistence::Persistent`] corrupts the *stored* ciphertext (or the
//!   register) once, on the first execution attempt — re-fetching returns
//!   the same bad data, but re-executing the layer under a fresh VN base
//!   recovers.
//! - [`Persistence::Relentless`] re-applies the corruption on every
//!   attempt — recovery is impossible and the engine must abort
//!   gracefully with an audit record.
//!
//! # Campaign runner
//!
//! [`run_campaign`] sweeps fault kinds × persistence × injection points
//! on a fixed small network, fully deterministically from a seed, and
//! reports detection rate (must be 1.0), false-positive rate on clean
//! runs (must be 0.0), recovery outcomes, and recovery-latency
//! statistics via [`crate::detection::RecoveryCost`]. The CLI exposes it
//! as `seculator fault-campaign --seed N --faults K`.

use crate::audit::IncidentLog;
use crate::detection::RecoveryCost;
use crate::journal::{DurableState, PadTracker};
use crate::mac_verify::EagerLayerVerifier;
use crate::secure_infer::{
    infer_journaled, infer_plain, Instruments, JournaledError, QConvLayer, RecoveryPolicy,
    SecureSession,
};
use crate::secure_memory::{Block, UntrustedDram};
use seculator_compute::quant::{QTensor3, QTensor4};
use seculator_crypto::keys::DeviceSecret;

/// What the adversary corrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Flip one bit of one ciphertext block.
    BitFlip,
    /// Replay a stale (previous-version) ciphertext over a fresh one.
    StaleReplay,
    /// Relocate a block: its ciphertext is served/stored at a sibling
    /// block's address.
    BlockSwap,
    /// A store is silently dropped; the old ciphertext stays in DRAM.
    DroppedWrite,
    /// Glitch the on-chip `MAC_W` aggregation register.
    MacRegisterCorruption,
}

impl FaultKind {
    /// All fault kinds.
    pub const ALL: [Self; 5] = [
        Self::BitFlip,
        Self::StaleReplay,
        Self::BlockSwap,
        Self::DroppedWrite,
        Self::MacRegisterCorruption,
    ];

    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::BitFlip => "bit-flip",
            Self::StaleReplay => "stale-replay",
            Self::BlockSwap => "block-swap",
            Self::DroppedWrite => "dropped-write",
            Self::MacRegisterCorruption => "mac-register",
        }
    }
}

/// How long the corruption lasts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Persistence {
    /// Corrupts one load's return value only; DRAM keeps the good
    /// ciphertext, so a re-fetch recovers.
    TransientRead,
    /// Corrupts the stored state once (first execution attempt); layer
    /// re-execution under a fresh VN base recovers.
    Persistent,
    /// Re-applies the corruption on every attempt; the engine must
    /// abort.
    Relentless,
}

impl Persistence {
    /// All persistence classes.
    pub const ALL: [Self; 3] = [Self::TransientRead, Self::Persistent, Self::Relentless];

    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::TransientRead => "transient",
            Self::Persistent => "persistent",
            Self::Relentless => "relentless",
        }
    }
}

/// One configured fault: what, how long, and where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// The corruption to apply.
    pub kind: FaultKind,
    /// Its lifetime.
    pub persistence: Persistence,
    /// Target layer.
    pub layer: u32,
    /// Target block (taken modulo the tensor's block count at injection
    /// time, so any value is a valid injection point).
    pub block: u64,
}

impl FaultSpec {
    /// Whether the (kind, persistence) pair is physically expressible.
    /// A dropped write and a register glitch have no "transient read"
    /// form — neither happens on the load path.
    #[must_use]
    pub fn is_expressible(&self) -> bool {
        !(matches!(
            self.kind,
            FaultKind::DroppedWrite | FaultKind::MacRegisterCorruption
        ) && self.persistence == Persistence::TransientRead)
    }
}

impl std::fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {} @ layer {} block {}",
            self.persistence.name(),
            self.kind.name(),
            self.layer,
            self.block
        )
    }
}

/// Context of one DRAM access, used by the injector for targeting. The
/// driver fills this in for every interposed store/load.
#[derive(Debug, Clone, Copy)]
pub struct AccessCtx {
    /// Layer performing the access.
    pub layer: u32,
    /// Block index within the tensor.
    pub block: u64,
    /// Total blocks in the tensor (targets are taken modulo this).
    pub blocks: u64,
    /// Base address of the tensor's region.
    pub base: u64,
    /// True for the final-version (consumer-visible) tensor pass.
    pub final_version: bool,
    /// Execution attempt of the layer (0 = first).
    pub attempt: u32,
}

#[derive(Debug, Clone)]
struct ArmedFault {
    spec: FaultSpec,
    /// Loads left to corrupt for transient faults.
    transient_budget: u32,
    /// Stale ciphertext captured for replay faults.
    stale: Option<Block>,
}

/// Seeded adversary interposed between [`crate::secure_memory::CryptoDatapath`]
/// and [`UntrustedDram`]. All randomness (bit positions, corruption
/// masks) derives from the seed, so campaigns replay exactly.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    faults: Vec<ArmedFault>,
    state: u64,
    injections: u64,
}

/// One step of the splitmix64 stream: advances `state` and returns the
/// next draw. The campaigns, the scheduler and the wire daemon all draw
/// their seeded choices (fault bits, cut instants, tenant nonces, wire
/// challenges) from this one function, so a seed reads the same
/// everywhere.
#[must_use]
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultInjector {
    /// Arms the injector with `faults`, seeding its corruption choices.
    #[must_use]
    pub fn new(seed: u64, faults: Vec<FaultSpec>) -> Self {
        Self {
            faults: faults
                .into_iter()
                .map(|spec| ArmedFault {
                    spec,
                    transient_budget: 1,
                    stale: None,
                })
                .collect(),
            state: seed ^ 0x5EC0_1A70_FA01_7BAD,
            injections: 0,
        }
    }

    /// Number of corruptions actually applied so far. A campaign trial
    /// with zero injections is vacuous and must not count as "detected".
    #[must_use]
    pub fn injections(&self) -> u64 {
        self.injections
    }

    fn matches(spec: &FaultSpec, ctx: &AccessCtx) -> bool {
        spec.layer == ctx.layer && spec.block % ctx.blocks.max(1) == ctx.block
    }

    /// Interposes a ciphertext store. Returns `false` when the write was
    /// dropped (the caller must *not* fall back to storing it — that is
    /// the fault). Also captures stale snapshots for replay faults: the
    /// ciphertext being overwritten by a final-version store is exactly
    /// the stale (partial-version) data a replay attacker would keep.
    pub fn store(
        &mut self,
        dram: &mut UntrustedDram,
        addr: u64,
        ciphertext: Block,
        ctx: &AccessCtx,
    ) -> bool {
        let mut dropped = false;
        for f in &mut self.faults {
            if !Self::matches(&f.spec, ctx) || !ctx.final_version {
                continue;
            }
            match f.spec.kind {
                FaultKind::DroppedWrite => {
                    let fire = match f.spec.persistence {
                        Persistence::TransientRead => false,
                        Persistence::Persistent => ctx.attempt == 0,
                        Persistence::Relentless => true,
                    };
                    if fire {
                        dropped = true;
                    }
                }
                FaultKind::StaleReplay => {
                    f.stale = Some(dram.load(addr));
                }
                _ => {}
            }
        }
        if dropped {
            self.injections += 1;
            return false;
        }
        dram.store(addr, ciphertext);
        true
    }

    /// Interposes a ciphertext load. Transient faults corrupt the
    /// *returned* value only — DRAM keeps the good data, so the next
    /// fetch of the same address is clean.
    pub fn load(&mut self, dram: &UntrustedDram, addr: u64, ctx: &AccessCtx) -> Block {
        let mut block = dram.load(addr);
        for i in 0..self.faults.len() {
            let spec = self.faults[i].spec;
            if spec.persistence != Persistence::TransientRead
                || self.faults[i].transient_budget == 0
                || !ctx.final_version
                || !Self::matches(&spec, ctx)
            {
                continue;
            }
            match spec.kind {
                FaultKind::BitFlip => {
                    let r = splitmix(&mut self.state);
                    block[(r % 64) as usize] ^= 1 << ((r >> 8) % 8);
                }
                FaultKind::StaleReplay => match self.faults[i].stale {
                    Some(stale) => block = stale,
                    // No snapshot captured yet — degrade to a bit flip so
                    // the fault still manifests.
                    None => block[0] ^= 1,
                },
                FaultKind::BlockSwap => {
                    let partner = (ctx.block + 1) % ctx.blocks.max(1);
                    block = dram.load(ctx.base + partner * 64);
                }
                FaultKind::DroppedWrite | FaultKind::MacRegisterCorruption => continue,
            }
            self.faults[i].transient_budget -= 1;
            self.injections += 1;
        }
        block
    }

    /// Applies persistent/relentless faults after a layer's final-version
    /// writes have landed: corrupts the stored ciphertext in DRAM, or the
    /// layer's on-chip `MAC_W` register for
    /// [`FaultKind::MacRegisterCorruption`].
    pub fn tamper_stored(
        &mut self,
        dram: &mut UntrustedDram,
        layer: u32,
        attempt: u32,
        base: u64,
        blocks: u64,
        verifier: &mut EagerLayerVerifier,
    ) {
        for i in 0..self.faults.len() {
            let spec = self.faults[i].spec;
            if spec.layer != layer {
                continue;
            }
            let fire = match spec.persistence {
                Persistence::TransientRead => false,
                Persistence::Persistent => attempt == 0,
                Persistence::Relentless => true,
            };
            if !fire {
                continue;
            }
            let tb = spec.block % blocks.max(1);
            let addr = base + tb * 64;
            match spec.kind {
                FaultKind::BitFlip => {
                    let r = splitmix(&mut self.state);
                    dram.tamper_bit(addr, (r % 64) as usize, ((r >> 8) % 8) as u8);
                }
                FaultKind::StaleReplay => match self.faults[i].stale {
                    Some(stale) => dram.replay(addr, stale),
                    None => dram.tamper_bit(addr, 0, 0),
                },
                FaultKind::BlockSwap => {
                    if blocks >= 2 {
                        dram.swap(addr, base + ((tb + 1) % blocks) * 64);
                    } else {
                        dram.tamper_bit(addr, 0, 0);
                    }
                }
                // Store-time fault; nothing to do here.
                FaultKind::DroppedWrite => continue,
                FaultKind::MacRegisterCorruption => {
                    let r = splitmix(&mut self.state);
                    let mut mask = [0u8; 32];
                    mask[(r % 32) as usize] = ((r >> 16) as u8) | 1;
                    verifier.corrupt_mac_w(&mask);
                }
            }
            self.injections += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Power-loss injection
// ---------------------------------------------------------------------------

/// Execution phase during which power can be cut. The journaled driver
/// ([`crate::secure_infer::infer_journaled`]) ticks the [`CrashClock`]
/// once per unit of forward progress in each phase, so a cut point
/// addresses *any* interruptible instant: mid-tile, mid-MAC-update,
/// mid-journal-append, or mid-resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPhase {
    /// MAC-accumulating a tile's arithmetic into the partial sums.
    Compute,
    /// Evicting an encrypted partial-version ofmap block.
    PartialEvict,
    /// Reading a partial-version block back for further accumulation.
    ReadBack,
    /// Evicting a final-version (consumer-visible) ofmap block.
    FinalEvict,
    /// The consumer layer's first-read pass over this layer's output.
    Consume,
    /// Appending one chunk of a layer-commit journal record.
    JournalAppend,
    /// Re-verifying a journaled commit during crash recovery (a crash
    /// here is a crash *during recovery*).
    ResumeVerify,
    /// Persisting committed state to durable storage (snapshot write,
    /// journal-file append, ledger checkpoint). A cut here leaves a torn
    /// file tail or a stale-but-atomic snapshot on disk.
    Checkpoint,
}

impl CrashPhase {
    /// All phases.
    pub const ALL: [Self; 8] = [
        Self::Compute,
        Self::PartialEvict,
        Self::ReadBack,
        Self::FinalEvict,
        Self::Consume,
        Self::JournalAppend,
        Self::ResumeVerify,
        Self::Checkpoint,
    ];

    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Compute => "compute",
            Self::PartialEvict => "partial-evict",
            Self::ReadBack => "read-back",
            Self::FinalEvict => "final-evict",
            Self::Consume => "consume",
            Self::JournalAppend => "journal-append",
            Self::ResumeVerify => "resume-verify",
            Self::Checkpoint => "checkpoint",
        }
    }
}

/// A power cut, reported by the [`CrashClock`] at the instant it fires.
/// Unlike the corruption faults above, a power loss is not adversarial
/// data tampering — it tears volatile state (MAC registers, VN-FSM,
/// unwritten journal bytes) and the recovery path must rebuild a safe
/// state from the journal alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowerLoss {
    /// Layer that was executing when power was cut.
    pub layer: u32,
    /// What the datapath was doing at that instant.
    pub phase: CrashPhase,
    /// Global step index at which the cut fired.
    pub step: u64,
}

impl std::fmt::Display for PowerLoss {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "power loss at step {} (layer {}, {})",
            self.step,
            self.layer,
            self.phase.name()
        )
    }
}

/// Deterministic power-cut driver. One `tick` = one unit of forward
/// progress. Two modes:
///
/// - **Counting** ([`CrashClock::counting`]): never fires; after a full
///   uninterrupted run, [`CrashClock::steps`] is the total number of
///   interruptible instants `S` — the campaign's cut-point space.
/// - **Armed** ([`CrashClock::armed`]): fires [`PowerLoss`] exactly when
///   the step counter reaches the chosen cut, simulating the instant the
///   capacitors drain.
///
/// Because the driver threads *every* stateful operation through the
/// clock (including individual journal-append chunks), an armed clock
/// can cut execution anywhere — which is what makes torn journal
/// records reachable by the campaign rather than only by hand-crafted
/// tests.
#[derive(Debug, Clone)]
pub struct CrashClock {
    step: u64,
    cut: Option<u64>,
}

impl CrashClock {
    /// A clock that only counts steps (calibration pass).
    #[must_use]
    pub fn counting() -> Self {
        Self { step: 0, cut: None }
    }

    /// A clock that cuts power at step `cut` (0-based).
    #[must_use]
    pub fn armed(cut: u64) -> Self {
        Self {
            step: 0,
            cut: Some(cut),
        }
    }

    /// Steps elapsed so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Advances one step.
    ///
    /// # Errors
    ///
    /// Returns the [`PowerLoss`] when an armed clock reaches its cut
    /// point; the caller must stop all work immediately (volatile state
    /// is gone).
    pub fn tick(&mut self, layer: u32, phase: CrashPhase) -> Result<(), PowerLoss> {
        let now = self.step;
        self.step += 1;
        match self.cut {
            Some(cut) if now == cut => Err(PowerLoss {
                layer,
                phase,
                step: now,
            }),
            _ => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic fault campaign
// ---------------------------------------------------------------------------

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

/// Campaign parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Seed for fault placement and corruption choices.
    pub seed: u64,
    /// Number of faulty trials (one injected fault each).
    pub faults: u32,
    /// Number of fault-free trials (false-positive measurement).
    pub clean_trials: u32,
    /// Recovery policy handed to the driver.
    pub policy: RecoveryPolicy,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            faults: 26,
            clean_trials: 8,
            policy: RecoveryPolicy::default(),
        }
    }
}

/// Outcome of one campaign trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialResult {
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
pub struct CampaignReport {
    /// All trials, faulty first, then clean controls.
    pub trials: Vec<TrialResult>,
    /// The recovery-latency model used.
    pub cost: RecoveryCost,
}

impl CampaignReport {
    /// Faulty trials where the injector actually fired.
    fn injected(&self) -> impl Iterator<Item = &TrialResult> {
        self.trials
            .iter()
            .filter(|t| t.spec.is_some() && t.injections > 0)
    }

    /// Clean control trials.
    fn clean(&self) -> impl Iterator<Item = &TrialResult> {
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

    /// True when the campaign meets the acceptance bar: every injected
    /// fault detected, no false positives, no wrong output released.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.detection_rate() >= 1.0 && self.false_positives() == 0 && self.no_silent_corruption()
    }

    /// Human-readable multi-line summary (what the CLI prints).
    #[must_use]
    pub fn summary(&self) -> String {
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
        out.push_str(&format!(
            "verdict             : {}",
            if self.passed() { "PASS" } else { "FAIL" }
        ));
        out
    }
}

/// Runs a deterministic fault campaign: `cfg.faults` single-fault trials
/// sweeping every expressible (kind × persistence) combination across
/// layers, plus `cfg.clean_trials` fault-free controls.
///
/// Determinism: identical `cfg` ⇒ identical report, bit for bit.
#[must_use]
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
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

    let mut state = cfg.seed;
    let mut trials = Vec::with_capacity((cfg.faults + cfg.clean_trials) as usize);
    // Fault trials first, then the clean controls.
    for t in 0..cfg.faults + cfg.clean_trials {
        let (spec, nonce) = if t < cfg.faults {
            let (kind, persistence) = combos[t as usize % combos.len()];
            let spec = FaultSpec {
                kind,
                persistence,
                layer: (splitmix(&mut state) % layers.len() as u64) as u32,
                block: splitmix(&mut state) % 64,
            };
            (Some(spec), 0x1000 + u64::from(t))
        } else {
            (None, 0x9000 + u64::from(t - cfg.faults))
        };
        let mut injector = spec.map(|spec| FaultInjector::new(splitmix(&mut state), vec![spec]));
        let session = SecureSession {
            secret,
            nonce,
            shift: CAMPAIGN_SHIFT,
            policy: cfg.policy,
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
        trials.push(TrialResult {
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

    CampaignReport { trials, cost }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inexpressible_combinations_are_rejected() {
        for kind in [FaultKind::DroppedWrite, FaultKind::MacRegisterCorruption] {
            let spec = FaultSpec {
                kind,
                persistence: Persistence::TransientRead,
                layer: 0,
                block: 0,
            };
            assert!(!spec.is_expressible());
        }
        let ok = FaultSpec {
            kind: FaultKind::BitFlip,
            persistence: Persistence::TransientRead,
            layer: 0,
            block: 0,
        };
        assert!(ok.is_expressible());
    }

    #[test]
    fn injector_is_deterministic() {
        let spec = FaultSpec {
            kind: FaultKind::BitFlip,
            persistence: Persistence::TransientRead,
            layer: 0,
            block: 3,
        };
        let ctx = AccessCtx {
            layer: 0,
            block: 3,
            blocks: 8,
            base: 0,
            final_version: true,
            attempt: 0,
        };
        let dram = UntrustedDram::new();
        let mut a = FaultInjector::new(7, vec![spec]);
        let mut b = FaultInjector::new(7, vec![spec]);
        assert_eq!(a.load(&dram, 3 * 64, &ctx), b.load(&dram, 3 * 64, &ctx));
        assert_eq!(a.injections(), 1);
        // Budget spent: the next load of the same block is clean.
        assert_eq!(a.load(&dram, 3 * 64, &ctx), [0u8; 64]);
    }

    #[test]
    fn dropped_write_skips_the_store() {
        let spec = FaultSpec {
            kind: FaultKind::DroppedWrite,
            persistence: Persistence::Persistent,
            layer: 1,
            block: 0,
        };
        let mut dram = UntrustedDram::new();
        let mut inj = FaultInjector::new(1, vec![spec]);
        let ctx = AccessCtx {
            layer: 1,
            block: 0,
            blocks: 4,
            base: 0x100,
            final_version: true,
            attempt: 0,
        };
        assert!(!inj.store(&mut dram, 0x100, [7u8; 64], &ctx));
        assert_eq!(dram.load(0x100), [0u8; 64], "write must not land");
        // Attempt 1 (re-execution): persistent faults no longer fire.
        let ctx1 = AccessCtx { attempt: 1, ..ctx };
        assert!(inj.store(&mut dram, 0x100, [8u8; 64], &ctx1));
        assert_eq!(dram.load(0x100), [8u8; 64]);
    }

    #[test]
    fn crash_clock_counts_without_firing() {
        let mut clock = CrashClock::counting();
        for i in 0..1000u64 {
            assert!(clock.tick(0, CrashPhase::Compute).is_ok(), "step {i}");
        }
        assert_eq!(clock.steps(), 1000);
    }

    #[test]
    fn armed_clock_fires_exactly_once_at_the_cut() {
        let mut clock = CrashClock::armed(3);
        assert!(clock.tick(0, CrashPhase::Compute).is_ok());
        assert!(clock.tick(0, CrashPhase::PartialEvict).is_ok());
        assert!(clock.tick(1, CrashPhase::ReadBack).is_ok());
        let loss = clock
            .tick(2, CrashPhase::JournalAppend)
            .expect_err("cut must fire at step 3");
        assert_eq!(
            loss,
            PowerLoss {
                layer: 2,
                phase: CrashPhase::JournalAppend,
                step: 3
            }
        );
        let shown = loss.to_string();
        assert!(
            shown.contains("step 3") && shown.contains("journal-append"),
            "{shown}"
        );
        // A real driver halts on the cut; if ticked anyway, the clock
        // does not fire again (the single cut point has passed).
        assert!(clock.tick(2, CrashPhase::JournalAppend).is_ok());
    }

    #[test]
    fn crash_phase_names_are_distinct() {
        let mut names: Vec<&str> = CrashPhase::ALL.iter().map(CrashPhase::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CrashPhase::ALL.len());
    }

    #[test]
    fn campaign_is_deterministic() {
        let cfg = CampaignConfig {
            faults: 13,
            clean_trials: 2,
            ..Default::default()
        };
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        assert_eq!(a, b, "same seed ⇒ identical campaign");
    }

    #[test]
    fn classic_retry_policy_ladder_is_bit_identical_to_the_old_constants() {
        // The ladder bounds moved from hard-coded constants into
        // `core::retry`. The extraction must be behavior-preserving: a
        // campaign under the old literal values and one under
        // `RetryPolicy::classic().ladder` must produce byte-identical
        // reports on existing seeds.
        for seed in [42u64, 13] {
            let old = run_campaign(&CampaignConfig {
                seed,
                faults: 11,
                clean_trials: 2,
                policy: RecoveryPolicy {
                    max_refetches: 2,
                    max_reexecutions: 2,
                },
            });
            let extracted = run_campaign(&CampaignConfig {
                seed,
                faults: 11,
                clean_trials: 2,
                policy: crate::retry::RetryPolicy::classic().ladder,
            });
            assert_eq!(
                old, extracted,
                "seed {seed}: the extracted default ladder diverged from the old constants"
            );
            assert_eq!(old.summary(), extracted.summary());
        }
    }

    #[test]
    fn campaign_meets_the_acceptance_bar() {
        // One full sweep of every expressible combination.
        let cfg = CampaignConfig {
            faults: 13,
            clean_trials: 3,
            ..Default::default()
        };
        let report = run_campaign(&cfg);
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
