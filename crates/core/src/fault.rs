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
//! The module also holds the power-loss side of the adversary: the
//! [`CrashClock`] that cuts power at any interruptible instant. The
//! seeded campaigns that sweep both live in the `seculator-campaigns`
//! crate.

use crate::mac_verify::EagerLayerVerifier;
use crate::secure_memory::{Block, UntrustedDram};

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
}
