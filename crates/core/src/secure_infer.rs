//! Verified end-to-end inference: real int8 arithmetic on the compute
//! substrate, with every inter-layer tensor crossing adversary-controlled
//! DRAM under Seculator's protections (AES-CTR + layer-level XOR-MACs +
//! generated VNs).
//!
//! The headline property, tested below: the protected pipeline produces
//! **bit-identical** results to an unprotected run of the same network,
//! and any tampering with the encrypted tensors in flight is detected
//! eagerly, at the producing layer's own boundary, before the tensor
//! feeds the next layer. Every protected run steps one journaled cursor
//! a layer at a time; [`infer_journaled`] and [`infer_resume`] are its
//! single-tenant drivers.
//!
//! Layer outputs move at layer granularity here (one "tile" per layer),
//! which keeps the arithmetic honest while the tile-granular version of
//! the security machinery — including the paper's deferred check, which
//! closes a layer's equation only once the next layer has consumed it —
//! is exercised by [`crate::functional`].

use crate::audit::{IncidentLog, IncidentRecord, RecoveryAction};
use crate::error::SecurityError;
use crate::fault::{AccessCtx, CrashClock, CrashPhase, FaultInjector, PowerLoss};
use crate::journal::{DurableState, JournalRecord, JournalRecordKind, PadTracker};
use crate::mac_verify::EagerLayerVerifier;
use crate::retry::{MAX_REEXECUTIONS, MAX_REFETCHES};
use crate::secure_memory::{Block, BlockCoords, CryptoDatapath, UntrustedDram};
use crate::telemetry::{self, LayerRow};
use seculator_compute::quant::{qconv2d, qconv2d_grouped, QAccum3, QTensor3, QTensor4};
use seculator_crypto::keys::DeviceSecret;

/// One convolution layer of a quantized network.
#[derive(Debug, Clone)]
pub struct QConvLayer {
    /// Filter bank (`k × c × r × s`).
    pub weights: QTensor4,
    /// Convolution stride.
    pub stride: usize,
    /// Channel-group accumulation order, mimicking a tiled dataflow
    /// (must partition `0..c`; see [`qconv2d_grouped`]).
    pub channel_groups: Vec<std::ops::Range<usize>>,
}

impl QConvLayer {
    /// A layer with a single channel group (untiled accumulation).
    #[must_use]
    pub fn simple(weights: QTensor4, stride: usize) -> Self {
        let c = weights.c;
        // One group spanning every input channel (a Vec *of* one Range,
        // not the range's elements — hence no `vec![..]` sugar).
        Self {
            weights,
            stride,
            channel_groups: std::iter::once(0..c).collect(),
        }
    }

    /// A fully-connected layer expressed as a 1×1 convolution over a
    /// 1×1 spatial map (`out × in` weights) — how MLP / transformer
    /// projection layers run on the same protected pipeline.
    #[must_use]
    pub fn fully_connected(weights: QTensor4) -> Self {
        debug_assert_eq!((weights.r, weights.s), (1, 1), "FC weights are 1x1 filters");
        Self::simple(weights, 1)
    }
}

/// Serializes an int32 accumulator tensor into 64-byte blocks (16
/// little-endian `i32` values per block, the last block zero-padded).
fn accum_to_blocks(t: &QAccum3) -> Vec<Block> {
    t.as_slice()
        .chunks(16)
        .map(|values| {
            let mut block = [0u8; 64];
            for (bytes, v) in block.chunks_exact_mut(4).zip(values) {
                bytes.copy_from_slice(&v.to_le_bytes());
            }
            block
        })
        .collect()
}

/// Reconstructs a `k × h × w` accumulator tensor from blocks; values
/// the blocks do not reach are zero.
fn blocks_to_accum(blocks: &[Block], k: usize, h: usize, w: usize) -> QAccum3 {
    let mut values: Vec<i32> = blocks
        .iter()
        .flat_map(|b| b.chunks_exact(4))
        .map(|v| i32::from_le_bytes([v[0], v[1], v[2], v[3]]))
        .take(k * h * w)
        .collect();
    values.resize(k * h * w, 0);
    QAccum3::from_vec(k, h, w, values)
}

/// Coordinates of every block of one tile at a fixed `(fmap, layer, VN)`
/// — the unit [`CryptoDatapath::seal_blocks`] / `open_blocks` fan out
/// over.
fn tile_coords(fmap_id: u32, layer_id: u32, version: u32, blocks: usize) -> Vec<BlockCoords> {
    (0..blocks)
        .map(|i| BlockCoords {
            fmap_id,
            layer_id,
            version,
            block_index: i as u32,
        })
        .collect()
}

/// Requantizes an accumulator to int8 activations with a fixed
/// right-shift (a simple power-of-two requantization).
fn requantize_shift(t: &QAccum3, shift: u32) -> QTensor3 {
    let values = t
        .as_slice()
        .iter()
        .map(|&v| (v >> shift).clamp(-128, 127) as i8)
        .collect();
    QTensor3::from_vec(t.k, t.h, t.w, 1.0, values)
}

/// Unprotected reference inference (plain compute, no DRAM transit).
///
/// # Examples
///
/// ```
/// use seculator_core::journal::{DurableState, PadTracker};
/// use seculator_core::secure_infer::{
///     infer_journaled, infer_plain, Instruments, QConvLayer, SecureSession,
/// };
/// use seculator_compute::quant::{QTensor3, QTensor4};
/// use seculator_crypto::DeviceSecret;
///
/// let layers = vec![QConvLayer::simple(QTensor4::seeded(4, 2, 3, 3, 1), 1)];
/// let input = QTensor3::seeded(2, 8, 8, 2);
/// let plain = infer_plain(&layers, &input, 6);
/// let session = SecureSession {
///     secret: DeviceSecret::from_seed(3),
///     nonce: 1,
///     shift: 6,
/// };
/// let secured = infer_journaled(
///     &layers,
///     &input,
///     &session,
///     &mut DurableState::default(),
///     &mut Instruments {
///         tracker: &mut PadTracker::new(),
///         injector: None,
///         clock: None,
///     },
/// )?;
/// assert_eq!(plain, secured.output, "protection is transparent to the arithmetic");
/// # Ok::<(), seculator_core::secure_infer::JournaledError>(())
/// ```
#[must_use]
pub fn infer_plain(layers: &[QConvLayer], input: &QTensor3, shift: u32) -> QTensor3 {
    let mut activ = input.clone();
    for layer in layers {
        let acc = qconv2d(&activ, &layer.weights, layer.stride);
        activ = requantize_shift(&acc, shift);
    }
    activ
}

// ---------------------------------------------------------------------------
// Detect-and-recover inference
// ---------------------------------------------------------------------------

/// A gracefully-aborted journaled inference: recovery was exhausted, no
/// output was released, and the full audit record explains why.
#[derive(Debug, Clone, PartialEq)]
pub struct AbortReport {
    /// The terminal error (always [`SecurityError::RecoveryExhausted`]).
    pub error: SecurityError,
    /// Every detection + recovery action up to and including the abort.
    pub incidents: IncidentLog,
    /// Largest per-layer tensor in blocks, for latency accounting.
    pub max_layer_blocks: u64,
}

impl std::fmt::Display for AbortReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}\naudit trail:\n{}",
            self.error,
            self.incidents.summary()
        )
    }
}

impl std::error::Error for AbortReport {}

/// Stores through the injector when one is armed, directly otherwise.
/// Returns `false` when the adversary dropped the write.
fn store_via(
    injector: &mut Option<&mut FaultInjector>,
    dram: &mut UntrustedDram,
    addr: u64,
    ciphertext: Block,
    ctx: &AccessCtx,
) -> bool {
    match injector {
        Some(inj) => inj.store(dram, addr, ciphertext, ctx),
        None => {
            dram.store(addr, ciphertext);
            true
        }
    }
}

/// Loads through the injector when one is armed, directly otherwise.
fn load_via(
    injector: &mut Option<&mut FaultInjector>,
    dram: &UntrustedDram,
    addr: u64,
    ctx: &AccessCtx,
) -> Block {
    match injector {
        Some(inj) => inj.load(dram, addr, ctx),
        None => dram.load(addr),
    }
}

// ---------------------------------------------------------------------------
// Crash-consistent (journaled) inference
// ---------------------------------------------------------------------------

/// Everything that identifies one secure execution: the device secret,
/// the per-execution nonce, and the requantization shift. Bundled so the
/// journaled drivers stay call-site friendly.
#[derive(Debug, Clone, Copy)]
pub struct SecureSession {
    /// Burned-in device secret.
    pub secret: DeviceSecret,
    /// Per-execution nonce (binds the journal to this execution).
    pub nonce: u64,
    /// Requantization right-shift.
    pub shift: u32,
}

/// Harness instrumentation threaded through a journaled run: the pad
/// reuse oracle (mandatory — it *is* the datapath-level detector), the
/// DRAM adversary, and the power-cut clock (both optional).
#[derive(Debug)]
pub struct Instruments<'a> {
    /// Observes every encryption; fails closed on (epoch, counter) reuse.
    pub tracker: &'a mut PadTracker,
    /// Seeded DRAM adversary, or `None` for an honest memory.
    pub injector: Option<&'a mut FaultInjector>,
    /// Power-cut driver, or `None` for uninterrupted execution.
    pub clock: Option<&'a mut CrashClock>,
}

/// A completed journaled inference.
#[derive(Debug, Clone, PartialEq)]
pub struct JournaledRun {
    /// Verified network output.
    pub output: QTensor3,
    /// Audit trail, stitched across any crash this run resumed from.
    pub incidents: IncidentLog,
    /// Largest per-layer tensor in blocks (latency accounting).
    pub max_layer_blocks: u64,
    /// Nonce epoch this run encrypted under.
    pub epoch: u32,
    /// First layer this run actually executed (0 for a fresh run; the
    /// crash-consistency bound says this is ≥ the interrupted layer).
    pub first_executed_layer: u32,
    /// Layer-commit records this run appended.
    pub commits: u32,
    /// Stage times of every layer step this run executed, one row per
    /// step in execution order (all zero when telemetry is off).
    pub layer_rows: Vec<LayerRow>,
}

/// Why a journaled inference did not return an output.
#[derive(Debug, Clone, PartialEq)]
pub enum JournaledError {
    /// Power was cut. Volatile state is gone; the durable state (DRAM +
    /// journal) is intact and [`infer_resume`] can continue from it.
    Crashed(PowerLoss),
    /// The recovery ladder was exhausted (graceful abort, audit
    /// attached).
    Aborted(Box<AbortReport>),
    /// Fail-closed security stop: tampered journal, counter reuse.
    Security(SecurityError),
}

impl std::fmt::Display for JournaledError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Crashed(loss) => write!(f, "{loss}"),
            Self::Aborted(report) => write!(f, "{report}"),
            Self::Security(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for JournaledError {}

/// Ticks the optional crash clock; a fired cut propagates as the crash.
fn tick(
    clock: &mut Option<&mut CrashClock>,
    layer: u32,
    phase: CrashPhase,
) -> Result<(), PowerLoss> {
    match clock.as_deref_mut() {
        Some(c) => c.tick(layer, phase),
        None => Ok(()),
    }
}

/// In-flight state of one journaled execution, advanced one verified
/// layer per [`step_journaled_layer`] call.
///
/// Factoring the loop state out of the driver is what lets the
/// multi-session scheduler ([`crate::session`]) interleave per-layer
/// work items from many tenant sessions over one datapath: each tenant
/// owns a cursor, and a round-robin pass steps each runnable cursor
/// once. [`infer_journaled`] / [`infer_resume`] are the single-tenant
/// drivers of the same machinery.
#[derive(Debug)]
pub(crate) struct JournaledCursor {
    datapath: CryptoDatapath,
    epoch: u32,
    seq: u32,
    next_layer: u32,
    first_layer: u32,
    base_addr: u64,
    activ: QTensor3,
    incidents: IncidentLog,
    commits: u32,
    max_layer_blocks: u64,
    layer_rows: Vec<LayerRow>,
}

impl JournaledCursor {
    /// Builds a cursor positioned at `start_layer` with the given
    /// durable-state coordinates (epoch already declared durable, journal
    /// `seq` pointing past the epoch-open record), encrypting under the
    /// datapath of `epoch`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        session: &SecureSession,
        epoch: u32,
        seq: u32,
        start_layer: u32,
        base_addr: u64,
        activ: QTensor3,
        incidents: IncidentLog,
    ) -> Self {
        Self {
            datapath: CryptoDatapath::with_epoch(session.secret, session.nonce, epoch),
            epoch,
            seq,
            next_layer: start_layer,
            first_layer: start_layer,
            base_addr,
            activ,
            incidents,
            commits: 0,
            max_layer_blocks: 0,
            layer_rows: Vec::new(),
        }
    }

    /// Whether every layer of `layers` has committed.
    pub(crate) fn done(&self, layers: &[QConvLayer]) -> bool {
        (self.next_layer as usize) >= layers.len()
    }

    /// Layer-commit records appended so far.
    pub(crate) fn commits(&self) -> u32 {
        self.commits
    }

    /// Nonce epoch this cursor encrypts under.
    pub(crate) fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Next layer to execute (the durable layer's checkpoint hint).
    pub(crate) fn next_layer(&self) -> u32 {
        self.next_layer
    }

    /// Stage-time rows of the steps taken so far, one per step.
    pub(crate) fn layer_rows(&self) -> &[LayerRow] {
        &self.layer_rows
    }

    /// Moves the accumulated incident log out of a cursor that is about
    /// to be dropped (scheduler retry after a power cut): the records
    /// already went through the telemetry funnel once, so the caller
    /// must splice them without re-pushing.
    pub(crate) fn take_incidents(&mut self) -> IncidentLog {
        std::mem::take(&mut self.incidents)
    }

    /// Consumes a finished cursor into its run report.
    pub(crate) fn finish(self) -> JournaledRun {
        JournaledRun {
            output: self.activ,
            incidents: self.incidents,
            max_layer_blocks: self.max_layer_blocks,
            epoch: self.epoch,
            first_executed_layer: self.first_layer,
            commits: self.commits,
            layer_rows: self.layer_rows,
        }
    }
}

/// Repairs the journal, opens a fresh nonce epoch with a write-ahead
/// record, and returns a cursor positioned at layer 0 — the admission
/// half of [`infer_journaled`], shared with the multi-session scheduler.
pub(crate) fn open_journaled_cursor(
    input: &QTensor3,
    session: &SecureSession,
    durable: &mut DurableState,
    clock: &mut Option<&mut CrashClock>,
) -> Result<JournaledCursor, JournaledError> {
    let replayed = durable
        .journal
        .repair(&session.secret, session.nonce)
        .map_err(JournaledError::Security)?;
    let epoch = replayed.next_epoch();
    let seq = replayed.records.len() as u32;
    // Write-ahead: the epoch is declared durable before any pad of it is
    // consumed, so a torn open record ⇒ the epoch number is still fresh.
    durable
        .journal
        .append(
            &JournalRecord::epoch_open(seq, 0, epoch),
            &session.secret,
            session.nonce,
            clock,
        )
        .map_err(JournaledError::Crashed)?;
    telemetry::incr(telemetry::Counter::EpochBumps);
    Ok(JournaledCursor::new(
        session,
        epoch,
        seq + 1,
        0,
        0x1_0000,
        input.clone(),
        IncidentLog::new(),
    ))
}

/// Executes and commits exactly one layer of a journaled run.
///
/// Each layer is verified eagerly: it writes *two* versions of its
/// output (a partial accumulation, then the final tensor at the same
/// addresses under the next VN), so the consumer's first reads close
/// `MAC_W = MAC_FR ⊕ MAC_R` before the data feeds the next layer. A
/// detected breach climbs the recovery ladder:
///
/// 1. **Re-fetch** (up to [`MAX_REFETCHES`] per attempt):
///    re-stream the tensor and re-check. Recovers transient read
///    corruption.
/// 2. **Re-execute** (up to [`MAX_REEXECUTIONS`]): redo
///    the layer from its verified input under a fresh VN base and fresh
///    MAC registers. Recovers persistent corruption of stored state.
/// 3. **Abort**: return an [`AbortReport`] carrying
///    [`SecurityError::RecoveryExhausted`] and the full incident log. No
///    output is released.
///
/// Around the ladder, (a) a [`CrashClock`] ticks on every stateful step,
/// (b) the [`PadTracker`] checks every encryption, and (c) one sealed
/// [`JournalRecord`] is appended at the verified layer boundary — the
/// commit point after which a crash costs at most the *next* layer's
/// work. On success the cursor advances to the next layer; on abort the
/// incident log travels out inside the report and the cursor is spent.
///
/// Every call that executes a layer pushes one [`LayerRow`] onto the
/// cursor and times its compute, seal, open, MAC-fold and journal stages
/// into it — including the work of failed attempts and of a step that
/// ends in an error.
#[allow(clippy::too_many_lines)]
pub(crate) fn step_journaled_layer(
    layers: &[QConvLayer],
    session: &SecureSession,
    cursor: &mut JournaledCursor,
    durable: &mut DurableState,
    instruments: &mut Instruments<'_>,
) -> Result<(), JournaledError> {
    let li = cursor.next_layer;
    let Some(layer) = layers.get(li as usize) else {
        return Ok(());
    };
    let groups = &layer.channel_groups;
    let (head, rest) = if groups.len() > 1 {
        groups.split_at(1)
    } else {
        (&groups[..], &[][..])
    };
    cursor.layer_rows.push(LayerRow {
        layer: u64::from(li),
        ..LayerRow::default()
    });
    let row = cursor.layer_rows.last_mut().expect("row pushed above");

    let mut layer_refetches = 0u32;
    let mut attempt = 0u32;
    loop {
        let v_part = attempt * 2 + 1;
        let v_full = attempt * 2 + 2;
        let mut lv = EagerLayerVerifier::new();

        // One interruptible instant per output channel: a power cut
        // can strike mid-tile, not just at tensor boundaries.
        for _ in 0..layer.weights.k.max(1) {
            tick(&mut instruments.clock, li, CrashPhase::Compute)
                .map_err(JournaledError::Crashed)?;
        }
        let partial = {
            let _stage = telemetry::stage_span(&mut row.compute_ns);
            qconv2d_grouped(&cursor.activ, &layer.weights, layer.stride, head)
        };
        let (k, h, w) = (partial.k, partial.h, partial.w);
        let pblocks = accum_to_blocks(&partial);
        let nblocks = pblocks.len() as u64;

        // Pure crypto for the whole tile is batched up front (rayon
        // fan-out in parallel mode); the stateful steps — crash
        // ticks, pad-reuse tracking, injector-visible stores — then
        // run in the original block order, so a power cut or reuse
        // stop leaves exactly the state the serial loop would have.
        let pcoords = tile_coords(li, li, v_part, pblocks.len());
        // Stage spans time each stage into this step's row — the
        // per-layer rows of `figures throughput` and `seculator stats`,
        // and the per-session rows of the campaigns' `--metrics`.
        let sealed = {
            let _stage = telemetry::stage_span(&mut row.seal_ns);
            cursor.datapath.seal_blocks(&pcoords, &pblocks)
        };
        for (i, (ct, mac)) in sealed.into_iter().enumerate() {
            tick(&mut instruments.clock, li, CrashPhase::PartialEvict)
                .map_err(JournaledError::Crashed)?;
            instruments
                .tracker
                .on_encrypt(cursor.epoch, pcoords[i], li)
                .map_err(JournaledError::Security)?;
            let ctx = AccessCtx {
                layer: li,
                block: i as u64,
                blocks: nblocks,
                base: cursor.base_addr,
                final_version: false,
                attempt,
            };
            store_via(
                &mut instruments.injector,
                &mut durable.dram,
                cursor.base_addr + i as u64 * 64,
                ct,
                &ctx,
            );
            lv.on_write(&mac);
        }

        let mut part_ct = Vec::with_capacity(pblocks.len());
        for i in 0..pblocks.len() {
            tick(&mut instruments.clock, li, CrashPhase::ReadBack)
                .map_err(JournaledError::Crashed)?;
            let ctx = AccessCtx {
                layer: li,
                block: i as u64,
                blocks: nblocks,
                base: cursor.base_addr,
                final_version: false,
                attempt,
            };
            part_ct.push(load_via(
                &mut instruments.injector,
                &durable.dram,
                cursor.base_addr + i as u64 * 64,
                &ctx,
            ));
        }
        let opened = {
            let _stage = telemetry::stage_span(&mut row.open_ns);
            cursor.datapath.open_blocks(&pcoords, &part_ct)
        };
        let mut part_rd = Vec::with_capacity(pblocks.len());
        {
            let _stage = telemetry::stage_span(&mut row.mac_fold_ns);
            let _span = telemetry::span(telemetry::Hist::MacFoldNs);
            for (pt, mac) in opened {
                lv.on_read(&mac);
                part_rd.push(pt);
            }
        }
        let partial_back = blocks_to_accum(&part_rd, k, h, w);
        for _ in 0..layer.weights.k.max(1) {
            tick(&mut instruments.clock, li, CrashPhase::Compute)
                .map_err(JournaledError::Crashed)?;
        }
        let full = {
            let _stage = telemetry::stage_span(&mut row.compute_ns);
            let tail = qconv2d_grouped(&cursor.activ, &layer.weights, layer.stride, rest);
            let sums = tail.as_slice().iter().zip(partial_back.as_slice());
            QAccum3::from_vec(k, h, w, sums.map(|(a, b)| a.wrapping_add(*b)).collect())
        };

        let fblocks = accum_to_blocks(&full);
        let fcoords = tile_coords(li, li, v_full, fblocks.len());
        let sealed = {
            let _stage = telemetry::stage_span(&mut row.seal_ns);
            cursor.datapath.seal_blocks(&fcoords, &fblocks)
        };
        for (i, (ct, mac)) in sealed.into_iter().enumerate() {
            tick(&mut instruments.clock, li, CrashPhase::FinalEvict)
                .map_err(JournaledError::Crashed)?;
            instruments
                .tracker
                .on_encrypt(cursor.epoch, fcoords[i], li)
                .map_err(JournaledError::Security)?;
            let ctx = AccessCtx {
                layer: li,
                block: i as u64,
                blocks: nblocks,
                base: cursor.base_addr,
                final_version: true,
                attempt,
            };
            lv.on_write(&mac);
            store_via(
                &mut instruments.injector,
                &mut durable.dram,
                cursor.base_addr + i as u64 * 64,
                ct,
                &ctx,
            );
        }

        if let Some(inj) = instruments.injector.as_deref_mut() {
            inj.tamper_stored(
                &mut durable.dram,
                li,
                attempt,
                cursor.base_addr,
                nblocks,
                &mut lv,
            );
        }

        let mut refetches_this_attempt = 0u32;
        let consumed = loop {
            lv.reset_first_reads();
            let mut cts = Vec::with_capacity(fblocks.len());
            for i in 0..fblocks.len() {
                tick(&mut instruments.clock, li, CrashPhase::Consume)
                    .map_err(JournaledError::Crashed)?;
                let ctx = AccessCtx {
                    layer: li,
                    block: i as u64,
                    blocks: nblocks,
                    base: cursor.base_addr,
                    final_version: true,
                    attempt,
                };
                cts.push(load_via(
                    &mut instruments.injector,
                    &durable.dram,
                    cursor.base_addr + i as u64 * 64,
                    &ctx,
                ));
            }
            let opened = {
                let _stage = telemetry::stage_span(&mut row.open_ns);
                cursor.datapath.open_blocks(&fcoords, &cts)
            };
            let mut rd = Vec::with_capacity(fblocks.len());
            {
                let _stage = telemetry::stage_span(&mut row.mac_fold_ns);
                let _span = telemetry::span(telemetry::Hist::MacFoldNs);
                for (pt, mac) in opened {
                    lv.on_first_read(&mac);
                    rd.push(pt);
                }
            }
            if lv.check().is_verified() {
                break Some(rd);
            }
            if refetches_this_attempt < MAX_REFETCHES {
                refetches_this_attempt += 1;
                layer_refetches += 1;
                cursor.incidents.push(IncidentRecord {
                    layer_id: li,
                    attempt,
                    action: RecoveryAction::Refetch,
                    cause: SecurityError::LayerIntegrity { layer_id: li },
                });
                continue;
            }
            break None;
        };

        match consumed {
            Some(rd) => {
                // Commit point: seal the boundary state into the
                // journal *before* the next layer starts consuming
                // this output. A crash during this append leaves a
                // torn tail and costs one layer of re-execution.
                let (mac_w, mac_r, mac_fr) = lv.registers();
                let mut mac_ir = [0u8; 32];
                for i in 0..32 {
                    mac_ir[i] = mac_w[i] ^ mac_r[i] ^ mac_fr[i];
                }
                let record = JournalRecord {
                    kind: JournalRecordKind::LayerCommit,
                    seq: cursor.seq,
                    layer_id: li,
                    epoch: cursor.epoch,
                    final_vn: v_full,
                    base_addr: cursor.base_addr,
                    blocks: nblocks,
                    k: k as u32,
                    h: h as u32,
                    w: w as u32,
                    mac_w,
                    mac_r,
                    mac_fr,
                    mac_ir,
                    vn_eta: nblocks.max(1),
                    vn_kappa: v_full,
                    vn_rho: 1,
                    vn_emitted: nblocks.max(1) * u64::from(v_full),
                };
                {
                    let _stage = telemetry::stage_span(&mut row.journal_ns);
                    durable
                        .journal
                        .append(
                            &record,
                            &session.secret,
                            session.nonce,
                            &mut instruments.clock,
                        )
                        .map_err(JournaledError::Crashed)?;
                }
                cursor.seq += 1;
                cursor.commits += 1;
                cursor.activ = requantize_shift(&blocks_to_accum(&rd, k, h, w), session.shift);
                cursor.max_layer_blocks = cursor.max_layer_blocks.max(nblocks);
                cursor.base_addr += nblocks * 64;
                cursor.next_layer = li + 1;
                return Ok(());
            }
            None if attempt < MAX_REEXECUTIONS => {
                cursor.incidents.push(IncidentRecord {
                    layer_id: li,
                    attempt,
                    action: RecoveryAction::ReExecute,
                    cause: SecurityError::LayerIntegrity { layer_id: li },
                });
                attempt += 1;
            }
            None => {
                let error = SecurityError::RecoveryExhausted {
                    layer_id: li,
                    refetches: layer_refetches,
                    reexecutions: attempt,
                };
                cursor.incidents.push(IncidentRecord {
                    layer_id: li,
                    attempt,
                    action: RecoveryAction::Abort,
                    cause: error.clone(),
                });
                let incidents = std::mem::replace(&mut cursor.incidents, IncidentLog::new());
                return Err(JournaledError::Aborted(Box::new(AbortReport {
                    error,
                    incidents,
                    max_layer_blocks: cursor.max_layer_blocks.max(nblocks),
                })));
            }
        }
    }
}

/// Crash-consistent protected inference from the beginning of the
/// network. Repairs the journal (discarding any torn tail), opens a
/// fresh nonce epoch with a write-ahead record, then runs the journaled
/// core loop. On a power cut it returns [`JournaledError::Crashed`] with
/// all durable state intact; continue with [`infer_resume`].
///
/// # Errors
///
/// [`JournaledError::Crashed`] on a power cut,
/// [`JournaledError::Aborted`] when the recovery ladder is exhausted,
/// [`JournaledError::Security`] on a tampered journal or counter reuse.
pub fn infer_journaled(
    layers: &[QConvLayer],
    input: &QTensor3,
    session: &SecureSession,
    durable: &mut DurableState,
    instruments: &mut Instruments<'_>,
) -> Result<JournaledRun, JournaledError> {
    let mut cursor = open_journaled_cursor(input, session, durable, &mut instruments.clock)?;
    while !cursor.done(layers) {
        step_journaled_layer(layers, session, &mut cursor, durable, instruments)?;
    }
    Ok(cursor.finish())
}

/// Re-verifies one journaled layer commit against the (persistent,
/// untrusted) tensor memory: restores the sealed `MAC_W`/`MAC_R`
/// registers, replays the consumer's first reads under the *committed*
/// epoch's key, and closes the boundary equation again. Returns the
/// recovered activations when the data is intact, `None` when it was
/// tampered with while power was down.
fn verify_commit(
    rec: &JournalRecord,
    session: &SecureSession,
    durable: &DurableState,
    instruments: &mut Instruments<'_>,
) -> Result<Option<QTensor3>, JournaledError> {
    let datapath = CryptoDatapath::with_epoch(session.secret, session.nonce, rec.epoch);
    let mut lv = EagerLayerVerifier::restore(rec.mac_w, rec.mac_r, [0u8; 32]);
    let blocks = rec.blocks as usize;
    let coords = tile_coords(rec.layer_id, rec.layer_id, rec.final_vn, blocks);
    let mut cts = Vec::with_capacity(blocks);
    for i in 0..blocks {
        tick(
            &mut instruments.clock,
            rec.layer_id,
            CrashPhase::ResumeVerify,
        )
        .map_err(JournaledError::Crashed)?;
        let ctx = AccessCtx {
            layer: rec.layer_id,
            block: i as u64,
            blocks: rec.blocks,
            base: rec.base_addr,
            final_version: true,
            attempt: 0,
        };
        cts.push(load_via(
            &mut instruments.injector,
            &durable.dram,
            rec.base_addr + i as u64 * 64,
            &ctx,
        ));
    }
    let mut rd = Vec::with_capacity(blocks);
    for (pt, mac) in datapath.open_blocks(&coords, &cts) {
        lv.on_first_read(&mac);
        rd.push(pt);
    }
    if !lv.check().is_verified() {
        return Ok(None);
    }
    let acc = blocks_to_accum(&rd, rec.k as usize, rec.h as usize, rec.w as usize);
    Ok(Some(requantize_shift(&acc, session.shift)))
}

/// Resumes a journaled inference after a power loss.
///
/// The journal is repaired (torn tail discarded — power-loss garbage,
/// not tampering), a **fresh nonce epoch** is derived so no counter is
/// ever reused even though the interrupted layer's version numbers
/// repeat, and the last committed layer's output is re-verified against
/// its sealed MAC registers before being trusted as input. Commits that
/// fail re-verification (tampered while power was down) are rolled back
/// one by one — each rollback is an audit incident — until a verifiable
/// commit or the network input is reached. Execution then continues on
/// the normal journaled path, so at most one layer of work is repeated
/// per pure crash, and the audit log is stitched across the outage via
/// an initial [`RecoveryAction::Resume`] record.
///
/// `interrupted` carries the crash report when the caller observed it;
/// `None` reconstructs the interrupted layer from the journal alone
/// (e.g. after a cold restart).
///
/// # Errors
///
/// As [`infer_journaled`]; additionally [`JournaledError::Security`]
/// with [`SecurityError::JournalIntegrity`] when the journal itself was
/// tampered with — resume refuses to trust it (fail closed).
pub fn infer_resume(
    layers: &[QConvLayer],
    input: &QTensor3,
    session: &SecureSession,
    durable: &mut DurableState,
    instruments: &mut Instruments<'_>,
    interrupted: Option<PowerLoss>,
) -> Result<JournaledRun, JournaledError> {
    let mut cursor = open_resume_cursor(input, session, durable, instruments, interrupted)?;
    while !cursor.done(layers) {
        step_journaled_layer(layers, session, &mut cursor, durable, instruments)?;
    }
    Ok(cursor.finish())
}

/// The resume half of [`infer_resume`] without the layer loop: repairs
/// the journal, rolls unverifiable commits back, opens a fresh nonce
/// epoch with a write-ahead record, and returns a cursor positioned at
/// the first layer that must re-execute. Shared with the multi-session
/// scheduler, whose session-retry path re-admits a failed tenant from
/// its journal — the epoch bump here is what guarantees a retried layer
/// never reuses a CTR pad.
pub(crate) fn open_resume_cursor(
    input: &QTensor3,
    session: &SecureSession,
    durable: &mut DurableState,
    instruments: &mut Instruments<'_>,
    interrupted: Option<PowerLoss>,
) -> Result<JournaledCursor, JournaledError> {
    let replayed = durable
        .journal
        .repair(&session.secret, session.nonce)
        .map_err(JournaledError::Security)?;
    let epoch = replayed.next_epoch();
    let mut seq = replayed.records.len() as u32;

    let crash_layer = interrupted.map_or_else(
        || replayed.last_commit().map_or(0, |r| r.layer_id + 1),
        |loss| loss.layer,
    );
    let mut incidents = IncidentLog::new();
    incidents.push(IncidentRecord {
        layer_id: crash_layer,
        attempt: 0,
        action: RecoveryAction::Resume,
        cause: SecurityError::PowerInterrupted {
            layer_id: crash_layer,
        },
    });

    // Walk the commits backwards to the newest one whose output still
    // verifies; everything after it is rolled back (and logged).
    let commits: Vec<JournalRecord> = replayed.commits().copied().collect();
    let mut start_layer = 0u32;
    let mut base_addr = 0x1_0000u64;
    let mut activ = input.clone();
    for rec in commits.iter().rev() {
        match verify_commit(rec, session, durable, instruments)? {
            Some(recovered) => {
                activ = recovered;
                start_layer = rec.layer_id + 1;
                base_addr = rec.base_addr + rec.blocks * 64;
                break;
            }
            None => {
                incidents.push(IncidentRecord {
                    layer_id: rec.layer_id,
                    attempt: 0,
                    action: RecoveryAction::Rollback,
                    cause: SecurityError::LayerIntegrity {
                        layer_id: rec.layer_id,
                    },
                });
            }
        }
    }

    durable
        .journal
        .append(
            &JournalRecord::epoch_open(seq, start_layer, epoch),
            &session.secret,
            session.nonce,
            &mut instruments.clock,
        )
        .map_err(JournaledError::Crashed)?;
    telemetry::incr(telemetry::Counter::EpochBumps);
    seq += 1;

    Ok(JournaledCursor::new(
        session,
        epoch,
        seq,
        start_layer,
        base_addr,
        activ,
        incidents,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultSpec, Persistence};

    fn network() -> Vec<QConvLayer> {
        vec![
            QConvLayer {
                weights: QTensor4::seeded(6, 3, 3, 3, 1),
                stride: 1,
                channel_groups: vec![0..1, 1..3],
            },
            QConvLayer {
                weights: QTensor4::seeded(4, 6, 3, 3, 2),
                stride: 1,
                channel_groups: vec![3..6, 0..3],
            },
            QConvLayer::simple(QTensor4::seeded(2, 4, 3, 3, 3), 2),
        ]
    }

    fn input() -> QTensor3 {
        QTensor3::seeded(3, 12, 12, 9)
    }

    /// A clean run's stage-time rows: one per executed layer, with ids
    /// `layers` in order, and all zero when telemetry is compiled out.
    fn assert_rows_cover(run: &JournaledRun, layers: std::ops::Range<u32>) {
        let ids: Vec<u64> = run.layer_rows.iter().map(|r| r.layer).collect();
        assert_eq!(ids, layers.map(u64::from).collect::<Vec<_>>());
        if !telemetry::enabled() {
            for r in &run.layer_rows {
                let zero = LayerRow {
                    layer: r.layer,
                    ..LayerRow::default()
                };
                assert_eq!(*r, zero, "no stage is timed with telemetry off");
            }
        }
    }

    #[test]
    fn accumulator_block_serialization_roundtrips() {
        let layers = network();
        let acc = qconv2d(&input(), &layers[0].weights, 1);
        let blocks = accum_to_blocks(&acc);
        let back = blocks_to_accum(&blocks, acc.k, acc.h, acc.w);
        assert_eq!(acc, back);
    }

    #[test]
    fn a_ragged_tensor_pads_its_last_block_with_zeros() {
        // 3 × 5 × 7 = 105 values: six full blocks and one holding 9.
        let values: Vec<i32> = (0..105).map(|i| i * -7919 + 13).collect();
        let acc = QAccum3::from_vec(3, 5, 7, values.clone());
        let blocks = accum_to_blocks(&acc);
        assert_eq!(blocks.len(), 7);
        for (i, v) in values.iter().enumerate() {
            let at = (i % 16) * 4;
            assert_eq!(blocks[i / 16][at..at + 4], v.to_le_bytes(), "value {i}");
        }
        assert!(blocks[6][9 * 4..].iter().all(|&b| b == 0), "zero padding");
        assert_eq!(blocks_to_accum(&blocks, 3, 5, 7), acc);
        // Values the blocks do not reach read as zero.
        let short = blocks_to_accum(&blocks[..3], 3, 5, 7);
        assert_eq!(short.as_slice()[..48], values[..48]);
        assert!(short.as_slice()[48..].iter().all(|&v| v == 0));
    }

    /// One journaled run on a fresh journal and pad tracker, with no
    /// power-cut clock.
    fn journaled(
        layers: &[QConvLayer],
        x: &QTensor3,
        session: &SecureSession,
        injector: Option<&mut FaultInjector>,
    ) -> Result<JournaledRun, JournaledError> {
        infer_journaled(
            layers,
            x,
            session,
            &mut DurableState::default(),
            &mut Instruments {
                tracker: &mut PadTracker::new(),
                injector,
                clock: None,
            },
        )
    }

    #[test]
    fn mlp_runs_protected_via_pointwise_convolutions() {
        // A 3-layer MLP: 16 -> 32 -> 8 -> 4, input as a 16-channel 1x1 map.
        let layers = vec![
            QConvLayer::fully_connected(QTensor4::seeded(32, 16, 1, 1, 5)),
            QConvLayer::fully_connected(QTensor4::seeded(8, 32, 1, 1, 6)),
            QConvLayer::fully_connected(QTensor4::seeded(4, 8, 1, 1, 7)),
        ];
        let x = QTensor3::seeded(16, 1, 1, 31);
        let session = SecureSession {
            secret: DeviceSecret::from_seed(12),
            nonce: 3,
            shift: 5,
        };
        let run = journaled(&layers, &x, &session, None).unwrap();
        assert_eq!(run.output, infer_plain(&layers, &x, 5));
        // And a relentless attack on the hidden activations releases no
        // output.
        let mut injector = FaultInjector::new(
            4,
            vec![FaultSpec {
                kind: FaultKind::BitFlip,
                persistence: Persistence::Relentless,
                layer: 1,
                block: 0,
            }],
        );
        let attacked = journaled(&layers, &x, &session, Some(&mut injector));
        assert!(
            matches!(attacked, Err(JournaledError::Aborted(_))),
            "{attacked:?}"
        );
    }

    #[test]
    fn different_nonces_give_same_plaintext_results() {
        let layers = network();
        let session = |nonce| SecureSession {
            secret: DeviceSecret::from_seed(8),
            nonce,
            shift: 6,
        };
        let a = journaled(&layers, &input(), &session(10), None).unwrap();
        let b = journaled(&layers, &input(), &session(11), None).unwrap();
        assert_eq!(
            a.output, b.output,
            "re-keying must not change the computation"
        );
    }

    // ---- journaled / crash-consistent drivers ----

    fn test_session() -> SecureSession {
        SecureSession {
            secret: DeviceSecret::from_seed(55),
            nonce: 777,
            shift: 6,
        }
    }

    #[test]
    fn journaled_run_is_bit_exact_and_commits_every_layer() {
        let layers = network();
        let session = test_session();
        let mut durable = crate::journal::DurableState::default();
        let mut tracker = PadTracker::new();
        let start = std::time::Instant::now();
        let run = infer_journaled(
            &layers,
            &input(),
            &session,
            &mut durable,
            &mut Instruments {
                tracker: &mut tracker,
                injector: None,
                clock: None,
            },
        )
        .unwrap();
        let wall_ns = start.elapsed().as_nanos();
        assert_eq!(run.output, infer_plain(&layers, &input(), 6));
        assert_eq!(run.commits, layers.len() as u32);
        assert_rows_cover(&run, 0..layers.len() as u32);
        // The stage timers run one after another inside the call, so
        // together they can never exceed its wall time.
        let stage_ns: u64 = run
            .layer_rows
            .iter()
            .map(|r| r.compute_ns + r.seal_ns + r.open_ns + r.mac_fold_ns + r.journal_ns)
            .sum();
        assert!(
            u128::from(stage_ns) <= wall_ns,
            "stages {stage_ns} ns > wall {wall_ns} ns"
        );
        assert_eq!(run.epoch, 0, "a fresh journal starts at epoch 0");
        assert!(run.incidents.is_empty(), "clean run, clean audit");
        let replayed = durable
            .journal
            .replay(&session.secret, session.nonce)
            .unwrap();
        // One EpochOpen plus one commit per layer, gap-free.
        assert_eq!(replayed.records.len(), layers.len() + 1);
        assert_eq!(replayed.commits().count(), layers.len());
    }

    #[test]
    fn crash_resume_is_bit_exact_and_bumps_the_epoch() {
        let layers = network();
        let session = test_session();
        let expected = infer_plain(&layers, &input(), 6);
        let mut durable = crate::journal::DurableState::default();
        let mut tracker = PadTracker::new();

        // Calibrate to find a cut inside layer 1, then crash there.
        let mut counting = CrashClock::counting();
        infer_journaled(
            &layers,
            &input(),
            &session,
            &mut DurableState::default(),
            &mut Instruments {
                tracker: &mut PadTracker::new(),
                injector: None,
                clock: Some(&mut counting),
            },
        )
        .unwrap();
        let cut = counting.steps() / 2;
        let mut clock = CrashClock::armed(cut);
        let err = infer_journaled(
            &layers,
            &input(),
            &session,
            &mut durable,
            &mut Instruments {
                tracker: &mut tracker,
                injector: None,
                clock: Some(&mut clock),
            },
        )
        .unwrap_err();
        let JournaledError::Crashed(loss) = err else {
            panic!("armed clock must crash the run, got {err}");
        };

        // Resume with the *same* tracker: any pad reuse across the crash
        // would fire. The resumed output must match bit-for-bit.
        let resumed = infer_resume(
            &layers,
            &input(),
            &session,
            &mut durable,
            &mut Instruments {
                tracker: &mut tracker,
                injector: None,
                clock: None,
            },
            Some(loss),
        )
        .unwrap();
        assert_eq!(resumed.output, expected, "resume must be bit-exact");
        assert!(resumed.epoch > 0, "resume must re-key under a fresh epoch");
        assert_eq!(
            resumed.first_executed_layer, loss.layer,
            "at most the interrupted layer is re-executed"
        );
        assert_rows_cover(&resumed, resumed.first_executed_layer..layers.len() as u32);
        assert_eq!(
            resumed.incidents.resumes(),
            1,
            "audit stitched across the crash"
        );
        assert_eq!(
            resumed.incidents.rollbacks(),
            0,
            "honest memory: nothing to roll back"
        );
    }

    #[test]
    fn tamper_while_power_is_down_rolls_the_commit_back() {
        let layers = network();
        let session = test_session();
        let expected = infer_plain(&layers, &input(), 6);
        let mut durable = crate::journal::DurableState::default();
        let mut tracker = PadTracker::new();

        // Crash late enough that at least one layer committed.
        let mut counting = CrashClock::counting();
        infer_journaled(
            &layers,
            &input(),
            &session,
            &mut DurableState::default(),
            &mut Instruments {
                tracker: &mut PadTracker::new(),
                injector: None,
                clock: Some(&mut counting),
            },
        )
        .unwrap();
        let mut clock = CrashClock::armed(counting.steps() * 3 / 4);
        let err = infer_journaled(
            &layers,
            &input(),
            &session,
            &mut durable,
            &mut Instruments {
                tracker: &mut tracker,
                injector: None,
                clock: Some(&mut clock),
            },
        )
        .unwrap_err();
        let JournaledError::Crashed(loss) = err else {
            panic!("expected a crash")
        };
        let last = durable
            .journal
            .replay(&session.secret, session.nonce)
            .unwrap()
            .last_commit()
            .copied()
            .expect("a 3/4 cut must land after the first commit");

        // The adversary rewrites the committed tensor during the outage.
        durable.dram.tamper_bit(last.base_addr, 1, 7);
        let resumed = infer_resume(
            &layers,
            &input(),
            &session,
            &mut durable,
            &mut Instruments {
                tracker: &mut tracker,
                injector: None,
                clock: None,
            },
            Some(loss),
        )
        .unwrap();
        assert_eq!(resumed.output, expected, "rollback re-derives the truth");
        assert!(
            resumed.incidents.rollbacks() >= 1,
            "tamper must be rolled back"
        );
        assert!(
            resumed.first_executed_layer <= last.layer_id,
            "the rolled-back layer is re-executed"
        );
    }

    #[test]
    fn tampered_journal_fails_closed_on_resume() {
        let layers = network();
        let session = test_session();
        let mut durable = crate::journal::DurableState::default();
        let mut tracker = PadTracker::new();
        let mut clock = CrashClock::armed(200);
        let _ = infer_journaled(
            &layers,
            &input(),
            &session,
            &mut durable,
            &mut Instruments {
                tracker: &mut tracker,
                injector: None,
                clock: Some(&mut clock),
            },
        );
        durable.journal.tamper_byte(10);
        let err = infer_resume(
            &layers,
            &input(),
            &session,
            &mut durable,
            &mut Instruments {
                tracker: &mut tracker,
                injector: None,
                clock: None,
            },
            None,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                JournaledError::Security(SecurityError::JournalIntegrity { .. })
            ),
            "got {err}"
        );
    }

    #[test]
    fn resume_from_an_empty_journal_restarts_from_the_input() {
        let layers = network();
        let session = test_session();
        let expected = infer_plain(&layers, &input(), 6);
        let mut durable = crate::journal::DurableState::default();
        let mut tracker = PadTracker::new();
        let resumed = infer_resume(
            &layers,
            &input(),
            &session,
            &mut durable,
            &mut Instruments {
                tracker: &mut tracker,
                injector: None,
                clock: None,
            },
            None,
        )
        .unwrap();
        assert_eq!(resumed.output, expected);
        assert_eq!(resumed.first_executed_layer, 0);
        assert_eq!(resumed.incidents.resumes(), 1);
    }
}
