//! Crash-consistent secure inference: the layer-commit journal, the
//! datapath-level pad-reuse detector, and the campaign models.
//!
//! Seculator's freshness story assumes every inference runs to
//! completion: VNs follow the master equation, the session key is derived
//! once per execution, and no (key, counter) pair repeats. A power loss
//! breaks that assumption — the MAC registers and VN FSM are volatile, so
//! a naive restart would either trust unverified ciphertext or re-encrypt
//! under already-used counters. This module makes interrupted inference
//! safe:
//!
//! - [`JournalStore`] is a write-ahead **layer-commit journal** in
//!   durable memory. At each layer boundary the driver appends one sealed
//!   record capturing the MAC registers, the VN-FSM triplet + position,
//!   the nonce epoch, and the layer's output geometry, authenticated by a
//!   tag bound to the device secret *and* the execution nonce (so a
//!   journal from one execution cannot be replayed into another).
//! - **Nonce epochs** preserve pad freshness across crashes: every resume
//!   re-keys the cipher via
//!   [`seculator_crypto::keys::SessionKey::derive_epoch`] with a fresh
//!   epoch, so the resumed run may repeat the interrupted layer's version
//!   numbers without ever regenerating a pad. The paper's MACs are
//!   computed over *plaintext* and are therefore epoch-independent —
//!   which is exactly what lets a resumed run re-verify pre-crash data.
//!   An [`EpochOpen`](JournalRecordKind::EpochOpen) record is appended
//!   *before* any DRAM write under its epoch (write-ahead), so a torn
//!   open record proves no pads were consumed and the epoch number is
//!   still safe to reuse.
//! - [`PadTracker`] is the reuse oracle: it observes every encryption the
//!   datapath performs and fails closed with
//!   [`SecurityError::CounterReuse`] if any (epoch, counter) pair is ever
//!   used twice. Decryption regenerates pads by design (CTR) and is not
//!   tracked — freshness is about never encrypting two plaintexts under
//!   one pad.
//! - [`campaign_models`] are the three fixed workloads the campaigns
//!   (in the `seculator-campaigns` crate), the daemon's model zoo and
//!   the benchmarks all run.
//!
//! One modeling note: for resume to be meaningful the off-chip tensors
//! must survive the power loss, so this module treats the untrusted
//! memory as *persistent* (NVM). Nothing in the threat model changes —
//! the adversary owns that memory either way.

use crate::error::SecurityError;
use crate::fault::{CrashClock, CrashPhase, PowerLoss};
use crate::secure_infer::{QConvLayer, SecureSession};
use crate::secure_memory::{BlockCoords, UntrustedDram};
use crate::telemetry;
use seculator_compute::quant::{QTensor3, QTensor4};
use seculator_crypto::keys::DeviceSecret;
use seculator_crypto::sha256::Sha256;
use std::collections::HashSet;

/// Journal record magic ("Seculator Journal v1").
const JOURNAL_MAGIC: [u8; 4] = *b"SJL1";
/// Domain-separation label for the record tag.
const TAG_DOMAIN: &[u8] = b"seculator-journal-v1";
/// Fixed payload length (every field below, packed little-endian).
const PAYLOAD_BYTES: usize = 201;
/// Full on-media record length: magic + payload + 32-byte tag.
pub const RECORD_BYTES: usize = 4 + PAYLOAD_BYTES + 32;
/// Journal appends land in 8-byte chunks (one DRAM beat), each a
/// distinct [`CrashPhase::JournalAppend`] instant — this is what makes
/// *torn* records reachable by the crash campaign.
const APPEND_CHUNK: usize = 8;

/// What a journal record commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalRecordKind {
    /// Write-ahead declaration that the execution is about to consume
    /// pads under a new nonce epoch. Must be fully durable before the
    /// first DRAM write of that epoch.
    EpochOpen,
    /// A layer boundary: the layer's output is durable in DRAM, its
    /// `MAC_W = MAC_FR ⊕ MAC_R` equation closed, and the sealed register
    /// state below suffices to re-verify that output after a crash.
    LayerCommit,
}

impl JournalRecordKind {
    fn to_byte(self) -> u8 {
        match self {
            Self::EpochOpen => 1,
            Self::LayerCommit => 2,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            1 => Some(Self::EpochOpen),
            2 => Some(Self::LayerCommit),
            _ => None,
        }
    }
}

/// One sealed journal record. All multi-byte fields are little-endian on
/// media; the tag is `SHA256(secret ‖ "seculator-journal-v1" ‖ nonce ‖
/// payload)`, binding the record to this device *and* this execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalRecord {
    /// Record kind.
    pub kind: JournalRecordKind,
    /// Sequence number; replay refuses gaps and reorderings.
    pub seq: u32,
    /// Committed layer (for [`JournalRecordKind::EpochOpen`]: the first
    /// layer that will execute under the epoch).
    pub layer_id: u32,
    /// Nonce epoch the layer's output ciphertext was written under —
    /// resume must decrypt it with this epoch's session key.
    pub epoch: u32,
    /// Version number the final (consumer-visible) output carries.
    pub final_vn: u32,
    /// Base DRAM address of the layer's output region.
    pub base_addr: u64,
    /// Output tensor size in 64-byte blocks.
    pub blocks: u64,
    /// Output channels.
    pub k: u32,
    /// Output height.
    pub h: u32,
    /// Output width.
    pub w: u32,
    /// Sealed `MAC_W` write-aggregation register.
    pub mac_w: [u8; 32],
    /// Sealed `MAC_R` read-aggregation register.
    pub mac_r: [u8; 32],
    /// Sealed `MAC_FR` first-read register.
    pub mac_fr: [u8; 32],
    /// Boundary residue `MAC_W ⊕ MAC_R ⊕ MAC_FR` — all-zero at any
    /// honest commit (the equation closed before the record was cut).
    /// Replay refuses commit records whose equation is open.
    pub mac_ir: [u8; 32],
    /// VN-FSM triplet η of the layer's write pattern.
    pub vn_eta: u64,
    /// VN-FSM triplet κ.
    pub vn_kappa: u32,
    /// VN-FSM triplet ρ.
    pub vn_rho: u64,
    /// VN-FSM position (VNs emitted); with the triplet this rebuilds the
    /// counter exactly ([`crate::vngen::PatternCounter::resume`]).
    pub vn_emitted: u64,
}

impl JournalRecord {
    /// A write-ahead epoch-open record.
    #[must_use]
    pub fn epoch_open(seq: u32, start_layer: u32, epoch: u32) -> Self {
        Self {
            kind: JournalRecordKind::EpochOpen,
            seq,
            layer_id: start_layer,
            epoch,
            final_vn: 0,
            base_addr: 0,
            blocks: 0,
            k: 0,
            h: 0,
            w: 0,
            mac_w: [0u8; 32],
            mac_r: [0u8; 32],
            mac_fr: [0u8; 32],
            mac_ir: [0u8; 32],
            vn_eta: 0,
            vn_kappa: 0,
            vn_rho: 0,
            vn_emitted: 0,
        }
    }

    fn encode_payload(&self) -> [u8; PAYLOAD_BYTES] {
        let mut p = [0u8; PAYLOAD_BYTES];
        p[0] = self.kind.to_byte();
        p[1..5].copy_from_slice(&self.seq.to_le_bytes());
        p[5..9].copy_from_slice(&self.layer_id.to_le_bytes());
        p[9..13].copy_from_slice(&self.epoch.to_le_bytes());
        p[13..17].copy_from_slice(&self.final_vn.to_le_bytes());
        p[17..25].copy_from_slice(&self.base_addr.to_le_bytes());
        p[25..33].copy_from_slice(&self.blocks.to_le_bytes());
        p[33..37].copy_from_slice(&self.k.to_le_bytes());
        p[37..41].copy_from_slice(&self.h.to_le_bytes());
        p[41..45].copy_from_slice(&self.w.to_le_bytes());
        p[45..77].copy_from_slice(&self.mac_w);
        p[77..109].copy_from_slice(&self.mac_r);
        p[109..141].copy_from_slice(&self.mac_fr);
        p[141..173].copy_from_slice(&self.mac_ir);
        p[173..181].copy_from_slice(&self.vn_eta.to_le_bytes());
        p[181..185].copy_from_slice(&self.vn_kappa.to_le_bytes());
        p[185..193].copy_from_slice(&self.vn_rho.to_le_bytes());
        p[193..201].copy_from_slice(&self.vn_emitted.to_le_bytes());
        p
    }

    fn tag(payload: &[u8; PAYLOAD_BYTES], secret: &DeviceSecret, nonce: u64) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(&secret.0);
        h.update(TAG_DOMAIN);
        h.update(&nonce.to_le_bytes());
        h.update(payload);
        h.finalize()
    }

    /// Serializes the sealed record: magic ‖ payload ‖ tag.
    #[must_use]
    pub fn encode(&self, secret: &DeviceSecret, nonce: u64) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut out = Vec::with_capacity(RECORD_BYTES);
        out.extend_from_slice(&JOURNAL_MAGIC);
        out.extend_from_slice(&payload);
        out.extend_from_slice(&Self::tag(&payload, secret, nonce));
        out
    }

    /// Parses and authenticates one full-length record. `None` means the
    /// bytes are not a record this device wrote in this execution —
    /// tampered, forged, or cross-execution.
    #[must_use]
    pub fn decode(bytes: &[u8], secret: &DeviceSecret, nonce: u64) -> Option<Self> {
        if bytes.len() != RECORD_BYTES || bytes[..4] != JOURNAL_MAGIC {
            return None;
        }
        let mut payload = [0u8; PAYLOAD_BYTES];
        payload.copy_from_slice(&bytes[4..4 + PAYLOAD_BYTES]);
        if bytes[4 + PAYLOAD_BYTES..] != Self::tag(&payload, secret, nonce) {
            return None;
        }
        let p = &payload;
        let rd32 = |o: usize| u32::from_le_bytes([p[o], p[o + 1], p[o + 2], p[o + 3]]);
        let rd64 = |o: usize| {
            u64::from_le_bytes([
                p[o],
                p[o + 1],
                p[o + 2],
                p[o + 3],
                p[o + 4],
                p[o + 5],
                p[o + 6],
                p[o + 7],
            ])
        };
        let rdmac = |o: usize| {
            let mut m = [0u8; 32];
            m.copy_from_slice(&p[o..o + 32]);
            m
        };
        let rec = Self {
            kind: JournalRecordKind::from_byte(p[0])?,
            seq: rd32(1),
            layer_id: rd32(5),
            epoch: rd32(9),
            final_vn: rd32(13),
            base_addr: rd64(17),
            blocks: rd64(25),
            k: rd32(33),
            h: rd32(37),
            w: rd32(41),
            mac_w: rdmac(45),
            mac_r: rdmac(77),
            mac_fr: rdmac(109),
            mac_ir: rdmac(141),
            vn_eta: rd64(173),
            vn_kappa: rd32(181),
            vn_rho: rd64(185),
            vn_emitted: rd64(193),
        };
        // Structural invariant: a commit record's boundary equation must
        // have closed (defense in depth against a buggy writer — the tag
        // already rules out an adversarial one).
        if rec.kind == JournalRecordKind::LayerCommit {
            let residue: [u8; 32] =
                std::array::from_fn(|i| rec.mac_w[i] ^ rec.mac_r[i] ^ rec.mac_fr[i]);
            if residue != rec.mac_ir || rec.mac_ir != [0u8; 32] {
                return None;
            }
            // The journaled VN position can never exceed the pattern's
            // capacity η·κ·ρ; an overrange position is the same class of
            // writer bug the residue check guards against, and letting
            // it through would ask `PatternCounter::resume` to rebuild
            // an impossible FSM state.
            let capacity = rec
                .vn_eta
                .saturating_mul(u64::from(rec.vn_kappa))
                .saturating_mul(rec.vn_rho);
            if rec.vn_emitted > capacity {
                return None;
            }
        }
        Some(rec)
    }
}

/// The parsed, authenticated state of a journal: every valid record plus
/// the length of the benign torn tail (a partial-length record cut by a
/// power loss mid-append).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalReplay {
    /// All authenticated records, in append order.
    pub records: Vec<JournalRecord>,
    /// Trailing bytes of an incomplete record (discarded on repair).
    pub torn_tail_bytes: usize,
}

impl JournalReplay {
    /// Layer-commit records only, in order.
    pub fn commits(&self) -> impl Iterator<Item = &JournalRecord> {
        self.records
            .iter()
            .filter(|r| r.kind == JournalRecordKind::LayerCommit)
    }

    /// The most recent committed layer, if any.
    #[must_use]
    pub fn last_commit(&self) -> Option<&JournalRecord> {
        self.commits().last()
    }

    /// Highest epoch any record mentions.
    #[must_use]
    pub fn max_epoch(&self) -> Option<u32> {
        self.records.iter().map(|r| r.epoch).max()
    }

    /// The next safe epoch: one past anything ever *declared*, torn
    /// opens excluded — a torn [`JournalRecordKind::EpochOpen`] proves
    /// (by write-ahead ordering) that no pad of its epoch was consumed,
    /// so its number is still fresh.
    #[must_use]
    pub fn next_epoch(&self) -> u32 {
        self.max_epoch().map_or(0, |e| e.saturating_add(1))
    }
}

/// The durable, append-only layer-commit journal. Lives in the same
/// persistent off-chip memory as the tensors; integrity comes from the
/// per-record tags, not from trusting the medium.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalStore {
    bytes: Vec<u8>,
}

impl JournalStore {
    /// An empty journal.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes currently on media (including any torn tail).
    #[must_use]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when nothing has ever been appended.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Raw media bytes (including any torn tail) — the unit the durable
    /// layer frames and persists.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Reconstructs a store from raw media bytes read back off durable
    /// storage. No authentication happens here; [`JournalStore::replay`]
    /// and [`JournalStore::repair`] classify the contents.
    #[must_use]
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Self { bytes }
    }

    /// Appends one sealed record in 8-byte beats (`APPEND_CHUNK`), ticking
    /// `clock` before each beat — an armed clock can therefore cut the
    /// append mid-record, leaving a torn tail exactly as a real power
    /// loss would.
    ///
    /// # Errors
    ///
    /// Propagates the [`PowerLoss`] when the clock fires; beats already
    /// written stay on media (that is the point).
    pub fn append(
        &mut self,
        record: &JournalRecord,
        secret: &DeviceSecret,
        nonce: u64,
        clock: &mut Option<&mut CrashClock>,
    ) -> Result<(), PowerLoss> {
        let _span = telemetry::span(telemetry::Hist::JournalAppendNs);
        self.append_untimed(record, secret, nonce, clock)
    }

    /// [`Self::append`] without its `journal_append_ns` span, for a layer
    /// step whose journal stage timer feeds that histogram.
    pub(crate) fn append_untimed(
        &mut self,
        record: &JournalRecord,
        secret: &DeviceSecret,
        nonce: u64,
        clock: &mut Option<&mut CrashClock>,
    ) -> Result<(), PowerLoss> {
        telemetry::incr(telemetry::Counter::JournalAppends);
        let encoded = record.encode(secret, nonce);
        for chunk in encoded.chunks(APPEND_CHUNK) {
            if let Some(c) = clock.as_deref_mut() {
                c.tick(record.layer_id, CrashPhase::JournalAppend)?;
            }
            self.bytes.extend_from_slice(chunk);
        }
        Ok(())
    }

    /// Parses and authenticates the journal without modifying it.
    ///
    /// A trailing partial-length record is a benign torn tail (reported,
    /// not an error). A *full-length* record that fails its magic, tag,
    /// sequence number, or structural invariant is tampering.
    ///
    /// # Errors
    ///
    /// [`SecurityError::JournalIntegrity`] naming the offending record.
    pub fn replay(
        &self,
        secret: &DeviceSecret,
        nonce: u64,
    ) -> Result<JournalReplay, SecurityError> {
        telemetry::incr(telemetry::Counter::JournalReplays);
        let _span = telemetry::span(telemetry::Hist::JournalReplayNs);
        let mut records = Vec::new();
        let mut off = 0usize;
        while self.bytes.len() - off >= RECORD_BYTES {
            let idx = records.len() as u32;
            let rec = JournalRecord::decode(&self.bytes[off..off + RECORD_BYTES], secret, nonce)
                .ok_or(SecurityError::JournalIntegrity { record: idx })?;
            if rec.seq != idx {
                return Err(SecurityError::JournalIntegrity { record: idx });
            }
            records.push(rec);
            off += RECORD_BYTES;
        }
        Ok(JournalReplay {
            records,
            torn_tail_bytes: self.bytes.len() - off,
        })
    }

    /// [`Self::replay`] followed by discarding the torn tail, so the next
    /// append starts on a record boundary. This is the first step of
    /// every resume.
    ///
    /// # Errors
    ///
    /// [`SecurityError::JournalIntegrity`] as for [`Self::replay`]; a
    /// tampered journal is never repaired.
    pub fn repair(
        &mut self,
        secret: &DeviceSecret,
        nonce: u64,
    ) -> Result<JournalReplay, SecurityError> {
        let replayed = self.replay(secret, nonce)?;
        if replayed.torn_tail_bytes > 0 {
            telemetry::incr(telemetry::Counter::TornTailRepairs);
        }
        self.bytes.truncate(replayed.records.len() * RECORD_BYTES);
        Ok(replayed)
    }

    // ---- Adversary API (the journal lives in attacker-owned memory) ----

    /// Flips one bit of one journal byte.
    pub fn tamper_byte(&mut self, index: usize) {
        if let Some(b) = self.bytes.get_mut(index) {
            *b ^= 0x40;
        }
    }

    /// Truncates the journal to `len` bytes (rollback attack — costs the
    /// victim recompute only; freshness is epoch-protected).
    pub fn truncate(&mut self, len: usize) {
        self.bytes.truncate(len);
    }
}

/// Datapath-level counter-reuse detector: records every (epoch, counter)
/// pair the cipher ever encrypts under and fails closed on a repeat —
/// *before* the colliding ciphertext could reach DRAM. Deliberately kept
/// across crash and resume: it is the campaign's ground-truth oracle
/// that epoch derivation actually preserves pad freshness.
#[derive(Debug, Clone, Default)]
pub struct PadTracker {
    seen: HashSet<(u32, BlockCoords)>,
}

impl PadTracker {
    /// An empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes one encryption.
    ///
    /// # Errors
    ///
    /// [`SecurityError::CounterReuse`] when this (epoch, counter) pair
    /// already produced a pad — the caller must abort before releasing
    /// ciphertext.
    pub fn on_encrypt(
        &mut self,
        epoch: u32,
        coords: BlockCoords,
        layer_id: u32,
    ) -> Result<(), SecurityError> {
        if self.seen.insert((epoch, coords)) {
            telemetry::incr(telemetry::Counter::PadsIssued);
            Ok(())
        } else {
            telemetry::incr(telemetry::Counter::PadReuses);
            Err(SecurityError::CounterReuse { epoch, layer_id })
        }
    }

    /// Distinct pads issued so far.
    #[must_use]
    pub fn pads_issued(&self) -> usize {
        self.seen.len()
    }

    /// Iterates every `(epoch, counter)` pair that has produced a pad —
    /// the raw material for *cross*-session uniqueness ledgers (within a
    /// session the tracker itself already fails closed on reuse).
    pub fn issued(&self) -> impl Iterator<Item = &(u32, BlockCoords)> {
        self.seen.iter()
    }

    /// Reseeds the oracle with a pad recorded by an *earlier process
    /// life* (read back from the persisted ledger checkpoint). Returns
    /// `false` when the pad was already present — a corrupt ledger
    /// claiming duplicate pads. No telemetry: these pads were counted
    /// when first issued.
    pub fn preload(&mut self, epoch: u32, coords: BlockCoords) -> bool {
        self.seen.insert((epoch, coords))
    }
}

/// Machine state that survives a power loss: the (persistent, untrusted)
/// off-chip memory and the layer-commit journal. Everything else — MAC
/// registers, VN FSM, activations in SRAM, the session key schedule — is
/// volatile and must be rebuilt from here.
#[derive(Debug, Clone, Default)]
pub struct DurableState {
    /// Attacker-owned persistent tensor memory.
    pub dram: UntrustedDram,
    /// The layer-commit journal (also attacker-readable/writable).
    pub journal: JournalStore,
}

// ---------------------------------------------------------------------------
// The campaign models
// ---------------------------------------------------------------------------

/// Requantization shift used by every campaign model.
const CAMPAIGN_SHIFT: u32 = 6;

/// One campaign workload: a named model plus the deterministic session
/// it always runs under. Public so the throughput benchmark measures
/// exactly the tensors and sessions the crash campaign exercises.
#[derive(Debug, Clone)]
pub struct CampaignModel {
    /// Stable workload name (appears in campaign and benchmark reports).
    pub name: &'static str,
    /// The network.
    pub layers: Vec<QConvLayer>,
    /// Seeded input activations.
    pub input: QTensor3,
    /// Fixed per-model session (secret seed, nonce, shift).
    pub session: SecureSession,
}

fn session(seed: u64, nonce: u64) -> SecureSession {
    SecureSession {
        secret: DeviceSecret::from_seed(seed),
        nonce,
        shift: CAMPAIGN_SHIFT,
    }
}

/// The three campaign workloads: a channel-grouped CNN (multi-group
/// layers exercise the partial/final two-version plan), a strided CNN,
/// and an MLP of 1×1 fully-connected layers.
#[must_use]
pub fn campaign_models() -> Vec<CampaignModel> {
    let grouped = CampaignModel {
        name: "grouped-cnn",
        layers: vec![
            QConvLayer {
                weights: QTensor4::seeded(6, 6, 3, 3, 11),
                stride: 1,
                channel_groups: vec![0..2, 2..4, 4..6],
            },
            QConvLayer {
                weights: QTensor4::seeded(4, 6, 3, 3, 12),
                stride: 1,
                channel_groups: vec![0..3, 3..6],
            },
            QConvLayer::simple(QTensor4::seeded(2, 4, 3, 3, 13), 1),
        ],
        input: QTensor3::seeded(6, 10, 10, 14),
        session: session(101, 1001),
    };
    let strided = CampaignModel {
        name: "strided-cnn",
        layers: vec![
            QConvLayer::simple(QTensor4::seeded(4, 3, 3, 3, 21), 2),
            QConvLayer {
                weights: QTensor4::seeded(3, 4, 3, 3, 22),
                stride: 1,
                channel_groups: vec![0..2, 2..4],
            },
        ],
        input: QTensor3::seeded(3, 12, 12, 23),
        session: session(102, 1002),
    };
    let mlp = CampaignModel {
        name: "mlp",
        layers: vec![
            QConvLayer::fully_connected(QTensor4::seeded(16, 8, 1, 1, 31)),
            QConvLayer::fully_connected(QTensor4::seeded(8, 16, 1, 1, 32)),
            QConvLayer::fully_connected(QTensor4::seeded(4, 8, 1, 1, 33)),
        ],
        input: QTensor3::seeded(8, 1, 1, 34),
        session: session(103, 1003),
    };
    vec![grouped, strided, mlp]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_commit(seq: u32) -> JournalRecord {
        let mac_w = [7u8; 32];
        let mac_r = [9u8; 32];
        let mac_fr: [u8; 32] = std::array::from_fn(|i| mac_w[i] ^ mac_r[i]);
        JournalRecord {
            kind: JournalRecordKind::LayerCommit,
            seq,
            layer_id: 3,
            epoch: 1,
            final_vn: 2,
            base_addr: 0x2_0000,
            blocks: 24,
            k: 6,
            h: 8,
            w: 8,
            mac_w,
            mac_r,
            mac_fr,
            mac_ir: [0u8; 32],
            vn_eta: 24,
            vn_kappa: 2,
            vn_rho: 1,
            vn_emitted: 48,
        }
    }

    fn secret() -> DeviceSecret {
        DeviceSecret::from_seed(99)
    }

    #[test]
    fn record_roundtrips_through_the_sealed_encoding() {
        for rec in [sample_commit(5), JournalRecord::epoch_open(0, 2, 7)] {
            let bytes = rec.encode(&secret(), 1234);
            assert_eq!(bytes.len(), RECORD_BYTES);
            let back = JournalRecord::decode(&bytes, &secret(), 1234).unwrap();
            assert_eq!(back, rec);
        }
    }

    /// Known answers from the portable compression: a record's tag must
    /// not depend on the backend `Sha256::new` hashes on, and CI runs
    /// this under each one.
    #[test]
    fn encodings_match_known_answers() {
        let hex = |b: Vec<u8>| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        let epoch_open = concat!(
            "534a4c310100000000000000000400000000000000000000000000000000000000000000",
            "000000000000000000000000000000000000000000000000000000000000000000000000",
            "000000000000000000000000000000000000000000000000000000000000000000000000",
            "000000000000000000000000000000000000000000000000000000000000000000000000",
            "000000000000000000000000000000000000000000000000000000000000000000000000",
            "00000000000000000000000000000000000000000000000000fe692da98c074b2d4a2982",
            "b7af54dbc9df6ae573a633997f263da59c679e1e2b",
        );
        let layer_commit = concat!(
            "534a4c310201000000030000000100000002000000000002000000000018000000000000",
            "000600000008000000080000000707070707070707070707070707070707070707070707",
            "070707070707070707090909090909090909090909090909090909090909090909090909",
            "09090909090e0e0e0e0e0e0e0e0e0e0e0e0e0e0e0e0e0e0e0e0e0e0e0e0e0e0e0e0e0e0e",
            "0e0000000000000000000000000000000000000000000000000000000000000000180000",
            "0000000000020000000100000000000000300000000000000059ee3f62a1e0bbc52750a7",
            "0bd7ba9f63df0fa2a087daf0dab798ebc55613ebd3",
        );
        assert_eq!(
            hex(JournalRecord::epoch_open(0, 0, 4).encode(&secret(), 1)),
            epoch_open
        );
        assert_eq!(hex(sample_commit(1).encode(&secret(), 1)), layer_commit);
    }

    #[test]
    fn any_flipped_bit_or_foreign_nonce_is_rejected() {
        let rec = sample_commit(0);
        let bytes = rec.encode(&secret(), 1234);
        for idx in [0usize, 4, 50, RECORD_BYTES - 1] {
            let mut bad = bytes.clone();
            bad[idx] ^= 0x01;
            assert!(
                JournalRecord::decode(&bad, &secret(), 1234).is_none(),
                "flip at {idx} must break the seal"
            );
        }
        assert!(
            JournalRecord::decode(&bytes, &secret(), 1235).is_none(),
            "a journal from one execution must not replay into another"
        );
        assert!(
            JournalRecord::decode(&bytes, &DeviceSecret::from_seed(98), 1234).is_none(),
            "a journal from one device must not replay on another"
        );
    }

    #[test]
    fn commit_with_open_boundary_equation_is_refused() {
        let mut rec = sample_commit(0);
        rec.mac_fr = [0u8; 32]; // residue MAC_W ⊕ MAC_R ≠ 0 now
        let bytes = rec.encode(&secret(), 1);
        assert!(JournalRecord::decode(&bytes, &secret(), 1).is_none());
    }

    #[test]
    fn torn_tail_is_benign_and_repair_discards_it() {
        let mut store = JournalStore::new();
        store
            .append(&JournalRecord::epoch_open(0, 0, 0), &secret(), 1, &mut None)
            .unwrap();
        store
            .append(&sample_commit(1), &secret(), 1, &mut None)
            .unwrap();
        // Cut the power two beats into the next append: torn tail.
        let mut clock = CrashClock::armed(2);
        let torn = store.append(&sample_commit(2), &secret(), 1, &mut Some(&mut clock));
        assert!(torn.is_err(), "the armed clock must cut the append");
        assert_eq!(store.len(), 2 * RECORD_BYTES + 2 * 8);

        let replayed = store.replay(&secret(), 1).unwrap();
        assert_eq!(replayed.records.len(), 2);
        assert_eq!(replayed.torn_tail_bytes, 16);
        assert_eq!(replayed.last_commit().unwrap().seq, 1);

        store.repair(&secret(), 1).unwrap();
        assert_eq!(store.len(), 2 * RECORD_BYTES);
    }

    #[test]
    fn torn_epoch_open_keeps_its_epoch_number_fresh() {
        let mut store = JournalStore::new();
        store
            .append(&JournalRecord::epoch_open(0, 0, 4), &secret(), 1, &mut None)
            .unwrap();
        // EpochOpen(5) is torn mid-append: by write-ahead ordering no pad
        // of epoch 5 was ever consumed, so 5 must still be handed out.
        let mut clock = CrashClock::armed(3);
        let _ = store.append(
            &JournalRecord::epoch_open(1, 0, 5),
            &secret(),
            1,
            &mut Some(&mut clock),
        );
        let replayed = store.repair(&secret(), 1).unwrap();
        assert_eq!(replayed.max_epoch(), Some(4));
        assert_eq!(replayed.next_epoch(), 5);
    }

    #[test]
    fn full_length_tampering_is_a_breach_not_a_torn_tail() {
        let mut store = JournalStore::new();
        store
            .append(&JournalRecord::epoch_open(0, 0, 0), &secret(), 1, &mut None)
            .unwrap();
        store
            .append(&sample_commit(1), &secret(), 1, &mut None)
            .unwrap();
        store.tamper_byte(RECORD_BYTES + 10);
        assert_eq!(
            store.replay(&secret(), 1),
            Err(SecurityError::JournalIntegrity { record: 1 })
        );
        // A tampered journal is never silently repaired.
        assert!(store.repair(&secret(), 1).is_err());
    }

    #[test]
    fn sequence_gaps_are_refused() {
        let mut store = JournalStore::new();
        store
            .append(&JournalRecord::epoch_open(0, 0, 0), &secret(), 1, &mut None)
            .unwrap();
        store
            .append(&sample_commit(2), &secret(), 1, &mut None)
            .unwrap();
        assert_eq!(
            store.replay(&secret(), 1),
            Err(SecurityError::JournalIntegrity { record: 1 })
        );
    }

    #[test]
    fn pad_tracker_fires_on_reuse_and_respects_epochs() {
        let mut t = PadTracker::new();
        let c = BlockCoords {
            fmap_id: 2,
            layer_id: 2,
            version: 1,
            block_index: 9,
        };
        t.on_encrypt(3, c, 2).unwrap();
        assert_eq!(
            t.on_encrypt(3, c, 2),
            Err(SecurityError::CounterReuse {
                epoch: 3,
                layer_id: 2
            })
        );
        t.on_encrypt(4, c, 2).unwrap();
        assert_eq!(t.pads_issued(), 2);
    }
}
