//! The structured error type of the secure pipeline.
//!
//! Every failure the secure datapath can observe — integrity breaches,
//! exhausted recovery, malformed state — surfaces as a [`SecurityError`]
//! instead of a panic, so the serving layer can distinguish "tampering
//! detected and handled" from "bug". The enum is hand-implemented in the
//! `thiserror` idiom (`Display` + `std::error::Error` per variant)
//! because this build environment has no registry access for the derive
//! crate; the shape is drop-in compatible if it ever lands.

use crate::engine::SchemeKind;

/// Why a secure operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SecurityError {
    /// A layer-boundary `MAC_W = MAC_FR ⊕ MAC_R` check failed.
    LayerIntegrity {
        /// Layer whose write-set failed verification.
        layer_id: u32,
    },
    /// A read-only tensor (weights) failed verification.
    WeightIntegrity {
        /// Layer whose weights failed.
        layer_id: u32,
    },
    /// The final output drain failed verification.
    OutputIntegrity,
    /// Detection fired and every recovery avenue was exhausted; the
    /// engine aborted the inference gracefully (audit record emitted).
    RecoveryExhausted {
        /// Layer that could not be recovered.
        layer_id: u32,
        /// Re-fetch attempts spent on the layer.
        refetches: u32,
        /// Layer re-executions spent on the layer.
        reexecutions: u32,
    },
    /// The VN generator ran dry mid-layer: the schedule requested more
    /// version numbers than the write/read pattern provides.
    VnExhausted {
        /// Layer whose schedule overran its pattern.
        layer_id: u32,
        /// `true` for the write sequence, `false` for the read sequence.
        write: bool,
    },
    /// A schedule step touched a tensor that was never given an address
    /// region (e.g. a weight read on a weight-less layer).
    MissingRegion {
        /// Layer with the malformed schedule.
        layer_id: u32,
        /// Human-readable tensor name.
        tensor: &'static str,
    },
    /// A schedule step combined a tensor and operation the secure
    /// datapath never issues (e.g. a weight write at inference time).
    MalformedAccess {
        /// Layer with the malformed schedule.
        layer_id: u32,
        /// Human-readable description of the access.
        access: &'static str,
    },
    /// A caller asked a timing engine for a metadata structure the
    /// scheme does not have (e.g. Seculator's MAC cache).
    MetadataStructureMissing {
        /// The scheme that was asked.
        scheme: SchemeKind,
        /// The structure that does not exist.
        structure: &'static str,
    },
    /// A layer-commit journal record failed its integrity tag, carried a
    /// bad magic/sequence number, or was internally inconsistent — the
    /// journal was tampered with (or belongs to a different execution)
    /// and must not be trusted for resume.
    JournalIntegrity {
        /// Index of the offending record in the journal.
        record: u32,
    },
    /// The inference was interrupted by a power loss (recorded in the
    /// resumed run's audit trail to stitch the log across the crash).
    /// Not a breach: the adversary gains nothing from cutting power.
    PowerInterrupted {
        /// Layer that was executing when power was cut.
        layer_id: u32,
    },
    /// A journaled VN-FSM position is beyond the pattern's capacity: no
    /// honest run can emit more VNs than `⟨η, κ, ρ⟩` provides, so an
    /// out-of-range position is a tamper/corruption signal — it must
    /// never be clamped into a valid-looking FSM state.
    PatternResumeOutOfRange {
        /// The journaled (claimed) number of VNs already emitted.
        emitted: u64,
        /// The pattern's total length `η · κ · ρ`.
        capacity: u64,
    },
    /// The datapath-level reuse detector observed a second encryption
    /// under an already-used (epoch, counter) pair — a freshness
    /// violation that must abort the run before ciphertext is released.
    CounterReuse {
        /// Nonce epoch in which the reuse occurred.
        epoch: u32,
        /// Layer that attempted the reused encryption.
        layer_id: u32,
    },
    /// A tenant session exceeded its per-tenant deadline budget of
    /// scheduler rounds and was quarantined fail-closed. Not a breach:
    /// an availability verdict, recorded so the audit trail explains why
    /// no output was released.
    DeadlineExceeded {
        /// Quarantined tenant id.
        tenant: u32,
        /// The tenant's round budget from promotion.
        budget_rounds: u64,
        /// Rounds actually consumed when the budget check fired.
        used_rounds: u64,
    },
    /// A tenant session spent its scheduler-level retry ceiling (every
    /// journal-resume re-admission failed again) and was quarantined
    /// fail-closed rather than retried forever.
    RetryCeilingExhausted {
        /// Quarantined tenant id.
        tenant: u32,
        /// Session retries consumed.
        retries: u32,
    },
    /// A durable on-disk file violated its CRC'd framing: a complete
    /// frame whose checksum does not match, a bad file magic, or a
    /// malformed length prefix. This is the *accidental-corruption*
    /// class (bit-rot, misdirected write): the integrity tag was never
    /// even checked, so no tamper verdict is implied — but the file is
    /// unusable and the open must fail closed rather than guess.
    DurableCorruption {
        /// Which durable file failed (`"journal"`, `"ledger"`, ...).
        file: &'static str,
        /// Zero-based index of the offending frame within the file.
        frame: u32,
    },
    /// The storage backing a tenant's on-disk durable home failed an
    /// I/O operation mid-session. An availability verdict, not a
    /// breach: the on-disk state stays consistent (a torn tail repairs
    /// benignly) and a later re-admission may reopen and resume it.
    DurableIo {
        /// Tenant whose durable home failed.
        tenant: u32,
    },
    /// A tenant session was cancelled on explicit client request (the
    /// daemon's session-abort verb). Sealed fail-closed through the
    /// quarantine path — journal kept for audit, pads never reissued —
    /// but not a breach: the client asked for it.
    SessionCancelled {
        /// Cancelled tenant id.
        tenant: u32,
    },
    /// A durable on-disk file passed its CRC framing but failed its
    /// device-secret-bound integrity tag: the bytes were written
    /// deliberately (the checksum is consistent) yet were not produced
    /// under this session's key — the attacker-owned-storage tamper
    /// class. Must never be repaired or skipped.
    DurableTamper {
        /// Which durable file failed (`"manifest"`, `"ledger"`, ...).
        file: &'static str,
    },
}

impl SecurityError {
    /// True when the error reports *detected tampering* (as opposed to a
    /// malformed schedule or a misuse of the API). Integrity-violating
    /// faults must always surface as one of these.
    #[must_use]
    pub fn is_breach(&self) -> bool {
        matches!(
            self,
            Self::LayerIntegrity { .. }
                | Self::WeightIntegrity { .. }
                | Self::OutputIntegrity
                | Self::RecoveryExhausted { .. }
                | Self::JournalIntegrity { .. }
                | Self::PatternResumeOutOfRange { .. }
                | Self::CounterReuse { .. }
                | Self::DurableTamper { .. }
        )
    }
}

impl std::fmt::Display for SecurityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::LayerIntegrity { layer_id } => {
                write!(
                    f,
                    "integrity breach detected for layer {layer_id}'s write set"
                )
            }
            Self::WeightIntegrity { layer_id } => {
                write!(f, "weight tensor of layer {layer_id} failed verification")
            }
            Self::OutputIntegrity => write!(f, "network output failed final verification"),
            Self::RecoveryExhausted {
                layer_id,
                refetches,
                reexecutions,
            } => write!(
                f,
                "recovery exhausted at layer {layer_id} \
                 ({refetches} re-fetches, {reexecutions} re-executions); inference aborted"
            ),
            Self::VnExhausted { layer_id, write } => write!(
                f,
                "layer {layer_id}: {} VN sequence exhausted before the schedule finished",
                if *write { "write" } else { "read" }
            ),
            Self::MissingRegion { layer_id, tensor } => {
                write!(f, "layer {layer_id}: no address region bound for {tensor}")
            }
            Self::MalformedAccess { layer_id, access } => {
                write!(
                    f,
                    "layer {layer_id}: schedule contains unexpected access ({access})"
                )
            }
            Self::MetadataStructureMissing { scheme, structure } => {
                write!(f, "scheme {scheme} has no {structure}")
            }
            Self::JournalIntegrity { record } => {
                write!(f, "journal record {record} failed integrity verification")
            }
            Self::PowerInterrupted { layer_id } => {
                write!(
                    f,
                    "power lost during layer {layer_id}; resumed from journal"
                )
            }
            Self::PatternResumeOutOfRange { emitted, capacity } => {
                write!(
                    f,
                    "journaled VN position {emitted} exceeds the pattern capacity {capacity}; \
                     journal untrusted for resume"
                )
            }
            Self::CounterReuse { epoch, layer_id } => {
                write!(
                    f,
                    "counter reuse detected in epoch {epoch} at layer {layer_id}; \
                     inference aborted before ciphertext release"
                )
            }
            Self::DeadlineExceeded {
                tenant,
                budget_rounds,
                used_rounds,
            } => write!(
                f,
                "tenant {tenant} exceeded its deadline budget \
                 ({used_rounds} rounds used of {budget_rounds}); session quarantined"
            ),
            Self::RetryCeilingExhausted { tenant, retries } => write!(
                f,
                "tenant {tenant} exhausted its session-retry ceiling \
                 after {retries} retries; session quarantined"
            ),
            Self::DurableIo { tenant } => write!(
                f,
                "tenant {tenant}'s durable home failed an i/o operation; \
                 session aborted (on-disk state remains resumable)"
            ),
            Self::SessionCancelled { tenant } => write!(
                f,
                "tenant {tenant} cancelled on client request; session sealed"
            ),
            Self::DurableCorruption { file, frame } => write!(
                f,
                "durable {file} file frame {frame} failed its CRC framing \
                 (accidental corruption); open refused"
            ),
            Self::DurableTamper { file } => write!(
                f,
                "durable {file} file failed its sealed integrity tag \
                 (tamper); open refused"
            ),
        }
    }
}

impl std::error::Error for SecurityError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breach_classification() {
        assert!(SecurityError::LayerIntegrity { layer_id: 0 }.is_breach());
        assert!(SecurityError::OutputIntegrity.is_breach());
        assert!(SecurityError::RecoveryExhausted {
            layer_id: 1,
            refetches: 2,
            reexecutions: 3
        }
        .is_breach());
        assert!(SecurityError::JournalIntegrity { record: 0 }.is_breach());
        assert!(SecurityError::PatternResumeOutOfRange {
            emitted: 9,
            capacity: 4
        }
        .is_breach());
        assert!(SecurityError::CounterReuse {
            epoch: 1,
            layer_id: 0
        }
        .is_breach());
        assert!(!SecurityError::PowerInterrupted { layer_id: 1 }.is_breach());
        // Quarantine verdicts are availability outcomes, not breaches:
        // the ladder/journal already classified any underlying tamper.
        assert!(!SecurityError::DeadlineExceeded {
            tenant: 3,
            budget_rounds: 8,
            used_rounds: 9
        }
        .is_breach());
        assert!(!SecurityError::RetryCeilingExhausted {
            tenant: 3,
            retries: 2
        }
        .is_breach());
        assert!(!SecurityError::SessionCancelled { tenant: 3 }.is_breach());
        assert!(!SecurityError::DurableIo { tenant: 3 }.is_breach());
        assert!(!SecurityError::VnExhausted {
            layer_id: 0,
            write: true
        }
        .is_breach());
        assert!(!SecurityError::MetadataStructureMissing {
            scheme: SchemeKind::Seculator,
            structure: "mac cache"
        }
        .is_breach());
        // CRC violations are accidents: fail closed, but no tamper
        // verdict. Tag violations under a consistent CRC are deliberate.
        assert!(!SecurityError::DurableCorruption {
            file: "journal",
            frame: 4
        }
        .is_breach());
        assert!(SecurityError::DurableTamper { file: "ledger" }.is_breach());
    }

    #[test]
    fn display_is_informative() {
        let e = SecurityError::RecoveryExhausted {
            layer_id: 2,
            refetches: 3,
            reexecutions: 1,
        };
        let s = e.to_string();
        assert!(s.contains("layer 2") && s.contains("3 re-fetches"), "{s}");
    }
}
