//! # seculator-core
//!
//! The Seculator (HPCA 2023) secure-NPU architecture: on-the-fly version
//! number generation, layer-level XOR-MAC integrity, and timing models of
//! all six designs the paper evaluates.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// The secure pipeline must never panic on adversarial input: tampering
// surfaces as `SecurityError`, not as a crash. Tests may unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod audit;
pub mod command;
pub mod detection;
pub mod durable;
pub mod engine;
pub mod error;
pub mod fault;
pub mod functional;
pub mod hwcost;
pub mod journal;
pub mod mac_verify;
pub mod mea;
pub mod noise;
pub mod npu;
pub mod retry;
pub mod secure_infer;
pub mod secure_memory;
pub mod session;
pub mod storage;
pub mod telemetry;
pub mod vngen;
pub mod widening;

pub use audit::{
    audit_network, AuditFinding, AuditReport, IncidentLog, IncidentRecord, LadderSummary,
    RecoveryAction,
};
pub use command::{AuthenticatedCommand, Command, CommandError, HostChannel, NpuCommandProcessor};
pub use detection::{detection_latency, DetectionLatency, RecoveryCost};
pub use durable::{
    assemble_frames, atomic_write, audit_home, crc32, output_digest, run_persistent, scan_frames,
    tamper_frame_fix_crc, DurableError, DurableHome, FaultVfs, FrameScan, HomeAudit, OpenedHome,
    PersistentOutcome, PersistentStats, StdVfs, Vfs, VfsFault, VfsFaultKind, DRAM_FILE, FILE_MAGIC,
    JOURNAL_FILE, LEDGER_FILE, MANIFEST_FILE,
};
pub use engine::{make_engine, SchemeKind, SchemeTiming, TileSecurityCost};
pub use error::SecurityError;
pub use fault::{
    splitmix, AccessCtx, CrashClock, CrashPhase, FaultInjector, FaultKind, FaultSpec, Persistence,
    PowerLoss,
};
pub use functional::{Attack, FunctionalNpu, FunctionalReport};
pub use journal::{
    campaign_models, CampaignModel, DurableState, JournalRecord, JournalRecordKind, JournalReplay,
    JournalStore, PadTracker,
};
pub use mac_verify::{EagerLayerVerifier, LayerMacVerifier, ReadOnlyVerifier, VerifyOutcome};
pub use mea::{evaluate_defense, infer_layer_dims, AddressTraceObserver, MeaReport};
pub use noise::{observe_network_with_noise, observe_with_noise, NoiseConfig, NoisyObservation};
pub use npu::TimingNpu;
pub use secure_infer::{
    infer_journaled, infer_plain, infer_resume, AbortReport, Instruments, JournaledError,
    JournaledRun, QConvLayer, SecureSession,
};
pub use secure_memory::{BlockCoords, CryptoDatapath, DatapathMode, UntrustedDram};
pub use session::{
    tenant_identity, AdmitSpec, PadLedger, QuarantineReport, ServeReport, SessionManager,
    SessionOutcome, SessionVerdict,
};
pub use storage::{table7_rows, StorageFootprint};
pub use telemetry::Snapshot as TelemetrySnapshot;
pub use vngen::{FirstReadDetector, PatternCounter, VnGenerator};
pub use widening::{intersperse_dummy, widen_layer, widen_network};
