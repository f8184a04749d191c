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
pub mod pipeline;
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
    assemble_frames, atomic_write, audit_home, crc32, output_digest, run_persistent,
    run_restart_vfs_campaign, scan_frames, tamper_frame_fix_crc, DurableError, DurableHome,
    FaultVfs, FrameScan, HomeAudit, OpenedHome, PersistentOutcome, PersistentStats,
    RestartCampaignConfig, RestartTrial, RestartVariant, RestartVfsReport, StdVfs, Vfs, VfsFault,
    VfsFaultKind, DRAM_FILE, FILE_MAGIC, JOURNAL_FILE, LEDGER_FILE, MANIFEST_FILE,
};
pub use engine::{make_engine, SchemeKind, SchemeTiming, TileSecurityCost};
pub use error::SecurityError;
pub use fault::{
    run_campaign, AccessCtx, CampaignConfig, CampaignReport, CrashClock, CrashPhase, FaultInjector,
    FaultKind, FaultSpec, Persistence, PowerLoss, TrialResult,
};
pub use functional::{Attack, FunctionalNpu, FunctionalReport};
pub use journal::{
    campaign_models, run_crash_campaign, CampaignModel, CrashCampaignConfig, CrashCampaignReport,
    CrashTrial, CrashVariant, DurableState, JournalRecord, JournalRecordKind, JournalReplay,
    JournalStore, PadTracker,
};
pub use mac_verify::{EagerLayerVerifier, LayerMacVerifier, ReadOnlyVerifier, VerifyOutcome};
pub use mea::{evaluate_defense, infer_layer_dims, AddressTraceObserver, MeaReport};
pub use noise::{observe_network_with_noise, observe_with_noise, NoiseConfig, NoisyObservation};
pub use npu::TimingNpu;
pub use pipeline::{amortization_curve, run_batch, BatchStats, PipelineConfig};
pub use retry::{RestartPolicy, RetryPolicy, RobustnessPolicy, SheddingPolicy};
pub use secure_infer::{
    infer_journaled, infer_plain, infer_protected, infer_protected_mode, infer_resume, AbortReport,
    InferError, Instruments, JournaledError, JournaledRun, QConvLayer, RecoveryPolicy,
    SecureSession,
};
pub use secure_memory::{BlockCoords, CryptoDatapath, DatapathCache, DatapathMode, UntrustedDram};
pub use session::{
    run_chaos_campaign, run_serve_campaign, serve_plan, AdmitSpec, ChaosCampaignConfig,
    ChaosCampaignReport, ChaosTrial, PadLedger, PlannedTenant, QuarantineReport,
    ServeCampaignConfig, ServeCampaignReport, ServePlan, ServeReport, ServeTrial, SessionManager,
    SessionOutcome, SessionVerdict,
};
pub use storage::{table7_rows, StorageFootprint};
pub use telemetry::{layer_breakdown, Snapshot as TelemetrySnapshot, SpanEvent};
pub use vngen::{FirstReadDetector, PatternCounter, VnGenerator};
pub use widening::{intersperse_dummy, widen_layer, widen_network};
