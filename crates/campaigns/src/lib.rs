//! # seculator-campaigns
//!
//! The seeded campaigns that attack, crash, restart and load the secure
//! NPU. They live outside the library they test: no serving or
//! simulator path calls them, and the core crate keeps only the
//! mechanism they drive (the fault injector, the crash clock, the
//! journal, durable homes and the session scheduler).
//!
//! | campaign | driver | what it sweeps |
//! |---|---|---|
//! | fault | [`run_fault_campaign`] | five fault kinds × three persistence classes against the recovery ladder |
//! | crash | [`run_crash_campaign`] | power cuts at every interruptible instant, then journal resume |
//! | serve | [`run_serve_campaign`] | N tenants on one scheduler, one planted tampered tenant |
//! | chaos | [`run_chaos_campaign`] | faults × power cuts across concurrent tenants |
//! | restart | [`run_restart_campaign`] | fault-injecting VFS deaths, then real `kill -9` process deaths |
//! | daemon | [`run_daemon_campaign`] | the serve plan, served over the SWP1 loopback wire |
//!
//! Every campaign is a pure function of its seed and sizes (wall times
//! aside). Each returns its own typed report, and every report
//! implements [`Report`], the one thing the CLI's exit path needs:
//! a summary that is byte-identical per seed, a verdict, and the
//! per-session stage rows for `--metrics` when the campaign schedules
//! tenants. Default sizes live in [`defaults`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod crash;
mod daemon;
mod fault;
mod restart;
mod serve;

pub use crash::{run_crash_campaign, CrashCampaignReport, CrashTrial, CrashVariant};
pub use daemon::{run_daemon_campaign, DaemonCampaignReport};
pub use fault::{run_fault_campaign, FaultCampaignReport, FaultTrial};
pub use restart::{run_restart_campaign, ProcTrial, RestartReport, RestartTrial, RestartVariant};
pub use serve::{run_chaos_campaign, run_serve_campaign, ChaosCampaignReport, ServeCampaignReport};

use seculator_core::secure_infer::Instruments;
use seculator_core::telemetry::LayerRow;
use seculator_core::{
    infer_journaled, CampaignModel, CrashClock, DurableState, JournaledError, JournaledRun,
    PadTracker, SecureSession,
};

/// Every campaign's default sizes, in one place: what the CLI runs when
/// an option is absent.
pub mod defaults {
    /// Root seed of every campaign.
    pub const SEED: u64 = 42;
    /// Fault campaign: faulty trials, one injected fault each.
    pub const FAULTS: u32 = 26;
    /// Fault campaign: fault-free controls (false-positive measurement).
    pub const CLEAN: u32 = 8;
    /// Crash campaign: power cuts per model (3 models × 70 = 210 cuts).
    pub const CRASH_CUTS: u32 = 70;
    /// Serve and daemon campaigns: tenant sessions.
    pub const SESSIONS: u32 = 4;
    /// Chaos campaign: tenant sessions, half of them targeted.
    pub const CHAOS_SESSIONS: u32 = 8;
    /// Restart campaign: in-process VFS kills per model.
    pub const RESTART_CUTS: u32 = 14;
    /// Restart campaign: real process kills per model (0 skips the
    /// process phase).
    pub const PROC_CUTS: u32 = 4;
    /// Daemon campaign: extra load-phase requests per clean tenant (0
    /// skips the load phase).
    pub const LOAD_REQUESTS: u32 = 0;
}

/// What the CLI's one exit path needs from a campaign report: print the
/// summary, write `--metrics`, and exit 1 unless it passed.
pub trait Report {
    /// Deterministic multi-line summary, byte-identical per seed (no
    /// wall times).
    fn summary(&self) -> String;

    /// Whether every oracle held.
    fn passed(&self) -> bool;

    /// Per-session stage-time rows for `--metrics`, one per tenant
    /// (empty unless the campaign schedules tenants). Never printed:
    /// wall times are not byte-stable.
    fn session_rows(&self) -> &[LayerRow] {
        &[]
    }
}

/// `PASS` or `FAIL`, as every verdict line spells it.
fn verdict(passed: bool) -> &'static str {
    if passed {
        "PASS"
    } else {
        "FAIL"
    }
}

/// One tenant's verdict in the serve, chaos and daemon campaigns,
/// printed as `tenant N: model[adversary] → detail`.
#[derive(Debug, Clone)]
pub struct TenantTrial {
    /// Tenant id.
    pub tenant: u32,
    /// Model-zoo workload the tenant ran.
    pub model: &'static str,
    /// What the campaign aimed at this tenant (`tampered`, or a chaos
    /// mix such as `chaos: 1 faults, 2 cuts`); `None` for a clean one.
    pub adversary: Option<String>,
    /// Whether the tenant met its oracle.
    pub ok: bool,
    /// Deterministic one-line explanation.
    pub detail: String,
}

impl std::fmt::Display for TenantTrial {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant {}: {}", self.tenant, self.model)?;
        if let Some(adversary) = &self.adversary {
            write!(f, " [{adversary}]")?;
        }
        write!(f, " → {}", self.detail)
    }
}

/// One clean `infer_journaled` run of `model` under `session`, on a
/// fresh journal and pad tracker, ticking `clock` when one is given.
fn journaled(
    model: &CampaignModel,
    session: &SecureSession,
    clock: Option<&mut CrashClock>,
) -> Result<JournaledRun, JournaledError> {
    infer_journaled(
        &model.layers,
        &model.input,
        session,
        &mut DurableState::default(),
        &mut Instruments {
            tracker: &mut PadTracker::new(),
            injector: None,
            clock,
        },
    )
}

/// Counting-clock calibration: one clean run of `model` under its own
/// session, and the number of interruptible instants it passed — the
/// space the crash and chaos campaigns draw their power cuts from.
fn calibrate(model: &CampaignModel) -> (Result<JournaledRun, JournaledError>, u64) {
    let mut clock = CrashClock::counting();
    let run = journaled(model, &model.session, Some(&mut clock));
    (run, clock.steps())
}
