//! Multi-session secure inference: N isolated tenant sessions scheduled
//! round-robin over one secure datapath.
//!
//! Seculator's per-tenant security state is tiny by construction — a MAC
//! register file, a `⟨η, κ, ρ⟩` VN counter, and a nonce epoch — which is
//! exactly what makes cheap multi-session multiplexing possible on one
//! NPU (unlike host-managed VN stores, whose per-tenant metadata would
//! have to be swapped wholesale). This module turns that observation
//! into machinery:
//!
//! - [`SessionManager`] holds N tenant sessions, each with a **derived
//!   key** (`DeviceSecret::derive_tenant`), an independent nonce epoch,
//!   its own [`PadTracker`], MAC register file and VN state (inside its
//!   journaled cursor), and a private journal namespace (its own
//!   [`DurableState`]).
//! - The batch scheduler interleaves **per-layer work items** from
//!   concurrent sessions over the existing `DatapathMode::Parallel`
//!   seal/open datapath: every scheduler round gives each running
//!   session exactly one layer step, in fixed tenant order — round-robin
//!   fairness by construction.
//! - **Backpressure**: at most `max_inflight` sessions run concurrently;
//!   arrivals beyond that queue until a slot frees.
//! - **Fail-closed isolation**: a tamper or crash verdict in one session
//!   aborts *only* that session ([`SessionVerdict::Aborted`]); every
//!   other session runs to completion with output bit-identical to its
//!   single-session run (the scheduler only ever calls the same
//!   `step_journaled_layer` the single-tenant drivers use).
//!
//! A **cross-session pad ledger** ([`PadLedger`]) extends the pad-reuse
//! oracle across tenants: no CTR pad — identified by its `(derived key,
//! epoch, counter)` triple — is ever issued twice across any pair of
//! sessions.
//!
//! One switch, [`SessionManager::harden`], turns the classic scheduler
//! into the **hardened** one; its bounds are the constants in
//! [`crate::retry`]:
//!
//! - **Session retries with backoff**: a failed attempt (recovery ladder
//!   exhausted, or a power cut) parks the tenant in a backoff state and
//!   later re-admits it *from its own journal* under a fresh nonce epoch
//!   — the same resume path `infer_resume` uses — at most
//!   [`MAX_SESSION_RETRIES`] times.
//! - **Load shedding**: sustained fault pressure lowers the *effective*
//!   `max_inflight` one slot at a time (never below a floor) and clean
//!   rounds restore it, so the fleet degrades instead of collapsing.
//!
//! In either configuration, **quarantine** seals a tenant fail-closed —
//! journal kept for audit, pads never reissued, no output released —
//! while healthy tenants keep committing layers. Three causes seal one:
//! the retry ceiling (hardened only), the tenant's deadline budget
//! ([`AdmitSpec::deadline_rounds`]), and a client cancel. The retry
//! ceiling alone bounds how long a hardened tenant can hold a slot
//! without committing a layer (DESIGN §13), so no watchdog is needed.
//!
//! The serve and chaos campaigns that drive all of this from a seed live
//! in the `seculator-campaigns` crate.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::time::Instant;

use crate::audit::{IncidentLog, IncidentRecord, LadderSummary, RecoveryAction};
use crate::detection::RecoveryCost;
use crate::durable::{DurableError, DurableHome, PersistentStats, StdVfs};
use crate::error::SecurityError;
use crate::fault::{splitmix, CrashClock, FaultInjector, PowerLoss};
use crate::journal::{DurableState, PadTracker};
use crate::retry::{
    backoff_rounds, MAX_SESSION_RETRIES, MIN_INFLIGHT, RESTORE_AFTER_CLEAN_ROUNDS,
    SHED_AFTER_FAULTY_ROUNDS,
};
use crate::secure_infer::{
    open_journaled_cursor, open_resume_cursor, step_journaled_layer, Instruments, JournaledCursor,
    JournaledError, JournaledRun, QConvLayer, SecureSession,
};
use crate::secure_memory::BlockCoords;
use crate::telemetry::{self, Counter, LayerRow};
use seculator_compute::quant::QTensor3;
use seculator_crypto::keys::DeviceSecret;
use std::sync::Arc;

/// One tenant's admission request.
#[derive(Debug)]
pub struct AdmitSpec {
    /// Tenant id — unique within one manager (it selects the derived
    /// key, so a duplicate would alias another tenant's pads).
    pub tenant: u32,
    /// Workload label for reports.
    pub name: String,
    /// The tenant's network. Weights are public in the threat model
    /// (only activations are confidential), so same-model tenants share
    /// one immutable copy — the classic multi-tenant serving
    /// amortization; per-session state is what stays duplicated.
    pub layers: Arc<Vec<QConvLayer>>,
    /// The tenant's input activations.
    pub input: QTensor3,
    /// First scheduler round this tenant may start (arrival trace).
    pub arrival_round: u64,
    /// Optional seeded DRAM adversary scoped to this tenant's memory.
    pub injector: Option<FaultInjector>,
    /// Per-tenant deadline budget, in scheduler rounds counted from
    /// promotion (`None` = no deadline). A tenant that exceeds it is
    /// quarantined fail-closed.
    pub deadline_rounds: Option<u64>,
    /// Scripted power cuts, one per execution attempt: attempt `k` arms
    /// a [`CrashClock`] at `crash_cuts[k]` datapath steps (counted from
    /// that attempt's start). Empty = never cut.
    pub crash_cuts: Vec<u64>,
    /// Extra salt folded into the tenant's derived nonce (`0` = the
    /// classic tenant derivation, bit-identical to every pre-salt
    /// campaign). The serving daemon salts each *repeat* request a
    /// tenant submits after its previous session was harvested, so the
    /// re-admitted session draws from a fresh nonce space and the
    /// cross-request pad ledger stays collision-free by construction.
    pub nonce_salt: u64,
    /// Optional on-disk durable home directory for this tenant: when
    /// set, promotion opens (or resumes) a [`DurableHome`] rooted here,
    /// every layer commit is checkpointed to disk before it is
    /// acknowledged, and a later manager — a restarted daemon — that
    /// admits the same tenant/salt over the same directory resumes from
    /// the sealed journal instead of starting over.
    pub home_dir: Option<PathBuf>,
}

/// Why and when the scheduler sealed one tenant fail-closed.
#[derive(Debug)]
pub struct QuarantineReport {
    /// Quarantined tenant id.
    pub tenant: u32,
    /// The availability verdict that sealed the session (one of
    /// [`SecurityError::RetryCeilingExhausted`],
    /// [`SecurityError::DeadlineExceeded`],
    /// [`SecurityError::SessionCancelled`]).
    pub cause: SecurityError,
    /// Session retries consumed before the seal.
    pub retries: u32,
    /// Layer commits the sealed journal holds (kept for audit, never
    /// resumed).
    pub commits: u32,
    /// Scheduler round of the seal.
    pub round: u64,
}

/// Lifecycle of one admitted tenant.
#[derive(Debug)]
enum TenantState {
    /// Not yet arrived per the arrival trace.
    Waiting,
    /// Arrived, but held back by the admission cap (backpressure).
    Queued,
    /// Actively stepped by the scheduler.
    Running(Box<JournaledCursor>),
    /// Parked after a failed attempt; re-admitted from its journal once
    /// `resume_at` arrives (`loss` carries the power-cut record to
    /// stitch into the resumed audit trail).
    Backoff {
        /// First round the scheduler may resume this tenant.
        resume_at: u64,
        /// The crash that ended the attempt, when it was a power cut.
        loss: Option<PowerLoss>,
    },
    /// Terminal: completed, aborted or quarantined.
    Done(SessionVerdict),
}

#[derive(Debug)]
struct Tenant {
    id: u32,
    name: String,
    layers: Arc<Vec<QConvLayer>>,
    input: QTensor3,
    session: SecureSession,
    arrival_round: u64,
    durable: DurableState,
    tracker: PadTracker,
    injector: Option<FaultInjector>,
    state: TenantState,
    started_round: u64,
    rounds_serviced: u64,
    commits: u32,
    /// Layer commits journaled across every attempt — what
    /// [`SessionManager::progress_of`] reports.
    journaled: u32,
    started_at: Option<Instant>,
    latency_ns: u64,
    /// Per-tenant deadline budget from the admission spec.
    deadline_rounds: Option<u64>,
    /// Scripted power cuts not yet armed (front = next attempt's cut).
    cut_queue: VecDeque<u64>,
    /// The current attempt's armed crash clock (persists across the
    /// attempt's scheduler steps; re-armed per attempt).
    clock: Option<CrashClock>,
    /// Session retries consumed (journal re-admissions).
    retries: u32,
    /// Per-tenant splitmix stream for backoff jitter.
    backoff_rng: u64,
    /// Audit records salvaged from failed attempts and the quarantine
    /// seal; they leave as [`SessionOutcome::salvaged`]. Every record
    /// already went through the `IncidentLog::push` telemetry funnel
    /// once.
    incidents: IncidentLog,
    /// The deadline budget was exceeded at least once.
    deadline_missed: bool,
    /// Sum of the stage-time rows of every layer step this tenant took
    /// (`layer` holds the tenant id).
    row: LayerRow,
    /// Wall-clock instant the arrival trace released this tenant (start
    /// of its scheduler-queue wait).
    arrived_at: Option<Instant>,
    /// Wall time spent queued between arrival and first promotion, in
    /// nanoseconds — reported separately from service latency so queue
    /// buildup under load is not mistaken for slow service.
    queue_ns: u64,
    /// Optional on-disk durable home (daemon persistence).
    home: Option<TenantHome>,
}

/// One durable tenant's on-disk anchor: the VFS rooted at its home
/// directory, the opened [`DurableHome`] (populated at promotion), and
/// the durable-layer stats. A home that errors is dropped back to `None`
/// so a re-admission reopens it from disk — the single-use discipline
/// [`DurableHome`] demands.
#[derive(Debug)]
struct TenantHome {
    dir: PathBuf,
    vfs: Option<StdVfs>,
    home: Option<DurableHome>,
    stats: PersistentStats,
}

/// Lowers a durable-layer failure into the scheduler's per-tenant error
/// domain. I/O faults become [`SecurityError::DurableIo`] — an
/// availability verdict that aborts *this* tenant fail-closed while the
/// on-disk state stays consistent for a later re-admission.
fn home_error(tenant: u32, e: DurableError) -> JournaledError {
    match e {
        DurableError::Io(_) => JournaledError::Security(SecurityError::DurableIo { tenant }),
        DurableError::Crashed(loss) => JournaledError::Crashed(loss),
        DurableError::Aborted(report) => JournaledError::Aborted(report),
        DurableError::Security(err) => JournaledError::Security(err),
    }
}

impl Tenant {
    fn is_terminal(&self) -> bool {
        matches!(self.state, TenantState::Done(_))
    }

    /// Running and backed-off sessions both hold an admission slot —
    /// a parked tenant's journal and pads are live.
    fn holds_slot(&self) -> bool {
        matches!(
            self.state,
            TenantState::Running(_) | TenantState::Backoff { .. }
        )
    }
}

/// Terminal verdict of one tenant session.
#[derive(Debug)]
pub enum SessionVerdict {
    /// Verified completion; the run report carries the output.
    Completed(Box<JournaledRun>),
    /// Fail-closed abort; no output was released.
    Aborted(Box<JournaledError>),
    /// Sealed fail-closed (retry ceiling, deadline budget, or client
    /// cancel); no output was released.
    Quarantined(Box<QuarantineReport>),
}

/// One tenant's final outcome.
#[derive(Debug)]
pub struct SessionOutcome {
    /// Tenant id.
    pub tenant: u32,
    /// Workload label from the admission spec.
    pub name: String,
    /// Round the arrival trace released this tenant.
    pub arrival_round: u64,
    /// Round the scheduler actually promoted it (≥ arrival under
    /// backpressure).
    pub started_round: u64,
    /// Layer steps the scheduler granted this tenant.
    pub rounds_serviced: u64,
    /// Layer-commit records the tenant journaled.
    pub commits: u32,
    /// Wall time from promotion to the terminal state, in nanoseconds
    /// — pure *service* time, excluding any scheduler-queue wait.
    pub latency_ns: u64,
    /// Wall time from arrival to promotion, in nanoseconds — the
    /// scheduler-queue delay, reported separately so per-session latency
    /// does not conflate queue buildup with slow service.
    pub queue_ns: u64,
    /// Scheduler-level session retries this tenant consumed (journal
    /// re-admissions after a failed attempt).
    pub retries: u32,
    /// The tenant exceeded its deadline budget.
    pub deadline_missed: bool,
    /// How the session ended.
    pub verdict: SessionVerdict,
    /// Audit records of the failed attempts before the terminal one and
    /// of the quarantine seal, in order. The terminal attempt's own
    /// records travel inside the verdict.
    pub salvaged: IncidentLog,
    /// Sum of the stage-time rows of every layer step this tenant took,
    /// failed attempts included, with the `layer` field carrying the
    /// tenant id; all zero when the `telemetry` feature is off.
    pub row: LayerRow,
}

impl SessionOutcome {
    /// The verified output, when the session completed.
    #[must_use]
    pub fn output(&self) -> Option<&QTensor3> {
        match &self.verdict {
            SessionVerdict::Completed(run) => Some(&run.output),
            SessionVerdict::Aborted(_) | SessionVerdict::Quarantined(_) => None,
        }
    }
}

/// Cross-session pad-uniqueness ledger: a pad is identified by the
/// `(derived key identity, epoch, counter)` triple that generated it,
/// where the key identity is the `(secret, nonce)` pair fed to the KDF.
/// Within one session the [`PadTracker`] already fails closed on reuse;
/// this ledger extends the assertion *across* sessions, where distinct
/// derived keys are what keeps equal counters harmless.
///
/// Entries are keyed by key identity, each holding that identity's
/// `(epoch, counter)` set as a [`PadTracker`]. A session whose identity
/// is new to the ledger is absorbed whole, without hashing a pad; only
/// a repeated identity is merged pad by pad (DESIGN §12).
#[derive(Debug, Default)]
pub struct PadLedger {
    identities: HashMap<(DeviceSecret, u64), PadTracker>,
    pads: u64,
    collisions: u64,
}

impl PadLedger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one issued pad; returns `false` (and counts a collision)
    /// when the same key identity already generated it.
    pub fn insert(
        &mut self,
        secret: DeviceSecret,
        nonce: u64,
        epoch: u32,
        coords: BlockCoords,
    ) -> bool {
        let fresh = self
            .identities
            .entry((secret, nonce))
            .or_default()
            .preload(epoch, coords);
        if fresh {
            self.pads += 1;
        } else {
            self.collisions += 1;
        }
        fresh
    }

    /// Distinct pads recorded.
    #[must_use]
    pub fn pads(&self) -> u64 {
        self.pads
    }

    /// Collisions observed (must be 0 for isolated sessions).
    #[must_use]
    pub fn collisions(&self) -> u64 {
        self.collisions
    }

    /// Absorbs every pad a session's tracker issued under its key.
    pub fn absorb(&mut self, session: &SecureSession, tracker: &PadTracker) {
        if let Entry::Vacant(slot) = self.identities.entry((session.secret, session.nonce)) {
            self.pads += tracker.pads_issued() as u64;
            slot.insert(tracker.clone());
            return;
        }
        for &(epoch, coords) in tracker.issued() {
            self.insert(session.secret, session.nonce, epoch, coords);
        }
    }
}

/// The key identity tenant `tenant_id` gets under a device `root` and
/// `base_nonce`: a tenant-derived sub-secret and a tenant-mixed nonce,
/// with `salt` folded into the nonce (`0` is the classic derivation).
/// Every [`SessionManager`] derives its sessions through this, so a
/// solo reference run built from it uses exactly the keys the scheduler
/// gives that tenant.
#[must_use]
pub fn tenant_identity(
    root: &DeviceSecret,
    base_nonce: u64,
    tenant_id: u32,
    salt: u64,
) -> (DeviceSecret, u64) {
    let mut mix = base_nonce ^ u64::from(tenant_id) ^ salt;
    (root.derive_tenant(tenant_id), splitmix(&mut mix))
}

/// Everything one [`SessionManager::run`] produced.
#[derive(Debug)]
pub struct ServeReport {
    /// Scheduler rounds executed.
    pub rounds: u64,
    /// Per-tenant outcomes, in admission order.
    pub outcomes: Vec<SessionOutcome>,
    /// Distinct pads in the manager's cross-session ledger.
    pub pads_issued: u64,
    /// Cross-session pad collisions (must be 0).
    pub pad_collisions: u64,
    /// Incident records merged across every tenant, in tenant order.
    pub incidents: IncidentLog,
    /// Largest per-layer tensor in blocks across tenants.
    pub max_blocks: u64,
    /// Scheduler-level session retries granted (journal re-admissions
    /// after failed attempts), summed over tenants.
    pub session_retries: u64,
    /// Per-tenant deadline budgets exceeded.
    pub deadline_misses: u64,
    /// Tenants sealed fail-closed by the retry ceiling, a deadline
    /// budget, or a client cancel.
    pub sessions_quarantined: u64,
    /// Admission slots shed under sustained fault pressure.
    pub inflight_shed: u64,
    /// Per-session stage-time rows, one per tenant in admission order:
    /// each outcome's [`SessionOutcome::row`].
    pub session_rows: Vec<LayerRow>,
    /// Exact wall nanoseconds of pre-step scheduler bookkeeping summed
    /// over every round (arrivals, sweeps, wakes, admission) — tenant
    /// layer steps run outside this window, so no compute is booked
    /// here.
    pub scheduler_ns: u64,
}

impl ServeReport {
    /// The recovery-ladder summary over every tenant's incidents.
    #[must_use]
    pub fn ladder(&self) -> LadderSummary {
        self.incidents
            .ladder_summary(&RecoveryCost::default(), self.max_blocks)
    }
}

/// N isolated tenant sessions plus the round-robin batch scheduler that
/// interleaves their per-layer work items (see the module docs).
#[derive(Debug)]
pub struct SessionManager {
    root: DeviceSecret,
    base_nonce: u64,
    shift: u32,
    max_inflight: usize,
    tenants: Vec<Tenant>,
    round: u64,
    /// Set by [`Self::harden`]: session retries and load shedding on.
    hardened: bool,
    backoff_seed: u64,
    stats: RobustStats,
    /// The degraded admission cap (== `max_inflight` until shedding).
    effective_inflight: usize,
    /// Faulty rounds accumulated toward the next shed.
    pressure: u32,
    /// Clean rounds accumulated toward the next restore.
    clean_rounds: u64,
    /// Manager-lifetime pad ledger: [`Self::harvest_terminal`] absorbs
    /// every harvested session's pads here, so the zero-collision oracle
    /// spans every request a long-lived manager (the daemon) ever served
    /// — across tenants, repeat submissions, and re-admissions alike.
    lifetime_ledger: PadLedger,
    /// Exact scheduler-overhead accumulator: wall nanoseconds spent per
    /// round on arrivals, budget sweeps, backoff wakes, and admission —
    /// everything *before* tenant layer steps run.
    /// Kept as a plain field (not only a telemetry span) so the serve
    /// sweep can report it with the `telemetry` feature compiled out.
    scheduler_ns: u64,
}

/// Robustness counters mirrored into [`ServeReport`] — kept separate
/// from the process-global telemetry so the report stays exact even when
/// the `telemetry` feature is off.
#[derive(Debug, Default)]
struct RobustStats {
    session_retries: u64,
    deadline_misses: u64,
    sessions_quarantined: u64,
    inflight_shed: u64,
}

impl SessionManager {
    /// Creates a classic manager. `root`/`base_nonce` seed the
    /// per-tenant key derivation; `shift` applies to every admitted
    /// session; `max_inflight` caps concurrently-running sessions
    /// (backpressure — clamped to ≥ 1).
    #[must_use]
    pub fn new(root: DeviceSecret, base_nonce: u64, shift: u32, max_inflight: usize) -> Self {
        Self {
            root,
            base_nonce,
            shift,
            max_inflight: max_inflight.max(1),
            tenants: Vec::new(),
            round: 0,
            hardened: false,
            backoff_seed: base_nonce ^ 0xB0FF_5EED,
            stats: RobustStats::default(),
            effective_inflight: max_inflight.max(1),
            pressure: 0,
            clean_rounds: 0,
            lifetime_ledger: PadLedger::new(),
            scheduler_ns: 0,
        }
    }

    /// Switches this manager to the hardened configuration — session
    /// retries with backoff and load shedding, bounded by the constants
    /// in [`crate::retry`] — and re-seeds every tenant's backoff-jitter
    /// stream from `backoff_seed`.
    pub fn harden(&mut self, backoff_seed: u64) {
        self.hardened = true;
        self.backoff_seed = backoff_seed;
        for t in &mut self.tenants {
            t.backoff_rng = Self::backoff_stream(backoff_seed, t.id);
        }
    }

    /// The per-tenant jitter stream: deterministic per seed, distinct
    /// per tenant.
    fn backoff_stream(seed: u64, tenant: u32) -> u64 {
        let mut s = seed
            ^ u64::from(tenant)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(0x6A09_E667);
        splitmix(&mut s)
    }

    /// The isolated session a tenant id maps to: a tenant-derived
    /// sub-secret and a tenant-mixed nonce, so no two tenants (and no
    /// tenant and the root) ever share a `(key, counter)` pair. Public
    /// so single-session reference runs can use the *same* keys the
    /// scheduler will.
    #[must_use]
    pub fn derived_session(&self, tenant_id: u32) -> SecureSession {
        self.derived_session_salted(tenant_id, 0)
    }

    /// [`Self::derived_session`] with an extra nonce salt folded in
    /// (`salt = 0` is exactly the classic derivation). The tenant's
    /// derived *secret* never changes with the salt — authentication
    /// stays bound to the tenant — only the nonce space moves, which is
    /// what lets a serving front-end re-admit the same tenant for a new
    /// request without reusing the previous request's pads.
    #[must_use]
    pub fn derived_session_salted(&self, tenant_id: u32, salt: u64) -> SecureSession {
        let (secret, nonce) = tenant_identity(&self.root, self.base_nonce, tenant_id, salt);
        SecureSession {
            secret,
            nonce,
            shift: self.shift,
        }
    }

    /// Admits one tenant (state: waiting on its arrival round).
    ///
    /// # Panics
    ///
    /// Panics when `spec.tenant` duplicates an admitted tenant id — a
    /// duplicate would alias another tenant's derived key, which is
    /// exactly what session isolation forbids.
    pub fn admit(&mut self, spec: AdmitSpec) {
        assert!(
            self.tenants.iter().all(|t| t.id != spec.tenant),
            "tenant id {} already admitted",
            spec.tenant
        );
        let session = self.derived_session_salted(spec.tenant, spec.nonce_salt);
        self.tenants.push(Tenant {
            id: spec.tenant,
            name: spec.name,
            layers: spec.layers,
            input: spec.input,
            session,
            arrival_round: spec.arrival_round,
            durable: DurableState::default(),
            tracker: PadTracker::new(),
            injector: spec.injector,
            state: TenantState::Waiting,
            started_round: 0,
            rounds_serviced: 0,
            commits: 0,
            journaled: 0,
            started_at: None,
            latency_ns: 0,
            deadline_rounds: spec.deadline_rounds,
            cut_queue: spec.crash_cuts.into(),
            clock: None,
            retries: 0,
            backoff_rng: Self::backoff_stream(self.backoff_seed, spec.tenant),
            incidents: IncidentLog::new(),
            deadline_missed: false,
            row: LayerRow {
                layer: u64::from(spec.tenant),
                ..LayerRow::default()
            },
            arrived_at: None,
            queue_ns: 0,
            home: spec.home_dir.map(|dir| TenantHome {
                dir,
                vfs: None,
                home: None,
                stats: PersistentStats::default(),
            }),
        });
    }

    /// Number of admitted tenants.
    #[must_use]
    pub fn tenants(&self) -> usize {
        self.tenants.len()
    }

    /// Drives every admitted session to a terminal state through
    /// [`Self::step_round`], harvests them all through
    /// [`Self::harvest_terminal`], and reports. Pads and collisions come
    /// from the manager-lifetime ledger.
    pub fn run(&mut self) -> ServeReport {
        while self.step_round() {}
        let outcomes = self.harvest_terminal();
        let mut incidents = IncidentLog::new();
        let mut max_blocks = 0u64;
        for o in &outcomes {
            // Cross-attempt salvage first (failed attempts + the
            // quarantine seal), then the terminal attempt's records.
            // Merge without re-counting: every record already went
            // through the `IncidentLog::push` telemetry funnel once.
            incidents.records.extend_from_slice(&o.salvaged.records);
            let terminal = match &o.verdict {
                SessionVerdict::Completed(run) => Some((&run.incidents, run.max_layer_blocks)),
                SessionVerdict::Aborted(err) => match err.as_ref() {
                    JournaledError::Aborted(report) => {
                        Some((&report.incidents, report.max_layer_blocks))
                    }
                    JournaledError::Crashed(_) | JournaledError::Security(_) => None,
                },
                SessionVerdict::Quarantined(_) => None,
            };
            if let Some((log, blocks)) = terminal {
                incidents.records.extend_from_slice(&log.records);
                max_blocks = max_blocks.max(blocks);
            }
        }
        ServeReport {
            rounds: self.round,
            session_rows: outcomes.iter().map(|o| o.row).collect(),
            outcomes,
            pads_issued: self.pads_issued(),
            pad_collisions: self.pad_collisions(),
            incidents,
            max_blocks,
            session_retries: self.stats.session_retries,
            deadline_misses: self.stats.deadline_misses,
            sessions_quarantined: self.stats.sessions_quarantined,
            inflight_shed: self.stats.inflight_shed,
            scheduler_ns: self.scheduler_ns,
        }
    }

    /// One scheduler round (the daemon's clock tick): release arrivals,
    /// enforce deadline budgets, wake expired backoffs (journal
    /// re-admission), fill free slots from the queue (admission order,
    /// under the possibly degraded cap), then grant every running
    /// session exactly one layer step, in fixed tenant order —
    /// round-robin fairness. Returns `false` once every tenant is
    /// terminal, i.e. there is nothing to do until the next admission.
    pub fn step_round(&mut self) -> bool {
        if self.tenants.iter().all(Tenant::is_terminal) {
            return false;
        }
        self.round += 1;
        let round = self.round;
        let hardened = self.hardened;
        let mut faulty = false;

        // Scheduler-overhead accounting: everything from here to the
        // first tenant step is bookkeeping the tenants never see —
        // arrivals, budget sweeps, backoff wakes, admission. It grows
        // with the session count, so the serve sweep reports it
        // separately instead of folding it into service latency.
        let sched_start = Instant::now();

        // Arrivals: the trace releases tenants into the admission queue
        // (the queue-delay clock starts here).
        for t in &mut self.tenants {
            if matches!(t.state, TenantState::Waiting) && t.arrival_round <= round {
                t.state = TenantState::Queued;
                t.arrived_at = Some(Instant::now());
            }
        }

        // Deadline budgets of the tenants that hold a slot.
        for t in &mut self.tenants {
            Self::sweep_deadline(t, &mut self.stats, round);
        }

        // Backoff wake: re-admit parked tenants from their journals
        // under a fresh nonce epoch (the `infer_resume` path).
        for t in &mut self.tenants {
            Self::wake_backoff(t, hardened, &mut self.stats, round, &mut faulty);
        }

        // Admission under backpressure: promote queued tenants while
        // slots are free under the effective (possibly shed) cap.
        let mut inflight = self.tenants.iter().filter(|t| t.holds_slot()).count();
        for t in &mut self.tenants {
            if inflight >= self.effective_inflight {
                break;
            }
            if matches!(t.state, TenantState::Queued) {
                Self::promote(t, hardened, &mut self.stats, round, &mut faulty);
                if t.holds_slot() {
                    inflight += 1;
                }
            }
        }

        self.scheduler_ns = self
            .scheduler_ns
            .saturating_add(u64::try_from(sched_start.elapsed().as_nanos()).unwrap_or(u64::MAX));

        // Service: one layer step per running session per round, in
        // fixed tenant order on the calling thread.
        for t in &mut self.tenants {
            Self::step_tenant(t, hardened, &mut self.stats, round, &mut faulty);
        }

        if hardened {
            self.update_shedding(faulty);
        }
        true
    }

    /// Quarantines a tenant that holds a slot past its deadline budget.
    fn sweep_deadline(t: &mut Tenant, stats: &mut RobustStats, round: u64) {
        if !t.holds_slot() {
            return;
        }
        let Some(budget) = t.deadline_rounds else {
            return;
        };
        let used = round.saturating_sub(t.started_round);
        if used > budget {
            telemetry::incr(Counter::DeadlineMisses);
            stats.deadline_misses += 1;
            t.deadline_missed = true;
            let cause = SecurityError::DeadlineExceeded {
                tenant: t.id,
                budget_rounds: budget,
                used_rounds: used,
            };
            Self::quarantine(t, cause, round, stats);
        }
    }

    /// Backoff → Running once the backoff expires: resume from the
    /// tenant's own journal (repair, rollback walk, fresh epoch) with
    /// the next scripted cut armed. The attempt runs in RAM: a durable
    /// tenant's home was dropped by [`Self::handle_failure`] before it
    /// parked, so there is no disk to sync.
    fn wake_backoff(
        t: &mut Tenant,
        hardened: bool,
        stats: &mut RobustStats,
        round: u64,
        faulty: &mut bool,
    ) {
        let (resume_at, loss) = match &t.state {
            TenantState::Backoff { resume_at, loss } => (*resume_at, *loss),
            _ => return,
        };
        if resume_at > round {
            return;
        }
        Self::arm_next_cut(t);
        let result = {
            let mut instruments = Instruments {
                tracker: &mut t.tracker,
                injector: t.injector.as_mut(),
                clock: t.clock.as_mut(),
            };
            open_resume_cursor(&t.input, &t.session, &mut t.durable, &mut instruments, loss)
        };
        match result {
            Ok(cursor) => t.state = TenantState::Running(Box::new(cursor)),
            Err(e) => {
                *faulty = true;
                let commits = t.commits;
                Self::handle_failure(t, e, commits, round, hardened, stats);
            }
        }
    }

    /// Pops the next scripted power cut into a freshly armed clock (or
    /// disarms the clock when the script is exhausted).
    fn arm_next_cut(t: &mut Tenant) {
        t.clock = t.cut_queue.pop_front().map(CrashClock::armed);
    }

    /// Queued → Running: open the tenant's journaled cursor (epoch
    /// write-ahead + repair on its private journal namespace).
    fn promote(
        t: &mut Tenant,
        hardened: bool,
        stats: &mut RobustStats,
        round: u64,
        faulty: &mut bool,
    ) {
        telemetry::incr(Counter::SessionsActive);
        t.started_round = round;
        t.started_at = Some(Instant::now());
        t.queue_ns = t.arrived_at.map_or(0, |a| {
            u64::try_from(a.elapsed().as_nanos()).unwrap_or(u64::MAX)
        });
        Self::arm_next_cut(t);
        let result = if t.home.is_some() {
            Self::open_home_cursor(t)
        } else {
            let mut clock = t.clock.as_mut();
            open_journaled_cursor(&t.input, &t.session, &mut t.durable, &mut clock)
        };
        match result {
            Ok(cursor) => t.state = TenantState::Running(Box::new(cursor)),
            Err(e) => {
                if !matches!(e, JournaledError::Security(_)) {
                    *faulty = true;
                }
                Self::handle_failure(t, e, 0, round, hardened, stats);
            }
        }
    }

    /// Promotion path for a durable tenant: open (or restart-resume) the
    /// on-disk [`DurableHome`], adopt its reconstructed durable state
    /// and preloaded pad oracle, and open the cursor through the home,
    /// which writes the `EpochOpen` record ahead of the first pad.
    fn open_home_cursor(t: &mut Tenant) -> Result<JournaledCursor, JournaledError> {
        let id = t.id;
        let h = t.home.as_mut().expect("durable tenants only");
        if h.vfs.is_none() {
            h.vfs = Some(StdVfs::create(&h.dir).map_err(|e| home_error(id, DurableError::Io(e)))?);
        }
        let vfs = h.vfs.as_mut().expect("vfs opened above");
        if h.home.is_none() {
            let opened =
                DurableHome::open_or_create(vfs, &t.session, t.layers.len() as u32, &mut h.stats)
                    .map_err(|e| home_error(id, e))?;
            t.durable = opened.durable;
            t.tracker = opened.tracker;
            h.home = Some(opened.home);
        }
        let home = h.home.as_mut().expect("home opened above");
        home.open_cursor(
            vfs,
            &t.input,
            &t.session,
            &mut t.durable,
            &mut Instruments {
                tracker: &mut t.tracker,
                injector: t.injector.as_mut(),
                clock: t.clock.as_mut(),
            },
            &mut h.stats,
        )
        .map_err(|e| home_error(id, e))
    }

    /// Checkpoints a durable tenant's freshly committed layer to disk —
    /// a no-op for in-RAM tenants. Runs *before* the commit is
    /// acknowledged, so a kill after acknowledgement always finds the
    /// layer on media.
    fn checkpoint_home(t: &mut Tenant, cursor: &JournaledCursor) -> Result<(), JournaledError> {
        let id = t.id;
        let Some(h) = t.home.as_mut() else {
            return Ok(());
        };
        let (Some(vfs), Some(home)) = (h.vfs.as_mut(), h.home.as_mut()) else {
            return Ok(());
        };
        home.checkpoint(
            vfs,
            &t.durable,
            &t.tracker,
            &t.session,
            cursor.epoch(),
            cursor.next_layer(),
            &mut t.clock.as_mut(),
            &mut h.stats,
        )
        .map_err(|e| home_error(id, e))
    }

    /// Grants one layer step to a running tenant and adds the step's
    /// stage-time row into the tenant's row, whether the step succeeded
    /// or failed.
    fn step_tenant(
        t: &mut Tenant,
        hardened: bool,
        stats: &mut RobustStats,
        round: u64,
        faulty: &mut bool,
    ) {
        let mut cursor = match std::mem::replace(&mut t.state, TenantState::Queued) {
            TenantState::Running(c) => c,
            other => {
                t.state = other;
                return;
            }
        };
        let rows_before = cursor.layer_rows().len();
        let commits_before = cursor.commits();
        let result = {
            let mut instruments = Instruments {
                tracker: &mut t.tracker,
                injector: t.injector.as_mut(),
                clock: t.clock.as_mut(),
            };
            step_journaled_layer(
                &t.layers,
                &t.session,
                &mut cursor,
                &mut t.durable,
                &mut instruments,
            )
        };
        for r in &cursor.layer_rows()[rows_before..] {
            t.row.add_stages(r);
        }
        t.journaled += cursor.commits() - commits_before;
        t.rounds_serviced += 1;
        match result {
            Ok(()) => {
                // Durable tenants persist the commit before it is
                // acknowledged — a kill after this point always finds
                // the layer on media.
                if let Err(e) = Self::checkpoint_home(t, &cursor) {
                    *faulty = true;
                    let commits = cursor.commits();
                    Self::handle_failure(t, e, commits, round, hardened, stats);
                    return;
                }
                if cursor.done(&t.layers) {
                    t.commits = cursor.commits();
                    t.latency_ns = t.started_at.map_or(0, |s| {
                        u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX)
                    });
                    telemetry::incr(Counter::SessionsCompleted);
                    t.state =
                        TenantState::Done(SessionVerdict::Completed(Box::new(cursor.finish())));
                } else {
                    t.state = TenantState::Running(cursor);
                }
            }
            Err(e) => {
                *faulty = true;
                // A crash verdict carries no report — salvage this
                // attempt's in-cursor audit trail before the cursor is
                // dropped.
                if matches!(e, JournaledError::Crashed(_)) {
                    t.incidents.records.extend(cursor.take_incidents().records);
                }
                let commits = cursor.commits();
                Self::handle_failure(t, e, commits, round, hardened, stats);
            }
        }
    }

    /// Classifies one failed attempt: security verdicts abort
    /// immediately (a tampered journal or counter reuse is never
    /// retried); under a hardened manager, ladder exhaustions and power
    /// cuts are retryable — the tenant parks in backoff until
    /// [`MAX_SESSION_RETRIES`] quarantines it. A classic manager aborts
    /// on every failure.
    fn handle_failure(
        t: &mut Tenant,
        error: JournaledError,
        commits: u32,
        round: u64,
        hardened: bool,
        stats: &mut RobustStats,
    ) {
        // A durable home is single-use after any error: drop the opened
        // handle so its on-disk state (always consistent) is only ever
        // touched again by a fresh open. A *retried* attempt therefore
        // continues in RAM — a classic manager (the daemon's) aborts
        // instead, and the journal on disk stays resumable by the next
        // admission of this tenant.
        if let Some(h) = t.home.as_mut() {
            h.home = None;
        }
        let retryable = !matches!(error, JournaledError::Security(_));
        if !retryable || !hardened {
            Self::abort(t, error, commits);
            return;
        }
        t.commits = commits;
        if t.retries >= MAX_SESSION_RETRIES {
            if let JournaledError::Aborted(report) = error {
                t.incidents.records.extend(report.incidents.records);
            }
            let cause = SecurityError::RetryCeilingExhausted {
                tenant: t.id,
                retries: t.retries,
            };
            Self::quarantine(t, cause, round, stats);
            return;
        }
        let loss = match error {
            JournaledError::Crashed(loss) => Some(loss),
            JournaledError::Aborted(report) => {
                t.incidents.records.extend(report.incidents.records);
                None
            }
            // Unreachable: filtered by `retryable` above.
            JournaledError::Security(_) => None,
        };
        telemetry::incr(Counter::SessionRetries);
        stats.session_retries += 1;
        let wait = backoff_rounds(t.retries, &mut t.backoff_rng);
        t.retries += 1;
        t.state = TenantState::Backoff {
            resume_at: round + wait,
            loss,
        };
    }

    /// Seals one tenant fail-closed: the quarantine record goes through
    /// the single `IncidentLog::push` telemetry funnel, the cut script
    /// is dropped, and the journal is never resumed — pads are never
    /// reissued.
    fn quarantine(t: &mut Tenant, cause: SecurityError, round: u64, stats: &mut RobustStats) {
        stats.sessions_quarantined += 1;
        t.latency_ns = t.started_at.map_or(0, |s| {
            u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX)
        });
        t.incidents.push(IncidentRecord {
            layer_id: t.commits,
            attempt: t.retries,
            action: RecoveryAction::Quarantine,
            cause: cause.clone(),
        });
        t.cut_queue.clear();
        t.clock = None;
        t.state = TenantState::Done(SessionVerdict::Quarantined(Box::new(QuarantineReport {
            tenant: t.id,
            cause,
            retries: t.retries,
            commits: t.commits,
            round,
        })));
    }

    /// Admission-control degradation: a faulty round (≥ 1 failed
    /// session step) builds pressure; enough pressure sheds one slot
    /// (never below the floor); a clean streak restores one.
    fn update_shedding(&mut self, faulty: bool) {
        if faulty {
            self.clean_rounds = 0;
            self.pressure += 1;
            if self.pressure >= SHED_AFTER_FAULTY_ROUNDS && self.effective_inflight > MIN_INFLIGHT {
                self.effective_inflight -= 1;
                self.pressure = 0;
                self.stats.inflight_shed += 1;
                telemetry::incr(Counter::InflightShed);
            }
        } else {
            self.clean_rounds += 1;
            if self.clean_rounds >= RESTORE_AFTER_CLEAN_ROUNDS
                && self.effective_inflight < self.max_inflight
            {
                self.effective_inflight += 1;
                self.clean_rounds = 0;
                self.pressure = 0;
            }
        }
    }

    /// The fail-closed per-session abort path: *this* tenant is
    /// terminal; no other tenant's state is touched.
    fn abort(t: &mut Tenant, error: JournaledError, commits: u32) {
        t.commits = commits;
        t.latency_ns = t.started_at.map_or(0, |s| {
            u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX)
        });
        telemetry::incr(Counter::SessionAborts);
        t.state = TenantState::Done(SessionVerdict::Aborted(Box::new(error)));
    }

    /// Scheduler rounds executed so far.
    #[must_use]
    pub fn current_round(&self) -> u64 {
        self.round
    }

    /// Admitted tenants not yet in a terminal state.
    #[must_use]
    pub fn live_sessions(&self) -> usize {
        self.tenants.iter().filter(|t| !t.is_terminal()).count()
    }

    /// Layer commits an admitted tenant has journaled so far, summed
    /// over every attempt (`None` = unknown tenant). It never decreases,
    /// so a caller that polls it once per [`Self::step_round`] sees
    /// every commit.
    #[must_use]
    pub fn progress_of(&self, tenant: u32) -> Option<u32> {
        self.tenants
            .iter()
            .find(|t| t.id == tenant)
            .map(|t| t.journaled)
    }

    /// Client-requested session abort: seals the tenant fail-closed
    /// through the quarantine path — journal kept for audit, pads never
    /// reissued, no output released — under the non-breach
    /// [`SecurityError::SessionCancelled`] verdict. Returns `false`
    /// when the tenant is unknown or already terminal (too late to
    /// cancel: the verdict stands).
    pub fn cancel(&mut self, tenant: u32) -> bool {
        let round = self.round;
        let Some(t) = self.tenants.iter_mut().find(|t| t.id == tenant) else {
            return false;
        };
        if t.is_terminal() {
            return false;
        }
        Self::quarantine(
            t,
            SecurityError::SessionCancelled { tenant },
            round,
            &mut self.stats,
        );
        true
    }

    /// Graceful-drain flush: syncs every live durable tenant's in-RAM
    /// journal to its on-disk home, so a daemon shutting down hands the
    /// next process the freshest resumable state. Returns the number of
    /// per-tenant flushes performed (mirrored by the `drain_flushes`
    /// telemetry counter); tenants without a durable home are skipped.
    pub fn drain_flush(&mut self) -> u64 {
        let mut flushed = 0u64;
        for t in &mut self.tenants {
            if t.is_terminal() {
                continue;
            }
            let commits = t.commits;
            let Some(h) = t.home.as_mut() else {
                continue;
            };
            let (Some(vfs), Some(home)) = (h.vfs.as_mut(), h.home.as_mut()) else {
                continue;
            };
            if home
                .sync_journal(vfs, &t.durable.journal, commits, &mut None, &mut h.stats)
                .is_ok()
            {
                flushed += 1;
                telemetry::incr(Counter::DrainFlushes);
            }
        }
        flushed
    }

    /// Drains every *terminal* tenant into outcomes, leaving live
    /// tenants scheduled — the daemon's harvest loop. A harvested
    /// tenant's id becomes admissible again (the repeat-request path;
    /// pair it with a fresh [`AdmitSpec::nonce_salt`]). Harvested pads
    /// are absorbed into the manager-lifetime ledger behind
    /// [`Self::pads_issued`] / [`Self::pad_collisions`].
    pub fn harvest_terminal(&mut self) -> Vec<SessionOutcome> {
        let mut out = Vec::new();
        if !self.tenants.iter().any(Tenant::is_terminal) {
            return out;
        }
        let live = Vec::with_capacity(self.tenants.len());
        for t in std::mem::replace(&mut self.tenants, live) {
            let TenantState::Done(verdict) = t.state else {
                self.tenants.push(t);
                continue;
            };
            self.lifetime_ledger.absorb(&t.session, &t.tracker);
            out.push(SessionOutcome {
                tenant: t.id,
                name: t.name,
                arrival_round: t.arrival_round,
                started_round: t.started_round,
                rounds_serviced: t.rounds_serviced,
                commits: t.commits,
                latency_ns: t.latency_ns,
                queue_ns: t.queue_ns,
                retries: t.retries,
                deadline_missed: t.deadline_missed,
                verdict,
                salvaged: t.incidents,
                row: t.row,
            });
        }
        out
    }

    /// Distinct pads recorded by the lifetime ledger (harvest mode).
    #[must_use]
    pub fn pads_issued(&self) -> u64 {
        self.lifetime_ledger.pads()
    }

    /// Pad collisions recorded by the lifetime ledger — must stay 0 for
    /// the whole life of a serving manager.
    #[must_use]
    pub fn pad_collisions(&self) -> u64 {
        self.lifetime_ledger.collisions()
    }

    /// Exact wall nanoseconds the scheduler spent on pre-step
    /// bookkeeping (arrivals, sweeps, wakes, admission) across every
    /// round so far. Tenant layer steps are never booked here.
    #[must_use]
    pub fn scheduler_ns(&self) -> u64 {
        self.scheduler_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultSpec, Persistence};
    use crate::journal::{campaign_models, CampaignModel};
    use crate::secure_infer::infer_journaled;

    /// A model's interruptible-instant count, from one counting-clock run.
    fn steps_of(m: &CampaignModel) -> u64 {
        let mut clock = CrashClock::counting();
        let _ = infer_journaled(
            &m.layers,
            &m.input,
            &m.session,
            &mut DurableState::default(),
            &mut Instruments {
                tracker: &mut PadTracker::new(),
                injector: None,
                clock: Some(&mut clock),
            },
        );
        clock.steps()
    }

    fn clean_manager(seed: u64, n: u32, max_inflight: usize) -> SessionManager {
        let models = campaign_models();
        let mut mgr = SessionManager::new(
            DeviceSecret::from_seed(seed),
            seed ^ 0xA5A5,
            models[0].session.shift,
            max_inflight,
        );
        for t in 0..n {
            let m = &models[t as usize % models.len()];
            mgr.admit(AdmitSpec {
                tenant: t,
                name: m.name.to_string(),
                layers: Arc::new(m.layers.clone()),
                input: m.input.clone(),
                arrival_round: u64::from(t % 3),
                injector: None,
                deadline_rounds: None,
                crash_cuts: Vec::new(),
                nonce_salt: 0,
                home_dir: None,
            });
        }
        mgr
    }

    /// Admits one tenant with the robustness knobs defaulted off.
    fn admit_plain(
        mgr: &mut SessionManager,
        tenant: u32,
        model: &CampaignModel,
        injector: Option<FaultInjector>,
        deadline_rounds: Option<u64>,
        crash_cuts: Vec<u64>,
    ) {
        mgr.admit(AdmitSpec {
            tenant,
            name: model.name.to_string(),
            layers: Arc::new(model.layers.clone()),
            input: model.input.clone(),
            arrival_round: 0,
            injector,
            deadline_rounds,
            crash_cuts,
            nonce_salt: 0,
            home_dir: None,
        });
    }

    #[test]
    fn scheduled_sessions_match_their_single_session_runs() {
        let mut mgr = clean_manager(77, 4, 2);
        let sessions: Vec<SecureSession> = (0..4).map(|t| mgr.derived_session(t)).collect();
        let report = mgr.run();
        assert_eq!(report.outcomes.len(), 4);
        assert_eq!(report.pad_collisions, 0);
        let models = campaign_models();
        for (t, o) in report.outcomes.iter().enumerate() {
            let m = &models[t % models.len()];
            let mut durable = DurableState::default();
            let mut tracker = PadTracker::new();
            let mut instruments = Instruments {
                tracker: &mut tracker,
                injector: None,
                clock: None,
            };
            let single = infer_journaled(
                &m.layers,
                &m.input,
                &sessions[t],
                &mut durable,
                &mut instruments,
            )
            .expect("clean single-session run completes");
            assert_eq!(
                o.output().expect("clean scheduled session completes"),
                &single.output,
                "tenant {t} diverged from its single-session run"
            );
        }
    }

    #[test]
    fn backpressure_defers_starts_beyond_the_admission_cap() {
        let mut mgr = clean_manager(78, 4, 1);
        let report = mgr.run();
        let mut starts: Vec<u64> = report.outcomes.iter().map(|o| o.started_round).collect();
        starts.sort_unstable();
        // With one slot, sessions start strictly one-after-another.
        assert!(
            starts.windows(2).all(|w| w[0] < w[1]),
            "starts must be serialized under a 1-slot cap: {starts:?}"
        );
    }

    #[test]
    fn round_robin_grants_equal_service_to_concurrent_sessions() {
        // Same model for every tenant, simultaneous arrival, no cap:
        // each session needs the same number of layer steps, so service
        // counts must come out exactly equal.
        let models = campaign_models();
        let m = &models[0];
        let mut mgr = SessionManager::new(DeviceSecret::from_seed(79), 1, m.session.shift, 8);
        for t in 0..3 {
            mgr.admit(AdmitSpec {
                tenant: t,
                name: m.name.to_string(),
                layers: Arc::new(m.layers.clone()),
                input: m.input.clone(),
                arrival_round: 0,
                injector: None,
                deadline_rounds: None,
                crash_cuts: Vec::new(),
                nonce_salt: 0,
                home_dir: None,
            });
        }
        let report = mgr.run();
        let served: Vec<u64> = report.outcomes.iter().map(|o| o.rounds_serviced).collect();
        assert!(
            served.windows(2).all(|w| w[0] == w[1]),
            "equal workloads must get equal service: {served:?}"
        );
    }

    #[test]
    #[should_panic(expected = "already admitted")]
    fn duplicate_tenant_ids_are_rejected() {
        let mut mgr = clean_manager(80, 1, 2);
        let models = campaign_models();
        mgr.admit(AdmitSpec {
            tenant: 0,
            name: "dup".to_string(),
            layers: Arc::new(models[0].layers.clone()),
            input: models[0].input.clone(),
            arrival_round: 0,
            injector: None,
            deadline_rounds: None,
            crash_cuts: Vec::new(),
            nonce_salt: 0,
            home_dir: None,
        });
    }

    // -- robustness layer ---------------------------------------------------

    fn hardened_manager(seed: u64, max_inflight: usize) -> SessionManager {
        let models = campaign_models();
        let mut mgr = SessionManager::new(
            DeviceSecret::from_seed(seed),
            seed ^ 0x5A5A,
            models[0].session.shift,
            max_inflight,
        );
        mgr.harden(seed ^ 0xBAC0);
        mgr
    }

    fn relentless(seed: u64) -> Option<FaultInjector> {
        Some(FaultInjector::new(
            seed,
            vec![FaultSpec {
                kind: FaultKind::BitFlip,
                persistence: Persistence::Relentless,
                layer: 0,
                block: 0,
            }],
        ))
    }

    #[test]
    fn retry_ceiling_quarantines_a_relentless_tenant() {
        let models = campaign_models();
        let mut mgr = hardened_manager(90, 4);
        let healthy_session = mgr.derived_session(0);
        admit_plain(&mut mgr, 0, &models[0], None, None, Vec::new());
        admit_plain(&mut mgr, 1, &models[0], relentless(9), None, Vec::new());
        let report = mgr.run();

        assert_eq!(report.sessions_quarantined, 1);
        assert_eq!(report.session_retries, u64::from(MAX_SESSION_RETRIES));
        let faulted = report.outcomes.iter().find(|o| o.tenant == 1).unwrap();
        match &faulted.verdict {
            SessionVerdict::Quarantined(q) => {
                assert!(
                    matches!(q.cause, SecurityError::RetryCeilingExhausted { .. }),
                    "wrong cause: {}",
                    q.cause
                );
                assert_eq!(q.retries, MAX_SESSION_RETRIES);
                assert!(
                    !q.cause.is_breach(),
                    "quarantine is an availability verdict"
                );
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert!(
            faulted.output().is_none(),
            "no output after fail-closed seal"
        );

        // The co-resident healthy tenant is untouched: bit-identical to
        // its solo run under the same derived keys.
        let m = &models[0];
        let mut durable = DurableState::default();
        let mut tracker = PadTracker::new();
        let mut instruments = Instruments {
            tracker: &mut tracker,
            injector: None,
            clock: None,
        };
        let solo = infer_journaled(
            &m.layers,
            &m.input,
            &healthy_session,
            &mut durable,
            &mut instruments,
        )
        .expect("solo run completes");
        let healthy = report.outcomes.iter().find(|o| o.tenant == 0).unwrap();
        assert_eq!(healthy.output().expect("healthy completes"), &solo.output);
        assert_eq!(report.pad_collisions, 0);
    }

    #[test]
    fn a_crash_cut_session_retries_and_completes_bit_identical() {
        let models = campaign_models();
        let m = &models[0];
        let cut = steps_of(m) / 2;
        let mut mgr = hardened_manager(91, 2);
        let session = mgr.derived_session(0);
        admit_plain(&mut mgr, 0, m, None, None, vec![cut]);
        let report = mgr.run();

        let o = &report.outcomes[0];
        assert_eq!(o.retries, 1, "one journal re-admission after the cut");
        assert_eq!(report.session_retries, 1);
        assert_eq!(report.sessions_quarantined, 0);
        let mut durable = DurableState::default();
        let mut tracker = PadTracker::new();
        let mut instruments = Instruments {
            tracker: &mut tracker,
            injector: None,
            clock: None,
        };
        let solo = infer_journaled(
            &m.layers,
            &m.input,
            &session,
            &mut durable,
            &mut instruments,
        )
        .expect("solo run completes");
        assert_eq!(
            o.output().expect("recovered session completes"),
            &solo.output,
            "recovered output must be bit-identical to the solo run"
        );
        // The retry resumed under a fresh epoch; the ledger saw every
        // pad from both attempts and stayed collision-free.
        assert_eq!(report.pad_collisions, 0);
        assert!(
            report.incidents.resumes() >= 1,
            "the resume must be stitched into the audit trail"
        );
    }

    #[test]
    fn an_exceeded_deadline_budget_quarantines_fail_closed() {
        let models = campaign_models();
        let mut mgr = hardened_manager(92, 2);
        admit_plain(&mut mgr, 0, &models[0], None, Some(0), Vec::new());
        let report = mgr.run();

        assert_eq!(report.deadline_misses, 1);
        assert_eq!(report.sessions_quarantined, 1);
        let o = &report.outcomes[0];
        assert!(o.deadline_missed);
        assert!(o.output().is_none());
        assert!(
            matches!(
                &o.verdict,
                SessionVerdict::Quarantined(q)
                    if matches!(q.cause, SecurityError::DeadlineExceeded { .. })
            ),
            "expected a deadline quarantine, got {:?}",
            o.verdict
        );
    }

    #[test]
    fn sustained_faults_shed_the_effective_admission_cap() {
        let models = campaign_models();
        let mut mgr = hardened_manager(93, 3);
        admit_plain(&mut mgr, 0, &models[0], relentless(5), None, Vec::new());
        admit_plain(&mut mgr, 1, &models[0], None, None, Vec::new());
        admit_plain(&mut mgr, 2, &models[1], None, None, Vec::new());
        let report = mgr.run();

        assert!(
            report.inflight_shed >= 1,
            "three failed attempts must shed at least one slot: {report:?}"
        );
        for t in [1u32, 2] {
            let o = report.outcomes.iter().find(|o| o.tenant == t).unwrap();
            assert!(
                o.output().is_some(),
                "healthy tenant {t} must complete despite shedding"
            );
        }
    }

    // -- shared weights + the pad ledger -------------------------------------

    #[test]
    fn shared_weight_co_tenants_match_their_solo_runs() {
        // Three tenants share one Arc'd weight set and arrive together,
        // so every round steps all three at the same layer; one of them
        // carries a relentless adversary, which must abort alone through
        // the ordinary ladder — without disturbing its batch-mates'
        // bit-identity.
        let models = campaign_models();
        let m = &models[0];
        let mut mgr =
            SessionManager::new(DeviceSecret::from_seed(96), 96 ^ 0xA5A5, m.session.shift, 8);
        let shared = Arc::new(m.layers.clone());
        for t in 0..3u32 {
            mgr.admit(AdmitSpec {
                tenant: t,
                name: m.name.to_string(),
                layers: Arc::clone(&shared),
                input: m.input.clone(),
                arrival_round: 0,
                injector: if t == 1 { relentless(13) } else { None },
                deadline_rounds: None,
                crash_cuts: Vec::new(),
                nonce_salt: 0,
                home_dir: None,
            });
        }
        let sessions: Vec<SecureSession> = (0..3).map(|t| mgr.derived_session(t)).collect();
        let report = mgr.run();
        assert_eq!(report.pad_collisions, 0);
        for t in [0usize, 2] {
            let o = report
                .outcomes
                .iter()
                .find(|o| o.tenant == t as u32)
                .unwrap();
            let mut durable = DurableState::default();
            let mut tracker = PadTracker::new();
            let mut instruments = Instruments {
                tracker: &mut tracker,
                injector: None,
                clock: None,
            };
            let solo = infer_journaled(
                &m.layers,
                &m.input,
                &sessions[t],
                &mut durable,
                &mut instruments,
            )
            .expect("solo run completes");
            assert_eq!(
                o.output().expect("clean co-tenant completes"),
                &solo.output,
                "tenant={t} co-tenant output diverged from solo"
            );
        }
        let tampered = report.outcomes.iter().find(|o| o.tenant == 1).unwrap();
        assert!(
            matches!(&tampered.verdict, SessionVerdict::Aborted(e)
                if matches!(e.as_ref(), JournaledError::Aborted(_))),
            "tampered batch-mate must abort fail-closed, got {:?}",
            tampered.verdict
        );
    }

    #[test]
    fn ledger_counts_a_repeated_session_as_collisions() {
        let root = DeviceSecret::from_seed(0xABCD);
        let mk = |tenant: u32| SecureSession {
            secret: root.derive_tenant(tenant),
            nonce: 7,
            shift: 0,
        };
        let coords = |v: u32, i: u32| BlockCoords {
            fmap_id: 1,
            layer_id: 2,
            version: v,
            block_index: i,
        };
        let sessions: Vec<SecureSession> = (0..4).map(mk).collect();
        let trackers: Vec<PadTracker> = (0..4u32)
            .map(|t| {
                let mut tr = PadTracker::new();
                for i in 0..32 {
                    tr.on_encrypt(t, coords(1, i), 2).unwrap();
                }
                tr
            })
            .collect();
        let mut ledger = PadLedger::new();
        for (s, tr) in sessions.iter().zip(&trackers) {
            ledger.absorb(s, tr);
        }
        assert_eq!((ledger.pads(), ledger.collisions()), (4 * 32, 0));
        // The same session absorbed twice: its 32 pads repeat under the
        // same derived key, so each one is a collision.
        ledger.absorb(&sessions[0], &trackers[0]);
        assert_eq!((ledger.pads(), ledger.collisions()), (4 * 32, 32));
    }
}
