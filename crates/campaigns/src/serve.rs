//! The fleet campaigns: many tenants on one session scheduler.
//!
//! Both start from one [`Fleet`]: the model zoo, one shared weight
//! `Arc` per model, the device identity drawn first from the seed, and
//! the admission cap. Both check every tenant against its
//! [solo reference](Fleet::reference) — the same model run alone under
//! the same derived keys.
//!
//! - [`run_serve_campaign`] drives a seeded arrival trace, plants one
//!   tampered tenant, and checks that it alone aborts fail-closed while
//!   every other tenant finishes bit-identical, with zero cross-session
//!   pad collisions. Its [`serve_plan`] is also what the daemon
//!   campaign serves over the wire.
//! - [`run_chaos_campaign`] hardens the scheduler and composes the
//!   fault campaign's five fault kinds with scripted power cuts across
//!   half the fleet: healthy tenants finish bit-identical with no
//!   deadline miss, every faulted tenant ends recovered or quarantined
//!   (never wedged), and the pad ledger stays collision-free.

use std::sync::Arc;

use crate::{calibrate, journaled, verdict, Report, TenantTrial};
use seculator_compute::quant::QTensor3;
use seculator_core::telemetry::LayerRow;
use seculator_core::{
    campaign_models, infer_plain, splitmix, tenant_identity, AdmitSpec, BlockCoords, CampaignModel,
    FaultInjector, FaultKind, FaultSpec, JournaledError, LadderSummary, PadLedger, Persistence,
    QConvLayer, SecureSession, SessionManager, SessionOutcome, SessionVerdict,
};
use seculator_crypto::keys::DeviceSecret;

/// The tenant fleet one serve or chaos seed sets up.
#[derive(Debug)]
pub(crate) struct Fleet {
    /// The model zoo, in `campaign_models()` order.
    pub(crate) models: Vec<CampaignModel>,
    /// One shared weight copy per zoo model: tenants serving the same
    /// model reference it instead of cloning it.
    shared: Vec<Arc<Vec<QConvLayer>>>,
    /// Device root secret.
    pub(crate) root: DeviceSecret,
    /// Base nonce the per-tenant derivation mixes.
    pub(crate) base_nonce: u64,
    /// Admission cap `max(2, n/2 + 1)`: below the session count whenever
    /// possible, so backpressure is part of every multi-session campaign.
    pub(crate) max_inflight: usize,
}

impl Fleet {
    /// Draws the device identity from `rng` — root secret, then base
    /// nonce, the two draws `seculator_wire::wire_identity` repeats —
    /// and sizes the admission cap for `sessions` tenants.
    ///
    /// # Panics
    ///
    /// When `sessions` is 0: a fleet campaign with no tenant has nothing
    /// to check.
    fn new(rng: &mut u64, sessions: u32) -> Self {
        assert!(sessions >= 1, "a fleet campaign needs at least one session");
        let models = campaign_models();
        let shared = models.iter().map(|m| Arc::new(m.layers.clone())).collect();
        Self {
            models,
            shared,
            root: DeviceSecret::from_seed(splitmix(rng)),
            base_nonce: splitmix(rng),
            max_inflight: usize::max(2, sessions as usize / 2 + 1),
        }
    }

    /// A scheduler over this fleet's identity and cap.
    fn manager(&self) -> SessionManager {
        SessionManager::new(
            self.root,
            self.base_nonce,
            self.models[0].session.shift,
            self.max_inflight,
        )
    }

    /// The admission of `tenant` running zoo model `model` from
    /// `arrival_round`, with no adversary, deadline or power cut.
    fn admission(&self, tenant: u32, model: usize, arrival_round: u64) -> AdmitSpec {
        AdmitSpec {
            tenant,
            name: self.models[model].name.to_string(),
            layers: Arc::clone(&self.shared[model]),
            input: self.models[model].input.clone(),
            arrival_round,
            injector: None,
            deadline_rounds: None,
            crash_cuts: Vec::new(),
            nonce_salt: 0,
            home_dir: None,
        }
    }

    /// The solo-reference oracle: zoo model `model` run alone, clean,
    /// under the session `tenant` derives from this fleet's identity —
    /// the keys the scheduler and the daemon give that tenant. `None`
    /// when the solo run itself fails.
    pub(crate) fn reference(&self, tenant: u32, model: usize) -> Option<QTensor3> {
        let m = &self.models[model];
        let (secret, nonce) = tenant_identity(&self.root, self.base_nonce, tenant, 0);
        let session = SecureSession {
            secret,
            nonce,
            ..m.session
        };
        journaled(m, &session, None).ok().map(|run| run.output)
    }
}

/// The deterministic plan one serve seed expands to: the fleet and one
/// [`PlannedTenant`] per session. The daemon campaign replays it so
/// "daemon output ≡ serve-campaign output" holds by construction.
#[derive(Debug)]
pub(crate) struct ServePlan {
    pub(crate) fleet: Fleet,
    /// One plan per tenant, in tenant-id order.
    pub(crate) tenants: Vec<PlannedTenant>,
}

impl ServePlan {
    /// Every tenant's solo reference, in tenant order; `None` for the
    /// tampered tenant, which must never complete.
    pub(crate) fn references(&self) -> Vec<Option<QTensor3>> {
        self.tenants
            .iter()
            .map(|p| {
                if p.tampered() {
                    None
                } else {
                    self.fleet.reference(p.tenant, p.model)
                }
            })
            .collect()
    }
}

/// One tenant's slot in a [`ServePlan`].
#[derive(Debug, Clone)]
pub(crate) struct PlannedTenant {
    pub(crate) tenant: u32,
    /// Index into the model zoo.
    pub(crate) model: usize,
    /// Scheduler round the arrival trace releases this tenant.
    arrival_round: u64,
    /// The planted relentless DRAM adversary's seed and fault, for the
    /// one tampered tenant.
    tamper: Option<(u64, FaultSpec)>,
}

impl PlannedTenant {
    /// Whether this is the planted tampered tenant.
    pub(crate) fn tampered(&self) -> bool {
        self.tamper.is_some()
    }

    /// A fresh copy of the planted adversary (`None` for clean tenants),
    /// so replaying the plan twice arms identical fault streams.
    pub(crate) fn injector(&self) -> Option<FaultInjector> {
        self.tamper
            .map(|(seed, spec)| FaultInjector::new(seed, vec![spec]))
    }

    /// The report line's adversary note.
    pub(crate) fn adversary(&self) -> Option<String> {
        self.tampered().then(|| "tampered".to_string())
    }
}

/// Expands one seed into the serve campaign's plan, consuming the
/// seed's splitmix stream in a fixed order: root secret, base nonce,
/// tampered pick, then per tenant model, arrival, and (tampered only)
/// layer, block and injector seed.
pub(crate) fn serve_plan(seed: u64, sessions: u32) -> ServePlan {
    let mut rng = seed;
    let fleet = Fleet::new(&mut rng, sessions);
    let tampered_tenant =
        (sessions >= 2).then(|| (splitmix(&mut rng) % u64::from(sessions)) as u32);
    let mut tenants = Vec::with_capacity(sessions as usize);
    for tenant in 0..sessions {
        let model = (splitmix(&mut rng) % fleet.models.len() as u64) as usize;
        let arrival_round = splitmix(&mut rng) % u64::from(sessions);
        let tamper = (tampered_tenant == Some(tenant)).then(|| {
            let layer = (splitmix(&mut rng) % fleet.models[model].layers.len() as u64) as u32;
            let block = splitmix(&mut rng);
            let spec = FaultSpec {
                kind: FaultKind::BitFlip,
                persistence: Persistence::Relentless,
                layer,
                block,
            };
            (splitmix(&mut rng), spec)
        });
        tenants.push(PlannedTenant {
            tenant,
            model,
            arrival_round,
            tamper,
        });
    }
    ServePlan { fleet, tenants }
}

/// The lines both fleet summaries end with: one per tenant, the pad
/// ledger, any `extra` lines, the ladder and the verdict.
fn fleet_summary(
    mut out: String,
    trials: &[TenantTrial],
    pads: (u64, u64),
    extra: &str,
    ladder: &LadderSummary,
    passed: bool,
) -> String {
    for t in trials {
        out.push_str(&format!("{t}\n"));
    }
    out.push_str(&format!(
        "pads issued: {}; cross-session collisions: {}\n",
        pads.0, pads.1
    ));
    out.push_str(extra);
    out.push_str(&format!("ladder: {}\n", ladder.to_json()));
    out.push_str(&format!("verdict: {}", verdict(passed)));
    out
}

/// Deterministic outcome of one serve campaign.
#[derive(Debug)]
pub struct ServeCampaignReport {
    /// Root seed.
    pub seed: u64,
    /// Tenant sessions scheduled.
    pub sessions: u32,
    /// The cross-session ledger fired on a deliberate same-key duplicate
    /// and stayed quiet across distinct keys (the detector detects).
    pub detector_ok: bool,
    /// Per-tenant verdicts, in tenant order.
    pub trials: Vec<TenantTrial>,
    /// Distinct pads across every session.
    pub pads_issued: u64,
    /// Cross-session pad collisions (must be 0).
    pub pad_collisions: u64,
    /// Scheduler rounds the manager ran.
    pub rounds: u64,
    /// Recovery-ladder summary over every tenant's incidents.
    pub ladder: LadderSummary,
    /// Per-session stage-time rows for `--metrics`.
    pub session_rows: Vec<LayerRow>,
}

impl Report for ServeCampaignReport {
    fn passed(&self) -> bool {
        self.detector_ok && self.pad_collisions == 0 && self.trials.iter().all(|t| t.ok)
    }

    fn summary(&self) -> String {
        let head = format!(
            "serve campaign seed={}: {} sessions, {} scheduler rounds\n\
             cross-session ledger self-test: {}\n",
            self.seed,
            self.sessions,
            self.rounds,
            if self.detector_ok { "ok" } else { "FAILED" }
        );
        fleet_summary(
            head,
            &self.trials,
            (self.pads_issued, self.pad_collisions),
            "",
            &self.ladder,
            self.passed(),
        )
    }

    fn session_rows(&self) -> &[LayerRow] {
        &self.session_rows
    }
}

/// The ledger must detect: a deliberate same-key duplicate collides, a
/// distinct derived key with the same counter does not (that is the
/// whole point of per-tenant key derivation).
fn ledger_selftest() -> bool {
    let mut ledger = PadLedger::new();
    let root = DeviceSecret::from_seed(0xD1CE);
    let c = BlockCoords {
        fmap_id: 0,
        layer_id: 0,
        version: 1,
        block_index: 0,
    };
    ledger.insert(root.derive_tenant(0), 7, 0, c)
        && !ledger.insert(root.derive_tenant(0), 7, 0, c)
        && ledger.insert(root.derive_tenant(1), 7, 0, c)
        && ledger.collisions() == 1
}

/// The `(arrival=… start=… served=… commits=…)` tail of a serve line.
fn progress(o: &SessionOutcome) -> String {
    format!(
        "(arrival={} start={} served={} commits={})",
        o.arrival_round, o.started_round, o.rounds_serviced, o.commits
    )
}

/// Runs the deterministic multi-session campaign over `sessions ≥ 1`
/// tenants: a seeded arrival trace assigns each tenant a model-zoo
/// workload and an arrival round; one seeded tenant (when `sessions ≥
/// 2`) gets a relentless DRAM adversary that defeats the recovery
/// ladder. The oracle: the tampered tenant exits through the
/// per-session abort path, every clean tenant's output is bit-identical
/// to its solo reference *and* to the plaintext reference, and the
/// cross-session pad ledger records zero collisions.
#[must_use]
pub fn run_serve_campaign(seed: u64, sessions: u32) -> ServeCampaignReport {
    let plan = serve_plan(seed, sessions);
    let fleet = &plan.fleet;
    let mut mgr = fleet.manager();
    for p in &plan.tenants {
        mgr.admit(AdmitSpec {
            injector: p.injector(),
            ..fleet.admission(p.tenant, p.model, p.arrival_round)
        });
    }
    let references = plan.references();

    let report = mgr.run();

    let mut trials = Vec::with_capacity(plan.tenants.len());
    for (p, reference) in plan.tenants.iter().zip(&references) {
        let m = &fleet.models[p.model];
        let outcome = report.outcomes.iter().find(|o| o.tenant == p.tenant);
        let (ok, detail) = match (outcome, p.tampered()) {
            (Some(o), false) => match (&o.verdict, reference) {
                (SessionVerdict::Completed(run), Some(expected)) => {
                    let plain = infer_plain(&m.layers, &m.input, m.session.shift);
                    if run.output == *expected && run.output == plain {
                        (
                            true,
                            format!(
                                "completed; output bit-identical to single-session run {}",
                                progress(o)
                            ),
                        )
                    } else {
                        (false, "completed but output DIVERGED".to_string())
                    }
                }
                (SessionVerdict::Completed(_), None) => (false, "reference run failed".to_string()),
                (SessionVerdict::Aborted(e), _) => (false, format!("clean session ABORTED: {e}")),
                (SessionVerdict::Quarantined(q), _) => (
                    false,
                    format!(
                        "clean session QUARANTINED under classic policy: {}",
                        q.cause
                    ),
                ),
            },
            (Some(o), true) => match &o.verdict {
                SessionVerdict::Aborted(e) if matches!(e.as_ref(), JournaledError::Aborted(_)) => (
                    true,
                    format!(
                        "aborted fail-closed after exhausting the ladder {}",
                        progress(o)
                    ),
                ),
                SessionVerdict::Aborted(e) => {
                    (false, format!("aborted through the wrong path: {e}"))
                }
                SessionVerdict::Completed(_) => (false, "tampered session COMPLETED".to_string()),
                SessionVerdict::Quarantined(q) => (
                    false,
                    format!("quarantined under classic policy: {}", q.cause),
                ),
            },
            (None, _) => (false, "tenant missing from report".to_string()),
        };
        trials.push(TenantTrial {
            tenant: p.tenant,
            model: m.name,
            adversary: p.adversary(),
            ok,
            detail,
        });
    }

    ServeCampaignReport {
        seed,
        sessions,
        detector_ok: ledger_selftest(),
        trials,
        pads_issued: report.pads_issued,
        pad_collisions: report.pad_collisions,
        rounds: report.rounds,
        ladder: report.ladder(),
        session_rows: report.session_rows,
    }
}

/// Deterministic outcome of one chaos campaign.
#[derive(Debug)]
pub struct ChaosCampaignReport {
    /// Root seed.
    pub seed: u64,
    /// Tenant sessions scheduled.
    pub sessions: u32,
    /// Per-tenant verdicts, in tenant order.
    pub trials: Vec<TenantTrial>,
    /// Scheduler rounds the manager ran.
    pub rounds: u64,
    /// Distinct pads across every session and every retry.
    pub pads_issued: u64,
    /// Cross-session pad collisions (must be 0).
    pub pad_collisions: u64,
    /// Scheduler-level session retries granted.
    pub session_retries: u64,
    /// Deadline budgets exceeded (any tenant).
    pub deadline_misses: u64,
    /// Tenants sealed fail-closed.
    pub sessions_quarantined: u64,
    /// Admission slots shed under fault pressure.
    pub inflight_shed: u64,
    /// Deadline misses charged to *healthy* tenants (must be 0: chaos
    /// against the faulted set must not starve the rest).
    pub healthy_deadline_misses: u64,
    /// Recovery-ladder summary over every tenant's incidents.
    pub ladder: LadderSummary,
    /// Per-session stage-time rows for `--metrics`.
    pub session_rows: Vec<LayerRow>,
}

impl Report for ChaosCampaignReport {
    fn passed(&self) -> bool {
        self.pad_collisions == 0
            && self.healthy_deadline_misses == 0
            && self.trials.iter().all(|t| t.ok)
    }

    fn summary(&self) -> String {
        let head = format!(
            "chaos campaign seed={}: {} sessions ({} faulted), {} scheduler rounds\n",
            self.seed,
            self.sessions,
            self.trials.iter().filter(|t| t.adversary.is_some()).count(),
            self.rounds
        );
        let robustness = format!(
            "robustness: {{\"session_retries\":{},\"deadline_misses\":{},\
             \"sessions_quarantined\":{},\"inflight_shed\":{}}}\n",
            self.session_retries,
            self.deadline_misses,
            self.sessions_quarantined,
            self.inflight_shed
        );
        fleet_summary(
            head,
            &self.trials,
            (self.pads_issued, self.pad_collisions),
            &robustness,
            &self.ladder,
            self.passed(),
        )
    }

    fn session_rows(&self) -> &[LayerRow] {
        &self.session_rows
    }
}

/// One chaos victim's seeded mix: a DRAM adversary, scripted power
/// cuts, or both, drawn from the tenant's own splitmix stream `ts`.
fn chaos_mix(ts: &mut u64, layers: u64, steps: u64) -> (Option<FaultInjector>, Vec<u64>, u32) {
    let mut injector = None;
    let mut crash_cuts = Vec::new();
    let mut faults = 0u32;
    let mode = splitmix(ts) % 3;
    if mode != 1 {
        let n = 1 + (splitmix(ts) % 2) as usize;
        let mut specs = Vec::new();
        while specs.len() < n {
            let kind = FaultKind::ALL[(splitmix(ts) % FaultKind::ALL.len() as u64) as usize];
            let persistence =
                Persistence::ALL[(splitmix(ts) % Persistence::ALL.len() as u64) as usize];
            let spec = FaultSpec {
                kind,
                persistence,
                layer: (splitmix(ts) % layers) as u32,
                block: splitmix(ts),
            };
            if spec.is_expressible() {
                specs.push(spec);
            }
        }
        faults = specs.len() as u32;
        injector = Some(FaultInjector::new(splitmix(ts), specs));
    }
    if mode != 0 {
        let n = 1 + splitmix(ts) % 2;
        let total = steps.max(4);
        for _ in 0..n {
            crash_cuts.push(1 + splitmix(ts) % (total - 1));
        }
    }
    (injector, crash_cuts, faults)
}

/// Runs the deterministic chaos campaign: a hardened scheduler serves
/// `sessions ≥ 1` tenants while `⌊sessions/2⌋` seeded victims are hit by
/// a per-tenant composition of the fault campaign's five fault kinds
/// and the crash campaign's scripted power cuts — concurrently, from
/// independent per-tenant splitmix streams. Oracles: every healthy
/// tenant completes bit-identical to its solo reference with zero
/// deadline misses; every faulted tenant ends *recovered* (output
/// bit-identical to its clean solo reference) or *quarantined*
/// (fail-closed) — never wedged in a classic abort; and the
/// cross-session pad ledger stays collision-free across all retries,
/// crashes, and quarantines.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run_chaos_campaign(seed: u64, sessions: u32) -> ChaosCampaignReport {
    let mut rng = seed;
    let fleet = Fleet::new(&mut rng, sessions);
    let backoff_seed = splitmix(&mut rng);
    let fault_pick = splitmix(&mut rng);

    let steps: Vec<u64> = fleet.models.iter().map(|m| calibrate(m).1).collect();

    let mut mgr = fleet.manager();
    mgr.harden(backoff_seed);

    // Seeded choice of k < N chaos victims.
    let k = (sessions / 2) as usize;
    let mut victim = vec![false; sessions as usize];
    let mut pick = fault_pick;
    let mut chosen = 0;
    while chosen < k {
        let i = (splitmix(&mut pick) % u64::from(sessions)) as usize;
        if !victim[i] {
            victim[i] = true;
            chosen += 1;
        }
    }

    // (tenant, model, adversary note) per tenant.
    let mut plans = Vec::with_capacity(sessions as usize);
    for tenant in 0..sessions {
        // Independent per-tenant stream: tenants decorrelate while the
        // campaign stays byte-identical per root seed.
        let mut ts = {
            let mut s = seed
                ^ u64::from(tenant)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(0x0DDB_1A5E);
            splitmix(&mut s)
        };
        let model = (splitmix(&mut ts) % fleet.models.len() as u64) as usize;
        let arrival = splitmix(&mut ts) % u64::from(sessions);
        let (injector, crash_cuts, adversary) = if victim[tenant as usize] {
            let layers = fleet.models[model].layers.len() as u64;
            let (injector, cuts, faults) = chaos_mix(&mut ts, layers, steps[model]);
            let note = format!("chaos: {faults} faults, {} cuts", cuts.len());
            (injector, cuts, Some(note))
        } else {
            (None, Vec::new(), None)
        };
        mgr.admit(AdmitSpec {
            injector,
            // Generous fleet-wide budget: exercises the deadline
            // bookkeeping without starving anyone — healthy tenants
            // missing it is an oracle failure, not an expectation.
            deadline_rounds: Some(4096),
            crash_cuts,
            ..fleet.admission(tenant, model, arrival)
        });
        plans.push((tenant, model, adversary));
    }

    // Clean solo references for every tenant — the bit-identity oracle
    // for healthy and recovered tenants alike.
    let references: Vec<Option<QTensor3>> = plans
        .iter()
        .map(|&(tenant, model, _)| fleet.reference(tenant, model))
        .collect();

    let report = mgr.run();

    let mut healthy_deadline_misses = 0u64;
    let mut trials = Vec::with_capacity(plans.len());
    for ((tenant, model, adversary), reference) in plans.into_iter().zip(&references) {
        let faulted = adversary.is_some();
        let outcome = report.outcomes.iter().find(|o| o.tenant == tenant);
        let (ok, detail) = match outcome {
            None => (false, "tenant missing from report".to_string()),
            Some(o) => {
                if !faulted && o.deadline_missed {
                    healthy_deadline_misses += 1;
                }
                match (&o.verdict, faulted) {
                    // Completion — healthy or recovered — must be
                    // bit-identical to the clean solo run.
                    (SessionVerdict::Completed(run), _) => match reference {
                        Some(expected) if run.output == *expected => (
                            true,
                            format!(
                                "completed bit-identical to solo run \
                                 (retries={} commits={})",
                                o.retries, o.commits
                            ),
                        ),
                        Some(_) => (
                            false,
                            "completed but output DIVERGED from solo run".to_string(),
                        ),
                        None => (false, "solo reference run failed".to_string()),
                    },
                    (SessionVerdict::Quarantined(q), true) => (
                        true,
                        format!(
                            "quarantined fail-closed after {} retries: {}",
                            q.retries, q.cause
                        ),
                    ),
                    (SessionVerdict::Quarantined(q), false) => {
                        (false, format!("healthy tenant QUARANTINED: {}", q.cause))
                    }
                    (SessionVerdict::Aborted(e), true) => {
                        (false, format!("wedged in a classic abort: {e}"))
                    }
                    (SessionVerdict::Aborted(e), false) => {
                        (false, format!("healthy session ABORTED: {e}"))
                    }
                }
            }
        };
        trials.push(TenantTrial {
            tenant,
            model: fleet.models[model].name,
            adversary,
            ok,
            detail,
        });
    }

    ChaosCampaignReport {
        seed,
        sessions,
        trials,
        rounds: report.rounds,
        pads_issued: report.pads_issued,
        pad_collisions: report.pad_collisions,
        session_retries: report.session_retries,
        deadline_misses: report.deadline_misses,
        sessions_quarantined: report.sessions_quarantined,
        inflight_shed: report.inflight_shed,
        healthy_deadline_misses,
        ladder: report.ladder(),
        session_rows: report.session_rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_campaign_passes_and_is_deterministic() {
        let a = run_serve_campaign(7, 4);
        assert!(a.passed(), "{}", a.summary());
        let b = run_serve_campaign(7, 4);
        assert_eq!(a.summary(), b.summary(), "summary must be byte-identical");
        assert_eq!(
            a.trials.iter().filter(|t| t.adversary.is_some()).count(),
            1,
            "exactly one planted tampered tenant"
        );
    }

    #[test]
    fn single_session_campaign_has_no_tampered_tenant() {
        let report = run_serve_campaign(3, 1);
        assert!(report.passed(), "{}", report.summary());
        assert!(report.trials.iter().all(|t| t.adversary.is_none()));
    }

    #[test]
    fn ledger_selftest_detects() {
        assert!(ledger_selftest());
    }

    #[test]
    fn chaos_campaign_passes_and_is_deterministic() {
        let a = run_chaos_campaign(11, 4);
        assert!(a.passed(), "{}", a.summary());
        let b = run_chaos_campaign(11, 4);
        assert_eq!(
            a.summary(),
            b.summary(),
            "chaos summary must be byte-identical per seed"
        );
        assert_eq!(
            a.trials.iter().filter(|t| t.adversary.is_some()).count(),
            2,
            "⌊4/2⌋ seeded victims"
        );
        assert!(
            a.trials.iter().any(|t| t.adversary.is_none()),
            "healthy tenants must co-exist with the chaos set"
        );
    }

    #[test]
    fn single_session_chaos_campaign_is_fault_free() {
        let report = run_chaos_campaign(5, 1);
        assert!(report.passed(), "{}", report.summary());
        assert!(report.trials.iter().all(|t| t.adversary.is_none()));
        assert_eq!(report.sessions_quarantined, 0);
    }

    #[test]
    fn identity_matches_serve_plan() {
        for seed in [0u64, 7, 0xDEAD_BEEF] {
            let plan = serve_plan(seed, 4);
            let (root, base_nonce) = seculator_wire::wire_identity(seed);
            assert_eq!(root, plan.fleet.root);
            assert_eq!(base_nonce, plan.fleet.base_nonce);
        }
    }
}
