//! Cross-session isolation properties of the multi-session scheduler:
//! no CTR pad is ever issued twice across tenant sessions, scheduled
//! outputs are bit-identical to their single-session references, and a
//! DRAM adversary in one tenant's memory never perturbs any other
//! tenant — the fail-closed blast radius is exactly one session.

use proptest::prelude::*;
use seculator::campaigns::run_serve_campaign;
use seculator::core::journal::{campaign_models, DurableState, PadTracker};
use seculator::core::retry::{
    BACKOFF_MULTIPLIER, BASE_BACKOFF_ROUNDS, MAX_BACKOFF_ROUNDS, MAX_SESSION_RETRIES,
};
use seculator::core::secure_infer::Instruments;
use seculator::core::telemetry::{self, LayerRow};
use seculator::core::{
    infer_journaled, splitmix, AdmitSpec, CampaignModel, CrashClock, FaultInjector, FaultKind,
    FaultSpec, JournaledError, Persistence, SecurityError, SessionManager, SessionVerdict,
};
use seculator::crypto::DeviceSecret;
use std::sync::Arc;

/// Builds a manager over the model zoo with a seeded arrival trace and
/// returns it along with each tenant's zoo-model index.
fn zoo_manager(
    seed: u64,
    sessions: u32,
    max_inflight: usize,
    arrivals: &[u64],
) -> (SessionManager, Vec<usize>) {
    let models = campaign_models();
    let mut mgr = SessionManager::new(
        DeviceSecret::from_seed(seed),
        seed ^ 0x5eed,
        models[0].session.shift,
        max_inflight,
    );
    let shared: Vec<Arc<_>> = models.iter().map(|m| Arc::new(m.layers.clone())).collect();
    let mut picks = Vec::new();
    for t in 0..sessions {
        let pick = (seed as usize + t as usize) % models.len();
        mgr.admit(AdmitSpec {
            tenant: t,
            name: models[pick].name.to_string(),
            layers: Arc::clone(&shared[pick]),
            input: models[pick].input.clone(),
            arrival_round: arrivals[t as usize % arrivals.len()],
            injector: None,
            deadline_rounds: None,
            crash_cuts: Vec::new(),
            nonce_salt: 0,
            home_dir: None,
        });
        picks.push(pick);
    }
    (mgr, picks)
}

/// One tenant's single-session reference: same derived session, fresh
/// private journal — what the tenant would have computed alone.
fn reference(
    mgr: &SessionManager,
    tenant: u32,
    pick: usize,
) -> (seculator::compute::quant::QTensor3, usize) {
    let models = campaign_models();
    let m = &models[pick];
    let session = mgr.derived_session(tenant);
    let mut tracker = PadTracker::new();
    let run = infer_journaled(
        &m.layers,
        &m.input,
        &session,
        &mut DurableState::default(),
        &mut Instruments {
            tracker: &mut tracker,
            injector: None,
            clock: None,
        },
    )
    .expect("clean single-session run completes");
    (run.output, tracker.issued().count())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Clean runs: zero cross-session pad collisions, the ledger's pad
    /// count is exactly the sum of the per-session pad sets, and every
    /// tenant's output is bit-identical to its single-session run.
    #[test]
    fn clean_schedules_are_isolated_and_bit_identical(
        seed in 0u64..1_000_000,
        sessions in 1u32..=5,
        max_inflight in 1usize..=5,
        arrivals in proptest::collection::vec(0u64..4, 5..6),
    ) {
        let (mgr, picks) = zoo_manager(seed, sessions, max_inflight, &arrivals);
        let refs: Vec<_> = (0..sessions)
            .map(|t| reference(&mgr, t, picks[t as usize]))
            .collect();
        let mut mgr = mgr;
        let report = mgr.run();

        prop_assert_eq!(report.pad_collisions, 0, "a pad was issued twice across sessions");
        let expected_pads: usize = refs.iter().map(|(_, pads)| pads).sum();
        prop_assert_eq!(
            report.pads_issued,
            expected_pads as u64,
            "ledger disagrees with the per-session pad sets"
        );
        prop_assert_eq!(report.outcomes.len(), sessions as usize);
        for o in &report.outcomes {
            let out = o.output().expect("clean tenants complete");
            prop_assert_eq!(
                out,
                &refs[o.tenant as usize].0,
                "tenant {} diverged from its single-session run",
                o.tenant
            );
        }
    }

    /// Tamper isolation: a relentless DRAM bit-flipper scoped to one
    /// tenant's memory forces *that* session through the fail-closed
    /// abort path; every other session still completes bit-identically
    /// to its single-session reference, and no pad is ever reissued.
    #[test]
    fn a_tampered_session_never_perturbs_its_neighbours(
        seed in 0u64..1_000_000,
        sessions in 2u32..=5,
        victim_pick in 0u32..5,
        layer in 0u32..3,
        block in 0u64..1_000,
    ) {
        let victim = victim_pick % sessions;
        let models = campaign_models();
        let arrivals = [0u64, 1, 0, 2, 1];
        let (mgr, picks) = zoo_manager(seed, sessions, 2, &arrivals);
        let refs: Vec<_> = (0..sessions)
            .map(|t| reference(&mgr, t, picks[t as usize]))
            .collect();

        // Rebuild with the injector planted on the victim only.
        let mut tampered = SessionManager::new(
            DeviceSecret::from_seed(seed),
            seed ^ 0x5eed,
            models[0].session.shift,
            2,
        );
        let shared: Vec<Arc<_>> =
            models.iter().map(|m| Arc::new(m.layers.clone())).collect();
        for t in 0..sessions {
            let pick = picks[t as usize];
            let injector = (t == victim).then(|| {
                FaultInjector::new(
                    seed ^ 0xbad,
                    vec![FaultSpec {
                        kind: FaultKind::BitFlip,
                        persistence: Persistence::Relentless,
                        layer: layer % models[pick].layers.len() as u32,
                        block,
                    }],
                )
            });
            tampered.admit(AdmitSpec {
                tenant: t,
                name: models[pick].name.to_string(),
                layers: Arc::clone(&shared[pick]),
                input: models[pick].input.clone(),
                arrival_round: arrivals[t as usize % arrivals.len()],
                injector,
                deadline_rounds: None,
                crash_cuts: Vec::new(),
                nonce_salt: 0,
                home_dir: None,
            });
        }
        let report = tampered.run();

        prop_assert_eq!(report.pad_collisions, 0, "a pad was issued twice across sessions");
        for o in &report.outcomes {
            if o.tenant == victim {
                match &o.verdict {
                    SessionVerdict::Aborted(e) => prop_assert!(
                        matches!(e.as_ref(), JournaledError::Aborted(_)),
                        "victim must fail closed via the recovery ladder, got {}",
                        e
                    ),
                    SessionVerdict::Completed(_) => prop_assert!(
                        false,
                        "a relentless bit-flipper must not verify"
                    ),
                    SessionVerdict::Quarantined(q) => prop_assert!(
                        false,
                        "classic policy must abort, not quarantine: {}",
                        q.cause
                    ),
                }
            } else {
                let out = o.output().expect("untampered tenants complete");
                prop_assert_eq!(
                    out,
                    &refs[o.tenant as usize].0,
                    "tenant {} was perturbed by tenant {}'s adversary",
                    o.tenant,
                    victim
                );
            }
        }
    }
}

/// Builds a manager whose tenants all serve the same zoo model from one
/// shared weight Arc and arrive together, so every round steps all
/// running tenants at the same layer of the same weights.
fn shared_weight_manager(seed: u64, sessions: u32, pick: usize) -> SessionManager {
    let models = campaign_models();
    let m = &models[pick];
    let mut mgr = SessionManager::new(
        DeviceSecret::from_seed(seed),
        seed ^ 0x5eed,
        m.session.shift,
        sessions as usize,
    );
    let shared = Arc::new(m.layers.clone());
    for t in 0..sessions {
        mgr.admit(AdmitSpec {
            tenant: t,
            name: m.name.to_string(),
            layers: Arc::clone(&shared),
            input: m.input.clone(),
            arrival_round: 0,
            injector: None,
            deadline_rounds: None,
            crash_cuts: Vec::new(),
            nonce_salt: 0,
            home_dir: None,
        });
    }
    mgr
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Tenants that share one weight Arc and arrive in the same round
    /// produce exactly what each would have produced alone — the shared
    /// weights are read-only, and every piece of security state stays
    /// per-tenant.
    #[test]
    fn shared_weight_co_tenants_equal_their_solo_runs(
        seed in 0u64..1_000_000,
        sessions in 2u32..=4,
    ) {
        let models = campaign_models();
        let pick = seed as usize % models.len();
        let mut mgr = shared_weight_manager(seed, sessions, pick);
        let refs: Vec<_> = (0..sessions).map(|t| reference(&mgr, t, pick)).collect();
        let report = mgr.run();
        prop_assert_eq!(report.pad_collisions, 0);
        for o in &report.outcomes {
            let out = o.output().expect("clean co-tenants complete");
            prop_assert_eq!(
                out,
                &refs[o.tenant as usize].0,
                "co-tenant {} diverged from its solo run",
                o.tenant
            );
        }
    }
}

/// A model's interruptible instants, from one counting-clock run.
fn instants(m: &CampaignModel) -> u64 {
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

/// Negative property of the retry path: a session retried after a
/// mid-run failure resumes under a *bumped nonce epoch* and never reuses
/// a CTR pad — the cross-session [`seculator::core::PadLedger`] stays
/// collision-free through a retry storm that mixes a crash-cut tenant, a
/// relentless-fault tenant driven into quarantine, and a healthy
/// bystander.
#[test]
fn retry_storms_never_reuse_a_ctr_pad() {
    let models = campaign_models();
    for seed in [21u64, 22, 23] {
        let m = &models[seed as usize % models.len()];
        // Calibrate a mid-run cut for the crash-cut tenant.
        let steps = instants(m);
        let mut mgr = SessionManager::new(
            DeviceSecret::from_seed(seed),
            seed ^ 0x5eed,
            m.session.shift,
            3,
        );
        mgr.harden(seed ^ 0xF00D);
        let retried_session = mgr.derived_session(0);
        let shared = Arc::new(m.layers.clone());
        let admit = |mgr: &mut SessionManager,
                     tenant: u32,
                     injector: Option<FaultInjector>,
                     crash_cuts: Vec<u64>| {
            mgr.admit(AdmitSpec {
                tenant,
                name: m.name.to_string(),
                layers: Arc::clone(&shared),
                input: m.input.clone(),
                arrival_round: 0,
                injector,
                deadline_rounds: None,
                crash_cuts,
                nonce_salt: 0,
                home_dir: None,
            });
        };
        admit(&mut mgr, 0, None, vec![steps / 2]);
        admit(
            &mut mgr,
            1,
            Some(FaultInjector::new(
                seed ^ 0xbad,
                vec![FaultSpec {
                    kind: FaultKind::BitFlip,
                    persistence: Persistence::Relentless,
                    layer: 0,
                    block: 0,
                }],
            )),
            Vec::new(),
        );
        admit(&mut mgr, 2, None, Vec::new());
        let healthy_session = mgr.derived_session(2);
        let report = mgr.run();

        // The storm's core invariant: zero pad reuse across every
        // attempt of every tenant.
        assert_eq!(
            report.pad_collisions, 0,
            "seed {seed}: a CTR pad was reused under the retry storm"
        );

        // The crash-cut tenant recovered via a session retry under a
        // bumped epoch.
        let retried = report.outcomes.iter().find(|o| o.tenant == 0).unwrap();
        assert_eq!(retried.retries, 1, "seed {seed}: expected one retry");
        match &retried.verdict {
            SessionVerdict::Completed(run) => {
                assert!(
                    run.epoch >= 1,
                    "seed {seed}: the resumed attempt must run under a bumped nonce epoch"
                );
                let mut tracker = PadTracker::new();
                let solo = infer_journaled(
                    &m.layers,
                    &m.input,
                    &retried_session,
                    &mut DurableState::default(),
                    &mut Instruments {
                        tracker: &mut tracker,
                        injector: None,
                        clock: None,
                    },
                )
                .expect("solo run completes");
                assert_eq!(
                    run.output, solo.output,
                    "seed {seed}: recovered output must be bit-identical to the solo run"
                );
            }
            other => panic!("seed {seed}: crash-cut tenant must recover, got {other:?}"),
        }

        // The relentless tenant is driven into quarantine, not wedged.
        let quarantined = report.outcomes.iter().find(|o| o.tenant == 1).unwrap();
        assert!(
            matches!(
                &quarantined.verdict,
                SessionVerdict::Quarantined(q)
                    if matches!(q.cause, SecurityError::RetryCeilingExhausted { .. })
            ),
            "seed {seed}: relentless tenant must hit the retry ceiling, got {:?}",
            quarantined.verdict
        );

        // The healthy bystander is untouched by either storm.
        let healthy = report.outcomes.iter().find(|o| o.tenant == 2).unwrap();
        let mut tracker = PadTracker::new();
        let solo = infer_journaled(
            &m.layers,
            &m.input,
            &healthy_session,
            &mut DurableState::default(),
            &mut Instruments {
                tracker: &mut tracker,
                injector: None,
                clock: None,
            },
        )
        .expect("solo run completes");
        assert_eq!(
            healthy.output().expect("healthy bystander completes"),
            &solo.output,
            "seed {seed}: bystander perturbed by the retry storm"
        );
    }
}

/// The most rounds a hardened tenant that holds a slot can go without a
/// promotion or a layer commit (DESIGN §13), derived from the
/// `core::retry` constants. A step either commits or fails, so the first
/// failure lands at most one round after the last progress. Retry `i`
/// wakes at most `min(BASE · MULTIPLIER^i, CAP) + BASE` rounds after the
/// failure before it and commits or fails in its wake round. The failure
/// after the last retry quarantines the tenant.
fn stall_bound() -> u64 {
    1 + (0..MAX_SESSION_RETRIES)
        .map(|i| {
            (BASE_BACKOFF_ROUNDS * BACKOFF_MULTIPLIER.pow(i)).min(MAX_BACKOFF_ROUNDS)
                + BASE_BACKOFF_ROUNDS
        })
        .sum::<u64>()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The retry ceiling bounds every stall, which is why the scheduler
    /// needs no stuck-session watchdog. A hardened manager is stepped one
    /// round at a time while every tenant carries a seeded power cut for
    /// each of its attempts and half of them also a relentless fault at a
    /// seeded layer. Every tenant reaches a terminal state, no tenant that
    /// holds a slot goes more than [`stall_bound`] rounds without a commit,
    /// and that bound is below the 64 rounds the deleted watchdog allowed.
    #[test]
    fn hardened_stalls_stay_within_the_retry_bound(
        seed in any::<u64>(),
        sessions in 2u32..=6,
    ) {
        const DELETED_WATCHDOG_ROUNDS: u64 = 64;
        let bound = stall_bound();
        prop_assert_eq!(bound, 6);
        prop_assert!(bound < DELETED_WATCHDOG_ROUNDS);

        let models = campaign_models();
        let steps: Vec<u64> = models.iter().map(instants).collect();
        // One slot per tenant: every tenant is promoted in round 1 and
        // holds its slot until it is terminal.
        let mut mgr = SessionManager::new(
            DeviceSecret::from_seed(seed),
            seed ^ 0x5eed,
            models[0].session.shift,
            sessions as usize,
        );
        mgr.harden(seed ^ 0xF00D);
        let mut rng = seed;
        let mut faulted = Vec::new();
        for t in 0..sessions {
            let pick = (splitmix(&mut rng) % models.len() as u64) as usize;
            let m = &models[pick];
            let crash_cuts = (0..=MAX_SESSION_RETRIES)
                .map(|_| 1 + splitmix(&mut rng) % steps[pick])
                .collect();
            let injector = (splitmix(&mut rng) & 1 == 0).then(|| {
                FaultInjector::new(
                    splitmix(&mut rng),
                    vec![FaultSpec {
                        kind: FaultKind::BitFlip,
                        persistence: Persistence::Relentless,
                        layer: (splitmix(&mut rng) % m.layers.len() as u64) as u32,
                        block: splitmix(&mut rng),
                    }],
                )
            });
            faulted.push(injector.is_some());
            mgr.admit(AdmitSpec {
                tenant: t,
                name: m.name.to_string(),
                layers: Arc::new(m.layers.clone()),
                input: m.input.clone(),
                arrival_round: 0,
                injector,
                deadline_rounds: None,
                crash_cuts,
                nonce_salt: 0,
                home_dir: None,
            });
        }

        // (round of the last promotion or commit, commits so far)
        let mut progress = vec![(1u64, 0u32); sessions as usize];
        let mut outcomes = Vec::new();
        while mgr.step_round() {
            let round = mgr.current_round();
            prop_assert!(round <= 1_000, "seed {}: the fleet never drained", seed);
            outcomes.extend(mgr.harvest_terminal());
            for t in 0..sessions {
                if outcomes.iter().any(|o| o.tenant == t) {
                    continue;
                }
                let commits = mgr.progress_of(t).expect("live tenant");
                let (last, seen) = &mut progress[t as usize];
                if commits > *seen {
                    (*last, *seen) = (round, commits);
                }
                // Rounds since its last progress when the next round
                // starts.
                prop_assert!(
                    round + 1 - *last <= bound,
                    "seed {}: tenant {} holds a slot {} rounds after its last progress",
                    seed,
                    t,
                    round + 1 - *last
                );
            }
        }

        prop_assert_eq!(outcomes.len(), sessions as usize, "every tenant is terminal");
        for o in &outcomes {
            match &o.verdict {
                SessionVerdict::Quarantined(q) => prop_assert!(
                    matches!(q.cause, SecurityError::RetryCeilingExhausted { .. }),
                    "seed {}: tenant {}: {}",
                    seed,
                    o.tenant,
                    q.cause
                ),
                SessionVerdict::Completed(_) => prop_assert!(
                    !faulted[o.tenant as usize],
                    "seed {}: a relentless fault must not verify",
                    seed
                ),
                SessionVerdict::Aborted(e) => prop_assert!(
                    false,
                    "seed {}: hardened tenant {} aborted: {}",
                    seed,
                    o.tenant,
                    e
                ),
            }
        }
        prop_assert_eq!(mgr.pad_collisions(), 0);
    }
}

/// Every tenant of a 300-session serve campaign gets its own exact row:
/// all 300 are present, in tenant order, and with telemetry on each has
/// timed seal, open and compute stages. With telemetry off every row is
/// zero. Rows are written by the steps themselves, so none can be lost
/// however many events a run produces.
#[test]
fn serve_campaign_rows_are_complete_for_every_tenant() {
    let report = run_serve_campaign(7, 300);
    let tenants: Vec<u64> = report.session_rows.iter().map(|r| r.layer).collect();
    assert_eq!(tenants, (0..300).collect::<Vec<u64>>());
    for r in &report.session_rows {
        if telemetry::enabled() {
            assert!(
                r.seal_ns > 0 && r.open_ns > 0 && r.compute_ns > 0,
                "tenant {} has an untimed stage: {r:?}",
                r.layer
            );
        } else {
            let zero = LayerRow {
                layer: r.layer,
                ..LayerRow::default()
            };
            assert_eq!(*r, zero);
        }
    }
}

/// A tenant's row is the sum of the rows of every layer step it took:
/// for a tenant that completed in one attempt it equals the sum of its
/// run's `layer_rows`, and a tenant whose first step was cut by a power
/// loss also carries the stage times of that failed step. Holds in both
/// feature modes.
#[test]
fn session_rows_sum_the_rows_of_every_step() {
    let models = campaign_models();
    let seed = 31u64;
    let cut_model = &models[0];
    // Instants in the first layer alone: a cut at half of them lands
    // inside layer 0, after its first convolution and seal.
    let steps = {
        let mut clock = CrashClock::counting();
        let _ = infer_journaled(
            &cut_model.layers[..1],
            &cut_model.input,
            &cut_model.session,
            &mut DurableState::default(),
            &mut Instruments {
                tracker: &mut PadTracker::new(),
                injector: None,
                clock: Some(&mut clock),
            },
        );
        clock.steps()
    };
    let mut mgr = SessionManager::new(
        DeviceSecret::from_seed(seed),
        seed ^ 0x5eed,
        cut_model.session.shift,
        2,
    );
    mgr.harden(seed ^ 0xF00D);
    for t in 0..4u32 {
        let m = &models[t as usize % models.len()];
        mgr.admit(AdmitSpec {
            tenant: t,
            name: m.name.to_string(),
            layers: Arc::new(m.layers.clone()),
            input: m.input.clone(),
            arrival_round: u64::from(t),
            injector: None,
            deadline_rounds: None,
            crash_cuts: if t == 0 { vec![steps / 2] } else { Vec::new() },
            nonce_salt: 0,
            home_dir: None,
        });
    }
    let report = mgr.run();
    assert_eq!(report.session_rows.len(), report.outcomes.len());
    for (o, row) in report.outcomes.iter().zip(&report.session_rows) {
        assert_eq!(row.layer, u64::from(o.tenant));
        let SessionVerdict::Completed(run) = &o.verdict else {
            panic!("tenant {} must complete, got {:?}", o.tenant, o.verdict);
        };
        let mut sum = LayerRow {
            layer: row.layer,
            ..LayerRow::default()
        };
        for r in &run.layer_rows {
            sum.add_stages(r);
        }
        if o.retries == 0 {
            assert_eq!(*row, sum, "tenant {}", o.tenant);
            continue;
        }
        // The retried run re-executes from layer 0, so only the failed
        // step's own stage times separate the tenant's row from the
        // run's sum.
        assert_eq!(run.first_executed_layer, 0);
        if telemetry::enabled() {
            assert!(
                row.compute_ns > sum.compute_ns && row.seal_ns > sum.seal_ns,
                "tenant {}: the failed step's stages are missing: {row:?} vs {sum:?}",
                o.tenant
            );
        } else {
            assert_eq!(*row, sum);
        }
    }
    assert_eq!(
        report.outcomes[0].retries, 1,
        "the cut tenant must complete on its second attempt"
    );
}
