//! End-to-end recovery behavior of the journaled secure-inference
//! driver: transient faults recover by re-fetching, persistent faults by
//! layer re-execution, relentless faults abort gracefully with a full
//! audit record — and the deterministic campaign meets the acceptance
//! bar (100 % detection, 0 false positives, no silent corruption).

use seculator::compute::quant::{QTensor3, QTensor4};
use seculator::core::secure_infer::{
    infer_journaled, infer_plain, Instruments, JournaledError, JournaledRun, QConvLayer,
    RecoveryPolicy, SecureSession,
};
use seculator::core::{
    run_campaign, AbortReport, CampaignConfig, DurableState, FaultInjector, FaultKind, FaultSpec,
    PadTracker, Persistence, RecoveryAction, SecurityError,
};
use seculator::crypto::DeviceSecret;

const SHIFT: u32 = 6;

fn net() -> Vec<QConvLayer> {
    vec![
        QConvLayer {
            weights: QTensor4::seeded(4, 2, 3, 3, 1),
            stride: 1,
            channel_groups: vec![0..1, 1..2],
        },
        QConvLayer::simple(QTensor4::seeded(2, 4, 3, 3, 2), 1),
    ]
}

fn input() -> QTensor3 {
    QTensor3::seeded(2, 8, 8, 5)
}

/// One journaled run of the test network on a fresh journal, with no
/// power-cut clock.
fn run(
    nonce: u64,
    policy: RecoveryPolicy,
    injector: Option<&mut FaultInjector>,
) -> Result<JournaledRun, JournaledError> {
    let session = SecureSession {
        secret: DeviceSecret::from_seed(3),
        nonce,
        shift: SHIFT,
        policy,
    };
    infer_journaled(
        &net(),
        &input(),
        &session,
        &mut DurableState::default(),
        &mut Instruments {
            tracker: &mut PadTracker::new(),
            injector,
            clock: None,
        },
    )
}

fn run_with(spec: FaultSpec) -> Result<JournaledRun, JournaledError> {
    let mut injector = FaultInjector::new(99, vec![spec]);
    let r = run(11, RecoveryPolicy::default(), Some(&mut injector));
    assert!(injector.injections() > 0, "fault must fire: {spec}");
    r
}

/// The abort report of a run that must have exhausted its ladder.
fn expect_abort(result: Result<JournaledRun, JournaledError>, why: &str) -> Box<AbortReport> {
    match result {
        Err(JournaledError::Aborted(abort)) => abort,
        other => panic!("{why}: {other:?}"),
    }
}

#[test]
fn transient_bit_flip_recovers_by_refetch() {
    let spec = FaultSpec {
        kind: FaultKind::BitFlip,
        persistence: Persistence::TransientRead,
        layer: 1,
        block: 2,
    };
    let run = run_with(spec).expect("transient faults are recoverable");
    assert_eq!(run.incidents.refetches(), 1, "{}", run.incidents.summary());
    assert_eq!(run.incidents.reexecutions(), 0, "a re-fetch must suffice");
    assert!(run
        .incidents
        .records
        .iter()
        .any(|r| r.action == RecoveryAction::Refetch));
    assert!(run
        .incidents
        .records
        .iter()
        .all(|r| r.cause == SecurityError::LayerIntegrity { layer_id: 1 }));
    assert_eq!(run.output, infer_plain(&net(), &input(), SHIFT));
}

#[test]
fn persistent_corruption_recovers_by_layer_reexecution() {
    for kind in [
        FaultKind::BitFlip,
        FaultKind::StaleReplay,
        FaultKind::BlockSwap,
        FaultKind::DroppedWrite,
        FaultKind::MacRegisterCorruption,
    ] {
        let spec = FaultSpec {
            kind,
            persistence: Persistence::Persistent,
            layer: 0,
            block: 1,
        };
        let run = run_with(spec).expect("persistent faults are recoverable");
        assert!(
            run.incidents.reexecutions() >= 1,
            "{kind:?} needs re-execution: {}",
            run.incidents.summary()
        );
        assert!(
            run.incidents
                .records
                .iter()
                .any(|r| r.action == RecoveryAction::ReExecute),
            "{kind:?}"
        );
        assert_eq!(run.output, infer_plain(&net(), &input(), SHIFT), "{kind:?}");
    }
}

#[test]
fn relentless_fault_aborts_gracefully_with_audit_record() {
    let spec = FaultSpec {
        kind: FaultKind::BitFlip,
        persistence: Persistence::Relentless,
        layer: 0,
        block: 0,
    };
    let abort = expect_abort(run_with(spec), "relentless faults must exhaust recovery");
    match abort.error {
        SecurityError::RecoveryExhausted {
            layer_id,
            refetches,
            reexecutions,
        } => {
            assert_eq!(layer_id, 0);
            let policy = RecoveryPolicy::default();
            assert_eq!(reexecutions, policy.max_reexecutions);
            assert!(refetches >= policy.max_refetches);
        }
        ref other => panic!("wrong terminal error: {other}"),
    }
    assert!(abort.error.is_breach());
    assert!(
        abort.incidents.aborted(),
        "the audit trail must record the abort"
    );
    assert!(abort
        .incidents
        .records
        .iter()
        .any(|r| r.action == RecoveryAction::Abort));
    // The report narrates the whole ladder: refetch → re-execute → abort.
    let text = abort.to_string();
    assert!(text.contains("refetch"), "{text}");
    assert!(text.contains("re-execute"), "{text}");
    assert!(text.contains("abort"), "{text}");
    assert!(text.contains("inference aborted"), "{text}");
}

#[test]
fn zero_recovery_policy_turns_any_fault_into_an_abort() {
    let spec = FaultSpec {
        kind: FaultKind::BitFlip,
        persistence: Persistence::TransientRead,
        layer: 0,
        block: 0,
    };
    let mut injector = FaultInjector::new(5, vec![spec]);
    let policy = RecoveryPolicy {
        max_refetches: 0,
        max_reexecutions: 0,
    };
    let abort = expect_abort(
        run(12, policy, Some(&mut injector)),
        "no recovery budget, no recovery",
    );
    assert!(matches!(
        abort.error,
        SecurityError::RecoveryExhausted {
            refetches: 0,
            reexecutions: 0,
            ..
        }
    ));
}

#[test]
fn clean_resilient_run_matches_plain_and_protected_pipelines() {
    let run = run(13, RecoveryPolicy::default(), None).expect("clean run verifies");
    assert!(run.incidents.is_empty());
    assert!(run.max_layer_blocks > 0);
    assert_eq!(run.output, infer_plain(&net(), &input(), SHIFT));
}

#[test]
fn campaign_seed_42_meets_the_acceptance_bar() {
    let report = run_campaign(&CampaignConfig::default());
    assert!(
        (report.detection_rate() - 1.0).abs() < f64::EPSILON,
        "100%% detection required:\n{}",
        report.summary()
    );
    assert_eq!(report.false_positives(), 0, "\n{}", report.summary());
    assert!(report.no_silent_corruption(), "\n{}", report.summary());
    assert!(report.passed());
    // The sweep demonstrates both recovery mechanisms and graceful abort.
    assert!(report.refetch_recoveries() > 0, "\n{}", report.summary());
    assert!(
        report.reexecution_recoveries() > 0,
        "\n{}",
        report.summary()
    );
    assert!(report.aborts() > 0, "\n{}", report.summary());
    // Local recovery stays far below the paper's full-reboot penalty.
    assert!(
        report.max_recovery_cycles() < 275_000,
        "\n{}",
        report.summary()
    );
}

#[test]
fn campaign_is_reproducible_and_seed_sensitive() {
    let a = run_campaign(&CampaignConfig::default());
    let b = run_campaign(&CampaignConfig::default());
    assert_eq!(a, b, "same seed, same campaign");
    let c = run_campaign(&CampaignConfig {
        seed: 43,
        ..CampaignConfig::default()
    });
    assert!(c.passed(), "any seed must pass:\n{}", c.summary());
    assert_ne!(
        a.trials, c.trials,
        "different seeds explore different injection points"
    );
}
