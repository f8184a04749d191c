//! Property tests for the fault-injection harness: *any* single
//! expressible fault against the journaled pipeline is detected, and a
//! fault-free run never reports a violation (no false positives).

use proptest::prelude::*;
use seculator::compute::quant::{QTensor3, QTensor4};
use seculator::core::secure_infer::{
    infer_journaled, infer_plain, Instruments, JournaledError, JournaledRun, QConvLayer,
    SecureSession,
};
use seculator::core::{DurableState, FaultInjector, FaultKind, FaultSpec, PadTracker, Persistence};
use seculator::crypto::DeviceSecret;

const SHIFT: u32 = 6;

/// A small 2-layer network: fast enough for many property cases, with a
/// multi-group first layer so the partial/final write plan is real.
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

/// One journaled run of [`net`] on a fresh journal, with no power-cut
/// clock.
fn run(nonce: u64, injector: Option<&mut FaultInjector>) -> Result<JournaledRun, JournaledError> {
    let session = SecureSession {
        secret: DeviceSecret::from_seed(3),
        nonce,
        shift: SHIFT,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every expressible single fault — any kind, any persistence, any
    /// layer, any injection point, any corruption seed — is detected:
    /// either the run recovers with a non-empty incident log, or it
    /// aborts. Either way the released output (if any) is bit-identical
    /// to the unprotected reference — tampering never leaks through.
    #[test]
    fn any_single_fault_is_detected_and_never_leaks(
        kind_i in 0usize..5,
        persistence_i in 0usize..3,
        layer in 0u32..2,
        block in any::<u64>(),
        seed in any::<u64>(),
        nonce in any::<u64>(),
    ) {
        let spec = FaultSpec {
            kind: FaultKind::ALL[kind_i],
            persistence: Persistence::ALL[persistence_i],
            layer,
            block,
        };
        prop_assume!(spec.is_expressible());
        let layers = net();
        let reference = infer_plain(&layers, &input(), SHIFT);
        let mut injector = FaultInjector::new(seed, vec![spec]);
        let result = run(nonce, Some(&mut injector));
        prop_assert!(injector.injections() > 0, "fault must actually fire: {spec}");
        match result {
            Ok(run) => {
                prop_assert!(
                    !run.incidents.is_empty(),
                    "recovered without logging the breach: {spec}"
                );
                prop_assert!(
                    run.output == reference,
                    "released output differs from reference under {spec}"
                );
            }
            Err(JournaledError::Aborted(abort)) => {
                prop_assert!(abort.error.is_breach(), "{spec}: {}", abort.error);
                prop_assert!(!abort.incidents.is_empty());
                prop_assert!(
                    spec.persistence == Persistence::Relentless,
                    "only relentless faults may exhaust recovery, got {spec}"
                );
            }
            Err(other) => prop_assert!(false, "{spec}: neither recovered nor aborted: {other}"),
        }
    }

    /// Transient and persistent (non-relentless) faults are always
    /// *recovered*, not just detected: the run completes with the right
    /// answer.
    #[test]
    fn recoverable_faults_always_recover(
        kind_i in 0usize..5,
        transient in any::<bool>(),
        layer in 0u32..2,
        block in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let persistence =
            if transient { Persistence::TransientRead } else { Persistence::Persistent };
        let spec = FaultSpec { kind: FaultKind::ALL[kind_i], persistence, layer, block };
        prop_assume!(spec.is_expressible());
        let layers = net();
        let reference = infer_plain(&layers, &input(), SHIFT);
        let mut injector = FaultInjector::new(seed, vec![spec]);
        match run(7, Some(&mut injector)) {
            Ok(run) => prop_assert!(run.output == reference, "{spec}"),
            Err(abort) => prop_assert!(false, "{spec} must be recoverable, aborted: {abort}"),
        }
    }

    /// Zero faults ⇒ zero incidents and a bit-exact output, for any
    /// nonce: the detector has no false positives.
    #[test]
    fn clean_runs_never_report_violations(nonce in any::<u64>()) {
        let layers = net();
        let reference = infer_plain(&layers, &input(), SHIFT);
        match run(nonce, None) {
            Ok(run) => {
                prop_assert!(run.incidents.is_empty(), "false positive: {}", run.incidents.summary());
                prop_assert!(run.output == reference);
            }
            Err(abort) => prop_assert!(false, "clean run aborted: {abort}"),
        }
    }
}
