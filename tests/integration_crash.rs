//! End-to-end crash consistency: power loss at *every* interruptible
//! instant of a protected inference, freshness-preserving resume, the
//! full default crash campaign, and the durable write-ahead rule.

use seculator::campaigns::{defaults, run_crash_campaign, Report};
use seculator::compute::quant::{QTensor3, QTensor4};
use seculator::core::journal::{DurableState, PadTracker};
use seculator::core::secure_infer::{
    infer_journaled, infer_plain, infer_resume, Instruments, JournaledError, QConvLayer,
    SecureSession,
};
use seculator::core::{
    audit_home, campaign_models, run_persistent, AdmitSpec, CrashClock, CrashPhase, DurableError,
    FaultVfs, PersistentStats, SessionManager, SessionVerdict, StdVfs,
};
use seculator::crypto::DeviceSecret;
use std::sync::Arc;

fn mlp() -> (Vec<QConvLayer>, QTensor3, SecureSession) {
    let layers = vec![
        QConvLayer::fully_connected(QTensor4::seeded(12, 6, 1, 1, 41)),
        QConvLayer::fully_connected(QTensor4::seeded(6, 12, 1, 1, 42)),
        QConvLayer::fully_connected(QTensor4::seeded(3, 6, 1, 1, 43)),
    ];
    let input = QTensor3::seeded(6, 1, 1, 44);
    let session = SecureSession {
        secret: DeviceSecret::from_seed(201),
        nonce: 2025,
        shift: 6,
    };
    (layers, input, session)
}

/// Crash at every single interruptible instant of a small model; every
/// resume must be bit-exact, redo at most the interrupted layer, and
/// never reuse a pad (one tracker spans all epochs of each trial).
#[test]
fn every_cut_point_resumes_bit_exact() {
    let (layers, input, session) = mlp();
    let expected = infer_plain(&layers, &input, session.shift);

    let mut counting = CrashClock::counting();
    infer_journaled(
        &layers,
        &input,
        &session,
        &mut DurableState::default(),
        &mut Instruments {
            tracker: &mut PadTracker::new(),
            injector: None,
            clock: Some(&mut counting),
        },
    )
    .expect("uninterrupted run completes");
    let steps = counting.steps();
    assert!(steps > 50, "the sweep must cover a real instant space");

    for cut in 0..steps {
        let mut durable = DurableState::default();
        let mut tracker = PadTracker::new();
        let mut clock = CrashClock::armed(cut);
        let err = infer_journaled(
            &layers,
            &input,
            &session,
            &mut durable,
            &mut Instruments {
                tracker: &mut tracker,
                injector: None,
                clock: Some(&mut clock),
            },
        )
        .expect_err("an in-range cut must crash the run");
        let JournaledError::Crashed(loss) = err else {
            panic!("cut {cut}: expected a crash, got {err}");
        };

        let resumed = infer_resume(
            &layers,
            &input,
            &session,
            &mut durable,
            &mut Instruments {
                tracker: &mut tracker,
                injector: None,
                clock: None,
            },
            Some(loss),
        )
        .unwrap_or_else(|e| panic!("cut {cut}: resume failed: {e}"));

        assert_eq!(
            resumed.output, expected,
            "cut {cut}: resume must be bit-exact"
        );
        assert_eq!(
            resumed.first_executed_layer, loss.layer,
            "cut {cut}: at most the interrupted layer is re-executed"
        );
        assert_eq!(resumed.incidents.resumes(), 1, "cut {cut}: audit stitched");
    }
}

/// The default campaign meets the acceptance floor: ≥200 cut points over
/// ≥3 models, zero pad reuse, zero stale acceptances, all trials green.
#[test]
fn default_crash_campaign_passes_the_acceptance_bar() {
    let report = run_crash_campaign(defaults::SEED, defaults::CRASH_CUTS);
    assert!(report.models >= 3, "≥3 models required");
    assert!(report.trials.len() >= 200, "≥200 cut points required");
    assert_eq!(report.pad_reuses, 0, "no counter is ever reused");
    assert_eq!(report.stale_accepts, 0, "no stale ciphertext is accepted");
    assert!(report.calibration_ok && report.detector_ok);
    assert!(report.passed(), "{}", report.summary());

    // The sweep must actually reach deep pipeline phases, including the
    // journal's own append path and the resume verifier.
    let phases: std::collections::BTreeSet<&str> = report.trials.iter().map(|t| t.phase).collect();
    for phase in ["compute", "consume", "final-evict", "journal-append"] {
        assert!(
            phases.contains(phase),
            "phase {phase} never cut: {phases:?}"
        );
    }
    assert!(
        report.ladder.resumes as usize >= report.trials.len() / 2,
        "most trials resume at least once"
    );
}

/// The write-ahead rule, through both durable drivers: an epoch's
/// `EpochOpen` record is on media before the first pad of that epoch is
/// consumed. On the mlp campaign model's fresh home the in-RAM append
/// takes 30 beats and its disk frame 31, so a cut at instant 61 (the
/// first `Compute` tick) must find epoch 0 durable, and a cut at instant
/// 60 (the frame's last `Checkpoint` beat) must find no epoch at all.
#[test]
fn the_epoch_open_record_is_durable_before_the_first_pad() {
    let m = campaign_models()
        .into_iter()
        .find(|m| m.name == "mlp")
        .expect("the campaign includes the mlp model");
    for (cut, phase, durable_epochs) in [
        (60, CrashPhase::Checkpoint, vec![]),
        (61, CrashPhase::Compute, vec![0u32]),
    ] {
        // `run_persistent` over the in-memory file system; the power cut
        // drops every byte that was not fsynced.
        let mut vfs = FaultVfs::new();
        let err = run_persistent(
            &m.layers,
            &m.input,
            &m.session,
            &mut vfs,
            Some(&mut CrashClock::armed(cut)),
            &mut PersistentStats::default(),
        )
        .expect_err("an armed cut crashes the run");
        let DurableError::Crashed(loss) = err else {
            panic!("cut {cut}: expected a crash, got {err}");
        };
        assert_eq!(loss.phase, phase, "cut {cut}");
        vfs.power_cut();
        let audit = audit_home(&mut vfs, &m.session).expect("audit");
        assert_eq!(
            audit.journal_epochs, durable_epochs,
            "run_persistent, cut {cut}"
        );

        // A durable scheduler tenant over a real directory.
        let dir = std::env::temp_dir().join(format!(
            "seculator-write-ahead-{}-{cut}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("scratch home");
        let mut mgr = SessionManager::new(DeviceSecret::from_seed(7), 99, m.session.shift, 1);
        mgr.admit(AdmitSpec {
            tenant: 0,
            name: m.name.to_owned(),
            layers: Arc::new(m.layers.clone()),
            input: m.input.clone(),
            arrival_round: 0,
            injector: None,
            deadline_rounds: None,
            crash_cuts: vec![cut],
            nonce_salt: 0,
            home_dir: Some(dir.clone()),
        });
        let report = mgr.run();
        match &report.outcomes[0].verdict {
            SessionVerdict::Aborted(e) => assert!(
                matches!(&**e, JournaledError::Crashed(l) if l.phase == phase),
                "cut {cut}: {e}"
            ),
            other => panic!("cut {cut}: expected a crash abort, got {other:?}"),
        }
        let mut disk = StdVfs::create(&dir).expect("home directory");
        let audit = audit_home(&mut disk, &mgr.derived_session(0)).expect("audit");
        assert_eq!(audit.journal_epochs, durable_epochs, "scheduler, cut {cut}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
