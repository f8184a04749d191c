//! Differential conformance suite: every secure datapath the repo ships
//! must agree bit-for-bit with the plaintext reference on every zoo
//! model, and the generated-VN hardware FSM must agree with the traced
//! tile-version sequences the timing model observes — including when
//! rebuilt mid-pattern, the crash-recovery path.

use seculator::core::journal::{campaign_models, DurableState, PadTracker};
use seculator::core::secure_infer::Instruments;
use seculator::core::TimingNpu;
use seculator::core::{
    infer_journaled, infer_plain, infer_protected_mode, infer_resume, CrashClock, DatapathMode,
    JournaledError, PatternCounter,
};
use seculator::models::zoo;

/// Every zoo model, four datapaths, one answer: plaintext reference,
/// protected inference over the serial and parallel crypto datapaths,
/// and the journaled detect-and-recover driver.
#[test]
fn every_zoo_model_is_bit_identical_across_all_datapaths() {
    for m in campaign_models() {
        let expected = infer_plain(&m.layers, &m.input, m.session.shift);

        for mode in [DatapathMode::Serial, DatapathMode::Parallel] {
            let out = infer_protected_mode(
                &m.layers,
                &m.input,
                m.session.shift,
                m.session.secret,
                m.session.nonce,
                None,
                mode,
            )
            .unwrap_or_else(|e| panic!("{}: protected ({mode:?}) failed: {e}", m.name));
            assert_eq!(out, expected, "{}: protected {mode:?} diverged", m.name);
        }

        let journaled = infer_journaled(
            &m.layers,
            &m.input,
            &m.session,
            &mut DurableState::default(),
            &mut Instruments {
                tracker: &mut PadTracker::new(),
                injector: None,
                clock: None,
            },
        )
        .unwrap_or_else(|e| panic!("{}: journaled run failed: {e}", m.name));
        assert_eq!(journaled.output, expected, "{}: journaled diverged", m.name);
    }
}

/// The fourth datapath: journaled inference cut by a power loss halfway
/// through its instant space, then resumed. The stitched run must still
/// be bit-identical to the plaintext reference on every model.
#[test]
fn every_zoo_model_survives_a_mid_run_cut_bit_identically() {
    for m in campaign_models() {
        let expected = infer_plain(&m.layers, &m.input, m.session.shift);

        // Calibrate the interruptible-instant space, then cut at its
        // midpoint — deep enough that committed layers must be trusted
        // from the journal, not recomputed.
        let mut counting = CrashClock::counting();
        infer_journaled(
            &m.layers,
            &m.input,
            &m.session,
            &mut DurableState::default(),
            &mut Instruments {
                tracker: &mut PadTracker::new(),
                injector: None,
                clock: Some(&mut counting),
            },
        )
        .unwrap_or_else(|e| panic!("{}: calibration run failed: {e}", m.name));
        let steps = counting.steps();
        assert!(steps > 10, "{}: implausibly small instant space", m.name);
        let cut = steps / 2;

        let mut durable = DurableState::default();
        let mut tracker = PadTracker::new();
        let mut clock = CrashClock::armed(cut);
        let err = infer_journaled(
            &m.layers,
            &m.input,
            &m.session,
            &mut durable,
            &mut Instruments {
                tracker: &mut tracker,
                injector: None,
                clock: Some(&mut clock),
            },
        )
        .expect_err("a mid-range cut must crash the run");
        let JournaledError::Crashed(loss) = err else {
            panic!("{}: expected a crash at step {cut}, got {err}", m.name);
        };

        let resumed = infer_resume(
            &m.layers,
            &m.input,
            &m.session,
            &mut durable,
            &mut Instruments {
                tracker: &mut tracker,
                injector: None,
                clock: None,
            },
            Some(loss),
        )
        .unwrap_or_else(|e| panic!("{}: resume failed: {e}", m.name));
        assert_eq!(resumed.output, expected, "{}: resume diverged", m.name);
        assert_eq!(resumed.incidents.resumes(), 1, "{}: audit stitched", m.name);
    }
}

/// The fifth datapath: inference scheduled by the chaos-hardened
/// multi-session scheduler. A healthy tenant co-resident with a
/// relentless DRAM adversary (driven into quarantine) and a crash-cut
/// tenant (recovered through a session retry) must still be
/// bit-identical to both its solo journaled run and the plaintext
/// reference — retry backoff, load shedding, and quarantine must never
/// perturb a neighbouring session's arithmetic.
#[test]
fn chaos_scheduled_healthy_tenants_match_their_solo_runs() {
    use seculator::core::{
        AdmitSpec, FaultInjector, FaultKind, FaultSpec, Persistence, RobustnessPolicy,
        SecurityError, SessionManager, SessionVerdict,
    };
    use seculator::crypto::DeviceSecret;
    use std::sync::Arc;

    let models = campaign_models();
    for seed in [7u64, 11] {
        let m = &models[seed as usize % models.len()];
        let expected = infer_plain(&m.layers, &m.input, m.session.shift);

        // Calibrate a mid-run cut for the crash-cut co-resident.
        let mut counting = CrashClock::counting();
        infer_journaled(
            &m.layers,
            &m.input,
            &m.session,
            &mut DurableState::default(),
            &mut Instruments {
                tracker: &mut PadTracker::new(),
                injector: None,
                clock: Some(&mut counting),
            },
        )
        .unwrap_or_else(|e| panic!("{}: calibration run failed: {e}", m.name));
        let cut = counting.steps() / 2;

        let mut mgr = SessionManager::new(
            DeviceSecret::from_seed(seed),
            seed ^ 0x5eed,
            m.session.shift,
            m.session.policy,
            3,
        );
        mgr.harden(RobustnessPolicy::hardened(), seed ^ 0xF00D);
        let healthy_session = mgr.derived_session(0);
        let shared = Arc::new(m.layers.clone());
        let mut admit = |tenant: u32, injector: Option<FaultInjector>, crash_cuts: Vec<u64>| {
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
        admit(0, None, Vec::new());
        admit(
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
        admit(2, None, vec![cut]);
        let report = mgr.run();

        assert_eq!(report.pad_collisions, 0, "seed {seed}: pad reuse");
        let healthy = report.outcomes.iter().find(|o| o.tenant == 0).unwrap();
        let out = healthy
            .output()
            .unwrap_or_else(|| panic!("seed {seed}: healthy tenant must complete"));
        assert_eq!(
            out, &expected,
            "seed {seed}: chaos-scheduled output diverged from the plaintext reference"
        );
        let solo = infer_journaled(
            &m.layers,
            &m.input,
            &healthy_session,
            &mut DurableState::default(),
            &mut Instruments {
                tracker: &mut PadTracker::new(),
                injector: None,
                clock: None,
            },
        )
        .unwrap_or_else(|e| panic!("seed {seed}: solo run failed: {e}"));
        assert_eq!(
            out, &solo.output,
            "seed {seed}: chaos-scheduled output diverged from the solo journaled run"
        );

        // The co-residents really did take their failure paths.
        let victim = report.outcomes.iter().find(|o| o.tenant == 1).unwrap();
        assert!(
            matches!(
                &victim.verdict,
                SessionVerdict::Quarantined(q)
                    if matches!(q.cause, SecurityError::RetryCeilingExhausted { .. })
            ),
            "seed {seed}: relentless co-resident must quarantine, got {:?}",
            victim.verdict
        );
        let cut_tenant = report.outcomes.iter().find(|o| o.tenant == 2).unwrap();
        assert!(
            matches!(&cut_tenant.verdict, SessionVerdict::Completed(_)),
            "seed {seed}: crash-cut co-resident must recover, got {:?}",
            cut_tenant.verdict
        );
        assert!(
            cut_tenant.retries >= 1,
            "seed {seed}: recovery must flow through a session retry"
        );
        assert_eq!(
            out, &expected,
            "seed {seed}: neighbours' chaos leaked into the healthy output"
        );
    }
}

/// The sixth datapath: batched multi-tenant inference. Three tenants
/// sharing one Arc'd weight set arrive in the same round, so every
/// scheduler round steps all three at the same layer (weights shared,
/// MAC registers / VN-FSM / journal / nonce space strictly per-tenant).
/// Every tenant's output must still be bit-identical to the plaintext
/// reference on every zoo model.
#[test]
fn batched_multi_tenant_sessions_match_the_plaintext_reference() {
    use seculator::core::{AdmitSpec, SessionManager, SessionVerdict};
    use std::sync::Arc;

    for m in campaign_models() {
        let expected = infer_plain(&m.layers, &m.input, m.session.shift);
        let mut mgr = SessionManager::new(
            m.session.secret,
            m.session.nonce,
            m.session.shift,
            m.session.policy,
            3,
        );
        let shared = Arc::new(m.layers.clone());
        for tenant in 0..3u32 {
            mgr.admit(AdmitSpec {
                tenant,
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
        let report = mgr.run();
        assert_eq!(report.pad_collisions, 0, "{}: pad reuse", m.name);
        assert_eq!(report.outcomes.len(), 3, "{}: every tenant reports", m.name);
        for o in &report.outcomes {
            match &o.verdict {
                SessionVerdict::Completed(run) => assert_eq!(
                    run.output, expected,
                    "{}: batched tenant {} diverged from the plaintext reference",
                    m.name, o.tenant
                ),
                other => panic!(
                    "{}: batched tenant {} did not complete: {other:?}",
                    m.name, o.tenant
                ),
            }
        }
    }
}

/// Cross-backend differential: every crypto backend this host can run
/// (portable T-table, bitsliced constant-time, AES-NI/SHA-NI when the
/// CPU has them) must produce the *same bytes* as the serial scalar
/// oracle — sealed ciphertext + MAC and opened plaintext + MAC — on a
/// tile keyed by every zoo model's session. The odd block count leaves
/// a partial chunk and a lone-MAC tail, so the batched fast paths and
/// their scalar remainders are both on trial.
#[test]
fn every_backend_seals_and_opens_every_zoo_model_bit_identically() {
    use seculator::core::{BlockCoords, CryptoDatapath};
    use seculator::crypto::backend;

    for m in campaign_models() {
        let coords: Vec<BlockCoords> = (0..257u32)
            .map(|i| BlockCoords {
                fmap_id: 1,
                layer_id: 0,
                version: 1,
                block_index: i,
            })
            .collect();
        let blocks: Vec<[u8; 64]> = (0..coords.len())
            .map(|i| {
                let mut b = [0u8; 64];
                for (j, byte) in b.iter_mut().enumerate() {
                    *byte = (m
                        .session
                        .nonce
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add((i * 64 + j) as u64)
                        >> 24) as u8;
                }
                b
            })
            .collect();

        let oracle = CryptoDatapath::with_epoch_mode(
            m.session.secret,
            m.session.nonce,
            0,
            DatapathMode::Serial,
        );
        let sealed = oracle.seal_blocks(&coords, &blocks);
        let cts: Vec<[u8; 64]> = sealed.iter().map(|(ct, _)| *ct).collect();
        let opened = oracle.open_blocks(&coords, &cts);

        for b in backend::available() {
            let dp = CryptoDatapath::with_epoch_mode_backend(
                m.session.secret,
                m.session.nonce,
                0,
                DatapathMode::Parallel,
                b,
            );
            assert_eq!(
                dp.seal_blocks(&coords, &blocks),
                sealed,
                "{}: backend {} sealed different bytes",
                m.name,
                b.kind().name()
            );
            assert_eq!(
                dp.open_blocks(&coords, &cts),
                opened,
                "{}: backend {} opened different bytes",
                m.name,
                b.kind().name()
            );
        }
    }
}

/// Cross-backend differential for whole inferences, crash path included:
/// for every campaign model and every backend this host can run, a
/// journaled inference killed (`SIGKILL`, real process death) at the
/// midpoint of its interruptible-instant space and resumed in a fresh
/// process must report the same output digest as the uninterrupted run —
/// and the digests must agree across every backend. Backends are varied
/// per *process* because the dispatch default freezes on first use.
#[test]
fn every_backend_resumes_a_cut_inference_bit_identically() {
    use std::os::unix::process::ExitStatusExt;
    use std::process::Command;

    let exe = env!("CARGO_BIN_EXE_seculator");
    let scratch =
        std::env::temp_dir().join(format!("seculator-conf-backend-{}", std::process::id()));
    let worker = |model: &str, home: &std::path::Path, backend: &str, cut: &str| {
        let out = Command::new(exe)
            .args(["restart-worker", "--model", model, "--home"])
            .arg(home)
            .args(["--cut", cut, "--backend", backend])
            .output()
            .expect("worker spawns");
        (
            out.status,
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    };
    let field = |stdout: &str, key: &str| -> String {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .unwrap_or_else(|| panic!("no {key} line in {stdout}"))
            .to_owned()
    };

    let backends: Vec<&str> = seculator::crypto::backend::available()
        .iter()
        .map(|b| b.kind().name())
        .collect();
    assert!(backends.contains(&"portable"), "portable always runs");

    for m in campaign_models() {
        // Calibrate the instant space once (it counts commit points, so
        // it is backend-independent) and pick a mid-run cut.
        let home = scratch.join(format!("{}-calibrate", m.name));
        std::fs::create_dir_all(&home).expect("scratch home");
        let (status, stdout) = worker(m.name, &home, "portable", "count");
        assert_eq!(status.code(), Some(0), "{}: calibration: {stdout}", m.name);
        let steps: u64 = field(&stdout, "steps=").parse().expect("numeric steps");
        let reference = field(&stdout, "digest=");
        let cut = (steps / 2).max(1).to_string();

        for backend in &backends {
            let home = scratch.join(format!("{}-{backend}", m.name));
            std::fs::create_dir_all(&home).expect("scratch home");
            // Life 1: armed mid-run; must die by a real signal.
            let (status, stdout) = worker(m.name, &home, backend, &cut);
            assert!(
                status.signal().is_some(),
                "{}/{backend}: worker must die by signal at step {cut}: {stdout}",
                m.name
            );
            // Life 2: resume from the sealed journal, run to completion.
            let (status, stdout) = worker(m.name, &home, backend, "none");
            assert_eq!(
                status.code(),
                Some(0),
                "{}/{backend}: resume failed: {stdout}",
                m.name
            );
            assert_eq!(
                field(&stdout, "resumed="),
                "true",
                "{}/{backend}: second life must resume, not restart: {stdout}",
                m.name
            );
            assert_eq!(
                field(&stdout, "digest="),
                reference,
                "{}/{backend}: resumed digest diverged from the uninterrupted run",
                m.name
            );
        }
    }
    std::fs::remove_dir_all(&scratch).ok();
}

/// The seventh datapath: inference served over the `SWP1` wire. One
/// loopback daemon, one authenticated client per zoo model (tenant i
/// runs model i), every answer crossing the wire as real CRC32-framed
/// bytes — and every wire-delivered output must be bit-identical to
/// both the tenant's solo journaled run under the same derived key and
/// the plaintext reference. Framing, codec, auth, scheduling, and
/// result delivery all sit between the reference and the assertion.
#[test]
fn every_zoo_model_served_over_the_loopback_wire_is_bit_identical() {
    use seculator::client::Client;
    use seculator::core::{RecoveryPolicy, SessionManager};
    use seculator::wire::{wire_identity, DaemonConfig, LoopbackNet, RequestState};

    let seed = 0x8DA7_A9A7u64;
    let (root, base_nonce) = wire_identity(seed);
    let models = campaign_models();
    let shift = models[0].session.shift;
    let key_mgr = SessionManager::new(root, base_nonce, shift, RecoveryPolicy::default(), 1);

    let net = LoopbackNet::new(&DaemonConfig::new(seed), seed);
    for (tenant, m) in models.iter().enumerate() {
        let tenant = u32::try_from(tenant).expect("small zoo");
        let expected = infer_plain(&m.layers, &m.input, shift);
        let session = key_mgr.derived_session(tenant);
        let solo = infer_journaled(
            &m.layers,
            &m.input,
            &session,
            &mut DurableState::default(),
            &mut Instruments {
                tracker: &mut PadTracker::new(),
                injector: None,
                clock: None,
            },
        )
        .unwrap_or_else(|e| panic!("{}: solo reference failed: {e}", m.name));

        let mut client = Client::new(LoopbackNet::connect(&net), tenant);
        client
            .authenticate(&root.derive_tenant(tenant), u64::from(tenant) ^ seed)
            .unwrap_or_else(|e| panic!("{}: handshake failed: {e}", m.name));
        client
            .submit(0, m.name, m.input.clone())
            .unwrap_or_else(|e| panic!("{}: submission refused: {e}", m.name));
        match client.wait_terminal(0, 1 << 16) {
            Ok(RequestState::Completed { output, .. }) => {
                assert_eq!(
                    output, solo.output,
                    "{}: wire-served output diverged from the solo journaled run",
                    m.name
                );
                assert_eq!(
                    output, expected,
                    "{}: wire-served output diverged from the plaintext reference",
                    m.name
                );
            }
            other => panic!("{}: wire request did not complete: {other:?}", m.name),
        }
    }
    assert_eq!(
        net.borrow().daemon().pad_collisions(),
        0,
        "daemon-lifetime pad ledger must stay collision-free"
    );
}

/// Daemon ≡ serve campaign for the same seed: both campaigns check
/// every clean tenant against the *identical* solo journaled reference
/// (same `serve_plan`, same derived keys), so both passing is a
/// transitive proof that the wire-served outputs equal the
/// serve-campaign outputs bit-for-bit.
#[test]
fn daemon_campaign_matches_the_serve_campaign_for_the_same_seed() {
    use seculator::client::{run_daemon_campaign, DaemonCampaignConfig};
    use seculator::core::{run_serve_campaign, ServeCampaignConfig};

    let seed = 0xDA_E0A5u64 ^ 0x5EC0;
    let daemon = run_daemon_campaign(&DaemonCampaignConfig {
        seed,
        sessions: 5,
        home_root: None,
        load_requests: 0,
    });
    assert!(daemon.passed(), "daemon campaign:\n{}", daemon.summary());
    let serve = run_serve_campaign(&ServeCampaignConfig { seed, sessions: 5 });
    assert!(serve.passed(), "serve campaign:\n{}", serve.summary());
}

/// Mid-flight daemon kill + restart-resume: a daemon with a durable
/// home root is dropped (no drain, no flush — simulated process death)
/// after at least one layer commit but before completion; a fresh
/// daemon over the same home root must *resume* the sealed journal when
/// the client re-submits the same request and deliver an output
/// bit-identical to the uninterrupted solo run.
#[test]
fn a_killed_daemon_resumes_its_durable_home_bit_identically() {
    use seculator::client::Client;
    use seculator::core::{RecoveryPolicy, SessionManager};
    use seculator::wire::{wire_identity, DaemonConfig, LoopbackNet, RequestState};

    let seed = 0xDEAD_5EED_u64;
    let home_root =
        std::env::temp_dir().join(format!("seculator-daemon-resume-{}", std::process::id()));
    std::fs::create_dir_all(&home_root).expect("scratch home root");

    let (root, base_nonce) = wire_identity(seed);
    let models = campaign_models();
    let m = &models[0]; // grouped-cnn: the deepest zoo member
    let shift = m.session.shift;
    let key_mgr = SessionManager::new(root, base_nonce, shift, RecoveryPolicy::default(), 1);
    let session = key_mgr.derived_session(0);
    let solo = infer_journaled(
        &m.layers,
        &m.input,
        &session,
        &mut DurableState::default(),
        &mut Instruments {
            tracker: &mut PadTracker::new(),
            injector: None,
            clock: None,
        },
    )
    .expect("uninterrupted reference run");
    let expected = infer_plain(&m.layers, &m.input, shift);

    let cfg = DaemonConfig {
        max_inflight: 2,
        home_root: Some(home_root.clone()),
        ..DaemonConfig::new(seed)
    };

    // Life 1: admit, advance to a mid-flight commit, then die.
    {
        let net = LoopbackNet::new(&cfg, seed);
        let mut client = Client::new(LoopbackNet::connect(&net), 0);
        client
            .authenticate(&root.derive_tenant(0), seed)
            .expect("handshake");
        client.submit(0, m.name, m.input.clone()).expect("admitted");
        let mut mid_flight = false;
        for _ in 0..(1u64 << 12) {
            net.borrow_mut().pump_once();
            let commits = net.borrow().daemon().progress_of(0);
            if matches!(commits, Some(c) if c >= 1 && (c as usize) < m.layers.len()) {
                mid_flight = true;
                break;
            }
        }
        assert!(mid_flight, "never observed a mid-flight layer commit");
        // `net` and `client` drop here: no drain, no checkpoint — the
        // only survivor is what the journal already sealed to disk.
    }

    // Life 2: a fresh daemon over the same home root. Re-submitting the
    // same request id lands in the same durable home, which must resume
    // the sealed journal instead of recomputing from scratch.
    let net = LoopbackNet::new(&cfg, seed);
    let mut client = Client::new(LoopbackNet::connect(&net), 0);
    client
        .authenticate(&root.derive_tenant(0), seed)
        .expect("handshake after restart");
    client
        .submit(0, m.name, m.input.clone())
        .expect("re-admitted after restart");
    match client.wait_terminal(0, 1 << 16) {
        Ok(RequestState::Completed { output, .. }) => {
            assert_eq!(
                output, solo.output,
                "restart-resumed output diverged from the uninterrupted solo run"
            );
            assert_eq!(
                output, expected,
                "restart-resumed output diverged from the plaintext reference"
            );
        }
        other => panic!("restarted daemon did not complete the request: {other:?}"),
    }
    std::fs::remove_dir_all(&home_root).ok();
}

/// Master-equation conformance: for a real mapped network, the
/// tile-version sequence the trace observes at every layer equals the
/// ⟨η, κ, ρ⟩ expansion produced by the hardware [`PatternCounter`] FSM —
/// the paper's claim that three registers generate every VN on the fly.
#[test]
fn traced_write_vns_match_the_pattern_counter_expansion() {
    let npu = TimingNpu::default();
    let mut layers_checked = 0usize;
    for net in [zoo::tiny_cnn(), zoo::resnet18()] {
        let schedules = npu.map(&net).expect("zoo network maps");
        for s in &schedules {
            let observed = s.observed_write_vns();
            let spec = s.write_pattern();
            assert_eq!(
                spec.len(),
                observed.len() as u64,
                "{}: pattern length disagrees with the trace",
                net.name
            );
            let mut ctr = PatternCounter::new(spec);
            let generated: Vec<u32> = std::iter::from_fn(|| ctr.next_vn()).collect();
            assert_eq!(
                generated, observed,
                "{}: generated VNs diverge from the trace",
                net.name
            );
            layers_checked += 1;
        }
    }
    assert!(layers_checked > 10, "the sweep must cover a real network");
}

/// The same conformance must hold for a counter rebuilt mid-pattern from
/// only `(⟨η, κ, ρ⟩, emitted)` — the exact state a layer-commit journal
/// record persists, so this is the resume path's correctness argument.
#[test]
fn resumed_pattern_counters_continue_the_traced_sequence() {
    let npu = TimingNpu::default();
    let net = zoo::tiny_cnn();
    let schedules = npu.map(&net).expect("zoo network maps");
    for s in &schedules {
        let observed = s.observed_write_vns();
        let spec = s.write_pattern();
        for frac in [1u64, 2, 3] {
            let mid = spec.len() * frac / 4;
            let mut ctr =
                PatternCounter::resume(spec, mid).expect("in-range position must rebuild");
            let tail: Vec<u32> = std::iter::from_fn(|| ctr.next_vn()).collect();
            assert_eq!(
                tail,
                observed[usize::try_from(mid).expect("fits")..],
                "resume at {mid}/{} diverges from the trace",
                spec.len()
            );
        }
        // A position past the end is a corruption signal, never a clamp.
        assert!(PatternCounter::resume(spec, spec.len() + 1).is_err());
    }
}
