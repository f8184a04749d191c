//! Telemetry registry invariants: counters are monotone under any
//! sequence of recordings, recording is exact for a quiescent counter,
//! and concurrent recording from many threads loses no increments.
//!
//! The registry is one process-global; each `#[test]` below therefore
//! uses a *disjoint* set of counters/histograms so the exact-delta
//! assertions cannot race each other inside this test binary — except
//! the chaos-conservation test, which drives the full scheduler and
//! touches nearly every counter, so every exact-delta region also
//! serializes on one shared lock.

use proptest::prelude::*;
use seculator::core::telemetry::{self, Counter, Hist};
use std::sync::Mutex;

/// Serializes every exact-delta region in this binary. Disjoint counter
/// sets alone stopped being enough once the chaos campaign (which bumps
/// pads, epochs, detections, AES/MAC and the robustness family all at
/// once) joined the suite.
static EXACT_DELTA: Mutex<()> = Mutex::new(());

/// Takes the shared lock, surviving a poisoned mutex (a prior test
/// panicking while recording must not cascade into every other test).
fn exact_delta_guard() -> std::sync::MutexGuard<'static, ()> {
    EXACT_DELTA
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Whether the binary was compiled with recording on. When the feature
/// is off every `add`/`observe` is a no-op and every read returns 0 —
/// the properties below degenerate to "everything stays 0".
const ENABLED: bool = cfg!(feature = "telemetry");

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A random recording sequence never decreases any counter, and the
    /// final value of each exercised counter equals its starting value
    /// plus exactly the amounts applied (nothing lost, nothing doubled).
    #[test]
    fn counters_are_monotone_and_lose_nothing(
        amounts in prop::collection::vec((0usize..3, 0u64..1000), 1..50),
    ) {
        // Disjoint from every other test in this binary (the datapath
        // test below owns the seal/open/MAC counters).
        const MINE: [Counter; 3] =
            [Counter::TornTailRepairs, Counter::EpochBumps, Counter::PadsIssued];
        let _guard = exact_delta_guard();
        let start: Vec<u64> = MINE.iter().map(|&c| telemetry::get(c)).collect();
        let mut applied = [0u64; 3];
        for &(which, n) in &amounts {
            telemetry::add(MINE[which], n);
            applied[which] += n;
            // Monotone at every intermediate step, for every counter.
            for (i, &c) in MINE.iter().enumerate() {
                prop_assert!(telemetry::get(c) >= start[i]);
            }
        }
        for (i, &c) in MINE.iter().enumerate() {
            let expect = if ENABLED { start[i] + applied[i] } else { 0 };
            prop_assert_eq!(telemetry::get(c), expect);
        }
    }

    /// Histogram observations are conserved: `count` grows by the number
    /// of observations, `sum_ns` by their total, and the per-bucket tallies
    /// sum back to `count`.
    #[test]
    fn histogram_observations_are_conserved(
        ns in prop::collection::vec(0u64..1_000_000_000, 1..40),
    ) {
        // Hist::JournalReplayNs is exercised only by this test in this
        // binary (the datapath test feeds the seal/open histograms) —
        // but the chaos test replays journals too, hence the lock.
        let _guard = exact_delta_guard();
        let before = snapshot_hist("journal_replay_ns");
        for &v in &ns {
            telemetry::observe(Hist::JournalReplayNs, v);
        }
        let after = snapshot_hist("journal_replay_ns");
        let (want_count, want_sum) = if ENABLED {
            (before.0 + ns.len() as u64, before.1 + ns.iter().sum::<u64>())
        } else {
            (0, 0)
        };
        prop_assert_eq!(after.0, want_count);
        prop_assert_eq!(after.1, want_sum);
        prop_assert_eq!(after.2, after.0, "bucket tallies must sum to count");
    }
}

/// (count, sum_ns, bucket-total) for one histogram by name.
fn snapshot_hist(name: &str) -> (u64, u64, u64) {
    let h = telemetry::snapshot()
        .histograms
        .into_iter()
        .find(|h| h.name == name)
        .expect("known histogram name");
    (h.count, h.sum_ns, h.buckets.iter().sum())
}

/// Concurrent increments from many threads are all retained — the smoke
/// test for the registry's lock-free recording path.
#[test]
fn concurrent_increments_lose_nothing() {
    const THREADS: usize = 4;
    const PER_THREAD: u64 = 10_000;
    // Counter::Detections is otherwise quiescent here, but the chaos
    // test's ladder and quarantines feed it too.
    let _guard = exact_delta_guard();
    let before = telemetry::get(Counter::Detections);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for _ in 0..PER_THREAD {
                    telemetry::incr(Counter::Detections);
                }
            });
        }
    });
    let expect = if ENABLED {
        before + THREADS as u64 * PER_THREAD
    } else {
        0
    };
    assert_eq!(telemetry::get(Counter::Detections), expect);
}

/// Fleet-robustness conservation: across one chaos campaign the four
/// robustness counters grow by *exactly* what the campaign report
/// claims — every scheduler retry, deadline miss, quarantine, and shed
/// admission slot is counted once in both places, because the scheduler
/// bumps the counter at the same point it builds the report. With the
/// feature off the counters stay 0 while the report still carries the
/// true tallies.
#[test]
fn chaos_robustness_counters_are_conserved() {
    use seculator::campaigns::{run_chaos_campaign, Report};

    const ROBUST: [Counter; 4] = [
        Counter::SessionRetries,
        Counter::DeadlineMisses,
        Counter::SessionsQuarantined,
        Counter::InflightShed,
    ];
    let _guard = exact_delta_guard();
    let before: Vec<u64> = ROBUST.iter().map(|&c| telemetry::get(c)).collect();
    let report = run_chaos_campaign(42, 8);
    assert!(
        report.passed(),
        "chaos campaign fails:\n{}",
        report.summary()
    );
    let claimed = [
        report.session_retries,
        report.deadline_misses,
        report.sessions_quarantined,
        report.inflight_shed,
    ];
    for (i, &c) in ROBUST.iter().enumerate() {
        let want = if ENABLED { before[i] + claimed[i] } else { 0 };
        assert_eq!(
            telemetry::get(c),
            want,
            "`{}` diverged from the campaign report\n{}",
            c.name(),
            report.summary()
        );
    }
    // The storm must actually exercise the layer being conserved.
    assert!(
        report.session_retries > 0 && report.sessions_quarantined > 0,
        "seed 42 must drive retries and quarantines:\n{}",
        report.summary()
    );
}

/// Durable-layer conservation: across one in-process restart campaign
/// the four persistence counters grow by *exactly* what the report's
/// `stats` block claims — every fsync barrier, ledger compaction,
/// on-disk torn-tail repair, and resumed open is counted once in both
/// places, because [`seculator::core::PersistentStats`] bumps the
/// telemetry counter in the same method that builds the report tally.
#[test]
fn restart_campaign_durable_counters_are_conserved() {
    use seculator::campaigns::{run_restart_campaign, Report};

    const DURABLE: [Counter; 4] = [
        Counter::JournalFsyncs,
        Counter::SnapshotsCompacted,
        Counter::TornTailsRepaired,
        Counter::RestartResumes,
    ];
    let _guard = exact_delta_guard();
    let before: Vec<u64> = DURABLE.iter().map(|&c| telemetry::get(c)).collect();
    // The process phase is skipped: its children would be this test
    // binary, not the `seculator` worker.
    let report = run_restart_campaign(42, 7, 0);
    assert!(
        report.passed(),
        "restart campaign fails:\n{}",
        report.summary()
    );
    let claimed = [
        report.stats.fsyncs,
        report.stats.snapshots_compacted,
        report.stats.torn_tails_repaired,
        report.stats.restart_resumes,
    ];
    for (i, &c) in DURABLE.iter().enumerate() {
        let want = if ENABLED { before[i] + claimed[i] } else { 0 };
        assert_eq!(
            telemetry::get(c),
            want,
            "`{}` diverged from the restart report\n{}",
            c.name(),
            report.summary()
        );
    }
    // The sweep must actually exercise the layer being conserved: kills
    // force resumed opens, and mid-append cuts leave torn disk tails.
    assert!(
        report.stats.restart_resumes > 0 && report.stats.torn_tails_repaired > 0,
        "seed 42 must drive resumes and on-disk torn-tail repairs:\n{}",
        report.summary()
    );
}

/// End-to-end: the counters the datapath feeds agree exactly with the
/// work a seal/open round performed (block counts are attributed to the
/// right mode, and the MAC engine saw every block once per direction).
#[test]
fn datapath_counters_match_the_work_done() {
    use seculator::core::{BlockCoords, CryptoDatapath, DatapathMode};
    use seculator::crypto::DeviceSecret;

    let coords: Vec<BlockCoords> = (0..37)
        .map(|i| BlockCoords {
            fmap_id: 3,
            layer_id: 1,
            version: 2,
            block_index: i,
        })
        .collect();
    let blocks = vec![[0x5Au8; 64]; coords.len()];

    // MacBlocks and the per-mode AES counters are also fed by the chaos
    // test's full datapath runs.
    let _guard = exact_delta_guard();
    let serial_before = telemetry::get(Counter::AesBlocksSerial);
    let parallel_before = telemetry::get(Counter::AesBlocksParallel);
    let mac_before = telemetry::get(Counter::MacBlocks);

    let serial =
        CryptoDatapath::with_epoch_mode(DeviceSecret::from_seed(9), 77, 0, DatapathMode::Serial);
    let sealed = serial.seal_blocks(&coords, &blocks);
    let parallel =
        CryptoDatapath::with_epoch_mode(DeviceSecret::from_seed(9), 77, 0, DatapathMode::Parallel);
    let cts: Vec<[u8; 64]> = sealed.iter().map(|(ct, _)| *ct).collect();
    let _ = parallel.open_blocks(&coords, &cts);

    let n = coords.len() as u64;
    let (want_serial, want_parallel, want_mac) = if ENABLED {
        (serial_before + n, parallel_before + n, mac_before + 2 * n)
    } else {
        (0, 0, 0)
    };
    assert_eq!(telemetry::get(Counter::AesBlocksSerial), want_serial);
    assert_eq!(telemetry::get(Counter::AesBlocksParallel), want_parallel);
    assert_eq!(telemetry::get(Counter::MacBlocks), want_mac);
}

/// Backend-dispatch conservation: every sealed or opened block is
/// attributed to exactly one `backend_*_blocks` counter — serial rounds
/// land on `portable` (the scalar reference *is* the portable
/// implementation), parallel rounds land on whichever backend executed
/// them — so the backend family's total growth equals the per-mode AES
/// block counters' growth. A block counted twice (or dropped) here
/// would make the dispatch telemetry lie about where crypto ran.
#[test]
fn backend_dispatch_counters_are_conserved() {
    use seculator::core::{BlockCoords, CryptoDatapath, DatapathMode};
    use seculator::crypto::{backend, BackendKind, DeviceSecret};

    const DISPATCH: [Counter; 3] = [
        Counter::BackendPortableBlocks,
        Counter::BackendBitslicedBlocks,
        Counter::BackendAesNiBlocks,
    ];
    let slot = |kind: BackendKind| match kind {
        BackendKind::Portable => 0usize,
        BackendKind::Bitsliced => 1,
        BackendKind::AesNi => 2,
    };

    let coords: Vec<BlockCoords> = (0..41)
        .map(|i| BlockCoords {
            fmap_id: 2,
            layer_id: 0,
            version: 1,
            block_index: i,
        })
        .collect();
    let blocks = vec![[0xA5u8; 64]; coords.len()];
    let n = coords.len() as u64;

    // The chaos test's full scheduler runs feed this family too.
    let _guard = exact_delta_guard();
    let before: Vec<u64> = DISPATCH.iter().map(|&c| telemetry::get(c)).collect();
    let modes_before =
        telemetry::get(Counter::AesBlocksSerial) + telemetry::get(Counter::AesBlocksParallel);

    let mut want = [0u64; 3];
    let serial =
        CryptoDatapath::with_epoch_mode(DeviceSecret::from_seed(11), 99, 0, DatapathMode::Serial);
    let sealed = serial.seal_blocks(&coords, &blocks);
    want[slot(BackendKind::Portable)] += n;
    let cts: Vec<[u8; 64]> = sealed.iter().map(|(ct, _)| *ct).collect();
    for b in backend::available() {
        let dp = CryptoDatapath::with_epoch_mode_backend(
            DeviceSecret::from_seed(11),
            99,
            0,
            DatapathMode::Parallel,
            b,
        );
        let _ = dp.seal_blocks(&coords, &blocks);
        let _ = dp.open_blocks(&coords, &cts);
        want[slot(b.kind())] += 2 * n;
    }

    let mut dispatched = 0u64;
    for (i, &c) in DISPATCH.iter().enumerate() {
        let expect = if ENABLED { before[i] + want[i] } else { 0 };
        assert_eq!(
            telemetry::get(c),
            expect,
            "`{}` missed or double-counted a round",
            c.name()
        );
        dispatched += telemetry::get(c) - if ENABLED { before[i] } else { 0 };
    }
    let modes_after =
        telemetry::get(Counter::AesBlocksSerial) + telemetry::get(Counter::AesBlocksParallel);
    assert_eq!(
        dispatched,
        modes_after - if ENABLED { modes_before } else { 0 },
        "backend attribution must conserve the per-mode block totals"
    );
}

/// Wire-layer conservation: across one loopback daemon campaign the
/// four wire counters grow by *exactly* what the daemon's own
/// [`seculator::wire::DaemonStats`] mirror claims — the stats struct
/// and the telemetry registry are incremented at the same sites
/// (accept, harvest, proof rejection, drain flush), so any divergence
/// is a lost or double count. With the feature off the counters stay 0
/// while the deterministic stats mirror still carries the true tallies.
#[test]
fn daemon_wire_counters_are_conserved() {
    use seculator::campaigns::{run_daemon_campaign, Report};

    const WIRE: [Counter; 4] = [
        Counter::ConnectionsAccepted,
        Counter::RequestsServed,
        Counter::AuthFailures,
        Counter::DrainFlushes,
    ];
    let _guard = exact_delta_guard();
    let before: Vec<u64> = WIRE.iter().map(|&c| telemetry::get(c)).collect();
    let report = run_daemon_campaign(0x7E1E_CAFE, 4, None, 1);
    assert!(
        report.passed(),
        "daemon campaign fails:\n{}",
        report.summary()
    );
    let claimed = [
        report.stats.connections_accepted,
        report.stats.requests_served,
        report.stats.auth_failures,
        report.stats.drain_flushes,
    ];
    for (i, &c) in WIRE.iter().enumerate() {
        let want = if ENABLED { before[i] + claimed[i] } else { 0 };
        assert_eq!(
            telemetry::get(c),
            want,
            "`{}` diverged from the daemon's stats mirror\n{}",
            c.name(),
            report.summary()
        );
    }
    // The campaign must actually exercise the layer being conserved:
    // every tenant plus the bad-auth probe connects, conformance and
    // load requests are served, and the probe lands one auth failure.
    assert!(
        report.stats.connections_accepted >= 5
            && report.stats.requests_served >= 4
            && report.stats.auth_failures == 1,
        "the campaign must drive connections, serves, and a rejection:\n{}",
        report.summary()
    );
}
