//! Secure-datapath telemetry: a zero-dependency, thread-safe metrics
//! registry plus per-step stage timers.
//!
//! The paper's headline claim — Seculator's security machinery is nearly
//! free — needs per-stage visibility to be demonstrable: where do
//! compute, seal/open, MAC folding, journal appends, and recovery time
//! actually go? This module is the durable measurement substrate behind
//! the `seculator stats` subcommand, the global `--metrics <path>` flag,
//! and the per-layer breakdown in `figures throughput`.
//!
//! Two primitives, both process-global and lock-free on the hot path:
//!
//! - **Counters** ([`Counter`]): monotonic `AtomicU64`s with relaxed
//!   ordering, one per instrumentation point.
//! - **Histograms** ([`Hist`]): fixed log-2 bucket arrays recording
//!   nanosecond durations (plus count and sum), fed by [`span`] guards.
//!
//! Per-layer stage times are not global: each journaled layer step owns
//! one [`LayerRow`] and times its stages into it with [`stage_span`]
//! guards, so every row is exact and nothing is shared between steps.
//!
//! # Feature gate
//!
//! All *recording* functions compile to empty bodies unless the
//! `telemetry` cargo feature is enabled, so the parallel datapath's hot
//! loops pay nothing when benchmarking the bare machine. The registry,
//! [`Snapshot`], and both sink formats ([`Snapshot::to_json`],
//! [`Snapshot::to_prometheus`]) are always compiled, so CLI plumbing
//! works in both modes; a disabled build reports `"enabled": false` and
//! all-zero counters.
//!
//! # Concurrency caveat
//!
//! The registry is process-global. Totals aggregate *everything* the
//! process did; tests that assert on counters must therefore assert on
//! deltas (monotonicity), not absolute values.

use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(feature = "telemetry")]
use std::time::Instant;

/// Monotonic counters, one per secure-datapath instrumentation point.
///
/// The discriminant is the registry index; the JSON/Prometheus field
/// order follows [`Counter::ALL`] and is part of the stable schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// `seal_blocks` batch calls.
    SealBatches,
    /// 64-byte blocks sealed (encrypt + MAC).
    SealBlocks,
    /// `open_blocks` batch calls.
    OpenBatches,
    /// 64-byte blocks opened (decrypt + MAC).
    OpenBlocks,
    /// Blocks pushed through the scalar (serial) AES path.
    AesBlocksSerial,
    /// Blocks pushed through the T-table (parallel) AES path.
    AesBlocksParallel,
    /// Per-block MAC computations (both engines).
    MacBlocks,
    /// VN-FSM advances (`PatternCounter::next_vn`).
    VnAdvances,
    /// Journal records appended.
    JournalAppends,
    /// Journal replays (full scans).
    JournalReplays,
    /// Torn journal tails truncated by `repair`.
    TornTailRepairs,
    /// Nonce-epoch bumps written ahead of execution.
    EpochBumps,
    /// One-time pads issued by the `PadTracker`.
    PadsIssued,
    /// Pad (counter) reuse attempts caught by the `PadTracker`.
    PadReuses,
    /// Incidents recorded by recovery ladders (any action).
    Detections,
    /// Refetch recovery actions.
    Refetches,
    /// Re-execute recovery actions.
    Reexecutions,
    /// Resume-from-journal recovery actions.
    Resumes,
    /// Rollback recovery actions.
    Rollbacks,
    /// Abort recovery actions.
    Aborts,
    /// Tenant sessions promoted to running by the `SessionManager`.
    SessionsActive,
    /// Tenant sessions that ran to verified completion.
    SessionsCompleted,
    /// Tenant sessions terminated through the fail-closed per-session
    /// abort path (tamper/crash verdicts isolated to one tenant).
    SessionAborts,
    /// Scheduler-level session retries: a failed layer step (ladder
    /// exhaustion or power cut) re-admitted from the journal under a
    /// fresh nonce epoch after a backoff.
    SessionRetries,
    /// Tenants that exceeded their per-tenant round budget.
    DeadlineMisses,
    /// Tenants quarantined fail-closed (retry ceiling, deadline, or
    /// client cancel) — journal sealed, pads never reissued.
    SessionsQuarantined,
    /// Admission slots shed by the scheduler's degradation rule under
    /// sustained fault pressure.
    InflightShed,
    /// `fsync` barriers issued by the durable persistence layer (journal
    /// appends, snapshot commits, ledger checkpoints).
    JournalFsyncs,
    /// Torn tails truncated from *on-disk* journal files during open
    /// (distinct from `torn_tail_repairs`, the in-RAM journal counter).
    TornTailsRepaired,
    /// Pad-ledger checkpoints compacted and atomically rewritten.
    SnapshotsCompacted,
    /// Process-level resumes: a durable home reopened with prior commits
    /// on disk and execution continued from the persisted journal.
    RestartResumes,
    /// Blocks sealed/opened through the portable T-table backend (the
    /// serial reference path also lands here — it *is* the portable
    /// implementation).
    BackendPortableBlocks,
    /// Blocks sealed/opened through the bitsliced constant-time backend.
    BackendBitslicedBlocks,
    /// Blocks sealed/opened through the `AES-NI`/`SHA-NI` backend.
    BackendAesNiBlocks,
    /// Wire connections accepted by the serving daemon (any transport).
    ConnectionsAccepted,
    /// Inference requests the daemon drove to a terminal state and made
    /// available to `poll-result`.
    RequestsServed,
    /// Challenge-response authentication failures: a connection presented
    /// a proof not bound to the tenant's derived key and was rejected.
    AuthFailures,
    /// Per-tenant durable-journal flushes performed by a graceful drain.
    DrainFlushes,
}

impl Counter {
    /// Every counter, in registry (and serialization) order.
    pub const ALL: [Counter; 38] = [
        Counter::SealBatches,
        Counter::SealBlocks,
        Counter::OpenBatches,
        Counter::OpenBlocks,
        Counter::AesBlocksSerial,
        Counter::AesBlocksParallel,
        Counter::MacBlocks,
        Counter::VnAdvances,
        Counter::JournalAppends,
        Counter::JournalReplays,
        Counter::TornTailRepairs,
        Counter::EpochBumps,
        Counter::PadsIssued,
        Counter::PadReuses,
        Counter::Detections,
        Counter::Refetches,
        Counter::Reexecutions,
        Counter::Resumes,
        Counter::Rollbacks,
        Counter::Aborts,
        Counter::SessionsActive,
        Counter::SessionsCompleted,
        Counter::SessionAborts,
        Counter::SessionRetries,
        Counter::DeadlineMisses,
        Counter::SessionsQuarantined,
        Counter::InflightShed,
        Counter::JournalFsyncs,
        Counter::TornTailsRepaired,
        Counter::SnapshotsCompacted,
        Counter::RestartResumes,
        Counter::BackendPortableBlocks,
        Counter::BackendBitslicedBlocks,
        Counter::BackendAesNiBlocks,
        Counter::ConnectionsAccepted,
        Counter::RequestsServed,
        Counter::AuthFailures,
        Counter::DrainFlushes,
    ];

    /// Stable snake_case name used in every sink format.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Counter::SealBatches => "seal_batches",
            Counter::SealBlocks => "seal_blocks",
            Counter::OpenBatches => "open_batches",
            Counter::OpenBlocks => "open_blocks",
            Counter::AesBlocksSerial => "aes_blocks_serial",
            Counter::AesBlocksParallel => "aes_blocks_parallel",
            Counter::MacBlocks => "mac_blocks",
            Counter::VnAdvances => "vn_advances",
            Counter::JournalAppends => "journal_appends",
            Counter::JournalReplays => "journal_replays",
            Counter::TornTailRepairs => "torn_tail_repairs",
            Counter::EpochBumps => "epoch_bumps",
            Counter::PadsIssued => "pads_issued",
            Counter::PadReuses => "pad_reuses",
            Counter::Detections => "detections",
            Counter::Refetches => "refetches",
            Counter::Reexecutions => "reexecutions",
            Counter::Resumes => "resumes",
            Counter::Rollbacks => "rollbacks",
            Counter::Aborts => "aborts",
            Counter::SessionsActive => "sessions_active",
            Counter::SessionsCompleted => "sessions_completed",
            Counter::SessionAborts => "session_aborts",
            Counter::SessionRetries => "session_retries",
            Counter::DeadlineMisses => "deadline_misses",
            Counter::SessionsQuarantined => "sessions_quarantined",
            Counter::InflightShed => "inflight_shed",
            Counter::JournalFsyncs => "journal_fsyncs",
            Counter::TornTailsRepaired => "torn_tails_repaired",
            Counter::SnapshotsCompacted => "snapshots_compacted",
            Counter::RestartResumes => "restart_resumes",
            Counter::BackendPortableBlocks => "backend_portable_blocks",
            Counter::BackendBitslicedBlocks => "backend_bitsliced_blocks",
            Counter::BackendAesNiBlocks => "backend_aesni_blocks",
            Counter::ConnectionsAccepted => "connections_accepted",
            Counter::RequestsServed => "requests_served",
            Counter::AuthFailures => "auth_failures",
            Counter::DrainFlushes => "drain_flushes",
        }
    }
}

/// Duration histograms (nanoseconds, log-2 buckets), one per timed stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Wall time of `seal_blocks` batches.
    SealNs,
    /// Wall time of `open_blocks` batches.
    OpenNs,
    /// Wall time of layer MAC folds.
    MacFoldNs,
    /// Wall time of journal appends.
    JournalAppendNs,
    /// Wall time of journal replays.
    JournalReplayNs,
}

impl Hist {
    /// Every histogram, in registry (and serialization) order.
    pub const ALL: [Hist; 5] = [
        Hist::SealNs,
        Hist::OpenNs,
        Hist::MacFoldNs,
        Hist::JournalAppendNs,
        Hist::JournalReplayNs,
    ];

    /// Stable snake_case name used in every sink format.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Hist::SealNs => "seal_ns",
            Hist::OpenNs => "open_ns",
            Hist::MacFoldNs => "mac_fold_ns",
            Hist::JournalAppendNs => "journal_append_ns",
            Hist::JournalReplayNs => "journal_replay_ns",
        }
    }
}

/// Number of log-2 buckets per histogram. Bucket `k` holds durations in
/// `[2^(k-1), 2^k)` ns (bucket 0 holds 0 ns); the last bucket is a
/// catch-all for ≥ 2^30 ns (~1 s).
pub const HIST_BUCKETS: usize = 32;

const NUM_COUNTERS: usize = Counter::ALL.len();
const NUM_HISTS: usize = Hist::ALL.len();

struct HistCells {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

struct Registry {
    counters: [AtomicU64; NUM_COUNTERS],
    hists: [HistCells; NUM_HISTS],
}

static REGISTRY: Registry = Registry {
    counters: [const { AtomicU64::new(0) }; NUM_COUNTERS],
    hists: [const {
        HistCells {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
        }
    }; NUM_HISTS],
};

/// Whether this build records telemetry (the `telemetry` cargo feature).
#[must_use]
pub const fn enabled() -> bool {
    cfg!(feature = "telemetry")
}

/// Adds `n` to counter `c`. Compiles to nothing when telemetry is off.
#[inline]
pub fn add(c: Counter, n: u64) {
    #[cfg(feature = "telemetry")]
    REGISTRY.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    #[cfg(not(feature = "telemetry"))]
    let _ = (c, n);
}

/// Increments counter `c` by one.
#[inline]
pub fn incr(c: Counter) {
    add(c, 1);
}

/// Current value of counter `c` (always zero when telemetry is off).
#[must_use]
pub fn get(c: Counter) -> u64 {
    REGISTRY.counters[c as usize].load(Ordering::Relaxed)
}

#[cfg(feature = "telemetry")]
fn bucket_index(ns: u64) -> usize {
    // 0 → bucket 0; otherwise floor(log2(ns)) + 1, saturated.
    ((64 - u64::leading_zeros(ns)) as usize).min(HIST_BUCKETS - 1)
}

/// Records one `ns` observation into histogram `h`.
#[inline]
pub fn observe(h: Hist, ns: u64) {
    #[cfg(feature = "telemetry")]
    {
        let cells = &REGISTRY.hists[h as usize];
        cells.count.fetch_add(1, Ordering::Relaxed);
        cells.sum.fetch_add(ns, Ordering::Relaxed);
        cells.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
    }
    #[cfg(not(feature = "telemetry"))]
    let _ = (h, ns);
}

/// A monotonic span timer: created by [`span`], records its elapsed wall
/// time into a histogram when dropped. When telemetry is disabled no
/// clock is read at all.
#[derive(Debug)]
pub struct Span {
    #[cfg(feature = "telemetry")]
    start: Instant,
    #[cfg(feature = "telemetry")]
    hist: Hist,
}

impl Drop for Span {
    fn drop(&mut self) {
        #[cfg(feature = "telemetry")]
        observe(
            self.hist,
            u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        );
    }
}

/// Starts a span that feeds histogram `h` on drop.
#[must_use]
pub fn span(h: Hist) -> Span {
    #[cfg(not(feature = "telemetry"))]
    let _ = h;
    Span {
        #[cfg(feature = "telemetry")]
        start: Instant::now(),
        #[cfg(feature = "telemetry")]
        hist: h,
    }
}

/// A stage timer: like [`Span`], but on drop it adds its elapsed wall
/// time to the `u64` it borrows — one stage field of a [`LayerRow`] —
/// instead of feeding a histogram. When telemetry is disabled no clock
/// is read and the field is left untouched.
#[derive(Debug)]
pub struct StageSpan<'a> {
    #[cfg_attr(not(feature = "telemetry"), allow(dead_code))]
    ns: &'a mut u64,
    #[cfg(feature = "telemetry")]
    start: Instant,
}

impl Drop for StageSpan<'_> {
    fn drop(&mut self) {
        #[cfg(feature = "telemetry")]
        {
            let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            *self.ns = self.ns.saturating_add(ns);
        }
    }
}

/// Starts a stage timer that adds its elapsed nanoseconds to `ns` on
/// drop.
#[must_use]
pub fn stage_span(ns: &mut u64) -> StageSpan<'_> {
    StageSpan {
        ns,
        #[cfg(feature = "telemetry")]
        start: Instant::now(),
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Stable snake_case histogram name.
    pub name: &'static str,
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of all observations in nanoseconds.
    pub sum_ns: u64,
    /// Log-2 bucket occupancy (see [`HIST_BUCKETS`]).
    pub buckets: [u64; HIST_BUCKETS],
}

/// The stage times of one layer step — or, summed, of one layer or one
/// tenant session. Every field is exact: it is written only by the
/// [`stage_span`] guards of the steps it covers. All zero when
/// telemetry is off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerRow {
    /// Layer id the time is attributed to (a tenant id in session rows).
    pub layer: u64,
    /// Nanoseconds computing this layer's convolutions (both channel
    /// groups) and adding the partial sums.
    pub compute_ns: u64,
    /// Nanoseconds sealing (encrypt + per-block MAC) this layer's output.
    pub seal_ns: u64,
    /// Nanoseconds opening (decrypt + verify) this layer's reads.
    pub open_ns: u64,
    /// Nanoseconds folding per-block MACs into the layer registers.
    pub mac_fold_ns: u64,
    /// Nanoseconds appending this layer's journal records.
    pub journal_ns: u64,
}

impl LayerRow {
    /// Adds `other`'s stage times into this row; `layer` is kept.
    pub fn add_stages(&mut self, other: &LayerRow) {
        self.compute_ns += other.compute_ns;
        self.seal_ns += other.seal_ns;
        self.open_ns += other.open_ns;
        self.mac_fold_ns += other.mac_fold_ns;
        self.journal_ns += other.journal_ns;
    }
}

/// Sums the rows that share a layer id into one row per layer, sorted by
/// layer id — e.g. the rows of several models' runs.
#[must_use]
pub fn sum_by_layer<'a>(rows: impl IntoIterator<Item = &'a LayerRow>) -> Vec<LayerRow> {
    let mut out: Vec<LayerRow> = Vec::new();
    for r in rows {
        match out.iter_mut().find(|o| o.layer == r.layer) {
            Some(o) => o.add_stages(r),
            None => out.push(*r),
        }
    }
    out.sort_by_key(|r| r.layer);
    out
}

/// A point-in-time copy of the whole registry, plus optional stage-time
/// rows. Serializes to the stable
/// `seculator-telemetry-v1` JSON schema and to Prometheus text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Whether the producing build had the `telemetry` feature on.
    pub enabled: bool,
    /// Effective worker-thread count of the parallel datapath.
    pub threads: usize,
    /// `(name, value)` for every counter, in [`Counter::ALL`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// Every histogram, in [`Hist::ALL`] order.
    pub histograms: Vec<HistSnapshot>,
    /// Per-layer (or per-session) stage-time rows; empty unless the
    /// caller fills them from the runs it measured.
    pub layers: Vec<LayerRow>,
}

/// Captures the current registry state. `layers` is left empty; callers
/// fill it from the [`LayerRow`]s of the runs they measured.
#[must_use]
pub fn snapshot() -> Snapshot {
    Snapshot {
        enabled: enabled(),
        threads: rayon::current_num_threads(),
        counters: Counter::ALL.iter().map(|&c| (c.name(), get(c))).collect(),
        histograms: Hist::ALL
            .iter()
            .map(|&h| {
                let cells = &REGISTRY.hists[h as usize];
                let mut buckets = [0u64; HIST_BUCKETS];
                for (b, cell) in buckets.iter_mut().zip(cells.buckets.iter()) {
                    *b = cell.load(Ordering::Relaxed);
                }
                HistSnapshot {
                    name: h.name(),
                    count: cells.count.load(Ordering::Relaxed),
                    sum_ns: cells.sum.load(Ordering::Relaxed),
                    buckets,
                }
            })
            .collect(),
        layers: Vec::new(),
    }
}

impl Snapshot {
    /// Serializes to the stable `seculator-telemetry-v1` JSON schema.
    ///
    /// Every name is a fixed ASCII identifier and every value a bare
    /// number, so the encoding is hand-rolled (the workspace's serde is
    /// an offline shim that does not serialize).
    #[must_use]
    pub fn to_json(&self) -> String {
        let counters = self
            .counters
            .iter()
            .map(|(name, v)| format!("    \"{name}\": {v}"))
            .collect::<Vec<_>>()
            .join(",\n");
        let hists = self
            .histograms
            .iter()
            .map(|h| {
                let buckets = h
                    .buckets
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(",");
                format!(
                    "    \"{}\": {{\"count\": {}, \"sum_ns\": {}, \"buckets\": [{}]}}",
                    h.name, h.count, h.sum_ns, buckets
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        let layers = self
            .layers
            .iter()
            .map(|r| {
                format!(
                    "    {{\"layer\": {}, \"compute_ns\": {}, \"seal_ns\": {}, \
                     \"open_ns\": {}, \"mac_fold_ns\": {}, \"journal_ns\": {}}}",
                    r.layer, r.compute_ns, r.seal_ns, r.open_ns, r.mac_fold_ns, r.journal_ns
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            "{{\n  \"schema\": \"seculator-telemetry-v1\",\n  \"enabled\": {},\n  \
             \"threads\": {},\n  \"counters\": {{\n{}\n  }},\n  \"histograms\": {{\n{}\n  }},\n  \
             \"layers\": [{}]\n}}\n",
            self.enabled,
            self.threads,
            counters,
            hists,
            if layers.is_empty() {
                String::new()
            } else {
                format!("\n{layers}\n  ")
            }
        )
    }

    /// Serializes to Prometheus text exposition format (counters and
    /// histograms; per-layer rows are JSON-only).
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!(
                "# TYPE seculator_{name} counter\nseculator_{name} {v}\n"
            ));
        }
        for h in &self.histograms {
            out.push_str(&format!("# TYPE seculator_{} histogram\n", h.name));
            let mut cumulative = 0u64;
            for (k, b) in h.buckets.iter().enumerate() {
                cumulative += b;
                // Upper bound of log-2 bucket k is 2^k - 1 ns (bucket 0
                // holds exactly 0); the final bucket is +Inf.
                if k + 1 == HIST_BUCKETS {
                    out.push_str(&format!(
                        "seculator_{}_bucket{{le=\"+Inf\"}} {cumulative}\n",
                        h.name
                    ));
                } else if *b > 0 || k == 0 {
                    let le = (1u64 << k) - 1;
                    out.push_str(&format!(
                        "seculator_{}_bucket{{le=\"{le}\"}} {cumulative}\n",
                        h.name
                    ));
                }
            }
            out.push_str(&format!(
                "seculator_{0}_sum {1}\nseculator_{0}_count {2}\n",
                h.name, h.sum_ns, h.count
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The golden JSON encoding, pinned on a hand-built snapshot so the
    /// test is immune to global-registry races with other tests.
    #[test]
    fn snapshot_json_is_stable() {
        let snap = Snapshot {
            enabled: true,
            threads: 2,
            counters: vec![("seal_batches", 3), ("seal_blocks", 192)],
            histograms: vec![HistSnapshot {
                name: "seal_ns",
                count: 2,
                sum_ns: 300,
                buckets: {
                    let mut b = [0u64; HIST_BUCKETS];
                    b[8] = 2;
                    b
                },
            }],
            layers: vec![LayerRow {
                layer: 0,
                compute_ns: 150,
                seal_ns: 120,
                open_ns: 80,
                mac_fold_ns: 40,
                journal_ns: 60,
            }],
        };
        let expected = "{\n  \"schema\": \"seculator-telemetry-v1\",\n  \"enabled\": true,\n  \
\"threads\": 2,\n  \"counters\": {\n    \"seal_batches\": 3,\n    \"seal_blocks\": 192\n  },\n  \
\"histograms\": {\n    \"seal_ns\": {\"count\": 2, \"sum_ns\": 300, \"buckets\": \
[0,0,0,0,0,0,0,0,2,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}\n  },\n  \
\"layers\": [\n    {\"layer\": 0, \"compute_ns\": 150, \"seal_ns\": 120, \"open_ns\": 80, \
\"mac_fold_ns\": 40, \"journal_ns\": 60}\n  ]\n}\n";
        assert_eq!(snap.to_json(), expected);
    }

    #[test]
    fn empty_layers_serialize_as_empty_array() {
        let snap = Snapshot {
            enabled: false,
            threads: 1,
            counters: vec![("aborts", 0)],
            histograms: vec![],
            layers: vec![],
        };
        let json = snap.to_json();
        assert!(json.contains("\"layers\": []"), "{json}");
        assert!(json.contains("\"enabled\": false"), "{json}");
    }

    #[test]
    fn prometheus_text_has_counter_and_histogram_families() {
        let mut snap = snapshot();
        snap.counters = vec![("detections", 7)];
        snap.histograms = vec![HistSnapshot {
            name: "open_ns",
            count: 1,
            sum_ns: 100,
            buckets: {
                let mut b = [0u64; HIST_BUCKETS];
                b[7] = 1;
                b
            },
        }];
        let text = snap.to_prometheus();
        assert!(
            text.contains("# TYPE seculator_detections counter"),
            "{text}"
        );
        assert!(text.contains("seculator_detections 7"), "{text}");
        assert!(
            text.contains("seculator_open_ns_bucket{le=\"127\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("seculator_open_ns_bucket{le=\"+Inf\"} 1"),
            "{text}"
        );
        assert!(text.contains("seculator_open_ns_sum 100"), "{text}");
        assert!(text.contains("seculator_open_ns_count 1"), "{text}");
    }

    /// Counters only ever move up, and by exactly what was added —
    /// asserted as a delta so concurrent tests can't interfere with the
    /// *minimum* observed growth.
    #[test]
    #[cfg(feature = "telemetry")]
    fn counters_are_monotonic_under_recording() {
        let before = get(Counter::SealBlocks);
        add(Counter::SealBlocks, 64);
        incr(Counter::SealBlocks);
        let after = get(Counter::SealBlocks);
        assert!(after >= before + 65, "before={before} after={after}");
    }

    #[test]
    #[cfg(not(feature = "telemetry"))]
    fn recording_is_a_no_op_when_disabled() {
        add(Counter::SealBlocks, 1_000_000);
        observe(Hist::SealNs, 123);
        let mut ns = 0;
        drop(stage_span(&mut ns));
        assert_eq!(ns, 0);
        assert_eq!(get(Counter::SealBlocks), 0);
        assert_eq!(snapshot().histograms[0].count, 0);
        assert!(!enabled());
    }

    #[test]
    #[cfg(feature = "telemetry")]
    fn histogram_observations_land_in_log2_buckets() {
        let before = snapshot();
        observe(Hist::MacFoldNs, 0); // bucket 0
        observe(Hist::MacFoldNs, 1); // bucket 1
        observe(Hist::MacFoldNs, 255); // bucket 8
        observe(Hist::MacFoldNs, 256); // bucket 9
        observe(Hist::MacFoldNs, u64::MAX); // saturates into the last
        let after = snapshot();
        let idx = Hist::MacFoldNs as usize;
        let delta = |k: usize| after.histograms[idx].buckets[k] - before.histograms[idx].buckets[k];
        assert!(delta(0) >= 1);
        assert!(delta(1) >= 1);
        assert!(delta(8) >= 1);
        assert!(delta(9) >= 1);
        assert!(delta(HIST_BUCKETS - 1) >= 1);
        assert!(after.histograms[idx].count >= before.histograms[idx].count + 5);
    }

    #[test]
    fn sum_by_layer_sums_per_stage_and_sorts() {
        let row = |layer, compute_ns, seal_ns, mac_fold_ns| LayerRow {
            layer,
            compute_ns,
            seal_ns,
            mac_fold_ns,
            ..LayerRow::default()
        };
        let rows = [row(1, 3, 10, 0), row(0, 0, 5, 0), row(1, 4, 0, 7)];
        assert_eq!(sum_by_layer(&rows), vec![row(0, 0, 5, 0), row(1, 7, 10, 7)]);
    }
}
