//! The repository benchmark. See `README.md` beside this crate for why
//! each workload exists and what each metric is predicted to move.
//!
//! Every workload drives the library's public API in-process, checks
//! every output, and returns a [`Report`]: the end-to-end metrics from
//! an untraced run, or the per-layer metrics from a traced one.

pub mod serve;
pub mod stats;
pub mod trace;
pub mod zoo;

use std::collections::BTreeMap;

/// End-to-end metrics (name, unit), printed by every untraced run. The
/// serve workloads also print their latency percentiles, with sample
/// counts, on the lines before the result: `sim-zoo` has no percentile
/// to report, and the result carries only metrics every workload has.
pub const END_TO_END: [(&str, &str); 4] = [
    ("rps", "1/s"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// The five designs `sim-zoo` compares, by their `SchemeKind` names.
pub const DESIGN_NAMES: [&str; 5] = ["baseline", "secure", "tnpu", "guardnn", "seculator"];

/// Per-layer metrics (name, unit), printed by every traced run. A layer
/// a workload never calls reads 0 there.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("wire.codec_us_per_req", "us"),
        ("wire.frames_per_req", "count"),
        ("wire.bytes_per_req", "B"),
        ("daemon.submit_us", "us"),
        ("daemon.poll_us", "us"),
        ("daemon.rss_kb_per_req", "kB"),
        ("session.tick_us_p50", "us"),
        ("session.tick_us_p99", "us"),
        ("session.ticks_per_req", "count"),
        ("session.wait_ms_p50", "ms"),
        ("session.wait_ms_p99", "ms"),
        ("session.service_ms_p50", "ms"),
        ("session.pads_per_req", "count"),
        ("session.tick_ns_per_block", "ns"),
        ("secure_memory.seal_blocks_per_req", "count"),
        ("secure_memory.open_blocks_per_req", "count"),
        ("secure_memory.batches_per_req", "count"),
        ("crypto.aesni_blocks_per_req", "count"),
        ("crypto.portable_blocks_per_req", "count"),
        ("crypto.mac_blocks_per_req", "count"),
        ("vngen.advances_per_req", "count"),
        ("journal.appends_per_req", "count"),
        ("journal.epoch_bumps_per_req", "count"),
        ("compute.plain_us_per_req", "us"),
        ("mapper.map_ms", "ms"),
        ("trace.walk_ms", "ms"),
        ("trace.steps", "count"),
        ("trace.accesses", "count"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for d in DESIGN_NAMES {
        m.push((format!("engine.{d}.ms_per_pass"), "ms"));
        m.push((format!("engine.{d}.ns_per_block"), "ns"));
    }
    for d in DESIGN_NAMES {
        m.push((format!("sim.{d}.mcycles"), "Mcycles"));
        m.push((format!("sim.{d}.dram_mb"), "MB"));
    }
    for (n, u) in [
        ("sim.secure.ctr_miss_rate", "ratio"),
        ("sim.secure.mac_miss_rate", "ratio"),
        ("sim.seculator_speedup_vs_tnpu", "%"),
        ("sim.tnpu_traffic_vs_seculator", "%"),
        ("sim.guardnn_traffic_vs_seculator", "%"),
        ("bench.trace_overhead_pct", "%"),
    ] {
        m.push((n.to_string(), u));
    }
    m
}

/// The outcome of one run: correctness tallies, metrics by name, and
/// human-readable lines (sample counts, self times, references).
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted (requests or simulations, warm-ups included).
    pub attempted: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
    /// Every other check the run makes (pad collisions, counts) held.
    pub checks_ok: bool,
    /// Measured values by metric name.
    pub values: BTreeMap<String, f64>,
    /// Lines printed before the JSON result.
    pub notes: Vec<String>,
}

impl Report {
    /// Share of attempted operations whose output was correct.
    #[must_use]
    pub fn ok_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }

    /// Whether every output and check held.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.checks_ok && self.attempted > 0 && self.failed == 0
    }

    /// Records one metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// The one-line JSON result over `metrics` (name, unit); a metric the
    /// run did not measure reads 0.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value, which JSON cannot carry.
    #[must_use]
    pub fn json(&self, metrics: &[(String, &str)]) -> String {
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                assert!(v.is_finite(), "metric {name} is not finite: {v}");
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// The repository's splitmix64 step, for seeding inputs and op orders.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
