//! `sim-zoo`: the five paper networks under the five compared designs
//! on `TimingNpu`, from network description to simulated cycles.
//!
//! Set-up builds the networks and maps each once (`TimingNpu::map`).
//! A pass then runs all 25 network×design pairs, one
//! `TimingNpu::run_schedules` call each, in an order the seed shuffles
//! per pass; every `RunStats` must equal the committed expected values
//! (`expected/sim-zoo.tsv`, generated at the commit that added this
//! benchmark).

use std::collections::BTreeMap;
use std::time::Instant;

use seculator_arch::trace::LayerSchedule;
use seculator_core::{SchemeKind, TimingNpu};
use seculator_models::{zoo, Network};
use seculator_sim::config::NpuConfig;
use seculator_sim::stats::RunStats;

use crate::stats::{geomean, median, proc_status_kb};
use crate::trace::{Tracer, NO_REQUEST};
use crate::{splitmix, Report, DESIGN_NAMES};

/// The compared designs, in [`DESIGN_NAMES`] order.
pub const DESIGNS: [SchemeKind; 5] = [
    SchemeKind::Baseline,
    SchemeKind::Secure,
    SchemeKind::Tnpu,
    SchemeKind::GuardNn,
    SchemeKind::Seculator,
];

/// Fresh set-ups timed per run.
pub const SETUP_REPS: usize = 5;

/// The committed expected statistics.
pub const EXPECTED_TSV: &str = include_str!("../expected/sim-zoo.tsv");

/// The paper's own simulated figures (Figures 7 and 8), printed beside
/// the model's: Seculator ≈16 % faster than TNPU; TNPU +17 % and GuardNN
/// +40 % DRAM traffic relative to Seculator.
const PAPER_SPEEDUP_VS_TNPU_PCT: f64 = 16.0;
/// See [`PAPER_SPEEDUP_VS_TNPU_PCT`].
const PAPER_TNPU_TRAFFIC_PCT: f64 = 17.0;
/// See [`PAPER_SPEEDUP_VS_TNPU_PCT`].
const PAPER_GUARDNN_TRAFFIC_PCT: f64 = 40.0;

/// Every `RunStats` field of one run, one line per layer plus a total
/// and the two metadata caches, tab-separated after `network design`.
#[must_use]
pub fn render(network: &str, design: &str, s: &RunStats) -> Vec<String> {
    let row = |kind: &str, rest: String| format!("{network}\t{design}\t{kind}\t{rest}");
    let mut out = Vec::with_capacity(s.layers.len() + 3);
    let (mut cycles, mut compute, mut memory, mut security) = (0u64, 0u64, 0u64, 0u64);
    for l in &s.layers {
        cycles += l.cycles;
        compute += l.compute_cycles;
        memory += l.memory_cycles;
        security += l.security_cycles;
        out.push(row(
            "layer",
            format!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                l.layer_id,
                l.cycles,
                l.compute_cycles,
                l.memory_cycles,
                l.security_cycles,
                l.dram.data_read_bytes,
                l.dram.data_write_bytes,
                l.dram.meta_read_bytes,
                l.dram.meta_write_bytes,
                l.dram.bursts
            ),
        ));
    }
    let d = s.dram_totals();
    out.push(row(
        "total",
        format!(
            "-\t{cycles}\t{compute}\t{memory}\t{security}\t{}\t{}\t{}\t{}\t{}",
            d.data_read_bytes, d.data_write_bytes, d.meta_read_bytes, d.meta_write_bytes, d.bursts
        ),
    ));
    for (name, cache) in [
        ("counter_cache", s.counter_cache),
        ("mac_cache", s.mac_cache),
    ] {
        out.push(row(
            name,
            cache.map_or_else(
                || "none".to_string(),
                |c| format!("{}\t{}\t{}", c.hits, c.misses, c.writebacks),
            ),
        ));
    }
    out
}

/// Header of the expected-statistics file.
const TSV_HEADER: &str = "# network\tdesign\tkind\tlayer\tcycles\tcompute\tmemory\tsecurity\tdata_read_B\tdata_write_B\tmeta_read_B\tmeta_write_B\tbursts  (cache rows: hits misses writebacks)";

/// Expected rendered lines per (network, design).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    rows: BTreeMap<(String, String), Vec<String>>,
}

impl Expected {
    /// Parses the committed file (`#` lines are comments).
    #[must_use]
    pub fn parse(tsv: &str) -> Self {
        let mut rows: BTreeMap<(String, String), Vec<String>> = BTreeMap::new();
        for line in tsv.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
            let mut f = line.splitn(3, '\t');
            let (Some(n), Some(d)) = (f.next(), f.next()) else {
                continue;
            };
            rows.entry((n.to_string(), d.to_string()))
                .or_default()
                .push(line.to_string());
        }
        Self { rows }
    }

    /// Whether `stats` equals the expected values for the pair.
    #[must_use]
    pub fn matches(&self, network: &str, design: &str, stats: &RunStats) -> bool {
        self.rows
            .get(&(network.to_string(), design.to_string()))
            .is_some_and(|want| *want == render(network, design, stats))
    }

    /// Adds 1 to the first number of the pair's first row: a planted
    /// discrepancy for the failure-counting test.
    pub fn perturb(&mut self, network: &str, design: &str) {
        let rows = self
            .rows
            .get_mut(&(network.to_string(), design.to_string()))
            .expect("pair present in the expected file");
        let mut fields: Vec<String> = rows[0].split('\t').map(str::to_string).collect();
        let v: u64 = fields[4].parse().expect("cycles column is numeric");
        fields[4] = (v + 1).to_string();
        rows[0] = fields.join("\t");
    }
}

/// Mapped networks: the sim-zoo set-up.
#[derive(Debug)]
pub struct Zoo {
    npu: TimingNpu,
    networks: Vec<Network>,
    maps: Vec<Vec<LayerSchedule>>,
}

impl Zoo {
    /// Builds `networks` (the paper's five by default) and maps each once.
    ///
    /// # Panics
    ///
    /// Panics if a paper network does not map onto the 240 KB buffer.
    #[must_use]
    pub fn set_up(networks: fn() -> Vec<Network>, tr: &mut Tracer) -> Self {
        let npu = TimingNpu::new(NpuConfig::paper());
        let networks = networks();
        let maps = networks
            .iter()
            .map(|n| {
                let sp = tr.enter("mapper.map", NO_REQUEST);
                let m = npu
                    .map(n)
                    .expect("paper networks map onto the global buffer");
                tr.exit(sp);
                m
            })
            .collect();
        Self {
            npu,
            networks,
            maps,
        }
    }

    /// Runs one pair.
    #[must_use]
    pub fn simulate(&self, net: usize, design: usize) -> RunStats {
        self.npu
            .run_schedules(&self.networks[net].name, &self.maps[net], DESIGNS[design])
    }

    /// Network names in set-up order.
    #[must_use]
    pub fn network_names(&self) -> Vec<String> {
        self.networks.iter().map(|n| n.name.clone()).collect()
    }

    /// Every pair's expected-file lines.
    #[must_use]
    pub fn expected_tsv(&self) -> String {
        let mut out = String::from(TSV_HEADER);
        out.push('\n');
        for (ni, n) in self.networks.iter().enumerate() {
            for (di, d) in DESIGN_NAMES.iter().enumerate() {
                for line in render(&n.name, d, &self.simulate(ni, di)) {
                    out.push_str(&line);
                    out.push('\n');
                }
            }
        }
        out
    }

    /// Walks every schedule's steps with an empty closure; returns
    /// (steps, accesses).
    fn walk(&self) -> (u64, u64) {
        let (mut steps, mut accesses) = (0u64, 0u64);
        for m in &self.maps {
            for s in m {
                s.for_each_step(|st| {
                    steps += 1;
                    accesses += st.accesses.len() as u64;
                });
            }
        }
        (steps, accesses)
    }
}

/// One simulated op of a pass.
#[derive(Debug, Clone)]
pub struct Op {
    /// Network index.
    pub net: usize,
    /// Design index.
    pub design: usize,
    /// Host time (ns).
    pub ns: u64,
    /// Whether its statistics equalled the expected ones.
    pub ok: bool,
    /// Simulated DRAM bytes.
    pub dram_bytes: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Counter-cache (hits, misses), for designs that have one.
    pub counter_cache: Option<(u64, u64)>,
    /// MAC-cache (hits, misses), for designs that have one.
    pub mac_cache: Option<(u64, u64)>,
}

/// Every (network, design) pair, networks in set-up order.
fn pairs(zoo: &Zoo) -> Vec<(usize, usize)> {
    (0..zoo.networks.len())
        .flat_map(|n| (0..DESIGNS.len()).map(move |d| (n, d)))
        .collect()
}

/// Runs one pass of every pair, in the seed's order for `pass`.
pub fn run_pass(zoo: &Zoo, expected: &Expected, seed: u64, pass: u64, tr: &mut Tracer) -> Vec<Op> {
    let mut order = pairs(zoo);
    let mut s = seed ^ pass.wrapping_mul(0xA24B_AED4_963E_E407);
    for i in (1..order.len()).rev() {
        order.swap(i, (splitmix(&mut s) % (i as u64 + 1)) as usize);
    }
    run_order(zoo, expected, &order, pass, tr)
}

/// The untimed pass before the timed ones, in set-up order whatever the
/// seed: caches fill, and the allocator reaches the same high-water mark
/// on every run (seed-shuffled first passes left `peak_rss_mb` 4.3–4.9 MB
/// apart).
pub fn warm_up(zoo: &Zoo, expected: &Expected, tr: &mut Tracer) -> Vec<Op> {
    run_order(zoo, expected, &pairs(zoo), u64::MAX >> 8, tr)
}

fn run_order(
    zoo: &Zoo,
    expected: &Expected,
    order: &[(usize, usize)],
    pass: u64,
    tr: &mut Tracer,
) -> Vec<Op> {
    let root = tr.enter("bench.pass", NO_REQUEST);
    let ops = order
        .iter()
        .enumerate()
        .map(|(i, &(net, design))| {
            let sp = tr.enter(ENGINE_SPANS[design], (pass << 8) | i as u64);
            let t = Instant::now();
            let stats = std::hint::black_box(zoo.simulate(net, design));
            let ns = t.elapsed().as_nanos() as u64;
            tr.exit(sp);
            Op {
                net,
                design,
                ns,
                ok: expected.matches(&zoo.networks[net].name, DESIGN_NAMES[design], &stats),
                dram_bytes: stats.total_dram_bytes(),
                cycles: stats.total_cycles(),
                counter_cache: stats.counter_cache.map(|c| (c.hits, c.misses)),
                mac_cache: stats.mac_cache.map(|c| (c.hits, c.misses)),
            }
        })
        .collect();
    tr.exit(root);
    ops
}

const ENGINE_SPANS: [&str; 5] = [
    "engine.baseline",
    "engine.secure",
    "engine.tnpu",
    "engine.guardnn",
    "engine.seculator",
];

/// Runs passes until `seconds` have passed (at least two when tracing,
/// alternating traced and untraced passes) and reports.
#[must_use]
pub fn run(seed: u64, seconds: f64, trace: bool) -> (Report, Tracer) {
    let expected = Expected::parse(EXPECTED_TSV);
    let mut tr = Tracer::new(trace);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut zoo = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let z = Zoo::set_up(zoo::paper_benchmarks, &mut tr);
        setup_s.push(t.elapsed().as_secs_f64());
        zoo = Some(z);
    }
    let zoo = zoo.expect("at least one set-up");

    let names = zoo.network_names();
    let mut r = Report {
        checks_ok: true,
        ..Report::default()
    };
    let check = |r: &mut Report, ops: &[Op]| {
        for op in ops {
            r.attempted += 1;
            if !op.ok {
                r.failed += 1;
                if r.failed <= 8 {
                    r.notes.push(format!(
                        "FAILED: {} under {}: RunStats differ from expected/sim-zoo.tsv",
                        names[op.net], DESIGN_NAMES[op.design]
                    ));
                }
            }
        }
    };
    tr.set_on(false);
    let warm = warm_up(&zoo, &expected, &mut tr);
    check(&mut r, &warm);

    // Kept across passes at constant size, so a faster program runs more
    // passes without a larger `peak_rss_mb`.
    let (mut rates, mut traced_rates) = (Vec::new(), Vec::new());
    let mut engine = [EngineTime::default(); DESIGNS.len()];
    let mut pass = 0u64;
    let start = Instant::now();
    while pass == 0 || (trace && pass < 2) || start.elapsed().as_secs_f64() < seconds {
        let traced = trace && pass.is_multiple_of(2);
        tr.set_on(traced);
        if traced {
            // The trace walk alone, outside the timed pass.
            let sp = tr.enter("trace.walk", NO_REQUEST);
            std::hint::black_box(zoo.walk());
            tr.exit(sp);
        }
        let t = Instant::now();
        let ops = run_pass(&zoo, &expected, seed, pass, &mut tr);
        // A pass is the whole 25-op mix; `rps` is the median pass rate.
        let rate = ops.len() as f64 / t.elapsed().as_secs_f64();
        check(&mut r, &ops);
        if traced {
            traced_rates.push(rate);
            for op in &ops {
                engine[op.design].ns += op.ns;
                engine[op.design].blocks += op.dram_bytes / 64;
            }
            engine.iter_mut().for_each(|e| e.passes += 1);
        } else {
            rates.push(rate);
        }
        pass += 1;
    }
    tr.set_on(false);

    r.set("ok_ratio", r.ok_ratio());
    r.set("setup_s", median(&setup_s));
    // The shared host only ever slows a pass, in regimes of 10–25 s, so
    // the fastest pass is the steadiest estimate of the simulator's own
    // speed: over six 60-second runs it moved by 6 % (quartile spread over
    // median) where the median pass moved by 22 %.
    let fastest = |rates: &[f64]| rates.iter().copied().fold(0.0, f64::max);
    r.set("rps", fastest(&rates));
    r.set("peak_rss_mb", proc_status_kb("VmHWM") as f64 / 1024.0);
    r.notes.push(format!(
        "sim-zoo: a warm-up and {pass} timed passes of {} ops ({} networks x {} designs); \
         rps: fastest of n={} untraced passes (median {:.2}, slowest {:.2}); \
         setup_s: median of n={SETUP_REPS} set-ups",
        names.len() * DESIGNS.len(),
        names.len(),
        DESIGNS.len(),
        rates.len(),
        median(&rates),
        rates.iter().copied().fold(f64::INFINITY, f64::min)
    ));
    model_figures(&mut r, &warm, &names);

    if trace {
        layer_metrics(&mut r, &zoo, &engine, &warm, &tr);
        let (off, on) = (fastest(&rates), fastest(&traced_rates));
        r.set("bench.trace_overhead_pct", 100.0 * (off / on - 1.0));
    }
    (r, tr)
}

/// Host time and simulated 64-B blocks of one design over traced passes.
#[derive(Debug, Clone, Copy, Default)]
struct EngineTime {
    ns: u64,
    blocks: u64,
    passes: u64,
}

/// Simulated figures of one pass: every pass simulates the same thing.
fn model_figures(r: &mut Report, ops: &[Op], names: &[String]) {
    let mut cycles = vec![vec![0u64; DESIGNS.len()]; names.len()];
    let mut bytes = vec![vec![0u64; DESIGNS.len()]; names.len()];
    for o in ops {
        cycles[o.net][o.design] = o.cycles;
        bytes[o.net][o.design] = o.dram_bytes;
    }
    // Geomean over networks of each design's ratio to the baseline, as
    // Figures 7 and 8 normalise.
    let norm = |m: &Vec<Vec<u64>>, d: usize, inv: bool| {
        geomean(
            &m.iter()
                .map(|row| {
                    let x = row[d] as f64 / row[0] as f64;
                    if inv {
                        1.0 / x
                    } else {
                        x
                    }
                })
                .collect::<Vec<_>>(),
        )
    };
    let speedup = 100.0 * (norm(&cycles, 4, true) / norm(&cycles, 2, true) - 1.0);
    let tnpu_traffic = 100.0 * (norm(&bytes, 2, false) / norm(&bytes, 4, false) - 1.0);
    let guardnn_traffic = 100.0 * (norm(&bytes, 3, false) / norm(&bytes, 4, false) - 1.0);
    r.set("sim.seculator_speedup_vs_tnpu", speedup);
    r.set("sim.tnpu_traffic_vs_seculator", tnpu_traffic);
    r.set("sim.guardnn_traffic_vs_seculator", guardnn_traffic);
    for (d, name) in DESIGN_NAMES.iter().enumerate() {
        r.set(
            &format!("sim.{name}.mcycles"),
            cycles.iter().map(|row| row[d]).sum::<u64>() as f64 / 1e6,
        );
        r.set(
            &format!("sim.{name}.dram_mb"),
            bytes.iter().map(|row| row[d]).sum::<u64>() as f64 / 1e6,
        );
    }
    r.notes.push(format!(
        "model (simulated, not validated against hardware): Seculator {speedup:+.1}% faster than TNPU \
         (paper's simulation: ~{PAPER_SPEEDUP_VS_TNPU_PCT}%); DRAM traffic vs Seculator: TNPU {tnpu_traffic:+.1}% \
         (paper: +{PAPER_TNPU_TRAFFIC_PCT}%), GuardNN {guardnn_traffic:+.1}% (paper: +{PAPER_GUARDNN_TRAFFIC_PCT}%)"
    ));
}

/// Per-layer metrics from the traced passes.
fn layer_metrics(r: &mut Report, zoo: &Zoo, engine: &[EngineTime], ops: &[Op], tr: &Tracer) {
    // Each set-up maps every network once: sum per set-up, median over set-ups.
    let per_setup: Vec<f64> = tr
        .durations("mapper.map")
        .chunks(zoo.networks.len())
        .map(|c| c.iter().sum::<f64>() / 1e6)
        .collect();
    r.set("mapper.map_ms", median(&per_setup));

    let walks: Vec<f64> = tr
        .durations("trace.walk")
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    let walked = zoo.walk();
    r.set("trace.walk_ms", median(&walks));
    r.set("trace.steps", walked.0 as f64);
    r.set("trace.accesses", walked.1 as f64);

    for (e, name) in engine.iter().zip(DESIGN_NAMES) {
        r.set(
            &format!("engine.{name}.ms_per_pass"),
            e.ns as f64 / 1e6 / e.passes as f64,
        );
        r.set(
            &format!("engine.{name}.ns_per_block"),
            e.ns as f64 / e.blocks as f64,
        );
    }
    let miss_rate = |cache: fn(&Op) -> Option<(u64, u64)>| {
        let (hits, misses) = ops
            .iter()
            .filter(|o| o.design == 1)
            .filter_map(cache)
            .fold((0, 0), |a, c| (a.0 + c.0, a.1 + c.1));
        misses as f64 / (hits + misses) as f64
    };
    let ctr = miss_rate(|o| o.counter_cache);
    let mac = miss_rate(|o| o.mac_cache);
    r.set("sim.secure.ctr_miss_rate", ctr);
    r.set("sim.secure.mac_miss_rate", mac);
    r.notes.push(format!(
        "traced: {} passes, trace walks n={}, {} spans",
        engine[0].passes,
        walks.len(),
        tr.spans().len()
    ));
    for (name, t) in tr.layer_times() {
        r.notes.push(format!(
            "layer {name}: n={} total {:.3} ms, self {:.3} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
}
