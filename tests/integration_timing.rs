//! Cross-crate timing integration: the paper's qualitative results must
//! hold on every benchmark, mappings must respect the global buffer, the
//! simulator must be deterministic, and every statistic it reports for
//! the paper networks must equal the benchmark's expected file.

use seculator::core::widening::widen_network;
use seculator::core::{SchemeKind, TimingNpu};
use seculator::models::zoo;
use seculator::sim::config::NpuConfig;
use seculator::sim::stats::{LayerStats, RunStats};

#[test]
fn paper_benchmarks_all_map_onto_the_global_buffer() {
    let npu = TimingNpu::new(NpuConfig::paper());
    for net in zoo::paper_benchmarks() {
        let schedules = npu
            .map(&net)
            .unwrap_or_else(|e| panic!("{}: {e}", net.name));
        assert_eq!(schedules.len(), net.depth());
        for s in &schedules {
            assert!(
                s.resident_bytes() <= NpuConfig::paper().global_buffer_bytes,
                "{}: layer {} overflows the buffer",
                net.name,
                s.layer().id
            );
        }
    }
}

/// The benchmark's expected statistics for every network x design pair
/// (`perfbench/src/zoo.rs` writes and checks them; read-only here).
const EXPECTED_SIM_ZOO: &str = include_str!("../perfbench/expected/sim-zoo.tsv");

/// Every `RunStats` field of one run in the expected file's format: one
/// line per layer, a total, and the two metadata caches.
fn render(network: &str, s: &RunStats) -> Vec<String> {
    let row = |kind: &str, rest: String| format!("{network}\t{}\t{kind}\t{rest}", s.scheme);
    let fields = |l: &LayerStats| {
        let d = &l.dram;
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            l.cycles,
            l.compute_cycles,
            l.memory_cycles,
            l.security_cycles,
            d.data_read_bytes,
            d.data_write_bytes,
            d.meta_read_bytes,
            d.meta_write_bytes,
            d.bursts
        )
    };
    let mut total = LayerStats {
        dram: s.dram_totals(),
        ..LayerStats::default()
    };
    let mut out = Vec::new();
    for l in &s.layers {
        total.cycles += l.cycles;
        total.compute_cycles += l.compute_cycles;
        total.memory_cycles += l.memory_cycles;
        total.security_cycles += l.security_cycles;
        out.push(row("layer", format!("{}\t{}", l.layer_id, fields(l))));
    }
    out.push(row("total", format!("-\t{}", fields(&total))));
    for (name, cache) in [
        ("counter_cache", s.counter_cache),
        ("mac_cache", s.mac_cache),
    ] {
        let rest = cache.map_or_else(
            || "none".to_string(),
            |c| format!("{}\t{}\t{}", c.hits, c.misses, c.writebacks),
        );
        out.push(row(name, rest));
    }
    out
}

#[test]
fn figure7_ordering_holds_on_every_benchmark() {
    let npu = TimingNpu::new(NpuConfig::paper());
    let mut expected = EXPECTED_SIM_ZOO
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'));
    for net in zoo::paper_benchmarks() {
        let runs = npu
            .compare_schemes(
                &net,
                &[
                    SchemeKind::Baseline,
                    SchemeKind::Secure,
                    SchemeKind::Tnpu,
                    SchemeKind::GuardNn,
                    SchemeKind::Seculator,
                ],
            )
            .expect("maps");
        // The simulator exactly: every statistic of every pair equals the
        // benchmark's expected file, pairs in the file's order.
        for run in &runs {
            for line in render(&net.name, run) {
                assert_eq!(
                    expected.next(),
                    Some(line.as_str()),
                    "{} under {}: RunStats differ from perfbench/expected/sim-zoo.tsv",
                    net.name,
                    run.scheme
                );
            }
        }
        let cycles: std::collections::HashMap<&str, u64> = runs
            .iter()
            .map(|r| (r.scheme.as_str(), r.total_cycles()))
            .collect();
        // Paper Figure 7: baseline ≥ Seculator > TNPU > Secure? No —
        // baseline > Seculator > TNPU ≈ Secure > GuardNN, with TNPU
        // slightly ahead of Secure.
        assert!(cycles["baseline"] <= cycles["seculator"], "{}", net.name);
        assert!(
            cycles["seculator"] < cycles["tnpu"],
            "{}: {cycles:?}",
            net.name
        );
        assert!(
            cycles["tnpu"] <= cycles["secure"],
            "{}: {cycles:?}",
            net.name
        );
        assert!(
            cycles["secure"] < cycles["guardnn"],
            "{}: {cycles:?}",
            net.name
        );
    }
    assert_eq!(expected.next(), None, "pairs missing from the run");
}

#[test]
fn seculator_speedup_over_tnpu_is_in_the_papers_band() {
    // Paper: ≈16% average speedup (we accept 8%–30% as shape-preserving).
    let npu = TimingNpu::new(NpuConfig::paper());
    let mut ratios = Vec::new();
    for net in zoo::paper_benchmarks() {
        let runs = npu
            .compare_schemes(&net, &[SchemeKind::Tnpu, SchemeKind::Seculator])
            .expect("maps");
        ratios.push(runs[0].total_cycles() as f64 / runs[1].total_cycles() as f64);
    }
    let geomean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    assert!(
        (1.08..=1.30).contains(&geomean),
        "Seculator/TNPU speedup {geomean:.3} outside the paper's band"
    );
}

#[test]
fn figure8_traffic_ordering_holds_on_every_benchmark() {
    let npu = TimingNpu::new(NpuConfig::paper());
    for net in zoo::paper_benchmarks() {
        let runs = npu
            .compare_schemes(
                &net,
                &[
                    SchemeKind::Baseline,
                    SchemeKind::Tnpu,
                    SchemeKind::GuardNn,
                    SchemeKind::Seculator,
                ],
            )
            .expect("maps");
        let bytes: std::collections::HashMap<&str, u64> = runs
            .iter()
            .map(|r| (r.scheme.as_str(), r.total_dram_bytes()))
            .collect();
        assert_eq!(
            bytes["seculator"], bytes["baseline"],
            "{}: Seculator must add zero DRAM traffic",
            net.name
        );
        assert!(bytes["tnpu"] > bytes["seculator"], "{}", net.name);
        assert!(bytes["guardnn"] > bytes["tnpu"], "{}", net.name);
    }
}

#[test]
fn figure5_mac_cache_misses_dwarf_counter_cache_misses() {
    let npu = TimingNpu::new(NpuConfig::paper());
    for net in zoo::paper_benchmarks() {
        let run = npu.run(&net, SchemeKind::Secure).expect("maps");
        let mac = run.mac_cache.expect("mac cache").miss_rate();
        let ctr = run.counter_cache.expect("counter cache").miss_rate();
        assert!(
            mac > 4.0 * ctr,
            "{}: MAC miss rate {mac:.3} not ≫ counter miss rate {ctr:.3}",
            net.name
        );
        // The compulsory floor for streaming data.
        assert!(mac >= 0.115, "{}: {mac}", net.name);
        assert!(ctr <= 0.05, "{}: {ctr}", net.name);
    }
}

#[test]
fn timing_simulation_is_deterministic() {
    let npu = TimingNpu::new(NpuConfig::paper());
    let net = zoo::resnet18();
    let a = npu.run(&net, SchemeKind::Seculator).expect("maps");
    let b = npu.run(&net, SchemeKind::Seculator).expect("maps");
    assert_eq!(a.total_cycles(), b.total_cycles());
    assert_eq!(a.total_dram_bytes(), b.total_dram_bytes());
}

#[test]
fn figure9_widening_grows_latency_monotonically() {
    let npu = TimingNpu::new(NpuConfig::paper());
    let base = zoo::tiny_cnn();
    let mut last = 0u64;
    for width in [32u32, 64, 128, 192] {
        let net = widen_network(&base, width, 32);
        let cycles = npu
            .run(&net, SchemeKind::SeculatorPlus)
            .expect("maps")
            .total_cycles();
        assert!(
            cycles > last,
            "widening to {width} must cost more ({cycles} vs {last})"
        );
        last = cycles;
    }
}

#[test]
fn figure9_seculator_plus_widens_cheapest_in_absolute_terms() {
    let npu = TimingNpu::new(NpuConfig::paper());
    let net = widen_network(&zoo::tiny_cnn(), 192, 32);
    let schemes = [
        SchemeKind::Secure,
        SchemeKind::Tnpu,
        SchemeKind::GuardNn,
        SchemeKind::SeculatorPlus,
    ];
    let cycles: Vec<u64> = schemes
        .iter()
        .map(|s| npu.run(&net, *s).expect("maps").total_cycles())
        .collect();
    let seculator_plus = cycles[3];
    for (s, c) in schemes.iter().zip(&cycles).take(3) {
        assert!(
            seculator_plus < *c,
            "widened Seculator+ ({seculator_plus}) must beat {} ({c})",
            s.name()
        );
    }
}

#[test]
fn bigger_global_buffer_never_increases_mapped_traffic() {
    let net = zoo::resnet18();
    let small = TimingNpu::new(NpuConfig {
        global_buffer_bytes: 64 * 1024,
        ..NpuConfig::paper()
    });
    let large = TimingNpu::new(NpuConfig {
        global_buffer_bytes: 512 * 1024,
        ..NpuConfig::paper()
    });
    let t_small: u64 = small
        .map(&net)
        .expect("maps")
        .iter()
        .map(|s| s.traffic().total())
        .sum();
    let t_large: u64 = large
        .map(&net)
        .expect("maps")
        .iter()
        .map(|s| s.traffic().total())
        .sum();
    assert!(
        t_large <= t_small,
        "larger buffer found worse mapping: {t_large} > {t_small}"
    );
}
