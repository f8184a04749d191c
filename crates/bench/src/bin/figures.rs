//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```sh
//! cargo run --release -p seculator-bench --bin figures -- all
//! cargo run --release -p seculator-bench --bin figures -- fig7
//! ```
//!
//! Experiment ids: table1, table2, table3, table4, table5, table6,
//! table7, table8, table9, table10, fig4, fig5, fig7, fig8, fig9,
//! energy, mea, noise, batch, reuse, roofline, audit, detection-latency,
//! ablate-maccache, ablate-blocksize, ablate-bandwidth, json, vngen,
//! throughput, serve, daemon.
//!
//! `vngen` times the VN generator FSM against the closed-form VN formula
//! and a TNPU-style per-tile version table on one 65,536-VN pattern, and
//! writes the VNs/s of each to `BENCH_vngen.json`
//! (`seculator-bench-vngen-v1`).
//!
//! `throughput` accepts `--quick` (smaller tiles / fewer repetitions, the
//! mode CI uses), `--check` (exit 1 unless the parallel datapath beats
//! the serial one on the MLP model), and `--metrics <path>` (write the
//! telemetry snapshot — counters, histograms, and the per-layer
//! security-overhead breakdown — as JSON). It writes
//! `BENCH_throughput.json` next to the working directory in addition to
//! the console table.
//!
//! `serve` sweeps the multi-session scheduler over 1/2/4/8/16/64
//! concurrent tenant sessions of the same model under a seeded
//! open-loop arrival process, reporting aggregate sealed-pad throughput
//! plus p50/p99 *service* latency and p50/p99 scheduler *queue* delay
//! as separate distributions, and writes `BENCH_serve.json`
//! (`seculator-bench-serve-v2`, stamped with the host's core and
//! crypto-thread counts). It honors `--quick` the same way
//! `throughput` does; `--check` exits 1 unless every point is
//! bit-identical and collision-free, every point's aggregate rate is
//! ≥0.95x the 1-session rate, and scheduler bookkeeping stays ≤10% of
//! wall at 64 sessions — on any core count.
//!
//! `daemon` runs the closed-loop `seculatord` load test over the
//! deterministic loopback wire: the full daemon conformance campaign,
//! the same-seed serve campaign as the bit-identity anchor, then a
//! sustained-RPS phase across every clean tenant. Stdout carries only
//! deterministic lines (CI diffs two runs byte-for-byte); wall-clock
//! numbers — sustained requests/sec and p50/p99 request latency — go to
//! `BENCH_daemon.json` (`seculator-bench-daemon-v1`). `--check` exits 1
//! unless the campaign passes with ≥8 concurrent clean clients and zero
//! pad collisions.

use seculator_arch::dataflow::{ConvDataflow, Dataflow, MatmulDataflow, PreprocDataflow};
use seculator_arch::layer::{ConvShape, LayerDesc, LayerKind, MatmulShape, PreprocStyle};
use seculator_arch::tiling::TileConfig;
use seculator_arch::trace::LayerSchedule;
use seculator_bench::{geomean, run_comparison, COMPARED_SCHEMES};
use seculator_core::hwcost::table6_modules;
use seculator_core::widening::widen_network;
use seculator_core::{SchemeKind, TimingNpu};
use seculator_models::zoo;
use seculator_sim::config::NpuConfig;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let which = argv
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_string());
    let quick = argv.iter().any(|a| a == "--quick");
    let check = argv.iter().any(|a| a == "--check");
    let metrics = argv
        .iter()
        .position(|a| a == "--metrics")
        .and_then(|i| argv.get(i + 1))
        .cloned();
    let all = which == "all";
    let mut ran = false;
    macro_rules! exp {
        ($id:expr, $f:expr) => {
            if all || which == $id {
                ran = true;
                println!("\n════════ {} ════════", $id);
                $f;
            }
        };
    }

    exp!("table1", table1());
    exp!("table2", table2());
    exp!("table3", table3());
    exp!("table4", table4());
    exp!("table5", table5());
    exp!("table6", table6());
    exp!(
        "table8",
        preproc_table(PreprocStyle::Style1, "Style-1 / pooling")
    );
    exp!(
        "table9",
        preproc_table(PreprocStyle::Style2, "Style-2 (S = T(R,G,B))")
    );
    exp!(
        "table10",
        preproc_table(PreprocStyle::Style3, "Style-3 (Si = Ti(R,G,B))")
    );
    exp!("fig4", fig4());
    exp!("fig5", fig5());
    exp!("fig7", fig7_fig8(true));
    exp!("fig8", fig7_fig8(false));
    exp!("fig9", fig9());
    exp!("table7", table7());
    exp!("energy", energy());
    exp!("mea", mea());
    exp!("detection-latency", detection_latency_exp());
    exp!("batch", batch_exp());
    exp!("noise", noise_exp());
    exp!("reuse", reuse_exp());
    exp!("roofline", roofline_exp());
    exp!("audit", audit_exp());
    exp!("ablate-maccache", ablate_maccache());
    exp!("ablate-blocksize", ablate_blocksize());
    exp!("ablate-bandwidth", ablate_bandwidth());
    exp!("json", export_json());
    exp!("vngen", vngen_exp());
    // Under `all` the throughput experiment always runs in quick mode so
    // regenerating every figure stays fast; ask for it by id to get the
    // full-size tiles.
    exp!(
        "throughput",
        throughput(quick || all, check, metrics.as_deref())
    );
    exp!("serve", serve_exp(quick || all, check));
    exp!("daemon", daemon_exp(quick || all, check));

    if !ran {
        eprintln!("unknown experiment id `{which}`; see the source header for valid ids");
        std::process::exit(1);
    }
}

// ───────────────────────── Tables ─────────────────────────

fn table1() {
    let cfg = NpuConfig::paper();
    println!("NPU configuration (paper Table 1):");
    println!("  PE array            {}x{}", cfg.pe_rows, cfg.pe_cols);
    println!(
        "  Global buffer       {} KB",
        cfg.global_buffer_bytes / 1024
    );
    println!("  Frequency           {} GHz", cfg.frequency_ghz);
    println!(
        "  DRAM                dual-channel DDR4, {} cyc latency",
        cfg.dram.latency_cycles
    );
    println!("  Block size          {} B", cfg.block_bytes);
    println!(
        "  Counter cache       {} KB",
        cfg.counter_cache_bytes / 1024
    );
    println!("  MAC cache           {} KB", cfg.mac_cache_bytes / 1024);
    println!("\nBenchmarks:");
    println!("  {:<12} {:>8} {:>14}", "workload", "layers", "parameters");
    for net in zoo::paper_benchmarks() {
        println!(
            "  {:<12} {:>8} {:>13.1}M",
            net.name,
            net.depth(),
            net.params() as f64 / 1e6
        );
    }
}

/// A representative convolution layer for the symbolic pattern tables.
fn pattern_layer() -> (LayerDesc, TileConfig) {
    (
        LayerDesc::new(0, LayerKind::Conv(ConvShape::simple(32, 16, 32, 3))),
        TileConfig {
            kt: 8,
            ct: 4,
            ht: 16,
            wt: 16,
        },
    )
}

fn print_pattern_row(style: &str, order: &str, schedule: &LayerSchedule) {
    let wp = schedule.write_pattern();
    let rp = schedule
        .read_pattern()
        .map(|p| p.notation())
        .unwrap_or_else(|| "–".to_string());
    // Validate against the replayed schedule before printing.
    let observed = schedule.observed_write_vns();
    let predicted: Vec<u32> = wp.iter().collect();
    assert_eq!(observed, predicted, "pattern mismatch for {style}");
    println!(
        "  {:<44} {:<18} WP: {:<22} RP: {:<22} {}",
        style,
        order,
        wp.notation(),
        rp,
        wp.family()
    );
}

fn table2() {
    let (layer, tiling) = pattern_layer();
    println!("Convolution VN patterns (K=32 C=16 H=W=32, KT=8 CT=4 HT=WT=16 ⇒ αK=4 αC=4 αHW=4):");
    for df in [
        ConvDataflow::IrPartialChannelAlongChannel,
        ConvDataflow::IrMultiChannelAlongChannel,
        ConvDataflow::IrPartialChannelAlongSpace,
        ConvDataflow::IrMultiChannelAlongSpace,
        ConvDataflow::IrChannelWise,
        ConvDataflow::IrFullChannel,
        ConvDataflow::OrPartialChannel,
        ConvDataflow::OrChannelWise,
        ConvDataflow::OrFullChannel,
    ] {
        let s = LayerSchedule::new(layer, Dataflow::Conv(df), tiling).expect("resolves");
        print_pattern_row(df.style_name(), df.loop_order(), &s);
    }
}

fn table3() {
    let (layer, tiling) = pattern_layer();
    println!("Weight-reuse VN patterns:");
    for df in [
        ConvDataflow::WrMultiChannelWise,
        ConvDataflow::WrChannelWise,
        ConvDataflow::WrFullFilter,
    ] {
        let s = LayerSchedule::new(layer, Dataflow::Conv(df), tiling).expect("resolves");
        print_pattern_row(df.style_name(), df.loop_order(), &s);
    }
}

fn table4() {
    let layer = LayerDesc::new(0, LayerKind::Matmul(MatmulShape::new(128, 256, 64)));
    let tiling = TileConfig {
        kt: 1,
        ct: 64,
        ht: 32,
        wt: 16,
    };
    println!("Matrix-multiplication VN patterns (R = P×Q, H=128 C=256 W=64):");
    for df in MatmulDataflow::ALL {
        let s = LayerSchedule::new(layer, Dataflow::Matmul(df), tiling).expect("resolves");
        print_pattern_row(&format!("{df:?}"), df.loop_order(), &s);
    }
}

fn table5() {
    println!("Simulated designs:");
    println!(
        "  {:<12} {:<12} {:<12} {:<12} {:<6}",
        "design", "integrity", "encryption", "anti-replay", "MEA"
    );
    for k in SchemeKind::ALL {
        let (integrity, enc, replay, mea) = k.features();
        println!(
            "  {:<12} {:<12} {:<12} {:<12} {:<6}",
            k.name(),
            integrity,
            enc,
            replay,
            if mea { "✓" } else { "×" }
        );
    }
}

fn table6() {
    println!("Security-module hardware overhead (8 nm):");
    println!(
        "  {:<14} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "module", "gates", "model µm²", "paper µm²", "model µW", "paper µW"
    );
    for m in table6_modules() {
        println!(
            "  {:<14} {:>10} {:>12.0} {:>12.0} {:>12.1} {:>12.1}",
            m.name,
            m.gates,
            m.model_area_um2(),
            m.paper_area_um2,
            m.model_power_uw(),
            m.paper_power_uw
        );
    }
    println!("  (model: NAND2-equivalent gate counts; see DESIGN.md for the substitution)");
}

fn preproc_table(style: PreprocStyle, title: &str) {
    let layer = LayerDesc::new(
        0,
        LayerKind::Preproc {
            style,
            c: 3,
            k_out: 3,
            h: 64,
            w: 64,
        },
    );
    let tiling = TileConfig {
        kt: 1,
        ct: 1,
        ht: 16,
        wt: 16,
    };
    println!("Image pre-processing VN patterns — {title} (C=3, 64×64, HT=WT=16):");
    for df in PreprocDataflow::ALL {
        let s = LayerSchedule::new(layer, Dataflow::Preproc(df), tiling).expect("resolves");
        print_pattern_row(&format!("{df:?}"), "", &s);
    }
}

// ───────────────────────── Figures ─────────────────────────

fn fig4() {
    println!("Characterization: normalized performance (baseline = 1.0).");
    println!("Paper: secure ≈ 0.68 (−32%), TNPU ≈ 0.78 (−22%), GuardNN ≈ 0.56 (−44%).\n");
    let npu = TimingNpu::new(NpuConfig::paper());
    let all = run_comparison(&npu, &zoo::paper_benchmarks());
    let schemes = [
        SchemeKind::Baseline,
        SchemeKind::Secure,
        SchemeKind::Tnpu,
        SchemeKind::GuardNn,
    ];
    print!("{:<12}", "workload");
    for s in schemes {
        print!(" {:>10}", s.name());
    }
    println!();
    let mut per_scheme: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    for w in &all {
        print!("{:<12}", w.name);
        for (i, s) in schemes.iter().enumerate() {
            let perf = w.get(*s).performance_vs(w.baseline());
            per_scheme[i].push(perf);
            print!(" {perf:>10.3}");
        }
        println!();
    }
    print!("{:<12}", "geomean");
    for v in &per_scheme {
        print!(" {:>10.3}", geomean(v));
    }
    println!();
}

fn fig5() {
    println!("Metadata-cache miss rates of the Secure (SGX-like) design.");
    println!("Paper: MAC-cache misses ≫ counter-cache misses (≈8× coverage gap).\n");
    let npu = TimingNpu::new(NpuConfig::paper());
    println!(
        "{:<12} {:>16} {:>18} {:>10}",
        "workload", "MAC miss rate", "counter miss rate", "ratio"
    );
    for net in zoo::paper_benchmarks() {
        let run = npu.run(&net, SchemeKind::Secure).expect("maps");
        let mac = run
            .mac_cache
            .expect("secure design has a MAC cache")
            .miss_rate();
        let ctr = run
            .counter_cache
            .expect("secure design has a counter cache")
            .miss_rate();
        println!(
            "{:<12} {:>15.1}% {:>17.2}% {:>9.1}x",
            run.workload,
            100.0 * mac,
            100.0 * ctr,
            mac / ctr.max(1e-9)
        );
    }
}

fn fig7_fig8(perf: bool) {
    if perf {
        println!("Normalized performance of all designs (Figure 7).");
        println!("Paper: Seculator ≈ 16% faster than TNPU, ≈ 37% faster than GuardNN.\n");
    } else {
        println!("Normalized DRAM traffic (Figure 8).");
        println!("Paper: TNPU ≈ +17%, GuardNN ≈ +40% relative to Seculator.\n");
    }
    let npu = TimingNpu::new(NpuConfig::paper());
    let all = run_comparison(&npu, &zoo::paper_benchmarks());
    print!("{:<12}", "workload");
    for s in COMPARED_SCHEMES {
        print!(" {:>10}", s.name());
    }
    println!();
    let mut per_scheme: Vec<Vec<f64>> = vec![Vec::new(); COMPARED_SCHEMES.len()];
    for w in &all {
        print!("{:<12}", w.name);
        for (i, s) in COMPARED_SCHEMES.iter().enumerate() {
            let v = if perf {
                w.get(*s).performance_vs(w.baseline())
            } else {
                w.get(*s).traffic_vs(w.baseline())
            };
            per_scheme[i].push(v);
            print!(" {v:>10.3}");
        }
        println!();
    }
    print!("{:<12}", "geomean");
    for v in &per_scheme {
        print!(" {:>10.3}", geomean(v));
    }
    println!();

    if perf {
        let tnpu = geomean(&per_scheme[2]);
        let secu = geomean(&per_scheme[4]);
        println!(
            "\nSeculator speedup over TNPU: {:.1}%  (paper: ≈16%)",
            100.0 * (secu / tnpu - 1.0)
        );
    } else {
        let secu = geomean(&per_scheme[4]);
        println!(
            "\ntraffic vs Seculator: TNPU +{:.0}%, GuardNN +{:.0}%  (paper: +17% / +40%)",
            100.0 * (geomean(&per_scheme[2]) / secu - 1.0),
            100.0 * (geomean(&per_scheme[3]) / secu - 1.0)
        );
    }
}

fn fig9() {
    println!("Layer widening (Seculator+): execution latency when the 32×32×3 base");
    println!("network is widened, normalized to the *unsecure baseline at 32×32*.");
    println!("Lower curve = cheaper widening; paper: Seculator is the most scalable.\n");
    let base = zoo::tiny_cnn();
    let npu = TimingNpu::new(NpuConfig::paper());
    let schemes = [
        SchemeKind::Secure,
        SchemeKind::Tnpu,
        SchemeKind::GuardNn,
        SchemeKind::SeculatorPlus,
    ];
    let base_cycles = npu
        .run(&base, SchemeKind::Baseline)
        .expect("maps")
        .total_cycles() as f64;
    print!("{:<8}", "width");
    for s in schemes {
        print!(" {:>12}", s.name());
    }
    println!();
    for width in [32u32, 56, 64, 128, 160, 192] {
        let net = widen_network(&base, width, 32);
        print!("{width:<8}");
        for s in schemes {
            let cycles = npu.run(&net, s).expect("maps").total_cycles() as f64;
            print!(" {:>12.2}", cycles / base_cycles);
        }
        println!();
    }
}

fn table7() {
    println!("Security-metadata storage per design (paper Table 7's space column,");
    println!("made concrete per workload). Seculator: a handful of registers.\n");
    let npu = TimingNpu::new(NpuConfig::paper());
    for net in zoo::paper_benchmarks() {
        let schedules = npu.map(&net).expect("maps");
        println!("{}:", net.name);
        println!(
            "  {:<20} {:>14} {:>14} {:>12} {:>14}",
            "design", "VN bytes", "MAC bytes", "tree bytes", "total"
        );
        for (name, f) in seculator_core::storage::table7_rows(&schedules) {
            println!(
                "  {:<20} {:>14} {:>14} {:>12} {:>14}",
                name,
                f.vn_bytes,
                f.mac_bytes,
                f.tree_bytes,
                f.total()
            );
        }
    }
}

fn energy() {
    println!("Energy extension (beyond the paper): first-order energy per inference,");
    println!("normalized to baseline. Metadata DRAM traffic is the differentiator.\n");
    let npu = TimingNpu::new(NpuConfig::paper());
    let model = seculator_sim::energy::EnergyModel::default();
    print!("{:<12}", "workload");
    for s in COMPARED_SCHEMES {
        print!(" {:>10}", s.name());
    }
    println!();
    for net in zoo::paper_benchmarks() {
        let runs = npu.compare_schemes(&net, &COMPARED_SCHEMES).expect("maps");
        let base = model.estimate(&runs[0], net.macs(), false).total_pj();
        print!("{:<12}", net.name);
        for (i, run) in runs.iter().enumerate() {
            let e = model.estimate(run, net.macs(), i != 0).total_pj();
            print!(" {:>10.3}", e / base);
        }
        println!();
    }
}

fn mea() {
    println!("Model-extraction attack vs Seculator+ defenses (paper §7.5).");
    println!("Attacker infers per-layer ofmap pixels from the address trace.\n");
    let npu = TimingNpu::new(NpuConfig::paper());
    let net = zoo::tiny_cnn();
    let real = npu.map(&net).expect("maps");
    let pixels: Vec<u64> = net.layers.iter().map(|l| l.ofmap_bytes() / 4).collect();
    println!(
        "{:<28} {:>14} {:>14}",
        "defense", "mean rel. err", "observed depth"
    );
    let undefended = seculator_core::mea::evaluate_defense(&real, &real, &pixels);
    println!(
        "{:<28} {:>14.3} {:>14}",
        "none", undefended.error_undefended, undefended.observed_depth_undefended
    );
    for (num, den) in [(56u32, 32u32), (2, 1), (4, 1)] {
        let widened = widen_network(&net, num, den);
        let obf = npu.map(&widened).expect("maps");
        let report = seculator_core::mea::evaluate_defense(&real, &obf, &pixels);
        println!(
            "{:<28} {:>14.3} {:>14}",
            format!("widen x{num}/{den}"),
            report.error_defended,
            report.observed_depth_defended
        );
    }
    let noisy =
        seculator_core::widening::intersperse_dummy(&net, &seculator_models::zoo::tiny_mlp());
    let obf = npu.map(&noisy).expect("maps");
    let report = seculator_core::mea::evaluate_defense(&real, &obf, &pixels);
    println!(
        "{:<28} {:>14.3} {:>14}",
        "dummy interspersing", report.error_defended, report.observed_depth_defended
    );
    println!("\nWidening inflates every inferred dimension; dummy layers disguise depth.");
}

// ───────────────────────── Ablations ─────────────────────────

fn roofline_exp() {
    println!("Roofline analysis (extension): arithmetic intensity per benchmark and");
    println!("the MAC-share in compute-bound layers (where security traffic hides).\n");
    let npu = TimingNpu::new(NpuConfig::paper());
    let machine = seculator_arch::analysis::MachineBalance {
        macs_per_cycle: 1024.0,
        bytes_per_cycle: NpuConfig::paper().dram.bytes_per_cycle,
    };
    println!(
        "{:<12} {:>16} {:>18} {:>20}",
        "workload", "ridge MACs/B", "median intensity", "compute-bound MACs"
    );
    for net in zoo::paper_benchmarks() {
        let schedules = npu.map(&net).expect("maps");
        let (rooflines, share) = seculator_arch::analysis::network_roofline(&schedules, &machine);
        let mut intensities: Vec<f64> = rooflines.iter().map(|r| r.intensity).collect();
        intensities.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = intensities[intensities.len() / 2];
        println!(
            "{:<12} {:>16.1} {:>18.1} {:>19.1}%",
            net.name,
            machine.ridge(),
            median,
            100.0 * share
        );
    }
    println!("\nAt the paper's machine balance every benchmark is memory-bound almost");
    println!("everywhere — which is why metadata traffic translates into slowdown.");
}

fn audit_exp() {
    println!("Static security audit (the paper's omitted §7.4 proof, executable):");
    println!("final-VN uniformity, write/read-back closure, first-read coverage,");
    println!("counter uniqueness, and formula fidelity for every mapped layer.\n");
    let npu = TimingNpu::new(NpuConfig::paper());
    println!(
        "{:<12} {:>8} {:>10} {:>10}",
        "workload", "layers", "tiles", "verdict"
    );
    for net in zoo::paper_benchmarks() {
        let schedules = npu.map(&net).expect("maps");
        let report = seculator_core::audit::audit_network(&schedules);
        println!(
            "{:<12} {:>8} {:>10} {:>10}",
            net.name,
            report.layers,
            report.tiles_checked,
            if report.is_clean() {
                "CLEAN"
            } else {
                "VIOLATIONS"
            }
        );
        assert!(report.is_clean(), "{:?}", report.findings);
    }
}

fn reuse_exp() {
    println!("Reuse-distance analysis (extension): stack-distance theory predicts");
    println!("the metadata-cache miss rates of Figure 5 before simulating a cache.\n");
    use seculator_arch::trace::{AccessOp, TensorClass};
    let npu = TimingNpu::new(NpuConfig::paper());
    let net = zoo::resnet18();
    let schedules = npu.map(&net).expect("maps");
    // Reconstruct the block-address stream the Secure engine sees and
    // feed MAC-line / counter-line addresses to the analyzers.
    let mut mac_sd = seculator_sim::reuse::StackDistance::new(1024);
    let mut ctr_sd = seculator_sim::reuse::StackDistance::new(1024);
    let mut next_base = 0u64;
    for s in &schedules {
        let mut region_for = std::collections::HashMap::new();
        for class in [TensorClass::Ifmap, TensorClass::Weight, TensorClass::Ofmap] {
            region_for.insert(format!("{class:?}"), next_base);
            next_base += 1 << 28; // generous per-tensor regions
        }
        s.for_each_step(|step| {
            for a in &step.accesses {
                if a.op != AccessOp::Read && a.op != AccessOp::Write {
                    continue;
                }
                let base = region_for[&format!("{:?}", a.tensor)];
                let blocks = a.bytes.div_ceil(64);
                let tile_base = base + a.tile * blocks * 64;
                for b in 0..blocks {
                    let addr = tile_base + b * 64;
                    mac_sd.access(addr / 512);
                    ctr_sd.access(addr / 4096);
                }
            }
        });
    }
    let mac_hist = mac_sd.finish();
    let ctr_hist = ctr_sd.finish();
    // Paper caches: 8 KB / 64 B = 128 MAC lines; 4 KB / 64 B = 64 ctr lines.
    let mac_pred = mac_hist.predicted_miss_rate(128);
    let ctr_pred = ctr_hist.predicted_miss_rate(64);
    let run = npu.run(&net, SchemeKind::Secure).expect("maps");
    let mac_sim = run.mac_cache.expect("cache").miss_rate();
    let ctr_sim = run.counter_cache.expect("cache").miss_rate();
    println!("{:<16} {:>14} {:>14}", "cache", "predicted", "simulated");
    println!(
        "{:<16} {:>13.1}% {:>13.1}%",
        "MAC (8 KB)",
        100.0 * mac_pred,
        100.0 * mac_sim
    );
    println!(
        "{:<16} {:>13.2}% {:>13.2}%",
        "counter (4 KB)",
        100.0 * ctr_pred,
        100.0 * ctr_sim
    );
    println!(
        "\ncold fraction: MAC {:.1}%, counter {:.2}% — streaming compulsory misses\n         dominate, which is the paper's §4.1.1 argument in distribution form.",
        100.0 * mac_hist.cold as f64 / mac_hist.total() as f64,
        100.0 * ctr_hist.cold as f64 / ctr_hist.total() as f64
    );
}

fn noise_exp() {
    println!("Traffic-noise injection (Seculator+, §7.5): attacker extraction error");
    println!("and defender bandwidth cost vs the dummy-traffic ratio.\n");
    let npu = TimingNpu::new(NpuConfig::paper());
    let net = zoo::tiny_cnn();
    let schedules = npu.map(&net).expect("maps");
    let real: Vec<u64> = net.layers.iter().map(|l| l.ofmap_bytes() / 4).collect();
    let real_total: u64 = schedules.iter().map(|s| s.traffic().total()).sum();
    println!(
        "{:<10} {:>18} {:>18}",
        "ratio", "extraction error", "traffic overhead"
    );
    for ratio in [0.0f64, 0.25, 0.5, 1.0, 2.0] {
        let cfg = seculator_core::noise::NoiseConfig { ratio, seed: 7 };
        let noisy = seculator_core::noise::observe_network_with_noise(&schedules, &cfg);
        let observations: Vec<_> = noisy.iter().map(|n| n.observed).collect();
        let dummy: u64 = noisy.iter().map(|n| n.dummy_bytes).sum();
        let err = seculator_core::mea::extraction_error(
            &seculator_core::mea::infer_layer_dims(&observations),
            &real,
        );
        println!(
            "{:<10} {:>18.3} {:>17.1}%",
            ratio,
            err,
            100.0 * dummy as f64 / real_total as f64
        );
    }
    println!("\nMore dummy traffic ⇒ blurrier extraction, at a proportional bandwidth");
    println!("cost the defender tunes (complementary to layer widening).");
}

fn batch_exp() {
    println!("Batch amortization (extension): per-inference cycles vs batch size,");
    println!("normalized to the steady state. One-time weight provisioning and");
    println!("per-inference re-keying amortize quickly.\n");
    let npu = TimingNpu::new(NpuConfig::paper());
    let cfg = seculator_core::pipeline::PipelineConfig::default();
    let batches = [1u32, 2, 4, 8, 16, 64, 256];
    print!("{:<12}", "workload");
    for b in batches {
        print!(" {:>8}", format!("b={b}"));
    }
    println!();
    for net in [zoo::mobilenet(), zoo::resnet18()] {
        let curve = seculator_core::pipeline::amortization_curve(
            &npu,
            &net,
            SchemeKind::Seculator,
            &batches,
            &cfg,
        )
        .expect("maps");
        print!("{:<12}", net.name);
        for (_, v) in curve {
            print!(" {v:>8.3}");
        }
        println!();
    }
}

fn detection_latency_exp() {
    println!("Detection latency: the trade-off of layer-level integrity.");
    println!("Block-level schemes catch tampering at the access; Seculator at the");
    println!("next layer boundary. Windows in µs at 2.75 GHz:\n");
    let cfg = NpuConfig::paper();
    let npu = TimingNpu::new(cfg);
    println!(
        "{:<12} {:>16} {:>16} {:>16}",
        "workload", "expected (µs)", "worst case (µs)", "% of inference"
    );
    for net in zoo::paper_benchmarks() {
        let run = npu.run(&net, SchemeKind::Seculator).expect("maps");
        let d = seculator_core::detection::detection_latency(SchemeKind::Seculator, &run);
        println!(
            "{:<12} {:>16.1} {:>16.1} {:>15.1}%",
            net.name,
            1e6 * cfg.cycles_to_seconds(d.expected_cycles as u64),
            1e6 * cfg.cycles_to_seconds(d.worst_case_cycles),
            100.0 * d.expected_cycles / run.total_cycles() as f64,
        );
    }
    println!("\n(Block-level designs: ~0 µs. Nothing leaks in the window — outputs");
    println!("remain inside protected memory until the boundary check passes.)");
}

fn ablate_bandwidth() {
    println!("Ablation: DRAM bandwidth sweep — normalized performance of each secure");
    println!("design as the memory system gets faster.\n");
    let net = zoo::resnet18();
    println!(
        "{:<14} {:>12} {:>12} {:>12}",
        "bytes/cycle", "secure", "tnpu", "seculator"
    );
    for bpc in [4.0f64, 8.0, 14.0, 28.0, 56.0, 112.0] {
        let mut cfg = NpuConfig::paper();
        cfg.dram.bytes_per_cycle = bpc;
        let npu = TimingNpu::new(cfg);
        let runs = npu
            .compare_schemes(
                &net,
                &[
                    SchemeKind::Baseline,
                    SchemeKind::Secure,
                    SchemeKind::Tnpu,
                    SchemeKind::Seculator,
                ],
            )
            .expect("maps");
        let base = runs[0].total_cycles() as f64;
        println!(
            "{:<14} {:>12.3} {:>12.3} {:>12.3}",
            bpc,
            base / runs[1].total_cycles() as f64,
            base / runs[2].total_cycles() as f64,
            base / runs[3].total_cycles() as f64,
        );
    }
    println!("\nFaster DRAM shrinks the baseline's time but not the fixed per-tile");
    println!("security latencies (crypto fill, table round trips), so the *relative*");
    println!("cost of security grows with bandwidth — metadata-free Seculator");
    println!("degrades the most gracefully at every point.");
}

fn export_json() {
    // Emits the raw Figure 7/8 series as a JSON array (workload/scheme
    // names contain no characters needing escapes, so the encoding is
    // hand-rolled to keep the dependency set minimal).
    let npu = TimingNpu::new(NpuConfig::paper());
    let all = run_comparison(&npu, &zoo::paper_benchmarks());
    let mut rows = Vec::new();
    for w in &all {
        for run in &w.runs {
            rows.push(format!(
                "{{\"workload\":\"{}\",\"scheme\":\"{}\",\"cycles\":{},\"dram_bytes\":{},\"perf_vs_baseline\":{:.6},\"traffic_vs_baseline\":{:.6}}}",
                w.name,
                run.scheme,
                run.total_cycles(),
                run.total_dram_bytes(),
                run.performance_vs(w.baseline()),
                run.traffic_vs(w.baseline()),
            ));
        }
    }
    println!("[{}]", rows.join(","));
}

// ───────────────────────── Throughput ─────────────────────────

/// One serial-vs-parallel measurement pair for a campaign model, plus
/// one parallel-mode measurement per available crypto backend.
struct ThroughputRow {
    model: &'static str,
    seal_serial: f64,
    seal_parallel: f64,
    open_serial: f64,
    open_parallel: f64,
    infer_serial_ms: f64,
    infer_parallel_ms: f64,
    backends: Vec<BackendThroughput>,
}

/// Parallel-datapath throughput of one crypto backend, bit-identity
/// asserted against the serial oracle before any timing ran.
struct BackendThroughput {
    backend: &'static str,
    constant_time: bool,
    seal: f64,
    open: f64,
}

impl ThroughputRow {
    fn seal_speedup(&self) -> f64 {
        self.seal_parallel / self.seal_serial
    }
    fn open_speedup(&self) -> f64 {
        self.open_parallel / self.open_serial
    }
    fn infer_speedup(&self) -> f64 {
        self.infer_serial_ms / self.infer_parallel_ms
    }
    fn backend(&self, name: &str) -> Option<&BackendThroughput> {
        self.backends.iter().find(|b| b.backend == name)
    }
}

/// Times several windows of `reps` runs of `f` and returns the best
/// window's rate in `units_per_rep` units per second. Best-of-windows
/// filters out scheduler noise on a shared machine; both datapaths get
/// the same treatment, so the comparison stays fair.
fn rate_of<F: FnMut()>(reps: u32, units_per_rep: usize, mut f: F) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..3 {
        let t0 = std::time::Instant::now();
        for _ in 0..reps {
            f();
        }
        let dt = t0.elapsed().as_secs_f64().max(1e-9);
        best = best.max((units_per_rep as u64 * u64::from(reps)) as f64 / dt);
    }
    best
}

/// Best-of-`reps` wall time of `f` in milliseconds.
fn best_ms<F: FnMut()>(reps: u32, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Writes a benchmark artifact atomically (temp + fsync + rename), so a
/// crash mid-write can never leave a torn half-artifact where CI or a
/// dashboard expects a complete one. Exits with a distinct diagnostic
/// on failure instead of a panic backtrace (an unwritable path is an
/// environment problem, not a bug).
fn write_or_die(path: &str, contents: &str) {
    if let Err(e) = seculator_core::atomic_write(std::path::Path::new(path), contents.as_bytes()) {
        eprintln!("cannot write `{path}`: {e}");
        std::process::exit(2);
    }
}

/// VN generation rate: the `PatternCounter` FSM Seculator puts in
/// hardware, the closed-form `PatternSpec::vn_at`, and the per-tile
/// version table TNPU keeps (one lookup-and-bump per write). The paper
/// argues the formula beats any lookup; this puts a number on the
/// software models.
fn vngen_exp() {
    use seculator_arch::pattern::PatternSpec;
    use seculator_arch::trace::ReferenceVnTable;
    use seculator_core::vngen::PatternCounter;
    use std::hint::black_box;

    // A realistic triplet: αK=8 groups, αC=64 channel tiles, αHW=128.
    let (eta, kappa, rho) = (8, 64, 128);
    let spec = PatternSpec::new(eta, kappa, rho);
    let vns = spec.len();
    let reps = 100;
    let fsm = || {
        let mut counter = PatternCounter::new(spec);
        std::iter::from_fn(move || counter.next_vn())
    };
    let closed_form = || (0..vns).map(move |n| spec.vn_at(n));
    let table = || {
        let mut table = ReferenceVnTable::new();
        // The same schedule shape as table traffic: the η tiles of a
        // group are rewritten once per pass, innermost.
        (0..vns).map(move |n| table.record_write(n % eta))
    };
    assert_eq!(vns, 1 << 16);
    assert!(
        fsm().eq(closed_form()),
        "the FSM and the closed form disagree"
    );
    let counts = [fsm().count(), closed_form().count(), table().count()];
    assert!(counts.iter().all(|&c| c as u64 == vns), "{counts:?}");

    println!("VN generation over one pattern (η={eta}, κ={kappa}, ρ={rho}): {vns} VNs a pass,");
    println!("best of 3 windows of {reps} passes. The FSM and the closed form agree");
    println!("VN by VN by assertion before any timer starts.\n");
    println!("{:<22} {:>12}", "kernel", "M VNs/s");
    let rows = [
        (
            "pattern_counter_fsm",
            rate_of(reps, vns as usize, || {
                black_box(fsm().map(u64::from).sum::<u64>());
            }),
        ),
        (
            "closed_form_vn_at",
            rate_of(reps, vns as usize, || {
                black_box(closed_form().map(u64::from).sum::<u64>());
            }),
        ),
        (
            "reference_vn_table",
            rate_of(reps, vns as usize, || {
                black_box(table().map(u64::from).sum::<u64>());
            }),
        ),
    ];
    for (kernel, rate) in rows {
        println!("{kernel:<22} {:>12.1}", rate / 1e6);
    }
    println!("FSM / table: {:.1}x", rows[0].1 / rows[2].1);

    let entries: Vec<String> = rows
        .iter()
        .map(|(kernel, rate)| format!("    {{\"kernel\":\"{kernel}\",\"vns_per_sec\":{rate:.1}}}"))
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"seculator-bench-vngen-v1\",\n  \"eta\": {eta},\n  \
\"kappa\": {kappa},\n  \"rho\": {rho},\n  \"vns_per_pass\": {vns},\n  \
\"reps\": {reps},\n  \"kernels\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    write_or_die("BENCH_vngen.json", &json);
    println!("\nwrote BENCH_vngen.json");
}

fn throughput(quick: bool, check: bool, metrics: Option<&str>) {
    use seculator_core::secure_infer::Instruments;
    use seculator_core::telemetry;
    use seculator_core::{campaign_models, infer_journaled, infer_protected_mode, BlockCoords};
    use seculator_core::{CryptoDatapath, DatapathMode, DurableState, PadTracker};

    println!("Crypto-datapath throughput: serial (scalar AES + incremental MAC)");
    println!("vs. parallel (T-table lanes + two-compression MAC engine, rayon");
    println!("block fan-out), plus one parallel-mode row per crypto backend");
    println!("this host can execute. Every path is bit-identical by assertion");
    println!("before any timer starts.\n");

    let tile_blocks: usize = if quick { 192 } else { 1536 };
    let seal_reps: u32 = if quick { 2 } else { 6 };
    let infer_reps: u32 = if quick { 1 } else { 3 };
    let threads = rayon::current_num_threads();
    println!(
        "tile: {tile_blocks} × 64 B blocks, {seal_reps} reps; threads: {threads}{}",
        if quick { " (quick mode)" } else { "" }
    );
    println!(
        "\n{:<12} {:>14} {:>14} {:>8} {:>11} {:>11} {:>8}",
        "model", "seal ser MB/s", "seal par MB/s", "speedup", "infer ser", "infer par", "speedup"
    );

    let mut rows = Vec::new();
    for m in campaign_models() {
        // A deterministic tile, seeded per model so each workload hashes
        // distinct content. Coordinates mimic a first-layer ofmap evict.
        let coords: Vec<BlockCoords> = (0..tile_blocks)
            .map(|i| BlockCoords {
                fmap_id: 1,
                layer_id: 0,
                version: 1,
                block_index: i as u32,
            })
            .collect();
        let blocks: Vec<[u8; 64]> = (0..tile_blocks)
            .map(|i| {
                let mut b = [0u8; 64];
                for (j, byte) in b.iter_mut().enumerate() {
                    *byte = (m
                        .session
                        .nonce
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add((i * 64 + j) as u64)
                        >> 32) as u8;
                }
                b
            })
            .collect();

        let serial = CryptoDatapath::with_epoch_mode(
            m.session.secret,
            m.session.nonce,
            0,
            DatapathMode::Serial,
        );
        // The historical serial-vs-parallel pair is pinned to the
        // portable backend so `seal_parallel` keeps meaning what every
        // committed BENCH_throughput.json meant: the T-table software
        // path. Hardware backends get their own rows below.
        let parallel = CryptoDatapath::with_epoch_mode_backend(
            m.session.secret,
            m.session.nonce,
            0,
            DatapathMode::Parallel,
            seculator_crypto::backend::portable(),
        );

        // Warm up table construction, then check bit-identity once before
        // timing anything: same ciphertexts, same per-block MACs.
        let sealed_s = serial.seal_blocks(&coords, &blocks);
        let sealed_p = parallel.seal_blocks(&coords, &blocks);
        assert_eq!(sealed_s, sealed_p, "seal datapaths diverged ({})", m.name);
        let cts: Vec<[u8; 64]> = sealed_s.iter().map(|(ct, _)| *ct).collect();
        let opened_s = serial.open_blocks(&coords, &cts);
        let opened_p = parallel.open_blocks(&coords, &cts);
        assert_eq!(opened_s, opened_p, "open datapaths diverged ({})", m.name);
        assert!(
            opened_s.iter().map(|(pt, _)| pt).eq(blocks.iter()),
            "roundtrip corrupted plaintext ({})",
            m.name
        );

        let seal_serial = rate_of(seal_reps, tile_blocks, || {
            std::hint::black_box(serial.seal_blocks(&coords, &blocks));
        });
        let seal_parallel = rate_of(seal_reps, tile_blocks, || {
            std::hint::black_box(parallel.seal_blocks(&coords, &blocks));
        });
        let open_serial = rate_of(seal_reps, tile_blocks, || {
            std::hint::black_box(serial.open_blocks(&coords, &cts));
        });
        let open_parallel = rate_of(seal_reps, tile_blocks, || {
            std::hint::black_box(parallel.open_blocks(&coords, &cts));
        });

        // One parallel-mode row per backend the host can execute, each
        // proved bit-identical to the serial oracle before its timer
        // starts (the portable row re-measures the pair above through
        // the same code path, keeping the comparison apples-to-apples).
        let mut backends = Vec::new();
        for b in seculator_crypto::backend::available() {
            let dp = CryptoDatapath::with_epoch_mode_backend(
                m.session.secret,
                m.session.nonce,
                0,
                DatapathMode::Parallel,
                b,
            );
            let sealed_b = dp.seal_blocks(&coords, &blocks);
            assert_eq!(
                sealed_s,
                sealed_b,
                "backend {} diverged from the serial oracle on seal ({})",
                b.kind().name(),
                m.name
            );
            let opened_b = dp.open_blocks(&coords, &cts);
            assert_eq!(
                opened_s,
                opened_b,
                "backend {} diverged from the serial oracle on open ({})",
                b.kind().name(),
                m.name
            );
            let seal = rate_of(seal_reps, tile_blocks, || {
                std::hint::black_box(dp.seal_blocks(&coords, &blocks));
            });
            let open = rate_of(seal_reps, tile_blocks, || {
                std::hint::black_box(dp.open_blocks(&coords, &cts));
            });
            backends.push(BackendThroughput {
                backend: b.kind().name(),
                constant_time: b.constant_time(),
                seal,
                open,
            });
        }

        // End-to-end: the exact protected inference the crash campaign
        // runs, in both modes, outputs compared bit-for-bit.
        let run = |mode: DatapathMode| {
            infer_protected_mode(
                &m.layers,
                &m.input,
                m.session.shift,
                m.session.secret,
                m.session.nonce,
                None,
                mode,
            )
            .expect("clean inference verifies")
        };
        let out_s = run(DatapathMode::Serial);
        let out_p = run(DatapathMode::Parallel);
        assert_eq!(out_s, out_p, "inference outputs diverged ({})", m.name);
        let infer_serial_ms = best_ms(infer_reps, || {
            std::hint::black_box(run(DatapathMode::Serial));
        });
        let infer_parallel_ms = best_ms(infer_reps, || {
            std::hint::black_box(run(DatapathMode::Parallel));
        });

        let row = ThroughputRow {
            model: m.name,
            seal_serial,
            seal_parallel,
            open_serial,
            open_parallel,
            infer_serial_ms,
            infer_parallel_ms,
            backends,
        };
        println!(
            "{:<12} {:>14.1} {:>14.1} {:>7.2}x {:>9.2}ms {:>9.2}ms {:>7.2}x",
            row.model,
            row.seal_serial * 64.0 / 1e6,
            row.seal_parallel * 64.0 / 1e6,
            row.seal_speedup(),
            row.infer_serial_ms,
            row.infer_parallel_ms,
            row.infer_speedup()
        );
        for b in &row.backends {
            println!(
                "  └ backend {:<10} {:>12.1} MB/s seal {:>12.1} MB/s open \
{:>6.2}x vs portable-parallel{}",
                b.backend,
                b.seal * 64.0 / 1e6,
                b.open * 64.0 / 1e6,
                b.seal / row.seal_parallel,
                if b.constant_time {
                    "  [constant-time]"
                } else {
                    ""
                }
            );
        }
        rows.push(row);
    }

    // Machine-readable baseline (hand-rolled JSON; every value is a bare
    // number or a fixed ASCII name, so no escaping is needed).
    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            let backend_entries: Vec<String> = r
                .backends
                .iter()
                .map(|b| {
                    format!(
                        "{{\"backend\":\"{}\",\"constant_time\":{},\
\"seal_blocks_per_sec\":{:.1},\"open_blocks_per_sec\":{:.1}}}",
                        b.backend, b.constant_time, b.seal, b.open
                    )
                })
                .collect();
            format!(
                "    {{\"model\":\"{}\",\"seal_serial_blocks_per_sec\":{:.1},\
\"seal_parallel_blocks_per_sec\":{:.1},\"seal_speedup\":{:.3},\
\"open_serial_blocks_per_sec\":{:.1},\"open_parallel_blocks_per_sec\":{:.1},\
\"open_speedup\":{:.3},\"infer_serial_ms\":{:.3},\"infer_parallel_ms\":{:.3},\
\"infer_speedup\":{:.3},\"bit_identical\":true,\"backends\":[{}]}}",
                r.model,
                r.seal_serial,
                r.seal_parallel,
                r.seal_speedup(),
                r.open_serial,
                r.open_parallel,
                r.open_speedup(),
                r.infer_serial_ms,
                r.infer_parallel_ms,
                r.infer_speedup(),
                backend_entries.join(",")
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"seculator-bench-throughput-v1\",\n  \"quick\": {quick},\n  \
\"threads\": {threads},\n  \"tile_blocks\": {tile_blocks},\n  \"models\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    write_or_die("BENCH_throughput.json", &json);
    println!("\nwrote BENCH_throughput.json");

    // Per-layer security-overhead breakdown: one journaled inference per
    // campaign model through the instrumented datapath, attributed by
    // the telemetry stage spans. The throughput table above and
    // BENCH_throughput.json are byte-identical whether or not the
    // `telemetry` feature is compiled in; this section simply has
    // nothing to report when the spans compile to no-ops.
    let breakdown_cursor = telemetry::event_cursor();
    let mut per_model: Vec<(&str, Vec<telemetry::LayerRow>)> = Vec::new();
    for m in campaign_models() {
        let cursor = telemetry::event_cursor();
        let mut durable = DurableState::default();
        let mut tracker = PadTracker::new();
        infer_journaled(
            &m.layers,
            &m.input,
            &m.session,
            &mut durable,
            &mut Instruments {
                tracker: &mut tracker,
                injector: None,
                clock: None,
            },
        )
        .expect("clean journaled inference verifies");
        per_model.push((
            m.name,
            telemetry::layer_breakdown(&telemetry::events_since(cursor)),
        ));
    }
    if telemetry::enabled() {
        println!("\nper-layer security overhead (journaled inference, parallel datapath):");
        println!(
            "{:<12} {:>6} {:>10} {:>10} {:>12} {:>11}",
            "model", "layer", "seal µs", "open µs", "mac fold µs", "journal µs"
        );
        for (name, rows) in &per_model {
            for r in rows {
                println!(
                    "{:<12} {:>6} {:>10.1} {:>10.1} {:>12.1} {:>11.1}",
                    name,
                    r.layer,
                    r.seal_ns as f64 / 1e3,
                    r.open_ns as f64 / 1e3,
                    r.mac_fold_ns as f64 / 1e3,
                    r.journal_ns as f64 / 1e3
                );
            }
        }
    }
    if let Some(path) = metrics {
        let mut snap = telemetry::snapshot();
        // Aggregated across models: same layer index sums together, which
        // keeps the snapshot schema flat and stable.
        snap.layers = telemetry::layer_breakdown(&telemetry::events_since(breakdown_cursor));
        write_or_die(path, &snap.to_json());
        println!("wrote {path}");
    }

    if check {
        let mlp = rows
            .iter()
            .find(|r| r.model == "mlp")
            .expect("campaign includes the mlp model");
        if mlp.seal_parallel < mlp.seal_serial {
            eprintln!(
                "FAIL: parallel seal throughput did not beat serial on mlp \
({:.0} vs {:.0} blocks/s)",
                mlp.seal_parallel, mlp.seal_serial
            );
            std::process::exit(1);
        }
        println!(
            "check: parallel ≥ serial on mlp ({:.2}x) — OK",
            mlp.seal_speedup()
        );
        // When the host has AES-NI + SHA-NI, the hardware backend must
        // clear the paper's bar: ≥5× the portable parallel datapath.
        if seculator_crypto::backend::aesni_available() {
            let hw = mlp
                .backend("aesni")
                .expect("aesni row measured on an AES-NI host");
            let gain = hw.seal / mlp.seal_parallel;
            if gain < 5.0 {
                eprintln!(
                    "FAIL: aesni seal throughput below 5x portable parallel on mlp \
({:.0} vs {:.0} blocks/s, {:.2}x)",
                    hw.seal, mlp.seal_parallel, gain
                );
                std::process::exit(1);
            }
            println!("check: aesni ≥ 5x portable parallel on mlp ({gain:.2}x) — OK");
        }
    }
}

fn serve_exp(quick: bool, check: bool) {
    use seculator_core::{campaign_models, infer_plain, AdmitSpec, SessionManager, SessionVerdict};

    println!("Multi-session scheduler sweep: each point admits N tenant sessions");
    println!("of the same model under a seeded open-loop arrival process (one");
    println!("cumulative splitmix gap per tenant) and one shared weight Arc.");
    println!("Each round steps every running tenant once, in order, on one");
    println!("thread; only the per-block crypto fans out. Aggregate rate");
    println!("counts every CTR pad issued (one pad = one 64 B block sealed or");
    println!("opened); service latency (promotion→done) and scheduler queue");
    println!("delay (arrival→promotion) are separate distributions.\n");

    // splitmix64: the arrival trace must be reproducible per point, so
    // every rep of a point replays the same arrival rounds.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    const ARRIVAL_SEED: u64 = 0x5EC0_1A70;

    let reps: u32 = if quick { 16 } else { 32 };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let threads = rayon::current_num_threads().max(1);
    let models = campaign_models();
    let model = &models[0]; // grouped-cnn: the largest zoo member
    let reference = infer_plain(&model.layers, &model.input, model.session.shift);
    println!(
        "model: {} ({} layers), best of {reps} samples, {cores} cores, {threads} crypto threads\n",
        model.name,
        model.layers.len()
    );
    println!(
        "{:<9} {:>7} {:>8} {:>14} {:>8} {:>8} {:>8} {:>8} {:>9} {:>8}",
        "sessions",
        "rounds",
        "blocks",
        "agg blocks/s",
        "p50 svc",
        "p99 svc",
        "p50 que",
        "p99 que",
        "sched ms",
        "vs 1"
    );

    struct ServeRow {
        sessions: usize,
        rounds: u64,
        blocks: u64,
        wall_ms: f64,
        scheduler_ms: f64,
        p50_service_ms: f64,
        p99_service_ms: f64,
        p50_queue_ms: f64,
        p99_queue_ms: f64,
    }
    let points: [usize; 6] = [1, 2, 4, 8, 16, 64];
    // One weight copy serves every tenant of every manager run — weights
    // are public in the threat model; only per-session state duplicates.
    let weights = std::sync::Arc::new(model.layers.clone());
    let build = |n: usize| {
        // Backpressure cap mirrors the serve campaign so the queue-delay
        // distribution reflects real admission contention, not an
        // artifact of unlimited slots.
        let max_inflight = usize::max(2, n / 2 + 1);
        let mut mgr = SessionManager::new(
            model.session.secret,
            model.session.nonce,
            model.session.shift,
            model.session.policy,
            max_inflight,
        );
        let mut rng = ARRIVAL_SEED ^ n as u64;
        let mut arrival = 0u64;
        for tenant in 0..n as u32 {
            // Open-loop arrivals: cumulative 0/1-round gaps, so bursts
            // of tenants arrive together and contend for admission.
            arrival += mix(&mut rng) % 2;
            mgr.admit(AdmitSpec {
                tenant,
                name: model.name.to_string(),
                layers: std::sync::Arc::clone(&weights),
                input: model.input.clone(),
                arrival_round: arrival,
                injector: None,
                deadline_rounds: None,
                crash_cuts: Vec::new(),
                nonce_salt: 0,
                home_dir: None,
            });
        }
        mgr
    };
    // One sample = one manager run serving all N sessions to completion.
    let sample = |n: usize| {
        let mut mgr = build(n);
        let t0 = std::time::Instant::now();
        let report = mgr.run();
        (t0.elapsed().as_secs_f64() * 1e3, report)
    };

    // One untimed warmup pass per point, then the timed samples rotate
    // across the points so CPU drift over the sweep biases every point
    // equally instead of flattering whichever ran first.
    let mut walls = [f64::INFINITY; 6];
    let mut kept: [Option<seculator_core::ServeReport>; 6] = Default::default();
    for (i, &n) in points.iter().enumerate() {
        kept[i] = Some(sample(n).1);
    }
    for _ in 0..reps {
        for (i, &n) in points.iter().enumerate() {
            let (dt, report) = sample(n);
            if dt < walls[i] {
                walls[i] = dt;
                kept[i] = Some(report);
            }
        }
    }

    let mut rows: Vec<ServeRow> = Vec::new();
    for (i, &n) in points.iter().enumerate() {
        let wall_ms = walls[i];
        let report = kept[i].take().expect("warmup populated every point");

        // Correctness gates before any number is reported: no pad ever
        // issued twice across sessions, and every scheduled session
        // reproduces the single-session plaintext reference exactly.
        assert_eq!(report.pad_collisions, 0, "cross-session pad reuse");
        let blocks = report.pads_issued;
        let rounds = report.rounds;
        let mut svc_ms: Vec<f64> = Vec::new();
        let mut que_ms: Vec<f64> = Vec::new();
        for o in &report.outcomes {
            match &o.verdict {
                SessionVerdict::Completed(_) => assert_eq!(
                    o.output(),
                    Some(&reference),
                    "tenant {} diverged from the reference",
                    o.tenant
                ),
                SessionVerdict::Aborted(e) => {
                    panic!("clean tenant {} aborted: {e:?}", o.tenant)
                }
                SessionVerdict::Quarantined(q) => {
                    panic!("clean tenant {} quarantined: {:?}", o.tenant, q.cause)
                }
            }
            svc_ms.push(o.latency_ns as f64 / 1e6);
            que_ms.push(o.queue_ns as f64 / 1e6);
        }
        let pct = |v: &mut Vec<f64>, p: f64| {
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            v[((v.len() - 1) as f64 * p).round() as usize]
        };
        let row = ServeRow {
            sessions: n,
            rounds,
            blocks,
            wall_ms,
            scheduler_ms: report.scheduler_ns as f64 / 1e6,
            p50_service_ms: pct(&mut svc_ms, 0.50),
            p99_service_ms: pct(&mut svc_ms, 0.99),
            p50_queue_ms: pct(&mut que_ms, 0.50),
            p99_queue_ms: pct(&mut que_ms, 0.99),
        };
        let agg = row.blocks as f64 / (row.wall_ms / 1e3);
        let base = &rows.first().unwrap_or(&row);
        let vs1 = agg / (base.blocks as f64 / (base.wall_ms / 1e3));
        println!(
            "{:<9} {:>7} {:>8} {:>14.0} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>9.2} {:>7.2}x",
            row.sessions,
            row.rounds,
            row.blocks,
            agg,
            row.p50_service_ms,
            row.p99_service_ms,
            row.p50_queue_ms,
            row.p99_queue_ms,
            row.scheduler_ms,
            vs1
        );
        rows.push(row);
    }

    // The `sched ms` column is per-round bookkeeping only (arrivals,
    // sweeps, wakes, admission); tenant layer steps run outside its
    // window, so a rising share means bookkeeping, never compute.
    let sched_pct = |r: &ServeRow| 100.0 * r.scheduler_ms / r.wall_ms;
    if let (Some(first), Some(last)) = (rows.first(), rows.last()) {
        println!(
            "\nscheduler overhead: {:.1}% of wall at {} session(s) → {:.1}% at {}",
            sched_pct(first),
            first.sessions,
            sched_pct(last),
            last.sessions
        );
    }

    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            let agg = r.blocks as f64 / (r.wall_ms / 1e3);
            format!(
                "    {{\"sessions\":{},\"rounds\":{},\"blocks\":{},\
\"wall_ms_best\":{:.3},\"scheduler_ms\":{:.3},\"agg_blocks_per_sec\":{:.0},\
\"p50_service_ms\":{:.3},\"p99_service_ms\":{:.3},\
\"p50_queue_ms\":{:.3},\"p99_queue_ms\":{:.3},\
\"bit_identical\":true,\"pad_collisions\":0}}",
                r.sessions,
                r.rounds,
                r.blocks,
                r.wall_ms,
                r.scheduler_ms,
                agg,
                r.p50_service_ms,
                r.p99_service_ms,
                r.p50_queue_ms,
                r.p99_queue_ms
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"seculator-bench-serve-v2\",\n  \"quick\": {quick},\n  \
\"model\": \"{}\",\n  \"reps\": {reps},\n  \"cores\": {cores},\n  \
\"threads\": {threads},\n  \"points\": [\n{}\n  ]\n}}\n",
        model.name,
        entries.join(",\n")
    );
    write_or_die("BENCH_serve.json", &json);
    println!("\nwrote BENCH_serve.json");

    if check {
        // Correctness gates (bit-identity, zero collisions) already ran
        // as hard asserts above on every point. The scaling gate binds
        // on every host: more tenants may not cost aggregate throughput,
        // and the scheduler's own bookkeeping may not grow into a
        // visible share of wall time.
        let agg = |r: &ServeRow| r.blocks as f64 / (r.wall_ms / 1e3);
        let base = agg(&rows[0]);
        let mut failed = false;
        for r in &rows[1..] {
            let ratio = agg(r) / base;
            if ratio < 0.95 {
                eprintln!(
                    "FAIL: {} sessions aggregate only {ratio:.2}x the 1-session rate \
(need ≥0.95x)",
                    r.sessions
                );
                failed = true;
            }
        }
        let last = rows.last().expect("the sweep has points");
        if sched_pct(last) > 10.0 {
            eprintln!(
                "FAIL: scheduler bookkeeping is {:.1}% of wall at {} sessions (need ≤10%)",
                sched_pct(last),
                last.sessions
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "check: every point ≥0.95x the 1-session rate, scheduler {:.1}% of wall at {} \
sessions (≤10%) — OK",
            sched_pct(last),
            last.sessions
        );
    }
}

fn daemon_exp(quick: bool, check: bool) {
    use seculator_client::{run_daemon_campaign, DaemonCampaignConfig};
    use seculator_core::{run_serve_campaign, ServeCampaignConfig};

    println!("Closed-loop daemon load test over the deterministic loopback wire:");
    println!("every client is a real `seculator-client` speaking SWP1 frames");
    println!("(encode → CRC32 → decode) to a `seculatord` engine whose scheduler");
    println!("interleaving is a pure function of the seed. The conformance phase");
    println!("proves the wire answers bit-identical to the same-seed serve");
    println!("campaign and solo journaled runs; the load phase then measures");
    println!("sustained request throughput across every clean tenant.\n");

    const DAEMON_SEED: u64 = 0xD43A_10AD;
    let sessions: u32 = if quick { 9 } else { 17 };
    let load_requests: u32 = if quick { 2 } else { 6 };
    let clients = sessions - 1; // every tenant but the planted tampered one

    let report = run_daemon_campaign(&DaemonCampaignConfig {
        seed: DAEMON_SEED,
        sessions,
        home_root: None,
        load_requests,
    });
    assert!(
        report.passed(),
        "daemon campaign failed:\n{}",
        report.summary()
    );

    // Same-seed anchor: the serve campaign checks its tenants against
    // the identical solo journaled references, so daemon ≡ serve by
    // transitivity through those references.
    let anchor = run_serve_campaign(&ServeCampaignConfig {
        seed: DAEMON_SEED,
        sessions,
    });
    assert!(
        anchor.passed(),
        "same-seed serve campaign failed:\n{}",
        anchor.summary()
    );

    // Deterministic stdout only — wall-clock numbers go to the JSON so
    // CI can diff two --quick runs byte-for-byte.
    println!("{}", report.summary().trim_end());
    println!(
        "bit-identical to the same-seed serve campaign ({} tenants, {} pads, 0 collisions)",
        sessions, anchor.pads_issued
    );
    println!(
        "load phase: {} clean clients × {} requests = {} served over the wire",
        clients, load_requests, report.load_served
    );

    let mut lat_ms: Vec<f64> = report
        .latencies_ns
        .iter()
        .map(|&n| n as f64 / 1e6)
        .collect();
    let pct = |v: &mut Vec<f64>, p: f64| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        v[((v.len() - 1) as f64 * p).round() as usize]
    };
    let p50_ms = pct(&mut lat_ms, 0.50);
    let p99_ms = pct(&mut lat_ms, 0.99);
    let rps = report.load_served as f64 / (report.load_wall_ns as f64 / 1e9);
    let json = format!(
        "{{\n  \"schema\": \"seculator-bench-daemon-v1\",\n  \"quick\": {quick},\n  \
\"seed\": {DAEMON_SEED},\n  \"sessions\": {sessions},\n  \"clients\": {clients},\n  \
\"load_requests_per_client\": {load_requests},\n  \"load_served\": {},\n  \
\"sustained_rps\": {rps:.1},\n  \"p50_ms\": {p50_ms:.3},\n  \"p99_ms\": {p99_ms:.3},\n  \
\"pads_issued\": {},\n  \"pad_collisions\": {},\n  \"auth_probe_rejected\": {},\n  \
\"drain_ok\": {},\n  \"bit_identical\": true\n}}\n",
        report.load_served,
        report.pads_issued,
        report.pad_collisions,
        report.auth_probe_rejected,
        report.drain_ok
    );
    write_or_die("BENCH_daemon.json", &json);
    println!("\nwrote BENCH_daemon.json");

    if check {
        // Bit-identity and oracle gates already ran as hard asserts; the
        // check gate adds the ISSUE's load floor.
        if clients < 8 {
            eprintln!("FAIL: only {clients} concurrent clean clients (need ≥8)");
            std::process::exit(1);
        }
        if report.pad_collisions != 0 {
            eprintln!(
                "FAIL: {} pad collisions across the daemon lifetime",
                report.pad_collisions
            );
            std::process::exit(1);
        }
        println!("check: {clients} concurrent clients, zero pad collisions — OK");
    }
}

fn ablate_maccache() {
    println!("Ablation: MAC-cache size for the Secure design (paper §4.1.1's point:");
    println!("caches barely help streaming DNN data — miss rate floors at 1/8).\n");
    let net = zoo::resnet18();
    println!(
        "{:<12} {:>14} {:>14}",
        "cache size", "miss rate", "norm. perf"
    );
    for kb in [2u64, 4, 8, 16, 32, 64, 128] {
        let cfg = NpuConfig {
            mac_cache_bytes: kb * 1024,
            ..NpuConfig::paper()
        };
        let npu = TimingNpu::new(cfg);
        let base = npu
            .run(&net, SchemeKind::Baseline)
            .expect("maps")
            .total_cycles();
        let run = npu.run(&net, SchemeKind::Secure).expect("maps");
        println!(
            "{:>9} KB {:>13.1}% {:>14.3}",
            kb,
            100.0 * run.mac_cache.expect("has cache").miss_rate(),
            base as f64 / run.total_cycles() as f64
        );
    }
}

fn ablate_blocksize() {
    println!("Ablation: GuardNN MAC granularity 64 B vs 512 B (the paper argues 512 B");
    println!("blocks constrain the next layer's read order and are impractical; here");
    println!("we show the traffic trade-off that motivates the temptation).\n");
    let net = zoo::resnet18();
    let npu = TimingNpu::new(NpuConfig::paper());
    let runs = npu
        .compare_schemes(&net, &[SchemeKind::Baseline, SchemeKind::GuardNn])
        .expect("maps");
    let meta64 = runs[1].dram_totals();
    // 512-byte MAC granularity = 1 MAC per 8 blocks: metadata shrinks 8x
    // but every consumer must read in 512-byte order (a functional
    // restriction on the next layer's dataflow, not a slowdown).
    println!(
        "{:<18} {:>16} {:>16}",
        "granularity", "meta read bytes", "meta write bytes"
    );
    println!(
        "{:<18} {:>16} {:>16}",
        "64 B (GuardNN)", meta64.meta_read_bytes, meta64.meta_write_bytes
    );
    println!(
        "{:<18} {:>16} {:>16}",
        "512 B (variant)",
        meta64.meta_read_bytes / 8,
        meta64.meta_write_bytes / 8
    );
    println!(
        "\nSeculator gets the 512-B variant's traffic savings (and more) *without*\n\
         the read-order restriction, because its per-layer MACs are order-independent."
    );
}
