//! `seculator` — command-line front end for the reproduction.
//!
//! ```sh
//! seculator run --network vgg16 --scheme seculator
//! seculator compare --network resnet
//! seculator patterns --k 32 --c 16 --hw 32
//! seculator attack
//! seculator fault-campaign --seed 42 --faults 26
//! seculator storage --network mobilenet
//! ```

use seculator::arch::dataflow::{ConvDataflow, Dataflow};
use seculator::arch::layer::{ConvShape, LayerDesc, LayerKind};
use seculator::arch::tiling::TileConfig;
use seculator::arch::trace::LayerSchedule;
use seculator::campaigns::{
    defaults, run_chaos_campaign, run_crash_campaign, run_daemon_campaign, run_fault_campaign,
    run_restart_campaign, run_serve_campaign, Report,
};
use seculator::client::{Client, ClientError};
use seculator::core::secure_infer::Instruments;
use seculator::core::storage::table7_rows;
use seculator::core::telemetry;
use seculator::core::{
    atomic_write, campaign_models, infer_journaled, output_digest, run_persistent, Attack,
    CrashClock, DurableError, DurableState, FunctionalNpu, PadTracker, PersistentStats, SchemeKind,
    StdVfs, TimingNpu,
};
use seculator::crypto::DeviceSecret;
use seculator::models::{zoo, Network};
use seculator::sim::config::NpuConfig;
use seculator::wire::{
    wire_identity, Daemon, DaemonConfig, NetEvent, RequestState, ServerTransport,
    TcpServerTransport, TcpWire,
};

/// The usage text. Its lines sit at column 0 of the source, because a
/// `\` line continuation would strip their indentation too.
const USAGE: &str = "\
usage: seculator <command> [options]

commands:
  run      --network <name> --scheme <name>   simulate one inference
  compare  --network <name>                   all designs side by side
  patterns [--k N --c N --hw N]               derive VN patterns
  attack                                      functional attack demo
  fault-campaign [--seed N --faults K --clean J]
                                              seeded fault-injection sweep
  crash-campaign [--seed N --cuts K]          seeded power-loss + resume sweep
  serve-campaign [--seed N --sessions K]      multi-session scheduler + isolation sweep
  chaos-campaign [--seed N --sessions K]      faults × power cuts across concurrent tenants
  restart-campaign [--seed N --cuts K --proc-cuts J]
                                              on-disk persistence sweep: in-process VFS faults
                                              plus real kill -9 process restarts
  daemon   --listen ADDR [--port-file P] [--seed N] [--home DIR]
           [--max-requests K]                 serve the SWP1 wire protocol over TCP
  daemon   --loopback [--seed N --sessions K --requests R --home DIR]
                                              deterministic in-process conformance campaign
  submit   --connect HOST:PORT [--seed N --tenant T --model NAME
           --request R]                       submit one inference over the wire and wait
  storage  --network <name>                   Table 7 metadata footprints
  describe --network <name>                   per-layer mapped loop nests
  stats    [--format json|prom]               telemetry snapshot of a fixed workload

global options:
  --threads <N>    worker threads for the parallel crypto datapath
                   (default: all cores; also honors RAYON_NUM_THREADS;
                   an explicit flag always wins or the run fails)
  --backend <b>    crypto backend: auto | portable | bitsliced | aesni
                   (default: auto = AES-NI/SHA-NI when the CPU has them,
                   portable otherwise; also honors SECULATOR_BACKEND;
                   a backend the host cannot run is an error, exit 2)
  --metrics <path> write the telemetry snapshot JSON there after the run

networks: mobilenet resnet alexnet vgg16 vgg19 tiny
schemes:  baseline secure tnpu guardnn seculator seculator+";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// The options of each command, as the usage text lists them. `daemon
/// --loopback` is the daemon's second form; `restart-worker` is the
/// child the restart campaign's process phase spawns. `--loopback` is
/// the one option that takes no value.
const COMMAND_OPTIONS: &[(&str, &str)] = &[
    ("run", "--network --scheme"),
    ("compare", "--network"),
    ("patterns", "--k --c --hw"),
    ("attack", ""),
    ("fault-campaign", "--seed --faults --clean"),
    ("crash-campaign", "--seed --cuts"),
    ("serve-campaign", "--seed --sessions"),
    ("chaos-campaign", "--seed --sessions"),
    ("restart-campaign", "--seed --cuts --proc-cuts"),
    (
        "daemon",
        "--listen --port-file --seed --home --max-requests",
    ),
    (
        "daemon --loopback",
        "--loopback --seed --sessions --requests --home",
    ),
    ("submit", "--connect --seed --tenant --model --request"),
    ("restart-worker", "--model --home --cut"),
    ("storage", "--network"),
    ("describe", "--network"),
    ("stats", "--format"),
];

/// Options every command takes.
const GLOBAL_OPTIONS: [&str; 3] = ["--threads", "--backend", "--metrics"];

/// Checks `args` (the command first) against [`COMMAND_OPTIONS`] before
/// anything runs: an unknown command, an option the command does not
/// take, an option given twice, and a value-taking option without its
/// value are usage errors (exit 2). [`opt`] reads the first occurrence
/// and cannot tell a trailing flag from an absent one, so each of these
/// would otherwise run something other than what was asked.
fn check_options(args: &[String]) {
    let form = match args[0].as_str() {
        "daemon" if args.iter().any(|a| a == "--loopback") => "daemon --loopback",
        cmd => cmd,
    };
    let Some((_, options)) = COMMAND_OPTIONS.iter().find(|(c, _)| *c == form) else {
        usage()
    };
    let mut rest = args[1..].iter().map(String::as_str);
    let mut seen = Vec::new();
    while let Some(arg) = rest.next() {
        if !options
            .split_whitespace()
            .chain(GLOBAL_OPTIONS)
            .any(|o| o == arg)
        {
            eprintln!("`{form}` does not take `{arg}`");
            usage()
        }
        if seen.contains(&arg) {
            eprintln!("`{arg}` is given more than once");
            usage()
        }
        seen.push(arg);
        if arg != "--loopback" && rest.next().is_none_or(|v| v.starts_with("--")) {
            eprintln!("{arg} needs a value");
            usage()
        }
    }
}

fn opt(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Parses a numeric `--name N` option as a `T` (`u32` or `u64`). An
/// *absent* option takes the default; a malformed or out-of-range value
/// is a usage error (exit 2) — the campaign exit-code contract reserves
/// 1 for detection misses, so a typo must never be swallowed, and a
/// `u32` option must never be truncated, into a passing run.
fn num_opt<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    match opt(args, name) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!(
                "invalid value for {name}: `{v}` (expected a {})",
                std::any::type_name::<T>()
            );
            usage()
        }),
    }
}

/// A size option that leaves a campaign nothing to run is a usage error:
/// exit 2 before anything runs, never a vacuous verdict.
fn require_work(has_work: bool, what: &str) {
    if !has_work {
        eprintln!("nothing to run: {what}");
        usage()
    }
}

fn network(name: &str) -> Network {
    match name {
        "mobilenet" => zoo::mobilenet(),
        "resnet" => zoo::resnet18(),
        "alexnet" => zoo::alexnet(),
        "vgg16" => zoo::vgg16(),
        "vgg19" => zoo::vgg19(),
        "tiny" => zoo::tiny_cnn(),
        other => {
            eprintln!("unknown network `{other}`");
            usage()
        }
    }
}

fn scheme(name: &str) -> SchemeKind {
    match name {
        "baseline" => SchemeKind::Baseline,
        "secure" => SchemeKind::Secure,
        "tnpu" => SchemeKind::Tnpu,
        "guardnn" => SchemeKind::GuardNn,
        "seculator" => SchemeKind::Seculator,
        "seculator+" => SchemeKind::SeculatorPlus,
        other => {
            eprintln!("unknown scheme `{other}`");
            usage()
        }
    }
}

/// Applies the global `--threads` option: an explicit worker count for
/// the parallel crypto datapath. Shares the 0/1/2 exit-code contract —
/// `--threads 0` or a non-number is a usage error (exit 2), never a
/// silent fallback to the default.
fn configure_threads(args: &[String]) {
    if let Some(v) = opt(args, "--threads") {
        let n: usize = match v.parse() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("invalid value for --threads: `{v}` (expected an integer >= 1)");
                usage()
            }
        };
        // An explicit flag must take effect or fail the run: if the pool
        // was already frozen at a *different* count (e.g. a library
        // initialized it first), silently keeping the old count would
        // make `--threads` a lie. Agreeing re-initialization is Ok.
        if rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .is_err()
        {
            eprintln!(
                "--threads {n} rejected: the thread pool was already \
                 initialized with a different count ({})",
                rayon::current_num_threads()
            );
            std::process::exit(2);
        }
    }
}

/// Applies the global `--backend` option (or, absent the flag, the
/// `SECULATOR_BACKEND` environment variable): pins the crypto backend
/// every datapath in this process dispatches to. Shares the exit-code
/// contract of `--threads` — an unknown name or a backend this host
/// cannot execute (e.g. `aesni` without the CPU features) is exit 2
/// with a diagnostic, never a silent fallback.
fn configure_backend(args: &[String]) {
    use seculator::crypto::backend::{self, BackendChoice};
    let (source, value) = match opt(args, "--backend") {
        Some(v) => ("--backend", v),
        None => match std::env::var("SECULATOR_BACKEND") {
            Ok(v) if !v.is_empty() => ("SECULATOR_BACKEND", v),
            _ => return,
        },
    };
    let Some(choice) = BackendChoice::parse(&value) else {
        eprintln!(
            "invalid value for {source}: `{value}` \
             (expected auto, portable, bitsliced, or aesni)"
        );
        usage()
    };
    let resolved = match choice.resolve() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{source} {value} rejected: {e}");
            std::process::exit(2);
        }
    };
    // An explicit backend must take effect or fail the run, mirroring
    // the `--threads` contract: if some library froze the default first
    // with a different kind, keeping it would make the flag a lie.
    if !backend::set_default_backend(resolved) {
        eprintln!(
            "{source} {value} rejected: the crypto backend was already \
             initialized as `{}`",
            backend::default_backend().kind().name()
        );
        std::process::exit(2);
    }
}

/// Writes the telemetry snapshot to the global `--metrics` path, if one
/// was given, with `rows` as its `layers` array. Called on every exit
/// path that follows a completed run, so campaign failures (exit 1)
/// still leave their counters behind.
fn write_metrics(path: Option<&str>, rows: &[telemetry::LayerRow]) {
    let Some(path) = path else { return };
    let mut snap = telemetry::snapshot();
    snap.layers = rows.to_vec();
    let json = snap.to_json();
    // Atomic (temp + fsync + rename): a crash mid-write must never leave
    // a torn half-JSON where a dashboard expects a snapshot.
    if let Err(e) = atomic_write(std::path::Path::new(path), json.as_bytes()) {
        eprintln!("cannot write --metrics file `{path}`: {e}");
        std::process::exit(2);
    }
}

/// The one exit path every campaign shares: print the header, run the
/// campaign, print its report, write `--metrics` (with the per-session
/// rows when the campaign has them), and exit 1 unless every oracle
/// held.
fn campaign<R: Report>(header: &str, metrics_path: Option<&str>, run: impl FnOnce() -> R) -> ! {
    println!("{header}\n");
    let report = run();
    println!("{}", report.summary());
    write_metrics(metrics_path, report.session_rows());
    std::process::exit(if report.passed() { 0 } else { 1 })
}

/// The `stats` workload: one journaled inference per campaign model,
/// plus one clean functional-NPU run (the VN generator only runs on the
/// functional path). Small, deterministic, and it exercises every
/// instrumented stage — seal/open batches, MAC folds, VN advances,
/// journal appends, epoch bumps — so the snapshot is representative
/// without being a benchmark. Returns the journaled runs' stage-time
/// rows, summed per layer id across the models.
fn stats_workload() -> Vec<telemetry::LayerRow> {
    let mut rows = Vec::new();
    for model in campaign_models() {
        let mut durable = DurableState::default();
        let mut tracker = PadTracker::new();
        let run = infer_journaled(
            &model.layers,
            &model.input,
            &model.session,
            &mut durable,
            &mut Instruments {
                tracker: &mut tracker,
                injector: None,
                clock: None,
            },
        )
        .expect("the fixed stats workload runs cleanly");
        rows.extend(run.layer_rows);
    }
    let layers = [
        LayerDesc::new(0, LayerKind::Conv(ConvShape::simple(8, 4, 16, 3))),
        LayerDesc::new(1, LayerKind::Conv(ConvShape::simple(4, 8, 16, 3))),
    ];
    let tiling = TileConfig {
        kt: 4,
        ct: 2,
        ht: 8,
        wt: 8,
    };
    let schedules: Vec<LayerSchedule> = layers
        .iter()
        .map(|l| {
            LayerSchedule::new(
                *l,
                Dataflow::Conv(ConvDataflow::IrMultiChannelAlongChannel),
                tiling,
            )
            .expect("static shapes resolve")
        })
        .collect();
    let mut fnpu = FunctionalNpu::new(DeviceSecret::from_seed(1), 1);
    fnpu.run(&schedules)
        .expect("the clean functional run verifies");
    telemetry::sum_by_layer(&rows)
}

/// One process life of the durable engine: open (or resume) the on-disk
/// home, run to completion or to the armed cut, and report over stdout.
///
/// Exit contract (consumed by the restart campaign's process phase):
/// - exit 0 — inference complete; `digest=`/`epoch=`/`resumed=`/... lines
///   on stdout (plus `steps=` under `--cut count`)
/// - death by SIGKILL — the armed [`CrashClock`] fired; the worker
///   delivers the signal to *itself* so no destructor or flush runs,
///   exactly like a real crash
/// - exit 3 — typed security refusal; `security=<class>` on stdout
/// - exit 4 — recovery ladder aborted
/// - exit 5 — I/O error
fn restart_worker(args: &[String]) -> ! {
    let Some(model_name) = opt(args, "--model") else {
        usage()
    };
    let Some(home) = opt(args, "--home") else {
        usage()
    };
    let cut_arg = opt(args, "--cut").unwrap_or_else(|| "none".into());
    let models = campaign_models();
    let Some(model) = models.iter().find(|m| m.name == model_name) else {
        eprintln!("unknown model `{model_name}`");
        usage()
    };
    let mut vfs = match StdVfs::create(&home) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("io: cannot open home `{home}`: {e}");
            std::process::exit(5);
        }
    };
    let mut clock = match cut_arg.as_str() {
        "none" => None,
        "count" => Some(CrashClock::counting()),
        v => match v.parse() {
            Ok(n) => Some(CrashClock::armed(n)),
            Err(_) => {
                eprintln!("invalid value for --cut: `{v}` (expected a step, `count`, or `none`)");
                usage()
            }
        },
    };
    let mut stats = PersistentStats::default();
    let res = run_persistent(
        &model.layers,
        &model.input,
        &model.session,
        &mut vfs,
        clock.as_mut(),
        &mut stats,
    );
    match res {
        Ok(out) => {
            println!("digest={:016x}", output_digest(&out.run.output));
            println!("epoch={}", out.run.epoch);
            println!("resumed={}", out.resumed);
            println!("prior_records={}", out.prior_records);
            println!("commits={}", out.run.commits);
            println!("torn_tail_repaired={}", out.torn_tail_repaired);
            println!("dram_discarded={}", out.dram_discarded);
            println!("fsyncs={}", stats.fsyncs);
            println!("snapshots_compacted={}", stats.snapshots_compacted);
            println!("torn_tails_repaired={}", stats.torn_tails_repaired);
            println!("restart_resumes={}", stats.restart_resumes);
            if cut_arg == "count" {
                if let Some(c) = &clock {
                    println!("steps={}", c.steps());
                }
            }
            std::process::exit(0);
        }
        Err(DurableError::Crashed(_)) => {
            // The seeded instant arrived. Die for real: SIGKILL cannot
            // be caught, so nothing below this line — no Drop impls, no
            // buffered-writer flushes — gets to tidy the on-disk state.
            let pid = std::process::id().to_string();
            let _ = std::process::Command::new("/bin/kill")
                .args(["-9", &pid])
                .status();
            // If /bin/kill is missing the abort still dies by signal
            // (SIGABRT), which the parent also counts as a kill.
            std::process::abort();
        }
        Err(e @ DurableError::Security(_)) => {
            println!("security={}", e.class());
            std::process::exit(3);
        }
        Err(e @ DurableError::Aborted(_)) => {
            eprintln!("aborted: {e}");
            std::process::exit(4);
        }
        Err(e @ DurableError::Io(_)) => {
            eprintln!("io: {e}");
            std::process::exit(5);
        }
    }
}

/// The TCP serving loop: poll the listener, feed events to the engine,
/// tick the scheduler, and exit once drained (or once `--max-requests`
/// requests have been served — the bounded mode the CLI tests use).
fn run_tcp_daemon(
    listen: &str,
    port_file: Option<&str>,
    seed: u64,
    home_root: Option<std::path::PathBuf>,
    max_requests: u64,
) {
    let mut transport = match TcpServerTransport::bind(listen) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot listen on `{listen}`: {e}");
            std::process::exit(2);
        }
    };
    let addr = match transport.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cannot resolve the bound address: {e}");
            std::process::exit(2);
        }
    };
    println!("seculatord listening on {addr} (seed {seed})");
    if let Some(pf) = port_file {
        // Atomic so a watching test never reads a torn address.
        if let Err(e) = atomic_write(std::path::Path::new(pf), addr.to_string().as_bytes()) {
            eprintln!("cannot write --port-file `{pf}`: {e}");
            std::process::exit(2);
        }
    }
    let mut daemon = Daemon::new(&DaemonConfig {
        home_root,
        ..DaemonConfig::new(seed)
    });
    loop {
        let events = match transport.poll() {
            Ok(ev) => ev,
            Err(e) => {
                eprintln!("listener failed: {e}");
                std::process::exit(2);
            }
        };
        let quiet = events.is_empty();
        for ev in events {
            match ev {
                NetEvent::Accepted(id) => daemon.on_connect(id),
                NetEvent::Frame(id, msg) => {
                    let reply = daemon.on_message(id, msg);
                    for m in &reply.msgs {
                        // A peer that died mid-reply surfaces on the
                        // next poll; nothing to do here.
                        let _ = transport.send(id, m);
                    }
                    if reply.close {
                        transport.close(id);
                        daemon.on_disconnect(id);
                    }
                }
                NetEvent::Closed(id, _) => daemon.on_disconnect(id),
            }
        }
        let busy = daemon.tick();
        if daemon.draining() && !busy {
            println!("seculatord drained; exiting");
            break;
        }
        if max_requests > 0
            && daemon.stats().requests_served >= max_requests
            && !busy
            && daemon.open_connections() == 0
        {
            break;
        }
        if quiet && !busy {
            transport.idle_wait();
        }
    }
    let s = daemon.stats();
    println!(
        "seculatord served {} requests over {} connections ({} auth failures, {} drain flushes)",
        s.requests_served, s.connections_accepted, s.auth_failures, s.drain_flushes
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    check_options(&args);
    configure_threads(&args);
    configure_backend(&args);
    let metrics_path = opt(&args, "--metrics");
    let npu = TimingNpu::new(NpuConfig::paper());

    match cmd.as_str() {
        "run" => {
            let net = network(&opt(&args, "--network").unwrap_or_else(|| "resnet".into()));
            let sch = scheme(&opt(&args, "--scheme").unwrap_or_else(|| "seculator".into()));
            let stats = npu.run(&net, sch)?;
            let cfg = NpuConfig::paper();
            println!("workload : {net}");
            println!("scheme   : {}", stats.scheme);
            println!("cycles   : {}", stats.total_cycles());
            println!(
                "time     : {:.3} ms @ {} GHz",
                1e3 * cfg.cycles_to_seconds(stats.total_cycles()),
                cfg.frequency_ghz
            );
            println!(
                "dram     : {:.1} MB ({:.1}% metadata)",
                stats.total_dram_bytes() as f64 / 1e6,
                100.0 * stats.dram_totals().metadata_fraction()
            );
            if let Some(mc) = stats.mac_cache {
                println!("mac cache: {:.1}% miss", 100.0 * mc.miss_rate());
            }
            if let Some(cc) = stats.counter_cache {
                println!("ctr cache: {:.2}% miss", 100.0 * cc.miss_rate());
            }
        }
        "compare" => {
            let net = network(&opt(&args, "--network").unwrap_or_else(|| "resnet".into()));
            let runs = npu.compare_schemes(&net, &SchemeKind::ALL[..5])?;
            let base = runs[0].clone();
            println!("workload: {net}\n");
            println!("{:<12} {:>10} {:>10}", "scheme", "perf", "traffic");
            for r in &runs {
                println!(
                    "{:<12} {:>10.3} {:>10.3}",
                    r.scheme,
                    r.performance_vs(&base),
                    r.traffic_vs(&base)
                );
            }
        }
        "patterns" => {
            let (k, c, hw) = (
                num_opt(&args, "--k", 32u32),
                num_opt(&args, "--c", 16u32),
                num_opt(&args, "--hw", 32u32),
            );
            for (name, v) in [("--k", k), ("--c", c), ("--hw", hw)] {
                if v == 0 {
                    eprintln!("invalid value for {name}: `0` (a layer dimension must be >= 1)");
                    usage()
                }
            }
            let layer = LayerDesc::new(0, LayerKind::Conv(ConvShape::simple(k, c, hw, 3)));
            let tiling = TileConfig {
                kt: (k / 4).max(1),
                ct: (c / 4).max(1),
                ht: (hw / 2).max(1),
                wt: (hw / 2).max(1),
            };
            println!("K={k} C={c} H=W={hw}\n");
            for df in ConvDataflow::ALL {
                let s = LayerSchedule::new(layer, Dataflow::Conv(df), tiling)?;
                let wp = s.write_pattern();
                println!(
                    "{} — WP {}   [{}]",
                    df.style_name(),
                    wp.notation(),
                    wp.family()
                );
                println!("{}\n", wp.ascii_plot(48));
            }
        }
        "attack" => {
            let layers = [
                LayerDesc::new(0, LayerKind::Conv(ConvShape::simple(8, 4, 16, 3))),
                LayerDesc::new(1, LayerKind::Conv(ConvShape::simple(4, 8, 16, 3))),
            ];
            let tiling = TileConfig {
                kt: 4,
                ct: 2,
                ht: 8,
                wt: 8,
            };
            let schedules: Vec<LayerSchedule> = layers
                .iter()
                .map(|l| {
                    LayerSchedule::new(
                        *l,
                        Dataflow::Conv(ConvDataflow::IrMultiChannelAlongChannel),
                        tiling,
                    )
                    .expect("static shapes resolve")
                })
                .collect();
            for (name, attack) in [
                (
                    "tamper",
                    Attack::TamperOfmap {
                        layer_id: 0,
                        block_index: 1,
                    },
                ),
                (
                    "replay",
                    Attack::ReplayOfmap {
                        layer_id: 0,
                        block_index: 2,
                    },
                ),
                (
                    "swap",
                    Attack::SwapOfmapBlocks {
                        layer_id: 0,
                        a: 0,
                        b: 3,
                    },
                ),
            ] {
                let mut fnpu = FunctionalNpu::new(DeviceSecret::from_seed(1), 1);
                fnpu.inject(attack);
                match fnpu.run(&schedules) {
                    Ok(_) => println!("{name:<8} NOT DETECTED (violation!)"),
                    Err(e) => println!("{name:<8} detected: {e}"),
                }
            }
        }
        "fault-campaign" => {
            let seed = num_opt(&args, "--seed", defaults::SEED);
            let faults = num_opt(&args, "--faults", defaults::FAULTS);
            let clean = num_opt(&args, "--clean", defaults::CLEAN);
            require_work(faults > 0 || clean > 0, "--faults 0 --clean 0");
            campaign(
                &format!(
                    "fault campaign: seed {seed} / {faults} fault trials / {clean} clean controls"
                ),
                metrics_path.as_deref(),
                || run_fault_campaign(seed, faults, clean),
            )
        }
        "crash-campaign" => {
            let seed = num_opt(&args, "--seed", defaults::SEED);
            let cuts = num_opt(&args, "--cuts", defaults::CRASH_CUTS);
            require_work(cuts > 0, "--cuts 0");
            campaign(
                &format!("crash campaign: seed {seed} / {cuts} cuts per model"),
                metrics_path.as_deref(),
                || run_crash_campaign(seed, cuts),
            )
        }
        "serve-campaign" => {
            let seed = num_opt(&args, "--seed", defaults::SEED);
            let sessions = num_opt(&args, "--sessions", defaults::SESSIONS);
            require_work(sessions > 0, "--sessions 0");
            campaign(
                &format!("serve campaign: seed {seed} / {sessions} sessions"),
                metrics_path.as_deref(),
                || run_serve_campaign(seed, sessions),
            )
        }
        "chaos-campaign" => {
            let seed = num_opt(&args, "--seed", defaults::SEED);
            let sessions = num_opt(&args, "--sessions", defaults::CHAOS_SESSIONS);
            require_work(sessions > 0, "--sessions 0");
            campaign(
                &format!("chaos campaign: seed {seed} / {sessions} sessions"),
                metrics_path.as_deref(),
                || run_chaos_campaign(seed, sessions),
            )
        }
        "restart-campaign" => {
            // Phase A runs in-process behind the fault-injecting VFS;
            // phase B kills real child processes with SIGKILL.
            // `--proc-cuts 0` skips phase B (fast VFS-only sweeps).
            let seed = num_opt(&args, "--seed", defaults::SEED);
            let cuts = num_opt(&args, "--cuts", defaults::RESTART_CUTS);
            let proc_cuts = num_opt(&args, "--proc-cuts", defaults::PROC_CUTS);
            require_work(cuts > 0, "--cuts 0");
            campaign(
                &format!(
                    "restart campaign: seed {seed} / {cuts} vfs cuts + {proc_cuts} process cuts per model"
                ),
                metrics_path.as_deref(),
                || run_restart_campaign(seed, cuts, proc_cuts),
            )
        }
        "daemon" => {
            let seed = num_opt(&args, "--seed", defaults::SEED);
            let home_root = opt(&args, "--home").map(std::path::PathBuf::from);
            if args.iter().any(|a| a == "--loopback") {
                let sessions = num_opt(&args, "--sessions", defaults::SESSIONS);
                let requests = num_opt(&args, "--requests", defaults::LOAD_REQUESTS);
                require_work(sessions > 0, "--sessions 0");
                campaign(
                    &format!(
                        "daemon loopback campaign: seed {seed} / {sessions} sessions / {requests} load requests"
                    ),
                    metrics_path.as_deref(),
                    || run_daemon_campaign(seed, sessions, home_root.as_deref(), requests),
                )
            }
            let Some(listen) = opt(&args, "--listen") else {
                eprintln!("daemon needs --listen ADDR or --loopback");
                usage()
            };
            run_tcp_daemon(
                &listen,
                opt(&args, "--port-file").as_deref(),
                seed,
                home_root,
                num_opt(&args, "--max-requests", 0),
            );
            write_metrics(metrics_path.as_deref(), &[]);
            return Ok(());
        }
        "submit" => {
            let Some(connect) = opt(&args, "--connect") else {
                eprintln!("submit needs --connect HOST:PORT");
                usage()
            };
            let seed = num_opt(&args, "--seed", defaults::SEED);
            let tenant = num_opt(&args, "--tenant", 0u32);
            let model_name = opt(&args, "--model").unwrap_or_else(|| "grouped-cnn".into());
            let request = num_opt(&args, "--request", 0);
            let models = campaign_models();
            let Some(model) = models.iter().find(|m| m.name == model_name) else {
                eprintln!(
                    "unknown model `{model_name}` (daemon models: grouped-cnn strided-cnn mlp)"
                );
                usage()
            };
            let wire = match TcpWire::connect(&connect) {
                Ok(w) => w,
                Err(e) => {
                    eprintln!("cannot connect to `{connect}`: {e}");
                    std::process::exit(2);
                }
            };
            let mut client = Client::new(wire, tenant);
            let (root, _) = wire_identity(seed);
            match client.authenticate(&root.derive_tenant(tenant), seed ^ u64::from(tenant)) {
                Ok(()) => {}
                Err(ClientError::AuthRejected(reason)) => {
                    eprintln!(
                        "authentication rejected: {reason} — the daemon treats a failed \
                         possession proof as a breach of wire trust and closed the connection"
                    );
                    std::process::exit(1);
                }
                Err(e) => {
                    eprintln!("handshake failed: {e}");
                    std::process::exit(1);
                }
            }
            match client.submit(request, &model_name, model.input.clone()) {
                Ok(round) => println!("request {request} admitted at scheduler round {round}"),
                Err(e) => {
                    eprintln!("submission refused: {e}");
                    if e.to_string().contains("duplicate request id") {
                        eprintln!(
                            "hint: this daemon already holds a result for tenant {tenant} \
                             request {request}; pick an unused id with --request <R>"
                        );
                    }
                    std::process::exit(1);
                }
            }
            match client.wait_terminal(request, 1 << 20) {
                Ok(RequestState::Completed { digest, .. }) => {
                    println!("request {request} completed; digest={digest:#018x}");
                }
                Ok(RequestState::Aborted { breach, detail }) => {
                    eprintln!(
                        "request {request} aborted{}: {detail}",
                        if breach { " [breach]" } else { "" }
                    );
                    std::process::exit(1);
                }
                Ok(other) => {
                    eprintln!("request {request} failed: {other:?}");
                    std::process::exit(1);
                }
                Err(e) => {
                    eprintln!("lost the daemon while waiting: {e}");
                    std::process::exit(1);
                }
            }
        }
        // Internal: one process life of the durable engine. Spawned by
        // `restart-campaign` phase B; not part of the public surface.
        "restart-worker" => {
            restart_worker(&args);
        }
        "stats" => {
            let layers = stats_workload();
            let mut snap = telemetry::snapshot();
            snap.layers = layers;
            match opt(&args, "--format").as_deref() {
                None | Some("json") => println!("{}", snap.to_json()),
                Some("prom") => print!("{}", snap.to_prometheus()),
                Some(other) => {
                    eprintln!("unknown --format `{other}` (expected json or prom)");
                    usage()
                }
            }
        }
        "describe" => {
            let net = network(&opt(&args, "--network").unwrap_or_else(|| "tiny".into()));
            println!("{net}\n");
            for s in npu.map(&net)? {
                println!("{}\n", s.describe());
            }
        }
        "storage" => {
            let net = network(&opt(&args, "--network").unwrap_or_else(|| "resnet".into()));
            let schedules = npu.map(&net)?;
            println!("{net}\n");
            println!("{:<20} {:>14}", "design", "metadata bytes");
            for (name, f) in table7_rows(&schedules) {
                println!("{:<20} {:>14}", name, f.total());
            }
        }
        _ => usage(),
    }
    write_metrics(metrics_path.as_deref(), &[]);
    Ok(())
}
