//! Smoke tests for the `seculator` CLI binary.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_seculator"))
        .args(args)
        .output()
        .expect("cli binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn run_subcommand_reports_cycles_and_traffic() {
    let (ok, stdout, _) = run(&["run", "--network", "tiny", "--scheme", "seculator"]);
    assert!(ok);
    assert!(stdout.contains("cycles"));
    assert!(
        stdout.contains("0.0% metadata"),
        "seculator is metadata-free: {stdout}"
    );
}

#[test]
fn compare_subcommand_lists_all_designs() {
    let (ok, stdout, _) = run(&["compare", "--network", "tiny"]);
    assert!(ok);
    for s in ["baseline", "secure", "tnpu", "guardnn", "seculator"] {
        assert!(stdout.contains(s), "missing {s}: {stdout}");
    }
}

#[test]
fn attack_subcommand_detects_everything() {
    let (ok, stdout, _) = run(&["attack"]);
    assert!(ok);
    assert_eq!(stdout.matches("detected:").count(), 3, "{stdout}");
    assert!(!stdout.contains("NOT DETECTED"), "{stdout}");
}

#[test]
fn fault_campaign_subcommand_passes_and_is_deterministic() {
    let (ok, stdout, _) = run(&["fault-campaign", "--seed", "42", "--faults", "13"]);
    assert!(ok, "campaign must exit 0 on PASS: {stdout}");
    assert!(stdout.contains("detection rate      : 100.0%"), "{stdout}");
    assert!(stdout.contains("false positives     : 0"), "{stdout}");
    assert!(stdout.contains("verdict             : PASS"), "{stdout}");
    let (_, again, _) = run(&["fault-campaign", "--seed", "42", "--faults", "13"]);
    assert_eq!(stdout, again, "same seed, same report");
}

/// The whole fault-campaign report at two seeds, pinned: a changed
/// refetch, re-execution or abort count fails here even when the verdict
/// still reads PASS.
#[test]
fn fault_campaign_reports_are_pinned() {
    const SEED_42: &str = "\
fault campaign: seed 42 / 26 fault trials / 8 clean controls

fault trials        : 26 injected, 8 clean controls
detection rate      : 100.0% (26 of 26)
false positives     : 0 (0.0%)
recovered (refetch) : 6
recovered (re-exec) : 10
graceful aborts     : 10
recovery latency    : mean 5215 cycles, worst 9120 cycles
silent corruption   : none
verdict             : PASS
";
    const SEED_99_300: &str = "\
fault campaign: seed 99 / 300 fault trials / 8 clean controls

fault trials        : 300 injected, 8 clean controls
detection rate      : 100.0% (300 of 300)
false positives     : 0 (0.0%)
recovered (refetch) : 70
recovered (re-exec) : 115
graceful aborts     : 115
recovery latency    : mean 5198 cycles, worst 9120 cycles
silent corruption   : none
verdict             : PASS
";
    for (args, expected) in [
        (&["fault-campaign", "--seed", "42"][..], SEED_42),
        (
            &["fault-campaign", "--seed", "99", "--faults", "300"][..],
            SEED_99_300,
        ),
    ] {
        let (ok, stdout, _) = run(args);
        assert!(ok, "{args:?}: {stdout}");
        assert_eq!(stdout, expected, "{args:?}");
    }
}

/// Every other campaign's whole report, pinned byte for byte (files
/// under `tests/pinned/`), at the default crypto thread count and again
/// at `--threads 1`: a moved driver that changes one draw, one count or
/// one line fails here even when its verdict still reads PASS.
#[test]
fn campaign_reports_are_pinned() {
    for (args, expected) in [
        (
            &["crash-campaign", "--seed", "7", "--cuts", "10"][..],
            include_str!("pinned/crash-campaign-seed7-cuts10.txt"),
        ),
        (
            &["serve-campaign", "--seed", "7", "--sessions", "4"][..],
            include_str!("pinned/serve-campaign-seed7-sessions4.txt"),
        ),
        (
            &["chaos-campaign", "--seed", "11", "--sessions", "4"][..],
            include_str!("pinned/chaos-campaign-seed11-sessions4.txt"),
        ),
        (
            &["chaos-campaign", "--seed", "42", "--sessions", "8"][..],
            include_str!("pinned/chaos-campaign-seed42-sessions8.txt"),
        ),
        (
            &[
                "restart-campaign",
                "--seed",
                "7",
                "--cuts",
                "10",
                "--proc-cuts",
                "1",
            ][..],
            include_str!("pinned/restart-campaign-seed7-cuts10-proc1.txt"),
        ),
        (
            &[
                "daemon",
                "--loopback",
                "--seed",
                "7",
                "--sessions",
                "4",
                "--requests",
                "1",
            ][..],
            include_str!("pinned/daemon-loopback-seed7-sessions4-requests1.txt"),
        ),
        (
            &[
                "daemon",
                "--loopback",
                "--seed",
                "7",
                "--sessions",
                "4",
                "--requests",
                "32",
            ][..],
            include_str!("pinned/daemon-loopback-seed7-sessions4-requests32.txt"),
        ),
    ] {
        let pinned_threads = [args, &["--threads", "1"]].concat();
        for run_args in [args, &pinned_threads[..]] {
            let (code, stdout, stderr) = run_code(run_args);
            assert_eq!(code, Some(0), "{run_args:?}: {stderr}");
            assert_eq!(stdout, expected, "{run_args:?}");
        }
    }
}

#[test]
fn patterns_subcommand_draws_plots() {
    let (ok, stdout, _) = run(&["patterns", "--k", "8", "--c", "4", "--hw", "8"]);
    assert!(ok);
    assert!(stdout.contains('▪'), "ascii plots present");
    assert!(stdout.contains("P1:Multi-step"));
}

#[test]
fn storage_subcommand_prints_table7() {
    let (ok, stdout, _) = run(&["storage", "--network", "tiny"]);
    assert!(ok);
    assert!(stdout.contains("seculator"));
    assert!(stdout.contains("metadata bytes"));
}

#[test]
fn bad_usage_exits_nonzero_with_help() {
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"));
}

fn run_code(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_seculator"))
        .args(args)
        .output()
        .expect("cli binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn crash_campaign_subcommand_passes_and_is_deterministic() {
    let (code, stdout, _) = run_code(&["crash-campaign", "--seed", "5", "--cuts", "3"]);
    assert_eq!(
        code,
        Some(0),
        "crash campaign must exit 0 on PASS: {stdout}"
    );
    assert!(stdout.contains("verdict: PASS"), "{stdout}");
    assert!(stdout.contains("pad reuses: 0"), "{stdout}");
    assert!(stdout.contains("stale acceptances: 0"), "{stdout}");
    assert!(
        stdout.contains("\"resumes\":"),
        "machine-readable ladder summary present: {stdout}"
    );
    let (_, again, _) = run_code(&["crash-campaign", "--seed", "5", "--cuts", "3"]);
    assert_eq!(stdout, again, "same seed must be byte-identical");
    let (_, other, _) = run_code(&["crash-campaign", "--seed", "6", "--cuts", "3"]);
    assert_ne!(stdout, other, "different seed, different cuts");
}

/// Both campaigns share one exit-code contract: 0 = clean pass, 1 = a
/// detection miss (unreachable from a healthy build — the campaigns
/// exercise it via `passed()`), 2 = usage error. A malformed numeric
/// option must be a *usage* error, never silently defaulted into a
/// passing (exit 0) run.
#[test]
fn campaigns_share_the_exit_code_contract() {
    for campaign in [
        "fault-campaign",
        "crash-campaign",
        "serve-campaign",
        "chaos-campaign",
        "restart-campaign",
    ] {
        let (code, _, stderr) = run_code(&[campaign, "--seed", "not-a-number"]);
        assert_eq!(code, Some(2), "{campaign}: bad --seed is a usage error");
        assert!(stderr.contains("invalid value for --seed"), "{stderr}");
        assert!(stderr.contains("usage:"), "{stderr}");
    }
    let (code, _, stderr) = run_code(&["fault-campaign", "--faults", "-3"]);
    assert_eq!(code, Some(2), "negative counts are usage errors");
    assert!(stderr.contains("invalid value for --faults"), "{stderr}");
    let (code, _, stderr) = run_code(&["crash-campaign", "--cuts", "many"]);
    assert_eq!(code, Some(2), "{stderr}");
    let (code, _, stderr) = run_code(&["serve-campaign", "--sessions", "several"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("invalid value for --sessions"), "{stderr}");
    // A 32-bit size is range-checked, never truncated: 2^32 + 1 is a
    // usage error, not a one-session (or one-cut) run that passes.
    for (campaign, option) in [
        ("serve-campaign", "--sessions"),
        ("crash-campaign", "--cuts"),
    ] {
        let (code, stdout, stderr) = run_code(&[campaign, option, "4294967297"]);
        assert_eq!(code, Some(2), "{campaign} {option} 2^32+1: {stdout}");
        assert!(stdout.is_empty(), "nothing may run: {stdout}");
        assert!(
            stderr.contains(&format!("invalid value for {option}")),
            "{stderr}"
        );
    }
    // Non-campaign numeric options share the contract.
    let (code, stdout, stderr) = run_code(&["patterns", "--k", "banana"]);
    assert_eq!(code, Some(2), "patterns --k banana: {stdout}");
    assert!(stderr.contains("invalid value for --k"), "{stderr}");
    // So is a zero layer dimension: exit 2 before any header prints.
    for option in ["--k", "--c", "--hw"] {
        let (code, stdout, stderr) = run_code(&["patterns", option, "0"]);
        assert_eq!(code, Some(2), "patterns {option} 0: {stdout}");
        assert!(
            stdout.is_empty(),
            "patterns {option} 0 must not run: {stdout}"
        );
        assert!(
            stderr.contains(&format!("invalid value for {option}")),
            "{stderr}"
        );
    }
    // Unknown commands are usage errors too (exit 2, not 1).
    let (code, _, _) = run_code(&["frobnicate"]);
    assert_eq!(code, Some(2));
    // So is an option given without its value, or one the command does
    // not take: neither may run the defaults.
    for args in [
        &["fault-campaign", "--seed"][..],
        &["run", "--network"],
        &["serve-campaign", "--sessions", "2", "--threads"],
        &["crash-campaign", "--seeds", "7"],
    ] {
        let (code, stdout, stderr) = run_code(args);
        assert_eq!(code, Some(2), "{args:?}: {stdout}");
        assert!(stdout.is_empty(), "{args:?} must not run: {stdout}");
        assert!(stderr.contains("usage:"), "{stderr}");
    }
}

/// An option given twice is a usage error: the run never silently takes
/// one of the two values.
#[test]
fn a_repeated_option_is_a_usage_error() {
    for args in [
        &[
            "fault-campaign",
            "--seed",
            "1",
            "--seed",
            "2",
            "--faults",
            "1",
            "--clean",
            "0",
        ][..],
        &[
            "serve-campaign",
            "--threads",
            "1",
            "--sessions",
            "2",
            "--threads",
            "2",
        ],
        &["daemon", "--loopback", "--loopback"],
    ] {
        let (code, stdout, stderr) = run_code(args);
        assert_eq!(code, Some(2), "{args:?}: {stdout}");
        assert!(stdout.is_empty(), "{args:?} must not run: {stdout}");
        assert!(stderr.contains("is given more than once"), "{stderr}");
        assert!(stderr.contains("usage:"), "{stderr}");
    }
}

/// The usage text keeps its layout: every command line is indented, and
/// each wrapped description starts in the description column.
#[test]
fn usage_text_keeps_its_columns() {
    let (code, _, stderr) = run_code(&[]);
    assert_eq!(code, Some(2));
    let commands: Vec<&str> = stderr
        .lines()
        .skip_while(|l| *l != "commands:")
        .skip(1)
        .take_while(|l| !l.is_empty())
        .collect();
    assert!(commands.len() >= 16, "{stderr}");
    for line in &commands {
        assert!(line.starts_with("  "), "unindented command line: {line:?}");
    }
    let column = commands[0]
        .find("simulate one inference")
        .expect("run's description");
    for description in [
        "seeded fault-injection sweep",
        "on-disk persistence sweep: in-process VFS faults",
        "plus real kill -9 process restarts",
        "serve the SWP1 wire protocol over TCP",
        "deterministic in-process conformance campaign",
        "submit one inference over the wire and wait",
    ] {
        let line = commands
            .iter()
            .find(|l| l.ends_with(description))
            .expect(description);
        assert_eq!(line.find(description), Some(column), "{line:?}");
    }
}

/// A size option that leaves a campaign nothing to run is a usage error
/// (exit 2 before anything runs), never a vacuous PASS, a FAIL, or a
/// silently resized run. `--proc-cuts 0` still skips only the restart
/// campaign's process phase, and `--faults 0` with clean controls is
/// still a false-positive-only run.
#[test]
fn empty_sweeps_are_usage_errors() {
    for args in [
        &["fault-campaign", "--faults", "0", "--clean", "0"][..],
        &["crash-campaign", "--cuts", "0"],
        &["serve-campaign", "--sessions", "0"],
        &["chaos-campaign", "--sessions", "0"],
        &["restart-campaign", "--cuts", "0", "--proc-cuts", "0"],
        &["restart-campaign", "--cuts", "0"],
        &["daemon", "--loopback", "--sessions", "0"],
    ] {
        let (code, stdout, stderr) = run_code(args);
        assert_eq!(code, Some(2), "{args:?}: {stdout}");
        assert!(stdout.is_empty(), "{args:?} must not run: {stdout}");
        assert!(stderr.contains("nothing to run"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{stderr}");
    }
    let (code, stdout, _) = run_code(&[
        "restart-campaign",
        "--seed",
        "7",
        "--cuts",
        "1",
        "--proc-cuts",
        "0",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(
        stdout.ends_with("restart campaign (process kill -9): skipped (--proc-cuts 0)\n"),
        "{stdout}"
    );
    let (code, stdout, _) = run_code(&["fault-campaign", "--faults", "0", "--clean", "2"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("0 injected, 2 clean controls"), "{stdout}");
    assert!(stdout.contains("false positives     : 0"), "{stdout}");
}

fn run_env(args: &[&str], env: &[(&str, &str)]) -> (Option<i32>, String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_seculator"));
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("cli binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The parallel crypto datapath must never leak into observable output:
/// a crash campaign pinned to one worker thread is byte-identical to the
/// same campaign fanned out across the default pool. This is the
/// end-to-end form of the XOR-fold order-independence invariant.
#[test]
fn crash_campaign_is_thread_count_invariant() {
    let args = ["crash-campaign", "--seed", "5", "--cuts", "3"];
    let (code, pinned, _) = run_env(&args, &[("RAYON_NUM_THREADS", "1")]);
    assert_eq!(code, Some(0), "pinned run passes: {pinned}");
    let (code, default_pool, _) = run_env(&args, &[]);
    assert_eq!(code, Some(0), "default-pool run passes: {default_pool}");
    assert_eq!(
        pinned, default_pool,
        "thread count must not change campaign output"
    );
    let (code, explicit, _) = run_code(&[
        "crash-campaign",
        "--seed",
        "5",
        "--cuts",
        "3",
        "--threads",
        "2",
    ]);
    assert_eq!(code, Some(0), "--threads 2 run passes: {explicit}");
    assert_eq!(
        pinned, explicit,
        "--threads must not change campaign output"
    );
}

/// A scratch path under the target-adjacent temp dir, unique per test so
/// parallel test threads never collide.
fn scratch(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("seculator-cli-{}-{name}", std::process::id()))
}

/// Pulls a bare-number field out of hand-rolled JSON ( `"name": 42` or
/// `"name":42` ), panicking with context when absent — test-only parsing
/// for the fixed telemetry and ladder schemas.
fn json_u64(doc: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":");
    let at = doc
        .find(&key)
        .unwrap_or_else(|| panic!("no {key} in {doc}"));
    doc[at + key.len()..]
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric {key} in {doc}"))
}

/// `stats` runs its fixed workload and prints the telemetry snapshot;
/// the schema and the per-layer rows are present in both feature modes,
/// the counters and stage times are only nonzero when the `telemetry`
/// feature is compiled in.
#[test]
fn stats_subcommand_emits_the_telemetry_schema() {
    let (code, stdout, _) = run_code(&["stats"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(
        stdout.contains("\"schema\": \"seculator-telemetry-v1\""),
        "{stdout}"
    );
    for key in [
        "seal_batches",
        "vn_advances",
        "journal_appends",
        "seal_ns",
        "compute_ns",
    ] {
        assert!(
            stdout.contains(&format!("\"{key}\"")),
            "missing {key}: {stdout}"
        );
    }
    // The campaign models span layers 0–2; their runs' rows are summed
    // per layer id.
    for layer in 0..3 {
        assert!(
            stdout.contains(&format!("{{\"layer\": {layer}, \"compute_ns\": ")),
            "missing the row of layer {layer}: {stdout}"
        );
    }
    if cfg!(feature = "telemetry") {
        assert!(stdout.contains("\"enabled\": true"), "{stdout}");
        assert!(json_u64(&stdout, "seal_batches") > 0, "{stdout}");
        assert!(json_u64(&stdout, "vn_advances") > 0, "{stdout}");
    } else {
        assert!(stdout.contains("\"enabled\": false"), "{stdout}");
        assert_eq!(json_u64(&stdout, "seal_batches"), 0, "{stdout}");
    }
    let (code, prom, _) = run_code(&["stats", "--format", "prom"]);
    assert_eq!(code, Some(0));
    assert!(
        prom.contains("# TYPE seculator_seal_batches counter"),
        "{prom}"
    );
    let (code, _, stderr) = run_code(&["stats", "--format", "xml"]);
    assert_eq!(code, Some(2), "unknown format is a usage error: {stderr}");
}

/// Every seal batch, open batch and journal append is observed by its
/// histogram exactly once, whether a layer step's stage timer timed it
/// or the call's own span did (the resume path's re-verification and
/// the epoch-open record have no stage timer).
#[test]
fn histograms_count_each_timed_batch_once() {
    if !cfg!(feature = "telemetry") {
        return;
    }
    let path = scratch("histograms.json");
    let path_s = path.to_str().expect("utf-8 temp path");
    let crash = [
        "crash-campaign",
        "--seed",
        "5",
        "--cuts",
        "3",
        "--metrics",
        path_s,
    ];
    let (code, stats, _) = run_code(&["stats"]);
    assert_eq!(code, Some(0), "{stats}");
    let (code, stdout, _) = run_code(&crash);
    assert_eq!(code, Some(0), "{stdout}");
    let metrics = std::fs::read_to_string(&path).expect("--metrics file written");
    std::fs::remove_file(&path).ok();
    for doc in [stats, metrics] {
        let observed = |hist: &str| {
            let at = doc.find(&format!("\"{hist}\": {{")).expect(hist);
            json_u64(&doc[at..], "count")
        };
        assert!(json_u64(&doc, "seal_batches") > 0, "{doc}");
        assert_eq!(observed("seal_ns"), json_u64(&doc, "seal_batches"), "{doc}");
        assert_eq!(observed("open_ns"), json_u64(&doc, "open_batches"), "{doc}");
        assert_eq!(
            observed("journal_append_ns"),
            json_u64(&doc, "journal_appends"),
            "{doc}"
        );
    }
}

/// The `--metrics` counters must agree *exactly* with the recovery
/// ladder the campaign prints: both are fed by the same single funnel
/// (`IncidentLog::push`), so any divergence means double- or
/// under-counting somewhere in the recovery paths.
#[test]
fn crash_campaign_metrics_counters_match_the_printed_ladder() {
    let path = scratch("ladder.json");
    let path_s = path.to_str().expect("utf-8 temp path");
    let (code, stdout, _) = run_code(&[
        "crash-campaign",
        "--seed",
        "5",
        "--cuts",
        "3",
        "--metrics",
        path_s,
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    let metrics = std::fs::read_to_string(&path).expect("--metrics file written");
    std::fs::remove_file(&path).ok();
    assert!(
        metrics.contains("\"schema\": \"seculator-telemetry-v1\""),
        "{metrics}"
    );
    if !cfg!(feature = "telemetry") {
        assert!(metrics.contains("\"enabled\": false"), "{metrics}");
        return;
    }
    let ladder_at = stdout
        .find("ladder: ")
        .expect("ladder line in campaign output");
    let ladder = &stdout[ladder_at..];
    for (counter, ladder_field) in [
        ("refetches", "refetches"),
        ("reexecutions", "reexecutions"),
        ("resumes", "resumes"),
        ("rollbacks", "rollbacks"),
    ] {
        assert_eq!(
            json_u64(&metrics, counter),
            json_u64(ladder, ladder_field),
            "telemetry `{counter}` diverged from the campaign ladder\n{metrics}\n{ladder}"
        );
    }
    // Every detection resolves to exactly one ladder action (the campaign
    // passed, so nothing aborted), and this campaign exercises recovery.
    let actions = json_u64(&metrics, "refetches")
        + json_u64(&metrics, "reexecutions")
        + json_u64(&metrics, "resumes")
        + json_u64(&metrics, "rollbacks")
        + json_u64(&metrics, "aborts");
    assert_eq!(json_u64(&metrics, "detections"), actions, "{metrics}");
    assert!(actions > 0, "campaign must exercise the ladder: {stdout}");
}

/// The regression the telemetry work rode in on: an explicit `--threads`
/// must take effect no matter what initialized the pool's default first
/// (here `RAYON_NUM_THREADS=7` in the environment). Before the fix the
/// flag's `build_global` result was discarded, so an earlier freeze
/// silently won. The snapshot's `threads` field reports the effective
/// count in both feature modes.
#[test]
fn threads_flag_beats_the_environment() {
    let path = scratch("threads.json");
    let path_s = path.to_str().expect("utf-8 temp path");
    let (code, stdout, stderr) = run_env(
        &[
            "crash-campaign",
            "--seed",
            "5",
            "--cuts",
            "2",
            "--threads",
            "2",
            "--metrics",
            path_s,
        ],
        &[("RAYON_NUM_THREADS", "7")],
    );
    assert_eq!(code, Some(0), "{stdout}\n{stderr}");
    let metrics = std::fs::read_to_string(&path).expect("--metrics file written");
    std::fs::remove_file(&path).ok();
    assert!(
        metrics.contains("\"threads\": 2"),
        "--threads 2 must beat RAYON_NUM_THREADS=7: {metrics}"
    );
    // And without the flag, the environment default stands.
    let (code, _, _) = run_env(
        &["stats", "--metrics", path_s],
        &[("RAYON_NUM_THREADS", "7")],
    );
    assert_eq!(code, Some(0));
    let metrics = std::fs::read_to_string(&path).expect("--metrics file written");
    std::fs::remove_file(&path).ok();
    assert!(metrics.contains("\"threads\": 7"), "{metrics}");
}

/// An unwritable `--metrics` path is a usage error (exit 2), reported on
/// stderr — never a silently dropped snapshot. Every subcommand that
/// accepts `--metrics` shares the diagnostic, campaigns included.
#[test]
fn unwritable_metrics_path_is_a_usage_error() {
    let cases: [&[&str]; 6] = [
        &["stats"],
        &["fault-campaign", "--seed", "3", "--faults", "2"],
        &["crash-campaign", "--seed", "5", "--cuts", "2"],
        &["serve-campaign", "--seed", "7", "--sessions", "2"],
        &["chaos-campaign", "--seed", "3", "--sessions", "2"],
        &[
            "restart-campaign",
            "--seed",
            "3",
            "--cuts",
            "2",
            "--proc-cuts",
            "0",
        ],
    ];
    for case in cases {
        let mut args = case.to_vec();
        args.extend_from_slice(&["--metrics", "/nonexistent-dir/metrics.json"]);
        let (code, _, stderr) = run_code(&args);
        assert_eq!(code, Some(2), "{case:?}: {stderr}");
        assert!(
            stderr.contains("cannot write --metrics file"),
            "{case:?}: {stderr}"
        );
    }
}

/// The multi-session campaign is deterministic: same seed, byte-identical
/// report (the acceptance bar for reproducing an isolation incident);
/// different seed, different trace. One tenant is always planted tampered
/// at ≥2 sessions and must abort without failing the campaign.
#[test]
fn serve_campaign_subcommand_passes_and_is_deterministic() {
    let args = ["serve-campaign", "--seed", "7", "--sessions", "4"];
    let (code, stdout, _) = run_code(&args);
    assert_eq!(
        code,
        Some(0),
        "serve campaign must exit 0 on PASS: {stdout}"
    );
    assert!(stdout.contains("verdict: PASS"), "{stdout}");
    assert!(
        stdout.contains("cross-session ledger self-test: ok"),
        "{stdout}"
    );
    assert_eq!(
        stdout.matches(" [tampered]").count(),
        1,
        "exactly one planted adversary: {stdout}"
    );
    assert!(
        stdout.contains("cross-session collisions: 0"),
        "no pad is ever issued twice across sessions: {stdout}"
    );
    assert!(
        stdout.contains("\"aborted\":true"),
        "the tampered tenant fails closed through the ladder: {stdout}"
    );
    let (_, again, _) = run_code(&args);
    assert_eq!(stdout, again, "same seed must be byte-identical");
    let (_, other, _) = run_code(&["serve-campaign", "--seed", "8", "--sessions", "4"]);
    assert_ne!(stdout, other, "different seed, different trace");
}

/// The serve campaign's `--metrics` snapshot must agree with its printed
/// report: the session counter family reflects the planted abort, and
/// the ladder counters match the printed ladder JSON (same
/// `IncidentLog::push` funnel as the other campaigns).
#[test]
fn serve_campaign_metrics_counters_match_the_printed_report() {
    let path = scratch("serve.json");
    let path_s = path.to_str().expect("utf-8 temp path");
    let (code, stdout, _) = run_code(&[
        "serve-campaign",
        "--seed",
        "7",
        "--sessions",
        "4",
        "--metrics",
        path_s,
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    let metrics = std::fs::read_to_string(&path).expect("--metrics file written");
    std::fs::remove_file(&path).ok();
    assert!(
        metrics.contains("\"schema\": \"seculator-telemetry-v1\""),
        "{metrics}"
    );
    if !cfg!(feature = "telemetry") {
        assert!(metrics.contains("\"enabled\": false"), "{metrics}");
        return;
    }
    assert_eq!(json_u64(&metrics, "sessions_active"), 4, "{metrics}");
    assert_eq!(json_u64(&metrics, "sessions_completed"), 3, "{metrics}");
    assert_eq!(json_u64(&metrics, "session_aborts"), 1, "{metrics}");
    let ladder_at = stdout
        .find("ladder: ")
        .expect("ladder line in campaign output");
    let ladder = &stdout[ladder_at..];
    for counter in ["refetches", "reexecutions"] {
        assert_eq!(
            json_u64(&metrics, counter),
            json_u64(ladder, counter),
            "telemetry `{counter}` diverged from the campaign ladder\n{metrics}\n{ladder}"
        );
    }
    // Per-session rows ride in the snapshot's layer table, keyed by
    // tenant id.
    for tenant in 0..4 {
        assert!(
            metrics.contains(&format!("\"layer\": {tenant}")),
            "missing tenant {tenant} row: {metrics}"
        );
    }
}

/// The chaos campaign composes DRAM faults and scripted power cuts
/// across concurrent tenants and must stay byte-identical per seed —
/// retry backoff, load shedding, and quarantine decisions included. A
/// faulted tenant is either recovered (bit-identical) or quarantined,
/// never wedged, so the verdict is PASS.
#[test]
fn chaos_campaign_subcommand_passes_and_is_deterministic() {
    let args = ["chaos-campaign", "--seed", "42", "--sessions", "6"];
    let (code, stdout, _) = run_code(&args);
    assert_eq!(
        code,
        Some(0),
        "chaos campaign must exit 0 on PASS: {stdout}"
    );
    assert!(stdout.contains("verdict: PASS"), "{stdout}");
    assert!(
        stdout.contains("cross-session collisions: 0"),
        "no pad is ever reused across retries or sessions: {stdout}"
    );
    assert!(
        stdout.contains("[chaos:"),
        "chaos must actually target tenants: {stdout}"
    );
    assert!(
        stdout.contains("robustness: {"),
        "machine-readable robustness summary present: {stdout}"
    );
    let (_, again, _) = run_code(&args);
    assert_eq!(stdout, again, "same seed must be byte-identical");
    let (_, other, _) = run_code(&["chaos-campaign", "--seed", "43", "--sessions", "6"]);
    assert_ne!(stdout, other, "different seed, different storm");
}

/// The chaos campaign's `--metrics` snapshot must agree *exactly* with
/// the robustness line it prints: the four fleet-robustness counters
/// (`session_retries`, `deadline_misses`, `sessions_quarantined`,
/// `inflight_shed`) are fed by the same scheduler paths that build the
/// report, so any divergence means a retry, miss, quarantine, or shed
/// slot was double- or under-counted.
#[test]
fn chaos_campaign_metrics_counters_match_the_robustness_line() {
    let path = scratch("chaos.json");
    let path_s = path.to_str().expect("utf-8 temp path");
    let (code, stdout, _) = run_code(&[
        "chaos-campaign",
        "--seed",
        "42",
        "--sessions",
        "8",
        "--metrics",
        path_s,
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    let metrics = std::fs::read_to_string(&path).expect("--metrics file written");
    std::fs::remove_file(&path).ok();
    assert!(
        metrics.contains("\"schema\": \"seculator-telemetry-v1\""),
        "{metrics}"
    );
    if !cfg!(feature = "telemetry") {
        assert!(metrics.contains("\"enabled\": false"), "{metrics}");
        return;
    }
    let robustness_at = stdout
        .find("robustness: ")
        .expect("robustness line in campaign output");
    let robustness = &stdout[robustness_at..];
    for counter in [
        "session_retries",
        "deadline_misses",
        "sessions_quarantined",
        "inflight_shed",
    ] {
        assert_eq!(
            json_u64(&metrics, counter),
            json_u64(robustness, counter),
            "telemetry `{counter}` diverged from the campaign report\n{metrics}\n{robustness}"
        );
    }
    // This seed's storm must actually exercise the robustness layer.
    assert!(
        json_u64(&metrics, "session_retries") > 0,
        "campaign must grant session retries: {stdout}"
    );
    // The in-layer ladder still flows through the shared incident funnel.
    let ladder_at = stdout
        .find("ladder: ")
        .expect("ladder line in campaign output");
    let ladder = &stdout[ladder_at..];
    for counter in ["refetches", "reexecutions", "resumes"] {
        assert_eq!(
            json_u64(&metrics, counter),
            json_u64(ladder, counter),
            "telemetry `{counter}` diverged from the campaign ladder\n{metrics}\n{ladder}"
        );
    }
}

/// Pulls a bare-number `key=value` field out of a campaign report line.
fn kv_u64(doc: &str, key: &str) -> u64 {
    let pat = format!("{key}=");
    let at = doc
        .find(&pat)
        .unwrap_or_else(|| panic!("no {pat} in {doc}"));
    doc[at + pat.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric {pat} in {doc}"))
}

/// The restart campaign survives real `kill -9` process deaths: both
/// phases verdict PASS, the process phase observes actual signal
/// deaths, resumed outputs are bit-identical to the uninterrupted
/// reference, and every injected on-disk corruption lands a typed
/// refusal. Byte-identical per seed — across *separate invocations*,
/// so no pid, path, or timing may leak into the report.
#[test]
fn restart_campaign_subcommand_passes_and_is_deterministic() {
    let args = [
        "restart-campaign",
        "--seed",
        "42",
        "--cuts",
        "7",
        "--proc-cuts",
        "2",
    ];
    let (code, stdout, _) = run_code(&args);
    assert_eq!(
        code,
        Some(0),
        "restart campaign must exit 0 on PASS: {stdout}"
    );
    assert_eq!(
        stdout.matches("verdict: PASS").count(),
        2,
        "both phases pass: {stdout}"
    );
    assert!(
        kv_u64(&stdout, "signal_deaths") > 0,
        "the process phase must observe real signal deaths: {stdout}"
    );
    assert_eq!(kv_u64(&stdout, "failures"), 0, "{stdout}");
    assert!(
        stdout.contains("outcome=refused:journal-integrity"),
        "CRC-consistent tampering must be refused typed: {stdout}"
    );
    assert!(
        stdout.contains("outcome=refused:durable-corruption"),
        "bit rot must be refused typed: {stdout}"
    );
    assert!(
        !stdout.contains("WRONG-OUTPUT") && !stdout.contains("wedged"),
        "{stdout}"
    );
    let (_, again, _) = run_code(&args);
    assert_eq!(stdout, again, "same seed must be byte-identical");
    let (_, other, _) = run_code(&[
        "restart-campaign",
        "--seed",
        "43",
        "--cuts",
        "7",
        "--proc-cuts",
        "2",
    ]);
    assert_ne!(stdout, other, "different seed, different cuts");
}

/// The restart campaign's `--metrics` snapshot must agree *exactly*
/// with the durable line it prints: the four persistence counters
/// (`journal_fsyncs`, `snapshots_compacted`, `torn_tails_repaired`,
/// `restart_resumes`) are bumped inside the same `PersistentStats`
/// methods that build the report, so any divergence means an fsync,
/// compaction, repair, or resume was double- or under-counted.
#[test]
fn restart_campaign_metrics_counters_match_the_durable_line() {
    let path = scratch("restart.json");
    let path_s = path.to_str().expect("utf-8 temp path");
    let (code, stdout, _) = run_code(&[
        "restart-campaign",
        "--seed",
        "42",
        "--cuts",
        "7",
        "--proc-cuts",
        "0",
        "--metrics",
        path_s,
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    let metrics = std::fs::read_to_string(&path).expect("--metrics file written");
    std::fs::remove_file(&path).ok();
    assert!(
        metrics.contains("\"schema\": \"seculator-telemetry-v1\""),
        "{metrics}"
    );
    if !cfg!(feature = "telemetry") {
        assert!(metrics.contains("\"enabled\": false"), "{metrics}");
        return;
    }
    let durable_at = stdout
        .find("durable: ")
        .expect("durable line in campaign output");
    let durable = &stdout[durable_at..];
    for (counter, field) in [
        ("journal_fsyncs", "fsyncs"),
        ("snapshots_compacted", "snapshots_compacted"),
        ("torn_tails_repaired", "torn_tails_repaired"),
        ("restart_resumes", "restart_resumes"),
    ] {
        assert_eq!(
            json_u64(&metrics, counter),
            kv_u64(durable, field),
            "telemetry `{counter}` diverged from the campaign report\n{metrics}\n{durable}"
        );
    }
    // This seed's sweep must actually exercise the durable layer: kills
    // force resumed opens, and mid-append cuts leave torn disk tails.
    assert!(json_u64(&metrics, "restart_resumes") > 0, "{stdout}");
    assert!(json_u64(&metrics, "torn_tails_repaired") > 0, "{stdout}");
}

/// `--metrics` artifacts are written atomically: a pre-existing file is
/// replaced wholesale (never appended to or left half-torn) and no
/// temp file survives the rename in the target directory.
#[test]
fn metrics_writes_are_atomic_and_leave_no_temp_files() {
    let dir = scratch("atomic-metrics");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("metrics.json");
    let path_s = path.to_str().expect("utf-8 temp path");
    // Plant stale garbage longer than the snapshot, so an in-place
    // partial overwrite would leave a trailing residue.
    let garbage = format!("GARBAGE{}", "x".repeat(1 << 20));
    std::fs::write(&path, &garbage).expect("plant garbage");
    let (code, _, stderr) = run_code(&["stats", "--metrics", path_s]);
    assert_eq!(code, Some(0), "{stderr}");
    let written = std::fs::read_to_string(&path).expect("--metrics file written");
    assert!(
        written.contains("\"schema\": \"seculator-telemetry-v1\""),
        "{written}"
    );
    assert!(
        !written.contains("GARBAGE") && written.len() < garbage.len(),
        "stale bytes must not survive the rename"
    );
    let leftovers: Vec<String> = std::fs::read_dir(&dir)
        .expect("scratch dir lists")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n != "metrics.json")
        .collect();
    assert!(
        leftovers.is_empty(),
        "temp files left behind: {leftovers:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `--backend` joins the shared exit-code contract: an unknown name is a
/// usage error (exit 2) with the accepted set spelled out, never a
/// silent fallback to auto-detection. Every valid software backend runs.
#[test]
fn backend_option_shares_the_exit_code_contract() {
    for bad in ["frobnicate", "AESNI", ""] {
        let (code, _, stderr) = run_code(&["run", "--network", "tiny", "--backend", bad]);
        assert_eq!(
            code,
            Some(2),
            "--backend `{bad}` is a usage error: {stderr}"
        );
        assert!(stderr.contains("invalid value for --backend"), "{stderr}");
        assert!(
            stderr.contains("expected auto, portable, bitsliced, or aesni"),
            "{stderr}"
        );
        assert!(stderr.contains("usage:"), "{stderr}");
    }
    for good in ["auto", "portable", "bitsliced"] {
        let (code, stdout, stderr) = run_code(&["run", "--network", "tiny", "--backend", good]);
        assert_eq!(code, Some(0), "--backend {good} runs: {stdout}\n{stderr}");
    }
    // The environment form shares the contract, with the source named in
    // the diagnostic so the user knows *where* the bad value came from.
    let (code, _, stderr) = run_env(
        &["run", "--network", "tiny"],
        &[("SECULATOR_BACKEND", "frobnicate")],
    );
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("invalid value for SECULATOR_BACKEND"),
        "{stderr}"
    );
}

/// Regression: requesting the hardware backend on a host without
/// AES-NI/SHA-NI must exit 2 with a diagnostic naming the backend and
/// the reason — never fall back silently to software (that would turn
/// an operator's explicit constant-time hardware pin into a variable-
/// time T-table run). `SECULATOR_CPU_FEATURES=none` masks detection so
/// the test behaves identically on AES-NI and non-AES-NI hosts.
#[test]
fn aesni_backend_without_hardware_is_rejected_with_a_diagnostic() {
    let (code, _, stderr) = run_env(
        &["run", "--network", "tiny", "--backend", "aesni"],
        &[("SECULATOR_CPU_FEATURES", "none")],
    );
    assert_eq!(code, Some(2), "unsupported backend is exit 2: {stderr}");
    assert!(
        stderr.contains("--backend aesni rejected") && stderr.contains("not supported"),
        "diagnostic names the flag and reason: {stderr}"
    );
    let (code, _, stderr) = run_env(
        &["run", "--network", "tiny"],
        &[
            ("SECULATOR_CPU_FEATURES", "none"),
            ("SECULATOR_BACKEND", "aesni"),
        ],
    );
    assert_eq!(code, Some(2), "env form shares the contract: {stderr}");
    assert!(
        stderr.contains("SECULATOR_BACKEND aesni rejected"),
        "{stderr}"
    );
    // `auto` under the same mask is not an error — it degrades to the
    // portable backend by design.
    let (code, stdout, stderr) = run_env(
        &["run", "--network", "tiny", "--backend", "auto"],
        &[("SECULATOR_CPU_FEATURES", "none")],
    );
    assert_eq!(code, Some(0), "auto degrades cleanly: {stdout}\n{stderr}");
}

/// The crypto backend must never leak into observable output: a crash
/// campaign (journaled inference, mid-run cuts, resume) is byte-identical
/// under every backend this host can run. This is the end-to-end form of
/// the cross-backend differential suite.
#[test]
fn crash_campaign_is_backend_invariant() {
    let args = ["crash-campaign", "--seed", "5", "--cuts", "3"];
    let (code, portable, _) = run_env(&args, &[("SECULATOR_BACKEND", "portable")]);
    assert_eq!(code, Some(0), "portable run passes: {portable}");
    let (code, bitsliced, _) = run_env(&args, &[("SECULATOR_BACKEND", "bitsliced")]);
    assert_eq!(code, Some(0), "bitsliced run passes: {bitsliced}");
    assert_eq!(
        portable, bitsliced,
        "backend choice must not change campaign output"
    );
    let (code, auto, _) = run_env(&args, &[("SECULATOR_BACKEND", "auto")]);
    assert_eq!(code, Some(0), "auto run passes: {auto}");
    assert_eq!(
        portable, auto,
        "hardware dispatch must not change campaign output"
    );
}

/// `--threads` joins the shared exit-code contract: zero or a non-number
/// is a usage error (exit 2), never a silent fallback to the default
/// worker count.
#[test]
fn threads_option_shares_the_exit_code_contract() {
    for bad in ["0", "not-a-number", "-1"] {
        let (code, _, stderr) = run_code(&["run", "--network", "tiny", "--threads", bad]);
        assert_eq!(code, Some(2), "--threads {bad} is a usage error: {stderr}");
        assert!(stderr.contains("invalid value for --threads"), "{stderr}");
        assert!(stderr.contains("usage:"), "{stderr}");
    }
    let (code, stdout, _) = run_code(&["run", "--network", "tiny", "--threads", "1"]);
    assert_eq!(
        code,
        Some(0),
        "an explicit valid count still runs: {stdout}"
    );
}

// ───────────────────────── daemon / submit ─────────────────────────

/// `daemon` and `submit` join the usage contract: a missing transport,
/// a missing connect address, an unknown model, or a bad global flag is
/// exit 2 with a diagnostic — never a hang, never a connection attempt.
#[test]
fn daemon_and_submit_usage_errors_exit_2() {
    let (code, _, stderr) = run_code(&["daemon"]);
    assert_eq!(code, Some(2), "daemon without a transport: {stderr}");
    assert!(
        stderr.contains("--listen") && stderr.contains("--loopback"),
        "{stderr}"
    );

    let (code, _, stderr) = run_code(&["submit"]);
    assert_eq!(code, Some(2), "submit without --connect: {stderr}");
    assert!(stderr.contains("--connect"), "{stderr}");

    // Model validation happens before any socket is opened, so a bogus
    // name fails fast even with an unreachable address.
    let (code, _, stderr) = run_code(&["submit", "--connect", "127.0.0.1:1", "--model", "bogus"]);
    assert_eq!(code, Some(2), "unknown model is a usage error: {stderr}");
    assert!(stderr.contains("unknown model"), "{stderr}");

    let (code, _, stderr) = run_code(&["daemon", "--loopback", "--backend", "bogus"]);
    assert_eq!(code, Some(2), "bad backend under daemon: {stderr}");
    assert!(stderr.contains("invalid value for --backend"), "{stderr}");
}

/// The loopback daemon campaign is deterministic per seed and invariant
/// under `--threads` (crypto worker threads) and `--backend` (crypto
/// backend) — the flags must propagate into the daemon, and neither may
/// leak into the wire trace.
#[test]
fn daemon_loopback_campaign_is_deterministic_and_flag_invariant() {
    let args = [
        "daemon",
        "--loopback",
        "--seed",
        "7",
        "--sessions",
        "4",
        "--requests",
        "1",
    ];
    let (code, stdout, _) = run_code(&args);
    assert_eq!(code, Some(0), "loopback campaign must PASS: {stdout}");
    assert!(stdout.contains("verdict: PASS"), "{stdout}");
    assert!(stdout.contains("bad-auth probe: rejected"), "{stdout}");
    assert!(stdout.contains("lifetime collisions: 0"), "{stdout}");
    assert_eq!(
        stdout.matches("[tampered]").count(),
        1,
        "exactly one planted adversary: {stdout}"
    );

    let (_, again, _) = run_code(&args);
    assert_eq!(stdout, again, "same seed must be byte-identical");

    let mut threaded = args.to_vec();
    threaded.extend(["--threads", "3"]);
    let (code, threaded_out, _) = run_code(&threaded);
    assert_eq!(code, Some(0));
    assert_eq!(
        stdout, threaded_out,
        "crypto thread count leaked into the wire trace"
    );

    let mut backed = args.to_vec();
    backed.extend(["--backend", "portable"]);
    let (code, backed_out, _) = run_code(&backed);
    assert_eq!(code, Some(0));
    assert_eq!(
        stdout, backed_out,
        "crypto backend choice leaked into the wire trace"
    );

    let (_, other, _) = run_code(&[
        "daemon",
        "--loopback",
        "--seed",
        "8",
        "--sessions",
        "4",
        "--requests",
        "1",
    ]);
    assert_ne!(stdout, other, "different seed, different trace");
}

/// The `--metrics` snapshot's four wire counters must mirror the
/// daemon's own deterministic stats line *exactly* — the stats struct
/// and the telemetry registry are incremented at the same sites, so any
/// divergence is a lost or double count.
#[test]
fn daemon_loopback_metrics_counters_match_the_daemon_stats_line() {
    let path = scratch("daemon-metrics.json");
    let path_s = path.to_str().expect("utf-8 temp path");
    let (code, stdout, _) = run_code(&[
        "daemon",
        "--loopback",
        "--seed",
        "7",
        "--sessions",
        "4",
        "--requests",
        "1",
        "--metrics",
        path_s,
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    let metrics = std::fs::read_to_string(&path).expect("--metrics file written");
    std::fs::remove_file(&path).ok();
    assert!(
        metrics.contains("\"schema\": \"seculator-telemetry-v1\""),
        "{metrics}"
    );
    if !cfg!(feature = "telemetry") {
        assert!(metrics.contains("\"enabled\": false"), "{metrics}");
        return;
    }
    let line = stdout
        .lines()
        .find(|l| l.starts_with("daemon seed="))
        .expect("daemon stats line in the summary");
    let stats: Vec<u64> = line
        .split(": ")
        .nth(1)
        .expect("stats after the seed")
        .split(", ")
        .map(|part| {
            part.split_whitespace()
                .next()
                .expect("leading number")
                .parse()
                .expect("numeric stat")
        })
        .collect();
    assert_eq!(stats.len(), 4, "{line}");
    for (counter, expected) in [
        "connections_accepted",
        "requests_served",
        "auth_failures",
        "drain_flushes",
    ]
    .iter()
    .zip(&stats)
    {
        assert_eq!(
            json_u64(&metrics, counter),
            *expected,
            "telemetry `{counter}` diverged from the daemon stats line\n{metrics}\n{line}"
        );
    }
}

/// End-to-end over real TCP: a client with the wrong device seed is
/// rejected with a breach diagnostic (exit 1) without consuming the
/// request budget; a client with the right seed is served a verified
/// digest (exit 0); and the daemon exits cleanly once `--max-requests`
/// is reached.
#[test]
fn tcp_daemon_rejects_bad_auth_and_serves_good_requests() {
    let port_file = scratch("daemon-port");
    std::fs::remove_file(&port_file).ok();
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_seculator"))
        .args([
            "daemon",
            "--listen",
            "127.0.0.1:0",
            "--port-file",
            port_file.to_str().expect("utf-8 temp path"),
            "--seed",
            "42",
            "--max-requests",
            "1",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("daemon spawns");

    let mut addr = String::new();
    for _ in 0..400 {
        if let Ok(s) = std::fs::read_to_string(&port_file) {
            if !s.trim().is_empty() {
                addr = s.trim().to_string();
                break;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    assert!(!addr.is_empty(), "daemon never wrote its --port-file");

    // Wrong seed → wrong derived key → possession proof rejected.
    let (code, _, stderr) = run_code(&["submit", "--connect", &addr, "--seed", "43"]);
    assert_eq!(code, Some(1), "bad auth must exit 1: {stderr}");
    assert!(stderr.contains("authentication rejected"), "{stderr}");
    assert!(
        stderr.contains("breach of wire trust"),
        "the diagnostic names the security posture: {stderr}"
    );

    // Right seed → admitted, served, digest delivered.
    let (code, stdout, stderr) = run_code(&[
        "submit",
        "--connect",
        &addr,
        "--seed",
        "42",
        "--model",
        "mlp",
    ]);
    assert_eq!(code, Some(0), "clean submit must exit 0: {stdout}{stderr}");
    assert!(stdout.contains("admitted at scheduler round"), "{stdout}");
    assert!(stdout.contains("digest="), "{stdout}");

    let status = daemon.wait().expect("daemon exits after --max-requests");
    assert!(status.success(), "daemon must exit 0 after a bounded run");
    std::fs::remove_file(&port_file).ok();
}
