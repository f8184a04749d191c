//! Smoke tests running the `figures` harness binary itself, so the
//! experiment surface cannot silently bit-rot: each fast experiment must
//! exit 0 and print its expected headline markers.

use std::process::Command;

fn run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures binary runs");
    assert!(out.status.success(), "`figures {args:?}` failed: {:?}", out);
    String::from_utf8(out.stdout).expect("utf8 output")
}

#[test]
fn table2_prints_all_nine_rows_with_validated_patterns() {
    let out = run(&["table2"]);
    assert!(out.contains("P1:Multi-step"));
    assert!(out.contains("P2:Step"));
    assert!(out.contains("P5:Line"));
    assert_eq!(out.matches("WP:").count(), 9, "nine dataflow rows");
}

#[test]
fn table5_lists_all_six_designs() {
    let out = run(&["table5"]);
    for name in [
        "baseline",
        "secure",
        "tnpu",
        "guardnn",
        "seculator",
        "seculator+",
    ] {
        assert!(out.contains(name), "missing {name}");
    }
}

#[test]
fn table6_reports_paper_and_model_columns() {
    let out = run(&["table6"]);
    assert!(out.contains("AES-128"));
    assert!(out.contains("VN generator"));
    assert!(out.contains("3900"), "paper area value present");
}

#[test]
fn table7_shows_the_register_budget() {
    let out = run(&["table7"]);
    assert!(out.contains("seculator"));
    assert!(
        out.contains("272"),
        "Seculator's constant 272-byte footprint"
    );
}

/// An unknown id or flag, a second id, and a `--metrics` without its
/// path exit 2 and run nothing. An unknown id is named as unknown
/// whatever flags come with it, and writes no file.
#[test]
fn unknown_experiment_fails_cleanly() {
    let metrics = std::env::temp_dir().join(format!("figures-unknown-{}.json", std::process::id()));
    let path = metrics.to_str().expect("utf-8 path");
    for args in [
        &["not-an-experiment"][..],
        &["table1", "--quik"],
        &["table1", "--metrics"],
        &["table1", "table2"],
        &["nosuch", "--check"],
        &["nosuch", "--metrics", path],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(args)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "`figures {args:?}`: {out:?}");
        assert!(out.stdout.is_empty(), "nothing may run: {out:?}");
        if args[0] == "nosuch" {
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains("unknown experiment id `nosuch`"),
                "{stderr}"
            );
            assert!(!metrics.exists(), "`figures {args:?}` wrote {path}");
        }
    }
}

/// Only `throughput`, `compute`, `serve`, `daemon` and `all` read
/// `--quick`, `--check` or `--metrics`; any other id given one of them
/// exits 2, runs nothing and writes no file. The id is the first
/// argument that is neither a flag nor the value of `--metrics`.
#[test]
fn a_flag_the_experiment_does_not_read_is_refused() {
    let metrics = std::env::temp_dir().join(format!("figures-cli-{}.json", std::process::id()));
    let path = metrics.to_str().expect("utf-8 path");
    for (args, refusal) in [
        (
            &["table1", "--check"][..],
            "`table1` does not take `--check`",
        ),
        (
            &["table1", "--metrics", path],
            "`table1` does not take `--metrics`",
        ),
        (
            &["--metrics", path, "table1"],
            "`table1` does not take `--metrics`",
        ),
        (&["fig7", "--quick"], "`fig7` does not take `--quick`"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(args)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "`figures {args:?}`: {out:?}");
        assert!(out.stdout.is_empty(), "nothing may run: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(refusal), "{stderr}");
        assert!(!metrics.exists(), "`figures {args:?}` wrote {path}");
    }
}

#[test]
fn json_export_is_parseable_shape() {
    let out = run(&["json"]);
    let payload = out.lines().last().expect("payload line");
    assert!(payload.starts_with('[') && payload.ends_with(']'));
    assert!(payload.contains("\"workload\":\"VGG16\""));
    assert!(payload.contains("\"scheme\":\"seculator\""));
    // 5 workloads × 5 schemes.
    assert_eq!(payload.matches("{\"workload\"").count(), 25);
}
