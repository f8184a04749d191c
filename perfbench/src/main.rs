//! `perfbench --workload <serve-fleet|serve-pair|sim-zoo|all> --seed <n>
//! --seconds <s> --trace <0|1>`: runs one workload and prints, last, one
//! JSON line with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). `all` runs each workload in its own process.
//! `perfbench expected` prints the sim-zoo expected statistics.
//!
//! Exit codes: 0 all outputs correct, 1 a wrong output or a failed
//! check, 2 usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use seculator_perfbench::serve::{self, ServeSpec};
use seculator_perfbench::trace::Tracer;
use seculator_perfbench::{per_layer, zoo, Report, END_TO_END};

const WORKLOADS: [&str; 3] = ["serve-fleet", "serve-pair", "sim-zoo"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => a.workload.clone_from(value),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad())?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

fn run_one(a: &Args) -> Result<(Report, Tracer), String> {
    match a.workload.as_str() {
        "serve-fleet" => serve::run(&ServeSpec::fleet(), a.seed, a.seconds, a.trace),
        "serve-pair" => serve::run(&ServeSpec::pair(), a.seed, a.seconds, a.trace),
        _ => Ok(zoo::run(a.seed, a.seconds, a.trace)),
    }
}

/// Runs every workload in a child process of its own, in turn.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut worst = 0u8;
    for w in WORKLOADS {
        let mut child_args: Vec<String> = args.to_vec();
        let i = child_args
            .iter()
            .position(|x| x == "all")
            .expect("--workload all");
        child_args[i] = w.to_string();
        println!("== {w}");
        let status = std::process::Command::new(&exe).args(&child_args).status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{w} exited with {s}");
                worst = worst.max(s.code().map_or(1, |c| u8::try_from(c).unwrap_or(1)));
            }
            Err(e) => {
                eprintln!("cannot run {w}: {e}");
                worst = worst.max(1);
            }
        }
    }
    ExitCode::from(worst)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("expected") {
        let z = zoo::Zoo::set_up(
            seculator_models::zoo::paper_benchmarks,
            &mut Tracer::new(false),
        );
        print!("{}", z.expected_tsv());
        return ExitCode::SUCCESS;
    }
    let a = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if a.workload == "all" {
        return run_all(&args);
    }
    let (report, tracer) = match run_one(&a) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", a.workload);
            return ExitCode::from(1);
        }
    };
    for line in &report.notes {
        println!("{line}");
    }
    if a.trace {
        let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
            .join(format!("trace-{}-seed{}.tsv", a.workload, a.seed));
        match tracer.write(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }
    let metrics: Vec<(String, &str)> = if a.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_string(), *u))
            .collect()
    };
    println!("{}", report.json(&metrics));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
