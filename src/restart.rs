//! Phase B of `seculator restart-campaign`: the *real* process-restart
//! sweep. Where `core::durable::run_restart_vfs_campaign` kills the
//! engine in-process (so it can model page-cache loss and injected
//! storage faults deterministically), this driver spawns the engine as a
//! child process (`seculator restart-worker`), lets a seeded
//! [`CrashClock`] pick the instant, and has the worker deliver a genuine
//! `SIGKILL` to itself at that instant — no destructors, no flushes.
//! The parent then verifies the death was by signal, reopens the same
//! on-disk home in fresh processes until the inference completes, and
//! asserts the resumed output is bit-identical to the uninterrupted
//! reference, that no nonce epoch ever repeats across process lives
//! (pad-reuse freedom, proven from the persisted ledger + journal), and
//! that every injected on-disk corruption is refused with a typed
//! verdict rather than a panic or a wrong answer.

use std::io;
use std::os::unix::process::ExitStatusExt;
use std::path::Path;
use std::process::Command;

use seculator::core::{
    audit_home, campaign_models, infer_plain, output_digest, splitmix, tamper_frame_fix_crc,
    CampaignModel, RestartPolicy, StdVfs, FILE_MAGIC, JOURNAL_FILE,
};

/// What the parent does to the on-disk home between the kill and the
/// first resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcVariant {
    /// Kill once, resume until done.
    Kill,
    /// Kill, resume under a second armed cut, then resume clean.
    DoubleKill,
    /// Flip a journal payload byte and re-seal the CRC: framing stays
    /// valid, so only the sealed tag can catch it. Must be refused.
    TamperCrcFixed,
    /// Truncate the journal mid-frame: torn-tail repair must handle it
    /// benignly, or the preloaded pad oracle must refuse the rollback.
    TruncateMidFrame,
}

impl ProcVariant {
    const ALL: [Self; 4] = [
        Self::Kill,
        Self::DoubleKill,
        Self::TamperCrcFixed,
        Self::TruncateMidFrame,
    ];

    fn name(self) -> &'static str {
        match self {
            Self::Kill => "kill",
            Self::DoubleKill => "double-kill",
            Self::TamperCrcFixed => "tamper-crc-fixed",
            Self::TruncateMidFrame => "truncate-mid-frame",
        }
    }
}

/// One process-level trial.
#[derive(Debug)]
pub struct ProcTrial {
    /// Model name.
    pub model: &'static str,
    /// Seeded kill instant (engine steps + checkpoint beats).
    pub cut: u64,
    /// Adversary variant name.
    pub variant: &'static str,
    /// Processes spawned for this trial (killed + resumed).
    pub lives: u32,
    /// Deaths the parent observed as signal terminations.
    pub kills: u32,
    /// Stable outcome label.
    pub outcome: String,
    /// Whether the trial met its variant's bar.
    pub pass: bool,
}

/// The phase-B report. `to_text` is deterministic per seed — no paths,
/// no pids — so CI can diff two runs byte-for-byte.
#[derive(Debug)]
pub struct ProcessCampaignReport {
    /// Root seed.
    pub seed: u64,
    /// Every trial.
    pub trials: Vec<ProcTrial>,
    /// Trials that met their bar.
    pub passes: u32,
    /// Trials that did not (must be 0).
    pub failures: u32,
    /// Typed refusals observed (adversary variants).
    pub refusals: u32,
    /// Signal deaths observed across all trials.
    pub kills: u32,
}

impl ProcessCampaignReport {
    /// `true` when every trial met its bar and at least one ran.
    #[must_use]
    pub fn pass(&self) -> bool {
        self.failures == 0 && !self.trials.is_empty()
    }

    /// Deterministic text form.
    #[must_use]
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "restart campaign (process kill -9) seed={}", self.seed);
        for t in &self.trials {
            let _ = writeln!(
                s,
                "  {} {} cut={} lives={} kills={} outcome={} {}",
                t.model,
                t.variant,
                t.cut,
                t.lives,
                t.kills,
                t.outcome,
                if t.pass { "PASS" } else { "FAIL" },
            );
        }
        let _ = writeln!(
            s,
            "  process trials={} passes={} failures={} refusals={} signal_deaths={}",
            self.trials.len(),
            self.passes,
            self.failures,
            self.refusals,
            self.kills,
        );
        let _ = writeln!(
            s,
            "  verdict: {}",
            if self.pass() { "PASS" } else { "FAIL" }
        );
        s
    }
}

/// Parsed `key=value` lines from a successful worker's stdout.
struct WorkerReport {
    digest: Option<u64>,
    steps: Option<u64>,
    security: Option<String>,
}

fn parse_worker(stdout: &str) -> WorkerReport {
    let field = |key: &str| {
        stdout.lines().find_map(|l| {
            l.strip_prefix(key)
                .and_then(|r| r.strip_prefix('='))
                .map(str::to_owned)
        })
    };
    WorkerReport {
        digest: field("digest").and_then(|v| u64::from_str_radix(&v, 16).ok()),
        steps: field("steps").and_then(|v| v.parse().ok()),
        security: field("security"),
    }
}

struct WorkerRun {
    status: std::process::ExitStatus,
    report: WorkerReport,
}

/// Spawns one worker life. `cut` is `Some(step)` for an armed clock,
/// `None` for an uninterrupted life; `count` asks the worker to report
/// its interruptible-instant total.
fn spawn_worker(
    exe: &Path,
    model: &str,
    home: &Path,
    cut: Option<u64>,
    count: bool,
) -> io::Result<WorkerRun> {
    let cut_arg = match (cut, count) {
        (_, true) => "count".to_owned(),
        (Some(n), false) => n.to_string(),
        (None, false) => "none".to_owned(),
    };
    let out = Command::new(exe)
        .args(["restart-worker", "--model", model, "--home"])
        .arg(home)
        .args(["--cut", &cut_arg])
        .output()?;
    Ok(WorkerRun {
        status: out.status,
        report: parse_worker(&String::from_utf8_lossy(&out.stdout)),
    })
}

/// The post-kill audit every completed trial must survive: epochs
/// strictly increasing across lives (no nonce reuse → no pad reuse) and
/// a ledger free of duplicate pad claims.
fn home_audit_ok(home: &Path, model: &CampaignModel) -> bool {
    let Ok(mut vfs) = StdVfs::create(home) else {
        return false;
    };
    match audit_home(&mut vfs, &model.session) {
        Ok(a) => a.epochs_strictly_increasing && a.duplicate_pads == 0,
        Err(_) => false,
    }
}

/// Resumes the home until the inference completes, a typed verdict
/// lands, or the [`RestartPolicy`] bound trips. Returns
/// `(outcome, lives_used, kills_observed)`.
fn resume_until_done(
    exe: &Path,
    model: &CampaignModel,
    home: &Path,
    reference: u64,
    second_cut: Option<u64>,
) -> (String, u32, u32) {
    let mut lives = 0u32;
    let mut kills = 0u32;
    let mut next_cut = second_cut;
    let bound = RestartPolicy::default().max_process_resumes;
    while lives < bound {
        lives += 1;
        let run = match spawn_worker(exe, model.name, home, next_cut.take(), false) {
            Ok(r) => r,
            Err(e) => return (format!("spawn-error:{}", e.kind()), lives, kills),
        };
        if run.status.signal().is_some() {
            kills += 1;
            continue;
        }
        return match run.status.code() {
            Some(0) => {
                let label = if run.report.digest == Some(reference) {
                    "bit-exact"
                } else {
                    "WRONG-OUTPUT"
                };
                (label.to_owned(), lives, kills)
            }
            Some(3) => {
                let class = run
                    .report
                    .security
                    .unwrap_or_else(|| "unlabelled".to_owned());
                (format!("refused:{class}"), lives, kills)
            }
            Some(4) => ("refused:aborted".to_owned(), lives, kills),
            code => (format!("worker-error:{code:?}"), lives, kills),
        };
    }
    ("wedged".to_owned(), lives, kills)
}

/// Per-model invariants shared by every trial: the worker binary, the
/// model, its uninterrupted reference digest, and the calibrated
/// interruptible-instant count.
struct TrialCtx<'a> {
    exe: &'a Path,
    model: &'a CampaignModel,
    reference: u64,
    steps: u64,
}

fn run_trial(
    ctx: &TrialCtx,
    home: &Path,
    cut: u64,
    variant: ProcVariant,
    rng: &mut u64,
) -> ProcTrial {
    let TrialCtx {
        exe,
        model,
        reference,
        steps,
    } = *ctx;
    // Life 1: armed at the seeded instant; must die by a real signal.
    let first = match spawn_worker(exe, model.name, home, Some(cut), false) {
        Ok(r) => r,
        Err(e) => {
            return ProcTrial {
                model: model.name,
                cut,
                variant: variant.name(),
                lives: 1,
                kills: 0,
                outcome: format!("spawn-error:{}", e.kind()),
                pass: false,
            }
        }
    };
    if first.status.signal().is_none() {
        return ProcTrial {
            model: model.name,
            cut,
            variant: variant.name(),
            lives: 1,
            kills: 0,
            outcome: format!("no-signal-death:{:?}", first.status.code()),
            pass: false,
        };
    }

    // Between-lives adversary. Mutations use std::fs directly: the
    // worker's own I/O goes through `StdVfs`, but the adversary models
    // an attacker with raw access to the medium.
    let journal = home.join(JOURNAL_FILE);
    let mut effective = variant;
    match variant {
        ProcVariant::Kill | ProcVariant::DoubleKill => {}
        ProcVariant::TamperCrcFixed => {
            let mut bytes = std::fs::read(&journal).unwrap_or_default();
            if tamper_frame_fix_crc(&mut bytes, 0, splitmix(rng)) {
                if std::fs::write(&journal, &bytes).is_err() {
                    effective = ProcVariant::Kill;
                }
            } else {
                // No complete frame reached disk before the kill —
                // nothing to tamper with; the trial degrades to a pure
                // kill/resume check.
                effective = ProcVariant::Kill;
            }
        }
        ProcVariant::TruncateMidFrame => {
            let bytes = std::fs::read(&journal).unwrap_or_default();
            if bytes.len() > FILE_MAGIC.len() + 1 {
                let span = (bytes.len() - FILE_MAGIC.len()) as u64;
                let keep = FILE_MAGIC.len() + 1 + (splitmix(rng) % (span - 1)) as usize;
                if std::fs::write(&journal, &bytes[..keep]).is_err() {
                    effective = ProcVariant::Kill;
                }
            } else {
                effective = ProcVariant::Kill;
            }
        }
    }

    let second_cut = match effective {
        ProcVariant::DoubleKill => Some((cut / 2).min(steps.saturating_sub(1))),
        _ => None,
    };
    let (outcome, resume_lives, resume_kills) =
        resume_until_done(exe, model, home, reference, second_cut);
    let lives = 1 + resume_lives;
    let kills = 1 + resume_kills;

    let audited = outcome.starts_with("refused:") || home_audit_ok(home, model);
    let pass = audited
        && match effective {
            ProcVariant::Kill | ProcVariant::DoubleKill => outcome == "bit-exact",
            ProcVariant::TamperCrcFixed => outcome == "refused:journal-integrity",
            // Mid-frame truncation is byte-identical to a torn append:
            // benign repair (then bit-exact completion) is correct, and
            // if the cut amputated a whole epoch the preloaded pad
            // oracle must catch the rollback as counter reuse.
            ProcVariant::TruncateMidFrame => {
                outcome == "bit-exact" || outcome == "refused:counter-reuse"
            }
        };
    ProcTrial {
        model: model.name,
        cut,
        variant: effective.name(),
        lives,
        kills,
        outcome,
        pass,
    }
}

/// Runs the process-restart sweep: per model, one calibration child
/// (counts the interruptible instants and pins the reference digest),
/// then `cuts_per_model` kill trials rotating through the adversary
/// variants. Every trial gets a fresh home directory under the system
/// temp dir; all of them are removed before returning.
pub fn run_process_campaign(seed: u64, cuts_per_model: u32) -> ProcessCampaignReport {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            return ProcessCampaignReport {
                seed,
                trials: vec![ProcTrial {
                    model: "-",
                    cut: 0,
                    variant: "setup",
                    lives: 0,
                    kills: 0,
                    outcome: format!("no-current-exe:{}", e.kind()),
                    pass: false,
                }],
                passes: 0,
                failures: 1,
                refusals: 0,
                kills: 0,
            }
        }
    };
    let base =
        std::env::temp_dir().join(format!("seculator-restart-{}-{seed:x}", std::process::id()));
    let mut rng = seed ^ 0x0DEA_D0C0_DE5E_C001;
    let mut trials = Vec::new();

    for model in &campaign_models() {
        let reference = output_digest(&infer_plain(
            &model.layers,
            &model.input,
            model.session.shift,
        ));
        let calib_home = base.join(format!("calib-{}", model.name));
        let calib = spawn_worker(&exe, model.name, &calib_home, None, true);
        let _ = std::fs::remove_dir_all(&calib_home);
        let steps = match calib {
            Ok(r) if r.status.code() == Some(0) && r.report.digest == Some(reference) => {
                r.report.steps.unwrap_or(0)
            }
            _ => 0,
        };
        if steps == 0 {
            trials.push(ProcTrial {
                model: model.name,
                cut: 0,
                variant: "calibration",
                lives: 1,
                kills: 0,
                outcome: "calibration-mismatch".to_owned(),
                pass: false,
            });
            continue;
        }
        for i in 0..cuts_per_model {
            let cut = splitmix(&mut rng) % steps;
            let variant = ProcVariant::ALL[i as usize % ProcVariant::ALL.len()];
            let home = base.join(format!("{}-{i}", model.name));
            let ctx = TrialCtx {
                exe: &exe,
                model,
                reference,
                steps,
            };
            let trial = run_trial(&ctx, &home, cut, variant, &mut rng);
            let _ = std::fs::remove_dir_all(&home);
            trials.push(trial);
        }
    }
    let _ = std::fs::remove_dir_all(&base);

    let passes = trials.iter().filter(|t| t.pass).count() as u32;
    let failures = trials.len() as u32 - passes;
    let refusals = trials
        .iter()
        .filter(|t| t.outcome.starts_with("refused:"))
        .count() as u32;
    let kills = trials.iter().map(|t| t.kills).sum();
    ProcessCampaignReport {
        seed,
        trials,
        passes,
        failures,
        refusals,
        kills,
    }
}
