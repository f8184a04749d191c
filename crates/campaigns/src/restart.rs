//! The restart campaign: durable persistence under process death, in
//! two phases over the campaign models.
//!
//! - **VFS phase.** Kills the engine in-process behind the
//!   fault-injecting [`FaultVfs`], so it can model page-cache loss and
//!   injected storage faults deterministically: power cuts that drop
//!   non-fsynced writes, short writes, torn renames, bit rot and lost
//!   fsyncs, plus the adversary moves of [`RestartVariant`]. This phase
//!   is *stronger* than a real `kill -9`.
//! - **Process phase.** Spawns the engine as a child process
//!   (`seculator restart-worker`), lets a seeded crash clock pick the
//!   instant, and has the worker deliver a genuine `SIGKILL` to itself
//!   at that instant — no destructors, no flushes. The parent verifies
//!   the death was by signal, reopens the same on-disk home in fresh
//!   processes until the inference completes, and checks the resumed
//!   output against the uninterrupted reference.
//!
//! In both phases every completed trial must pass the home audit (no
//! nonce epoch repeats across lives, no duplicate pad in the persisted
//! ledger), every injected on-disk corruption must be refused with a
//! typed verdict rather than a panic or a wrong answer, a trial resumes
//! at most `MAX_PROCESS_RESUMES` times, and each phase ends with the
//! same totals line and verdict.

use std::fmt::Write as _;
use std::io;
use std::os::unix::process::ExitStatusExt;
use std::path::Path;
use std::process::Command;

use crate::{verdict, Report};
use seculator_compute::quant::QTensor3;
use seculator_core::{
    audit_home, campaign_models, infer_plain, output_digest, run_persistent, scan_frames, splitmix,
    tamper_frame_fix_crc, CampaignModel, CrashClock, DurableError, FaultVfs, PersistentOutcome,
    PersistentStats, StdVfs, Vfs, VfsFault, VfsFaultKind, DRAM_FILE, FILE_MAGIC, JOURNAL_FILE,
};

/// How many times either phase may reopen a home and resume after a
/// process death or an injected storage fault before it declares the
/// home wedged. Security verdicts are never retried — this bounds only
/// the availability loop.
const MAX_PROCESS_RESUMES: u32 = 8;

/// What the adversary (or the medium) does around an in-process death.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartVariant {
    /// Kill, reopen, resume. Must be bit-exact.
    Pure,
    /// Kill the resume too; the third life must still converge.
    DoubleKill,
    /// Seeded VFS faults (short writes, lying fsyncs, torn renames)
    /// during the resumed lives; bounded retries must converge bit-exact.
    VfsFaults,
    /// Flip one stable bit of the journal file. Reopen must refuse with
    /// the typed *corruption* verdict — or, if the flip landed in the
    /// torn tail, repair benignly and finish bit-exact.
    BitRot,
    /// Flip a sealed-payload byte *and fix the frame CRC*. The framing
    /// is now consistent, so only the device-secret tag can catch it:
    /// reopen must refuse with the typed *tamper* verdict.
    TamperCrcFixed,
    /// Truncate the journal file at a seeded offset (rollback attack).
    /// Must finish bit-exact or fail closed on pad reuse via the
    /// ledger-reseeded oracle.
    TruncateTail,
    /// Flip a DRAM-snapshot byte and fix the CRC. DRAM is untrusted:
    /// the MAC machinery must roll back and still finish bit-exact.
    TamperDram,
}

impl RestartVariant {
    /// All variants, rotation order.
    pub const ALL: [Self; 7] = [
        Self::Pure,
        Self::DoubleKill,
        Self::VfsFaults,
        Self::BitRot,
        Self::TamperCrcFixed,
        Self::TruncateTail,
        Self::TamperDram,
    ];

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Pure => "pure",
            Self::DoubleKill => "double-kill",
            Self::VfsFaults => "vfs-faults",
            Self::BitRot => "bit-rot",
            Self::TamperCrcFixed => "tamper-crc-fixed",
            Self::TruncateTail => "truncate-tail",
            Self::TamperDram => "tamper-dram",
        }
    }
}

/// One VFS-phase trial's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestartTrial {
    /// Model name.
    pub model: &'static str,
    /// Kill instant (step index into the calibrated instant space).
    pub cut: u64,
    /// Adversary variant.
    pub variant: RestartVariant,
    /// Process lives spent after the first kill (resume attempts).
    pub resumes: u32,
    /// Stable outcome label (`bit-exact`, `refused:<class>`, ...).
    pub outcome: String,
    /// Armed VFS faults that actually fired during this trial.
    pub faults_fired: u64,
    /// Whether the trial met its variant's acceptance bar.
    pub pass: bool,
}

/// What the parent does to the on-disk home between a real kill and
/// the first resume.
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

/// One process-phase trial.
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// The pass, failure and refusal counts each phase ends with.
#[derive(Debug, Clone, Copy)]
struct Tally {
    trials: u32,
    passes: u32,
    /// Typed refusals (an `outcome` of `refused:<class>`).
    refusals: u32,
}

impl Tally {
    fn of<'a>(trials: impl Iterator<Item = (bool, &'a str)>) -> Self {
        let mut tally = Self {
            trials: 0,
            passes: 0,
            refusals: 0,
        };
        for (pass, outcome) in trials {
            tally.trials += 1;
            tally.passes += u32::from(pass);
            tally.refusals += u32::from(outcome.starts_with("refused:"));
        }
        tally
    }

    fn failures(&self) -> u32 {
        self.trials - self.passes
    }

    /// Whether at least one trial ran and every trial met its bar.
    fn passed(&self) -> bool {
        self.trials > 0 && self.failures() == 0
    }

    /// The block a phase's report ends with: the totals line (`extra`
    /// carrying the phase's own counter), any `detail` lines, and the
    /// verdict.
    fn close(&self, label: &str, extra: &str, detail: &str) -> String {
        format!(
            "  {label}trials={} passes={} failures={} refusals={} {extra}\n{detail}  verdict: {}\n",
            self.trials,
            self.passes,
            self.failures(),
            self.refusals,
            verdict(self.passed())
        )
    }
}

/// Both phases' results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestartReport {
    /// Root seed.
    pub seed: u64,
    /// VFS phase: interruptible-instant space per model, calibration
    /// order.
    pub instants: Vec<(&'static str, u64)>,
    /// VFS phase: every trial.
    pub trials: Vec<RestartTrial>,
    /// VFS phase: durable-layer activity, summed over every process life
    /// of every trial — conservation-tested against telemetry.
    pub stats: PersistentStats,
    /// Process phase: every trial; `None` when the phase was skipped.
    pub process: Option<Vec<ProcTrial>>,
}

impl RestartReport {
    fn vfs_tally(&self) -> Tally {
        Tally::of(self.trials.iter().map(|t| (t.pass, t.outcome.as_str())))
    }

    fn process_tally(&self) -> Option<Tally> {
        self.process
            .as_ref()
            .map(|trials| Tally::of(trials.iter().map(|t| (t.pass, t.outcome.as_str()))))
    }
}

impl Report for RestartReport {
    fn passed(&self) -> bool {
        self.vfs_tally().passed() && self.process_tally().is_none_or(|t| t.passed())
    }

    fn summary(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "restart campaign (in-process vfs) seed={}", self.seed);
        for (model, n) in &self.instants {
            let _ = writeln!(s, "  model {model}: {n} interruptible instants");
        }
        for t in &self.trials {
            let _ = writeln!(
                s,
                "  [{}] {} cut={} variant={} resumes={} outcome={}",
                if t.pass { "pass" } else { "FAIL" },
                t.model,
                t.cut,
                t.variant.name(),
                t.resumes,
                t.outcome
            );
        }
        let fired: u64 = self.trials.iter().map(|t| t.faults_fired).sum();
        let durable = format!(
            "  durable: fsyncs={} snapshots_compacted={} torn_tails_repaired={} restart_resumes={}\n",
            self.stats.fsyncs,
            self.stats.snapshots_compacted,
            self.stats.torn_tails_repaired,
            self.stats.restart_resumes
        );
        s.push_str(&self.vfs_tally().close(
            "totals: ",
            &format!("vfs_faults_fired={fired}"),
            &durable,
        ));
        s.push('\n');
        let (Some(trials), Some(process)) = (&self.process, self.process_tally()) else {
            s.push_str("restart campaign (process kill -9): skipped (--proc-cuts 0)");
            return s;
        };
        let _ = writeln!(s, "restart campaign (process kill -9) seed={}", self.seed);
        for t in trials {
            let _ = writeln!(
                s,
                "  {} {} cut={} lives={} kills={} outcome={} {}",
                t.model,
                t.variant,
                t.cut,
                t.lives,
                t.kills,
                t.outcome,
                verdict(t.pass),
            );
        }
        let kills: u32 = trials.iter().map(|t| t.kills).sum();
        s.push_str(&process.close("process ", &format!("signal_deaths={kills}"), ""));
        s
    }
}

/// Runs both phases: `cuts_per_model` seeded in-process kills per model
/// behind the fault-injecting VFS, then `proc_cuts` real process kills
/// per model (0 skips the process phase). The VFS phase and the text
/// of both are byte-identical per seed — no paths, no pids.
#[must_use]
pub fn run_restart_campaign(seed: u64, cuts_per_model: u32, proc_cuts: u32) -> RestartReport {
    let models = campaign_models();
    let mut rng = seed ^ 0x5EC0_1A70_0D15_C0DE;
    let mut trials = Vec::new();
    let mut instants = Vec::new();
    let mut stats = PersistentStats::default();

    for model in &models {
        let reference = infer_plain(&model.layers, &model.input, model.session.shift);
        // Calibration: count every interruptible instant of a full
        // persistent run (engine ticks + checkpoint beats).
        let mut cal_vfs = FaultVfs::new();
        let mut cal_clock = CrashClock::counting();
        let cal = run_persistent(
            &model.layers,
            &model.input,
            &model.session,
            &mut cal_vfs,
            Some(&mut cal_clock),
            &mut stats,
        );
        let steps = cal_clock.steps();
        instants.push((model.name, steps));
        let calibrated = matches!(&cal, Ok(out) if out.run.output == reference);
        if !calibrated || steps == 0 {
            trials.push(RestartTrial {
                model: model.name,
                cut: 0,
                variant: RestartVariant::Pure,
                resumes: 0,
                outcome: "calibration-mismatch".to_owned(),
                faults_fired: 0,
                pass: false,
            });
            continue;
        }
        for i in 0..cuts_per_model {
            let cut = splitmix(&mut rng) % steps;
            let variant = RestartVariant::ALL[i as usize % RestartVariant::ALL.len()];
            trials.push(run_vfs_trial(
                model, &reference, cut, variant, &mut rng, &mut stats,
            ));
        }
    }

    RestartReport {
        seed,
        instants,
        trials,
        stats,
        process: (proc_cuts > 0).then(|| run_process_phase(seed, proc_cuts)),
    }
}

/// The home audit every completed trial must survive: epochs strictly
/// increasing across lives (no nonce reuse → no pad reuse) and a ledger
/// free of duplicate pad claims.
fn audit_ok(vfs: &mut dyn Vfs, model: &CampaignModel) -> bool {
    matches!(
        audit_home(vfs, &model.session),
        Ok(a) if a.duplicate_pads == 0 && a.epochs_strictly_increasing
    )
}

// ---------------------------------------------------------------------------
// VFS phase
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_lines)]
fn run_vfs_trial(
    model: &CampaignModel,
    reference: &QTensor3,
    cut: u64,
    variant: RestartVariant,
    rng: &mut u64,
    stats: &mut PersistentStats,
) -> RestartTrial {
    let mut vfs = FaultVfs::new();

    // Life 0: armed kill.
    let mut clock = CrashClock::armed(cut);
    let first = run_persistent(
        &model.layers,
        &model.input,
        &model.session,
        &mut vfs,
        Some(&mut clock),
        stats,
    );
    if !matches!(first, Err(DurableError::Crashed(_))) {
        return RestartTrial {
            model: model.name,
            cut,
            variant,
            resumes: 0,
            outcome: format!(
                "calibration-error:{}",
                first.map_or_else(|e| e.class(), |_| "completed")
            ),
            faults_fired: 0,
            pass: false,
        };
    }
    // Process death: the page cache is gone.
    vfs.power_cut();

    // Adversary move while the engine is dead.
    let mut effective = variant;
    let mut second_cut = None;
    match variant {
        RestartVariant::Pure => {}
        RestartVariant::DoubleKill => {
            second_cut = Some(splitmix(rng) % cut.max(1));
        }
        RestartVariant::VfsFaults => {
            // Only the loud (erroring) and lying kinds here: silent
            // decay (bit-rot, truncation) gets dedicated variants below
            // where typed refusal is the expected outcome.
            let base = vfs.ops();
            let kinds = [
                VfsFaultKind::ShortWrite,
                VfsFaultKind::LostFsync,
                VfsFaultKind::TornRename,
            ];
            let faults: Vec<VfsFault> = (0..3)
                .map(|i| VfsFault {
                    at_op: base + 1 + splitmix(rng) % 40,
                    kind: kinds[(splitmix(rng) as usize + i) % kinds.len()],
                    arg: splitmix(rng),
                })
                .collect();
            vfs.arm(faults);
        }
        RestartVariant::BitRot => {
            if let Some(mut bytes) = vfs.stable_get(JOURNAL_FILE) {
                if !bytes.is_empty() {
                    let off = (splitmix(rng) as usize) % bytes.len();
                    bytes[off] ^= 1 << (splitmix(rng) % 8) as u8;
                    vfs.stable_put(JOURNAL_FILE, bytes);
                }
            }
        }
        RestartVariant::TamperCrcFixed => {
            let mut done = false;
            if let Some(mut bytes) = vfs.stable_get(JOURNAL_FILE) {
                if let Ok(scan) = scan_frames("journal", &bytes) {
                    if !scan.frames.is_empty() {
                        let idx = (splitmix(rng) as usize) % scan.frames.len();
                        done = tamper_frame_fix_crc(&mut bytes, idx, splitmix(rng));
                        if done {
                            vfs.stable_put(JOURNAL_FILE, bytes);
                        }
                    }
                }
            }
            if !done {
                effective = RestartVariant::Pure;
            }
        }
        RestartVariant::TruncateTail => {
            if let Some(mut bytes) = vfs.stable_get(JOURNAL_FILE) {
                if bytes.len() > FILE_MAGIC.len() {
                    let span = bytes.len() - FILE_MAGIC.len();
                    let keep = FILE_MAGIC.len() + (splitmix(rng) as usize) % span;
                    bytes.truncate(keep);
                    vfs.stable_put(JOURNAL_FILE, bytes);
                }
            }
        }
        RestartVariant::TamperDram => {
            let mut done = false;
            if let Some(mut bytes) = vfs.stable_get(DRAM_FILE) {
                if let Ok(scan) = scan_frames("dram", &bytes) {
                    // Flip a byte past the block-count header so a block
                    // or address is hit, then fix the CRC.
                    if scan.frames.len() == 1 && scan.frames[0].len() > 9 {
                        let seed = 8 + splitmix(rng) % (scan.frames[0].len() as u64 - 8);
                        done = tamper_frame_fix_crc(&mut bytes, 0, seed);
                        if done {
                            vfs.stable_put(DRAM_FILE, bytes);
                        }
                    }
                }
            }
            if !done {
                effective = RestartVariant::Pure;
            }
        }
    }

    // Resume lives: I/O faults and second kills reopen, security
    // verdicts stop fail-closed.
    let mut resumes = 0u32;
    let outcome: String;
    let mut final_run: Option<PersistentOutcome> = None;
    loop {
        if resumes >= MAX_PROCESS_RESUMES {
            outcome = "wedged:resume-budget-exhausted".to_owned();
            break;
        }
        resumes += 1;
        let mut second_clock = second_cut.take().map(CrashClock::armed);
        let r = run_persistent(
            &model.layers,
            &model.input,
            &model.session,
            &mut vfs,
            second_clock.as_mut(),
            stats,
        );
        match r {
            Ok(out) => {
                outcome = if out.run.output == *reference {
                    "bit-exact".to_owned()
                } else {
                    "WRONG-OUTPUT".to_owned()
                };
                final_run = Some(out);
                break;
            }
            Err(DurableError::Crashed(_)) | Err(DurableError::Io(_)) => {
                vfs.power_cut();
            }
            Err(e @ (DurableError::Security(_) | DurableError::Aborted(_))) => {
                outcome = format!("refused:{}", e.class());
                break;
            }
        }
    }

    // Freshness audit on every completed trial.
    let audited = final_run.is_none() || audit_ok(&mut vfs, model);
    let pass = audited
        && match effective {
            RestartVariant::Pure
            | RestartVariant::DoubleKill
            | RestartVariant::VfsFaults
            | RestartVariant::TamperDram => outcome == "bit-exact",
            RestartVariant::BitRot => {
                outcome == "bit-exact" || outcome == "refused:durable-corruption"
            }
            RestartVariant::TamperCrcFixed => outcome == "refused:journal-integrity",
            RestartVariant::TruncateTail => {
                outcome == "bit-exact" || outcome == "refused:counter-reuse"
            }
        };
    RestartTrial {
        model: model.name,
        cut,
        variant,
        resumes,
        outcome,
        faults_fired: vfs.faults_fired(),
        pass,
    }
}

// ---------------------------------------------------------------------------
// Process phase
// ---------------------------------------------------------------------------

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

/// Resumes the home until the inference completes, a typed verdict
/// lands, or [`MAX_PROCESS_RESUMES`] lives are spent. Returns
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
    while lives < MAX_PROCESS_RESUMES {
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

/// Per-model invariants shared by every process trial: the worker
/// binary, the model, its uninterrupted reference digest, and the
/// calibrated interruptible-instant count.
struct ProcCtx<'a> {
    exe: &'a Path,
    model: &'a CampaignModel,
    reference: u64,
    steps: u64,
}

fn run_proc_trial(
    ctx: &ProcCtx,
    home: &Path,
    cut: u64,
    variant: ProcVariant,
    rng: &mut u64,
) -> ProcTrial {
    let ProcCtx {
        exe,
        model,
        reference,
        steps,
    } = *ctx;
    let failed = |outcome: String| ProcTrial {
        model: model.name,
        cut,
        variant: variant.name(),
        lives: 1,
        kills: 0,
        outcome,
        pass: false,
    };
    // Life 1: armed at the seeded instant; must die by a real signal.
    let first = match spawn_worker(exe, model.name, home, Some(cut), false) {
        Ok(r) => r,
        Err(e) => return failed(format!("spawn-error:{}", e.kind())),
    };
    if first.status.signal().is_none() {
        return failed(format!("no-signal-death:{:?}", first.status.code()));
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

    let audited = outcome.starts_with("refused:")
        || StdVfs::create(home).is_ok_and(|mut vfs| audit_ok(&mut vfs, model));
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
        lives: 1 + resume_lives,
        kills: 1 + resume_kills,
        outcome,
        pass,
    }
}

/// The process phase: per model, one calibration child (counts the
/// interruptible instants and pins the reference digest), then
/// `cuts_per_model` kill trials rotating through the adversary
/// variants. The worker is this very executable; every trial gets a
/// fresh home directory under the system temp dir, and all of them are
/// removed before returning.
fn run_process_phase(seed: u64, cuts_per_model: u32) -> Vec<ProcTrial> {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            return vec![ProcTrial {
                model: "-",
                cut: 0,
                variant: "setup",
                lives: 0,
                kills: 0,
                outcome: format!("no-current-exe:{}", e.kind()),
                pass: false,
            }]
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
        let ctx = ProcCtx {
            exe: &exe,
            model,
            reference,
            steps,
        };
        for i in 0..cuts_per_model {
            let cut = splitmix(&mut rng) % steps;
            let variant = ProcVariant::ALL[i as usize % ProcVariant::ALL.len()];
            let home = base.join(format!("{}-{i}", model.name));
            trials.push(run_proc_trial(&ctx, &home, cut, variant, &mut rng));
            let _ = std::fs::remove_dir_all(&home);
        }
    }
    let _ = std::fs::remove_dir_all(&base);
    trials
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_passes_and_conserves_stats() {
        let report = run_restart_campaign(7, 7, 0);
        assert!(report.passed(), "{}", report.summary());
        assert!(
            report.vfs_tally().refusals > 0,
            "adversary variants must be exercised"
        );
        assert!(report.stats.restart_resumes > 0);
        assert!(report.stats.torn_tails_repaired > 0 || report.stats.fsyncs > 0);
    }

    #[test]
    fn campaign_is_deterministic_per_seed() {
        let a = run_restart_campaign(9, 4, 0).summary();
        let b = run_restart_campaign(9, 4, 0).summary();
        assert_eq!(a, b);
    }
}
