//! Durable on-disk persistence for crash-consistent secure inference.
//!
//! Everything the crash campaign proves in-RAM — torn-tail repair, epoch
//! bumps, pad freshness, fail-closed tamper refusal — only matters if the
//! journal actually survives a *process death*. This module gives the
//! engine a real on-disk home:
//!
//! - A **fault-injecting VFS** ([`Vfs`] / [`StdVfs`] / [`FaultVfs`]):
//!   every durable byte moves through this trait, so seeded short
//!   writes, torn renames, bit-rot, truncation, and lying fsyncs are all
//!   reachable by campaigns without mocking the engine itself.
//! - A **CRC'd frame format** over the existing sealed SJL1 records:
//!   `[len ‖ crc32 ‖ payload]` frames after an 8-byte file magic. The
//!   CRC is *not* a security boundary — it distinguishes accidental
//!   corruption ([`SecurityError::DurableCorruption`]) from deliberate
//!   tamper (CRC consistent but the device-secret-bound tag fails:
//!   [`SecurityError::JournalIntegrity`] / [`SecurityError::DurableTamper`]).
//!   A file that simply *ends* mid-frame is a torn append and is
//!   repaired benignly, exactly like the in-RAM torn tail.
//! - A **durable home** ([`DurableHome`]): session manifest, append-only
//!   journal file, atomic DRAM snapshot, and a sealed pad-ledger
//!   checkpoint written with snapshot-and-compact (write temp, fsync,
//!   rename). The ledger is what makes the pad-reuse oracle survive
//!   restarts: reopening preloads the [`PadTracker`] with every pad any
//!   earlier process life issued.
//! - A **persistent run driver** ([`run_persistent`]), a cross-restart
//!   freshness audit ([`audit_home`]) and the deliberate-tamper adversary
//!   ([`tamper_frame_fix_crc`]). The restart campaign in the
//!   `seculator-campaigns` crate drives them: it kills the engine at
//!   seeded instants (including mid-append, leaving real torn frames on
//!   disk), drops the simulated page cache, reopens, and asserts
//!   bit-identical outputs, zero pad reuse, and typed refusal of every
//!   injected corruption.
//!
//! Write ordering (the fsync discipline, DESIGN.md §14): the `EpochOpen`
//! record is fsynced *before* the first pad of its epoch is consumed —
//! `DurableHome::open_cursor`, the one place a durable cursor opens,
//! enforces it for every driver; each layer commit persists DRAM
//! snapshot → journal frames → ledger checkpoint. Any prefix of that
//! order is safe to crash out of.

use crate::error::SecurityError;
use crate::fault::{CrashClock, CrashPhase, PowerLoss};
use crate::journal::{DurableState, JournalStore, PadTracker, RECORD_BYTES};
use crate::secure_infer::{
    open_journaled_cursor, open_resume_cursor, step_journaled_layer, AbortReport, Instruments,
    JournaledCursor, JournaledError, JournaledRun, QConvLayer, SecureSession,
};
use crate::secure_memory::{Block, BlockCoords, UntrustedDram};
use crate::telemetry;
use seculator_compute::quant::QTensor3;
use seculator_crypto::keys::DeviceSecret;
use seculator_crypto::sha256::Sha256;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// CRC32 (IEEE) — framing checksum, not a security boundary
// ---------------------------------------------------------------------------

/// Slicing-by-8 tables for [`crc32`], built at compile time. Row 0 is
/// the CRC of each byte value; row `j` advances row `j − 1` by one more
/// zero byte, so eight rows fold eight input bytes per step.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
};

/// IEEE CRC-32 (reflected, poly 0xEDB88320) over `bytes`, eight bytes a
/// step (slicing-by-8).
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let chunks = bytes.chunks_exact(8);
    let tail = chunks.remainder();
    let mut crc = 0xFFFF_FFFFu32;
    for c in chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(c[4])]
            ^ t[2][usize::from(c[5])]
            ^ t[1][usize::from(c[6])]
            ^ t[0][usize::from(c[7])];
    }
    for &b in tail {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// The VFS shim
// ---------------------------------------------------------------------------

/// Minimal file-system surface the durable layer is allowed to touch.
/// Having exactly one choke point is what makes the fault campaign
/// honest: every seeded storage fault flows through the same calls the
/// real [`StdVfs`] makes.
pub trait Vfs: std::fmt::Debug {
    /// Reads a whole file.
    ///
    /// # Errors
    ///
    /// `NotFound` when the file does not exist, or any injected fault.
    fn read(&mut self, path: &str) -> io::Result<Vec<u8>>;
    /// Creates/truncates a file with the given contents.
    ///
    /// # Errors
    ///
    /// Any I/O failure, including injected short writes (which leave a
    /// prefix of `bytes` on media).
    fn write(&mut self, path: &str, bytes: &[u8]) -> io::Result<()>;
    /// Appends bytes to a file (creating it if absent).
    ///
    /// # Errors
    ///
    /// Any I/O failure, including injected short writes.
    fn append(&mut self, path: &str, bytes: &[u8]) -> io::Result<()>;
    /// Durability barrier for one file. A *lying* fsync (injected)
    /// returns `Ok` without making anything durable.
    ///
    /// # Errors
    ///
    /// `NotFound` when the file does not exist.
    fn fsync(&mut self, path: &str) -> io::Result<()>;
    /// Atomically renames `from` over `to` (the commit point of every
    /// snapshot write).
    ///
    /// # Errors
    ///
    /// Any I/O failure, including an injected torn rename (source
    /// consumed, destination left at its old contents).
    fn rename(&mut self, from: &str, to: &str) -> io::Result<()>;
    /// Whether a file exists.
    fn exists(&mut self, path: &str) -> bool;
}

/// Real file system under a root directory. `fsync` opens the file and
/// `sync_all`s it; `rename` additionally syncs the root directory so the
/// new directory entry is durable (classic crash-consistency bug
/// otherwise).
#[derive(Debug)]
pub struct StdVfs {
    root: PathBuf,
}

impl StdVfs {
    /// Opens (creating if needed) a root directory.
    ///
    /// # Errors
    ///
    /// Propagates `create_dir_all` failures.
    pub fn create(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    fn p(&self, path: &str) -> PathBuf {
        self.root.join(path)
    }
}

impl Vfs for StdVfs {
    fn read(&mut self, path: &str) -> io::Result<Vec<u8>> {
        std::fs::read(self.p(path))
    }

    fn write(&mut self, path: &str, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(self.p(path), bytes)
    }

    fn append(&mut self, path: &str, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.p(path))?;
        f.write_all(bytes)
    }

    fn fsync(&mut self, path: &str) -> io::Result<()> {
        std::fs::File::open(self.p(path))?.sync_all()
    }

    fn rename(&mut self, from: &str, to: &str) -> io::Result<()> {
        std::fs::rename(self.p(from), self.p(to))?;
        // Make the directory entry durable too; best-effort on platforms
        // where directories cannot be opened.
        if let Ok(dir) = std::fs::File::open(&self.root) {
            let _ = dir.sync_all();
        }
        Ok(())
    }

    fn exists(&mut self, path: &str) -> bool {
        self.p(path).exists()
    }
}

/// The storage faults the in-memory VFS can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VfsFaultKind {
    /// A write/append applies only a prefix of its bytes, then errors —
    /// the medium tore the transfer.
    ShortWrite,
    /// A rename consumes the source but never lands the destination
    /// (crash between unlink and link); the destination keeps its old
    /// contents. Errors.
    TornRename,
    /// One byte of the file just touched flips a bit. Silent.
    BitRot,
    /// The file just touched is truncated at a seeded offset. Silent.
    Truncate,
    /// `fsync` returns `Ok` without making anything durable (lying
    /// controller cache).
    LostFsync,
}

impl VfsFaultKind {
    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::ShortWrite => "short-write",
            Self::TornRename => "torn-rename",
            Self::BitRot => "bit-rot",
            Self::Truncate => "truncate",
            Self::LostFsync => "lost-fsync",
        }
    }
}

/// One armed fault: fires on the `at_op`-th mutating VFS operation
/// (1-based, counted across the VFS's lifetime). `arg` seeds the
/// offset for [`VfsFaultKind::BitRot`] / [`VfsFaultKind::Truncate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VfsFault {
    /// Mutating-operation index at which the fault fires.
    pub at_op: u64,
    /// What happens.
    pub kind: VfsFaultKind,
    /// Fault-specific seed (offset selector).
    pub arg: u64,
}

/// In-memory file system with an explicit page-cache/durable split:
/// reads and writes see `cache`; only `fsync` copies a file into
/// `stable`; [`FaultVfs::power_cut`] resets `cache` to `stable`,
/// modeling the one thing a real `kill -9` campaign *cannot* do in
/// process — lose the OS page cache.
#[derive(Debug, Default)]
pub struct FaultVfs {
    stable: HashMap<String, Vec<u8>>,
    cache: HashMap<String, Vec<u8>>,
    plan: Vec<VfsFault>,
    op: u64,
    fired: u64,
}

impl FaultVfs {
    /// An empty, fault-free file system.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms additional faults (appended to any already pending).
    pub fn arm(&mut self, faults: impl IntoIterator<Item = VfsFault>) {
        self.plan.extend(faults);
    }

    /// Mutating operations performed so far (for arming future faults).
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.op
    }

    /// Faults that actually fired.
    #[must_use]
    pub fn faults_fired(&self) -> u64 {
        self.fired
    }

    /// Simulates power loss: every non-fsynced byte is gone.
    pub fn power_cut(&mut self) {
        self.cache = self.stable.clone();
    }

    /// Adversary view of the durable copy of a file.
    #[must_use]
    pub fn stable_get(&self, path: &str) -> Option<Vec<u8>> {
        self.stable.get(path).cloned()
    }

    /// Adversary write directly to durable storage (and the cache, so a
    /// subsequent read sees it) — used by campaigns to model bit-rot and
    /// tamper applied while the engine is dead. Not counted as an op.
    pub fn stable_put(&mut self, path: &str, bytes: Vec<u8>) {
        self.stable.insert(path.to_owned(), bytes.clone());
        self.cache.insert(path.to_owned(), bytes);
    }

    fn take_fault(&mut self) -> Option<VfsFault> {
        self.op += 1;
        let at = self.op;
        let idx = self.plan.iter().position(|f| f.at_op == at)?;
        self.fired += 1;
        Some(self.plan.swap_remove(idx))
    }

    fn decay(file: &mut Vec<u8>, fault: VfsFault) {
        if file.is_empty() {
            return;
        }
        match fault.kind {
            VfsFaultKind::BitRot => {
                let off = (fault.arg as usize) % file.len();
                file[off] ^= 1 << (fault.arg % 8) as u8;
            }
            VfsFaultKind::Truncate => {
                let len = (fault.arg as usize) % (file.len() + 1);
                file.truncate(len);
            }
            _ => {}
        }
    }
}

impl Vfs for FaultVfs {
    fn read(&mut self, path: &str) -> io::Result<Vec<u8>> {
        self.cache
            .get(path)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no file {path}")))
    }

    fn write(&mut self, path: &str, bytes: &[u8]) -> io::Result<()> {
        let fault = self.take_fault();
        match fault {
            Some(
                f @ VfsFault {
                    kind: VfsFaultKind::ShortWrite,
                    ..
                },
            ) => {
                let keep = bytes.len() / 2;
                self.cache.insert(path.to_owned(), bytes[..keep].to_vec());
                Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    format!("injected short write ({} of {} bytes)", keep, f.at_op),
                ))
            }
            other => {
                self.cache.insert(path.to_owned(), bytes.to_vec());
                if let Some(f) = other {
                    if let Some(file) = self.cache.get_mut(path) {
                        Self::decay(file, f);
                    }
                }
                Ok(())
            }
        }
    }

    fn append(&mut self, path: &str, bytes: &[u8]) -> io::Result<()> {
        let fault = self.take_fault();
        let file = self.cache.entry(path.to_owned()).or_default();
        match fault {
            Some(VfsFault {
                kind: VfsFaultKind::ShortWrite,
                ..
            }) => {
                let keep = bytes.len() / 2;
                file.extend_from_slice(&bytes[..keep]);
                Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "injected short append",
                ))
            }
            other => {
                file.extend_from_slice(bytes);
                if let Some(f) = other {
                    Self::decay(file, f);
                }
                Ok(())
            }
        }
    }

    fn fsync(&mut self, path: &str) -> io::Result<()> {
        let fault = self.take_fault();
        let Some(file) = self.cache.get(path).cloned() else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("fsync of missing file {path}"),
            ));
        };
        if matches!(
            fault,
            Some(VfsFault {
                kind: VfsFaultKind::LostFsync,
                ..
            })
        ) {
            return Ok(()); // the lie
        }
        self.stable.insert(path.to_owned(), file);
        Ok(())
    }

    fn rename(&mut self, from: &str, to: &str) -> io::Result<()> {
        let fault = self.take_fault();
        let Some(file) = self.cache.remove(from) else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("rename of missing file {from}"),
            ));
        };
        if matches!(
            fault,
            Some(VfsFault {
                kind: VfsFaultKind::TornRename,
                ..
            })
        ) {
            // Source consumed, destination never updated.
            self.stable.remove(from);
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected torn rename",
            ));
        }
        // Rename is atomic and (with the directory sync StdVfs performs)
        // durable: move in both views.
        self.stable.remove(from);
        self.stable.insert(to.to_owned(), file.clone());
        self.cache.insert(to.to_owned(), file);
        Ok(())
    }

    fn exists(&mut self, path: &str) -> bool {
        self.cache.contains_key(path)
    }
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

/// File magic of every durable Seculator file: "SJF1" + format version.
pub const FILE_MAGIC: [u8; 8] = *b"SJF1\x01\x00\x00\x00";
/// Frame header: `len: u32 LE` ‖ `crc32(payload): u32 LE`.
const FRAME_HEADER: usize = 8;
/// Upper bound on a single frame payload; a larger length prefix can
/// only come from corruption (the honest writer never produces one).
const MAX_FRAME: usize = 1 << 24;
/// Durable appends land in 8-byte beats, each one a distinct
/// [`CrashPhase::Checkpoint`] instant — torn *disk* frames are reachable.
const DISK_CHUNK: usize = 8;

/// On-disk file names inside a durable home.
pub const MANIFEST_FILE: &str = "manifest.sjm";
/// The append-only framed journal.
pub const JOURNAL_FILE: &str = "journal.sjf";
/// The atomic DRAM snapshot.
pub const DRAM_FILE: &str = "dram.img";
/// The sealed pad-ledger checkpoint.
pub const LEDGER_FILE: &str = "ledger.sjc";

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Result of scanning a framed file: complete, CRC-verified payloads
/// plus the length of any torn (incomplete) tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameScan {
    /// Complete frames, in file order.
    pub frames: Vec<Vec<u8>>,
    /// Bytes after the last complete frame that do not form one (torn
    /// append — benign).
    pub torn_tail_bytes: usize,
}

/// Scans a framed file. Distinguishes the three on-disk failure modes:
/// a short *tail* is torn (benign, reported in the scan), a complete
/// frame with a bad CRC or an impossible length is *corruption* (typed,
/// fail closed), and a bad file magic is corruption of frame 0.
///
/// # Errors
///
/// [`SecurityError::DurableCorruption`] as above. Tamper is *not*
/// decided here — that requires the sealed tags, checked by the caller.
pub fn scan_frames(file: &'static str, bytes: &[u8]) -> Result<FrameScan, SecurityError> {
    if bytes.is_empty() {
        return Ok(FrameScan {
            frames: Vec::new(),
            torn_tail_bytes: 0,
        });
    }
    if bytes.len() < FILE_MAGIC.len() || bytes[..FILE_MAGIC.len()] != FILE_MAGIC {
        return Err(SecurityError::DurableCorruption { file, frame: 0 });
    }
    let mut frames = Vec::new();
    let mut off = FILE_MAGIC.len();
    loop {
        let rem = bytes.len() - off;
        if rem == 0 {
            return Ok(FrameScan {
                frames,
                torn_tail_bytes: 0,
            });
        }
        if rem < FRAME_HEADER {
            return Ok(FrameScan {
                frames,
                torn_tail_bytes: rem,
            });
        }
        let idx = frames.len() as u32;
        let len = u32::from_le_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]])
            as usize;
        let crc = u32::from_le_bytes([
            bytes[off + 4],
            bytes[off + 5],
            bytes[off + 6],
            bytes[off + 7],
        ]);
        if len > MAX_FRAME {
            return Err(SecurityError::DurableCorruption { file, frame: idx });
        }
        if rem < FRAME_HEADER + len {
            return Ok(FrameScan {
                frames,
                torn_tail_bytes: rem,
            });
        }
        let payload = &bytes[off + FRAME_HEADER..off + FRAME_HEADER + len];
        if crc32(payload) != crc {
            return Err(SecurityError::DurableCorruption { file, frame: idx });
        }
        frames.push(payload.to_vec());
        off += FRAME_HEADER + len;
    }
}

/// Reassembles a framed file from payloads (used for repair-rewrites and
/// by test adversaries that fix CRCs after tampering payload bytes).
#[must_use]
pub fn assemble_frames(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut out = FILE_MAGIC.to_vec();
    for p in payloads {
        out.extend_from_slice(&frame(p));
    }
    out
}

// ---------------------------------------------------------------------------
// Sealed metadata blobs (manifest, ledger)
// ---------------------------------------------------------------------------

const MANIFEST_DOMAIN: &[u8] = b"seculator-manifest-v1";
const LEDGER_DOMAIN: &[u8] = b"seculator-ledger-v1";

fn seal_blob(domain: &[u8], secret: &DeviceSecret, nonce: u64, payload: &[u8]) -> Vec<u8> {
    let mut h = Sha256::new();
    h.update(&secret.0);
    h.update(domain);
    h.update(&nonce.to_le_bytes());
    h.update(payload);
    let tag = h.finalize();
    let mut out = payload.to_vec();
    out.extend_from_slice(&tag);
    out
}

fn open_blob<'a>(
    domain: &[u8],
    secret: &DeviceSecret,
    nonce: u64,
    sealed: &'a [u8],
) -> Option<&'a [u8]> {
    if sealed.len() < 32 {
        return None;
    }
    let (payload, tag) = sealed.split_at(sealed.len() - 32);
    let mut h = Sha256::new();
    h.update(&secret.0);
    h.update(domain);
    h.update(&nonce.to_le_bytes());
    h.update(payload);
    if h.finalize() == tag {
        Some(payload)
    } else {
        None
    }
}

fn read_u32(bytes: &[u8], off: &mut usize) -> Option<u32> {
    let s = bytes.get(*off..*off + 4)?;
    *off += 4;
    Some(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
}

fn read_u64(bytes: &[u8], off: &mut usize) -> Option<u64> {
    let s = bytes.get(*off..*off + 8)?;
    *off += 8;
    Some(u64::from_le_bytes([
        s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
    ]))
}

// ---------------------------------------------------------------------------
// Durable error type
// ---------------------------------------------------------------------------

/// Why a durable operation did not complete.
#[derive(Debug)]
pub enum DurableError {
    /// The storage medium failed an operation (real or injected). The
    /// home must be discarded and reopened — durable state on media is
    /// still consistent (any torn tail repairs benignly).
    Io(io::Error),
    /// Power was cut mid-run. Reopen and resume.
    Crashed(PowerLoss),
    /// The engine aborted after exhausting its recovery ladder.
    Aborted(Box<AbortReport>),
    /// Fail-closed security verdict: tampered or corrupt durable state,
    /// or a freshness violation caught by the reseeded pad oracle.
    Security(SecurityError),
}

impl From<JournaledError> for DurableError {
    fn from(e: JournaledError) -> Self {
        match e {
            JournaledError::Crashed(loss) => Self::Crashed(loss),
            JournaledError::Aborted(report) => Self::Aborted(report),
            JournaledError::Security(err) => Self::Security(err),
        }
    }
}

impl From<io::Error> for DurableError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "durable storage i/o failure: {e}"),
            Self::Crashed(loss) => write!(f, "{loss}"),
            Self::Aborted(report) => write!(f, "{report}"),
            Self::Security(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl DurableError {
    /// Short stable class name (worker protocol, campaign reports).
    #[must_use]
    pub fn class(&self) -> &'static str {
        match self {
            Self::Io(_) => "io",
            Self::Crashed(_) => "crashed",
            Self::Aborted(_) => "aborted",
            Self::Security(SecurityError::DurableCorruption { .. }) => "durable-corruption",
            Self::Security(SecurityError::DurableTamper { .. }) => "durable-tamper",
            Self::Security(SecurityError::JournalIntegrity { .. }) => "journal-integrity",
            Self::Security(SecurityError::CounterReuse { .. }) => "counter-reuse",
            Self::Security(_) => "security",
        }
    }
}

// ---------------------------------------------------------------------------
// Run statistics (conservation-tested against telemetry)
// ---------------------------------------------------------------------------

/// Durable-layer activity counters, incremented in lockstep with the
/// telemetry counters of the same names so campaigns can
/// conservation-test the two against each other.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PersistentStats {
    /// `fsync` barriers issued.
    pub fsyncs: u64,
    /// Ledger checkpoints compacted (one per committed layer).
    pub snapshots_compacted: u64,
    /// On-disk torn journal tails repaired during open.
    pub torn_tails_repaired: u64,
    /// Opens that found prior records on disk and resumed.
    pub restart_resumes: u64,
}

impl PersistentStats {
    fn fsync(&mut self) {
        self.fsyncs += 1;
        telemetry::incr(telemetry::Counter::JournalFsyncs);
    }

    fn compacted(&mut self) {
        self.snapshots_compacted += 1;
        telemetry::incr(telemetry::Counter::SnapshotsCompacted);
    }

    fn torn_repaired(&mut self) {
        self.torn_tails_repaired += 1;
        telemetry::incr(telemetry::Counter::TornTailsRepaired);
    }

    fn resumed(&mut self) {
        self.restart_resumes += 1;
        telemetry::incr(telemetry::Counter::RestartResumes);
    }
}

// ---------------------------------------------------------------------------
// The durable home
// ---------------------------------------------------------------------------

/// One session's on-disk state: manifest + journal + DRAM snapshot +
/// pad-ledger checkpoint, all reached through a [`Vfs`]. A home is
/// single-use: after any error, discard it and reopen (the on-disk state
/// is always consistent; reopening repairs any torn tail).
#[derive(Debug)]
pub struct DurableHome {
    /// Journal bytes already framed and appended on disk.
    synced_bytes: usize,
    /// Every epoch this execution has ever opened (preloaded from the
    /// ledger, extended at each checkpoint).
    epochs: Vec<u32>,
}

/// Everything [`DurableHome::open_or_create`] hands back.
#[derive(Debug)]
pub struct OpenedHome {
    /// The home (journal watermark + epoch list).
    pub home: DurableHome,
    /// Reconstructed durable state (DRAM image + journal records).
    pub durable: DurableState,
    /// Pad-reuse oracle preloaded with every pad in the ledger.
    pub tracker: PadTracker,
    /// Authenticated journal records found on disk.
    pub prior_records: u32,
    /// Whether a torn on-disk tail was truncated during this open.
    pub torn_tail_repaired: bool,
    /// Whether an unreadable DRAM snapshot was discarded (benign: the
    /// MAC machinery rolls back and recomputes).
    pub dram_discarded: bool,
}

fn manifest_payload(session: &SecureSession, layer_count: u32) -> Vec<u8> {
    let mut p = Vec::with_capacity(16);
    p.extend_from_slice(&session.nonce.to_le_bytes());
    p.extend_from_slice(&session.shift.to_le_bytes());
    p.extend_from_slice(&layer_count.to_le_bytes());
    p
}

fn dram_payload(dram: &UntrustedDram) -> Vec<u8> {
    let blocks = dram.sorted_blocks();
    let mut p = Vec::with_capacity(8 + blocks.len() * 72);
    p.extend_from_slice(&(blocks.len() as u64).to_le_bytes());
    for (addr, block) in blocks {
        p.extend_from_slice(&addr.to_le_bytes());
        p.extend_from_slice(&block);
    }
    p
}

fn parse_dram(payload: &[u8]) -> Option<UntrustedDram> {
    let mut off = 0usize;
    let count = read_u64(payload, &mut off)?;
    let mut blocks: Vec<(u64, Block)> = Vec::new();
    for _ in 0..count {
        let addr = read_u64(payload, &mut off)?;
        let raw = payload.get(off..off + 64)?;
        off += 64;
        let mut block = [0u8; 64];
        block.copy_from_slice(raw);
        blocks.push((addr, block));
    }
    if off != payload.len() {
        return None;
    }
    Some(UntrustedDram::from_blocks(blocks))
}

fn ledger_payload(epochs: &[u32], tracker: &PadTracker) -> Vec<u8> {
    let mut pads: Vec<(u32, BlockCoords)> = tracker.issued().copied().collect();
    pads.sort_unstable_by_key(|&(e, c)| (e, c.fmap_id, c.layer_id, c.version, c.block_index));
    let mut p = Vec::with_capacity(8 + epochs.len() * 4 + pads.len() * 20);
    p.extend_from_slice(&(epochs.len() as u32).to_le_bytes());
    for e in epochs {
        p.extend_from_slice(&e.to_le_bytes());
    }
    p.extend_from_slice(&(pads.len() as u32).to_le_bytes());
    for (epoch, c) in pads {
        p.extend_from_slice(&epoch.to_le_bytes());
        p.extend_from_slice(&c.fmap_id.to_le_bytes());
        p.extend_from_slice(&c.layer_id.to_le_bytes());
        p.extend_from_slice(&c.version.to_le_bytes());
        p.extend_from_slice(&c.block_index.to_le_bytes());
    }
    p
}

/// Parsed ledger checkpoint: the epoch history and every issued pad.
type LedgerImage = (Vec<u32>, Vec<(u32, BlockCoords)>);

fn parse_ledger(payload: &[u8]) -> Option<LedgerImage> {
    let mut off = 0usize;
    let epoch_count = read_u32(payload, &mut off)?;
    let mut epochs = Vec::with_capacity(epoch_count as usize);
    for _ in 0..epoch_count {
        epochs.push(read_u32(payload, &mut off)?);
    }
    let pad_count = read_u32(payload, &mut off)?;
    let mut pads = Vec::with_capacity(pad_count as usize);
    for _ in 0..pad_count {
        let epoch = read_u32(payload, &mut off)?;
        let fmap_id = read_u32(payload, &mut off)?;
        let layer_id = read_u32(payload, &mut off)?;
        let version = read_u32(payload, &mut off)?;
        let block_index = read_u32(payload, &mut off)?;
        pads.push((
            epoch,
            BlockCoords {
                fmap_id,
                layer_id,
                version,
                block_index,
            },
        ));
    }
    if off != payload.len() {
        return None;
    }
    Some((epochs, pads))
}

/// Reads a one-frame sealed file (the manifest or the ledger) and
/// returns its authenticated payload. Strict: bad framing (CRC
/// violation, torn tail, a second frame) is corruption, a tag violation
/// is tamper.
fn read_sealed(
    vfs: &mut dyn Vfs,
    path: &str,
    file: &'static str,
    domain: &[u8],
    session: &SecureSession,
) -> Result<Vec<u8>, DurableError> {
    let bytes = vfs.read(path)?;
    let scan = scan_frames(file, &bytes).map_err(DurableError::Security)?;
    if scan.frames.len() != 1 || scan.torn_tail_bytes != 0 {
        return Err(DurableError::Security(SecurityError::DurableCorruption {
            file,
            frame: 0,
        }));
    }
    open_blob(domain, &session.secret, session.nonce, &scan.frames[0])
        .map(<[u8]>::to_vec)
        .ok_or(DurableError::Security(SecurityError::DurableTamper {
            file,
        }))
}

/// Reads the pad-ledger checkpoint, or `None` when the home has not
/// checkpointed yet. The persisted pad-freshness proof is load-bearing,
/// so an unparsable payload is corruption too.
fn read_ledger(
    vfs: &mut dyn Vfs,
    session: &SecureSession,
) -> Result<Option<LedgerImage>, DurableError> {
    if !vfs.exists(LEDGER_FILE) {
        return Ok(None);
    }
    let payload = read_sealed(vfs, LEDGER_FILE, "ledger", LEDGER_DOMAIN, session)?;
    parse_ledger(&payload)
        .map(Some)
        .ok_or(DurableError::Security(SecurityError::DurableCorruption {
            file: "ledger",
            frame: 0,
        }))
}

/// Splits journal-file bytes into their complete frames, each of which
/// must be exactly one sealed record. A torn tail is left to the caller:
/// opening a home repairs it, the audit ignores it.
fn journal_frames(bytes: &[u8]) -> Result<FrameScan, DurableError> {
    let scan = scan_frames("journal", bytes).map_err(DurableError::Security)?;
    match scan.frames.iter().position(|f| f.len() != RECORD_BYTES) {
        Some(i) => Err(DurableError::Security(SecurityError::DurableCorruption {
            file: "journal",
            frame: i as u32,
        })),
        None => Ok(scan),
    }
}

/// Atomic snapshot write: temp file, fsync, rename (the rename syncs the
/// directory in [`StdVfs`]). The temp name is deterministic per target,
/// so a crashed temp is simply overwritten next time.
fn atomic_vfs_write(
    vfs: &mut dyn Vfs,
    path: &'static str,
    bytes: &[u8],
    stats: &mut PersistentStats,
) -> Result<(), DurableError> {
    let tmp = format!("{path}.tmp");
    vfs.write(&tmp, bytes)?;
    vfs.fsync(&tmp)?;
    stats.fsync();
    vfs.rename(&tmp, path)?;
    Ok(())
}

fn tick_checkpoint(clock: &mut Option<&mut CrashClock>, layer: u32) -> Result<(), DurableError> {
    match clock.as_deref_mut() {
        Some(c) => c
            .tick(layer, CrashPhase::Checkpoint)
            .map_err(DurableError::Crashed),
        None => Ok(()),
    }
}

impl DurableHome {
    /// Opens an existing home or creates a fresh one. Creation writes
    /// the sealed manifest (atomically) and the journal file magic;
    /// opening authenticates the manifest, scans + repairs the journal,
    /// loads the DRAM snapshot (discarding an unreadable one — DRAM is
    /// untrusted; its integrity comes from MACs), and strictly verifies
    /// the ledger before preloading the pad oracle from it. An open that
    /// finds prior journal records counts one restart-resume in `stats`.
    ///
    /// # Errors
    ///
    /// [`DurableError::Security`] with the typed corruption/tamper
    /// verdicts described in DESIGN.md §14, or [`DurableError::Io`].
    pub fn open_or_create(
        vfs: &mut dyn Vfs,
        session: &SecureSession,
        layer_count: u32,
        stats: &mut PersistentStats,
    ) -> Result<OpenedHome, DurableError> {
        if vfs.exists(MANIFEST_FILE) {
            Self::open(vfs, session, layer_count, stats)
        } else {
            Self::create(vfs, session, layer_count, stats)
        }
    }

    fn create(
        vfs: &mut dyn Vfs,
        session: &SecureSession,
        layer_count: u32,
        stats: &mut PersistentStats,
    ) -> Result<OpenedHome, DurableError> {
        let sealed = seal_blob(
            MANIFEST_DOMAIN,
            &session.secret,
            session.nonce,
            &manifest_payload(session, layer_count),
        );
        atomic_vfs_write(vfs, MANIFEST_FILE, &assemble_frames(&[sealed]), stats)?;
        vfs.write(JOURNAL_FILE, &FILE_MAGIC)?;
        vfs.fsync(JOURNAL_FILE)?;
        stats.fsync();
        Ok(OpenedHome {
            home: DurableHome {
                synced_bytes: 0,
                epochs: Vec::new(),
            },
            durable: DurableState::default(),
            tracker: PadTracker::default(),
            prior_records: 0,
            torn_tail_repaired: false,
            dram_discarded: false,
        })
    }

    fn open(
        vfs: &mut dyn Vfs,
        session: &SecureSession,
        layer_count: u32,
        stats: &mut PersistentStats,
    ) -> Result<OpenedHome, DurableError> {
        // Manifest: CRC framing, then the sealed tag, then field match.
        let manifest = read_sealed(vfs, MANIFEST_FILE, "manifest", MANIFEST_DOMAIN, session)?;
        if manifest != manifest_payload(session, layer_count) {
            return Err(DurableError::Security(SecurityError::DurableTamper {
                file: "manifest",
            }));
        }

        // Journal: a torn tail is repaired by rewriting the file
        // truncated to its complete frames.
        let journal_bytes = if vfs.exists(JOURNAL_FILE) {
            vfs.read(JOURNAL_FILE)?
        } else {
            Vec::new()
        };
        let scan = journal_frames(&journal_bytes)?;
        let torn = scan.torn_tail_bytes > 0;
        if torn {
            // Benign repair: persist the truncation so the tail cannot
            // resurface, then continue.
            atomic_vfs_write(vfs, JOURNAL_FILE, &assemble_frames(&scan.frames), stats)?;
            stats.torn_repaired();
        }
        let prior_records = scan.frames.len() as u32;
        let journal = JournalStore::from_bytes(scan.frames.concat());

        // DRAM snapshot: untrusted memory. An unreadable/corrupt image
        // is *discarded*, not refused — equivalent to the adversary
        // zeroing DRAM, which the MAC rollback machinery already
        // handles; refusing would turn an availability fault into a
        // wedge.
        let mut dram_discarded = false;
        let dram = if vfs.exists(DRAM_FILE) {
            let bytes = vfs.read(DRAM_FILE)?;
            match scan_frames("dram", &bytes) {
                Ok(s) if s.frames.len() == 1 && s.torn_tail_bytes == 0 => {
                    match parse_dram(&s.frames[0]) {
                        Some(d) => d,
                        None => {
                            dram_discarded = true;
                            UntrustedDram::new()
                        }
                    }
                }
                _ => {
                    dram_discarded = true;
                    UntrustedDram::new()
                }
            }
        } else {
            UntrustedDram::new()
        };

        // Ledger: strict, and duplicate pads inside it are tamper too.
        let (epochs, pads) = read_ledger(vfs, session)?.unwrap_or_default();
        let mut tracker = PadTracker::default();
        for (epoch, coords) in pads {
            if !tracker.preload(epoch, coords) {
                return Err(DurableError::Security(SecurityError::DurableTamper {
                    file: "ledger",
                }));
            }
        }

        if prior_records > 0 {
            stats.resumed();
        }
        Ok(OpenedHome {
            home: DurableHome {
                synced_bytes: prior_records as usize * RECORD_BYTES,
                epochs,
            },
            durable: DurableState { dram, journal },
            tracker,
            prior_records,
            torn_tail_repaired: torn,
            dram_discarded,
        })
    }

    /// Opens this home's journaled cursor — fresh on an empty journal,
    /// restart-resumed otherwise (repair, rollback walk, fresh epoch) —
    /// and syncs the new `EpochOpen` record to media before returning.
    /// Every durable driver opens its cursor here, so the write-ahead
    /// rule holds for all of them: an epoch is durable before the first
    /// pad of it is consumed, or a crash could replay the epoch.
    ///
    /// # Errors
    ///
    /// Clock cuts, journal verdicts and I/O faults; after an error the
    /// home must be discarded.
    // The same split borrows as `checkpoint`, plus the cursor's inputs.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn open_cursor(
        &mut self,
        vfs: &mut dyn Vfs,
        input: &QTensor3,
        session: &SecureSession,
        durable: &mut DurableState,
        instruments: &mut Instruments<'_>,
        stats: &mut PersistentStats,
    ) -> Result<JournaledCursor, DurableError> {
        let cursor = if durable.journal.is_empty() {
            open_journaled_cursor(input, session, durable, &mut instruments.clock)?
        } else {
            open_resume_cursor(input, session, durable, instruments, None)?
        };
        self.sync_journal(
            vfs,
            &durable.journal,
            cursor.next_layer(),
            &mut instruments.clock,
            stats,
        )?;
        Ok(cursor)
    }

    /// Appends every not-yet-synced journal record to the on-disk file
    /// (one CRC'd frame per sealed record, written in
    /// [`CrashPhase::Checkpoint`]-ticked beats so an armed clock can
    /// tear the append mid-frame), then fsyncs.
    ///
    /// # Errors
    ///
    /// [`DurableError::Crashed`] when the clock fires mid-append (the
    /// partial frame stays on media — that is the point), or I/O faults.
    pub fn sync_journal(
        &mut self,
        vfs: &mut dyn Vfs,
        store: &JournalStore,
        layer_hint: u32,
        clock: &mut Option<&mut CrashClock>,
        stats: &mut PersistentStats,
    ) -> Result<(), DurableError> {
        let media = store.as_bytes();
        debug_assert_eq!(media.len() % RECORD_BYTES, 0, "sync of a torn in-RAM tail");
        if media.len() < self.synced_bytes {
            // The in-RAM journal can only shrink via repair of a tail
            // that was never synced; a shorter synced region means the
            // caller mixed stores.
            return Err(DurableError::Security(SecurityError::DurableCorruption {
                file: "journal",
                frame: (media.len() / RECORD_BYTES) as u32,
            }));
        }
        let mut pending = Vec::new();
        let mut off = self.synced_bytes;
        while off < media.len() {
            pending.extend_from_slice(&frame(&media[off..off + RECORD_BYTES]));
            off += RECORD_BYTES;
        }
        if pending.is_empty() {
            return Ok(());
        }
        let mut sent = 0usize;
        while sent < pending.len() {
            tick_checkpoint(clock, layer_hint)?;
            let end = (sent + DISK_CHUNK).min(pending.len());
            vfs.append(JOURNAL_FILE, &pending[sent..end])?;
            sent = end;
        }
        vfs.fsync(JOURNAL_FILE)?;
        stats.fsync();
        self.synced_bytes = media.len();
        Ok(())
    }

    /// Persists one committed layer: DRAM snapshot (atomic), new journal
    /// frames (append + fsync), then the compacted pad-ledger checkpoint
    /// (atomic). Crashing between any two of these is safe: a newer
    /// snapshot with an older journal only costs recompute, and the
    /// `EpochOpen` write-ahead keeps ledger staleness harmless.
    ///
    /// # Errors
    ///
    /// Propagates clock cuts and I/O faults; after an error the home
    /// must be discarded.
    // Every argument is a distinct borrow the caller's loop already
    // holds split; bundling them would force re-borrowing structs that
    // `step_journaled_layer` needs disjoint.
    #[allow(clippy::too_many_arguments)]
    pub fn checkpoint(
        &mut self,
        vfs: &mut dyn Vfs,
        durable: &DurableState,
        tracker: &PadTracker,
        session: &SecureSession,
        epoch: u32,
        layer_hint: u32,
        clock: &mut Option<&mut CrashClock>,
        stats: &mut PersistentStats,
    ) -> Result<(), DurableError> {
        if self.epochs.last() != Some(&epoch) {
            self.epochs.push(epoch);
        }
        tick_checkpoint(clock, layer_hint)?;
        let dram_file = {
            let mut f = FILE_MAGIC.to_vec();
            f.extend_from_slice(&frame(&dram_payload(&durable.dram)));
            f
        };
        atomic_vfs_write(vfs, DRAM_FILE, &dram_file, stats)?;
        self.sync_journal(vfs, &durable.journal, layer_hint, clock, stats)?;
        tick_checkpoint(clock, layer_hint)?;
        let sealed = seal_blob(
            LEDGER_DOMAIN,
            &session.secret,
            session.nonce,
            &ledger_payload(&self.epochs, tracker),
        );
        let mut ledger_file = FILE_MAGIC.to_vec();
        ledger_file.extend_from_slice(&frame(&sealed));
        atomic_vfs_write(vfs, LEDGER_FILE, &ledger_file, stats)?;
        stats.compacted();
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Persistent run driver
// ---------------------------------------------------------------------------

/// A completed persistent inference.
#[derive(Debug)]
pub struct PersistentOutcome {
    /// The engine-level run report.
    pub run: JournaledRun,
    /// Whether this process life resumed prior on-disk work.
    pub resumed: bool,
    /// Authenticated records found on disk at open.
    pub prior_records: u32,
    /// Whether a torn on-disk tail was repaired at open.
    pub torn_tail_repaired: bool,
    /// Whether an unreadable DRAM snapshot was discarded at open.
    pub dram_discarded: bool,
}

/// Runs one inference against a durable home on `vfs`, persisting every
/// layer commit; on a fresh home this is `infer_journaled` with disk
/// underneath, on a non-empty home it is a restart-resume.
///
/// # Errors
///
/// [`DurableError::Crashed`] when the armed clock fires (reopen and call
/// again to resume), [`DurableError::Io`] on storage faults (ditto),
/// [`DurableError::Security`] on any corruption/tamper/freshness verdict
/// (fail closed — do *not* retry), [`DurableError::Aborted`] when the
/// recovery ladder is exhausted.
pub fn run_persistent(
    layers: &[QConvLayer],
    input: &QTensor3,
    session: &SecureSession,
    vfs: &mut dyn Vfs,
    clock: Option<&mut CrashClock>,
    stats: &mut PersistentStats,
) -> Result<PersistentOutcome, DurableError> {
    let OpenedHome {
        mut home,
        mut durable,
        mut tracker,
        prior_records,
        torn_tail_repaired,
        dram_discarded,
    } = DurableHome::open_or_create(vfs, session, layers.len() as u32, stats)?;
    let mut ins = Instruments {
        tracker: &mut tracker,
        injector: None,
        clock,
    };
    let mut cursor = home.open_cursor(vfs, input, session, &mut durable, &mut ins, stats)?;
    while !cursor.done(layers) {
        step_journaled_layer(layers, session, &mut cursor, &mut durable, &mut ins)?;
        home.checkpoint(
            vfs,
            &durable,
            ins.tracker,
            session,
            cursor.epoch(),
            cursor.next_layer(),
            &mut ins.clock,
            stats,
        )?;
    }
    Ok(PersistentOutcome {
        run: cursor.finish(),
        resumed: prior_records > 0,
        prior_records,
        torn_tail_repaired,
        dram_discarded,
    })
}

/// FNV-1a digest of a tensor (dimensions + raw values) — the worker
/// protocol's compact bit-identity witness.
#[must_use]
pub fn output_digest(t: &QTensor3) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for d in [t.c as u64, t.h as u64, t.w as u64] {
        for b in d.to_le_bytes() {
            eat(b);
        }
    }
    for c in 0..t.c {
        for y in 0..t.h {
            for x in 0..t.w {
                eat(t.get(c, y, x) as u8);
            }
        }
    }
    h
}

// ---------------------------------------------------------------------------
// Cross-restart audit
// ---------------------------------------------------------------------------

/// Freshness evidence read back from a home's persisted state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HomeAudit {
    /// Distinct pads in the ledger.
    pub ledger_pads: u64,
    /// Duplicate pads the ledger claimed (must be 0).
    pub duplicate_pads: u64,
    /// Epochs recorded by the ledger, in checkpoint order.
    pub ledger_epochs: Vec<u32>,
    /// Epochs of `EpochOpen` journal records, in append order.
    pub journal_epochs: Vec<u32>,
    /// Whether the journal's epoch sequence strictly increases — the
    /// "epoch bump proven by the persisted ledger" acceptance bar.
    pub epochs_strictly_increasing: bool,
}

/// Reads a home's journal and ledger back and checks the cross-restart
/// freshness invariants: no duplicate pads, strictly increasing epochs.
///
/// # Errors
///
/// The same typed verdicts as [`DurableHome::open_or_create`].
pub fn audit_home(vfs: &mut dyn Vfs, session: &SecureSession) -> Result<HomeAudit, DurableError> {
    use crate::journal::JournalRecordKind;
    let scan = journal_frames(&vfs.read(JOURNAL_FILE)?)?;
    let replay = JournalStore::from_bytes(scan.frames.concat())
        .replay(&session.secret, session.nonce)
        .map_err(DurableError::Security)?;
    let journal_epochs: Vec<u32> = replay
        .records
        .iter()
        .filter(|r| r.kind == JournalRecordKind::EpochOpen)
        .map(|r| r.epoch)
        .collect();
    let epochs_strictly_increasing = journal_epochs.windows(2).all(|w| w[0] < w[1]);

    let (ledger_epochs, pads) = read_ledger(vfs, session)?.unwrap_or_default();
    let mut seen = PadTracker::default();
    let mut ledger_pads = 0u64;
    let mut duplicate_pads = 0u64;
    for (epoch, coords) in pads {
        if seen.preload(epoch, coords) {
            ledger_pads += 1;
        } else {
            duplicate_pads += 1;
        }
    }
    Ok(HomeAudit {
        ledger_pads,
        duplicate_pads,
        ledger_epochs,
        journal_epochs,
        epochs_strictly_increasing,
    })
}

// ---------------------------------------------------------------------------
// Atomic artifact writes (repo-wide helper)
// ---------------------------------------------------------------------------

/// Writes `contents` to `path` atomically: temp file in the same
/// directory, fsync, rename, best-effort directory sync. A crash at any
/// instant leaves either the old file or the new one — never a torn mix.
///
/// # Errors
///
/// Propagates the underlying I/O failures; the temp file is removed on
/// a failed rename.
pub fn atomic_write(path: &Path, contents: &[u8]) -> io::Result<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp = dir.join(format!(
        ".{}.tmp.{}",
        name.to_string_lossy(),
        std::process::id()
    ));
    std::fs::write(&tmp, contents)?;
    std::fs::File::open(&tmp)?.sync_all()?;
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    if let Ok(d) = std::fs::File::open(&dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The deliberate-tamper adversary
// ---------------------------------------------------------------------------

/// Flips a payload byte of frame `frame_idx` and fixes the frame CRC —
/// the deliberate-tamper adversary (shared by the property tests and the
/// restart campaign, which applies it to [`FaultVfs`] and real files).
/// Returns `false` when the file has no such frame.
pub fn tamper_frame_fix_crc(file_bytes: &mut Vec<u8>, frame_idx: usize, byte_seed: u64) -> bool {
    let Ok(scan) = scan_frames("journal", file_bytes) else {
        return false;
    };
    if frame_idx >= scan.frames.len() {
        return false;
    }
    let mut frames = scan.frames;
    let target = &mut frames[frame_idx];
    let off = (byte_seed as usize) % target.len();
    target[off] ^= 0x40;
    let mut rebuilt = assemble_frames(&frames);
    // Preserve any torn tail beyond the complete frames.
    let torn_start = file_bytes.len() - scan.torn_tail_bytes;
    rebuilt.extend_from_slice(&file_bytes[torn_start..]);
    *file_bytes = rebuilt;
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::splitmix;
    use crate::journal::{campaign_models, CampaignModel};
    use crate::secure_infer::infer_plain;

    fn model() -> CampaignModel {
        campaign_models().remove(2) // mlp: smallest
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bit-at-a-time CRC-32 the tables are derived from.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_equals_the_bitwise_form_at_every_length() {
        let mut state = 0x00C0_FFEE;
        for len in 0..=2048 {
            let bytes: Vec<u8> = (0..len).map(|_| splitmix(&mut state) as u8).collect();
            assert_eq!(crc32(&bytes), crc32_bitwise(&bytes), "length {len}");
        }
    }

    #[test]
    fn frame_roundtrip_and_torn_tail() {
        let payloads = vec![vec![1u8; 10], vec![2u8; 237]];
        let file = assemble_frames(&payloads);
        let scan = scan_frames("journal", &file).expect("clean scan");
        assert_eq!(scan.frames, payloads);
        assert_eq!(scan.torn_tail_bytes, 0);
        // Every truncation inside the last frame is torn, never an error.
        let last_start = FILE_MAGIC.len() + FRAME_HEADER + 10;
        for cut in last_start..file.len() {
            let scan = scan_frames("journal", &file[..cut]).expect("torn is benign");
            assert_eq!(scan.frames.len(), 1, "cut={cut}");
            assert_eq!(scan.torn_tail_bytes, cut - last_start, "cut={cut}");
        }
    }

    #[test]
    fn frame_crc_flip_is_typed_corruption_or_loses_the_frame() {
        let file = assemble_frames(&[vec![7u8; 64]]);
        for off in 0..file.len() {
            let mut bad = file.clone();
            bad[off] ^= 0x01;
            match scan_frames("journal", &bad) {
                // The typical verdict: framing caught the flip.
                Err(SecurityError::DurableCorruption {
                    file: "journal", ..
                }) => {}
                // A flip in the length prefix can claim a frame longer
                // than the file — indistinguishable from a torn append,
                // so the frame is *dropped* (rollback semantics), never
                // accepted with altered bytes.
                Ok(scan) => {
                    assert!(
                        scan.frames.is_empty() && scan.torn_tail_bytes > 0,
                        "offset {off}: corrupted frame accepted: {scan:?}"
                    );
                }
                Err(other) => panic!("offset {off}: unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn tamper_with_fixed_crc_passes_framing() {
        let mut file = assemble_frames(&[vec![9u8; 32]]);
        assert!(tamper_frame_fix_crc(&mut file, 0, 5));
        let scan = scan_frames("journal", &file).expect("CRC consistent");
        assert_eq!(scan.frames[0][5], 9u8 ^ 0x40);
    }

    #[test]
    fn fault_vfs_power_cut_loses_unsynced_bytes() {
        let mut vfs = FaultVfs::new();
        vfs.write("a", b"hello").expect("write");
        vfs.fsync("a").expect("fsync");
        vfs.append("a", b" world").expect("append");
        vfs.power_cut();
        assert_eq!(vfs.read("a").expect("read"), b"hello");
    }

    #[test]
    fn fault_vfs_lost_fsync_lies() {
        let mut vfs = FaultVfs::new();
        vfs.arm([VfsFault {
            at_op: 2,
            kind: VfsFaultKind::LostFsync,
            arg: 0,
        }]);
        vfs.write("a", b"data").expect("write");
        vfs.fsync("a").expect("the lie returns Ok");
        vfs.power_cut();
        assert!(vfs.read("a").is_err(), "nothing was durable");
        assert_eq!(vfs.faults_fired(), 1);
    }

    #[test]
    fn fault_vfs_torn_rename_keeps_old_destination() {
        let mut vfs = FaultVfs::new();
        vfs.write("dst", b"old").expect("write");
        vfs.fsync("dst").expect("fsync");
        vfs.write("tmp", b"new").expect("write");
        vfs.arm([VfsFault {
            at_op: vfs.ops() + 1,
            kind: VfsFaultKind::TornRename,
            arg: 0,
        }]);
        assert!(vfs.rename("tmp", "dst").is_err());
        assert_eq!(vfs.read("dst").expect("read"), b"old");
        assert!(!vfs.exists("tmp"));
    }

    #[test]
    fn persistent_run_matches_plain_and_resumes_bit_exact() {
        let m = model();
        let reference = infer_plain(&m.layers, &m.input, m.session.shift);
        let mut vfs = FaultVfs::new();
        let mut stats = PersistentStats::default();
        let out = run_persistent(&m.layers, &m.input, &m.session, &mut vfs, None, &mut stats)
            .expect("clean run");
        assert_eq!(out.run.output, reference);
        assert!(!out.resumed);
        assert!(stats.fsyncs > 0 && stats.snapshots_compacted as usize == m.layers.len());

        // Reopen after completion: resume finds everything committed.
        vfs.power_cut();
        let again = run_persistent(&m.layers, &m.input, &m.session, &mut vfs, None, &mut stats)
            .expect("reopen");
        assert_eq!(again.run.output, reference);
        assert!(again.resumed);
        let audit = audit_home(&mut vfs, &m.session).expect("audit");
        assert_eq!(audit.duplicate_pads, 0);
        assert!(audit.epochs_strictly_increasing);
    }

    #[test]
    fn killed_run_resumes_bit_exact_with_fresh_epoch() {
        let m = model();
        let reference = infer_plain(&m.layers, &m.input, m.session.shift);
        let mut vfs = FaultVfs::new();
        let mut stats = PersistentStats::default();
        // Cut 150 lands after the EpochOpen frame is durable on disk
        // (the first ~30 in-RAM append beats + ~31 disk beats cover the
        // open), so the reopen finds prior records and resumes.
        let mut clock = CrashClock::armed(150);
        let first = run_persistent(
            &m.layers,
            &m.input,
            &m.session,
            &mut vfs,
            Some(&mut clock),
            &mut stats,
        );
        assert!(matches!(first, Err(DurableError::Crashed(_))));
        vfs.power_cut();
        let out = run_persistent(&m.layers, &m.input, &m.session, &mut vfs, None, &mut stats)
            .expect("resume");
        assert_eq!(out.run.output, reference);
        assert!(out.resumed);
        assert!(stats.restart_resumes >= 1);
    }

    #[test]
    fn manifest_tamper_is_refused_typed() {
        let m = model();
        let mut vfs = FaultVfs::new();
        let mut stats = PersistentStats::default();
        run_persistent(&m.layers, &m.input, &m.session, &mut vfs, None, &mut stats)
            .expect("clean run");
        let mut bytes = vfs.stable_get(MANIFEST_FILE).expect("manifest");
        assert!(tamper_frame_fix_crc(&mut bytes, 0, 3));
        vfs.stable_put(MANIFEST_FILE, bytes);
        let r = run_persistent(&m.layers, &m.input, &m.session, &mut vfs, None, &mut stats);
        assert!(
            matches!(
                r,
                Err(DurableError::Security(SecurityError::DurableTamper {
                    file: "manifest"
                }))
            ),
            "got {r:?}"
        );
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("seculator-aw-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let target = dir.join("out.json");
        atomic_write(&target, b"{\"v\":1}").expect("first write");
        atomic_write(&target, b"{\"v\":2}").expect("overwrite");
        assert_eq!(std::fs::read(&target).expect("read"), b"{\"v\":2}");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("readdir")
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn output_digest_distinguishes_tensors() {
        let m = model();
        let a = infer_plain(&m.layers, &m.input, m.session.shift);
        let b = infer_plain(&m.layers, &m.input, m.session.shift + 1);
        assert_eq!(output_digest(&a), output_digest(&a));
        assert_ne!(output_digest(&a), output_digest(&b));
    }
}
