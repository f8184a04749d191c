//! Pluggable crypto execution backends.
//!
//! Every secure-memory operation in Seculator reduces to two primitives:
//! AES-128 block encryption (pad generation, paper §6.3) and the SHA-256
//! compression function (per-block MACs, §6.4). [`CryptoBackend`]
//! abstracts *how* those primitives execute — the portable T-table
//! software path, a bitsliced constant-time software path, or the
//! x86 `AES-NI`/`SHA-NI` instruction path — while every byte of output
//! stays bit-identical across backends (enforced by KATs and
//! differential fuzz in this crate, and by the cross-backend conformance
//! suite at the workspace root).
//!
//! Backends are zero-sized statics handed around as
//! `&'static dyn CryptoBackend` ([`Backend`]), so threading one through
//! the datapath costs a pointer. Selection is by [`BackendChoice`]
//! (the CLI's `--backend auto|portable|bitsliced|aesni`), with `auto`
//! resolving to the hardware path when the CPU supports it and the
//! portable path otherwise.

use crate::aes::Aes128;
use crate::sha256::compress_words;
use std::sync::OnceLock;

/// A crypto execution backend as a shareable trait object.
///
/// `&'static` because every implementation is a stateless unit struct;
/// key material always arrives through the call arguments.
pub type Backend = &'static dyn CryptoBackend;

/// Identifies one of the concrete backend implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Portable T-table software AES + software SHA-256. Fast for plain
    /// software, but the table lookups are secret-indexed (cache-timing
    /// leaky by construction).
    Portable,
    /// Bitsliced constant-time software AES (8 blocks per call, no
    /// secret-indexed loads) + software SHA-256.
    Bitsliced,
    /// x86_64 `AES-NI` + `SHA-NI` instructions. Constant-time by
    /// hardware design and roughly an order of magnitude faster than
    /// the portable path.
    AesNi,
}

impl BackendKind {
    /// Stable lowercase name used by the CLI, env var, telemetry, and
    /// benchmark JSON.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Portable => "portable",
            Self::Bitsliced => "bitsliced",
            Self::AesNi => "aesni",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What the user asked for: a concrete backend or automatic selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendChoice {
    /// Pick the fastest backend the host supports.
    Auto,
    /// Use exactly this backend or fail.
    Fixed(BackendKind),
}

impl BackendChoice {
    /// Parses a CLI/env spelling (`auto`, `portable`, `bitsliced`,
    /// `aesni`). Returns `None` for anything else.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "auto" => Some(Self::Auto),
            "portable" => Some(Self::Fixed(BackendKind::Portable)),
            "bitsliced" => Some(Self::Fixed(BackendKind::Bitsliced)),
            "aesni" => Some(Self::Fixed(BackendKind::AesNi)),
            _ => None,
        }
    }

    /// Resolves the choice against the host CPU.
    ///
    /// # Errors
    ///
    /// Returns [`BackendUnsupported`] when a fixed choice names a
    /// backend this host cannot execute (`aesni` without the AES/SHA
    /// ISA extensions). `Auto` never fails.
    pub fn resolve(self) -> Result<Backend, BackendUnsupported> {
        match self {
            Self::Auto => Ok(auto()),
            Self::Fixed(kind) => select(kind),
        }
    }
}

/// Error returned when a requested backend cannot run on this host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendUnsupported {
    /// The backend that was requested.
    pub kind: BackendKind,
    /// Human-readable reason (which CPU features are missing).
    pub reason: &'static str,
}

impl std::fmt::Display for BackendUnsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "backend `{}` is not supported on this host: {}",
            self.kind.name(),
            self.reason
        )
    }
}

impl std::error::Error for BackendUnsupported {}

/// One crypto execution strategy for the AES/SHA-256 primitives.
///
/// All implementations are bit-identical; only speed and timing
/// behaviour differ. The SHA-256 entry points take the round-constant
/// table as an argument so callers keep the crate's
/// "resolve the `OnceLock` once at construction" idiom on hot paths.
pub trait CryptoBackend: Send + Sync {
    /// Which implementation this is.
    fn kind(&self) -> BackendKind;

    /// True when the implementation performs no secret-dependent memory
    /// accesses or branches (bitsliced software, hardware instructions).
    fn constant_time(&self) -> bool;

    /// Encrypts each 16-byte block in place under `aes`'s expanded key
    /// schedule. Batching is the backend's concern: callers hand over
    /// as many blocks as they have and the backend picks its native
    /// width (4 for T-tables, 8 for bitsliced and `AES-NI`).
    fn aes_encrypt_blocks(&self, aes: &Aes128, blocks: &mut [[u8; 16]]);

    /// One SHA-256 compression: folds a 16-word message block into
    /// `state`. `k` is the FIPS-180-4 round-constant table.
    fn sha256_compress(&self, state: &mut [u32; 8], words: &[u32; 16], k: &[u32; 64]);

    /// Two *independent* SHA-256 compressions.
    ///
    /// The per-block MAC is a fixed two-compression chain whose rounds
    /// are serially dependent; a lone chain leaves hardware SHA units
    /// latency-bound. Interleaving two blocks' chains roughly doubles
    /// MAC throughput on `SHA-NI`. The default implementation just runs
    /// the chains back to back, so software backends inherit identical
    /// bytes for free.
    fn sha256_compress2(
        &self,
        state0: &mut [u32; 8],
        words0: &[u32; 16],
        state1: &mut [u32; 8],
        words1: &[u32; 16],
        k: &[u32; 64],
    ) {
        self.sha256_compress(state0, words0, k);
        self.sha256_compress(state1, words1, k);
    }
}

impl std::fmt::Debug for dyn CryptoBackend + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CryptoBackend({})", self.kind().name())
    }
}

/// Portable backend: T-table AES (the original datapath) + the software
/// SHA-256 compression.
#[derive(Debug)]
struct PortableBackend;

impl CryptoBackend for PortableBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Portable
    }

    fn constant_time(&self) -> bool {
        // T-table lookups are indexed by key-dependent state bytes.
        false
    }

    fn aes_encrypt_blocks(&self, aes: &Aes128, blocks: &mut [[u8; 16]]) {
        aes.encrypt_blocks_tt(blocks);
    }

    fn sha256_compress(&self, state: &mut [u32; 8], words: &[u32; 16], k: &[u32; 64]) {
        compress_words(state, words, k);
    }
}

/// Bitsliced backend: constant-time software AES over 8-block batches.
///
/// SHA-256 reuses the portable compression, which is already
/// constant-time by construction (pure arithmetic, no secret-indexed
/// tables — the round constants are public).
#[derive(Debug)]
struct BitslicedBackend;

impl CryptoBackend for BitslicedBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Bitsliced
    }

    fn constant_time(&self) -> bool {
        true
    }

    fn aes_encrypt_blocks(&self, aes: &Aes128, blocks: &mut [[u8; 16]]) {
        let keys = aes.bitsliced_keys();
        let mut chunks = blocks.chunks_exact_mut(8);
        for chunk in &mut chunks {
            let batch: &mut [[u8; 16]; 8] = chunk.try_into().expect("chunks of 8");
            crate::bitslice::encrypt8(keys, batch);
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            // Pad the tail batch with zero blocks; the extra lanes are
            // computed and discarded, keeping the memory-access pattern
            // independent of the batch split.
            let mut batch = [[0u8; 16]; 8];
            batch[..rest.len()].copy_from_slice(rest);
            crate::bitslice::encrypt8(keys, &mut batch);
            rest.copy_from_slice(&batch[..rest.len()]);
        }
    }

    fn sha256_compress(&self, state: &mut [u32; 8], words: &[u32; 16], k: &[u32; 64]) {
        compress_words(state, words, k);
    }
}

static PORTABLE: PortableBackend = PortableBackend;
static BITSLICED: BitslicedBackend = BitslicedBackend;

/// The portable T-table backend (always available).
#[must_use]
pub fn portable() -> Backend {
    &PORTABLE
}

/// The bitsliced constant-time software backend (always available).
#[must_use]
pub fn bitsliced() -> Backend {
    &BITSLICED
}

/// True when hardware crypto features should be ignored even if the CPU
/// has them. `SECULATOR_CPU_FEATURES=none` lets tests exercise the
/// "host without AES-NI" paths (auto-fallback, `--backend aesni`
/// rejection) on any machine.
fn hw_features_suppressed() -> bool {
    std::env::var("SECULATOR_CPU_FEATURES").is_ok_and(|v| v == "none")
}

/// True when the `AES-NI`/`SHA-NI` backend can run on this host.
#[must_use]
pub fn aesni_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        !hw_features_suppressed() && crate::hwaccel::detected()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The `AES-NI`/`SHA-NI` backend.
///
/// # Errors
///
/// Returns [`BackendUnsupported`] when the CPU lacks the required ISA
/// extensions (or this is not an x86_64 build, or hardware features are
/// suppressed via `SECULATOR_CPU_FEATURES=none`).
pub fn aesni() -> Result<Backend, BackendUnsupported> {
    #[cfg(target_arch = "x86_64")]
    {
        if aesni_available() {
            return Ok(crate::hwaccel::backend());
        }
        Err(BackendUnsupported {
            kind: BackendKind::AesNi,
            reason: "CPU does not report the aes/sha/ssse3/sse4.1 features \
                     (or SECULATOR_CPU_FEATURES=none suppresses them)",
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Err(BackendUnsupported {
            kind: BackendKind::AesNi,
            reason: "AES-NI/SHA-NI require an x86_64 build",
        })
    }
}

/// Resolves a concrete backend kind against the host CPU.
///
/// # Errors
///
/// Returns [`BackendUnsupported`] when `kind` cannot run here.
pub fn select(kind: BackendKind) -> Result<Backend, BackendUnsupported> {
    match kind {
        BackendKind::Portable => Ok(portable()),
        BackendKind::Bitsliced => Ok(bitsliced()),
        BackendKind::AesNi => aesni(),
    }
}

/// Automatic selection: the hardware backend when available, otherwise
/// the portable software path (never the bitsliced one — `auto` picks
/// for speed; constant-time software is an explicit opt-in).
#[must_use]
pub fn auto() -> Backend {
    aesni().unwrap_or_else(|_| portable())
}

/// Every backend this host can execute, portable first.
#[must_use]
pub fn available() -> Vec<Backend> {
    let mut out = vec![portable(), bitsliced()];
    if let Ok(b) = aesni() {
        out.push(b);
    }
    out
}

static DEFAULT: OnceLock<&'static dyn CryptoBackend> = OnceLock::new();

/// The process-wide default backend used by constructors that don't
/// take an explicit one ([`crate::AesCtr::new`],
/// [`crate::BlockMacEngine::new`], [`crate::Sha256::new`]).
///
/// Resolution order, frozen at first use: an explicit
/// [`set_default_backend`] call (the CLI's `--backend` flag), else the
/// `SECULATOR_BACKEND` env var when it parses and resolves, else
/// [`auto`]. Invalid env values fall back to `auto` here — the CLI
/// front end validates the env var separately so users still get a
/// hard exit-2 diagnostic.
#[must_use]
pub fn default_backend() -> Backend {
    *DEFAULT.get_or_init(|| {
        std::env::var("SECULATOR_BACKEND")
            .ok()
            .and_then(|v| BackendChoice::parse(&v))
            .and_then(|c| c.resolve().ok())
            .unwrap_or_else(auto)
    })
}

/// Installs the process-wide default backend.
///
/// Returns `false` when a *different* default was already frozen (the
/// first caller wins, matching the thread-pool configuration idiom);
/// re-installing the same backend is an idempotent success.
pub fn set_default_backend(backend: Backend) -> bool {
    let installed = *DEFAULT.get_or_init(|| backend);
    installed.kind() == backend.kind()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choice_parsing_round_trips() {
        assert_eq!(BackendChoice::parse("auto"), Some(BackendChoice::Auto));
        for kind in [
            BackendKind::Portable,
            BackendKind::Bitsliced,
            BackendKind::AesNi,
        ] {
            assert_eq!(
                BackendChoice::parse(kind.name()),
                Some(BackendChoice::Fixed(kind))
            );
        }
        assert_eq!(BackendChoice::parse("AESNI"), None);
        assert_eq!(BackendChoice::parse(""), None);
        assert_eq!(BackendChoice::parse("fastest"), None);
    }

    #[test]
    fn software_backends_always_resolve() {
        assert_eq!(
            select(BackendKind::Portable).expect("portable").kind(),
            BackendKind::Portable
        );
        assert_eq!(
            select(BackendKind::Bitsliced).expect("bitsliced").kind(),
            BackendKind::Bitsliced
        );
    }

    #[test]
    fn auto_matches_detection() {
        let expect = if aesni_available() {
            BackendKind::AesNi
        } else {
            BackendKind::Portable
        };
        assert_eq!(auto().kind(), expect);
    }

    #[test]
    fn available_lists_portable_and_bitsliced_at_minimum() {
        let kinds: Vec<BackendKind> = available().iter().map(|b| b.kind()).collect();
        assert!(kinds.contains(&BackendKind::Portable));
        assert!(kinds.contains(&BackendKind::Bitsliced));
        assert_eq!(kinds.contains(&BackendKind::AesNi), aesni_available());
    }

    #[test]
    fn unsupported_error_names_the_backend() {
        let err = BackendUnsupported {
            kind: BackendKind::AesNi,
            reason: "test",
        };
        assert!(err.to_string().contains("aesni"));
    }

    #[test]
    fn constant_time_flags() {
        assert!(!portable().constant_time());
        assert!(bitsliced().constant_time());
        if let Ok(b) = aesni() {
            assert!(b.constant_time());
        }
    }

    #[test]
    fn debug_formats_the_kind_name() {
        let b: Backend = portable();
        assert_eq!(format!("{b:?}"), "CryptoBackend(portable)");
    }
}
