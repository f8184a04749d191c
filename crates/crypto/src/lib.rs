//! # seculator-crypto
//!
//! Cryptographic substrate for the Seculator (HPCA 2023) reproduction,
//! implemented entirely from scratch against the public standards:
//!
//! - [`aes`] — AES-128 block cipher (FIPS-197), S-box derived from field
//!   arithmetic rather than transcribed.
//! - [`backend`] — pluggable execution backends for the AES/SHA-256
//!   primitives: portable T-tables, bitsliced constant-time software,
//!   and x86 `AES-NI`/`SHA-NI`, all bit-identical.
//! - [`timing`] — the seal-path timing-leakage self-test backing the
//!   constant-time backends' claims.
//! - [`ctr`] — AES counter mode over 64-byte memory blocks with
//!   Seculator's major/minor counter layout (fmap ‖ layer, VN ‖ index).
//! - [`sha256`] — SHA-256 (FIPS-180-4) with derived round constants.
//! - [`xor_mac`] — XOR-aggregated block MACs and the 256-bit on-chip
//!   registers behind Seculator's layer-level integrity equation
//!   `MAC_W = MAC_FR ⊕ MAC_R`.
//! - [`keys`] — device secrets and per-execution session-key derivation.
//! - [`gf`] — GF(2^8) arithmetic behind the AES S-box and rounds.
//!
//! Everything here is *functional* (bit-exact) crypto; the corresponding
//! cycle costs live in `seculator-sim`.
//!
//! # Example
//!
//! ```
//! use seculator_crypto::ctr::{AesCtr, BlockCounter};
//! use seculator_crypto::keys::{DeviceSecret, SessionKey};
//!
//! let secret = DeviceSecret::from_seed(42);
//! let key = SessionKey::derive(&secret, 0xC0FFEE);
//! let cipher = AesCtr::new(&key.0);
//! let counter = BlockCounter::from_parts(/*fmap*/ 0, /*layer*/ 1, /*vn*/ 1, /*block*/ 0);
//! let ct = cipher.encrypt_block64(&[0u8; 64], counter);
//! assert_eq!(cipher.decrypt_block64(&ct, counter), [0u8; 64]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Crypto primitives sit under every secure path and must never panic on
// a recoverable condition: impossible states use `expect` with a proof
// of impossibility, everything else returns. Tests may unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod aes;
pub mod backend;
mod bitslice;
pub mod ctr;
pub mod gf;
#[cfg(target_arch = "x86_64")]
mod hwaccel;
pub mod keys;
pub mod sha256;
pub mod timing;
pub mod xor_mac;

pub use aes::Aes128;
pub use backend::{Backend, BackendChoice, BackendKind, BackendUnsupported, CryptoBackend};
pub use ctr::{AesCtr, BlockCounter};
pub use keys::{DeviceSecret, SessionKey};
pub use sha256::Sha256;
pub use xor_mac::{block_mac, BlockMacEngine, BlockMacInput, MacRegister};

/// Size in bytes of one NPU memory block (the unit of encryption and MAC
/// computation throughout the paper).
pub const BLOCK_BYTES: usize = 64;

/// Size in bytes of one stored MAC (the paper stores the full 32-byte
/// SHA-256 digest).
pub const MAC_BYTES: usize = 32;
