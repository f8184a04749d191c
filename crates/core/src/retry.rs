//! The single home of every retry bound the engine and the scheduler
//! enforce: the in-layer refetch→re-execute→abort ladder, the
//! scheduler-level session-retry ceiling with its deterministic
//! backoff, and the load-shedding rule. Every bound is a constant; the
//! one switch is [`crate::session::SessionManager::harden`], which turns
//! on the session retries and the shedding below for one manager. (The
//! restart campaign's bound on reopening a durable home is the
//! campaign's own constant.)
//!
//! The scheduler runs in one of two configurations:
//!
//! - **classic** (every manager until `harden` is called): the ladder
//!   below, zero session retries (a failed layer step is terminal), and
//!   a static admission cap;
//! - **hardened**: the same ladder, plus up to [`MAX_SESSION_RETRIES`]
//!   journal re-admissions per tenant after [`backoff_rounds`] rounds,
//!   and load shedding.
//!
//! Backoff is deterministic: `base · multiplier^retry`, capped, plus a
//! jitter drawn from a splitmix stream seeded by the campaign seed — so
//! a chaos campaign replays byte-identically for one seed while distinct
//! tenants still decorrelate their retry storms.

use crate::fault::splitmix;

/// Re-fetch attempts per execution attempt — the ladder's first rung:
/// on a failed boundary check, re-stream the layer's output from DRAM
/// through the crypto pipeline (recovers transient read corruption).
pub const MAX_REFETCHES: u32 = 2;

/// Layer re-executions — the ladder's second rung: recompute the layer
/// from its verified input under a fresh VN base (recovers persistent
/// corruption of the stored ciphertext or the MAC registers).
pub const MAX_REEXECUTIONS: u32 = 2;

/// Hardened only: journal re-admissions per tenant after a failed
/// attempt (ladder exhausted, or a power cut) before the tenant is
/// quarantined. Classic managers retry zero times.
pub const MAX_SESSION_RETRIES: u32 = 2;

/// Hardened only: backoff before the first session retry, in scheduler
/// rounds; also the jitter's upper bound.
pub const BASE_BACKOFF_ROUNDS: u64 = 1;

/// Hardened only: growth factor of the backoff between consecutive
/// session retries.
pub const BACKOFF_MULTIPLIER: u64 = 2;

/// Hardened only: cap on the deterministic part of the backoff, in
/// rounds.
pub const MAX_BACKOFF_ROUNDS: u64 = 8;

/// Hardened only: faulty rounds (≥ 1 failed session step) accumulated
/// before one admission slot is shed; the accumulator clears on every
/// shed and on every restore.
pub const SHED_AFTER_FAULTY_ROUNDS: u32 = 2;

/// Hardened only: floor of the shed admission cap, so the fleet keeps
/// making progress.
pub const MIN_INFLIGHT: usize = 1;

/// Hardened only: consecutive clean rounds before one shed slot is
/// restored.
pub const RESTORE_AFTER_CLEAN_ROUNDS: u64 = 4;

/// Rounds to wait before session retry number `retry` (0-based):
/// `min(BASE · MULTIPLIER^retry, CAP)` plus a jitter in `[0, BASE]`
/// drawn from `jitter` — a splitmix stream the caller seeds per tenant
/// from the campaign seed, so backoff is deterministic per seed yet
/// decorrelated across tenants. Always ≥ 1: a retry never lands in the
/// round that scheduled it.
#[must_use]
pub fn backoff_rounds(retry: u32, jitter: &mut u64) -> u64 {
    let exp = BACKOFF_MULTIPLIER
        .saturating_pow(retry)
        .saturating_mul(BASE_BACKOFF_ROUNDS);
    exp.min(MAX_BACKOFF_ROUNDS) + splitmix(jitter) % (BASE_BACKOFF_ROUNDS + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let mut a = 0x00C0_FFEE_u64;
        let mut b = 0x00C0_FFEE_u64;
        let xs: Vec<u64> = (0..6).map(|r| backoff_rounds(r, &mut a)).collect();
        let ys: Vec<u64> = (0..6).map(|r| backoff_rounds(r, &mut b)).collect();
        assert_eq!(xs, ys, "same jitter seed must replay exactly");
        let mut c = 0xDEAD_BEEFu64;
        let zs: Vec<u64> = (0..6).map(|r| backoff_rounds(r, &mut c)).collect();
        assert_ne!(xs, zs, "distinct seeds must decorrelate");
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        // Deterministic part 1,2,4,8,8…; the jitter adds at most BASE = 1.
        let mut j = 7u64;
        for (r, want) in [(0u32, 1u64), (1, 2), (2, 4), (3, 8), (7, 8), (31, 8)] {
            let got = backoff_rounds(r, &mut j);
            assert!(
                got >= want && got <= want + 1,
                "retry {r}: got {got}, deterministic part should be {want}"
            );
        }
    }
}
