//! The single home of every retry bound the engine and the scheduler
//! enforce: the in-layer refetch→re-execute→abort ladder constants, the
//! scheduler-level session-retry ceiling with deterministic exponential
//! backoff, and the fleet-robustness knobs (watchdog, load shedding) the
//! multi-session scheduler enforces. (The restart campaign's bound on
//! reopening a durable home is the campaign's own constant.)
//!
//! Before this module, the ladder's attempt counts lived as magic
//! numbers duplicated between the standalone recovery driver and the
//! scheduler's per-layer step; the one journaled step now reads them
//! from [`RecoveryPolicy`], and the scheduler composes it into a
//! [`RetryPolicy`] that adds *session-level* retries: when a whole layer
//! step fails (ladder exhausted, or a power cut tore the volatile
//! state), the scheduler re-admits the session from its journal under a
//! fresh nonce epoch after a backoff expressed in scheduler rounds.
//!
//! Backoff is deterministic: `base · multiplier^retry`, capped, plus a
//! jitter drawn from a splitmix stream seeded by the campaign seed — so
//! a chaos campaign replays byte-identically for one seed while distinct
//! tenants still decorrelate their retry storms.

use crate::fault::splitmix;

/// Default re-fetch attempts per execution attempt — the ladder's first
/// rung (recovers transient read corruption).
pub const DEFAULT_MAX_REFETCHES: u32 = 2;

/// Default layer re-executions — the ladder's second rung (recovers
/// persistent corruption of stored ciphertext or MAC registers).
pub const DEFAULT_MAX_REEXECUTIONS: u32 = 2;

/// How hard the engine tries to recover from a detected breach before
/// aborting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Re-fetch attempts per execution attempt: on a failed boundary
    /// check, re-stream the layer's output from DRAM through the crypto
    /// pipeline (recovers transient read corruption cheaply).
    pub max_refetches: u32,
    /// Layer re-executions: recompute the layer from its (verified)
    /// input under a fresh VN base (recovers persistent corruption of
    /// the stored ciphertext or the MAC registers).
    pub max_reexecutions: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            max_refetches: DEFAULT_MAX_REFETCHES,
            max_reexecutions: DEFAULT_MAX_REEXECUTIONS,
        }
    }
}

/// The shared retry policy: the in-layer [`RecoveryPolicy`] ladder plus
/// the scheduler-level session-retry ceiling and its backoff curve.
///
/// [`RetryPolicy::classic`] reproduces the pre-policy behavior exactly
/// (ladder defaults, zero session retries — a failed step is terminal),
/// which is what keeps the serve campaign and every fault-campaign seed
/// bit-identical to the old hard-coded ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// In-layer refetch/re-execute bounds (the recovery ladder).
    pub ladder: RecoveryPolicy,
    /// Scheduler-level retries per session: after a ladder exhaustion or
    /// a power cut, the session is resumed from its journal (fresh nonce
    /// epoch) at most this many times before it is quarantined. `0`
    /// restores the classic fail-on-first-exhaustion behavior.
    pub max_session_retries: u32,
    /// Backoff before the first session retry, in scheduler rounds.
    pub base_backoff_rounds: u64,
    /// Exponential growth factor between consecutive retries.
    pub backoff_multiplier: u64,
    /// Cap on the deterministic part of the backoff, in rounds.
    pub max_backoff_rounds: u64,
}

impl RetryPolicy {
    /// The pre-`core::retry` behavior: default ladder, no session-level
    /// retries. A session whose step fails is terminal immediately.
    #[must_use]
    pub fn classic() -> Self {
        Self {
            ladder: RecoveryPolicy::default(),
            max_session_retries: 0,
            base_backoff_rounds: 1,
            backoff_multiplier: 2,
            max_backoff_rounds: 8,
        }
    }

    /// The chaos-hardened defaults: default ladder plus two session
    /// retries under a 1→2→4 round backoff capped at 8 rounds.
    #[must_use]
    pub fn hardened() -> Self {
        Self {
            max_session_retries: 2,
            ..Self::classic()
        }
    }

    /// Rounds to wait before session retry number `retry` (0-based):
    /// `min(base · multiplier^retry, cap)` plus a jitter in
    /// `[0, base]` drawn from `jitter` — a splitmix stream the caller
    /// seeds from the campaign seed, so backoff is deterministic per
    /// seed yet decorrelated across tenants. Always ≥ 1: a retry never
    /// lands in the round that scheduled it.
    #[must_use]
    pub fn backoff_rounds(&self, retry: u32, jitter: &mut u64) -> u64 {
        let exp = self
            .backoff_multiplier
            .max(1)
            .saturating_pow(retry.min(32))
            .saturating_mul(self.base_backoff_rounds.max(1));
        let capped = exp.min(self.max_backoff_rounds.max(1));
        let spread = self.base_backoff_rounds.max(1) + 1;
        capped + splitmix(jitter) % spread
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::classic()
    }
}

/// Admission-control degradation: under sustained fault pressure the
/// scheduler lowers its *effective* `max_inflight` one slot at a time
/// (shedding load instead of collapsing) and restores the cap once the
/// pressure clears.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SheddingPolicy {
    /// Faulty rounds (≥ 1 failed session step) accumulated before one
    /// slot is shed; the accumulator clears on every shed and on every
    /// restore.
    pub pressure_threshold: u32,
    /// Floor for the degraded effective cap — never shed below this, so
    /// the fleet keeps making progress.
    pub min_inflight: usize,
    /// Consecutive clean rounds before one shed slot is restored.
    pub restore_after: u64,
}

impl Default for SheddingPolicy {
    fn default() -> Self {
        Self {
            pressure_threshold: 2,
            min_inflight: 1,
            restore_after: 4,
        }
    }
}

/// The fleet-level robustness configuration of one
/// [`crate::session::SessionManager`]: the shared retry policy, the
/// stuck-session watchdog, and the load-shedding rule. Per-tenant
/// deadline budgets live on [`crate::session::AdmitSpec`] — they are
/// per-tenant values, not fleet policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RobustnessPolicy {
    /// Ladder bounds plus session-retry ceiling and backoff curve.
    pub retry: RetryPolicy,
    /// Quarantine a promoted session that has gone this many scheduler
    /// rounds without committing a layer (`None` disables the watchdog).
    pub watchdog_rounds: Option<u64>,
    /// Admission-control degradation rule (`None` keeps the static cap).
    pub shedding: Option<SheddingPolicy>,
}

impl RobustnessPolicy {
    /// Pre-robustness scheduler behavior: classic retry policy, no
    /// watchdog, no shedding. This is what [`crate::session::SessionManager::new`]
    /// installs, so every existing caller is bit-identical.
    #[must_use]
    pub fn classic() -> Self {
        Self {
            retry: RetryPolicy::classic(),
            watchdog_rounds: None,
            shedding: None,
        }
    }

    /// Chaos-hardened defaults: session retries with backoff, a generous
    /// watchdog, and load shedding.
    #[must_use]
    pub fn hardened() -> Self {
        Self {
            retry: RetryPolicy::hardened(),
            watchdog_rounds: Some(64),
            shedding: Some(SheddingPolicy::default()),
        }
    }
}

impl Default for RobustnessPolicy {
    fn default() -> Self {
        Self::classic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_ladder_matches_the_old_hard_coded_constants() {
        // The exact numbers the recovery driver and the scheduler step
        // used before extraction. Changing either default silently
        // changes every campaign's behavior — this pins them.
        let ladder = RetryPolicy::classic().ladder;
        assert_eq!(ladder.max_refetches, 2);
        assert_eq!(ladder.max_reexecutions, 2);
        assert_eq!(ladder, RecoveryPolicy::default());
        assert_eq!(RetryPolicy::classic().max_session_retries, 0);
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let p = RetryPolicy::hardened();
        let mut a = 0x00C0_FFEE_u64;
        let mut b = 0x00C0_FFEE_u64;
        let xs: Vec<u64> = (0..6).map(|r| p.backoff_rounds(r, &mut a)).collect();
        let ys: Vec<u64> = (0..6).map(|r| p.backoff_rounds(r, &mut b)).collect();
        assert_eq!(xs, ys, "same jitter seed must replay exactly");
        let mut c = 0xDEAD_BEEFu64;
        let zs: Vec<u64> = (0..6).map(|r| p.backoff_rounds(r, &mut c)).collect();
        assert_ne!(xs, zs, "distinct seeds must decorrelate");
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy {
            base_backoff_rounds: 1,
            backoff_multiplier: 2,
            max_backoff_rounds: 8,
            ..RetryPolicy::hardened()
        };
        // Strip the jitter by bounding: deterministic part is 1,2,4,8,8…
        // and jitter adds at most base+1-1 = 1.
        let mut j = 7u64;
        for (r, want) in [(0u32, 1u64), (1, 2), (2, 4), (3, 8), (7, 8), (31, 8)] {
            let got = p.backoff_rounds(r, &mut j);
            assert!(
                got >= want && got <= want + 1,
                "retry {r}: got {got}, deterministic part should be {want}"
            );
            assert!(got >= 1, "a retry never lands in its own round");
        }
    }

    #[test]
    fn degenerate_policy_values_never_panic_or_stall() {
        let p = RetryPolicy {
            base_backoff_rounds: 0,
            backoff_multiplier: 0,
            max_backoff_rounds: 0,
            ..RetryPolicy::classic()
        };
        let mut j = 1u64;
        for r in 0..40 {
            assert!(p.backoff_rounds(r, &mut j) >= 1);
        }
    }
}
