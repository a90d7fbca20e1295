//! The retry policy — capped exponential backoff in simulated fetch
//! ticks.
//!
//! Real crawlers (BUbiNG et al.) re-schedule transiently failed fetches
//! rather than dropping them: a timeout or 503 goes back to the frontier
//! after a delay, a 404 or dead host does not. The simulator measures
//! that delay in **fetch ticks** — one tick per fetch attempt the engine
//! performs — so retry schedules are deterministic and independent of
//! wall clock.
//!
//! [`RetryPolicy::delay`] is the classic capped exponential:
//! `min(backoff_base · 2^(attempt−1), backoff_cap)` ticks after the
//! `attempt`-th failure. Delays are monotonically non-decreasing in the
//! attempt number and total attempts never exceed
//! [`RetryPolicy::max_attempts`] — the retry proptests pin both.
//!
//! A timed crawl ([`crate::sched::SchedConfig::timing`]) makes a tick
//! 1 ms, and the back-off does not scale with it: the default 2–64 ticks
//! are 2–64 ms, less than one 80 ms round trip of the default
//! [`crate::sched::Timing`] and far less than a politeness gap of a
//! second. There the host's politeness gap, not the back-off, decides
//! when a retry runs.

/// When and how often to retry transiently failed fetches. Delays are in
/// ticks: one per fetch attempt untimed, 1 ms in a timed crawl (see the
/// module docs for what that does to the default back-off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total fetch attempts per page, first attempt included. `0` is
    /// treated as `1` (a page is always attempted once).
    pub max_attempts: u32,
    /// Backoff after the first failure, in simulated fetch ticks.
    pub backoff_base: u64,
    /// Ceiling on any single backoff delay, in fetch ticks.
    pub backoff_cap: u64,
}

impl Default for RetryPolicy {
    /// Four attempts with 2/4/8-tick backoff — small enough that a
    /// retried page re-enters while its neighborhood is still being
    /// crawled, capped so late attempts don't stall the schedule.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            backoff_base: 2,
            backoff_cap: 64,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries: every page gets exactly one attempt.
    pub fn no_retries() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_base: 0,
            backoff_cap: 0,
        }
    }

    /// `max_attempts` with the zero case collapsed to one attempt.
    pub fn effective_max_attempts(&self) -> u32 {
        self.max_attempts.max(1)
    }

    /// Ticks to wait after failed attempt number `attempt` (1-based):
    /// `min(backoff_base · 2^(attempt−1), backoff_cap)`, saturating —
    /// monotonically non-decreasing in `attempt`.
    pub fn delay(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(63);
        // `checked_shl` only rejects shifts ≥ 64; bits shifted *out*
        // (e.g. `2 << 63`) silently vanish, so detect that and saturate.
        let raw = if shift > self.backoff_base.leading_zeros() {
            u64::MAX
        } else {
            self.backoff_base << shift
        };
        raw.min(self.backoff_cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_is_capped_exponential() {
        let p = RetryPolicy {
            max_attempts: 8,
            backoff_base: 2,
            backoff_cap: 10,
        };
        assert_eq!(p.delay(1), 2);
        assert_eq!(p.delay(2), 4);
        assert_eq!(p.delay(3), 8);
        assert_eq!(p.delay(4), 10, "capped");
        assert_eq!(p.delay(100), 10, "huge attempts saturate, not overflow");
    }

    #[test]
    fn delay_monotone_under_defaults() {
        let p = RetryPolicy::default();
        let mut prev = 0;
        for attempt in 1..=70 {
            let d = p.delay(attempt);
            assert!(d >= prev, "attempt {attempt}: {d} < {prev}");
            prev = d;
        }
    }

    #[test]
    fn zero_attempts_means_one() {
        let p = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        };
        assert_eq!(p.effective_max_attempts(), 1);
    }

    #[test]
    fn no_retries_policy() {
        let p = RetryPolicy::no_retries();
        assert_eq!(p.effective_max_attempts(), 1);
        assert_eq!(p.delay(1), 0);
    }
}
