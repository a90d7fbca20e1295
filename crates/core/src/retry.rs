//! The retry policy — capped exponential backoff in back-off steps:
//! simulated fetch ticks, or round trips in a timed crawl.
//!
//! Real crawlers (BUbiNG et al.) re-schedule transiently failed fetches
//! rather than dropping them: a timeout or 503 goes back to the frontier
//! after a delay, a 404 or dead host does not. The simulator measures
//! that delay in virtual time — **fetch ticks**, one per fetch attempt
//! at a single untimed slot — so retry schedules are deterministic and
//! independent of wall clock.
//!
//! [`RetryPolicy::delay`] is the classic capped exponential:
//! `min(backoff_base · 2^(attempt−1), backoff_cap)` steps after the
//! `attempt`-th failure. Delays are monotonically non-decreasing in the
//! attempt number and total attempts never exceed
//! [`RetryPolicy::max_attempts`] — the retry proptests pin both.
//!
//! A timed crawl ([`crate::sched::SchedConfig::timing`]) makes a tick
//! 1 ms and counts the delay in round trips instead, each
//! [`crate::sched::Timing::rtt`] ticks long: the default policy's 2, 4
//! and 8 steps wait 160, 320 and 640 ms after the failed fetch finished
//! under the default 80 ms round trip, so no retry comes due before a
//! round trip has passed.

/// When and how often to retry transiently failed fetches. Delays are in
/// back-off steps: ticks untimed (one per fetch attempt at one slot),
/// round trips in a timed crawl (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total fetch attempts per page, first attempt included. `0` is
    /// treated as `1` (a page is always attempted once).
    pub max_attempts: u32,
    /// Backoff after the first failure, in back-off steps.
    pub backoff_base: u64,
    /// Ceiling on any single backoff delay, in back-off steps.
    pub backoff_cap: u64,
}

impl Default for RetryPolicy {
    /// Four attempts with 2/4/8-step backoff — small enough that a
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
    /// `max_attempts` with the zero case collapsed to one attempt.
    pub fn effective_max_attempts(&self) -> u32 {
        self.max_attempts.max(1)
    }

    /// Back-off steps to wait after failed attempt number `attempt`
    /// (1-based): `min(backoff_base · 2^(attempt−1), backoff_cap)`,
    /// saturating — monotonically non-decreasing in `attempt`.
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
}
