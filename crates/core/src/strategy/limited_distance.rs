//! The limited-distance strategy (§3.3.2) — tunneling with a budget.
//!
//! The crawler may proceed along a path until `N` irrelevant pages are
//! encountered *consecutively* (Fig. 1): links found on a page whose
//! consecutive-irrelevant run exceeds `N` are discarded; a relevant page
//! resets the run. Two priority modes:
//!
//! * **non-prioritized** — all admitted URLs share one priority level;
//! * **prioritized** — priority is the distance from the latest relevant
//!   referrer on the crawl path (closer ⇒ crawled sooner). This is the
//!   mode the paper concludes in favour of: the queue stays bounded like
//!   hard-focused *and* harvest rate no longer degrades as N grows
//!   (Fig. 7 vs Fig. 6).

use super::{emit_all, PageView, Strategy};
use crate::queue::Entry;

/// Priority assignment mode for the limited-distance strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LimitedMode {
    /// All admitted URLs get equal priority.
    NonPrioritized,
    /// Priority = distance from the latest relevant referrer.
    Prioritized,
}

/// Limited-distance strategy with parameter `N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LimitedDistanceStrategy {
    n: u8,
    mode: LimitedMode,
}

impl LimitedDistanceStrategy {
    /// Non-prioritized mode with tunnel budget `n`.
    pub fn non_prioritized(n: u8) -> Self {
        LimitedDistanceStrategy {
            n,
            mode: LimitedMode::NonPrioritized,
        }
    }

    /// Prioritized mode with tunnel budget `n`.
    pub fn prioritized(n: u8) -> Self {
        LimitedDistanceStrategy {
            n,
            mode: LimitedMode::Prioritized,
        }
    }
}

impl Strategy for LimitedDistanceStrategy {
    fn name(&self) -> String {
        match self.mode {
            LimitedMode::NonPrioritized => format!("limited-distance N={}", self.n),
            LimitedMode::Prioritized => format!("prior. limited-distance N={}", self.n),
        }
    }

    fn levels(&self) -> usize {
        match self.mode {
            LimitedMode::NonPrioritized => 1,
            // Distances 0..=N each get a level.
            LimitedMode::Prioritized => self.n as usize + 1,
        }
    }

    #[inline]
    fn admit(&mut self, view: &PageView<'_>, out: &mut Vec<Entry>) {
        let run = view.consec_irrelevant;
        if run > self.n {
            // N irrelevant pages in a row: stop tunneling on this path.
            return;
        }
        let priority = match self.mode {
            LimitedMode::NonPrioritized => 0,
            LimitedMode::Prioritized => run,
        };
        emit_all(view, priority, run, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(run: u8, outlinks: &[u32]) -> PageView<'_> {
        PageView {
            page: 0,
            relevance: if run == 0 { 1.0 } else { 0.0 },
            consec_irrelevant: run,
            outlinks,
            crawled: 1,
        }
    }

    #[test]
    fn tunnels_up_to_n_consecutive_irrelevant() {
        let mut s = LimitedDistanceStrategy::non_prioritized(2);
        let mut out = Vec::new();
        for run in 0..=2u8 {
            out.clear();
            s.admit(&view(run, &[1]), &mut out);
            assert_eq!(out.len(), 1, "run {run} must still tunnel");
        }
        out.clear();
        s.admit(&view(3, &[1]), &mut out);
        assert!(out.is_empty(), "run 3 exceeds N=2");
    }

    #[test]
    fn non_prioritized_is_flat() {
        let mut s = LimitedDistanceStrategy::non_prioritized(3);
        let mut out = Vec::new();
        s.admit(&view(2, &[1, 2]), &mut out);
        assert!(out.iter().all(|e| e.priority == 0));
        assert!(out.iter().all(|e| e.distance == 2));
        assert_eq!(s.levels(), 1);
    }

    #[test]
    fn prioritized_uses_distance_as_priority() {
        let mut s = LimitedDistanceStrategy::prioritized(3);
        assert_eq!(s.levels(), 4);
        for run in 0..=3u8 {
            let mut out = Vec::new();
            s.admit(&view(run, &[9]), &mut out);
            assert_eq!(out[0].priority, run);
            assert_eq!(out[0].distance, run);
        }
    }

    /// N=0 degenerates to hard-focused admission.
    #[test]
    fn n_zero_is_hard_focused() {
        let mut s = LimitedDistanceStrategy::non_prioritized(0);
        let mut out = Vec::new();
        s.admit(&view(0, &[1]), &mut out);
        assert_eq!(out.len(), 1);
        out.clear();
        s.admit(&view(1, &[1]), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn names_carry_n() {
        assert_eq!(
            LimitedDistanceStrategy::non_prioritized(4).name(),
            "limited-distance N=4"
        );
        assert_eq!(
            LimitedDistanceStrategy::prioritized(2).name(),
            "prior. limited-distance N=2"
        );
    }
}
