//! The combined strategy — simple-strategy priorities + a tunnel budget.
//!
//! §5.1 of the paper reveals how its own datasets were collected: "In the
//! case of Japanese dataset, we used a combination of hard focused with
//! limited distance strategies… In the case of Thai dataset, a
//! combination of soft focused with limited distance strategy was used."
//!
//! *Hard + limited distance* is the limited-distance strategy itself —
//! §5.2.1 introduces it exactly as the relaxation of hard mode's
//! strictness — so [`CombinedStrategy::hard_limited`] shares semantics
//! with the non-prioritized [`super::LimitedDistanceStrategy`] (it exists
//! so the dataset-collection experiment can name the paper's
//! configuration). *Soft + limited distance* is genuinely distinct from
//! every §3.3 strategy: referrer-relevance priorities (like soft) with a
//! tunnel cut-off (like limited distance).
//!
//! The `dataset_collection` bench binary uses these to reproduce the
//! paper's §5.1 observation that the Japanese dataset's 71% relevance is
//! an artifact of its collection strategy.

use super::{emit_all, PageView, Strategy};
use crate::queue::Entry;

/// Which simple-strategy flavour supplies the priorities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombinedBase {
    /// Single FIFO (hard mode has no priorities); the tunnel budget is
    /// the only relaxation. The Japanese-collection configuration.
    Hard,
    /// Two priority levels by referrer relevance; the Thai-collection
    /// configuration.
    Soft,
}

/// Simple strategy combined with a limited-distance tunnel budget `N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CombinedStrategy {
    base: CombinedBase,
    n: u8,
}

impl CombinedStrategy {
    /// Hard-focused + limited distance `n` (the paper's Japanese
    /// dataset-collection crawl).
    pub fn hard_limited(n: u8) -> Self {
        CombinedStrategy {
            base: CombinedBase::Hard,
            n,
        }
    }

    /// Soft-focused + limited distance `n` (the paper's Thai
    /// dataset-collection crawl).
    pub fn soft_limited(n: u8) -> Self {
        CombinedStrategy {
            base: CombinedBase::Soft,
            n,
        }
    }
}

impl Strategy for CombinedStrategy {
    fn name(&self) -> String {
        match self.base {
            CombinedBase::Hard => format!("hard+limited N={}", self.n),
            CombinedBase::Soft => format!("soft+limited N={}", self.n),
        }
    }

    fn levels(&self) -> usize {
        match self.base {
            CombinedBase::Hard => 1,
            CombinedBase::Soft => 2,
        }
    }

    fn admit(&mut self, view: &PageView<'_>, out: &mut Vec<Entry>) {
        let run = view.consec_irrelevant;
        if run > self.n {
            return; // tunnel budget exhausted on this path
        }
        let priority = match self.base {
            CombinedBase::Hard => 0,
            CombinedBase::Soft => u8::from(view.relevance <= 0.5),
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
    fn soft_limited_prioritizes_and_tunnels() {
        let mut s = CombinedStrategy::soft_limited(2);
        let mut out = Vec::new();
        s.admit(&view(0, &[1]), &mut out);
        assert_eq!(out[0].priority, 0);
        out.clear();
        s.admit(&view(1, &[1]), &mut out);
        assert_eq!(out[0].priority, 1);
        assert_eq!(out[0].distance, 1);
        out.clear();
        s.admit(&view(3, &[1]), &mut out);
        assert!(out.is_empty(), "beyond the budget");
    }

    #[test]
    fn hard_limited_zero_is_plain_hard() {
        let mut s = CombinedStrategy::hard_limited(0);
        let mut out = Vec::new();
        s.admit(&view(0, &[1, 2]), &mut out);
        assert_eq!(out.len(), 2);
        out.clear();
        s.admit(&view(1, &[1]), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn hard_limited_matches_non_prioritized_limited() {
        use crate::strategy::LimitedDistanceStrategy;
        let mut a = CombinedStrategy::hard_limited(3);
        let mut b = LimitedDistanceStrategy::non_prioritized(3);
        for run in 0..=5u8 {
            let mut out_a = Vec::new();
            let mut out_b = Vec::new();
            a.admit(&view(run, &[1, 2]), &mut out_a);
            b.admit(&view(run, &[1, 2]), &mut out_b);
            assert_eq!(out_a, out_b, "run {run}");
        }
        assert_eq!(a.levels(), b.levels());
    }

    #[test]
    fn soft_limited_differs_from_prioritized_limited() {
        use crate::strategy::LimitedDistanceStrategy;
        // At run=3 with N=4: soft+limited assigns priority 1 (binary),
        // prioritized limited assigns priority 3 (distance).
        let mut a = CombinedStrategy::soft_limited(4);
        let mut b = LimitedDistanceStrategy::prioritized(4);
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        a.admit(&view(3, &[1]), &mut out_a);
        b.admit(&view(3, &[1]), &mut out_b);
        assert_eq!(out_a[0].priority, 1);
        assert_eq!(out_b[0].priority, 3);
    }

    #[test]
    fn names() {
        assert_eq!(CombinedStrategy::hard_limited(2).name(), "hard+limited N=2");
        assert_eq!(CombinedStrategy::soft_limited(3).name(), "soft+limited N=3");
    }
}
