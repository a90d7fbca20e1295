//! The shared dynamic crawl-graph store behind the link-analysis
//! strategies (§3.3 orderings: online PageRank, the HITS distiller, the
//! context-graph crawler).
//!
//! Before this module each link strategy kept a private
//! `HashMap<PageId, Vec<PageId>>` of the crawled subgraph and rebuilt
//! whatever it needed from scratch at every refresh interval, so total
//! link-analysis cost grew quadratically with crawl length. The store
//! replaces those maps with one append-only structure shared by all
//! three strategies:
//!
//! * **Keyed by page id** — page ids in the simulator are dense indices
//!   into the web space, so every per-node attribute, here and in the
//!   solvers, is a flat `Vec` indexed by page id and grown on demand to
//!   the largest id seen. There is no hashing on the hot path and no
//!   renumbering: node order *is* page order, so a scan in index order
//!   visits pages in ascending id.
//! * **Forward adjacency** — a crawled page's outlinks arrive exactly
//!   once (when the page is fetched), so the forward view is a plain
//!   append-only CSR: one contiguous span of the edge array per crawled
//!   page, in crawl order.
//!
//! The store keeps no reverse adjacency. Every f64 sum runs in page id
//! order, so results do not depend on crawl interleaving; the two
//! solvers that sum floats get that order by visiting sources in
//! ascending page id ([`LinkGraph::crawled_pages`]). [`pagerank`] keeps
//! page-sorted in-lists across refreshes and merges each refresh's new
//! edges into them, and [`hits`] pushes hub scores along the forward
//! spans. [`layers`] reads in-edges on every fetch but does not care
//! about their order, so it keeps its own append-only reverse lists.
//!
//! The store itself never iterates a hash container and allocates only
//! when an array grows past its high-water mark. Only
//! [`LinkGraph::record_page`] writes it. The algorithms layered on top
//! — [`pagerank`]'s incremental refresh, [`hits`]'s flat
//! relevance-filtered recompute and [`layers`]' decrease-only
//! relaxation — only read it, and keep their scratch buffers across
//! refreshes, so the steady-state update path performs zero heap
//! allocations (proven transitively by the `lint:root` markers they
//! carry).

pub mod hits;
pub mod layers;
pub mod pagerank;

use langcrawl_webgraph::PageId;

/// Shared sentinel: page not crawled / no chunk.
const NONE: u32 = u32::MAX;

/// Append-only crawl-graph store keyed by page id: a forward flat CSR.
///
/// ```
/// use langcrawl_core::linkgraph::LinkGraph;
///
/// let mut g = LinkGraph::new();
/// g.record_page(7, &[9, 11]);
/// g.record_page(9, &[7]);
/// assert_eq!(g.num_crawled(), 2);
/// assert_eq!(g.out_pages(7), &[9, 11]);
/// assert!(g.is_crawled(9));
/// assert!(!g.is_crawled(11));
/// assert_eq!(g.page_bound(), 12);
/// ```
#[derive(Debug, Default)]
pub struct LinkGraph {
    /// Per page: offset and length of its forward span in `fwd_edges`;
    /// the offset is [`NONE`] while the page is not crawled.
    spans: Vec<(u32, u32)>,
    /// Forward edge array: one contiguous span per crawled page, in
    /// crawl order (append-only CSR).
    fwd_edges: Vec<PageId>,
    /// Pages with a forward span.
    crawled: u32,
}

impl LinkGraph {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pages recorded via [`LinkGraph::record_page`].
    #[inline]
    pub fn num_crawled(&self) -> usize {
        self.crawled as usize
    }

    /// Total edges recorded.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.fwd_edges.len()
    }

    /// One past the largest page id recorded or linked to: the length
    /// the solvers grow their per-page tables to.
    #[inline]
    pub fn page_bound(&self) -> usize {
        self.spans.len()
    }

    /// Whether `page` has been recorded (fetched).
    #[inline]
    pub fn is_crawled(&self, page: PageId) -> bool {
        self.spans
            .get(page as usize)
            .is_some_and(|&(head, _)| head != NONE)
    }

    /// Forward adjacency of `page` in recorded outlink order (empty
    /// while not crawled).
    #[inline]
    pub fn out_pages(&self, page: PageId) -> &[PageId] {
        match self.spans.get(page as usize) {
            Some(&(head, len)) if head != NONE => self.span(head, len),
            _ => &[],
        }
    }

    /// Every crawled page with its outlinks, in ascending page id.
    pub fn crawled_pages(&self) -> impl Iterator<Item = (PageId, &[PageId])> + '_ {
        (0..)
            .zip(&self.spans)
            .filter(|&(_, &(head, _))| head != NONE)
            .map(|(page, &(head, len))| (page, self.span(head, len)))
    }

    /// The forward span at `head` of length `len`.
    #[inline]
    fn span(&self, head: u32, len: u32) -> &[PageId] {
        let lo = head as usize;
        // lint:allow(no-panic-transitive): every crawled page's (head, len) was set by record_page to a span it had just appended to fwd_edges, which only grows
        &self.fwd_edges[lo..lo + len as usize]
    }

    /// The target of every recorded edge, in record order. Edges are
    /// only ever appended, so `edge_targets()[k..]` holds exactly the
    /// edges recorded after the first `k`.
    #[inline]
    pub fn edge_targets(&self) -> &[PageId] {
        &self.fwd_edges
    }

    /// Record a fetched page and its outlinks: grows the page table to
    /// cover them and appends the forward span. Idempotent: a page
    /// already recorded is left unchanged (the engine resolves each page
    /// exactly once, so this only guards against misuse).
    // lint:root(panic-free) — the once-per-fetch ingest path of every
    // link strategy; arrays only grow to their high-water sizes.
    pub fn record_page(&mut self, page: PageId, outlinks: &[PageId]) {
        if self.is_crawled(page) {
            return; // already recorded
        }
        let bound = outlinks.iter().fold(page, |a, &b| a.max(b)) as usize + 1;
        if self.spans.len() < bound {
            self.spans.resize(bound, (NONE, 0));
        }
        // lint:allow(no-panic-transitive): the resize above grows the page table past the page and each of its outlinks
        self.spans[page as usize] = (self.fwd_edges.len() as u32, outlinks.len() as u32);
        self.fwd_edges.extend_from_slice(outlinks);
        self.crawled += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_page_builds_forward_adjacency() {
        let mut g = LinkGraph::new();
        g.record_page(1, &[2, 3, 2]);
        g.record_page(2, &[1]);
        assert_eq!(g.num_crawled(), 2);
        assert_eq!(g.page_bound(), 4);
        assert_eq!(g.num_edges(), 4);
        // Duplicate links keep their multiplicity and record order.
        assert_eq!(g.out_pages(1), &[2, 3, 2]);
        assert_eq!(g.out_pages(2), &[1]);
        assert_eq!(g.edge_targets(), &[2, 3, 2, 1]);
    }

    #[test]
    fn self_loop_is_an_ordinary_edge() {
        let mut g = LinkGraph::new();
        g.record_page(5, &[5, 6]);
        assert_eq!(g.out_pages(5), &[5, 6]);
        assert_eq!(g.page_bound(), 7);
    }

    #[test]
    fn record_is_idempotent() {
        let mut g = LinkGraph::new();
        g.record_page(1, &[2]);
        g.record_page(1, &[9, 9, 9]);
        assert_eq!(g.num_edges(), 1, "second record is ignored");
        assert_eq!(g.out_pages(1), &[2]);
        assert_eq!(g.page_bound(), 3, "nor does it grow the tables");
    }

    #[test]
    fn crawled_pages_walk_in_page_order() {
        let mut g = LinkGraph::new();
        g.record_page(9_000, &[3]);
        g.record_page(3, &[9_000, 40]);
        g.record_page(40, &[]);
        let rows: Vec<(PageId, Vec<PageId>)> = g
            .crawled_pages()
            .map(|(p, outs)| (p, outs.to_vec()))
            .collect();
        assert_eq!(
            rows,
            vec![(3, vec![9_000, 40]), (40, vec![]), (9_000, vec![3])]
        );
    }

    #[test]
    fn uncrawled_pages_expose_empty_forward_views() {
        let mut g = LinkGraph::new();
        g.record_page(1, &[2]);
        for page in [0, 2, 1_000_000] {
            assert!(!g.is_crawled(page));
            assert!(g.out_pages(page).is_empty());
        }
    }
}
