//! Online context-graph layers over a [`LinkGraph`].
//!
//! The context-graph crawler (§3.3 of the paper) prioritizes a page by
//! its *layer*: the length of the shortest forward-link chain from the
//! page to a known relevant page. The idealized strategy computes
//! layers once, offline, by multi-source BFS over the full web; the
//! online variant can only use the crawled subgraph, and the historical
//! approach of re-running the BFS from scratch at every refresh is
//! O(crawled) per refresh.
//!
//! Because the crawl only ever *adds* edges and relevant sources, and
//! layers only ever *decrease*, the layer function is maintainable by
//! pure decrease-only relaxation: when a page is crawled, its own layer
//! is proposed (0 if relevant, else 1 + the best layer among its
//! outlink targets), and every improvement is pushed backwards along
//! the reverse edges seen so far. The fixpoint of this monotone
//! relaxation is exactly the capped BFS distance on the crawled
//! subgraph — the parity suite checks it against a from-scratch BFS
//! reference — and each edge is relaxed only when an endpoint's layer
//! actually improves, so total maintenance work is O(E · L) over the
//! whole crawl instead of per refresh.
//!
//! The reverse edges live here, not in the store: this is the only
//! code that walks in-edges on every fetch, and the fixpoint does not
//! depend on the order it walks them in. So they are append-only
//! chunk lists, grown by [`LayerIndex::on_record`] outside the
//! relaxation, with no order to keep.

use super::{LinkGraph, NONE};
use langcrawl_webgraph::PageId;

/// Layer value for "no known chain to a relevant page (within the
/// cap)".
pub const UNREACHED: u8 = u8::MAX;

/// Sources per reverse-edge chunk. Eight `u32` sources plus the two
/// header words make a 40-byte chunk, under one cache line.
const CHUNK_SOURCES: usize = 8;

/// Words per chunk: next-chunk link, length, then the sources.
const CHUNK_WORDS: usize = CHUNK_SOURCES + 2;

/// Incrementally maintained context-graph layers (see module docs).
#[derive(Debug)]
pub struct LayerIndex {
    /// Deepest maintained layer; pages further out stay [`UNREACHED`].
    max_layer: u8,
    /// Per page: current layer, [`UNREACHED`] while unknown.
    layer: Vec<u8>,
    /// Per page: the chunk of `in_arena` that takes its next in-edge,
    /// or [`NONE`]; older chunks hang off it.
    in_head: Vec<u32>,
    /// Reverse-edge chunks, [`CHUNK_WORDS`] words each:
    /// `[older_chunk | NONE, len, source0..source7]`, sources in no
    /// particular order.
    in_arena: Vec<u32>,
    /// Relaxation worklist (order does not affect the fixpoint — the
    /// relaxation is monotone — and is deterministic anyway).
    work: Vec<PageId>,
}

impl LayerIndex {
    /// Layer index maintaining layers `0..=max_layer`.
    pub fn new(max_layer: u8) -> Self {
        LayerIndex {
            max_layer: max_layer.min(UNREACHED - 1),
            layer: Vec::new(),
            in_head: Vec::new(),
            in_arena: Vec::new(),
            work: Vec::new(),
        }
    }

    /// Current layer of `page`, or [`UNREACHED`].
    #[inline]
    pub fn layer_of(&self, page: PageId) -> u8 {
        self.layer.get(page as usize).copied().unwrap_or(UNREACHED)
    }

    /// Absorb a page freshly recorded by [`LinkGraph::record_page`],
    /// once per page: file its outlinks as in-edges of their targets,
    /// propose its own layer from those targets (or 0 if relevant), and
    /// relax every improvement backwards along in-edges. A page the
    /// store has not recorded is ignored. Growth happens up front; the
    /// relaxation loop is the steady-state update path.
    pub fn on_record(&mut self, g: &LinkGraph, page: PageId, relevant: bool) {
        if !g.is_crawled(page) {
            return;
        }
        let n = g.page_bound();
        if self.layer.len() < n {
            self.layer.resize(n, UNREACHED);
            self.in_head.resize(n, NONE);
            self.work.reserve(n.saturating_sub(self.work.capacity()));
        }
        for &t in g.out_pages(page) {
            let mut head = self.in_head[t as usize];
            if head == NONE || self.in_arena[head as usize + 1] as usize == CHUNK_SOURCES {
                let at = self.in_arena.len();
                self.in_arena.resize(at + CHUNK_WORDS, 0);
                self.in_arena[at] = head;
                head = at as u32;
                self.in_head[t as usize] = head;
            }
            let base = head as usize;
            let len = self.in_arena[base + 1] as usize;
            self.in_arena[base + 2 + len] = page;
            self.in_arena[base + 1] += 1;
        }
        self.absorb(g, page, relevant);
    }

    /// The relaxation itself — decrease-only, worklist-driven.
    // lint:root(panic-free, alloc-free) — the per-fetch layer update
    // the online context-graph crawl runs on.
    fn absorb(&mut self, g: &LinkGraph, page: PageId, relevant: bool) {
        // The newly crawled page's own layer: 0 if relevant, else one
        // past the best already-known layer among its outlink targets.
        let mut best = if relevant { 0 } else { UNREACHED };
        if !relevant {
            for &t in g.out_pages(page) {
                // lint:allow(no-panic-transitive): layer and in_head are grown to page_bound in on_record, the page is crawled and it and its targets are < page_bound, and chunk offsets and lengths come from the arena itself
                let lt = self.layer[t as usize];
                if lt < UNREACHED && lt < self.max_layer && lt + 1 < best {
                    best = lt + 1;
                }
            }
        }
        if best < self.layer[page as usize] {
            self.layer[page as usize] = best;
            self.work.push(page);
        }
        // Drain: every improved node may improve its crawled
        // in-neighbours (one forward step closer to a relevant page).
        while let Some(y) = self.work.pop() {
            let ly = self.layer[y as usize];
            if ly >= self.max_layer {
                continue;
            }
            let cand = ly + 1;
            let mut chunk = self.in_head[y as usize];
            while chunk != NONE {
                let base = chunk as usize;
                let len = self.in_arena[base + 1] as usize;
                for &p in &self.in_arena[base + 2..base + 2 + len] {
                    let pu = p as usize;
                    if cand < self.layer[pu] {
                        self.layer[pu] = cand;
                        self.work.push(p);
                    }
                }
                chunk = self.in_arena[base];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// From-scratch capped multi-source BFS on the crawled subgraph —
    /// the reference the relaxation must agree with. It builds its own
    /// reverse map from the store's forward lists.
    fn bfs_reference(g: &LinkGraph, relevant: &[bool], max_layer: u8) -> Vec<u8> {
        let n = g.page_bound();
        let mut rev = vec![Vec::new(); n];
        for (p, outs) in g.crawled_pages() {
            for &t in outs {
                rev[t as usize].push(p);
            }
        }
        let mut layer = vec![UNREACHED; n];
        let mut frontier: Vec<PageId> = g
            .crawled_pages()
            .map(|(p, _)| p)
            .filter(|&p| relevant[p as usize])
            .collect();
        for &p in &frontier {
            layer[p as usize] = 0;
        }
        let mut depth = 0u8;
        while !frontier.is_empty() && depth < max_layer {
            depth += 1;
            let mut next = Vec::new();
            for &y in &frontier {
                for &p in &rev[y as usize] {
                    let pu = p as usize;
                    if g.is_crawled(p) && layer[pu] == UNREACHED {
                        layer[pu] = depth;
                        next.push(p);
                    }
                }
            }
            frontier = next;
        }
        layer
    }

    /// The in-edges `idx` has filed for `page`, sorted (they are kept in
    /// no particular order).
    fn in_edges(idx: &LayerIndex, page: PageId) -> Vec<PageId> {
        let mut out = Vec::new();
        let mut chunk = idx.in_head.get(page as usize).copied().unwrap_or(NONE);
        while chunk != NONE {
            let base = chunk as usize;
            let len = idx.in_arena[base + 1] as usize;
            out.extend_from_slice(&idx.in_arena[base + 2..base + 2 + len]);
            chunk = idx.in_arena[base];
        }
        out.sort_unstable();
        out
    }

    /// The reverse lists hold exactly the store's edges, reversed, with
    /// multiplicity: compared against a naive model as multisets after
    /// random growth with duplicate links, self-loops and hubs far
    /// larger than one chunk.
    #[test]
    fn in_lists_mirror_the_forward_edges() {
        let mut g = LinkGraph::new();
        let mut idx = LayerIndex::new(3);
        let mut model: Vec<Vec<PageId>> = Vec::new();
        let mut x = 5u64;
        let mut step = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as u32
        };
        for p in (0..300u32).rev() {
            let mut outs = vec![999, step() % 320, step() % 320];
            outs.push(outs[1]);
            if p % 7 == 0 {
                outs.push(p);
            }
            g.record_page(p, &outs);
            idx.on_record(&g, p, step() % 5 == 0);
            model.resize(g.page_bound(), Vec::new());
            for &t in g.out_pages(p) {
                model[t as usize].push(p);
            }
        }
        for (t, want) in model.iter_mut().enumerate() {
            want.sort_unstable();
            assert_eq!(&in_edges(&idx, t as PageId), want, "in-edges of page {t}");
        }
        assert_eq!(in_edges(&idx, 999).len(), 300, "one in-edge per page");
    }

    #[test]
    fn matches_bfs_reference_on_random_growth() {
        let mut g = LinkGraph::new();
        let mut idx = LayerIndex::new(3);
        let mut relevant = Vec::new();
        let mut x = 11u64;
        let mut step = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as u32
        };
        for p in 0..200u32 {
            let outs = [step() % 220, step() % 220];
            let rel = step() % 5 == 0;
            g.record_page(p, &outs);
            relevant.resize(g.page_bound(), false);
            relevant[p as usize] = rel;
            idx.on_record(&g, p, rel);
            // Invariant checked at every step, not just the end: the
            // online layers are exactly the capped BFS distances.
            if p % 37 == 0 {
                let want = bfs_reference(&g, &relevant, 3);
                for (q, _) in g.crawled_pages() {
                    assert_eq!(
                        idx.layer_of(q),
                        want[q as usize],
                        "page {q} layer diverges at p={p}"
                    );
                }
            }
        }
        let want = bfs_reference(&g, &relevant, 3);
        for (q, _) in g.crawled_pages() {
            assert_eq!(idx.layer_of(q), want[q as usize]);
        }
    }

    #[test]
    fn chain_layers_propagate_backwards() {
        let mut g = LinkGraph::new();
        let mut idx = LayerIndex::new(4);
        // 3 → 2 → 1 → 0 (relevant), crawled in chain order.
        for p in [3u32, 2, 1] {
            g.record_page(p, &[p - 1]);
            idx.on_record(&g, p, false);
        }
        assert_eq!(idx.layer_of(3), UNREACHED);
        // Crawling the relevant sink back-propagates the whole chain.
        g.record_page(0, &[]);
        idx.on_record(&g, 0, true);
        for p in 0..4u32 {
            assert_eq!(idx.layer_of(p), p as u8);
        }
    }

    #[test]
    fn layers_are_capped() {
        let mut g = LinkGraph::new();
        let mut idx = LayerIndex::new(2);
        for p in (1..6u32).rev() {
            g.record_page(p, &[p - 1]);
            idx.on_record(&g, p, false);
        }
        g.record_page(0, &[]);
        idx.on_record(&g, 0, true);
        assert_eq!(idx.layer_of(1), 1);
        assert_eq!(idx.layer_of(2), 2);
        assert_eq!(idx.layer_of(3), UNREACHED, "beyond the cap");
        assert_eq!(idx.layer_of(4), UNREACHED);
    }

    #[test]
    fn unrecorded_pages_are_ignored() {
        let mut g = LinkGraph::new();
        let mut idx = LayerIndex::new(2);
        g.record_page(1, &[2]);
        idx.on_record(&g, 5_000, true);
        assert_eq!(idx.layer_of(5_000), UNREACHED);
        idx.on_record(&g, 1, true);
        assert_eq!(idx.layer_of(1), 0);
    }
}
