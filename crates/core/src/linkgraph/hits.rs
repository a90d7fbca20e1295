//! HITS distillation over a [`LinkGraph`].
//!
//! The distiller (§2.1 of the paper) runs a modified Kleinberg HITS on
//! the crawled subgraph every few thousand fetches: authorities are
//! restricted to relevant pages, and the out-neighbourhoods of the top
//! hubs get boosted.
//!
//! A firing is a flat recompute of `rounds` truncated iterations,
//! started from all-ones hub scores, that does only the work the answer
//! needs:
//!
//! 1. One pass over the crawled pages in ascending page id builds the
//!    relevance-filtered hub rows: for each crawled hub, its relevant
//!    crawled targets in recorded outlink order. A hub with none scores
//!    0 and needs no row.
//! 2. Each round pushes every hub's score along its row into the
//!    authority scores, rows in page order, then sums each hub's row
//!    back into its hub score.
//! 3. The top-K hubs come from a selection followed by a sort of the K,
//!    not a sort of every crawled page. Under (score desc, page asc)
//!    any positive score outranks every zero, so when at least K hubs
//!    end positive the selection sees only those; zero-score pages join
//!    it only when fewer than K hubs are positive.
//!
//! **Scores are unnormalized, up to a power of two.** Every step is
//! linear, so the textbook per-round L2 normalization only rescales the
//! vector by a positive scalar, and top-K selection is scale-invariant.
//! Unnormalized scores grow geometrically with the rounds, though, and
//! would overflow f64 within a few hundred. So after each hub pass in
//! which the largest hub score exceeds 2^512, every hub score is divided
//! by the power of two that brings the maximum into [1, 2). Power-of-two
//! scaling commutes with rounding: scores are exact up to that scale,
//! and rankings equal the unscaled computation wherever it stays finite.
//! Default runs (5 rounds) stay far below the threshold.
//!
//! **Bit-identical to the textbook recompute.** [`HitsState::full_reference`]
//! evaluates every crawled page over unfiltered outlink lists and sorts
//! every crawled page. The fast path agrees with it bit for bit by
//! construction. Every sum keeps its canonical order: an authority
//! score receives its terms in ascending source page id, because hub
//! rows are pushed in page order, and a hub score walks the recorded
//! outlink list, so scores are also independent of crawl interleaving.
//! The only terms the fast path drops are exactly +0.0 (uncrawled or
//! irrelevant targets), and adding +0.0 to a non-negative accumulator
//! leaves its bits unchanged. And (score desc, page asc) is a total
//! order over distinct pages, so selection returns the same K hubs in
//! the same order, whichever pages below the K-th it leaves out. The parity suite therefore pins reports, not
//! tolerance bands.
//!
//! A firing recomputes everything rather than only what changed since
//! the last one: with unnormalized scores, the frontier a score change
//! reaches covers nearly the whole crawled graph within 5 rounds, so a
//! firing restricted to the changed region costs about as much as a
//! full one and adds the bookkeeping (DESIGN §5 has the measurements).

use super::LinkGraph;
use core::cmp::Ordering;
use langcrawl_webgraph::PageId;

/// A hub pass whose largest score exceeds this (2^512) rescales.
const RESCALE_ABOVE: f64 = f64::from_bits(0x5ff0_0000_0000_0000);

/// The exponent bits of an f64: masking a positive normal value with
/// them leaves its leading power of two.
const EXPONENT_BITS: u64 = 0x7ff0_0000_0000_0000;

/// HITS distiller state (see the module docs for the algorithm).
#[derive(Debug)]
pub struct HitsState {
    /// Truncated power-iteration rounds per firing.
    rounds: usize,
    /// Reference mode: the textbook recompute.
    full: bool,
    /// Per page: relevance at crawl time (authorities must be
    /// relevant). Set by [`HitsState::note_page`], for crawled pages
    /// only, so a relevant page is a crawled one.
    relevant: Vec<bool>,
    /// Per page: authority score of the current round.
    auth: Vec<f64>,
    /// Per page: hub score of the current round; after a firing, of
    /// its last round.
    hub: Vec<f64>,
    /// Relevant crawled pages: the authorities, zeroed before each
    /// round's push.
    authorities: Vec<PageId>,
    /// Hub rows: `(page, end)` per crawled page with a relevant crawled
    /// target, in ascending page id; those targets run from the
    /// previous row's end to `end` in `hub_dst`.
    hub_rows: Vec<(PageId, u32)>,
    /// Targets of every hub row, back to back, in a buffer at least as
    /// long as the store's edge list (the filter writes before it
    /// decides).
    hub_dst: Vec<PageId>,
    /// Top-K scratch: `(score, page)`.
    board: Vec<(f64, PageId)>,
}

impl HitsState {
    /// Distiller evaluating `rounds` truncated iterations per firing.
    pub fn new(rounds: usize) -> Self {
        Self::with_mode(rounds, false)
    }

    /// Textbook reference: every crawled page over unfiltered outlink
    /// lists, and a full sort. It shares only the store with the fast
    /// path.
    pub fn full_reference(rounds: usize) -> Self {
        Self::with_mode(rounds, true)
    }

    fn with_mode(rounds: usize, full: bool) -> Self {
        HitsState {
            rounds: rounds.max(1),
            full,
            relevant: Vec::new(),
            auth: Vec::new(),
            hub: Vec::new(),
            authorities: Vec::new(),
            hub_rows: Vec::new(),
            hub_dst: Vec::new(),
            board: Vec::new(),
        }
    }

    /// Record the relevance of a page freshly recorded by
    /// [`LinkGraph::record_page`]. Grows per-page tables — the only
    /// allocating step of the ingest side. A page the store has not
    /// recorded stays irrelevant.
    pub fn note_page(&mut self, g: &LinkGraph, page: PageId, relevant: bool) {
        self.ensure_pages(g.page_bound());
        if let Some(flag) = self.relevant.get_mut(page as usize) {
            *flag = relevant && g.is_crawled(page);
        }
    }

    /// Grow the per-page tables to cover page ids `0..n`.
    fn ensure_pages(&mut self, n: usize) {
        if self.relevant.len() < n {
            self.relevant.resize(n, false);
            self.auth.resize(n, 0.0);
            self.hub.resize(n, 0.0);
        }
    }

    /// One distiller firing: recompute the truncated HITS iterates and
    /// return the top `top_k` hubs (score desc, page id asc) in
    /// `out_hubs`.
    pub fn distill(&mut self, g: &LinkGraph, top_k: usize, out_hubs: &mut Vec<PageId>) {
        let (pages, crawled, edges) = (g.page_bound(), g.num_crawled(), g.num_edges());
        self.ensure_pages(pages);
        if self.full {
            self.fire_reference(g, top_k, out_hubs);
        } else {
            pregrow(&mut self.authorities, crawled);
            pregrow(&mut self.hub_rows, crawled);
            pregrow(&mut self.board, crawled);
            if self.hub_dst.len() < edges {
                self.hub_dst = vec![0; 2 * edges];
            }
            self.fire(g, top_k, out_hubs);
        }
    }

    /// The steady-state firing: build the hub rows, run the rounds
    /// over them, select the top K. Every list is emptied and pre-grown
    /// by [`HitsState::distill`] to the store's crawled or edge count.
    // lint:root(panic-free, alloc-free) — the per-firing distiller
    // update the HITS-extended crawl runs on.
    fn fire(&mut self, g: &LinkGraph, top_k: usize, out_hubs: &mut Vec<PageId>) {
        let mut end = 0;
        for (page, outs) in g.crawled_pages() {
            let p = page as usize;
            // lint:allow(no-panic-transitive): per-page tables are ensure_pages-grown to page_bound and every page the store hands out is < page_bound; `end` never exceeds the outlinks scanned so far, fewer than num_edges ≤ hub_dst.len(); each row's end is its list's length when pushed
            if self.relevant[p] {
                self.authorities.push(page);
            }
            // Branch-free filter: write every target, keep the relevant
            // ones (relevant implies crawled).
            let start = end;
            for &t in outs {
                self.hub_dst[end] = t;
                end += usize::from(self.relevant[t as usize]);
            }
            // A hub with no relevant crawled target scores 0 in every
            // round and pushes nothing, so it gets no row.
            if end > start {
                self.hub[p] = 1.0;
                self.hub_rows.push((page, end as u32));
            } else {
                self.hub[p] = 0.0;
            }
        }
        for _ in 0..self.rounds {
            for &a in &self.authorities {
                self.auth[a as usize] = 0.0;
            }
            let mut lo = 0;
            for &(h, end) in &self.hub_rows {
                let score = self.hub[h as usize];
                for &t in &self.hub_dst[lo..end as usize] {
                    self.auth[t as usize] += score;
                }
                lo = end as usize;
            }
            let (mut lo, mut max) = (0, 0.0f64);
            for &(h, end) in &self.hub_rows {
                let mut acc = 0.0;
                for &t in &self.hub_dst[lo..end as usize] {
                    acc += self.auth[t as usize];
                }
                self.hub[h as usize] = acc;
                max = max.max(acc);
                lo = end as usize;
            }
            if max > RESCALE_ABOVE {
                let unit = f64::from_bits(max.to_bits() & EXPONENT_BITS);
                for &(h, _) in &self.hub_rows {
                    self.hub[h as usize] /= unit;
                }
            }
        }
        // Every positive score outranks every zero, so zero-score pages
        // (rowless hubs, and rows whose score underflowed) can place
        // only when fewer than K hubs are positive.
        for &(h, _) in &self.hub_rows {
            let score = self.hub[h as usize];
            if score > 0.0 {
                self.board.push((score, h));
            }
        }
        if self.board.len() < top_k {
            for (page, _) in g.crawled_pages() {
                if self.hub[page as usize] == 0.0 {
                    self.board.push((0.0, page));
                }
            }
        }
        let take = top_k.min(self.board.len());
        if take < self.board.len() {
            self.board.select_nth_unstable_by(take, by_rank);
        }
        self.board[..take].sort_unstable_by(by_rank);
        out_hubs.clear();
        for b in &self.board[..take] {
            out_hubs.push(b.1);
        }
    }

    /// The textbook firing behind [`HitsState::full_reference`]: each
    /// round pushes every crawled page's hub score along its unfiltered
    /// outlink list in page order, keeps the relevant pages' authority
    /// scores, sums every page's outlink list back into its hub score,
    /// and then every crawled page is sorted.
    fn fire_reference(&mut self, g: &LinkGraph, top_k: usize, out_hubs: &mut Vec<PageId>) {
        let n = g.page_bound() as PageId;
        for p in 0..n {
            self.hub[p as usize] = if g.is_crawled(p) { 1.0 } else { 0.0 };
        }
        for _ in 0..self.rounds {
            self.auth.fill(0.0);
            for p in 0..n {
                for &t in g.out_pages(p) {
                    self.auth[t as usize] += self.hub[p as usize];
                }
            }
            for j in 0..n {
                if !(g.is_crawled(j) && self.relevant[j as usize]) {
                    self.auth[j as usize] = 0.0;
                }
            }
            let mut max = 0.0f64;
            for h in 0..n {
                let auth = &self.auth;
                let score = g
                    .out_pages(h)
                    .iter()
                    .fold(0.0, |acc, &t| acc + auth[t as usize]);
                self.hub[h as usize] = score;
                max = max.max(score);
            }
            if max > RESCALE_ABOVE {
                let unit = f64::from_bits(max.to_bits() & EXPONENT_BITS);
                for score in &mut self.hub {
                    *score /= unit;
                }
            }
        }
        self.board.clear();
        for p in (0..n).filter(|&p| g.is_crawled(p)) {
            self.board.push((self.hub[p as usize], p));
        }
        self.board.sort_unstable_by(by_rank);
        out_hubs.clear();
        out_hubs.extend(self.board.iter().take(top_k).map(|b| b.1));
    }
}

/// Empty `v` with room for `n` items. A short buffer is replaced rather
/// than grown, as its contents need no copying.
fn pregrow<T>(v: &mut Vec<T>, n: usize) {
    v.clear();
    if v.capacity() < n {
        *v = Vec::with_capacity(2 * n);
    }
}

/// Rank order of `(score, page)` board entries: score desc, then page
/// id asc — a total order over distinct pages.
fn by_rank(a: &(f64, PageId), b: &(f64, PageId)) -> Ordering {
    b.0.partial_cmp(&a.0)
        .unwrap_or(Ordering::Equal)
        .then(a.1.cmp(&b.1))
}

#[cfg(test)]
mod tests {
    use super::*;

    impl HitsState {
        /// Hub score of `page` after the last firing's last round: the
        /// unnormalized score, exact up to the firing's power-of-two scale
        /// (see the module docs); 0 for pages crawled since.
        fn hub_score(&self, page: PageId) -> f64 {
            self.hub.get(page as usize).copied().unwrap_or(0.0)
        }
    }

    /// Drive the fast path and the textbook reference over the same
    /// crawl sequence, firing at the same points, and demand
    /// bit-identical hub lists and scores — across round counts (600
    /// rescales), top-K sizes from 0 to more than the pages crawled
    /// (so K falls below, at and above the count of positive hubs), and
    /// a tie-heavy batch where page id decides the K-th place.
    #[test]
    fn flat_firing_matches_reference_bitwise() {
        for rounds in [1, 5, 600] {
            for top_k in [0, 1, 2, 5, 10, 20, 40, 100, 1_000] {
                let mut gi = LinkGraph::new();
                let mut gf = LinkGraph::new();
                let mut fast = HitsState::new(rounds);
                let mut full = HitsState::full_reference(rounds);
                let mut x = 3u64;
                let mut step = || {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (x >> 33) as u32
                };
                let mut hi = Vec::new();
                let mut hf = Vec::new();
                for batch in 0..7 {
                    let pages: Vec<(u32, Vec<u32>, bool)> = if batch == 3 {
                        // 30 irrelevant hubs, crawled in descending page
                        // order, each linking the same 3 relevant
                        // authorities: their scores tie exactly.
                        let mut tie: Vec<_> = (0..30u32)
                            .rev()
                            .map(|i| (200 + i, vec![300, 301, 302], false))
                            .collect();
                        tie.extend((300..303).map(|a| (a, vec![], true)));
                        tie
                    } else {
                        (0..20u32)
                            .map(|i| {
                                let p = batch * 20 + i;
                                (
                                    p,
                                    vec![step() % 150, step() % 150, step() % 150],
                                    p % 3 != 0,
                                )
                            })
                            .collect()
                    };
                    for (p, outs, rel) in pages {
                        gi.record_page(p, &outs);
                        fast.note_page(&gi, p, rel);
                        gf.record_page(p, &outs);
                        full.note_page(&gf, p, rel);
                    }
                    fast.distill(&gi, top_k, &mut hi);
                    full.distill(&gf, top_k, &mut hf);
                    let at = format!("rounds {rounds}, top_k {top_k}, batch {batch}");
                    assert_eq!(hi, hf, "top hubs diverge at {at}");
                    assert_eq!(hi.len(), top_k.min(gi.num_crawled()), "{at}");
                    for p in 0..gi.page_bound() as u32 {
                        let (a, b) = (fast.hub_score(p), full.hub_score(p));
                        assert_eq!(a.to_bits(), b.to_bits(), "hub score diverges at {at}");
                    }
                }
            }
        }
    }

    /// Many rounds overflow unnormalized scores: without the rescale
    /// every hub reads `inf` and the ranking falls back to page order.
    #[test]
    fn many_rounds_rescale_instead_of_overflowing() {
        let mut g = LinkGraph::new();
        let mut st = HitsState::new(600);
        for (p, outs) in [(3u32, &[10u32, 11, 12][..]), (2, &[10, 11]), (1, &[10])] {
            g.record_page(p, outs);
            st.note_page(&g, p, false);
        }
        for p in [10u32, 11, 12] {
            g.record_page(p, &[]);
            st.note_page(&g, p, true);
        }
        let mut hubs = Vec::new();
        st.distill(&g, 3, &mut hubs);
        assert_eq!(hubs, [3, 2, 1]);
        for &p in &hubs {
            assert!(st.hub_score(p).is_finite(), "hub {p} overflowed");
        }
    }

    #[test]
    fn identifies_the_hub() {
        let mut g = LinkGraph::new();
        let mut st = HitsState::new(5);
        // Page 0 links three relevant authorities which point onward.
        g.record_page(0, &[1, 2, 3]);
        st.note_page(&g, 0, false);
        for p in [1u32, 2, 3] {
            g.record_page(p, &[5]);
            st.note_page(&g, p, true);
        }
        g.record_page(5, &[]);
        st.note_page(&g, 5, true);
        let mut hubs = Vec::new();
        st.distill(&g, 1, &mut hubs);
        assert_eq!(hubs[0], 0, "page 0 must be the strongest hub");
    }

    #[test]
    fn scores_are_insertion_order_invariant() {
        let n = 30u32;
        let pages: Vec<(u32, Vec<u32>)> = (0..n)
            .map(|p| (p, vec![(p * 11 + 3) % n, (p * 17 + 7) % n, (p + 1) % n]))
            .collect();
        let run = |order: Vec<&(u32, Vec<u32>)>| {
            let mut g = LinkGraph::new();
            let mut st = HitsState::new(5);
            for (p, outs) in order {
                g.record_page(*p, outs);
                st.note_page(&g, *p, p % 2 == 1);
            }
            let mut hubs = Vec::new();
            st.distill(&g, 10, &mut hubs);
            let scores: Vec<u64> = (0..n).map(|p| st.hub_score(p).to_bits()).collect();
            (hubs, scores)
        };
        let fwd = run(pages.iter().collect());
        let rev = run(pages.iter().rev().collect());
        assert_eq!(fwd.0, rev.0, "top-hub list must not depend on crawl order");
        assert_eq!(
            fwd.1, rev.1,
            "scores must be bitwise insertion-order invariant"
        );
    }

    #[test]
    fn empty_graph_distills_to_nothing() {
        let g = LinkGraph::new();
        let mut st = HitsState::new(5);
        let mut hubs = vec![99];
        st.distill(&g, 10, &mut hubs);
        assert!(hubs.is_empty());
    }
}
