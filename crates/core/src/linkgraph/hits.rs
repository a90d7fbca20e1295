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
//! 1. One pass over the slots builds two relevance-filtered gather
//!    lists: for each relevant crawled page, its in-sources in the
//!    store's page-sorted chain order; for each crawled hub, its
//!    relevant crawled targets in recorded outlink order. A hub with
//!    none scores 0 and needs no list.
//! 2. Each round sums authority scores, then hub scores, over them.
//! 3. The top-K hubs come from a selection followed by a sort of the K,
//!    not a sort of every crawled page.
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
//! evaluates every crawled slot over unfiltered outlink lists and sorts
//! every crawled page. The fast path agrees with it bit for bit by
//! construction. Every sum keeps its canonical order: auth gathers walk
//! in-sources in ascending page id (the store keeps reverse chains
//! page-sorted) and hub gathers walk the recorded outlink list, so
//! scores are also independent of crawl interleaving. The only terms the
//! fast path drops are exactly +0.0 (uncrawled or irrelevant targets),
//! and adding +0.0 to a non-negative accumulator leaves its bits
//! unchanged. And (score desc, page asc) is a total order over distinct
//! pages, so selection returns the same K hubs in the same order. The
//! parity suite therefore pins reports, not tolerance bands.
//!
//! The firing does not restrict itself to the store's epoch delta: with
//! unnormalized scores, the frontier a score change reaches covers
//! nearly the whole crawled graph within 5 rounds, so a delta-restricted
//! firing costs about as much as a full one and adds the bookkeeping
//! (DESIGN §5 has the measurements).

use super::{LinkGraph, Slot};
use core::cmp::Ordering;

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
    /// Per slot: relevance at crawl time (authorities must be
    /// relevant). Set by [`HitsState::note_page`], for crawled slots
    /// only, so a relevant slot is a crawled one.
    relevant: Vec<bool>,
    /// Per slot: authority score of the current round.
    auth: Vec<f64>,
    /// Per slot: hub score of the current round; after a firing, of
    /// its last round.
    hub: Vec<f64>,
    /// Auth gather rows: `(slot, end)` per relevant crawled slot, whose
    /// in-sources run from the previous row's end to `end` in `auth_src`.
    auth_rows: Vec<(Slot, u32)>,
    /// In-sources of every auth row, back to back.
    auth_src: Vec<Slot>,
    /// Hub gather rows: `(slot, end)` per crawled slot with a relevant
    /// crawled target; those targets run from the previous row's end to
    /// `end` in `hub_dst`.
    hub_rows: Vec<(Slot, u32)>,
    /// Targets of every hub row, back to back, in a buffer at least as
    /// long as the store's edge list (the filter writes before it
    /// decides).
    hub_dst: Vec<Slot>,
    /// Top-K scratch: `(score, page, slot)`.
    board: Vec<(f64, u32, Slot)>,
}

impl HitsState {
    /// Distiller evaluating `rounds` truncated iterations per firing.
    pub fn new(rounds: usize) -> Self {
        Self::with_mode(rounds, false)
    }

    /// Textbook reference: every crawled slot over unfiltered outlink
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
            auth_rows: Vec::new(),
            auth_src: Vec::new(),
            hub_rows: Vec::new(),
            hub_dst: Vec::new(),
            board: Vec::new(),
        }
    }

    /// Record the relevance of a freshly crawled page (slot as returned
    /// by [`LinkGraph::record_page`]). Grows per-slot tables — the only
    /// allocating step of the ingest side.
    pub fn note_page(&mut self, g: &LinkGraph, slot: Slot, relevant: bool) {
        self.ensure_slots(g.num_slots());
        self.relevant[slot as usize] = relevant && g.is_crawled(slot);
    }

    /// Grow the per-slot tables to cover `n` slots.
    fn ensure_slots(&mut self, n: usize) {
        if self.relevant.len() < n {
            self.relevant.resize(n, false);
            self.auth.resize(n, 0.0);
            self.hub.resize(n, 0.0);
        }
    }

    /// One distiller firing: recompute the truncated HITS iterates,
    /// close the store's epoch, and return the top `top_k` hub slots
    /// (score desc, page id asc) in `out_hubs`.
    pub fn distill(&mut self, g: &mut LinkGraph, top_k: usize, out_hubs: &mut Vec<Slot>) {
        let (slots, edges) = (g.num_slots(), g.num_edges());
        self.ensure_slots(slots);
        if self.full {
            self.fire_reference(g, top_k, out_hubs);
        } else {
            pregrow(&mut self.auth_rows, slots);
            pregrow(&mut self.hub_rows, slots);
            pregrow(&mut self.board, slots);
            pregrow(&mut self.auth_src, edges);
            if self.hub_dst.len() < edges {
                self.hub_dst = vec![0; 2 * edges];
            }
            self.fire(g, top_k, out_hubs);
        }
        g.advance_epoch();
    }

    /// The steady-state firing: build the gather lists, run the rounds
    /// over them, select the top K. Every list is emptied and pre-grown
    /// by [`HitsState::distill`] to the store's slot or edge count.
    // lint:root(panic-free, alloc-free) — the per-firing distiller
    // update the HITS-extended crawl runs on.
    fn fire(&mut self, g: &LinkGraph, top_k: usize, out_hubs: &mut Vec<Slot>) {
        let slots = self.relevant.len().min(g.num_slots());
        let mut end = 0;
        for s in 0..slots as Slot {
            if !g.is_crawled(s) {
                continue;
            }
            // lint:allow(no-panic-transitive): per-slot tables are ensure_slots-grown to num_slots and every slot the store hands out is < num_slots; `end` never exceeds the outlinks scanned so far, fewer than num_edges ≤ hub_dst.len(); each row's end is its list's length when pushed
            if self.relevant[s as usize] {
                for p in g.in_slots(s) {
                    self.auth_src.push(p);
                }
                self.auth_rows.push((s, self.auth_src.len() as u32));
            }
            // Branch-free filter: write every target, keep the relevant
            // ones (relevant implies crawled).
            let start = end;
            for &t in g.out_slots(s) {
                self.hub_dst[end] = t;
                end += usize::from(self.relevant[t as usize]);
            }
            // A hub with no relevant crawled target scores 0 in every
            // round, and no auth row reads it (its targets would be in
            // its list): it gets no row and goes straight to the board.
            if end > start {
                self.hub[s as usize] = 1.0;
                self.hub_rows.push((s, end as u32));
            } else {
                self.hub[s as usize] = 0.0;
                self.board.push((0.0, g.page_at(s), s));
            }
        }
        for _ in 0..self.rounds {
            let mut lo = 0;
            for &(j, end) in &self.auth_rows {
                let mut acc = 0.0;
                for &p in &self.auth_src[lo..end as usize] {
                    acc += self.hub[p as usize];
                }
                self.auth[j as usize] = acc;
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
        for &(h, _) in &self.hub_rows {
            self.board.push((self.hub[h as usize], g.page_at(h), h));
        }
        let take = top_k.min(self.board.len());
        if take < self.board.len() {
            self.board.select_nth_unstable_by(take, by_rank);
        }
        self.board[..take].sort_unstable_by(by_rank);
        out_hubs.clear();
        for b in &self.board[..take] {
            out_hubs.push(b.2);
        }
    }

    /// The textbook firing behind [`HitsState::full_reference`]: every
    /// slot re-evaluated each round over unfiltered in- and outlink
    /// lists, then every crawled page sorted.
    fn fire_reference(&mut self, g: &LinkGraph, top_k: usize, out_hubs: &mut Vec<Slot>) {
        let n = g.num_slots() as Slot;
        for s in 0..n {
            self.hub[s as usize] = if g.is_crawled(s) { 1.0 } else { 0.0 };
        }
        for _ in 0..self.rounds {
            for j in 0..n {
                let hub = &self.hub;
                self.auth[j as usize] = if g.is_crawled(j) && self.relevant[j as usize] {
                    g.in_slots(j).fold(0.0, |acc, p| acc + hub[p as usize])
                } else {
                    0.0
                };
            }
            let mut max = 0.0f64;
            for h in 0..n {
                let auth = &self.auth;
                let score = g
                    .out_slots(h)
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
        for s in (0..n).filter(|&s| g.is_crawled(s)) {
            self.board.push((self.hub[s as usize], g.page_at(s), s));
        }
        self.board.sort_unstable_by(by_rank);
        out_hubs.clear();
        out_hubs.extend(self.board.iter().take(top_k).map(|b| b.2));
    }

    /// Hub score of `slot` after the last firing's last round: the
    /// unnormalized score, exact up to the firing's power-of-two scale
    /// (see the module docs); 0 for slots crawled since.
    #[inline]
    pub fn hub_score(&self, slot: Slot) -> f64 {
        self.hub.get(slot as usize).copied().unwrap_or(0.0)
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

/// Rank order of `(score, page, slot)` board entries: score desc, then
/// page id asc — a total order over distinct pages.
fn by_rank(a: &(f64, u32, Slot), b: &(f64, u32, Slot)) -> Ordering {
    b.0.partial_cmp(&a.0)
        .unwrap_or(Ordering::Equal)
        .then(a.1.cmp(&b.1))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive the fast path and the textbook reference over the same
    /// crawl sequence, firing at the same points, and demand
    /// bit-identical hub lists and scores — across round counts (600
    /// rescales), top-K sizes from 0 to more than the pages crawled,
    /// and a tie-heavy batch where page id decides the K-th place.
    #[test]
    fn flat_firing_matches_reference_bitwise() {
        for rounds in [1, 5, 600] {
            for top_k in [0, 1, 10, 1_000] {
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
                        let si = gi.record_page(p, &outs);
                        fast.note_page(&gi, si, rel);
                        let sf = gf.record_page(p, &outs);
                        full.note_page(&gf, sf, rel);
                    }
                    fast.distill(&mut gi, top_k, &mut hi);
                    full.distill(&mut gf, top_k, &mut hf);
                    let pi: Vec<u32> = hi.iter().map(|&s| gi.page_at(s)).collect();
                    let pf: Vec<u32> = hf.iter().map(|&s| gf.page_at(s)).collect();
                    let at = format!("rounds {rounds}, top_k {top_k}, batch {batch}");
                    assert_eq!(pi, pf, "top hubs diverge at {at}");
                    assert_eq!(pi.len(), top_k.min(gi.num_crawled()), "{at}");
                    for s in 0..gi.num_slots() as u32 {
                        let a = fast.hub_score(s);
                        let b = full.hub_score(gf.slot_of(gi.page_at(s)).unwrap());
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
            let s = g.record_page(p, outs);
            st.note_page(&g, s, false);
        }
        for p in [10u32, 11, 12] {
            let s = g.record_page(p, &[]);
            st.note_page(&g, s, true);
        }
        let mut hubs = Vec::new();
        st.distill(&mut g, 3, &mut hubs);
        let pages: Vec<u32> = hubs.iter().map(|&s| g.page_at(s)).collect();
        assert_eq!(pages, [3, 2, 1]);
        for &s in &hubs {
            assert!(
                st.hub_score(s).is_finite(),
                "hub {} overflowed",
                g.page_at(s)
            );
        }
    }

    #[test]
    fn identifies_the_hub() {
        let mut g = LinkGraph::new();
        let mut st = HitsState::new(5);
        // Page 0 links three relevant authorities which point onward.
        let s = g.record_page(0, &[1, 2, 3]);
        st.note_page(&g, s, false);
        for p in [1u32, 2, 3] {
            let s = g.record_page(p, &[5]);
            st.note_page(&g, s, true);
        }
        let s = g.record_page(5, &[]);
        st.note_page(&g, s, true);
        let mut hubs = Vec::new();
        st.distill(&mut g, 1, &mut hubs);
        assert_eq!(g.page_at(hubs[0]), 0, "page 0 must be the strongest hub");
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
                let s = g.record_page(*p, outs);
                st.note_page(&g, s, p % 2 == 1);
            }
            let mut hubs = Vec::new();
            st.distill(&mut g, 10, &mut hubs);
            let pages: Vec<u32> = hubs.iter().map(|&s| g.page_at(s)).collect();
            let scores: Vec<u64> = (0..n)
                .map(|p| st.hub_score(g.slot_of(p).unwrap()).to_bits())
                .collect();
            (pages, scores)
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
        let mut g = LinkGraph::new();
        let mut st = HitsState::new(5);
        let mut hubs = vec![99];
        st.distill(&mut g, 10, &mut hubs);
        assert!(hubs.is_empty());
    }
}
