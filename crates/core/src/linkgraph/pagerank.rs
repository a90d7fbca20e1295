//! Incremental PageRank over a [`LinkGraph`]: deterministic
//! Gauss–Southwell delta propagation with a closed-form fix for the
//! rank mass the crawled subgraph cannot absorb.
//!
//! # The system being solved
//!
//! The crawler only knows the subgraph it has fetched, so the paper's
//! PageRank ordering runs on `N` *crawled* pages whose outlinks may
//! point at pages not yet crawled ("lost" edges) or nowhere useful at
//! all (dangling pages). The historical implementation dropped both
//! kinds of mass — `Σrank` decayed with frontier size (the satellite
//! bug this module fixes). Redistributing lost/dangling mass uniformly
//! is the standard remedy, but done literally it adds a rank-one term
//! to the iteration matrix that couples every page to every other and
//! makes *local* incremental updates impossible.
//!
//! The solver therefore maintains the auxiliary vector `z` of the
//! purely local system
//!
//! ```text
//! z = (1/N)·1 + d·Aᵀz          (A = crawled→crawled transitions only)
//! ```
//!
//! which has exactly the sparsity of the old (buggy) recurrence, and
//! recovers the mass-corrected ranks by a scalar rescale:
//!
//! ```text
//! rank = λ · z          λ = 1 / Σz
//! ```
//!
//! Summing the z-equation gives `Σz·(1 − d) = 1 − σ` where
//! `σ = d · Σ_p z[p] · lost_frac(p)` and `lost_frac(p)` is the fraction
//! of `p`'s outlinks leaving the crawled set (1 for dangling pages) —
//! so at the fixpoint `λ = (1 − d)/(1 − σ)`, the textbook uniform
//! redistribution of lost/dangling mass. Normalizing by `Σz` directly
//! keeps `Σrank = 1` *exactly* even when the worklist drain truncates
//! at the residual threshold: redistribution is priced globally by one
//! scalar instead of a dense matrix term, and the relaxation stays
//! O(perturbed region).
//!
//! # Incrementality
//!
//! Between refreshes a page's equation changes only if the page is new
//! or gained an in-edge. A refresh finds both from state it already
//! keeps: a new page is one whose `z` is still `0.0`, and the new
//! in-edges are the store's edges past `counted_edges`, the watermark
//! up to which the in-lists hold them. It seeds the worklist with
//! the new pages and the crawled targets of the new edges,
//! preconditions existing entries by `α = N_old/N_new` (after which the
//! old fixpoint satisfies the new equations everywhere the structure
//! did not change), and drains the worklist Gauss–Seidel style in
//! ascending page-id order, sweep by sweep, until every residual is
//! below `tol_rel / N`. A node is re-queued only when its pulled value
//! moved by more than the threshold, so convergent regions quiesce and
//! the relaxations per interval track the perturbed region, not the
//! graph. If the per-refresh sweep valve trips, the still-pending pages
//! carry into the next refresh — truncation defers work, it never loses
//! it. Every `resync_every`-th refresh seeds the *entire* crawled set
//! instead, bounding floating-point drift. The reference mode (`full`
//! in [`RankState::with_params`]) seeds everything at every refresh —
//! the parity suite pins that both modes produce identical crawl
//! reports on pinned cells.
//!
//! # Layout of a refresh
//!
//! Every table is indexed by page id, so nothing is renumbered between
//! refreshes. The store keeps only forward lists; the state keeps its
//! own in-lists, one flat array over every recorded edge with each
//! page's list ascending by source page id. A page that is not crawled
//! yet has its list too, complete by the time a refresh sees the page
//! crawled. A refresh:
//!
//! 1. counts each page's in-edges among the edges past `counted_edges`,
//!    which gives each target a slot range in a scratch array;
//! 2. in one scan in ascending page id, preconditions the crawled
//!    pages, starts and seeds the new ones, and files each new page's
//!    outlinks into their targets' ranges. The new edges' sources are
//!    exactly the new pages, so each target's new sources arrive in
//!    ascending order;
//! 3. merges them into the in-lists in place, walking down from the top
//!    page: each page that gains moves the lists above it in one block,
//!    then merges its new sources into its own list from the back. A
//!    new edge is placed once; after that it only moves, in blocks, by
//!    the number of edges that later refreshes place below it;
//! 4. drains in sweeps. Each sweep visits the set bits of a
//!    page-indexed bitset in ascending order. A write bigger than the
//!    threshold sets, in the next sweep's bitset, the bits of the
//!    page's crawled out-neighbours (its forward span in the store,
//!    kept to the pages a bitset marks crawled), except for those whose
//!    turn in this sweep is still to come.
//!
//! Determinism: sweeps run in ascending page id and every in-link sum
//! adds its terms in ascending source page id, so every f64
//! accumulation happens in an order independent of crawl interleaving,
//! and results are bit-identical across runs and `LANGCRAWL_THREADS`
//! (page resolution, where strategies run, is single-threaded by
//! design; nothing here observes thread count).

use super::LinkGraph;
use langcrawl_webgraph::PageId;

/// Incremental PageRank state (see the module docs for the algorithm).
#[derive(Debug, Clone)]
pub struct RankState {
    damping: f64,
    /// Residual threshold relative to the uniform rank `1/N`.
    tol_rel: f64,
    /// Safety valve on Gauss–Seidel sweeps per refresh.
    max_sweeps: u32,
    /// Full-reseed cadence (in refreshes) bounding FP drift.
    resync_every: u32,
    /// Reference mode: reseed the whole crawled set every refresh.
    full: bool,
    /// Per page: unnormalized solution of the local system; `0.0` marks
    /// a page no refresh has seen crawled (real entries are ≥ `1/N` > 0).
    z: Vec<f64>,
    /// Per page: `z·inv`, what the page passes to each of its targets.
    share: Vec<f64>,
    /// Per page: `1/out_degree` (0 for dangling pages), set when a
    /// refresh first sees the page crawled.
    inv: Vec<f64>,
    /// `Σz` over crawled pages as of the last refresh.
    zsum: f64,
    /// Rescale factor `λ = (1−d)/(1−σ)` as of the last refresh.
    lambda: f64,
    /// Crawled count at the last refresh (preconditioning base).
    seen_n: u32,
    /// Refreshes since the last full reseed.
    since_resync: u32,
    /// Pages the last refresh left pending when its sweep valve
    /// tripped; the next refresh seeds them.
    carry: Vec<PageId>,
    /// Edges merged into the in-lists: the store's first
    /// `counted_edges`.
    counted_edges: usize,
    /// In-list offsets: page `t` pulls from
    /// `in_src[in_off[t]..in_off[t + 1]]`.
    in_off: Vec<u32>,
    /// In-list sources: the source of every merged edge, grouped by
    /// target page, each list in ascending source page id.
    in_src: Vec<PageId>,
    /// Per page, zero between refreshes: within one, the page's cursor
    /// into `fresh`, where its new sources start and, once they are
    /// filed, where they end.
    gain: Vec<u32>,
    /// The sources of the edges being merged, grouped by target page.
    fresh: Vec<PageId>,
    /// Bitset of the pages a refresh has seen crawled.
    crawled: Vec<u64>,
    /// Bitset of the pages the current sweep relaxes.
    cur: Vec<u64>,
    /// Bitset of the pages the next sweep relaxes.
    nxt: Vec<u64>,
}

impl RankState {
    /// Fully parameterized constructor (see field docs).
    pub fn with_params(
        damping: f64,
        tol_rel: f64,
        max_sweeps: u32,
        resync_every: u32,
        full: bool,
    ) -> Self {
        Self {
            damping,
            tol_rel,
            max_sweeps,
            resync_every: resync_every.max(1),
            full,
            z: Vec::new(),
            share: Vec::new(),
            inv: Vec::new(),
            zsum: 0.0,
            lambda: 1.0,
            seen_n: 0,
            since_resync: 0,
            carry: Vec::new(),
            counted_edges: 0,
            in_off: Vec::new(),
            in_src: Vec::new(),
            gain: Vec::new(),
            fresh: Vec::new(),
            crawled: Vec::new(),
            cur: Vec::new(),
            nxt: Vec::new(),
        }
    }

    /// Refresh the ranks against the graph as it stands. A state
    /// follows one store: every update must get the same, grown graph.
    /// All growth happens here; the solve itself (the private
    /// `refresh`) is transitively panic- and alloc-free.
    pub fn update(&mut self, g: &LinkGraph) {
        self.ensure_capacity(g);
        self.refresh(g);
    }

    /// Grow the per-page tables and bitsets to the store's page bound,
    /// and the edge tables to its edges.
    fn ensure_capacity(&mut self, g: &LinkGraph) {
        let (pages, n, edges) = (g.page_bound(), g.num_crawled(), g.num_edges());
        if self.z.len() < pages {
            for v in [&mut self.z, &mut self.share, &mut self.inv] {
                v.resize(pages, 0.0);
            }
            self.gain.resize(pages, 0);
            // A page new to the table has an empty list at the end.
            self.in_off.resize(pages + 1, self.counted_edges as u32);
            for v in [&mut self.crawled, &mut self.cur, &mut self.nxt] {
                v.resize(pages.div_ceil(64), 0);
            }
        }
        self.carry.reserve(n.saturating_sub(self.carry.len()));
        self.in_src.resize(edges, 0);
        self.fresh.resize(edges - self.counted_edges, 0);
    }

    /// One refresh: precondition, merge the new edges into the
    /// in-lists, seed (new pages and in-edges plus carry, or full),
    /// drain. The steady-state link-analysis update path — every table
    /// is pre-grown by [`RankState::ensure_capacity`].
    // lint:root(panic-free, alloc-free) — the per-interval rank update
    // the PageRank-ordered crawl runs on.
    fn refresh(&mut self, g: &LinkGraph) {
        let n = g.num_crawled();
        if n == 0 {
            return;
        }
        let full_seed = self.full || self.seen_n == 0 || self.since_resync + 1 >= self.resync_every;
        let nf = n as f64;
        let uniform = 1.0 / nf;
        let alpha = if self.seen_n > 0 {
            f64::from(self.seen_n) / nf
        } else {
            0.0
        };
        let words = g.page_bound().div_ceil(64);
        // Pass 1: count each page's in-edges among the edges recorded
        // since the last refresh, then turn the counts into where each
        // target's new sources start in `fresh`.
        // lint:allow(no-panic-transitive): ensure_capacity grows the per-page tables to page_bound, in_off to page_bound + 1, the bitsets to page_bound bits, in_src to num_edges and fresh to the edges past counted_edges; pages from the store are < page_bound, gain stays ≤ the new edges and in_off ≤ num_edges
        for &t in &g.edge_targets()[self.counted_edges..] {
            self.gain[t as usize] += 1;
        }
        let mut at = 0;
        for c in &mut self.gain {
            (*c, at) = (at, at + *c);
        }
        // Pass 2, in ascending page id: precondition survivors by α,
        // start new pages at 1/N and seed them, and rebuild Σz from
        // scratch so it carries no drift across refreshes. The new
        // edges are exactly the new pages' outlinks, so filing them by
        // target here leaves each target's new sources ascending.
        self.cur[..words].fill(0);
        let (mut zsum, mut pending) = (0.0, false);
        for (page, outs) in g.crawled_pages() {
            let p = page as usize;
            let v = if self.z[p] == 0.0 {
                for &t in outs {
                    let at = &mut self.gain[t as usize];
                    self.fresh[*at as usize] = page;
                    *at += 1;
                }
                self.inv[p] = if outs.is_empty() {
                    0.0
                } else {
                    1.0 / outs.len() as f64
                };
                self.crawled[p / 64] |= 1u64 << (p % 64);
                self.cur[p / 64] |= 1u64 << (p % 64);
                pending = true;
                uniform
            } else {
                self.z[p] * alpha
            };
            self.z[p] = v;
            self.share[p] = v * self.inv[p];
            zsum += v;
        }
        // Pass 3: merge those sources into the in-lists, seeding the
        // crawled pages that gain one.
        pending |= self.merge_fresh();
        self.counted_edges = g.num_edges();
        // Pass 4: seed the first sweep — everything on a full reseed,
        // else, on top of the new pages and the targets of the new
        // edges, the pages the last refresh carried.
        if full_seed {
            for (c, &k) in self.cur.iter_mut().zip(&self.crawled) {
                *c = k;
            }
            pending = true;
        } else {
            for &p in &self.carry {
                let p = p as usize;
                self.cur[p / 64] |= 1u64 << (p % 64);
                pending = true;
            }
        }
        self.carry.clear();
        // Pass 5: Gauss–Seidel sweeps in ascending page id. A write
        // bigger than θ schedules each crawled out-neighbour for the
        // next sweep, unless it is already scheduled there, or its turn
        // in this sweep is still to come and will see the new value. Σz
        // absorbs each accepted delta so the final rescale is exact at
        // the point the drain stops.
        let theta = self.tol_rel * uniform;
        let mut sweeps = 0;
        while pending && sweeps < self.max_sweeps {
            sweeps += 1;
            pending = false;
            self.nxt[..words].fill(0);
            for w in 0..words {
                let mut bits = self.cur[w];
                while bits != 0 {
                    let q = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let (lo, hi) = (self.in_off[q] as usize, self.in_off[q + 1] as usize);
                    let mut acc = 0.0;
                    for &p in &self.in_src[lo..hi] {
                        acc += self.share[p as usize];
                    }
                    let v = uniform + self.damping * acc;
                    let d = v - self.z[q];
                    if d.abs() > theta {
                        self.z[q] = v;
                        self.share[q] = v * self.inv[q];
                        zsum += d;
                        for &t in g.out_pages(q as PageId) {
                            let t = t as usize;
                            let later = if t > q { self.cur[t / 64] } else { 0 };
                            let bit = 1u64 << (t % 64) & self.crawled[t / 64] & !later;
                            self.nxt[t / 64] |= bit;
                            pending |= bit != 0;
                        }
                    }
                }
            }
            core::mem::swap(&mut self.cur, &mut self.nxt);
        }
        // A tripped valve leaves the next sweep's bitset non-empty:
        // carry those pages into the next refresh.
        if pending {
            for w in 0..words {
                let mut bits = self.cur[w];
                while bits != 0 {
                    self.carry
                        .push((w * 64 + bits.trailing_zeros() as usize) as PageId);
                    bits &= bits - 1;
                }
            }
        }
        self.zsum = zsum;
        self.lambda = if zsum > 0.0 { 1.0 / zsum } else { 1.0 };
        self.seen_n = n as u32;
        self.since_resync = if full_seed { 0 } else { self.since_resync + 1 };
    }

    /// Merge the sources filed in `fresh` into the in-lists, in place,
    /// and seed each crawled page that gains an in-edge; returns whether
    /// it seeded one. `gain[t]` holds where page `t`'s new sources end
    /// in `fresh`, which is also how far page `t + 1`'s list moves.
    /// Walking down from the top page, each page that gains moves the
    /// lists above it in one block, then merges its new sources into
    /// its own list from the back; the part of its list below its
    /// smallest new source moves with the next block.
    fn merge_fresh(&mut self) -> bool {
        let mut seeded = false;
        // Old position one past the lists still to move.
        let mut top = self.counted_edges;
        for t in (0..self.gain.len()).rev() {
            // lint:allow(no-panic-transitive): t < page_bound, to which ensure_capacity grew gain and the bitsets, and in_off one further; positions in in_src stay below num_edges and in fresh below its length, as the gains sum to the new edges
            let hi = self.gain[t] as usize;
            if hi == 0 {
                break; // nothing below t gains either
            }
            let lo = if t > 0 { self.gain[t - 1] as usize } else { 0 };
            self.gain[t] = 0;
            let end = self.in_off[t + 1] as usize;
            self.in_off[t + 1] = (end + hi) as u32;
            if hi == lo {
                continue;
            }
            self.in_src.copy_within(end..top, end + hi);
            let start = self.in_off[t] as usize;
            let (mut i, mut j) = (end, hi);
            while j > lo {
                let s = self.fresh[j - 1];
                if i > start && self.in_src[i - 1] > s {
                    self.in_src[i + j - 1] = self.in_src[i - 1];
                    i -= 1;
                } else {
                    self.in_src[i + j - 1] = s;
                    j -= 1;
                }
            }
            top = i;
            if self.crawled[t / 64] & 1u64 << (t % 64) != 0 {
                self.cur[t / 64] |= 1u64 << (t % 64);
                seeded = true;
            }
        }
        seeded
    }

    /// Mass-corrected rank of `page`: `λ·z`. Returns 0 for pages no
    /// refresh has seen crawled (callers fall back to the uniform rank,
    /// as the historical implementation did for pages crawled after the
    /// last recompute).
    #[inline]
    pub fn rank_of(&self, page: PageId) -> f64 {
        self.z.get(page as usize).map_or(0.0, |&z| self.lambda * z)
    }

    /// `Σrank` over crawled pages as of the last refresh — exactly 1 at
    /// the fixpoint (the regression target for the mass-leak fix).
    #[inline]
    pub fn rank_sum(&self) -> f64 {
        self.lambda * self.zsum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use langcrawl_minicheck::check;

    impl RankState {
        /// Incremental solver with the crawler's default parameters:
        /// damping 0.85, residual threshold `1e-9/N`, at most 256 sweeps
        /// per refresh, full reseed every 16th refresh.
        fn new(damping: f64) -> Self {
            Self::with_params(damping, 1e-9, 256, 16, false)
        }

        /// Full-recompute reference: identical solver, but every refresh
        /// seeds the entire crawled set (no incremental seeding, no drift).
        fn full_reference(damping: f64) -> Self {
            Self::with_params(damping, 1e-9, 256, 1, true)
        }
    }

    /// Dense power-iteration oracle with uniform redistribution of
    /// lost/dangling mass — the textbook formulation the z-vector
    /// solver must agree with.
    fn oracle(g: &LinkGraph, damping: f64, iters: usize) -> Vec<f64> {
        let n = g.page_bound();
        let crawled: Vec<PageId> = (0..n as u32).filter(|&p| g.is_crawled(p)).collect();
        let nc = crawled.len();
        let mut rank = vec![0.0f64; n];
        for &s in &crawled {
            rank[s as usize] = 1.0 / nc as f64;
        }
        for _ in 0..iters {
            let mut next = vec![0.0f64; n];
            let mut redistributed = 0.0;
            for &s in &crawled {
                let outs = g.out_pages(s);
                if outs.is_empty() {
                    redistributed += rank[s as usize];
                    continue;
                }
                let share = rank[s as usize] / outs.len() as f64;
                for &t in outs {
                    if g.is_crawled(t) {
                        next[t as usize] += share;
                    } else {
                        redistributed += share;
                    }
                }
            }
            let teleport = (1.0 - damping) / nc as f64 + damping * redistributed / nc as f64;
            for &s in &crawled {
                rank[s as usize] = teleport + damping * next[s as usize];
            }
        }
        rank
    }

    fn max_err(state: &RankState, g: &LinkGraph, oracle: &[f64]) -> f64 {
        (0..g.page_bound() as u32)
            .filter(|&p| g.is_crawled(p))
            .map(|p| (state.rank_of(p) - oracle[p as usize]).abs())
            .fold(0.0, f64::max)
    }

    fn ring_with_hub() -> LinkGraph {
        let mut g = LinkGraph::new();
        // 0..9 in a ring, everyone also links to the hub page 10, hub
        // links out to an uncrawled page and a dangling page 11.
        for p in 0..10u32 {
            g.record_page(p, &[(p + 1) % 10, 10]);
        }
        g.record_page(10, &[99]);
        g.record_page(11, &[]);
        g
    }

    #[test]
    fn matches_dense_oracle_with_redistribution() {
        let g = ring_with_hub();
        let mut state = RankState::new(0.85);
        state.update(&g);
        let want = oracle(&g, 0.85, 200);
        assert!(
            max_err(&state, &g, &want) < 1e-9,
            "solver diverges from dense redistribution oracle: {}",
            max_err(&state, &g, &want)
        );
    }

    #[test]
    fn rank_sum_is_one_with_lost_and_dangling_mass() {
        let g = ring_with_hub();
        let mut state = RankState::new(0.85);
        state.update(&g);
        assert!(
            (state.rank_sum() - 1.0).abs() < 1e-12,
            "Σrank = {} ≠ 1",
            state.rank_sum()
        );
    }

    #[test]
    fn incremental_tracks_full_reference() {
        let mut gi = LinkGraph::new();
        let mut gf = LinkGraph::new();
        let mut inc = RankState::new(0.85);
        let mut full = RankState::full_reference(0.85);
        // Grow a deterministic pseudo-random graph in batches, with an
        // update between batches, and compare against both the
        // reference solver and the dense oracle at the end.
        let mut x = 7u64;
        let mut step = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as u32
        };
        for batch in 0..8 {
            for i in 0..25u32 {
                let p = batch * 25 + i;
                let outs = [step() % 240, step() % 240, step() % 240];
                gi.record_page(p, &outs);
                gf.record_page(p, &outs);
            }
            inc.update(&gi);
            full.update(&gf);
        }
        let worst = (0..gi.page_bound() as u32)
            .filter(|&p| gi.is_crawled(p))
            .map(|p| (inc.rank_of(p) - full.rank_of(p)).abs())
            .fold(0.0, f64::max);
        assert!(worst < 1e-10, "incremental vs reference L∞ = {worst}");
        let want = oracle(&gi, 0.85, 400);
        assert!(
            max_err(&inc, &gi, &want) < 1e-8,
            "incremental vs oracle L∞ = {}",
            max_err(&inc, &gi, &want)
        );
        assert!((inc.rank_sum() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn refresh_is_deterministic_and_history_converges() {
        let edges: [(u32, [u32; 2]); 6] = [
            (0, [1, 2]),
            (1, [2, 3]),
            (2, [0, 5]),
            (3, [4, 0]),
            (4, [1, 9]),
            (5, [3, 2]),
        ];
        let run = |updates_at: &[usize]| {
            let mut g = LinkGraph::new();
            let mut st = RankState::with_params(0.85, 1e-9, 256, 1, false);
            for (i, (p, outs)) in edges.iter().enumerate() {
                g.record_page(*p, outs);
                if updates_at.contains(&i) {
                    st.update(&g);
                }
            }
            st.update(&g); // resync_every=1 ⇒ this is a full reseed
            (0..g.page_bound() as u32)
                .map(|p| st.rank_of(p))
                .collect::<Vec<f64>>()
        };
        // Identical histories are bit-identical (full determinism).
        let a = run(&[1, 3]);
        let a2 = run(&[1, 3]);
        for (x, y) in a.iter().zip(&a2) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "same history must be bitwise stable"
            );
        }
        // Different update interleavings over the same final graph land
        // inside the residual tolerance band of the shared fixpoint.
        let b = run(&[0, 2, 4]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-8, "histories diverge: {x} vs {y}");
        }
    }

    /// A drain cut short by the sweep valve carries its pending pages
    /// into the next refresh: truncation defers work, it never loses
    /// it. One sweep per refresh and no new pages after the first
    /// refresh leave the carry as the only seed, so the ranks reach the
    /// full reference only if every refresh picks up where the last one
    /// stopped.
    #[test]
    fn valve_truncated_refreshes_carry_to_the_fixpoint() {
        let grow = || {
            let mut g = LinkGraph::new();
            let mut x = 13u64;
            for p in 0..200u32 {
                let mut outs = [0u32; 3];
                for o in &mut outs {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    *o = (x >> 33) as u32 % 240;
                }
                g.record_page(p, &outs);
            }
            g
        };
        let (g, gf) = (grow(), grow());
        let mut full = RankState::full_reference(0.85);
        full.update(&gf);
        let mut st = RankState::with_params(0.85, 1e-9, 1, 1_000, false);
        let gap = |st: &RankState, g: &LinkGraph| {
            (0..g.page_bound() as u32)
                .filter(|&p| g.is_crawled(p))
                .map(|p| (st.rank_of(p) - full.rank_of(p)).abs())
                .fold(0.0, f64::max)
        };
        st.update(&g);
        let one_sweep = gap(&st, &g);
        for _ in 0..400 {
            st.update(&g);
        }
        // Both solvers stop once every residual is below θ = 1e-9/N, so
        // each sits within about θ/(1 − d) of the exact ranks: the bound
        // is twice that. One sweep alone leaves the ranks about 4e-3
        // away.
        let theta = 1e-9 / g.num_crawled() as f64;
        let bound = 2.0 * theta / (1.0 - 0.85);
        assert!(one_sweep > 1e3 * bound, "one sweep already converged");
        let carried = gap(&st, &g);
        assert!(
            carried < bound,
            "carried refreshes stop {carried} from the reference, bound {bound}"
        );
    }

    /// An incremental refresh seeds the pages whose equations changed:
    /// the pages no refresh has seen crawled, and the crawled targets of
    /// the edges recorded since the last refresh. One sweep relaxes the
    /// seeds alone, so a page that is neither keeps its preconditioned
    /// `α·z`, bit for bit.
    #[test]
    fn refresh_seeds_new_pages_and_targets_of_new_edges() {
        let mut g = LinkGraph::new();
        g.record_page(0, &[1, 5]);
        g.record_page(1, &[0]);
        let mut st = RankState::with_params(0.85, 1e-12, 256, 1_000, false);
        st.update(&g);
        assert!(st.carry.is_empty(), "the first refresh converges");
        let (z0, z1) = (st.z[0], st.z[1]);
        // Page 5 is new and was linked before the last refresh; page 6
        // is new and gives old page 1 a new in-edge.
        g.record_page(5, &[]);
        g.record_page(6, &[1]);
        st.max_sweeps = 1;
        st.update(&g);
        let alpha = 2.0 / 4.0;
        assert_eq!(st.z[0].to_bits(), (alpha * z0).to_bits(), "page 0 moved");
        assert_ne!(st.z[1].to_bits(), (alpha * z1).to_bits(), "page 1 kept α·z");
        assert_ne!(st.z[5].to_bits(), 0.25f64.to_bits(), "page 5 kept 1/N");
    }

    /// The in-lists against a naive model: after every update, each
    /// page's in-list holds the source of each of its recorded
    /// in-edges, in ascending page id. Page ids are sparse and recorded
    /// out of order, outlinks repeat and loop back, pages are linked
    /// before they are crawled, and updates fall at random points, so
    /// the merges meet lists of every shape.
    #[test]
    fn in_lists_match_a_naive_model_after_every_update() {
        check(64, |gen| {
            let mut pool = vec![gen.u32(0..200)];
            for _ in 0..gen.usize(1..50) {
                let gap = match gen.weighted(&[3, 2, 1]) {
                    0 => 1,
                    1 => gen.u32(2..20),
                    _ => gen.u32(100..2_000),
                };
                pool.push(pool[pool.len() - 1] + gap);
            }
            let (mut g, mut st) = (LinkGraph::new(), RankState::new(0.85));
            let mut model: Vec<Vec<PageId>> = Vec::new();
            let mut outs = Vec::new();
            for _ in 0..gen.usize(1..150) {
                let page = *gen.pick(&pool);
                outs.clear();
                for _ in 0..gen.usize(0..8) {
                    outs.push(*gen.pick(&pool));
                }
                if gen.bool(0.2) {
                    outs.push(page);
                }
                if !outs.is_empty() && gen.bool(0.3) {
                    outs.push(outs[0]);
                }
                if !g.is_crawled(page) {
                    for &t in &outs {
                        model.resize(model.len().max(t as usize + 1), Vec::new());
                        model[t as usize].push(page);
                    }
                }
                g.record_page(page, &outs);
                if gen.bool(0.1) {
                    st.update(&g);
                    assert_in_lists(&st, &g, &mut model);
                }
            }
            st.update(&g);
            assert_in_lists(&st, &g, &mut model);
        });
    }

    fn assert_in_lists(st: &RankState, g: &LinkGraph, model: &mut Vec<Vec<PageId>>) {
        model.resize(g.page_bound(), Vec::new());
        assert_eq!(st.in_off.len(), g.page_bound() + 1, "offset table");
        assert_eq!(st.counted_edges, g.num_edges(), "merged edges");
        for (t, want) in model.iter_mut().enumerate() {
            want.sort_unstable();
            let (lo, hi) = (st.in_off[t] as usize, st.in_off[t + 1] as usize);
            assert_eq!(&st.in_src[lo..hi], &want[..], "in-list of page {t}");
        }
        assert_eq!(st.in_off[g.page_bound()] as usize, g.num_edges());
    }

    #[test]
    fn empty_graph_is_inert() {
        let g = LinkGraph::new();
        let mut st = RankState::new(0.85);
        st.update(&g);
        assert_eq!(st.rank_sum(), 0.0);
        assert_eq!(st.rank_of(0), 0.0);
    }
}
