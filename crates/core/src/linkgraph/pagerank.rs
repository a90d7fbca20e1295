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
//! Between refreshes the [`LinkGraph`] epoch log records every page
//! whose equation changed (new page, new in-edge). A refresh seeds the
//! worklist with exactly that delta, preconditions existing entries by
//! `α = N_old/N_new` (after which the old fixpoint satisfies the new
//! equations everywhere the structure did not change), and drains the
//! worklist Gauss–Seidel style in ascending page-id order, sweep by
//! sweep, until every residual is below `tol_rel / N`. A node is
//! re-queued only when its pulled value moved by more than the
//! threshold, so convergent regions quiesce and the relaxations per
//! interval track the delta, not the graph. If the per-refresh sweep
//! valve trips, the still-pending pages carry into the next refresh —
//! truncation defers work, it never loses it. Every `resync_every`-th
//! refresh seeds the *entire* crawled set instead, bounding
//! floating-point drift. The reference mode
//! ([`RankState::full_reference`]) seeds everything at every refresh —
//! the parity suite pins that both modes produce identical crawl
//! reports on pinned cells.
//!
//! # Layout of a refresh
//!
//! The store keeps only forward lists, so a refresh builds its own
//! view of the crawled subgraph, linear in its size:
//!
//! 1. One scan in ascending page id numbers the crawled pages densely,
//!    so dense order *is* page order, lays out the dense `z` and
//!    `z·inv_out` arrays, and places each page's in-list by its
//!    in-degree, which is counted incrementally from the edges
//!    recorded since the last refresh.
//! 2. One pass over the forward spans in page order fills every
//!    in-list, so each comes out sorted by source page id, and builds
//!    dense out-lists of crawled targets.
//! 3. Each sweep visits the set bits of a dense bitset in ascending
//!    order; a write bigger than the threshold sets its out-neighbours'
//!    bits in the next sweep's bitset, except for those whose turn in
//!    this sweep is still to come.
//!
//! Determinism: sweeps run in ascending page id and every in-link sum
//! adds its terms in ascending source page id, so every f64
//! accumulation happens in an order independent of crawl interleaving,
//! and results are bit-identical across runs and `LANGCRAWL_THREADS`
//! (page resolution, where strategies run, is single-threaded by
//! design; nothing here observes thread count).

use super::{LinkGraph, NONE};
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
    /// Per page: dense index as of the current refresh, [`NONE`] for
    /// pages never crawled.
    dense_of: Vec<u32>,
    /// Dense index → page.
    order: Vec<PageId>,
    /// Dense `z`.
    zd: Vec<f64>,
    /// Dense `1/out_degree` (0 for dangling pages).
    inv: Vec<f64>,
    /// Dense `z·inv_out`: what a page passes to each of its targets.
    share: Vec<f64>,
    /// Out-list offsets: dense page `q` links to
    /// `out_dst[out_off[q]..out_off[q + 1]]`.
    out_off: Vec<u32>,
    /// Out-list targets (dense), crawled targets only, each list in
    /// recorded outlink order.
    out_dst: Vec<u32>,
    /// Per page: in-degree over the store's first `counted_edges`
    /// edges (every edge comes from a crawled page).
    in_deg: Vec<u32>,
    /// Edges already counted into `in_deg`.
    counted_edges: usize,
    /// In-list offsets: dense page `q` pulls from
    /// `in_src[in_off[q]..in_off[q + 1]]`.
    in_off: Vec<u32>,
    /// In-list sources (dense), each list in ascending page id.
    in_src: Vec<u32>,
    /// Dense bitset of the pages the current sweep relaxes.
    cur: Vec<u64>,
    /// Dense bitset of the pages the next sweep relaxes.
    nxt: Vec<u64>,
    /// Worklist entries processed over the state's lifetime (the
    /// `link_analysis` bench reports this as rank updates/s).
    relaxations: u64,
}

impl RankState {
    /// Incremental solver with the crawler's default parameters:
    /// damping 0.85, residual threshold `1e-9/N`, at most 256 sweeps
    /// per refresh, full reseed every 16th refresh.
    pub fn new(damping: f64) -> Self {
        Self::with_params(damping, 1e-9, 256, 16, false)
    }

    /// Full-recompute reference: identical solver, but every refresh
    /// seeds the entire crawled set (no delta shortcut, no drift).
    pub fn full_reference(damping: f64) -> Self {
        Self::with_params(damping, 1e-9, 256, 1, true)
    }

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
            zsum: 0.0,
            lambda: 1.0,
            seen_n: 0,
            since_resync: 0,
            carry: Vec::new(),
            dense_of: Vec::new(),
            order: Vec::new(),
            zd: Vec::new(),
            inv: Vec::new(),
            share: Vec::new(),
            out_off: Vec::new(),
            out_dst: Vec::new(),
            in_deg: Vec::new(),
            counted_edges: 0,
            in_off: Vec::new(),
            in_src: Vec::new(),
            cur: Vec::new(),
            nxt: Vec::new(),
            relaxations: 0,
        }
    }

    /// Refresh the ranks against the graph's current epoch, then close
    /// the epoch. A state follows one store: every update must get the
    /// same, grown graph. All growth happens here; the solve itself
    /// ([`RankState::refresh`]) is transitively panic- and alloc-free.
    pub fn update(&mut self, g: &mut LinkGraph) {
        self.ensure_capacity(g);
        self.refresh(g);
        g.advance_epoch();
    }

    /// Grow the per-page tables to the store's page bound, and empty
    /// the dense scratch with room for its crawled pages and edges.
    fn ensure_capacity(&mut self, g: &LinkGraph) {
        let (pages, n, edges) = (g.page_bound(), g.num_crawled(), g.num_edges());
        if self.z.len() < pages {
            self.z.resize(pages, 0.0);
            self.dense_of.resize(pages, NONE);
            self.in_deg.resize(pages, 0);
        }
        for v in [&mut self.zd, &mut self.inv, &mut self.share] {
            v.clear();
            v.reserve(n);
        }
        for (v, len) in [
            (&mut self.order, n),
            (&mut self.out_off, n + 1),
            (&mut self.in_off, n + 1),
            (&mut self.out_dst, edges),
        ] {
            v.clear();
            v.reserve(len);
        }
        self.carry.reserve(n.saturating_sub(self.carry.len()));
        self.in_src.resize(edges, 0);
        self.cur.resize(n.div_ceil(64), 0);
        self.nxt.resize(n.div_ceil(64), 0);
    }

    /// One refresh: lay out the dense view, precondition, seed (delta,
    /// carry or full), drain. The steady-state link-analysis update
    /// path — scratch is pre-grown by [`RankState::ensure_capacity`]:
    /// the dense tables take one entry per crawled page, `out_dst` and
    /// `in_src` one per edge, and `carry` one per crawled page.
    // lint:root(panic-free, alloc-free) — the per-interval rank update
    // the PageRank-ordered crawl runs on.
    fn refresh(&mut self, g: &LinkGraph) {
        let n_new = g.num_crawled();
        if n_new == 0 {
            return;
        }
        let full_seed = self.full || self.seen_n == 0 || self.since_resync + 1 >= self.resync_every;
        let nf = n_new as f64;
        let uniform = 1.0 / nf;
        let alpha = if self.seen_n > 0 {
            f64::from(self.seen_n) / nf
        } else {
            0.0
        };
        // Pass 1: count the edges recorded since the last refresh into
        // the in-degrees. Then, in ascending page id, number the crawled
        // pages densely, precondition survivors by α, seed new pages at
        // 1/N, rebuild Σz from scratch so it carries no drift across
        // refreshes, and lay out the in-lists: dense page `i`'s starts
        // at `in_off[i + 1]`, which serves as its fill cursor below.
        // lint:allow(no-panic-transitive): ensure_capacity grows z, dense_of and in_deg to page_bound, in_src to num_edges and both bitsets to num_crawled bits; counted_edges never exceeds num_edges, dense indices are < num_crawled and pages from the store are < page_bound
        for &t in &g.edge_targets()[self.counted_edges..] {
            self.in_deg[t as usize] += 1;
        }
        self.counted_edges = g.num_edges();
        let (mut zsum, mut start) = (0.0, 0);
        self.in_off.push(0);
        for (page, outs) in g.crawled_pages() {
            let p = page as usize;
            let inv = if outs.is_empty() {
                0.0
            } else {
                1.0 / outs.len() as f64
            };
            let zi = self.z[p];
            let v = if zi == 0.0 { uniform } else { zi * alpha };
            self.dense_of[p] = self.order.len() as u32;
            self.order.push(page);
            self.zd.push(v);
            self.inv.push(inv);
            self.share.push(v * inv);
            self.in_off.push(start);
            start += self.in_deg[p];
            zsum += v;
        }
        let n = self.order.len();
        // Pass 2: dense out-lists of crawled targets, and the in-lists
        // filled from them. Sources arrive in dense order, so each
        // in-list comes out sorted by source page id.
        self.out_off.push(0);
        for (i, (_, outs)) in g.crawled_pages().enumerate() {
            for &t in outs {
                let d = self.dense_of[t as usize];
                if d != NONE {
                    self.out_dst.push(d);
                    let at = &mut self.in_off[d as usize + 1];
                    self.in_src[*at as usize] = i as u32;
                    *at += 1;
                }
            }
            self.out_off.push(self.out_dst.len() as u32);
        }
        // Pass 3: seed the first sweep — everything on a full reseed,
        // else the pages the last refresh carried plus the epoch delta
        // (every page whose equation changed).
        let words = n.div_ceil(64);
        let mut pending = false;
        if full_seed {
            self.cur[..words].fill(u64::MAX);
            if !n.is_multiple_of(64) {
                self.cur[words - 1] = (1u64 << (n % 64)) - 1;
            }
            pending = true;
        } else {
            self.cur[..words].fill(0);
            for list in [&self.carry[..], g.delta()] {
                for &p in list {
                    let d = self.dense_of[p as usize];
                    if d != NONE {
                        self.cur[d as usize / 64] |= 1u64 << (d % 64);
                        pending = true;
                    }
                }
            }
        }
        self.carry.clear();
        // Pass 4: Gauss–Seidel sweeps in dense (= page) order. A write
        // bigger than θ schedules each out-neighbour for the next
        // sweep, unless it is already scheduled there, or its turn in
        // this sweep is still to come and will see the new value. Σz
        // absorbs each accepted delta so the final rescale is exact at
        // the point the drain stops.
        let theta = self.tol_rel * uniform;
        let mut sweeps = 0;
        let mut relaxed = 0u64;
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
                    let d = v - self.zd[q];
                    relaxed += 1;
                    if d.abs() > theta {
                        self.zd[q] = v;
                        self.share[q] = v * self.inv[q];
                        zsum += d;
                        let (lo, hi) = (self.out_off[q] as usize, self.out_off[q + 1] as usize);
                        for &dt in &self.out_dst[lo..hi] {
                            let dt = dt as usize;
                            let (tw, bit) = (dt / 64, 1u64 << (dt % 64));
                            let later = dt > q && self.cur[tw] & bit != 0;
                            if !later && self.nxt[tw] & bit == 0 {
                                self.nxt[tw] |= bit;
                                pending = true;
                            }
                        }
                    }
                }
            }
            core::mem::swap(&mut self.cur, &mut self.nxt);
        }
        self.relaxations += relaxed;
        // A tripped valve leaves the next sweep's bitset non-empty:
        // carry those pages into the next refresh.
        if pending {
            for w in 0..words {
                let mut bits = self.cur[w];
                while bits != 0 {
                    self.carry
                        .push(self.order[w * 64 + bits.trailing_zeros() as usize]);
                    bits &= bits - 1;
                }
            }
        }
        for (i, &p) in self.order.iter().enumerate() {
            self.z[p as usize] = self.zd[i];
        }
        self.zsum = zsum;
        self.lambda = if zsum > 0.0 { 1.0 / zsum } else { 1.0 };
        self.seen_n = n_new as u32;
        self.since_resync = if full_seed { 0 } else { self.since_resync + 1 };
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

    /// Worklist entries processed over the state's lifetime.
    #[inline]
    pub fn relaxations(&self) -> u64 {
        self.relaxations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut g = ring_with_hub();
        let mut state = RankState::new(0.85);
        state.update(&mut g);
        let want = oracle(&g, 0.85, 200);
        assert!(
            max_err(&state, &g, &want) < 1e-9,
            "solver diverges from dense redistribution oracle: {}",
            max_err(&state, &g, &want)
        );
    }

    #[test]
    fn rank_sum_is_one_with_lost_and_dangling_mass() {
        let mut g = ring_with_hub();
        let mut state = RankState::new(0.85);
        state.update(&mut g);
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
            inc.update(&mut gi);
            full.update(&mut gf);
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
                    st.update(&mut g);
                }
            }
            st.update(&mut g); // resync_every=1 ⇒ this is a full reseed
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
        let (mut g, mut gf) = (grow(), grow());
        let mut full = RankState::full_reference(0.85);
        full.update(&mut gf);
        let mut st = RankState::with_params(0.85, 1e-9, 1, 1_000, false);
        let gap = |st: &RankState, g: &LinkGraph| {
            (0..g.page_bound() as u32)
                .filter(|&p| g.is_crawled(p))
                .map(|p| (st.rank_of(p) - full.rank_of(p)).abs())
                .fold(0.0, f64::max)
        };
        st.update(&mut g);
        let one_sweep = gap(&st, &g);
        for _ in 0..400 {
            st.update(&mut g);
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

    #[test]
    fn empty_graph_is_inert() {
        let mut g = LinkGraph::new();
        let mut st = RankState::new(0.85);
        st.update(&mut g);
        assert_eq!(st.rank_sum(), 0.0);
        assert_eq!(st.rank_of(0), 0.0);
    }
}
