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
//! * **Interning** — page ids are mapped onto dense `u32` *slots* in
//!   first-seen order, so every per-node attribute is a flat `Vec`
//!   indexed by slot (no hashing on the hot path, and no hash-map
//!   iteration order anywhere near the f64 accumulations).
//! * **Forward adjacency** — a crawled page's outlinks arrive exactly
//!   once (when the page is fetched), so the forward view is a plain
//!   append-only CSR: one contiguous span of the edge array per crawled
//!   page, in crawl order.
//! * **Reverse adjacency** — in-edges of a page accrete throughout the
//!   crawl, so the reverse view is a *chunked* CSR: fixed-size chunks
//!   in one flat arena, chained per node, kept sorted by source *page
//!   id* (split-insert, like an unrolled list). Iteration walks at most
//!   `in_degree / CHUNK_TARGETS + 1` cache lines of arena and yields a
//!   canonical order independent of crawl interleaving — which is what
//!   lets the rank solvers sum f64 in-link contributions directly off
//!   the chain, with no per-gather sort on the hot path, while staying
//!   bit-identical across insertion histories.
//! * **Degrees & lost-edge counts** — out-degree, in-degree and
//!   `lost_out` (how many of a page's outlinks point at pages not yet
//!   crawled) are maintained on insert; the PageRank mass fix needs
//!   `lost_out` to price the rank mass that would otherwise leak out of
//!   the crawled subgraph.
//! * **Epoch/delta log** — every slot structurally touched since the
//!   last [`LinkGraph::advance_epoch`] is recorded once, so an
//!   incremental algorithm (the PageRank refresh) can seed its worklist
//!   with exactly the perturbed region instead of rescanning the graph.
//!
//! The store itself never iterates a hash container and allocates only
//! when an array grows past its high-water mark. The algorithms layered
//! on top — [`pagerank`]'s delta-seeded refresh, [`hits`]'s flat
//! relevance-filtered recompute and [`layers`]' decrease-only
//! relaxation — keep their scratch buffers across refreshes, so the
//! steady-state update path performs zero heap allocations (proven
//! transitively by the `lint:root` markers they carry).

pub mod hits;
pub mod layers;
pub mod pagerank;

use langcrawl_webgraph::PageId;

/// Dense node handle inside a [`LinkGraph`], assigned in first-seen
/// order by [`LinkGraph::intern`].
pub type Slot = u32;

/// Shared sentinel: no slot assigned / page not crawled / no chunk.
const NONE: u32 = u32::MAX;

/// Targets per reverse-adjacency chunk. Eight `u32` targets plus the
/// two header words make a 40-byte chunk — under one cache line, and
/// large enough that the average page (in-degree ≈ out-degree ≈ 10)
/// spans one or two chunks.
const CHUNK_TARGETS: usize = 8;

/// Words per chunk: next-chunk link, length, then the targets.
const CHUNK_WORDS: usize = CHUNK_TARGETS + 2;

/// Append-only crawl-graph store with dense slot interning, forward
/// flat CSR, reverse chunked-CSR arena, degree/lost-edge counters and
/// an epoch/delta log.
///
/// ```
/// use langcrawl_core::linkgraph::LinkGraph;
///
/// let mut g = LinkGraph::new();
/// let a = g.record_page(7, &[9, 11]);
/// let b = g.record_page(9, &[7]);
/// assert_eq!(g.num_crawled(), 2);
/// assert_eq!(g.out_pages(a).collect::<Vec<_>>(), vec![9, 11]);
/// assert_eq!(g.in_degree(g.slot_of(7).unwrap()), 1);
/// assert!(g.is_crawled(b));
/// assert!(!g.is_crawled(g.slot_of(11).unwrap()));
/// ```
#[derive(Debug, Default)]
pub struct LinkGraph {
    /// `PageId → slot` lookup, direct-mapped (page ids in the simulator
    /// are dense indices into the web space, so a flat table beats a
    /// hash map and has no iteration-order hazard).
    slot_lut: Vec<u32>,
    /// `slot → PageId` (the interning inverse).
    page_of: Vec<PageId>,
    /// Per slot: offset of the forward span in `fwd_edges`, or
    /// [`NONE`] while the page is not yet crawled.
    fwd_head: Vec<u32>,
    /// Per slot: forward span length (out-degree; 0 while not crawled).
    fwd_len: Vec<u32>,
    /// Forward edge array: one contiguous span per crawled page, in
    /// crawl order (append-only CSR).
    fwd_edges: Vec<Slot>,
    /// Per slot: first reverse chunk offset in `rev_arena`, or [`NONE`].
    rev_head: Vec<u32>,
    /// Chunked reverse-edge arena; each chunk is [`CHUNK_WORDS`] words:
    /// `[next_chunk | NONE, len, source0..source7]`, sources sorted by
    /// page id across the whole chain.
    rev_arena: Vec<u32>,
    /// Per slot: in-degree (multiplicity counted).
    in_deg: Vec<u32>,
    /// Largest in-degree of any slot (a store statistic; pinned against
    /// the naive model by the property suite).
    max_in_deg: u32,
    /// Per slot: outlinks currently pointing at not-yet-crawled pages.
    lost_out: Vec<u32>,
    /// Slots with a forward span.
    crawled: u32,
    /// Current epoch (starts at 1 so `touched_mark == 0` means never).
    epoch: u32,
    /// Per slot: last epoch in which the slot entered `delta`.
    touched_mark: Vec<u32>,
    /// Slots structurally touched this epoch, in touch order, deduped.
    delta: Vec<Slot>,
    /// Edges inserted during the current epoch.
    epoch_edges: u64,
}

impl LinkGraph {
    /// Empty store.
    pub fn new() -> Self {
        Self {
            epoch: 1,
            ..Self::default()
        }
    }

    /// Empty store with node tables pre-sized for `pages` page ids.
    pub fn with_page_capacity(pages: usize) -> Self {
        let mut g = Self::new();
        g.slot_lut.reserve(pages);
        g.page_of.reserve(pages);
        g
    }

    /// Slots assigned so far (crawled pages plus known-but-uncrawled
    /// link targets).
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.page_of.len()
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

    /// Exclusive upper bound on page ids ever interned: scanning
    /// `0..page_bound()` through [`LinkGraph::slot_of`] visits every
    /// slot in ascending *page id* order — the canonical iteration the
    /// rank solvers use so f64 accumulation order is independent of
    /// crawl interleaving (slot order is first-seen order and is not).
    #[inline]
    pub fn page_bound(&self) -> usize {
        self.slot_lut.len()
    }

    /// The slot of `page`, if it has ever been seen.
    #[inline]
    pub fn slot_of(&self, page: PageId) -> Option<Slot> {
        match self.slot_lut.get(page as usize) {
            Some(&s) if s != NONE => Some(s),
            _ => None,
        }
    }

    /// The page id interned at `slot`.
    #[inline]
    pub fn page_at(&self, slot: Slot) -> PageId {
        // lint:allow(no-panic-transitive): slots are assigned by intern() and bounded by page_of.len()
        self.page_of[slot as usize]
    }

    /// Whether the page at `slot` has been recorded (fetched).
    #[inline]
    pub fn is_crawled(&self, slot: Slot) -> bool {
        // lint:allow(no-panic-transitive): slots are assigned by intern() and every per-slot table is grown with it
        self.fwd_head[slot as usize] != NONE
    }

    /// Out-degree of the page at `slot` (0 while not crawled).
    #[inline]
    pub fn out_degree(&self, slot: Slot) -> u32 {
        // lint:allow(no-panic-transitive): slots are assigned by intern() and every per-slot table is grown with it
        self.fwd_len[slot as usize]
    }

    /// In-degree of the page at `slot` (multiplicity counted).
    #[inline]
    pub fn in_degree(&self, slot: Slot) -> u32 {
        // lint:allow(no-panic-transitive): slots are assigned by intern() and every per-slot table is grown with it
        self.in_deg[slot as usize]
    }

    /// Largest in-degree across all slots.
    #[inline]
    pub fn max_in_degree(&self) -> u32 {
        self.max_in_deg
    }

    /// How many of the page's outlinks point at pages not yet crawled
    /// (the PageRank mass that must be redistributed, not dropped).
    #[inline]
    pub fn lost_out(&self, slot: Slot) -> u32 {
        // lint:allow(no-panic-transitive): slots are assigned by intern() and every per-slot table is grown with it
        self.lost_out[slot as usize]
    }

    /// Forward adjacency of a crawled page as slots (empty span while
    /// not crawled).
    #[inline]
    pub fn out_slots(&self, slot: Slot) -> &[Slot] {
        // lint:allow(no-panic-transitive): slot tables and edge spans are maintained consistently by record_page
        let head = self.fwd_head[slot as usize];
        if head == NONE {
            return &[];
        }
        let lo = head as usize;
        let hi = lo + self.fwd_len[slot as usize] as usize;
        &self.fwd_edges[lo..hi]
    }

    /// Forward adjacency of a crawled page as page ids.
    pub fn out_pages(&self, slot: Slot) -> impl Iterator<Item = PageId> + '_ {
        self.out_slots(slot)
            .iter()
            .map(|&t| self.page_of[t as usize])
    }

    /// Reverse adjacency of the page at `slot` (the slots of pages
    /// linking to it), in ascending source *page id* order (duplicates
    /// adjacent), walking the chunk chain. The order is canonical —
    /// independent of crawl interleaving — so f64 sums taken along it
    /// are bit-identical across insertion histories.
    #[inline]
    pub fn in_slots(&self, slot: Slot) -> InSlots<'_> {
        InSlots {
            graph: self,
            // lint:allow(no-panic-transitive): slots are assigned by intern() and every per-slot table is grown with it
            chunk: self.rev_head[slot as usize],
            pos: 0,
        }
    }

    /// Intern a page id, assigning a fresh slot on first sight.
    pub fn intern(&mut self, page: PageId) -> Slot {
        let idx = page as usize;
        if idx >= self.slot_lut.len() {
            self.slot_lut.resize(idx + 1, NONE);
        }
        // lint:allow(no-panic-transitive): idx < slot_lut.len() by the resize above
        let existing = self.slot_lut[idx];
        if existing != NONE {
            return existing;
        }
        let slot = self.page_of.len() as Slot;
        self.slot_lut[idx] = slot;
        self.page_of.push(page);
        self.fwd_head.push(NONE);
        self.fwd_len.push(0);
        self.rev_head.push(NONE);
        self.in_deg.push(0);
        self.lost_out.push(0);
        self.touched_mark.push(0);
        slot
    }

    /// Record a fetched page and its outlinks: assigns slots, appends
    /// the forward span, inserts one reverse edge per outlink, updates
    /// degrees and lost-edge counters, and logs every structurally
    /// touched slot into the current epoch's delta. Idempotent: a page
    /// already recorded is returned unchanged (the engine resolves each
    /// page exactly once, so this only guards against misuse).
    // lint:root(panic-free) — the once-per-fetch ingest path of every
    // link strategy; arrays only grow to their high-water sizes.
    pub fn record_page(&mut self, page: PageId, outlinks: &[PageId]) -> Slot {
        let s = self.intern(page);
        // lint:allow(no-panic-transitive): every index below is a slot previously returned by intern() or read from the arena, both bounded by the tables they index
        if self.fwd_head[s as usize] != NONE {
            return s; // already recorded
        }
        // Mark crawled *before* inserting edges so a self-loop is not
        // counted as a lost (uncrawled-target) edge.
        self.fwd_head[s as usize] = self.fwd_edges.len() as u32;
        self.crawled += 1;
        self.touch(s);

        // The pages already linking to `s` stop losing this edge's
        // share of their rank mass now that `s` is crawled.
        let mut chunk = self.rev_head[s as usize];
        while chunk != NONE {
            let base = chunk as usize;
            let len = self.rev_arena[base + 1] as usize;
            for i in 0..len {
                let p = self.rev_arena[base + 2 + i];
                self.lost_out[p as usize] -= 1;
            }
            chunk = self.rev_arena[base];
        }

        let mut lost = 0u32;
        for &t in outlinks {
            let ts = self.intern(t);
            self.fwd_edges.push(ts);
            self.rev_insert(ts, s);
            self.in_deg[ts as usize] += 1;
            if self.in_deg[ts as usize] > self.max_in_deg {
                self.max_in_deg = self.in_deg[ts as usize];
            }
            if self.fwd_head[ts as usize] == NONE {
                lost += 1;
            }
            self.touch(ts);
        }
        self.fwd_len[s as usize] = outlinks.len() as u32;
        self.lost_out[s as usize] = lost;
        self.epoch_edges += outlinks.len() as u64;
        s
    }

    /// Insert `source` into the reverse chunk chain of `target`,
    /// keeping the chain sorted by source page id: walk to the chunk
    /// that covers the key, shift within it, and split a full chunk in
    /// half (unrolled-list style). Amortized O(in_degree / chunk) per
    /// insert — the price of never sorting a gather on the solver hot
    /// paths.
    fn rev_insert(&mut self, target: Slot, source: Slot) {
        // lint:allow(no-panic-transitive): chunk offsets and lengths come from the arena the chunks themselves live in; slot indices are intern()-bounded
        let key = self.page_of[source as usize];
        let head = self.rev_head[target as usize];
        if head == NONE {
            let at = self.rev_arena.len() as u32;
            self.rev_arena.resize(self.rev_arena.len() + CHUNK_WORDS, 0);
            self.rev_arena[at as usize] = NONE;
            self.rev_arena[at as usize + 1] = 1;
            self.rev_arena[at as usize + 2] = source;
            self.rev_head[target as usize] = at;
            return;
        }
        // Find the chunk whose range covers `key`: the first one whose
        // last element is ≥ key, or the tail chunk.
        let mut c = head as usize;
        loop {
            let next = self.rev_arena[c];
            let len = self.rev_arena[c + 1] as usize;
            let last = self.rev_arena[c + 2 + len - 1];
            if next == NONE || self.page_of[last as usize] >= key {
                break;
            }
            c = next as usize;
        }
        let len = self.rev_arena[c + 1] as usize;
        // In-chunk insertion point: after any equal keys (equal keys
        // mean the same source slot, so relative order is immaterial).
        let mut pos = 0;
        while pos < len {
            let e = self.rev_arena[c + 2 + pos];
            if self.page_of[e as usize] > key {
                break;
            }
            pos += 1;
        }
        if len < CHUNK_TARGETS {
            let mut i = len;
            while i > pos {
                self.rev_arena[c + 2 + i] = self.rev_arena[c + 2 + i - 1];
                i -= 1;
            }
            self.rev_arena[c + 2 + pos] = source;
            self.rev_arena[c + 1] = len as u32 + 1;
            return;
        }
        // Split the full chunk: upper half moves into a fresh chunk
        // linked right after it, then insert into the proper half.
        const HALF: usize = CHUNK_TARGETS / 2;
        let at = self.rev_arena.len() as u32;
        self.rev_arena.resize(self.rev_arena.len() + CHUNK_WORDS, 0);
        let nb = at as usize;
        self.rev_arena[nb] = self.rev_arena[c];
        self.rev_arena[nb + 1] = (CHUNK_TARGETS - HALF) as u32;
        for i in 0..CHUNK_TARGETS - HALF {
            self.rev_arena[nb + 2 + i] = self.rev_arena[c + 2 + HALF + i];
        }
        self.rev_arena[c] = at;
        self.rev_arena[c + 1] = HALF as u32;
        let (cb, clen, p) = if pos <= HALF {
            (c, HALF, pos)
        } else {
            (nb, CHUNK_TARGETS - HALF, pos - HALF)
        };
        let mut i = clen;
        while i > p {
            self.rev_arena[cb + 2 + i] = self.rev_arena[cb + 2 + i - 1];
            i -= 1;
        }
        self.rev_arena[cb + 2 + p] = source;
        self.rev_arena[cb + 1] = clen as u32 + 1;
    }

    /// Log `slot` into the current epoch's delta (once per epoch).
    #[inline]
    fn touch(&mut self, slot: Slot) {
        // lint:allow(no-panic-transitive): touched_mark is grown alongside every slot assignment in intern()
        if self.touched_mark[slot as usize] != self.epoch {
            self.touched_mark[slot as usize] = self.epoch;
            self.delta.push(slot);
        }
    }

    /// Current epoch number (starts at 1, bumped by
    /// [`LinkGraph::advance_epoch`]).
    #[inline]
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Slots structurally touched since the last epoch advance, in
    /// first-touch order, each at most once.
    #[inline]
    pub fn delta(&self) -> &[Slot] {
        &self.delta
    }

    /// Edges inserted during the current epoch.
    #[inline]
    pub fn edges_in_epoch(&self) -> u64 {
        self.epoch_edges
    }

    /// Close the current epoch: clears the delta log and the per-epoch
    /// edge counter. Incremental consumers call this after draining
    /// [`LinkGraph::delta`], so consecutive epochs partition the edge
    /// set (a property pinned by the `linkgraph_props` suite).
    pub fn advance_epoch(&mut self) {
        self.delta.clear();
        self.epoch_edges = 0;
        self.epoch += 1;
    }
}

/// Iterator over the reverse adjacency of one slot (see
/// [`LinkGraph::in_slots`]).
#[derive(Debug)]
pub struct InSlots<'a> {
    graph: &'a LinkGraph,
    chunk: u32,
    pos: usize,
}

impl Iterator for InSlots<'_> {
    type Item = Slot;

    #[inline]
    fn next(&mut self) -> Option<Slot> {
        while self.chunk != NONE {
            let base = self.chunk as usize;
            // lint:allow(no-panic-transitive): chunk offsets and lengths come from the arena itself, written only by rev_insert
            let len = self.graph.rev_arena[base + 1] as usize;
            if self.pos < len {
                let t = self.graph.rev_arena[base + 2 + self.pos];
                self.pos += 1;
                return Some(t);
            }
            self.chunk = self.graph.rev_arena[base];
            self.pos = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_assigns_dense_slots_in_first_seen_order() {
        let mut g = LinkGraph::new();
        assert_eq!(g.intern(40), 0);
        assert_eq!(g.intern(7), 1);
        assert_eq!(g.intern(40), 0, "re-interning is stable");
        assert_eq!(g.slot_of(7), Some(1));
        assert_eq!(g.slot_of(8), None);
        assert_eq!(g.page_at(0), 40);
        assert_eq!(g.page_at(1), 7);
    }

    #[test]
    fn record_page_builds_both_adjacencies() {
        let mut g = LinkGraph::new();
        let a = g.record_page(1, &[2, 3, 2]);
        let b = g.record_page(2, &[1]);
        assert_eq!(g.num_crawled(), 2);
        assert_eq!(g.num_slots(), 3);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_pages(a).collect::<Vec<_>>(), vec![2, 3, 2]);
        assert_eq!(g.out_degree(a), 3);
        // Duplicate links keep their multiplicity in both views.
        assert_eq!(g.in_degree(b), 2);
        let ins: Vec<PageId> = g.in_slots(b).map(|s| g.page_at(s)).collect();
        assert_eq!(ins, vec![1, 1]);
        assert_eq!(
            g.in_slots(a).map(|s| g.page_at(s)).collect::<Vec<_>>(),
            vec![2]
        );
    }

    #[test]
    fn chunk_chain_survives_many_inserts() {
        let mut g = LinkGraph::new();
        // 50 pages all link to page 999: far more in-edges than one
        // chunk holds.
        for p in 0..50u32 {
            g.record_page(p, &[999]);
        }
        let t = g.slot_of(999).expect("target interned");
        assert_eq!(g.in_degree(t), 50);
        let ins: Vec<PageId> = g.in_slots(t).map(|s| g.page_at(s)).collect();
        assert_eq!(ins, (0..50).collect::<Vec<_>>(), "page order kept");
    }

    #[test]
    fn reverse_lists_are_page_sorted_regardless_of_insertion_order() {
        // Sources arrive in descending and interleaved order; the chain
        // must come out ascending by page id (split-insert at work).
        let mut g = LinkGraph::new();
        for p in (0..30u32).rev() {
            g.record_page(2 * p + 1, &[500]);
        }
        for p in 0..30u32 {
            g.record_page(2 * p, &[500]);
        }
        let t = g.slot_of(500).unwrap();
        let ins: Vec<PageId> = g.in_slots(t).map(|s| g.page_at(s)).collect();
        assert_eq!(ins, (0..60).collect::<Vec<_>>());
        assert_eq!(g.max_in_degree(), 60);
    }

    #[test]
    fn lost_out_tracks_uncrawled_targets() {
        let mut g = LinkGraph::new();
        let a = g.record_page(1, &[2, 3]);
        assert_eq!(g.lost_out(a), 2, "both targets uncrawled");
        g.record_page(2, &[]);
        assert_eq!(g.lost_out(a), 1, "2 crawled, 3 still lost");
        g.record_page(3, &[1]);
        assert_eq!(g.lost_out(a), 0);
        let c = g.slot_of(3).unwrap();
        assert_eq!(g.lost_out(c), 0, "3 links to already-crawled 1");
    }

    #[test]
    fn self_loop_is_not_lost() {
        let mut g = LinkGraph::new();
        let a = g.record_page(5, &[5, 6]);
        assert_eq!(g.lost_out(a), 1, "only the link to 6 is lost");
        assert_eq!(g.in_degree(a), 1);
    }

    #[test]
    fn record_is_idempotent() {
        let mut g = LinkGraph::new();
        let a = g.record_page(1, &[2]);
        let again = g.record_page(1, &[9, 9, 9]);
        assert_eq!(a, again);
        assert_eq!(g.num_edges(), 1, "second record is ignored");
        assert_eq!(g.out_pages(a).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn delta_log_dedupes_and_epochs_partition_edges() {
        let mut g = LinkGraph::new();
        g.record_page(1, &[2, 3]);
        g.record_page(2, &[3, 3]);
        // Slots touched: 1, 2, 3 — each exactly once despite repeats.
        let delta: Vec<PageId> = g.delta().iter().map(|&s| g.page_at(s)).collect();
        assert_eq!(delta, vec![1, 2, 3]);
        assert_eq!(g.edges_in_epoch(), 4);
        let e1 = g.epoch();
        g.advance_epoch();
        assert!(g.delta().is_empty());
        assert_eq!(g.edges_in_epoch(), 0);
        assert_eq!(g.epoch(), e1 + 1);
        g.record_page(3, &[1]);
        let delta: Vec<PageId> = g.delta().iter().map(|&s| g.page_at(s)).collect();
        assert_eq!(delta, vec![3, 1]);
        assert_eq!(g.edges_in_epoch(), 1);
    }

    #[test]
    fn uncrawled_slots_expose_empty_forward_views() {
        let mut g = LinkGraph::new();
        g.record_page(1, &[2]);
        let t = g.slot_of(2).unwrap();
        assert!(!g.is_crawled(t));
        assert!(g.out_slots(t).is_empty());
        assert_eq!(g.out_degree(t), 0);
    }
}
