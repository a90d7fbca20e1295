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
//! * **Epoch/delta log** — every slot structurally touched since the
//!   last [`LinkGraph::advance_epoch`] is recorded once, so an
//!   incremental algorithm (the PageRank refresh) can seed its worklist
//!   with exactly the perturbed region instead of rescanning the graph.
//!
//! The store keeps no reverse adjacency. Slot order is first-seen order
//! and depends on crawl interleaving, so f64 sums must run in *page id*
//! order instead; the two solvers that sum floats get that order at
//! gather time by visiting sources in ascending page id
//! ([`LinkGraph::page_bound`]). [`pagerank`] fills page-sorted in-lists
//! from the forward spans once per refresh, and [`hits`] pushes hub
//! scores along the forward spans. [`layers`] reads in-edges on every
//! fetch but does not care about their order, so it keeps its own
//! append-only reverse lists.
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

/// Append-only crawl-graph store with dense slot interning, a forward
/// flat CSR and an epoch/delta log.
///
/// ```
/// use langcrawl_core::linkgraph::LinkGraph;
///
/// let mut g = LinkGraph::new();
/// let a = g.record_page(7, &[9, 11]);
/// let b = g.record_page(9, &[7]);
/// assert_eq!(g.num_crawled(), 2);
/// assert_eq!(g.out_pages(a).collect::<Vec<_>>(), vec![9, 11]);
/// assert_eq!(g.out_slots(b), &[a]);
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

    /// The target slot of every recorded edge, in record order. Edges
    /// are only ever appended, so `edge_targets()[k..]` holds exactly
    /// the edges recorded after the first `k`.
    #[inline]
    pub fn edge_targets(&self) -> &[Slot] {
        &self.fwd_edges
    }

    /// Forward adjacency of a crawled page as page ids.
    pub fn out_pages(&self, slot: Slot) -> impl Iterator<Item = PageId> + '_ {
        self.out_slots(slot)
            .iter()
            .map(|&t| self.page_of[t as usize])
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
        self.touched_mark.push(0);
        slot
    }

    /// Record a fetched page and its outlinks: assigns slots, appends
    /// the forward span, and logs the page and every link target into
    /// the current epoch's delta. Idempotent: a page already recorded
    /// is returned unchanged (the engine resolves each page exactly
    /// once, so this only guards against misuse).
    // lint:root(panic-free) — the once-per-fetch ingest path of every
    // link strategy; arrays only grow to their high-water sizes.
    pub fn record_page(&mut self, page: PageId, outlinks: &[PageId]) -> Slot {
        let s = self.intern(page);
        // lint:allow(no-panic-transitive): s was just returned by intern(), which grows every per-slot table with it
        if self.fwd_head[s as usize] != NONE {
            return s; // already recorded
        }
        self.fwd_head[s as usize] = self.fwd_edges.len() as u32;
        self.fwd_len[s as usize] = outlinks.len() as u32;
        self.crawled += 1;
        self.touch(s);
        for &t in outlinks {
            let ts = self.intern(t);
            self.fwd_edges.push(ts);
            self.touch(ts);
        }
        self.epoch_edges += outlinks.len() as u64;
        s
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
    fn record_page_builds_forward_adjacency() {
        let mut g = LinkGraph::new();
        let a = g.record_page(1, &[2, 3, 2]);
        let b = g.record_page(2, &[1]);
        assert_eq!(g.num_crawled(), 2);
        assert_eq!(g.num_slots(), 3);
        assert_eq!(g.num_edges(), 4);
        // Duplicate links keep their multiplicity and record order.
        assert_eq!(g.out_pages(a).collect::<Vec<_>>(), vec![2, 3, 2]);
        assert_eq!(g.out_slots(a), &[b, 2, b]);
        assert_eq!(g.out_degree(a), 3);
        assert_eq!(g.out_slots(b), &[a]);
    }

    #[test]
    fn self_loop_is_an_ordinary_edge() {
        let mut g = LinkGraph::new();
        let a = g.record_page(5, &[5, 6]);
        assert_eq!(g.out_pages(a).collect::<Vec<_>>(), vec![5, 6]);
        assert_eq!(g.out_slots(a)[0], a);
        assert_eq!(g.num_slots(), 2);
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
