//! Property tests for the shared crawl-graph store
//! ([`langcrawl_core::linkgraph`]): the store against a naive
//! `Vec<Vec<_>>` model under random interleaved inserts.
//!
//! Checked invariants:
//! * interning is a bijection between distinct page ids and dense slots;
//! * forward adjacency matches the model element for element (record
//!   order and multiplicity), and out-degrees, crawled flags and the
//!   record-order edge list with it;
//! * epoch deltas partition the edge set: per-epoch edge counts sum to
//!   the store total, and every touched slot appears once per epoch.
//!
//! The store keeps no reverse adjacency; the layer index's own in-lists
//! are checked against a model in `linkgraph::layers`' unit tests.

use langcrawl_core::linkgraph::LinkGraph;
use langcrawl_minicheck::{check, Gen};

/// Naive mirror of the store: slot-indexed `Vec`s, no interning
/// tricks.
#[derive(Default)]
struct Model {
    /// slot → page id, in first-seen order.
    pages: Vec<u32>,
    /// slot → outlink target slots, in record order.
    fwd: Vec<Vec<u32>>,
    /// Every edge's target slot, in record order.
    edges: Vec<u32>,
    crawled: Vec<bool>,
}

impl Model {
    fn intern(&mut self, page: u32) -> u32 {
        if let Some(s) = self.pages.iter().position(|&p| p == page) {
            return s as u32;
        }
        self.pages.push(page);
        self.fwd.push(Vec::new());
        self.crawled.push(false);
        self.pages.len() as u32 - 1
    }

    fn record_page(&mut self, page: u32, outlinks: &[u32]) {
        let s = self.intern(page);
        if self.crawled[s as usize] {
            return;
        }
        self.crawled[s as usize] = true;
        for &t in outlinks {
            let ts = self.intern(t);
            self.fwd[s as usize].push(ts);
            self.edges.push(ts);
        }
    }
}

/// Drive `steps` random `record_page` calls (small page universe so
/// duplicates, self-loops and re-records all occur) against both the
/// store and the model, checking full equivalence at the end.
fn grow_and_compare(g: &mut Gen, steps: usize, universe: u32) -> (LinkGraph, Model) {
    let mut store = LinkGraph::new();
    let mut model = Model::default();
    let mut outs = Vec::new();
    for _ in 0..steps {
        let page = g.u32(0..universe);
        outs.clear();
        for _ in 0..g.usize(0..12) {
            outs.push(g.u32(0..universe));
        }
        store.record_page(page, &outs);
        model.record_page(page, &outs);
    }
    (store, model)
}

fn assert_equiv(store: &LinkGraph, model: &Model) {
    assert_eq!(store.num_slots(), model.pages.len(), "slot count");
    assert_eq!(
        store.num_crawled(),
        model.crawled.iter().filter(|&&c| c).count(),
        "crawled count"
    );
    let total: usize = model.fwd.iter().map(Vec::len).sum();
    assert_eq!(store.num_edges(), total, "edge count");
    for s in 0..model.pages.len() as u32 {
        // Interning bijection: page_at ∘ slot_of = id, slots dense.
        let page = model.pages[s as usize];
        assert_eq!(store.page_at(s), page, "page_at({s})");
        assert_eq!(store.slot_of(page), Some(s), "slot_of({page})");
        assert_eq!(store.is_crawled(s), model.crawled[s as usize]);
        // Forward adjacency: exact order and multiplicity.
        assert_eq!(store.out_slots(s), &model.fwd[s as usize][..], "fwd({s})");
        assert_eq!(store.out_degree(s) as usize, model.fwd[s as usize].len());
    }
    // The edge list is every forward span, in record order.
    assert_eq!(store.edge_targets(), &model.edges[..], "edge_targets");
    // Unknown pages resolve to nothing.
    assert_eq!(store.slot_of(u32::MAX), None);
}

#[test]
fn store_matches_naive_model_under_random_growth() {
    check(64, |g| {
        let steps = g.usize(1..120);
        let universe = g.u32(1..80) + 1;
        let (store, model) = grow_and_compare(g, steps, universe);
        assert_equiv(&store, &model);
    });
}

#[test]
fn epoch_deltas_partition_the_edge_set() {
    check(64, |g| {
        let mut store = LinkGraph::new();
        let universe = g.u32(2..60) + 1;
        let mut outs = Vec::new();
        let mut per_epoch_edges = Vec::new();
        let mut seen_in_delta = vec![0u32; universe as usize + 1];
        let mut epoch_no = 0u32;
        for _ in 0..g.usize(1..100) {
            if g.bool(0.2) {
                // Close the epoch: record its edge count and check the
                // delta holds each touched slot exactly once.
                per_epoch_edges.push(store.edges_in_epoch());
                epoch_no += 1;
                for &s in store.delta() {
                    let page = store.page_at(s) as usize;
                    assert_ne!(
                        seen_in_delta[page], epoch_no,
                        "slot {s} listed twice in one delta"
                    );
                    seen_in_delta[page] = epoch_no;
                }
                store.advance_epoch();
                assert!(store.delta().is_empty(), "delta survives the epoch");
                assert_eq!(store.edges_in_epoch(), 0);
            }
            let page = g.u32(0..universe);
            outs.clear();
            for _ in 0..g.usize(0..8) {
                outs.push(g.u32(0..universe));
            }
            store.record_page(page, &outs);
        }
        per_epoch_edges.push(store.edges_in_epoch());
        let partitioned: u64 = per_epoch_edges.iter().sum();
        assert_eq!(
            partitioned,
            store.num_edges() as u64,
            "per-epoch edge counts must sum to the arena total"
        );
    });
}
