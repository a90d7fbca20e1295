//! Property tests for the shared crawl-graph store
//! ([`langcrawl_core::linkgraph`]): the store against a naive
//! page-indexed model under random interleaved inserts.
//!
//! Page ids are sparse and arrive out of order: they come from a pool
//! with gaps of up to thousands between neighbours, picked at random,
//! so link targets are seen before they are recorded and pages are
//! recorded again.
//!
//! Checked invariants:
//! * the page bound is one past the largest id recorded or linked to;
//! * forward adjacency matches the model element for element (record
//!   order and multiplicity), and crawled flags, the page-order walk of
//!   crawled pages and the record-order edge list with it;
//! * epoch deltas list exactly the pages touched in the epoch, once
//!   each, in first-touch order, and per-epoch edge counts sum to the
//!   store total.
//!
//! The store keeps no reverse adjacency; the layer index's own in-lists
//! are checked against a model in `linkgraph::layers`' unit tests.

use langcrawl_core::linkgraph::LinkGraph;
use langcrawl_minicheck::{check, Gen};

/// Naive mirror of the store: one slot per page id, grown on demand.
#[derive(Default)]
struct Model {
    /// Page id → its outlinks in record order, once recorded.
    fwd: Vec<Option<Vec<u32>>>,
    /// Every edge's target, in record order.
    edges: Vec<u32>,
    /// Pages touched this epoch, in first-touch order.
    touched: Vec<u32>,
}

impl Model {
    fn record_page(&mut self, page: u32, outlinks: &[u32]) {
        if self.fwd.get(page as usize).is_some_and(Option::is_some) {
            return;
        }
        for &p in outlinks.iter().chain([&page]) {
            if p as usize >= self.fwd.len() {
                self.fwd.resize(p as usize + 1, None);
            }
        }
        self.fwd[page as usize] = Some(outlinks.to_vec());
        self.edges.extend_from_slice(outlinks);
        for &p in [&page].into_iter().chain(outlinks) {
            if !self.touched.contains(&p) {
                self.touched.push(p);
            }
        }
    }
}

/// A pool of distinct page ids, ascending, with gaps of 1 to a few
/// thousand between neighbours.
fn sparse_pool(g: &mut Gen) -> Vec<u32> {
    let mut id = g.u32(0..3_000);
    let mut pool = vec![id];
    for _ in 0..g.usize(0..40) {
        id += match g.weighted(&[2, 2, 3]) {
            0 => 1,
            1 => g.u32(2..20),
            _ => g.u32(1_000..3_000),
        };
        pool.push(id);
    }
    pool
}

/// One random `record_page` call's arguments, drawn from `pool`.
fn draw(g: &mut Gen, pool: &[u32], max_outs: usize, outs: &mut Vec<u32>) -> u32 {
    outs.clear();
    for _ in 0..g.usize(0..max_outs) {
        outs.push(*g.pick(pool));
    }
    *g.pick(pool)
}

fn assert_equiv(store: &LinkGraph, model: &Model) {
    assert_eq!(store.page_bound(), model.fwd.len(), "page bound");
    assert_eq!(
        store.num_crawled(),
        model.fwd.iter().flatten().count(),
        "crawled count"
    );
    assert_eq!(store.num_edges(), model.edges.len(), "edge count");
    for (page, want) in model.fwd.iter().enumerate() {
        let page = page as u32;
        assert_eq!(store.is_crawled(page), want.is_some(), "is_crawled({page})");
        // Forward adjacency: exact order and multiplicity.
        let want = want.as_deref().unwrap_or(&[]);
        assert_eq!(store.out_pages(page), want, "out_pages({page})");
    }
    // The page-order walk visits exactly the recorded pages.
    let walked: Vec<(u32, &[u32])> = store.crawled_pages().collect();
    let recorded: Vec<(u32, &[u32])> = (0..)
        .zip(&model.fwd)
        .filter_map(|(p, outs)| Some((p, outs.as_deref()?)))
        .collect();
    assert_eq!(walked, recorded, "crawled_pages");
    // The edge list is every forward span, in record order.
    assert_eq!(store.edge_targets(), &model.edges[..], "edge_targets");
    // Ids past the bound are simply not crawled.
    for page in [model.fwd.len() as u32, u32::MAX] {
        assert!(!store.is_crawled(page));
        assert!(store.out_pages(page).is_empty());
    }
}

#[test]
fn store_matches_naive_model_under_random_growth() {
    check(64, |g| {
        let pool = sparse_pool(g);
        let mut store = LinkGraph::new();
        let mut model = Model::default();
        let mut outs = Vec::new();
        for _ in 0..g.usize(1..120) {
            let page = draw(g, &pool, 12, &mut outs);
            store.record_page(page, &outs);
            model.record_page(page, &outs);
        }
        assert_equiv(&store, &model);
    });
}

#[test]
fn epoch_deltas_partition_the_edge_set() {
    check(64, |g| {
        let pool = sparse_pool(g);
        let mut store = LinkGraph::new();
        let mut model = Model::default();
        let mut outs = Vec::new();
        let mut per_epoch_edges = Vec::new();
        for _ in 0..g.usize(1..100) {
            if g.bool(0.2) {
                // Close the epoch: its delta is exactly the pages its
                // records touched, each once, in first-touch order.
                assert_eq!(store.delta(), &model.touched[..], "delta");
                per_epoch_edges.push(store.edges_in_epoch());
                store.advance_epoch();
                model.touched.clear();
                assert!(store.delta().is_empty(), "delta survives the epoch");
                assert_eq!(store.edges_in_epoch(), 0);
            }
            let page = draw(g, &pool, 8, &mut outs);
            store.record_page(page, &outs);
            model.record_page(page, &outs);
        }
        assert_eq!(store.delta(), &model.touched[..], "delta");
        per_epoch_edges.push(store.edges_in_epoch());
        let partitioned: u64 = per_epoch_edges.iter().sum();
        assert_eq!(
            partitioned,
            store.num_edges() as u64,
            "per-epoch edge counts must sum to the arena total"
        );
    });
}
