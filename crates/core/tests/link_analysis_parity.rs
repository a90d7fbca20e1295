//! Link-analysis parity: the engines behind the three link-based
//! strategies must agree with their full-recompute references on whole
//! pinned crawls, not just on unit-sized graphs.
//!
//! * PageRank: the delta-propagating solver and the full-reseed
//!   reference produce **identical `CrawlReport`s** (same fetch order,
//!   same bucket assignments) on the pinned experiment cell, and raw
//!   ranks agree within a pinned L∞ bound.
//! * HITS: the flat relevance-filtered firing is *bitwise* identical to
//!   the textbook recompute (see `linkgraph::hits` for why), so reports
//!   must match exactly too.
//! * Everything is swept across `LANGCRAWL_THREADS` ∈ {1, 4}: link
//!   analysis runs on the single-threaded resolve path and must not
//!   observe thread count.

use langcrawl_core::classifier::OracleClassifier;
use langcrawl_core::metrics::CrawlReport;
use langcrawl_core::sim::{SimConfig, Simulator};
use langcrawl_core::strategy::{
    HitsStrategy, OnlineContextGraphStrategy, OnlinePageRank, PageView, Strategy,
};
use langcrawl_webgraph::{GeneratorConfig, WebSpace};

/// The pinned cell: same preset/scale/seed family as `engine_parity`.
fn space() -> WebSpace {
    GeneratorConfig::thai_like().scaled(12_000).build(41)
}

/// One full pinned crawl with visit recording (so a report mismatch
/// pins the exact fetch order, not just the totals).
fn run(ws: &WebSpace, strategy: &mut dyn Strategy) -> CrawlReport {
    let config = SimConfig::default().with_visit_recording();
    Simulator::new(ws, config).run(strategy, &OracleClassifier::target(ws.target_language()))
}

#[test]
fn pagerank_incremental_report_matches_full_reference() {
    let ws = space();
    let inc = run(&ws, &mut OnlinePageRank::new());
    let full = run(&ws, &mut OnlinePageRank::full_reference(2_000, 10, 0.85));
    assert_eq!(inc, full, "pagerank-ordered crawl diverged from reference");
}

#[test]
fn hits_incremental_report_matches_full_reference() {
    let ws = space();
    let inc = run(&ws, &mut HitsStrategy::new());
    let full = run(&ws, &mut HitsStrategy::full_reference(2_000, 20, 5));
    assert_eq!(inc, full, "soft+hits crawl diverged from reference");
}

/// Feed the pinned space's pages directly through both solvers (tight
/// interval so refreshes happen often) and bound the raw rank gap.
#[test]
fn pagerank_ranks_within_pinned_linf_bound() {
    let ws = space();
    let mut inc = OnlinePageRank::with_params(97, 64, 0.85);
    let mut full = OnlinePageRank::full_reference(97, 64, 0.85);
    let mut out = Vec::new();
    for (i, p) in ws.page_ids().take(4_000).enumerate() {
        let view = PageView {
            page: p,
            relevance: 0.0,
            consec_irrelevant: 1,
            outlinks: ws.outlinks(p),
            crawled: i as u64 + 1,
        };
        inc.admit(&view, &mut out);
        full.admit(&view, &mut out);
        out.clear();
    }
    let mut linf = 0.0f64;
    for p in ws.page_ids().take(4_000) {
        linf = linf.max((inc.rank(p) - full.rank(p)).abs());
    }
    // The pinned bound: both modes stop once residuals drop below the
    // strategy threshold θ = 1e-2/N = 2.5e-6 here, so their gap is a
    // small multiple of θ — pinned at 4θ, still ~25× below the uniform
    // rank 1/4000 = 2.5e-4 and far inside one log₂ priority bucket.
    assert!(linf < 1e-5, "L∞ rank gap {linf}");
    assert!((inc.rank_sum() - 1.0).abs() < 1e-10, "{}", inc.rank_sum());
    assert!((full.rank_sum() - 1.0).abs() < 1e-10, "{}", full.rank_sum());
}

/// The report hashes of every link strategy must be invariant under
/// `LANGCRAWL_THREADS` — the strategies run on the single-threaded
/// resolve path, and the store/solvers never observe thread count.
#[test]
fn link_strategy_reports_invariant_under_thread_sweep() {
    let mut baseline: Option<Vec<CrawlReport>> = None;
    for threads in ["1", "4"] {
        std::env::set_var("LANGCRAWL_THREADS", threads);
        let ws = space();
        let reports = vec![
            run(&ws, &mut OnlinePageRank::new()),
            run(&ws, &mut HitsStrategy::new()),
            run(&ws, &mut OnlineContextGraphStrategy::new(2)),
        ];
        match &baseline {
            None => baseline = Some(reports),
            Some(b) => assert_eq!(
                b, &reports,
                "link-strategy reports changed under LANGCRAWL_THREADS={threads}"
            ),
        }
    }
    std::env::remove_var("LANGCRAWL_THREADS");
}
