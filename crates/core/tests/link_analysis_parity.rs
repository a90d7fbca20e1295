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
//! * Absolute pins: digests of every rank's bits after the pinned
//!   PageRank crawl and after the interval-97 ingest, and of each link
//!   strategy's pinned-cell report, backlink counting included. The
//!   parity checks above compare two modes of the same code; these
//!   constants catch a change that moves both modes at once.
//! * The link strategies' reports are swept across spaces generated on
//!   1 and 4 threads: link analysis runs on the single-threaded resolve
//!   path and must not observe thread count. (CI also runs the whole
//!   binary under `LANGCRAWL_THREADS` ∈ {1, 4}.)

use langcrawl_core::classifier::OracleClassifier;
use langcrawl_core::metrics::CrawlReport;
use langcrawl_core::sim::{SimConfig, Simulator};
use langcrawl_core::strategy::{
    BacklinkCount, HitsStrategy, OnlineContextGraphStrategy, OnlinePageRank, PageView, Strategy,
};
use langcrawl_webgraph::generate::generate_with_threads;
use langcrawl_webgraph::{GeneratorConfig, PageId, WebSpace};

/// The pinned cell: same preset/scale/seed family as `engine_parity`.
fn space() -> WebSpace {
    GeneratorConfig::thai_like().scaled(12_000).build(41)
}

/// The pinned cell's space, generated on exactly `threads` threads.
fn space_on(threads: usize) -> WebSpace {
    generate_with_threads(&GeneratorConfig::thai_like().scaled(12_000), 41, threads)
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Digest of every rank's bits, in page order.
fn rank_digest(pages: impl Iterator<Item = PageId>, rank: impl Fn(PageId) -> f64) -> u64 {
    fnv1a(pages.map(|p| rank(p).to_bits()))
}

/// Digest of every `CrawlReport` field: names, the sample series, all
/// counters and the visit order.
fn report_digest(r: &CrawlReport) -> u64 {
    let names = r
        .strategy
        .bytes()
        .chain(r.classifier.bytes())
        .map(u64::from);
    let samples = r
        .samples
        .iter()
        .flat_map(|s| [s.crawled, s.relevant, s.queue_size as u64]);
    let counters = [
        r.crawled,
        r.relevant_crawled,
        r.total_relevant,
        r.max_queue as u64,
        r.total_pushes,
        r.attempts,
        r.retries,
        r.gave_up,
        r.ticks,
    ];
    let visits = r.visited.iter().map(|&v| u64::from(v));
    fnv1a(names.chain(samples).chain(counters).chain(visits))
}

/// Rank digest after the pinned `OnlinePageRank::new()` crawl.
const PINNED_CRAWL_RANKS: u64 = 0x05d3_60cd_163c_6e29;
/// Rank digest of the incremental solver after the interval-97 ingest.
const PINNED_INGEST_RANKS: u64 = 0x6dae_e950_1de8_2bd7;
/// Report digests of the pinned cell: PageRank, HITS, online context
/// graph (L = 2), backlink count.
const PINNED_REPORTS: [u64; 4] = [
    0xe682_fb71_3814_71f3,
    0x431a_adea_bb08_6dcb,
    0x9824_548d_5dc4_a569,
    0xd756_94b4_590c_81ef,
];

/// One full pinned crawl with visit recording (so a report mismatch
/// pins the exact fetch order, not just the totals).
fn run(ws: &WebSpace, strategy: &mut dyn Strategy) -> CrawlReport {
    let config = SimConfig::default().with_visit_recording();
    Simulator::new(ws, config).run(strategy, &OracleClassifier::target(ws.target_language()))
}

#[test]
fn pagerank_incremental_report_matches_full_reference() {
    let ws = space();
    let mut strategy = OnlinePageRank::new();
    let inc = run(&ws, &mut strategy);
    let full = run(&ws, &mut OnlinePageRank::full_reference(2_000, 10, 0.85));
    assert_eq!(inc, full, "pagerank-ordered crawl diverged from reference");
    let got = rank_digest(ws.page_ids(), |p| strategy.rank(p));
    assert_eq!(
        got, PINNED_CRAWL_RANKS,
        "rank bits after the pinned crawl moved: {got:#018x}"
    );
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
    let got = rank_digest(ws.page_ids().take(4_000), |p| inc.rank(p));
    assert_eq!(
        got, PINNED_INGEST_RANKS,
        "rank bits after the interval-97 ingest moved: {got:#018x}"
    );
}

/// The reports of every link strategy must be invariant under the
/// generation thread count — the strategies run on the single-threaded
/// resolve path, and the store/solvers never observe thread count —
/// and match their pinned digests.
#[test]
fn link_strategy_reports_invariant_under_thread_sweep() {
    let mut baseline: Option<Vec<CrawlReport>> = None;
    for threads in [1, 4] {
        let ws = space_on(threads);
        let reports = vec![
            run(&ws, &mut OnlinePageRank::new()),
            run(&ws, &mut HitsStrategy::new()),
            run(&ws, &mut OnlineContextGraphStrategy::new(2)),
            run(&ws, &mut BacklinkCount::new()),
        ];
        let got: Vec<u64> = reports.iter().map(report_digest).collect();
        assert_eq!(
            got, PINNED_REPORTS,
            "link-strategy report digests moved on a space generated on {threads} threads: {got:#018x?}"
        );
        match &baseline {
            None => baseline = Some(reports),
            Some(b) => assert_eq!(
                b, &reports,
                "link-strategy reports changed on a space generated on {threads} threads"
            ),
        }
    }
}
