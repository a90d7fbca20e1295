//! Engine parity: the layered engine behind [`Simulator::run`] must be
//! **bit-identical** to the monolithic crawl loop it replaced.
//!
//! `reference_run` below is a line-for-line copy of the pre-refactor
//! `Simulator::run` body (the single loop that owned queueing, sampling
//! and visit recording before the Frontier/EventSink decomposition).
//! Every strategy family runs both loops over the same space and the
//! whole [`CrawlReport`]s — samples, counters, queue high-water marks,
//! visit sequences — are compared with `assert_eq!`.

use langcrawl_core::classifier::{Classifier, MetaClassifier, OracleClassifier};
use langcrawl_core::metrics::{CrawlReport, Sample};
use langcrawl_core::queue::{Entry, UrlQueue};
use langcrawl_core::sim::{SimConfig, Simulator};
use langcrawl_core::strategy::{
    BacklinkCount, BreadthFirst, CombinedStrategy, ContextGraphStrategy, HitsStrategy,
    LimitedDistanceStrategy, OnlinePageRank, PageView, SimpleStrategy, Strategy,
};
use langcrawl_webgraph::{GeneratorConfig, WebSpace};

/// The pre-refactor monolithic crawl loop, preserved verbatim as the
/// behavioral reference.
fn reference_run(
    ws: &WebSpace,
    config: &SimConfig,
    strategy: &mut dyn Strategy,
    classifier: &dyn Classifier,
) -> CrawlReport {
    let n = ws.num_pages();
    let sample_interval = config
        .sample_interval
        .unwrap_or_else(|| (n as u64 / 512).max(1));
    let budget = config.max_pages.unwrap_or(u64::MAX);

    let mut queue = UrlQueue::new(n, strategy.levels());
    for &s in ws.seeds() {
        queue.push(Entry {
            page: s,
            priority: 0,
            distance: 0,
        });
    }

    let mut crawled: u64 = 0;
    let mut relevant_crawled: u64 = 0;
    let mut samples: Vec<Sample> = Vec::with_capacity(600);
    let mut admissions: Vec<Entry> = Vec::with_capacity(64);
    let mut visited: Vec<langcrawl_webgraph::PageId> = Vec::new();

    while let Some(entry) = queue.pop() {
        let p = entry.page;
        crawled += 1;
        if config.record_visits {
            visited.push(p);
        }

        let meta = ws.meta(p);
        let relevance = if meta.is_ok_html() {
            classifier.relevance(ws, p)
        } else {
            0.0
        };
        if ws.is_relevant(p) {
            relevant_crawled += 1;
        }

        let consec = if relevance > 0.5 {
            0
        } else {
            entry.distance.saturating_add(1)
        };

        let outlinks = if meta.is_ok_html() {
            ws.outlinks(p)
        } else {
            &[]
        };
        let view = PageView {
            page: p,
            relevance,
            consec_irrelevant: consec,
            outlinks,
            crawled,
        };
        admissions.clear();
        strategy.admit(&view, &mut admissions);
        for &a in &admissions {
            if config.url_filter && ws.meta(a.page).kind == langcrawl_webgraph::PageKind::Other {
                continue;
            }
            queue.push(a);
        }

        if crawled.is_multiple_of(sample_interval) {
            samples.push(Sample {
                crawled,
                relevant: relevant_crawled,
                queue_size: queue.pending(),
            });
        }
        if crawled >= budget {
            break;
        }
    }

    if samples.last().map(|s| s.crawled) != Some(crawled) {
        samples.push(Sample {
            crawled,
            relevant: relevant_crawled,
            queue_size: queue.pending(),
        });
    }

    CrawlReport {
        strategy: strategy.name(),
        classifier: classifier.name().to_string(),
        samples,
        crawled,
        relevant_crawled,
        total_relevant: ws.total_relevant() as u64,
        max_queue: queue.max_pending(),
        total_pushes: queue.total_pushes(),
        visited,
        // The reference loop predates the fault layer: one attempt per
        // page — exactly what a zero-fault layered run must report.
        attempts: crawled,
        retries: 0,
        gave_up: 0,
        // Zero faults at one slot: the clock advances once per attempt.
        ticks: crawled,
    }
}

fn space() -> WebSpace {
    GeneratorConfig::thai_like().scaled(12_000).build(41)
}

/// Run a fresh instance of strategy `code` through both loops under
/// `config` and demand identical reports.
fn assert_parity(ws: &WebSpace, config: &SimConfig, code: u8) {
    let build = |ws: &WebSpace| -> Box<dyn Strategy> {
        match code {
            0 => Box::new(BreadthFirst::new()),
            1 => Box::new(SimpleStrategy::hard()),
            2 => Box::new(SimpleStrategy::soft()),
            3 => Box::new(LimitedDistanceStrategy::non_prioritized(3)),
            4 => Box::new(LimitedDistanceStrategy::prioritized(3)),
            5 => Box::new(CombinedStrategy::soft_limited(2)),
            6 => Box::new(HitsStrategy::new()),
            7 => Box::new(ContextGraphStrategy::new(ws, 2)),
            8 => Box::new(BacklinkCount::new()),
            _ => Box::new(OnlinePageRank::new()),
        }
    };
    let oracle = OracleClassifier::target(ws.target_language());
    let expected = reference_run(ws, config, build(ws).as_mut(), &oracle);
    let actual = Simulator::new(ws, config.clone()).run(build(ws).as_mut(), &oracle);
    assert_eq!(
        expected, actual,
        "strategy {} diverged from the reference loop",
        expected.strategy
    );
}

#[test]
fn all_strategies_match_reference_loop() {
    let ws = space();
    let config = SimConfig::default();
    for code in 0..10 {
        assert_parity(&ws, &config, code);
    }
}

#[test]
fn parity_holds_with_budget_filter_and_visits() {
    let ws = space();
    let config = SimConfig::default()
        .with_max_pages(3_000)
        .with_url_filter()
        .with_visit_recording();
    for code in 0..10 {
        assert_parity(&ws, &config, code);
    }
}

#[test]
fn parity_holds_with_meta_classifier_and_custom_interval() {
    let ws = space();
    let config = SimConfig {
        sample_interval: Some(97), // deliberately not dividing anything evenly
        ..SimConfig::default()
    };
    let meta = MetaClassifier::target(ws.target_language());
    for code in [1u8, 2, 4, 5] {
        let build = |_: &WebSpace| -> Box<dyn Strategy> {
            match code {
                1 => Box::new(SimpleStrategy::hard()),
                2 => Box::new(SimpleStrategy::soft()),
                4 => Box::new(LimitedDistanceStrategy::prioritized(3)),
                _ => Box::new(CombinedStrategy::soft_limited(2)),
            }
        };
        let expected = reference_run(&ws, &config, build(&ws).as_mut(), &meta);
        let actual = Simulator::new(&ws, config.clone()).run(build(&ws).as_mut(), &meta);
        assert_eq!(
            expected, actual,
            "strategy code {code} with META classifier"
        );
    }
}
