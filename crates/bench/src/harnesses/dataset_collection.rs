//! Dataset-collection experiment — why the paper's Japanese dataset was
//! 71% relevant.
//!
//! §5.1 notes the Japanese log was itself acquired with "a combination
//! of hard focused with limited distance strategies", and §5.2.1
//! concludes the dataset "is already kept sufficiently relevant" — its
//! high specificity is an artifact of how it was *collected*, which is
//! exactly why the paper's later experiments use the Thai dataset.
//!
//! This harness makes that argument quantitative. It builds a "world"
//! web space whose true relevance ratio is low (a Thai-like 35%), then
//! collects datasets from it with the paper's two collection crawls
//! (hard+limited for Japanese, soft+limited for Thai) and with plain
//! breadth-first, and measures the **relevance ratio of each collected
//! snapshot**. Expected: the hard+limited snapshot is far more relevant
//! than the world (the Japanese situation); the soft+limited snapshot
//! stays close to the world's ratio (the Thai situation).

use crate::figures::Checks;
use crate::Experiment;
use langcrawl_core::metrics::CrawlReport;
use langcrawl_core::sim::SimConfig;
use langcrawl_core::strategy::{BreadthFirst, CombinedStrategy};
use langcrawl_webgraph::{GeneratorConfig, WebSpace};

/// Run this harness and return its checks' verdicts.
pub fn run() -> Checks {
    let mut checks = Checks::default();
    // The "real web" around the target language: low specificity. Visit
    // recording is on so each snapshot can be re-judged page by page.
    let run = Experiment::new(
        "collect",
        "Dataset collection: how the crawl strategy shapes the dataset",
        GeneratorConfig::thai_like(),
    )
    .scale(120_000)
    .sim_config(
        SimConfig::default()
            .with_url_filter()
            .with_visit_recording(),
    )
    .strategy("bf", |_| Box::new(BreadthFirst::new()))
    .strategy("hard+limited-0", |_| {
        Box::new(CombinedStrategy::hard_limited(0))
    })
    .strategy("hard+limited-1", |_| {
        Box::new(CombinedStrategy::hard_limited(1))
    })
    .strategy("hard+limited-2", |_| {
        Box::new(CombinedStrategy::hard_limited(2))
    })
    .strategy("soft+limited-4", |_| {
        Box::new(CombinedStrategy::soft_limited(4))
    })
    .run();

    let world = &run.ws;
    let world_ratio = world.total_relevant() as f64 / world.total_ok_html() as f64;
    println!(
        "world: {} URLs, {} OK HTML pages, true relevance ratio {:.1}%\n",
        world.num_pages(),
        world.total_ok_html(),
        100.0 * world_ratio
    );

    let snapshot_ratio = |r: &CrawlReport, world: &WebSpace| -> f64 {
        let mut html = 0u64;
        let mut relevant = 0u64;
        for &p in &r.visited {
            if world.meta(p).is_ok_html() {
                html += 1;
                if world.is_relevant(p) {
                    relevant += 1;
                }
            }
        }
        relevant as f64 / html.max(1) as f64
    };

    println!(
        "{:<24} {:>10} {:>12} {:>18}",
        "collection crawl", "crawled", "HTML pages", "snapshot relevance"
    );
    let mut ratios = Vec::new();
    for r in &run.reports {
        let html = r
            .visited
            .iter()
            .filter(|&&p| world.meta(p).is_ok_html())
            .count();
        let ratio = snapshot_ratio(r, world);
        println!(
            "{:<24} {:>10} {:>12} {:>17.1}%",
            r.strategy,
            r.crawled,
            html,
            100.0 * ratio
        );
        ratios.push(ratio);
    }
    let [bf_ratio, hard0_ratio, hard_ratio, hard2_ratio, soft_ratio] = ratios[..] else {
        unreachable!()
    };

    println!("\nShape checks (paper §5.1 / §5.2.1):");
    println!(
        "  breadth-first snapshot mirrors the world: {:.1}% vs {:.1}%  [{}]",
        100.0 * bf_ratio,
        100.0 * world_ratio,
        checks.ok((bf_ratio - world_ratio).abs() < 0.03)
    );
    println!(
        "  the tighter the collection crawl, the more specific the dataset: \
         {:.1}% (N=0) > {:.1}% (N=1) > {:.1}% (N=2)  [{}]",
        100.0 * hard0_ratio,
        100.0 * hard_ratio,
        100.0 * hard2_ratio,
        checks.ok(hard0_ratio > hard_ratio && hard_ratio > hard2_ratio)
    );
    println!(
        "  a strict collection crawl manufactures the 'Japanese dataset' situation: \
         {:.1}% snapshot relevance from a {:.1}% world (paper: 71%)  [{}]",
        100.0 * hard0_ratio,
        100.0 * world_ratio,
        checks.ok(hard0_ratio > 0.60)
    );
    println!(
        "  a tunneling collection crawl keeps the 'Thai dataset' situation: \
         {:.1}% ≈ world  [{}]",
        100.0 * soft_ratio,
        checks.ok((soft_ratio - world_ratio).abs() < 0.06)
    );
    println!(
        "\n=> 'datasets with high degree of language specificity are not suitable for \
         evaluating language specific web crawling strategies' (§5.1) — and the \
         collection crawl is what sets that specificity."
    );
    checks
}
