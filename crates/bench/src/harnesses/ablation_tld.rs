//! Ablation F — national-domain scoping vs language-specific crawling.
//!
//! Before language-specific crawling, national web archives scoped their
//! crawls by ccTLD (everything under `.th`, nothing else). The paper's
//! implicit claim is that *language*, not *domain*, is the right
//! archiving criterion. This harness puts the two policies on the same
//! Thai-like space:
//!
//! * the TLD crawl needs no classifier and wastes nothing on foreign
//!   hosts — its harvest should be the highest of all;
//! * but it can neither reach Thai content hosted abroad (the `leak`
//!   pages) nor pass through foreign gateway chains (the islands), so
//!   its *coverage ceiling is structural* and no parameter can raise it;
//! * language-focused crawling with tunneling (the paper's conclusion)
//!   beats that ceiling at a modest harvest cost.

use crate::figures::Checks;
use crate::{write_csv, Experiment};
use langcrawl_core::sim::SimConfig;
use langcrawl_core::strategy::{LimitedDistanceStrategy, SimpleStrategy, TldScopeStrategy};
use langcrawl_webgraph::GeneratorConfig;

/// Run this harness and return its checks' verdicts.
pub fn run() -> Checks {
    let mut checks = Checks::default();
    let run = Experiment::new(
        "tld",
        "Ablation F: ccTLD scoping vs language focus, Thai dataset",
        GeneratorConfig::thai_like(),
    )
    .scale(80_000)
    .sim_config(SimConfig::default().with_url_filter())
    .strategy("tld-scope", |ws| {
        Box::new(TldScopeStrategy::new(ws, &["th"]))
    })
    .strategy("hard-focused", |_| Box::new(SimpleStrategy::hard()))
    .strategy("prior-limited-4", |_| {
        Box::new(LimitedDistanceStrategy::prioritized(4))
    })
    .strategy("soft-focused", |_| Box::new(SimpleStrategy::soft()))
    .run();

    println!(
        "{:<26} {:>10} {:>10} {:>10} {:>12}",
        "strategy", "crawled", "harvest", "coverage", "max queue"
    );
    for r in &run.reports {
        println!(
            "{:<26} {:>10} {:>9.1}% {:>9.1}% {:>12}",
            r.strategy,
            r.crawled,
            100.0 * r.final_harvest(),
            100.0 * r.final_coverage(),
            r.max_queue
        );
        write_csv(
            r,
            &format!("tld_{}", r.strategy.replace([' ', '=', '.'], "_")),
        );
    }

    let tld = &run.reports[0];
    let hard = &run.reports[1];
    let limited = &run.reports[2];
    println!("\nShape checks (national-archive policy comparison):");
    println!(
        "  TLD scoping yields the best harvest (no foreign fetches at all): \
         {:.1}% vs hard {:.1}%  [{}]",
        100.0 * tld.final_harvest(),
        100.0 * hard.final_harvest(),
        checks.ok(tld.final_harvest() >= hard.final_harvest())
    );
    println!(
        "  …but its coverage ceiling is structural: {:.1}% (misses expatriate \
         pages and island content behind foreign gateways)",
        100.0 * tld.final_coverage()
    );
    println!(
        "  language focus with tunneling beats the TLD ceiling: {:.1}% vs {:.1}%  [{}]",
        100.0 * limited.final_coverage(),
        100.0 * tld.final_coverage(),
        checks.ok(limited.final_coverage() > tld.final_coverage())
    );
    println!(
        "\n=> the paper's premise quantified: a national *language* archive \
         cannot be built by domain scoping alone — the borderless part of the \
         national web is exactly what it misses."
    );
    checks
}
