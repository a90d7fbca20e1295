//! Ablation E — importance-ordered crawling (Cho et al., the paper's
//! reference \[3\]) vs language-focused crawling.
//!
//! §2 of the paper motivates focused crawling against general-purpose
//! strategies; reference \[3\] is the strongest of those: order the
//! frontier by backlink count or online PageRank. Both chase popularity,
//! not language, so on an archiving mission they should sit between
//! breadth-first and the focused strategies — popular pages are
//! disproportionately on large (often relevant) hosts, but nothing stops
//! the crawl from pouring effort into popular *foreign* hubs.

use crate::figures::Checks;
use crate::{write_csv, Experiment};
use langcrawl_core::sim::SimConfig;
use langcrawl_core::strategy::{BacklinkCount, BreadthFirst, OnlinePageRank, SimpleStrategy};
use langcrawl_webgraph::GeneratorConfig;

/// Run this harness and return its checks' verdicts.
pub fn run() -> Checks {
    let mut checks = Checks::default();
    let run = Experiment::new(
        "ordering",
        "Ablation E: URL-ordering baselines vs focused crawling, Thai",
        GeneratorConfig::thai_like(),
    )
    .scale(80_000)
    .sim_config(SimConfig::default().with_url_filter())
    .strategy("breadth-first", |_| Box::new(BreadthFirst::new()))
    .strategy("backlink-ordered", |_| Box::new(BacklinkCount::new()))
    .strategy("pagerank-ordered", |_| Box::new(OnlinePageRank::new()))
    .strategy("soft-focused", |_| Box::new(SimpleStrategy::soft()))
    .run();

    let early = run.early(6);
    println!(
        "{:<26} {:>12} {:>10} {:>10} {:>12}",
        "strategy", "harvest@1/6", "harvest", "coverage", "max queue"
    );
    for r in &run.reports {
        println!(
            "{:<26} {:>11.1}% {:>9.1}% {:>9.1}% {:>12}",
            r.strategy,
            100.0 * r.harvest_at(early),
            100.0 * r.final_harvest(),
            100.0 * r.final_coverage(),
            r.max_queue
        );
        write_csv(
            r,
            &format!("ordering_{}", r.strategy.replace([' ', '(', ')'], "_")),
        );
    }

    let bf = run.reports[0].harvest_at(early);
    let soft = run.reports[3].harvest_at(early);
    let best_ordered = run.reports[1]
        .harvest_at(early)
        .max(run.reports[2].harvest_at(early));
    println!("\nShape checks (paper §2's motivation, quantified):");
    println!(
        "  language focus beats importance ordering: soft {:.1}% vs best-ordered {:.1}%  [{}]",
        100.0 * soft,
        100.0 * best_ordered,
        checks.ok(soft > best_ordered)
    );
    println!(
        "  importance ordering is not *worse* than blind BFS for archiving: \
         best-ordered {:.1}% vs bf {:.1}%",
        100.0 * best_ordered,
        100.0 * bf
    );
    println!(
        "  all language-blind strategies still cover everything eventually: {:?}  [{}]",
        run.reports[..3]
            .iter()
            .map(|r| format!("{:.2}", r.final_coverage()))
            .collect::<Vec<_>>(),
        checks.ok(run.reports[..3].iter().all(|r| r.final_coverage() > 0.99))
    );
    checks
}
