//! Extension 2 — the related-work strategies the paper describes but
//! does not evaluate: the HITS distiller (§2.1) and the context-graph
//! crawler (§2.2), side by side with the paper's own strategies.
//!
//! The context-graph crawler here is *idealized* (perfect layer
//! classifier computed from the LinkDB), so it upper-bounds what
//! Diligenti et al.'s approach could achieve on this space; the
//! limited-distance strategy competing within a few points of it — with
//! no reverse-link requirement — is the paper's §2.2 argument made
//! quantitative.

use crate::figures::Checks;
use crate::{write_csv, Experiment};
use langcrawl_core::sim::SimConfig;
use langcrawl_core::strategy::{
    ContextGraphStrategy, HitsStrategy, LimitedDistanceStrategy, SimpleStrategy,
};
use langcrawl_webgraph::GeneratorConfig;

/// Run this harness and return its checks' verdicts.
pub fn run() -> Checks {
    let mut checks = Checks::default();
    let run = Experiment::new(
        "ext",
        "Extensions: HITS distiller & context-graph vs paper strategies, Thai",
        GeneratorConfig::thai_like(),
    )
    .scale(80_000)
    .sim_config(SimConfig::default().with_url_filter())
    .strategy("soft", |_| Box::new(SimpleStrategy::soft()))
    .strategy("prior-limited-3", |_| {
        Box::new(LimitedDistanceStrategy::prioritized(3))
    })
    .strategy("soft+hits", |_| {
        Box::new(HitsStrategy::with_params(2_000, 20, 5))
    })
    .strategy("context-graph", |ws| {
        Box::new(ContextGraphStrategy::new(ws, 4))
    })
    .strategy("context-graph-noisy", |ws| {
        Box::new(ContextGraphStrategy::new(ws, 4).with_noise(150))
    })
    .run();

    let early = run.early(6);
    println!(
        "{:<34} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "strategy", "crawled", "harvest@⅙", "harvest", "coverage", "max queue"
    );
    for r in &run.reports {
        println!(
            "{:<34} {:>10} {:>11.1}% {:>11.1}% {:>11.1}% {:>12}",
            r.strategy,
            r.crawled,
            100.0 * r.harvest_at(early),
            100.0 * r.final_harvest(),
            100.0 * r.final_coverage(),
            r.max_queue
        );
        write_csv(
            r,
            &format!("ext_{}", r.strategy.replace([' ', '=', '.'], "_")),
        );
    }

    let soft = &run.reports[0];
    let limited = &run.reports[1];
    let cg = &run.reports[3];
    println!("\nObservations:");
    println!(
        "  prioritized limited-distance holds its own against the idealized \
         context-graph crawler: coverage {:.1}% vs {:.1}%, early harvest {:.1}% vs {:.1}%  [{}]",
        100.0 * limited.final_coverage(),
        100.0 * cg.final_coverage(),
        100.0 * limited.harvest_at(early),
        100.0 * cg.harvest_at(early),
        checks.ok(limited.final_coverage() + 0.15 > cg.final_coverage())
    );
    println!(
        "  limited-distance needs {:.0}% of soft's queue memory ({} vs {})",
        100.0 * limited.max_queue as f64 / soft.max_queue as f64,
        limited.max_queue,
        soft.max_queue
    );
    checks
}
