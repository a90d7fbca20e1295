//! Figure 3 — simple strategy on the Thai dataset.
//!
//! Reproduces both panels: (a) harvest rate and (b) coverage versus
//! pages crawled, for breadth-first, hard-focused and soft-focused
//! crawling. Page language is judged from the META charset label, as the
//! paper did for Thai (§3.2).
//!
//! Expected shapes (paper §5.2.1): both focused modes sustain roughly
//! 60% harvest over the early crawl versus the breadth-first baseline at
//! the dataset mean; soft-focused reaches 100% coverage by the end of
//! the crawl; hard-focused stops early at ~70% coverage.

use crate::figures::Checks;
use crate::gnuplot::PlotKind;
use crate::Experiment;
use langcrawl_core::sim::SimConfig;
use langcrawl_core::strategy::{BreadthFirst, SimpleStrategy};
use langcrawl_webgraph::GeneratorConfig;

/// Run this harness and return its checks' verdicts.
pub fn run() -> Checks {
    let mut checks = Checks::default();
    let run = Experiment::new(
        "fig3",
        "Figure 3: Simple Strategy, Thai dataset",
        GeneratorConfig::thai_like(),
    )
    .sim_config(SimConfig::default().with_url_filter())
    .strategy("breadth-first", |_| Box::new(BreadthFirst::new()))
    .strategy("hard-focused", |_| Box::new(SimpleStrategy::hard()))
    .strategy("soft-focused", |_| Box::new(SimpleStrategy::soft()))
    .run();

    run.harvest_panel("Fig 3(a) Harvest Rate [%]");
    run.coverage_panel("Fig 3(b) Coverage [%]");
    run.emit(&[
        (PlotKind::Harvest, "Fig 3(a) Harvest Rate, Thai"),
        (PlotKind::Coverage, "Fig 3(b) Coverage, Thai"),
    ]);

    // The paper's headline claims, as checks the harness itself reports:
    let [bf, hard, soft] = &run.reports[..] else {
        unreachable!()
    };
    let early = run.early(7); // "the first part of the crawl"
    println!("\nShape checks (paper §5.2.1):");
    println!(
        "  focused beat breadth-first early:   hard {:.1}% / soft {:.1}% vs bf {:.1}%  [{}]",
        100.0 * hard.harvest_at(early),
        100.0 * soft.harvest_at(early),
        100.0 * bf.harvest_at(early),
        checks.ok(hard.harvest_at(early) > bf.harvest_at(early)
            && soft.harvest_at(early) > bf.harvest_at(early))
    );
    println!(
        "  soft reaches ~100% coverage:        {:.1}%  [{}]",
        100.0 * soft.final_coverage(),
        checks.ok(soft.final_coverage() > 0.99)
    );
    println!(
        "  hard truncates at the ceiling:      {:.1}%  [{}]",
        100.0 * hard.final_coverage(),
        checks.ok(hard.final_coverage() < 0.9 && hard.final_coverage() > 0.4)
    );
    checks
}
