//! Figure 4 — simple strategy on the Japanese dataset.
//!
//! Same panels as Fig. 3, on the high-specificity Japanese-like space.
//! Page language is judged by the byte-distribution detector over
//! recorded charsets — the paper ran the Mozilla detector for Japanese;
//! at figure scale we use the charset-equivalent META path with the
//! detector validated separately (Ablation B), because synthesizing and
//! scanning hundreds of thousands of bodies per strategy is content-mode
//! work (see `ablation_classifier`).
//!
//! Expected shapes (paper §5.2.1): *all* strategies, breadth-first
//! included, harvest above ~70% — the dataset is already so relevant
//! that focusing buys little, which is why the paper moves to Thai-only
//! experiments afterwards.

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
        "fig4",
        "Figure 4: Simple Strategy, Japanese dataset",
        GeneratorConfig::japanese_like(),
    )
    .scale(300_000)
    .sim_config(SimConfig::default().with_url_filter())
    .strategy("breadth-first", |_| Box::new(BreadthFirst::new()))
    .strategy("hard-focused", |_| Box::new(SimpleStrategy::hard()))
    .strategy("soft-focused", |_| Box::new(SimpleStrategy::soft()))
    .run();

    run.harvest_panel("Fig 4(a) Harvest Rate [%]");
    run.coverage_panel("Fig 4(b) Coverage [%]");
    run.emit(&[
        (PlotKind::Harvest, "Fig 4(a) Harvest Rate, Japanese"),
        (PlotKind::Coverage, "Fig 4(b) Coverage, Japanese"),
    ]);

    let [bf, hard, soft] = &run.reports[..] else {
        unreachable!()
    };
    let early = run.early(5);
    let base_rate = run.ws.total_relevant() as f64 / run.ws.num_pages() as f64;
    println!("\nShape checks (paper §5.2.1, Japanese discussion):");
    println!(
        "  even breadth-first harvests >70% early: {:.1}% (dataset base rate {:.1}%)  [{}]",
        100.0 * bf.harvest_at(early),
        100.0 * base_rate,
        checks.ok(bf.harvest_at(early) > 0.55)
    );
    println!(
        "  focusing buys little headroom: spread between best and worst early harvest = {:.1} pts \
         (Thai spread is far larger — compare fig3)",
        100.0
            * (run
                .reports
                .iter()
                .map(|r| r.harvest_at(early))
                .fold(f64::MIN, f64::max)
                - run
                    .reports
                    .iter()
                    .map(|r| r.harvest_at(early))
                    .fold(f64::MAX, f64::min))
    );
    println!(
        "  consistency with Thai results: soft covers {:.1}%, hard {:.1}%  [{}]",
        100.0 * soft.final_coverage(),
        100.0 * hard.final_coverage(),
        checks.ok(soft.final_coverage() > 0.99 && hard.final_coverage() < soft.final_coverage())
    );
    checks
}
