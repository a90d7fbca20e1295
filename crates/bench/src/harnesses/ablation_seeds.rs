//! Ablation C — seed-set size sensitivity.
//!
//! Archiving crawls seed from a handful of national portals; the paper
//! does not report seed sensitivity, but coverage ceilings and early
//! harvest both depend on where the crawl starts. This ablation
//! regenerates the Thai-like space with 1, 2, 4, 8, 16 and 32 seed
//! hosts and re-runs hard- and soft-focused crawls.
//!
//! Expectation: soft-focused coverage is seed-insensitive (everything is
//! reachable); hard-focused coverage and early harvest improve modestly
//! with more seeds (more entry points into the relevant mainland), then
//! saturate.

use crate::figures::Checks;
use crate::{runner, Experiment};
use langcrawl_core::sim::SimConfig;
use langcrawl_core::strategy::SimpleStrategy;
use langcrawl_webgraph::GeneratorConfig;

/// Run this harness and return its checks' verdicts.
pub fn run() -> Checks {
    let mut checks = Checks::default();
    let scale = runner::env_scale(80_000);
    let seed = runner::env_seed();
    println!("== Ablation C: seed-count sweep, Thai dataset (n={scale}, seed={seed}) ==\n");
    println!(
        "{:>7} {:>14} {:>14} {:>15} {:>15}",
        "seeds", "soft coverage", "hard coverage", "soft harvest@⅙", "hard harvest@⅙"
    );

    let e = Experiment::new(
        "ablation_seeds",
        "seed-count sweep",
        GeneratorConfig::thai_like(),
    )
    .sim_config(SimConfig::default().with_url_filter())
    .strategy("soft", |_| Box::new(SimpleStrategy::soft()))
    .strategy("hard", |_| Box::new(SimpleStrategy::hard()));

    let mut soft_covs = Vec::new();
    for seeds in [1u32, 2, 4, 8, 16, 32] {
        let mut cfg = GeneratorConfig::thai_like().scaled(scale);
        cfg.seed_count = seeds;
        let ws = cfg.build_shared(seed);
        let reports = e.run_on(&ws);
        let early = ws.num_pages() as u64 / 6;
        println!(
            "{:>7} {:>13.1}% {:>13.1}% {:>14.1}% {:>14.1}%",
            seeds,
            100.0 * reports[0].final_coverage(),
            100.0 * reports[1].final_coverage(),
            100.0 * reports[0].harvest_at(early),
            100.0 * reports[1].harvest_at(early),
        );
        soft_covs.push(reports[0].final_coverage());
    }

    println!(
        "\nsoft-focused coverage is seed-insensitive (min {:.1}%)  [{}]",
        100.0 * soft_covs.iter().copied().fold(f64::MAX, f64::min),
        checks.ok(soft_covs.iter().all(|&c| c > 0.99))
    );
    checks
}
