//! Ablation A — is *language locality* really what makes focused
//! crawling work?
//!
//! The paper's §3 argues focused crawling transfers to language-specific
//! crawling **because** the Web exhibits language locality. This ablation
//! sweeps the generator's locality knob (probability that an inter-host
//! link stays within its language) and measures the focused crawler's
//! early-harvest advantage over breadth-first. Expectation: the advantage
//! shrinks toward zero as locality decays toward the unbiased level.

use crate::figures::Checks;
use crate::{runner, Experiment};
use langcrawl_core::sim::SimConfig;
use langcrawl_core::strategy::{BreadthFirst, SimpleStrategy};
use langcrawl_webgraph::GeneratorConfig;

/// Run this harness and return its checks' verdicts.
pub fn run() -> Checks {
    let mut checks = Checks::default();
    let scale = runner::env_scale(80_000);
    let seed = runner::env_seed();
    println!("== Ablation A: locality sweep, Thai dataset (n={scale}, seed={seed}) ==\n");
    println!(
        "{:>9} {:>14} {:>14} {:>14} {:>12}",
        "locality", "bf harvest", "soft harvest", "hard harvest", "advantage"
    );

    let e = Experiment::new(
        "ablation_locality",
        "locality sweep",
        GeneratorConfig::thai_like(),
    )
    .oracle_classifier()
    .sim_config(SimConfig::default().with_url_filter())
    .strategy("bf", |_| Box::new(BreadthFirst::new()))
    .strategy("soft", |_| Box::new(SimpleStrategy::soft()))
    .strategy("hard", |_| Box::new(SimpleStrategy::hard()));

    let mut advantages = Vec::new();
    for locality in [0.40f64, 0.55, 0.70, 0.82, 0.92, 0.98] {
        let ws = GeneratorConfig::thai_like()
            .scaled(scale)
            .with_locality(locality)
            .build_shared(seed);
        let reports = e.run_on(&ws);
        let early = ws.num_pages() as u64 / 6;
        let bf = reports[0].harvest_at(early);
        let soft = reports[1].harvest_at(early);
        let hard = reports[2].harvest_at(early);
        let adv = soft.max(hard) - bf;
        advantages.push(adv);
        println!(
            "{:>9.2} {:>13.1}% {:>13.1}% {:>13.1}% {:>11.1}pt",
            locality,
            100.0 * bf,
            100.0 * soft,
            100.0 * hard,
            100.0 * adv
        );
    }

    let rising = advantages.first().unwrap() < advantages.last().unwrap();
    println!(
        "\nfocused advantage grows with language locality  [{}]",
        checks.ok(rising)
    );
    println!(
        "(the paper's premise: no locality, no point focusing — observed \
         advantage ranges {:.1}pt → {:.1}pt)",
        100.0 * advantages.first().unwrap(),
        100.0 * advantages.last().unwrap()
    );
    checks
}
