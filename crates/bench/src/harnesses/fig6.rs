//! Figure 6 — non-prioritized limited-distance strategy, Thai dataset,
//! N = 1..4: (a) URL queue size, (b) harvest rate, (c) coverage.
//!
//! Expected shapes (paper §5.2.2): queue size grows with N; coverage
//! grows with N toward soft-focused's 100%; harvest rate *falls* as N
//! grows — the flaw the prioritized mode (Fig. 7) fixes.

use crate::figures::Checks;
use crate::Experiment;
use langcrawl_core::strategy::LimitedDistanceStrategy;
use langcrawl_webgraph::GeneratorConfig;

/// Run this harness and return its checks' verdicts.
pub fn run() -> Checks {
    let mut checks = Checks::default();
    let mut e = Experiment::new(
        "fig6",
        "Figure 6: Non-Prioritized Limited Distance, Thai dataset",
        GeneratorConfig::thai_like(),
    );
    for n in 1..=4u8 {
        e = e.strategy("limited", move |_| {
            Box::new(LimitedDistanceStrategy::non_prioritized(n))
        });
    }
    let run = e.run();

    run.three_panels("Fig 6");

    println!("\nShape checks (paper §5.2.2, non-prioritized):");
    let queues: Vec<usize> = run.reports.iter().map(|r| r.max_queue).collect();
    let covers: Vec<f64> = run.reports.iter().map(|r| r.final_coverage()).collect();
    let early = run.early(6);
    let harvests: Vec<f64> = run.reports.iter().map(|r| r.harvest_at(early)).collect();
    println!(
        "  queue size grows with N:    {queues:?}  [{}]",
        checks.ok(queues.windows(2).all(|w| w[0] < w[1]))
    );
    println!(
        "  coverage grows with N:      {:?}  [{}]",
        covers.iter().map(|c| format!("{c:.3}")).collect::<Vec<_>>(),
        checks.ok(covers.windows(2).all(|w| w[0] <= w[1] + 1e-9))
    );
    println!(
        "  early harvest FALLS with N: {:?}  [{}]",
        harvests
            .iter()
            .map(|h| format!("{h:.3}"))
            .collect::<Vec<_>>(),
        checks.ok(harvests.first() > harvests.last())
    );
    checks
}
