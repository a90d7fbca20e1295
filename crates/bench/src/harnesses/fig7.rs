//! Figure 7 — prioritized limited-distance strategy, Thai dataset,
//! N = 1..4: (a) URL queue size, (b) harvest rate, (c) coverage.
//!
//! Expected shapes (paper §5.2.2): queue size still controlled by N, but
//! — unlike the non-prioritized mode of Fig. 6 — harvest rate and
//! coverage stay essentially flat across N: crawling near-relevant URLs
//! first means the tunnel budget no longer costs precision. This is the
//! configuration the paper's conclusion recommends.

use crate::figures::Checks;
use crate::Experiment;
use langcrawl_core::strategy::LimitedDistanceStrategy;
use langcrawl_webgraph::GeneratorConfig;

/// Run this harness and return its checks' verdicts.
pub fn run() -> Checks {
    let mut checks = Checks::default();
    let mut e = Experiment::new(
        "fig7",
        "Figure 7: Prioritized Limited Distance, Thai dataset",
        GeneratorConfig::thai_like(),
    );
    for n in 1..=4u8 {
        e = e.strategy("prior-limited", move |_| {
            Box::new(LimitedDistanceStrategy::prioritized(n))
        });
    }
    let run = e.run();

    run.three_panels("Fig 7");

    println!("\nShape checks (paper §5.2.2, prioritized):");
    let queues: Vec<usize> = run.reports.iter().map(|r| r.max_queue).collect();
    let covers: Vec<f64> = run.reports.iter().map(|r| r.final_coverage()).collect();
    let early = run.early(6);
    let harvests: Vec<f64> = run.reports.iter().map(|r| r.harvest_at(early)).collect();
    println!(
        "  queue size still bounded by N: {queues:?}  [{}]",
        checks.ok(queues.windows(2).all(|w| w[0] <= w[1]))
    );
    let hspread = harvests.iter().fold(f64::MIN, |a, &b| a.max(b))
        - harvests.iter().fold(f64::MAX, |a, &b| a.min(b));
    println!(
        "  harvest ~invariant in N (spread {:.1} pts): {:?}  [{}]",
        100.0 * hspread,
        harvests
            .iter()
            .map(|h| format!("{h:.3}"))
            .collect::<Vec<_>>(),
        checks.ok(hspread < 0.08)
    );
    let cspread = covers.iter().fold(f64::MIN, |a, &b| a.max(b))
        - covers.iter().fold(f64::MAX, |a, &b| a.min(b));
    println!(
        "  coverage grows modestly then saturates (spread {:.1} pts): {:?}",
        100.0 * cspread,
        covers.iter().map(|c| format!("{c:.3}")).collect::<Vec<_>>()
    );
    checks
}
