//! Figure 5 — URL-queue size of the simple strategy on the Thai dataset.
//!
//! The paper's motivation for the limited-distance strategy: soft-focused
//! crawling keeps every discovered URL queued, peaking at ~8 M of 14 M
//! URLs (~57%), while hard-focused stays near 1 M (~7%) — soft "would end
//! up with the exhaustion of physical space for the URL queue" at real
//! web scale. Expected shape here: soft's pending-URL curve several-fold
//! above hard's, with hard's crawl ending early.

use crate::figures::Checks;
use crate::gnuplot::PlotKind;
use crate::Experiment;
use langcrawl_core::strategy::SimpleStrategy;
use langcrawl_webgraph::GeneratorConfig;

/// Run this harness and return its checks' verdicts.
pub fn run() -> Checks {
    let mut checks = Checks::default();
    let run = Experiment::new(
        "fig5",
        "Figure 5: URL queue size, Simple Strategy, Thai dataset",
        GeneratorConfig::thai_like(),
    )
    .strategy("soft-focused", |_| Box::new(SimpleStrategy::soft()))
    .strategy("hard-focused", |_| Box::new(SimpleStrategy::hard()))
    .run();

    run.queue_panel("Fig 5 URL queue size [URLs]");
    run.emit(&[(PlotKind::QueueSize, "Fig 5 URL Queue Size, Thai")]);

    let [soft, hard] = &run.reports[..] else {
        unreachable!()
    };
    let n = run.ws.num_pages() as f64;
    println!("\nShape checks (paper §5.2.1, Fig. 5):");
    println!(
        "  soft peak: {} URLs = {:.1}% of space (paper: ~57%)",
        soft.max_queue,
        100.0 * soft.max_queue as f64 / n
    );
    println!(
        "  hard peak: {} URLs = {:.1}% of space (paper: ~7%)",
        hard.max_queue,
        100.0 * hard.max_queue as f64 / n
    );
    println!(
        "  soft dwarfs hard by {:.1}x (paper: ~8x)  [{}]",
        soft.max_queue as f64 / hard.max_queue as f64,
        checks.ok(soft.max_queue > 3 * hard.max_queue)
    );

    // The paper's §5.2.1 warning, quantified: "Scaling up this to the
    // case of the real Web, we would end up with the exhaustion of
    // physical space for the URL queue." A frontier entry costs roughly
    // one URL string (~64 bytes) plus index overhead (~48 bytes).
    const BYTES_PER_ENTRY: f64 = 112.0;
    let soft_frac = soft.max_queue as f64 / n;
    let hard_frac = hard.max_queue as f64 / n;
    for (label, urls) in [
        ("the paper's Thai log", 14.0e6),
        ("a full national web", 1.0e9),
    ] {
        println!(
            "  projected peak frontier at {label} ({:.0}M URLs): soft ≈ {:.1} GB, hard ≈ {:.1} GB",
            urls / 1.0e6,
            soft_frac * urls * BYTES_PER_ENTRY / 1.0e9,
            hard_frac * urls * BYTES_PER_ENTRY / 1.0e9
        );
    }
    println!(
        "  (2004-era crawl machines had 2–8 GB of RAM: the soft-focused queue \
         does not fit, the hard/limited queues do — the paper's motivation for §3.3.2)"
    );
    checks
}
