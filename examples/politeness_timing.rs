//! The timing extension: what politeness actually costs an archive crawl.
//!
//! Runs timed crawls (per-server access intervals + transfer delays —
//! the paper's §6 future work — as the scheduler's timing model) and
//! answers the operational question a crawl engineer asks: "how long
//! will the crawl take, and how many connections are worth renting?"
//!
//! ```sh
//! cargo run --release --example politeness_timing
//! ```

use langcrawl::prelude::*;

fn main() {
    let space = GeneratorConfig::thai_like().scaled(20_000).build(11);
    let classifier = MetaClassifier::target(Language::Thai);
    println!(
        "space: {} URLs on {} hosts; strategy: prioritized limited-distance N=2\n",
        space.num_pages(),
        space.num_hosts()
    );

    let timing = Timing::default();
    println!(
        "{:>12} {:>12} {:>14} {:>10} {:>12}",
        "connections", "delay [ms]", "wall clock", "pages/s", "utilization"
    );
    for connections in [8u32, 32, 128] {
        for delay in [500u64, 2_000] {
            // One tick is 1 ms; `delay` separates fetch starts on a host.
            let sched = SchedConfig {
                slots: connections,
                politeness_gap: delay,
                timing: Some(timing),
                ..SchedConfig::default()
            };
            let mut sim = Simulator::new(
                &space,
                SimConfig {
                    sched,
                    ..SimConfig::default().with_visit_recording()
                },
            );
            let r = sim.run(&mut LimitedDistanceStrategy::prioritized(2), &classifier);
            // Each visit held one connection for its transfer time.
            let busy: u64 = r
                .visited
                .iter()
                .map(|&p| timing.fetch_ticks(space.meta(p).size))
                .sum();
            println!(
                "{:>12} {:>12} {:>13.0}s {:>10.1} {:>11.1}%",
                connections,
                delay,
                r.ticks as f64 / 1000.0,
                r.crawled as f64 * 1000.0 / r.ticks as f64,
                100.0 * busy as f64 / (r.ticks as f64 * f64::from(connections))
            );
        }
    }

    println!(
        "\nthe crawl is politeness-bound, not bandwidth-bound: beyond a few dozen\n\
         connections, extra parallelism only idles (utilization collapses) because\n\
         each host still serves at most one request per delay interval — the\n\
         phenomenon the paper's untimed simulator could not express (§4, §6)."
    );
}
