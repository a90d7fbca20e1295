//! Extension 1 — the paper's future work: transfer delays and
//! per-server access intervals.
//!
//! §6 plans to "enhance our crawling simulator by incorporating transfer
//! delays and access intervals". This harness runs timed crawls — the
//! K-slot scheduler with its timing model on ([`SchedConfig::timing`]:
//! one tick is 1 ms, a fetch lasts its round trip plus transfer, and a
//! server's fetches start at least the politeness delay apart) — over
//! the Thai space and measures:
//!
//! * wall-clock vs politeness-interval trade-off (per-server delay sweep),
//! * connection-count scaling,
//! * harvest-vs-wall-clock for the paper's strategies (the focused
//!   advantage survives the timing model).

use crate::figures::Checks;
use crate::runner;
use langcrawl_core::classifier::MetaClassifier;
use langcrawl_core::engine::{CrawlEngine, EngineConfig, EngineScratch};
use langcrawl_core::event::{interest, CrawlEvent, EventSink};
use langcrawl_core::sched::{SchedConfig, Timing};
use langcrawl_core::strategy::{BreadthFirst, SimpleStrategy, Strategy};
use langcrawl_webgraph::{GeneratorConfig, PageId};

/// `connections` concurrent fetches, `delay_ms` between fetch starts on
/// one server, the default timing model (80 ms round trip, 1,250
/// bytes/ms per connection, 256 URLs of read-ahead).
fn timed(connections: u32, delay_ms: u64) -> SchedConfig {
    SchedConfig {
        slots: connections,
        politeness_gap: delay_ms,
        timing: Some(Timing::default()),
        ..SchedConfig::default()
    }
}

/// What the harness reads off one timed crawl.
struct TimedRun {
    /// Simulated duration, ms.
    wall_clock_ms: u64,
    /// Pages crawled.
    crawled: u64,
    /// `(time ms, crawled, relevant)` at every sample, ending with the
    /// final state.
    series: Vec<(u64, u64, u64)>,
    /// Mean fraction of connections busy.
    utilization: f64,
}

impl TimedRun {
    /// Mean fetch throughput, pages per simulated second.
    fn pages_per_second(&self) -> f64 {
        if self.wall_clock_ms == 0 {
            0.0
        } else {
            self.crawled as f64 * 1_000.0 / self.wall_clock_ms as f64
        }
    }

    /// Harvest rate at the last sample taken by `t` ms (0 before any).
    fn harvest_at(&self, t: u64) -> f64 {
        self.series
            .iter()
            .take_while(|&&(time, _, _)| time <= t)
            .last()
            .map_or(0.0, |&(_, crawled, relevant)| {
                relevant as f64 / crawled.max(1) as f64
            })
    }
}

/// Records the samples against time and the visit order.
#[derive(Default)]
struct Recorder {
    series: Vec<(u64, u64, u64)>,
    visited: Vec<PageId>,
}

impl EventSink for Recorder {
    fn on_event(&mut self, event: &CrawlEvent) {
        match *event {
            CrawlEvent::Sampled {
                tick,
                crawled,
                relevant,
                ..
            } => self.series.push((tick, crawled, relevant)),
            CrawlEvent::Fetched { page, .. } => self.visited.push(page),
            _ => {}
        }
    }

    fn interests(&self) -> u16 {
        interest::SAMPLED | interest::FETCHED
    }
}

/// One timed crawl of `sched` by `strategy`.
fn crawl<S: Strategy>(
    engine: &CrawlEngine,
    sched: &SchedConfig,
    strategy: &mut S,
    classifier: &MetaClassifier,
) -> TimedRun {
    let mut rec = Recorder::default();
    let (outcome, _) = engine.run_scheduled(
        sched,
        strategy,
        classifier,
        &mut [&mut rec],
        &mut EngineScratch::new(),
    );
    if rec.series.last().map(|s| s.1) != Some(outcome.crawled) {
        rec.series
            .push((outcome.ticks, outcome.crawled, outcome.relevant_crawled));
    }
    // Every visit is one fetch here (the engine runs without faults),
    // each busy for its transfer time.
    let timing = sched.timing.unwrap_or_default();
    let ws = engine.web_space();
    let busy: u64 = rec
        .visited
        .iter()
        .map(|&p| timing.fetch_ticks(ws.meta(p).size))
        .sum();
    let capacity = outcome.ticks as f64 * f64::from(sched.effective_slots());
    TimedRun {
        wall_clock_ms: outcome.ticks,
        crawled: outcome.crawled,
        series: rec.series,
        utilization: if capacity == 0.0 {
            0.0
        } else {
            busy as f64 / capacity
        },
    }
}

/// Run this harness and return its checks' verdicts.
pub fn run() -> Checks {
    let mut checks = Checks::default();
    let scale = runner::env_scale(40_000);
    let seed = runner::env_seed();
    println!("== Extension: timing model (politeness + transfer delays), Thai (n={scale}, seed={seed}) ==\n");
    let ws = GeneratorConfig::thai_like()
        .scaled(scale)
        .build_shared(seed);
    let classifier = MetaClassifier::target(ws.target_language());
    let engine = CrawlEngine::new(&ws, EngineConfig::default());

    println!("Politeness sweep (32 connections, breadth-first):");
    println!(
        "{:>12} {:>14} {:>12} {:>12}",
        "delay [ms]", "wall clock [s]", "pages/s", "utilization"
    );
    let mut clocks = Vec::new();
    for delay in [0u64, 250, 1_000, 4_000, 15_000] {
        let r = crawl(
            &engine,
            &timed(32, delay),
            &mut BreadthFirst::new(),
            &classifier,
        );
        println!(
            "{:>12} {:>14.1} {:>12.1} {:>11.1}%",
            delay,
            r.wall_clock_ms as f64 / 1_000.0,
            r.pages_per_second(),
            100.0 * r.utilization
        );
        clocks.push(r.wall_clock_ms);
    }
    println!(
        "  politeness slows the crawl monotonically  [{}]",
        checks.ok(clocks.windows(2).all(|w| w[0] <= w[1]))
    );

    println!("\nConnection scaling, bandwidth-bound regime (no politeness):");
    println!(
        "{:>13} {:>14} {:>12}",
        "connections", "wall clock [s]", "pages/s"
    );
    let mut speed = Vec::new();
    for conns in [1u32, 4, 16, 64] {
        let r = crawl(
            &engine,
            &timed(conns, 0),
            &mut BreadthFirst::new(),
            &classifier,
        );
        println!(
            "{:>13} {:>14.1} {:>12.1}",
            conns,
            r.wall_clock_ms as f64 / 1000.0,
            r.pages_per_second()
        );
        speed.push(r.pages_per_second());
    }
    // Host-level serialization (one in-flight fetch per host) caps the
    // useful parallelism at the number of distinct frontier hosts, which
    // shrinks with the space; the claim under test is only that many
    // connections are meaningfully faster than one.
    println!(
        "  throughput scales with connections when bandwidth-bound ({:.1}x from 1 to 64)  [{}]",
        speed.last().unwrap() / speed.first().unwrap(),
        checks.ok(*speed.last().unwrap() > 1.3 * speed.first().unwrap())
    );

    println!("\nConnection scaling, politeness-bound regime (1 s/host):");
    println!(
        "{:>13} {:>14} {:>12}",
        "connections", "wall clock [s]", "pages/s"
    );
    let mut polite_speed = Vec::new();
    for conns in [1u32, 16, 256] {
        let r = crawl(
            &engine,
            &timed(conns, 1_000),
            &mut BreadthFirst::new(),
            &classifier,
        );
        println!(
            "{:>13} {:>14.1} {:>12.1}",
            conns,
            r.wall_clock_ms as f64 / 1000.0,
            r.pages_per_second()
        );
        polite_speed.push(r.pages_per_second());
    }
    println!(
        "  extra connections buy nothing once politeness-bound (spread {:.1}%)  [{}]",
        100.0
            * (polite_speed.iter().copied().fold(f64::MIN, f64::max)
                / polite_speed.iter().copied().fold(f64::MAX, f64::min)
                - 1.0),
        checks.ok(polite_speed.iter().copied().fold(f64::MIN, f64::max)
            < polite_speed.iter().copied().fold(f64::MAX, f64::min) * 1.25)
    );

    println!("\nHarvest vs wall clock (32 connections, 1 s politeness):");
    let polite = timed(32, 1_000);
    let soft = crawl(&engine, &polite, &mut SimpleStrategy::soft(), &classifier);
    let bf = crawl(&engine, &polite, &mut BreadthFirst::new(), &classifier);
    let no_delay = timed(32, 0);
    let soft_nd = crawl(&engine, &no_delay, &mut SimpleStrategy::soft(), &classifier);
    let bf_nd = crawl(&engine, &no_delay, &mut BreadthFirst::new(), &classifier);
    println!(
        "{:>14} {:>16} {:>16}",
        "time [s]", "soft harvest", "bf harvest"
    );
    let horizon = soft.wall_clock_ms.min(bf.wall_clock_ms);
    for i in 1..=8u64 {
        let t = horizon * i / 8;
        println!(
            "{:>14.1} {:>15.1}% {:>15.1}%",
            t as f64 / 1000.0,
            100.0 * soft.harvest_at(t),
            100.0 * bf.harvest_at(t)
        );
    }
    let horizon_nd = soft_nd.wall_clock_ms.min(bf_nd.wall_clock_ms);
    let adv_nd = soft_nd.harvest_at(horizon_nd / 8) - bf_nd.harvest_at(horizon_nd / 8);
    let adv_polite = soft.harvest_at(horizon / 8) - bf.harvest_at(horizon / 8);
    println!("\nTiming-model findings (the effects the paper's §6 wanted to study):");
    println!(
        "  focused advantage at 1/8 of the crawl, no politeness:      {:+.1} pts",
        100.0 * adv_nd
    );
    println!(
        "  focused advantage at 1/8 of the crawl, 1 s/host politeness: {:+.1} pts  [{}]",
        100.0 * adv_polite,
        checks.ok(adv_polite > 0.0)
    );
    println!(
        "  the focused advantage survives per-server politeness because the back \
         queues let connections wait on hot relevant hosts instead of wandering \
         off-region; the price is paid in wall clock and idle connections:"
    );
    println!(
        "    soft: {:.0} s wall clock, {:.1}% utilization | bf: {:.0} s, {:.1}%",
        soft.wall_clock_ms as f64 / 1000.0,
        100.0 * soft.utilization,
        bf.wall_clock_ms as f64 / 1000.0,
        100.0 * bf.utilization
    );
    checks
}
