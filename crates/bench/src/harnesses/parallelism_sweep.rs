//! Parallelism sweep — what does the language-specific crawl look like
//! when the crawler stops being serial?
//!
//! The paper's simulator fetches one page per tick; a production
//! crawler runs hundreds of connections bounded by per-host politeness.
//! This harness runs the soft-focused Thai crawl under the virtual-time
//! scheduler at `K ∈ {1, 4, 16}` fetch slots, then holds `K = 16` and
//! turns on per-host politeness gaps, reporting for every configuration
//! the makespan (virtual ticks), speedup over serial, slot-idle stall
//! ticks, politeness waits, cross-shard discovery handoffs, and the
//! shard load imbalance (max/mean accepted pushes per shard).
//!
//! Expected shape: the schedule changes but the *crawl* does not — a
//! zero-fault soft-focused run crawls the same page set at any `K`, so
//! harvest and coverage land identically while the makespan shrinks
//! toward `attempts / K`; politeness pushes it back up and idles slots.
//! The `K = 1` row doubles as a live conformance check (its makespan is
//! exactly one tick per attempt, the legacy clock).
//!
//! Two CSVs land in the results dir: `parallelism_sweep.csv` holds the
//! per-configuration summary rows; `parallelism_sweep_curves.csv` holds
//! the sampled harvest/coverage/queue-size trajectories for plotting
//! crawl progress against virtual time at each configuration.

use crate::figures::ok;
use crate::runner;
use langcrawl_core::classifier::OracleClassifier;
use langcrawl_core::engine::{CrawlEngine, EngineConfig, EngineOutcome};
use langcrawl_core::event::{EventSink, MetricsSampler, SchedStatsSink};
use langcrawl_core::sched::SchedConfig;
use langcrawl_core::shard::ShardStats;
use langcrawl_core::strategy::SimpleStrategy;
use langcrawl_webgraph::GeneratorConfig;
use std::io::Write;

/// Swept configurations: `(slots, politeness gap, jitter spread)`.
const CONFIGS: &[(u32, u64, u64)] = &[(1, 0, 0), (4, 0, 0), (16, 0, 0), (16, 2, 0), (16, 6, 2)];

struct SweepRow {
    slots: u32,
    gap: u64,
    spread: u64,
    outcome: EngineOutcome,
    stats: SchedStatsSink,
    shards: Vec<ShardStats>,
    samples: Vec<langcrawl_core::metrics::Sample>,
}

/// Max-over-mean of accepted pushes per shard — 1.0 is perfectly
/// balanced; the hash partition should keep this low single digits.
fn imbalance(shards: &[ShardStats]) -> f64 {
    let total: u64 = shards.iter().map(|s| s.pushes).sum();
    if total == 0 || shards.is_empty() {
        return 1.0;
    }
    let mean = total as f64 / shards.len() as f64;
    let max = shards.iter().map(|s| s.pushes).max().unwrap_or(0) as f64;
    max / mean
}

/// Run this harness (the body of the `parallelism_sweep` binary).
pub fn run() {
    let scale = runner::env_scale(40_000);
    let seed = runner::env_seed();
    println!(
        "== Parallelism sweep: virtual-time scheduler, Thai dataset (n={scale}, seed={seed}) ==\n"
    );

    let ws = GeneratorConfig::thai_like()
        .scaled(scale)
        .build_shared(seed);
    let engine = CrawlEngine::new(&ws, EngineConfig::default());
    let oracle = OracleClassifier::target(ws.target_language());
    let total_relevant = ws.total_relevant() as u64;

    let mut rows: Vec<SweepRow> = Vec::new();
    for &(slots, gap, spread) in CONFIGS {
        let sched = SchedConfig {
            slots,
            politeness_gap: gap,
            politeness_spread: spread,
        };
        let mut metrics = MetricsSampler::new();
        let mut stats = SchedStatsSink::new();
        let mut scratch = langcrawl_core::engine::EngineScratch::new();
        let (outcome, shards) = {
            let mut sinks: [&mut dyn EventSink; 2] = [&mut metrics, &mut stats];
            engine.run_scheduled(
                &sched,
                &mut SimpleStrategy::soft(),
                &oracle,
                &mut sinks,
                &mut scratch,
            )
        };
        rows.push(SweepRow {
            slots,
            gap,
            spread,
            outcome,
            stats,
            shards,
            samples: metrics.into_samples(),
        });
    }

    let serial_ticks = rows[0].outcome.ticks;
    println!(
        "{:>5} {:>4} {:>6} {:>9} {:>8} {:>10} {:>9} {:>9} {:>10}",
        "K", "gap", "spread", "ticks", "speedup", "idle_ticks", "waits", "handoffs", "imbalance"
    );
    let mut summary = String::from(
        "slots,gap,spread,ticks,speedup,idle_slot_ticks,politeness_waits,handoffs,\
         shard_imbalance,crawled,relevant_crawled,max_queue,harvest,coverage\n",
    );
    let mut curves =
        String::from("slots,gap,spread,crawled,relevant,queue_size,harvest,coverage\n");
    for row in &rows {
        let speedup = serial_ticks as f64 / row.outcome.ticks as f64;
        let imb = imbalance(&row.shards);
        let harvest = row.outcome.relevant_crawled as f64 / row.outcome.crawled.max(1) as f64;
        let coverage = row.outcome.relevant_crawled as f64 / total_relevant.max(1) as f64;
        println!(
            "{:>5} {:>4} {:>6} {:>9} {:>7.2}x {:>10} {:>9} {:>9} {:>10.3}",
            row.slots,
            row.gap,
            row.spread,
            row.outcome.ticks,
            speedup,
            row.stats.idle_slot_ticks,
            row.stats.politeness_waits,
            row.stats.crossed_links,
            imb,
        );
        summary.push_str(&format!(
            "{},{},{},{},{:.4},{},{},{},{:.4},{},{},{},{:.6},{:.6}\n",
            row.slots,
            row.gap,
            row.spread,
            row.outcome.ticks,
            speedup,
            row.stats.idle_slot_ticks,
            row.stats.politeness_waits,
            row.stats.crossed_links,
            imb,
            row.outcome.crawled,
            row.outcome.relevant_crawled,
            row.outcome.max_pending,
            harvest,
            coverage,
        ));
        for s in &row.samples {
            curves.push_str(&format!(
                "{},{},{},{},{},{},{:.6},{:.6}\n",
                row.slots,
                row.gap,
                row.spread,
                s.crawled,
                s.relevant,
                s.queue_size,
                s.relevant as f64 / s.crawled.max(1) as f64,
                s.relevant as f64 / total_relevant.max(1) as f64,
            ));
        }
    }

    let dir = runner::results_dir();
    if std::fs::create_dir_all(&dir).is_ok() {
        for (name, body) in [
            ("parallelism_sweep.csv", &summary),
            ("parallelism_sweep_curves.csv", &curves),
        ] {
            let path = dir.join(name);
            match std::fs::File::create(&path).and_then(|mut f| f.write_all(body.as_bytes())) {
                Ok(()) => println!("\n  [csv] {}", path.display()),
                Err(e) => eprintln!("\n  [csv] cannot write {name}: {e}"),
            }
        }
    }

    // Shape checks.
    let serial = &rows[0];
    println!(
        "\nK=1 makespan is one tick per attempt (legacy clock)     [{}]",
        ok(serial.outcome.ticks == serial.outcome.attempts)
    );
    let same_work = rows.iter().all(|r| {
        r.outcome.crawled == serial.outcome.crawled
            && r.outcome.relevant_crawled == serial.outcome.relevant_crawled
    });
    println!(
        "every schedule crawls the same pages and harvest        [{}]",
        ok(same_work)
    );
    let shrink = rows
        .windows(2)
        .take(2) // the gap-0 prefix: K = 1 → 4 → 16
        .all(|w| w[1].outcome.ticks < w[0].outcome.ticks);
    println!(
        "makespan shrinks with K at zero politeness              [{}]",
        ok(shrink)
    );
    let k16 = rows.iter().find(|r| r.slots == 16 && r.gap == 0);
    let polite = rows.iter().find(|r| r.slots == 16 && r.gap > 0);
    let stretched = match (k16, polite) {
        (Some(free), Some(p)) => {
            p.outcome.ticks > free.outcome.ticks && p.stats.politeness_waits > 0
        }
        _ => false,
    };
    println!(
        "politeness gaps stretch the schedule and park hosts     [{}]",
        ok(stretched)
    );
    let handoffs_flow = rows
        .iter()
        .filter(|r| r.slots > 1)
        .all(|r| r.stats.crossed_links > 0);
    println!(
        "cross-shard discovery handoffs flow whenever shards > 1 [{}]",
        ok(handoffs_flow)
    );
}
