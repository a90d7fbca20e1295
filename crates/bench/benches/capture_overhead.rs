//! The snapshot-capture overhead gate: a 4-slot scheduled crawl that
//! captures its state every 1000 virtual ticks may cost at most 5% over
//! the same crawl without capture. The process exits nonzero when the
//! gate fails. `LANGCRAWL_SCALE` sets the space size (default 50k; CI
//! runs 20k).
//!
//! The overhead is a ratio whose denominator is the K=4 crawl itself, so
//! a faster scheduler reads as dearer capture even when capture costs
//! the same. The bench therefore also prints the exact byte totals of
//! the gated and amplified captures: unlike the timing, they are
//! deterministic, and they move only when the snapshot format or the
//! crawl does.
//!
//! Capture is the one real cost this crate still times. The other
//! contracts the engine keeps are asserted by tests instead: zero
//! steady-state allocations per fetch (`tests/steady_state.rs`), the
//! event kinds the default sink subscribes to (`langcrawl-core`'s
//! `event` tests) and generation parity across thread counts
//! (`langcrawl-webgraph`). Speed as a whole is judged end to end by
//! perfbench, parent against change on one machine
//! (`scripts/perf_pairs.sh`).

use langcrawl_bench::runner::env_scale;
use langcrawl_core::classifier::OracleClassifier;
use langcrawl_core::engine::EngineScratch;
use langcrawl_core::sched::SchedConfig;
use langcrawl_core::strategy::SimpleStrategy;
use langcrawl_core::{CrawlEngine, EngineConfig};
use langcrawl_webgraph::GeneratorConfig;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A duration in ns, µs or ms, whichever reads best.
fn fmt(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.1} µs", ns as f64 / 1_000.0)
    } else {
        format!("{:.2} ms", ns as f64 / 1_000_000.0)
    }
}

/// The acceptance gate for checkpoint capture: a multi-slot scheduled
/// run that snapshots its complete state every 1000 virtual ticks must
/// cost no more than 5% over the identical run without capture. The
/// capture path earns this by doing nothing at all between capture
/// ticks (one `u64` compare at the loop top) and by encoding into a
/// scheduler-owned reused buffer when one fires; the gate catches any
/// per-tick bookkeeping sneaking into the hot loop.
///
/// Statistic: the every-1000 cadence fires ~5 captures on a
/// multi-millisecond run — a signal smaller than a shared runner's
/// run-to-run jitter, so directly differencing the two arms at that
/// cadence does not reproduce (per-arm minima land on different
/// machine states; paired medians need hundreds of rounds to
/// converge). Capture cost itself is cadence-independent — each
/// capture encodes the same state the tick boundary exposes — so the
/// gate measures it where the signal dwarfs the noise, at every=100
/// (~50 captures, interleaved per-arm minima), and prices the
/// every-1000 cadence by scaling the measured capture cost with the
/// ratio of *measured* snapshot bytes between the two cadences. Both
/// cadences run real captures; only the timing happens on the
/// amplified one.
fn bench_snapshot_overhead(scale: u32, failures: &mut Vec<&'static str>) {
    use langcrawl_core::{interest, CrawlEvent, EventSink};
    println!("snapshot capture overhead at K=4, every=1000 (n={scale}):");
    let ws = GeneratorConfig::thai_like().scaled(scale).build(7);
    let oracle = OracleClassifier::target(ws.target_language());
    let engine = CrawlEngine::new(&ws, EngineConfig::default());
    // One capturing engine per cadence, built outside the timed region.
    let capturing = |every: u64| {
        CrawlEngine::new(
            &ws,
            EngineConfig {
                snapshot_every: Some(every),
                ..EngineConfig::default()
            },
        )
    };
    let (every_1000, every_100) = (capturing(1_000), capturing(100));
    let sched = SchedConfig {
        slots: 4,
        ..SchedConfig::default()
    };

    /// Consumes snapshots at full speed without retaining them, so the
    /// measurement prices encode+frame, not sink-side accumulation.
    #[derive(Default)]
    struct CountSink {
        snaps: u64,
        bytes: u64,
    }
    impl EventSink for CountSink {
        fn on_event(&mut self, event: &CrawlEvent) {
            if let CrawlEvent::Snapshot { bytes, .. } = *event {
                self.snaps += 1;
                self.bytes += bytes.len() as u64;
            }
        }
        fn interests(&self) -> u16 {
            interest::SNAPSHOT
        }
    }

    let run_plain = || {
        black_box(
            engine
                .run_scheduled(
                    &sched,
                    &mut SimpleStrategy::soft(),
                    &oracle,
                    &mut [],
                    &mut EngineScratch::new(),
                )
                .0
                .crawled,
        )
    };
    let run_capturing = |engine: &CrawlEngine<'_>| {
        let mut sink = CountSink::default();
        let (outcome, _) = engine.run_scheduled(
            &sched,
            &mut SimpleStrategy::soft(),
            &oracle,
            &mut [&mut sink],
            &mut EngineScratch::new(),
        );
        (black_box(outcome.crawled), sink)
    };

    let plain_crawled = run_plain();
    let (cap_crawled, gated) = run_capturing(&every_1000);
    assert_eq!(
        plain_crawled, cap_crawled,
        "snapshot capture must not change what gets crawled"
    );
    assert!(gated.snaps > 0, "cadence too coarse: nothing captured");
    let (_, amplified) = run_capturing(&every_100);
    assert!(
        amplified.bytes > gated.bytes,
        "amplified cadence must capture more state than the gated one"
    );
    let measure = || {
        let mut t_plain = Duration::MAX;
        let mut t_amp = Duration::MAX;
        for _ in 0..40 {
            let t = Instant::now();
            run_plain();
            t_plain = t_plain.min(t.elapsed());
            let t = Instant::now();
            run_capturing(&every_100);
            t_amp = t_amp.min(t.elapsed());
        }
        (t_plain, t_amp)
    };
    let (mut t_plain, mut t_amp) = measure();
    // Capture cost at the amplified cadence, priced down to the gated
    // cadence by the measured byte ratio (capture work scales with the
    // state each tick boundary exposes, and bytes are its measure).
    let price = |t_plain: Duration, t_amp: Duration| {
        let extra_amp = t_amp.saturating_sub(t_plain).as_nanos() as f64;
        let extra = extra_amp * gated.bytes as f64 / amplified.bytes as f64;
        (extra_amp, extra, extra / t_plain.as_nanos() as f64)
    };
    let (mut extra_amp, mut extra, mut overhead) = price(t_plain, t_amp);
    if overhead > 0.05 {
        // One remeasure: sustained machine-wide contention (another
        // tenant saturating memory bandwidth) inflates the capture arm
        // disproportionately and no within-process statistic can see
        // through it. A transient episode passes the second sample; a
        // genuine capture regression fails both.
        println!("  over budget on the first sample; remeasuring once");
        let (p2, a2) = measure();
        let (ea2, e2, o2) = price(p2, a2);
        if o2 < overhead {
            (t_plain, t_amp) = (p2, a2);
            (extra_amp, extra, overhead) = (ea2, e2, o2);
        }
    }
    let ok = overhead <= 0.05;
    if !ok {
        failures.push("snapshot capture overhead above the 5% budget at every-1000-ticks cadence");
    }
    println!(
        "  no capture {:>10}   every-100 arm {:>10} ({} snapshots, {:.1} µs each)",
        fmt(t_plain),
        fmt(t_amp),
        amplified.snaps,
        extra_amp / 1.0e3 / amplified.snaps as f64,
    );
    println!(
        "  captured bytes: {} at every=1000, {} at every=100",
        gated.bytes, amplified.bytes
    );
    println!(
        "  at every=1000: {} snapshots, {:.1} MB   extra {:.1} µs   overhead {:+.1}%  [{}]",
        gated.snaps,
        gated.bytes as f64 / 1.0e6,
        extra / 1.0e3,
        100.0 * overhead,
        if ok { "OK" } else { "OVER BUDGET" }
    );
}

fn main() {
    let scale = env_scale(50_000);
    let mut failures = Vec::new();
    bench_snapshot_overhead(scale, &mut failures);
    for f in &failures {
        eprintln!("GATE FAILED: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
