//! Self-contained microbenches for the hot paths of the stack: URL
//! queue operations, charset detection, HTML link extraction, web-space
//! generation (sequential and parallel), end-to-end simulator
//! throughput — and the cost of the event-sink seam the layered engine
//! introduced.
//!
//! These are the numbers that justify the perf-relevant design choices
//! in DESIGN.md (bucketed queue, CSR graph, byte-level HTML scanning,
//! monomorphic engine loop, per-host-stream parallel generation). No
//! external harness: each bench warms up, runs until a fixed time
//! budget, and reports min/median wall time. `LANGCRAWL_SCALE` sets the
//! space size for the simulator benches (default 50k here; the
//! DESIGN.md overhead figure uses 200k).
//!
//! The gates — sink overhead ≤ 5%, parallel generation bit-parity, ≥2×
//! generation speedup on 4+ cores, snapshot capture overhead ≤ 5%, and
//! zero steady-state allocations per fetch under `count-allocs` — fail
//! the process with a nonzero exit. The throughput lines are for
//! reading on one machine; speed is judged parent against change with
//! perfbench (`scripts/perf_pairs.sh`).

use langcrawl_bench::runner::env_scale;
use langcrawl_charset::encode::{
    encode_japanese, encode_thai, japanese_demo_tokens, thai_demo_tokens,
};
use langcrawl_charset::{detect, Charset};
use langcrawl_core::classifier::OracleClassifier;
use langcrawl_core::engine::EngineScratch;
use langcrawl_core::linkgraph::pagerank::RankState;
use langcrawl_core::queue::{Entry, UrlQueue};
use langcrawl_core::sched::SchedConfig;
use langcrawl_core::sim::{SimConfig, Simulator};
use langcrawl_core::strategy::{LimitedDistanceStrategy, OnlinePageRank, SimpleStrategy, Strategy};
use langcrawl_core::{CrawlEngine, EngineConfig, EventSink, LinkGraph, MetricsSampler};
use langcrawl_html::{extract_links, extract_meta_charset};
use langcrawl_url::{normalize, resolve, Url};
use langcrawl_webgraph::generate::generate_with_threads;
use langcrawl_webgraph::parallel::effective_threads;
use langcrawl_webgraph::GeneratorConfig;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Allocation counting, behind the `count-allocs` feature: a
/// dependency-free `#[global_allocator]` wrapper around the system
/// allocator that bumps one relaxed atomic per `alloc`/`realloc`. It
/// lives in this bench target (not the library, which forbids `unsafe`)
/// because only the microbench needs it, and only when asked: counting
/// perturbs the throughput sections, so the default build stays on the
/// plain system allocator and the steady-state gate reports "not
/// gated".
#[cfg(feature = "count-allocs")]
mod counting_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Heap allocations observed since process start (alloc + realloc;
    /// deallocations are not counted — the gate cares about allocation
    /// *events*, not live bytes).
    pub(crate) static ALLOCS: AtomicU64 = AtomicU64::new(0);

    pub(crate) struct CountingAlloc;

    // SAFETY: every method forwards verbatim to `System`, which upholds
    // the `GlobalAlloc` contract; the counter increments touch no
    // allocator state and cannot affect the returned memory.
    unsafe impl GlobalAlloc for CountingAlloc {
        // SAFETY: caller contract forwarded unchanged to `System`.
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }

        // SAFETY: `ptr` was returned by this allocator, i.e. by
        // `System`, with the same `layout` — `System`'s own contract.
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        // SAFETY: caller contract forwarded unchanged to `System`.
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static COUNTING: CountingAlloc = CountingAlloc;
}

/// Allocation events so far; `0` forever when counting is off.
fn alloc_count() -> u64 {
    #[cfg(feature = "count-allocs")]
    {
        counting_alloc::ALLOCS.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "count-allocs"))]
    {
        0
    }
}

/// Whether the counting allocator is compiled in.
const COUNTING_ALLOCS: bool = cfg!(feature = "count-allocs");

/// Run `f` repeatedly for ~`budget`, after one warmup call. Returns the
/// per-iteration minimum and median.
fn measure<R>(budget: Duration, mut f: impl FnMut() -> R) -> (Duration, Duration) {
    black_box(f());
    let mut times = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget || times.len() < 3 {
        let t = Instant::now();
        black_box(f());
        times.push(t.elapsed());
        if times.len() >= 1_000 {
            break;
        }
    }
    times.sort();
    (times[0], times[times.len() / 2])
}

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

/// One bench line: name, timings, optional throughput from `units/iter`.
fn bench<R>(name: &str, units: Option<(f64, &str)>, f: impl FnMut() -> R) {
    let (min, median) = measure(Duration::from_millis(200), f);
    let rate = match units {
        Some((n, unit)) => format!("  ({:.1} M{unit}/s)", n / median.as_secs_f64() / 1.0e6),
        None => String::new(),
    };
    println!(
        "  {name:<40} min {:>10}  median {:>10}{rate}",
        fmt(min),
        fmt(median)
    );
}

fn bench_queue() {
    println!("queue:");
    bench("push_pop_100k_2levels", Some((100_000.0, "ops")), || {
        let mut q = UrlQueue::new(100_000, 2);
        for i in 0..100_000u32 {
            q.push(Entry {
                page: i,
                priority: (i % 2) as u8,
                distance: 0,
            });
        }
        let mut n = 0u32;
        while let Some(e) = q.pop() {
            n = n.wrapping_add(e.page);
        }
        n
    });
    bench(
        "push_pop_100k_reprioritized",
        Some((200_000.0, "ops")),
        || {
            let mut q = UrlQueue::new(100_000, 5);
            // Every page admitted twice: low priority then high.
            for i in 0..100_000u32 {
                q.push(Entry {
                    page: i,
                    priority: 4,
                    distance: 4,
                });
            }
            for i in 0..100_000u32 {
                q.push(Entry {
                    page: i,
                    priority: 0,
                    distance: 0,
                });
            }
            let mut n = 0u32;
            while let Some(e) = q.pop() {
                n = n.wrapping_add(e.page);
            }
            n
        },
    );
}

/// Batched admission through [`ShardedFrontier::push_all`] — the shape
/// of the engine's hot admission path after the zero-allocation
/// rewrite: outlinks arrive as one batch per fetch, and the frontier
/// defers its per-host exposure refresh to one pass over the batch.
fn bench_batch_admit() {
    use langcrawl_core::frontier::Frontier;
    use langcrawl_core::shard::ShardedFrontier;
    println!("sharded_frontier:");
    const PAGES: u32 = 100_000;
    const HOSTS: usize = 1_000;
    const BATCH: u32 = 25;
    let host_of_page: Vec<u32> = (0..PAGES).map(|p| p % HOSTS as u32).collect();
    bench(
        "batch_admit_100k_batch25_4shards",
        Some((2.0 * PAGES as f64, "ops")),
        || {
            let mut f = ShardedFrontier::new(host_of_page.clone(), HOSTS, 2, 4);
            let mut batch = [Entry {
                page: 0,
                priority: 0,
                distance: 0,
            }; BATCH as usize];
            for chunk in 0..PAGES / BATCH {
                for (i, slot) in batch.iter_mut().enumerate() {
                    let page = chunk * BATCH + i as u32;
                    *slot = Entry {
                        page,
                        priority: (page % 2) as u8,
                        distance: 0,
                    };
                }
                f.push_all(&batch);
            }
            let mut n = 0u32;
            while let Some(e) = f.pop() {
                n = n.wrapping_add(e.page);
            }
            n
        },
    );
}

fn bench_detect() {
    println!("charset_detect:");
    let ja = japanese_demo_tokens();
    let ja: Vec<_> = ja.iter().cycle().take(2_000).copied().collect();
    let th = thai_demo_tokens();
    let th: Vec<_> = th.iter().cycle().take(2_000).copied().collect();
    let cases = [
        ("eucjp", encode_japanese(&ja, Charset::EucJp)),
        ("sjis", encode_japanese(&ja, Charset::ShiftJis)),
        ("iso2022jp", encode_japanese(&ja, Charset::Iso2022Jp)),
        ("utf8_ja", encode_japanese(&ja, Charset::Utf8)),
        ("tis620", encode_thai(&th, Charset::Tis620)),
        (
            "ascii",
            b"the quick brown fox jumps over the lazy dog. "
                .repeat(80)
                .to_vec(),
        ),
    ];
    for (name, bytes) in &cases {
        bench(name, Some((bytes.len() as f64, "B")), || {
            detect(black_box(bytes)).charset
        });
    }

    // The fused-DFA throughput on its own: one long single-encoding
    // buffer, so the run is dominated by the flat `state * 256 + byte`
    // table walk rather than prober setup or candidate ranking.
    println!("charset_dfa:");
    let long_ja: Vec<_> = japanese_demo_tokens()
        .iter()
        .cycle()
        .take(40_000)
        .copied()
        .collect();
    let long = encode_japanese(&long_ja, Charset::EucJp);
    bench(
        "eucjp_fused_dfa_long",
        Some((long.len() as f64, "B")),
        || detect(black_box(&long)).charset,
    );
}

fn bench_html() {
    println!("html:");
    let mut page = String::from(
        r#"<html><head><meta http-equiv="content-type" content="text/html; charset=tis-620"><title>x</title></head><body>"#,
    );
    for i in 0..200 {
        page.push_str(&format!(
            r#"<p>lorem ipsum dolor sit amet</p><a href="/dir{}/page{}.html">link</a>"#,
            i % 17,
            i
        ));
    }
    page.push_str("</body></html>");
    let bytes = page.into_bytes();
    let base = Url::parse("http://www.example.co.th/index.html").unwrap();
    bench("extract_links_200", Some((bytes.len() as f64, "B")), || {
        extract_links(black_box(&bytes), &base).len()
    });
    bench("extract_meta", Some((bytes.len() as f64, "B")), || {
        extract_meta_charset(black_box(&bytes))
    });
}

fn bench_url() {
    println!("url:");
    let base = Url::parse("http://www.example.ac.th/a/b/c.html").unwrap();
    bench("resolve_relative", None, || {
        resolve(&base, black_box("../img/x/../y.gif"))
    });
    let u = Url::parse("HTTP://Example.AC.TH:80/a/./b/%7Euser/index.html?x=1").unwrap();
    bench("normalize", None, || normalize(black_box(&u)));
}

fn bench_generate() {
    println!("webgraph_generate:");
    for scale in [10_000u32, 50_000] {
        bench(
            &format!("thai_like_{scale}"),
            Some((scale as f64, "URLs")),
            || {
                GeneratorConfig::thai_like()
                    .scaled(scale)
                    .build(7)
                    .num_edges()
            },
        );
    }
}

/// Parallel generation: 1 thread vs all available, on the 200k figure
/// preset. Checks bit-parity between the two spaces (the
/// thread-count-independence contract) and, on 4+ cores, gates a ≥2×
/// speedup.
fn bench_generate_parallel(failures: &mut Vec<&'static str>) {
    let threads = effective_threads();
    let scale = 200_000u32;
    let cfg = GeneratorConfig::thai_like().scaled(scale);
    println!("webgraph_generate_parallel (n={scale}, threads={threads}):");

    let time_min = |t: usize| {
        let mut best = Duration::MAX;
        let mut hash = 0u64;
        for _ in 0..3 {
            let t0 = Instant::now();
            let ws = generate_with_threads(&cfg, 7, t);
            best = best.min(t0.elapsed());
            hash = ws.content_hash();
        }
        (best, hash)
    };
    let (t1, h1) = time_min(1);
    let (tn, hn) = time_min(threads);

    let speedup = t1.as_secs_f64() / tn.as_secs_f64();
    let parity_ok = h1 == hn;
    // Gate only when the run both asked for and can get 4+ workers: a
    // capped `LANGCRAWL_THREADS=8` on a 2-core runner cannot hit 2×.
    let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let speedup_gated = threads >= 4 && available >= 4;
    let speedup_ok = speedup >= 2.0;
    if !parity_ok {
        failures.push("parallel generation is not bit-identical across thread counts");
    }
    if speedup_gated && !speedup_ok {
        failures.push("parallel generation speedup below 2x on 4+ cores");
    }

    println!(
        "  1 thread  {:>10}   ({:.2} M pages generated/s)",
        fmt(t1),
        scale as f64 / t1.as_secs_f64() / 1.0e6
    );
    println!(
        "  {threads} threads {:>10}   ({:.2} M pages generated/s)",
        fmt(tn),
        scale as f64 / tn.as_secs_f64() / 1.0e6
    );
    println!(
        "  speedup {speedup:.2}x  [{}]   thread parity [{}]",
        if !speedup_gated {
            "not gated below 4 cores"
        } else if speedup_ok {
            "OK"
        } else {
            "BELOW 2x"
        },
        if parity_ok { "OK" } else { "MISMATCH" },
    );
}

fn bench_simulate(scale: u32) {
    println!("simulate (n={scale}):");
    let ws = GeneratorConfig::thai_like().scaled(scale).build(7);
    let oracle = OracleClassifier::target(ws.target_language());
    let pages = ws.num_pages() as f64;
    bench("soft_focused_full_crawl", Some((pages, "pages")), || {
        let mut sim = Simulator::new(&ws, SimConfig::default());
        sim.run(&mut SimpleStrategy::soft(), &oracle).crawled
    });
    bench(
        "prioritized_limited3_full_crawl",
        Some((pages, "pages")),
        || {
            let mut sim = Simulator::new(&ws, SimConfig::default());
            sim.run(&mut LimitedDistanceStrategy::prioritized(3), &oracle)
                .crawled
        },
    );
}

/// The link-analysis engine section: raw incremental-solver relaxation
/// rate over a full space ingest, plus a whole pagerank-ordered crawl.
/// Capped at 40k pages, the size of perfbench's `pagerank` space.
fn bench_link_analysis(scale: u32) {
    let n = scale.min(40_000);
    println!("link analysis (n={n}):");
    let ws = GeneratorConfig::thai_like().scaled(n).build(7);
    let oracle = OracleClassifier::target(ws.target_language());
    let pages = ws.num_pages() as f64;

    // Raw solver rate: ingest the whole space into the shared store,
    // refreshing every 2 000 pages (the strategy's default cadence).
    let run_solver = || {
        let mut g = LinkGraph::with_page_capacity(ws.num_pages());
        let mut st = RankState::new(0.85);
        let mut i = 0u64;
        for p in ws.page_ids() {
            g.record_page(p, ws.outlinks(p));
            i += 1;
            if i.is_multiple_of(2_000) {
                st.update(&mut g);
            }
        }
        st.update(&mut g);
        st.relaxations()
    };
    // The solver is deterministic, so one dry run pins the relaxation
    // count the timed runs will repeat.
    let relaxations = run_solver() as f64;
    bench(
        "rank_solver_ingest_full_space",
        Some((relaxations, "updates")),
        run_solver,
    );

    bench(
        "pagerank_ordered_full_crawl",
        Some((pages, "pages")),
        || {
            let mut sim = Simulator::new(&ws, SimConfig::default());
            sim.run(&mut OnlinePageRank::new(), &oracle).crawled
        },
    );
}

/// The acceptance gate for the event-sink seam: a crawl with the
/// [`MetricsSampler`] that `Simulator::run` attaches must cost no more
/// than 5% over the same crawl with no sinks. Both arms call
/// `CrawlEngine::run` with the same engine, frontier type, strategy and
/// classifier, so they run one compiled loop and differ only in the
/// sink slice; code layout cannot favour either. Each sample repeats
/// whole crawls until it has fetched `SAMPLE_PAGES` pages, so one
/// sample spans tens of milliseconds rather than one sub-millisecond
/// crawl. The arms are timed in adjacent pairs, alternating which runs
/// first, and the overhead is the median of the per-pair ratios: a
/// slowdown of the shared machine lasting longer than one pair hits
/// both arms of that pair, and a shorter one moves only a minority of
/// the pairs.
fn bench_sink_overhead(scale: u32, failures: &mut Vec<&'static str>) {
    /// Pages one timed sample fetches, over as many whole crawls as
    /// that takes.
    const SAMPLE_PAGES: u64 = 1_000_000;
    const PAIRS: usize = 41;
    println!("engine sink overhead (n={scale}):");
    let ws = GeneratorConfig::thai_like().scaled(scale).build(7);
    let oracle = OracleClassifier::target(ws.target_language());
    let engine = CrawlEngine::new(&ws, EngineConfig::default());

    let crawl = |sinks: &mut [&mut dyn EventSink]| {
        let mut strategy = SimpleStrategy::soft();
        let queue = UrlQueue::new(ws.num_pages(), strategy.levels());
        black_box(engine.run(queue, &mut strategy, &oracle, sinks).crawled)
    };
    let run_bare = || crawl(&mut []);
    let run_sinked = || crawl(&mut [&mut MetricsSampler::new()]);

    let pages = run_bare();
    assert_eq!(
        pages,
        run_sinked(),
        "a metrics sink must not change what gets crawled"
    );
    let crawls = SAMPLE_PAGES.div_ceil(pages.max(1));
    let sample = |run: &dyn Fn() -> u64| {
        let t = Instant::now();
        for _ in 0..crawls {
            run();
        }
        t.elapsed().as_secs_f64()
    };
    let mut bare = Vec::with_capacity(PAIRS);
    let mut ratios = Vec::with_capacity(PAIRS);
    for i in 0..PAIRS {
        let (b, s) = if i % 2 == 0 {
            let b = sample(&run_bare);
            (b, sample(&run_sinked))
        } else {
            let s = sample(&run_sinked);
            (sample(&run_bare), s)
        };
        bare.push(b);
        ratios.push(s / b);
    }
    bare.sort_by(f64::total_cmp);
    ratios.sort_by(f64::total_cmp);
    let quartile = |q: usize| ratios[q * (PAIRS - 1) / 4];
    let overhead = quartile(2) - 1.0;
    let ok = overhead <= 0.05;
    if !ok {
        failures.push("event-sink seam overhead above the 5% budget");
    }
    println!(
        "  {PAIRS} pairs of samples, each {crawls} crawls of {pages} pages; no-sink sample median {}",
        fmt(Duration::from_secs_f64(bare[PAIRS / 2]))
    );
    println!(
        "  metrics sink / no sinks: median {:.4} (quartiles {:.4}, {:.4})   overhead {:+.1}%  [{}]",
        quartile(2),
        quartile(1),
        quartile(3),
        100.0 * overhead,
        if ok { "OK" } else { "OVER BUDGET" }
    );
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
        "  at every=1000: {} snapshots, {:.1} MB   extra {:.1} µs   overhead {:+.1}%  [{}]",
        gated.snaps,
        gated.bytes as f64 / 1.0e6,
        extra / 1.0e3,
        100.0 * overhead,
        if ok { "OK" } else { "OVER BUDGET" }
    );
}

/// The zero-allocation steady-state gate: after warm-up, a crawl fetch
/// must allocate *nothing*. Measured differentially — two deterministic
/// runs over one warm [`EngineScratch`], identical except that one
/// stops `TAIL` fetches short of the full crawl. Both runs pay the same
/// setup (fresh frontier, same buffer high-water marks, reached well
/// before the tail), so the allocation-count difference is exactly what
/// the final `TAIL` steady-state fetches allocate — which the gate
/// pins at zero. Without the `count-allocs` feature the counter always
/// reads 0 and the section reports "not gated".
fn bench_steady_state_allocs(scale: u32, failures: &mut Vec<&'static str>) {
    println!("steady-state allocations (n={scale}):");
    let ws = GeneratorConfig::thai_like().scaled(scale).build(7);
    let oracle = OracleClassifier::target(ws.target_language());
    const TAIL: u64 = 1_000;

    // The default schedule: `run_scheduled` hands off to the
    // single-slot loop with the caller's scratch.
    let sched = SchedConfig::default();
    let mut scratch = EngineScratch::new();
    let engine = |budget: Option<u64>| {
        CrawlEngine::new(
            &ws,
            EngineConfig {
                max_pages: budget,
                ..EngineConfig::default()
            },
        )
    };
    let run = |engine: &CrawlEngine<'_>, scratch: &mut EngineScratch| {
        black_box(
            engine
                .run_scheduled(
                    &sched,
                    &mut SimpleStrategy::soft(),
                    &oracle,
                    &mut [],
                    scratch,
                )
                .0
                .crawled,
        )
    };

    // Warm-up run: grows every scratch buffer to its high-water size
    // and reports the full crawl length.
    let full = run(&engine(None), &mut scratch);
    assert!(full > 2 * TAIL, "space too small for the tail measurement");

    // Both measured engines are built before the first count.
    let (short_engine, full_engine) = (engine(Some(full - TAIL)), engine(Some(full)));
    let a0 = alloc_count();
    let short = run(&short_engine, &mut scratch);
    let a1 = alloc_count();
    let again = run(&full_engine, &mut scratch);
    let a2 = alloc_count();
    assert_eq!(short, full - TAIL);
    assert_eq!(again, full);

    // The truncated run is a strict prefix of the full run, so the full
    // run can only allocate at least as much; the excess is what the
    // tail fetches allocated.
    let tail_allocs = (a2 - a1).saturating_sub(a1 - a0);
    let ok = !COUNTING_ALLOCS || tail_allocs == 0;
    if !ok {
        failures.push("steady-state crawl fetches allocate (must be zero after warm-up)");
    }
    println!(
        "  tail {TAIL} fetches: {tail_allocs} allocations ({:.4}/fetch)  [{}]",
        tail_allocs as f64 / TAIL as f64,
        if !COUNTING_ALLOCS {
            "not gated: counting allocator off"
        } else if ok {
            "OK"
        } else {
            "ALLOCATES"
        }
    );
}

fn main() {
    let scale = env_scale(50_000);
    // Names of the gates that failed; any entry fails the process.
    let mut failures = Vec::new();
    // Per-phase allocation counts (meaningful only with the counting
    // allocator compiled in): one cumulative mark after each section,
    // reported as deltas at the end.
    let mut marks: Vec<(&'static str, u64)> = Vec::new();
    let mark = |name: &'static str, marks: &mut Vec<(&'static str, u64)>| {
        marks.push((name, alloc_count()));
    };
    mark("start", &mut marks);
    bench_queue();
    mark("queue", &mut marks);
    bench_batch_admit();
    mark("batch_admit", &mut marks);
    bench_detect();
    mark("detect", &mut marks);
    bench_html();
    bench_url();
    mark("html+url", &mut marks);
    bench_generate();
    bench_generate_parallel(&mut failures);
    mark("generate", &mut marks);
    bench_simulate(scale);
    mark("simulate", &mut marks);
    bench_link_analysis(scale);
    mark("link_analysis", &mut marks);
    bench_sink_overhead(scale, &mut failures);
    bench_snapshot_overhead(scale, &mut failures);
    mark("overhead_gates", &mut marks);
    bench_steady_state_allocs(scale, &mut failures);
    mark("steady_state", &mut marks);

    if COUNTING_ALLOCS {
        println!("\nallocations per phase (count-allocs):");
        for pair in marks.windows(2) {
            let (name, after) = pair[1];
            println!("  {name:<20} {:>12}", after - pair[0].1);
        }
    }

    for f in &failures {
        eprintln!("GATE FAILED: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
