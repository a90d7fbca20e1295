//! Steady-state memory discipline (DESIGN.md §5): once its scratch is
//! warm, a crawl fetch allocates nothing. This binary installs a
//! counting `#[global_allocator]`, so `cargo test` checks that contract
//! in both crawl loops; the lint's `lint:root(alloc-free)` markers prove
//! it statically. Two more tests pin the one piece with observable
//! bookkeeping, the lazily materialized attempt table, at the API
//! level, where a regression names the culprit.

use langcrawl_core::classifier::OracleClassifier;
use langcrawl_core::engine::{CrawlEngine, EngineConfig, EngineScratch};
use langcrawl_core::event::{interest, CrawlEvent, EventSink};
use langcrawl_core::sched::SchedConfig;
use langcrawl_core::sim::{SimConfig, Simulator};
use langcrawl_core::strategy::SimpleStrategy;
use langcrawl_webgraph::{FaultConfig, GeneratorConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocation events on this thread so far (`alloc` and `realloc`;
    /// frees are not counted, since the contract is about allocation
    /// events, not live bytes). Counting per thread keeps the tests
    /// that run in parallel on other threads out of a measurement.
    /// `const`-initialised and without a destructor, so touching it
    /// never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation event on the calling thread. `try_with` fails
/// only while the thread is being torn down, when nothing is measured.
fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocation events on the calling thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The system allocator, counting allocation events per thread.
struct CountingAlloc;

// SAFETY: every method forwards verbatim to `System`, which upholds
// the `GlobalAlloc` contract; the counter touches only a thread-local
// `Cell`, no allocator state, and cannot affect the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller contract forwarded unchanged to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    // SAFETY: `ptr` was returned by this allocator, i.e. by
    // `System`, with the same `layout` — `System`'s own contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    // SAFETY: caller contract forwarded unchanged to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// Fetches the tail measurement covers.
const TAIL: u64 = 1_000;

/// The zero-allocation contract, measured differentially. Over one
/// warm [`EngineScratch`], two deterministic runs differ only in that
/// one stops `TAIL` fetches short of the full crawl. Both pay the same
/// setup (a fresh frontier, buffers that reach their high water well
/// before the tail), and the short run is a prefix of the full one, so
/// whatever the full run allocates beyond the short one is what its
/// last `TAIL` fetches allocated. That must be nothing. The cells cover
/// the crawl loop at the default schedule, which drains a `UrlQueue`,
/// with and without retries, and at four slots over the sharded
/// frontier under politeness stalls and retries, without and with
/// snapshot capture (a capture every 50 ticks, into a sink that keeps
/// no bytes, so pending retries and cool-downs are sorted at every
/// capture).
#[test]
fn steady_state_fetches_allocate_nothing() {
    /// Wants every capture and keeps none of it.
    struct DropSnapshots;
    impl EventSink for DropSnapshots {
        fn on_event(&mut self, _: &CrawlEvent) {}
        fn interests(&self) -> u16 {
            interest::SNAPSHOT
        }
    }
    let ws = GeneratorConfig::thai_like().scaled(20_000).build(7);
    let oracle = OracleClassifier::target(ws.target_language());
    let faults = FaultConfig::with_rate(0.1);
    let polite = SchedConfig {
        slots: 4,
        politeness_gap: 2,
        ..SchedConfig::default()
    };
    let cells = [
        (
            "single slot",
            SchedConfig::default(),
            FaultConfig::default(),
            None,
        ),
        (
            "single slot, 10% faults",
            SchedConfig::default(),
            faults.clone(),
            None,
        ),
        ("4 slots, gap 2, 10% faults", polite, faults.clone(), None),
        (
            "4 slots, gap 2, 10% faults, capture every 50 ticks",
            polite,
            faults,
            Some(50),
        ),
    ];
    for (cell, sched, fault, snapshot_every) in cells {
        let engine = |max_pages| {
            CrawlEngine::new(
                &ws,
                EngineConfig {
                    max_pages,
                    fault: fault.clone(),
                    snapshot_every,
                    ..EngineConfig::default()
                },
            )
        };
        let run = |engine: &CrawlEngine<'_>, scratch: &mut EngineScratch| {
            let mut sink = DropSnapshots;
            let mut sinks: [&mut dyn EventSink; 1] = [&mut sink];
            let attached = usize::from(snapshot_every.is_some());
            engine
                .run_scheduled(
                    &sched,
                    &mut SimpleStrategy::soft(),
                    &oracle,
                    &mut sinks[..attached],
                    scratch,
                )
                .0
                .crawled
        };
        // Warm-up: grows every scratch buffer to its high water and
        // gives the full crawl's length.
        let mut scratch = EngineScratch::new();
        let full = run(&engine(None), &mut scratch);
        assert!(full > 2 * TAIL, "{cell}: space too small for the tail");
        // Both measured engines are built before the first count.
        let (short_engine, full_engine) = (engine(Some(full - TAIL)), engine(Some(full)));
        let a0 = allocs();
        let short = run(&short_engine, &mut scratch);
        let a1 = allocs();
        let again = run(&full_engine, &mut scratch);
        let a2 = allocs();
        assert_eq!((short, again), (full - TAIL, full), "{cell}");
        assert!(
            a2 - a1 <= a1 - a0,
            "{cell}: the last {TAIL} fetches allocated {} times",
            (a2 - a1) - (a1 - a0)
        );
    }
}

#[test]
fn second_run_on_a_cached_space_performs_zero_attempt_table_allocs() {
    // Same shared-space path every Experiment takes (`build_shared`
    // goes through the process-wide SpaceCache).
    let ws = GeneratorConfig::thai_like().scaled(8_000).build_shared(11);
    let oracle = OracleClassifier::target(ws.target_language());
    let mut sim = Simulator::new(
        &ws,
        SimConfig::default().with_faults(FaultConfig::with_rate(0.2)),
    );

    let first = sim.run(&mut SimpleStrategy::soft(), &oracle);
    assert!(first.retries > 0, "faults must actually schedule retries");
    assert_eq!(
        sim.attempt_table_allocs(),
        1,
        "first faulted run materializes the attempt table exactly once"
    );

    let second = sim.run(&mut SimpleStrategy::soft(), &oracle);
    assert_eq!(
        sim.attempt_table_allocs(),
        1,
        "second run must reuse the grown table, not reallocate it"
    );
    assert_eq!(
        second.retries, first.retries,
        "reuse must not change the schedule"
    );
}

#[test]
fn zero_fault_runs_never_materialize_the_attempt_table() {
    let ws = GeneratorConfig::thai_like().scaled(8_000).build_shared(11);
    let oracle = OracleClassifier::target(ws.target_language());
    let mut sim = Simulator::new(&ws, SimConfig::default());
    for _ in 0..3 {
        sim.run(&mut SimpleStrategy::soft(), &oracle);
        assert_eq!(sim.attempt_table_allocs(), 0);
    }
}
