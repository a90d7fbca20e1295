//! Resume parity: a crawl snapshotted at tick T, dropped, and resumed
//! must finish **bit-for-bit identical** to the uninterrupted run —
//! same final outcome (cumulative counters, makespan), same visit
//! sequence (the resumed run emits exactly the suffix), same metrics
//! series — across strategies × worker counts × fault rates.
//!
//! Three layers of pinning:
//!
//! 1. Capture is observation-only: a capturing run's outcome, samples
//!    and visits equal a non-capturing run's, and the zero-fault cells
//!    are additionally hashed against the *same* golden constants the
//!    `sched_conformance` suite pins — interrupting and resuming a
//!    crawl cannot drift the pinned schedule.
//! 2. Early, middle and late snapshots all resume to the identical
//!    end state, for one slot (`K = 1`) and eight (`K = 8`), and with
//!    the retry/backoff machinery live (fault rate 0.2).
//! 3. Snapshot *bytes* are thread-invariant: regenerating the space on
//!    1 and 4 threads yields identical framed snapshots, so a
//!    checkpoint taken on one machine configuration resumes on another.
//!
//! When `LANGCRAWL_SNAPSHOT_DIR` is set (as CI does), every snapshot
//! picked for resumption is also written there before resuming, so a
//! parity failure leaves the offending fixture behind as an artifact.

use langcrawl_core::classifier::{Classifier, MetaClassifier, OracleClassifier};
use langcrawl_core::engine::{CrawlEngine, EngineConfig, EngineOutcome, EngineScratch};
use langcrawl_core::event::{EventSink, MetricsSampler, VisitRecorder};
use langcrawl_core::metrics::Sample;
use langcrawl_core::sched::SchedConfig;
use langcrawl_core::strategy::{BreadthFirst, LimitedDistanceStrategy, SimpleStrategy, Strategy};
use langcrawl_core::{CrawlSnapshot, SnapshotLog};
use langcrawl_webgraph::generate::generate_with_threads;
use langcrawl_webgraph::{FaultConfig, GeneratorConfig, PageId, WebSpace};

/// The pinned space: same preset/scale/seed as the conformance suites.
fn space() -> WebSpace {
    GeneratorConfig::thai_like().scaled(12_000).build(41)
}

/// The pinned space, generated on exactly `threads` threads.
fn space_on(threads: usize) -> WebSpace {
    generate_with_threads(&GeneratorConfig::thai_like().scaled(12_000), 41, threads)
}

/// The pinned strategy/classifier cells, by short name (pairings as in
/// `sched_conformance::scheduled_runs`).
const STRATEGIES: [&str; 3] = ["bf", "soft", "limited"];

fn make_strategy(name: &str) -> Box<dyn Strategy> {
    match name {
        "bf" => Box::new(BreadthFirst::new()),
        "soft" => Box::new(SimpleStrategy::soft()),
        "limited" => Box::new(LimitedDistanceStrategy::prioritized(3)),
        other => panic!("unknown strategy cell {other}"),
    }
}

fn make_classifier(name: &str, ws: &WebSpace) -> Box<dyn Classifier> {
    match name {
        "soft" => Box::new(MetaClassifier::target(ws.target_language())),
        _ => Box::new(OracleClassifier::target(ws.target_language())),
    }
}

fn engine_config(ws: &WebSpace, fault_rate: f64) -> EngineConfig {
    EngineConfig {
        fault: if fault_rate > 0.0 {
            FaultConfig::with_rate(fault_rate)
        } else {
            ws.fault().clone()
        },
        ..EngineConfig::default()
    }
}

/// An engine like `engine_config`'s that captures every `every` ticks.
fn capturing_engine(ws: &WebSpace, fault_rate: f64, every: u64) -> CrawlEngine<'_> {
    CrawlEngine::new(
        ws,
        EngineConfig {
            snapshot_every: Some(every),
            ..engine_config(ws, fault_rate)
        },
    )
}

/// Everything observable about one run: final outcome, metrics series,
/// visit sequence.
#[derive(Debug, PartialEq)]
struct RunOut {
    outcome: EngineOutcome,
    samples: Vec<Sample>,
    visits: Vec<PageId>,
}

fn run_baseline(engine: &CrawlEngine<'_>, sched: &SchedConfig, strat: &str) -> RunOut {
    let mut strategy = make_strategy(strat);
    let classifier = make_classifier(strat, engine.web_space());
    let mut metrics = MetricsSampler::new();
    let mut visits = VisitRecorder::new();
    let (outcome, _) = {
        let mut sinks: [&mut dyn EventSink; 2] = [&mut metrics, &mut visits];
        engine.run_scheduled(
            sched,
            strategy.as_mut(),
            classifier.as_ref(),
            &mut sinks,
            &mut EngineScratch::new(),
        )
    };
    RunOut {
        outcome,
        samples: metrics.into_samples(),
        visits: visits.into_visited(),
    }
}

/// A run on a `capturing_engine`, with `log` attached next to the
/// metrics and visit sinks.
fn run_capturing(
    engine: &CrawlEngine<'_>,
    sched: &SchedConfig,
    strat: &str,
    log: &mut SnapshotLog,
) -> RunOut {
    let mut strategy = make_strategy(strat);
    let classifier = make_classifier(strat, engine.web_space());
    let mut metrics = MetricsSampler::new();
    let mut visits = VisitRecorder::new();
    let (outcome, _) = {
        let mut sinks: [&mut dyn EventSink; 3] = [&mut metrics, &mut visits, log];
        engine.run_scheduled(
            sched,
            strategy.as_mut(),
            classifier.as_ref(),
            &mut sinks,
            &mut EngineScratch::new(),
        )
    };
    RunOut {
        outcome,
        samples: metrics.into_samples(),
        visits: visits.into_visited(),
    }
}

fn run_resumed(engine: &CrawlEngine<'_>, snap: &CrawlSnapshot, strat: &str) -> RunOut {
    let mut strategy = make_strategy(strat);
    let classifier = make_classifier(strat, engine.web_space());
    let mut metrics = MetricsSampler::new();
    let mut visits = VisitRecorder::new();
    let (outcome, _) = {
        let mut sinks: [&mut dyn EventSink; 2] = [&mut metrics, &mut visits];
        engine
            .resume(snap, strategy.as_mut(), classifier.as_ref(), &mut sinks)
            .expect("snapshot from a capture run must resume")
    };
    RunOut {
        outcome,
        samples: metrics.into_samples(),
        visits: visits.into_visited(),
    }
}

/// Dump a snapshot about to be resumed into `LANGCRAWL_SNAPSHOT_DIR`
/// (when set), so CI keeps the fixture as an artifact on failure.
fn dump_fixture(label: &str, tick: u64, bytes: &[u8]) {
    if let Ok(dir) = std::env::var("LANGCRAWL_SNAPSHOT_DIR") {
        if !dir.is_empty() {
            let _ = std::fs::create_dir_all(&dir);
            let path = std::path::Path::new(&dir).join(format!("fixture-{label}-t{tick}.snap"));
            let _ = std::fs::write(path, bytes);
        }
    }
}

/// Assert that `resumed`, started from `snap`, continues `full`
/// exactly: cumulative outcome, visit suffix, sample suffix.
fn assert_continues(ctx: &str, full: &RunOut, snap: &CrawlSnapshot, resumed: &RunOut) {
    assert_eq!(
        resumed.outcome, full.outcome,
        "{ctx}: resumed outcome diverged from the uninterrupted run"
    );
    let skip = snap.crawled() as usize;
    assert_eq!(
        resumed.visits,
        full.visits[skip..],
        "{ctx}: resumed visit sequence is not the uninterrupted run's suffix"
    );
    let expected: Vec<Sample> = full
        .samples
        .iter()
        .filter(|s| s.crawled > snap.crawled())
        .copied()
        .collect();
    assert_eq!(
        resumed.samples, expected,
        "{ctx}: resumed metrics series is not the uninterrupted run's suffix"
    );
}

/// Indices of the early / middle / late snapshots to resume from,
/// restricted to snapshots with work left (a capture can land on the
/// final tick, where nothing remains to replay through the samplers).
fn pick_indices(log: &SnapshotLog, final_crawled: u64) -> Vec<usize> {
    let live: Vec<usize> = log
        .snapshots()
        .iter()
        .enumerate()
        .filter(|(_, (_, bytes))| {
            CrawlSnapshot::from_bytes(bytes)
                .expect("captured snapshot must parse")
                .crawled()
                < final_crawled
        })
        .map(|(i, _)| i)
        .collect();
    let mut picks = vec![live[0], live[live.len() / 2], live[live.len() - 1]];
    picks.dedup();
    picks
}

/// The tentpole property, over the full matrix: strategy × `K ∈ {1, 8}`
/// × fault rate `{0, 0.2}`, snapshotting at early/middle/late ticks.
#[test]
fn resume_is_bit_identical_to_uninterrupted_runs() {
    let ws = space();
    for k in [1u32, 8] {
        for fault_rate in [0.0f64, 0.2] {
            for strat in STRATEGIES {
                let ctx = format!("{strat} K={k} fault={fault_rate}");
                let engine = CrawlEngine::new(&ws, engine_config(&ws, fault_rate));
                let sched = SchedConfig {
                    slots: k,
                    ..SchedConfig::default()
                };
                let full = run_baseline(&engine, &sched, strat);
                // ~6 snapshots spread across the run.
                let every = (full.outcome.ticks / 6).max(1);
                let mut log = SnapshotLog::new();
                let capturing = capturing_engine(&ws, fault_rate, every);
                let cap = run_capturing(&capturing, &sched, strat, &mut log);
                assert_eq!(cap, full, "{ctx}: capture perturbed the crawl");
                assert!(!log.is_empty(), "{ctx}: no snapshot captured");
                for i in pick_indices(&log, full.outcome.crawled) {
                    let (tick, bytes) = &log.snapshots()[i];
                    dump_fixture(&format!("{strat}-k{k}-f{fault_rate}"), *tick, bytes);
                    let snap =
                        CrawlSnapshot::from_bytes(bytes).expect("captured snapshot must parse");
                    assert_eq!(snap.tick(), *tick, "{ctx}: header tick disagrees with sink");
                    snap.verify_space(&ws)
                        .expect("space fingerprint must match");
                    let resumed = run_resumed(&engine, &snap, strat);
                    assert_continues(&format!("{ctx} @t{tick}"), &full, &snap, &resumed);
                }
            }
        }
    }
}

/// The base case: the tick-0 snapshot of a crawl that has not started
/// resumes into the *entire* run — outcome, samples and visits all
/// equal the uninterrupted baseline.
#[test]
fn tick_zero_snapshot_resumes_into_the_whole_run() {
    let ws = space();
    for k in [1u32, 8] {
        for strat in STRATEGIES {
            let engine = CrawlEngine::new(&ws, engine_config(&ws, 0.2));
            let sched = SchedConfig {
                slots: k,
                ..SchedConfig::default()
            };
            let full = run_baseline(&engine, &sched, strat);
            let snap = engine.snapshot(
                &sched,
                make_strategy(strat).as_ref(),
                make_classifier(strat, &ws).as_ref(),
            );
            assert_eq!(snap.tick(), 0);
            assert_eq!(snap.crawled(), 0);
            let resumed = run_resumed(&engine, &snap, strat);
            assert_eq!(resumed, full, "{strat} K={k}: tick-0 resume diverged");
        }
    }
}

/// A resumed run that captures again reproduces, as its very first
/// emission, the exact bytes it was resumed from — the codec's
/// round-trip fixed point, checked through the public API over both
/// untimed frontiers: the bare queue at `K = 1` and the sharded
/// frontier at `K = 8`.
#[test]
fn resumed_capture_reemits_the_input_snapshot_byte_for_byte() {
    let ws = space();
    let engine = CrawlEngine::new(&ws, engine_config(&ws, 0.2));
    for k in [1u32, 8] {
        let sched = SchedConfig {
            slots: k,
            ..SchedConfig::default()
        };
        let full = run_baseline(&engine, &sched, "soft");
        let every = (full.outcome.ticks / 4).max(1);
        let mut log = SnapshotLog::new();
        let capturing = capturing_engine(&ws, 0.2, every);
        run_capturing(&capturing, &sched, "soft", &mut log);
        for (tick, bytes) in log.snapshots() {
            let snap = CrawlSnapshot::from_bytes(bytes).expect("captured snapshot must parse");
            let mut strategy = make_strategy("soft");
            let classifier = make_classifier("soft", &ws);
            let mut relog = SnapshotLog::new();
            let mut sinks: [&mut dyn EventSink; 1] = [&mut relog];
            capturing
                .resume(&snap, strategy.as_mut(), classifier.as_ref(), &mut sinks)
                .expect("capture-run snapshot must resume");
            let (first_tick, first_bytes) = &relog.snapshots()[0];
            assert_eq!(first_tick, tick, "K={k}");
            assert_eq!(
                first_bytes, bytes,
                "K={k}: re-capture at t{tick} is not byte-identical to the input snapshot"
            );
        }
    }
}

/// Politeness state (the hosts cooling at the capture tick and when
/// each wakes) survives the round-trip: a politeness-heavy schedule
/// resumes bit-identically too, at four slots and at one — the one
/// one-slot crawl that captures over the sharded frontier.
#[test]
fn resume_preserves_politeness_state() {
    let ws = space();
    let engine = CrawlEngine::new(&ws, engine_config(&ws, 0.2));
    for k in [4u32, 1] {
        let sched = SchedConfig {
            slots: k,
            politeness_gap: 2,
            politeness_spread: 3,
            ..SchedConfig::default()
        };
        let full = run_baseline(&engine, &sched, "soft");
        let every = (full.outcome.ticks / 5).max(1);
        let mut log = SnapshotLog::new();
        let cap = run_capturing(&capturing_engine(&ws, 0.2, every), &sched, "soft", &mut log);
        assert_eq!(cap, full, "K={k}: capture perturbed the polite crawl");
        for i in pick_indices(&log, full.outcome.crawled) {
            let (tick, bytes) = &log.snapshots()[i];
            let snap = CrawlSnapshot::from_bytes(bytes).expect("captured snapshot must parse");
            let resumed = run_resumed(&engine, &snap, "soft");
            assert_continues(&format!("polite K={k} @t{tick}"), &full, &snap, &resumed);
        }
    }
}

/// Snapshot bytes are invariant under the generation thread count: the
/// space regenerates identically for any generation chunking and the
/// scheduler never looks at thread count, so the framed snapshot
/// stream — tick for tick, byte for byte — stays put.
#[test]
fn snapshot_bytes_are_invariant_across_thread_settings() {
    let mut baseline: Option<Vec<(u64, Vec<u8>)>> = None;
    for threads in [1, 4] {
        let ws = space_on(threads);
        let engine = capturing_engine(&ws, 0.2, 200);
        let sched = SchedConfig {
            slots: 8,
            ..SchedConfig::default()
        };
        let mut log = SnapshotLog::new();
        run_capturing(&engine, &sched, "soft", &mut log);
        assert!(!log.is_empty());
        let snaps = log.snapshots().to_vec();
        match &baseline {
            None => baseline = Some(snaps),
            Some(b) => assert_eq!(
                b, &snaps,
                "snapshot bytes changed on a space generated on {threads} threads"
            ),
        }
    }
}

// The golden cross-check: uninterrupted capture runs on the zero-fault
// cells must still hash to the constants `sched_conformance` pins
// (copied verbatim), so checkpointing cannot drift the pinned
// schedules. The fold replicates `sched_conformance::report_hash`
// field for field.
const GOLDEN_K1: [u64; 3] = [
    0x5af6_b0d1_35f4_3b35, // breadth_first/oracle
    0x8cbf_d1f5_bf63_739f, // soft_focused/meta
    0x6080_ba7a_e671_6b67, // limited_distance_3/oracle
];
const GOLDEN_K8: [u64; 3] = [
    0x18ba_6448_afa8_6b58, // breadth_first/oracle
    0xe3fc_e642_5692_c557, // soft_focused/meta
    0xe1c6_e933_dab2_3754, // limited_distance_3/oracle
];

fn report_hash(ws: &WebSpace, strat: &str, run: &RunOut) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold_bytes = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
    };
    fold_bytes(make_strategy(strat).name().as_bytes());
    fold_bytes(make_classifier(strat, ws).name().as_bytes());
    let mut fold = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
    };
    fold(run.samples.len() as u64);
    for s in &run.samples {
        fold(s.crawled);
        fold(s.relevant);
        fold(s.queue_size as u64);
    }
    fold(run.outcome.crawled);
    fold(run.outcome.relevant_crawled);
    fold(ws.total_relevant() as u64);
    fold(run.outcome.max_pending as u64);
    fold(run.outcome.total_pushes);
    fold(run.visits.len() as u64);
    for &v in &run.visits {
        fold(v as u64);
    }
    h
}

#[test]
fn capturing_runs_still_match_the_conformance_goldens() {
    let ws = space();
    let mut bad = Vec::new();
    for (k, goldens) in [(1u32, GOLDEN_K1), (8, GOLDEN_K8)] {
        for (strat, golden) in STRATEGIES.iter().zip(goldens) {
            let engine = capturing_engine(&ws, 0.0, 1_500);
            let sched = SchedConfig {
                slots: k,
                ..SchedConfig::default()
            };
            let mut log = SnapshotLog::new();
            let cap = run_capturing(&engine, &sched, strat, &mut log);
            assert!(!log.is_empty(), "{strat} K={k}: no snapshot captured");
            let got = report_hash(&ws, strat, &cap);
            if got != golden {
                bad.push(format!(
                    "{strat}: K={k} capturing hash {got:#018x} != golden {golden:#018x}"
                ));
            }
        }
    }
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}
