//! Property and corruption tests for the crawl snapshot codec.
//!
//! Round-trip: over random spaces, schedules, fault rates, budgets and
//! strategies, every snapshot a capture run emits (a) survives
//! `to_bytes` → `from_bytes` unchanged and (b) resumes into the exact
//! uninterrupted end state. Corruption: truncation at any length, any
//! single flipped byte, wrong version tags, foreign magic and appended
//! garbage all come back as typed [`SnapshotError`]s — never a panic —
//! and resuming against the wrong space, engine config or strategy
//! shape, under another strategy or classifier, or with a strategy that
//! keeps state outside the frontier, is refused before any state is
//! touched.

use langcrawl_core::classifier::{Classifier, MetaClassifier, OracleClassifier};
use langcrawl_core::engine::{CrawlEngine, EngineConfig, EngineOutcome, EngineScratch};
use langcrawl_core::event::{EventSink, VisitRecorder};
use langcrawl_core::retry::RetryPolicy;
use langcrawl_core::sched::SchedConfig;
use langcrawl_core::strategy::{
    BacklinkCount, BreadthFirst, ContextGraphStrategy, HitsStrategy, LimitedDistanceStrategy,
    OnlineContextGraphStrategy, OnlinePageRank, SimpleStrategy, Strategy,
};
use langcrawl_core::{CrawlSnapshot, SnapshotError, SnapshotLog};
use langcrawl_minicheck::{check, Gen};
use langcrawl_webgraph::{FaultConfig, GeneratorConfig, PageId, WebSpace};

fn arb_space(g: &mut Gen) -> WebSpace {
    let scale = g.u32(600..2_200);
    let seed = g.u64(1..1_000);
    GeneratorConfig::thai_like().scaled(scale).build(seed)
}

fn arb_sched(g: &mut Gen) -> SchedConfig {
    SchedConfig {
        slots: g.u32(1..8),
        politeness_gap: g.u64(0..3),
        politeness_spread: g.u64(0..3),
    }
}

fn arb_config(g: &mut Gen, ws: &WebSpace) -> EngineConfig {
    EngineConfig {
        max_pages: g.option(|g| g.u64(100..700)),
        fault: if g.bool(0.5) {
            FaultConfig::with_rate(g.f64(0.05..0.3))
        } else {
            ws.fault().clone()
        },
        ..EngineConfig::default()
    }
}

/// Outcome plus visit order — the observable footprint compared across
/// interrupted and uninterrupted runs.
fn run_to_end(
    engine: &CrawlEngine<'_>,
    sched: &SchedConfig,
    strategy: &mut dyn Strategy,
    classifier: &dyn Classifier,
) -> (EngineOutcome, Vec<PageId>) {
    let mut visits = VisitRecorder::new();
    let (outcome, _) = {
        let mut sinks: [&mut dyn EventSink; 1] = [&mut visits];
        engine.run_scheduled(
            sched,
            strategy,
            classifier,
            &mut sinks,
            &mut EngineScratch::new(),
        )
    };
    (outcome, visits.into_visited())
}

/// Round-trip + resume-equality over arbitrary configurations: the
/// engine-level analogue of `resume_parity`'s pinned matrix.
#[test]
fn arbitrary_snapshots_roundtrip_and_resume_to_the_same_end_state() {
    check(24, |g| {
        let ws = arb_space(g);
        let sched = arb_sched(g);
        let config = arb_config(g, &ws);
        let engine = CrawlEngine::new(&ws, config.clone());
        let classifier = OracleClassifier::target(ws.target_language());
        let kind = g.u8(0..=2);
        let strategy_of = |k: u8| -> Box<dyn Strategy> {
            match k {
                0 => Box::new(BreadthFirst::new()),
                1 => Box::new(SimpleStrategy::soft()),
                _ => Box::new(LimitedDistanceStrategy::prioritized(3)),
            }
        };
        let (full_outcome, full_visits) =
            run_to_end(&engine, &sched, strategy_of(kind).as_mut(), &classifier);
        let every = g.u64(1..(full_outcome.ticks / 2).max(2));
        let capturing = CrawlEngine::new(
            &ws,
            EngineConfig {
                snapshot_every: Some(every),
                ..config
            },
        );
        let mut log = SnapshotLog::new();
        let (cap_outcome, _) = {
            let mut visits = VisitRecorder::new();
            let mut sinks: [&mut dyn EventSink; 2] = [&mut visits, &mut log];
            capturing.run_scheduled(
                &sched,
                strategy_of(kind).as_mut(),
                &classifier,
                &mut sinks,
                &mut EngineScratch::new(),
            )
        };
        assert_eq!(cap_outcome, full_outcome, "capture perturbed the crawl");
        assert!(!log.is_empty(), "no snapshot captured at every={every}");
        let (_, bytes) = &log.snapshots()[g.usize(0..log.len())];
        let snap = CrawlSnapshot::from_bytes(bytes).expect("captured snapshot must parse");
        assert_eq!(
            CrawlSnapshot::from_bytes(&snap.to_bytes()).expect("re-encoded bytes must parse"),
            snap,
            "to_bytes/from_bytes round trip changed the snapshot"
        );
        let (resumed_outcome, resumed_visits) = {
            let mut strategy = strategy_of(kind);
            let mut visits = VisitRecorder::new();
            let mut sinks: [&mut dyn EventSink; 1] = [&mut visits];
            let (o, _) = engine
                .resume(&snap, strategy.as_mut(), &classifier, &mut sinks)
                .expect("snapshot from a capture run must resume");
            (o, visits.into_visited())
        };
        assert_eq!(resumed_outcome, full_outcome, "resumed outcome diverged");
        assert_eq!(
            resumed_visits,
            full_visits[snap.crawled() as usize..],
            "resumed visits are not the uninterrupted suffix"
        );
    });
}

/// One pinned mid-crawl snapshot for the corruption tests.
fn fixture() -> (WebSpace, EngineConfig, Vec<u8>) {
    let ws = GeneratorConfig::thai_like().scaled(2_000).build(7);
    let config = EngineConfig {
        fault: FaultConfig::with_rate(0.2),
        ..EngineConfig::default()
    };
    let engine = CrawlEngine::new(
        &ws,
        EngineConfig {
            snapshot_every: Some(150),
            ..config.clone()
        },
    );
    let sched = SchedConfig {
        slots: 4,
        ..SchedConfig::default()
    };
    let mut log = SnapshotLog::new();
    let mut strategy = SimpleStrategy::soft();
    let classifier = OracleClassifier::target(ws.target_language());
    let mut sinks: [&mut dyn EventSink; 1] = [&mut log];
    engine.run_scheduled(
        &sched,
        &mut strategy,
        &classifier,
        &mut sinks,
        &mut EngineScratch::new(),
    );
    let (_, bytes) = &log.snapshots()[log.len() / 2];
    (ws, config, bytes.clone())
}

/// Truncating the file at *any* length yields a typed error, never a
/// panic and never a silently shortened crawl.
#[test]
fn every_truncation_is_rejected() {
    let (_, _, bytes) = fixture();
    // Every length near the header plus a sweep through the payload.
    let mut cuts: Vec<usize> = (0..32.min(bytes.len())).collect();
    cuts.extend((0..bytes.len()).step_by(97));
    cuts.push(bytes.len() - 1);
    for cut in cuts {
        let err = CrawlSnapshot::from_bytes(&bytes[..cut])
            .expect_err("truncated snapshot must not parse");
        assert!(
            matches!(
                err,
                SnapshotError::Truncated
                    | SnapshotError::BadMagic
                    | SnapshotError::UnsupportedVersion(_)
            ),
            "cut at {cut}: unexpected error {err:?}"
        );
    }
}

/// Any single flipped byte — header, length, payload or checksum — is
/// caught. The checksum covers the payload; the frame fields are each
/// validated structurally.
#[test]
fn every_single_byte_flip_is_rejected() {
    let (_, _, bytes) = fixture();
    check(64, |g| {
        let i = g.usize(0..bytes.len());
        let mut bad = bytes.clone();
        bad[i] ^= 1 << g.u8(0..=7);
        CrawlSnapshot::from_bytes(&bad).expect_err("a corrupted snapshot must not parse");
    });
}

#[test]
fn flipped_checksum_byte_is_a_checksum_mismatch() {
    let (_, _, mut bytes) = fixture();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    assert_eq!(
        CrawlSnapshot::from_bytes(&bytes).unwrap_err(),
        SnapshotError::ChecksumMismatch
    );
}

#[test]
fn wrong_version_tag_is_unsupported() {
    let (_, _, mut bytes) = fixture();
    // The version u32 sits right after the 8-byte magic.
    bytes[8] = 99;
    assert_eq!(
        CrawlSnapshot::from_bytes(&bytes).unwrap_err(),
        SnapshotError::UnsupportedVersion(99)
    );
}

#[test]
fn foreign_magic_is_rejected() {
    let (_, _, mut bytes) = fixture();
    bytes[0] = b'X';
    assert_eq!(
        CrawlSnapshot::from_bytes(&bytes).unwrap_err(),
        SnapshotError::BadMagic
    );
}

#[test]
fn appended_garbage_is_rejected() {
    let (_, _, mut bytes) = fixture();
    bytes.push(0);
    assert_eq!(
        CrawlSnapshot::from_bytes(&bytes).unwrap_err(),
        SnapshotError::Malformed("trailing bytes after checksum")
    );
}

/// Resuming against a *different* space — regenerated from another seed
/// — is refused by the fingerprint check before any decoding of state.
#[test]
fn mismatched_space_fingerprint_is_rejected() {
    let (_, config, bytes) = fixture();
    let snap = CrawlSnapshot::from_bytes(&bytes).expect("fixture must parse");
    let other = GeneratorConfig::thai_like().scaled(2_000).build(8);
    let engine = CrawlEngine::new(&other, config);
    let mut strategy = SimpleStrategy::soft();
    let classifier = OracleClassifier::target(other.target_language());
    let mut sinks: [&mut dyn EventSink; 0] = [];
    let err = engine
        .resume(&snap, &mut strategy, &classifier, &mut sinks)
        .expect_err("resume on the wrong space must be refused");
    assert!(
        matches!(err, SnapshotError::SpaceMismatch { .. }),
        "unexpected error {err:?}"
    );
    // verify_space reports the same refusal without an engine.
    assert!(snap.verify_space(&other).is_err());
}

/// Resuming under a different engine configuration (here: another
/// retry policy) is refused — a checkpoint cannot silently continue
/// under different crawl semantics.
#[test]
fn mismatched_engine_config_is_rejected() {
    let (ws, config, bytes) = fixture();
    let snap = CrawlSnapshot::from_bytes(&bytes).expect("fixture must parse");
    let engine = CrawlEngine::new(
        &ws,
        EngineConfig {
            retry: RetryPolicy {
                max_attempts: 7,
                ..config.retry
            },
            ..config
        },
    );
    let mut strategy = SimpleStrategy::soft();
    let classifier = OracleClassifier::target(ws.target_language());
    let mut sinks: [&mut dyn EventSink; 0] = [];
    assert_eq!(
        engine
            .resume(&snap, &mut strategy, &classifier, &mut sinks)
            .unwrap_err(),
        SnapshotError::ConfigMismatch("engine configuration")
    );
}

/// Resuming with a strategy of a different shape (level count) is
/// refused — the frontier's ring structure would not line up.
#[test]
fn mismatched_strategy_shape_is_rejected() {
    let (ws, config, bytes) = fixture();
    let snap = CrawlSnapshot::from_bytes(&bytes).expect("fixture must parse");
    let engine = CrawlEngine::new(&ws, config);
    // The fixture crawled with soft (2 levels); breadth-first has 1.
    let mut strategy = BreadthFirst::new();
    let classifier = OracleClassifier::target(ws.target_language());
    let mut sinks: [&mut dyn EventSink; 0] = [];
    assert_eq!(
        engine
            .resume(&snap, &mut strategy, &classifier, &mut sinks)
            .unwrap_err(),
        SnapshotError::ConfigMismatch("strategy level count")
    );
}

/// Resuming the fixture (soft-focused, oracle classifier) under another
/// strategy or classifier is refused with the run fingerprints.
fn assert_run_mismatch(strategy: &mut dyn Strategy, classifier: &dyn Classifier) {
    let (ws, config, bytes) = fixture();
    let snap = CrawlSnapshot::from_bytes(&bytes).expect("fixture must parse");
    let engine = CrawlEngine::new(&ws, config);
    let mut sinks: [&mut dyn EventSink; 0] = [];
    let err = engine
        .resume(&snap, strategy, classifier, &mut sinks)
        .expect_err("a snapshot must not resume under another run's strategy or classifier");
    match err {
        SnapshotError::RunMismatch { expected, found } => {
            assert_eq!(expected, snap.run_fingerprint());
            assert_ne!(found, expected);
        }
        other => panic!("unexpected error {other:?}"),
    }
}

/// A strategy of the same shape that keeps no state, but is not the one
/// the snapshot was taken under, is refused: prioritized limited
/// distance with N = 1 has soft-focused's two levels.
#[test]
fn mismatched_strategy_is_rejected() {
    let ws = GeneratorConfig::thai_like().scaled(2_000).build(7);
    let mut other = LimitedDistanceStrategy::prioritized(1);
    assert_eq!(other.levels(), SimpleStrategy::soft().levels());
    assert_run_mismatch(&mut other, &OracleClassifier::target(ws.target_language()));
}

/// The same strategy under another classifier is refused too: the
/// classifier decides what the strategy admits.
#[test]
fn mismatched_classifier_is_rejected() {
    let ws = GeneratorConfig::thai_like().scaled(2_000).build(7);
    assert_run_mismatch(
        &mut SimpleStrategy::soft(),
        &MetaClassifier::target(ws.target_language()),
    );
}

/// A mid-crawl snapshot of a crawl by `make`'s strategy, resumed with a
/// fresh instance of it, is refused before anything is decoded: the
/// snapshot holds none of the state the strategy keeps outside the
/// frontier, so the fresh instance would not continue the crawl it
/// interrupted.
fn assert_resume_refused(make: impl Fn(&WebSpace) -> Box<dyn Strategy>) {
    let ws = GeneratorConfig::thai_like().scaled(2_000).build(7);
    let engine = CrawlEngine::new(
        &ws,
        EngineConfig {
            snapshot_every: Some(150),
            ..EngineConfig::default()
        },
    );
    let sched = SchedConfig::default();
    let classifier = OracleClassifier::target(ws.target_language());
    let mut log = SnapshotLog::new();
    let mut sinks: [&mut dyn EventSink; 1] = [&mut log];
    engine.run_scheduled(
        &sched,
        make(&ws).as_mut(),
        &classifier,
        &mut sinks,
        &mut EngineScratch::new(),
    );
    let (_, bytes) = &log.snapshots()[log.len() / 2];
    let snap = CrawlSnapshot::from_bytes(bytes).expect("capture must parse");
    let mut fresh = make(&ws);
    let mut sinks: [&mut dyn EventSink; 0] = [];
    let err = engine
        .resume(&snap, fresh.as_mut(), &classifier, &mut sinks)
        .expect_err("a strategy that keeps state must not resume");
    assert_eq!(err, SnapshotError::StatefulStrategy(fresh.name()));
}

#[test]
fn backlink_count_refuses_to_resume() {
    assert_resume_refused(|_| Box::new(BacklinkCount::new()));
}

#[test]
fn online_pagerank_refuses_to_resume() {
    assert_resume_refused(|_| Box::new(OnlinePageRank::new()));
}

#[test]
fn hits_strategy_refuses_to_resume() {
    assert_resume_refused(|_| Box::new(HitsStrategy::new()));
}

#[test]
fn online_context_graph_refuses_to_resume() {
    assert_resume_refused(|_| Box::new(OnlineContextGraphStrategy::new(2)));
}

/// The noise draw's counter is state; without noise the idealized
/// context graph is a function of the space and may resume.
#[test]
fn noisy_context_graph_refuses_to_resume() {
    assert_resume_refused(|ws| Box::new(ContextGraphStrategy::new(ws, 3).with_noise(100)));
    let ws = GeneratorConfig::thai_like().scaled(2_000).build(7);
    assert!(!ContextGraphStrategy::new(&ws, 3).keeps_state());
}

/// Arbitrary byte soup never panics the decoder.
#[test]
fn random_bytes_never_panic_the_decoder() {
    check(128, |g| {
        let noise = g.bytes(0..200);
        let _ = CrawlSnapshot::from_bytes(&noise);
    });
}

/// The [`CrawlEvent::Snapshot`] contract over a faulted 4-slot run:
/// captures arrive in strictly increasing tick order, every event's
/// `tick` is the tick recorded in its bytes, and without a cadence a
/// sink that wants `SNAPSHOT` receives no snapshot at all.
///
/// [`CrawlEvent::Snapshot`]: langcrawl_core::CrawlEvent::Snapshot
#[test]
fn snapshot_events_carry_their_own_tick_and_need_a_cadence() -> Result<(), SnapshotError> {
    let ws = GeneratorConfig::thai_like().scaled(2_000).build(7);
    let sched = SchedConfig {
        slots: 4,
        ..SchedConfig::default()
    };
    let classifier = OracleClassifier::target(ws.target_language());
    let run = |snapshot_every: Option<u64>| {
        let engine = CrawlEngine::new(
            &ws,
            EngineConfig {
                fault: FaultConfig::with_rate(0.2),
                snapshot_every,
                ..EngineConfig::default()
            },
        );
        let mut log = SnapshotLog::new();
        let mut sinks: [&mut dyn EventSink; 1] = [&mut log];
        let (outcome, _) = engine.run_scheduled(
            &sched,
            &mut SimpleStrategy::soft(),
            &classifier,
            &mut sinks,
            &mut EngineScratch::new(),
        );
        assert!(outcome.retries > 0, "the run must exercise the retry path");
        log
    };
    let log = run(Some(150));
    assert!(log.len() > 2, "only {} snapshots captured", log.len());
    for pair in log.snapshots().windows(2) {
        assert!(
            pair[0].0 < pair[1].0,
            "snapshot ticks must strictly increase: {} then {}",
            pair[0].0,
            pair[1].0
        );
    }
    for (tick, bytes) in log.snapshots() {
        assert_eq!(CrawlSnapshot::from_bytes(bytes)?.tick(), *tick);
    }
    assert!(
        run(None).is_empty(),
        "an engine without a cadence must emit no Snapshot event"
    );
    Ok(())
}
