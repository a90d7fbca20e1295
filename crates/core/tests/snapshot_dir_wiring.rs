//! The snapshot directory wiring, in a test binary of its own: the test
//! sets `LANGCRAWL_SNAPSHOT_DIR` for the `Simulator` runs it drives, and
//! changing the environment while sibling test threads read it (every
//! space generation reads `LANGCRAWL_THREADS`) is a data race in the C
//! library. Alone in its binary, the test has no sibling to race with.

use langcrawl_core::classifier::OracleClassifier;
use langcrawl_core::engine::{CrawlEngine, EngineConfig};
use langcrawl_core::event::EventSink;
use langcrawl_core::sim::{SimConfig, Simulator};
use langcrawl_core::strategy::{BreadthFirst, SimpleStrategy, Strategy};
use langcrawl_core::CrawlSnapshot;
use langcrawl_webgraph::GeneratorConfig;

/// The config-driven wiring end to end: a `Simulator` with a capture
/// cadence and `LANGCRAWL_SNAPSHOT_DIR` set writes framed
/// `crawl-<space fingerprint>-<run fingerprint>-t<tick>.snap` files that
/// parse and resume into the reported end state — under the
/// builder-configured 4-slot scheduler, and under a field-configured
/// default (single-slot) schedule. Two strategies crawl the same space
/// into one directory and leave disjoint file sets: the second run
/// replaces none of the first one's files.
#[test]
fn simulator_env_wiring_writes_resumable_files() {
    let base = std::env::temp_dir().join(format!("langcrawl-snap-wiring-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let ws = GeneratorConfig::thai_like().scaled(2_000).build(7);
    let classifier = OracleClassifier::target(ws.target_language());
    let runs = [
        (
            "k4",
            SimConfig::default()
                .with_workers(4)
                .with_snapshot_every(300),
        ),
        (
            "k1",
            SimConfig {
                snapshot_every: Some(300),
                ..SimConfig::default()
            },
        ),
    ];
    let make_strategy = |name: &str| -> Box<dyn Strategy> {
        match name {
            "soft" => Box::new(SimpleStrategy::soft()),
            _ => Box::new(BreadthFirst::new()),
        }
    };
    // Every file in `dir` as (name, bytes), by name.
    let listing = |dir: &std::path::Path| {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap_or_else(|e| panic!("snapshot dir {dir:?} must exist: {e}"))
            .map(|e| {
                let path = e.expect("dir entry").path();
                let name = path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .expect("file name");
                let bytes = std::fs::read(&path).expect("snapshot file must read");
                (name.to_string(), bytes)
            })
            .collect();
        files.sort();
        files
    };
    for (label, config) in runs {
        let dir = base.join(label);
        let mut earlier: Vec<(String, Vec<u8>)> = Vec::new();
        for strat in ["soft", "bf"] {
            let prior = std::env::var("LANGCRAWL_SNAPSHOT_DIR").ok();
            std::env::set_var("LANGCRAWL_SNAPSHOT_DIR", &dir);
            let mut sim = Simulator::new(&ws, config.clone());
            let report = sim.run(make_strategy(strat).as_mut(), &classifier);
            match prior {
                Some(v) => std::env::set_var("LANGCRAWL_SNAPSHOT_DIR", v),
                None => std::env::remove_var("LANGCRAWL_SNAPSHOT_DIR"),
            }
            let files = listing(&dir);
            let (kept, written): (Vec<_>, Vec<_>) =
                files.into_iter().partition(|f| earlier.contains(f));
            assert_eq!(
                kept.len(),
                earlier.len(),
                "{label}: the {strat} run replaced or removed a file of an earlier run"
            );
            assert!(
                !written.is_empty(),
                "{label}: {strat} wrote no snapshot file"
            );
            let mut run_fp = None;
            for (name, bytes) in &written {
                let snap = CrawlSnapshot::from_bytes(bytes).expect("written snapshot must parse");
                let fp = *run_fp.get_or_insert(snap.run_fingerprint());
                assert_eq!(
                    snap.run_fingerprint(),
                    fp,
                    "{label}: {strat} wrote two runs"
                );
                let prefix = format!("crawl-{:016x}-{fp:016x}-t", ws.identity_fingerprint());
                assert!(
                    name.starts_with(&prefix) && name.ends_with(".snap"),
                    "{label}: {name} does not name its run {prefix}"
                );
            }
            let snap = CrawlSnapshot::from_bytes(&written[written.len() / 2].1)
                .expect("written snapshot must parse");
            snap.verify_space(&ws).expect("fingerprint must match");
            let engine = CrawlEngine::new(
                &ws,
                EngineConfig {
                    snapshot_every: Some(300),
                    fault: ws.fault().clone(),
                    ..EngineConfig::default()
                },
            );
            let mut sinks: [&mut dyn EventSink; 0] = [];
            let (outcome, _) = engine
                .resume(
                    &snap,
                    make_strategy(strat).as_mut(),
                    &classifier,
                    &mut sinks,
                )
                .expect("written snapshot must resume");
            assert_eq!(outcome.crawled, report.crawled, "{label} {strat}");
            assert_eq!(
                outcome.relevant_crawled, report.relevant_crawled,
                "{label} {strat}"
            );
            earlier.extend(written);
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}
