//! Parallel experiment execution and result output.

use langcrawl_core::classifier::Classifier;
use langcrawl_core::metrics::CrawlReport;
use langcrawl_core::sim::{SimConfig, Simulator};
use langcrawl_core::strategy::Strategy;
use langcrawl_webgraph::parallel::effective_threads;
use langcrawl_webgraph::WebSpace;
use std::io::{self, Write};
use std::path::PathBuf;

/// A named constructor for a strategy (strategies are stateful, so each
/// run builds a fresh one).
pub type StrategyFactory<'a> = Box<dyn Fn(&WebSpace) -> Box<dyn Strategy> + Sync + 'a>;

/// Read the experiment scale from `LANGCRAWL_SCALE`, defaulting to the
/// preset's own size when unset or unparsable.
pub fn env_scale(default: u32) -> u32 {
    std::env::var("LANGCRAWL_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Read the generator seed from `LANGCRAWL_SEED` (default 42).
pub fn env_seed() -> u64 {
    std::env::var("LANGCRAWL_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42)
}

/// The default figure-run scale (URLs) when the preset doesn't override.
pub fn default_scale() -> u32 {
    env_scale(200_000)
}

/// Run several strategies over one web space concurrently (scoped
/// threads; the space is shared immutably) and return the reports in
/// input order.
///
/// The worker pool is capped at [`effective_threads`] (the
/// `LANGCRAWL_THREADS` knob, default: available parallelism) — figure
/// harnesses that sweep dozens of strategy variants no longer spawn one
/// unbounded thread each. Workers claim strategies off a shared atomic
/// cursor, so a long-running strategy doesn't idle the rest of the pool.
///
/// Panics if any strategy run panics, naming the strategy (its label
/// from `factories`) and forwarding the panic message.
pub fn run_parallel(
    ws: &WebSpace,
    factories: &[(&str, StrategyFactory<'_>)],
    classifier: &(dyn Classifier + Sync),
    config: &SimConfig,
) -> Vec<CrawlReport> {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let workers = effective_threads().min(factories.len()).max(1);
    let cursor = AtomicUsize::new(0);
    let mut results: Vec<Vec<(usize, Result<CrawlReport, String>)>> = Vec::new();
    std::thread::scope(|scope| {
        let cursor = &cursor;
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some((name, factory)) = factories.get(i) else {
                            return done;
                        };
                        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            let mut strategy = factory(ws);
                            let mut sim = Simulator::new(ws, config.clone());
                            sim.run(strategy.as_mut(), classifier)
                        }));
                        done.push((
                            i,
                            run.map_err(|payload| {
                                let msg = payload
                                    .downcast_ref::<&str>()
                                    .map(|s| s.to_string())
                                    .or_else(|| payload.downcast_ref::<String>().cloned())
                                    .unwrap_or_else(|| "non-string panic payload".into());
                                format!("strategy `{name}` panicked: {msg}")
                            }),
                        ));
                    }
                })
            })
            .collect();
        results = handles
            .into_iter()
            .map(|h| h.join().expect("experiment worker thread died"))
            .collect();
    });

    let mut out: Vec<Option<CrawlReport>> = Vec::new();
    out.resize_with(factories.len(), || None);
    for (i, run) in results.into_iter().flatten() {
        match run {
            Ok(report) => out[i] = Some(report),
            Err(msg) => panic!("{msg}"),
        }
    }
    out.into_iter().map(|r| r.expect("report filled")).collect()
}

/// The directory experiment artifacts (CSVs, gnuplot scripts) go to:
/// `LANGCRAWL_RESULTS_DIR` when set, else `results/` relative to the
/// cwd. The override is what lets figure binaries run from any working
/// directory (e.g. invoked by CI or an editor task from the repo root).
pub fn results_dir() -> PathBuf {
    std::env::var_os("LANGCRAWL_RESULTS_DIR")
        .map_or_else(|| PathBuf::from("results"), PathBuf::from)
}

/// Write a report's series CSV under [`results_dir`] (created on
/// demand) and return the path written.
pub fn write_csv(report: &CrawlReport, name: &str) -> io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path)?;
    report.write_csv(&mut f)?;
    f.flush()?;
    Ok(path)
}

/// Write a report's CSV and print where it went — or why it didn't.
/// Figure binaries treat output as best-effort (a read-only checkout
/// still prints its tables) but the failure is always reported.
pub fn write_csv_reporting(report: &CrawlReport, name: &str) {
    match write_csv(report, name) {
        Ok(path) => println!("  [csv] {}", path.display()),
        Err(e) => eprintln!("  [csv] cannot write {name}.csv: {e}"),
    }
}

/// Print an aligned multi-curve table: one row per x step, one column
/// per report; `value` extracts the plotted quantity at each sample.
pub fn print_table(
    title: &str,
    reports: &[CrawlReport],
    rows: usize,
    value: impl Fn(&CrawlReport, usize) -> Option<f64>,
) {
    println!("\n{title}");
    print!("{:>12}", "crawled");
    for r in reports {
        print!(" {:>26}", truncate(&r.strategy, 26));
    }
    println!();
    let max_crawled = reports.iter().map(|r| r.crawled).max().unwrap_or(0);
    for i in 0..rows {
        let x = max_crawled * (i as u64 + 1) / rows as u64;
        print!("{x:>12}");
        for r in reports {
            // Nearest sample at or before x.
            let idx = r.samples.partition_point(|s| s.crawled <= x);
            let v = idx.checked_sub(1).and_then(|j| value(r, j));
            match v {
                Some(v) => print!(" {v:>26.4}"),
                None => print!(" {:>26}", "-"),
            }
        }
        println!();
    }
}

/// Truncate to at most `n` bytes without splitting a UTF-8 sequence:
/// strategy names can be non-ASCII (e.g. Thai script), where a blind
/// `&s[..n]` panics on a char boundary.
fn truncate(s: &str, n: usize) -> &str {
    if s.len() <= n {
        return s;
    }
    let mut end = n;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

#[cfg(test)]
mod tests {
    use super::*;
    use langcrawl_core::classifier::OracleClassifier;
    use langcrawl_core::strategy::{BreadthFirst, SimpleStrategy};
    use langcrawl_webgraph::GeneratorConfig;

    #[test]
    fn parallel_runs_match_sequential() {
        let ws = GeneratorConfig::thai_like().scaled(3_000).build(2);
        let oracle = OracleClassifier::target(ws.target_language());
        let factories: Vec<(&str, StrategyFactory)> = vec![
            (
                "bf",
                Box::new(|_: &WebSpace| Box::new(BreadthFirst::new()) as Box<dyn Strategy>),
            ),
            (
                "soft",
                Box::new(|_: &WebSpace| Box::new(SimpleStrategy::soft()) as Box<dyn Strategy>),
            ),
        ];
        let reports = run_parallel(&ws, &factories, &oracle, &SimConfig::default());
        assert_eq!(reports.len(), 2);
        // Sequential reference.
        let mut sim = Simulator::new(&ws, SimConfig::default());
        let seq = sim.run(&mut BreadthFirst::new(), &oracle);
        assert_eq!(reports[0].samples, seq.samples);
        assert_eq!(reports[0].crawled, seq.crawled);
    }

    #[test]
    fn parallel_caps_workers_below_strategy_count() {
        // More strategies than any plausible core count: the chunked
        // queue must still produce every report, in input order.
        let ws = GeneratorConfig::thai_like().scaled(2_000).build(4);
        let oracle = OracleClassifier::target(ws.target_language());
        let names: Vec<String> = (0..40).map(|i| format!("bf{i}")).collect();
        let factories: Vec<(&str, StrategyFactory)> = names
            .iter()
            .map(|n| {
                (
                    n.as_str(),
                    Box::new(|_: &WebSpace| Box::new(BreadthFirst::new()) as Box<dyn Strategy>)
                        as StrategyFactory,
                )
            })
            .collect();
        let reports = run_parallel(&ws, &factories, &oracle, &SimConfig::default());
        assert_eq!(reports.len(), 40);
        assert!(reports.windows(2).all(|w| w[0].crawled == w[1].crawled));
    }

    #[test]
    fn panicking_strategy_is_named() {
        struct Exploding;
        impl Strategy for Exploding {
            fn name(&self) -> String {
                "exploding".into()
            }
            fn levels(&self) -> usize {
                1
            }
            fn admit(
                &mut self,
                _view: &langcrawl_core::strategy::PageView<'_>,
                _out: &mut Vec<langcrawl_core::queue::Entry>,
            ) {
                panic!("boom in admit");
            }
        }
        let ws = GeneratorConfig::thai_like().scaled(2_000).build(4);
        let oracle = OracleClassifier::target(ws.target_language());
        let factories: Vec<(&str, StrategyFactory)> = vec![
            (
                "fine",
                Box::new(|_: &WebSpace| Box::new(BreadthFirst::new()) as Box<dyn Strategy>),
            ),
            (
                "exploding-strategy",
                Box::new(|_: &WebSpace| Box::new(Exploding) as Box<dyn Strategy>),
            ),
        ];
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_parallel(&ws, &factories, &oracle, &SimConfig::default())
        }))
        .expect_err("must propagate the panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("exploding-strategy") && msg.contains("boom in admit"),
            "panic must name the strategy: {msg}"
        );
    }

    #[test]
    fn env_helpers_default() {
        // (Env vars unset in the test harness.)
        assert_eq!(env_scale(123), 123);
        assert_eq!(env_seed(), 42);
    }

    #[test]
    fn truncate_is_char_boundary_safe() {
        // A Thai-script strategy name: every char is 3 bytes in UTF-8, so
        // most byte offsets fall inside a character.
        let thai = "กลยุทธ์เชิงลึกจำกัด"; // "limited-depth strategy"
        for n in 0..=thai.len() + 2 {
            let t = truncate(thai, n);
            assert!(t.len() <= n || thai.len() <= n);
            assert!(thai.starts_with(t));
        }
        assert_eq!(truncate("ascii-name", 5), "ascii");
        assert_eq!(truncate("short", 26), "short");
        // 26-byte table column on a Thai name must not panic (the
        // original regression: `&s[..26]` inside a 3-byte char).
        let col = truncate(thai, 26);
        assert!(col.len() <= 26);
        assert!(!col.is_empty());
    }
}
