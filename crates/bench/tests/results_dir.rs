//! Where `write_csv` puts a report, in a test binary of its own: the
//! test sets `LANGCRAWL_RESULTS_DIR`, and changing the environment while
//! sibling test threads read it (every space generation reads
//! `LANGCRAWL_THREADS`) is a data race in the C library. Alone in its
//! binary, the test has no sibling to race with.

use langcrawl_bench::runner::write_csv;
use langcrawl_core::classifier::OracleClassifier;
use langcrawl_core::sim::{SimConfig, Simulator};
use langcrawl_core::strategy::BreadthFirst;
use langcrawl_webgraph::GeneratorConfig;

#[test]
fn write_csv_writes_under_the_results_dir() {
    let ws = GeneratorConfig::thai_like().scaled(2_000).build(3);
    let oracle = OracleClassifier::target(ws.target_language());
    let mut sim = Simulator::new(&ws, SimConfig::default());
    let report = sim.run(&mut BreadthFirst::new(), &oracle);
    // `write_csv` resolves `results/` relative to the cwd; clean up
    // the artifact afterwards.
    write_csv(&report, "unit_test_report");
    let path = std::path::Path::new("results/unit_test_report.csv");
    let written = std::fs::read_to_string(path).expect("csv written");
    assert!(written.starts_with("crawled,"));
    std::fs::remove_file(path).ok();

    // LANGCRAWL_RESULTS_DIR redirects the output.
    let dir = std::env::temp_dir().join("langcrawl_results_test");
    std::env::set_var("LANGCRAWL_RESULTS_DIR", &dir);
    write_csv(&report, "unit_test_report");
    std::env::remove_var("LANGCRAWL_RESULTS_DIR");
    assert!(dir.join("unit_test_report.csv").exists());
    std::fs::remove_dir_all(&dir).ok();
}
