//! The reproduction binary: run the harnesses named on the command line,
//! or every harness when none is named, and report a pass/fail
//! dashboard — the "does this repository still reproduce the paper?"
//! button.
//!
//! A named harness runs at its own default scale (fig3 at 200k URLs,
//! fig4 at 300k, timing_ext at 40k, …), so `repro_all fig3` prints what
//! that harness alone prints. With no names, every harness runs at
//! `LANGCRAWL_SCALE=40000` unless the variable is set. An unknown name
//! fails and lists the known ones. A FAIL row on the dashboard names its
//! mismatched checks by number, counting from 1 in the order the harness
//! runs them.
//!
//! Runs in-process (no subprocess per figure): all harnesses share one
//! [`langcrawl_webgraph::SpaceCache`], so each `(preset, scale, seed)`
//! web space is generated exactly once for the whole dashboard.
//!
//! ```sh
//! cargo run --release -p langcrawl-bench --bin repro_all
//! cargo run --release -p langcrawl-bench --bin repro_all -- fig3 timing_ext
//! LANGCRAWL_SCALE=120000 cargo run --release -p langcrawl-bench --bin repro_all
//! ```

use langcrawl_bench::harnesses::{self, Harness};
use langcrawl_bench::runner::env_parse;
use std::panic::catch_unwind;
use std::time::Instant;

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<(&str, Harness)> = if names.is_empty() {
        harnesses::ALL.to_vec()
    } else {
        names.iter().map(|name| harness(name)).collect()
    };
    // Parse every setting before the first harness runs, so a malformed
    // one fails once, here, rather than in every harness.
    let scale: Option<u32> = env_parse("LANGCRAWL_SCALE");
    env_parse::<u64>("LANGCRAWL_SEED");
    env_parse::<u64>("LANGCRAWL_SNAPSHOT_EVERY");
    let scale = match scale {
        Some(scale) => scale.to_string(),
        // Harnesses read LANGCRAWL_SCALE themselves; pin the default so a
        // bare `repro_all` matches the historical 40k dashboard scale.
        None if names.is_empty() => {
            std::env::set_var("LANGCRAWL_SCALE", "40000");
            "40000".into()
        }
        None => "each harness's default".into(),
    };

    println!("== langcrawl reproduction check (LANGCRAWL_SCALE={scale}) ==\n");
    let mut rows = Vec::new();
    let started = Instant::now();
    for (name, run) in selected {
        println!("--- {name} ---");
        let t0 = Instant::now();
        let (status, verdicts) = match catch_unwind(run) {
            Ok(checks) if checks.0.contains(&false) => ("FAIL", checks.0),
            Ok(checks) => ("pass", checks.0),
            Err(_) => ("CRASH", Vec::new()),
        };
        let secs = t0.elapsed().as_secs_f64();
        println!();
        rows.push((name, status, verdicts, secs));
    }
    let failures = rows.iter().filter(|row| row.1 != "pass").count();
    println!("== dashboard ==");
    for (name, status, verdicts, secs) in &rows {
        let mismatched: Vec<String> = (1..)
            .zip(verdicts)
            .filter(|&(_, &pass)| !pass)
            .map(|(n, _)| n.to_string())
            .collect();
        let (oks, bad) = (verdicts.len() - mismatched.len(), mismatched.len());
        print!("  {name:<22} {status:<8} {oks:>2} checks ok, {bad} mismatched   ({secs:.1}s)");
        if mismatched.is_empty() {
            println!();
        } else {
            println!("  checks {}", mismatched.join(", "));
        }
    }
    println!(
        "\n{} of {} harnesses clean in {:.0}s (web spaces cached: {})",
        rows.len() - failures,
        rows.len(),
        started.elapsed().as_secs_f64(),
        langcrawl_webgraph::SpaceCache::global().len(),
    );
    if failures > 0 {
        std::process::exit(1);
    }
    println!("the reproduction holds.");
}

/// The harness called `name`, or exit listing the known names.
fn harness(name: &str) -> (&'static str, Harness) {
    if let Some(&entry) = harnesses::ALL.iter().find(|(known, _)| *known == name) {
        return entry;
    }
    let known: Vec<&str> = harnesses::ALL.iter().map(|(known, _)| *known).collect();
    eprintln!(
        "repro_all: unknown harness `{name}`; known harnesses: {}",
        known.join(" ")
    );
    std::process::exit(2);
}
