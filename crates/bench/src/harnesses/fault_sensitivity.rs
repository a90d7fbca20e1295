//! Fault-sensitivity sweep — how robust is each crawl strategy to an
//! unreliable web?
//!
//! The paper's virtual web answers every fetch deterministically; a
//! national-archive crawl faces timeouts, sporadic 503s and dead hosts.
//! This harness layers the seeded fault model over one shared Thai-like
//! space at increasing failure rates and reruns the paper's three
//! strategy families under the default retry policy, reporting harvest
//! **net of failures** (relevant pages delivered per fetch attempt,
//! retries charged) next to the usual per-page harvest.
//!
//! Expected shape: retry traffic grows with the failure rate while the
//! zero-rate sweep point stays bit-identical to a fault-free run (the
//! `fault_conformance` suite pins the same property at the report
//! level), and net harvest decays monotonically-ish as bandwidth is
//! diverted to retries.

use crate::figures::Checks;
use crate::{runner, Experiment};
use langcrawl_core::metrics::CrawlReport;
use langcrawl_core::sim::SimConfig;
use langcrawl_core::strategy::{BreadthFirst, SimpleStrategy};
use langcrawl_webgraph::{FaultConfig, GeneratorConfig};

/// Swept base transient-failure rates. `0.0` uses the all-zero config
/// (not `FaultConfig::with_rate(0.0)`, which still marks 1% of hosts
/// dead) so the first row doubles as a live conformance check.
const RATES: &[f64] = &[0.0, 0.05, 0.1, 0.2, 0.4];

fn experiment(fault: FaultConfig) -> Experiment {
    Experiment::new(
        "fault_sensitivity",
        "fault sensitivity",
        GeneratorConfig::thai_like(),
    )
    .oracle_classifier()
    .sim_config(SimConfig::default().with_faults(fault))
    .strategy("bf", |_| Box::new(BreadthFirst::new()))
    .strategy("soft", |_| Box::new(SimpleStrategy::soft()))
    .strategy("hard", |_| Box::new(SimpleStrategy::hard()))
}

/// Run this harness and return its checks' verdicts.
pub fn run() -> Checks {
    let mut checks = Checks::default();
    let scale = runner::env_scale(40_000);
    let seed = runner::env_seed();
    println!(
        "== Fault sensitivity: failure-rate sweep, Thai dataset (n={scale}, seed={seed}) ==\n"
    );
    println!(
        "{:>6} {:>6} {:>9} {:>9} {:>9} {:>8} {:>9} {:>8} {:>8}",
        "rate", "strat", "crawled", "attempts", "retries", "gave_up", "harvest", "net", "cover"
    );

    let ws = GeneratorConfig::thai_like()
        .scaled(scale)
        .build_shared(seed);
    let mut csv = String::from(
        "rate,strategy,crawled,attempts,retries,gave_up,harvest,net_harvest,coverage\n",
    );
    // reports[rate index] = one report per strategy (bf, soft, hard).
    let mut by_rate: Vec<Vec<CrawlReport>> = Vec::new();
    for &rate in RATES {
        let fault = if rate == 0.0 {
            FaultConfig::default()
        } else {
            FaultConfig::with_rate(rate)
        };
        let reports = experiment(fault).run_on(&ws);
        for r in &reports {
            println!(
                "{:>6.2} {:>6} {:>9} {:>9} {:>9} {:>8} {:>8.1}% {:>7.1}% {:>7.1}%",
                rate,
                crate::gnuplot::sanitize(&r.strategy)
                    .chars()
                    .take(6)
                    .collect::<String>(),
                r.crawled,
                r.attempts,
                r.retries,
                r.gave_up,
                100.0 * r.final_harvest(),
                100.0 * r.harvest_net(),
                100.0 * r.final_coverage(),
            );
            csv.push_str(&format!(
                "{},{},{},{},{},{},{:.6},{:.6},{:.6}\n",
                rate,
                r.strategy,
                r.crawled,
                r.attempts,
                r.retries,
                r.gave_up,
                r.final_harvest(),
                r.harvest_net(),
                r.final_coverage(),
            ));
        }
        by_rate.push(reports);
    }

    println!();
    runner::write_result("fault_sensitivity.csv", csv.as_bytes());

    // Shape checks.
    let zero = &by_rate[0];
    let clean = zero
        .iter()
        .all(|r| r.attempts == r.crawled && r.retries == 0 && r.gave_up == 0);
    println!(
        "\nzero-rate rows report no retry traffic                 [{}]",
        checks.ok(clean)
    );
    let strategies = zero.len();
    let retries_grow = (0..strategies).all(|s| {
        by_rate
            .windows(2)
            .all(|w| w[1][s].retries >= w[0][s].retries)
            && by_rate.last().unwrap()[s].retries > 0
    });
    println!(
        "retry traffic grows with the failure rate              [{}]",
        checks.ok(retries_grow)
    );
    let net_decays =
        (0..strategies).all(|s| by_rate.last().unwrap()[s].harvest_net() < zero[s].harvest_net());
    println!(
        "net harvest at 40% faults is below the fault-free net  [{}]",
        checks.ok(net_decays)
    );
    let coverage_suffers = (0..strategies)
        .all(|s| by_rate.last().unwrap()[s].relevant_crawled < zero[s].relevant_crawled);
    println!(
        "faults cost delivered relevant pages                   [{}]",
        checks.ok(coverage_suffers)
    );
    checks
}
