//! Ablation B — classifier choice: META label vs byte detector vs oracle.
//!
//! §3.2 of the paper offers two relevance-judgment methods and notes
//! (§3, observation 3) that pages are sometimes mislabeled. This
//! ablation runs the same hard-focused crawl under all three classifiers
//! on a content-mode-sized space. The detector path synthesizes real
//! page bytes and runs the composite detector — the full Mozilla-style
//! pipeline the paper used for Japanese.
//!
//! Expectation: oracle ≥ detector ≥ META on coverage (hard mode punishes
//! false negatives by cutting off expansion), with META's deficit
//! tracking the mislabel + missing-META + UTF-8 rates.

use crate::figures::Checks;
use crate::{runner, Experiment};
use langcrawl_core::classifier::{
    Classifier, DetectorClassifier, MetaClassifier, OracleClassifier,
};
use langcrawl_core::sim::SimConfig;
use langcrawl_core::strategy::SimpleStrategy;
use langcrawl_webgraph::GeneratorConfig;

fn hard_crawl() -> Experiment {
    Experiment::new(
        "classifier",
        "Ablation B: classifier comparison, Thai dataset",
        GeneratorConfig::thai_like(),
    )
    .sim_config(SimConfig::default().with_url_filter())
    .strategy("hard", |_| Box::new(SimpleStrategy::hard()))
}

/// Run this harness and return its checks' verdicts.
pub fn run() -> Checks {
    let mut checks = Checks::default();
    let scale = runner::env_scale(25_000); // detector path scans real bytes
    let seed = runner::env_seed();
    println!("== Ablation B: classifier comparison, Thai dataset (n={scale}, seed={seed}) ==");
    println!("(hard-focused crawl; detector synthesizes page bytes and runs the real prober)\n");
    let ws = GeneratorConfig::thai_like()
        .scaled(scale)
        .build_shared(seed);

    let experiments = [
        hard_crawl().oracle_classifier(),
        hard_crawl()
            .classifier_with(|ws| Box::new(DetectorClassifier::target(ws.target_language()))),
        hard_crawl(), // META is the default judgment path
    ];

    println!(
        "{:<10} {:>10} {:>12} {:>12} {:>12}",
        "classifier", "crawled", "harvest", "coverage", "max queue"
    );
    let mut coverages = Vec::new();
    for e in &experiments {
        let r = &e.run_on(&ws)[0];
        println!(
            "{:<10} {:>10} {:>11.1}% {:>11.1}% {:>12}",
            r.classifier,
            r.crawled,
            100.0 * r.final_harvest(),
            100.0 * r.final_coverage(),
            r.max_queue
        );
        coverages.push(r.final_coverage());
    }

    println!("\nShape checks:");
    println!(
        "  oracle >= detector:  {:.3} vs {:.3}  [{}]",
        coverages[0],
        coverages[1],
        checks.ok(coverages[0] >= coverages[1] - 0.01)
    );
    println!(
        "  detector >= META:    {:.3} vs {:.3}  [{}]",
        coverages[1],
        coverages[2],
        checks.ok(coverages[1] >= coverages[2] - 0.01)
    );
    println!(
        "  META pays for mislabels (deficit vs oracle): {:.1} pts",
        100.0 * (coverages[0] - coverages[2])
    );

    // Classifier confusion counts against ground truth, page by page.
    let classifiers: Vec<Box<dyn Classifier + Sync>> = vec![
        Box::new(OracleClassifier::target(ws.target_language())),
        Box::new(DetectorClassifier::target(ws.target_language())),
        Box::new(MetaClassifier::target(ws.target_language())),
    ];
    println!("\nPer-page agreement with ground truth (OK HTML pages):");
    for c in &classifiers {
        let mut tp = 0u32;
        let mut fp = 0u32;
        let mut fne = 0u32;
        let mut tn = 0u32;
        for p in ws.page_ids() {
            if !ws.meta(p).is_ok_html() {
                continue;
            }
            let truth = ws.is_relevant(p);
            let judged = c.relevance(&ws, p) > 0.5;
            match (truth, judged) {
                (true, true) => tp += 1,
                (false, true) => fp += 1,
                (true, false) => fne += 1,
                (false, false) => tn += 1,
            }
        }
        let prec = tp as f64 / (tp + fp).max(1) as f64;
        let rec = tp as f64 / (tp + fne).max(1) as f64;
        println!(
            "  {:<10} precision={:.3} recall={:.3}  (tp={tp} fp={fp} fn={fne} tn={tn})",
            c.name(),
            prec,
            rec
        );
    }
    checks
}
