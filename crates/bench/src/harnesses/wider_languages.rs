//! The §6 extension: "conduct more simulations … with a wider range of
//! crawling strategies" — and languages. The paper's pipeline is
//! language-agnostic by construction; this harness proves it by running
//! the full §3 stack for **four** target languages, each classified
//! through its own charset family (Table 1 rows plus the EUC-KR/GB2312
//! rows this reproduction adds).

use crate::figures::Checks;
use crate::{runner, Experiment};
use langcrawl_core::classifier::DetectorClassifier;
use langcrawl_core::sim::SimConfig;
use langcrawl_core::strategy::{BreadthFirst, SimpleStrategy};
use langcrawl_webgraph::GeneratorConfig;

/// Run this harness and return its checks' verdicts.
pub fn run() -> Checks {
    let mut checks = Checks::default();
    let scale = runner::env_scale(60_000);
    let seed = runner::env_seed();
    println!(
        "== Wider languages: the paper's pipeline on four targets (n={scale}, seed={seed}) ==\n"
    );
    println!(
        "{:<14} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "target", "relevant", "bf harvest", "soft harvest", "soft cover", "hard cover"
    );

    let e = Experiment::new("wider", "wider languages", GeneratorConfig::thai_like())
        .sim_config(SimConfig::default().with_url_filter())
        .strategy("bf", |_| Box::new(BreadthFirst::new()))
        .strategy("soft", |_| Box::new(SimpleStrategy::soft()))
        .strategy("hard", |_| Box::new(SimpleStrategy::hard()));

    let mut all_ok = true;
    for cfg in [
        GeneratorConfig::thai_like().scaled(scale),
        GeneratorConfig::japanese_like().scaled(scale),
        GeneratorConfig::korean_like().scaled(scale),
        GeneratorConfig::chinese_like().scaled(scale),
    ] {
        let ws = cfg.build_shared(seed);
        let reports = e.run_on(&ws);
        let early = ws.num_pages() as u64 / 6;
        let fine = reports[1].harvest_at(early) > reports[0].harvest_at(early)
            && reports[1].final_coverage() > 0.99;
        all_ok &= fine;
        println!(
            "{:<14} {:>9.1}% {:>11.1}% {:>11.1}% {:>11.1}% {:>11.1}%",
            ws.target_language().name(),
            100.0 * ws.total_relevant() as f64 / ws.total_ok_html() as f64,
            100.0 * reports[0].harvest_at(early),
            100.0 * reports[1].harvest_at(early),
            100.0 * reports[1].final_coverage(),
            100.0 * reports[2].final_coverage(),
        );
    }
    println!(
        "\nfocused > breadth-first early and soft coverage = 100% for every target  [{}]",
        checks.ok(all_ok)
    );

    // Detector-path spot check per language (content mode, small slice).
    println!(
        "\nByte-detector classification accuracy per language (content mode, 200 pages each):"
    );
    for cfg in [
        GeneratorConfig::thai_like().scaled(6_000),
        GeneratorConfig::japanese_like().scaled(6_000),
        GeneratorConfig::korean_like().scaled(6_000),
        GeneratorConfig::chinese_like().scaled(6_000),
    ] {
        let ws = cfg.build_shared(seed);
        let det = DetectorClassifier::target(ws.target_language());
        let mut agree = 0u32;
        let mut total = 0u32;
        for p in ws.page_ids() {
            if !ws.meta(p).is_ok_html() {
                continue;
            }
            total += 1;
            if total > 200 {
                break;
            }
            if (langcrawl_core::classifier::Classifier::relevance(&det, &ws, p) > 0.5)
                == ws.is_relevant(p)
            {
                agree += 1;
            }
        }
        let rate = agree as f64 / total.min(200) as f64;
        println!(
            "  {:<10} {:>5.1}%  [{}]",
            ws.target_language().name(),
            100.0 * rate,
            checks.ok(rate > 0.9)
        );
    }

    // A hard run with the byte detector end-to-end on the Korean space.
    let ko = GeneratorConfig::korean_like()
        .scaled(runner::env_scale(8_000))
        .build_shared(seed);
    let r = &Experiment::new("wider_ko", "Korean crawl", GeneratorConfig::korean_like())
        .sim_config(SimConfig::default().with_url_filter())
        .classifier_with(|ws| Box::new(DetectorClassifier::target(ws.target_language())))
        .strategy("hard", |_| Box::new(SimpleStrategy::hard()))
        .run_on(&ko)[0];
    println!(
        "\nhard-focused Korean crawl with the byte detector: harvest {:.1}%, coverage {:.1}%  [{}]",
        100.0 * r.final_harvest(),
        100.0 * r.final_coverage(),
        checks.ok(r.final_coverage() > 0.5)
    );
    checks
}
