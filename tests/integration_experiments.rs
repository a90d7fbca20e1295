//! The paper's experimental claims, asserted end-to-end at test scale.
//! Each test is a miniature of one figure/table of §5 (the full-scale
//! regeneration lives in `crates/bench/src/harnesses`, run by the
//! `repro_all` binary).

use langcrawl::prelude::*;
use langcrawl::webgraph::DatasetStats;

fn thai(n: u32, seed: u64) -> WebSpace {
    GeneratorConfig::thai_like().scaled(n).build(seed)
}

fn run(ws: &WebSpace, s: &mut dyn Strategy) -> CrawlReport {
    let mut sim = Simulator::new(ws, SimConfig::default());
    sim.run(s, &MetaClassifier::target(ws.target_language()))
}

/// Table 3: dataset characteristics.
#[test]
fn table3_dataset_ratios() {
    let th = DatasetStats::compute(&thai(30_000, 1));
    assert!(
        (th.relevance_ratio - 0.35).abs() < 0.05,
        "thai {:?}",
        th.relevance_ratio
    );
    let jp = DatasetStats::compute(&GeneratorConfig::japanese_like().scaled(30_000).build(1));
    assert!(
        (jp.relevance_ratio - 0.71).abs() < 0.06,
        "jp {:?}",
        jp.relevance_ratio
    );
    assert!(jp.relevance_ratio > th.relevance_ratio);
}

/// Fig. 3: focused strategies beat breadth-first early; soft reaches
/// 100% coverage; hard truncates.
#[test]
fn fig3_simple_strategy_thai() {
    let ws = thai(25_000, 2);
    let early = ws.num_pages() as u64 / 7;
    let bf = run(&ws, &mut BreadthFirst::new());
    let hard = run(&ws, &mut SimpleStrategy::hard());
    let soft = run(&ws, &mut SimpleStrategy::soft());

    assert!(hard.harvest_at(early) > bf.harvest_at(early));
    assert!(soft.harvest_at(early) > bf.harvest_at(early));
    assert!(
        soft.final_coverage() > 0.999,
        "soft {}",
        soft.final_coverage()
    );
    assert!(
        (0.5..0.9).contains(&hard.final_coverage()),
        "hard {}",
        hard.final_coverage()
    );
}

/// Fig. 4: the Japanese-like space is so language-specific that even
/// breadth-first harvests high, and focusing adds far less than on Thai.
#[test]
fn fig4_japanese_high_specificity() {
    let cfg = SimConfig::default().with_url_filter();
    let run_f = |ws: &WebSpace, s: &mut dyn Strategy| {
        Simulator::new(ws, cfg.clone()).run(s, &MetaClassifier::target(ws.target_language()))
    };

    let jp = GeneratorConfig::japanese_like().scaled(25_000).build(2);
    let jp_early = jp.num_pages() as u64 / 5;
    let jp_bf = run_f(&jp, &mut BreadthFirst::new());
    let jp_hard = run_f(&jp, &mut SimpleStrategy::hard());

    let th = thai(25_000, 2);
    let th_early = th.num_pages() as u64 / 5;
    let th_bf = run_f(&th, &mut BreadthFirst::new());
    let th_hard = run_f(&th, &mut SimpleStrategy::hard());

    // Breadth-first alone already harvests high on Japanese (paper: >70%).
    assert!(
        jp_bf.harvest_at(jp_early) > 0.55,
        "jp bf early harvest {}",
        jp_bf.harvest_at(jp_early)
    );
    // …and much higher than on Thai.
    assert!(jp_bf.harvest_at(jp_early) > th_bf.harvest_at(th_early) + 0.15);
    // Focusing buys proportionally less on Japanese than on Thai.
    let jp_gain = jp_hard.harvest_at(jp_early) / jp_bf.harvest_at(jp_early);
    let th_gain = th_hard.harvest_at(th_early) / th_bf.harvest_at(th_early);
    assert!(
        th_gain > jp_gain,
        "thai relative gain {th_gain} should exceed japanese {jp_gain}"
    );
}

/// Fig. 5: soft's URL queue dwarfs hard's.
#[test]
fn fig5_queue_blowup() {
    let ws = thai(25_000, 3);
    let soft = run(&ws, &mut SimpleStrategy::soft());
    let hard = run(&ws, &mut SimpleStrategy::hard());
    assert!(
        soft.max_queue > 3 * hard.max_queue,
        "soft {} hard {}",
        soft.max_queue,
        hard.max_queue
    );
}

/// Fig. 6: non-prioritized limited distance — queue and coverage grow
/// with N, early harvest falls with N.
#[test]
fn fig6_non_prioritized_limited() {
    let ws = thai(25_000, 4);
    let early = ws.num_pages() as u64 / 6;
    let reports: Vec<CrawlReport> = (1..=4u8)
        .map(|n| run(&ws, &mut LimitedDistanceStrategy::non_prioritized(n)))
        .collect();
    for w in reports.windows(2) {
        assert!(w[0].max_queue < w[1].max_queue, "queue must grow with N");
        assert!(
            w[0].final_coverage() <= w[1].final_coverage() + 1e-9,
            "coverage must grow with N"
        );
    }
    assert!(
        reports[0].harvest_at(early) > reports[3].harvest_at(early),
        "harvest must fall from N=1 ({}) to N=4 ({})",
        reports[0].harvest_at(early),
        reports[3].harvest_at(early)
    );
}

/// Fig. 7: prioritized limited distance — harvest no longer degrades
/// with N (the paper's conclusion).
#[test]
fn fig7_prioritized_limited() {
    let ws = thai(25_000, 5);
    let early = ws.num_pages() as u64 / 6;
    let harvests: Vec<f64> = (1..=4u8)
        .map(|n| run(&ws, &mut LimitedDistanceStrategy::prioritized(n)).harvest_at(early))
        .collect();
    let spread = harvests.iter().copied().fold(f64::MIN, f64::max)
        - harvests.iter().copied().fold(f64::MAX, f64::min);
    assert!(
        spread < 0.08,
        "prioritized harvest spread {spread} ({harvests:?})"
    );
}

/// The headline comparison across figures: prioritized mode keeps the
/// harvest that non-prioritized mode loses at large N.
#[test]
fn prioritized_beats_non_prioritized_at_large_n() {
    let ws = thai(25_000, 6);
    let early = ws.num_pages() as u64 / 6;
    let non = run(&ws, &mut LimitedDistanceStrategy::non_prioritized(4));
    let pri = run(&ws, &mut LimitedDistanceStrategy::prioritized(4));
    assert!(
        pri.harvest_at(early) > non.harvest_at(early),
        "prioritized {} vs non-prioritized {}",
        pri.harvest_at(early),
        non.harvest_at(early)
    );
    // Both reach the same structural coverage.
    assert!((pri.final_coverage() - non.final_coverage()).abs() < 0.03);
}

/// Determinism across the whole experiment stack: same seed, same curves.
#[test]
fn experiments_are_reproducible() {
    let a = run(&thai(10_000, 7), &mut SimpleStrategy::soft());
    let b = run(&thai(10_000, 7), &mut SimpleStrategy::soft());
    assert_eq!(a.samples, b.samples);
    assert_eq!(a.max_queue, b.max_queue);
}

/// Seed robustness: the Fig. 3 ordering holds across generator seeds.
#[test]
fn fig3_ordering_robust_across_seeds() {
    for seed in [11u64, 22, 33] {
        let ws = thai(15_000, seed);
        let early = ws.num_pages() as u64 / 7;
        let bf = run(&ws, &mut BreadthFirst::new());
        let soft = run(&ws, &mut SimpleStrategy::soft());
        assert!(
            soft.harvest_at(early) > bf.harvest_at(early),
            "seed {seed}: soft {} bf {}",
            soft.harvest_at(early),
            bf.harvest_at(early)
        );
        assert!(soft.final_coverage() > 0.999, "seed {seed}");
    }
}
