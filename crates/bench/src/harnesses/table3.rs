//! Table 3 — characteristics of the experimental datasets, regenerated
//! for the synthetic Thai-like and Japanese-like web spaces, plus the
//! structural reachability analysis behind the coverage curves.

use crate::figures::Checks;
use crate::runner;
use langcrawl_webgraph::stats::{
    reachable_all, reachable_limited, reachable_relevant_only, relevant_coverage,
};
use langcrawl_webgraph::{DatasetStats, GeneratorConfig};

/// Run this harness and return its checks' verdicts.
pub fn run() -> Checks {
    let mut checks = Checks::default();
    let seed = runner::env_seed();
    let thai = GeneratorConfig::thai_like().scaled(runner::env_scale(200_000));
    let japanese = GeneratorConfig::japanese_like().scaled(runner::env_scale(300_000));

    println!("== Table 3: Characteristics of experimental datasets ==");
    println!("(paper: Thai 1,467,643/2,419,301/3,886,944 = 35% relevant;");
    println!("        Japanese 67,983,623/27,200,355/95,183,978 = 71% relevant;");
    println!("  ours reproduces the ratios at reduced scale)\n");

    println!("{:<28} {:>14} {:>14}", "", "Thai", "Japanese");
    let mut rows: Vec<(String, String, String)> = Vec::new();
    let mut spaces = Vec::new();
    for cfg in [&thai, &japanese] {
        let ws = cfg.build_shared(seed);
        spaces.push(ws);
    }
    let s_th = DatasetStats::compute(&spaces[0]);
    let s_jp = DatasetStats::compute(&spaces[1]);
    for (name, a, b) in [
        (
            "Relevant HTML pages",
            s_th.relevant_html,
            s_jp.relevant_html,
        ),
        (
            "Irrelevant HTML pages",
            s_th.irrelevant_html,
            s_jp.irrelevant_html,
        ),
        ("Total HTML pages", s_th.total_html, s_jp.total_html),
        ("Total URLs", s_th.total_urls, s_jp.total_urls),
        ("Hosts", s_th.hosts, s_jp.hosts),
        ("Links", s_th.edges, s_jp.edges),
    ] {
        rows.push((name.to_string(), group(a), group(b)));
    }
    rows.push((
        "Relevance ratio".into(),
        format!("{:.1}%", 100.0 * s_th.relevance_ratio),
        format!("{:.1}%", 100.0 * s_jp.relevance_ratio),
    ));
    for (name, a, b) in &rows {
        println!("{name:<28} {a:>14} {b:>14}");
    }

    println!("\nStructural reachability (what the crawl strategies can reach):");
    println!(
        "{:<34} {:>10} {:>10}",
        "relevant coverage of …", "Thai", "Japanese"
    );
    let line = |name: &str, f: &dyn Fn(&langcrawl_webgraph::WebSpace) -> f64| {
        println!(
            "{:<34} {:>9.1}% {:>9.1}%",
            name,
            100.0 * f(&spaces[0]),
            100.0 * f(&spaces[1])
        );
    };
    line("complete crawl (soft ceiling)", &|ws| {
        relevant_coverage(ws, &reachable_all(ws))
    });
    line("relevant-only paths (hard ceiling)", &|ws| {
        relevant_coverage(ws, &reachable_relevant_only(ws))
    });
    for n in 1..=4u8 {
        let label = format!("tunnel through <= {n} irrelevant");
        println!(
            "{:<34} {:>9.1}% {:>9.1}%",
            label,
            100.0 * relevant_coverage(&spaces[0], &reachable_limited(&spaces[0], n)),
            100.0 * relevant_coverage(&spaces[1], &reachable_limited(&spaces[1], n)),
        );
    }

    println!("\nShape checks (paper §5.1):");
    println!(
        "  Thai relevance ratio ≈ 35%:      {:.1}%  [{}]",
        100.0 * s_th.relevance_ratio,
        checks.ok((s_th.relevance_ratio - 0.35).abs() < 0.05)
    );
    println!(
        "  Japanese relevance ratio ≈ 71%:  {:.1}%  [{}]",
        100.0 * s_jp.relevance_ratio,
        checks.ok((s_jp.relevance_ratio - 0.71).abs() < 0.06)
    );
    println!(
        "  Japanese more language-specific: [{}]",
        checks.ok(s_jp.relevance_ratio > s_th.relevance_ratio)
    );
    checks
}

fn group(n: usize) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}
