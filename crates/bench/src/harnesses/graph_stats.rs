//! Structural characterisation of the generated web spaces — the
//! measured counterpart of every generator knob, printed the way a crawl
//! study would characterise a real dataset.

use crate::figures::Checks;
use crate::runner;
use langcrawl_webgraph::analysis::{host_size_histogram, link_stats, out_degree_histogram};
use langcrawl_webgraph::{DatasetStats, GeneratorConfig};

/// Run this harness and return its checks' verdicts.
pub fn run() -> Checks {
    let mut checks = Checks::default();
    let seed = runner::env_seed();
    for (name, cfg) in [
        (
            "Thai-like",
            GeneratorConfig::thai_like().scaled(runner::env_scale(100_000)),
        ),
        (
            "Japanese-like",
            GeneratorConfig::japanese_like().scaled(runner::env_scale(100_000)),
        ),
    ] {
        let ws = cfg.build_shared(seed);
        let stats = DatasetStats::compute(&ws);
        let links = link_stats(&ws);
        println!("== {name} web space (n={}, seed={seed}) ==", ws.num_pages());
        println!(
            "  pages: {} URLs, {} OK HTML, {} relevant ({:.1}%), {} hosts, {} links",
            stats.total_urls,
            stats.total_html,
            stats.relevant_html,
            100.0 * stats.relevance_ratio,
            stats.hosts,
            stats.edges
        );
        println!(
            "  links: mean degree {:.1} (configured {:.1}), max degree {} (hub tail), \
             intra-host {:.2} (configured {:.2}), leaf share {:.2} (configured {:.2})",
            links.mean_out_degree,
            cfg.mean_out_degree,
            links.max_out_degree,
            links.intra_host_ratio,
            cfg.intra_host_ratio,
            links.leaf_link_share,
            cfg.leaf_link_share
        );
        println!(
            "  language locality: measured {:.2} overall / {:.2} from relevant hosts \
             (configured {:.2})  [{}]",
            links.locality,
            links.target_locality,
            cfg.locality,
            checks.ok((links.target_locality - cfg.locality).abs() < 0.10)
        );
        println!(
            "\n{}",
            host_size_histogram(&ws).render("HTML pages per host (log2 bins)")
        );
        println!(
            "{}",
            out_degree_histogram(&ws).render("out-degree per HTML page (log2 bins)")
        );
    }
    checks
}
