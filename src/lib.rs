//! # langcrawl — language-specific web crawling, simulated
//!
//! A full Rust reproduction of **“Simulation Study of Language Specific Web
//! Crawling”** (K. Somboonviwat, T. Tamura, M. Kitsuregawa; DEWS/ICDE 2005).
//!
//! The paper adapts *focused crawling* to the problem national web-archiving
//! projects face: harvesting all pages written in one language from the
//! borderless Web. It evaluates crawl-ordering strategies on a trace-driven
//! **web crawling simulator** instead of the live Web. This workspace
//! re-implements the whole stack:
//!
//! * [`charset`] — character-encoding detection (the language classifier):
//!   escape-sequence, validity-state-machine, and byte-distribution probers
//!   for the Japanese and Thai encodings of Table 1, plus algorithmic
//!   encoders used to synthesize realistic page bytes.
//! * [`html`] — tag tokenizer, `<meta>` charset extraction, link extraction.
//! * [`url`] — URL parsing, relative resolution, and canonicalization.
//! * [`webgraph`] — a seeded synthetic web-space generator with explicit
//!   language-locality structure, standing in for the paper's proprietary
//!   2004 Thai/Japanese crawl logs, plus the crawl-log format itself.
//! * [`core`] — the simulator (simulator / visitor / classifier / observer /
//!   URL queue / link DB of the paper's Fig. 2), every crawling strategy the
//!   paper evaluates (breadth-first; hard- and soft-focused; prioritized and
//!   non-prioritized limited-distance), the extension strategies its related
//!   -work section describes, crawl metrics, and an event-driven timing
//!   model (the paper's stated future work).
//!
//! ## Quickstart
//!
//! ```
//! use langcrawl::prelude::*;
//!
//! // A small Thai-like virtual web space (35% of pages are in-language).
//! let space = GeneratorConfig::thai_like().scaled(2_000).build(42);
//!
//! // Crawl it with the paper's soft-focused strategy.
//! let mut sim = Simulator::new(&space, SimConfig::default());
//! let report = sim.run(
//!     &mut SimpleStrategy::soft(),
//!     &MetaClassifier::target(Language::Thai),
//! );
//! assert!(report.final_coverage() > 0.9); // soft mode approaches full recall
//! ```
//!
//! See `examples/` for end-to-end scenarios and `crates/bench` for the
//! binaries that regenerate every table and figure of the paper.

pub use langcrawl_charset as charset;
pub use langcrawl_core as core;
pub use langcrawl_html as html;
pub use langcrawl_url as url;
pub use langcrawl_webgraph as webgraph;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use langcrawl_charset::{detect, Charset, Language};
    pub use langcrawl_core::{
        classifier::{Classifier, DetectorClassifier, MetaClassifier, OracleClassifier},
        content::{ContentClassifier, ContentMode},
        metrics::CrawlReport,
        sim::{SimConfig, Simulator},
        strategy::{
            BacklinkCount, BreadthFirst, CombinedStrategy, ContextGraphStrategy, HitsStrategy,
            LimitedDistanceStrategy, OnlinePageRank, SimpleStrategy, Strategy, TldScopeStrategy,
        },
        timing::{run_timed, TimingConfig},
    };
    pub use langcrawl_webgraph::{DatasetStats, GeneratorConfig, WebSpace};
}

/// The README's code blocks, compiled and run as doctests so the
/// documented API cannot drift from the real one.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
