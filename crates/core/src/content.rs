//! Content mode — the byte-level visitor, as a [`Classifier`].
//!
//! The metadata-mode classifiers replay recorded page properties,
//! exactly like the paper's trace-driven system. Content mode goes one
//! layer deeper: **everything the crawler learns, it learns from page
//! bytes.** [`ContentClassifier::visit`] renders each delivered page as
//! HTML in its true charset
//! ([`langcrawl_webgraph::WebSpace::synthesize_page`]), judges it by the
//! real §3.2 pipeline (META tag and/or the byte-distribution detector),
//! extracts its links with the real HTML scanner, resolves them against
//! the page URL and routes them through the URL index — the whole
//! crawler stack with no shortcuts.
//!
//! It plugs into the one crawl engine like any classifier, so content
//! crawls get the fault model, retries, events, `K` fetch slots and
//! snapshots for free. It is orders of magnitude slower per page, so the
//! figure harnesses stay in metadata mode; content mode validates that
//! the two agree (`tests/integration_pipeline.rs`, Ablation B) and
//! powers realistic demos.

use crate::classifier::Classifier;
use langcrawl_charset::{detect, Language};
use langcrawl_html::{extract_links, extract_meta_charset};
use langcrawl_url::Url;
use langcrawl_webgraph::index::UrlIndex;
use langcrawl_webgraph::{PageId, WebSpace};

/// How content mode judges a page's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentMode {
    /// META charset label only (the paper's Thai path). Pages without a
    /// recognisable target-language label are irrelevant.
    MetaOnly,
    /// Byte-distribution detector only (the paper's Japanese path).
    DetectorOnly,
    /// META first, detector as fallback when META is absent or names a
    /// language-neutral charset — the composite a production crawler
    /// runs.
    MetaThenDetector,
}

/// The byte-level classifier: relevance and links from rendered pages.
///
/// ```
/// use langcrawl_core::content::{ContentClassifier, ContentMode};
/// use langcrawl_core::sim::{SimConfig, Simulator};
/// use langcrawl_core::strategy::BreadthFirst;
/// use langcrawl_webgraph::GeneratorConfig;
///
/// let space = GeneratorConfig::thai_like().scaled(1_000).build(3);
/// let classifier = ContentClassifier::new(&space, ContentMode::MetaOnly);
/// let report = Simulator::new(&space, SimConfig::default())
///     .run(&mut BreadthFirst::new(), &classifier);
/// assert_eq!(report.crawled, space.num_pages() as u64);
/// assert_eq!(report.classifier, "content/meta");
/// ```
#[derive(Debug)]
pub struct ContentClassifier {
    mode: ContentMode,
    target: Language,
    index: UrlIndex,
}

impl ContentClassifier {
    /// A content-mode classifier for `ws`'s target language (builds the
    /// URL index — one pass over the space).
    pub fn new(ws: &WebSpace, mode: ContentMode) -> Self {
        ContentClassifier {
            mode,
            target: ws.target_language(),
            index: UrlIndex::build(ws),
        }
    }

    /// Judge rendered page bytes by the configured §3.2 pipeline.
    fn judge(&self, bytes: &[u8]) -> f64 {
        // lint:allow(no-panic-transitive): the META scanner is exercised over arbitrary synthesized bytes in langcrawl-html tests
        let meta_lang = || extract_meta_charset(bytes).and_then(|cs| cs.language());
        let detector_lang = || detect(bytes).language();
        let judged = match self.mode {
            ContentMode::MetaOnly => meta_lang(),
            ContentMode::DetectorOnly => detector_lang(),
            ContentMode::MetaThenDetector => meta_lang().or_else(detector_lang),
        };
        if judged == Some(self.target) {
            1.0
        } else {
            0.0
        }
    }
}

impl Classifier for ContentClassifier {
    fn relevance(&self, ws: &WebSpace, page: PageId) -> f64 {
        // lint:allow(no-panic-transitive): synthesis is total over generator output; pinned by the webgraph determinism suite
        let bytes = ws.synthesize_page(page);
        self.judge(&bytes)
    }

    /// Render the page once, judge it, then extract and resolve its
    /// links into `links`.
    fn visit<'a>(
        &self,
        ws: &'a WebSpace,
        page: PageId,
        links: &'a mut Vec<PageId>,
    ) -> (f64, &'a [PageId]) {
        // lint:allow(no-panic-transitive): synthesis is total over generator output; pinned by the webgraph determinism suite
        let bytes = ws.synthesize_page(page);
        let relevance = self.judge(&bytes);
        links.clear();
        // lint:allow(no-panic-transitive): URL rendering and parsing are total over generator output; pinned by the url proptests
        if let Ok(base) = Url::parse(&ws.url(page)) {
            // Unresolvable links are dangling URLs a real crawler would
            // fetch-and-404; the generator emits none, so nothing is
            // silently dropped.
            // lint:allow(no-panic-transitive): the link scanner and URL resolver are exercised over arbitrary bytes in the langcrawl-html and url tests
            for link in extract_links(&bytes, &base) {
                if let Some(t) = self.index.resolve(&link) {
                    links.push(t);
                }
            }
        }
        (relevance, links)
    }

    fn name(&self) -> &'static str {
        match self.mode {
            ContentMode::MetaOnly => "content/meta",
            ContentMode::DetectorOnly => "content/detector",
            ContentMode::MetaThenDetector => "content/composite",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::MetaClassifier;
    use crate::engine::{CrawlEngine, EngineConfig, EngineScratch};
    use crate::sched::SchedConfig;
    use crate::sim::{SimConfig, Simulator};
    use crate::snapshot::{CrawlSnapshot, SnapshotLog};
    use crate::strategy::{BreadthFirst, SimpleStrategy};
    use langcrawl_webgraph::{FaultConfig, GeneratorConfig};

    fn space() -> WebSpace {
        GeneratorConfig::thai_like().scaled(2_500).build(8)
    }

    #[test]
    fn content_bfs_covers_the_whole_space() {
        let ws = space();
        let r = Simulator::new(&ws, SimConfig::default()).run(
            &mut BreadthFirst::new(),
            &ContentClassifier::new(&ws, ContentMode::MetaThenDetector),
        );
        assert_eq!(r.crawled, ws.num_pages() as u64);
        assert!((r.final_coverage() - 1.0).abs() < 1e-12);
    }

    /// Byte-level META-only crawling must match metadata-mode crawling
    /// with the MetaClassifier *exactly*: same crawl order inputs, same
    /// admissions, same curves.
    #[test]
    fn content_meta_equals_metadata_mode() {
        let ws = space();
        let mut sim = Simulator::new(&ws, SimConfig::default());
        let content = sim.run(
            &mut SimpleStrategy::hard(),
            &ContentClassifier::new(&ws, ContentMode::MetaOnly),
        );
        let meta = sim.run(
            &mut SimpleStrategy::hard(),
            &MetaClassifier::target(ws.target_language()),
        );

        assert_eq!(content.crawled, meta.crawled);
        assert_eq!(content.relevant_crawled, meta.relevant_crawled);
        assert_eq!(content.max_queue, meta.max_queue);
        assert_eq!(content.samples, meta.samples);
    }

    /// The composite classifier rescues mislabeled pages, so hard-focused
    /// content crawling covers at least as much as META-only.
    #[test]
    fn composite_rescues_mislabeled_pages() {
        let ws = space();
        let run = |mode| {
            Simulator::new(&ws, SimConfig::default())
                .run(
                    &mut SimpleStrategy::hard(),
                    &ContentClassifier::new(&ws, mode),
                )
                .final_coverage()
        };
        let meta_only = run(ContentMode::MetaOnly);
        let composite = run(ContentMode::MetaThenDetector);
        assert!(
            composite >= meta_only - 1e-9,
            "composite {composite} vs meta {meta_only}"
        );
    }

    #[test]
    fn budget_respected() {
        let ws = space();
        let r = Simulator::new(&ws, SimConfig::default().with_max_pages(100)).run(
            &mut BreadthFirst::new(),
            &ContentClassifier::new(&ws, ContentMode::MetaThenDetector),
        );
        assert_eq!(r.crawled, 100);
    }

    #[test]
    fn classifier_names_distinguish_modes() {
        let ws = space();
        let r = Simulator::new(&ws, SimConfig::default().with_max_pages(10)).run(
            &mut BreadthFirst::new(),
            &ContentClassifier::new(&ws, ContentMode::DetectorOnly),
        );
        assert_eq!(r.classifier, "content/detector");
    }

    /// Content crawls run through the engine, so they inherit faults,
    /// retries, `K` slots and snapshot/resume with no code of their own.
    #[test]
    fn content_crawls_retry_schedule_and_resume() {
        let ws = space();
        let classifier = ContentClassifier::new(&ws, ContentMode::MetaThenDetector);
        let config = SimConfig::default()
            .with_faults(FaultConfig::with_rate(0.2))
            .with_workers(4);
        let run = || Simulator::new(&ws, config.clone()).run(&mut BreadthFirst::new(), &classifier);
        let report = run();
        assert!(report.retries > 0, "20% fault rate must cause retries");
        assert_eq!(report.attempts, report.crawled + report.retries);
        assert_eq!(report, run(), "faulted content crawls are deterministic");

        // Snapshot mid-crawl, drop, resume: the outcome is the
        // uninterrupted one.
        let engine = CrawlEngine::new(
            &ws,
            EngineConfig {
                fault: FaultConfig::with_rate(0.2),
                snapshot_every: Some(report.ticks / 3),
                ..EngineConfig::default()
            },
        );
        let sched = SchedConfig::with_slots(4);
        let mut log = SnapshotLog::new();
        let (full, full_stats) = engine.run_scheduled(
            &sched,
            &mut BreadthFirst::new(),
            &classifier,
            &mut [&mut log],
            &mut EngineScratch::new(),
        );
        assert_eq!(full.crawled, report.crawled);
        assert_eq!(full.attempts, report.attempts);
        assert_eq!(full.ticks, report.ticks);
        let (_, mid) = &log.snapshots()[log.len() / 2];
        let snap = CrawlSnapshot::from_bytes(mid).unwrap();
        assert!(snap.crawled() > 0 && snap.crawled() < full.crawled);
        let resumed = engine
            .resume(&snap, &mut BreadthFirst::new(), &classifier, &mut [])
            .unwrap();
        assert_eq!(resumed, (full, full_stats));
    }
}
