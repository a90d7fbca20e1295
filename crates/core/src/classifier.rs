//! Relevance judgment — §3.2 of the paper.
//!
//! "In language specific web crawling, a given page is considered
//! relevant if it is written in the target language." The classifier
//! produces a binary relevance score (1.0 / 0.0) from the page's charset
//! evidence. Three implementations:
//!
//! * [`MetaClassifier`] — trust the charset declared in the page's META
//!   tag (the paper's method for the Thai dataset, where the Mozilla
//!   detector had no Thai support). Mislabeled or unlabeled pages are
//!   judged irrelevant — the honest failure mode the paper observes.
//! * [`DetectorClassifier`] — run the composite byte detector over the
//!   page's (synthesized) bytes (the paper's method for Japanese).
//! * [`OracleClassifier`] — ground truth, for ablations isolating
//!   classifier error from strategy behaviour.
//!
//! Content mode ([`crate::content::ContentClassifier`]) is a fourth: it
//! reads links as well as relevance from rendered page bytes, through
//! [`Classifier::visit`].

use langcrawl_charset::{detect, Language};
use langcrawl_webgraph::{PageId, WebSpace};

/// A relevance judge for fetched pages.
pub trait Classifier {
    /// Relevance score of an OK HTML page, in [0, 1]. The paper's
    /// classifiers are binary; the trait allows graded scores for
    /// extensions.
    fn relevance(&self, ws: &WebSpace, page: PageId) -> f64;

    /// The visitor step for a delivered OK HTML page: its relevance
    /// together with the links it carries. The engine calls this once
    /// per delivered page, handing in a reusable `links` buffer from
    /// its scratch. The default reads both from the crawl log —
    /// `(self.relevance(ws, page), ws.outlinks(page))` — and leaves
    /// `links` untouched; a classifier that learns links from page
    /// bytes fills `links` and returns a view of it.
    #[inline]
    fn visit<'a>(
        &self,
        ws: &'a WebSpace,
        page: PageId,
        _links: &'a mut Vec<PageId>,
    ) -> (f64, &'a [PageId]) {
        (self.relevance(ws, page), ws.outlinks(page))
    }

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Classify by the charset recorded in the crawl log's META field.
///
/// This reads the *labeled* charset — exactly what the paper's simulator
/// replayed from its logs — so mislabeled pages are misjudged, and
/// UTF-8-labeled pages in the target language are missed (charset alone
/// carries no language for UTF-8).
#[derive(Debug, Clone)]
pub struct MetaClassifier {
    target: Language,
}

impl MetaClassifier {
    /// Classifier for the given target language.
    pub fn target(target: Language) -> Self {
        MetaClassifier { target }
    }
}

impl Classifier for MetaClassifier {
    fn relevance(&self, ws: &WebSpace, page: PageId) -> f64 {
        let meta = ws.meta(page);
        match meta.labeled_charset {
            Some(cs) if cs.language() == Some(self.target) => 1.0,
            _ => 0.0,
        }
    }

    fn name(&self) -> &'static str {
        "meta"
    }
}

/// Classify by running the byte-distribution detector over the
/// rendered page bytes (the paper's Japanese path).
///
/// Orders of magnitude slower than [`MetaClassifier`] (it synthesizes
/// and scans the body), so the figure-scale runs use META/Oracle and
/// this one validates them at smaller scale (Ablation B).
#[derive(Debug, Clone)]
pub struct DetectorClassifier {
    target: Language,
}

impl DetectorClassifier {
    /// Detector-based classifier for the target language.
    pub fn target(target: Language) -> Self {
        DetectorClassifier { target }
    }
}

impl Classifier for DetectorClassifier {
    fn relevance(&self, ws: &WebSpace, page: PageId) -> f64 {
        // lint:allow(no-panic-transitive): synthesis is total over generator output; pinned by the webgraph determinism suite
        let bytes = ws.synthesize_page(page);
        let d = detect(&bytes);
        if d.language() == Some(self.target) {
            1.0
        } else {
            0.0
        }
    }

    fn name(&self) -> &'static str {
        "detector"
    }
}

/// Ground-truth classifier (never wrong): isolates strategy behaviour
/// from classification error in ablations.
#[derive(Debug, Clone)]
pub struct OracleClassifier {
    target: Language,
}

impl OracleClassifier {
    /// Oracle for the given target language.
    pub fn target(target: Language) -> Self {
        OracleClassifier { target }
    }
}

impl Classifier for OracleClassifier {
    #[inline]
    fn relevance(&self, ws: &WebSpace, page: PageId) -> f64 {
        if ws.meta(page).lang == Some(self.target) {
            1.0
        } else {
            0.0
        }
    }

    fn name(&self) -> &'static str {
        "oracle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use langcrawl_webgraph::GeneratorConfig;

    fn space() -> WebSpace {
        GeneratorConfig::thai_like().scaled(4_000).build(31)
    }

    #[test]
    fn oracle_matches_ground_truth_exactly() {
        let ws = space();
        let c = OracleClassifier::target(Language::Thai);
        for p in ws.page_ids() {
            if !ws.meta(p).is_ok_html() {
                continue;
            }
            assert_eq!(c.relevance(&ws, p) > 0.5, ws.is_relevant(p), "page {p}");
        }
    }

    #[test]
    fn meta_classifier_agrees_mostly_but_not_always() {
        let ws = space();
        let c = MetaClassifier::target(Language::Thai);
        let mut agree = 0u32;
        let mut total = 0u32;
        let mut disagree = 0u32;
        for p in ws.page_ids() {
            if !ws.meta(p).is_ok_html() {
                continue;
            }
            total += 1;
            if (c.relevance(&ws, p) > 0.5) == ws.is_relevant(p) {
                agree += 1;
            } else {
                disagree += 1;
            }
        }
        let rate = agree as f64 / total as f64;
        assert!(rate > 0.85, "agreement {rate}");
        // Mislabeling means the META path cannot be perfect.
        assert!(disagree > 0, "META classifier should have errors");
    }

    #[test]
    fn meta_errors_are_one_sided() {
        // Mislabeling in the generator only turns target pages into
        // apparent non-target ones (observation 3), never the reverse,
        // so the META classifier has false negatives but no false
        // positives against ground truth.
        let ws = space();
        let c = MetaClassifier::target(Language::Thai);
        for p in ws.page_ids() {
            if !ws.meta(p).is_ok_html() {
                continue;
            }
            if c.relevance(&ws, p) > 0.5 {
                assert!(ws.is_relevant(p), "false positive at {p}");
            }
        }
    }

    #[test]
    fn detector_classifier_high_accuracy() {
        let ws = GeneratorConfig::thai_like().scaled(1_500).build(5);
        let c = DetectorClassifier::target(Language::Thai);
        let mut agree = 0u32;
        let mut total = 0u32;
        for p in ws.page_ids() {
            if !ws.meta(p).is_ok_html() {
                continue;
            }
            total += 1;
            if total > 300 {
                break;
            }
            if (c.relevance(&ws, p) > 0.5) == ws.is_relevant(p) {
                agree += 1;
            }
        }
        let rate = agree as f64 / total.min(300) as f64;
        assert!(rate > 0.9, "detector agreement {rate}");
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            MetaClassifier::target(Language::Thai).name(),
            DetectorClassifier::target(Language::Thai).name(),
            OracleClassifier::target(Language::Thai).name(),
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }
}
