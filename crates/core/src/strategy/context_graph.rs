//! The context-graph crawler extension (§2.2; Diligenti et al., VLDB
//! 2000) — the tunneling baseline the paper positions limited-distance
//! against.
//!
//! The original system builds a *context graph* from back-links of the
//! seed set and trains per-layer classifiers: layer ℓ holds pages ℓ
//! links away from a target. During the crawl each fetched document is
//! classified into a layer and its outlinks go into that layer's
//! dedicated queue; the next URL is taken from the nearest non-empty
//! queue.
//!
//! In the simulator we implement the *idealized* context-graph crawler:
//! the layer of a page is its true forward link-distance to the nearest
//! relevant page (computed once from the LinkDB by reverse BFS), with
//! optional classification noise. This is the strongest version of the
//! baseline — exactly what a perfectly-trained layer classifier would
//! produce — so comparisons against limited-distance are conservative.

use super::{PageView, Strategy};
use crate::linkgraph::{layers::LayerIndex, LinkGraph};
use crate::queue::Entry;
use langcrawl_webgraph::{PageId, WebSpace};

/// Idealized context-graph crawling strategy.
#[derive(Debug)]
pub struct ContextGraphStrategy {
    /// Max layer (pages farther than this are discarded, like the
    /// original's "other" class).
    max_layer: u8,
    /// layer[p] = true forward distance to the nearest relevant page
    /// (0 for relevant pages; u8::MAX = unreachable / beyond horizon).
    layer: Vec<u8>,
    /// Per-mille probability of misclassifying a page one layer up.
    noise_pm: u32,
    /// Deterministic noise counter (avoids carrying an RNG).
    tick: u64,
}

impl ContextGraphStrategy {
    /// Build the idealized context graph for a web space.
    ///
    /// `max_layer` plays the role of the context-graph depth (the
    /// original used 2–4).
    pub fn new(ws: &WebSpace, max_layer: u8) -> Self {
        ContextGraphStrategy {
            max_layer,
            layer: compute_layers(ws, max_layer),
            noise_pm: 0,
            tick: 0,
        }
    }

    /// Add classification noise: with probability `per_mille`/1000 a
    /// page is reported one layer farther than it is.
    pub fn with_noise(mut self, per_mille: u32) -> Self {
        self.noise_pm = per_mille.min(1000);
        self
    }
}

/// Multi-source reverse BFS from every relevant page: layer = forward
/// distance to the nearest relevant page, capped at `max_layer`.
fn compute_layers(ws: &WebSpace, max_layer: u8) -> Vec<u8> {
    let n = ws.num_pages();
    // Build the reverse adjacency in CSR form.
    let mut in_deg = vec![0u32; n + 1];
    for p in ws.page_ids() {
        for &t in ws.outlinks(p) {
            in_deg[t as usize + 1] += 1;
        }
    }
    for i in 0..n {
        in_deg[i + 1] += in_deg[i];
    }
    let offsets = in_deg;
    let mut rev: Vec<PageId> = vec![0; *offsets.last().unwrap() as usize];
    let mut cursor = offsets.clone();
    for p in ws.page_ids() {
        for &t in ws.outlinks(p) {
            let c = &mut cursor[t as usize];
            rev[*c as usize] = p;
            *c += 1;
        }
    }

    let mut layer = vec![u8::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    for p in ws.page_ids() {
        if ws.is_relevant(p) {
            layer[p as usize] = 0;
            queue.push_back(p);
        }
    }
    while let Some(p) = queue.pop_front() {
        let d = layer[p as usize];
        if d >= max_layer {
            continue;
        }
        let lo = offsets[p as usize] as usize;
        let hi = offsets[p as usize + 1] as usize;
        for &pred in &rev[lo..hi] {
            if layer[pred as usize] == u8::MAX {
                layer[pred as usize] = d + 1;
                queue.push_back(pred);
            }
        }
    }
    layer
}

/// Online context-graph crawling: the idealized strategy's layer table
/// comes from an offline oracle over the full web; this variant learns
/// layers from the *crawled* subgraph as it grows, maintaining them
/// incrementally by decrease-only relaxation over the shared
/// [`LinkGraph`] ([`crate::linkgraph::layers`]) instead of re-running a
/// multi-source BFS per refresh.
///
/// Pages whose layer is still unknown queue at a dedicated worst
/// priority level rather than being discarded — the online crawler can
/// never prove a page is beyond the horizon, only that no known chain
/// reaches a relevant page *yet*.
#[derive(Debug)]
pub struct OnlineContextGraphStrategy {
    /// Max layer (deeper pages queue at the unknown level).
    max_layer: u8,
    /// Crawled subgraph shared by the layer relaxation.
    graph: LinkGraph,
    /// Incrementally maintained layers over `graph`.
    layers: LayerIndex,
}

impl OnlineContextGraphStrategy {
    /// Online context-graph crawler maintaining layers `0..=max_layer`.
    pub fn new(max_layer: u8) -> Self {
        let max_layer = max_layer.min(u8::MAX - 2);
        OnlineContextGraphStrategy {
            max_layer,
            graph: LinkGraph::new(),
            layers: LayerIndex::new(max_layer),
        }
    }

    /// Current learned layer of `page`
    /// ([`UNREACHED`](crate::linkgraph::layers::UNREACHED) while unknown).
    pub fn layer_of(&self, page: PageId) -> u8 {
        self.layers.layer_of(page)
    }
}

impl Strategy for OnlineContextGraphStrategy {
    fn name(&self) -> String {
        format!("online-context-graph L={}", self.max_layer)
    }

    fn levels(&self) -> usize {
        // Layers 0..=max_layer feed levels 0..=max_layer−1 (links of a
        // layer-ℓ page queue at ℓ−1), plus the unknown-layer level.
        self.max_layer as usize + 2
    }

    fn admit(&mut self, view: &PageView<'_>, out: &mut Vec<Entry>) {
        self.graph.record_page(view.page, view.outlinks);
        self.layers
            .on_record(&self.graph, view.page, view.relevance > 0.5);
        let l = self.layers.layer_of(view.page);
        // Links of a layer-ℓ page lead (in expectation) to layer ℓ−1;
        // unknown layers go to the dedicated back-of-queue level.
        let priority = if l <= self.max_layer {
            l.saturating_sub(1)
        } else {
            self.max_layer + 1
        };
        for &t in view.outlinks {
            out.push(Entry {
                page: t,
                priority,
                distance: 0,
            });
        }
    }

    fn keeps_state(&self) -> bool {
        true
    }
}

impl Strategy for ContextGraphStrategy {
    fn name(&self) -> String {
        if self.noise_pm > 0 {
            format!(
                "context-graph L={} noise={}‰",
                self.max_layer, self.noise_pm
            )
        } else {
            format!("context-graph L={}", self.max_layer)
        }
    }

    fn levels(&self) -> usize {
        self.max_layer as usize + 1
    }

    fn admit(&mut self, view: &PageView<'_>, out: &mut Vec<Entry>) {
        self.tick += 1;
        let mut l = self.layer[view.page as usize];
        if l == u8::MAX {
            // Outside the context graph: the original discards these.
            return;
        }
        if self.noise_pm > 0 && (self.tick.wrapping_mul(2654435761) % 1000) < self.noise_pm as u64 {
            l = l.saturating_add(1);
            if l > self.max_layer {
                return;
            }
        }
        // Links of a layer-ℓ page lead (in expectation) to layer ℓ−1:
        // queue them at that level.
        let priority = l.saturating_sub(1);
        for &t in view.outlinks {
            out.push(Entry {
                page: t,
                priority,
                distance: 0,
            });
        }
    }

    /// The noise draw advances a per-admit counter, so only a
    /// noiseless instance is a pure function of the space.
    fn keeps_state(&self) -> bool {
        self.noise_pm > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ContextGraphStrategy {
        /// The layer table.
        fn layers(&self) -> &[u8] {
            &self.layer
        }
    }
    use langcrawl_webgraph::GeneratorConfig;

    fn space() -> WebSpace {
        GeneratorConfig::thai_like().scaled(4_000).build(13)
    }

    #[test]
    fn relevant_pages_are_layer_zero() {
        let ws = space();
        let s = ContextGraphStrategy::new(&ws, 4);
        for p in ws.page_ids() {
            if ws.is_relevant(p) {
                assert_eq!(s.layers()[p as usize], 0, "page {p}");
            }
        }
    }

    #[test]
    fn layers_respect_link_distance() {
        let ws = space();
        let s = ContextGraphStrategy::new(&ws, 4);
        // Any page with a direct link to a relevant page is at most
        // layer 1.
        for p in ws.page_ids().take(2_000) {
            if ws.is_relevant(p) {
                continue;
            }
            if ws.outlinks(p).iter().any(|&t| ws.is_relevant(t)) {
                let l = s.layers()[p as usize];
                assert!(l <= 1, "page {p} layer {l}");
            }
        }
    }

    #[test]
    fn beyond_horizon_is_discarded() {
        let ws = space();
        let mut s = ContextGraphStrategy::new(&ws, 1);
        // Find a page beyond layer 1.
        let far = ws
            .page_ids()
            .find(|&p| s.layers()[p as usize] == u8::MAX)
            .expect("some page beyond the 1-layer horizon");
        let outlinks = [0u32];
        let view = PageView {
            page: far,
            relevance: 0.0,
            consec_irrelevant: 1,
            outlinks: &outlinks,
            crawled: 1,
        };
        let mut out = Vec::new();
        s.admit(&view, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn online_learns_offline_layers_once_everything_is_crawled() {
        // Crawl the whole space (any order) feeding the online variant:
        // its learned layers must converge to the idealized oracle's.
        let ws = space();
        let oracle = ContextGraphStrategy::new(&ws, 3);
        let mut online = OnlineContextGraphStrategy::new(3);
        let mut out = Vec::new();
        for (i, p) in ws.page_ids().enumerate() {
            let view = PageView {
                page: p,
                relevance: if ws.is_relevant(p) { 1.0 } else { 0.0 },
                consec_irrelevant: u8::from(!ws.is_relevant(p)),
                outlinks: ws.outlinks(p),
                crawled: i as u64 + 1,
            };
            online.admit(&view, &mut out);
            out.clear();
        }
        for p in ws.page_ids() {
            let want = oracle.layers()[p as usize];
            let got = online.layer_of(p);
            // Both sides cap at max_layer; beyond it each reports
            // "unreached" with its own sentinel (u8::MAX for both).
            assert_eq!(got, want, "page {p}");
        }
    }

    #[test]
    fn online_unknown_pages_queue_last() {
        let mut s = OnlineContextGraphStrategy::new(2);
        let mut out = Vec::new();
        // Nothing relevant crawled yet: the first page's layer is
        // unknown, so its links queue at the dedicated last level.
        let view = PageView {
            page: 7,
            relevance: 0.0,
            consec_irrelevant: 1,
            outlinks: &[1, 2],
            crawled: 1,
        };
        s.admit(&view, &mut out);
        assert_eq!(s.levels(), 4);
        assert!(out.iter().all(|e| e.priority == 3), "{out:?}");
    }

    #[test]
    fn online_relevant_page_feeds_level_zero() {
        let mut s = OnlineContextGraphStrategy::new(3);
        let mut out = Vec::new();
        let view = PageView {
            page: 0,
            relevance: 1.0,
            consec_irrelevant: 0,
            outlinks: &[1, 2],
            crawled: 1,
        };
        s.admit(&view, &mut out);
        assert_eq!(s.layer_of(0), 0);
        assert!(out.iter().all(|e| e.priority == 0), "{out:?}");
    }

    #[test]
    fn layer_one_feeds_level_zero() {
        let ws = space();
        let mut s = ContextGraphStrategy::new(&ws, 3);
        let l1 = ws
            .page_ids()
            .find(|&p| s.layers()[p as usize] == 1)
            .expect("a layer-1 page");
        let outlinks = [0u32, 1];
        let view = PageView {
            page: l1,
            relevance: 0.0,
            consec_irrelevant: 1,
            outlinks: &outlinks,
            crawled: 1,
        };
        let mut out = Vec::new();
        s.admit(&view, &mut out);
        assert!(out.iter().all(|e| e.priority == 0));
    }
}
