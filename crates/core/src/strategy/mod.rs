//! Crawling strategies — the paper's "observers" (Fig. 2).
//!
//! A strategy watches every fetched page (URL, classifier relevance,
//! consecutive-irrelevant run, outlinks) and decides which extracted
//! URLs enter the queue and at what priority. Each paper strategy is a
//! small, isolated implementation of [`Strategy`]:
//!
//! | paper §  | type |
//! |---|---|
//! | breadth-first baseline | [`BreadthFirst`] |
//! | §3.3.1 simple, hard-/soft-focused (Table 2) | [`SimpleStrategy`] |
//! | §3.3.2 limited distance, non-prioritized / prioritized | [`LimitedDistanceStrategy`] |
//! | §5.1 dataset-collection combinations (simple + tunnel) | [`CombinedStrategy`] |
//! | §2.1 distiller (Kleinberg HITS), extension | [`HitsStrategy`] |
//! | §2.2 context-graph crawler, extension | [`ContextGraphStrategy`] (idealized oracle), [`OnlineContextGraphStrategy`] (learned online) |
//! | ref. \[3\] URL-ordering baselines (Cho et al.), extension | [`BacklinkCount`], [`OnlinePageRank`] |
//! | national-archive ccTLD scoping baseline, extension | [`TldScopeStrategy`] |

mod breadth_first;
mod combined;
mod context_graph;
mod hits;
mod limited_distance;
mod simple;
mod tld_scope;
mod url_ordering;

pub use breadth_first::BreadthFirst;
pub use combined::{CombinedBase, CombinedStrategy};
pub use context_graph::{ContextGraphStrategy, OnlineContextGraphStrategy};
pub use hits::HitsStrategy;
pub use limited_distance::LimitedDistanceStrategy;
pub use simple::SimpleStrategy;
pub use tld_scope::{TldScope, TldScopeStrategy};
pub use url_ordering::{BacklinkCount, OnlinePageRank};

use crate::queue::Entry;
use langcrawl_webgraph::PageId;

/// What the visitor reports to the observer after fetching one page.
#[derive(Debug, Clone, Copy)]
pub struct PageView<'a> {
    /// The fetched page.
    pub page: PageId,
    /// Classifier relevance score of this page (0.0 for failed fetches
    /// and non-HTML resources).
    pub relevance: f64,
    /// Length of the run of consecutive irrelevant pages ending at this
    /// page on the crawl path that discovered it (0 when this page is
    /// relevant).
    pub consec_irrelevant: u8,
    /// URLs extracted from this page.
    pub outlinks: &'a [PageId],
    /// Pages crawled so far, including this one (for periodic observers).
    pub crawled: u64,
}

/// A crawl-ordering strategy: decides admission and priority of
/// extracted URLs.
pub trait Strategy {
    /// Display name, e.g. `"soft-focused"`.
    fn name(&self) -> String;

    /// Number of priority levels this strategy uses (the queue is sized
    /// accordingly; level 0 is crawled first).
    fn levels(&self) -> usize;

    /// Called once per fetched page. Push admitted URLs (usually drawn
    /// from `view.outlinks`, but a strategy may also re-prioritize other
    /// known URLs, as the HITS distiller does) into `out`.
    fn admit(&mut self, view: &PageView<'_>, out: &mut Vec<Entry>);

    /// Whether the strategy keeps state outside the frontier, such as a
    /// crawl-graph store, solver state or a counter. Snapshots capture
    /// only the frontier and the engine's own state, so
    /// [`crate::engine::CrawlEngine::resume`] refuses a strategy that
    /// keeps state rather than continue the crawl from fresh state. A
    /// strategy that wraps another must forward this.
    fn keeps_state(&self) -> bool {
        false
    }
}

/// Admission helper shared by strategies: emit every outlink with one
/// (priority, distance) pair.
#[inline]
pub(crate) fn emit_all(view: &PageView<'_>, priority: u8, distance: u8, out: &mut Vec<Entry>) {
    out.reserve(view.outlinks.len());
    for &t in view.outlinks {
        out.push(Entry {
            page: t,
            priority,
            distance,
        });
    }
}
