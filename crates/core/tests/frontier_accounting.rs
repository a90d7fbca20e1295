//! Frontier accounting under retry exhaustion.
//!
//! The engine's retry path (`Frontier::requeue`) re-opens a page's
//! pending slot; when the page later exhausts its attempt budget
//! (`gave_up`) it resolves like any other fetch and the slot closes
//! again. This suite pins the accounting across both frontier
//! implementations on a heavily faulted run: `pending()` must return to
//! exactly zero once the crawl finishes, and — because under a
//! breadth-first strategy all admission keys are equal and both
//! disciplines degrade to the same FIFO — the crawl itself, its
//! `max_pending` high-water mark, and its push totals must be
//! *identical* across `UrlQueue` and `ShardedFrontier`.

use langcrawl_core::classifier::OracleClassifier;
use langcrawl_core::engine::{CrawlEngine, EngineConfig};
use langcrawl_core::event::{interest, CrawlEvent, EventSink};
use langcrawl_core::queue::UrlQueue;
use langcrawl_core::shard::ShardedFrontier;
use langcrawl_core::strategy::BreadthFirst;
use langcrawl_webgraph::{FaultConfig, GeneratorConfig, WebSpace};

/// Captures the frontier counters the engine reports at `Finished`.
#[derive(Debug, Default)]
struct FinishedCapture {
    pending: Option<usize>,
    max_pending: usize,
    total_pushes: u64,
}

impl EventSink for FinishedCapture {
    fn on_event(&mut self, event: &CrawlEvent) {
        if let CrawlEvent::Finished {
            pending,
            max_pending,
            total_pushes,
            ..
        } = *event
        {
            self.pending = Some(pending);
            self.max_pending = max_pending;
            self.total_pushes = total_pushes;
        }
    }
    fn interests(&self) -> u16 {
        interest::FINISHED
    }
}

fn space() -> WebSpace {
    GeneratorConfig::thai_like().scaled(6_000).build(17)
}

/// One faulted run per frontier implementation; returns the outcome and
/// the `Finished` snapshot.
fn faulted_runs() -> Vec<(
    &'static str,
    langcrawl_core::engine::EngineOutcome,
    FinishedCapture,
)> {
    let ws = space();
    // A high transient rate plus dead hosts guarantees retry traffic
    // AND exhausted budgets (`gave_up`) — the accounting paths under
    // audit.
    let engine = CrawlEngine::new(
        &ws,
        EngineConfig {
            fault: FaultConfig::with_rate(0.3),
            ..EngineConfig::default()
        },
    );
    let classifier = OracleClassifier::target(ws.target_language());
    let mut out = Vec::new();
    for name in ["url_queue", "sharded"] {
        let mut capture = FinishedCapture::default();
        let outcome = match name {
            "url_queue" => engine.run(
                UrlQueue::new(ws.num_pages(), 1),
                &mut BreadthFirst::new(),
                &classifier,
                &mut [&mut capture],
            ),
            _ => engine.run(
                ShardedFrontier::for_space(&ws, 1, 4),
                &mut BreadthFirst::new(),
                &classifier,
                &mut [&mut capture],
            ),
        };
        out.push((name, outcome, capture));
    }
    out
}

#[test]
fn pending_returns_to_zero_when_retries_exhaust() {
    for (name, outcome, capture) in faulted_runs() {
        assert!(
            outcome.gave_up > 0,
            "{name}: the fixture must exhaust some retry budgets"
        );
        assert!(outcome.retries > 0, "{name}: the fixture must retry");
        assert_eq!(
            capture.pending,
            Some(0),
            "{name}: frontier must drain to zero pending"
        );
    }
}

#[test]
fn accounting_is_identical_across_frontier_implementations() {
    let runs = faulted_runs();
    let (_, first, cap0) = &runs[0];
    for (name, outcome, capture) in &runs[1..] {
        assert_eq!(
            outcome, first,
            "{name}: outcome diverged from url_queue under uniform keys"
        );
        assert_eq!(capture.max_pending, cap0.max_pending, "{name}");
        assert_eq!(capture.total_pushes, cap0.total_pushes, "{name}");
    }
    // And the sink's view agrees with the outcome's.
    for (name, outcome, capture) in &runs {
        assert_eq!(outcome.max_pending, capture.max_pending, "{name}");
        assert_eq!(outcome.total_pushes, capture.total_pushes, "{name}");
    }
}
