//! The frontier seam — who decides *what to crawl next*.
//!
//! The paper's architecture (Fig. 2) has a single "URL queue" box, and
//! industrial crawlers (e.g. BUbiNG) generalize exactly this box: the
//! frontier is the one component whose policy and data structure change
//! as a crawler scales (priority rings → heaps → sharded disk queues).
//! [`Frontier`] captures the contract the crawl engine needs, nothing
//! more, so implementations can be swapped without touching the engine:
//!
//! * [`crate::queue::UrlQueue`] — the default: priority-bucketed FIFO
//!   rings, the discipline every figure of the paper assumes;
//! * [`crate::shard::ShardedFrontier`] — the scaling step: host-sharded
//!   storage with per-host politeness state for the virtual-time
//!   scheduler ([`crate::sched`]), reproducing [`UrlQueue`]'s exact pop
//!   order when every host is ready.
//!
//! Both share the same admission semantics: a page is admitted once,
//! re-admitted only with a *strictly better* key (re-prioritization),
//! never re-admitted after it was popped, and `pending()` counts
//! distinct waiting pages — the paper's "URL queue size".
//!
//! The crawl loop drives every frontier through the same calls: it
//! starts entries with [`Frontier::pop_ready`], tells the frontier when
//! each started host is free again, and moves its clock. The defaults
//! of those calls describe a frontier whose hosts are always free, so
//! a plain queue implements only the admission half of the trait.

use crate::queue::{Entry, UrlQueue};
use crate::shard::ShardStats;
use langcrawl_webgraph::PageId;

/// The crawl engine's view of a URL frontier.
///
/// Implementations own duplicate suppression and re-prioritization; the
/// engine only pushes discoveries and pops the next page to fetch.
pub trait Frontier {
    /// Try to admit an entry. Returns `true` if it was enqueued (first
    /// discovery, or a strictly better `(priority, distance)` key than
    /// any prior admission of the same page).
    fn push(&mut self, e: Entry) -> bool;

    /// Admit a batch of entries in order, returning how many were
    /// enqueued. Semantically identical to calling [`Frontier::push`]
    /// once per entry; implementations may override it to amortize
    /// per-push bookkeeping across the batch (the sharded frontier
    /// defers its per-host heap refresh to one pass at the end), but
    /// must accept exactly the same entries in exactly the same order.
    fn push_all(&mut self, entries: &[Entry]) -> u32 {
        let mut enqueued = 0u32;
        for &e in entries {
            if self.push(e) {
                enqueued += 1;
            }
        }
        enqueued
    }

    /// Pop the next URL to crawl, or `None` when the frontier is dry.
    fn pop(&mut self) -> Option<Entry>;

    /// Re-admit a page that was already popped — the engine's retry
    /// path for transient fetch failures. Unlike [`Frontier::push`]
    /// (which never re-admits a fetched page), this clears the page's
    /// fetched mark and enqueues the entry as if newly discovered at
    /// its key; for never-popped pages it behaves like `push`. Returns
    /// whether the entry was enqueued.
    fn requeue(&mut self, e: Entry) -> bool;

    /// Distinct URLs admitted and not yet fetched — the paper's "URL
    /// queue size".
    fn pending(&self) -> usize;

    /// Largest value [`Frontier::pending`] ever reached.
    fn max_pending(&self) -> usize;

    /// Total push operations accepted (diagnostic; counts accepted
    /// re-prioritizations).
    fn total_pushes(&self) -> u64;

    /// Has this page been fetched?
    fn is_done(&self, p: PageId) -> bool;

    /// Was this page ever admitted (queued or fetched)?
    fn was_admitted(&self, p: PageId) -> bool;

    /// The next entry to start at the clock of the last
    /// [`Frontier::advance_to`], or `None` while no waiting entry's host
    /// is free; [`Frontier::started`] follows each. By default every
    /// host is free, so this is [`Frontier::pop`].
    #[inline]
    fn pop_ready(&mut self) -> Option<Entry> {
        self.pop()
    }

    /// A fetch on `host` started; the host may start again at `free_at`.
    #[inline]
    fn started(&mut self, _host: u32, _free_at: u64) {}

    /// Move the clock to `t`, freeing every host due by then.
    #[inline]
    fn advance_to(&mut self, _t: u64) {}

    /// The earliest tick a waiting host becomes free, if any.
    #[inline]
    fn next_cooling(&self) -> Option<u64> {
        None
    }

    /// Does a fetch on `host` completing at `now` leave queued work
    /// waiting for its host until `free_at` (a politeness wait)?
    #[inline]
    fn politeness_wait(&self, _host: u32, _free_at: u64, _now: u64) -> bool {
        false
    }

    /// Declare the host whose fetch is resolving (`None` once it has
    /// resolved), so pushes can be attributed to it as handoffs.
    #[inline]
    fn set_origin(&mut self, _host: Option<u32>) {}

    /// Accepted pushes that crossed shards so far.
    #[inline]
    fn handoffs(&self) -> u64 {
        0
    }

    /// Per-shard load counters, in shard order; empty for an unsharded
    /// frontier.
    fn shard_stats(&self) -> Vec<ShardStats> {
        Vec::new()
    }
}

impl Frontier for UrlQueue {
    #[inline]
    fn push(&mut self, e: Entry) -> bool {
        UrlQueue::push(self, e)
    }

    #[inline]
    fn push_all(&mut self, entries: &[Entry]) -> u32 {
        UrlQueue::push_all(self, entries)
    }

    #[inline]
    fn pop(&mut self) -> Option<Entry> {
        UrlQueue::pop(self)
    }

    #[inline]
    fn requeue(&mut self, e: Entry) -> bool {
        UrlQueue::requeue(self, e)
    }

    #[inline]
    fn pending(&self) -> usize {
        UrlQueue::pending(self)
    }

    fn max_pending(&self) -> usize {
        UrlQueue::max_pending(self)
    }

    fn total_pushes(&self) -> u64 {
        UrlQueue::total_pushes(self)
    }

    fn is_done(&self, p: PageId) -> bool {
        UrlQueue::is_done(self, p)
    }

    fn was_admitted(&self, p: PageId) -> bool {
        UrlQueue::was_admitted(self, p)
    }
}
