//! The URL queue — priority-bucketed FIFO rings.
//!
//! Every strategy in the paper uses small-integer priorities (relevance
//! ∈ {0,1}; limited-distance ∈ 0..=N), so the queue is an array of
//! `VecDeque` rings indexed by priority level: O(1) push and pop, exact
//! FIFO within a level — the discipline the paper's curves assume — and
//! no per-entry allocation.
//!
//! The queue also owns the *admission key* table that implements
//! re-prioritization: a URL may be pushed again if it is later discovered
//! with a strictly better (priority, distance) key; stale entries are
//! skipped on pop. [`UrlQueue::pending`] counts **distinct** URLs waiting
//! — the quantity Fig. 5 / 6(a) / 7(a) plot — so duplicates never inflate
//! the reported queue size.

use langcrawl_webgraph::PageId;
use std::collections::VecDeque;

/// One queued URL with its admission metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Entry {
    /// The URL (page id in the virtual web space).
    pub page: PageId,
    /// Priority level, 0 = crawl first.
    pub priority: u8,
    /// Consecutive-irrelevant count of the path that discovered this URL
    /// (0 when the referrer was relevant or a seed).
    pub distance: u8,
}

impl Entry {
    /// Lexicographic admission key: lower is better.
    #[inline]
    fn key(&self) -> u16 {
        ((self.priority as u16) << 8) | self.distance as u16
    }
}

/// Priority-bucketed URL queue with duplicate suppression.
///
/// ```
/// use langcrawl_core::queue::{Entry, UrlQueue};
///
/// let mut q = UrlQueue::new(10, 2);
/// q.push(Entry { page: 3, priority: 1, distance: 0 });
/// q.push(Entry { page: 7, priority: 0, distance: 0 });
/// q.push(Entry { page: 3, priority: 0, distance: 0 }); // re-prioritized
/// assert_eq!(q.pending(), 2);
/// assert_eq!(q.pop().unwrap().page, 7); // level 0, FIFO
/// assert_eq!(q.pop().unwrap().page, 3); // promoted entry wins
/// assert!(q.pop().is_none());           // stale duplicate skipped
/// ```
#[derive(Debug)]
pub struct UrlQueue {
    levels: Vec<VecDeque<Entry>>,
    /// Per-page admission bar, one word instead of separate `done` /
    /// `best` tables so the duplicate check in [`UrlQueue::push`] and
    /// the stale check in [`UrlQueue::pop`] each touch a single cache
    /// line per page. Encoding: an entry with key `k` is *live* iff
    /// `k + 1 < bar` would have admitted it, i.e.
    ///   - [`BAR_NEVER`]  — never admitted (every key passes),
    ///   - `k + 1`        — best admission key so far is `k`
    ///     (only strictly better keys pass),
    ///   - [`BAR_DONE`]   — fetched (nothing passes).
    bar: Vec<u32>,
    /// Distinct pages admitted but not yet fetched.
    pending: usize,
    /// High-water mark of `pending`.
    max_pending: usize,
    /// Total entries ever pushed (diagnostic).
    pushes: u64,
}

/// Admission bar for a page never admitted: above any `key + 1`.
const BAR_NEVER: u32 = u16::MAX as u32 + 2;
/// Admission bar for a fetched page: below any `key + 1`.
const BAR_DONE: u32 = 0;

impl UrlQueue {
    /// Queue over a space of `num_pages` URLs with priorities `0..levels`.
    pub fn new(num_pages: usize, levels: usize) -> Self {
        UrlQueue {
            levels: (0..levels.max(1)).map(|_| VecDeque::new()).collect(),
            bar: vec![BAR_NEVER; num_pages],
            pending: 0,
            max_pending: 0,
            pushes: 0,
        }
    }

    /// Try to admit an entry. Returns true if it was enqueued (first
    /// discovery, or a strictly better key than any prior admission).
    // lint:root(panic-free, alloc-free) — one call per offered
    // outlink; rings only grow to their high-water size, everything
    // else is array writes.
    #[inline]
    pub fn push(&mut self, e: Entry) -> bool {
        let idx = e.page as usize;
        // lint:allow(no-panic-transitive): bar is page_count-sized and Entry.page < page_count by construction of the web space
        let bar = self.bar[idx];
        let raised = e.key() as u32 + 1;
        if raised >= bar {
            return false; // fetched, duplicate, or not strictly better
        }
        if bar == BAR_NEVER {
            self.pending += 1;
            self.max_pending = self.max_pending.max(self.pending);
        }
        self.bar[idx] = raised;
        let level = (e.priority as usize).min(self.levels.len() - 1);
        self.levels[level].push_back(e);
        self.pushes += 1;
        true
    }

    /// Admit a batch of entries in order (see [`UrlQueue::push`] for
    /// the per-entry contract). Accepts exactly the same entries in
    /// exactly the same order as pushing one at a time; the batch form
    /// hoists the level clamp and folds the push/high-water counter
    /// updates into locals flushed once per batch.
    // lint:root(panic-free, alloc-free) — the engine admits every
    // fetch's outlinks here.
    #[inline]
    pub fn push_all(&mut self, entries: &[Entry]) -> u32 {
        let last_level = self.levels.len() - 1;
        let mut pending = self.pending;
        let mut enqueued = 0u32;
        for &e in entries {
            let idx = e.page as usize;
            // lint:allow(no-panic-transitive): bar is page_count-sized and Entry.page < page_count by construction of the web space
            let bar = self.bar[idx];
            let raised = e.key() as u32 + 1;
            if raised >= bar {
                continue; // fetched, duplicate, or not strictly better
            }
            if bar == BAR_NEVER {
                pending += 1;
            }
            self.bar[idx] = raised;
            let level = (e.priority as usize).min(last_level);
            self.levels[level].push_back(e);
            enqueued += 1;
        }
        self.pending = pending;
        // `pending` only grows during a batch (pops happen elsewhere),
        // so its end-of-batch value is the batch's high-water mark.
        self.max_pending = self.max_pending.max(pending);
        self.pushes += enqueued as u64;
        enqueued
    }

    /// Pop the next URL to crawl: lowest priority level first, FIFO
    /// within a level; stale duplicates are skipped transparently.
    // lint:root(panic-free, alloc-free) — one call per fetch; pure
    // ring traffic.
    #[inline]
    pub fn pop(&mut self) -> Option<Entry> {
        while let Some(level) = self.levels.iter().position(|l| !l.is_empty()) {
            // lint:allow(no-panic-transitive): bar is page_count-sized and Entry.page < page_count by construction of the web space
            while let Some(e) = self.levels[level].pop_front() {
                let idx = e.page as usize;
                if e.key() as u32 >= self.bar[idx] {
                    continue; // fetched already, or superseded by a better entry
                }
                self.bar[idx] = BAR_DONE;
                self.pending -= 1;
                return Some(e);
            }
        }
        None
    }

    /// Re-admit a page that was already popped — the retry path. The
    /// fetched mark (which [`UrlQueue::push`] honors to keep fetched
    /// pages out forever) is cleared and the entry re-enters its
    /// priority ring at the back, with its key as the page's new best.
    /// Falls back to [`UrlQueue::push`] for pages that were never
    /// popped. Returns whether the entry was enqueued.
    pub fn requeue(&mut self, e: Entry) -> bool {
        let idx = e.page as usize;
        // lint:allow(no-panic-transitive): bar is page_count-sized and Entry.page < page_count by construction of the web space
        if self.bar[idx] != BAR_DONE {
            return self.push(e);
        }
        self.bar[idx] = e.key() as u32 + 1;
        self.pending += 1;
        self.max_pending = self.max_pending.max(self.pending);
        let level = (e.priority as usize).min(self.levels.len() - 1);
        self.levels[level].push_back(e);
        self.pushes += 1;
        true
    }

    /// Distinct URLs admitted and not yet fetched — the paper's "URL
    /// queue size".
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Largest value [`UrlQueue::pending`] ever reached.
    pub fn max_pending(&self) -> usize {
        self.max_pending
    }

    /// Has this page been fetched?
    pub fn is_done(&self, p: PageId) -> bool {
        self.bar[p as usize] == BAR_DONE
    }

    /// Was this page ever admitted (queued or fetched)?
    pub fn was_admitted(&self, p: PageId) -> bool {
        self.bar[p as usize] != BAR_NEVER
    }

    /// Total push operations accepted (diagnostic; counts duplicates).
    pub fn total_pushes(&self) -> u64 {
        self.pushes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(page: PageId, priority: u8, distance: u8) -> Entry {
        Entry {
            page,
            priority,
            distance,
        }
    }

    #[test]
    fn fifo_within_level() {
        let mut q = UrlQueue::new(10, 1);
        for p in [3, 1, 4, 1, 5] {
            q.push(e(p, 0, 0));
        }
        let order: Vec<PageId> = std::iter::from_fn(|| q.pop()).map(|x| x.page).collect();
        assert_eq!(order, vec![3, 1, 4, 5]); // duplicate 1 suppressed
    }

    #[test]
    fn priority_levels_strictly_ordered() {
        let mut q = UrlQueue::new(10, 3);
        q.push(e(1, 2, 0));
        q.push(e(2, 0, 0));
        q.push(e(3, 1, 0));
        q.push(e(4, 0, 0));
        let order: Vec<PageId> = std::iter::from_fn(|| q.pop()).map(|x| x.page).collect();
        assert_eq!(order, vec![2, 4, 3, 1]);
    }

    #[test]
    fn better_key_reprioritizes() {
        let mut q = UrlQueue::new(10, 3);
        assert!(q.push(e(7, 2, 0)));
        // Same page discovered again at a better priority.
        assert!(q.push(e(7, 0, 0)));
        assert_eq!(q.pending(), 1, "still one distinct URL");
        let first = q.pop().unwrap();
        assert_eq!((first.page, first.priority), (7, 0));
        assert!(q.pop().is_none(), "stale low-priority duplicate skipped");
    }

    #[test]
    fn worse_or_equal_key_rejected() {
        let mut q = UrlQueue::new(10, 3);
        assert!(q.push(e(7, 1, 0)));
        assert!(!q.push(e(7, 1, 0)));
        assert!(!q.push(e(7, 2, 0)));
        assert!(!q.push(e(7, 1, 1)));
        assert!(q.push(e(7, 1, 0).into_better()));
    }

    #[test]
    fn distance_breaks_priority_ties() {
        let mut q = UrlQueue::new(10, 2);
        assert!(q.push(e(5, 1, 3)));
        assert!(q.push(e(5, 1, 1))); // same priority, shorter path: better
        let got = q.pop().unwrap();
        assert_eq!(got.distance, 1);
    }

    #[test]
    fn done_pages_never_requeue() {
        let mut q = UrlQueue::new(10, 1);
        q.push(e(2, 0, 0));
        q.pop().unwrap();
        assert!(!q.push(e(2, 0, 0)));
        assert!(q.is_done(2));
    }

    #[test]
    fn requeue_readmits_a_popped_page() {
        let mut q = UrlQueue::new(10, 2);
        q.push(e(2, 0, 0));
        q.pop().unwrap();
        assert!(!q.push(e(2, 0, 0)), "plain push still refuses done pages");
        assert!(q.requeue(e(2, 1, 0)));
        assert!(!q.is_done(2));
        assert_eq!(q.pending(), 1);
        let again = q.pop().unwrap();
        assert_eq!((again.page, again.priority), (2, 1));
        assert!(q.is_done(2));
        assert!(q.pop().is_none());
    }

    #[test]
    fn requeue_of_unpopped_page_acts_like_push() {
        let mut q = UrlQueue::new(10, 2);
        assert!(q.requeue(e(3, 0, 0)), "first discovery");
        assert!(!q.requeue(e(3, 0, 0)), "duplicate rejected like push");
        assert_eq!(q.pending(), 1);
    }

    #[test]
    fn pending_and_high_water() {
        let mut q = UrlQueue::new(10, 2);
        for p in 0..5 {
            q.push(e(p, 0, 0));
        }
        assert_eq!(q.pending(), 5);
        assert_eq!(q.max_pending(), 5);
        q.pop();
        q.pop();
        assert_eq!(q.pending(), 3);
        assert_eq!(q.max_pending(), 5);
        q.push(e(9, 1, 0));
        assert_eq!(q.pending(), 4);
        assert_eq!(q.max_pending(), 5);
    }

    #[test]
    fn push_all_matches_per_entry_pushes() {
        let batch = [
            e(3, 1, 0),
            e(0, 0, 0),
            e(3, 1, 0), // duplicate within the batch
            e(1, 2, 1),
            e(1, 0, 0), // re-prioritized within the batch
            e(7, 9, 0), // clamped level
        ];
        let mut one_by_one = UrlQueue::new(10, 3);
        let mut accepted = 0u32;
        for &x in &batch {
            if one_by_one.push(x) {
                accepted += 1;
            }
        }
        let mut batched = UrlQueue::new(10, 3);
        assert_eq!(batched.push_all(&batch), accepted);
        assert_eq!(batched.pending(), one_by_one.pending());
        assert_eq!(batched.max_pending(), one_by_one.max_pending());
        assert_eq!(batched.total_pushes(), one_by_one.total_pushes());
        let want: Vec<Entry> = std::iter::from_fn(|| one_by_one.pop()).collect();
        let got: Vec<Entry> = std::iter::from_fn(|| batched.pop()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn key_ceiling_entry_is_admitted_once_and_only_once() {
        // The worst possible key (priority 255, distance 255) sits right
        // at the admission-bar encoding's boundary: it must be admitted
        // on first discovery, rejected as a duplicate, and superseded by
        // anything better.
        let mut q = UrlQueue::new(4, 2);
        assert!(q.push(e(0, 255, 255)));
        assert!(!q.push(e(0, 255, 255)), "equal key rejected");
        assert!(q.push(e(0, 255, 254)), "strictly better distance accepted");
        assert_eq!(q.pending(), 1);
        assert_eq!(q.pop().unwrap().distance, 254);
        assert!(q.pop().is_none(), "stale ceiling entry skipped");
    }

    #[test]
    fn out_of_range_priority_clamped_to_last_level() {
        let mut q = UrlQueue::new(4, 2);
        q.push(e(0, 9, 0)); // clamps into level 1
        q.push(e(1, 0, 0));
        assert_eq!(q.pop().unwrap().page, 1);
        assert_eq!(q.pop().unwrap().page, 0);
    }

    impl Entry {
        fn into_better(mut self) -> Entry {
            self.priority = 0;
            self
        }
    }
}
