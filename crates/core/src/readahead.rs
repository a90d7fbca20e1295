//! The timed schedule's frontier: Mercator's front and back queues.
//!
//! The **front** is the strategy's priority queue ([`UrlQueue`]); the
//! **back** is a FIFO queue per host that is not free yet, with a heap
//! of those hosts by the tick they become free. A free slot takes the
//! parked host whose free time came first, once it has come; otherwise
//! the front's best URL, served if its host is free and parked behind
//! it otherwise — until `read_ahead` URLs are parked. So the strategy's
//! order holds up to the politeness constraint, rather than slots going
//! to whichever hosts happen to be free.

use crate::frontier::Frontier;
use crate::queue::{Entry, UrlQueue};
use langcrawl_webgraph::{PageId, WebSpace};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Mercator's front and back queues behind the event loop's slots.
#[derive(Debug)]
pub(crate) struct ReadAhead<'a> {
    /// The crawled space (each page's host).
    ws: &'a WebSpace,
    /// The strategy's priority queue.
    front: UrlQueue,
    /// Per-host back queues, in the order taken off the front.
    parked: Vec<VecDeque<Entry>>,
    /// `(free_at, host)`, one pair per host with parked URLs.
    ready: BinaryHeap<Reverse<(u64, u32)>>,
    /// Earliest tick each host may start its next fetch.
    free_at: Vec<u64>,
    /// URLs in all back queues.
    parked_total: usize,
    /// Bound on `parked_total` (at least 1).
    read_ahead: usize,
    max_pending: usize,
    /// The clock of the last `advance_to`.
    now: u64,
}

impl<'a> ReadAhead<'a> {
    /// An empty frontier over `ws` with `levels` priority levels and at
    /// most `read_ahead` parked URLs (`0` counts as 1).
    pub(crate) fn for_space(ws: &'a WebSpace, levels: usize, read_ahead: usize) -> Self {
        ReadAhead {
            ws,
            front: UrlQueue::new(ws.num_pages(), levels),
            parked: vec![VecDeque::new(); ws.num_hosts()],
            ready: BinaryHeap::new(),
            free_at: vec![0; ws.num_hosts()],
            parked_total: 0,
            read_ahead: read_ahead.max(1),
            max_pending: 0,
            now: 0,
        }
    }
}

impl Frontier for ReadAhead<'_> {
    fn push(&mut self, e: Entry) -> bool {
        self.push_all(&[e]) == 1
    }

    fn push_all(&mut self, entries: &[Entry]) -> u32 {
        let enqueued = self.front.push_all(entries);
        self.max_pending = self.max_pending.max(self.pending());
        enqueued
    }

    /// The scheduler's pop at the clock of the last advance: this
    /// frontier only ever serves the event loop.
    fn pop(&mut self) -> Option<Entry> {
        self.pop_ready()
    }

    fn requeue(&mut self, e: Entry) -> bool {
        let accepted = self.front.requeue(e);
        self.max_pending = self.max_pending.max(self.pending());
        accepted
    }

    /// Front and parked URLs together.
    fn pending(&self) -> usize {
        self.front.pending() + self.parked_total
    }

    fn max_pending(&self) -> usize {
        self.max_pending
    }

    fn total_pushes(&self) -> u64 {
        self.front.total_pushes()
    }

    /// A parked URL has left the front but is not fetched yet.
    fn is_done(&self, p: PageId) -> bool {
        self.front.is_done(p) && !self.parked.iter().flatten().any(|e| e.page == p)
    }

    fn was_admitted(&self, p: PageId) -> bool {
        self.front.was_admitted(p)
    }

    fn pop_ready(&mut self) -> Option<Entry> {
        let now = self.now;
        // 1. The parked host whose free time came first, once it has
        // come: a host is in `ready` only while its back queue holds
        // URLs, and `started` re-queues it if it parks more.
        if let Some(&Reverse((t, h))) = self.ready.peek() {
            if t <= now {
                self.ready.pop();
                self.parked_total -= 1;
                // lint:allow(no-panic-transitive): hosts come from the space, whose host count sized the per-host tables
                return self.parked[h as usize].pop_front();
            }
        }
        // 2. The front's best URL: served if its host is free, parked
        // behind it otherwise, until the back queues are full.
        while self.parked_total < self.read_ahead {
            let e = self.front.pop()?;
            let h = self.ws.meta(e.page).host;
            let free_at = self.free_at[h as usize];
            if free_at <= now {
                return Some(e);
            }
            let queue = &mut self.parked[h as usize];
            if queue.is_empty() {
                self.ready.push(Reverse((free_at, h)));
            }
            queue.push_back(e);
            self.parked_total += 1;
        }
        None
    }

    fn started(&mut self, host: u32, free_at: u64) {
        // lint:allow(no-panic-transitive): hosts come from the space, whose host count sized the per-host tables
        self.free_at[host as usize] = free_at;
        if !self.parked[host as usize].is_empty() {
            self.ready.push(Reverse((free_at, host)));
        }
    }

    /// Only the clock moves: a parked host is served once its free
    /// time has come, when a slot asks.
    fn advance_to(&mut self, t: u64) {
        self.now = t;
    }

    fn next_cooling(&self) -> Option<u64> {
        self.ready.peek().map(|&Reverse((t, _))| t)
    }

    fn politeness_wait(&self, host: u32, free_at: u64, now: u64) -> bool {
        free_at > now
            && self
                .parked
                .get(host as usize)
                .is_some_and(|q| !q.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use langcrawl_webgraph::GeneratorConfig;

    #[test]
    fn busy_hosts_park_urls_until_free_within_the_read_ahead() {
        let ws = GeneratorConfig::thai_like().scaled(500).build(5);
        // Pages a0, a1 on one host and b0, b1 on another.
        let mut by_host = std::collections::BTreeMap::<u32, Vec<PageId>>::new();
        for p in ws.page_ids() {
            by_host.entry(ws.meta(p).host).or_default().push(p);
        }
        let mut hosts = by_host.values().filter(|pages| pages.len() >= 2);
        let (a, b) = (hosts.next().unwrap(), hosts.next().unwrap());
        let urls = [a[0], a[1], b[0], b[1]].map(|page| Entry {
            page,
            priority: 0,
            distance: 0,
        });
        // With room to read ahead, b0 starts while a1 waits for its
        // host; with one parking place, a1 fills it and b0 waits.
        for (read_ahead, order) in [(256, [0, 2, 1, 3]), (1, [0, 1, 2, 3])] {
            let mut f = ReadAhead::for_space(&ws, 1, read_ahead);
            f.push_all(&urls);
            let mut started = Vec::new();
            for t in [0, 0, 10, 10, 20, 20] {
                f.advance_to(t);
                // Each start keeps its host busy for 10 ticks.
                if let Some(x) = f.pop_ready() {
                    f.started(ws.meta(x.page).host, t + 10);
                    started.push(x);
                    // A parked URL is pending, not fetched.
                    assert_eq!(f.is_done(a[1]), started.contains(&urls[1]));
                }
            }
            assert_eq!(started, order.map(|i| urls[i]), "read-ahead {read_ahead}");
            assert_eq!(f.pending(), 0);
        }
    }
}
