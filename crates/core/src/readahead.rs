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

/// URLs a timed crawl's free slots may park in per-host back queues
/// before they stop reading ahead in the strategy's queue.
pub(crate) const READ_AHEAD: usize = 256;

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
    use langcrawl_minicheck::{check_default, Gen};
    use langcrawl_webgraph::GeneratorConfig;
    use std::collections::BTreeMap;

    #[test]
    fn busy_hosts_park_urls_until_free_within_the_read_ahead() {
        let ws = GeneratorConfig::thai_like().scaled(500).build(5);
        // Pages a0, a1 on one host and b0, b1 on another.
        let mut by_host = BTreeMap::<u32, Vec<PageId>>::new();
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

    /// Mercator's frontier as a plain model: one front list of every
    /// admission under the queue's admission rule, a FIFO back list per
    /// host whose total never exceeds the read-ahead bound, and a free
    /// time per host.
    struct Mercator {
        host_of: Vec<u32>,
        levels: u8,
        bound: usize,
        /// Every admission still in the front, as `(level, seq, entry)`.
        front: Vec<(u8, u64, Entry)>,
        /// Per page, the best key admitted since it last left the front.
        best: Vec<Option<u16>>,
        /// Per page, whether it left the front (parked or served).
        taken: Vec<bool>,
        back: Vec<VecDeque<Entry>>,
        free_at: Vec<u64>,
        now: u64,
        seq: u64,
        pending: usize,
        max_pending: usize,
    }

    impl Mercator {
        fn new(ws: &WebSpace, levels: u8, bound: usize) -> Self {
            Mercator {
                host_of: ws.page_ids().map(|p| ws.meta(p).host).collect(),
                levels,
                bound,
                front: Vec::new(),
                best: vec![None; ws.num_pages()],
                taken: vec![false; ws.num_pages()],
                back: vec![VecDeque::new(); ws.num_hosts()],
                free_at: vec![0; ws.num_hosts()],
                now: 0,
                seq: 0,
                pending: 0,
                max_pending: 0,
            }
        }

        fn key(e: &Entry) -> u16 {
            (u16::from(e.priority) << 8) | u16::from(e.distance)
        }

        /// Admitted iff the page is still in the front's hands and the
        /// key beats every admission since it last left the front.
        fn push(&mut self, e: Entry) -> bool {
            let p = e.page as usize;
            if self.taken[p] || self.best[p].is_some_and(|b| Self::key(&e) >= b) {
                return false;
            }
            if self.best[p].is_none() {
                self.pending += 1;
                self.max_pending = self.max_pending.max(self.pending);
            }
            self.best[p] = Some(Self::key(&e));
            self.front
                .push((e.priority.min(self.levels - 1), self.seq, e));
            self.seq += 1;
            true
        }

        /// A page that left the front is admitted afresh.
        fn requeue(&mut self, e: Entry) -> bool {
            let p = e.page as usize;
            if self.taken[p] {
                self.taken[p] = false;
                self.best[p] = None;
            }
            self.push(e)
        }

        fn parked(&self) -> usize {
            self.back.iter().map(VecDeque::len).sum()
        }

        fn is_done(&self, p: PageId) -> bool {
            self.taken[p as usize] && !self.back.iter().flatten().any(|e| e.page == p)
        }

        /// The front's least `(level, seq)` live admission: the best
        /// one of a page still in the front.
        fn take_front(&mut self) -> Option<Entry> {
            loop {
                let i =
                    (0..self.front.len()).min_by_key(|&i| (self.front[i].0, self.front[i].1))?;
                let (_, _, e) = self.front.remove(i);
                let p = e.page as usize;
                if !self.taken[p] && self.best[p].is_some_and(|b| Self::key(&e) <= b) {
                    self.taken[p] = true;
                    return Some(e);
                }
            }
        }

        /// The host with back-listed work whose free time comes first.
        fn first_back(&self) -> Option<usize> {
            (0..self.back.len())
                .filter(|&h| !self.back[h].is_empty())
                .min_by_key(|&h| (self.free_at[h], h))
        }

        fn pop_ready(&mut self) -> Option<Entry> {
            if let Some(h) = self.first_back().filter(|&h| self.free_at[h] <= self.now) {
                self.pending -= 1;
                return self.back[h].pop_front();
            }
            while self.parked() < self.bound {
                let e = self.take_front()?;
                let h = self.host_of[e.page as usize] as usize;
                if self.free_at[h] <= self.now {
                    self.pending -= 1;
                    return Some(e);
                }
                self.back[h].push_back(e);
            }
            None
        }

        fn next_cooling(&self) -> Option<u64> {
            self.first_back().map(|h| self.free_at[h])
        }
    }

    /// `ReadAhead` against [`Mercator`] through the crawl loop's calls,
    /// with a small random read-ahead bound over a few hosts of a small
    /// space: random pushes, batches, requeues of served pages at the
    /// key they were served with (the engine's retry path), pops each
    /// followed by `started` with a free time past the clock, and a
    /// clock that only moves forward. Every return value must agree,
    /// and so must `pending`, `max_pending`, `total_pushes`, `is_done`
    /// and `politeness_wait` after every step, and `next_cooling`
    /// whenever `pop_ready` returns `None`. A final drain, moving the
    /// clock to each `next_cooling`, must serve the same tail.
    #[test]
    fn read_ahead_matches_the_mercator_model() {
        let ws = GeneratorConfig::thai_like().scaled(500).build(5);
        let mut by_host = BTreeMap::<u32, Vec<PageId>>::new();
        for p in ws.page_ids() {
            by_host.entry(ws.meta(p).host).or_default().push(p);
        }
        // Up to five pages on each of five hosts, so hosts contend.
        let crowded = by_host.iter().filter(|(_, pages)| pages.len() >= 3).take(5);
        let (hosts, pages): (Vec<u32>, Vec<&[PageId]>) = crowded
            .map(|(&h, pages)| (h, &pages[..pages.len().min(5)]))
            .unzip();
        let pages = pages.concat();
        check_default(|g| {
            let (levels, bound) = (g.u8(1..=3), g.usize(1..5));
            let mut real = ReadAhead::for_space(&ws, levels.into(), bound);
            let mut model = Mercator::new(&ws, levels, bound);
            // The entry each fetched page was last served with.
            let mut served: Vec<Option<Entry>> = vec![None; ws.num_pages()];
            let arb_entry = |g: &mut Gen| Entry {
                page: *g.pick(&pages),
                priority: g.u8(0..=3),
                distance: g.u8(0..=2),
            };
            let start = |real: &mut ReadAhead<'_>,
                         model: &mut Mercator,
                         served: &mut Vec<Option<Entry>>,
                         g: &mut Gen| {
                let got = real.pop_ready();
                assert_eq!(got, model.pop_ready(), "pop_ready at {}", model.now);
                match got {
                    Some(e) => {
                        let host = ws.meta(e.page).host;
                        let free_at = model.now + g.u64(1..5);
                        real.started(host, free_at);
                        model.free_at[host as usize] = free_at;
                        served[e.page as usize] = Some(e);
                    }
                    None => assert_eq!(real.next_cooling(), model.next_cooling(), "next_cooling"),
                }
                got
            };
            for _ in 0..g.usize(1..300) {
                match g.weighted(&[4, 1, 1, 3, 2]) {
                    0 => {
                        let e = arb_entry(g);
                        assert_eq!(real.push(e), model.push(e), "push {e:?}");
                    }
                    1 => {
                        let batch = g.vec(1..6, arb_entry);
                        let want = batch.iter().filter(|&&e| model.push(e)).count() as u32;
                        assert_eq!(real.push_all(&batch), want, "push_all {batch:?}");
                    }
                    2 => {
                        let page = *g.pick(&pages);
                        if let Some(e) = served[page as usize].filter(|_| model.is_done(page)) {
                            assert_eq!(real.requeue(e), model.requeue(e), "requeue {e:?}");
                        }
                    }
                    3 => {
                        start(&mut real, &mut model, &mut served, g);
                    }
                    _ => {
                        model.now += g.u64(0..3);
                        real.advance_to(model.now);
                    }
                }
                assert_eq!(real.pending(), model.pending);
                assert_eq!(real.max_pending(), model.max_pending);
                assert_eq!(real.total_pushes(), model.seq);
                let page = *g.pick(&pages);
                assert_eq!(real.is_done(page), model.is_done(page), "is_done({page})");
                let host = *g.pick(&hosts);
                let free_at = model.free_at[host as usize];
                assert_eq!(
                    real.politeness_wait(host, free_at, model.now),
                    free_at > model.now && !model.back[host as usize].is_empty(),
                    "politeness_wait of host {host}"
                );
            }
            // Drain: serve everything, moving the clock to the next free
            // time of a host with back-listed work whenever nothing is
            // ready.
            while start(&mut real, &mut model, &mut served, g).is_some() || model.pending > 0 {
                if let Some(t) = real.next_cooling() {
                    if t > model.now {
                        model.now = t;
                        real.advance_to(t);
                    }
                }
            }
            assert_eq!(real.pending(), 0);
            assert_eq!(real.next_cooling(), None);
        });
    }
}
