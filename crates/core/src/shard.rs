//! The host-partitioned frontier: per-host parking over [`UrlQueue`]'s
//! rings — BUbiNG's workbench of hosts in miniature.
//!
//! Politeness is a per-host constraint, so production crawlers schedule
//! hosts, not URLs. [`ShardedFrontier`] adds exactly that to the one
//! URL queue, and implements the existing [`Frontier`] trait, so
//! strategies and the admission contract are untouched:
//!
//! * **admission and storage** are [`UrlQueue`]'s: one admission bar,
//!   one FIFO ring per priority level, `pending()` counts distinct
//!   waiting pages;
//! * **parking is lazy**: an entry leaves its ring for its host's
//!   parked list only when it reaches a ring head while its host is
//!   cooling (a fetch started and the host's next allowed start is
//!   still ahead). A host's parked list is ordered by `(level, park
//!   order)`; within one level the park order is the rings' FIFO order,
//!   and every parked entry left its ring before anything still in it;
//! * **hosts, not URLs, wait**: a free host that holds parked work sits
//!   in one `(level, park order)` ready heap, keyed by its first parked
//!   entry and listed once, and a cooling host with parked work and a
//!   pending page sits in one `(free time, host)` wake heap, listed
//!   when it parks or starts with work parked. A pop takes the ready
//!   heap's top when its level is at most the lowest non-empty ring's,
//!   else the ring head; either way it is the least `(level, seq)` live
//!   entry whose host is free, so the pop order is [`UrlQueue`]'s
//!   wherever every host is free. Stale entries — superseded by a
//!   better admission, or of a fetched page — are skipped at pop time
//!   as the rings skip them;
//! * **shards are labels**: each host hashes to one of `shards`
//!   [`ShardStats`] slots (agents, in BUbiNG's vocabulary), which count
//!   the pushes the parallelism sweep reports; a push that crosses
//!   shards counts as a discovery handoff ([`Frontier::handoffs`]). A
//!   shard holds no entries, so the shard count never changes a pop.
//!
//! With one slot and no politeness a host is free again by the next
//! pop, so nothing would ever park: the scheduler drains a bare
//! [`UrlQueue`] then. Tie-breaks are total and deterministic:
//! `(level, seq)` orders entries, `(free time, host)` orders wakes, and
//! shard assignment is a pure hash of the host id.
//!
//! This module alone knows the snapshot's frontier section, and writes
//! it in one shape for both frontiers: per level, the waiting entries in
//! pop order, parked ones first; the fetched bits and the pending,
//! high-water and push counters; the cooling hosts; one push count per
//! shard. A [`UrlQueue`] writes what a one-shard [`ShardedFrontier`]
//! with nothing parked or cooling writes: an empty cooling list and its
//! own push count.

use crate::frontier::Frontier;
use crate::queue::{Entry, UrlQueue, BAR_DONE, BAR_NEVER};
use crate::snapshot::{Dec, Enc, SnapshotError};
use langcrawl_rng::mix;
use langcrawl_webgraph::{PageId, WebSpace};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Salt for the host → shard hash. Any fixed constant works; hashing
/// (rather than `host % shards`) decorrelates shard load from the
/// generator's host-id layout, which allocates contiguous id ranges to
/// similar hosts.
const SHARD_SALT: u64 = 0x5ca1_ab1e_0000_0001;

/// Per-shard load counters, for the imbalance stats the parallelism
/// sweep reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Accepted pushes routed to this shard.
    pub pushes: u64,
}

/// A parked entry's sort key within its level, then the entry. Park
/// orders are unique, so `(level, order)` totally orders parked work.
type Parked = (u64, Entry);

/// A parked entry as a capture sorts it: `(level, park order, entry)`.
type ParkedAt = (u8, u64, Entry);

/// `Host::listed` of a host with no copy on the ready heap.
const UNLISTED: u64 = u64::MAX;

/// What the frontier keeps per host, in one cache line's worth.
#[derive(Debug, Clone, Copy)]
struct Host {
    /// The tick the host may start again; it cools while this is ahead
    /// of the clock.
    free_at: u64,
    /// The park order of the host's copy on the ready heap, or
    /// [`UNLISTED`]: a host served through its ring while its first
    /// parked entry waits behind a better ring is woken again and again,
    /// and lists that entry once.
    listed: u64,
    /// Pages of the host admitted and not yet fetched.
    pending: u32,
    /// Stats slot (a pure hash of the host id).
    shard: u32,
    /// Whether the host's free time is on the wake heap.
    waking: bool,
}

/// The host-partitioned, politeness-aware frontier. See the module docs
/// for the layout; see [`Frontier`] for the admission contract it
/// shares with [`UrlQueue`].
///
/// ```
/// use langcrawl_core::frontier::Frontier;
/// use langcrawl_core::queue::Entry;
/// use langcrawl_core::shard::ShardedFrontier;
///
/// // Four pages on two hosts, two shards.
/// let mut f = ShardedFrontier::new(vec![0, 0, 1, 1], 2, 2, 2);
/// f.push(Entry { page: 2, priority: 1, distance: 0 });
/// f.push(Entry { page: 1, priority: 0, distance: 0 });
/// assert_eq!(f.pop().unwrap().page, 1); // global level order
/// assert_eq!(f.pop().unwrap().page, 2);
/// ```
#[derive(Debug)]
pub struct ShardedFrontier {
    /// The rings and the one admission bar.
    queue: UrlQueue,
    /// Per host, the entries that reached a ring head while it cooled,
    /// in `(level, park order)`.
    parked: Vec<VecDeque<Parked>>,
    /// `(level, park order, host)` of free hosts with parked work, keyed
    /// by their first parked entry. A copy whose host cools again, or
    /// whose key no longer heads its host's list, is stale and dropped
    /// when it surfaces.
    ready: BinaryHeap<Reverse<(u8, u64, u32)>>,
    /// `(free time, host)` of the cooling hosts with parked work and a
    /// pending page, one per such host (`Host::waking`): a host listed
    /// when it parks, or when it starts with work already parked. Once
    /// a pop finds nothing ready, every waiting entry is parked, so
    /// these are exactly the cooling hosts with a pending page: the
    /// waits the clock must honour.
    wake: BinaryHeap<Reverse<(u64, u32)>>,
    hosts: Vec<Host>,
    /// Host owning each page.
    host_of_page: Vec<u32>,
    /// The clock of the last [`Frontier::advance_to`].
    now: u64,
    /// Entries parked so far: the next park order.
    parks: u64,
    /// Load counters per shard.
    stats: Vec<ShardStats>,
    /// Shard of the host resolving a fetch, for handoff attribution.
    origin: Option<u32>,
    /// Accepted pushes that crossed shards since the frontier was built
    /// or restored.
    handoffs: u64,
    /// The buffer a capture sorts the parked entries in, reused.
    capture: Vec<ParkedAt>,
}

impl ShardedFrontier {
    /// A frontier over `num_pages = host_of_page.len()` pages living on
    /// `num_hosts` hosts, with `levels` priority levels, its hosts
    /// hashed into `shards` stats slots.
    pub fn new(host_of_page: Vec<u32>, num_hosts: usize, levels: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        ShardedFrontier {
            queue: UrlQueue::new(host_of_page.len(), levels),
            parked: vec![VecDeque::new(); num_hosts],
            ready: BinaryHeap::new(),
            wake: BinaryHeap::new(),
            hosts: (0..num_hosts)
                .map(|h| Host {
                    free_at: 0,
                    listed: UNLISTED,
                    pending: 0,
                    shard: (mix(SHARD_SALT, h as u64) % shards as u64) as u32,
                    waking: false,
                })
                .collect(),
            host_of_page,
            now: 0,
            parks: 0,
            stats: vec![ShardStats::default(); shards],
            origin: None,
            handoffs: 0,
            capture: Vec::new(),
        }
    }

    /// A frontier over a virtual web space's host table.
    pub fn for_space(ws: &WebSpace, levels: usize, shards: usize) -> Self {
        let host_of_page = ws.page_ids().map(|p| ws.host_id(p)).collect();
        ShardedFrontier::new(host_of_page, ws.num_hosts(), levels, shards)
    }

    /// Put `host`'s first parked entry on the ready heap, if it has one
    /// that is not listed there yet.
    fn expose(&mut self, host: u32) {
        // lint:allow(no-panic-transitive): pages index the page table and hosts the host table, both sized by the space
        if let Some(&(order, e)) = self.parked[host as usize].front() {
            let h = &mut self.hosts[host as usize];
            if h.listed != order {
                h.listed = order;
                let level = self.queue.level(&e) as u8;
                self.ready.push(Reverse((level, order, host)));
            }
        }
    }

    /// Take the ready heap's top: the first parked entry of a free host,
    /// if it is live; `None` when the copy or the entry was stale.
    fn pop_parked(&mut self) -> Option<Entry> {
        let Reverse((_, order, host)) = self.ready.pop()?;
        // lint:allow(no-panic-transitive): pages index the page table and hosts the host table, both sized by the space
        let h = &mut self.hosts[host as usize];
        if h.listed == order {
            h.listed = UNLISTED;
        }
        let list = &mut self.parked[host as usize];
        if h.free_at > self.now || list.front()?.0 != order {
            return None; // a stale copy
        }
        let (_, e) = list.pop_front()?;
        if self.queue.is_live(&e) {
            self.queue.take(&e);
            return Some(e);
        }
        self.expose(host);
        None
    }

    /// Park `e`, whose host cools, behind its host's parked entries of
    /// its level and better, ahead of worse ones; the host's free time
    /// goes on the wake heap, once per cool-down.
    fn park(&mut self, host: u32, e: Entry) {
        let level = self.queue.level(&e);
        // lint:allow(no-panic-transitive): pages index the page table and hosts the host table, both sized by the space
        let list = &mut self.parked[host as usize];
        let at = list.partition_point(|(_, x)| self.queue.level(x) <= level);
        list.insert(at, (self.parks, e));
        self.parks += 1;
        let h = &mut self.hosts[host as usize];
        if !h.waking {
            h.waking = true;
            self.wake.push(Reverse((h.free_at, host)));
        }
    }

    /// Wake the hosts due by the clock: each with parked work joins the
    /// ready heap.
    fn wake_due(&mut self) {
        while let Some(&Reverse((at, host))) = self.wake.peek() {
            if at > self.now {
                break;
            }
            self.wake.pop();
            // lint:allow(no-panic-transitive): pages index the page table and hosts the host table, both sized by the space
            self.hosts[host as usize].waking = false;
            self.expose(host);
        }
    }

    /// Restore a frontier section into `self`, a fresh frontier built
    /// for the captured space, level count and shard count, at the
    /// captured tick `now`: the regenerated space and the snapshot
    /// header fix all four, so the section does not repeat them.
    ///
    /// Every waiting entry returns to its ring, parked ones at the head
    /// of their level in the order they left it, so decode parks
    /// nothing: an entry whose host still cools parks again at its
    /// first pop. Each waiting page's admission key is its best entry's
    /// (any other entry of it was superseded), and fetched pages read
    /// as fetched. A capture happens at a loop-top tick boundary, where
    /// every fetch has completed, so the rest is derived: the pending
    /// pages per host from the admission bar, and the wake heap from
    /// the cooling hosts that have one. An entry filed under another
    /// level, a pending count that disagrees with the entries, and
    /// cooling hosts out of ascending order or already free at `now`
    /// are [`SnapshotError::Malformed`].
    pub(crate) fn decode_state(
        mut self,
        dec: &mut Dec<'_>,
        now: u64,
    ) -> Result<Self, SnapshotError> {
        let q = &mut self.queue;
        let last = q.levels.len() - 1;
        for (level, ring) in q.levels.iter_mut().enumerate() {
            let n = dec.len()?;
            // Entries take 6 bytes each: a count the payload cannot hold
            // is refused before anything is allocated for it.
            if n > dec.remaining() / 6 {
                return Err(SnapshotError::Truncated);
            }
            ring.reserve(n);
            for _ in 0..n {
                let e = Entry {
                    page: dec.u32()?,
                    priority: dec.u8()?,
                    distance: dec.u8()?,
                };
                let bar = q
                    .bar
                    .get_mut(e.page as usize)
                    .ok_or(SnapshotError::Malformed("waiting page out of range"))?;
                if (e.priority as usize).min(last) != level {
                    return Err(SnapshotError::Malformed("entry filed under another level"));
                }
                *bar = (*bar).min(e.key() as u32 + 1);
                ring.push_back(e);
            }
        }
        let mut fetched = vec![false; q.bar.len()];
        dec.bools(&mut fetched)?;
        let mut waiting = 0;
        for ((bar, fetched), &host) in q.bar.iter_mut().zip(fetched).zip(&self.host_of_page) {
            if fetched {
                *bar = BAR_DONE;
            } else if *bar != BAR_NEVER {
                waiting += 1;
                self.hosts[host as usize].pending += 1;
            }
        }
        q.pending = dec.len()?;
        q.max_pending = dec.len()?;
        q.pushes = dec.u64()?;
        if q.pending != waiting {
            return Err(SnapshotError::Malformed(
                "pending count disagrees with the waiting entries",
            ));
        }
        self.now = now;
        let mut last = None;
        for _ in 0..dec.len()? {
            let free_at = dec.u64()?;
            let host = dec.u32()?;
            if last >= Some(host) {
                return Err(SnapshotError::Malformed("cooling hosts out of order"));
            }
            last = Some(host);
            let h = self
                .hosts
                .get_mut(host as usize)
                .ok_or(SnapshotError::Malformed("cooling host out of range"))?;
            if free_at <= now {
                return Err(SnapshotError::Malformed("cooling host already free"));
            }
            h.free_at = free_at;
            if h.pending > 0 {
                h.waking = true;
                self.wake.push(Reverse((free_at, host)));
            }
        }
        for s in &mut self.stats {
            s.pushes = dec.u64()?;
        }
        Ok(self)
    }

    /// The queue of a one-slot section, which one slot without
    /// politeness drains: a cooling host, or a shard push count other
    /// than the queue's, is [`SnapshotError::Malformed`].
    pub(crate) fn into_queue(self) -> Result<UrlQueue, SnapshotError> {
        if self.hosts.iter().any(|h| h.free_at > self.now) {
            return Err(SnapshotError::Malformed("cooling host at one slot"));
        }
        if self.stats.iter().map(|s| s.pushes).ne([self.queue.pushes]) {
            return Err(SnapshotError::Malformed("one-slot shard pushes disagree"));
        }
        Ok(self.queue)
    }

    /// Write the frontier section (see the module docs), the cooling
    /// hosts as `(free time, host)` in host order. Parked entries are
    /// sorted back into the order they left their rings, in a buffer
    /// `self` keeps. Stale entries travel too: telling them apart would
    /// cost a random read of the admission bar per entry, and decode
    /// skips them as pops do. Everything else is derived on decode;
    /// `origin` is only ever `Some` inside a resolve, and none is in
    /// flight at a capture.
    // lint:root(panic-free, alloc-free) — capture runs mid-crawl into
    // preallocated buffers; the capture plan hands this to the loop.
    pub(crate) fn encode_state(&mut self, enc: &mut Enc) {
        let q = &self.queue;
        let sorted = &mut self.capture;
        sorted.clear();
        for list in self.parked.iter().filter(|list| !list.is_empty()) {
            for &(order, e) in list {
                // lint:allow(no-alloc-transitive): capture-time encode: the sort buffer is reused and reaches its high-water size once
                sorted.push((q.level(&e) as u8, order, e));
            }
        }
        sorted.sort_unstable();
        encode_rings(q, sorted, enc);
        let count_at = enc.mark();
        enc.u64(0);
        let mut n = 0;
        for (host, h) in self.hosts.iter().enumerate() {
            if h.free_at > self.now {
                enc.u64(h.free_at);
                enc.u32(host as u32);
                n += 1;
            }
        }
        enc.patch_u64(count_at, n);
        for s in &self.stats {
            enc.u64(s.pushes);
        }
    }
}

impl UrlQueue {
    /// Write the frontier section of a one-slot crawl over the queue:
    /// what a one-shard [`ShardedFrontier`] with nothing parked or
    /// cooling writes. `&mut self` matches that frontier's encoder.
    // lint:root(panic-free, alloc-free) — capture runs mid-crawl; the
    // capture plan calls this through a function pointer.
    pub(crate) fn encode_state(&mut self, enc: &mut Enc) {
        encode_rings(self, &[], enc);
        enc.u64(0);
        enc.u64(self.pushes);
    }
}

/// Write `q`'s rings — per level a count, then each of the level's
/// `parked` entries (sorted by `(level, park order)`) and the ring's,
/// as `(page, priority, distance)` — then the fetched bits and the
/// pending, high-water and push counters.
fn encode_rings(q: &UrlQueue, mut parked: &[ParkedAt], enc: &mut Enc) {
    for (level, ring) in q.levels.iter().enumerate() {
        let (here, rest) = parked.split_at(parked.partition_point(|p| usize::from(p.0) == level));
        parked = rest;
        let n = here.len() + ring.len();
        enc.u64(n as u64);
        let start = enc.buf.len();
        // Capture rides the crawl's steady state, so each level's
        // entries are copied into a region grown once, 6 bytes apiece.
        // lint:allow(no-alloc-transitive): capture-time encode: the snapshot buffer is reused and reaches its high-water size once
        enc.buf.resize(start + 6 * n, 0);
        let mut slots = enc
            .buf
            .get_mut(start..)
            .unwrap_or_default()
            .chunks_exact_mut(6);
        // Entries lead each zip: a zip takes from its left side first,
        // so the parked entries running out costs no slot.
        for (e, slot) in here.iter().map(|p| &p.2).zip(slots.by_ref()) {
            put(slot, e);
        }
        for (e, slot) in ring.iter().zip(slots) {
            put(slot, e);
        }
    }
    enc.bools(&q.bar, |&bar| bar == BAR_DONE);
    enc.u64(q.pending as u64);
    enc.u64(q.max_pending as u64);
    enc.u64(q.pushes);
}

/// Write `e` into a 6-byte snapshot slot.
fn put(slot: &mut [u8], e: &Entry) {
    let [a, b, c, d] = e.page.to_le_bytes();
    for (byte, v) in slot.iter_mut().zip([a, b, c, d, e.priority, e.distance]) {
        *byte = v;
    }
}

impl Frontier for ShardedFrontier {
    fn push(&mut self, e: Entry) -> bool {
        self.push_all(&[e]) == 1
    }

    /// [`UrlQueue::push_all`], counting each accepted entry as a push of
    /// its host's shard and a fresh one as a pending page of its host.
    // lint:root(panic-free, alloc-free) — one call per resolved fetch
    // with outlinks; rings only grow to their high water.
    fn push_all(&mut self, entries: &[Entry]) -> u32 {
        let ShardedFrontier {
            queue,
            hosts,
            host_of_page,
            stats,
            origin,
            handoffs,
            ..
        } = self;
        queue.push_all_with(entries, |e, fresh| {
            // lint:allow(no-panic-transitive): pages index the page table, hosts the host table and shards the stats, all sized at construction
            let h = &mut hosts[host_of_page[e.page as usize] as usize];
            h.pending += u32::from(fresh);
            stats[h.shard as usize].pushes += 1;
            *handoffs += u64::from(origin.is_some_and(|from| from != h.shard));
        })
    }

    /// [`Frontier::pop_ready`], its host free again at once.
    fn pop(&mut self) -> Option<Entry> {
        let e = self.pop_ready()?;
        // lint:allow(no-panic-transitive): pages index the page table and hosts the host table, both sized by the space
        self.started(self.host_of_page[e.page as usize], self.now);
        Some(e)
    }

    /// [`UrlQueue::requeue`]: a fetched page is admitted afresh.
    fn requeue(&mut self, e: Entry) -> bool {
        self.queue.unfetch(e.page);
        self.push(e)
    }

    fn pending(&self) -> usize {
        self.queue.pending()
    }

    fn max_pending(&self) -> usize {
        self.queue.max_pending()
    }

    fn total_pushes(&self) -> u64 {
        self.queue.total_pushes()
    }

    fn is_done(&self, p: PageId) -> bool {
        self.queue.is_done(p)
    }

    fn was_admitted(&self, p: PageId) -> bool {
        self.queue.was_admitted(p)
    }

    /// The least `(level, seq)` live entry whose host is free: a free
    /// host's parked work, which left its ring before anything still in
    /// it, or the lowest ring head. A ring head parks when its host
    /// cools, and stale entries are dropped, until a live entry of a
    /// free host comes up.
    // lint:root(panic-free, alloc-free) — one call per fetch; parking
    // moves entries into lists that only grow to their high water.
    fn pop_ready(&mut self) -> Option<Entry> {
        loop {
            let ring = self.queue.head_level();
            if let Some(&Reverse((level, _, _))) = self.ready.peek() {
                if ring.is_none_or(|r| usize::from(level) <= r) {
                    match self.pop_parked() {
                        Some(e) => return Some(e),
                        None => continue,
                    }
                }
            }
            let e = self.queue.pop_head(ring?)?;
            if !self.queue.is_live(&e) {
                continue;
            }
            // lint:allow(no-panic-transitive): pages index the page table and hosts the host table, both sized by the space
            let host = self.host_of_page[e.page as usize];
            if self.hosts[host as usize].free_at > self.now {
                self.park(host, e);
                continue;
            }
            self.queue.take(&e);
            return Some(e);
        }
    }

    /// Count the popped page as fetched by `host`, which cools until
    /// `free_at`; a host that cools with parked work and a pending page
    /// is woken then.
    fn started(&mut self, host: u32, free_at: u64) {
        // lint:allow(no-panic-transitive): hosts index the host table and parked lists, both sized at construction
        let h = &mut self.hosts[host as usize];
        h.free_at = free_at;
        h.pending -= 1;
        if free_at <= self.now {
            self.expose(host);
            return;
        }
        if h.pending > 0 && !self.parked[host as usize].is_empty() {
            h.waking = true;
            self.wake.push(Reverse((free_at, host)));
        }
    }

    /// Move the clock to `t`; each host due by then with parked work
    /// joins the ready heap.
    fn advance_to(&mut self, t: u64) {
        self.now = t;
        if self.wake.peek().is_some_and(|&Reverse((at, _))| at <= t) {
            self.wake_due();
        }
    }

    /// The earliest free time of a cooling host with a pending page,
    /// once [`Frontier::pop_ready`] has found nothing ready (before that,
    /// a waiting entry may not have met its cooling host yet): a host
    /// with nothing to fetch holds no crawl up.
    fn next_cooling(&self) -> Option<u64> {
        self.wake.peek().map(|&Reverse((at, _))| at)
    }

    fn politeness_wait(&self, host: u32, free_at: u64, now: u64) -> bool {
        free_at > now && self.hosts.get(host as usize).is_some_and(|h| h.pending > 0)
    }

    /// `None` (the initial state) attributes nothing: seed pushes are
    /// not discovery traffic.
    fn set_origin(&mut self, host: Option<u32>) {
        self.origin = host
            .and_then(|h| self.hosts.get(h as usize))
            .map(|h| h.shard);
    }

    fn handoffs(&self) -> u64 {
        self.handoffs
    }

    fn shard_stats(&self) -> Vec<ShardStats> {
        self.stats.clone()
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

    /// 8 pages spread over 3 hosts (pages 0..3 on host 0, 3..6 on
    /// host 1, 6..8 on host 2).
    fn frontier(shards: usize) -> ShardedFrontier {
        ShardedFrontier::new(vec![0, 0, 0, 1, 1, 1, 2, 2], 3, 4, shards)
    }

    /// The event loop's slot fill: pop the best ready entry and start
    /// it, its host free again at `free_at`.
    fn start(f: &mut ShardedFrontier, free_at: u64) -> Option<Entry> {
        let x = f.pop_ready()?;
        f.started(f.host_of_page[x.page as usize], free_at);
        Some(x)
    }

    #[test]
    fn global_pop_order_matches_urlqueue_for_any_shard_count() {
        let pushes = [
            e(3, 1, 0),
            e(0, 0, 0),
            e(6, 0, 0),
            e(1, 2, 1),
            e(4, 0, 2),
            e(1, 0, 0), // re-prioritized
            e(7, 3, 0),
        ];
        let mut reference = UrlQueue::new(8, 4);
        for &p in &pushes {
            reference.push(p);
        }
        let want: Vec<Entry> = std::iter::from_fn(|| reference.pop()).collect();
        for shards in [1, 2, 3, 8] {
            let mut f = frontier(shards);
            for &p in &pushes {
                Frontier::push(&mut f, p);
            }
            let got: Vec<Entry> = std::iter::from_fn(|| f.pop()).collect();
            assert_eq!(got, want, "{shards} shards");
        }
    }

    #[test]
    fn busy_host_is_skipped_and_resumes() {
        let mut f = frontier(2);
        f.push(e(0, 0, 0));
        f.push(e(1, 0, 0));
        f.push(e(3, 1, 0));
        // Start page 0 at tick 0, finishing at 1 → host 0 busy; its
        // page 1 is parked, so the next ready entry is host 1's page 3
        // despite its worse level.
        assert_eq!(start(&mut f, 1).unwrap().page, 0);
        assert_eq!(start(&mut f, 1).unwrap().page, 3);
        assert!(f.pop_ready().is_none(), "both hosts busy");
        // With no politeness, the finish frees host 0 and re-exposes
        // page 1; no politeness wait is reported.
        assert!(!f.politeness_wait(0, 1, 1));
        assert_eq!(f.next_cooling(), Some(1));
        f.advance_to(1);
        assert_eq!(f.pop_ready().unwrap().page, 1);
    }

    #[test]
    fn cooling_host_waits_for_advance() {
        let mut f = frontier(1);
        f.push(e(0, 0, 0));
        f.push(e(1, 0, 0));
        // Page 0 starts at tick 0 and finishes at 1, and host 0 owes a
        // gap until tick 5 with page 1 still queued.
        assert_eq!(start(&mut f, 5).unwrap().page, 0);
        assert!(f.politeness_wait(0, 5, 1), "parked with work");
        f.advance_to(1);
        assert!(f.pop_ready().is_none());
        assert_eq!(f.next_cooling(), Some(5));
        f.advance_to(4);
        assert!(f.pop_ready().is_none(), "gap not yet elapsed");
        f.advance_to(5);
        assert_eq!(f.pop_ready().unwrap().page, 1);
        assert_eq!(f.next_cooling(), None);
    }

    #[test]
    fn handoffs_attribute_cross_shard_pushes() {
        // The shard hash is opaque: find a shard count under which two
        // fixture hosts land on different shards, and a page on each.
        let (shards, home, away) = (2..=16usize)
            .find_map(|n| {
                let probe = frontier(n);
                (0..3u32)
                    .flat_map(|a| (0..3u32).map(move |b| (a, b)))
                    .find(|&(a, b)| probe.hosts[a as usize].shard != probe.hosts[b as usize].shard)
                    .map(|(a, b)| (n, a, b))
            })
            .expect("some shard count must separate the fixture hosts");
        let page_on = |h: u32| [0u32, 3, 6][h as usize];
        let mut f = frontier(shards);
        f.set_origin(Some(home));
        f.push(e(page_on(away), 0, 0)); // crosses shards
        f.push(e(page_on(home), 1, 0)); // stays home
        assert_eq!(f.handoffs(), 1);
        assert_eq!(f.shard_stats().iter().map(|s| s.pushes).sum::<u64>(), 2);
        f.set_origin(None);
        f.push(e(7, 0, 0)); // no origin: seeds never count
        assert_eq!(f.handoffs(), 1);
    }

    #[test]
    fn requeue_matches_urlqueue_semantics() {
        let mut f = frontier(2);
        f.push(e(2, 0, 0));
        f.pop().unwrap();
        assert!(!f.push(e(2, 0, 0)), "push refuses done pages");
        assert!(f.requeue(e(2, 1, 0)));
        assert!(!f.is_done(2));
        assert_eq!(f.pending(), 1);
        let again = f.pop().unwrap();
        assert_eq!((again.page, again.priority), (2, 1));
        assert!(f.pop().is_none());
    }

    #[test]
    fn accounting_matches_urlqueue_semantics() {
        let mut f = frontier(3);
        for p in 0..5 {
            f.push(e(p, 0, 0));
        }
        assert_eq!(f.pending(), 5);
        assert_eq!(f.max_pending(), 5);
        f.pop();
        f.pop();
        assert_eq!(f.pending(), 3);
        assert_eq!(f.max_pending(), 5);
        assert_eq!(f.total_pushes(), 5);
        assert_eq!(f.shard_stats().iter().map(|s| s.pushes).sum::<u64>(), 5);
    }

    #[test]
    fn out_of_range_priority_clamped_to_last_level() {
        // 4 levels: priority 9 lands in level 3, behind everything
        // better but ahead of nothing — exactly UrlQueue's clamp.
        let mut reference = UrlQueue::new(8, 4);
        let mut f = frontier(2);
        for q in [&mut reference as &mut dyn Frontier, &mut f] {
            q.push(e(0, 9, 0)); // clamps into level 3
            q.push(e(3, 2, 0));
            q.push(e(6, 0, 0));
        }
        let want: Vec<Entry> = std::iter::from_fn(|| reference.pop()).collect();
        let got: Vec<Entry> = std::iter::from_fn(|| f.pop()).collect();
        assert_eq!(got, want);
        let pages: Vec<PageId> = got.iter().map(|x| x.page).collect();
        assert_eq!(pages, vec![6, 3, 0], "clamped entry pops last");
    }

    #[test]
    fn readmission_at_higher_priority_on_a_busy_host() {
        let mut f = frontier(2);
        f.push(e(0, 0, 0));
        f.push(e(1, 2, 0));
        f.push(e(3, 1, 0));
        // Start page 0, finishing at tick 1 → host 0 goes busy with
        // page 1 still parked.
        assert_eq!(start(&mut f, 1).unwrap().page, 0);
        // While the host is busy, page 1 is re-discovered at a better
        // priority. The promotion must survive the parked state.
        assert!(f.push(e(1, 0, 0)));
        assert_eq!(f.pending(), 2, "promotion is not a new distinct URL");
        assert_eq!(start(&mut f, 1).unwrap().page, 3, "busy host still skipped");
        f.advance_to(1);
        let p1 = f.pop_ready().unwrap();
        assert_eq!((p1.page, p1.priority), (1, 0), "promoted entry pops");
        assert!(f.pop_ready().is_none());
    }

    #[test]
    fn an_emptied_host_cools_and_exposes_nothing() {
        let mut f = frontier(1);
        f.push(e(0, 0, 0));
        f.push(e(3, 0, 0));
        assert_eq!(start(&mut f, 10).unwrap().page, 0);
        // Host 0 has nothing left: it still cools (politeness gaps are
        // start-to-start, work or not) but reports no politeness wait,
        // and no exposure token lingers for the emptied host.
        assert!(!f.politeness_wait(0, 10, 1), "no work, no wait");
        assert_eq!(f.pop_ready().unwrap().page, 3);
        // The gap itself still applies: a page pushed to the cooling
        // host waits for tick 10.
        f.advance_to(9);
        f.push(e(1, 0, 0));
        assert!(f.pop_ready().is_none(), "host 0 cools until tick 10");
        f.advance_to(10);
        assert_eq!(f.pop_ready().unwrap().page, 1);
        assert!(f.pop_ready().is_none(), "woken empty host exposes nothing");
        assert_eq!(f.pending(), 0);
    }

    #[test]
    fn same_shard_pushes_never_count_as_handoffs() {
        let mut f = frontier(1); // one shard: every host lands on it
        f.set_origin(Some(1));
        f.push(e(0, 0, 0)); // host 0, same shard as origin host 1
        f.push(e(4, 0, 0)); // origin's own host
        assert_eq!(f.handoffs(), 0, "intra-shard discovery is not a handoff");
        assert_eq!(f.shard_stats().iter().map(|s| s.pushes).sum::<u64>(), 2);
    }

    #[test]
    fn push_all_matches_per_entry_pushes() {
        let batch = [
            e(3, 1, 0),
            e(0, 0, 0),
            e(6, 0, 0),
            e(1, 2, 1),
            e(1, 0, 0), // re-prioritized within the batch
            e(3, 1, 0), // duplicate within the batch
            e(7, 9, 0), // clamped level
        ];
        for shards in [1, 2, 3] {
            let mut one_by_one = frontier(shards);
            let mut accepted = 0u32;
            for &p in &batch {
                if Frontier::push(&mut one_by_one, p) {
                    accepted += 1;
                }
            }
            let mut batched = frontier(shards);
            assert_eq!(batched.push_all(&batch), accepted, "{shards} shards");
            assert_eq!(batched.pending(), one_by_one.pending());
            assert_eq!(batched.total_pushes(), one_by_one.total_pushes());
            let want: Vec<Entry> = std::iter::from_fn(|| one_by_one.pop()).collect();
            let got: Vec<Entry> = std::iter::from_fn(|| batched.pop()).collect();
            assert_eq!(got, want, "{shards} shards");
        }
    }

    #[test]
    fn reprioritization_supersedes_the_representative() {
        let mut f = frontier(1);
        assert!(f.push(e(1, 2, 0)));
        assert!(f.push(e(0, 3, 0)));
        // Page 1 re-discovered at a better priority: the old exposure
        // token goes stale and the better entry is exposed instead.
        assert!(f.push(e(1, 0, 0)));
        assert_eq!(f.pending(), 2);
        assert_eq!(f.pop().unwrap(), e(1, 0, 0));
        assert_eq!(f.pop().unwrap(), e(0, 3, 0));
        assert!(f.pop().is_none(), "stale duplicate skipped");
    }

    /// `f`'s snapshot state, encoded.
    fn encoded(f: &mut ShardedFrontier) -> Enc {
        let mut enc = Enc::default();
        f.encode_state(&mut enc);
        enc
    }

    /// Decode a payload captured at tick 1 into the two-shard fixture;
    /// a successful decode must consume every byte.
    fn decoded(bytes: &[u8]) -> Result<ShardedFrontier, SnapshotError> {
        let mut dec = Dec::new(bytes);
        let f = frontier(2).decode_state(&mut dec, 1)?;
        assert!(dec.is_empty(), "decode left payload bytes unread");
        Ok(f)
    }

    /// The fixture at the loop-top boundary of tick 1: host 0 cooling
    /// with work queued, host 1 ready again after a fetch, host 2 ready
    /// throughout, and page 4's first entry superseded by a better
    /// admission.
    fn mid_crawl() -> ShardedFrontier {
        let mut f = frontier(2);
        for p in [
            e(0, 0, 0),
            e(1, 1, 0),
            e(3, 0, 0),
            e(4, 2, 0),
            e(6, 1, 0),
            e(2, 3, 1),
        ] {
            assert!(f.push(p));
        }
        assert!(f.push(e(4, 0, 1)), "supersedes page 4's first entry");
        assert_eq!(start(&mut f, 5).unwrap().page, 0);
        assert_eq!(start(&mut f, 1).unwrap().page, 3);
        assert!(f.politeness_wait(0, 5, 1), "host 0 cools with work queued");
        assert!(!f.politeness_wait(1, 1, 1), "host 1 is ready again at once");
        f.advance_to(1);
        f
    }

    #[test]
    fn derived_decode_reencodes_and_pops_like_the_original() {
        let mut original = mid_crawl();
        let bytes = encoded(&mut original).buf;
        let mut back = decoded(&bytes).unwrap();
        assert_eq!(
            encoded(&mut back).buf,
            bytes,
            "re-encoding is a fixed point"
        );
        for p in 0..8 {
            assert_eq!(back.was_admitted(p), original.was_admitted(p), "page {p}");
            assert_eq!(back.is_done(p), original.is_done(p), "page {p}");
        }
        assert_eq!(back.next_cooling(), Some(5));
        let drain = |f: &mut ShardedFrontier| {
            let early: Vec<Entry> = std::iter::from_fn(|| start(f, 5)).collect();
            f.advance_to(5);
            let late: Vec<Entry> = std::iter::from_fn(|| f.pop()).collect();
            (early, late, f.pending(), f.total_pushes(), f.shard_stats())
        };
        let want = drain(&mut original);
        assert_eq!(want.0, [e(4, 0, 1), e(6, 1, 0)], "host 0 cools until 5");
        assert_eq!(
            want.1,
            [e(1, 1, 0), e(2, 3, 1)],
            "the superseded entry of page 4 is skipped"
        );
        assert_eq!(drain(&mut back), want);
    }

    #[test]
    fn pending_count_must_match_the_parked_entries() {
        let mut f = mid_crawl();
        let mut enc = encoded(&mut f);
        // The rings' part ends with the pending count, max_pending and
        // the push count; host 0's cool-down and two shards' push counts
        // follow.
        let at = enc.buf.len() - 2 * 8 - (8 + 12) - 24;
        enc.patch_u64(at, f.pending() as u64 + 1);
        assert_eq!(
            decoded(&enc.buf).unwrap_err(),
            SnapshotError::Malformed("pending count disagrees with the waiting entries")
        );
    }

    #[test]
    fn a_parked_count_beyond_the_payload_is_refused_before_allocating() {
        let mut enc = Enc::default();
        enc.u64(1 << 56);
        assert_eq!(decoded(&enc.buf).unwrap_err(), SnapshotError::Truncated);
    }

    #[test]
    fn a_host_listed_twice_as_cooling_is_malformed() {
        let mut f = frontier(2);
        f.push(e(0, 0, 0));
        f.push(e(3, 0, 0));
        start(&mut f, 5);
        start(&mut f, 7);
        f.advance_to(1);
        let mut enc = encoded(&mut f);
        assert!(decoded(&enc.buf).is_ok());
        // The second `(free time, host)` record ends the cooling list,
        // which two shards' push counts follow; its host is made to
        // repeat host 0.
        let second_host = enc.buf.len() - 2 * 8 - 4;
        enc.buf[second_host..second_host + 4].copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            decoded(&enc.buf).unwrap_err(),
            SnapshotError::Malformed("cooling hosts out of order")
        );
    }

    #[test]
    fn one_slot_without_politeness_never_parks() {
        let mut f = frontier(1);
        for p in [e(0, 0, 0), e(1, 0, 0), e(3, 1, 0), e(2, 0, 0)] {
            f.push(p);
        }
        // Each start frees its host by the next pop, as one slot without
        // politeness does: every pop is a ring pop.
        let mut now = 0;
        let mut order = Vec::new();
        while let Some(x) = start(&mut f, now + 1) {
            order.push(x.page);
            now += 1;
            f.advance_to(now);
            assert!(f.parked.iter().all(VecDeque::is_empty), "nothing parks");
        }
        assert_eq!(order, [0, 1, 2, 3]);
    }

    #[test]
    fn a_host_served_through_its_ring_lists_its_parked_work_once() {
        // Pages 0..40 on host 0, page 40 on host 1.
        let mut hosts = vec![0; 40];
        hosts.push(1);
        let mut f = ShardedFrontier::new(hosts, 2, 2, 1);
        f.push(e(0, 0, 0));
        f.push(e(1, 1, 0));
        // Host 0 cools until 2 and page 1 parks; the wake lists it.
        assert_eq!(start(&mut f, 2).unwrap().page, 0);
        assert!(f.pop_ready().is_none());
        f.advance_to(2);
        assert_eq!(f.ready.len(), 1);
        // Each level-0 page of host 0 beats the parked level-1 entry, so
        // the host is served through its ring, cools and wakes again.
        for now in 2..40 {
            f.push(e(now as PageId, 0, 0));
            assert_eq!(start(&mut f, now + 1).unwrap().page, now as PageId);
            f.advance_to(now + 1);
            assert_eq!(f.ready.len(), 1, "one copy of page 1 at tick {now}");
        }
        assert_eq!(f.pop_ready().unwrap(), e(1, 1, 0));
        assert!(f.ready.is_empty());
    }

    #[test]
    fn parked_entries_head_their_rings_after_decode() {
        let mut f = frontier(2);
        for p in [e(0, 0, 0), e(1, 0, 0), e(3, 0, 0), e(2, 1, 0), e(6, 1, 0)] {
            f.push(p);
        }
        // Host 0 cools until 5: page 1 parks on the way to page 3, and
        // page 2 on the way to page 6.
        assert_eq!(start(&mut f, 5).unwrap().page, 0);
        assert_eq!(start(&mut f, 5).unwrap().page, 3);
        assert_eq!(start(&mut f, 5).unwrap().page, 6);
        assert!(f.pop_ready().is_none());
        assert_eq!(f.parked[0].len(), 2, "pages 1 and 2 parked on host 0");
        f.advance_to(1);
        let bytes = encoded(&mut f).buf;
        let mut back = decoded(&bytes).unwrap();
        assert!(
            back.parked.iter().all(VecDeque::is_empty),
            "decode parks nothing"
        );
        assert_eq!(
            encoded(&mut back).buf,
            bytes,
            "re-encoding is a fixed point"
        );
        for g in [&mut f, &mut back] {
            assert!(g.pop_ready().is_none(), "host 0 still cools");
            assert_eq!(g.next_cooling(), Some(5));
            g.advance_to(5);
            assert_eq!(start(g, 6).unwrap(), e(1, 0, 0));
            g.advance_to(6);
            assert_eq!(start(g, 7).unwrap(), e(2, 1, 0));
            assert_eq!(g.pending(), 0);
        }
    }

    /// A one-slot crawl without politeness, on both frontiers: the same
    /// pushes, pops each followed by a start that frees its host by the
    /// next tick, a retry and a better re-admission.
    fn one_slot_crawl(f: &mut dyn Frontier) {
        for p in [e(0, 0, 0), e(3, 1, 0), e(6, 2, 1), e(1, 3, 0)] {
            f.push(p);
        }
        for now in 0..2 {
            let x = f.pop_ready().unwrap();
            f.started([0, 0, 0, 1, 1, 1, 2, 2][x.page as usize], now + 1);
            f.advance_to(now + 1);
        }
        assert!(f.requeue(e(0, 2, 0)), "a retry re-admits its page");
        assert!(f.push(e(1, 0, 0)), "a better key re-admits a waiting page");
        f.push_all(&[e(7, 1, 0), e(2, 3, 0), e(7, 0, 0)]);
    }

    #[test]
    fn a_queue_writes_what_a_one_shard_frontier_writes() {
        let mut queue = UrlQueue::new(8, 4);
        let mut sharded = frontier(1);
        one_slot_crawl(&mut queue);
        one_slot_crawl(&mut sharded);
        let mut bytes = Enc::default();
        queue.encode_state(&mut bytes);
        assert_eq!(bytes.buf, encoded(&mut sharded).buf);
        let mut dec = Dec::new(&bytes.buf);
        let back = frontier(1).decode_state(&mut dec, 2).unwrap();
        assert!(dec.is_empty(), "decode left payload bytes unread");
        let mut back = back.into_queue().unwrap();
        let mut again = Enc::default();
        back.encode_state(&mut again);
        assert_eq!(again.buf, bytes.buf, "re-encoding is a fixed point");
        let want: Vec<Entry> = std::iter::from_fn(|| queue.pop()).collect();
        assert_eq!(std::iter::from_fn(|| back.pop()).collect::<Vec<_>>(), want);
    }

    #[test]
    fn a_one_slot_section_lists_no_cooling_host_and_the_queue_pushes() {
        let decode = |bytes: &[u8], now| {
            let f = frontier(1).decode_state(&mut Dec::new(bytes), now);
            f.and_then(ShardedFrontier::into_queue)
        };
        // One shard, its host 0 cooling until tick 5 at tick 1.
        let mut f = frontier(1);
        f.push(e(0, 0, 0));
        f.push(e(1, 0, 0));
        start(&mut f, 5);
        f.advance_to(1);
        assert_eq!(
            decode(&encoded(&mut f).buf, 1).unwrap_err(),
            SnapshotError::Malformed("cooling host at one slot")
        );
        // The same frontier once its host is free again, with its one
        // shard push count, the section's last word, off by one.
        f.advance_to(5);
        let mut enc = encoded(&mut f);
        assert!(decode(&enc.buf, 5).is_ok());
        let at = enc.buf.len() - 8;
        enc.patch_u64(at, f.total_pushes() + 1);
        assert_eq!(
            decode(&enc.buf, 5).unwrap_err(),
            SnapshotError::Malformed("one-slot shard pushes disagree")
        );
    }
}
