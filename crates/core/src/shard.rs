//! The host-sharded frontier — BUbiNG's frontier layout in miniature.
//!
//! Production crawlers partition the frontier by host: politeness is a
//! per-host constraint, so the unit of scheduling is the host queue,
//! and hosts are hash-partitioned across shards (agents, in BUbiNG's
//! vocabulary) so discovery traffic can be routed to the shard that
//! owns the link's host. [`ShardedFrontier`] reproduces that layout
//! over the virtual web space while implementing the existing
//! [`Frontier`] trait, so strategies and the admission contract are
//! untouched:
//!
//! * **admission** is global and identical to [`UrlQueue`]: one `best`
//!   key table, one `done` table, `pending()` counts distinct waiting
//!   pages;
//! * **storage** is per-host: every entry lives in its host's parked
//!   queue, always — one index-linked FIFO list per `(host, level)`
//!   slot, with nodes drawn from a single slab ([`Node`]) and recycled
//!   through a free list, so steady-state storage churn allocates
//!   nothing. A host's minimum entry is the head of its lowest
//!   non-empty level list (heads are seq-sorted by construction, since
//!   entries append with a globally increasing seq — the exact
//!   `(level, seq)` minimum the per-host heap used to compute). A ready
//!   host additionally *exposes* a copy of its minimum entry as a token
//!   in the owning shard's avail heap; tokens are disposable — when a
//!   host's minimum changes (better discovery, state transition), a
//!   fresh token is pushed and the old one goes stale, to be discarded
//!   when it surfaces;
//! * **pop order** is the exact global `(priority level, FIFO seq)`
//!   discipline of [`UrlQueue`], *regardless of shard count*: each
//!   ready host exposes exactly its minimum entry, so the minimum over
//!   shard tops is the global minimum, and stale entries are skipped
//!   destructively at pop time just as the FIFO rings skip them. The
//!   shard-parity property test drives this equivalence through random
//!   push/pop/requeue interleavings.
//!
//! The scheduler-facing surface ([`ShardedFrontier::pop_ready`],
//! [`ShardedFrontier::release`], [`ShardedFrontier::advance_to`]) adds
//! per-host state — `Ready`/`Busy`/`Cooling` — on top: a busy or
//! cooling host parks all its entries and exposes nothing, which is
//! how per-host concurrency 1 and politeness gaps are enforced without
//! any scan. With every host permanently ready (the plain [`Frontier`]
//! path), the state machinery is inert.
//!
//! Tie-breaks are total and deterministic everywhere: `(level, seq)`
//! orders entries (seq is the global push ordinal, so FIFO within a
//! level), `(ready_at, host)` orders cool-downs, and shard assignment
//! is a pure hash of the host id.

use crate::frontier::Frontier;
use crate::queue::Entry;
use crate::snapshot::{Dec, Enc, SnapshotError};
use langcrawl_rng::mix;
use langcrawl_webgraph::{PageId, WebSpace};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Salt for the host → shard hash. Any fixed constant works; hashing
/// (rather than `host % shards`) decorrelates shard load from the
/// generator's host-id layout, which allocates contiguous id ranges to
/// similar hosts.
const SHARD_SALT: u64 = 0x5ca1_ab1e_0000_0001;

/// Slab sentinel: "no node" for list links and the free-list head.
const NIL: u32 = u32::MAX;

/// Sentinel page marking a detached (free-list) node, so a linear slab
/// scan can tell live parked entries from recycled ones without chasing
/// list links. No real page reaches this id — admission bounds pages by
/// the space size, far below `u32::MAX`.
const FREE_PAGE: PageId = PageId::MAX;

/// One parked entry in the slab: the payload plus the `next` link of
/// its `(host, level)` FIFO list. `seq` is the global push ordinal —
/// unique, so `(level, seq)` totally orders a host's entries and the
/// list head at the lowest non-empty level is the host's minimum.
#[derive(Debug, Clone, Copy)]
struct Node {
    seq: u64,
    page: PageId,
    priority: u8,
    distance: u8,
    /// Next node in this `(host, level)` list, or [`NIL`]. Doubles as
    /// the free-list link when the node is recycled.
    next: u32,
}

/// Per-host scheduling state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HostState {
    /// May fetch: its minimum entry (if any) stands in the shard's
    /// avail heap.
    Ready,
    /// A fetch is in flight: per-host concurrency 1 parks everything.
    Busy,
    /// Politeness cool-down: parked until its `ready_at` tick.
    Cooling,
}

/// Per-shard load counters, for the imbalance stats the parallelism
/// sweep reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Accepted pushes routed to this shard.
    pub pushes: u64,
    /// Entries popped from this shard.
    pub pops: u64,
    /// Accepted pushes that arrived from a fetch resolving on another
    /// shard — the cross-shard discovery handoff traffic.
    pub handoffs_in: u64,
}

/// `(level, seq, host, page, priority, distance)` — an exposure token:
/// a disposable copy of one host's parked minimum, ordered by the same
/// `(level, seq)` key as the host heaps.
type AvailToken = (u8, u64, u32, PageId, u8, u8);

/// One shard: the hosts it owns expose their minima here.
#[derive(Debug, Default)]
struct Shard {
    /// Exposure tokens (copies of host minima), live and stale mixed;
    /// staleness is checked against the host's `exposed` marker when a
    /// token surfaces.
    avail: BinaryHeap<Reverse<AvailToken>>,
    /// `(ready_at, host)` for hosts in politeness cool-down.
    cooling: BinaryHeap<Reverse<(u64, u32)>>,
    stats: ShardStats,
}

/// The host-sharded, politeness-aware frontier. See the module docs for
/// the layout; see [`Frontier`] for the admission contract it shares
/// with [`UrlQueue`].
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
/// assert_eq!(f.pop().unwrap().page, 1); // global level order, not per-shard
/// assert_eq!(f.pop().unwrap().page, 2);
/// ```
#[derive(Debug)]
pub struct ShardedFrontier {
    shards: Vec<Shard>,
    /// The parked-entry slab: every waiting entry is a [`Node`] here,
    /// linked into its `(host, level)` FIFO list. Detached nodes move
    /// to the free list and are reused before the slab grows, so
    /// steady-state traffic recycles indices instead of allocating.
    nodes: Vec<Node>,
    /// Head of the free list ([`NIL`] when empty).
    free: u32,
    /// FIFO list heads, indexed `host * num_levels + level`; [`NIL`]
    /// marks an empty list.
    heads: Vec<u32>,
    /// FIFO list tails, same indexing; meaningful only when the
    /// matching head is not [`NIL`].
    tails: Vec<u32>,
    /// `(level, seq)` of the token each host currently exposes in its
    /// shard's avail heap; `None` when the host exposes nothing (busy,
    /// cooling, or empty). Always equals the host's parked minimum when
    /// set. Avail tokens that do not match are stale and simply
    /// discarded — the entries they carry are safe in the slab.
    exposed: Vec<Option<(u8, u64)>>,
    host_state: Vec<HostState>,
    /// Host owning each page.
    host_of_page: Vec<u32>,
    /// Owning shard of each host (pure hash of the host id).
    shard_of_host: Vec<u32>,
    /// Priority levels; priorities at or above clamp into the last
    /// level, exactly like [`UrlQueue`].
    num_levels: usize,
    /// Best admission key per page; `u16::MAX` = never admitted.
    best: Vec<u16>,
    /// Pages fetched already (their stored entries are stale).
    done: Vec<bool>,
    pending: usize,
    max_pending: usize,
    pushes: u64,
    /// Global push ordinal: FIFO tie-break within a level.
    seq: u64,
    /// Host currently resolving a fetch, for handoff attribution.
    origin: Option<u32>,
    /// Total accepted pushes that crossed shards (sum of
    /// [`ShardStats::handoffs_in`]).
    handoffs: u64,
}

impl ShardedFrontier {
    /// A frontier over `num_pages = host_of_page.len()` pages living on
    /// `num_hosts` hosts, with `levels` priority levels, partitioned
    /// into `shards` shards.
    pub fn new(host_of_page: Vec<u32>, num_hosts: usize, levels: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let num_pages = host_of_page.len();
        let levels = levels.max(1);
        ShardedFrontier {
            shards: (0..shards).map(|_| Shard::default()).collect(),
            nodes: Vec::new(),
            free: NIL,
            heads: vec![NIL; num_hosts * levels],
            tails: vec![NIL; num_hosts * levels],
            exposed: vec![None; num_hosts],
            host_state: vec![HostState::Ready; num_hosts],
            host_of_page,
            shard_of_host: (0..num_hosts)
                .map(|h| (mix(SHARD_SALT, h as u64) % shards as u64) as u32)
                .collect(),
            num_levels: levels,
            best: vec![u16::MAX; num_pages],
            done: vec![false; num_pages],
            pending: 0,
            max_pending: 0,
            pushes: 0,
            seq: 0,
            origin: None,
            handoffs: 0,
        }
    }

    /// A frontier over a virtual web space's host table.
    pub fn for_space(ws: &WebSpace, levels: usize, shards: usize) -> Self {
        let host_of_page = ws.page_ids().map(|p| ws.host_id(p)).collect();
        ShardedFrontier::new(host_of_page, ws.num_hosts(), levels, shards)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Host owning a page.
    pub fn host_of(&self, p: PageId) -> u32 {
        // lint:allow(no-panic-transitive): host, level and slab indices are minted by this structure and stay in range by construction
        self.host_of_page[p as usize]
    }

    /// Shard owning a host.
    pub fn shard_of(&self, host: u32) -> usize {
        self.shard_of_host[host as usize] as usize
    }

    /// Per-shard load counters, in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards.iter().map(|s| s.stats).collect()
    }

    /// Total accepted pushes that crossed shards so far. The scheduler
    /// reads the delta across one resolution to emit
    /// [`crate::event::CrawlEvent::ShardHandoff`].
    pub fn handoffs(&self) -> u64 {
        self.handoffs
    }

    /// Declare the host whose fetch is currently being resolved:
    /// subsequent accepted pushes landing on another shard count as
    /// handoffs. `None` (the initial state) attributes nothing — seed
    /// pushes are not discovery traffic.
    pub fn set_origin(&mut self, host: Option<u32>) {
        self.origin = host;
    }

    /// `UrlQueue`'s level clamp: priorities at or above the level count
    /// share the last ring.
    fn level(&self, e: &Entry) -> u8 {
        (e.priority as usize).min(self.num_levels - 1) as u8
    }

    /// Store an accepted entry on its host (shard stats and handoff
    /// attribution included) and return the host. Does *not* re-expose
    /// the host's minimum — callers follow up with [`Self::refresh`],
    /// either immediately ([`Frontier::push`]) or once per host after a
    /// whole batch landed ([`Frontier::push_all`]).
    // Covered transitively by the root marker on [`Self::push_all`]:
    // nodes come from the free list, so steady-state inserts allocate
    // nothing.
    fn insert(&mut self, e: Entry) -> u32 {
        // lint:allow(no-panic-transitive): host, level and slab indices are minted by this structure and stay in range by construction
        let host = self.host_of_page[e.page as usize];
        let level = self.level(&e);
        let seq = self.seq;
        self.seq += 1;
        let si = self.shard_of_host[host as usize] as usize;
        self.shards[si].stats.pushes += 1;
        if let Some(from) = self.origin {
            if self.shard_of_host[from as usize] as usize != si {
                self.shards[si].stats.handoffs_in += 1;
                self.handoffs += 1;
            }
        }
        let node = Node {
            seq,
            page: e.page,
            priority: e.priority,
            distance: e.distance,
            next: NIL,
        };
        // Recycle a detached node before growing the slab.
        let idx = if self.free != NIL {
            let idx = self.free;
            self.free = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        };
        // Append to the `(host, level)` FIFO list: seqs only grow, so
        // the list stays seq-sorted and its head is the level minimum.
        let slot = host as usize * self.num_levels + level as usize;
        if self.heads[slot] == NIL {
            self.heads[slot] = idx;
        } else {
            self.nodes[self.tails[slot] as usize].next = idx;
        }
        self.tails[slot] = idx;
        host
    }

    /// The host's parked minimum: `(level, seq, node index)` of the
    /// head of its lowest non-empty level list, or `None` when the host
    /// parks nothing. Equivalent to the old per-host heap peek — each
    /// list head is its level's minimum seq, and level dominates seq in
    /// the `(level, seq)` order.
    fn host_min(&self, host: u32) -> Option<(u8, u64, u32)> {
        let base = host as usize * self.num_levels;
        for level in 0..self.num_levels {
            // lint:allow(no-panic-transitive): host, level and slab indices are minted by this structure and stay in range by construction
            let head = self.heads[base + level];
            if head != NIL {
                return Some((level as u8, self.nodes[head as usize].seq, head));
            }
        }
        None
    }

    /// Detach the head of the host's `level` list and recycle its node.
    /// Callers pass the level of a minimum they just consumed.
    fn detach_min(&mut self, host: u32, level: u8) {
        let slot = host as usize * self.num_levels + level as usize;
        // lint:allow(no-panic-transitive): host, level and slab indices are minted by this structure and stay in range by construction
        let idx = self.heads[slot];
        debug_assert_ne!(idx, NIL, "detach_min on an empty list");
        self.heads[slot] = self.nodes[idx as usize].next;
        self.nodes[idx as usize].page = FREE_PAGE;
        self.nodes[idx as usize].next = self.free;
        self.free = idx;
    }

    /// Re-establish the exposure invariant for one host: a `Ready` host
    /// with entries exposes exactly its parked minimum. Pushes a fresh
    /// token when the exposed minimum changed (the previous token, if
    /// any, goes stale and is discarded when it surfaces); no-op for
    /// busy/cooling hosts and when the minimum is already exposed —
    /// which also makes it idempotent, so a batch admission may refresh
    /// each touched host once after the whole batch instead of after
    /// every entry.
    // Covered transitively by the root markers on [`Self::push_all`]
    // and [`Self::pop_inner`], which both land here.
    fn refresh(&mut self, host: u32) {
        // lint:allow(no-panic-transitive): host, level and slab indices are minted by this structure and stay in range by construction
        if self.host_state[host as usize] != HostState::Ready {
            return;
        }
        match self.host_min(host) {
            Some((level, seq, idx)) => {
                if self.exposed[host as usize] != Some((level, seq)) {
                    self.exposed[host as usize] = Some((level, seq));
                    let si = self.shard_of_host[host as usize] as usize;
                    let n = self.nodes[idx as usize];
                    self.shards[si]
                        .avail
                        .push(Reverse((level, seq, host, n.page, n.priority, n.distance)));
                }
            }
            None => self.exposed[host as usize] = None,
        }
    }

    /// Settle shard `si`'s avail top to a live token and return its
    /// `(level, seq)`, discarding stale tokens along the way. `None`
    /// when the shard exposes nothing.
    fn clean_top(&mut self, si: usize) -> Option<(u8, u64)> {
        loop {
            // lint:allow(no-panic-transitive): host, level and slab indices are minted by this structure and stay in range by construction
            let &Reverse((level, seq, host, ..)) = self.shards[si].avail.peek()?;
            if self.exposed[host as usize] == Some((level, seq)) {
                // A live token implies its host is Ready (only
                // `refresh` sets `exposed`, and every transition away
                // from Ready clears it) and that the token mirrors the
                // host's parked minimum.
                return Some((level, seq));
            }
            // Stale token: the host's minimum moved on, or the host
            // left Ready. The entry it carries still lives in the
            // slab, so the copy is just dropped.
            self.shards[si].avail.pop();
        }
    }

    /// Pop the global minimum over ready hosts. `mark_busy` is the
    /// scheduler path: the popped entry's host transitions to `Busy`
    /// (per-host concurrency 1) instead of re-exposing its next entry.
    // lint:root(panic-free, alloc-free) — one call per fetch;
    // stale-token skips recycle slab nodes, never allocate.
    fn pop_inner(&mut self, mark_busy: bool) -> Option<Entry> {
        loop {
            // The minimum over shard tops is the global minimum over
            // ready hosts: each ready host exposes exactly its minimum.
            let mut min: Option<(usize, (u8, u64))> = None;
            for si in 0..self.shards.len() {
                if let Some(k) = self.clean_top(si) {
                    if min.is_none_or(|(_, mk)| k < mk) {
                        min = Some((si, k));
                    }
                }
            }
            let (si, _) = min?;
            let Reverse((level, _, host, page, priority, distance)) =
                // lint:allow(no-panic-transitive): host, level and slab indices are minted by this structure and stay in range by construction
                self.shards[si].avail.pop()?;
            // The live token is a copy of the host's parked minimum;
            // consume the original too.
            self.exposed[host as usize] = None;
            self.detach_min(host, level);
            let e = Entry {
                page,
                priority,
                distance,
            };
            let idx = page as usize;
            if self.done[idx] || key(&e) > self.best[idx] {
                // Stale: fetched already, or superseded by a better
                // admission. Discarded destructively at pop time —
                // exactly when the FIFO rings would have skipped it.
                self.refresh(host);
                continue;
            }
            self.done[idx] = true;
            self.pending -= 1;
            self.shards[si].stats.pops += 1;
            if mark_busy {
                self.host_state[host as usize] = HostState::Busy;
            } else {
                self.refresh(host);
            }
            return Some(e);
        }
    }

    /// Scheduler pop: the global minimum over *ready* hosts, marking
    /// the winning host `Busy`. Busy and cooling hosts expose nothing,
    /// so per-host concurrency 1 and politeness gaps hold by
    /// construction. `None` when every waiting entry belongs to a busy
    /// or cooling host (or the frontier is dry).
    pub fn pop_ready(&mut self) -> Option<Entry> {
        self.pop_inner(true)
    }

    /// Finish a fetch on `host`. `ready_at` is the host's next allowed
    /// fetch start (politeness); at or before `now` the host returns to
    /// `Ready` immediately, otherwise it parks in its shard's cool-down
    /// heap. Returns `true` when the host was parked *with work still
    /// queued* — the politeness-wait signal.
    pub fn release(&mut self, host: u32, ready_at: u64, now: u64) -> bool {
        if ready_at > now {
            // lint:allow(no-panic-transitive): host, level and slab indices are minted by this structure and stay in range by construction
            self.host_state[host as usize] = HostState::Cooling;
            let si = self.shard_of_host[host as usize] as usize;
            self.shards[si].cooling.push(Reverse((ready_at, host)));
            self.host_min(host).is_some()
        } else {
            self.host_state[host as usize] = HostState::Ready;
            self.refresh(host);
            false
        }
    }

    /// Wake every host whose cool-down expires at or before `t`.
    pub fn advance_to(&mut self, t: u64) {
        for si in 0..self.shards.len() {
            // lint:allow(no-panic-transitive): host, level and slab indices are minted by this structure and stay in range by construction
            while let Some(&Reverse((ready_at, host))) = self.shards[si].cooling.peek() {
                if ready_at > t {
                    break;
                }
                self.shards[si].cooling.pop();
                self.host_state[host as usize] = HostState::Ready;
                self.refresh(host);
            }
        }
    }

    /// Earliest tick at which a cooling host wakes, if any — the
    /// scheduler's next candidate time when slots idle.
    pub fn next_cooling(&self) -> Option<u64> {
        self.shards
            .iter()
            .filter_map(|s| s.cooling.peek().map(|&Reverse((at, _))| at))
            .min()
    }

    /// Serialize the complete frontier state into a snapshot payload.
    ///
    /// Canonical form, so encode∘decode∘encode is a fixed point:
    /// parked entries as ONE flat list in slab order. A record is
    /// `(page, priority, distance, seq)` — host comes from the page and
    /// level from the priority clamp, so neither is stored, and per-slot
    /// count words (mostly zero, and numerous: hosts × levels of them)
    /// never hit the payload. Decode rebuilds the slab record by
    /// record, so a resumed frontier's slab order *is* the record order
    /// and re-encoding reproduces the bytes; list links are layout,
    /// resorted from `(level, seq)` — the order the live lists held,
    /// since seqs only grow and lists append at tail. Exposure is one
    /// flag per host (an exposed host always exposes exactly its parked
    /// minimum, so the token is derivable); avail heaps are not encoded
    /// at all (stale tokens are behaviorally inert — dropping them
    /// cannot change any observable pop); cool-downs are one globally
    /// sorted `(ready_at, host)` list. `origin` is intentionally not
    /// state: it is only ever `Some` *inside* a resolve, and snapshots
    /// are taken at tick boundaries where no resolve is in flight.
    ///
    /// Capture rides the scheduler's steady state, so the big walks
    /// (parked nodes, per-host flags) stage fixed stack blocks and
    /// append them whole, and the parked scan runs linearly over the
    /// slab ([`FREE_PAGE`] marks holes) instead of chasing list links —
    /// the ≤5% capture-overhead gate prices every cache miss and
    /// per-element capacity check taken here.
    pub(crate) fn encode_state(&self, enc: &mut Enc) {
        enc.u64(self.host_of_page.len() as u64);
        enc.u64(self.exposed.len() as u64);
        enc.u64(self.num_levels as u64);
        enc.u64(self.shards.len() as u64);
        // Flat parked-node list: count patched in after one linear
        // scan. 14 bytes per record via two overlapping u64 stores
        // (the second starts at the seq offset and re-covers the first
        // word's two spare bytes), 18 records per staged block.
        let count_at = enc.mark();
        enc.u64(0);
        let mut n = 0u64;
        let mut block = [0u8; 252];
        let mut fill = 0;
        for node in &self.nodes {
            if node.page == FREE_PAGE {
                continue;
            }
            let w = u64::from(node.page)
                | u64::from(node.priority) << 32
                | u64::from(node.distance) << 40;
            // lint:allow(no-panic-transitive): host, level and slab indices are minted by this structure and stay in range by construction
            block[fill..fill + 8].copy_from_slice(&w.to_le_bytes());
            // lint:allow(no-panic-transitive): host, level and slab indices are minted by this structure and stay in range by construction
            block[fill + 6..fill + 14].copy_from_slice(&node.seq.to_le_bytes());
            fill += 14;
            if fill == block.len() {
                // lint:allow(no-alloc-transitive): capture-time encode: the snapshot buffer is reused and reaches its high-water size once
                enc.buf.extend_from_slice(&block);
                fill = 0;
            }
            n += 1;
        }
        // lint:allow(no-alloc-transitive): capture-time encode: the snapshot buffer is reused and reaches its high-water size once
        enc.buf.extend_from_slice(&block[..fill]);
        enc.patch_u64(count_at, n);
        // Exposure flag + host state, two bytes per host, staged.
        let mut fill = 0;
        for host in 0..self.exposed.len() {
            block[fill] = u8::from(self.exposed[host].is_some());
            block[fill + 1] = match self.host_state[host] {
                HostState::Ready => 0,
                HostState::Busy => 1,
                HostState::Cooling => 2,
            };
            fill += 2;
            if fill == block.len() {
                // lint:allow(no-alloc-transitive): capture-time encode: the snapshot buffer is reused and reaches its high-water size once
                enc.buf.extend_from_slice(&block);
                fill = 0;
            }
        }
        // lint:allow(no-alloc-transitive): capture-time encode: the snapshot buffer is reused and reaches its high-water size once
        enc.buf.extend_from_slice(&block[..fill]);
        let mut cooling: Vec<(u64, u32)> = self
            .shards
            .iter()
            .flat_map(|s| s.cooling.iter().map(|&Reverse(x)| x))
            // lint:allow(no-alloc-transitive): capture-time encode: the snapshot buffer is reused and reaches its high-water size once
            .collect();
        cooling.sort_unstable();
        enc.u64(cooling.len() as u64);
        for (at, host) in cooling {
            enc.u64(at);
            enc.u32(host);
        }
        for s in &self.shards {
            enc.u64(s.stats.pushes);
            enc.u64(s.stats.pops);
            enc.u64(s.stats.handoffs_in);
        }
        enc.u16s(&self.best);
        enc.bools(&self.done);
        enc.u64(self.pending as u64);
        enc.u64(self.max_pending as u64);
        enc.u64(self.pushes);
        enc.u64(self.seq);
        enc.u64(self.handoffs);
    }

    /// Rebuild a frontier from a snapshot payload. The shape arguments
    /// come from the regenerated space and the snapshot header; the
    /// payload must agree with them. Avail heaps are rebuilt from the
    /// exposure flags (each exposed host re-exposes its parked
    /// minimum); structural violations surface as
    /// [`SnapshotError::Malformed`].
    pub(crate) fn decode_state(
        dec: &mut Dec<'_>,
        host_of_page: Vec<u32>,
        num_hosts: usize,
        levels: usize,
        shards: usize,
    ) -> Result<ShardedFrontier, SnapshotError> {
        let mut f = ShardedFrontier::new(host_of_page, num_hosts, levels, shards);
        if dec.len()? != f.host_of_page.len() {
            return Err(SnapshotError::Malformed("frontier page count mismatch"));
        }
        if dec.len()? != num_hosts {
            return Err(SnapshotError::Malformed("frontier host count mismatch"));
        }
        if dec.len()? != f.num_levels {
            return Err(SnapshotError::Malformed("frontier level count mismatch"));
        }
        if dec.len()? != f.shards.len() {
            return Err(SnapshotError::Malformed("frontier shard count mismatch"));
        }
        let n = dec.len()?;
        f.nodes.reserve(n);
        // `(slot, seq, slab index)` for every record: sorting this
        // relinks each `(host, level)` FIFO list in `(level, seq)`
        // order — exactly the order the captured lists held. The slab
        // itself fills in record order, which is what makes re-encoding
        // a fixed point.
        let mut links: Vec<(usize, u64, u32)> = Vec::with_capacity(n);
        for i in 0..n {
            let page = dec.u32()?;
            if page as usize >= f.host_of_page.len() {
                return Err(SnapshotError::Malformed("parked page out of range"));
            }
            let priority = dec.u8()?;
            let distance = dec.u8()?;
            let seq = dec.u64()?;
            let host = f.host_of_page[page as usize];
            let level = (priority as usize).min(f.num_levels - 1);
            links.push((host as usize * f.num_levels + level, seq, i as u32));
            f.nodes.push(Node {
                seq,
                page,
                priority,
                distance,
                next: NIL,
            });
        }
        links.sort_unstable();
        for &(slot, _, idx) in &links {
            if f.heads[slot] == NIL {
                f.heads[slot] = idx;
            } else {
                f.nodes[f.tails[slot] as usize].next = idx;
            }
            f.tails[slot] = idx;
        }
        let mut exposed_flags = vec![false; num_hosts];
        for (host, flag) in exposed_flags.iter_mut().enumerate() {
            *flag = dec.bool()?;
            f.host_state[host] = match dec.u8()? {
                0 => HostState::Ready,
                1 => HostState::Busy,
                2 => HostState::Cooling,
                _ => return Err(SnapshotError::Malformed("host state out of range")),
            };
        }
        for (host, &exposed) in exposed_flags.iter().enumerate() {
            if !exposed {
                continue;
            }
            let Some((level, seq, idx)) = f.host_min(host as u32) else {
                return Err(SnapshotError::Malformed("exposed host parks nothing"));
            };
            f.exposed[host] = Some((level, seq));
            let si = f.shard_of_host[host] as usize;
            let n = f.nodes[idx as usize];
            f.shards[si].avail.push(Reverse((
                level,
                seq,
                host as u32,
                n.page,
                n.priority,
                n.distance,
            )));
        }
        let ncool = dec.len()?;
        for _ in 0..ncool {
            let at = dec.u64()?;
            let host = dec.u32()?;
            if host as usize >= num_hosts {
                return Err(SnapshotError::Malformed("cooling host out of range"));
            }
            let si = f.shard_of_host[host as usize] as usize;
            f.shards[si].cooling.push(Reverse((at, host)));
        }
        for s in &mut f.shards {
            s.stats.pushes = dec.u64()?;
            s.stats.pops = dec.u64()?;
            s.stats.handoffs_in = dec.u64()?;
        }
        for b in &mut f.best {
            *b = dec.u16()?;
        }
        dec.bools(&mut f.done)?;
        f.pending = dec.len()?;
        f.max_pending = dec.len()?;
        f.pushes = dec.u64()?;
        f.seq = dec.u64()?;
        f.handoffs = dec.u64()?;
        Ok(f)
    }
}

/// The shared admission key (identical to `UrlQueue`'s).
fn key(e: &Entry) -> u16 {
    ((e.priority as u16) << 8) | e.distance as u16
}

impl Frontier for ShardedFrontier {
    fn push(&mut self, e: Entry) -> bool {
        let idx = e.page as usize;
        // lint:allow(no-panic-transitive): host, level and slab indices are minted by this structure and stay in range by construction
        if self.done[idx] {
            return false;
        }
        let k = key(&e);
        if k >= self.best[idx] {
            return false; // duplicate or not better
        }
        if self.best[idx] == u16::MAX {
            self.pending += 1;
            self.max_pending = self.max_pending.max(self.pending);
        }
        self.best[idx] = k;
        let host = self.insert(e);
        self.refresh(host);
        self.pushes += 1;
        true
    }

    /// Batched admission with *deferred exposure*: store every accepted
    /// entry first, then refresh each entry's host once. Bit-identical
    /// to per-entry pushes: admission checks, seq assignment, and shard
    /// stats run per entry in order, and the avail heap's `(level, seq,
    /// …)` order is total — the skipped intermediate tokens are exactly
    /// the ones a per-entry push sequence would have staled and
    /// discarded unseen, so the set of *live* tokens after the batch is
    /// the same either way. What the batch saves is one heap push (and
    /// later one stale-skip) per superseded intermediate minimum.
    // lint:root(panic-free, alloc-free) — one call per resolved
    // fetch with outlinks.
    fn push_all(&mut self, entries: &[Entry]) -> u32 {
        let mut enqueued = 0u32;
        for &e in entries {
            let idx = e.page as usize;
            // lint:allow(no-panic-transitive): host, level and slab indices are minted by this structure and stay in range by construction
            if self.done[idx] {
                continue;
            }
            let k = key(&e);
            if k >= self.best[idx] {
                continue; // duplicate or not better
            }
            if self.best[idx] == u16::MAX {
                self.pending += 1;
                self.max_pending = self.max_pending.max(self.pending);
            }
            self.best[idx] = k;
            self.insert(e);
            self.pushes += 1;
            enqueued += 1;
        }
        // One refresh per touched host; idempotent, so refreshing a
        // host once per accepted entry (rather than deduplicating the
        // host list) costs only the repeated no-op check.
        for &e in entries {
            self.refresh(self.host_of_page[e.page as usize]);
        }
        enqueued
    }

    fn pop(&mut self) -> Option<Entry> {
        self.pop_inner(false)
    }

    fn requeue(&mut self, e: Entry) -> bool {
        let idx = e.page as usize;
        // lint:allow(no-panic-transitive): host, level and slab indices are minted by this structure and stay in range by construction
        if !self.done[idx] {
            return self.push(e);
        }
        self.done[idx] = false;
        self.best[idx] = key(&e);
        self.pending += 1;
        self.max_pending = self.max_pending.max(self.pending);
        let host = self.insert(e);
        self.refresh(host);
        self.pushes += 1;
        true
    }

    fn pending(&self) -> usize {
        self.pending
    }

    fn max_pending(&self) -> usize {
        self.max_pending
    }

    fn total_pushes(&self) -> u64 {
        self.pushes
    }

    fn is_done(&self, p: PageId) -> bool {
        self.done[p as usize]
    }

    fn was_admitted(&self, p: PageId) -> bool {
        self.best[p as usize] != u16::MAX
    }
}

/// The plain-`Frontier` face of [`UrlQueue`] and [`ShardedFrontier`]
/// share semantics; re-exported tests pin it, so nothing here.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::UrlQueue;

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
        // Pop page 0 → host 0 busy; its page 1 is parked, so the next
        // ready entry is host 1's page 3 despite its worse level.
        let first = f.pop_ready().unwrap();
        assert_eq!(first.page, 0);
        assert_eq!(f.pop_ready().unwrap().page, 3);
        assert!(f.pop_ready().is_none(), "both hosts busy");
        // Releasing host 0 with no politeness re-exposes page 1.
        assert!(!f.release(0, 0, 0));
        assert_eq!(f.pop_ready().unwrap().page, 1);
    }

    #[test]
    fn cooling_host_waits_for_advance() {
        let mut f = frontier(1);
        f.push(e(0, 0, 0));
        f.push(e(1, 0, 0));
        assert_eq!(f.pop_ready().unwrap().page, 0);
        // Host 0 owes a gap until tick 5 and still has page 1 queued.
        assert!(f.release(0, 5, 1), "parked with work → politeness wait");
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
                    .find(|&(a, b)| probe.shard_of(a) != probe.shard_of(b))
                    .map(|(a, b)| (n, a, b))
            })
            .expect("some shard count must separate the fixture hosts");
        let page_on = |h: u32| [0u32, 3, 6][h as usize];
        let mut f = frontier(shards);
        f.set_origin(Some(home));
        f.push(e(page_on(away), 0, 0)); // crosses shards
        f.push(e(page_on(home), 1, 0)); // stays home
        assert_eq!(f.handoffs(), 1);
        let stats = f.shard_stats();
        assert_eq!(stats.iter().map(|s| s.handoffs_in).sum::<u64>(), 1);
        assert_eq!(stats.iter().map(|s| s.pushes).sum::<u64>(), 2);
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
        let stats = f.shard_stats();
        assert_eq!(stats.iter().map(|s| s.pushes).sum::<u64>(), 5);
        assert_eq!(stats.iter().map(|s| s.pops).sum::<u64>(), 2);
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
        // Fetch page 0 → host 0 goes busy with page 1 still parked.
        assert_eq!(f.pop_ready().unwrap().page, 0);
        // While the host is busy, page 1 is re-discovered at a better
        // priority. The promotion must survive the parked state.
        assert!(f.push(e(1, 0, 0)));
        assert_eq!(f.pending(), 2, "promotion is not a new distinct URL");
        assert_eq!(f.pop_ready().unwrap().page, 3, "busy host still skipped");
        assert!(!f.release(0, 0, 0));
        let p1 = f.pop_ready().unwrap();
        assert_eq!((p1.page, p1.priority), (1, 0), "promoted entry pops");
        assert!(f.pop_ready().is_none());
    }

    #[test]
    fn releasing_an_emptied_host_drops_its_exposure() {
        let mut f = frontier(1);
        f.push(e(0, 0, 0));
        f.push(e(3, 0, 0));
        assert_eq!(f.pop_ready().unwrap().page, 0);
        // Host 0 has nothing left: it still parks (politeness gaps are
        // start-to-start, work or not) but release reports no parked
        // work, and no exposure token lingers for the emptied host.
        assert!(!f.release(0, 10, 1), "empty host is not parked-with-work");
        assert_eq!(f.next_cooling(), Some(10), "the gap itself still applies");
        assert_eq!(f.pop_ready().unwrap().page, 3);
        f.advance_to(10);
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
        let stats = f.shard_stats();
        assert_eq!(stats.iter().map(|s| s.handoffs_in).sum::<u64>(), 0);
        assert_eq!(stats.iter().map(|s| s.pushes).sum::<u64>(), 2);
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
}
