//! The virtual-time scheduler: `K` fetch slots over a host-partitioned
//! frontier.
//!
//! This generalizes the legacy loop's `(ready_tick, seq)` retry heap
//! into a full event-driven simulation in virtual time. The state is a
//! set of `K` *fetch slots* draining a [`ShardedFrontier`]: a slot
//! starts the globally best entry whose host is ready, the fetch
//! occupies one virtual tick, and it takes the same fetch step as the
//! legacy loop — its attempt decided when it starts, concluded (backed
//! off or resolved) when it completes, over the same run progress (see
//! [`crate::engine`]). Between starts and completions the clock jumps
//! straight to the next event — a completion, a politeness cool-down
//! expiring, or a retry coming due — exactly like the retry heap's
//! dry-frontier fast-forward, now applied uniformly.
//!
//! **Determinism is the contract.** The schedule is a pure function of
//! (space seed, config): entries start in global `(level, seq)` order,
//! completions process in `(finish tick, start order)` order, cool-downs
//! wake in `(ready tick, host)` order, and the politeness jitter is a
//! per-host hash of the space's generation seed. Nothing reads the wall
//! clock, thread ids, or map iteration order, so reports are
//! bit-identical across machines and `LANGCRAWL_THREADS` settings
//! (pinned by the scheduler conformance suite).
//!
//! **`K = 1` with zero politeness is the legacy engine.** One slot
//! starting at tick `t` completes at `t + 1` — the same "attempt tick =
//! pop tick + 1" accounting as the legacy loop — and a single-slot
//! schedule never reorders anything, so the conformance goldens for the
//! legacy engine pin this path bit-for-bit. At that degenerate point a
//! run that captures no snapshots (no cadence, or no sink wants
//! [`Snapshot`](CrawlEvent::Snapshot)) and has no
//! [`SlotIdle`](CrawlEvent::SlotIdle) listener hands off to the legacy
//! loop verbatim (see [`CrawlEngine::run_scheduled`]); every other run
//! drives the event loop over a [`ShardedFrontier`] whose hosts hash
//! into `K` shards — stats labels only, so the shard count never
//! changes a pop. A unit test pins that a default
//! [`Simulator`](crate::sim::Simulator) run takes the hand-off, and
//! another that both loops narrate a faulted crawl alike.
//!
//! Politeness is a *start-to-start* gap, BUbiNG-style, with per-host
//! concurrency 1: a host that starts a fetch at `t` may start again at
//! `max(finish, t + gap(h))`, which the frontier learns at the start.
//! Gaps are drawn per host from the space's host table: the configured
//! base plus a deterministic per-host jitter seeded from the space's
//! generation seed under the `STREAM_POLITENESS` domain.
//!
//! **Timed crawls** (§6: "transfer delays and access intervals") set
//! [`SchedConfig::timing`]: a tick is 1 ms, a fetch lasts
//! [`Timing::fetch_ticks`], and the slots drain a Mercator-style
//! read-ahead frontier instead. Faults, retries, events and the
//! classifier's `visit` are this same loop. Timed runs capture no
//! snapshots: fetches of different lengths overlap every tick boundary.
//!
//! A snapshot holds only what a loop-top capture cannot derive: the
//! run's progress, the attempt table and the frontier. No fetch is in
//! flight there, and every politeness deadline still pending sits in
//! the frontier's cool-down heap (the [`shard`](crate::shard) module
//! says what decode recomputes).

use crate::classifier::Classifier;
use crate::engine::{
    emit, wants, CrawlEngine, EngineOutcome, EngineScratch, Fetch, Progress, RunState,
};
use crate::event::{interest, CrawlEvent, EventSink};
use crate::frontier::Frontier;
use crate::queue::{Entry, UrlQueue};
use crate::readahead::ReadAhead;
use crate::shard::{ShardStats, ShardedFrontier};
use crate::snapshot::{
    frame_begin, frame_end, run_fingerprint, CrawlSnapshot, Dec, Enc, SnapHead, SnapshotError,
};
use crate::strategy::Strategy;
use langcrawl_rng::Rng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// RNG stream domain for per-host politeness jitter (domains 1–5 are
/// taken by the generator and fault layers; see the D3 lint registry).
const STREAM_POLITENESS: u64 = 6 << 40;

/// Scheduler parameters. The default (`1` slot, no politeness or
/// timing) is the conformance configuration: bit-identical to the
/// legacy engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedConfig {
    /// Number of virtual fetch slots (`K`). `0` is treated as `1`. It is
    /// also the number of frontier shards the load-imbalance stats and
    /// handoff traffic are counted over.
    pub slots: u32,
    /// Minimum ticks between successive fetch *starts* on one host.
    /// `0` disables politeness entirely.
    pub politeness_gap: u64,
    /// Upper bound of the deterministic per-host jitter added to
    /// `politeness_gap` (uniform in `0..=spread`, hashed from the
    /// space's generation seed and the host id).
    pub politeness_spread: u64,
    /// The §6 timing model, which makes a tick 1 ms (`None`, the
    /// default: every fetch lasts one tick). Timed runs capture nothing.
    pub timing: Option<Timing>,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            slots: 1,
            politeness_gap: 0,
            politeness_spread: 0,
            timing: None,
        }
    }
}

impl SchedConfig {
    /// `K` slots, everything else default.
    pub fn with_slots(slots: u32) -> Self {
        SchedConfig {
            slots,
            ..SchedConfig::default()
        }
    }

    /// Effective slot count (`0` collapses to `1`).
    pub fn effective_slots(&self) -> u32 {
        self.slots.max(1)
    }
}

/// The timing model of a timed crawl ([`SchedConfig::timing`]; the
/// README shows one). One tick is 1 ms; the defaults are an 80 ms round
/// trip, about 10 Mbit/s per slot, and 256 URLs of read-ahead.
///
/// Retry back-off ([`crate::retry::RetryPolicy`]) counts ticks too and
/// does not scale with this model: the default 2–64-tick back-off is
/// 2–64 ms here, shorter than one default round trip, so a failed
/// fetch's retry waits on its host's politeness gap rather than on its
/// back-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// Per-request round-trip latency, ticks.
    pub rtt: u64,
    /// Download bandwidth of one slot, bytes per tick (`0` counts as 1).
    pub bytes_per_tick: u64,
    /// URLs that may wait in per-host back queues before a free slot
    /// stops reading ahead in the strategy's queue (`0` counts as 1).
    pub read_ahead: usize,
}

impl Default for Timing {
    fn default() -> Self {
        Timing {
            rtt: 80,
            bytes_per_tick: 1_250, // ≈10 Mbit/s per slot
            read_ahead: 256,
        }
    }
}

impl Timing {
    /// Ticks a fetch of a `size`-byte page takes: round trip + transfer.
    pub fn fetch_ticks(&self, size: u32) -> u64 {
        self.rtt
            .saturating_add(u64::from(size) / self.bytes_per_tick.max(1))
            .max(1)
    }
}

/// What the event loop asks of a frontier beyond [`Frontier`]: hosts
/// free or waiting in virtual time. [`ShardedFrontier`] serves untimed
/// schedules, `ReadAhead` timed ones; the defaults stand for the shard
/// stats, handoffs and capture that apply to the first only.
pub(crate) trait SlotFrontier: Frontier {
    /// The next entry to start at the clock of the last `advance_to`
    /// (`None` while no waiting entry's host is free); `started` follows.
    fn pop_ready(&mut self) -> Option<Entry>;

    /// A fetch on `host` started; the host may start again at `free_at`.
    fn started(&mut self, host: u32, free_at: u64);

    /// Move the clock to `t`, freeing every host due by then.
    fn advance_to(&mut self, t: u64);

    /// The earliest tick a waiting host becomes free, if any.
    fn next_cooling(&self) -> Option<u64>;

    /// Does a fetch on `host` completing at `now` leave queued work
    /// waiting for its host until `free_at` (a politeness wait)?
    fn politeness_wait(&self, host: u32, free_at: u64, now: u64) -> bool;

    /// Declare the host whose fetch is resolving, for handoffs.
    fn set_origin(&mut self, _host: Option<u32>) {}

    /// Accepted pushes that crossed shards so far.
    fn handoffs(&self) -> u64 {
        0
    }

    /// Per-shard load counters, in shard order.
    fn shard_stats(&self) -> Vec<ShardStats> {
        Vec::new()
    }

    /// Append the state a loop-top capture cannot derive to `enc`,
    /// sorting the cool-down heap in the reused buffer `cooling`.
    fn encode_state(&self, _enc: &mut Enc, _cooling: &mut Vec<(u64, u32)>) {}
}

/// A fetch occupying a slot until `finish`. Each start is inserted
/// behind every fetch that finishes no later, so completions process in
/// `(finish, start order)` from a plain deque (appending, while fetches
/// last one tick). Attempt number and outcome are decided at the start;
/// so is `free_at`, the host's next allowed start.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    finish: u64,
    fetch: Fetch,
    free_at: u64,
}

/// Live capture state inside the event loop: the cadence, the next
/// capture tick, the identity-header template (tick/crawled are filled
/// per capture), and the buffers every capture reuses — the framed
/// bytes, and the two that sort the retry heap and the frontier's
/// cool-down heap into canonical order — so steady-cadence capture
/// settles into zero allocations per snapshot.
struct SnapCtl {
    every: u64,
    next_at: u64,
    head: SnapHead,
    buf: Enc,
    retries: Vec<(u64, u64, Entry)>,
    cooling: Vec<(u64, u32)>,
}

impl SnapCtl {
    fn new(head: SnapHead, every: u64, next_at: u64) -> Self {
        SnapCtl {
            every,
            next_at,
            head,
            buf: Enc::default(),
            retries: Vec::new(),
            cooling: Vec::new(),
        }
    }
}

/// Everything [`CrawlEngine::sched_loop`] needs beyond the run
/// arguments: the frontier to drain (seeded for a fresh run), the
/// progress to resume from (`None` = fresh run), and the capture state
/// (`None` = no capture).
struct LoopCtl<F> {
    frontier: F,
    resumed: Option<Progress>,
    snap: Option<SnapCtl>,
}

/// Encode one snapshot payload into `c.buf`: header, progress, attempt
/// table, frontier state. Slot occupancy is not part of it: step 4 of
/// the loop drains every in-flight fetch before the loop re-enters (all
/// fetches started at tick `t` finish together at `t + 1`), so no fetch
/// is in flight at any capture point. Canonical throughout (the retry
/// heap is emitted sorted), so encoding the state a snapshot decodes to
/// reproduces its bytes — the fixed-point property the codec proptests
/// pin.
// lint:root(panic-free, alloc-free) — capture runs mid-crawl into
// preallocated buffers, so it must neither unwind nor allocate.
fn encode_snapshot_into<F: SlotFrontier>(
    c: &mut SnapCtl,
    pg: &Progress,
    attempt_counts: &[u32],
    frontier: &F,
) {
    let enc: &mut Enc = &mut c.buf;
    c.head.encode(enc);
    enc.u64(pg.attempts);
    enc.u64(pg.retries);
    enc.u64(pg.retry_seq);
    c.retries.clear();
    // lint:allow(no-alloc-transitive): the sort buffer is reused across captures and grows only to its high water
    c.retries.extend(pg.retry_heap.iter().map(|&Reverse(x)| x));
    c.retries.sort_unstable();
    enc.u64(c.retries.len() as u64);
    for &(ready, seq, e) in &c.retries {
        enc.u64(ready);
        enc.u64(seq);
        enc.u32(e.page);
        enc.u8(e.priority);
        enc.u8(e.distance);
    }
    enc.u64(pg.relevant_crawled);
    enc.u64(pg.gave_up);
    enc.u64(pg.until_sample);
    // A materialized attempt table has one count per page of the space.
    if attempt_counts.is_empty() {
        enc.u8(0);
    } else {
        enc.u8(1);
        enc.u32s(attempt_counts);
    }
    frontier.encode_state(enc, &mut c.cooling);
}

/// Decode the run-state section (the payload between the header and
/// the frontier state): the progress, at the header's tick and crawled
/// count, and the attempt table into `counts`, which stays empty when
/// the table had not materialized (emptiness doubles as the "no
/// back-off yet" flag, so the distinction is part of the state).
fn decode_run_state(
    dec: &mut Dec<'_>,
    head: &SnapHead,
    num_pages: usize,
    counts: &mut Vec<u32>,
) -> Result<Progress, SnapshotError> {
    let attempts = dec.u64()?;
    let retries = dec.u64()?;
    let retry_seq = dec.u64()?;
    let mut retry_heap = BinaryHeap::new();
    for _ in 0..dec.len()? {
        let ready = dec.u64()?;
        let seq = dec.u64()?;
        let page = dec.u32()?;
        if page as usize >= num_pages {
            return Err(SnapshotError::Malformed("retry page out of range"));
        }
        let priority = dec.u8()?;
        let distance = dec.u8()?;
        retry_heap.push(Reverse((
            ready,
            seq,
            Entry {
                page,
                priority,
                distance,
            },
        )));
    }
    let relevant_crawled = dec.u64()?;
    let gave_up = dec.u64()?;
    let until_sample = dec.u64()?;
    if until_sample == 0 {
        return Err(SnapshotError::Malformed("sample countdown out of range"));
    }
    match dec.u8()? {
        0 => {}
        1 => {
            counts.resize(num_pages, 0);
            for c in counts.iter_mut() {
                *c = dec.u32()?;
            }
        }
        _ => return Err(SnapshotError::Malformed("attempt table flag out of range")),
    }
    if counts.is_empty() && !retry_heap.is_empty() {
        // A back-off records its attempt number before it is scheduled,
        // so a retry backlog without an attempt table is no state a run
        // can reach.
        return Err(SnapshotError::Malformed("retries without attempt table"));
    }
    Ok(Progress {
        now: head.tick,
        attempts,
        retries,
        crawled: head.crawled,
        relevant_crawled,
        gave_up,
        until_sample,
        retry_seq,
        retry_heap,
    })
}

impl CrawlEngine<'_> {
    /// Per-host politeness gaps: base plus deterministic jitter. Empty
    /// when politeness is disabled — every host is then free again as
    /// soon as its fetch finishes.
    fn politeness_gaps(&self, sched: &SchedConfig) -> Vec<u64> {
        let ws = self.web_space();
        if sched.politeness_gap == 0 && sched.politeness_spread == 0 {
            return Vec::new();
        }
        let seed = ws.generation_seed();
        (0..ws.num_hosts() as u64)
            .map(|h| {
                let jitter = if sched.politeness_spread == 0 {
                    0
                } else {
                    Rng::stream(seed, STREAM_POLITENESS | h)
                        .random_range(0..=sched.politeness_spread)
                };
                sched.politeness_gap.saturating_add(jitter)
            })
            .collect()
    }

    /// Run one crawl under the virtual-time scheduler and return its
    /// outcome with the frontier's per-shard load counters (the raw
    /// material for the parallelism sweep's imbalance and handoff
    /// figures). Same contract as [`CrawlEngine::run`] — same seeding,
    /// same per-page event sequence, same outcome — except that up to
    /// [`SchedConfig::slots`] fetches overlap in virtual time and
    /// per-host politeness gaps stall hosts between starts. The frontier
    /// is a [`ShardedFrontier`] built from the space's host table, or a
    /// read-ahead frontier with no shard counters for a timed schedule.
    ///
    /// With [`EngineConfig::snapshot_every`](crate::engine::EngineConfig::snapshot_every)
    /// set, sinks that want [`interest::SNAPSHOT`] receive a
    /// [`CrawlEvent::Snapshot`] every that many ticks, the first at tick
    /// `every` (timed runs capture nothing). Capture never changes the
    /// crawl. Pass the same `scratch` to back-to-back runs to reuse its
    /// buffers ([`EngineScratch`]).
    pub fn run_scheduled<S, C>(
        &self,
        sched: &SchedConfig,
        strategy: &mut S,
        classifier: &C,
        sinks: &mut [&mut dyn EventSink],
        scratch: &mut EngineScratch,
    ) -> (EngineOutcome, Vec<ShardStats>)
    where
        S: Strategy + ?Sized,
        C: Classifier + ?Sized,
    {
        let ws = self.web_space();
        let wants = wants(sinks);
        let every = self.capture_every(wants);
        // Degenerate-point elision (see the module docs), like the fault
        // layer's inert-model fast path: the single slot drains before
        // every pop, so every host is free at pop time and the order is
        // [`UrlQueue`] order (the shard-parity property test pins that).
        // Unless a sink asks for [`SlotIdle`](CrawlEvent::SlotIdle) (it
        // marks retry-backoff stalls; handoffs and politeness waits cannot
        // happen here) or captures are on (they describe the event loop's
        // state), the schedule *is* the legacy loop (pinned by
        // `single_slot_schedule_matches_legacy_engine`), so run it
        // verbatim. An untimed run returns no shard counters only here
        // (`default_simulator_run_hands_off_to_the_legacy_loop`).
        if every.is_none() && Self::is_degenerate(sched) && wants & interest::SLOT_IDLE == 0 {
            let frontier = UrlQueue::new(ws.num_pages(), strategy.levels());
            let outcome = self.run_with_scratch(frontier, strategy, classifier, sinks, scratch);
            return (outcome, Vec::new());
        }
        let levels = strategy.levels().max(1);
        scratch.begin_run();
        if let Some(timing) = sched.timing {
            let mut frontier = ReadAhead::for_space(ws, levels, timing.read_ahead);
            self.seed(&mut frontier);
            let ctl = LoopCtl {
                frontier,
                resumed: None,
                snap: None,
            };
            return self.sched_loop(sched, strategy, classifier, sinks, scratch, ctl);
        }
        // Fresh runs capture first at `every` (tick 0 is the initial
        // state [`CrawlEngine::snapshot`] hands out).
        let snap = every.map(|every| {
            let head = self.snap_head(sched, levels as u32, run_fingerprint(strategy, classifier));
            SnapCtl::new(head, every, every)
        });
        let ctl = LoopCtl {
            frontier: self.seeded_frontier(sched, levels),
            resumed: None,
            snap,
        };
        self.sched_loop(sched, strategy, classifier, sinks, scratch, ctl)
    }

    /// The capture cadence for a run whose sinks want `wants`: none
    /// unless some sink wants [`CrawlEvent::Snapshot`].
    fn capture_every(&self, wants: u16) -> Option<u64> {
        self.config
            .snapshot_every
            .filter(|_| wants & interest::SNAPSHOT != 0)
            .map(|every| every.max(1))
    }

    /// Is this the scheduler's degenerate point — the configuration at
    /// which the host machinery cannot block, delay or reorder
    /// anything, so the legacy loop reproduces the schedule exactly?
    fn is_degenerate(sched: &SchedConfig) -> bool {
        sched.effective_slots() == 1
            && sched.politeness_gap == 0
            && sched.politeness_spread == 0
            && sched.timing.is_none()
    }

    /// A fresh run's frontier: the space's seeds parked at priority 0,
    /// its hosts hashed into one shard per slot.
    fn seeded_frontier(&self, sched: &SchedConfig, levels: usize) -> ShardedFrontier {
        let ws = self.web_space();
        let mut frontier = ShardedFrontier::for_space(ws, levels, sched.effective_slots() as usize);
        self.seed(&mut frontier);
        frontier
    }

    /// The identity header for snapshots of this engine's runs.
    fn snap_head(&self, sched: &SchedConfig, levels: u32, run_fp: u64) -> SnapHead {
        let ws = self.web_space();
        SnapHead {
            space_fp: ws.identity_fingerprint(),
            gen_seed: ws.generation_seed(),
            config_fp: self.config.snapshot_fingerprint(),
            run_fp,
            levels,
            // The header has no room for the timing model.
            sched: SchedConfig {
                timing: None,
                ..*sched
            },
            tick: 0,
            crawled: 0,
        }
    }

    /// The tick-0 snapshot of a scheduled crawl that has not started:
    /// seeds parked in the frontier, all counters zero. Resuming it is
    /// exactly [`CrawlEngine::run_scheduled`] (the resume-parity suite
    /// pins that), which makes it the base case for snapshot chains and
    /// a convenient fixture for codec tests. The snapshot of a timed
    /// schedule drops its [`SchedConfig::timing`] and resumes untimed.
    pub fn snapshot<S, C>(&self, sched: &SchedConfig, strategy: &S, classifier: &C) -> CrawlSnapshot
    where
        S: Strategy + ?Sized,
        C: Classifier + ?Sized,
    {
        let levels = strategy.levels().max(1);
        let head = self.snap_head(sched, levels as u32, run_fingerprint(strategy, classifier));
        let mut c = SnapCtl::new(head, 0, 0);
        let progress = Progress::new(self.sample_interval());
        encode_snapshot_into(&mut c, &progress, &[], &self.seeded_frontier(sched, levels));
        let mut head_enc = Enc::default();
        head.encode(&mut head_enc);
        CrawlSnapshot::from_parts(c.buf.buf, head, head_enc.buf.len())
    }

    /// Resume a crawl from a snapshot and run it to completion. The
    /// engine must be built over the *same* web space the snapshot was
    /// taken from (verified via the space fingerprint — the space is
    /// regenerated from config, never stored in the snapshot) with the
    /// same engine configuration, a strategy of the same shape that
    /// keeps no state outside the frontier ([`Strategy::keeps_state`]),
    /// and the strategy and classifier the snapshot names
    /// ([`CrawlSnapshot::run_fingerprint`]); the schedule knobs travel
    /// inside the snapshot. Events fire only for the remainder of the
    /// crawl; counters in the final outcome are cumulative, so the
    /// outcome equals an uninterrupted run's.
    ///
    /// Capture works as in [`CrawlEngine::run_scheduled`], except that
    /// the first [`CrawlEvent::Snapshot`] fires *at* the resume tick —
    /// reproducing the input snapshot byte-for-byte, the codec's
    /// round-trip fixed point — and the cadence counts from there.
    pub fn resume<S, C>(
        &self,
        snap: &CrawlSnapshot,
        strategy: &mut S,
        classifier: &C,
        sinks: &mut [&mut dyn EventSink],
    ) -> Result<(EngineOutcome, Vec<ShardStats>), SnapshotError>
    where
        S: Strategy + ?Sized,
        C: Classifier + ?Sized,
    {
        if strategy.keeps_state() {
            return Err(SnapshotError::StatefulStrategy(strategy.name()));
        }
        let ws = self.web_space();
        snap.verify_space(ws)?;
        if snap.head.config_fp != self.config.snapshot_fingerprint() {
            return Err(SnapshotError::ConfigMismatch("engine configuration"));
        }
        let levels = strategy.levels().max(1);
        if snap.head.levels as usize != levels {
            return Err(SnapshotError::ConfigMismatch("strategy level count"));
        }
        let run_fp = run_fingerprint(strategy, classifier);
        if snap.head.run_fp != run_fp {
            return Err(SnapshotError::RunMismatch {
                expected: snap.head.run_fp,
                found: run_fp,
            });
        }
        // The schedule rides in the snapshot.
        let sched = snap.head.sched;
        let mut dec = snap.state_dec();
        let mut scratch = EngineScratch::new();
        let progress = decode_run_state(
            &mut dec,
            &snap.head,
            ws.num_pages(),
            &mut scratch.attempt_counts,
        )?;
        // The frontier state holds one 24-byte stats triple per slot: a
        // slot count the payload cannot hold is refused before the
        // frontier and the in-flight queue are sized by it.
        let slots = sched.effective_slots() as usize;
        if slots > dec.remaining() / 24 {
            return Err(SnapshotError::Truncated);
        }
        let frontier = ShardedFrontier::for_space(ws, levels, slots).decode_state(&mut dec)?;
        if !dec.is_empty() {
            return Err(SnapshotError::Malformed("trailing state bytes"));
        }
        let snap = self
            .capture_every(wants(sinks))
            .map(|every| SnapCtl::new(snap.head, every, snap.head.tick));
        Ok(self.sched_loop(
            &sched,
            strategy,
            classifier,
            sinks,
            &mut scratch,
            LoopCtl {
                frontier,
                resumed: Some(progress),
                snap,
            },
        ))
    }

    /// The virtual-time event loop over a slot frontier. `ctl` carries
    /// the frontier (seeded, or decoded with the progress restored
    /// alongside it) and an optional capture plan; `scratch` holds the
    /// run's attempt table, if any.
    // lint:root(panic-free) — the steady-state event loop; every
    // simulated fetch passes through here.
    fn sched_loop<F, S, C>(
        &self,
        sched: &SchedConfig,
        strategy: &mut S,
        classifier: &C,
        sinks: &mut [&mut dyn EventSink],
        scratch: &mut EngineScratch,
        ctl: LoopCtl<F>,
    ) -> (EngineOutcome, Vec<ShardStats>)
    where
        F: SlotFrontier,
        S: Strategy + ?Sized,
        C: Classifier + ?Sized,
    {
        let LoopCtl {
            mut frontier,
            resumed,
            mut snap,
        } = ctl;
        let ws = self.web_space();
        let gaps = self.politeness_gaps(sched);
        let slots = sched.effective_slots();
        let budget = self.config.max_pages.unwrap_or(u64::MAX);
        // Sorted by (finish, start order): see [`InFlight`]. Its length
        // is the number of busy slots.
        let mut in_flight: VecDeque<InFlight> = VecDeque::with_capacity(slots as usize);
        let mut st = RunState::new(sinks, self.sample_interval(), resumed);
        let wants = st.wants;

        'outer: loop {
            // 0. Capture at the loop-top tick boundary — before any
            // state moves this iteration, so a resumed run's first
            // re-capture reproduces the snapshot it resumed from
            // byte-for-byte. Capture only observes; the crawl is
            // unchanged with or without it (resume-parity suite).
            if let Some(c) = snap.as_mut() {
                let pg = &st.progress;
                if pg.now >= c.next_at {
                    c.head.tick = pg.now;
                    c.head.crawled = pg.crawled;
                    c.buf.buf.clear();
                    let payload_at = frame_begin(&mut c.buf);
                    encode_snapshot_into(c, pg, &scratch.attempt_counts, &frontier);
                    frame_end(&mut c.buf, payload_at);
                    emit(
                        st.sinks,
                        CrawlEvent::Snapshot {
                            tick: pg.now,
                            bytes: &c.buf.buf,
                        },
                    );
                    c.next_at = pg.now.saturating_add(c.every);
                }
            }
            // 1. Due retries re-enter the frontier before slots fill —
            // the legacy loop's drain-before-pop.
            st.progress.requeue_due(&mut frontier);
            let now = st.progress.now;

            // 2. Fill free slots in the frontier's order. A start tells
            // the frontier when its host is free again, so one host
            // never occupies two slots.
            while (in_flight.len() as u32) < slots {
                let Some(entry) = frontier.pop_ready() else {
                    break;
                };
                let meta = ws.meta(entry.page);
                let span = sched.timing.map_or(1, |t| t.fetch_ticks(meta.size));
                let finish = now.saturating_add(span);
                // Start-to-start politeness: the host's next start is
                // due `gap` ticks after this one, and not before this
                // fetch finishes.
                let gap = gaps.get(meta.host as usize).copied().unwrap_or(0);
                let free_at = finish.max(now.saturating_add(gap));
                frontier.started(meta.host, free_at);
                let fetch = self.attempt(entry, &mut st.progress, &scratch.attempt_counts);
                let at = in_flight.partition_point(|g| g.finish <= finish);
                let started = InFlight {
                    finish,
                    fetch,
                    free_at,
                };
                in_flight.insert(at, started);
            }

            // 3. Advance the clock to the earliest completion or — only
            // while a slot is free (a timed frontier keeps past-due hosts
            // until one frees) — an earlier cool-down expiry or retry.
            // Nothing pending at all means the crawl is over.
            let busy = in_flight.len() as u32;
            let (cooling, retry) = if busy < slots {
                (frontier.next_cooling(), st.progress.next_retry())
            } else {
                (None, None)
            };
            let completion = in_flight.front().map(|f| f.finish);
            let Some(t_next) = [completion, cooling, retry].into_iter().flatten().min() else {
                break 'outer;
            };
            // Idle slots while work is waiting (parked behind busy or
            // cooling hosts, or backing off in the retry heap) are the
            // politeness/parallelism stall signal the sweep measures.
            if wants & interest::SLOT_IDLE != 0 && busy < slots {
                let waiting = frontier.pending() > 0 || st.progress.next_retry().is_some();
                if waiting {
                    emit(
                        st.sinks,
                        CrawlEvent::SlotIdle {
                            tick: now,
                            idle: slots - busy,
                            span: t_next - now,
                        },
                    );
                }
            }
            st.progress.now = t_next;
            frontier.advance_to(t_next);

            // 4. Process completions due now, in (finish, start order).
            // Each reports whether its host still owes a politeness gap
            // with work queued, then backs off or resolves exactly like
            // the legacy loop. Only a resolution admits links, so only
            // it can hand off across shards.
            while let Some(&f) = in_flight.front() {
                if f.finish > t_next {
                    break;
                }
                in_flight.pop_front();
                let p = f.fetch.entry.page;
                let host = ws.meta(p).host;
                if wants & interest::POLITENESS != 0
                    && frontier.politeness_wait(host, f.free_at, t_next)
                {
                    emit(
                        st.sinks,
                        CrawlEvent::PolitenessWait {
                            host,
                            until: f.free_at,
                        },
                    );
                }
                let handoffs_before = frontier.handoffs();
                frontier.set_origin(Some(host));
                let resolved = self.conclude(
                    &mut st,
                    &mut frontier,
                    strategy,
                    classifier,
                    scratch,
                    f.fetch,
                );
                frontier.set_origin(None);
                let crossed = frontier.handoffs() - handoffs_before;
                if crossed > 0 && wants & interest::HANDOFF != 0 {
                    emit(
                        st.sinks,
                        CrawlEvent::ShardHandoff {
                            page: p,
                            crossed: crossed as u32,
                        },
                    );
                }
                if resolved && st.progress.crawled >= budget {
                    break 'outer;
                }
            }
        }

        let outcome = st.finish(&frontier);
        (outcome, frontier.shard_stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::OracleClassifier;
    use crate::engine::EngineConfig;
    use crate::event::{MetricsSampler, SchedStatsSink, VisitRecorder};
    use crate::sim::SimConfig;
    use crate::snapshot::{frame, SnapshotLog};
    use crate::strategy::{BreadthFirst, SimpleStrategy};
    use langcrawl_webgraph::{FaultConfig, GeneratorConfig, PageId, WebSpace};

    fn space() -> WebSpace {
        GeneratorConfig::thai_like().scaled(4_000).build(9)
    }

    /// One crawl of `sched` by `strategy` under the oracle classifier,
    /// narrated to `sinks`.
    fn run(
        engine: &CrawlEngine,
        sched: &SchedConfig,
        strategy: &mut dyn Strategy,
        sinks: &mut [&mut dyn EventSink],
    ) -> (EngineOutcome, Vec<ShardStats>) {
        let oracle = OracleClassifier::target(engine.web_space().target_language());
        engine.run_scheduled(sched, strategy, &oracle, sinks, &mut EngineScratch::new())
    }

    /// An engine under `FaultConfig::with_rate(0.2)`.
    fn faulted(ws: &WebSpace) -> CrawlEngine<'_> {
        let config = EngineConfig {
            fault: FaultConfig::with_rate(0.2),
            ..EngineConfig::default()
        };
        CrawlEngine::new(ws, config)
    }

    /// A timed schedule with the default timing model (1 tick = 1 ms).
    fn timed(slots: u32, gap: u64) -> SchedConfig {
        let mut sched = SchedConfig::with_slots(slots);
        sched.politeness_gap = gap;
        sched.timing = Some(Timing::default());
        sched
    }

    #[test]
    fn single_slot_schedule_matches_legacy_engine() {
        let ws = space();
        let engine = CrawlEngine::new(&ws, EngineConfig::default());
        let mut visits = VisitRecorder::new();
        let legacy = engine.run(
            UrlQueue::new(ws.num_pages(), 1),
            &mut BreadthFirst::new(),
            &OracleClassifier::target(ws.target_language()),
            &mut [&mut visits],
        );
        let legacy_visits = visits.into_visited();
        // Default config (full legacy-loop elision) and the same with a
        // `SlotIdle`-interested sink attached (the virtual-time loop
        // over the one-shard frontier) must both reproduce the legacy
        // run exactly.
        for stats in [false, true] {
            let mut visits = VisitRecorder::new();
            let mut sched_stats = SchedStatsSink::new();
            let mut sinks: Vec<&mut dyn EventSink> = vec![&mut visits];
            if stats {
                sinks.push(&mut sched_stats);
            }
            let sched = SchedConfig::default();
            let (outcome, _) = run(&engine, &sched, &mut BreadthFirst::new(), &mut sinks);
            assert_eq!(legacy, outcome, "stats={stats}");
            assert_eq!(legacy_visits, visits.into_visited(), "stats={stats}");
        }
    }

    /// A default `Simulator` run takes the hand-off: the default
    /// schedule with the sinks `Simulator::run` attaches returns no
    /// shard counters, and the event loop returns one per shard.
    #[test]
    fn default_simulator_run_hands_off_to_the_legacy_loop() {
        let ws = space();
        let engine = CrawlEngine::new(&ws, EngineConfig::default());
        let mut metrics = MetricsSampler::new();
        let mut visits = VisitRecorder::new();
        let sinks: &mut [&mut dyn EventSink] = &mut [&mut metrics, &mut visits];
        let sched = SimConfig::default().sched;
        let (outcome, shards) = run(&engine, &sched, &mut SimpleStrategy::soft(), sinks);
        assert!(outcome.crawled > 0);
        assert!(
            shards.is_empty(),
            "the default schedule ran the event loop over {} shards",
            shards.len()
        );
    }

    /// Both loops take one fetch step, so under faults the hand-off and
    /// the event loop (forced by a `SlotIdle` listener) must narrate the
    /// same crawl: every event but the scheduler's own, in one order,
    /// with one outcome.
    #[test]
    fn both_loops_narrate_a_faulted_crawl_alike() {
        /// Every event it wants, rendered in order.
        struct Narration(Vec<String>);
        impl EventSink for Narration {
            fn on_event(&mut self, event: &CrawlEvent) {
                self.0.push(format!("{event:?}"));
            }
            fn interests(&self) -> u16 {
                interest::ALL
                    & !(interest::SLOT_IDLE
                        | interest::HANDOFF
                        | interest::POLITENESS
                        | interest::SNAPSHOT)
            }
        }
        let ws = space();
        let engine = faulted(&ws);
        let narrate = |event_loop: bool| {
            let mut narration = Narration(Vec::new());
            let mut stats = SchedStatsSink::new();
            let mut sinks: Vec<&mut dyn EventSink> = vec![&mut narration];
            if event_loop {
                sinks.push(&mut stats);
            }
            let sched = SchedConfig::default();
            let soft = &mut SimpleStrategy::soft();
            let (outcome, shards) = run(&engine, &sched, soft, &mut sinks);
            assert_eq!(shards.is_empty(), !event_loop, "the other loop ran");
            (outcome, narration.0)
        };
        let (single_slot, single_slot_events) = narrate(false);
        let (event_loop, event_loop_events) = narrate(true);
        assert!(single_slot.retries > 0, "the faults must retry");
        assert_eq!(single_slot, event_loop);
        assert_eq!(single_slot_events, event_loop_events);
    }

    /// A header claiming more slots than the payload holds stats for is
    /// refused before the frontier or the in-flight queue is sized by
    /// it (`u32::MAX` slots would ask for about 100 GB).
    #[test]
    fn a_slot_count_beyond_the_payload_is_refused_before_allocating() {
        let ws = space();
        let engine = CrawlEngine::new(&ws, EngineConfig::default());
        let mut strategy = SimpleStrategy::soft();
        let oracle = OracleClassifier::target(ws.target_language());
        let snap = engine.snapshot(&SchedConfig::with_slots(4), &strategy, &oracle);
        // The tick-0 snapshot under a header claiming `slots`, framed
        // with a valid checksum.
        let reframed = |slots: u32| {
            let mut head = snap.head;
            head.sched.slots = slots;
            let mut payload = Enc::default();
            head.encode(&mut payload);
            payload
                .buf
                .extend_from_slice(&snap.payload[snap.state_off..]);
            CrawlSnapshot::from_bytes(&frame(&payload.buf)).expect("a well-formed frame")
        };
        let mut resume =
            |snap: &CrawlSnapshot| engine.resume(snap, &mut strategy, &oracle, &mut []).err();
        assert_eq!(resume(&reframed(4)), None);
        assert_eq!(resume(&reframed(u32::MAX)), Some(SnapshotError::Truncated));
    }

    #[test]
    fn more_slots_shrink_the_makespan() {
        let ws = space();
        let engine = CrawlEngine::new(&ws, EngineConfig::default());
        let makespan = |k| {
            let sched = SchedConfig::with_slots(k);
            run(&engine, &sched, &mut SimpleStrategy::soft(), &mut []).0
        };
        let k1 = makespan(1);
        let k8 = makespan(8);
        // Same work either way; only the schedule differs.
        assert_eq!(k1.crawled, k8.crawled);
        assert_eq!(k1.relevant_crawled, k8.relevant_crawled);
        assert!(
            k8.ticks < k1.ticks,
            "8 slots must beat 1: {} vs {}",
            k8.ticks,
            k1.ticks
        );
        // Perfect speedup is ceil(attempts / K); the schedule can only
        // be worse (per-host concurrency 1), never better.
        assert!(k8.ticks >= k8.attempts.div_ceil(8));
    }

    #[test]
    fn politeness_stretches_the_makespan() {
        let ws = space();
        let engine = CrawlEngine::new(&ws, EngineConfig::default());
        let polite = |gap| {
            let mut stats = SchedStatsSink::new();
            let mut sched = SchedConfig::with_slots(4);
            sched.politeness_gap = gap;
            let soft = &mut SimpleStrategy::soft();
            let (o, _) = run(&engine, &sched, soft, &mut [&mut stats]);
            (o, stats)
        };
        let (free, _) = polite(0);
        let (polite, stats) = polite(6);
        assert_eq!(
            free.crawled, polite.crawled,
            "politeness reorders, never loses"
        );
        assert_eq!(free.relevant_crawled, polite.relevant_crawled);
        assert!(polite.ticks > free.ticks, "gaps must stall the schedule");
        assert!(
            stats.politeness_waits > 0,
            "hosts must park with work queued"
        );
        assert!(stats.idle_slot_ticks > 0, "stalls must idle slots");
    }

    #[test]
    fn politeness_jitter_is_deterministic() {
        let ws = space();
        let engine = CrawlEngine::new(&ws, EngineConfig::default());
        let sched = SchedConfig {
            slots: 4,
            politeness_gap: 2,
            politeness_spread: 3,
            ..SchedConfig::default()
        };
        let gaps = engine.politeness_gaps(&sched);
        assert_eq!(gaps, engine.politeness_gaps(&sched));
        assert!(gaps.iter().all(|&g| (2..=5).contains(&g)));
        assert!(
            gaps.iter().any(|&g| g != gaps[0]),
            "jitter must actually vary across hosts"
        );
        let crawl = || {
            let mut visits = VisitRecorder::new();
            let soft = &mut SimpleStrategy::soft();
            let (o, _) = run(&engine, &sched, soft, &mut [&mut visits]);
            (o, visits.into_visited())
        };
        assert_eq!(crawl(), crawl());
    }

    #[test]
    fn budget_stops_scheduled_runs() {
        let ws = space();
        let config = EngineConfig {
            max_pages: Some(100),
            ..EngineConfig::default()
        };
        let engine = CrawlEngine::new(&ws, config);
        for sched in [SchedConfig::with_slots(16), timed(32, 1_000)] {
            let (outcome, _) = run(&engine, &sched, &mut BreadthFirst::new(), &mut []);
            assert_eq!(outcome.crawled, 100, "{sched:?}");
        }
    }

    #[test]
    fn faulted_scheduled_runs_retry_and_terminate() {
        let ws = space();
        let engine = faulted(&ws);
        let mut polite = SchedConfig::with_slots(4);
        polite.politeness_gap = 1;
        for sched in [polite, timed(32, 1_000)] {
            let (outcome, _) = run(&engine, &sched, &mut BreadthFirst::new(), &mut []);
            assert!(outcome.crawled > 0);
            assert!(outcome.retries > 0, "{sched:?}");
            assert!(outcome.gave_up > 0);
            assert_eq!(outcome.attempts, outcome.crawled + outcome.retries);
        }
    }

    #[test]
    fn timed_breadth_first_fetches_every_page_in_time_order() {
        /// Every `Sampled` tick and the visit order.
        #[derive(Default)]
        struct Timeline(Vec<u64>, Vec<PageId>);
        impl EventSink for Timeline {
            fn on_event(&mut self, event: &CrawlEvent) {
                match *event {
                    CrawlEvent::Sampled { tick, .. } => self.0.push(tick),
                    CrawlEvent::Fetched { page, .. } => self.1.push(page),
                    _ => {}
                }
            }
        }
        let ws = space();
        let engine = CrawlEngine::new(&ws, EngineConfig::default());
        let (sched, mut timeline) = (timed(32, 1_000), Timeline::default());
        let bfs = &mut BreadthFirst::new();
        let (outcome, shards) = run(&engine, &sched, bfs, &mut [&mut timeline]);
        assert_eq!(outcome.crawled, ws.num_pages() as u64);
        assert!(shards.is_empty(), "timed runs count no shards");
        let Timeline(ticks, visited) = timeline;
        assert!(ticks.len() > 100 && ticks.windows(2).all(|w| w[0] <= w[1]));
        // Each visit held a slot for its whole fetch: utilization stays
        // at most 1.
        let fetch = |p: &PageId| Timing::default().fetch_ticks(ws.meta(*p).size);
        let busy: u64 = visited.iter().map(fetch).sum();
        assert!(busy > 0 && busy <= outcome.ticks * 32, "{busy} busy ticks");
    }

    #[test]
    fn politeness_lengthens_and_slots_shorten_timed_crawls() {
        let ws = space();
        let engine = CrawlEngine::new(&ws, EngineConfig::default());
        let ticks = |slots, gap| {
            let sched = timed(slots, gap);
            let (outcome, _) = run(&engine, &sched, &mut BreadthFirst::new(), &mut []);
            outcome.ticks
        };
        assert!(ticks(32, 10_000) > ticks(32, 0), "politeness lengthens");
        assert!(ticks(64, 0) < ticks(1, 0), "more slots shorten");
    }

    #[test]
    fn timed_crawls_follow_the_links_the_classifier_sees() {
        /// Judges every page irrelevant and finds no links on it.
        struct NoLinks;
        impl Classifier for NoLinks {
            fn relevance(&self, _: &WebSpace, _: PageId) -> f64 {
                0.0
            }
            fn visit<'a>(
                &self,
                _: &'a WebSpace,
                _: PageId,
                links: &'a mut Vec<PageId>,
            ) -> (f64, &'a [PageId]) {
                links.clear();
                (0.0, links)
            }
            fn name(&self) -> &'static str {
                "no-links"
            }
        }
        let ws = space();
        let engine = CrawlEngine::new(&ws, EngineConfig::default());
        let (bfs, scratch) = (&mut BreadthFirst::new(), &mut EngineScratch::new());
        let (outcome, _) = engine.run_scheduled(&timed(32, 1_000), bfs, &NoLinks, &mut [], scratch);
        assert_eq!(outcome.crawled, ws.seeds().len() as u64);
    }

    #[test]
    fn timed_runs_capture_no_snapshots() {
        let ws = space();
        let config = EngineConfig {
            snapshot_every: Some(50),
            ..EngineConfig::default()
        };
        let engine = CrawlEngine::new(&ws, config);
        let (sched, mut log) = (timed(4, 1_000), SnapshotLog::new());
        let soft = &mut SimpleStrategy::soft();
        let (outcome, _) = run(&engine, &sched, soft, &mut [&mut log]);
        assert!(outcome.ticks > 50, "the crawl outlasts the cadence");
        assert!(log.is_empty(), "{} snapshots captured", log.len());
    }
}
