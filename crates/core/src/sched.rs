//! The virtual-time scheduler: the one crawl loop, `K` fetch slots over
//! a frontier in virtual time.
//!
//! Every crawl runs this event loop. Its state is a set of `K` *fetch
//! slots* draining a frontier: a slot starts the globally best entry
//! whose host is free, the fetch occupies one virtual tick (or its timed
//! length), and it takes the engine's one fetch step — its attempt
//! decided when it starts, concluded (backed off or resolved) when it
//! completes, over the run's progress (see [`crate::engine`]). Between
//! starts and completions the clock jumps straight to the next event —
//! a completion, a politeness cool-down expiring, or a retry coming due.
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
//! **The schedule picks the frontier, never the loop.** One untimed
//! slot without politeness drains a [`UrlQueue`], captured or not, fresh
//! or resumed: a fetch started at `t` completes at `t + 1` and frees its
//! host by the next pop, so no host is ever busy. Every other untimed
//! schedule drains a [`ShardedFrontier`], whose hosts hash into `K`
//! shards (stats labels only, so the shard count never changes a pop),
//! and a timed one a read-ahead frontier; [`CrawlEngine::run_scheduled`]
//! and [`CrawlEngine::resume`] ask one predicate. [`CrawlEngine::run`]
//! drains the caller's frontier at one slot, where a `ShardedFrontier`
//! starts the entries of the `UrlQueue` it wraps in its order (a unit
//! test pins that both narrate a faulted crawl alike); both write one
//! snapshot section, so a capture only observes.
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
//! flight there, and every politeness deadline still pending is a
//! cooling host's free time in the frontier (the [`shard`](crate::shard)
//! module says what decode recomputes).

use crate::classifier::Classifier;
use crate::engine::{
    emit, wants, CrawlEngine, EngineOutcome, EngineScratch, Fetch, Progress, RunState,
};
use crate::event::{interest, CrawlEvent, EventSink};
use crate::frontier::Frontier;
use crate::queue::{Entry, UrlQueue};
use crate::readahead::{ReadAhead, READ_AHEAD};
use crate::shard::{ShardStats, ShardedFrontier};
use crate::snapshot::{
    frame_begin, frame_end, run_fingerprint, CrawlSnapshot, Dec, Enc, SnapHead, SnapshotError,
};
use crate::strategy::Strategy;
use langcrawl_rng::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// RNG stream domain for per-host politeness jitter (domains 1–5 are
/// taken by the generator and fault layers; see the D3 lint registry).
const STREAM_POLITENESS: u64 = 6 << 40;

/// Scheduler parameters. The default (`1` slot, no politeness or
/// timing) is the paper's single-slot crawl, which the conformance
/// goldens pin.
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
    // lint:allow(test-only-pub): README's checkpoint example builds its schedule with it
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

    /// Whether the schedule drains a bare [`UrlQueue`]: one untimed slot
    /// without politeness, which never finds a host busy.
    fn drains_a_queue(&self) -> bool {
        let polite = self.politeness_gap != 0 || self.politeness_spread != 0;
        self.timing.is_none() && self.effective_slots() == 1 && !polite
    }
}

/// The timing model of a timed crawl ([`SchedConfig::timing`]; the
/// README shows one). One tick is 1 ms; the defaults are an 80 ms round
/// trip and about 10 Mbit/s per slot.
///
/// Retry back-off ([`crate::retry::RetryPolicy`]) counts round trips
/// here: a failed fetch waits [`RetryPolicy::delay`] times
/// [`Timing::rtt`] ticks after it finished, 160, 320 and 640 ms for the
/// default policy's three retries.
///
/// [`RetryPolicy::delay`]: crate::retry::RetryPolicy::delay
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// Per-request round-trip latency, ticks.
    pub rtt: u64,
    /// Download bandwidth of one slot, bytes per tick (`0` counts as 1).
    pub bytes_per_tick: u64,
}

impl Default for Timing {
    fn default() -> Self {
        Timing {
            rtt: 80,
            bytes_per_tick: 1_250, // ≈10 Mbit/s per slot
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

/// A fetch occupying a slot until `finish`. The in-flight list keeps
/// these sorted by descending `(finish, start order)`, so the next
/// completion is the last element; a start goes in front of every fetch
/// that finishes no later. Attempt number and outcome are decided at the
/// start; so are `free_at`, the host's next allowed start, and the host.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    finish: u64,
    free_at: u64,
    fetch: Fetch,
    host: u32,
}

/// The earlier of two optional ticks.
#[inline]
fn earliest(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, None) => a,
        (None, b) => b,
    }
}

/// Live capture state inside the event loop: the cadence, the next
/// capture tick, the identity-header template (tick/crawled are filled
/// per capture), the encoder of the frontier's state, and the buffers
/// every capture reuses — the framed bytes, and the one that sorts the
/// retry heap into canonical order — so steady-cadence capture settles
/// into zero allocations per snapshot.
struct SnapCtl<F> {
    every: u64,
    next_at: u64,
    head: SnapHead,
    frontier_state: fn(&mut F, &mut Enc),
    buf: Enc,
    retries: Vec<(u64, u64, Entry)>,
}

impl<F> SnapCtl<F> {
    /// Captures every `every` ticks from `next_at` under `head`, the
    /// frontier's state written by `frontier_state`.
    fn new(head: SnapHead, every: u64, next_at: u64, frontier_state: fn(&mut F, &mut Enc)) -> Self {
        SnapCtl {
            every,
            next_at,
            head,
            frontier_state,
            buf: Enc::default(),
            retries: Vec::new(),
        }
    }

    /// Capture at the clock into the reused buffer, hand the frame to
    /// `sinks` and set the next capture.
    fn capture(
        &mut self,
        pg: &Progress,
        attempt_counts: &[u32],
        frontier: &mut F,
        sinks: &mut [&mut dyn EventSink],
    ) {
        self.head.tick = pg.now;
        self.head.crawled = pg.crawled;
        self.buf.buf.clear();
        let payload_at = frame_begin(&mut self.buf);
        encode_snapshot_into(self, pg, attempt_counts, frontier);
        frame_end(&mut self.buf, payload_at);
        emit(
            sinks,
            CrawlEvent::Snapshot {
                tick: pg.now,
                bytes: &self.buf.buf,
            },
        );
        self.next_at = pg.now.saturating_add(self.every);
    }
}

/// Everything [`CrawlEngine::sched_loop`] needs beyond the run
/// arguments: the frontier to drain (seeded for a fresh run), the
/// progress to resume from (`None` = fresh run), and the capture state
/// (`None` = no capture).
struct LoopCtl<F> {
    frontier: F,
    resumed: Option<Progress>,
    snap: Option<SnapCtl<F>>,
}

/// Encode one snapshot payload into `c.buf`: header, progress, attempt
/// table, frontier state. Slot occupancy is not part of it: the loop
/// completes every fetch due at the clock before it captures (all
/// fetches started at tick `t` finish together at `t + 1`), so no fetch
/// is in flight at any capture point. Canonical throughout (the retry
/// heap is emitted sorted), so encoding the state a snapshot decodes to
/// reproduces its bytes — the fixed-point property the codec proptests
/// pin.
// lint:root(panic-free, alloc-free) — capture runs mid-crawl into
// preallocated buffers, so it must neither unwind nor allocate.
fn encode_snapshot_into<F>(
    c: &mut SnapCtl<F>,
    pg: &Progress,
    attempt_counts: &[u32],
    frontier: &mut F,
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
    (c.frontier_state)(frontier, enc);
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

    /// Run one crawl: seed the `frontier`, loop pop → download →
    /// classify → admit at one fetch slot, narrate every step to
    /// `sinks`, and return the outcome. The engine is reusable — each
    /// run takes a fresh frontier.
    ///
    /// The per-page event order is fixed: [`CrawlEvent::FetchAttempt`]
    /// (one per attempt; a transiently failed attempt emits only this
    /// before the page re-enters the frontier), [`CrawlEvent::Fetched`],
    /// [`CrawlEvent::Classified`], then [`CrawlEvent::Filtered`] (only
    /// when the URL filter dropped links) and [`CrawlEvent::Admitted`],
    /// then [`CrawlEvent::Sampled`] on sampling fetches. One
    /// [`CrawlEvent::Finished`] closes the run. Variants no attached
    /// sink declares in [`EventSink::interests`] are skipped entirely.
    pub fn run<F, S, C>(
        &self,
        frontier: F,
        strategy: &mut S,
        classifier: &C,
        sinks: &mut [&mut dyn EventSink],
    ) -> EngineOutcome
    where
        F: Frontier,
        S: Strategy + ?Sized,
        C: Classifier + ?Sized,
    {
        let (sched, scratch) = (SchedConfig::default(), &mut EngineScratch::new());
        let ctl = self.fresh(frontier, None);
        self.sched_loop(&sched, strategy, classifier, sinks, scratch, ctl)
            .0
    }

    /// Run one crawl under the virtual-time scheduler and return its
    /// outcome with the frontier's per-shard load counters (the raw
    /// material for the parallelism sweep's imbalance and handoff
    /// figures). Same contract as [`CrawlEngine::run`] — same seeding,
    /// same per-page event sequence, same outcome — except that up to
    /// [`SchedConfig::slots`] fetches overlap in virtual time and
    /// per-host politeness gaps stall hosts between starts. The schedule
    /// picks the frontier (see the module docs); only a
    /// [`ShardedFrontier`] returns shard counters.
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
        let levels = strategy.levels().max(1);
        scratch.begin_run();
        if sched.timing.is_some() {
            let ctl = self.fresh(ReadAhead::for_space(ws, levels, READ_AHEAD), None);
            return self.sched_loop(sched, strategy, classifier, sinks, scratch, ctl);
        }
        // Fresh runs capture first at `every` (tick 0 is the initial
        // state [`CrawlEngine::snapshot`] hands out).
        let every = self.capture_every(wants(sinks));
        let head = || self.snap_head(sched, levels as u32, run_fingerprint(strategy, classifier));
        if sched.drains_a_queue() {
            let snap = every.map(|t| SnapCtl::new(head(), t, t, UrlQueue::encode_state));
            let ctl = self.fresh(UrlQueue::new(ws.num_pages(), levels), snap);
            return self.sched_loop(sched, strategy, classifier, sinks, scratch, ctl);
        }
        let snap = every.map(|t| SnapCtl::new(head(), t, t, ShardedFrontier::encode_state));
        let frontier = ShardedFrontier::for_space(ws, levels, sched.effective_slots() as usize);
        let ctl = self.fresh(frontier, snap);
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

    /// A fresh run over `frontier`: the space's seeds parked in it at
    /// priority 0, nothing to resume, captured by `snap`.
    fn fresh<F: Frontier>(&self, mut frontier: F, snap: Option<SnapCtl<F>>) -> LoopCtl<F> {
        self.seed(&mut frontier);
        LoopCtl {
            frontier,
            resumed: None,
            snap,
        }
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
    /// Nothing is parked or cooling yet, so a [`ShardedFrontier`] writes
    /// it for every schedule: at one slot, what a [`UrlQueue`] writes.
    // lint:allow(test-only-pub): tests/resume_parity.rs captures mid-run state with it
    pub fn snapshot<S, C>(&self, sched: &SchedConfig, strategy: &S, classifier: &C) -> CrawlSnapshot
    where
        S: Strategy + ?Sized,
        C: Classifier + ?Sized,
    {
        let levels = strategy.levels().max(1);
        let head = self.snap_head(sched, levels as u32, run_fingerprint(strategy, classifier));
        let mut c = SnapCtl::new(head, 0, 0, ShardedFrontier::encode_state);
        let progress = Progress::new(self.sample_interval());
        let slots = sched.effective_slots() as usize;
        let mut frontier = ShardedFrontier::for_space(self.web_space(), levels, slots);
        self.seed(&mut frontier);
        encode_snapshot_into(&mut c, &progress, &[], &mut frontier);
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
    // lint:allow(test-only-pub): README's checkpoint examples and tests/resume_parity.rs resume with it
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
        let (head, sched) = (snap.head, snap.head.sched);
        let mut dec = snap.state_dec();
        let mut scratch = EngineScratch::new();
        let counts = &mut scratch.attempt_counts;
        let resumed = Some(decode_run_state(&mut dec, &head, ws.num_pages(), counts)?);
        // Refused before the frontier and the in-flight list are sized by
        // the slot count.
        let slots = sched.effective_slots() as usize;
        ShardedFrontier::check_slots(&dec, slots)?;
        let frontier =
            ShardedFrontier::for_space(ws, levels, slots).decode_state(&mut dec, head.tick)?;
        if !dec.is_empty() {
            return Err(SnapshotError::Malformed("trailing state bytes"));
        }
        // The first capture is at the resume tick.
        let every = self.capture_every(wants(sinks));
        if sched.drains_a_queue() {
            let snap = every.map(|t| SnapCtl::new(head, t, head.tick, UrlQueue::encode_state));
            let ctl = LoopCtl {
                frontier: frontier.into_queue()?,
                resumed,
                snap,
            };
            return Ok(self.sched_loop(&sched, strategy, classifier, sinks, &mut scratch, ctl));
        }
        let snap = every.map(|t| SnapCtl::new(head, t, head.tick, ShardedFrontier::encode_state));
        let ctl = LoopCtl {
            frontier,
            resumed,
            snap,
        };
        Ok(self.sched_loop(&sched, strategy, classifier, sinks, &mut scratch, ctl))
    }

    /// The virtual-time event loop over a frontier. `ctl` carries the
    /// frontier (seeded, or decoded with the progress restored alongside
    /// it) and an optional capture plan; `scratch` holds the run's
    /// attempt table, if any.
    // lint:root(panic-free) — the one crawl loop; every simulated fetch
    // passes through here.
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
        F: Frontier,
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
        let slots = sched.effective_slots() as usize;
        let budget = self.config.max_pages.unwrap_or(u64::MAX);
        // Sorted by descending (finish, start order): see [`InFlight`].
        // Its length is the number of busy slots.
        let mut in_flight: Vec<InFlight> = Vec::with_capacity(slots);
        // A timed crawl backs off in round trips, an untimed one in ticks.
        let backoff_unit = sched.timing.map_or(1, |t| t.rtt);
        let mut st = RunState::new(sinks, self.sample_interval(), backoff_unit, resumed);
        let wants = st.wants;

        'outer: loop {
            // Completions due at the clock go first, in (finish, start
            // order); only when none is left does the loop capture, start
            // fetches and move the clock.
            let f = match in_flight.pop_if(|f| f.finish <= st.progress.now) {
                Some(f) => f,
                None => 'next: {
                    // 0. Capture at the loop-top tick boundary — before
                    // any state moves this iteration, so a resumed run's
                    // first re-capture reproduces the snapshot it resumed
                    // from byte-for-byte. Capture only observes; the crawl
                    // is unchanged with or without it (resume-parity
                    // suite).
                    if let Some(c) = snap.as_mut() {
                        if st.progress.now >= c.next_at {
                            let counts = &scratch.attempt_counts;
                            c.capture(&st.progress, counts, &mut frontier, st.sinks);
                        }
                    }
                    // 1. Due retries re-enter the frontier before slots
                    // fill, so its own policy orders them against fresh
                    // discoveries.
                    st.progress.requeue_due(&mut frontier);
                    let now = st.progress.now;

                    // 2. Fill free slots in the frontier's order. A start
                    // tells the frontier when its host is free again, so
                    // one host never occupies two slots.
                    while in_flight.len() < slots {
                        let Some(entry) = frontier.pop_ready() else {
                            break;
                        };
                        let meta = ws.meta(entry.page);
                        let span = sched.timing.map_or(1, |t| t.fetch_ticks(meta.size));
                        let finish = now.saturating_add(span);
                        // Start-to-start politeness: the host's next start
                        // is due `gap` ticks after this one, and not before
                        // this fetch finishes.
                        let gap = gaps.get(meta.host as usize).copied().unwrap_or(0);
                        let free_at = finish.max(now.saturating_add(gap));
                        frontier.started(meta.host, free_at);
                        let started = InFlight {
                            finish,
                            free_at,
                            fetch: self.attempt(entry, &mut st.progress, &scratch.attempt_counts),
                            host: meta.host,
                        };
                        // A start that takes the last free slot and
                        // finishes before every fetch in flight is the next
                        // event, so it completes without joining the
                        // in-flight list (at one untimed slot, every start).
                        if in_flight.len() + 1 == slots
                            && in_flight.last().is_none_or(|f| finish < f.finish)
                        {
                            st.progress.now = finish;
                            frontier.advance_to(finish);
                            break 'next started;
                        }
                        let at = in_flight.partition_point(|f| f.finish > finish);
                        in_flight.insert(at, started);
                    }

                    // 3. Advance the clock to the earliest completion or —
                    // only while a slot is free (a timed frontier keeps
                    // past-due hosts until one frees) — an earlier
                    // cool-down expiry or retry. Nothing pending at all
                    // means the crawl is over.
                    let busy = in_flight.len();
                    let mut t_next = in_flight.last().map(|f| f.finish);
                    if busy < slots {
                        let waiting = earliest(frontier.next_cooling(), st.progress.next_retry());
                        t_next = earliest(t_next, waiting);
                    }
                    let Some(t_next) = t_next else {
                        break 'outer;
                    };
                    // Idle slots while work is waiting (parked behind busy
                    // or cooling hosts, or backing off in the retry heap)
                    // are the politeness/parallelism stall signal the
                    // sweep measures.
                    if wants & interest::SLOT_IDLE != 0
                        && busy < slots
                        && (frontier.pending() > 0 || st.progress.next_retry().is_some())
                    {
                        emit(
                            st.sinks,
                            CrawlEvent::SlotIdle {
                                tick: now,
                                idle: (slots - busy) as u32,
                                span: t_next - now,
                            },
                        );
                    }
                    st.progress.now = t_next;
                    frontier.advance_to(t_next);
                    continue 'outer;
                }
            };

            // 4. Complete the fetch: report whether its host still owes a
            // politeness gap with work queued, then back off or resolve.
            // Only a resolution admits links, so only it can hand off
            // across shards.
            if wants & interest::POLITENESS != 0
                && frontier.politeness_wait(f.host, f.free_at, st.progress.now)
            {
                emit(
                    st.sinks,
                    CrawlEvent::PolitenessWait {
                        host: f.host,
                        until: f.free_at,
                    },
                );
            }
            let handoffs_before = if wants & interest::HANDOFF != 0 {
                frontier.handoffs()
            } else {
                0
            };
            frontier.set_origin(Some(f.host));
            let resolved = self.conclude(
                &mut st,
                &mut frontier,
                strategy,
                classifier,
                scratch,
                f.fetch,
            );
            frontier.set_origin(None);
            if wants & interest::HANDOFF != 0 {
                let crossed = frontier.handoffs() - handoffs_before;
                if crossed > 0 {
                    emit(
                        st.sinks,
                        CrawlEvent::ShardHandoff {
                            page: f.fetch.entry.page,
                            crossed: crossed as u32,
                        },
                    );
                }
            }
            if resolved && st.progress.crawled >= budget {
                break;
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
    use crate::event::{SchedStatsSink, VisitRecorder};
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

    /// At one slot the loop crawls alike over a `UrlQueue` and over a
    /// `ShardedFrontier` under faults: every event, in one order, with
    /// one outcome. The schedule's crawl is that crawl, and a capture
    /// cadence that a sink wants changes neither its narration nor its
    /// shard counters, which are empty either way.
    #[test]
    fn one_slot_crawls_alike_over_either_frontier() {
        /// Every event but a capture, rendered in order.
        struct Narration(Vec<String>);
        impl EventSink for Narration {
            fn on_event(&mut self, event: &CrawlEvent) {
                if !matches!(event, CrawlEvent::Snapshot { .. }) {
                    self.0.push(format!("{event:?}"));
                }
            }
            fn interests(&self) -> u16 {
                interest::ALL & !interest::SNAPSHOT
            }
        }
        /// The crawl over `frontier`, narrated.
        fn over<F: Frontier>(engine: &CrawlEngine, frontier: F) -> (EngineOutcome, Vec<String>) {
            let oracle = OracleClassifier::target(engine.web_space().target_language());
            let mut narration = Narration(Vec::new());
            let soft = &mut SimpleStrategy::soft();
            let outcome = engine.run(frontier, soft, &oracle, &mut [&mut narration]);
            (outcome, narration.0)
        }
        let ws = space();
        let config = EngineConfig {
            fault: FaultConfig::with_rate(0.2),
            snapshot_every: Some(500),
            ..EngineConfig::default()
        };
        let engine = CrawlEngine::new(&ws, config);
        let levels = SimpleStrategy::soft().levels();
        let queue = over(&engine, UrlQueue::new(ws.num_pages(), levels));
        assert!(queue.0.retries > 0, "the faults must retry");
        assert_eq!(
            over(&engine, ShardedFrontier::for_space(&ws, levels, 1)),
            queue
        );
        for capture in [false, true] {
            let mut narration = Narration(Vec::new());
            let mut log = SnapshotLog::new();
            let (outcome, shards) = {
                let mut sinks: Vec<&mut dyn EventSink> = vec![&mut narration];
                if capture {
                    sinks.push(&mut log);
                }
                let soft = &mut SimpleStrategy::soft();
                run(&engine, &SchedConfig::default(), soft, &mut sinks)
            };
            assert_eq!(log.is_empty(), !capture, "capture={capture}");
            assert_eq!((outcome, narration.0), queue, "capture={capture}");
            assert!(shards.is_empty(), "capture={capture}");
        }
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

    /// In a timed crawl without politeness, nothing but the back-off
    /// holds a failed page back: every retry starts no earlier than its
    /// back-off, in round trips, after its failed attempt finished.
    #[test]
    fn timed_retries_back_off_in_round_trips() {
        /// Every attempt as `(page, attempt, finish tick)`, in order.
        struct Attempts(Vec<(PageId, u32, u64)>);
        impl EventSink for Attempts {
            fn on_event(&mut self, event: &CrawlEvent) {
                if let CrawlEvent::FetchAttempt {
                    page,
                    attempt,
                    tick,
                    ..
                } = *event
                {
                    self.0.push((page, attempt, tick));
                }
            }
            fn interests(&self) -> u16 {
                interest::ATTEMPT
            }
        }
        let ws = space();
        let engine = faulted(&ws);
        let (timing, retry) = (Timing::default(), engine.config.retry);
        let mut attempts = Attempts(Vec::new());
        let bfs = &mut BreadthFirst::new();
        let (outcome, _) = run(&engine, &timed(32, 0), bfs, &mut [&mut attempts]);
        // The earliest start of each page's next attempt.
        let mut due = vec![0u64; ws.num_pages()];
        let mut retried = 0;
        for (page, attempt, finish) in attempts.0 {
            let start = finish - timing.fetch_ticks(ws.meta(page).size);
            if attempt > 1 {
                let p = page as usize;
                assert!(
                    start >= due[p],
                    "page {page} attempt {attempt}: {start} < {}",
                    due[p]
                );
                retried += 1;
            }
            due[page as usize] = finish + retry.delay(attempt) * timing.rtt;
        }
        assert!(retried > 0 && retried == outcome.retries);
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
