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
//! completions process in `(finish tick, start seq)` order, cool-downs
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
//! Politeness is a *start-to-start* gap, BUbiNG-style: a host that
//! started a fetch at `t` may not start another before `t + gap(h)`,
//! and per-host concurrency is 1 (a busy host exposes nothing). Gaps
//! are drawn per host from the space's host table: the configured base
//! plus a deterministic per-host jitter seeded from the space's
//! generation seed under the `STREAM_POLITENESS` domain. A fetch carries
//! its host's next allowed start from its start to its completion,
//! which hands it to the frontier's cool-down heap.
//!
//! A snapshot holds only what a loop-top capture cannot derive: the
//! run's progress, the attempt table and the frontier. No fetch is in
//! flight there, so no host is busy and every politeness deadline
//! still pending sits in the frontier's cool-down heap (the
//! [`shard`](crate::shard) module says what decode recomputes).

use crate::classifier::Classifier;
use crate::engine::{
    emit, wants, CrawlEngine, EngineOutcome, EngineScratch, Fetch, Progress, RunState,
};
use crate::event::{interest, CrawlEvent, EventSink};
use crate::frontier::Frontier;
use crate::queue::{Entry, UrlQueue};
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

/// Scheduler parameters. The default (`1` slot, zero politeness) is
/// the conformance configuration: bit-identical to the legacy engine.
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
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            slots: 1,
            politeness_gap: 0,
            politeness_spread: 0,
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

/// A fetch occupying a slot: started at `finish - 1`, concluded at
/// `finish`. Completions process in `(finish, seq)` order — completion
/// time with start-order tie-breaking — so completion processing is a
/// pure function of the start schedule. Starts happen at the
/// monotonically advancing clock with an increasing start seq, so the
/// in-flight queue is *born sorted* in that order and a plain FIFO
/// holds it — no heap needed. The fetch's attempt number and outcome
/// are decided at start time (the fetch "happens" during its tick);
/// only the bookkeeping waits for the completion. So is `ready_at`,
/// the host's next allowed start under politeness (`0` without it),
/// which the completion hands to [`ShardedFrontier::release`].
#[derive(Debug, Clone, Copy)]
struct InFlight {
    finish: u64,
    fetch: Fetch,
    ready_at: u64,
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
struct LoopCtl {
    frontier: ShardedFrontier,
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
fn encode_snapshot_into(
    c: &mut SnapCtl,
    pg: &Progress,
    attempt_counts: &[u32],
    frontier: &ShardedFrontier,
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
    /// when politeness is disabled — every fetch then releases its host
    /// at once.
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
    /// is a [`ShardedFrontier`] built from the space's host table.
    ///
    /// With [`EngineConfig::snapshot_every`](crate::engine::EngineConfig::snapshot_every)
    /// set, sinks that want [`interest::SNAPSHOT`] receive a
    /// [`CrawlEvent::Snapshot`] every that many ticks, the first at tick
    /// `every`. Capture never changes the crawl. Pass the same `scratch`
    /// to back-to-back runs to reuse its buffers ([`EngineScratch`]).
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
        // Degenerate-point elision, like the fault layer's inert-model
        // fast path. With one slot and zero politeness the host
        // machinery cannot block, delay or reorder anything — the
        // single slot always drains before the next pop, so no host is
        // ever busy or cooling at pop time, and the frontier's order is
        // [`UrlQueue`] order (the shard-parity property test pins that
        // equivalence). Unless a sink asks for
        // [`SlotIdle`](CrawlEvent::SlotIdle) — the only scheduler-only
        // event that can fire here (it marks retry-backoff stalls;
        // handoffs and politeness waits are structurally impossible) —
        // or captures are on (they describe the event loop's state),
        // the schedule *is* the legacy loop, outcome, ticks, events and
        // all (pinned by `single_slot_schedule_matches_legacy_engine`),
        // so run it verbatim. Only this path returns no shard counters,
        // which `default_simulator_run_hands_off_to_the_legacy_loop` pins.
        if every.is_none() && Self::is_degenerate(sched) && wants & interest::SLOT_IDLE == 0 {
            let frontier = UrlQueue::new(ws.num_pages(), strategy.levels());
            let outcome = self.run_with_scratch(frontier, strategy, classifier, sinks, scratch);
            return (outcome, Vec::new());
        }
        let levels = strategy.levels().max(1);
        // Fresh runs capture first at `every` (tick 0 is the initial
        // state [`CrawlEngine::snapshot`] hands out).
        let snap = every.map(|every| {
            let head = self.snap_head(sched, levels as u32, run_fingerprint(strategy, classifier));
            SnapCtl::new(head, every, every)
        });
        let frontier = self.seeded_frontier(sched, levels);
        scratch.begin_run();
        self.sched_loop(
            sched,
            strategy,
            classifier,
            sinks,
            scratch,
            LoopCtl {
                frontier,
                resumed: None,
                snap,
            },
        )
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
        sched.effective_slots() == 1 && sched.politeness_gap == 0 && sched.politeness_spread == 0
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
            sched: *sched,
            tick: 0,
            crawled: 0,
        }
    }

    /// The tick-0 snapshot of a scheduled crawl that has not started:
    /// seeds parked in the frontier, all counters zero. Resuming it is
    /// exactly [`CrawlEngine::run_scheduled`] (the resume-parity suite
    /// pins that), which makes it the base case for snapshot chains and
    /// a convenient fixture for codec tests.
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

    /// The virtual-time event loop over a host-partitioned frontier.
    /// `ctl` carries the frontier (seeded, or decoded with the progress
    /// restored alongside it) and an optional capture plan; `scratch`
    /// holds the run's attempt table, if any.
    // lint:root(panic-free) — the steady-state event loop; every
    // simulated fetch passes through here.
    fn sched_loop<S, C>(
        &self,
        sched: &SchedConfig,
        strategy: &mut S,
        classifier: &C,
        sinks: &mut [&mut dyn EventSink],
        scratch: &mut EngineScratch,
        ctl: LoopCtl,
    ) -> (EngineOutcome, Vec<ShardStats>)
    where
        S: Strategy + ?Sized,
        C: Classifier + ?Sized,
    {
        let LoopCtl {
            mut frontier,
            resumed,
            mut snap,
        } = ctl;
        let gaps = self.politeness_gaps(sched);
        let slots = sched.effective_slots();
        let budget = self.config.max_pages.unwrap_or(u64::MAX);
        // Born sorted by (finish, start seq): see [`InFlight`]. Its
        // length is the number of busy slots.
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

            // 2. Fill free slots in global priority order. Popping marks
            // the host busy, so one host never occupies two slots.
            while (in_flight.len() as u32) < slots {
                let Some(entry) = frontier.pop_ready() else {
                    break;
                };
                // Start-to-start politeness: the host's next start is
                // due `gap` ticks after this one (no gaps, no wait).
                let ready_at = gaps
                    .get(frontier.host_of(entry.page) as usize)
                    .map_or(0, |&gap| now.saturating_add(gap));
                in_flight.push_back(InFlight {
                    finish: now + 1,
                    fetch: self.attempt(entry, &mut st.progress, &scratch.attempt_counts),
                    ready_at,
                });
            }

            // 3. Advance the clock to the next event. With busy slots
            // that is always the earliest completion: fetches take one
            // tick, so every in-flight fetch finishes at `now + 1`, and
            // cool-downs/retries (strictly in the future) cannot beat
            // it. With all slots empty the next event is the earliest
            // cool-down expiry or retry readiness; neither pending means
            // the crawl is over.
            let t_next = if let Some(f) = in_flight.front() {
                f.finish
            } else {
                match [frontier.next_cooling(), st.progress.next_retry()]
                    .into_iter()
                    .flatten()
                    .min()
                {
                    Some(t) => t,
                    None => break 'outer,
                }
            };
            // Idle slots while work is waiting (parked behind busy or
            // cooling hosts, or backing off in the retry heap) are the
            // politeness/parallelism stall signal the sweep measures.
            let busy = in_flight.len() as u32;
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

            // 4. Process completions due now, in (finish, start seq)
            // order. Each releases its host first — politeness runs
            // start-to-start, so the host may cool even as its fetch
            // concludes — then backs off or resolves exactly like the
            // legacy loop. Only a resolution admits links, so only it
            // can hand off across shards.
            while let Some(&f) = in_flight.front() {
                if f.finish > t_next {
                    break;
                }
                in_flight.pop_front();
                let p = f.fetch.entry.page;
                let host = frontier.host_of(p);
                let parked = frontier.release(host, f.ready_at, t_next);
                if parked && wants & interest::POLITENESS != 0 {
                    emit(
                        st.sinks,
                        CrawlEvent::PolitenessWait {
                            host,
                            until: f.ready_at,
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
    use crate::snapshot::frame;
    use crate::strategy::{BreadthFirst, SimpleStrategy};
    use langcrawl_webgraph::{FaultConfig, GeneratorConfig, WebSpace};

    fn space() -> WebSpace {
        GeneratorConfig::thai_like().scaled(4_000).build(9)
    }

    #[test]
    fn single_slot_schedule_matches_legacy_engine() {
        let ws = space();
        let engine = CrawlEngine::new(&ws, EngineConfig::default());
        let legacy = {
            let mut visits = VisitRecorder::new();
            let o = engine.run(
                UrlQueue::new(ws.num_pages(), 1),
                &mut BreadthFirst::new(),
                &OracleClassifier::target(ws.target_language()),
                &mut [&mut visits],
            );
            (o, visits.into_visited())
        };
        // Default config (full legacy-loop elision) and the same with a
        // `SlotIdle`-interested sink attached (the virtual-time loop
        // over the one-shard frontier) must both reproduce the legacy
        // run exactly.
        for stats in [false, true] {
            let scheduled = {
                let mut visits = VisitRecorder::new();
                let mut sched_stats = SchedStatsSink::new();
                let mut sinks: Vec<&mut dyn EventSink> = vec![&mut visits];
                if stats {
                    sinks.push(&mut sched_stats);
                }
                let o = engine.run_scheduled(
                    &SchedConfig::default(),
                    &mut BreadthFirst::new(),
                    &OracleClassifier::target(ws.target_language()),
                    &mut sinks,
                    &mut EngineScratch::new(),
                );
                (o.0, visits.into_visited())
            };
            assert_eq!(legacy.0, scheduled.0, "stats={stats}");
            assert_eq!(legacy.1, scheduled.1, "stats={stats}");
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
        let (outcome, shards) = engine.run_scheduled(
            &SimConfig::default().sched,
            &mut SimpleStrategy::soft(),
            &OracleClassifier::target(ws.target_language()),
            &mut [&mut metrics, &mut visits],
            &mut EngineScratch::new(),
        );
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
        let engine = CrawlEngine::new(
            &ws,
            EngineConfig {
                fault: FaultConfig::with_rate(0.2),
                ..EngineConfig::default()
            },
        );
        let run = |event_loop: bool| {
            let mut narration = Narration(Vec::new());
            let mut stats = SchedStatsSink::new();
            let mut sinks: Vec<&mut dyn EventSink> = vec![&mut narration];
            if event_loop {
                sinks.push(&mut stats);
            }
            let (outcome, shards) = engine.run_scheduled(
                &SchedConfig::default(),
                &mut SimpleStrategy::soft(),
                &OracleClassifier::target(ws.target_language()),
                &mut sinks,
                &mut EngineScratch::new(),
            );
            assert_eq!(shards.is_empty(), !event_loop, "the other loop ran");
            (outcome, narration.0)
        };
        let (single_slot, single_slot_events) = run(false);
        let (event_loop, event_loop_events) = run(true);
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
        let run = |k: u32| {
            engine
                .run_scheduled(
                    &SchedConfig::with_slots(k),
                    &mut SimpleStrategy::soft(),
                    &OracleClassifier::target(ws.target_language()),
                    &mut [],
                    &mut EngineScratch::new(),
                )
                .0
        };
        let k1 = run(1);
        let k8 = run(8);
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
        let run = |gap: u64| {
            let mut stats = SchedStatsSink::new();
            let (o, _) = engine.run_scheduled(
                &SchedConfig {
                    slots: 4,
                    politeness_gap: gap,
                    ..SchedConfig::default()
                },
                &mut SimpleStrategy::soft(),
                &OracleClassifier::target(ws.target_language()),
                &mut [&mut stats],
                &mut EngineScratch::new(),
            );
            (o, stats)
        };
        let (free, _) = run(0);
        let (polite, stats) = run(6);
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
        };
        let gaps = engine.politeness_gaps(&sched);
        assert_eq!(gaps, engine.politeness_gaps(&sched));
        assert!(gaps.iter().all(|&g| (2..=5).contains(&g)));
        assert!(
            gaps.iter().any(|&g| g != gaps[0]),
            "jitter must actually vary across hosts"
        );
        let run = || {
            let mut visits = VisitRecorder::new();
            let (o, _) = engine.run_scheduled(
                &sched,
                &mut SimpleStrategy::soft(),
                &OracleClassifier::target(ws.target_language()),
                &mut [&mut visits],
                &mut EngineScratch::new(),
            );
            (o, visits.into_visited())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn budget_stops_scheduled_runs() {
        let ws = space();
        let engine = CrawlEngine::new(
            &ws,
            EngineConfig {
                max_pages: Some(100),
                ..EngineConfig::default()
            },
        );
        let (outcome, _) = engine.run_scheduled(
            &SchedConfig::with_slots(16),
            &mut BreadthFirst::new(),
            &OracleClassifier::target(ws.target_language()),
            &mut [],
            &mut EngineScratch::new(),
        );
        assert_eq!(outcome.crawled, 100);
    }

    #[test]
    fn faulted_scheduled_runs_retry_and_terminate() {
        let ws = space();
        let engine = CrawlEngine::new(
            &ws,
            EngineConfig {
                fault: FaultConfig::with_rate(0.2),
                ..EngineConfig::default()
            },
        );
        let (outcome, _) = engine.run_scheduled(
            &SchedConfig {
                slots: 4,
                politeness_gap: 1,
                ..SchedConfig::default()
            },
            &mut BreadthFirst::new(),
            &OracleClassifier::target(ws.target_language()),
            &mut [],
            &mut EngineScratch::new(),
        );
        assert!(outcome.crawled > 0);
        assert!(outcome.retries > 0);
        assert!(outcome.gave_up > 0);
        assert_eq!(outcome.attempts, outcome.crawled + outcome.retries);
    }
}
