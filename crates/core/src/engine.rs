//! The crawl engine — the loop of Fig. 2, decomposed along its seams.
//!
//! The engine owns exactly one thing: the *order of operations* of a
//! crawl step. Everything with a policy lives behind a seam:
//!
//! * **what to crawl next** — a [`Frontier`] passed per run;
//! * **what a page means** — the [`Classifier`];
//! * **what to enqueue** — the [`Strategy`] (the paper's observer);
//! * **who watches** — any number of [`EventSink`]s receiving the typed
//!   event stream ([`CrawlEvent`]).
//!
//! A crawl starts or resumes through one of four calls, and every one
//! runs the one event loop of [`crate::sched`]: [`CrawlEngine::run`]
//! drives it at one slot over a caller-supplied frontier;
//! [`CrawlEngine::run_scheduled`] under a [`crate::sched::SchedConfig`];
//! [`CrawlEngine::snapshot`] hands out the tick-0 state of a scheduled
//! crawl; and [`CrawlEngine::resume`] continues one from a snapshot.
//! Checkpoints are events like any other ([`CrawlEvent::Snapshot`]),
//! emitted when [`EngineConfig::snapshot_every`] is set.
//!
//! The loop orders fetches in time and takes one fetch step for each.
//! `attempt` decides a fetch's attempt number and outcome when it
//! starts; `conclude` either backs a transient failure off onto the
//! retry heap or hands the page to `resolve`, which narrates, classifies
//! and admits its outlinks. All three advance one `Progress`: the clock,
//! the counters, the sample countdown and the retry heap, which is also
//! what a snapshot carries.
//!
//! [`crate::sim::Simulator`] is the convenience wrapper that wires the
//! default schedule and sinks back together and returns a
//! [`crate::metrics::CrawlReport`].

use crate::classifier::Classifier;
use crate::event::{interest, CrawlEvent, EventSink};
use crate::frontier::Frontier;
use crate::queue::Entry;
use crate::retry::RetryPolicy;
use crate::strategy::{PageView, Strategy};
use langcrawl_webgraph::{FaultConfig, FaultModel, FetchOutcome, PageId, PageKind, WebSpace};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Engine parameters — the subset of [`crate::sim::SimConfig`] the loop
/// itself needs (visit recording is a sink concern, not an engine one).
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Stop after this many fetches (`None` = run the frontier dry).
    pub max_pages: Option<u64>,
    /// Emit [`CrawlEvent::Sampled`] every this many fetches (`None` =
    /// pick ~512 points across the space automatically).
    pub sample_interval: Option<u64>,
    /// Drop obviously non-HTML URLs (the extension filter) before they
    /// reach the frontier.
    pub url_filter: bool,
    /// Fault model layered over the space. All-zero (the default)
    /// bypasses the fault/retry machinery entirely: the loop then
    /// behaves bit-identically to the pre-fault engine (pinned by the
    /// `fault_conformance` suite).
    pub fault: FaultConfig,
    /// When and how often transiently failed fetches are retried.
    /// Irrelevant while `fault` is all-zero (nothing ever fails
    /// transiently then).
    pub retry: RetryPolicy,
    /// Emit a [`CrawlEvent::Snapshot`] every this many virtual ticks
    /// (`None` = never) from [`CrawlEngine::run_scheduled`] and
    /// [`CrawlEngine::resume`], provided some attached sink wants
    /// [`interest::SNAPSHOT`]. [`CrawlEngine::run`] over a
    /// caller-supplied frontier never captures. The knob does not
    /// alter the crawl itself — capture is observation-only, pinned by
    /// the resume-parity suite.
    pub snapshot_every: Option<u64>,
}

impl EngineConfig {
    /// Fingerprint of every config field that shapes the crawl —
    /// folded into snapshots and re-checked on resume, so a snapshot
    /// cannot silently continue under a different budget, fault model
    /// or retry policy. `snapshot_every` is excluded: capture cadence
    /// is observation, not behavior, and resuming with a different
    /// cadence is legitimate.
    pub(crate) fn snapshot_fingerprint(&self) -> u64 {
        let mut enc = crate::snapshot::Enc::default();
        match self.max_pages {
            Some(v) => {
                enc.u8(1);
                enc.u64(v);
            }
            None => enc.u8(0),
        }
        match self.sample_interval {
            Some(v) => {
                enc.u8(1);
                enc.u64(v);
            }
            None => enc.u8(0),
        }
        enc.bool(self.url_filter);
        enc.u64(self.fault.fingerprint());
        enc.u32(self.retry.max_attempts);
        enc.u64(self.retry.backoff_base);
        enc.u64(self.retry.backoff_cap);
        crate::snapshot::fnv1a(&enc.buf)
    }
}

/// What the engine can report without any sink attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOutcome {
    /// Total pages crawled to a final resolution: delivered, permanently
    /// failed, or abandoned after exhausting retries. Equals the number
    /// of distinct pages popped at least once.
    pub crawled: u64,
    /// Ground-truth relevant pages actually *delivered* (fetch succeeded)
    /// — harvest net of failures.
    pub relevant_crawled: u64,
    /// High-water mark of the frontier's distinct pending count.
    pub max_pending: usize,
    /// Total frontier pushes accepted.
    pub total_pushes: u64,
    /// Total fetch attempts performed (equals `crawled` when no fault
    /// fired).
    pub attempts: u64,
    /// Attempts beyond a page's first — the retry traffic.
    pub retries: u64,
    /// Pages abandoned after exhausting their retry budget.
    pub gave_up: u64,
    /// Virtual ticks the crawl spanned — the makespan of the schedule:
    /// the time of the last processed event. At one untimed slot that
    /// is one tick per attempt plus backoff fast-forwards;
    /// [`crate::sched::SchedConfig::slots`] `K` shrink it toward
    /// `attempts / K` plus politeness stalls.
    pub ticks: u64,
}

/// Reusable per-run scratch: every buffer the crawl loop writes per
/// fetch, hoisted out of the loop so a steady-state fetch allocates
/// nothing. Callers that run many crawls back-to-back (experiment
/// sweeps, benchmarks) pass the same scratch to
/// [`CrawlEngine::run_scheduled`] each time; buffers are length-reset
/// per run but keep their capacity, so repeated runs stop paying the
/// grow-from-empty cycle entirely.
#[derive(Debug, Default)]
pub struct EngineScratch {
    /// Admission buffer the strategy refills once per fetch; grows to
    /// the largest out-degree seen, then stabilizes.
    pub(crate) admissions: Vec<Entry>,
    /// Link buffer handed to [`Classifier::visit`]; classifiers that
    /// extract links from page bytes refill it once per delivered page.
    links: Vec<PageId>,
    /// Per-page attempt counts, materialized lazily at the first
    /// back-off of a run: while it is empty every fetch is attempt #1,
    /// so a faulted-but-lucky run pays one emptiness check per fetch
    /// instead of a table read-modify-write. Cleared but never shrunk
    /// between runs.
    pub(crate) attempt_counts: Vec<u32>,
    /// Times materializing the attempt table had to grow the buffer —
    /// the regression counter for "a second run on the same space
    /// performs zero attempt-table allocations".
    attempt_table_allocs: u64,
}

impl EngineScratch {
    /// A fresh scratch with a warm admission buffer.
    pub fn new() -> Self {
        EngineScratch {
            admissions: Vec::with_capacity(64),
            links: Vec::new(),
            attempt_counts: Vec::new(),
            attempt_table_allocs: 0,
        }
    }

    /// How many times materializing the attempt table allocated. Stays
    /// flat across repeated runs over spaces of the same (or smaller)
    /// size — the zero-allocation steady-state contract.
    pub fn attempt_table_allocs(&self) -> u64 {
        self.attempt_table_allocs
    }

    /// Reset lengths for a new run; capacity is retained.
    pub(crate) fn begin_run(&mut self) {
        self.admissions.clear();
        self.attempt_counts.clear();
    }

    /// Materialize the attempt table as `num_pages` zeros, reusing the
    /// existing capacity when it suffices.
    pub(crate) fn materialize_attempts(&mut self, num_pages: usize) {
        if self.attempt_counts.capacity() < num_pages {
            self.attempt_table_allocs += 1;
        }
        self.attempt_counts.resize(num_pages, 0);
    }
}

/// The layered crawl engine.
#[derive(Debug)]
pub struct CrawlEngine<'a> {
    ws: &'a WebSpace,
    pub(crate) config: EngineConfig,
    /// Realized once per engine (O(hosts)). `None` when the config is
    /// all-zero *or* the realized model is inert (no dead hosts, every
    /// per-host rate zero) — in either case no outcome can differ from
    /// the baked status, every attempt is #1 and no retry can ever be
    /// scheduled, so eliding the model is behavior-identical and runs
    /// never touch the fault machinery.
    pub(crate) fault: Option<FaultModel>,
}

impl<'a> CrawlEngine<'a> {
    /// An engine over a virtual web space.
    pub fn new(ws: &'a WebSpace, config: EngineConfig) -> Self {
        let fault = (!config.fault.is_zero())
            .then(|| FaultModel::with_config(ws, config.fault.clone()))
            .filter(|m| !m.is_inert());
        CrawlEngine { ws, config, fault }
    }

    /// The web space this engine crawls.
    pub fn web_space(&self) -> &'a WebSpace {
        self.ws
    }

    /// Park the space's seeds in `frontier` at priority 0.
    pub(crate) fn seed<F: Frontier + ?Sized>(&self, frontier: &mut F) {
        for &s in self.ws.seeds() {
            frontier.push(Entry {
                page: s,
                priority: 0,
                distance: 0,
            });
        }
    }

    /// Resolutions between [`CrawlEvent::Sampled`] events: the
    /// configured interval, or about 512 samples across the space.
    pub(crate) fn sample_interval(&self) -> u64 {
        self.config
            .sample_interval
            .unwrap_or_else(|| (self.ws.num_pages() as u64 / 512).max(1))
    }

    /// Start a fetch of `entry`: count the attempt and decide its
    /// number and what the web (plus fault model) answers. The loop
    /// decides at fetch start; only the bookkeeping waits for
    /// [`CrawlEngine::conclude`]. The fault machinery engages only
    /// when the model can fire: zero-fault runs, and runs whose
    /// realized model is inert (elided in [`CrawlEngine::new`]), never
    /// touch the attempt table.
    // Always inlined, whatever the inliner's budget: it runs once per
    // fetch, and a build that called it out of line read about 7%
    // slower on perfbench `soft`.
    #[inline(always)]
    pub(crate) fn attempt(&self, entry: Entry, progress: &mut Progress, counts: &[u32]) -> Fetch {
        let p = entry.page;
        progress.attempts += 1;
        let meta = self.ws.meta(p);
        let (attempt, outcome) = match &self.fault {
            Some(model) => {
                // An empty table means no back-off yet; a materialized
                // one covers every page.
                let a = counts.get(p as usize).map_or(1, |&c| c + 1);
                if a > 1 {
                    progress.retries += 1;
                }
                (a, model.outcome_at(meta.status, meta.host, p, a))
            }
            None => (
                1,
                FetchOutcome {
                    status: meta.status,
                    transient: false,
                },
            ),
        };
        Fetch {
            entry,
            attempt,
            outcome,
        }
    }

    /// Close a fetch at tick `st.progress.now`. A transient failure
    /// with attempts left backs off: its attempt number is recorded
    /// (materializing the attempt table at the first back-off), it is
    /// narrated, and it waits on the retry heap — it is not resolved,
    /// so `crawled` does not advance, nothing is classified and the
    /// frontier is untouched. Anything else resolves through
    /// [`CrawlEngine::resolve`]. Returns whether the page resolved.
    pub(crate) fn conclude<F, S, C>(
        &self,
        st: &mut RunState<'_, '_>,
        frontier: &mut F,
        strategy: &mut S,
        classifier: &C,
        scratch: &mut EngineScratch,
        fetch: Fetch,
    ) -> bool
    where
        F: Frontier,
        S: Strategy + ?Sized,
        C: Classifier + ?Sized,
    {
        let retry = self.config.retry;
        if !fetch.outcome.transient || fetch.attempt >= retry.effective_max_attempts() {
            self.resolve(st, frontier, strategy, classifier, scratch, fetch);
            return true;
        }
        let p = fetch.entry.page;
        if scratch.attempt_counts.is_empty() {
            scratch.materialize_attempts(self.ws.num_pages());
        }
        // lint:allow(no-panic-transitive): the attempt table is materialized at num_pages entries and every fetched page id is below num_pages
        scratch.attempt_counts[p as usize] = fetch.attempt;
        let now = st.progress.now;
        if st.wants & interest::ATTEMPT != 0 {
            emit(
                st.sinks,
                CrawlEvent::FetchAttempt {
                    page: p,
                    attempt: fetch.attempt,
                    status: fetch.outcome.status,
                    transient: true,
                    retry: true,
                    tick: now,
                },
            );
        }
        let backoff = retry.delay(fetch.attempt).saturating_mul(st.backoff_unit);
        let ready = now.saturating_add(backoff);
        let pg = &mut st.progress;
        pg.retry_heap
            .push(Reverse((ready, pg.retry_seq, fetch.entry)));
        pg.retry_seq += 1;
        false
    }

    /// The resolution step: an attempt has concluded a page's story
    /// (delivered, permanently failed, or retries exhausted) at tick
    /// `st.progress.now`. Emits the page's fixed event sequence,
    /// classifies, admits outlinks through the strategy into the
    /// frontier, and samples.
    // lint:root(alloc-free) — runs once per resolved fetch; all
    // buffers live in `scratch`, so a steady-state resolution
    // allocates nothing.
    pub(crate) fn resolve<F, S, C>(
        &self,
        st: &mut RunState<'_, '_>,
        frontier: &mut F,
        strategy: &mut S,
        classifier: &C,
        scratch: &mut EngineScratch,
        r: Fetch,
    ) where
        F: Frontier,
        S: Strategy + ?Sized,
        C: Classifier + ?Sized,
    {
        let ws = self.ws;
        let p = r.entry.page;
        let meta = ws.meta(p);
        let pg = &mut st.progress;
        if r.outcome.transient {
            pg.gave_up += 1;
        }
        if st.wants & interest::ATTEMPT != 0 {
            emit(
                st.sinks,
                CrawlEvent::FetchAttempt {
                    page: p,
                    attempt: r.attempt,
                    status: r.outcome.status,
                    transient: r.outcome.transient,
                    retry: false,
                    tick: pg.now,
                },
            );
        }
        pg.crawled += 1;
        if st.wants & interest::FETCHED != 0 {
            emit(
                st.sinks,
                CrawlEvent::Fetched {
                    page: p,
                    crawled: pg.crawled,
                },
            );
        }

        // Only OK HTML pages *that were actually delivered* have
        // content to classify and links to follow (a page behind a dead
        // host or an exhausted retry budget never arrived).
        let delivered = meta.is_ok_html() && r.outcome.is_ok();
        let (relevance, outlinks): (f64, &[PageId]) = if delivered {
            // lint:allow(no-alloc-transitive): pluggable classifier — meta/oracle read the crawl log alloc-free; byte-level synthesis is the documented content-mode tradeoff (Ablation B)
            classifier.visit(ws, p, &mut scratch.links)
        } else {
            (0.0, &[])
        };
        let relevant = ws.is_relevant(p) && r.outcome.is_ok();
        if relevant {
            pg.relevant_crawled += 1; // metrics use ground truth
        }
        if st.wants & interest::CLASSIFIED != 0 {
            emit(
                st.sinks,
                CrawlEvent::Classified {
                    page: p,
                    relevance,
                    relevant,
                },
            );
        }

        // The run of consecutive irrelevant pages ending here: a
        // relevant page resets it, an irrelevant one extends the
        // referrer path's run carried on the queue entry.
        let consec = if relevance > 0.5 {
            0
        } else {
            r.entry.distance.saturating_add(1)
        };

        let view = PageView {
            page: p,
            relevance,
            consec_irrelevant: consec,
            outlinks,
            crawled: pg.crawled,
        };
        // Batched admission: collect the strategy's offers, filter in
        // place, then hand the whole batch to the frontier at once so a
        // sharded frontier can amortize its per-host bookkeeping
        // ([`Frontier::push_all`]). Order is preserved throughout, so
        // the enqueue sequence is identical to pushing one at a time.
        let admissions = &mut scratch.admissions;
        admissions.clear();
        // lint:allow(no-panic-transitive): strategies are pluggable batch work; each strategy's own suite pins its bounds invariants
        strategy.admit(&view, admissions); // lint:allow(no-alloc-transitive): the paper's HITS/PageRank strategies recompute with per-batch buffers by design; the figure strategies' steady state is held at zero allocations by the counting-allocator test in crates/bench/tests/steady_state.rs

        let offered = admissions.len() as u32;
        let mut dropped = 0u32;
        if self.config.url_filter {
            admissions.retain(|a| {
                if ws.meta(a.page).kind == PageKind::Other {
                    dropped += 1;
                    false // extension-filtered before entering the queue
                } else {
                    true
                }
            });
        }
        let enqueued = frontier.push_all(admissions);
        if dropped > 0 && st.wants & interest::FILTERED != 0 {
            emit(st.sinks, CrawlEvent::Filtered { page: p, dropped });
        }
        if st.wants & interest::ADMITTED != 0 {
            emit(
                st.sinks,
                CrawlEvent::Admitted {
                    page: p,
                    offered,
                    enqueued,
                },
            );
        }

        // Countdown instead of `crawled % interval` — the modulo is a
        // 64-bit division on the once-per-fetch path.
        pg.until_sample -= 1;
        if pg.until_sample == 0 {
            pg.until_sample = st.sample_interval;
            if st.wants & interest::SAMPLED != 0 {
                emit(
                    st.sinks,
                    CrawlEvent::Sampled {
                        crawled: pg.crawled,
                        relevant: pg.relevant_crawled,
                        pending: frontier.pending(),
                        tick: pg.now,
                    },
                );
            }
        }
    }
}

/// A fetch decided at its start by [`CrawlEngine::attempt`] and closed
/// by [`CrawlEngine::conclude`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fetch {
    /// The frontier entry being fetched.
    pub(crate) entry: Entry,
    /// Attempt number, 1-based.
    pub(crate) attempt: u32,
    /// What the virtual web (plus fault model) answered.
    pub(crate) outcome: FetchOutcome,
}

/// How far a crawl has got — everything that advances as it runs and
/// that a snapshot must carry besides the frontier and the attempt
/// table.
#[derive(Debug, Default)]
pub(crate) struct Progress {
    /// Virtual tick of the last processed event.
    pub(crate) now: u64,
    /// Fetch attempts started.
    pub(crate) attempts: u64,
    /// Attempts beyond a page's first.
    pub(crate) retries: u64,
    /// Pages resolved.
    pub(crate) crawled: u64,
    /// Ground-truth relevant pages delivered.
    pub(crate) relevant_crawled: u64,
    /// Pages abandoned after exhausting their retry budget.
    pub(crate) gave_up: u64,
    /// Resolutions left until the next sample (counts down from the
    /// sample interval; equivalent to `crawled % interval == 0`
    /// without the per-fetch division).
    pub(crate) until_sample: u64,
    /// Back-offs scheduled so far: the retry heap's tie-break.
    pub(crate) retry_seq: u64,
    /// Transient failures backing off, as `(ready tick, retry seq,
    /// entry)`. A min-heap, so retries come due in ready order, first
    /// scheduled first among ties, and the retry schedule is a pure
    /// function of the failure sequence.
    pub(crate) retry_heap: BinaryHeap<Reverse<(u64, u64, Entry)>>,
}

impl Progress {
    /// A run that has not started: everything zero, a full sample
    /// countdown.
    pub(crate) fn new(sample_interval: u64) -> Self {
        Progress {
            until_sample: sample_interval,
            ..Progress::default()
        }
    }

    /// Re-enter every retry due by `now` into `frontier`, whose own
    /// policy then orders them against fresh discoveries. A run that
    /// never backs off never fills the heap, so this is one emptiness
    /// check per step.
    pub(crate) fn requeue_due<F: Frontier + ?Sized>(&mut self, frontier: &mut F) {
        while let Some(&Reverse((ready, _, e))) = self.retry_heap.peek() {
            if ready > self.now {
                break;
            }
            self.retry_heap.pop();
            frontier.requeue(e);
        }
    }

    /// The tick the earliest pending retry comes due.
    pub(crate) fn next_retry(&self) -> Option<u64> {
        self.retry_heap.peek().map(|&Reverse((ready, _, _))| ready)
    }
}

/// Run-wide mutable state of the crawl loop: the sinks with their
/// unioned interest mask, the sampling cadence, and the run's
/// [`Progress`].
pub(crate) struct RunState<'s, 'k> {
    /// The attached observers.
    pub(crate) sinks: &'s mut [&'k mut dyn EventSink],
    /// Union of the sinks' interest masks: event variants nobody
    /// listens to are never constructed or dispatched.
    pub(crate) wants: u16,
    /// Emit [`CrawlEvent::Sampled`] every this many resolutions.
    pub(crate) sample_interval: u64,
    /// Ticks in one step of the retry policy's back-off: one, or one
    /// round trip ([`crate::sched::Timing::rtt`]) in a timed crawl.
    pub(crate) backoff_unit: u64,
    /// How far the run has got.
    pub(crate) progress: Progress,
}

impl<'s, 'k> RunState<'s, 'k> {
    /// The state of a run that continues from `resumed`, or starts
    /// afresh (`None`).
    pub(crate) fn new(
        sinks: &'s mut [&'k mut dyn EventSink],
        sample_interval: u64,
        backoff_unit: u64,
        resumed: Option<Progress>,
    ) -> Self {
        RunState {
            wants: wants(sinks),
            sinks,
            sample_interval,
            backoff_unit,
            progress: resumed.unwrap_or_else(|| Progress::new(sample_interval)),
        }
    }

    /// Close the run: one [`CrawlEvent::Finished`], then the outcome.
    pub(crate) fn finish<F: Frontier + ?Sized>(self, frontier: &F) -> EngineOutcome {
        let pg = self.progress;
        if self.wants & interest::FINISHED != 0 {
            emit(
                self.sinks,
                CrawlEvent::Finished {
                    crawled: pg.crawled,
                    relevant: pg.relevant_crawled,
                    pending: frontier.pending(),
                    max_pending: frontier.max_pending(),
                    total_pushes: frontier.total_pushes(),
                },
            );
        }
        EngineOutcome {
            crawled: pg.crawled,
            relevant_crawled: pg.relevant_crawled,
            max_pending: frontier.max_pending(),
            total_pushes: frontier.total_pushes(),
            attempts: pg.attempts,
            retries: pg.retries,
            gave_up: pg.gave_up,
            ticks: pg.now,
        }
    }
}

/// Union of the sinks' interest masks.
pub(crate) fn wants(sinks: &[&mut dyn EventSink]) -> u16 {
    sinks.iter().fold(0u16, |m, s| m | s.interests())
}

#[inline]
pub(crate) fn emit(sinks: &mut [&mut dyn EventSink], event: CrawlEvent) {
    for sink in sinks.iter_mut() {
        sink.on_event(&event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::OracleClassifier;
    use crate::event::{MetricsSampler, VisitRecorder};
    use crate::queue::UrlQueue;
    use crate::sched::SchedConfig;
    use crate::shard::ShardedFrontier;
    use crate::strategy::{BreadthFirst, SimpleStrategy};
    use langcrawl_webgraph::{FaultConfig, GeneratorConfig};

    fn space() -> WebSpace {
        GeneratorConfig::thai_like().scaled(4_000).build(9)
    }

    #[test]
    fn engine_runs_without_sinks() {
        let ws = space();
        let engine = CrawlEngine::new(&ws, EngineConfig::default());
        let outcome = engine.run(
            UrlQueue::new(ws.num_pages(), 1),
            &mut BreadthFirst::new(),
            &OracleClassifier::target(ws.target_language()),
            &mut [],
        );
        assert_eq!(outcome.crawled, ws.num_pages() as u64);
        assert!(outcome.relevant_crawled > 0);
    }

    #[test]
    fn sinks_compose() {
        let ws = space();
        let engine = CrawlEngine::new(&ws, EngineConfig::default());
        let mut metrics = MetricsSampler::new();
        let mut visits = VisitRecorder::new();
        let mut strategy = SimpleStrategy::soft();
        let classifier = OracleClassifier::target(ws.target_language());
        let outcome = engine.run(
            UrlQueue::new(ws.num_pages(), strategy.levels()),
            &mut strategy,
            &classifier,
            &mut [&mut metrics, &mut visits],
        );
        assert_eq!(visits.into_visited().len() as u64, outcome.crawled);
        let samples = metrics.into_samples();
        assert_eq!(samples.last().unwrap().crawled, outcome.crawled);
        assert_eq!(samples.last().unwrap().relevant, outcome.relevant_crawled);
    }

    #[test]
    fn custom_frontier_plugs_in() {
        let ws = space();
        let engine = CrawlEngine::new(&ws, EngineConfig::default());
        let oracle = OracleClassifier::target(ws.target_language());
        let bucketed = engine.run(
            UrlQueue::new(ws.num_pages(), 2),
            &mut SimpleStrategy::soft(),
            &oracle,
            &mut [],
        );
        let sharded = engine.run(
            ShardedFrontier::for_space(&ws, 2, 3),
            &mut SimpleStrategy::soft(),
            &oracle,
            &mut [],
        );
        // Soft-focused crawling visits every reachable page under any
        // work-conserving frontier.
        assert_eq!(bucketed.crawled, sharded.crawled);
        assert_eq!(bucketed.relevant_crawled, sharded.relevant_crawled);
    }

    #[test]
    fn uninteresting_events_are_never_emitted() {
        /// Panics on anything but the variants it declared.
        struct Declared {
            mask: u16,
            sampled: u64,
            finished: bool,
        }
        impl EventSink for Declared {
            fn on_event(&mut self, event: &CrawlEvent) {
                match event {
                    CrawlEvent::Sampled { .. } if self.mask & interest::SAMPLED != 0 => {
                        self.sampled += 1;
                    }
                    CrawlEvent::Finished { .. } => self.finished = true,
                    other => panic!("undeclared event emitted: {other:?}"),
                }
            }
            fn interests(&self) -> u16 {
                self.mask
            }
        }
        let ws = space();
        let oracle = OracleClassifier::target(ws.target_language());

        // One slot over a caller's frontier.
        let engine = CrawlEngine::new(&ws, EngineConfig::default());
        let mut sink = Declared {
            mask: interest::FINISHED,
            sampled: 0,
            finished: false,
        };
        engine.run(
            UrlQueue::new(ws.num_pages(), 1),
            &mut BreadthFirst::new(),
            &oracle,
            &mut [&mut sink],
        );
        assert!(sink.finished);

        // A schedule with every scheduler event able to fire:
        // slots and politeness stall and hand off, faults retry,
        // the filter drops links, and a capture cadence is set that no
        // sink wants. The sink takes what `MetricsSampler` takes.
        let engine = CrawlEngine::new(
            &ws,
            EngineConfig {
                fault: FaultConfig::with_rate(0.1),
                url_filter: true,
                snapshot_every: Some(50),
                ..EngineConfig::default()
            },
        );
        let sched = SchedConfig {
            slots: 4,
            politeness_gap: 3,
            politeness_spread: 2,
            ..SchedConfig::default()
        };
        let mut sink = Declared {
            mask: interest::SAMPLED | interest::FINISHED,
            sampled: 0,
            finished: false,
        };
        let (outcome, _) = engine.run_scheduled(
            &sched,
            &mut SimpleStrategy::soft(),
            &oracle,
            &mut [&mut sink],
            &mut EngineScratch::new(),
        );
        assert!(outcome.retries > 0, "the faults must retry");
        assert!(sink.sampled > 0 && sink.finished);
    }

    #[test]
    fn zero_fault_outcome_counters_are_trivial() {
        let ws = space();
        let engine = CrawlEngine::new(&ws, EngineConfig::default());
        let outcome = engine.run(
            UrlQueue::new(ws.num_pages(), 1),
            &mut BreadthFirst::new(),
            &OracleClassifier::target(ws.target_language()),
            &mut [],
        );
        assert_eq!(outcome.attempts, outcome.crawled);
        assert_eq!(outcome.retries, 0);
        assert_eq!(outcome.gave_up, 0);
    }

    #[test]
    fn inert_fault_model_is_elided() {
        let ws = space();
        let engine = |fault| {
            CrawlEngine::new(
                &ws,
                EngineConfig {
                    fault,
                    ..EngineConfig::default()
                },
            )
        };
        // Host classes drawn, every failure rate zero: nothing can fire,
        // so the engine holds no model and runs the zero-fault loop.
        let inert = engine(FaultConfig {
            flaky_host_rate: 0.05,
            slow_host_rate: 0.05,
            ..FaultConfig::default()
        });
        assert!(inert.fault.is_none());
        assert!(engine(FaultConfig::with_rate(0.1)).fault.is_some());
    }

    #[test]
    fn faulted_run_retries_and_still_resolves_every_page() {
        let ws = space();
        let engine = CrawlEngine::new(
            &ws,
            EngineConfig {
                fault: FaultConfig::with_rate(0.2),
                ..EngineConfig::default()
            },
        );
        let outcome = engine.run(
            UrlQueue::new(ws.num_pages(), 1),
            &mut BreadthFirst::new(),
            &OracleClassifier::target(ws.target_language()),
            &mut [],
        );
        // Undelivered pages (dead hosts, exhausted retries) expand no
        // outlinks, so faults shrink what BFS can even discover — but
        // every page that *was* popped resolves exactly once.
        assert!(outcome.crawled > 0);
        assert!(outcome.crawled < ws.num_pages() as u64);
        assert!(outcome.gave_up > 0, "some page must exhaust its budget");
        assert!(outcome.retries > 0, "20% fault rate must cause retries");
        assert!(outcome.attempts > outcome.crawled);
        assert_eq!(outcome.attempts, outcome.crawled + outcome.retries);
        // Harvest is net of failures: a faulted run cannot deliver more
        // relevant pages than exist, and failures can only lose some.
        assert!(outcome.relevant_crawled <= ws.total_relevant() as u64);
    }

    #[test]
    fn attempts_never_exceed_the_retry_cap() {
        let ws = space();
        // Every fetch from a healthy host fails transiently: each page
        // burns its entire attempt budget, then is given up.
        let engine = CrawlEngine::new(
            &ws,
            EngineConfig {
                fault: langcrawl_webgraph::FaultConfig {
                    transient_rate: 1.0,
                    ..Default::default()
                },
                retry: RetryPolicy {
                    max_attempts: 3,
                    backoff_base: 2,
                    backoff_cap: 8,
                },
                ..EngineConfig::default()
            },
        );
        /// Asserts per-page attempt numbers stay within the cap.
        struct CapCheck {
            max_seen: u32,
        }
        impl EventSink for CapCheck {
            fn on_event(&mut self, event: &CrawlEvent) {
                if let CrawlEvent::FetchAttempt { attempt, .. } = *event {
                    self.max_seen = self.max_seen.max(attempt);
                }
            }
            fn interests(&self) -> u16 {
                interest::ATTEMPT
            }
        }
        let mut cap = CapCheck { max_seen: 0 };
        let outcome = engine.run(
            UrlQueue::new(ws.num_pages(), 1),
            &mut BreadthFirst::new(),
            &OracleClassifier::target(ws.target_language()),
            &mut [&mut cap],
        );
        assert_eq!(cap.max_seen, 3);
        // Nothing is ever delivered, so no page is relevant and no
        // outlinks are discovered — only the seeds resolve, each after
        // exactly max_attempts attempts.
        assert_eq!(outcome.relevant_crawled, 0);
        assert_eq!(outcome.crawled, ws.seeds().len() as u64);
        assert_eq!(outcome.gave_up, outcome.crawled);
        assert_eq!(outcome.attempts, 3 * outcome.crawled);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let ws = space();
        let config = EngineConfig {
            fault: FaultConfig::with_rate(0.15),
            ..EngineConfig::default()
        };
        let engine = CrawlEngine::new(&ws, config);
        let run = || {
            let mut visits = VisitRecorder::new();
            let outcome = engine.run(
                UrlQueue::new(ws.num_pages(), 2),
                &mut SimpleStrategy::soft(),
                &OracleClassifier::target(ws.target_language()),
                &mut [&mut visits],
            );
            (outcome, visits.into_visited())
        };
        let (o1, v1) = run();
        let (o2, v2) = run();
        assert_eq!(o1, o2);
        assert_eq!(v1, v2);
    }

    #[test]
    fn budget_stops_engine() {
        let ws = space();
        let engine = CrawlEngine::new(
            &ws,
            EngineConfig {
                max_pages: Some(100),
                ..EngineConfig::default()
            },
        );
        let outcome = engine.run(
            UrlQueue::new(ws.num_pages(), 1),
            &mut BreadthFirst::new(),
            &OracleClassifier::target(ws.target_language()),
            &mut [],
        );
        assert_eq!(outcome.crawled, 100);
    }
}
