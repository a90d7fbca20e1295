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
//! [`crate::sim::Simulator`] is the convenience wrapper that wires the
//! default frontier and sinks back together and returns a
//! [`crate::metrics::CrawlReport`]; scaling work (sharded frontiers,
//! async fetch, checkpointing) plugs in here without touching it.

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
    /// Capture a [`crate::snapshot::CrawlSnapshot`] every this many
    /// virtual ticks on the scheduled run path (`None` = never).
    /// Scheduled runs honor it when `LANGCRAWL_SNAPSHOT_DIR` names a
    /// directory to write to; the explicit
    /// [`CrawlEngine::run_scheduled_snapshots`] entry point takes any
    /// sink. The knob does not alter the crawl itself — capture is
    /// observation-only, pinned by the resume-parity suite.
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
    /// Virtual ticks the crawl spanned — the makespan of the schedule.
    /// In the legacy single-slot loop this is the tick of the last
    /// attempt (one tick per attempt plus backoff fast-forwards); in a
    /// scheduled run ([`crate::sched::SchedConfig`]) it is the time of
    /// the last processed completion, so `K` slots shrink it toward
    /// `attempts / K` plus politeness stalls.
    pub ticks: u64,
}

/// Reusable per-run scratch: every buffer the crawl loop writes per
/// fetch, hoisted out of the loop so a steady-state fetch allocates
/// nothing. Callers that run many crawls back-to-back (experiment
/// sweeps, benchmarks) pass the same scratch each time; buffers are
/// length-reset per run but keep their capacity, so repeated runs stop
/// paying the grow-from-empty cycle entirely.
#[derive(Debug, Default)]
pub struct EngineScratch {
    /// Admission buffer the strategy refills once per fetch; grows to
    /// the largest out-degree seen, then stabilizes.
    pub(crate) admissions: Vec<Entry>,
    /// Link buffer handed to [`Classifier::visit`]; classifiers that
    /// extract links from page bytes refill it once per delivered page.
    links: Vec<PageId>,
    /// Per-page attempt counts, materialized lazily at the first retry
    /// of a run (emptiness doubles as the "no retry yet" flag — see the
    /// run loop). Cleared but never shrunk between runs.
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

    /// Run one crawl: seed the `frontier`, loop pop → download →
    /// classify → admit, narrate every step to `sinks`, and return the
    /// outcome. The engine is reusable — each run takes a fresh frontier.
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
        let mut scratch = EngineScratch::new();
        self.run_with_scratch(frontier, strategy, classifier, sinks, &mut scratch)
    }

    /// [`CrawlEngine::run`] with caller-provided [`EngineScratch`]: the
    /// admission buffer the strategy refills once per fetch and the
    /// lazily materialized attempt table. Callers that run many crawls
    /// back-to-back (experiment sweeps, benchmarks) pass the same
    /// scratch each time so the hot loop stops reallocating once the
    /// buffers have grown to their high-water sizes. Prior contents are
    /// ignored; only capacity carries over.
    pub fn run_with_scratch<F, S, C>(
        &self,
        mut frontier: F,
        strategy: &mut S,
        classifier: &C,
        sinks: &mut [&mut dyn EventSink],
        scratch: &mut EngineScratch,
    ) -> EngineOutcome
    where
        F: Frontier,
        S: Strategy + ?Sized,
        C: Classifier + ?Sized,
    {
        scratch.begin_run();
        let ws = self.ws;
        let sample_interval = self
            .config
            .sample_interval
            .unwrap_or_else(|| (ws.num_pages() as u64 / 512).max(1));
        let budget = self.config.max_pages.unwrap_or(u64::MAX);
        // Union of the sinks' interest masks: event variants nobody
        // listens to are never constructed or dispatched.
        let wants = sinks.iter().fold(0u16, |m, s| m | s.interests());

        // The fault/retry machinery engages only when the fault model
        // can fire: zero-fault runs never touch the attempt table or
        // the retry heap (the microbench pins their overhead at ≤10%
        // even when engaged at a vanishing rate).
        let retry = self.config.retry;
        let max_attempts = retry.effective_max_attempts();
        let fault = self.fault.as_ref();
        // Per-page attempt counts live in the scratch and materialize
        // lazily at the first retry: while no fetch has ever been
        // retried, every pop is attempt #1 and the table stays empty — a
        // faulted-but-lucky run pays one emptiness check per fetch
        // instead of a table read-modify-write (this is what keeps the
        // microbench fault-path gate under 10%). Resolved pages never
        // return, so their counts are only written when a retry is
        // actually scheduled.
        // Min-heap of (ready tick, schedule seq, entry): pops in ready
        // order with FIFO tie-breaking, so the retry schedule is a pure
        // function of the failure sequence.
        let mut retry_heap: BinaryHeap<Reverse<(u64, u64, Entry)>> = BinaryHeap::new();
        let mut retry_seq: u64 = 0;
        let mut tick: u64 = 0;
        let mut attempts: u64 = 0;
        let mut retries: u64 = 0;

        for &s in ws.seeds() {
            frontier.push(Entry {
                page: s,
                priority: 0,
                distance: 0,
            });
        }

        let mut st = RunState {
            sinks,
            wants,
            sample_interval,
            until_sample: sample_interval,
            crawled: 0,
            relevant_crawled: 0,
            gave_up: 0,
        };

        loop {
            // Due retries re-enter the frontier before the next pop, so
            // the frontier's own policy orders them against fresh
            // discoveries. The heap can only be non-empty once a retry
            // has been scheduled — which is also when the attempt table
            // materializes — so a run that never fails never touches it.
            if !scratch.attempt_counts.is_empty() {
                while let Some(&Reverse((ready, _, _))) = retry_heap.peek() {
                    if ready > tick {
                        break;
                    }
                    if let Some(Reverse((_, _, e))) = retry_heap.pop() {
                        frontier.requeue(e);
                    }
                }
            }
            let entry = match frontier.pop() {
                Some(e) => e,
                None => {
                    // Frontier dry but retries pending: fast-forward the
                    // clock to the next ready tick and drain again.
                    if let Some(&Reverse((ready, _, _))) = retry_heap.peek() {
                        tick = ready;
                        continue;
                    }
                    break;
                }
            };
            let p = entry.page;
            tick += 1;
            attempts += 1;

            // "Download": the virtual web space answers with the page's
            // properties; the fault model may overlay a transient
            // failure on this attempt.
            let meta = ws.meta(p);
            let (attempt, outcome) = match &fault {
                Some(model) => {
                    let a = if scratch.attempt_counts.is_empty() {
                        1
                    } else {
                        scratch.attempt_counts[p as usize] + 1
                    };
                    if a > 1 {
                        retries += 1;
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

            if outcome.transient && attempt < max_attempts {
                // Transient failure with budget left: back off and
                // re-enter the frontier later. The page is not resolved —
                // `crawled` does not advance and nothing is classified.
                if scratch.attempt_counts.is_empty() {
                    scratch.materialize_attempts(ws.num_pages());
                }
                scratch.attempt_counts[p as usize] = attempt;
                if wants & interest::ATTEMPT != 0 {
                    emit(
                        st.sinks,
                        CrawlEvent::FetchAttempt {
                            page: p,
                            attempt,
                            status: outcome.status,
                            transient: true,
                            retry: true,
                            tick,
                        },
                    );
                }
                let ready = tick.saturating_add(retry.delay(attempt));
                retry_heap.push(Reverse((ready, retry_seq, entry)));
                retry_seq += 1;
                continue;
            }

            // Resolution: delivered, permanently failed, or abandoned.
            self.resolve(
                &mut st,
                &mut frontier,
                strategy,
                classifier,
                scratch,
                Resolution {
                    entry,
                    attempt,
                    outcome,
                    tick,
                },
            );
            if st.crawled >= budget {
                break;
            }
        }

        if wants & interest::FINISHED != 0 {
            emit(
                st.sinks,
                CrawlEvent::Finished {
                    crawled: st.crawled,
                    relevant: st.relevant_crawled,
                    pending: frontier.pending(),
                    max_pending: frontier.max_pending(),
                    total_pushes: frontier.total_pushes(),
                },
            );
        }

        EngineOutcome {
            crawled: st.crawled,
            relevant_crawled: st.relevant_crawled,
            max_pending: frontier.max_pending(),
            total_pushes: frontier.total_pushes(),
            attempts,
            retries,
            gave_up: st.gave_up,
            ticks: tick,
        }
    }

    /// The shared resolution step: an attempt has concluded a page's
    /// story (delivered, permanently failed, or retries exhausted).
    /// Emits the page's fixed event sequence, classifies, admits
    /// outlinks through the strategy into the frontier, and samples.
    /// Both run paths end every page here — the legacy loop above and
    /// the virtual-time scheduler ([`crate::sched`]) — which is what
    /// keeps a `K = 1`, politeness-0 scheduled run bit-identical to the
    /// legacy engine (pinned by the conformance goldens).
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
        r: Resolution,
    ) where
        F: Frontier,
        S: Strategy + ?Sized,
        C: Classifier + ?Sized,
    {
        let ws = self.ws;
        let p = r.entry.page;
        let meta = ws.meta(p);
        if r.outcome.transient {
            st.gave_up += 1;
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
                    tick: r.tick,
                },
            );
        }
        st.crawled += 1;
        if st.wants & interest::FETCHED != 0 {
            emit(
                st.sinks,
                CrawlEvent::Fetched {
                    page: p,
                    crawled: st.crawled,
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
            st.relevant_crawled += 1; // metrics use ground truth
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
            crawled: st.crawled,
        };
        // Batched admission: collect the strategy's offers, filter in
        // place, then hand the whole batch to the frontier at once so a
        // sharded frontier can amortize its per-host bookkeeping
        // ([`Frontier::push_all`]). Order is preserved throughout, so
        // the enqueue sequence is identical to pushing one at a time.
        let admissions = &mut scratch.admissions;
        admissions.clear();
        // lint:allow(no-panic-transitive): strategies are pluggable batch work; each strategy's own suite pins its bounds invariants
        strategy.admit(&view, admissions); // lint:allow(no-alloc-transitive): the paper's HITS/PageRank strategies recompute with per-batch buffers by design; BFS steady-state allocation is gated by the microbench

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
        st.until_sample -= 1;
        if st.until_sample == 0 {
            st.until_sample = st.sample_interval;
            if st.wants & interest::SAMPLED != 0 {
                emit(
                    st.sinks,
                    CrawlEvent::Sampled {
                        crawled: st.crawled,
                        relevant: st.relevant_crawled,
                        pending: frontier.pending(),
                    },
                );
            }
        }
    }
}

/// One resolved fetch attempt, handed to
/// [`CrawlEngine::resolve`] by whichever run path concluded it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Resolution {
    /// The frontier entry that was fetched.
    pub(crate) entry: Entry,
    /// Attempt number, 1-based.
    pub(crate) attempt: u32,
    /// What the virtual web (plus fault model) answered.
    pub(crate) outcome: FetchOutcome,
    /// Virtual tick the attempt completed at.
    pub(crate) tick: u64,
}

/// Run-wide mutable state shared by the legacy loop and the
/// virtual-time scheduler: the sinks with their unioned interest mask,
/// the sampling cadence, and the resolution counters.
pub(crate) struct RunState<'s, 'k> {
    /// The attached observers.
    pub(crate) sinks: &'s mut [&'k mut dyn EventSink],
    /// Union of the sinks' interest masks.
    pub(crate) wants: u16,
    /// Emit [`CrawlEvent::Sampled`] every this many resolutions.
    pub(crate) sample_interval: u64,
    /// Resolutions left until the next sample (counts down from
    /// `sample_interval`; equivalent to `crawled % interval == 0`
    /// without the per-fetch division).
    pub(crate) until_sample: u64,
    /// Pages resolved so far.
    pub(crate) crawled: u64,
    /// Ground-truth relevant pages delivered so far.
    pub(crate) relevant_crawled: u64,
    /// Pages abandoned after exhausting their retry budget.
    pub(crate) gave_up: u64,
}

#[inline]
fn emit(sinks: &mut [&mut dyn EventSink], event: CrawlEvent) {
    for sink in sinks.iter_mut() {
        sink.on_event(&event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::OracleClassifier;
    use crate::event::{MetricsSampler, PhaseTimingSink, VisitRecorder};
    use crate::queue::UrlQueue;
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
        let mut timing = PhaseTimingSink::new();
        let mut strategy = SimpleStrategy::soft();
        let classifier = OracleClassifier::target(ws.target_language());
        let outcome = engine.run(
            UrlQueue::new(ws.num_pages(), strategy.levels()),
            &mut strategy,
            &classifier,
            &mut [&mut metrics, &mut visits, &mut timing],
        );
        assert_eq!(visits.visited().len() as u64, outcome.crawled);
        assert_eq!(timing.pages, outcome.crawled);
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
        struct FinishOnly {
            finished: bool,
        }
        impl EventSink for FinishOnly {
            fn on_event(&mut self, event: &CrawlEvent) {
                match event {
                    CrawlEvent::Finished { .. } => self.finished = true,
                    other => panic!("undeclared event emitted: {other:?}"),
                }
            }
            fn interests(&self) -> u16 {
                interest::FINISHED
            }
        }
        let ws = space();
        let engine = CrawlEngine::new(&ws, EngineConfig::default());
        let mut sink = FinishOnly { finished: false };
        engine.run(
            UrlQueue::new(ws.num_pages(), 1),
            &mut BreadthFirst::new(),
            &OracleClassifier::target(ws.target_language()),
            &mut [&mut sink],
        );
        assert!(sink.finished);
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
    fn faulted_run_retries_and_still_resolves_every_page() {
        let ws = space();
        let engine = CrawlEngine::new(
            &ws,
            EngineConfig {
                fault: FaultConfig::with_rate(0.2),
                ..EngineConfig::default()
            },
        );
        let mut stats = crate::event::FaultStatsSink::new();
        let outcome = engine.run(
            UrlQueue::new(ws.num_pages(), 1),
            &mut BreadthFirst::new(),
            &OracleClassifier::target(ws.target_language()),
            &mut [&mut stats],
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
        // The sink's tally and the engine's counters agree.
        assert_eq!(stats.attempts, outcome.attempts);
        assert_eq!(stats.retries, outcome.retries);
        assert_eq!(stats.gave_up, outcome.gave_up);
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
