//! The simulator — the paper-shaped façade over the layered engine.
//!
//! [`Simulator::run`] used to *be* the crawl loop; it is now a thin
//! wrapper that assembles the default configuration of the layered
//! engine — the configured [`SchedConfig`] (one slot, no politeness by
//! default, which runs the single-slot loop over a
//! [`crate::queue::UrlQueue`]), a [`crate::event::MetricsSampler`], and
//! (when requested) a [`crate::event::VisitRecorder`] — hands them to
//! [`CrawlEngine::run_scheduled`], and packages the result as a
//! [`CrawlReport`]. Its observable behavior is bit-identical to the old
//! monolithic loop (the `engine_parity` integration test pins this).
//! With a capture cadence ([`SimConfig::snapshot_every`]) and
//! `LANGCRAWL_SNAPSHOT_DIR` naming a directory, it also attaches a
//! [`DirSink`] that writes `crawl-<space fingerprint>-<run
//! fingerprint>-t<tick>.snap` files, so crawls of one space by
//! different strategies or classifiers keep apart. Experiments that
//! want a different frontier or extra observers use the engine
//! directly.

use crate::classifier::Classifier;
use crate::engine::{CrawlEngine, EngineConfig, EngineScratch};
use crate::event::{EventSink, MetricsSampler, VisitRecorder};
use crate::metrics::CrawlReport;
use crate::retry::RetryPolicy;
use crate::sched::SchedConfig;
use crate::snapshot::{run_fingerprint, DirSink};
use crate::strategy::Strategy;
use langcrawl_webgraph::{FaultConfig, WebSpace};

/// Simulation parameters.
#[derive(Debug, Clone, Default)]
pub struct SimConfig {
    /// Stop after this many fetches (`None` = run the queue dry, i.e.
    /// the complete crawl the paper's figures show).
    pub max_pages: Option<u64>,
    /// Record a metrics sample every this many fetches (`None` = pick
    /// ~512 points across the space automatically).
    pub sample_interval: Option<u64>,
    /// Apply the URL extension filter every production crawler runs:
    /// links whose URL names an obviously non-HTML resource (images,
    /// archives — [`langcrawl_webgraph::PageKind::Other`] pages, whose
    /// URLs end in `.gif`) are never enqueued. Dead *HTML-looking* links
    /// (404s) cannot be filtered this way and are still fetched.
    pub url_filter: bool,
    /// Record the ids of crawled pages in
    /// [`crate::metrics::CrawlReport::visited`] (needed by
    /// dataset-collection experiments; off by default to keep reports
    /// small).
    pub record_visits: bool,
    /// Fault model to layer over the space instead of the one it was
    /// generated with ([`WebSpace::fault`]). `None` — the default — uses
    /// the space's own config, so zero-fault spaces behave bit-identically
    /// to the pre-fault simulator. Sensitivity sweeps set this to reuse
    /// one generated space across fault rates.
    pub fault_override: Option<FaultConfig>,
    /// Retry/backoff policy for transient fetch failures.
    pub retry: RetryPolicy,
    /// Virtual-time scheduler configuration: fetch slots and per-host
    /// politeness. The default — one slot, zero
    /// politeness — is the paper's single-slot crawl, bit-identical to
    /// the legacy loop (the conformance goldens pin this).
    pub sched: SchedConfig,
    /// Capture a crash-safe snapshot of the crawl every this many ticks
    /// (honored when the `LANGCRAWL_SNAPSHOT_DIR` environment variable
    /// names a directory to write framed snapshot files into). Capture
    /// is observation-only: the crawl is bit-identical with or without
    /// it.
    pub snapshot_every: Option<u64>,
}

impl SimConfig {
    /// Cap the crawl at `n` fetches.
    pub fn with_max_pages(mut self, n: u64) -> Self {
        self.max_pages = Some(n);
        self
    }

    /// Enable the URL extension filter (see [`SimConfig::url_filter`]).
    pub fn with_url_filter(mut self) -> Self {
        self.url_filter = true;
        self
    }

    /// Record crawled page ids in the report.
    pub fn with_visit_recording(mut self) -> Self {
        self.record_visits = true;
        self
    }

    /// Layer `fault` over the space for this simulation (see
    /// [`SimConfig::fault_override`]).
    pub fn with_faults(mut self, fault: FaultConfig) -> Self {
        self.fault_override = Some(fault);
        self
    }

    /// Use `retry` as the transient-failure retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Run under the virtual-time scheduler with `k` fetch slots (see
    /// [`SimConfig::sched`]).
    pub fn with_workers(mut self, k: u32) -> Self {
        self.sched.slots = k;
        self
    }

    /// Set the per-host politeness gap in ticks (minimum interval
    /// between fetch starts on one host).
    pub fn with_politeness(mut self, gap: u64) -> Self {
        self.sched.politeness_gap = gap;
        self
    }

    /// Set the deterministic per-host politeness jitter bound.
    pub fn with_politeness_spread(mut self, spread: u64) -> Self {
        self.sched.politeness_spread = spread;
        self
    }

    /// Capture a crawl snapshot every `every` ticks (see
    /// [`SimConfig::snapshot_every`]).
    pub fn with_snapshot_every(mut self, every: u64) -> Self {
        self.snapshot_every = Some(every);
        self
    }
}

/// The web crawling simulator.
///
/// ```
/// use langcrawl_core::classifier::MetaClassifier;
/// use langcrawl_core::sim::{SimConfig, Simulator};
/// use langcrawl_core::strategy::SimpleStrategy;
/// use langcrawl_webgraph::GeneratorConfig;
///
/// let space = GeneratorConfig::thai_like().scaled(2_000).build(1);
/// let mut sim = Simulator::new(&space, SimConfig::default());
/// let report = sim.run(
///     &mut SimpleStrategy::soft(),
///     &MetaClassifier::target(space.target_language()),
/// );
/// assert!(report.final_coverage() > 0.95);
/// assert!(report.crawled > 0);
/// ```
#[derive(Debug)]
pub struct Simulator<'a> {
    ws: &'a WebSpace,
    config: SimConfig,
    /// Engine scratch (admission buffer + attempt table), reused across
    /// runs (see [`CrawlEngine::run_scheduled`]): repeated `run` calls
    /// — the shape of every experiment sweep — stop paying a per-run
    /// grow-from-empty cycle in the hot loop entirely.
    scratch: EngineScratch,
}

impl<'a> Simulator<'a> {
    /// A simulator over a virtual web space.
    pub fn new(ws: &'a WebSpace, config: SimConfig) -> Self {
        Simulator {
            ws,
            config,
            scratch: EngineScratch::new(),
        }
    }

    /// How many times the reused scratch's attempt table had to
    /// allocate (see [`EngineScratch::attempt_table_allocs`]). At most
    /// one across any number of runs over the same space — the
    /// steady-state regression tests pin this.
    pub fn attempt_table_allocs(&self) -> u64 {
        self.scratch.attempt_table_allocs()
    }

    /// Run one crawl to completion (or to the fetch budget) and return
    /// its report. The simulator is reusable: each `run` starts fresh
    /// from the seeds.
    pub fn run<S, C>(&mut self, strategy: &mut S, classifier: &C) -> CrawlReport
    where
        S: Strategy + ?Sized,
        C: Classifier + ?Sized,
    {
        let ws = self.ws;
        let engine = CrawlEngine::new(
            ws,
            EngineConfig {
                max_pages: self.config.max_pages,
                sample_interval: self.config.sample_interval,
                url_filter: self.config.url_filter,
                fault: self
                    .config
                    .fault_override
                    .clone()
                    .unwrap_or_else(|| ws.fault().clone()),
                retry: self.config.retry,
                snapshot_every: self.config.snapshot_every,
            },
        );
        let mut metrics = MetricsSampler::new();
        let mut visits = VisitRecorder::new();
        let mut dir = self
            .config
            .snapshot_every
            .and_then(|_| self.snapshot_dir(run_fingerprint(strategy, classifier)));
        let mut sinks: Vec<&mut dyn EventSink> = Vec::with_capacity(3);
        sinks.push(&mut metrics);
        if self.config.record_visits {
            sinks.push(&mut visits);
        }
        if let Some(dir) = dir.as_mut() {
            sinks.push(dir);
        }
        let (outcome, _) = engine.run_scheduled(
            &self.config.sched,
            strategy,
            classifier,
            &mut sinks,
            &mut self.scratch,
        );

        CrawlReport {
            strategy: strategy.name(),
            classifier: classifier.name().to_string(),
            samples: metrics.into_samples(),
            crawled: outcome.crawled,
            relevant_crawled: outcome.relevant_crawled,
            total_relevant: ws.total_relevant() as u64,
            max_queue: outcome.max_pending,
            total_pushes: outcome.total_pushes,
            visited: visits.into_visited(),
            attempts: outcome.attempts,
            retries: outcome.retries,
            gave_up: outcome.gave_up,
            ticks: outcome.ticks,
        }
    }

    /// The sink a capturing run writes its snapshots through: a
    /// [`DirSink`] over `LANGCRAWL_SNAPSHOT_DIR` with the file prefix
    /// `crawl-<space identity fingerprint>-<run_fp>`, when the variable
    /// names a directory. `run` asks only when a cadence is configured.
    fn snapshot_dir(&self, run_fp: u64) -> Option<DirSink> {
        let dir = std::env::var("LANGCRAWL_SNAPSHOT_DIR")
            .ok()
            .filter(|dir| !dir.is_empty())?;
        let prefix = format!(
            "crawl-{:016x}-{run_fp:016x}",
            self.ws.identity_fingerprint()
        );
        Some(DirSink::new(dir, prefix))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::{MetaClassifier, OracleClassifier};
    use crate::strategy::{BreadthFirst, LimitedDistanceStrategy, SimpleStrategy};
    use langcrawl_charset::Language;
    use langcrawl_webgraph::GeneratorConfig;

    fn space() -> WebSpace {
        GeneratorConfig::thai_like().scaled(12_000).build(41)
    }

    #[test]
    fn breadth_first_crawls_everything() {
        let ws = space();
        let mut sim = Simulator::new(&ws, SimConfig::default());
        let r = sim.run(
            &mut BreadthFirst::new(),
            &OracleClassifier::target(Language::Thai),
        );
        assert_eq!(
            r.crawled,
            ws.num_pages() as u64,
            "BFS must exhaust the space"
        );
        assert!((r.final_coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn soft_focused_reaches_full_coverage() {
        let ws = space();
        let mut sim = Simulator::new(&ws, SimConfig::default());
        let r = sim.run(
            &mut SimpleStrategy::soft(),
            &OracleClassifier::target(Language::Thai),
        );
        assert!(
            (r.final_coverage() - 1.0).abs() < 1e-9,
            "soft coverage {}",
            r.final_coverage()
        );
    }

    #[test]
    fn hard_focused_hits_the_island_ceiling() {
        let ws = space();
        let mut sim = Simulator::new(&ws, SimConfig::default());
        let r = sim.run(
            &mut SimpleStrategy::hard(),
            &OracleClassifier::target(Language::Thai),
        );
        let cov = r.final_coverage();
        assert!(
            (0.5..0.9).contains(&cov),
            "hard coverage {cov} should sit at the ~1-island_mass ceiling"
        );
        // And it must stop early: far fewer fetches than the whole space.
        assert!(r.crawled < ws.num_pages() as u64);
    }

    #[test]
    fn focused_beats_breadth_first_early() {
        let ws = space();
        let mut sim = Simulator::new(&ws, SimConfig::default());
        let oracle = OracleClassifier::target(Language::Thai);
        let quarter = ws.num_pages() as u64 / 4;
        let bf = sim.run(&mut BreadthFirst::new(), &oracle);
        let soft = sim.run(&mut SimpleStrategy::soft(), &oracle);
        let hard = sim.run(&mut SimpleStrategy::hard(), &oracle);
        assert!(
            soft.harvest_at(quarter) > bf.harvest_at(quarter),
            "soft {} vs bf {}",
            soft.harvest_at(quarter),
            bf.harvest_at(quarter)
        );
        assert!(
            hard.harvest_at(quarter) > bf.harvest_at(quarter),
            "hard {} vs bf {}",
            hard.harvest_at(quarter),
            bf.harvest_at(quarter)
        );
    }

    #[test]
    fn soft_queue_dwarfs_hard_queue() {
        let ws = space();
        let mut sim = Simulator::new(&ws, SimConfig::default());
        let oracle = OracleClassifier::target(Language::Thai);
        let soft = sim.run(&mut SimpleStrategy::soft(), &oracle);
        let hard = sim.run(&mut SimpleStrategy::hard(), &oracle);
        // The paper's Fig. 5 shows roughly 8×; on the synthetic space the
        // factor is ~3 (documented in EXPERIMENTS.md) — the property under
        // test is "several-fold", not the exact dataset-specific factor.
        assert!(
            soft.max_queue > 2 * hard.max_queue,
            "soft {} vs hard {}",
            soft.max_queue,
            hard.max_queue
        );
    }

    #[test]
    fn limited_distance_coverage_grows_with_n() {
        let ws = space();
        let mut sim = Simulator::new(&ws, SimConfig::default());
        let oracle = OracleClassifier::target(Language::Thai);
        let mut prev = 0.0;
        for n in [1u8, 2, 3, 4] {
            let r = sim.run(&mut LimitedDistanceStrategy::non_prioritized(n), &oracle);
            let cov = r.final_coverage();
            assert!(
                cov >= prev - 0.02,
                "N={n}: coverage {cov} < previous {prev}"
            );
            prev = cov;
        }
    }

    #[test]
    fn limited_distance_queue_grows_with_n() {
        let ws = space();
        let mut sim = Simulator::new(&ws, SimConfig::default());
        let oracle = OracleClassifier::target(Language::Thai);
        let q1 = sim
            .run(&mut LimitedDistanceStrategy::non_prioritized(1), &oracle)
            .max_queue;
        let q4 = sim
            .run(&mut LimitedDistanceStrategy::non_prioritized(4), &oracle)
            .max_queue;
        assert!(q4 > q1, "N=4 queue {q4} should exceed N=1 queue {q1}");
    }

    #[test]
    fn budget_stops_the_crawl() {
        let ws = space();
        let mut sim = Simulator::new(&ws, SimConfig::default().with_max_pages(500));
        let r = sim.run(
            &mut BreadthFirst::new(),
            &OracleClassifier::target(Language::Thai),
        );
        assert_eq!(r.crawled, 500);
        assert_eq!(r.samples.last().unwrap().crawled, 500);
    }

    #[test]
    fn meta_classifier_misses_some_relevant_pages() {
        // Mislabeling + UTF-8 labels make META-based soft crawling cover
        // slightly less than the oracle, but it still crawls everything
        // (admission doesn't depend on the target's classifier verdict in
        // soft mode).
        let ws = space();
        let mut sim = Simulator::new(&ws, SimConfig::default());
        let r = sim.run(
            &mut SimpleStrategy::soft(),
            &MetaClassifier::target(Language::Thai),
        );
        assert!((r.final_coverage() - 1.0).abs() < 1e-9);
        // Hard mode with META classification: mislabeled pages cut off
        // expansion, so coverage is below the oracle's ceiling.
        let hard_meta = sim.run(
            &mut SimpleStrategy::hard(),
            &MetaClassifier::target(Language::Thai),
        );
        let hard_oracle = sim.run(
            &mut SimpleStrategy::hard(),
            &OracleClassifier::target(Language::Thai),
        );
        assert!(hard_meta.final_coverage() <= hard_oracle.final_coverage() + 1e-9);
    }

    #[test]
    fn samples_are_monotone() {
        let ws = space();
        let mut sim = Simulator::new(&ws, SimConfig::default());
        let r = sim.run(
            &mut SimpleStrategy::soft(),
            &OracleClassifier::target(Language::Thai),
        );
        for w in r.samples.windows(2) {
            assert!(w[1].crawled > w[0].crawled);
            assert!(w[1].relevant >= w[0].relevant);
        }
    }

    #[test]
    fn fault_override_degrades_harvest_but_not_determinism() {
        use langcrawl_webgraph::FaultConfig;
        let ws = space();
        let oracle = OracleClassifier::target(Language::Thai);
        let mut clean_sim = Simulator::new(&ws, SimConfig::default());
        let clean = clean_sim.run(&mut SimpleStrategy::soft(), &oracle);
        let mut faulted_sim = Simulator::new(
            &ws,
            SimConfig::default().with_faults(FaultConfig::with_rate(0.2)),
        );
        let faulted = faulted_sim.run(&mut SimpleStrategy::soft(), &oracle);
        // Dead hosts and exhausted retries cost pages: harvest is net of
        // failures, so a faulted crawl delivers at most the clean count.
        assert!(faulted.relevant_crawled < clean.relevant_crawled);
        assert!(faulted.retries > 0);
        assert_eq!(faulted.attempts, faulted.crawled + faulted.retries);
        // Clean runs report trivial fault counters.
        assert_eq!(clean.attempts, clean.crawled);
        assert_eq!(clean.retries, 0);
        assert_eq!(clean.gave_up, 0);
        // And the faulted schedule is reproducible.
        let again = faulted_sim.run(&mut SimpleStrategy::soft(), &oracle);
        assert_eq!(faulted.samples, again.samples);
        assert_eq!(faulted.retries, again.retries);
    }

    #[test]
    fn attempt_table_allocates_at_most_once_across_runs() {
        use langcrawl_webgraph::FaultConfig;
        let ws = space();
        let oracle = OracleClassifier::target(Language::Thai);
        // Zero-fault runs never materialize the attempt table at all.
        let mut clean = Simulator::new(&ws, SimConfig::default());
        clean.run(&mut SimpleStrategy::soft(), &oracle);
        assert_eq!(clean.attempt_table_allocs(), 0);
        // A faulted run materializes it exactly once; the second run on
        // the same simulator reuses the grown table — zero further
        // attempt-table allocations.
        let mut faulted = Simulator::new(
            &ws,
            SimConfig::default().with_faults(FaultConfig::with_rate(0.2)),
        );
        let first = faulted.run(&mut SimpleStrategy::soft(), &oracle);
        assert!(
            first.retries > 0,
            "fault rate must actually trigger retries"
        );
        let after_first = faulted.attempt_table_allocs();
        assert_eq!(after_first, 1);
        faulted.run(&mut SimpleStrategy::soft(), &oracle);
        assert_eq!(
            faulted.attempt_table_allocs(),
            after_first,
            "second run must not re-grow the attempt table"
        );
    }

    #[test]
    fn deterministic_runs() {
        let ws = space();
        let mut sim = Simulator::new(&ws, SimConfig::default());
        let oracle = OracleClassifier::target(Language::Thai);
        let a = sim.run(&mut SimpleStrategy::soft(), &oracle);
        let b = sim.run(&mut SimpleStrategy::soft(), &oracle);
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.crawled, b.crawled);
    }
}
