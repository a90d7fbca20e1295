//! The shared experiment descriptor every figure binary shrinks onto.
//!
//! Each harness used to hand-roll the same sequence: read
//! `LANGCRAWL_SCALE`/`LANGCRAWL_SEED`, print a banner, build the preset
//! web space, construct a strategy set, run them in parallel under a
//! classifier, draw chart+table panels, and write CSVs + gnuplot
//! scripts under `results/`. [`Experiment`] is that sequence as data: a
//! preset, a default scale, a [`SimConfig`], a classifier factory and a
//! named strategy set. Binaries declare the descriptor, call
//! [`Experiment::run`], and keep only their figure-specific panels and
//! shape checks.

use crate::chart::AsciiChart;
use crate::gnuplot::{sanitize, write_script, PlotKind};
use crate::runner::{
    env_scale, env_seed, print_table, run_parallel, write_csv_reporting, StrategyFactory,
};
use langcrawl_core::classifier::{Classifier, MetaClassifier, OracleClassifier};
use langcrawl_core::metrics::CrawlReport;
use langcrawl_core::sim::SimConfig;
use langcrawl_webgraph::{GeneratorConfig, WebSpace};
use std::sync::Arc;

/// Builds the classifier once the web space exists (most classifiers
/// need the space's target language).
pub type ClassifierFactory = Box<dyn Fn(&WebSpace) -> Box<dyn Classifier + Sync>>;

/// A declarative experiment: preset + scale + seed + strategy set +
/// classifier + output prefix.
pub struct Experiment {
    title: String,
    file_prefix: &'static str,
    preset: GeneratorConfig,
    default_scale: u32,
    config: SimConfig,
    classifier: ClassifierFactory,
    strategies: Vec<(&'static str, StrategyFactory<'static>)>,
    banner: bool,
}

impl std::fmt::Debug for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Experiment")
            .field("title", &self.title)
            .field("file_prefix", &self.file_prefix)
            .field("default_scale", &self.default_scale)
            .field(
                "strategies",
                &self.strategies.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            )
            .finish_non_exhaustive()
    }
}

impl Experiment {
    /// An experiment over `preset`, writing outputs as
    /// `results/<file_prefix>_*`. Scale defaults to the preset's figure
    /// default (200k URLs) and the classifier to the META-label path the
    /// paper used for Thai; override with the builder methods.
    pub fn new(file_prefix: &'static str, title: &str, preset: GeneratorConfig) -> Self {
        Experiment {
            title: title.to_string(),
            file_prefix,
            preset,
            default_scale: 200_000,
            config: SimConfig::default(),
            classifier: Box::new(|ws| Box::new(MetaClassifier::target(ws.target_language()))),
            strategies: Vec::new(),
            banner: true,
        }
    }

    /// Default space size (URLs) when `LANGCRAWL_SCALE` is unset.
    pub fn scale(mut self, default: u32) -> Self {
        self.default_scale = default;
        self
    }

    /// Simulation parameters for every strategy run.
    pub fn sim_config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Layer a fault model over every strategy run (see
    /// [`SimConfig::fault_override`]) — for sensitivity sweeps reusing
    /// one generated space across fault rates.
    pub fn faults(mut self, fault: langcrawl_webgraph::FaultConfig) -> Self {
        self.config.fault_override = Some(fault);
        self
    }

    /// Replace the classifier (default: META charset label).
    pub fn classifier_with(
        mut self,
        f: impl Fn(&WebSpace) -> Box<dyn Classifier + Sync> + 'static,
    ) -> Self {
        self.classifier = Box::new(f);
        self
    }

    /// Judge relevance by ground truth (for ablations).
    pub fn oracle_classifier(self) -> Self {
        self.classifier_with(|ws| Box::new(OracleClassifier::target(ws.target_language())))
    }

    /// Add a strategy to the run set (each run builds a fresh instance).
    pub fn strategy(
        mut self,
        name: &'static str,
        f: impl Fn(&WebSpace) -> Box<dyn langcrawl_core::strategy::Strategy> + Sync + 'static,
    ) -> Self {
        self.strategies.push((name, Box::new(f)));
        self
    }

    /// Capture a crash-safe crawl snapshot every `every` ticks on each
    /// strategy run (see [`SimConfig::snapshot_every`]). Files land in
    /// `LANGCRAWL_SNAPSHOT_DIR` when that variable is set; capture never
    /// alters the crawl.
    pub fn snapshot_every(mut self, every: u64) -> Self {
        self.config = self.config.clone().with_snapshot_every(every);
        self
    }

    /// Suppress the banner line — for sweep loops that run many
    /// experiment instances and print their own table.
    pub fn quiet(mut self) -> Self {
        self.banner = false;
        self
    }

    /// Build the space (honoring `LANGCRAWL_SCALE`/`LANGCRAWL_SEED`)
    /// through the process-wide [`langcrawl_webgraph::SpaceCache`], run
    /// every strategy in parallel, and return space + reports. Repeat
    /// runs over the same `(preset, scale, seed)` — in this experiment
    /// or any other in the same process — share one immutable space.
    pub fn run(&self) -> ExperimentRun {
        let scale = env_scale(self.default_scale);
        let seed = env_seed();
        if self.banner {
            println!("== {} (n={scale}, seed={seed}) ==", self.title);
        }
        let ws = self.preset.clone().scaled(scale).build_shared(seed);
        let reports = self.run_on(&ws);
        ExperimentRun {
            ws,
            reports,
            file_prefix: self.file_prefix,
        }
    }

    /// Run the strategy set on an already-built space (for harnesses
    /// that sweep generator knobs and build their spaces themselves).
    /// `LANGCRAWL_SNAPSHOT_EVERY` supplies a snapshot cadence for
    /// experiments that didn't set one — any figure binary becomes
    /// checkpointable from the environment alone (paired with
    /// `LANGCRAWL_SNAPSHOT_DIR` for the output directory).
    pub fn run_on(&self, ws: &WebSpace) -> Vec<CrawlReport> {
        let classifier = (self.classifier)(ws);
        let mut config = self.config.clone();
        if config.snapshot_every.is_none() {
            if let Some(every) = std::env::var("LANGCRAWL_SNAPSHOT_EVERY")
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
            {
                config = config.with_snapshot_every(every);
            }
        }
        run_parallel(ws, &self.strategies, classifier.as_ref(), &config)
    }
}

/// A completed experiment: the space it ran on and one report per
/// strategy, plus the panel/output helpers the figure binaries share.
#[derive(Debug)]
pub struct ExperimentRun {
    /// The web space all strategies crawled (shared via the space
    /// cache — cloning the handle is cheap).
    pub ws: Arc<WebSpace>,
    /// One report per strategy, in declaration order.
    pub reports: Vec<CrawlReport>,
    file_prefix: &'static str,
}

impl ExperimentRun {
    /// `num_pages / denom` — the "early crawl" x-coordinate of the shape
    /// checks.
    pub fn early(&self, denom: u64) -> u64 {
        self.ws.num_pages() as u64 / denom
    }

    /// Draw one panel: an ASCII chart plus an aligned table of `value`
    /// (report, sample index) for every strategy.
    pub fn panel(
        &self,
        title: &str,
        unit: &str,
        y_max: Option<f64>,
        value: impl Fn(&CrawlReport, usize) -> f64,
    ) {
        let mut chart = AsciiChart::new(&format!("{title} vs pages crawled"), unit);
        if let Some(m) = y_max {
            chart = chart.y_max(m);
        }
        for r in &self.reports {
            chart.series(
                &r.strategy,
                r.samples
                    .iter()
                    .enumerate()
                    .map(|(j, s)| (s.crawled as f64, value(r, j)))
                    .collect(),
            );
        }
        chart.print();
        print_table(title, &self.reports, 16, |r, j| Some(value(r, j)));
    }

    /// Harvest-rate panel in percent.
    pub fn harvest_panel(&self, title: &str) {
        self.panel(title, "harvest%", Some(100.0), |r, j| {
            100.0 * r.samples[j].harvest_rate()
        });
    }

    /// Coverage panel in percent.
    pub fn coverage_panel(&self, title: &str) {
        self.panel(title, "cover%", Some(100.0), |r, j| {
            100.0 * r.coverage_at(&r.samples[j])
        });
    }

    /// Pending-URL (queue size) panel.
    pub fn queue_panel(&self, title: &str) {
        self.panel(title, "queue", None, |r, j| r.samples[j].queue_size as f64);
    }

    /// Print every report's summary row, write per-strategy CSVs under
    /// `results/<prefix>_<strategy>.csv` (failures are reported, not
    /// swallowed), and emit one gnuplot script per requested plot.
    pub fn emit(&self, plots: &[(PlotKind, &str)]) {
        println!();
        for r in &self.reports {
            println!("{}", r.summary_row());
            write_csv_reporting(
                r,
                &format!("{}_{}", self.file_prefix, sanitize(&r.strategy)),
            );
        }
        for &(kind, title) in plots {
            write_script(title, kind, &self.reports, self.file_prefix);
        }
    }

    /// The three-panel (queue / harvest / coverage) figure layout of
    /// Fig. 6 and Fig. 7, outputs included.
    pub fn three_panels(&self, fig: &str) {
        self.queue_panel(&format!("{fig}(a) URL queue size [URLs]"));
        self.harvest_panel(&format!("{fig}(b) Harvest Rate [%]"));
        self.coverage_panel(&format!("{fig}(c) Coverage [%]"));
        let q = format!("{fig}(a) URL queue size");
        let h = format!("{fig}(b) Harvest Rate");
        let c = format!("{fig}(c) Coverage");
        self.emit(&[
            (PlotKind::QueueSize, q.as_str()),
            (PlotKind::Harvest, h.as_str()),
            (PlotKind::Coverage, c.as_str()),
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use langcrawl_core::strategy::{BreadthFirst, SimpleStrategy};

    fn tiny() -> Experiment {
        Experiment::new(
            "unit_exp",
            "unit test experiment",
            GeneratorConfig::thai_like(),
        )
        .scale(2_000)
        .quiet()
        .strategy("bf", |_| Box::new(BreadthFirst::new()))
        .strategy("soft", |_| Box::new(SimpleStrategy::soft()))
    }

    #[test]
    fn run_produces_one_report_per_strategy() {
        let run = tiny().run();
        assert_eq!(run.reports.len(), 2);
        assert_eq!(run.reports[0].strategy, "breadth-first");
        assert!(run.reports.iter().all(|r| r.crawled > 0));
        assert_eq!(run.early(4), run.ws.num_pages() as u64 / 4);
    }

    #[test]
    fn run_on_reuses_a_space_and_matches_run() {
        let e = tiny();
        let run = e.run();
        let again = e.run_on(&run.ws);
        assert_eq!(run.reports, again, "same space, same reports");
    }

    #[test]
    fn oracle_classifier_switches_the_judgment_path() {
        let run = tiny().oracle_classifier().run();
        assert!(run.reports.iter().all(|r| r.classifier == "oracle"));
    }
}
