//! # langcrawl-bench — experiment harness
//!
//! Shared machinery for the harnesses that regenerate every table and
//! figure of the paper (see DESIGN.md §4 for the experiment index), and
//! their one binary, `repro_all`, which runs the harnesses named on its
//! command line (`repro_all fig3 timing_ext`), or all of them, and ends
//! with a pass/fail dashboard. The crate's one bench target,
//! `capture_overhead`, gates the cost of snapshot capture; its
//! `steady_state` test counts allocations in the warm crawl loop.
//!
//! Each figure harness declares an [`experiment::Experiment`] — preset +
//! scale + seed + strategy set + classifier + output prefix — and:
//! 1. builds the preset web space (size overridable with
//!    `LANGCRAWL_SCALE=<urls>`; seed with `LANGCRAWL_SEED=<u64>`),
//! 2. runs the paper's strategies (in parallel, one thread each — the
//!    web space is immutable and shared),
//! 3. prints the paper's series as aligned tables plus an ASCII plot,
//!    writes machine-readable CSVs under `results/`, and returns the
//!    verdicts of its shape checks ([`figures::Checks`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;
pub mod experiment;
pub mod figures;
pub mod gnuplot;
pub mod harnesses;
pub mod runner;

pub use chart::AsciiChart;
pub use experiment::{Experiment, ExperimentRun};
pub use runner::{env_scale, env_seed, run_parallel, write_csv, StrategyFactory};
