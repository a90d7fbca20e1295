//! Reproduction harnesses, one module per table, figure, ablation and
//! extension. Each module's `run()` prints its tables and shape checks,
//! writes its result files, and returns its checks' verdicts; the
//! `repro_all` binary runs the ones named on its command line, or all
//! of them, in one process that shares one `SpaceCache`.

pub mod ablation_classifier;
pub mod ablation_locality;
pub mod ablation_ordering;
pub mod ablation_seeds;
pub mod ablation_tld;
pub mod dataset_collection;
pub mod extensions;
pub mod fault_sensitivity;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod graph_stats;
pub mod parallelism_sweep;
pub mod table1;
pub mod table3;
pub mod timing_ext;
pub mod wider_languages;

use crate::figures::Checks;

/// A harness's entry point: it runs the harness at its default scale
/// (or `LANGCRAWL_SCALE`) and returns the verdicts of its checks.
pub type Harness = fn() -> Checks;

/// All harnesses in dashboard order: `(name, entry point)` — tables
/// first, then figures, then ablations and extensions.
pub const ALL: &[(&str, Harness)] = &[
    ("table1", table1::run),
    ("table3", table3::run),
    ("fig3", fig3::run),
    ("fig4", fig4::run),
    ("fig5", fig5::run),
    ("fig6", fig6::run),
    ("fig7", fig7::run),
    ("graph_stats", graph_stats::run),
    ("ablation_locality", ablation_locality::run),
    ("ablation_classifier", ablation_classifier::run),
    ("ablation_seeds", ablation_seeds::run),
    ("ablation_ordering", ablation_ordering::run),
    ("ablation_tld", ablation_tld::run),
    ("dataset_collection", dataset_collection::run),
    ("fault_sensitivity", fault_sensitivity::run),
    ("parallelism_sweep", parallelism_sweep::run),
    ("timing_ext", timing_ext::run),
    ("extensions", extensions::run),
    ("wider_languages", wider_languages::run),
];
