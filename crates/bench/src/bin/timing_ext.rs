//! Extension 1 — the paper's future work: transfer delays and
//! per-server access intervals.
//!
//! §6 plans to "enhance our crawling simulator by incorporating transfer
//! delays and access intervals". This harness runs timed crawls (the
//! K-slot scheduler with its timing model on) over the Thai space and
//! measures:
//!
//! * wall-clock vs politeness-interval trade-off (per-server delay sweep),
//! * connection-count scaling,
//! * harvest-vs-wall-clock for the paper's strategies (the focused
//!   advantage survives the timing model).

fn main() {
    langcrawl_bench::harnesses::timing_ext::run();
}
