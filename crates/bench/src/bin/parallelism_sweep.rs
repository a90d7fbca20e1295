//! Parallelism sweep — the virtual-time scheduler at K ∈ {1, 4, 16}
//! fetch slots over the host-partitioned frontier, with and without
//! per-host politeness gaps. Reports makespan, speedup, slot-idle
//! stalls, politeness waits, cross-shard handoff traffic and shard load
//! imbalance; the crawl itself (pages, harvest) is invariant.

fn main() {
    langcrawl_bench::harnesses::parallelism_sweep::run();
}
