//! Scheduler conformance: the virtual-time scheduler at `K = 1` with
//! zero politeness must be **bit-identical** to the legacy engine, and
//! multi-slot schedules must themselves be pinned and thread-invariant.
//!
//! Three layers of pinning:
//!
//! 1. A single-slot scheduled run is hashed against the *same* golden
//!    constants the `fault_conformance` suite pins for the legacy
//!    engine (captured before the fault subsystem existed). Any
//!    divergence between the two run paths — ordering, sampling,
//!    counters, visit order — shows up as a hash mismatch here.
//! 2. Multi-slot runs (`K ∈ {2, 8}`) get their own golden hashes: the
//!    schedule is a pure function of (space seed, config), so these pin
//!    the scheduler's tie-break discipline across time.
//! 3. The same hashes are asserted under different `LANGCRAWL_THREADS`
//!    settings (which parallelize space *generation*): the constants
//!    are absolute, so running this binary under any thread count — as
//!    CI does — proves thread-invariance end to end, and the in-process
//!    sweep below re-generates the space on 1 and 4 threads for good
//!    measure.

use langcrawl_core::classifier::{MetaClassifier, OracleClassifier};
use langcrawl_core::metrics::CrawlReport;
use langcrawl_core::sim::{SimConfig, Simulator};
use langcrawl_core::strategy::{BreadthFirst, LimitedDistanceStrategy, SimpleStrategy};
use langcrawl_webgraph::generate::generate_with_threads;
use langcrawl_webgraph::GeneratorConfig;

/// FNV-1a over the pre-fault-model report fields — byte-for-byte the
/// same folding as `fault_conformance::report_hash`, so hashes are
/// comparable across the two suites. (`ticks` and the fault counters
/// are deliberately excluded: the legacy goldens predate them.)
fn report_hash(r: &CrawlReport) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold_bytes = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
    };
    fold_bytes(r.strategy.as_bytes());
    fold_bytes(r.classifier.as_bytes());
    let mut fold = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
    };
    fold(r.samples.len() as u64);
    for s in &r.samples {
        fold(s.crawled);
        fold(s.relevant);
        fold(s.queue_size as u64);
    }
    fold(r.crawled);
    fold(r.relevant_crawled);
    fold(r.total_relevant);
    fold(r.max_queue as u64);
    fold(r.total_pushes);
    fold(r.visited.len() as u64);
    for &v in &r.visited {
        fold(v as u64);
    }
    h
}

/// The pinned space: same preset/scale/seed as `fault_conformance` and
/// `engine_parity`.
fn space() -> langcrawl_webgraph::WebSpace {
    GeneratorConfig::thai_like().scaled(12_000).build(41)
}

/// The pinned space, generated on exactly `threads` threads.
fn space_on(threads: usize) -> langcrawl_webgraph::WebSpace {
    generate_with_threads(&GeneratorConfig::thai_like().scaled(12_000), 41, threads)
}

/// The three pinned strategy/classifier pairs, run under the scheduler
/// with `k` slots and zero politeness.
fn scheduled_runs(ws: &langcrawl_webgraph::WebSpace, k: u32) -> Vec<(&'static str, CrawlReport)> {
    let config = SimConfig::default().with_visit_recording().with_workers(k);
    let mut sim = Simulator::new(ws, config);
    vec![
        (
            "breadth_first/oracle",
            sim.run(
                &mut BreadthFirst::new(),
                &OracleClassifier::target(ws.target_language()),
            ),
        ),
        (
            "soft_focused/meta",
            sim.run(
                &mut SimpleStrategy::soft(),
                &MetaClassifier::target(ws.target_language()),
            ),
        ),
        (
            "limited_distance_3/oracle",
            sim.run(
                &mut LimitedDistanceStrategy::prioritized(3),
                &OracleClassifier::target(ws.target_language()),
            ),
        ),
    ]
}

// The legacy-engine goldens, copied verbatim from `fault_conformance`
// (captured from the pre-fault-model engine): a `K = 1`, politeness-0
// scheduled run must reproduce them exactly.
const GOLDEN_BF: u64 = 0x5af6_b0d1_35f4_3b35;
const GOLDEN_SOFT: u64 = 0x8cbf_d1f5_bf63_739f;
const GOLDEN_LIMITED: u64 = 0x6080_ba7a_e671_6b67;

// Multi-slot goldens, captured from the scheduler at introduction.
// Regenerate only for a deliberate, documented schedule change; on
// mismatch the test prints the observed values.
const GOLDEN_K2: [u64; 3] = [
    0x9e92_bf6c_6a79_dc0e, // breadth_first/oracle
    0x1b21_af96_4b40_f9db, // soft_focused/meta
    0xae79_a33a_f27e_64a6, // limited_distance_3/oracle
];
const GOLDEN_K8: [u64; 3] = [
    0x18ba_6448_afa8_6b58, // breadth_first/oracle
    0xe3fc_e642_5692_c557, // soft_focused/meta
    0xe1c6_e933_dab2_3754, // limited_distance_3/oracle
];

#[test]
fn single_slot_scheduled_runs_match_legacy_goldens() {
    let ws = space();
    let mut bad = Vec::new();
    for ((name, report), golden) in
        scheduled_runs(&ws, 1)
            .iter()
            .zip([GOLDEN_BF, GOLDEN_SOFT, GOLDEN_LIMITED])
    {
        let got = report_hash(report);
        if got != golden {
            bad.push(format!(
                "{name}: K=1 scheduled hash {got:#018x} != legacy golden {golden:#018x}"
            ));
        }
    }
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

#[test]
fn multi_slot_schedules_match_their_goldens() {
    let ws = space();
    let mut bad = Vec::new();
    for (k, goldens) in [(2u32, GOLDEN_K2), (8, GOLDEN_K8)] {
        for ((name, report), golden) in scheduled_runs(&ws, k).iter().zip(goldens) {
            let got = report_hash(report);
            if got != golden {
                bad.push(format!(
                    "{name}: K={k} hash {got:#018x} != golden {golden:#018x}"
                ));
            }
        }
    }
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

/// Multi-slot schedules do the same *work* as the legacy engine — same
/// pages, same harvest — they only overlap fetches in time, shrinking
/// the makespan. (The visit *order* differs, which is why K>1 has its
/// own goldens above. Push *totals* are only order-independent under
/// breadth-first, where all admission keys are equal; prioritizing
/// strategies accept a re-prioritization only when it is strictly
/// better *at that moment*, so their totals move with the schedule.)
#[test]
fn multi_slot_schedules_preserve_totals_and_shrink_makespan() {
    let ws = space();
    let k1 = scheduled_runs(&ws, 1);
    for k in [2u32, 8] {
        for ((name, base), (_, run)) in k1.iter().zip(scheduled_runs(&ws, k)) {
            assert_eq!(run.crawled, base.crawled, "{name} K={k}");
            assert_eq!(run.relevant_crawled, base.relevant_crawled, "{name} K={k}");
            if *name == "breadth_first/oracle" {
                assert_eq!(run.total_pushes, base.total_pushes, "{name} K={k}");
            }
            assert!(
                run.ticks < base.ticks,
                "{name} K={k}: makespan {} must beat K=1's {}",
                run.ticks,
                base.ticks
            );
        }
    }
}

/// Re-generate the space on 1 and 4 threads in-process and re-run the
/// schedule: every hash must stay put. (Determinism of the per-host
/// PRNG streams makes the space identical for any chunking, and the
/// scheduler never looks at thread count at all.)
#[test]
fn schedules_are_invariant_across_thread_settings() {
    let mut baseline: Option<Vec<u64>> = None;
    for threads in [1, 4] {
        let ws = space_on(threads);
        let mut hashes = Vec::new();
        for k in [1u32, 2, 8] {
            for (_, report) in scheduled_runs(&ws, k) {
                hashes.push(report_hash(&report));
            }
        }
        match &baseline {
            None => baseline = Some(hashes),
            Some(b) => assert_eq!(
                b, &hashes,
                "schedule hashes changed on a space generated on {threads} threads"
            ),
        }
    }
}
