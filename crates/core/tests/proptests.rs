//! Property tests for the simulator core: the [`Frontier`]
//! implementations against a reference model of the bucketed pop
//! discipline, and crawl-level invariants over random spaces,
//! strategies and budgets.

use langcrawl_core::classifier::{MetaClassifier, OracleClassifier};
use langcrawl_core::frontier::Frontier;
use langcrawl_core::queue::{Entry, UrlQueue};
use langcrawl_core::shard::ShardedFrontier;
use langcrawl_core::sim::{SimConfig, Simulator};
use langcrawl_core::strategy::{
    BreadthFirst, CombinedStrategy, LimitedDistanceStrategy, SimpleStrategy,
};
use langcrawl_minicheck::{check, check_default, Gen};
use langcrawl_webgraph::GeneratorConfig;

// ------------------------------------------------------------- frontier

/// Reference model of a frontier: a sorted scan over explicit state.
/// Admission accepts a first discovery or a strictly better key, never
/// a done page; pops take the lowest priority *level* (distance never
/// affects order), FIFO by the best admission's sequence.
struct ModelFrontier {
    /// (page, best key, insertion sequence of the best admission)
    pending: Vec<(u32, u16, u64)>,
    done: std::collections::HashSet<u32>,
    seq: u64,
}

impl ModelFrontier {
    fn new() -> Self {
        ModelFrontier {
            pending: Vec::new(),
            done: std::collections::HashSet::new(),
            seq: 0,
        }
    }

    fn push(&mut self, e: Entry) -> bool {
        if self.done.contains(&e.page) {
            return false;
        }
        let key = ((e.priority as u16) << 8) | e.distance as u16;
        self.seq += 1;
        match self.pending.iter_mut().find(|(p, _, _)| *p == e.page) {
            Some(slot) => {
                if key < slot.1 {
                    slot.1 = key;
                    slot.2 = self.seq;
                    true
                } else {
                    false
                }
            }
            None => {
                self.pending.push((e.page, key, self.seq));
                true
            }
        }
    }

    fn pop(&mut self) -> Option<u32> {
        let idx = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|(_, (_, key, seq))| (*key >> 8, *seq))
            .map(|(i, _)| i)?;
        let (page, _, _) = self.pending.remove(idx);
        self.done.insert(page);
        Some(page)
    }
}

/// (op, page, priority, distance): op 0..3 = push, 3 = pop.
fn arb_ops(g: &mut Gen) -> Vec<(u8, u32, u8, u8)> {
    g.vec(1..400, |g| {
        (g.u8(0..=3), g.u32(0..64), g.u8(0..=3), g.u8(0..=3))
    })
}

/// Drive a real frontier and the model through the same op sequence,
/// asserting agreement on every push verdict and every pop.
fn assert_matches_model<F: Frontier>(mut real: F, ops: &[(u8, u32, u8, u8)]) {
    let mut model = ModelFrontier::new();
    for &(op, page, priority, distance) in ops {
        if op < 3 {
            let e = Entry {
                page,
                priority,
                distance,
            };
            assert_eq!(real.push(e), model.push(e), "push {e:?}");
        } else {
            assert_eq!(real.pop().map(|e| e.page), model.pop());
        }
        assert_eq!(real.pending(), model.pending.len());
    }
    // Drain both fully.
    loop {
        let a = real.pop().map(|e| e.page);
        let b = model.pop();
        assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
}

/// The bucketed queue and the reference model agree on every pop, under
/// arbitrary interleavings of pushes (including duplicates and
/// re-prioritizations) and pops.
#[test]
fn url_queue_matches_reference_model() {
    check_default(|g| {
        let ops = arb_ops(g);
        assert_matches_model(UrlQueue::new(64, 4), &ops);
    });
}

/// For both implementations: `pending()` always equals the count of
/// distinct admitted-not-popped pages regardless of duplicates and
/// re-prioritizations, and `done` pages never re-enter.
#[test]
fn frontier_pending_counts_distinct_and_done_is_final() {
    fn run(real: &mut dyn Frontier, ops: &[(u8, u32, u8, u8)]) {
        let mut admitted = std::collections::HashSet::new();
        let mut popped_pages = std::collections::HashSet::new();
        for &(op, page, priority, distance) in ops {
            if op < 3 {
                let accepted = real.push(Entry {
                    page,
                    priority,
                    distance,
                });
                if real.was_admitted(page) {
                    admitted.insert(page);
                }
                assert!(
                    !(accepted && popped_pages.contains(&page)),
                    "done page {page} re-entered the frontier"
                );
            } else if let Some(e) = real.pop() {
                assert!(popped_pages.insert(e.page), "page {} popped twice", e.page);
                assert!(real.is_done(e.page));
            }
            assert_eq!(real.pending(), admitted.len() - popped_pages.len());
            assert!(real.pending() <= real.max_pending());
        }
    }
    check_default(|g| {
        let ops = arb_ops(g);
        run(&mut UrlQueue::new(64, 4), &ops);
        let hosts: Vec<u32> = (0..64).map(|p| p % 7).collect();
        run(&mut ShardedFrontier::new(hosts, 7, 4, 3), &ops);
    });
}

/// Pop order respects the priority level: for any push-only prefix,
/// draining the queue yields levels that never decrease.
#[test]
fn frontier_pop_order_is_monotone_in_key() {
    check_default(|g| {
        let pushes = g.vec(1..200, |g| Entry {
            page: g.u32(0..64),
            priority: g.u8(0..=3),
            distance: g.u8(0..=3),
        });
        let mut q = UrlQueue::new(64, 4);
        for &e in &pushes {
            q.push(e);
        }
        let mut prev = 0u8;
        while let Some(e) = q.pop() {
            assert!(
                e.priority >= prev,
                "pop level went backwards: {prev} then {}",
                e.priority
            );
            prev = e.priority;
        }
    });
}

/// The sharded frontier is [`UrlQueue`] with different storage: under
/// random push/pop/**requeue** interleavings (requeue is the engine's
/// retry re-admission path, with its own semantics on done pages) the
/// two agree on every verdict, every popped entry, and all accounting —
/// with one shard and with several, since each ready host exposes
/// exactly its minimum entry and the global minimum is shard-invariant.
#[test]
fn sharded_frontier_matches_url_queue_including_requeue() {
    /// (op, page, priority, distance): op 0..3 = push, 3 = pop,
    /// 4 = requeue.
    fn arb_requeue_ops(g: &mut Gen) -> Vec<(u8, u32, u8, u8)> {
        g.vec(1..400, |g| {
            (g.u8(0..=4), g.u32(0..64), g.u8(0..=3), g.u8(0..=3))
        })
    }
    check_default(|g| {
        let ops = arb_requeue_ops(g);
        for shards in [1usize, 3] {
            let mut q = UrlQueue::new(64, 4);
            // 64 pages over 7 hosts, striped so shards interleave.
            let hosts: Vec<u32> = (0..64).map(|p| p % 7).collect();
            let mut s = ShardedFrontier::new(hosts, 7, 4, shards);
            for &(op, page, priority, distance) in &ops {
                let e = Entry {
                    page,
                    priority,
                    distance,
                };
                match op {
                    0..=2 => assert_eq!(
                        Frontier::push(&mut q, e),
                        s.push(e),
                        "push {e:?} ({shards} shards)"
                    ),
                    3 => assert_eq!(Frontier::pop(&mut q), s.pop(), "{shards} shards"),
                    _ => assert_eq!(
                        Frontier::requeue(&mut q, e),
                        s.requeue(e),
                        "requeue {e:?} ({shards} shards)"
                    ),
                }
                assert_eq!(Frontier::pending(&q), s.pending());
                assert_eq!(Frontier::max_pending(&q), s.max_pending());
                assert_eq!(Frontier::total_pushes(&q), s.total_pushes());
                assert_eq!(Frontier::is_done(&q, page), s.is_done(page));
                assert_eq!(Frontier::was_admitted(&q, page), s.was_admitted(page));
            }
            // Drain both fully: the tails must agree entry by entry.
            loop {
                let a = Frontier::pop(&mut q);
                let b = s.pop();
                assert_eq!(a, b, "{shards} shards");
                if a.is_none() {
                    break;
                }
            }
        }
    });
}

// ------------------------------------------------------------- simulator

fn build_strategy(code: u8) -> Box<dyn langcrawl_core::strategy::Strategy> {
    match code {
        0 => Box::new(BreadthFirst::new()),
        1 => Box::new(SimpleStrategy::hard()),
        2 => Box::new(SimpleStrategy::soft()),
        3 => Box::new(LimitedDistanceStrategy::non_prioritized(2)),
        4 => Box::new(LimitedDistanceStrategy::prioritized(3)),
        5 => Box::new(CombinedStrategy::soft_limited(2)),
        _ => Box::new(CombinedStrategy::hard_limited(1)),
    }
}

/// Crawl-level invariants hold for every strategy, seed and budget:
/// monotone series, coverage ≤ 1, queue accounting consistent, no page
/// crawled twice (crawled ≤ space size).
#[test]
fn crawl_invariants() {
    check(12, |g| {
        let code = g.u8(0..=6);
        let seed = g.u64(0..1000);
        let budget = g.option(|g| g.u64(100..3000));
        let filter = g.bool(0.5);

        let ws = GeneratorConfig::thai_like().scaled(4_000).build(seed);
        let mut config = SimConfig {
            max_pages: budget,
            ..SimConfig::default()
        };
        if filter {
            config = config.with_url_filter();
        }
        let mut sim = Simulator::new(&ws, config.clone());
        let mut strategy = build_strategy(code);
        let classifier = MetaClassifier::target(ws.target_language());
        let r = sim.run(strategy.as_mut(), &classifier);

        assert!(r.crawled <= ws.num_pages() as u64);
        if let Some(b) = budget {
            assert!(r.crawled <= b);
        }
        assert!(r.relevant_crawled <= r.crawled);
        assert!(r.final_coverage() <= 1.0 + 1e-12);
        assert!(r.final_harvest() <= 1.0 + 1e-12);
        let mut prev = (0u64, 0u64);
        for s in &r.samples {
            assert!(s.crawled > prev.0);
            assert!(s.relevant >= prev.1);
            assert!(s.relevant <= s.crawled);
            assert!(s.queue_size <= ws.num_pages());
            prev = (s.crawled, s.relevant);
        }
        assert_eq!(r.samples.last().map(|s| s.crawled), Some(r.crawled));
    });
}

/// Oracle-classified soft-focused crawling always reaches exactly 100%
/// coverage, whatever the seed — the generator's reachability guarantee
/// seen through the whole simulator stack.
#[test]
fn soft_oracle_always_full_coverage() {
    check(12, |g| {
        let seed = g.u64(0..500);
        let ws = GeneratorConfig::thai_like().scaled(3_000).build(seed);
        let mut sim = Simulator::new(&ws, SimConfig::default());
        let r = sim.run(
            &mut SimpleStrategy::soft(),
            &OracleClassifier::target(ws.target_language()),
        );
        assert!(
            (r.final_coverage() - 1.0).abs() < 1e-12,
            "seed {seed}: {}",
            r.final_coverage()
        );
    });
}

/// The limited-distance crawl never exceeds its structural ceiling and
/// its coverage is monotone in N for any seed.
#[test]
fn limited_distance_bounded_by_structure() {
    check(12, |g| {
        let seed = g.u64(0..200);
        let ws = GeneratorConfig::thai_like().scaled(3_000).build(seed);
        let oracle = OracleClassifier::target(ws.target_language());
        let mut prev = 0.0f64;
        for n in [0u8, 1, 2, 4] {
            let mut sim = Simulator::new(&ws, SimConfig::default());
            let r = sim.run(&mut LimitedDistanceStrategy::non_prioritized(n), &oracle);
            let ceiling = langcrawl_webgraph::stats::relevant_coverage(
                &ws,
                &langcrawl_webgraph::stats::reachable_limited(&ws, n),
            );
            assert!(
                r.final_coverage() <= ceiling + 1e-9,
                "N={n}: crawl {} exceeds structural ceiling {}",
                r.final_coverage(),
                ceiling
            );
            assert!(r.final_coverage() + 1e-9 >= prev, "N={n} not monotone");
            prev = r.final_coverage();
        }
    });
}
