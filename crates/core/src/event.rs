//! The observation seam — typed crawl events and composable sinks.
//!
//! The paper's Fig. 2 draws an "observer" watching the crawl; the old
//! monolithic loop hard-wired three observers (metrics sampling, visit
//! recording, URL filtering) into the loop body. Here observation is a
//! first-class seam: the engine narrates the crawl as a stream of
//! [`CrawlEvent`]s and any number of [`EventSink`]s listen. Sinks
//! compose — a run can record metrics, visits, and scheduler statistics
//! at once — and adding a new observer never touches the engine.
//!
//! Events are deliberately **per-page aggregates** (one `Admitted` event
//! per fetch, not one per link), and each sink declares which variants
//! it wants via [`EventSink::interests`] so the engine skips emitting
//! the rest. What an instrumented crawl pays is therefore a choice,
//! and tests assert it: [`MetricsSampler`], the sink every
//! [`crate::sim::Simulator`] run attaches, takes only `Sampled` and
//! `Finished`, about 512 per crawl, and neither crawl loop emits a
//! variant no attached sink wants. The per-event cost itself lands in
//! every perfbench crawl, which runs with that sampler attached.

use crate::metrics::Sample;
use langcrawl_webgraph::{HttpStatus, PageId};

/// One step of the crawl narrative, emitted by the engine in a fixed
/// per-page order: `FetchAttempt` (one per fetch attempt, when any sink
/// wants it) → `Fetched` → `Classified` → `Admitted` (with `Filtered`
/// before it when the URL filter dropped links) → periodic `Sampled`;
/// one final `Finished` closes the run. A transiently failed attempt
/// emits `FetchAttempt` only — the page resolves (and `Fetched` fires)
/// on a later attempt or when retries are exhausted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CrawlEvent<'a> {
    /// One fetch attempt of a page completed — the per-attempt view of
    /// the crawl that the fault/retry machinery narrates. Zero-fault
    /// runs emit exactly one per page (attempt 1, `retry: false`).
    FetchAttempt {
        /// The attempted page.
        page: PageId,
        /// Attempt number, 1-based.
        attempt: u32,
        /// What the virtual web answered on this attempt.
        status: HttpStatus,
        /// True when the failure was transient (timeout, 503, reset).
        transient: bool,
        /// True when the engine re-queued the page for another attempt;
        /// `transient && !retry` means retries were exhausted (the page
        /// was given up).
        retry: bool,
        /// Simulated tick at which the attempt completed: the crawl
        /// loop emits the event once its clock has moved to the
        /// fetch's finish. That is one tick per attempt only at one
        /// untimed slot. A retry's back-off counts from this tick, in
        /// ticks, or in round trips in a timed crawl.
        tick: u64,
    },
    /// A page was popped from the frontier and "downloaded".
    Fetched {
        /// The fetched page.
        page: PageId,
        /// Fetch ordinal (1-based): pages crawled including this one.
        crawled: u64,
    },
    /// The classifier judged the fetched page.
    Classified {
        /// The classified page.
        page: PageId,
        /// The classifier's relevance verdict in [0, 1] (0.0 for pages
        /// with no classifiable content).
        relevance: f64,
        /// Ground-truth relevance — for metrics only; strategies never
        /// see it.
        relevant: bool,
    },
    /// URL-filtered outlinks of the fetched page were dropped before
    /// reaching the frontier.
    Filtered {
        /// The page whose outlinks were filtered.
        page: PageId,
        /// How many admitted links the filter dropped.
        dropped: u32,
    },
    /// The strategy's admissions for the fetched page were offered to the
    /// frontier.
    Admitted {
        /// The page whose outlinks were offered.
        page: PageId,
        /// Entries the strategy emitted (post-filter entries offered to
        /// the frontier plus filtered ones).
        offered: u32,
        /// Entries the frontier actually accepted.
        enqueued: u32,
    },
    /// A metrics sample point (every `sample_interval` fetches).
    Sampled {
        /// Pages crawled so far.
        crawled: u64,
        /// Ground-truth relevant pages crawled so far.
        relevant: u64,
        /// Distinct URLs pending in the frontier.
        pending: usize,
        /// Virtual tick of the sampling resolution (milliseconds in a
        /// timed crawl, so harvest can be plotted against time).
        tick: u64,
    },
    /// The crawl ended (frontier dry or fetch budget reached).
    Finished {
        /// Total pages crawled.
        crawled: u64,
        /// Total ground-truth relevant pages crawled.
        relevant: u64,
        /// Distinct URLs still pending at the end.
        pending: usize,
        /// High-water mark of the frontier's distinct pending count.
        max_pending: usize,
        /// Total frontier pushes accepted.
        total_pushes: u64,
    },
    /// The virtual-time scheduler advanced the clock with at least one
    /// fetch slot unoccupied while work was still waiting (behind a
    /// politeness cool-down or a retry backoff). A single slot without
    /// politeness idles only while retries back off with the frontier
    /// dry.
    SlotIdle {
        /// Virtual tick the idle span started at.
        tick: u64,
        /// Slots unoccupied over the span.
        idle: u32,
        /// Length of the span in ticks.
        span: u64,
    },
    /// Links discovered while resolving a page were routed to frontier
    /// shards other than the fetching host's own — the cross-shard
    /// discovery handoff traffic a distributed crawler would pay as
    /// network messages. One event per fetch that crossed at least once.
    ShardHandoff {
        /// The page whose outlinks were handed off.
        page: PageId,
        /// Accepted pushes that landed on a foreign shard.
        crossed: u32,
    },
    /// A host finished a fetch but still owes its politeness gap, with
    /// more of its pages queued: the frontier parks it until `until`.
    PolitenessWait {
        /// Host index in the space's host table.
        host: u32,
        /// Virtual tick at which the host may fetch again.
        until: u64,
    },
    /// The scheduler captured the complete crawl state at a loop-top
    /// tick boundary (no fetch in flight). Emitted every
    /// [`crate::engine::EngineConfig::snapshot_every`] ticks by
    /// scheduled and resumed runs, and only when some sink wants it.
    Snapshot {
        /// Virtual tick the snapshot was taken at.
        tick: u64,
        /// The snapshot in framed on-disk form — parse it with
        /// [`crate::snapshot::CrawlSnapshot::from_bytes`]. The buffer is
        /// reused for the next capture; copy what must outlive the call.
        bytes: &'a [u8],
    },
}

/// Bitmask constants naming each [`CrawlEvent`] variant, for
/// [`EventSink::interests`].
pub mod interest {
    /// [`super::CrawlEvent::Fetched`]
    pub const FETCHED: u16 = 1 << 0;
    /// [`super::CrawlEvent::Classified`]
    pub const CLASSIFIED: u16 = 1 << 1;
    /// [`super::CrawlEvent::Filtered`]
    pub const FILTERED: u16 = 1 << 2;
    /// [`super::CrawlEvent::Admitted`]
    pub const ADMITTED: u16 = 1 << 3;
    /// [`super::CrawlEvent::Sampled`]
    pub const SAMPLED: u16 = 1 << 4;
    /// [`super::CrawlEvent::Finished`]
    pub const FINISHED: u16 = 1 << 5;
    /// [`super::CrawlEvent::FetchAttempt`]
    pub const ATTEMPT: u16 = 1 << 6;
    /// [`super::CrawlEvent::SlotIdle`]
    pub const SLOT_IDLE: u16 = 1 << 7;
    /// [`super::CrawlEvent::ShardHandoff`]
    pub const HANDOFF: u16 = 1 << 8;
    /// [`super::CrawlEvent::PolitenessWait`]
    pub const POLITENESS: u16 = 1 << 9;
    /// [`super::CrawlEvent::Snapshot`]
    pub const SNAPSHOT: u16 = 1 << 10;
    /// Every variant.
    pub const ALL: u16 = 0x7FF;
}

/// A crawl observer. Sinks receive every emitted event; most match on
/// the few they care about and ignore the rest.
pub trait EventSink {
    /// Observe one event.
    fn on_event(&mut self, event: &CrawlEvent<'_>);

    /// Which [`CrawlEvent`] variants this sink wants, as an [`interest`]
    /// bitmask. Purely an optimization hint: the engine skips emitting
    /// variants *no* attached sink wants, so a metrics-only run pays
    /// nothing for the per-page events. The mask is unioned across
    /// sinks — a sink can still receive variants outside its declared
    /// interests (when a broader sink is co-attached) and must ignore
    /// them. Default: everything.
    fn interests(&self) -> u16 {
        interest::ALL
    }
}

/// Records the metrics time series — the x-axis of every figure in the
/// paper. Push samples arrive via [`CrawlEvent::Sampled`]; the series is
/// closed with the final state on [`CrawlEvent::Finished`] (so it always
/// ends at `crawled`, exactly as the pre-refactor loop did).
#[derive(Debug, Default)]
pub struct MetricsSampler {
    samples: Vec<Sample>,
}

impl MetricsSampler {
    /// An empty sampler.
    pub fn new() -> Self {
        MetricsSampler {
            samples: Vec::with_capacity(600),
        }
    }

    /// The recorded series.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Consume the sampler, yielding the recorded series.
    pub fn into_samples(self) -> Vec<Sample> {
        self.samples
    }
}

impl EventSink for MetricsSampler {
    fn on_event(&mut self, event: &CrawlEvent) {
        match *event {
            CrawlEvent::Sampled {
                crawled,
                relevant,
                pending,
                ..
            } => self.samples.push(Sample {
                crawled,
                relevant,
                queue_size: pending,
            }),
            CrawlEvent::Finished {
                crawled,
                relevant,
                pending,
                ..
            }
                // Always close the series with the final state.
                if self.samples.last().map(|s| s.crawled) != Some(crawled) => {
                    self.samples.push(Sample {
                        crawled,
                        relevant,
                        queue_size: pending,
                    });
                }
            _ => {}
        }
    }

    fn interests(&self) -> u16 {
        interest::SAMPLED | interest::FINISHED
    }
}

/// Records crawled page ids in fetch order (dataset-collection
/// experiments need the exact visit sequence).
#[derive(Debug, Default)]
pub struct VisitRecorder {
    visited: Vec<PageId>,
}

impl VisitRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        VisitRecorder::default()
    }

    /// Consume the recorder, yielding the visit sequence.
    pub fn into_visited(self) -> Vec<PageId> {
        self.visited
    }
}

impl EventSink for VisitRecorder {
    fn on_event(&mut self, event: &CrawlEvent) {
        if let CrawlEvent::Fetched { page, .. } = *event {
            self.visited.push(page);
        }
    }

    fn interests(&self) -> u16 {
        interest::FETCHED
    }
}

/// Tallies the virtual-time scheduler's narration — slot idleness,
/// cross-shard handoff traffic, politeness stalls — from the
/// [`CrawlEvent::SlotIdle`] / [`CrawlEvent::ShardHandoff`] /
/// [`CrawlEvent::PolitenessWait`] stream. The parallelism-sweep harness
/// attaches one per run; unattached runs never pay for these events
/// (the engine elides them like every other unwanted variant).
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedStatsSink {
    /// Sum over idle spans of `idle slots × span ticks` — capacity the
    /// schedule could not use because work was cooling or backing off.
    pub idle_slot_ticks: u64,
    /// Total accepted pushes that landed on a foreign shard.
    pub crossed_links: u64,
    /// Times a host was parked for its politeness gap with work queued.
    pub politeness_waits: u64,
}

impl SchedStatsSink {
    /// An empty tally.
    pub fn new() -> Self {
        SchedStatsSink::default()
    }
}

impl EventSink for SchedStatsSink {
    fn on_event(&mut self, event: &CrawlEvent) {
        match *event {
            CrawlEvent::SlotIdle { idle, span, .. } => {
                self.idle_slot_ticks += u64::from(idle).saturating_mul(span);
            }
            CrawlEvent::ShardHandoff { crossed, .. } => {
                self.crossed_links += u64::from(crossed);
            }
            CrawlEvent::PolitenessWait { .. } => {
                self.politeness_waits += 1;
            }
            _ => {}
        }
    }

    fn interests(&self) -> u16 {
        interest::SLOT_IDLE | interest::HANDOFF | interest::POLITENESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_records_and_closes_series() {
        let mut s = MetricsSampler::new();
        s.on_event(&CrawlEvent::Sampled {
            crawled: 10,
            relevant: 4,
            pending: 7,
            tick: 10,
        });
        s.on_event(&CrawlEvent::Finished {
            crawled: 13,
            relevant: 5,
            pending: 0,
            max_pending: 9,
            total_pushes: 20,
        });
        let samples = s.into_samples();
        assert_eq!(samples.len(), 2);
        assert_eq!(
            samples[0],
            Sample {
                crawled: 10,
                relevant: 4,
                queue_size: 7
            }
        );
        assert_eq!(
            samples[1],
            Sample {
                crawled: 13,
                relevant: 5,
                queue_size: 0
            }
        );
    }

    #[test]
    fn sampler_does_not_duplicate_final_sample() {
        let mut s = MetricsSampler::new();
        s.on_event(&CrawlEvent::Sampled {
            crawled: 13,
            relevant: 5,
            pending: 0,
            tick: 13,
        });
        s.on_event(&CrawlEvent::Finished {
            crawled: 13,
            relevant: 5,
            pending: 0,
            max_pending: 9,
            total_pushes: 20,
        });
        assert_eq!(s.samples().len(), 1);
    }

    #[test]
    fn interests_narrow_to_what_each_sink_handles() {
        assert_eq!(
            MetricsSampler::new().interests(),
            interest::SAMPLED | interest::FINISHED
        );
        assert_eq!(VisitRecorder::new().interests(), interest::FETCHED);
        assert_eq!(
            SchedStatsSink::new().interests(),
            interest::SLOT_IDLE | interest::HANDOFF | interest::POLITENESS
        );
    }

    #[test]
    fn interest_bits_cover_every_variant_once() {
        let bits = [
            interest::FETCHED,
            interest::CLASSIFIED,
            interest::FILTERED,
            interest::ADMITTED,
            interest::SAMPLED,
            interest::FINISHED,
            interest::ATTEMPT,
            interest::SLOT_IDLE,
            interest::HANDOFF,
            interest::POLITENESS,
            interest::SNAPSHOT,
        ];
        let mut union = 0u16;
        for b in bits {
            assert_eq!(b.count_ones(), 1, "bit {b:#x} must be a single bit");
            assert_eq!(union & b, 0, "bit {b:#x} duplicated");
            union |= b;
        }
        assert_eq!(union, interest::ALL);
    }

    #[test]
    fn sched_stats_tally_idle_handoff_and_politeness() {
        let mut s = SchedStatsSink::new();
        s.on_event(&CrawlEvent::SlotIdle {
            tick: 10,
            idle: 3,
            span: 4,
        });
        s.on_event(&CrawlEvent::SlotIdle {
            tick: 20,
            idle: 1,
            span: 2,
        });
        s.on_event(&CrawlEvent::ShardHandoff {
            page: 7,
            crossed: 5,
        });
        s.on_event(&CrawlEvent::PolitenessWait { host: 2, until: 30 });
        // Other variants are ignored.
        s.on_event(&CrawlEvent::Fetched {
            page: 1,
            crawled: 1,
        });
        assert_eq!(s.idle_slot_ticks, 14);
        assert_eq!(s.crossed_links, 5);
        assert_eq!(s.politeness_waits, 1);
    }

    #[test]
    fn visit_recorder_keeps_fetch_order() {
        let mut v = VisitRecorder::new();
        for (i, p) in [3u32, 1, 4].iter().enumerate() {
            v.on_event(&CrawlEvent::Fetched {
                page: *p,
                crawled: i as u64 + 1,
            });
            v.on_event(&CrawlEvent::Classified {
                page: *p,
                relevance: 1.0,
                relevant: true,
            });
        }
        assert_eq!(v.into_visited(), vec![3, 1, 4]);
    }
}
