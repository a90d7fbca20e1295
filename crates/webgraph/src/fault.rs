//! The fault model — seeded transient failures layered over a web space.
//!
//! The paper's virtual web answers every request with a status and
//! outlinks (§4, Fig. 2) and Table 3 separates "pages with OK status"
//! from error responses — but a *one-shot* status per URL misses the
//! retry dynamics a national-archive crawl actually faces: hosts that
//! time out under load, return sporadic 503s, or disappear entirely.
//! This module adds that layer without touching the generated structure:
//!
//! * every host draws a [`HostClass`] — healthy, **flaky** (elevated
//!   transient-failure rate), **slow** (timeout-prone), or **dead**
//!   (every fetch fails permanently);
//! * every `(page, attempt)` pair draws a [`FetchOutcome`] — OK, a
//!   transient failure (timeout / 503 / connection reset, worth
//!   retrying), or the page's baked permanent status (404, dead host).
//!
//! Both draws are **pure functions** of `(generation seed, host)` and
//! `(generation seed, page, attempt)` via the same [`Rng::stream`]
//! machinery the generator uses, so fault schedules are bit-identical
//! regardless of visit order, thread count, or host-chunk assignment —
//! the property the webgraph fault-determinism proptests pin.
//!
//! [`FaultConfig::default`] is all-zeros: no host classes, no transient
//! draws, every fetch answers the page's baked status exactly as before
//! the fault model existed (the `fault_conformance` suite in
//! `langcrawl-core` pins this bit-identically).

use crate::graph::WebSpace;
use crate::page::{HttpStatus, PageId};
use langcrawl_rng::{mix, splitmix64, Rng};

/// Stream-domain tags continuing the generator's numbering
/// (`STREAM_PLAN`/`STREAM_PAGES`/`STREAM_EDGES` are `1..=3 << 40`): host
/// or page indices occupy the low 32 bits, the domain the bits above.
const STREAM_FAULT_HOST: u64 = 4 << 40;
const STREAM_FAULT_DRAW: u64 = 5 << 40;

/// Knobs of the fault model. All-zero (the default) disables it.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Per-attempt probability that a fetch from a *healthy* host fails
    /// transiently (timeout, 503, connection reset).
    pub transient_rate: f64,
    /// Fraction of hosts that are flaky.
    pub flaky_host_rate: f64,
    /// Per-attempt transient-failure probability on flaky hosts.
    pub flaky_transient_rate: f64,
    /// Fraction of hosts that are slow (overloaded servers).
    pub slow_host_rate: f64,
    /// Per-attempt timeout probability on slow hosts (slow-host failures
    /// are always timeouts, never 503s).
    pub slow_timeout_rate: f64,
    /// Fraction of hosts that are dead: every fetch to them fails
    /// permanently with [`HttpStatus::Unreachable`]. Seed hosts are
    /// exempt (an archive monitors its own portals), so a crawl always
    /// starts.
    pub dead_host_rate: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            transient_rate: 0.0,
            flaky_host_rate: 0.0,
            flaky_transient_rate: 0.0,
            slow_host_rate: 0.0,
            slow_timeout_rate: 0.0,
            dead_host_rate: 0.0,
        }
    }
}

impl FaultConfig {
    /// A mild-but-visible preset for sensitivity sweeps: a few percent
    /// of hosts flaky/slow, a sliver dead, `rate` as the base transient
    /// probability everywhere.
    pub fn with_rate(rate: f64) -> Self {
        FaultConfig {
            transient_rate: rate,
            flaky_host_rate: 0.05,
            flaky_transient_rate: (4.0 * rate).min(0.9),
            slow_host_rate: 0.05,
            slow_timeout_rate: (2.0 * rate).min(0.9),
            dead_host_rate: 0.01,
        }
    }

    /// True when every knob is zero — the engine then skips the fault
    /// path entirely and behaves bit-identically to the pre-fault-model
    /// loop.
    pub fn is_zero(&self) -> bool {
        self.transient_rate == 0.0
            && self.flaky_host_rate == 0.0
            && self.flaky_transient_rate == 0.0
            && self.slow_host_rate == 0.0
            && self.slow_timeout_rate == 0.0
            && self.dead_host_rate == 0.0
    }

    /// FNV-1a digest of every knob, folded into
    /// [`crate::GeneratorConfig::fingerprint`] and
    /// [`WebSpace::content_hash`].
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for bits in [
            self.transient_rate.to_bits(),
            self.flaky_host_rate.to_bits(),
            self.flaky_transient_rate.to_bits(),
            self.slow_host_rate.to_bits(),
            self.slow_timeout_rate.to_bits(),
            self.dead_host_rate.to_bits(),
        ] {
            for b in bits.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Sanity-check ranges.
    ///
    /// # Panics
    /// Panics when a rate leaves `[0, 1]` or the host-class fractions
    /// sum past 1.
    pub fn validate(&self) {
        for (name, v) in [
            ("transient_rate", self.transient_rate),
            ("flaky_host_rate", self.flaky_host_rate),
            ("flaky_transient_rate", self.flaky_transient_rate),
            ("slow_host_rate", self.slow_host_rate),
            ("slow_timeout_rate", self.slow_timeout_rate),
            ("dead_host_rate", self.dead_host_rate),
        ] {
            assert!((0.0..=1.0).contains(&v), "{name} out of [0,1]: {v}");
        }
        let classes = self.dead_host_rate + self.flaky_host_rate + self.slow_host_rate;
        assert!(classes <= 1.0, "host-class fractions sum to {classes} > 1");
    }
}

/// Failure class of a host, drawn once per host from its own stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostClass {
    /// Fails transiently at the base [`FaultConfig::transient_rate`].
    Healthy,
    /// Fails transiently at [`FaultConfig::flaky_transient_rate`].
    Flaky,
    /// Times out at [`FaultConfig::slow_timeout_rate`].
    Slow,
    /// Every fetch fails permanently.
    Dead,
}

/// What the virtual web answered on one fetch attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchOutcome {
    /// The status of this attempt. Equals the page's baked status when
    /// no fault fired.
    pub status: HttpStatus,
    /// True when the failure is transient (timeout, 503, reset) and a
    /// retry may succeed; false for OK and for permanent failures
    /// (baked 404/5xx/unreachable, dead host).
    pub transient: bool,
}

impl FetchOutcome {
    /// Did this attempt deliver the page?
    pub fn is_ok(self) -> bool {
        self.status == HttpStatus::Ok
    }
}

/// The realized fault model for one space: per-host classes plus the
/// per-(page, attempt) draw stream.
///
/// Construction is O(hosts); [`FaultModel::outcome`] is O(1) and a pure
/// function of `(generation seed, page, attempt)` — independent of the
/// order or thread it is queried from.
#[derive(Debug, Clone)]
pub struct FaultModel {
    classes: Vec<HostClass>,
    /// Per-host hot-path word: the transient-fire threshold in 53-bit
    /// draw units (`rate * 2^53`, rounded up so any positive rate can
    /// fire) shifted left 2, with the host class packed into the low
    /// two bits. One indexed load replaces class lookup → rate match →
    /// float compare per attempt.
    table: Vec<u64>,
    /// True when no table entry can alter an outcome (no dead hosts,
    /// every threshold zero): the hot path then answers the baked
    /// status from one register-resident branch, with no per-attempt
    /// table traffic. A config with host classes but all-zero rates
    /// realizes exactly this.
    inert: bool,
    draw_seed: u64,
    config: FaultConfig,
}

/// Low-two-bit class codes inside [`FaultModel::table`] entries.
const CLASS_SLOW: u64 = 2;
const CLASS_DEAD: u64 = 3;

impl FaultModel {
    /// The fault model the space was generated with
    /// ([`WebSpace::fault`]).
    // lint:allow(test-only-pub): crates/webgraph/tests/proptests.rs checks fault draws with it
    pub fn new(ws: &WebSpace) -> Self {
        Self::with_config(ws, ws.fault().clone())
    }

    /// The fault model for `config` layered over `ws`, ignoring the
    /// space's own fault config — lets a sensitivity sweep reuse one
    /// generated space across fault rates.
    pub fn with_config(ws: &WebSpace, config: FaultConfig) -> Self {
        config.validate();
        let seed = ws.generation_seed();
        let dead = config.dead_host_rate;
        let flaky = dead + config.flaky_host_rate;
        let slow = flaky + config.slow_host_rate;
        let mut classes: Vec<HostClass> = (0..ws.num_hosts())
            .map(|h| {
                if config.is_zero() {
                    return HostClass::Healthy;
                }
                let u = Rng::stream(seed, STREAM_FAULT_HOST | h as u64).unit_f64();
                if u < dead {
                    HostClass::Dead
                } else if u < flaky {
                    HostClass::Flaky
                } else if u < slow {
                    HostClass::Slow
                } else {
                    HostClass::Healthy
                }
            })
            .collect();
        for &s in ws.seeds() {
            classes[ws.meta(s).host as usize] = HostClass::Healthy;
        }
        let table = classes
            .iter()
            .map(|class| {
                let (rate, code) = match class {
                    HostClass::Healthy => (config.transient_rate, 0),
                    HostClass::Flaky => (config.flaky_transient_rate, 1),
                    HostClass::Slow => (config.slow_timeout_rate, CLASS_SLOW),
                    HostClass::Dead => (0.0, CLASS_DEAD),
                };
                let threshold = ((rate * (1u64 << 53) as f64).ceil() as u64).min(1 << 53);
                (threshold << 2) | code
            })
            .collect::<Vec<u64>>();
        let inert = table.iter().all(|&e| e & 3 != CLASS_DEAD && e >> 2 == 0);
        FaultModel {
            classes,
            table,
            inert,
            draw_seed: mix(seed, STREAM_FAULT_DRAW),
            config,
        }
    }

    /// True when the model can never fire (all rates zero).
    pub fn is_zero(&self) -> bool {
        self.config.is_zero()
    }

    /// True when the *realized* model cannot alter any outcome: no host
    /// drew Dead and every per-host threshold is zero. Weaker than
    /// [`FaultModel::is_zero`] — a config with nonzero host-class
    /// fractions but all-zero failure rates realizes an inert model —
    /// and the engine elides such models entirely, so a zero-fault-rate
    /// crawl runs the zero-fault loop (a `langcrawl-core` engine test
    /// asserts the elision).
    pub fn is_inert(&self) -> bool {
        self.inert
    }

    /// The class assigned to a host.
    // lint:allow(test-only-pub): crates/webgraph/tests/proptests.rs checks fault draws with it
    pub fn host_class(&self, host: u32) -> HostClass {
        self.classes[host as usize]
    }

    /// The outcome of fetch `attempt` (1-based) of `page`.
    ///
    /// Pages whose baked status is already a failure answer it
    /// unchanged (permanent). Pages on dead hosts answer
    /// [`HttpStatus::Unreachable`] (permanent). Otherwise a transient
    /// fault may fire at the host class's rate: slow hosts time out
    /// ([`HttpStatus::Unreachable`]), others split between 503
    /// ([`HttpStatus::ServerError`]) and timeout/reset.
    // lint:allow(test-only-pub): crates/webgraph/tests/proptests.rs checks fault draws with it
    pub fn outcome(&self, ws: &WebSpace, page: PageId, attempt: u32) -> FetchOutcome {
        let meta = ws.meta(page);
        self.outcome_at(meta.status, meta.host, page, attempt)
    }

    /// [`FaultModel::outcome`] for a caller that already holds the
    /// page's baked status and host — the engine's hot loop, which has
    /// just looked both up and must not pay a second metadata fetch per
    /// attempt.
    ///
    /// The transient draw is a single [`splitmix64`] word per
    /// `(page, attempt)`, compared against the host's precomputed
    /// integer threshold: the top 53 bits decide whether the fault
    /// fires, the untouched low bit picks 503 vs timeout. One bijective
    /// scramble of the distinct `(seed, page, attempt)` state has the
    /// same purity and decorrelation guarantees as seeding a full
    /// generator, at a fraction of the cost.
    #[inline(always)]
    pub fn outcome_at(
        &self,
        status: HttpStatus,
        host: u32,
        page: PageId,
        attempt: u32,
    ) -> FetchOutcome {
        if self.inert || status != HttpStatus::Ok {
            return FetchOutcome {
                status,
                transient: false,
            };
        }
        // lint:allow(no-panic-transitive): the outcome table is page_count-sized and page ids are dense
        let entry = self.table[host as usize];
        if entry & 3 == CLASS_DEAD {
            return FetchOutcome {
                status: HttpStatus::Unreachable,
                transient: false,
            };
        }
        if entry >> 2 > 0 {
            let mut state = self.draw_seed ^ page as u64 ^ ((attempt as u64) << 32);
            let word = splitmix64(&mut state);
            if (word >> 11) < entry >> 2 {
                let status = if entry & 3 == CLASS_SLOW || word & 1 != 0 {
                    HttpStatus::Unreachable
                } else {
                    HttpStatus::ServerError
                };
                return FetchOutcome {
                    status,
                    transient: true,
                };
            }
        }
        FetchOutcome {
            status: HttpStatus::Ok,
            transient: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GeneratorConfig;

    fn space() -> WebSpace {
        GeneratorConfig::thai_like().scaled(4_000).build(13)
    }

    #[test]
    fn default_is_zero_and_never_fires() {
        let ws = space();
        let model = FaultModel::new(&ws);
        assert!(model.is_zero());
        for p in ws.page_ids().take(500) {
            for attempt in 1..=3 {
                let o = model.outcome(&ws, p, attempt);
                assert_eq!(o.status, ws.meta(p).status, "page {p} attempt {attempt}");
                assert!(!o.transient);
            }
        }
    }

    #[test]
    fn inert_exactly_when_no_class_or_rate_can_fire() {
        let ws = space();
        let inert = |config| FaultModel::with_config(&ws, config).is_inert();
        // Every host class drawn, every failure rate zero.
        let classes = FaultConfig {
            flaky_host_rate: 0.2,
            slow_host_rate: 0.2,
            ..FaultConfig::default()
        };
        assert!(!classes.is_zero());
        assert!(inert(classes.clone()));
        assert!(!inert(FaultConfig {
            dead_host_rate: 0.2,
            ..classes.clone()
        }));
        assert!(!inert(FaultConfig {
            transient_rate: 0.01,
            ..classes.clone()
        }));
        assert!(!inert(FaultConfig {
            flaky_transient_rate: 0.01,
            ..classes.clone()
        }));
        assert!(!inert(FaultConfig {
            slow_timeout_rate: 0.01,
            ..classes
        }));
    }

    #[test]
    fn outcome_is_a_pure_function_of_page_and_attempt() {
        let ws = space();
        let model = FaultModel::with_config(&ws, FaultConfig::with_rate(0.3));
        let pairs: Vec<(PageId, u32)> = ws
            .page_ids()
            .flat_map(|p| (1..=4).map(move |a| (p, a)))
            .collect();
        let forward: Vec<FetchOutcome> = pairs
            .iter()
            .map(|&(p, a)| model.outcome(&ws, p, a))
            .collect();
        let mut backward: Vec<FetchOutcome> = pairs
            .iter()
            .rev()
            .map(|&(p, a)| model.outcome(&ws, p, a))
            .collect();
        backward.reverse();
        assert_eq!(forward, backward);
    }

    #[test]
    fn baked_failures_stay_permanent() {
        let ws = space();
        let model = FaultModel::with_config(&ws, FaultConfig::with_rate(0.5));
        let failed = ws
            .page_ids()
            .find(|&p| ws.meta(p).status != HttpStatus::Ok)
            .expect("some failed page");
        for attempt in 1..=5 {
            let o = model.outcome(&ws, failed, attempt);
            assert_eq!(o.status, ws.meta(failed).status);
            assert!(!o.transient);
        }
    }

    #[test]
    fn dead_hosts_fail_every_page_permanently() {
        let ws = space();
        let config = FaultConfig {
            dead_host_rate: 0.5,
            ..FaultConfig::default()
        };
        let model = FaultModel::with_config(&ws, config);
        let dead_host = (0..ws.num_hosts() as u32)
            .find(|&h| model.host_class(h) == HostClass::Dead)
            .expect("some dead host at 50%");
        let first = ws.hosts()[dead_host as usize].first_page;
        if ws.meta(first).status == HttpStatus::Ok {
            let o = model.outcome(&ws, first, 1);
            assert_eq!(o.status, HttpStatus::Unreachable);
            assert!(!o.transient);
        }
    }

    #[test]
    fn seed_hosts_are_never_dead() {
        let ws = space();
        let config = FaultConfig {
            dead_host_rate: 1.0,
            ..FaultConfig::default()
        };
        let model = FaultModel::with_config(&ws, config);
        for &s in ws.seeds() {
            assert_eq!(model.host_class(ws.meta(s).host), HostClass::Healthy);
        }
    }

    #[test]
    fn transient_rates_track_host_class() {
        let ws = space();
        let config = FaultConfig {
            transient_rate: 0.0,
            flaky_host_rate: 0.3,
            flaky_transient_rate: 0.8,
            ..FaultConfig::default()
        };
        let model = FaultModel::with_config(&ws, config);
        let mut flaky_failures = 0u32;
        let mut healthy_failures = 0u32;
        for p in ws.page_ids() {
            if ws.meta(p).status != HttpStatus::Ok {
                continue;
            }
            let o = model.outcome(&ws, p, 1);
            match model.host_class(ws.meta(p).host) {
                HostClass::Flaky if o.transient => flaky_failures += 1,
                HostClass::Healthy if o.transient => healthy_failures += 1,
                _ => {}
            }
        }
        assert!(flaky_failures > 0, "80% flaky rate must fire");
        assert_eq!(healthy_failures, 0, "healthy rate is zero");
    }

    #[test]
    fn validate_rejects_oversubscribed_classes() {
        let config = FaultConfig {
            dead_host_rate: 0.5,
            flaky_host_rate: 0.4,
            slow_host_rate: 0.3,
            ..FaultConfig::default()
        };
        let r = std::panic::catch_unwind(|| config.validate());
        assert!(r.is_err());
    }
}
