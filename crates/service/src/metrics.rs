//! Aggregate service metrics: what each response records, and everything
//! derived from it.
//!
//! A response records its outcome once, as one sample in the latency
//! histogram of the [`Rung`] that served it. Counts by outcome
//! (`completed`, `executed`, `coalesced`, cache hits, …), the end-to-end
//! latency histogram and the mean skyline size are never recorded
//! separately: [`MetricsSnapshot`] derives them from the rung histograms
//! in one function whenever metrics are read, so they agree by
//! construction.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use skysr_graph::EpochGcStats;

use crate::cache::CacheCounters;
use crate::plan::SeedSource;
use crate::telemetry::{Histogram, HistogramSnapshot, Rung, RungSummary};

/// Where one response's time went — recorded split so saturation (queue
/// wait under open-loop overload) never masquerades as service time.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencyBreakdown {
    /// Submission → dequeue: time spent waiting in the bounded queue.
    pub queue_wait: Duration,
    /// Dequeue → completion: planning, coalesced parking, engine work,
    /// cache fill.
    pub service: Duration,
    /// The engine-execution portion of `service` (search or repair);
    /// `None` when no engine ran for this response (cache hits, coalesced
    /// followers).
    pub engine: Option<Duration>,
}

impl LatencyBreakdown {
    /// End-to-end latency (what callers experience).
    pub fn total(&self) -> Duration {
        self.queue_wait + self.service
    }

    /// A breakdown with everything attributed to service time — for tests
    /// and callers that never queued.
    pub fn service_only(service: Duration) -> LatencyBreakdown {
        LatencyBreakdown { queue_wait: Duration::ZERO, service, engine: None }
    }
}

/// How one successfully answered query was served — its [`Rung`] is the
/// response's entry in the metrics record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Served {
    /// A BSSR search ran; `seeded` records which cached skyline
    /// warm-started it (semantic reuse), if any actually contributed
    /// seeds.
    Search {
        /// The reuse source whose seeds survived into the skyline set
        /// (`None` for a cold search, or when the probe came up dry).
        seeded: Option<SeedSource>,
    },
    /// Answered from the result cache.
    CacheHit,
    /// Answered by joining another request's in-flight computation
    /// (request coalescing).
    Coalesced,
    /// Answered by incrementally repairing a cached skyline from an older
    /// epoch instead of recomputing it (a subset of executed work).
    Repaired {
        /// The repair could not be resolved in place and fell back to a
        /// full warm-seeded re-search.
        fallback: bool,
        /// Cached routes proven untouched without any graph search.
        routes_untouched: usize,
        /// Cached routes whose legs were re-run at the new epoch.
        routes_rescored: usize,
    },
    /// Degraded mode: the request's deadline expired mid-engine, so the
    /// search stopped and returned the mutually non-dominated partial
    /// skyline proven so far. Every returned route is a genuine valid
    /// sequenced route dominated-or-equal by the exact skyline, but the
    /// set may be incomplete. Requests coalesced onto a truncated flight
    /// are also served `Approximate` — the flag must never be laundered
    /// away through sharing.
    Approximate,
}

/// A recorded count that no rung histogram implies: requests that ended
/// without a response, the staleness tripwire, and the details of a
/// repair. The wire codec, [`MetricsSnapshot::merge`] and the Prometheus
/// exporter all walk [`Counter::ALL`], so none of them can skip one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Queries rejected by validation.
    Failed,
    /// Responses whose skyline was computed under a different weight
    /// epoch than the request was pinned to. The epoch-stamped cache
    /// refuses cross-epoch answers by construction, so this staying zero
    /// is the serving layer's staleness guarantee — CI gates on it.
    StaleServed,
    /// Repairs that fell back to a full warm-seeded re-search.
    RepairFallbacks,
    /// Cached routes proven untouched by repair's lower-bound tier (no
    /// graph search at all), summed over all repairs.
    RoutesUntouched,
    /// Cached routes whose shortest-path legs were re-run at the new
    /// epoch, summed over all repairs.
    RoutesRescored,
    /// Requests the admission gate refused before queueing: their
    /// deadline was judged unmeetable under the current backlog. Answered
    /// [`QueryError::Overloaded`](skysr_core::error::QueryError).
    Rejected,
    /// Requests whose deadline expired while queued: dropped at dequeue
    /// without executing and answered
    /// [`QueryError::Overloaded`](skysr_core::error::QueryError).
    ShedDeadline,
}

impl Counter {
    /// Every counter, in wire order.
    pub const ALL: [Counter; 7] = [
        Counter::Failed,
        Counter::StaleServed,
        Counter::RepairFallbacks,
        Counter::RoutesUntouched,
        Counter::RoutesRescored,
        Counter::Rejected,
        Counter::ShedDeadline,
    ];

    /// The Prometheus series this counter exports as, and its help text.
    pub fn series(self) -> (&'static str, &'static str) {
        match self {
            Counter::Failed => ("skysr_failed_total", "Queries rejected by validation"),
            Counter::StaleServed => {
                ("skysr_stale_served_total", "Responses served from a wrong-epoch entry")
            }
            Counter::RepairFallbacks => {
                ("skysr_repair_fallbacks_total", "Repairs that fell back to a re-search")
            }
            Counter::RoutesUntouched => {
                ("skysr_routes_untouched_total", "Cached routes repair proved untouched")
            }
            Counter::RoutesRescored => {
                ("skysr_routes_rescored_total", "Cached routes whose legs repair re-ran")
            }
            Counter::Rejected => ("skysr_rejected_total", "Requests refused at admission"),
            Counter::ShedDeadline => {
                ("skysr_shed_deadline_total", "Requests whose deadline expired in the queue")
            }
        }
    }
}

/// Shared recorder the workers write into: relaxed atomics only, no
/// locks.
///
/// A response records its end-to-end latency in its rung's histogram, its
/// queue wait, its engine time when an engine ran, and its skyline size
/// into an exact sum and max; a repair also records its fallback flag and
/// route tiers. Everything else a [`MetricsSnapshot`] reports is derived.
#[derive(Debug, Default)]
pub struct MetricsRecorder {
    rungs: [Histogram; 8],
    queue_wait: Histogram,
    engine: Histogram,
    skyline_routes: AtomicU64,
    max_skyline_size: AtomicU64,
    counters: [AtomicU64; Counter::ALL.len()],
}

impl MetricsRecorder {
    /// Records one successfully answered query. `latency` carries the
    /// queue-wait / service / engine split; `served` picks the rung.
    pub fn record(&self, latency: LatencyBreakdown, skyline_size: usize, served: Served) {
        self.rungs[Rung::of(served).index()].record(latency.total());
        self.queue_wait.record(latency.queue_wait);
        if let Some(engine) = latency.engine {
            self.engine.record(engine);
        }
        self.skyline_routes.fetch_add(skyline_size as u64, Ordering::Relaxed);
        self.max_skyline_size.fetch_max(skyline_size as u64, Ordering::Relaxed);
        if let Served::Repaired { fallback, routes_untouched, routes_rescored } = served {
            self.add(Counter::RepairFallbacks, fallback as u64);
            self.add(Counter::RoutesUntouched, routes_untouched as u64);
            self.add(Counter::RoutesRescored, routes_rescored as u64);
        }
    }

    /// Counts one request that ended without a response (failed,
    /// rejected, shed) or one stale serve. The repair counters ride on
    /// [`record`](Self::record).
    pub fn count(&self, counter: Counter) {
        self.add(counter, 1);
    }

    fn add(&self, counter: Counter, n: u64) {
        if n > 0 {
            self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Snapshot over everything recorded so far. `wall` is the wall-clock
    /// window the caller observed (used for throughput); `cache` the
    /// cache's counters and `epochs` the weight-epoch history accounting
    /// at the same instant.
    pub fn snapshot(
        &self,
        wall: Duration,
        cache: CacheCounters,
        epochs: EpochGcStats,
    ) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            rungs: Rung::ALL
                .iter()
                .map(|&rung| RungSummary { rung, hist: self.rungs[rung.index()].snapshot() })
                .collect(),
            queue_wait_hist: self.queue_wait.snapshot(),
            engine_hist: self.engine.snapshot(),
            skyline_routes: self.skyline_routes.load(Ordering::Relaxed),
            max_skyline_size: self.max_skyline_size.load(Ordering::Relaxed) as usize,
            cache,
            epochs,
            wall,
            ..MetricsSnapshot::default()
        };
        for c in Counter::ALL {
            *snap.counter_mut(c) = self.counters[c as usize].load(Ordering::Relaxed);
        }
        snap.derived()
    }
}

/// Aggregate view of a service's activity over an observation window.
///
/// The first group of fields is the record a [`MetricsRecorder`] holds;
/// every field of the second group is derived from it by one function,
/// which [`MetricsRecorder::snapshot`], [`merge`](Self::merge) and the
/// wire decoder all call. So `completed = executed + cache_hits +
/// coalesced + approximate_served` and its kin hold by construction.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Per-rung end-to-end latency histograms, ladder order (one entry
    /// per [`Rung`], empty histograms included) — the outcome record.
    pub rungs: Vec<RungSummary>,
    /// Submission-to-dequeue wait histogram (every response), split out
    /// so open-loop saturation shows honest service time.
    pub queue_wait_hist: HistogramSnapshot,
    /// Engine-execution histogram (search / repair time only; one sample
    /// per response that actually ran an engine).
    pub engine_hist: HistogramSnapshot,
    /// Queries rejected by validation ([`Counter::Failed`]).
    pub failed: u64,
    /// Responses served from another epoch's entry — always zero unless
    /// the epoch-invalidation layer is broken ([`Counter::StaleServed`]).
    pub stale_served: u64,
    /// Repairs that fell back to a re-search
    /// ([`Counter::RepairFallbacks`]).
    pub repair_fallbacks: u64,
    /// Cached routes repair proved untouched
    /// ([`Counter::RoutesUntouched`]).
    pub routes_untouched: u64,
    /// Cached routes whose legs repair re-ran
    /// ([`Counter::RoutesRescored`]).
    pub routes_rescored: u64,
    /// Requests refused at admission; counted in neither `completed` nor
    /// `failed` ([`Counter::Rejected`]).
    pub rejected: u64,
    /// Requests whose deadline expired in the queue; counted in neither
    /// `completed` nor `failed` ([`Counter::ShedDeadline`]).
    pub shed_deadline: u64,
    /// Skyline routes returned, summed over every response.
    pub skyline_routes: u64,
    /// Largest skyline returned.
    pub max_skyline_size: usize,
    /// Result-cache counters at snapshot time.
    pub cache: CacheCounters,
    /// Weight-epoch history / GC accounting at snapshot time (retained
    /// overlays, compactions, rebases).
    pub epochs: EpochGcStats,
    /// Observation window.
    pub wall: Duration,

    /// Queries answered successfully: the rung counts summed.
    pub completed: u64,
    /// Responses an engine run answered exactly: the `repaired`,
    /// `warm_*` and `cold` rungs.
    pub executed: u64,
    /// Responses that joined another request's in-flight search.
    pub coalesced: u64,
    /// Searches warm-started from a cached *prefix* skyline.
    pub seeded_prefix: u64,
    /// Searches warm-started from a cached *ancestor-category* variant's
    /// skyline (a position's category replaced by one of its ancestors).
    pub seeded_ancestor: u64,
    /// Searches warm-started from a cached *suffix* skyline (⟨c₂…c_k⟩
    /// prepended one leg).
    pub seeded_suffix: u64,
    /// Cached skylines promoted to a newer epoch by incremental repair
    /// without a full re-search: the `repaired` rung less
    /// `repair_fallbacks`.
    pub repairs: u64,
    /// Responses served in degraded mode: the deadline expired mid-engine
    /// and the partial skyline proven so far was returned flagged
    /// approximate (leaders of truncated flights plus any requests
    /// coalesced onto them).
    pub approximate_served: u64,
    /// Responses answered from the result cache: the `exact_hit` rung.
    pub cache_hits: u64,
    /// `cache_hits / completed` (`0.0` before the first response).
    pub cache_hit_rate: f64,
    /// Completed queries per second of the window.
    pub throughput_qps: f64,
    /// End-to-end latency histogram: the rung histograms merged.
    pub latency_hist: HistogramSnapshot,
    /// Mean submission-to-completion latency (exact, over every response).
    pub latency_mean: Duration,
    /// Median latency (log-bucketed: within 1/32 above the true value).
    pub latency_p50: Duration,
    /// 90th-percentile latency.
    pub latency_p90: Duration,
    /// 99th-percentile latency.
    pub latency_p99: Duration,
    /// Worst observed latency (exact).
    pub latency_max: Duration,
    /// Mean number of skyline routes per answer (exact).
    pub mean_skyline_size: f64,
}

impl MetricsSnapshot {
    /// The recorded value of `counter`.
    pub(crate) fn counter(&self, counter: Counter) -> u64 {
        match counter {
            Counter::Failed => self.failed,
            Counter::StaleServed => self.stale_served,
            Counter::RepairFallbacks => self.repair_fallbacks,
            Counter::RoutesUntouched => self.routes_untouched,
            Counter::RoutesRescored => self.routes_rescored,
            Counter::Rejected => self.rejected,
            Counter::ShedDeadline => self.shed_deadline,
        }
    }

    pub(crate) fn counter_mut(&mut self, counter: Counter) -> &mut u64 {
        match counter {
            Counter::Failed => &mut self.failed,
            Counter::StaleServed => &mut self.stale_served,
            Counter::RepairFallbacks => &mut self.repair_fallbacks,
            Counter::RoutesUntouched => &mut self.routes_untouched,
            Counter::RoutesRescored => &mut self.routes_rescored,
            Counter::Rejected => &mut self.rejected,
            Counter::ShedDeadline => &mut self.shed_deadline,
        }
    }

    /// This snapshot with every derived field computed from the recorded
    /// ones — the only place a derived value is computed.
    pub(crate) fn derived(self) -> MetricsSnapshot {
        let n = |rung: Rung| self.rungs.get(rung.index()).map_or(0, |s| s.hist.count());
        let completed: u64 = self.rungs.iter().map(|s| s.hist.count()).sum();
        let per_answer = |x: u64| if completed > 0 { x as f64 / completed as f64 } else { 0.0 };
        let mut latency_hist = HistogramSnapshot::default();
        for s in &self.rungs {
            latency_hist.merge(&s.hist);
        }
        MetricsSnapshot {
            completed,
            // The rungs that ran an engine to an exact answer: all others.
            executed: completed - n(Rung::ExactHit) - n(Rung::Coalesced) - n(Rung::Approximate),
            coalesced: n(Rung::Coalesced),
            seeded_prefix: n(Rung::WarmPrefix),
            seeded_ancestor: n(Rung::WarmAncestor),
            seeded_suffix: n(Rung::WarmSuffix),
            repairs: n(Rung::Repaired).saturating_sub(self.repair_fallbacks),
            approximate_served: n(Rung::Approximate),
            cache_hits: n(Rung::ExactHit),
            cache_hit_rate: per_answer(n(Rung::ExactHit)),
            throughput_qps: if self.wall > Duration::ZERO {
                completed as f64 / self.wall.as_secs_f64()
            } else {
                0.0
            },
            latency_mean: latency_hist.mean(),
            latency_p50: latency_hist.quantile(0.50),
            latency_p90: latency_hist.quantile(0.90),
            latency_p99: latency_hist.quantile(0.99),
            latency_max: latency_hist.max(),
            latency_hist,
            mean_skyline_size: per_answer(self.skyline_routes),
            ..self
        }
    }

    /// Folds `other` into `self` — how a [`crate::shard::Router`] builds
    /// the deployment-wide aggregate out of per-shard snapshots.
    ///
    /// The records add exactly (histogram bucket boundaries are fixed, so
    /// merging loses nothing) and the derived fields are recomputed from
    /// the sum. `wall` is the *longest* of the two windows — shards serve
    /// concurrently, not back-to-back. Cache counters sum; the epoch/GC
    /// gauges sum except `retention`, reported as the largest configured
    /// ring (each shard owns its own ring — there is no shared retention
    /// to report).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (mine, theirs) in self.rungs.iter_mut().zip(&other.rungs) {
            debug_assert_eq!(mine.rung, theirs.rung, "rung summaries are ladder-ordered");
            mine.hist.merge(&theirs.hist);
        }
        self.queue_wait_hist.merge(&other.queue_wait_hist);
        self.engine_hist.merge(&other.engine_hist);
        for c in Counter::ALL {
            *self.counter_mut(c) += other.counter(c);
        }
        self.skyline_routes += other.skyline_routes;
        self.max_skyline_size = self.max_skyline_size.max(other.max_skyline_size);
        self.wall = self.wall.max(other.wall);

        self.cache.insertions += other.cache.insertions;
        self.cache.evictions += other.cache.evictions;
        self.cache.invalidations += other.cache.invalidations;
        self.cache.len += other.cache.len;

        self.epochs.retained += other.epochs.retained;
        self.epochs.retained_max += other.epochs.retained_max;
        self.epochs.retention = self.epochs.retention.max(other.epochs.retention);
        self.epochs.compacted += other.epochs.compacted;
        self.epochs.rebases += other.epochs.rebases;
        self.epochs.overlay_len += other.epochs.overlay_len;

        *self = std::mem::take(self).derived();
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn ms(d: Duration) -> f64 {
            d.as_secs_f64() * 1e3
        }
        writeln!(f, "queries     {} completed, {} failed", self.completed, self.failed)?;
        writeln!(
            f,
            "executed    {} searches ({} answers shared: {} cache hits, {} coalesced)",
            self.executed,
            self.completed - self.executed,
            self.cache_hits,
            self.coalesced
        )?;
        writeln!(
            f,
            "reuse       {} prefix-, {} ancestor-, {} suffix-seeded warm starts",
            self.seeded_prefix, self.seeded_ancestor, self.seeded_suffix
        )?;
        writeln!(
            f,
            "throughput  {:.1} queries/s over {:.2} s",
            self.throughput_qps,
            self.wall.as_secs_f64()
        )?;
        writeln!(
            f,
            "latency     mean {:.3} ms  p50 {:.3} ms  p90 {:.3} ms  p99 {:.3} ms  max {:.3} ms",
            ms(self.latency_mean),
            ms(self.latency_p50),
            ms(self.latency_p90),
            ms(self.latency_p99),
            ms(self.latency_max)
        )?;
        writeln!(
            f,
            "split       queue-wait p50 {:.3} ms  p99 {:.3} ms · engine p50 {:.3} ms  p99 {:.3} \
             ms ({} engine runs)",
            ms(self.queue_wait_hist.quantile(0.50)),
            ms(self.queue_wait_hist.quantile(0.99)),
            ms(self.engine_hist.quantile(0.50)),
            ms(self.engine_hist.quantile(0.99)),
            self.engine_hist.count()
        )?;
        writeln!(
            f,
            "rungs       {:<13} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "rung", "count", "p50 ms", "p90 ms", "p99 ms", "p99.9 ms", "max ms"
        )?;
        for r in &self.rungs {
            if r.hist.is_empty() {
                continue;
            }
            writeln!(
                f,
                "            {:<13} {:>8} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                r.rung.label(),
                r.hist.count(),
                ms(r.hist.quantile(0.50)),
                ms(r.hist.quantile(0.90)),
                ms(r.hist.quantile(0.99)),
                ms(r.hist.quantile(0.999)),
                ms(r.hist.max())
            )?;
        }
        writeln!(
            f,
            "cache       {:.1}% hit rate ({} of {} answers, {} evictions, {} resident)",
            self.cache_hit_rate * 100.0,
            self.cache_hits,
            self.completed,
            self.cache.evictions,
            self.cache.len
        )?;
        writeln!(
            f,
            "staleness   {} entries invalidated by epoch change, {} stale serves",
            self.cache.invalidations, self.stale_served
        )?;
        writeln!(
            f,
            "repair      {} skylines repaired in place, {} fell back to re-search ({} routes \
             untouched, {} rescored)",
            self.repairs, self.repair_fallbacks, self.routes_untouched, self.routes_rescored
        )?;
        writeln!(
            f,
            "overload    {} rejected at admission, {} shed expired in queue, {} served \
             approximate",
            self.rejected, self.shed_deadline, self.approximate_served
        )?;
        {
            let e = &self.epochs;
            let cap =
                if e.retention == 0 { "unlimited".to_owned() } else { e.retention.to_string() };
            writeln!(
                f,
                "epochs      {} retained (max {}, cap {}), {} overlays compacted, {} rebases, \
                 {} overlay arcs",
                e.retained, e.retained_max, cap, e.compacted, e.rebases, e.overlay_len
            )?;
        }
        write!(
            f,
            "skylines    {:.2} routes/answer mean, {} max",
            self.mean_skyline_size, self.max_skyline_size
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One answered request: how it was served, its skyline size and its
    /// latency split.
    pub(crate) type Outcome = (Served, usize, LatencyBreakdown);

    /// The counters [`MetricsRecorder::count`] bumps; the repair counters
    /// ride on [`MetricsRecorder::record`].
    const EVENTS: [Counter; 4] =
        [Counter::Failed, Counter::StaleServed, Counter::Rejected, Counter::ShedDeadline];

    /// Random outcomes covering every `Served` variant.
    pub(crate) fn outcomes() -> impl Strategy<Value = Vec<Outcome>> {
        let one = (0u32..10, 0usize..30, 0u64..3_000_000, 0u64..900_000, 0usize..6);
        prop::collection::vec(one, 0..80).prop_map(|v| {
            v.into_iter()
                .map(|(kind, size, queue_ns, service_ns, routes)| {
                    let seeded = |s| Served::Search { seeded: Some(s) };
                    let served = match kind {
                        0 => Served::Search { seeded: None },
                        1 => seeded(SeedSource::Prefix),
                        2 => seeded(SeedSource::Ancestor),
                        3 => seeded(SeedSource::Suffix),
                        4 => Served::CacheHit,
                        5 => Served::Coalesced,
                        6 | 7 => Served::Repaired {
                            fallback: kind == 7,
                            routes_untouched: routes,
                            routes_rescored: routes / 2,
                        },
                        _ => Served::Approximate,
                    };
                    let ran = !matches!(served, Served::CacheHit | Served::Coalesced);
                    let engine = ran.then_some(Duration::from_nanos(service_ns / 2));
                    let latency = LatencyBreakdown {
                        queue_wait: Duration::from_nanos(queue_ns),
                        service: Duration::from_nanos(service_ns),
                        engine,
                    };
                    (served, size, latency)
                })
                .collect()
        })
    }

    /// A recorder fed `outcomes` and `events[i]` counts of `EVENTS[i]`.
    pub(crate) fn recorder(outcomes: &[Outcome], events: &[u64]) -> MetricsRecorder {
        let rec = MetricsRecorder::default();
        for &(served, size, latency) in outcomes {
            rec.record(latency, size, served);
        }
        for (&c, &k) in EVENTS.iter().zip(events) {
            for _ in 0..k {
                rec.count(c);
            }
        }
        rec
    }

    fn snapshot(rec: &MetricsRecorder) -> MetricsSnapshot {
        rec.snapshot(Duration::from_secs(1), CacheCounters::default(), EpochGcStats::default())
    }

    /// Cache and epoch stats varied by `k`.
    fn stats(k: u64) -> (CacheCounters, EpochGcStats) {
        let cache =
            CacheCounters { insertions: k + 1, evictions: k / 3, invalidations: k / 2, len: k };
        let n = k as usize;
        let epochs = EpochGcStats {
            retained: n % 4,
            retained_max: n % 5,
            retention: n % 3,
            compacted: k,
            rebases: k / 7,
            overlay_len: 2 * n,
        };
        (cache, epochs)
    }

    /// Two stats combined as `merge` documents: sums, but the largest
    /// retention.
    fn summed(
        (ca, ea): (CacheCounters, EpochGcStats),
        (cb, eb): (CacheCounters, EpochGcStats),
    ) -> (CacheCounters, EpochGcStats) {
        let cache = CacheCounters {
            insertions: ca.insertions + cb.insertions,
            evictions: ca.evictions + cb.evictions,
            invalidations: ca.invalidations + cb.invalidations,
            len: ca.len + cb.len,
        };
        let epochs = EpochGcStats {
            retained: ea.retained + eb.retained,
            retained_max: ea.retained_max + eb.retained_max,
            retention: ea.retention.max(eb.retention),
            compacted: ea.compacted + eb.compacted,
            rebases: ea.rebases + eb.rebases,
            overlay_len: ea.overlay_len + eb.overlay_len,
        };
        (cache, epochs)
    }

    /// Asserts a bucketed duration is within the histogram's 1/32 bound
    /// above the exact value.
    fn assert_bucketed(got: Duration, exact: Duration) {
        assert!(got >= exact, "bucketed {got:?} below exact {exact:?}");
        let slack = Duration::from_nanos((exact.as_nanos() as u64 / 32).max(1));
        assert!(got <= exact + slack, "bucketed {got:?} beyond {exact:?} + 1/32");
    }

    fn lat(us: u64) -> LatencyBreakdown {
        LatencyBreakdown::service_only(Duration::from_micros(us))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Every derived value equals the same figure counted straight from
        // the outcomes, and merging the snapshots of two recorders that
        // split the outcomes equals one recorder fed all of them.
        #[test]
        fn derived_values_and_merge_match_the_recorded_outcomes(
            case in outcomes().prop_flat_map(|o| {
                let n = o.len();
                (Just(o), 0..n + 1)
            }),
            events in prop::collection::vec(0u64..4, 4),
            walls in (1u64..5_000, 1u64..5_000),
            ks in (0u64..50, 0u64..50),
        ) {
            let (outcomes, split) = case;
            let all = snapshot(&recorder(&outcomes, &events));
            let of = |f: &dyn Fn(Served) -> bool| {
                outcomes.iter().filter(|o| f(o.0)).count() as u64
            };
            let sum = |f: &dyn Fn(&Outcome) -> u64| outcomes.iter().map(f).sum::<u64>();
            prop_assert_eq!(all.completed, outcomes.len() as u64);
            prop_assert_eq!(all.cache_hits, of(&|s| s == Served::CacheHit));
            prop_assert_eq!(all.coalesced, of(&|s| s == Served::Coalesced));
            prop_assert_eq!(all.approximate_served, of(&|s| s == Served::Approximate));
            prop_assert_eq!(
                all.executed,
                of(&|s| matches!(s, Served::Search { .. } | Served::Repaired { .. }))
            );
            prop_assert_eq!(
                all.completed,
                all.executed + all.cache_hits + all.coalesced + all.approximate_served
            );
            for (source, seeded) in [
                (SeedSource::Prefix, all.seeded_prefix),
                (SeedSource::Ancestor, all.seeded_ancestor),
                (SeedSource::Suffix, all.seeded_suffix),
            ] {
                prop_assert_eq!(seeded, of(&|s| s == Served::Search { seeded: Some(source) }));
            }
            let repairs = |fell_back| {
                of(&|s| matches!(s, Served::Repaired { fallback, .. } if fallback == fell_back))
            };
            prop_assert_eq!((all.repairs, all.repair_fallbacks), (repairs(false), repairs(true)));
            let tiers = |o: &Outcome| match o.0 {
                Served::Repaired { routes_untouched, routes_rescored, .. } => {
                    (routes_untouched as u64, routes_rescored as u64)
                }
                _ => (0, 0),
            };
            prop_assert_eq!(all.routes_untouched, sum(&|o| tiers(o).0));
            prop_assert_eq!(all.routes_rescored, sum(&|o| tiers(o).1));
            for (&c, &k) in EVENTS.iter().zip(&events) {
                prop_assert_eq!(all.counter(c), k);
            }
            let total = |o: &Outcome| o.2.total().as_nanos() as u64;
            prop_assert_eq!(all.latency_hist.count(), all.completed);
            prop_assert_eq!(all.latency_hist.sum_ns(), sum(&total));
            let max = outcomes.iter().map(total).max().unwrap_or(0);
            prop_assert_eq!(all.latency_max, Duration::from_nanos(max));
            prop_assert_eq!(all.queue_wait_hist.count(), all.completed);
            prop_assert_eq!(all.engine_hist.count(), sum(&|o| o.2.engine.is_some() as u64));
            let per_answer = |x: u64| {
                if outcomes.is_empty() { 0.0 } else { x as f64 / outcomes.len() as f64 }
            };
            prop_assert_eq!(all.mean_skyline_size, per_answer(sum(&|o| o.1 as u64)));
            prop_assert_eq!(all.max_skyline_size, outcomes.iter().map(|o| o.1).max().unwrap_or(0));
            prop_assert_eq!(all.cache_hit_rate, per_answer(all.cache_hits));
            prop_assert_eq!(all.throughput_qps, all.completed as f64);

            let (head, tail) = outcomes.split_at(split);
            let half: Vec<u64> = events.iter().map(|k| k / 2).collect();
            let rest: Vec<u64> = events.iter().zip(&half).map(|(k, h)| k - h).collect();
            let (wall_a, wall_b) = (Duration::from_millis(walls.0), Duration::from_millis(walls.1));
            let ((ca, ea), (cb, eb)) = (stats(ks.0), stats(ks.1));
            let mut merged = recorder(head, &half).snapshot(wall_a, ca, ea);
            merged.merge(&recorder(tail, &rest).snapshot(wall_b, cb, eb));
            let (cache, epochs) = summed(stats(ks.0), stats(ks.1));
            let whole = recorder(&outcomes, &events).snapshot(wall_a.max(wall_b), cache, epochs);
            prop_assert_eq!(merged, whole);
        }
    }

    #[test]
    fn latency_breakdown_splits_queue_wait_from_service_time() {
        let rec = MetricsRecorder::default();
        // 1 ms of queueing around 10 µs of work: end-to-end is dominated
        // by the queue, and the split must expose that honestly.
        for _ in 0..100 {
            rec.record(
                LatencyBreakdown {
                    queue_wait: Duration::from_millis(1),
                    service: Duration::from_micros(10),
                    engine: Some(Duration::from_micros(8)),
                },
                1,
                Served::Search { seeded: None },
            );
        }
        let snap = snapshot(&rec);
        assert_bucketed(snap.latency_p50, Duration::from_micros(1_010));
        assert_bucketed(snap.queue_wait_hist.quantile(0.5), Duration::from_millis(1));
        assert_bucketed(snap.engine_hist.quantile(0.5), Duration::from_micros(8));
        assert_eq!(snap.engine_hist.count(), 100);
        // A cache hit records no engine sample.
        rec.record(lat(5), 1, Served::CacheHit);
        let snap = snapshot(&rec);
        assert_eq!(snap.engine_hist.count(), 100);
        assert_eq!(snap.latency_hist.count(), 101);
    }

    #[test]
    fn overload_counters_keep_the_completed_partition_exact() {
        let rec = MetricsRecorder::default();
        rec.record(lat(40), 1, Served::Search { seeded: None });
        rec.record(lat(5), 1, Served::CacheHit);
        rec.record(lat(8), 1, Served::Coalesced);
        rec.record(lat(30), 1, Served::Approximate);
        rec.record(lat(25), 2, Served::Approximate);
        rec.count(Counter::Rejected);
        rec.count(Counter::ShedDeadline);
        rec.count(Counter::ShedDeadline);
        let snap = snapshot(&rec);
        // Shed requests never reach `completed` or `failed`; approximate
        // responses complete without counting as exact executions.
        assert_eq!((snap.completed, snap.failed, snap.executed), (5, 0, 1));
        assert_eq!((snap.approximate_served, snap.rejected, snap.shed_deadline), (2, 1, 2));
        // The report counts only the exact hit as a cache hit: the two
        // approximate answers are shared answers, not hits.
        let text = snap.to_string();
        assert!(
            text.contains("1 searches (4 answers shared: 1 cache hits, 1 coalesced)"),
            "{text}"
        );
        assert!(text.contains("20.0% hit rate (1 of 5 answers"), "{text}");
        assert!(text.contains("5 completed"), "{text}");
        assert!(text.contains("1 rejected at admission"), "{text}");
        assert!(text.contains("2 shed expired in queue"), "{text}");
        assert!(text.contains("2 served approximate"), "{text}");
        assert!(text.contains("0 prefix-, 0 ancestor-, 0 suffix-seeded"), "{text}");
        assert!(text.contains("queries/s"), "{text}");
        assert!(text.contains("split       queue-wait"), "{text}");
        assert!(text.contains("approximate "), "{text}");
        assert!(!text.contains("repaired  "), "empty rungs are omitted: {text}");
        assert!(text.contains("1.20 routes/answer mean, 2 max"), "{text}");
    }

    #[test]
    fn stale_serves_are_counted_and_reported() {
        // The tripwire behind the CI staleness gate: in a healthy service
        // this counter is never bumped; when it is, the snapshot and the
        // rendered report must expose it.
        let rec = MetricsRecorder::default();
        assert_eq!(snapshot(&rec).stale_served, 0);
        rec.count(Counter::StaleServed);
        rec.count(Counter::StaleServed);
        let snap = snapshot(&rec);
        assert_eq!(snap.stale_served, 2);
        assert!(snap.to_string().contains("2 stale serves"), "{snap}");
    }
}
