//! Workload replay: skewed query streams over a pool of distinct generated
//! queries, executed through a [`QueryService`] — optionally as an
//! *open-loop* arrival process with live weight updates underneath.
//!
//! Real query traffic repeats itself — popular start areas and category
//! sequences recur, which is exactly what the cross-query reuse layer
//! (result cache, request coalescing) exploits.
//! Four stream shapes are supported ([`StreamPattern`]):
//!
//! * **Zipf** — `total` requests drawn from the pool with
//!   Zipf(`zipf_exponent`) popularity, shuffled into an arrival order
//!   (PR 1's original stream; exercises the cache).
//! * **Duplicate bursts** — the Zipf draw repeated in consecutive bursts
//!   of [`ReplaySpec::burst`] identical requests, so duplicates are in
//!   flight *simultaneously*; exercises request coalescing.
//! * **Prefix chains** — the pool is expanded with every proper prefix
//!   ⟨c₁,…,c_j⟩ of each generated query and the stream walks chains
//!   short-to-long in wavefronts (every chain's first entry, then every
//!   second entry, …): queries that share leading positions, of every
//!   length.
//! * **Hierarchy** — each generated query ⟨c₁,…,c_k⟩ expands into a
//!   3-entry chain walking a category subtree: its suffix ⟨c₂,…,c_k⟩,
//!   the ancestor variant ⟨parent(c₁),c₂,…,c_k⟩, then the query itself,
//!   walked in wavefronts the same way. Generated queries name leaf
//!   categories, so the ancestor variants are the only queries naming an
//!   internal category, which no PoI matches perfectly.
//!
//! Two orthogonal realism knobs turn the closed-loop batch into a live
//! serving experiment:
//!
//! * **Open-loop load** ([`ReplaySpec::qps`] > 0): requests are submitted
//!   at exponentially distributed inter-arrival times targeting the given
//!   rate, independent of completion — so latency under saturation is
//!   measured honestly (queueing delay included) instead of the closed
//!   loop's self-throttling. (If the bounded submission queue fills, the
//!   submitter blocks; a sustained-overload run measures exactly that
//!   backpressure.)
//! * **Weight updates** ([`ReplaySpec::update_rate`] > 0): a background
//!   updater publishes bursts of [`update_burst`](ReplaySpec::update_burst)
//!   random edge reweightings (log-uniform factors within
//!   [`UPDATE_MAGNITUDE`] of the base
//!   weight) as new weight epochs, at exponentially distributed instants,
//!   while the stream is in flight. Queries pin the epoch current at
//!   dequeue time; cached skylines from older epochs are lazily
//!   invalidated and must never be served.
//!
//! With [`ReplaySpec::verify`] set, every answered request is re-answered
//! by a sequential cold [`Bssr`] run *at the epoch the response reports it
//! was pinned to*. Each lane mirrors every weight burst it publishes into
//! a private, unbounded weight history and the oracle pins from that, so
//! a bounded [`ReplaySpec::retention`] ring hides no response from it. The
//! skylines are compared with [`equivalent_skylines`]: same size and
//! score-identical up to the score tolerance. (Exact route equality is deliberately not
//! required — a warm-started search may return a different
//! *representative* route for a score-tied skyline point.) Together with
//! the report's stale-serve count (which must be zero) this is the
//! end-to-end proof that staleness never leaks.

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use skysr_core::bssr::{Bssr, BssrScratch};
use skysr_core::dominance::{skyline_of, SkylineSet};
use skysr_core::error::QueryError;
use skysr_core::query::SkySrQuery;
use skysr_core::route::{equivalent_skylines, SkylineRoute};
use skysr_data::dataset::Dataset;
use skysr_data::workload::WorkloadSpec;
use skysr_data::zipf::Zipf;
use skysr_graph::{EpochId, RoadNetwork, WeightDelta, WeightEpoch};

use crate::context::ServiceContext;
use crate::metrics::{MetricsSnapshot, Served};
use crate::net::{DatasetFingerprint, ProtocolError, RemoteService};
use crate::service::{QueryRequest, QueryResponse, QueryService, Service, ServiceConfig, Ticket};
use crate::shard::{RegionId, Router};
use crate::telemetry::{Rung, TelemetryConfig, TraceSpan};

/// Shape of the replayed request stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamPattern {
    /// Zipf-popular requests in shuffled arrival order.
    Zipf,
    /// Zipf-popular requests arriving in bursts of identical duplicates.
    DuplicateBursts,
    /// Chains ⟨c₁⟩, ⟨c₁,c₂⟩, …, ⟨c₁,…,c_k⟩ walked short-to-long.
    PrefixChains,
    /// Category-subtree chains ⟨c₂…c_k⟩, ⟨parent(c₁),c₂…c_k⟩,
    /// ⟨c₁,c₂…c_k⟩ walked in wavefronts (internal-category queries).
    Hierarchy,
}

/// Entries per hierarchy chain: suffix, ancestor variant, full query.
pub const HIERARCHY_CHAIN: usize = 3;

impl StreamPattern {
    /// Every pattern, in the order the docs list them.
    pub(crate) const ALL: [StreamPattern; 4] = [
        StreamPattern::Zipf,
        StreamPattern::DuplicateBursts,
        StreamPattern::PrefixChains,
        StreamPattern::Hierarchy,
    ];
}

impl std::str::FromStr for StreamPattern {
    type Err = String;

    /// Parses the pattern's [`Display`](std::fmt::Display) name.
    fn from_str(s: &str) -> Result<StreamPattern, String> {
        StreamPattern::ALL
            .into_iter()
            .find(|p| p.to_string() == s)
            .ok_or_else(|| format!("unknown stream pattern {s:?}"))
    }
}

impl std::fmt::Display for StreamPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StreamPattern::Zipf => "zipf",
            StreamPattern::DuplicateBursts => "duplicate",
            StreamPattern::PrefixChains => "prefix",
            StreamPattern::Hierarchy => "hierarchy",
        })
    }
}

/// Parameters of one replay run.
#[derive(Clone, Debug)]
pub struct ReplaySpec {
    /// Total requests replayed.
    pub total: usize,
    /// Distinct *generated* queries (the prefix pattern additionally pools
    /// every proper prefix of each).
    pub distinct: usize,
    /// Category-sequence length of generated queries.
    pub seq_len: usize,
    /// Stream shape.
    pub pattern: StreamPattern,
    /// Consecutive identical requests per burst
    /// ([`StreamPattern::DuplicateBursts`] only).
    pub burst: usize,
    /// Zipf exponent of query popularity (0 = uniform, 1 = classic skew).
    pub zipf_exponent: f64,
    /// RNG seed for pool generation, stream sampling, arrival times and
    /// update placement.
    pub seed: u64,
    /// The serving stack every replayed service is built with. A sharded
    /// replay builds one such service per region; a remote replay ignores
    /// it (the daemon's stack is fixed at its startup) except for
    /// [`engine`](ServiceConfig::engine), the oracle's engine. Full span
    /// retention ([`TelemetryConfig::trace_all`]) with a capacity of at
    /// least [`total`](ReplaySpec::total) also arms the trace-completeness
    /// audit ([`ReplayReport::trace_violations`]).
    pub service: ServiceConfig,
    /// Open-loop target arrival rate in queries/second; `0` replays the
    /// stream as a closed-loop batch (submit-everything, PR 1 behaviour).
    pub qps: f64,
    /// Weight-update bursts per second published while the stream is in
    /// flight; `0` keeps the network static. Mutually exclusive with
    /// [`update_every`](ReplaySpec::update_every).
    pub update_rate: f64,
    /// Synchronous update waves: publish one weight-delta burst after
    /// every `update_every` *completed* requests (closed loop: submit the
    /// chunk, drain it, publish, continue). `0` disables. Unlike the
    /// wall-clock updater this makes the number of epoch crossings per
    /// cached key deterministic, which is what a perf comparison of
    /// repair vs. invalidate-and-recompute needs — open-loop churn has a
    /// feedback loop (a slow service clumps requests inside one epoch and
    /// dodges its own invalidation penalty).
    pub update_every: usize,
    /// Edge reweightings per update burst, each within
    /// [`UPDATE_MAGNITUDE`] of its base weight.
    pub update_burst: usize,
    /// Weight-epoch history retention: keep at most this many epochs
    /// pinnable, dropping older epochs' batches from the service's history
    /// log as new ones publish (`0` = unlimited). Verification is
    /// unaffected: the oracle pins from the lane's own unbounded history.
    pub retention: usize,
    /// Also re-answer every request sequentially at its pinned epoch and
    /// compare skylines (score-equivalent multisets).
    pub verify: bool,
    /// Serving deadline attached to every submitted request (`None` = no
    /// deadline). With one, the service schedules deadline-aware, sheds
    /// requests whose deadline lapsed in queue
    /// ([`QueryError::Overloaded`]), and serves mid-engine expiries as
    /// valid approximate partials; the report carries the shed /
    /// approximate / met-deadline split.
    pub deadline: Option<Duration>,
    /// Overload factor: `> 0` replays open-loop at this multiple of the
    /// service's *measured* capacity — a short closed-loop calibration
    /// pass on an identically configured scratch service (own cache, same
    /// shared context) measures sustainable throughput first, then the
    /// real run arrives at `overload ×` that rate. `2.0` is the canonical
    /// "2× capacity" overload cell. Mutually exclusive with an explicit
    /// [`qps`](ReplaySpec::qps) and with closed-loop update waves. The
    /// service's queue must hold the whole stream: an open loop blocks on
    /// a full queue, and would then measure backpressure rather than the
    /// scheduler.
    pub overload: f64,
}

impl Default for ReplaySpec {
    fn default() -> ReplaySpec {
        ReplaySpec {
            total: 1000,
            distinct: 100,
            seq_len: 3,
            pattern: StreamPattern::Zipf,
            burst: 16,
            zipf_exponent: 1.0,
            seed: 7,
            // Four workers rather than one per CPU, so a replay's pool
            // does not depend on the machine it runs on.
            service: ServiceConfig { workers: 4, ..ServiceConfig::default() },
            qps: 0.0,
            update_rate: 0.0,
            update_burst: 32,
            update_every: 0,
            retention: 0,
            verify: false,
            deadline: None,
            overload: 0.0,
        }
    }
}

/// The largest factor by which a replay's weight updates move an edge off
/// its base weight, either way: each reweighted edge gets `base_weight ×
/// UPDATE_MAGNITUDE^u` with `u` uniform in [−1, 1]
/// ([`random_traffic_deltas`]).
pub const UPDATE_MAGNITUDE: f64 = 2.0;

/// The longest interval a replay schedules, as [`ReplaySpec::validate`]'s
/// messages state it: a deadline, or the mean gap between open-loop
/// arrivals or update bursts. A slower replay is not a workload anyone
/// waits for, and a far slower one overflows the clock.
const MAX_INTERVAL: Duration = Duration::from_secs(1000);

impl ReplaySpec {
    /// Whether the replayed service keeps every span: full tracing, the
    /// only retention under which the trace-completeness audit runs.
    pub fn audits_spans(&self) -> bool {
        let t = &self.service.telemetry;
        t.tracing && t.sample_every == 1
    }

    /// Every rule the spec must meet on its own, before any dataset
    /// exists. `Err` names the first rule it breaks. The replay entry
    /// points panic on an invalid spec.
    pub fn validate(&self) -> Result<(), String> {
        let slow = |r: f64| r != 0.0 && !(r * MAX_INTERVAL.as_secs_f64() >= 1.0 && r.is_finite());
        let sized = |x: f64, least: f64| x >= least && x.is_finite();
        let updates = self.update_rate > 0.0 || self.update_every > 0;
        let rules = [
            (
                [self.total, self.distinct, self.seq_len].contains(&0),
                "total, distinct and seq_len must be at least 1",
            ),
            (
                self.pattern == StreamPattern::Hierarchy && self.seq_len < 2,
                "the hierarchy pattern needs seq_len >= 2 (each chain walks the query's suffix \
                 and an ancestor variant)",
            ),
            (
                self.pattern == StreamPattern::DuplicateBursts && self.burst < 2,
                "the duplicate pattern needs bursts of at least 2 requests",
            ),
            (!sized(self.zipf_exponent, 0.0), "zipf_exponent must be a non-negative finite number"),
            (slow(self.qps), "qps must be 0 or a finite rate of at least one per 1000 s"),
            (
                slow(self.update_rate),
                "update_rate must be 0 or a finite rate of at least one per 1000 s",
            ),
            (
                updates && self.update_burst == 0,
                "update_burst must be at least 1 when weights update",
            ),
            (
                self.update_every > 0 && (self.qps > 0.0 || self.update_rate > 0.0),
                "update_every replays synchronous closed-loop update waves and conflicts with the \
                 open-loop qps and update_rate",
            ),
            (!sized(self.overload, 0.0), "overload must be a non-negative finite number"),
            (
                self.overload > 0.0 && (self.qps > 0.0 || self.update_every > 0),
                "overload resolves its own open-loop rate from measured capacity and conflicts \
                 with an explicit qps and with update_every",
            ),
            (
                self.deadline.is_some_and(|d| d.is_zero() || d > MAX_INTERVAL),
                "the deadline must be positive and at most 1000 s",
            ),
        ];
        if let Some((_, why)) = rules.into_iter().find(|&(broken, _)| broken) {
            return Err(why.into());
        }
        if self.overload > 0.0 && self.service.queue_capacity < self.total {
            return Err(format!(
                "an overload replay queues its whole stream: queue_capacity {} is below total {}",
                self.service.queue_capacity, self.total
            ));
        }
        Ok(())
    }
}

/// Outcome of a replay run.
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// Requests replayed.
    pub total: usize,
    /// Distinct queries in the (possibly prefix-expanded) pool.
    pub distinct: usize,
    /// Stream shape replayed.
    pub pattern: StreamPattern,
    /// Worker threads of the replayed service; `None` over the wire,
    /// where the pool is the daemon's and the client cannot see it.
    pub workers: Option<usize>,
    /// Open-loop target rate (0 = closed loop).
    pub qps: f64,
    /// Open loop only: how far the generator fell behind its Poisson
    /// schedule — the largest gap between reaching a request and that
    /// request's due time. A blocked submission (a full queue) shows here:
    /// a large lag means the run measured the submitter's backpressure,
    /// not queueing. `None` for closed loops.
    pub lag: Option<Duration>,
    /// Wall-clock time of the concurrent replay (in a sharded replay, of
    /// this shard's own stream).
    pub wall: Duration,
    /// Weight epochs published while the stream was in flight.
    pub epochs_published: u64,
    /// Service metrics over the replay window, taken once the stream
    /// completed; `metrics.epochs` is the history the retention gate
    /// checks against the configured cap.
    pub metrics: MetricsSnapshot,
    /// `Some(mismatches)` when verification ran: the number of requests
    /// whose concurrent skyline was not score-equivalent to a fresh
    /// sequential run at the request's pinned epoch.
    pub verify_mismatches: Option<usize>,
    /// Trace spans drained from the service after the stream completed
    /// (retention governed by the spec's [`ServiceConfig::telemetry`]),
    /// sorted by request id.
    pub spans: Vec<TraceSpan>,
    /// `Some(violations)` when full tracing ran: breaks of the trace-
    /// completeness invariant (every successful response has exactly one
    /// span, the span's rung and epoch match the response, no span is
    /// orphaned, and per-rung span counts agree with the metrics
    /// counters and per-rung histograms). Must be zero.
    pub trace_violations: Option<usize>,
    /// Overload factor driven (0 = none). When set, [`qps`](Self::qps) is
    /// the *resolved* open-loop rate: factor × measured capacity.
    pub overload: f64,
    /// `Some((met, finished))` when a per-request deadline was set:
    /// `finished` counts requests that produced a response (shed requests
    /// excluded — they produced none), `met` those answered within the
    /// deadline.
    pub met_deadline: Option<(usize, usize)>,
}

impl ReplayReport {
    /// Stale serves observed (cache answers from a non-pinned epoch).
    /// The staleness gate: must be zero.
    pub fn stale_served(&self) -> u64 {
        self.metrics.stale_served
    }

    /// Requests shed under overload: admission rejections plus deadlines
    /// expired in queue. In neither `completed` nor `failed`.
    pub fn shed(&self) -> u64 {
        self.metrics.rejected + self.metrics.shed_deadline
    }

    /// Responses served in degraded mode (deadline expired mid-engine;
    /// valid partial skyline, never cached).
    pub fn approximate_served(&self) -> u64 {
        self.metrics.approximate_served
    }

    /// The replay's gates, each checked wherever it applies: trace
    /// completeness and well-formed spans (under full tracing), oracle
    /// exactness (when verified), zero stale serves, and under a bounded
    /// retention ring of K epochs, at most K pinnable after the stream.
    /// `Err` names the first gate that failed.
    pub fn check(&self) -> Result<(), String> {
        if let Some(v) = self.trace_violations.filter(|&v| v > 0) {
            return Err(format!(
                "trace-completeness invariant violated: {v} violation(s) (a response without \
                 exactly one matching span, or rung/epoch disagreement)"
            ));
        }
        if self.trace_violations.is_some() {
            if let Some((id, why)) =
                self.spans.iter().find_map(|s| malformed(s).map(|why| (s.request_id, why)))
            {
                return Err(format!("span gate failed: the span of request {id} {why}"));
            }
        }
        if self.verify_mismatches.is_some_and(|m| m > 0) {
            return Err("verification failed: concurrent and sequential skylines differ".into());
        }
        if self.stale_served() > 0 {
            return Err(format!(
                "staleness gate failed: {} answer(s) served from a non-pinned-epoch cache entry",
                self.stale_served()
            ));
        }
        let e = &self.metrics.epochs;
        if e.retention > 0 && e.retained > e.retention {
            return Err(format!(
                "retention gate failed: {} epochs retained after drain, above the cap of {}",
                e.retained, e.retention
            ));
        }
        Ok(())
    }
}

/// What is wrong with `span`, if anything: it must record at least one
/// rung-ladder attempt, spend no longer queued and in the engine than end
/// to end (to the microsecond the span file prints), and, when repaired,
/// name its repair tier and delta index.
fn malformed(span: &TraceSpan) -> Option<&'static str> {
    if span.attempts.is_empty() {
        Some("records no rung-ladder attempt")
    } else if span.queue_wait + span.engine > span.total + Duration::from_micros(1) {
        Some("spends longer queued and in the engine than end to end")
    } else if span.rung == Rung::Repaired
        && (span.repair_tier.is_none() || span.delta_index.is_none())
    {
        Some("is repaired but names no repair tier or delta index")
    } else {
        None
    }
}

impl std::fmt::Display for ReplayReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "replayed    {} requests ({} distinct, {} stream)",
            self.total, self.distinct, self.pattern
        )?;
        if let Some(workers) = self.workers {
            write!(f, " on {workers} workers")?;
        }
        write!(f, " in {:.2} s", self.wall.as_secs_f64())?;
        if self.qps > 0.0 {
            write!(f, " (open loop @ {:.0} q/s target", self.qps)?;
            if self.overload > 0.0 {
                write!(f, " = {:.1}x measured capacity", self.overload)?;
            }
            if let Some(lag) = self.lag {
                write!(f, ", at most {:.1} ms behind schedule", lag.as_secs_f64() * 1e3)?;
            }
            write!(f, ")")?;
        }
        writeln!(f)?;
        if let Some((met, finished)) = self.met_deadline {
            writeln!(
                f,
                "deadline    {met}/{finished} responses within deadline; {} shed ({} at \
                 admission, {} expired in queue), {} served approximate",
                self.shed(),
                self.metrics.rejected,
                self.metrics.shed_deadline,
                self.approximate_served(),
            )?;
        }
        if self.epochs_published > 0 {
            writeln!(
                f,
                "updates     {} weight epochs published mid-stream",
                self.epochs_published
            )?;
        }
        if self.metrics.epochs.retention > 0 {
            let e = &self.metrics.epochs;
            writeln!(
                f,
                "history     {} epochs retained after drain (cap {}), {} compacted, {} bytes",
                e.retained, e.retention, e.compacted, e.history_bytes
            )?;
        }
        write!(f, "{}", self.metrics)?;
        if !self.spans.is_empty() || self.trace_violations.is_some() {
            write!(f, "\ntrace       {} spans retained", self.spans.len())?;
            match self.trace_violations {
                Some(0) => {
                    write!(f, " — completeness OK (one span per response, rungs match)")?;
                }
                Some(v) => write!(f, " — {v} completeness violation(s)")?,
                None => write!(f, " (sampled)")?,
            }
        }
        if let Some(m) = self.verify_mismatches {
            write!(f, "\nverify      ")?;
            if m == 0 {
                write!(f, "OK — every skyline equivalent to a fresh search at its pinned epoch")?;
            } else {
                write!(f, "FAILED — {m} mismatching request(s)")?;
            }
        }
        Ok(())
    }
}

/// Builds the query pool the stream draws from. The prefix pattern expands
/// each generated k-position query into its full chain (indices
/// `q*seq_len + (len-1)`).
pub fn build_pool(dataset: &Dataset, spec: &ReplaySpec) -> Vec<SkySrQuery> {
    let base = WorkloadSpec::new(spec.seq_len)
        .queries(spec.distinct)
        .seed(spec.seed)
        .generate(dataset)
        .queries;
    match spec.pattern {
        StreamPattern::Zipf | StreamPattern::DuplicateBursts => base,
        StreamPattern::PrefixChains => base
            .into_iter()
            .flat_map(|q| {
                (1..=q.len())
                    .map(|l| SkySrQuery::with_positions(q.start, q.sequence[..l].to_vec()))
                    .collect::<Vec<_>>()
            })
            .collect(),
        StreamPattern::Hierarchy => {
            assert!(
                spec.seq_len >= 2,
                "the hierarchy pattern needs at least 2 positions (a suffix must exist)"
            );
            base.into_iter()
                .flat_map(|q| {
                    // Chain indices c*HIERARCHY_CHAIN + {0: suffix,
                    // 1: ancestor variant, 2: full}. A root first category
                    // degenerates entry 1 to the full query.
                    let suffix = SkySrQuery::with_positions(q.start, q.sequence[1..].to_vec());
                    let mut anc_seq = q.sequence.clone();
                    if let skysr_core::PositionSpec::Category(c) = &q.sequence[0] {
                        anc_seq[0] = dataset.forest.parent(*c).unwrap_or(*c).into();
                    }
                    let anc_q = SkySrQuery::with_positions(q.start, anc_seq);
                    [suffix, anc_q, q]
                })
                .collect()
        }
    }
}

/// Builds the request stream: `spec.total` indexes into the pool.
fn request_stream(spec: &ReplaySpec, pool_len: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x7e_706c_6179); // "replay"
    match spec.pattern {
        StreamPattern::Zipf => {
            let zipf = Zipf::new(pool_len, spec.zipf_exponent);
            let mut stream: Vec<usize> = (0..spec.total).map(|_| zipf.sample(&mut rng)).collect();
            stream.shuffle(&mut rng);
            stream
        }
        StreamPattern::DuplicateBursts => {
            // Bursts stay consecutive (no shuffle): the point is duplicates
            // being in flight at the same time.
            let zipf = Zipf::new(pool_len, spec.zipf_exponent);
            let mut stream = Vec::with_capacity(spec.total);
            while stream.len() < spec.total {
                let i = zipf.sample(&mut rng);
                for _ in 0..spec.burst.min(spec.total - stream.len()) {
                    stream.push(i);
                }
            }
            stream
        }
        // Every chain's length-1 query, then every length-2 query, and so
        // on (cycling until `total`).
        StreamPattern::PrefixChains => {
            chain_wavefronts(spec.total, pool_len, spec.seq_len, "prefix-chain")
        }
        // Every chain's suffix, then every ancestor variant, then every
        // full query.
        StreamPattern::Hierarchy => {
            chain_wavefronts(spec.total, pool_len, HIERARCHY_CHAIN, "hierarchy")
        }
    }
}

/// Walks fixed-stride chains in wavefronts: entry 0 of every chain, then
/// entry 1 of every chain, … cycling until `total` requests.
fn chain_wavefronts(total: usize, pool_len: usize, stride: usize, what: &str) -> Vec<usize> {
    assert!(
        pool_len >= stride && pool_len.is_multiple_of(stride),
        "a {what} pool must hold whole chains of {stride} entries (got {pool_len}) — build it \
         with build_pool and the same spec"
    );
    let chains = pool_len / stride;
    let mut stream = Vec::with_capacity(total);
    'outer: loop {
        for l in 0..stride {
            for chain in 0..chains {
                if stream.len() == total {
                    break 'outer;
                }
                stream.push(chain * stride + l);
            }
        }
    }
    stream
}

/// One exponential(1) draw — inter-arrival times of a Poisson process.
fn exp_sample(rng: &mut StdRng) -> f64 {
    let u: f64 = rng.random(); // [0, 1)
    -(1.0 - u).ln()
}

/// `count` random edge reweightings over `graph`: arcs sampled uniformly,
/// each assigned `base_weight × magnitude^u` with `u` uniform in [−1, 1].
/// Factors are relative to the base weights so repeated bursts never drift
/// the network off to extremes.
pub fn random_traffic_deltas(
    graph: &RoadNetwork,
    count: usize,
    magnitude: f64,
    rng: &mut StdRng,
) -> Vec<WeightDelta> {
    assert!(magnitude >= 1.0, "update magnitude must be >= 1, got {magnitude}");
    assert!(graph.num_arcs() > 0, "cannot reweight an edgeless graph");
    (0..count)
        .map(|_| {
            let slot = rng.random_range(0usize..graph.num_arcs());
            let (from, to, _) = graph.arc(slot);
            let base = graph.base_arc_weight(slot).get();
            let u: f64 = rng.random::<f64>() * 2.0 - 1.0;
            WeightDelta::new(from, to, base * magnitude.powf(u))
        })
        .collect()
}

/// The name of a one-region replay's region, as [`City::regions`]
/// names the first.
///
/// [`City::regions`]: crate::scenario::City::regions
const REGION_0: &str = "region-0";

/// Replays `spec` against `dataset` and reports service metrics.
///
/// The dataset is consumed: its graph, forest and PoI table become the
/// shared [`ServiceContext`]. Use [`build_pool`] + [`replay_on`] directly
/// to run several replays (e.g. config comparisons) over one context.
///
/// # Panics
/// If the spec is invalid ([`ReplaySpec::validate`]), or the dataset
/// cannot populate a workload of `spec.seq_len` (see
/// [`WorkloadSpec::generate`]).
pub fn replay(dataset: Dataset, spec: &ReplaySpec) -> ReplayReport {
    let region = (REGION_0.to_owned(), dataset);
    replay_sharded(vec![region], spec).shards.pop().expect("one region reports once").report
}

/// Replays `spec`'s stream over an already-built pool and shared context:
/// the one-region case of [`replay_sharded`].
pub fn replay_on(ctx: Arc<ServiceContext>, pool: &[SkySrQuery], spec: &ReplaySpec) -> ReplayReport {
    let lane = Lane::new(REGION_0.to_owned(), ctx, Cow::Borrowed(pool), spec.clone());
    run_lanes(vec![lane]).shards.pop().expect("one lane reports once").report
}

/// One shard's slice of a [`replay_sharded`] run.
#[derive(Clone, Debug)]
pub struct ShardReplay {
    /// The shard's region address.
    pub region: RegionId,
    /// The region's human-readable name.
    pub name: String,
    /// The shard's own full replay report. Metrics, epoch accounting,
    /// oracle verification and the trace audit are all shard-local —
    /// exactly the single-tenant [`replay_on`] report, computed against
    /// this shard's private context.
    pub report: ReplayReport,
}

/// Outcome of a multi-tenant replay: one [`ReplayReport`] per shard plus
/// the router-level accounting no single shard can see.
#[derive(Clone, Debug)]
pub struct ShardedReplayReport {
    /// Per-shard reports in region order (region 0 first).
    pub shards: Vec<ShardReplay>,
    /// Wall clock of the whole run (every shard driven concurrently).
    pub wall: Duration,
    /// Requests the router refused for naming a region no shard serves.
    /// A replay stamps every request with its own lane's region, so this
    /// must be zero.
    pub misrouted: u64,
}

impl ShardedReplayReport {
    /// Requests replayed across all shards.
    pub fn total(&self) -> usize {
        self.shards.iter().map(|s| s.report.total).sum()
    }

    /// The fleet-wide metrics view — what [`QueryService::metrics`] on the
    /// router itself serves: every shard's snapshot folded through
    /// [`MetricsSnapshot::merge`].
    pub fn merged_metrics(&self) -> MetricsSnapshot {
        let mut shards = self.shards.iter();
        let mut merged =
            shards.next().expect("a router holds at least one shard").report.metrics.clone();
        for s in shards {
            merged.merge(&s.report.metrics);
        }
        merged
    }

    /// Every shard's [`ReplayReport::check`], then the routing gate:
    /// nothing misrouted.
    pub fn check(&self) -> Result<(), String> {
        self.check_with(ReplayReport::check)
    }

    /// `lane` over every shard's report, a failure prefixed with the
    /// failing shard when there are several, then the routing gate:
    /// nothing misrouted. A one-lane fleet fails exactly as its report.
    pub(crate) fn check_with(
        &self,
        lane: impl Fn(&ReplayReport) -> Result<(), String>,
    ) -> Result<(), String> {
        for s in &self.shards {
            lane(&s.report).map_err(|e| match self.shards.len() {
                1 => e,
                _ => format!("shard {} ({}): {e}", s.region, s.name),
            })?;
        }
        if self.misrouted > 0 {
            return Err(format!(
                "routing gate failed: {} request(s) named a region no shard serves",
                self.misrouted
            ));
        }
        Ok(())
    }
}

impl std::fmt::Display for ShardedReplayReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for s in &self.shards {
            writeln!(f, "--- shard {} ({}) ---", s.region, s.name)?;
            writeln!(f, "{}", s.report)?;
        }
        write!(
            f,
            "fleet       {} requests over {} shards in {:.2} s ({} misrouted)",
            self.total(),
            self.shards.len(),
            self.wall.as_secs_f64(),
            self.misrouted
        )
    }
}

/// Replays `spec` concurrently against several regions behind one
/// [`Router`] — the multi-tenant twin of [`replay`].
///
/// Each `(name, dataset)` pair becomes one shard with its own
/// [`ServiceContext`], worker pool, cache and telemetry, region `i` being
/// the `i`-th pair. Every shard gets its own query pool, request stream,
/// (if enabled) weight-update process and overload calibration, derived
/// from `spec` with a shard-salted seed (shard 0 keeps the caller's seed,
/// so a one-shard sharded replay is bit-identical to [`replay`]). Each
/// lane drives its stream through [`Router::region_service`] — requests
/// are region-stamped and dispatched exactly like network traffic — while
/// its updater publishes through [`Router::publish_weights_to`], so
/// weight churn stays shard-local by construction.
///
/// Verification, stale-serve and trace audits run *per shard* against that
/// shard's private context: a mismatch on shard A cannot be masked by
/// shard B, which is precisely the isolation proof the multi-tenant
/// architecture claims.
///
/// # Panics
/// If `datasets` is empty or the spec is invalid
/// ([`ReplaySpec::validate`]).
pub fn replay_sharded(datasets: Vec<(String, Dataset)>, spec: &ReplaySpec) -> ShardedReplayReport {
    assert!(!datasets.is_empty(), "a sharded replay needs at least one region");
    spec.validate().unwrap_or_else(|e| panic!("invalid replay spec: {e}"));
    let lanes = datasets
        .into_iter()
        .enumerate()
        .map(|(i, (name, dataset))| {
            // Salt the seed per shard so pools, streams and updater bursts
            // differ across regions; shard 0 keeps the caller's seed.
            let spec = ReplaySpec {
                seed: spec.seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                ..spec.clone()
            };
            let pool = build_pool(&dataset, &spec);
            let ctx = Arc::new(ServiceContext::from_dataset(dataset));
            Lane::new(name, ctx, Cow::Owned(pool), spec)
        })
        .collect();
    run_lanes(lanes)
}

/// Drives in-process lanes as the shards of one router and reports each.
///
/// Every lane is set up before its service exists — retention ring,
/// landmark oracle, overload calibration — so none of that lands in the
/// service's measured window. All lanes then drive concurrently, each
/// through its own region-scoped view so the router's dispatch path is
/// on the hot path. Each lane's metrics (its epoch history included) and
/// spans are captured once every stream completed, while its service is
/// up.
fn run_lanes(mut lanes: Vec<Lane<'_>>) -> ShardedReplayReport {
    for lane in &mut lanes {
        if lane.spec.retention > 0 {
            lane.ctx.set_epoch_retention(lane.spec.retention);
        }
        if lane.spec.service.repair {
            // Build the landmark oracle before the clock starts: repair's
            // cheap tiers consult it on the very first repaired request.
            let _ = lane.ctx.landmarks();
        }
        if lane.spec.overload > 0.0 {
            lane.spec.qps = lane.measure_capacity() * lane.spec.overload;
        }
    }
    // Lane `i` is region `i`. The lanes' specs differ only in their seeds
    // and rates, so one stack serves them all.
    let regions = lanes.iter().map(|lane| (lane.name.clone(), Arc::clone(&lane.ctx)));
    let router = Router::new(regions, &lanes[0].spec.service);
    let regions: Vec<RegionId> = (0..lanes.len()).map(|i| RegionId(i as u16)).collect();

    let drive_lane = |lane: &Lane<'_>, region: RegionId| {
        let router = &router;
        let service = router.region_service(region).expect("region was registered");
        let publish = move |deltas: &[WeightDelta]| {
            router.publish_weights_to(region, deltas).expect("region was registered")
        };
        lane.drive(&service, &publish)
    };
    let t0 = Instant::now();
    let driven: Vec<Driven> = std::thread::scope(|scope| {
        // The first lane drives on this thread, so a one-lane replay
        // starts submitting the moment its service exists — the same
        // window a bare service's replay measures.
        let handles: Vec<_> = lanes
            .iter()
            .zip(&regions)
            .skip(1)
            .map(|(lane, &region)| scope.spawn(move || drive_lane(lane, region)))
            .collect();
        let mut driven = vec![drive_lane(&lanes[0], regions[0])];
        driven.extend(handles.into_iter().map(|h| h.join().expect("lane driver panicked")));
        driven
    });
    let wall = t0.elapsed();

    let observed: Vec<(MetricsSnapshot, Vec<TraceSpan>, usize)> = regions
        .iter()
        .map(|&region| {
            let service = router.shard(region).expect("region was registered");
            (service.metrics(), service.traces().drain(), service.config().workers)
        })
        .collect();
    let misrouted = router.misrouted();
    let _ = router.shutdown();
    drop(router);

    let shards = lanes
        .iter()
        .zip(regions)
        .zip(driven.into_iter().zip(observed))
        .map(|((lane, region), (driven, (metrics, spans, workers)))| {
            let report = lane.report(&driven, metrics, spans, Some(workers));
            ShardReplay { region, name: lane.name.clone(), report }
        })
        .collect();
    ShardedReplayReport { shards, wall, misrouted }
}

/// What driving a lane produced: the outcomes in stream order, the wall
/// time, and (open loop) the schedule lag.
type Driven = (Vec<Result<QueryResponse, QueryError>>, Duration, Option<Duration>);

/// One replay lane: a named region's context, query pool, request stream
/// and spec, plus the lane's own record of the weights it publishes.
struct Lane<'a> {
    name: String,
    ctx: Arc<ServiceContext>,
    pool: Cow<'a, [SkySrQuery]>,
    stream: Vec<usize>,
    spec: ReplaySpec,
    /// The service's epoch when the lane started: the mirror's epoch 0.
    epoch_before: EpochId,
    /// Every burst the lane publishes, in an unbounded history of its
    /// own: the oracle pins from here, never from the service's ring.
    mirror: WeightEpoch,
}

impl<'a> Lane<'a> {
    fn new(
        name: String,
        ctx: Arc<ServiceContext>,
        pool: Cow<'a, [SkySrQuery]>,
        spec: ReplaySpec,
    ) -> Lane<'a> {
        spec.validate().unwrap_or_else(|e| panic!("invalid replay spec: {e}"));
        assert!(!pool.is_empty(), "replay needs a non-empty pool");
        let stream = request_stream(&spec, pool.len());
        // The mirror starts from the current view (a lane may start past
        // epoch 0 on a reused context).
        let start = ctx.pin();
        let (mirror, epoch_before) = (WeightEpoch::new(start.graph().clone()), start.epoch());
        Lane { name, ctx, pool, stream, spec, epoch_before, mirror }
    }

    /// Publishes one burst through `publish` and into the lane's mirror,
    /// in lockstep.
    fn publish(
        &self,
        publish: &(dyn Fn(&[WeightDelta]) -> EpochId + Sync),
        deltas: &[WeightDelta],
    ) {
        let published = publish(deltas);
        let mirrored = self.mirror.publish(deltas);
        assert_eq!(
            published.get(),
            self.epoch_before.get() + mirrored.get(),
            "the lane's weight history diverged from the service's epochs — is something else \
             publishing weights to it?"
        );
    }

    /// Measures the lane's sustainable throughput (completed requests per
    /// second) with a short closed-loop pass over a prefix of its stream,
    /// on a scratch service configured like the real one — its own cache,
    /// no deadlines, no admission, no spans — so calibration neither warms
    /// nor sheds anything the measured run will see. The closed loop
    /// self-throttles to the pool's pace, which *is* capacity.
    fn measure_capacity(&self) -> f64 {
        let queries: Vec<SkySrQuery> =
            self.stream.iter().take(256).map(|&i| self.pool[i].clone()).collect();
        let config = ServiceConfig {
            admission: false,
            telemetry: TelemetryConfig::disabled(),
            ..self.spec.service.clone()
        };
        let service = Service::new(Arc::clone(&self.ctx), config);
        let t0 = Instant::now();
        let outcomes = service.run_queries(&queries);
        let wall = t0.elapsed().max(Duration::from_micros(1));
        drop(service);
        let completed = outcomes.iter().filter(|o| o.is_ok()).count().max(1);
        completed as f64 / wall.as_secs_f64()
    }

    /// Runs the lane's arrival process (closed-loop batch, synchronous
    /// update waves, or open-loop Poisson arrivals) against any
    /// [`QueryService`], with the optional wall-clock updater publishing
    /// weight bursts through `publish` from a scoped thread until the
    /// stream drains. The lane's graph only *generates* deltas (base
    /// weights, which never change) — publication goes through `publish`,
    /// so a shard publishes through the router and a remote lane over the
    /// wire, each mirrored into the lane's own history. Returns the
    /// outcomes, the wall time and, open loop, the schedule lag.
    fn drive(
        &self,
        service: &dyn QueryService,
        publish: &(dyn Fn(&[WeightDelta]) -> EpochId + Sync),
    ) -> Driven {
        let (pool, stream, spec, graph) =
            (&self.pool[..], &self.stream[..], &self.spec, self.ctx.graph());
        let publish = &|deltas: &[WeightDelta]| self.publish(publish, deltas);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            // The updater publishes weight-delta bursts at exponential
            // instants until the stream drains.
            let updater = (spec.update_rate > 0.0).then(|| {
                let stop = &stop;
                let (rate, burst) = (spec.update_rate, spec.update_burst);
                let seed = spec.seed ^ 0x7570_6474; // "updt"
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed);
                    while !stop.load(Ordering::Relaxed) {
                        // Sleep in small slices so a drained stream stops
                        // the updater promptly.
                        let deadline =
                            Instant::now() + Duration::from_secs_f64(exp_sample(&mut rng) / rate);
                        while let Some(left) = deadline.checked_duration_since(Instant::now()) {
                            if stop.load(Ordering::Relaxed) {
                                return;
                            }
                            std::thread::sleep(left.min(Duration::from_millis(2)));
                        }
                        let deltas =
                            random_traffic_deltas(graph, burst, UPDATE_MAGNITUDE, &mut rng);
                        publish(&deltas);
                    }
                })
            });

            let t0 = Instant::now();
            let mut lag = None;
            let outcomes = if spec.qps > 0.0 {
                let (outcomes, behind) =
                    open_loop_batch(service, pool, stream, spec.qps, spec.seed, spec.deadline);
                lag = Some(behind);
                outcomes
            } else if spec.update_every > 0 {
                // Closed-loop epoch waves: drain a chunk, publish a burst,
                // repeat.
                let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x7761_7665); // "wave"
                let mut outcomes = Vec::with_capacity(stream.len());
                for chunk in stream.chunks(spec.update_every) {
                    outcomes.extend(run_requests(service, pool, chunk, spec.deadline));
                    publish(&random_traffic_deltas(
                        graph,
                        spec.update_burst,
                        UPDATE_MAGNITUDE,
                        &mut rng,
                    ));
                }
                outcomes
            } else {
                run_requests(service, pool, stream, spec.deadline)
            };
            let wall = t0.elapsed();
            stop.store(true, Ordering::Relaxed);
            if let Some(handle) = updater {
                handle.join().expect("updater thread panicked");
            }
            (outcomes, wall, lag)
        })
    }

    /// The lane's report — the one place a [`ReplayReport`] is built. Runs
    /// the oracle audit when the spec verifies and the span audit when the
    /// service kept every span.
    fn report(
        &self,
        (outcomes, wall, lag): &Driven,
        metrics: MetricsSnapshot,
        spans: Vec<TraceSpan>,
        workers: Option<usize>,
    ) -> ReplayReport {
        let spec = &self.spec;
        let trace_violations = spec.audits_spans().then(|| audit_spans(&spans, outcomes, &metrics));
        ReplayReport {
            total: self.stream.len(),
            distinct: self.pool.len(),
            pattern: spec.pattern,
            workers,
            qps: spec.qps,
            lag: *lag,
            wall: *wall,
            epochs_published: self.mirror.current_epoch().get(),
            metrics,
            verify_mismatches: spec.verify.then(|| self.oracle_mismatches(outcomes)),
            spans,
            trace_violations,
            overload: spec.overload,
            met_deadline: met_deadline(spec, outcomes),
        }
    }

    /// Epoch-aware verification: every answered request is recomputed by
    /// a cold sequential [`Bssr`] over the lane's mirror pinned to the
    /// epoch the response reports, and compared as score-equivalent
    /// multisets. Each (epoch, pool entry) reference is computed once. A
    /// response pinned to an epoch the lane never published is a
    /// mismatch: nothing explains its answer.
    fn oracle_mismatches(&self, outcomes: &[Result<QueryResponse, QueryError>]) -> usize {
        use std::collections::{BTreeMap, BTreeSet, HashMap};
        let mut need: BTreeMap<EpochId, BTreeSet<usize>> = BTreeMap::new();
        for (&i, outcome) in self.stream.iter().zip(outcomes) {
            if let Ok(r) = outcome {
                need.entry(r.epoch).or_default().insert(i);
            }
        }
        let mut reference: HashMap<(EpochId, usize), Vec<SkylineRoute>> = HashMap::new();
        let mut scratch = BssrScratch::new(self.ctx.graph().num_vertices());
        for (&epoch, indexes) in &need {
            let mirrored = epoch.get().checked_sub(self.epoch_before.get());
            let Some(graph) = mirrored.and_then(|e| self.mirror.pin_at(EpochId(e))) else {
                continue;
            };
            let qctx = self.ctx.query_context_on(&graph);
            let mut bssr = Bssr::with_scratch(&qctx, self.spec.service.engine, scratch);
            for &i in indexes {
                let routes = bssr.run(&self.pool[i]).expect("generated queries are valid").routes;
                reference.insert((epoch, i), routes);
            }
            scratch = bssr.into_scratch();
        }
        let exact = |i: usize, r: &QueryResponse| {
            reference.get(&(r.epoch, i)).is_some_and(|oracle| {
                // A degraded-mode partial is not expected to *equal* the
                // exact skyline — it must be *consistent* with it.
                if r.served == Served::Approximate {
                    valid_approximate(&r.routes, oracle)
                } else {
                    equivalent_skylines(&r.routes, oracle)
                }
            })
        };
        let stream = self.stream.iter().zip(outcomes);
        stream
            .filter(|&(&i, outcome)| match outcome {
                Ok(r) => !exact(i, r),
                // Shed under overload (admission or expired in queue): the
                // request produced no skyline to audit, by design.
                Err(QueryError::Overloaded) => false,
                Err(_) => true,
            })
            .count()
    }
}

/// The met-deadline split, when the spec set one: of the requests that
/// produced a response at all (shed ones did not), how many were answered
/// within the deadline.
fn met_deadline(
    spec: &ReplaySpec,
    outcomes: &[Result<QueryResponse, QueryError>],
) -> Option<(usize, usize)> {
    let deadline = spec.deadline?;
    let mut met = 0usize;
    let mut finished = 0usize;
    for r in outcomes.iter().flat_map(|o| o.as_ref().ok()) {
        finished += 1;
        if r.latency <= deadline {
            met += 1;
        }
    }
    Some((met, finished))
}

/// The trace-completeness audit (full tracing only). Counts violations of:
/// exactly one span per successful response, span rung == the response's
/// [`Served`](crate::metrics::Served) rung and span epoch == the pinned
/// epoch, no orphaned spans, and per-rung span counts equal to the
/// per-rung histogram counts — the record every other count derives
/// from.
fn audit_spans(
    spans: &[TraceSpan],
    outcomes: &[Result<QueryResponse, QueryError>],
    metrics: &MetricsSnapshot,
) -> usize {
    use std::collections::HashMap;
    let mut violations = 0usize;
    let mut by_id: HashMap<u64, &TraceSpan> = HashMap::with_capacity(spans.len());
    for s in spans {
        if by_id.insert(s.request_id, s).is_some() {
            violations += 1; // two spans claim one request
        }
    }
    let mut matched = 0usize;
    for r in outcomes.iter().flat_map(|o| o.as_ref().ok()) {
        match by_id.get(&r.request_id) {
            Some(s) => {
                matched += 1;
                if s.rung != Rung::of(r.served) || s.epoch != r.epoch {
                    violations += 1; // span disagrees with its response
                }
            }
            None => violations += 1, // response without a span
        }
    }
    violations += by_id.len().saturating_sub(matched); // orphaned spans
    for rs in &metrics.rungs {
        if spans.iter().filter(|s| s.rung == rs.rung).count() as u64 != rs.hist.count() {
            violations += 1;
        }
    }
    violations
}

/// Replays `spec`'s stream through a live `skysr-d` daemon, auditing the
/// answers against a local *shadow* dataset.
///
/// `shadow` must be built from the same dataset spec (and start at the
/// same weight epoch) as the daemon's context — checked up front via the
/// handshake's [`DatasetFingerprint`]. Weight updates are published
/// *through the wire* and mirrored into the lane's own history in
/// lockstep, like every lane's; the returned epoch must match the
/// mirror's on every burst, so the oracle ([`ReplaySpec::verify`])
/// re-answers each response at its pinned epoch from an epoch history
/// provably identical to the daemon's.
///
/// The daemon's serving stack and epoch retention are its own: of
/// `spec.service` only the engine is used, by the oracle. The report
/// carries the daemon's metrics snapshot, no spans and no worker count.
///
/// Unsupported over the wire (asserted): full trace retention (spans are
/// not exported per-request) and overload calibration.
///
/// # Panics
/// On an invalid spec, on spec combinations the wire cannot support (see
/// above), and on a mid-run epoch divergence between daemon and mirror.
pub fn replay_remote(
    remote: &RemoteService,
    shadow: Arc<ServiceContext>,
    pool: &[SkySrQuery],
    spec: &ReplaySpec,
) -> Result<ReplayReport, ProtocolError> {
    assert!(
        !spec.audits_spans(),
        "trace spans are not exported over the wire; use sampled or disabled telemetry"
    );
    assert!(
        spec.overload == 0.0,
        "overload capacity calibration runs on a local scratch service; drive a daemon with \
         an explicit qps instead"
    );
    let ours = DatasetFingerprint::of(&shadow);
    let theirs = remote.fingerprint();
    if ours != theirs {
        return Err(ProtocolError::DatasetMismatch(format!(
            "daemon serves {theirs:?}, the local shadow is {ours:?} — rebuild the shadow from \
             the daemon's dataset spec (and epoch)"
        )));
    }
    let lane = Lane::new(REGION_0.to_owned(), shadow, Cow::Borrowed(pool), spec.clone());
    let driven = lane.drive(remote, &|deltas| {
        remote.publish_weights(deltas).expect("generated deltas name existing edges")
    });
    let metrics = remote.metrics();
    Ok(lane.report(&driven, metrics, Vec::new(), None))
}

/// Builds the stream entry's request with the spec's deadline attached.
fn request_for(pool: &[SkySrQuery], i: usize, deadline: Option<Duration>) -> QueryRequest {
    let mut request = QueryRequest::new(pool[i].clone());
    request.options.deadline = deadline;
    request
}

/// Closed-loop batch: submits every stream entry (deadline attached, if
/// any) and waits for all answers, preserving order.
fn run_requests(
    service: &dyn QueryService,
    pool: &[SkySrQuery],
    stream: &[usize],
    deadline: Option<Duration>,
) -> Vec<Result<QueryResponse, QueryError>> {
    let tickets: Vec<Ticket> =
        stream.iter().map(|&i| service.submit(request_for(pool, i, deadline))).collect();
    tickets.into_iter().map(Ticket::wait).collect()
}

/// Submits the stream at exponentially distributed inter-arrival times
/// targeting `qps`, then waits for every answer (order preserved). Also
/// returns how far the generator fell behind its schedule: the largest
/// gap between reaching a request and its due time.
fn open_loop_batch(
    service: &dyn QueryService,
    pool: &[SkySrQuery],
    stream: &[usize],
    qps: f64,
    seed: u64,
    deadline: Option<Duration>,
) -> (Vec<Result<QueryResponse, QueryError>>, Duration) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6f70_656e); // "open"
    let started = Instant::now();
    let mut at = 0.0f64;
    let mut lag = Duration::ZERO;
    let mut tickets: Vec<Ticket> = Vec::with_capacity(stream.len());
    for &i in stream {
        at += exp_sample(&mut rng) / qps;
        let due = started + Duration::from_secs_f64(at);
        let reached = Instant::now();
        match due.checked_duration_since(reached) {
            Some(wait) => std::thread::sleep(wait),
            None => lag = lag.max(reached - due),
        }
        // Submission may block on a full queue: open-loop overload turns
        // into backpressure, not an unbounded client-side buffer, and the
        // requests after it fall behind their schedule.
        // (With admission on, unmeetable deadlines are shed right here
        // instead — the ticket resolves to `Overloaded` immediately.)
        tickets.push(service.submit(request_for(pool, i, deadline)));
    }
    (tickets.into_iter().map(Ticket::wait).collect(), lag)
}

/// Whether a degraded-mode partial skyline is *valid*: mutually
/// non-dominated (a minimal set — no member dominates another), and never
/// better than the exact answer (every partial point is dominated by or
/// ties a point of the exact skyline; a partial that beat the oracle would
/// mean the "exact" rungs are not exact).
fn valid_approximate(routes: &[SkylineRoute], oracle: &[SkylineRoute]) -> bool {
    let mut exact = SkylineSet::new();
    for r in oracle {
        exact.update(r.clone());
    }
    routes.iter().all(|p| exact.dominated_or_equal(p.length, p.semantic))
        && skyline_of(routes.iter().cloned()).len() == routes.len()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use skysr_graph::EpochGcStats;

    /// A clean two-shard fleet of a tiny verified, fully traced replay:
    /// the starting point the gate tests mutate.
    pub(crate) fn clean_fleet() -> ShardedReplayReport {
        use skysr_data::dataset::{DatasetSpec, Preset};
        let city = |seed| DatasetSpec::preset(Preset::CalSmall).scale(0.05).seed(seed).generate();
        let spec = ReplaySpec {
            total: 40,
            distinct: 4,
            seq_len: 2,
            verify: true,
            service: ServiceConfig {
                workers: 2,
                telemetry: TelemetryConfig::trace_all(40),
                ..ServiceConfig::default()
            },
            ..ReplaySpec::default()
        };
        let fleet =
            replay_sharded(vec![("north".into(), city(3)), ("south".into(), city(4))], &spec);
        assert_eq!(fleet.check(), Ok(()), "the unmutated fleet passes every gate");
        fleet
    }

    #[test]
    fn report_check_fails_each_gate_with_its_message() {
        let clean = clean_fleet().shards.swap_remove(0).report;
        assert_eq!((clean.trace_violations, clean.verify_mismatches), (Some(0), Some(0)));
        let id = clean.spans[0].request_id;
        let span = format!("span gate failed: the span of request {id} ");
        type Mutation = fn(&mut ReplayReport);
        let cases: [(Mutation, String); 7] = [
            (|r| r.trace_violations = Some(2), "trace-completeness invariant violated: 2".into()),
            (|r| r.verify_mismatches = Some(1), "verification failed: concurrent and".into()),
            (|r| r.metrics.stale_served = 3, "staleness gate failed: 3 answer(s) served".into()),
            // A bounded ring of K: at most K epochs after drain.
            (
                |r| {
                    r.metrics.epochs =
                        EpochGcStats { retention: 2, retained: 3, ..r.metrics.epochs }
                },
                "retention gate failed: 3 epochs retained after drain".into(),
            ),
            // Every span of a fully traced run is well formed.
            (|r| r.spans[0].attempts.clear(), format!("{span}records no rung-ladder attempt")),
            (
                |r| r.spans[0].engine = r.spans[0].total + Duration::from_millis(1),
                format!("{span}spends longer queued and in the engine than end to end"),
            ),
            (
                |r| (r.spans[0].rung, r.spans[0].repair_tier) = (Rung::Repaired, None),
                format!("{span}is repaired but names no repair tier or delta index"),
            ),
        ];
        for (mutate, want) in cases {
            let mut report = clean.clone();
            mutate(&mut report);
            let err = report.check().expect_err("a gate must fail");
            assert!(err.starts_with(&want), "{err}");
        }
    }

    #[test]
    fn a_wrong_answer_at_a_compacted_epoch_is_a_mismatch() {
        use skysr_data::dataset::{DatasetSpec, Preset};
        let city = DatasetSpec::preset(Preset::CalSmall).scale(0.05).seed(3).generate();
        let spec = ReplaySpec { total: 4, distinct: 2, seq_len: 2, ..ReplaySpec::default() };
        let pool = build_pool(&city, &spec);
        let ctx = Arc::new(ServiceContext::from_dataset(city));
        ctx.set_epoch_retention(1);
        let lane = Lane::new("solo".into(), Arc::clone(&ctx), Cow::Owned(pool), spec);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..3 {
            let deltas = random_traffic_deltas(ctx.graph(), 8, 2.0, &mut rng);
            lane.publish(&|d| ctx.publish_weights(d), &deltas);
        }
        assert!(ctx.pin_at(EpochId(1)).is_none(), "the service's ring compacted epoch 1");
        // Every response claims epoch 1; the first drops a skyline route.
        let graph = lane.mirror.pin_at(EpochId(1)).expect("the mirror keeps every epoch");
        let qctx = ctx.query_context_on(&graph);
        let outcomes: Vec<_> = (0..lane.stream.len())
            .map(|n| {
                let mut routes = Bssr::new(&qctx).run(&lane.pool[lane.stream[n]]).unwrap().routes;
                assert!(!routes.is_empty(), "a generated query has a skyline");
                if n == 0 {
                    routes.pop();
                }
                Ok(QueryResponse {
                    routes: routes.into(),
                    epoch: EpochId(1),
                    served: Served::Search,
                    latency: Duration::ZERO,
                    request_id: n as u64,
                    queue_wait: Duration::ZERO,
                })
            })
            .collect();
        assert_eq!(lane.oracle_mismatches(&outcomes), 1, "audited, not skipped");
    }

    /// `spec`'s first broken rule; the default spec breaks none.
    fn rejected(spec: ReplaySpec) -> String {
        assert_eq!(ReplaySpec::default().validate(), Ok(()));
        spec.validate().expect_err("an invalid spec")
    }

    #[test]
    fn a_deadline_the_clock_cannot_hold_is_rejected() {
        let spec = ReplaySpec { deadline: Some(Duration::MAX), ..ReplaySpec::default() };
        assert_eq!(rejected(spec), "the deadline must be positive and at most 1000 s");
    }

    #[test]
    fn a_vanishing_arrival_rate_is_rejected() {
        let spec = ReplaySpec { qps: 1e-300, ..ReplaySpec::default() };
        assert_eq!(rejected(spec), "qps must be 0 or a finite rate of at least one per 1000 s");
    }

    #[test]
    fn a_vanishing_update_rate_is_rejected() {
        let spec = ReplaySpec { update_rate: 1e-300, ..ReplaySpec::default() };
        let err = rejected(spec);
        assert_eq!(err, "update_rate must be 0 or a finite rate of at least one per 1000 s");
    }

    #[test]
    fn empty_update_waves_are_rejected() {
        let spec = ReplaySpec { update_every: 5, update_burst: 0, ..ReplaySpec::default() };
        assert_eq!(rejected(spec), "update_burst must be at least 1 when weights update");
    }

    #[test]
    fn an_overload_replay_whose_stream_overflows_the_queue_is_rejected() {
        let spec = ReplaySpec { total: 600, overload: 2.0, ..ReplaySpec::default() };
        assert_eq!(
            rejected(spec.clone()),
            "an overload replay queues its whole stream: queue_capacity 256 is below total 600"
        );
        let held = ServiceConfig { queue_capacity: 600, ..spec.service.clone() };
        assert_eq!(ReplaySpec { service: held, ..spec }.validate(), Ok(()));
    }

    #[test]
    fn duplicate_bursts_below_two_are_rejected() {
        for burst in [0, 1] {
            let pattern = StreamPattern::DuplicateBursts;
            let spec = ReplaySpec { pattern, burst, ..ReplaySpec::default() };
            assert_eq!(rejected(spec), "the duplicate pattern needs bursts of at least 2 requests");
        }
    }

    #[test]
    fn fleet_check_prefixes_the_failing_shard_and_gates_misroutes() {
        let clean = clean_fleet();
        let mut stale = clean.clone();
        stale.shards[1].report.metrics.stale_served = 1;
        let err = stale.check().expect_err("a stale shard fails the fleet");
        assert!(err.starts_with("shard 1 (south): staleness gate failed"), "{err}");
        let mut mismatched = clean.clone();
        mismatched.shards[0].report.verify_mismatches = Some(4);
        assert_eq!(
            mismatched.check(),
            Err("shard 0 (north): verification failed: concurrent and sequential skylines differ"
                .to_owned())
        );
        let mut misrouted = clean;
        misrouted.misrouted = 2;
        assert_eq!(
            misrouted.check(),
            Err("routing gate failed: 2 request(s) named a region no shard serves".to_owned())
        );
    }

    #[test]
    fn zipf_stream_is_skewed_and_deterministic() {
        let spec = ReplaySpec { total: 2_000, distinct: 50, ..ReplaySpec::default() };
        let a = request_stream(&spec, 50);
        let b = request_stream(&spec, 50);
        assert_eq!(a, b);
        assert!(a.iter().all(|&i| i < 50));
        // Zipf(1) over 50 ranks: rank 0 draws ~22% of all requests.
        let zeros = a.iter().filter(|&&i| i == 0).count();
        assert!(zeros > a.len() / 10, "rank 0 appeared only {zeros} times");
        let spec2 = ReplaySpec { seed: 8, ..spec };
        assert_ne!(request_stream(&spec2, 50), a);
    }

    #[test]
    fn uniform_exponent_spreads_requests() {
        let spec =
            ReplaySpec { total: 5_000, distinct: 10, zipf_exponent: 0.0, ..ReplaySpec::default() };
        let stream = request_stream(&spec, 10);
        for rank in 0..10 {
            let n = stream.iter().filter(|&&i| i == rank).count();
            assert!((250..=750).contains(&n), "rank {rank}: {n}");
        }
    }

    #[test]
    fn duplicate_stream_arrives_in_bursts() {
        let spec = ReplaySpec {
            total: 200,
            distinct: 10,
            burst: 8,
            pattern: StreamPattern::DuplicateBursts,
            ..ReplaySpec::default()
        };
        let stream = request_stream(&spec, 10);
        assert_eq!(stream.len(), 200);
        for chunk in stream.chunks(8) {
            assert!(chunk.iter().all(|&i| i == chunk[0]), "burst not uniform: {chunk:?}");
        }
        // More than one distinct query appears overall.
        let mut uniq = stream.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert!(uniq.len() > 1);
    }

    #[test]
    fn prefix_stream_walks_length_wavefronts() {
        let spec = ReplaySpec {
            total: 50,
            distinct: 4,
            seq_len: 3,
            pattern: StreamPattern::PrefixChains,
            ..ReplaySpec::default()
        };
        // Pool: 4 chains × 3 lengths; chain c occupies indices 3c..3c+3.
        let stream = request_stream(&spec, 12);
        assert_eq!(stream.len(), 50);
        // Wavefront of all length-1 queries, then all length-2 queries.
        assert_eq!(&stream[..8], &[0, 3, 6, 9, 1, 4, 7, 10]);
        // The stream cycles: entry 12 restarts the length-1 wavefront.
        assert_eq!(stream[12], 0);
    }

    #[test]
    fn hierarchy_pool_expands_subtree_chains() {
        use skysr_core::PositionSpec;
        use skysr_data::dataset::{DatasetSpec, Preset};
        let d = DatasetSpec::preset(Preset::CalSmall).scale(0.05).seed(3).generate();
        let spec = ReplaySpec {
            distinct: 4,
            seq_len: 3,
            pattern: StreamPattern::Hierarchy,
            ..ReplaySpec::default()
        };
        let pool = build_pool(&d, &spec);
        assert_eq!(pool.len(), 4 * HIERARCHY_CHAIN);
        for chunk in pool.chunks(HIERARCHY_CHAIN) {
            let (suffix, anc, full) = (&chunk[0], &chunk[1], &chunk[2]);
            assert_eq!((suffix.len(), anc.len(), full.len()), (2, 3, 3));
            assert_eq!(suffix.start, full.start);
            assert_eq!(anc.start, full.start);
            assert_eq!(suffix.sequence[..], full.sequence[1..], "entry 0 is the suffix");
            assert_eq!(anc.sequence[1..], full.sequence[1..], "only position 0 varies");
            let PositionSpec::Category(c) = full.sequence[0] else {
                panic!("workloads use plain categories")
            };
            let PositionSpec::Category(a) = anc.sequence[0] else {
                panic!("the ancestor variant stays a plain category")
            };
            assert!(d.forest.is_ancestor_or_self(a, c), "{a:?} must be an ancestor of {c:?}");
        }
    }

    #[test]
    fn hierarchy_stream_walks_chain_wavefronts() {
        let spec = ReplaySpec {
            total: 30,
            distinct: 4,
            seq_len: 3,
            pattern: StreamPattern::Hierarchy,
            ..ReplaySpec::default()
        };
        // Pool: 4 chains × 3 entries; chain c occupies indices 3c..3c+3.
        let stream = request_stream(&spec, 12);
        assert_eq!(stream.len(), 30);
        // Wavefront of all suffixes, then all ancestor variants.
        assert_eq!(&stream[..8], &[0, 3, 6, 9, 1, 4, 7, 10]);
        // The stream cycles: entry 12 restarts the suffix wavefront.
        assert_eq!(stream[12], 0);
    }

    #[test]
    fn exponential_samples_are_positive_with_unit_mean() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| exp_sample(&mut rng)).sum();
        assert!((sum / n as f64 - 1.0).abs() < 0.05, "mean {}", sum / n as f64);
        let mut rng = StdRng::seed_from_u64(4);
        assert!((0..10_000).all(|_| exp_sample(&mut rng) >= 0.0));
    }

    #[test]
    fn an_open_loop_replay_reports_how_far_a_full_queue_held_it_back() {
        use skysr_data::dataset::{DatasetSpec, Preset};
        // One worker behind a one-slot queue, and no cache or coalescing,
        // so every request searches and every blocked submit waits out a
        // search: 200 arrivals due within ~2 ms cannot all be submitted
        // on time.
        let city = DatasetSpec::preset(Preset::CalSmall).scale(0.05).seed(3).generate();
        let spec = ReplaySpec {
            total: 200,
            distinct: 200,
            seq_len: 3,
            qps: 100_000.0,
            service: ServiceConfig {
                workers: 1,
                queue_capacity: 1,
                cache_capacity: 0,
                coalesce: false,
                ..ServiceConfig::default()
            },
            ..ReplaySpec::default()
        };
        let pool = build_pool(&city, &spec);
        let ctx = Arc::new(ServiceContext::from_dataset(city));
        let open = replay_on(Arc::clone(&ctx), &pool, &spec);
        let lag = open.lag.expect("an open loop reports its lag");
        assert!(lag >= Duration::from_millis(1), "the generator kept to its schedule: {lag:?}");
        assert!(open.to_string().lines().next().unwrap().contains("ms behind schedule"));
        let closed = replay_on(ctx, &pool, &ReplaySpec { qps: 0.0, ..spec });
        assert_eq!(closed.lag, None, "a closed loop has no schedule to fall behind");
    }

    #[test]
    fn traffic_deltas_stay_within_magnitude_of_base() {
        use skysr_graph::GraphBuilder;
        let mut b = GraphBuilder::new();
        let vs: Vec<_> = (0..10).map(|_| b.add_vertex()).collect();
        for w in vs.windows(2) {
            b.add_edge(w[0], w[1], 4.0);
        }
        let g = b.build();
        let mut rng = StdRng::seed_from_u64(11);
        let deltas = random_traffic_deltas(&g, 500, 3.0, &mut rng);
        assert_eq!(deltas.len(), 500);
        for d in &deltas {
            assert!(d.weight >= 4.0 / 3.0 - 1e-9 && d.weight <= 4.0 * 3.0 + 1e-9, "{d:?}");
        }
        // Deterministic per seed.
        let mut rng2 = StdRng::seed_from_u64(11);
        assert_eq!(random_traffic_deltas(&g, 500, 3.0, &mut rng2), deltas);
    }
}
