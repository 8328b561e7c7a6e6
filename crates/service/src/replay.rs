//! Workload replay: skewed query streams over a pool of distinct generated
//! queries, executed through a [`QueryService`] — optionally as an
//! *open-loop* arrival process with live weight updates underneath.
//!
//! Real query traffic repeats itself — popular start areas and category
//! sequences recur, which is exactly what the cross-query reuse layer
//! (result cache, request coalescing, semantic prefix reuse) exploits.
//! Three stream shapes are supported ([`StreamPattern`]):
//!
//! * **Zipf** — `total` requests drawn from the pool with
//!   Zipf(`zipf_exponent`) popularity, shuffled into an arrival order
//!   (PR 1's original stream; exercises the cache).
//! * **Duplicate bursts** — the Zipf draw repeated in consecutive bursts
//!   of [`ReplaySpec::burst`] identical requests, so duplicates are in
//!   flight *simultaneously*; exercises request coalescing.
//! * **Prefix chains** — the pool is expanded with every proper prefix
//!   ⟨c₁,…,c_j⟩ of each generated query and the stream walks chains
//!   short-to-long; exercises semantic prefix reuse (warm starts).
//! * **Hierarchy** — each generated query ⟨c₁,…,c_k⟩ expands into a
//!   3-entry chain walking a category subtree: its suffix ⟨c₂,…,c_k⟩,
//!   the ancestor variant ⟨parent(c₁),c₂,…,c_k⟩, then the query itself.
//!   Walked in wavefronts (all chains' first entries, then all second
//!   entries, …), so the ancestor variant is *suffix*-seeded from the
//!   cached suffix and the full query is *ancestor*-seeded from the
//!   cached parent variant — both new reuse sources fire from cycle 1.
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
//!   [`update_magnitude`](ReplaySpec::update_magnitude) of the base
//!   weight) as new weight epochs, at exponentially distributed instants,
//!   while the stream is in flight. Queries pin the epoch current at
//!   dequeue time; cached skylines from older epochs are lazily
//!   invalidated and must never be served.
//!
//! With [`ReplaySpec::verify`] set, every answered request is re-answered
//! by a sequential cold [`Bssr`] run *at the epoch the response reports it
//! was pinned to*. With unbounded retention historical epochs stay
//! pinnable and every response is audited; with a bounded
//! [`ReplaySpec::retention`] ring, responses whose pinned epoch has been
//! compacted away are skipped and counted
//! ([`ReplayReport::verify_skipped`]) instead of refusing the flag
//! combination. The skylines are
//! compared with [`equivalent_skylines`]: same size and score-identical up
//! to the score tolerance. (Exact route equality is deliberately not
//! required — a warm-started search may return a different
//! *representative* route for a score-tied skyline point.) Together with
//! the report's stale-serve count (which must be zero) this is the
//! end-to-end proof that staleness never leaks.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use skysr_core::bssr::{Bssr, BssrConfig, BssrScratch};
use skysr_core::dominance::{skyline_of, SkylineSet};
use skysr_core::error::QueryError;
use skysr_core::query::SkySrQuery;
use skysr_core::route::{equivalent_skylines, SkylineRoute};
use skysr_data::dataset::Dataset;
use skysr_data::workload::WorkloadSpec;
use skysr_data::zipf::Zipf;
use skysr_graph::{EpochGcStats, EpochId, RoadNetwork, WeightDelta};

use crate::context::ServiceContext;
use crate::metrics::{MetricsSnapshot, Served};
use crate::net::{DatasetFingerprint, ProtocolError, RemoteService};
use crate::service::{QueryRequest, QueryResponse, QueryService, Service, ServiceConfig, Ticket};
use crate::shard::{RegionId, ShardRegistry};
use crate::telemetry::{Rung, TelemetryConfig, TraceSpan};

/// Span-retention policy of a replay run (histograms always record).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TelemetryMode {
    /// Default sampled tracing: every 64th span plus the slowest.
    Sampled,
    /// Retain a span for *every* request — the mode `--trace-out` uses,
    /// and the only one under which the trace-completeness invariant is
    /// audited ([`ReplayReport::trace_violations`]).
    Full,
    /// No span retention (the overhead-gate baseline).
    Off,
}

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
    /// ⟨c₁,c₂…c_k⟩ walked in wavefronts (ancestor + suffix reuse).
    Hierarchy,
}

/// Entries per hierarchy chain: suffix, ancestor variant, full query.
pub const HIERARCHY_CHAIN: usize = 3;

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
    /// Worker threads (0 = one per CPU).
    pub workers: usize,
    /// Result-cache capacity (0 disables caching).
    pub cache_capacity: usize,
    /// Request coalescing (see [`ServiceConfig::coalesce`]).
    pub coalesce: bool,
    /// Semantic prefix reuse (see [`ServiceConfig::prefix_reuse`]).
    pub prefix_reuse: bool,
    /// Ancestor-category reuse (see [`ServiceConfig::ancestor_reuse`]).
    pub ancestor_reuse: bool,
    /// Suffix reuse (see [`ServiceConfig::suffix_reuse`]).
    pub suffix_reuse: bool,
    /// Submission-queue capacity.
    pub queue_capacity: usize,
    /// Engine configuration.
    pub engine: BssrConfig,
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
    /// Edge reweightings per update burst.
    pub update_burst: usize,
    /// Maximum multiplicative weight change per update: each reweighted
    /// edge gets `base_weight × magnitude^u` with `u` uniform in [−1, 1].
    /// Must be ≥ 1; factors are relative to the *base* weights, so traffic
    /// stays bounded over arbitrarily long runs.
    pub update_magnitude: f64,
    /// Incremental skyline repair (see [`ServiceConfig::repair`]): cached
    /// entries at older epochs are repaired against the exact epoch delta
    /// and promoted in place instead of invalidated and recomputed.
    pub repair: bool,
    /// Weight-epoch history retention: keep at most this many epochs
    /// pinnable, compacting older unleased overlays (`0` = unlimited).
    /// Combines with [`verify`](ReplaySpec::verify): the oracle pins only
    /// epochs still within the ring and skips (and counts) responses
    /// whose epoch was compacted away.
    pub retention: usize,
    /// Also re-answer every request sequentially at its pinned epoch and
    /// compare skylines (score-equivalent multisets).
    pub verify: bool,
    /// Span retention: sampled (default), full (audits the one-span-per-
    /// response invariant), or off.
    pub telemetry: TelemetryMode,
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
    /// [`qps`](ReplaySpec::qps) and with closed-loop update waves.
    pub overload: f64,
    /// Admission control (see [`ServiceConfig::admission`]): shed
    /// provably-unmeetable deadlines at submission instead of queueing
    /// them to fail.
    pub admission: bool,
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
            workers: 4,
            cache_capacity: 1024,
            coalesce: true,
            prefix_reuse: true,
            ancestor_reuse: true,
            suffix_reuse: true,
            queue_capacity: 256,
            engine: BssrConfig::default(),
            qps: 0.0,
            update_rate: 0.0,
            update_burst: 32,
            update_magnitude: 2.0,
            update_every: 0,
            repair: false,
            retention: 0,
            verify: false,
            telemetry: TelemetryMode::Sampled,
            deadline: None,
            overload: 0.0,
            admission: false,
        }
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
    /// Worker threads used.
    pub workers: usize,
    /// Open-loop target rate (0 = closed loop).
    pub qps: f64,
    /// Wall-clock time of the concurrent replay.
    pub wall: Duration,
    /// Weight epochs published while the stream was in flight.
    pub epochs_published: u64,
    /// Epoch history / GC accounting measured *after* the service drained
    /// and (when retention is bounded) a final compaction sweep ran — the
    /// numbers the soak gate checks against the configured cap.
    pub epoch_gc: EpochGcStats,
    /// Service metrics over the replay window.
    pub metrics: MetricsSnapshot,
    /// `Some(mismatches)` when verification ran: the number of requests
    /// whose concurrent skyline was not score-equivalent to a fresh
    /// sequential run at the request's pinned epoch.
    pub verify_mismatches: Option<usize>,
    /// `Some(skipped)` when verification ran: responses that could not be
    /// audited because their pinned epoch had already been compacted out
    /// of a bounded retention ring. Always `Some(0)` with unlimited
    /// retention.
    pub verify_skipped: Option<usize>,
    /// Trace spans drained from the service after the stream completed
    /// (retention governed by [`ReplaySpec::telemetry`]), sorted by
    /// request id.
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
    /// expired in queue (or parked at the daemon). In neither `completed`
    /// nor `failed`.
    pub fn shed(&self) -> u64 {
        self.metrics.rejected + self.metrics.shed_deadline
    }

    /// Responses served in degraded mode (deadline expired mid-engine;
    /// valid partial skyline, never cached).
    pub fn approximate_served(&self) -> u64 {
        self.metrics.approximate_served
    }
}

impl std::fmt::Display for ReplayReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "replayed    {} requests ({} distinct, {} stream) on {} workers in {:.2} s",
            self.total,
            self.distinct,
            self.pattern,
            self.workers,
            self.wall.as_secs_f64()
        )?;
        if self.qps > 0.0 {
            write!(f, " (open loop @ {:.0} q/s target", self.qps)?;
            if self.overload > 0.0 {
                write!(f, " = {:.1}x measured capacity", self.overload)?;
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
        if self.epoch_gc.retention > 0 {
            let e = &self.epoch_gc;
            writeln!(
                f,
                "history     {} epochs retained after drain (max {}, cap {}), {} overlays \
                 compacted, {} rebases",
                e.retained, e.retained_max, e.retention, e.compacted, e.rebases
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
            if let Some(skipped) = self.verify_skipped.filter(|&n| n > 0) {
                write!(f, " ({skipped} unverifiable: pinned epochs beyond the retention ring)")?;
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
                    // degenerates entry 1 to the full query (an exact-hit
                    // step rather than an ancestor-seeded one).
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
            let burst = spec.burst.max(2);
            let mut stream = Vec::with_capacity(spec.total);
            while stream.len() < spec.total {
                let i = zipf.sample(&mut rng);
                for _ in 0..burst.min(spec.total - stream.len()) {
                    stream.push(i);
                }
            }
            stream
        }
        StreamPattern::PrefixChains => {
            // Walk chains short-to-long in *length wavefronts*: every
            // chain's length-1 query, then every length-2 query, and so
            // on (cycling until `total`). Separating a chain's successive
            // lengths by a whole wavefront ensures the prefix result is
            // cached — not merely in flight — when the extension arrives,
            // so warm starts happen from the first cycle on.
            chain_wavefronts(spec.total, pool_len, spec.seq_len, "prefix-chain")
        }
        StreamPattern::Hierarchy => {
            // Same wavefront walk over 3-entry chains: every chain's
            // suffix, then every ancestor variant (suffix-seeded), then
            // every full query (ancestor-seeded).
            chain_wavefronts(spec.total, pool_len, HIERARCHY_CHAIN, "hierarchy")
        }
    }
}

/// Walks fixed-stride chains in wavefronts: entry 0 of every chain, then
/// entry 1 of every chain, … cycling until `total` requests. Each entry's
/// predecessor is separated by a whole wavefront, so its result is cached
/// — not merely in flight — when the successor arrives.
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

/// Replays `spec` against `dataset` and reports service metrics.
///
/// The dataset is consumed: its graph, forest and PoI table become the
/// shared [`ServiceContext`]. Use [`build_pool`] + [`replay_on`] directly
/// to run several replays (e.g. config comparisons) over one context.
///
/// # Panics
/// If `spec.total` or `spec.distinct` is zero, or the dataset cannot
/// populate a workload of `spec.seq_len` (see [`WorkloadSpec::generate`]).
pub fn replay(dataset: Dataset, spec: &ReplaySpec) -> ReplayReport {
    assert!(spec.total > 0 && spec.distinct > 0, "replay needs a non-empty stream");
    let pool = build_pool(&dataset, spec);
    let ctx = Arc::new(ServiceContext::from_dataset(dataset));
    replay_on(ctx, &pool, spec)
}

/// Replays `spec`'s stream over an already-built pool and shared context.
pub fn replay_on(ctx: Arc<ServiceContext>, pool: &[SkySrQuery], spec: &ReplaySpec) -> ReplayReport {
    assert!(!pool.is_empty(), "replay needs a non-empty pool");
    assert!(
        !(spec.update_every > 0 && (spec.qps > 0.0 || spec.update_rate > 0.0)),
        "synchronous update waves (update_every) are closed-loop and exclusive with the \
         open-loop qps/update_rate knobs"
    );
    assert!(
        spec.overload == 0.0 || (spec.qps == 0.0 && spec.update_every == 0),
        "overload resolves its own open-loop rate: exclusive with an explicit qps and with \
         closed-loop update waves"
    );
    let stream = request_stream(spec, pool.len());
    if spec.retention > 0 {
        ctx.set_epoch_retention(spec.retention);
    }
    if spec.repair {
        // Build the landmark oracle before the clock starts: repair's
        // cheap tiers consult it on the very first repaired request.
        let _ = ctx.landmarks();
    }
    // Overload mode resolves its open-loop rate from *measured* capacity
    // before the real service exists, so the calibration pass cannot warm
    // the cache the measured run will use.
    let spec = &ReplaySpec {
        qps: if spec.overload > 0.0 {
            measure_capacity(&ctx, pool, &stream, spec) * spec.overload
        } else {
            spec.qps
        },
        ..spec.clone()
    };
    let service = Service::new(Arc::clone(&ctx), service_config(spec, stream.len()));
    let workers = service.config().workers;
    let epoch_before = ctx.current_epoch();

    let publish_ctx = Arc::clone(&ctx);
    let publish = move |deltas: &[WeightDelta]| publish_ctx.publish_weights(deltas);
    let (outcomes, wall) = drive(&service, pool, &stream, spec, ctx.graph(), &publish);
    let metrics = service.metrics();
    let spans = service.traces().drain();
    drop(service);
    // With a bounded ring, measure the history *after* every worker lease
    // is released and a final sweep ran: the soak gate asserts the drained
    // service holds at most K epochs.
    if spec.retention > 0 {
        ctx.compact_epochs();
    }
    let epoch_gc = ctx.epoch_gc_stats();
    let epochs_published = ctx.current_epoch().get() - epoch_before.get();

    let audit =
        spec.verify.then(|| count_oracle_mismatches(&ctx, pool, spec.engine, &stream, &outcomes));
    let trace_violations =
        (spec.telemetry == TelemetryMode::Full).then(|| audit_spans(&spans, &outcomes, &metrics));

    ReplayReport {
        total: stream.len(),
        distinct: pool.len(),
        pattern: spec.pattern,
        workers,
        qps: spec.qps,
        wall,
        epochs_published,
        epoch_gc,
        metrics,
        verify_mismatches: audit.map(|(mismatches, _)| mismatches),
        verify_skipped: audit.map(|(_, skipped)| skipped),
        spans,
        trace_violations,
        overload: spec.overload,
        met_deadline: met_deadline(spec, &outcomes),
    }
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
    /// Per-shard reports, registration-ordered (region 0 first).
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

    /// Whether every shard passed its gates: zero oracle mismatches (when
    /// verification ran), zero stale serves, zero trace violations (when
    /// full tracing ran) and nothing misrouted.
    pub fn all_ok(&self) -> bool {
        self.misrouted == 0
            && self.shards.iter().all(|s| {
                s.report.verify_mismatches.unwrap_or(0) == 0
                    && s.report.stale_served() == 0
                    && s.report.trace_violations.unwrap_or(0) == 0
            })
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

/// A shard lane of [`replay_sharded`]: one region's dataset, pool, stream
/// and salted spec, plus the epoch watermark its accounting starts from.
struct ShardLane {
    region: RegionId,
    name: String,
    ctx: Arc<ServiceContext>,
    pool: Vec<SkySrQuery>,
    stream: Vec<usize>,
    spec: ReplaySpec,
    epoch_before: EpochId,
}

/// Replays `spec` concurrently against several regions behind one
/// [`Router`](crate::Router) — the multi-tenant twin of [`replay`].
///
/// Each `(name, dataset)` pair becomes one shard with its own
/// [`ServiceContext`], worker pool, cache and telemetry, registered
/// through a [`ShardRegistry`]. Every shard gets its own query pool,
/// request stream and (if enabled) weight-update process, derived from
/// `spec` with a shard-salted seed (shard 0 keeps the caller's seed, so a
/// one-shard sharded replay is bit-identical to [`replay`]). Each lane
/// drives its stream through
/// [`Router::region_service`](crate::shard::Router::region_service) —
/// requests are region-stamped and dispatched exactly like network
/// traffic — while its updater publishes through
/// [`Router::publish_weights_to`](crate::shard::Router::publish_weights_to),
/// so weight
/// churn stays shard-local by construction.
///
/// Verification, stale-serve and trace audits run *per shard* against that
/// shard's private context: a mismatch on shard A cannot be masked by
/// shard B, which is precisely the isolation proof the multi-tenant
/// architecture claims.
///
/// # Panics
/// If `datasets` is empty, the stream is empty, or `spec.overload` is set
/// (capacity calibration is single-tenant — drive shards with an explicit
/// [`qps`](ReplaySpec::qps) instead).
pub fn replay_sharded(datasets: Vec<(String, Dataset)>, spec: &ReplaySpec) -> ShardedReplayReport {
    assert!(!datasets.is_empty(), "a sharded replay needs at least one region");
    assert!(spec.total > 0 && spec.distinct > 0, "replay needs a non-empty stream");
    assert!(
        spec.overload == 0.0,
        "overload capacity calibration is single-tenant; drive shards with an explicit qps"
    );

    let mut registry = ShardRegistry::new();
    let mut lanes = Vec::with_capacity(datasets.len());
    for (i, (name, dataset)) in datasets.into_iter().enumerate() {
        // Salt the seed per shard so pools, streams and updater bursts
        // differ across regions; shard 0 keeps the caller's seed.
        let spec = ReplaySpec {
            seed: spec.seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            ..spec.clone()
        };
        let pool = build_pool(&dataset, &spec);
        let stream = request_stream(&spec, pool.len());
        let ctx = Arc::new(ServiceContext::from_dataset(dataset));
        if spec.retention > 0 {
            ctx.set_epoch_retention(spec.retention);
        }
        if spec.repair {
            let _ = ctx.landmarks();
        }
        let epoch_before = ctx.current_epoch();
        let region =
            registry.add(name.clone(), Arc::clone(&ctx), service_config(&spec, stream.len()));
        lanes.push(ShardLane { region, name, ctx, pool, stream, spec, epoch_before });
    }
    let router = registry.into_router();

    // Drive every lane concurrently, each through its own region-scoped
    // service view so the router's dispatch path is on the hot path.
    let t0 = Instant::now();
    let driven: Vec<(Vec<Result<QueryResponse, QueryError>>, Duration)> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = lanes
                .iter()
                .map(|lane| {
                    let router = &router;
                    scope.spawn(move || {
                        let service =
                            router.region_service(lane.region).expect("region was registered");
                        let publish = move |deltas: &[WeightDelta]| {
                            router
                                .publish_weights_to(lane.region, deltas)
                                .expect("region was registered")
                        };
                        drive(
                            &service,
                            &lane.pool,
                            &lane.stream,
                            &lane.spec,
                            lane.ctx.graph(),
                            &publish,
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("shard driver panicked")).collect()
        });
    let wall = t0.elapsed();

    // Capture per-shard metrics and spans while the services are still
    // up, then shut the whole fleet down so every worker lease is
    // released before the per-shard history is measured.
    let observed: Vec<(MetricsSnapshot, Vec<TraceSpan>, usize)> = lanes
        .iter()
        .map(|lane| {
            let service = router.shard(lane.region).expect("region was registered");
            (service.metrics(), service.traces().drain(), service.config().workers)
        })
        .collect();
    let misrouted = router.misrouted();
    let _ = router.shutdown();

    let shards = lanes
        .into_iter()
        .zip(driven)
        .zip(observed)
        .map(|((lane, (outcomes, _)), (metrics, spans, workers))| {
            let ShardLane { region, name, ctx, pool, stream, spec, epoch_before } = lane;
            if spec.retention > 0 {
                ctx.compact_epochs();
            }
            let epoch_gc = ctx.epoch_gc_stats();
            let epochs_published = ctx.current_epoch().get() - epoch_before.get();
            let audit = spec
                .verify
                .then(|| count_oracle_mismatches(&ctx, &pool, spec.engine, &stream, &outcomes));
            let trace_violations = (spec.telemetry == TelemetryMode::Full)
                .then(|| audit_spans(&spans, &outcomes, &metrics));
            ShardReplay {
                region,
                name,
                report: ReplayReport {
                    total: stream.len(),
                    distinct: pool.len(),
                    pattern: spec.pattern,
                    workers,
                    qps: spec.qps,
                    wall,
                    epochs_published,
                    epoch_gc,
                    metrics,
                    verify_mismatches: audit.map(|(mismatches, _)| mismatches),
                    verify_skipped: audit.map(|(_, skipped)| skipped),
                    spans,
                    trace_violations,
                    overload: 0.0,
                    met_deadline: met_deadline(&spec, &outcomes),
                },
            }
        })
        .collect();

    ShardedReplayReport { shards, wall, misrouted }
}

/// The [`ServiceConfig`] a replay spec resolves to.
fn service_config(spec: &ReplaySpec, stream_len: usize) -> ServiceConfig {
    ServiceConfig {
        workers: spec.workers,
        queue_capacity: spec.queue_capacity,
        cache_capacity: spec.cache_capacity,
        coalesce: spec.coalesce,
        prefix_reuse: spec.prefix_reuse,
        ancestor_reuse: spec.ancestor_reuse,
        suffix_reuse: spec.suffix_reuse,
        repair: spec.repair,
        admission: spec.admission,
        engine: spec.engine,
        telemetry: match spec.telemetry {
            TelemetryMode::Sampled => TelemetryConfig::default(),
            TelemetryMode::Full => TelemetryConfig::trace_all(stream_len),
            TelemetryMode::Off => TelemetryConfig::disabled(),
        },
        ..ServiceConfig::default()
    }
}

/// Measures the service's sustainable throughput (completed requests per
/// second) with a short closed-loop pass over a prefix of the stream, on a
/// scratch service configured like the real one — its own cache, no
/// deadlines, no admission — so calibration neither warms nor sheds
/// anything the measured run will see. The closed loop self-throttles to
/// the pool's pace, which *is* capacity.
fn measure_capacity(
    ctx: &Arc<ServiceContext>,
    pool: &[SkySrQuery],
    stream: &[usize],
    spec: &ReplaySpec,
) -> f64 {
    let n = stream.len().min(256);
    let calibration =
        ReplaySpec { deadline: None, admission: false, overload: 0.0, ..spec.clone() };
    let service = Service::new(
        Arc::clone(ctx),
        ServiceConfig { telemetry: TelemetryConfig::disabled(), ..service_config(&calibration, n) },
    );
    let t0 = Instant::now();
    let outcomes = service.run_batch(stream[..n].iter().map(|&i| pool[i].clone()));
    let wall = t0.elapsed().max(Duration::from_micros(1));
    drop(service);
    let completed = outcomes.iter().filter(|o| o.is_ok()).count().max(1);
    completed as f64 / wall.as_secs_f64()
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

/// The transport-agnostic stream driver shared by [`replay_on`] and
/// [`replay_remote`]: runs `spec`'s arrival process (closed-loop batch,
/// synchronous update waves, or open-loop Poisson arrivals) against any
/// [`QueryService`], with the optional wall-clock updater publishing
/// weight bursts through `publish` from a scoped thread until the stream
/// drains. `graph` is only used to *generate* deltas (base weights, which
/// never change) — publication itself goes through `publish`, so a remote
/// driver can route it over the wire and mirror it locally.
fn drive(
    service: &dyn QueryService,
    pool: &[SkySrQuery],
    stream: &[usize],
    spec: &ReplaySpec,
    graph: &RoadNetwork,
    publish: &(dyn Fn(&[WeightDelta]) -> EpochId + Sync),
) -> (Vec<Result<QueryResponse, QueryError>>, Duration) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // The updater publishes weight-delta bursts at exponential
        // instants until the stream drains.
        let updater = (spec.update_rate > 0.0).then(|| {
            let stop = &stop;
            let rate = spec.update_rate;
            let burst = spec.update_burst.max(1);
            let magnitude = spec.update_magnitude.max(1.0);
            let seed = spec.seed ^ 0x7570_6474; // "updt"
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                while !stop.load(Ordering::Relaxed) {
                    // Sleep in small slices so a drained stream stops the
                    // updater promptly.
                    let deadline =
                        Instant::now() + Duration::from_secs_f64(exp_sample(&mut rng) / rate);
                    while let Some(left) = deadline.checked_duration_since(Instant::now()) {
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                        std::thread::sleep(left.min(Duration::from_millis(2)));
                    }
                    let deltas = random_traffic_deltas(graph, burst, magnitude, &mut rng);
                    publish(&deltas);
                }
            })
        });

        let t0 = Instant::now();
        let outcomes = if spec.qps > 0.0 {
            open_loop_batch(service, pool, stream, spec.qps, spec.seed, spec.deadline)
        } else if spec.update_every > 0 {
            // Closed-loop epoch waves: drain a chunk, publish a burst,
            // repeat.
            let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x7761_7665); // "wave"
            let burst = spec.update_burst.max(1);
            let magnitude = spec.update_magnitude.max(1.0);
            let mut outcomes = Vec::with_capacity(stream.len());
            for chunk in stream.chunks(spec.update_every) {
                outcomes.extend(run_requests(service, pool, chunk, spec.deadline));
                let deltas = random_traffic_deltas(graph, burst, magnitude, &mut rng);
                publish(&deltas);
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
        (outcomes, wall)
    })
}

/// Replays `spec`'s stream through a live `skysr-d` daemon, auditing the
/// answers against a local *shadow* dataset.
///
/// `shadow` must be built from the same dataset spec (and start at the
/// same weight epoch) as the daemon's context — checked up front via the
/// handshake's [`DatasetFingerprint`]. Weight updates are published
/// *through the wire* and mirrored into the shadow in lockstep; the
/// returned epoch must match the shadow's on every burst, so the oracle
/// ([`ReplaySpec::verify`]) re-answers each response at its pinned epoch
/// from an epoch history provably identical to the daemon's.
///
/// Unsupported over the wire (asserted): bounded retention (the shadow
/// cannot mirror server-side compaction) and full trace retention (spans
/// are not exported per-request).
///
/// # Panics
/// On spec combinations the wire cannot support (see above), and on a
/// mid-run epoch divergence between daemon and shadow.
pub fn replay_remote(
    remote: &RemoteService,
    shadow: Arc<ServiceContext>,
    pool: &[SkySrQuery],
    spec: &ReplaySpec,
) -> Result<ReplayReport, ProtocolError> {
    assert!(!pool.is_empty(), "replay needs a non-empty pool");
    assert!(
        spec.retention == 0,
        "remote replay audits against an unbounded shadow history (retention must be 0)"
    );
    assert!(
        spec.telemetry != TelemetryMode::Full,
        "trace spans are not exported over the wire; use sampled or off telemetry"
    );
    assert!(
        !(spec.update_every > 0 && (spec.qps > 0.0 || spec.update_rate > 0.0)),
        "synchronous update waves (update_every) are closed-loop and exclusive with the \
         open-loop qps/update_rate knobs"
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
    let stream = request_stream(spec, pool.len());
    let epoch_before = shadow.current_epoch();

    let publish = |deltas: &[WeightDelta]| {
        let published = remote.publish_weights(deltas);
        let mirrored = shadow.publish_weights(deltas);
        assert_eq!(
            published, mirrored,
            "shadow context diverged from the daemon's epoch sequence — is something else \
             publishing weights to this daemon?"
        );
        published
    };
    let (outcomes, wall) = drive(remote, pool, &stream, spec, shadow.graph(), &publish);
    let metrics = remote.metrics();
    let epochs_published = shadow.current_epoch().get() - epoch_before.get();

    let audit = spec
        .verify
        .then(|| count_oracle_mismatches(&shadow, pool, spec.engine, &stream, &outcomes));

    Ok(ReplayReport {
        total: stream.len(),
        distinct: pool.len(),
        pattern: spec.pattern,
        workers: spec.workers,
        qps: spec.qps,
        wall,
        epochs_published,
        // Server-side accounting, as carried in the metrics snapshot.
        epoch_gc: metrics.epochs,
        metrics,
        verify_mismatches: audit.map(|(mismatches, _)| mismatches),
        verify_skipped: audit.map(|(_, skipped)| skipped),
        spans: Vec::new(),
        trace_violations: None,
        overload: spec.overload,
        met_deadline: met_deadline(spec, &outcomes),
    })
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
/// targeting `qps`, then waits for every answer (order preserved).
fn open_loop_batch(
    service: &dyn QueryService,
    pool: &[SkySrQuery],
    stream: &[usize],
    qps: f64,
    seed: u64,
    deadline: Option<Duration>,
) -> Vec<Result<QueryResponse, QueryError>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6f70_656e); // "open"
    let started = Instant::now();
    let mut at = 0.0f64;
    let mut tickets: Vec<Ticket> = Vec::with_capacity(stream.len());
    for &i in stream {
        at += exp_sample(&mut rng) / qps;
        let target = started + Duration::from_secs_f64(at);
        if let Some(wait) = target.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        // Submission may block on a full queue: open-loop overload turns
        // into measured backpressure, not an unbounded client-side buffer.
        // (With admission on, unmeetable deadlines are shed right here
        // instead — the ticket resolves to `Overloaded` immediately.)
        tickets.push(service.submit(request_for(pool, i, deadline)));
    }
    tickets.into_iter().map(Ticket::wait).collect()
}

/// Epoch-aware verification: every answered request is recomputed by a
/// cold sequential [`Bssr`] over a snapshot pinned to the epoch the
/// response reports, and compared as score-equivalent multisets. Each
/// (epoch, pool entry) reference is computed once. Returns
/// `(mismatches, skipped)`: a response whose pinned epoch is no longer
/// pinnable (compacted out of a bounded retention ring) cannot be audited
/// and is skipped — counted, never silently dropped.
fn count_oracle_mismatches(
    ctx: &ServiceContext,
    pool: &[SkySrQuery],
    engine: BssrConfig,
    stream: &[usize],
    outcomes: &[Result<QueryResponse, QueryError>],
) -> (usize, usize) {
    use std::collections::{BTreeMap, BTreeSet, HashMap};
    let mut need: BTreeMap<EpochId, BTreeSet<usize>> = BTreeMap::new();
    for (&i, outcome) in stream.iter().zip(outcomes) {
        if let Ok(r) = outcome {
            need.entry(r.epoch).or_default().insert(i);
        }
    }
    let mut reference: HashMap<(EpochId, usize), Vec<SkylineRoute>> = HashMap::new();
    let mut scratch = BssrScratch::new(ctx.graph().num_vertices());
    for (&epoch, indexes) in &need {
        // With a bounded retention ring, an epoch the stream was served
        // under may have been compacted since; its responses are skipped.
        let Some(pinned) = ctx.pin_at(epoch) else {
            continue;
        };
        let qctx = pinned.query_context();
        let mut bssr = Bssr::with_scratch(&qctx, engine, scratch);
        for &i in indexes {
            let routes = bssr.run(&pool[i]).expect("generated queries are valid").routes;
            reference.insert((epoch, i), routes);
        }
        scratch = bssr.into_scratch();
    }
    let mut mismatches = 0usize;
    let mut skipped = 0usize;
    for (&i, outcome) in stream.iter().zip(outcomes) {
        match outcome {
            Ok(r) => match reference.get(&(r.epoch, i)) {
                Some(oracle) => {
                    // A degraded-mode partial is not expected to *equal*
                    // the exact skyline — it must be *consistent* with it.
                    let ok = if r.served == Served::Approximate {
                        valid_approximate(&r.routes, oracle)
                    } else {
                        equivalent_skylines(&r.routes, oracle)
                    };
                    if !ok {
                        mismatches += 1;
                    }
                }
                None => skipped += 1,
            },
            // Shed under overload (admission or expired in queue): the
            // request produced no skyline to audit, by design.
            Err(QueryError::Overloaded) => {}
            Err(_) => mismatches += 1,
        }
    }
    (mismatches, skipped)
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
mod tests {
    use super::*;

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
