//! `skysr-service` — a concurrent in-process SkySR query engine.
//!
//! The algorithm crates answer one query on one thread against a borrowed
//! [`QueryContext`](skysr_core::QueryContext). This crate adds the serving
//! layer the ROADMAP's scaling work builds on. Category forest, PoI table
//! and similarity measure are immutable after construction; the road
//! network's *edge weights* are dynamic (live traffic), managed as
//! epoch-versioned copy-on-write overlays
//! ([`skysr_graph::epoch`]). A single owned [`ServiceContext`] is shared
//! by `Arc` across any number of worker threads; each worker pins a
//! consistent snapshot ([`context::PinnedContext`]) per request and runs
//! the unchanged [`Bssr`](skysr_core::bssr::Bssr) engine on it with
//! recycled scratch state.
//!
//! Components:
//!
//! * [`context::ServiceContext`] — the owned, `Arc`-shared counterpart of
//!   the borrowed `QueryContext`, with
//!   [`publish_weights`](ServiceContext::publish_weights) /
//!   [`pin`](ServiceContext::pin) /
//!   [`pin_at`](ServiceContext::pin_at) for dynamic weights;
//! * [`pool`] — a std-only worker pool fed by a bounded submission queue
//!   that holds only work needing an engine (when the queue is full,
//!   [`QueryService::submit`] blocks — backpressure), plus the singleflight
//!   [`pool::InflightTable`] behind request coalescing (keyed per canonical
//!   query *and* weight epoch);
//! * [`cache`] — a cross-query LRU result cache keyed by the *canonical*
//!   query (start vertex + canonical form of every position + engine
//!   configuration; complex requirements canonicalize too), with entries
//!   stamped by weight epoch (lazy invalidation; stale entries are never
//!   served) and exact insertion/eviction/invalidation counters;
//! * [`metrics`] — one latency histogram per serving rung that each
//!   response records itself in, and the counts, rates and percentiles
//!   derived from them;
//! * [`replay`] — a workload-replay driver with four stream shapes
//!   (Zipf, duplicate bursts, prefix chains, hierarchy chains), optional
//!   open-loop arrivals and mid-stream weight-update bursts, and
//!   epoch-aware verification against sequential execution, summarised
//!   in a [`replay::ReplayReport`]. In-process, sharded and remote
//!   replays share one lane runner and one check
//!   ([`ReplayReport::check`]). The CLI's `replay` subcommand is a thin
//!   wrapper around it;
//! * [`scenario`] — the scenario table: every replay CI runs as a named
//!   row with typed gates, including twin gates that bound a mechanism's
//!   engine work against the same row with the mechanism switched off;
//! * [`shard`] — multi-tenant scale-out: a [`Router`] builds one complete
//!   share-nothing serving stack per region and implements
//!   [`QueryService`] — [`QueryRequest::region`] addressing (region-less
//!   requests go to region 0), per-shard metrics under the merged
//!   aggregate, and shard-local weight updates/invalidation/overload by
//!   construction;
//! * [`telemetry`] — per-request [`TraceSpan`]s (queue → plan → engine
//!   stage timings, rung-ladder probe trail, engine-work profile) retained
//!   in a sampled bounded [`TraceBuffer`], log-linear mergeable latency
//!   [`Histogram`]s recorded per rung and for the queue-wait/engine split,
//!   and the `--trace-out` (JSON lines) / `--metrics-out` (Prometheus
//!   text) exporters ([`telemetry::export`]). Full tracing enforces the
//!   trace-completeness invariant: exactly one span per response, with
//!   `span.rung` matching the response's `Served` classification.
//!
//! Between a request and a BSSR search sits the **reuse planner**
//! ([`plan`]): it probes the cache once through the unified non-counting
//! [`ResultCache::probe_entry`] and names the one rung
//! ([`plan::PlanStep`]) of the ladder `ExactHit → Repair → ColdSearch`
//! that answers a request. A request is planned once where it arrives: a
//! cache hit is answered on the submitting thread and never queues, a
//! duplicate of a running search parks on its flight, and the rest queue
//! for a worker, which leads the request's flight, plans again at its
//! pinned epoch and executes the plan mechanically. Request coalescing
//! lets concurrent duplicates share one computation's `Arc`'d skyline —
//! the leader fills the cache *before* ending the flight, so a key is
//! never searched twice concurrently. The cache and the flights are
//! epoch-exact: a cached skyline or an in-flight computation is reused
//! only by requests pinned to the same weight epoch — except where
//! *incremental repair* ([`ServiceConfig::repair`]) proves a cross-epoch
//! reuse sound: a cached skyline at an older epoch is repaired against
//! the exact weight delta
//! ([`skysr_core::bssr::repair`]) and promoted to the new epoch in place.
//! The weight-epoch history is the newest overlay plus a log of each
//! publish's arcs, so it grows with the arcs published, not with the
//! square of the epoch count. It can be bounded too
//! ([`ServiceContext::set_epoch_retention`]): the log then keeps the
//! newest K epochs' batches, so long-running services under churn hold at
//! most K pinnable epochs.
//!
//! ## Quickstart
//!
//! ```
//! use skysr_data::dataset::{DatasetSpec, Preset};
//! use skysr_data::workload::WorkloadSpec;
//! use skysr_service::{QueryService, Service, ServiceConfig, ServiceContext};
//! use std::sync::Arc;
//!
//! let dataset = DatasetSpec::preset(Preset::CalSmall).scale(0.05).seed(7).generate();
//! let workload = WorkloadSpec::new(2).queries(8).seed(11).generate(&dataset);
//!
//! let ctx = Arc::new(ServiceContext::from_dataset(dataset));
//! let service = Service::new(ctx, ServiceConfig { workers: 4, ..Default::default() });
//!
//! for outcome in service.run_queries(&workload.queries) {
//!     let response = outcome.expect("generated queries are valid");
//!     assert!(!response.routes.is_empty());
//! }
//! let m = service.metrics();
//! assert_eq!(m.completed, 8);
//! ```
//!
//! Every endpoint implements [`QueryService`], whose one submission
//! method, [`QueryService::submit_to`], takes the request and the
//! [`Reply`] its answer goes to; [`Ticket`] and [`StreamTicket`] are
//! replies over a channel.
//!
//! The same engine serves over the network: [`net`] adds the `skysr-d`
//! server ([`net::Server`]: blocking sockets, up to
//! [`net::MAX_CONNECTIONS`] connections, each on a reader thread that
//! submits through [`QueryService::submit_to`] and a writer thread the
//! replies post their frames to; a full submission queue stops that
//! connection's reads, and a client that stops reading stops being read
//! past [`ServerConfig::write_buf_cap`]), the length-prefixed wire
//! protocol ([`net::wire`]) and the [`RemoteService`] client — which
//! implements the same [`QueryService`] trait as [`Service`], so every
//! driver in this crate runs against either transport.
//!
//! Under overload the service degrades deliberately instead of
//! collapsing: requests may carry deadlines
//! ([`QueryRequest::deadline`]), cache hits never queue, the submission
//! queue serves repairs ahead of searches and earlier deadlines first
//! within each, with an anti-starvation aging bound
//! ([`pool::ScheduledQueue`]), an admission gate
//! ([`ServiceConfig::admission`]) refuses provably-unmeetable deadlines
//! up front, expired-in-queue work is shed un-executed, and a search
//! that outlives its deadline serves a *valid* partial skyline flagged
//! approximate — never cached, never wrong.
//!
//! The prose companions to this API documentation live at the
//! repository root: `docs/ARCHITECTURE.md` (crate map, rung ladder,
//! scheduling, epoch lifecycle, wire protocol) and `docs/OPERATIONS.md`
//! (running `skysr-d`, tuning knobs, counter taxonomy, capacity
//! planning).

pub mod cache;
pub mod context;
pub mod metrics;
pub mod net;
pub mod plan;
pub mod pool;
pub mod replay;
pub mod scenario;
mod service;
pub mod shard;
pub mod telemetry;

pub use cache::{CacheCounters, QueryKey, ResultCache};
pub use context::ServiceContext;
pub use metrics::{LatencyBreakdown, MetricsSnapshot, Served};
pub use net::{ProtocolError, RemoteService, Server, ServerConfig};
pub use plan::{PlanStep, ReusePlanner, ReuseStrategies};
pub use replay::{ReplayReport, ReplaySpec, ShardReplay, ShardedReplayReport, StreamPattern};
pub use scenario::{City, Gates, Scenario, TwinGate, Work};
pub use service::{
    Answer, AnytimeResponse, QueryRequest, QueryResponse, QueryService, Reply, RequestOptions,
    Service, ServiceConfig, StreamTicket, Ticket,
};
pub use shard::{RegionId, RegionInfo, RegionService, Router};
pub use telemetry::{
    Histogram, HistogramSnapshot, Rung, RungSummary, TelemetryConfig, TraceBuffer, TraceSpan,
};
