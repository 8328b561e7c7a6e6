//! `skysr-service` — a concurrent in-process SkySR query engine.
//!
//! The algorithm crates answer one query on one thread against a borrowed
//! [`QueryContext`](skysr_core::QueryContext). This crate adds the serving
//! layer: a single owned [`ServiceContext`] (road network with
//! epoch-versioned edge weights, category forest, PoI table, similarity)
//! is shared by `Arc` across a worker pool; each worker pins a consistent
//! snapshot ([`context::PinnedContext`]) per request and runs the
//! unchanged [`Bssr`](skysr_core::bssr::Bssr) engine on it with recycled
//! scratch state.
//!
//! Each mechanism is documented in its module:
//!
//! * [`Service`] and the [`QueryService`] trait every endpoint implements:
//!   submission, backpressure and where deadlines are enforced;
//! * [`plan`] — the reuse planner, which names the one rung
//!   (`ExactHit → Repair → ColdSearch`) that answers a request;
//! * [`cache`] — the epoch-stamped canonical-key result cache;
//! * [`pool`] — the scheduled submission queue and the singleflight behind
//!   request coalescing;
//! * [`metrics`] and [`telemetry`] — the per-rung outcome record and what
//!   derives from it, trace spans, exporters;
//! * [`replay`] and [`scenario`] — the workload driver and the table of
//!   every replay CI runs;
//! * [`shard`] — one share-nothing stack per region behind a [`Router`];
//! * [`net`] — the `skysr-d` server, its wire codec and the
//!   [`RemoteService`] client.
//!
//! How they fit, and the invariants that span crates (the epoch lifecycle,
//! the rung ladder, the wire protocol), are in `docs/ARCHITECTURE.md` at
//! the repository root; flags, counters and capacity in
//! `docs/OPERATIONS.md`.
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
