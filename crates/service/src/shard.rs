//! Multi-tenant sharding: several regions, one process, one front door.
//!
//! One [`Service`] serves one dataset. "Millions of users" means many
//! regions, each with its own road network, PoI table, live-traffic epoch
//! stream and load profile — and the deliberate design decision here is
//! that those regions **share nothing**. [`Router::new`] builds one
//! complete serving stack per region (worker pool, result cache, epoch
//! manager, cost model, telemetry — the whole of [`Service`]), and the
//! router in front of them does exactly one thing: pick the owning shard
//! and hand the request over. Weight updates, cache invalidation,
//! admission control and overload shedding are shard-local *by
//! construction* — there is no cross-shard state to protect, so a
//! weight-delta storm on region A cannot touch region B's epoch ring,
//! cache residency or latency profile (the isolation property
//! `crates/service/tests/shards.rs` pins down).
//!
//! # Regions
//!
//! The router alone owns region identity. A region's id is its position:
//! the first region given to [`Router::new`] is region 0, the next region
//! 1, and so on.
//!
//! * A request addressed to a region
//!   ([`RequestOptions::region`](crate::RequestOptions::region)) goes to
//!   that region's shard. An address no shard holds is answered
//!   [`QueryError::UnknownRegion`] at the front door and counted
//!   [`misrouted`](Router::misrouted); no shard's counters move.
//! * **A region-less request goes to region 0.** So do region-less weight
//!   publishes ([`QueryService::publish_weights`]), and the daemon's
//!   `Welcome` carries region 0's fingerprint: a client that names no
//!   region reads and writes one city, the one it verifies against.
//! * The router consumes a request's address before its shard sees it.
//!   A bare [`Service`] is region 0 alone: it serves region-less requests
//!   and those addressed to region 0, and answers any other address
//!   (one a client sent over the wire) with `UnknownRegion`, counted as
//!   failed.
//!
//! [`Router`] implements [`QueryService`], so every driver in this crate
//! (replay, the daemon) serves a multi-tenant router exactly as it
//! serves one [`Service`]. [`Router::region_service`] adapts one region
//! back into a `QueryService` view — how the sharded replay driver runs
//! per-region workloads through the front door without teaching the
//! stream generators about addressing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use skysr_core::error::QueryError;
use skysr_graph::{DeltaError, EpochId, WeightDelta};

use crate::context::ServiceContext;
use crate::metrics::MetricsSnapshot;
use crate::net::DatasetFingerprint;
use crate::service::{QueryRequest, QueryService, Reply, Service, ServiceConfig};

/// Identifies one region (one resident dataset / shard) of a multi-tenant
/// deployment: its position in the [`Router`] (see the
/// [module docs](self#regions)). Carried by requests
/// ([`crate::RequestOptions::region`]) and on the wire (`Submit` frames,
/// the `Welcome` registry).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub u16);

impl std::fmt::Display for RegionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One entry of the region registry an endpoint advertises
/// ([`QueryService::regions`]): the address, the human-readable dataset
/// name, and the dataset fingerprint a verifying client compares its
/// shadow copy against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionInfo {
    /// The routable address.
    pub id: RegionId,
    /// Human-readable region/dataset name (`--shards` synthesizes
    /// `region-0`, `region-1`, …).
    pub name: String,
    /// Fingerprint of the shard's dataset when the registry was read.
    pub fingerprint: DatasetFingerprint,
}

/// One region: its name and its complete, isolated serving stack.
struct Shard {
    name: String,
    service: Service,
}

/// The thin multi-tenant front door: implements [`QueryService`] by
/// resolving each request's region and dispatching to the owning shard.
///
/// The router itself holds no query state — no queue, no cache, no
/// metrics recorder. [`metrics`](QueryService::metrics) and
/// [`shutdown`](QueryService::shutdown) merge the per-shard snapshots
/// ([`MetricsSnapshot::merge`]); per-shard views stay available through
/// [`shard_metrics`](Router::shard_metrics) and are what the CLI exports
/// under the per-shard `shard` label.
pub struct Router {
    shards: Vec<Shard>,
    /// Requests that addressed a region nobody serves — answered with
    /// [`QueryError::UnknownRegion`] here at the front door, so no shard's
    /// `failed` counter moves. Observable via [`Router::misrouted`].
    misrouted: AtomicU64,
}

impl Router {
    /// Builds one [`Service`] with `config` (spawning its worker pool)
    /// over each `(name, context)` region, in order: the first is region
    /// 0.
    ///
    /// # Panics
    /// If `regions` is empty — an empty deployment serves nothing and has
    /// no region 0 — or holds more regions than a [`RegionId`] numbers.
    pub fn new(
        regions: impl IntoIterator<Item = (String, Arc<ServiceContext>)>,
        config: &ServiceConfig,
    ) -> Router {
        let shards: Vec<Shard> = regions
            .into_iter()
            .map(|(name, ctx)| Shard { name, service: Service::new(ctx, config.clone()) })
            .collect();
        assert!(!shards.is_empty(), "a Router needs at least one region");
        assert!(shards.len() <= 1 << 16, "more than 65536 regions");
        Router { shards, misrouted: AtomicU64::new(0) }
    }

    /// The shard owning `region`, if there is one.
    pub fn shard(&self, region: RegionId) -> Option<&Service> {
        self.entry(region).map(|s| &s.service)
    }

    /// The shared context of `region`'s shard, if there is one.
    pub fn context(&self, region: RegionId) -> Option<&Arc<ServiceContext>> {
        self.shard(region).map(Service::context)
    }

    /// `region`'s own metrics snapshot — the per-shard view the merged
    /// [`QueryService::metrics`] is built from.
    pub fn shard_metrics(&self, region: RegionId) -> Option<MetricsSnapshot> {
        self.shard(region).map(Service::metrics)
    }

    /// Requests answered [`QueryError::UnknownRegion`] at the front door.
    pub fn misrouted(&self) -> u64 {
        self.misrouted.load(Ordering::Relaxed)
    }

    /// Publishes a weight-update batch to one region's epoch stream —
    /// shard-local by construction: no other shard's epoch ring, cache
    /// validity or repair path observes it. `None` if no shard owns
    /// `region`.
    pub fn publish_weights_to(&self, region: RegionId, deltas: &[WeightDelta]) -> Option<EpochId> {
        self.context(region).map(|ctx| ctx.publish_weights(deltas))
    }

    /// A [`QueryService`] view of one region: every submission is stamped
    /// with `region` before entering the router, and metrics/publishes are
    /// shard-local. `None` if no shard owns `region`.
    pub fn region_service(&self, region: RegionId) -> Option<RegionService<'_>> {
        self.entry(region)?;
        Some(RegionService { router: self, region })
    }

    fn entry(&self, region: RegionId) -> Option<&Shard> {
        self.shards.get(usize::from(region.0))
    }

    fn info(&self, region: RegionId) -> Option<RegionInfo> {
        self.entry(region).map(|s| RegionInfo {
            id: region,
            name: s.name.clone(),
            fingerprint: DatasetFingerprint::of(s.service.context()),
        })
    }
}

impl QueryService for Router {
    /// Takes the request's address off it and hands the request and its
    /// reply to that region's shard, region 0 when it names none. A
    /// request addressed to a region nobody serves is answered
    /// [`QueryError::UnknownRegion`] here and counted as misrouted.
    fn submit_to(&self, mut request: QueryRequest, reply: Reply) {
        let region = request.options.region.take().unwrap_or_default();
        match self.entry(region) {
            Some(shard) => shard.service.submit_to(request, reply),
            None => {
                self.misrouted.fetch_add(1, Ordering::Relaxed);
                reply.answer(Err(QueryError::UnknownRegion(region.0)));
            }
        }
    }

    /// The deployment-wide aggregate: every shard's snapshot merged
    /// ([`MetricsSnapshot::merge`]). Per-shard truth stays at
    /// [`Router::shard_metrics`].
    fn metrics(&self) -> MetricsSnapshot {
        let mut merged = self.shards[0].service.metrics();
        for shard in &self.shards[1..] {
            merged.merge(&shard.service.metrics());
        }
        merged
    }

    /// Region-less publishes go to region 0, like region-less requests.
    /// Publishers to other regions address them with
    /// [`Router::publish_weights_to`].
    fn publish_weights(&self, deltas: &[WeightDelta]) -> Result<EpochId, DeltaError> {
        self.shards[0].service.publish_weights(deltas)
    }

    /// Drains and stops every shard (region 0 first) and returns the
    /// merged final metrics. Idempotent, like each shard's own shutdown.
    fn shutdown(&self) -> MetricsSnapshot {
        let mut merged = self.shards[0].service.shutdown();
        for shard in &self.shards[1..] {
            merged.merge(&shard.service.shutdown());
        }
        merged
    }

    fn regions(&self) -> Vec<RegionInfo> {
        (0..self.shards.len()).filter_map(|i| self.info(RegionId(i as u16))).collect()
    }
}

/// One region of a [`Router`], viewed as a [`QueryService`].
///
/// Submissions are stamped with the region id and still travel through
/// the router's dispatch (exercising the same path an addressed network
/// request takes); metrics, weight publishes and regions() are
/// shard-local. `shutdown` is deployment-wide and left to the router
/// owner — calling it here drains only this shard.
pub struct RegionService<'a> {
    router: &'a Router,
    region: RegionId,
}

impl RegionService<'_> {
    fn shard(&self) -> &Service {
        self.router.shard(self.region).expect("a RegionService's region has a shard")
    }
}

impl QueryService for RegionService<'_> {
    fn submit_to(&self, request: QueryRequest, reply: Reply) {
        self.router.submit_to(request.region(self.region), reply);
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.shard().metrics()
    }

    fn publish_weights(&self, deltas: &[WeightDelta]) -> Result<EpochId, DeltaError> {
        self.shard().publish_weights(deltas)
    }

    fn shutdown(&self) -> MetricsSnapshot {
        self.shard().shutdown()
    }

    fn regions(&self) -> Vec<RegionInfo> {
        self.router.info(self.region).into_iter().collect()
    }
}
