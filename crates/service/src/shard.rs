//! Multi-tenant sharding: several regions, one process, one front door.
//!
//! One [`Service`] serves one dataset. "Millions of users" means many
//! regions, each with its own road network, PoI table, live-traffic epoch
//! stream and load profile — and the deliberate design decision here is
//! that those regions **share nothing**. A [`ShardRegistry`] builds one
//! complete serving stack per region (worker pool, result cache, epoch
//! manager, cost model, telemetry — the whole of [`Service`]), and the
//! [`Router`] in front of it does exactly one thing: pick the owning
//! shard and hand the request over. Weight updates, cache invalidation,
//! admission control and overload shedding are shard-local *by
//! construction* — there is no cross-shard state to protect, so a
//! weight-delta storm on region A cannot touch region B's epoch ring,
//! cache residency or latency profile (the isolation property
//! `crates/service/tests/shards.rs` pins down).
//!
//! Addressing: a [`QueryRequest`] carrying
//! [`region`](crate::RequestOptions::region) is dispatched to that shard
//! (or answered [`QueryError::UnknownRegion`] when no such shard is
//! registered). A region-less request falls back to *vertex-space
//! routing*: the start vertex is mapped against each shard's vertex-id
//! space and the choice is a pure function of the start id and the
//! registry shape, so the same start vertex always resolves to the same
//! shard ([`Router::route_start`]).
//!
//! [`Router`] implements [`QueryService`], so every driver in this crate
//! (replay, the daemon) serves a multi-tenant registry
//! exactly as it serves one [`Service`]. [`Router::region_service`]
//! adapts one region back into a `QueryService` view — how the sharded
//! replay driver runs per-region workloads through the front door without
//! teaching the stream generators about addressing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use skysr_core::error::QueryError;
use skysr_graph::{DeltaError, EpochId, VertexId, WeightDelta};

use crate::context::ServiceContext;
use crate::metrics::MetricsSnapshot;
use crate::net::DatasetFingerprint;
use crate::service::{QueryRequest, QueryService, Reply, Service, ServiceConfig};

/// Identifies one region (one resident dataset / shard) of a multi-tenant
/// deployment. Assigned densely from 0 in registration order by
/// [`ShardRegistry::add`]; carried by requests
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
    /// `region0`, `region1`, …).
    pub name: String,
    /// Fingerprint of the shard's dataset at registration time.
    pub fingerprint: DatasetFingerprint,
}

/// One registered shard: a complete, isolated serving stack for one
/// region.
struct Shard {
    id: RegionId,
    name: String,
    ctx: Arc<ServiceContext>,
    service: Arc<Service>,
}

/// Builder for a multi-tenant deployment: registers one complete
/// [`Service`] per region, then seals into a [`Router`].
///
/// `add` stamps each shard's [`ServiceConfig::region`] /
/// [`ServiceConfig::region_name`] with the assigned identity, so a shard
/// rejects mis-addressed requests itself even if handed one directly —
/// the router's dispatch and the shard's own guard cannot disagree.
#[derive(Default)]
pub struct ShardRegistry {
    shards: Vec<Shard>,
}

impl ShardRegistry {
    /// An empty registry.
    pub fn new() -> ShardRegistry {
        ShardRegistry { shards: Vec::new() }
    }

    /// Registers one region: builds its full serving stack (spawning the
    /// worker pool) over `ctx` with `config`, and returns the assigned
    /// address. Ids are dense and registration-ordered: the first shard
    /// is region 0 — the *default shard* region-less publishes and
    /// unroutable starts fall back to.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        ctx: Arc<ServiceContext>,
        config: ServiceConfig,
    ) -> RegionId {
        let id = RegionId(u16::try_from(self.shards.len()).expect("more than 65536 shards"));
        let name = name.into();
        let config = ServiceConfig { region: id, region_name: name.clone(), ..config };
        let service = Arc::new(Service::new(Arc::clone(&ctx), config));
        self.shards.push(Shard { id, name, ctx, service });
        id
    }

    /// Number of registered shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True before the first [`add`](ShardRegistry::add).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Seals the registry into a [`Router`].
    ///
    /// # Panics
    /// If no shard was registered — an empty deployment serves nothing
    /// and has no default shard to fall back to.
    pub fn into_router(self) -> Router {
        Router::new(self)
    }
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
    /// Seals `registry` into a router.
    ///
    /// # Panics
    /// If the registry is empty.
    pub fn new(registry: ShardRegistry) -> Router {
        assert!(!registry.is_empty(), "a Router needs at least one shard");
        Router { shards: registry.shards, misrouted: AtomicU64::new(0) }
    }

    /// Number of shards behind this router.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Routers are never empty ([`Router::new`] asserts), but clippy
    /// expects `is_empty` next to `len`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The shard owning `region`, if registered.
    pub fn shard(&self, region: RegionId) -> Option<&Arc<Service>> {
        self.entry(region).map(|s| &s.service)
    }

    /// The shared context of `region`'s shard, if registered.
    pub fn context(&self, region: RegionId) -> Option<&Arc<ServiceContext>> {
        self.entry(region).map(|s| &s.ctx)
    }

    /// `region`'s own metrics snapshot — the per-shard view the merged
    /// [`QueryService::metrics`] is built from.
    pub fn shard_metrics(&self, region: RegionId) -> Option<MetricsSnapshot> {
        self.entry(region).map(|s| s.service.metrics())
    }

    /// Requests answered [`QueryError::UnknownRegion`] at the front door.
    pub fn misrouted(&self) -> u64 {
        self.misrouted.load(Ordering::Relaxed)
    }

    /// Publishes a weight-update batch to one region's epoch stream —
    /// shard-local by construction: no other shard's epoch ring, cache
    /// validity or repair path observes it. `None` if `region` is not
    /// registered.
    pub fn publish_weights_to(&self, region: RegionId, deltas: &[WeightDelta]) -> Option<EpochId> {
        self.entry(region).map(|s| s.ctx.publish_weights(deltas))
    }

    /// A [`QueryService`] view of one region: every submission is stamped
    /// with `region` before entering the router, and metrics/publishes are
    /// shard-local. `None` if `region` is not registered.
    pub fn region_service(&self, region: RegionId) -> Option<RegionService<'_>> {
        self.entry(region)?;
        Some(RegionService { router: self, region })
    }

    /// Legacy vertex-space routing for region-less requests: the owning
    /// region is a pure function of the start vertex and the registry
    /// shape. Shards whose vertex-id space contains the start are
    /// *eligible*; the start id picks one of them deterministically. No
    /// eligible shard ⇒ the default shard (region 0), whose own
    /// validation then answers `UnknownStart` — the same error a
    /// single-shard deployment gives.
    pub fn route_start(&self, start: VertexId) -> RegionId {
        let eligible: Vec<&Shard> = self
            .shards
            .iter()
            .filter(|s| (start.0 as usize) < s.ctx.graph().num_vertices())
            .collect();
        match eligible.len() {
            0 => self.shards[0].id,
            n => eligible[start.0 as usize % n].id,
        }
    }

    /// The region a request resolves to: its explicit address, or
    /// [`route_start`](Router::route_start) for region-less requests.
    /// `Err` when the explicit address is not registered.
    pub fn resolve(&self, request: &QueryRequest) -> Result<RegionId, QueryError> {
        match request.options.region {
            Some(region) => match self.entry(region) {
                Some(shard) => Ok(shard.id),
                None => Err(QueryError::UnknownRegion(region.0)),
            },
            None => Ok(self.route_start(request.query.start)),
        }
    }

    fn entry(&self, region: RegionId) -> Option<&Shard> {
        // Ids are dense and registration-ordered, so the address is the
        // index; the equality check keeps this honest.
        self.shards.get(region.0 as usize).filter(|s| s.id == region)
    }

    fn dispatch(&self, request: QueryRequest) -> Result<(&Shard, QueryRequest), QueryError> {
        let region = self.resolve(&request)?;
        let shard = self.entry(region).expect("resolve returned a registered region");
        let mut request = request;
        request.options.region = Some(region);
        Ok((shard, request))
    }
}

impl QueryService for Router {
    /// Hands the request and its reply to the owning shard. A request
    /// addressed to a region nobody serves is answered
    /// [`QueryError::UnknownRegion`] here and counted as misrouted.
    fn submit_to(&self, request: QueryRequest, reply: Reply) {
        match self.dispatch(request) {
            Ok((shard, request)) => shard.service.submit_to(request, reply),
            Err(err) => {
                self.misrouted.fetch_add(1, Ordering::Relaxed);
                reply.answer(Err(err));
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

    /// Region-less publishes go to the default shard (region 0) — the
    /// single-shard legacy contract. Multi-tenant publishers address a
    /// region with [`Router::publish_weights_to`].
    fn publish_weights(&self, deltas: &[WeightDelta]) -> Result<EpochId, DeltaError> {
        self.shards[0].ctx.try_publish_weights(deltas)
    }

    /// Drains and stops every shard (in registration order) and returns
    /// the merged final metrics. Idempotent, like each shard's own
    /// shutdown.
    fn shutdown(&self) -> MetricsSnapshot {
        let mut merged: Option<MetricsSnapshot> = None;
        for shard in &self.shards {
            let snapshot = shard.service.shutdown();
            match &mut merged {
                Some(m) => m.merge(&snapshot),
                None => merged = Some(snapshot),
            }
        }
        merged.expect("a Router has at least one shard")
    }

    fn regions(&self) -> Vec<RegionInfo> {
        self.shards
            .iter()
            .map(|s| RegionInfo {
                id: s.id,
                name: s.name.clone(),
                fingerprint: DatasetFingerprint::of(&s.ctx),
            })
            .collect()
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
    /// The fixed region every submission is stamped with.
    pub fn region(&self) -> RegionId {
        self.region
    }

    fn stamp(&self, mut request: QueryRequest) -> QueryRequest {
        request.options.region = Some(self.region);
        request
    }

    fn shard(&self) -> &Shard {
        self.router.entry(self.region).expect("RegionService regions are registered")
    }
}

impl QueryService for RegionService<'_> {
    fn submit_to(&self, request: QueryRequest, reply: Reply) {
        self.router.submit_to(self.stamp(request), reply);
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.shard().service.metrics()
    }

    fn publish_weights(&self, deltas: &[WeightDelta]) -> Result<EpochId, DeltaError> {
        self.shard().ctx.try_publish_weights(deltas)
    }

    fn shutdown(&self) -> MetricsSnapshot {
        self.shard().service.shutdown()
    }

    fn regions(&self) -> Vec<RegionInfo> {
        let shard = self.shard();
        vec![RegionInfo {
            id: shard.id,
            name: shard.name.clone(),
            fingerprint: DatasetFingerprint::of(&shard.ctx),
        }]
    }
}
