//! The reuse planner: serving policy as data.
//!
//! For each dequeued job the [`ReusePlanner`] probes the cache (through
//! the unified [`probe`](crate::cache::ResultCache::probe)) and emits an
//! ordered [`ReusePlan`] over the rung ladder
//!
//! ```text
//! ExactHit → Coalesce → Repair → ColdSearch
//! ```
//!
//! which the worker loop then executes *mechanically* — no reuse decision
//! is made at execution time. Plans resolve their raw material eagerly
//! (the hit's routes, the repair source plus its shared [`DeltaIndex`]),
//! so plan construction is unit-testable without spawning a worker pool,
//! and the executed [`Served`](crate::metrics::Served) outcome is the
//! single source of truth for both the response and the metrics.
//!
//! A search seeds its own threshold: NNinit
//! ([`nninit`](skysr_core::bssr::nninit)) finds a finite one at every
//! position, ancestor categories included, so no cached skyline of a
//! related query is probed for seeds.
//!
//! Lazy invalidation of stale entries is part of planning (policy), not
//! probing: it happens here, deliberately, only when no repair path
//! exists.

use std::sync::Arc;

use skysr_core::bssr::BssrConfig;
use skysr_core::query::SkySrQuery;
use skysr_core::route::SkylineRoute;
use skysr_graph::{DeltaIndex, EpochId};

use crate::cache::{QueryKey, ResultCache};
use crate::context::ServiceContext;
use crate::service::ServiceConfig;

/// The admission-time cost estimate for a request: which band of the rung
/// ladder its plan will land on, resolved *cheaply* (one cache probe)
/// before the request is queued.
///
/// The scheduler ([`ScheduledQueue`](crate::pool::ScheduledQueue)) maps
/// classes to bands so cheap rungs overtake expensive ones, and the
/// admission gate uses the class to pick a per-class service-time estimate
/// when deciding whether a deadline is still meetable. Classification is a
/// *prediction* — the authoritative plan is re-resolved at dequeue, and a
/// prediction gone stale (entry evicted, flight completed, epoch moved)
/// costs only scheduling precision, never correctness.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CostClass {
    /// Expected to serve from cache or join an in-flight duplicate:
    /// microseconds of work.
    Hit,
    /// Expected to repair a stale entry against the epoch delta: bounded,
    /// far below a search.
    Repair,
    /// Expected to run a search: the expensive band.
    Search,
}

impl CostClass {
    /// The scheduling band this class maps to (0 = cheapest).
    pub fn band(self) -> u8 {
        match self {
            CostClass::Hit => 0,
            CostClass::Repair => 1,
            CostClass::Search => 2,
        }
    }

    /// Every class, in band order — for iterating cost-model slots.
    pub const ALL: [CostClass; 3] = [CostClass::Hit, CostClass::Repair, CostClass::Search];

    /// Slot index into per-class arrays (same order as [`ALL`](Self::ALL)).
    pub fn index(self) -> usize {
        self.band() as usize
    }
}

/// The reuse switches a service resolved at spawn time. Everything that
/// reads the cache is implied off without one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReuseStrategies {
    /// The result cache is consulted and filled.
    pub caching: bool,
    /// Concurrent duplicates coalesce onto one in-flight search.
    pub coalesce: bool,
    /// Incremental repair of stale entries across epochs.
    pub repair: bool,
}

impl ReuseStrategies {
    /// Resolves a [`ServiceConfig`]'s reuse switches: capacity 0 disables
    /// caching, and every cache-reading strategy with it.
    pub fn resolve(config: &ServiceConfig) -> ReuseStrategies {
        let caching = config.cache_capacity > 0;
        ReuseStrategies { caching, coalesce: config.coalesce, repair: config.repair && caching }
    }

    /// Everything off (the cold-search oracle configuration).
    pub fn none() -> ReuseStrategies {
        ReuseStrategies { caching: false, coalesce: false, repair: false }
    }

    /// The switch-wise AND of two strategy sets — how a per-request
    /// override mask ([`crate::RequestOptions::reuse`]) *restricts* the
    /// service-level strategies: a request can turn rungs off but never
    /// widen beyond what the service resolved. ANDing preserves the
    /// resolve-time implications (anything cache-reading stays off when
    /// caching is off) because AND can only clear switches.
    pub fn intersect(self, mask: ReuseStrategies) -> ReuseStrategies {
        ReuseStrategies {
            caching: self.caching && mask.caching,
            coalesce: self.coalesce && mask.coalesce,
            repair: self.repair && mask.repair,
        }
    }
}

/// One rung of a [`ReusePlan`], carrying its resolved raw material.
#[derive(Clone, Debug)]
pub enum PlanStep {
    /// A cache entry answers the request outright. Carries the entry's
    /// epoch stamp verbatim so the executor can independently re-check it
    /// against the request's pinned epoch — the stale-serve tripwire.
    ExactHit(EpochId, Arc<[SkylineRoute]>),
    /// Join (or lead) the in-flight computation for this (key, epoch).
    Coalesce,
    /// Repair this stale skyline against the epoch pair's shared
    /// touched-ball index and promote it in place. Terminal.
    Repair {
        /// The stale cached skyline (left resident in the cache).
        cached: Arc<[SkylineRoute]>,
        /// The per-epoch-pair index, shared across all stale keys of the
        /// pair.
        index: Arc<DeltaIndex>,
    },
    /// Run the search cold. Terminal.
    ColdSearch,
}

/// An ordered, fully resolved serving plan for one request: zero or one
/// `Coalesce` rung followed by exactly one terminal rung — or a lone
/// `ExactHit`.
#[derive(Clone, Debug)]
pub struct ReusePlan {
    /// The rungs, in execution order.
    pub steps: Vec<PlanStep>,
}

impl ReusePlan {
    /// The plan's terminal rung.
    pub fn terminal(&self) -> &PlanStep {
        self.steps.last().expect("plans are never empty")
    }

    /// Whether the plan serves straight from the cache.
    pub fn is_exact_hit(&self) -> bool {
        matches!(self.steps.first(), Some(PlanStep::ExactHit(..)))
    }

    /// Whether the plan passes through the coalescing rung.
    pub fn coalesces(&self) -> bool {
        self.steps.iter().any(|s| matches!(s, PlanStep::Coalesce))
    }
}

/// Builds [`ReusePlan`]s for dequeued jobs. Pure policy: owns no threads,
/// no queues — construction is directly unit-testable.
#[derive(Clone, Debug)]
pub struct ReusePlanner {
    strategies: ReuseStrategies,
    engine: BssrConfig,
}

impl ReusePlanner {
    /// Planner for the given strategy set and engine configuration (the
    /// engine configuration is part of every cache key).
    pub fn new(strategies: ReuseStrategies, engine: BssrConfig) -> ReusePlanner {
        ReusePlanner { strategies, engine }
    }

    /// The resolved strategy switches.
    pub fn strategies(&self) -> &ReuseStrategies {
        &self.strategies
    }

    /// The engine configuration every plan (and cache key) is built for —
    /// the single source of truth the worker's engines must share.
    pub fn engine(&self) -> BssrConfig {
        self.engine
    }

    /// This planner with its strategies restricted by a per-request mask
    /// (see [`ReuseStrategies::intersect`]); the engine configuration —
    /// and with it the cache-key space — is unchanged.
    pub fn masked(&self, mask: ReuseStrategies) -> ReusePlanner {
        ReusePlanner::new(self.strategies.intersect(mask), self.engine)
    }

    /// The canonical cache key for `query`, when any keyed machinery
    /// (caching or coalescing) is on.
    pub fn key_of(&self, query: &SkySrQuery) -> Option<QueryKey> {
        (self.strategies.caching || self.strategies.coalesce)
            .then(|| QueryKey::canonicalize(query, self.engine))
    }

    /// Plans the serving of `query` pinned to `epoch`.
    ///
    /// Probes the cache through [`probe`](ResultCache::probe) and
    /// resolves every rung's raw material eagerly, lazily invalidating a
    /// stale entry when no repair path exists for it. `key` must be this
    /// planner's [`key_of`](Self::key_of) for the same query.
    pub fn plan(
        &self,
        query: &SkySrQuery,
        key: Option<&QueryKey>,
        epoch: EpochId,
        cache: &ResultCache,
        ctx: &ServiceContext,
    ) -> ReusePlan {
        debug_assert!(
            key.is_none_or(|k| *k == QueryKey::canonicalize(query, self.engine)),
            "the key of another query"
        );
        let st = &self.strategies;
        let mut steps = Vec::with_capacity(2);

        // Rung 1: exact hit.
        let mut stale: Option<(EpochId, Arc<[SkylineRoute]>)> = None;
        if st.caching {
            let key = key.expect("caching implies a key");
            match cache.probe(key, epoch) {
                Some((e, routes)) if e == epoch => {
                    steps.push(PlanStep::ExactHit(e, routes));
                    return ReusePlan { steps };
                }
                found => stale = found,
            }
        }

        // Rung 2: coalescing (the executor joins or leads the flight).
        if st.coalesce {
            steps.push(PlanStep::Coalesce);
        }

        // Rung 3: repair. A stale same-key entry is carried into the plan
        // as repair raw material when the epoch pair's exact delta is
        // still derivable; otherwise it is lazily invalidated (repair
        // off) or left to be overwritten by the fresh insert (repair on,
        // delta compacted away).
        if let Some((entry_epoch, routes)) = stale {
            if st.repair {
                if let Some(index) = ctx.delta_index(entry_epoch, epoch) {
                    steps.push(PlanStep::Repair { cached: routes, index });
                    return ReusePlan { steps };
                }
            } else {
                cache.discard_older(key.expect("caching implies a key"), epoch);
            }
        }

        // Rung 4: cold search.
        steps.push(PlanStep::ColdSearch);
        ReusePlan { steps }
    }

    /// Cheaply classifies `query`'s expected serving cost at admission
    /// time — the scheduler's cost model.
    ///
    /// Unlike [`plan`](Self::plan) this does **no lazy invalidation**: it
    /// reads the cache through [`probe`](ResultCache::probe) once and
    /// inspects the delta index. The later authoritative `plan` call
    /// repeats the probe; the only side effect of probing twice is an
    /// extra LRU recency promotion of the same entry, which is benign.
    pub fn classify(
        &self,
        key: Option<&QueryKey>,
        epoch: EpochId,
        cache: &ResultCache,
        ctx: &ServiceContext,
    ) -> CostClass {
        let st = &self.strategies;
        if st.caching {
            let key = key.expect("caching implies a key");
            match cache.probe(key, epoch) {
                Some((e, _)) if e == epoch => return CostClass::Hit,
                Some((e, _)) if st.repair && ctx.delta_index(e, epoch).is_some() => {
                    return CostClass::Repair;
                }
                _ => {}
            }
        }
        CostClass::Search
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skysr_core::bssr::Bssr;
    use skysr_core::paper_example::PaperExample;
    use skysr_graph::WeightDelta;

    fn harness() -> (PaperExample, Arc<ServiceContext>, ResultCache) {
        let ex = PaperExample::new();
        let ctx =
            Arc::new(ServiceContext::new(ex.graph.clone(), ex.forest.clone(), ex.pois.clone()));
        (ex, ctx, ResultCache::new(64))
    }

    fn all_on() -> ReuseStrategies {
        ReuseStrategies { caching: true, coalesce: true, repair: false }
    }

    /// Runs `query` cold and inserts its skyline under its key at `epoch`.
    fn fill(
        ctx: &ServiceContext,
        cache: &ResultCache,
        planner: &ReusePlanner,
        query: &SkySrQuery,
        epoch: EpochId,
    ) {
        let pinned = ctx.pin_at(epoch).expect("epoch is pinnable");
        let qctx = pinned.query_context();
        let routes = Bssr::new(&qctx).run(query).unwrap().routes;
        cache.insert(planner.key_of(query).unwrap(), epoch, routes.into());
    }

    #[test]
    fn cold_cache_plans_coalesce_then_cold_search() {
        let (ex, ctx, cache) = harness();
        let planner = ReusePlanner::new(all_on(), BssrConfig::default());
        let q = ex.query();
        // The query's prefix is cached: no rung reads another query's
        // entry.
        let prefix_q = SkySrQuery::with_positions(q.start, q.sequence[..2].to_vec());
        fill(&ctx, &cache, &planner, &prefix_q, EpochId::BASE);
        let key = planner.key_of(&q);
        let plan = planner.plan(&q, key.as_ref(), EpochId::BASE, &cache, &ctx);
        assert!(!plan.is_exact_hit());
        assert!(plan.coalesces());
        assert!(matches!(plan.terminal(), PlanStep::ColdSearch), "{plan:?}");
        assert_eq!(plan.steps.len(), 2);
    }

    #[test]
    fn resident_entry_plans_an_exact_hit() {
        let (ex, ctx, cache) = harness();
        let planner = ReusePlanner::new(all_on(), BssrConfig::default());
        let q = ex.query();
        fill(&ctx, &cache, &planner, &q, EpochId::BASE);
        let key = planner.key_of(&q);
        let plan = planner.plan(&q, key.as_ref(), EpochId::BASE, &cache, &ctx);
        assert!(plan.is_exact_hit());
        assert!(!plan.coalesces(), "a hit never reaches the coalescing rung");
        assert_eq!(plan.steps.len(), 1);
    }

    #[test]
    fn toggled_off_strategies_never_appear_in_plans() {
        let (ex, ctx, cache) = harness();
        let q = ex.query();
        let engine = BssrConfig::default();
        let key = ReusePlanner::new(all_on(), engine).key_of(&q);
        let no_coalesce =
            ReusePlanner::new(ReuseStrategies { coalesce: false, ..all_on() }, engine);
        let plan = no_coalesce.plan(&q, key.as_ref(), EpochId::BASE, &cache, &ctx);
        assert!(!plan.coalesces());
        assert!(matches!(plan.terminal(), PlanStep::ColdSearch), "{plan:?}");
        // A mask clears switches and never sets them.
        let masked = ReusePlanner::new(all_on(), engine).masked(ReuseStrategies::none());
        assert_eq!(*masked.strategies(), ReuseStrategies::none());
        let widened = ReusePlanner::new(ReuseStrategies::none(), engine).masked(all_on());
        assert_eq!(*widened.strategies(), ReuseStrategies::none());
    }

    #[test]
    fn stale_entries_plan_repair_when_on_and_invalidate_when_off() {
        let (ex, ctx, cache) = harness();
        let engine = BssrConfig::default();
        let q = ex.query();
        let with_repair = ReusePlanner::new(ReuseStrategies { repair: true, ..all_on() }, engine);
        let key = with_repair.key_of(&q);
        fill(&ctx, &cache, &with_repair, &q, EpochId::BASE);
        let (from, to, w) = ctx.graph().arc(0);
        let e1 = ctx.publish_weights(&[WeightDelta::new(from, to, w.get() * 2.0)]);

        let plan = with_repair.plan(&q, key.as_ref(), e1, &cache, &ctx);
        assert!(plan.coalesces());
        let PlanStep::Repair { cached, index } = plan.terminal() else {
            panic!("stale entry with repair on must plan a repair: {plan:?}");
        };
        assert!(!cached.is_empty());
        assert_eq!(index.delta().from_epoch(), EpochId::BASE);
        assert_eq!(index.delta().to_epoch(), e1);
        assert_eq!(cache.counters().invalidations, 0, "the repair source stays resident");
        assert_eq!(cache.counters().len, 1);

        // Repair off: the same stale entry is lazily invalidated instead,
        // and a cold search is all that remains.
        let without = ReusePlanner::new(all_on(), engine);
        let plan = without.plan(&q, key.as_ref(), e1, &cache, &ctx);
        assert!(matches!(plan.terminal(), PlanStep::ColdSearch), "{plan:?}");
        assert_eq!(cache.counters().invalidations, 1);
        assert_eq!(cache.counters().len, 0);
    }

    #[test]
    fn classification_tracks_the_rung_ladder_without_accounting() {
        let (ex, ctx, cache) = harness();
        let engine = BssrConfig::default();
        let planner = ReusePlanner::new(ReuseStrategies { repair: true, ..all_on() }, engine);
        let q = ex.query();
        let key = planner.key_of(&q);

        // Empty cache → Search.
        assert_eq!(planner.classify(key.as_ref(), EpochId::BASE, &cache, &ctx), CostClass::Search);

        // Resident fresh entry → Hit.
        fill(&ctx, &cache, &planner, &q, EpochId::BASE);
        assert_eq!(planner.classify(key.as_ref(), EpochId::BASE, &cache, &ctx), CostClass::Hit);

        // Stale entry with a derivable delta → Repair (with repair on),
        // Search otherwise — and the stale entry is left untouched either
        // way: invalidation is plan()'s job, not classification's.
        let (from, to, w) = ctx.graph().arc(0);
        let e1 = ctx.publish_weights(&[WeightDelta::new(from, to, w.get() * 2.0)]);
        assert_eq!(planner.classify(key.as_ref(), e1, &cache, &ctx), CostClass::Repair);
        let no_repair = ReusePlanner::new(all_on(), engine);
        assert_eq!(no_repair.classify(key.as_ref(), e1, &cache, &ctx), CostClass::Search);
        assert_eq!(cache.counters().invalidations, 0);
        assert_eq!(cache.counters().len, 1);

        // Caching off → always Search, no key needed.
        let off = ReusePlanner::new(ReuseStrategies::none(), engine);
        assert_eq!(off.classify(None, EpochId::BASE, &cache, &ctx), CostClass::Search);

        // Band order is the scheduling contract.
        assert!(CostClass::Hit.band() < CostClass::Repair.band());
        assert!(CostClass::Repair.band() < CostClass::Search.band());
    }

    #[test]
    fn caching_disabled_plans_probe_nothing() {
        let (ex, ctx, cache) = harness();
        let engine = BssrConfig::default();
        let q = ex.query();
        // A resident answer a caching planner would serve as a hit.
        fill(&ctx, &cache, &ReusePlanner::new(all_on(), engine), &q, EpochId::BASE);
        let planner = ReusePlanner::new(ReuseStrategies::none(), engine);
        assert!(planner.key_of(&q).is_none(), "no keyed machinery, no key");
        let plan = planner.plan(&q, None, EpochId::BASE, &cache, &ctx);
        assert!(matches!(plan.terminal(), PlanStep::ColdSearch));
        assert_eq!(plan.steps.len(), 1);
        // Coalesce-only (cache off): a key exists, no cache rungs.
        let co = ReusePlanner::new(
            ReuseStrategies { coalesce: true, ..ReuseStrategies::none() },
            engine,
        );
        let key = co.key_of(&q);
        assert!(key.is_some());
        let plan = co.plan(&q, key.as_ref(), EpochId::BASE, &cache, &ctx);
        assert!(plan.coalesces());
        assert!(matches!(plan.terminal(), PlanStep::ColdSearch));
    }
}
