//! The reuse planner: serving policy as data.
//!
//! # Planned, then executed
//!
//! [`ReusePlanner::plan`] probes the cache (through the unified
//! [`probe_entry`](crate::cache::ResultCache::probe_entry)) and names the
//! one rung of the ladder
//!
//! ```text
//! ExactHit → Repair → ColdSearch
//! ```
//!
//! that answers a request, with its raw material resolved eagerly (the
//! hit's routes, the repair source with its memo plus the epoch pair's
//! shared [`DeltaSet`]). The service plans each request once where it arrives:
//! a hit is answered there, and the plan's rung is the cost band
//! everything else queues in ([`CostClass`]). A worker plans again after
//! it leads the request's flight, and executes that plan *mechanically*
//! — no reuse decision is made at execution time. Coalescing is not a
//! rung: it is the flight the service parks duplicates on, before any
//! plan runs. Plans are unit-testable without spawning a worker pool, and
//! the executed [`Served`](crate::metrics::Served) outcome is the single
//! source of truth for both the response and the metrics.
//!
//! A search seeds its own threshold: NNinit
//! ([`nninit`](skysr_core::bssr::nninit)) finds a finite one at every
//! position, ancestor categories included, so no cached skyline of a
//! related query is probed for seeds.
//!
//! Lazy invalidation of stale entries is part of planning (policy), not
//! probing: it happens here, deliberately, only when no repair path
//! exists. With repair on, a stale entry whose epoch has left the
//! retention ring has no delta to repair against: the request searches,
//! and its insert replaces the entry.

use std::sync::Arc;

use skysr_core::bssr::repair::RepairMemo;
use skysr_core::bssr::BssrConfig;
use skysr_core::query::SkySrQuery;
use skysr_core::route::SkylineRoute;
use skysr_graph::{DeltaSet, EpochId};

use crate::cache::{QueryKey, ResultCache};
use crate::context::ServiceContext;
use crate::service::ServiceConfig;

/// The cost band a queued request waits in: the rung its plan named when
/// it arrived.
///
/// The scheduler ([`ScheduledQueue`](crate::pool::ScheduledQueue)) serves
/// repairs ahead of searches, and the admission gate keeps one
/// service-time estimate per class to decide whether a deadline is still
/// meetable. Hits have no class: they are answered where they arrive and
/// never queue. The class is a *prediction* — the worker or waiting
/// caller that takes the job plans again, and a prediction gone stale
/// (entry evicted, flight completed, epoch moved) costs only scheduling
/// precision, never correctness.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CostClass {
    /// Planned to repair a stale entry against the epoch delta: bounded,
    /// far below a search.
    Repair,
    /// Planned to run a search: the expensive band.
    Search,
}

impl CostClass {
    /// Every class, in band order (cheapest first).
    pub const ALL: [CostClass; 2] = [CostClass::Repair, CostClass::Search];

    /// The class's scheduling band and its slot in per-class arrays (same
    /// order as [`ALL`](Self::ALL)).
    pub fn index(self) -> usize {
        self as usize
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

/// The rung that answers one request, carrying its resolved raw material.
#[derive(Clone, Debug)]
pub enum PlanStep {
    /// A cache entry answers the request outright. Carries the entry's
    /// epoch stamp verbatim so the executor can independently re-check it
    /// against the request's pinned epoch — the stale-serve tripwire.
    ExactHit(EpochId, Arc<[SkylineRoute]>),
    /// Repair this stale skyline against the epoch pair's delta.
    Repair {
        /// The stale cached skyline (left resident in the cache).
        cached: Arc<[SkylineRoute]>,
        /// What the repair that produced `cached` proved, if one did.
        memo: Option<Arc<RepairMemo>>,
        /// The exact delta from the entry's epoch to the request's, shared
        /// across all stale keys of the pair.
        delta: Arc<DeltaSet>,
    },
    /// Run the search cold.
    ColdSearch,
}

/// Plans requests. Pure policy: owns no threads, no queues — planning is
/// directly unit-testable.
#[derive(Clone, Copy, Debug)]
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

    /// Plans the serving of `query` pinned to `epoch`: the one rung that
    /// answers it.
    ///
    /// Probes the cache through [`probe_entry`](ResultCache::probe_entry)
    /// and resolves the rung's raw material eagerly, lazily invalidating
    /// a stale entry when no repair path exists for it. `key` must be this
    /// planner's [`key_of`](Self::key_of) for the same query.
    pub fn plan(
        &self,
        query: &SkySrQuery,
        key: Option<&QueryKey>,
        epoch: EpochId,
        cache: &ResultCache,
        ctx: &ServiceContext,
    ) -> PlanStep {
        debug_assert!(
            key.is_none_or(|k| *k == QueryKey::canonicalize(query, self.engine)),
            "the key of another query"
        );
        if !self.strategies.caching {
            return PlanStep::ColdSearch;
        }
        let key = key.expect("caching implies a key");
        match cache.probe_entry(key, epoch) {
            Some((e, routes, _)) if e == epoch => PlanStep::ExactHit(e, routes),
            // A stale same-key entry is repair raw material when the epoch
            // pair's exact delta is still derivable; otherwise it is
            // lazily invalidated (repair off) or left to be overwritten by
            // the fresh insert (repair on, delta compacted away).
            Some((e, cached, memo)) if self.strategies.repair => match ctx.delta_index(e, epoch) {
                Some(delta) => PlanStep::Repair { cached, memo, delta },
                None => PlanStep::ColdSearch,
            },
            Some(_) => {
                cache.discard_older(key, epoch);
                PlanStep::ColdSearch
            }
            None => PlanStep::ColdSearch,
        }
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
    fn cold_cache_plans_a_cold_search() {
        let (ex, ctx, cache) = harness();
        let planner = ReusePlanner::new(all_on(), BssrConfig::default());
        let q = ex.query();
        // The query's prefix is cached: no rung reads another query's
        // entry.
        let prefix_q = SkySrQuery::with_positions(q.start, q.sequence[..2].to_vec());
        fill(&ctx, &cache, &planner, &prefix_q, EpochId::BASE);
        let key = planner.key_of(&q);
        let plan = planner.plan(&q, key.as_ref(), EpochId::BASE, &cache, &ctx);
        assert!(matches!(plan, PlanStep::ColdSearch), "{plan:?}");
    }

    #[test]
    fn resident_entry_plans_an_exact_hit() {
        let (ex, ctx, cache) = harness();
        let planner = ReusePlanner::new(all_on(), BssrConfig::default());
        let q = ex.query();
        fill(&ctx, &cache, &planner, &q, EpochId::BASE);
        let key = planner.key_of(&q);
        let plan = planner.plan(&q, key.as_ref(), EpochId::BASE, &cache, &ctx);
        let PlanStep::ExactHit(stamp, routes) = plan else {
            panic!("a resident entry at the epoch must plan a hit: {plan:?}");
        };
        assert_eq!(stamp, EpochId::BASE);
        assert_eq!(routes.len(), 2);
    }

    #[test]
    fn toggled_off_strategies_never_appear_in_plans() {
        let (ex, ctx, cache) = harness();
        let q = ex.query();
        let engine = BssrConfig::default();
        let planner = ReusePlanner::new(all_on(), engine);
        let key = planner.key_of(&q);
        fill(&ctx, &cache, &planner, &q, EpochId::BASE);
        // A request masked to no caching searches past a resident answer.
        let masked = planner.masked(ReuseStrategies { caching: false, ..all_on() });
        let plan = masked.plan(&q, None, EpochId::BASE, &cache, &ctx);
        assert!(matches!(plan, PlanStep::ColdSearch), "{plan:?}");
        assert!(matches!(
            planner.plan(&q, key.as_ref(), EpochId::BASE, &cache, &ctx),
            PlanStep::ExactHit(..)
        ));
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
        let PlanStep::Repair { cached, delta, .. } = plan else {
            panic!("stale entry with repair on must plan a repair: {plan:?}");
        };
        assert!(!cached.is_empty());
        assert_eq!((delta.from_epoch(), delta.to_epoch()), (EpochId::BASE, e1));
        assert_eq!(cache.counters().invalidations, 0, "the repair source stays resident");
        assert_eq!(cache.counters().len, 1);

        // Repair off: the same stale entry is lazily invalidated instead,
        // and a cold search is all that remains.
        let without = ReusePlanner::new(all_on(), engine);
        let plan = without.plan(&q, key.as_ref(), e1, &cache, &ctx);
        assert!(matches!(plan, PlanStep::ColdSearch), "{plan:?}");
        assert_eq!(cache.counters().invalidations, 1);
        assert_eq!(cache.counters().len, 0);
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
        assert!(matches!(plan, PlanStep::ColdSearch));
        // Coalesce-only (cache off): a key exists for the flight, and the
        // plan reads no cache.
        let co = ReusePlanner::new(
            ReuseStrategies { coalesce: true, ..ReuseStrategies::none() },
            engine,
        );
        let key = co.key_of(&q);
        assert!(key.is_some());
        let plan = co.plan(&q, key.as_ref(), EpochId::BASE, &cache, &ctx);
        assert!(matches!(plan, PlanStep::ColdSearch));
    }
}
