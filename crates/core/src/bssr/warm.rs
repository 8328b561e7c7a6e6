//! Warm start from full-length seed routes.
//!
//! Repair's fallback (see [`repair`](super::repair)) re-searches a query
//! whose cached skyline an epoch delta may have touched, seeding the search
//! with the cached routes at lengths some walk achieves at the new epoch.
//! Seeding those routes into the skyline set *before* the branch-and-bound
//! search starts tightens the pruning thresholds of Definition 5.4 — the
//! mechanism NNinit (§5.3.1) uses.
//!
//! Correctness is inherited from the NNinit argument (Lemma 5.1/5.3): the
//! threshold only ever prunes routes that some inserted *valid* route
//! dominates, so any set of valid seed routes keeps the search exact. Each
//! seed is checked against the query's positions and rescored under them.

use crate::context::QueryContext;
use crate::dominance::SkylineSet;
use crate::prepared::PreparedQuery;
use crate::route::SkylineRoute;
use crate::stats::QueryStats;

/// Inserts every valid full-length route of `seeds` into `skyline`.
/// Returns the number of seeds that entered the set (also recorded as
/// [`QueryStats::warm_seed_routes`]).
///
/// Each seed's semantic score is recomputed from `pq`'s own positions (not
/// taken from the seed route), so any same-start skyline whose PoIs match
/// the corresponding positions produces a correctly scored seed; routes
/// whose shape does not fit (wrong length, a PoI that does not match its
/// position, duplicated PoIs) are skipped, so a stale or foreign skyline
/// degrades to a cold start.
///
/// **Precondition:** every seed route's `length` must be achieved by some
/// walk from `pq.start` through its PoIs in order *at this context's
/// weight epoch*. An understated length would over-tighten the pruning
/// threshold and break exactness. The length need not be the shortest
/// such length: every route an overstated seed prunes, the shortest
/// realisation of its PoIs dominates-or-equals too, and the search finds
/// that realisation, or a route that dominates-or-equals it, which evicts
/// the seed; so no overstated seed is returned. Neither condition can be
/// validated cheaply here. Repair seeds each route at the length its legs
/// measured at the new epoch, or at its cached length when its stored
/// path avoids every reweighted arc; its tier-3 docs argue the same for
/// its restricted re-search, which keeps only some routes.
pub fn seed_full_routes(
    ctx: &QueryContext<'_>,
    pq: &PreparedQuery,
    seeds: &[SkylineRoute],
    skyline: &mut SkylineSet,
    stats: &mut QueryStats,
) -> usize {
    let mut seeded = 0;
    for route in seeds.iter().filter(|r| valid_full_seed(ctx, pq, r)) {
        let sim_acc: f64 =
            route.pois.iter().enumerate().map(|(i, &p)| pq.positions[i].sim_of(ctx, p)).product();
        if skyline.update(SkylineRoute {
            pois: route.pois.clone(),
            length: route.length,
            semantic: 1.0 - sim_acc,
        }) {
            seeded += 1;
        }
    }
    stats.warm_seed_routes = seeded;
    seeded
}

/// Whether `route` is a structurally valid full-length (k PoIs, distinct,
/// every PoI matching its position) sequenced route for `pq`.
fn valid_full_seed(ctx: &QueryContext<'_>, pq: &PreparedQuery, route: &SkylineRoute) -> bool {
    if route.pois.len() != pq.len() {
        return false;
    }
    for (i, &p) in route.pois.iter().enumerate() {
        if pq.positions[i].sim_of(ctx, p) <= 0.0 {
            return false;
        }
        // Definition 3.4(iii): PoI vertices must be distinct.
        if route.pois[..i].contains(&p) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bssr::Bssr;
    use crate::paper_example::PaperExample;
    use crate::query::SkySrQuery;
    use skysr_graph::{Cost, VertexId};

    #[test]
    fn full_length_seeds_are_validated_and_rescored() {
        let ex = PaperExample::new();
        let ctx = ex.context();
        let full = ex.query();
        // The skyline of the query with its first position widened to the
        // parent category: full-length routes from the same start whose
        // semantic scores are those of the parent query.
        let c0 = match full.sequence[0] {
            crate::query::PositionSpec::Category(c) => c,
            _ => unreachable!("the paper query uses plain categories"),
        };
        let mut widened = full.sequence.clone();
        widened[0] = ex.forest.parent(c0).expect("a leaf has a parent").into();
        let parent = Bssr::new(&ctx).run(&SkySrQuery::with_positions(full.start, widened));
        let parent = parent.unwrap().routes;
        assert!(!parent.is_empty());

        let pq = crate::prepared::PreparedQuery::prepare(&ctx, &full).unwrap();
        let mut skyline = SkylineSet::new();
        let mut stats = QueryStats::default();
        let n = seed_full_routes(&ctx, &pq, &parent, &mut skyline, &mut stats);
        assert_eq!(stats.warm_seed_routes, n);
        let truth = Bssr::new(&ctx).run(&full).unwrap().routes;
        for r in skyline.routes() {
            // Rescored under the child query's own positions.
            let sim: f64 =
                r.pois.iter().enumerate().map(|(i, &p)| pq.positions[i].sim_of(&ctx, p)).product();
            assert_eq!(r.semantic, 1.0 - sim);
            assert!(
                truth.iter().any(|t| !r.dominates(t)),
                "a seed cannot dominate the exact skyline"
            );
        }
    }

    #[test]
    fn malformed_prefixes_are_skipped() {
        // Routes that are not full-length routes of the query — a
        // (k−1)-prefix skyline's among them — never seed.
        let ex = PaperExample::new();
        let full = ex.query();
        let ctx = ex.context();
        let pq = crate::prepared::PreparedQuery::prepare(&ctx, &full).unwrap();
        let mut skyline = SkylineSet::new();
        let mut stats = QueryStats::default();
        let bad = vec![
            // Too short.
            SkylineRoute { pois: vec![ex.p(2)], length: Cost::new(1.0), semantic: 0.0 },
            SkylineRoute { pois: vec![ex.p(2), ex.p(5)], length: Cost::new(1.0), semantic: 0.0 },
            // Full length, but vertex 0 is not a PoI at all.
            SkylineRoute {
                pois: vec![VertexId(0), ex.p(5), ex.p(7)],
                length: Cost::new(1.0),
                semantic: 0.0,
            },
            // Full length, but a PoI repeats.
            SkylineRoute {
                pois: vec![ex.p(2), ex.p(5), ex.p(5)],
                length: Cost::new(1.0),
                semantic: 0.0,
            },
        ];
        let n = seed_full_routes(&ctx, &pq, &bad, &mut skyline, &mut stats);
        assert_eq!(n, 0);
        assert!(skyline.is_empty());
    }
}
