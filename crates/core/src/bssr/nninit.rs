//! NNinit — the nearest-neighbour initial search (Optimisation 1, §5.3.1,
//! Algorithm 3).
//!
//! Before the branch-and-bound search starts, the upper bound must be
//! initialised. NNinit greedily chains nearest-neighbour searches: from the
//! start it finds the closest PoI matching position 1 as well as any PoI
//! can, from there the closest such PoI for position 2, and so on. On the
//! final leg every *semantically* matching PoI settled before the leg's
//! stop also completes a sequenced route, so NNinit usually seeds the
//! skyline set with several routes, at the cost of |S_q| plain Dijkstra
//! searches.
//!
//! # Where a leg stops
//!
//! A leg stops at the nearest PoI whose similarity reaches the position's
//! [`best_sim`](crate::prepared::Position::best_sim): 1 when a perfect
//! match exists — the paper's chain, so whenever every position has a
//! perfect match the routes found (Table 7) are the paper's — and σ\*
//! otherwise. A position naming an internal category has no perfect match
//! when PoIs carry leaf categories; hunting for one would settle the whole
//! graph and leave the threshold infinite. A leg that settles no PoI
//! reaching `best_sim` (the best ones are unreachable or already on the
//! route) continues from the best-similarity PoI it did settle, so the
//! chain completes whenever any PoI of each position is reachable.
//!
//! Soundness is the paper's NNinit argument (Lemmas 5.1 and 5.3): every
//! inserted route is a genuine valid sequenced route, scored under the
//! query's own positions, so the skyline set only ever tightens the
//! pruning thresholds.

use std::time::Instant;

use skysr_graph::{dijkstra_with, Cost, DijkstraWorkspace, Settle, VertexId};

use crate::context::QueryContext;
use crate::dominance::SkylineSet;
use crate::prepared::PreparedQuery;
use crate::route::PartialRoute;
use crate::stats::QueryStats;

/// Outcome of the initial search.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct InitOutcome {
    /// Number of sequenced routes found (Table 7's "# of routes").
    pub routes_found: usize,
    /// Whether a perfectly matching route (semantic 0) was found.
    pub perfect_found: bool,
}

/// Runs NNinit, inserting found sequenced routes into `skyline`.
pub fn nninit(
    ctx: &QueryContext<'_>,
    pq: &PreparedQuery,
    ws: &mut DijkstraWorkspace,
    skyline: &mut SkylineSet,
    stats: &mut QueryStats,
) -> InitOutcome {
    let t0 = Instant::now();
    let k = pq.len();
    let mut route = PartialRoute::empty();
    let mut source = pq.start;
    let mut outcome = InitOutcome::default();
    let mut best_semantic_route: Option<(Cost, f64)> = None;

    for i in 0..k {
        let position = &pq.positions[i];
        let target = position.best_sim();
        let last_leg = i + 1 == k;
        // The most similar PoI settled so far, the nearest among equals:
        // the leg's stop once it reaches `target`.
        let mut best: Option<(VertexId, Cost, f64)> = None;
        let search_stats = dijkstra_with(ctx.graph, ws, &[(source, Cost::ZERO)], |u, d| {
            if !position.allow_revisit && route.contains(u) {
                return Settle::Continue;
            }
            let sim = position.sim_of(ctx, u);
            if sim <= 0.0 {
                return Settle::Continue;
            }
            if last_leg {
                let complete = route.extend(u, d, sim);
                outcome.routes_found += 1;
                let (len, sem) = (complete.length(), complete.semantic());
                if sem > 0.0 && best_semantic_route.is_none_or(|(_, bs)| sem > bs) {
                    best_semantic_route = Some((len, sem));
                }
                skyline.update(complete.into_skyline_route());
            }
            if best.is_none_or(|(.., b)| sim > b) {
                best = Some((u, d, sim));
            }
            // Anything settling later is longer and at best equally
            // similar.
            if sim >= target {
                Settle::Stop
            } else {
                Settle::Continue
            }
        });
        stats.search.merge(&search_stats);
        match best {
            Some((u, d, sim)) => {
                route = route.extend(u, d, sim);
                source = u;
            }
            // No PoI of this position is reachable from the chain: it
            // cannot continue. Routes already inserted (last leg) stay;
            // BSSR remains correct with whatever upper bound was found.
            None => break,
        }
    }

    // A full chain of perfect matches is the semantic-0 route.
    let perfect_route_len = (route.len() == k && route.sim_acc() >= 1.0).then(|| route.length());
    outcome.perfect_found = perfect_route_len.is_some();
    stats.init_routes = outcome.routes_found;
    stats.init_time = t0.elapsed();
    stats.init_length_ratio = match (best_semantic_route, perfect_route_len) {
        (Some((len, _)), Some(plen)) if plen.get() > 0.0 => Some(len.get() / plen.get()),
        _ => None,
    };
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example::PaperExample;
    use skysr_graph::VertexId;

    fn run_fixture() -> (SkylineSet, QueryStats, InitOutcome) {
        let ex = PaperExample::new();
        let ctx = ex.context();
        let pq = ex.prepared(&ctx);
        let mut ws = DijkstraWorkspace::new(ctx.graph.num_vertices());
        let mut skyline = SkylineSet::new();
        let mut stats = QueryStats::default();
        let outcome = nninit(&ctx, &pq, &mut ws, &mut skyline, &mut stats);
        (skyline, stats, outcome)
    }

    #[test]
    fn reproduces_example_5_6() {
        // NNinit must find exactly ⟨p2, p5, p7⟩ (12, 0.5) and
        // ⟨p2, p5, p8⟩ (15, 0) — the paper's Example 5.6.
        let (skyline, _, outcome) = run_fixture();
        assert!(outcome.perfect_found);
        assert_eq!(outcome.routes_found, 2);
        let mut routes = skyline.routes().to_vec();
        routes.sort_by_key(|a| a.length);
        assert_eq!(routes.len(), 2);
        assert_eq!(routes[0].pois, vec![VertexId(2), VertexId(5), VertexId(7)]);
        assert_eq!(routes[0].length, Cost::new(12.0));
        assert_eq!(routes[0].semantic, 0.5);
        assert_eq!(routes[1].pois, vec![VertexId(2), VertexId(5), VertexId(8)]);
        assert_eq!(routes[1].length, Cost::new(15.0));
        assert_eq!(routes[1].semantic, 0.0);
    }

    #[test]
    fn stats_recorded() {
        let (_, stats, _) = run_fixture();
        assert_eq!(stats.init_routes, 2);
        // Ratio: 12 / 15 = 0.8 — same regime as Table 7 (0.7–0.9).
        assert_eq!(stats.init_length_ratio, Some(0.8));
        assert!(stats.search.settled > 0);
    }

    #[test]
    fn single_position_query_collects_semantics() {
        let ex = PaperExample::new();
        let ctx = ex.context();
        let gift = ex.forest.by_name("Gift Shop").unwrap();
        let q = crate::query::SkySrQuery::new(ex.vq, [gift]);
        let pq = crate::prepared::PreparedQuery::prepare(&ctx, &q).unwrap();
        let mut ws = DijkstraWorkspace::new(ctx.graph.num_vertices());
        let mut skyline = SkylineSet::new();
        let mut stats = QueryStats::default();
        let outcome = nninit(&ctx, &pq, &mut ws, &mut skyline, &mut stats);
        assert!(outcome.perfect_found);
        // The nearest gift shop (p8 at 11) settles before any hobby shop,
        // so exactly one route is found and it is perfect.
        assert_eq!(outcome.routes_found, 1);
        assert!(skyline.routes().iter().any(|r| r.semantic == 0.0));
    }

    /// A line of 30 vertices joined by unit edges, v0 — v1 — … — v29
    /// (one-way left to right when `directed`), over the forest
    /// Food → {Asian, Italian}, Shop → {Gift}, with leaf PoIs `leaves`.
    struct Line {
        graph: skysr_graph::RoadNetwork,
        forest: skysr_category::CategoryForest,
        pois: crate::poi::PoiTable,
        food: skysr_category::CategoryId,
        asian: skysr_category::CategoryId,
        italian: skysr_category::CategoryId,
        gift: skysr_category::CategoryId,
    }

    fn line(directed: bool, leaves: &[(u32, &str)]) -> Line {
        use skysr_category::ForestBuilder;
        use skysr_graph::GraphBuilder;
        let mut fb = ForestBuilder::new();
        let food = fb.add_root("Food");
        let asian = fb.add_child(food, "Asian");
        let italian = fb.add_child(food, "Italian");
        let shop = fb.add_root("Shop");
        let gift = fb.add_child(shop, "Gift");
        let forest = fb.build();
        let mut gb = if directed { GraphBuilder::directed() } else { GraphBuilder::new() };
        let vs: Vec<VertexId> = (0..30).map(|_| gb.add_vertex()).collect();
        for w in vs.windows(2) {
            gb.add_edge(w[0], w[1], 1.0);
        }
        let graph = gb.build();
        let mut pois = crate::poi::PoiTable::new(graph.num_vertices());
        for &(v, name) in leaves {
            pois.add_poi(VertexId(v), forest.by_name(name).unwrap());
        }
        pois.finalize(&forest);
        Line { graph, forest, pois, food, asian, italian, gift }
    }

    fn run_on(
        city: &Line,
        start: u32,
        positions: Vec<crate::query::PositionSpec>,
    ) -> (SkylineSet, QueryStats, InitOutcome) {
        let ctx = QueryContext::new(&city.graph, &city.forest, &city.pois);
        let q = crate::query::SkySrQuery::with_positions(VertexId(start), positions);
        let pq = crate::prepared::PreparedQuery::prepare(&ctx, &q).unwrap();
        let mut ws = DijkstraWorkspace::new(ctx.graph.num_vertices());
        let mut skyline = SkylineSet::new();
        let mut stats = QueryStats::default();
        let outcome = nninit(&ctx, &pq, &mut ws, &mut skyline, &mut stats);
        (skyline, stats, outcome)
    }

    const LEAVES: [(u32, &str); 4] = [(2, "Asian"), (3, "Gift"), (5, "Italian"), (29, "Gift")];

    #[test]
    fn internal_category_positions_get_a_finite_route_nearby() {
        // ⟨Food, Gift⟩: no PoI perfectly matches Food, so the first leg
        // stops at the nearest PoI reaching σ* (Asian at v2) instead of
        // hunting for a perfect match across the whole line.
        let city = line(false, &LEAVES);
        let (skyline, stats, outcome) = run_on(&city, 0, vec![city.food.into(), city.gift.into()]);
        assert!(!outcome.perfect_found, "no semantic-0 chain exists");
        let routes = skyline.routes();
        assert_eq!(routes.len(), 1);
        assert_eq!(routes[0].pois, vec![VertexId(2), VertexId(3)]);
        assert_eq!(routes[0].length, Cost::new(3.0));
        assert!(routes[0].semantic > 0.0 && routes[0].semantic < 1.0);
        // v0..v2, then v2 and its two neighbours: the line has 30.
        assert!(stats.search.settled <= 6, "{} settled", stats.search.settled);
        assert_eq!(stats.init_length_ratio, None);

        // The internal category in last position: its leg inserts every
        // semantic match it settles and stops at the first reaching σ*.
        let (skyline, _, outcome) = run_on(&city, 4, vec![city.gift.into(), city.food.into()]);
        assert!(!outcome.perfect_found);
        assert_eq!(outcome.routes_found, 1);
        assert_eq!(skyline.routes()[0].pois, vec![VertexId(3), VertexId(2)]);
    }

    #[test]
    fn a_leg_whose_best_match_is_unreachable_continues_from_the_best_settled() {
        // One-way line from v4: the only Asian PoI (v2) lies behind the
        // start, so ⟨Asian, Gift⟩'s first leg settles no perfect match and
        // continues from the best one it did settle (Italian at v5).
        let city = line(true, &LEAVES);
        let (skyline, _, outcome) = run_on(&city, 4, vec![city.asian.into(), city.gift.into()]);
        assert!(!outcome.perfect_found);
        assert_eq!(outcome.routes_found, 1);
        let routes = skyline.routes();
        assert_eq!(routes.len(), 1);
        assert_eq!(routes[0].pois, vec![VertexId(5), VertexId(29)]);
        assert_eq!(routes[0].length, Cost::new(25.0));
        // Every position reachable perfectly: the paper's chain.
        let (_, _, outcome) = run_on(&city, 0, vec![city.asian.into(), city.gift.into()]);
        assert!(outcome.perfect_found);
    }

    #[test]
    fn requirement_positions_without_a_perfect_match_get_a_finite_route() {
        // §6: "Food but not Italian" has no perfect match either (PoIs
        // carry leaves); its best_sim is σ* as for a plain category.
        use skysr_category::Requirement;
        let city = line(false, &LEAVES);
        let req = Requirement::category(city.food).but_not(city.italian);
        let (skyline, stats, outcome) = run_on(&city, 6, vec![city.gift.into(), req.into()]);
        assert!(!outcome.perfect_found);
        // Gift at v3 (3 back), then Asian at v2: Italian at v5 is excluded.
        let routes = skyline.routes();
        assert_eq!(routes.len(), 1);
        assert_eq!(routes[0].pois, vec![VertexId(3), VertexId(2)]);
        assert!(stats.search.settled < 10, "{} settled", stats.search.settled);
    }

    #[test]
    fn unreachable_perfect_match_degrades_gracefully() {
        // A forest/table where position 0 has semantic but no perfect
        // matches: NNinit finds no perfect chain but must not panic.
        use skysr_category::ForestBuilder;
        use skysr_graph::GraphBuilder;
        let mut fb = ForestBuilder::new();
        let food = fb.add_root("Food");
        let asian = fb.add_child(food, "Asian");
        let italian = fb.add_child(food, "Italian");
        let forest = fb.build();
        let mut gb = GraphBuilder::new();
        let v0 = gb.add_vertex();
        let v1 = gb.add_vertex();
        gb.add_edge(v0, v1, 1.0);
        let graph = gb.build();
        let mut pois = crate::poi::PoiTable::new(2);
        pois.add_poi(v1, italian); // only a semantic match for "Asian"
        pois.finalize(&forest);
        let ctx = QueryContext::new(&graph, &forest, &pois);
        let q = crate::query::SkySrQuery::new(v0, [asian]);
        let pq = crate::prepared::PreparedQuery::prepare(&ctx, &q).unwrap();
        let mut ws = DijkstraWorkspace::new(2);
        let mut skyline = SkylineSet::new();
        let mut stats = QueryStats::default();
        let outcome = nninit(&ctx, &pq, &mut ws, &mut skyline, &mut stats);
        assert!(!outcome.perfect_found);
        // The semantic route ⟨v1⟩ was still found on the (only) last leg.
        assert_eq!(outcome.routes_found, 1);
        assert_eq!(skyline.len(), 1);
        assert_eq!(stats.init_length_ratio, None);
    }
}
