//! The §6 variations stay exact: destination-constrained SkySR, unordered
//! skyline trip planning, multi-category PoIs, complex requirements and
//! directed graphs — each checked against an oracle or a structural
//! invariant.

use skysr::category::{CategoryId, ForestBuilder, Requirement};
use skysr::core::bssr::{Bssr, BssrConfig};
use skysr::core::naive::naive_skysr;
use skysr::core::prepared::Position;
use skysr::core::query::PositionSpec;
use skysr::core::variants::destination::DestinationQuery;
use skysr::core::variants::unordered::{naive_unordered, UnorderedQuery};
use skysr::core::{PoiTable, PreparedQuery, QueryContext, SkySrQuery};
use skysr::graph::{GraphBuilder, VertexId};

/// Small two-tree world reused by several tests.
struct World {
    graph: skysr::graph::RoadNetwork,
    forest: skysr::category::CategoryForest,
    pois: PoiTable,
    cats: Vec<CategoryId>,
}

fn world(directed: bool) -> World {
    let mut fb = ForestBuilder::new();
    let food = fb.add_root("Food");
    let asian = fb.add_child(food, "Asian");
    let italian = fb.add_child(food, "Italian");
    let shop = fb.add_root("Shop");
    let gift = fb.add_child(shop, "Gift");
    let hobby = fb.add_child(shop, "Hobby");
    let forest = fb.build();

    let mut g = if directed { GraphBuilder::directed() } else { GraphBuilder::new() };
    let vs: Vec<VertexId> = (0..8).map(|_| g.add_vertex()).collect();
    // A ring so directed graphs stay strongly connected.
    for i in 0..8 {
        g.add_edge(vs[i], vs[(i + 1) % 8], 1.0 + i as f64 * 0.5);
        if directed {
            g.add_edge(vs[(i + 1) % 8], vs[i], 2.0 + i as f64 * 0.25);
        }
    }
    let mut pois = PoiTable::new(8);
    pois.add_poi(vs[1], asian);
    pois.add_poi(vs[2], italian);
    pois.add_poi(vs[4], gift);
    pois.add_poi(vs[5], hobby);
    pois.add_poi(vs[6], asian);
    pois.finalize(&forest);
    World { graph: g.build(), forest, pois, cats: vec![asian, italian, gift, hobby] }
}

#[test]
fn destination_variant_matches_oracle() {
    let w = world(false);
    let ctx = QueryContext::new(&w.graph, &w.forest, &w.pois);
    let [asian, _, gift, _] = w.cats[..] else { unreachable!() };
    for dest in [0u32, 3, 5] {
        let q = SkySrQuery::new(VertexId(0), [asian, gift]);
        let got = DestinationQuery::new(q.clone(), VertexId(dest))
            .run(&ctx, BssrConfig::default())
            .unwrap();
        let mut pq = PreparedQuery::prepare(&ctx, &q).unwrap();
        pq.positions.push(Position::destination(VertexId(dest)).into());
        let mut want = naive_skysr(&ctx, &pq, 1_000_000);
        for r in &mut want {
            r.pois.pop();
        }
        assert_eq!(got.routes.len(), want.len(), "dest {dest}");
        for (g, wnt) in got.routes.iter().zip(&want) {
            assert!((g.length.get() - wnt.length.get()).abs() < 1e-9);
            assert!((g.semantic - wnt.semantic).abs() < 1e-12);
        }
    }
}

#[test]
fn unordered_matches_permutation_oracle() {
    let w = world(false);
    let ctx = QueryContext::new(&w.graph, &w.forest, &w.pois);
    let [asian, _, gift, hobby] = w.cats[..] else { unreachable!() };
    for cats in [vec![asian, gift], vec![gift, asian, hobby]] {
        let q = UnorderedQuery::new(VertexId(0), cats);
        let got = q.run(&ctx).unwrap();
        let want = naive_unordered(&ctx, &q, 1_000_000).unwrap();
        assert_eq!(got.routes.len(), want.len(), "{q:?}");
        for (g, wnt) in got.routes.iter().zip(&want) {
            assert!((g.length.get() - wnt.length.get()).abs() < 1e-9);
            assert!((g.semantic - wnt.semantic).abs() < 1e-12);
        }
    }
}

#[test]
fn directed_graph_queries_work() {
    let w = world(true);
    assert!(w.graph.is_directed());
    let ctx = QueryContext::new(&w.graph, &w.forest, &w.pois);
    let [asian, _, gift, _] = w.cats[..] else { unreachable!() };
    let q = SkySrQuery::new(VertexId(0), [asian, gift]);
    let pq = PreparedQuery::prepare(&ctx, &q).unwrap();
    let got = Bssr::new(&ctx).run_prepared(&pq);
    let want = naive_skysr(&ctx, &pq, 1_000_000);
    assert_eq!(got.routes.len(), want.len());
    for (g, wnt) in got.routes.iter().zip(&want) {
        assert!((g.length.get() - wnt.length.get()).abs() < 1e-9);
    }
    assert!(!got.routes.is_empty());
}

#[test]
fn multi_category_pois_take_best_similarity() {
    // One PoI tagged both Asian and Gift satisfies either position — but
    // not both at once (Definition 3.4(iii)).
    let mut fb = ForestBuilder::new();
    let food = fb.add_root("Food");
    let asian = fb.add_child(food, "Asian");
    let shop = fb.add_root("Shop");
    let gift = fb.add_child(shop, "Gift");
    let forest = fb.build();
    let mut g = GraphBuilder::new();
    let vs: Vec<VertexId> = (0..4).map(|_| g.add_vertex()).collect();
    g.add_edge(vs[0], vs[1], 1.0);
    g.add_edge(vs[1], vs[2], 1.0);
    g.add_edge(vs[2], vs[3], 1.0);
    let graph = g.build();
    let mut pois = PoiTable::new(4);
    pois.add_poi(vs[1], asian);
    pois.add_poi(vs[1], gift); // multi-category
    pois.add_poi(vs[3], gift);
    pois.finalize(&forest);
    let ctx = QueryContext::new(&graph, &forest, &pois);
    let q = SkySrQuery::new(vs[0], [asian, gift]);
    let result = Bssr::new(&ctx).run(&q).unwrap();
    // Only one valid assignment: v1 as Asian, v3 as Gift (v1 cannot serve
    // both positions).
    assert_eq!(result.routes.len(), 1);
    assert_eq!(result.routes[0].pois, vec![vs[1], vs[3]]);
    assert_eq!(result.routes[0].length.get(), 3.0);
    let pq = PreparedQuery::prepare(&ctx, &q).unwrap();
    assert_eq!(naive_skysr(&ctx, &pq, 1000), result.routes);
}

#[test]
fn requirement_positions_match_oracle() {
    let w = world(false);
    let ctx = QueryContext::new(&w.graph, &w.forest, &w.pois);
    let [asian, italian, gift, hobby] = w.cats[..] else { unreachable!() };
    let req = Requirement::any_of([asian, italian]);
    let shop_req = Requirement::category(gift).but_not(hobby);
    let q = SkySrQuery::with_positions(
        VertexId(3),
        [PositionSpec::Requirement(req), PositionSpec::Requirement(shop_req)],
    );
    let pq = PreparedQuery::prepare(&ctx, &q).unwrap();
    let got = Bssr::new(&ctx).run_prepared(&pq);
    let want = naive_skysr(&ctx, &pq, 1_000_000);
    assert_eq!(got.routes.len(), want.len());
    // The negation bans the hobby shop: vertex 5 never appears.
    for r in &got.routes {
        assert!(!r.pois.contains(&VertexId(5)));
    }
}

#[test]
fn destination_variant_on_generated_dataset() {
    use skysr::prelude::*;
    let d = DatasetSpec::preset(Preset::CalSmall).scale(0.05).seed(77).generate();
    let ctx = d.context();
    let w = WorkloadSpec::new(2).queries(3).seed(6).generate(&d);
    for q in &w.queries {
        let plain = Bssr::new(&ctx).run(q).unwrap();
        let dest =
            DestinationQuery::new(q.clone(), q.start).run(&ctx, BssrConfig::default()).unwrap();
        // Round trips are at least as long as one-way trips.
        let best_plain = plain.routes.iter().map(|r| r.length).min().unwrap();
        let best_dest = dest.routes.iter().map(|r| r.length).min().unwrap();
        assert!(best_dest >= best_plain);
    }
}
