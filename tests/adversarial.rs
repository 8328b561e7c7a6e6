//! Adversarial regression tests for the subtle correctness decisions
//! documented in DESIGN.md:
//!
//! 1. the paper's *super-category-sequence* enumeration can miss skyline
//!    routes whose PoI categories are cousins of the query category — our
//!    similarity-level enumeration must not;
//! 2. the on-the-fly cache's radius discipline: a cached narrow search
//!    must not be reused for a wider request (thresholds loosen for
//!    semantically better routes);
//! 3. Lemma 5.5's path-similarity skip must not fire when the would-be
//!    replacement PoI is already in the route (same-tree positions);
//! 4. nor when one PoI can match two positions through categories of two
//!    trees — which also keeps grouped expansion off.

use skysr::category::{ForestBuilder, WuPalmer};
use skysr::core::baseline::{DijBaseline, PneBaseline};
use skysr::core::bssr::{Bssr, BssrConfig, Expansion};
use skysr::core::naive::naive_skysr;
use skysr::core::{PoiTable, PreparedQuery, QueryContext, SkySrQuery};
use skysr::graph::GraphBuilder;

/// The construction from DESIGN.md §2: query category A (leaf); sibling B
/// and *deeper cousin* C carry the candidate PoIs. The super-sequence
/// enumeration would only run OSR for ⟨A⟩ and ⟨T⟩ (ancestors of A):
/// OSR(⟨A⟩) = the A-PoI, OSR(⟨T⟩) = the closest tree PoI = the C-PoI —
/// never surfacing the *B*-PoI, which belongs to the true skyline
/// (it is semantically better than C and shorter than A).
#[test]
fn cousin_route_missed_by_super_sequences_is_found() {
    let mut fb = ForestBuilder::new();
    let t = fb.add_root("T");
    let a = fb.add_child(t, "A");
    let b = fb.add_child(t, "B");
    let c = fb.add_child(b, "C"); // deeper: sim(A, C) < sim(A, B) < 1
    let forest = fb.build();
    // Wu–Palmer sanity for the construction.
    use skysr::category::Similarity;
    let sim_ab = WuPalmer.sim(&forest, a, b);
    let sim_ac = WuPalmer.sim(&forest, a, c);
    assert!(sim_ac < sim_ab && sim_ab < 1.0);

    // Distances: C-PoI at 5, B-PoI at 7, A-PoI at 10.
    let mut g = GraphBuilder::new();
    let vq = g.add_vertex();
    let pc = g.add_vertex();
    let pb = g.add_vertex();
    let pa = g.add_vertex();
    g.add_edge(vq, pc, 5.0);
    g.add_edge(vq, pb, 7.0);
    g.add_edge(vq, pa, 10.0);
    let graph = g.build();
    let mut pois = PoiTable::new(graph.num_vertices());
    pois.add_poi(pa, a);
    pois.add_poi(pb, b);
    pois.add_poi(pc, c);
    pois.finalize(&forest);
    let ctx = QueryContext::new(&graph, &forest, &pois);
    let q = SkySrQuery::new(vq, [a]);

    // True skyline: all three PoIs are Pareto-optimal
    // (10, 0) ⊀ (7, 1−sim_ab) ⊀ (5, 1−sim_ac).
    let pq = PreparedQuery::prepare(&ctx, &q).unwrap();
    let oracle = naive_skysr(&ctx, &pq, 1000);
    assert_eq!(oracle.len(), 3, "{oracle:?}");
    assert!(oracle.iter().any(|r| r.pois == vec![pb]), "the cousin-sibling route is skyline");

    // BSSR and both (level-enumerating) baselines find all three.
    let bssr = Bssr::new(&ctx).run(&q).unwrap();
    assert_eq!(bssr.routes, oracle);
    let dij = DijBaseline::new(&ctx).run(&q).unwrap();
    assert_eq!(dij.routes, oracle);
    let pne = PneBaseline::new(&ctx).run(&q).unwrap();
    assert_eq!(pne.routes, oracle);
    // Three similarity levels ⇒ three OSR calls — one more than the two
    // super-sequences ⟨A⟩, ⟨T⟩ the paper's naive would run.
    assert_eq!(dij.combos, 3);
}

/// Cache radius discipline. Construct a query where the same (vertex,
/// position) pair is searched twice: first by a semantically *worse* route
/// (tight threshold → small radius), then by a semantically *better* route
/// (loose threshold → larger radius). If the cache ignored radii, the
/// second search would silently miss far-away matches and the skyline
/// would be wrong. With many start alternatives, compare cache on vs off.
#[test]
fn cache_radius_discipline_preserves_exactness() {
    let mut fb = ForestBuilder::new();
    let food = fb.add_root("Food");
    let asian = fb.add_child(food, "Asian");
    let italian = fb.add_child(food, "Italian");
    let shop = fb.add_root("Shop");
    let gift = fb.add_child(shop, "Gift");
    let hobby = fb.add_child(shop, "Hobby");
    let forest = fb.build();

    // Hub `h` hosts position-2 searches reached by two different
    // position-1 PoIs: the perfect (Asian) one is far, the semantic
    // (Italian) one is near; beyond the hub sit a near hobby shop and a
    // far gift shop.
    let mut g = GraphBuilder::new();
    let vq = g.add_vertex(); // 0
    let p_asian = g.add_vertex(); // 1 (far perfect)
    let p_italian = g.add_vertex(); // 2 (near semantic)
    let hub = g.add_vertex(); // 3
    let p_hobby = g.add_vertex(); // 4 (near, semantic for Gift)
    let p_gift = g.add_vertex(); // 5 (far, perfect for Gift)
    g.add_edge(vq, p_asian, 9.0);
    g.add_edge(vq, p_italian, 1.0);
    g.add_edge(p_asian, hub, 1.0);
    g.add_edge(p_italian, hub, 1.0);
    g.add_edge(hub, p_hobby, 1.0);
    g.add_edge(hub, p_gift, 6.0);
    let graph = g.build();
    let mut pois = PoiTable::new(graph.num_vertices());
    pois.add_poi(p_asian, asian);
    pois.add_poi(p_italian, italian);
    pois.add_poi(p_hobby, hobby);
    pois.add_poi(p_gift, gift);
    pois.finalize(&forest);
    let ctx = QueryContext::new(&graph, &forest, &pois);
    let q = SkySrQuery::new(vq, [asian, gift]);

    let pq = PreparedQuery::prepare(&ctx, &q).unwrap();
    let oracle = naive_skysr(&ctx, &pq, 1000);
    let with = |expansion| BssrConfig { expansion, ..BssrConfig::default() };
    for expansion in [Expansion::Memoised, Expansion::PerRoute, Expansion::Grouped] {
        let got = Bssr::with_config(&ctx, with(expansion)).run(&q).unwrap();
        assert_eq!(got.routes, oracle, "{expansion:?}");
    }
}

/// Same-tree positions: a route ⟨Gift, Hobby⟩ where the nearest Hobby
/// candidate lies *behind* the route's own first PoI. A naive Lemma 5.5
/// filter (skip matches behind higher-similarity PoIs) would discard it
/// using the in-route PoI as witness — invalidly, since the witness cannot
/// replace the match in the same route.
#[test]
fn same_tree_positions_do_not_lose_routes() {
    let mut fb = ForestBuilder::new();
    let shop = fb.add_root("Shop");
    let gift = fb.add_child(shop, "Gift");
    let hobby = fb.add_child(shop, "Hobby");
    let forest = fb.build();
    // vq — g1(Gift) — h1(Hobby): the only hobby shop is behind the gift
    // shop the route just used.
    let mut g = GraphBuilder::new();
    let vq = g.add_vertex();
    let g1 = g.add_vertex();
    let h1 = g.add_vertex();
    g.add_edge(vq, g1, 2.0);
    g.add_edge(g1, h1, 3.0);
    let graph = g.build();
    let mut pois = PoiTable::new(graph.num_vertices());
    pois.add_poi(g1, gift);
    pois.add_poi(h1, hobby);
    pois.finalize(&forest);
    let ctx = QueryContext::new(&graph, &forest, &pois);
    let q = SkySrQuery::new(vq, [gift, hobby]);
    let result = Bssr::new(&ctx).run(&q).unwrap();
    assert_eq!(result.routes.len(), 1);
    assert_eq!(result.routes[0].pois, vec![g1, h1]);
    assert_eq!(result.routes[0].length.get(), 5.0);
    assert_eq!(result.routes[0].semantic, 0.0);
}

/// A PoI tagged in two trees matches two positions whose own trees are
/// disjoint. v1 is an Asian restaurant and a gift shop; the skyline of
/// ⟨Asian, Gift⟩ from v0 is ⟨v1, v3⟩ (length 3). Comparing only the
/// positions' trees enabled the Lemma 5.5 rules: the Gift search from ⟨v1⟩
/// settled v1 itself as a perfect match, rejected it as a repeat, and the
/// perfect-match cut stopped the traversal there, leaving ⟨v2, v1⟩
/// (length 4) as the answer.
#[test]
fn a_poi_tagged_in_two_trees_does_not_cut_its_own_search() {
    let mut fb = ForestBuilder::new();
    let food = fb.add_root("Food");
    let asian = fb.add_child(food, "Asian");
    let shop = fb.add_root("Shop");
    let gift = fb.add_child(shop, "Gift");
    let forest = fb.build();
    let mut g = GraphBuilder::new();
    let v: Vec<_> = (0..5).map(|_| g.add_vertex()).collect();
    g.add_edge(v[0], v[2], 1.0);
    g.add_edge(v[0], v[1], 2.0);
    g.add_edge(v[1], v[3], 1.0);
    g.add_edge(v[2], v[4], 10.0);
    let graph = g.build();
    let mut pois = PoiTable::new(graph.num_vertices());
    pois.add_poi(v[2], asian);
    pois.add_poi(v[1], asian);
    pois.add_poi(v[1], gift);
    pois.add_poi(v[3], gift);
    pois.add_poi(v[4], gift);
    pois.finalize(&forest);
    let ctx = QueryContext::new(&graph, &forest, &pois);
    let q = SkySrQuery::new(v[0], [asian, gift]);
    let pq = PreparedQuery::prepare(&ctx, &q).unwrap();
    let oracle = naive_skysr(&ctx, &pq, 1000);
    assert_eq!(oracle.len(), 1);
    assert_eq!(oracle[0].pois, vec![v[1], v[3]]);
    assert_eq!(oracle[0].length.get(), 3.0);
    for cfg in [BssrConfig::default(), BssrConfig::paper(), BssrConfig::unoptimized()] {
        let got = Bssr::with_config(&ctx, cfg).run_prepared(&pq);
        assert_eq!(got.routes, oracle, "{cfg:?}");
        assert_eq!(got.stats.grouped_routes, 0, "{cfg:?}: v1 can serve both positions");
    }
}

/// Zero-weight edges (co-located PoIs after edge splitting) must not break
/// the search or the dominance logic.
#[test]
fn zero_weight_edges_are_handled() {
    let mut fb = ForestBuilder::new();
    let food = fb.add_root("Food");
    let asian = fb.add_child(food, "Asian");
    let shop = fb.add_root("Shop");
    let gift = fb.add_child(shop, "Gift");
    let forest = fb.build();
    let mut g = GraphBuilder::new();
    let vq = g.add_vertex();
    let p1 = g.add_vertex();
    let p2 = g.add_vertex(); // co-located with p1
    g.add_edge(vq, p1, 1.0);
    g.add_edge(p1, p2, 0.0);
    let graph = g.build();
    let mut pois = PoiTable::new(graph.num_vertices());
    pois.add_poi(p1, asian);
    pois.add_poi(p2, gift);
    pois.finalize(&forest);
    let ctx = QueryContext::new(&graph, &forest, &pois);
    let result = Bssr::new(&ctx).run(&SkySrQuery::new(vq, [asian, gift])).unwrap();
    assert_eq!(result.routes.len(), 1);
    assert_eq!(result.routes[0].length.get(), 1.0);
}
