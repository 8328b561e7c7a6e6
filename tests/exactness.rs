//! Property-based exactness: BSSR (under every optimisation configuration)
//! must return exactly the skyline computed by the exhaustive oracle, on
//! arbitrary small road networks, category forests and queries — including
//! queries whose positions share category trees and PoIs tagged in two
//! trees (where the Lemma 5.5 shortcuts and grouped expansion must disable
//! themselves), and queries naming internal categories that no PoI matches
//! perfectly (where NNinit's legs stop at σ\* instead of 1).

use proptest::prelude::*;
use skysr::category::{CategoryForest, CategoryId, ForestBuilder};
use skysr::core::bssr::{Bssr, BssrConfig, Expansion, LowerBoundMode, QueuePolicy};
use skysr::core::naive::naive_skysr;
use skysr::core::variants::skyband::{naive_skyband, SkybandQuery};
use skysr::core::{PoiTable, PreparedQuery, QueryContext, SkySrQuery, SkylineRoute};
use skysr::graph::{GraphBuilder, VertexId};

/// A random but always-valid test instance.
#[derive(Debug, Clone)]
struct Instance {
    n: usize,
    directed: bool,
    path_weights: Vec<f64>,
    extra_edges: Vec<(usize, usize, f64)>,
    /// Categories per vertex: none (a road vertex), one, or two — possibly
    /// from different trees.
    poi_cats: Vec<Vec<usize>>,
    start: usize,
    query_cats: Vec<usize>,
}

/// Forest used by all generated instances: two trees with internal nodes
/// and leaves at different depths (8 categories total).
fn forest() -> CategoryForest {
    let mut b = ForestBuilder::new();
    let food = b.add_root("Food");
    let asian = b.add_child(food, "Asian");
    b.add_child(asian, "Sushi");
    b.add_child(food, "Italian");
    let shop = b.add_root("Shop");
    let clothing = b.add_child(shop, "Clothing");
    b.add_child(clothing, "Shoes");
    b.add_child(shop, "Gift");
    b.build()
}

const NUM_CATS: usize = 8;

fn arb_instance() -> impl Strategy<Value = Instance> {
    (4usize..10, any::<bool>(), any::<bool>())
        .prop_flat_map(|(n, directed, multi)| {
            // Half the instances tag some vertices twice; the rest keep the
            // single-category PoIs under which groups form.
            let per_vertex = if multi { 0..3 } else { 0..2 };
            (
                Just(n),
                Just(directed),
                prop::collection::vec(0.5f64..8.0, n - 1),
                prop::collection::vec((0..n, 0..n, 0.5f64..8.0), 0..10),
                prop::collection::vec(prop::collection::vec(0..NUM_CATS, per_vertex), n),
                0..n,
                prop::collection::vec(0..NUM_CATS, 1..4),
            )
        })
        .prop_map(|(n, directed, path_weights, extra_edges, poi_cats, start, query_cats)| {
            Instance { n, directed, path_weights, extra_edges, poi_cats, start, query_cats }
        })
}

/// Leaf and internal categories of [`forest`].
const LEAVES: [usize; 4] = [2, 3, 6, 7];
const INTERNAL: [usize; 4] = [0, 1, 4, 5];

/// Instances whose PoIs carry leaf categories only and whose query
/// (k = 2–4) names an internal category at a random position, the last
/// included: that position has no perfect match.
fn arb_internal_instance() -> impl Strategy<Value = Instance> {
    (arb_instance(), 2usize..5, 0usize..4, 0usize..4, prop::collection::vec(0..NUM_CATS, 4))
        .prop_map(|(mut inst, k, at, internal, cats)| {
            for c in inst.poi_cats.iter_mut().flatten() {
                *c = LEAVES[*c % LEAVES.len()];
            }
            inst.query_cats = cats[..k].to_vec();
            inst.query_cats[at % k] = INTERNAL[internal];
            inst
        })
}

struct Built {
    graph: skysr::graph::RoadNetwork,
    forest: CategoryForest,
    pois: PoiTable,
    query: SkySrQuery,
}

fn build(inst: &Instance) -> Built {
    let forest = forest();
    let mut g = if inst.directed { GraphBuilder::directed() } else { GraphBuilder::new() };
    let vs: Vec<VertexId> = (0..inst.n).map(|_| g.add_vertex()).collect();
    for (i, &w) in inst.path_weights.iter().enumerate() {
        g.add_edge(vs[i], vs[i + 1], w);
        if inst.directed {
            // Keep directed instances strongly connected with an asymmetric
            // return edge (§6 "Directed graphs").
            g.add_edge(vs[i + 1], vs[i], w * 1.5 + 0.25);
        }
    }
    for &(a, b, w) in &inst.extra_edges {
        g.add_edge(vs[a], vs[b], w);
    }
    let graph = g.build();
    let mut pois = PoiTable::new(inst.n);
    for (i, cats) in inst.poi_cats.iter().enumerate() {
        for &c in cats {
            pois.add_poi(vs[i], CategoryId(c as u32));
        }
    }
    pois.finalize(&forest);
    let query =
        SkySrQuery::new(vs[inst.start], inst.query_cats.iter().map(|&c| CategoryId(c as u32)));
    Built { graph, forest, pois, query }
}

/// Score sets (length, semantic) must match as multisets within tolerance.
///
/// A plain sorted zip is too strict here: score-equivalent routes can have
/// representative lengths differing by float noise (~1e-15, different edge
/// summation orders), which flips sort order around exact ties on one side
/// only. Tolerant greedy matching of sorted lists is order-insensitive.
fn assert_same_skyline(got: &[SkylineRoute], want: &[SkylineRoute], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: {got:?} vs {want:?}");
    let close = |g: &SkylineRoute, w: &SkylineRoute| {
        (g.length.get() - w.length.get()).abs() <= 1e-6 * (1.0 + w.length.get().abs())
            && (g.semantic - w.semantic).abs() <= 1e-9
    };
    let mut unmatched: Vec<&SkylineRoute> = got.iter().collect();
    for w in want {
        let i = unmatched
            .iter()
            .position(|g| close(g, w))
            .unwrap_or_else(|| panic!("{label}: no match for {w:?} in {got:?}"));
        unmatched.swap_remove(i);
    }
}

fn all_configs() -> Vec<(&'static str, BssrConfig)> {
    let grouped = BssrConfig::default();
    vec![
        // The default is the paper's BSSR without the bounds and with
        // grouped instead of memoised expansion; each other optimisation is
        // ablated from the paper's, and grouping is crossed with each.
        ("default", grouped),
        ("paper", BssrConfig::paper()),
        ("unoptimized", BssrConfig::unoptimized()),
        ("no-init", BssrConfig { use_init_search: false, ..BssrConfig::paper() }),
        (
            "distance-queue",
            BssrConfig { queue_policy: QueuePolicy::DistanceBased, ..BssrConfig::paper() },
        ),
        ("per-route", BssrConfig { expansion: Expansion::PerRoute, ..BssrConfig::paper() }),
        ("grouped-no-init", BssrConfig { use_init_search: false, ..grouped }),
        (
            "grouped-distance-queue",
            BssrConfig { queue_policy: QueuePolicy::DistanceBased, ..grouped },
        ),
        ("grouped-bounds", BssrConfig { lower_bound: LowerBoundMode::Full, ..grouped }),
        (
            "grouped-unoptimized",
            BssrConfig { expansion: Expansion::Grouped, ..BssrConfig::unoptimized() },
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bssr_matches_oracle_under_every_config(inst in arb_instance()) {
        let built = build(&inst);
        let ctx = QueryContext::new(&built.graph, &built.forest, &built.pois);
        let pq = PreparedQuery::prepare(&ctx, &built.query).expect("valid query");
        let oracle = naive_skysr(&ctx, &pq, 5_000_000);
        for (label, cfg) in all_configs() {
            let result = Bssr::with_config(&ctx, cfg).run_prepared(&pq);
            assert_same_skyline(&result.routes, &oracle, label);
        }
    }

    #[test]
    fn internal_category_positions_match_oracle(inst in arb_internal_instance()) {
        let built = build(&inst);
        let ctx = QueryContext::new(&built.graph, &built.forest, &built.pois);
        let pq = PreparedQuery::prepare(&ctx, &built.query).expect("valid query");
        let oracle = naive_skysr(&ctx, &pq, 5_000_000);
        for (label, cfg) in all_configs() {
            let result = Bssr::with_config(&ctx, cfg).run_prepared(&pq);
            assert_same_skyline(&result.routes, &oracle, label);
        }
    }

    #[test]
    fn warm_started_bssr_matches_oracle(inst in arb_instance()) {
        // Repair's fallback seeds a search with full-length routes. Any
        // same-start skyline is seed material the engine must revalidate
        // and rescore: here the skyline of the query with every position
        // widened to its tree's root.
        let built = build(&inst);
        let ctx = QueryContext::new(&built.graph, &built.forest, &built.pois);
        let pq = PreparedQuery::prepare(&ctx, &built.query).expect("valid query");
        let oracle = naive_skysr(&ctx, &pq, 5_000_000);
        let roots = built.forest.roots();
        let widened = SkySrQuery::new(
            built.query.start,
            inst.query_cats.iter().map(|&c| roots[built.forest.tree_of(CategoryId(c as u32)) as usize]),
        );
        let mut engine = Bssr::new(&ctx);
        let seeds = engine.run(&widened).expect("valid widened query").routes;
        let warm = engine.run_prepared_warm(&pq, &seeds);
        assert_same_skyline(&warm.routes, &oracle, "warm-started");
    }

    #[test]
    fn skyband_matches_oracle_for_small_k(inst in arb_instance()) {
        let built = build(&inst);
        let ctx = QueryContext::new(&built.graph, &built.forest, &built.pois);
        for k in [1usize, 2, 3] {
            let got = SkybandQuery::new(built.query.clone(), k).run(&ctx).expect("valid");
            let want = naive_skyband(&ctx, &built.query, k, 5_000_000).expect("valid");
            assert_same_skyline(&got.routes, &want, "skyband");
        }
    }

    #[test]
    fn skyline_routes_are_valid_and_pareto(inst in arb_instance()) {
        let built = build(&inst);
        let ctx = QueryContext::new(&built.graph, &built.forest, &built.pois);
        let result = Bssr::new(&ctx).run(&built.query).expect("valid query");
        let k = built.query.len();
        for (i, r) in result.routes.iter().enumerate() {
            // Right size, distinct PoIs, every PoI semantically matches.
            prop_assert_eq!(r.pois.len(), k);
            let mut sorted = r.pois.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), k);
            // Pairwise non-dominance.
            for (j, other) in result.routes.iter().enumerate() {
                if i != j {
                    prop_assert!(!r.dominates(other), "{:?} dominates {:?}", r, other);
                }
            }
        }
    }
}
