//! Property-based guarantees for incremental skyline repair and the epoch
//! history, on arbitrary random instances:
//!
//! * **Repair exactness** — for random graphs, queries and weight-delta
//!   batches, `Bssr::repair` of the old-epoch skyline is score-equivalent
//!   to a from-scratch search at the new epoch, whatever tier resolved it.
//! * **Chained repairs** — across 2–4 successive delta batches, each
//!   repair reading the memo of the one before, every repaired skyline is
//!   score-equivalent to a from-scratch search at its epoch and reaches the
//!   same outcome as a repair without a memo; with landmarks and without
//!   (then nothing clears at the floor, and every route goes through the
//!   memo).
//! * **Decrease-only chains** — the same, over batches that only make arcs
//!   cheaper: no cached route gets longer, so every re-search is the
//!   restricted one, which searches only routes that cross a decreased arc.
//! * **Restricted work** — on a generated city, a restricted re-search
//!   settles a fraction of what the full warm re-search settles.
//! * **Untouched conservativeness** — whenever repair's cheap lower-bound
//!   check promotes a skyline `Untouched`, the cached skyline *is* the new
//!   epoch's exact skyline: the check never drops (or keeps) a route a full
//!   search would decide otherwise.
//! * **Ring transparency** — rebuilding epochs from the history log under
//!   a retention ring never changes any arc weight (nor `total_weight`)
//!   observable through any still-pinnable epoch, by arc slot or by
//!   neighbour scan; and any two still-pinnable epochs diff to exactly the
//!   arcs whose weights differ between them.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use skysr::category::{CategoryForest, CategoryId, ForestBuilder};
use skysr::core::bssr::repair::{safely_beyond, RepairMemo};
use skysr::core::bssr::{Bssr, RepairOutcome};
use skysr::core::route::equivalent_skylines;
use skysr::core::{PoiTable, PreparedQuery, QueryContext, SkySrQuery};
use skysr::data::dataset::{DatasetSpec, Preset};
use skysr::data::workload::WorkloadSpec;
use skysr::graph::dijkstra::point_to_point;
use skysr::graph::{
    dijkstra_with, Cost, DijkstraWorkspace, EpochId, GraphBuilder, Landmarks, RoadNetwork,
    SearchStats, Settle, VertexId, WeightDelta, WeightEpoch,
};

/// A random but always-valid test instance plus a weight-delta batch.
#[derive(Debug, Clone)]
struct Instance {
    n: usize,
    path_weights: Vec<f64>,
    extra_edges: Vec<(usize, usize, f64)>,
    poi_cats: Vec<Option<usize>>,
    start: usize,
    query_cats: Vec<usize>,
    /// (arc index into `0..num_arcs`, multiplicative factor).
    deltas: Vec<(usize, f64)>,
}

fn forest() -> CategoryForest {
    let mut b = ForestBuilder::new();
    let food = b.add_root("Food");
    let asian = b.add_child(food, "Asian");
    b.add_child(asian, "Sushi");
    b.add_child(food, "Italian");
    let shop = b.add_root("Shop");
    b.add_child(shop, "Gift");
    b.build()
}

const NUM_CATS: usize = 6;

fn arb_instance() -> impl Strategy<Value = Instance> {
    (4usize..10)
        .prop_flat_map(|n| {
            (
                Just(n),
                prop::collection::vec(0.5f64..8.0, n - 1),
                prop::collection::vec((0..n, 0..n, 0.5f64..8.0), 0..8),
                prop::collection::vec(prop::option::of(0..NUM_CATS), n),
                0..n,
                prop::collection::vec(0..NUM_CATS, 1..3),
                prop::collection::vec((0usize..64, 0.2f64..4.0), 1..6),
            )
        })
        .prop_map(|(n, path_weights, extra_edges, poi_cats, start, query_cats, deltas)| Instance {
            n,
            path_weights,
            extra_edges,
            poi_cats,
            start,
            query_cats,
            deltas,
        })
}

/// 1–3 delta batches to publish after an instance's own, each as the
/// instance's `deltas` are (arc index, factor on the origin weight), of
/// one or two arcs: the smaller a batch, the more stored proofs survive
/// it.
fn arb_waves() -> impl Strategy<Value = Vec<Vec<(usize, f64)>>> {
    prop::collection::vec(prop::collection::vec((0usize..64, 0.2f64..4.0), 1..3), 1..4)
}

/// 1–4 batches of one to three arcs (arc index, factor), each factor in
/// 0.2–0.99, to apply to the arc's weight at the epoch before the batch:
/// every batch only decreases.
fn arb_decreases() -> impl Strategy<Value = Vec<Vec<(usize, f64)>>> {
    prop::collection::vec(prop::collection::vec((0usize..64, 0.2f64..0.99), 1..4), 1..5)
}

struct Built {
    graph: RoadNetwork,
    forest: CategoryForest,
    pois: PoiTable,
    query: SkySrQuery,
    deltas: Vec<WeightDelta>,
}

/// `batch` resolved against `graph`'s arcs, as [`build`] resolves an
/// instance's own deltas.
fn resolve(graph: &RoadNetwork, batch: &[(usize, f64)]) -> Vec<WeightDelta> {
    batch
        .iter()
        .map(|&(slot, factor)| {
            let (from, to, w) = graph.arc(slot % graph.num_arcs());
            WeightDelta::new(from, to, w.get() * factor)
        })
        .collect()
}

/// `batch` as decreases of `graph`'s weights: each factor applies to the
/// cheapest arc between the named arc's ends, since a delta sets every arc
/// between them.
fn resolve_decreases(graph: &RoadNetwork, batch: &[(usize, f64)]) -> Vec<WeightDelta> {
    batch
        .iter()
        .map(|&(slot, factor)| {
            let (from, to, _) = graph.arc(slot % graph.num_arcs());
            let arcs = graph.neighbors(from).filter(|&(v, _)| v == to);
            let cheapest = arcs.map(|(_, w)| w.get()).fold(f64::INFINITY, f64::min);
            WeightDelta::new(from, to, cheapest * factor)
        })
        .collect()
}

/// The re-searches of a chain of repairs.
#[derive(Default)]
struct Tally {
    researched: usize,
    /// Of those, how many were restricted.
    restricted: usize,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, other: Tally) {
        self.researched += other.researched;
        self.restricted += other.restricted;
    }
}

/// Publishes each of `batches` in turn, resolved against the origin weights
/// or, when `decreases`, as decreases of the weights of the epoch before
/// it, and repairs the previous skyline across every batch with the previous
/// repair's memo. Each repaired skyline must match a fresh search at its
/// epoch, and reach the outcome (and the re-search) a repair without a memo
/// reaches.
fn chain(
    built: &Built,
    batches: &[Vec<(usize, f64)>],
    decreases: bool,
    landmarks: Option<&Landmarks>,
) -> Tally {
    let epochs = WeightEpoch::new(built.graph.clone());
    let mut base = epochs.pin();
    let ctx0 = QueryContext::new(&base, &built.forest, &built.pois);
    let mut cached = Bssr::new(&ctx0).run(&built.query).expect("valid query").routes;
    let mut memo: Option<RepairMemo> = None;
    let mut at = EpochId::BASE;
    let mut tally = Tally::default();
    for (i, batch) in batches.iter().enumerate() {
        let batch =
            if decreases { resolve_decreases(&base, batch) } else { resolve(&built.graph, batch) };
        let to = epochs.publish(&batch);
        let delta = epochs.delta_between(at, to).expect("every epoch is retained");
        let pinned = epochs.pin();
        let ctx = QueryContext::new(&pinned, &built.forest, &built.pois);
        let pq = PreparedQuery::prepare(&ctx, &built.query).expect("valid query");
        let with = Bssr::new(&ctx).repair_prepared(&pq, &cached, memo.as_ref(), &delta, landmarks);
        let without =
            Bssr::new(&ctx).repair(&built.query, &cached, &delta, landmarks).expect("valid query");
        let fresh = Bssr::new(&ctx).run(&built.query).unwrap().routes;
        assert!(
            equivalent_skylines(&with.routes, &fresh),
            "batch {i}, outcome {:?}: repaired {:?} vs fresh {fresh:?} (batch {batch:?})",
            with.repair.outcome,
            with.routes,
        );
        assert_eq!(with.repair.outcome, without.repair.outcome, "batch {i}");
        let restricted = with.stats.restricted_researches;
        assert_eq!(restricted, without.stats.restricted_researches, "batch {i}");
        tally.researched += usize::from(with.repair.outcome == RepairOutcome::Researched);
        tally.restricted += restricted as usize;
        (cached, memo, at) = (with.routes, Some(with.memo), to);
        base = pinned;
    }
    tally
}

fn build(inst: &Instance) -> Built {
    let forest = forest();
    let mut g = GraphBuilder::new();
    let vs: Vec<VertexId> = (0..inst.n).map(|_| g.add_vertex()).collect();
    for (i, &w) in inst.path_weights.iter().enumerate() {
        g.add_edge(vs[i], vs[i + 1], w);
    }
    for &(a, b, w) in &inst.extra_edges {
        g.add_edge(vs[a], vs[b], w);
    }
    let graph = g.build();
    let mut pois = PoiTable::new(inst.n);
    for (i, cat) in inst.poi_cats.iter().enumerate() {
        if let Some(c) = cat {
            pois.add_poi(vs[i], CategoryId(*c as u32));
        }
    }
    pois.finalize(&forest);
    let query =
        SkySrQuery::new(vs[inst.start], inst.query_cats.iter().map(|&c| CategoryId(c as u32)));
    // Resolve the delta batch against the real arc count.
    let deltas = resolve(&graph, &inst.deltas);
    Built { graph, forest, pois, query, deltas }
}

/// Every vertex's out-arcs with their costs, as `neighbors()` reports them.
fn adjacency(g: &RoadNetwork) -> Vec<Vec<(VertexId, Cost)>> {
    g.vertices().map(|v| g.neighbors(v).collect()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn repaired_skyline_matches_from_scratch_search(inst in arb_instance()) {
        let built = build(&inst);
        let epochs = WeightEpoch::new(built.graph.clone());
        let landmarks = Landmarks::build(&built.graph, 3, VertexId(0));

        // Cache at epoch 0.
        let base = epochs.pin();
        let ctx0 = QueryContext::new(&base, &built.forest, &built.pois);
        let cached = Bssr::new(&ctx0).run(&built.query).expect("valid query").routes;

        // Publish the random batch, repair across it.
        let to = epochs.publish(&built.deltas);
        let delta = epochs.delta_between(EpochId::BASE, to).expect("both epochs retained");
        let pinned = epochs.pin();
        let ctx = QueryContext::new(&pinned, &built.forest, &built.pois);
        let repaired = Bssr::new(&ctx)
            .repair(&built.query, &cached, &delta, Some(&landmarks))
            .expect("valid query");
        let fresh = Bssr::new(&ctx).run(&built.query).unwrap().routes;
        prop_assert!(
            equivalent_skylines(&repaired.routes, &fresh),
            "outcome {:?}: repaired {:?} vs fresh {:?} (deltas {:?})",
            repaired.repair.outcome,
            repaired.routes,
            fresh,
            built.deltas
        );
    }

    #[test]
    fn untouched_classification_is_conservative(inst in arb_instance()) {
        // Whenever repair promotes a skyline untouched, the cached skyline
        // must be equivalent to a from-scratch search at the new epoch, and
        // returned verbatim — the check may never approve a delta that
        // could drop, add or rescore a route.
        let built = build(&inst);
        let epochs = WeightEpoch::new(built.graph.clone());
        let landmarks = Landmarks::build(&built.graph, 3, VertexId(0));
        let base = epochs.pin();
        let ctx0 = QueryContext::new(&base, &built.forest, &built.pois);
        let cached = Bssr::new(&ctx0).run(&built.query).expect("valid query").routes;

        let to = epochs.publish(&built.deltas);
        let delta = epochs.delta_between(EpochId::BASE, to).unwrap();
        let pinned = epochs.pin();
        let ctx = QueryContext::new(&pinned, &built.forest, &built.pois);
        let repaired =
            Bssr::new(&ctx).repair(&built.query, &cached, &delta, Some(&landmarks)).unwrap();
        if repaired.repair.outcome == RepairOutcome::Untouched {
            let fresh = Bssr::new(&ctx).run(&built.query).unwrap().routes;
            prop_assert!(
                equivalent_skylines(&cached, &fresh),
                "untouched-approved delta changed the skyline: cached {cached:?} vs fresh \
                 {fresh:?} (deltas {:?})",
                built.deltas
            );
            prop_assert_eq!(repaired.routes, cached);
        }
    }

    #[test]
    fn compaction_preserves_weights_at_every_pinnable_epoch(inst in arb_instance()) {
        // Publish several batches into a ring of 2 and require every
        // still-pinnable epoch to report exactly the weights a manager
        // that keeps every epoch reports.
        let built = build(&inst);
        let bounded = WeightEpoch::new(built.graph.clone());
        bounded.set_retention(2);
        let reference = WeightEpoch::new(built.graph.clone());

        // Several single-delta batches out of the instance's pool (cycled
        // so even 1-delta instances produce a few epochs).
        let batches: Vec<&WeightDelta> = built.deltas.iter().cycle().take(5).collect();
        for d in &batches {
            let e = bounded.publish(std::slice::from_ref(*d));
            prop_assert_eq!(e, reference.publish(std::slice::from_ref(*d)));
            // Neighbour scans read the overlay only at marked vertices.
            let truth = adjacency(&reference.pin());
            prop_assert_eq!(adjacency(&bounded.pin()), truth, "epoch {}", e);
        }

        // Every epoch still pinnable from the bounded manager must agree
        // arc-for-arc (and in total) with the reference manager.
        let pinnable: Vec<(u64, RoadNetwork)> = (0..=bounded.current_epoch().get())
            .filter_map(|e| Some((e, bounded.pin_at(EpochId(e))?)))
            .collect();
        for (e, view) in &pinnable {
            let truth = reference.pin_at(EpochId(*e)).expect("reference retains everything");
            for slot in 0..truth.num_arcs() {
                prop_assert_eq!(view.arc(slot), truth.arc(slot), "epoch {}", e);
            }
            prop_assert_eq!(adjacency(view), adjacency(&truth), "epoch {}", e);
            let (a, b) = (view.total_weight(), truth.total_weight());
            prop_assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()), "epoch {e}: {a} vs {b}");
        }
        // Any two of them diff: the touched slots are exactly the slots
        // whose weights differ between the two views.
        for (i, (a, va)) in pinnable.iter().enumerate() {
            for (b, vb) in &pinnable[i..] {
                let delta = bounded.delta_between(EpochId(*a), EpochId(*b));
                prop_assert!(delta.is_some(), "retained pair {}..{} is not diffable", a, b);
                let touched: Vec<usize> =
                    delta.unwrap().touches().iter().map(|t| t.slot as usize).collect();
                let differ: Vec<usize> =
                    (0..va.num_arcs()).filter(|&s| va.arc(s).2 != vb.arc(s).2).collect();
                prop_assert_eq!(touched, differ, "retained pair {}..{}", a, b);
            }
        }
    }
}

proptest! {
    // More cases than above: most random batches change a length or bring
    // a decrease within reach, and only the repairs they spare exercise
    // the memo.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn chained_repairs_with_memos_match_fresh_searches(
        inst in arb_instance(),
        waves in arb_waves(),
    ) {
        let built = build(&inst);
        let landmarks = Landmarks::build(&built.graph, 3, VertexId(0));
        let batches: Vec<_> = std::iter::once(inst.deltas).chain(waves).collect();
        chain(&built, &batches, false, Some(&landmarks));
        chain(&built, &batches, false, None);
    }
}

/// The decrease-only chains, as a block of 256 cases drawn the way
/// `proptest!` draws them, so that it can count across its cases: every
/// re-search must be restricted, and at least [`RESTRICTED_FLOOR`] must run.
#[test]
fn decrease_only_chains_restrict_every_re_search_and_stay_exact() {
    let mut rng = TestRng::for_test("decrease_only_chains_restrict_every_re_search_and_stay_exact");
    let mut tally = Tally::default();
    for _ in 0..256 {
        let inst = arb_instance().generate(&mut rng);
        let batches = arb_decreases().generate(&mut rng);
        let built = build(&inst);
        let landmarks = Landmarks::build(&built.graph, 3, VertexId(0));
        tally += chain(&built, &batches, true, Some(&landmarks));
        tally += chain(&built, &batches, true, None);
    }
    assert_eq!(tally.restricted, tally.researched, "no route got longer");
    assert!(tally.restricted >= RESTRICTED_FLOOR, "{} restricted re-searches", tally.restricted);
}

/// Under half of the 1,090 restricted re-searches the block runs.
const RESTRICTED_FLOOR: usize = 500;

/// Work a memo-less repair across one decreased edge within the skyline
/// radius does before its re-search and the search for `h`, which is also
/// its relevance check: the legs of every route not shorter than `floor`
/// (the landmark bound to the nearer tail). Returns it with the routes
/// rescored (the re-search's seeds).
fn in_place_work(
    graph: &RoadNetwork,
    start: VertexId,
    cached: &[skysr::core::SkylineRoute],
    floor: f64,
) -> (SearchStats, Vec<skysr::core::SkylineRoute>) {
    let mut ws = DijkstraWorkspace::new(graph.num_vertices());
    let mut work = SearchStats::default();
    let mut seeds = Vec::new();
    for r in cached.iter().filter(|r| !safely_beyond(floor, r.length.get())) {
        let (mut at, mut length) = (start, Cost::ZERO);
        for &p in &r.pois {
            let (d, leg) = point_to_point(graph, &mut ws, at, p);
            work.merge(&leg);
            (at, length) = (p, length + d.expect("a cached leg stays reachable"));
        }
        seeds.push(skysr::core::SkylineRoute { length, ..r.clone() });
    }
    seeds.extend(cached.iter().filter(|r| safely_beyond(floor, r.length.get())).cloned());
    (work, seeds)
}

/// An edge with both ends off every path of `cached` (as `graph`'s leg
/// searches realise them), its first end the first such vertex at least
/// half the skyline radius from the start, its other end within the radius.
fn edge_off_the_skyline(
    graph: &RoadNetwork,
    start: VertexId,
    cached: &[skysr::core::SkylineRoute],
) -> Option<(VertexId, VertexId, f64)> {
    let mut ws = DijkstraWorkspace::new(graph.num_vertices());
    let mut on_path = vec![false; graph.num_vertices()];
    for r in cached {
        let mut at = start;
        for &p in &r.pois {
            point_to_point(graph, &mut ws, at, p);
            for v in ws.path_to(p).expect("a cached leg is reachable") {
                on_path[v.index()] = true;
            }
            at = p;
        }
    }
    let radius = cached.iter().map(|r| r.length).max()?.get();
    let mut near = Vec::new();
    dijkstra_with(graph, &mut ws, &[(start, Cost::ZERO)], |v, d| {
        if d.get() > radius {
            return Settle::Stop;
        }
        if d.get() >= radius / 2.0 && !on_path[v.index()] {
            near.push(v);
        }
        Settle::Continue
    });
    near.iter().find_map(|&u| {
        let off =
            |v: VertexId| !on_path[v.index()] && ws.distance(v).is_some_and(|d| d.get() <= radius);
        graph
            .neighbors(u)
            .find(|&(v, _)| v != u && off(v) && ws.settled(v))
            .map(|(v, w)| (u, v, w.get()))
    })
}

/// How many times fewer vertices the restricted re-searches of
/// [`a_restricted_re_search_settles_a_fraction_of_the_full_one`] must
/// settle than the full ones. They settle 4,433 against 10,779 (2.43x): the
/// search for `h` 2,078 of them, the search itself 2,355.
const RESTRICTED_WORK_FACTOR: f64 = 1.5;

/// Twelve stale skylines of a generated city, each repaired across one
/// decreased edge placed inside its radius and off every skyline path: the
/// restricted re-search (the search for `h` and the search itself) returns
/// what the full warm re-search seeded alike returns, and settles at most
/// 1 / [`RESTRICTED_WORK_FACTOR`] of its vertices. The repair's own count
/// includes its legs, which [`in_place_work`] recounts.
#[test]
fn a_restricted_re_search_settles_a_fraction_of_the_full_one() {
    let city = DatasetSpec::preset(Preset::CalSmall).scale(0.25).seed(41).generate();
    let queries = WorkloadSpec::new(3).queries(12).seed(7).generate(&city).queries;
    let landmarks = Landmarks::build(&city.graph, 8, VertexId(0));
    let (mut restricted, mut full) = (0u64, 0u64);
    for query in &queries {
        let cached = Bssr::new(&city.context()).run(query).expect("valid query").routes;
        let (u, v, w) = edge_off_the_skyline(&city.graph, query.start, &cached)
            .expect("an edge off the skyline within its radius");
        let epochs = WeightEpoch::new(city.graph.clone());
        let to = epochs.publish(&[WeightDelta::new(u, v, w / 2.0)]);
        let delta = epochs.delta_between(EpochId::BASE, to).unwrap();
        let pinned = epochs.pin();
        let ctx = QueryContext::new(&pinned, &city.forest, &city.pois);
        let repaired = (Bssr::new(&ctx).repair(query, &cached, &delta, Some(&landmarks)))
            .expect("valid query");
        assert_eq!(repaired.repair.outcome, RepairOutcome::Researched, "{query:?}");
        assert_eq!(repaired.stats.restricted_researches, 1, "{query:?}");
        let bound = |t| landmarks.lower_bound(query.start, t).get();
        let floor = delta.from_min_ratio() * bound(u).min(bound(v));
        let (in_place, seeds) = in_place_work(&pinned, query.start, &cached, floor);
        // No leg shortened: the restricted re-search's seeds are the cache.
        assert!(equivalent_skylines(&seeds, &cached), "{query:?}");
        let pq = PreparedQuery::prepare(&ctx, query).expect("valid query");
        let warm = Bssr::new(&ctx).run_prepared_warm(&pq, &seeds);
        assert!(equivalent_skylines(&repaired.routes, &warm.routes), "{query:?}");
        restricted += (repaired.stats.search.settled.checked_sub(in_place.settled))
            .expect("the repair settled at least its legs");
        full += warm.stats.search.settled;
    }
    assert!(
        restricted as f64 * RESTRICTED_WORK_FACTOR <= full as f64,
        "the restricted re-searches settled {restricted}, the full ones {full}"
    );
}
