//! Property-based guarantees for incremental skyline repair and epoch
//! history GC, on arbitrary random instances:
//!
//! * **Repair exactness** — for random graphs, queries and weight-delta
//!   batches, `Bssr::repair` of the old-epoch skyline is score-equivalent
//!   to a from-scratch search at the new epoch, whatever tier resolved it.
//! * **Chained repairs** — across 2–4 successive delta batches, each
//!   repair reading the memo of the one before, every repaired skyline is
//!   score-equivalent to a from-scratch search at its epoch and reaches the
//!   same outcome as a repair without a memo; with landmarks and without
//!   (then nothing clears at the floor, and every route and relevance check
//!   goes through the memo).
//! * **Untouched conservativeness** — whenever the cheap
//!   `wholesale_untouched` lower-bound check accepts a delta, the cached
//!   skyline *is* byte-for-byte the new epoch's exact skyline: the check
//!   never drops (or keeps) a route a full search would decide otherwise.
//! * **GC/compaction transparency** — compacting the epoch history never
//!   changes any arc weight (nor `total_weight`) observable through any
//!   still-pinnable epoch, by arc slot or by neighbour scan, with pins held
//!   across sweeps and rebases.

use proptest::prelude::*;
use skysr::category::{CategoryForest, CategoryId, ForestBuilder};
use skysr::core::bssr::repair::{wholesale_untouched, RepairMemo};
use skysr::core::bssr::{Bssr, RepairOutcome};
use skysr::core::route::equivalent_skylines;
use skysr::core::{PoiTable, PreparedQuery, QueryContext, SkySrQuery};
use skysr::graph::{
    Cost, DeltaIndex, EpochId, GraphBuilder, Landmarks, RoadNetwork, VertexId, WeightDelta,
    WeightEpoch,
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

/// Publishes `built.deltas` and then each of `waves` in turn, repairing the
/// previous skyline across every batch with the previous repair's memo.
/// Each repaired skyline must match a fresh search at its epoch and reach
/// the outcome a repair without a memo reaches.
fn chain(built: &Built, waves: &[Vec<(usize, f64)>], landmarks: Option<&Landmarks>) {
    let epochs = WeightEpoch::new(built.graph.clone());
    let base = epochs.pin();
    let ctx0 = QueryContext::new(&base, &built.forest, &built.pois);
    let mut cached = Bssr::new(&ctx0).run(&built.query).expect("valid query").routes;
    let mut memo: Option<RepairMemo> = None;
    let mut at = EpochId::BASE;
    let batches =
        std::iter::once(built.deltas.clone()).chain(waves.iter().map(|w| resolve(&built.graph, w)));
    for (i, batch) in batches.enumerate() {
        let to = epochs.publish(&batch);
        let delta = epochs.delta_between(at, to).expect("every epoch is retained");
        let index = DeltaIndex::build(delta, landmarks);
        let pinned = epochs.pin();
        let ctx = QueryContext::new(&pinned, &built.forest, &built.pois);
        let pq = PreparedQuery::prepare(&ctx, &built.query).expect("valid query");
        let with = Bssr::new(&ctx).repair_prepared(&pq, &cached, memo.as_ref(), &index, landmarks);
        let without =
            Bssr::new(&ctx).repair(&built.query, &cached, &index, landmarks).expect("valid query");
        let fresh = Bssr::new(&ctx).run(&built.query).unwrap().routes;
        assert!(
            equivalent_skylines(&with.routes, &fresh),
            "batch {i}, outcome {:?}: repaired {:?} vs fresh {fresh:?} (batch {batch:?})",
            with.repair.outcome,
            with.routes,
        );
        assert_eq!(with.repair.outcome, without.repair.outcome, "batch {i}");
        (cached, memo, at) = (with.routes, Some(with.memo), to);
    }
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
        let index = DeltaIndex::build(delta, Some(&landmarks));
        let pinned = epochs.pin();
        let ctx = QueryContext::new(&pinned, &built.forest, &built.pois);
        let repaired = Bssr::new(&ctx)
            .repair(&built.query, &cached, &index, Some(&landmarks))
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
        // Whenever the cheap check accepts, the cached skyline must be
        // *identical* (same scores, not just equivalent) to a from-scratch
        // search at the new epoch — the check may never approve a delta
        // that could drop, add or rescore a route.
        let built = build(&inst);
        let epochs = WeightEpoch::new(built.graph.clone());
        let landmarks = Landmarks::build(&built.graph, 3, VertexId(0));
        let base = epochs.pin();
        let ctx0 = QueryContext::new(&base, &built.forest, &built.pois);
        let cached = Bssr::new(&ctx0).run(&built.query).expect("valid query").routes;
        let max_len = cached.iter().map(|r| r.length).max().unwrap_or(Cost::ZERO);

        let to = epochs.publish(&built.deltas);
        let index =
            DeltaIndex::build(epochs.delta_between(EpochId::BASE, to).unwrap(), Some(&landmarks));
        if !cached.is_empty()
            && wholesale_untouched(&index, Some(&landmarks), built.query.start, max_len)
        {
            let pinned = epochs.pin();
            let ctx = QueryContext::new(&pinned, &built.forest, &built.pois);
            let fresh = Bssr::new(&ctx).run(&built.query).unwrap().routes;
            prop_assert!(
                equivalent_skylines(&cached, &fresh),
                "untouched-approved delta changed the skyline: cached {cached:?} vs fresh \
                 {fresh:?} (deltas {:?})",
                built.deltas
            );
            // And the repair tier must agree with its own classification.
            let repaired = Bssr::new(&ctx)
                .repair(&built.query, &cached, &index, Some(&landmarks))
                .unwrap();
            prop_assert_eq!(repaired.repair.outcome, RepairOutcome::Untouched);
        }
    }

    #[test]
    fn compaction_preserves_weights_at_every_pinnable_epoch(inst in arb_instance()) {
        // Publish several batches, hold pins on a couple of epochs, run
        // sweeps + rebases, and require every still-pinnable epoch to
        // report exactly the weights an uncompacted manager reports.
        let built = build(&inst);
        let bounded = WeightEpoch::with_retention(built.graph.clone(), 2);
        let reference = WeightEpoch::new(built.graph.clone());

        // Several single-delta batches out of the instance's pool (cycled
        // so even 1-delta instances produce a few epochs).
        let batches: Vec<&WeightDelta> = built.deltas.iter().cycle().take(5).collect();
        let mut held: Vec<(EpochId, RoadNetwork)> = Vec::new();
        for (i, d) in batches.iter().enumerate() {
            let e = bounded.publish(std::slice::from_ref(*d));
            prop_assert_eq!(e, reference.publish(std::slice::from_ref(*d)));
            // Neighbour scans read overlays through the lineage's marks,
            // which every rebase below restarts.
            let truth = adjacency(&reference.pin());
            prop_assert_eq!(adjacency(&bounded.pin()), truth.clone(), "epoch {}", e);
            if i % 2 == 0 {
                // Hold a lease on every other epoch across future sweeps.
                held.push((e, bounded.pin_at(e).expect("fresh epoch pins")));
            }
            bounded.compact(); // sweep + rebase mid-stream
            prop_assert_eq!(adjacency(&bounded.pin()), truth, "epoch {} after the rebase", e);
        }

        // Every epoch still pinnable from the bounded manager must agree
        // arc-for-arc (and in total) with the reference manager.
        for e in 0..=bounded.current_epoch().get() {
            let Some(view) = bounded.pin_at(EpochId(e)) else { continue };
            let truth = reference.pin_at(EpochId(e)).expect("reference retains everything");
            for slot in 0..truth.num_arcs() {
                prop_assert_eq!(view.arc(slot), truth.arc(slot), "epoch {}", e);
            }
            prop_assert_eq!(adjacency(&view), adjacency(&truth), "epoch {}", e);
            let (a, b) = (view.total_weight(), truth.total_weight());
            prop_assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()), "epoch {e}: {a} vs {b}");
        }
        // Held leases specifically survived every sweep, unchanged.
        for (e, view) in &held {
            let truth = reference.pin_at(*e).unwrap();
            for slot in 0..truth.num_arcs() {
                prop_assert_eq!(view.arc(slot), truth.arc(slot));
            }
            prop_assert_eq!(adjacency(view), adjacency(&truth), "held epoch {}", e);
            prop_assert!(bounded.pin_at(*e).is_some(), "leased epoch {e} stayed pinnable");
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
        chain(&built, &waves, Some(&landmarks));
        chain(&built, &waves, None);
    }
}
