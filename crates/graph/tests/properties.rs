//! Property-based tests for the graph substrate: Dijkstra family
//! invariants on arbitrary random graphs.

use proptest::prelude::*;
use skysr_graph::dijkstra::{dijkstra, shortest_distance, DijkstraWorkspace};
use skysr_graph::multi_source::min_set_distance;
use skysr_graph::path::path_cost;
use skysr_graph::{Cost, GraphBuilder, ResumableDijkstra, RoadNetwork, VertexId};

#[derive(Debug, Clone)]
struct RandomGraph {
    n: usize,
    path_weights: Vec<f64>,
    extra: Vec<(usize, usize, f64)>,
}

fn arb_graph() -> impl Strategy<Value = RandomGraph> {
    (3usize..14).prop_flat_map(|n| {
        (
            Just(n),
            prop::collection::vec(0.1f64..20.0, n - 1),
            prop::collection::vec((0..n, 0..n, 0.1f64..20.0), 0..16),
        )
            .prop_map(|(n, path_weights, extra)| RandomGraph { n, path_weights, extra })
    })
}

fn build(g: &RandomGraph) -> RoadNetwork {
    let mut b = GraphBuilder::new();
    let vs: Vec<VertexId> = (0..g.n).map(|_| b.add_vertex()).collect();
    for (i, &w) in g.path_weights.iter().enumerate() {
        b.add_edge(vs[i], vs[i + 1], w);
    }
    for &(a, c, w) in &g.extra {
        b.add_edge(vs[a], vs[c], w);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dijkstra_satisfies_triangle_inequality_on_edges(g in arb_graph()) {
        // For every edge (u, v, w): d(s, v) ≤ d(s, u) + w.
        let net = build(&g);
        let mut ws = DijkstraWorkspace::new(net.num_vertices());
        dijkstra(&net, &mut ws, VertexId(0));
        for u in net.vertices() {
            let du = ws.distance(u).expect("connected by construction");
            for (v, w) in net.neighbors(u) {
                let dv = ws.distance(v).unwrap();
                prop_assert!(dv <= du + w + Cost::new(1e-9));
            }
        }
    }

    #[test]
    fn dijkstra_parent_path_realises_distance(g in arb_graph()) {
        let net = build(&g);
        let mut ws = DijkstraWorkspace::new(net.num_vertices());
        dijkstra(&net, &mut ws, VertexId(0));
        for v in net.vertices() {
            let path = ws.path_to(v).expect("reachable");
            prop_assert_eq!(path.first().copied(), Some(VertexId(0)));
            prop_assert_eq!(path.last().copied(), Some(v));
            let cost = path_cost(&net, &path).expect("path uses real edges");
            let d = ws.distance(v).unwrap();
            prop_assert!((cost.get() - d.get()).abs() <= 1e-9 * (1.0 + d.get()));
        }
    }

    #[test]
    fn point_to_point_matches_full_search(g in arb_graph()) {
        let net = build(&g);
        let mut ws = DijkstraWorkspace::new(net.num_vertices());
        let target = VertexId((g.n - 1) as u32);
        let early = shortest_distance(&net, &mut ws, VertexId(0), target);
        dijkstra(&net, &mut ws, VertexId(0));
        prop_assert_eq!(early, ws.distance(target));
    }

    #[test]
    fn resumable_settles_same_distances(g in arb_graph()) {
        let net = build(&g);
        let mut ws = DijkstraWorkspace::new(net.num_vertices());
        dijkstra(&net, &mut ws, VertexId(0));
        let mut rd = ResumableDijkstra::new(&net, VertexId(0));
        let mut settled = 0usize;
        let mut last = Cost::ZERO;
        while let Some((v, d)) = rd.next_settled() {
            prop_assert!(d >= last, "settle order must be non-decreasing");
            last = d;
            prop_assert_eq!(Some(d), ws.distance(v));
            settled += 1;
        }
        prop_assert_eq!(settled, net.num_vertices());
    }

    #[test]
    fn multi_source_equals_min_over_sources(g in arb_graph()) {
        let net = build(&g);
        let mut ws = DijkstraWorkspace::new(net.num_vertices());
        let sources = [VertexId(0), VertexId((g.n / 2) as u32)];
        let dest = VertexId((g.n - 1) as u32);
        let got = min_set_distance(&net, &mut ws, &sources, |v| v == dest, Cost::INFINITY)
            .hit
            .map(|(_, d)| d);
        let mut expect: Option<Cost> = None;
        for s in sources {
            dijkstra(&net, &mut ws, s);
            if let Some(d) = ws.distance(dest) {
                expect = Some(expect.map_or(d, |e| e.min(d)));
            }
        }
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn distances_are_symmetric_on_undirected_graphs(g in arb_graph()) {
        let net = build(&g);
        let mut ws = DijkstraWorkspace::new(net.num_vertices());
        let a = VertexId(0);
        let b = VertexId((g.n - 1) as u32);
        let ab = shortest_distance(&net, &mut ws, a, b).unwrap();
        let ba = shortest_distance(&net, &mut ws, b, a).unwrap();
        prop_assert!((ab.get() - ba.get()).abs() <= 1e-9 * (1.0 + ab.get()));
    }
}

// ---------------------------------------------------------------------------
// Dynamic weights: epoch-versioned overlays must be indistinguishable from a
// graph rebuilt with the updated weights, and pins must be immutable.
// ---------------------------------------------------------------------------

use skysr_graph::epoch::{EpochId, WeightDelta, WeightEpoch};

/// A random graph plus a sequence of weight-update batches, each naming
/// input edges by index with a fresh weight.
#[derive(Debug, Clone)]
struct RandomUpdates {
    graph: RandomGraph,
    /// Per batch: (edge index, new weight). Indexes cover both the path
    /// edges and the extras.
    batches: Vec<Vec<(usize, f64)>>,
}

fn arb_updates(batches: std::ops::Range<usize>) -> impl Strategy<Value = RandomUpdates> {
    arb_graph().prop_flat_map(move |graph| {
        let edges = graph.path_weights.len() + graph.extra.len();
        (
            Just(graph),
            prop::collection::vec(
                prop::collection::vec((0..edges, 0.1f64..20.0), 1..6),
                batches.clone(),
            ),
        )
            .prop_map(|(graph, batches)| RandomUpdates { graph, batches })
    })
}

/// The input edges of a [`RandomGraph`] in builder insertion order.
fn input_edges(g: &RandomGraph) -> Vec<(usize, usize, f64)> {
    let mut edges: Vec<(usize, usize, f64)> =
        g.path_weights.iter().enumerate().map(|(i, &w)| (i, i + 1, w)).collect();
    edges.extend(g.extra.iter().copied());
    edges
}

/// Reference model: rebuilds the network from scratch with every update
/// applied the way `WeightEpoch::publish` defines it — a delta on edge
/// (u, v) retargets *all* parallel edges between u and v.
fn rebuild_with_updates(g: &RandomGraph, batches: &[Vec<(usize, f64)>]) -> RoadNetwork {
    let mut edges = input_edges(g);
    for batch in batches {
        for &(i, w) in batch {
            let (u, v, _) = edges[i];
            let pair = |a: usize, b: usize| (a.min(b), a.max(b));
            let key = pair(u, v);
            for e in edges.iter_mut() {
                if pair(e.0, e.1) == key {
                    e.2 = w;
                }
            }
        }
    }
    let mut b = GraphBuilder::new();
    let vs: Vec<VertexId> = (0..g.n).map(|_| b.add_vertex()).collect();
    for (u, v, w) in edges {
        b.add_edge(vs[u], vs[v], w);
    }
    b.build()
}

/// Every vertex's out-arcs with their costs, as `neighbors()` reports them.
fn adjacency(g: &RoadNetwork) -> Vec<Vec<(VertexId, Cost)>> {
    g.vertices().map(|v| g.neighbors(v).collect()).collect()
}

fn publish_all(epochs: &WeightEpoch, g: &RandomGraph, batches: &[Vec<(usize, f64)>]) {
    let edges = input_edges(g);
    for batch in batches {
        let deltas: Vec<WeightDelta> = batch
            .iter()
            .map(|&(i, w)| {
                let (u, v, _) = edges[i];
                WeightDelta::new(VertexId(u as u32), VertexId(v as u32), w)
            })
            .collect();
        epochs.publish(&deltas);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn pinned_overlay_equals_rebuilt_graph(u in arb_updates(1..5)) {
        let net = build(&u.graph);
        let epochs = WeightEpoch::new(net);
        publish_all(&epochs, &u.graph, &u.batches);
        let pinned = epochs.pin();
        let rebuilt = rebuild_with_updates(&u.graph, &u.batches);
        prop_assert_eq!(pinned.epoch(), EpochId(u.batches.len() as u64));
        // Arc-by-arc identical weights (same CSR layout by construction).
        prop_assert_eq!(pinned.num_arcs(), rebuilt.num_arcs());
        for v in pinned.vertices() {
            let a: Vec<_> = pinned.neighbors(v).collect();
            let b: Vec<_> = rebuilt.neighbors(v).collect();
            prop_assert_eq!(a, b, "vertex {} adjacency differs", v);
        }
        // And therefore identical shortest-path structure.
        let mut wa = DijkstraWorkspace::new(pinned.num_vertices());
        let mut wb = DijkstraWorkspace::new(rebuilt.num_vertices());
        dijkstra(&pinned, &mut wa, VertexId(0));
        dijkstra(&rebuilt, &mut wb, VertexId(0));
        for v in pinned.vertices() {
            prop_assert_eq!(wa.distance(v), wb.distance(v));
        }
    }

    #[test]
    fn pins_are_immutable_across_later_publishes(u in arb_updates(1..5)) {
        let net = build(&u.graph);
        let epochs = WeightEpoch::new(net.clone());
        // Pin every intermediate epoch while publishing.
        let edges = input_edges(&u.graph);
        let mut pins = vec![epochs.pin()];
        for batch in &u.batches {
            let deltas: Vec<WeightDelta> = batch
                .iter()
                .map(|&(i, w)| {
                    let (a, b, _) = edges[i];
                    WeightDelta::new(VertexId(a as u32), VertexId(b as u32), w)
                })
                .collect();
            epochs.publish(&deltas);
            pins.push(epochs.pin());
        }
        // Each pin still renders exactly its prefix of the update history.
        for (k, pin) in pins.iter().enumerate() {
            prop_assert_eq!(pin.epoch(), EpochId(k as u64));
            let expect = rebuild_with_updates(&u.graph, &u.batches[..k]);
            for v in pin.vertices() {
                let a: Vec<_> = pin.neighbors(v).collect();
                let b: Vec<_> = expect.neighbors(v).collect();
                prop_assert_eq!(a, b, "epoch {} vertex {}", k, v);
            }
            // pin_at reproduces the same historical view.
            let again = epochs.pin_at(EpochId(k as u64)).expect("published epoch");
            for v in pin.vertices() {
                let a: Vec<_> = pin.neighbors(v).collect();
                let b: Vec<_> = again.neighbors(v).collect();
                prop_assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn a_manager_over_a_pinned_overlay_matches_the_rebuilt_graph(
        u in arb_updates(2..6),
        cut in 0usize..4,
    ) {
        // One manager publishes the first batches; a second takes its
        // pinned view, overlay and all, as epoch 0 and publishes the rest.
        let split = 1 + cut % (u.batches.len() - 1);
        let first = WeightEpoch::new(build(&u.graph));
        publish_all(&first, &u.graph, &u.batches[..split]);
        let second = WeightEpoch::new(first.pin());
        let pinned = second.pin();
        prop_assert_eq!(pinned.epoch(), EpochId::BASE);
        let expect = rebuild_with_updates(&u.graph, &u.batches[..split]);
        prop_assert_eq!(adjacency(&pinned), adjacency(&expect), "inherited epoch 0");
        for k in split + 1..=u.batches.len() {
            publish_all(&second, &u.graph, &u.batches[k - 1..k]);
            let expect = rebuild_with_updates(&u.graph, &u.batches[..k]);
            prop_assert_eq!(adjacency(&second.pin()), adjacency(&expect), "after batch {}", k);
        }
    }
}
