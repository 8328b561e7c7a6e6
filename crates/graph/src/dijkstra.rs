//! Single-source Dijkstra with reusable workspace and a settle callback.
//!
//! One driver serves plain shortest-path queries, radius-bounded searches,
//! and "stop at first hit" nearest-neighbour probes: the callback decides,
//! per settled vertex, whether to continue, skip expanding that vertex's
//! neighbours (Lemma 5.5(ii)), or stop the search.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::csr::RoadNetwork;
use crate::stats::SearchStats;
use crate::versioned::StampedRecords;
use crate::weight::Cost;
use crate::VertexId;

/// Decision returned by the settle callback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Settle {
    /// Keep searching; expand this vertex's neighbours.
    Continue,
    /// Keep searching but do not expand this vertex's neighbours.
    SkipNeighbors,
    /// Terminate the whole search.
    Stop,
}

/// No predecessor: a source, or a vertex not reached through an edge.
const NO_PARENT: u32 = u32::MAX;

/// One vertex's search state: `(distance, parent)`, the best distance
/// found and the shortest-path predecessor (a tuple, see
/// [`StampedRecords`]).
type Reach = (f64, u32);

const UNREACHED: Reach = (f64::INFINITY, NO_PARENT);

/// Reusable scratch state for Dijkstra runs over one graph size.
///
/// One [`StampedRecords`] record per vertex holds its distance, parent and
/// settled flag, so the per-run reset is O(1) instead of O(|V|) — which
/// matters because BSSR runs the modified Dijkstra algorithm hundreds of
/// times per query — and a relaxation touches one record.
#[derive(Clone, Debug)]
pub struct DijkstraWorkspace {
    records: StampedRecords<Reach>,
    heap: BinaryHeap<Reverse<(Cost, VertexId)>>,
}

impl DijkstraWorkspace {
    /// Workspace for graphs with up to `n` vertices.
    pub fn new(n: usize) -> DijkstraWorkspace {
        DijkstraWorkspace { records: StampedRecords::new(n, UNREACHED), heap: BinaryHeap::new() }
    }

    /// Ensures capacity for `n` vertices.
    pub fn ensure(&mut self, n: usize) {
        self.records.resize(n);
    }

    fn reset(&mut self) {
        self.records.clear();
        self.heap.clear();
    }

    /// Final distance of `v` from the last run's sources (if settled or
    /// queued; queued entries hold their best tentative distance).
    pub fn distance(&self, v: VertexId) -> Option<Cost> {
        self.records.get(v.index()).map(|(dist, _)| Cost::new(dist))
    }

    /// Whether `v` was settled in the last run.
    pub fn settled(&self, v: VertexId) -> bool {
        self.records.is_settled(v.index())
    }

    /// Predecessor of `v` on its shortest path, if any.
    pub fn parent(&self, v: VertexId) -> Option<VertexId> {
        let (_, parent) = self.records.get(v.index())?;
        (parent != NO_PARENT).then_some(VertexId(parent))
    }

    /// Reconstructs the vertex path from a source to `v` (inclusive) using
    /// the last run's parent pointers. Returns `None` if `v` was not
    /// reached.
    pub fn path_to(&self, v: VertexId) -> Option<Vec<VertexId>> {
        self.records.get(v.index())?;
        let mut path = vec![v];
        let mut cur = v;
        while let Some(p) = self.parent(cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        Some(path)
    }
}

/// Runs Dijkstra from `sources` (each with an initial offset cost), calling
/// `on_settle(vertex, dist)` for every settled vertex in non-decreasing
/// distance order.
///
/// The workspace retains distances and parents afterwards for path
/// reconstruction. Returns search statistics.
pub fn dijkstra_with<F>(
    graph: &RoadNetwork,
    ws: &mut DijkstraWorkspace,
    sources: &[(VertexId, Cost)],
    mut on_settle: F,
) -> SearchStats
where
    F: FnMut(VertexId, Cost) -> Settle,
{
    ws.ensure(graph.num_vertices());
    ws.reset();
    let mut stats = SearchStats::default();
    for &(s, c) in sources {
        let (dist, _) = ws.records.reach(s.index()).expect("nothing is settled before the search");
        if c.get() < *dist {
            *dist = c.get();
            ws.heap.push(Reverse((c, s)));
            stats.pushed += 1;
        }
    }
    while let Some(Reverse((d, u))) = ws.heap.pop() {
        // A vertex's first pop carries its final distance; any later entry
        // for it is stale.
        if ws.records.settle(u.index()).is_none() {
            continue;
        }
        stats.settled += 1;
        match on_settle(u, d) {
            Settle::Stop => break,
            Settle::SkipNeighbors => continue,
            Settle::Continue => {}
        }
        for (v, w) in graph.neighbors(u) {
            stats.relaxed += 1;
            stats.weight_sum += w.get();
            let Some(rec) = ws.records.reach(v.index()) else {
                continue;
            };
            let nd = d + w;
            if nd.get() < rec.0 {
                *rec = (nd.get(), u.0);
                ws.heap.push(Reverse((nd, v)));
                stats.pushed += 1;
            }
        }
    }
    stats
}

/// Convenience: full single-source search; afterwards query the workspace
/// for distances/paths.
pub fn dijkstra(graph: &RoadNetwork, ws: &mut DijkstraWorkspace, source: VertexId) -> SearchStats {
    dijkstra_with(graph, ws, &[(source, Cost::ZERO)], |_, _| Settle::Continue)
}

/// Shortest-path distance between two vertices, terminating as soon as the
/// target settles, with the search's statistics.
pub fn point_to_point(
    graph: &RoadNetwork,
    ws: &mut DijkstraWorkspace,
    source: VertexId,
    target: VertexId,
) -> (Option<Cost>, SearchStats) {
    let mut found = None;
    let stats = dijkstra_with(graph, ws, &[(source, Cost::ZERO)], |v, d| {
        if v == target {
            found = Some(d);
            Settle::Stop
        } else {
            Settle::Continue
        }
    });
    (found, stats)
}

/// Convenience: [`point_to_point`]'s distance alone.
pub fn shortest_distance(
    graph: &RoadNetwork,
    ws: &mut DijkstraWorkspace,
    source: VertexId,
    target: VertexId,
) -> Option<Cost> {
    point_to_point(graph, ws, source, target).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use proptest::prelude::*;

    /// 0 -1- 1 -1- 2
    ///  \----5----/
    fn diamond() -> RoadNetwork {
        let mut b = GraphBuilder::new();
        let v: Vec<_> = (0..3).map(|_| b.add_vertex()).collect();
        b.add_edge(v[0], v[1], 1.0);
        b.add_edge(v[1], v[2], 1.0);
        b.add_edge(v[0], v[2], 5.0);
        b.build()
    }

    #[test]
    fn shortest_path_prefers_two_hop() {
        let g = diamond();
        let mut ws = DijkstraWorkspace::new(g.num_vertices());
        let d = shortest_distance(&g, &mut ws, VertexId(0), VertexId(2)).unwrap();
        assert_eq!(d, Cost::new(2.0));
    }

    #[test]
    fn full_search_settles_all_reachable() {
        let g = diamond();
        let mut ws = DijkstraWorkspace::new(g.num_vertices());
        let stats = dijkstra(&g, &mut ws, VertexId(0));
        assert_eq!(stats.settled, 3);
        assert_eq!(ws.distance(VertexId(0)), Some(Cost::ZERO));
        assert_eq!(ws.distance(VertexId(1)), Some(Cost::new(1.0)));
        assert_eq!(ws.distance(VertexId(2)), Some(Cost::new(2.0)));
    }

    #[test]
    fn path_reconstruction() {
        let g = diamond();
        let mut ws = DijkstraWorkspace::new(g.num_vertices());
        dijkstra(&g, &mut ws, VertexId(0));
        assert_eq!(ws.path_to(VertexId(2)).unwrap(), vec![VertexId(0), VertexId(1), VertexId(2)]);
    }

    #[test]
    fn unreachable_vertex_has_no_distance() {
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex();
        let _v1 = b.add_vertex();
        let _ = v0;
        let g = b.build();
        let mut ws = DijkstraWorkspace::new(g.num_vertices());
        dijkstra(&g, &mut ws, VertexId(0));
        assert_eq!(ws.distance(VertexId(1)), None);
        assert_eq!(ws.path_to(VertexId(1)), None);
        assert!(shortest_distance(&g, &mut ws, VertexId(0), VertexId(1)).is_none());
    }

    #[test]
    fn skip_neighbors_blocks_expansion() {
        // 0 -1- 1 -1- 2: skipping 1's neighbours makes 2 unreachable.
        let mut b = GraphBuilder::new();
        let v: Vec<_> = (0..3).map(|_| b.add_vertex()).collect();
        b.add_edge(v[0], v[1], 1.0);
        b.add_edge(v[1], v[2], 1.0);
        let g = b.build();
        let mut ws = DijkstraWorkspace::new(g.num_vertices());
        let mut settled = vec![];
        dijkstra_with(&g, &mut ws, &[(VertexId(0), Cost::ZERO)], |v, _| {
            settled.push(v);
            if v == VertexId(1) {
                Settle::SkipNeighbors
            } else {
                Settle::Continue
            }
        });
        assert_eq!(settled, vec![VertexId(0), VertexId(1)]);
    }

    #[test]
    fn stop_terminates_early() {
        let g = diamond();
        let mut ws = DijkstraWorkspace::new(g.num_vertices());
        let mut count = 0;
        dijkstra_with(&g, &mut ws, &[(VertexId(0), Cost::ZERO)], |_, _| {
            count += 1;
            Settle::Stop
        });
        assert_eq!(count, 1);
    }

    #[test]
    fn source_offsets_act_like_virtual_super_source() {
        let g = diamond();
        let mut ws = DijkstraWorkspace::new(g.num_vertices());
        // Source 2 starts 0.5 "ahead": vertex 1 is reached at min(1.0, 0.5+1.0).
        dijkstra_with(
            &g,
            &mut ws,
            &[(VertexId(0), Cost::ZERO), (VertexId(2), Cost::new(0.5))],
            |_, _| Settle::Continue,
        );
        assert_eq!(ws.distance(VertexId(1)), Some(Cost::new(1.0)));
        assert_eq!(ws.distance(VertexId(2)), Some(Cost::new(0.5)));
    }

    #[test]
    fn settle_order_is_nondecreasing() {
        let g = diamond();
        let mut ws = DijkstraWorkspace::new(g.num_vertices());
        let mut last = Cost::ZERO;
        dijkstra_with(&g, &mut ws, &[(VertexId(0), Cost::ZERO)], |_, d| {
            assert!(d >= last);
            last = d;
            Settle::Continue
        });
    }

    #[test]
    fn workspace_reuse_resets_state() {
        let g = diamond();
        let mut ws = DijkstraWorkspace::new(g.num_vertices());
        dijkstra(&g, &mut ws, VertexId(0));
        dijkstra(&g, &mut ws, VertexId(2));
        assert_eq!(ws.distance(VertexId(0)), Some(Cost::new(2.0)));
        assert_eq!(ws.distance(VertexId(2)), Some(Cost::ZERO));
    }

    #[test]
    fn zero_weight_edges_are_fine() {
        let mut b = GraphBuilder::new();
        let v: Vec<_> = (0..3).map(|_| b.add_vertex()).collect();
        b.add_edge(v[0], v[1], 0.0);
        b.add_edge(v[1], v[2], 0.0);
        let g = b.build();
        let mut ws = DijkstraWorkspace::new(g.num_vertices());
        dijkstra(&g, &mut ws, VertexId(0));
        assert_eq!(ws.distance(VertexId(2)), Some(Cost::ZERO));
    }

    #[test]
    fn stats_count_work() {
        let g = diamond();
        let mut ws = DijkstraWorkspace::new(g.num_vertices());
        let stats = dijkstra(&g, &mut ws, VertexId(0));
        assert_eq!(stats.settled, 3);
        assert!(stats.relaxed >= 4);
        assert!(stats.weight_sum > 0.0);
    }

    /// One search: sources `(vertex, offset)` and, per vertex, the settle
    /// decision (0 stop, 1 skip neighbours, anything else continue).
    type Search = (Vec<(usize, u32)>, Vec<u32>);

    fn arb_searches(n: usize) -> impl Strategy<Value = Vec<Search>> {
        let search =
            (prop::collection::vec((0..n, 0u32..4), 1..4), prop::collection::vec(0u32..12, n));
        prop::collection::vec(search, 1..10)
    }

    /// Runs `searches` in order on one workspace, started `near_wrap`
    /// clears before its stamps wrap around if set, and each on a fresh
    /// workspace; after every search, everything a caller can observe must
    /// agree.
    fn recycled_matches_fresh(graph: &RoadNetwork, searches: &[Search], near_wrap: Option<u32>) {
        let n = graph.num_vertices();
        let mut recycled = DijkstraWorkspace::new(n);
        if let Some(clears) = near_wrap {
            recycled.records.clear_near_wrap(clears);
        }
        for (i, (sources, decide)) in searches.iter().enumerate() {
            let sources: Vec<(VertexId, Cost)> =
                sources.iter().map(|&(v, c)| (VertexId(v as u32), Cost::new(c as f64))).collect();
            let run = |ws: &mut DijkstraWorkspace| {
                let mut order = Vec::new();
                let stats = dijkstra_with(graph, ws, &sources, |v, d| {
                    order.push((v, d));
                    match decide[v.index()] {
                        0 => Settle::Stop,
                        1 => Settle::SkipNeighbors,
                        _ => Settle::Continue,
                    }
                });
                (stats, order)
            };
            let mut fresh = DijkstraWorkspace::new(n);
            assert_eq!(run(&mut recycled), run(&mut fresh), "search {i}: stats or settle order");
            for v in graph.vertices() {
                assert_eq!(recycled.distance(v), fresh.distance(v), "search {i}: distance {v:?}");
                assert_eq!(recycled.parent(v), fresh.parent(v), "search {i}: parent {v:?}");
                assert_eq!(recycled.settled(v), fresh.settled(v), "search {i}: settled {v:?}");
                assert_eq!(recycled.path_to(v), fresh.path_to(v), "search {i}: path {v:?}");
            }
        }
    }

    fn random_graph(n: usize, directed: bool, edges: &[(usize, usize, u32)]) -> RoadNetwork {
        let mut b = if directed { GraphBuilder::directed() } else { GraphBuilder::new() };
        let vs: Vec<VertexId> = (0..n).map(|_| b.add_vertex()).collect();
        for &(a, c, w) in edges {
            // Small integer weights, zero included: ties and zero-length
            // hops exercise the heap's tie-break.
            b.add_edge(vs[a], vs[c], w as f64);
        }
        b.build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn recycled_workspace_matches_fresh_per_search(
            case in (2usize..14).prop_flat_map(|n| (
                Just(n),
                any::<bool>(),
                prop::collection::vec((0..n, 0..n, 0u32..4), 0..30),
                arb_searches(n),
            )),
        ) {
            let (n, directed, edges, searches) = case;
            recycled_matches_fresh(&random_graph(n, directed, &edges), &searches, None);
        }

        #[test]
        fn recycled_workspace_matches_fresh_across_stamp_wrap(
            case in (2usize..14).prop_flat_map(|n| (
                Just(n),
                any::<bool>(),
                prop::collection::vec((0..n, 0..n, 0u32..4), 0..30),
                arb_searches(n),
                0u32..4,
            )),
        ) {
            let (n, directed, edges, searches, near_wrap) = case;
            recycled_matches_fresh(&random_graph(n, directed, &edges), &searches, Some(near_wrap));
        }
    }
}
