//! Optimal sequenced route by state-space Dijkstra — the paper's
//! "Dijkstra-based solution" of Sharifzadeh et al. \[16\] (§2, §7.1).
//!
//! Given per-position candidate PoI sets, OSR finds the shortest route from
//! the start visiting one PoI from each set, in order. The search runs over
//! the layered state space `(vertex, stage)`: settling `(v, s)` with
//! `v ∈ set_s` allows a zero-cost transition to `(v, s + 1)`; the first
//! settled state at stage `k` is optimal.
//!
//! PoI distinctness is enforced by walking the (short) chain of transition
//! states when a transition is attempted. With overlapping candidate sets
//! this check can — in pathological cases — exclude the shortest labelled
//! path without considering a detour, so exactness of this *baseline* is
//! guaranteed for pairwise-disjoint sets (which is what the paper's
//! workloads and the skyline driver produce); BSSR itself does not have
//! this limitation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use skysr_graph::fxhash::FxHashSet;
use skysr_graph::{Cost, RoadNetwork, SearchStats, StampedRecords, VertexId};

const NONE: u32 = u32::MAX;

/// A route produced by an OSR solver.
#[derive(Clone, Debug, PartialEq)]
pub struct OsrRoute {
    /// Chosen PoIs, in visiting order (one per candidate set).
    pub pois: Vec<VertexId>,
    /// Total network length from the start through all PoIs.
    pub length: Cost,
}

/// One state's search record, `(distance, last_trans, prev_trans)`: the
/// most recent transition state on the best-known path to the state, and
/// for a transition state the one before it (a tuple, see
/// [`StampedRecords`]).
type StateRecord = (f64, u32, u32);

const UNREACHED: StateRecord = (f64::INFINITY, NONE, NONE);

/// Reusable state-space Dijkstra solver.
pub struct OsrSolver {
    states: StampedRecords<StateRecord>,
    heap: BinaryHeap<Reverse<(Cost, u32)>>,
    num_vertices: usize,
    stats: SearchStats,
}

impl OsrSolver {
    /// Solver for graphs with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> OsrSolver {
        OsrSolver {
            states: StampedRecords::new(0, UNREACHED),
            heap: BinaryHeap::new(),
            num_vertices,
            stats: SearchStats::default(),
        }
    }

    /// Cumulative search statistics across `solve` calls.
    pub fn stats(&self) -> SearchStats {
        self.stats
    }

    /// Shortest sequenced route from `start` through one member of each set
    /// in order, or `None` if no such route exists.
    pub fn solve(
        &mut self,
        graph: &RoadNetwork,
        start: VertexId,
        sets: &[FxHashSet<u32>],
    ) -> Option<OsrRoute> {
        assert_eq!(graph.num_vertices(), self.num_vertices, "solver sized for another graph");
        let k = sets.len();
        assert!(k >= 1, "OSR needs at least one candidate set");
        if sets.iter().any(|s| s.is_empty()) {
            return None;
        }
        let n = self.num_vertices;
        self.states.resize(n * (k + 1));
        self.states.clear();
        self.heap.clear();

        let state = |stage: usize, v: VertexId| stage * n + v.index();
        let s0 = state(0, start);
        self.states.reach(s0).expect("a fresh search settles nothing").0 = 0.0;
        self.heap.push(Reverse((Cost::ZERO, s0 as u32)));

        while let Some(Reverse((d, s))) = self.heap.pop() {
            let s = s as usize;
            let Some((_, last_trans, _)) = self.states.settle(s) else {
                continue;
            };
            self.stats.settled += 1;
            let stage = s / n;
            let v = VertexId((s % n) as u32);

            if stage == k {
                return Some(self.reconstruct(n, s, d));
            }

            // Transition: take v as the stage-th PoI (if distinct so far).
            if sets[stage].contains(&v.0) && !self.on_poi_chain(s, v) {
                let s2 = state(stage + 1, v);
                if let Some(next) = self.states.reach(s2) {
                    if d.get() < next.0 {
                        *next = (d.get(), s2 as u32, last_trans);
                        self.heap.push(Reverse((d, s2 as u32)));
                        self.stats.pushed += 1;
                    }
                }
            }

            // Stay in the stage and relax road edges.
            for (u, w) in graph.neighbors(v) {
                self.stats.relaxed += 1;
                self.stats.weight_sum += w.get();
                let s2 = state(stage, u);
                let Some(next) = self.states.reach(s2) else {
                    continue;
                };
                let nd = d + w;
                if nd.get() < next.0 {
                    (next.0, next.1) = (nd.get(), last_trans);
                    self.heap.push(Reverse((nd, s2 as u32)));
                    self.stats.pushed += 1;
                }
            }
        }
        None
    }

    /// Whether `v` is already one of the PoIs chosen on the path to state
    /// `s` (walks the ≤ k transition chain).
    fn on_poi_chain(&self, s: usize, v: VertexId) -> bool {
        let n = self.num_vertices;
        let mut t = self.last_trans(s);
        while t != NONE {
            if (t as usize) % n == v.index() {
                return true;
            }
            t = self.prev_trans(t as usize);
        }
        false
    }

    fn reconstruct(&self, n: usize, goal: usize, length: Cost) -> OsrRoute {
        let mut pois = Vec::new();
        let mut t = self.last_trans(goal);
        while t != NONE {
            pois.push(VertexId(((t as usize) % n) as u32));
            t = self.prev_trans(t as usize);
        }
        pois.reverse();
        OsrRoute { pois, length }
    }

    fn last_trans(&self, s: usize) -> u32 {
        self.states.get(s).map_or(NONE, |(_, last_trans, _)| last_trans)
    }

    fn prev_trans(&self, s: usize) -> u32 {
        self.states.get(s).map_or(NONE, |(_, _, prev_trans)| prev_trans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example::PaperExample;

    fn set(ids: &[u32]) -> FxHashSet<u32> {
        ids.iter().copied().collect()
    }

    #[test]
    fn shortest_perfect_route_on_fixture() {
        // Perfect sets of the paper query: Asian {2, 10}, A&E {5, 9, 12},
        // Gift {8, 13}. Optimal: ⟨p10, p12, p13⟩ at 13.
        let ex = PaperExample::new();
        let mut solver = OsrSolver::new(ex.graph.num_vertices());
        let route = solver
            .solve(&ex.graph, ex.vq, &[set(&[2, 10]), set(&[5, 9, 12]), set(&[8, 13])])
            .unwrap();
        assert_eq!(route.length, Cost::new(13.0));
        assert_eq!(route.pois, vec![VertexId(10), VertexId(12), VertexId(13)]);
    }

    #[test]
    fn semantic_level_combo_route() {
        // Italian restaurants {1, 6, 11} then A&E then Gift: optimal is
        // ⟨p6, p9, p8⟩ at 11.
        let ex = PaperExample::new();
        let mut solver = OsrSolver::new(ex.graph.num_vertices());
        let route = solver
            .solve(&ex.graph, ex.vq, &[set(&[1, 6, 11]), set(&[5, 9, 12]), set(&[8, 13])])
            .unwrap();
        assert_eq!(route.length, Cost::new(11.0));
        assert_eq!(route.pois, vec![VertexId(6), VertexId(9), VertexId(8)]);
    }

    #[test]
    fn single_set_is_nearest_neighbor() {
        let ex = PaperExample::new();
        let mut solver = OsrSolver::new(ex.graph.num_vertices());
        let route = solver.solve(&ex.graph, ex.vq, &[set(&[8, 13])]).unwrap();
        // Nearest gift shop from vq: p8 at 11 (via p6, p9).
        assert_eq!(route.length, Cost::new(11.0));
        assert_eq!(route.pois, vec![VertexId(8)]);
    }

    #[test]
    fn empty_set_yields_none() {
        let ex = PaperExample::new();
        let mut solver = OsrSolver::new(ex.graph.num_vertices());
        assert!(solver.solve(&ex.graph, ex.vq, &[set(&[2]), set(&[])]).is_none());
    }

    #[test]
    fn unreachable_set_yields_none() {
        use skysr_graph::GraphBuilder;
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex();
        let _v1 = b.add_vertex(); // isolated
        let g = b.build();
        let mut solver = OsrSolver::new(g.num_vertices());
        assert!(solver.solve(&g, v0, &[set(&[1])]).is_none());
    }

    #[test]
    fn distinctness_forces_second_poi() {
        // Both sets contain only vertex 1 → no valid route. With {1, 2}
        // twice, the route must use both.
        use skysr_graph::GraphBuilder;
        let mut b = GraphBuilder::new();
        let v: Vec<_> = (0..3).map(|_| b.add_vertex()).collect();
        b.add_edge(v[0], v[1], 1.0);
        b.add_edge(v[1], v[2], 1.0);
        let g = b.build();
        let mut solver = OsrSolver::new(g.num_vertices());
        assert!(solver.solve(&g, v[0], &[set(&[1]), set(&[1])]).is_none());
        let route = solver.solve(&g, v[0], &[set(&[1, 2]), set(&[1, 2])]).unwrap();
        assert_eq!(route.pois.len(), 2);
        assert_ne!(route.pois[0], route.pois[1]);
        assert_eq!(route.length, Cost::new(2.0));
    }

    #[test]
    fn revisiting_a_vertex_as_waypoint_is_allowed() {
        // Line 0-1-2; sets {2} then {1}: route walks 0→1→2 (take 2), back
        // to 1 (take 1): length 3.
        use skysr_graph::GraphBuilder;
        let mut b = GraphBuilder::new();
        let v: Vec<_> = (0..3).map(|_| b.add_vertex()).collect();
        b.add_edge(v[0], v[1], 1.0);
        b.add_edge(v[1], v[2], 1.0);
        let g = b.build();
        let mut solver = OsrSolver::new(g.num_vertices());
        let route = solver.solve(&g, v[0], &[set(&[2]), set(&[1])]).unwrap();
        assert_eq!(route.length, Cost::new(3.0));
        assert_eq!(route.pois, vec![VertexId(2), VertexId(1)]);
    }
}
