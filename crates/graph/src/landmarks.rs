//! Landmark (ALT) distance oracle — the preprocessing direction the paper
//! leaves as future work (§9: "we have not used any preprocessing
//! techniques such as indexing; we plan to propose a suitable
//! preprocessing method").
//!
//! A small set of landmarks is chosen by farthest-point sampling; each
//! stores its distance to every vertex. The triangle inequality then gives
//! an admissible lower bound `h(u, t) = max_ℓ |d(ℓ, u) − d(ℓ, t)|`, a
//! cheap feasibility filter ("can this vertex possibly be within the
//! radius?"). Incremental skyline repair (`skysr_core::bssr::repair`) is
//! its one user: it bounds the distance from a query's start to each
//! touched arc's tail, and to each vertex its search from the decreased
//! tails settles.
//!
//! Restricted to undirected graphs (one distance array per landmark
//! suffices); `build` asserts this.

use crate::csr::RoadNetwork;
use crate::dijkstra::{dijkstra, DijkstraWorkspace};
use crate::weight::Cost;
use crate::VertexId;

/// A landmark-based lower-bound oracle.
pub struct Landmarks {
    landmarks: Vec<VertexId>,
    /// `dist[l][v]` = shortest distance from landmark `l` to `v`
    /// (`f64::INFINITY` when unreachable).
    dist: Vec<Vec<f64>>,
}

impl Landmarks {
    /// Builds `count` landmarks by farthest-point sampling, seeded at
    /// `seed_vertex`. Costs one full Dijkstra per landmark.
    ///
    /// # Panics
    /// If the graph is directed or has no vertices, or `count == 0`.
    pub fn build(graph: &RoadNetwork, count: usize, seed_vertex: VertexId) -> Landmarks {
        assert!(!graph.is_directed(), "ALT oracle requires an undirected graph");
        assert!(graph.num_vertices() > 0, "empty graph");
        assert!(count >= 1, "need at least one landmark");
        let mut ws = DijkstraWorkspace::new(graph.num_vertices());
        let mut landmarks = Vec::with_capacity(count);
        let mut dist: Vec<Vec<f64>> = Vec::with_capacity(count);
        // min over chosen landmarks of d(l, v) — drives farthest sampling.
        let mut closest = vec![f64::INFINITY; graph.num_vertices()];
        let mut next = seed_vertex;
        for _ in 0..count {
            landmarks.push(next);
            dijkstra(graph, &mut ws, next);
            let row: Vec<f64> = (0..graph.num_vertices())
                .map(|i| ws.distance(VertexId(i as u32)).map_or(f64::INFINITY, |c| c.get()))
                .collect();
            for (c, &d) in closest.iter_mut().zip(&row) {
                if d < *c {
                    *c = d;
                }
            }
            dist.push(row);
            // Farthest reachable vertex from the chosen set becomes the
            // next landmark.
            let far = closest
                .iter()
                .enumerate()
                .filter(|(_, d)| d.is_finite())
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| VertexId(i as u32));
            match far {
                Some(v) if !landmarks.contains(&v) => next = v,
                _ => break, // graph smaller than requested landmark count
            }
        }
        Landmarks { landmarks, dist }
    }

    /// The chosen landmark vertices.
    pub fn landmarks(&self) -> &[VertexId] {
        &self.landmarks
    }

    /// Triangle-inequality lower bound on `d(u, v)`.
    pub fn lower_bound(&self, u: VertexId, v: VertexId) -> Cost {
        let mut best = 0.0f64;
        for row in &self.dist {
            let (du, dv) = (row[u.index()], row[v.index()]);
            if du.is_finite() && dv.is_finite() {
                let b = (du - dv).abs();
                if b > best {
                    best = b;
                }
            }
        }
        Cost::new(best)
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.dist.iter().map(|r| r.len() * std::mem::size_of::<f64>()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::dijkstra::shortest_distance;

    fn grid(n: usize) -> RoadNetwork {
        let mut b = GraphBuilder::new();
        let vs: Vec<VertexId> = (0..n * n).map(|_| b.add_vertex()).collect();
        for r in 0..n {
            for c in 0..n {
                let i = r * n + c;
                if c + 1 < n {
                    b.add_edge(vs[i], vs[i + 1], 1.0 + ((i * 7) % 3) as f64);
                }
                if r + 1 < n {
                    b.add_edge(vs[i], vs[i + n], 1.0 + ((i * 13) % 5) as f64);
                }
            }
        }
        b.build()
    }

    #[test]
    fn lower_bound_is_admissible() {
        let g = grid(6);
        let lm = Landmarks::build(&g, 4, VertexId(0));
        let mut ws = DijkstraWorkspace::new(g.num_vertices());
        for u in [0u32, 5, 17, 35] {
            for v in [0u32, 3, 20, 30] {
                let exact = shortest_distance(&g, &mut ws, VertexId(u), VertexId(v)).unwrap();
                let lb = lm.lower_bound(VertexId(u), VertexId(v));
                assert!(lb <= exact + Cost::new(1e-9), "lb {lb:?} > exact {exact:?}");
            }
        }
    }

    #[test]
    fn lower_bound_exact_for_landmark_pairs() {
        let g = grid(5);
        let lm = Landmarks::build(&g, 3, VertexId(0));
        let mut ws = DijkstraWorkspace::new(g.num_vertices());
        // For u = landmark, the bound |d(l,l) - d(l,v)| = d(l,v) is exact.
        let l = lm.landmarks()[0];
        for v in g.vertices() {
            let exact = shortest_distance(&g, &mut ws, l, v).unwrap();
            assert_eq!(lm.lower_bound(l, v), exact);
        }
    }

    #[test]
    fn unreachable_target_returns_none() {
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex();
        let v1 = b.add_vertex();
        let _v2 = b.add_vertex(); // isolated
        b.add_edge(v0, v1, 1.0);
        let g = b.build();
        let lm = Landmarks::build(&g, 2, v0);
        // No landmark reaches both ends, so none bounds the distance.
        assert_eq!(lm.lower_bound(v0, VertexId(2)), Cost::ZERO);
    }

    #[test]
    fn landmarks_are_distinct_and_spread() {
        let g = grid(8);
        let lm = Landmarks::build(&g, 4, VertexId(0));
        let mut ls = lm.landmarks().to_vec();
        ls.sort_unstable();
        ls.dedup();
        assert_eq!(ls.len(), 4, "landmarks must be distinct");
        assert!(lm.heap_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "undirected")]
    fn directed_graph_rejected() {
        let mut b = GraphBuilder::directed();
        let v0 = b.add_vertex();
        let v1 = b.add_vertex();
        b.add_edge(v0, v1, 1.0);
        let g = b.build();
        Landmarks::build(&g, 1, v0);
    }
}
