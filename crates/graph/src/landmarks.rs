//! Landmark (ALT) distance oracle — the preprocessing direction the paper
//! leaves as future work (§9: "we have not used any preprocessing
//! techniques such as indexing; we plan to propose a suitable
//! preprocessing method").
//!
//! Each landmark stores its distance to every vertex. The triangle
//! inequality then gives an admissible lower bound `h(u, t) = max_ℓ |d(ℓ,
//! u) − d(ℓ, t)|`, a cheap feasibility filter ("can this vertex possibly
//! be within the radius?"). Incremental skyline repair
//! (`skysr_core::bssr::repair`) is its one user: it bounds the distance
//! from a query's start to each touched arc's tail, and to each vertex its
//! search from the decreased tails settles.
//!
//! **Selection.** Every landmark is picked before any search runs, by
//! farthest-point sampling over vertex positions from the seed vertex, as
//! Goldberg & Harrelson's "planar" selection picks road-network landmarks
//! from the map. When every vertex has coordinates, a vertex's position is
//! its coordinates projected to the plane, `(lon · cos φ̄, lat)` with φ̄
//! the mean latitude; otherwise it is the vertex's id on a line. Sampling
//! by graph distance spreads the landmarks about as well, but each pick
//! waits for the previous landmark's full search: on perfbench `churn`
//! (seed 81) it cleared 34,647 repairs at tier 1, and the map's picks
//! 34,369 (−0.8%).
//!
//! **Build.** The rows are then independent. They are computed on
//! `min(available_parallelism, landmarks)` scoped threads, landmark `i` on
//! thread `i mod threads`, each by a private full Dijkstra that writes
//! straight into its row, so the table is bit-for-bit the same at any
//! thread count. The kernel is not [`crate::dijkstra::dijkstra`]: on
//! Tokyo's 576,377 vertices (2-vCPU VM), a
//! [`DijkstraWorkspace`](crate::DijkstraWorkspace) per thread (a stamped
//! record per vertex) plus the copy into the row peaked at 57.2 MiB of
//! heap, against the lean kernel's 35.2 MiB (the table itself), took
//! 0.46–0.59 s against 0.31–0.44 s, and raised perfbench `churn`'s
//! `rss_peak_mb` from 283.0 to 307.0 MiB.
//!
//! Restricted to undirected graphs (one distance array per landmark
//! suffices); `build` asserts this.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::thread;

use crate::csr::RoadNetwork;
use crate::weight::Cost;
use crate::VertexId;

/// A landmark-based lower-bound oracle.
pub struct Landmarks {
    /// `dist[l][v]` = shortest distance from landmark `l` to `v`
    /// (`f64::INFINITY` when unreachable).
    dist: Vec<Vec<f64>>,
}

impl Landmarks {
    /// Builds up to `count` landmarks, picked by farthest-point sampling
    /// over vertex positions from `seed_vertex` (the first landmark; see
    /// the module docs), then one full Dijkstra per landmark, run on every
    /// core. Fewer come back only when every vertex lies on a pick.
    ///
    /// # Panics
    /// If the graph is directed or has no vertices, or `count == 0`.
    pub fn build(graph: &RoadNetwork, count: usize, seed_vertex: VertexId) -> Landmarks {
        let threads = thread::available_parallelism().map_or(1, |n| n.get());
        Landmarks::build_with_threads(graph, count, seed_vertex, threads)
    }

    /// [`Self::build`] on `min(threads, picks)` threads.
    fn build_with_threads(
        graph: &RoadNetwork,
        count: usize,
        seed_vertex: VertexId,
        threads: usize,
    ) -> Landmarks {
        assert!(!graph.is_directed(), "ALT oracle requires an undirected graph");
        assert!(graph.num_vertices() > 0, "empty graph");
        assert!(count >= 1, "need at least one landmark");
        let picks = pick(graph, count, seed_vertex);
        let threads = threads.clamp(1, picks.len());
        let mut dist = vec![Vec::new(); picks.len()];
        let mut shares: Vec<Vec<_>> = (0..threads).map(|_| Vec::new()).collect();
        for (i, (&l, row)) in picks.iter().zip(&mut dist).enumerate() {
            shares[i % threads].push((l, row));
        }
        thread::scope(|s| {
            for share in shares {
                s.spawn(move || share.into_iter().for_each(|(l, row)| fill_row(graph, l, row)));
            }
        });
        Landmarks { dist }
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
}

/// Up to `count` landmarks by farthest-point sampling from `seed_vertex`:
/// each pick is the vertex whose position lies farthest from every pick
/// before it (the lowest id on a tie), and sampling stops early once every
/// vertex lies on a pick. Positions are computed on the fly (module docs).
fn pick(graph: &RoadNetwork, count: usize, seed_vertex: VertexId) -> Vec<VertexId> {
    let n = graph.num_vertices();
    // cos φ̄, when every vertex has coordinates.
    let lon_scale = (graph.vertices().try_fold(0.0, |sum, v| Some(sum + graph.coords_of(v)?.lat)))
        .map(|sum: f64| (sum / n as f64).to_radians().cos());
    let position = |v: usize| match (lon_scale, graph.coords_of(VertexId(v as u32))) {
        (Some(k), Some(p)) => (p.lon * k, p.lat),
        _ => (v as f64, 0.0),
    };
    // The least squared distance from each vertex to a pick.
    let mut closest = vec![f64::INFINITY; n];
    let mut picks = vec![seed_vertex];
    while picks.len() < count {
        let (px, py) = position(picks[picks.len() - 1].index());
        let mut far = (0.0, 0);
        for (v, c) in closest.iter_mut().enumerate() {
            let (x, y) = position(v);
            *c = c.min((x - px).powi(2) + (y - py).powi(2));
            if *c > far.0 {
                far = (*c, v);
            }
        }
        if far.0 == 0.0 {
            break;
        }
        picks.push(VertexId(far.1 as u32));
    }
    picks
}

/// Fills `row` with the distance from `source` to every vertex
/// (`f64::INFINITY` when unreachable). The row is the search's only
/// per-vertex state: a heap entry above its vertex's row entry is stale,
/// and one equal to it settles the vertex.
fn fill_row(graph: &RoadNetwork, source: VertexId, row: &mut Vec<f64>) {
    row.resize(graph.num_vertices(), f64::INFINITY);
    row[source.index()] = 0.0;
    let mut heap = BinaryHeap::from([Reverse((Cost::ZERO, source))]);
    while let Some(Reverse((d, u))) = heap.pop() {
        if d.get() > row[u.index()] {
            continue;
        }
        for (v, w) in graph.neighbors(u) {
            let nd = d + w;
            if nd.get() < row[v.index()] {
                row[v.index()] = nd.get();
                heap.push(Reverse((nd, v)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::dijkstra::{dijkstra, shortest_distance, DijkstraWorkspace};
    use crate::geometry::GeoPoint;

    /// An `n`×`n` grid with uneven weights; with coordinates, vertex
    /// `r·n + c` sits at latitude `r`, longitude `c` thousandths of a
    /// degree, a square near the equator.
    fn grid(n: usize, with_coords: bool) -> RoadNetwork {
        let mut b = GraphBuilder::new();
        for i in 0..n * n {
            if with_coords {
                b.add_vertex_at(GeoPoint::new((i / n) as f64 * 1e-3, (i % n) as f64 * 1e-3));
            } else {
                b.add_vertex();
            }
        }
        for r in 0..n {
            for c in 0..n {
                let i = r * n + c;
                let v = VertexId(i as u32);
                if c + 1 < n {
                    b.add_edge(v, VertexId(i as u32 + 1), 1.0 + ((i * 7) % 3) as f64);
                }
                if r + 1 < n {
                    b.add_edge(v, VertexId((i + n) as u32), 1.0 + ((i * 13) % 5) as f64);
                }
            }
        }
        b.build()
    }

    /// A path `0 — 1 — … — n−1` without coordinates, plus `isolated`
    /// vertices after it.
    fn line(n: u32, isolated: u32) -> RoadNetwork {
        let mut b = GraphBuilder::new();
        for _ in 0..n + isolated {
            b.add_vertex();
        }
        for v in 1..n {
            b.add_edge(VertexId(v - 1), VertexId(v), 0.1 + v as f64 * 0.07);
        }
        b.build()
    }

    #[test]
    fn lower_bound_is_admissible() {
        let g = grid(6, false);
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
        let g = grid(5, true);
        let lm = Landmarks::build(&g, 3, VertexId(0));
        let mut ws = DijkstraWorkspace::new(g.num_vertices());
        // For u = landmark (the seed is one), the bound |d(l,l) - d(l,v)|
        // = d(l,v) is exact.
        let l = VertexId(0);
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
    fn picks_are_distinct_and_spread() {
        // Seeded at a corner of a coordinate grid, 4 picks are its corners.
        let g = grid(8, true);
        let mut corners = pick(&g, 4, VertexId(0));
        corners.sort_unstable();
        assert_eq!(corners, [0, 7, 56, 63].map(VertexId));
        // Without coordinates, ids lie on a line, whose ends come first.
        let picks = pick(&line(30, 0), 4, VertexId(0));
        assert_eq!(picks[..2], [VertexId(0), VertexId(29)]);
        let mut distinct = picks.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 4, "landmarks must be distinct: {picks:?}");
        // A graph smaller than the request yields each vertex once.
        assert_eq!(pick(&line(3, 0), 8, VertexId(0)), [0, 2, 1].map(VertexId));
    }

    #[test]
    fn rows_match_dijkstra_bit_for_bit_at_any_thread_count() {
        // The isolated vertex 30 ends the id line, so it is picked second.
        let split = line(30, 1);
        let lm = Landmarks::build_with_threads(&split, 2, VertexId(0), 2);
        assert_eq!(
            [lm.dist[0][30], lm.dist[1][29], lm.dist[1][30]],
            [f64::INFINITY, f64::INFINITY, 0.0]
        );
        let mut ws = DijkstraWorkspace::new(0);
        for g in [grid(7, true), grid(7, false), split] {
            let picks = pick(&g, 5, VertexId(0));
            // At 2 and 3 threads some thread fills several of the 5 rows;
            // at 16 each row has a thread of its own.
            for threads in [1, 2, 3, 16] {
                let lm = Landmarks::build_with_threads(&g, 5, VertexId(0), threads);
                assert_eq!(lm.dist.len(), picks.len());
                for (row, &l) in lm.dist.iter().zip(&picks) {
                    dijkstra(&g, &mut ws, l);
                    for v in g.vertices() {
                        let want = ws.distance(v).map_or(f64::INFINITY, Cost::get);
                        let got = row[v.index()];
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{threads} threads, {l:?} to {v:?}"
                        );
                    }
                }
            }
        }
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
