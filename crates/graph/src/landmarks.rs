//! Landmark (ALT) distance oracle — the preprocessing direction the paper
//! leaves as future work (§9: "we have not used any preprocessing
//! techniques such as indexing; we plan to propose a suitable
//! preprocessing method").
//!
//! Each vertex stores its distance from every landmark. The triangle
//! inequality then gives an admissible lower bound `h(u, t) = max_ℓ |d(ℓ,
//! u) − d(ℓ, t)|`, a cheap feasibility filter ("can this vertex possibly
//! be within the radius?"). Incremental skyline repair
//! (`skysr_core::bssr::repair`) is its one user: it bounds the distance
//! from a query's start to each touched arc's tail, which also decides
//! whether a touched edge counts in the start's decrease budget, and to
//! each vertex its search from the decreased tails settles.
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
//! **Layout.** A vertex's distances from the landmarks fill one 64-byte,
//! 64-byte-aligned line ([`Landmarks::CAPACITY`] = 8 slots), in landmark
//! order, with unused slots at +∞. A bound reads two lines, one per end,
//! and takes a branch-free maximum over their slots. A slot's gap is
//! finite exactly when both its distances are (∞ − x is ∞, ∞ − ∞ is
//! NaN); the kernel turns every other gap into a NaN, which the maximum
//! passes over. So an unused slot, and a landmark that reaches only one
//! end, count as nothing, and the bound is bit for bit the maximum over
//! the landmarks that reach both ends of `|d(ℓ,u) − d(ℓ,v)|`, or 0. (The
//! +∞ fill is not what keeps unused slots out: any value the same at both
//! ends adds a gap of 0. It makes an unused slot read as a landmark that
//! reaches nothing.)
//!
//! With one row per landmark, a bound read two values from each of 8 rows
//! (16 cache lines) and kept the maximum behind a data-dependent branch. In an instrumented
//! perfbench `churn` run (seed 81, 2-vCPU VM), repair's probes from its
//! starts to the touched tails took 0.43–0.60 s; the branch-free maximum
//! over those rows, 0.29–0.36 s; over lines, 0.16–0.24 s. In a scratch
//! loop over Tokyo (a fixed start against pseudo-random vertices, 4 M
//! bounds a round, 2-vCPU VM) a bound took 108–194 ns over rows and 40–65
//! ns over lines.
//!
//! **Build.** The rows are then independent. They are computed in rounds
//! on `min(available_parallelism, landmarks, CAPACITY / 2)` scoped
//! threads, one landmark per thread per round, each by a private full
//! Dijkstra that writes straight into the thread's row (kept, with its
//! heap, from round to round). After each round the threads copy the
//! round's rows into the table by disjoint vertex ranges: no two threads
//! write one line, and no lock orders them. So the table is bit-for-bit
//! the same at any thread count, and the rows alive beside it never hold
//! more than half a table's bytes. The calling thread fills the table
//! with +∞ while the first round's searches run. The kernel is not
//! [`crate::dijkstra::dijkstra`]: a [`DijkstraWorkspace`](crate::DijkstraWorkspace)
//! per thread (a stamped record per vertex) plus the copy out of it cost
//! more heap and time than a plain row. On Tokyo's 576,377 vertices
//! (2-vCPU VM, two threads, 8 landmarks, a scratch loop of 5 builds per
//! process, 3 processes) the build took 0.32–0.42 s and peaked at 44.0 MiB
//! of heap: the 35.2 MiB table and two 4.4 MiB rows. One row per landmark
//! took 0.31–0.42 s and peaked at the 35.2 MiB of its rows. The two rows
//! are freed into the malloc arenas of the threads that filled them, and
//! stay resident until threads started after the build allocate there:
//! on perfbench `churn` VmRSS read 152.6 MiB after the build against
//! 143.8 with one row per landmark. The service's clients reuse them (its
//! untouched repairs allocate on the submitting threads), and
//! `rss_peak_mb` read 243.0 against 244.5 MiB; with every repair on a
//! worker, whose arena predates the build, it read 250.8–251.1 against
//! 244.5–244.7 (237.8–237.9 against 238.0–238.1 with
//! `MALLOC_ARENA_MAX=1`). Allocating the rows on the calling thread kept
//! VmRSS at 143.7–143.8 MiB after the build, but `setup_s` read 11% above
//! the parent's over 5 `churn` pairs, against 2.9% over 10 for this
//! build.
//!
//! Restricted to undirected graphs (one distance array per landmark
//! suffices); `build` asserts this.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::thread;

use crate::csr::RoadNetwork;
use crate::weight::Cost;
use crate::VertexId;

/// One vertex's distances from every landmark, in landmark order, with
/// the unused slots at +∞: one cache line.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct Line([f64; Landmarks::CAPACITY]);

/// A landmark-based lower-bound oracle.
pub struct Landmarks {
    /// `lines[v].0[l]` = shortest distance from landmark `l` to `v`
    /// (`f64::INFINITY` when unreachable, and in every slot from `count`
    /// on).
    lines: Vec<Line>,
    /// How many landmarks the table holds.
    count: usize,
}

/// One thread's Dijkstra state, kept from round to round of the build:
/// the row it fills and its heap.
type Search = (Vec<f64>, BinaryHeap<Reverse<(Cost, VertexId)>>);

impl Landmarks {
    /// The most landmarks a table holds: one vertex's distances fill one
    /// 64-byte line.
    pub const CAPACITY: usize = 8;

    /// Builds up to `count` landmarks, picked by farthest-point sampling
    /// over vertex positions from `seed_vertex` (the first landmark; see
    /// the module docs), then one full Dijkstra per landmark, run on every
    /// core. Fewer come back only when every vertex lies on a pick.
    ///
    /// # Panics
    /// If the graph is directed or has no vertices, or `count` is 0 or
    /// above [`Self::CAPACITY`].
    pub fn build(graph: &RoadNetwork, count: usize, seed_vertex: VertexId) -> Landmarks {
        let threads = thread::available_parallelism().map_or(1, |n| n.get());
        Landmarks::build_with_threads(graph, count, seed_vertex, threads)
    }

    /// [`Self::build`] on `min(threads, picks, CAPACITY / 2)` threads.
    fn build_with_threads(
        graph: &RoadNetwork,
        count: usize,
        seed_vertex: VertexId,
        threads: usize,
    ) -> Landmarks {
        assert!(!graph.is_directed(), "ALT oracle requires an undirected graph");
        assert!(graph.num_vertices() > 0, "empty graph");
        assert!(count >= 1, "need at least one landmark");
        assert!(
            count <= Self::CAPACITY,
            "a landmark table holds at most {} landmarks, not {count}",
            Self::CAPACITY
        );
        let picks = pick(graph, count, seed_vertex);
        let threads = threads.clamp(1, picks.len()).min(Self::CAPACITY / 2);
        let mut searches: Vec<Search> = (0..threads).map(|_| Search::default()).collect();
        let mut lines = Vec::new();
        let share = graph.num_vertices().div_ceil(threads);
        for (round, sources) in picks.chunks(threads).enumerate() {
            thread::scope(|s| {
                for ((row, heap), &l) in searches.iter_mut().zip(sources) {
                    s.spawn(move || fill_row(graph, l, row, heap));
                }
                // This thread fills the table while the first searches run.
                if round == 0 {
                    lines = vec![Line([f64::INFINITY; Self::CAPACITY]); graph.num_vertices()];
                }
            });
            let rows = &searches[..sources.len()];
            let first = round * threads;
            thread::scope(|s| {
                for (i, range) in lines.chunks_mut(share).enumerate() {
                    s.spawn(move || {
                        let lo = i * share;
                        for (v, line) in range.iter_mut().enumerate() {
                            for (slot, (row, _)) in line.0[first..].iter_mut().zip(rows) {
                                *slot = row[lo + v];
                            }
                        }
                    });
                }
            });
        }
        Landmarks { lines, count: picks.len() }
    }

    /// How many landmarks the table holds.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The shortest distance from landmark `landmark` to `v`
    /// (`f64::INFINITY` when unreachable).
    ///
    /// # Panics
    /// If `landmark >= self.count()`.
    pub fn distance(&self, landmark: usize, v: VertexId) -> f64 {
        assert!(landmark < self.count, "landmark {landmark} of {}", self.count);
        self.lines[v.index()].0[landmark]
    }

    /// Triangle-inequality lower bound on `d(u, v)`: the maximum over
    /// landmarks that reach both of `|d(ℓ, u) − d(ℓ, v)|`, or 0 when none
    /// does. Branch-free over the two lines (module docs).
    #[inline]
    pub fn lower_bound(&self, u: VertexId, v: VertexId) -> Cost {
        let (a, b) = (&self.lines[u.index()].0, &self.lines[v.index()].0);
        let mut best = 0.0f64;
        for (x, y) in a.iter().zip(b) {
            // A slot's gap is finite exactly when both distances are (∞ − x
            // is ∞, ∞ − ∞ NaN). `gap · 0` is 0 for a finite gap and NaN
            // otherwise, and `max` passes over a NaN.
            let gap = (x - y).abs();
            best = best.max(gap + gap * 0.0);
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
/// (`f64::INFINITY` when unreachable), reusing `row`'s and `kept`'s
/// storage. The row is the search's only per-vertex state: a heap entry
/// above its vertex's row entry is stale, and one equal to it settles the
/// vertex. The heap is moved into a local for the search: pushed and
/// popped through a reference, the searches ran 40% slower on Tokyo.
fn fill_row(
    graph: &RoadNetwork,
    source: VertexId,
    row: &mut Vec<f64>,
    kept: &mut BinaryHeap<Reverse<(Cost, VertexId)>>,
) {
    row.clear();
    row.resize(graph.num_vertices(), f64::INFINITY);
    row[source.index()] = 0.0;
    let mut heap = std::mem::take(kept);
    heap.push(Reverse((Cost::ZERO, source)));
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
    *kept = heap;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::dijkstra::{dijkstra, shortest_distance, DijkstraWorkspace};
    use crate::geometry::GeoPoint;
    use proptest::prelude::*;

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
            [
                lm.distance(0, VertexId(30)),
                lm.distance(1, VertexId(29)),
                lm.distance(1, VertexId(30))
            ],
            [f64::INFINITY, f64::INFINITY, 0.0]
        );
        let mut ws = DijkstraWorkspace::new(0);
        for g in [grid(7, true), grid(7, false), split] {
            let picks = pick(&g, 5, VertexId(0));
            // One thread fills the 5 rows in 5 rounds; 2 and 3 threads in
            // rounds whose last is short; 16 are held to 4.
            for threads in [1, 2, 3, 16] {
                let lm = Landmarks::build_with_threads(&g, 5, VertexId(0), threads);
                assert_eq!(lm.count(), picks.len());
                for (i, &l) in picks.iter().enumerate() {
                    dijkstra(&g, &mut ws, l);
                    for v in g.vertices() {
                        let want = ws.distance(v).map_or(f64::INFINITY, Cost::get);
                        let got = lm.distance(i, v);
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

    /// The bound one landmark at a time, as it was taken over one row per
    /// landmark: the maximum over the landmarks whose two distances are
    /// both finite of `|d(ℓ,u) − d(ℓ,v)|`, starting at 0.
    fn per_landmark_bound(lm: &Landmarks, u: VertexId, v: VertexId) -> f64 {
        let mut best = 0.0f64;
        for l in 0..lm.count() {
            let (du, dv) = (lm.distance(l, u), lm.distance(l, v));
            if du.is_finite() && dv.is_finite() {
                let b = (du - dv).abs();
                if b > best {
                    best = b;
                }
            }
        }
        best
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        // A random graph whose vertices split into two groups that no edge
        // joins, so some landmark always reaches one end of a pair and not
        // the other, with 1–8 landmarks (fewer on a graph that small): the
        // bound over lines is the per-landmark one, bit for bit, for every
        // pair.
        #[test]
        fn lower_bound_is_the_per_landmark_maximum_bit_for_bit(
            case in (2usize..16).prop_flat_map(|n| (
                Just(n),
                1..n,
                prop::collection::vec((0..n, 0..n, 0.0f64..10.0), 0..40),
                1usize..Landmarks::CAPACITY + 1,
                0..n,
            )),
        ) {
            let (n, split, edges, count, seed) = case;
            let mut b = GraphBuilder::new();
            let vs: Vec<VertexId> = (0..n).map(|_| b.add_vertex()).collect();
            for (a, c, w) in edges {
                // Each edge stays inside its tail's group.
                let c = if a < split { c % split } else { split + c % (n - split) };
                b.add_edge(vs[a], vs[c], w);
            }
            let g = b.build();
            let lm = Landmarks::build(&g, count, vs[seed]);
            for u in g.vertices() {
                for v in g.vertices() {
                    let (got, want) = (lm.lower_bound(u, v).get(), per_landmark_bound(&lm, u, v));
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "{:?} to {:?}", u, v);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "a landmark table holds at most 8 landmarks, not 9")]
    fn more_landmarks_than_a_line_holds_are_refused() {
        Landmarks::build(&grid(4, false), Landmarks::CAPACITY + 1, VertexId(0));
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
