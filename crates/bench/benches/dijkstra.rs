//! Micro-benchmarks for the Dijkstra substrate: full single-source search,
//! early-terminating point-to-point queries, resumable NN streams, and the
//! multi-source minimum-set-distance search of Lemma 5.9. The search rows
//! run at epoch 0 and, on the 10k network, again at a later weight epoch.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use skysr_data::netgen::{generate_network, NetGenSpec};
use skysr_graph::dijkstra::{dijkstra, shortest_distance, DijkstraWorkspace};
use skysr_graph::multi_source::min_set_distance;
use skysr_graph::{Cost, ResumableDijkstra, RoadNetwork, VertexId, WeightDelta, WeightEpoch};
use std::hint::black_box;

fn network(n: usize) -> RoadNetwork {
    let (b, _, _) =
        generate_network(&NetGenSpec { target_vertices: n, seed: 5, ..Default::default() });
    b.build()
}

/// `g` pinned after 200 published waves of 32 reweighted edges, each
/// weight scaled by `2^u` with `u` uniform in [-1, 1] (the replay driver's
/// traffic waves). Searches at this epoch pay whatever the weight overlay
/// adds to a neighbour scan.
fn later_epoch(g: RoadNetwork) -> RoadNetwork {
    let mut rng = StdRng::seed_from_u64(11);
    let epochs = WeightEpoch::new(g.clone());
    for _ in 0..200 {
        let wave: Vec<WeightDelta> = (0..32)
            .map(|_| {
                let (from, to, w) = g.arc(rng.random_range(0..g.num_arcs()));
                WeightDelta::new(from, to, w.get() * 2f64.powf(rng.random::<f64>() * 2.0 - 1.0))
            })
            .collect();
        epochs.publish(&wave);
    }
    epochs.pin()
}

/// The `full_sssp` and `point_to_point` rows over `g` (`n` vertices), named
/// with `suffix`.
fn search_rows(group: &mut BenchmarkGroup<'_>, suffix: &str, g: &RoadNetwork, n: usize) {
    let mut ws = DijkstraWorkspace::new(g.num_vertices());
    group.bench_with_input(BenchmarkId::new(format!("full_sssp{suffix}"), n), &n, |b, _| {
        b.iter(|| {
            dijkstra(g, &mut ws, VertexId(0));
            black_box(ws.distance(VertexId((n / 2) as u32)))
        })
    });
    group.bench_with_input(BenchmarkId::new(format!("point_to_point{suffix}"), n), &n, |b, _| {
        b.iter(|| black_box(shortest_distance(g, &mut ws, VertexId(0), VertexId((n - 1) as u32))))
    });
}

fn bench_dijkstra(c: &mut Criterion) {
    let mut group = c.benchmark_group("dijkstra");
    for n in [1_000usize, 10_000] {
        let g = network(n);
        let mut ws = DijkstraWorkspace::new(g.num_vertices());
        search_rows(&mut group, "", &g, n);
        group.bench_with_input(BenchmarkId::new("resumable_first_100", n), &n, |b, _| {
            b.iter(|| {
                let mut rd = ResumableDijkstra::new(&g, VertexId(0));
                for _ in 0..100 {
                    black_box(rd.next_settled());
                }
            })
        });
        let sources: Vec<VertexId> = (0..20).map(|i| VertexId(i * 7)).collect();
        group.bench_with_input(BenchmarkId::new("multi_source_min_dist", n), &n, |b, _| {
            b.iter(|| {
                black_box(min_set_distance(
                    &g,
                    &mut ws,
                    &sources,
                    |v| v.0 as usize > n - 50,
                    Cost::INFINITY,
                ))
            })
        });
    }
    // The 10k network has 14,000 edges: 200 waves of 32 reweight 5,162 of
    // them, which leaves 71.5% of its vertices with a reweighted out-arc.
    search_rows(&mut group, "_epoch200", &later_epoch(network(10_000)), 10_000);
    group.finish();
}

criterion_group!(benches, bench_dijkstra);
criterion_main!(benches);
