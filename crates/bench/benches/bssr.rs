//! End-to-end BSSR benchmarks: the paper's algorithm (`paper`, all four
//! optimisations) vs the engine's default (`default`, Optimisation 3 off,
//! grouped expansion) and its ablations on a generated city, per sequence
//! length — the Criterion companion to Figure 3 / Tables 7–8.
//! `default_memo` is the default with the paper's memoised per-route
//! expansion instead, so it against `default` is the effect of grouping.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use skysr_core::bssr::{Bssr, BssrConfig, Expansion, QueuePolicy};
use skysr_core::SkySrQuery;
use skysr_data::dataset::{Dataset, DatasetSpec, Preset};
use skysr_data::workload::WorkloadSpec;
use std::hint::black_box;

fn dataset() -> Dataset {
    DatasetSpec::preset(Preset::CalSmall).scale(0.25).seed(9).generate()
}

fn queries(d: &Dataset, k: usize) -> Vec<SkySrQuery> {
    WorkloadSpec::new(k).queries(4).seed(3).generate(d).queries
}

fn bench_bssr(c: &mut Criterion) {
    let d = dataset();
    let ctx = d.context();
    let mut group = c.benchmark_group("bssr");
    for k in [2usize, 3, 4] {
        let qs = queries(&d, k);
        let configs: [(&str, BssrConfig); 6] = [
            ("paper", BssrConfig::paper()),
            ("default", BssrConfig::default()),
            (
                "default_memo",
                BssrConfig { expansion: Expansion::Memoised, ..BssrConfig::default() },
            ),
            ("no_opt", BssrConfig::unoptimized()),
            ("no_init", BssrConfig { use_init_search: false, ..BssrConfig::default() }),
            (
                "distance_queue",
                BssrConfig { queue_policy: QueuePolicy::DistanceBased, ..BssrConfig::default() },
            ),
        ];
        for (name, cfg) in configs {
            group.bench_with_input(BenchmarkId::new(name, k), &k, |b, _| {
                let mut engine = Bssr::with_config(&ctx, cfg);
                b.iter(|| {
                    for q in &qs {
                        black_box(engine.run(q).unwrap().routes.len());
                    }
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_bssr);
criterion_main!(benches);
