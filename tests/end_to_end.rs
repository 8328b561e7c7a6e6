//! End-to-end pipeline tests: dataset generation → workload → queries →
//! persistence, with the structural invariants each stage guarantees.

use skysr::core::bssr::{Bssr, BssrConfig, Expansion, LowerBoundMode, QueuePolicy};
use skysr::graph::connectivity::is_connected;
use skysr::prelude::*;

fn tiny(preset: Preset, scale: f64, seed: u64) -> Dataset {
    DatasetSpec::preset(preset).scale(scale).seed(seed).generate()
}

#[test]
fn all_presets_generate_valid_datasets() {
    for (preset, scale) in
        [(Preset::TokyoSmall, 0.05), (Preset::NycSmall, 0.03), (Preset::CalSmall, 0.06)]
    {
        let d = tiny(preset, scale, 11);
        assert!(is_connected(&d.graph), "{} disconnected", d.name);
        let (v, p, e) = d.stats();
        assert!(v > 0 && p > 0 && e >= v - 1, "{}: |V|={v} |P|={p} |E|={e}", d.name);
        // Every PoI vertex has coordinates (it was embedded on an edge).
        for &poi in &d.poi_vertices {
            assert!(d.graph.coords_of(poi).is_some());
        }
    }
}

#[test]
fn ablation_configs_agree_on_real_workload() {
    let d = tiny(Preset::TokyoSmall, 0.06, 13);
    let ctx = d.context();
    let w = WorkloadSpec::new(3).queries(5).seed(3).generate(&d);
    let grouped = BssrConfig::default();
    let configs = [
        // The default is the paper's BSSR without the bounds and with
        // grouped instead of memoised expansion; each other optimisation is
        // ablated from the paper's, and grouping is crossed with each.
        grouped,
        BssrConfig::paper(),
        BssrConfig::unoptimized(),
        BssrConfig { use_init_search: false, ..BssrConfig::paper() },
        BssrConfig { queue_policy: QueuePolicy::DistanceBased, ..BssrConfig::paper() },
        BssrConfig { expansion: Expansion::PerRoute, ..BssrConfig::paper() },
        BssrConfig { use_init_search: false, ..grouped },
        BssrConfig { queue_policy: QueuePolicy::DistanceBased, ..grouped },
        BssrConfig { lower_bound: LowerBoundMode::Full, ..grouped },
    ];
    for q in &w.queries {
        let reference = Bssr::new(&ctx).run(q).unwrap().routes;
        assert!(!reference.is_empty());
        for cfg in configs {
            let got = Bssr::with_config(&ctx, cfg).run(q).unwrap().routes;
            assert_eq!(got.len(), reference.len(), "{cfg:?} on {q:?}");
            for (g, r) in got.iter().zip(&reference) {
                assert!(
                    (g.length.get() - r.length.get()).abs() <= 1e-6 * (1.0 + r.length.get()),
                    "{cfg:?}: {g:?} vs {r:?}"
                );
                assert!((g.semantic - r.semantic).abs() <= 1e-9);
            }
        }
    }
}

#[test]
fn skyline_has_perfect_route_and_is_sorted() {
    let d = tiny(Preset::CalSmall, 0.08, 17);
    let ctx = d.context();
    let w = WorkloadSpec::new(3).queries(8).seed(4).generate(&d);
    let mut engine = Bssr::new(&ctx);
    for q in &w.queries {
        let routes = engine.run(q).unwrap().routes;
        // Workload categories are populated, so a perfect route exists and
        // the skyline must contain one (it cannot be dominated).
        assert!(routes.iter().any(|r| r.semantic == 0.0), "{q:?}");
        // Sorted by length ascending; semantic must strictly decrease.
        for pair in routes.windows(2) {
            assert!(pair[0].length <= pair[1].length);
            assert!(pair[0].semantic > pair[1].semantic);
        }
    }
}

#[test]
fn optimisations_reduce_search_effort_at_scale() {
    let d = tiny(Preset::TokyoSmall, 0.15, 23);
    let ctx = d.context();
    let w = WorkloadSpec::new(4).queries(4).seed(5).generate(&d);
    let mut opt = Bssr::new(&ctx);
    let mut paper = Bssr::with_config(&ctx, BssrConfig::paper());
    let mut plain = Bssr::with_config(&ctx, BssrConfig::unoptimized());
    let (mut settled_opt, mut settled_plain, mut grouped, mut cache_hits) = (0, 0, 0, 0);
    for q in &w.queries {
        let a = opt.run(q).unwrap().stats;
        let b = plain.run(q).unwrap().stats;
        settled_opt += a.search.settled;
        settled_plain += b.search.settled;
        grouped += a.grouped_routes;
        cache_hits += paper.run(q).unwrap().stats.cache_hits;
    }
    assert!(settled_opt < settled_plain, "optimised {settled_opt} vs plain {settled_plain}");
    assert!(grouped > 0, "grouped expansion never shared a search at |Sq| = 4");
    assert!(cache_hits > 0, "the paper's on-the-fly cache never hit at |Sq| = 4");
}

#[test]
fn codec_roundtrip_preserves_query_semantics() {
    let d = tiny(Preset::NycSmall, 0.02, 29);
    let name = format!("skysr_e2e_roundtrip_{}.skysr", std::process::id());
    let path = std::env::temp_dir().join(name);
    skysr::data::codec::save_dataset(&d, &path).unwrap();
    let d2 = skysr::data::codec::load_dataset(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let w = WorkloadSpec::new(2).queries(4).seed(8).generate(&d);
    let ctx1 = d.context();
    let ctx2 = d2.context();
    let mut e1 = Bssr::new(&ctx1);
    let mut e2 = Bssr::new(&ctx2);
    for q in &w.queries {
        assert_eq!(e1.run(q).unwrap().routes, e2.run(q).unwrap().routes);
    }
}

#[test]
fn number_of_skysrs_grows_with_sequence_length() {
    // Figure 6's trend: more positions ⇒ more trade-off opportunities ⇒
    // (weakly) more skyline routes on average.
    let d = tiny(Preset::CalSmall, 0.1, 37);
    let ctx = d.context();
    let mut engine = Bssr::new(&ctx);
    let mut means = Vec::new();
    for k in [2usize, 4] {
        let w = WorkloadSpec::new(k).queries(10).seed(6).generate(&d);
        let total: usize = w.queries.iter().map(|q| engine.run(q).unwrap().routes.len()).sum();
        means.push(total as f64 / w.queries.len() as f64);
    }
    assert!(means[1] >= means[0], "expected |Sq|=4 to yield at least as many SkySRs: {means:?}");
}

#[test]
fn unmatchable_category_yields_empty_result_everywhere() {
    // A leaf category with no PoIs: query returns empty for BSSR and both
    // baselines.
    let d = tiny(Preset::TokyoSmall, 0.03, 41);
    let ctx = d.context();
    let unpopulated = d.forest.leaves().find(|&c| d.pois.pois_with_exact_category(c).is_empty());
    let Some(c) = unpopulated else {
        return; // every leaf populated at this scale — nothing to test
    };
    // The whole tree must be empty for the query to be unmatchable; pick
    // the root's tree only if empty, otherwise skip.
    if !d.pois.pois_in_tree_of(&d.forest, c).is_empty() {
        return;
    }
    let q = skysr::core::SkySrQuery::new(skysr::graph::VertexId(0), [c]);
    assert!(Bssr::new(&ctx).run(&q).unwrap().routes.is_empty());
}
