//! Round trips of the binary dataset snapshot over generated cities:
//! reading a written city gives back every stored fact bit for bit, and
//! writing it again gives back the same bytes.

use proptest::prelude::*;
use skysr_core::bssr::Bssr;
use skysr_data::codec::{read_dataset, write_dataset};
use skysr_data::dataset::{Dataset, DatasetSpec, Preset};
use skysr_data::workload::WorkloadSpec;

fn snapshot(d: &Dataset) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_dataset(d, &mut bytes).unwrap();
    bytes
}

/// Each vertex's arcs as (target, weight bits), sorted: the CSR's order
/// within a vertex depends on the order edges were added.
fn neighbour_multisets(d: &Dataset) -> Vec<Vec<(u32, u64)>> {
    let g = &d.graph;
    g.vertices()
        .map(|u| {
            let mut arcs: Vec<_> = g.neighbors(u).map(|(v, w)| (v.0, w.get().to_bits())).collect();
            arcs.sort_unstable();
            arcs
        })
        .collect()
}

const PRESETS: [Preset; 3] = [Preset::CalSmall, Preset::TokyoSmall, Preset::NycSmall];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn read_of_write_keeps_the_city(
        preset in 0usize..PRESETS.len(),
        scale in 0.01f64..0.05,
        seed in 0u64..1000,
    ) {
        let d = DatasetSpec::preset(PRESETS[preset]).scale(scale).seed(seed).generate();
        let bytes = snapshot(&d);
        let r = read_dataset(&bytes[..]).unwrap();

        prop_assert_eq!(&r.name, &d.name);
        let forest = |d: &Dataset| -> Vec<_> {
            d.forest.categories().map(|c| (d.forest.name(c).to_owned(), d.forest.parent(c))).collect()
        };
        prop_assert_eq!(forest(&r), forest(&d));
        let fingerprint = |d: &Dataset| {
            (d.forest.num_categories(), d.graph.num_vertices(), d.graph.num_arcs(), d.stats())
        };
        prop_assert_eq!(fingerprint(&r), fingerprint(&d));
        let coords = |d: &Dataset| -> Vec<_> {
            d.graph.vertices().map(|v| d.graph.coords_of(v).map(|p| (p.lat.to_bits(), p.lon.to_bits()))).collect()
        };
        prop_assert_eq!(coords(&r), coords(&d));
        prop_assert_eq!(neighbour_multisets(&r), neighbour_multisets(&d));
        prop_assert_eq!(&r.poi_vertices, &d.poi_vertices);
        for &p in &d.poi_vertices {
            prop_assert_eq!(r.pois.categories_of(p), d.pois.categories_of(p));
        }
        prop_assert!(snapshot(&r) == bytes, "a second write changed the bytes");

        let queries = WorkloadSpec::new(2).queries(2).seed(seed).generate(&d).queries;
        let (ctx, rctx) = (d.context(), r.context());
        let (mut a, mut b) = (Bssr::new(&ctx), Bssr::new(&rctx));
        for q in &queries {
            prop_assert_eq!(a.run(q).unwrap().routes, b.run(q).unwrap().routes);
        }
    }
}
