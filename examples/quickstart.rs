//! Quickstart: generate a synthetic city, build a workload, run a SkySR
//! query and inspect the skyline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use skysr::prelude::*;

fn main() {
    // 1. A synthetic city in the style of the paper's California dataset:
    //    a small road network, densely covered with PoIs whose categories
    //    come from a generated semantic hierarchy.
    let dataset = DatasetSpec::preset(Preset::CalSmall).scale(0.25).seed(42).generate();
    let (v, p, e) = dataset.stats();
    println!("city: |V| = {v}, |P| = {p}, |E| = {e}\n");

    // 2. A paper-style workload: random start, popular leaf categories
    //    from distinct category trees.
    let workload = WorkloadSpec::new(3).queries(1).seed(9).generate(&dataset);
    let query = &workload.queries[0];
    println!("query: start at vertex {}, visit in order:", query.start);
    for spec in &query.sequence {
        if let skysr::core::PositionSpec::Category(c) = spec {
            println!("  - {}", dataset.forest.name(*c));
        }
    }

    // 3. Run BSSR. The default engine runs optimisations 1, 2 and 4; the
    //    minimum-distance bounds (Optimisation 3) cost more than they prune,
    //    so they are off unless asked for with `BssrConfig::paper()`.
    let ctx = dataset.context();
    let result = Bssr::new(&ctx).run(query).expect("valid query");

    // 4. The skyline: every route here is Pareto-optimal — shorter routes
    //    deviate more from the requested categories.
    println!("\n{} skyline sequenced route(s):", result.routes.len());
    for route in &result.routes {
        let stops: Vec<&str> = route
            .pois
            .iter()
            .map(|&p| dataset.forest.name(dataset.pois.categories_of(p)[0]))
            .collect();
        println!(
            "  {:>9.1} m   semantic score {:.3}   {}",
            route.length.get(),
            route.semantic,
            stops.join(" -> ")
        );
    }
    println!(
        "\nstats: {} modified-Dijkstra runs ({} routes expanded in groups), {} vertices settled, \
         {:?} total",
        result.stats.mdijkstra_runs,
        result.stats.grouped_routes,
        result.stats.search.settled,
        result.stats.total_time
    );
}
