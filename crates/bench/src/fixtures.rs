//! Hand-crafted scenario fixtures reproducing the paper's worked examples.
//!
//! * [`table1_fixture`] — the New York walk of Table 1 (cupcake shop →
//!   art museum → jazz club). Edge weights are engineered so the exact
//!   four skyline rows of Table 1 appear, metre for metre.
//! * [`table9_fixture`] — the Tokyo night out of Table 9 / §7.5 (beer
//!   garden → sushi restaurant → sake bar, ending at the hotel), where a
//!   "Bar" route dramatically undercuts the perfect "Beer Garden" route.

use skysr_category::{foursquare::foursquare_forest, CategoryForest};
use skysr_core::{PoiTable, SkySrQuery};
use skysr_graph::{GraphBuilder, RoadNetwork, VertexId};

/// A self-contained scenario: graph + forest + PoIs + the query to run.
pub struct Scenario {
    /// Road network.
    pub graph: RoadNetwork,
    /// Foursquare-style forest.
    pub forest: CategoryForest,
    /// PoI table (finalised).
    pub pois: PoiTable,
    /// The scenario's query.
    pub query: SkySrQuery,
    /// Destination for the Table 9 variant (the hotel), if any.
    pub destination: Option<VertexId>,
}

impl Scenario {
    /// Name of the category of PoI vertex `v` (first category).
    pub fn poi_label(&self, v: VertexId) -> &str {
        self.pois.categories_of(v).first().map(|&c| self.forest.name(c)).unwrap_or("?")
    }
}

/// Builds the Table 1 scenario. The skyline of the returned query is
/// exactly the paper's four rows:
///
/// | metres | route |
/// |---|---|
/// | 3239 | Cupcake Shop → Art Museum → Jazz Club |
/// | 1858 | Dessert Shop → Art Museum → Jazz Club |
/// | 1392 | Dessert Shop → Museum → Jazz Club |
/// | 823  | Dessert Shop → Museum → Music Venue |
pub fn table1_fixture() -> Scenario {
    let forest = foursquare_forest();
    let cat = |n: &str| forest.by_name(n).unwrap_or_else(|| panic!("missing category {n}"));

    let mut g = GraphBuilder::new();
    let vq = g.add_vertex(); // 0: start (somewhere in Manhattan)
    let cupcake = g.add_vertex(); // 1
    let dessert = g.add_vertex(); // 2
    let art_museum = g.add_vertex(); // 3
    let museum = g.add_vertex(); // 4
    let jazz = g.add_vertex(); // 5
    let music_venue = g.add_vertex(); // 6

    // Engineered distances (metres); see module docs.
    g.add_edge(vq, cupcake, 1500.0);
    g.add_edge(cupcake, art_museum, 781.0);
    g.add_edge(vq, dessert, 200.0);
    g.add_edge(dessert, museum, 300.0);
    g.add_edge(dessert, art_museum, 700.0);
    g.add_edge(museum, jazz, 892.0);
    g.add_edge(museum, music_venue, 323.0);
    g.add_edge(art_museum, jazz, 958.0);
    let graph = g.build();

    let mut pois = PoiTable::new(graph.num_vertices());
    pois.add_poi(cupcake, cat("Cupcake Shop"));
    pois.add_poi(dessert, cat("Dessert Shop"));
    pois.add_poi(art_museum, cat("Art Museum"));
    pois.add_poi(museum, cat("Museum"));
    pois.add_poi(jazz, cat("Jazz Club"));
    pois.add_poi(music_venue, cat("Music Venue"));
    pois.finalize(&forest);

    let query = SkySrQuery::new(vq, [cat("Cupcake Shop"), cat("Art Museum"), cat("Jazz Club")]);
    Scenario { graph, forest, pois, query, destination: None }
}

/// Builds the Table 9 scenario: ⟨Beer Garden, Sushi Restaurant, Sake Bar⟩
/// from the current location, ending at the hotel. The perfect route is
/// long (the only beer garden is across town); swapping the beer garden
/// for a nearby plain bar shortens the trip dramatically — the paper's
/// 7451 m vs 1295 m contrast.
pub fn table9_fixture() -> Scenario {
    let forest = foursquare_forest();
    let cat = |n: &str| forest.by_name(n).unwrap_or_else(|| panic!("missing category {n}"));

    let mut g = GraphBuilder::new();
    let start = g.add_vertex(); // 0
    let beer_garden = g.add_vertex(); // 1: far across town
    let bar = g.add_vertex(); // 2: around the corner
    let sushi_a = g.add_vertex(); // 3: near the bar
    let sushi_b = g.add_vertex(); // 4: near the beer garden
    let sake_a = g.add_vertex(); // 5: near sushi_a
    let sake_b = g.add_vertex(); // 6: near sushi_b
    let hotel = g.add_vertex(); // 7
    g.add_edge(start, beer_garden, 3300.0);
    g.add_edge(start, bar, 250.0);
    g.add_edge(bar, sushi_a, 400.0);
    g.add_edge(sushi_a, sake_a, 345.0);
    g.add_edge(sake_a, hotel, 300.0);
    g.add_edge(beer_garden, sushi_b, 2000.0);
    g.add_edge(sushi_b, sake_b, 1500.0);
    g.add_edge(sake_b, hotel, 651.0);
    g.add_edge(hotel, start, 500.0);
    let graph = g.build();

    let mut pois = PoiTable::new(graph.num_vertices());
    pois.add_poi(beer_garden, cat("Beer Garden"));
    pois.add_poi(bar, cat("Pub")); // a plain bar-tree PoI
    pois.add_poi(sushi_a, cat("Sushi Restaurant"));
    pois.add_poi(sushi_b, cat("Sushi Restaurant"));
    pois.add_poi(sake_a, cat("Sake Bar"));
    pois.add_poi(sake_b, cat("Sake Bar"));
    pois.finalize(&forest);

    let query =
        SkySrQuery::new(start, [cat("Beer Garden"), cat("Sushi Restaurant"), cat("Sake Bar")]);
    Scenario { graph, forest, pois, query, destination: Some(hotel) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skysr_core::bssr::{Bssr, BssrConfig};
    use skysr_core::QueryContext;
    use skysr_graph::Cost;

    #[test]
    fn table1_reproduces_all_four_rows() {
        let s = table1_fixture();
        let ctx = QueryContext::new(&s.graph, &s.forest, &s.pois);
        let result = Bssr::with_config(&ctx, BssrConfig::paper()).run(&s.query).unwrap();
        let rows: Vec<(f64, String)> = result
            .routes
            .iter()
            .map(|r| {
                (
                    r.length.get(),
                    r.pois.iter().map(|&p| s.poi_label(p)).collect::<Vec<_>>().join(" -> "),
                )
            })
            .collect();
        assert_eq!(rows.len(), 4, "{rows:?}");
        assert_eq!(rows[0].0, 823.0);
        assert_eq!(rows[0].1, "Dessert Shop -> Museum -> Music Venue");
        assert_eq!(rows[1].0, 1392.0);
        assert_eq!(rows[1].1, "Dessert Shop -> Museum -> Jazz Club");
        assert_eq!(rows[2].0, 1858.0);
        assert_eq!(rows[2].1, "Dessert Shop -> Art Museum -> Jazz Club");
        assert_eq!(rows[3].0, 3239.0);
        assert_eq!(rows[3].1, "Cupcake Shop -> Art Museum -> Jazz Club");
        // Semantic scores strictly decrease with length (skyline shape).
        for w in result.routes.windows(2) {
            assert!(w[0].semantic > w[1].semantic);
        }
    }

    #[test]
    fn table9_bar_route_undercuts_beer_garden_route() {
        let s = table9_fixture();
        let ctx = QueryContext::new(&s.graph, &s.forest, &s.pois);
        let dq = skysr_core::variants::destination::DestinationQuery::new(
            s.query.clone(),
            s.destination.unwrap(),
        );
        let result = dq.run(&ctx, BssrConfig::paper()).unwrap();
        // Table 9's exact numbers: the perfect route (beer garden across
        // town) costs 3300 + 2000 + 1500 + 651 = 7451 m including the
        // hotel leg; the "Bar" route costs 250 + 400 + 345 + 300 = 1295 m.
        let perfect = result.routes.iter().find(|r| r.semantic == 0.0).expect("perfect route");
        let semantic = result.routes.iter().find(|r| r.semantic > 0.0).expect("semantic route");
        assert_eq!(perfect.length, Cost::new(7451.0));
        assert_eq!(semantic.length, Cost::new(1295.0));
        // The semantic route swaps only the beer garden for the pub.
        assert_eq!(s.poi_label(semantic.pois[0]), "Pub");
        assert_eq!(s.poi_label(semantic.pois[1]), "Sushi Restaurant");
        assert_eq!(s.poi_label(semantic.pois[2]), "Sake Bar");
    }
}
