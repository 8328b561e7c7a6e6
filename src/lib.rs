//! # skysr — Skyline Sequenced Route queries with semantic hierarchy
//!
//! Umbrella crate re-exporting the full public API of the SkySR workspace,
//! a from-scratch Rust reproduction of
//! *“Sequenced Route Query with Semantic Hierarchy”* (Sasaki, Ishikawa,
//! Fujiwara, Onizuka — EDBT 2018).
//!
//! A SkySR query takes a start point on a road network and an ordered list
//! of Point-of-Interest categories, and returns the set of *skyline*
//! sequenced routes: routes whose (length, semantic-similarity) score pairs
//! are not dominated by any other sequenced route. Semantic similarity is
//! computed over a category forest (e.g. the Foursquare taxonomy), so a
//! route through an *Italian* restaurant can flexibly answer a query that
//! asked for an *Asian* restaurant — at a semantic cost the skyline makes
//! explicit.
//!
//! Beyond this API reference, two prose documents at the repository root
//! cover the system as a whole: `docs/ARCHITECTURE.md` (the crate map and
//! the invariants that span crates: the weight-epoch lifecycle, the
//! serving rung ladder, the `skysr-d` wire protocol) and
//! `docs/OPERATIONS.md` (running the daemon, every flag, the counter
//! taxonomy, capacity planning).
//!
//! ## Quickstart
//!
//! ```
//! use skysr::prelude::*;
//!
//! // A tiny synthetic city with PoIs and the built-in Foursquare-style taxonomy.
//! let dataset = DatasetSpec::preset(Preset::CalSmall).scale(0.05).seed(7).generate();
//! let ctx = dataset.context();
//!
//! // Ask for <restaurant-ish, shop-ish> starting from vertex 0.
//! let workload = WorkloadSpec::new(2).queries(1).seed(11).generate(&dataset);
//! let query = &workload.queries[0];
//!
//! let result = Bssr::new(&ctx).run(query).unwrap();
//! assert!(!result.routes.is_empty());
//! for route in &result.routes {
//!     println!("{:>9.1} m  s={:.3}  {:?}", route.length.get(), route.semantic, route.pois);
//! }
//! ```

pub use skysr_category as category;
pub use skysr_core as core;
pub use skysr_data as data;
pub use skysr_graph as graph;
pub use skysr_service as service;

/// Convenient single-import surface for examples and downstream users.
pub mod prelude {
    pub use skysr_category::{
        CategoryForest, CategoryId, ForestBuilder, PathLength, Similarity, WuPalmer,
    };
    pub use skysr_core::{
        baseline::{DijBaseline, PneBaseline},
        bssr::{Bssr, BssrConfig, LowerBoundMode, QueuePolicy},
        dominance::SkylineSet,
        query::SkySrQuery,
        route::SkylineRoute,
        variants::destination::DestinationQuery,
        variants::rated::{RatedQuery, RatingTable},
        variants::skyband::SkybandQuery,
        variants::unordered::UnorderedQuery,
        PoiTable, QueryContext,
    };
    pub use skysr_data::{
        dataset::{Dataset, DatasetSpec, Preset},
        workload::{Workload, WorkloadSpec},
    };
    pub use skysr_graph::{
        Cost, EpochId, Landmarks, RoadNetwork, VertexId, WeightDelta, WeightEpoch,
    };
    pub use skysr_service::{
        replay::{replay, ReplayReport, ReplaySpec},
        MetricsSnapshot, QueryRequest, QueryResponse, QueryService, RemoteService, Server,
        ServerConfig, Service, ServiceConfig, ServiceContext,
    };
}
