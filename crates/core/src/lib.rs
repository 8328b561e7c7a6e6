//! SkySR — skyline sequenced route queries (the paper's contribution).
//!
//! Given a start vertex and an ordered list of PoI category requirements,
//! a SkySR query (Definition 4.2) returns every sequenced route that is not
//! dominated in the (route length, semantic score) plane. This crate
//! implements:
//!
//! * the query model: [`PoiTable`], [`QueryContext`], [`query::SkySrQuery`],
//!   routes and scores ([`route`]), dominance and minimal skyline sets
//!   ([`dominance`]);
//! * **BSSR**, the bulk SkySR algorithm of §5 ([`bssr`]) with all four
//!   optimisation techniques (NNinit, arranged priority queue, possible
//!   minimum distances, on-the-fly caching), each independently toggleable
//!   for the ablation experiments, and grouped expansion, which the default
//!   engine runs instead of the caching;
//! * the competitors used in §7: iterated optimal-sequenced-route search
//!   with the Dijkstra-based solution ([`osr`]) and the PNE approach
//!   ([`pne`]), wrapped into exact skyline baselines ([`baseline`]);
//! * an exhaustive oracle for testing ([`naive`]);
//! * the §6 variations: destination-constrained SkySR and unordered skyline
//!   trip planning ([`variants`]), multi-category PoIs and complex category
//!   requirements (built into [`PoiTable`] / [`prepared`]);
//! * the running example of Figure 1 / §5.5 as a reusable fixture
//!   ([`paper_example`]).

pub mod baseline;
pub mod bssr;
pub mod context;
pub mod dominance;
pub mod error;
pub mod naive;
pub mod osr;
pub mod paper_example;
pub mod pne;
pub mod poi;
pub mod prepared;
pub mod query;
pub mod route;
pub mod stats;
pub mod variants;

pub use context::QueryContext;
pub use error::QueryError;
pub use poi::PoiTable;
pub use prepared::PreparedQuery;
pub use query::{CanonicalPosition, PositionSpec, SkySrQuery};
pub use route::SkylineRoute;
pub use stats::{EngineProfile, QueryStats};
