//! Road-network graph substrate for the SkySR workspace.
//!
//! This crate implements everything the paper's §3 and §5 assume about the
//! underlying road network:
//!
//! * a compact CSR adjacency representation ([`RoadNetwork`]) supporting
//!   undirected and directed graphs with non-negative `f64` edge weights,
//! * a totally ordered, NaN-free cost type ([`Cost`]) usable in binary heaps,
//! * the Dijkstra family the algorithms need: plain/bounded single-source
//!   search ([`dijkstra`]), the multi-source multi-destination variant of
//!   Lemma 5.9 ([`multi_source`]), and a resumable incremental
//!   nearest-neighbour search ([`resumable`]) used by the PNE baseline,
//! * stamped per-vertex records ([`versioned`]) so repeated searches avoid
//!   O(|V|) reinitialisation,
//! * dynamic edge weights ([`epoch`]): batched weight deltas published as
//!   epoch-versioned copy-on-write overlays, so searches pin a consistent
//!   snapshot while traffic updates proceed concurrently,
//! * geographic helpers ([`geometry`]) for haversine edge weights and
//!   point-to-segment projection (PoI embedding on the closest edge),
//! * connectivity utilities ([`connectivity`]) used by the dataset
//!   generators to guarantee connected graphs.

pub mod builder;
pub mod connectivity;
pub mod csr;
pub mod dijkstra;
pub mod epoch;
pub mod fxhash;
pub mod geometry;
pub mod landmarks;
pub mod multi_source;
pub mod path;
pub mod resumable;
pub mod stats;
pub mod versioned;
pub mod weight;

pub use builder::GraphBuilder;
pub use csr::RoadNetwork;
pub use dijkstra::{dijkstra_with, DijkstraWorkspace, Settle};
pub use epoch::{
    DeltaError, DeltaSet, EpochGcStats, EpochId, WeightDelta, WeightEpoch, WeightTouch,
};
pub use geometry::GeoPoint;
pub use landmarks::Landmarks;
pub use resumable::ResumableDijkstra;
pub use stats::SearchStats;
pub use versioned::StampedRecords;
pub use weight::Cost;

/// Identifier of a vertex in a [`RoadNetwork`].
///
/// Both plain road vertices and PoI vertices (the paper's `V` and `P`) share
/// one id space; the PoI/category association lives in `skysr-core`'s
/// `PoiTable`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VertexId(pub u32);

impl VertexId {
    /// Index form for slice access.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for VertexId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl std::fmt::Display for VertexId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for VertexId {
    #[inline]
    fn from(v: u32) -> Self {
        VertexId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_id_roundtrip() {
        let v = VertexId(42);
        assert_eq!(v.index(), 42);
        assert_eq!(VertexId::from(42u32), v);
        assert_eq!(format!("{v:?}"), "v42");
        assert_eq!(v.to_string(), "42");
    }

    #[test]
    fn vertex_id_ordering_follows_raw() {
        assert!(VertexId(1) < VertexId(2));
        assert_eq!(VertexId(7), VertexId(7));
    }
}
