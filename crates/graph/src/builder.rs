//! Incremental construction of [`RoadNetwork`]s.
//!
//! The builder accepts vertices (optionally with coordinates) and weighted
//! edges, supports splitting an edge at an interior point (how PoIs get
//! embedded "on the closest edge", §7.1), and finalises into the immutable
//! CSR representation.

use crate::csr::RoadNetwork;
use crate::geometry::GeoPoint;
use crate::VertexId;

/// One input edge prior to CSR packing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InputEdge {
    /// Tail vertex.
    pub from: VertexId,
    /// Head vertex.
    pub to: VertexId,
    /// Finite, non-negative weight.
    pub weight: f64,
}

/// Mutable builder for [`RoadNetwork`].
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    coords: Vec<Option<GeoPoint>>,
    edges: Vec<InputEdge>,
    directed: bool,
}

impl GraphBuilder {
    /// New empty undirected builder.
    pub fn new() -> GraphBuilder {
        GraphBuilder::default()
    }

    /// New builder producing a directed graph (§6 "Directed graphs").
    pub fn directed() -> GraphBuilder {
        GraphBuilder { directed: true, ..GraphBuilder::default() }
    }

    /// Whether the resulting graph is directed.
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Number of vertices added so far.
    pub fn num_vertices(&self) -> usize {
        self.coords.len()
    }

    /// Number of input edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds a vertex without coordinates; returns its id.
    pub fn add_vertex(&mut self) -> VertexId {
        self.coords.push(None);
        VertexId((self.coords.len() - 1) as u32)
    }

    /// Adds a vertex with coordinates; returns its id.
    pub fn add_vertex_at(&mut self, p: GeoPoint) -> VertexId {
        self.coords.push(Some(p));
        VertexId((self.coords.len() - 1) as u32)
    }

    /// Coordinates of `v`, if any were supplied.
    pub fn coords_of(&self, v: VertexId) -> Option<GeoPoint> {
        self.coords.get(v.index()).copied().flatten()
    }

    /// Adds an edge. For undirected builders, the reverse arc is implied.
    ///
    /// # Panics
    /// If either endpoint is unknown or the weight is negative, infinite
    /// or NaN.
    pub fn add_edge(&mut self, from: VertexId, to: VertexId, weight: f64) -> usize {
        assert!(from.index() < self.coords.len(), "unknown tail vertex {from:?}");
        assert!(to.index() < self.coords.len(), "unknown head vertex {to:?}");
        let valid = weight.is_finite() && weight >= 0.0;
        assert!(valid, "edge weight must be finite and non-negative, got {weight}");
        self.edges.push(InputEdge { from, to, weight });
        self.edges.len() - 1
    }

    /// Adds an edge whose weight is the haversine distance between the
    /// endpoints' coordinates.
    ///
    /// # Panics
    /// If either endpoint lacks coordinates.
    pub fn add_geo_edge(&mut self, from: VertexId, to: VertexId) -> usize {
        let a = self.coords_of(from).expect("tail vertex has no coordinates");
        let b = self.coords_of(to).expect("head vertex has no coordinates");
        self.add_edge(from, to, a.haversine_m(&b))
    }

    /// Raw access to the accumulated edges (used by the PoI embedder to
    /// find the closest edge before splitting it).
    pub fn edges(&self) -> &[InputEdge] {
        &self.edges
    }

    /// Splits input edge `edge_idx` at parameter `t ∈ [0, 1]`, inserting a
    /// new vertex there and replacing the edge by two sub-edges whose
    /// weights sum to the original weight. Returns the new vertex.
    ///
    /// This is how PoIs are embedded on the closest edge: the PoI becomes a
    /// graph vertex that any route must actually drive through.
    pub fn split_edge(&mut self, edge_idx: usize, t: f64) -> VertexId {
        assert!((0.0..=1.0).contains(&t), "split parameter {t} out of range");
        let e = self.edges[edge_idx];
        let coords = match (self.coords_of(e.from), self.coords_of(e.to)) {
            (Some(a), Some(b)) => Some(a.lerp(&b, t)),
            _ => None,
        };
        let mid = match coords {
            Some(p) => self.add_vertex_at(p),
            None => self.add_vertex(),
        };
        let w1 = e.weight * t;
        let w2 = e.weight - w1;
        self.edges[edge_idx] = InputEdge { from: e.from, to: mid, weight: w1 };
        self.edges.push(InputEdge { from: mid, to: e.to, weight: w2 });
        mid
    }

    /// Finalises into the immutable CSR [`RoadNetwork`].
    pub fn build(self) -> RoadNetwork {
        RoadNetwork::from_edges(self.coords, &self.edges, self.directed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> GraphBuilder {
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex();
        let v1 = b.add_vertex();
        let v2 = b.add_vertex();
        b.add_edge(v0, v1, 1.0);
        b.add_edge(v1, v2, 2.0);
        b.add_edge(v2, v0, 4.0);
        b
    }

    #[test]
    fn undirected_build_has_reverse_arcs() {
        let g = triangle().build();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        let nbrs: Vec<_> = g.neighbors(VertexId(1)).map(|(v, w)| (v.0, w.get())).collect();
        assert!(nbrs.contains(&(0, 1.0)));
        assert!(nbrs.contains(&(2, 2.0)));
    }

    #[test]
    fn directed_build_has_no_reverse_arcs() {
        let mut b = GraphBuilder::directed();
        let v0 = b.add_vertex();
        let v1 = b.add_vertex();
        b.add_edge(v0, v1, 1.0);
        let g = b.build();
        assert!(g.is_directed());
        assert_eq!(g.neighbors(VertexId(0)).count(), 1);
        assert_eq!(g.neighbors(VertexId(1)).count(), 0);
    }

    #[test]
    fn split_edge_preserves_total_weight() {
        let mut b = triangle();
        let mid = b.split_edge(1, 0.25); // edge v1 -> v2, weight 2.0
        assert_eq!(mid, VertexId(3));
        let g = b.build();
        let w_left: f64 =
            g.neighbors(VertexId(1)).find(|(v, _)| *v == mid).map(|(_, w)| w.get()).unwrap();
        let w_right: f64 =
            g.neighbors(VertexId(2)).find(|(v, _)| *v == mid).map(|(_, w)| w.get()).unwrap();
        assert!((w_left - 0.5).abs() < 1e-12);
        assert!((w_right - 1.5).abs() < 1e-12);
    }

    #[test]
    fn split_edge_interpolates_coordinates() {
        let mut b = GraphBuilder::new();
        let a = b.add_vertex_at(GeoPoint::new(0.0, 0.0));
        let c = b.add_vertex_at(GeoPoint::new(0.0, 1.0));
        b.add_edge(a, c, 10.0);
        let mid = b.split_edge(0, 0.5);
        let p = b.coords_of(mid).unwrap();
        assert!((p.lon - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_rejected() {
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex();
        let v1 = b.add_vertex();
        b.add_edge(v0, v1, -1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative, got inf")]
    fn infinite_weight_rejected() {
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex();
        let v1 = b.add_vertex();
        b.add_edge(v0, v1, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "unknown head vertex")]
    fn unknown_vertex_rejected() {
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex();
        b.add_edge(v0, VertexId(9), 1.0);
    }

    #[test]
    fn geo_edge_weight_is_haversine() {
        let mut b = GraphBuilder::new();
        let a = b.add_vertex_at(GeoPoint::new(35.0, 139.0));
        let c = b.add_vertex_at(GeoPoint::new(35.01, 139.0));
        b.add_geo_edge(a, c);
        let g = b.build();
        let (_, w) = g.neighbors(a).next().unwrap();
        // 0.01 degrees of latitude is ~1.11 km.
        assert!((w.get() - 1112.0).abs() < 10.0, "got {}", w.get());
    }
}
