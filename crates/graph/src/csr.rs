//! Immutable CSR (compressed sparse row) road network.
//!
//! The paper's graph `G = (V ∪ P, E)` is stored as one vertex id space with
//! a packed adjacency array: `offsets[v] .. offsets[v + 1]` indexes into
//! parallel `targets` / `weights` arrays. Undirected graphs store both arc
//! directions so traversal never branches on directedness.
//!
//! Since the dynamic-weights work, the CSR arrays live behind an `Arc` and
//! a [`RoadNetwork`] value is a cheap *view*: shared topology plus an
//! optional sparse [`WeightOverlay`] that
//! reweights individual arcs. Views are produced by
//! [`WeightEpoch`](crate::epoch::WeightEpoch), which publishes batched
//! weight deltas as copy-on-write overlays with monotonically increasing
//! epoch ids; a search holding a view is pinned to its epoch and never
//! observes a concurrent update.

use std::sync::Arc;

use crate::epoch::{EpochId, WeightOverlay};
use crate::geometry::GeoPoint;
use crate::weight::Cost;
use crate::{builder::InputEdge, VertexId};

/// The shared, truly immutable CSR arrays (topology + base weights).
#[derive(Debug)]
pub(crate) struct CsrStorage {
    pub(crate) offsets: Vec<u32>,
    pub(crate) targets: Vec<VertexId>,
    pub(crate) weights: Vec<f64>,
    pub(crate) coords: Vec<Option<GeoPoint>>,
    pub(crate) directed: bool,
    pub(crate) num_input_edges: usize,
}

/// An immutable weighted road network (a cheap, `Arc`-backed view).
///
/// Cloning shares the underlying CSR arrays; two clones may differ only in
/// the weight overlay (and therefore the [`epoch`](RoadNetwork::epoch))
/// they carry.
#[derive(Clone, Debug)]
pub struct RoadNetwork {
    storage: Arc<CsrStorage>,
    overlay: Option<Arc<WeightOverlay>>,
}

impl RoadNetwork {
    /// Packs input edges into CSR form. Undirected graphs get both arcs.
    pub(crate) fn from_edges(
        coords: Vec<Option<GeoPoint>>,
        edges: &[InputEdge],
        directed: bool,
    ) -> RoadNetwork {
        let n = coords.len();
        let arcs = if directed { edges.len() } else { edges.len() * 2 };
        let mut degree = vec![0u32; n + 1];
        for e in edges {
            degree[e.from.index() + 1] += 1;
            if !directed {
                degree[e.to.index() + 1] += 1;
            }
        }
        for i in 0..n {
            degree[i + 1] += degree[i];
        }
        let offsets = degree.clone();
        let mut cursor = degree;
        let mut targets = vec![VertexId(0); arcs];
        let mut weights = vec![0.0f64; arcs];
        let mut place = |cursor: &mut Vec<u32>, from: VertexId, to: VertexId, w: f64| {
            let slot = cursor[from.index()] as usize;
            targets[slot] = to;
            weights[slot] = w;
            cursor[from.index()] += 1;
        };
        for e in edges {
            place(&mut cursor, e.from, e.to, e.weight);
            if !directed {
                place(&mut cursor, e.to, e.from, e.weight);
            }
        }
        RoadNetwork {
            storage: Arc::new(CsrStorage {
                offsets,
                targets,
                weights,
                coords,
                directed,
                num_input_edges: edges.len(),
            }),
            overlay: None,
        }
    }

    /// A view over the same storage with `overlay` applied. An empty
    /// overlay still tags the view with the overlay's epoch.
    pub(crate) fn with_overlay(&self, overlay: Arc<WeightOverlay>) -> RoadNetwork {
        RoadNetwork { storage: Arc::clone(&self.storage), overlay: Some(overlay) }
    }

    /// The weight overlay this view carries, if any.
    #[cfg(test)]
    pub(crate) fn overlay(&self) -> Option<&Arc<WeightOverlay>> {
        self.overlay.as_ref()
    }

    /// The weight epoch this view is pinned to. A freshly built network is
    /// at [`EpochId::BASE`]; views produced by
    /// [`WeightEpoch::pin`](crate::epoch::WeightEpoch::pin) carry the
    /// publishing epoch.
    #[inline]
    pub fn epoch(&self) -> EpochId {
        self.overlay.as_ref().map_or(EpochId::BASE, |o| o.epoch())
    }

    /// Number of vertices (|V| + |P| in the paper's terms).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.storage.coords.len()
    }

    /// Number of *input* edges (each undirected edge counted once).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.storage.num_input_edges
    }

    /// Number of stored arcs (2·|E| for undirected graphs).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.storage.targets.len()
    }

    /// Whether this network is directed.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.storage.directed
    }

    /// Out-neighbours of `v` with arc costs (overlay weights applied).
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Cost)> + '_ {
        let lo = self.storage.offsets[v.index()] as usize;
        let hi = self.storage.offsets[v.index() + 1] as usize;
        // The overlay is probed only at a vertex its manager marked (one
        // range probe per call); elsewhere no out-arc is reweighted and the
        // base weights are read as they are. The per-arc work below is a
        // cursor comparison against the probed (usually empty) sub-slice.
        let (oa, ow) = match &self.overlay {
            Some(o) if o.may_reweight(v) => o.range(lo as u32, hi as u32),
            _ => (&[][..], &[][..]),
        };
        let mut cursor = 0usize;
        self.storage.targets[lo..hi].iter().zip(&self.storage.weights[lo..hi]).enumerate().map(
            move |(i, (&t, &w))| {
                let slot = (lo + i) as u32;
                while cursor < oa.len() && oa[cursor] < slot {
                    cursor += 1;
                }
                let w = if cursor < oa.len() && oa[cursor] == slot { ow[cursor] } else { w };
                (t, Cost::new(w))
            },
        )
    }

    /// The endpoints and current (overlay-applied) weight of arc `slot`.
    ///
    /// Arc slots index the packed adjacency array (`0..num_arcs()`); the
    /// tail vertex is recovered by binary search over the offsets. Used by
    /// workload drivers to sample edges for weight updates.
    ///
    /// # Panics
    /// If `slot >= num_arcs()`.
    pub fn arc(&self, slot: usize) -> (VertexId, VertexId, Cost) {
        assert!(slot < self.num_arcs(), "arc slot {slot} out of range");
        let from = self.storage.offsets.partition_point(|&o| o as usize <= slot) - 1;
        let w = match self.overlay.as_ref().and_then(|o| o.weight_of(slot as u32)) {
            Some(w) => w,
            None => self.storage.weights[slot],
        };
        (VertexId(from as u32), self.storage.targets[slot], Cost::new(w))
    }

    /// The *base* (epoch-0) weight of arc `slot`, ignoring any overlay.
    pub fn base_arc_weight(&self, slot: usize) -> Cost {
        Cost::new(self.storage.weights[slot])
    }

    /// The effective (overlay-applied) weight of arc `slot`, without the
    /// endpoint recovery [`RoadNetwork::arc`] pays for.
    #[inline]
    pub(crate) fn arc_weight(&self, slot: u32) -> f64 {
        match self.overlay.as_ref().and_then(|o| o.weight_of(slot)) {
            Some(w) => w,
            None => self.storage.weights[slot as usize],
        }
    }

    /// A copy of this view with the same effective weights at
    /// [`EpochId::BASE`] and no overlay: a base for a new
    /// [`WeightEpoch`](crate::epoch::WeightEpoch) manager that shares
    /// nothing with the one that published this view.
    /// Shares the storage when the view reweights no arc; otherwise the
    /// overlay is folded into a new storage, an O(|arcs| + |V|) copy that
    /// leaves the old storage (and every view over it) untouched.
    pub fn detached(&self) -> RoadNetwork {
        let s = &self.storage;
        let overlay = match &self.overlay {
            Some(o) if !o.is_empty() => o,
            _ => return RoadNetwork { storage: Arc::clone(s), overlay: None },
        };
        let mut weights = s.weights.clone();
        for (slot, w) in overlay.entries() {
            weights[slot as usize] = w;
        }
        RoadNetwork {
            storage: Arc::new(CsrStorage {
                offsets: s.offsets.clone(),
                targets: s.targets.clone(),
                weights,
                coords: s.coords.clone(),
                directed: s.directed,
                num_input_edges: s.num_input_edges,
            }),
            overlay: None,
        }
    }

    /// Arc slots of every stored arc `from → to` (several for parallel
    /// edges, empty if the arc does not exist).
    pub(crate) fn arcs_between(&self, from: VertexId, to: VertexId) -> Vec<u32> {
        let lo = self.storage.offsets[from.index()] as usize;
        let hi = self.storage.offsets[from.index() + 1] as usize;
        (lo..hi).filter(|&s| self.storage.targets[s] == to).map(|s| s as u32).collect()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.storage.offsets[v.index() + 1] - self.storage.offsets[v.index()]) as usize
    }

    /// Coordinates of `v`, if present.
    #[inline]
    pub fn coords_of(&self, v: VertexId) -> Option<GeoPoint> {
        self.storage.coords.get(v.index()).copied().flatten()
    }

    /// All vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        (0..self.num_vertices() as u32).map(VertexId)
    }

    /// Sum of all arc weights under this view's overlay; a rough "size" of
    /// the road network used by search-space instrumentation.
    pub fn total_weight(&self) -> f64 {
        let base: f64 = self.storage.weights.iter().sum();
        match &self.overlay {
            None => base,
            Some(o) => {
                base + o
                    .entries()
                    .map(|(slot, w)| w - self.storage.weights[slot as usize])
                    .sum::<f64>()
            }
        }
    }

    /// Approximate heap footprint in bytes (CSR arrays + coordinates +
    /// overlay), counted once per storage regardless of how many views
    /// share it.
    pub fn heap_bytes(&self) -> usize {
        self.storage.offsets.len() * std::mem::size_of::<u32>()
            + self.storage.targets.len() * std::mem::size_of::<VertexId>()
            + self.storage.weights.len() * std::mem::size_of::<f64>()
            + self.storage.coords.len() * std::mem::size_of::<Option<GeoPoint>>()
            + self.overlay.as_ref().map_or(0, |o| o.heap_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::epoch::{WeightDelta, WeightEpoch};

    fn line(n: usize) -> RoadNetwork {
        let mut b = GraphBuilder::new();
        let vs: Vec<_> = (0..n).map(|_| b.add_vertex()).collect();
        for w in vs.windows(2) {
            b.add_edge(w[0], w[1], 1.0);
        }
        b.build()
    }

    #[test]
    fn csr_degrees_and_counts() {
        let g = line(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.num_arcs(), 8);
        assert_eq!(g.degree(VertexId(0)), 1);
        assert_eq!(g.degree(VertexId(2)), 2);
        assert_eq!(g.epoch(), EpochId::BASE);
    }

    #[test]
    fn neighbors_yield_costs() {
        let g = line(3);
        let n: Vec<_> = g.neighbors(VertexId(1)).collect();
        assert_eq!(n.len(), 2);
        for (_, c) in n {
            assert_eq!(c, Cost::new(1.0));
        }
    }

    #[test]
    fn isolated_vertex_has_no_neighbors() {
        let mut b = GraphBuilder::new();
        b.add_vertex();
        let g = b.build();
        assert_eq!(g.neighbors(VertexId(0)).count(), 0);
        assert_eq!(g.degree(VertexId(0)), 0);
    }

    #[test]
    fn parallel_edges_are_preserved() {
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex();
        let v1 = b.add_vertex();
        b.add_edge(v0, v1, 1.0);
        b.add_edge(v0, v1, 3.0);
        let g = b.build();
        assert_eq!(g.degree(VertexId(0)), 2);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn total_weight_counts_arcs() {
        let g = line(3); // two edges of weight 1 stored in both directions
        assert_eq!(g.total_weight(), 4.0);
    }

    #[test]
    fn self_loop_supported() {
        let mut b = GraphBuilder::new();
        let v = b.add_vertex();
        b.add_edge(v, v, 5.0);
        let g = b.build();
        // Undirected self loop stores two arcs.
        assert_eq!(g.degree(v), 2);
    }

    #[test]
    fn heap_bytes_positive() {
        assert!(line(10).heap_bytes() > 0);
    }

    #[test]
    fn clones_share_storage() {
        let g = line(4);
        let h = g.clone();
        assert!(Arc::ptr_eq(&g.storage, &h.storage));
    }

    #[test]
    fn arc_recovers_endpoints_and_weight() {
        let g = line(3); // arcs: 0→1, 1→0, 1→2, 2→1
        let mut seen = Vec::new();
        for s in 0..g.num_arcs() {
            let (from, to, w) = g.arc(s);
            assert_eq!(w, Cost::new(1.0));
            seen.push((from.0, to.0));
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![(0, 1), (1, 0), (1, 2), (2, 1)]);
    }

    #[test]
    fn overlaid_view_changes_weights_and_totals() {
        let g = line(3);
        let epochs = WeightEpoch::new(g.clone());
        epochs.publish(&[WeightDelta::new(VertexId(0), VertexId(1), 7.0)]);
        let pinned = epochs.pin();
        // Both directions of the undirected edge are reweighted.
        assert_eq!(pinned.neighbors(VertexId(0)).next().unwrap().1, Cost::new(7.0));
        let back: Vec<_> = pinned.neighbors(VertexId(1)).collect();
        assert!(back.contains(&(VertexId(0), Cost::new(7.0))));
        assert!(back.contains(&(VertexId(2), Cost::new(1.0))));
        assert_eq!(pinned.total_weight(), 7.0 + 7.0 + 1.0 + 1.0);
        // The base view is untouched.
        assert_eq!(g.total_weight(), 4.0);
        assert_eq!(g.neighbors(VertexId(0)).next().unwrap().1, Cost::new(1.0));
        // Base weights stay visible through the pinned view too.
        for s in 0..pinned.num_arcs() {
            assert_eq!(pinned.base_arc_weight(s), Cost::new(1.0));
        }
    }
}
