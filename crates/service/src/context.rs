//! The owned, shareable counterpart of `skysr_core::QueryContext`, with
//! epoch-managed dynamic edge weights, the per-epoch-pair deltas repair
//! reads, and the landmark oracle it bounds them with.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock};

use skysr_category::{CategoryForest, Similarity, WuPalmer};
use skysr_core::error::QueryError;
use skysr_core::prepared::PositionMemo;
use skysr_core::{PoiTable, PreparedQuery, QueryContext, SkySrQuery};
use skysr_data::dataset::Dataset;
use skysr_graph::{
    DeltaError, DeltaSet, EpochGcStats, EpochId, Landmarks, RoadNetwork, VertexId, WeightDelta,
    WeightEpoch,
};

/// Landmarks built for the repair lower bounds: as many as one table line
/// holds, a bound then costs two cache lines whatever the count. The
/// one-time build (one full Dijkstra each, run on every core) stays small
/// next to serving: 0.3–0.5 s on Tokyo's 576,377 vertices on two cores.
const REPAIR_LANDMARKS: usize = Landmarks::CAPACITY;

/// Recent per-epoch-pair [`DeltaSet`]s kept resident. Traffic repairs
/// against a handful of live epoch pairs at a time (workers re-pin per
/// job, so the "to" side is almost always the current epoch); a small ring
/// makes the delta effectively diffed once per pair and shared across
/// every stale key of that pair.
const DELTA_INDEX_RING: usize = 16;

/// One memoized per-epoch-pair delta: ((from, to), the shared delta).
type IndexedPair = ((EpochId, EpochId), Arc<DeltaSet>);

/// Owned bundle of graph + category forest + PoI table + similarity
/// measure.
///
/// The borrowed [`QueryContext`] ties a query to the stack frame owning
/// the data; a `ServiceContext` instead *owns* the data, so one
/// `Arc<ServiceContext>` can be moved into any number of worker threads.
///
/// The road network is held behind a [`WeightEpoch`] manager: weight
/// updates are published with [`Self::publish_weights`] while workers keep
/// serving. A worker never reads the live graph directly — it takes a
/// [`PinnedContext`] via [`Self::pin`], a consistent snapshot frozen at one
/// [`EpochId`], and runs the existing engines on it unchanged. Forest, PoI
/// table and similarity remain immutable for the context's lifetime.
pub struct ServiceContext {
    graph: WeightEpoch,
    forest: CategoryForest,
    pois: PoiTable,
    similarity: Arc<dyn Similarity>,
    /// Compiled category positions, filled on first use and valid at every
    /// epoch: they depend only on the immutable forest, PoI table and
    /// similarity. Reached only through [`PinnedContext::prepare`] — never
    /// through a [`QueryContext`], so oracles re-answering through
    /// [`Self::query_context`] or [`PinnedContext::query_context`] compile
    /// fresh and would expose a wrong entry as a mismatch.
    positions: PositionMemo,
    /// Landmark (ALT) oracle over the epoch-0 weights, built lazily on the
    /// first repair attempt. `None` inside means the graph does not
    /// support landmarks (directed) — repair then skips its cheap
    /// lower-bound tiers but stays correct.
    landmarks: OnceLock<Option<Landmarks>>,
    /// Per-epoch-pair deltas, most recent last.
    delta_indexes: Mutex<VecDeque<IndexedPair>>,
}

// Shared across worker threads; the graph's epoch manager is internally
// synchronized and everything else is either plain owned data or an
// `Arc<dyn Similarity>` whose trait requires `Send + Sync`. Keep that a
// compile-time fact:
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ServiceContext>();
};

impl ServiceContext {
    /// Context with the default Wu–Palmer similarity.
    pub fn new(graph: RoadNetwork, forest: CategoryForest, pois: PoiTable) -> ServiceContext {
        ServiceContext::with_similarity(graph, forest, pois, Arc::new(WuPalmer))
    }

    /// Context with a custom similarity measure.
    pub fn with_similarity(
        graph: RoadNetwork,
        forest: CategoryForest,
        pois: PoiTable,
        similarity: Arc<dyn Similarity>,
    ) -> ServiceContext {
        ServiceContext {
            graph: WeightEpoch::new(graph),
            positions: PositionMemo::new(forest.num_categories()),
            forest,
            pois,
            similarity,
            landmarks: OnceLock::new(),
            delta_indexes: Mutex::new(VecDeque::new()),
        }
    }

    /// Takes ownership of a generated (or loaded) dataset's graph, forest
    /// and PoI table.
    pub fn from_dataset(dataset: Dataset) -> ServiceContext {
        ServiceContext::new(dataset.graph, dataset.forest, dataset.pois)
    }

    /// A borrowed [`QueryContext`] over the *base* (epoch-0) graph view,
    /// usable with every algorithm in `skysr-core`.
    ///
    /// This deliberately does not follow weight updates — it borrows from
    /// `self` and therefore cannot pin a snapshot. Code that must see
    /// current (or historical) traffic goes through [`Self::pin`] /
    /// [`Self::pin_at`].
    pub fn query_context(&self) -> QueryContext<'_> {
        self.query_context_on(self.graph.base())
    }

    /// A borrowed [`QueryContext`] over `graph`, a view of this context's
    /// road network kept elsewhere (such as a replay's private weight
    /// history), with this context's forest, PoI table and similarity.
    pub(crate) fn query_context_on<'a>(&'a self, graph: &'a RoadNetwork) -> QueryContext<'a> {
        QueryContext::with_similarity(graph, &self.forest, &self.pois, &*self.similarity)
    }

    /// A consistent snapshot of the context at the current weight epoch.
    /// O(1): the graph view is two `Arc` clones.
    pub fn pin(&self) -> PinnedContext<'_> {
        self.pinned_view(self.graph.pin())
    }

    /// A snapshot pinned to `epoch`, if that epoch was published on this
    /// context and is still in its retention ring. Historical pins power
    /// verification: a replayed answer is audited against a fresh search
    /// *at the epoch it was served under*. An epoch older than the newest
    /// is rebuilt from the history (see [`WeightEpoch::pin_at`]).
    pub fn pin_at(&self, epoch: EpochId) -> Option<PinnedContext<'_>> {
        self.graph.pin_at(epoch).map(|g| self.pinned_view(g))
    }

    fn pinned_view(&self, graph: RoadNetwork) -> PinnedContext<'_> {
        PinnedContext {
            graph,
            forest: &self.forest,
            pois: &self.pois,
            similarity: &*self.similarity,
            positions: &self.positions,
        }
    }

    /// Publishes one batch of edge-weight deltas as the next epoch and
    /// returns its id. Already-pinned snapshots are unaffected; subsequent
    /// [`Self::pin`] calls observe the new weights.
    ///
    /// # Panics
    /// If a delta names a nonexistent vertex or edge, or a weight that is
    /// not finite and non-negative.
    pub fn publish_weights(&self, deltas: &[WeightDelta]) -> EpochId {
        self.graph.publish(deltas)
    }

    /// [`Self::publish_weights`] for a batch from outside the process: a
    /// batch naming a nonexistent vertex or edge, or a weight that is not
    /// finite and non-negative, is refused whole and publishes nothing.
    pub fn try_publish_weights(&self, deltas: &[WeightDelta]) -> Result<EpochId, DeltaError> {
        self.graph.try_publish(deltas)
    }

    /// The most recently published weight epoch.
    pub fn current_epoch(&self) -> EpochId {
        self.graph.current_epoch()
    }

    /// Bounds the weight-epoch history to the newest `retention` epochs
    /// (`0` = unlimited, the default). The history logs each publish's
    /// arcs, and the batches only older epochs need are dropped as new
    /// ones arrive, so epochs that fell out of the ring can no longer be
    /// pinned with [`Self::pin_at`] or diffed by [`Self::delta_index`].
    /// Views already pinned keep their weights.
    pub fn set_epoch_retention(&self, retention: usize) {
        self.graph.set_retention(retention);
    }

    /// Epoch history accounting (pinnable epochs, dropped epochs, history
    /// bytes) for metrics and the soak gates.
    pub fn epoch_gc_stats(&self) -> EpochGcStats {
        self.graph.gc_stats()
    }

    /// The exact arc-weight diff between `from` and `to`, shared by every
    /// stale cache key of the pair, or `None` when it is no longer
    /// derivable (an epoch fell out of the retention ring; repair then
    /// falls back to a fresh search). See [`WeightEpoch::delta_between`].
    ///
    /// Diffed **once** per pair and memoized in a small ring, so repairing
    /// N stale cache keys against one weight update costs one diff.
    pub fn delta_index(&self, from: EpochId, to: EpochId) -> Option<Arc<DeltaSet>> {
        if from > to {
            return None;
        }
        {
            let ring = self.delta_indexes.lock().expect("delta-index ring poisoned");
            if let Some((_, delta)) = ring.iter().rev().find(|(pair, _)| *pair == (from, to)) {
                return Some(Arc::clone(delta));
            }
        }
        // Diff outside the lock: it must not serialize the serving workers.
        let delta = Arc::new(self.graph.delta_between(from, to)?);
        let mut ring = self.delta_indexes.lock().expect("delta-index ring poisoned");
        if !ring.iter().any(|(pair, _)| *pair == (from, to)) {
            if ring.len() == DELTA_INDEX_RING {
                ring.pop_front();
            }
            ring.push_back(((from, to), Arc::clone(&delta)));
        }
        Some(delta)
    }

    /// The landmark lower-bound oracle repair's cheap tiers use, built
    /// over the epoch-0 weights on first use (`None` for graphs without
    /// landmark support, i.e. directed ones). The first call builds it on
    /// every core while later callers wait, so callers that enable repair
    /// call this before serving, as `replay`, `skysr-d` and perfbench do:
    /// left to the first repaired request, the build would block every
    /// repair behind it.
    pub fn landmarks(&self) -> Option<&Landmarks> {
        self.landmarks
            .get_or_init(|| {
                let base = self.graph.base();
                (!base.is_directed() && base.num_vertices() > 0)
                    .then(|| Landmarks::build(base, REPAIR_LANDMARKS, VertexId(0)))
            })
            .as_ref()
    }

    /// The base (epoch-0) road network view.
    pub fn graph(&self) -> &RoadNetwork {
        self.graph.base()
    }

    /// The category forest.
    pub fn forest(&self) -> &CategoryForest {
        &self.forest
    }

    /// The PoI table.
    pub fn pois(&self) -> &PoiTable {
        &self.pois
    }
}

impl std::fmt::Debug for ServiceContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceContext")
            .field("vertices", &self.graph.base().num_vertices())
            .field("edges", &self.graph.base().num_edges())
            .field("pois", &self.pois.num_pois())
            .field("categories", &self.forest.num_categories())
            .field("epoch", &self.graph.current_epoch())
            .finish()
    }
}

/// A consistent snapshot of a [`ServiceContext`] frozen at one weight
/// epoch.
///
/// The graph view is owned (cheap — shared storage plus the epoch's
/// overlay); forest, PoI table and similarity are borrowed from the
/// context. A search run over [`Self::query_context`] observes exactly the
/// weights of [`Self::epoch`], no matter what updates publish concurrently.
pub struct PinnedContext<'a> {
    graph: RoadNetwork,
    forest: &'a CategoryForest,
    pois: &'a PoiTable,
    similarity: &'a dyn Similarity,
    positions: &'a PositionMemo,
}

impl PinnedContext<'_> {
    /// The weight epoch this snapshot is frozen at.
    pub fn epoch(&self) -> EpochId {
        self.graph.epoch()
    }

    /// The pinned graph view.
    pub fn graph(&self) -> &RoadNetwork {
        &self.graph
    }

    /// A borrowed [`QueryContext`] over this snapshot, usable with every
    /// algorithm in `skysr-core`.
    pub fn query_context(&self) -> QueryContext<'_> {
        QueryContext::with_similarity(&self.graph, self.forest, self.pois, self.similarity)
    }

    /// Compiles `query` at this snapshot's epoch, taking its category
    /// positions from the context's memo ([`PreparedQuery::prepare_memoized`]):
    /// after a category's first use, a position costs an `Arc` clone.
    pub fn prepare(&self, query: &SkySrQuery) -> Result<PreparedQuery, QueryError> {
        PreparedQuery::prepare_memoized(&self.query_context(), query, self.positions)
    }
}

impl std::fmt::Debug for PinnedContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PinnedContext")
            .field("epoch", &self.epoch())
            .field("vertices", &self.graph.num_vertices())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skysr_core::bssr::Bssr;
    use skysr_core::paper_example::PaperExample;

    fn paper_service_context() -> ServiceContext {
        let ex = PaperExample::new();
        ServiceContext::new(ex.graph.clone(), ex.forest.clone(), ex.pois.clone())
    }

    #[test]
    fn query_context_matches_borrowed_results() {
        let ex = PaperExample::new();
        let owned = paper_service_context();
        let from_owned = Bssr::new(&owned.query_context()).run(&ex.query()).unwrap();
        let from_borrowed = Bssr::new(&ex.context()).run(&ex.query()).unwrap();
        assert_eq!(from_owned.routes, from_borrowed.routes);
        // An untouched context pins epoch 0, and its pin answers agree too.
        let pinned = owned.pin();
        assert_eq!(pinned.epoch(), EpochId::BASE);
        let from_pinned = Bssr::new(&pinned.query_context()).run(&ex.query()).unwrap();
        assert_eq!(from_pinned.routes, from_borrowed.routes);
    }

    #[test]
    fn shared_across_threads() {
        let ex = PaperExample::new();
        let ctx = std::sync::Arc::new(paper_service_context());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let ctx = std::sync::Arc::clone(&ctx);
                let query = ex.query();
                std::thread::spawn(move || {
                    Bssr::new(&ctx.pin().query_context()).run(&query).unwrap().routes
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
    }

    #[test]
    fn publishing_weights_moves_pins_but_not_existing_snapshots() {
        let ctx = paper_service_context();
        let before = ctx.pin();
        assert_eq!(ctx.current_epoch(), EpochId::BASE);
        // Reweight some edge of the paper graph (vq's first arc).
        let (from, to, w) = ctx.graph().arc(0);
        let e1 = ctx.publish_weights(&[WeightDelta::new(from, to, w.get() * 3.0)]);
        assert_eq!(e1, EpochId(1));
        assert_eq!(ctx.current_epoch(), EpochId(1));
        assert_eq!(before.epoch(), EpochId::BASE, "existing snapshot stays pinned");
        let after = ctx.pin();
        assert_eq!(after.epoch(), EpochId(1));
        // Historical pin round-trips.
        assert_eq!(ctx.pin_at(EpochId::BASE).unwrap().epoch(), EpochId::BASE);
        assert!(ctx.pin_at(EpochId(7)).is_none());
    }

    #[test]
    fn prepare_shares_category_positions_across_epochs() {
        let ex = PaperExample::new();
        let ctx = paper_service_context();
        let before = ctx.pin().prepare(&ex.query()).unwrap();
        let (from, to, w) = ctx.graph().arc(0);
        ctx.publish_weights(&[WeightDelta::new(from, to, w.get() * 3.0)]);
        let after = ctx.pin().prepare(&ex.query()).unwrap();
        assert_eq!((before.epoch, after.epoch), (EpochId::BASE, EpochId(1)));
        for (a, b) in before.positions.iter().zip(&after.positions) {
            assert!(Arc::ptr_eq(a, b), "a category position compiled twice");
        }
        // The oracles' path, `query_context()`, compiles fresh.
        let fresh = PreparedQuery::prepare(&ctx.pin().query_context(), &ex.query()).unwrap();
        assert!(!Arc::ptr_eq(&fresh.positions[0], &after.positions[0]));
    }

    #[test]
    fn debug_shows_sizes() {
        let s = format!("{:?}", paper_service_context());
        assert!(s.contains("vertices"), "{s}");
        assert!(s.contains("epoch"), "{s}");
    }
}
