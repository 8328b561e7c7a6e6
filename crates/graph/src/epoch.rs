//! Dynamic edge weights: epoch-versioned copy-on-write weight overlays,
//! with a history log of each publish's arcs and delta introspection.
//!
//! Live traffic changes edge weights underneath long-running services.
//! Rebuilding (or even copying) a city-scale CSR per update is far too
//! expensive, and mutating weights in place would let a search observe a
//! half-applied update. Instead, a [`WeightEpoch`] manager applies batched
//! [`WeightDelta`]s as sparse, immutable [`WeightOverlay`]s over one shared
//! base storage, and each published batch gets a monotonically increasing
//! [`EpochId`].
//!
//! # Views and publishes
//!
//! * **Readers pin views.** [`WeightEpoch::pin`] returns a [`RoadNetwork`]
//!   view (two `Arc` clones) frozen at the current epoch; a search that
//!   holds it sees one consistent set of weights no matter how many
//!   updates publish concurrently. A view owns its overlay, so it stays
//!   valid after its epoch leaves the history, and nothing a reader holds
//!   keeps history alive.
//! * **Writers copy-on-write.** [`WeightEpoch::publish`] merges the new
//!   deltas with the newest cumulative overlay into a fresh overlay —
//!   O(cumulative changed arcs + batch), which stays far below O(|E|) as
//!   long as traffic touches a fraction of the network.
//!
//! Overlay entries are keyed by *arc slot* (see [`RoadNetwork::arc`]) and
//! sorted. Every overlay of one manager shares one bit per vertex, set for
//! the tail of every arc any of its overlays reweights. Neighbour
//! iteration reads an unmarked vertex's base weights with no overlay
//! lookup at all; at a marked vertex it probes the overlay once for the
//! vertex's slot range and walks that sorted sub-slice with a cursor. So
//! while updates touch few vertices, a search at a later epoch costs about
//! what it costs at epoch 0.
//!
//! # The history log
//!
//! The manager keeps one overlay, the newest, plus a log holding each
//! published batch: its arcs with their weights before and after it, and
//! the ratio floor of the epoch before it. An epoch costs the arcs its
//! publish changed, however many earlier epochs changed, as the
//! incremental-versioning literature stores a version as only the
//! components it changed; history grows with the arcs published, not with
//! the square of the epoch count. [`WeightEpoch::pin_at`] rebuilds an
//! older epoch's overlay from the newest by undoing the later batches.
//! With a retention ring ([`WeightEpoch::set_retention`]) the log keeps
//! the batches of the newest K epochs only, and the older epochs can no
//! longer be pinned; the default keeps every epoch.
//! [`WeightEpoch::gc_stats`] reports the pinnable epochs, the dropped ones
//! and the history's bytes (the log plus the newest overlay) for service
//! metrics.
//!
//! # Deltas
//!
//! [`WeightEpoch::delta_between`] reads the batches between two pinnable
//! epochs into a [`DeltaSet`] (touched arc slots with both weights,
//! endpoint vertices, the set of touched tails, and weight-ratio floors) —
//! the raw material incremental skyline *repair* classifies cached results
//! against instead of recomputing them.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::csr::RoadNetwork;
use crate::VertexId;

/// Identifier of a published weight epoch. Epoch ids are monotonically
/// increasing per [`WeightEpoch`] manager, starting at [`EpochId::BASE`]
/// (the weights the network was built with).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EpochId(pub u64);

impl EpochId {
    /// The epoch of the base weights (no update applied).
    pub const BASE: EpochId = EpochId(0);

    /// Raw value accessor.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }
}

impl std::fmt::Debug for EpochId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl std::fmt::Display for EpochId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One edge reweighting: the edge `from — to` takes the absolute weight
/// `weight` from the publishing epoch on. On undirected networks both
/// stored arc directions are updated; parallel edges are all updated.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WeightDelta {
    /// Tail vertex.
    pub from: VertexId,
    /// Head vertex.
    pub to: VertexId,
    /// New absolute weight (finite and non-negative).
    pub weight: f64,
}

impl WeightDelta {
    /// Creates a delta, validating the weight.
    ///
    /// # Panics
    /// If `weight` is negative, infinite or NaN.
    pub fn new(from: VertexId, to: VertexId, weight: f64) -> WeightDelta {
        let valid = weight.is_finite() && weight >= 0.0;
        assert!(valid, "edge weight must be finite and non-negative, got {weight}");
        WeightDelta { from, to, weight }
    }
}

/// Why [`WeightEpoch::try_publish`] refused a batch: the first of its
/// deltas that the network cannot apply. A refused batch publishes
/// nothing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DeltaError {
    /// An endpoint is not a vertex of the network.
    UnknownVertex(VertexId),
    /// No stored arc joins the endpoints.
    NoEdge(VertexId, VertexId),
    /// The weight is not finite and non-negative: negative, infinite or
    /// NaN.
    BadWeight(f64),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::UnknownVertex(v) => {
                write!(f, "weight delta names vertex {v:?}, which is not in the network")
            }
            DeltaError::NoEdge(from, to) => {
                write!(f, "weight delta names a nonexistent edge {from:?} -> {to:?}")
            }
            DeltaError::BadWeight(w) => {
                write!(f, "edge weight must be finite and non-negative, got {w}")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// A sparse, immutable arc-reweighting layer over the manager's base
/// weight array, as of one epoch: every arc reweighted by some publish up
/// to the epoch that was newest when the layer was built, with its weight
/// at this epoch.
#[derive(Debug)]
pub struct WeightOverlay {
    epoch: EpochId,
    /// Affected arc slots, sorted ascending, unique.
    arcs: Box<[u32]>,
    /// `weights[i]` is the weight of arc `arcs[i]`.
    weights: Box<[f64]>,
    /// The manager's marks: the tail of every arc in `arcs` is marked.
    marks: TailMarks,
    /// A lower bound on `min_a w_epoch(a) / w_origin(a)` over *all* arcs
    /// `a`, where `w_origin` is the weight under the manager's original
    /// (epoch-0) view, maintained as a running minimum across publishes.
    /// Lower-bound oracles computed on the origin weights (e.g. landmarks)
    /// stay admissible at this epoch when scaled by this factor:
    /// `d_epoch(u, v) >= min_ratio * d_origin(u, v)`.
    min_ratio: f64,
}

impl WeightOverlay {
    /// The epoch this overlay was published as.
    #[inline]
    pub fn epoch(&self) -> EpochId {
        self.epoch
    }

    /// Number of reweighted arcs.
    pub fn len(&self) -> usize {
        self.arcs.len()
    }

    /// Whether no arc is reweighted.
    pub fn is_empty(&self) -> bool {
        self.arcs.is_empty()
    }

    /// The weight-ratio floor versus the manager's origin weights (see the
    /// field docs): `d_epoch >= min_ratio * d_origin` for every distance.
    #[inline]
    pub fn min_ratio(&self) -> f64 {
        self.min_ratio
    }

    /// Whether some out-arc of `v` may be reweighted. `false` guarantees
    /// that none is: the overlay then holds no entry in `v`'s slot range.
    #[inline]
    pub(crate) fn may_reweight(&self, v: VertexId) -> bool {
        self.marks.is_marked(v)
    }

    /// The overlay entries covering arc slots `lo..hi`, as parallel
    /// (slots, weights) sub-slices.
    #[inline]
    pub(crate) fn range(&self, lo: u32, hi: u32) -> (&[u32], &[f64]) {
        let a = self.arcs.partition_point(|&s| s < lo);
        let b = a + self.arcs[a..].partition_point(|&s| s < hi);
        (&self.arcs[a..b], &self.weights[a..b])
    }

    /// The overlay weight of arc `slot`, if reweighted.
    #[inline]
    pub(crate) fn weight_of(&self, slot: u32) -> Option<f64> {
        self.arcs.binary_search(&slot).ok().map(|i| self.weights[i])
    }

    /// All (arc slot, weight) entries.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.arcs.iter().copied().zip(self.weights.iter().copied())
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.arcs.len() * std::mem::size_of::<u32>()
            + self.weights.len() * std::mem::size_of::<f64>()
    }
}

/// One bit per vertex, shared by every overlay of one manager: set for the
/// tail of every arc some overlay of the manager reweights.
///
/// Bits are set and never cleared. The newest overlay is cumulative, so a
/// manager's arc set only grows, and a view at an older epoch may see a
/// vertex marked that its own epoch does not reweight; its range probe
/// then finds nothing, or base weights. Bits are atomics because views of
/// older epochs read them while `publish` sets new ones.
#[derive(Clone, Debug)]
struct TailMarks(Arc<[AtomicU64]>);

impl TailMarks {
    fn new(num_vertices: usize) -> TailMarks {
        TailMarks((0..num_vertices.div_ceil(64)).map(|_| AtomicU64::new(0)).collect())
    }

    // `Relaxed` suffices on both sides: the bits publish nothing else, and
    // an epoch's own marks are set while the store mutex is held, before
    // the epoch becomes the newest. Every view of it comes from a pin
    // under the same mutex, so the mutex orders those marks before any
    // read through the view.
    fn mark(&self, v: VertexId) {
        self.0[v.index() / 64].fetch_or(1 << (v.index() % 64), Ordering::Relaxed);
    }

    #[inline]
    fn is_marked(&self, v: VertexId) -> bool {
        self.0[v.index() / 64].load(Ordering::Relaxed) & (1 << (v.index() % 64)) != 0
    }
}

/// One arc whose weight differs between the two epochs of a [`DeltaSet`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WeightTouch {
    /// Arc slot in the packed adjacency array.
    pub slot: u32,
    /// Tail vertex of the arc (a path can only cross the arc after paying
    /// the full distance to this vertex — the anchor of repair's
    /// reachability lower bounds).
    pub tail: VertexId,
    /// Head vertex of the arc.
    pub head: VertexId,
    /// The arc's weight at the older epoch.
    pub from_weight: f64,
    /// The arc's weight at the newer epoch.
    pub to_weight: f64,
}

impl WeightTouch {
    /// Whether the arc got cheaper (the dangerous direction for cached
    /// skylines: a shortcut can surface routes a search never saw).
    #[inline]
    pub fn decreased(&self) -> bool {
        self.to_weight < self.from_weight
    }
}

/// The exact set of arcs whose weight differs between two epochs of one
/// [`WeightEpoch`] manager, as computed by [`WeightEpoch::delta_between`].
///
/// Deltas carry *absolute* weights, so the set is a true diff: an arc that
/// was reweighted and later restored to its old value does **not**
/// appear.
#[derive(Clone, Debug)]
pub struct DeltaSet {
    from: EpochId,
    to: EpochId,
    from_min_ratio: f64,
    to_min_ratio: f64,
    touches: Vec<WeightTouch>,
    /// Every touched arc's tail, sorted and deduplicated.
    tails: Box<[u32]>,
}

impl DeltaSet {
    /// The older epoch of the pair.
    pub fn from_epoch(&self) -> EpochId {
        self.from
    }

    /// The newer epoch of the pair.
    pub fn to_epoch(&self) -> EpochId {
        self.to
    }

    /// Weight-ratio floor of the older epoch versus the manager's origin
    /// weights (see [`WeightOverlay::min_ratio`]).
    pub fn from_min_ratio(&self) -> f64 {
        self.from_min_ratio
    }

    /// Weight-ratio floor of the newer epoch.
    pub fn to_min_ratio(&self) -> f64 {
        self.to_min_ratio
    }

    /// The touched arcs, sorted by arc slot.
    pub fn touches(&self) -> &[WeightTouch] {
        &self.touches
    }

    /// Number of touched arcs.
    pub fn len(&self) -> usize {
        self.touches.len()
    }

    /// Whether the two epochs are weight-identical.
    pub fn is_empty(&self) -> bool {
        self.touches.is_empty()
    }

    /// Whether `v` is the tail of some touched arc. A path whose vertices,
    /// its last excepted, include no touched tail crosses no touched arc,
    /// so it costs the same at both epochs.
    #[inline]
    pub fn is_touched_tail(&self, v: VertexId) -> bool {
        self.tails.binary_search(&v.0).is_ok()
    }
}

/// Snapshot of a [`WeightEpoch`] manager's history accounting, surfaced
/// through service metrics so a soak run can show the history stays
/// bounded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochGcStats {
    /// Epochs currently pinnable: the newest and every epoch the log can
    /// undo to.
    pub retained: usize,
    /// Heap bytes of the history: the log's batches plus the newest
    /// overlay.
    pub history_bytes: usize,
    /// Configured ring size K (`0` = unlimited, the default: every epoch
    /// stays pinnable forever).
    pub retention: usize,
    /// Epochs dropped from the ring (their batches left the log).
    pub compacted: u64,
    /// Entries in the newest cumulative overlay (arcs some publish has
    /// reweighted).
    pub overlay_len: usize,
}

/// One publish in the history log: the arcs its batch resolved to, with
/// their weights before and after it, and the ratio floor of the epoch
/// before it. Undoing it turns its epoch's overlay into the previous
/// epoch's.
struct Batch {
    /// Reweighted arc slots, sorted ascending, unique.
    slots: Box<[u32]>,
    /// `before[i]` is the weight of `slots[i]` at the previous epoch.
    before: Box<[f64]>,
    /// `after[i]` is the weight of `slots[i]` at this batch's epoch.
    after: Box<[f64]>,
    /// The previous epoch's [`WeightOverlay::min_ratio`].
    floor_before: f64,
}

impl Batch {
    /// Approximate heap footprint in bytes: 20 per arc plus the record.
    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Batch>()
            + self.slots.len() * std::mem::size_of::<u32>()
            + (self.before.len() + self.after.len()) * std::mem::size_of::<f64>()
    }
}

struct EpochStore {
    /// The newest epoch's cumulative overlay; [`WeightEpoch::pin`] hands
    /// out clones.
    newest: Arc<WeightOverlay>,
    /// The batches of the pinnable epochs after the oldest, oldest first:
    /// `log[i]` turned epoch `oldest() + i` into the next.
    log: VecDeque<Arc<Batch>>,
    /// Ring size K; `0` = unlimited.
    retention: usize,
    compacted: u64,
}

impl EpochStore {
    /// The oldest pinnable epoch.
    fn oldest(&self) -> u64 {
        self.newest.epoch.0 - self.log.len() as u64
    }

    /// Drops the batches that only epochs beyond the retention ring need.
    fn trim(&mut self) {
        while self.retention > 0 && self.log.len() >= self.retention {
            self.log.pop_front();
            self.compacted += 1;
        }
    }

    /// The batches from pinnable epoch `from` to pinnable epoch `to`, with
    /// the ratio floors of both, or `None` unless `from <= to` are both
    /// pinnable. Cheap (`Arc` clones), so it runs under the store lock and
    /// the work on the batches outside it.
    fn span(&self, from: EpochId, to: EpochId) -> Option<(Vec<Arc<Batch>>, f64, f64)> {
        let oldest = self.oldest();
        if from.0 < oldest || from > to || to > self.newest.epoch {
            return None;
        }
        let (a, b) = ((from.0 - oldest) as usize, (to.0 - oldest) as usize);
        let floor = |i: usize| self.log.get(i).map_or(self.newest.min_ratio, |x| x.floor_before);
        Some((self.log.range(a..b).cloned().collect(), floor(a), floor(b)))
    }
}

/// Epoch-versioned manager of dynamic edge weights over one road network.
///
/// The network passed to [`WeightEpoch::new`] (with whatever weights its
/// view carries) becomes epoch 0. Each [`publish`](WeightEpoch::publish)
/// folds a batch of deltas into a new cumulative overlay, makes it the
/// current epoch and logs the batch; readers that
/// [`pin`](WeightEpoch::pin)ned an earlier epoch keep their snapshot
/// untouched. Epoch ids are meaningful only within one manager.
///
/// By default every published epoch stays pinnable forever, at the cost
/// of its batch in the log. Configuring a retention ring
/// ([`set_retention`](WeightEpoch::set_retention)) bounds the history:
/// see the module docs.
pub struct WeightEpoch {
    /// The epoch-0 weights, with no overlay. Every overlay patches this
    /// one storage, and it anchors arc-slot resolution, the `min_ratio`
    /// bookkeeping and any lower-bound oracle (landmarks) built over it.
    base: RoadNetwork,
    /// The most recently published epoch id, readable without the lock —
    /// serving workers poll this once per request to decide whether to
    /// re-pin, and must not serialize against an in-progress publish
    /// merge.
    current: AtomicU64,
    store: Mutex<EpochStore>,
}

impl std::fmt::Debug for WeightEpoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WeightEpoch")
            .field("current", &self.current_epoch())
            .field("gc", &self.gc_stats())
            .finish()
    }
}

impl WeightEpoch {
    /// Takes `base` (as currently weighted) as epoch 0, with unlimited
    /// history retention. A pinned view is taken as a copy with its
    /// overlay folded in ([`RoadNetwork::detached`]), so the new manager
    /// shares nothing with the one that published it.
    pub fn new(base: RoadNetwork) -> WeightEpoch {
        let base = base.detached();
        let zero = Arc::new(WeightOverlay {
            epoch: EpochId::BASE,
            arcs: Box::new([]),
            weights: Box::new([]),
            marks: TailMarks::new(base.num_vertices()),
            min_ratio: 1.0,
        });
        WeightEpoch {
            base,
            current: AtomicU64::new(0),
            store: Mutex::new(EpochStore {
                newest: zero,
                log: VecDeque::new(),
                retention: 0,
                compacted: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, EpochStore> {
        self.store.lock().expect("epoch manager poisoned")
    }

    /// Reconfigures the retention ring (`0` = unlimited) and immediately
    /// drops the batches of the epochs beyond it.
    pub fn set_retention(&self, retention: usize) {
        let mut store = self.lock();
        store.retention = retention;
        store.trim();
    }

    /// The most recently published epoch. Lock-free: safe to poll per
    /// request even while a publish is merging overlays.
    pub fn current_epoch(&self) -> EpochId {
        EpochId(self.current.load(Ordering::Acquire))
    }

    /// A read view pinned to the current epoch. O(1): two `Arc` clones.
    pub fn pin(&self) -> RoadNetwork {
        // Even an empty epoch-0 overlay goes into the view: it tags the
        // view with its epoch. Neighbour scans through the view probe the
        // overlay only at vertices the manager marked; at every other
        // vertex they read base weights, as a view without an overlay does.
        self.base.with_overlay(Arc::clone(&self.lock().newest))
    }

    /// A read view pinned to `epoch`, if it was published by this manager
    /// and is still pinnable. The newest epoch's view is [`pin`]'s; an
    /// older epoch's overlay is rebuilt from the newest by undoing the
    /// later batches, outside the store lock: O(newest overlay + undone
    /// arcs).
    ///
    /// [`pin`]: WeightEpoch::pin
    pub fn pin_at(&self, epoch: EpochId) -> Option<RoadNetwork> {
        let (newest, (undo, min_ratio, _)) = {
            let store = self.lock();
            (Arc::clone(&store.newest), store.span(epoch, store.newest.epoch)?)
        };
        if undo.is_empty() {
            return Some(self.base.with_overlay(newest));
        }
        // Newest batch first, so each arc ends at its weight before the
        // earliest batch after `epoch` that touched it. The newest overlay
        // holds every arc any batch touched.
        let mut weights = newest.weights.clone();
        for batch in undo.iter().rev() {
            for (slot, &w) in batch.slots.iter().zip(&batch.before) {
                let i = newest.arcs.binary_search(slot).expect("a logged arc is in the overlay");
                weights[i] = w;
            }
        }
        Some(self.base.with_overlay(Arc::new(WeightOverlay {
            epoch,
            arcs: newest.arcs.clone(),
            weights,
            marks: newest.marks.clone(),
            min_ratio,
        })))
    }

    /// The epoch-0 view, with no overlay: lower-bound oracles (landmarks)
    /// built over it stay valid for every epoch when scaled by that
    /// epoch's [`WeightOverlay::min_ratio`].
    pub fn base(&self) -> &RoadNetwork {
        &self.base
    }

    /// Resolves `deltas` to the arc slots they reweight, sorted and
    /// unique, the last delta for an arc winning: the one step of a
    /// publish that can fail. Both directions of an undirected edge change
    /// together, so a pinned view stays symmetric.
    fn resolve(&self, deltas: &[WeightDelta]) -> Result<Vec<(u32, f64)>, DeltaError> {
        let mut patch: Vec<(u32, f64)> = Vec::with_capacity(deltas.len() * 2);
        for d in deltas {
            if !(d.weight.is_finite() && d.weight >= 0.0) {
                return Err(DeltaError::BadWeight(d.weight));
            }
            let n = self.base.num_vertices();
            if let Some(v) = [d.from, d.to].into_iter().find(|v| v.index() >= n) {
                return Err(DeltaError::UnknownVertex(v));
            }
            let mut slots = self.base.arcs_between(d.from, d.to);
            if !self.base.is_directed() && d.from != d.to {
                slots.extend(self.base.arcs_between(d.to, d.from));
            }
            if slots.is_empty() {
                return Err(DeltaError::NoEdge(d.from, d.to));
            }
            patch.extend(slots.into_iter().map(|s| (s, d.weight)));
        }
        patch.sort_by_key(|&(s, _)| s);
        patch.dedup_by(|later, earlier| {
            // `dedup_by` keeps the *first* of a run; runs are in input order
            // after the stable sort, so copy the later value forward.
            if later.0 == earlier.0 {
                earlier.1 = later.1;
                true
            } else {
                false
            }
        });
        Ok(patch)
    }

    /// Applies one batch of weight deltas as the next epoch and returns its
    /// id: [`try_publish`](WeightEpoch::try_publish) for a batch known to
    /// be valid.
    ///
    /// # Panics
    /// If a delta names a vertex or edge that does not exist in the
    /// network, or carries a weight that is not finite and non-negative.
    pub fn publish(&self, deltas: &[WeightDelta]) -> EpochId {
        self.try_publish(deltas).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Applies one batch of weight deltas as the next epoch and returns its
    /// id, or refuses the whole batch, publishing nothing, when a delta
    /// names a vertex or edge the network lacks or a weight that is not
    /// finite and non-negative.
    /// Copy-on-write: the newest overlay is merged with the resolved
    /// deltas into a fresh overlay (last write wins within the batch);
    /// published overlays are never mutated. The batch joins the log, and
    /// the log drops what the retention ring no longer needs.
    ///
    /// Marks the tail of every reweighted arc in the manager's shared
    /// vertex bits (see the module docs), so neighbour scans at later
    /// epochs probe the overlay only where some arc changed.
    ///
    /// An empty batch still publishes a (content-identical) new epoch —
    /// callers control epoch granularity.
    pub fn try_publish(&self, deltas: &[WeightDelta]) -> Result<EpochId, DeltaError> {
        let patch = self.resolve(deltas)?;
        // Ratio floor of this batch versus the origin weights. Zero-weight
        // origin arcs impose no constraint (w >= r * 0 holds for any r).
        let patch_ratio = patch
            .iter()
            .map(|&(s, w)| {
                let origin = self.base.arc_weight(s);
                if origin > 0.0 {
                    w / origin
                } else {
                    1.0
                }
            })
            .fold(1.0f64, f64::min);

        let mut store = self.lock();
        let prev = Arc::clone(&store.newest);
        let epoch = EpochId(self.current.load(Ordering::Relaxed) + 1);
        debug_assert_eq!(epoch.0, prev.epoch.0 + 1);
        // The patch's tails are each delta's endpoints: `from` for
        // `from → to`, and `to` for the reverse arcs of an undirected edge.
        for d in deltas {
            prev.marks.mark(d.from);
            if !self.base.is_directed() {
                prev.marks.mark(d.to);
            }
        }
        let before: Box<[f64]> = patch
            .iter()
            .map(|&(s, _)| prev.weight_of(s).unwrap_or_else(|| self.base.arc_weight(s)))
            .collect();
        // Sorted two-pointer merge of the newest cumulative overlay with
        // the patch (patch wins on collision).
        let mut arcs = Vec::with_capacity(prev.arcs.len() + patch.len());
        let mut weights = Vec::with_capacity(prev.arcs.len() + patch.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < prev.arcs.len() || j < patch.len() {
            let take_patch = match (prev.arcs.get(i), patch.get(j)) {
                (Some(&a), Some(&(b, _))) => {
                    if a == b {
                        i += 1; // superseded by the patch
                        true
                    } else {
                        b < a
                    }
                }
                (None, Some(_)) => true,
                (Some(_), None) => false,
                (None, None) => unreachable!(),
            };
            if take_patch {
                let (s, w) = patch[j];
                arcs.push(s);
                weights.push(w);
                j += 1;
            } else {
                arcs.push(prev.arcs[i]);
                weights.push(prev.weights[i]);
                i += 1;
            }
        }
        store.newest = Arc::new(WeightOverlay {
            epoch,
            arcs: arcs.into_boxed_slice(),
            weights: weights.into_boxed_slice(),
            marks: prev.marks.clone(),
            min_ratio: prev.min_ratio.min(patch_ratio),
        });
        let (slots, after) = patch.into_iter().unzip::<_, _, Vec<_>, Vec<_>>();
        store.log.push_back(Arc::new(Batch {
            slots: slots.into(),
            before,
            after: after.into(),
            floor_before: prev.min_ratio,
        }));
        store.trim();
        // Advertise the epoch only once it is the newest (still inside the
        // lock), so a reader that observes the new id can always pin it.
        self.current.store(epoch.0, Ordering::Release);
        Ok(epoch)
    }

    /// The exact set of arcs whose weight differs between `from` and `to`,
    /// or `None` when `from` is newer than `to` or either epoch is not
    /// pinnable.
    ///
    /// Reads the batches in `(from, to]`, outside the store lock: each
    /// arc they touch weighs its first batch's weight before at `from`
    /// and its last batch's weight after at `to`. O(m log m) for the m
    /// arcs those batches logged; an arc changed and changed *back*
    /// correctly does not appear.
    pub fn delta_between(&self, from: EpochId, to: EpochId) -> Option<DeltaSet> {
        // Repair calls this per stale cache hit, so only the `Arc` clones
        // happen under the lock: the merge must not serialize the serving
        // workers against pins and publishes.
        let (batches, from_min_ratio, to_min_ratio) = self.lock().span(from, to)?;
        let mut changes: Vec<(u32, f64, f64)> = batches
            .iter()
            .flat_map(|b| {
                b.slots
                    .iter()
                    .zip(b.before.iter().zip(b.after.iter()))
                    .map(|(&s, (&x, &y))| (s, x, y))
            })
            .collect();
        // Stable: within one slot the changes stay in publish order.
        changes.sort_by_key(|&(s, ..)| s);
        let mut touches = Vec::new();
        for run in changes.chunk_by(|x, y| x.0 == y.0) {
            let (slot, from_weight, to_weight) = (run[0].0, run[0].1, run[run.len() - 1].2);
            if from_weight != to_weight {
                let (tail, head, _) = self.base.arc(slot as usize);
                touches.push(WeightTouch { slot, tail, head, from_weight, to_weight });
            }
        }
        let mut tails: Vec<u32> = touches.iter().map(|t| t.tail.0).collect();
        tails.sort_unstable();
        tails.dedup();
        Some(DeltaSet { from, to, from_min_ratio, to_min_ratio, touches, tails: tails.into() })
    }

    /// History accounting snapshot.
    pub fn gc_stats(&self) -> EpochGcStats {
        let store = self.lock();
        EpochGcStats {
            retained: store.log.len() + 1,
            history_bytes: store.newest.heap_bytes()
                + store.log.iter().map(|b| b.heap_bytes()).sum::<usize>(),
            retention: store.retention,
            compacted: store.compacted,
            overlay_len: store.newest.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::weight::Cost;

    /// 0 —1— 1 —2— 2, plus 0 —5— 2.
    fn triangle() -> RoadNetwork {
        let mut b = GraphBuilder::new();
        let v: Vec<_> = (0..3).map(|_| b.add_vertex()).collect();
        b.add_edge(v[0], v[1], 1.0);
        b.add_edge(v[1], v[2], 2.0);
        b.add_edge(v[0], v[2], 5.0);
        b.build()
    }

    fn weight_between(g: &RoadNetwork, a: u32, b: u32) -> f64 {
        g.neighbors(VertexId(a)).find(|&(t, _)| t == VertexId(b)).map(|(_, w)| w.get()).unwrap()
    }

    /// A manager over [`triangle`] keeping at most `retention` epochs.
    fn ring(retention: usize) -> WeightEpoch {
        let epochs = WeightEpoch::new(triangle());
        epochs.set_retention(retention);
        epochs
    }

    #[test]
    fn epochs_are_monotonic_and_pins_are_stable() {
        let epochs = WeightEpoch::new(triangle());
        assert_eq!(epochs.current_epoch(), EpochId::BASE);
        let e0 = epochs.pin();
        let e1 = epochs.publish(&[WeightDelta::new(VertexId(0), VertexId(1), 9.0)]);
        assert_eq!(e1, EpochId(1));
        let e2 = epochs.publish(&[WeightDelta::new(VertexId(1), VertexId(2), 4.0)]);
        assert_eq!(e2, EpochId(2));
        assert_eq!(epochs.current_epoch(), EpochId(2));
        // The epoch-0 pin still sees base weights.
        assert_eq!(weight_between(&e0, 0, 1), 1.0);
        assert_eq!(e0.epoch(), EpochId::BASE);
        // Cumulative: epoch 2 sees both updates.
        let p2 = epochs.pin();
        assert_eq!(p2.epoch(), EpochId(2));
        assert_eq!(weight_between(&p2, 0, 1), 9.0);
        assert_eq!(weight_between(&p2, 1, 2), 4.0);
        assert_eq!(weight_between(&p2, 0, 2), 5.0);
        // Historical pin: epoch 1 has only the first update.
        let p1 = epochs.pin_at(EpochId(1)).unwrap();
        assert_eq!(weight_between(&p1, 0, 1), 9.0);
        assert_eq!(weight_between(&p1, 1, 2), 2.0);
        assert!(epochs.pin_at(EpochId(99)).is_none());
    }

    #[test]
    fn undirected_updates_apply_to_both_arcs() {
        let epochs = WeightEpoch::new(triangle());
        epochs.publish(&[WeightDelta::new(VertexId(2), VertexId(0), 7.5)]);
        let p = epochs.pin();
        assert_eq!(weight_between(&p, 0, 2), 7.5);
        assert_eq!(weight_between(&p, 2, 0), 7.5);
    }

    #[test]
    fn directed_updates_touch_one_direction() {
        let mut b = GraphBuilder::directed();
        let v0 = b.add_vertex();
        let v1 = b.add_vertex();
        b.add_edge(v0, v1, 1.0);
        b.add_edge(v1, v0, 1.0);
        let epochs = WeightEpoch::new(b.build());
        epochs.publish(&[WeightDelta::new(v0, v1, 3.0)]);
        let p = epochs.pin();
        assert_eq!(weight_between(&p, 0, 1), 3.0);
        assert_eq!(weight_between(&p, 1, 0), 1.0);
    }

    #[test]
    fn last_delta_wins_within_a_batch() {
        let epochs = WeightEpoch::new(triangle());
        epochs.publish(&[
            WeightDelta::new(VertexId(0), VertexId(1), 2.0),
            WeightDelta::new(VertexId(1), VertexId(0), 3.0),
        ]);
        let p = epochs.pin();
        assert_eq!(weight_between(&p, 0, 1), 3.0);
        assert_eq!(weight_between(&p, 1, 0), 3.0);
    }

    #[test]
    fn empty_batch_still_advances_the_epoch() {
        let epochs = WeightEpoch::new(triangle());
        let e = epochs.publish(&[]);
        assert_eq!(e, EpochId(1));
        assert_eq!(epochs.pin().epoch(), EpochId(1));
        assert_eq!(weight_between(&epochs.pin(), 0, 1), 1.0);
    }

    #[test]
    fn managing_a_pinned_view_preserves_weights_and_restarts_epochs() {
        let first = WeightEpoch::new(triangle());
        first.publish(&[WeightDelta::new(VertexId(0), VertexId(1), 6.0)]);
        let handoff = first.pin();
        let second = WeightEpoch::new(handoff);
        assert_eq!(second.current_epoch(), EpochId::BASE);
        let p = second.pin();
        assert_eq!(p.epoch(), EpochId::BASE);
        assert_eq!(weight_between(&p, 0, 1), 6.0, "inherited weights survive the handoff");
        second.publish(&[WeightDelta::new(VertexId(1), VertexId(2), 8.0)]);
        let q = second.pin();
        assert_eq!(weight_between(&q, 0, 1), 6.0);
        assert_eq!(weight_between(&q, 1, 2), 8.0);
    }

    #[test]
    fn a_manager_over_a_pinned_view_leases_none_of_its_epochs() {
        let first = ring(1);
        first.publish(&[WeightDelta::new(VertexId(0), VertexId(1), 6.0)]);
        let second = WeightEpoch::new(first.pin());
        first.publish(&[WeightDelta::new(VertexId(1), VertexId(2), 8.0)]);
        assert!(first.pin_at(EpochId(1)).is_none(), "the handed-over epoch must be collectable");
        let p = second.pin();
        assert_eq!((weight_between(&p, 0, 1), weight_between(&p, 1, 2)), (6.0, 2.0));
    }

    #[test]
    #[should_panic(expected = "nonexistent edge")]
    fn unknown_edge_rejected() {
        let epochs = WeightEpoch::new(triangle());
        epochs.publish(&[WeightDelta::new(VertexId(0), VertexId(0), 1.0)]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_rejected() {
        WeightDelta::new(VertexId(0), VertexId(1), -1.0);
    }

    #[test]
    fn overlay_len_tracks_cumulative_changes() {
        let epochs = WeightEpoch::new(triangle());
        let overlay_len = || epochs.gc_stats().overlay_len;
        assert_eq!(overlay_len(), 0);
        epochs.publish(&[WeightDelta::new(VertexId(0), VertexId(1), 2.0)]);
        assert_eq!(overlay_len(), 2, "both arc directions");
        // Re-updating the same edge does not grow the overlay.
        epochs.publish(&[WeightDelta::new(VertexId(0), VertexId(1), 3.0)]);
        assert_eq!(overlay_len(), 2);
        epochs.publish(&[WeightDelta::new(VertexId(1), VertexId(2), 3.0)]);
        assert_eq!(overlay_len(), 4);
    }

    #[test]
    fn concurrent_readers_on_pinned_epochs_are_unaffected_by_publishes() {
        use crate::dijkstra::{shortest_distance, DijkstraWorkspace};
        let epochs = std::sync::Arc::new(WeightEpoch::new(triangle()));
        let pinned = epochs.pin(); // epoch 0: d(0, 2) = 3 via 0-1-2
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let g = pinned.clone();
                std::thread::spawn(move || {
                    let mut ws = DijkstraWorkspace::new(g.num_vertices());
                    (0..200)
                        .map(|_| shortest_distance(&g, &mut ws, VertexId(0), VertexId(2)).unwrap())
                        .all(|d| d == Cost::new(3.0))
                })
            })
            .collect();
        let writer = {
            let epochs = std::sync::Arc::clone(&epochs);
            std::thread::spawn(move || {
                for i in 0..200u32 {
                    epochs.publish(&[WeightDelta::new(
                        VertexId(0),
                        VertexId(1),
                        1.0 + f64::from(i),
                    )]);
                }
            })
        };
        for r in readers {
            assert!(r.join().unwrap(), "a pinned reader must never observe an update");
        }
        writer.join().unwrap();
        assert_eq!(epochs.current_epoch(), EpochId(200));
        // After the writer, a fresh pin sees the last update.
        let mut ws = DijkstraWorkspace::new(3);
        let d = shortest_distance(&epochs.pin(), &mut ws, VertexId(0), VertexId(2)).unwrap();
        assert_eq!(d, Cost::new(5.0), "0-1 now costs 200, so the direct 0-2 edge wins");
    }

    #[test]
    fn delta_between_diffs_cumulative_overlays() {
        let epochs = WeightEpoch::new(triangle());
        let e1 = epochs.publish(&[WeightDelta::new(VertexId(0), VertexId(1), 9.0)]);
        let e2 = epochs.publish(&[WeightDelta::new(VertexId(1), VertexId(2), 4.0)]);
        // e1 -> e2: only the 1-2 edge differs (both directions).
        let d = epochs.delta_between(e1, e2).unwrap();
        assert_eq!(d.len(), 2);
        assert!(d.touches().iter().all(|t| t.from_weight == 2.0 && t.to_weight == 4.0));
        assert!(!d.touches()[0].decreased());
        // Both directions' tails are touched tails; nothing else is.
        let tails: Vec<u32> = (0..3).filter(|&v| d.is_touched_tail(VertexId(v))).collect();
        assert_eq!(tails, [1, 2]);
        // base -> e2: both edges differ (4 arcs).
        let d = epochs.delta_between(EpochId::BASE, e2).unwrap();
        assert_eq!(d.len(), 4);
        // Same epoch: empty.
        assert!(epochs.delta_between(e2, e2).unwrap().is_empty());
        // Backwards or unknown: None.
        assert!(epochs.delta_between(e2, e1).is_none());
        assert!(epochs.delta_between(e1, EpochId(77)).is_none());
    }

    #[test]
    fn delta_between_ignores_changed_and_restored_arcs() {
        let epochs = WeightEpoch::new(triangle());
        let e1 = epochs.publish(&[WeightDelta::new(VertexId(0), VertexId(1), 9.0)]);
        let e2 = epochs.publish(&[WeightDelta::new(VertexId(0), VertexId(1), 1.0)]); // restored
        let d = epochs.delta_between(EpochId::BASE, e2).unwrap();
        assert!(d.is_empty(), "a restored weight is not a difference: {d:?}");
        let d = epochs.delta_between(e1, e2).unwrap();
        assert_eq!(d.len(), 2);
        assert!(d.touches()[0].decreased());
    }

    #[test]
    fn min_ratio_tracks_the_worst_weight_drop() {
        let epochs = WeightEpoch::new(triangle());
        let e1 = epochs.publish(&[WeightDelta::new(VertexId(0), VertexId(1), 0.5)]); // ratio 0.5
        let e2 = epochs.publish(&[WeightDelta::new(VertexId(1), VertexId(2), 8.0)]); // ratio 4.0
        let d = epochs.delta_between(e1, e2).unwrap();
        assert_eq!(d.from_min_ratio(), 0.5);
        assert_eq!(d.to_min_ratio(), 0.5, "the running minimum never recovers");
        // Restoring the weight does not raise the floor (it is a lower
        // bound, not an exact minimum).
        let e3 = epochs.publish(&[WeightDelta::new(VertexId(0), VertexId(1), 1.0)]);
        assert_eq!(epochs.delta_between(e2, e3).unwrap().to_min_ratio(), 0.5);
    }

    #[test]
    fn retention_ring_bounds_history_and_counts_compactions() {
        let epochs = ring(3);
        for i in 0..10u32 {
            epochs.publish(&[WeightDelta::new(VertexId(0), VertexId(1), 1.0 + f64::from(i))]);
        }
        let gc = epochs.gc_stats();
        assert_eq!(gc.retained, 3, "ring keeps exactly K epochs: {gc:?}");
        assert_eq!(gc.retention, 3);
        assert_eq!(gc.compacted, 8, "epochs 0..=7 were compacted");
        // Old epochs are gone; recent ones still pin.
        assert!(epochs.pin_at(EpochId(0)).is_none());
        assert!(epochs.pin_at(EpochId(7)).is_none());
        for e in 8..=10 {
            assert!(epochs.pin_at(EpochId(e)).is_some(), "epoch {e} must be retained");
        }
    }

    #[test]
    fn a_detached_view_holds_no_lease() {
        let epochs = ring(1);
        epochs.publish(&[WeightDelta::new(VertexId(0), VertexId(1), 2.0)]);
        let copy = epochs.pin().detached();
        assert_eq!((copy.epoch(), weight_between(&copy, 0, 1)), (EpochId::BASE, 2.0));
        epochs.publish(&[WeightDelta::new(VertexId(1), VertexId(2), 3.0)]);
        assert!(epochs.pin_at(EpochId(1)).is_none(), "the copy keeps no epoch pinnable");
        assert_eq!(weight_between(&copy, 1, 2), 2.0, "the copy keeps the weights it copied");
    }

    #[test]
    fn compact_keeps_weights_and_every_retained_pair_diffable() {
        let epochs = ring(2);
        let e1 = epochs.publish(&[WeightDelta::new(VertexId(0), VertexId(1), 9.0)]);
        let held = epochs.pin();
        let e2 = epochs.publish(&[WeightDelta::new(VertexId(1), VertexId(2), 4.0)]);
        let before = epochs.pin();
        // Epoch 3 pushes epoch 1's batch out of the ring.
        let e3 = epochs.publish(&[WeightDelta::new(VertexId(0), VertexId(2), 6.0)]);
        assert!(epochs.pin_at(e1).is_none() && epochs.delta_between(e1, e3).is_none());
        let again = epochs.pin_at(e2).expect("epoch 2 is in the ring");
        for (a, b) in [(0, 1), (1, 2), (0, 2)] {
            assert_eq!(weight_between(&before, a, b), weight_between(&again, a, b));
        }
        assert_eq!(epochs.gc_stats().overlay_len, 6, "the overlay stays cumulative");
        // The retained pair diffs to the one edge epoch 3 moved.
        let d = epochs.delta_between(e2, e3).expect("retained epochs diff");
        assert_eq!(d.len(), 2);
        assert!(d.touches().iter().all(|t| (t.from_weight, t.to_weight) == (5.0, 6.0)));
        // A view outlives its epoch's place in the ring.
        assert_eq!((weight_between(&held, 0, 1), weight_between(&held, 1, 2)), (9.0, 2.0));
    }

    #[test]
    fn marks_cover_reweighted_tails() {
        let marked = |g: &RoadNetwork| -> Vec<u32> {
            let o = g.overlay().expect("pinned views carry an overlay");
            g.vertices().filter(|&v| o.may_reweight(v)).map(|v| v.0).collect()
        };
        let epochs = WeightEpoch::new(line(6));
        let e0 = epochs.pin();
        assert!(marked(&e0).is_empty());
        epochs.publish(&[WeightDelta::new(VertexId(1), VertexId(2), 4.0)]);
        assert_eq!(marked(&epochs.pin()), [1, 2], "both tails of the undirected edge");
        assert_eq!(marked(&e0), [1, 2], "older overlays share the marks");
        assert_eq!(weight_between(&e0, 1, 2), 1.0, "so their probe finds no entry");
        epochs.publish(&[WeightDelta::new(VertexId(4), VertexId(5), 2.0)]);
        assert_eq!(marked(&epochs.pin()), [1, 2, 4, 5]);
    }

    /// A line of `n` vertices: 0 —1— 1 —1— 2 …
    fn line(n: u32) -> RoadNetwork {
        let mut b = GraphBuilder::new();
        let v: Vec<_> = (0..n).map(|_| b.add_vertex()).collect();
        for w in v.windows(2) {
            b.add_edge(w[0], w[1], 1.0);
        }
        b.build()
    }

    #[test]
    fn unlimited_retention_keeps_every_epoch() {
        let epochs = WeightEpoch::new(triangle());
        for i in 0..20u32 {
            epochs.publish(&[WeightDelta::new(VertexId(0), VertexId(1), 1.0 + f64::from(i))]);
        }
        let gc = epochs.gc_stats();
        assert_eq!(gc.retained, 21);
        assert_eq!(gc.compacted, 0);
        assert!(epochs.pin_at(EpochId(0)).is_some());
        // Tightening retention later sweeps immediately.
        epochs.set_retention(4);
        assert_eq!(epochs.gc_stats().retained, 4);
        assert!(epochs.pin_at(EpochId(0)).is_none());
    }

    #[test]
    fn a_bad_batch_is_refused_and_publishes_nothing() {
        let epochs = WeightEpoch::new(triangle());
        let ok = WeightDelta::new(VertexId(0), VertexId(1), 2.0);
        let bad =
            |from, to, weight| [ok, WeightDelta { from: VertexId(from), to: VertexId(to), weight }];
        assert_eq!(
            epochs.try_publish(&bad(0, 8, 1.0)),
            Err(DeltaError::UnknownVertex(VertexId(8)))
        );
        assert_eq!(
            epochs.try_publish(&bad(9, 0, 1.0)),
            Err(DeltaError::UnknownVertex(VertexId(9)))
        );
        assert_eq!(
            epochs.try_publish(&bad(1, 1, 1.0)),
            Err(DeltaError::NoEdge(VertexId(1), VertexId(1)))
        );
        for weight in [f64::NAN, f64::INFINITY, -1.0] {
            let refused = epochs.try_publish(&bad(0, 2, weight));
            assert!(matches!(refused, Err(DeltaError::BadWeight(_))), "{weight}: {refused:?}");
        }
        assert_eq!(epochs.current_epoch(), EpochId::BASE);
        assert_eq!(weight_between(&epochs.pin(), 0, 1), 1.0, "the valid delta stayed unpublished");
        assert_eq!(epochs.try_publish(&[ok]), Ok(EpochId(1)));
    }

    /// A `side` × `side` grid whose edge weights vary from 1 to 4.
    fn grid(side: u32) -> RoadNetwork {
        let mut b = GraphBuilder::new();
        let v: Vec<_> = (0..side * side).map(|_| b.add_vertex()).collect();
        for i in 0..side * side {
            let w = 1.0 + f64::from(i % 4);
            if i % side + 1 < side {
                b.add_edge(v[i as usize], v[i as usize + 1], w);
            }
            if i + side < side * side {
                b.add_edge(v[i as usize], v[(i + side) as usize], w);
            }
        }
        b.build()
    }

    /// Every arc's weight under `g`, by slot.
    fn arc_weights(g: &RoadNetwork) -> Vec<f64> {
        (0..g.num_arcs()).map(|s| g.arc(s).2.get()).collect()
    }

    #[test]
    fn history_bytes_stay_linear_in_published_arcs() {
        const WAVES: u64 = 2_000;
        const EDGES: usize = 8;
        let g = grid(24);
        let edges: Vec<(VertexId, VertexId, f64)> = (0..g.num_arcs())
            .map(|s| g.arc(s))
            .filter(|(a, b, _)| a < b)
            .map(|(a, b, w)| (a, b, w.get()))
            .collect();
        // Each wave reweights EDGES distinct edges to 1/2–2x their base
        // weight, from a fixed pseudo-random sequence.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let waves: Vec<Vec<WeightDelta>> = (0..WAVES)
            .map(|_| {
                let start = next() as usize % edges.len();
                (0..EDGES)
                    .map(|k| {
                        let (a, b, w) = edges[(start + 97 * k) % edges.len()];
                        WeightDelta::new(a, b, w * (0.5 + 1.5 * (next() % 1000) as f64 / 1000.0))
                    })
                    .collect()
            })
            .collect();
        for retention in [0, 16] {
            let epochs = WeightEpoch::new(g.clone());
            epochs.set_retention(retention);
            // The flat replay: every arc's weight, deltas applied in place.
            let mut flat = arc_weights(&g);
            let checked = match retention {
                0 => [0, WAVES / 2, WAVES],
                k => [WAVES + 1 - k as u64, WAVES - k as u64 / 2, WAVES],
            };
            let mut expected = Vec::new();
            let mut published = 0;
            for (e, wave) in (1..).zip(&waves) {
                if e == 1 && checked[0] == 0 {
                    expected.push((0, flat.clone()));
                }
                epochs.publish(wave);
                for d in wave {
                    for s in
                        g.arcs_between(d.from, d.to).into_iter().chain(g.arcs_between(d.to, d.from))
                    {
                        flat[s as usize] = d.weight;
                    }
                }
                published += 2 * EDGES;
                if checked.contains(&e) {
                    expected.push((e, flat.clone()));
                }
                let gc = epochs.gc_stats();
                let newest = 12 * gc.overlay_len;
                if retention == 0 {
                    // 20 bytes per arc plus the batch's record, spread
                    // over its 16 arcs.
                    assert!(gc.history_bytes <= 32 * published + newest, "wave {e}: {gc:?}");
                } else {
                    let ring = retention * (std::mem::size_of::<Batch>() + 20 * 2 * EDGES);
                    assert!(gc.history_bytes <= ring + 12 * g.num_arcs(), "wave {e}: {gc:?}");
                    assert_eq!(gc.retained, retention.min(e as usize + 1));
                }
            }
            for (e, flat) in expected {
                let view = epochs.pin_at(EpochId(e)).expect("a checked epoch is pinnable");
                assert_eq!(arc_weights(&view), flat, "epoch {e}, retention {retention}");
            }
        }
    }
}
