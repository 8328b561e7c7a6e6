//! Dynamic edge weights: epoch-versioned copy-on-write weight overlays,
//! with bounded history (leased pins + GC) and delta introspection.
//!
//! Live traffic changes edge weights underneath long-running services.
//! Rebuilding (or even copying) a city-scale CSR per update is far too
//! expensive, and mutating weights in place would let a search observe a
//! half-applied update. Instead, a [`WeightEpoch`] manager applies batched
//! [`WeightDelta`]s as sparse, immutable [`WeightOverlay`]s over the shared
//! CSR storage — the same diff-over-base idea the incremental-versioning
//! literature uses for snapshot storage — and each published batch gets a
//! monotonically increasing [`EpochId`]:
//!
//! * **Readers pin leases.** [`WeightEpoch::pin`] returns a
//!   [`RoadNetwork`] view (two `Arc` clones) frozen at the current epoch;
//!   a search that holds it sees one consistent set of weights no matter
//!   how many updates publish concurrently. The view's clone of the
//!   overlay `Arc` doubles as a *counted lease* registered with the
//!   manager: as long as any view of an epoch is alive, that epoch's
//!   overlay is pinned and the garbage collector must not touch it.
//! * **Writers copy-on-write.** [`WeightEpoch::publish`] merges the new
//!   deltas with the previous cumulative overlay into a fresh overlay —
//!   O(cumulative changed arcs + batch), which stays far below O(|E|) as
//!   long as traffic touches a fraction of the network.
//! * **History is garbage-collected.** With a retention ring configured
//!   ([`WeightEpoch::with_retention`] / [`WeightEpoch::set_retention`]),
//!   at most K recent epochs stay pinnable; older overlays whose lease
//!   count has dropped to zero are *compacted* — logically snapshot-merged
//!   into their successor (cumulative overlays already contain every older
//!   entry, so dropping the layer loses nothing) — and
//!   [`WeightEpoch::compact`] additionally folds the newest cumulative
//!   overlay into a fresh base weight array (a true base-CSR merge), so
//!   subsequent publishes start from an empty overlay again. A *held* pin
//!   blocks compaction of exactly its epoch; releasing the view unblocks
//!   it on the next sweep. [`WeightEpoch::gc_stats`] reports retained /
//!   compacted counts for service metrics.
//! * **Deltas are introspectable.** [`WeightEpoch::delta_between`] diffs
//!   the cumulative overlays of two retained epochs into a [`DeltaSet`]
//!   (touched arc slots with both weights, endpoint vertices, the set of
//!   touched tails, and weight-ratio floors) — the raw material
//!   incremental skyline *repair* classifies cached results against
//!   instead of recomputing them.
//!
//! Overlay entries are keyed by *arc slot* (see [`RoadNetwork::arc`]) and
//! sorted. Every overlay published over one base storage (one *lineage*,
//! which a rebase restarts) shares one bit per vertex, set for the tail of
//! every arc any overlay of the lineage reweights. Neighbour iteration
//! reads an unmarked vertex's base weights with no overlay lookup at all;
//! at a marked vertex it probes the overlay once for the vertex's slot
//! range and walks that sorted sub-slice with a cursor.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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
    /// New absolute weight (non-negative, non-NaN).
    pub weight: f64,
}

impl WeightDelta {
    /// Creates a delta, validating the weight.
    ///
    /// # Panics
    /// If `weight` is negative or NaN.
    pub fn new(from: VertexId, to: VertexId, weight: f64) -> WeightDelta {
        assert!(weight >= 0.0, "edge weight must be non-negative, got {weight}");
        WeightDelta { from, to, weight }
    }
}

/// A sparse, immutable arc-reweighting layer: the cumulative set of arcs
/// whose weight differs from the epoch's base weight array, as of one
/// epoch.
#[derive(Debug)]
pub struct WeightOverlay {
    epoch: EpochId,
    /// Affected arc slots, sorted ascending, unique.
    arcs: Box<[u32]>,
    /// `weights[i]` is the weight of arc `arcs[i]`.
    weights: Box<[f64]>,
    /// The lineage's marks: the tail of every arc in `arcs` is marked.
    marks: TailMarks,
    /// A lower bound on `min_a w_epoch(a) / w_origin(a)` over *all* arcs
    /// `a`, where `w_origin` is the weight under the manager's original
    /// (epoch-0) view. Maintained as a running minimum across publishes, so
    /// it survives base-CSR rebasing. Lower-bound oracles computed on the
    /// origin weights (e.g. landmarks) stay admissible at this epoch when
    /// scaled by this factor: `d_epoch(u, v) >= min_ratio * d_origin(u, v)`.
    min_ratio: f64,
}

impl WeightOverlay {
    /// An overlay reweighting nothing, at the head of a fresh lineage of
    /// marks over `num_vertices` vertices.
    fn fresh(epoch: EpochId, min_ratio: f64, num_vertices: usize) -> WeightOverlay {
        WeightOverlay {
            epoch,
            arcs: Box::new([]),
            weights: Box::new([]),
            marks: TailMarks::new(num_vertices),
            min_ratio,
        }
    }

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

/// One bit per vertex, shared by every overlay of one lineage: set for the
/// tail of every arc some overlay of the lineage reweights.
///
/// Bits are set and never cleared. Overlays are cumulative, so a lineage's
/// arc sets only grow, and a view at an older epoch may see a vertex marked
/// that its own overlay does not reweight; its range probe then finds
/// nothing. Bits are atomics because views of older epochs read them while
/// `publish` sets new ones.
#[derive(Clone, Debug)]
struct TailMarks(Arc<[AtomicU64]>);

impl TailMarks {
    fn new(num_vertices: usize) -> TailMarks {
        TailMarks((0..num_vertices.div_ceil(64)).map(|_| AtomicU64::new(0)).collect())
    }

    // `Relaxed` suffices on both sides: the bits publish nothing else, and
    // an epoch's own marks are set while the store mutex is held, before
    // the epoch is inserted. Every view of it comes from a pin under the
    // same mutex, so the mutex orders those marks before any read through
    // the view.
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
/// Because cumulative overlays store *absolute* weights, the set is a true
/// diff: an arc that was reweighted and later restored to its old value
/// does **not** appear.
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

/// Snapshot of a [`WeightEpoch`] manager's history/GC accounting, surfaced
/// through service metrics so a soak run can prove the overlay history
/// stays bounded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochGcStats {
    /// Epochs currently pinnable (overlays resident in the ring).
    pub retained: usize,
    /// High-water mark of `retained`, measured after each collection
    /// sweep. Bounded by `retention + (number of concurrently leased older
    /// epochs)` — every held pin keeps exactly its own epoch alive.
    pub retained_max: usize,
    /// Configured ring size K (`0` = unlimited, the default: every epoch
    /// stays pinnable forever, as PR 3 behaved).
    pub retention: usize,
    /// Overlays compacted away (snapshot-merged into their successor and
    /// dropped from the ring).
    pub compacted: u64,
    /// Base-CSR rebases: times the newest cumulative overlay was folded
    /// into a fresh base weight array by [`WeightEpoch::compact`].
    pub rebases: u64,
    /// Entries in the newest cumulative overlay (arcs currently deviating
    /// from the newest base weight array).
    pub overlay_len: usize,
}

/// One retained epoch: the base view its overlay patches (the origin
/// storage, or a rebased snapshot) plus the cumulative overlay itself.
struct EpochEntry {
    base: RoadNetwork,
    overlay: Arc<WeightOverlay>,
    /// The overlay this entry carried *before* a base-CSR rebase replaced
    /// it. Views pinned before the rebase hold clones of this `Arc`, so it
    /// must keep participating in the lease count — otherwise a sweep
    /// could compact an epoch whose pre-rebase views are still alive.
    prior: Option<Arc<WeightOverlay>>,
}

impl EpochEntry {
    /// Whether any reader still holds a view of this epoch (a clone of
    /// either overlay generation).
    fn leased(&self) -> bool {
        Arc::strong_count(&self.overlay) > 1
            || self.prior.as_ref().is_some_and(|p| Arc::strong_count(p) > 1)
    }
}

struct EpochStore {
    /// Epoch id → entry, for every still-pinnable epoch.
    entries: BTreeMap<u64, EpochEntry>,
    /// Ring size K; `0` = unlimited.
    retention: usize,
    compacted: u64,
    rebases: u64,
    retained_max: usize,
}

impl EpochStore {
    /// Drops unleased overlays older than the retention horizon. The
    /// newest K epochs always stay; an older epoch survives only while
    /// some reader still holds a view of it (its overlay `Arc` has
    /// outstanding clones — the lease). Returns the number compacted.
    fn collect(&mut self) -> usize {
        if self.retention == 0 {
            self.retained_max = self.retained_max.max(self.entries.len());
            return 0;
        }
        let newest = *self.entries.keys().next_back().expect("epoch 0 always exists");
        let horizon = newest.saturating_sub(self.retention as u64 - 1);
        let dead: Vec<u64> =
            self.entries.range(..horizon).filter(|(_, e)| !e.leased()).map(|(&k, _)| k).collect();
        for k in &dead {
            self.entries.remove(k);
        }
        self.compacted += dead.len() as u64;
        self.retained_max = self.retained_max.max(self.entries.len());
        dead.len()
    }
}

/// Epoch-versioned manager of dynamic edge weights over one road network.
///
/// The network passed to [`WeightEpoch::new`] (with whatever weights its
/// view carries) becomes epoch 0. Each [`publish`](WeightEpoch::publish)
/// folds a batch of deltas into a new cumulative overlay and makes it the
/// current epoch; readers that [`pin`](WeightEpoch::pin)ned an earlier
/// epoch keep their snapshot untouched. Epoch ids are meaningful only
/// within one manager.
///
/// By default every published epoch stays pinnable forever (the memory
/// cost grows with epochs × changed arcs). Configuring a retention ring
/// ([`with_retention`](WeightEpoch::with_retention)) bounds the history:
/// see the module docs for the lease/GC semantics.
pub struct WeightEpoch {
    /// The original epoch-0 view. Immutable for the manager's lifetime —
    /// it anchors arc-slot resolution, the `min_ratio` bookkeeping and any
    /// lower-bound oracle (landmarks) built over it, even after rebases.
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
    /// history retention.
    pub fn new(base: RoadNetwork) -> WeightEpoch {
        WeightEpoch::with_retention(base, 0)
    }

    /// Takes `base` as epoch 0 and keeps at most `retention` epochs
    /// pinnable (`0` = unlimited). See the module docs for the GC
    /// semantics.
    pub fn with_retention(base: RoadNetwork, retention: usize) -> WeightEpoch {
        let mut zero = WeightOverlay::fresh(EpochId::BASE, 1.0, base.num_vertices());
        if let Some(o) = base.overlay() {
            // A re-managed pinned view keeps its weights but restarts the
            // epoch counter: flatten its overlay into this manager's epoch 0,
            // marking the inherited arcs in the new lineage. Ratios are
            // measured against *this* manager's origin (the view as handed
            // over), so the inherited overlay starts at 1.
            for &slot in o.arcs.iter() {
                zero.marks.mark(base.arc(slot as usize).0);
            }
            zero.arcs = o.arcs.clone();
            zero.weights = o.weights.clone();
        }
        let zero = Arc::new(zero);
        let mut entries = BTreeMap::new();
        entries.insert(0u64, EpochEntry { base: base.clone(), overlay: zero, prior: None });
        WeightEpoch {
            base,
            current: AtomicU64::new(0),
            store: Mutex::new(EpochStore {
                entries,
                retention,
                compacted: 0,
                rebases: 0,
                retained_max: 1,
            }),
        }
    }

    /// Reconfigures the retention ring (`0` = unlimited) and immediately
    /// runs a collection sweep under the new bound.
    pub fn set_retention(&self, retention: usize) {
        let mut store = self.store.lock().expect("epoch manager poisoned");
        store.retention = retention;
        store.collect();
    }

    /// The most recently published epoch. Lock-free: safe to poll per
    /// request even while a publish is merging overlays.
    pub fn current_epoch(&self) -> EpochId {
        EpochId(self.current.load(Ordering::Acquire))
    }

    /// A read view pinned to the current epoch. O(1): two `Arc` clones.
    /// The view is a counted lease — while it (or any clone) is alive,
    /// its epoch cannot be compacted away.
    pub fn pin(&self) -> RoadNetwork {
        let store = self.store.lock().expect("epoch manager poisoned");
        let (_, entry) = store.entries.iter().next_back().expect("epoch 0 always exists");
        Self::view(entry)
    }

    /// A read view pinned to `epoch`, if it was published by this manager
    /// and is still retained (not compacted away). Like [`pin`], the view
    /// is a lease blocking compaction of its epoch.
    ///
    /// [`pin`]: WeightEpoch::pin
    pub fn pin_at(&self, epoch: EpochId) -> Option<RoadNetwork> {
        let store = self.store.lock().expect("epoch manager poisoned");
        store.entries.get(&epoch.0).map(Self::view)
    }

    fn view(entry: &EpochEntry) -> RoadNetwork {
        // Even an empty epoch-0 overlay is cloned into the view: the clone
        // *is* the lease, and a pin that held no overlay would not block
        // compaction of its epoch. Neighbour scans through the view probe
        // the overlay only at vertices its lineage marked; at every other
        // vertex they read base weights, as a view without an overlay does.
        entry.base.with_overlay(Arc::clone(&entry.overlay))
    }

    /// The original (epoch-0) view. Stable across rebases: lower-bound
    /// oracles (landmarks) built over it stay valid for every epoch when
    /// scaled by that epoch's [`WeightOverlay::min_ratio`].
    pub fn base(&self) -> &RoadNetwork {
        &self.base
    }

    /// Applies one batch of weight deltas as the next epoch and returns its
    /// id. Copy-on-write: the previous overlay is merged with the resolved
    /// deltas into a fresh overlay (last write wins within the batch);
    /// published epochs are never mutated. Afterwards a collection sweep
    /// compacts unleased epochs beyond the retention ring.
    ///
    /// Marks the tail of every reweighted arc in the lineage's shared
    /// vertex bits (see the module docs), so neighbour scans at later
    /// epochs probe the overlay only where some arc changed.
    ///
    /// An empty batch still publishes a (content-identical) new epoch —
    /// callers control epoch granularity.
    ///
    /// # Panics
    /// If a delta names an edge that does not exist in the network, or
    /// carries a negative/NaN weight.
    pub fn publish(&self, deltas: &[WeightDelta]) -> EpochId {
        // Resolve edges to arc slots outside the lock; both directions of
        // an undirected edge change together so a pinned view stays
        // symmetric.
        let mut patch: Vec<(u32, f64)> = Vec::with_capacity(deltas.len() * 2);
        for d in deltas {
            assert!(
                !d.weight.is_nan() && d.weight >= 0.0,
                "edge weight must be non-negative, got {}",
                d.weight
            );
            let mut slots = self.base.arcs_between(d.from, d.to);
            if !self.base.is_directed() && d.from != d.to {
                slots.extend(self.base.arcs_between(d.to, d.from));
            }
            assert!(
                !slots.is_empty(),
                "weight delta names a nonexistent edge {:?} -> {:?}",
                d.from,
                d.to
            );
            patch.extend(slots.into_iter().map(|s| (s, d.weight)));
        }
        // Within one batch the last delta for an edge wins.
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

        let mut store = self.store.lock().expect("epoch manager poisoned");
        let (&prev_id, prev) = store.entries.iter().next_back().expect("epoch 0 always exists");
        let epoch = EpochId(self.current.load(Ordering::Relaxed) + 1);
        debug_assert!(epoch.0 > prev_id);
        // The previous overlay names the lineage (a rebase may have started
        // a new one since the slots were resolved). The patch's tails are
        // each delta's endpoints: `from` for `from → to`, and `to` for the
        // reverse arcs of an undirected edge.
        let marks = prev.overlay.marks.clone();
        for d in deltas {
            marks.mark(d.from);
            if !self.base.is_directed() {
                marks.mark(d.to);
            }
        }
        // Sorted two-pointer merge of the previous cumulative overlay with
        // the patch (patch wins on collision).
        let prev_overlay = &prev.overlay;
        let mut arcs = Vec::with_capacity(prev_overlay.arcs.len() + patch.len());
        let mut weights = Vec::with_capacity(prev_overlay.arcs.len() + patch.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < prev_overlay.arcs.len() || j < patch.len() {
            let take_patch = match (prev_overlay.arcs.get(i), patch.get(j)) {
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
                arcs.push(prev_overlay.arcs[i]);
                weights.push(prev_overlay.weights[i]);
                i += 1;
            }
        }
        let overlay = Arc::new(WeightOverlay {
            epoch,
            arcs: arcs.into_boxed_slice(),
            weights: weights.into_boxed_slice(),
            marks,
            min_ratio: prev_overlay.min_ratio.min(patch_ratio),
        });
        let base = prev.base.clone();
        store.entries.insert(epoch.0, EpochEntry { base, overlay, prior: None });
        store.collect();
        // Advertise the epoch only after its overlay is resident (still
        // inside the lock), so a reader that observes the new id can
        // always pin it.
        self.current.store(epoch.0, Ordering::Release);
        epoch
    }

    /// Runs a full compaction: a collection sweep (drop unleased overlays
    /// beyond the retention ring), then a *base-CSR rebase* — the newest
    /// cumulative overlay is folded into a fresh base weight array and
    /// replaced by an empty overlay, so subsequent publishes merge against
    /// an empty layer again and mark vertices in a fresh lineage with no
    /// marks. Returns the number of overlays dropped.
    ///
    /// Already-pinned views are untouched (they own their storage and
    /// overlay `Arc`s); only *new* pins observe the rebased storage.
    /// Cross-rebase [`delta_between`](WeightEpoch::delta_between) pairs
    /// are unavailable (the two overlays patch different bases) and return
    /// `None` — callers fall back to recomputation.
    pub fn compact(&self) -> usize {
        let mut store = self.store.lock().expect("epoch manager poisoned");
        let dropped = store.collect();
        let (&newest, entry) = store.entries.iter().next_back().expect("epoch 0 always exists");
        if !entry.overlay.is_empty() {
            let folded = entry.base.with_weights_folded(Some(&entry.overlay));
            // Entries folded into the base still deviate from the origin;
            // the ratio floor must survive the fold.
            let overlay = Arc::new(WeightOverlay::fresh(
                entry.overlay.epoch,
                entry.overlay.min_ratio,
                folded.num_vertices(),
            ));
            // The displaced overlay stays as a lease anchor: views pinned
            // before the rebase hold clones of it.
            let prior = Some(Arc::clone(&entry.overlay));
            store.entries.insert(newest, EpochEntry { base: folded, overlay, prior });
            store.rebases += 1;
        }
        dropped
    }

    /// The exact set of arcs whose weight differs between `from` and `to`,
    /// or `None` when either epoch is no longer retained or the pair
    /// straddles a base-CSR rebase (the overlays patch different storages
    /// and cannot be diffed directly).
    ///
    /// O(|overlay(from)| + |overlay(to)|): a sorted two-pointer diff of
    /// the two cumulative overlays — absolute weights make intermediate
    /// epochs irrelevant, and an arc changed and changed *back* correctly
    /// does not appear.
    pub fn delta_between(&self, from: EpochId, to: EpochId) -> Option<DeltaSet> {
        if from > to {
            return None;
        }
        // Take only cheap clones under the manager lock — repair calls
        // this per stale cache hit, and the O(overlay) diff below must not
        // serialize the serving workers against pins and publishes. The
        // transient overlay clones also lease both epochs, so the diff
        // cannot race a compaction.
        let (base, fo, to_ov) = {
            let store = self.store.lock().expect("epoch manager poisoned");
            let fe = store.entries.get(&from.0)?;
            let te = store.entries.get(&to.0)?;
            if !fe.base.same_storage(&te.base) {
                return None;
            }
            (fe.base.clone(), Arc::clone(&fe.overlay), Arc::clone(&te.overlay))
        };
        let mut touches = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        let base = &base;
        let mut push = |slot: u32, from_weight: f64, to_weight: f64| {
            if from_weight != to_weight {
                let (tail, head, _) = base.arc(slot as usize);
                touches.push(WeightTouch { slot, tail, head, from_weight, to_weight });
            }
        };
        while i < fo.arcs.len() || j < to_ov.arcs.len() {
            match (fo.arcs.get(i).copied(), to_ov.arcs.get(j).copied()) {
                (Some(a), Some(b)) if a == b => {
                    push(a, fo.weights[i], to_ov.weights[j]);
                    i += 1;
                    j += 1;
                }
                (Some(a), Some(b)) if a < b => {
                    push(a, fo.weights[i], base.arc_weight(a));
                    i += 1;
                }
                (Some(_), Some(b)) => {
                    push(b, base.arc_weight(b), to_ov.weights[j]);
                    j += 1;
                }
                (Some(a), None) => {
                    push(a, fo.weights[i], base.arc_weight(a));
                    i += 1;
                }
                (None, Some(b)) => {
                    push(b, base.arc_weight(b), to_ov.weights[j]);
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        let mut tails: Vec<u32> = touches.iter().map(|t| t.tail.0).collect();
        tails.sort_unstable();
        tails.dedup();
        Some(DeltaSet {
            from,
            to,
            from_min_ratio: fo.min_ratio,
            to_min_ratio: to_ov.min_ratio,
            touches,
            tails: tails.into(),
        })
    }

    /// History/GC accounting snapshot.
    pub fn gc_stats(&self) -> EpochGcStats {
        let store = self.store.lock().expect("epoch manager poisoned");
        let (_, newest) = store.entries.iter().next_back().expect("epoch 0 always exists");
        EpochGcStats {
            retained: store.entries.len(),
            retained_max: store.retained_max,
            retention: store.retention,
            compacted: store.compacted,
            rebases: store.rebases,
            overlay_len: newest.overlay.len(),
        }
    }

    /// Number of reweighted arcs in the current cumulative overlay.
    pub fn overlay_len(&self) -> usize {
        self.gc_stats().overlay_len
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
        assert_eq!(epochs.overlay_len(), 0);
        epochs.publish(&[WeightDelta::new(VertexId(0), VertexId(1), 2.0)]);
        assert_eq!(epochs.overlay_len(), 2, "both arc directions");
        // Re-updating the same edge does not grow the overlay.
        epochs.publish(&[WeightDelta::new(VertexId(0), VertexId(1), 3.0)]);
        assert_eq!(epochs.overlay_len(), 2);
        epochs.publish(&[WeightDelta::new(VertexId(1), VertexId(2), 3.0)]);
        assert_eq!(epochs.overlay_len(), 4);
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
        let epochs = WeightEpoch::with_retention(triangle(), 3);
        for i in 0..10u32 {
            epochs.publish(&[WeightDelta::new(VertexId(0), VertexId(1), 1.0 + f64::from(i))]);
        }
        let gc = epochs.gc_stats();
        assert_eq!(gc.retained, 3, "ring keeps exactly K epochs: {gc:?}");
        assert_eq!(gc.retention, 3);
        assert_eq!(gc.compacted, 8, "epochs 0..=7 were compacted");
        assert!(gc.retained_max <= 3, "nothing was pinned, so the ring never grew: {gc:?}");
        // Old epochs are gone; recent ones still pin.
        assert!(epochs.pin_at(EpochId(0)).is_none());
        assert!(epochs.pin_at(EpochId(7)).is_none());
        for e in 8..=10 {
            assert!(epochs.pin_at(EpochId(e)).is_some(), "epoch {e} must be retained");
        }
    }

    #[test]
    fn a_held_pin_blocks_compaction_and_release_unblocks_it() {
        let epochs = WeightEpoch::with_retention(triangle(), 2);
        epochs.publish(&[WeightDelta::new(VertexId(0), VertexId(1), 2.0)]);
        let held = epochs.pin_at(EpochId(1)).expect("fresh epoch pins");
        for i in 0..6u32 {
            epochs.publish(&[WeightDelta::new(VertexId(1), VertexId(2), 3.0 + f64::from(i))]);
        }
        // Epoch 1 is leased: it must survive every sweep while `held` lives.
        assert!(epochs.pin_at(EpochId(1)).is_some(), "a held lease blocks compaction");
        assert_eq!(weight_between(&held, 0, 1), 2.0, "the held view is untouched");
        let gc = epochs.gc_stats();
        assert_eq!(gc.retained, 3, "ring of 2 plus the one leased epoch");
        assert!(gc.retained_max <= 2 + 1);
        drop(held);
        // The lease is gone; the next sweep compacts epoch 1.
        epochs.compact();
        assert!(epochs.pin_at(EpochId(1)).is_none(), "released epochs are collectable");
        assert_eq!(epochs.gc_stats().retained, 2);
    }

    #[test]
    fn a_detached_view_holds_no_lease() {
        let epochs = WeightEpoch::with_retention(triangle(), 1);
        epochs.publish(&[WeightDelta::new(VertexId(0), VertexId(1), 2.0)]);
        let copy = epochs.pin().detached();
        assert_eq!((copy.epoch(), weight_between(&copy, 0, 1)), (EpochId::BASE, 2.0));
        epochs.publish(&[WeightDelta::new(VertexId(1), VertexId(2), 3.0)]);
        assert!(epochs.pin_at(EpochId(1)).is_none(), "the copy must not lease epoch 1");
        assert_eq!(weight_between(&copy, 1, 2), 2.0, "the copy keeps the weights it copied");
    }

    #[test]
    fn compact_rebases_the_newest_overlay_into_the_base_csr() {
        let epochs = WeightEpoch::with_retention(triangle(), 2);
        epochs.publish(&[WeightDelta::new(VertexId(0), VertexId(1), 9.0)]);
        let e2 = epochs.publish(&[WeightDelta::new(VertexId(1), VertexId(2), 4.0)]);
        let before = epochs.pin();
        assert_eq!(epochs.gc_stats().overlay_len, 4);
        epochs.compact();
        let gc = epochs.gc_stats();
        assert_eq!(gc.rebases, 1);
        assert_eq!(gc.overlay_len, 0, "the cumulative overlay folded into the base");
        // Weights are unchanged through the rebase, for old and new pins.
        let after = epochs.pin();
        assert_eq!(after.epoch(), e2);
        for (a, b) in [(0, 1), (1, 2), (0, 2)] {
            assert_eq!(weight_between(&before, a, b), weight_between(&after, a, b));
        }
        // Publishing after the rebase starts from an empty overlay.
        let e3 = epochs.publish(&[WeightDelta::new(VertexId(0), VertexId(2), 6.0)]);
        assert_eq!(epochs.gc_stats().overlay_len, 2);
        let p = epochs.pin();
        assert_eq!(weight_between(&p, 0, 1), 9.0, "folded weights persist");
        assert_eq!(weight_between(&p, 0, 2), 6.0);
        // Cross-rebase delta pairs are unavailable; same-side pairs work.
        assert!(epochs.delta_between(EpochId(1), e3).is_none());
        assert!(epochs.delta_between(e2, e3).is_some());
    }

    #[test]
    fn even_epoch_zero_pins_are_leases() {
        // Regression: the epoch-0 view of a pristine base must still hold
        // its (empty) overlay Arc — a lease-less pin would not block
        // compaction of its epoch.
        let epochs = WeightEpoch::with_retention(triangle(), 2);
        let held = epochs.pin(); // epoch 0, empty overlay
        for i in 0..5u32 {
            epochs.publish(&[WeightDelta::new(VertexId(0), VertexId(1), 2.0 + f64::from(i))]);
        }
        assert!(epochs.pin_at(EpochId::BASE).is_some(), "a held epoch-0 lease blocks compaction");
        assert_eq!(weight_between(&held, 0, 1), 1.0);
        drop(held);
        epochs.compact();
        assert!(epochs.pin_at(EpochId::BASE).is_none(), "released epoch 0 is collectable");
    }

    #[test]
    fn marks_cover_reweighted_tails_and_a_rebase_starts_a_fresh_lineage() {
        let marked = |g: &RoadNetwork| -> Vec<u32> {
            let o = g.overlay().expect("pinned views carry an overlay");
            g.vertices().filter(|&v| o.may_reweight(v)).map(|v| v.0).collect()
        };
        let epochs = WeightEpoch::new(line(6));
        let e0 = epochs.pin();
        assert!(marked(&e0).is_empty());
        epochs.publish(&[WeightDelta::new(VertexId(1), VertexId(2), 4.0)]);
        let e1 = epochs.pin();
        assert_eq!(marked(&e1), [1, 2], "both tails of the undirected edge");
        assert_eq!(marked(&e0), [1, 2], "older overlays of the lineage share the marks");
        assert_eq!(weight_between(&e0, 1, 2), 1.0, "so their probe finds no entry");
        epochs.compact();
        assert!(marked(&epochs.pin()).is_empty(), "a rebase starts a lineage with no marks");
        epochs.publish(&[WeightDelta::new(VertexId(4), VertexId(5), 2.0)]);
        assert_eq!(marked(&epochs.pin()), [4, 5]);
        assert_eq!(marked(&e1), [1, 2], "the old lineage keeps its own marks");
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
}
