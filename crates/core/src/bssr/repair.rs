//! Incremental skyline repair across weight epochs.
//!
//! When a weight-delta batch publishes a new epoch, a cached skyline is no
//! longer trustworthy — but when the batch touched a handful of arcs
//! nowhere near the query, recomputing the whole BSSR search throws away
//! everything the cache knew. Repair classifies the cached result against
//! the exact [`DeltaSet`](skysr_graph::DeltaSet) between its epoch and the
//! current one (packaged with its per-epoch-pair [`DeltaIndex`]), and does
//! the *cheapest sound thing*:
//!
//! 1. **Untouched** ([`wholesale_untouched`]) — a lower-bound check: if
//!    every touched arc's tail is provably farther from the query start
//!    than the longest cached route, the cached skyline *is* the new
//!    epoch's skyline, verbatim. The bound is the landmark (ALT) oracle
//!    over the manager's origin weights, scaled by the epoch's
//!    [`min_ratio`](skysr_graph::epoch::WeightOverlay::min_ratio) floor so
//!    it stays admissible under arbitrary reweighting. No graph search
//!    runs at all.
//! 2. **Rescore** — otherwise each cached route's length is recomputed as
//!    its sum of point-to-point shortest-path legs at the new epoch
//!    (early-terminating Dijkstras — far cheaper than a branch-and-bound
//!    search). If every length came back unchanged *and* no weight
//!    *decrease* is reachable within the skyline radius (checked by the
//!    same scaled landmark bound, then a single radius-bounded Dijkstra
//!    for the stragglers), the cached skyline is again exact and is
//!    promoted as-is.
//! 3. **Re-search** — only when a length actually changed or a decreased
//!    arc is within reach does a full search run, warm-seeded with the
//!    rescored survivors (genuine new-epoch lengths, so they only tighten
//!    the pruning thresholds — the NNinit argument).
//!
//! # Why the classification is sound
//!
//! Let `S_N` be the cached skyline at epoch `N`, `T` the longest length in
//! it, `D` the set of arcs whose weight differs between `N` and the target
//! epoch `M`, and `d_E(·,·)` shortest distances at epoch `E`. Two facts do
//! all the work:
//!
//! * *Any* path that crosses an arc of `D` first pays the full distance to
//!   that arc's tail over arcs **outside** `D` — and sub-paths avoiding
//!   `D` cost the same at `N` and `M`. So if `d_N(start, tail) > T` for
//!   every touched tail, no route of length ≤ `T` (cached or not, at
//!   either epoch) can use a touched arc, every such route's length is
//!   epoch-invariant, and every route longer than `T` stays dominated by
//!   the unchanged `S_N` member that dominated it at `N` (a dominator with
//!   no worse semantic score always exists, because semantic scores do not
//!   depend on weights). Hence `S_N` is exactly the epoch-`M` skyline.
//! * Weight *increases* can never promote a non-cached route past an
//!   unchanged cached one (`len_M(R) ≥ len_N(R)` when `R` avoids
//!   decreases). So after verifying by rescoring that every cached length
//!   is unchanged, only *decreases* within the `T`-radius ball around the
//!   start can invalidate the skyline — exactly what tier 2's relevance
//!   check rules out.
//!
//! All comparisons use a conservative margin ([`safely_beyond`]): ties and
//! near-ties fall through to the next (more expensive, still exact) tier,
//! so floating-point noise can only cost time, never exactness. The
//! end-to-end guarantee — a repaired skyline is score-equivalent to a
//! from-scratch search at the pinned epoch — is enforced by the replay
//! driver's `--verify` oracle and the repair property tests.

use std::time::Instant;

use skysr_graph::dijkstra::{dijkstra_with, point_to_point, Settle};
use skysr_graph::fxhash::FxHashSet;
use skysr_graph::{Cost, DeltaIndex, DijkstraWorkspace, Landmarks, VertexId};

use crate::bssr::Bssr;
use crate::context::QueryContext;
use crate::error::QueryError;
use crate::prepared::PreparedQuery;
use crate::query::SkySrQuery;
use crate::route::{approx_le, SkylineRoute};
use crate::stats::QueryStats;

/// How a repair was resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairOutcome {
    /// The cheap lower-bound check proved no touched arc can affect the
    /// skyline: promoted verbatim, no graph search ran.
    Untouched,
    /// Route lengths were re-derived at the new epoch and came back
    /// unchanged, and no reachable weight decrease exists: promoted after
    /// verification.
    Rescored,
    /// A full warm-seeded search had to run (the repair "fallback").
    Researched,
}

impl RepairOutcome {
    /// Stable lowercase name for telemetry (trace spans, exporters).
    pub fn label(self) -> &'static str {
        match self {
            RepairOutcome::Untouched => "untouched",
            RepairOutcome::Rescored => "rescored",
            RepairOutcome::Researched => "researched",
        }
    }
}

/// Per-repair breakdown, surfaced through the service metrics.
#[derive(Clone, Copy, Debug)]
pub struct RepairStats {
    /// How the repair was resolved.
    pub outcome: RepairOutcome,
    /// Cached routes proven untouched without any graph search.
    pub routes_untouched: usize,
    /// Cached routes whose legs were re-run at the new epoch.
    pub routes_rescored: usize,
}

impl RepairStats {
    /// Whether the cached skyline was promoted in place (no full search).
    pub fn repaired_in_place(&self) -> bool {
        self.outcome != RepairOutcome::Researched
    }
}

/// Result of one [`Bssr::repair`] run: the exact skyline at the engine's
/// (new) epoch, plus instrumentation.
#[derive(Clone, Debug)]
pub struct RepairResult {
    /// The skyline routes, sorted by ascending length. Score-equivalent to
    /// a from-scratch search at the engine's epoch.
    pub routes: Vec<SkylineRoute>,
    /// Search instrumentation (legs, relevance ball, fallback search).
    pub stats: QueryStats,
    /// Classification breakdown.
    pub repair: RepairStats,
}

/// Conservative margin for repair's reachability comparisons: `a` must
/// clear `b` by more than any plausible accumulated floating-point noise
/// before repair treats an arc as unreachable. Ties fall through to the
/// next tier, so the margin trades only time, never exactness.
const MARGIN: f64 = 1e-7;

/// Whether `a` exceeds `b` by clearly more than the float-noise margin.
#[inline]
pub fn safely_beyond(a: f64, b: f64) -> bool {
    a > b * (1.0 + MARGIN) + MARGIN
}

/// The cheap wholesale-untouched check (repair tier 1): `true` iff every
/// arc touched by `delta` has its tail provably farther from `start` *at
/// the delta's older epoch* than `max_len`, the longest route of the
/// cached skyline. When it holds, the cached skyline is exactly the
/// newer epoch's skyline (see the module docs for the argument).
///
/// `landmarks` must be built over the weight manager's origin (epoch-0)
/// view; without an oracle the check degrades to "only an empty delta is
/// untouched".
pub fn wholesale_untouched(
    index: &DeltaIndex,
    landmarks: Option<&Landmarks>,
    start: VertexId,
    max_len: Cost,
) -> bool {
    index_clears(index, landmarks, start, max_len)
        || safely_beyond(TouchBounds::new(index, landmarks, start).floor(), max_len.get())
}

/// Tier 1's fast path: the delta is empty, or one O(landmarks) probe of
/// the precomputed touched-ball index clears the whole delta at once. The
/// common "updates landed far away" case costs the same whether the batch
/// touched 2 arcs or 2000, and is shared across every stale key of this
/// epoch pair.
fn index_clears(
    index: &DeltaIndex,
    landmarks: Option<&Landmarks>,
    start: VertexId,
    max_len: Cost,
) -> bool {
    let ratio = index.delta().from_min_ratio().clamp(0.0, 1.0);
    index.delta().is_empty()
        || landmarks
            .is_some_and(|lm| safely_beyond(ratio * index.touched_floor(lm, start), max_len.get()))
}

/// The landmark lower bound from one start to every touched tail of a
/// delta, at the origin weight scale, computed once per repair. Each
/// check scales them by its epoch's weight-ratio floor: admissible,
/// because every arc weight at that epoch is at least the floor times its
/// origin weight, so every path (and hence the shortest distance) scales
/// accordingly.
struct TouchBounds<'a> {
    index: &'a DeltaIndex,
    /// `lower_bound(start, tail)` per touch, in touch order; `None`
    /// without an oracle.
    origin: Option<Vec<f64>>,
}

impl<'a> TouchBounds<'a> {
    fn new(index: &'a DeltaIndex, landmarks: Option<&Landmarks>, start: VertexId) -> Self {
        let origin = landmarks.map(|lm| {
            index.delta().touches().iter().map(|t| lm.lower_bound(start, t.tail).get()).collect()
        });
        TouchBounds { index, origin }
    }

    /// The smallest bound to any touched tail at the delta's older epoch:
    /// tier 2's per-route skip floor (a route shorter than it provably
    /// keeps its length across the delta). Tier 1 holds exactly when it is
    /// safely beyond the skyline radius, since [`safely_beyond`] is
    /// monotone in its first argument. 0 without an oracle.
    fn floor(&self) -> f64 {
        let Some(origin) = &self.origin else {
            return 0.0;
        };
        let ratio = self.index.delta().from_min_ratio().clamp(0.0, 1.0);
        ratio * origin.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Tails of the *decreased* arcs not provably beyond `max_len` from
    /// the start at the delta's newer epoch.
    fn decreased_within(&self, max_len: Cost) -> FxHashSet<u32> {
        let delta = self.index.delta();
        let ratio = delta.to_min_ratio().clamp(0.0, 1.0);
        delta
            .touches()
            .iter()
            .enumerate()
            .filter(|&(i, t)| {
                let cleared = (self.origin.as_ref())
                    .is_some_and(|lb| safely_beyond(ratio * lb[i], max_len.get()));
                t.decreased() && !cleared
            })
            .map(|(_, t)| t.tail.0)
            .collect()
    }
}

/// Recomputes a route's length score at the engine's epoch as the sum of
/// its point-to-point shortest-path legs (`start → p₁ → … → p_k`), each an
/// early-terminating Dijkstra counted into `stats`. `None` if a leg is
/// unreachable (impossible for a route cached on the same topology;
/// treated as "changed" upstream).
fn rescore_route(
    ctx: &QueryContext<'_>,
    start: VertexId,
    route: &SkylineRoute,
    ws: &mut DijkstraWorkspace,
    stats: &mut QueryStats,
) -> Option<Cost> {
    let mut total = Cost::ZERO;
    let mut at = start;
    for &p in &route.pois {
        let (d, leg) = point_to_point(ctx.graph, ws, at, p);
        stats.search.merge(&leg);
        total += d?;
        at = p;
    }
    Some(total)
}

/// Whether any *decreased* arc of `delta` is reachable from `start`
/// within the skyline radius `max_len` at the engine's (new) epoch. Tails
/// cleared by the scaled landmark bound are skipped; the stragglers are
/// settled by one radius-bounded Dijkstra over the new-epoch graph.
fn decreases_relevant(
    ctx: &QueryContext<'_>,
    bounds: &TouchBounds<'_>,
    landmarks: Option<&Landmarks>,
    start: VertexId,
    max_len: Cost,
    ws: &mut DijkstraWorkspace,
    stats: &mut QueryStats,
) -> bool {
    let index = bounds.index;
    // Fast path via the shared index: when the nearest *decreased* tail is
    // provably beyond the skyline radius (or nothing decreased at all —
    // the floor is then infinite), no per-tail probe or Dijkstra runs.
    if let Some(lm) = landmarks {
        let floor = index.decreased_floor(lm, start);
        if floor.is_infinite()
            || safely_beyond(index.delta().to_min_ratio().clamp(0.0, 1.0) * floor, max_len.get())
        {
            return false;
        }
    }
    let suspicious = bounds.decreased_within(max_len);
    if suspicious.is_empty() {
        return false;
    }
    let mut relevant = false;
    let s = dijkstra_with(ctx.graph, ws, &[(start, Cost::ZERO)], |v, d| {
        if safely_beyond(d.get(), max_len.get()) {
            return Settle::Stop;
        }
        if suspicious.contains(&v.0) {
            relevant = true;
            return Settle::Stop;
        }
        Settle::Continue
    });
    stats.search.merge(&s);
    relevant
}

/// Outcome of the in-place tiers (1–2): either a promoted skyline, or the
/// rescored survivors a fallback search should be seeded with.
enum InPlace {
    Promoted { routes: Vec<SkylineRoute>, repair: RepairStats },
    Fallback { survivors: Vec<SkylineRoute>, routes_untouched: usize, routes_rescored: usize },
}

impl<'g> Bssr<'g> {
    /// Repairs `cached` — a skyline computed for `query` at the index's
    /// `delta().from_epoch()` — into the exact skyline at this engine's
    /// (newer) epoch, choosing the cheapest sound tier (see the module
    /// docs). `index` is the per-epoch-pair touched-ball index
    /// ([`DeltaIndex`]), built once from the exact delta and shared across
    /// every stale key of that epoch pair; `landmarks`, if provided, must
    /// be the oracle the index was built with (over the weight manager's
    /// origin view).
    ///
    /// The in-place tiers consult only the start vertex, the cached
    /// scores, the delta and the graph: this entry point compiles the
    /// query only when the repair has to fall back to a real search. The
    /// service instead prepares through its memo of compiled category
    /// positions before every repair — k `Arc` clones — and calls
    /// [`Bssr::repair_prepared`]. Either way the per-request cost drops
    /// from "compile + search" to a handful of lower-bound probes.
    ///
    /// The result is score-equivalent to a cold [`Bssr::run`] at the
    /// engine's epoch. Passing a skyline that was *not* computed for this
    /// query/epoch pair voids that guarantee — the cache-keyed caller
    /// (`skysr-service`) enforces it structurally.
    pub fn repair(
        &mut self,
        query: &SkySrQuery,
        cached: &[SkylineRoute],
        index: &DeltaIndex,
        landmarks: Option<&Landmarks>,
    ) -> Result<RepairResult, QueryError> {
        // The cheap validations a prepare would do; the rest (category
        // ids) is implied by the cached entry's existence and re-checked
        // by the fallback prepare.
        if query.is_empty() {
            return Err(QueryError::EmptySequence);
        }
        if query.start.index() >= self.ctx.graph.num_vertices() {
            return Err(QueryError::UnknownStart(query.start));
        }
        let t0 = Instant::now();
        let mut stats = QueryStats::default();
        match self.repair_in_place(query.start, cached, index, landmarks, &mut stats) {
            InPlace::Promoted { routes, repair } => {
                stats.total_time = t0.elapsed();
                self.absorb_profile(&stats);
                Ok(RepairResult { routes, stats, repair })
            }
            InPlace::Fallback { survivors, routes_untouched, routes_rescored } => {
                let pq = PreparedQuery::prepare(&self.ctx, query)?;
                Ok(self.fallback(&pq, survivors, routes_untouched, routes_rescored, stats, t0))
            }
        }
    }

    /// [`Bssr::repair`] over a pre-compiled query (callers that already
    /// paid for preparation).
    pub fn repair_prepared(
        &mut self,
        pq: &PreparedQuery,
        cached: &[SkylineRoute],
        index: &DeltaIndex,
        landmarks: Option<&Landmarks>,
    ) -> RepairResult {
        let t0 = Instant::now();
        let mut stats = QueryStats::default();
        match self.repair_in_place(pq.start, cached, index, landmarks, &mut stats) {
            InPlace::Promoted { routes, repair } => {
                stats.total_time = t0.elapsed();
                self.absorb_profile(&stats);
                RepairResult { routes, stats, repair }
            }
            InPlace::Fallback { survivors, routes_untouched, routes_rescored } => {
                self.fallback(pq, survivors, routes_untouched, routes_rescored, stats, t0)
            }
        }
    }

    /// Tiers 1–2: everything that can be decided without compiling the
    /// query.
    fn repair_in_place(
        &mut self,
        start: VertexId,
        cached: &[SkylineRoute],
        index: &DeltaIndex,
        landmarks: Option<&Landmarks>,
        stats: &mut QueryStats,
    ) -> InPlace {
        let ctx = self.ctx;

        // An empty skyline is weight-independent: no valid sequenced route
        // exists for topological/semantic reasons, and reweighting cannot
        // create one.
        if cached.is_empty() {
            return InPlace::Promoted {
                routes: Vec::new(),
                repair: RepairStats {
                    outcome: RepairOutcome::Untouched,
                    routes_untouched: 0,
                    routes_rescored: 0,
                },
            };
        }
        let max_len = cached.iter().map(|r| r.length).max().expect("non-empty");
        let untouched = || {
            let mut routes = cached.to_vec();
            routes.sort_by_key(|r| r.length);
            InPlace::Promoted {
                routes,
                repair: RepairStats {
                    outcome: RepairOutcome::Untouched,
                    routes_untouched: cached.len(),
                    routes_rescored: 0,
                },
            }
        };

        // Tier 1: every touched arc is provably beyond the skyline radius
        // (`wholesale_untouched`, with its landmark pass kept for tier 2).
        if index_clears(index, landmarks, start, max_len) {
            return untouched();
        }
        let bounds = TouchBounds::new(index, landmarks, start);
        let floor = bounds.floor();
        if safely_beyond(floor, max_len.get()) {
            return untouched();
        }

        // Tier 2: rescore each route's legs at the new epoch. Routes
        // strictly below the touched-distance floor provably kept their
        // length and skip the legs.
        let mut survivors: Vec<SkylineRoute> = Vec::with_capacity(cached.len());
        let mut routes_untouched = 0usize;
        let mut routes_rescored = 0usize;
        let mut all_unchanged = true;
        for r in cached {
            if safely_beyond(floor, r.length.get()) {
                routes_untouched += 1;
                survivors.push(r.clone());
                continue;
            }
            routes_rescored += 1;
            match rescore_route(&ctx, start, r, &mut self.ws, stats) {
                Some(len) => {
                    // "Unchanged" must mean unchanged *at the dominance
                    // tolerance* (SCORE_EPS), not at the looser
                    // reachability margin: a genuine sub-MARGIN increase
                    // could otherwise break a dominance tie and surface a
                    // route this tier would silently drop. Anything beyond
                    // score-equivalence falls through to the re-search.
                    if !(approx_le(len.get(), r.length.get())
                        && approx_le(r.length.get(), len.get()))
                    {
                        all_unchanged = false;
                    }
                    survivors.push(SkylineRoute {
                        pois: r.pois.clone(),
                        length: len,
                        semantic: r.semantic,
                    });
                }
                None => all_unchanged = false,
            }
        }
        if all_unchanged
            && !decreases_relevant(&ctx, &bounds, landmarks, start, max_len, &mut self.ws, stats)
        {
            survivors.sort_by_key(|r| r.length);
            return InPlace::Promoted {
                routes: survivors,
                repair: RepairStats {
                    outcome: RepairOutcome::Rescored,
                    routes_untouched,
                    routes_rescored,
                },
            };
        }
        InPlace::Fallback { survivors, routes_untouched, routes_rescored }
    }

    /// Tier 3: full warm-seeded re-search. The survivors carry genuine
    /// new-epoch lengths, so seeding them only tightens the pruning
    /// thresholds (the NNinit soundness argument).
    fn fallback(
        &mut self,
        pq: &PreparedQuery,
        survivors: Vec<SkylineRoute>,
        routes_untouched: usize,
        routes_rescored: usize,
        stats: QueryStats,
        t0: Instant,
    ) -> RepairResult {
        // Repairs promise score-equivalence to a cold run, so an armed
        // anytime deadline (see `Bssr::set_deadline`) must not truncate
        // the re-search — a partial labelled "repaired" would launder the
        // approximate flag away. Disarm for the duration.
        let deadline = self.deadline.take();
        let mut result = self.run_prepared_warm(pq, &survivors);
        self.deadline = deadline;
        // The warm search absorbed its own work into the scratch profile;
        // the in-place tiers' (rescoring legs, relevance ball) is only in
        // `stats`, so count it here — each unit of work exactly once.
        self.absorb_profile(&stats);
        result.stats.search.merge(&stats.search);
        result.stats.total_time = t0.elapsed();
        RepairResult {
            routes: result.routes,
            stats: result.stats,
            repair: RepairStats {
                outcome: RepairOutcome::Researched,
                routes_untouched,
                routes_rescored,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bssr::BssrConfig;
    use crate::paper_example::PaperExample;
    use crate::route::equivalent_skylines;
    use skysr_graph::{EpochId, WeightDelta, WeightEpoch};

    /// Paper-example harness: cached skyline at epoch 0, repair across a
    /// published batch, oracle at the new epoch.
    struct Harness {
        ex: PaperExample,
        epochs: WeightEpoch,
        landmarks: Landmarks,
    }

    impl Harness {
        fn new() -> Harness {
            let ex = PaperExample::new();
            let landmarks = Landmarks::build(&ex.graph, 4, VertexId(0));
            let epochs = WeightEpoch::new(ex.graph.clone());
            Harness { ex, epochs, landmarks }
        }

        /// Runs the full round trip for one delta batch: cache at epoch 0,
        /// publish, repair, compare with oracle. Returns the outcome.
        fn round_trip(&self, deltas: &[WeightDelta]) -> RepairOutcome {
            let q = self.ex.query();
            let base = self.epochs.pin_at(EpochId::BASE).unwrap();
            let qctx0 = crate::context::QueryContext::new(&base, &self.ex.forest, &self.ex.pois);
            let cached = Bssr::new(&qctx0).run(&q).unwrap().routes;

            let to = self.epochs.publish(deltas);
            let delta = self.epochs.delta_between(EpochId::BASE, to).unwrap();
            let index = DeltaIndex::build(delta, Some(&self.landmarks));
            let pinned = self.epochs.pin();
            let qctx = crate::context::QueryContext::new(&pinned, &self.ex.forest, &self.ex.pois);
            let repaired =
                Bssr::new(&qctx).repair(&q, &cached, &index, Some(&self.landmarks)).unwrap();
            let oracle = Bssr::with_config(&qctx, BssrConfig::default()).run(&q).unwrap().routes;
            assert!(
                equivalent_skylines(&repaired.routes, &oracle),
                "repair ({:?}) diverged: {:?} vs oracle {:?}",
                repaired.repair.outcome,
                repaired.routes,
                oracle
            );
            repaired.repair.outcome
        }
    }

    #[test]
    fn empty_delta_is_untouched() {
        let h = Harness::new();
        assert_eq!(h.round_trip(&[]), RepairOutcome::Untouched);
    }

    #[test]
    fn repair_is_oracle_exact_for_assorted_deltas() {
        // Touch edges all over the paper graph, including on the skyline
        // routes themselves: every outcome class must stay exact.
        for (i, factor) in [(0usize, 3.0), (3, 0.4), (7, 2.0), (11, 0.25), (5, 1.5)] {
            let h = Harness::new();
            let (from, to, w) = h.ex.graph.arc(i);
            h.round_trip(&[WeightDelta::new(from, to, w.get() * factor)]);
        }
    }

    #[test]
    fn increases_on_route_arcs_force_a_researched_fallback_and_stay_exact() {
        let h = Harness::new();
        // Triple every arc: every route length changes, no shortcut is
        // safe — repair must fall back to the seeded search and agree with
        // the oracle.
        let deltas: Vec<WeightDelta> = (0..h.ex.graph.num_arcs())
            .step_by(2) // one direction per undirected edge is enough
            .map(|s| {
                let (from, to, w) = h.ex.graph.arc(s);
                WeightDelta::new(from, to, w.get() * 3.0)
            })
            .collect();
        assert_eq!(h.round_trip(&deltas), RepairOutcome::Researched);
    }

    #[test]
    fn decreases_near_the_start_are_never_trusted_blindly() {
        let h = Harness::new();
        // Make some arc near the start almost free: new dominating routes
        // may appear, so the repair must re-search — and must still agree.
        let (from, to, _) = h.ex.graph.arc(0);
        assert_eq!(h.round_trip(&[WeightDelta::new(from, to, 0.01)]), RepairOutcome::Researched);
    }

    #[test]
    fn empty_cached_skylines_promote_for_free() {
        let h = Harness::new();
        let to = h.epochs.publish(&[{
            let (from, to, w) = h.ex.graph.arc(0);
            WeightDelta::new(from, to, w.get() * 2.0)
        }]);
        let delta = h.epochs.delta_between(EpochId::BASE, to).unwrap();
        let index = DeltaIndex::build(delta, Some(&h.landmarks));
        let pinned = h.epochs.pin();
        let qctx = crate::context::QueryContext::new(&pinned, &h.ex.forest, &h.ex.pois);
        let r = Bssr::new(&qctx).repair(&h.ex.query(), &[], &index, Some(&h.landmarks)).unwrap();
        assert!(r.routes.is_empty());
        assert_eq!(r.repair.outcome, RepairOutcome::Untouched);
    }

    #[test]
    fn a_rescored_repair_counts_its_legs_and_its_relevance_ball() {
        use crate::poi::PoiTable;
        use skysr_category::ForestBuilder;
        use skysr_graph::{GraphBuilder, SearchStats};

        // A line 0 —1— 1 —1— … —1— 9 with an Asian restaurant at 1 and a
        // gift shop at 2; the decreased edge 7 — 8 lies beyond the
        // skyline radius, so the repair rescores and runs its ball.
        let mut fb = ForestBuilder::new();
        let food = fb.add_root("Food");
        let asian = fb.add_child(food, "Asian");
        let shop = fb.add_root("Shop");
        let gift = fb.add_child(shop, "Gift");
        let forest = fb.build();
        let mut gb = GraphBuilder::new();
        let v: Vec<VertexId> = (0..10).map(|_| gb.add_vertex()).collect();
        for w in v.windows(2) {
            gb.add_edge(w[0], w[1], 1.0);
        }
        let graph = gb.build();
        let mut pois = PoiTable::new(graph.num_vertices());
        pois.add_poi(v[1], asian);
        pois.add_poi(v[2], gift);
        pois.finalize(&forest);
        let query = SkySrQuery::new(v[0], [asian, gift]);
        let cached = Bssr::new(&QueryContext::new(&graph, &forest, &pois)).run(&query).unwrap();
        let cached = cached.routes;

        let epochs = WeightEpoch::new(graph);
        let to = epochs.publish(&[WeightDelta::new(v[7], v[8], 0.5)]);
        let index = DeltaIndex::build(epochs.delta_between(EpochId::BASE, to).unwrap(), None);
        let pinned = epochs.pin();
        let ctx = QueryContext::new(&pinned, &forest, &pois);
        let repaired = Bssr::new(&ctx).repair(&query, &cached, &index, None).unwrap();
        assert_eq!(repaired.repair.outcome, RepairOutcome::Rescored);

        // The same searches, run independently: every leg of every cached
        // route, then the ball out to the skyline radius.
        let mut ws = DijkstraWorkspace::new(pinned.num_vertices());
        let mut expect = SearchStats::default();
        for r in &cached {
            let mut at = query.start;
            for &p in &r.pois {
                expect.merge(&dijkstra_with(&pinned, &mut ws, &[(at, Cost::ZERO)], |u, _| {
                    if u == p {
                        Settle::Stop
                    } else {
                        Settle::Continue
                    }
                }));
                at = p;
            }
        }
        let max_len = cached.iter().map(|r| r.length).max().unwrap();
        expect.merge(&dijkstra_with(&pinned, &mut ws, &[(query.start, Cost::ZERO)], |_, d| {
            if safely_beyond(d.get(), max_len.get()) {
                Settle::Stop
            } else {
                Settle::Continue
            }
        }));
        let got = repaired.stats.search;
        assert_eq!((got.settled, got.relaxed), (expect.settled, expect.relaxed));
    }

    #[test]
    fn safely_beyond_requires_clear_separation() {
        assert!(safely_beyond(11.0, 10.0));
        assert!(!safely_beyond(10.0, 10.0));
        assert!(!safely_beyond(10.0 + 1e-12, 10.0), "ties fall through to the next tier");
        assert!(!safely_beyond(9.0, 10.0));
    }

    #[test]
    fn without_landmarks_repair_still_matches_the_oracle() {
        let h = Harness::new();
        let q = h.ex.query();
        let qctx0 = h.ex.context();
        let cached = Bssr::new(&qctx0).run(&q).unwrap().routes;
        let (from, to, w) = h.ex.graph.arc(9);
        let e = h.epochs.publish(&[WeightDelta::new(from, to, w.get() * 1.7)]);
        let index = DeltaIndex::build(h.epochs.delta_between(EpochId::BASE, e).unwrap(), None);
        let pinned = h.epochs.pin();
        let qctx = crate::context::QueryContext::new(&pinned, &h.ex.forest, &h.ex.pois);
        let repaired = Bssr::new(&qctx).repair(&q, &cached, &index, None).unwrap();
        let oracle = Bssr::new(&qctx).run(&q).unwrap().routes;
        assert!(equivalent_skylines(&repaired.routes, &oracle));
    }
}
