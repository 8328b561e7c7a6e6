//! Incremental skyline repair across weight epochs.
//!
//! When a weight-delta batch publishes a new epoch, a cached skyline is no
//! longer trustworthy — but when the batch touched a handful of arcs
//! nowhere near the query, recomputing the whole BSSR search throws away
//! everything the cache knew. Repair classifies the cached result against
//! the exact [`DeltaSet`] between its epoch and the current one, and does
//! the *cheapest sound thing*:
//!
//! 1. **Untouched** — a lower-bound check: if the delta is empty, or every
//!    touched arc's tail is provably farther from the query start than the
//!    longest cached route, the cached skyline *is* the new epoch's
//!    skyline, verbatim. The proof is [the one bound](#the-one-bound) at
//!    the delta's older epoch, taken once per touched tail. No graph search
//!    runs at all. Tier 2 reads its per-route floor and its suspicious
//!    arcs from the same per-tail bounds. The check needs no engine and no
//!    workspace: [`untouched`] runs it alone, and every repair runs it
//!    first through the same function, so the service can run it where a
//!    request arrives and queue for a worker only what it cannot prove.
//! 2. **Rescore** — otherwise each cached route's length is recomputed as
//!    its sum of point-to-point shortest-path legs at the new epoch
//!    (early-terminating Dijkstras — far cheaper than a branch-and-bound
//!    search). A route whose stored path crosses no touched arc skips its
//!    legs (see [the memo](#the-memo)). If every length came back
//!    unchanged *and* no weight *decrease* is reachable within the skyline
//!    radius ([the relevance check](#the-relevance-check)), the cached
//!    skyline is again exact and is promoted as-is.
//! 3. **Re-search** — only when a length actually changed or a decreased
//!    arc is within reach does a search run, warm-seeded with the
//!    survivors (valid routes, at lengths some walk achieves at the new
//!    epoch, so they only tighten the pruning thresholds — the NNinit
//!    argument). When no survivor got longer, on an undirected graph, it
//!    searches only routes that cross a decreased arc near the start
//!    ([tier 3](#tier-3)).
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
//!
//! # The one bound
//!
//! Every landmark check repair makes reads one lower bound on `d_E(s, x)`,
//! the distance at epoch `E` from the start `s` to a vertex `x`. From the
//! landmark (ALT) bound `LB(s, x)` over the manager's origin weights, it is
//!
//! ```text
//! B_E(x) = max(r_E · LB(s, x), LB(s, x) − D_E)
//! ```
//!
//! where `r_E` is the epoch's
//! [`min_ratio`](skysr_graph::epoch::WeightOverlay::min_ratio) floor and
//! `D_E` the start's [decrease budget](#the-decrease-budget); the second
//! term is left out when the budget is unknown or not valid at the skyline
//! radius. `r_E · LB` is admissible everywhere: every arc weighs at least
//! `r_E` times its origin weight at `E`. `LB − D_E` is admissible for every
//! `x` within `T′ = T(1 + MARGIN) + MARGIN` of `s`, the radius the checks
//! compare against (`safely_beyond(a, T)` is `a > T′`). That suffices:
//! each check concludes from `B_E(x) + c > T″`, with `c ≥ 0` and `T″ ≤ T′`,
//! that `d_E(s, x) + c > T″`, which holds where `B_E(x)` is admissible and
//! also where `d_E(s, x)` alone is beyond `T′`.
//!
//! The older epoch's bound decides tier 1 and the per-route floor; the
//! newer epoch's decides which decreased arcs are suspicious and prunes the
//! search from their tails. Directed graphs have no landmarks, so no bound.
//!
//! # The decrease budget
//!
//! The ratio floor is a running minimum: one weight published at half its
//! origin halves every bound for the rest of the history, wherever the
//! drop was. A *decrease budget* counts only the drops near one start `s`:
//! a radius `R` and the sum `D_E` of the drops below origin weight,
//! `max(0, w₀ − w_E)`, over the undirected edges with an endpoint `x` whose
//! `LB(s, x)` is at most `R`. Each [`RepairMemo`] carries its start's
//! budget at its epoch.
//!
//! * **Validity.** When `R ≥ T′ + D_E`, `d_E(s, x) ≥ LB(s, x) − D_E` for
//!   every `x` with `d_E(s, x) ≤ T′`. Take a simple shortest path `P` from
//!   `s` to `x` at `E`. Were some vertex of `P` to have `LB(s, ·) > R`, let
//!   `y` be the first: every edge before it has an endpoint within `R` and
//!   is counted, so the prefix to `y` costs at least `d₀(s, y) − D_E ≥
//!   LB(s, y) − D_E > R − D_E ≥ T′`, more than all of `P`. So every edge
//!   of `P` is counted, and `len_E(P) ≥ len₀(P) − D_E ≥ LB(s, x) − D_E`.
//! * **Update.** A budget at the delta's older epoch `N` moves to `M`
//!   through the touched edges only, each counted once through its arc
//!   with `tail < head`: `D += max(0, w₀ − w_M) − max(0, w₀ − w_N)` when
//!   the edge has an endpoint within `R`, with `w₀` the arc's origin
//!   weight ([`RoadNetwork::base_arc_weight`]). An untouched edge keeps its
//!   drop. The endpoints' bounds are the per-touch bounds tier 1 takes
//!   anyway: an edge's two arcs are both touches, so its head is the
//!   reverse arc's tail, and the update probes no landmark. `R` stays;
//!   a later skyline radius changes only whether the budget is valid.
//! * **Sources.** A repair takes the budget at `N` (a) from the memo it
//!   reads, if that carries one; else (b) as `D = 0` at `R = 1.25 · T′`
//!   (`BUDGET_RADIUS`) when `N`'s floor is 1: no weight was ever
//!   published below its origin, so no edge has a drop. Every entry first
//!   searched before any drop starts this way. (c) Otherwise it has none
//!   and reads the floor alone, as does every later repair of the entry:
//!   seeding a budget at such an epoch takes a pass over every decreased
//!   edge of the history, two landmark probes each.
//! * **Where it rides.** The budget at `M` rides in every memo the repair
//!   returns, promoted or re-searched alike: it is a fact about `s`, not
//!   about the routes.
//!
//! # The relevance check
//!
//! A decreased arc is *suspicious* when the newer epoch's bound does not
//! place its tail clearly beyond `T` from the start `s` at `M`; the check
//! asks whether a suspicious tail lies within `T` of `s`.
//!
//! * **Undirected graphs** — one multi-source Dijkstra from the suspicious
//!   tails, in the repair's workspace, decides it: a decrease is relevant
//!   exactly when the search settles `s` at a distance not clearly beyond
//!   `T`. The search settles but does not expand a vertex whose distance
//!   plus the bound from `s` clearly reaches `T`, and it stops at the first
//!   vertex clearly beyond `T`. Neither cut-off hides an `s` within `T`:
//!   every vertex `x` on a shortest path from the nearest tail `t` to `s`
//!   has `d(t, x) + d(x, s) = d(t, s)`, and, as `x` lies within `T` of `s`,
//!   the bound from `s` to `x` is at most `d(x, s)`, so `x` is expanded,
//!   and settled before the stop. The search also settles the
//!   vertex it stops at, so a settled `s` may lie beyond `T`: the check
//!   reads the distance, not the settled flag alone. With no suspicious
//!   arc the search has no source and settles nothing. Tier 3's restricted
//!   re-search reads `h` from the same search.
//! * **Directed graphs** — a search from the tails measures distances
//!   from them, not to them, so one forward Dijkstra from `s` runs out to
//!   `T` and stops at the first suspicious tail it settles.
//!
//! # Tier 3
//!
//! A fallback has two forms. Both return [`RepairOutcome::Researched`];
//! [`QueryStats::restricted_researches`] tells them apart. Each seeds the
//! survivors: the rescored ones at their legs' lengths, the deferred ones
//! ([the memo](#the-memo)) at their cached lengths, without a leg search.
//!
//! * **Full** — [`Bssr::run_prepared_warm`] from the survivors, with the
//!   engine's configuration. It runs when a survivor got longer (beyond
//!   the dominance tolerance) or lost a leg, and on a directed graph: the
//!   argument below covers neither.
//! * **Restricted** — every other fallback. Every label and partial route
//!   carries a *crossed* bit, which a hop along a suspicious arc sets and
//!   every extension keeps. An uncrossed label or route of length `L` at
//!   `v` is dropped once `L + h(v)` clearly reaches its threshold, where
//!   `h(v)` is the distance from `v` to the nearest suspicious tail: the
//!   distance at which tier 2's search from the tails settled `v`, or `T`
//!   for a vertex it did not settle. The search leaves out NNinit,
//!   Optimisation 3's bounds and Optimisation 4's memo (each only seeds or
//!   prunes, and the memo cannot tell crossed labels from uncrossed ones),
//!   and keeps the queue policy and grouping.
//!
//! **Why a deferred seed is sound.** Its stored path crosses no arc of `D`,
//! so it realises the cached length at `M`, but the shortest realisation
//! `S*` of the seed's PoIs may be shorter. A seed need only be a valid
//! route whose stated length some walk achieves (see
//! [`warm`](super::warm)): every route it prunes, `S*` dominates-or-equals
//! too. And a shorter `S*` costs less at `M` than at `N`, so its path
//! crosses a decreased arc within `T` of the start, a suspicious one. So
//! either form of the search keeps `S*`'s labels, and `S*`, or a route that
//! dominates-or-equals it, ends in the skyline set and evicts the seed.
//!
//! **Why the restricted search is exact.** Let `S_N` be the cached skyline
//! at epoch `N`, repaired to epoch `M`, with no survivor longer at `M`.
//!
//! * *Uncrossed routes are already answered.* Take a route `X` whose
//!   realised `M`-path crosses no decreased arc. At `N` some `S ∈ S_N`
//!   dominated-or-equalled `X`, and `len_M(X) ≥ len_N(X) ≥ len_N(S)`,
//!   which is at least the length `S` seeds at: its cached length, or its
//!   rescored one, which is no longer. So a seed dominates-or-equals `X` at
//!   `M`. A route that crosses a decreased arc whose tail is not suspicious
//!   is longer than `T`; the seed with the least semantic score, which no
//!   valid route beats (semantic scores do not depend on weights, and
//!   `S_N` was exact), dominates it. Only routes that cross a suspicious
//!   arc can enter the skyline.
//! * *One record per vertex still suffices; no second "crossed" layer is
//!   needed.* Every prune BSSR makes replaces a route by one that
//!   dominates-or-equals it: the threshold, Lemma 5.5's skip and cut,
//!   grouping, and first-settle-wins at a vertex. If the replacement is
//!   crossed, the search finds it. If it is uncrossed, a seed
//!   dominates-or-equals it, and so also the route it replaced.
//! * *The `h` bound is sound.* A crossed completion of an uncrossed label
//!   at `v` passes a suspicious tail after `v`, so its length is at least
//!   `L + d(v, t)` for the nearest tail `t`. If the search from the tails
//!   settled `v` along the shortest path from `t`, that is `L + h(v)`.
//!   Otherwise that path runs through a vertex `x` the search did not
//!   expand, so `d(s, v) + d(v, t) ≥ d(s, x) + d(x, t)` clearly exceeds `T`;
//!   or it lies beyond where the search stopped, so `d(v, t)` does. As
//!   `L ≥ d(s, v)`, every crossed completion then clearly exceeds `T`, and
//!   no finite threshold does: the seeds hold the whole old skyline, no
//!   longer than `T`, and every route the search adds is shorter than a
//!   seed's threshold.
//! * *Undirected graphs only.* The search from the tails runs forwards,
//!   which gives `d(t, v)`; that is `d(v, t)` only on an undirected graph.
//!
//! As elsewhere, [`safely_beyond`]'s margin makes float noise a cost in
//! time, never in exactness. A returned route that equals a survivor, in
//! its PoIs and its length, keeps the survivor's path in the memo, in both
//! forms; a deferred survivor that a shorter realisation evicted keeps
//! none.
//!
//! # The memo
//!
//! A repair returns, with its skyline, a [`RepairMemo`] stamped with the
//! target epoch: the vertex path each route's length is realised on, and
//! the start's [decrease budget](#the-decrease-budget). The
//! service stores it beside the cache entry, and the next repair of that
//! entry (from `N`, the memo's epoch, to `M`) reads it:
//!
//! * A route above the per-route floor whose stored path has no vertex,
//!   its last excepted, that is a touched tail ([`DeltaSet::is_touched_tail`])
//!   is *deferred*: no leg search runs for it, and it counts as untouched.
//!   Every other route is searched, and its new path is read back from the
//!   leg searches' parent pointers. (A path through a touched tail that
//!   does not use the touched arc is simply searched.)
//! * **Promote** when no searched length changed and no decrease is
//!   relevant: deferred routes keep their cached length and path.
//!   Promotions through tier 1 and routes under the floor carry their
//!   paths too.
//! * **Fall back** when a searched length changed or a decrease is
//!   relevant: the deferred routes seed the re-search at their cached
//!   lengths ([tier 3](#tier-3)), so the skyline is score-equivalent to that
//!   of a repair without a memo, and the outcome is the same.
//!
//! An entry without a memo (every cold search's) searches all its routes,
//! as [`Bssr::repair`] does.
//!
//! **Path witness.** If the stored `N`-path of route `R` crosses no arc of
//! `D`, it costs the same at `M`, so `len_M(R) ≤ len_N(R)`. When no
//! decreased tail is within `T` of the start at `M`, no `M`-shortest leg
//! uses a decreased arc, which gives `len_M(R) ≥ len_N(R)` — tier 2's
//! argument above. So the length is unchanged, and the path is still a
//! shortest realisation at `M`. Every vertex of a route's path lies within
//! the route's length of the start at `N`. Under the per-route floor, and
//! for every route of a tier-1 promotion, no touched tail is that close,
//! so the path crosses no arc of `D` and carries by the same argument.

use std::sync::Arc;
use std::time::Instant;

use skysr_graph::dijkstra::{dijkstra_with, point_to_point, Settle};
use skysr_graph::path::path_cost;
use skysr_graph::{
    Cost, DeltaSet, DijkstraWorkspace, EpochId, Landmarks, RoadNetwork, SearchStats, VertexId,
};

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
    /// Every route length was re-derived at the new epoch, by its legs or
    /// by its stored path, and came back unchanged, and no reachable
    /// weight decrease exists: promoted after verification.
    Rescored,
    /// A warm-seeded search had to run (the repair "fallback"), restricted
    /// or full (see [tier 3](self#tier-3)).
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
    /// Cached routes kept without a leg search: cleared by the landmark
    /// floors, or deferred on a stored path that crosses no touched arc
    /// (in a fallback too, where such a route seeds the re-search).
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
    /// Search instrumentation (legs, relevance check, re-search).
    pub stats: QueryStats,
    /// Classification breakdown.
    pub repair: RepairStats,
    /// What this repair proved about `routes`, for the next repair of the
    /// same entry.
    pub memo: RepairMemo,
}

/// A route's vertex path, `start → p₁ → … → p_k`, as one slice.
type Path = Arc<[VertexId]>;

/// What one repair proved about the skyline it returned, stamped with the
/// epoch the proof holds at (see [the memo](self#the-memo)): the vertex
/// path each route's length is realised on, and the start's [decrease
/// budget](self#the-decrease-budget).
///
/// A memo belongs to one skyline: its paths follow the skyline's route
/// order. Repair ignores a memo stamped with another epoch than the
/// delta's older one, or holding another number of paths than the skyline
/// has routes.
#[derive(Clone, Debug)]
pub struct RepairMemo {
    epoch: EpochId,
    /// Per route, in the skyline's order: the path its length is realised
    /// on, when known.
    paths: Box<[Option<Path>]>,
    /// The start's decrease budget at `epoch`, when known (none for an
    /// empty skyline, which never needs one).
    budget: Option<Budget>,
}

impl RepairMemo {
    /// The epoch the paths hold at.
    pub fn epoch(&self) -> EpochId {
        self.epoch
    }
}

/// Conservative margin for repair's reachability comparisons: `a` must
/// clear `b` by more than any plausible accumulated floating-point noise
/// before repair treats an arc as unreachable. Ties fall through to the
/// next tier, so the margin trades only time, never exactness.
const MARGIN: f64 = 1e-7;

/// `b` padded by the float-noise margin: `T′` for a skyline radius `T`.
#[inline]
fn padded(b: f64) -> f64 {
    b * (1.0 + MARGIN) + MARGIN
}

/// Whether `a` exceeds `b` by clearly more than the float-noise margin.
#[inline]
pub fn safely_beyond(a: f64, b: f64) -> bool {
    a > padded(b)
}

/// A new decrease budget's radius `R`, as a multiple of `T′` (see [the
/// decrease budget](self#the-decrease-budget)). A wider radius stays valid
/// across more drops but counts more of them into `D`. In one
/// instrumented perfbench `churn` run per radius (seed 81, 57,737
/// repairs), the searches from the decreased tails settled:
///
/// | `R` | 1.1 `T′` | 1.25 `T′` | 1.5 `T′` | 2 `T′` | no budget |
/// |---|--:|--:|--:|--:|--:|
/// | settled | 3.41 M | 2.53 M | 2.81 M | 3.62 M | 7.28 M |
const BUDGET_RADIUS: f64 = 1.25;

/// A start's decrease budget at one epoch (see [the decrease
/// budget](self#the-decrease-budget)).
#[derive(Clone, Copy, Debug, PartialEq)]
struct Budget {
    /// `R`: an undirected edge counts when an endpoint's landmark bound
    /// from the start is at most `R`.
    radius: f64,
    /// `D`: the counted edges' drops below their origin weights.
    drops: f64,
}

impl Budget {
    /// The budget at an epoch where no weight is below its origin, for a
    /// skyline of radius `max_len`.
    fn fresh(max_len: Cost) -> Budget {
        Budget { radius: BUDGET_RADIUS * padded(max_len.get()), drops: 0.0 }
    }

    /// `D`, when the budget is valid at the skyline radius `max_len`:
    /// `R ≥ T′ + D`.
    fn valid_at(self, max_len: Cost) -> Option<f64> {
        (self.radius >= padded(max_len.get()) + self.drops).then_some(self.drops)
    }
}

/// Repair's one lower bound on the distance from the start at one epoch,
/// from the landmark bound over the origin weights (see [the one
/// bound](self#the-one-bound)): tier 1, the per-route floor, the
/// suspicious-arc filter and the search from the tails all read it.
#[derive(Clone, Copy)]
struct Bound {
    /// The epoch's weight-ratio floor.
    ratio: f64,
    /// The start's budget `D` at the epoch, when valid at the radius.
    drops: Option<f64>,
}

impl Bound {
    fn new(ratio: f64, budget: Option<Budget>, max_len: Cost) -> Bound {
        Bound { ratio: ratio.clamp(0.0, 1.0), drops: budget.and_then(|b| b.valid_at(max_len)) }
    }

    /// The bound for a vertex whose landmark bound from the start is `lb`.
    #[inline]
    fn of(self, lb: f64) -> f64 {
        let scaled = self.ratio * lb;
        self.drops.map_or(scaled, |d| scaled.max(lb - d))
    }
}

/// The landmark lower bound from one start to every touched tail of a
/// delta, at the origin weight scale, computed once per repair: repair's
/// one landmark probe on the delta. Each check reads it through its
/// epoch's [`Bound`], and the budget's update reads each touched edge's
/// endpoints from it.
struct TouchBounds<'a> {
    delta: &'a DeltaSet,
    /// `lower_bound(start, tail)` per touch, in touch order; `None`
    /// without an oracle.
    origin: Option<Vec<f64>>,
}

impl<'a> TouchBounds<'a> {
    fn new(delta: &'a DeltaSet, landmarks: Option<&Landmarks>, start: VertexId) -> Self {
        let origin = landmarks.map(|lm| {
            delta.touches().iter().map(|t| lm.lower_bound(start, t.tail).get()).collect()
        });
        TouchBounds { delta, origin }
    }

    /// The smallest bound to any touched tail at the delta's older epoch,
    /// whose bound is `older`: tier 1 holds when it is safely beyond the
    /// skyline radius, and tier 2 skips the legs of a route it is safely
    /// beyond (the route provably keeps its length across the delta). 0
    /// without an oracle; NaN, which clears nothing, for an empty delta at
    /// a zero ratio floor without a budget (0 × ∞).
    fn floor(&self, older: Bound) -> f64 {
        let Some(origin) = &self.origin else {
            return 0.0;
        };
        older.of(origin.iter().copied().fold(f64::INFINITY, f64::min))
    }

    /// The *suspicious* arcs: the decreased arcs whose tails are not
    /// provably beyond `max_len` from the start at the delta's newer
    /// epoch, whose bound is `newer`, as `(tail, head)` pairs, sorted.
    fn decreased_within(&self, max_len: Cost, newer: Bound) -> Vec<(u32, u32)> {
        let mut arcs: Vec<(u32, u32)> = (self.delta.touches().iter().enumerate())
            .filter(|&(i, t)| {
                let cleared = (self.origin.as_ref())
                    .is_some_and(|lb| safely_beyond(newer.of(lb[i]), max_len.get()));
                t.decreased() && !cleared
            })
            .map(|(_, t)| (t.tail.0, t.head.0))
            .collect();
        arcs.sort_unstable();
        arcs
    }

    /// `budget`, held at the delta's older epoch, moved to its newer one
    /// (see [the decrease budget](self#the-decrease-budget)); `None`
    /// without an oracle.
    fn carry(&self, budget: Budget, graph: &RoadNetwork) -> Option<Budget> {
        let origin = self.origin.as_ref()?;
        let touches = self.delta.touches();
        let near = |lb: f64| lb <= budget.radius;
        // Touches are sorted by slot, hence by tail; a head's bound is its
        // reverse arc's, which an undirected edge always touches too.
        let head_near = |head: VertexId| {
            touches.binary_search_by_key(&head, |t| t.tail).is_ok_and(|j| near(origin[j]))
        };
        let mut drops = budget.drops;
        for (t, &lb) in touches.iter().zip(origin) {
            if t.tail < t.head && (near(lb) || head_near(t.head)) {
                let w0 = graph.base_arc_weight(t.slot as usize).get();
                drops += (w0 - t.to_weight).max(0.0) - (w0 - t.from_weight).max(0.0);
            }
        }
        Some(Budget { drops, ..budget })
    }
}

/// Whether `v` is the tail of one of the sorted `arcs`.
fn is_tail(arcs: &[(u32, u32)], v: u32) -> bool {
    arcs.binary_search_by_key(&v, |&(tail, _)| tail).is_ok()
}

/// Recomputes a route's length score at the engine's epoch as the sum of
/// its point-to-point shortest-path legs (`start → p₁ → … → p_k`), each an
/// early-terminating Dijkstra counted into `stats`, and reads the path it
/// measured back from each leg's parent pointers. `None` if a leg is
/// unreachable (impossible for a route cached on the same topology;
/// treated as "changed" upstream).
fn rescore_route(
    ctx: &QueryContext<'_>,
    start: VertexId,
    route: &SkylineRoute,
    ws: &mut DijkstraWorkspace,
    stats: &mut QueryStats,
) -> Option<(Cost, Path)> {
    let mut total = Cost::ZERO;
    let mut path = vec![start];
    let mut at = start;
    for &p in &route.pois {
        let (d, leg) = point_to_point(ctx.graph, ws, at, p);
        stats.search.merge(&leg);
        total += d?;
        path.extend_from_slice(&ws.path_to(p).expect("the leg settled its target")[1..]);
        at = p;
    }
    Some((total, path.into()))
}

/// Whether `path` crosses no touched arc: none of its vertices but the
/// last is a touched tail.
fn avoids_touched_arcs(delta: &DeltaSet, path: &[VertexId]) -> bool {
    let inner = &path[..path.len().saturating_sub(1)];
    !inner.iter().any(|&v| delta.is_touched_tail(v))
}

/// Whether a forward search from `start` settles a tail of the sorted
/// `arcs` within `radius`: the relevance check on a directed graph (see
/// [the relevance check](self#the-relevance-check)).
fn forward_relevant(
    ctx: &QueryContext<'_>,
    ws: &mut DijkstraWorkspace,
    start: VertexId,
    arcs: &[(u32, u32)],
    radius: Cost,
    stats: &mut QueryStats,
) -> bool {
    if arcs.is_empty() {
        return false;
    }
    let mut relevant = false;
    stats.search.merge(&dijkstra_with(ctx.graph, ws, &[(start, Cost::ZERO)], |v, d| {
        if safely_beyond(d.get(), radius.get()) {
            return Settle::Stop;
        }
        if is_tail(arcs, v.0) {
            relevant = true;
            return Settle::Stop;
        }
        Settle::Continue
    }));
    relevant
}

/// One cached route on its way through tier 2.
struct Survivor {
    /// The route, at a length its path achieves at the target epoch: the
    /// cached one when its legs were not searched.
    route: SkylineRoute,
    /// A path `route.length` is realised on at the target epoch, if known.
    path: Option<Path>,
}

/// A skyline the in-place tiers promoted to the delta's newer epoch.
struct Promoted {
    routes: Vec<SkylineRoute>,
    repair: RepairStats,
    memo: RepairMemo,
}

impl Promoted {
    fn into_result(self, stats: QueryStats) -> RepairResult {
        let Promoted { routes, repair, memo } = self;
        RepairResult { routes, stats, repair, memo }
    }
}

/// Outcome of the in-place tiers (1–2): either a promoted skyline, or the
/// survivors a fallback search should be seeded with.
enum InPlace {
    Promoted(Promoted),
    Fallback(Fallback),
}

/// What tier 1 read on its way to a proof it could not complete; tier 2
/// reads the same per-tail bounds and budget.
struct Unproven<'a> {
    bounds: TouchBounds<'a>,
    /// The skyline radius `T`.
    max_len: Cost,
    /// [`TouchBounds::floor`] at the older epoch.
    floor: f64,
    /// The start's decrease budget at the newer epoch.
    budget: Option<Budget>,
    /// The newer epoch's bound.
    newer: Bound,
}

/// What tier 2 hands the re-search.
struct Fallback {
    survivors: Vec<Survivor>,
    routes_untouched: usize,
    routes_rescored: usize,
    /// The target epoch, which stamps the result's memo.
    epoch: EpochId,
    /// The start's decrease budget at the target epoch, for the memo.
    budget: Option<Budget>,
    /// For a restricted re-search, the suspicious arcs, sorted, and the
    /// skyline radius; the search from their tails is in the workspace.
    /// `None` when the full one must run.
    watched: Option<(Vec<(u32, u32)>, Cost)>,
}

/// The suspicious arcs and what the search from their tails is bounded by.
struct Watch<'l> {
    /// The suspicious arcs, `(tail, head)`, sorted.
    arcs: Vec<(u32, u32)>,
    /// The oracle tier 1 uses.
    landmarks: Option<&'l Landmarks>,
    /// The newer epoch's bound, which picked the arcs.
    bound: Bound,
    /// The skyline radius `T`.
    radius: Cost,
}

/// The search from the suspicious tails, in `ws`: tier 2's relevance check
/// on an undirected graph, and `h` for the restricted re-search. It
/// settles a vertex at its distance to the nearest tail, except where no
/// route under the radius passes: a vertex whose distance plus the newer
/// epoch's bound from `start` clearly reaches the radius is not expanded,
/// and the search stops at the first vertex clearly beyond the radius,
/// which it settles. Why that answers the check is argued in [the
/// relevance check](self#the-relevance-check), and why `h` may read the
/// radius where the search stopped short in [tier 3](self#tier-3). No
/// suspicious arc means no source: the search settles nothing.
fn tails_search(
    ctx: &QueryContext<'_>,
    ws: &mut DijkstraWorkspace,
    start: VertexId,
    watch: &Watch<'_>,
) -> SearchStats {
    let radius = watch.radius.get();
    let tails: Vec<(VertexId, Cost)> =
        watch.arcs.iter().map(|&(t, _)| (VertexId(t), Cost::ZERO)).collect();
    dijkstra_with(ctx.graph, ws, &tails, |v, d| {
        let lb = |lm: &Landmarks| watch.bound.of(lm.lower_bound(start, v).get());
        if safely_beyond(d.get(), radius) {
            Settle::Stop
        } else if watch.landmarks.is_some_and(|lm| safely_beyond(d.get() + lb(lm), radius)) {
            Settle::SkipNeighbors
        } else {
            Settle::Continue
        }
    })
}

/// `survivors`, sorted by length as a skyline is, and the memo of the
/// paths they carry and the start's `budget` at `epoch`.
fn promote(
    mut survivors: Vec<Survivor>,
    epoch: EpochId,
    budget: Option<Budget>,
) -> (Vec<SkylineRoute>, RepairMemo) {
    survivors.sort_by_key(|s| s.route.length);
    let (routes, paths): (Vec<_>, Vec<_>) =
        survivors.into_iter().map(|s| (s.route, s.path)).unzip();
    (routes, RepairMemo { epoch, paths: paths.into(), budget })
}

/// Checks, in debug builds, that each path in `result`'s memo realises its
/// route on `graph`: it starts at `start`, passes the route's PoIs in order
/// and ends at the last, and costs the route's length ([`path_cost`]; a
/// missing hop costs infinity).
fn check_memo(graph: &RoadNetwork, start: VertexId, result: &RepairResult) {
    if !cfg!(debug_assertions) {
        return;
    }
    for (route, path) in result.routes.iter().zip(&result.memo.paths) {
        let Some(path) = path else { continue };
        let mut pois = route.pois.iter().peekable();
        for v in path.iter() {
            pois.next_if_eq(&v);
        }
        let ends = path.first() == Some(&start) && path.last() == route.pois.last();
        assert!(ends && pois.next().is_none(), "memo path {path:?} misses {route:?}");
        let cost = path_cost(graph, path).map_or(f64::INFINITY, Cost::get);
        let length = route.length.get();
        assert!(
            approx_le(cost, length) && approx_le(length, cost),
            "memo path {path:?} costs {cost}, its route {route:?} {length}"
        );
    }
}

/// `memo` when it belongs to `cached` at the delta's older epoch (see
/// [`RepairMemo`]).
fn usable<'m>(
    memo: Option<&'m RepairMemo>,
    cached: &[SkylineRoute],
    delta: &DeltaSet,
) -> Option<&'m RepairMemo> {
    memo.filter(|m| m.epoch == delta.from_epoch() && m.paths.len() == cached.len())
}

/// Tier 1: the skyline promoted verbatim when the delta is empty or every
/// touched tail is provably beyond the skyline radius, with the stored
/// paths of `memo` (already [`usable`]) and the start's budget carried to
/// the newer epoch; otherwise what it read, for tier 2. An empty skyline
/// is promoted too: no valid sequenced route exists for topological or
/// semantic reasons, and reweighting cannot create one.
fn tier_one<'a>(
    graph: &RoadNetwork,
    start: VertexId,
    cached: &[SkylineRoute],
    memo: Option<&RepairMemo>,
    delta: &'a DeltaSet,
    landmarks: Option<&Landmarks>,
) -> Result<Promoted, Unproven<'a>> {
    let to = delta.to_epoch();
    let repair = RepairStats {
        outcome: RepairOutcome::Untouched,
        routes_untouched: cached.len(),
        routes_rescored: 0,
    };
    let Some(max_len) = cached.iter().map(|r| r.length).max() else {
        let memo = RepairMemo { epoch: to, paths: Box::default(), budget: None };
        return Ok(Promoted { routes: Vec::new(), repair, memo });
    };

    // The start's decrease budget at the older epoch, from the memo or
    // fresh where no weight is below its origin, and carried to the newer
    // one; each epoch's bound reads its own.
    let bounds = TouchBounds::new(delta, landmarks, start);
    let held = (memo.and_then(|m| m.budget))
        .or_else(|| (delta.from_min_ratio() == 1.0).then(|| Budget::fresh(max_len)));
    let budget = held.and_then(|b| bounds.carry(b, graph));
    let older = Bound::new(delta.from_min_ratio(), held, max_len);
    let newer = Bound::new(delta.to_min_ratio(), budget, max_len);

    // Emptiness is tested on its own: at a zero ratio floor without a
    // budget the floor over no touches is NaN, and clears nothing.
    let floor = bounds.floor(older);
    if !delta.is_empty() && !safely_beyond(floor, max_len.get()) {
        return Err(Unproven { bounds, max_len, floor, budget, newer });
    }
    let survivors = (cached.iter().enumerate())
        .map(|(i, r)| Survivor { route: r.clone(), path: memo.and_then(|m| m.paths[i].clone()) })
        .collect();
    let (routes, memo) = promote(survivors, to, budget);
    Ok(Promoted { routes, repair, memo })
}

/// Tier 1 alone, with no engine and no workspace: `cached`, a skyline
/// computed for a query from `start` at `delta.from_epoch()`, promoted to
/// `delta.to_epoch()` when the delta is empty or every touched tail is
/// provably beyond its radius; `None` otherwise. When it promotes,
/// [`Bssr::repair_prepared`] returns the same for the same arguments:
/// outcome [`RepairOutcome::Untouched`], no search, and the memo for the
/// entry's next repair. Only the origin weights of `graph` are read, so
/// any view of the weight manager the delta was diffed on will do;
/// `landmarks` must be built over those weights.
pub fn untouched(
    graph: &RoadNetwork,
    start: VertexId,
    cached: &[SkylineRoute],
    memo: Option<&RepairMemo>,
    delta: &DeltaSet,
    landmarks: Option<&Landmarks>,
) -> Option<RepairResult> {
    let t0 = Instant::now();
    let memo = usable(memo, cached, delta);
    let promoted = tier_one(graph, start, cached, memo, delta, landmarks).ok()?;
    Some(promoted.into_result(QueryStats { total_time: t0.elapsed(), ..QueryStats::default() }))
}

impl<'g> Bssr<'g> {
    /// Repairs `cached` — a skyline computed for `query` at
    /// `delta.from_epoch()` — into the exact skyline at this engine's
    /// (newer) epoch, `delta.to_epoch()`, choosing the cheapest sound tier
    /// (see the module docs). `landmarks`, if provided, must be built over
    /// the weight manager's origin view; without them no route clears at a
    /// landmark floor, and only an empty delta is untouched.
    ///
    /// The in-place tiers consult only the start vertex, the cached
    /// scores, the delta and the graph: this entry point compiles the
    /// query only when the repair has to fall back to a real search. The
    /// service instead prepares through its memo of compiled category
    /// positions before every repair — k `Arc` clones — and calls
    /// [`Bssr::repair_prepared`] with the entry's [`RepairMemo`]. This
    /// entry point has no memo, so it searches the legs of every route
    /// above the floor.
    ///
    /// The result is score-equivalent to a cold [`Bssr::run`] at the
    /// engine's epoch. Passing a skyline that was *not* computed for this
    /// query/epoch pair voids that guarantee — the cache-keyed caller
    /// (`skysr-service`) enforces it structurally.
    pub fn repair(
        &mut self,
        query: &SkySrQuery,
        cached: &[SkylineRoute],
        delta: &DeltaSet,
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
        let result =
            match self.repair_in_place(query.start, cached, None, delta, landmarks, &mut stats) {
                InPlace::Promoted(p) => {
                    stats.total_time = t0.elapsed();
                    p.into_result(stats)
                }
                InPlace::Fallback(f) => {
                    let pq = PreparedQuery::prepare(&self.ctx, query)?;
                    self.fallback(&pq, f, stats, t0)
                }
            };
        check_memo(self.ctx.graph, query.start, &result);
        Ok(result)
    }

    /// [`Bssr::repair`] over a pre-compiled query (callers that already
    /// paid for preparation), reading `memo` — what the repair that
    /// produced `cached` proved, if any (see [the memo](self#the-memo)).
    pub fn repair_prepared(
        &mut self,
        pq: &PreparedQuery,
        cached: &[SkylineRoute],
        memo: Option<&RepairMemo>,
        delta: &DeltaSet,
        landmarks: Option<&Landmarks>,
    ) -> RepairResult {
        let t0 = Instant::now();
        let mut stats = QueryStats::default();
        let result =
            match self.repair_in_place(pq.start, cached, memo, delta, landmarks, &mut stats) {
                InPlace::Promoted(p) => {
                    stats.total_time = t0.elapsed();
                    p.into_result(stats)
                }
                InPlace::Fallback(f) => self.fallback(pq, f, stats, t0),
            };
        check_memo(self.ctx.graph, pq.start, &result);
        result
    }

    /// Tiers 1–2: everything that can be decided without compiling the
    /// query. Tier 1 is [`untouched`]'s check.
    fn repair_in_place(
        &mut self,
        start: VertexId,
        cached: &[SkylineRoute],
        memo: Option<&RepairMemo>,
        delta: &DeltaSet,
        landmarks: Option<&Landmarks>,
        stats: &mut QueryStats,
    ) -> InPlace {
        let ctx = self.ctx;
        let to = delta.to_epoch();
        let memo = usable(memo, cached, delta);
        let Unproven { bounds, max_len, floor, budget, newer } =
            match tier_one(ctx.graph, start, cached, memo, delta, landmarks) {
                Ok(promoted) => return InPlace::Promoted(promoted),
                Err(unproven) => unproven,
            };
        let stored_path = |i: usize| memo.and_then(|m| m.paths[i].clone());

        // Tier 2: rescore each route's legs at the new epoch. Routes
        // strictly below the touched-distance floor provably kept their
        // length and skip the legs; so do routes whose stored path avoids
        // every touched arc, which keep their cached length until a
        // re-search finds a shorter one.
        let mut survivors: Vec<Survivor> = Vec::with_capacity(cached.len());
        let mut routes_untouched = 0usize;
        let mut routes_rescored = 0usize;
        let mut all_unchanged = true;
        // A route got longer or lost a leg: tier 3 cannot be restricted.
        let mut any_longer = false;
        for (i, r) in cached.iter().enumerate() {
            let below_floor = safely_beyond(floor, r.length.get());
            let deferred =
                !below_floor && stored_path(i).is_some_and(|p| avoids_touched_arcs(delta, &p));
            if below_floor || deferred {
                routes_untouched += 1;
                stats.routes_reused += u64::from(deferred);
                survivors.push(Survivor { route: r.clone(), path: stored_path(i) });
                continue;
            }
            routes_rescored += 1;
            match rescore_route(&ctx, start, r, &mut self.ws, stats) {
                Some((len, path)) => {
                    // "Unchanged" must mean unchanged *at the dominance
                    // tolerance* (SCORE_EPS), not at the looser
                    // reachability margin: a genuine sub-MARGIN increase
                    // could otherwise break a dominance tie and surface a
                    // route this tier would silently drop. Anything beyond
                    // score-equivalence falls through to the re-search.
                    let longer = !approx_le(len.get(), r.length.get());
                    any_longer |= longer;
                    all_unchanged &= !longer && approx_le(r.length.get(), len.get());
                    let route = SkylineRoute { length: len, ..r.clone() };
                    survivors.push(Survivor { route, path: Some(path) });
                }
                None => (all_unchanged, any_longer) = (false, true),
            }
        }

        // The relevance check. Where tier 3 can be restricted, the search
        // from the suspicious tails answers it and stays in the workspace
        // as the re-search's `h`; it settles the vertex it stops at, so the
        // start counts only within the radius.
        let watch = Watch {
            arcs: bounds.decreased_within(max_len, newer),
            landmarks,
            bound: newer,
            radius: max_len,
        };
        let restricted = !any_longer && !ctx.graph.is_directed();
        let relevant = if restricted {
            stats.search.merge(&tails_search(&ctx, &mut self.ws, start, &watch));
            let within = |d: Cost| !safely_beyond(d.get(), max_len.get());
            self.ws.settled(start) && self.ws.distance(start).is_some_and(within)
        } else {
            all_unchanged
                && forward_relevant(&ctx, &mut self.ws, start, &watch.arcs, max_len, stats)
        };
        if all_unchanged && !relevant {
            let (routes, memo) = promote(survivors, to, budget);
            let repair =
                RepairStats { outcome: RepairOutcome::Rescored, routes_untouched, routes_rescored };
            return InPlace::Promoted(Promoted { routes, repair, memo });
        }
        InPlace::Fallback(Fallback {
            survivors,
            routes_untouched,
            routes_rescored,
            epoch: to,
            budget,
            watched: restricted.then_some((watch.arcs, max_len)),
        })
    }

    /// Tier 3: warm-seeded re-search from the survivors, restricted when
    /// `f` carries watched arcs. A deferred survivor seeds at its cached
    /// length, which its stored path realises at the new epoch; why a
    /// seed that a shorter realisation would beat keeps the search exact
    /// is argued in [tier 3](self#tier-3).
    fn fallback(
        &mut self,
        pq: &PreparedQuery,
        f: Fallback,
        mut stats: QueryStats,
        t0: Instant,
    ) -> RepairResult {
        let Fallback { survivors, routes_untouched, routes_rescored, epoch, budget, watched } = f;
        let seeds: Vec<SkylineRoute> = survivors.iter().map(|s| s.route.clone()).collect();
        // Repairs promise score-equivalence to a cold run, so an armed
        // anytime deadline (see `Bssr::set_deadline`) must not truncate
        // the re-search — a partial labelled "repaired" would launder the
        // approximate flag away. Disarm for the duration.
        let deadline = self.deadline.take();
        let mut result = match &watched {
            Some((arcs, radius)) => {
                stats.restricted_researches = 1;
                self.search(pq, &seeds, None, Some((arcs, *radius)))
            }
            None => self.run_prepared_warm(pq, &seeds),
        };
        self.deadline = deadline;
        // The legs, the relevance check or the search for `h`, and the
        // routes kept on stored paths are in `stats`, not in the search's.
        result.stats.search.merge(&stats.search);
        result.stats.routes_reused = stats.routes_reused;
        result.stats.restricted_researches = stats.restricted_researches;
        result.stats.total_time = t0.elapsed();
        // A returned route that equals a survivor, in its PoIs and its
        // length, is realised on the survivor's path.
        let paths = (result.routes.iter())
            .map(|r| {
                let same = |s: &&Survivor| s.route.pois == r.pois && s.route.equivalent(r);
                survivors.iter().find(same).and_then(|s| s.path.clone())
            })
            .collect();
        RepairResult {
            routes: result.routes,
            stats: result.stats,
            repair: RepairStats {
                outcome: RepairOutcome::Researched,
                routes_untouched,
                routes_rescored,
            },
            memo: RepairMemo { epoch, paths, budget },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bssr::BssrConfig;
    use crate::paper_example::PaperExample;
    use crate::route::equivalent_skylines;
    use proptest::prelude::*;
    use skysr_graph::{RoadNetwork, WeightDelta, WeightEpoch};

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
            let pinned = self.epochs.pin();
            let qctx = crate::context::QueryContext::new(&pinned, &self.ex.forest, &self.ex.pois);
            let repaired =
                Bssr::new(&qctx).repair(&q, &cached, &delta, Some(&self.landmarks)).unwrap();
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
        let pinned = h.epochs.pin();
        let qctx = crate::context::QueryContext::new(&pinned, &h.ex.forest, &h.ex.pois);
        let r = Bssr::new(&qctx).repair(&h.ex.query(), &[], &delta, Some(&h.landmarks)).unwrap();
        assert!(r.routes.is_empty());
        assert_eq!(r.repair.outcome, RepairOutcome::Untouched);
    }

    /// A line 0 —1— 1 —1— … —1— n − 1 with an Asian restaurant at 1 and a
    /// gift shop at 2: from 0 the query ⟨Asian, Gift⟩ has the one route
    /// 1 → 2, so the skyline radius is 2.
    struct Line {
        graph: RoadNetwork,
        forest: skysr_category::CategoryForest,
        pois: crate::poi::PoiTable,
        query: SkySrQuery,
        /// The skyline at the graph's weights.
        cached: Vec<SkylineRoute>,
    }

    impl Line {
        fn new(n: u32) -> Line {
            let mut fb = skysr_category::ForestBuilder::new();
            let food = fb.add_root("Food");
            let asian = fb.add_child(food, "Asian");
            let shop = fb.add_root("Shop");
            let gift = fb.add_child(shop, "Gift");
            let forest = fb.build();
            let mut gb = skysr_graph::GraphBuilder::new();
            let v: Vec<VertexId> = (0..n).map(|_| gb.add_vertex()).collect();
            for w in v.windows(2) {
                gb.add_edge(w[0], w[1], 1.0);
            }
            let graph = gb.build();
            let mut pois = crate::poi::PoiTable::new(graph.num_vertices());
            pois.add_poi(v[1], asian);
            pois.add_poi(v[2], gift);
            pois.finalize(&forest);
            let query = SkySrQuery::new(v[0], [asian, gift]);
            let cached =
                Bssr::new(&QueryContext::new(&graph, &forest, &pois)).run(&query).unwrap().routes;
            Line { graph, forest, pois, query, cached }
        }

        /// The delta from the line's weights to an epoch that sets each
        /// edge `a — b` of `edges` to weight `w`.
        fn delta(&self, edges: &[(u32, u32, f64)]) -> DeltaSet {
            let epochs = WeightEpoch::new(self.graph.clone());
            let deltas: Vec<WeightDelta> = (edges.iter())
                .map(|&(a, b, w)| WeightDelta::new(VertexId(a), VertexId(b), w))
                .collect();
            let to = epochs.publish(&deltas);
            epochs.delta_between(EpochId::BASE, to).unwrap()
        }
    }

    /// On a 30-vertex line, the edge 24 — 25 raised to 3 and 27 — 28
    /// lowered to 0.5, which halves the newer epoch's ratio floor.
    fn far_touches() -> (Line, Landmarks, DeltaSet) {
        let line = Line::new(30);
        let lm = Landmarks::build(&line.graph, 4, VertexId(0));
        let delta = line.delta(&[(24, 25, 3.0), (27, 28, 0.5)]);
        (line, lm, delta)
    }

    /// The bound at the ratio floor `ratio`, without a budget.
    fn scaled(ratio: f64) -> Bound {
        Bound::new(ratio, None, Cost::ZERO)
    }

    #[test]
    fn the_touched_floor_is_admissible_and_tight_on_a_line() {
        let (line, lm, delta) = far_touches();
        let mut ws = DijkstraWorkspace::new(line.graph.num_vertices());
        let mut to_tail = |t: VertexId| point_to_point(&line.graph, &mut ws, VertexId(0), t).0;
        let nearest = (delta.touches().iter())
            .map(|t| to_tail(t.tail).unwrap().get())
            .fold(f64::INFINITY, f64::min);
        let floor = TouchBounds::new(&delta, Some(&lm), VertexId(0)).floor(scaled(1.0));
        // Admissible: never above the distance to the nearest touched tail…
        assert!(floor <= nearest + 1e-9, "floor {floor} > distance {nearest}");
        // …and, on a line with a landmark at an end, exact.
        assert!(floor > 20.0, "the nearest touched tail is 24 hops from vertex 0: {floor}");
        // A start among the touched tails has floor 0.
        assert_eq!(TouchBounds::new(&delta, Some(&lm), VertexId(25)).floor(scaled(1.0)), 0.0);
    }

    #[test]
    fn a_decreased_arc_is_suspicious_once_the_radius_reaches_its_tail() {
        // At the newer epoch's ratio floor, 0.5, the bounds from vertex 0
        // to the decreased tails 27 and 28 are 13.5 and 14; the raised
        // edge is never suspicious.
        let (_, lm, delta) = far_touches();
        let bounds = TouchBounds::new(&delta, Some(&lm), VertexId(0));
        let newer = scaled(delta.to_min_ratio());
        let within = |radius: f64| bounds.decreased_within(Cost::new(radius), newer);
        assert_eq!(within(13.0), []);
        assert_eq!(within(13.75), [(27, 28)]);
        assert_eq!(within(15.0), [(27, 28), (28, 27)]);
    }

    #[test]
    fn without_landmarks_every_decreased_arc_is_suspicious() {
        let (_, _, delta) = far_touches();
        let bounds = TouchBounds::new(&delta, None, VertexId(0));
        assert_eq!(bounds.floor(scaled(1.0)), 0.0);
        assert_eq!(bounds.decreased_within(Cost::new(1.0), scaled(0.5)), [(27, 28), (28, 27)]);
    }

    #[test]
    fn without_a_decrease_no_arc_is_suspicious() {
        let (line, lm, _) = far_touches();
        let raised = line.delta(&[(24, 25, 3.0)]);
        for landmarks in [Some(&lm), None] {
            let bounds = TouchBounds::new(&raised, landmarks, VertexId(0));
            assert_eq!(bounds.decreased_within(Cost::INFINITY, scaled(1.0)), []);
        }
    }

    #[test]
    fn an_empty_delta_at_a_zero_ratio_floor_is_untouched() {
        // A free edge drops the ratio floor to 0; the next epoch changes
        // nothing. The floor over no touches is then 0 × ∞, NaN, so only
        // the explicit emptiness check clears the delta. The skyline is
        // 1 → 2 at every epoch here.
        let line = Line::new(30);
        let lm = Landmarks::build(&line.graph, 4, VertexId(0));
        let epochs = WeightEpoch::new(line.graph.clone());
        let from = epochs.publish(&[WeightDelta::new(VertexId(27), VertexId(28), 0.0)]);
        let to = epochs.publish(&[]);
        let delta = epochs.delta_between(from, to).unwrap();
        assert!(delta.is_empty() && delta.from_min_ratio() == 0.0);
        let older = scaled(delta.from_min_ratio());
        let floor = TouchBounds::new(&delta, Some(&lm), line.query.start).floor(older);
        assert!(floor.is_nan());
        let pinned = epochs.pin();
        let ctx = QueryContext::new(&pinned, &line.forest, &line.pois);
        let r = Bssr::new(&ctx).repair(&line.query, &line.cached, &delta, Some(&lm)).unwrap();
        assert_eq!((r.repair.outcome, r.stats.search.settled), (RepairOutcome::Untouched, 0));
    }

    #[test]
    fn decrease_budget_clears_what_the_halved_floor_cannot() {
        // On a 30-vertex line with a landmark at the start, 0, the skyline
        // radius is 2, so a fresh budget's radius is 2.5. The edge 27 — 28
        // drops to 0.5 first, beyond that radius: the ratio floor halves
        // and the budget stays 0. Then 3 — 4 drops to 0.9. Its ends' bounds
        // from 0, 3 and 4, lie between the budget's radius and the skyline
        // radius over the floor, 4: the halved floor (1.5 at the tail 3)
        // cannot clear them, the budget (3 − 0) can.
        let line = Line::new(30);
        let lm = Landmarks::build(&line.graph, 4, VertexId(0));
        let epochs = WeightEpoch::new(line.graph.clone());
        let repair = |from: EpochId, to: EpochId, cached: &[SkylineRoute], memo| {
            let delta = epochs.delta_between(from, to).unwrap();
            let pinned = epochs.pin();
            let ctx = QueryContext::new(&pinned, &line.forest, &line.pois);
            let pq = PreparedQuery::prepare(&ctx, &line.query).unwrap();
            let with = Bssr::new(&ctx).repair_prepared(&pq, cached, memo, &delta, Some(&lm));
            let without = Bssr::new(&ctx).repair(&line.query, cached, &delta, Some(&lm)).unwrap();
            let fresh = Bssr::new(&ctx).run(&line.query).unwrap().routes;
            for r in [&with, &without] {
                assert!(equivalent_skylines(&r.routes, &fresh), "{:?} vs {fresh:?}", r.routes);
            }
            (delta.from_min_ratio(), with, without.repair.outcome)
        };
        let far = epochs.publish(&[WeightDelta::new(VertexId(27), VertexId(28), 0.5)]);
        let (ratio, first, _) = repair(EpochId::BASE, far, &line.cached, None);
        assert_eq!((ratio, first.repair.outcome), (1.0, RepairOutcome::Untouched));
        let fresh = Budget { radius: BUDGET_RADIUS * padded(2.0), drops: 0.0 };
        assert_eq!(first.memo.budget, Some(fresh));

        let near = epochs.publish(&[WeightDelta::new(VertexId(3), VertexId(4), 0.9)]);
        let (ratio, with, without) = repair(far, near, &first.routes, Some(&first.memo));
        assert_eq!(ratio, 0.5);
        assert_eq!(
            (with.repair.outcome, without),
            (RepairOutcome::Untouched, RepairOutcome::Rescored)
        );
        assert_eq!(with.stats.search.settled, 0);
        assert_eq!(with.memo.budget, first.memo.budget, "3 — 4 lies beyond the radius");
    }

    /// Every undirected edge's drop below its origin weight at `view`'s
    /// epoch, summed over the edges with an endpoint whose landmark bound
    /// from `start` is at most `radius`: a budget counted from scratch.
    fn recount(view: &RoadNetwork, lm: &Landmarks, start: VertexId, radius: f64) -> f64 {
        let near = |v: VertexId| lm.lower_bound(start, v).get() <= radius;
        (0..view.num_arcs())
            .map(|slot| (slot, view.arc(slot)))
            .filter(|&(_, (u, v, _))| u < v && (near(u) || near(v)))
            .map(|(slot, (.., w))| (view.base_arc_weight(slot).get() - w.get()).max(0.0))
            .sum()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // A chain of mixed increase and decrease waves on a small random
        // city, each repaired with the memo of the repair before. After
        // every repair the memo's budget is its recount, and where it is
        // valid, at the repair's radius or the next one's, `LB − D` bounds
        // the distance from the start to every vertex within `T′`.
        #[test]
        fn decrease_budget_matches_its_recount_and_stays_admissible(
            n in 4usize..10,
            weights in prop::collection::vec(0.5f64..8.0, 9),
            extra in prop::collection::vec((0usize..10, 0usize..10, 0.5f64..8.0), 0..8),
            poi_cats in prop::collection::vec(prop::option::of(0usize..3), 10),
            start in 0usize..10,
            query_cats in prop::collection::vec(0usize..3, 1..3),
            waves in prop::collection::vec(
                prop::collection::vec((0usize..64, 0.2f64..4.0), 1..4),
                2..7,
            ),
        ) {
            let mut fb = skysr_category::ForestBuilder::new();
            let (food, shop) = (fb.add_root("Food"), fb.add_root("Shop"));
            let cats = [
                fb.add_child(food, "Asian"),
                fb.add_child(food, "Italian"),
                fb.add_child(shop, "Gift"),
            ];
            let forest = fb.build();
            let mut gb = skysr_graph::GraphBuilder::new();
            let v: Vec<VertexId> = (0..n).map(|_| gb.add_vertex()).collect();
            for i in 1..n {
                gb.add_edge(v[i - 1], v[i], weights[i - 1]);
            }
            for &(a, b, w) in &extra {
                gb.add_edge(v[a % n], v[b % n], w);
            }
            let graph = gb.build();
            let mut pois = crate::poi::PoiTable::new(n);
            for (i, c) in poi_cats[..n].iter().enumerate() {
                if let Some(c) = c {
                    pois.add_poi(v[i], cats[*c]);
                }
            }
            pois.finalize(&forest);
            let s = v[start % n];
            let query = SkySrQuery::new(s, query_cats.iter().map(|&c| cats[c]));
            let lm = Landmarks::build(&graph, 3, VertexId(0));
            let epochs = WeightEpoch::new(graph.clone());
            let cold = Bssr::new(&QueryContext::new(&graph, &forest, &pois)).run(&query);
            let (mut cached, mut memo, mut at) = (cold.unwrap().routes, None, EpochId::BASE);
            let radius = |routes: &[SkylineRoute]| routes.iter().map(|r| r.length).max();
            for wave in &waves {
                let deltas: Vec<WeightDelta> = (wave.iter())
                    .map(|&(slot, factor)| {
                        let (a, b, w) = graph.arc(slot % graph.num_arcs());
                        WeightDelta::new(a, b, w.get() * factor)
                    })
                    .collect();
                let to = epochs.publish(&deltas);
                let delta = epochs.delta_between(at, to).unwrap();
                let pinned = epochs.pin();
                let ctx = QueryContext::new(&pinned, &forest, &pois);
                let pq = PreparedQuery::prepare(&ctx, &query).unwrap();
                let mut engine = Bssr::new(&ctx);
                let r = engine.repair_prepared(&pq, &cached, memo.as_ref(), &delta, Some(&lm));
                prop_assert!(r.memo.budget.is_some() || cached.is_empty(), "no budget");
                if let Some(budget) = r.memo.budget {
                    let mut ws = DijkstraWorkspace::new(n);
                    dijkstra_with(&pinned, &mut ws, &[(s, Cost::ZERO)], |_, _| Settle::Continue);
                    for t in [radius(&cached), radius(&r.routes)].into_iter().flatten() {
                        let Some(drops) = budget.valid_at(t) else { continue };
                        let within = |x: &VertexId| {
                            ws.distance(*x).filter(|d| d.get() <= padded(t.get()))
                        };
                        for (x, d) in pinned.vertices().filter_map(|x| Some((x, within(&x)?))) {
                            let lb = lm.lower_bound(s, x).get();
                            prop_assert!(
                                lb - drops <= d.get() + 1e-9,
                                "{x:?}: LB {lb} − D {drops} > d {d:?}, within T {t:?}"
                            );
                        }
                    }
                    let count = recount(&pinned, &lm, s, budget.radius);
                    let off = (budget.drops - count).abs();
                    prop_assert!(off <= 1e-9 * count.max(1.0), "D {budget:?}, recount {count}");
                }
                let fresh = Bssr::new(&ctx).run(&query).unwrap().routes;
                prop_assert!(equivalent_skylines(&r.routes, &fresh), "{r:?} vs {fresh:?}");
                (cached, memo, at) = (r.routes, Some(r.memo), to);
            }
        }
    }

    #[test]
    fn a_rescored_repair_counts_its_legs_and_its_relevance_check() {
        // On a 10-vertex line, without landmarks, the search from the ends
        // of a lowered edge decides whether the decrease is relevant.
        let Line { graph, forest, pois, query, cached } = Line::new(10);
        let max_len = cached.iter().map(|r| r.length).max().unwrap();

        // From the edge 7 — 8 the search stops before it reaches the start.
        // From 3 — 4 the start lies 3 away: it is the first vertex beyond
        // the radius that the search settles, where it stops. Neither
        // decrease is relevant.
        for (a, b, start_settled) in [(7, 8, false), (3, 4, true)] {
            let epochs = WeightEpoch::new(graph.clone());
            let to = epochs.publish(&[WeightDelta::new(VertexId(a), VertexId(b), 0.5)]);
            let delta = epochs.delta_between(EpochId::BASE, to).unwrap();
            let pinned = epochs.pin();
            let ctx = QueryContext::new(&pinned, &forest, &pois);
            let repaired = Bssr::new(&ctx).repair(&query, &cached, &delta, None).unwrap();
            assert_eq!(repaired.repair.outcome, RepairOutcome::Rescored, "edge {a} — {b}");

            // The same searches, run independently: every leg of the
            // cached route, then the search from the edge's ends.
            let mut ws = DijkstraWorkspace::new(pinned.num_vertices());
            let mut expect = SearchStats::default();
            for r in &cached {
                let mut at = query.start;
                for &p in &r.pois {
                    expect.merge(&point_to_point(&pinned, &mut ws, at, p).1);
                    at = p;
                }
            }
            let tails = [(VertexId(a), Cost::ZERO), (VertexId(b), Cost::ZERO)];
            expect.merge(&dijkstra_with(&pinned, &mut ws, &tails, |_, d| {
                if safely_beyond(d.get(), max_len.get()) {
                    Settle::Stop
                } else {
                    Settle::Continue
                }
            }));
            assert_eq!(ws.settled(query.start), start_settled, "edge {a} — {b}");
            let got = repaired.stats.search;
            assert_eq!((got.settled, got.relaxed), (expect.settled, expect.relaxed));
        }
    }

    /// The memo tests' city. From 0, the query ⟨Asian, Gift⟩ has the
    /// skyline {1 → 2 (an Italian and a gift shop, length 2), 4 → 5
    /// (length 5)} along the line to the right; the branch to the left
    /// ends in an Asian–Gift pair too far away to matter at first.
    ///
    /// ```text
    ///   9 ─10─ 8 ─1─ 7 ─10─ 6 ─1─ 0 ─1─ 1 ─1─ 2 ─1─ 3 ─1─ 4 ─1─ 5
    ///  Gift  Asian                    Italian Gift       Asian  Gift
    /// ```
    ///
    /// [`Branch::with_side_path`] adds a side path 0 —1— 10 —10— 11 —1— 4,
    /// which no route uses at first.
    struct Branch {
        forest: skysr_category::CategoryForest,
        pois: crate::poi::PoiTable,
        query: SkySrQuery,
        epochs: WeightEpoch,
        landmarks: Option<Landmarks>,
        /// The last repaired skyline, its epoch and its memo (none for
        /// the cold search that starts the chain).
        cached: Vec<SkylineRoute>,
        at: EpochId,
        memo: Option<RepairMemo>,
    }

    impl Branch {
        fn new(with_landmarks: bool) -> Branch {
            Branch::build(skysr_graph::GraphBuilder::new(), with_landmarks, false)
        }

        /// The same city as a directed graph, each edge an arc both ways;
        /// without landmarks, which need an undirected graph.
        fn directed() -> Branch {
            Branch::build(skysr_graph::GraphBuilder::directed(), false, false)
        }

        /// The city with its side path; without landmarks.
        fn with_side_path() -> Branch {
            Branch::build(skysr_graph::GraphBuilder::new(), false, true)
        }

        fn build(mut gb: skysr_graph::GraphBuilder, with_landmarks: bool, side: bool) -> Branch {
            use skysr_category::ForestBuilder;
            let mut fb = ForestBuilder::new();
            let food = fb.add_root("Food");
            let asian = fb.add_child(food, "Asian");
            let italian = fb.add_child(food, "Italian");
            let shop = fb.add_root("Shop");
            let gift = fb.add_child(shop, "Gift");
            let forest = fb.build();
            let v: Vec<VertexId> =
                (0..if side { 12 } else { 10 }).map(|_| gb.add_vertex()).collect();
            let line = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0)];
            let branch = [(0, 6, 1.0), (6, 7, 10.0), (7, 8, 1.0), (8, 9, 10.0)];
            let side_path = [(0, 10, 1.0), (10, 11, 10.0), (11, 4, 1.0)];
            let side_path = side_path.into_iter().filter(|_| side);
            for (a, b, w) in line.into_iter().chain(branch).chain(side_path) {
                gb.add_edge(v[a], v[b], w);
                if gb.is_directed() {
                    gb.add_edge(v[b], v[a], w);
                }
            }
            let graph = gb.build();
            let mut pois = crate::poi::PoiTable::new(graph.num_vertices());
            for (at, c) in [(1, italian), (2, gift), (4, asian), (5, gift), (8, asian), (9, gift)] {
                pois.add_poi(v[at], c);
            }
            pois.finalize(&forest);
            let query = SkySrQuery::new(v[0], [asian, gift]);
            let landmarks = with_landmarks.then(|| Landmarks::build(&graph, 3, v[0]));
            let cached =
                Bssr::new(&QueryContext::new(&graph, &forest, &pois)).run(&query).unwrap().routes;
            let pois_of = |r: &SkylineRoute| r.pois.iter().map(|p| p.0).collect::<Vec<_>>();
            assert_eq!(cached.iter().map(pois_of).collect::<Vec<_>>(), [[1, 2], [4, 5]]);
            let epochs = WeightEpoch::new(graph);
            Branch { forest, pois, query, epochs, landmarks, cached, at: EpochId::BASE, memo: None }
        }

        /// Publishes the edge reweightings `deltas` (each edge's arcs both
        /// ways) and returns the delta from the last skyline's epoch and
        /// the new epoch's view.
        fn publish(&self, deltas: &[(u32, u32, f64)]) -> (DeltaSet, RoadNetwork) {
            let both_ways = |&(a, b, w): &(u32, u32, f64)| [(a, b, w), (b, a, w)];
            let deltas: Vec<WeightDelta> = (deltas.iter().flat_map(both_ways))
                .map(|(a, b, w)| WeightDelta::new(VertexId(a), VertexId(b), w))
                .collect();
            let to = self.epochs.publish(&deltas);
            (self.epochs.delta_between(self.at, to).unwrap(), self.epochs.pin())
        }

        /// Publishes the edge reweightings `deltas` and repairs the last
        /// skyline across them twice: with its memo, and with
        /// [`Bssr::repair`], which has none. Both must match a fresh search
        /// and reach the same outcome; the chain continues from the first.
        fn step(&mut self, deltas: &[(u32, u32, f64)]) -> (RepairResult, RepairResult) {
            let (delta, pinned) = self.publish(deltas);
            let to = delta.to_epoch();
            let lm = self.landmarks.as_ref();
            let ctx = QueryContext::new(&pinned, &self.forest, &self.pois);
            let pq = PreparedQuery::prepare(&ctx, &self.query).unwrap();
            let with =
                Bssr::new(&ctx).repair_prepared(&pq, &self.cached, self.memo.as_ref(), &delta, lm);
            let without = Bssr::new(&ctx).repair(&self.query, &self.cached, &delta, lm).unwrap();
            let fresh = Bssr::new(&ctx).run(&self.query).unwrap().routes;
            for (name, r) in [("with the memo", &with), ("without", &without)] {
                assert!(
                    equivalent_skylines(&r.routes, &fresh),
                    "repair {name} ({:?}) diverged: {:?} vs fresh {fresh:?}",
                    r.repair.outcome,
                    r.routes
                );
            }
            assert_eq!(with.repair.outcome, without.repair.outcome);
            assert_eq!(with.memo.epoch(), to);
            (self.cached, self.memo, self.at) = (with.routes.clone(), Some(with.memo.clone()), to);
            (with, without)
        }
    }

    /// The untouched/rescored split of a repair.
    fn split(r: &RepairResult) -> (usize, usize) {
        (r.repair.routes_untouched, r.repair.routes_rescored)
    }

    /// Routes with a stored path.
    fn paths_known(m: &RepairMemo) -> usize {
        m.paths.iter().flatten().count()
    }

    #[test]
    fn a_stored_path_that_avoids_the_delta_skips_its_legs() {
        let mut b = Branch::new(true);
        // The branch's first arc is within the skyline radius, so the
        // floor clears neither route; the first repair has no memo and
        // searches both.
        let (first, _) = b.step(&[(6, 7, 11.0)]);
        assert_eq!((first.repair.outcome, split(&first)), (RepairOutcome::Rescored, (0, 2)));
        assert_eq!(paths_known(&first.memo), 2);
        // The same arc again: both stored paths avoid it, so no leg runs.
        let (with, without) = b.step(&[(6, 7, 12.0)]);
        assert_eq!(with.repair.outcome, RepairOutcome::Rescored);
        assert_eq!(with.stats.search.settled, 0, "no leg searched");
        assert_eq!(with.stats.routes_reused, 2);
        assert!(without.stats.search.settled > 0, "without a memo the legs run");
        assert_eq!(with.routes, without.routes);
        assert_eq!((split(&with), split(&without)), ((2, 0), (0, 2)));
        // A far delta promotes through tier 1 and carries both paths…
        let (far, _) = b.step(&[(8, 9, 11.0)]);
        assert_eq!(far.repair.outcome, RepairOutcome::Untouched);
        assert_eq!(paths_known(&far.memo), 2);
        // …which still answer the next delta near the start.
        let (again, _) = b.step(&[(6, 7, 13.0)]);
        assert_eq!((again.stats.search.settled, again.stats.routes_reused), (0, 2));
    }

    #[test]
    fn a_fallback_with_a_memo_returns_what_a_repair_without_one_does() {
        // Without landmarks no route clears at the floor.
        let mut b = Branch::new(false);
        b.step(&[(6, 7, 11.0)]);
        let stored = b.memo.as_ref().unwrap().paths[0].clone();
        // Lengthen an arc on the path of 4 → 5: its legs run, its length
        // changes and the full re-search runs. The path of 1 → 2 avoids
        // the arc, so that route is deferred: it seeds the re-search at its
        // cached length, and no leg runs for it.
        let (with, without) = b.step(&[(3, 4, 2.0)]);
        assert_eq!(with.repair.outcome, RepairOutcome::Researched);
        assert_eq!(with.stats.restricted_researches, 0);
        assert_eq!(with.routes, without.routes);
        assert_eq!((split(&with), split(&without)), ((1, 1), (0, 2)));
        assert_eq!((with.stats.routes_reused, without.stats.routes_reused), (1, 0));
        let settled = |r: &RepairResult| r.stats.search.settled;
        assert!(settled(&with) < settled(&without), "{} vs {}", settled(&with), settled(&without));
        // Both returned routes equal a survivor and keep its path: 1 → 2
        // the stored one.
        assert_eq!(paths_known(&with.memo), 2);
        assert_eq!(with.memo.paths[0], stored);
    }

    #[test]
    fn a_deferred_route_that_got_shorter_is_found_and_keeps_no_path() {
        let mut b = Branch::with_side_path();
        // Raise the side path's middle edge: no route uses it, so both
        // lengths come back unchanged and both paths are stored.
        let (first, _) = b.step(&[(10, 11, 11.0)]);
        assert_eq!(first.repair.outcome, RepairOutcome::Rescored);
        assert_eq!(paths_known(&first.memo), 2);
        let stored = first.memo.paths[0].clone();
        // Lower it to 1: the side path reaches 4 in 3, so 4 → 5 shortens to
        // 4. Both stored paths avoid the edge, so both routes are deferred
        // and seed the restricted re-search at their cached lengths; the
        // search finds the shorter 4 → 5, which evicts its seed.
        let (with, _) = b.step(&[(10, 11, 1.0)]);
        assert_eq!(with.repair.outcome, RepairOutcome::Researched);
        assert_eq!(with.stats.restricted_researches, 1);
        assert_eq!((split(&with), with.stats.routes_reused), ((2, 0), 2));
        let lengths: Vec<f64> = with.routes.iter().map(|r| r.length.get()).collect();
        assert_eq!((ends(&with.routes), lengths), (vec![2, 5], vec![2.0, 4.0]));
        // 1 → 2 keeps its stored path; no path the repair knows realises
        // the new 4 → 5.
        assert_eq!(with.memo.paths[..], [stored, None]);
    }

    #[test]
    fn a_decrease_after_a_fallback_is_checked_again() {
        let mut b = Branch::new(false);
        // A far decrease: the search from its ends stays beyond the radius.
        let (first, _) = b.step(&[(8, 9, 9.0)]);
        assert_eq!(first.repair.outcome, RepairOutcome::Rescored);
        // The branch's middle arc gets cheap: its tail 6 is within reach,
        // so the repair falls back. The skyline stays, but 7 and 8 are now
        // within its radius.
        let (with, _) = b.step(&[(6, 7, 1.0)]);
        assert_eq!(with.repair.outcome, RepairOutcome::Researched);
        assert_eq!(paths_known(&with.memo), 2);
        // Now 8 → 9 gets cheap and the branch pair (length 3.5) replaces
        // 4 → 5. Both stored paths avoid the arc and are deferred, but the
        // decrease is relevant; no route got longer, so the restricted
        // re-search finds the pair.
        let (with, _) = b.step(&[(8, 9, 0.5)]);
        assert_eq!(with.repair.outcome, RepairOutcome::Researched);
        assert_eq!((with.stats.restricted_researches, with.stats.routes_reused), (1, 2));
        assert_eq!(ends(&with.routes), [2, 9]);
    }

    /// The last PoI of each route.
    fn ends(routes: &[SkylineRoute]) -> Vec<u32> {
        routes.iter().map(|r| r.pois[r.pois.len() - 1].0).collect()
    }

    #[test]
    fn a_decrease_within_the_radius_re_searches_only_the_routes_that_cross_it() {
        // The branch's first arc gets cheaper: its tail 6 is 1 from the
        // start, so the repair falls back, but no length changed.
        let mut b = Branch::new(false);
        let seeds = b.cached.clone();
        let (with, without) = b.step(&[(6, 7, 9.0)]);
        for r in [&with, &without] {
            assert_eq!(r.repair.outcome, RepairOutcome::Researched);
            assert_eq!(r.stats.restricted_researches, 1);
        }
        // It returns what the full re-search seeded alike returns…
        let pinned = b.epochs.pin();
        let ctx = QueryContext::new(&pinned, &b.forest, &b.pois);
        let pq = PreparedQuery::prepare(&ctx, &b.query).unwrap();
        let warm = Bssr::new(&ctx).run_prepared_warm(&pq, &seeds);
        assert_eq!(with.routes, warm.routes);
        // …which a directed build of the same city runs: the same legs, a
        // forward search from the start to the nearer tail for the
        // relevance check, then the full re-search, which settles more.
        let mut directed = Branch::directed();
        let (full, _) = directed.step(&[(6, 7, 9.0)]);
        assert_eq!(full.repair.outcome, RepairOutcome::Researched);
        assert_eq!(full.stats.restricted_researches, 0);
        assert_eq!(full.routes, with.routes);
        let settled = |r: &RepairResult| r.stats.search.settled;
        assert!(settled(&with) < settled(&full), "{} vs {}", settled(&with), settled(&full));
    }

    #[test]
    fn a_fallback_under_an_expired_deadline_still_searches_to_the_end() {
        use std::time::{Duration, Instant};
        // Each delta brings the branch pair 8 → 9 to 4.75, under 4 → 5,
        // while 8 stays farther from the start than 4: NNinit's chain is
        // 4 → 5, so only the search finds the new member. The first delta
        // also lengthens 1 → 2, so the full re-search runs; the second
        // changes no length, so the restricted one does.
        let branch_pair = [(6, 7, 2.5), (8, 9, 0.25)];
        let lengthened = [(1, 2, 1.5), branch_pair[0], branch_pair[1]];
        for (deltas, restricted) in [(&lengthened[..], 0), (&branch_pair[..], 1)] {
            let b = Branch::new(true);
            let (delta, pinned) = b.publish(deltas);
            let ctx = QueryContext::new(&pinned, &b.forest, &b.pois);
            let pq = PreparedQuery::prepare(&ctx, &b.query).unwrap();
            let mut engine = Bssr::new(&ctx);
            let expired = Some(Instant::now() - Duration::from_millis(1));
            engine.set_deadline(expired);
            let lm = b.landmarks.as_ref();
            let r = engine.repair_prepared(&pq, &b.cached, None, &delta, lm);
            assert_eq!(r.repair.outcome, RepairOutcome::Researched);
            assert_eq!(r.stats.restricted_researches, restricted);
            let fresh = Bssr::new(&ctx).run(&b.query).unwrap().routes;
            assert!(equivalent_skylines(&r.routes, &fresh), "{:?} vs {fresh:?}", r.routes);
            assert_eq!(ends(&r.routes), [2, 9]);
            assert_eq!(engine.deadline, expired, "the deadline is armed again");
        }
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
        let delta = h.epochs.delta_between(EpochId::BASE, e).unwrap();
        let pinned = h.epochs.pin();
        let qctx = crate::context::QueryContext::new(&pinned, &h.ex.forest, &h.ex.pois);
        let repaired = Bssr::new(&qctx).repair(&q, &cached, &delta, None).unwrap();
        let oracle = Bssr::new(&qctx).run(&q).unwrap().routes;
        assert!(equivalent_skylines(&repaired.routes, &oracle));
    }
}
