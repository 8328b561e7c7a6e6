//! The modified Dijkstra algorithm (Algorithm 2) — one expansion step of
//! BSSR.
//!
//! Given a fetched route `R_d` ending at `p_d`, the step searches outwards
//! from `p_d` for PoIs semantically matching the next position, applying:
//!
//! * the **threshold break** (Lemma 5.3): once the settled distance pushes
//!   `l(R_t)` past `l̄(R_d)`, nothing further can survive — stop;
//! * the **path-similarity skip** (Lemma 5.5(i)): a match that lies behind
//!   an equally-or-more similar PoI is dominated — don't generate it;
//! * the **perfect-match cut** (Lemma 5.5(ii)): graph traversal never
//!   continues through a perfectly matching PoI.
//!
//! The two Lemma 5.5 rules assume that the replacement PoI they argue with
//! is free to take the position: it is not already part of the route and
//! no later position needs it. That holds whenever no PoI matching the
//! position can match any other position (always true for the paper's
//! workloads, which draw single-category PoIs and positions from distinct
//! trees); the caller passes a per-position `lemma55` flag and the rules
//! are disabled where they would be unsound, preserving exactness for
//! arbitrary sequences and multi-category PoIs.
//!
//! A step expands a *group* of routes of one class (one size, one
//! similarity product) with one multi-source search; a group of one is the
//! paper's step. Each source starts at its route's length above the
//! group's shortest, and each heap entry carries its origin route, its
//! distance from that route's last PoI and its path similarity, so the
//! vertex records stay one distance each. Why a group may share a search,
//! and when one forms, is argued in [`crate::bssr`].
//!
//! In repair's restricted re-search (see [`Crossing`]) each label also
//! carries a *crossed* bit, in the high bit of its origin: set once its
//! path crosses a watched decreased arc. An uncrossed label whose length
//! plus its vertex's distance to the nearest watched tail clearly reaches
//! the threshold is not pushed. Every other search passes no crossing: its
//! relaxations are unchanged, and it pays one branch per settled vertex.

use std::collections::BinaryHeap;

use skysr_graph::{Cost, DijkstraWorkspace, RoadNetwork, SearchStats, StampedRecords, VertexId};

use crate::bssr::bounds::MinDistBounds;
use crate::bssr::cache::{CachedMatch, SearchCache};
use crate::bssr::queue::RouteQueue;
use crate::bssr::repair::safely_beyond;
use crate::context::QueryContext;
use crate::dominance::SkylineSet;
use crate::prepared::PreparedQuery;
use crate::route::PartialRoute;
use crate::stats::QueryStats;

/// One vertex-heap entry: `vertex` reached `dist` after the last PoI of
/// route `origin` of the group, with `psim` the best similarity of a PoI on
/// that path (Lemma 5.5(i)). `key` is `dist` plus the origin route's length
/// above the group's shortest, and orders the heap as `(key, vertex)`
/// ascending; a group of one has `key == dist`. The high bit of `origin`
/// is the label's crossed bit ([`CROSSED`]).
#[derive(Clone, Copy, Debug)]
struct Reach {
    key: Cost,
    vertex: VertexId,
    origin: u32,
    dist: Cost,
    psim: f64,
}

impl PartialEq for Reach {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Reach {}
impl PartialOrd for Reach {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Reach {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: the smallest (key, vertex) pops first.
        (other.key, other.vertex).cmp(&(self.key, self.vertex))
    }
}

/// The crossed bit of [`Reach::origin`]; a group never has 2³¹ routes.
const CROSSED: u32 = 1 << 31;

/// What repair's restricted re-search watches (see
/// [`repair`](crate::bssr::repair)): the suspicious decreased arcs, and the
/// distance `h(v)` from each vertex to the nearest of their tails.
#[derive(Clone, Copy)]
pub(crate) struct Crossing<'a> {
    /// The suspicious decreased arcs as `(tail, head)`, sorted.
    arcs: &'a [(u32, u32)],
    /// The search from the suspicious tails; `h(v)` is the distance it
    /// settled `v` at.
    near: &'a DijkstraWorkspace,
    /// `h` of a vertex that search did not settle.
    radius: f64,
}

impl<'a> Crossing<'a> {
    pub(crate) fn new(arcs: &'a [(u32, u32)], near: &'a DijkstraWorkspace, radius: Cost) -> Self {
        debug_assert!(arcs.is_sorted());
        Crossing { arcs, near, radius: radius.get() }
    }

    /// The suspicious arcs out of `u`.
    fn arcs_from(&self, u: VertexId) -> &'a [(u32, u32)] {
        let from = self.arcs.partition_point(|&(t, _)| t < u.0);
        let to = from + self.arcs[from..].partition_point(|&(t, _)| t == u.0);
        &self.arcs[from..to]
    }

    /// Whether an uncrossed label or route of length `len` at `v` clearly
    /// reaches `threshold` before it can cross a suspicious arc.
    #[inline]
    fn hopeless(&self, len: Cost, v: VertexId, threshold: Cost) -> bool {
        let h = if self.near.settled(v) {
            self.near.distance(v).map_or(self.radius, Cost::get)
        } else {
            self.radius
        };
        safely_beyond(len.get() + h, threshold.get())
    }
}

/// Reusable scratch buffers for modified-Dijkstra runs: one best key per
/// vertex (see [`StampedRecords`]) and the vertex heap.
pub(crate) struct Scratch {
    records: StampedRecords<f64>,
    heap: BinaryHeap<Reach>,
}

impl Scratch {
    pub(crate) fn new(n: usize) -> Scratch {
        Scratch { records: StampedRecords::new(n, f64::INFINITY), heap: BinaryHeap::new() }
    }

    /// Ensures capacity for `n` vertices (recycled scratch may come from a
    /// smaller graph).
    pub(crate) fn ensure(&mut self, n: usize) {
        self.records.resize(n);
    }

    fn reset(&mut self) {
        self.records.clear();
        self.heap.clear();
    }
}

/// Immutable per-query configuration shared by all steps.
pub(crate) struct StepEnv<'a, 'g> {
    pub ctx: &'a QueryContext<'g>,
    pub pq: &'a PreparedQuery,
    pub bounds: &'a MinDistBounds,
    /// Per-position: whether the Lemma 5.5 rules are sound (no PoI matching
    /// the position can match another one).
    pub lemma55: &'a [bool],
    /// `sigma_suffix[i]`: best similarity product positions `i..k` can
    /// still contribute (`[k] = 1`). Threshold probes use the *achievable*
    /// minimum completion semantic `1 − sim_acc · sigma_suffix[i]` instead
    /// of the optimistic `s(R)` — identical when every remaining position
    /// has a perfect match, strictly tighter otherwise.
    pub sigma_suffix: &'a [f64],
    /// Optimisation 4: memoise each search per (source, position). Only
    /// ever set for groups of one.
    pub memoise: bool,
    /// Repair's restricted re-search: what it watches. `None` elsewhere.
    pub crossing: Option<Crossing<'a>>,
}

impl StepEnv<'_, '_> {
    /// The minimum semantic score any valid completion of `r` can reach.
    #[inline]
    pub(crate) fn min_semantic(&self, r: &PartialRoute) -> f64 {
        1.0 - r.sim_acc() * self.sigma_suffix[r.len()]
    }

    /// Whether `r` is pruned against `threshold`: it reaches it, or it is
    /// an uncrossed route of a restricted re-search that clearly reaches it
    /// before it can cross.
    #[inline]
    pub(crate) fn prunes(&self, r: &PartialRoute, threshold: Cost) -> bool {
        let at = || r.last_poi().unwrap_or(self.pq.start);
        r.length() >= threshold
            || (!r.crossed()
                && self.crossing.is_some_and(|c| c.hopeless(r.length(), at(), threshold)))
    }
}

/// One `mDijkstra(R_d, c_d, p_d, Q_b, S)` invocation over every route of
/// `group`, which must be non-empty and of one class (one size, one
/// similarity product). `is_first` tags the very first step for Table 7's
/// search-space metric.
#[allow(clippy::too_many_arguments)]
pub(crate) fn mdijkstra_step(
    env: &StepEnv<'_, '_>,
    scratch: &mut Scratch,
    cache: &mut SearchCache,
    group: &[PartialRoute],
    queue: &mut RouteQueue,
    skyline: &mut SkylineSet,
    stats: &mut QueryStats,
    is_first: bool,
) {
    let pos = group[0].len();
    debug_assert!(pos < env.pq.len());
    debug_assert!(group.iter().all(|r| r.len() == pos && r.sim_acc() == group[0].sim_acc()));
    let source_of = |rd: &PartialRoute| rd.last_poi().unwrap_or(env.pq.start);
    // One class, one threshold: every member has the same minimum semantic.
    let mut threshold = skyline.threshold(env.min_semantic(&group[0]));
    let alive = |rd: &PartialRoute, threshold| !env.prunes(rd, threshold);
    let live = group.iter().filter(|rd| alive(rd, threshold)).count();
    stats.threshold_prunes += (group.len() - live) as u64;
    if live == 0 {
        return;
    }
    let base = group.iter().map(PartialRoute::length).min().expect("a group is never empty");

    if env.memoise {
        debug_assert_eq!(group.len(), 1, "memoised expansion runs per route");
        let radius = threshold - base;
        if let Some(entry) = cache.lookup(source_of(&group[0]), pos, radius) {
            stats.cache_hits += 1;
            // Matches are distance-sorted; everything < radius is complete.
            let matches: Vec<CachedMatch> =
                entry.matches.iter().take_while(|m| m.dist < radius).copied().collect();
            let rd = &group[0];
            for m in matches {
                process_candidate(env, rd, m.vertex, m.dist, m.sim, false, queue, skyline, stats);
            }
            return;
        }
    }

    stats.mdijkstra_runs += 1;
    if live > 1 {
        stats.grouped_routes += live as u64;
    }
    let position = &env.pq.positions[pos];
    let lemma55 = env.lemma55[pos];
    let graph = env.ctx.graph;
    let mut local = SearchStats::default();
    scratch.reset();
    for (origin, rd) in group.iter().enumerate() {
        if !alive(rd, threshold) {
            continue;
        }
        let (key, vertex) = (rd.length() - base, source_of(rd));
        let rec = scratch.records.reach(vertex.index()).expect("nothing is settled yet");
        // Of two routes ending at one PoI, the shorter dominates.
        if key.get() < *rec {
            *rec = key.get();
            let origin = origin as u32 | if rd.crossed() { CROSSED } else { 0 };
            let reach = Reach { key, vertex, origin, dist: Cost::ZERO, psim: 0.0 };
            scratch.heap.push(reach);
            local.pushed += 1;
        }
    }

    let mut collected: Vec<CachedMatch> = Vec::new();
    // The threshold may tighten while we search (completions found by this
    // very step update S); track the skyline version to refresh lazily.
    let mut sky_version = skyline.version();

    while let Some(Reach { key, vertex: u, origin, dist: d, psim }) = scratch.heap.pop() {
        // The first pop settles; later entries for `u` are stale.
        if scratch.records.settle(u.index()).is_none() {
            continue;
        }
        local.settled += 1;

        if sky_version != skyline.version() {
            sky_version = skyline.version();
            threshold = skyline.threshold(env.min_semantic(&group[0]));
        }
        if base + key >= threshold {
            break; // Lemma 5.3: no surviving extension beyond this radius.
        }

        let crossed = origin & CROSSED != 0;
        let usim = position.sim_of(env.ctx, u);
        if usim > 0.0 && (!lemma55 || usim > psim) {
            if env.memoise {
                collected.push(CachedMatch { vertex: u, dist: d, sim: usim });
            }
            let rd = &group[(origin & !CROSSED) as usize];
            process_candidate(env, rd, u, d, usim, crossed, queue, skyline, stats);
        }

        // Lemma 5.5(ii): perfect matches absorb the traversal.
        if lemma55 && usim >= 1.0 {
            continue;
        }
        let child_psim = if lemma55 { psim.max(usim) } else { 0.0 };
        let from = Reach { key, vertex: u, origin, dist: d, psim: child_psim };
        match env.crossing.filter(|_| !crossed) {
            None => relax_arcs(graph, scratch, &mut local, from, |_, _| Some(origin)),
            // An uncrossed label of a restricted re-search: a hop along a
            // suspicious arc crosses, and a child that can no longer cross
            // under the threshold is dropped.
            Some(c) => {
                let arcs = c.arcs_from(u);
                relax_arcs(graph, scratch, &mut local, from, |v, nkey| {
                    if arcs.iter().any(|&(_, head)| head == v.0) {
                        Some(origin | CROSSED)
                    } else {
                        (!c.hopeless(base + nkey, v, threshold)).then_some(origin)
                    }
                })
            }
        }
    }

    if is_first {
        stats.first_mdijkstra_weight_sum = local.weight_sum;
    }
    stats.search.merge(&local);

    if env.memoise {
        // Completeness radius: everything below the final threshold-derived
        // radius was settled before the break (settles are distance-ordered).
        let explored = if threshold.is_finite() { threshold - base } else { Cost::INFINITY };
        cache.insert(source_of(&group[0]), pos, collected, explored);
    }
}

/// Relaxes every arc out of `from.vertex`, whose label `from` carries the
/// children's path similarity. A child that improves its vertex's record
/// is pushed with the origin `child(v, key)` gives it, or dropped on
/// `None`.
#[inline(always)]
fn relax_arcs(
    graph: &RoadNetwork,
    scratch: &mut Scratch,
    local: &mut SearchStats,
    from: Reach,
    child: impl Fn(VertexId, Cost) -> Option<u32>,
) {
    for (v, w) in graph.neighbors(from.vertex) {
        local.relaxed += 1;
        local.weight_sum += w.get();
        let Some(rec) = scratch.records.reach(v.index()) else {
            continue;
        };
        let key = from.key + w;
        if key.get() < *rec {
            let Some(origin) = child(v, key) else {
                continue;
            };
            *rec = key.get();
            scratch.heap.push(Reach {
                key,
                vertex: v,
                origin,
                dist: from.dist + w,
                psim: from.psim,
            });
            local.pushed += 1;
        }
    }
}

/// Handles one discovered next-PoI candidate: distinctness, thresholds,
/// lower bounds, then either completes into `S` or enqueues into `Q_b`.
/// `crossed` is the bit of the label that reached `v`.
#[allow(clippy::too_many_arguments)]
fn process_candidate(
    env: &StepEnv<'_, '_>,
    rd: &PartialRoute,
    v: VertexId,
    d: Cost,
    sim: f64,
    crossed: bool,
    queue: &mut RouteQueue,
    skyline: &mut SkylineSet,
    stats: &mut QueryStats,
) {
    let position = &env.pq.positions[rd.len()];
    if !position.allow_revisit && rd.contains(v) {
        return; // Definition 3.4(iii): PoIs must be distinct.
    }
    let rt = rd.extend(v, d, sim).crossing(crossed);
    if env.prunes(&rt, skyline.threshold(env.min_semantic(&rt))) {
        stats.threshold_prunes += 1;
        return;
    }
    if rt.len() == env.pq.len() {
        skyline.update(rt.into_skyline_route());
    } else {
        if env.bounds.should_prune(&rt, skyline) {
            stats.lower_bound_prunes += 1;
            return;
        }
        queue.push(rt);
        stats.routes_enqueued += 1;
        stats.queue_peak = stats.queue_peak.max(queue.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bssr::queue::QueuePolicy;
    use crate::paper_example::PaperExample;

    struct Rig {
        ex: PaperExample,
    }

    impl Rig {
        fn run_step(
            &self,
            rd: &PartialRoute,
            skyline: &mut SkylineSet,
            memoise: bool,
            cache: &mut SearchCache,
        ) -> (Vec<PartialRoute>, QueryStats) {
            let ctx = self.ex.context();
            let pq = self.ex.prepared(&ctx);
            let bounds = MinDistBounds::disabled(pq.len());
            let lemma55 = vec![true; pq.len()];
            let sigma_suffix = vec![1.0; pq.len() + 1];
            let env = StepEnv {
                ctx: &ctx,
                pq: &pq,
                bounds: &bounds,
                lemma55: &lemma55,
                sigma_suffix: &sigma_suffix,
                memoise,
                crossing: None,
            };
            let mut scratch = Scratch::new(ctx.graph.num_vertices());
            let mut queue = RouteQueue::new(QueuePolicy::Proposed);
            let mut stats = QueryStats::default();
            mdijkstra_step(
                &env,
                &mut scratch,
                cache,
                std::slice::from_ref(rd),
                &mut queue,
                skyline,
                &mut stats,
                true,
            );
            let mut out = Vec::new();
            while let Some(r) = queue.pop() {
                out.push(r);
            }
            (out, stats)
        }
    }

    #[test]
    fn first_step_finds_all_restaurants_within_threshold() {
        // With the NNinit threshold of 15 (perfect route ⟨p2,p5,p8⟩), the
        // first step from vq finds p1, p2, p6, p10, p11 — §5.5 step 1.
        let rig = Rig { ex: PaperExample::new() };
        let mut skyline = SkylineSet::new();
        skyline.update(crate::route::SkylineRoute {
            pois: vec![],
            length: Cost::new(15.0),
            semantic: 0.0,
        });
        skyline.update(crate::route::SkylineRoute {
            pois: vec![],
            length: Cost::new(12.0),
            semantic: 0.5,
        });
        let mut cache = SearchCache::new();
        let (routes, stats) = rig.run_step(&PartialRoute::empty(), &mut skyline, false, &mut cache);
        let mut found: Vec<u32> = routes.iter().map(|r| r.last_poi().unwrap().0).collect();
        found.sort_unstable();
        assert_eq!(found, vec![1, 2, 6, 10, 11]);
        assert_eq!(stats.mdijkstra_runs, 1);
        assert!(stats.first_mdijkstra_weight_sum > 0.0);
    }

    #[test]
    fn threshold_break_limits_search() {
        // With a tight threshold of 7, only p2 (dist 6) survives.
        let rig = Rig { ex: PaperExample::new() };
        let mut skyline = SkylineSet::new();
        skyline.update(crate::route::SkylineRoute {
            pois: vec![],
            length: Cost::new(7.0),
            semantic: 0.0,
        });
        let mut cache = SearchCache::new();
        let (routes, _) = rig.run_step(&PartialRoute::empty(), &mut skyline, false, &mut cache);
        let found: Vec<u32> = routes.iter().map(|r| r.last_poi().unwrap().0).collect();
        assert_eq!(found, vec![2]);
    }

    #[test]
    fn completion_updates_skyline() {
        // From ⟨p10, p12⟩ (length 10) the step finds gift shop p13 at 3 →
        // inserts the perfect route (13, 0), and it dominates (15, 0).
        let rig = Rig { ex: PaperExample::new() };
        let mut skyline = SkylineSet::new();
        skyline.update(crate::route::SkylineRoute {
            pois: vec![],
            length: Cost::new(15.0),
            semantic: 0.0,
        });
        let rd = PartialRoute::empty().extend(rig.ex.p(10), Cost::new(8.0), 1.0).extend(
            rig.ex.p(12),
            Cost::new(2.0),
            1.0,
        );
        let mut cache = SearchCache::new();
        let (_, _) = rig.run_step(&rd, &mut skyline, false, &mut cache);
        assert!(skyline.routes().iter().any(|r| r.length == Cost::new(13.0) && r.semantic == 0.0));
        assert!(!skyline.routes().iter().any(|r| r.length == Cost::new(15.0)));
    }

    #[test]
    fn cache_replays_matches() {
        let rig = Rig { ex: PaperExample::new() };
        let mut skyline = SkylineSet::new();
        skyline.update(crate::route::SkylineRoute {
            pois: vec![],
            length: Cost::new(15.0),
            semantic: 0.0,
        });
        let mut cache = SearchCache::new();
        let (routes1, stats1) =
            rig.run_step(&PartialRoute::empty(), &mut skyline.clone(), true, &mut cache);
        assert_eq!(stats1.mdijkstra_runs, 1);
        assert_eq!(cache.len(), 1);
        // Second identical request must be served from cache.
        let (routes2, stats2) =
            rig.run_step(&PartialRoute::empty(), &mut skyline, true, &mut cache);
        assert_eq!(stats2.mdijkstra_runs, 0);
        assert_eq!(stats2.cache_hits, 1);
        let ids = |rs: &[PartialRoute]| {
            let mut v: Vec<u32> = rs.iter().map(|r| r.last_poi().unwrap().0).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(ids(&routes1), ids(&routes2));
    }

    #[test]
    fn perfect_match_blocks_traversal() {
        // Searching A&E matches from p2: p5 (perfect, dist 4) absorbs the
        // traversal, so p9/p12 behind it are reached only via other paths;
        // p9 via p2→vq→p6→p9 = 15.5 ≥ threshold 15 → only p5 found.
        let rig = Rig { ex: PaperExample::new() };
        let mut skyline = SkylineSet::new();
        skyline.update(crate::route::SkylineRoute {
            pois: vec![],
            length: Cost::new(15.0),
            semantic: 0.0,
        });
        let rd = PartialRoute::empty().extend(rig.ex.p(2), Cost::new(6.0), 1.0);
        let mut cache = SearchCache::new();
        let (routes, _) = rig.run_step(&rd, &mut skyline, false, &mut cache);
        let found: Vec<u32> = routes.iter().map(|r| r.last_poi().unwrap().0).collect();
        assert_eq!(found, vec![5]);
    }

    #[test]
    fn duplicate_poi_rejected() {
        // A route already containing p5 must not extend with p5 again.
        let rig = Rig { ex: PaperExample::new() };
        // Query where two positions share the A&E tree: craft rd containing
        // p5 and search A&E from it with lemma55 disabled.
        let ctx = rig.ex.context();
        let arts = rig.ex.forest.by_name("Arts & Entertainment").unwrap();
        let q = crate::query::SkySrQuery::new(rig.ex.vq, [arts, arts]);
        let pq = crate::prepared::PreparedQuery::prepare(&ctx, &q).unwrap();
        let bounds = MinDistBounds::disabled(pq.len());
        let lemma55 = vec![false; pq.len()];
        let sigma_suffix = vec![1.0; pq.len() + 1];
        let env = StepEnv {
            ctx: &ctx,
            pq: &pq,
            bounds: &bounds,
            lemma55: &lemma55,
            sigma_suffix: &sigma_suffix,
            memoise: false,
            crossing: None,
        };
        let mut scratch = Scratch::new(ctx.graph.num_vertices());
        let mut queue = RouteQueue::new(QueuePolicy::Proposed);
        let mut skyline = SkylineSet::new();
        let mut stats = QueryStats::default();
        let mut cache = SearchCache::new();
        let rd = PartialRoute::empty().extend(rig.ex.p(5), Cost::new(10.0), 1.0);
        mdijkstra_step(
            &env,
            &mut scratch,
            &mut cache,
            &[rd],
            &mut queue,
            &mut skyline,
            &mut stats,
            false,
        );
        // Completions are A&E PoIs other than p5.
        for r in skyline.routes() {
            assert_ne!(r.pois[1], rig.ex.p(5));
            assert_eq!(r.pois[0], rig.ex.p(5));
        }
        assert!(!skyline.is_empty());
    }
}
