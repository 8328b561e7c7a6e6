//! BSSR — the bulk SkySR algorithm (§5, Algorithm 1) with its four
//! optimisation techniques.
//!
//! BSSR finds all skyline sequenced routes in a single branch-and-bound
//! search: a priority queue `Q_b` of partial routes is repeatedly expanded
//! by the modified Dijkstra algorithm (`mdijkstra`), which discovers the
//! next semantically matching PoIs; completed routes maintain the minimal
//! set `S` whose members define the pruning thresholds (Definition 5.4).
//! Correctness rests on Lemmas 5.1–5.5: a route whose length score reaches
//! the threshold for its (minimum-possible) semantic score can never
//! contribute to the final skyline.
//!
//! The optimisations, each independently toggleable via [`BssrConfig`] for
//! the §7.3 ablations:
//! 1. **NNinit** ([`nninit`]) seeds `S` before the search;
//! 2. the **arranged priority queue** ([`queue`]) dequeues large/cheap
//!    routes first;
//! 3. **possible minimum distances** ([`bounds`]) tighten the lower bound;
//! 4. **on-the-fly caching** ([`cache`]) re-uses modified-Dijkstra results
//!    per (source PoI, position) — one of the three [`Expansion`] settings.
//!
//! # Lemma 5.5 flags
//!
//! The path-similarity skip and the perfect-match cut (Lemma 5.5) replace
//! a match by a better PoI on the way to it. That PoI must be free to take
//! the position: not already in the route, and not needed by a later one.
//! Position `i`'s flag therefore holds when no PoI matching `i` can match
//! another position `j`: no tree carried by a PoI matching `i`
//! ([`Position::carried_trees`](crate::prepared::Position::carried_trees))
//! is one of `j`'s trees. Comparing the positions' own trees is not enough
//! once a PoI is tagged in two trees: an Asian restaurant that is also a
//! gift shop matches both positions of ⟨Asian, Gift⟩, and a Gift search from
//! a route ending there would settle its own source as a perfect match,
//! reject it as a repeat, and stop.
//!
//! # Grouped expansion
//!
//! The default engine ([`Expansion::Grouped`]) expands routes of one
//! *class* — the same number of PoIs and the same similarity product —
//! together. When it dequeues a route it also takes the queued routes of
//! that class at the head of the queue (under the proposed order, every
//! one of them: a class pops as one run) and expands the group with one
//! multi-source modified Dijkstra, each source starting at its route's
//! length. Dijkstra keeps one record per vertex, so a vertex is settled by
//! the route whose extension to it is shortest, and only that route is
//! extended to it.
//!
//! **Soundness.** Let `R` and `R'` be in one group and `R ⊕ u` no longer
//! than `R' ⊕ u`. Both extensions have the same semantic score. For any
//! completion `R' ⊕ u ⊕ T`, the route `R ⊕ u ⊕ T` has the same semantic
//! score and no greater length — provided it is valid, that is, no PoI of
//! `u ⊕ T` already lies in `R`. `R`'s PoIs match positions `1..=|R|` and
//! those of `u ⊕ T` match later positions, so this holds whenever no PoI
//! can match two positions: exactly when every position's Lemma 5.5 flag
//! holds. A group therefore forms only then; otherwise the shorter route's
//! prefix could hold a PoI that a later position needs, and the dominated
//! route might be the only one that can complete. Queries whose positions
//! can share a PoI keep the per-route search. The rest follows per origin
//! as in the paper: a vertex reached through another route's settled
//! vertex inherits that route's path, whose extension is shorter and whose
//! Lemma 5.5 witnesses dominate by transitivity. The threshold is shared
//! too: a class has one minimum semantic score, hence one `l̄`.
//!
//! Grouping replaces the memo rather than joining it: once routes of one
//! class share a search, repeats of an exact (source, position) pair are
//! rare, and the memo's lookups and copies cost about what they save.

pub mod bounds;
pub mod cache;
mod mdijkstra;
pub mod nninit;
pub mod queue;
pub mod repair;
pub mod warm;

use std::time::Instant;

use skysr_graph::{Cost, DijkstraWorkspace};

pub use bounds::LowerBoundMode;
pub use queue::QueuePolicy;
pub use repair::{RepairOutcome, RepairResult, RepairStats};

use crate::bssr::cache::SearchCache;
use crate::bssr::mdijkstra::{mdijkstra_step, Crossing, Scratch, StepEnv};
use crate::bssr::queue::RouteQueue;
use crate::context::QueryContext;
use crate::dominance::SkylineSet;
use crate::error::QueryError;
use crate::prepared::PreparedQuery;
use crate::query::SkySrQuery;
use crate::route::{PartialRoute, SkylineRoute};
use crate::stats::QueryStats;

/// How the modified-Dijkstra expansions of different queued routes share
/// work.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Expansion {
    /// One search per dequeued route, nothing shared ("BSSR w/o Opt").
    PerRoute,
    /// Optimisation 4 (§5.3.4): one search per dequeued route, memoised per
    /// (source PoI, position) for the rest of the query.
    Memoised,
    /// One multi-source search per group of queued routes of one class
    /// (one size, one similarity product); per route where positions can
    /// share a PoI. See the module docs for why it is exact.
    Grouped,
}

/// Which optimisations are active.
///
/// The default runs Optimisations 1 and 2, leaves Optimisation 3 (the
/// minimum-distance bounds) off and expands routes in groups
/// ([`Expansion::Grouped`]) instead of memoising per route.
/// - The bounds cost more search than their pruning saves. On the paper's
///   §7.1 workload over full-size Tokyo they pruned 1.6 / 5.7 / 41
///   candidate routes per cold query at k = 2 / 3 / 4, yet a query settled
///   2.7k / 11.4k / 30.8k vertices with them and 1.8k / 9.0k / 26.6k
///   without, and ran 1.2–1.3x faster without (2-vCPU VM).
/// - Grouping cut the settled vertices of the same workload by 41%
///   (1,320 queries of seed 1: 17.4 M to 10.2 M, against the memo), and
///   memoising on top of it saved nothing.
///
/// [`BssrConfig::paper`] is the paper's BSSR with all four optimisations.
///
/// `Hash` because the configuration is part of `skysr-service`'s result
/// cache key: runs under different configurations must not share entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BssrConfig {
    /// Optimisation 1: NNinit initial search (§5.3.1).
    pub use_init_search: bool,
    /// Optimisation 2: route-queue arrangement (§5.3.2).
    pub queue_policy: QueuePolicy,
    /// Optimisation 3: minimum-distance lower bounds (§5.3.3).
    pub lower_bound: LowerBoundMode,
    /// How expansions share work: Optimisation 4's memo (§5.3.4), grouped
    /// expansion, or nothing.
    pub expansion: Expansion,
}

impl Default for BssrConfig {
    fn default() -> BssrConfig {
        BssrConfig {
            lower_bound: LowerBoundMode::Off,
            expansion: Expansion::Grouped,
            ..BssrConfig::paper()
        }
    }
}

impl BssrConfig {
    /// "BSSR" from Figure 3: the paper's algorithm with all four
    /// optimisations, Optimisation 3 included and Optimisation 4's per-route
    /// memo for expansions.
    pub fn paper() -> BssrConfig {
        BssrConfig {
            use_init_search: true,
            queue_policy: QueuePolicy::Proposed,
            lower_bound: LowerBoundMode::Full,
            expansion: Expansion::Memoised,
        }
    }

    /// "BSSR w/o Opt" from Figure 3: the plain branch-and-bound search
    /// with a conventional distance-based queue and no other optimisation.
    pub fn unoptimized() -> BssrConfig {
        BssrConfig {
            use_init_search: false,
            queue_policy: QueuePolicy::DistanceBased,
            lower_bound: LowerBoundMode::Off,
            expansion: Expansion::PerRoute,
        }
    }
}

/// Receiver for provisional Pareto points during an observed run (anytime
/// streaming). Called once per distinct route, in the order the search
/// proves them; the route is a skyline member at call time, so it is
/// dominated-or-equal by the final exact skyline.
pub type ProgressSink<'s> = &'s mut dyn FnMut(&SkylineRoute);

/// How many routes taken off the queue pass between deadline polls during
/// a run with [`Bssr::set_deadline`] armed. See the poll site in
/// [`Bssr::run_prepared_observed`] for the rationale.
pub const DEADLINE_CHECK_EVERY: u32 = 16;

/// Tracks which skyline members an observed run has already reported, so
/// each provisional point reaches the sink exactly once even though the
/// skyline is re-diffed after every step.
#[derive(Default)]
struct Emitter {
    seen_version: u64,
    emitted: Vec<SkylineRoute>,
}

impl Emitter {
    fn flush(&mut self, skyline: &SkylineSet, sink: &mut dyn FnMut(&SkylineRoute)) {
        if skyline.version() == self.seen_version {
            return;
        }
        self.seen_version = skyline.version();
        for route in skyline.routes() {
            if !self.emitted.iter().any(|e| e == route) {
                sink(route);
                self.emitted.push(route.clone());
            }
        }
    }
}

/// Result of one BSSR run.
#[derive(Clone, Debug)]
pub struct BssrResult {
    /// The skyline sequenced routes, sorted by ascending length.
    pub routes: Vec<SkylineRoute>,
    /// Instrumentation for the ablation experiments.
    pub stats: QueryStats,
    /// The run's deadline (see [`Bssr::set_deadline`]) expired before the
    /// search drained its queue: `routes` is the mutually non-dominated
    /// partial skyline proven so far — every member a genuine valid route
    /// dominated-or-equal by the exact skyline — but the set may be
    /// incomplete. Always `false` for runs without a deadline.
    pub truncated: bool,
}

/// Reusable engine state (Dijkstra workspace + modified-Dijkstra buffers)
/// detached from any graph borrow.
///
/// A long-lived worker serving a *dynamic* graph re-pins a fresh snapshot
/// whenever a weight epoch publishes, which means rebuilding its [`Bssr`]
/// (the engine borrows the pinned graph). The workspaces are tens of
/// megabytes on city-scale graphs and already paged in; recycling them
/// through [`Bssr::with_scratch`] / [`Bssr::into_scratch`] makes the
/// rebuild allocation-free.
pub struct BssrScratch {
    ws: DijkstraWorkspace,
    scratch: Scratch,
}

impl BssrScratch {
    /// Scratch sized for graphs with up to `n` vertices (grown on demand if
    /// a larger graph shows up).
    pub fn new(n: usize) -> BssrScratch {
        BssrScratch { ws: DijkstraWorkspace::new(n), scratch: Scratch::new(n) }
    }
}

impl std::fmt::Debug for BssrScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BssrScratch").finish_non_exhaustive()
    }
}

/// The BSSR query engine. Holds reusable scratch space, so construct once
/// and run many queries.
pub struct Bssr<'g> {
    ctx: QueryContext<'g>,
    cfg: BssrConfig,
    ws: DijkstraWorkspace,
    scratch: Scratch,
    deadline: Option<Instant>,
}

impl<'g> Bssr<'g> {
    /// Engine with the default configuration: every optimisation but
    /// Optimisation 3, which costs more than it prunes (see
    /// [`BssrConfig`]).
    pub fn new(ctx: &QueryContext<'g>) -> Bssr<'g> {
        Bssr::with_config(ctx, BssrConfig::default())
    }

    /// Engine with an explicit configuration (ablations).
    pub fn with_config(ctx: &QueryContext<'g>, cfg: BssrConfig) -> Bssr<'g> {
        let n = ctx.graph.num_vertices();
        Bssr::with_scratch(ctx, cfg, BssrScratch::new(n))
    }

    /// Engine recycling previously allocated scratch (see [`BssrScratch`]).
    pub fn with_scratch(ctx: &QueryContext<'g>, cfg: BssrConfig, scratch: BssrScratch) -> Bssr<'g> {
        let n = ctx.graph.num_vertices();
        let BssrScratch { mut ws, scratch: mut sc } = scratch;
        ws.ensure(n);
        sc.ensure(n);
        Bssr { ctx: *ctx, cfg, ws, scratch: sc, deadline: None }
    }

    /// Releases the engine's scratch for reuse by a successor engine.
    pub fn into_scratch(self) -> BssrScratch {
        BssrScratch { ws: self.ws, scratch: self.scratch }
    }

    /// Active configuration.
    pub fn config(&self) -> &BssrConfig {
        &self.cfg
    }

    /// Sets (or clears) the anytime cutoff for subsequent runs.
    ///
    /// With a deadline armed, a run that reaches it mid-search stops
    /// expanding, returns the partial skyline proven so far, and marks the
    /// result [`BssrResult::truncated`] — degraded mode instead of a
    /// timeout. Exactness is unaffected when the search finishes first;
    /// the deadline is re-checked every [`DEADLINE_CHECK_EVERY`] routes
    /// taken off the queue, so the overshoot is a bounded handful of
    /// expansions. The setting persists across runs until changed.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Validates and runs `query`.
    pub fn run(&mut self, query: &SkySrQuery) -> Result<BssrResult, QueryError> {
        let pq = PreparedQuery::prepare(&self.ctx, query)?;
        Ok(self.run_prepared(&pq))
    }

    /// Runs a pre-compiled query (lets callers reuse the preparation across
    /// engines, e.g. when comparing configurations).
    pub fn run_prepared(&mut self, pq: &PreparedQuery) -> BssrResult {
        self.run_prepared_observed(pq, &[], None)
    }

    /// [`Bssr::run_prepared`] warm-started from full-length routes of the
    /// query — repair's rescored survivors (see [`warm`]); an empty slice
    /// is a cold run.
    ///
    /// The result is score-equivalent to a cold run — the seeds only
    /// tighten the pruning thresholds, exactly as NNinit does. Routes in
    /// `seeds` that do not fit the query are ignored, so passing a skyline
    /// from an unrelated query degrades to a cold run.
    pub fn run_prepared_warm(&mut self, pq: &PreparedQuery, seeds: &[SkylineRoute]) -> BssrResult {
        self.run_prepared_observed(pq, seeds, None)
    }

    /// The full engine: [`Bssr::run_prepared_warm`] with an optional
    /// provisional-point sink (anytime streaming). Every emitted route is a
    /// genuine valid sequenced route that was a skyline member when
    /// emitted, so it is dominated-or-equal by some member of the final
    /// exact skyline; each distinct route is emitted at most once, and
    /// warm seeds that survive domination are emitted too. The sink is
    /// flushed at every point the skyline can grow — after NNinit, after
    /// warm seeding, and after every multi-criteria Dijkstra step — by
    /// diffing the skyline against the routes already emitted (cheap:
    /// skylines are small and [`SkylineSet::version`] gates the diff to
    /// actual insertions).
    pub fn run_prepared_observed(
        &mut self,
        pq: &PreparedQuery,
        seeds: &[SkylineRoute],
        sink: Option<ProgressSink<'_>>,
    ) -> BssrResult {
        self.search(pq, seeds, sink, None)
    }

    /// The engine behind every run. With `watched`, the run is repair's
    /// restricted re-search (see [`repair`]): `watched` holds the
    /// suspicious decreased arcs, sorted, and the radius of the search
    /// from their tails, whose distances the workspace holds. That run
    /// leaves out NNinit, Optimisation 3's bounds and Optimisation 4's memo:
    /// each only seeds or prunes, and the memo cannot tell a crossed label
    /// from an uncrossed one.
    fn search(
        &mut self,
        pq: &PreparedQuery,
        seeds: &[SkylineRoute],
        mut sink: Option<ProgressSink<'_>>,
        watched: Option<(&[(u32, u32)], Cost)>,
    ) -> BssrResult {
        let t0 = Instant::now();
        let mut stats = QueryStats::default();
        let k = pq.len();

        // A position nothing can match ⇒ no sequenced route exists.
        if pq.unmatchable_position().is_some() {
            stats.total_time = t0.elapsed();
            return BssrResult { routes: Vec::new(), stats, truncated: false };
        }

        let ctx = self.ctx;
        let mut skyline = SkylineSet::new();
        let mut emitter = Emitter::default();

        if self.cfg.use_init_search && watched.is_none() {
            nninit::nninit(&ctx, pq, &mut self.ws, &mut skyline, &mut stats);
        }
        if let Some(sink) = sink.as_deref_mut() {
            emitter.flush(&skyline, sink);
        }

        // Warm start: seed the routes *before* the minimum-distance bounds
        // are computed, so the tightened threshold also shrinks the
        // bound-computation search radius.
        warm::seed_full_routes(&ctx, pq, seeds, &mut skyline, &mut stats);
        if let Some(sink) = sink.as_deref_mut() {
            emitter.flush(&skyline, sink);
        }

        let bounds = if self.cfg.lower_bound == LowerBoundMode::Off || watched.is_some() {
            bounds::MinDistBounds::disabled(k)
        } else {
            bounds::MinDistBounds::compute(
                &ctx,
                pq,
                skyline.threshold_zero(),
                self.cfg.lower_bound,
                &mut self.ws,
                &mut stats,
            )
        };

        let lemma55 = lemma55_flags(pq);

        // σ-suffix: the best similarity product positions i..k can still
        // contribute. `1 − sim_acc(R) × sigma_suffix[|R|]` is then the
        // *achievable* minimum semantic of any completion of R — tighter
        // than the paper's `s(R)` whenever a remaining position has no
        // perfect match (best_sim < 1), and every threshold probe below
        // uses it (sound by the Lemma 5.3 argument: no completion can
        // score below the achievable minimum).
        let mut sigma_suffix = vec![1.0f64; k + 1];
        for i in (0..k).rev() {
            sigma_suffix[i] = pq.positions[i].best_sim() * sigma_suffix[i + 1];
        }

        let env = StepEnv {
            ctx: &ctx,
            pq,
            bounds: &bounds,
            lemma55: &lemma55,
            sigma_suffix: &sigma_suffix,
            memoise: self.cfg.expansion == Expansion::Memoised && watched.is_none(),
            crossing: watched.map(|(arcs, radius)| Crossing::new(arcs, &self.ws, radius)),
        };
        // Sound only when no PoI can match two positions (module docs).
        let grouping = self.cfg.expansion == Expansion::Grouped && lemma55.iter().all(|&f| f);
        let mut cache = SearchCache::new();
        let mut queue = RouteQueue::new(self.cfg.queue_policy);

        // Algorithm 1, line 4: search position 1 matches from the start.
        mdijkstra_step(
            &env,
            &mut self.scratch,
            &mut cache,
            &[PartialRoute::empty()],
            &mut queue,
            &mut skyline,
            &mut stats,
            true,
        );
        if let Some(sink) = sink.as_deref_mut() {
            emitter.flush(&skyline, sink);
        }

        // Algorithm 1, lines 5–9, one group of same-class routes at a time.
        // The deadline is polled every `DEADLINE_CHECK_EVERY` routes taken
        // off the queue: `Instant::now` per route would be measurable on
        // hit-dominated workloads, and a handful of overshot expansions
        // cannot hurt correctness — the skyline only tightens.
        let mut truncated = false;
        // Start one shy of the period so the very first pop polls: an
        // already-expired deadline must truncate before any expansion.
        let mut taken_since_check = DEADLINE_CHECK_EVERY - 1;
        let mut group: Vec<PartialRoute> = Vec::new();
        'search: while let Some(head) = queue.pop() {
            group.clear();
            let (len, sim_acc) = (head.len(), head.sim_acc());
            let mut next = Some(head);
            while let Some(rd) = next {
                if let Some(deadline) = self.deadline {
                    taken_since_check += 1;
                    if taken_since_check >= DEADLINE_CHECK_EVERY {
                        taken_since_check = 0;
                        if Instant::now() >= deadline {
                            truncated = true;
                            break 'search;
                        }
                    }
                }
                // Re-check against the (possibly improved) threshold before
                // spending a search on a stale route.
                if env.prunes(&rd, skyline.threshold(env.min_semantic(&rd))) {
                    stats.threshold_prunes += 1;
                } else {
                    group.push(rd);
                }
                next = if grouping { queue.pop_class(len, sim_acc) } else { None };
            }
            if group.is_empty() {
                continue;
            }
            mdijkstra_step(
                &env,
                &mut self.scratch,
                &mut cache,
                &group,
                &mut queue,
                &mut skyline,
                &mut stats,
                false,
            );
            if let Some(sink) = sink.as_deref_mut() {
                emitter.flush(&skyline, sink);
            }
        }

        stats.total_time = t0.elapsed();
        BssrResult { routes: skyline.into_routes(), stats, truncated }
    }
}

/// Per position, whether the Lemma 5.5 rules are sound for it: no PoI
/// matching it can match another position (see the module docs).
fn lemma55_flags(pq: &PreparedQuery) -> Vec<bool> {
    let ps = &pq.positions;
    let shares = |i: usize, j: usize| ps[i].carried_trees.iter().any(|t| ps[j].trees.contains(t));
    (0..ps.len()).map(|i| (0..ps.len()).all(|j| i == j || !shares(i, j))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example::PaperExample;
    use skysr_graph::{Cost, VertexId};

    fn expect_paper_skyline(routes: &[SkylineRoute]) {
        assert_eq!(routes.len(), 2, "got {routes:?}");
        // Sorted by length: ⟨p6, p9, p8⟩ (11, 0.5) then ⟨p10, p12, p13⟩ (13, 0).
        assert_eq!(routes[0].pois, vec![VertexId(6), VertexId(9), VertexId(8)]);
        assert_eq!(routes[0].length, Cost::new(11.0));
        assert_eq!(routes[0].semantic, 0.5);
        assert_eq!(routes[1].pois, vec![VertexId(10), VertexId(12), VertexId(13)]);
        assert_eq!(routes[1].length, Cost::new(13.0));
        assert_eq!(routes[1].semantic, 0.0);
    }

    #[test]
    fn default_config_reproduces_table_4_final_state() {
        let ex = PaperExample::new();
        let ctx = ex.context();
        let mut bssr = Bssr::new(&ctx);
        let result = bssr.run(&ex.query()).unwrap();
        expect_paper_skyline(&result.routes);
    }

    #[test]
    fn every_ablation_returns_the_same_skyline() {
        let ex = PaperExample::new();
        let ctx = ex.context();
        // The default is the paper's BSSR without Optimisation 3 and with
        // grouped instead of memoised expansion; each other optimisation is
        // ablated from the paper's, and grouping is crossed with each.
        let grouped = BssrConfig::default();
        let configs = [
            grouped,
            BssrConfig::paper(),
            BssrConfig::unoptimized(),
            BssrConfig { use_init_search: false, ..BssrConfig::paper() },
            BssrConfig { queue_policy: QueuePolicy::DistanceBased, ..BssrConfig::paper() },
            BssrConfig { expansion: Expansion::PerRoute, ..BssrConfig::paper() },
            BssrConfig { use_init_search: false, ..grouped },
            BssrConfig { queue_policy: QueuePolicy::DistanceBased, ..grouped },
            BssrConfig { lower_bound: LowerBoundMode::Full, ..grouped },
        ];
        for cfg in configs {
            let mut bssr = Bssr::with_config(&ctx, cfg);
            let result = bssr.run(&ex.query()).unwrap();
            expect_paper_skyline(&result.routes);
        }
    }

    #[test]
    fn same_class_routes_share_one_search_and_keep_the_skyline() {
        // Without NNinit every Asian restaurant within reach is queued at
        // similarity 1, so the second step expands several routes at once.
        let ex = PaperExample::new();
        let ctx = ex.context();
        for base in [BssrConfig::default(), BssrConfig::unoptimized()] {
            let cfg = BssrConfig { use_init_search: false, expansion: Expansion::Grouped, ..base };
            let grouped = Bssr::with_config(&ctx, cfg).run(&ex.query()).unwrap();
            let per_route = BssrConfig { expansion: Expansion::PerRoute, ..cfg };
            let single = Bssr::with_config(&ctx, per_route).run(&ex.query()).unwrap();
            expect_paper_skyline(&grouped.routes);
            assert_eq!(grouped.routes, single.routes, "{cfg:?}");
            assert!(grouped.stats.grouped_routes > 0, "{cfg:?}: no group formed");
            assert_eq!(single.stats.grouped_routes, 0);
            assert!(grouped.stats.mdijkstra_runs < single.stats.mdijkstra_runs, "{cfg:?}");
            assert!(grouped.stats.search.settled < single.stats.search.settled, "{cfg:?}");
        }
    }

    #[test]
    fn positions_that_can_share_a_poi_never_group() {
        // ⟨Gift, Hobby⟩ draws both positions from the Shop tree: a Gift
        // route's prefix could hold the Hobby match another route needs.
        let ex = PaperExample::new();
        let ctx = ex.context();
        let gift = ex.forest.by_name("Gift Shop").unwrap();
        let hobby = ex.forest.by_name("Hobby Shop").unwrap();
        let q = SkySrQuery::new(ex.vq, [gift, hobby]);
        let pq = PreparedQuery::prepare(&ctx, &q).unwrap();
        assert_eq!(lemma55_flags(&pq), vec![false, false]);
        let cfg = BssrConfig { use_init_search: false, ..BssrConfig::default() };
        let grouped = Bssr::with_config(&ctx, cfg).run_prepared(&pq);
        assert_eq!(grouped.stats.grouped_routes, 0);
        let per_route = BssrConfig { expansion: Expansion::PerRoute, ..cfg };
        let single = Bssr::with_config(&ctx, per_route).run_prepared(&pq);
        assert_eq!(grouped.routes, single.routes);
        assert_eq!(grouped.stats.profile(), single.stats.profile(), "the same per-route search");
        assert_eq!(lemma55_flags(&ex.prepared(&ctx)), vec![true; 3]);
    }

    #[test]
    fn observed_run_streams_each_provisional_point_once_dominated_by_final() {
        let ex = PaperExample::new();
        let ctx = ex.context();
        let mut bssr = Bssr::new(&ctx);
        let mut provisional: Vec<SkylineRoute> = Vec::new();
        let pq = PreparedQuery::prepare(&ctx, &ex.query()).unwrap();
        let result = bssr.run_prepared_observed(
            &pq,
            &[],
            Some(&mut |r: &SkylineRoute| provisional.push(r.clone())),
        );
        expect_paper_skyline(&result.routes);
        assert!(!provisional.is_empty(), "the search proves points before completion");
        for (i, p) in provisional.iter().enumerate() {
            assert!(!provisional[..i].contains(p), "route streamed twice: {p:?}");
            assert!(
                result
                    .routes
                    .iter()
                    .any(|f| f.length.get() <= p.length.get() && f.semantic <= p.semantic),
                "provisional point not dominated-or-equal by the final skyline: {p:?}"
            );
        }
        // The final members themselves were all streamed on the way.
        for f in &result.routes {
            assert!(provisional.contains(f), "final member never streamed: {f:?}");
        }
        // Observing changes nothing about the answer.
        let unobserved = bssr.run(&ex.query()).unwrap();
        assert_eq!(unobserved.routes, result.routes);
    }

    #[test]
    fn expired_deadline_truncates_to_a_valid_partial_skyline() {
        use std::time::Duration;
        let ex = PaperExample::new();
        let ctx = ex.context();
        // Unoptimized config: no NNinit and no pruning bounds, so the queue
        // is guaranteed non-empty when the deadline is polled.
        let mut bssr = Bssr::with_config(&ctx, BssrConfig::unoptimized());
        let exact = bssr.run(&ex.query()).unwrap();
        assert!(!exact.truncated);

        bssr.set_deadline(Some(Instant::now() - Duration::from_millis(1)));
        let partial = bssr.run(&ex.query()).unwrap();
        assert!(partial.truncated, "expired deadline must truncate the run");
        // Every partial member is a genuine route dominated-or-equal by the
        // exact skyline, and the partial is itself mutually non-dominated.
        for p in &partial.routes {
            assert!(
                exact
                    .routes
                    .iter()
                    .any(|f| f.length.get() <= p.length.get() && f.semantic <= p.semantic),
                "partial route not dominated-or-equal by exact skyline: {p:?}"
            );
            assert!(
                !partial.routes.iter().any(|q| q != p
                    && q.length.get() <= p.length.get()
                    && q.semantic <= p.semantic
                    && (q.length.get() < p.length.get() || q.semantic < p.semantic)),
                "partial skyline contains a dominated member: {p:?}"
            );
        }

        // A generous deadline changes nothing, and clearing it disarms.
        bssr.set_deadline(Some(Instant::now() + Duration::from_secs(60)));
        let relaxed = bssr.run(&ex.query()).unwrap();
        assert!(!relaxed.truncated);
        assert_eq!(relaxed.routes, exact.routes);
        bssr.set_deadline(None);
        let cleared = bssr.run(&ex.query()).unwrap();
        assert!(!cleared.truncated);
        assert_eq!(cleared.routes, exact.routes);
    }

    #[test]
    fn stats_reflect_optimisations() {
        let ex = PaperExample::new();
        let ctx = ex.context();
        let with = Bssr::new(&ctx).run(&ex.query()).unwrap().stats;
        let without =
            Bssr::with_config(&ctx, BssrConfig::unoptimized()).run(&ex.query()).unwrap().stats;
        // The initial search must shrink the first step's search space.
        assert!(with.first_mdijkstra_weight_sum <= without.first_mdijkstra_weight_sum);
        assert_eq!(with.init_routes, 2);
        assert_eq!(without.init_routes, 0);
        // The optimised run prunes routes the plain run must enqueue.
        assert!(with.routes_enqueued <= without.routes_enqueued);
    }

    #[test]
    fn recycled_scratch_matches_fresh_engine() {
        // Runs on a scratch that earlier searches left behind must match a
        // fresh engine's; the stamps' wrap-around is tested in skysr-graph,
        // where the records live.
        let ex = PaperExample::new();
        let ctx = ex.context();
        let full = ex.query();
        let gift = ex.forest.by_name("Gift Shop").unwrap();
        let hobby = ex.forest.by_name("Hobby Shop").unwrap();
        let queries = [
            full.clone(),
            SkySrQuery::with_positions(full.start, full.sequence[1..].to_vec()),
            SkySrQuery::new(ex.p(2), [gift, hobby]),
        ];
        let no_init = BssrConfig { use_init_search: false, ..BssrConfig::default() };
        for cfg in [BssrConfig::default(), no_init, BssrConfig::paper(), BssrConfig::unoptimized()]
        {
            let mut scratch = BssrScratch::new(4);
            let mut grouped_routes = 0;
            for round in 0..3 {
                for q in &queries {
                    let mut engine = Bssr::with_scratch(&ctx, cfg, scratch);
                    let got = engine.run(q).unwrap();
                    scratch = engine.into_scratch();
                    let fresh = Bssr::with_config(&ctx, cfg).run(q).unwrap();
                    assert_eq!(got.routes, fresh.routes, "{cfg:?} round {round} on {q:?}");
                    assert_eq!(got.stats.profile(), fresh.stats.profile(), "{cfg:?} on {q:?}");
                    grouped_routes += got.stats.grouped_routes;
                }
            }
            // The grouped engines ran shared searches on the recycled scratch.
            let grouped = grouped_routes > 0;
            assert_eq!(grouped, cfg.expansion == Expansion::Grouped, "{cfg:?}");
        }
    }

    #[test]
    fn single_position_query() {
        let ex = PaperExample::new();
        let ctx = ex.context();
        let gift = ex.forest.by_name("Gift Shop").unwrap();
        let mut bssr = Bssr::new(&ctx);
        let result = bssr.run(&SkySrQuery::new(ex.vq, [gift])).unwrap();
        // Nearest gift shop: p8 via p1/p6–p9 (7 + 3 + 1.5 = 11.5 or
        // 7.5 + 2 + 1.5 = 11). Nearest hobby (sem 0.5): p7 at 12 — longer
        // AND semantically worse → dominated. Skyline = the perfect route.
        assert_eq!(result.routes.len(), 1);
        assert_eq!(result.routes[0].pois, vec![VertexId(8)]);
        assert_eq!(result.routes[0].length, Cost::new(11.0));
        assert_eq!(result.routes[0].semantic, 0.0);
    }

    #[test]
    fn unmatchable_query_returns_empty() {
        let ex = PaperExample::new();
        let ctx = ex.context();
        // Food tree has no PoIs for a query on a fresh forest category? Use
        // a sequence with an A&E position twice: matchable. Instead craft a
        // forest category with no PoIs: "Shop & Service" root itself has
        // PoIs (gift/hobby), so use a new forest-less approach: query a
        // category whose tree has PoIs but an impossible requirement.
        use skysr_category::Requirement;
        let gift = ex.forest.by_name("Gift Shop").unwrap();
        let hobby = ex.forest.by_name("Hobby Shop").unwrap();
        let shop = ex.forest.by_name("Shop & Service").unwrap();
        // Require Shop tree but exclude the whole Shop subtree → matches
        // nothing.
        let req = Requirement::category(gift).but_not(shop);
        let q = SkySrQuery::with_positions(
            ex.vq,
            [crate::query::PositionSpec::Requirement(req), hobby.into()],
        );
        let mut bssr = Bssr::new(&ctx);
        let result = bssr.run(&q).unwrap();
        assert!(result.routes.is_empty());
    }

    #[test]
    fn same_tree_positions_remain_exact() {
        // Both positions draw from the Shop tree: Lemma 5.5 is disabled for
        // them and the result must still be the exact skyline. Query:
        // ⟨Gift, Hobby⟩ from vq.
        let ex = PaperExample::new();
        let ctx = ex.context();
        let gift = ex.forest.by_name("Gift Shop").unwrap();
        let hobby = ex.forest.by_name("Hobby Shop").unwrap();
        let q = SkySrQuery::new(ex.vq, [gift, hobby]);
        let mut bssr = Bssr::new(&ctx);
        let fast = bssr.run(&q).unwrap();
        let slow = Bssr::with_config(&ctx, BssrConfig::unoptimized()).run(&q).unwrap();
        assert_eq!(fast.routes, slow.routes);
        // All returned routes have distinct PoIs.
        for r in &fast.routes {
            let mut pois = r.pois.clone();
            pois.sort_unstable();
            pois.dedup();
            assert_eq!(pois.len(), r.pois.len());
        }
        assert!(!fast.routes.is_empty());
    }

    #[test]
    fn start_on_a_matching_poi() {
        // Start the query on p2 (an Asian restaurant) asking for
        // ⟨Asian, A&E⟩: p2 itself must be usable at distance 0.
        let ex = PaperExample::new();
        let ctx = ex.context();
        let asian = ex.forest.by_name("Asian Restaurant").unwrap();
        let arts = ex.forest.by_name("Arts & Entertainment").unwrap();
        let mut bssr = Bssr::new(&ctx);
        let result = bssr.run(&SkySrQuery::new(ex.p(2), [asian, arts])).unwrap();
        assert!(result.routes.iter().any(|r| r.pois[0] == ex.p(2) && r.length == Cost::new(4.0)));
    }

    #[test]
    fn warm_start_with_foreign_prefix_stays_exact() {
        use crate::route::equivalent_skylines;
        let ex = PaperExample::new();
        let ctx = ex.context();
        // A one-position skyline computed for a *different* first position
        // (Gift instead of Hobby) from the same start: no route of it is a
        // full-length route of this query, so the run degrades to a cold
        // one and returns the exact skyline.
        let gift = ex.forest.by_name("Gift Shop").unwrap();
        let hobby = ex.forest.by_name("Hobby Shop").unwrap();
        let mut bssr = Bssr::new(&ctx);
        let foreign = bssr.run(&SkySrQuery::new(ex.vq, [gift])).unwrap().routes;
        let q = SkySrQuery::new(ex.vq, [hobby, gift]);
        let cold = bssr.run(&q).unwrap();
        let warm = bssr.run_prepared_warm(&PreparedQuery::prepare(&ctx, &q).unwrap(), &foreign);
        assert!(
            equivalent_skylines(&warm.routes, &cold.routes),
            "warm {:?} vs cold {:?}",
            warm.routes,
            cold.routes
        );
    }

    #[test]
    fn queue_policy_affects_visits_not_results() {
        let ex = PaperExample::new();
        let ctx = ex.context();
        let proposed = Bssr::new(&ctx).run(&ex.query()).unwrap();
        let distance = Bssr::with_config(
            &ctx,
            BssrConfig { queue_policy: QueuePolicy::DistanceBased, ..BssrConfig::default() },
        )
        .run(&ex.query())
        .unwrap();
        assert_eq!(proposed.routes, distance.routes);
    }
}
