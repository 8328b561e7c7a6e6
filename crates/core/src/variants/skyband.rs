//! k-skyband sequenced routes — the standard skyline relaxation from the
//! literature the paper builds on (Börzsöny et al. \[2\]): return every
//! sequenced route dominated by **fewer than k** other routes. `k = 1` is
//! exactly the SkySR query; larger `k` gives the user near-Pareto
//! alternatives (useful when, as §7.4 notes, the plain skyline can be
//! small).
//!
//! The bulk search carries over from BSSR with one change to the pruning
//! theory: a (partial) route may be discarded only when **at least k**
//! already-found sequenced routes dominate-or-tie its score pair —
//! equivalently, when its length reaches the *k-th smallest* qualifying
//! member length, `l̄_k(s) = k-min { l(R') | s(R') ≤ s }`. Completed
//! routes are never evicted during the search (a later route cannot reduce
//! an earlier route's dominator count); the final skyband is filtered from
//! the collected pool, which is provably a superset of the true k-skyband:
//! any pruned route had ≥ k pool dominators, and dominance is transitive,
//! so pruned routes can never hide a needed dominator. Score-equivalent
//! duplicates collapse to the first found (as in Definition 4.1's minimal
//! set).
//!
//! Lemma 5.5's path-similarity shortcut exhibits only a *single*
//! dominating replacement, which no longer justifies discarding a route
//! for `k > 1`, so it stays off here.

use std::time::Instant;

use skysr_graph::{dijkstra_with, Cost, DijkstraWorkspace, Settle, VertexId};

use crate::bssr::queue::{QueuePolicy, RouteQueue};
use crate::context::QueryContext;
use crate::error::QueryError;
use crate::prepared::PreparedQuery;
use crate::query::SkySrQuery;
use crate::route::{approx_le, PartialRoute, SkylineRoute};
use crate::stats::QueryStats;

/// Pool of completed routes with k-threshold queries.
#[derive(Debug, Default)]
struct SkybandPool {
    routes: Vec<SkylineRoute>,
}

impl SkybandPool {
    /// Number of members dominating-or-tying the score pair.
    fn covering_count(&self, length: Cost, semantic: f64) -> usize {
        self.routes
            .iter()
            .filter(|r| approx_le(r.length.get(), length.get()) && approx_le(r.semantic, semantic))
            .count()
    }

    /// `l̄_k(s)`: the k-th smallest member length among members with
    /// semantic ≤ `semantic`; `+∞` if fewer than `k` qualify.
    fn threshold_k(&self, semantic: f64, k: usize) -> Cost {
        let mut lens: Vec<Cost> =
            self.routes.iter().filter(|r| r.semantic <= semantic).map(|r| r.length).collect();
        if lens.len() < k {
            return Cost::INFINITY;
        }
        lens.sort_unstable();
        lens[k - 1]
    }

    /// Inserts unless ≥ k members already cover the score pair. Note that
    /// *ties count as cover*: score-equivalent routes are distinct
    /// dominator-count contributors in the skyband definition, so up to k
    /// equivalents are retained (more can never change any decision); the
    /// final output keeps one representative per score (Definition 4.1's
    /// minimal-set convention).
    fn insert(&mut self, route: SkylineRoute, k: usize) -> bool {
        if self.covering_count(route.length, route.semantic) >= k {
            return false;
        }
        self.routes.push(route);
        true
    }

    /// Final exact filter: members dominated by fewer than `k` pool
    /// members, one representative per score pair.
    fn into_skyband(self, k: usize) -> Vec<SkylineRoute> {
        let mut out: Vec<SkylineRoute> = Vec::new();
        for r in &self.routes {
            if self.routes.iter().filter(|o| o.dominates(r)).count() < k
                && !out.iter().any(|o| o.equivalent(r))
            {
                out.push(r.clone());
            }
        }
        out.sort_by(|a, b| a.length.cmp(&b.length).then(a.semantic.total_cmp(&b.semantic)));
        out
    }
}

/// A k-skyband sequenced-route query.
#[derive(Clone, Debug, PartialEq)]
pub struct SkybandQuery {
    /// The underlying start + category sequence.
    pub query: SkySrQuery,
    /// Dominance budget: routes with fewer than `k` dominators qualify
    /// (`k = 1` reproduces the SkySR query).
    pub k: usize,
}

/// Result of a skyband query.
#[derive(Clone, Debug)]
pub struct SkybandResult {
    /// The k-skyband, sorted by (length, semantic).
    pub routes: Vec<SkylineRoute>,
    /// Instrumentation.
    pub stats: QueryStats,
}

impl SkybandQuery {
    /// Convenience constructor.
    pub fn new(query: SkySrQuery, k: usize) -> SkybandQuery {
        SkybandQuery { query, k }
    }

    /// Runs the bulk k-skyband search.
    pub fn run(&self, ctx: &QueryContext<'_>) -> Result<SkybandResult, QueryError> {
        assert!(self.k >= 1, "k must be at least 1");
        let t0 = Instant::now();
        let pq = PreparedQuery::prepare(ctx, &self.query)?;
        let seq_len = pq.len();
        let mut stats = QueryStats::default();
        if pq.unmatchable_position().is_some() {
            return Ok(SkybandResult { routes: Vec::new(), stats });
        }
        let mut pool = SkybandPool::default();
        let mut ws = DijkstraWorkspace::new(ctx.graph.num_vertices());
        let mut queue = RouteQueue::new(QueuePolicy::Proposed);
        self.expand(
            ctx,
            &pq,
            &PartialRoute::empty(),
            seq_len,
            &mut ws,
            &mut queue,
            &mut pool,
            &mut stats,
        );
        while let Some(route) = queue.pop() {
            if route.length() >= pool.threshold_k(route.semantic(), self.k) {
                stats.threshold_prunes += 1;
                continue;
            }
            self.expand(ctx, &pq, &route, seq_len, &mut ws, &mut queue, &mut pool, &mut stats);
        }
        let routes = pool.into_skyband(self.k);
        stats.total_time = t0.elapsed();
        Ok(SkybandResult { routes, stats })
    }

    #[allow(clippy::too_many_arguments)]
    fn expand(
        &self,
        ctx: &QueryContext<'_>,
        pq: &PreparedQuery,
        route: &PartialRoute,
        seq_len: usize,
        ws: &mut DijkstraWorkspace,
        queue: &mut RouteQueue,
        pool: &mut SkybandPool,
        stats: &mut QueryStats,
    ) {
        let pos = route.len();
        let position = &pq.positions[pos];
        let source = route.last_poi().unwrap_or(pq.start);
        let base = route.length();
        stats.mdijkstra_runs += 1;
        let threshold = pool.threshold_k(route.semantic(), self.k);
        let mut found: Vec<(VertexId, Cost, f64)> = Vec::new();
        let s = dijkstra_with(ctx.graph, ws, &[(source, Cost::ZERO)], |u, d| {
            if base + d >= threshold {
                return Settle::Stop;
            }
            let sim = position.sim_of(ctx, u);
            if sim > 0.0 && !route.contains(u) {
                found.push((u, d, sim));
            }
            Settle::Continue
        });
        stats.search.merge(&s);
        for (u, d, sim) in found {
            let rt = route.extend(u, d, sim);
            if rt.length() >= pool.threshold_k(rt.semantic(), self.k) {
                stats.threshold_prunes += 1;
                continue;
            }
            if rt.len() == seq_len {
                pool.insert(rt.into_skyline_route(), self.k);
            } else {
                queue.push(rt);
                stats.routes_enqueued += 1;
                stats.queue_peak = stats.queue_peak.max(queue.len());
            }
        }
    }
}

/// Exhaustive oracle: enumerate all sequenced routes, count strict
/// dominators, keep those with fewer than `k`, collapsing score twins.
pub fn naive_skyband(
    ctx: &QueryContext<'_>,
    query: &SkySrQuery,
    k: usize,
    limit: u64,
) -> Result<Vec<SkylineRoute>, QueryError> {
    let pq = PreparedQuery::prepare(ctx, query)?;
    let all = crate::naive::naive_all_routes(ctx, &pq, limit);
    let mut out: Vec<SkylineRoute> = Vec::new();
    for r in &all {
        if all.iter().filter(|o| o.dominates(r)).count() < k && !out.iter().any(|o| o.equivalent(r))
        {
            out.push(r.clone());
        }
    }
    out.sort_by(|a, b| a.length.cmp(&b.length).then(a.semantic.total_cmp(&b.semantic)));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bssr::Bssr;
    use crate::paper_example::PaperExample;

    fn assert_same(got: &[SkylineRoute], want: &[SkylineRoute]) {
        assert_eq!(got.len(), want.len(), "{got:?}\nvs\n{want:?}");
        for (g, w) in got.iter().zip(want) {
            assert!((g.length.get() - w.length.get()).abs() < 1e-9);
            assert!((g.semantic - w.semantic).abs() < 1e-12);
        }
    }

    #[test]
    fn k1_equals_skyline() {
        let ex = PaperExample::new();
        let ctx = ex.context();
        let sky = Bssr::new(&ctx).run(&ex.query()).unwrap();
        let band = SkybandQuery::new(ex.query(), 1).run(&ctx).unwrap();
        assert_same(&band.routes, &sky.routes);
    }

    #[test]
    fn k2_matches_oracle_and_extends_k1() {
        let ex = PaperExample::new();
        let ctx = ex.context();
        for k in [2usize, 3] {
            let band = SkybandQuery::new(ex.query(), k).run(&ctx).unwrap();
            let want = naive_skyband(&ctx, &ex.query(), k, 1_000_000).unwrap();
            assert_same(&band.routes, &want);
        }
        let k1 = SkybandQuery::new(ex.query(), 1).run(&ctx).unwrap();
        let k2 = SkybandQuery::new(ex.query(), 2).run(&ctx).unwrap();
        let k3 = SkybandQuery::new(ex.query(), 3).run(&ctx).unwrap();
        assert!(k2.routes.len() >= k1.routes.len());
        assert!(k3.routes.len() >= k2.routes.len());
        // On the fixture, k = 2 surfaces near-optimal alternatives like
        // ⟨p1, p9, p8⟩ (11.5, 0.5) and ⟨p2, p5, p7⟩ (12, 0.5).
        assert!(k2.routes.iter().any(|r| (r.length.get() - 11.5).abs() < 1e-9));
    }

    #[test]
    fn skyband_membership_counts_are_respected() {
        let ex = PaperExample::new();
        let ctx = ex.context();
        let band = SkybandQuery::new(ex.query(), 2).run(&ctx).unwrap();
        // Every member is dominated by at most one other member.
        for r in &band.routes {
            let dominators = band.routes.iter().filter(|o| o.dominates(r)).count();
            assert!(dominators < 2, "{r:?} has {dominators} dominators");
        }
    }

    #[test]
    fn single_position_skyband() {
        let ex = PaperExample::new();
        let ctx = ex.context();
        let gift = ex.forest.by_name("Gift Shop").unwrap();
        let q = SkySrQuery::new(ex.vq, [gift]);
        for k in 1..=3 {
            let band = SkybandQuery::new(q.clone(), k).run(&ctx).unwrap();
            let want = naive_skyband(&ctx, &q, k, 1_000_000).unwrap();
            assert_same(&band.routes, &want);
        }
    }
}
