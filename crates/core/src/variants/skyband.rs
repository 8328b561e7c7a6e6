//! k-skyband sequenced routes — the standard skyline relaxation from the
//! literature the paper builds on (Börzsöny et al. \[2\]): return every
//! sequenced route dominated by **fewer than k** other routes. `k = 1` is
//! exactly the SkySR query; larger `k` gives the user near-Pareto
//! alternatives (useful when, as §7.4 notes, the plain skyline can be
//! small).
//!
//! The variants' search (see [`super`]) finds the skyband with a band of
//! width `k`; exactness is property-tested against an exhaustive oracle.

use super::{search, Fill};
use crate::context::QueryContext;
use crate::error::QueryError;
use crate::prepared::PreparedQuery;
use crate::query::SkySrQuery;
use crate::route::SkylineRoute;
use crate::stats::QueryStats;

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
        let (members, stats) = search(ctx, &self.query, Fill::InOrder, |_| 0.0, self.k)?;
        Ok(SkybandResult { routes: members.into_iter().map(|m| m.route).collect(), stats })
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
