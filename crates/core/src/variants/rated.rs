//! Multi-attribute SkySR: length × semantics × PoI **ratings** — the
//! extension the paper sketches in §9 ("the SkySR query … could be
//! extended to consider many attributes of a PoI (e.g., text, keywords,
//! and ratings)"), with the rating treatment of the *personalized
//! sequenced route* work it cites \[4\].
//!
//! Each PoI carries a quality rating in `[0, 1]`. A route's **rating
//! score** is the mean rating *deficit* `(Σ (1 − rating(p_i))) / |S_q|` —
//! 0 when every stop is top-rated, approaching 1 for all-bottom routes —
//! so all three scores share the "smaller is better" orientation and the
//! skyline generalises to 3-way dominance.
//!
//! The variants' search (see [`super`]) finds this skyline, summing the
//! deficits along each route; exactness is property-tested against an
//! exhaustive oracle.

use skysr_graph::{Cost, VertexId};

use super::{search, Fill};
use crate::context::QueryContext;
use crate::error::QueryError;
use crate::prepared::PreparedQuery;
use crate::query::SkySrQuery;
use crate::route::approx_le;
use crate::stats::QueryStats;

/// Per-vertex PoI ratings in `[0, 1]` (1 = best). Non-PoI entries are
/// ignored.
#[derive(Clone, Debug)]
pub struct RatingTable {
    ratings: Vec<f64>,
}

impl RatingTable {
    /// Builds a table for `num_vertices` vertices, all rated `default`.
    pub fn new(num_vertices: usize, default: f64) -> RatingTable {
        assert!((0.0..=1.0).contains(&default));
        RatingTable { ratings: vec![default; num_vertices] }
    }

    /// Sets the rating of vertex `v`.
    pub fn set(&mut self, v: VertexId, rating: f64) {
        assert!((0.0..=1.0).contains(&rating), "rating {rating} out of range");
        self.ratings[v.index()] = rating;
    }

    /// Rating of vertex `v`.
    #[inline]
    pub fn get(&self, v: VertexId) -> f64 {
        self.ratings[v.index()]
    }
}

/// A route scored on all three axes.
#[derive(Clone, Debug, PartialEq)]
pub struct RatedRoute {
    /// PoIs in visiting order.
    pub pois: Vec<VertexId>,
    /// Length score.
    pub length: Cost,
    /// Semantic score.
    pub semantic: f64,
    /// Rating-deficit score (0 = all stops top-rated).
    pub rating: f64,
}

impl RatedRoute {
    /// 3-way dominance: at least as good everywhere, strictly better
    /// somewhere (epsilon-aware like the 2-D case).
    pub fn dominates(&self, other: &RatedRoute) -> bool {
        self.no_worse(other) && !other.no_worse(self)
    }

    fn no_worse(&self, other: &RatedRoute) -> bool {
        approx_le(self.length.get(), other.length.get())
            && approx_le(self.semantic, other.semantic)
            && approx_le(self.rating, other.rating)
    }
}

/// A SkySR query additionally scored on PoI ratings.
#[derive(Clone, Debug)]
pub struct RatedQuery {
    /// The underlying start + category sequence.
    pub query: SkySrQuery,
}

/// Result of a rated query.
#[derive(Clone, Debug)]
pub struct RatedResult {
    /// The 3-D skyline, sorted by length, then semantic score, then rating
    /// score.
    pub routes: Vec<RatedRoute>,
    /// Instrumentation.
    pub stats: QueryStats,
}

impl RatedQuery {
    /// Convenience constructor.
    pub fn new(query: SkySrQuery) -> RatedQuery {
        RatedQuery { query }
    }

    /// Runs the three-criteria skyline search.
    pub fn run(
        &self,
        ctx: &QueryContext<'_>,
        ratings: &RatingTable,
    ) -> Result<RatedResult, QueryError> {
        let deficit = |p| 1.0 - ratings.get(p);
        let (members, stats) = search(ctx, &self.query, Fill::InOrder, deficit, 1)?;
        let k = self.query.len() as f64;
        let routes = members
            .into_iter()
            .map(|m| RatedRoute {
                pois: m.route.pois,
                length: m.route.length,
                semantic: m.route.semantic,
                rating: m.extra / k,
            })
            .collect();
        Ok(RatedResult { routes, stats })
    }
}

/// Exhaustive 3-D oracle for testing: every sequenced route (the
/// enumeration of [`crate::naive::naive_skysr`]) that no other dominates,
/// one per score triple, sorted like [`RatedResult::routes`].
pub fn naive_rated(
    ctx: &QueryContext<'_>,
    ratings: &RatingTable,
    query: &SkySrQuery,
    limit: u64,
) -> Result<Vec<RatedRoute>, QueryError> {
    let pq = PreparedQuery::prepare(ctx, query)?;
    let k = pq.len() as f64;
    let all: Vec<RatedRoute> = crate::naive::naive_all_routes(ctx, &pq, limit)
        .into_iter()
        .map(|r| {
            let deficit: f64 = r.pois.iter().map(|&p| 1.0 - ratings.get(p)).sum();
            RatedRoute { pois: r.pois, length: r.length, semantic: r.semantic, rating: deficit / k }
        })
        .collect();
    let mut out: Vec<RatedRoute> = Vec::new();
    for r in &all {
        if !all.iter().any(|o| o.dominates(r))
            && !out.iter().any(|o| o.no_worse(r) && r.no_worse(o))
        {
            out.push(r.clone());
        }
    }
    out.sort_by(|a, b| {
        a.length
            .cmp(&b.length)
            .then(a.semantic.total_cmp(&b.semantic))
            .then(a.rating.total_cmp(&b.rating))
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example::PaperExample;

    fn ratings_for(ex: &PaperExample) -> RatingTable {
        let mut t = RatingTable::new(ex.graph.num_vertices(), 0.5);
        // Make the hobby shop p7 outstanding and the gift shop p8 poor:
        // rating now differentiates routes the 2-D skyline collapsed.
        t.set(ex.p(7), 1.0);
        t.set(ex.p(8), 0.1);
        t.set(ex.p(13), 0.9);
        t
    }

    #[test]
    fn matches_oracle_on_fixture() {
        let ex = PaperExample::new();
        let ctx = ex.context();
        let ratings = ratings_for(&ex);
        let q = RatedQuery::new(ex.query());
        let got = q.run(&ctx, &ratings).unwrap();
        let want = naive_rated(&ctx, &ratings, &ex.query(), 1_000_000).unwrap();
        assert_eq!(got.routes.len(), want.len(), "{:?}\nvs\n{:?}", got.routes, want);
        for (g, w) in got.routes.iter().zip(&want) {
            assert!((g.length.get() - w.length.get()).abs() < 1e-9);
            assert!((g.semantic - w.semantic).abs() < 1e-12);
            assert!((g.rating - w.rating).abs() < 1e-12);
        }
    }

    #[test]
    fn third_criterion_grows_the_skyline() {
        // With ratings, routes dominated in 2-D can survive by quality:
        // the 3-D skyline is a superset of the 2-D one score-wise.
        let ex = PaperExample::new();
        let ctx = ex.context();
        let ratings = ratings_for(&ex);
        let two_d = crate::bssr::Bssr::new(&ctx).run(&ex.query()).unwrap();
        let three_d = RatedQuery::new(ex.query()).run(&ctx, &ratings).unwrap();
        assert!(three_d.routes.len() >= two_d.routes.len());
        // The high-rated hobby-shop route ⟨p2, p5, p7⟩ (dominated in 2-D
        // by ⟨p6, p9, p8⟩) reappears thanks to p7's perfect rating.
        assert!(three_d.routes.iter().any(|r| r.pois == vec![ex.p(2), ex.p(5), ex.p(7)]));
    }

    #[test]
    fn uniform_ratings_collapse_to_2d_skyline() {
        let ex = PaperExample::new();
        let ctx = ex.context();
        let ratings = RatingTable::new(ex.graph.num_vertices(), 0.7);
        let two_d = crate::bssr::Bssr::new(&ctx).run(&ex.query()).unwrap();
        let three_d = RatedQuery::new(ex.query()).run(&ctx, &ratings).unwrap();
        // Every route has the same rating score → the third axis is inert.
        assert_eq!(three_d.routes.len(), two_d.routes.len());
        for (g, w) in three_d.routes.iter().zip(&two_d.routes) {
            assert_eq!(g.length, w.length);
            assert_eq!(g.pois, w.pois);
        }
    }

    #[test]
    fn rated_routes_are_pairwise_nondominated() {
        let ex = PaperExample::new();
        let ctx = ex.context();
        let ratings = ratings_for(&ex);
        let result = RatedQuery::new(ex.query()).run(&ctx, &ratings).unwrap();
        for (i, a) in result.routes.iter().enumerate() {
            for (j, b) in result.routes.iter().enumerate() {
                if i != j {
                    assert!(!a.dominates(b), "{a:?} dominates {b:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_rating_rejected() {
        let mut t = RatingTable::new(3, 0.5);
        t.set(VertexId(0), 1.5);
    }
}
