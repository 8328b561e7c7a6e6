//! Skyline trip planning without category order (§6).
//!
//! The user supplies a *set* of categories; a qualifying route visits one
//! matching PoI per category in any order. The variants' search (see
//! [`super`]) finds the exact unordered skyline, property-tested against a
//! permutation oracle.

use skysr_category::CategoryId;
use skysr_graph::VertexId;

use super::{search, Fill};
use crate::context::QueryContext;
use crate::dominance::skyline_of;
use crate::error::QueryError;
use crate::naive::naive_skysr;
use crate::prepared::PreparedQuery;
use crate::query::SkySrQuery;
use crate::route::SkylineRoute;
use crate::stats::QueryStats;

/// The most categories an unordered query may name: a route's filled
/// categories are a 16-bit mask.
pub const MAX_CATEGORIES: usize = 16;

/// An unordered skyline trip-planning query.
#[derive(Clone, Debug, PartialEq)]
pub struct UnorderedQuery {
    /// Start vertex.
    pub start: VertexId,
    /// Categories to cover (order irrelevant; at most [`MAX_CATEGORIES`]).
    pub categories: Vec<CategoryId>,
}

/// Result of an unordered query.
#[derive(Clone, Debug)]
pub struct UnorderedResult {
    /// Skyline routes; PoIs listed in visiting order.
    pub routes: Vec<SkylineRoute>,
    /// Instrumentation.
    pub stats: QueryStats,
}

impl UnorderedQuery {
    /// Convenience constructor.
    pub fn new(
        start: VertexId,
        categories: impl IntoIterator<Item = CategoryId>,
    ) -> UnorderedQuery {
        UnorderedQuery { start, categories: categories.into_iter().collect() }
    }

    /// Runs the unordered skyline search.
    ///
    /// # Panics
    ///
    /// If the query names more than [`MAX_CATEGORIES`] categories.
    pub fn run(&self, ctx: &QueryContext<'_>) -> Result<UnorderedResult, QueryError> {
        assert!(
            self.categories.len() <= MAX_CATEGORIES,
            "an unordered query names at most {MAX_CATEGORIES} categories"
        );
        // The ordered compiler builds the per-category tables; the order of
        // the positions is irrelevant here.
        let query = SkySrQuery::new(self.start, self.categories.clone());
        let (members, stats) = search(ctx, &query, Fill::Any, |_| 0.0, 1)?;
        Ok(UnorderedResult { routes: members.into_iter().map(|m| m.route).collect(), stats })
    }
}

/// Exhaustive oracle for the unordered query: the skyline over all
/// category orderings (each computed by the ordered oracle).
pub fn naive_unordered(
    ctx: &QueryContext<'_>,
    q: &UnorderedQuery,
    limit: u64,
) -> Result<Vec<SkylineRoute>, QueryError> {
    let mut all = Vec::new();
    let mut order: Vec<CategoryId> = q.categories.clone();
    permute(&mut order, 0, &mut |perm| {
        let pq = PreparedQuery::prepare(ctx, &SkySrQuery::new(q.start, perm.to_vec()))?;
        all.extend(naive_skysr(ctx, &pq, limit));
        Ok(())
    })?;
    Ok(skyline_of(all))
}

fn permute<E>(
    items: &mut [CategoryId],
    at: usize,
    f: &mut impl FnMut(&[CategoryId]) -> Result<(), E>,
) -> Result<(), E> {
    if at == items.len() {
        return f(items);
    }
    for i in at..items.len() {
        items.swap(at, i);
        permute(items, at + 1, f)?;
        items.swap(at, i);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example::PaperExample;

    #[test]
    fn unordered_never_worse_than_ordered() {
        let ex = PaperExample::new();
        let ctx = ex.context();
        let asian = ex.forest.by_name("Asian Restaurant").unwrap();
        let arts = ex.forest.by_name("Arts & Entertainment").unwrap();
        let gift = ex.forest.by_name("Gift Shop").unwrap();
        let unordered = UnorderedQuery::new(ex.vq, [asian, arts, gift]).run(&ctx).unwrap();
        let ordered = crate::bssr::Bssr::new(&ctx).run(&ex.query()).unwrap();
        // Every ordered route is a feasible unordered route, so the best
        // unordered perfect route is at most the ordered one.
        let best_u = unordered.routes.iter().filter(|r| r.semantic == 0.0).map(|r| r.length).min();
        let best_o = ordered.routes.iter().filter(|r| r.semantic == 0.0).map(|r| r.length).min();
        assert!(best_u.unwrap() <= best_o.unwrap());
    }

    #[test]
    fn matches_permutation_oracle() {
        let ex = PaperExample::new();
        let ctx = ex.context();
        let asian = ex.forest.by_name("Asian Restaurant").unwrap();
        let arts = ex.forest.by_name("Arts & Entertainment").unwrap();
        let gift = ex.forest.by_name("Gift Shop").unwrap();
        let q = UnorderedQuery::new(ex.vq, [asian, arts, gift]);
        let got = q.run(&ctx).unwrap();
        let want = naive_unordered(&ctx, &q, crate::naive::DEFAULT_CANDIDATE_LIMIT).unwrap();
        assert_eq!(got.routes, want);
    }

    #[test]
    fn two_category_unordered() {
        let ex = PaperExample::new();
        let ctx = ex.context();
        let arts = ex.forest.by_name("Arts & Entertainment").unwrap();
        let gift = ex.forest.by_name("Gift Shop").unwrap();
        let q = UnorderedQuery::new(ex.vq, [gift, arts]);
        let got = q.run(&ctx).unwrap();
        let want = naive_unordered(&ctx, &q, crate::naive::DEFAULT_CANDIDATE_LIMIT).unwrap();
        assert_eq!(got.routes, want);
        assert!(!got.routes.is_empty());
    }

    #[test]
    fn single_category_equals_ordered() {
        let ex = PaperExample::new();
        let ctx = ex.context();
        let gift = ex.forest.by_name("Gift Shop").unwrap();
        let q = UnorderedQuery::new(ex.vq, [gift]);
        let got = q.run(&ctx).unwrap();
        let ordered = crate::bssr::Bssr::new(&ctx).run(&SkySrQuery::new(ex.vq, [gift])).unwrap();
        assert_eq!(got.routes, ordered.routes);
    }
}
