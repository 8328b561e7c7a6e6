//! SkySR with destination (§6): the user additionally fixes where the trip
//! must end (e.g. their hotel in §7.5), and the length score extends to
//! cover the final leg.
//!
//! Implemented by appending a *pseudo-position* that matches exactly the
//! destination vertex with similarity 1 and allows revisits (the
//! destination is a waypoint, not a PoI, so Definition 3.4(iii) does not
//! apply to it). BSSR then runs unchanged — thresholds, bounds, NNinit and
//! caching all account for the final leg automatically, which realises the
//! "traverse from both the destination and the start point" efficiency
//! idea without special-casing the search.

use skysr_graph::VertexId;

use crate::bssr::{Bssr, BssrConfig, BssrResult};
use crate::context::QueryContext;
use crate::error::QueryError;
use crate::prepared::{Position, PreparedQuery};
use crate::query::SkySrQuery;

/// A SkySR query with a fixed destination.
#[derive(Clone, Debug, PartialEq)]
pub struct DestinationQuery {
    /// The underlying start + category sequence.
    pub query: SkySrQuery,
    /// Where the trip must end.
    pub destination: VertexId,
}

impl DestinationQuery {
    /// Convenience constructor.
    pub fn new(query: SkySrQuery, destination: VertexId) -> DestinationQuery {
        DestinationQuery { query, destination }
    }

    /// Runs the query with the given BSSR configuration. Returned routes
    /// list only the real PoIs (the destination is implicit); lengths
    /// include the final leg.
    pub fn run(&self, ctx: &QueryContext<'_>, cfg: BssrConfig) -> Result<BssrResult, QueryError> {
        if self.destination.index() >= ctx.graph.num_vertices() {
            return Err(QueryError::UnknownDestination(self.destination));
        }
        let mut pq = PreparedQuery::prepare(ctx, &self.query)?;
        pq.positions.push(Position::destination(self.destination).into());
        let mut engine = Bssr::with_config(ctx, cfg);
        let mut result = engine.run_prepared(&pq);
        for route in &mut result.routes {
            let last = route.pois.pop();
            debug_assert_eq!(last, Some(self.destination));
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_skysr;
    use crate::paper_example::PaperExample;
    use crate::prepared::Position;
    use skysr_graph::Cost;

    #[test]
    fn destination_extends_lengths() {
        // Paper query but the trip must end back at vq.
        let ex = PaperExample::new();
        let ctx = ex.context();
        let dq = DestinationQuery::new(ex.query(), ex.vq);
        let result = dq.run(&ctx, BssrConfig::default()).unwrap();
        assert!(!result.routes.is_empty());
        for r in &result.routes {
            // Routes report only real PoIs.
            assert_eq!(r.pois.len(), 3);
            // Length must exceed the destination-free optimum for the same
            // PoIs (11 / 13 in the fixture).
            assert!(r.length > Cost::new(11.0));
        }
    }

    #[test]
    fn agrees_with_oracle_including_destination() {
        let ex = PaperExample::new();
        let ctx = ex.context();
        let dq = DestinationQuery::new(ex.query(), ex.p(4));
        let got = dq.run(&ctx, BssrConfig::default()).unwrap();
        // Oracle: run on the augmented prepared query directly.
        let mut pq = PreparedQuery::prepare(&ctx, &ex.query()).unwrap();
        pq.positions.push(Position::destination(ex.p(4)).into());
        let mut want = naive_skysr(&ctx, &pq, crate::naive::DEFAULT_CANDIDATE_LIMIT);
        for r in &mut want {
            r.pois.pop();
        }
        assert_eq!(got.routes, want);
    }

    #[test]
    fn destination_equal_to_a_route_poi_is_allowed() {
        // Destination p8 (a gift shop): the perfect route may legitimately
        // end at its own last PoI with a zero-length final leg.
        let ex = PaperExample::new();
        let ctx = ex.context();
        let dq = DestinationQuery::new(ex.query(), ex.p(8));
        let result = dq.run(&ctx, BssrConfig::default()).unwrap();
        assert!(result.routes.iter().any(|r| r.pois.last() == Some(&ex.p(8))));
    }

    #[test]
    fn unknown_destination_rejected() {
        let ex = PaperExample::new();
        let ctx = ex.context();
        let dq = DestinationQuery::new(ex.query(), VertexId(999));
        assert_eq!(
            dq.run(&ctx, BssrConfig::default()).unwrap_err(),
            QueryError::UnknownDestination(VertexId(999))
        );
    }

    #[test]
    fn all_configs_agree() {
        let ex = PaperExample::new();
        let ctx = ex.context();
        let dq = DestinationQuery::new(ex.query(), ex.p(3));
        let a = dq.run(&ctx, BssrConfig::default()).unwrap();
        let b = dq.run(&ctx, BssrConfig::unoptimized()).unwrap();
        assert_eq!(a.routes, b.routes);
    }
}
