//! Per-query instrumentation — the raw material for Tables 7–8 and
//! Figures 4–5.

use std::time::Duration;

use skysr_graph::SearchStats;

/// Counters and timings for one SkySR query execution.
#[derive(Clone, Debug, Default)]
pub struct QueryStats {
    /// Number of modified-Dijkstra searches actually run (cache misses); a
    /// grouped expansion counts one search for its whole group.
    pub mdijkstra_runs: u64,
    /// Number of modified-Dijkstra invocations answered by the on-the-fly
    /// cache.
    pub cache_hits: u64,
    /// Routes expanded by a search shared with other routes of their class
    /// (grouped expansion); 0 when every search expanded one route.
    pub grouped_routes: u64,
    /// Cached routes a repair kept without searching their legs, because
    /// the path its previous repair measured crosses no touched arc: in a
    /// promotion at their cached length, in a fallback as seeds at it.
    pub routes_reused: u64,
    /// Repair re-searches restricted to routes that cross a decreased arc,
    /// because no cached route got longer (0 or 1 per repair).
    pub restricted_researches: u64,
    /// Aggregate graph-search counters (settled / relaxed / weight sum).
    pub search: SearchStats,
    /// Weight sum of the *first* modified Dijkstra execution — Table 7's
    /// "search space" metric.
    pub first_mdijkstra_weight_sum: f64,
    /// Number of sequenced routes found by the initial search (Table 7).
    pub init_routes: usize,
    /// Wall time of the initial search (Table 7).
    pub init_time: Duration,
    /// Table 7's "Ratio": length of the initial route with the largest
    /// semantic score divided by the length of the initial perfect route.
    pub init_length_ratio: Option<f64>,
    /// Per-gap semantic-match minimum distances `ls[i]` (Figure 4).
    pub ls: Vec<f64>,
    /// Per-gap perfect-match minimum distances `lp[i]` (Figure 4).
    pub lp: Vec<f64>,
    /// Full-length seed routes that entered the skyline set before the
    /// search started (repair's warm re-search; 0 for cold runs).
    pub warm_seed_routes: usize,
    /// Routes pushed into the route priority queue.
    pub routes_enqueued: u64,
    /// Maximum size the route queue reached.
    pub queue_peak: usize,
    /// Candidate routes discarded by the threshold test (Lemma 5.3).
    pub threshold_prunes: u64,
    /// Candidate routes discarded by the minimum-distance lower bounds
    /// (§5.3.3 / Lemma 5.8).
    pub lower_bound_prunes: u64,
    /// Total wall time of the query.
    pub total_time: Duration,
}

impl QueryStats {
    /// Sum of ls over remaining gaps (diagnostic).
    pub fn ls_total(&self) -> f64 {
        self.ls.iter().sum()
    }

    /// The telemetry-facing projection of these stats (see
    /// [`EngineProfile`]).
    pub fn profile(&self) -> EngineProfile {
        EngineProfile {
            settled: self.search.settled,
            relaxed: self.search.relaxed,
            heap_pushes: self.search.pushed,
            routes_enqueued: self.routes_enqueued,
            threshold_prunes: self.threshold_prunes,
            lower_bound_prunes: self.lower_bound_prunes,
            seeds_survived: self.warm_seed_routes as u64,
            mdijkstra_runs: self.mdijkstra_runs,
            mdijkstra_cache_hits: self.cache_hits,
            grouped_routes: self.grouped_routes,
            routes_reused: self.routes_reused,
            restricted_researches: self.restricted_researches,
        }
    }

    /// Sum of lp over remaining gaps (diagnostic).
    pub fn lp_total(&self) -> f64 {
        self.lp.iter().sum()
    }

    /// Total modified-Dijkstra invocations (runs + cache hits) — Figure 5's
    /// y-axis counts runs only, the invocation count shows the gap.
    pub fn mdijkstra_invocations(&self) -> u64 {
        self.mdijkstra_runs + self.cache_hits
    }
}

/// The compact engine-work profile telemetry attaches to a trace span —
/// the counters that answer "why was this search slow" without shipping
/// the full (allocating) [`QueryStats`] around.
///
/// Derived from [`QueryStats::profile`] per run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineProfile {
    /// Vertices settled across every graph search of the run.
    pub settled: u64,
    /// Arcs relaxed.
    pub relaxed: u64,
    /// Vertex-heap pushes.
    pub heap_pushes: u64,
    /// Routes pushed into the route priority queue.
    pub routes_enqueued: u64,
    /// Candidate routes discarded by the threshold test.
    pub threshold_prunes: u64,
    /// Candidate routes discarded by the minimum-distance lower bounds.
    pub lower_bound_prunes: u64,
    /// Warm-start seed routes that survived validation into the search.
    pub seeds_survived: u64,
    /// Modified-Dijkstra searches actually run.
    pub mdijkstra_runs: u64,
    /// Modified-Dijkstra invocations answered by the on-the-fly cache.
    pub mdijkstra_cache_hits: u64,
    /// Routes expanded by a search shared with other routes of their class.
    pub grouped_routes: u64,
    /// Cached routes a repair kept on the strength of their stored paths.
    pub routes_reused: u64,
    /// Repair re-searches restricted to routes that cross a decreased arc.
    pub restricted_researches: u64,
}

impl EngineProfile {
    /// Labels pruned by either mechanism.
    pub fn pruned_labels(&self) -> u64 {
        self.threshold_prunes + self.lower_bound_prunes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let s = QueryStats { ls: vec![1.0, 2.0], lp: vec![3.0], ..Default::default() };
        assert_eq!(s.ls_total(), 3.0);
        assert_eq!(s.lp_total(), 3.0);
    }

    #[test]
    fn invocation_count() {
        let s = QueryStats { mdijkstra_runs: 5, cache_hits: 3, ..Default::default() };
        assert_eq!(s.mdijkstra_invocations(), 8);
    }

    #[test]
    fn profile_projects_the_stats() {
        let s = QueryStats {
            mdijkstra_runs: 4,
            cache_hits: 2,
            grouped_routes: 9,
            routes_reused: 2,
            restricted_researches: 1,
            search: SearchStats { settled: 10, relaxed: 20, pushed: 30, weight_sum: 1.0 },
            warm_seed_routes: 3,
            routes_enqueued: 7,
            threshold_prunes: 5,
            lower_bound_prunes: 6,
            ..Default::default()
        };
        let p = s.profile();
        assert_eq!(p.settled, 10);
        assert_eq!(p.heap_pushes, 30);
        assert_eq!(p.seeds_survived, 3);
        assert_eq!(p.pruned_labels(), 11);
        assert_eq!(p.mdijkstra_runs, 4);
        assert_eq!(p.mdijkstra_cache_hits, 2);
        assert_eq!(p.grouped_routes, 9);
        assert_eq!(p.routes_reused, 2);
        assert_eq!(p.restricted_researches, 1);
    }
}
