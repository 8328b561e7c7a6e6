//! Batch query execution across the four compared algorithms.

use std::time::{Duration, Instant};

use skysr_core::baseline::{level_combo_count, DijBaseline, PneBaseline};
use skysr_core::bssr::{Bssr, BssrConfig};
use skysr_core::{PreparedQuery, QueryContext, QueryStats, SkySrQuery};

/// The algorithms compared in §7 (Figure 3, Table 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// BSSR with all four optimisations ([`BssrConfig::paper`]); the
    /// engine's default leaves Optimisation 3 off, as it costs more than
    /// it prunes.
    Bssr,
    /// BSSR without optimisation techniques.
    BssrNoOpt,
    /// Iterated OSR with the Dijkstra-based solution.
    Dij,
    /// Iterated OSR with progressive neighbour exploration.
    Pne,
}

impl Algo {
    /// Display label matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            Algo::Bssr => "BSSR",
            Algo::BssrNoOpt => "BSSR w/o Opt",
            Algo::Dij => "Dij",
            Algo::Pne => "PNE",
        }
    }

    /// All four, in the paper's legend order.
    pub fn all() -> [Algo; 4] {
        [Algo::Bssr, Algo::BssrNoOpt, Algo::Pne, Algo::Dij]
    }
}

/// Options for a batch run.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    /// Baselines skip queries needing more OSR combinations than this.
    pub baseline_max_combos: u64,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts { baseline_max_combos: u64::MAX }
    }
}

/// Aggregate outcome of running one algorithm over a query batch.
#[derive(Clone, Debug, Default)]
pub struct BatchResult {
    /// Successfully executed queries.
    pub executed: usize,
    /// Queries skipped because the baseline would exceed the combo cap.
    pub skipped: usize,
    /// Mean response time over executed queries (ms).
    pub mean_ms: f64,
    /// Total wall time (ms).
    pub total_ms: f64,
    /// Mean number of skyline routes returned.
    pub mean_routes: f64,
    /// Per-query BSSR stats (empty for baselines).
    pub stats: Vec<QueryStats>,
    /// Mean OSR combinations per query (baselines only).
    pub mean_combos: f64,
}

/// Runs `algo` over `queries`, timing each query.
pub fn run_batch(
    ctx: &QueryContext<'_>,
    queries: &[SkySrQuery],
    algo: Algo,
    opts: RunOpts,
) -> BatchResult {
    let mut out = BatchResult::default();
    let mut times: Vec<Duration> = Vec::with_capacity(queries.len());
    let mut routes_total = 0usize;
    let mut combos_total = 0u64;
    match algo {
        Algo::Bssr | Algo::BssrNoOpt => {
            let cfg =
                if algo == Algo::Bssr { BssrConfig::paper() } else { BssrConfig::unoptimized() };
            let mut engine = Bssr::with_config(ctx, cfg);
            for q in queries {
                let t0 = Instant::now();
                let result = engine.run(q).expect("workload queries are valid");
                times.push(t0.elapsed());
                routes_total += result.routes.len();
                out.stats.push(result.stats);
                out.executed += 1;
            }
        }
        Algo::Dij => {
            let mut engine = DijBaseline::new(ctx);
            engine.max_combos = u64::MAX;
            for q in queries {
                let pq = PreparedQuery::prepare(ctx, q).expect("workload queries are valid");
                let combos = level_combo_count(ctx, &pq);
                if combos > opts.baseline_max_combos {
                    out.skipped += 1;
                    continue;
                }
                let t0 = Instant::now();
                let result = engine.run_prepared(&pq).expect("valid");
                times.push(t0.elapsed());
                routes_total += result.routes.len();
                combos_total += result.combos;
                out.executed += 1;
            }
        }
        Algo::Pne => {
            for q in queries {
                let pq = PreparedQuery::prepare(ctx, q).expect("workload queries are valid");
                let combos = level_combo_count(ctx, &pq);
                if combos > opts.baseline_max_combos {
                    out.skipped += 1;
                    continue;
                }
                let mut engine = PneBaseline::new(ctx);
                engine.max_combos = u64::MAX;
                let t0 = Instant::now();
                let result = engine.run_prepared(&pq).expect("valid");
                times.push(t0.elapsed());
                routes_total += result.routes.len();
                combos_total += result.combos;
                out.executed += 1;
            }
        }
    }
    out.total_ms = times.iter().map(|d| d.as_secs_f64() * 1e3).sum();
    if out.executed > 0 {
        out.mean_ms = out.total_ms / out.executed as f64;
        out.mean_routes = routes_total as f64 / out.executed as f64;
        out.mean_combos = combos_total as f64 / out.executed as f64;
    }
    out
}

/// Mean of a per-query statistic.
pub fn mean_of(stats: &[QueryStats], f: impl Fn(&QueryStats) -> f64) -> f64 {
    if stats.is_empty() {
        return 0.0;
    }
    stats.iter().map(f).sum::<f64>() / stats.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use skysr_data::dataset::{DatasetSpec, Preset};
    use skysr_data::workload::WorkloadSpec;

    #[test]
    fn all_algorithms_agree_on_small_batch() {
        let d = DatasetSpec::preset(Preset::CalSmall).scale(0.08).seed(21).generate();
        let ctx = d.context();
        let w = WorkloadSpec::new(2).queries(3).seed(5).generate(&d);
        let opts = RunOpts::default();
        let bssr = run_batch(&ctx, &w.queries, Algo::Bssr, opts);
        let noopt = run_batch(&ctx, &w.queries, Algo::BssrNoOpt, opts);
        let dij = run_batch(&ctx, &w.queries, Algo::Dij, opts);
        let pne = run_batch(&ctx, &w.queries, Algo::Pne, opts);
        assert_eq!(bssr.executed, 3);
        assert_eq!(bssr.mean_routes, noopt.mean_routes);
        assert_eq!(bssr.mean_routes, dij.mean_routes);
        assert_eq!(bssr.mean_routes, pne.mean_routes);
        assert!(bssr.mean_ms > 0.0);
    }

    #[test]
    fn combo_cap_skips() {
        let d = DatasetSpec::preset(Preset::CalSmall).scale(0.08).seed(21).generate();
        let ctx = d.context();
        let w = WorkloadSpec::new(3).queries(2).seed(6).generate(&d);
        let r = run_batch(&ctx, &w.queries, Algo::Dij, RunOpts { baseline_max_combos: 1 });
        assert_eq!(r.skipped, 2);
        assert_eq!(r.executed, 0);
    }
}
