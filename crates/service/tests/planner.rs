//! Planner-equivalence property: for random workloads, the planned
//! pipeline (exact-hit → coalesce → repair → cold) returns
//! score-equivalent skylines to a plan-disabled cold-search oracle under
//! **every strategy subset** — all strategies on, coalescing or repair
//! toggled off, and everything off. The oracle is the replay driver's
//! `--verify` machinery itself: a sequential cold
//! [`Bssr`](skysr_core::bssr::Bssr) run at each response's pinned epoch,
//! with mid-stream weight-update waves so the repair rung genuinely
//! crosses epochs. On the hierarchy workload every ancestor variant names
//! an internal category, which no PoI matches perfectly.

use std::sync::Arc;

use skysr_data::dataset::{Dataset, DatasetSpec, Preset};
use skysr_service::replay::{build_pool, replay_on, ReplaySpec, StreamPattern};
use skysr_service::{ServiceConfig, ServiceContext, TelemetryConfig};

/// One strategy subset of the ladder under test.
#[derive(Clone, Copy, Debug)]
struct Subset {
    name: &'static str,
    caching: bool,
    coalesce: bool,
    repair: bool,
}

const SUBSETS: [Subset; 4] = [
    Subset { name: "all-on", caching: true, coalesce: true, repair: true },
    Subset { name: "no-coalesce", caching: true, coalesce: false, repair: true },
    Subset { name: "no-repair", caching: true, coalesce: true, repair: false },
    Subset { name: "all-off", caching: false, coalesce: false, repair: false },
];

fn dataset(seed: u64) -> Dataset {
    DatasetSpec::preset(Preset::CalSmall).scale(0.08).seed(seed).generate()
}

/// Replays `pattern` under `subset` with synchronous update waves and the
/// epoch-aware oracle, over two cycles of the pool (cycle 1 exercises the
/// searches, cycle 2 the exact-hit and repair rungs).
fn spec_for(subset: Subset, pattern: StreamPattern, distinct: usize, seed: u64) -> ReplaySpec {
    let chain = match pattern {
        StreamPattern::Hierarchy => 3,
        StreamPattern::PrefixChains => 2, // seq_len below
        _ => 1,
    };
    let pool_len = distinct * chain;
    ReplaySpec {
        total: pool_len * 2,
        distinct,
        seq_len: 2,
        pattern,
        service: ServiceConfig {
            workers: 4,
            cache_capacity: if subset.caching { 1024 } else { 0 },
            coalesce: subset.coalesce,
            repair: subset.repair,
            ..ServiceConfig::default()
        },
        seed,
        // One weight-delta wave mid-cycle and one at the cycle boundary:
        // cached entries from cycle 1 are stale by cycle 2, so the repair
        // (or lazy-invalidation) rung runs for real.
        update_every: pool_len / 2,
        update_burst: 4,
        update_magnitude: 2.0,
        verify: true,
        ..ReplaySpec::default()
    }
}

/// Replays `pattern` under every subset and checks each run against the
/// oracle and its subset's switches.
fn every_subset_is_exact(pattern: StreamPattern, distinct: usize, seed: u64) {
    let d = dataset(seed);
    let pool = build_pool(&d, &spec_for(SUBSETS[0], pattern, distinct, seed));
    let ctx = Arc::new(ServiceContext::from_dataset(d));
    for subset in SUBSETS {
        let spec = spec_for(subset, pattern, distinct, seed);
        let report = replay_on(Arc::clone(&ctx), &pool, &spec);
        assert_eq!(
            report.verify_mismatches,
            Some(0),
            "subset {} (seed {seed}) diverged from the cold-search oracle",
            subset.name
        );
        assert_eq!(report.stale_served(), 0, "subset {} served stale", subset.name);
        let m = &report.metrics;
        if !subset.repair {
            assert_eq!(m.repairs + m.repair_fallbacks, 0, "{}: repair fired", subset.name);
        }
        if !subset.caching {
            assert_eq!(m.cache_hits, 0, "{}: the cache answered", subset.name);
        }
    }
}

#[test]
fn every_strategy_subset_is_oracle_exact_on_hierarchy_workloads() {
    for seed in [11u64, 29] {
        every_subset_is_exact(StreamPattern::Hierarchy, 12, seed);
    }
}

#[test]
fn every_strategy_subset_is_oracle_exact_on_prefix_workloads() {
    every_subset_is_exact(StreamPattern::PrefixChains, 8, 17);
}

#[test]
fn bounded_retention_verification_audits_every_response() {
    // `--verify` plus `--retention`: the service's ring compacts epochs
    // the stream was served under, and the oracle still audits every
    // response, from the replay's own weight history.
    let d = dataset(41);
    let spec = ReplaySpec {
        total: 300,
        distinct: 12,
        seq_len: 2,
        service: ServiceConfig {
            workers: 4,
            repair: true,
            telemetry: TelemetryConfig::trace_all(300),
            ..ServiceConfig::default()
        },
        seed: 41,
        retention: 3,
        update_every: 20,
        update_burst: 6,
        verify: true,
        ..ReplaySpec::default()
    };
    let pool = build_pool(&d, &spec);
    let ctx = Arc::new(ServiceContext::from_dataset(d));
    let report = replay_on(Arc::clone(&ctx), &pool, &spec);
    assert_eq!(report.metrics.completed, 300);
    assert_eq!(report.verify_mismatches, Some(0), "every response must be oracle-exact");
    let compacted = report.spans.iter().filter(|s| ctx.pin_at(s.epoch).is_none()).count();
    assert!(
        compacted > report.total / 2,
        "15 update waves against a 3-epoch ring must compact the epochs most responses were \
         served under (only {compacted} of {}; {} published)",
        report.total,
        report.epochs_published
    );
    assert_eq!(report.check(), Ok(()), "zero stale serves, the ring within its cap");
}
