//! Planner-equivalence property: for random workloads, the planned
//! pipeline (exact-hit → coalesce → repair → warm-seed → cold) returns
//! score-equivalent skylines to a plan-disabled cold-search oracle under
//! **every strategy subset** — all strategies on, each of prefix /
//! ancestor / suffix / repair toggled off individually, and everything
//! off. The oracle is the replay driver's `--verify` machinery itself: a
//! sequential cold [`Bssr`](skysr_core::bssr::Bssr) run at each
//! response's pinned epoch, with mid-stream weight-update waves so the
//! repair rung genuinely crosses epochs.
//!
//! Also pins the per-strategy seed counters: a toggled-off source never
//! fires, and on the hierarchy workload the all-on pipeline fires *both*
//! new sources (ancestor + suffix) — the acceptance gates CI asserts on.

use std::sync::Arc;

use skysr_data::dataset::{Dataset, DatasetSpec, Preset};
use skysr_service::replay::{build_pool, replay_on, ReplaySpec, StreamPattern};
use skysr_service::{ServiceConfig, ServiceContext, TelemetryConfig};

/// One strategy subset of the ladder under test.
#[derive(Clone, Copy, Debug)]
struct Subset {
    name: &'static str,
    prefix: bool,
    ancestor: bool,
    suffix: bool,
    repair: bool,
}

const SUBSETS: [Subset; 6] = [
    Subset { name: "all-on", prefix: true, ancestor: true, suffix: true, repair: true },
    Subset { name: "no-prefix", prefix: false, ancestor: true, suffix: true, repair: true },
    Subset { name: "no-ancestor", prefix: true, ancestor: false, suffix: true, repair: true },
    Subset { name: "no-suffix", prefix: true, ancestor: true, suffix: false, repair: true },
    Subset { name: "no-repair", prefix: true, ancestor: true, suffix: true, repair: false },
    Subset { name: "all-off", prefix: false, ancestor: false, suffix: false, repair: false },
];

fn dataset(seed: u64) -> Dataset {
    DatasetSpec::preset(Preset::CalSmall).scale(0.08).seed(seed).generate()
}

/// Replays `pattern` under `subset` with synchronous update waves and the
/// epoch-aware oracle, over two cycles of the pool (cycle 1 exercises the
/// seed rungs, cycle 2 the exact-hit and repair rungs).
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
            prefix_reuse: subset.prefix,
            ancestor_reuse: subset.ancestor,
            suffix_reuse: subset.suffix,
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

#[test]
fn every_strategy_subset_is_oracle_exact_on_hierarchy_workloads() {
    for seed in [11u64, 29] {
        let d = dataset(seed);
        // 12 chains, waves of pool_len/2 = 18: the second wave's full
        // queries trail their same-epoch ancestor variants by a whole
        // worker round, so the ancestor rung fires with margin instead of
        // hanging on one dequeue-vs-complete race.
        let probe = spec_for(SUBSETS[0], StreamPattern::Hierarchy, 12, seed);
        let pool = build_pool(&d, &probe);
        let ctx = Arc::new(ServiceContext::from_dataset(d));
        for subset in SUBSETS {
            let spec = spec_for(subset, StreamPattern::Hierarchy, 12, seed);
            let report = replay_on(Arc::clone(&ctx), &pool, &spec);
            assert_eq!(
                report.verify_mismatches,
                Some(0),
                "subset {} (seed {seed}) diverged from the cold-search oracle",
                subset.name
            );
            assert_eq!(report.stale_served(), 0, "subset {} served stale", subset.name);
            let m = &report.metrics;
            if !subset.ancestor {
                assert_eq!(m.seeded_ancestor, 0, "{}: toggled-off source fired", subset.name);
            }
            if !subset.suffix {
                assert_eq!(m.seeded_suffix, 0, "{}: toggled-off source fired", subset.name);
            }
            if !subset.prefix {
                assert_eq!(m.seeded_prefix, 0, "{}: toggled-off source fired", subset.name);
            }
            if !subset.repair {
                assert_eq!(m.repairs + m.repair_fallbacks, 0, "{}: repair fired", subset.name);
            }
            if subset.name == "all-on" {
                assert!(
                    m.seeded_ancestor > 0,
                    "the hierarchy workload must ancestor-seed (seed {seed}): {m:?}"
                );
                assert!(
                    m.seeded_suffix > 0,
                    "the hierarchy workload must suffix-seed (seed {seed}): {m:?}"
                );
            }
        }
    }
}

#[test]
fn every_strategy_subset_is_oracle_exact_on_prefix_workloads() {
    let seed = 17u64;
    let d = dataset(seed);
    let probe = spec_for(SUBSETS[0], StreamPattern::PrefixChains, 8, seed);
    let pool = build_pool(&d, &probe);
    let ctx = Arc::new(ServiceContext::from_dataset(d));
    for subset in SUBSETS {
        let spec = spec_for(subset, StreamPattern::PrefixChains, 8, seed);
        let report = replay_on(Arc::clone(&ctx), &pool, &spec);
        assert_eq!(
            report.verify_mismatches,
            Some(0),
            "subset {} diverged from the cold-search oracle",
            subset.name
        );
        assert_eq!(report.stale_served(), 0);
        if !subset.prefix {
            assert_eq!(report.metrics.seeded_prefix, 0);
        }
    }
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
