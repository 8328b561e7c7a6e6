//! End-to-end correctness of the concurrent service on generated cities:
//! concurrency and caching must never change an answer.

use std::sync::Arc;

use skysr_core::bssr::{Bssr, BssrConfig};
use skysr_data::dataset::{Dataset, DatasetSpec, Preset};
use skysr_data::workload::WorkloadSpec;
use skysr_service::replay::{replay, ReplaySpec, StreamPattern};
use skysr_service::{QueryService, Service, ServiceConfig, ServiceContext};

fn city() -> Dataset {
    DatasetSpec::preset(Preset::CalSmall).scale(0.08).seed(21).generate()
}

#[test]
fn concurrent_replay_matches_sequential_execution() {
    // The ISSUE's acceptance bar: a skewed replay across ≥ 4 workers whose
    // every answer is identical to a sequential `Bssr::run`, with a
    // nonzero cache hit-rate.
    let spec = ReplaySpec {
        total: 400,
        distinct: 60,
        service: ServiceConfig { workers: 4, ..ServiceConfig::default() },
        seq_len: 2,
        verify: true,
        ..ReplaySpec::default()
    };
    let report = replay(city(), &spec);
    assert_eq!(report.verify_mismatches, Some(0));
    assert_eq!(report.metrics.completed, 400);
    assert_eq!(report.workers, Some(4));
    assert!(report.metrics.cache_hits > 0, "skewed stream must hit the cache");
    assert!(report.metrics.executed < report.metrics.completed, "cache hits must save searches");
    assert!(report.metrics.throughput_qps > 0.0);
    assert!(report.metrics.latency_p50 <= report.metrics.latency_p99);
}

#[test]
fn caching_disabled_still_matches_sequential() {
    // Coalescing stays on: concurrent duplicates may still share a search,
    // but every answer remains correct and nothing touches the cache.
    let spec = ReplaySpec {
        total: 120,
        distinct: 40,
        service: ServiceConfig { workers: 4, cache_capacity: 0, ..ServiceConfig::default() },
        seq_len: 2,
        verify: true,
        ..ReplaySpec::default()
    };
    let report = replay(city(), &spec);
    assert_eq!(report.verify_mismatches, Some(0));
    assert_eq!(
        report.metrics.executed + report.metrics.coalesced,
        120,
        "every request is searched or coalesced onto one"
    );
    assert_eq!(report.metrics.cache_hits, 0);
    assert_eq!(report.metrics.cache.insertions, 0);
}

#[test]
fn all_reuse_disabled_runs_every_search_and_matches_sequential() {
    // With caching and coalescing both off, every request must run its
    // own search.
    let spec = ReplaySpec {
        total: 120,
        distinct: 40,
        service: ServiceConfig {
            workers: 4,
            cache_capacity: 0,
            coalesce: false,
            ..ServiceConfig::default()
        },
        seq_len: 2,
        verify: true,
        ..ReplaySpec::default()
    };
    let report = replay(city(), &spec);
    assert_eq!(report.verify_mismatches, Some(0));
    assert_eq!(report.metrics.executed, 120, "every request runs a search");
    assert_eq!(report.metrics.coalesced, 0);
    assert_eq!(report.metrics.cache_hits, 0);
    assert_eq!(report.epochs_published, 0, "a replay without updates publishes no epoch");
}

#[test]
fn prefix_chain_replay_concurrent_matches_sequential() {
    // Every chain prefix across 8 workers: whatever interleaving happens
    // (searched, coalesced, cached), every answer must stay
    // score-equivalent to sequential execution, and no pool entry is
    // searched twice.
    let spec = ReplaySpec {
        total: 300,
        distinct: 12,
        service: ServiceConfig { workers: 8, ..ServiceConfig::default() },
        seq_len: 3,
        pattern: StreamPattern::PrefixChains,
        verify: true,
        ..ReplaySpec::default()
    };
    let report = replay(city(), &spec);
    assert_eq!(report.verify_mismatches, Some(0));
    assert_eq!(report.metrics.completed, 300);
    assert_eq!(report.distinct, 36, "the pool expands to every chain prefix");
    assert!(report.metrics.executed <= 36, "{} searches", report.metrics.executed);
}

#[test]
fn duplicate_burst_replay_verifies_against_sequential() {
    let spec = ReplaySpec {
        total: 300,
        distinct: 20,
        service: ServiceConfig { workers: 8, ..ServiceConfig::default() },
        seq_len: 2,
        burst: 16,
        pattern: StreamPattern::DuplicateBursts,
        verify: true,
        ..ReplaySpec::default()
    };
    let report = replay(city(), &spec);
    assert_eq!(report.verify_mismatches, Some(0));
    assert_eq!(report.metrics.completed, 300);
    assert_eq!(
        report.metrics.executed + report.metrics.coalesced + report.metrics.cache_hits,
        300,
        "every answer is exactly one of searched / coalesced / cached"
    );
}

#[test]
fn cache_hits_equal_cold_runs_on_generated_queries() {
    let dataset = city();
    let workload = WorkloadSpec::new(2).queries(12).seed(3).generate(&dataset);
    let ctx = Arc::new(ServiceContext::from_dataset(dataset));

    // Reference: the plain sequential engine on the borrowed context.
    let qctx = ctx.query_context();
    let mut engine = Bssr::with_config(&qctx, BssrConfig::default());
    let reference: Vec<_> =
        workload.queries.iter().map(|q| engine.run(q).unwrap().routes).collect();

    let service =
        Service::new(Arc::clone(&ctx), ServiceConfig { workers: 4, ..ServiceConfig::default() });
    let cold = service.run_queries(&workload.queries);
    let warm = service.run_queries(&workload.queries);
    for ((cold, warm), want) in cold.iter().zip(&warm).zip(&reference) {
        let cold = cold.as_ref().unwrap();
        let warm = warm.as_ref().unwrap();
        assert!(warm.cache_hit(), "second pass must be served from cache");
        assert_eq!(cold.routes.as_ref(), want.as_slice());
        assert_eq!(warm.routes, cold.routes);
    }
    let m = service.shutdown();
    assert_eq!(m.completed, 24);
    assert_eq!(m.cache_hits, 12);
}

#[test]
fn eviction_pressure_keeps_answers_correct() {
    let dataset = city();
    let workload = WorkloadSpec::new(2).queries(20).seed(5).generate(&dataset);
    let ctx = Arc::new(ServiceContext::from_dataset(dataset));
    // A 4-entry cache under 20 distinct queries, twice: heavy eviction.
    let service = Service::new(
        Arc::clone(&ctx),
        ServiceConfig { workers: 4, cache_capacity: 4, ..ServiceConfig::default() },
    );
    let first = service.run_queries(&workload.queries);
    let second = service.run_queries(&workload.queries);
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.as_ref().unwrap().routes, b.as_ref().unwrap().routes);
    }
    let m = service.metrics();
    assert!(m.cache.evictions > 0, "capacity 4 must evict under 20 queries");
    assert_eq!(m.cache.len, 4);
}
