//! Telemetry integration: the trace-completeness invariant (every
//! response has exactly one span whose rung matches its `Served`
//! outcome, and each rung histogram counts its spans), the queue-wait vs.
//! service-time split, and sampled/disabled retention modes — all
//! exercised through full concurrent service runs.

use std::sync::Arc;
use std::time::Duration;

use skysr_data::dataset::{Dataset, DatasetSpec, Preset};
use skysr_data::workload::WorkloadSpec;
use skysr_service::replay::{
    build_pool, replay_on, replay_sharded, ReplaySpec, StreamPattern, TelemetryMode,
};
use skysr_service::telemetry::export::prometheus;
use skysr_service::{QueryService, Rung, Service, ServiceConfig, ServiceContext, TelemetryConfig};

fn dataset(seed: u64) -> Dataset {
    DatasetSpec::preset(Preset::CalSmall).scale(0.08).seed(seed).generate()
}

/// Full tracing over an update-heavy duplicate stream with repair on:
/// the stream crosses epochs, so the spans cover exact hits, coalesced
/// followers, repairs and searches — and the completeness audit must
/// hold across all of them.
#[test]
fn full_tracing_yields_one_span_per_response_across_every_rung() {
    let d = dataset(21);
    let spec = ReplaySpec {
        total: 400,
        distinct: 8,
        seq_len: 2,
        pattern: StreamPattern::DuplicateBursts,
        burst: 16,
        workers: 4,
        repair: true,
        update_every: 40,
        update_burst: 8,
        telemetry: TelemetryMode::Full,
        ..ReplaySpec::default()
    };
    let pool = build_pool(&d, &spec);
    let ctx = Arc::new(ServiceContext::from_dataset(d));
    let report = replay_on(ctx, &pool, &spec);

    assert_eq!(report.trace_violations, Some(0), "trace-completeness invariant broke");
    let m = &report.metrics;
    assert_eq!(report.spans.len() as u64, m.completed, "one span per completed response");

    // The queue-wait histogram covers every response; the engine
    // histogram covers exactly the requests that ran a search or repair.
    assert_eq!(m.queue_wait_hist.count(), m.completed);
    assert_eq!(m.engine_hist.count(), m.executed);

    // Per-rung span counts agree with the per-rung histograms.
    let count = |r: Rung| report.spans.iter().filter(|s| s.rung == r).count() as u64;
    for rs in &m.rungs {
        assert_eq!(count(rs.rung), rs.hist.count(), "rung {:?}", rs.rung);
    }

    // The update waves must actually have driven the repair rung — a
    // static run would leave most rungs untested.
    assert!(m.repairs + m.repair_fallbacks > 0, "repair never fired: {m:?}");
    assert!(count(Rung::ExactHit) > 0, "no exact hits in a duplicate stream");
    assert!(m.executed > 0);

    // Spans are internally consistent: stages fit inside the total, every
    // span records its probe trail, and engine time is reserved for the
    // rungs that ran the engine.
    for s in &report.spans {
        assert!(!s.attempts.is_empty(), "span {} has no attempts", s.request_id);
        let stages = s.queue_wait + s.plan + s.engine;
        assert!(
            stages <= s.total + Duration::from_millis(1),
            "span {}: stages {stages:?} exceed total {:?}",
            s.request_id,
            s.total
        );
        match s.rung {
            Rung::ExactHit | Rung::Coalesced => {
                assert_eq!(s.engine, Duration::ZERO, "a reuse answer ran the engine");
                assert_eq!(s.profile.settled, 0);
            }
            Rung::Repaired => {
                assert!(s.repair_tier.is_some(), "a repaired span must report its tier");
                assert!(s.delta_index.is_some(), "a repair span records its delta index");
            }
            _ => {}
        }
    }
}

/// The same invariant through the raw service API: distinct request ids,
/// queue wait below latency, and span/response agreement span-by-span.
#[test]
fn service_responses_and_drained_spans_agree() {
    let d = dataset(5);
    let queries = WorkloadSpec::new(2).queries(12).seed(3).generate(&d).queries;
    let ctx = Arc::new(ServiceContext::from_dataset(d));
    let service = Service::new(
        Arc::clone(&ctx),
        ServiceConfig {
            workers: 3,
            telemetry: TelemetryConfig::trace_all(1024),
            ..ServiceConfig::default()
        },
    );
    // Two passes: the second is answered from the cache.
    let mut outcomes = service.run_batch(queries.iter().cloned());
    outcomes.extend(service.run_batch(queries.iter().cloned()));
    let spans = service.traces().drain();
    let responses: Vec<_> = outcomes.into_iter().map(|o| o.expect("valid queries")).collect();

    let mut ids: Vec<u64> = responses.iter().map(|r| r.request_id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), responses.len(), "request ids must be unique");

    assert_eq!(spans.len(), responses.len());
    for r in &responses {
        assert!(r.queue_wait <= r.latency, "queue wait cannot exceed end-to-end latency");
        let span =
            spans.iter().find(|s| s.request_id == r.request_id).expect("every response has a span");
        assert_eq!(span.rung, Rung::of(r.served));
        assert_eq!(span.epoch, r.epoch);
        assert_eq!(span.queue_wait, r.queue_wait);
        assert_eq!(span.skyline, r.routes.len());
    }

    // Draining leaves the buffer empty; the metrics histograms are
    // unaffected by span retention.
    assert!(service.traces().drain().is_empty());
    assert_eq!(service.metrics().completed, responses.len() as u64);
}

/// The Prometheus exposition carries a consistent `shard` label, and the
/// per-rung series it exports reconcile exactly with the span audit —
/// the `--metrics-out` contract the CI telemetry-verify job greps.
#[test]
fn prometheus_shard_labels_reconcile_with_span_audits() {
    let spec = ReplaySpec {
        total: 200,
        distinct: 8,
        seq_len: 2,
        pattern: StreamPattern::DuplicateBursts,
        burst: 16,
        workers: 2,
        update_every: 50,
        update_burst: 8,
        verify: true,
        telemetry: TelemetryMode::Full,
        ..ReplaySpec::default()
    };
    let datasets = vec![("north".to_owned(), dataset(21)), ("south".to_owned(), dataset(22))];
    let fleet = replay_sharded(datasets, &spec);
    assert!(fleet.all_ok());

    // Export exactly the way `replay --shards N --metrics-out` does: one
    // labelled entry per shard, ids as the `shard` label values.
    let ids: Vec<String> = fleet.shards.iter().map(|s| s.region.to_string()).collect();
    let label_sets: Vec<[(&str, &str); 2]> =
        ids.iter().map(|id| [("pattern", "duplicate"), ("shard", id.as_str())]).collect();
    let entries: Vec<(&[(&str, &str)], _)> = label_sets
        .iter()
        .zip(&fleet.shards)
        .map(|(labels, s)| (labels.as_slice(), &s.report.metrics))
        .collect();
    let page = prometheus(&entries);

    for (shard, id) in fleet.shards.iter().zip(&ids) {
        let m = &shard.report.metrics;
        // Counters carry the shard label with label keys in sorted order
        // (`pattern` < `shard`) — the exact shape CI greps for.
        let completed = format!(
            "skysr_completed_total{{pattern=\"duplicate\",shard=\"{id}\"}} {}",
            m.completed
        );
        assert!(page.lines().any(|l| l == completed), "missing series: {completed}");
        // Per-rung histogram counts reconcile with this shard's spans:
        // the invariant audited span-side re-proven on the export side.
        let count = |r: Rung| shard.report.spans.iter().filter(|s| s.rung == r).count() as u64;
        for rs in &m.rungs {
            if rs.hist.is_empty() {
                continue;
            }
            let series = format!(
                "skysr_rung_latency_seconds_count{{pattern=\"duplicate\",rung=\"{}\",shard=\"{id}\"}} {}",
                rs.rung.label(),
                rs.hist.count()
            );
            assert!(page.lines().any(|l| l == series), "missing series: {series}");
            assert_eq!(
                rs.hist.count(),
                count(rs.rung),
                "shard {id}: exported rung {:?} diverges from the span audit",
                rs.rung
            );
        }
    }
    // Distinct shards never collapse into one series.
    assert!(page.contains("shard=\"0\"") && page.contains("shard=\"1\""));
}

/// Sampled mode keeps a bounded subset; disabled mode keeps nothing.
/// Histograms record either way.
#[test]
fn sampled_and_disabled_retention_modes() {
    let d = dataset(9);
    for (mode, expect_spans) in [(TelemetryMode::Sampled, true), (TelemetryMode::Off, false)] {
        let spec = ReplaySpec {
            total: 300,
            distinct: 6,
            seq_len: 2,
            pattern: StreamPattern::DuplicateBursts,
            burst: 12,
            workers: 4,
            telemetry: mode,
            ..ReplaySpec::default()
        };
        let pool = build_pool(&d, &spec);
        let ctx = Arc::new(ServiceContext::from_dataset(dataset(9)));
        let report = replay_on(ctx, &pool, &spec);
        assert_eq!(report.trace_violations, None, "only full tracing audits completeness");
        if expect_spans {
            // 1/64 sampling plus the slowest: some spans, not all of them.
            assert!(!report.spans.is_empty(), "sampling retained nothing");
            assert!(report.spans.len() < 300, "sampling retained all {} spans", report.spans.len());
        } else {
            assert!(report.spans.is_empty(), "disabled tracing retained spans");
        }
        let m = &report.metrics;
        assert_eq!(m.completed, 300, "histograms are unconditional");
        assert_eq!(m.queue_wait_hist.count(), 300);
    }
}
