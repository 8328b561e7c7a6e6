//! Incremental skyline repair + epoch-history GC: the end-to-end serving
//! guarantees.
//!
//! * repaired answers are oracle-exact at their pinned epochs under an
//!   update-heavy replay (the CI `repair-verify` job in miniature), with
//!   most attempts resolving in place;
//! * a bounded epoch ring stays bounded under churn: after the service
//!   drains, at most K epochs are retained, and the mid-run high-water
//!   mark never exceeds K plus one leased epoch per worker.

use std::sync::Arc;

use skysr_data::dataset::{DatasetSpec, Preset};
use skysr_service::replay::{build_pool, replay_on, ReplaySpec};
use skysr_service::{ServiceConfig, ServiceContext};

#[test]
fn update_heavy_repair_replay_verifies_and_repairs_in_place() {
    let dataset = DatasetSpec::preset(Preset::CalSmall).scale(0.08).seed(21).generate();
    // Closed-loop update waves, not a wall-clock updater: every run crosses
    // the same epochs at the same points of the stream, so the split of
    // repairs into in-place and fallback does not depend on timing.
    let spec = ReplaySpec {
        total: 240,
        distinct: 16,
        service: ServiceConfig { workers: 4, repair: true, ..ServiceConfig::default() },
        seq_len: 2,
        update_every: 8,
        update_burst: 8,
        update_magnitude: 2.0,
        verify: true,
        ..ReplaySpec::default()
    };
    let pool = build_pool(&dataset, &spec);
    let ctx = Arc::new(ServiceContext::from_dataset(dataset));
    let report = replay_on(ctx, &pool, &spec);
    assert_eq!(report.metrics.completed, 240);
    assert_eq!(report.verify_mismatches, Some(0), "repair must be oracle-exact");
    assert_eq!(report.stale_served(), 0);
    assert!(report.epochs_published > 0, "updates must interleave with the stream");
    let m = &report.metrics;
    assert!(m.repairs > 0, "epoch churn over a warm cache must trigger repairs: {m:?}");
    assert!(
        m.repair_fallbacks < m.repairs,
        "most repairs resolve in place ({} fallbacks vs {} repairs)",
        m.repair_fallbacks,
        m.repairs
    );
    assert_eq!(m.cache.invalidations, 0, "repair replaces lazy invalidation entirely");
}

#[test]
fn bounded_retention_soak_keeps_history_within_the_ring() {
    let dataset = DatasetSpec::preset(Preset::CalSmall).scale(0.08).seed(33).generate();
    const K: usize = 6;
    let workers = 4;
    let spec = ReplaySpec {
        total: 400,
        distinct: 16,
        seq_len: 2,
        qps: 3000.0,
        update_rate: 400.0,
        update_burst: 8,
        service: ServiceConfig { workers, repair: true, ..ServiceConfig::default() },
        retention: K,
        ..ReplaySpec::default()
    };
    let pool = build_pool(&dataset, &spec);
    let ctx = Arc::new(ServiceContext::from_dataset(dataset));
    let report = replay_on(Arc::clone(&ctx), &pool, &spec);
    assert!(report.epochs_published as usize > 2 * K, "the soak must overflow the ring");
    let gc = report.epoch_gc;
    assert_eq!(gc.retention, K);
    assert!(gc.retained <= K, "after drain the ring holds at most K epochs: {gc:?}");
    assert!(gc.compacted > 0, "overflowing the ring must compact overlays: {gc:?}");
    // Mid-run, each worker can lease at most one older epoch beyond the
    // ring (it re-pins per job), so the high-water mark is hard-bounded.
    assert!(gc.retained_max <= K + workers, "history exceeded the ring plus worker leases: {gc:?}");
    assert_eq!(report.stale_served(), 0);
}
