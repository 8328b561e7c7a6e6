//! Incremental skyline repair + the epoch-history ring: the end-to-end
//! serving guarantees.
//!
//! * repaired answers are oracle-exact at their pinned epochs under an
//!   update-heavy replay (the CI `repair-verify` job in miniature), with
//!   most attempts resolving in place;
//! * a bounded epoch ring stays bounded under churn: after the stream, at
//!   most K epochs are pinnable, and the history holds the newest
//!   overlay and at most K batches.

use std::sync::Arc;

use skysr_data::dataset::{DatasetSpec, Preset};
use skysr_service::replay::{build_pool, replay_on, ReplaySpec};
use skysr_service::{ServiceConfig, ServiceContext};

#[test]
fn update_heavy_repair_replay_verifies_and_repairs_in_place() {
    let dataset = DatasetSpec::preset(Preset::CalSmall).scale(0.08).seed(21).generate();
    // A closed loop publishes each wave once the requests before it are
    // answered: every run crosses the same epochs at the same points of the
    // stream, so the split of repairs into in-place and fallback does not
    // depend on timing.
    let spec = ReplaySpec {
        total: 240,
        distinct: 16,
        service: ServiceConfig { workers: 4, repair: true, ..ServiceConfig::default() },
        seq_len: 2,
        update_every: 8,
        update_burst: 8,
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
        update_every: 8,
        update_burst: 8,
        service: ServiceConfig { workers, repair: true, ..ServiceConfig::default() },
        retention: K,
        ..ReplaySpec::default()
    };
    let pool = build_pool(&dataset, &spec);
    let ctx = Arc::new(ServiceContext::from_dataset(dataset));
    let report = replay_on(Arc::clone(&ctx), &pool, &spec);
    assert_eq!(report.epochs_published, 50, "a burst after every 8 of 400 requests");
    let gc = report.metrics.epochs;
    assert_eq!(gc.retention, K);
    assert!(gc.retained <= K, "after drain the ring holds at most K epochs: {gc:?}");
    assert!(gc.compacted > 0, "overflowing the ring must drop epochs: {gc:?}");
    // Each batch reweights at most 2 × 8 arcs, at 20 bytes each plus a
    // record of at most 64 bytes; the newest overlay costs 12 per arc.
    let ring = K * (64 + 20 * 2 * 8);
    assert!(gc.history_bytes <= ring + 12 * gc.overlay_len, "history outgrew the ring: {gc:?}");
    assert_eq!(report.stale_served(), 0);
}
