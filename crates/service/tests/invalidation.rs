//! Epoch-versioned cache invalidation: staleness must never leak.
//!
//! Dynamic edge weights make every cached skyline valid only for the
//! weight epoch it was computed under. These tests pin down the serving
//! guarantees end-to-end:
//!
//! * answers always track a *fresh* search at the epoch the request was
//!   pinned to (oracle-verified), before and after updates;
//! * epoch-stale cache entries are lazily invalidated, never served
//!   (`stale_served == 0` always);
//! * coalescing flights are per-(query, epoch): an in-flight leader that
//!   started on epoch N cannot answer — or poison the cache of — traffic
//!   pinned to epoch N+1, even when its insert lands *after* the
//!   post-update result's;
//! * with the cache disabled, weight updates change answers without the
//!   cache seeing a single lookup (the PR-2 zero-lookup guarantee
//!   survives).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use skysr_category::{CategoryForest, CategoryId, Similarity, WuPalmer};
use skysr_core::bssr::{Bssr, BssrConfig};
use skysr_core::paper_example::PaperExample;
use skysr_core::route::equivalent_skylines;
use skysr_data::dataset::{DatasetSpec, Preset};
use skysr_graph::EpochId;
use skysr_service::replay::{build_pool, random_traffic_deltas, replay_on, ReplaySpec};
use skysr_service::{QueryService, Service, ServiceConfig, ServiceContext};

use rand::rngs::StdRng;
use rand::SeedableRng;

fn city_context() -> Arc<ServiceContext> {
    let dataset = DatasetSpec::preset(Preset::CalSmall).scale(0.08).seed(33).generate();
    Arc::new(ServiceContext::from_dataset(dataset))
}

#[test]
fn answers_track_the_fresh_oracle_across_updates() {
    let ctx = city_context();
    let spec = ReplaySpec { distinct: 12, seq_len: 2, seed: 5, ..ReplaySpec::default() };
    let dataset_pool = {
        // build_pool needs a Dataset; regenerate the same city for queries.
        let dataset = DatasetSpec::preset(Preset::CalSmall).scale(0.08).seed(33).generate();
        build_pool(&dataset, &spec)
    };
    let service =
        Service::new(Arc::clone(&ctx), ServiceConfig { workers: 4, ..ServiceConfig::default() });

    let mut rng = StdRng::seed_from_u64(99);
    let mut epochs_seen = Vec::new();
    for round in 0..4 {
        if round > 0 {
            let deltas = random_traffic_deltas(ctx.graph(), 64, 3.0, &mut rng);
            ctx.publish_weights(&deltas);
        }
        let expected_epoch = ctx.current_epoch();
        epochs_seen.push(expected_epoch);
        // Two passes per round: the first searches (or invalidates stale
        // entries), the second must be served entirely from the refreshed
        // cache — both verified against the oracle.
        let mut responses = service.run_batch(dataset_pool.iter().cloned());
        responses.extend(service.run_batch(dataset_pool.iter().cloned()));
        // Oracle: a cold sequential engine over the snapshot pinned at each
        // response's reported epoch.
        for (q, outcome) in dataset_pool.iter().cycle().zip(responses) {
            let r = outcome.expect("generated queries are valid");
            assert_eq!(r.epoch, expected_epoch, "no stragglers: updates precede submission");
            let pinned = ctx.pin_at(r.epoch).expect("epoch was published here");
            let qctx = pinned.query_context();
            let fresh = Bssr::with_config(&qctx, BssrConfig::default()).run(q).unwrap().routes;
            assert!(
                equivalent_skylines(&r.routes, &fresh),
                "round {round}: served skyline diverged from fresh search at its epoch"
            );
        }
    }
    assert_eq!(epochs_seen, vec![EpochId(0), EpochId(1), EpochId(2), EpochId(3)]);

    let m = service.shutdown();
    assert_eq!(m.stale_served, 0, "staleness gate");
    assert!(
        m.cache.invalidations > 0,
        "post-update lookups must lazily drop pre-update entries ({:?})",
        m.cache
    );
    // Every round re-searched every distinct query despite a warm cache
    // (the epoch changed), and every second pass was served from it.
    assert_eq!(m.executed, dataset_pool.len() as u64 * 4, "one search per query per epoch");
    assert!(m.cache_hits >= dataset_pool.len() as u64 * 4, "same-epoch passes hit");
}

/// Wu–Palmer with a per-call delay: makes query preparation slow (it
/// happens inside the engine run, i.e. inside the coalescing flight), so a
/// weight update provably lands while a leader is mid-search.
#[derive(Debug)]
struct ThrottledSim {
    delay: Duration,
    calls: AtomicU64,
}

impl Similarity for ThrottledSim {
    fn sim(&self, forest: &CategoryForest, a: CategoryId, b: CategoryId) -> f64 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(self.delay);
        WuPalmer.sim(forest, a, b)
    }
}

#[test]
fn leader_started_on_epoch_n_cannot_serve_or_poison_epoch_n_plus_1() {
    let ex = PaperExample::new();
    let sim = Arc::new(ThrottledSim { delay: Duration::from_millis(1), calls: AtomicU64::new(0) });
    let ctx = Arc::new(ServiceContext::with_similarity(
        ex.graph.clone(),
        ex.forest.clone(),
        ex.pois.clone(),
        Arc::clone(&sim) as Arc<dyn Similarity>,
    ));
    let service =
        Service::new(Arc::clone(&ctx), ServiceConfig { workers: 2, ..ServiceConfig::default() });

    // Leader takes the query at epoch 0 and is guaranteed to still be
    // searching (every similarity call sleeps 1 ms) when the update
    // publishes.
    let slow = service.submit_query(ex.query());
    std::thread::sleep(Duration::from_millis(10));
    let (from, to, w) = ctx.graph().arc(0);
    let e1 = ctx.publish_weights(&[skysr_graph::WeightDelta::new(from, to, w.get() * 4.0)]);
    assert_eq!(e1, EpochId(1));

    // A duplicate submitted after the publish pins epoch 1: it must not
    // join the epoch-0 flight, and must run its own search.
    let fresh = service.submit_query(ex.query());

    let slow = slow.wait().unwrap();
    let fresh = fresh.wait().unwrap();
    assert_eq!(slow.epoch, EpochId(0), "leader stays pinned to its epoch");
    assert_eq!(fresh.epoch, EpochId(1));
    assert!(!fresh.coalesced(), "cross-epoch duplicates never share a flight");
    assert!(!fresh.cache_hit(), "the epoch-0 result must not answer epoch-1 traffic");

    // Whatever order the two inserts landed in, the cache now serves
    // epoch-1 traffic the epoch-1 answer.
    let again = service.submit_query(ex.query()).wait().unwrap();
    assert_eq!(again.epoch, EpochId(1));
    assert!(again.cache_hit(), "epoch-1 entry must be resident");
    assert_eq!(again.routes, fresh.routes);

    let m = service.shutdown();
    assert_eq!(m.executed, 2, "one search per (query, epoch)");
    assert_eq!(m.coalesced, 0);
    assert_eq!(m.stale_served, 0);

    // And the epoch-1 answer is exact: equivalent to a cold run on the
    // pinned post-update snapshot.
    let pinned = ctx.pin_at(EpochId(1)).unwrap();
    let qctx = pinned.query_context();
    let oracle = Bssr::new(&qctx).run(&ex.query()).unwrap().routes;
    assert!(equivalent_skylines(&fresh.routes, &oracle));
}

#[test]
fn epoch_crossing_duplicate_storm_stays_exact() {
    // Waves of identical queries race a publisher that reweights edges
    // between (and during) waves; every answer must match the oracle at
    // its own reported epoch and nothing may be served stale.
    let ex = PaperExample::new();
    let sim =
        Arc::new(ThrottledSim { delay: Duration::from_micros(200), calls: AtomicU64::new(0) });
    let ctx = Arc::new(ServiceContext::with_similarity(
        ex.graph.clone(),
        ex.forest.clone(),
        ex.pois.clone(),
        Arc::clone(&sim) as Arc<dyn Similarity>,
    ));
    let service =
        Service::new(Arc::clone(&ctx), ServiceConfig { workers: 8, ..ServiceConfig::default() });
    let mut rng = StdRng::seed_from_u64(4242);
    let mut responses = Vec::new();
    for _wave in 0..6 {
        let tickets: Vec<_> = (0..24).map(|_| service.submit_query(ex.query())).collect();
        // Publish while the wave is in flight.
        let deltas = random_traffic_deltas(ctx.graph(), 8, 2.0, &mut rng);
        ctx.publish_weights(&deltas);
        responses.extend(tickets.into_iter().map(|t| t.wait().unwrap()));
    }
    let m = service.shutdown();
    assert_eq!(m.completed, 144);
    assert_eq!(m.stale_served, 0, "staleness gate under epoch-crossing storms");

    // Oracle check at each distinct epoch observed.
    let mut by_epoch: std::collections::BTreeMap<EpochId, Vec<&skysr_service::QueryResponse>> =
        Default::default();
    for r in &responses {
        by_epoch.entry(r.epoch).or_default().push(r);
    }
    assert!(by_epoch.len() >= 2, "waves must actually straddle epochs ({:?})", by_epoch.keys());
    for (&epoch, rs) in &by_epoch {
        let pinned = ctx.pin_at(epoch).expect("served epochs were published");
        let qctx = pinned.query_context();
        let oracle = Bssr::new(&qctx).run(&ex.query()).unwrap().routes;
        for r in rs {
            assert!(
                equivalent_skylines(&r.routes, &oracle),
                "epoch {epoch}: answer diverged from its pinned-epoch oracle"
            );
        }
    }
}

#[test]
fn disabled_cache_sees_no_lookups_even_under_updates() {
    let ex = PaperExample::new();
    let ctx = Arc::new(ServiceContext::new(ex.graph.clone(), ex.forest.clone(), ex.pois.clone()));
    let service = Service::new(
        Arc::clone(&ctx),
        ServiceConfig { workers: 2, cache_capacity: 0, ..ServiceConfig::default() },
    );
    let a = service.submit_query(ex.query()).wait().unwrap();
    let (from, to, w) = ctx.graph().arc(0);
    ctx.publish_weights(&[skysr_graph::WeightDelta::new(from, to, w.get() * 2.0)]);
    let b = service.submit_query(ex.query()).wait().unwrap();
    assert_eq!((a.epoch, b.epoch), (EpochId(0), EpochId(1)));
    let m = service.shutdown();
    assert_eq!(m.executed, 2);
    let c = m.cache;
    assert_eq!(
        (m.cache_hits, c.insertions, c.evictions, c.invalidations),
        (0, 0, 0, 0),
        "a disabled cache serves and stores nothing, updates or not"
    );
}

#[test]
fn update_heavy_replay_verifies_at_pinned_epochs() {
    // The replay driver's own gate: open-loop stream, updates racing it,
    // epoch-aware oracle verification, zero stale serves.
    let dataset = DatasetSpec::preset(Preset::CalSmall).scale(0.08).seed(21).generate();
    let spec = ReplaySpec {
        total: 240,
        distinct: 20,
        workers: 4,
        seq_len: 2,
        qps: 2500.0,
        update_rate: 250.0,
        update_burst: 16,
        update_magnitude: 2.5,
        verify: true,
        ..ReplaySpec::default()
    };
    let pool = build_pool(&dataset, &spec);
    let ctx = Arc::new(ServiceContext::from_dataset(dataset));
    let report = replay_on(ctx, &pool, &spec);
    assert_eq!(report.metrics.completed, 240);
    assert_eq!(report.verify_mismatches, Some(0), "every answer exact at its pinned epoch");
    assert_eq!(report.stale_served(), 0);
    assert!(
        report.epochs_published > 0,
        "a ~100 ms open-loop window at 250 bursts/s must publish epochs"
    );
    assert!(report.qps > 0.0);
}
