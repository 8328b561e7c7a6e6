//! Overload-resilience guarantees: deadline-aware scheduling, admission
//! control and QoS degradation under sustained 2× overload.
//!
//! Three invariants, each end-to-end through the public service API:
//!
//! * **No wrong answers under overload.** At twice measured capacity with
//!   a tight deadline and admission on, every request either completes
//!   *exactly* (oracle-equivalent at its pinned epoch), is shed with
//!   [`QueryError::Overloaded`] (admission-refused or expired in queue),
//!   or is served as a *valid* approximate partial — every partial route
//!   dominated-or-equal by the exact skyline, the partial itself mutually
//!   non-dominated. The replay driver's `--verify` oracle checks all
//!   three cases; the counters must tile exactly.
//! * **Expired-in-queue work is never executed.** A request whose
//!   deadline has already lapsed is dropped at dequeue: the engine never
//!   runs, `executed` never moves, `shed_deadline` accounts for every one.
//! * **Hits never delay searches.** A continuous flood of cache hits
//!   cannot hold up a queued cold search: hits are answered at
//!   submission and never enter the queue, so the cold answer lands
//!   orders of magnitude sooner than the flood ends.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use skysr_core::error::QueryError;
use skysr_data::dataset::{Dataset, DatasetSpec, Preset};
use skysr_service::replay::{build_pool, replay_on, ReplaySpec, StreamPattern};
use skysr_service::{QueryRequest, QueryService, Service, ServiceConfig, ServiceContext};

fn city(seed: u64) -> Dataset {
    DatasetSpec::preset(Preset::CalSmall).scale(0.08).seed(seed).generate()
}

/// A low-reuse churned Zipf stream of `total` requests — wide pool, flat
/// exponent, weight updates in flight — so load genuinely lands on the
/// search rungs and 2× the cold-calibrated capacity overloads the
/// service for real.
fn overload_spec(seed: u64, total: usize) -> ReplaySpec {
    ReplaySpec {
        total,
        distinct: total / 2,
        seq_len: 2,
        pattern: StreamPattern::Zipf,
        zipf_exponent: 0.5,
        service: ServiceConfig { workers: 4, repair: true, ..ServiceConfig::default() },
        seed,
        update_rate: 100.0,
        update_burst: 8,
        verify: true,
        ..ReplaySpec::default()
    }
}

/// How many deadlines the overloaded stream's arrivals span. At arrival
/// rate 2C against capacity C the backlog's wait grows at one second per
/// second, so the requests arriving after the first deadline's worth of
/// stream wait past their deadline and shed. The margin absorbs the two
/// calibrations (the calm pass sizes the stream, the overloaded pass
/// sets its own rate) disagreeing: a 3× lower calm reading still leaves
/// ten deadlines of arrivals.
const STREAM_DEADLINES: f64 = 32.0;

#[test]
fn two_x_overload_serves_only_exact_shed_or_valid_approximate() {
    let seed = 33;
    let base = overload_spec(seed, 192);
    let ctx = |spec: &ReplaySpec| {
        let d = city(seed);
        let pool = build_pool(&d, spec);
        (Arc::new(ServiceContext::from_dataset(d)), pool)
    };
    let (calm_ctx, pool) = ctx(&base);

    // Uncontended pass at half measured capacity: genuine service-time
    // latencies. The overloaded pass takes the *median* as its deadline —
    // trivially meetable for the cheap rungs, unmeetable for the slower
    // half of the searches once any 2×-capacity backlog builds (and
    // robust against capacity mis-calibration under a noisy scheduler,
    // which a generous multiple of the tail would not be).
    let uncontended = ReplaySpec { overload: 0.5, ..base.clone() };
    let calm = replay_on(calm_ctx, &pool, &uncontended);
    assert_eq!(calm.verify_mismatches, Some(0), "uncontended run must be oracle-exact");
    assert_eq!(calm.metrics.completed, 192, "nothing sheds without a deadline");
    let deadline = calm.metrics.latency_p50.max(Duration::from_millis(1));

    // The overloaded stream is sized from the calibrated capacity C (the
    // calm pass ran at 0.5 C) so that it arrives over STREAM_DEADLINES
    // deadlines: total = 2 C × deadline × STREAM_DEADLINES. A fixed-size
    // stream could drain within one deadline on a fast host and shed
    // nothing.
    let capacity = calm.qps / uncontended.overload;
    let arrivals = 2.0 * capacity * deadline.as_secs_f64() * STREAM_DEADLINES;
    let total = (arrivals.ceil() as usize).clamp(192, 20_000);
    let sized = overload_spec(seed, total);
    let (ctx, pool) = ctx(&sized);
    let overloaded = ReplaySpec {
        overload: 2.0,
        // The queue holds the whole stream, so arrivals never wait on a
        // full queue and the backlog is the scheduler's to order and shed.
        service: ServiceConfig { admission: true, queue_capacity: total, ..sized.service.clone() },
        deadline: Some(deadline),
        ..sized
    };
    let report = replay_on(ctx, &pool, &overloaded);

    // The oracle audited every produced response: exact answers as
    // score-equivalent skylines, approximate ones as valid partials
    // (dominated-or-equal by the exact skyline, mutually non-dominated).
    assert_eq!(report.verify_mismatches, Some(0), "overload must never produce a wrong answer");
    assert_eq!(report.metrics.stale_served, 0, "degraded is not stale");

    // Accounting tiles exactly: every request completed or was shed, and
    // every completion is attributable to exactly one rung.
    let m = &report.metrics;
    assert_eq!(m.failed, 0, "overload surfaces as Overloaded sheds, not failures");
    assert_eq!(
        m.completed + m.rejected + m.shed_deadline,
        total as u64,
        "every request completes or sheds: {m:?}"
    );
    assert_eq!(
        m.completed,
        m.executed + m.cache_hits + m.coalesced + m.approximate_served,
        "served-outcome taxonomy must tile: {m:?}"
    );

    // 2× capacity over a stream many deadlines long must actually
    // overload: part of the stream sheds (admission or expiry).
    assert!(report.shed() > 0, "2x capacity over {total} requests must shed: {m:?}");

    // The met-deadline split covers exactly the requests that finished.
    let (met, finished) = report.met_deadline.expect("deadline runs report the split");
    assert_eq!(finished as u64, m.completed);
    assert!(met <= finished);
}

#[test]
fn expired_in_queue_requests_are_never_executed() {
    let d = city(5);
    let spec = ReplaySpec { distinct: 8, seq_len: 2, ..ReplaySpec::default() };
    let pool = build_pool(&d, &spec);
    let ctx = Arc::new(ServiceContext::from_dataset(d));
    let service = Service::new(ctx, ServiceConfig { workers: 2, ..ServiceConfig::default() });

    // A zero deadline has lapsed by the time any worker can dequeue it:
    // the scheduler must drop every one at dequeue, engine untouched.
    let tickets: Vec<_> = (0..32)
        .map(|i| {
            service.submit(QueryRequest::new(pool[i % pool.len()].clone()).deadline(Duration::ZERO))
        })
        .collect();
    for t in tickets {
        match t.wait() {
            Err(QueryError::Overloaded) => {}
            other => panic!("an expired request must shed with Overloaded, got {other:?}"),
        }
    }
    let m = service.metrics();
    assert_eq!(m.executed, 0, "expired-in-queue work must never reach the engine");
    assert_eq!(m.completed, 0);
    assert_eq!(m.approximate_served, 0);
    assert_eq!(m.shed_deadline, 32, "every shed is accounted: {m:?}");

    // The service stays healthy: a deadline-less request still serves.
    let r = service.submit_query(pool[0].clone()).wait().expect("service must stay serviceable");
    assert!(!r.routes.is_empty());
    let m = service.shutdown();
    assert_eq!(m.completed, 1);
    assert_eq!(m.executed, 1);
}

#[test]
fn a_hit_flood_never_delays_a_queued_search() {
    let d = city(13);
    let spec = ReplaySpec { distinct: 8, seq_len: 2, ..ReplaySpec::default() };
    let pool = build_pool(&d, &spec);
    let ctx = Arc::new(ServiceContext::from_dataset(d));
    let service =
        Arc::new(Service::new(ctx, ServiceConfig { workers: 1, ..ServiceConfig::default() }));

    // Prime the cache so `pool[0]` duplicates are hits, answered at
    // submission; `pool[1]` stays uncached — a queued cold search.
    service.submit_query(pool[0].clone()).wait().expect("prime the hit query");

    let flood = Duration::from_millis(1200);
    let stop = Arc::new(AtomicBool::new(false));
    let feeders: Vec<_> = (0..4)
        .map(|_| {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            let hit = pool[0].clone();
            std::thread::spawn(move || {
                let t0 = Instant::now();
                let mut tickets = Vec::new();
                // Four submitters against one worker keep hits arriving
                // for the whole flood window.
                while t0.elapsed() < flood && !stop.load(Ordering::Relaxed) {
                    tickets.push(service.submit_query(hit.clone()));
                    if tickets.len() >= 64 {
                        for t in tickets.drain(..) {
                            let _ = t.wait();
                        }
                    }
                }
                for t in tickets {
                    let _ = t.wait();
                }
            })
        })
        .collect();

    // Let the flood build a backlog, then queue the cold search behind it.
    std::thread::sleep(Duration::from_millis(50));
    let submitted = Instant::now();
    let cold = service.submit_query(pool[1].clone());
    let response = cold.wait().expect("the cold search must complete");
    let waited = submitted.elapsed();
    stop.store(true, Ordering::Relaxed);
    for f in feeders {
        f.join().expect("feeder thread");
    }

    assert!(!response.routes.is_empty());
    // Were hits queued ahead of searches, the cold search would drain
    // only after the flood stops (≥ 1.15 s from its submission). Hits
    // never queue, so it waits for the search alone.
    assert!(
        waited < Duration::from_millis(600),
        "cold search starved for {waited:?} under a cache-hit flood"
    );
    let m = service.shutdown();
    assert!(m.cache_hits > 0, "the flood must actually serve hits");
    assert!(m.executed >= 2, "prime + cold search");
}
