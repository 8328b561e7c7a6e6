//! Deterministic request-coalescing and semantic-reuse guarantees.
//!
//! Timing-free invariants (hold on any scheduler / core count):
//!
//! * with caching + coalescing, N identical queries trigger **exactly one**
//!   engine search, however they interleave — a duplicate either hits the
//!   cache, or joins the in-flight leader, or (first arrival only) leads;
//!   the leader inserts into the cache *before* ending the flight, so no
//!   second search can ever start;
//! * every answer shares the leader's allocation (`Arc::ptr_eq`) —
//!   byte-identical results by construction;
//! * a duplicate of a running search parks on its flight where it is
//!   submitted: it never queues, and the leader answers it.
//!
//! To additionally pin down *observed* coalescing (followers parked while
//! the leader is mid-search), the slow-service tests throttle the
//! similarity oracle: query preparation then takes tens of milliseconds
//! inside the flight window, so every queued duplicate provably arrives
//! while the leader is still searching.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use skysr_category::{CategoryForest, CategoryId, Similarity, WuPalmer};
use skysr_core::paper_example::PaperExample;
use skysr_service::{
    Answer, QueryRequest, QueryService, Reply, Served, Service, ServiceConfig, ServiceContext,
};

/// Wu–Palmer with a per-call delay and an invocation counter: makes every
/// query preparation slow (it happens inside the engine run, i.e. inside
/// the coalescing flight) and counts how many preparations actually ran.
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

fn slow_service(workers: usize, delay: Duration) -> (PaperExample, Arc<ThrottledSim>, Service) {
    let ex = PaperExample::new();
    let sim = Arc::new(ThrottledSim { delay, calls: AtomicU64::new(0) });
    let ctx = Arc::new(ServiceContext::with_similarity(
        ex.graph.clone(),
        ex.forest.clone(),
        ex.pois.clone(),
        Arc::clone(&sim) as Arc<dyn Similarity>,
    ));
    let service = Service::new(ctx, ServiceConfig { workers, ..ServiceConfig::default() });
    (ex, sim, service)
}

#[test]
fn n_identical_queries_run_exactly_one_search() {
    // 64 identical queries on 8 workers against a deliberately slow
    // engine: the first arrival leads, and since the leader's search far
    // outlasts the drain of the 64-job queue, every other request joins
    // the flight — none can even be a cache hit until the leader finishes.
    let (ex, _sim, service) = slow_service(8, Duration::from_micros(500));
    let responses: Vec<_> = service
        .run_queries(&vec![ex.query(); 64])
        .into_iter()
        .map(|r| r.expect("valid query"))
        .collect();
    let m = service.shutdown();
    assert_eq!(m.completed, 64);
    assert_eq!(m.executed, 1, "exactly one engine search");
    assert_eq!(m.coalesced + m.cache_hits, 63, "everyone else shared it");
    assert!(m.coalesced > 0, "the slow flight must park followers");
    // Byte-identical: every response shares the leader's allocation.
    for r in &responses[1..] {
        assert!(Arc::ptr_eq(&r.routes, &responses[0].routes));
    }
    assert_eq!(responses[0].routes.len(), 2, "paper-example skyline");
    // Exactly one response is the leader's (neither cached nor coalesced).
    let leaders = responses.iter().filter(|r| !r.cache_hit() && !r.coalesced()).count();
    assert_eq!(leaders, 1);
}

#[test]
fn interleaved_distinct_queries_coalesce_per_key() {
    // Two distinct queries interleaved 32 times each: exactly one search
    // per canonical key, results shared within each key only.
    let (ex, _sim, service) = slow_service(8, Duration::from_micros(300));
    let gift = ex.forest.by_name("Gift Shop").unwrap();
    let hobby = ex.forest.by_name("Hobby Shop").unwrap();
    let qa = skysr_core::SkySrQuery::new(ex.vq, [gift, hobby]);
    let qb = skysr_core::SkySrQuery::new(ex.vq, [hobby, gift]);
    let queries: Vec<_> =
        (0..64).map(|i| if i % 2 == 0 { qa.clone() } else { qb.clone() }).collect();
    let responses: Vec<_> =
        service.run_queries(&queries).into_iter().map(|r| r.expect("valid query")).collect();
    let m = service.shutdown();
    assert_eq!(m.completed, 64);
    assert_eq!(m.executed, 2, "one search per distinct key");
    for pair in responses.chunks(2).skip(1) {
        assert!(Arc::ptr_eq(&pair[0].routes, &responses[0].routes));
        assert!(Arc::ptr_eq(&pair[1].routes, &responses[1].routes));
    }
    assert!(
        !Arc::ptr_eq(&responses[0].routes, &responses[1].routes),
        "distinct keys do not share results"
    );
}

#[test]
fn coalescing_disabled_searches_duplicates_redundantly() {
    // The PR 1 failure mode this PR removes, pinned as a contrast test:
    // with coalescing off, duplicates in flight during the slow leader
    // search each run their own redundant search.
    let ex = PaperExample::new();
    let sim =
        Arc::new(ThrottledSim { delay: Duration::from_micros(500), calls: AtomicU64::new(0) });
    let ctx = Arc::new(ServiceContext::with_similarity(
        ex.graph.clone(),
        ex.forest.clone(),
        ex.pois.clone(),
        Arc::clone(&sim) as Arc<dyn Similarity>,
    ));
    let service = Service::new(
        ctx,
        ServiceConfig { workers: 8, coalesce: false, ..ServiceConfig::default() },
    );
    for outcome in service.run_queries(&vec![ex.query(); 64]) {
        outcome.expect("valid query");
    }
    let m = service.shutdown();
    assert_eq!(m.completed, 64);
    assert_eq!(m.coalesced, 0);
    assert!(
        m.executed > 1,
        "without coalescing, slow in-flight duplicates each search ({} searches)",
        m.executed
    );
}

#[test]
fn a_duplicate_parks_on_the_running_flight_at_submission() {
    // One worker, held inside the flight: the streaming leader's sink
    // blocks on its first provisional route until released.
    let (ex, _sim, service) = slow_service(1, Duration::ZERO);
    let (entered_tx, entered) = mpsc::channel::<()>();
    let (release, held) = mpsc::channel::<()>();
    let (leader_tx, leader) = mpsc::channel();
    let mut first = true;
    service.submit_to(
        QueryRequest::new(ex.query()),
        Reply::new(true, move |answer| match answer {
            Answer::Progress(_) if first => {
                first = false;
                entered_tx.send(()).unwrap();
                let _ = held.recv();
            }
            Answer::Progress(_) => {}
            Answer::Final(outcome) => leader_tx.send(outcome).unwrap(),
        }),
    );
    entered.recv().unwrap();
    let duplicate = service.submit(QueryRequest::new(ex.query()));
    release.send(()).unwrap();
    let leader = leader.recv().unwrap().expect("valid query");
    let follower = duplicate.wait().expect("valid query");
    assert_eq!(leader.served, Served::Search);
    assert_eq!(follower.served, Served::Coalesced, "the duplicate joined the flight");
    assert_eq!(follower.queue_wait, Duration::ZERO, "a parked duplicate never queues");
    assert!(Arc::ptr_eq(&leader.routes, &follower.routes));
    let m = service.shutdown();
    assert_eq!((m.executed, m.coalesced), (1, 1));
}
