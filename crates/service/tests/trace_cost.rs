//! What full tracing costs a request, counted rather than timed: heap
//! allocations and bytes per request over one fixed stream, traced minus
//! untraced. A wall-clock ratio of traced to untraced throughput over a
//! few milliseconds measures the host; these counts repeat from run to
//! run, so a change that makes a span dearer shows as a failed budget.
//!
//! The counting allocator is process-wide, so this file holds one test:
//! nothing else may allocate while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use skysr_data::dataset::{DatasetSpec, Preset};
use skysr_data::workload::WorkloadSpec;
use skysr_service::{
    QueryService, Service, ServiceConfig, ServiceContext, TelemetryConfig, TraceSpan,
};

/// Counts every allocation the process makes, then defers to the system
/// allocator. A reallocation counts as one allocation of its new size:
/// `GlobalAlloc`'s provided `realloc` allocates through `alloc`.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: both methods forward their arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// statistics and publish no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Requests in the stream, each a distinct query, so every one searches.
const REQUESTS: usize = 64;

#[test]
fn full_tracing_costs_only_its_span_ring() {
    let dataset = DatasetSpec::preset(Preset::CalSmall).scale(0.05).seed(17).generate();
    let queries = WorkloadSpec::new(3).queries(REQUESTS).seed(5).generate(&dataset).queries;
    let ctx = Arc::new(ServiceContext::from_dataset(dataset));

    // One request at a time on one worker: the same work in the same
    // order on both sides, with no thread racing another to allocate.
    let heap_cost = |telemetry: TelemetryConfig| {
        let config = ServiceConfig { workers: 1, telemetry, ..ServiceConfig::default() };
        let service = Service::new(Arc::clone(&ctx), config);
        let before = (ALLOCATIONS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
        for q in &queries {
            let ticket = service.submit_query(q.clone());
            // Polled, not waited on: parking on the answer channel
            // allocates a waiter entry only when the answer is not in
            // yet, which is a race, not a cost of either side.
            let answer = loop {
                match ticket.try_wait() {
                    Some(answer) => break answer,
                    None => std::thread::yield_now(),
                }
            };
            answer.expect("generated queries are valid");
        }
        let after = (ALLOCATIONS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
        let kept = if telemetry.tracing { REQUESTS } else { 0 };
        assert_eq!(service.traces().drain().len(), kept);
        (after.0 - before.0, after.1 - before.1)
    };
    // The first pass fills the context's compiled positions, which both
    // measured passes then share.
    heap_cost(TelemetryConfig::disabled());
    let untraced = heap_cost(TelemetryConfig::disabled());
    let traced = heap_cost(TelemetryConfig::trace_all(REQUESTS));

    // A span is built for every request either way; keeping it may cost
    // only the retention ring's growth: a vector reaching REQUESTS spans
    // reallocates at most log2(REQUESTS) + 1 times and at most twice its
    // final size in bytes. Measured: 5 allocations and 30,752 bytes (0.08
    // and 480 per request), the same in debug and release builds and
    // from run to run.
    let allocations = traced.0.saturating_sub(untraced.0);
    let bytes = traced.1.saturating_sub(untraced.1);
    let most_allocations = u64::from(REQUESTS.ilog2()) + 1;
    let most_bytes = (2 * REQUESTS * size_of::<TraceSpan>()) as u64;
    assert!(
        allocations <= most_allocations && bytes <= most_bytes,
        "keeping {REQUESTS} spans cost {allocations} allocations and {bytes} bytes, above the \
         ring's {most_allocations} and {most_bytes} (traced {traced:?}, untraced {untraced:?})"
    );
}
