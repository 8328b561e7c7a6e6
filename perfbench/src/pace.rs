//! The host's pace: two fixed reference jobs, timed between slices of the
//! window and around every set-up.
//!
//! The benchmark gets a few cores of a host shared with other tenants, and
//! the same work runs a third slower or twice as fast depending on what
//! they do, for seconds to minutes at a time: stolen time, clock boost,
//! contention for the caches and memory the cores share. Medians over
//! rounds do not remove a change that lasts the whole run, and ten runs
//! then spread as widely as the host's phases do. Two reference jobs track
//! the pace of the two kinds of work a request does:
//!
//! - [`Pace::search`]: one full Dijkstra search of the city per thread,
//!   memory-bound graph work like the engine's.
//! - [`Pace::handoff`]: the median round trip of a request between two
//!   threads, through the same kinds of mutex, condition variable and
//!   channel the service's queue and tickets use.
//!
//! A time divided by its job's time and multiplied by the job's reference
//! time ([`REFERENCE_S`], [`REFERENCE_HANDOFF_S`]) reads about as it would
//! on a quiet 2-vCPU VM, whether the host is busy or idle. The jobs are the
//! benchmark's own code: a change to the crates under test never changes
//! them.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::time::Instant;

use skysr_graph::{RoadNetwork, VertexId};

/// Seconds [`Pace::search`] takes at the reference pace: about what it
/// takes on Tokyo on a quiet 2-vCPU x86-64 VM, two threads at once.
pub const REFERENCE_S: f64 = 0.1;
/// Seconds [`Pace::handoff`] takes at the reference pace, on the same VM.
pub const REFERENCE_HANDOFF_S: f64 = 4e-6;
/// Sources the reference searches cycle through, spread over the city.
const SOURCES: usize = 64;
/// Round trips each hand-off pair makes per probe.
const ROUND_TRIPS: usize = 500;

/// The reference jobs, over the benchmark's own copy of the city's graph.
pub struct Pace {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<f64>,
    /// Search state, reused so that a search allocates nothing.
    spaces: Mutex<Vec<Space>>,
    /// Searches started so far: picks the next sources.
    started: AtomicUsize,
}

struct Space {
    dist: Vec<f64>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl Pace {
    /// Copies `graph` into the jobs' own arrays.
    pub fn new(graph: &RoadNetwork) -> Pace {
        let n = graph.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(graph.num_arcs());
        let mut weights = Vec::with_capacity(graph.num_arcs());
        offsets.push(0);
        for v in 0..n {
            for (t, w) in graph.neighbors(VertexId(v as u32)) {
                targets.push(t.0);
                weights.push(w.get());
            }
            offsets.push(targets.len() as u32);
        }
        Pace {
            offsets,
            targets,
            weights,
            spaces: Mutex::new(Vec::new()),
            started: AtomicUsize::new(0),
        }
    }

    /// The median time of a request's hand-off there and back, as a
    /// client and a worker pass it: the client pushes onto a queue under a
    /// mutex and wakes the worker through a condition variable, the worker
    /// answers through a channel. `pairs` pairs pass at once, each
    /// [`ROUND_TRIPS`] times. Returns seconds.
    pub fn handoff(&self, pairs: usize) -> f64 {
        let trips: Vec<f64> = std::thread::scope(|scope| {
            let runs: Vec<_> = (0..pairs.max(1)).map(|_| scope.spawn(hand_off)).collect();
            runs.into_iter().flat_map(|r| r.join().expect("a pace thread panicked")).collect()
        });
        crate::stats::median(&trips)
    }

    /// `threads` full searches at once, each timed on its own thread.
    /// Returns their mean in seconds. The `i`-th call of a run searches from
    /// the same sources in every run.
    pub fn search(&self, threads: usize) -> f64 {
        let threads = threads.max(1);
        let first = self.started.fetch_add(threads, Ordering::Relaxed);
        let n = self.offsets.len() - 1;
        let total: f64 = std::thread::scope(|scope| {
            let searches: Vec<_> = (0..threads)
                .map(|i| {
                    let source = ((first + i) % SOURCES * n / SOURCES) as u32;
                    scope.spawn(move || self.timed_search(source))
                })
                .collect();
            searches.into_iter().map(|s| s.join().expect("a pace thread panicked")).sum()
        });
        total / threads as f64
    }

    /// Seconds a full Dijkstra search from `source` takes.
    fn timed_search(&self, source: u32) -> f64 {
        let n = self.offsets.len() - 1;
        let spare = self.spaces.lock().expect("the spaces are never poisoned").pop();
        let mut s = spare.unwrap_or_else(|| Space { dist: vec![0.0; n], heap: BinaryHeap::new() });
        let t0 = Instant::now();
        s.dist.fill(f64::INFINITY);
        s.dist[source as usize] = 0.0;
        s.heap.push(Reverse((0, source)));
        while let Some(Reverse((bits, v))) = s.heap.pop() {
            let d = f64::from_bits(bits);
            if d > s.dist[v as usize] {
                continue;
            }
            let (lo, hi) =
                (self.offsets[v as usize] as usize, self.offsets[v as usize + 1] as usize);
            for (&t, &w) in self.targets[lo..hi].iter().zip(&self.weights[lo..hi]) {
                let nd = d + w;
                if nd < s.dist[t as usize] {
                    s.dist[t as usize] = nd;
                    // Non-negative floats order as their bit patterns do.
                    s.heap.push(Reverse((nd.to_bits(), t)));
                }
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        self.spaces.lock().expect("the spaces are never poisoned").push(s);
        secs
    }
}

/// One client and one worker passing [`ROUND_TRIPS`] requests; returns
/// each round trip's seconds.
fn hand_off() -> Vec<f64> {
    let queue = (Mutex::new(VecDeque::<mpsc::Sender<()>>::new()), Condvar::new());
    std::thread::scope(|scope| {
        let queue = &queue;
        scope.spawn(move || {
            for _ in 0..ROUND_TRIPS {
                let mut q = queue.0.lock().expect("the queue lock is never poisoned");
                let reply = loop {
                    match q.pop_front() {
                        Some(reply) => break reply,
                        None => q = queue.1.wait(q).expect("the queue lock is never poisoned"),
                    }
                };
                drop(q);
                reply.send(()).expect("the client waits for every answer");
            }
        });
        (0..ROUND_TRIPS)
            .map(|_| {
                let (tx, rx) = mpsc::channel();
                let t0 = Instant::now();
                queue.0.lock().expect("the queue lock is never poisoned").push_back(tx);
                queue.1.notify_one();
                rx.recv().expect("the worker answers every request");
                t0.elapsed().as_secs_f64()
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use skysr_data::dataset::{DatasetSpec, Preset};

    #[test]
    fn the_job_takes_time_and_reuses_its_state() {
        let city = DatasetSpec::preset(Preset::TokyoSmall).scale(0.05).seed(1).generate();
        let pace = Pace::new(&city.graph);
        assert_eq!(pace.targets.len(), city.graph.num_arcs());
        for _ in 0..3 {
            assert!(pace.search(2) > 0.0);
        }
        assert!(pace.handoff(2) > 0.0);
        let spaces = pace.spaces.lock().unwrap().len();
        assert!((1..=2).contains(&spaces), "at most one space per thread, reused: {spaces}");
        assert_eq!(pace.started.load(Ordering::Relaxed), 6);
    }
}
