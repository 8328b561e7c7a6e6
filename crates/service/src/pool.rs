//! Std-only worker-pool plumbing: a bounded, deadline/cost-ordered MPMC
//! scheduling queue with blocking producers (backpressure), a
//! singleflight in-flight table for request coalescing, and the fixed set
//! of executor slots that workers and waiting callers share (`Slots`).
//!
//! # The scheduled queue
//!
//! The queue holds only work that needs an engine: cache hits are
//! answered where they arrive and never queue, so no flood of them can
//! delay a search. Under open-loop saturation a FIFO would let a backlog
//! of cold searches hold up the repairs queued behind it, so
//! [`ScheduledQueue`] keeps one min-heap per *cost band* — the rung the
//! request's plan named when it arrived ([`CostClass`]): repairs, then
//! searches — ordered within a band by (effective deadline, submission
//! sequence), a deadline-less request sorting as far-future, that is FIFO
//! behind every deadline carrier. Dequeue serves the cheaper non-empty
//! band, except that a band head older than the aging bound (500 ms in
//! the service) wins outright, so a stream of repairs can never starve a
//! search.
//!
//! # Coalescing
//!
//! [`InflightTable`] is the singleflight behind request coalescing, which
//! the service keys per canonical query *and* weight epoch: the first
//! request of a key leads the flight, and duplicates park on it and
//! receive the leader's `Arc`'d skyline. The leader fills the cache
//! *before* it ends the flight, so a key is never searched twice
//! concurrently.

use std::collections::{BinaryHeap, HashMap};
use std::hash::Hash;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::plan::CostClass;

/// Number of scheduling bands a [`ScheduledQueue`] keeps: one per
/// [`CostClass`]. Classes beyond the last band are clamped into it.
pub const SCHED_BANDS: usize = CostClass::ALL.len();

/// Deadline-less entries order by submission time this far in the future —
/// behind every entry with a real deadline, FIFO among themselves.
const FAR: Duration = Duration::from_secs(365 * 24 * 3600);

/// Scheduling metadata for one queued item.
#[derive(Clone, Copy, Debug)]
pub struct SchedKey {
    /// Cost band, 0 = cheapest (served first). Clamped to
    /// [`SCHED_BANDS`]` - 1`.
    pub class: u8,
    /// Absolute deadline, if the request carries one. Within a band,
    /// earlier deadlines pop first; entries without one pop FIFO after
    /// every deadline-carrying entry.
    pub deadline: Option<Instant>,
    /// When the item was submitted — the aging clock.
    pub submitted: Instant,
}

impl SchedKey {
    /// A key that reproduces plain FIFO behaviour (band 0, no deadline):
    /// what callers without a cost model use.
    pub fn fifo(submitted: Instant) -> SchedKey {
        SchedKey { class: 0, deadline: None, submitted }
    }

    fn effective(&self) -> Instant {
        self.deadline.unwrap_or(self.submitted + FAR)
    }
}

struct Entry<T> {
    effective: Instant,
    submitted: Instant,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Entry<T>) -> bool {
        self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Entry<T>) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    /// Reversed on (effective deadline, seq) so [`BinaryHeap`]'s max-heap
    /// pops the earliest deadline, FIFO within ties.
    fn cmp(&self, other: &Entry<T>) -> std::cmp::Ordering {
        other.effective.cmp(&self.effective).then(other.seq.cmp(&self.seq))
    }
}

struct SchedInner<T> {
    bands: Vec<BinaryHeap<Entry<T>>>,
    len: usize,
    capacity: usize,
    closed: bool,
    seq: u64,
    age_limit: Duration,
}

impl<T> SchedInner<T> {
    /// The band the next pop should serve: any band whose head has aged
    /// past the limit (oldest such head first — the anti-starvation
    /// escape hatch), otherwise the cheapest non-empty band.
    fn select_band(&self) -> Option<usize> {
        let now = Instant::now();
        let mut aged: Option<(Instant, usize)> = None;
        for (b, heap) in self.bands.iter().enumerate() {
            if let Some(head) = heap.peek() {
                if now.duration_since(head.submitted) >= self.age_limit
                    && aged.is_none_or(|(oldest, _)| head.submitted < oldest)
                {
                    aged = Some((head.submitted, b));
                }
            }
        }
        aged.map(|(_, b)| b).or_else(|| self.bands.iter().position(|h| !h.is_empty()))
    }

    fn insert(&mut self, item: T, key: SchedKey) {
        let band = (key.class as usize).min(SCHED_BANDS - 1);
        self.seq += 1;
        self.bands[band].push(Entry {
            effective: key.effective(),
            submitted: key.submitted,
            seq: self.seq,
            item,
        });
        self.len += 1;
    }

    fn remove(&mut self) -> Option<T> {
        let band = self.select_band()?;
        let entry = self.bands[band].pop().expect("selected band is non-empty");
        self.len -= 1;
        Some(entry.item)
    }
}

/// A bounded multi-producer multi-consumer scheduling queue.
///
/// `push` blocks while the queue is full — submission pressure propagates
/// back to callers instead of growing an unbounded backlog. `pop` blocks
/// while the queue is empty and returns `None` once the queue is closed
/// *and* drained, which is the workers' shutdown signal.
///
/// Ordering is *not* FIFO: items pop cheapest cost band first, earliest
/// effective deadline within a band, except that a band whose head has
/// waited at least the queue's age limit is served unconditionally —
/// repairs overtake cold searches, but cold searches cannot starve.
/// Expiry is the consumer's job: the queue never drops items, so the
/// dequeuer can account honestly for a deadline that lapsed in queue.
pub struct ScheduledQueue<T> {
    inner: Mutex<SchedInner<T>>,
    not_full: Condvar,
    not_empty: Condvar,
}

impl<T> ScheduledQueue<T> {
    /// Queue admitting at most `capacity` pending items; a band head older
    /// than `age_limit` preempts cheaper bands (see type docs).
    pub fn new(capacity: usize, age_limit: Duration) -> ScheduledQueue<T> {
        assert!(capacity > 0, "queue capacity must be positive");
        ScheduledQueue {
            inner: Mutex::new(SchedInner {
                bands: (0..SCHED_BANDS).map(|_| BinaryHeap::new()).collect(),
                len: 0,
                capacity,
                closed: false,
                seq: 0,
                age_limit,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    /// Enqueues `item` under `key`, blocking while the queue is full.
    /// Returns the item back as `Err` if the queue was closed.
    pub fn push(&self, item: T, key: SchedKey) -> Result<(), T> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if inner.closed {
                return Err(item);
            }
            if inner.len < inner.capacity {
                inner.insert(item, key);
                self.not_empty.notify_one();
                return Ok(());
            }
            inner = self.not_full.wait(inner).expect("queue poisoned");
        }
    }

    /// Dequeues the highest-priority item, blocking while the queue is
    /// empty. Returns `None` once the queue is closed and fully drained.
    pub fn pop(&self) -> Option<T> {
        self.pop_with_depth().map(|(item, _)| item)
    }

    /// Like [`ScheduledQueue::pop`], but also reports how many items
    /// remain queued *behind* the dequeued one, read under the same lock —
    /// the queue-depth figure a trace span records without a second lock
    /// round-trip.
    pub fn pop_with_depth(&self) -> Option<(T, usize)> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some(item) = inner.remove() {
                let depth = inner.len;
                self.not_full.notify_one();
                return Some((item, depth));
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).expect("queue poisoned");
        }
    }

    /// Closes the queue: pending items still drain, new pushes fail, and
    /// blocked consumers wake up.
    pub fn close(&self) {
        self.inner.lock().expect("queue poisoned").closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Number of items currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue poisoned").len
    }

    /// Queued items per band — the backlog composition the admission
    /// gate's wait estimate is computed from.
    pub fn band_lens(&self) -> [usize; SCHED_BANDS] {
        let inner = self.inner.lock().expect("queue poisoned");
        let mut lens = [0; SCHED_BANDS];
        for (slot, heap) in lens.iter_mut().zip(&inner.bands) {
            *slot = heap.len();
        }
        lens
    }

    /// Whether no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether [`close`](Self::close) was called.
    pub(crate) fn is_closed(&self) -> bool {
        self.inner.lock().expect("queue poisoned").closed
    }
}

/// A singleflight-style in-flight table: the first caller to `begin` a key
/// becomes its *leader* (and runs the computation); every later caller
/// becomes a *follower* whose waiter is parked under the key until the
/// leader calls [`InflightTable::complete`] and answers them all with the
/// shared result.
///
/// The begin decision and the waiter parking are one atomic step under the
/// table lock — there is no window in which a follower can park under a
/// key whose leader has already completed. The converse race (a leader
/// completes, *then* a new request begins the same key) is handled by the
/// leader reading the result cache only after `begin`, and by inserting
/// into the cache *before* completing (see `Shared::run_job` in
/// `service.rs`): the latecomer leads and finds the answer as a hit. With
/// caching disabled it simply leads a fresh computation.
pub struct InflightTable<K, W> {
    inner: Mutex<HashMap<K, Vec<W>>>,
}

/// Outcome of [`InflightTable::begin`].
pub enum Begin<W> {
    /// No one is computing this key: the caller leads, and gets its waiter
    /// back to answer directly when done.
    Leader(W),
    /// Someone else is computing this key; the waiter was parked.
    Joined,
}

impl<K: Eq + Hash, W> InflightTable<K, W> {
    /// Empty table.
    pub fn new() -> InflightTable<K, W> {
        InflightTable { inner: Mutex::new(HashMap::new()) }
    }

    /// Atomically claims `key` (becoming its leader) or parks `waiter`
    /// under the existing leader.
    pub fn begin(&self, key: K, waiter: W) -> Begin<W> {
        use std::collections::hash_map::Entry;
        match self.inner.lock().expect("inflight table poisoned").entry(key) {
            Entry::Occupied(mut e) => {
                e.get_mut().push(waiter);
                Begin::Joined
            }
            Entry::Vacant(e) => {
                e.insert(Vec::new());
                Begin::Leader(waiter)
            }
        }
    }

    /// Parks `waiter` under the flight in progress for `key`, or hands it
    /// back when there is none — a join that never leads.
    pub(crate) fn join(&self, key: &K, waiter: W) -> Result<(), W> {
        match self.inner.lock().expect("inflight table poisoned").get_mut(key) {
            Some(waiters) => {
                waiters.push(waiter);
                Ok(())
            }
            None => Err(waiter),
        }
    }

    /// Ends the flight for `key`, returning every parked waiter (empty if
    /// none joined). The leader must call this exactly once, even on
    /// failure — parked waiters would otherwise never be answered.
    pub fn complete(&self, key: &K) -> Vec<W> {
        self.inner.lock().expect("inflight table poisoned").remove(key).unwrap_or_default()
    }

    /// Number of keys currently in flight.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("inflight table poisoned").len()
    }

    /// Whether no key is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Eq + Hash, W> Default for InflightTable<K, W> {
    fn default() -> InflightTable<K, W> {
        InflightTable::new()
    }
}

/// A fixed set of interchangeable slots, each taken for a while and given
/// back: the service's engine scratches. A worker waits for a free slot
/// ([`take`](Self::take)); a caller running its own request takes one only
/// if one is free ([`try_take`](Self::try_take)).
pub(crate) struct Slots<T> {
    free: Mutex<Vec<T>>,
    given: Condvar,
}

impl<T> Slots<T> {
    /// No slots yet: each is [given](Self::give) once to start with.
    pub(crate) fn new() -> Slots<T> {
        Slots { free: Mutex::new(Vec::new()), given: Condvar::new() }
    }

    /// Takes a free slot, blocking until one is given back.
    pub(crate) fn take(&self) -> T {
        let mut free = self.lock();
        loop {
            if let Some(slot) = free.pop() {
                return slot;
            }
            free = self.given.wait(free).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Takes a free slot if there is one.
    pub(crate) fn try_take(&self) -> Option<T> {
        self.lock().pop()
    }

    /// Gives a slot back and wakes one waiting taker.
    pub(crate) fn give(&self, slot: T) {
        self.lock().push(slot);
        self.given.notify_one();
    }

    /// A slot is given back while a panicking run unwinds, which must not
    /// panic again: no code panics while holding this lock, so a poisoned
    /// one still holds a consistent list.
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<T>> {
        self.free.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// An age limit no test waits out: scheduling order is purely
    /// band/deadline-driven.
    const NO_AGING: Duration = Duration::from_secs(3600);

    fn fifo_now() -> SchedKey {
        SchedKey::fifo(Instant::now())
    }

    fn classed(class: u8) -> SchedKey {
        SchedKey { class, deadline: None, submitted: Instant::now() }
    }

    #[test]
    fn singleflight_one_leader_many_followers() {
        let t: InflightTable<u32, &'static str> = InflightTable::new();
        let Begin::Leader(w) = t.begin(7, "leader") else {
            panic!("first begin must lead");
        };
        assert_eq!(w, "leader");
        assert_eq!(t.join(&8, "stray"), Err("stray"), "no flight, no join");
        assert!(matches!(t.begin(7, "f1"), Begin::Joined));
        assert_eq!(t.join(&7, "f2"), Ok(()));
        // A different key gets its own leader.
        assert!(matches!(t.begin(8, "other"), Begin::Leader("other")));
        assert_eq!(t.len(), 2);
        let waiters = t.complete(&7);
        assert_eq!(waiters, vec!["f1", "f2"]);
        assert_eq!(t.join(&7, "late"), Err("late"), "a completed flight takes no one");
        // The key is free again: the next begin leads.
        assert!(matches!(t.begin(7, "again"), Begin::Leader("again")));
        assert_eq!(t.complete(&7), Vec::<&str>::new());
        assert_eq!(t.complete(&8), Vec::<&str>::new());
        assert!(t.is_empty());
    }

    #[test]
    fn concurrent_begins_elect_exactly_one_leader() {
        let t: Arc<InflightTable<u32, usize>> = Arc::new(InflightTable::new());
        let handles: Vec<_> = (0..16)
            .map(|i| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || matches!(t.begin(1, i), Begin::Leader(_)))
            })
            .collect();
        let leaders = handles.into_iter().map(|h| h.join().unwrap()).filter(|&led| led).count();
        assert_eq!(leaders, 1);
        assert_eq!(t.complete(&1).len(), 15);
    }

    #[test]
    fn fifo_within_a_band_without_deadlines() {
        let q = ScheduledQueue::new(4, NO_AGING);
        for i in 0..4 {
            q.push(i, fifo_now()).unwrap();
        }
        assert_eq!(q.len(), 4);
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn cheap_bands_overtake_expensive_ones() {
        let q = ScheduledQueue::new(8, NO_AGING);
        q.push("cold-1", classed(1)).unwrap();
        q.push("repair-1", classed(0)).unwrap();
        q.push("cold-2", classed(3)).unwrap();
        q.push("repair-2", classed(0)).unwrap();
        assert_eq!(q.pop(), Some("repair-1"), "cheapest band first");
        assert_eq!(q.pop(), Some("repair-2"));
        assert_eq!(q.pop(), Some("cold-1"), "FIFO within the cold band");
        assert_eq!(q.pop(), Some("cold-2"), "a class past the last band is clamped into it");
    }

    #[test]
    fn earlier_deadline_pops_first_within_a_band() {
        let now = Instant::now();
        let at = |ms: u64| SchedKey {
            class: 2,
            deadline: Some(now + Duration::from_millis(ms)),
            submitted: now,
        };
        let q = ScheduledQueue::new(8, NO_AGING);
        q.push("lenient", at(500)).unwrap();
        q.push("urgent", at(10)).unwrap();
        q.push("none", SchedKey { class: 2, deadline: None, submitted: now }).unwrap();
        q.push("middling", at(100)).unwrap();
        assert_eq!(q.pop(), Some("urgent"));
        assert_eq!(q.pop(), Some("middling"));
        assert_eq!(q.pop(), Some("lenient"));
        assert_eq!(q.pop(), Some("none"), "deadline-less entries go last");
    }

    #[test]
    fn aging_band_head_preempts_cheaper_bands() {
        let age_limit = Duration::from_millis(20);
        let q = ScheduledQueue::new(16, age_limit);
        q.push("cold", classed(1)).unwrap();
        std::thread::sleep(age_limit + Duration::from_millis(5));
        // A stream of cheap work arrives after the cold entry aged out:
        // the cold entry must still be served next, not starved.
        for _ in 0..4 {
            q.push("repair", classed(0)).unwrap();
        }
        assert_eq!(q.pop(), Some("cold"), "aged head preempts cheaper bands");
        assert_eq!(q.pop(), Some("repair"));
    }

    #[test]
    fn close_drains_then_ends() {
        let q = ScheduledQueue::new(4, NO_AGING);
        q.push(1, fifo_now()).unwrap();
        q.close();
        assert_eq!(q.push(2, fifo_now()), Err(2));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn full_queue_blocks_until_a_consumer_drains() {
        let q = Arc::new(ScheduledQueue::new(1, NO_AGING));
        q.push(0u32, fifo_now()).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(1, fifo_now()).is_ok())
        };
        // Give the producer time to hit the full queue.
        std::thread::sleep(Duration::from_millis(30));
        assert!(!producer.is_finished(), "push must block while full");
        assert_eq!(q.pop(), Some(0));
        assert!(producer.join().unwrap());
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn many_producers_many_consumers_deliver_everything() {
        let q = Arc::new(ScheduledQueue::new(8, NO_AGING));
        let producers: Vec<_> = (0..4u64)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..250u64 {
                        q.push(p * 1_000 + i, classed((i % SCHED_BANDS as u64) as u8)).unwrap();
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u64> = consumers.into_iter().flat_map(|c| c.join().unwrap()).collect();
        all.sort_unstable();
        let mut expect: Vec<u64> =
            (0..4u64).flat_map(|p| (0..250u64).map(move |i| p * 1_000 + i)).collect();
        expect.sort_unstable();
        assert_eq!(all, expect);
    }
}
