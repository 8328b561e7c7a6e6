//! The route priority queue `Q_b` (Algorithm 1) and its ordering policies.
//!
//! Optimisation 2 (§5.3.2): to tighten the upper bound quickly, BSSR
//! dequeues the route with the **largest size** first, breaking ties by
//! **smallest semantic score**, then **smallest length score**. The
//! conventional *distance-based* ordering (smallest length first) is kept
//! for the Table 8 ablation.
//!
//! Under the proposed order the routes of one *class* — one size and one
//! similarity product, hence one semantic score — pop one after another,
//! shortest first. Grouped expansion (see [`crate::bssr`]) takes such a run
//! with [`RouteQueue::pop_class`].

use std::collections::BinaryHeap;

use skysr_graph::Cost;

use crate::route::PartialRoute;

/// Which ordering `Q_b` uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum QueuePolicy {
    /// §5.3.2: (|R| desc, s(R) asc, l(R) asc).
    #[default]
    Proposed,
    /// Conventional: l(R) asc.
    DistanceBased,
}

struct ProposedEntry(PartialRoute);

impl PartialEq for ProposedEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for ProposedEntry {}
impl PartialOrd for ProposedEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ProposedEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: "greater" pops first.
        self.0
            .len()
            .cmp(&other.0.len()) // larger size first
            .then_with(|| {
                Cost::new(other.0.semantic()).cmp(&Cost::new(self.0.semantic()))
                // smaller semantic first
            })
            .then_with(|| other.0.length().cmp(&self.0.length())) // smaller length first
    }
}

struct DistanceEntry(PartialRoute);

impl PartialEq for DistanceEntry {
    fn eq(&self, other: &Self) -> bool {
        self.0.length() == other.0.length()
    }
}
impl Eq for DistanceEntry {}
impl PartialOrd for DistanceEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for DistanceEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.0.length().cmp(&self.0.length()) // smaller length first
    }
}

/// The route queue `Q_b`.
pub struct RouteQueue {
    proposed: BinaryHeap<ProposedEntry>,
    distance: BinaryHeap<DistanceEntry>,
    policy: QueuePolicy,
}

impl RouteQueue {
    /// Empty queue with the given policy.
    pub fn new(policy: QueuePolicy) -> RouteQueue {
        RouteQueue { proposed: BinaryHeap::new(), distance: BinaryHeap::new(), policy }
    }

    /// Enqueues a partial route.
    pub fn push(&mut self, route: PartialRoute) {
        match self.policy {
            QueuePolicy::Proposed => self.proposed.push(ProposedEntry(route)),
            QueuePolicy::DistanceBased => self.distance.push(DistanceEntry(route)),
        }
    }

    /// Dequeues the highest-priority route.
    pub fn pop(&mut self) -> Option<PartialRoute> {
        match self.policy {
            QueuePolicy::Proposed => self.proposed.pop().map(|e| e.0),
            QueuePolicy::DistanceBased => self.distance.pop().map(|e| e.0),
        }
    }

    /// Dequeues the highest-priority route if it has `len` PoIs and
    /// similarity product `sim_acc`. Repeated calls take the run of that
    /// class at the head of the queue: under the proposed order, every
    /// queued route of the class; under the distance order, only routes
    /// that happen to be next by length.
    pub fn pop_class(&mut self, len: usize, sim_acc: f64) -> Option<PartialRoute> {
        let head = match self.policy {
            QueuePolicy::Proposed => self.proposed.peek().map(|e| &e.0),
            QueuePolicy::DistanceBased => self.distance.peek().map(|e| &e.0),
        };
        if head.is_some_and(|r| r.len() == len && r.sim_acc() == sim_acc) {
            self.pop()
        } else {
            None
        }
    }

    /// Number of queued routes.
    pub fn len(&self) -> usize {
        match self.policy {
            QueuePolicy::Proposed => self.proposed.len(),
            QueuePolicy::DistanceBased => self.distance.len(),
        }
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skysr_graph::VertexId;

    fn route(pois: &[(u32, f64, f64)]) -> PartialRoute {
        // (vertex, hop cost, sim) triples.
        let mut r = PartialRoute::empty();
        for &(v, c, s) in pois {
            r = r.extend(VertexId(v), Cost::new(c), s);
        }
        r
    }

    #[test]
    fn proposed_prefers_longer_routes() {
        let mut q = RouteQueue::new(QueuePolicy::Proposed);
        q.push(route(&[(1, 1.0, 1.0)]));
        q.push(route(&[(2, 50.0, 1.0), (3, 50.0, 1.0)]));
        assert_eq!(q.pop().unwrap().len(), 2);
        assert_eq!(q.pop().unwrap().len(), 1);
        assert!(q.pop().is_none());
    }

    #[test]
    fn proposed_ties_break_by_semantic_then_length() {
        let mut q = RouteQueue::new(QueuePolicy::Proposed);
        q.push(route(&[(1, 5.0, 0.5)])); // sem 0.5
        q.push(route(&[(2, 9.0, 1.0)])); // sem 0.0, longer
        q.push(route(&[(3, 4.0, 1.0)])); // sem 0.0, shorter
        assert_eq!(q.pop().unwrap().pois(), vec![VertexId(3)]);
        assert_eq!(q.pop().unwrap().pois(), vec![VertexId(2)]);
        assert_eq!(q.pop().unwrap().pois(), vec![VertexId(1)]);
    }

    #[test]
    fn distance_based_orders_by_length_only() {
        let mut q = RouteQueue::new(QueuePolicy::DistanceBased);
        q.push(route(&[(1, 10.0, 1.0), (2, 10.0, 1.0)]));
        q.push(route(&[(3, 5.0, 0.2)]));
        assert_eq!(q.pop().unwrap().pois(), vec![VertexId(3)]);
        assert_eq!(q.pop().unwrap().len(), 2);
    }

    #[test]
    fn same_class_routes_pop_as_one_run_under_the_proposed_order() {
        let mut q = RouteQueue::new(QueuePolicy::Proposed);
        q.push(route(&[(1, 9.0, 0.5)]));
        q.push(route(&[(2, 3.0, 1.0)]));
        q.push(route(&[(3, 7.0, 0.5)]));
        q.push(route(&[(4, 1.0, 0.5), (5, 1.0, 1.0)]));
        q.push(route(&[(6, 5.0, 0.5)]));
        let head = q.pop().unwrap();
        assert_eq!(head.pois(), vec![VertexId(4), VertexId(5)]);
        assert!(q.pop_class(2, 0.5).is_none(), "no other route has two PoIs");
        let head = q.pop().unwrap();
        assert_eq!(head.pois(), vec![VertexId(2)]);
        assert!(q.pop_class(1, 1.0).is_none(), "no other route has similarity 1");
        let head = q.pop().unwrap();
        let mut run = vec![head.last_poi().unwrap()];
        while let Some(r) = q.pop_class(1, 0.5) {
            run.push(r.last_poi().unwrap());
        }
        assert_eq!(run, vec![VertexId(6), VertexId(3), VertexId(1)], "shortest first");
        assert!(q.is_empty());
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let mut q = RouteQueue::new(QueuePolicy::Proposed);
        assert!(q.is_empty());
        q.push(route(&[(1, 1.0, 1.0)]));
        q.push(route(&[(2, 2.0, 1.0)]));
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }
}
