//! Variations and extensions of the SkySR query (paper §6).
//!
//! * [`destination`] — SkySR with a fixed destination: the route's length
//!   additionally covers the leg from the last PoI to the destination.
//! * [`unordered`] — skyline trip planning without category order: visit
//!   one PoI per category, any order.
//! * [`rated`] — the §9 multi-attribute extension: a third skyline axis
//!   scoring PoI ratings.
//! * [`skyband`] — the k-skyband relaxation: routes dominated by fewer
//!   than k others (k = 1 ⇔ the SkySR query).
//!
//! The other §6 variations need no dedicated module: directed graphs work
//! by building the [`skysr_graph::GraphBuilder`] with `directed()`, PoIs
//! with multiple categories are native to [`crate::PoiTable`], and complex
//! category requirements are [`crate::query::PositionSpec::Requirement`].
//!
//! # One search for three variants
//!
//! [`destination`] runs BSSR itself. [`unordered`], [`rated`] and
//! [`skyband`] run one branch-and-bound search, BSSR's without its
//! Optimisations 3 and 4, set by three values:
//!
//! | variant | positions a route may fill next | extra score per PoI | band width |
//! |---|---|---|---|
//! | [`unordered`] | any unfilled one | 0 | 1 |
//! | [`rated`] | the next in query order | the rating deficit `1 − rating(p)` | 1 |
//! | [`skyband`] | the next in query order | 0 | `k` |
//!
//! Filling any unfilled position is §6's trip planning: the search
//! "deletes the categories that are already included in the routes".
//!
//! **Labels.** A label is a partial route, a bitmask of the positions it
//! filled (so an unordered query names at most
//! [`unordered::MAX_CATEGORIES`] categories) and the sum of its PoIs'
//! extra scores. The queue pops the largest route first, then the smaller
//! semantic score, extra sum and length: §5.3.2's order with the extra sum
//! as a third key. Expanding a label runs one Dijkstra from its last PoI
//! (the start, for the empty label) that stops at the label's threshold
//! and collects every vertex that matches an open position with a positive
//! similarity and is not already on the route. Each one extends the label;
//! a complete extension goes to the band, the others to the queue. Before
//! the first expansion a greedy chain (NNinit's first thread) walks from
//! the start to the nearest perfect match of an open position until the
//! route is complete, which gives the band its first member.
//!
//! **The band.** A partial route's three scores bound those of every
//! completion from below: length only grows, the semantic score
//! `1 − Π sim` only grows, and extra scores are not negative. The
//! threshold of a label is `l̄_k(s, e)`, the k-th smallest length among
//! band members with semantic score ≤ `s` and extra sum ≤ `e` (`+∞` with
//! fewer than k). A label whose length reaches it is pruned: those k
//! members dominate or tie every completion. At k = 1 this is Lemma 5.3's
//! `l̄` with a third criterion.
//!
//! * A complete route enters the band unless k members already cover it
//!   (dominate or tie it). Ties count: whatever the route dominates, its k
//!   covering members dominate too, so leaving it out changes no decision.
//! * A member is dropped once k others dominate it. At k = 1 that is the
//!   skyline set's eviction. At k ≥ 2 it changes no threshold and no
//!   answer: dominance is transitive, so the k members that dominate a
//!   dropped route dominate everything it dominates. For the same reason a
//!   pruned or rejected route never hides a dominator the answer needs:
//!   it had k band members covering it.
//! * Every member therefore has fewer than k dominators in the band. The
//!   answer is one member per score triple, the first found (Definition
//!   4.1's minimal set), sorted by length, then semantic score, then extra
//!   sum.
//!
//! **One route, once.** The band never holds one route twice. The search
//! finds the greedy chain again, and at k ≥ 2 a doubled member would count
//! as two dominators and prune routes that only it dominates. The same
//! route is the same PoIs at the same scores: in an unordered query the
//! same PoIs filling other positions score differently, and are another
//! route.
//!
//! **Lemma 5.5 stays off.** Its shortcuts replace a match by a better PoI
//! on the way to it (see [`crate::bssr`]). That argument assumes the order
//! of the positions ([`unordered`]), exhibits one dominating route where
//! the band needs k ([`skyband`]), and ignores the extra score: the better
//! match may be rated worse ([`rated`]). Each variant's exactness is
//! property-tested against its exhaustive oracle.

pub mod destination;
pub mod rated;
pub mod skyband;
pub mod unordered;

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

use skysr_graph::{dijkstra_with, Cost, DijkstraWorkspace, Settle, VertexId};

use crate::context::QueryContext;
use crate::error::QueryError;
use crate::prepared::{Position, PreparedQuery};
use crate::query::SkySrQuery;
use crate::route::{approx_le, PartialRoute, SkylineRoute};
use crate::stats::QueryStats;

/// The positions a label may fill next.
#[derive(Clone, Copy)]
enum Fill {
    /// The next position in query order.
    InOrder,
    /// Any position the label has not filled.
    Any,
}

/// A band member: a complete route and the sum of its PoIs' extra scores.
struct Member {
    route: SkylineRoute,
    extra: f64,
}

impl Member {
    /// Whether `self` is no worse than `other` on all three scores, up to
    /// [`approx_le`]: it dominates or ties `other`.
    fn covers(&self, other: &Member) -> bool {
        approx_le(self.route.length.get(), other.route.length.get())
            && approx_le(self.route.semantic, other.route.semantic)
            && approx_le(self.extra, other.extra)
    }

    fn dominates(&self, other: &Member) -> bool {
        self.covers(other) && !other.covers(self)
    }

    fn ties(&self, other: &Member) -> bool {
        self.covers(other) && other.covers(self)
    }
}

/// Runs the variants' search for `query` (see the module docs): routes
/// fill positions as `fill` says, each PoI `p` adds `extra(p)` to its
/// route's extra sum, and a route qualifies when fewer than `k` others
/// dominate it.
fn search(
    ctx: &QueryContext<'_>,
    query: &SkySrQuery,
    fill: Fill,
    extra: impl Fn(VertexId) -> f64,
    k: usize,
) -> Result<(Vec<Member>, QueryStats), QueryError> {
    let t0 = Instant::now();
    let pq = PreparedQuery::prepare(ctx, query)?;
    if pq.unmatchable_position().is_some() {
        return Ok((Vec::new(), QueryStats::default()));
    }
    let mut kernel = Kernel {
        ctx,
        pq: &pq,
        fill,
        extra,
        band: Band { k, members: Vec::new() },
        queue: BinaryHeap::new(),
        ws: DijkstraWorkspace::new(ctx.graph.num_vertices()),
        stats: QueryStats::default(),
    };
    kernel.greedy();
    kernel.expand(&Label { route: PartialRoute::empty(), filled: 0, extra: 0.0 });
    while let Some(label) = kernel.queue.pop() {
        if label.route.length() >= kernel.band.threshold(label.route.semantic(), label.extra) {
            kernel.stats.threshold_prunes += 1;
            continue;
        }
        kernel.expand(&label);
    }
    let mut stats = kernel.stats;
    stats.total_time = t0.elapsed();
    Ok((kernel.band.into_members(), stats))
}

/// A queued partial route.
struct Label {
    route: PartialRoute,
    /// Bit `i` is set when the route filled position `i` (kept for
    /// [`Fill::Any`] only: in order, the route filled its first `len`).
    filled: u16,
    extra: f64,
}

impl PartialEq for Label {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Label {}
impl PartialOrd for Label {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Label {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap pops the greatest: size desc, semantic asc, extra asc,
        // length asc.
        self.route
            .len()
            .cmp(&other.route.len())
            .then_with(|| Cost::new(other.route.semantic()).cmp(&Cost::new(self.route.semantic())))
            .then_with(|| Cost::new(other.extra).cmp(&Cost::new(self.extra)))
            .then_with(|| other.route.length().cmp(&self.route.length()))
    }
}

struct Kernel<'a, 'c, E> {
    ctx: &'a QueryContext<'c>,
    pq: &'a PreparedQuery,
    fill: Fill,
    extra: E,
    band: Band,
    queue: BinaryHeap<Label>,
    ws: DijkstraWorkspace,
    stats: QueryStats,
}

impl<'a, E: Fn(VertexId) -> f64> Kernel<'a, '_, E> {
    /// The positions `label` may fill next, with their indices.
    fn open(&self, label: &Label) -> Vec<(usize, &'a Position)> {
        let pq = self.pq;
        match self.fill {
            Fill::InOrder => vec![(label.route.len(), &pq.positions[label.route.len()])],
            Fill::Any => (0..pq.len())
                .filter(|&i| label.filled & 1 << i == 0)
                .map(|i| (i, &*pq.positions[i]))
                .collect(),
        }
    }

    /// `label` extended by `poi`, reached `hop` after its end, filling
    /// position `at` with similarity `sim`.
    fn extend(&self, label: &Label, poi: VertexId, hop: Cost, sim: f64, at: usize) -> Label {
        Label {
            route: label.route.extend(poi, hop, sim),
            filled: match self.fill {
                Fill::InOrder => 0,
                Fill::Any => label.filled | 1 << at,
            },
            extra: label.extra + (self.extra)(poi),
        }
    }

    /// The greedy chain: from the start, the nearest perfect match of an
    /// open position, until the route is complete or no match is left.
    fn greedy(&mut self) {
        let t0 = Instant::now();
        let ctx = self.ctx;
        let mut label = Label { route: PartialRoute::empty(), filled: 0, extra: 0.0 };
        while label.route.len() < self.pq.len() {
            let open = self.open(&label);
            let route = &label.route;
            let source = route.last_poi().unwrap_or(self.pq.start);
            let mut hit = None;
            let s = dijkstra_with(ctx.graph, &mut self.ws, &[(source, Cost::ZERO)], |u, d| {
                for &(i, position) in &open {
                    if position.is_perfect(ctx, u) && !route.contains(u) {
                        hit = Some((u, d, i));
                        return Settle::Stop;
                    }
                }
                Settle::Continue
            });
            self.stats.search.merge(&s);
            let Some((u, d, i)) = hit else { break };
            label = self.extend(&label, u, d, 1.0, i);
        }
        if label.route.len() == self.pq.len() {
            self.band.insert(label.route.into_skyline_route(), label.extra);
            self.stats.init_routes = 1;
        }
        self.stats.init_time = t0.elapsed();
    }

    /// Searches outward from the end of `label` for the PoIs that extend it
    /// within its threshold.
    fn expand(&mut self, label: &Label) {
        let ctx = self.ctx;
        let open = self.open(label);
        let route = &label.route;
        let source = route.last_poi().unwrap_or(self.pq.start);
        let base = route.length();
        // The band cannot change inside the settle callback, so candidates
        // are collected first and tested against the band after.
        let threshold = self.band.threshold(route.semantic(), label.extra);
        let mut found: Vec<(VertexId, Cost, usize, f64)> = Vec::new();
        self.stats.mdijkstra_runs += 1;
        let s = dijkstra_with(ctx.graph, &mut self.ws, &[(source, Cost::ZERO)], |u, d| {
            if base + d >= threshold {
                return Settle::Stop;
            }
            for &(i, position) in &open {
                let sim = position.sim_of(ctx, u);
                if sim > 0.0 && !route.contains(u) {
                    found.push((u, d, i, sim));
                }
            }
            Settle::Continue
        });
        self.stats.search.merge(&s);
        for (u, d, i, sim) in found {
            let next = self.extend(label, u, d, sim, i);
            if next.route.length() >= self.band.threshold(next.route.semantic(), next.extra) {
                self.stats.threshold_prunes += 1;
            } else if next.route.len() == self.pq.len() {
                self.band.insert(next.route.into_skyline_route(), next.extra);
            } else {
                self.queue.push(next);
                self.stats.routes_enqueued += 1;
                self.stats.queue_peak = self.stats.queue_peak.max(self.queue.len());
            }
        }
    }
}

/// The complete routes found so far, each with fewer than `k` dominators
/// among them (see the module docs).
struct Band {
    k: usize,
    members: Vec<Member>,
}

impl Band {
    /// `l̄_k(semantic, extra)`: the k-th smallest length among members no
    /// worse on semantic score and extra sum; `+∞` if fewer than k are.
    fn threshold(&self, semantic: f64, extra: f64) -> Cost {
        let lengths = self
            .members
            .iter()
            .filter(|m| m.route.semantic <= semantic && m.extra <= extra)
            .map(|m| m.route.length);
        if self.k == 1 {
            // Lemma 5.3's l̄, without collecting the lengths.
            return lengths.min().unwrap_or(Cost::INFINITY);
        }
        let mut lengths: Vec<Cost> = lengths.collect();
        if lengths.len() < self.k {
            return Cost::INFINITY;
        }
        *lengths.select_nth_unstable(self.k - 1).1
    }

    /// Inserts a complete route unless `k` members cover it or it is a
    /// member already, and drops each member it gives a `k`-th dominator.
    fn insert(&mut self, route: SkylineRoute, extra: f64) {
        let new = Member { route, extra };
        let k = self.k;
        let members = &self.members;
        let mut covering = 0;
        for m in members.iter().filter(|m| m.covers(&new)) {
            covering += 1;
            if covering == k || (new.covers(m) && m.route.pois == new.route.pois) {
                return;
            }
        }
        let dropped: Vec<bool> = members
            .iter()
            .map(|m| {
                new.dominates(m)
                    && members.iter().filter(|o| o.dominates(m)).take(k - 1).count() + 1 == k
            })
            .collect();
        let mut dropped = dropped.into_iter();
        self.members.retain(|_| dropped.next() == Some(false));
        self.members.push(new);
    }

    /// One member per score triple (the first found), sorted by length,
    /// then semantic score, then extra sum.
    fn into_members(self) -> Vec<Member> {
        let mut out: Vec<Member> = Vec::new();
        for m in self.members {
            if !out.iter().any(|o| o.ties(&m)) {
                out.push(m);
            }
        }
        out.sort_by(|a, b| {
            a.route
                .length
                .cmp(&b.route.length)
                .then(a.route.semantic.total_cmp(&b.route.semantic))
                .then(a.extra.total_cmp(&b.extra))
        });
        out
    }
}
