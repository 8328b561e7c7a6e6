//! Routes and their scores (Definitions 3.2 and 3.5).
//!
//! BSSR's priority queue can hold many thousands of partial routes, most of
//! which share prefixes (a route and all its extensions). [`PartialRoute`]
//! therefore stores the PoI sequence as an immutable `Arc`-linked list:
//! extending is O(1) and cloning is a refcount bump. Routes are short
//! (|R| ≤ |Sq|, which is ≤ 5 in every experiment), so walking the list for
//! duplicate checks or materialisation is trivial.

use std::sync::Arc;

use skysr_graph::{Cost, VertexId};

/// Shared-suffix node of a route's PoI list.
#[derive(Debug)]
struct RouteNode {
    poi: VertexId,
    prev: Option<Arc<RouteNode>>,
}

/// A (possibly partial) sequenced route under construction.
///
/// Carries the two scores of Definition 3.5 incrementally: `length` is
/// `l(R)` (start → p₁ → … → p_len), and `sim_acc` is the running
/// aggregation accumulator (`Π h_i` for the product form of Eq. 7), so the
/// semantic score of the partial route — the *minimum* any completion can
/// reach — is `1 − sim_acc`.
///
/// A route also carries a *crossed* bit, which only repair's restricted
/// re-search sets: the route's path crosses a decreased arc near the query
/// (see [`repair`](crate::bssr::repair)). It lives in the padding next to
/// `len`, so a route stays 32 bytes.
#[derive(Clone, Debug)]
pub struct PartialRoute {
    last: Option<Arc<RouteNode>>,
    len: u8,
    crossed: bool,
    length: Cost,
    sim_acc: f64,
}

impl PartialRoute {
    /// The empty route at the start vertex.
    pub fn empty() -> PartialRoute {
        PartialRoute { last: None, len: 0, crossed: false, length: Cost::ZERO, sim_acc: 1.0 }
    }

    /// Number of PoIs in the route (the paper's |R|).
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no PoI has been appended yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Length score `l(R)`.
    #[inline]
    pub fn length(&self) -> Cost {
        self.length
    }

    /// Aggregation accumulator (product of similarities so far).
    #[inline]
    pub fn sim_acc(&self) -> f64 {
        self.sim_acc
    }

    /// Semantic score `s(R)` — for a partial route, the minimum semantic
    /// score of any completion (Definition 3.5's convention, required by
    /// Lemma 5.2).
    #[inline]
    pub fn semantic(&self) -> f64 {
        1.0 - self.sim_acc
    }

    /// Last PoI of the route, if any.
    pub fn last_poi(&self) -> Option<VertexId> {
        self.last.as_ref().map(|n| n.poi)
    }

    /// Whether the route's path crosses a decreased arc that repair's
    /// restricted re-search watches; always `false` in any other search.
    #[inline]
    pub(crate) fn crossed(&self) -> bool {
        self.crossed
    }

    /// `R ⊕ p` (Definition 3.2): appends `poi` reached `hop_cost` after the
    /// current end, matched with similarity `sim`. The extension is crossed
    /// when this route is.
    pub fn extend(&self, poi: VertexId, hop_cost: Cost, sim: f64) -> PartialRoute {
        debug_assert!((0.0..=1.0).contains(&sim));
        PartialRoute {
            last: Some(Arc::new(RouteNode { poi, prev: self.last.clone() })),
            len: self.len + 1,
            crossed: self.crossed,
            length: self.length + hop_cost,
            sim_acc: self.sim_acc * sim,
        }
    }

    /// This route, crossed if it was or if `crossed` holds.
    pub(crate) fn crossing(mut self, crossed: bool) -> PartialRoute {
        self.crossed |= crossed;
        self
    }

    /// Whether `v` already appears in the route (Definition 3.4(iii): all
    /// PoI vertices must differ).
    pub fn contains(&self, v: VertexId) -> bool {
        let mut cur = self.last.as_deref();
        while let Some(n) = cur {
            if n.poi == v {
                return true;
            }
            cur = n.prev.as_deref();
        }
        false
    }

    /// Materialises the PoI sequence front-to-back.
    pub fn pois(&self) -> Vec<VertexId> {
        let mut out = Vec::with_capacity(self.len as usize);
        let mut cur = self.last.as_deref();
        while let Some(n) = cur {
            out.push(n.poi);
            cur = n.prev.as_deref();
        }
        out.reverse();
        out
    }

    /// Converts a completed route into an owned result record.
    pub fn into_skyline_route(&self) -> SkylineRoute {
        SkylineRoute { pois: self.pois(), length: self.length, semantic: self.semantic() }
    }
}

/// Relative tolerance for score comparisons.
///
/// Different algorithms accumulate the same route's length in different
/// floating-point orders (BSSR sums per-hop Dijkstra distances, the OSR
/// baselines accumulate edge by edge), so score-identical routes can differ
/// in the last few ulps. All dominance decisions therefore use an
/// epsilon-aware `≤`, which keeps every algorithm's skyline identical.
pub const SCORE_EPS: f64 = 1e-9;

/// `a ≤ b` up to [`SCORE_EPS`] relative tolerance.
#[inline]
pub fn approx_le(a: f64, b: f64) -> bool {
    a <= b + SCORE_EPS * a.abs().max(b.abs()).max(1.0)
}

/// `a < b` by clearly more than the tolerance.
#[inline]
pub fn strictly_lt(a: f64, b: f64) -> bool {
    !approx_le(b, a)
}

/// A completed sequenced route as returned by queries.
#[derive(Clone, Debug, PartialEq)]
pub struct SkylineRoute {
    /// PoI vertices in visiting order.
    pub pois: Vec<VertexId>,
    /// Length score `l(R)`.
    pub length: Cost,
    /// Semantic score `s(R)`.
    pub semantic: f64,
}

impl SkylineRoute {
    /// Dominance test (Definition 4.1): `self` dominates `other` iff it is
    /// at least as good in both scores and strictly better in one (up to
    /// [`SCORE_EPS`]).
    pub fn dominates(&self, other: &SkylineRoute) -> bool {
        (strictly_lt(self.length.get(), other.length.get())
            && approx_le(self.semantic, other.semantic))
            || (strictly_lt(self.semantic, other.semantic)
                && approx_le(self.length.get(), other.length.get()))
    }

    /// Score equivalence (same length and semantic scores up to
    /// [`SCORE_EPS`]).
    pub fn equivalent(&self, other: &SkylineRoute) -> bool {
        approx_le(self.length.get(), other.length.get())
            && approx_le(other.length.get(), self.length.get())
            && approx_le(self.semantic, other.semantic)
            && approx_le(other.semantic, self.semantic)
    }
}

/// Whether two skylines are score-equivalent: same size, and a perfect
/// matching pairs every route of `a` with a distinct route of `b` whose
/// scores are [`SkylineRoute::equivalent`].
///
/// This is the correctness gate for execution strategies that may pick a
/// *different representative route* for a score-tied skyline point (e.g. a
/// warm-started search seeds a valid route first, and the cold search's
/// score-equivalent twin is then rejected as a duplicate) or accumulate a
/// length in a different floating-point order. The skyline as a set of
/// (length, semantic) trade-offs must be identical up to
/// [`SCORE_EPS`]; the PoI sequences realising a tied point may differ.
pub fn equivalent_skylines(a: &[SkylineRoute], b: &[SkylineRoute]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    // Greedy first-fit over an epsilon relation is order-sensitive (the
    // relation is not transitive), so sort both sides by score first:
    // near-equal values then line up in the same relative order and the
    // greedy pass finds a perfect matching whenever one exists.
    fn sorted(routes: &[SkylineRoute]) -> Vec<&SkylineRoute> {
        let mut rs: Vec<&SkylineRoute> = routes.iter().collect();
        rs.sort_by(|x, y| x.length.cmp(&y.length).then_with(|| x.semantic.total_cmp(&y.semantic)));
        rs
    }
    let a = sorted(a);
    let b = sorted(b);
    let mut used = vec![false; b.len()];
    'outer: for ra in a {
        for (j, rb) in b.iter().enumerate() {
            if !used[j] && ra.equivalent(rb) {
                used[j] = true;
                continue 'outer;
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sky(l: f64, s: f64) -> SkylineRoute {
        SkylineRoute { pois: vec![], length: Cost::new(l), semantic: s }
    }

    #[test]
    fn empty_route_scores() {
        let r = PartialRoute::empty();
        assert!(r.is_empty());
        assert_eq!(r.length(), Cost::ZERO);
        assert_eq!(r.semantic(), 0.0);
        assert_eq!(r.last_poi(), None);
        assert!(r.pois().is_empty());
    }

    #[test]
    fn extension_accumulates_scores() {
        let r = PartialRoute::empty().extend(VertexId(3), Cost::new(2.0), 1.0).extend(
            VertexId(5),
            Cost::new(3.0),
            0.5,
        );
        assert_eq!(r.len(), 2);
        assert_eq!(r.length(), Cost::new(5.0));
        assert_eq!(r.semantic(), 0.5);
        assert_eq!(r.pois(), vec![VertexId(3), VertexId(5)]);
        assert_eq!(r.last_poi(), Some(VertexId(5)));
    }

    #[test]
    fn extension_shares_prefix() {
        let base = PartialRoute::empty().extend(VertexId(1), Cost::new(1.0), 1.0);
        let a = base.extend(VertexId(2), Cost::new(1.0), 1.0);
        let b = base.extend(VertexId(3), Cost::new(2.0), 0.9);
        // Extending one branch must not disturb the other.
        assert_eq!(a.pois(), vec![VertexId(1), VertexId(2)]);
        assert_eq!(b.pois(), vec![VertexId(1), VertexId(3)]);
        assert_eq!(base.pois(), vec![VertexId(1)]);
    }

    #[test]
    fn contains_checks_whole_route() {
        let r = PartialRoute::empty().extend(VertexId(1), Cost::ZERO, 1.0).extend(
            VertexId(2),
            Cost::ZERO,
            1.0,
        );
        assert!(r.contains(VertexId(1)));
        assert!(r.contains(VertexId(2)));
        assert!(!r.contains(VertexId(3)));
    }

    #[test]
    fn semantic_is_monotone_under_extension() {
        // Lemma 5.2: s(R) ≤ s(R ⊕ p).
        let r = PartialRoute::empty().extend(VertexId(1), Cost::ZERO, 0.8);
        let r2 = r.extend(VertexId(2), Cost::ZERO, 0.9);
        assert!(r2.semantic() >= r.semantic());
    }

    #[test]
    fn dominance_definition_4_1() {
        // Strictly better in one, at least as good in the other.
        assert!(sky(1.0, 0.5).dominates(&sky(2.0, 0.5)));
        assert!(sky(1.0, 0.4).dominates(&sky(1.0, 0.5)));
        assert!(sky(1.0, 0.4).dominates(&sky(2.0, 0.5)));
        // Equivalent routes do not dominate each other.
        assert!(!sky(1.0, 0.5).dominates(&sky(1.0, 0.5)));
        assert!(sky(1.0, 0.5).equivalent(&sky(1.0, 0.5)));
        // Incomparable routes.
        assert!(!sky(1.0, 0.5).dominates(&sky(0.5, 0.9)));
        assert!(!sky(0.5, 0.9).dominates(&sky(1.0, 0.5)));
    }

    #[test]
    fn equivalent_skylines_is_a_tolerant_multiset_match() {
        let a = vec![sky(10.0, 0.0), sky(5.0, 0.5)];
        // Same scores in another order, one perturbed below SCORE_EPS.
        let b = vec![sky(5.0 + 1e-12, 0.5), sky(10.0, 0.0)];
        assert!(equivalent_skylines(&a, &b));
        assert!(equivalent_skylines(&[], &[]));
        // Size mismatch.
        assert!(!equivalent_skylines(&a, &b[..1]));
        // Score mismatch.
        let c = vec![sky(5.0, 0.5), sky(11.0, 0.0)];
        assert!(!equivalent_skylines(&a, &c));
        // Duplicated scores must match one-to-one, not many-to-one.
        let d = vec![sky(5.0, 0.5), sky(5.0, 0.5)];
        assert!(!equivalent_skylines(&a, &d));
        assert!(equivalent_skylines(&d, &d));
        // Near-tie straddling the tolerance: x ~ y and y ~ z but x !~ z.
        // An unsorted greedy pass would pair e[0] with f[0] and strand the
        // rest; sorting both sides first finds the crossing matching.
        let eps = SCORE_EPS * 5.0;
        let e = vec![sky(5.0, 0.0), sky(5.0 + 1.6 * eps, 0.0)];
        let f = vec![sky(5.0 + 0.8 * eps, 0.0), sky(5.0, 0.0)];
        assert!(equivalent_skylines(&e, &f));
        assert!(equivalent_skylines(&f, &e));
    }

    #[test]
    fn the_crossed_bit_is_inherited_and_costs_no_space() {
        let r = PartialRoute::empty().extend(VertexId(1), Cost::new(1.0), 1.0);
        assert!(!r.crossed());
        let crossed = r.extend(VertexId(2), Cost::new(1.0), 1.0).crossing(true);
        assert!(crossed.crossed() && !r.crossed());
        assert!(crossed.extend(VertexId(3), Cost::ZERO, 1.0).crossing(false).crossed());
        assert_eq!(std::mem::size_of::<PartialRoute>(), 32);
    }

    #[test]
    fn into_skyline_route_copies_scores() {
        let r = PartialRoute::empty().extend(VertexId(7), Cost::new(4.0), 0.5);
        let s = r.into_skyline_route();
        assert_eq!(s.pois, vec![VertexId(7)]);
        assert_eq!(s.length, Cost::new(4.0));
        assert_eq!(s.semantic, 0.5);
    }
}
