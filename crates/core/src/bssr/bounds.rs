//! Possible minimum distances — the tightened lower bound of §5.3.3
//! (Algorithm 4, Definition 5.7, Lemmas 5.8–5.9).
//!
//! For each gap between consecutive positions the *semantic-match minimum
//! distance* `ls[i]` (closest pair between the positions' semantic PoI
//! sets) and the *perfect-match minimum distance* `lp[i]` (destination set
//! restricted to perfect matches) are computed with one multi-source
//! multi-destination Dijkstra each. Endpoint sets are restricted to PoIs
//! within `l̄(ϕ)` of the start (Algorithm 4, lines 3–4): any sequenced
//! route using a PoI outside that ball is already longer than the best
//! perfect route and hence dominated. The restricted sets come from
//! scanning the ball against each position's similarity oracle, so their
//! cost follows the ball's size rather than the size of the positions'
//! compiled candidate lists.
//!
//! Pruning rules applied to a candidate partial route `R` of size `k`:
//!
//! * **semantic bound** — `l(R) + Σ_{g>k} ls[g] ≥ l̄(s(R))` ⇒ every
//!   completion is dominated (its length can only exceed the left side and
//!   its semantic score can only exceed `s(R)`);
//! * **perfect bound (Lemma 5.8)** — every completion either stays perfect
//!   on all remaining positions (length grows by ≥ `Σ lp[g]`) or deviates
//!   at least once (semantic score grows by ≥ δ); if both branches are
//!   dominated by members of `S`, prune. δ is route-dependent:
//!   `δ(R) = sim_acc(R) · (1 − σ*)` with σ\* the best non-perfect
//!   similarity over the remaining positions.

use skysr_graph::fxhash::FxHashMap;
use skysr_graph::multi_source::min_set_distance;
use skysr_graph::{dijkstra_with, Cost, DijkstraWorkspace, Settle, VertexId};

use crate::context::QueryContext;
use crate::dominance::SkylineSet;
use crate::prepared::{Position, PreparedQuery};
use crate::route::PartialRoute;
use crate::stats::QueryStats;

/// Whether Optimisation 3 is active. Off by default (see
/// [`crate::bssr::BssrConfig`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum LowerBoundMode {
    /// No minimum-distance bounds.
    #[default]
    Off,
    /// Semantic- and perfect-match minimum distances (the full §5.3.3).
    Full,
}

/// Precomputed minimum-distance bounds for one query.
#[derive(Clone, Debug)]
pub struct MinDistBounds {
    mode: LowerBoundMode,
    /// `ls[g]`, `g ∈ 1..k`: min semantic-set distance between positions
    /// g−1 and g. Index 0 unused (gap from the start is counted in l(R)).
    ls: Vec<f64>,
    /// `lp[g]`: as `ls` but destinations restricted to perfect matches.
    lp: Vec<f64>,
    /// Suffix sums: `ls_suffix[k] = Σ_{g=k.. } ls[g]` for a route of size k
    /// (clamped so ∞ gaps stay ∞).
    ls_suffix: Vec<f64>,
    lp_suffix: Vec<f64>,
    /// Max σ\* over positions k.. (None ⇒ no remaining position can
    /// deviate from a perfect match).
    sigma_suffix: Vec<Option<f64>>,
}

impl MinDistBounds {
    /// Computes the bounds. `l_phi` is `l̄(ϕ)` (the best perfect-route
    /// length known so far, `+∞` if none) — it restricts the endpoint sets.
    pub fn compute(
        ctx: &QueryContext<'_>,
        pq: &PreparedQuery,
        l_phi: Cost,
        mode: LowerBoundMode,
        ws: &mut DijkstraWorkspace,
        stats: &mut QueryStats,
    ) -> MinDistBounds {
        let k = pq.len();
        let mut ls = vec![0.0f64; k];
        let mut lp = vec![0.0f64; k];

        if mode != LowerBoundMode::Off && k >= 2 {
            if l_phi.is_finite() {
                // Restrict endpoints to the l̄(ϕ) ball around the start
                // (Algorithm 4 lines 3–4).
                let mut ball = Vec::new();
                let s = dijkstra_with(ctx.graph, ws, &[(pq.start, Cost::ZERO)], |v, d| {
                    if d >= l_phi {
                        Settle::Stop
                    } else {
                        ball.push(v);
                        Settle::Continue
                    }
                });
                stats.search.merge(&s);
                // One scan of the ball per position: its in-ball matches
                // with their similarities. Every ball vertex is scanned,
                // PoI or not — a destination pseudo-position's one member
                // need not be a PoI.
                let in_ball = |pos: &Position| -> FxHashMap<u32, f64> {
                    ball.iter()
                        .filter_map(|&v| {
                            let s = pos.sim_of(ctx, v);
                            (s > 0.0).then_some((v.0, s))
                        })
                        .collect()
                };
                // A pair of in-ball PoIs is at distance < 2·l̄(ϕ) via the
                // start, so the search radius can be bounded accordingly.
                let radius = l_phi * 2.0;
                let mut prev = in_ball(&pq.positions[0]);
                for g in 1..k {
                    let next = in_ball(&pq.positions[g]);
                    // Ascending, the compiled lists' order, so each search
                    // starts exactly as the list-filtered one did.
                    let mut sources: Vec<VertexId> = prev.keys().map(|&v| VertexId(v)).collect();
                    sources.sort_unstable();
                    let sim = |v: VertexId| next.get(&v.0).copied().unwrap_or(0.0);
                    (ls[g], lp[g]) = gap_distances(ctx, ws, &sources, sim, radius, stats);
                    prev = next;
                }
            } else {
                // No known perfect route: the ball is the whole graph and
                // the compiled lists are the endpoint sets.
                for g in 1..k {
                    let next = &pq.positions[g];
                    let sim = |v: VertexId| next.sim_of(ctx, v);
                    let sources = &pq.positions[g - 1].semantic;
                    (ls[g], lp[g]) = gap_distances(ctx, ws, sources, sim, Cost::INFINITY, stats);
                }
            }
        }

        // Suffix sums and σ* suffix maxima.
        let mut ls_suffix = vec![0.0f64; k + 1];
        let mut lp_suffix = vec![0.0f64; k + 1];
        let mut sigma_suffix: Vec<Option<f64>> = vec![None; k + 1];
        for g in (1..k).rev() {
            ls_suffix[g] = ls[g] + ls_suffix[g + 1];
            lp_suffix[g] = lp[g] + lp_suffix[g + 1];
        }
        ls_suffix[0] = ls_suffix[1.min(k)];
        lp_suffix[0] = lp_suffix[1.min(k)];
        for i in (0..k).rev() {
            sigma_suffix[i] = match (pq.positions[i].sigma_star, sigma_suffix[i + 1]) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
        }

        stats.ls = ls[1..].to_vec();
        stats.lp = lp[1..].to_vec();

        MinDistBounds { mode, ls, lp, ls_suffix, lp_suffix, sigma_suffix }
    }

    /// Bounds that never prune (Off mode, used when the optimisation is
    /// disabled).
    pub fn disabled(seq_len: usize) -> MinDistBounds {
        MinDistBounds {
            mode: LowerBoundMode::Off,
            ls: vec![0.0; seq_len],
            lp: vec![0.0; seq_len],
            ls_suffix: vec![0.0; seq_len + 1],
            lp_suffix: vec![0.0; seq_len + 1],
            sigma_suffix: vec![None; seq_len + 1],
        }
    }

    /// Per-gap semantic-match minimum distances (Figure 4).
    pub fn ls_gaps(&self) -> &[f64] {
        &self.ls[1.min(self.ls.len())..]
    }

    /// Per-gap perfect-match minimum distances (Figure 4).
    pub fn lp_gaps(&self) -> &[f64] {
        &self.lp[1.min(self.lp.len())..]
    }

    /// Whether partial route `rt` (just extended, size ≥ 1, not complete)
    /// can be pruned given the current skyline set.
    pub fn should_prune(&self, rt: &PartialRoute, skyline: &SkylineSet) -> bool {
        if self.mode == LowerBoundMode::Off {
            return false;
        }
        let k = rt.len();
        let s_rt = rt.semantic();

        // Semantic-match bound: always safe to add.
        let min_total = rt.length().get() + self.ls_suffix[k];
        if min_total >= skyline.threshold(s_rt).get() {
            return true;
        }

        // Lemma 5.8. Branch (ii): some remaining position deviates →
        // semantic grows by ≥ δ.
        let cond_a = match self.sigma_suffix[k] {
            Some(sigma) => {
                let delta = rt.sim_acc() * (1.0 - sigma);
                skyline.threshold(s_rt + delta) <= rt.length()
            }
            // No remaining position *can* deviate: branch (ii) is
            // impossible, so only the all-perfect branch matters.
            None => true,
        };
        // Branch (i): all remaining positions perfect → length grows by
        // ≥ lp_suffix, semantic stays s_rt.
        cond_a && Cost::new(rt.length().get() + self.lp_suffix[k]) >= skyline.threshold(s_rt)
    }
}

/// `(ls, lp)` for one gap: the distance from `sources` to the nearest
/// vertex whose `sim` is positive (a semantic match), and to the nearest
/// whose `sim` is 1 (a perfect match); `∞` when none lies within `radius`.
fn gap_distances(
    ctx: &QueryContext<'_>,
    ws: &mut DijkstraWorkspace,
    sources: &[VertexId],
    sim: impl Fn(VertexId) -> f64,
    radius: Cost,
    stats: &mut QueryStats,
) -> (f64, f64) {
    let r = min_set_distance(ctx.graph, ws, sources, |v| sim(v) > 0.0, radius);
    stats.search.merge(&r.stats);
    let ls = r.hit.map_or(f64::INFINITY, |(_, d)| d.get());
    let r = min_set_distance(ctx.graph, ws, sources, |v| sim(v) >= 1.0, radius);
    stats.search.merge(&r.stats);
    let lp = r.hit.map_or(f64::INFINITY, |(_, d)| d.get());
    (ls, lp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example::PaperExample;
    use crate::poi::PoiTable;
    use crate::prepared::Position;
    use crate::query::{PositionSpec, SkySrQuery};
    use crate::route::SkylineRoute;
    use proptest::prelude::*;
    use skysr_category::{CategoryId, ForestBuilder, Requirement};
    use skysr_graph::fxhash::FxHashSet;
    use skysr_graph::{GraphBuilder, SearchStats};

    /// The endpoint computation the ball scan replaced, kept as its
    /// reference: every ball vertex into a hash set, then each gap's full
    /// compiled lists filtered through it. Returns the per-gap `ls`, `lp`
    /// and the summed search work.
    fn reference_gaps(
        ctx: &QueryContext<'_>,
        pq: &PreparedQuery,
        l_phi: Cost,
        ws: &mut DijkstraWorkspace,
    ) -> (Vec<f64>, Vec<f64>, SearchStats) {
        let mut search = SearchStats::default();
        let in_ball: Option<FxHashSet<u32>> = l_phi.is_finite().then(|| {
            let mut ball = FxHashSet::default();
            let s = dijkstra_with(ctx.graph, ws, &[(pq.start, Cost::ZERO)], |v, d| {
                if d >= l_phi {
                    Settle::Stop
                } else {
                    ball.insert(v.0);
                    Settle::Continue
                }
            });
            search.merge(&s);
            ball
        });
        let contains = |v: VertexId| in_ball.as_ref().is_none_or(|b| b.contains(&v.0));
        let radius = if l_phi.is_finite() { l_phi * 2.0 } else { Cost::INFINITY };
        let (mut ls, mut lp) = (Vec::new(), Vec::new());
        for g in 1..pq.len() {
            let sources: Vec<VertexId> =
                pq.positions[g - 1].semantic.iter().copied().filter(|&p| contains(p)).collect();
            let filtered = |list: &[VertexId]| -> FxHashSet<u32> {
                list.iter().filter(|&&p| contains(p)).map(|p| p.0).collect()
            };
            let sem_dest = filtered(&pq.positions[g].semantic);
            let per_dest = filtered(&pq.positions[g].perfect);
            for (dest, out) in [(&sem_dest, &mut ls), (&per_dest, &mut lp)] {
                let r = min_set_distance(ctx.graph, ws, &sources, |v| dest.contains(&v.0), radius);
                search.merge(&r.stats);
                out.push(r.hit.map_or(f64::INFINITY, |(_, d)| d.get()));
            }
        }
        (ls, lp, search)
    }

    // Positions are `(kind, a, b)`: kind 0–1 the category `a`, 2 the
    // requirement "`a` or `b`", 3 "`a` but not `b`". A destination
    // pseudo-position is appended when `dest` is set: the extra vertex `n`,
    // never a PoI, for even values, vertex `dest mod n` otherwise.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn ball_scan_matches_list_filtering(
            n in 4usize..12,
            directed in any::<bool>(),
            weights in prop::collection::vec(0.5f64..6.0, 12),
            extra in prop::collection::vec((0usize..64, 0usize..64, 0.5f64..6.0), 0..8),
            poi_cats in prop::collection::vec(prop::collection::vec(0usize..8, 0..3), 12),
            start in 0usize..64,
            positions in prop::collection::vec((0usize..4, 0usize..8, 0usize..8), 2..5),
            ends in (prop::option::of(0usize..64), prop::option::of(0.5f64..30.0)),
        ) {
            let (dest, l_phi) = ends;
            let mut fb = ForestBuilder::new();
            let food = fb.add_root("Food");
            let asian = fb.add_child(food, "Asian");
            fb.add_child(asian, "Sushi");
            fb.add_child(food, "Italian");
            let shop = fb.add_root("Shop");
            let clothing = fb.add_child(shop, "Clothing");
            fb.add_child(clothing, "Shoes");
            fb.add_child(shop, "Gift");
            let forest = fb.build();

            let mut gb = if directed { GraphBuilder::directed() } else { GraphBuilder::new() };
            let vs: Vec<VertexId> = (0..=n).map(|_| gb.add_vertex()).collect();
            for i in 0..n {
                gb.add_edge(vs[i], vs[i + 1], weights[i]);
                if directed {
                    gb.add_edge(vs[i + 1], vs[i], weights[i] * 1.5 + 0.25);
                }
            }
            for &(a, b, w) in &extra {
                gb.add_edge(vs[a % n], vs[b % n], w);
            }
            let graph = gb.build();
            let mut pois = PoiTable::new(graph.num_vertices());
            for (&v, cats) in vs[..n].iter().zip(&poi_cats) {
                for &c in cats {
                    pois.add_poi(v, CategoryId(c as u32));
                }
            }
            pois.finalize(&forest);
            let ctx = QueryContext::new(&graph, &forest, &pois);

            let cat = |c: usize| CategoryId(c as u32);
            let specs = positions.iter().map(|&(kind, a, b)| match kind {
                0 | 1 => PositionSpec::Category(cat(a)),
                2 => PositionSpec::Requirement(Requirement::any_of([cat(a), cat(b)])),
                _ => PositionSpec::Requirement(Requirement::category(cat(a)).but_not(cat(b))),
            });
            let query = SkySrQuery::with_positions(vs[start % n], specs);
            let mut pq = PreparedQuery::prepare(&ctx, &query).unwrap();
            if let Some(d) = dest {
                let d = if d % 2 == 0 { vs[n] } else { vs[d % n] };
                pq.positions.push(Position::destination(d).into());
            }
            let l_phi = l_phi.map_or(Cost::INFINITY, Cost::new);

            let mut ws = DijkstraWorkspace::new(graph.num_vertices());
            let (ls, lp, search) = reference_gaps(&ctx, &pq, l_phi, &mut ws);
            let mut stats = QueryStats::default();
            let b =
                MinDistBounds::compute(&ctx, &pq, l_phi, LowerBoundMode::Full, &mut ws, &mut stats);
            prop_assert_eq!(b.ls_gaps(), &ls[..]);
            prop_assert_eq!(b.lp_gaps(), &lp[..]);
            // Same sources in the same order: the searches do the same work.
            prop_assert_eq!(stats.search, search);
        }
    }

    fn skyline(entries: &[(f64, f64)]) -> SkylineSet {
        let mut s = SkylineSet::new();
        for &(l, sem) in entries {
            s.update(SkylineRoute { pois: vec![], length: Cost::new(l), semantic: sem });
        }
        s
    }

    #[test]
    fn disabled_never_prunes() {
        let b = MinDistBounds::disabled(3);
        let sky = skyline(&[(1.0, 0.0)]);
        let rt = PartialRoute::empty().extend(VertexId(1), Cost::new(100.0), 1.0);
        assert!(!b.should_prune(&rt, &sky));
    }

    #[test]
    fn computed_on_paper_example() {
        let ex = PaperExample::new();
        let ctx = ex.context();
        let pq = ex.prepared(&ctx);
        let mut ws = DijkstraWorkspace::new(ctx.graph.num_vertices());
        let mut stats = QueryStats::default();
        // Best perfect route in the fixture is 13 (p10, p12, p13).
        let b = MinDistBounds::compute(
            &ctx,
            &pq,
            Cost::new(13.0),
            LowerBoundMode::Full,
            &mut ws,
            &mut stats,
        );
        // Gap 1 (restaurant→A&E): closest semantic pair is p10–p12 at 2.0.
        assert_eq!(b.ls_gaps()[0], 2.0);
        // Gap 2 (A&E→shop): p9–p8 at 1.5.
        assert_eq!(b.ls_gaps()[1], 1.5);
        // Perfect destinations coincide for gap 1 (A&E has only perfect
        // PoIs) and for gap 2 the closest perfect shop is p8 at 1.5 too.
        assert_eq!(b.lp_gaps()[0], 2.0);
        assert_eq!(b.lp_gaps()[1], 1.5);
        // lp ≥ ls always.
        for (lp, ls) in b.lp_gaps().iter().zip(b.ls_gaps()) {
            assert!(lp >= ls);
        }
        assert_eq!(stats.ls, b.ls_gaps());
    }

    #[test]
    fn semantic_bound_prunes_hopeless_route() {
        let ex = PaperExample::new();
        let ctx = ex.context();
        let pq = ex.prepared(&ctx);
        let mut ws = DijkstraWorkspace::new(ctx.graph.num_vertices());
        let mut stats = QueryStats::default();
        let b = MinDistBounds::compute(
            &ctx,
            &pq,
            Cost::new(13.0),
            LowerBoundMode::Full,
            &mut ws,
            &mut stats,
        );
        let sky = skyline(&[(13.0, 0.0)]);
        // A size-1 route of length 12 needs ≥ 2.0 + 1.5 more: 15.5 ≥ 13 →
        // prune even though 12 < 13.
        let rt = PartialRoute::empty().extend(ex.p(2), Cost::new(12.0), 1.0);
        assert!(b.should_prune(&rt, &sky));
        // Length 9 → 12.5 < 13: keep.
        let rt = PartialRoute::empty().extend(ex.p(2), Cost::new(9.0), 1.0);
        assert!(!b.should_prune(&rt, &sky));
    }

    #[test]
    fn perfect_bound_uses_lemma_5_8() {
        let ex = PaperExample::new();
        let ctx = ex.context();
        let pq = ex.prepared(&ctx);
        let mut ws = DijkstraWorkspace::new(ctx.graph.num_vertices());
        let mut stats = QueryStats::default();
        let b = MinDistBounds::compute(
            &ctx,
            &pq,
            Cost::new(13.0),
            LowerBoundMode::Full,
            &mut ws,
            &mut stats,
        );
        // Skyline has a perfect route (13, 0) and a semantic route (11, 0.5).
        let sky = skyline(&[(13.0, 0.0), (11.0, 0.5)]);
        // Perfect-so-far route of size 1, length 11.2: semantic bound gives
        // 11.2 + 3.5 = 14.7 ≥ 13 → pruned by ls alone.
        let rt = PartialRoute::empty().extend(ex.p(2), Cost::new(11.2), 1.0);
        assert!(b.should_prune(&rt, &sky));
        // Length 9.6: ls bound gives 13.1 ≥ 13 → prune. Length 9.4: ls
        // gives 12.9 < 13; Lemma 5.8: δ = 1·(1−0.5) = 0.5 →
        // threshold(0+0.5) = 11 ≤ 9.4? No → cond (a) fails → keep.
        let rt = PartialRoute::empty().extend(ex.p(2), Cost::new(9.6), 1.0);
        assert!(b.should_prune(&rt, &sky));
        let rt = PartialRoute::empty().extend(ex.p(2), Cost::new(9.4), 1.0);
        assert!(!b.should_prune(&rt, &sky));
    }

    #[test]
    fn infinite_gap_prunes_everything_needing_it() {
        // If a gap has no reachable pair, any partial route that still
        // needs it is pruned once any threshold exists.
        let b = MinDistBounds {
            mode: LowerBoundMode::Full,
            ls: vec![0.0, f64::INFINITY],
            lp: vec![0.0, f64::INFINITY],
            ls_suffix: vec![f64::INFINITY, f64::INFINITY, 0.0],
            lp_suffix: vec![f64::INFINITY, f64::INFINITY, 0.0],
            sigma_suffix: vec![None, None, None],
        };
        let sky = skyline(&[(100.0, 0.0)]);
        let rt = PartialRoute::empty().extend(VertexId(0), Cost::new(1.0), 1.0);
        assert!(b.should_prune(&rt, &sky));
    }
}
