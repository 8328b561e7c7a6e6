//! Warm start from a cached prefix skyline (semantic cache reuse).
//!
//! A skyline route for the prefix sequence ⟨c₁, …, c_{k−1}⟩ is, by
//! Definition 3.4, a valid partial route for the full query
//! ⟨c₁, …, c_{k−1}, c_k⟩: every completion of it with a PoI matching the
//! last position is a valid sequenced route. Seeding those completions into
//! the skyline set *before* the branch-and-bound search starts tightens the
//! pruning thresholds of Definition 5.4 — the exact mechanism NNinit
//! (§5.3.1) uses, but starting from the *Pareto-optimal* prefix trade-offs
//! instead of one greedy chain, so the seeded upper bounds are usually
//! tighter and more varied in semantic score.
//!
//! Correctness is inherited from the NNinit argument (Lemma 5.1/5.3): the
//! threshold only ever prunes routes that some inserted *valid* route
//! dominates, so any set of valid seed routes keeps the search exact. The
//! seeds here are valid by construction — prefix PoIs come from a prefix
//! skyline over the same start vertex, the appended PoI semantically
//! matches the last position and is not already on the route.

use skysr_graph::dijkstra::point_to_point;
use skysr_graph::fxhash::FxHashMap;
use skysr_graph::{dijkstra_with, Cost, DijkstraWorkspace, Settle, VertexId};

use crate::context::QueryContext;
use crate::dominance::SkylineSet;
use crate::prepared::PreparedQuery;
use crate::route::SkylineRoute;
use crate::stats::QueryStats;

/// Extends every route of a (k−1)-position prefix skyline with reachable
/// matches for the last position of `pq`, inserting the completed routes
/// into `skyline`. Returns the number of seed routes inserted (also
/// recorded as [`QueryStats::warm_seed_routes`]).
///
/// Seeds of *full* length k are also accepted (since the incremental
/// repair work): they are validated against the query's positions,
/// rescored semantically, and inserted directly — no extension leg runs.
/// This is how repair's rescored survivors and epoch-crossing prefix
/// entries re-enter a search as thresholds.
///
/// Each seed's semantic score is recomputed from `pq`'s own positions (not
/// taken from the seed route), so any same-start skyline whose PoIs match
/// the corresponding positions produces a correctly scored seed; routes
/// whose shape does not fit (wrong length, a PoI that does not match its
/// position, duplicated PoIs) are skipped, so a stale or foreign skyline
/// degrades to a cold start.
///
/// **Precondition:** every seed route's `length` must be a genuine
/// accumulated shortest-path length from `pq.start` through its PoIs *at
/// this context's weight epoch* — the invariant of any skyline computed
/// for the same start vertex and epoch. An understated length would
/// over-tighten the pruning threshold and break exactness; this cannot be
/// validated cheaply here, and the cache-keyed caller (`skysr-service`)
/// guarantees it structurally (same-epoch entries, or entries proven
/// untouched by the epoch delta).
pub fn seed_prefix_routes(
    ctx: &QueryContext<'_>,
    pq: &PreparedQuery,
    prefix: &[SkylineRoute],
    ws: &mut DijkstraWorkspace,
    skyline: &mut SkylineSet,
    stats: &mut QueryStats,
) -> usize {
    let k = pq.len();
    let last = match pq.positions.last() {
        Some(p) => p,
        None => return 0,
    };
    let mut seeded = 0;
    for route in prefix {
        if route.pois.len() == k {
            // Full-length seed: validate and insert as-is.
            if valid_full_seed(ctx, pq, route) {
                let sim_acc: f64 = route
                    .pois
                    .iter()
                    .enumerate()
                    .map(|(i, &p)| pq.positions[i].sim_of(ctx, p))
                    .product();
                if skyline.update(SkylineRoute {
                    pois: route.pois.clone(),
                    length: route.length,
                    semantic: 1.0 - sim_acc,
                }) {
                    seeded += 1;
                }
            }
            continue;
        }
        if route.pois.len() + 1 != k || route.pois.is_empty() {
            continue;
        }
        // Recompute the similarity accumulator Π h_i under *this* query's
        // positions (multiplied in position order, exactly as the engine
        // accumulates it). A PoI that does not match disqualifies the
        // route.
        let mut sim_acc = 1.0;
        let mut valid = true;
        for (i, &p) in route.pois.iter().enumerate() {
            let s = pq.positions[i].sim_of(ctx, p);
            if s <= 0.0 {
                valid = false;
                break;
            }
            sim_acc *= s;
        }
        if !valid {
            continue;
        }
        let source = *route.pois.last().expect("non-empty checked");
        let search_stats = dijkstra_with(ctx.graph, ws, &[(source, Cost::ZERO)], |u, d| {
            if route.pois.contains(&u) {
                // Definition 3.4(iii): PoI vertices must be distinct.
                return Settle::Continue;
            }
            let sim = last.sim_of(ctx, u);
            if sim > 0.0 {
                let mut pois = Vec::with_capacity(k);
                pois.extend_from_slice(&route.pois);
                pois.push(u);
                // Only completions that actually enter the set count as
                // seeds — dominated candidates contributed nothing, and
                // the warm/cold classification downstream relies on that.
                if skyline.update(SkylineRoute {
                    pois,
                    length: route.length + d,
                    semantic: 1.0 - sim_acc * sim,
                }) {
                    seeded += 1;
                }
                if sim >= 1.0 {
                    // Anything settling later is longer AND at best equally
                    // similar — dominated, so stop this leg (as NNinit's
                    // final leg does).
                    return Settle::Stop;
                }
            }
            Settle::Continue
        });
        stats.search.merge(&search_stats);
    }
    stats.warm_seed_routes = seeded;
    seeded
}

/// How many distinct first-position PoIs a suffix seed run prepends — the
/// nearest few matches give the tightest thresholds; beyond that the
/// point-to-point legs cost more than the pruning they buy.
const SUFFIX_PREPEND_SOURCES: usize = 4;

/// Hard settle budget for the seed run's source/head Dijkstra. The walk
/// normally stops far earlier (quota of nearby sources + settled heads),
/// but a sparse first position (fewer matches in the whole graph than the
/// quota) or an unreachable suffix head would otherwise degrade it to a
/// graph-wide scan — seeding is a heuristic, so past this budget it gives
/// up whatever it has rather than keep paying.
const SUFFIX_SCAN_SETTLE_BUDGET: u64 = 16_384;

/// Seeds the skyline for a k-position query from a cached skyline of its
/// *suffix* ⟨c₂, …, c_k⟩ over the same start vertex, by prepending one
/// shortest-path leg through a first-position match. Returns (and records
/// as [`QueryStats::warm_seed_routes`]) the number of seeds inserted.
///
/// A suffix route `R = (q₂, …, q_k)` from start `s` decomposes as
/// `l(R) = d(s, q₂) + T` where `T` is the sum of `R`'s inter-PoI legs —
/// all of which reappear verbatim in the candidate route
/// `(p₁, q₂, …, q_k)` for the full query. So the candidate's genuine
/// length is `d(s, p₁) + d(p₁, q₂) + (l(R) − d(s, q₂))`, every term a real
/// shortest-path leg at this context's epoch:
///
/// 1. one Dijkstra from `s` settles `d(s, q₂)` for every suffix head and
///    the nearest few (`SUFFIX_PREPEND_SOURCES`) first-position matches `p₁`
///    (walking on until a perfect match is found, capped at twice that);
/// 2. per (route, `p₁`) pair, one early-terminating point-to-point leg
///    gives `d(p₁, q₂)`.
///
/// Soundness is the full-length-seed precondition of
/// [`seed_prefix_routes`]: every seed is a valid sequenced route (PoIs
/// validated against *this* query's positions, semantics recomputed from
/// them, distinctness enforced) whose length is a genuine accumulated
/// shortest-path length — so it only tightens the pruning thresholds, and
/// a foreign or malformed suffix skyline degrades to a cold start.
///
/// **Precondition** (inherited): the suffix routes' lengths must be
/// genuine accumulated shortest-path lengths from `pq.start` *at this
/// context's weight epoch* — guaranteed by the cache-keyed caller handing
/// over same-start, same-epoch entries only.
pub fn seed_suffix_routes(
    ctx: &QueryContext<'_>,
    pq: &PreparedQuery,
    suffix: &[SkylineRoute],
    ws: &mut DijkstraWorkspace,
    skyline: &mut SkylineSet,
    stats: &mut QueryStats,
) -> usize {
    let k = pq.len();
    if k < 2 {
        return 0;
    }
    let first = &pq.positions[0];

    // Validate the suffix routes against positions 2..k and accumulate
    // each route's tail similarity product under *this* query's positions.
    struct Tail<'r> {
        route: &'r SkylineRoute,
        head: VertexId,
        tail_sim: f64,
    }
    let mut tails: Vec<Tail<'_>> = Vec::with_capacity(suffix.len());
    'routes: for route in suffix {
        if route.pois.len() + 1 != k || route.pois.is_empty() {
            continue;
        }
        let mut tail_sim = 1.0;
        for (j, &p) in route.pois.iter().enumerate() {
            let s = pq.positions[j + 1].sim_of(ctx, p);
            // Definition 3.4(iii): PoI vertices must be distinct — a
            // malformed route with duplicates must degrade to a cold
            // start, not become an understated-length seed.
            if s <= 0.0 || route.pois[..j].contains(&p) {
                continue 'routes;
            }
            tail_sim *= s;
        }
        tails.push(Tail { route, head: route.pois[0], tail_sim });
    }
    if tails.is_empty() {
        return 0;
    }

    // Pass 1: one Dijkstra from the start settles every suffix head (for
    // d(s, q₂)) and the nearest first-position matches (the prepend
    // sources).
    let mut head_dist: FxHashMap<u32, f64> = FxHashMap::default();
    let mut heads_left = 0usize;
    for t in &tails {
        if head_dist.insert(t.head.0, f64::INFINITY).is_none() {
            heads_left += 1;
        }
    }
    // Nothing settled beyond the semantic-0 threshold can contribute a
    // useful seed (any seed through it is at least that long, and the
    // semantic-0 member already dominates it), so the walk is capped at
    // the same radius the engine's own bound computation uses. Infinite
    // when the skyline has no perfect route yet — the source/head stop
    // below still keeps the walk local.
    let cap = skyline.threshold_zero();
    let mut sources: Vec<(VertexId, Cost, f64)> = Vec::new();
    let mut have_perfect = false;
    let mut settled = 0u64;
    let search_stats = dijkstra_with(ctx.graph, ws, &[(pq.start, Cost::ZERO)], |u, d| {
        settled += 1;
        if d > cap || settled > SUFFIX_SCAN_SETTLE_BUDGET {
            return Settle::Stop;
        }
        if let Some(slot) = head_dist.get_mut(&u.0) {
            if slot.is_infinite() {
                *slot = d.get();
                heads_left -= 1;
            }
        }
        // Always collect the nearest few; keep walking past them only
        // while hunting for a perfect match (a perfect match settled
        // early must not stall the collection below the stop quota).
        if sources.len() < 2 * SUFFIX_PREPEND_SOURCES
            && (sources.len() < SUFFIX_PREPEND_SOURCES || !have_perfect)
        {
            let sim = first.sim_of(ctx, u);
            if sim > 0.0 {
                sources.push((u, d, sim));
                have_perfect |= sim >= 1.0;
            }
        }
        // Enough prepend sources once the nearest few are in hand and
        // either one is perfect or the hunt for a perfect match has been
        // given one extra batch — a position with no perfect match at all
        // must not turn this into a graph-wide walk.
        let sources_done = sources.len() >= SUFFIX_PREPEND_SOURCES
            && (have_perfect || sources.len() >= 2 * SUFFIX_PREPEND_SOURCES);
        if heads_left == 0 && sources_done {
            Settle::Stop
        } else {
            Settle::Continue
        }
    });
    stats.search.merge(&search_stats);
    // Keep the nearest few, plus — if it only arrived in the extra batch —
    // the first perfect match (the semantically strongest prepend).
    if sources.len() > SUFFIX_PREPEND_SOURCES {
        let late_perfect =
            sources[SUFFIX_PREPEND_SOURCES..].iter().find(|&&(_, _, sim)| sim >= 1.0).copied();
        sources.truncate(SUFFIX_PREPEND_SOURCES);
        sources.extend(late_perfect);
    }

    // Pass 2: prepend each source to each suffix route via one
    // early-terminating point-to-point leg.
    let mut seeded = 0usize;
    for t in &tails {
        let d_head = head_dist[&t.head.0];
        if d_head.is_infinite() {
            continue; // head unreachable from the start
        }
        // The route's first leg *is* d(s, q₂), so the tail sum is exact.
        let tail_len = (t.route.length.get() - d_head).max(0.0);
        for &(p1, d_p1, sim1) in &sources {
            if t.route.pois.contains(&p1) {
                // Definition 3.4(iii): PoI vertices must be distinct.
                continue;
            }
            // `d(s,p1) + tail` already lower-bounds the seed's length
            // (the leg is non-negative): a seed the skyline provably
            // rejects is not worth its point-to-point Dijkstra.
            let sim_acc = sim1 * t.tail_sim;
            if skyline.dominated_or_equal(d_p1 + Cost::new(tail_len), 1.0 - sim_acc) {
                continue;
            }
            let (leg, leg_stats) = point_to_point(ctx.graph, ws, p1, t.head);
            stats.search.merge(&leg_stats);
            let Some(leg) = leg else {
                continue;
            };
            let mut pois = Vec::with_capacity(k);
            pois.push(p1);
            pois.extend_from_slice(&t.route.pois);
            if skyline.update(SkylineRoute {
                pois,
                length: d_p1 + leg + Cost::new(tail_len),
                semantic: 1.0 - sim_acc,
            }) {
                seeded += 1;
            }
        }
    }
    stats.warm_seed_routes = seeded;
    seeded
}

/// Whether `route` is a structurally valid full-length (k PoIs, distinct,
/// every PoI matching its position) sequenced route for `pq`.
fn valid_full_seed(ctx: &QueryContext<'_>, pq: &PreparedQuery, route: &SkylineRoute) -> bool {
    if route.pois.len() != pq.len() {
        return false;
    }
    for (i, &p) in route.pois.iter().enumerate() {
        if pq.positions[i].sim_of(ctx, p) <= 0.0 {
            return false;
        }
        // Definition 3.4(iii): PoI vertices must be distinct.
        if route.pois[..i].contains(&p) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bssr::Bssr;
    use crate::paper_example::PaperExample;
    use crate::query::SkySrQuery;
    use skysr_graph::dijkstra::shortest_distance;
    use skysr_graph::VertexId;

    fn fixture() -> (PaperExample, SkySrQuery) {
        let ex = PaperExample::new();
        let q = ex.query();
        (ex, q)
    }

    #[test]
    fn seeds_complete_valid_routes_from_a_prefix_skyline() {
        let (ex, full) = fixture();
        let ctx = ex.context();
        // Cold skyline of the 2-position prefix.
        let prefix_query = SkySrQuery::with_positions(
            full.start,
            full.sequence[..full.sequence.len() - 1].to_vec(),
        );
        let prefix = Bssr::new(&ctx).run(&prefix_query).unwrap().routes;
        assert!(!prefix.is_empty());

        let pq = crate::prepared::PreparedQuery::prepare(&ctx, &full).unwrap();
        let mut ws = DijkstraWorkspace::new(ctx.graph.num_vertices());
        let mut skyline = SkylineSet::new();
        let mut stats = QueryStats::default();
        let n = seed_prefix_routes(&ctx, &pq, &prefix, &mut ws, &mut skyline, &mut stats);
        assert!(n > 0);
        assert_eq!(stats.warm_seed_routes, n);
        // Every seeded member is a full-length route with distinct PoIs and
        // scores no better than the true skyline permits.
        let truth = Bssr::new(&ctx).run(&full).unwrap().routes;
        for r in skyline.routes() {
            assert_eq!(r.pois.len(), full.len());
            let mut pois = r.pois.clone();
            pois.sort_unstable();
            pois.dedup();
            assert_eq!(pois.len(), full.len(), "distinct PoIs");
            assert!(
                truth.iter().any(|t| !r.dominates(t)),
                "a seed cannot dominate the exact skyline"
            );
        }
    }

    #[test]
    fn suffix_seeds_are_valid_genuine_length_routes() {
        let (ex, full) = fixture();
        let ctx = ex.context();
        // Cold skyline of the ⟨c₂, …, c_k⟩ suffix from the same start.
        let suffix_query = SkySrQuery::with_positions(full.start, full.sequence[1..].to_vec());
        let suffix = Bssr::new(&ctx).run(&suffix_query).unwrap().routes;
        assert!(!suffix.is_empty());

        let pq = crate::prepared::PreparedQuery::prepare(&ctx, &full).unwrap();
        let mut ws = DijkstraWorkspace::new(ctx.graph.num_vertices());
        let mut skyline = SkylineSet::new();
        let mut stats = QueryStats::default();
        let n = seed_suffix_routes(&ctx, &pq, &suffix, &mut ws, &mut skyline, &mut stats);
        assert!(n > 0, "the paper example's suffix skyline must produce seeds");
        assert_eq!(stats.warm_seed_routes, n);
        let truth = Bssr::new(&ctx).run(&full).unwrap().routes;
        for r in skyline.routes() {
            assert_eq!(r.pois.len(), full.len());
            let mut pois = r.pois.clone();
            pois.sort_unstable();
            pois.dedup();
            assert_eq!(pois.len(), full.len(), "distinct PoIs");
            // Genuine length: recompute the legs and compare.
            let mut at = full.start;
            let mut len = Cost::ZERO;
            for &p in &r.pois {
                len += shortest_distance(ctx.graph, &mut ws, at, p).unwrap();
                at = p;
            }
            assert!(
                (len.get() - r.length.get()).abs() < 1e-9,
                "seed length {} is not the accumulated shortest-path length {}",
                r.length.get(),
                len.get()
            );
            assert!(
                truth.iter().any(|t| !r.dominates(t)),
                "a seed cannot dominate the exact skyline"
            );
        }
    }

    #[test]
    fn malformed_suffixes_are_skipped() {
        let (ex, full) = fixture();
        let ctx = ex.context();
        let pq = crate::prepared::PreparedQuery::prepare(&ctx, &full).unwrap();
        let mut ws = DijkstraWorkspace::new(ctx.graph.num_vertices());
        let mut skyline = SkylineSet::new();
        let mut stats = QueryStats::default();
        let bad = vec![
            // Wrong length for a (k−1)-suffix.
            SkylineRoute { pois: vec![ex.p(2)], length: Cost::new(1.0), semantic: 0.0 },
            // Right length but a non-PoI vertex cannot match position 2.
            SkylineRoute {
                pois: vec![VertexId(0), ex.p(5)],
                length: Cost::new(1.0),
                semantic: 0.0,
            },
        ];
        let n = seed_suffix_routes(&ctx, &pq, &bad, &mut ws, &mut skyline, &mut stats);
        assert_eq!(n, 0);
        assert!(skyline.is_empty());
        // Single-position queries have no suffix to seed from.
        let single = SkySrQuery::with_positions(full.start, full.sequence[..1].to_vec());
        let spq = crate::prepared::PreparedQuery::prepare(&ctx, &single).unwrap();
        assert_eq!(seed_suffix_routes(&ctx, &spq, &bad, &mut ws, &mut skyline, &mut stats), 0);
    }

    #[test]
    fn malformed_prefixes_are_skipped() {
        let (ex, full) = fixture();
        let ctx = ex.context();
        let pq = crate::prepared::PreparedQuery::prepare(&ctx, &full).unwrap();
        let mut ws = DijkstraWorkspace::new(ctx.graph.num_vertices());
        let mut skyline = SkylineSet::new();
        let mut stats = QueryStats::default();
        let bad = vec![
            // Wrong length for a (k−1)-prefix.
            SkylineRoute { pois: vec![ex.p(2)], length: Cost::new(1.0), semantic: 0.0 },
            // Right length but a PoI that cannot match position 0
            // (vertex 0 is not a PoI at all).
            SkylineRoute {
                pois: vec![VertexId(0), ex.p(5)],
                length: Cost::new(1.0),
                semantic: 0.0,
            },
        ];
        let n = seed_prefix_routes(&ctx, &pq, &bad, &mut ws, &mut skyline, &mut stats);
        assert_eq!(n, 0);
        assert!(skyline.is_empty());
    }
}
