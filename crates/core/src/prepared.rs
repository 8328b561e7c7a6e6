//! Per-query preprocessing: dense similarity tables and candidate PoI sets.
//!
//! Before any search runs, each position of the category sequence is
//! compiled into a [`Position`]: an O(1) similarity oracle for vertices
//! plus the materialised candidate sets `P_c` (perfect matches) and `P_t`
//! (semantic matches) that NNinit, the minimum-distance bounds and the OSR
//! baselines consume. Plain-category positions resolve through a dense
//! per-category table; complex requirements (§6) precompute a per-vertex
//! map by scanning the PoI list once.
//!
//! A plain-category position depends only on its category, the forest,
//! the PoI table and the similarity measure — never on the start vertex or
//! the edge weights. A long-lived caller serving many queries over one
//! such bundle can therefore compile each category once and share the
//! result through a [`PositionMemo`].

use std::sync::{Arc, OnceLock};

use skysr_category::similarity::SimilarityTable;
use skysr_category::CategoryId;
use skysr_graph::fxhash::FxHashMap;
use skysr_graph::{EpochId, VertexId};

use crate::context::QueryContext;
use crate::error::QueryError;
use crate::query::{PositionSpec, SkySrQuery};

#[derive(Debug)]
enum PositionKind {
    /// Dense `sim(query category, c)` per category id.
    ByCategory(SimilarityTable),
    /// Per-vertex similarity for complex requirements.
    PerVertex(FxHashMap<u32, f64>),
}

/// One compiled position of the sequence.
#[derive(Debug)]
pub struct Position {
    kind: PositionKind,
    /// PoIs that perfectly match this position (the paper's `P_c`).
    pub perfect: Vec<VertexId>,
    /// PoIs that semantically match this position (the paper's `P_t`).
    pub semantic: Vec<VertexId>,
    /// σ\*: the best non-perfect similarity reachable at this position
    /// (drives the minimum semantic increment δ of Lemma 5.8).
    pub sigma_star: Option<f64>,
    /// Category trees this position can match: a PoI matches it only
    /// through a category of one of these trees.
    pub trees: Vec<u32>,
    /// Category trees, ascending, that include every tree carried by a PoI
    /// matching this position. A PoI tagged in two trees brings both, so no
    /// PoI matching this position can match another position whose `trees`
    /// miss all of these. BSSR derives its Lemma 5.5 flags and the
    /// soundness of grouped expansion from that (see `bssr`).
    pub carried_trees: Vec<u32>,
    /// Whether this position may revisit a vertex already in the route
    /// (used by the destination variant's pseudo-position; always `false`
    /// for real PoI positions per Definition 3.4(iii)).
    pub allow_revisit: bool,
}

impl Position {
    /// Similarity of vertex `v` to this position (0 for non-matching
    /// vertices and non-PoIs).
    #[inline]
    pub fn sim_of(&self, ctx: &QueryContext<'_>, v: VertexId) -> f64 {
        match &self.kind {
            PositionKind::ByCategory(table) => {
                let mut best = 0.0f64;
                for &c in ctx.pois.categories_of(v) {
                    let s = table.sim(c);
                    if s > best {
                        best = s;
                    }
                }
                best
            }
            PositionKind::PerVertex(map) => map.get(&v.0).copied().unwrap_or(0.0),
        }
    }

    /// Whether `v` perfectly matches this position.
    #[inline]
    pub fn is_perfect(&self, ctx: &QueryContext<'_>, v: VertexId) -> bool {
        self.sim_of(ctx, v) >= 1.0
    }

    /// The best similarity any PoI can achieve at this position: 1 when a
    /// perfect match exists, otherwise σ\* (0 only for unmatchable
    /// positions, which short-circuit before any search). Products of
    /// this over remaining positions bound the minimum semantic score any
    /// completion can reach — positions without perfect matches (e.g.
    /// non-leaf ancestor categories when PoIs carry leaves) then yield
    /// finite pruning thresholds instead of an unbounded hunt for
    /// impossible semantic-0 routes.
    #[inline]
    pub fn best_sim(&self) -> f64 {
        if self.perfect.is_empty() {
            self.sigma_star.unwrap_or(0.0)
        } else {
            1.0
        }
    }

    /// Builds the destination pseudo-position: exactly one "PoI" (`dest`)
    /// with similarity 1, revisits allowed.
    pub fn destination(dest: VertexId) -> Position {
        let mut map = FxHashMap::default();
        map.insert(dest.0, 1.0);
        Position {
            kind: PositionKind::PerVertex(map),
            perfect: vec![dest],
            semantic: vec![dest],
            sigma_star: None,
            trees: Vec::new(),
            carried_trees: Vec::new(),
            allow_revisit: true,
        }
    }
}

/// Compiled plain-category positions, one lazily filled slot per forest
/// category, shared by every query prepared through
/// [`PreparedQuery::prepare_memoized`].
///
/// An entry is valid for exactly one forest, PoI table and similarity
/// measure — the ones of the first context that filled it — and for every
/// weight epoch, since a compiled position holds no distances. The owner
/// keeps that pairing: one memo per immutable (forest, PoI table,
/// similarity) bundle, sized to the forest's category count. Memory is
/// bounded by one entry per category.
#[derive(Debug)]
pub struct PositionMemo {
    slots: Box<[OnceLock<Arc<Position>>]>,
}

impl PositionMemo {
    /// An empty memo for a forest of `num_categories` categories.
    pub fn new(num_categories: usize) -> PositionMemo {
        PositionMemo { slots: (0..num_categories).map(|_| OnceLock::new()).collect() }
    }

    /// The compiled position for `c`, compiling it on first use. Concurrent
    /// first uses block on one compile and all receive the same `Arc`.
    fn get_or_compile(&self, ctx: &QueryContext<'_>, c: CategoryId) -> Arc<Position> {
        Arc::clone(self.slots[c.index()].get_or_init(|| {
            let compiled = PreparedQuery::compile_position(ctx, &PositionSpec::Category(c));
            Arc::new(compiled.expect("a forest category compiles"))
        }))
    }
}

/// A fully compiled query, ready for any of the search algorithms.
#[derive(Debug)]
pub struct PreparedQuery {
    /// Start vertex.
    pub start: VertexId,
    /// Compiled positions, in sequence order. Shared, so memoized
    /// positions cost a reference count per query.
    pub positions: Vec<Arc<Position>>,
    /// The weight epoch of the graph view this query was compiled against:
    /// any search running this prepared query observes exactly that epoch's
    /// edge weights, so its result is attributable to (and only valid for)
    /// this epoch.
    pub epoch: EpochId,
}

impl PreparedQuery {
    /// Compiles `query` against `ctx`, validating ids.
    pub fn prepare(
        ctx: &QueryContext<'_>,
        query: &SkySrQuery,
    ) -> Result<PreparedQuery, QueryError> {
        Self::prepare_with(ctx, query, None)
    }

    /// [`PreparedQuery::prepare`] taking plain-category positions from
    /// `memo` (compiling and storing those it lacks). Requirement
    /// positions still compile per call, and validation is unchanged.
    ///
    /// `memo` must only ever be used with the forest, PoI table and
    /// similarity measure of `ctx` (see [`PositionMemo`]); the graph and
    /// its epoch may differ from call to call.
    pub fn prepare_memoized(
        ctx: &QueryContext<'_>,
        query: &SkySrQuery,
        memo: &PositionMemo,
    ) -> Result<PreparedQuery, QueryError> {
        debug_assert_eq!(memo.slots.len(), ctx.forest.num_categories(), "memo of another forest");
        Self::prepare_with(ctx, query, Some(memo))
    }

    fn prepare_with(
        ctx: &QueryContext<'_>,
        query: &SkySrQuery,
        memo: Option<&PositionMemo>,
    ) -> Result<PreparedQuery, QueryError> {
        if query.is_empty() {
            return Err(QueryError::EmptySequence);
        }
        if query.start.index() >= ctx.graph.num_vertices() {
            return Err(QueryError::UnknownStart(query.start));
        }
        let positions = query
            .sequence
            .iter()
            .map(|spec| match (spec, memo) {
                (PositionSpec::Category(c), Some(memo))
                    if c.index() < ctx.forest.num_categories() =>
                {
                    Ok(memo.get_or_compile(ctx, *c))
                }
                _ => Self::compile_position(ctx, spec).map(Arc::new),
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(PreparedQuery { start: query.start, positions, epoch: ctx.graph.epoch() })
    }

    fn compile_position(
        ctx: &QueryContext<'_>,
        spec: &PositionSpec,
    ) -> Result<Position, QueryError> {
        match spec {
            PositionSpec::Category(c) => {
                if c.index() >= ctx.forest.num_categories() {
                    return Err(QueryError::UnknownCategory(*c));
                }
                let table = SimilarityTable::build(ctx.forest, &DynSim(ctx.similarity), *c);
                let mut perfect = Vec::new();
                let mut semantic = Vec::new();
                let mut sigma_star: Option<f64> = None;
                let mut carried_trees = vec![ctx.forest.tree_of(*c)];
                for &p in ctx.pois.pois_in_tree_of(ctx.forest, *c) {
                    let cats = ctx.pois.categories_of(p);
                    let mut best = 0.0f64;
                    for &pc in cats {
                        let s = table.sim(pc);
                        if s > best {
                            best = s;
                        }
                    }
                    if best <= 0.0 {
                        continue;
                    }
                    // A single category lies in this tree, already carried.
                    if cats.len() > 1 {
                        carry_trees(ctx, cats, &mut carried_trees);
                    }
                    semantic.push(p);
                    if best >= 1.0 {
                        perfect.push(p);
                    } else if sigma_star.is_none_or(|b| best > b) {
                        sigma_star = Some(best);
                    }
                }
                Ok(Position {
                    kind: PositionKind::ByCategory(table),
                    perfect,
                    semantic,
                    sigma_star,
                    trees: vec![ctx.forest.tree_of(*c)],
                    carried_trees: sorted(carried_trees),
                    allow_revisit: false,
                })
            }
            PositionSpec::Requirement(req) => {
                for c in req.referenced_categories() {
                    if c.index() >= ctx.forest.num_categories() {
                        return Err(QueryError::UnknownCategory(c));
                    }
                }
                let mut map = FxHashMap::default();
                let mut perfect = Vec::new();
                let mut semantic = Vec::new();
                let mut sigma_star: Option<f64> = None;
                let mut carried_trees = Vec::new();
                for &p in ctx.pois.pois() {
                    let s = req.similarity(
                        ctx.forest,
                        &DynSim(ctx.similarity),
                        ctx.pois.categories_of(p),
                    );
                    if s <= 0.0 {
                        continue;
                    }
                    carry_trees(ctx, ctx.pois.categories_of(p), &mut carried_trees);
                    map.insert(p.0, s);
                    semantic.push(p);
                    if s >= 1.0 {
                        perfect.push(p);
                    } else if sigma_star.is_none_or(|b| s > b) {
                        sigma_star = Some(s);
                    }
                }
                let trees =
                    req.referenced_categories().iter().map(|&c| ctx.forest.tree_of(c)).collect();
                Ok(Position {
                    kind: PositionKind::PerVertex(map),
                    perfect,
                    semantic,
                    sigma_star,
                    trees: sorted(trees),
                    carried_trees: sorted(carried_trees),
                    allow_revisit: false,
                })
            }
        }
    }

    /// |S_q|.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Always false: `prepare` rejects empty sequences.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Index of the first position with no semantically matching PoI, if
    /// any — such queries have an empty answer and searches short-circuit.
    pub fn unmatchable_position(&self) -> Option<usize> {
        self.positions.iter().position(|p| p.semantic.is_empty())
    }
}

/// Adds the trees of `cats` that `trees` lacks.
fn carry_trees(ctx: &QueryContext<'_>, cats: &[CategoryId], trees: &mut Vec<u32>) {
    for &c in cats {
        let t = ctx.forest.tree_of(c);
        if !trees.contains(&t) {
            trees.push(t);
        }
    }
}

fn sorted(mut trees: Vec<u32>) -> Vec<u32> {
    trees.sort_unstable();
    trees.dedup();
    trees
}

/// Adapter: `&dyn Similarity` as a `Similarity`.
struct DynSim<'a>(&'a dyn skysr_category::Similarity);

impl skysr_category::Similarity for DynSim<'_> {
    fn sim(
        &self,
        forest: &skysr_category::CategoryForest,
        a: skysr_category::CategoryId,
        b: skysr_category::CategoryId,
    ) -> f64 {
        self.0.sim(forest, a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poi::PoiTable;
    use proptest::prelude::*;
    use skysr_category::{ForestBuilder, Requirement};
    use skysr_graph::GraphBuilder;
    use std::sync::Barrier;

    struct Fixture {
        graph: skysr_graph::RoadNetwork,
        forest: skysr_category::CategoryForest,
        pois: PoiTable,
    }

    fn fixture() -> Fixture {
        // Vertices 0..5; PoIs: 1 = Asian, 2 = Italian, 3 = Gift, 4 = Asian.
        let mut gb = GraphBuilder::new();
        let vs: Vec<_> = (0..5).map(|_| gb.add_vertex()).collect();
        for w in vs.windows(2) {
            gb.add_edge(w[0], w[1], 1.0);
        }
        let graph = gb.build();
        let mut fb = ForestBuilder::new();
        let food = fb.add_root("Food");
        let asian = fb.add_child(food, "Asian");
        let italian = fb.add_child(food, "Italian");
        let shop = fb.add_root("Shop");
        let gift = fb.add_child(shop, "Gift");
        let forest = fb.build();
        let mut pois = PoiTable::new(graph.num_vertices());
        pois.add_poi(VertexId(1), asian);
        pois.add_poi(VertexId(2), italian);
        pois.add_poi(VertexId(3), gift);
        pois.add_poi(VertexId(4), asian);
        pois.finalize(&forest);
        Fixture { graph, forest, pois }
    }

    #[test]
    fn category_position_sets_and_sims() {
        let fx = fixture();
        let ctx = QueryContext::new(&fx.graph, &fx.forest, &fx.pois);
        let asian = fx.forest.by_name("Asian").unwrap();
        let q = SkySrQuery::new(VertexId(0), [asian]);
        let pq = PreparedQuery::prepare(&ctx, &q).unwrap();
        let pos = &pq.positions[0];
        assert_eq!(pos.perfect, vec![VertexId(1), VertexId(4)]);
        assert_eq!(pos.semantic, vec![VertexId(1), VertexId(2), VertexId(4)]);
        assert_eq!(pos.sim_of(&ctx, VertexId(1)), 1.0);
        assert_eq!(pos.sim_of(&ctx, VertexId(2)), 0.5); // Wu–Palmer siblings
        assert_eq!(pos.sim_of(&ctx, VertexId(3)), 0.0); // other tree
        assert_eq!(pos.sim_of(&ctx, VertexId(0)), 0.0); // not a PoI

        // σ*: best non-perfect similarity with actual PoIs = 0.5 (Italian).
        assert_eq!(pos.sigma_star, Some(0.5));
        assert!(pos.is_perfect(&ctx, VertexId(4)));
        assert!(!pos.allow_revisit);
    }

    #[test]
    fn requirement_position() {
        let fx = fixture();
        let ctx = QueryContext::new(&fx.graph, &fx.forest, &fx.pois);
        let asian = fx.forest.by_name("Asian").unwrap();
        let italian = fx.forest.by_name("Italian").unwrap();
        let req = Requirement::any_of([asian, italian]);
        let q = SkySrQuery::with_positions(VertexId(0), [PositionSpec::Requirement(req)]);
        let pq = PreparedQuery::prepare(&ctx, &q).unwrap();
        let pos = &pq.positions[0];
        // Both Asian and Italian PoIs now match perfectly.
        assert_eq!(pos.perfect, vec![VertexId(1), VertexId(2), VertexId(4)]);
        assert_eq!(pos.sim_of(&ctx, VertexId(2)), 1.0);
    }

    #[test]
    fn carried_trees_follow_multi_category_matches() {
        let fx = fixture();
        let asian = fx.forest.by_name("Asian").unwrap();
        let gift = fx.forest.by_name("Gift").unwrap();
        let (food, shop) = (fx.forest.tree_of(asian), fx.forest.tree_of(gift));
        let q = SkySrQuery::with_positions(
            VertexId(0),
            [asian.into(), PositionSpec::Requirement(Requirement::any_of([gift]))],
        );
        let ctx = QueryContext::new(&fx.graph, &fx.forest, &fx.pois);
        let pq = PreparedQuery::prepare(&ctx, &q).unwrap();
        assert_eq!(pq.positions[0].carried_trees, vec![food]);
        assert_eq!(pq.positions[1].carried_trees, vec![shop]);
        // Vertex 1 is an Asian restaurant and a gift shop: both positions
        // can match it, so each carries both trees.
        let mut pois = PoiTable::new(fx.graph.num_vertices());
        pois.add_poi(VertexId(1), asian);
        pois.add_poi(VertexId(1), gift);
        pois.add_poi(VertexId(3), gift);
        pois.finalize(&fx.forest);
        let ctx = QueryContext::new(&fx.graph, &fx.forest, &pois);
        let pq = PreparedQuery::prepare(&ctx, &q).unwrap();
        for pos in &pq.positions {
            assert_eq!(pos.carried_trees, vec![food, shop]);
        }
        assert_eq!(pq.positions[0].trees, vec![food]);
    }

    #[test]
    fn validation_errors() {
        let fx = fixture();
        let ctx = QueryContext::new(&fx.graph, &fx.forest, &fx.pois);
        let asian = fx.forest.by_name("Asian").unwrap();
        assert_eq!(
            PreparedQuery::prepare(&ctx, &SkySrQuery::new(VertexId(99), [asian])).unwrap_err(),
            QueryError::UnknownStart(VertexId(99))
        );
        assert_eq!(
            PreparedQuery::prepare(&ctx, &SkySrQuery::new(VertexId(0), [])).unwrap_err(),
            QueryError::EmptySequence
        );
        assert_eq!(
            PreparedQuery::prepare(
                &ctx,
                &SkySrQuery::new(VertexId(0), [skysr_category::CategoryId(999)])
            )
            .unwrap_err(),
            QueryError::UnknownCategory(skysr_category::CategoryId(999))
        );
    }

    #[test]
    fn unmatchable_position_detected() {
        let fx = fixture();
        let ctx = QueryContext::new(&fx.graph, &fx.forest, &fx.pois);
        let shop_root = fx.forest.by_name("Shop").unwrap();
        let asian = fx.forest.by_name("Asian").unwrap();
        // Shop tree has a Gift PoI → matchable; Food tree fine too.
        let q = SkySrQuery::new(VertexId(0), [asian, shop_root]);
        let pq = PreparedQuery::prepare(&ctx, &q).unwrap();
        assert_eq!(pq.unmatchable_position(), None);
        // A forest category with no PoIs anywhere in its tree:
        let mut fb = ForestBuilder::new();
        let lonely = fb.add_root("Lonely");
        let forest2 = fb.build();
        let mut pois2 = PoiTable::new(fx.graph.num_vertices());
        pois2.finalize(&forest2);
        let ctx2 = QueryContext::new(&fx.graph, &forest2, &pois2);
        let q2 = SkySrQuery::new(VertexId(0), [lonely]);
        let pq2 = PreparedQuery::prepare(&ctx2, &q2).unwrap();
        assert_eq!(pq2.unmatchable_position(), Some(0));
    }

    #[test]
    fn prepared_query_pins_the_graph_epoch() {
        use skysr_graph::{EpochId, WeightDelta, WeightEpoch};
        let fx = fixture();
        let asian = fx.forest.by_name("Asian").unwrap();
        let q = SkySrQuery::new(VertexId(0), [asian]);
        let ctx = QueryContext::new(&fx.graph, &fx.forest, &fx.pois);
        assert_eq!(PreparedQuery::prepare(&ctx, &q).unwrap().epoch, EpochId::BASE);
        assert_eq!(ctx.epoch(), EpochId::BASE);
        // Preparing against a later-epoch pin records that epoch.
        let epochs = WeightEpoch::new(fx.graph.clone());
        epochs.publish(&[WeightDelta::new(VertexId(0), VertexId(1), 2.0)]);
        let pinned = epochs.pin();
        let ctx2 = QueryContext::new(&pinned, &fx.forest, &fx.pois);
        assert_eq!(ctx2.epoch(), EpochId(1));
        assert_eq!(PreparedQuery::prepare(&ctx2, &q).unwrap().epoch, EpochId(1));
    }

    /// A generated forest — category `i` is a root when `parents[i]` is
    /// `None` (always for `i = 0`), else a child of category
    /// `parents[i] mod i` — with vertex `v` tagged by the categories
    /// `poi_cats[v]` (mod the forest size) on a small path graph.
    fn generated(parents: &[Option<usize>], poi_cats: &[Vec<usize>]) -> Fixture {
        let mut fb = ForestBuilder::new();
        let mut ids: Vec<CategoryId> = Vec::new();
        for (i, parent) in parents.iter().enumerate() {
            let name = format!("c{i}");
            let id = match parent {
                Some(p) if i > 0 => fb.add_child(ids[p % i], &name),
                _ => fb.add_root(&name),
            };
            ids.push(id);
        }
        let forest = fb.build();
        let mut gb = GraphBuilder::new();
        let vs: Vec<_> = poi_cats.iter().map(|_| gb.add_vertex()).collect();
        for w in vs.windows(2) {
            gb.add_edge(w[0], w[1], 1.0);
        }
        let graph = gb.build();
        let mut pois = PoiTable::new(graph.num_vertices());
        for (v, cats) in vs.iter().zip(poi_cats) {
            for &c in cats {
                pois.add_poi(*v, ids[c % ids.len()]);
            }
        }
        pois.finalize(&forest);
        Fixture { graph, forest, pois }
    }

    fn assert_same_position(ctx: &QueryContext<'_>, got: &Position, want: &Position) {
        assert_eq!(got.perfect, want.perfect);
        assert_eq!(got.semantic, want.semantic);
        assert_eq!(got.sigma_star, want.sigma_star);
        assert_eq!(got.trees, want.trees);
        assert_eq!(got.carried_trees, want.carried_trees);
        assert_eq!(got.allow_revisit, want.allow_revisit);
        for v in 0..ctx.graph.num_vertices() {
            let v = VertexId(v as u32);
            assert_eq!(got.sim_of(ctx, v), want.sim_of(ctx, v), "sim_of({v:?})");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn memoized_positions_equal_fresh_compiles(
            parents in prop::collection::vec(prop::option::of(0usize..64), 1..10),
            poi_cats in prop::collection::vec(prop::collection::vec(0usize..64, 0..3), 2..12),
        ) {
            let fx = generated(&parents, &poi_cats);
            let ctx = QueryContext::new(&fx.graph, &fx.forest, &fx.pois);
            let memo = PositionMemo::new(fx.forest.num_categories());
            let cats: Vec<CategoryId> = fx.forest.categories().collect();
            // Three threads race on every category's first use.
            let barrier = Barrier::new(3);
            let per_thread: Vec<Vec<Arc<Position>>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..3)
                    .map(|_| {
                        s.spawn(|| {
                            barrier.wait();
                            cats.iter()
                                .map(|&c| {
                                    let q = SkySrQuery::new(VertexId(0), [c]);
                                    let pq = PreparedQuery::prepare_memoized(&ctx, &q, &memo);
                                    pq.unwrap().positions.pop().unwrap()
                                })
                                .collect()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for (i, &c) in cats.iter().enumerate() {
                let fresh = PreparedQuery::prepare(&ctx, &SkySrQuery::new(VertexId(0), [c]));
                assert_same_position(&ctx, &per_thread[0][i], &fresh.unwrap().positions[0]);
                for other in &per_thread[1..] {
                    prop_assert!(Arc::ptr_eq(&per_thread[0][i], &other[i]), "{c:?} compiled twice");
                }
            }
        }

        #[test]
        fn memoized_prepare_keeps_requirements_and_validation(
            parents in prop::collection::vec(prop::option::of(0usize..64), 1..10),
            poi_cats in prop::collection::vec(prop::collection::vec(0usize..64, 0..3), 2..12),
            a in 0usize..64,
            b in 0usize..64,
        ) {
            let fx = generated(&parents, &poi_cats);
            let ctx = QueryContext::new(&fx.graph, &fx.forest, &fx.pois);
            let memo = PositionMemo::new(fx.forest.num_categories());
            let cats: Vec<CategoryId> = fx.forest.categories().collect();
            let (ca, cb) = (cats[a % cats.len()], cats[b % cats.len()]);
            let requirements = [
                Requirement::any_of([ca, cb]),
                Requirement::all_of([ca, cb]),
                Requirement::category(ca).but_not(cb),
            ];
            for req in requirements {
                let q = SkySrQuery::with_positions(
                    VertexId(0),
                    [PositionSpec::Requirement(req), PositionSpec::Category(cb)],
                );
                let fresh = PreparedQuery::prepare(&ctx, &q).unwrap();
                let memoized = PreparedQuery::prepare_memoized(&ctx, &q, &memo).unwrap();
                let again = PreparedQuery::prepare_memoized(&ctx, &q, &memo).unwrap();
                for (got, want) in memoized.positions.iter().zip(&fresh.positions) {
                    assert_same_position(&ctx, got, want);
                }
                // Requirements compile per call; only categories are shared.
                prop_assert!(!Arc::ptr_eq(&memoized.positions[0], &again.positions[0]));
                prop_assert!(Arc::ptr_eq(&memoized.positions[1], &again.positions[1]));
            }
            let unknown = CategoryId(cats.len() as u32);
            let invalid = [
                SkySrQuery::new(VertexId(0), []),
                SkySrQuery::new(VertexId(fx.graph.num_vertices() as u32), [ca]),
                SkySrQuery::new(VertexId(0), [ca, unknown]),
                SkySrQuery::with_positions(
                    VertexId(0),
                    [PositionSpec::Requirement(Requirement::any_of([ca, unknown]))],
                ),
            ];
            for q in invalid {
                prop_assert_eq!(
                    PreparedQuery::prepare_memoized(&ctx, &q, &memo).unwrap_err(),
                    PreparedQuery::prepare(&ctx, &q).unwrap_err()
                );
            }
        }
    }

    #[test]
    fn destination_pseudo_position() {
        let fx = fixture();
        let ctx = QueryContext::new(&fx.graph, &fx.forest, &fx.pois);
        let pos = Position::destination(VertexId(2));
        assert_eq!(pos.sim_of(&ctx, VertexId(2)), 1.0);
        assert_eq!(pos.sim_of(&ctx, VertexId(1)), 0.0);
        assert!(pos.allow_revisit);
        assert_eq!(pos.perfect, vec![VertexId(2)]);
    }
}
