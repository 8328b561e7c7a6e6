//! PoI ↔ category association (the paper's `P`, `P_c`, `P_t`).
//!
//! A [`PoiTable`] records which graph vertices are PoIs and which
//! category/categories each carries. Section 5 assumes one category per
//! PoI; §6 lifts that to multiple categories, so the table stores a small
//! list per vertex and everything downstream takes the max similarity over
//! the list. The lists live in one flat CSR array: the modified Dijkstra
//! reads a vertex's list on every settle.
//!
//! Per the paper's association rule (§3): a PoI with category `c` is also
//! associated with every ancestor of `c`, so `P_c` for an internal category
//! includes all PoIs in `c`'s subtree and `P_t` is every PoI in the tree.

use skysr_category::{CategoryForest, CategoryId};
use skysr_graph::VertexId;

/// Immutable-after-finalise PoI/category table.
#[derive(Clone, Debug)]
pub struct PoiTable {
    /// `(vertex, category)` tags from [`PoiTable::add_poi`], folded into
    /// the CSR by [`PoiTable::finalize`].
    pending: Vec<(VertexId, CategoryId)>,
    /// CSR over vertices: the categories of `v` are
    /// `cat_list[cat_offsets[v]..cat_offsets[v + 1]]` (empty for plain
    /// road vertices), in tagging order without repeats.
    cat_offsets: Vec<u32>,
    cat_list: Vec<CategoryId>,
    /// Per category: PoIs whose *own* category list contains it (no
    /// ancestor closure).
    by_exact_category: Vec<Vec<VertexId>>,
    /// Per tree id: every PoI associated with that tree.
    by_tree: Vec<Vec<VertexId>>,
    /// All PoI vertices, ascending.
    pois: Vec<VertexId>,
}

impl PoiTable {
    /// Creates a table for a graph of `num_vertices` vertices; PoIs are
    /// added with [`PoiTable::add_poi`], then [`PoiTable::finalize`] builds
    /// the per-vertex lists and the per-category / per-tree indexes.
    pub fn new(num_vertices: usize) -> PoiTable {
        PoiTable {
            pending: Vec::new(),
            cat_offsets: vec![0; num_vertices + 1],
            cat_list: Vec::new(),
            by_exact_category: Vec::new(),
            by_tree: Vec::new(),
            pois: Vec::new(),
        }
    }

    /// Tags vertex `v` with category `c` (repeatable for multi-category
    /// PoIs, §6; repeating a tag is a no-op).
    pub fn add_poi(&mut self, v: VertexId, c: CategoryId) {
        self.pending.push((v, c));
    }

    /// Builds the per-vertex lists from the added tags, and the
    /// category/tree indexes. Must be called (once) before queries run.
    ///
    /// # Panics
    /// If a tagged vertex is outside the table or a category outside
    /// `forest`.
    pub fn finalize(&mut self, forest: &CategoryForest) {
        let n = self.cat_offsets.len() - 1;
        // Stably sorted by vertex: each vertex keeps its tagging order.
        let mut tags = std::mem::take(&mut self.pending);
        tags.sort_by_key(|&(v, _)| v);
        if let Some(&(v, _)) = tags.last() {
            assert!(v.index() < n, "PoI vertex {v:?} outside a table of {n} vertices");
        }
        let mut tags = tags.into_iter().peekable();
        for i in 0..n {
            let first = self.cat_list.len();
            while let Some((_, c)) = tags.next_if(|&(v, _)| v.index() == i) {
                if !self.cat_list[first..].contains(&c) {
                    self.cat_list.push(c);
                }
            }
            self.cat_offsets[i + 1] = self.cat_list.len() as u32;
        }

        self.by_exact_category = vec![Vec::new(); forest.num_categories()];
        self.by_tree = vec![Vec::new(); forest.num_trees()];
        self.pois.clear();
        for (i, span) in self.cat_offsets.windows(2).enumerate() {
            let cats = &self.cat_list[span[0] as usize..span[1] as usize];
            if cats.is_empty() {
                continue;
            }
            let v = VertexId(i as u32);
            self.pois.push(v);
            let mut trees_seen: Vec<u32> = Vec::with_capacity(cats.len());
            for &c in cats {
                assert!(c.index() < forest.num_categories(), "category {c:?} not in forest");
                self.by_exact_category[c.index()].push(v);
                let t = forest.tree_of(c);
                if !trees_seen.contains(&t) {
                    trees_seen.push(t);
                    self.by_tree[t as usize].push(v);
                }
            }
        }
    }

    /// Number of PoI vertices (the paper's |P|).
    pub fn num_pois(&self) -> usize {
        self.pois.len()
    }

    /// All PoI vertices in ascending id order.
    pub fn pois(&self) -> &[VertexId] {
        &self.pois
    }

    /// Categories of `v` (empty slice for non-PoIs).
    #[inline]
    pub fn categories_of(&self, v: VertexId) -> &[CategoryId] {
        let i = v.index();
        &self.cat_list[self.cat_offsets[i] as usize..self.cat_offsets[i + 1] as usize]
    }

    /// Whether `v` is a PoI.
    #[inline]
    pub fn is_poi(&self, v: VertexId) -> bool {
        let i = v.index();
        self.cat_offsets[i] != self.cat_offsets[i + 1]
    }

    /// PoIs whose own category equals `c` (exact, no subtree closure).
    pub fn pois_with_exact_category(&self, c: CategoryId) -> &[VertexId] {
        &self.by_exact_category[c.index()]
    }

    /// The paper's `P_c`: PoIs associated with `c`, i.e. PoIs tagged with
    /// `c` or any descendant of `c`.
    pub fn pois_associated_with(&self, forest: &CategoryForest, c: CategoryId) -> Vec<VertexId> {
        let mut out: Vec<VertexId> = Vec::new();
        for d in forest.descendants_or_self(c) {
            out.extend_from_slice(self.pois_with_exact_category(d));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The paper's `P_t`: PoIs associated with the tree containing `c`.
    pub fn pois_in_tree_of(&self, forest: &CategoryForest, c: CategoryId) -> &[VertexId] {
        &self.by_tree[forest.tree_of(c) as usize]
    }

    /// Histogram: number of PoIs tagged with each exact category.
    pub fn category_histogram(&self) -> Vec<(CategoryId, usize)> {
        self.by_exact_category
            .iter()
            .enumerate()
            .map(|(i, v)| (CategoryId(i as u32), v.len()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skysr_category::ForestBuilder;

    fn forest() -> CategoryForest {
        let mut b = ForestBuilder::new();
        let food = b.add_root("Food");
        let asian = b.add_child(food, "Asian");
        b.add_child(asian, "Sushi");
        b.add_child(food, "Italian");
        let shop = b.add_root("Shop");
        b.add_child(shop, "Gift");
        b.build()
    }

    #[test]
    fn exact_and_associated_sets() {
        let f = forest();
        let sushi = f.by_name("Sushi").unwrap();
        let asian = f.by_name("Asian").unwrap();
        let food = f.by_name("Food").unwrap();
        let mut t = PoiTable::new(10);
        t.add_poi(VertexId(1), sushi);
        t.add_poi(VertexId(2), asian);
        t.add_poi(VertexId(3), f.by_name("Italian").unwrap());
        t.finalize(&f);

        assert_eq!(t.num_pois(), 3);
        assert_eq!(t.pois_with_exact_category(sushi), &[VertexId(1)]);
        assert_eq!(t.pois_with_exact_category(asian), &[VertexId(2)]);
        // P_Asian includes the sushi PoI (descendant).
        assert_eq!(t.pois_associated_with(&f, asian), vec![VertexId(1), VertexId(2)]);
        // P_Food includes everything in the food tree.
        assert_eq!(t.pois_associated_with(&f, food), vec![VertexId(1), VertexId(2), VertexId(3)]);
    }

    #[test]
    fn tree_sets() {
        let f = forest();
        let sushi = f.by_name("Sushi").unwrap();
        let gift = f.by_name("Gift").unwrap();
        let mut t = PoiTable::new(5);
        t.add_poi(VertexId(0), sushi);
        t.add_poi(VertexId(4), gift);
        t.finalize(&f);
        assert_eq!(t.pois_in_tree_of(&f, sushi), &[VertexId(0)]);
        assert_eq!(t.pois_in_tree_of(&f, gift), &[VertexId(4)]);
    }

    #[test]
    fn multi_category_poi_appears_in_both_trees() {
        let f = forest();
        let sushi = f.by_name("Sushi").unwrap();
        let gift = f.by_name("Gift").unwrap();
        let mut t = PoiTable::new(3);
        t.add_poi(VertexId(1), sushi);
        t.add_poi(VertexId(1), gift);
        t.finalize(&f);
        assert_eq!(t.num_pois(), 1);
        assert_eq!(t.categories_of(VertexId(1)), &[sushi, gift]);
        assert_eq!(t.pois_in_tree_of(&f, sushi), &[VertexId(1)]);
        assert_eq!(t.pois_in_tree_of(&f, gift), &[VertexId(1)]);
    }

    #[test]
    fn duplicate_tagging_is_idempotent() {
        let f = forest();
        let gift = f.by_name("Gift").unwrap();
        let mut t = PoiTable::new(2);
        t.add_poi(VertexId(0), gift);
        t.add_poi(VertexId(0), gift);
        t.finalize(&f);
        assert_eq!(t.categories_of(VertexId(0)).len(), 1);
        assert_eq!(t.pois_with_exact_category(gift).len(), 1);
    }

    #[test]
    fn non_poi_vertices_report_empty() {
        let f = forest();
        let mut t = PoiTable::new(2);
        t.finalize(&f);
        assert!(!t.is_poi(VertexId(0)));
        assert!(t.categories_of(VertexId(1)).is_empty());
        assert_eq!(t.num_pois(), 0);
    }

    #[test]
    fn histogram_counts() {
        let f = forest();
        let gift = f.by_name("Gift").unwrap();
        let mut t = PoiTable::new(4);
        t.add_poi(VertexId(0), gift);
        t.add_poi(VertexId(1), gift);
        t.finalize(&f);
        let h = t.category_histogram();
        assert_eq!(h[gift.index()].1, 2);
    }
}
