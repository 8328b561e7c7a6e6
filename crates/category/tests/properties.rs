//! Property-based tests for the semantic-hierarchy substrate: the
//! Definition 3.3 similarity contract on arbitrary random forests.

use proptest::prelude::*;
use skysr_category::similarity::SimilarityTable;
use skysr_category::{CategoryForest, CategoryId, ForestBuilder, PathLength, Similarity, WuPalmer};

/// A random forest described by, per category, the index of its parent
/// among previously created categories (or none for a new root).
#[derive(Debug, Clone)]
struct RandomForest {
    parents: Vec<Option<usize>>,
}

fn arb_forest() -> impl Strategy<Value = RandomForest> {
    prop::collection::vec(prop::option::of(0usize..64), 1..24).prop_map(|raw| {
        // Clamp each parent to an existing earlier index.
        let parents =
            raw.iter().enumerate().map(|(i, p)| p.filter(|_| i > 0).map(|p| p % i)).collect();
        RandomForest { parents }
    })
}

fn build(rf: &RandomForest) -> CategoryForest {
    let mut b = ForestBuilder::new();
    let mut ids: Vec<CategoryId> = Vec::new();
    for (i, parent) in rf.parents.iter().enumerate() {
        let name = format!("cat{i}");
        let id = match parent {
            None => b.add_root(&name),
            Some(p) => b.add_child(ids[*p], &name),
        };
        ids.push(id);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn similarity_contract_definition_3_3(rf in arb_forest()) {
        let f = build(&rf);
        for sim in [&WuPalmer as &dyn Similarity, &PathLength] {
            for a in f.categories() {
                for b in f.categories() {
                    let s = sim.sim(&f, a, b);
                    // Range and symmetry.
                    prop_assert!((0.0..=1.0).contains(&s));
                    prop_assert_eq!(s, sim.sim(&f, b, a));
                    if f.same_tree(a, b) {
                        // Semantic match ⇒ sim > 0; perfect ⇔ identical.
                        prop_assert!(s > 0.0);
                        prop_assert_eq!(s == 1.0, a == b, "{:?} {:?} -> {}", a, b, s);
                    } else {
                        prop_assert_eq!(s, 0.0);
                    }
                }
            }
        }
    }

    #[test]
    fn lca_is_deepest_common_ancestor(rf in arb_forest()) {
        let f = build(&rf);
        for a in f.categories() {
            for b in f.categories() {
                match f.lca(a, b) {
                    None => prop_assert!(!f.same_tree(a, b)),
                    Some(m) => {
                        prop_assert!(f.is_ancestor_or_self(m, a));
                        prop_assert!(f.is_ancestor_or_self(m, b));
                        // No deeper common ancestor exists.
                        let common: Vec<CategoryId> = f
                            .ancestors(a)
                            .filter(|&x| f.is_ancestor_or_self(x, b))
                            .collect();
                        let deepest = common.iter().map(|&c| f.depth(c)).max().unwrap();
                        prop_assert_eq!(f.depth(m), deepest);
                    }
                }
            }
        }
    }

    #[test]
    fn ancestors_are_consistent_with_depth(rf in arb_forest()) {
        let f = build(&rf);
        for c in f.categories() {
            let chain: Vec<CategoryId> = f.ancestors(c).collect();
            prop_assert_eq!(chain.len() as u32, f.depth(c));
            // Depths decrease by one along the chain and end at a root.
            for (i, &x) in chain.iter().enumerate() {
                prop_assert_eq!(f.depth(x) as usize, chain.len() - i);
            }
            prop_assert!(f.roots().contains(chain.last().unwrap()));
        }
    }

    #[test]
    fn descendants_partition_by_children(rf in arb_forest()) {
        let f = build(&rf);
        for c in f.categories() {
            let mut via_children: usize = 1;
            for &ch in f.children(c) {
                via_children += f.descendants_or_self(ch).len();
            }
            prop_assert_eq!(f.descendants_or_self(c).len(), via_children);
        }
    }

    #[test]
    fn similarity_table_agrees_with_direct(rf in arb_forest()) {
        let f = build(&rf);
        let q = CategoryId(0);
        let table = SimilarityTable::build(&f, &WuPalmer, q);
        for c in f.categories() {
            prop_assert_eq!(table.sim(c), WuPalmer.sim(&f, q, c));
        }
        if let Some(sigma) = table.best_non_perfect() {
            prop_assert!(sigma < 1.0 && sigma > 0.0);
        }
    }
}
