//! Dataset presets and generation (Table 5 equivalents).
//!
//! Each preset fixes the structural parameters that drive the algorithms'
//! behaviour: vertex count, PoI count, edge density, category forest shape,
//! PoI spatial skew and category popularity skew. Full-scale presets match
//! Table 5's sizes; the `*Small` presets are laptop-sized scale-downs with
//! identical ratios (and are what the bundled experiments use by default —
//! absolute numbers shrink, relative behaviour is preserved).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use skysr_category::{
    foursquare::foursquare_forest, synth::uniform_forest, CategoryForest, CategoryId,
};
use skysr_core::{PoiTable, QueryContext};
use skysr_graph::{GeoPoint, RoadNetwork, VertexId};

use crate::netgen::{generate_network, NetGenSpec};
use crate::spatial::EdgeIndex;
use crate::zipf::Zipf;

/// The category forest a dataset uses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ForestKind {
    /// The built-in 10-tree Foursquare-style taxonomy (Tokyo, NYC).
    Foursquare,
    /// Generated uniform forest (Cal; paper footnote 5).
    Uniform {
        /// Number of trees.
        trees: usize,
        /// Tree height (root = level 1).
        height: u32,
        /// Children per non-leaf node.
        branching: usize,
    },
}

/// Named dataset presets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preset {
    /// Table 5 Tokyo at full scale (401 893 vertices).
    Tokyo,
    /// Table 5 New York City at full scale (1 150 744 vertices).
    Nyc,
    /// Table 5 California at full scale (21 048 vertices, dense PoIs).
    Cal,
    /// Tokyo scaled to ~5% (default experiment size).
    TokyoSmall,
    /// NYC scaled to ~3% (default experiment size).
    NycSmall,
    /// California scaled to ~25% (default experiment size).
    CalSmall,
}

/// Full parameter set for dataset generation.
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetSpec {
    /// Display name (used in experiment tables).
    pub name: String,
    /// Road-network intersections (the paper's |V|).
    pub vertices: usize,
    /// PoIs to embed (the paper's |P|).
    pub pois: usize,
    /// Road edges per vertex before PoI embedding.
    pub edge_factor: f64,
    /// Category forest.
    pub forest: ForestKind,
    /// Number of PoI clusters (0 = fully uniform placement).
    pub poi_clusters: usize,
    /// Fraction of PoIs drawn from clusters rather than uniformly.
    pub cluster_fraction: f64,
    /// Zipf exponent for category popularity.
    pub zipf_exponent: f64,
    /// Geographic centre.
    pub center: GeoPoint,
    /// Extent in degrees.
    pub extent_deg: f64,
    /// RNG seed.
    pub seed: u64,
}

impl DatasetSpec {
    /// Spec for a named preset.
    pub fn preset(p: Preset) -> DatasetSpec {
        let tokyo = GeoPoint::new(35.68, 139.77);
        let nyc = GeoPoint::new(40.73, -73.98);
        let cal = GeoPoint::new(36.5, -119.5);
        match p {
            Preset::Tokyo => DatasetSpec {
                name: "Tokyo".into(),
                vertices: 401_893,
                pois: 174_421,
                edge_factor: 1.24,
                forest: ForestKind::Foursquare,
                poi_clusters: 0,
                cluster_fraction: 0.0,
                zipf_exponent: 1.0,
                center: tokyo,
                extent_deg: 0.5,
                seed: 42,
            },
            Preset::Nyc => DatasetSpec {
                name: "NYC".into(),
                vertices: 1_150_744,
                pois: 451_051,
                edge_factor: 1.50,
                forest: ForestKind::Foursquare,
                poi_clusters: 8,
                cluster_fraction: 0.7,
                zipf_exponent: 1.0,
                center: nyc,
                extent_deg: 0.6,
                seed: 43,
            },
            Preset::Cal => DatasetSpec {
                name: "Cal".into(),
                vertices: 21_048,
                pois: 87_365,
                edge_factor: 1.03,
                forest: ForestKind::Uniform { trees: 7, height: 3, branching: 3 },
                poi_clusters: 12,
                cluster_fraction: 0.8,
                zipf_exponent: 1.0,
                center: cal,
                extent_deg: 8.0,
                seed: 44,
            },
            Preset::TokyoSmall => DatasetSpec {
                name: "Tokyo-small".into(),
                vertices: 20_000,
                pois: 8_700,
                ..DatasetSpec::preset(Preset::Tokyo)
            },
            Preset::NycSmall => DatasetSpec {
                name: "NYC-small".into(),
                vertices: 34_500,
                pois: 13_500,
                ..DatasetSpec::preset(Preset::Nyc)
            },
            Preset::CalSmall => DatasetSpec {
                name: "Cal-small".into(),
                vertices: 5_300,
                pois: 21_800,
                ..DatasetSpec::preset(Preset::Cal)
            },
        }
    }

    /// Scales |V| and |P| by `factor` (at least 16 vertices and 4 PoIs).
    pub fn scale(mut self, factor: f64) -> DatasetSpec {
        assert!(factor > 0.0);
        self.vertices = ((self.vertices as f64 * factor) as usize).max(16);
        self.pois = ((self.pois as f64 * factor) as usize).max(4);
        self
    }

    /// Overrides the RNG seed.
    pub fn seed(mut self, seed: u64) -> DatasetSpec {
        self.seed = seed;
        self
    }

    /// Generates the dataset.
    pub fn generate(&self) -> Dataset {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5eed);
        let forest = match self.forest {
            ForestKind::Foursquare => foursquare_forest(),
            ForestKind::Uniform { trees, height, branching } => {
                uniform_forest(trees, height, branching)
            }
        };

        let (mut builder, _, _) = generate_network(&NetGenSpec {
            target_vertices: self.vertices,
            edge_factor: self.edge_factor,
            center: self.center,
            extent_deg: self.extent_deg,
            seed: self.seed,
        });

        // PoI positions: a mixture of uniform noise and Gaussian clusters.
        let centers: Vec<GeoPoint> = (0..self.poi_clusters)
            .map(|_| {
                GeoPoint::new(
                    self.center.lat + (rng.random::<f64>() - 0.5) * self.extent_deg * 0.8,
                    self.center.lon + (rng.random::<f64>() - 0.5) * self.extent_deg * 0.8,
                )
            })
            .collect();
        let sigma = self.extent_deg / 25.0;
        let mut points = Vec::with_capacity(self.pois);
        for _ in 0..self.pois {
            let p = if !centers.is_empty() && rng.random::<f64>() < self.cluster_fraction {
                let c = centers[rng.random_range(0..centers.len())];
                GeoPoint::new(
                    c.lat + gaussian(&mut rng) * sigma,
                    c.lon + gaussian(&mut rng) * sigma,
                )
            } else {
                GeoPoint::new(
                    self.center.lat + (rng.random::<f64>() - 0.5) * self.extent_deg,
                    self.center.lon + (rng.random::<f64>() - 0.5) * self.extent_deg,
                )
            };
            points.push(p);
        }

        // Embed each PoI on its closest edge (paper §7.1 / [10]): project
        // all points first, then split each original edge at its sorted
        // projection parameters.
        let index = EdgeIndex::build(&builder, (self.vertices as f64).sqrt() as usize / 2 + 4);
        let mut by_edge: Vec<(usize, f64)> = points
            .iter()
            .filter_map(|&p| index.closest_edge(&builder, p).map(|(e, proj)| (e, proj.t)))
            .collect();
        by_edge.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));

        let mut poi_vertices = Vec::with_capacity(by_edge.len());
        let mut i = 0;
        while i < by_edge.len() {
            let edge = by_edge[i].0;
            let mut j = i;
            while j < by_edge.len() && by_edge[j].0 == edge {
                j += 1;
            }
            // Split this edge left to right; `remaining` tracks the live
            // sub-edge covering parameter range [consumed, 1].
            let mut remaining = edge;
            let mut consumed = 0.0f64;
            for &(_, t) in &by_edge[i..j] {
                let span = 1.0 - consumed;
                let rel = if span <= f64::EPSILON {
                    0.0
                } else {
                    ((t - consumed) / span).clamp(0.0, 1.0)
                };
                let mid = builder.split_edge(remaining, rel);
                poi_vertices.push(mid);
                // split_edge keeps [0, rel] under the old index and appends
                // the [rel, 1] part as the newest edge.
                remaining = builder.num_edges() - 1;
                consumed = t.max(consumed);
            }
            i = j;
        }

        // Categories: Zipf-ranked leaves (rank order shuffled per seed).
        let mut leaves: Vec<CategoryId> = forest.leaves().collect();
        leaves.shuffle(&mut rng);
        let zipf = Zipf::new(leaves.len(), self.zipf_exponent);
        let graph = builder.build();
        let mut pois = PoiTable::new(graph.num_vertices());
        for &v in &poi_vertices {
            pois.add_poi(v, leaves[zipf.sample(&mut rng)]);
        }
        pois.finalize(&forest);

        Dataset {
            name: self.name.clone(),
            graph,
            forest,
            pois,
            poi_vertices,
            spec: Some(self.clone()),
        }
    }
}

/// Box–Muller standard normal.
fn gaussian<R: RngExt>(rng: &mut R) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A generated (or loaded) dataset.
pub struct Dataset {
    /// Display name.
    pub name: String,
    /// The road network including embedded PoI vertices.
    pub graph: RoadNetwork,
    /// Category forest.
    pub forest: CategoryForest,
    /// PoI associations (finalised).
    pub pois: PoiTable,
    /// The PoI vertex ids.
    pub poi_vertices: Vec<VertexId>,
    /// Generation parameters (absent for datasets loaded from disk).
    pub spec: Option<DatasetSpec>,
}

impl Dataset {
    /// Borrowed query context over this dataset.
    pub fn context(&self) -> QueryContext<'_> {
        QueryContext::new(&self.graph, &self.forest, &self.pois)
    }

    /// Deterministic synthetic PoI ratings for the §9 multi-attribute
    /// variant: unimodal quality scores in `[0, 1]`, seeded.
    pub fn ratings(&self, seed: u64) -> skysr_core::variants::rated::RatingTable {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7a7e);
        let mut table =
            skysr_core::variants::rated::RatingTable::new(self.graph.num_vertices(), 0.5);
        for &p in &self.poi_vertices {
            // Mean of two uniforms: unimodal around 0.5 like real review
            // score distributions.
            let r = (rng.random::<f64>() + rng.random::<f64>()) / 2.0;
            table.set(p, r);
        }
        table
    }

    /// Number of category trees with at least one PoI on a leaf — the
    /// ceiling on a workload's sequence length, since §7.1 draws each
    /// position from a distinct tree (see [`crate::workload::WorkloadSpec`]).
    pub fn populated_trees(&self) -> usize {
        let trees: std::collections::HashSet<u32> = self
            .pois
            .category_histogram()
            .into_iter()
            .filter(|&(c, n)| n > 0 && self.forest.is_leaf(c))
            .map(|(c, _)| self.forest.tree_of(c))
            .collect();
        trees.len()
    }

    /// Table 5-style statistics: (|V| road vertices, |P| PoIs, |E| edges).
    pub fn stats(&self) -> (usize, usize, usize) {
        let p = self.pois.num_pois();
        (self.graph.num_vertices() - p, p, self.graph.num_edges())
    }
}

impl std::fmt::Debug for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (v, p, e) = self.stats();
        write!(f, "Dataset({} |V|={v} |P|={p} |E|={e})", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skysr_graph::connectivity::is_connected;

    fn tiny() -> Dataset {
        DatasetSpec::preset(Preset::CalSmall).scale(0.1).seed(9).generate()
    }

    #[test]
    fn generated_dataset_is_connected_with_pois() {
        let d = tiny();
        assert!(is_connected(&d.graph));
        let (v, p, e) = d.stats();
        assert!(p > 0 && v > 0 && e > 0);
        assert_eq!(p, d.poi_vertices.len());
    }

    #[test]
    fn poi_counts_match_spec() {
        let d = tiny();
        let spec = d.spec.as_ref().unwrap();
        // All points project onto some edge, so counts match exactly.
        assert_eq!(d.pois.num_pois(), spec.pois);
    }

    #[test]
    fn every_poi_has_a_category_and_splits_an_edge() {
        let d = tiny();
        for &v in &d.poi_vertices {
            assert!(!d.pois.categories_of(v).is_empty());
            // Embedded PoIs have degree ≥ 2 (they split an edge).
            assert!(d.graph.degree(v) >= 2, "PoI {v:?} degree {}", d.graph.degree(v));
        }
    }

    #[test]
    fn category_popularity_is_skewed() {
        let d = DatasetSpec::preset(Preset::CalSmall).scale(0.3).seed(5).generate();
        let mut counts: Vec<usize> =
            d.pois.category_histogram().into_iter().map(|(_, c)| c).filter(|&c| c > 0).collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        assert!(counts[0] > counts[counts.len() - 1] * 3, "not skewed: {counts:?}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = DatasetSpec::preset(Preset::CalSmall).scale(0.05).seed(3).generate();
        let b = DatasetSpec::preset(Preset::CalSmall).scale(0.05).seed(3).generate();
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.poi_vertices, b.poi_vertices);
    }

    #[test]
    fn populated_trees_counts_only_trees_with_pois() {
        let d = tiny();
        let n = d.populated_trees();
        assert!(n >= 2, "workloads need at least two populated trees, got {n}");
        assert!(n <= d.forest.num_trees());
        // Consistency with the workload generator's own constraint: a
        // sequence of exactly `n` positions must be generatable.
        let w = crate::workload::WorkloadSpec::new(n).queries(1).generate(&d);
        assert_eq!(w.queries[0].len(), n);
    }

    #[test]
    fn presets_have_table5_ratios() {
        // Structural ratios of the small presets track Table 5.
        let tokyo = DatasetSpec::preset(Preset::TokyoSmall);
        assert!((tokyo.pois as f64 / tokyo.vertices as f64 - 0.43).abs() < 0.02);
        let cal = DatasetSpec::preset(Preset::CalSmall);
        assert!(cal.pois > cal.vertices * 4, "Cal is PoI-dense");
    }

    #[test]
    fn queries_run_on_generated_dataset() {
        let d = tiny();
        let ctx = d.context();
        // Pick a popular leaf category and run a 2-position query.
        let mut hist = d.pois.category_histogram();
        hist.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        let c0 = hist[0].0;
        let c1 = hist
            .iter()
            .find(|(c, n)| *n > 0 && d.forest.tree_of(*c) != d.forest.tree_of(c0))
            .map(|(c, _)| *c)
            .expect("two populated trees");
        let q = skysr_core::SkySrQuery::new(VertexId(0), [c0, c1]);
        let result = skysr_core::bssr::Bssr::new(&ctx).run(&q).unwrap();
        assert!(!result.routes.is_empty());
        assert!(result.routes.iter().any(|r| r.semantic == 0.0));
    }
}
