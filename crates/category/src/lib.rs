//! Semantic hierarchy substrate for the SkySR workspace.
//!
//! The paper (§1, §3) models PoI categories as a *forest* of rooted trees —
//! a "category tree" per top-level domain, as in the Foursquare taxonomy
//! (Figure 2). Category similarity (Definition 3.3, Eq. 6) is computed over
//! this forest with the Wu–Palmer measure, and per-route semantic scores
//! (Eq. 7) aggregate the per-position similarities with a product.
//!
//! Modules:
//! * [`tree`] — the forest itself ([`CategoryForest`], [`ForestBuilder`]),
//!   ancestors, LCA, leaves;
//! * [`similarity`] — [`Similarity`] implementations: [`WuPalmer`] (Eq. 6)
//!   and [`PathLength`];
//! * [`foursquare`] — the built-in 10-tree Foursquare-style taxonomy used
//!   by the Tokyo/NYC presets;
//! * [`synth`] — generated forests (the Cal dataset's height-3/branching-3
//!   substitution, paper footnote 5);
//! * [`requirement`] — complex category requirements (§6): conjunction,
//!   disjunction, negation.

pub mod foursquare;
pub mod requirement;
pub mod similarity;
pub mod synth;
pub mod tree;

pub use requirement::Requirement;
pub use similarity::{PathLength, Similarity, WuPalmer};
pub use tree::{CategoryForest, CategoryId, ForestBuilder};
