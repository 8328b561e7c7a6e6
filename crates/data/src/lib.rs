//! Synthetic dataset and workload generators for the SkySR experiments.
//!
//! The paper evaluates on OpenStreetMap road networks (Tokyo, New York
//! City) with Foursquare PoIs, and on the public California dataset
//! (Table 5). Those exact inputs are not redistributable, so this crate
//! builds *structure-preserving* synthetic equivalents:
//!
//! * [`netgen`] — city-like road networks: a jittered grid with a
//!   guaranteed spanning backbone, tunable edge density (|E|/|V|) and
//!   shortcut edges, geographic coordinates and haversine weights;
//! * [`spatial`] — a uniform-grid spatial index over edges, used to embed
//!   each PoI "on the closest edge" exactly as the paper does (following
//!   its reference \[10\]);
//! * [`zipf`] — the skewed category popularity ("the number of PoI
//!   vertices associated with each category is significantly biased");
//! * [`dataset`] — the Tokyo / NYC / Cal presets, scalable from
//!   laptop-sized defaults up to the paper's full sizes;
//! * [`workload`] — query generation per §7.1: random start vertices,
//!   popular leaf categories drawn from distinct category trees;
//! * [`codec`] — a checksummed binary snapshot of a generated dataset,
//!   loaded in one read.

pub mod codec;
pub mod dataset;
pub mod netgen;
pub mod spatial;
pub mod workload;
pub mod zipf;

pub use dataset::{Dataset, DatasetSpec, Preset};
pub use workload::{Workload, WorkloadSpec};
