//! Shared plumbing of the `skysr-cli` and `skysr-d` binaries: argument
//! parsing, dataset selection and the daemon serve loop.
//!
//! The two binaries are thin shells over this library — `skysr-d` is
//! exactly `skysr-cli serve` under its own name, so deployments that want
//! only the daemon need not carry the query/replay tooling in their entry
//! point.

pub mod args;
pub mod city;
pub mod serve;
