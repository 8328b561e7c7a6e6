//! Serving-pipeline observability: per-request trace spans, per-rung
//! latency histograms, and exporters.
//!
//! # Layers
//!
//! Three layers, cheapest first:
//!
//! 1. **Histograms** ([`histogram`]) — always on. Every response lands in
//!    log-bucketed atomic histograms (one per serving [`Rung`], which is
//!    the response's outcome record, plus queue-wait and engine time), a
//!    handful of relaxed `fetch_add`s per request. Snapshots ride inside
//!    [`MetricsSnapshot`](crate::MetricsSnapshot) and are mergeable across
//!    workers.
//! 2. **Trace spans** ([`trace`]) — sampled. Each request's full story
//!    (queue wait, plan time, rung probes and outcomes, engine profile,
//!    repair tier, delta-index epochs) becomes a [`TraceSpan`] offered to a
//!    sharded bounded [`TraceBuffer`] that keeps every `1/N`-th span plus
//!    the slowest ones. `sample_every = 1` retains everything — the mode
//!    `replay --trace-out` uses to check the trace-completeness invariant.
//! 3. **Exporters** ([`export`]) — pull-based. JSON-lines span dumps
//!    (`--trace-out`) and Prometheus-style text exposition
//!    (`--metrics-out`).
//!
//! Latency is recorded three ways: total (in the rung's histogram),
//! queue wait (submission → dequeue) and engine time (search or repair
//! only), so queueing delay reads apart from execution cost. The
//! end-to-end histogram is the rung histograms merged, not a separate
//! record. What keeping every span costs is counted, not timed, by
//! `crates/service/tests/trace_cost.rs`.

pub mod export;
pub mod histogram;
pub mod trace;

pub use histogram::{Histogram, HistogramSnapshot};
pub use trace::{TraceBuffer, TraceSpan};

use crate::metrics::Served;

/// The serving rung that answered a request — the telemetry-facing
/// flattening of [`Served`] (every enum payload folded away) used to key
/// per-rung histograms and trace spans.
///
/// The three `Warm*` rungs are never served: the warm starts they counted
/// are retired, since NNinit gives every search a finite threshold. They
/// stay in [`Rung::ALL`], at 0, because the benchmark's work record walks
/// the eight rungs in this order, labels included; they leave with the
/// benchmark's next change.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rung {
    /// Answered from the result cache at the pinned epoch.
    ExactHit,
    /// Answered by joining another request's in-flight computation.
    Coalesced,
    /// Answered by repairing a cached skyline across epochs (any tier,
    /// including the re-search fallback).
    Repaired,
    /// Retired: a search warm-started by a cached prefix skyline.
    WarmPrefix,
    /// Retired: a search warm-started by an ancestor-category variant's
    /// skyline.
    WarmAncestor,
    /// Retired: a search warm-started by a cached suffix skyline.
    WarmSuffix,
    /// A search.
    Cold,
    /// A search whose deadline expired mid-engine: the response is the
    /// mutually non-dominated partial skyline proven so far, flagged
    /// approximate (degraded mode), plus any requests coalesced onto that
    /// truncated flight.
    Approximate,
}

impl Rung {
    /// Every rung, ladder order.
    pub const ALL: [Rung; 8] = [
        Rung::ExactHit,
        Rung::Coalesced,
        Rung::Repaired,
        Rung::WarmPrefix,
        Rung::WarmAncestor,
        Rung::WarmSuffix,
        Rung::Cold,
        Rung::Approximate,
    ];

    /// The rung that produced a [`Served`] outcome.
    pub fn of(served: Served) -> Rung {
        match served {
            Served::CacheHit => Rung::ExactHit,
            Served::Coalesced => Rung::Coalesced,
            Served::Repaired { .. } => Rung::Repaired,
            Served::Search => Rung::Cold,
            Served::Approximate => Rung::Approximate,
        }
    }

    /// Stable lowercase name (JSON fields, Prometheus labels, report
    /// tables).
    pub fn label(self) -> &'static str {
        match self {
            Rung::ExactHit => "exact_hit",
            Rung::Coalesced => "coalesced",
            Rung::Repaired => "repaired",
            Rung::WarmPrefix => "warm_prefix",
            Rung::WarmAncestor => "warm_ancestor",
            Rung::WarmSuffix => "warm_suffix",
            Rung::Cold => "cold",
            Rung::Approximate => "approximate",
        }
    }

    /// Dense index into per-rung arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One rung's latency summary inside a
/// [`MetricsSnapshot`](crate::MetricsSnapshot).
#[derive(Clone, Debug, PartialEq)]
pub struct RungSummary {
    /// Which rung.
    pub rung: Rung,
    /// End-to-end latency histogram of the responses it served.
    pub hist: HistogramSnapshot,
}

/// Trace-retention policy of a [`QueryService`](crate::QueryService).
///
/// Histograms are unconditional (they are metrics, not traces, and cost a
/// few atomic adds); this config governs only span retention.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Whether spans are retained at all. Off ⇒ `offer` is a branch and a
    /// return.
    pub tracing: bool,
    /// Keep every `N`-th span per shard (1 = keep all).
    pub sample_every: u64,
    /// Total sampled-span capacity across all shards. Under sampling the
    /// buffer also keeps the [`SLOWEST_SPANS`](trace::SLOWEST_SPANS)
    /// slowest spans.
    pub capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig { tracing: true, sample_every: 64, capacity: 2_048 }
    }
}

impl TelemetryConfig {
    /// Retain every span, up to `capacity` — the mode `--trace-out` uses so
    /// the completeness invariant can be checked over *all* responses.
    pub fn trace_all(capacity: usize) -> TelemetryConfig {
        TelemetryConfig { tracing: true, sample_every: 1, capacity: capacity.max(1) }
    }

    /// No span retention (histograms still record).
    pub fn disabled() -> TelemetryConfig {
        TelemetryConfig { tracing: false, ..TelemetryConfig::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rung_covers_every_served_variant() {
        assert_eq!(Rung::of(Served::CacheHit), Rung::ExactHit);
        assert_eq!(Rung::of(Served::Coalesced), Rung::Coalesced);
        assert_eq!(
            Rung::of(Served::Repaired { fallback: true, routes_untouched: 0, routes_rescored: 1 }),
            Rung::Repaired
        );
        assert_eq!(Rung::of(Served::Search), Rung::Cold);
        assert_eq!(Rung::of(Served::Approximate), Rung::Approximate);
        // Labels are unique and the dense index matches ladder order.
        let labels: std::collections::BTreeSet<&str> =
            Rung::ALL.iter().map(|r| r.label()).collect();
        assert_eq!(labels.len(), Rung::ALL.len());
        for (i, r) in Rung::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }

    #[test]
    fn config_constructors() {
        assert!(TelemetryConfig::default().tracing);
        let full = TelemetryConfig::trace_all(10);
        assert_eq!(full.sample_every, 1);
        assert_eq!(full.capacity, 10);
        assert!(!TelemetryConfig::disabled().tracing);
    }
}
