//! Exporters: JSON-lines span dumps and Prometheus-style text exposition.

use crate::metrics::{Counter, MetricsSnapshot};
use crate::telemetry::histogram::HistogramSnapshot;
use crate::telemetry::trace::TraceSpan;

/// Renders spans as JSON lines (one object per line, trailing newline) —
/// the `--trace-out FILE` format.
pub fn spans_to_json_lines(spans: &[TraceSpan]) -> String {
    let mut out = String::with_capacity(spans.len() * 256);
    for span in spans {
        out.push_str(&span.to_json_line());
        out.push('\n');
    }
    out
}

/// Renders one or more labelled [`MetricsSnapshot`]s as Prometheus text
/// exposition (text format 0.0.4): counters as `skysr_*_total`, gauges
/// bare, histograms as cumulative `_bucket{le=…}` series with `_sum` and
/// `_count`. Each entry's labels (e.g. `workload="duplicate"`) are
/// attached to every series it contributes, so a multi-run bench exports
/// as one self-consistent page.
///
/// Every recorded [`Counter`] exports through one loop over
/// [`Counter::ALL`]; the rung-derived counts and the cache and epoch
/// gauges follow.
pub fn prometheus(entries: &[(&[(&str, &str)], &MetricsSnapshot)]) -> String {
    type CounterFn = fn(&MetricsSnapshot) -> u64;
    type HistFn = fn(&MetricsSnapshot) -> &HistogramSnapshot;
    let mut out = String::with_capacity(4096);
    let mut series = |name: &str, help: &str, get: &dyn Fn(&MetricsSnapshot) -> u64| {
        let kind = if name.ends_with("_total") { "counter" } else { "gauge" };
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        for (labels, snap) in entries {
            out.push_str(&format!("{name}{} {}\n", label_set(labels, &[]), get(snap)));
        }
    };
    for c in Counter::ALL {
        let (name, help) = c.series();
        series(name, help, &|m| m.counter(c));
    }
    let derived: [(&str, &str, CounterFn); 9] = [
        ("skysr_completed_total", "Queries answered successfully", |m| m.completed),
        ("skysr_executed_total", "Queries that ran a BSSR search or repair", |m| m.executed),
        ("skysr_coalesced_total", "Queries answered by joining an in-flight search", |m| {
            m.coalesced
        }),
        ("skysr_repairs_total", "Cached skylines promoted in place by repair", |m| m.repairs),
        ("skysr_approximate_served_total", "Partial skylines served past a deadline", |m| {
            m.approximate_served
        }),
        ("skysr_cache_hits_total", "Queries answered from the result cache", |m| m.cache_hits),
        ("skysr_cache_evictions_total", "Result-cache evictions", |m| m.cache.evictions),
        ("skysr_cache_invalidations_total", "Entries dropped by epoch invalidation", |m| {
            m.cache.invalidations
        }),
        ("skysr_epochs_retained", "Weight-epoch overlays currently retained", |m| {
            m.epochs.retained as u64
        }),
    ];
    for (name, help, get) in derived {
        series(name, help, &get);
    }

    let hists: [(&str, &str, HistFn); 3] = [
        ("skysr_latency_seconds", "End-to-end latency (queueing included)", |m| &m.latency_hist),
        ("skysr_queue_wait_seconds", "Submission-to-dequeue wait", |m| &m.queue_wait_hist),
        ("skysr_engine_seconds", "Engine execution time (search / repair)", |m| &m.engine_hist),
    ];
    for (name, help, get) in hists {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
        for (labels, snap) in entries {
            histogram_series(&mut out, name, labels, get(snap));
        }
    }

    out.push_str(
        "# HELP skysr_rung_latency_seconds End-to-end latency by serving rung\n\
         # TYPE skysr_rung_latency_seconds histogram\n",
    );
    for (labels, snap) in entries {
        for rung in &snap.rungs {
            if rung.hist.is_empty() {
                continue;
            }
            histogram_series_with(
                &mut out,
                "skysr_rung_latency_seconds",
                labels,
                &[("rung", rung.rung.label())],
                &rung.hist,
            );
        }
    }
    out
}

/// `{a="x",b="y"}` (or the empty string when no labels), with `extra`
/// appended.
fn label_set(labels: &[(&str, &str)], extra: &[(&str, &str)]) -> String {
    let mut pairs: Vec<String> =
        labels.iter().chain(extra.iter()).map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    if pairs.is_empty() {
        return String::new();
    }
    pairs.sort();
    format!("{{{}}}", pairs.join(","))
}

/// Emits one histogram's `_bucket`/`_sum`/`_count` series.
fn histogram_series(out: &mut String, name: &str, labels: &[(&str, &str)], h: &HistogramSnapshot) {
    histogram_series_with(out, name, labels, &[], h);
}

fn histogram_series_with(
    out: &mut String,
    name: &str,
    labels: &[(&str, &str)],
    extra: &[(&str, &str)],
    h: &HistogramSnapshot,
) {
    for (upper_ns, cum) in h.cumulative() {
        let le = format!("{:.9}", upper_ns as f64 / 1e9);
        let mut with_le: Vec<(&str, &str)> = extra.to_vec();
        with_le.push(("le", le.as_str()));
        out.push_str(&format!("{name}_bucket{} {cum}\n", label_set(labels, &with_le)));
    }
    let mut inf: Vec<(&str, &str)> = extra.to_vec();
    inf.push(("le", "+Inf"));
    out.push_str(&format!("{name}_bucket{} {}\n", label_set(labels, &inf), h.count()));
    out.push_str(&format!(
        "{name}_sum{} {:.9}\n",
        label_set(labels, extra),
        h.sum_ns() as f64 / 1e9
    ));
    out.push_str(&format!("{name}_count{} {}\n", label_set(labels, extra), h.count()));
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::metrics::{LatencyBreakdown, MetricsRecorder, Served};

    #[test]
    fn every_series_the_operations_guide_names_is_exported() {
        let guide = include_str!("../../../../docs/OPERATIONS.md");
        let section = guide.split("## Counter taxonomy").nth(1).expect("a counter taxonomy");
        let section = section.split("\n## ").next().unwrap_or(section);
        let rec = MetricsRecorder::default();
        rec.record(LatencyBreakdown::default(), 1, Served::CacheHit);
        let snap = rec.snapshot(Duration::from_secs(1), Default::default(), Default::default());
        let page = prometheus(&[(&[("shard", "0")], &snap)]);
        let exported = |name: &str| {
            page.contains(&format!("# TYPE {name} "))
                || page.lines().any(|l| l.split(['{', ' ']).next() == Some(name))
        };
        let mut named = 0;
        for line in section.lines() {
            let words = line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'));
            for name in words.filter(|w| w.starts_with("skysr_")) {
                named += 1;
                // A series the guide lists as removed must stay gone.
                let removed = line.contains("removed");
                assert_eq!(exported(name), !removed, "{name} (removed: {removed})\n{page}");
            }
        }
        assert!(named >= 15, "the guide names only {named} series");
    }
}
