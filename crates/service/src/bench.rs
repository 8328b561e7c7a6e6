//! Bench-smoke harness: measures the reuse layer against PR 1's
//! exact-match-cache baseline on reuse-friendly workloads and serializes
//! the evidence as a JSON metrics artifact (`BENCH_pr.json` in CI).
//!
//! Nine workload cells, each a baseline and a treatment run (eighteen
//! rows). All but the shard cell replay over the *same* shared context and
//! query pools:
//!
//! * **duplicate** ([`StreamPattern::DuplicateBursts`]) — baseline
//!   (coalescing off) vs. reuse (coalescing on);
//! * **prefix** ([`StreamPattern::PrefixChains`]) — baseline (warm starts
//!   off) vs. reuse (warm starts on);
//! * **dynamic** — the duplicate-burst stream with weight-update bursts
//!   published mid-stream ([`BenchSpec::update_rate`]); measures what the
//!   reuse layer is worth when epochs keep invalidating cached skylines,
//!   and certifies (via the epoch-aware verifier and the stale-serve
//!   counter) that invalidation never leaks a stale answer while updates
//!   race the replay;
//! * **hierarchy** — a single wavefront pass over category-subtree
//!   chains (suffix → ancestor variant → full query; see
//!   [`StreamPattern::Hierarchy`]) in which **every request is a distinct
//!   query**, so the baseline cold-searches all of them while the
//!   treatment warm-starts two of every three from the previously cached
//!   chain entry. Both modes run the full PR 2-4 reuse stack; only the
//!   new *ancestor* and *suffix* seed sources are toggled, so the ratio
//!   (`speedup_hierarchy`, CI-gated via `--require-hierarchy-speedup`)
//!   isolates exactly what this PR added;
//! * **repair** — epoch churn again, but both modes run the full reuse
//!   layer and only *incremental skyline repair* is toggled: baseline =
//!   PR 3's invalidate-and-recompute, treatment = repair cached skylines
//!   against the exact epoch delta and promote them in place. Unlike the
//!   burst cells, this one replays deterministic *update waves*
//!   ([`ReplaySpec::update_every`]): a weight-delta burst publishes after
//!   every chunk of requests drains, so every cached key crosses a fixed
//!   number of epochs in both modes — a closed-loop burst would coalesce
//!   away before the first update lands, and an open-loop stream lets a
//!   *slow* baseline dodge its own invalidation penalty by clumping
//!   requests inside one epoch. The throughput ratio (`speedup_repair`)
//!   is the CI-gated evidence that repair beats recompute under epoch
//!   churn.
//! * **telemetry** — the duplicate-burst stream with the full reuse layer
//!   in both modes; only span retention is toggled (off vs. a retained
//!   [`TraceSpan`](crate::telemetry::TraceSpan) for *every* request). The
//!   best-of-five-trials throughput ratio (`telemetry_overhead_ratio`,
//!   CI-gated via `--require-telemetry-ratio`) is the evidence that full
//!   tracing costs at most a few percent.
//! * **net** — the duplicate-burst stream again, full reuse layer in both
//!   modes; only the *transport* is toggled: in-process submission vs. a
//!   loopback `skysr-d` socket (frame encode/decode, TCP, the client
//!   demux). Both modes' throughput is measured client-side as
//!   requests/wall over the replay window (the daemon serves all socket
//!   trials, so its own lifetime snapshot would understate per-run
//!   throughput). The best-of-three ratio (`net_ratio`, CI-gated via
//!   `--require-net-ratio`) bounds the transport tax.
//! * **overload** — the update-churned Zipf stream, full reuse + repair in
//!   both modes; only the *load* is toggled: an uncontended open loop at
//!   half measured capacity vs. an open loop at **2× measured capacity**
//!   with a per-request deadline (the uncontended run's p99 latency)
//!   and admission control. The deadline-aware scheduler must keep cheap
//!   rungs fast while the expensive ones shed or degrade: the cell
//!   reports the hit-rung p99 ratio (overloaded over uncontended,
//!   floored at the deadline budget; CI-gated via
//!   `--require-overload-ratio`), the shed count (must be nonzero — at
//!   2× capacity the backlog wait grows past any fixed budget) and the
//!   approximate-served count. The overloaded run keeps `verify`
//!   on, which also proves every degraded answer is a *valid* partial
//!   (mutually non-dominated, never better than the exact skyline).
//! * **shards** — the scale-out cell: four regions
//!   served behind one [`Router`](crate::Router) (each shard its own
//!   graph, worker pool and result cache) vs. a *monolith* serving the
//!   union — one service on a four times larger graph whose working set
//!   is the union of every region's, on the **same fixed per-process
//!   budget** (identical cache capacity and total worker count). Both
//!   sides replay the same total number of requests; uniform popularity
//!   keeps the working set the whole pool, so each shard's region pool
//!   *fits* its cache while the monolith's union pool thrashes its LRU —
//!   and every monolith miss re-searches a four times larger graph. The
//!   aggregate-throughput ratio (`speedup_shards`, CI-gated via
//!   `--require-shard-speedup`) is the evidence that shard-per-region
//!   placement beats scale-up under a fixed per-process budget. The
//!   sharded side runs with `verify` on, per shard — the router path
//!   must stay oracle-exact.
//!
//! Reuse runs execute with `verify` enabled, so the artifact also
//! certifies that every concurrent answer was score-equivalent to a
//! sequential cold run *at its pinned weight epoch*. JSON is hand-rolled
//! (the workspace builds offline, without serde); the format is flat and
//! stable for CI trend tooling.
//!
//! # Served-outcome taxonomy
//!
//! The per-run counters are views of the service's rung histograms;
//! `docs/OPERATIONS.md` ("Counter taxonomy") defines each of them.
//! `reuse_rate` is `(cache_hits + coalesced_hits) / completed`.

use std::sync::Arc;
use std::time::Duration;

use skysr_core::bssr::Bssr;
use skysr_data::dataset::{Dataset, DatasetSpec, Preset};

use crate::context::ServiceContext;
use crate::net::{RemoteService, Server, ServerConfig};
use crate::replay::{
    build_pool, replay, replay_on, replay_remote, replay_sharded, ReplayReport, ReplaySpec,
    ShardedReplayReport, StreamPattern, HIERARCHY_CHAIN,
};
use crate::service::{QueryService, Service, ServiceConfig};
use crate::telemetry::{Rung, TelemetryConfig};

/// Update-wave cadence of the repair cell: one weight-delta burst
/// publishes after every this-many requests drain, so both modes pay a
/// deterministic number of epoch crossings per cached key.
const REPAIR_UPDATE_EVERY: usize = 16;

/// Regions in the shard-scaling cell (its monolith baseline serves a graph
/// scaled by this factor).
const SHARDS: usize = 4;

/// Per-region dataset scale of the shard-scaling cell (the cell generates
/// its own datasets — `SHARDS` small cities plus one `SHARDS ×` larger
/// one — independent of the bench's main dataset).
const SHARD_SCALE: f64 = 0.05;

/// Parameters of one bench-smoke run.
#[derive(Clone, Debug)]
pub struct BenchSpec {
    /// Requests per replay.
    pub total: usize,
    /// Distinct generated queries per workload.
    pub distinct: usize,
    /// Category-sequence length.
    pub seq_len: usize,
    /// Worker threads (0 = one per CPU).
    pub workers: usize,
    /// Burst size of the duplicate workload.
    pub burst: usize,
    /// Weight-update bursts per second in the *dynamic* and *repair*
    /// workload cells.
    pub update_rate: f64,
    /// Edge reweightings per update burst in the dynamic/repair cells.
    pub update_burst: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BenchSpec {
    fn default() -> BenchSpec {
        BenchSpec {
            total: 144,
            distinct: 8,
            seq_len: 3,
            workers: 8,
            burst: 24,
            update_rate: 200.0,
            update_burst: 16,
            seed: 7,
        }
    }
}

/// One measured replay inside the bench.
#[derive(Clone, Debug)]
pub struct BenchRun {
    /// Workload name (`duplicate` / `prefix` / `dynamic`).
    pub workload: &'static str,
    /// Mode name (`exact-match` baseline / `reuse`).
    pub mode: &'static str,
    /// The underlying replay report.
    pub report: ReplayReport,
}

/// The full bench outcome.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// All eighteen runs.
    pub runs: Vec<BenchRun>,
    /// Reuse-over-baseline throughput ratio on the duplicate workload.
    pub speedup_duplicate: f64,
    /// Reuse-over-baseline throughput ratio on the prefix workload.
    pub speedup_prefix: f64,
    /// Reuse-over-baseline throughput ratio on the dynamic (update-heavy)
    /// workload.
    pub speedup_dynamic: f64,
    /// Ancestor+suffix-seeding-over-cold throughput ratio on the
    /// hierarchy workload (full reuse stack in both modes; only the two
    /// new seed sources toggled).
    pub speedup_hierarchy: f64,
    /// Repair-over-invalidate-and-recompute throughput ratio on the
    /// update-heavy duplicate workload (both modes run the full reuse
    /// layer; only incremental repair is toggled).
    pub speedup_repair: f64,
    /// Traced-over-untraced throughput ratio on the telemetry workload
    /// (full span retention vs. none; ≥ 0.95 means tracing costs at most
    /// 5% of throughput).
    pub telemetry_overhead_ratio: f64,
    /// Socket-over-in-process throughput ratio on the net workload (the
    /// loopback `skysr-d` transport tax; measured client-side as
    /// requests/wall in both modes).
    pub net_ratio: f64,
    /// Hit-rung p99 latency on the 2×-capacity overload run over its
    /// uncontended value *floored at the request deadline* (the latency
    /// budget — an idle service answers hits in microseconds, so the raw
    /// quotient would measure the idle floor, not the scheduler). The
    /// deadline-aware scheduler's headline number: surviving hits must
    /// stay within a small multiple of the budget while the service
    /// sheds and degrades around them (CI-gated via
    /// `--require-overload-ratio`).
    pub overload_hit_p99_ratio: f64,
    /// Requests shed in the overloaded run (admission rejections plus
    /// deadlines expired in queue). Zero means the cell failed to
    /// overload the service.
    pub overload_shed: u64,
    /// Responses served as valid approximate partials in the overloaded
    /// run (deadline expired mid-engine).
    pub overload_approximate: u64,
    /// Aggregate-throughput ratio of the shard-scaling cell:
    /// [`BenchReport::shard_count`] shards behind one router, each with
    /// its own context, worker pool and result cache, over a monolith
    /// serving the union of the regions (a `shards ×` larger graph, the
    /// union working set) on the *same* fixed per-process budget (same
    /// cache capacity, same total worker count). Scale-out wins on both
    /// axes the cell compounds: each shard searches a `shards ×` smaller
    /// graph, and each shard's region working set *fits* its cache while
    /// the monolith's union working set thrashes its LRU. CI-gated via
    /// `--require-shard-speedup`.
    pub speedup_shards: f64,
    /// Regions driven in the shard-scaling cell.
    pub shard_count: usize,
}

impl BenchReport {
    /// The smallest of the reuse-layer speedups. Informational: the hard
    /// CI gates (`--require-speedup`, `--require-repair-speedup`)
    /// threshold the duplicate and repair workloads; the dynamic cell's
    /// ratio depends on how many epochs happened to publish inside the
    /// short window. The shard-scaling ratio is deliberately *not*
    /// folded in — it measures data placement, not the reuse layer, and
    /// has its own gate (`--require-shard-speedup`).
    pub fn min_speedup(&self) -> f64 {
        self.speedup_duplicate
            .min(self.speedup_prefix)
            .min(self.speedup_dynamic)
            .min(self.speedup_hierarchy)
            .min(self.speedup_repair)
    }

    /// Total verification mismatches across the verified (reuse) runs.
    pub fn verify_mismatches(&self) -> usize {
        self.runs.iter().filter_map(|r| r.report.verify_mismatches).sum()
    }

    /// Total stale serves across all runs — the staleness gate, must be 0.
    pub fn stale_served(&self) -> u64 {
        self.runs.iter().map(|r| r.report.stale_served()).sum()
    }

    /// Serializes the report as a flat JSON document (one nested `rungs`
    /// object per run: count and p50/p99 for every rung that served).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"runs\": [\n");
        for (i, run) in self.runs.iter().enumerate() {
            let m = &run.report.metrics;
            let c = &m.cache;
            let reuse_rate = if m.completed > 0 {
                (m.cache_hits + m.coalesced) as f64 / m.completed as f64
            } else {
                0.0
            };
            let rungs: Vec<String> = m
                .rungs
                .iter()
                .filter(|rs| !rs.hist.is_empty())
                .map(|rs| {
                    format!(
                        "\"{}\": {{\"count\": {}, \"p50_ms\": {:.6}, \"p99_ms\": {:.6}}}",
                        rs.rung.label(),
                        rs.hist.count(),
                        rs.hist.quantile(0.50).as_secs_f64() * 1e3,
                        rs.hist.quantile(0.99).as_secs_f64() * 1e3,
                    )
                })
                .collect();
            out.push_str(&format!(
                "    {{\"workload\": \"{}\", \"mode\": \"{}\", \"requests\": {}, \
                 \"workers\": {}, \"wall_s\": {:.6}, \"throughput_qps\": {:.3}, \
                 \"latency_p50_ms\": {:.6}, \"latency_p99_ms\": {:.6}, \
                 \"queue_wait_p50_ms\": {:.6}, \"queue_wait_p99_ms\": {:.6}, \
                 \"executed\": {}, \"coalesced_hits\": {}, \"prefix_seeded\": {}, \
                 \"seeded_ancestor\": {}, \"seeded_suffix\": {}, \
                 \"cache_hits\": {}, \"cache_hit_rate\": {:.6}, \
                 \"reuse_rate\": {:.6}, \
                 \"cache_insertions\": {}, \"cache_evictions\": {}, \
                 \"cache_invalidations\": {}, \"epochs_published\": {}, \
                 \"repairs\": {}, \"repair_fallbacks\": {}, \"routes_rescored\": {}, \
                 \"stale_served\": {}, \"verify_mismatches\": {}, \
                 \"rejected\": {}, \"shed_deadline\": {}, \"approximate_served\": {}, \
                 \"rungs\": {{{}}}}}{}\n",
                run.workload,
                run.mode,
                m.completed,
                run.report.workers.map(|w| w.to_string()).unwrap_or_else(|| "null".to_owned()),
                run.report.wall.as_secs_f64(),
                m.throughput_qps,
                m.latency_p50.as_secs_f64() * 1e3,
                m.latency_p99.as_secs_f64() * 1e3,
                m.queue_wait_hist.quantile(0.50).as_secs_f64() * 1e3,
                m.queue_wait_hist.quantile(0.99).as_secs_f64() * 1e3,
                m.executed,
                m.coalesced,
                m.seeded_prefix,
                m.seeded_ancestor,
                m.seeded_suffix,
                m.cache_hits,
                m.cache_hit_rate,
                reuse_rate,
                c.insertions,
                c.evictions,
                c.invalidations,
                run.report.epochs_published,
                m.repairs,
                m.repair_fallbacks,
                m.routes_rescored,
                m.stale_served,
                run.report
                    .verify_mismatches
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "null".to_owned()),
                m.rejected,
                m.shed_deadline,
                m.approximate_served,
                rungs.join(", "),
                if i + 1 == self.runs.len() { "" } else { "," }
            ));
        }
        out.push_str(&format!(
            "  ],\n  \"speedup_duplicate\": {:.4},\n  \"speedup_prefix\": {:.4},\n  \
             \"speedup_dynamic\": {:.4},\n  \"speedup_hierarchy\": {:.4},\n  \
             \"speedup_repair\": {:.4},\n  \"telemetry_overhead_ratio\": {:.4},\n  \
             \"net_ratio\": {:.4},\n  \
             \"overload_hit_p99_ratio\": {:.4},\n  \"overload_shed\": {},\n  \
             \"overload_approximate\": {},\n  \
             \"speedup_shards\": {:.4},\n  \"shard_count\": {},\n  \
             \"min_speedup\": {:.4},\n  \"verify_mismatches\": {},\n  \
             \"stale_served\": {}\n}}\n",
            self.speedup_duplicate,
            self.speedup_prefix,
            self.speedup_dynamic,
            self.speedup_hierarchy,
            self.speedup_repair,
            self.telemetry_overhead_ratio,
            self.net_ratio,
            self.overload_hit_p99_ratio,
            self.overload_shed,
            self.overload_approximate,
            self.speedup_shards,
            self.shard_count,
            self.min_speedup(),
            self.verify_mismatches(),
            self.stale_served()
        ));
        out
    }
}

impl std::fmt::Display for BenchReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for run in &self.runs {
            let m = &run.report.metrics;
            writeln!(
                f,
                "{:<9} {:<11} {:>9.1} q/s  p50 {:>7.3} ms  p99 {:>7.3} ms  {} searched, \
                 {} coalesced, {} warm, {:.0}% hit, {} invalidated",
                run.workload,
                run.mode,
                m.throughput_qps,
                m.latency_p50.as_secs_f64() * 1e3,
                m.latency_p99.as_secs_f64() * 1e3,
                m.executed,
                m.coalesced,
                m.seeded_prefix + m.seeded_ancestor + m.seeded_suffix,
                m.cache_hit_rate * 100.0,
                m.cache.invalidations
            )?;
        }
        write!(
            f,
            "speedup     duplicate {:.2}x, prefix {:.2}x, dynamic {:.2}x (reuse vs. exact-match \
             baseline), hierarchy {:.2}x (ancestor+suffix seeding vs. cold), repair {:.2}x \
             (repair vs. invalidate-and-recompute); {} stale serves",
            self.speedup_duplicate,
            self.speedup_prefix,
            self.speedup_dynamic,
            self.speedup_hierarchy,
            self.speedup_repair,
            self.stale_served()
        )?;
        write!(
            f,
            "\ntelemetry   {:.3} traced-vs-off throughput ratio (a span retained per request)",
            self.telemetry_overhead_ratio
        )?;
        write!(
            f,
            "\nnet         {:.3} socket-vs-in-process throughput ratio (loopback skysr-d)",
            self.net_ratio
        )?;
        write!(
            f,
            "\noverload    {:.2}x hit-rung p99 at 2x capacity ({} shed, {} approximate)",
            self.overload_hit_p99_ratio, self.overload_shed, self.overload_approximate
        )?;
        write!(
            f,
            "\nshards      {:.2}x aggregate throughput on {} shards vs. one monolith (same \
             per-process cache budget and worker count)",
            self.speedup_shards, self.shard_count
        )
    }
}

/// Builds a [`ReplaySpec`] for one (workload, mode) cell. `update_rate`
/// is nonzero only for the dynamic workload.
fn cell_spec(
    bench: &BenchSpec,
    pattern: StreamPattern,
    reuse: bool,
    update_rate: f64,
) -> ReplaySpec {
    ReplaySpec {
        total: bench.total,
        distinct: bench.distinct,
        seq_len: bench.seq_len,
        pattern,
        burst: bench.burst,
        seed: bench.seed,
        // The baseline is PR 1's exact-match LRU: caching stays ON in both
        // modes; only the new reuse mechanisms are toggled.
        service: ServiceConfig {
            workers: bench.workers,
            coalesce: reuse,
            prefix_reuse: reuse,
            ancestor_reuse: reuse,
            suffix_reuse: reuse,
            ..ServiceConfig::default()
        },
        update_rate,
        update_burst: bench.update_burst,
        // Reuse runs carry the correctness gate.
        verify: reuse,
        ..ReplaySpec::default()
    }
}

/// The hierarchy cell: full PR 2-4 reuse stack in both modes (cache,
/// coalescing, prefix — which never fires on this pool, chains share no
/// prefix), only the new ancestor/suffix seed sources toggled. A single
/// wavefront pass (`total == pool len`) keeps every request distinct, so
/// the toggle decides cold search vs. warm-seeded search for two of every
/// three requests.
fn hierarchy_cell_spec(bench: &BenchSpec, reuse: bool) -> ReplaySpec {
    let distinct = bench.distinct * 4;
    let base = cell_spec(bench, StreamPattern::Hierarchy, true, 0.0);
    ReplaySpec {
        distinct,
        total: distinct * HIERARCHY_CHAIN,
        service: ServiceConfig { ancestor_reuse: reuse, suffix_reuse: reuse, ..base.service },
        // The treatment carries the correctness gate (ancestor/suffix
        // seeds must be oracle-exact).
        verify: reuse,
        ..base
    }
}

/// The repair cell: full reuse layer in both modes, only incremental
/// repair toggled, deterministic update waves in both (see the module
/// docs for why neither a closed-loop burst nor an open-loop stream can
/// measure this fairly).
fn repair_cell_spec(bench: &BenchSpec, repair: bool) -> ReplaySpec {
    let base = cell_spec(bench, StreamPattern::Zipf, true, 0.0);
    ReplaySpec {
        service: ServiceConfig { repair, ..base.service },
        update_every: REPAIR_UPDATE_EVERY,
        // Three times the burst-cell volume: the signal is *accumulated*
        // epoch crossings per cached key, so a longer stream drives the
        // measured ratio far above the CI gate's 1.5x and out of
        // scheduling noise.
        total: bench.total * 3,
        // The treatment carries the correctness gate (repair must be
        // oracle-exact at every pinned epoch). The baseline is PR 3's
        // already-verified invalidate path — re-proving it here would
        // only slow the bench down.
        verify: repair,
        ..base
    }
}

/// The overload cell: the full reuse + repair stack over a churned Zipf
/// stream with a *wide* pool, so the bulk of the load lands on the search
/// rungs instead of the cache (a hit-saturated stream warms past its
/// cold-calibrated capacity and 2× of that never actually overloads the
/// service), while the Zipf head still repeats often enough that the
/// hit rung has samples under overload — the ratio needs both sides.
/// Only the load is toggled: `overload: 0.5` paces an open loop at half
/// measured capacity (uncontended — latencies are genuine service times,
/// not flood-queue waits), `overload: 2.0` paces at twice capacity with
/// a deadline and admission control.
fn overload_cell_spec(bench: &BenchSpec, overload: f64, deadline: Option<Duration>) -> ReplaySpec {
    let distinct = bench.distinct * 16;
    let base = cell_spec(bench, StreamPattern::Zipf, true, bench.update_rate / 4.0);
    ReplaySpec {
        distinct,
        total: distinct * 2,
        zipf_exponent: 1.0,
        service: ServiceConfig { repair: true, admission: deadline.is_some(), ..base.service },
        deadline,
        overload,
        // Both modes carry the correctness gate; in the overloaded mode it
        // additionally proves every degraded partial is consistent with
        // the exact skyline.
        verify: true,
        ..base
    }
}

/// Runs the eighteen-cell bench over `dataset`.
///
/// Both modes of a workload replay the *identical* request stream over one
/// shared context, so the throughput ratio isolates the reuse layer. (In
/// the dynamic cells the update *schedule* is identically seeded, though
/// epoch boundaries still land timing-dependently within each window.)
/// Two kinds of untimed warmup run first, because the measured cells are
/// short (tens of milliseconds of useful work) and fixed startup taxes
/// would otherwise dominate whichever cell runs first:
///
/// * one cold sequential search per pool query, faulting the touched graph
///   regions into memory;
/// * two throwaway replays that spawn and drop full worker pools — each
///   pool's per-worker Dijkstra workspaces are tens of megabytes on large
///   cities, and the first service lifecycles in a process pay their page
///   faults (the allocator reuses the arena afterwards, so later services
///   start warm).
pub fn bench(dataset: Dataset, spec: &BenchSpec) -> BenchReport {
    let dup_pool =
        build_pool(&dataset, &cell_spec(spec, StreamPattern::DuplicateBursts, false, 0.0));
    let pre_pool = build_pool(&dataset, &cell_spec(spec, StreamPattern::PrefixChains, false, 0.0));
    let hier_pool = build_pool(&dataset, &hierarchy_cell_spec(spec, false));
    let over_pool = build_pool(&dataset, &overload_cell_spec(spec, 0.0, None));
    let ctx = Arc::new(ServiceContext::from_dataset(dataset));

    {
        let qctx = ctx.query_context();
        let mut engine = Bssr::new(&qctx);
        for q in dup_pool.iter().chain(&pre_pool).chain(&hier_pool).chain(&over_pool) {
            let _ = engine.run(q);
        }
    }
    for _ in 0..2 {
        let warm = ReplaySpec {
            total: (spec.burst * 2).max(8),
            verify: false,
            ..cell_spec(spec, StreamPattern::DuplicateBursts, true, 0.0)
        };
        replay_on(Arc::clone(&ctx), &dup_pool, &warm);
    }

    let mut runs = Vec::with_capacity(18);
    let mut speedups = Vec::with_capacity(3);
    for (workload, pattern, pool, update_rate) in [
        ("duplicate", StreamPattern::DuplicateBursts, &dup_pool, 0.0),
        ("prefix", StreamPattern::PrefixChains, &pre_pool, 0.0),
        ("dynamic", StreamPattern::DuplicateBursts, &dup_pool, spec.update_rate),
    ] {
        let base = replay_on(Arc::clone(&ctx), pool, &cell_spec(spec, pattern, false, update_rate));
        let reuse = replay_on(Arc::clone(&ctx), pool, &cell_spec(spec, pattern, true, update_rate));
        let ratio = if base.metrics.throughput_qps > 0.0 {
            reuse.metrics.throughput_qps / base.metrics.throughput_qps
        } else {
            0.0
        };
        speedups.push(ratio);
        runs.push(BenchRun { workload, mode: "exact-match", report: base });
        runs.push(BenchRun { workload, mode: "reuse", report: reuse });
    }

    // Hierarchy cell: ancestor+suffix seeding vs. cold searches over the
    // same single-pass subtree-walk stream.
    let base = replay_on(Arc::clone(&ctx), &hier_pool, &hierarchy_cell_spec(spec, false));
    let treat = replay_on(Arc::clone(&ctx), &hier_pool, &hierarchy_cell_spec(spec, true));
    let speedup_hierarchy = if base.metrics.throughput_qps > 0.0 {
        treat.metrics.throughput_qps / base.metrics.throughput_qps
    } else {
        0.0
    };
    runs.push(BenchRun { workload: "hierarchy", mode: "cold", report: base });
    runs.push(BenchRun { workload: "hierarchy", mode: "seeded", report: treat });

    // Repair cell: invalidate-and-recompute vs. repair-in-place, under
    // the same update schedule.
    let base = replay_on(Arc::clone(&ctx), &dup_pool, &repair_cell_spec(spec, false));
    let treat = replay_on(Arc::clone(&ctx), &dup_pool, &repair_cell_spec(spec, true));
    let speedup_repair = if base.metrics.throughput_qps > 0.0 {
        treat.metrics.throughput_qps / base.metrics.throughput_qps
    } else {
        0.0
    };
    runs.push(BenchRun { workload: "repair", mode: "invalidate", report: base });
    runs.push(BenchRun { workload: "repair", mode: "repair", report: treat });

    // Telemetry-overhead cell: the identical duplicate-burst stream with
    // the full reuse layer in both modes; only span retention is toggled
    // (off vs. a retained span per request). Eight times the burst-cell
    // volume plus best-of-five interleaved trials per mode pull the
    // ratio out of scheduling noise — each trial is milliseconds of wall
    // clock and the OS can only ever steal time, so the fastest trial is
    // the cleanest estimate of each mode's cost. Correctness is not
    // re-verified here (the duplicate cell above already did), but full
    // tracing's own completeness audit still runs in the traced mode.
    let telemetry_cell = |telemetry| {
        let base = cell_spec(spec, StreamPattern::DuplicateBursts, true, 0.0);
        ReplaySpec {
            total: spec.total * 8,
            verify: false,
            service: ServiceConfig { telemetry, ..base.service },
            ..base
        }
    };
    let mut base: Option<ReplayReport> = None;
    let mut treat: Option<ReplayReport> = None;
    for _ in 0..5 {
        let off = telemetry_cell(TelemetryConfig::disabled());
        let b = replay_on(Arc::clone(&ctx), &dup_pool, &off);
        if base.as_ref().is_none_or(|old| b.metrics.throughput_qps > old.metrics.throughput_qps) {
            base = Some(b);
        }
        let traced = telemetry_cell(TelemetryConfig::trace_all(spec.total * 8));
        let t = replay_on(Arc::clone(&ctx), &dup_pool, &traced);
        if treat.as_ref().is_none_or(|old| t.metrics.throughput_qps > old.metrics.throughput_qps) {
            treat = Some(t);
        }
    }
    let (base, treat) = (base.expect("five trials ran"), treat.expect("five trials ran"));
    let telemetry_overhead_ratio = if base.metrics.throughput_qps > 0.0 {
        treat.metrics.throughput_qps / base.metrics.throughput_qps
    } else {
        0.0
    };
    runs.push(BenchRun { workload: "telemetry", mode: "off", report: base });
    runs.push(BenchRun { workload: "telemetry", mode: "traced", report: treat });

    // Transport-overhead cell: the identical duplicate-burst stream with
    // the full reuse layer in both modes; only the transport is toggled.
    // Each socket trial spawns a fresh loopback daemon over the *same*
    // shared context the in-process trials use (so cache state stays
    // comparable and the per-trial metrics snapshot covers exactly one
    // replay), drives it through `RemoteService`, and shuts it down. The
    // context doubles as the remote replay's shadow: this cell publishes
    // no weight updates, so fingerprints match by construction. Ratios
    // use driver-side requests/wall — see the module docs.
    let base = cell_spec(spec, StreamPattern::DuplicateBursts, true, 0.0);
    let net_spec = ReplaySpec {
        total: spec.total * 4,
        verify: false,
        service: ServiceConfig { telemetry: TelemetryConfig::disabled(), ..base.service },
        ..base
    };
    let wall_qps = |r: &ReplayReport| r.total as f64 / r.wall.as_secs_f64().max(1e-9);
    let mut base: Option<ReplayReport> = None;
    let mut treat: Option<ReplayReport> = None;
    for _ in 0..3 {
        let b = replay_on(Arc::clone(&ctx), &dup_pool, &net_spec);
        if base.as_ref().is_none_or(|old| wall_qps(&b) > wall_qps(old)) {
            base = Some(b);
        }
        let daemon = Arc::new(Service::new(Arc::clone(&ctx), net_spec.service.clone()));
        let mut server = Server::spawn("127.0.0.1:0", daemon, ServerConfig::default())
            .expect("bind a loopback listener");
        let remote =
            RemoteService::connect(server.local_addr()).expect("connect to the loopback daemon");
        let t = replay_remote(&remote, Arc::clone(&ctx), &dup_pool, &net_spec)
            .expect("the loopback daemon serves the same dataset by construction");
        let _ = remote.shutdown();
        server.join();
        if treat.as_ref().is_none_or(|old| wall_qps(&t) > wall_qps(old)) {
            treat = Some(t);
        }
    }
    let (base, treat) = (base.expect("three trials ran"), treat.expect("three trials ran"));
    let net_ratio = if wall_qps(&base) > 0.0 { wall_qps(&treat) / wall_qps(&base) } else { 0.0 };
    runs.push(BenchRun { workload: "net", mode: "in-process", report: base });
    runs.push(BenchRun { workload: "net", mode: "socket", report: treat });

    // Overload cell: the identical churned stream, only the load toggled
    // (see `overload_cell_spec`). The overloaded mode's deadline is the
    // uncontended run's *p99* latency: comfortably above the engine's
    // work granularity (a deadline below one indivisible engine step
    // would truncate every search at its first check and starve the hit
    // rung of the samples the ratio needs), yet fixed — at 2× capacity
    // the backlog wait grows linearly past any fixed budget, so the
    // arrivals after the first deadline's worth of stream provably shed.
    // The scheduler must shed or degrade that tail while hits overtake
    // it — the hit-rung p99 ratio is the headline number.
    let base = replay_on(Arc::clone(&ctx), &over_pool, &overload_cell_spec(spec, 0.5, None));
    let deadline = base.metrics.latency_p99.max(Duration::from_millis(1));
    let treat =
        replay_on(Arc::clone(&ctx), &over_pool, &overload_cell_spec(spec, 2.0, Some(deadline)));
    let hit_p99 = |r: &ReplayReport| {
        r.metrics
            .rungs
            .iter()
            .find(|rs| rs.rung == Rung::ExactHit)
            .map_or(Duration::ZERO, |rs| rs.hist.quantile(0.99))
    };
    // The denominator is the uncontended hit p99 floored at the deadline:
    // an idle 0.5× run answers hits in tens of microseconds, so dividing
    // by it raw would measure the idle floor, not the scheduler. Surviving
    // hits under overload are budget-bounded by construction (expired ones
    // shed at dequeue), so a working scheduler scores ~1× here and one
    // that lets hits queue behind the backlog blows through the gate.
    let (hit_base, hit_treat) = (hit_p99(&base).max(deadline), hit_p99(&treat));
    let overload_hit_p99_ratio = if hit_treat > Duration::ZERO {
        hit_treat.as_secs_f64() / hit_base.as_secs_f64()
    } else {
        0.0
    };
    let overload_shed = treat.shed();
    let overload_approximate = treat.approximate_served();
    runs.push(BenchRun { workload: "overload", mode: "uncontended", report: base });
    runs.push(BenchRun { workload: "overload", mode: "2x-overload", report: treat });

    // Shard-scaling cell. Self-contained datasets (the main dataset was
    // consumed above, and the comparison needs a graph family at two
    // scales): `SHARDS` small cities vs. one `SHARDS ×` larger one, all
    // deterministically seeded. Uniform popularity (zipf 0) makes the
    // working set the whole pool; the cache capacity sits between one
    // region's pool and the union pool, so shards fit and the monolith
    // thrashes. Several passes let fitting caches actually pay off.
    // Workers split evenly so both sides field the same total.
    let shard_distinct = spec.distinct * 4;
    let shard_passes = 10;
    let shard_workers = (spec.workers / SHARDS).max(1);
    let base = cell_spec(spec, StreamPattern::Zipf, true, 0.0);
    let lane_spec = ReplaySpec {
        total: shard_distinct * shard_passes,
        distinct: shard_distinct,
        zipf_exponent: 0.0,
        service: ServiceConfig {
            cache_capacity: shard_distinct * 5 / 4,
            workers: shard_workers,
            ..base.service
        },
        verify: true,
        ..base
    };
    let mono_spec = ReplaySpec {
        total: SHARDS * shard_distinct * shard_passes,
        distinct: SHARDS * shard_distinct,
        service: ServiceConfig { workers: shard_workers * SHARDS, ..lane_spec.service.clone() },
        verify: false,
        ..lane_spec.clone()
    };
    let city = |scale: f64, seed: u64| {
        DatasetSpec::preset(Preset::CalSmall).scale(scale).seed(seed).generate()
    };
    let mut base: Option<ReplayReport> = None;
    let mut treat: Option<ShardedReplayReport> = None;
    for _ in 0..2 {
        let b = replay(city(SHARD_SCALE * SHARDS as f64, spec.seed + 99), &mono_spec);
        if base.as_ref().is_none_or(|old| b.metrics.throughput_qps > old.metrics.throughput_qps) {
            base = Some(b);
        }
        let regions: Vec<(String, Dataset)> = (0..SHARDS)
            .map(|i| (format!("region-{i}"), city(SHARD_SCALE, spec.seed + 100 + i as u64)))
            .collect();
        let t = replay_sharded(regions, &lane_spec);
        assert_eq!(t.misrouted, 0, "a replay stamps every request with its own region");
        if treat.as_ref().is_none_or(|old| {
            t.merged_metrics().throughput_qps > old.merged_metrics().throughput_qps
        }) {
            treat = Some(t);
        }
    }
    let (base, treat) = (base.expect("two trials ran"), treat.expect("two trials ran"));
    let merged = treat.merged_metrics();
    let speedup_shards = if base.metrics.throughput_qps > 0.0 {
        merged.throughput_qps / base.metrics.throughput_qps
    } else {
        0.0
    };
    // Fold the fleet into one run row so the artifact's shared gates
    // (verify_mismatches, stale_served) cover the sharded side too.
    let sharded = ReplayReport {
        total: treat.total(),
        distinct: treat.shards.iter().map(|s| s.report.distinct).sum(),
        pattern: StreamPattern::Zipf,
        workers: Some(treat.shards.iter().filter_map(|s| s.report.workers).sum()),
        qps: 0.0,
        wall: treat.wall,
        epochs_published: treat.shards.iter().map(|s| s.report.epochs_published).sum(),
        epoch_gc: merged.epochs,
        metrics: merged,
        verify_mismatches: Some(
            treat.shards.iter().filter_map(|s| s.report.verify_mismatches).sum(),
        ),
        spans: Vec::new(),
        trace_violations: None,
        overload: 0.0,
        met_deadline: None,
    };
    runs.push(BenchRun { workload: "shards", mode: "monolith", report: base });
    runs.push(BenchRun { workload: "shards", mode: "sharded", report: sharded });

    BenchReport {
        runs,
        speedup_duplicate: speedups[0],
        speedup_prefix: speedups[1],
        speedup_dynamic: speedups[2],
        speedup_hierarchy,
        speedup_repair,
        telemetry_overhead_ratio,
        net_ratio,
        overload_hit_p99_ratio,
        overload_shed,
        overload_approximate,
        speedup_shards,
        shard_count: SHARDS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skysr_data::dataset::{DatasetSpec, Preset};

    #[test]
    fn bench_measures_reuse_and_serializes_json() {
        let dataset = DatasetSpec::preset(Preset::CalSmall).scale(0.05).seed(9).generate();
        let spec = BenchSpec {
            total: 160,
            distinct: 8,
            seq_len: 2,
            workers: 4,
            burst: 8,
            update_rate: 400.0,
            update_burst: 8,
            ..BenchSpec::default()
        };
        let report = bench(dataset, &spec);
        assert_eq!(report.runs.len(), 18);
        // The correctness gate ran on the reuse runs and passed — including
        // the dynamic cell, whose oracle is epoch-aware.
        assert_eq!(report.verify_mismatches(), 0);
        // The staleness gate: nothing was ever served cross-epoch.
        assert_eq!(report.stale_served(), 0);
        for run in &report.runs {
            let expect: u64 = match run.workload {
                "repair" => 480,
                "hierarchy" => 8 * 4 * 3, // distinct×4 chains, 3 entries each, one pass
                "telemetry" => 1_280,     // 8x the burst-cell volume
                "net" => 640,             // 4x the burst-cell volume
                "overload" => 8 * 16 * 2, // distinct×16 pool, two draws per entry
                "shards" => 8 * 4 * 4 * 10, // shards × per-shard distinct × passes
                _ => 160,
            };
            let m = &run.report.metrics;
            if run.workload == "overload" {
                // The overloaded mode sheds instead of completing part of
                // the stream; the accounting must still tile exactly.
                assert_eq!(
                    m.completed + m.rejected + m.shed_deadline,
                    expect,
                    "{}/{}: every request completes or sheds",
                    run.workload,
                    run.mode
                );
                if run.mode == "uncontended" {
                    assert_eq!(m.completed, expect, "no deadline, nothing to shed");
                    assert_eq!(m.rejected + m.shed_deadline + m.approximate_served, 0);
                } else {
                    assert!(
                        run.report.met_deadline.is_some(),
                        "the overloaded mode reports its met-deadline split"
                    );
                }
            } else {
                assert_eq!(m.completed, expect, "{}/{}", run.workload, run.mode);
            }
            // Coalesced / warm-start *counts* in reuse mode are
            // scheduling-dependent on a fast fixture; the deterministic
            // guarantees live in tests/coalescing.rs. Here only the mode
            // wiring and the correctness gate are asserted.
            if run.mode == "exact-match" {
                assert_eq!(m.coalesced, 0);
                assert_eq!(m.seeded_prefix + m.seeded_ancestor + m.seeded_suffix, 0);
            }
            if run.mode == "cold" {
                assert_eq!(
                    m.seeded_ancestor + m.seeded_suffix,
                    0,
                    "the hierarchy baseline runs without the new seed sources"
                );
            }
            if !matches!(run.workload, "dynamic" | "repair" | "overload") {
                assert_eq!(run.report.epochs_published, 0, "static cells stay static");
            }
            if run.mode == "invalidate" {
                assert_eq!(m.repairs, 0, "repair off in the baseline mode");
                assert_eq!(m.repair_fallbacks, 0);
            }
            if run.workload == "hierarchy" && run.mode == "seeded" {
                assert!(
                    m.seeded_ancestor > 0 && m.seeded_suffix > 0,
                    "the hierarchy treatment must exercise both new seed sources: {m:?}"
                );
            }
            if run.workload == "telemetry" {
                match run.mode {
                    "off" => assert!(run.report.spans.is_empty(), "untraced mode kept spans"),
                    "traced" => {
                        assert_eq!(run.report.spans.len(), 1_280, "full tracing keeps every span");
                        assert_eq!(
                            run.report.trace_violations,
                            Some(0),
                            "the trace-completeness invariant must hold in the traced cell"
                        );
                    }
                    other => panic!("unexpected telemetry mode {other}"),
                }
            }
        }
        assert!(
            report.telemetry_overhead_ratio > 0.0,
            "the telemetry cell must measure a ratio: {}",
            report.telemetry_overhead_ratio
        );
        assert!(report.net_ratio > 0.0, "the net cell must measure a ratio: {}", report.net_ratio);
        assert!(
            report.overload_hit_p99_ratio > 0.0,
            "the overload cell must measure a hit-rung ratio: {}",
            report.overload_hit_p99_ratio
        );
        assert_eq!(report.shard_count, 4);
        assert!(
            report.speedup_shards > 0.0,
            "the shard cell must measure a ratio: {}",
            report.speedup_shards
        );
        let json = report.to_json();
        // Well-formed enough for jq/python: balanced braces, the headline
        // keys present, no trailing comma before the array close.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"speedup_duplicate\""));
        assert!(json.contains("\"speedup_dynamic\""));
        assert!(json.contains("\"speedup_hierarchy\""));
        assert!(json.contains("\"seeded_ancestor\""));
        assert!(json.contains("\"seeded_suffix\""));
        assert!(json.contains("\"speedup_repair\""));
        assert!(json.contains("\"repairs\""));
        assert!(json.contains("\"workload\": \"repair\""));
        assert!(json.contains("\"min_speedup\""));
        assert!(json.contains("\"stale_served\": 0"));
        assert!(json.contains("\"workload\": \"prefix\""));
        assert!(json.contains("\"workload\": \"dynamic\""));
        assert!(json.contains("\"workload\": \"hierarchy\""));
        assert!(json.contains("\"workload\": \"telemetry\""));
        assert!(json.contains("\"telemetry_overhead_ratio\""));
        assert!(json.contains("\"workload\": \"net\""));
        assert!(json.contains("\"mode\": \"socket\""));
        assert!(json.contains("\"net_ratio\""));
        assert!(json.contains("\"workload\": \"overload\""));
        assert!(json.contains("\"mode\": \"2x-overload\""));
        assert!(json.contains("\"overload_hit_p99_ratio\""));
        assert!(json.contains("\"overload_shed\""));
        assert!(json.contains("\"overload_approximate\""));
        assert!(json.contains("\"workload\": \"shards\""));
        assert!(json.contains("\"mode\": \"sharded\""));
        assert!(json.contains("\"speedup_shards\""));
        assert!(json.contains("\"shard_count\": 4"));
        assert!(json.contains("\"rejected\""));
        assert!(json.contains("\"shed_deadline\""));
        assert!(json.contains("\"approximate_served\""));
        assert!(json.contains("\"coalesced_hits\""));
        assert!(json.contains("\"reuse_rate\""));
        assert!(json.contains("\"queue_wait_p50_ms\""));
        assert!(json.contains("\"rungs\": {"));
        assert!(json.contains("\"p99_ms\""));
        assert!(!json.contains(",\n  ]"));
        let text = report.to_string();
        assert!(text.contains("speedup"), "{text}");
        assert!(text.contains("dynamic"), "{text}");
        assert!(text.contains("hierarchy"), "{text}");
        assert!(text.contains("repair"), "{text}");
        assert!(text.contains("telemetry"), "{text}");
        assert!(text.contains("socket-vs-in-process"), "{text}");
        assert!(text.contains("hit-rung p99 at 2x capacity"), "{text}");
        assert!(text.contains("aggregate throughput on 4 shards"), "{text}");
    }
}
