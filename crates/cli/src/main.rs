//! `skysr-cli` — a command-line SkySR query service.
//!
//! The paper's §8 prototype let users pick a start point and a category
//! sequence and returned skyline routes on a city map. This CLI is the
//! library-reproduction analogue: generate a city, inspect its categories,
//! and run SkySR queries (optionally with a destination) against it.
//!
//! ```text
//! skysr-cli generate --preset cal-small --scale 0.2 --seed 7 --out city.txt
//! skysr-cli info city.txt
//! skysr-cli categories city.txt --top 15
//! skysr-cli query city.txt --start 12 --categories "t0/n4,t1/n7" [--destination 99]
//! skysr-cli replay [city.txt] --queries 1000 --workers 4 [--pattern duplicate] [--verify true]
//! skysr-cli bench --out BENCH_pr.json [--require-speedup 2.0] [--require-repair-speedup 1.5]
//! skysr-cli demo
//! ```
//!
//! `replay` drives the concurrent `skysr-service` engine: it streams a
//! skewed workload (`--pattern zipf` Zipf-popular arrivals, `duplicate`
//! bursts of identical in-flight requests, `prefix` chains extended one
//! position at a time, `hierarchy` category-subtree chains walking
//! suffix → ancestor variant → full query) through a worker pool with a
//! cross-query result cache, request coalescing and semantic reuse
//! (prefix, ancestor-category and suffix warm starts — individually
//! toggleable via `--prefix-reuse` / `--ancestor-reuse` /
//! `--suffix-reuse`), and prints throughput, latency percentiles, cache
//! and per-strategy reuse statistics.
//! `--qps N` switches from closed-loop batching to an open-loop arrival
//! process (exponential inter-arrivals at the target rate), and
//! `--update-rate R` publishes bursts of `--update-burst` random
//! edge-weight changes per second as new weight epochs while the stream is
//! in flight; `--update-every N` instead publishes one burst after every
//! N completed requests (synchronous closed-loop update waves).
//! `--deadline-ms F` attaches a per-request deadline: requests whose
//! deadline expires while still queued are shed un-executed, and a search
//! truncated mid-engine returns a valid *approximate* partial skyline
//! (never cached, audited by `--verify` as consistent with the exact
//! answer). `--admission true` turns on the admission gate, which sheds
//! provably-unmeetable deadlines at submit time, and `--overload X`
//! measures the service's capacity with a short calibration pass and then
//! drives an open-loop stream at `X` times it (exclusive with `--qps` and
//! `--update-every`); the report adds shed/approximate/met-deadline
//! accounting.
//! `--verify true` re-answers every request sequentially *at
//! the epoch it was served under* and fails unless the concurrent skylines
//! are score-equivalent; the run also fails if any answer was served from
//! a stale (non-pinned-epoch) cache entry — the staleness gate.
//! `--repair true` turns on incremental skyline repair: a cached answer
//! from an older epoch is repaired against the exact epoch delta and
//! promoted in place instead of invalidated and recomputed (still
//! oracle-exact under `--verify`), and one-epoch-stale prefix skylines
//! provably untouched by the delta still seed warm starts.
//! `--retention K` bounds the weight-epoch history to the newest K epochs
//! (overlays beyond the ring are compacted once no reader leases them);
//! combined with `--verify`, the oracle audits every response whose
//! pinned epoch is still within the ring and reports how many it had to
//! skip (epochs already compacted away).
//! `--trace-out FILE` switches span retention to *full* (one
//! [`TraceSpan`](skysr_service::TraceSpan) per request), dumps the spans
//! as JSON lines, and fails the run if the trace-completeness invariant
//! breaks (any response without exactly one span whose rung and epoch
//! match); `--metrics-out FILE` writes the run's counters and latency
//! histograms (end-to-end, queue-wait, engine, and per-rung) as
//! Prometheus text exposition, every series carrying a `shard` label
//! (`0` for a single-tenant run).
//! `--shards N` replays multi-tenant: N regions (one generated dataset
//! per shard, seeds `--seed`, `--seed`+1, …) behind one in-process
//! router, each shard driving its own stream and update process through
//! region-stamped requests; every gate (`--verify`, staleness, trace
//! completeness) is enforced per shard and any misrouted request fails
//! the run.
//!
//! `bench` replays duplicate-heavy, prefix-heavy, dynamic (weight
//! updates racing the stream), hierarchy (ancestor+suffix seeding vs.
//! cold searches over a subtree walk) and repair (incremental repair vs.
//! invalidate-and-recompute under deterministic update waves) workloads
//! twice each — baseline vs. treatment — and writes the
//! JSON metrics artifact CI uploads as `BENCH_pr.json` (throughput,
//! p50/p99, queue-wait percentiles, per-rung latency summaries,
//! hit/coalesce/warm-start/repair rates, epochs published, invalidations,
//! verified correctness, speedups). A sixth *telemetry* cell replays the
//! duplicate stream with span retention off vs. a span per request and
//! reports the throughput ratio; a seventh *net* cell toggles the
//! transport (in-process vs. loopback `skysr-d`); an eighth *overload*
//! cell drives a low-reuse stream at half vs. twice measured capacity
//! with a deadline and admission control, reporting the hit-rung p99
//! ratio and shed/approximate counts. `--require-speedup X`
//! fails the run unless the duplicate-workload speedup reaches `X`;
//! `--require-hierarchy-speedup X` and `--require-repair-speedup X` do
//! the same for the hierarchy and repair cells;
//! `--require-telemetry-ratio X` fails unless full tracing retains at
//! least fraction `X` of untraced throughput (0.95 = at most 5%
//! overhead); `--require-overload-ratio X` fails unless the overloaded
//! cell actually shed load *and* kept its hit-rung p99 within `X` times
//! its uncontended value floored at the deadline budget; a ninth
//! *shards* cell serves four regions behind a router vs. a monolith on
//! the union working set, gated by `--require-shard-speedup X` on the
//! aggregate-throughput ratio; any stale serve fails either
//! unconditionally.
//! Bench also accepts `--trace-out`/`--metrics-out` (spans and Prometheus
//! text across all cells, each labelled by workload and mode).

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use skysr_cli::args::Args;
use skysr_cli::city::{
    check_seq_len, dataset_args, load, load_or_generate, parse_flag, parse_preset, CityArgs,
};
use skysr_cli::serve;
use skysr_core::bssr::{Bssr, BssrConfig};
use skysr_core::variants::destination::DestinationQuery;
use skysr_core::variants::rated::RatedQuery;
use skysr_core::variants::unordered::UnorderedQuery;
use skysr_core::{SkySrQuery, SkylineRoute};
use skysr_data::codec;
use skysr_data::dataset::{Dataset, DatasetSpec, Preset};
use skysr_graph::VertexId;
use skysr_service::bench::{bench, BenchSpec};
use skysr_service::replay::{
    build_pool, replay, replay_remote, replay_sharded, ReplaySpec, StreamPattern, TelemetryMode,
};
use skysr_service::telemetry::export::{prometheus, spans_to_json_lines};
use skysr_service::{MetricsSnapshot, QueryService, RemoteService, ServiceContext};

/// How long `--connect` commands wait for a daemon still binding its
/// socket (CI starts the daemon in the background and races it).
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn usage() -> &'static str {
    "usage:\n  \
     skysr-cli generate --preset <tokyo|nyc|cal|tokyo-small|nyc-small|cal-small> \
     [--scale F] [--seed N] --out FILE\n  \
     skysr-cli info FILE\n  \
     skysr-cli categories FILE [--top N]\n  \
     skysr-cli query FILE --start VERTEX --categories \"A,B,C\"\n  \
     \t[--destination VERTEX] [--mode ordered|unordered|rated]\n  \
     skysr-cli replay [FILE] [--preset P] [--scale F] [--seed N] [--queries N]\n  \
     \t[--distinct N] [--workers N] [--seq-len K] [--zipf S] [--cache N]\n  \
     \t[--queue N] [--pattern zipf|duplicate|prefix|hierarchy] [--burst N]\n  \
     \t[--coalesce true|false] [--prefix-reuse true|false]\n  \
     \t[--ancestor-reuse true|false] [--suffix-reuse true|false]\n  \
     \t[--verify true|false] [--repair true|false] [--retention K] [--qps F]\n  \
     \t[--update-rate F] [--update-burst N] [--update-magnitude F]\n  \
     \t[--update-every N] [--deadline-ms F] [--overload X]\n  \
     \t[--admission true|false] [--shards N] [--trace-out FILE.jsonl]\n  \
     \t[--metrics-out FILE.prom] [--connect HOST:PORT]\n  \
     skysr-cli bench [FILE] [--preset P] [--scale F] [--seed N] [--queries N]\n  \
     \t[--distinct N] [--workers N] [--seq-len K] [--burst N] [--out FILE.json]\n  \
     \t[--update-rate F] [--update-burst N] [--require-speedup X]\n  \
     \t[--require-hierarchy-speedup X] [--require-repair-speedup X]\n  \
     \t[--require-telemetry-ratio X] [--require-net-ratio X]\n  \
     \t[--require-overload-ratio X] [--require-shard-speedup X]\n  \
     \t[--trace-out FILE.jsonl] [--metrics-out FILE.prom]\n  \
     skysr-cli serve [FILE] [--preset P] [--scale F] [--seed N]\n  \
     \t[--addr HOST:PORT] [--workers N] [--cache N] [--queue N]\n  \
     \t[--coalesce true|false] [--prefix-reuse true|false]\n  \
     \t[--ancestor-reuse true|false] [--suffix-reuse true|false]\n  \
     \t[--repair true|false] [--admission true|false] [--shards N]\n  \
     skysr-cli shutdown --connect HOST:PORT\n  \
     skysr-cli demo"
}

fn run(argv: Vec<String>) -> Result<(), String> {
    let mut args = Args::parse(argv)?;
    match args.command.as_str() {
        "generate" => {
            let preset = parse_preset(&args.require("preset")?)?;
            let mut spec = DatasetSpec::preset(preset);
            if let Some(s) = args.optional("scale") {
                spec = spec.scale(s.parse().map_err(|_| "bad --scale".to_string())?);
            }
            if let Some(s) = args.optional("seed") {
                spec = spec.seed(s.parse().map_err(|_| "bad --seed".to_string())?);
            }
            let out = args.require("out")?;
            args.finish()?;
            eprintln!("generating {} ...", spec.name);
            let dataset = spec.generate();
            codec::save_dataset(&dataset, &out).map_err(|e| e.to_string())?;
            let (v, p, e) = dataset.stats();
            println!("wrote {out}: |V|={v} |P|={p} |E|={e}");
            Ok(())
        }
        "info" => {
            let dataset = load(&args.positional()?)?;
            args.finish()?;
            let (v, p, e) = dataset.stats();
            println!("dataset    {}", dataset.name);
            println!("vertices   {v}");
            println!("pois       {p}");
            println!("edges      {e}");
            println!(
                "categories {} in {} trees",
                dataset.forest.num_categories(),
                dataset.forest.num_trees()
            );
            Ok(())
        }
        "categories" => {
            let dataset = load(&args.positional()?)?;
            let top: usize = args
                .optional("top")
                .map(|s| s.parse().map_err(|_| "bad --top".to_string()))
                .transpose()?
                .unwrap_or(20);
            args.finish()?;
            let mut hist: Vec<_> =
                dataset.pois.category_histogram().into_iter().filter(|&(_, n)| n > 0).collect();
            hist.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
            for (c, n) in hist.into_iter().take(top) {
                println!("{n:>7}  {}", dataset.forest.name(c));
            }
            Ok(())
        }
        "query" => {
            let dataset = load(&args.positional()?)?;
            let start: u32 =
                args.require("start")?.parse().map_err(|_| "bad --start".to_string())?;
            let cats_arg = args.require("categories")?;
            let dest = args
                .optional("destination")
                .map(|s| s.parse::<u32>().map_err(|_| "bad --destination".to_string()))
                .transpose()?;
            let mode = args.optional("mode").unwrap_or_else(|| "ordered".to_owned());
            args.finish()?;
            let mut cats = Vec::new();
            for name in cats_arg.split(',') {
                let name = name.trim();
                let c = dataset
                    .forest
                    .by_name(name)
                    .ok_or_else(|| format!("unknown category {name:?}"))?;
                cats.push(c);
            }
            let ctx = dataset.context();
            match mode.as_str() {
                "ordered" => {
                    let query = SkySrQuery::new(VertexId(start), cats);
                    let routes = match dest {
                        Some(d) => {
                            DestinationQuery::new(query, VertexId(d))
                                .run(&ctx, BssrConfig::default())
                                .map_err(|e| e.to_string())?
                                .routes
                        }
                        None => Bssr::new(&ctx).run(&query).map_err(|e| e.to_string())?.routes,
                    };
                    print_routes(&dataset, &routes);
                }
                "unordered" => {
                    if dest.is_some() {
                        return Err("--destination is not supported with --mode unordered".into());
                    }
                    let q = UnorderedQuery::new(VertexId(start), cats);
                    let result = q.run(&ctx).map_err(|e| e.to_string())?;
                    print_routes(&dataset, &result.routes);
                }
                "rated" => {
                    if dest.is_some() {
                        return Err("--destination is not supported with --mode rated".into());
                    }
                    let ratings = dataset.ratings(0);
                    let q = RatedQuery::new(SkySrQuery::new(VertexId(start), cats));
                    let result = q.run(&ctx, &ratings).map_err(|e| e.to_string())?;
                    println!(
                        "{} skyline route(s) (length x semantics x rating):",
                        result.routes.len()
                    );
                    for r in &result.routes {
                        println!(
                            "  {:>10.1} m  semantic {:.3}  rating-deficit {:.3}  {:?}",
                            r.length.get(),
                            r.semantic,
                            r.rating,
                            r.pois
                        );
                    }
                }
                other => return Err(format!("unknown --mode {other:?}")),
            }
            Ok(())
        }
        "replay" => {
            let city = dataset_args(&mut args)?;
            let mut spec = ReplaySpec {
                total: parse_flag(&mut args, "queries", 1000)?,
                distinct: parse_flag(&mut args, "distinct", 100)?,
                seq_len: parse_flag(&mut args, "seq-len", 3)?,
                zipf_exponent: parse_flag(&mut args, "zipf", 1.0)?,
                workers: parse_flag(&mut args, "workers", 4)?,
                cache_capacity: parse_flag(&mut args, "cache", 1024)?,
                queue_capacity: parse_flag(&mut args, "queue", 256)?,
                burst: parse_flag(&mut args, "burst", 16)?,
                coalesce: parse_flag(&mut args, "coalesce", true)?,
                prefix_reuse: parse_flag(&mut args, "prefix-reuse", true)?,
                ancestor_reuse: parse_flag(&mut args, "ancestor-reuse", true)?,
                suffix_reuse: parse_flag(&mut args, "suffix-reuse", true)?,
                qps: parse_flag(&mut args, "qps", 0.0)?,
                update_rate: parse_flag(&mut args, "update-rate", 0.0)?,
                update_burst: parse_flag(&mut args, "update-burst", 32)?,
                update_magnitude: parse_flag(&mut args, "update-magnitude", 2.0)?,
                update_every: parse_flag(&mut args, "update-every", 0)?,
                repair: parse_flag(&mut args, "repair", false)?,
                retention: parse_flag(&mut args, "retention", 0)?,
                overload: parse_flag(&mut args, "overload", 0.0)?,
                admission: parse_flag(&mut args, "admission", false)?,
                seed: city.seed,
                ..ReplaySpec::default()
            };
            if let Some(ms) = args.optional("deadline-ms") {
                let ms: f64 = ms.parse().map_err(|_| "bad --deadline-ms".to_string())?;
                if !ms.is_finite() || ms <= 0.0 {
                    return Err("--deadline-ms must be a positive finite number".into());
                }
                spec.deadline = Some(Duration::from_secs_f64(ms / 1000.0));
            }
            spec.pattern = match args.optional("pattern").as_deref() {
                None | Some("zipf") => StreamPattern::Zipf,
                Some("duplicate") => StreamPattern::DuplicateBursts,
                Some("prefix") => StreamPattern::PrefixChains,
                Some("hierarchy") => StreamPattern::Hierarchy,
                Some(other) => return Err(format!("unknown --pattern {other:?}")),
            };
            spec.verify = parse_flag(&mut args, "verify", false)?;
            let shards: usize = parse_flag(&mut args, "shards", 1)?;
            let connect = args.optional("connect");
            let trace_out = args.optional("trace-out");
            let metrics_out = args.optional("metrics-out");
            // Dumping spans only makes sense over a complete record:
            // --trace-out switches span retention to full (every request),
            // which also arms the trace-completeness audit.
            if trace_out.is_some() {
                spec.telemetry = TelemetryMode::Full;
            }
            if connect.is_some() {
                if trace_out.is_some() {
                    return Err("--trace-out is unsupported with --connect (trace spans are not \
                         exported over the wire)"
                        .into());
                }
                if spec.retention > 0 {
                    return Err(
                        "--retention is unsupported with --connect (the local shadow cannot \
                         mirror server-side epoch compaction)"
                            .into(),
                    );
                }
            }
            args.finish()?;
            // Reject what the replay driver would otherwise panic on,
            // before paying for dataset generation.
            if spec.total == 0 || spec.distinct == 0 || spec.seq_len == 0 {
                return Err("--queries, --distinct and --seq-len must be at least 1".into());
            }
            if !spec.zipf_exponent.is_finite() || spec.zipf_exponent < 0.0 {
                return Err("--zipf must be a non-negative finite number".into());
            }
            if !spec.qps.is_finite() || spec.qps < 0.0 {
                return Err("--qps must be a non-negative finite number".into());
            }
            if !spec.update_rate.is_finite() || spec.update_rate < 0.0 {
                return Err("--update-rate must be a non-negative finite number".into());
            }
            if !spec.update_magnitude.is_finite() || spec.update_magnitude < 1.0 {
                return Err("--update-magnitude must be a finite number >= 1".into());
            }
            if spec.update_rate > 0.0 && spec.update_burst == 0 {
                return Err("--update-burst must be at least 1".into());
            }
            if spec.update_every > 0 && (spec.qps > 0.0 || spec.update_rate > 0.0) {
                return Err(
                    "--update-every replays synchronous closed-loop update waves and conflicts \
                     with the open-loop --qps/--update-rate knobs"
                        .into(),
                );
            }
            if !spec.overload.is_finite() || spec.overload < 0.0 {
                return Err("--overload must be a non-negative finite number".into());
            }
            if spec.overload > 0.0 && (spec.qps > 0.0 || spec.update_every > 0) {
                return Err(
                    "--overload resolves its own open-loop rate from measured capacity and \
                     conflicts with an explicit --qps and with --update-every"
                        .into(),
                );
            }
            if spec.overload > 0.0 && connect.is_some() {
                return Err(
                    "--overload is unsupported with --connect (capacity calibration runs on a \
                     local scratch service); drive the daemon with an explicit --qps instead"
                        .into(),
                );
            }
            if spec.pattern == StreamPattern::Hierarchy && spec.seq_len < 2 {
                return Err(
                    "--pattern hierarchy needs --seq-len >= 2 (each chain walks the query's \
                     suffix and an ancestor variant)"
                        .into(),
                );
            }
            if shards == 0 {
                return Err("--shards must be at least 1".into());
            }
            if shards > 1 {
                if connect.is_some() {
                    return Err("--shards replays against an in-process multi-shard router; \
                         a daemon's shard layout is fixed at startup (serve --shards)"
                        .into());
                }
                if spec.overload > 0.0 {
                    return Err(
                        "--overload calibration is single-tenant; drive shards with an explicit \
                         --qps instead"
                            .into(),
                    );
                }
                if city.file.is_some() {
                    return Err("--shards generates one dataset per region and conflicts with a \
                         dataset FILE argument"
                        .into());
                }
                let mut regions: Vec<(String, Dataset)> = Vec::with_capacity(shards);
                for i in 0..shards {
                    let region = CityArgs {
                        file: None,
                        preset: city.preset,
                        scale: city.scale,
                        seed: city.seed + i as u64,
                    };
                    let dataset = load_or_generate(&region)?;
                    check_seq_len(&dataset, spec.seq_len)?;
                    regions.push((format!("region-{i}"), dataset));
                }
                eprintln!(
                    "replaying {} requests per shard ({} distinct, {} stream) over {shards} \
                     shards x {} workers ...",
                    spec.total, spec.distinct, spec.pattern, spec.workers
                );
                let sharded = replay_sharded(regions, &spec);
                println!("{sharded}");
                if let Some(path) = &trace_out {
                    let mut lines = String::new();
                    for s in &sharded.shards {
                        lines.push_str(&spans_to_json_lines(&s.report.spans));
                    }
                    std::fs::write(path, lines).map_err(|e| format!("cannot write {path}: {e}"))?;
                    eprintln!("wrote {path}");
                }
                if let Some(path) = &metrics_out {
                    let pattern = spec.pattern.to_string();
                    let ids: Vec<String> =
                        sharded.shards.iter().map(|s| s.region.to_string()).collect();
                    let labels: Vec<[(&str, &str); 2]> = ids
                        .iter()
                        .map(|id| [("pattern", pattern.as_str()), ("shard", id.as_str())])
                        .collect();
                    let entries: Vec<(&[(&str, &str)], &MetricsSnapshot)> = sharded
                        .shards
                        .iter()
                        .zip(&labels)
                        .map(|(s, l)| (l.as_slice(), &s.report.metrics))
                        .collect();
                    std::fs::write(path, prometheus(&entries))
                        .map_err(|e| format!("cannot write {path}: {e}"))?;
                    eprintln!("wrote {path}");
                }
                for s in &sharded.shards {
                    if let Some(v) = s.report.trace_violations.filter(|&v| v > 0) {
                        return Err(format!(
                            "shard {} ({}): trace-completeness invariant violated: {v} \
                             violation(s)",
                            s.region, s.name
                        ));
                    }
                    if s.report.verify_mismatches.is_some_and(|m| m > 0) {
                        return Err(format!(
                            "shard {} ({}): verification failed: concurrent and sequential \
                             skylines differ",
                            s.region, s.name
                        ));
                    }
                    if let Some(skipped) = s.report.verify_skipped.filter(|&n| n > 0) {
                        eprintln!(
                            "note: shard {}: {skipped} response(s) were unverifiable (pinned \
                             epochs beyond the --retention ring) and were skipped",
                            s.region
                        );
                    }
                    if s.report.stale_served() > 0 {
                        return Err(format!(
                            "shard {} ({}): staleness gate failed: {} answer(s) served from a \
                             non-pinned-epoch cache entry",
                            s.region,
                            s.name,
                            s.report.stale_served()
                        ));
                    }
                }
                if sharded.misrouted > 0 {
                    return Err(format!(
                        "routing gate failed: {} request(s) named a region no shard serves",
                        sharded.misrouted
                    ));
                }
                return Ok(());
            }
            let dataset = load_or_generate(&city)?;
            check_seq_len(&dataset, spec.seq_len)?;
            let report = match &connect {
                Some(addr) => {
                    // The dataset recipe builds the *shadow*: the daemon
                    // must serve the same dataset (checked against its
                    // handshake fingerprint inside replay_remote).
                    let pool = build_pool(&dataset, &spec);
                    let shadow = Arc::new(ServiceContext::from_dataset(dataset));
                    let remote = RemoteService::connect_retry(addr.as_str(), CONNECT_TIMEOUT)
                        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
                    eprintln!(
                        "replaying {} requests ({} distinct, {} stream) over {addr} ...",
                        spec.total, spec.distinct, spec.pattern
                    );
                    replay_remote(&remote, shadow, &pool, &spec).map_err(|e| e.to_string())?
                }
                None => {
                    eprintln!(
                        "replaying {} requests ({} distinct, {} stream) on {} workers ...",
                        spec.total, spec.distinct, spec.pattern, spec.workers
                    );
                    replay(dataset, &spec)
                }
            };
            println!("{report}");
            if let Some(path) = &trace_out {
                std::fs::write(path, spans_to_json_lines(&report.spans))
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                eprintln!("wrote {} trace spans to {path}", report.spans.len());
            }
            if let Some(path) = &metrics_out {
                let pattern = spec.pattern.to_string();
                // Single-tenant runs are shard 0 (the default shard), so
                // the exporter's label schema is identical either way.
                let labels = [("pattern", pattern.as_str()), ("shard", "0")];
                std::fs::write(path, prometheus(&[(&labels, &report.metrics)]))
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                eprintln!("wrote {path}");
            }
            if let Some(v) = report.trace_violations.filter(|&v| v > 0) {
                return Err(format!(
                    "trace-completeness invariant violated: {v} violation(s) (a response \
                     without exactly one matching span, or rung/epoch disagreement)"
                ));
            }
            if report.verify_mismatches.is_some_and(|m| m > 0) {
                return Err("verification failed: concurrent and sequential skylines differ".into());
            }
            if let Some(skipped) = report.verify_skipped.filter(|&n| n > 0) {
                eprintln!(
                    "note: {skipped} response(s) were unverifiable (pinned epochs beyond the \
                     --retention ring) and were skipped"
                );
            }
            if report.stale_served() > 0 {
                return Err(format!(
                    "staleness gate failed: {} answer(s) served from a non-pinned-epoch cache \
                     entry",
                    report.stale_served()
                ));
            }
            Ok(())
        }
        "bench" => {
            let city = dataset_args(&mut args)?;
            let spec = BenchSpec {
                total: parse_flag(&mut args, "queries", 144)?,
                distinct: parse_flag(&mut args, "distinct", 8)?,
                seq_len: parse_flag(&mut args, "seq-len", 3)?,
                workers: parse_flag(&mut args, "workers", 8)?,
                burst: parse_flag(&mut args, "burst", 24)?,
                update_rate: parse_flag(&mut args, "update-rate", 200.0)?,
                update_burst: parse_flag(&mut args, "update-burst", 16)?,
                seed: city.seed,
                ..BenchSpec::default()
            };
            let out = args.optional("out");
            let require_speedup: Option<f64> = args
                .optional("require-speedup")
                .map(|s| s.parse().map_err(|_| "bad --require-speedup".to_string()))
                .transpose()?;
            let require_hierarchy_speedup: Option<f64> = args
                .optional("require-hierarchy-speedup")
                .map(|s| s.parse().map_err(|_| "bad --require-hierarchy-speedup".to_string()))
                .transpose()?;
            let require_repair_speedup: Option<f64> = args
                .optional("require-repair-speedup")
                .map(|s| s.parse().map_err(|_| "bad --require-repair-speedup".to_string()))
                .transpose()?;
            let require_telemetry_ratio: Option<f64> = args
                .optional("require-telemetry-ratio")
                .map(|s| s.parse().map_err(|_| "bad --require-telemetry-ratio".to_string()))
                .transpose()?;
            let require_net_ratio: Option<f64> = args
                .optional("require-net-ratio")
                .map(|s| s.parse().map_err(|_| "bad --require-net-ratio".to_string()))
                .transpose()?;
            let require_overload_ratio: Option<f64> = args
                .optional("require-overload-ratio")
                .map(|s| s.parse().map_err(|_| "bad --require-overload-ratio".to_string()))
                .transpose()?;
            let require_shard_speedup: Option<f64> = args
                .optional("require-shard-speedup")
                .map(|s| s.parse().map_err(|_| "bad --require-shard-speedup".to_string()))
                .transpose()?;
            let trace_out = args.optional("trace-out");
            let metrics_out = args.optional("metrics-out");
            args.finish()?;
            if spec.total == 0 || spec.distinct == 0 {
                return Err("--queries and --distinct must be at least 1".into());
            }
            if spec.seq_len < 2 {
                return Err(
                    "bench needs --seq-len >= 2 (the hierarchy cell walks each query's suffix \
                     and an ancestor variant)"
                        .into(),
                );
            }
            if !spec.update_rate.is_finite() || spec.update_rate <= 0.0 {
                // The dynamic cells need a real updater; a zero/invalid rate
                // would silently measure two static runs as "dynamic".
                return Err("--update-rate must be a positive finite number".into());
            }
            if spec.update_burst == 0 {
                return Err("--update-burst must be at least 1".into());
            }
            let dataset = load_or_generate(&city)?;
            check_seq_len(&dataset, spec.seq_len)?;
            eprintln!(
                "benchmarking reuse vs. exact-match baseline ({} requests, {} workers) ...",
                spec.total, spec.workers
            );
            let report = bench(dataset, &spec);
            println!("{report}");
            if let Some(path) = out {
                std::fs::write(&path, report.to_json())
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                eprintln!("wrote {path}");
            }
            if let Some(path) = &trace_out {
                let mut lines = String::new();
                for run in &report.runs {
                    lines.push_str(&spans_to_json_lines(&run.report.spans));
                }
                std::fs::write(path, lines).map_err(|e| format!("cannot write {path}: {e}"))?;
                eprintln!("wrote {path}");
            }
            if let Some(path) = &metrics_out {
                let labels: Vec<[(&str, &str); 3]> = report
                    .runs
                    .iter()
                    .map(|r| [("workload", r.workload), ("mode", r.mode), ("shard", "0")])
                    .collect();
                let entries: Vec<(&[(&str, &str)], &MetricsSnapshot)> = report
                    .runs
                    .iter()
                    .zip(&labels)
                    .map(|(r, l)| (l.as_slice(), &r.report.metrics))
                    .collect();
                std::fs::write(path, prometheus(&entries))
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                eprintln!("wrote {path}");
            }
            let trace_violations: usize =
                report.runs.iter().filter_map(|r| r.report.trace_violations).sum();
            if trace_violations > 0 {
                return Err(format!(
                    "trace-completeness invariant violated in {trace_violations} case(s) \
                     across the traced bench cells"
                ));
            }
            if report.verify_mismatches() > 0 {
                return Err("verification failed: reuse answers differ from sequential".into());
            }
            if report.stale_served() > 0 {
                return Err(format!(
                    "staleness gate failed: {} answer(s) served from a non-pinned-epoch cache \
                     entry",
                    report.stale_served()
                ));
            }
            if let Some(min) = require_speedup {
                if report.speedup_duplicate < min {
                    return Err(format!(
                        "duplicate-workload speedup {:.2}x is below the required {min:.2}x",
                        report.speedup_duplicate
                    ));
                }
            }
            if let Some(min) = require_hierarchy_speedup {
                if report.speedup_hierarchy < min {
                    return Err(format!(
                        "hierarchy-workload speedup {:.2}x is below the required {min:.2}x \
                         (ancestor+suffix seeding vs. cold searches)",
                        report.speedup_hierarchy
                    ));
                }
            }
            if let Some(min) = require_repair_speedup {
                if report.speedup_repair < min {
                    return Err(format!(
                        "repair-workload speedup {:.2}x is below the required {min:.2}x \
                         (repair vs. invalidate-and-recompute)",
                        report.speedup_repair
                    ));
                }
            }
            if let Some(min) = require_telemetry_ratio {
                if report.telemetry_overhead_ratio < min {
                    return Err(format!(
                        "telemetry overhead ratio {:.3} is below the required {min:.3} \
                         (full tracing costs more throughput than allowed)",
                        report.telemetry_overhead_ratio
                    ));
                }
            }
            if let Some(min) = require_net_ratio {
                if report.net_ratio < min {
                    return Err(format!(
                        "net overhead ratio {:.3} is below the required {min:.3} \
                         (the loopback socket transport costs more throughput than allowed)",
                        report.net_ratio
                    ));
                }
            }
            if let Some(max) = require_overload_ratio {
                // An overloaded service must both degrade (shed something —
                // otherwise the cell never actually overloaded and the
                // ratio is vacuous) and keep the cheap rung responsive.
                if report.overload_shed == 0 {
                    return Err("overload gate failed: the 2x-capacity cell shed nothing, so the \
                         hit-rung latency bound was never tested under real overload"
                        .into());
                }
                if !(report.overload_hit_p99_ratio > 0.0 && report.overload_hit_p99_ratio <= max) {
                    return Err(format!(
                        "overload gate failed: hit-rung p99 under 2x load is {:.2}x the \
                         uncontended value (floored at the deadline budget; limit {max:.2}x)",
                        report.overload_hit_p99_ratio
                    ));
                }
            }
            if let Some(min) = require_shard_speedup {
                if report.speedup_shards < min {
                    return Err(format!(
                        "shard-scaling speedup {:.2}x is below the required {min:.2}x \
                         ({} shards behind a router vs. one monolith)",
                        report.speedup_shards, report.shard_count
                    ));
                }
            }
            Ok(())
        }
        "serve" => serve::run_serve(&mut args),
        "shutdown" => {
            let addr = args.require("connect")?;
            args.finish()?;
            let remote = RemoteService::connect_retry(addr.as_str(), CONNECT_TIMEOUT)
                .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
            // The daemon stops accepting, drains every in-flight query and
            // answers with its lifetime metrics before closing.
            let metrics = remote.shutdown();
            println!("skysr-d at {addr} drained and stopped: {}", serve::lifetime(&metrics));
            Ok(())
        }
        "demo" => {
            args.finish()?;
            eprintln!("generating a small demo city ...");
            let dataset = DatasetSpec::preset(Preset::CalSmall).scale(0.2).seed(1).generate();
            let ctx = dataset.context();
            let w =
                skysr_data::workload::WorkloadSpec::new(3).queries(1).seed(2).generate(&dataset);
            let q = &w.queries[0];
            println!("query from vertex {} through:", q.start);
            for spec in &q.sequence {
                if let skysr_core::PositionSpec::Category(c) = spec {
                    println!("  - {}", dataset.forest.name(*c));
                }
            }
            let routes = Bssr::new(&ctx).run(q).map_err(|e| e.to_string())?.routes;
            print_routes(&dataset, &routes);
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn print_routes(dataset: &Dataset, routes: &[SkylineRoute]) {
    if routes.is_empty() {
        println!("no sequenced route exists for this query");
        return;
    }
    println!("{} skyline route(s):", routes.len());
    for r in routes {
        let labels: Vec<String> = r
            .pois
            .iter()
            .map(|&p| {
                let name = dataset
                    .pois
                    .categories_of(p)
                    .first()
                    .map(|&c| dataset.forest.name(c))
                    .unwrap_or("?");
                format!("{name}@{p}")
            })
            .collect();
        println!(
            "  {:>10.1} m  semantic {:.3}   {}",
            r.length.get(),
            r.semantic,
            labels.join(" -> ")
        );
    }
}
