//! `skysr-cli` — a command-line SkySR query service.
//!
//! The paper's §8 prototype let users pick a start point and a category
//! sequence and returned skyline routes on a city map. This CLI is the
//! library-reproduction analogue: generate a city, inspect its categories,
//! and run SkySR queries (optionally with a destination) against it.
//!
//! ```text
//! skysr-cli generate --preset cal-small --scale 0.2 --seed 7 --out city.skysr
//! skysr-cli info city.skysr
//! skysr-cli categories city.skysr --top 15
//! skysr-cli query city.skysr --start 12 --categories "t0/n4,t1/n7" [--destination 99]
//! skysr-cli replay [city.skysr] --queries 1000 --workers 4 [--pattern duplicate] [--verify true]
//! skysr-cli replay --scenario repair/zipf [--repair false]
//! skysr-cli demo
//! ```
//!
//! `replay` streams a skewed workload (`--pattern
//! zipf|duplicate|prefix|hierarchy`) through the concurrent
//! `skysr-service` engine, optionally open-loop (`--qps`), under live
//! weight updates (`--update-rate`, `--update-every`), deadlines and
//! overload, over several in-process shards (`--shards N`) or against a
//! running `skysr-d` (`--connect HOST:PORT`), and prints the report.
//! `--verify true` re-answers every request at the epoch it was served
//! under. Every run must pass `ReplayReport::check`. `--scenario NAME`
//! runs one row of the scenario table (`skysr_service::scenario`) with
//! its gates, the flags given overriding the row's values; `--scenario
//! all` runs every in-process row and fails listing each failing row and
//! gate. A row with a twin gate is replayed again as its twin, the flags
//! given included and the row's mechanism switched off, and must do a
//! fixed fraction of the twin's engine work. Without a row, unset flags
//! take `ReplaySpec::default()`; the spec's own rules are
//! `ReplaySpec::validate`. `docs/OPERATIONS.md` (§ Replay driver)
//! describes every flag.

use std::io::{self, Write};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use skysr_cli::args::Args;
use skysr_cli::city::{
    check_seq_len, dataset_args, load, parse_flag, parse_preset, region_datasets, service_flags,
    CityArgs, SERVICE_FLAGS,
};
use skysr_cli::serve;
use skysr_core::bssr::{Bssr, BssrConfig};
use skysr_core::variants::destination::DestinationQuery;
use skysr_core::variants::rated::RatedQuery;
use skysr_core::variants::unordered::{UnorderedQuery, MAX_CATEGORIES};
use skysr_core::{SkySrQuery, SkylineRoute};
use skysr_data::codec;
use skysr_data::dataset::{Dataset, DatasetSpec, Preset};
use skysr_graph::VertexId;
use skysr_service::replay::{
    build_pool, replay_remote, replay_sharded, ShardReplay, ShardedReplayReport,
};
use skysr_service::scenario::{self, City, Scenario};
use skysr_service::telemetry::export::{prometheus, spans_to_json_lines};
use skysr_service::{
    MetricsSnapshot, QueryService, RegionId, RemoteService, ReplaySpec, ServiceContext,
    TelemetryConfig,
};

/// How long `--connect` commands wait for a daemon still binding its
/// socket (CI starts the daemon in the background and races it).
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// Why a command failed.
enum Failure {
    /// A bad argument or input: reported with the usage.
    Usage(String),
    /// A command that ran and failed — a gate, a verification, a socket or
    /// a file write: reported alone, so the failure is what the log ends
    /// with.
    Run(String),
    /// Writing to stdout failed.
    Output(io::Error),
}

impl From<String> for Failure {
    fn from(e: String) -> Failure {
        Failure::Usage(e)
    }
}

impl From<&str> for Failure {
    fn from(e: &str) -> Failure {
        Failure::Usage(e.to_owned())
    }
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Failure {
        Failure::Output(e)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Every printer writes through this one lock, so a closed stdout is an
    // error the command returns, not a panic in `println!`.
    let mut out = io::stdout().lock();
    match run(argv, &mut out).and_then(|()| Ok(out.flush()?)) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader has all it wanted (`| head`, `| grep -q`).
        Err(Failure::Output(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Failure::Output(e)) => {
            eprintln!("error: cannot write to stdout: {e}");
            ExitCode::FAILURE
        }
        Err(Failure::Usage(e)) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
        Err(Failure::Run(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> &'static str {
    "usage:\n  \
     skysr-cli generate --preset <tokyo|nyc|cal|tokyo-small|nyc-small|cal-small> \
     [--scale F] [--seed N] --out FILE.skysr\n  \
     skysr-cli info FILE\n  \
     skysr-cli categories FILE [--top N]\n  \
     skysr-cli query FILE --start VERTEX --categories \"A,B,C\"\n  \
     \t[--destination VERTEX] [--mode ordered|unordered|rated]\n  \
     skysr-cli replay [FILE] [--scenario NAME|all] [--preset P] [--scale F]\n  \
     \t[--seed N] [--queries N] [--distinct N] [--workers N] [--seq-len K]\n  \
     \t[--zipf S] [--cache N] [--queue N]\n  \
     \t[--pattern zipf|duplicate|prefix|hierarchy] [--burst N]\n  \
     \t[--coalesce true|false] [--verify true|false] [--repair true|false]\n  \
     \t[--retention K] [--qps F]\n  \
     \t[--update-rate F] [--update-burst N] [--update-every N]\n  \
     \t[--deadline-ms F] [--overload X]\n  \
     \t[--admission true|false] [--shards N] [--trace-out FILE.jsonl]\n  \
     \t[--metrics-out FILE.prom] [--connect HOST:PORT]\n  \
     skysr-cli serve [FILE] [--preset P] [--scale F] [--seed N]\n  \
     \t[--addr HOST:PORT] [--workers N] [--cache N] [--queue N]\n  \
     \t[--coalesce true|false] [--repair true|false]\n  \
     \t[--admission true|false] [--shards N]\n  \
     skysr-cli shutdown --connect HOST:PORT\n  \
     skysr-cli demo"
}

fn run(argv: Vec<String>, out: &mut impl Write) -> Result<(), Failure> {
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
            let path = args.require("out")?;
            args.finish()?;
            eprintln!("generating {} ...", spec.name);
            let dataset = spec.generate();
            codec::save_dataset(&dataset, &path).map_err(|e| Failure::Run(e.to_string()))?;
            let (v, p, e) = dataset.stats();
            writeln!(out, "wrote {path}: |V|={v} |P|={p} |E|={e}")?;
            Ok(())
        }
        "info" => {
            let dataset = load(&args.positional()?)?;
            args.finish()?;
            let (v, p, e) = dataset.stats();
            writeln!(out, "dataset    {}", dataset.name)?;
            writeln!(out, "vertices   {v}")?;
            writeln!(out, "pois       {p}")?;
            writeln!(out, "edges      {e}")?;
            writeln!(
                out,
                "categories {} in {} trees",
                dataset.forest.num_categories(),
                dataset.forest.num_trees()
            )?;
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
                writeln!(out, "{n:>7}  {}", dataset.forest.name(c))?;
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
                    print_routes(out, &dataset, &routes)?;
                }
                "unordered" => {
                    if dest.is_some() {
                        return Err("--destination is not supported with --mode unordered".into());
                    }
                    if cats.len() > MAX_CATEGORIES {
                        return Err(format!(
                            "--mode unordered takes at most {MAX_CATEGORIES} categories, got {}",
                            cats.len()
                        )
                        .into());
                    }
                    let q = UnorderedQuery::new(VertexId(start), cats);
                    let result = q.run(&ctx).map_err(|e| e.to_string())?;
                    print_routes(out, &dataset, &result.routes)?;
                }
                "rated" => {
                    if dest.is_some() {
                        return Err("--destination is not supported with --mode rated".into());
                    }
                    let ratings = dataset.ratings(0);
                    let q = RatedQuery::new(SkySrQuery::new(VertexId(start), cats));
                    let result = q.run(&ctx, &ratings).map_err(|e| e.to_string())?;
                    writeln!(
                        out,
                        "{} skyline route(s) (length x semantics x rating):",
                        result.routes.len()
                    )?;
                    for r in &result.routes {
                        writeln!(
                            out,
                            "  {:>10.1} m  semantic {:.3}  rating-deficit {:.3}  {:?}",
                            r.length.get(),
                            r.semantic,
                            r.rating,
                            r.pois
                        )?;
                    }
                }
                other => return Err(format!("unknown --mode {other:?}").into()),
            }
            Ok(())
        }
        "replay" => replay(args, out),
        "serve" => Ok(serve::run_serve(&mut args)?),
        "shutdown" => {
            let addr = args.require("connect")?;
            args.finish()?;
            let remote = RemoteService::connect_retry(addr.as_str(), CONNECT_TIMEOUT)
                .map_err(|e| Failure::Run(format!("cannot connect to {addr}: {e}")))?;
            // The daemon stops accepting, drains every in-flight query and
            // answers with its lifetime metrics before closing.
            let metrics = remote.shutdown();
            writeln!(out, "skysr-d at {addr} drained and stopped: {}", serve::lifetime(&metrics))?;
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
            writeln!(out, "query from vertex {} through:", q.start)?;
            for spec in &q.sequence {
                if let skysr_core::PositionSpec::Category(c) = spec {
                    writeln!(out, "  - {}", dataset.forest.name(*c))?;
                }
            }
            let routes = Bssr::new(&ctx).run(q).map_err(|e| e.to_string())?.routes;
            print_routes(out, &dataset, &routes)?;
            Ok(())
        }
        other => Err(format!("unknown command {other:?}").into()),
    }
}

/// `replay`: one row of the scenario table (`--scenario NAME`), every
/// in-process row (`--scenario all`), or an ad-hoc run, the caller's
/// flags overriding the row's values. Prints each report and fails
/// naming every failing row and its gate.
fn replay(mut args: Args, out: &mut impl Write) -> Result<(), Failure> {
    let connect = args.optional("connect");
    let trace_out = args.optional("trace-out");
    let metrics_out = args.optional("metrics-out");
    let rows = match args.optional("scenario").as_deref() {
        None => {
            let ad_hoc = Scenario::new("ad-hoc", City::default(), ReplaySpec::default());
            vec![Scenario { daemon: connect.is_some(), ..ad_hoc }]
        }
        Some("all") => {
            if connect.is_some() || trace_out.is_some() || metrics_out.is_some() {
                return Err(
                    "--scenario all takes no --connect, --trace-out or --metrics-out".into()
                );
            }
            scenario::table().into_iter().filter(|row| !row.daemon).collect()
        }
        Some(name) => vec![scenario::find(name).ok_or_else(|| {
            let names: Vec<String> = scenario::table().into_iter().map(|row| row.name).collect();
            format!("unknown --scenario {name:?}; the rows are all, {}", names.join(", "))
        })?],
    };
    // Every row takes the flags before any runs, so a bad flag fails
    // first.
    let rows = rows
        .into_iter()
        .map(|row| override_row(args.clone(), row, connect.is_some(), trace_out.is_some()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut failures = Vec::new();
    for (row, city) in &rows {
        let fleet = replay_row(row, city, connect.as_deref(), out)?;
        if let Some(path) = &trace_out {
            write_file(
                path,
                fleet.shards.iter().map(|s| spans_to_json_lines(&s.report.spans)).collect(),
            )?;
        }
        if let Some(path) = &metrics_out {
            // Every series carries the shard label; a single-tenant run
            // is shard 0.
            let labels = |s: &ShardReplay| {
                [("pattern", row.spec.pattern.to_string()), ("shard", s.region.to_string())]
            };
            let runs: Vec<_> =
                fleet.shards.iter().map(|s| (labels(s), &s.report.metrics)).collect();
            write_prometheus(path, &runs)?;
        }
        // A twin replays the row's city recipe (or FILE) at its own scale
        // and shard count.
        let twin = match (row.twin, row.twin_row()) {
            (Some(gate), Some(twin)) => {
                let city =
                    CityArgs { file: city.file.clone(), city: twin.city, seed: twin.spec.seed };
                let twin = replay_row(&twin, &city, None, out)?;
                let (ours, theirs) = (gate.work.of(&fleet), gate.work.of(&twin));
                writeln!(
                    out,
                    "twin        {} {ours} against the twin's {theirs} (at most 1/{} of it)",
                    gate.work.gate(),
                    gate.factor
                )?;
                Some(twin)
            }
            _ => None,
        };
        failures.extend(row.check(&fleet, twin.as_ref()).err());
    }
    failures.is_empty().then_some(()).ok_or_else(|| Failure::Run(failures.join("\n")))
}

/// Replays one row in-process, or against the daemon at `connect`, and
/// prints its report.
fn replay_row(
    row: &Scenario,
    city: &CityArgs,
    connect: Option<&str>,
    out: &mut impl Write,
) -> Result<ShardedReplayReport, Failure> {
    let spec = &row.spec;
    let mut regions = region_datasets(city, row.shards)?;
    for (_, dataset) in &regions {
        check_seq_len(dataset, spec.seq_len)?;
    }
    let lanes = match connect {
        Some(addr) => format!("over {addr}"),
        None => format!("on {} shard(s) x {} workers", row.shards, spec.service.workers),
    };
    eprintln!(
        "{}: replaying {} requests ({} distinct, {} stream) {lanes} ...",
        row.name, spec.total, spec.distinct, spec.pattern
    );
    // A remote replay is one lane, audited against a shadow built from
    // the daemon's dataset recipe (replay_remote checks the handshake
    // fingerprint); an in-process one is a lane per region.
    let fleet = match connect {
        Some(addr) => {
            let (_, dataset) = regions.pop().expect("one region over --connect");
            let pool = build_pool(&dataset, spec);
            let shadow = Arc::new(ServiceContext::from_dataset(dataset));
            let remote = RemoteService::connect_retry(addr, CONNECT_TIMEOUT)
                .map_err(|e| Failure::Run(format!("cannot connect to {addr}: {e}")))?;
            let report = replay_remote(&remote, shadow, &pool, spec)
                .map_err(|e| Failure::Run(e.to_string()))?;
            let wall = report.wall;
            let lane = ShardReplay { region: RegionId::default(), name: addr.to_owned(), report };
            ShardedReplayReport { shards: vec![lane], wall, misrouted: 0 }
        }
        None => replay_sharded(regions, spec),
    };
    match fleet.shards.as_slice() {
        [one] => writeln!(out, "{}", one.report)?,
        _ => writeln!(out, "{fleet}")?,
    }
    Ok(fleet)
}

/// Applies the replay flags the caller set to `row` (unset ones keep the
/// row's values) and checks the result: the spec's own rules
/// ([`ReplaySpec::validate`]) and those of `--connect`, `--shards` and
/// `--trace-out`.
fn override_row(
    mut args: Args,
    mut row: Scenario,
    connect: bool,
    trace_out: bool,
) -> Result<(Scenario, CityArgs), String> {
    if row.daemon != connect {
        let needs = match row.daemon {
            true => "replays against skysr-d: pass --connect",
            false => "replays in-process and takes no --connect",
        };
        return Err(format!("row {} {needs}", row.name));
    }
    if connect {
        if let Some(flag) = SERVICE_FLAGS.into_iter().find(|&f| args.optional(f).is_some()) {
            return Err(format!(
                "--{flag} is unsupported with --connect (the daemon's serving stack is fixed at \
                 its startup; set it with skysr-d's own --{flag})"
            ));
        }
    }
    let city = dataset_args(&mut args, row.city, row.spec.seed)?;
    // The row carries the city it replays, so its twin does too.
    row.city = city.city;
    let spec = &mut row.spec;
    spec.seed = city.seed;
    spec.total = parse_flag(&mut args, "queries", spec.total)?;
    spec.distinct = parse_flag(&mut args, "distinct", spec.distinct)?;
    spec.seq_len = parse_flag(&mut args, "seq-len", spec.seq_len)?;
    spec.pattern = parse_flag(&mut args, "pattern", spec.pattern)?;
    spec.zipf_exponent = parse_flag(&mut args, "zipf", spec.zipf_exponent)?;
    spec.burst = parse_flag(&mut args, "burst", spec.burst)?;
    spec.service = service_flags(&mut args, spec.service.clone())?;
    spec.qps = parse_flag(&mut args, "qps", spec.qps)?;
    spec.update_rate = parse_flag(&mut args, "update-rate", spec.update_rate)?;
    spec.update_burst = parse_flag(&mut args, "update-burst", spec.update_burst)?;
    spec.update_every = parse_flag(&mut args, "update-every", spec.update_every)?;
    spec.retention = parse_flag(&mut args, "retention", spec.retention)?;
    spec.overload = parse_flag(&mut args, "overload", spec.overload)?;
    spec.verify = parse_flag(&mut args, "verify", spec.verify)?;
    if let Some(ms) = args.optional("deadline-ms") {
        let ms: f64 = ms.parse().map_err(|_| "bad --deadline-ms".to_string())?;
        // Out-of-range values saturate, and validation rejects them.
        spec.deadline = Some(Duration::try_from_secs_f64(ms / 1e3).unwrap_or(Duration::MAX));
    }
    row.shards = parse_flag(&mut args, "shards", row.shards)?;
    args.finish()?;
    // Dumping spans only makes sense over a complete record: --trace-out
    // switches span retention to full (every request), which also arms
    // the trace-completeness audit. A fully traced row keeps every span
    // of its stream, whatever --queries made of it.
    if trace_out || row.spec.audits_spans() {
        row.spec.service.telemetry = TelemetryConfig::trace_all(row.spec.total);
    }
    let spec = &row.spec;
    spec.validate()?;
    let local_only = [
        (trace_out, "--trace-out", "trace spans are not exported over the wire"),
        (spec.retention > 0, "--retention", "the daemon's epoch history is its own"),
        (spec.overload > 0.0, "--overload", "capacity calibration runs on a local service"),
        (row.shards > 1, "--shards", "a daemon's shard layout is fixed at its startup"),
    ];
    if let Some((_, flag, why)) = local_only.into_iter().find(|&(set, ..)| connect && set) {
        return Err(format!("{flag} is unsupported with --connect ({why})"));
    }
    if row.shards > 1 && spec.overload > 0.0 {
        return Err("--overload calibration is single-tenant; drive shards with an explicit \
             --qps instead"
            .into());
    }
    Ok((row, city))
}

/// Writes an export file and says so.
fn write_file(path: &str, contents: String) -> Result<(), Failure> {
    std::fs::write(path, contents)
        .map_err(|e| Failure::Run(format!("cannot write {path}: {e}")))?;
    eprintln!("wrote {path}");
    Ok(())
}

/// Writes each run's metrics, under its label pairs, to `path` as
/// Prometheus text.
fn write_prometheus(
    path: &str,
    runs: &[([(&str, String); 2], &MetricsSnapshot)],
) -> Result<(), Failure> {
    let labels: Vec<[(&str, &str); 2]> =
        runs.iter().map(|(l, _)| l.each_ref().map(|(k, v)| (*k, v.as_str()))).collect();
    let entries: Vec<(&[(&str, &str)], &MetricsSnapshot)> =
        labels.iter().zip(runs).map(|(l, (_, m))| (l.as_slice(), *m)).collect();
    write_file(path, prometheus(&entries))
}

fn print_routes(
    out: &mut impl Write,
    dataset: &Dataset,
    routes: &[SkylineRoute],
) -> io::Result<()> {
    if routes.is_empty() {
        return writeln!(out, "no sequenced route exists for this query");
    }
    writeln!(out, "{} skyline route(s):", routes.len())?;
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
        writeln!(
            out,
            "  {:>10.1} m  semantic {:.3}   {}",
            r.length.get(),
            r.semantic,
            labels.join(" -> ")
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replay_args(flags: &[&str]) -> Args {
        let argv = ["replay"].iter().chain(flags).map(|s| s.to_string()).collect();
        Args::parse(argv).expect("valid arguments")
    }

    #[test]
    fn a_city_override_reaches_the_twin() {
        let row = scenario::find("repair/waves").expect("a table row");
        let flags = replay_args(&["--preset", "nyc-small", "--scale", "2.0"]);
        let (row, city) = override_row(flags, row, false, false).expect("valid overrides");
        let twin = row.twin_row().expect("repair/waves has a twin");
        assert_eq!(twin.city, City { preset: Preset::NycSmall, scale: 2.0 });
        assert_eq!(city.city, twin.city);
        // The monolith twin scales the overridden city, not the table's.
        let row = scenario::find("shards/four").expect("a table row");
        let (row, _) = override_row(replay_args(&["--scale", "0.25"]), row, false, false)
            .expect("valid overrides");
        assert_eq!(row.twin_row().expect("a twin").city.scale, 1.0);
    }
}
