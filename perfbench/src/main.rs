//! `perfbench --workload <cold|hot|churn|wire> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the repository root. Prints JSON lines: the run's provenance,
//! its work, one row per metric, and last the result object. Exits nonzero,
//! naming the workload, when an answer is wrong, a request fails or the work
//! differs from what this seed did before in this checkout.

use std::path::Path;
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

use perfbench::trace::Tracer;
use perfbench::work::Work;
use perfbench::{Options, Report, Workload};

const USAGE: &str =
    "usage: perfbench --workload <cold|hot|churn|wire> --seed <n> --seconds <s> --trace <0|1>";

/// Where a checkout keeps what runs leave behind: work records and traces.
const STATE_DIR: &str = ".perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().ok().filter(|s| *s > 0.0).ok_or_else(bad)?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let started = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
    let opts = Options::sized(args.workload, args.seed, args.seconds, args.trace);
    let tracer = Tracer::new(args.trace);
    let report = match perfbench::run(&opts, &tracer) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("{}", provenance(&opts, &report, started));
    let record = Path::new(STATE_DIR)
        .join("work")
        .join(format!("{name}-seed{}-{}.txt", args.seed, opts.requests));
    let differences = check_work(&report, &record, args.workload);
    println!("{{\"work\":{{{}}}}}", json_pairs(&report.work));
    eprintln!("{name}: work {}", report.work.line());
    let v = &report.verdict;
    eprintln!(
        "{name}: verdict: {} responses re-answered over {} epochs, {} mismatches, {} failed, \
         {} stale serves",
        v.checked, v.epochs, v.mismatches, v.failed, v.stale_served
    );
    let error_rate = report.work.failed as f64 / report.work.requests as f64;
    eprintln!(
        "{name}: error_rate {error_rate} ({} failed / {} attempted); p50/p99 over {} samples, {} \
         beyond p99",
        report.work.failed, report.work.requests, report.samples.0, report.samples.1
    );

    let measured: Vec<String> = report
        .rounds
        .iter()
        .map(|r| format!("{:.1}", r.completed as f64 / r.wall.as_secs_f64()))
        .collect();
    let paced: Vec<String> = report.round_qps.iter().map(|q| format!("{q:.1}")).collect();
    let scales: Vec<String> =
        report.rounds.iter().map(|r| format!("{:.3}/{:.3}", r.scale, r.handoff_scale)).collect();
    eprintln!(
        "{name}: rounds q/s as measured [{}], at the reference pace [{}]; scale search/hand-off \
         [{}]; p50/p99 ms as measured {:.4}/{:.4}",
        measured.join(" "),
        paced.join(" "),
        scales.join(" "),
        report.measured_ms.0,
        report.measured_ms.1
    );
    let setups: Vec<String> = report
        .setups
        .iter()
        .zip(&report.setup_scales)
        .map(|(s, k)| format!("{:.3}x{:.3}", s.total, k))
        .collect();
    eprintln!("{name}: set-ups s as measured x scale [{}]", setups.join(" "));
    let rounds: Vec<String> = report
        .rounds
        .iter()
        .zip(&report.round_qps)
        .map(|(r, q)| {
            format!(
                "{{\"completed\":{},\"wall_s\":{},\"scale\":{},\"handoff_scale\":{},\
                 \"qps\":{}}}",
                r.completed,
                number(r.wall.as_secs_f64()),
                number(r.scale),
                number(r.handoff_scale),
                number(*q)
            )
        })
        .collect();
    let setups: Vec<String> = report
        .setups
        .iter()
        .zip(&report.setup_scales)
        .map(|(s, k)| format!("{{\"s\":{},\"scale\":{}}}", number(s.total), number(*k)))
        .collect();
    println!(
        "{{\"rounds\":[{}],\"setups\":[{}],\"measured_p50_ms\":{},\"measured_p99_ms\":{}}}",
        rounds.join(","),
        setups.join(","),
        number(report.measured_ms.0),
        number(report.measured_ms.1)
    );

    let metrics = if args.trace { &report.layers } else { &report.end_to_end };
    for m in metrics {
        println!(
            "{{\"row\":{{\"workload\":\"{name}\",\"seed\":{},\"metric\":\"{}\",\"value\":{},\
             \"unit\":\"{}\"}}}}",
            args.seed,
            m.name,
            number(m.value),
            m.unit
        );
    }
    if args.trace {
        let path =
            Path::new(STATE_DIR).join("trace").join(format!("{name}-seed{}.jsonl", args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => eprintln!("{name}: spans written to {}", path.display()),
            Err(e) => eprintln!("{name}: writing spans to {}: {e}", path.display()),
        }
    }

    for d in &differences {
        eprintln!("perfbench: {name}: work differs from this seed's record: {d}");
    }
    let correct = report.verdict.passed() && differences.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, number(m.value), m.unit)
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.work.requests,
        report.work.failed,
        body.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {name}: FAILED the correctness verdict");
        ExitCode::FAILURE
    }
}

/// Compares the run's work with the record this seed's first run in this
/// checkout left, writing the record if there is none and the run passed
/// its verdict. Returns the differences.
fn check_work(report: &Report, record: &Path, workload: Workload) -> Vec<String> {
    let work = &report.work;
    match std::fs::read_to_string(record) {
        Ok(text) => match Work::parse(text.trim()) {
            Some(recorded) => work.differences(&recorded, workload),
            None => vec![format!("unreadable record {}", record.display())],
        },
        Err(_) if !report.verdict.passed() => Vec::new(),
        Err(_) => {
            let written = record
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::write(record, work.line() + "\n"));
            if let Err(e) = written {
                eprintln!("perfbench: recording work to {}: {e}", record.display());
            }
            Vec::new()
        }
    }
}

fn provenance(opts: &Options, report: &Report, started: u64) -> String {
    let f = report.fingerprint;
    format!(
        "{{\"provenance\":{{\"git_rev\":\"{}\",\"nproc\":{},\"rustc\":\"{}\",\
         \"dataset\":{{\"preset\":\"{:?}\",\"scale\":{},\"seed\":{}}},\
         \"fingerprint\":{{\"vertices\":{},\"arcs\":{},\"pois\":{}}},\
         \"workload\":\"{}\",\"workload_seed\":{},\"requests\":{},\"rounds\":{},\"setups\":{},\
         \"workers\":{},\"clients\":{},\"trace\":{},\"started_unix_s\":{started}}}}}",
        command_line("git", &["rev-parse", "HEAD"]),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        command_line("rustc", &["-V"]),
        opts.city.preset,
        number(opts.city.scale),
        opts.city.seed,
        f.vertices,
        f.arcs,
        f.pois,
        opts.workload.name(),
        opts.seed,
        opts.requests,
        opts.rounds,
        opts.setups,
        opts.workers,
        opts.clients,
        opts.trace,
    )
}

/// The first output line of `program args`, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    let mut command = std::process::Command::new(program);
    // git looks for a repository no higher than the working directory.
    if let Some(parent) = std::env::current_dir().ok().as_deref().and_then(Path::parent) {
        command.env("GIT_CEILING_DIRECTORIES", parent);
    }
    command
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| l.replace(['"', '\\'], "")))
        .unwrap_or_else(|| "unknown".into())
}

fn json_pairs(work: &Work) -> String {
    let pairs: Vec<String> = work.fields().iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    pairs.join(",")
}

/// A JSON number with every digit Rust's shortest round-trip form keeps;
/// `null` for a value JSON cannot hold.
fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}
