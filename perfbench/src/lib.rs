//! `skysr-perfbench`: the repository's benchmark. One command takes a
//! workload and a seed, drives the serving stack through its public API on
//! the paper's Tokyo city, checks the answers, and prints the end-to-end
//! metrics, or, traced, the per-layer ones. `README.md` beside this crate
//! says what each workload and metric is for.

pub mod drive;
pub mod inputs;
pub mod layers;
pub mod mem;
pub mod pace;
pub mod stack;
pub mod stats;
pub mod trace;
pub mod verify;
pub mod work;

use drive::{Load, Round};
use inputs::{City, Fingerprint, WAVE_EVERY};
use skysr_service::{QueryService, Served};
use stack::{SetupTimes, Stack};
use trace::Tracer;
use verify::Verdict;
use work::Work;

/// A traffic mix. The names are fixed: results elsewhere cite them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Distinct §7.1 queries, k = 2, 3, 4: engine and graph work.
    Cold,
    /// Zipf(1.0) over 400 resident k = 3 queries: every request a cache hit.
    Hot,
    /// `hot` plus a weight wave after every 1,000 requests, with repair on.
    Churn,
    /// `hot` through a loopback `skysr-d`.
    Wire,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [Workload::Cold, Workload::Hot, Workload::Churn, Workload::Wire];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Cold => "cold",
            Workload::Hot => "hot",
            Workload::Churn => "churn",
            Workload::Wire => "wire",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests per second of `--seconds` a run's fixed work is sized at:
    /// about what two client threads get from two workers on a 2-vCPU
    /// x86-64 VM, so there the window lasts about `--seconds`.
    fn nominal_qps(self) -> f64 {
        match self {
            Workload::Cold => 310.0,
            Workload::Hot => 75_000.0,
            Workload::Churn => 9_000.0,
            Workload::Wire => 2_400.0,
        }
    }

    /// Set-ups per run, whose median is `setup_s`: at least three, and
    /// more where one is short enough that its noise would dominate.
    fn setups(self) -> usize {
        match self {
            Workload::Cold => 7,
            Workload::Hot | Workload::Churn | Workload::Wire => 3,
        }
    }
}

/// Equal rounds a window is split into. Each round is paced by the
/// reference jobs run around and between its slices, and the window's
/// throughput is the median over the rounds, which a burst of host noise
/// in a minority of them does not move.
pub const ROUNDS: usize = 9;
/// Equal slices a round is split into: the reference jobs that pace the
/// host run between them, about once a second on the reference VM, which
/// costs a tenth of the window.
pub const SLICES: usize = 3;
/// The fewest requests a round holds, so that a window's p99 rests on at
/// least 90 samples beyond it.
pub const MIN_ROUND: usize = 1_000;

/// One run's configuration.
#[derive(Clone, Debug)]
pub struct Options {
    /// The traffic mix.
    pub workload: Workload,
    /// Seed of the queries and the weight waves.
    pub seed: u64,
    /// Requests in the window: a multiple of `rounds` × `slices`, and on
    /// `churn` each slice a multiple of [`WAVE_EVERY`].
    pub requests: usize,
    /// Equal rounds of the window.
    pub rounds: usize,
    /// Equal slices of a round.
    pub slices: usize,
    /// Set-ups whose median is `setup_s`.
    pub setups: usize,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// The city served.
    pub city: City,
    /// Service workers.
    pub workers: usize,
    /// Closed-loop client threads (connections on `wire`).
    pub clients: usize,
}

impl Options {
    /// The benchmark as run: Tokyo, `nproc` workers and clients, and fixed
    /// work sized to last about `seconds` on the reference VM.
    pub fn sized(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Options {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let unit = SLICES * if workload == Workload::Churn { WAVE_EVERY } else { 1 };
        let wanted = (workload.nominal_qps() * seconds / ROUNDS as f64).max(MIN_ROUND as f64);
        let per_round = (wanted / unit as f64).ceil() as usize * unit;
        Options {
            workload,
            seed,
            requests: per_round * ROUNDS,
            rounds: ROUNDS,
            slices: SLICES,
            setups: workload.setups(),
            trace,
            city: City::TOKYO,
            workers: nproc,
            clients: nproc,
        }
    }
}

/// A metric as printed: name, value, unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.into(), value, unit }
    }
}

/// What one run measured.
pub struct Report {
    /// The generated city's identity.
    pub fingerprint: Fingerprint,
    /// The window's work.
    pub work: Work,
    /// The correctness verdict.
    pub verdict: Verdict,
    /// End-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Latency samples behind `p50_ms` and `p99_ms`, and how many of them
    /// lie beyond p99.
    pub samples: (usize, usize),
    /// p50 and p99 in ms as measured, before pacing.
    pub measured_ms: (f64, f64),
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Every set-up's step times, as measured; the first built the stack
    /// that served.
    pub setups: Vec<SetupTimes>,
    /// Per set-up, the factor that converts its time to the reference pace.
    pub setup_scales: Vec<f64>,
    /// The window's rounds.
    pub rounds: Vec<Round>,
    /// Per round, its throughput at the reference pace.
    pub round_qps: Vec<f64>,
}

/// Runs `opts` once.
pub fn run(opts: &Options, tracer: &Tracer) -> Result<Report, String> {
    let w = opts.workload;
    let inputs = inputs::generate(opts.city, w, opts.seed, opts.requests, opts.workers);
    if !mem::reset_peak_rss() {
        return Err("the kernel offers no peak-RSS reset (/proc/self/clear_refs)".into());
    }
    // Every set-up lies between two reference searches.
    let probe = || inputs.pace.search(opts.clients);
    let mut paces = vec![probe()];
    let (stack, first) = Stack::set_up(w, &inputs, opts.workers, opts.clients, tracer)?;
    paces.push(probe());
    let before = stack.service.metrics();
    let epoch0 = stack.ctx.current_epoch().get();
    let load = Load {
        clients: stack.clients(opts.clients),
        pool: &inputs.pool,
        stream: &inputs.stream,
        rounds: opts.rounds,
        slices: opts.slices,
        waves: (w == Workload::Churn).then(|| (&inputs.waves[..], &*stack.ctx)),
        pace: Some(&inputs.pace),
    };
    // A traced run leaves every other round untraced: the gap between the
    // two is the tracing overhead.
    let window = drive::run(&load, tracer, |r| r % 2 == 1);
    drop(load);
    let rss_peak_mb = mem::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
    let after = stack.service.metrics();
    let epochs = stack.ctx.current_epoch().get() - epoch0;
    let verdict = verify::verify(
        &stack.ctx,
        &inputs.pool,
        &inputs.stream,
        &window.outcomes,
        after.stale_served,
    );
    let work = Work::count(&window.outcomes, after.executed - before.executed, epochs);
    let mut layers = if opts.trace {
        layers::measure(&stack, &inputs, &window, w, opts.clients, tracer)
    } else {
        Vec::new()
    };
    stack.tear_down();

    let mut setups = vec![first];
    let mut setup_scales = vec![pace::REFERENCE_S * 2.0 / (paces[0] + paces[1])];
    for _ in 1..opts.setups {
        let before = probe();
        let (stack, times) = Stack::set_up(w, &inputs, opts.workers, opts.clients, tracer)?;
        stack.tear_down();
        setups.push(times);
        setup_scales.push(pace::REFERENCE_S * 2.0 / (before + probe()));
    }

    // Outcomes are in stream order and rounds are consecutive equal
    // shares of the stream.
    let per_round = window.outcomes.len() / opts.rounds;
    let mut latencies = Vec::with_capacity(window.outcomes.len());
    let round_qps: Vec<f64> = window
        .outcomes
        .chunks(per_round)
        .zip(&window.rounds)
        .map(|(outcomes, round)| at_pace(outcomes, round, &mut latencies))
        .collect();
    let latencies = stats::Latencies::new(latencies);
    let measured = stats::Latencies::new(
        window.outcomes.iter().map(|o| o.result.is_ok().then_some(o.latency.as_secs_f64())),
    );
    let setup_s: Vec<f64> = setups.iter().zip(&setup_scales).map(|(s, k)| s.total * k).collect();
    let end_to_end = vec![
        Metric::new("throughput_qps", stats::median(&round_qps), "q/s"),
        Metric::new("p50_ms", latencies.quantile(0.50) * 1e3, "ms"),
        Metric::new("p99_ms", latencies.quantile(0.99) * 1e3, "ms"),
        Metric::new("setup_s", stats::median(&setup_s), "s"),
        Metric::new("rss_peak_mb", rss_peak_mb, "MiB"),
    ];
    if opts.trace {
        layers.extend(layers::from_setups(&setups, w));
        layers.push(layers::overhead(&window.rounds));
    }
    Ok(Report {
        fingerprint: inputs.fingerprint,
        work,
        verdict,
        end_to_end,
        samples: (latencies.len(), stats::beyond(latencies.len(), 0.99)),
        measured_ms: (measured.quantile(0.50) * 1e3, measured.quantile(0.99) * 1e3),
        layers,
        setups,
        setup_scales,
        rounds: window.rounds,
        round_qps,
    })
}

/// Appends each answer's time in `outcomes` at the reference pace to
/// `latencies` (`None` for a failure), and returns the round's throughput
/// at that pace. An answer that waited for a graph search has its time
/// multiplied by the round's [`Round::scale`]. One that needed none — a
/// cache hit, or a repair that proved every cached route untouched — spends
/// its time in thread hand-offs, which do not slow with the host as graph
/// work does (a busy host that slowed the reference search by a third left
/// the median hit's time as it was), so its time is multiplied by
/// [`Round::handoff_scale`] instead. The round's wall time is multiplied by
/// the ratio of the answers' summed times after and before.
fn at_pace(outcomes: &[drive::Outcome], round: &Round, latencies: &mut Vec<Option<f64>>) -> f64 {
    let (mut measured, mut paced) = (0.0, 0.0);
    latencies.extend(outcomes.iter().map(|o| {
        let response = o.result.as_ref().ok()?;
        let secs = o.latency.as_secs_f64();
        let at_pace =
            secs * if searched(response.served) { round.scale } else { round.handoff_scale };
        measured += secs;
        paced += at_pace;
        Some(at_pace)
    }));
    let scale = if measured > 0.0 { paced / measured } else { round.scale };
    round.completed as f64 / (round.wall.as_secs_f64() * scale)
}

/// Whether an answer served as `served` waited for a graph search.
fn searched(served: Served) -> bool {
    !matches!(
        served,
        Served::CacheHit | Served::Repaired { fallback: false, routes_rescored: 0, .. }
    )
}
