//! The closed-loop load: `clients` threads, each with one request
//! outstanding, because a trip planner waits for its route before asking
//! again. Latency is timed client-side, from submit to answer.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use skysr_core::error::QueryError;
use skysr_core::SkySrQuery;
use skysr_graph::WeightDelta;
use skysr_service::{QueryRequest, QueryResponse, QueryService, ServiceContext};

use crate::inputs::WAVE_EVERY;
use crate::pace::{Pace, REFERENCE_HANDOFF_S, REFERENCE_S};
use crate::stats;
use crate::trace::{Span, Tracer};

/// One request's fate.
pub struct Outcome {
    /// Its position in the stream.
    pub index: usize,
    /// Submit to answer, client-side.
    pub latency: Duration,
    /// The answer.
    pub result: Result<QueryResponse, QueryError>,
}

/// One equal share of a run's requests.
#[derive(Clone, Copy, Debug)]
pub struct Round {
    /// Requests answered successfully.
    pub completed: usize,
    /// Wall time, weight waves included.
    pub wall: Duration,
    /// Converts the round's graph-search times to the reference pace:
    /// [`REFERENCE_S`] over the median of the reference searches run around
    /// and between the round's slices; 1 in a window run without them.
    pub scale: f64,
    /// Converts the round's hand-off times to the reference pace:
    /// [`REFERENCE_HANDOFF_S`] over the median of the hand-off probes run
    /// around and between the round's slices; 1 without them.
    pub handoff_scale: f64,
    /// Whether its requests were traced.
    pub traced: bool,
}

/// What a timed window produced.
pub struct Window {
    /// Every request's outcome, in stream order.
    pub outcomes: Vec<Outcome>,
    /// The rounds, in order.
    pub rounds: Vec<Round>,
}

/// The load a window drives.
pub struct Load<'a> {
    /// One handle per client thread.
    pub clients: Vec<&'a dyn QueryService>,
    /// The query pool.
    pub pool: &'a [SkySrQuery],
    /// Pool index per request.
    pub stream: &'a [usize],
    /// Equal rounds the stream is split into.
    pub rounds: usize,
    /// Equal slices each round is split into. The reference jobs run
    /// before the first slice and after every slice, so the host's pace is
    /// sampled about once a second.
    pub slices: usize,
    /// `churn`: one wave is published on this context after every
    /// [`WAVE_EVERY`] requests drain.
    pub waves: Option<(&'a [Vec<WeightDelta>], &'a ServiceContext)>,
    /// The reference jobs, if the window's times are to be paced.
    pub pace: Option<&'a Pace>,
}

/// Drives the whole stream; requests of rounds for which `traced` holds
/// are recorded as spans.
pub fn run(load: &Load<'_>, tracer: &Tracer, traced: impl Fn(usize) -> bool) -> Window {
    let slices = load.rounds * load.slices;
    assert!(load.stream.len().is_multiple_of(slices), "rounds and slices must be equal");
    let per_slice = load.stream.len() / slices;
    assert!(
        load.waves.is_none() || per_slice.is_multiple_of(WAVE_EVERY),
        "slices of a workload with writes hold whole waves"
    );
    let chunk = if load.waves.is_some() { WAVE_EVERY } else { per_slice };
    let threads = load.clients.len();
    let probe = || load.pace.map(|p| (p.search(threads), p.handoff(threads)));
    let mut outcomes = Vec::with_capacity(load.stream.len());
    let mut rounds = Vec::with_capacity(load.rounds);
    let mut wave = 0;
    let mut last = probe();
    for r in 0..load.rounds {
        let trace = tracer.enabled() && traced(r);
        let start = outcomes.len();
        let mut paces: Vec<(f64, f64)> = last.into_iter().collect();
        let mut wall = Duration::ZERO;
        for s in 0..load.slices {
            let first = (r * load.slices + s) * per_slice;
            let t0 = Instant::now();
            for from in (first..first + per_slice).step_by(chunk) {
                outcomes.extend(serve(load, from..from + chunk, tracer, trace));
                if let Some((waves, ctx)) = load.waves {
                    let publish = || ctx.publish_weights(&waves[wave]);
                    if trace {
                        tracer.time("graph.publish_weights", "", None, publish);
                    } else {
                        publish();
                    }
                    wave += 1;
                }
            }
            wall += t0.elapsed();
            last = probe();
            paces.extend(last);
        }
        let completed = outcomes[start..].iter().filter(|o| o.result.is_ok()).count();
        let (scale, handoff_scale) = if paces.is_empty() {
            (1.0, 1.0)
        } else {
            let median =
                |f: fn(&(f64, f64)) -> f64| stats::median(&paces.iter().map(f).collect::<Vec<_>>());
            (REFERENCE_S / median(|p| p.0), REFERENCE_HANDOFF_S / median(|p| p.1))
        };
        rounds.push(Round { completed, wall, scale, handoff_scale, traced: trace });
    }
    outcomes.sort_by_key(|o| o.index);
    Window { outcomes, rounds }
}

/// Serves `range` of the stream with every client, each taking the next
/// request as soon as its previous one is answered.
fn serve(
    load: &Load<'_>,
    range: std::ops::Range<usize>,
    tracer: &Tracer,
    trace: bool,
) -> Vec<Outcome> {
    let next = AtomicUsize::new(range.start);
    std::thread::scope(|scope| {
        let threads: Vec<_> = load
            .clients
            .iter()
            .map(|&client| {
                let next = &next;
                let end = range.end;
                scope.spawn(move || {
                    let mut outcomes = Vec::new();
                    let mut spans = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= end {
                            break;
                        }
                        let request = QueryRequest::new(load.pool[load.stream[index]].clone());
                        let (latency, result) = if trace {
                            let (root, submit, wait) = (tracer.id(), tracer.id(), tracer.id());
                            let a = tracer.now();
                            let ticket = client.submit(request);
                            let b = tracer.now();
                            let result = ticket.wait();
                            let c = tracer.now();
                            let request = Some(index as u64);
                            let span = |id, parent, name, start, end| Span {
                                id,
                                parent,
                                request,
                                name,
                                detail: "",
                                start,
                                end,
                            };
                            spans.push(span(root, None, "client.request", a, c));
                            spans.push(span(submit, Some(root), "service.submit", a, b));
                            spans.push(span(wait, Some(root), "service.wait", b, c));
                            (c - a, result)
                        } else {
                            let t0 = Instant::now();
                            let result = client.submit(request).wait();
                            (t0.elapsed(), result)
                        };
                        outcomes.push(Outcome { index, latency, result });
                    }
                    (outcomes, spans)
                })
            })
            .collect();
        let mut all = Vec::with_capacity(range.len());
        for thread in threads {
            let (outcomes, spans) = thread.join().expect("a client thread panicked");
            all.extend(outcomes);
            tracer.extend(spans);
        }
        all
    })
}
