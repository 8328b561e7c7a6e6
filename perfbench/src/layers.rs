//! Per-layer metrics of a traced run: the benchmark's own calls into each
//! layer's public functions, timed as spans after the window. Every
//! workload reports every metric, from its own stack and responses; a
//! metric only the other workloads exercise is predicted flat here.

use std::collections::{HashMap, HashSet};

use skysr_core::bssr::bounds::{LowerBoundMode, MinDistBounds};
use skysr_core::bssr::nninit::nninit;
use skysr_core::bssr::{Bssr, BssrConfig, BssrScratch};
use skysr_core::dominance::SkylineSet;
use skysr_core::stats::QueryStats;
use skysr_core::PreparedQuery;
use skysr_graph::dijkstra::{dijkstra, shortest_distance};
use skysr_graph::{DijkstraWorkspace, EpochId};
use skysr_service::net::wire::MAX_FRAME;
use skysr_service::net::{Frame, FrameReader};
use skysr_service::telemetry::Rung;
use skysr_service::{
    QueryKey, QueryRequest, QueryService, ResultCache, ReusePlanner, ReuseStrategies, Served,
};

use crate::drive::{self, Load, Round, Window};
use crate::inputs::{Inputs, PROBE_WAVES};
use crate::stack::{SetupTimes, Stack};
use crate::stats::{median, nearest_rank, sorted};
use crate::trace::Tracer;
use crate::{Metric, Workload};

/// Full single-source searches timed, from the stream's first starts.
const SSSP_STARTS: usize = 8;
/// Point-to-point searches timed, over skyline legs of the responses.
const P2P_LEGS: usize = 32;
/// Stale skylines repaired, and requests framed on the wire.
const SAMPLE: usize = 48;
/// Resident keys the planner and cache calls are timed on.
const KEYS: usize = 400;
/// Epoch pairs whose delta index is built.
const PAIRS: u64 = 16;

/// Everything measured after the window, on the still-running stack.
pub fn measure(
    stack: &Stack,
    inputs: &Inputs,
    window: &Window,
    workload: Workload,
    clients: usize,
    tracer: &Tracer,
) -> Vec<Metric> {
    let ctx = &stack.ctx;
    let answers: Vec<_> =
        window.outcomes.iter().filter_map(|o| o.result.as_ref().ok().map(|r| (o, r))).collect();
    let mut m = Vec::new();

    // graph: full searches, point-to-point legs, landmarks, weight waves
    // and their delta indexes.
    let graph = ctx.graph();
    let mut ws = DijkstraWorkspace::new(graph.num_vertices());
    let mut seen = HashSet::new();
    let starts = inputs.stream.iter().map(|&i| inputs.pool[i].start).filter(|&s| seen.insert(s));
    let mut settled_per_ms = Vec::new();
    for s in starts.take(SSSP_STARTS) {
        let (stats, secs) = tracer.time("graph.dijkstra", "", None, || dijkstra(graph, &mut ws, s));
        settled_per_ms.push(stats.settled as f64 / (secs * 1e3));
    }
    m.push(ms("graph.sssp_ms", &tracer.durations("graph.dijkstra", "")));
    m.push(Metric::new("graph.settled_per_ms", median(&settled_per_ms), "1/ms"));
    let mut legs = Vec::new();
    for (o, r) in &answers {
        let start = inputs.pool[inputs.stream[o.index]].start;
        for route in r.routes.iter() {
            let mut from = start;
            for &to in &route.pois {
                legs.push((from, to));
                from = to;
            }
        }
        if legs.len() >= P2P_LEGS {
            break;
        }
    }
    for &(from, to) in legs.iter().take(P2P_LEGS) {
        tracer.time("graph.shortest_distance", "", None, || {
            shortest_distance(graph, &mut ws, from, to)
        });
    }
    m.push(ms("graph.p2p_ms", &tracer.durations("graph.shortest_distance", "")));
    if workload != Workload::Churn {
        let secs = tracer.time("graph.landmarks", "", None, || ctx.landmarks().is_some()).1;
        m.push(Metric::new("graph.landmarks_s", secs, "s"));
        for wave in inputs.waves.iter().take(PROBE_WAVES) {
            tracer.time("graph.publish_weights", "", None, || ctx.publish_weights(wave));
        }
    }
    m.push(ms("graph.publish_ms", &tracer.durations("graph.publish_weights", "")));
    // Pairs from the first epochs: any index the workers built for them
    // has long left the service's ring, so each call builds afresh.
    let pairs = PAIRS.min(ctx.current_epoch().get());
    for e in 0..pairs {
        tracer.time("graph.delta_index", "", None, || ctx.delta_index(EpochId(e), EpochId(e + 1)));
    }
    m.push(ms("graph.delta_index_ms", &tracer.durations("graph.delta_index", "")));

    // core: the probe queries phase by phase at the base epoch.
    let base = ctx.pin_at(EpochId::BASE).expect("retention is unlimited");
    let qctx = base.query_context();
    let mut bssr = Bssr::with_config(&qctx, BssrConfig::default());
    let mut search_secs = HashMap::new();
    let mut counts: HashMap<&str, [f64; 6]> = HashMap::new();
    for (i, q) in inputs.probe.iter().enumerate() {
        let k = k_label(q.len());
        let (pq, _) = tracer.time("core.prepare", k, None, || PreparedQuery::prepare(&qctx, q));
        let pq = pq.expect("generated queries are valid");
        let (mut skyline, mut stats) = (SkylineSet::new(), QueryStats::default());
        tracer
            .time("core.nninit", k, None, || nninit(&qctx, &pq, &mut ws, &mut skyline, &mut stats));
        let l_phi = skyline.threshold_zero();
        tracer.time("core.bounds", k, None, || {
            MinDistBounds::compute(&qctx, &pq, l_phi, LowerBoundMode::Full, &mut ws, &mut stats)
        });
        let (result, secs) = tracer.time("core.run_prepared", k, None, || bssr.run_prepared(&pq));
        search_secs.insert(i, secs);
        let s = &result.stats;
        let invocations = s.mdijkstra_invocations().max(1) as f64;
        let c = counts.entry(k).or_default();
        for (slot, v) in c.iter_mut().zip([
            s.search.settled as f64,
            s.search.relaxed as f64,
            s.routes_enqueued as f64,
            s.lower_bound_prunes as f64,
            result.routes.len() as f64,
            s.cache_hits as f64 / invocations,
        ]) {
            *slot += v;
        }
    }
    for k in ["k2", "k3", "k4"] {
        let prep = tracer.durations("core.prepare", k);
        let nn = tracer.durations("core.nninit", k);
        let bounds = tracer.durations("core.bounds", k);
        let search = tracer.durations("core.run_prepared", k);
        let expand: Vec<f64> =
            search.iter().zip(&nn).zip(&bounds).map(|((s, n), b)| s - n - b).collect();
        m.push(us(&format!("core.prepare_us.{k}"), &prep));
        m.push(ms(&format!("core.nninit_ms.{k}"), &nn));
        m.push(ms(&format!("core.bounds_ms.{k}"), &bounds));
        m.push(ms(&format!("core.search_ms.{k}"), &search));
        m.push(ms(&format!("core.expand_ms.{k}"), &expand));
        let n = search.len().max(1) as f64;
        let c = counts.get(k).copied().unwrap_or_default();
        for (name, v) in
            ["settled", "relaxed", "routes_enqueued", "lb_prunes", "skyline_routes"].iter().zip(c)
        {
            m.push(Metric::new(format!("core.{name}.{k}"), v / n, "count"));
        }
        m.push(Metric::new(format!("core.mdijkstra_hit_ratio.{k}"), c[5] / n, "ratio"));
    }

    // core: stale skylines repaired one epoch forward.
    let mut scratch = Some(BssrScratch::new(graph.num_vertices()));
    let mut repaired = 0;
    for (o, r) in &answers {
        if repaired == SAMPLE {
            break;
        }
        let (from, to) = (r.epoch, EpochId(r.epoch.get() + 1));
        let (Some(index), Some(pinned)) = (ctx.delta_index(from, to), ctx.pin_at(to)) else {
            continue;
        };
        let qctx = pinned.query_context();
        let scratch_in = scratch.take().expect("scratch is recycled");
        let mut engine = Bssr::with_scratch(&qctx, BssrConfig::default(), scratch_in);
        let query = &inputs.pool[inputs.stream[o.index]];
        let start = tracer.now();
        let result = engine.repair(query, &r.routes, &index, ctx.landmarks());
        let end = tracer.now();
        scratch = Some(engine.into_scratch());
        let tier = result.expect("resident queries are valid").repair.outcome.label();
        tracer.record("core.repair", tier, start, end);
        repaired += 1;
    }
    let tiers = [("untouched", "untouched"), ("rescored", "rescored"), ("fallback", "researched")];
    for (name, tier) in tiers {
        m.push(ms(&format!("core.repair_ms.{name}"), &tracer.durations("core.repair", tier)));
    }
    let fallbacks = tracer.durations("core.repair", "researched").len();
    m.push(Metric::new("core.repair_fallback_ratio", ratio(fallbacks, repaired), "ratio"));

    // service: the planner and cache calls on resident keys, in a cache of
    // the service's size filled with the window's latest answers.
    let config = stack.service.config();
    let planner = ReusePlanner::new(ReuseStrategies::resolve(&config), config.engine);
    let cache = ResultCache::new(config.cache_capacity.max(1));
    let mut resident = HashMap::new();
    for (o, r) in answers.iter().rev() {
        if resident.len() == KEYS {
            break;
        }
        resident.entry(inputs.stream[o.index]).or_insert(*r);
    }
    for (&i, r) in &resident {
        let key = QueryKey::canonicalize(&inputs.pool[i], config.engine);
        cache.insert(key, r.epoch, r.routes.clone());
    }
    for (&i, r) in &resident {
        let query = &inputs.pool[i];
        let (key, _) = tracer.time("service.canonicalize", "", None, || {
            QueryKey::canonicalize(query, config.engine)
        });
        tracer.time("service.probe", "", None, || cache.probe(&key, r.epoch));
        tracer.time("service.plan", "", None, || {
            planner.plan(query, Some(&key), r.epoch, &cache, ctx)
        });
    }
    m.push(us("service.canonicalize_us", &tracer.durations("service.canonicalize", "")));
    m.push(us("service.probe_us", &tracer.durations("service.probe", "")));
    m.push(us("service.plan_us", &tracer.durations("service.plan", "")));
    let waits =
        sorted(&answers.iter().map(|(_, r)| r.queue_wait.as_secs_f64()).collect::<Vec<_>>());
    for (name, q) in [("p50", 0.5), ("p99", 0.99)] {
        let v = if waits.is_empty() { 0.0 } else { nearest_rank(&waits, q) * 1e6 };
        m.push(Metric::new(format!("service.queue_wait_us.{name}"), v, "us"));
    }
    // Self time: client latency less the engine time of the same query —
    // none for answers served from memory, the probe's re-run for the
    // `cold` requests the probe repeated.
    let self_secs: Vec<f64> = answers
        .iter()
        .filter_map(|(o, r)| match r.served {
            Served::CacheHit | Served::Coalesced => Some(o.latency.as_secs_f64()),
            _ if workload == Workload::Cold => {
                search_secs.get(&o.index).map(|s| o.latency.as_secs_f64() - s)
            }
            _ => None,
        })
        .collect();
    m.push(us("service.self_us", &self_secs));
    for rung in Rung::ALL {
        let n = answers.iter().filter(|(_, r)| Rung::of(r.served) == rung).count();
        let name = format!("service.rung_share.{}", rung.label());
        m.push(Metric::new(name, ratio(n, window.outcomes.len()), "ratio"));
    }

    // net: the workload's Submit and Final frames through the codec.
    let mut frame_bytes = 0;
    let mut framed = 0;
    for (o, r) in answers.iter().take(SAMPLE) {
        let request = QueryRequest::new(inputs.pool[inputs.stream[o.index]].clone());
        let id = o.index as u64;
        let frames = [
            ("submit", Frame::Submit { id, streaming: false, request }),
            ("final", Frame::Final { id, response: (*r).clone() }),
        ];
        for (kind, frame) in frames {
            let (bytes, _) = tracer.time("net.encode", kind, None, || frame.to_bytes());
            let mut reader = FrameReader::new(MAX_FRAME);
            let (decoded, _) = tracer.time("net.decode", kind, None, || {
                reader.extend(&bytes);
                reader.next_frame()
            });
            assert!(matches!(decoded, Ok(Some(_))), "a frame the codec encoded decodes");
            frame_bytes += bytes.len();
        }
        framed += 1;
    }
    for (name, call) in [("net.encode_us", "net.encode"), ("net.decode_us", "net.decode")] {
        let per_request: Vec<f64> = tracer
            .durations(call, "submit")
            .iter()
            .zip(tracer.durations(call, "final"))
            .map(|(s, f)| s + f)
            .collect();
        m.push(us(name, &per_request));
    }
    m.push(Metric::new("net.frame_bytes", ratio(frame_bytes, framed), "B"));

    // net: the wire's tax over the same stream served in process.
    let tax = if workload == Workload::Wire {
        let load = Load {
            clients: (0..clients).map(|_| &*stack.service as &dyn QueryService).collect(),
            pool: &inputs.pool,
            stream: &inputs.stream,
            rounds: 1,
            slices: 1,
            waves: None,
            pace: None,
        };
        let local = drive::run(&load, tracer, |_| false);
        let wire_lat: Vec<f64> = answers.iter().map(|(o, _)| o.latency.as_secs_f64()).collect();
        let local_lat: Vec<f64> = local.outcomes.iter().map(|o| o.latency.as_secs_f64()).collect();
        (median(&wire_lat) - median(&local_lat)) * 1e6
    } else {
        0.0
    };
    m.push(Metric::new("net.tax_us", tax, "us"));
    m
}

/// Set-up steps' metrics, each the median over a run's set-ups.
pub fn from_setups(setups: &[SetupTimes], workload: Workload) -> Vec<Metric> {
    let step = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let mut m = vec![
        Metric::new("data.load_s", step(|s| s.load), "s"),
        Metric::new("service.spawn_ms", step(|s| s.spawn) * 1e3, "ms"),
        Metric::new("service.prefill_s", step(|s| s.prefill), "s"),
    ];
    if workload == Workload::Churn {
        m.push(Metric::new("graph.landmarks_s", step(|s| s.landmarks), "s"));
    }
    m
}

/// `trace.overhead_pct`: how much longer a traced round took than an
/// untraced one at the reference pace (medians; rounds are equal work).
pub fn overhead(rounds: &[Round]) -> Metric {
    let wall = |traced: bool| {
        median_or_zero(
            &rounds
                .iter()
                .filter(|r| r.traced == traced)
                .map(|r| r.wall.as_secs_f64() * r.scale)
                .collect::<Vec<_>>(),
        )
    };
    let (traced, untraced) = (wall(true), wall(false));
    let pct = if traced > 0.0 && untraced > 0.0 { (traced / untraced - 1.0) * 100.0 } else { 0.0 };
    Metric::new("trace.overhead_pct", pct, "%")
}

fn k_label(k: usize) -> &'static str {
    match k {
        2 => "k2",
        3 => "k3",
        4 => "k4",
        _ => unreachable!("probe queries have k = 2, 3 or 4"),
    }
}

fn ratio(n: usize, of: usize) -> f64 {
    if of == 0 {
        0.0
    } else {
        n as f64 / of as f64
    }
}

fn median_or_zero(secs: &[f64]) -> f64 {
    if secs.is_empty() {
        0.0
    } else {
        median(secs)
    }
}

fn ms(name: &str, secs: &[f64]) -> Metric {
    Metric::new(name, median_or_zero(secs) * 1e3, "ms")
}

fn us(name: &str, secs: &[f64]) -> Metric {
    Metric::new(name, median_or_zero(secs) * 1e6, "us")
}
