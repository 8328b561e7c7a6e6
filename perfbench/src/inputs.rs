//! Everything a run feeds the serving stack, made before any clock starts:
//! the serialized city, the resident query pool and the warm-up queries,
//! which are the same for every `--seed`, and from `--seed` the `cold`
//! queries, the request stream, the weight waves and the probe queries.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::SeedableRng;
use skysr_core::bssr::BssrConfig;
use skysr_core::SkySrQuery;
use skysr_data::codec;
use skysr_data::dataset::{Dataset, DatasetSpec, Preset};
use skysr_data::workload::WorkloadSpec;
use skysr_data::zipf::Zipf;
use skysr_graph::WeightDelta;
use skysr_service::replay::random_traffic_deltas;
use skysr_service::QueryKey;

use crate::pace::Pace;
use crate::Workload;

/// Distinct k = 3 queries the hit workloads draw from. All of them are
/// made resident during set-up, and 400 fits the default 1024-entry cache.
pub const RESIDENT: usize = 400;
/// `churn` publishes one weight wave after every this many requests drain.
/// A wave stales every resident skyline, so the next request for each key
/// repairs it. With a wave every 50 requests two thirds of the requests
/// were repairs and the median fell in the gap between hits (≈ 20 µs) and
/// repairs (≈ 1 ms): `p50_ms` spread 0.54 over five seeds. Every 1,000
/// requests, a fifth are repairs and the median is a hit's.
pub const WAVE_EVERY: usize = 1_000;
/// Arcs one weight wave reweights.
pub const WAVE_ARCS: usize = 32;
/// A reweighted arc gets its base weight times `2^u`, `u` uniform in [−1, 1].
pub const WAVE_MAGNITUDE: f64 = 2.0;
/// Weight waves the traced run of a workload without writes publishes after
/// its window, to time publishing, delta indexing and repair.
pub const PROBE_WAVES: usize = 8;
/// Cold queries per k the traced run times layer by layer.
pub const PROBE_PER_K: usize = 16;

/// The city a run serves. It is the same for every `--seed`: cities of
/// different seeds differ in how much work the same kind of query takes
/// (the skyline routes `cold` returned moved by 15% over seeds 1–10), and
/// that would read as run-to-run noise.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct City {
    /// Dataset preset.
    pub preset: Preset,
    /// Factor on the preset's |V| and |P|.
    pub scale: f64,
    /// Generation seed.
    pub seed: u64,
}

impl City {
    /// The paper's Tokyo at Table 5 size, with the 10-tree Foursquare
    /// taxonomy: what every workload serves.
    pub const TOKYO: City = City { preset: Preset::Tokyo, scale: 1.0, seed: 7 };

    /// The generation recipe.
    pub fn spec(self) -> DatasetSpec {
        DatasetSpec::preset(self.preset).scale(self.scale).seed(self.seed)
    }
}

/// The city's identity: the counts a loaded city must reproduce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Graph vertices (PoIs included).
    pub vertices: u64,
    /// Graph arcs.
    pub arcs: u64,
    /// PoIs.
    pub pois: u64,
}

impl Fingerprint {
    fn of(dataset: &Dataset) -> Fingerprint {
        Fingerprint {
            vertices: dataset.graph.num_vertices() as u64,
            arcs: dataset.graph.num_arcs() as u64,
            pois: dataset.pois.num_pois() as u64,
        }
    }
}

/// One run's inputs.
pub struct Inputs {
    /// The city, serialized: the only form in which the stack receives it.
    pub city: Vec<u8>,
    /// The generated city's identity.
    pub fingerprint: Fingerprint,
    /// Distinct queries the requests draw from.
    pub pool: Vec<SkySrQuery>,
    /// Per request, in submission order, its index into `pool`.
    pub stream: Vec<usize>,
    /// Weight waves: `churn` publishes them during its window, the other
    /// workloads' traced runs after theirs.
    pub waves: Vec<Vec<WeightDelta>>,
    /// One cold query per worker, paging in each worker's workspace; the
    /// same for every seed, since `setup_s` times them.
    pub warmup: Vec<SkySrQuery>,
    /// The cold queries the traced run times layer by layer, k = 2, 3, 4
    /// in turn; on `cold` they are the stream's first requests.
    pub probe: Vec<SkySrQuery>,
    /// The reference jobs, over the city's graph.
    pub pace: Pace,
}

/// Generates `workload`'s inputs for `seed`: `requests` requests, and a
/// warm-up query for each of `workers` workers.
pub fn generate(
    city: City,
    workload: Workload,
    seed: u64,
    requests: usize,
    workers: usize,
) -> Inputs {
    let dataset = city.spec().generate();
    let mut bytes = Vec::new();
    codec::write_dataset(&dataset, &mut bytes).expect("a generated city serializes");
    let probe = cold_queries(&dataset, seed, 3 * PROBE_PER_K);
    let (pool, stream) = match workload {
        Workload::Cold => (cold_queries(&dataset, seed, requests), (0..requests).collect()),
        Workload::Hot | Workload::Churn | Workload::Wire => {
            // The resident set is the city's, not the seed's: its 400
            // queries decide most of `churn`'s repair work. Drawn per seed,
            // its fallbacks moved by 16% and its throughput at the
            // reference pace by a third over ten seeds, while the host's
            // pace held within a twentieth.
            let pool = distinct(&dataset, 3, RESIDENT, city.seed ^ 0x6801);
            let zipf = Zipf::new(pool.len(), 1.0);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x7a1f);
            let stream = (0..requests).map(|_| zipf.sample(&mut rng)).collect();
            (pool, stream)
        }
    };
    let wave_count =
        if workload == Workload::Churn { requests.div_ceil(WAVE_EVERY) } else { PROBE_WAVES };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3a7e);
    let waves = (0..wave_count)
        .map(|_| random_traffic_deltas(&dataset.graph, WAVE_ARCS, WAVE_MAGNITUDE, &mut rng))
        .collect();
    Inputs {
        city: bytes,
        fingerprint: Fingerprint::of(&dataset),
        pool,
        stream,
        waves,
        warmup: distinct(&dataset, 2, workers, city.seed ^ 0x3a3f),
        probe,
        pace: Pace::new(&dataset.graph),
    }
}

/// `n` distinct paper §7.1 queries with k = 2, 3, 4 in turn.
fn cold_queries(dataset: &Dataset, seed: u64, n: usize) -> Vec<SkySrQuery> {
    // Queries of different lengths never coincide, so distinct per k is
    // distinct overall. Each k's sequence is a prefix of a longer one's, so
    // the probe queries are the `cold` stream's first requests.
    let per_k: Vec<Vec<SkySrQuery>> =
        (2..=4).map(|k| distinct(dataset, k, n.div_ceil(3), seed ^ 0xc01d0 ^ k as u64)).collect();
    (0..n).map(|i| per_k[i % 3][i / 3].clone()).collect()
}

/// `n` distinct k-position queries (random start, popular leaf categories
/// from distinct trees).
fn distinct(dataset: &Dataset, k: usize, n: usize, seed: u64) -> Vec<SkySrQuery> {
    let mut seen = HashSet::new();
    let mut want = n;
    loop {
        let queries: Vec<SkySrQuery> = WorkloadSpec::new(k)
            .queries(want)
            .seed(seed)
            .generate(dataset)
            .queries
            .into_iter()
            .filter(|q| seen.insert(QueryKey::canonicalize(q, BssrConfig::default())))
            .collect();
        if queries.len() >= n {
            return queries.into_iter().take(n).collect();
        }
        // A duplicate among `want` draws: draw more from the same stream.
        seen.clear();
        want += n / 8 + 8;
    }
}
