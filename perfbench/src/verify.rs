//! The correctness verdict: a deterministic sample of the window's
//! responses re-answered by a fresh sequential engine pinned at each
//! response's epoch.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use skysr_core::bssr::{Bssr, BssrConfig, BssrScratch};
use skysr_core::route::equivalent_skylines;
use skysr_core::SkySrQuery;
use skysr_graph::EpochId;
use skysr_service::ServiceContext;

use crate::drive::Outcome;

/// Responses re-answered at a stride; every epoch's and every k's first
/// response is added on top.
const SAMPLE: usize = 48;

/// What the re-answering found.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    /// Responses re-answered.
    pub checked: usize,
    /// Of those, answers not score-equivalent to the fresh search.
    pub mismatches: usize,
    /// Epochs the sample spans.
    pub epochs: usize,
    /// Requests that failed or were refused.
    pub failed: usize,
    /// Cache entries of another epoch served (the service's own count).
    pub stale_served: u64,
}

impl Verdict {
    /// Whether the run may report its numbers.
    pub fn passed(&self) -> bool {
        self.checked > 0 && self.mismatches == 0 && self.failed == 0 && self.stale_served == 0
    }
}

/// Re-answers a sample of `outcomes` (of requests for `pool[stream[i]]`)
/// on `ctx`; `stale_served` is the service's count.
pub fn verify(
    ctx: &ServiceContext,
    pool: &[SkySrQuery],
    stream: &[usize],
    outcomes: &[Outcome],
    stale_served: u64,
) -> Verdict {
    let stride = (outcomes.len() / SAMPLE).max(1);
    let (mut epochs, mut ks) = (HashSet::new(), HashSet::new());
    let mut by_epoch: BTreeMap<EpochId, BTreeSet<usize>> = BTreeMap::new();
    let mut failed = 0;
    for (pos, o) in outcomes.iter().enumerate() {
        let Ok(r) = &o.result else {
            failed += 1;
            continue;
        };
        let new_epoch = epochs.insert(r.epoch);
        let new_k = ks.insert(pool[stream[o.index]].len());
        if pos % stride == 0 || new_epoch || new_k {
            by_epoch.entry(r.epoch).or_default().insert(pos);
        }
    }
    let mut verdict =
        Verdict { epochs: by_epoch.len(), failed, stale_served, ..Verdict::default() };
    let mut scratch = BssrScratch::new(ctx.graph().num_vertices());
    for (epoch, positions) in by_epoch {
        let Some(pinned) = ctx.pin_at(epoch) else {
            // Retention is unlimited, so an unpinnable epoch is a fault.
            verdict.checked += positions.len();
            verdict.mismatches += positions.len();
            continue;
        };
        let qctx = pinned.query_context();
        let mut bssr = Bssr::with_scratch(&qctx, BssrConfig::default(), scratch);
        let mut oracle = HashMap::new();
        for pos in positions {
            let o = &outcomes[pos];
            let routes = &o.result.as_ref().expect("only answers are sampled").routes;
            let i = stream[o.index];
            let expected = oracle.entry(i).or_insert_with(|| {
                bssr.run(&pool[i]).map(|r| r.routes).expect("generated queries are valid")
            });
            verdict.checked += 1;
            if !equivalent_skylines(routes, expected) {
                verdict.mismatches += 1;
            }
        }
        scratch = bssr.into_scratch();
    }
    verdict
}
