//! The scenario table: every replay CI runs, as named rows.
//!
//! A row is a city recipe, a shard count, a [`ReplaySpec`] and the gates
//! its run must pass. Every row is held to [`ReplayReport::check`] on each
//! shard and to the fleet's routing gate; [`Gates`] adds the "did the
//! mechanism fire" checks a row asks for, and a row that verifies or
//! fully traces also fails if that audit did not run. `skysr-cli replay
//! --scenario NAME|all` runs rows from [`table`], and a failing run names
//! its row and gate.

use skysr_data::dataset::{Dataset, DatasetSpec, Preset};

use crate::replay::{ReplayReport, ReplaySpec, ShardedReplayReport, StreamPattern};
use crate::service::ServiceConfig;
use crate::telemetry::TelemetryConfig;

/// A generated city: a dataset preset at a scale. The seed is the
/// replay's ([`ReplaySpec::seed`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct City {
    /// The dataset preset.
    pub preset: Preset,
    /// The preset's scale factor.
    pub scale: f64,
}

impl Default for City {
    /// The paper's California network at its default experiment size.
    fn default() -> City {
        City { preset: Preset::CalSmall, scale: 1.0 }
    }
}

impl City {
    /// The cities of an `n`-region replay, named `region-0`, `region-1`,
    /// … and seeded `seed`, `seed + 1`, ….
    pub fn regions(self, seed: u64, n: usize) -> Vec<(String, Dataset)> {
        let spec = DatasetSpec::preset(self.preset).scale(self.scale);
        (0..n)
            .map(|i| (format!("region-{i}"), spec.clone().seed(seed + i as u64).generate()))
            .collect()
    }
}

/// The mechanisms a row's run must show firing, beyond
/// [`ReplayReport::check`]. Each set flag is one gate, checked on every
/// shard's report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Gates {
    /// At least one weight epoch published mid-stream.
    pub epochs: bool,
    /// At least one cache entry invalidated by an epoch change.
    pub invalidations: bool,
    /// At least one skyline repaired in place, and fewer fallbacks to a
    /// re-search than in-place repairs.
    pub repairs: bool,
    /// At least one overlay compacted out of the retention ring.
    pub compactions: bool,
    /// At least one ancestor-seeded and one suffix-seeded warm start.
    pub seeds: bool,
    /// At least one request shed (at admission or expired in queue).
    pub shed: bool,
    /// At least one request shed expired in queue.
    pub shed_in_queue: bool,
}

/// One named replay and the gates its run must pass.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The row's name, `group/variant`.
    pub name: String,
    /// The city every shard generates, seeded from the spec's seed.
    pub city: City,
    /// Regions of an in-process run, each a lane of its own.
    pub shards: usize,
    /// Whether the row replays against a running `skysr-d` (`--connect`)
    /// rather than in-process.
    pub daemon: bool,
    /// The replay.
    pub spec: ReplaySpec,
    /// The mechanisms the run must show firing.
    pub gates: Gates,
}

impl Scenario {
    /// A row of its own: `spec` on one region of `city`, no extra gates.
    pub fn new(name: &str, city: City, spec: ReplaySpec) -> Scenario {
        Scenario {
            name: name.to_owned(),
            city,
            shards: 1,
            daemon: false,
            spec,
            gates: Gates::default(),
        }
    }

    /// Every gate of the row over a finished run: each shard's
    /// [`ReplayReport::check`] and the row's own gates, then the fleet's
    /// routing gate. `Err` names the row and the first failing gate.
    pub fn check(&self, fleet: &ShardedReplayReport) -> Result<(), String> {
        fleet
            .check_with(|r| r.check().and_then(|()| self.fired(r)))
            .map_err(|e| format!("row {}: {e}", self.name))
    }

    /// The audits the spec asks for ran, and every mechanism the row's
    /// gates name fired.
    fn fired(&self, r: &ReplayReport) -> Result<(), String> {
        let (g, m) = (&self.gates, &r.metrics);
        let failed = |gate: &str, why: String| Err(format!("{gate} gate failed: {why}"));
        if self.spec.verify && r.verify_mismatches.is_none() {
            return failed("verify", "the row verifies but the oracle did not run".into());
        }
        if self.spec.audits_spans() && r.trace_violations.is_none() {
            return failed("trace", "the row traces fully but the span audit did not run".into());
        }
        if g.epochs && r.epochs_published == 0 {
            return failed("epochs", "no weight epoch was published mid-stream".into());
        }
        if g.invalidations && m.cache.invalidations == 0 {
            return failed("invalidations", "no cache entry was invalidated".into());
        }
        if g.repairs && (m.repairs == 0 || m.repair_fallbacks >= m.repairs) {
            let (n, fallbacks) = (m.repairs, m.repair_fallbacks);
            return failed("repairs", format!("{n} repaired in place, {fallbacks} fell back"));
        }
        if g.compactions && r.epoch_gc.compacted == 0 {
            return failed("compactions", "the retention ring never compacted an overlay".into());
        }
        if g.seeds && (m.seeded_ancestor == 0 || m.seeded_suffix == 0) {
            let (a, s) = (m.seeded_ancestor, m.seeded_suffix);
            return failed("seeds", format!("{a} ancestor- and {s} suffix-seeded warm starts"));
        }
        if g.shed && r.shed() == 0 {
            return failed("shed", "the overloaded run shed nothing".into());
        }
        if g.shed_in_queue && m.shed_deadline == 0 {
            return failed("shed-in-queue", "no request was shed expired in queue".into());
        }
        Ok(())
    }
}

/// The row named `name`, if the table has one.
pub fn find(name: &str) -> Option<Scenario> {
    table().into_iter().find(|row| row.name == name)
}

/// Every replay CI runs. The parameters are CI's own; the rows share
/// bases by struct update.
pub fn table() -> Vec<Scenario> {
    use StreamPattern::{DuplicateBursts, Hierarchy, PrefixChains, Zipf};
    let cal = |scale| City { preset: Preset::CalSmall, scale };
    let row = |name: &str, scale, spec: &ReplaySpec, gates| Scenario {
        gates,
        ..Scenario::new(name, cal(scale), spec.clone())
    };
    let stack =
        |workers, repair| ServiceConfig { workers, repair, ..ReplaySpec::default().service };
    let none = Gates::default();
    let epochs = Gates { epochs: true, ..none };

    // A verified three-position stream on eight workers; the closed-loop
    // reuse rows and the open-loop churn rows build on it.
    let base =
        ReplaySpec { seq_len: 3, verify: true, service: stack(8, false), ..ReplaySpec::default() };
    let duplicate = ReplaySpec {
        pattern: DuplicateBursts,
        total: 400,
        distinct: 16,
        burst: 24,
        ..base.clone()
    };
    let prefix = ReplaySpec { pattern: PrefixChains, total: 400, distinct: 12, ..base.clone() };
    // Open-loop streams with wall-clock weight churn.
    let churn = |spec: &ReplaySpec, total, qps, update_rate, update_burst| ReplaySpec {
        total,
        qps,
        update_rate,
        update_burst,
        ..spec.clone()
    };
    let zipf = ReplaySpec { pattern: Zipf, distinct: 24, ..base.clone() };
    let churn = [
        churn(&zipf, 600, 1200.0, 60.0, 24),
        churn(&duplicate, 600, 1500.0, 100.0, 16),
        churn(&prefix, 480, 1200.0, 100.0, 16),
    ];
    let repaired = |spec: &ReplaySpec| ReplaySpec { service: stack(8, true), ..spec.clone() };
    let overload = ReplaySpec {
        total: 12_000,
        distinct: 10_000,
        zipf_exponent: 0.5,
        service: ServiceConfig { admission: true, ..stack(4, true) },
        update_rate: 50.0,
        overload: 2.0,
        deadline: Some(std::time::Duration::from_millis(25)),
        ..base.clone()
    };
    let waves = ReplaySpec {
        pattern: DuplicateBursts,
        total: 400,
        distinct: 8,
        burst: 16,
        seq_len: 2,
        update_every: 40,
        update_burst: 8,
        service: stack(4, true),
        ..base.clone()
    };

    let mut rows = vec![
        row("reuse/duplicate", 3.0, &duplicate, none),
        row("reuse/prefix", 3.0, &prefix, none),
        row(
            "reuse/prefix-sequential",
            1.0,
            &ReplaySpec { total: 120, distinct: 10, service: stack(1, false), ..prefix.clone() },
            none,
        ),
    ];
    for (spec, variant) in churn.iter().zip(["zipf", "duplicate", "prefix"]) {
        let invalidations = variant == "zipf";
        rows.push(row(
            &format!("invalidate/{variant}"),
            3.0,
            spec,
            Gates { invalidations, ..epochs },
        ));
    }
    for (spec, variant) in churn.iter().zip(["zipf", "duplicate", "prefix"]) {
        let gates = Gates { repairs: true, ..epochs };
        rows.push(row(&format!("repair/{variant}"), 3.0, &repaired(spec), gates));
    }
    let soak = ReplaySpec {
        total: 3000,
        distinct: 32,
        qps: 3000.0,
        update_rate: 300.0,
        retention: 8,
        verify: false,
        ..repaired(&churn[0])
    };
    rows.push(row("retention/soak", 3.0, &soak, Gates { compactions: true, ..none }));
    let retained = ReplaySpec {
        qps: 2000.0,
        update_rate: 150.0,
        update_burst: 16,
        retention: 6,
        ..repaired(&churn[0])
    };
    rows.push(row("retention/verify", 3.0, &retained, none));

    // Every stream shape under every reuse-strategy toggle.
    type Toggle = fn(&mut ServiceConfig);
    let toggles: [(&str, Toggle); 6] = [
        ("all-on", |_| {}),
        ("no-prefix", |s| s.prefix_reuse = false),
        ("no-ancestor", |s| s.ancestor_reuse = false),
        ("no-suffix", |s| s.suffix_reuse = false),
        ("no-coalesce", |s| s.coalesce = false),
        ("repair", |s| s.repair = true),
    ];
    for pattern in StreamPattern::ALL {
        for (toggle, apply) in toggles {
            let mut spec = ReplaySpec { pattern, total: 300, distinct: 12, ..base.clone() };
            apply(&mut spec.service);
            rows.push(row(&format!("planner/{pattern}/{toggle}"), 3.0, &spec, none));
        }
    }
    let hierarchy = ReplaySpec { pattern: Hierarchy, total: 400, distinct: 12, ..base.clone() };
    rows.push(row("planner/hierarchy-seeds", 3.0, &hierarchy, Gates { seeds: true, ..none }));

    let traced =
        ServiceConfig { telemetry: TelemetryConfig::trace_all(400), ..waves.service.clone() };
    rows.push(row("telemetry/traced", 1.0, &ReplaySpec { service: traced, ..waves.clone() }, none));
    rows.push(row("overload/admission", 0.2, &overload, Gates { shed: true, ..none }));
    let queue = ServiceConfig { admission: false, ..overload.service.clone() };
    rows.push(row(
        "overload/queue",
        0.2,
        &ReplaySpec { service: queue, ..overload },
        Gates { shed: true, shed_in_queue: true, ..none },
    ));
    rows.push(Scenario { shards: 2, ..row("shards/two", 1.0, &waves, none) });

    // Against skysr-d: the daemon's serving stack is its own, so these
    // specs keep the default one.
    let daemon_waves = ReplaySpec {
        update_every: 50,
        update_burst: 16,
        service: ReplaySpec::default().service,
        ..duplicate
    };
    let daemon_openloop = ReplaySpec {
        total: 400,
        distinct: 24,
        qps: 1200.0,
        update_rate: 60.0,
        update_burst: 16,
        verify: true,
        ..ReplaySpec::default()
    };
    let daemon_shards =
        ReplaySpec { total: 200, distinct: 16, seq_len: 2, ..ReplaySpec::default() };
    for (name, scale, spec, gates) in [
        ("daemon/waves", 3.0, daemon_waves, epochs),
        ("daemon/openloop", 3.0, daemon_openloop, epochs),
        ("daemon/shards", 1.0, daemon_shards, none),
    ] {
        rows.push(Scenario { daemon: true, ..row(name, scale, &spec, gates) });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::replay_sharded;
    use crate::replay::tests::clean_fleet;

    #[test]
    fn row_names_are_unique_and_every_row_is_valid() {
        let rows = table();
        let names: std::collections::HashSet<&str> = rows.iter().map(|r| &*r.name).collect();
        assert_eq!(names.len(), rows.len(), "duplicate row names");
        assert_eq!(rows.len(), 43, "CI's 43 replay runs");
        for row in &rows {
            assert_eq!(row.spec.validate(), Ok(()), "row {}", row.name);
            assert!(row.shards >= 1, "row {}", row.name);
        }
        assert_eq!(rows.iter().filter(|r| r.daemon).count(), 3);
        assert_eq!(find("planner/duplicate/no-coalesce").map(|r| r.spec.burst), Some(16));
        assert!(find("planner/duplicate/no-coalesce").is_some_and(|r| !r.spec.service.coalesce));
    }

    #[test]
    fn each_row_gate_fails_with_its_own_message() {
        let clean = clean_fleet();
        let gated = |gates| Scenario {
            gates,
            ..Scenario::new("probe", City::default(), ReplaySpec::default())
        };
        let all = Gates {
            epochs: true,
            invalidations: true,
            repairs: true,
            compactions: true,
            seeds: true,
            shed: true,
            shed_in_queue: true,
        };
        // A fleet where every mechanism fired passes every gate.
        let mut fired = clean.clone();
        for s in &mut fired.shards {
            let r = &mut s.report;
            (r.epochs_published, r.epoch_gc.compacted) = (1, 1);
            let m = &mut r.metrics;
            (m.cache.invalidations, m.seeded_ancestor, m.seeded_suffix) = (1, 1, 1);
            (m.repairs, m.repair_fallbacks, m.rejected, m.shed_deadline) = (2, 1, 1, 1);
        }
        assert_eq!(gated(all).check(&fired), Ok(()));
        type Mutation = fn(&mut ReplayReport);
        let cases: [(Mutation, &str); 8] = [
            (|r| r.epochs_published = 0, "epochs gate failed"),
            (|r| r.metrics.cache.invalidations = 0, "invalidations gate failed"),
            (|r| r.metrics.repairs = 0, "repairs gate failed: 0 repaired in place, 1 fell"),
            (|r| r.metrics.repair_fallbacks = 2, "repairs gate failed: 2 repaired in place, 2"),
            (|r| r.epoch_gc.compacted = 0, "compactions gate failed"),
            (|r| r.metrics.seeded_suffix = 0, "seeds gate failed: 1 ancestor- and 0 suffix"),
            (|r| (r.metrics.rejected, r.metrics.shed_deadline) = (0, 0), "shed gate failed"),
            (|r| r.metrics.shed_deadline = 0, "shed-in-queue gate failed"),
        ];
        for (mutate, want) in cases {
            let mut fleet = fired.clone();
            mutate(&mut fleet.shards[1].report);
            let err = gated(all).check(&fleet).expect_err("a gate must fail");
            assert!(err.starts_with(&format!("row probe: shard 1 (south): {want}")), "{err}");
        }
        // A verified or fully traced row fails if its audit did not run.
        let traced = TelemetryConfig::trace_all(40);
        let service = ServiceConfig { telemetry: traced, ..ServiceConfig::default() };
        let spec = ReplaySpec { verify: true, service, ..ReplaySpec::default() };
        let audited = Scenario { spec, ..gated(Gates::default()) };
        let skipped: [(Mutation, &str); 2] =
            [(|r| r.verify_mismatches = None, "verify"), (|r| r.trace_violations = None, "trace")];
        for (mutate, gate) in skipped {
            let mut fleet = clean.clone();
            mutate(&mut fleet.shards[0].report);
            let err = audited.check(&fleet).expect_err("the audit must run");
            assert!(err.starts_with(&format!("row probe: shard 0 (north): {gate} gate")), "{err}");
        }
    }

    #[test]
    fn the_smallest_rows_pass_through_the_runner() {
        for name in ["reuse/prefix-sequential", "telemetry/traced", "shards/two"] {
            let row = find(name).expect("a table row");
            let fleet = replay_sharded(row.city.regions(row.spec.seed, row.shards), &row.spec);
            assert_eq!(row.check(&fleet), Ok(()), "row {name}");
            assert_eq!(fleet.shards.len(), row.shards);
        }
    }
}
