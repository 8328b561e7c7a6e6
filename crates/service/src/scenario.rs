//! The scenario table: every replay CI runs, as named rows.
//!
//! A row is a city recipe, a shard count, a [`ReplaySpec`] and the gates
//! its run must pass. Every row is held to [`ReplayReport::check`] on each
//! shard and to the fleet's routing gate; [`Gates`] adds the "did the
//! mechanism fire" checks a row asks for, and a row that verifies or
//! fully traces also fails if that audit did not run. `skysr-cli replay
//! --scenario NAME|all` runs rows from [`table`], and a failing run names
//! its row and gate.
//!
//! A row with a [`TwinGate`] proves what its mechanism saves: the runner
//! replays the row, then its twin (the same row, flag overrides included,
//! with the mechanism switched off), and the row may do at most a fixed
//! fraction of the twin's engine work. The work is counted, not timed —
//! searches run or vertices settled depend on the stream, not on the
//! clock — so the gate reads the same on a loaded 2-core runner as on an
//! idle workstation.

use std::time::Duration;

use skysr_data::dataset::{Dataset, DatasetSpec, Preset};

use crate::replay::{ReplayReport, ReplaySpec, ShardedReplayReport, StreamPattern};
use crate::service::ServiceConfig;
use crate::telemetry::{Rung, TelemetryConfig};

/// The fewest hit-rung answers the `hits` gate accepts: a latency bound
/// over a handful of samples bounds nothing.
pub const HIT_SAMPLES: u64 = 100;

/// The `hits` gate's bound on hit-rung p99, in deadlines. A hit answered
/// at submission waits for nothing. A queued request whose answer was
/// cached by the time a worker took it is a hit too; it waited at most
/// one deadline, since a request whose deadline lapses in queue is shed
/// at dequeue. The rest of the bound is slack for the answer itself on a
/// loaded host.
pub const HIT_P99_DEADLINES: u32 = 5;

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
    /// At least one epoch dropped out of the retention ring.
    pub compactions: bool,
    /// At least one request shed (at admission or expired in queue).
    pub shed: bool,
    /// At least one request shed expired in queue.
    pub shed_in_queue: bool,
    /// At least [`HIT_SAMPLES`] cache hits served, with a hit-rung p99
    /// within [`HIT_P99_DEADLINES`] of the spec's deadline: cheap answers
    /// stay fast while the expensive ones shed. Most hits are answered at
    /// submission; the rest queued as misses and found their answer
    /// cached at dequeue.
    pub hits: bool,
}

/// Engine work a [`TwinGate`] counts, summed over every shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Work {
    /// Searches the engine ran (the `executed` count: searches and
    /// repairs).
    Searches,
    /// Vertices settled, summed over the spans of every request. Both
    /// the row and its twin must trace fully.
    Settled,
}

impl Work {
    /// The work `fleet` did.
    pub fn of(self, fleet: &ShardedReplayReport) -> u64 {
        let lane = |r: &ReplayReport| match self {
            Work::Searches => r.metrics.executed,
            Work::Settled => r.spans.iter().map(|s| s.profile.settled).sum(),
        };
        fleet.shards.iter().map(|s| lane(&s.report)).sum()
    }

    /// The gate's name in a failure message.
    pub fn gate(self) -> &'static str {
        match self {
            Work::Searches => "searches",
            Work::Settled => "settled",
        }
    }
}

/// A row's work gate against its twin: the row does at most `1 / factor`
/// of the work the twin does with the row's mechanism switched off.
#[derive(Clone, Copy, Debug)]
pub struct TwinGate {
    /// Switches off the mechanism the row proves, on a copy of the row.
    pub off: fn(&mut Scenario),
    /// The work compared.
    pub work: Work,
    /// How many times less work the row must do than its twin.
    pub factor: f64,
}

impl TwinGate {
    /// Compares the row's work with the twin's: passes at the limit,
    /// fails above it naming both counts and the limit. A twin that did
    /// no work fails too, since nothing was compared.
    fn compare(&self, row: u64, twin: u64) -> Result<(), String> {
        let (gate, factor) = (self.work.gate(), self.factor);
        if twin == 0 {
            return Err(format!("{gate} gate failed: the twin did no work to compare with"));
        }
        if row as f64 * factor <= twin as f64 {
            return Ok(());
        }
        let limit = twin as f64 / factor;
        Err(format!(
            "{gate} gate failed: the row's {row} is above the limit of {limit:.1} (the twin's \
             {twin} / {factor})"
        ))
    }
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
    /// The work gate against the row's twin, if the row has one.
    pub twin: Option<TwinGate>,
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
            twin: None,
        }
    }

    /// The row's twin, if it has a [`TwinGate`]: the row as it stands,
    /// flag overrides included, with the mechanism switched off. The twin
    /// keeps the row's audits and drops its gates, which name the
    /// mechanism it lacks.
    pub fn twin_row(&self) -> Option<Scenario> {
        let gate = self.twin?;
        let mut twin = Scenario {
            name: format!("{} (twin)", self.name),
            gates: Gates::default(),
            twin: None,
            ..self.clone()
        };
        (gate.off)(&mut twin);
        Some(twin)
    }

    /// Every gate of the row over a finished run: each shard's
    /// [`ReplayReport::check`] and the row's own gates, then the fleet's
    /// routing gate; and for a row with a twin, the twin's run passes its
    /// own checks and the twin gate holds. `Err` names the row and the
    /// first failing gate of the run, and then of the twin gate, one per
    /// line.
    pub fn check(
        &self,
        fleet: &ShardedReplayReport,
        twin: Option<&ShardedReplayReport>,
    ) -> Result<(), String> {
        let run = fleet.check_with(|r| r.check().and_then(|()| self.fired(r)));
        let failures: Vec<String> = [run, self.against_twin(fleet, twin)]
            .into_iter()
            .filter_map(Result::err)
            .map(|e| format!("row {}: {e}", self.name))
            .collect();
        failures.is_empty().then_some(()).ok_or_else(|| failures.join("\n"))
    }

    /// The twin gate, when the row has one, over the row's run and the
    /// twin's.
    fn against_twin(
        &self,
        fleet: &ShardedReplayReport,
        twin: Option<&ShardedReplayReport>,
    ) -> Result<(), String> {
        let (Some(gate), Some(twin_row)) = (self.twin, self.twin_row()) else {
            return Ok(());
        };
        let gate_name = gate.work.gate();
        let twin = twin.ok_or_else(|| format!("{gate_name} gate failed: the twin did not run"))?;
        twin.check_with(|r| r.check().and_then(|()| twin_row.fired(r)))
            .map_err(|e| format!("twin: {e}"))?;
        gate.compare(gate.work.of(fleet), gate.work.of(twin))
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
        if g.compactions && r.metrics.epochs.compacted == 0 {
            return failed("compactions", "the retention ring never dropped an epoch".into());
        }
        if g.hits {
            let hits = m.rungs.iter().find(|rs| rs.rung == Rung::ExactHit).map(|rs| &rs.hist);
            let (n, p99) = hits.map_or((0, Duration::ZERO), |h| (h.count(), h.quantile(0.99)));
            let limit = self.spec.deadline.unwrap_or_default() * HIT_P99_DEADLINES;
            if n < HIT_SAMPLES || p99 > limit {
                let ms = |d: Duration| d.as_secs_f64() * 1e3;
                return failed(
                    "hits",
                    format!(
                        "{n} hit-rung answers (at least {HIT_SAMPLES}), p99 {:.2} ms (at most \
                         {:.2} ms)",
                        ms(p99),
                        ms(limit)
                    ),
                );
            }
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
    let twin = |off, work, factor| Some(TwinGate { off, work, factor });
    let stack =
        |workers, repair| ServiceConfig { workers, repair, ..ReplaySpec::default().service };
    // Keeps every span, so the settled work of the whole stream is known.
    let traced = |spec: &ReplaySpec| ReplaySpec {
        service: ServiceConfig {
            telemetry: TelemetryConfig::trace_all(spec.total),
            ..spec.service.clone()
        },
        ..spec.clone()
    };
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
    // The queue holds the whole stream (an overload spec must), so what
    // bounds a queued request's wait is the deadline-aware scheduler, not
    // the submitter blocking on a full queue. Hits never queue.
    let overload = ReplaySpec {
        total: 12_000,
        distinct: 10_000,
        zipf_exponent: 0.5,
        service: ServiceConfig { admission: true, queue_capacity: 12_000, ..stack(4, true) },
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

    // Coalescing: a key in flight is searched once, however many
    // duplicates arrive while it is. With the cache off nothing else can
    // share an answer, so the twin searches every request; with it on, a
    // duplicate the twin dequeues after its key's search ended is a hit,
    // and the twin's count would hang on timing. Six positions and
    // bursts of 48 make a search outlast the dequeue of most of its
    // burst.
    let coalesced = ReplaySpec {
        seq_len: 6,
        burst: 48,
        service: ServiceConfig { cache_capacity: 0, ..duplicate.service.clone() },
        ..duplicate.clone()
    };
    let mut rows = vec![
        Scenario {
            twin: twin(|r| r.spec.service.coalesce = false, Work::Searches, 2.0),
            ..row("reuse/duplicate", 3.0, &coalesced, none)
        },
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
    let repairs = Gates { repairs: true, ..epochs };
    for (spec, variant) in churn.iter().zip(["zipf", "duplicate", "prefix"]) {
        rows.push(row(&format!("repair/{variant}"), 3.0, &repaired(spec), repairs));
    }
    // Repair against invalidate-and-recompute on closed-loop waves, so
    // every cached key crosses the same epochs in both runs.
    rows.push(Scenario {
        twin: twin(|r| r.spec.service.repair = false, Work::Settled, 1.5),
        ..row("repair/waves", 3.0, &traced(&waves), repairs)
    });
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
    let toggles: [(&str, Toggle); 3] = [
        ("all-on", |_| {}),
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
    // NNinit against no initial search, on the one stream whose queries
    // name internal categories: NNinit must find those a finite threshold.
    // One worker keeps the settled count the same from run to run.
    let hierarchy = ReplaySpec {
        pattern: Hierarchy,
        total: 400,
        distinct: 12,
        service: stack(1, false),
        ..base.clone()
    };
    rows.push(Scenario {
        twin: twin(|r| r.spec.service.engine.use_init_search = false, Work::Settled, 10.0),
        ..row("planner/hierarchy-nninit", 3.0, &traced(&hierarchy), none)
    });

    rows.push(row("telemetry/traced", 1.0, &traced(&waves), none));
    let shed = Gates { shed: true, hits: true, ..none };
    rows.push(row("overload/admission", 0.2, &overload, shed));
    let queue = ServiceConfig { admission: false, ..overload.service.clone() };
    rows.push(row(
        "overload/queue",
        0.2,
        &ReplaySpec { service: queue, ..overload },
        Gates { shed_in_queue: true, ..shed },
    ));
    rows.push(Scenario { shards: 2, ..row("shards/two", 1.0, &waves, none) });
    // Shard per region against one monolith over the union on the same
    // per-process cache: each region's 32 queries fit its cache of 40 and
    // are searched once, while the union's 128 thrash it. Uniform
    // popularity keeps the whole pool the working set. A shallow queue
    // keeps the stream's order: a hit is answered when it is submitted,
    // so with a deep one what is cached on arrival, and the twin's
    // misses with it, would hang on how far submission ran ahead of the
    // workers.
    let region = ReplaySpec {
        total: 320,
        distinct: 32,
        zipf_exponent: 0.0,
        service: ServiceConfig { cache_capacity: 40, queue_capacity: 16, ..stack(2, false) },
        ..zipf.clone()
    };
    let monolith: fn(&mut Scenario) = |r| {
        let n = r.shards;
        r.city.scale *= n as f64;
        (r.spec.total, r.spec.distinct) = (r.spec.total * n, r.spec.distinct * n);
        r.spec.service.workers *= n;
        r.shards = 1;
    };
    rows.push(Scenario {
        shards: 4,
        twin: twin(monolith, Work::Searches, 3.5),
        ..row("shards/four", 0.05, &region, none)
    });

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
    // Region-less requests go to region 0 of the two-region daemon, the
    // city the replay's shadow is built from, so every answer verifies.
    let daemon_shards =
        ReplaySpec { total: 200, distinct: 16, seq_len: 2, verify: true, ..ReplaySpec::default() };
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
    use crate::telemetry::Histogram;

    #[test]
    fn the_operations_guide_lists_every_twin_gate() {
        let guide = include_str!("../../../docs/OPERATIONS.md");
        let section = guide.split("**Work: the twin gates**").nth(1).expect("a twin-gate table");
        // A row: "| `name` | mechanism | work with / without it | ≤ 1/F |".
        let mut documented: Vec<(String, String, f64)> = section
            .lines()
            .skip_while(|l| !l.starts_with('|'))
            .take_while(|l| l.starts_with('|'))
            .filter_map(|l| {
                let cells: Vec<&str> = l.trim_matches('|').split('|').map(str::trim).collect();
                let name = cells[0].strip_prefix('`')?.strip_suffix('`')?;
                let factor = cells.get(3)?.strip_prefix("≤ 1/")?.parse().ok()?;
                Some((name.to_owned(), cells[2].to_owned(), factor))
            })
            .collect();
        let mut gated: Vec<(String, TwinGate)> =
            table().into_iter().filter_map(|r| Some((r.name, r.twin?))).collect();
        documented.sort_by(|a, b| a.0.cmp(&b.0));
        gated.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(
            documented.iter().map(|r| &*r.0).collect::<Vec<_>>(),
            gated.iter().map(|r| &*r.0).collect::<Vec<_>>(),
            "docs/OPERATIONS.md's twin-gate rows"
        );
        for ((name, work, factor), (_, gate)) in documented.iter().zip(&gated) {
            assert_eq!(*factor, gate.factor, "row {name}: the CI limit");
            assert!(
                work.ends_with(gate.work.gate()),
                "row {name}: {work} counts no {:?}",
                gate.work
            );
        }
    }

    #[test]
    fn row_names_are_unique_and_every_row_is_valid() {
        let rows = table();
        let names: std::collections::HashSet<&str> = rows.iter().map(|r| &*r.name).collect();
        assert_eq!(names.len(), rows.len(), "duplicate row names");
        assert_eq!(rows.len(), 33, "the replay runs CI makes");
        for row in &rows {
            assert_eq!(row.spec.validate(), Ok(()), "row {}", row.name);
            assert!(row.shards >= 1, "row {}", row.name);
            assert!(!row.gates.hits || row.spec.deadline.is_some(), "row {}", row.name);
            let Some(twin) = row.twin_row() else { continue };
            assert_eq!(twin.spec.validate(), Ok(()), "row {}", row.name);
            assert!(!row.daemon, "row {}: the runner replays twins in-process", row.name);
            if row.twin.is_some_and(|g| g.work == Work::Settled) {
                assert!(row.spec.audits_spans() && twin.spec.audits_spans(), "row {}", row.name);
            }
        }
        assert_eq!(rows.iter().filter(|r| r.daemon).count(), 3);
        let twins: Vec<&str> = rows.iter().filter(|r| r.twin.is_some()).map(|r| &*r.name).collect();
        assert_eq!(
            twins,
            ["reuse/duplicate", "repair/waves", "planner/hierarchy-nninit", "shards/four"]
        );
        assert_eq!(find("planner/duplicate/no-coalesce").map(|r| r.spec.burst), Some(16));
        assert!(find("planner/duplicate/no-coalesce").is_some_and(|r| !r.spec.service.coalesce));

        // A twin is its row with the mechanism off: overrides kept,
        // gates dropped.
        let mut waves = find("repair/waves").expect("a table row");
        waves.spec.total = 80;
        let twin = waves.twin_row().expect("repair/waves has a twin");
        assert_eq!((&*twin.name, twin.spec.total), ("repair/waves (twin)", 80));
        assert!(!twin.spec.service.repair && waves.spec.service.repair);
        assert_eq!((twin.gates, twin.twin.is_none()), (Gates::default(), true));
        let nninit = find("planner/hierarchy-nninit").expect("a table row");
        let twin = nninit.twin_row().expect("the NNinit row has a twin");
        assert!(nninit.spec.service.engine.use_init_search);
        assert!(!twin.spec.service.engine.use_init_search);
        assert_eq!(nninit.spec.pattern, StreamPattern::Hierarchy);
        let monolith = find("shards/four").and_then(|r| r.twin_row()).expect("a twin");
        assert_eq!((monolith.shards, monolith.city.scale), (1, 0.2));
        let s = &monolith.spec;
        assert_eq!(
            (s.total, s.distinct, s.service.workers, s.service.cache_capacity),
            (1280, 128, 8, 40)
        );
    }

    #[test]
    fn each_row_gate_fails_with_its_own_message() {
        let clean = clean_fleet();
        let deadline = Duration::from_millis(10);
        let gated = |gates| Scenario {
            gates,
            ..Scenario::new(
                "probe",
                City::default(),
                ReplaySpec { deadline: Some(deadline), ..ReplaySpec::default() },
            )
        };
        let all = Gates {
            epochs: true,
            invalidations: true,
            repairs: true,
            compactions: true,
            shed: true,
            shed_in_queue: true,
            hits: true,
        };
        // Hit-rung answers: `n` of them, the slowest at `slowest`.
        let hits = |n: u64, slowest: Duration| {
            let h = Histogram::default();
            (1..n).for_each(|_| h.record(deadline));
            h.record(slowest);
            h.snapshot()
        };
        let set_hits = |r: &mut ReplayReport, h| {
            let rung = r.metrics.rungs.iter_mut().find(|rs| rs.rung == Rung::ExactHit);
            rung.expect("every rung is summarised").hist = h;
        };
        // A fleet where every mechanism fired passes every gate.
        let mut fired = clean.clone();
        for s in &mut fired.shards {
            let r = &mut s.report;
            (r.epochs_published, r.metrics.epochs.compacted) = (1, 1);
            set_hits(r, hits(HIT_SAMPLES, deadline * HIT_P99_DEADLINES));
            let m = &mut r.metrics;
            m.cache.invalidations = 1;
            (m.repairs, m.repair_fallbacks, m.rejected, m.shed_deadline) = (2, 1, 1, 1);
        }
        assert_eq!(gated(all).check(&fired, None), Ok(()));
        type Mutation = fn(&mut ReplayReport);
        let cases: [(Mutation, &str); 9] = [
            (|r| r.epochs_published = 0, "epochs gate failed"),
            (|r| r.metrics.cache.invalidations = 0, "invalidations gate failed"),
            (|r| r.metrics.repairs = 0, "repairs gate failed: 0 repaired in place, 1 fell"),
            (|r| r.metrics.repair_fallbacks = 2, "repairs gate failed: 2 repaired in place, 2"),
            (|r| r.metrics.epochs.compacted = 0, "compactions gate failed"),
            (|r| (r.metrics.rejected, r.metrics.shed_deadline) = (0, 0), "shed gate failed"),
            (|r| r.metrics.shed_deadline = 0, "shed-in-queue gate failed"),
            (
                |r| {
                    let h = Histogram::default();
                    (0..HIT_SAMPLES - 1).for_each(|_| h.record(Duration::from_millis(1)));
                    let rung = r.metrics.rungs.iter_mut().find(|rs| rs.rung == Rung::ExactHit);
                    rung.expect("every rung is summarised").hist = h.snapshot();
                },
                "hits gate failed: 99 hit-rung answers (at least 100)",
            ),
            (
                |r| {
                    let h = Histogram::default();
                    (0..HIT_SAMPLES).for_each(|_| h.record(Duration::from_millis(60)));
                    let rung = r.metrics.rungs.iter_mut().find(|rs| rs.rung == Rung::ExactHit);
                    rung.expect("every rung is summarised").hist = h.snapshot();
                },
                "hits gate failed: 100 hit-rung answers (at least 100), p99 6",
            ),
        ];
        for (mutate, want) in cases {
            let mut fleet = fired.clone();
            mutate(&mut fleet.shards[1].report);
            let err = gated(all).check(&fleet, None).expect_err("a gate must fail");
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
            let err = audited.check(&fleet, None).expect_err("the audit must run");
            assert!(err.starts_with(&format!("row probe: shard 0 (north): {gate} gate")), "{err}");
        }
    }

    #[test]
    fn each_twin_gate_compares_the_row_with_its_twin() {
        let clean = clean_fleet();
        // Each of the fleet's two shards did `per_shard` of `work`.
        let did = |work, per_shard: u64| {
            let mut fleet = clean.clone();
            for s in &mut fleet.shards {
                let r = &mut s.report;
                r.metrics.executed = per_shard;
                r.spans.iter_mut().for_each(|span| span.profile.settled = 0);
                r.spans[0].profile.settled = per_shard;
            }
            assert_eq!(Work::of(work, &fleet), 2 * per_shard);
            fleet
        };
        for work in [Work::Searches, Work::Settled] {
            let gate = work.gate();
            let row = Scenario {
                twin: Some(TwinGate { off: |r| r.spec.service.repair = false, work, factor: 2.0 }),
                ..Scenario::new("probe", City::default(), ReplaySpec::default())
            };
            let twin = did(work, 20);
            assert_eq!(row.check(&did(work, 10), Some(&twin)), Ok(()), "at the limit passes");
            let err = row.check(&did(work, 11), Some(&twin)).expect_err("above the limit");
            let want = format!(
                "row probe: {gate} gate failed: the row's 22 is above the limit of 20.0 (the \
                 twin's 40 / 2)"
            );
            assert_eq!(err, want);
            let err = row.check(&did(work, 0), Some(&did(work, 0))).expect_err("nothing compared");
            assert_eq!(
                err,
                format!("row probe: {gate} gate failed: the twin did no work to compare with")
            );
            let err = row.check(&did(work, 10), None).expect_err("the twin must run");
            assert_eq!(err, format!("row probe: {gate} gate failed: the twin did not run"));
            // The twin's own run is held to its checks.
            let mut stale = twin.clone();
            stale.shards[0].report.metrics.stale_served = 1;
            let err = row.check(&did(work, 10), Some(&stale)).expect_err("a stale twin");
            assert!(err.starts_with("row probe: twin: shard 0 (north): staleness gate"), "{err}");
        }
    }

    #[test]
    fn the_smallest_rows_pass_through_the_runner() {
        let run =
            |row: &Scenario| replay_sharded(row.city.regions(row.spec.seed, row.shards), &row.spec);
        for name in ["reuse/prefix-sequential", "telemetry/traced", "shards/two", "repair/waves"] {
            let row = find(name).expect("a table row");
            let fleet = run(&row);
            let twin = row.twin_row().map(|twin| run(&twin));
            assert_eq!(row.check(&fleet, twin.as_ref()), Ok(()), "row {name}");
            assert_eq!(fleet.shards.len(), row.shards);
        }
    }
}
