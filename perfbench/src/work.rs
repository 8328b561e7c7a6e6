//! The counts that define a run's work. Two runs whose counts match did
//! the same work, so a timing difference between them is never a workload
//! difference.

use skysr_service::telemetry::Rung;
use skysr_service::Served;

use crate::drive::Outcome;
use crate::Workload;

/// A run's work, counted over its timed window.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Work {
    /// Requests attempted.
    pub requests: u64,
    /// Requests that failed or were refused.
    pub failed: u64,
    /// Engine runs (searches and repairs), from the service's counters.
    pub executed: u64,
    /// Responses per serving rung, in `Rung::ALL` order.
    pub rungs: [u64; 8],
    /// Repairs resolved in place (untouched or rescored).
    pub repaired_in_place: u64,
    /// Repairs that fell back to a search.
    pub repair_fallbacks: u64,
    /// Weight epochs published.
    pub epochs: u64,
    /// Skyline routes returned, summed over responses.
    pub skyline_routes: u64,
}

impl Work {
    /// Counts `outcomes`; `executed` and `epochs` come from the service.
    pub fn count(outcomes: &[Outcome], executed: u64, epochs: u64) -> Work {
        let mut w = Work { requests: outcomes.len() as u64, executed, epochs, ..Work::default() };
        for o in outcomes {
            match &o.result {
                Ok(r) => {
                    w.rungs[Rung::of(r.served).index()] += 1;
                    if let Served::Repaired { fallback, .. } = r.served {
                        if fallback {
                            w.repair_fallbacks += 1;
                        } else {
                            w.repaired_in_place += 1;
                        }
                    }
                    w.skyline_routes += r.routes.len() as u64;
                }
                Err(_) => w.failed += 1,
            }
        }
        w
    }

    /// Every count by name, in a fixed order.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        let mut f =
            vec![("requests", self.requests), ("failed", self.failed), ("executed", self.executed)];
        f.extend(Rung::ALL.iter().map(|r| (r.label(), self.rungs[r.index()])));
        f.extend([
            ("repaired_in_place", self.repaired_in_place),
            ("repair_fallbacks", self.repair_fallbacks),
            ("epochs", self.epochs),
            ("skyline_routes", self.skyline_routes),
        ]);
        f
    }

    /// `name=value` pairs separated by spaces.
    pub fn line(&self) -> String {
        let pairs: Vec<String> = self.fields().iter().map(|(k, v)| format!("{k}={v}")).collect();
        pairs.join(" ")
    }

    /// Parses [`Work::line`]'s output.
    pub fn parse(line: &str) -> Option<Work> {
        let mut w = Work::default();
        let mut seen = 0;
        for pair in line.split_whitespace() {
            let (k, v) = pair.split_once('=')?;
            let v: u64 = v.parse().ok()?;
            match k {
                "requests" => w.requests = v,
                "failed" => w.failed = v,
                "executed" => w.executed = v,
                "repaired_in_place" => w.repaired_in_place = v,
                "repair_fallbacks" => w.repair_fallbacks = v,
                "epochs" => w.epochs = v,
                "skyline_routes" => w.skyline_routes = v,
                rung => w.rungs[Rung::ALL.iter().find(|r| r.label() == rung)?.index()] = v,
            }
            seen += 1;
        }
        (seen == w.fields().len()).then_some(w)
    }

    /// The counts in which `self` differs from `recorded`. On `churn` a
    /// request that finds its key's repair still in flight coalesces onto
    /// it and one that comes later hits the cache, so only the sum of
    /// those two is fixed there.
    pub fn differences(&self, recorded: &Work, workload: Workload) -> Vec<String> {
        let (mut a, mut b) = (self.clone(), recorded.clone());
        if workload == Workload::Churn {
            for w in [&mut a, &mut b] {
                w.rungs[Rung::ExactHit.index()] += w.rungs[Rung::Coalesced.index()];
                w.rungs[Rung::Coalesced.index()] = 0;
            }
        }
        a.fields()
            .into_iter()
            .zip(b.fields())
            .filter(|(x, y)| x.1 != y.1)
            .map(|((name, now), (_, then))| format!("{name} {now} (recorded {then})"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_round_trips_and_churn_tolerates_the_hit_split() {
        let mut w =
            Work { requests: 100, executed: 7, epochs: 2, skyline_routes: 300, ..Work::default() };
        w.rungs[Rung::ExactHit.index()] = 90;
        w.rungs[Rung::Coalesced.index()] = 3;
        assert_eq!(Work::parse(&w.line()), Some(w.clone()));
        let mut moved = w.clone();
        moved.rungs[Rung::ExactHit.index()] += 2;
        moved.rungs[Rung::Coalesced.index()] -= 2;
        assert!(moved.differences(&w, Workload::Churn).is_empty());
        assert_eq!(moved.differences(&w, Workload::Hot).len(), 2);
        moved.executed += 1;
        assert_eq!(moved.differences(&w, Workload::Churn), vec!["executed 8 (recorded 7)"]);
    }
}
