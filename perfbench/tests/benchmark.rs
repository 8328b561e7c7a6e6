//! The benchmark's own checks: its inputs are a function of the seed, and
//! every workload runs end to end through the correctness verdict.

use std::collections::BTreeSet;

use perfbench::inputs::{self, City};
use perfbench::trace::Tracer;
use perfbench::{Options, Workload};
use skysr_data::dataset::Preset;

/// A city of about a thousand vertices with the Tokyo taxonomy.
const TINY: City = City { preset: Preset::TokyoSmall, scale: 0.05, seed: 7 };

#[test]
fn the_same_seed_gives_the_same_inputs() {
    for workload in Workload::ALL {
        let a = inputs::generate(TINY, workload, 5, 300, 2);
        let b = inputs::generate(TINY, workload, 5, 300, 2);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.city, b.city, "{workload:?}: city bytes");
        assert_eq!(a.pool, b.pool, "{workload:?}: query pool");
        assert_eq!(a.stream, b.stream, "{workload:?}: request stream");
        assert_eq!(a.waves, b.waves, "{workload:?}: weight waves");
        assert_eq!(a.warmup, b.warmup);
        assert_eq!(a.probe, b.probe);
        assert_eq!(a.stream.len(), 300);

        let c = inputs::generate(TINY, workload, 6, 300, 2);
        assert_eq!(a.city, c.city, "{workload:?}: every seed serves the same city");
        assert_ne!(a.waves, c.waves, "{workload:?}: another seed, other waves");
        assert_eq!(a.warmup, c.warmup, "{workload:?}: set-up does the same work for every seed");
        if workload == Workload::Cold {
            assert_ne!(a.pool, c.pool, "another seed, other queries");
        } else {
            assert_eq!(a.pool, c.pool, "{workload:?}: every seed serves the same resident set");
            assert_ne!(a.stream, c.stream, "{workload:?}: another seed, another stream");
        }
    }
}

#[test]
fn cold_requests_are_distinct_and_begin_with_the_probe() {
    let cold = inputs::generate(TINY, Workload::Cold, 5, 90, 2);
    assert_eq!(cold.pool.len(), 90);
    assert_eq!(cold.pool[..cold.probe.len()], cold.probe[..]);
    let ks: Vec<usize> = cold.pool.iter().take(6).map(|q| q.len()).collect();
    assert_eq!(ks, [2, 3, 4, 2, 3, 4]);
}

#[test]
fn every_workload_passes_the_verdict_and_reports_every_layer() {
    let mut names: Option<BTreeSet<String>> = None;
    for workload in Workload::ALL {
        let opts = Options {
            workload,
            seed: 3,
            requests: 2_000,
            rounds: 2,
            slices: 1,
            setups: 2,
            trace: true,
            city: TINY,
            workers: 2,
            clients: 2,
        };
        let report = perfbench::run(&opts, &Tracer::new(true)).expect("the run completes");
        let v = &report.verdict;
        assert!(v.passed(), "{workload:?}: {v:?}");
        assert_eq!(report.work.requests, 2_000);
        assert_eq!(report.work.failed, 0);
        assert_eq!(report.rounds.len(), 2);
        assert_eq!(report.setups.len(), 2);
        match workload {
            Workload::Cold => assert_eq!(report.work.executed, 2_000, "every request searched"),
            Workload::Churn => {
                assert_eq!(report.work.epochs, 2, "a wave after every 1,000 requests");
                assert_eq!(v.epochs, 2, "the verdict spans every epoch served: {v:?}");
            }
            Workload::Hot | Workload::Wire => {
                assert_eq!(report.work.executed, 0, "every request a hit: {:?}", report.work);
            }
        }
        let e2e: Vec<&str> = report.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(e2e[..4], ["throughput_qps", "p50_ms", "p99_ms", "setup_s"]);
        assert!(report.end_to_end.iter().all(|m| m.value.is_finite() && m.value > 0.0));

        let layer_names: BTreeSet<String> = report.layers.iter().map(|m| m.name.clone()).collect();
        assert_eq!(layer_names.len(), report.layers.len(), "{workload:?}: a metric twice");
        assert!(report.layers.iter().all(|m| m.value.is_finite()), "{:?}", report.layers);
        match &names {
            Some(first) => assert_eq!(&layer_names, first, "{workload:?} reports other metrics"),
            None => names = Some(layer_names),
        }
    }
}
