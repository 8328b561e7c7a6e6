//! Experiment drivers — one function per table/figure of §7.
//!
//! Each driver prints its table to stdout in the paper's row/series layout
//! so measured numbers can be placed side by side with the published ones
//! (see `EXPERIMENTS.md` at the workspace root).

use skysr_core::bssr::{Bssr, BssrConfig, Expansion, LowerBoundMode, QueuePolicy};
use skysr_data::dataset::Dataset;
use skysr_data::workload::WorkloadSpec;

use crate::config::ExpConfig;
use crate::runner::{mean_of, run_batch, Algo, BatchResult, RunOpts};
use crate::table::{fmt_ms, Table};

fn workload(cfg: &ExpConfig, d: &Dataset, k: usize, n: usize) -> Vec<skysr_core::SkySrQuery> {
    WorkloadSpec::new(k).queries(n).seed(cfg.seed).generate(d).queries
}

fn baseline_cell(r: &BatchResult) -> String {
    if r.executed == 0 {
        format!("> cap ({} skipped)", r.skipped)
    } else if r.skipped > 0 {
        format!("{} ({} skipped)", fmt_ms(r.mean_ms), r.skipped)
    } else {
        fmt_ms(r.mean_ms)
    }
}

/// Figure 3: response time vs |S_q| for all four algorithms.
pub fn fig3(cfg: &ExpConfig, datasets: &[Dataset]) {
    println!("# Figure 3 — mean response time [ms] vs |Sq|\n");
    let opts = RunOpts { baseline_max_combos: cfg.baseline_max_combos };
    for d in datasets {
        let ctx = d.context();
        let mut t = Table::new(vec!["|Sq|", "BSSR", "BSSR w/o Opt", "PNE", "Dij"]);
        for k in 2..=cfg.seq_max {
            let qs = workload(cfg, d, k, cfg.queries);
            let bqs = workload(cfg, d, k, cfg.baseline_queries);
            let bssr = run_batch(&ctx, &qs, Algo::Bssr, opts);
            let noopt = run_batch(&ctx, &qs, Algo::BssrNoOpt, opts);
            let pne = run_batch(&ctx, &bqs, Algo::Pne, opts);
            let dij = run_batch(&ctx, &bqs, Algo::Dij, opts);
            t.row(vec![
                k.to_string(),
                fmt_ms(bssr.mean_ms),
                fmt_ms(noopt.mean_ms),
                baseline_cell(&pne),
                baseline_cell(&dij),
            ]);
        }
        println!(
            "## {} ({} queries; {} for baselines, combo cap {})",
            d.name, cfg.queries, cfg.baseline_queries, cfg.baseline_max_combos
        );
        println!("{t}");
    }
}

/// Table 6: peak live-heap bytes per algorithm at |S_q| = 4.
///
/// Meaningful only in binaries that install [`crate::alloc::CountingAlloc`]
/// as the global allocator (`table6_memory`, `report`).
pub fn table6(cfg: &ExpConfig, datasets: &[Dataset]) {
    println!("# Table 6 — peak heap during query batch (|Sq| = 4)\n");
    let k = cfg.seq_max.min(4);
    let opts = RunOpts { baseline_max_combos: cfg.baseline_max_combos };
    let mut t = Table::new(vec!["Dataset", "graph", "BSSR", "BSSR w/o Opt", "PNE", "Dij"]);
    for d in datasets {
        let ctx = d.context();
        let qs = workload(cfg, d, k, cfg.baseline_queries);
        let mut cells = vec![d.name.clone(), crate::alloc::fmt_bytes(d.graph.heap_bytes())];
        for algo in [Algo::Bssr, Algo::BssrNoOpt, Algo::Pne, Algo::Dij] {
            crate::alloc::reset_peak();
            let before = crate::alloc::current_bytes();
            let r = run_batch(&ctx, &qs, algo, opts);
            let peak = crate::alloc::peak_bytes().saturating_sub(before);
            cells.push(if r.executed == 0 {
                "> cap".into()
            } else {
                crate::alloc::fmt_bytes(peak)
            });
        }
        t.row(cells);
    }
    println!("{t}");
}

/// Table 7: effect of the initial search.
pub fn table7(cfg: &ExpConfig, datasets: &[Dataset]) {
    println!("# Table 7 — effect of the initial search (NNinit)\n");
    for d in datasets {
        let ctx = d.context();
        let mut t = Table::new(vec![
            "|Sq|",
            "weight sum w/ init",
            "weight sum w/o init",
            "NNinit time [ms]",
            "# init routes",
            "length ratio",
        ]);
        for k in 2..=cfg.seq_max {
            let qs = workload(cfg, d, k, cfg.queries);
            let with = run_batch(&ctx, &qs, Algo::Bssr, RunOpts::default());
            let mut no_init = Bssr::with_config(
                &ctx,
                BssrConfig { use_init_search: false, ..BssrConfig::paper() },
            );
            let mut wo_sum = 0.0;
            for q in &qs {
                wo_sum += no_init.run(q).unwrap().stats.first_mdijkstra_weight_sum;
            }
            let ratio_mean = {
                let rs: Vec<f64> = with.stats.iter().filter_map(|s| s.init_length_ratio).collect();
                if rs.is_empty() {
                    f64::NAN
                } else {
                    rs.iter().sum::<f64>() / rs.len() as f64
                }
            };
            t.row(vec![
                k.to_string(),
                format!("{:.3e}", mean_of(&with.stats, |s| s.first_mdijkstra_weight_sum)),
                format!("{:.3e}", wo_sum / qs.len() as f64),
                fmt_ms(mean_of(&with.stats, |s| s.init_time.as_secs_f64() * 1e3)),
                format!("{:.2}", mean_of(&with.stats, |s| s.init_routes as f64)),
                format!("{ratio_mean:.2}"),
            ]);
        }
        println!("## {}", d.name);
        println!("{t}");
    }
}

/// Table 8: vertices visited, proposed vs distance-based queue.
pub fn table8(cfg: &ExpConfig, datasets: &[Dataset]) {
    println!("# Table 8 — vertices visited: proposed vs distance-based queue\n");
    for d in datasets {
        let ctx = d.context();
        let mut t = Table::new(vec!["|Sq|", "Proposed", "Distance-based"]);
        for k in 2..=cfg.seq_max {
            let qs = workload(cfg, d, k, cfg.queries);
            let mut visited = [0.0f64; 2];
            for (i, policy) in
                [QueuePolicy::Proposed, QueuePolicy::DistanceBased].into_iter().enumerate()
            {
                let mut engine = Bssr::with_config(
                    &ctx,
                    BssrConfig { queue_policy: policy, ..BssrConfig::paper() },
                );
                let mut sum = 0u64;
                for q in &qs {
                    sum += engine.run(q).unwrap().stats.search.settled;
                }
                visited[i] = sum as f64 / qs.len() as f64;
            }
            t.row(vec![k.to_string(), format!("{:.0}", visited[0]), format!("{:.0}", visited[1])]);
        }
        println!("## {}", d.name);
        println!("{t}");
    }
}

/// Figure 4: ratios of the possible minimum distances to the initial
/// perfect route length (|S_q| = max).
pub fn fig4(cfg: &ExpConfig, datasets: &[Dataset]) {
    println!(
        "# Figure 4 — minimum-distance bounds relative to the initial route (|Sq| = {})\n",
        cfg.seq_max
    );
    let mut t = Table::new(vec!["Dataset", "semantic-match ls", "perfect-match lp"]);
    for d in datasets {
        let ctx = d.context();
        let qs = workload(cfg, d, cfg.seq_max, cfg.queries);
        let mut engine = Bssr::with_config(&ctx, BssrConfig::paper());
        let (mut ls_ratio, mut lp_ratio, mut n) = (0.0, 0.0, 0);
        for q in &qs {
            let result = engine.run(q).unwrap();
            let Some(perfect) =
                result.routes.iter().find(|r| r.semantic == 0.0).map(|r| r.length.get())
            else {
                continue;
            };
            if perfect <= 0.0 {
                continue;
            }
            ls_ratio += result.stats.ls_total() / perfect;
            lp_ratio += result.stats.lp_total() / perfect;
            n += 1;
        }
        if n > 0 {
            t.row(vec![
                d.name.clone(),
                format!("{:.4}", ls_ratio / n as f64),
                format!("{:.4}", lp_ratio / n as f64),
            ]);
        }
    }
    println!("{t}");
}

/// Figure 5: modified-Dijkstra executions with vs without the cache.
pub fn fig5(cfg: &ExpConfig, datasets: &[Dataset]) {
    println!("# Figure 5 — modified-Dijkstra executions, with vs without cache\n");
    for d in datasets {
        let ctx = d.context();
        let mut t = Table::new(vec!["|Sq|", "with cache", "w/o cache", "cache hits"]);
        for k in 2..=cfg.seq_max {
            let qs = workload(cfg, d, k, cfg.queries);
            let mut with = Bssr::with_config(&ctx, BssrConfig::paper());
            let mut without = Bssr::with_config(
                &ctx,
                BssrConfig { expansion: Expansion::PerRoute, ..BssrConfig::paper() },
            );
            let (mut runs_w, mut hits, mut runs_wo) = (0u64, 0u64, 0u64);
            for q in &qs {
                let s = with.run(q).unwrap().stats;
                runs_w += s.mdijkstra_runs;
                hits += s.cache_hits;
                runs_wo += without.run(q).unwrap().stats.mdijkstra_runs;
            }
            let n = qs.len() as f64;
            t.row(vec![
                k.to_string(),
                format!("{:.1}", runs_w as f64 / n),
                format!("{:.1}", runs_wo as f64 / n),
                format!("{:.1}", hits as f64 / n),
            ]);
        }
        println!("## {}", d.name);
        println!("{t}");
    }
}

/// Figure 6: number of SkySRs vs |S_q|.
pub fn fig6(cfg: &ExpConfig, datasets: &[Dataset]) {
    println!("# Figure 6 — number of skyline sequenced routes\n");
    let mut t = Table::new(vec!["|Sq|", "Tokyo", "NYC", "Cal"]);
    let mut columns: Vec<Vec<String>> = Vec::new();
    for d in datasets {
        let ctx = d.context();
        let mut engine = Bssr::with_config(&ctx, BssrConfig::paper());
        let mut col = Vec::new();
        for k in 2..=cfg.seq_max {
            let qs = workload(cfg, d, k, cfg.queries);
            let mut total = 0usize;
            for q in &qs {
                total += engine.run(q).unwrap().routes.len();
            }
            col.push(format!("{:.2}", total as f64 / qs.len() as f64));
        }
        columns.push(col);
    }
    for (i, k) in (2..=cfg.seq_max).enumerate() {
        let mut row = vec![k.to_string()];
        for col in &columns {
            row.push(col[i].clone());
        }
        t.row(row);
    }
    println!("{t}");
}

/// Tables 1 & 9: example skyline route sets on the scenario fixtures.
pub fn table1_and_9() {
    use skysr_core::QueryContext;
    println!("# Table 1 — example skyline routes in New York\n");
    let s = crate::fixtures::table1_fixture();
    let ctx = QueryContext::new(&s.graph, &s.forest, &s.pois);
    let result = Bssr::with_config(&ctx, BssrConfig::paper()).run(&s.query).unwrap();
    let mut t = Table::new(vec!["Distance", "Semantic", "Sequenced route"]);
    for r in result.routes.iter().rev() {
        t.row(vec![
            format!("{:.0} meters", r.length.get()),
            format!("{:.3}", r.semantic),
            r.pois.iter().map(|&p| s.poi_label(p)).collect::<Vec<_>>().join(" -> "),
        ]);
    }
    println!("{t}");

    println!("# Table 9 — example SkySRs in Tokyo (with hotel destination)\n");
    let s = crate::fixtures::table9_fixture();
    let ctx = QueryContext::new(&s.graph, &s.forest, &s.pois);
    let dq = skysr_core::variants::destination::DestinationQuery::new(
        s.query.clone(),
        s.destination.expect("table9 has a destination"),
    );
    let result = dq.run(&ctx, BssrConfig::paper()).unwrap();
    let mut t = Table::new(vec!["Distance", "Semantic", "Sequenced route"]);
    for r in result.routes.iter().rev() {
        t.row(vec![
            format!("{:.0} meters", r.length.get()),
            format!("{:.3}", r.semantic),
            r.pois.iter().map(|&p| s.poi_label(p)).collect::<Vec<_>>().join(" -> "),
        ]);
    }
    println!("{t}");
}

/// Ablation: Optimisation 3 off and on (supplements Figure 4 — shows the
/// pruning the bounds actually buy, a design-choice ablation called out in
/// DESIGN.md).
pub fn ablation_bounds(cfg: &ExpConfig, datasets: &[Dataset]) {
    println!("# Ablation — lower-bound modes (routes enqueued, |Sq| = {})\n", cfg.seq_max);
    let mut t = Table::new(vec!["Dataset", "Off", "Full"]);
    for d in datasets {
        let ctx = d.context();
        let qs = workload(cfg, d, cfg.seq_max, cfg.queries);
        let mut cells = vec![d.name.clone()];
        for mode in [LowerBoundMode::Off, LowerBoundMode::Full] {
            let mut engine =
                Bssr::with_config(&ctx, BssrConfig { lower_bound: mode, ..BssrConfig::paper() });
            let mut enq = 0u64;
            for q in &qs {
                enq += engine.run(q).unwrap().stats.routes_enqueued;
            }
            cells.push(format!("{:.1}", enq as f64 / qs.len() as f64));
        }
        t.row(cells);
    }
    println!("{t}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use skysr_data::dataset::{DatasetSpec, Preset};

    #[test]
    fn figure_4_engine_computes_the_bounds() {
        let d = DatasetSpec::preset(Preset::TokyoSmall).scale(0.02).seed(51).generate();
        let ctx = d.context();
        let mut engine = Bssr::with_config(&ctx, BssrConfig::paper());
        for k in [2, 3] {
            for q in WorkloadSpec::new(k).queries(2).seed(5).generate(&d).queries {
                let stats = engine.run(&q).unwrap().stats;
                assert_eq!(stats.ls.len(), k - 1, "one semantic-match gap per position pair");
                assert_eq!(stats.lp.len(), k - 1, "one perfect-match gap per position pair");
            }
        }
    }
}
