//! **Figure 6** — Top-1 curves of the cost models at varying training-data
//! sizes (NVIDIA T4).
//!
//! Paper shape to reproduce: PaCM converges to a higher Top-1 with *less*
//! data than TensetMLP and TLP — the pay-off of the structured data-flow
//! features.

use pruner::cost::metrics::{top_k, TaskEval};
use pruner::cost::{ModelKind, Sample};
use pruner::dataset::Dataset;
use pruner::gpu::GpuSpec;
use pruner_bench::{full_scale, write_result, TextTable};
use serde::Serialize;
use std::collections::BTreeMap;

#[derive(Serialize)]
struct Fig6Point {
    method: String,
    programs_per_subgraph: usize,
    train_programs: usize,
    top1: f64,
}

fn evaluate(scores: &[f32], test: &[Sample]) -> Vec<TaskEval> {
    let mut tasks: BTreeMap<usize, TaskEval> = BTreeMap::new();
    for (s, &score) in test.iter().zip(scores) {
        let e = tasks.entry(s.task_id).or_insert_with(|| TaskEval {
            weight: 1,
            latencies: Vec::new(),
            scores: Vec::new(),
        });
        e.latencies.push(s.latency);
        e.scores.push(score);
    }
    tasks.into_values().filter(|t| t.latencies.len() >= 5).collect()
}

fn main() {
    let spec = GpuSpec::t4();
    let (max_progs, epochs) = if full_scale() { (128, 40) } else { (64, 25) };
    let sizes: &[usize] = if full_scale() { &[8, 16, 32, 64, 128] } else { &[8, 16, 32, 64] };
    let seeds: &[u64] = if full_scale() { &[5, 6, 7] } else { &[5, 6] };

    println!("generating {} dataset ({} programs/subgraph)...", spec.name, max_progs);
    let data = Dataset::generate(&spec, &pruner::dataset::table1_networks(), max_progs, 11);
    let (_, test) = data.split(0.8, 3);

    let mut points = Vec::new();
    let mut table = TextTable::new(&["train size", "TensetMLP", "TLP", "PaCM"]);
    for &size in sizes {
        // Truncate *training* subgraphs to `size` programs each; the test
        // side keeps its full spaces so Top-1 stays comparable.
        let truncated = data.truncated(size);
        let (train, _) = truncated.split(0.8, 3);
        let mut row = vec![train.len().to_string()];
        for kind in [ModelKind::TensetMlp, ModelKind::Tlp, ModelKind::Pacm] {
            let mut t1 = 0.0;
            let mut name = String::new();
            for &seed in seeds {
                let mut model = kind.build(seed);
                model.fit_batch(&train, epochs, 1);
                let tasks = evaluate(&model.predict_batch(&test, 1), &test);
                t1 += top_k(&tasks, 1) / seeds.len() as f64;
                name = model.name().to_string();
            }
            row.push(format!("{t1:.3}"));
            points.push(Fig6Point {
                method: name,
                programs_per_subgraph: size,
                train_programs: train.len(),
                top1: t1,
            });
            print!(".");
            use std::io::Write;
            std::io::stdout().flush().ok();
        }
        table.row(row);
    }

    println!("\n\nFigure 6: Top-1 vs training-set size on NVIDIA T4\n");
    table.print();
    write_result("fig6", &points);
}
