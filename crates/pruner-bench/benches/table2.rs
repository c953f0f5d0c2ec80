//! **Table 2** — Top-k comparison of learned cost models on NVIDIA T4 and
//! K80 (Tenset-style offline protocol: train on one set of subgraphs,
//! evaluate ranking quality on held-out subgraphs).
//!
//! Paper shape to reproduce: PaCM > TLP ≈ TensetMLP on both platforms and
//! both k (paper T4 Top-1: TensetMLP 0.859, TLP 0.862, PaCM 0.892).

use pruner::cost::metrics::{top_k, TaskEval};
use pruner::cost::{ModelKind, Sample};
use pruner::dataset::Dataset;
use pruner::gpu::GpuSpec;
use pruner_bench::{full_scale, write_result, TextTable};
use serde::Serialize;
use std::collections::BTreeMap;

#[derive(Serialize)]
struct Table2Row {
    method: String,
    platform: String,
    top1: f64,
    top5: f64,
}

/// Groups test samples into per-task `TaskEval`s using the model's scores.
fn evaluate(model_scores: &[f32], test: &[Sample]) -> Vec<TaskEval> {
    let mut tasks: BTreeMap<usize, TaskEval> = BTreeMap::new();
    for (s, &score) in test.iter().zip(model_scores) {
        let entry = tasks.entry(s.task_id).or_insert_with(|| TaskEval {
            weight: 1,
            latencies: Vec::new(),
            scores: Vec::new(),
        });
        entry.latencies.push(s.latency);
        entry.scores.push(score);
    }
    tasks.into_values().filter(|t| t.latencies.len() >= 5).collect()
}

fn main() {
    let (progs, epochs) = if full_scale() { (128, 40) } else { (64, 25) };
    let mut rows = Vec::new();
    let mut table = TextTable::new(&["Method", "T4 Top-1", "T4 Top-5", "K80 Top-1", "K80 Top-5"]);
    let mut per_method: BTreeMap<&str, Vec<f64>> = BTreeMap::new();

    for spec in [GpuSpec::t4(), GpuSpec::k80()] {
        println!("generating {} dataset...", spec.name);
        let data = Dataset::generate(&spec, &pruner::dataset::table1_networks(), progs, 11);
        let (train, test) = data.split(0.8, 3);
        println!(
            "  {} train / {} test programs across {} subgraphs",
            train.len(),
            test.len(),
            data.entries.len()
        );
        let seeds: &[u64] = if full_scale() { &[5, 6, 7, 8, 9] } else { &[5, 6, 7] };
        for kind in [ModelKind::TensetMlp, ModelKind::Tlp, ModelKind::Pacm] {
            let (mut t1, mut t5) = (0.0, 0.0);
            let mut name = "";
            for &seed in seeds {
                let mut model = kind.build(seed);
                model.fit_batch(&train, epochs, 1);
                let scores = model.predict_batch(&test, 1);
                let tasks = evaluate(&scores, &test);
                t1 += top_k(&tasks, 1) / seeds.len() as f64;
                t5 += top_k(&tasks, 5) / seeds.len() as f64;
                name = model.name();
            }
            println!("  {name:<12} Top-1 {t1:.3}  Top-5 {t5:.3}  (mean of {} seeds)", seeds.len());
            per_method.entry(name).or_default().extend([t1, t5]);
            rows.push(Table2Row {
                method: name.to_string(),
                platform: spec.name.clone(),
                top1: t1,
                top5: t5,
            });
        }
    }

    println!("\nTable 2: cost-model ranking quality (Top-k, higher is better)\n");
    for (method, vals) in &per_method {
        table.row(vec![
            method.to_string(),
            format!("{:.3}", vals[0]),
            format!("{:.3}", vals[1]),
            format!("{:.3}", vals[2]),
            format!("{:.3}", vals[3]),
        ]);
    }
    table.print();
    write_result("table2", &rows);
}
