//! **Figure 9 (and 17)** — Offline-mode end-to-end tuning curves: models
//! pre-trained on the *target* platform's offline corpus, fine-tuned
//! online: TensetMLP vs TLP vs Pruner (PSA + offline PaCM).
//!
//! Paper shape to reproduce: Pruner's curve dominates both baselines; TLP
//! is unstable and occasionally fails to improve at all (the paper notes
//! its curve "disappears" on some workloads).

use pruner::cost::ModelKind;
use pruner::gpu::GpuSpec;
use pruner::ir::zoo;
use pruner_bench::{
    full_scale, offline_dataset, run_offline, sample_curve, top_tasks, write_result, TextTable,
};
use serde::Serialize;

#[derive(Serialize)]
struct Fig9Curve {
    platform: String,
    network: String,
    method: String,
    final_ms: f64,
    total_search_s: f64,
    curve: Vec<(u64, f64, f64)>,
}

fn main() {
    let platforms: Vec<GpuSpec> = if full_scale() {
        vec![GpuSpec::a100(), GpuSpec::orin(), GpuSpec::titan_v()]
    } else {
        vec![GpuSpec::a100()]
    };
    let networks = [zoo::vit(1), zoo::deeplabv3_r50(1), zoo::bert_base(1, 128)];
    let epochs = if full_scale() { 25 } else { 15 };

    let mut curves = Vec::new();
    for spec in &platforms {
        println!("building {} offline corpus...", spec.name);
        let corpus = offline_dataset(spec, 31).to_samples();
        // (label, model kind, PSA at search time)
        let methods: Vec<(&str, ModelKind, bool)> = vec![
            ("TensetMLP", ModelKind::TensetMlp, false),
            ("TLP", ModelKind::Tlp, false),
            ("Pruner", ModelKind::Pacm, true),
        ];
        for net in &networks {
            let net = top_tasks(net, 8);
            println!("\n=== {} on {} (offline mode) ===", net.name(), spec.name);
            let mut table = TextTable::new(&["method", "final (ms)", "search (s)"]);
            for (label, kind, use_psa) in &methods {
                let mut model = kind.build(17);
                model.fit_batch(&corpus, epochs, 1);
                let result = run_offline(spec.clone(), &net, model, *use_psa, 23);
                table.row(vec![
                    label.to_string(),
                    format!("{:.3}", result.best_latency_s * 1e3),
                    format!("{:.0}", result.stats.total_s()),
                ]);
                curves.push(Fig9Curve {
                    platform: spec.name.clone(),
                    network: net.name().to_string(),
                    method: label.to_string(),
                    final_ms: result.best_latency_s * 1e3,
                    total_search_s: result.stats.total_s(),
                    curve: sample_curve(&result, 40),
                });
            }
            table.print();
        }
    }

    println!("\nFigure 9: offline-mode tuning curves (JSON holds the full series)");
    write_result("fig9_fig17", &curves);
}
