//! **Figure 10 (and 14/15)** — Search time required for Pruner to reach
//! the latency other methods achieve with their *full* tuning budget, per
//! network.
//!
//! Online side (Fig. 10 left / Fig. 14): Pruner w/o MTL and Pruner (MTL)
//! versus Ansor's final latency. Offline side (Fig. 15): Pruner (offline
//! PaCM) versus TensetMLP's and TLP's final latencies.
//!
//! Paper shape to reproduce: average speedups of roughly 2.5-2.7× (w/o
//! MTL) and 4.2-5.5× (MTL) over Ansor, ~4.5-5× over TensetMLP and ~4×
//! over TLP, on every platform.

use pruner::cost::ModelKind;
use pruner::gpu::GpuSpec;
use pruner::ir::zoo;
use pruner_bench::{
    full_scale, k80_pretrained_pacm, offline_dataset, run_offline, run_online, top_tasks,
    write_result, OnlineMethod, TextTable,
};
use serde::Serialize;

#[derive(Serialize)]
struct SpeedupRow {
    network: String,
    ansor_s: f64,
    no_mtl_speedup: Option<f64>,
    mtl_speedup: Option<f64>,
    tensetmlp_speedup: Option<f64>,
    tlp_speedup: Option<f64>,
}

fn main() {
    let spec = GpuSpec::a100();
    let nets = if full_scale() {
        zoo::all_networks(1)
    } else {
        vec![
            zoo::resnet50(1),
            zoo::mobilenet_v2(1),
            zoo::vit(1),
            zoo::deeplabv3_r50(1),
            zoo::bert_base(1, 128),
        ]
    };

    println!("pre-training the K80 Siamese model...");
    let pretrained = k80_pretrained_pacm(0);
    println!("building the {} offline corpus...", spec.name);
    let corpus = offline_dataset(&spec, 31).to_samples();
    let epochs = if full_scale() { 25 } else { 15 };

    let mut rows = Vec::new();
    let mut table = TextTable::new(&[
        "network",
        "Ansor time (s)",
        "w/o MTL speedup",
        "MTL speedup",
        "vs TensetMLP",
        "vs TLP",
    ]);
    let fmt = |v: &Option<f64>| v.map(|s| format!("{s:.2}x")).unwrap_or_else(|| "-".into());
    let (mut acc, mut n) = ([0.0f64; 4], [0usize; 4]);

    for net in &nets {
        let net = top_tasks(net, 8);
        println!("\n--- {} ---", net.name());

        // Online side.
        let ansor = run_online(spec.clone(), &net, OnlineMethod::Ansor, &pretrained, 29);
        let no_mtl = run_online(spec.clone(), &net, OnlineMethod::PrunerNoMtl, &pretrained, 29);
        let mtl = run_online(spec.clone(), &net, OnlineMethod::Pruner, &pretrained, 29);
        let ansor_total = ansor.stats.total_s();
        let no_mtl_speedup =
            no_mtl.curve.time_to_reach(ansor.best_latency_s).map(|t| ansor_total / t);
        let mtl_speedup =
            mtl.curve.time_to_reach(ansor.best_latency_s).map(|t| ansor_total / t);

        // Offline side.
        let mk = |kind: ModelKind| {
            let mut m = kind.build(17);
            m.fit_batch(&corpus, epochs, 1);
            m
        };
        let tenset = run_offline(spec.clone(), &net, mk(ModelKind::TensetMlp), false, 37);
        let tlp = run_offline(spec.clone(), &net, mk(ModelKind::Tlp), false, 37);
        let pruner_off = run_offline(spec.clone(), &net, mk(ModelKind::Pacm), true, 37);
        let tenset_speedup = pruner_off
            .curve
            .time_to_reach(tenset.best_latency_s)
            .map(|t| tenset.stats.total_s() / t);
        let tlp_speedup = pruner_off
            .curve
            .time_to_reach(tlp.best_latency_s)
            .map(|t| tlp.stats.total_s() / t);

        for (i, v) in [&no_mtl_speedup, &mtl_speedup, &tenset_speedup, &tlp_speedup]
            .iter()
            .enumerate()
        {
            if let Some(s) = v {
                acc[i] += s;
                n[i] += 1;
            }
        }
        table.row(vec![
            net.name().to_string(),
            format!("{ansor_total:.0}"),
            fmt(&no_mtl_speedup),
            fmt(&mtl_speedup),
            fmt(&tenset_speedup),
            fmt(&tlp_speedup),
        ]);
        rows.push(SpeedupRow {
            network: net.name().to_string(),
            ansor_s: ansor_total,
            no_mtl_speedup,
            mtl_speedup,
            tensetmlp_speedup: tenset_speedup,
            tlp_speedup,
        });
    }

    println!("\nFigure 10/14/15: time-to-parity speedups on {} \n", spec.name);
    table.print();
    println!(
        "\naverages: w/o MTL {:.2}x, MTL {:.2}x, vs TensetMLP {:.2}x, vs TLP {:.2}x",
        acc[0] / n[0].max(1) as f64,
        acc[1] / n[1].max(1) as f64,
        acc[2] / n[2].max(1) as f64,
        acc[3] / n[3].max(1) as f64,
    );
    write_result("fig10_fig14_fig15", &rows);
}
