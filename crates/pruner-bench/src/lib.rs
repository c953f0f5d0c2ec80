//! Shared infrastructure for the experiment harness.
//!
//! Every table and figure of the paper is regenerated by one bench target
//! of this crate (`cargo bench -p pruner-bench --bench table1`, …;
//! `cargo bench --workspace` runs them all). Each bench prints the
//! paper-formatted table to stdout and writes machine-readable JSON under
//! `results/`.
//!
//! Scale: by default the benches run a reduced but shape-preserving budget
//! so the whole suite finishes in minutes; set `PRUNER_BENCH_FULL=1` for
//! paper-scale budgets (2,000 trials, 512-candidate spaces, all ten
//! networks).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pruner::cost::{CostModel, ModelKind, PacmModel};
use pruner::dataset::Dataset;
use pruner::gpu::GpuSpec;
use pruner::ir::{Network, Subgraph};
use pruner::tuner::{pretrain_pacm, ModelSetup, Tuner, TunerConfig, TuningResult};
use serde::Serialize;
use std::path::PathBuf;

/// Whether paper-scale budgets were requested via `PRUNER_BENCH_FULL=1`.
pub fn full_scale() -> bool {
    std::env::var("PRUNER_BENCH_FULL").map(|v| v == "1").unwrap_or(false)
}

/// The campaign budget: paper scale (200×10) or the reduced default.
pub fn campaign_config(seed: u64) -> TunerConfig {
    if full_scale() {
        TunerConfig { seed, ..TunerConfig::default() }
    } else {
        TunerConfig {
            rounds: 80,
            space_size: 256,
            target_pool: 1024,
            seed,
            ..TunerConfig::default()
        }
    }
}

/// Keeps a network's `k` heaviest subgraphs (by weighted FLOPs) — the
/// standard trick to bound harness runtime while preserving the tuning
/// problem's character. At full scale all subgraphs are kept.
pub fn top_tasks(net: &Network, k: usize) -> Network {
    if full_scale() {
        return net.clone();
    }
    let mut subgraphs: Vec<Subgraph> = net.subgraphs().to_vec();
    subgraphs.sort_by(|a, b| b.weighted_flops().partial_cmp(&a.weighted_flops()).unwrap());
    let mut out = Network::new(format!("{}-top{k}", net.name()));
    for sg in subgraphs.into_iter().take(k) {
        out.add(sg.workload, sg.weight);
    }
    out
}

/// The three online-mode methods of Figures 8/10/16.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnlineMethod {
    /// Ansor: no PSA, online MLP model.
    Ansor,
    /// Pruner without transfer: PSA + PaCM trained online.
    PrunerNoMtl,
    /// Full Pruner: PSA + PaCM + MTL from a K80-pretrained Siamese model.
    Pruner,
}

impl OnlineMethod {
    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            OnlineMethod::Ansor => "Ansor",
            OnlineMethod::PrunerNoMtl => "Pruner w/o MTL",
            OnlineMethod::Pruner => "Pruner",
        }
    }
}

/// Runs one online-mode campaign.
pub fn run_online(
    spec: GpuSpec,
    net: &Network,
    method: OnlineMethod,
    pretrained: &PacmModel,
    seed: u64,
) -> TuningResult {
    let mut cfg = campaign_config(seed);
    let setup = match method {
        OnlineMethod::Ansor => {
            cfg.use_psa = false;
            ModelSetup::Fresh(ModelKind::Ansor)
        }
        OnlineMethod::PrunerNoMtl => ModelSetup::Fresh(ModelKind::Pacm),
        OnlineMethod::Pruner => {
            ModelSetup::Mtl { pretrained: pretrained.clone(), momentum: 0.99 }
        }
    };
    let mut tuner = Tuner::new(spec, cfg, setup);
    tuner.add_network(net);
    tuner.run()
}

/// Runs one offline-mode campaign: a model pre-trained on the *target*
/// platform's offline dataset, fine-tuned online.
pub fn run_offline(
    spec: GpuSpec,
    net: &Network,
    model: Box<dyn CostModel>,
    use_psa: bool,
    seed: u64,
) -> TuningResult {
    let mut cfg = campaign_config(seed);
    cfg.use_psa = use_psa;
    let mut tuner = Tuner::new(spec, cfg, ModelSetup::Offline(model));
    tuner.add_network(net);
    tuner.run()
}

/// Builds the cross-platform pre-training corpus (the "K80-6M TensetGPUs"
/// stand-in) and pre-trains PaCM on it.
pub fn k80_pretrained_pacm(seed: u64) -> PacmModel {
    // The real pre-training corpus (TensetGPUs) spans >100 networks; this
    // stand-in needs at least one representative of every operator family
    // the target networks contain (wide GEMMs included), or the Siamese
    // prior misleads on out-of-distribution tasks.
    let (progs, epochs) = if full_scale() { (96, 16) } else { (48, 10) };
    let data = Dataset::generate(
        &GpuSpec::k80(),
        &[
            pruner::ir::zoo::resnet50(1),
            pruner::ir::zoo::mobilenet_v2(1),
            pruner::ir::zoo::bert_base(1, 128),
            pruner::ir::zoo::bert_tiny(1, 128),
        ],
        progs,
        seed,
    );
    pretrain_pacm(&data.to_samples(), epochs, seed)
}

/// Builds an offline dataset of the given platform for the offline-mode
/// comparisons (the paper's per-platform 500k-program corpora).
pub fn offline_dataset(spec: &GpuSpec, seed: u64) -> Dataset {
    let progs = if full_scale() { 128 } else { 64 };
    Dataset::generate(
        spec,
        &[
            pruner::ir::zoo::resnet50(1),
            pruner::ir::zoo::vit(1),
            pruner::ir::zoo::bert_base(1, 128),
        ],
        progs,
        seed,
    )
}

/// A simple aligned text table.
#[derive(Debug, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Starts a table with column headers.
    pub fn new(headers: &[&str]) -> TextTable {
        TextTable { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Prints with aligned columns.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", fmt_row(&self.headers));
        println!("{}", widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  "));
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }
    }
}

/// Writes a pretty JSON result file under `results/` (created on demand)
/// through [`pruner::durable::write_atomic_durable`], and returns its path.
///
/// # Panics
/// Panics on I/O errors — a harness without its output is a failed run.
pub fn write_result<T: Serialize>(name: &str, value: &T) -> PathBuf {
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize result");
    pruner::durable::write_atomic_durable(&path, &json, None).expect("write result file");
    println!("\n[results written to {}]", path.display());
    path
}

/// The `results/` directory at the workspace root.
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/pruner-bench → workspace root is two up.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("results")
}

/// Downsamples a tuning curve to at most `n` points for compact printing.
pub fn sample_curve(result: &TuningResult, n: usize) -> Vec<(u64, f64, f64)> {
    let pts = result.curve.points();
    let step = (pts.len() / n.max(1)).max(1);
    pts.iter()
        .step_by(step)
        .map(|p| (p.trials, p.search_time_s, p.best_latency_s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_tasks_keeps_heaviest() {
        let net = pruner::ir::zoo::resnet50(1);
        let cut = top_tasks(&net, 5);
        assert!(cut.num_tasks() <= 5);
        let max_kept = cut.subgraphs().iter().map(|s| s.weighted_flops()).fold(0.0, f64::max);
        let max_all = net.subgraphs().iter().map(|s| s.weighted_flops()).fold(0.0, f64::max);
        assert_eq!(max_kept, max_all);
    }

    #[test]
    fn text_table_prints() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.print();
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_bad_rows() {
        TextTable::new(&["a"]).row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn results_dir_is_workspace_level() {
        assert!(results_dir().ends_with("results"));
    }
}
