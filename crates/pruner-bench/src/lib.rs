//! The experiment harness: every table and figure of the paper's
//! evaluation, plus the simulator-fidelity study and the cross-hardware
//! fleet, as one entry of [`EXPERIMENTS`], run by one runner
//! (`cargo bench -p pruner-bench --bench experiments -- <id>…`, every
//! entry when no id is given) through six shared evaluators — space
//! quality, ranking, campaign grid, memory, fidelity, fleet — into
//! `results/<file>.json`.
//! The checker judges each of the paper's shape claims on that JSON;
//! `cargo test` fails when EXPERIMENTS.md or a recorded verdict drifts
//! from it. `PRUNER_BENCH_FULL=1` selects paper-scale budgets (2,000
//! trials, 512-candidate spaces, all ten networks) over the reduced
//! default, which runs the whole suite in about 11 minutes on two cores.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod check;
mod eval;
mod table;

pub use check::{doc_mismatches, judge, Claim, Verdict};
pub use eval::run;
pub use table::{Experiment, EXPERIMENTS};

use pruner::ir::{Network, Subgraph};
use std::path::PathBuf;

/// Whether paper-scale budgets were requested via `PRUNER_BENCH_FULL=1`.
fn full_scale() -> bool {
    std::env::var("PRUNER_BENCH_FULL").map(|v| v == "1").unwrap_or(false)
}

/// Picks the quick-scale or the paper-scale half of a `(quick, full)` pair.
fn scale<T>((quick, full): (T, T)) -> T {
    if full_scale() {
        full
    } else {
        quick
    }
}

/// Keeps a network's `k` heaviest subgraphs (by weighted FLOPs) — the
/// standard trick to bound harness runtime while preserving the tuning
/// problem's character. At full scale all subgraphs are kept.
pub(crate) fn top_tasks(net: &Network, k: usize) -> Network {
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
                *w = (*w).max(c.chars().count());
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

/// The `results/` directory at the workspace root.
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/pruner-bench → workspace root is two up.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("results")
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
