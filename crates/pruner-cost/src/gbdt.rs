//! Gradient-boosted regression trees — the faithful analog of Ansor's
//! XGBoost cost model.
//!
//! [`AnsorModel`](crate::AnsorModel) approximates Ansor's model with a
//! compact MLP for campaign speed; [`XgbModel`] is the tree-based variant
//! for experiments that want the real architecture family: squared-error
//! gradient boosting over pooled statement features, retrained from
//! scratch at every `fit_batch` exactly as Ansor retrains per round.

use crate::model::{CostModel, ModelSnapshot};
use crate::sample::{labeled_groups, stack_pooled_in, Sample};
use pruner_nn::{latencies_to_relevance, Graph};
use serde::{Deserialize, Serialize};

/// One axis-aligned regression tree, stored as a flat node arena.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RegressionTree {
    nodes: Vec<TreeNode>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum TreeNode {
    Leaf {
        value: f32,
    },
    Split {
        feature: usize,
        threshold: f32,
        /// Arena index of the `<= threshold` child.
        left: usize,
        /// Arena index of the `> threshold` child.
        right: usize,
    },
}

impl RegressionTree {
    /// Fits a tree to `(x, residual)` pairs by greedy SSE reduction.
    fn fit(
        x: &[Vec<f32>],
        y: &[f32],
        rows: &[usize],
        max_depth: usize,
        min_leaf: usize,
        thresholds_per_feature: usize,
    ) -> RegressionTree {
        let mut tree = RegressionTree { nodes: Vec::new() };
        tree.grow(x, y, rows, max_depth, min_leaf, thresholds_per_feature);
        tree
    }

    fn grow(
        &mut self,
        x: &[Vec<f32>],
        y: &[f32],
        rows: &[usize],
        depth: usize,
        min_leaf: usize,
        thresholds_per_feature: usize,
    ) -> usize {
        let mean = rows.iter().map(|&r| y[r]).sum::<f32>() / rows.len().max(1) as f32;
        if depth == 0 || rows.len() < 2 * min_leaf {
            self.nodes.push(TreeNode::Leaf { value: mean });
            return self.nodes.len() - 1;
        }
        let base_sse: f32 = rows.iter().map(|&r| (y[r] - mean).powi(2)).sum();
        let n_features = x[rows[0]].len();
        let mut best: Option<(usize, f32, f32)> = None; // (feature, threshold, gain)
        #[allow(clippy::needless_range_loop)] // f indexes into every row of x
        for f in 0..n_features {
            // Candidate thresholds: quantiles of this node's values.
            let mut vals: Vec<f32> = rows.iter().map(|&r| x[r][f]).collect();
            vals.sort_by(|a, b| a.partial_cmp(b).expect("finite features"));
            if vals.first() == vals.last() {
                continue; // constant feature here
            }
            for q in 1..=thresholds_per_feature {
                let idx = q * (vals.len() - 1) / (thresholds_per_feature + 1);
                let thr = vals[idx];
                // Split statistics.
                let (mut ln, mut ls, mut rn, mut rs) = (0usize, 0.0f32, 0usize, 0.0f32);
                for &r in rows {
                    if x[r][f] <= thr {
                        ln += 1;
                        ls += y[r];
                    } else {
                        rn += 1;
                        rs += y[r];
                    }
                }
                if ln < min_leaf || rn < min_leaf {
                    continue;
                }
                let (lm, rm) = (ls / ln as f32, rs / rn as f32);
                let mut sse = 0.0;
                for &r in rows {
                    let m = if x[r][f] <= thr { lm } else { rm };
                    sse += (y[r] - m).powi(2);
                }
                let gain = base_sse - sse;
                if best.map(|(_, _, g)| gain > g).unwrap_or(gain > 1e-12) {
                    best = Some((f, thr, gain));
                }
            }
        }
        let Some((feature, threshold, _)) = best else {
            self.nodes.push(TreeNode::Leaf { value: mean });
            return self.nodes.len() - 1;
        };
        let (left_rows, right_rows): (Vec<usize>, Vec<usize>) =
            rows.iter().partition(|&&r| x[r][feature] <= threshold);
        // Reserve this node's slot, then grow children.
        let slot = self.nodes.len();
        self.nodes.push(TreeNode::Leaf { value: mean }); // placeholder
        let left =
            self.grow(x, y, &left_rows, depth - 1, min_leaf, thresholds_per_feature);
        let right =
            self.grow(x, y, &right_rows, depth - 1, min_leaf, thresholds_per_feature);
        self.nodes[slot] = TreeNode::Split { feature, threshold, left, right };
        slot
    }

    fn predict(&self, x: &[f32]) -> f32 {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                TreeNode::Leaf { value } => return *value,
                TreeNode::Split { feature, threshold, left, right } => {
                    i = if x[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }
}

/// Gradient-boosted regression trees with squared-error loss.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Gbdt {
    trees: Vec<RegressionTree>,
    base: f32,
    learning_rate: f32,
}

impl Gbdt {
    /// Fits `n_trees` trees of depth `max_depth` to `(x, y)`.
    ///
    /// # Panics
    /// Panics if `x` and `y` lengths differ or `x` is empty.
    pub fn fit(
        x: &[Vec<f32>],
        y: &[f32],
        n_trees: usize,
        max_depth: usize,
        learning_rate: f32,
    ) -> Gbdt {
        assert_eq!(x.len(), y.len(), "feature/target length mismatch");
        assert!(!x.is_empty(), "cannot fit on empty data");
        let base = y.iter().sum::<f32>() / y.len() as f32;
        let rows: Vec<usize> = (0..x.len()).collect();
        let mut pred = vec![base; x.len()];
        let mut trees = Vec::with_capacity(n_trees);
        for _ in 0..n_trees {
            let residual: Vec<f32> =
                y.iter().zip(&pred).map(|(t, p)| t - p).collect();
            let tree = RegressionTree::fit(x, &residual, &rows, max_depth, 4, 8);
            for (i, p) in pred.iter_mut().enumerate() {
                *p += learning_rate * tree.predict(&x[i]);
            }
            trees.push(tree);
        }
        Gbdt { trees, base, learning_rate }
    }

    /// Predicts one row.
    pub fn predict(&self, x: &[f32]) -> f32 {
        self.base
            + self.learning_rate
                * self.trees.iter().map(|t| t.predict(x)).sum::<f32>()
    }

    /// Number of fitted trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }
}

/// The tree-based Ansor model: boosted trees over pooled statement
/// features, retrained from scratch on every `fit_batch` call (as the real
/// system retrains per tuning round).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct XgbModel {
    gbdt: Option<Gbdt>,
    /// Trees per fit.
    pub n_trees: usize,
    /// Tree depth.
    pub max_depth: usize,
    /// Shrinkage.
    pub learning_rate: f32,
}

impl XgbModel {
    /// Builds the model with Ansor-like hyperparameters.
    pub fn new() -> XgbModel {
        XgbModel { gbdt: None, n_trees: 30, max_depth: 4, learning_rate: 0.3 }
    }

    fn featurize(g: &mut Graph, samples: &[Sample], picks: &[usize]) -> Vec<Vec<f32>> {
        let pooled = stack_pooled_in(g, samples, picks);
        (0..picks.len()).map(|r| pooled.row(r).to_vec()).collect()
    }
}

impl CostModel for XgbModel {
    fn name(&self) -> &'static str {
        "Ansor-XGB"
    }

    fn predict_with(&self, g: &mut Graph, samples: &[Sample]) -> Vec<f32> {
        let Some(gbdt) = &self.gbdt else { return vec![0.0; samples.len()] };
        let picks: Vec<usize> = (0..samples.len()).collect();
        Self::featurize(g, samples, &picks).iter().map(|row| gbdt.predict(row)).collect()
    }

    fn fit_batch(&mut self, samples: &[Sample], _epochs: usize, _threads: usize) -> f64 {
        // Targets: per-task normalized throughput (same objective as the
        // MLP Ansor baseline); trees are retrained from scratch.
        let groups = labeled_groups(samples);
        let labeled: usize = groups.iter().map(Vec::len).sum();
        if labeled < 8 {
            return 0.0;
        }
        let mut x = Vec::with_capacity(labeled);
        let mut y = Vec::with_capacity(labeled);
        let mut g = Graph::new();
        for group in groups {
            let lats: Vec<f64> = group.iter().map(|&i| samples[i].latency).collect();
            let rel = latencies_to_relevance(&lats);
            x.extend(Self::featurize(&mut g, samples, &group));
            y.extend(rel);
        }
        let gbdt = Gbdt::fit(&x, &y, self.n_trees, self.max_depth, self.learning_rate);
        // Report training MSE.
        let mse = x
            .iter()
            .zip(&y)
            .map(|(row, &t)| (gbdt.predict(row) - t).powi(2) as f64)
            .sum::<f64>()
            / x.len() as f64;
        self.gbdt = Some(gbdt);
        mse
    }

    fn clone_box(&self) -> Box<dyn CostModel> {
        Box::new(self.clone())
    }

    fn snapshot(&self) -> Option<ModelSnapshot> {
        Some(ModelSnapshot::Xgb(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{ranking_samples, spearman_to_truth};

    #[test]
    fn gbdt_fits_simple_function() {
        // y = 2*x0 - x1 on a small grid.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                let (a, b) = (i as f32 / 20.0, j as f32 / 20.0);
                x.push(vec![a, b]);
                y.push(2.0 * a - b);
            }
        }
        let g = Gbdt::fit(&x, &y, 40, 3, 0.3);
        let mse: f32 = x
            .iter()
            .zip(&y)
            .map(|(row, &t)| (g.predict(row) - t).powi(2))
            .sum::<f32>()
            / x.len() as f32;
        assert!(mse < 0.01, "GBDT failed to fit a linear function: mse {mse}");
        assert_eq!(g.num_trees(), 40);
    }

    #[test]
    fn deeper_boosting_reduces_training_error() {
        let (samples, _) = ranking_samples(64, 81);
        let mut small = XgbModel { n_trees: 3, ..XgbModel::new() };
        let mut large = XgbModel { n_trees: 40, ..XgbModel::new() };
        let e_small = small.fit_batch(&samples, 1, 1);
        let e_large = large.fit_batch(&samples, 1, 1);
        assert!(e_large < e_small, "more trees must fit better: {e_small} vs {e_large}");
    }

    #[test]
    fn xgb_learns_ranking() {
        let (samples, truth) = ranking_samples(64, 82);
        let mut m = XgbModel::new();
        m.fit_batch(&samples, 1, 1);
        let rho = spearman_to_truth(&mut m, &samples, &truth);
        assert!(rho > 0.5, "Ansor-XGB failed to learn: ρ = {rho:.3}");
    }

    #[test]
    fn unfitted_model_returns_zeros() {
        let (samples, _) = ranking_samples(8, 83);
        let m = XgbModel::new();
        assert!(m.predict_batch(&samples, 1).iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_fit_panics() {
        Gbdt::fit(&[], &[], 5, 3, 0.3);
    }
}
