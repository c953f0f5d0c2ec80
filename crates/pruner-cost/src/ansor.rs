//! Ansor's online cost model, approximated by a compact MLP regressor.

use crate::model::{adam_step, predict_chunked, CostModel, ModelSnapshot};
use crate::sample::{labeled_groups, stack_pooled_in, Sample};
use pruner_features::STMT_DIM;
use pruner_nn::{latencies_to_relevance, mse_loss, Adam, Graph, Mlp, Module, NodeId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// The Ansor baseline: pooled statement features into a small MLP trained
/// with MSE against normalized throughput.
///
/// Real Ansor uses gradient-boosted trees over similar pooled statement
/// features retrained from scratch each round; a compact regressor with the
/// same inputs and objective plays the identical role in the search loop
/// (weaker features + weaker objective than PaCM, which is what the
/// comparison isolates).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnsorModel {
    net: Mlp,
    #[serde(default = "default_adam")]
    adam: Adam,
    seed: u64,
}

fn default_adam() -> Adam {
    Adam::new(2e-3)
}

impl AnsorModel {
    /// Builds the baseline.
    pub fn new(seed: u64) -> AnsorModel {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        AnsorModel { net: Mlp::new(&[STMT_DIM, 64, 64, 1], &mut rng), adam: default_adam(), seed }
    }

    /// Forward pass over the picked samples; returns the `[n,1]` score node.
    fn forward(&self, g: &mut Graph, samples: &[Sample], picks: &[usize]) -> NodeId {
        let stacked = stack_pooled_in(g, samples, picks);
        let x = g.constant(stacked);
        self.net.forward(g, x)
    }
}

impl Module for AnsorModel {
    fn params_mut(&mut self) -> Vec<&mut pruner_nn::Param> {
        self.net.params_mut()
    }
}

impl CostModel for AnsorModel {
    fn name(&self) -> &'static str {
        "Ansor"
    }

    fn predict_with(&self, g: &mut Graph, samples: &[Sample]) -> Vec<f32> {
        predict_chunked::<_, 512>(self, Self::forward, g, samples)
    }

    fn fit_batch(&mut self, samples: &[Sample], epochs: usize, threads: usize) -> f64 {
        let groups = labeled_groups(samples);
        if groups.is_empty() {
            return 0.0;
        }
        let mut g = Graph::with_threads(threads);
        let mut last = 0.0;
        for _ in 0..epochs.max(1) {
            let mut total = 0.0;
            for group in &groups {
                let lats: Vec<f64> = group.iter().map(|&i| samples[i].latency).collect();
                let rel = latencies_to_relevance(&lats);
                self.zero_grad();
                g.reset();
                let scores = self.forward(&mut g, samples, group);
                let loss = mse_loss(&mut g, scores, &rel);
                total += g.value(loss).at(0, 0) as f64;
                g.backward(loss);
                self.absorb_grads(&g);
                adam_step(self, |m| &mut m.adam);
            }
            last = total / groups.len().max(1) as f64;
        }
        last
    }

    fn clone_box(&self) -> Box<dyn CostModel> {
        Box::new(self.clone())
    }

    fn snapshot(&self) -> Option<ModelSnapshot> {
        Some(ModelSnapshot::Ansor(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{ranking_samples, spearman_to_truth};

    #[test]
    fn training_reduces_loss_and_ranks() {
        let (samples, truth) = ranking_samples(48, 71);
        let mut m = AnsorModel::new(2);
        let first = m.fit_batch(&samples, 1, 1);
        let last = m.fit_batch(&samples, 40, 1);
        assert!(last < first, "MSE should drop: {first} -> {last}");
        let rho = spearman_to_truth(&mut m, &samples, &truth);
        assert!(rho > 0.3, "Ansor model failed to learn: ρ = {rho:.3}");
    }

    #[test]
    fn unlabeled_fit_is_noop() {
        let (mut samples, _) = ranking_samples(8, 72);
        for s in &mut samples {
            s.latency = f64::NAN;
        }
        let mut m = AnsorModel::new(3);
        assert_eq!(m.fit_batch(&samples, 5, 1), 0.0);
    }
}
