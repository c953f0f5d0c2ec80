//! TensetMLP — the statement-feature MLP baseline (Zheng et al., Tenset).

use crate::model::{lambda_magnitude, lambdarank_epochs, CostModel, ModelSnapshot};
use crate::sample::{stack_stmt_in, Sample};
use pruner_features::{MAX_STMTS, STMT_DIM};
use pruner_nn::{lambdarank_grad, Adam, Graph, Mlp, Module, NodeId, Tensor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// TensetMLP: per-statement MLP encoder, summed over statements, with an
/// MLP ranking head. Uses low-level statement features only — no data-flow
/// pattern — which is exactly what PaCM's ablation isolates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TensetMlpModel {
    encoder: Mlp,
    head: Mlp,
    #[serde(default = "default_adam")]
    adam: Adam,
    seed: u64,
}

fn default_adam() -> Adam {
    Adam::new(1e-3)
}

impl TensetMlpModel {
    /// Builds the baseline with its published layer sizes (scaled down to
    /// this reproduction's feature width).
    pub fn new(seed: u64) -> TensetMlpModel {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        TensetMlpModel {
            encoder: Mlp::new(&[STMT_DIM, 128, 128], &mut rng),
            head: Mlp::new(&[128, 64, 1], &mut rng),
            adam: default_adam(),
            seed,
        }
    }

    fn forward(&mut self, g: &mut Graph, samples: &[Sample], picks: &[usize]) -> NodeId {
        let stacked = stack_stmt_in(g, samples, picks);
        let x = g.constant(stacked);
        let enc = self.encoder.forward(g, x);
        let pooled = g.sum_groups(enc, MAX_STMTS);
        self.head.forward(g, pooled)
    }

    /// Inference-only forward pass: same math as [`Self::forward`] but
    /// gradient-free, so it works through `&self` across threads.
    fn forward_infer(&self, g: &mut Graph, samples: &[Sample], picks: &[usize]) -> NodeId {
        let stacked = stack_stmt_in(g, samples, picks);
        let x = g.constant(stacked);
        let enc = self.encoder.forward_infer(g, x);
        let pooled = g.sum_groups(enc, MAX_STMTS);
        self.head.forward_infer(g, pooled)
    }

    /// Total scalar weight count.
    pub fn weight_count(&mut self) -> usize {
        self.num_weights()
    }
}

impl Module for TensetMlpModel {
    fn params_mut(&mut self) -> Vec<&mut pruner_nn::Param> {
        let mut v = self.encoder.params_mut();
        v.extend(self.head.params_mut());
        v
    }
}

impl CostModel for TensetMlpModel {
    fn name(&self) -> &'static str {
        "TensetMLP"
    }

    fn predict(&self, samples: &[Sample]) -> Vec<f32> {
        self.predict_with(&mut Graph::new(), samples)
    }

    fn predict_with(&self, g: &mut Graph, samples: &[Sample]) -> Vec<f32> {
        let picks: Vec<usize> = (0..samples.len()).collect();
        let mut out = Vec::with_capacity(samples.len());
        for chunk in picks.chunks(256) {
            g.reset();
            let scores = self.forward_infer(g, samples, chunk);
            out.extend_from_slice(g.value(scores).as_slice());
        }
        out
    }

    fn fit(&mut self, samples: &[Sample], epochs: usize) -> f64 {
        self.fit_batch(samples, epochs, 1)
    }

    fn fit_batch(&mut self, samples: &[Sample], epochs: usize, threads: usize) -> f64 {
        let seed = self.seed;
        let mut this = std::mem::replace(self, TensetMlpModel::new(0));
        let mut g = Graph::with_threads(threads);
        let loss = lambdarank_epochs(samples, epochs, seed, |group, rel| {
            this.zero_grad();
            g.reset();
            let scores = this.forward(&mut g, samples, group);
            let sv: Vec<f32> = g.value(scores).as_slice().to_vec();
            let lambdas = lambdarank_grad(&sv, rel);
            let objective = lambda_magnitude(&lambdas);
            g.backward_from(scores, Tensor::from_vec(group.len(), 1, lambdas));
            this.absorb_grads(&g);
            let mut adam = std::mem::replace(&mut this.adam, default_adam());
            adam.step(this.params_mut());
            this.adam = adam;
            objective
        });
        *self = this;
        loss
    }

    fn clone_box(&self) -> Box<dyn CostModel> {
        Box::new(self.clone())
    }

    fn snapshot(&self) -> Option<ModelSnapshot> {
        Some(ModelSnapshot::TensetMlp(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{ranking_samples, spearman_to_truth};

    #[test]
    fn training_improves_ranking() {
        let (samples, truth) = ranking_samples(48, 51);
        let mut m = TensetMlpModel::new(2);
        m.fit(&samples, 30);
        let rho = spearman_to_truth(&mut m, &samples, &truth);
        assert!(rho > 0.4, "TensetMLP failed to learn: ρ = {rho:.3}");
    }

    #[test]
    fn predict_is_pure() {
        let (samples, _) = ranking_samples(16, 52);
        let m = TensetMlpModel::new(4);
        assert_eq!(m.predict(&samples), m.predict(&samples));
    }
}
