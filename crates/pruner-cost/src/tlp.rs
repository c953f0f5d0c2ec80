//! TLP — the schedule-primitive transformer baseline (Zhai et al.).

use crate::model::{fit_lambdarank, predict_chunked, CostModel, ModelSnapshot};
use crate::sample::{attention_masks_in, stack_tokens_in, Sample};
use pruner_features::{MAX_TOKENS, TLP_DIM};
use pruner_nn::{Adam, Graph, Linear, Mlp, Module, NodeId, SelfAttention};
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

    /// Forward pass over the picked samples; returns the `[n,1]` score node.
    fn forward(&self, g: &mut Graph, samples: &[Sample], picks: &[usize]) -> NodeId {
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

    fn predict_with(&self, g: &mut Graph, samples: &[Sample]) -> Vec<f32> {
        predict_chunked::<_, 256>(self, Self::forward, g, samples)
    }

    fn fit_batch(&mut self, samples: &[Sample], epochs: usize, threads: usize) -> f64 {
        let seed = self.seed;
        fit_lambdarank(self, Self::forward, |m| &mut m.adam, samples, epochs, seed, threads)
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
        m.fit_batch(&samples, 40, 1);
        let rho = spearman_to_truth(&mut m, &samples, &truth);
        // TLP is the least stable model of the roster (the paper observes it
        // failing outright on some workloads); this checks it learns on a
        // dataset where schedule tokens do carry signal.
        assert!(rho > 0.3, "TLP failed to learn: ρ = {rho:.3}");
    }
}
