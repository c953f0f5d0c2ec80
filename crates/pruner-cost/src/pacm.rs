//! PaCM — the Pattern-aware Cost Model (paper §2.4, Figure 3).

use crate::model::{fit_lambdarank, predict_chunked, CostModel, ModelSnapshot};
use crate::sample::{attention_masks_in, stack_flow_in, stack_stmt_in, Sample};
use pruner_features::{FLOW_DIM, MAX_FLOW, MAX_STMTS, STMT_DIM};
use pruner_nn::{Adam, Graph, Linear, Mlp, Module, NodeId, SelfAttention};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

const STMT_HIDDEN: usize = 128;
const FLOW_HIDDEN: usize = 32;

/// The multi-branch Pattern-aware Cost Model.
///
/// Statement-level features pass through per-statement linear layers and
/// are summed into one vector; the 23-dim data-flow sequence passes through
/// an embedding plus self-attention (its temporal order and contextual
/// correlation are the whole point); both meet in a concatenation and a
/// final MLP producing a ranking score. Training uses LambdaRank.
///
/// The `w/o S.F.` / `w/o D.F.` ablations of Table 5 drop one branch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PacmModel {
    stmt_enc: Mlp,
    flow_embed: Linear,
    flow_attn: SelfAttention,
    head: Mlp,
    use_stmt: bool,
    use_flow: bool,
    #[serde(default = "default_adam")]
    adam: Adam,
    seed: u64,
}

fn default_adam() -> Adam {
    Adam::new(1e-3)
}

impl PacmModel {
    /// Full PaCM with both feature branches.
    pub fn new(seed: u64) -> PacmModel {
        Self::build(seed, true, true)
    }

    /// Ablation: data-flow branch only (`w/o S.F.`).
    pub(crate) fn without_stmt_branch(seed: u64) -> PacmModel {
        Self::build(seed, false, true)
    }

    /// Ablation: statement branch only (`w/o D.F.`).
    pub(crate) fn without_flow_branch(seed: u64) -> PacmModel {
        Self::build(seed, true, false)
    }

    fn build(seed: u64, use_stmt: bool, use_flow: bool) -> PacmModel {
        assert!(use_stmt || use_flow, "at least one branch must be enabled");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let head_in = if use_stmt { STMT_HIDDEN } else { 0 }
            + if use_flow { FLOW_HIDDEN } else { 0 };
        PacmModel {
            stmt_enc: Mlp::new(&[STMT_DIM, STMT_HIDDEN, STMT_HIDDEN], &mut rng),
            flow_embed: Linear::new(FLOW_DIM, FLOW_HIDDEN, &mut rng),
            flow_attn: SelfAttention::new(FLOW_HIDDEN, 16, MAX_FLOW, &mut rng),
            head: Mlp::new(&[head_in, 64, 1], &mut rng),
            use_stmt,
            use_flow,
            adam: default_adam(),
            seed,
        }
    }

    /// Forward pass over the picked samples; returns the `[n,1]` score node.
    fn forward(&self, g: &mut Graph, samples: &[Sample], picks: &[usize]) -> NodeId {
        let mut joined: Option<NodeId> = None;
        if self.use_stmt {
            let stacked = stack_stmt_in(g, samples, picks);
            let x = g.constant(stacked);
            joined = Some(self.stmt_enc.forward_sum_groups(g, x, MAX_STMTS));
        }
        if self.use_flow {
            let stacked = stack_flow_in(g, samples, picks);
            let (col_mask, row_mask) = attention_masks_in(g, &stacked, MAX_FLOW, FLOW_HIDDEN);
            let x = g.constant(stacked);
            let emb = self.flow_embed.forward_relu(g, x);
            let col = g.constant(col_mask);
            let ctx = self.flow_attn.forward_masked(g, emb, Some(col));
            let row = g.constant(row_mask);
            let ctx = g.mul(ctx, row);
            let pooled = g.sum_groups(ctx, MAX_FLOW);
            joined = Some(match joined {
                Some(j) => g.concat_cols(j, pooled),
                None => pooled,
            });
        }
        let h = joined.expect("at least one branch");
        self.head.forward(g, h)
    }

    /// Captures the final scoring head as a detached [`HeadSnapshot`].
    ///
    /// PaCM splits naturally into a *trunk* (the statement encoder, the
    /// data-flow embedding and its self-attention — everything up to the
    /// concatenation) and a *head* (the final MLP turning the joined
    /// representation into a ranking score). The trunk learns
    /// platform-agnostic structure; the head calibrates it to one device's
    /// latency landscape. The cross-hardware fleet keys one snapshot per
    /// device fingerprint: when the roster revisits a device, restoring
    /// its head resumes that device's calibration while the shared trunk
    /// keeps everything learned since.
    pub fn head_snapshot(&self) -> HeadSnapshot {
        HeadSnapshot {
            head: self.head.clone(),
            use_stmt: self.use_stmt,
            use_flow: self.use_flow,
        }
    }

    /// Restores a previously captured scoring head, leaving the trunk
    /// untouched. Weights only — the Adam moments stay with the model, so
    /// a restore never rewinds the optimizer clock.
    ///
    /// # Panics
    /// Panics if the snapshot came from a different branch configuration
    /// (the head input width differs between the ablations).
    pub fn restore_head(&mut self, snapshot: &HeadSnapshot) {
        assert!(
            snapshot.use_stmt == self.use_stmt && snapshot.use_flow == self.use_flow,
            "head snapshot branch mismatch: snapshot ({}, {}) vs model ({}, {})",
            snapshot.use_stmt,
            snapshot.use_flow,
            self.use_stmt,
            self.use_flow
        );
        self.head = snapshot.head.clone();
    }
}

/// A detached, serializable copy of PaCM's final scoring head — the
/// per-device half of the shared-trunk / per-head split.
///
/// Produced by [`PacmModel::head_snapshot`], restored by
/// [`PacmModel::restore_head`]. The fleet orchestrator
/// (`pruner-tuner::fleet`) keeps one per `GpuSpec::fingerprint` so N
/// devices share one trunk while each keeps its own calibration; see
/// `docs/FLEET.md` for the architecture.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeadSnapshot {
    head: Mlp,
    use_stmt: bool,
    use_flow: bool,
}

impl Module for PacmModel {
    fn params_mut(&mut self) -> Vec<&mut pruner_nn::Param> {
        let mut v = Vec::new();
        if self.use_stmt {
            v.extend(self.stmt_enc.params_mut());
        }
        if self.use_flow {
            v.extend(self.flow_embed.params_mut());
            v.extend(self.flow_attn.params_mut());
        }
        v.extend(self.head.params_mut());
        v
    }
}

impl CostModel for PacmModel {
    fn name(&self) -> &'static str {
        if self.use_stmt && self.use_flow {
            "PaCM"
        } else if self.use_flow {
            "PaCM w/o S.F."
        } else {
            "PaCM w/o D.F."
        }
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
        Some(ModelSnapshot::Pacm(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{ranking_samples, spearman_to_truth};

    #[test]
    fn predict_shape() {
        let (samples, _) = ranking_samples(24, 40);
        let m = PacmModel::new(1);
        assert_eq!(m.predict_batch(&samples, 1).len(), 24);
    }

    #[test]
    fn training_improves_ranking() {
        let (samples, truth) = ranking_samples(48, 41);
        let mut m = PacmModel::new(2);
        let before = spearman_to_truth(&mut m, &samples, &truth);
        m.fit_batch(&samples, 30, 1);
        let after = spearman_to_truth(&mut m, &samples, &truth);
        assert!(
            after > before.max(0.5),
            "PaCM should learn the ranking: {before:.3} -> {after:.3}"
        );
    }

    #[test]
    fn ablated_branches_still_train() {
        let (samples, truth) = ranking_samples(32, 42);
        for mut m in [PacmModel::without_stmt_branch(3), PacmModel::without_flow_branch(3)] {
            m.fit_batch(&samples, 20, 1);
            let rho = spearman_to_truth(&mut m, &samples, &truth);
            assert!(rho > 0.3, "{} failed to learn: ρ = {rho:.3}", m.name());
        }
    }

    /// Scoring runs the forward pass chunk by chunk and fans chunks out
    /// over threads; its scores must equal one dense forward over every
    /// sample, the shape training runs it in, bit for bit — on every
    /// sketch kind (2, 4 and 5 all-zero padding slots of 8), on a sample
    /// with no padding at all, on an all-zero sample, with trained weights
    /// (non-zero biases make a mishandled padded slot visible), for both
    /// ablations and at every `predict_batch` fan-out.
    #[test]
    fn inference_matches_the_training_forward_bitwise() {
        use pruner_ir::{EwKind, Workload};
        use pruner_sketch::{HardwareLimits, Program};
        let limits = HardwareLimits::default();
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let mut samples = Vec::new();
        for (task, wl) in [
            Workload::matmul(1, 256, 256, 256),
            Workload::conv2d(1, 32, 28, 28, 32, 3, 1, 1),
            Workload::elementwise(EwKind::Gelu, 1 << 16),
            Workload::reduction(1024, 512),
        ]
        .iter()
        .enumerate()
        {
            for k in 0..75 {
                let p = Program::sample(wl, &limits, &mut rng);
                samples.push(Sample::labeled(&p, 1e-3 * (1 + (k * 7) % 13) as f64, task));
            }
        }
        // No padding: a matmul sample whose two padded slots repeat real rows.
        let mut full = samples[0].clone();
        full.stmt.copy_within(..2 * STMT_DIM, 6 * STMT_DIM);
        assert!(full.stmt.chunks(STMT_DIM).all(|r| r.iter().any(|&v| v != 0.0)));
        samples.push(full);
        // Nothing but padding.
        let mut empty = samples[1].clone();
        empty.stmt.fill(0.0);
        empty.flow.fill(0.0);
        samples.push(empty);
        assert!(samples.len() > 256, "must span more than one predict chunk");

        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let picks: Vec<usize> = (0..samples.len()).collect();
        for mut m in [
            PacmModel::new(5),
            PacmModel::without_stmt_branch(5),
            PacmModel::without_flow_branch(5),
        ] {
            m.fit_batch(&samples, 2, 1);
            let mut g = Graph::new();
            let dense = m.forward(&mut g, &samples, &picks);
            let dense = bits(g.value(dense).as_slice());
            assert_eq!(bits(&m.predict_batch(&samples, 1)), dense, "{} predict", m.name());
            for threads in 1..=3 {
                assert_eq!(
                    bits(&m.predict_batch(&samples, threads)),
                    dense,
                    "{} predict_batch at {threads} threads",
                    m.name()
                );
            }
        }
    }

    #[test]
    fn weight_count_is_stable() {
        let mut a = PacmModel::new(7);
        let mut b = PacmModel::new(8);
        assert_eq!(a.num_weights(), b.num_weights());
        assert!(a.num_weights() > 1000);
    }

    #[test]
    fn deterministic_given_seed() {
        let (samples, _) = ranking_samples(16, 43);
        let mut a = PacmModel::new(5);
        let mut b = PacmModel::new(5);
        a.fit_batch(&samples, 3, 1);
        b.fit_batch(&samples, 3, 1);
        assert_eq!(a.predict_batch(&samples, 1), b.predict_batch(&samples, 1));
    }

    /// Snapshot → train → restore must bring the head weights back
    /// bit-for-bit: restoring an untouched model is a no-op, and a model
    /// whose head drifted through training regains the snapshot's head
    /// exactly (the trunk keeps its progress).
    #[test]
    fn head_snapshot_restore_round_trips() {
        let (samples, _) = ranking_samples(24, 44);
        let mut m = PacmModel::new(9);
        m.fit_batch(&samples, 2, 1);
        let snap = m.head_snapshot();
        let before = m.predict_batch(&samples, 1);

        // Restore onto the unchanged model: predictions identical.
        m.restore_head(&snap);
        assert_eq!(m.predict_batch(&samples, 1), before, "no-op restore must not drift");

        // Train on, then restore: the fresh snapshot must equal the old
        // one byte-for-byte even though the trunk moved.
        m.fit_batch(&samples, 3, 1);
        assert_ne!(m.predict_batch(&samples, 1), before, "training must move the model");
        m.restore_head(&snap);
        assert_eq!(
            serde_json::to_string(&m.head_snapshot()).unwrap(),
            serde_json::to_string(&snap).unwrap(),
            "restored head must match the snapshot bit-for-bit"
        );
    }

    /// A snapshot survives JSON serialization: restoring the deserialized
    /// copy is indistinguishable from restoring the original.
    #[test]
    fn head_snapshot_serde_round_trips() {
        let (samples, _) = ranking_samples(16, 45);
        let mut m = PacmModel::new(11);
        m.fit_batch(&samples, 2, 1);
        let snap = m.head_snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: HeadSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);

        let mut a = PacmModel::new(12);
        let mut b = PacmModel::new(12);
        a.restore_head(&snap);
        b.restore_head(&back);
        assert_eq!(a.predict_batch(&samples, 1), b.predict_batch(&samples, 1));
    }

    /// Restoring a head across ablation boundaries is a hard error — the
    /// head input width differs, so silently accepting it would corrupt
    /// the model.
    #[test]
    #[should_panic(expected = "branch mismatch")]
    fn head_snapshot_branch_mismatch_rejected() {
        let full = PacmModel::new(1);
        let mut ablated = PacmModel::without_stmt_branch(1);
        ablated.restore_head(&full.head_snapshot());
    }
}
