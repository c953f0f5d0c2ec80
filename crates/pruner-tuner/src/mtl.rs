//! Momentum Transfer Learning (paper §2.5, Figure 5).
//!
//! MTL is how a verifier trained on one platform becomes useful on
//! another without forgetting what it knows. The pre-trained PaCM acts as
//! a **Siamese** network: each online round clones it into a *target*,
//! fine-tunes the target on the measurements collected so far on the new
//! platform, and folds the target's progress back into the Siamese
//! weights with the momentum rule `P_s ← m·P_s + (1−m)·P_t` (`m = 0.99`).
//! The target — fresh off the Siamese weights every round, fully adapted
//! to the round's data — serves as the round's predictor; the Siamese
//! copy drifts slowly, so a few noisy measurements can never wipe out the
//! pre-trained knowledge.
//!
//! ## The transfer path, end to end
//!
//! 1. **Pre-train** a PaCM offline on a source platform's labeled
//!    programs ([`pretrain_pacm`], or a warm start replaying a record
//!    store into the campaign's model before round 0).
//! 2. **Configure** a campaign with
//!    [`ModelSetup::Mtl`](crate::ModelSetup::Mtl) — the tuner builds an
//!    [`Mtl`] around the pre-trained weights and runs [`Mtl::round`]
//!    once per tuning round instead of plain fitting.
//! 3. **Carry** the evolved Siamese onward: [`Mtl::siamese`] exposes it,
//!    campaign checkpoints embed it (so resume is byte-identical), and
//!    the cross-hardware fleet (`crate::fleet`) chains it across an
//!    ordered roster of devices — snapshotting each device's scoring
//!    head by fingerprint ([`pruner_cost::HeadSnapshot`]) so the shared
//!    trunk keeps learning while per-device calibration is preserved.
//!
//! Determinism: every step is seeded and banded bit-exactly, so MTL
//! campaigns are byte-identical at any thread count and across
//! kill+resume — the same contract the rest of the tuner honors.

use pruner_cost::{CostModel, PacmModel, Sample};
use pruner_nn::Module;
use pruner_trace::Recorder;
use serde::{Deserialize, Serialize};

/// The MTL state: a pre-trained Siamese copy of PaCM plus the momentum
/// coefficient (`m = 0.99` in the paper).
///
/// Every online round clones the Siamese model into a fresh *target*,
/// fine-tunes the target on the measurements collected so far, and folds
/// the target's progress back into the Siamese weights with
/// `P_s ← m·P_s + (1−m)·P_t` — the bidirectional feedback that keeps
/// fine-tuning from collapsing while still letting the pre-trained
/// knowledge drift toward the new platform.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mtl {
    siamese: PacmModel,
    momentum: f32,
    rounds: usize,
}

impl Mtl {
    /// Wraps a (typically cross-platform pre-trained) PaCM as the Siamese
    /// network.
    ///
    /// # Panics
    /// Panics if `momentum` is outside `[0, 1]`.
    pub fn new(pretrained: PacmModel, momentum: f32) -> Mtl {
        assert!((0.0..=1.0).contains(&momentum), "momentum must be in [0,1]");
        Mtl { siamese: pretrained, momentum, rounds: 0 }
    }

    /// The paper's default momentum.
    pub fn with_paper_momentum(pretrained: PacmModel) -> Mtl {
        Mtl::new(pretrained, 0.99)
    }

    /// Momentum coefficient in use.
    pub fn momentum(&self) -> f32 {
        self.momentum
    }

    /// Completed MTL rounds.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Read access to the Siamese model.
    pub fn siamese(&self) -> &PacmModel {
        &self.siamese
    }

    /// One MTL round: clone → fine-tune on `samples` → momentum-fold back.
    ///
    /// `threads` bands the target's training GEMMs across workers (the
    /// result is bit-identical at any thread count). Returns the
    /// fine-tuned target model, which serves as the round's predictor.
    pub fn round(&mut self, samples: &[Sample], epochs: usize, threads: usize) -> PacmModel {
        self.round_traced(samples, epochs, threads, &mut pruner_trace::NoopRecorder)
    }

    /// [`Mtl::round`] with observability: the round runs inside an
    /// `mtl.round` span, and the target's fine-tuning emits the same
    /// `model.fit` span, `model.fit_samples` counter and `model.fit_loss`
    /// gauge as a plain training round. The returned target and the
    /// updated Siamese weights are bit-identical to the untraced call.
    ///
    /// This is the one stage that keeps a traced twin: `round` keeps its
    /// three-argument form, which the `perf/` harness calls, and that form
    /// has no way to hand the fit loss to a caller that would record it.
    pub fn round_traced(
        &mut self,
        samples: &[Sample],
        epochs: usize,
        threads: usize,
        rec: &mut dyn Recorder,
    ) -> PacmModel {
        rec.span_begin("mtl.round");
        let mut target = self.siamese.clone();
        fit_recorded(&mut target, samples, epochs, threads, rec);
        self.siamese.momentum_update_from(&mut target, self.momentum);
        self.rounds += 1;
        rec.span_end("mtl.round");
        target
    }
}

/// Trains `model` with [`CostModel::fit_batch`] inside a `model.fit` span,
/// counts `samples × epochs` of training work (`model.fit_samples`) and
/// gauges the final objective (`model.fit_loss`). Every training round of
/// a campaign, plain or MTL, goes through here. The recorder only
/// observes: the loss and the weights are those of the bare call.
pub(crate) fn fit_recorded(
    model: &mut dyn CostModel,
    samples: &[Sample],
    epochs: usize,
    threads: usize,
    rec: &mut dyn Recorder,
) -> f64 {
    rec.span_begin("model.fit");
    let loss = model.fit_batch(samples, epochs, threads);
    rec.counter("model.fit_samples", (samples.len() * epochs) as u64);
    rec.gauge("model.fit_loss", loss);
    rec.span_end("model.fit");
    loss
}

/// Pre-trains a fresh PaCM on an offline dataset — the stand-in for the
/// paper's "pre-trained on the NVIDIA K80-6M dataset of TensetGPUs".
pub fn pretrain_pacm(samples: &[Sample], epochs: usize, seed: u64) -> PacmModel {
    let mut model = PacmModel::new(seed);
    model.fit_batch(samples, epochs, 1);
    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use pruner_gpu::{GpuSpec, Simulator};
    use pruner_ir::Workload;
    use pruner_sketch::Program;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn samples_on(spec: GpuSpec, n: usize, seed: u64) -> Vec<Sample> {
        let sim = Simulator::new(spec.clone());
        let limits = spec.limits();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let wl = Workload::matmul(1, 512, 512, 512);
        (0..n)
            .map(|_| {
                let p = Program::sample(&wl, &limits, &mut rng);
                let lat = sim.latency(&p);
                Sample::labeled(&p, lat, 0)
            })
            .collect()
    }

    #[test]
    fn round_returns_trained_target_and_moves_siamese() {
        let pre = pretrain_pacm(&samples_on(GpuSpec::k80(), 24, 1), 5, 7);
        let mut mtl = Mtl::with_paper_momentum(pre.clone());
        let probe = samples_on(GpuSpec::t4(), 4, 9);
        let before = format!("{:?}", mtl.siamese().predict_batch(&probe, 1));
        let _target = mtl.round(&samples_on(GpuSpec::t4(), 24, 2), 5, 1);
        assert_eq!(mtl.rounds(), 1);
        let after = format!("{:?}", mtl.siamese().predict_batch(&probe, 1));
        assert_ne!(before, after, "siamese weights must drift");
    }

    #[test]
    fn momentum_one_freezes_siamese() {
        let pre = pretrain_pacm(&samples_on(GpuSpec::k80(), 16, 3), 3, 7);
        let mut mtl = Mtl::new(pre.clone(), 1.0);
        mtl.round(&samples_on(GpuSpec::t4(), 16, 4), 5, 2);
        let probe = samples_on(GpuSpec::t4(), 4, 10);
        assert_eq!(
            mtl.siamese().predict_batch(&probe, 1),
            pre.predict_batch(&probe, 1),
            "momentum 1.0 must leave the siamese untouched"
        );
    }

    #[test]
    #[should_panic(expected = "momentum")]
    fn invalid_momentum_rejected() {
        Mtl::new(PacmModel::new(1), 1.5);
    }
}
