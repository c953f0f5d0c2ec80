//! The cost-model interface and shared training helpers.

use crate::sample::{labeled_groups, Sample};
use pruner_nn::{lambdarank_grad, latencies_to_relevance, Adam, Graph, Module, NodeId};
use pruner_par::fan_out_mut;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Fixed slice width `predict_batch` hands to each worker. Chunking is a
/// scheduling detail only: scores are merged back in chunk order, so the
/// result is identical for every thread count (including 1).
const PREDICT_CHUNK: usize = 256;

/// A learned (or degenerate) predictor of tensor-program quality.
///
/// Scores are one per sample, **higher = predicted faster**, and only
/// comparable within a task group. Prediction is a read-only operation
/// (`&self`) so candidate scoring can fan out across threads; training
/// updates the model in place (`&mut self`) on labeled samples. Each
/// model implements one scoring entry point ([`CostModel::predict_with`])
/// and one training entry point ([`CostModel::fit_batch`]); a one-thread
/// [`CostModel::predict_batch`] is the sequential oracle every fan-out is
/// held to.
pub trait CostModel: Send + Sync {
    /// Short display name (`"PaCM"`, `"TLP"`, …).
    fn name(&self) -> &'static str;

    /// Scores a batch reusing a caller-owned [`Graph`] workspace.
    ///
    /// Learned models `reset` the graph between internal chunks instead of
    /// allocating a fresh tape per chunk — the allocation-free steady state
    /// `predict_batch` workers rely on.
    fn predict_with(&self, workspace: &mut Graph, samples: &[Sample]) -> Vec<f32>;

    /// Scores a batch of samples using up to `threads` worker threads.
    ///
    /// Samples are split into fixed-size chunks, workers score contiguous
    /// bands of chunks, and the per-chunk scores are concatenated in chunk
    /// order — so the result is **bit-identical** to `predict_batch(s, 1)`
    /// at any thread count. Models whose prediction is stateful (e.g. the
    /// random baseline advancing a counter) override this to a single
    /// `predict_with` call.
    fn predict_batch(&self, samples: &[Sample], threads: usize) -> Vec<f32> {
        if threads <= 1 || samples.len() <= PREDICT_CHUNK {
            return self.predict_with(&mut Graph::new(), samples);
        }
        let mut scored = vec![Vec::new(); samples.len().div_ceil(PREDICT_CHUNK)];
        fan_out_mut(&mut scored, 1, threads, |first, out_band| {
            // One tape per band, reset between chunks: after the first
            // chunk warms the buffer pool, the remaining chunks in the
            // band run allocation-free.
            let mut g = Graph::new();
            let chunks = samples[first * PREDICT_CHUNK..].chunks(PREDICT_CHUNK);
            for (slot, chunk) in out_band.iter_mut().zip(chunks) {
                *slot = self.predict_with(&mut g, chunk);
            }
        });
        scored.into_iter().flatten().collect()
    }

    /// Trains on labeled samples for `epochs` passes, banding the large
    /// training-time GEMMs across up to `threads` scoped workers; returns
    /// a final training-objective value (lower = better fit,
    /// model-specific scale).
    ///
    /// Banding preserves the per-element accumulation order (see
    /// `pruner_nn::gemm`), so the trained weights are **bit-identical** at
    /// any thread count. Models without a banded kernel ignore `threads`.
    fn fit_batch(&mut self, samples: &[Sample], epochs: usize, threads: usize) -> f64;

    /// Clones the model behind the trait object.
    fn clone_box(&self) -> Box<dyn CostModel>;

    /// Captures the full training state behind the trait object for
    /// crash-safe checkpointing, or `None` for models that don't support
    /// it. Every built-in model supports it; restoring through
    /// [`ModelSnapshot::into_model`] reproduces predictions *and*
    /// subsequent fine-tuning bit-for-bit.
    fn snapshot(&self) -> Option<ModelSnapshot> {
        None
    }
}

/// A serializable capture of any built-in cost model, optimizer state
/// included — the unit of model persistence in campaign checkpoints.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[allow(clippy::large_enum_variant)] // built once per checkpoint
pub enum ModelSnapshot {
    /// Pattern-aware Cost Model (any branch configuration).
    Pacm(crate::PacmModel),
    /// TensetMLP baseline.
    TensetMlp(crate::TensetMlpModel),
    /// TLP baseline.
    Tlp(crate::TlpModel),
    /// Ansor online-MLP baseline.
    Ansor(crate::AnsorModel),
    /// Gradient-boosted trees baseline.
    Xgb(crate::XgbModel),
    /// Random-score floor (its call counter is the state).
    Random(RandomModel),
}

impl ModelSnapshot {
    /// Rebuilds the captured model as a trait object.
    pub fn into_model(self) -> Box<dyn CostModel> {
        match self {
            ModelSnapshot::Pacm(m) => Box::new(m),
            ModelSnapshot::TensetMlp(m) => Box::new(m),
            ModelSnapshot::Tlp(m) => Box::new(m),
            ModelSnapshot::Ansor(m) => Box::new(m),
            ModelSnapshot::Xgb(m) => Box::new(m),
            ModelSnapshot::Random(m) => Box::new(m),
        }
    }

    /// Rebuilds the captured model behind a shared, immutable handle —
    /// the read path for a pre-trained model served to many concurrent
    /// predictors ([`CostModel::predict_batch`] takes `&self`).
    pub fn into_shared(self) -> std::sync::Arc<dyn CostModel> {
        std::sync::Arc::from(self.into_model())
    }
}

impl Clone for Box<dyn CostModel> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Which cost model to instantiate — used by tuner configs and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelKind {
    /// Pattern-aware Cost Model (Pruner).
    Pacm,
    /// PaCM without the statement-feature branch (`w/o S.F.`).
    PacmNoStmt,
    /// PaCM without the data-flow branch (`w/o D.F.`).
    PacmNoFlow,
    /// TensetMLP baseline.
    TensetMlp,
    /// TLP baseline.
    Tlp,
    /// Ansor's online MLP baseline.
    Ansor,
    /// Ansor's original architecture family: gradient-boosted trees.
    AnsorXgb,
    /// Random scores.
    Random,
}

impl ModelKind {
    /// Resolves a stable CLI/wire name (`pacm`, `ansor`, `xgb`,
    /// `tensetmlp`, `tlp`, `random`, plus the PaCM ablations
    /// `pacm-no-stmt` / `pacm-no-flow`) to a kind. `None` for unknown
    /// names.
    pub fn by_name(name: &str) -> Option<ModelKind> {
        Some(match name {
            "pacm" => ModelKind::Pacm,
            "pacm-no-stmt" => ModelKind::PacmNoStmt,
            "pacm-no-flow" => ModelKind::PacmNoFlow,
            "tensetmlp" => ModelKind::TensetMlp,
            "tlp" => ModelKind::Tlp,
            "ansor" => ModelKind::Ansor,
            "xgb" => ModelKind::AnsorXgb,
            "random" => ModelKind::Random,
            _ => return None,
        })
    }

    /// Instantiates the model with the given RNG seed.
    pub fn build(self, seed: u64) -> Box<dyn CostModel> {
        match self {
            ModelKind::Pacm => Box::new(crate::PacmModel::new(seed)),
            ModelKind::PacmNoStmt => Box::new(crate::PacmModel::without_stmt_branch(seed)),
            ModelKind::PacmNoFlow => Box::new(crate::PacmModel::without_flow_branch(seed)),
            ModelKind::TensetMlp => Box::new(crate::TensetMlpModel::new(seed)),
            ModelKind::Tlp => Box::new(crate::TlpModel::new(seed)),
            ModelKind::Ansor => Box::new(crate::AnsorModel::new(seed)),
            ModelKind::AnsorXgb => Box::new(crate::XgbModel::new()),
            ModelKind::Random => Box::new(RandomModel::new(seed)),
        }
    }
}

/// The no-model floor: deterministic pseudo-random scores.
///
/// The call counter is atomic so prediction can stay `&self` while still
/// producing fresh scores every round.
#[derive(Debug, Serialize, Deserialize)]
pub struct RandomModel {
    seed: u64,
    calls: AtomicU64,
}

impl RandomModel {
    /// Creates a random scorer.
    pub fn new(seed: u64) -> RandomModel {
        RandomModel { seed, calls: AtomicU64::new(0) }
    }
}

impl Clone for RandomModel {
    fn clone(&self) -> Self {
        RandomModel {
            seed: self.seed,
            calls: AtomicU64::new(self.calls.load(Ordering::Relaxed)),
        }
    }
}

impl CostModel for RandomModel {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn predict_with(&self, _workspace: &mut Graph, samples: &[Sample]) -> Vec<f32> {
        let call = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed.wrapping_add(call));
        samples.iter().map(|_| rng.gen::<f32>()).collect()
    }

    /// One `predict_with` call, never chunked: each call advances the
    /// score stream, so splitting a batch would make the result depend on
    /// the chunking — the exact nondeterminism `predict_batch` must avoid.
    fn predict_batch(&self, samples: &[Sample], _threads: usize) -> Vec<f32> {
        self.predict_with(&mut Graph::new(), samples)
    }

    fn fit_batch(&mut self, _samples: &[Sample], _epochs: usize, _threads: usize) -> f64 {
        0.0
    }

    fn clone_box(&self) -> Box<dyn CostModel> {
        Box::new(self.clone())
    }

    fn snapshot(&self) -> Option<ModelSnapshot> {
        Some(ModelSnapshot::Random(self.clone()))
    }
}

/// Shared LambdaRank training loop.
///
/// Splits the labeled samples into task groups, then for each epoch visits
/// groups in a seeded shuffle, calls `step(group_indices, relevance)` — the
/// model-specific forward/backward/update — and averages the returned
/// per-group objective values. Groups of fewer than two samples carry no
/// ranking signal and are skipped.
pub(crate) fn lambdarank_epochs(
    samples: &[Sample],
    epochs: usize,
    seed: u64,
    mut step: impl FnMut(&[usize], &[f32]) -> f64,
) -> f64 {
    let groups = labeled_groups(samples);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut last = 0.0;
    for _ in 0..epochs.max(1) {
        let mut order: Vec<usize> = (0..groups.len()).collect();
        // Fisher-Yates with the seeded rng.
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut total = 0.0;
        let mut n = 0;
        for &gi in &order {
            let group = &groups[gi];
            if group.len() < 2 {
                continue;
            }
            let lats: Vec<f64> = group.iter().map(|&i| samples[i].latency).collect();
            let rel = latencies_to_relevance(&lats);
            total += step(group, &rel);
            n += 1;
        }
        last = if n > 0 { total / n as f64 } else { 0.0 };
    }
    last
}

/// Magnitude of a list's LambdaRank forces (mean `|λ|` over the output of
/// `pruner_nn::lambdarank_grad`) — the per-group objective value reported
/// by the built-in models.
fn lambda_magnitude(lambdas: &[f32]) -> f64 {
    lambdas.iter().map(|v| v.abs() as f64).sum::<f64>() / lambdas.len().max(1) as f64
}

/// A neural model's one forward pass: scores the picked samples on the
/// tape and returns the `[picks, 1]` score node. Scoring and training both
/// run it.
pub(crate) type Forward<M> = fn(&M, &mut Graph, &[Sample], &[usize]) -> NodeId;

/// Scores `samples` on one reused tape, `CHUNK` consecutive samples per
/// forward pass, resetting the tape between chunks. The picks live on the
/// stack, so a warm tape allocates nothing but the returned scores.
pub(crate) fn predict_chunked<M, const CHUNK: usize>(
    model: &M,
    forward: Forward<M>,
    g: &mut Graph,
    samples: &[Sample],
) -> Vec<f32> {
    let mut picks = [0usize; CHUNK];
    let mut out = Vec::with_capacity(samples.len());
    for start in (0..samples.len()).step_by(CHUNK) {
        let chunk = &mut picks[..CHUNK.min(samples.len() - start)];
        for (i, p) in chunk.iter_mut().enumerate() {
            *p = start + i;
        }
        g.reset();
        let scores = forward(model, g, samples, chunk);
        out.extend_from_slice(g.value(scores).as_slice());
    }
    out
}

/// One Adam update of every parameter of `model` from its absorbed
/// gradients. The optimizer lives inside the model (`adam` reaches it), so
/// it is swapped out while it borrows the parameters.
pub(crate) fn adam_step<M: Module>(model: &mut M, adam: fn(&mut M) -> &mut Adam) {
    let mut opt = std::mem::replace(adam(model), Adam::new(0.0));
    opt.step(model.params_mut());
    *adam(model) = opt;
}

/// Trains `model` with LambdaRank over [`lambdarank_epochs`]: per group,
/// one forward pass on a shared tape, the λ's seeded at the score node, one
/// backward sweep and one Adam step. The tape bands its large GEMMs across
/// up to `threads` workers, bit-exactly; returns the last epoch's mean
/// [`lambda_magnitude`].
pub(crate) fn fit_lambdarank<M: Module>(
    model: &mut M,
    forward: Forward<M>,
    adam: fn(&mut M) -> &mut Adam,
    samples: &[Sample],
    epochs: usize,
    seed: u64,
    threads: usize,
) -> f64 {
    let mut g = Graph::with_threads(threads);
    lambdarank_epochs(samples, epochs, seed, |group, rel| {
        model.zero_grad();
        g.reset();
        let scores = forward(model, &mut g, samples, group);
        let lambdas = lambdarank_grad(g.value(scores).as_slice(), rel);
        let objective = lambda_magnitude(&lambdas);
        let mut seed = g.scratch(group.len(), 1);
        seed.as_mut_slice().copy_from_slice(&lambdas);
        g.backward_from(scores, seed);
        model.absorb_grads(&g);
        adam_step(model, adam);
        objective
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pruner_ir::Workload;
    use pruner_sketch::{HardwareLimits, Program};

    fn mini_samples() -> Vec<Sample> {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let limits = HardwareLimits::default();
        let wl = Workload::matmul(1, 128, 128, 128);
        (0..6)
            .map(|i| {
                let p = Program::sample(&wl, &limits, &mut rng);
                Sample::labeled(&p, 1e-3 * (i + 1) as f64, i / 3)
            })
            .collect()
    }

    #[test]
    fn random_model_is_deterministic_per_call_index() {
        let samples = mini_samples();
        let a = RandomModel::new(7);
        let b = RandomModel::new(7);
        assert_eq!(a.predict_batch(&samples, 1), b.predict_batch(&samples, 1));
        // Subsequent calls differ (fresh exploration each round).
        let first = b.predict_batch(&samples, 1);
        let second = b.predict_batch(&samples, 1);
        assert_ne!(first, second);
    }

    #[test]
    fn random_model_batch_is_one_call() {
        let samples = mini_samples();
        let a = RandomModel::new(7);
        let b = RandomModel::new(7);
        assert_eq!(a.predict_batch(&samples, 8), b.predict_with(&mut Graph::new(), &samples));
    }

    #[test]
    fn lambdarank_epochs_visits_all_groups() {
        let samples = mini_samples();
        let mut visited = Vec::new();
        lambdarank_epochs(&samples, 1, 0, |group, rel| {
            assert_eq!(group.len(), rel.len());
            visited.push(group.to_vec());
            1.0
        });
        assert_eq!(visited.len(), 2);
    }

    #[test]
    fn lambdarank_epochs_skips_unlabeled_and_singletons() {
        let mut samples = mini_samples();
        samples[0].latency = f64::NAN; // group 0 shrinks to 2 labeled
        samples.push(samples[1].clone());
        samples.last_mut().unwrap().task_id = 99; // singleton group
        let mut count = 0;
        lambdarank_epochs(&samples, 1, 0, |_, _| {
            count += 1;
            0.0
        });
        assert_eq!(count, 2, "singleton group must be skipped");
    }

    #[test]
    fn model_kind_builds_every_variant() {
        for kind in [
            ModelKind::Pacm,
            ModelKind::PacmNoStmt,
            ModelKind::PacmNoFlow,
            ModelKind::TensetMlp,
            ModelKind::Tlp,
            ModelKind::Ansor,
            ModelKind::AnsorXgb,
            ModelKind::Random,
        ] {
            let m = kind.build(1);
            let scores = m.predict_batch(&mini_samples(), 1);
            assert_eq!(scores.len(), 6, "{}", m.name());
        }
    }

    #[test]
    fn boxed_clone_preserves_behavior() {
        let samples = mini_samples();
        let m: Box<dyn CostModel> = Box::new(RandomModel::new(3));
        let c = m.clone();
        assert_eq!(m.predict_batch(&samples, 1), c.predict_batch(&samples, 1));
    }

    /// A larger labeled pool for exercising the chunked parallel path
    /// (several `PREDICT_CHUNK`-sized chunks).
    fn big_samples(n: usize) -> Vec<Sample> {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let limits = HardwareLimits::default();
        let wl = Workload::matmul(1, 256, 256, 256);
        (0..n)
            .map(|i| {
                let p = Program::sample(&wl, &limits, &mut rng);
                Sample::labeled(&p, 1e-3 * (i % 17 + 1) as f64, 0)
            })
            .collect()
    }

    /// Every model with trainable state (all but the random floor).
    const LEARNED: [ModelKind; 7] = [
        ModelKind::Pacm,
        ModelKind::PacmNoStmt,
        ModelKind::PacmNoFlow,
        ModelKind::TensetMlp,
        ModelKind::Tlp,
        ModelKind::Ansor,
        ModelKind::AnsorXgb,
    ];

    #[test]
    fn predict_batch_matches_sequential_for_every_nn_model() {
        // Every learned model, trained a little so the trees are not
        // empty, must produce bit-identical scores whether it runs on one
        // thread or fanned out over several.
        let samples = big_samples(600);
        for kind in LEARNED {
            let mut m = kind.build(5);
            m.fit_batch(&samples[..64], 1, 1);
            let sequential = m.predict_batch(&samples, 1);
            for threads in [2, 3, 4, 8] {
                assert_eq!(
                    m.predict_batch(&samples, threads),
                    sequential,
                    "{} diverged at {threads} threads",
                    m.name()
                );
            }
        }
    }

    #[test]
    fn predict_batch_handles_non_chunk_multiples() {
        // Sizes straddling the chunk boundary: chunking must never change
        // scores or drop samples.
        for n in [1, 255, 256, 257, 511, 513] {
            let samples = big_samples(n);
            let m = ModelKind::Ansor.build(9);
            let batch = m.predict_batch(&samples, 4);
            assert_eq!(batch.len(), n);
            assert_eq!(batch, m.predict_batch(&samples, 1), "size {n} diverged");
        }
    }

    /// `fit_batch` is the one training entry point: its banded GEMMs must
    /// train byte-equal state, and report the same loss, at any thread
    /// count, for every learned model.
    #[test]
    fn fit_batch_trains_byte_equal_snapshots_at_any_thread_count() {
        let samples = big_samples(96);
        for kind in LEARNED {
            let train = |threads: usize| {
                let mut m = kind.build(5);
                let loss = m.fit_batch(&samples, 2, threads);
                let snapshot = m.snapshot().expect("built-in models snapshot");
                (serde_json::to_string(&snapshot).unwrap(), loss.to_bits())
            };
            let serial = train(1);
            for threads in [2, 3, 4] {
                // Not `assert_eq!`: a diff of two weight dumps is unreadable.
                assert!(
                    train(threads) == serial,
                    "{kind:?} trained differently at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn by_name_resolves_every_kind_and_rejects_unknowns() {
        for (name, kind) in [
            ("pacm", ModelKind::Pacm),
            ("pacm-no-stmt", ModelKind::PacmNoStmt),
            ("pacm-no-flow", ModelKind::PacmNoFlow),
            ("tensetmlp", ModelKind::TensetMlp),
            ("tlp", ModelKind::Tlp),
            ("ansor", ModelKind::Ansor),
            ("xgb", ModelKind::AnsorXgb),
            ("random", ModelKind::Random),
        ] {
            assert_eq!(ModelKind::by_name(name), Some(kind), "{name}");
        }
        assert_eq!(ModelKind::by_name("gpt"), None);
        assert_eq!(ModelKind::by_name(""), None);
    }

    /// A snapshot restored as a shared handle predicts exactly like the
    /// boxed restore — the serve daemon's shared-model read path.
    #[test]
    fn shared_snapshot_restore_predicts_identically() {
        let model = ModelKind::Pacm.build(11);
        let snapshot = model.snapshot().unwrap();
        let samples = big_samples(300);
        let shared = snapshot.clone().into_shared();
        let expected = model.predict_batch(&samples, 1);
        assert_eq!(shared.predict_batch(&samples, 4), expected);
        assert_eq!(snapshot.into_model().predict_batch(&samples, 1), expected);
    }
}
