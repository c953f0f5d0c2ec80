//! Shared fixtures for the model unit tests.

use crate::metrics::spearman;
use crate::model::CostModel;
use crate::sample::Sample;
use pruner_gpu::{GpuSpec, Simulator};
use pruner_ir::Workload;
use pruner_sketch::Program;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Builds `n` labeled samples (two tasks, simulator-priced) plus the
/// ground-truth latencies.
pub(crate) fn ranking_samples(n: usize, seed: u64) -> (Vec<Sample>, Vec<f64>) {
    let sim = Simulator::new(GpuSpec::t4());
    let limits = GpuSpec::t4().limits();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let workloads =
        [Workload::matmul(1, 512, 512, 512), Workload::conv2d(1, 64, 28, 28, 64, 3, 1, 1)];
    let mut samples = Vec::with_capacity(n);
    let mut truth = Vec::with_capacity(n);
    for i in 0..n {
        let task = i % workloads.len();
        let p = Program::sample(&workloads[task], &limits, &mut rng);
        let lat = sim.latency(&p);
        samples.push(Sample::labeled(&p, lat, task));
        truth.push(lat);
    }
    (samples, truth)
}

/// Spearman correlation between a model's scores and *negated* latency
/// (so +1 means perfect ranking).
pub(crate) fn spearman_to_truth(
    model: &mut dyn CostModel,
    samples: &[Sample],
    truth: &[f64],
) -> f64 {
    let scores: Vec<f64> = model.predict_batch(samples, 1).iter().map(|&s| s as f64).collect();
    let neg_lat: Vec<f64> = truth.iter().map(|&l| -l).collect();
    spearman(&scores, &neg_lat)
}
