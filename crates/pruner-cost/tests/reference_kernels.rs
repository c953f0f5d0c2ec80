//! Model-level cross-check of the GEMM bit-exactness contract: training
//! PaCM through the blocked kernels (packed NT, K-blocked TN, fused tape
//! ops, pooled buffers) and through `set_reference_kernels(true)` (naive
//! loops, unfused ops, fresh allocations) must produce the same weights,
//! byte for byte.
//!
//! A single `#[test]` in its own binary: the switch is process-global, so
//! no other test may run beside it.

use pruner_cost::{CostModel, PacmModel, Sample};
use pruner_gpu::{GpuSpec, Simulator};
use pruner_ir::Workload;
use pruner_nn::set_reference_kernels;
use pruner_sketch::Program;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// 96 simulator-priced samples over two tasks (48 per ranking group).
fn samples() -> Vec<Sample> {
    let spec = GpuSpec::t4();
    let sim = Simulator::new(spec.clone());
    let limits = spec.limits();
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let workloads =
        [Workload::matmul(1, 512, 512, 512), Workload::conv2d(1, 64, 28, 28, 64, 3, 1, 1)];
    (0..96)
        .map(|i| {
            let task = i % workloads.len();
            let p = Program::sample(&workloads[task], &limits, &mut rng);
            Sample::labeled(&p, sim.latency(&p), task)
        })
        .collect()
}

#[test]
fn blocked_and_reference_kernels_train_byte_equal_weights() {
    let samples = samples();
    let train = |reference: bool, threads: usize| {
        set_reference_kernels(reference);
        let mut model = PacmModel::new(5);
        let loss = model.fit_batch(&samples, 3, threads);
        set_reference_kernels(false);
        (serde_json::to_string(&model).expect("model serializes"), loss.to_bits())
    };
    let reference = train(true, 1);
    for threads in [1, 2, 4] {
        assert!(
            train(false, threads) == reference,
            "blocked kernels at {threads} thread(s) trained different weights than the reference"
        );
    }
    assert_ne!(
        reference.0,
        serde_json::to_string(&PacmModel::new(5)).unwrap(),
        "training must have moved the weights"
    );
}
