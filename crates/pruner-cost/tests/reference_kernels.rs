//! Model-level cross-check of the GEMM bit-exactness contract: training
//! PaCM through the blocked kernels (packed NT, K-blocked TN, fused tape
//! ops, pooled buffers) must produce, byte for byte, the weights the naive
//! kernels (triple loops, unfused ops, fresh allocations) trained.
//!
//! The naive side is a fixture: `fixtures/pacm_fit_reference.digest` holds
//! the length and FNV-1a-64 of the serialized weights and the bits of the
//! final loss, as trained at commit `cb195a6` — the last one with a runtime
//! naive-kernel mode — by this file's `train` with that mode switched on.
//! When tensors moved from decimal arrays to hex bit strings the digest was
//! re-derived from the same weights: the decimal JSON trained before the
//! switch, decoded and re-rendered, is byte-identical to what `train` now
//! writes, and the loss bits did not move.
//! It changes only when the model, its initialisation, the training
//! samples or the tensor encoding change on purpose; then re-derive it
//! from what the current kernels train, after `gemm_proptest` (blocked ≡
//! `gemm::reference`) and `graph::tests::fused_*_is_bit_identical_to_chain`
//! pass:
//!
//! ```text
//! cargo test --release -p pruner-cost --test reference_kernels -- --ignored regenerate_fixture
//! ```

use pruner_cost::{CostModel, PacmModel, Sample};
use pruner_gpu::{GpuSpec, Simulator};
use pruner_ir::Workload;
use pruner_sketch::Program;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const FIXTURE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/pacm_fit_reference.digest");

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

/// Length and 64-bit FNV-1a of the serialized weights, plus the loss bits.
fn digest(weights: &str, loss: f64) -> String {
    let hash = weights
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3));
    format!("{} bytes, fnv1a64 {hash:016x}, loss bits {:016x}\n", weights.len(), loss.to_bits())
}

/// Trains a fresh PaCM for three epochs; returns its serialized weights
/// and their digest.
fn train(samples: &[Sample], threads: usize) -> (String, String) {
    let mut model = PacmModel::new(5);
    let loss = model.fit_batch(samples, 3, threads);
    let weights = serde_json::to_string(&model).expect("model serializes");
    let digest = digest(&weights, loss);
    (weights, digest)
}

#[test]
#[ignore = "rewrites the naive-kernel fixture; see the module docs for when that is legitimate"]
fn regenerate_fixture() {
    std::fs::write(FIXTURE, train(&samples(), 1).1).expect("fixture writes");
}

#[test]
fn blocked_and_reference_kernels_train_byte_equal_weights() {
    let samples = samples();
    let reference = std::fs::read_to_string(FIXTURE).expect("fixture exists");
    let untrained = serde_json::to_string(&PacmModel::new(5)).unwrap();
    for threads in [1, 2, 4] {
        let (weights, digest) = train(&samples, threads);
        assert_eq!(
            digest, reference,
            "blocked kernels at {threads} thread(s) trained different weights than the reference"
        );
        assert!(weights != untrained, "training must have moved the weights");
    }
}
