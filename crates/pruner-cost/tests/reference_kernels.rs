//! Model-level cross-check of the GEMM bit-exactness contract: training
//! every neural cost model through the blocked kernels (packed NT,
//! K-blocked TN, fused tape ops, pooled buffers) must produce, byte for
//! byte, the weights a pinned reference build trained.
//!
//! PaCM's reference is a fixture: `fixtures/pacm_fit_reference.digest`
//! holds the length and FNV-1a-64 of the serialized weights and the bits of
//! the final loss, as trained at commit `cb195a6` — the last one with a
//! runtime naive-kernel mode — by this file's `train` with that mode
//! switched on. When tensors moved from decimal arrays to hex bit strings
//! the digest was re-derived from the same weights: the decimal JSON
//! trained before the switch, decoded and re-rendered, is byte-identical to
//! what `train` now writes, and the loss bits did not move.
//! It changes only when the model, its initialisation, the training
//! samples or the tensor encoding change on purpose; then re-derive it
//! from what the current kernels train, after `gemm_proptest` (blocked ≡
//! `gemm::reference`) and `graph::tests::fused_*_is_bit_identical_to_chain`
//! pass:
//!
//! ```text
//! cargo test --release -p pruner-cost --test reference_kernels -- --ignored regenerate_fixture
//! ```
//!
//! TLP, TensetMLP and Ansor are pinned by [`BASELINE_DIGESTS`]: the same
//! digest of the same `train` (seed 5, these 96 samples, three epochs),
//! captured at commit `895e586` — the last build in which each model wrote
//! its network twice, once for training and once for scoring — before the
//! two forward passes were folded into one. They were never re-derived
//! from a later build; they have no regenerate path on purpose.

use pruner_cost::{AnsorModel, CostModel, PacmModel, Sample, TensetMlpModel, TlpModel};
use pruner_gpu::{GpuSpec, Simulator};
use pruner_ir::Workload;
use pruner_sketch::Program;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

const FIXTURE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/pacm_fit_reference.digest");

/// `train` digests of the three baselines, as trained at commit `895e586`
/// (identical at 1, 2 and 4 threads there).
const BASELINE_DIGESTS: [(&str, &str); 3] = [
    ("TLP", "226980 bytes, fnv1a64 7f6aab0462a3d15b, loss bits 3fb5f3a61a0b0000"),
    ("TensetMLP", "931282 bytes, fnv1a64 3d67da6b67aa9194, loss bits 3fae23bc27900000"),
    ("Ansor", "203882 bytes, fnv1a64 8298492d43e5d010, loss bits 40272a2c00000000"),
];

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

/// Trains `model` for three epochs; returns its serialized weights and
/// their digest.
fn train<M: CostModel + Serialize>(
    mut model: M,
    samples: &[Sample],
    threads: usize,
) -> (String, String) {
    let loss = model.fit_batch(samples, 3, threads);
    let weights = serde_json::to_string(&model).expect("model serializes");
    let digest = digest(&weights, loss);
    (weights, digest)
}

#[test]
#[ignore = "rewrites the naive-kernel fixture; see the module docs for when that is legitimate"]
fn regenerate_fixture() {
    std::fs::write(FIXTURE, train(PacmModel::new(5), &samples(), 1).1).expect("fixture writes");
}

#[test]
fn blocked_and_reference_kernels_train_byte_equal_weights() {
    let samples = samples();
    let reference = std::fs::read_to_string(FIXTURE).expect("fixture exists");
    let untrained = serde_json::to_string(&PacmModel::new(5)).unwrap();
    for threads in [1, 2, 4] {
        let (weights, digest) = train(PacmModel::new(5), &samples, threads);
        assert_eq!(
            digest, reference,
            "blocked kernels at {threads} thread(s) trained different weights than the reference"
        );
        assert!(weights != untrained, "training must have moved the weights");
    }
}

#[test]
fn baselines_train_their_pinned_weights_at_any_thread_count() {
    let samples = samples();
    let trainers: [fn(&[Sample], usize) -> String; 3] = [
        |s, threads| train(TlpModel::new(5), s, threads).1,
        |s, threads| train(TensetMlpModel::new(5), s, threads).1,
        |s, threads| train(AnsorModel::new(5), s, threads).1,
    ];
    for ((name, reference), trainer) in BASELINE_DIGESTS.into_iter().zip(trainers) {
        for threads in [1, 2, 4] {
            assert_eq!(
                trainer(&samples, threads).trim_end(),
                reference,
                "{name} at {threads} thread(s) trained different weights than the pinned build"
            );
        }
    }
}
