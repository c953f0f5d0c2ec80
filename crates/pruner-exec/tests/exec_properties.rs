//! Property tests for the executable backend's core guarantee: the
//! schedule (and the thread count, and how often you run it) may only
//! change *how long* a program takes — never *what it computes*. Every
//! sampled program's executed output must be bit-identical to the naive
//! reference interpretation of its workload.

use proptest::prelude::*;
use pruner_exec::interp::{execute_with, reference_output_with};
use pruner_exec::{execute, reference_output};
use pruner_ir::{EwKind, Workload};
use pruner_sketch::{HardwareLimits, Program, Schedule, SimpleConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Synthetic operands built directly (bypassing the process-wide cache)
/// so shape-heavy proptest runs don't pin every tensor in memory.
fn fresh_inputs(wl: &Workload) -> Vec<Vec<f32>> {
    wl.operand_elems()
        .iter()
        .enumerate()
        .map(|(op, &elems)| (0..elems).map(|i| pruner_exec::data::synth_value(op, i)).collect())
        .collect()
}

/// Samples a valid program for `wl` and checks bit-identity of the
/// executed output against the reference, serial and threaded.
fn check_bit_identity(wl: &Workload, seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let prog = Program::sample(wl, &HardwareLimits::default(), &mut rng);
    let inputs = fresh_inputs(wl);
    let want = reference_output_with(wl, &inputs);
    for threads in [1, 3, 4] {
        let got = execute_with(&prog, &inputs, threads);
        assert_eq!(
            got, want,
            "bit mismatch (threads={threads}) for {} under {:?}",
            wl.key(),
            prog.schedule
        );
    }
}

fn ew_kind() -> impl Strategy<Value = EwKind> {
    prop_oneof![
        Just(EwKind::Add),
        Just(EwKind::Mul),
        Just(EwKind::Relu),
        Just(EwKind::Gelu),
        Just(EwKind::Sigmoid),
        Just(EwKind::Tanh),
        Just(EwKind::BiasAdd),
        Just(EwKind::BnInfer),
    ]
}

proptest! {
    #[test]
    fn matmul_is_bit_identical(
        batch in 1u64..3,
        m in 1u64..48,
        n in 1u64..48,
        k in 1u64..48,
        seed in 0u64..u64::MAX,
    ) {
        check_bit_identity(&Workload::matmul(batch, m, n, k), seed);
    }

    #[test]
    fn conv2d_is_bit_identical(
        c in 1u64..4,
        hw in 4u64..10,
        co in 1u64..4,
        kern in 1u64..4,
        stride in 1u64..3,
        pad in 0u64..2,
        dilation in 1u64..3,
        seed in 0u64..u64::MAX,
    ) {
        // Keep the effective kernel inside the padded input (the vendored
        // proptest has no prop_assume; skip the case instead).
        if hw + 2 * pad < dilation * (kern - 1) + 1 {
            return;
        }
        let wl = Workload::conv2d_dilated(1, c, hw, hw, co, kern, stride, pad, dilation);
        check_bit_identity(&wl, seed);
    }

    #[test]
    fn dwconv2d_is_bit_identical(
        c in 1u64..6,
        hw in 4u64..10,
        kern in 1u64..4,
        stride in 1u64..3,
        pad in 0u64..2,
        seed in 0u64..u64::MAX,
    ) {
        if hw + 2 * pad < kern {
            return;
        }
        check_bit_identity(&Workload::dwconv2d(1, c, hw, hw, kern, stride, pad), seed);
    }

    #[test]
    fn conv3d_is_bit_identical(
        c in 1u64..3,
        dhw in 3u64..7,
        co in 1u64..3,
        kern in 1u64..3,
        stride in 1u64..3,
        pad in 0u64..2,
        seed in 0u64..u64::MAX,
    ) {
        if dhw + 2 * pad < kern {
            return;
        }
        let wl = Workload::conv3d(1, c, dhw, dhw, dhw, co, kern, stride, pad);
        check_bit_identity(&wl, seed);
    }

    #[test]
    fn elementwise_is_bit_identical(
        kind in ew_kind(),
        len in 1u64..4096,
        seed in 0u64..u64::MAX,
    ) {
        check_bit_identity(&Workload::elementwise(kind, len), seed);
    }

    #[test]
    fn reduction_is_bit_identical(
        outer in 1u64..64,
        reduce in 1u64..512,
        seed in 0u64..u64::MAX,
    ) {
        check_bit_identity(&Workload::reduction(outer, reduce), seed);
    }

    #[test]
    fn repeated_execution_is_deterministic(seed in 0u64..u64::MAX) {
        let wl = Workload::matmul(1, 32, 32, 32);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let prog = Program::sample(&wl, &HardwareLimits::default(), &mut rng);
        let first = execute(&prog, 4);
        for _ in 0..3 {
            prop_assert_eq!(&execute(&prog, 4), &first);
        }
    }

    #[test]
    fn fallback_program_is_bit_identical(m in 1u64..40, n in 1u64..40, k in 1u64..40) {
        let wl = Workload::matmul(1, m, n, k);
        let prog = Program::fallback(&wl);
        let inputs = fresh_inputs(&wl);
        prop_assert_eq!(
            execute_with(&prog, &inputs, 2),
            reference_output_with(&wl, &inputs)
        );
    }
}

/// A schedule from the wrong sketch family must still compute the right
/// answer (via the canonical fallback path), not panic or corrupt output.
#[test]
fn family_mismatch_falls_back_to_reference() {
    let wl = Workload::matmul(1, 8, 8, 8);
    let bogus = Program::new(
        wl.clone(),
        Schedule::Simple(SimpleConfig { threads: 32, serial: 2, vectorize: 1 }),
    );
    assert_eq!(execute(&bogus, 2), reference_output(&wl));
}

/// The two-operand elementwise kinds broadcast their second operand; the
/// broadcast indexing must agree between the executed and reference paths
/// at lengths that are not multiples of the broadcast vector.
#[test]
fn broadcast_elementwise_agrees_at_awkward_lengths() {
    for len in [1u64, 63, 65, 127, 4097] {
        for kind in [EwKind::BiasAdd, EwKind::BnInfer] {
            check_bit_identity(&Workload::elementwise(kind, len), len ^ 0xBEEF);
        }
    }
}
