//! Property tests: the register-blocked GEMM kernels are bit-exact
//! replacements for the naive reference loops on every shape — including
//! degenerate (empty, 1×N, N×1) and non-multiple-of-tile sizes, reductions
//! that cross the TN kernel's block boundaries, products large enough to
//! band over threads, and streams salted with ±0, ±∞ and NaN — and
//! `matmul_into` on a dirty recycled buffer matches a fresh allocation.

use proptest::prelude::*;
use pruner_nn::gemm::{self, matmul_into, matmul_nt_into, matmul_tn_into};
use pruner_nn::Tensor;

/// Matrix entries: mostly ordinary finite values, salted with exact
/// zeros of both signs (the zero-skip bug this PR removes was only
/// observable with special values in the stream).
fn entry() -> impl Strategy<Value = f32> {
    prop_oneof![
        -100.0f32..100.0,
        -100.0f32..100.0,
        -100.0f32..100.0,
        -100.0f32..100.0,
        Just(0.0f32),
        Just(-0.0f32),
    ]
}

/// Bit patterns, with every NaN folded onto one. Which elements are NaN
/// is part of the contract; a NaN's sign and payload are not — Rust leaves
/// them unspecified per operation (on x86 they follow the operand order
/// of a commutative `mul`/`add`, which the compiler picks per loop).
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
}

/// One dimension, biased toward tile edges: the portable kernels use
/// 4-row × 16-column tiles and the AVX-512 ones 8-row × 32-column tiles,
/// so sizes just under/over 4, 8, 16, 32 and 64 exercise every remainder
/// path of whichever tier the host dispatches to.
fn edge() -> impl Strategy<Value = usize> {
    prop_oneof![
        0usize..=5,
        7usize..=9,
        14usize..=18,
        31usize..=33,
        63usize..=65,
        Just(1usize),
        Just(32usize)
    ]
}

/// Deterministic matrix pair from a drawn seed — keeps contents
/// independent of the shape draw without needing `prop_flat_map`.
fn seeded_pair(alen: usize, blen: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
    let fill = |len: usize, salt: u64| -> Vec<f32> {
        (0..len)
            .map(|i| {
                let h = (i as u64 + 1)
                    .wrapping_mul(seed.wrapping_mul(6364136223846793005).wrapping_add(salt) | 1);
                match h % 16 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => ((h >> 16) % 2000) as f32 / 1000.0 - 1.0,
                }
            })
            .collect()
    };
    (fill(alen, 0x9e37), fill(blen, 0x79b9))
}

/// Reduction lengths around the TN kernel's block length (`KC` = 256 in
/// `gemm.rs`): one short of a block, exactly one, one over, two blocks
/// and a ragged third, and the training length (12.5 blocks).
fn long_k() -> impl Strategy<Value = usize> {
    prop_oneof![Just(255usize), Just(256usize), Just(257usize), Just(515usize), Just(3200usize)]
}

/// A panel-side dimension (`p`/`n`) on both sides of the 16- and 32-wide
/// panels, a 32-wide panel plus a 16-wide one (48), two full 32-wide
/// panels (64), and one wide enough (with [`long_k`] and [`tall`]) to
/// cross the banding threshold.
fn panel() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..=3,
        15usize..=17,
        31usize..=33,
        Just(48usize),
        Just(64usize),
        Just(130usize)
    ]
}

/// An output-row dimension, mostly *not* a multiple of the 4- or 8-row
/// block, next to exact multiples of 8 (8, 64); the larger ones give
/// `threads` 2–4 real bands to split.
fn tall() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..=7,
        Just(8usize),
        Just(64usize),
        Just(66usize),
        Just(130usize),
        Just(259usize)
    ]
}

/// [`seeded_pair`] with a few ±∞ and NaN entries dropped into each matrix
/// — few enough that most output elements stay finite next to the
/// poisoned rows and columns.
fn seeded_pair_special(alen: usize, blen: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
    let (mut a, mut b) = seeded_pair(alen, blen, seed);
    for (salt, v) in [(0x51u64, &mut a), (0xa7u64, &mut b)] {
        for (n, special) in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN].into_iter().enumerate() {
            if !v.is_empty() {
                let at = seed.wrapping_mul(salt + n as u64).rotate_left(23) as usize % v.len();
                v[at] = special;
            }
        }
    }
    (a, b)
}

proptest! {
    #[test]
    fn long_reduction_tn_is_bitexact(
        (k, m, n) in (long_k(), tall(), panel()),
        threads in 1usize..=4,
        special in prop_oneof![Just(false), Just(true)],
        seed in 0u64..u64::MAX,
    ) {
        let fill = if special { seeded_pair_special } else { seeded_pair };
        let (a, b) = fill(k * m, k * n, seed);
        let mut blocked = vec![f32::NAN; m * n];
        matmul_tn_into(&a, &b, &mut blocked, k, m, n, threads);
        let mut naive = vec![0.0f32; m * n];
        gemm::reference::matmul_tn(&a, &b, &mut naive, k, m, n);
        prop_assert_eq!(bits(&blocked), bits(&naive));
    }

    #[test]
    fn packed_nt_is_bitexact(
        (m, k, p) in (tall(), long_k(), panel()),
        threads in 1usize..=4,
        special in prop_oneof![Just(false), Just(true)],
        seed in 0u64..u64::MAX,
    ) {
        let fill = if special { seeded_pair_special } else { seeded_pair };
        let (a, b) = fill(m * k, p * k, seed);
        let mut blocked = vec![f32::NAN; m * p];
        matmul_nt_into(&a, &b, &mut blocked, m, k, p, threads);
        let mut naive = vec![0.0f32; m * p];
        gemm::reference::matmul_nt(&a, &b, &mut naive, m, k, p);
        prop_assert_eq!(bits(&blocked), bits(&naive));
    }

    #[test]
    fn blocked_nn_is_bitexact(
        (m, k, n) in (edge(), edge(), edge()),
        threads in 1usize..=4,
        seed in 0u64..u64::MAX,
    ) {
        let (a, b) = seeded_pair(m * k, k * n, seed);
        let mut blocked = vec![f32::NAN; m * n];
        matmul_into(&a, &b, &mut blocked, m, k, n, threads);
        let mut naive = vec![0.0f32; m * n];
        gemm::reference::matmul(&a, &b, &mut naive, m, k, n);
        prop_assert_eq!(bits(&blocked), bits(&naive));
    }

    #[test]
    fn blocked_nt_is_bitexact(
        (m, k, p) in (edge(), edge(), edge()),
        threads in 1usize..=4,
        seed in 0u64..u64::MAX,
    ) {
        let (a, b) = seeded_pair(m * k, p * k, seed);
        let mut blocked = vec![f32::NAN; m * p];
        matmul_nt_into(&a, &b, &mut blocked, m, k, p, threads);
        let mut naive = vec![0.0f32; m * p];
        gemm::reference::matmul_nt(&a, &b, &mut naive, m, k, p);
        prop_assert_eq!(bits(&blocked), bits(&naive));
    }

    #[test]
    fn blocked_tn_is_bitexact(
        (k, m, n) in (edge(), edge(), edge()),
        threads in 1usize..=4,
        seed in 0u64..u64::MAX,
    ) {
        let (a, b) = seeded_pair(k * m, k * n, seed);
        let mut blocked = vec![f32::NAN; m * n];
        matmul_tn_into(&a, &b, &mut blocked, k, m, n, threads);
        let mut naive = vec![0.0f32; m * n];
        gemm::reference::matmul_tn(&a, &b, &mut naive, k, m, n);
        prop_assert_eq!(bits(&blocked), bits(&naive));
    }

    #[test]
    fn random_entries_match_reference(
        (m, k, n) in (1usize..12, 1usize..12, 1usize..20),
        a in prop::collection::vec(entry(), 256),
        b in prop::collection::vec(entry(), 256),
    ) {
        // Independent content draw (not shape-derived): belt and braces.
        let a = &a[..m * k];
        let b = &b[..k * n];
        let mut blocked = vec![0.0f32; m * n];
        matmul_into(a, b, &mut blocked, m, k, n, 1);
        let mut naive = vec![0.0f32; m * n];
        gemm::reference::matmul(a, b, &mut naive, m, k, n);
        prop_assert_eq!(bits(&blocked), bits(&naive));
    }

    #[test]
    fn dirty_workspace_matmul_into_equals_fresh(
        (m, k, n) in (1usize..10, 1usize..10, 1usize..20),
        a in prop::collection::vec(entry(), 100),
        b in prop::collection::vec(entry(), 200),
    ) {
        let at = Tensor::from_vec(m, k, a[..m * k].to_vec());
        let bt = Tensor::from_vec(k, n, b[..k * n].to_vec());
        let fresh = at.matmul(&bt);
        // Recycled buffer full of NaN garbage and the wrong shape: the
        // out-parameter path must fully overwrite it.
        let mut dirty = Tensor::from_vec(3, 7, vec![f32::NAN; 21]);
        at.matmul_into(&bt, &mut dirty);
        prop_assert_eq!(bits(fresh.as_slice()), bits(dirty.as_slice()));
    }
}
