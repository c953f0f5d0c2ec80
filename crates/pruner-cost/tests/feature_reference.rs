//! The feature writer against a pinned build.
//!
//! `Sample::unlabeled` (a materialized [`Program`]) and `Sample::from_arena`
//! (an arena row) share one writer per feature family, so holding one path
//! against the other can no longer catch a change in the writer itself.
//! [`PINNED`] can: per workload, the number of rows and a 64-bit FNV-1a
//! over the bits of every `stmt`, `flow` and `tokens` block of every
//! candidate of [`arena`], captured at commit `24345e1` — the last build in
//! which the per-program extractors and the arena extractors were two
//! separate implementations, held bit-equal by tests — before they were
//! folded into one. Both paths must reproduce the same digest. The digests
//! were never re-derived from a later build; they have no regenerate path
//! on purpose.

use pruner_cost::Sample;
use pruner_ir::{EwKind, Workload};
use pruner_sketch::{evolve, CandidateArena, HardwareLimits, Program, WorkloadCtx};
use std::sync::Arc;

/// `(workload key, rows, fnv1a64)` per zoo workload, as written at `24345e1`.
const PINNED: [(&str, usize, &str); 8] = [
    ("matmul_b1m512n512k512", 192, "784529b4e63d7196"),
    ("matmul_b12m128n128k64", 192, "b8f27caf3e93e5ba"),
    ("conv2d_n1c64h56w56co64k3x3s1p1d1", 192, "9a05c62bc5502c67"),
    ("dwconv2d_n1c96h112w112k3x3s2p1", 192, "bbcb585571c63ca3"),
    ("conv3d_n1c16d8h28w28co32k3s1p1", 192, "20bc2d5538e72844"),
    ("ew_gelu_262144", 180, "18f8656d1d5c47b1"),
    ("ew_relu_1000", 180, "3e17ae201d2877a5"),
    ("reduce_o2048r768", 144, "16e053bf6b2cdf5d"),
];

/// Every sketch kind, every operator class, batched and unbatched.
fn zoo() -> [Workload; 8] {
    [
        Workload::matmul(1, 512, 512, 512),
        Workload::matmul(12, 128, 128, 64),
        Workload::conv2d(1, 64, 56, 56, 64, 3, 1, 1),
        Workload::dwconv2d(1, 96, 112, 112, 3, 2, 1),
        Workload::conv3d(1, 16, 8, 28, 28, 32, 3, 1, 1),
        Workload::elementwise(EwKind::Gelu, 1 << 18),
        Workload::elementwise(EwKind::Relu, 1000),
        Workload::reduction(2048, 768),
    ]
}

/// Two seeded populations of up to 96 distinct candidates each.
fn arena(wl: &Workload) -> CandidateArena {
    let ctx = Arc::new(WorkloadCtx::new(wl));
    let limits = HardwareLimits::default();
    let mut arena = evolve::init_arena_par(&ctx, 96, &limits, 3, 0, 1);
    arena.append(&evolve::init_arena_par(&ctx, 96, &limits, 17, 1, 1));
    arena.ensure_stats();
    arena
}

fn fnv(samples: impl Iterator<Item = Sample>) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for s in samples {
        for x in s.stmt.iter().chain(&s.flow).chain(&s.tokens) {
            for b in x.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    format!("{h:016x}")
}

#[test]
fn samples_match_the_features_pinned_before_the_fold() {
    for (wl, (key, rows, digest)) in zoo().iter().zip(PINNED) {
        let arena = arena(wl);
        let programs: Vec<Program> = arena.programs();
        let via_program = fnv(programs.iter().map(|p| Sample::unlabeled(p, 0)));
        let via_arena = fnv((0..arena.len()).map(|i| Sample::from_arena(&arena, i, 0)));
        assert_eq!((wl.key(), arena.len()), (key.to_string(), rows), "zoo changed");
        assert_eq!(via_program, digest, "Sample::unlabeled moved on {key}");
        assert_eq!(via_arena, digest, "Sample::from_arena moved on {key}");
    }
}
