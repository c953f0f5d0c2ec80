//! Integration: the struct-of-arrays candidate arena against its per-program
//! definition.
//!
//! Every stage of a proposal round — generation, fingerprint dedup, PSA
//! penalty estimation, pruning, and featurization — runs through
//! [`pruner::sketch::CandidateArena`] columns. The oracle is the serial,
//! scalar, one-[`Program`]-at-a-time code (`evolve::reference`,
//! `Psa::estimate` / `Psa::prune`, `Sample::unlabeled`). A schedule is
//! sampled, fingerprinted and priced by one set of gene routines either
//! way, so what these tests pin is what the arena adds on top: batched,
//! banded generation and dedup, column storage and gathers, and the SIMD
//! PSA columns against the scalar estimate. They drive the arena over a
//! zoo of workloads × pool sizes × thread counts and demand `to_bits`-level
//! equality with the oracle.
//!
//! CI's arena-smoke step reruns this suite with `THREADS=1` and `THREADS=4`
//! to pin thread-count invariance of the arena path specifically.

use proptest::prelude::*;
use pruner::cost::Sample;
use pruner::gpu::GpuSpec;
use pruner::ir::{EwKind, Workload};
use pruner::psa::{Psa, PsaConfig};
use pruner::sketch::{evolve, HardwareLimits, Program, WorkloadCtx};
use std::sync::Arc;

/// Thread counts under test: `THREADS` env override (CI smoke) or {1, 4}.
fn thread_counts() -> Vec<usize> {
    match std::env::var("THREADS") {
        Ok(v) => vec![v.parse().expect("THREADS must be an integer")],
        Err(_) => vec![1, 4],
    }
}

fn zoo() -> Vec<Workload> {
    vec![
        Workload::matmul(1, 512, 512, 512),
        Workload::conv2d(1, 64, 56, 56, 64, 3, 1, 1),
        Workload::elementwise(EwKind::Gelu, 1 << 18),
        Workload::reduction(2048, 768),
    ]
}

/// The serial definition: sample → dedup-by-fingerprint population.
fn legacy_pool(wl: &Workload, n: usize, seed: u64) -> Vec<Program> {
    evolve::reference::init_population(wl, n, &HardwareLimits::default(), seed, 0)
}

fn arena_pool(
    wl: &Workload,
    n: usize,
    seed: u64,
    threads: usize,
) -> pruner::sketch::CandidateArena {
    let ctx = Arc::new(WorkloadCtx::new(wl));
    let mut arena = evolve::init_arena_par(&ctx, n, &HardwareLimits::default(), seed, 0, threads);
    arena.ensure_stats();
    arena
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Generation: materializing the arena reproduces the serial population
    /// program for program, at every thread count.
    #[test]
    fn generation_is_bit_identical(
        wl_idx in 0usize..4,
        n in 8usize..96,
        seed in 0u64..1_000,
    ) {
        let wl = &zoo()[wl_idx];
        let legacy = legacy_pool(wl, n, seed);
        for threads in thread_counts() {
            let arena = arena_pool(wl, n, seed, threads);
            prop_assert_eq!(arena.len(), legacy.len());
            prop_assert_eq!(&arena.programs(), &legacy);
            for (i, p) in legacy.iter().enumerate() {
                prop_assert_eq!(arena.fingerprint(i), p.fingerprint());
            }
        }
    }

    /// PSA: columnar penalty estimates and the pruned shortlist match the
    /// per-program `estimate` and the serial `prune` bit for bit.
    #[test]
    fn psa_estimates_and_prune_are_bit_identical(
        wl_idx in 0usize..4,
        n in 8usize..96,
        keep_frac in 0.1f64..1.0,
        seed in 0u64..1_000,
    ) {
        let wl = &zoo()[wl_idx];
        for cfg in [PsaConfig::default(), PsaConfig::without_compute()] {
            let psa = Psa::with_config(GpuSpec::t4(), cfg);
            let legacy = legacy_pool(wl, n, seed);
            let lbits: Vec<u64> = legacy.iter().map(|p| psa.estimate(p).to_bits()).collect();
            let keep = ((legacy.len() as f64) * keep_frac).ceil() as usize;
            let legacy_kept = psa.prune(legacy, keep);
            for threads in thread_counts() {
                let arena = arena_pool(wl, n, seed, threads);
                let arena_scores = psa.estimate_arena(&arena, threads);
                let abits: Vec<u64> = arena_scores.iter().map(|x| x.to_bits()).collect();
                prop_assert_eq!(&lbits, &abits);
                let kept_idx = psa.prune_arena(&arena, keep, threads);
                let arena_kept: Vec<Program> =
                    kept_idx.iter().map(|&i| arena.program(i)).collect();
                prop_assert_eq!(&arena_kept, &legacy_kept);
            }
        }
    }

    /// Featurization: `Sample::from_arena`, fed from the arena's stats
    /// columns, equals `Sample::unlabeled` on the materialized program.
    #[test]
    fn features_are_bit_identical(
        wl_idx in 0usize..4,
        n in 8usize..64,
        seed in 0u64..1_000,
    ) {
        let wl = &zoo()[wl_idx];
        for threads in thread_counts() {
            let arena = arena_pool(wl, n, seed, threads);
            for i in 0..arena.len() {
                let s = Sample::from_arena(&arena, i, 0);
                let l = Sample::unlabeled(&arena.program(i), 0);
                prop_assert_eq!(bits(&s.stmt), bits(&l.stmt));
                prop_assert_eq!(bits(&s.flow), bits(&l.flow));
                prop_assert_eq!(bits(&s.tokens), bits(&l.tokens));
            }
        }
    }
}

/// The dispatched (AVX2 where available) PSA column kernels produce the
/// same bits as the per-program scalar `Psa::estimate` on fixed cases of
/// every sketch kind.
#[test]
fn simd_kernels_match_scalar_reference_bitwise() {
    let psa = Psa::new(GpuSpec::t4());
    for wl in zoo() {
        let arena = arena_pool(&wl, 48, 11, 2);
        let scalar_psa: Vec<u64> =
            arena.programs().iter().map(|p| psa.estimate(p).to_bits()).collect();
        let dispatched: Vec<u64> =
            psa.estimate_arena(&arena, 2).iter().map(|x| x.to_bits()).collect();
        assert_eq!(dispatched, scalar_psa, "PSA columns diverge from scalar reference");
    }
}
