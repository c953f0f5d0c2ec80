//! Genetic operators over programs: mutation and crossover.
//!
//! These are the exploration moves of Ansor's evolutionary search. A
//! mutation re-samples one gene (one axis split or one annotation); a
//! crossover mixes per-axis genes of two parents of the same workload.
//! Both preserve validity by rejection, falling back to returning a parent
//! clone when no valid offspring is found within the retry budget.

use crate::arena::{CandidateArena, FpSet, GeneBuf, WorkloadCtx};
use crate::config::{Schedule, UNROLL_CANDIDATES, VECTORIZE_CANDIDATES};
use crate::limits::HardwareLimits;
use crate::program::{sample_reduce_split, sample_spatial_split, Program};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

const MAX_TRIES: usize = 16;

/// Returns a mutated copy of `prog`, valid under `limits`.
///
/// One randomly chosen gene is re-sampled: a spatial-axis split, a
/// reduction-axis split, the unroll depth or the vector width (for the
/// simple sketches: threads, serial length, or vector width). If every
/// attempt produces an invalid program the input is returned unchanged.
pub fn mutate(prog: &Program, limits: &HardwareLimits, rng: &mut impl Rng) -> Program {
    for _ in 0..MAX_TRIES {
        let mut child = prog.clone();
        match &mut child.schedule {
            Schedule::MultiTile(t) => {
                let n_s = t.spatial.len();
                let n_r = t.reduce.len();
                // Gene indices: spatial axes, reduce axes, unroll, vectorize.
                let gene = rng.gen_range(0..n_s + n_r + 2);
                let extents_s = child.workload.spatial_extents();
                let extents_r = child.workload.reduce_extents();
                if gene < n_s {
                    t.spatial[gene] = sample_spatial_split(extents_s[gene], rng);
                } else if gene < n_s + n_r {
                    t.reduce[gene - n_s] = sample_reduce_split(extents_r[gene - n_s], rng);
                } else if gene == n_s + n_r {
                    t.unroll = UNROLL_CANDIDATES[rng.gen_range(0..UNROLL_CANDIDATES.len())];
                } else {
                    t.vectorize =
                        VECTORIZE_CANDIDATES[rng.gen_range(0..VECTORIZE_CANDIDATES.len())];
                }
            }
            Schedule::Simple(c) => match rng.gen_range(0..3) {
                0 => c.threads = [32u64, 64, 128, 256, 512, 1024][rng.gen_range(0..6)],
                1 => c.serial = [1u64, 2, 4, 8, 16][rng.gen_range(0..5)],
                _ => {
                    c.vectorize =
                        VECTORIZE_CANDIDATES[rng.gen_range(0..VECTORIZE_CANDIDATES.len())]
                }
            },
            Schedule::RowReduce(c) => match rng.gen_range(0..3) {
                0 => c.rows_per_block = [1u64, 2, 4, 8][rng.gen_range(0..4)],
                1 => c.reduce_threads = [32u64, 64, 128, 256, 512][rng.gen_range(0..5)],
                _ => c.serial = [1u64, 2, 4, 8][rng.gen_range(0..4)],
            },
        }
        if child.is_valid(limits) {
            return child;
        }
    }
    prog.clone()
}

/// Returns a crossover child of two parents scheduling the same workload.
///
/// Multi-tile parents exchange whole per-axis splits and annotations gene by
/// gene; simple sketches pick each field from a random parent. Falls back
/// to cloning parent `a` if no valid child is found.
///
/// # Panics
/// Panics if the parents schedule different workloads.
pub fn crossover(
    a: &Program,
    b: &Program,
    limits: &HardwareLimits,
    rng: &mut impl Rng,
) -> Program {
    assert_eq!(a.workload, b.workload, "crossover requires a shared workload");
    for _ in 0..MAX_TRIES {
        let mut child = a.clone();
        match (&mut child.schedule, &b.schedule) {
            (Schedule::MultiTile(ta), Schedule::MultiTile(tb)) => {
                for (sa, sb) in ta.spatial.iter_mut().zip(&tb.spatial) {
                    if rng.gen_bool(0.5) {
                        *sa = *sb;
                    }
                }
                for (ra, rb) in ta.reduce.iter_mut().zip(&tb.reduce) {
                    if rng.gen_bool(0.5) {
                        *ra = *rb;
                    }
                }
                if rng.gen_bool(0.5) {
                    ta.unroll = tb.unroll;
                }
                if rng.gen_bool(0.5) {
                    ta.vectorize = tb.vectorize;
                }
            }
            (Schedule::Simple(ca), Schedule::Simple(cb)) => {
                if rng.gen_bool(0.5) {
                    ca.threads = cb.threads;
                }
                if rng.gen_bool(0.5) {
                    ca.serial = cb.serial;
                }
                if rng.gen_bool(0.5) {
                    ca.vectorize = cb.vectorize;
                }
            }
            (Schedule::RowReduce(ca), Schedule::RowReduce(cb)) => {
                if rng.gen_bool(0.5) {
                    ca.rows_per_block = cb.rows_per_block;
                }
                if rng.gen_bool(0.5) {
                    ca.reduce_threads = cb.reduce_threads;
                }
                if rng.gen_bool(0.5) {
                    ca.serial = cb.serial;
                }
            }
            // Mismatched sketch kinds cannot recombine; keep parent a.
            _ => return a.clone(),
        }
        if child.is_valid(limits) {
            return child;
        }
    }
    a.clone()
}

/// Samples an initial population of `size` *distinct* valid programs.
///
/// Distinctness is by [`Program::fingerprint`]; the sampler stops early if
/// the space appears exhausted (tiny workloads), so the result may be
/// shorter than requested.
pub fn init_population(
    workload: &pruner_ir::Workload,
    size: usize,
    limits: &HardwareLimits,
    rng: &mut impl Rng,
) -> Vec<Program> {
    let mut out: Vec<Program> = Vec::with_capacity(size);
    let mut seen = std::collections::HashSet::new();
    let mut stale = 0usize;
    while out.len() < size && stale < 200 {
        let p = Program::sample(workload, limits, rng);
        if seen.insert(p.fingerprint()) {
            out.push(p);
            stale = 0;
        } else {
            stale += 1;
        }
    }
    out
}

/// Derives the RNG seed for one generated candidate.
///
/// Every candidate index gets its own `ChaCha8Rng` stream, mixed from the
/// campaign seed, the tuning round and the candidate's global index with a
/// SplitMix64-style finalizer. Because the seed depends only on
/// `(seed, round, item)` — never on which worker thread or chunk produced
/// the candidate — the arena generators below are bit-identical at any
/// thread count and any chunk size.
pub fn derive_item_seed(seed: u64, round: u64, item: u64) -> u64 {
    let mut z = seed
        ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ item.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG stream of one generated candidate (see [`derive_item_seed`]).
fn item_rng(seed: u64, round: u64, item: usize) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(derive_item_seed(seed, round, item as u64))
}

/// The executable definition of the arena generators: serial, one
/// [`Program`] per item, built from [`Program::sample`], [`mutate`] and
/// [`crossover`]. Tests hold [`init_into`] and [`next_generation_into`] to
/// these programs at any thread count; no campaign calls this module.
pub mod reference {
    use super::{crossover, item_rng, mutate, HardwareLimits, Program};
    use rand::Rng;

    /// Up to `size` distinct programs: item `k = 0, 1, …` is sampled from
    /// stream `derive_item_seed(seed, round, k)` and kept if its fingerprint
    /// is new; stops at `size` kept or after 200 repeats in a row.
    pub fn init_population(
        workload: &pruner_ir::Workload,
        size: usize,
        limits: &HardwareLimits,
        seed: u64,
        round: u64,
    ) -> Vec<Program> {
        let mut out = Vec::with_capacity(size);
        let mut seen = std::collections::HashSet::new();
        let mut stale = 0usize;
        let mut item = 0usize;
        while out.len() < size && stale < 200 {
            let p = Program::sample(workload, limits, &mut item_rng(seed, round, item));
            item += 1;
            if seen.insert(p.fingerprint()) {
                out.push(p);
                stale = 0;
            } else {
                stale += 1;
            }
        }
        out
    }

    /// One round's `size` offspring: child `k` rolls its operator and
    /// parents from stream `derive_item_seed(seed, round, k)` — mutation
    /// below 0.45, crossover below 0.75 (given two elites), else a fresh
    /// sample of the elites' workload.
    ///
    /// # Panics
    /// Panics if `elites` is empty.
    pub fn next_generation(
        elites: &[Program],
        size: usize,
        limits: &HardwareLimits,
        seed: u64,
        round: u64,
    ) -> Vec<Program> {
        assert!(!elites.is_empty(), "need at least one elite");
        (0..size)
            .map(|k| {
                let rng = &mut item_rng(seed, round, k);
                let roll: f64 = rng.gen();
                if roll < 0.45 {
                    let p = &elites[rng.gen_range(0..elites.len())];
                    mutate(p, limits, rng)
                } else if roll < 0.75 && elites.len() >= 2 {
                    let i = rng.gen_range(0..elites.len());
                    let j = rng.gen_range(0..elites.len());
                    crossover(&elites[i], &elites[j], limits, rng)
                } else {
                    Program::sample(&elites[0].workload, limits, rng)
                }
            })
            .collect()
    }
}

/// Samples up to `size` *distinct* valid candidates onto the tail of
/// `arena`, in place.
///
/// Follows [`reference::init_population`] draw for draw — same per-item RNG
/// streams, same first-wins order, same stale budget — and deduplicates by
/// the arena's u64 schedule fingerprint, so the materialized programs equal
/// that population exactly. Each batch is generated straight into the
/// arena's columns by `threads` workers writing disjoint row ranges, then
/// its first-wins filter compacts that tail in place; candidates already in
/// the arena are neither moved nor deduplicated against. Fewer than `size`
/// candidates are added when the space is tiny.
///
/// The new candidates are *raw*: stats rows are deferred so candidates
/// rejected by dedup never pay for one. Call
/// [`CandidateArena::ensure_stats`] before PSA or featurization.
pub fn init_into(
    arena: &mut CandidateArena,
    size: usize,
    limits: &HardwareLimits,
    seed: u64,
    round: u64,
    threads: usize,
) {
    let ctx = Arc::clone(arena.ctx());
    let base = arena.len();
    let mut seen = FpSet::with_capacity_and_hasher(size, Default::default());
    let mut next_item = 0usize;
    let mut stale = 0usize;
    while arena.len() - base < size && stale < 200 {
        // Batch size depends only on progress so far, never on threads.
        let mut kept = arena.len() - base;
        let batch = (size - kept).max(32);
        let tail = arena.len();
        arena.extend_par(batch, threads, |k| {
            ctx.sample_genes(limits, &mut item_rng(seed, round, next_item + k))
        });
        next_item += batch;
        arena.retain_from(tail, |_, fp| {
            if kept >= size || stale >= 200 {
                return false;
            }
            let fresh = seen.insert(fp);
            if fresh {
                kept += 1;
                stale = 0;
            } else {
                stale += 1;
            }
            fresh
        });
    }
}

/// Breeds one round's `size` offspring (mutations, crossovers and fresh
/// samples) onto the tail of `arena`, in place.
///
/// `elites` are the parents' gene buffers (extract them with
/// [`CandidateArena::genes`] or [`WorkloadCtx::genes_from_schedule`]). Each
/// child draws its operator and parents from its own item RNG with the
/// roll thresholds of [`reference::next_generation`], so the materialized
/// programs equal that generation over the same elites exactly, at any
/// thread count. The children are *raw* (stats deferred) — see
/// [`CandidateArena::ensure_stats`].
///
/// # Panics
/// Panics if `elites` is empty.
pub fn next_generation_into(
    arena: &mut CandidateArena,
    elites: &[GeneBuf],
    size: usize,
    limits: &HardwareLimits,
    seed: u64,
    round: u64,
    threads: usize,
) {
    assert!(!elites.is_empty(), "need at least one elite");
    let ctx = Arc::clone(arena.ctx());
    arena.extend_par(size, threads, |k| {
        let rng = &mut item_rng(seed, round, k);
        let roll: f64 = rng.gen();
        if roll < 0.45 {
            let p = &elites[rng.gen_range(0..elites.len())];
            ctx.mutate_genes(p, limits, rng)
        } else if roll < 0.75 && elites.len() >= 2 {
            let i = rng.gen_range(0..elites.len());
            let j = rng.gen_range(0..elites.len());
            ctx.crossover_genes(&elites[i], &elites[j], limits, rng)
        } else {
            ctx.sample_genes(limits, rng)
        }
    });
}

/// [`init_into`] a fresh arena.
pub fn init_arena_par(
    ctx: &Arc<WorkloadCtx>,
    size: usize,
    limits: &HardwareLimits,
    seed: u64,
    round: u64,
    threads: usize,
) -> CandidateArena {
    let mut out = CandidateArena::with_capacity(Arc::clone(ctx), size);
    init_into(&mut out, size, limits, seed, round, threads);
    out
}

/// [`next_generation_into`] a fresh arena.
///
/// # Panics
/// Panics if `elites` is empty.
pub fn next_generation_arena_par(
    ctx: &Arc<WorkloadCtx>,
    elites: &[GeneBuf],
    size: usize,
    limits: &HardwareLimits,
    seed: u64,
    round: u64,
    threads: usize,
) -> CandidateArena {
    let mut out = CandidateArena::with_capacity(Arc::clone(ctx), size);
    next_generation_into(&mut out, elites, size, limits, seed, round, threads);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pruner_ir::{EwKind, Workload};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(99)
    }

    #[test]
    fn mutation_preserves_workload_and_validity() {
        let limits = HardwareLimits::default();
        let mut r = rng();
        let wl = Workload::conv2d(1, 64, 56, 56, 64, 3, 1, 1);
        let p = Program::sample(&wl, &limits, &mut r);
        for _ in 0..50 {
            let m = mutate(&p, &limits, &mut r);
            assert_eq!(m.workload, wl);
            assert!(m.is_valid(&limits));
        }
    }

    #[test]
    fn mutation_changes_something_often() {
        let limits = HardwareLimits::default();
        let mut r = rng();
        let wl = Workload::matmul(1, 512, 512, 512);
        let p = Program::sample(&wl, &limits, &mut r);
        let changed = (0..50).filter(|_| mutate(&p, &limits, &mut r) != p).count();
        assert!(changed > 30, "only {changed}/50 mutations changed the program");
    }

    #[test]
    fn crossover_yields_valid_mixture() {
        let limits = HardwareLimits::default();
        let mut r = rng();
        let wl = Workload::matmul(1, 256, 256, 256);
        let a = Program::sample(&wl, &limits, &mut r);
        let b = Program::sample(&wl, &limits, &mut r);
        for _ in 0..20 {
            let c = crossover(&a, &b, &limits, &mut r);
            assert!(c.is_valid(&limits));
            assert_eq!(c.workload, wl);
        }
    }

    #[test]
    #[should_panic(expected = "shared workload")]
    fn crossover_rejects_different_workloads() {
        let limits = HardwareLimits::default();
        let mut r = rng();
        let a = Program::sample(&Workload::matmul(1, 64, 64, 64), &limits, &mut r);
        let b = Program::sample(&Workload::matmul(1, 128, 128, 128), &limits, &mut r);
        crossover(&a, &b, &limits, &mut r);
    }

    #[test]
    fn population_is_distinct() {
        let limits = HardwareLimits::default();
        let mut r = rng();
        let pop = init_population(&Workload::matmul(1, 512, 512, 512), 128, &limits, &mut r);
        let keys: std::collections::HashSet<_> = pop.iter().map(|p| p.dedup_key()).collect();
        assert_eq!(keys.len(), pop.len());
        assert_eq!(pop.len(), 128);
    }

    #[test]
    fn tiny_space_population_stops_early() {
        let limits = HardwareLimits::default();
        let mut r = rng();
        let pop = init_population(&Workload::elementwise(EwKind::Relu, 64), 500, &limits, &mut r);
        assert!(pop.len() < 500, "the elementwise space is small");
        assert!(!pop.is_empty());
    }

    #[test]
    fn next_generation_fills_requested_size() {
        let limits = HardwareLimits::default();
        let mut r = rng();
        let wl = Workload::matmul(1, 256, 256, 256);
        let elites: Vec<Program> =
            (0..4).map(|_| Program::sample(&wl, &limits, &mut r)).collect();
        let generation = reference::next_generation(&elites, 64, &limits, 1, 0);
        assert_eq!(generation.len(), 64);
        assert!(generation.iter().all(|p| p.is_valid(&limits)));
    }

    #[test]
    fn item_seeds_are_distinct_across_all_inputs() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..4u64 {
            for round in 0..4u64 {
                for item in 0..64u64 {
                    assert!(
                        seen.insert(derive_item_seed(seed, round, item)),
                        "collision at ({seed}, {round}, {item})"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_population_is_thread_count_invariant() {
        let limits = HardwareLimits::default();
        let wl = Workload::matmul(1, 512, 512, 512);
        let ctx = Arc::new(WorkloadCtx::new(&wl));
        let baseline = reference::init_population(&wl, 128, &limits, 7, 3);
        assert_eq!(baseline.len(), 128);
        for threads in [1, 2, 3, 4, 8, 17] {
            assert_eq!(
                init_arena_par(&ctx, 128, &limits, 7, 3, threads).programs(),
                baseline,
                "population diverged at {threads} threads"
            );
        }
        let keys: std::collections::HashSet<_> =
            baseline.iter().map(|p| p.dedup_key()).collect();
        assert_eq!(keys.len(), baseline.len(), "population must stay distinct");
    }

    #[test]
    fn parallel_generation_is_thread_count_invariant() {
        let limits = HardwareLimits::default();
        let mut r = rng();
        let wl = Workload::matmul(1, 256, 256, 256);
        let ctx = Arc::new(WorkloadCtx::new(&wl));
        let elites: Vec<Program> =
            (0..6).map(|_| Program::sample(&wl, &limits, &mut r)).collect();
        let genes: Vec<GeneBuf> =
            elites.iter().map(|p| ctx.genes_from_schedule(&p.schedule)).collect();
        let baseline = reference::next_generation(&elites, 96, &limits, 11, 5);
        assert_eq!(baseline.len(), 96);
        assert!(baseline.iter().all(|p| p.is_valid(&limits)));
        for threads in [1, 2, 4, 8, 96, 200] {
            assert_eq!(
                next_generation_arena_par(&ctx, &genes, 96, &limits, 11, 5, threads).programs(),
                baseline,
                "generation diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn parallel_generation_depends_on_seed_and_round() {
        let limits = HardwareLimits::default();
        let mut r = rng();
        let wl = Workload::matmul(1, 512, 512, 512);
        let elites: Vec<Program> =
            (0..6).map(|_| Program::sample(&wl, &limits, &mut r)).collect();
        let a = reference::next_generation(&elites, 64, &limits, 1, 0);
        let other_seed = reference::next_generation(&elites, 64, &limits, 2, 0);
        let other_round = reference::next_generation(&elites, 64, &limits, 1, 1);
        assert_ne!(a, other_seed, "seed must matter");
        assert_ne!(a, other_round, "round must matter");
    }

    fn arena_zoo() -> Vec<Workload> {
        vec![
            Workload::matmul(1, 512, 512, 512),
            Workload::conv2d(1, 64, 56, 56, 64, 3, 1, 1),
            Workload::elementwise(EwKind::Gelu, 1 << 18),
            Workload::reduction(2048, 768),
        ]
    }

    #[test]
    fn arena_init_matches_legacy_population() {
        let limits = HardwareLimits::default();
        for wl in arena_zoo() {
            let ctx = Arc::new(WorkloadCtx::new(&wl));
            let legacy = reference::init_population(&wl, 96, &limits, 7, 3);
            let arena = init_arena_par(&ctx, 96, &limits, 7, 3, 1);
            assert_eq!(arena.programs(), legacy, "arena init diverged for {}", wl.key());
            for (i, p) in legacy.iter().enumerate() {
                assert_eq!(arena.fingerprint(i), p.fingerprint());
            }
        }
    }

    #[test]
    fn arena_init_is_thread_count_invariant() {
        let limits = HardwareLimits::default();
        let wl = Workload::matmul(1, 512, 512, 512);
        let ctx = Arc::new(WorkloadCtx::new(&wl));
        let baseline = init_arena_par(&ctx, 128, &limits, 7, 3, 1);
        assert_eq!(baseline.len(), 128);
        for threads in [2, 4, 8, 17] {
            let other = init_arena_par(&ctx, 128, &limits, 7, 3, threads);
            assert_eq!(other.fingerprints(), baseline.fingerprints());
            assert_eq!(other.programs(), baseline.programs());
        }
    }

    #[test]
    fn arena_next_generation_matches_legacy() {
        let limits = HardwareLimits::default();
        for wl in arena_zoo() {
            let ctx = Arc::new(WorkloadCtx::new(&wl));
            let elites_legacy = reference::init_population(&wl, 8, &limits, 5, 0);
            let elite_genes: Vec<GeneBuf> = elites_legacy
                .iter()
                .map(|p| ctx.genes_from_schedule(&p.schedule))
                .collect();
            let legacy = reference::next_generation(&elites_legacy, 96, &limits, 11, 5);
            for threads in [1usize, 4] {
                let arena = next_generation_arena_par(
                    &ctx,
                    &elite_genes,
                    96,
                    &limits,
                    11,
                    5,
                    threads,
                );
                assert_eq!(
                    arena.programs(),
                    legacy,
                    "arena next-gen diverged for {} at {threads} threads",
                    wl.key()
                );
            }
        }
    }

    /// The tuner's pool shape: offspring first, then the fresh-blood
    /// quarter sampled onto the tail of the same arena. The tail's
    /// first-wins filter must neither move nor consult the offspring.
    #[test]
    fn fresh_blood_tail_leaves_the_offspring_alone() {
        let limits = HardwareLimits::default();
        for wl in arena_zoo() {
            let ctx = Arc::new(WorkloadCtx::new(&wl));
            let elites: Vec<GeneBuf> = {
                let seed_pop = init_arena_par(&ctx, 8, &limits, 5, 0, 1);
                (0..seed_pop.len()).map(|i| seed_pop.genes(i)).collect()
            };
            let offspring = next_generation_arena_par(&ctx, &elites, 96, &limits, 11, 5, 1);
            let fresh = init_arena_par(&ctx, 40, &limits, 12, 5, 1);
            for threads in [1usize, 3, 8] {
                let mut pool = CandidateArena::new(Arc::clone(&ctx));
                next_generation_into(&mut pool, &elites, 96, &limits, 11, 5, threads);
                init_into(&mut pool, 40, &limits, 12, 5, threads);
                let expected: Vec<u64> =
                    offspring.fingerprints().iter().chain(fresh.fingerprints()).copied().collect();
                assert_eq!(pool.fingerprints(), expected, "{} at {threads} threads", wl.key());
                let programs: Vec<Program> =
                    offspring.programs().into_iter().chain(fresh.programs()).collect();
                assert_eq!(pool.programs(), programs);
            }
        }
    }

    #[test]
    fn arena_tiny_space_init_stops_early_and_matches_legacy() {
        let limits = HardwareLimits::default();
        let wl = Workload::elementwise(EwKind::Relu, 64);
        let ctx = Arc::new(WorkloadCtx::new(&wl));
        let legacy = reference::init_population(&wl, 500, &limits, 99, 0);
        assert!(legacy.len() < 500, "the elementwise space is small");
        assert!(!legacy.is_empty());
        let keys: std::collections::HashSet<_> = legacy.iter().map(|p| p.dedup_key()).collect();
        assert_eq!(keys.len(), legacy.len(), "population must stay distinct");
        for threads in [1, 8] {
            assert_eq!(init_arena_par(&ctx, 500, &limits, 99, 0, threads).programs(), legacy);
        }
    }
}
