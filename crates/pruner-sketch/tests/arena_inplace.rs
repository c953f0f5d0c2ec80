//! The in-place, reusable candidate arena against its oracles.
//!
//! Generation, dedup and the deferred stats fill all write one arena's
//! columns in place, fanned out over workers, and the arena is reused from
//! round to round and across workloads. These tests pin the three things
//! that can go wrong with that: a band boundary that shifts a candidate's
//! RNG stream, a stale column entry surviving a `reset`, and a dedup
//! verdict that differs from the `retain_with` first-wins loop.
//!
//! CI's thread-matrix job reruns the property tests with
//! `PROPTEST_CASES=256`.

use proptest::prelude::*;
use pruner_ir::{EwKind, Workload};
use pruner_sketch::{evolve, CandidateArena, GeneBuf, HardwareLimits, StatsRow, WorkloadCtx};
use std::collections::HashSet;
use std::sync::Arc;

/// Every fan-out the pipeline can be asked for, including more workers
/// than candidates and worker counts that do not divide the pool.
const THREADS: [usize; 6] = [1, 2, 3, 4, 8, 17];

/// Salt of the fresh-blood tail's RNG streams (as in `TaskTuner::propose`).
const FRESH: u64 = 0xA076_1D64_78BD_642F;

/// Four sketch shapes: ranks 3+1, 4+3, 1+0 and 1+1 axes; 6, 6, 3–4 and 3
/// statement slots.
fn zoo() -> Vec<Workload> {
    vec![
        Workload::matmul(1, 512, 512, 512),
        Workload::conv2d(1, 64, 56, 56, 64, 3, 1, 1),
        Workload::elementwise(EwKind::Gelu, 1 << 18),
        Workload::reduction(2048, 768),
    ]
}

fn ctx_of(wl: &Workload) -> Arc<WorkloadCtx> {
    Arc::new(WorkloadCtx::new(wl))
}

fn elites_of(ctx: &Arc<WorkloadCtx>, seed: u64) -> Vec<GeneBuf> {
    let pop = evolve::init_arena_par(ctx, 6, &HardwareLimits::default(), seed, 0, 1);
    (0..pop.len()).map(|i| pop.genes(i)).collect()
}

/// One round's pool the way the tuner builds it: ¾ offspring, then the
/// fresh-blood quarter sampled onto the tail of the same arena.
fn fill_pool(
    arena: &mut CandidateArena,
    elites: &[GeneBuf],
    pool: usize,
    seed: u64,
    threads: usize,
) {
    let limits = HardwareLimits::default();
    evolve::next_generation_into(arena, elites, pool * 3 / 4, &limits, seed, 1, threads);
    let fresh = pool - arena.len();
    evolve::init_into(arena, fresh, &limits, seed ^ FRESH, 1, threads);
}

/// Everything observable about an arena, column for column (f64 as bits).
#[derive(Debug, PartialEq)]
struct Columns {
    fingerprints: Vec<u64>,
    genes: Vec<GeneBuf>,
    stats_u: Vec<Vec<u64>>,
    stats_f: Vec<Vec<u64>>,
}

fn columns(arena: &CandidateArena) -> Columns {
    let bits = |c: &[f64]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let mut stats_u = vec![
        arena.threads_col().to_vec(),
        arena.num_blocks_col().to_vec(),
        arena.vthreads_col().to_vec(),
        arena.regs_col().to_vec(),
        arena.shared_bytes_col().to_vec(),
        arena.unroll_col().to_vec(),
        arena.vectorize_col().to_vec(),
    ];
    let mut stats_f = vec![
        bits(arena.flops_total_col()),
        bits(arena.global_bytes_col()),
        bits(arena.shared_traffic_col()),
        bits(arena.padding_waste_col()),
        bits(arena.per_thread_flops_col()),
        bits(arena.per_thread_reg_accesses_col()),
    ];
    for j in 0..arena.n_stmts() {
        stats_u.push(arena.stmt_innermost_col(j).to_vec());
        stats_f.push(bits(arena.stmt_n_ops_col(j)));
        stats_f.push(bits(arena.stmt_global_col(j)));
        stats_f.push(bits(arena.stmt_shared_col(j)));
    }
    Columns {
        fingerprints: arena.fingerprints().to_vec(),
        genes: (0..arena.len()).map(|i| arena.genes(i)).collect(),
        stats_u,
        stats_f,
    }
}

proptest! {
    /// In-place generation reproduces the serial `evolve::reference`
    /// generators program for program, at every fan-out.
    #[test]
    fn in_place_generation_matches_the_legacy_generators(
        wl_idx in 0usize..4,
        n in 1usize..160,
        seed in 0u64..1_000,
    ) {
        let wl = &zoo()[wl_idx];
        let (ctx, limits) = (ctx_of(wl), HardwareLimits::default());
        let legacy_init = evolve::reference::init_population(wl, n, &limits, seed, 2);
        let parents = evolve::reference::init_population(wl, 6, &limits, seed, 0);
        let elites: Vec<GeneBuf> =
            parents.iter().map(|p| ctx.genes_from_schedule(&p.schedule)).collect();
        let legacy_next = evolve::reference::next_generation(&parents, n, &limits, seed, 3);
        for threads in THREADS {
            let mut arena = CandidateArena::new(Arc::clone(&ctx));
            evolve::init_into(&mut arena, n, &limits, seed, 2, threads);
            prop_assert_eq!(&arena.programs(), &legacy_init, "init at {} threads", threads);
            for (i, p) in legacy_init.iter().enumerate() {
                prop_assert_eq!(arena.fingerprint(i), p.fingerprint());
            }
            arena.reset(Arc::clone(&ctx));
            evolve::next_generation_into(&mut arena, &elites, n, &limits, seed, 3, threads);
            prop_assert_eq!(&arena.programs(), &legacy_next, "next at {} threads", threads);
            for (i, p) in legacy_next.iter().enumerate() {
                prop_assert_eq!(arena.fingerprint(i), p.fingerprint());
            }
        }
    }

    /// A reused arena — after a larger pool, after a workload of another
    /// rank and statement count, with or without stats left behind, and
    /// after giving its storage back — is indistinguishable from a fresh
    /// one, column for column.
    #[test]
    fn a_dirty_arena_equals_a_fresh_one(
        wl_idx in 0usize..4,
        prev_idx in 0usize..4,
        n in 1usize..120,
        extra in 1usize..80,
        prev_stats in 0usize..2,
        seed in 0u64..1_000,
        threads_idx in 0usize..6,
    ) {
        let threads = THREADS[threads_idx];
        let (wl, prev) = (&zoo()[wl_idx], &zoo()[prev_idx]);
        let (ctx, prev_ctx) = (ctx_of(wl), ctx_of(prev));
        let elites = elites_of(&ctx, seed);
        let round = |arena: &mut CandidateArena| {
            fill_pool(arena, &elites, n, seed, threads);
            arena.dedup_first_wins(&HashSet::new());
            arena.ensure_stats_par(threads);
        };

        let mut fresh = CandidateArena::new(Arc::clone(&ctx));
        round(&mut fresh);

        let mut dirty = CandidateArena::default();
        dirty.reset(Arc::clone(&prev_ctx));
        fill_pool(&mut dirty, &elites_of(&prev_ctx, seed + 1), n + extra, seed + 1, threads);
        if prev_stats == 1 {
            dirty.ensure_stats();
        }
        dirty.reset(Arc::clone(&ctx));
        prop_assert!(dirty.is_empty() && dirty.has_stats());
        round(&mut dirty);
        prop_assert_eq!(columns(&dirty), columns(&fresh));

        // And once more on the same workload: a second round over its own
        // leftovers.
        dirty.reset(Arc::clone(&ctx));
        round(&mut dirty);
        prop_assert_eq!(columns(&dirty), columns(&fresh));

        // A pool this small frees its columns between rounds.
        dirty.release_if_small();
        prop_assert!(dirty.is_empty() && dirty.has_stats());
        dirty.reset(Arc::clone(&ctx));
        round(&mut dirty);
        prop_assert_eq!(columns(&dirty), columns(&fresh));
    }
}

/// A pool large enough that the stats fill really fans out (it stays on the
/// calling thread below 8 192 rows).
const BIG_POOL: usize = 20_000;

/// Dedup through the pre-seeded fingerprint-keyed set against the two-set
/// `retain_with` first-wins loop, on pools that are mostly duplicates and
/// with a known set that overlaps the pool. Stats computed *before* the
/// oracle's dedup must also compact to the stats computed *after* it by
/// the fanned-out fill.
#[test]
fn dedup_matches_the_first_wins_oracle() {
    for wl in [Workload::matmul(1, 128, 128, 128), Workload::reduction(2048, 768)] {
        let ctx = ctx_of(&wl);
        let elites = elites_of(&ctx, 3);
        let mut oracle = CandidateArena::new(Arc::clone(&ctx));
        fill_pool(&mut oracle, &elites, BIG_POOL, 9, 1);
        let distinct: HashSet<u64> = oracle.fingerprints().iter().copied().collect();
        assert!(distinct.len() * 2 <= BIG_POOL, "{}: pool must be ≥ 50 % duplicates", wl.key());
        // Every fifth distinct candidate is already measured; so are some
        // programs this pool never bred.
        let mut known: HashSet<u64> = oracle
            .fingerprints()
            .iter()
            .copied()
            .filter(|fp| fp % 5 == 0)
            .chain((0..64).map(|k| 0xDEAD_0000 + k))
            .collect();
        known.insert(oracle.fingerprint(0));
        oracle.ensure_stats();
        let mut seen = HashSet::new();
        oracle.retain_with(|_, fp| !known.contains(&fp) && seen.insert(fp));
        assert!(!oracle.is_empty() && oracle.len() < distinct.len());
        let expected = columns(&oracle);

        for threads in 1..=8 {
            let mut arena = CandidateArena::new(Arc::clone(&ctx));
            fill_pool(&mut arena, &elites, BIG_POOL, 9, threads);
            arena.dedup_first_wins(&known);
            arena.ensure_stats_par(threads);
            assert_eq!(columns(&arena), expected, "{} at {threads} threads", wl.key());
        }
    }
}

/// The banded stats fill writes the same bits as the one-worker call, for
/// every statement count, and `stats_row` reads them back.
#[test]
fn parallel_stats_columns_equal_serial() {
    let limits = HardwareLimits::default();
    for wl in zoo() {
        let ctx = ctx_of(&wl);
        let elites = elites_of(&ctx, 4);
        let pool =
            |threads| evolve::next_generation_arena_par(&ctx, &elites, BIG_POOL, &limits, 6, 1, threads);
        let mut serial = pool(1);
        serial.ensure_stats();
        let expected = columns(&serial);
        for threads in [2, 3, 8, 17] {
            let mut arena = pool(threads);
            assert!(!arena.has_stats());
            arena.ensure_stats_par(threads);
            assert!(arena.has_stats());
            assert_eq!(columns(&arena), expected, "{} at {threads} threads", wl.key());
        }
        // Spot-check the columns against the row oracle.
        let (mut row, mut direct) = (StatsRow::default(), StatsRow::default());
        for i in (0..serial.len()).step_by(997) {
            serial.stats_row(i, &mut row);
            ctx.compute_row(&serial.genes(i), &mut direct);
            assert_eq!(row.threads_per_block, direct.threads_per_block);
            assert_eq!(row.flops_total.to_bits(), direct.flops_total.to_bits());
            for j in 0..serial.n_stmts() {
                assert_eq!(row.stmt_innermost[j], direct.stmt_innermost[j]);
                assert_eq!(row.stmt_global[j].to_bits(), direct.stmt_global[j].to_bits());
            }
        }
    }
}
