//! Parameterized Static Analyzer (PSA) — the "draft" half of Pruner.
//!
//! PSA (paper §2.3) assigns every candidate tensor program an approximate
//! latency from four hardware-aware penalty terms and Eq. 4, then prunes the
//! random sample space down to a small **target space** of the
//! lowest-estimated-latency candidates (Algorithm 1). The subsequent
//! learned cost model only has to rank this pruned space.
//!
//! The penalties:
//!
//! * **Thread-level** `P_thread = α · P_reg`, with
//!   `P_reg = max(n_r / n_r*, 1)` (register over-allocation) and
//!   `α = 1 + n_reg / n_com` (memory-to-compute ratio).
//! * **Warp-level** `P_warp = n_t / (⌈n_t / n_w*⌉ · n_w*)` — thread-count
//!   alignment to the warp size.
//! * **Kernel-level** `P_kernel` (Eq. 3) — block/warp quantization against
//!   the device's simultaneous capacity `B* = n_sm · n_b`,
//!   `W* = n_sm · n_w`.
//! * **Memory** `P_mem = n_l / (⌈n_l / n_l*⌉ · n_l*)` — innermost-dimension
//!   alignment to the DRAM transaction length.
//!
//! Each innermost buffer statement `i` is then priced as
//! `L_c^i = n_ops^i · P_thread / (T_p · P_kernel · P_warp)` and
//! `L_m^i = n_m^i / (T_m · P_mem)`, with
//! `L_total = Σ_i (L_c^i + L_m^i)` (Eq. 4).
//!
//! [`PsaConfig`] can disable any penalty, reproducing the Table 4 ablation.
//!
//! # Example
//!
//! ```
//! use pruner_gpu::GpuSpec;
//! use pruner_ir::Workload;
//! use pruner_psa::Psa;
//! use rand::SeedableRng;
//!
//! let psa = Psa::new(GpuSpec::t4());
//! let wl = Workload::matmul(1, 512, 512, 512);
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let space = psa.sample_target_space(&wl, 2048, 128, &mut rng);
//! assert_eq!(space.len(), 128);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod columns;

use pruner_gpu::GpuSpec;
use pruner_ir::Workload;
use pruner_sketch::{evolve, CandidateArena, Program, ProgramStats};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Penalty toggles for the Table 4 ablation study.
///
/// All penalties are enabled by default; `w/o com` in the paper corresponds
/// to [`PsaConfig::without_compute`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PsaConfig {
    /// Use the memory-to-compute ratio `α` in the thread penalty.
    pub enable_alpha: bool,
    /// Use the register over-allocation penalty `P_reg`.
    pub enable_reg: bool,
    /// Use the warp alignment penalty `P_warp`.
    pub enable_warp: bool,
    /// Use the kernel-level quantization penalty `P_kernel`.
    pub enable_kernel: bool,
    /// Use the memory transaction penalty `P_mem`.
    pub enable_mem: bool,
}

impl Default for PsaConfig {
    fn default() -> Self {
        PsaConfig {
            enable_alpha: true,
            enable_reg: true,
            enable_warp: true,
            enable_kernel: true,
            enable_mem: true,
        }
    }
}

impl PsaConfig {
    /// Disables every computation-related penalty (`w/o com` in Table 4).
    pub fn without_compute() -> Self {
        PsaConfig {
            enable_alpha: false,
            enable_reg: false,
            enable_warp: false,
            enable_kernel: false,
            enable_mem: true,
        }
    }
}

/// The four penalty values of one program (all in `(0, 1]` except
/// `P_thread`, which is ≥ 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Penalties {
    /// Thread-level penalty `α · P_reg` (≥ 1; larger is worse).
    pub thread: f64,
    /// Warp alignment efficiency (≤ 1; smaller is worse).
    pub warp: f64,
    /// Kernel-level scheduling efficiency (≤ 1; smaller is worse).
    pub kernel: f64,
    /// Memory transaction efficiency (≤ 1; smaller is worse).
    pub mem_of_unit: f64,
}

/// The Parameterized Static Analyzer for one platform.
#[derive(Debug, Clone)]
pub struct Psa {
    spec: GpuSpec,
    cfg: PsaConfig,
}

impl Psa {
    /// PSA with all penalties enabled.
    pub fn new(spec: GpuSpec) -> Psa {
        Psa { spec, cfg: PsaConfig::default() }
    }

    /// PSA with explicit penalty toggles (Table 4 ablation).
    pub fn with_config(spec: GpuSpec, cfg: PsaConfig) -> Psa {
        Psa { spec, cfg }
    }

    /// The platform parameters used by the penalties.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// The active penalty configuration.
    pub fn config(&self) -> &PsaConfig {
        &self.cfg
    }

    /// Computes the global (per-program) penalty terms.
    pub fn penalties(&self, stats: &ProgramStats) -> Penalties {
        let spec = &self.spec;
        let p_reg = if self.cfg.enable_reg {
            (stats.regs_per_thread as f64 / spec.reg_limit_per_thread as f64).max(1.0)
        } else {
            1.0
        };
        let alpha = if self.cfg.enable_alpha {
            1.0 + stats.per_thread_reg_accesses / stats.per_thread_flops.max(1e-9)
        } else {
            1.0
        };
        let thread = alpha * p_reg;

        let warp = if self.cfg.enable_warp {
            let n_t = stats.threads_per_block.max(1);
            let w = spec.warp_size;
            n_t as f64 / (n_t.div_ceil(w) * w) as f64
        } else {
            1.0
        };

        let kernel = if self.cfg.enable_kernel {
            let b = stats.num_blocks.max(1);
            let b_star = spec.max_resident_blocks();
            if b >= b_star {
                b as f64 / (b.div_ceil(b_star) * b_star) as f64
            } else {
                let w = stats.total_warps(spec.warp_size).max(1);
                let w_star = spec.max_resident_warps();
                w as f64 / (w.div_ceil(w_star) * w_star) as f64
            }
        } else {
            1.0
        };

        Penalties { thread, warp, kernel, mem_of_unit: 1.0 }
    }

    /// Memory penalty `P_mem` for one statement's innermost run length.
    pub fn mem_penalty(&self, innermost_len: u64) -> f64 {
        if !self.cfg.enable_mem {
            return 1.0;
        }
        let n_l = innermost_len.max(1);
        let tx = self.spec.mem_transaction_elems;
        n_l as f64 / (n_l.div_ceil(tx) * tx) as f64
    }

    /// Approximate latency `L_total` of a program (Eq. 4), in seconds.
    pub fn estimate(&self, prog: &Program) -> f64 {
        self.estimate_stats(&prog.stats())
    }

    /// Approximate latency from precomputed statistics, in seconds.
    pub fn estimate_stats(&self, stats: &ProgramStats) -> f64 {
        let p = self.penalties(stats);
        let t_p = self.spec.peak_gflops * 1e9;
        let t_m = self.spec.dram_gbps * 1e9;
        let mut total = 0.0;
        for stmt in &stats.stmts {
            let l_c = stmt.n_ops * p.thread / (t_p * p.kernel * p.warp);
            let l_m = if stmt.global_bytes > 0.0 {
                stmt.global_bytes / (t_m * self.mem_penalty(stmt.innermost_len))
            } else {
                0.0
            };
            total += l_c + l_m;
        }
        total
    }

    /// Prunes a candidate pool to the `size` programs with the lowest
    /// estimated latency (Algorithm 1's `TargetSpace.preserve`).
    ///
    /// The result is sorted by ascending estimate. If the pool is smaller
    /// than `size`, the whole pool is returned.
    pub fn prune(&self, pool: Vec<Program>, size: usize) -> Vec<Program> {
        let mut scored: Vec<(f64, Program)> =
            pool.into_iter().map(|p| (self.estimate(&p), p)).collect();
        scored.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite estimates"));
        scored.truncate(size);
        scored.into_iter().map(|(_, p)| p).collect()
    }

    /// Approximate latencies of every candidate in an arena, in seconds.
    ///
    /// Where [`Self::estimate`] re-derives [`ProgramStats`] from a
    /// program's schedule on every call, the arena already holds every
    /// stat column (computed once at insertion and reused by PSA and the
    /// feature extractors alike). The estimate is assembled in three column
    /// passes (see [`columns`]) whose hot loop runs through a runtime-
    /// dispatched AVX2 clone; accumulation stays in ascending statement
    /// order, so the result is bit-identical to mapping [`Self::estimate`]
    /// over the materialized programs — at any thread count.
    /// # Panics
    /// Panics if the arena has raw (stats-deferred) candidates — call
    /// [`CandidateArena::ensure_stats`] after generation and dedup.
    pub fn estimate_arena(&self, arena: &CandidateArena, threads: usize) -> Vec<f64> {
        let n = arena.len();
        assert!(arena.has_stats(), "estimate_arena needs stats: call ensure_stats() first");
        let mut scores = vec![0.0f64; n];
        if n == 0 {
            return scores;
        }
        let workers = threads.max(1).min(n);
        if workers <= 1 {
            self.estimate_arena_band(arena, 0, &mut scores);
            return scores;
        }
        let band = n.div_ceil(workers);
        crossbeam::thread::scope(|scope| {
            for (b, out_band) in scores.chunks_mut(band).enumerate() {
                scope.spawn(move |_| self.estimate_arena_band(arena, b * band, out_band));
            }
        })
        .expect("PSA workers must not panic");
        scores
    }

    /// Estimates candidates `start..start + out.len()` into `out`.
    fn estimate_arena_band(&self, arena: &CandidateArena, start: usize, out: &mut [f64]) {
        let n = out.len();
        let end = start + n;
        let mut thread = vec![0.0f64; n];
        let mut tkw = vec![0.0f64; n];
        columns::fill_penalty_columns(
            &self.cfg,
            &self.spec,
            &arena.regs_col()[start..end],
            &arena.per_thread_reg_accesses_col()[start..end],
            &arena.per_thread_flops_col()[start..end],
            &arena.threads_col()[start..end],
            &arena.num_blocks_col()[start..end],
            &mut thread,
            &mut tkw,
        );
        let t_m = self.spec.dram_gbps * 1e9;
        let mut mem_den = vec![0.0f64; n];
        for j in 0..arena.n_stmts() {
            columns::fill_mem_denominator(
                self.cfg.enable_mem,
                t_m,
                self.spec.mem_transaction_elems,
                &arena.stmt_innermost_col(j)[start..end],
                &mut mem_den,
            );
            columns::run_stmt_accumulate(
                out,
                &arena.stmt_n_ops_col(j)[start..end],
                &thread,
                &tkw,
                &arena.stmt_global_col(j)[start..end],
                &mem_den,
            );
        }
    }

    /// Arena counterpart of [`Self::prune`]: returns the indices of the
    /// `size` lowest-estimated candidates, sorted by ascending estimate.
    ///
    /// Identity stays index-based — materialize survivors with
    /// [`CandidateArena::gather`] or [`CandidateArena::program`] only at
    /// the measure boundary. Ties keep arena order (the stable order of
    /// [`Self::prune`]'s sort), so `gather(&prune_arena(..))` materializes
    /// exactly the programs [`Self::prune`] would keep. Only the kept
    /// prefix is sorted: the cost is a selection over the pool plus a sort
    /// of `size`, not a sort of the pool.
    pub fn prune_arena(
        &self,
        arena: &CandidateArena,
        size: usize,
        threads: usize,
    ) -> Vec<usize> {
        let scores = self.estimate_arena(arena, threads);
        let mut order: Vec<usize> = (0..arena.len()).collect();
        // `(estimate, index)` is a total order — the one a stable sort by
        // estimate yields — so selecting the `size` smallest and sorting
        // only those keeps the same candidates in the same order.
        let by_estimate = |a: &usize, b: &usize| {
            scores[*a].partial_cmp(&scores[*b]).expect("finite estimates").then(a.cmp(b))
        };
        if size < order.len() {
            if size > 0 {
                order.select_nth_unstable_by(size - 1, by_estimate);
            }
            order.truncate(size);
        }
        order.sort_unstable_by(by_estimate);
        order
    }

    /// Samples `pool_size` random candidates for `workload` and keeps the
    /// best `size` by estimated latency — the full Algorithm 1 round.
    pub fn sample_target_space(
        &self,
        workload: &Workload,
        pool_size: usize,
        size: usize,
        rng: &mut impl Rng,
    ) -> Vec<Program> {
        let limits = self.spec.limits();
        let pool = evolve::init_population(workload, pool_size, &limits, rng);
        self.prune(pool, size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pruner_gpu::Simulator;
    use pruner_sketch::HardwareLimits;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(2024)
    }

    fn t4_psa() -> Psa {
        Psa::new(GpuSpec::t4())
    }

    #[test]
    fn penalties_within_bounds() {
        let psa = t4_psa();
        let mut r = rng();
        let limits = HardwareLimits::default();
        for wl in [
            Workload::matmul(1, 512, 512, 512),
            Workload::conv2d(1, 64, 56, 56, 64, 3, 1, 1),
        ] {
            for _ in 0..30 {
                let p = Program::sample(&wl, &limits, &mut r);
                let pen = psa.penalties(&p.stats());
                assert!(pen.thread >= 1.0);
                assert!(pen.warp > 0.0 && pen.warp <= 1.0);
                assert!(pen.kernel > 0.0 && pen.kernel <= 1.0);
            }
        }
    }

    #[test]
    fn warp_penalty_prefers_multiples_of_32() {
        let psa = t4_psa();
        // 33 threads wastes almost a whole warp.
        let mk = |threads: u64| {
            let mut s = Program::fallback(&Workload::elementwise(
                pruner_ir::EwKind::Relu,
                1 << 16,
            ))
            .stats();
            s.threads_per_block = threads;
            psa.penalties(&s).warp
        };
        assert_eq!(mk(64), 1.0);
        assert!(mk(33) < 0.6);
        assert!(mk(63) > mk(33));
    }

    #[test]
    fn mem_penalty_prefers_full_transactions() {
        let psa = t4_psa();
        assert_eq!(psa.mem_penalty(32), 1.0);
        assert_eq!(psa.mem_penalty(64), 1.0);
        assert!(psa.mem_penalty(33) < 0.6);
        assert!(psa.mem_penalty(1) < 0.05);
    }

    #[test]
    fn kernel_penalty_quantizes_waves() {
        let psa = t4_psa();
        let b_star = GpuSpec::t4().max_resident_blocks();
        let mut s =
            Program::fallback(&Workload::matmul(1, 512, 512, 512)).stats();
        s.num_blocks = b_star; // exactly one wave
        let full = psa.penalties(&s).kernel;
        s.num_blocks = b_star + 1; // slightly over: half-empty second wave
        let over = psa.penalties(&s).kernel;
        assert_eq!(full, 1.0);
        assert!(over < 0.6);
    }

    #[test]
    fn disabled_penalties_are_neutral() {
        let spec = GpuSpec::t4();
        let psa = Psa::with_config(spec, PsaConfig::without_compute());
        let mut r = rng();
        let p = Program::sample(
            &Workload::matmul(1, 512, 512, 512),
            &HardwareLimits::default(),
            &mut r,
        );
        let pen = psa.penalties(&p.stats());
        assert_eq!(pen.thread, 1.0);
        assert_eq!(pen.warp, 1.0);
        assert_eq!(pen.kernel, 1.0);
    }

    #[test]
    fn estimate_is_positive_and_finite() {
        let psa = t4_psa();
        let mut r = rng();
        let limits = HardwareLimits::default();
        for wl in [
            Workload::matmul(1, 256, 256, 256),
            Workload::reduction(1024, 512),
            Workload::elementwise(pruner_ir::EwKind::Add, 1 << 18),
        ] {
            for _ in 0..20 {
                let est = psa.estimate(&Program::sample(&wl, &limits, &mut r));
                assert!(est.is_finite() && est > 0.0);
            }
        }
    }

    #[test]
    fn estimate_correlates_with_simulator() {
        // The whole point of PSA: its ranking must roughly agree with the
        // (richer) ground-truth oracle. Spearman ρ over random programs.
        let psa = t4_psa();
        let sim = Simulator::new(GpuSpec::t4());
        let mut r = rng();
        let limits = HardwareLimits::default();
        let wl = Workload::matmul(1, 1024, 1024, 1024);
        let progs: Vec<Program> =
            (0..120).map(|_| Program::sample(&wl, &limits, &mut r)).collect();
        let est: Vec<f64> = progs.iter().map(|p| psa.estimate(p)).collect();
        let truth: Vec<f64> = progs.iter().map(|p| sim.latency(p)).collect();
        let rho = spearman(&est, &truth);
        assert!(rho > 0.4, "PSA must correlate with ground truth, got ρ = {rho}");
    }

    #[test]
    fn prune_keeps_best_and_sorts() {
        let psa = t4_psa();
        let mut r = rng();
        let limits = HardwareLimits::default();
        let wl = Workload::matmul(1, 512, 512, 512);
        let pool: Vec<Program> =
            (0..256).map(|_| Program::sample(&wl, &limits, &mut r)).collect();
        let kept = psa.prune(pool.clone(), 32);
        assert_eq!(kept.len(), 32);
        let est: Vec<f64> = kept.iter().map(|p| psa.estimate(p)).collect();
        assert!(est.windows(2).all(|w| w[0] <= w[1]), "must be sorted ascending");
        // The kept maximum must not exceed the pool's 32nd smallest.
        let mut all: Vec<f64> = pool.iter().map(|p| psa.estimate(p)).collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(est.last().unwrap() <= &all[32]);
    }

    #[test]
    fn target_space_beats_random_on_ground_truth() {
        // Table 1's claim in miniature: the best simulator latency inside
        // the PSA target space should beat the best inside an equally-sized
        // random space (averaged over a few workloads).
        let psa = t4_psa();
        let sim = Simulator::new(GpuSpec::t4());
        let limits = HardwareLimits::default();
        let mut wins = 0;
        let workloads = [
            Workload::matmul(1, 1024, 1024, 1024),
            Workload::conv2d(1, 128, 28, 28, 128, 3, 1, 1),
            Workload::matmul(1, 512, 2048, 512),
        ];
        for (i, wl) in workloads.iter().enumerate() {
            let mut r = ChaCha8Rng::seed_from_u64(100 + i as u64);
            let pool = evolve::init_population(wl, 1024, &limits, &mut r);
            let best_in = |progs: &[Program]| {
                progs.iter().map(|p| sim.latency(p)).fold(f64::INFINITY, f64::min)
            };
            let random_best = best_in(&pool[..64]);
            let target = psa.prune(pool, 64);
            let target_best = best_in(&target);
            if target_best <= random_best {
                wins += 1;
            }
        }
        assert!(wins >= 2, "target space should usually contain better programs ({wins}/3)");
    }

    /// One workload per sketch kind.
    fn sketch_zoo() -> [Workload; 4] {
        [
            Workload::matmul(1, 512, 512, 512),
            Workload::conv2d(1, 64, 56, 56, 64, 3, 1, 1),
            Workload::elementwise(pruner_ir::EwKind::Gelu, 1 << 18),
            Workload::reduction(2048, 768),
        ]
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn arena_of(wl: &Workload, n: usize, seed: u64) -> pruner_sketch::CandidateArena {
        let ctx = std::sync::Arc::new(pruner_sketch::WorkloadCtx::new(wl));
        let limits = HardwareLimits::default();
        let mut a = evolve::init_arena_par(&ctx, n, &limits, seed, 0, 1);
        a.ensure_stats();
        a
    }

    #[test]
    fn parallel_prune_matches_serial() {
        let psa = t4_psa();
        let arena = arena_of(&Workload::conv2d(1, 64, 56, 56, 64, 3, 1, 1), 300, 11);
        let serial = psa.prune(arena.programs(), 48);
        for threads in [2, 4, 8, 300] {
            let kept = arena.gather(&psa.prune_arena(&arena, 48, threads)).programs();
            assert_eq!(kept, serial, "prune diverged at {threads} threads");
        }
    }

    #[test]
    fn estimate_arena_matches_legacy_bitwise() {
        for cfg in [PsaConfig::default(), PsaConfig::without_compute()] {
            let psa = Psa::with_config(GpuSpec::t4(), cfg);
            for wl in sketch_zoo() {
                let arena = arena_of(&wl, 97, 3);
                let progs = arena.programs();
                let legacy: Vec<f64> = progs.iter().map(|p| psa.estimate(p)).collect();
                for threads in [1usize, 2, 4] {
                    let columnar = psa.estimate_arena(&arena, threads);
                    assert_eq!(
                        bits(&columnar),
                        bits(&legacy),
                        "arena estimate diverged for {} at {threads} threads",
                        wl.key()
                    );
                }
            }
        }
    }

    /// The dispatched (AVX2) Eq. 4 accumulator against its scalar body, on
    /// real arena columns of all four sketch kinds.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn reference_columns_are_bit_transparent() {
        if !columns::avx2_available() {
            return;
        }
        let psa = t4_psa();
        let (t_p, t_m) = (psa.spec.peak_gflops * 1e9, psa.spec.dram_gbps * 1e9);
        for wl in sketch_zoo() {
            let arena = arena_of(&wl, 128, 9);
            let pens: Vec<Penalties> =
                arena.programs().iter().map(|p| psa.penalties(&p.stats())).collect();
            let thread: Vec<f64> = pens.iter().map(|p| p.thread).collect();
            let tkw: Vec<f64> = pens.iter().map(|p| t_p * p.kernel * p.warp).collect();
            let mut scalar = vec![0.0; arena.len()];
            for j in 0..arena.n_stmts() {
                let (n_ops, global) = (arena.stmt_n_ops_col(j), arena.stmt_global_col(j));
                let mem_den: Vec<f64> =
                    arena.stmt_innermost_col(j).iter().map(|&l| t_m * psa.mem_penalty(l)).collect();
                columns::stmt_accumulate_body(&mut scalar, n_ops, &thread, &tkw, global, &mem_den);
            }
            assert_eq!(bits(&psa.estimate_arena(&arena, 1)), bits(&scalar), "{}", wl.key());
        }
    }

    #[test]
    fn prune_arena_matches_legacy_prune() {
        let psa = t4_psa();
        let wl = Workload::matmul(1, 512, 512, 512);
        let arena = arena_of(&wl, 300, 5);
        let legacy = psa.prune(arena.programs(), 48);
        for threads in [1usize, 4] {
            let kept = psa.prune_arena(&arena, 48, threads);
            assert_eq!(kept.len(), 48);
            let materialized = arena.gather(&kept).programs();
            assert_eq!(materialized, legacy, "prune diverged at {threads} threads");
        }
    }

    /// Pools bred from a handful of elites in a tiny space are mostly exact
    /// ties, where a top-k selection that forgot the index tie-break would
    /// keep different candidates than the stable sort it replaced.
    #[test]
    fn prune_arena_equals_a_stable_sort_on_tie_heavy_pools() {
        let psa = t4_psa();
        let limits = HardwareLimits::default();
        for wl in [
            Workload::elementwise(pruner_ir::EwKind::Gelu, 1 << 18),
            Workload::reduction(2048, 768),
        ] {
            let ctx = std::sync::Arc::new(pruner_sketch::WorkloadCtx::new(&wl));
            let seeds = evolve::init_arena_par(&ctx, 4, &limits, 2, 0, 1);
            let elites: Vec<_> = (0..seeds.len()).map(|i| seeds.genes(i)).collect();
            let mut arena =
                evolve::next_generation_arena_par(&ctx, &elites, 400, &limits, 2, 1, 1);
            arena.ensure_stats();
            let scores = psa.estimate_arena(&arena, 1);
            let mut oracle: Vec<usize> = (0..arena.len()).collect();
            oracle.sort_by(|&a, &b| scores[a].partial_cmp(&scores[b]).unwrap());
            let distinct: std::collections::HashSet<u64> =
                scores.iter().map(|s| s.to_bits()).collect();
            assert!(distinct.len() * 2 < arena.len(), "pool for {} has too few ties", wl.key());
            let len = arena.len();
            for size in [0, 1, len - 1, len, len + 5] {
                for threads in [1usize, 3] {
                    assert_eq!(
                        psa.prune_arena(&arena, size, threads),
                        oracle[..size.min(len)],
                        "size {size} of {len} for {}",
                        wl.key()
                    );
                }
            }
        }
    }

    #[test]
    fn sample_target_space_size() {
        let psa = t4_psa();
        let mut r = rng();
        let space =
            psa.sample_target_space(&Workload::matmul(1, 256, 256, 256), 512, 64, &mut r);
        assert_eq!(space.len(), 64);
    }

    /// Spearman rank correlation.
    fn spearman(a: &[f64], b: &[f64]) -> f64 {
        fn ranks(v: &[f64]) -> Vec<f64> {
            let mut idx: Vec<usize> = (0..v.len()).collect();
            idx.sort_by(|&i, &j| v[i].partial_cmp(&v[j]).unwrap());
            let mut r = vec![0.0; v.len()];
            for (rank, &i) in idx.iter().enumerate() {
                r[i] = rank as f64;
            }
            r
        }
        let (ra, rb) = (ranks(a), ranks(b));
        let n = a.len() as f64;
        let ma = ra.iter().sum::<f64>() / n;
        let mb = rb.iter().sum::<f64>() / n;
        let cov: f64 = ra.iter().zip(&rb).map(|(x, y)| (x - ma) * (y - mb)).sum();
        let va: f64 = ra.iter().map(|x| (x - ma).powi(2)).sum();
        let vb: f64 = rb.iter().map(|y| (y - mb).powi(2)).sum();
        cov / (va.sqrt() * vb.sqrt()).max(1e-12)
    }
}
