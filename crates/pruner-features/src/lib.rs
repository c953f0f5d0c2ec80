//! Hybrid tensor-program features (paper §2.4, "Feature Representation").
//!
//! Three feature families are extracted from a program's
//! [`pruner_sketch::ProgramStats`]:
//!
//! * **Statement-level features** ([`stmt_features`]) — one
//!   [`STMT_DIM`]-dimensional vector per innermost buffer statement, in the
//!   spirit of Ansor/TensetMLP: per-statement op and traffic counts plus
//!   whole-kernel launch geometry.
//! * **Data-flow features** ([`flow_features`]) — one 23-dimensional vector
//!   ([`FLOW_DIM`]) per step of the multi-tiling data-movement pattern
//!   (global→shared→register→compute→writeback), encoding buffer levels,
//!   moved bytes, allocation sizes, temporal step counts, contiguity and
//!   reuse. Workloads without the multi-tiling pattern get all-zero
//!   features, exactly as the paper prescribes for element-wise operators.
//! * **Schedule-primitive tokens** ([`tlp_tokens`]) — the TLP baseline's
//!   view: one token per scheduling decision (axis splits and annotations),
//!   no low-level statement analysis.
//!
//! All features are compressed with `ln(1+x)` and a fixed scale so they are
//! roughly unit-magnitude, and all extractors emit fixed-length sequences
//! (padded/truncated to [`MAX_STMTS`], [`MAX_FLOW`], [`MAX_TOKENS`]) so
//! batches can be stacked into rectangular tensors.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod arena;

use pruner_sketch::{MemLevel, Program, ProgramStats, Schedule, StmtKind};

pub use arena::{
    features_arena_row, flow_features_arena, stmt_features_arena, tlp_tokens_arena,
};

/// Dimensions of one statement-level feature vector.
pub const STMT_DIM: usize = 32;
/// Maximum statements per program (padded/truncated).
pub const MAX_STMTS: usize = 8;
/// Dimensions of one data-flow feature vector (fixed by the paper: 23).
pub const FLOW_DIM: usize = 23;
/// Maximum data-flow steps per program (padded/truncated).
pub const MAX_FLOW: usize = 8;
/// Dimensions of one TLP schedule-primitive token.
pub const TLP_DIM: usize = 16;
/// Maximum TLP tokens per program (padded/truncated).
pub const MAX_TOKENS: usize = 12;

/// Scale applied after `ln(1+x)` so typical magnitudes land near 1.
const LOG_SCALE: f32 = 1.0 / 10.0;

pub(crate) fn lg(x: f64) -> f32 {
    ((x.max(0.0) + 1.0).ln() as f32) * LOG_SCALE
}

/// Statement-level features: `MAX_STMTS × STMT_DIM`, padded with zeros.
pub fn stmt_features(stats: &ProgramStats) -> Vec<[f32; STMT_DIM]> {
    let mut out = Vec::with_capacity(MAX_STMTS);
    for stmt in stats.stmts.iter().take(MAX_STMTS) {
        let mut f = [0.0f32; STMT_DIM];
        // Statement role one-hot.
        let kind_idx = match stmt.kind {
            StmtKind::GlobalToShared => 0,
            StmtKind::SharedToRegister => 1,
            StmtKind::Compute => 2,
            StmtKind::WriteBack => 3,
            StmtKind::GlobalLoad => 4,
        };
        f[kind_idx] = 1.0;
        // Destination level one-hot.
        f[5 + level_idx(stmt.dst_level)] = 1.0;
        // Per-statement magnitudes.
        f[8] = lg(stmt.n_ops);
        f[9] = lg(stmt.global_bytes);
        f[10] = lg(stmt.shared_bytes);
        f[11] = lg(stmt.innermost_len as f64);
        f[12] = (stmt.innermost_len % 32) as f32 / 32.0; // transaction phase
        // Whole-kernel launch geometry (repeated per statement so a
        // statement-wise encoder sees it, mirroring Ansor's features).
        f[13] = lg(stats.threads_per_block as f64);
        f[14] = lg(stats.num_blocks as f64);
        f[15] = lg(stats.vthreads as f64);
        f[16] = lg(stats.regs_per_thread as f64);
        f[17] = lg(stats.shared_bytes_per_block as f64);
        f[18] = lg(stats.flops_total);
        f[19] = lg(stats.global_bytes);
        f[20] = lg(stats.shared_traffic_bytes);
        f[21] = lg(stats.arithmetic_intensity().min(1e6));
        f[22] = (stats.padding_waste as f32 - 1.0).min(1.0);
        f[23] = lg(stats.unroll as f64);
        f[24] = stats.vectorize as f32 / 4.0;
        f[25] = lg(stats.per_thread_flops);
        f[26] = lg(stats.per_thread_reg_accesses);
        f[27] = (stats.threads_per_block % 32) as f32 / 32.0; // warp phase
        f[28] = lg(stats.warps_per_block(32) as f64);
        f[29] = lg((stats.num_blocks * stats.threads_per_block) as f64);
        f[30] = if stmt.global_bytes > 0.0 {
            (stmt.global_bytes / stats.global_bytes.max(1.0)) as f32
        } else {
            0.0
        };
        f[31] = if stats.flops_total > 0.0 {
            (stmt.n_ops / stats.flops_total) as f32
        } else {
            0.0
        };
        out.push(f);
    }
    while out.len() < MAX_STMTS {
        out.push([0.0; STMT_DIM]);
    }
    out
}

pub(crate) fn level_idx(level: MemLevel) -> usize {
    match level {
        MemLevel::Global => 0,
        MemLevel::Shared => 1,
        MemLevel::Register => 2,
    }
}

/// Data-flow features: `MAX_FLOW × FLOW_DIM`, all-zero when the workload
/// has no multi-tiling pattern.
pub fn flow_features(stats: &ProgramStats) -> Vec<[f32; FLOW_DIM]> {
    let mut out = Vec::with_capacity(MAX_FLOW);
    for step in stats.dataflow.iter().take(MAX_FLOW) {
        let mut f = [0.0f32; FLOW_DIM];
        f[level_idx(step.src)] = 1.0;
        f[3 + level_idx(step.dst)] = 1.0;
        f[6] = lg(step.bytes);
        f[7] = lg(step.alloc_bytes);
        f[8] = lg(step.steps);
        f[9] = lg(step.contig as f64);
        f[10] = (step.contig % 32) as f32 / 32.0;
        f[11] = lg(step.threads as f64);
        f[12] = lg(step.reuse.min(1e6));
        f[13] = step.vec as f32 / 4.0;
        f[14] = lg(step.ops);
        f[15] = if step.bytes > 0.0 { (step.alloc_bytes / step.bytes) as f32 } else { 0.0 };
        f[16] = lg(step.bytes / step.steps.max(1.0)); // bytes per staging round
        f[17] = lg(stats.threads_per_block as f64);
        f[18] = lg(stats.num_blocks as f64);
        f[19] = lg(stats.shared_bytes_per_block as f64);
        f[20] = lg(stats.regs_per_thread as f64);
        f[21] = stats.vectorize as f32 / 4.0;
        f[22] = lg(stats.unroll as f64);
        out.push(f);
    }
    while out.len() < MAX_FLOW {
        out.push([0.0; FLOW_DIM]);
    }
    out
}

/// TLP-style schedule-primitive tokens: one per scheduling decision.
///
/// Multi-tile schedules emit one token per spatial split, one per reduction
/// split and one for the annotation pair; the simple sketches emit a single
/// token. No statement-level analysis is used — that is the point of the
/// TLP baseline.
pub fn tlp_tokens(prog: &Program) -> Vec<[f32; TLP_DIM]> {
    let mut out: Vec<[f32; TLP_DIM]> = Vec::with_capacity(MAX_TOKENS);
    match &prog.schedule {
        Schedule::MultiTile(t) => {
            for (pos, s) in t.spatial.iter().enumerate() {
                let mut f = [0.0f32; TLP_DIM];
                f[0] = 1.0; // split-spatial primitive
                f[3] = pos as f32 / MAX_TOKENS as f32;
                for (i, &v) in s.iter().enumerate() {
                    f[4 + i] = lg(v as f64) * 4.0;
                }
                out.push(f);
            }
            for (pos, r) in t.reduce.iter().enumerate() {
                let mut f = [0.0f32; TLP_DIM];
                f[1] = 1.0; // split-reduce primitive
                f[3] = pos as f32 / MAX_TOKENS as f32;
                for (i, &v) in r.iter().enumerate() {
                    f[4 + i] = lg(v as f64) * 4.0;
                }
                out.push(f);
            }
            let mut f = [0.0f32; TLP_DIM];
            f[2] = 1.0; // annotation primitive
            f[4] = lg(t.unroll as f64) * 4.0;
            f[5] = t.vectorize as f32 / 4.0;
            out.push(f);
        }
        Schedule::Simple(c) => {
            let mut f = [0.0f32; TLP_DIM];
            f[2] = 1.0;
            f[4] = lg(c.threads as f64) * 4.0;
            f[5] = lg(c.serial as f64) * 4.0;
            f[6] = c.vectorize as f32 / 4.0;
            out.push(f);
        }
        Schedule::RowReduce(c) => {
            let mut f = [0.0f32; TLP_DIM];
            f[2] = 1.0;
            f[4] = lg(c.rows_per_block as f64) * 4.0;
            f[5] = lg(c.reduce_threads as f64) * 4.0;
            f[6] = lg(c.serial as f64) * 4.0;
            out.push(f);
        }
    }
    // Append a global-workload token so shape information is available.
    out.push(workload_token(&prog.workload));

    out.truncate(MAX_TOKENS);
    while out.len() < MAX_TOKENS {
        out.push([0.0; TLP_DIM]);
    }
    out
}

/// The global-workload TLP token: pure shape information, independent of
/// the schedule, so batch extractors compute it once per workload.
pub(crate) fn workload_token(workload: &pruner_ir::Workload) -> [f32; TLP_DIM] {
    let mut f = [0.0f32; TLP_DIM];
    f[9] = 1.0;
    f[10] = lg(workload.flops()) * 2.0;
    f[11] = lg(workload.output_elems() as f64) * 2.0;
    f[12] = workload.num_operands() as f32 / 4.0;
    f[13] = lg(workload.reduce_extents().iter().product::<u64>() as f64) * 2.0;
    f[14] = lg(workload.spatial_extents().iter().copied().max().unwrap_or(1) as f64) * 2.0;
    f[15] = match workload.class() {
        pruner_ir::OperatorClass::MatMul => 0.25,
        pruner_ir::OperatorClass::Conv => 0.5,
        pruner_ir::OperatorClass::DwConv => 0.75,
        pruner_ir::OperatorClass::EwRed => 1.0,
    };
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use pruner_ir::{EwKind, Workload};
    use pruner_sketch::HardwareLimits;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn sample(wl: &Workload, seed: u64) -> Program {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Program::sample(wl, &HardwareLimits::default(), &mut rng)
    }

    #[test]
    fn stmt_features_fixed_shape() {
        let p = sample(&Workload::matmul(1, 256, 256, 256), 1);
        let f = stmt_features(&p.stats());
        assert_eq!(f.len(), MAX_STMTS);
    }

    #[test]
    fn flow_features_zero_for_elementwise() {
        let p = sample(&Workload::elementwise(EwKind::Relu, 1 << 16), 2);
        let f = flow_features(&p.stats());
        assert_eq!(f.len(), MAX_FLOW);
        assert!(f.iter().all(|v| v.iter().all(|&x| x == 0.0)));
    }

    #[test]
    fn flow_features_nonzero_for_matmul() {
        let p = sample(&Workload::matmul(1, 256, 256, 256), 3);
        let f = flow_features(&p.stats());
        let nonzero = f.iter().filter(|v| v.iter().any(|&x| x != 0.0)).count();
        assert!(nonzero >= 5, "matmul should produce ≥5 real steps, got {nonzero}");
    }

    #[test]
    fn flow_dim_is_23_per_paper() {
        assert_eq!(FLOW_DIM, 23);
    }

    #[test]
    fn features_distinguish_schedules() {
        let wl = Workload::matmul(1, 512, 512, 512);
        let a = stmt_features(&sample(&wl, 10).stats());
        let b = stmt_features(&sample(&wl, 11).stats());
        assert_ne!(a, b, "different schedules must yield different features");
    }

    #[test]
    fn features_are_bounded() {
        for seed in 0..20 {
            let p = sample(&Workload::conv2d(1, 64, 56, 56, 64, 3, 1, 1), seed);
            let stats = p.stats();
            for f in stmt_features(&stats) {
                assert!(f.iter().all(|v| v.is_finite() && v.abs() < 20.0));
            }
            for f in flow_features(&stats) {
                assert!(f.iter().all(|v| v.is_finite() && v.abs() < 20.0));
            }
        }
    }

    #[test]
    fn tlp_tokens_fixed_shape_and_informative() {
        let p = sample(&Workload::matmul(1, 512, 512, 512), 4);
        let t = tlp_tokens(&p);
        assert_eq!(t.len(), MAX_TOKENS);
        // 2 spatial + 1 reduce + 1 annot + 1 workload = 5 real tokens.
        let real = t.iter().filter(|v| v.iter().any(|&x| x != 0.0)).count();
        assert_eq!(real, 5);
    }

    #[test]
    fn tlp_tokens_differ_between_schedules() {
        let wl = Workload::matmul(1, 512, 512, 512);
        assert_ne!(tlp_tokens(&sample(&wl, 20)), tlp_tokens(&sample(&wl, 21)));
    }

    #[test]
    fn tlp_tokens_for_simple_and_reduce() {
        for wl in
            [Workload::elementwise(EwKind::Gelu, 1 << 18), Workload::reduction(1024, 768)]
        {
            let t = tlp_tokens(&sample(&wl, 5));
            assert_eq!(t.len(), MAX_TOKENS);
            assert!(t[0].iter().any(|&x| x != 0.0));
        }
    }

    fn feature_zoo() -> Vec<Workload> {
        vec![
            Workload::matmul(1, 512, 512, 512),
            Workload::conv2d(1, 64, 56, 56, 64, 3, 1, 1),
            Workload::elementwise(EwKind::Gelu, 1 << 18),
            Workload::reduction(2048, 768),
        ]
    }

    fn arena_of(wl: &Workload, n: usize, seed: u64) -> pruner_sketch::CandidateArena {
        let ctx = std::sync::Arc::new(pruner_sketch::WorkloadCtx::new(wl));
        let mut a =
            pruner_sketch::evolve::init_arena_par(&ctx, n, &HardwareLimits::default(), seed, 0, 1);
        a.ensure_stats();
        a
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn arena_stacks_match_legacy_bitwise() {
        for wl in feature_zoo() {
            let arena = arena_of(&wl, 61, 5);
            let progs = arena.programs();
            let mut legacy_stmt = Vec::new();
            let mut legacy_flow = Vec::new();
            let mut legacy_tok = Vec::new();
            for p in &progs {
                let stats = p.stats();
                legacy_stmt.extend(stmt_features(&stats).into_iter().flatten());
                legacy_flow.extend(flow_features(&stats).into_iter().flatten());
                legacy_tok.extend(tlp_tokens(p).into_iter().flatten());
            }
            for threads in [1usize, 2, 3, 4] {
                assert_eq!(
                    bits(&stmt_features_arena(&arena, threads)),
                    bits(&legacy_stmt),
                    "stmt stack diverged for {} at {threads} threads",
                    wl.key()
                );
                assert_eq!(
                    bits(&flow_features_arena(&arena, threads)),
                    bits(&legacy_flow),
                    "flow stack diverged for {} at {threads} threads",
                    wl.key()
                );
                assert_eq!(
                    bits(&tlp_tokens_arena(&arena, threads)),
                    bits(&legacy_tok),
                    "tlp stack diverged for {} at {threads} threads",
                    wl.key()
                );
            }
        }
    }

    #[test]
    fn arena_row_matches_stack_slice() {
        let wl = Workload::matmul(1, 256, 256, 256);
        let arena = arena_of(&wl, 17, 9);
        let stmt = stmt_features_arena(&arena, 1);
        let flow = flow_features_arena(&arena, 1);
        let tok = tlp_tokens_arena(&arena, 1);
        for i in [0usize, 7, 16] {
            let (s, f, t) = features_arena_row(&arena, i);
            let sw = MAX_STMTS * STMT_DIM;
            let fw = MAX_FLOW * FLOW_DIM;
            let tw = MAX_TOKENS * TLP_DIM;
            assert_eq!(bits(&s), bits(&stmt[i * sw..(i + 1) * sw]));
            assert_eq!(bits(&f), bits(&flow[i * fw..(i + 1) * fw]));
            assert_eq!(bits(&t), bits(&tok[i * tw..(i + 1) * tw]));
        }
    }

    /// The dispatched (AVX2) band fillers against their scalar bodies, on
    /// real arena columns of all four sketch kinds.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn reference_features_are_bit_transparent() {
        if !arena::avx2_available() {
            return;
        }
        for wl in feature_zoo() {
            let arena = arena_of(&wl, 48, 11);
            let mut scalar = vec![0.0f32; arena.len() * MAX_STMTS * STMT_DIM];
            arena::stmt_band_body(&arena, 0, &mut scalar);
            assert_eq!(bits(&stmt_features_arena(&arena, 1)), bits(&scalar), "{}", wl.key());
            let mut scalar = vec![0.0f32; arena.len() * MAX_FLOW * FLOW_DIM];
            arena::flow_band_body(&arena, 0, &mut scalar);
            assert_eq!(bits(&flow_features_arena(&arena, 1)), bits(&scalar), "{}", wl.key());
            let mut scalar = vec![0.0f32; arena.len() * MAX_TOKENS * TLP_DIM];
            arena::tlp_band_body(&arena, 0, &workload_token(&wl), &mut scalar);
            assert_eq!(bits(&tlp_tokens_arena(&arena, 1)), bits(&scalar), "{}", wl.key());
        }
    }
}
