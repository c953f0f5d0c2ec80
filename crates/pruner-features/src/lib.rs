//! Hybrid tensor-program features (paper §2.4, "Feature Representation").
//!
//! Three feature families describe one candidate:
//!
//! * **Statement-level features** — one [`STMT_DIM`]-dimensional vector per
//!   innermost buffer statement, in the spirit of Ansor/TensetMLP:
//!   per-statement op and traffic counts plus whole-kernel launch geometry.
//! * **Data-flow features** — one [`FLOW_DIM`]-dimensional (23) vector per
//!   step of the multi-tiling data-movement pattern
//!   (global→shared→register→compute→writeback): buffer levels, moved
//!   bytes, allocation sizes, temporal step counts, contiguity and reuse.
//!   Workloads without the multi-tiling pattern get all-zero features,
//!   exactly as the paper prescribes for element-wise operators.
//! * **Schedule-primitive tokens** — the TLP baseline's view: one
//!   [`TLP_DIM`]-dimensional token per scheduling decision (axis splits and
//!   annotations) plus one for the workload shape, no statement analysis.
//!
//! Each family is written once, from one fixed-size view of a candidate:
//! its [`StatsRow`], [`FlowRow`] and [`GeneBuf`] plus its statements' kinds
//! and destinations, all read through the candidate's [`WorkloadCtx`].
//! [`program_features`] derives the stats row from a materialized
//! program's genes, [`features_arena_row`] reads it from an arena row.
//! Magnitudes are compressed with `ln(1+x)` and a fixed scale, and every
//! block is padded to [`MAX_STMTS`], [`MAX_FLOW`] and [`MAX_TOKENS`]
//! rows so batches stack into rectangular tensors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use pruner_ir::{OperatorClass, Workload};
use pruner_sketch::{
    CandidateArena, FlowRow, GeneBuf, MemLevel, Program, SketchKind, StatsRow, StmtKind,
    WorkloadCtx,
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

/// One candidate's flattened `(stmt, flow, tokens)` blocks:
/// `MAX_STMTS × STMT_DIM`, `MAX_FLOW × FLOW_DIM` and `MAX_TOKENS × TLP_DIM`.
pub type Features = (Vec<f32>, Vec<f32>, Vec<f32>);

/// Scale applied after `ln(1+x)` so typical magnitudes land near 1.
const LOG_SCALE: f32 = 1.0 / 10.0;

fn lg(x: f64) -> f32 {
    ((x.max(0.0) + 1.0).ln() as f32) * LOG_SCALE
}

fn level_idx(level: MemLevel) -> usize {
    match level {
        MemLevel::Global => 0,
        MemLevel::Shared => 1,
        MemLevel::Register => 2,
    }
}

/// Everything the three writers read about one candidate.
struct View<'a> {
    workload: &'a Workload,
    kind: SketchKind,
    genes: GeneBuf,
    stats: StatsRow,
    /// Kind and destination level of each of the `stats.n_stmts` statements.
    stmts: [(StmtKind, MemLevel); MAX_STMTS],
    flow: FlowRow,
}

impl<'a> View<'a> {
    /// The view of `genes` with statistics `stats` under `ctx`: its
    /// data-flow row and statement slots come from the context.
    fn new(ctx: &'a WorkloadCtx, genes: GeneBuf, stats: StatsRow) -> View<'a> {
        let mut v = View {
            workload: ctx.workload(),
            kind: ctx.kind(),
            genes,
            stats,
            stmts: [(StmtKind::Compute, MemLevel::Global); MAX_STMTS],
            flow: FlowRow::default(),
        };
        ctx.flow_row(&v.genes, &mut v.flow);
        for (j, st) in v.stmts.iter_mut().enumerate().take(ctx.n_stmts()) {
            *st = (ctx.stmt_kind(j), ctx.stmt_dst(j));
        }
        v
    }

    fn features(&self) -> Features {
        let mut stmt = vec![0.0; MAX_STMTS * STMT_DIM];
        let mut flow = vec![0.0; MAX_FLOW * FLOW_DIM];
        let mut tokens = vec![0.0; MAX_TOKENS * TLP_DIM];
        write_stmt(self, &mut stmt);
        write_flow(self, &mut flow);
        write_tokens(self, &mut tokens);
        (stmt, flow, tokens)
    }
}

/// Features of a materialized program — the same bits as
/// [`features_arena_row`] of the same candidate.
///
/// # Panics
/// Panics where [`Program::genes`] does (a malformed schedule).
pub fn program_features(prog: &Program) -> Features {
    let (ctx, genes) = prog.genes();
    let mut stats = StatsRow::default();
    ctx.compute_row(&genes, &mut stats);
    View::new(&ctx, genes, stats).features()
}

/// Features of arena candidate `i`, read from its stats row, data-flow row
/// and genes without materializing a [`Program`].
///
/// # Panics
/// Panics if `i` is out of range or the arena has raw (stats-deferred)
/// candidates — call [`CandidateArena::ensure_stats`] after generation and
/// dedup.
pub fn features_arena_row(arena: &CandidateArena, i: usize) -> Features {
    assert!(arena.has_stats(), "features_arena_row needs stats: call ensure_stats() first");
    let mut stats = StatsRow::default();
    arena.stats_row(i, &mut stats);
    View::new(arena.ctx(), arena.genes(i), stats).features()
}

/// Statement-level features: one row per statement, zero-padded.
fn write_stmt(v: &View, out: &mut [f32]) {
    let s = &v.stats;
    let ai = if s.global_bytes > 0.0 { s.flops_total / s.global_bytes } else { f64::INFINITY };
    // Whole-kernel launch geometry (features 13..30), repeated per
    // statement so a statement-wise encoder sees it, mirroring Ansor's
    // features.
    let geom: [f32; 17] = [
        lg(s.threads_per_block as f64),
        lg(s.num_blocks as f64),
        lg(s.vthreads as f64),
        lg(s.regs_per_thread as f64),
        lg(s.shared_bytes_per_block as f64),
        lg(s.flops_total),
        lg(s.global_bytes),
        lg(s.shared_traffic_bytes),
        lg(ai.min(1e6)),
        (s.padding_waste as f32 - 1.0).min(1.0),
        lg(s.unroll as f64),
        s.vectorize as f32 / 4.0,
        lg(s.per_thread_flops),
        lg(s.per_thread_reg_accesses),
        (s.threads_per_block % 32) as f32 / 32.0, // warp phase
        lg(s.threads_per_block.div_ceil(32) as f64),
        lg((s.num_blocks * s.threads_per_block) as f64),
    ];
    for ((f, &(kind, dst)), j) in out.chunks_exact_mut(STMT_DIM).zip(&v.stmts).zip(0..s.n_stmts) {
        let kind_idx = match kind {
            StmtKind::GlobalToShared => 0,
            StmtKind::SharedToRegister => 1,
            StmtKind::Compute => 2,
            StmtKind::WriteBack => 3,
            StmtKind::GlobalLoad => 4,
        };
        f[kind_idx] = 1.0;
        f[5 + level_idx(dst)] = 1.0;
        let (n_ops, global, inner) = (s.stmt_n_ops[j], s.stmt_global[j], s.stmt_innermost[j]);
        f[8] = lg(n_ops);
        f[9] = lg(global);
        f[10] = lg(s.stmt_shared[j]);
        f[11] = lg(inner as f64);
        f[12] = (inner % 32) as f32 / 32.0; // transaction phase
        f[13..30].copy_from_slice(&geom);
        f[30] = if global > 0.0 { (global / s.global_bytes.max(1.0)) as f32 } else { 0.0 };
        f[31] = if s.flops_total > 0.0 { (n_ops / s.flops_total) as f32 } else { 0.0 };
    }
}

/// Data-flow features: one row per data-movement step, zero-padded (all
/// zero without the multi-tiling pattern).
fn write_flow(v: &View, out: &mut [f32]) {
    let (s, r) = (&v.stats, &v.flow);
    let geom: [f32; 6] = [
        lg(s.threads_per_block as f64),
        lg(s.num_blocks as f64),
        lg(s.shared_bytes_per_block as f64),
        lg(s.regs_per_thread as f64),
        s.vectorize as f32 / 4.0,
        lg(s.unroll as f64),
    ];
    for (f, k) in out.chunks_exact_mut(FLOW_DIM).zip(0..r.n) {
        f[level_idx(r.src[k])] = 1.0;
        f[3 + level_idx(r.dst[k])] = 1.0;
        f[6] = lg(r.bytes[k]);
        f[7] = lg(r.alloc_bytes[k]);
        f[8] = lg(r.steps[k]);
        f[9] = lg(r.contig[k] as f64);
        f[10] = (r.contig[k] % 32) as f32 / 32.0;
        f[11] = lg(r.threads[k] as f64);
        f[12] = lg(r.reuse[k].min(1e6));
        f[13] = r.vec[k] as f32 / 4.0;
        f[14] = lg(r.ops[k]);
        f[15] = if r.bytes[k] > 0.0 { (r.alloc_bytes[k] / r.bytes[k]) as f32 } else { 0.0 };
        f[16] = lg(r.bytes[k] / r.steps[k].max(1.0)); // bytes per staging round
        f[17..23].copy_from_slice(&geom);
    }
}

/// TLP schedule-primitive tokens, zero-padded. Multi-tile schedules emit
/// one token per spatial split, one per reduction split and one for the
/// annotation pair; the simple sketches emit a single token. A last token
/// carries the workload's shape.
fn write_tokens(v: &View, out: &mut [f32]) {
    let mut tokens = out.chunks_exact_mut(TLP_DIM);
    let (g, wl) = (&v.genes, v.workload);
    let (spatial, reduce) = (wl.spatial_extents(), wl.reduce_extents());
    match v.kind {
        SketchKind::MultiTile => {
            for (pos, s) in g.spatial[..spatial.len()].iter().enumerate() {
                let f = tokens.next().expect("token slot");
                f[0] = 1.0; // split-spatial primitive
                f[3] = pos as f32 / MAX_TOKENS as f32;
                for (i, &x) in s.iter().enumerate() {
                    f[4 + i] = lg(x as f64) * 4.0;
                }
            }
            for (pos, r) in g.reduce[..reduce.len()].iter().enumerate() {
                let f = tokens.next().expect("token slot");
                f[1] = 1.0; // split-reduce primitive
                f[3] = pos as f32 / MAX_TOKENS as f32;
                for (i, &x) in r.iter().enumerate() {
                    f[4 + i] = lg(x as f64) * 4.0;
                }
            }
            let f = tokens.next().expect("token slot");
            f[2] = 1.0; // annotation primitive
            f[4] = lg(g.a0 as f64) * 4.0; // unroll
            f[5] = g.a1 as f32 / 4.0; // vectorize
        }
        SketchKind::Simple => {
            let f = tokens.next().expect("token slot");
            f[2] = 1.0;
            f[4] = lg(g.a0 as f64) * 4.0; // threads
            f[5] = lg(g.a1 as f64) * 4.0; // serial
            f[6] = g.a2 as f32 / 4.0; // vectorize
        }
        SketchKind::RowReduce => {
            let f = tokens.next().expect("token slot");
            f[2] = 1.0;
            f[4] = lg(g.a0 as f64) * 4.0; // rows per block
            f[5] = lg(g.a1 as f64) * 4.0; // reduce threads
            f[6] = lg(g.a2 as f64) * 4.0; // serial
        }
    }
    let f = tokens.next().expect("token slot");
    f[9] = 1.0;
    f[10] = lg(wl.flops()) * 2.0;
    f[11] = lg(wl.output_elems() as f64) * 2.0;
    f[12] = wl.num_operands() as f32 / 4.0;
    f[13] = lg(reduce.iter().product::<u64>() as f64) * 2.0;
    f[14] = lg(spatial.iter().copied().max().unwrap_or(1) as f64) * 2.0;
    f[15] = match wl.class() {
        OperatorClass::MatMul => 0.25,
        OperatorClass::Conv => 0.5,
        OperatorClass::DwConv => 0.75,
        OperatorClass::EwRed => 1.0,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use pruner_ir::EwKind;
    use pruner_sketch::HardwareLimits;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn sample(wl: &Workload, seed: u64) -> Program {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Program::sample(wl, &HardwareLimits::default(), &mut rng)
    }

    /// Nonzero rows of a flattened `rows × dim` block.
    fn real_rows(block: &[f32], dim: usize) -> usize {
        block.chunks(dim).filter(|v| v.iter().any(|&x| x != 0.0)).count()
    }

    #[test]
    fn stmt_features_fixed_shape() {
        let p = sample(&Workload::matmul(1, 256, 256, 256), 1);
        let (stmt, flow, tokens) = program_features(&p);
        assert_eq!(stmt.len(), MAX_STMTS * STMT_DIM);
        assert_eq!(flow.len(), MAX_FLOW * FLOW_DIM);
        assert_eq!(tokens.len(), MAX_TOKENS * TLP_DIM);
        // 2×G2S + 2×S2R + compute + writeback, then padding.
        assert_eq!(real_rows(&stmt, STMT_DIM), 6);
    }

    #[test]
    fn flow_features_zero_for_elementwise() {
        let p = sample(&Workload::elementwise(EwKind::Relu, 1 << 16), 2);
        let flow = program_features(&p).1;
        assert!(flow.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn flow_features_nonzero_for_matmul() {
        let (_, flow, _) = program_features(&sample(&Workload::matmul(1, 256, 256, 256), 3));
        let nonzero = real_rows(&flow, FLOW_DIM);
        assert!(nonzero >= 5, "matmul should produce ≥5 real steps, got {nonzero}");
    }

    #[test]
    fn flow_dim_is_23_per_paper() {
        assert_eq!(FLOW_DIM, 23);
    }

    #[test]
    fn features_distinguish_schedules() {
        let wl = Workload::matmul(1, 512, 512, 512);
        let a = program_features(&sample(&wl, 10)).0;
        let b = program_features(&sample(&wl, 11)).0;
        assert_ne!(a, b, "different schedules must yield different features");
    }

    #[test]
    fn features_are_bounded() {
        for seed in 0..20 {
            let (stmt, flow, tokens) =
                program_features(&sample(&Workload::conv2d(1, 64, 56, 56, 64, 3, 1, 1), seed));
            for v in stmt.iter().chain(&flow).chain(&tokens) {
                assert!(v.is_finite() && v.abs() < 20.0);
            }
        }
    }

    #[test]
    fn tlp_tokens_fixed_shape_and_informative() {
        let tokens = program_features(&sample(&Workload::matmul(1, 512, 512, 512), 4)).2;
        // 2 spatial + 1 reduce + 1 annot + 1 workload = 5 real tokens.
        assert_eq!(real_rows(&tokens, TLP_DIM), 5);
    }

    #[test]
    fn tlp_tokens_differ_between_schedules() {
        let wl = Workload::matmul(1, 512, 512, 512);
        assert_ne!(program_features(&sample(&wl, 20)).2, program_features(&sample(&wl, 21)).2);
    }

    #[test]
    fn tlp_tokens_for_simple_and_reduce() {
        for wl in
            [Workload::elementwise(EwKind::Gelu, 1 << 18), Workload::reduction(1024, 768)]
        {
            let tokens = program_features(&sample(&wl, 5)).2;
            // One schedule token, then the workload token.
            assert_eq!(real_rows(&tokens, TLP_DIM), 2);
            assert!(tokens[..TLP_DIM].iter().any(|&x| x != 0.0));
        }
    }
}
