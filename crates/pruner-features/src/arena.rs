//! Columnar feature stacks over a [`CandidateArena`].
//!
//! Each extractor here mirrors its legacy counterpart in `lib.rs` value for
//! value, reading the arena's stat columns instead of a materialized
//! [`pruner_sketch::ProgramStats`]. Two structural optimizations keep the
//! results bit-identical while cutting the work per candidate:
//!
//! * The whole-kernel launch-geometry block (features 13..30 of every
//!   statement row, 17..23 of every flow row) is computed **once per
//!   candidate** and copied into each statement slot — the legacy extractor
//!   recomputes the same `ln(1+x)` calls per statement.
//! * The per-workload TLP token is computed **once per stack** — it depends
//!   only on the workload, never on the candidate.
//!
//! The band fillers are dispatched through
//! `#[target_feature(enable = "avx2")]` clones of the same Rust bodies
//! (the `pruner-nn::gemm` pattern): the clone only widens what the compiler
//! can vectorize (one-hots, phases, ratios — the `ln` calls stay scalar
//! libm calls), so results are bit-identical to the scalar build; the tests
//! hold each dispatched filler against its scalar `*_body` and against the
//! per-program extractors.

use crate::{
    level_idx, lg, workload_token, FLOW_DIM, MAX_FLOW, MAX_STMTS, MAX_TOKENS, STMT_DIM, TLP_DIM,
};
use pruner_par::fan_out_mut;
use pruner_sketch::{CandidateArena, FlowRow, SketchKind, StmtKind};

/// Statement features of candidates `start..start + n` into `out`
/// (`n · MAX_STMTS · STMT_DIM` floats). `inline(always)` so the AVX2 shell
/// compiles this body at full width.
#[inline(always)]
pub(crate) fn stmt_band_body(arena: &CandidateArena, start: usize, out: &mut [f32]) {
    const W: usize = MAX_STMTS * STMT_DIM;
    let n = out.len() / W;
    out.fill(0.0);
    let ctx = arena.ctx();
    let n_stmts = arena.n_stmts().min(MAX_STMTS);
    let threads = arena.threads_col();
    let num_blocks = arena.num_blocks_col();
    let vthreads = arena.vthreads_col();
    let regs = arena.regs_col();
    let shared = arena.shared_bytes_col();
    let flops = arena.flops_total_col();
    let global = arena.global_bytes_col();
    let straffic = arena.shared_traffic_col();
    let waste = arena.padding_waste_col();
    let unroll = arena.unroll_col();
    let vectorize = arena.vectorize_col();
    let ptf = arena.per_thread_flops_col();
    let ptra = arena.per_thread_reg_accesses_col();
    for k in 0..n {
        let i = start + k;
        // Launch geometry (features 13..30): identical for every statement
        // of one candidate, so compute the block once and copy it per slot.
        let ai =
            if global[i] > 0.0 { flops[i] / global[i] } else { f64::INFINITY };
        let geom: [f32; 17] = [
            lg(threads[i] as f64),
            lg(num_blocks[i] as f64),
            lg(vthreads[i] as f64),
            lg(regs[i] as f64),
            lg(shared[i] as f64),
            lg(flops[i]),
            lg(global[i]),
            lg(straffic[i]),
            lg(ai.min(1e6)),
            (waste[i] as f32 - 1.0).min(1.0),
            lg(unroll[i] as f64),
            vectorize[i] as f32 / 4.0,
            lg(ptf[i]),
            lg(ptra[i]),
            (threads[i] % 32) as f32 / 32.0,
            lg(threads[i].div_ceil(32) as f64),
            lg((num_blocks[i] * threads[i]) as f64),
        ];
        for j in 0..n_stmts {
            let f = &mut out[k * W + j * STMT_DIM..k * W + (j + 1) * STMT_DIM];
            let kind_idx = match ctx.stmt_kind(j) {
                StmtKind::GlobalToShared => 0,
                StmtKind::SharedToRegister => 1,
                StmtKind::Compute => 2,
                StmtKind::WriteBack => 3,
                StmtKind::GlobalLoad => 4,
            };
            f[kind_idx] = 1.0;
            f[5 + level_idx(ctx.stmt_dst(j))] = 1.0;
            let n_ops = arena.stmt_n_ops_col(j)[i];
            let g = arena.stmt_global_col(j)[i];
            f[8] = lg(n_ops);
            f[9] = lg(g);
            f[10] = lg(arena.stmt_shared_col(j)[i]);
            let inner = arena.stmt_innermost_col(j)[i];
            f[11] = lg(inner as f64);
            f[12] = (inner % 32) as f32 / 32.0;
            f[13..30].copy_from_slice(&geom);
            f[30] = if g > 0.0 { (g / global[i].max(1.0)) as f32 } else { 0.0 };
            f[31] = if flops[i] > 0.0 { (n_ops / flops[i]) as f32 } else { 0.0 };
        }
    }
}

/// Data-flow features of candidates `start..start + n` into `out`
/// (`n · MAX_FLOW · FLOW_DIM` floats).
#[inline(always)]
pub(crate) fn flow_band_body(arena: &CandidateArena, start: usize, out: &mut [f32]) {
    const W: usize = MAX_FLOW * FLOW_DIM;
    let n = out.len() / W;
    out.fill(0.0);
    let threads = arena.threads_col();
    let num_blocks = arena.num_blocks_col();
    let shared = arena.shared_bytes_col();
    let regs = arena.regs_col();
    let unroll = arena.unroll_col();
    let vectorize = arena.vectorize_col();
    let mut row = FlowRow::default();
    for k in 0..n {
        let i = start + k;
        arena.flow_row(i, &mut row);
        if row.n == 0 {
            continue;
        }
        let geom: [f32; 6] = [
            lg(threads[i] as f64),
            lg(num_blocks[i] as f64),
            lg(shared[i] as f64),
            lg(regs[i] as f64),
            vectorize[i] as f32 / 4.0,
            lg(unroll[i] as f64),
        ];
        for s in 0..row.n.min(MAX_FLOW) {
            let f = &mut out[k * W + s * FLOW_DIM..k * W + (s + 1) * FLOW_DIM];
            f[level_idx(row.src[s])] = 1.0;
            f[3 + level_idx(row.dst[s])] = 1.0;
            f[6] = lg(row.bytes[s]);
            f[7] = lg(row.alloc_bytes[s]);
            f[8] = lg(row.steps[s]);
            f[9] = lg(row.contig[s] as f64);
            f[10] = (row.contig[s] % 32) as f32 / 32.0;
            f[11] = lg(row.threads[s] as f64);
            f[12] = lg(row.reuse[s].min(1e6));
            f[13] = row.vec[s] as f32 / 4.0;
            f[14] = lg(row.ops[s]);
            f[15] = if row.bytes[s] > 0.0 {
                (row.alloc_bytes[s] / row.bytes[s]) as f32
            } else {
                0.0
            };
            f[16] = lg(row.bytes[s] / row.steps[s].max(1.0));
            f[17..23].copy_from_slice(&geom);
        }
    }
}

/// TLP tokens of candidates `start..start + n` into `out`
/// (`n · MAX_TOKENS · TLP_DIM` floats). `wl_token` is the per-workload
/// token, computed once by the caller.
#[inline(always)]
pub(crate) fn tlp_band_body(
    arena: &CandidateArena,
    start: usize,
    wl_token: &[f32; TLP_DIM],
    out: &mut [f32],
) {
    const W: usize = MAX_TOKENS * TLP_DIM;
    let n = out.len() / W;
    out.fill(0.0);
    let ctx = arena.ctx();
    for k in 0..n {
        let genes = arena.genes(start + k);
        let row = &mut out[k * W..(k + 1) * W];
        let mut tok = 0usize;
        match ctx.kind() {
            SketchKind::MultiTile => {
                for (pos, s) in genes.spatial.iter().take(ctx.n_spatial()).enumerate() {
                    let f = &mut row[tok * TLP_DIM..(tok + 1) * TLP_DIM];
                    f[0] = 1.0;
                    f[3] = pos as f32 / MAX_TOKENS as f32;
                    for (i, &v) in s.iter().enumerate() {
                        f[4 + i] = lg(v as f64) * 4.0;
                    }
                    tok += 1;
                }
                for (pos, r) in genes.reduce.iter().take(ctx.n_reduce()).enumerate() {
                    let f = &mut row[tok * TLP_DIM..(tok + 1) * TLP_DIM];
                    f[1] = 1.0;
                    f[3] = pos as f32 / MAX_TOKENS as f32;
                    for (i, &v) in r.iter().enumerate() {
                        f[4 + i] = lg(v as f64) * 4.0;
                    }
                    tok += 1;
                }
                let f = &mut row[tok * TLP_DIM..(tok + 1) * TLP_DIM];
                f[2] = 1.0;
                f[4] = lg(genes.a0 as f64) * 4.0;
                f[5] = genes.a1 as f32 / 4.0;
                tok += 1;
            }
            SketchKind::Simple => {
                let f = &mut row[..TLP_DIM];
                f[2] = 1.0;
                f[4] = lg(genes.a0 as f64) * 4.0;
                f[5] = lg(genes.a1 as f64) * 4.0;
                f[6] = genes.a2 as f32 / 4.0;
                tok = 1;
            }
            SketchKind::RowReduce => {
                let f = &mut row[..TLP_DIM];
                f[2] = 1.0;
                f[4] = lg(genes.a0 as f64) * 4.0;
                f[5] = lg(genes.a1 as f64) * 4.0;
                f[6] = lg(genes.a2 as f64) * 4.0;
                tok = 1;
            }
        }
        row[tok * TLP_DIM..(tok + 1) * TLP_DIM].copy_from_slice(wl_token);
    }
}

/// AVX2-compiled clones of the band fillers — the very same bodies inlined
/// into `#[target_feature]` shells, so semantics are identical by
/// construction.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;

    #[target_feature(enable = "avx2")]
    pub(crate) fn stmt_band(arena: &CandidateArena, start: usize, out: &mut [f32]) {
        stmt_band_body(arena, start, out);
    }

    #[target_feature(enable = "avx2")]
    pub(crate) fn flow_band(arena: &CandidateArena, start: usize, out: &mut [f32]) {
        flow_band_body(arena, start, out);
    }

    #[target_feature(enable = "avx2")]
    pub(crate) fn tlp_band(
        arena: &CandidateArena,
        start: usize,
        wl_token: &[f32; TLP_DIM],
        out: &mut [f32],
    ) {
        tlp_band_body(arena, start, wl_token, out);
    }
}

/// Whether the AVX2 clones are usable on this machine.
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

fn run_stmt_band(arena: &CandidateArena, start: usize, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 presence verified at runtime.
        #[allow(unsafe_code)]
        return unsafe { avx2::stmt_band(arena, start, out) };
    }
    stmt_band_body(arena, start, out)
}

fn run_flow_band(arena: &CandidateArena, start: usize, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 presence verified at runtime.
        #[allow(unsafe_code)]
        return unsafe { avx2::flow_band(arena, start, out) };
    }
    flow_band_body(arena, start, out)
}

fn run_tlp_band(
    arena: &CandidateArena,
    start: usize,
    wl_token: &[f32; TLP_DIM],
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 presence verified at runtime.
        #[allow(unsafe_code)]
        return unsafe { avx2::tlp_band(arena, start, wl_token, out) };
    }
    tlp_band_body(arena, start, wl_token, out)
}

/// Fans a band filler out over `threads` workers in contiguous index bands.
///
/// Every candidate's row is produced in full by exactly one worker from
/// per-candidate inputs, so the stack is bit-identical at any thread count.
fn banded(
    n: usize,
    width: usize,
    threads: usize,
    fill: impl Fn(usize, &mut [f32]) + Sync,
) -> Vec<f32> {
    let mut out = vec![0.0f32; n * width];
    fan_out_mut(&mut out, width, threads, fill);
    out
}

/// Statement features of every arena candidate, flattened
/// `[n · MAX_STMTS · STMT_DIM]` — bit-identical to concatenating the legacy
/// [`crate::stmt_features`] of each materialized program, at any thread
/// count.
///
/// # Panics
/// Panics if the arena has raw (stats-deferred) candidates — call
/// [`CandidateArena::ensure_stats`] after generation and dedup.
pub fn stmt_features_arena(arena: &CandidateArena, threads: usize) -> Vec<f32> {
    assert!(arena.has_stats(), "stmt_features_arena needs stats: call ensure_stats() first");
    banded(arena.len(), MAX_STMTS * STMT_DIM, threads, |start, out| {
        run_stmt_band(arena, start, out)
    })
}

/// Data-flow features of every arena candidate, flattened
/// `[n · MAX_FLOW · FLOW_DIM]` — bit-identical to the legacy
/// [`crate::flow_features`] per candidate, at any thread count.
///
/// # Panics
/// Panics if the arena has raw (stats-deferred) candidates — call
/// [`CandidateArena::ensure_stats`] after generation and dedup.
pub fn flow_features_arena(arena: &CandidateArena, threads: usize) -> Vec<f32> {
    assert!(arena.has_stats(), "flow_features_arena needs stats: call ensure_stats() first");
    banded(arena.len(), MAX_FLOW * FLOW_DIM, threads, |start, out| {
        run_flow_band(arena, start, out)
    })
}

/// TLP tokens of every arena candidate, flattened
/// `[n · MAX_TOKENS · TLP_DIM]` — bit-identical to the legacy
/// [`crate::tlp_tokens`] per candidate, at any thread count.
pub fn tlp_tokens_arena(arena: &CandidateArena, threads: usize) -> Vec<f32> {
    let wl_token = workload_token(arena.workload());
    banded(arena.len(), MAX_TOKENS * TLP_DIM, threads, |start, out| {
        run_tlp_band(arena, start, &wl_token, out)
    })
}

/// One candidate's three flattened feature blocks `(stmt, flow, tokens)` —
/// the single-candidate view used at the measure boundary.
pub fn features_arena_row(
    arena: &CandidateArena,
    i: usize,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    assert!(i < arena.len(), "candidate index out of range");
    assert!(arena.has_stats(), "features_arena_row needs stats: call ensure_stats() first");
    let mut stmt = vec![0.0f32; MAX_STMTS * STMT_DIM];
    let mut flow = vec![0.0f32; MAX_FLOW * FLOW_DIM];
    let mut tokens = vec![0.0f32; MAX_TOKENS * TLP_DIM];
    run_stmt_band(arena, i, &mut stmt);
    run_flow_band(arena, i, &mut flow);
    let wl_token = workload_token(arena.workload());
    run_tlp_band(arena, i, &wl_token, &mut tokens);
    (stmt, flow, tokens)
}
