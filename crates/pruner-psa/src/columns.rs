//! Columnar PSA kernels over [`CandidateArena`](pruner_sketch::CandidateArena)
//! stat columns.
//!
//! The arena estimator splits Eq. 4 into three column passes:
//!
//! 1. `fill_penalty_columns` — per-candidate `P_thread` and the combined
//!    compute denominator `T_p · P_kernel · P_warp` (branchy integer
//!    quantization; scalar).
//! 2. `fill_mem_denominator` — per-statement-slot memory denominator
//!    `T_m · P_mem` from the innermost-run-length column (integer
//!    `div_ceil`; scalar).
//! 3. `run_stmt_accumulate` — the hot floating-point pass
//!    `acc[i] += n_ops[i]·thread[i]/tkw[i] + global[i]/mem_den[i]`,
//!    dispatched through an `#[target_feature(enable = "avx2")]` clone of
//!    the same Rust body on capable x86-64 hosts.
//!
//! Bit-exactness discipline (same as `pruner-nn::gemm`): the AVX2 clone is
//! the *same* function body compiled at a wider vector width; Rust forbids
//! float reassociation and mul/add contraction, so its results are
//! bit-identical to the scalar build. Each candidate's statement terms are
//! accumulated in ascending slot order — exactly the order of the legacy
//! per-program `estimate_stats` loop — so the arena path reproduces the
//! scalar estimator bit for bit; the tests hold the dispatched kernel
//! against `stmt_accumulate_body` and against [`Psa::estimate`](crate::Psa::estimate).

use pruner_gpu::GpuSpec;

use crate::PsaConfig;

/// Fills the per-candidate thread penalty and compute-denominator columns.
///
/// For candidate `i`: `thread[i] = α · P_reg` and
/// `tkw[i] = (T_p · P_kernel) · P_warp` — the exact factor order of the
/// legacy `estimate_stats`, so `n_ops · thread / tkw` reproduces
/// `n_ops · P_thread / (T_p · P_kernel · P_warp)` bit for bit.
///
/// # Panics
/// Panics if the column lengths disagree.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fill_penalty_columns(
    cfg: &PsaConfig,
    spec: &GpuSpec,
    regs: &[u64],
    ptra: &[f64],
    ptf: &[f64],
    threads_pb: &[u64],
    num_blocks: &[u64],
    thread_out: &mut [f64],
    tkw_out: &mut [f64],
) {
    let n = thread_out.len();
    assert!(
        regs.len() == n
            && ptra.len() == n
            && ptf.len() == n
            && threads_pb.len() == n
            && num_blocks.len() == n
            && tkw_out.len() == n,
        "penalty column length mismatch"
    );
    let t_p = spec.peak_gflops * 1e9;
    let reg_limit = spec.reg_limit_per_thread as f64;
    let warp_size = spec.warp_size;
    let b_star = spec.max_resident_blocks();
    let w_star = spec.max_resident_warps();
    for i in 0..n {
        let p_reg = if cfg.enable_reg { (regs[i] as f64 / reg_limit).max(1.0) } else { 1.0 };
        let alpha =
            if cfg.enable_alpha { 1.0 + ptra[i] / ptf[i].max(1e-9) } else { 1.0 };
        thread_out[i] = alpha * p_reg;

        let warp = if cfg.enable_warp {
            let n_t = threads_pb[i].max(1);
            n_t as f64 / (n_t.div_ceil(warp_size) * warp_size) as f64
        } else {
            1.0
        };
        let kernel = if cfg.enable_kernel {
            let b = num_blocks[i].max(1);
            if b >= b_star {
                b as f64 / (b.div_ceil(b_star) * b_star) as f64
            } else {
                let w = (num_blocks[i] * threads_pb[i].div_ceil(warp_size)).max(1);
                w as f64 / (w.div_ceil(w_star) * w_star) as f64
            }
        } else {
            1.0
        };
        tkw_out[i] = t_p * kernel * warp;
    }
}

/// Fills one statement slot's memory denominator column
/// `out[i] = T_m · P_mem(innermost[i])`.
///
/// With the memory penalty disabled the denominator collapses to `T_m`
/// exactly, matching the legacy `mem_penalty` early return.
///
/// # Panics
/// Panics if the column lengths disagree.
pub(crate) fn fill_mem_denominator(
    enable_mem: bool,
    t_m: f64,
    tx: u64,
    innermost: &[u64],
    out: &mut [f64],
) {
    assert_eq!(innermost.len(), out.len(), "mem column length mismatch");
    if !enable_mem {
        out.fill(t_m);
        return;
    }
    for (slot, &len) in out.iter_mut().zip(innermost) {
        let n_l = len.max(1);
        *slot = t_m * (n_l as f64 / (n_l.div_ceil(tx) * tx) as f64);
    }
}

/// The hot Eq. 4 accumulation over one statement slot:
/// `acc[i] += n_ops[i]·thread[i]/tkw[i] + global[i]/mem_den[i]`.
///
/// Branch-free: a statement with `global == 0.0` contributes `+0.0` through
/// the division (the denominator is always positive and finite), which is
/// the same bits as the legacy `if global_bytes > 0.0` guard produces.
/// `inline(always)` so the AVX2 shell compiles this body at full width.
#[inline(always)]
pub(crate) fn stmt_accumulate_body(
    acc: &mut [f64],
    n_ops: &[f64],
    thread: &[f64],
    tkw: &[f64],
    global: &[f64],
    mem_den: &[f64],
) {
    let n = acc.len();
    assert!(
        n_ops.len() == n
            && thread.len() == n
            && tkw.len() == n
            && global.len() == n
            && mem_den.len() == n,
        "accumulate column length mismatch"
    );
    for i in 0..n {
        let l_c = n_ops[i] * thread[i] / tkw[i];
        let l_m = global[i] / mem_den[i];
        acc[i] += l_c + l_m;
    }
}

/// AVX2-compiled clone of the accumulator. The body is the very same
/// function (inlined into a `#[target_feature]` shell), so semantics are
/// identical by construction — only the emitted vector width changes.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    #[target_feature(enable = "avx2")]
    pub(crate) fn stmt_accumulate(
        acc: &mut [f64],
        n_ops: &[f64],
        thread: &[f64],
        tkw: &[f64],
        global: &[f64],
        mem_den: &[f64],
    ) {
        super::stmt_accumulate_body(acc, n_ops, thread, tkw, global, mem_den);
    }
}

/// Whether the AVX2 clone is usable on this machine (checked once;
/// `is_x86_feature_detected!` caches internally).
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// Dispatches one statement slot's accumulation to the widest available
/// build of the kernel (AVX2 where present).
pub(crate) fn run_stmt_accumulate(
    acc: &mut [f64],
    n_ops: &[f64],
    thread: &[f64],
    tkw: &[f64],
    global: &[f64],
    mem_den: &[f64],
) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: the only requirement of a safe `#[target_feature]` fn is
        // that the feature is present, which was just verified at runtime.
        #[allow(unsafe_code)]
        return unsafe { avx2::stmt_accumulate(acc, n_ops, thread, tkw, global, mem_den) };
    }
    stmt_accumulate_body(acc, n_ops, thread, tkw, global, mem_den)
}
