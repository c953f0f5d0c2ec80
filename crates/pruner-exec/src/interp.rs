//! The schedule-driven interpreter and its naive reference.
//!
//! [`execute`] runs a scheduled [`Program`] the way its schedule says to:
//! the block grid of a `MultiTile` schedule becomes the unit of
//! parallelism (bands of blocks fanned out by `pruner_par`), tile extents
//! decide the traversal and the GEMM packing shapes, and `Simple` /
//! `RowReduce` schedules band their contiguous output ranges. What the
//! schedule can **never** change is the numeric result: every output
//! element is accumulated in the canonical ascending lexicographic order
//! over the workload's reduction axes, padded/out-of-bounds contributions
//! are skipped (with strictly positive operand data, bit-equivalent to
//! adding `+0.0`), and the GEMM fast path reuses the `pruner-nn`
//! micro-kernels whose per-element order is that same ascending-`k` sum.
//! [`reference_output`] is the independent naive interpretation — plain
//! loop nests with their own index arithmetic — and the bit-identity
//! property `execute(p) == reference_output(p.workload)` for every valid
//! program is enforced by this crate's property tests.

use crate::data::operand_data;
use pruner_ir::{Conv2dShape, Conv3dShape, EwKind, MatMulShape, Workload};
use pruner_par::{fan_out, fan_out_mut};
use pruner_sketch::{Program, ReduceConfig, Schedule, SimpleConfig, TileConfig};
use std::sync::atomic::{AtomicU32, Ordering};

/// Minimum workload FLOPs before banding over threads pays for the spawns.
const PAR_MIN_FLOPS: f64 = (1 << 20) as f64;

/// Applies one element-wise operator. Shared by the executed and the
/// reference paths on purpose: the operator *definition* is a fixed
/// pointwise formula, and what the differential tests exercise is the
/// traversal, banding and indexing around it. `y` is the second operand
/// for binary kinds and ignored otherwise.
pub(crate) fn ew_apply(kind: EwKind, x: f32, y: f32) -> f32 {
    match kind {
        EwKind::Add => x + y,
        EwKind::Mul => x * y,
        EwKind::Relu => x.max(0.0),
        EwKind::Gelu => {
            let inner = 0.797_884_6_f32 * (x + 0.044_715 * x * x * x);
            0.5 * x * (1.0 + inner.tanh())
        }
        EwKind::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        EwKind::Tanh => x.tanh(),
        EwKind::BiasAdd => x + y,
        // Inference batch norm folded to scale + shift, both taken from
        // the single broadcast operand.
        EwKind::BnInfer => x * y + y,
    }
}

/// Executes `prog` against its workload's synthetic operand data on up to
/// `threads` worker threads and returns the output tensor.
///
/// The result is bit-identical at any thread count and to
/// [`reference_output`]; only the wall time depends on the schedule.
pub fn execute(prog: &Program, threads: usize) -> Vec<f32> {
    let inputs = operand_data(&prog.workload);
    execute_with(prog, &inputs, threads)
}

/// [`execute`] with explicit operand tensors (sized per
/// [`Workload::operand_elems`]).
pub fn execute_with(prog: &Program, inputs: &[Vec<f32>], threads: usize) -> Vec<f32> {
    match (&prog.workload, &prog.schedule) {
        (&Workload::Elementwise { kind, len }, Schedule::Simple(c)) => {
            exec_elementwise(kind, len, c, inputs, threads)
        }
        (&Workload::Reduction { outer, reduce }, Schedule::RowReduce(c)) => {
            exec_reduction(outer, reduce, c, inputs, threads)
        }
        (wl, Schedule::MultiTile(t)) if grid_matches(wl, t) => match *wl {
            Workload::MatMul(s) => exec_matmul(&s, t, inputs, threads),
            Workload::Conv2d(s) => exec_conv2d(&s, t, inputs, threads),
            Workload::DepthwiseConv2d(s) => exec_dwconv2d(&s, t, inputs, threads),
            Workload::Conv3d(s) => exec_conv3d(&s, t, inputs, threads),
            _ => reference_output_with(wl, inputs),
        },
        // A schedule from the wrong sketch family (never produced by the
        // sampler, but `Program::new` is public): run canonically.
        (wl, _) => reference_output_with(wl, inputs),
    }
}

/// The naive reference interpretation of a workload: straightforward loop
/// nests, canonical ascending reduction order, synthetic operand data.
pub fn reference_output(workload: &Workload) -> Vec<f32> {
    let inputs = operand_data(workload);
    reference_output_with(workload, &inputs)
}

/// [`reference_output`] with explicit operand tensors.
pub fn reference_output_with(workload: &Workload, inputs: &[Vec<f32>]) -> Vec<f32> {
    match *workload {
        Workload::MatMul(s) => {
            let (bsz, m, n, k) =
                (s.batch as usize, s.m as usize, s.n as usize, s.k as usize);
            let (a, bm) = (&inputs[0], &inputs[1]);
            let mut out = vec![0.0f32; bsz * m * n];
            for b in 0..bsz {
                for i in 0..m {
                    for j in 0..n {
                        let mut acc = 0.0f32;
                        for kx in 0..k {
                            acc += a[(b * m + i) * k + kx] * bm[(b * k + kx) * n + j];
                        }
                        out[(b * m + i) * n + j] = acc;
                    }
                }
            }
            out
        }
        Workload::Conv2d(s) => {
            let (oh, ow) = (s.out_h(), s.out_w());
            let (inp, wgt) = (&inputs[0], &inputs[1]);
            let mut out = vec![0.0f32; (s.n * s.co * oh * ow) as usize];
            let mut at = 0usize;
            for n in 0..s.n {
                for co in 0..s.co {
                    for y in 0..oh {
                        for x in 0..ow {
                            let mut acc = 0.0f32;
                            for rc in 0..s.c {
                                for rh in 0..s.kh {
                                    let ih = (y * s.stride + rh * s.dilation) as i64
                                        - s.pad as i64;
                                    if ih < 0 || ih >= s.h as i64 {
                                        continue;
                                    }
                                    for rw in 0..s.kw {
                                        let iw = (x * s.stride + rw * s.dilation) as i64
                                            - s.pad as i64;
                                        if iw < 0 || iw >= s.w as i64 {
                                            continue;
                                        }
                                        let ii = ((n * s.c + rc) * s.h + ih as u64) * s.w
                                            + iw as u64;
                                        let wi = ((co * s.c + rc) * s.kh + rh) * s.kw + rw;
                                        acc += inp[ii as usize] * wgt[wi as usize];
                                    }
                                }
                            }
                            out[at] = acc;
                            at += 1;
                        }
                    }
                }
            }
            out
        }
        Workload::DepthwiseConv2d(s) => {
            let (oh, ow) = (s.out_h(), s.out_w());
            let (inp, wgt) = (&inputs[0], &inputs[1]);
            let mut out = vec![0.0f32; (s.n * s.c * oh * ow) as usize];
            let mut at = 0usize;
            for n in 0..s.n {
                for ch in 0..s.c {
                    for y in 0..oh {
                        for x in 0..ow {
                            let mut acc = 0.0f32;
                            for rh in 0..s.kh {
                                let ih =
                                    (y * s.stride + rh * s.dilation) as i64 - s.pad as i64;
                                if ih < 0 || ih >= s.h as i64 {
                                    continue;
                                }
                                for rw in 0..s.kw {
                                    let iw = (x * s.stride + rw * s.dilation) as i64
                                        - s.pad as i64;
                                    if iw < 0 || iw >= s.w as i64 {
                                        continue;
                                    }
                                    let ii = ((n * s.c + ch) * s.h + ih as u64) * s.w
                                        + iw as u64;
                                    let wi = (ch * s.kh + rh) * s.kw + rw;
                                    acc += inp[ii as usize] * wgt[wi as usize];
                                }
                            }
                            out[at] = acc;
                            at += 1;
                        }
                    }
                }
            }
            out
        }
        Workload::Conv3d(s) => {
            let (od, oh, ow) = (s.out_d(), s.out_h(), s.out_w());
            let (inp, wgt) = (&inputs[0], &inputs[1]);
            let mut out = vec![0.0f32; (s.n * s.co * od * oh * ow) as usize];
            let mut at = 0usize;
            for n in 0..s.n {
                for co in 0..s.co {
                    for z in 0..od {
                        for y in 0..oh {
                            for x in 0..ow {
                                let mut acc = 0.0f32;
                                for rc in 0..s.c {
                                    for rd in 0..s.kd {
                                        let id = (z * s.stride + rd) as i64 - s.pad as i64;
                                        if id < 0 || id >= s.d as i64 {
                                            continue;
                                        }
                                        for rh in 0..s.kh {
                                            let ih =
                                                (y * s.stride + rh) as i64 - s.pad as i64;
                                            if ih < 0 || ih >= s.h as i64 {
                                                continue;
                                            }
                                            for rw in 0..s.kw {
                                                let iw = (x * s.stride + rw) as i64
                                                    - s.pad as i64;
                                                if iw < 0 || iw >= s.w as i64 {
                                                    continue;
                                                }
                                                let ii = (((n * s.c + rc) * s.d
                                                    + id as u64)
                                                    * s.h
                                                    + ih as u64)
                                                    * s.w
                                                    + iw as u64;
                                                let wi = (((co * s.c + rc) * s.kd + rd)
                                                    * s.kh
                                                    + rh)
                                                    * s.kw
                                                    + rw;
                                                acc += inp[ii as usize] * wgt[wi as usize];
                                            }
                                        }
                                    }
                                }
                                out[at] = acc;
                                at += 1;
                            }
                        }
                    }
                }
            }
            out
        }
        Workload::Elementwise { kind, len } => {
            let a = &inputs[0];
            let two = kind.num_inputs() == 2;
            let blen = if two { inputs[1].len().max(1) } else { 1 };
            (0..len as usize)
                .map(|i| {
                    let y = if two { inputs[1][i % blen] } else { 0.0 };
                    ew_apply(kind, a[i], y)
                })
                .collect()
        }
        Workload::Reduction { outer, reduce } => {
            let inp = &inputs[0];
            let r = reduce as usize;
            (0..outer as usize)
                .map(|o| {
                    let mut acc = 0.0f32;
                    for kx in 0..r {
                        acc += inp[o * r + kx];
                    }
                    acc
                })
                .collect()
        }
    }
}

/// Whether the schedule's axis counts match the workload (a mismatch only
/// arises from hand-built programs; the sampler always agrees).
fn grid_matches(wl: &Workload, t: &TileConfig) -> bool {
    t.spatial.len() == wl.spatial_extents().len()
        && t.reduce.len() == wl.reduce_extents().len()
}

/// Picks the worker count for a computation of `flops` floating ops.
fn pick_workers(threads: usize, flops: f64) -> usize {
    if threads <= 1 || flops < PAR_MIN_FLOPS {
        1
    } else {
        threads
    }
}

/// Runs `run(block_id)` for every block, banding contiguous block ranges
/// over `workers` scoped threads. Each output element is written by
/// exactly one block, so results are independent of the banding.
fn run_blocks<F: Fn(u64) + Sync>(num_blocks: u64, workers: usize, run: F) {
    fan_out(num_blocks as usize, workers, (), |(), _| ((), ()), |first, len, ()| {
        for bid in first..first + len {
            run(bid as u64);
        }
    });
}

/// The block grid of a `MultiTile` schedule over one workload's spatial
/// axes: per-axis block counts and block-tile extents, with clamping to
/// the (unpadded) axis extents.
struct Grid {
    blocks: Vec<u64>,
    tiles: Vec<u64>,
    extents: Vec<u64>,
}

impl Grid {
    fn new(t: &TileConfig, extents: &[u64]) -> Grid {
        Grid {
            blocks: t.spatial.iter().map(|s| s[0]).collect(),
            tiles: t.block_tile(),
            extents: extents.to_vec(),
        }
    }

    fn num_blocks(&self) -> u64 {
        self.blocks.iter().product()
    }

    /// Clamped `[start, end)` range of each axis covered by block `bid`
    /// (row-major block order, axis 0 outermost). Padding can leave a
    /// trailing block entirely out of range (`start >= end`).
    fn ranges(&self, bid: u64) -> Vec<(u64, u64)> {
        let mut rest = bid;
        let mut coords = vec![0u64; self.blocks.len()];
        for i in (0..self.blocks.len()).rev() {
            coords[i] = rest % self.blocks[i];
            rest /= self.blocks[i];
        }
        coords
            .iter()
            .zip(self.tiles.iter().zip(&self.extents))
            .map(|(&c, (&t, &e))| ((c * t).min(e), (c * t + t).min(e)))
            .collect()
    }
}

/// Atomic output buffer: blocks of a `MultiTile` grid do not map to
/// contiguous output ranges, so parallel block bands write through
/// relaxed per-element stores (each element has exactly one writer).
fn atomic_out(len: usize) -> Vec<AtomicU32> {
    (0..len).map(|_| AtomicU32::new(0)).collect()
}

fn atomic_into_f32(out: Vec<AtomicU32>) -> Vec<f32> {
    out.into_iter().map(|b| f32::from_bits(b.into_inner())).collect()
}

fn exec_matmul(s: &MatMulShape, t: &TileConfig, inputs: &[Vec<f32>], threads: usize) -> Vec<f32> {
    let (bsz, m, n, k) = (s.batch as usize, s.m as usize, s.n as usize, s.k as usize);
    let (a, bm) = (&inputs[0], &inputs[1]);
    let extents: Vec<u64> =
        if s.batch > 1 { vec![s.batch, s.m, s.n] } else { vec![s.m, s.n] };
    let grid = Grid::new(t, &extents);
    let out = atomic_out(bsz * m * n);
    let steps = t.reduce_outer_steps() as usize;
    let chunk = (t.reduce[0][1] * t.reduce[0][2]).max(1) as usize;
    let workers = pick_workers(threads, 2.0 * (bsz * m * n * k) as f64);
    run_blocks(grid.num_blocks(), workers, |bid| {
        let rg = grid.ranges(bid);
        let ((b0, b1), (m0, m1), (n0, n1)) = if s.batch > 1 {
            (rg[0], rg[1], rg[2])
        } else {
            ((0, 1), rg[0], rg[1])
        };
        let (tm, tn) = ((m1.saturating_sub(m0)) as usize, (n1.saturating_sub(n0)) as usize);
        if tm == 0 || tn == 0 || b0 >= b1 {
            return;
        }
        let (m0, n0) = (m0 as usize, n0 as usize);
        if steps <= 1 {
            // Single staging step: the block tile is one packed GEMM call
            // through the bit-exact register-blocked micro-kernels.
            let mut pack = vec![0.0f32; k * tn];
            let mut tile = vec![0.0f32; tm * tn];
            for b in b0 as usize..b1 as usize {
                for kx in 0..k {
                    let row = (b * k + kx) * n + n0;
                    pack[kx * tn..(kx + 1) * tn].copy_from_slice(&bm[row..row + tn]);
                }
                let a_band = &a[(b * m + m0) * k..(b * m + m0 + tm) * k];
                pruner_nn::gemm::matmul_into(a_band, &pack, &mut tile, tm, k, tn, 1);
                for i in 0..tm {
                    let base = (b * m + m0 + i) * n + n0;
                    for j in 0..tn {
                        out[base + j].store(tile[i * tn + j].to_bits(), Ordering::Relaxed);
                    }
                }
            }
        } else {
            // Staged reduction: ascending-k chunks, so the per-element
            // accumulation order is unchanged.
            for b in b0 as usize..b1 as usize {
                for i in m0..m0 + tm {
                    for j in n0..n0 + tn {
                        let mut acc = 0.0f32;
                        for ko in 0..steps {
                            let ks = ko * chunk;
                            if ks >= k {
                                break;
                            }
                            for kx in ks..(ks + chunk).min(k) {
                                acc += a[(b * m + i) * k + kx] * bm[(b * k + kx) * n + j];
                            }
                        }
                        out[(b * m + i) * n + j].store(acc.to_bits(), Ordering::Relaxed);
                    }
                }
            }
        }
    });
    atomic_into_f32(out)
}

fn conv2d_elem(
    s: &Conv2dShape,
    inp: &[f32],
    wgt: &[f32],
    n: u64,
    co: u64,
    oh: u64,
    ow: u64,
) -> f32 {
    let mut acc = 0.0f32;
    for rc in 0..s.c {
        for rh in 0..s.kh {
            let ih = (oh * s.stride + rh * s.dilation) as i64 - s.pad as i64;
            if ih < 0 || ih >= s.h as i64 {
                continue;
            }
            let in_row = (((n * s.c + rc) * s.h + ih as u64) * s.w) as usize;
            let w_row = (((co * s.c + rc) * s.kh + rh) * s.kw) as usize;
            for rw in 0..s.kw {
                let iw = (ow * s.stride + rw * s.dilation) as i64 - s.pad as i64;
                if iw < 0 || iw >= s.w as i64 {
                    continue;
                }
                acc += inp[in_row + iw as usize] * wgt[w_row + rw as usize];
            }
        }
    }
    acc
}

fn exec_conv2d(s: &Conv2dShape, t: &TileConfig, inputs: &[Vec<f32>], threads: usize) -> Vec<f32> {
    let (oh, ow) = (s.out_h(), s.out_w());
    let extents = [s.n, s.co, oh, ow];
    let grid = Grid::new(t, &extents);
    let out = atomic_out((s.n * s.co * oh * ow) as usize);
    let flops = 2.0 * (s.n * s.co * oh * ow * s.c * s.kh * s.kw) as f64;
    let (inp, wgt) = (&inputs[0], &inputs[1]);
    run_blocks(grid.num_blocks(), pick_workers(threads, flops), |bid| {
        let rg = grid.ranges(bid);
        for n in rg[0].0..rg[0].1 {
            for co in rg[1].0..rg[1].1 {
                for y in rg[2].0..rg[2].1 {
                    for x in rg[3].0..rg[3].1 {
                        let idx = (((n * s.co + co) * oh + y) * ow + x) as usize;
                        let v = conv2d_elem(s, inp, wgt, n, co, y, x);
                        out[idx].store(v.to_bits(), Ordering::Relaxed);
                    }
                }
            }
        }
    });
    atomic_into_f32(out)
}

fn dwconv2d_elem(
    s: &Conv2dShape,
    inp: &[f32],
    wgt: &[f32],
    n: u64,
    ch: u64,
    oh: u64,
    ow: u64,
) -> f32 {
    let mut acc = 0.0f32;
    for rh in 0..s.kh {
        let ih = (oh * s.stride + rh * s.dilation) as i64 - s.pad as i64;
        if ih < 0 || ih >= s.h as i64 {
            continue;
        }
        let in_row = (((n * s.c + ch) * s.h + ih as u64) * s.w) as usize;
        let w_row = ((ch * s.kh + rh) * s.kw) as usize;
        for rw in 0..s.kw {
            let iw = (ow * s.stride + rw * s.dilation) as i64 - s.pad as i64;
            if iw < 0 || iw >= s.w as i64 {
                continue;
            }
            acc += inp[in_row + iw as usize] * wgt[w_row + rw as usize];
        }
    }
    acc
}

fn exec_dwconv2d(
    s: &Conv2dShape,
    t: &TileConfig,
    inputs: &[Vec<f32>],
    threads: usize,
) -> Vec<f32> {
    let (oh, ow) = (s.out_h(), s.out_w());
    let extents = [s.n, s.c, oh, ow];
    let grid = Grid::new(t, &extents);
    let out = atomic_out((s.n * s.c * oh * ow) as usize);
    let flops = 2.0 * (s.n * s.c * oh * ow * s.kh * s.kw) as f64;
    let (inp, wgt) = (&inputs[0], &inputs[1]);
    run_blocks(grid.num_blocks(), pick_workers(threads, flops), |bid| {
        let rg = grid.ranges(bid);
        for n in rg[0].0..rg[0].1 {
            for ch in rg[1].0..rg[1].1 {
                for y in rg[2].0..rg[2].1 {
                    for x in rg[3].0..rg[3].1 {
                        let idx = (((n * s.c + ch) * oh + y) * ow + x) as usize;
                        let v = dwconv2d_elem(s, inp, wgt, n, ch, y, x);
                        out[idx].store(v.to_bits(), Ordering::Relaxed);
                    }
                }
            }
        }
    });
    atomic_into_f32(out)
}

#[allow(clippy::too_many_arguments)]
fn conv3d_elem(
    s: &Conv3dShape,
    inp: &[f32],
    wgt: &[f32],
    n: u64,
    co: u64,
    od: u64,
    oh: u64,
    ow: u64,
) -> f32 {
    let mut acc = 0.0f32;
    for rc in 0..s.c {
        for rd in 0..s.kd {
            let id = (od * s.stride + rd) as i64 - s.pad as i64;
            if id < 0 || id >= s.d as i64 {
                continue;
            }
            for rh in 0..s.kh {
                let ih = (oh * s.stride + rh) as i64 - s.pad as i64;
                if ih < 0 || ih >= s.h as i64 {
                    continue;
                }
                let in_row =
                    ((((n * s.c + rc) * s.d + id as u64) * s.h + ih as u64) * s.w) as usize;
                let w_row = ((((co * s.c + rc) * s.kd + rd) * s.kh + rh) * s.kw) as usize;
                for rw in 0..s.kw {
                    let iw = (ow * s.stride + rw) as i64 - s.pad as i64;
                    if iw < 0 || iw >= s.w as i64 {
                        continue;
                    }
                    acc += inp[in_row + iw as usize] * wgt[w_row + rw as usize];
                }
            }
        }
    }
    acc
}

fn exec_conv3d(s: &Conv3dShape, t: &TileConfig, inputs: &[Vec<f32>], threads: usize) -> Vec<f32> {
    let (od, oh, ow) = (s.out_d(), s.out_h(), s.out_w());
    let extents = [s.n, s.co, od, oh, ow];
    let grid = Grid::new(t, &extents);
    let out = atomic_out((s.n * s.co * od * oh * ow) as usize);
    let flops = 2.0 * (s.n * s.co * od * oh * ow * s.c * s.kd * s.kh * s.kw) as f64;
    let (inp, wgt) = (&inputs[0], &inputs[1]);
    run_blocks(grid.num_blocks(), pick_workers(threads, flops), |bid| {
        let rg = grid.ranges(bid);
        for n in rg[0].0..rg[0].1 {
            for co in rg[1].0..rg[1].1 {
                for z in rg[2].0..rg[2].1 {
                    for y in rg[3].0..rg[3].1 {
                        for x in rg[4].0..rg[4].1 {
                            let idx =
                                ((((n * s.co + co) * od + z) * oh + y) * ow + x) as usize;
                            let v = conv3d_elem(s, inp, wgt, n, co, z, y, x);
                            out[idx].store(v.to_bits(), Ordering::Relaxed);
                        }
                    }
                }
            }
        }
    });
    atomic_into_f32(out)
}

fn exec_elementwise(
    kind: EwKind,
    len: u64,
    c: &SimpleConfig,
    inputs: &[Vec<f32>],
    threads: usize,
) -> Vec<f32> {
    let len_us = len as usize;
    let a = &inputs[0];
    let two = kind.num_inputs() == 2;
    let blen = if two { inputs[1].len().max(1) } else { 1 };
    let per_block = (c.threads * c.serial * c.vectorize).max(1) as usize;
    let workers = pick_workers(threads, (kind.ops_per_elem() * len) as f64);
    let mut out = vec![0.0f32; len_us];
    fan_out_mut(&mut out, per_block, workers, |block, chunk| {
        for (i, slot) in chunk.iter_mut().enumerate() {
            let g = block * per_block + i;
            let y = if two { inputs[1][g % blen] } else { 0.0 };
            *slot = ew_apply(kind, a[g], y);
        }
    });
    out
}

fn exec_reduction(
    outer: u64,
    reduce: u64,
    c: &ReduceConfig,
    inputs: &[Vec<f32>],
    threads: usize,
) -> Vec<f32> {
    let inp = &inputs[0];
    let r = reduce as usize;
    let step = (c.serial as usize).max(1);
    let rows_per_block = c.rows_per_block.max(1) as usize;
    let workers = pick_workers(threads, (outer * reduce) as f64);
    let mut out = vec![0.0f32; outer as usize];
    // Serial chunks of `step` elements keep the ascending order while the
    // loop structure (and so the wall time) tracks the schedule.
    fan_out_mut(&mut out, rows_per_block, workers, |block, chunk| {
        for (i, slot) in chunk.iter_mut().enumerate() {
            let row = (block * rows_per_block + i) * r;
            let mut acc = 0.0f32;
            let mut ks = 0usize;
            while ks < r {
                for kx in ks..(ks + step).min(r) {
                    acc += inp[row + kx];
                }
                ks += step;
            }
            *slot = acc;
        }
    });
    out
}
