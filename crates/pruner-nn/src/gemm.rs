//! Register-blocked GEMM kernels with a bit-exactness guarantee.
//!
//! Every kernel in this module computes each output element as the plain
//! ascending-`k` sum `Σₖ a·b` — separate multiply and add, the same
//! per-element accumulation order as the naive triple loop in
//! [`mod@reference`]. Blocking here only changes *which* elements are in
//! flight at once and *where* a partial sum waits between two of its
//! additions (a register, or its `out` slot), never the order of additions
//! inside one element, so the blocked kernels are **bit-identical** to the
//! reference at any shape and any thread count (an element that is NaN
//! on one path is NaN on the other; a NaN's sign and payload are the one
//! thing Rust leaves unspecified). That is what lets the tuner's golden
//! campaigns stay byte-stable while the compute core gets rewritten.
//!
//! Three layouts cover everything the autodiff tape needs:
//!
//! * `matmul_into` — `C[m×n] = A[m×k] · B[k×n]` (forward activations),
//! * `matmul_nt_into` — `C[m×p] = A[m×k] · B[p×k]ᵀ` (input gradients),
//! * `matmul_tn_into` — `C[m×n] = A[k×m]ᵀ · B[k×n]` (weight gradients).
//!
//! There are two kernels behind the three (shapes below are the portable
//! bodies'; the AVX-512 tier doubles both):
//!
//! * **the NN band** (`nn_band`): `MR`×`NR` output tiles held in register
//!   accumulators, `k` innermost, one broadcast of `A` against a
//!   fixed-width `&[f32; NR]` row panel of `B` per step. NT runs on it
//!   too: `Bᵀ` is packed once per call (`B` is a weight matrix in the
//!   backward pass, so the pack is `1/m` of the product) and the product
//!   becomes an ordinary NN one with the same per-element chain.
//! * **the TN range** (`tn_range`): the same tile shape, with the long
//!   reduction cut into `KC`-row blocks. A tile's accumulators are loaded
//!   from `out` when a block starts and stored back when it ends — an
//!   exact round trip — so the `KC` rows of `A` and of the `B` panel that
//!   a block touches stay cache-resident across every tile that needs
//!   them, instead of each tile streaming the whole reduction.
//!
//! Each dispatching entry point takes a `threads` argument: large products
//! are banded over contiguous output-row ranges and fanned out by
//! `pruner_par`. An output element is always computed in full by exactly one
//! worker, so results are independent of the band split.
//!
//! The naive loops stay as [`mod@reference`], called only by tests: the
//! unit tests and `tests/gemm_proptest.rs` hold every dispatch against them
//! bit for bit.
//!
//! # Kernel tiers and bit-exactness
//!
//! Each product runs on the widest of three tiers the CPU supports, picked
//! by CPUID (`is_x86_feature_detected!`) alone — there is no option:
//!
//! * **AVX-512** (`avx512f`): explicit intrinsics, 8-row × 32-column
//!   tiles held as two zmm accumulators per row. Each step is one
//!   `_mm512_mul_ps` then one `_mm512_add_ps`, `k` ascending, and the TN
//!   kernel keeps its `KC` blocks and `out` round trip. A panel narrower
//!   than 32 columns runs under lane masks; the fewer-than-8 rows at the
//!   end of a band go to the AVX2 clone.
//! * **AVX2**: `#[target_feature(enable = "avx2")]` clones of the portable
//!   bodies, which only widen the compiler's vectorization of the
//!   independent accumulator lanes.
//! * **scalar**: the portable bodies compiled for the baseline target.
//!
//! All three produce the same bits. Rust forbids floating-point
//! reassociation and mul/add contraction, and the explicit kernel issues
//! no fused multiply-add, so on every tier each output element is the same
//! ascending-`k` chain with one rounding per multiply and one per add. The
//! unit test `every_host_tier_matches_reference_bitwise` runs every tier
//! the host supports against [`mod@reference`], since dispatch alone would
//! never reach the narrower ones.
//!
//! The `unsafe` in this crate is all here: the two dispatchers' calls into
//! the `#[target_feature]` tiers, each after an assert that the tier's
//! features are present, and the AVX-512 tiles' raw-pointer loads and
//! stores, each bounded by a slice-length assert at the top of its tile.

use pruner_par::fan_out_mut;

/// Column-panel width of the portable kernels (two 8-lane f32 vectors).
const NR: usize = 16;
/// Row-block height of the portable kernels.
const MR: usize = 4;
/// Reduction-block length of the TN kernels: `KC` rows of a `B` panel
/// (16 KiB portable, 32 KiB AVX-512) stay in L1 while the tiles of a panel
/// column visit them.
const KC: usize = 256;

/// Minimum multiply-add count before banding over threads pays for the
/// scoped-thread spawns.
const PAR_MIN_WORK: usize = 1 << 22;
/// Minimum output rows per band; below this the spawn overhead dominates.
const PAR_MIN_ROWS: usize = 64;

/// Picks the worker count for an `out_rows`-row product of `work`
/// multiply-adds.
fn band_workers(threads: usize, out_rows: usize, work: usize) -> usize {
    if threads <= 1 || work < PAR_MIN_WORK {
        return 1;
    }
    threads.min(out_rows / PAR_MIN_ROWS).max(1)
}

/// AVX2-compiled clones of the two kernels. The bodies are the very same
/// functions (inlined into a `#[target_feature]` shell), so semantics are
/// identical by construction — only the emitted vector width changes.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    #[target_feature(enable = "avx2")]
    pub(crate) fn nn_band(a: &[f32], b: &[f32], out: &mut [f32], rows: usize, k: usize, n: usize) {
        super::nn_band(a, b, out, rows, k, n);
    }

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn tn_range(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        i0: usize,
        i1: usize,
        k: usize,
        m: usize,
        n: usize,
    ) {
        super::tn_range(a, b, out, i0, i1, k, m, n);
    }
}

/// Explicit AVX-512 micro-kernels: 8-row × 32-column tiles, two zmm
/// accumulators per row, one `_mm512_mul_ps` then one `_mm512_add_ps` per
/// reduction step, `k` ascending — the per-element chain of the portable
/// body at twice its lane width and tile height. A panel narrower than 32
/// columns runs with lane masks on its last vector (one vector when it is
/// at most 16 wide); the fewer-than-8 rows left at the end of a band go to
/// the AVX2 clone. Each tile asserts the slice lengths that bound its raw
/// pointer offsets before it touches memory.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx512 {
    use std::arch::x86_64::{
        __m512, __mmask16, _mm512_add_ps, _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps,
        _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps,
    };
    use std::ops::Range;

    /// Tile height.
    const MR: usize = 8;
    /// Tile width: two 16-lane vectors.
    const NR: usize = 32;
    /// Lanes per vector.
    const L: usize = 16;

    /// Whether a `rows × cols` matrix fits in `len` floats, without
    /// overflow.
    fn fits(len: usize, rows: usize, cols: usize) -> bool {
        rows.checked_mul(cols).is_some_and(|need| need <= len)
    }

    /// Lane masks for a panel with `w` columns left, held in `V` vectors:
    /// vector `v` admits only the lanes below `w`, so no lane reaches past
    /// the row.
    fn panel_masks<const V: usize>(w: usize) -> [__mmask16; V] {
        std::array::from_fn(|v| {
            let lanes = w.saturating_sub(v * L).min(L);
            ((1u32 << lanes) - 1) as __mmask16
        })
    }

    /// `acc[r][v] += a[r] · b[v]` for the tile's rows, each a separate
    /// multiply then add.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn step<const V: usize>(acc: &mut [[__m512; V]; MR], a: [f32; MR], b: &[__m512; V]) {
        for (accr, &ar) in acc.iter_mut().zip(&a) {
            let av = _mm512_set1_ps(ar);
            for (accv, &bv) in accr.iter_mut().zip(b) {
                *accv = _mm512_add_ps(*accv, _mm512_mul_ps(av, bv));
            }
        }
    }

    /// NN band: `out[rows×n] = A[rows×k] × B[k×n]`.
    #[target_feature(enable = "avx512f")]
    pub(crate) fn nn_band(a: &[f32], b: &[f32], out: &mut [f32], rows: usize, k: usize, n: usize) {
        let full = rows - rows % MR;
        for i in (0..full).step_by(MR) {
            for j in (0..n).step_by(NR) {
                if n - j > L {
                    nn_tile::<2>(a, b, out, i, j, k, n);
                } else {
                    nn_tile::<1>(a, b, out, i, j, k, n);
                }
            }
        }
        if full < rows {
            super::avx2::nn_band(&a[full * k..], b, &mut out[full * n..], rows - full, k, n);
        }
    }

    /// The NN tile at rows `i..i + MR`, columns `j..` (`16·V` of them, or
    /// up to `n`): accumulated from zero over `k` ascending, then stored.
    #[target_feature(enable = "avx512f")]
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn nn_tile<const V: usize>(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        i: usize,
        j: usize,
        k: usize,
        n: usize,
    ) {
        let end = i.saturating_add(MR);
        assert!(
            j + (V - 1) * L < n
                && fits(a.len(), end, k)
                && fits(b.len(), k, n)
                && fits(out.len(), end, n),
            "NN tile out of bounds"
        );
        let masks = panel_masks::<V>(n - j);
        let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        let mut acc = [[_mm512_setzero_ps(); V]; MR];
        for kk in 0..k {
            // SAFETY: the assert above gives `(i + MR)·k <= a.len()`, and
            // `kk < k`, so every A offset is in bounds. Each B vector
            // starts inside row `kk < k` (column `j + v·L < n`), and its
            // mask admits only lanes below column `n`; `k·n <= b.len()` by
            // the same assert.
            let (av, bv) = unsafe {
                (
                    std::array::from_fn(|r| *ap.add((i + r) * k + kk)),
                    std::array::from_fn(|v| {
                        _mm512_maskz_loadu_ps(masks[v], bp.add(kk * n + j + v * L))
                    }),
                )
            };
            step(&mut acc, av, &bv);
        }
        for (r, accr) in acc.iter().enumerate() {
            for (v, &accv) in accr.iter().enumerate() {
                // SAFETY: the masks admit only lanes below column `n` of
                // row `i + r < i + MR`, and `(i + MR)·n <= out.len()` by
                // the assert above.
                unsafe { _mm512_mask_storeu_ps(op.add((i + r) * n + j + v * L), masks[v], accv) };
            }
        }
    }

    /// TN range: rows `i0..i1` of `out[m×n] = A[k×m]ᵀ × B[k×n]`, with the
    /// portable body's `KC` blocks and `out` round trip.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn tn_range(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        i0: usize,
        i1: usize,
        k: usize,
        m: usize,
        n: usize,
    ) {
        let full = i1 - (i1 - i0) % MR;
        let (head, tail) = out.split_at_mut((full - i0) * n);
        head.fill(0.0);
        let mut r0 = 0;
        while r0 < k {
            let r1 = (r0 + super::KC).min(k);
            for j in (0..n).step_by(NR) {
                for i in (i0..full).step_by(MR) {
                    if n - j > L {
                        tn_tile::<2>(a, b, head, i, i - i0, j, r0..r1, m, n);
                    } else {
                        tn_tile::<1>(a, b, head, i, i - i0, j, r0..r1, m, n);
                    }
                }
            }
            r0 = r1;
        }
        if full < i1 {
            super::avx2::tn_range(a, b, tail, full, i1, k, m, n);
        }
    }

    /// The TN tile at out rows `o..o + MR` (A columns `i..i + MR`),
    /// columns `j..` (`16·V` of them, or up to `n`): loaded from `out`,
    /// advanced over reduction rows `rows` ascending, stored back.
    #[target_feature(enable = "avx512f")]
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn tn_tile<const V: usize>(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        i: usize,
        o: usize,
        j: usize,
        rows: Range<usize>,
        m: usize,
        n: usize,
    ) {
        assert!(
            j + (V - 1) * L < n
                && i.saturating_add(MR) <= m
                && fits(a.len(), rows.end, m)
                && fits(b.len(), rows.end, n)
                && fits(out.len(), o.saturating_add(MR), n),
            "TN tile out of bounds"
        );
        let masks = panel_masks::<V>(n - j);
        let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        // SAFETY: the masks admit only lanes below column `n` of out row
        // `o + r < o + MR`, and `(o + MR)·n <= out.len()` by the assert
        // above.
        let mut acc: [[__m512; V]; MR] = unsafe {
            std::array::from_fn(|r| {
                std::array::from_fn(|v| {
                    _mm512_maskz_loadu_ps(masks[v], op.add((o + r) * n + j + v * L))
                })
            })
        };
        for rr in rows {
            // SAFETY: `rr < rows.end` and `i + MR <= m`, so every A offset
            // is below `rows.end·m <= a.len()`. Each B vector starts inside
            // row `rr` (column `j + v·L < n`) and its mask admits only lanes
            // below column `n`, below `rows.end·n <= b.len()` — all by the
            // assert above.
            let (av, bv) = unsafe {
                (
                    std::array::from_fn(|r| *ap.add(rr * m + i + r)),
                    std::array::from_fn(|v| {
                        _mm512_maskz_loadu_ps(masks[v], bp.add(rr * n + j + v * L))
                    }),
                )
            };
            step(&mut acc, av, &bv);
        }
        for (r, accr) in acc.iter().enumerate() {
            for (v, &accv) in accr.iter().enumerate() {
                // SAFETY: the lanes the load above read, in bounds by the
                // same assert.
                unsafe { _mm512_mask_storeu_ps(op.add((o + r) * n + j + v * L), masks[v], accv) };
            }
        }
    }
}

/// A kernel tier: which build of the two kernels runs. Ordered by width,
/// so every tier at or below [`Tier::host`] runs on this CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Tier {
    /// The portable body, compiled for the baseline target.
    Scalar,
    /// The portable body's `#[target_feature(enable = "avx2")]` clones.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// The explicit AVX-512 micro-kernels.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Tier {
    /// The widest tier this CPU supports, by CPUID alone
    /// (`is_x86_feature_detected!` caches internally). The AVX-512 tier
    /// hands band remainders to the AVX2 clones, so it needs both.
    fn host() -> Tier {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return if std::arch::is_x86_feature_detected!("avx512f") {
                Tier::Avx512
            } else {
                Tier::Avx2
            };
        }
        Tier::Scalar
    }
}

#[allow(unsafe_code)]
fn run_nn_band(tier: Tier, a: &[f32], b: &[f32], out: &mut [f32], rows: usize, k: usize, n: usize) {
    assert!(tier <= Tier::host(), "{tier:?} kernels need a CPU feature this host lacks");
    match tier {
        Tier::Scalar => nn_band(a, b, out, rows, k, n),
        // SAFETY: the only requirement of a safe `#[target_feature]` fn is
        // that its features are present, which the assert above verified.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => unsafe { avx2::nn_band(a, b, out, rows, k, n) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => unsafe { avx512::nn_band(a, b, out, rows, k, n) },
    }
}

#[allow(clippy::too_many_arguments, unsafe_code)]
fn run_tn_range(
    tier: Tier,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    i0: usize,
    i1: usize,
    k: usize,
    m: usize,
    n: usize,
) {
    assert!(tier <= Tier::host(), "{tier:?} kernels need a CPU feature this host lacks");
    match tier {
        Tier::Scalar => tn_range(a, b, out, i0, i1, k, m, n),
        // SAFETY: the only requirement of a safe `#[target_feature]` fn is
        // that its features are present, which the assert above verified.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => unsafe { avx2::tn_range(a, b, out, i0, i1, k, m, n) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => unsafe { avx512::tn_range(a, b, out, i0, i1, k, m, n) },
    }
}

/// `out = A[m×k] × B[k×n]`, overwriting `out` entirely (dirty buffers are
/// fine).
///
/// # Panics
/// Panics if a slice length disagrees with its shape.
pub fn matmul_into(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
) {
    assert_eq!(a.len(), m * k, "A length mismatch");
    assert_eq!(b.len(), k * n, "B length mismatch");
    assert_eq!(out.len(), m * n, "C length mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    nn_banded(Tier::host(), a, b, out, m, k, n, threads);
}

/// Blocked `out = A[m×k] × B[k×n]` on `tier`, banded over contiguous
/// output-row ranges — the one dispatch behind both the NN and the
/// (packed) NT entry points. Shapes are non-degenerate here.
#[allow(clippy::too_many_arguments)]
fn nn_banded(
    tier: Tier,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
) {
    let workers = band_workers(threads, m, m.saturating_mul(k).saturating_mul(n));
    fan_out_mut(out, n, workers, |i0, ob| {
        let rows = ob.len() / n;
        run_nn_band(tier, &a[i0 * k..(i0 + rows) * k], b, ob, rows, k, n);
    });
}

/// `out = A[m×k] × B[p×k]ᵀ`, overwriting `out` entirely.
///
/// Allocates the `k·p`-float transposition scratch per call; the autodiff
/// tape passes a pooled buffer (`matmul_nt_scratch_into`) instead.
///
/// # Panics
/// Panics if a slice length disagrees with its shape.
pub fn matmul_nt_into(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    p: usize,
    threads: usize,
) {
    let mut bt = vec![0.0f32; b.len()];
    matmul_nt_scratch_into(a, b, &mut bt, out, m, k, p, threads);
}

/// [`matmul_nt_into`] with a caller-owned scratch for the packed `Bᵀ`.
///
/// `B` is transposed once into the first `k·p` floats of `bt` (contents on
/// entry are irrelevant, contents on exit unspecified) and the product
/// runs through the NN band kernel and banding: `out[i][j]` is the same
/// ascending-`k` sum of the same products as the NT reference, so the
/// result is bit-identical to it. In the backward pass `B` is a weight
/// matrix, so the pack is `1/m` of the product's work.
///
/// # Panics
/// Panics if a slice length disagrees with its shape or `bt` is shorter
/// than `k·p`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_nt_scratch_into(
    a: &[f32],
    b: &[f32],
    bt: &mut [f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    p: usize,
    threads: usize,
) {
    assert_eq!(a.len(), m * k, "A length mismatch");
    assert_eq!(b.len(), p * k, "B length mismatch");
    assert_eq!(out.len(), m * p, "C length mismatch");
    assert!(bt.len() >= k * p, "Bᵀ scratch too short");
    if m == 0 || p == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let bt = &mut bt[..k * p];
    transpose_into(b, bt, k);
    nn_banded(Tier::host(), a, bt, out, m, k, p, threads);
}

/// Packs `B[p×k]` into `bt = Bᵀ[k×p]`.
fn transpose_into(b: &[f32], bt: &mut [f32], k: usize) {
    let p = b.len() / k;
    for (j, brow) in b.chunks_exact(k).enumerate() {
        for (kk, &v) in brow.iter().enumerate() {
            bt[kk * p + j] = v;
        }
    }
}

/// `out = A[k×m]ᵀ × B[k×n]`, overwriting `out` entirely.
///
/// # Panics
/// Panics if a slice length disagrees with its shape.
pub fn matmul_tn_into(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    m: usize,
    n: usize,
    threads: usize,
) {
    assert_eq!(a.len(), k * m, "A length mismatch");
    assert_eq!(b.len(), k * n, "B length mismatch");
    assert_eq!(out.len(), m * n, "C length mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    tn_banded(Tier::host(), a, b, out, k, m, n, threads);
}

/// Blocked `out = A[k×m]ᵀ × B[k×n]` on `tier`, banded over contiguous
/// output-row ranges. Shapes are non-degenerate here.
#[allow(clippy::too_many_arguments)]
fn tn_banded(
    tier: Tier,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    m: usize,
    n: usize,
    threads: usize,
) {
    let workers = band_workers(threads, m, m.saturating_mul(k).saturating_mul(n));
    fan_out_mut(out, n, workers, |i0, ob| {
        run_tn_range(tier, a, b, ob, i0, i0 + ob.len() / n, k, m, n);
    });
}

/// NN band: `out[rows×n] = A[rows×k] × B[k×n]`.
///
/// `MR`-row blocks over `NR`-column panels held in register accumulators;
/// the `k` loop is innermost and ascending for every output element.
/// `inline(always)` so the `avx2` shells compile this body at full width.
#[inline(always)]
fn nn_band(a: &[f32], b: &[f32], out: &mut [f32], rows: usize, k: usize, n: usize) {
    let mut i = 0;
    while i + MR <= rows {
        let a0 = &a[i * k..(i + 1) * k];
        let a1 = &a[(i + 1) * k..(i + 2) * k];
        let a2 = &a[(i + 2) * k..(i + 3) * k];
        let a3 = &a[(i + 3) * k..(i + 4) * k];
        let mut j = 0;
        while j + NR <= n {
            let mut acc = [[0.0f32; NR]; MR];
            for kk in 0..k {
                let bp: &[f32; NR] =
                    b[kk * n + j..kk * n + j + NR].try_into().expect("panel width");
                let av = [a0[kk], a1[kk], a2[kk], a3[kk]];
                for (accr, &ar) in acc.iter_mut().zip(&av) {
                    for (av_c, &bv) in accr.iter_mut().zip(bp) {
                        *av_c += ar * bv;
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate() {
                out[(i + r) * n + j..(i + r) * n + j + NR].copy_from_slice(accr);
            }
            j += NR;
        }
        if j < n {
            let w = n - j;
            let mut acc = [[0.0f32; NR]; MR];
            for kk in 0..k {
                let bp = &b[kk * n + j..kk * n + j + w];
                let av = [a0[kk], a1[kk], a2[kk], a3[kk]];
                for (accr, &ar) in acc.iter_mut().zip(&av) {
                    for (av_c, &bv) in accr.iter_mut().zip(bp) {
                        *av_c += ar * bv;
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate() {
                out[(i + r) * n + j..(i + r) * n + n].copy_from_slice(&accr[..w]);
            }
        }
        i += MR;
    }
    while i < rows {
        let ar = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        let mut j = 0;
        while j < n {
            let w = NR.min(n - j);
            let mut acc = [0.0f32; NR];
            for (kk, &av) in ar.iter().enumerate() {
                let bp = &b[kk * n + j..kk * n + j + w];
                for (accc, &bv) in acc.iter_mut().zip(bp) {
                    *accc += av * bv;
                }
            }
            orow[j..j + w].copy_from_slice(&acc[..w]);
            j += w;
        }
        i += 1;
    }
}

/// One `MR`-row tile of the TN kernel over reduction rows `rows`:
/// `acc[r][c] += A[row][i + r] · panel(row)[c]`, rows ascending. `panel`
/// yields a fixed-width `&[f32; NR]` for full panels — which is what keeps
/// the accumulators in registers — and a slice for the ragged last one.
#[inline(always)]
fn tn_tile<'b, P>(
    acc: &mut [[f32; NR]; MR],
    a: &[f32],
    m: usize,
    i: usize,
    rows: std::ops::Range<usize>,
    panel: impl Fn(usize) -> P,
) where
    P: IntoIterator<Item = &'b f32> + Copy,
{
    for r in rows {
        let ap: &[f32; MR] = a[r * m + i..r * m + i + MR].try_into().expect("A block width");
        let bp = panel(r);
        for (accr, &av) in acc.iter_mut().zip(ap) {
            for (accc, &bv) in accr.iter_mut().zip(bp) {
                *accc += av * bv;
            }
        }
    }
}

/// TN range: rows `i0..i1` of `out[m×n] = A[k×m]ᵀ × B[k×n]`.
///
/// `out` covers exactly the `i0..i1` row range. Out rows index columns of
/// `A`, so an `MR` row block reads four *contiguous* values of each `A`
/// row. The reduction is cut into `KC`-row blocks so the `A`/`B` rows a
/// block touches stay cache-resident while every output tile visits them;
/// a tile's accumulators are loaded from `out` at the start of a block and
/// stored back at its end. An `f32` survives that round trip unchanged and
/// the blocks run in ascending order, so every output element is still
/// the single ascending-`r` chain of the reference, which also starts from
/// a zero-filled `out`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tn_range(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    i0: usize,
    i1: usize,
    k: usize,
    m: usize,
    n: usize,
) {
    out.fill(0.0);
    let mut r0 = 0;
    while r0 < k {
        let r1 = (r0 + KC).min(k);
        let mut j = 0;
        while j < n {
            let w = NR.min(n - j);
            let mut i = i0;
            while i + MR <= i1 {
                let o = (i - i0) * n + j;
                let mut acc = [[0.0f32; NR]; MR];
                for (r, accr) in acc.iter_mut().enumerate() {
                    accr[..w].copy_from_slice(&out[o + r * n..o + r * n + w]);
                }
                if w == NR {
                    tn_tile(&mut acc, a, m, i, r0..r1, |r| -> &[f32; NR] {
                        b[r * n + j..r * n + j + NR].try_into().expect("panel width")
                    });
                } else {
                    tn_tile(&mut acc, a, m, i, r0..r1, |r| &b[r * n + j..r * n + j + w]);
                }
                for (r, accr) in acc.iter().enumerate() {
                    out[o + r * n..o + r * n + w].copy_from_slice(&accr[..w]);
                }
                i += MR;
            }
            while i < i1 {
                let o = (i - i0) * n + j;
                let mut acc = [0.0f32; NR];
                acc[..w].copy_from_slice(&out[o..o + w]);
                for r in r0..r1 {
                    let av = a[r * m + i];
                    let bp = &b[r * n + j..r * n + j + w];
                    for (accc, &bv) in acc.iter_mut().zip(bp) {
                        *accc += av * bv;
                    }
                }
                out[o..o + w].copy_from_slice(&acc[..w]);
                i += 1;
            }
            j += w;
        }
        r0 = r1;
    }
}

/// The naive triple-loop kernels: the correctness oracle the blocked
/// kernels are proptested against.
///
/// These mirror the original seed implementation with one fix: no
/// data-dependent `a == 0.0` skip, so `0·NaN` and `0·∞` propagate as IEEE
/// demands (and the hot loop stays branch-free).
pub mod reference {
    /// Naive `C[m×n] = A[m×k] × B[k×n]`; overwrites `out`.
    pub fn matmul(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        out.fill(0.0);
        for i in 0..m {
            for kk in 0..k {
                let av = a[i * k + kk];
                let brow = &b[kk * n..(kk + 1) * n];
                let crow = &mut out[i * n..(i + 1) * n];
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv += av * bv;
                }
            }
        }
    }

    /// Naive `C[m×p] = A[m×k] × B[p×k]ᵀ`; overwrites `out`.
    pub fn matmul_nt(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, p: usize) {
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            for j in 0..p {
                let brow = &b[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&av, &bv) in arow.iter().zip(brow) {
                    acc += av * bv;
                }
                out[i * p + j] = acc;
            }
        }
    }

    /// Naive `C[m×n] = A[k×m]ᵀ × B[k×n]`; overwrites `out`.
    pub fn matmul_tn(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize, n: usize) {
        out.fill(0.0);
        for r in 0..k {
            for i in 0..m {
                let av = a[r * m + i];
                let brow = &b[r * n..(r + 1) * n];
                let crow = &mut out[i * n..(i + 1) * n];
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv += av * bv;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded(len: usize, seed: u64) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let v = ((i as u64 + 1).wrapping_mul(seed.wrapping_mul(2654435761) | 1)) % 1000;
                v as f32 / 500.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn blocked_nn_matches_reference_bitwise() {
        for &(m, k, n) in
            &[(1, 1, 1), (3, 5, 7), (4, 16, 16), (17, 33, 65), (64, 32, 128), (5, 0, 3)]
        {
            let a = seeded(m * k, 7);
            let b = seeded(k * n, 11);
            let mut blocked = vec![9.0f32; m * n];
            let mut naive = vec![-9.0f32; m * n];
            matmul_into(&a, &b, &mut blocked, m, k, n, 1);
            reference::matmul(&a, &b, &mut naive, m, k, n);
            assert_eq!(blocked, naive, "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn blocked_nt_matches_reference_bitwise() {
        for &(m, k, p) in &[(1, 4, 1), (5, 3, 9), (16, 16, 16), (33, 7, 129)] {
            let a = seeded(m * k, 13);
            let b = seeded(p * k, 17);
            let mut blocked = vec![1.0f32; m * p];
            let mut naive = vec![2.0f32; m * p];
            matmul_nt_into(&a, &b, &mut blocked, m, k, p, 1);
            reference::matmul_nt(&a, &b, &mut naive, m, k, p);
            assert_eq!(blocked, naive, "shape {m}x{k}x{p}");
        }
    }

    #[test]
    fn blocked_tn_matches_reference_bitwise() {
        // The last three cross one, two and several `KC` block boundaries.
        for &(k, m, n) in &[
            (1, 1, 1),
            (4, 6, 10),
            (16, 16, 16),
            (29, 35, 67),
            (KC + 1, 6, 17),
            (2 * KC + 3, 9, 33),
            (3200, 5, 16),
        ] {
            let a = seeded(k * m, 19);
            let b = seeded(k * n, 23);
            let mut blocked = vec![3.0f32; m * n];
            let mut naive = vec![4.0f32; m * n];
            matmul_tn_into(&a, &b, &mut blocked, k, m, n, 1);
            reference::matmul_tn(&a, &b, &mut naive, k, m, n);
            assert_eq!(blocked, naive, "shape {k}x{m}x{n}");
        }
    }

    #[test]
    fn banded_matches_single_thread_bitwise() {
        // Shapes above the banding threshold: results must not depend on
        // the worker count.
        let (m, k, n) = (512, 64, 160);
        let a = seeded(m * k, 29);
        let b = seeded(k * n, 31);
        let mut serial = vec![0.0f32; m * n];
        matmul_into(&a, &b, &mut serial, m, k, n, 1);
        for threads in [2, 3, 4, 8] {
            let mut banded = vec![7.0f32; m * n];
            matmul_into(&a, &b, &mut banded, m, k, n, threads);
            assert_eq!(banded, serial, "{threads} threads diverged");
        }
        let bnt = seeded(160 * k, 53); // viewed as p×k for NT
        let mut serial_nt = vec![0.0f32; m * 160];
        matmul_nt_into(&a, &bnt, &mut serial_nt, m, k, 160, 1);
        let mut naive_nt = vec![0.0f32; m * 160];
        reference::matmul_nt(&a, &bnt, &mut naive_nt, m, k, 160);
        assert_eq!(serial_nt, naive_nt, "packed NT diverged from the reference");
        for threads in [2, 3, 4] {
            let mut banded = vec![6.0f32; m * 160];
            matmul_nt_into(&a, &bnt, &mut banded, m, k, 160, threads);
            assert_eq!(banded, serial_nt, "NT {threads} threads diverged");
        }
        let at = seeded(512 * 64, 37); // viewed as k×m for TN
        let bt = seeded(512 * 160, 41);
        let mut serial_tn = vec![0.0f32; 64 * 160];
        matmul_tn_into(&at, &bt, &mut serial_tn, 512, 64, 160, 1);
        for threads in [2, 4] {
            let mut banded = vec![5.0f32; 64 * 160];
            matmul_tn_into(&at, &bt, &mut banded, 512, 64, 160, threads);
            assert_eq!(banded, serial_tn, "TN {threads} threads diverged");
        }
    }

    /// Bit patterns with every NaN folded onto one (a NaN's sign and
    /// payload are unspecified per operation; which elements are NaN is
    /// not).
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
    }

    /// [`seeded`] with +∞, −∞ and NaN dropped in, so poisoned rows and
    /// columns cross tile edges too.
    fn poisoned(len: usize, seed: u64) -> Vec<f32> {
        let mut v = seeded(len, seed);
        for (n, special) in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN].into_iter().enumerate() {
            if len > 2 {
                v[(seed as usize * 7 + n * 13) % len] = special;
            }
        }
        v
    }

    #[test]
    fn every_host_tier_matches_reference_bitwise() {
        // Dispatch picks one tier per CPU, so the public entry points never
        // run the narrower ones here; hold each tier against the reference
        // directly, on both sides of the 4×16 and 8×32 tile edges and of a
        // `KC` block, plus one shape banded over three workers.
        let tiers = [
            Tier::Scalar,
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2,
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512,
        ];
        let rows = [1, 3, 4, 7, 8, 9, 17];
        let cols = [1, 15, 16, 17, 31, 32, 33, 48, 65];
        let mut shapes: Vec<(usize, usize, usize, usize)> = Vec::new();
        for &m in &rows {
            for &n in &cols {
                for k in [1, 5, KC + 3] {
                    shapes.push((m, k, n, 1));
                }
            }
        }
        shapes.push((512, 64, 160, 3));
        for tier in tiers.into_iter().filter(|&t| t <= Tier::host()) {
            for &(m, k, n, threads) in &shapes {
                let a = poisoned(m * k, 3 + m as u64);
                let b = poisoned(k * n, 5 + n as u64);
                let mut naive = vec![0.0f32; m * n];
                let mut got = vec![f32::NAN; m * n];
                reference::matmul(&a, &b, &mut naive, m, k, n);
                nn_banded(tier, &a, &b, &mut got, m, k, n, threads);
                assert_eq!(bits(&got), bits(&naive), "{tier:?} NN {m}x{k}x{n}");

                // NT: `b` read as `B[n×k]`, packed as the entry point does.
                let mut bt = vec![0.0f32; k * n];
                transpose_into(&b, &mut bt, k);
                reference::matmul_nt(&a, &b, &mut naive, m, k, n);
                got.fill(f32::NAN);
                nn_banded(tier, &a, &bt, &mut got, m, k, n, threads);
                assert_eq!(bits(&got), bits(&naive), "{tier:?} NT {m}x{k}x{n}");

                // TN: `a` read as `A[k×m]`.
                reference::matmul_tn(&a, &b, &mut naive, k, m, n);
                got.fill(f32::NAN);
                tn_banded(tier, &a, &b, &mut got, k, m, n, threads);
                assert_eq!(bits(&got), bits(&naive), "{tier:?} TN {k}x{m}x{n}");
            }
        }
    }

    #[test]
    fn reference_switch_is_bit_transparent() {
        // Above the banding threshold, where `blocked_nn_*` does not reach.
        let (m, k, n) = (512, 64, 160);
        let a = seeded(m * k, 43);
        let b = seeded(k * n, 47);
        let mut naive = vec![1.0f32; m * n];
        reference::matmul(&a, &b, &mut naive, m, k, n);
        for threads in [1, 4] {
            let mut blocked = vec![0.0f32; m * n];
            matmul_into(&a, &b, &mut blocked, m, k, n, threads);
            assert_eq!(blocked, naive, "{threads} threads diverged from the reference");
        }
    }
}
