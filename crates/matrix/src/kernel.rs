//! Packed, register-tiled GEMM core (BLIS-style five-loop structure).
//!
//! The driver walks C in `NC`-wide column slabs and `KC`-deep rank updates.
//! For each slab the relevant `KC x NC` block of B is packed once into
//! contiguous `NR`-wide column panels; for each `MC x KC` block of A packed
//! into `MR`-tall row panels, an `MR x NR` register-tiled micro-kernel
//! performs the innermost rank-KC update. Packing buffers come from the
//! per-thread [`crate::workspace::Workspace`], so steady-state execution
//! performs no heap allocation.
//!
//! Two micro-kernel shapes are compiled from one const-generic body and
//! selected at runtime by problem shape: `8 x 4` for tall-enough blocks,
//! `4 x 4` when fewer than eight rows remain in the whole problem.
//!
//! Everything here works on a raw pointer for C, written tile by tile at
//! strided offsets; [`crate::gemm`] is the safe entry point.

// BLAS-shaped signatures (m, n, k, alpha, a, lda, …) throughout.
#![allow(clippy::too_many_arguments)]

use crate::workspace::with_workspace;

/// Rows per A micro-panel (large variant).
pub const MR: usize = 8;
/// Rows per A micro-panel (small variant, used when `m < MR`).
pub const MR_SMALL: usize = 4;
/// Columns per B micro-panel.
pub const NR: usize = 4;
/// Rows of A packed per cache block (fits L2 alongside the B panel slice).
pub const MC: usize = 128;
/// Depth of one packed rank-update block.
pub const KC: usize = 256;
/// Columns of B packed per outer slab.
pub const NC: usize = 1024;

#[inline]
fn round_up(x: usize, a: usize) -> usize {
    x.div_ceil(a) * a
}

/// Pack `A[0..mc, pc..pc+kc]` (column-major, ld `lda`) into `MR_P`-tall row
/// panels: panel `i` holds rows `i*MR_P..` stored as `kc` consecutive
/// groups of `MR_P` values, zero-padded on the bottom edge.
// dcst-hot
fn pack_a<const MR_P: usize>(mc: usize, kc: usize, a: &[f64], lda: usize, dst: &mut [f64]) {
    debug_assert!(dst.len() >= round_up(mc, MR_P) * kc);
    let mut offset = 0;
    let mut ir = 0;
    while ir < mc {
        let pr = MR_P.min(mc - ir);
        if pr == MR_P {
            for p in 0..kc {
                let src = &a[ir + p * lda..ir + p * lda + MR_P];
                dst[offset + p * MR_P..offset + (p + 1) * MR_P].copy_from_slice(src);
            }
        } else {
            for p in 0..kc {
                let src = &a[ir + p * lda..ir + p * lda + pr];
                let out = &mut dst[offset + p * MR_P..offset + (p + 1) * MR_P];
                out[..pr].copy_from_slice(src);
                out[pr..].fill(0.0);
            }
        }
        offset += kc * MR_P;
        ir += MR_P;
    }
}

/// Pack `B[0..kc, 0..nc]` (column-major, ld `ldb`) into `NR`-wide column
/// panels: panel `j` holds columns `j*NR..` stored as `kc` consecutive
/// groups of `NR` values, zero-padded on the right edge.
// dcst-hot
fn pack_b(kc: usize, nc: usize, b: &[f64], ldb: usize, dst: &mut [f64]) {
    debug_assert!(dst.len() >= kc * round_up(nc, NR));
    let mut offset = 0;
    let mut jr = 0;
    while jr < nc {
        let qr = NR.min(nc - jr);
        for p in 0..kc {
            let out = &mut dst[offset + p * NR..offset + (p + 1) * NR];
            for (c, o) in out.iter_mut().enumerate().take(qr) {
                *o = b[p + (jr + c) * ldb];
            }
            out[qr..].fill(0.0);
        }
        offset += kc * NR;
        jr += NR;
    }
}

/// `MR_P x NR` micro-kernel body: `C[0..mr, 0..nr] += alpha * Ap * Bp`
/// where `Ap`/`Bp` are packed panels of depth `kc`. The accumulator lives
/// in registers; the zero padding in the panels makes the multiply loop
/// shape-independent, only the write-back respects `mr`/`nr`.
///
/// Always-inlined so the `#[target_feature]` wrappers below recompile the
/// same body with wider vector ISAs.
///
/// # Safety
/// `c` must be valid for reads and writes at `c[i + j*ldc]` for all
/// `i < mr`, `j < nr`.
#[inline(always)]
// dcst-hot
unsafe fn microkernel_body<const MR_P: usize>(
    kc: usize,
    alpha: f64,
    ap: &[f64],
    bp: &[f64],
    c: *mut f64,
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    debug_assert!(ap.len() >= kc * MR_P && bp.len() >= kc * NR);
    let mut acc = [[0.0f64; MR_P]; NR];
    // `chunks_exact` hands LLVM compile-time panel widths, so the inner
    // loops fully unroll into bounds-check-free vector FMAs.
    for (a, b) in ap.chunks_exact(MR_P).zip(bp.chunks_exact(NR)).take(kc) {
        for (j, accj) in acc.iter_mut().enumerate() {
            let bj = b[j];
            for i in 0..MR_P {
                accj[i] += a[i] * bj;
            }
        }
    }
    if mr == MR_P && nr == NR {
        for (j, accj) in acc.iter().enumerate() {
            let col = c.add(j * ldc);
            for (i, &v) in accj.iter().enumerate() {
                *col.add(i) += alpha * v;
            }
        }
    } else {
        for (j, accj) in acc.iter().enumerate().take(nr) {
            let col = c.add(j * ldc);
            for (i, &v) in accj.iter().enumerate().take(mr) {
                *col.add(i) += alpha * v;
            }
        }
    }
}

/// Micro-kernel entry point type: one monomorphization per panel height.
type MicroFn = unsafe fn(usize, f64, &[f64], &[f64], *mut f64, usize, usize, usize);

// dcst-hot
unsafe fn microkernel_generic<const MR_P: usize>(
    kc: usize,
    alpha: f64,
    ap: &[f64],
    bp: &[f64],
    c: *mut f64,
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    microkernel_body::<MR_P>(kc, alpha, ap, bp, c, ldc, mr, nr)
}

/// The portable x86-64 baseline is SSE2; recompiling the identical body
/// with FMA + 256/512-bit vectors is worth 2-4x on the multiply loop, so
/// the dispatcher below picks the widest ISA the running CPU reports.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
// dcst-hot
unsafe fn microkernel_avx2<const MR_P: usize>(
    kc: usize,
    alpha: f64,
    ap: &[f64],
    bp: &[f64],
    c: *mut f64,
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    microkernel_body::<MR_P>(kc, alpha, ap, bp, c, ldc, mr, nr)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
// dcst-hot
unsafe fn microkernel_avx512<const MR_P: usize>(
    kc: usize,
    alpha: f64,
    ap: &[f64],
    bp: &[f64],
    c: *mut f64,
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    microkernel_body::<MR_P>(kc, alpha, ap, bp, c, ldc, mr, nr)
}

/// Pick the widest micro-kernel the CPU supports, through the shared
/// workspace dispatcher (one detection, one `DCST_FORCE_SCALAR` knob).
// dcst-hot
fn select_microkernel<const MR_P: usize>() -> MicroFn {
    #[cfg(target_arch = "x86_64")]
    {
        match crate::simd::simd_level() {
            crate::simd::SimdLevel::Avx512 => microkernel_avx512::<MR_P>,
            crate::simd::SimdLevel::Avx2 => microkernel_avx2::<MR_P>,
            crate::simd::SimdLevel::Scalar => microkernel_generic::<MR_P>,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        microkernel_generic::<MR_P>
    }
}

/// Sweep all micro-tiles of one packed (A-block, B-slab) pair.
///
/// # Safety
/// `c` must cover the `mc x nc` block with leading dimension `ldc`.
// dcst-hot
unsafe fn macro_kernel<const MR_P: usize>(
    mc: usize,
    nc: usize,
    kc: usize,
    alpha: f64,
    a_pack: &[f64],
    b_pack: &[f64],
    c: *mut f64,
    ldc: usize,
) {
    let micro = select_microkernel::<MR_P>();
    let mut jr = 0;
    while jr < nc {
        let nr = NR.min(nc - jr);
        let bp = &b_pack[(jr / NR) * kc * NR..];
        let mut ir = 0;
        while ir < mc {
            let mr = MR_P.min(mc - ir);
            let ap = &a_pack[(ir / MR_P) * kc * MR_P..];
            micro(kc, alpha, ap, bp, c.add(ir + jr * ldc), ldc, mr, nr);
            ir += MR_P;
        }
        jr += NR;
    }
}

/// Scale the `m x n` block at `c` by `beta` (0 ⇒ overwrite with zeros).
///
/// # Safety
/// `c` must cover the block with leading dimension `ldc`.
// dcst-hot
unsafe fn scale_c(m: usize, n: usize, beta: f64, c: *mut f64, ldc: usize) {
    if beta == 1.0 {
        return;
    }
    for j in 0..n {
        let col = c.add(j * ldc);
        if beta == 0.0 {
            std::slice::from_raw_parts_mut(col, m).fill(0.0);
        } else {
            for i in 0..m {
                *col.add(i) *= beta;
            }
        }
    }
}

/// Rank-k update without packing, for depths where packing traffic would
/// dominate: the classic AXPY sweep, one B element at a time.
///
/// # Safety
/// `c` must cover the `m x n` block with leading dimension `ldc`; beta must
/// already have been applied.
// dcst-hot
unsafe fn gemm_smallk_raw(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: *mut f64,
    ldc: usize,
) {
    for j in 0..n {
        let col = c.add(j * ldc);
        for l in 0..k {
            let t = alpha * b[l + j * ldb];
            if t != 0.0 {
                let acol = &a[l * lda..l * lda + m];
                for (i, &ai) in acol.iter().enumerate() {
                    *col.add(i) += t * ai;
                }
            }
        }
    }
}

/// Depth below which the unpacked AXPY sweep beats pack + micro-kernel.
const SMALL_K: usize = 8;

/// Full packed GEMM on a raw C pointer: `C = alpha*A*B + beta*C`.
///
/// # Safety
/// `c` must be valid for reads/writes at `c[i + j*ldc]` for `i < m`,
/// `j < n`, and no other thread may access those elements concurrently.
/// `a` and `b` must cover `m x k` (ld `lda`) and `k x n` (ld `ldb`).
// dcst-hot
pub(crate) unsafe fn gemm_packed_raw(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: *mut f64,
    ldc: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    scale_c(m, n, beta, c, ldc);
    if k == 0 || alpha == 0.0 {
        return;
    }
    if k < SMALL_K {
        gemm_smallk_raw(m, n, k, alpha, a, lda, b, ldb, c, ldc);
        return;
    }
    // Micro-kernel height: the 8x4 kernel whenever a full 8-row panel
    // exists; narrow problems fall back to 4x4 to waste less padding.
    if m >= MR {
        gemm_blocked::<MR>(m, n, k, alpha, a, lda, b, ldb, c, ldc);
    } else {
        gemm_blocked::<MR_SMALL>(m, n, k, alpha, a, lda, b, ldb, c, ldc);
    }
}

/// The five-loop blocked driver for one micro-kernel height.
///
/// # Safety
/// As for [`gemm_packed_raw`]; beta must already have been applied.
// dcst-hot
unsafe fn gemm_blocked<const MR_P: usize>(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: *mut f64,
    ldc: usize,
) {
    with_workspace(|ws| {
        let mut jc = 0;
        while jc < n {
            let nc = NC.min(n - jc);
            let mut pc = 0;
            while pc < k {
                let kc = KC.min(k - pc);
                let (a_pack, b_pack) =
                    ws.panels(round_up(m.min(MC), MR_P) * kc, kc * round_up(nc, NR));
                pack_b(kc, nc, &b[pc + jc * ldb..], ldb, b_pack);
                let mut ic = 0;
                while ic < m {
                    let mc = MC.min(m - ic);
                    pack_a::<MR_P>(mc, kc, &a[ic + pc * lda..], lda, a_pack);
                    macro_kernel::<MR_P>(
                        mc,
                        nc,
                        kc,
                        alpha,
                        a_pack,
                        b_pack,
                        c.add(ic + jc * ldc),
                        ldc,
                    );
                    ic += mc;
                }
                pc += kc;
            }
            jc += nc;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_a_pads_ragged_panels() {
        // 5x3 block out of a 6-row matrix, MR_P = 4: two panels of 4.
        let lda = 6;
        let a: Vec<f64> = (0..lda * 3).map(|x| x as f64).collect();
        let mut dst = vec![-1.0; 8 * 3];
        pack_a::<4>(5, 3, &a, lda, &mut dst);
        // Panel 0, p=0 holds rows 0..4 of column 0.
        assert_eq!(&dst[0..4], &[0.0, 1.0, 2.0, 3.0]);
        // Panel 1, p=0 holds row 4 then zero padding.
        assert_eq!(&dst[12..16], &[4.0, 0.0, 0.0, 0.0]);
        // Panel 1, p=2 holds row 4 of column 2.
        assert_eq!(&dst[20..24], &[16.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn pack_b_pads_ragged_panels() {
        // 2x5 block, ldb = 3: two panels of width 4.
        let ldb = 3;
        let b: Vec<f64> = (0..ldb * 5).map(|x| x as f64).collect();
        let mut dst = vec![-1.0; 2 * 8];
        pack_b(2, 5, &b, ldb, &mut dst);
        // Panel 0, p=0: row 0 of columns 0..4.
        assert_eq!(&dst[0..4], &[0.0, 3.0, 6.0, 9.0]);
        // Panel 0, p=1: row 1 of columns 0..4.
        assert_eq!(&dst[4..8], &[1.0, 4.0, 7.0, 10.0]);
        // Panel 1, p=0: row 0 of column 4, padded.
        assert_eq!(&dst[8..12], &[12.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn microkernel_edge_write_respects_bounds() {
        // kc = 1, A panel = [1,2,0,0] (mr = 2), B panel = [3,4,5,0] (nr = 3).
        let ap = [1.0, 2.0, 0.0, 0.0];
        let bp = [3.0, 4.0, 5.0, 0.0];
        let ldc = 3;
        let mut c = vec![10.0; ldc * 4];
        // SAFETY: packed panels hold kc*MR / kc*NR elements and c spans
        // ldc*4 >= (nr-1)*ldc + mr, the extent the micro-kernel writes.
        unsafe { microkernel_generic::<4>(1, 1.0, &ap, &bp, c.as_mut_ptr(), ldc, 2, 3) };
        assert_eq!(c[0], 13.0);
        assert_eq!(c[1], 16.0);
        assert_eq!(c[2], 10.0, "row past mr untouched");
        assert_eq!(c[ldc], 14.0);
        assert_eq!(c[2 * ldc], 15.0);
        assert_eq!(c[3 * ldc], 10.0, "column past nr untouched");
    }
}
