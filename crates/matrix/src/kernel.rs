//! Register-tiled GEMM core: one blocked driver over a small table of
//! explicit-FMA micro-kernels, one per [`SimdLevel`].
//!
//! | level   | tile `mr × nr` | accumulators (+ A, B registers) | `mc` |
//! |---------|----------------|---------------------------------|------|
//! | AVX-512 | 24 × 8         | 24 zmm (+ 3 + 1–2 of 32)        | 192  |
//! | AVX2    | 8 × 6          | 12 ymm (+ 2 + 1 of 16)          | 192  |
//! | scalar  | 8 × 2          | 16 `f64`, autovectorised (8 xmm of 16 on SSE2) | 192 |
//!
//! All three are the same generic tile body ([`tile`]) instantiated over a
//! register type ([`Lanes`]): per k-step it loads `mr` rows of A, broadcasts
//! `nr` values of B and issues `mr/N · nr` independent multiply-adds. The
//! SIMD impls call the FMA intrinsics directly — Rust never contracts
//! `a * b + c`, so `#[target_feature(enable = "fma")]` on an autovectorised
//! body emits `vmulpd` + `vaddpd` — and 24 (12) independent chains cover
//! FMA latency × 2 ports where the old 8 × 4 tile's four did not. The tile
//! is as large as the register file allows *without a spill in the k-loop*:
//! 12 × 4 on AVX2 and 8 × 4 on SSE2 need all 16 registers for accumulators
//! and operands, and measured half the rate of the shapes above.
//!
//! The driver ([`gemm_raw`]) walks C in `NC`-wide column slabs and `KC`-deep
//! rank updates. Only B is packed (into `nr`-wide column panels, zero-padded
//! on the right edge, in the per-thread [`crate::workspace::Workspace`]): the
//! micro-kernel takes A's **column stride** and reads the column-major
//! operand in place, `mc` rows at a time so the block stays in L2 across the
//! sweep over B's panels. The ragged last `m % mr` rows and `n % nr` columns
//! go through masked loads and stores, so nothing past `m`/`n` is touched.
//!
//! Everything here works on raw pointers; [`crate::gemm`] is the safe,
//! extent-checked entry point.

// BLAS-shaped signatures (m, n, k, alpha, a, lda, …) throughout.
#![allow(clippy::too_many_arguments)]

use crate::simd::SimdLevel;
use crate::workspace::with_workspace;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// Depth of one rank-update block: a packed `KC × nr` panel of B stays in
/// L1 while the A block streams past it.
const KC: usize = 256;
/// Columns of B packed per outer slab.
const NC: usize = 1024;

/// One register of `f64` lanes, as the tile body uses it. Implementations
/// mark every method `#[inline(always)]` so the `#[target_feature]` entry
/// points below compile the one generic body with their ISA.
///
/// # Safety
/// Every method requires that the running CPU supports the implementing
/// type's ISA; the pointer methods additionally require the selected lanes
/// (all `N`, or those the mask enables) to be valid for the access.
trait Lanes: Copy {
    /// Lanes per register.
    const N: usize;
    type Mask: Copy;
    /// Mask enabling the first `rows.min(N)` lanes.
    unsafe fn mask(rows: usize) -> Self::Mask;
    unsafe fn splat(x: f64) -> Self;
    unsafe fn load(p: *const f64) -> Self;
    /// Disabled lanes read as zero and are not accessed.
    unsafe fn load_masked(p: *const f64, m: Self::Mask) -> Self;
    unsafe fn store(p: *mut f64, v: Self);
    /// Disabled lanes are not accessed.
    unsafe fn store_masked(p: *mut f64, m: Self::Mask, v: Self);
    /// `a * b + c`, fused where the ISA has FMA.
    unsafe fn madd(a: Self, b: Self, c: Self) -> Self;
}

/// The portable register: one lane, unfused multiply-add. Eight of them per
/// column unroll into the autovectorised 8 × 2 body.
impl Lanes for f64 {
    const N: usize = 1;
    type Mask = bool;
    #[inline(always)]
    unsafe fn mask(rows: usize) -> bool {
        rows > 0
    }
    #[inline(always)]
    unsafe fn splat(x: f64) -> f64 {
        x
    }
    #[inline(always)]
    unsafe fn load(p: *const f64) -> f64 {
        *p
    }
    #[inline(always)]
    unsafe fn load_masked(p: *const f64, m: bool) -> f64 {
        if m {
            *p
        } else {
            0.0
        }
    }
    #[inline(always)]
    unsafe fn store(p: *mut f64, v: f64) {
        *p = v
    }
    #[inline(always)]
    unsafe fn store_masked(p: *mut f64, m: bool, v: f64) {
        if m {
            *p = v
        }
    }
    #[inline(always)]
    unsafe fn madd(a: f64, b: f64, c: f64) -> f64 {
        a * b + c
    }
}

#[cfg(target_arch = "x86_64")]
impl Lanes for __m256d {
    const N: usize = 4;
    type Mask = __m256i;
    #[inline(always)]
    unsafe fn mask(rows: usize) -> __m256i {
        _mm256_cmpgt_epi64(
            _mm256_set1_epi64x(rows as i64),
            _mm256_setr_epi64x(0, 1, 2, 3),
        )
    }
    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        _mm256_set1_pd(x)
    }
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        _mm256_loadu_pd(p)
    }
    #[inline(always)]
    unsafe fn load_masked(p: *const f64, m: __m256i) -> Self {
        _mm256_maskload_pd(p, m)
    }
    #[inline(always)]
    unsafe fn store(p: *mut f64, v: Self) {
        _mm256_storeu_pd(p, v)
    }
    #[inline(always)]
    unsafe fn store_masked(p: *mut f64, m: __m256i, v: Self) {
        _mm256_maskstore_pd(p, m, v)
    }
    #[inline(always)]
    unsafe fn madd(a: Self, b: Self, c: Self) -> Self {
        _mm256_fmadd_pd(a, b, c)
    }
}

#[cfg(target_arch = "x86_64")]
impl Lanes for __m512d {
    const N: usize = 8;
    type Mask = __mmask8;
    #[inline(always)]
    unsafe fn mask(rows: usize) -> __mmask8 {
        ((1u32 << rows.min(8)) - 1) as __mmask8
    }
    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        _mm512_set1_pd(x)
    }
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        _mm512_loadu_pd(p)
    }
    #[inline(always)]
    unsafe fn load_masked(p: *const f64, m: __mmask8) -> Self {
        _mm512_maskz_loadu_pd(m, p)
    }
    #[inline(always)]
    unsafe fn store(p: *mut f64, v: Self) {
        _mm512_storeu_pd(p, v)
    }
    #[inline(always)]
    unsafe fn store_masked(p: *mut f64, m: __mmask8, v: Self) {
        _mm512_mask_storeu_pd(p, m, v)
    }
    #[inline(always)]
    unsafe fn madd(a: Self, b: Self, c: Self) -> Self {
        _mm512_fmadd_pd(a, b, c)
    }
}

/// One micro-kernel call: `C[0..mr, 0..nr] += alpha · A[0..mr, 0..kc] · Bp`,
/// where A is read in place (column `p` at `a + p·lda`) and `Bp` is a packed
/// panel of `kc` groups of the variant's `nr` values.
///
/// # Safety
/// What a call requires of these fields: `a` valid for reads at
/// `a[i + p·lda]` for `i < mr`, `p < kc` — `(kc−1)·lda + mr` elements; `bp`
/// for `kc·nr` reads (the variant's full `nr`); `c` for reads and writes at
/// `c[i + j·ldc]` for `i < mr`, `j < nr`, with no concurrent access to those
/// elements; `1 ≤ mr`, `nr` ≤ the variant's tile.
#[derive(Clone, Copy)]
struct TileArgs {
    kc: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    bp: *const f64,
    c: *mut f64,
    ldc: usize,
    mr: usize,
    nr: usize,
}

/// The micro-kernel body on an `RV·N × NR` register tile. The accumulators
/// `[[V; RV]; NR]` live in registers: every loop over them has a constant
/// trip count. `FULL` tiles (`mr = RV·N`, `nr = NR`) use plain loads and
/// stores; edge tiles mask the rows past `mr` (so they are neither read
/// from A nor written to C) and skip the columns past `nr`.
///
/// # Safety
/// The CPU must support `V`'s ISA, and `t` must meet [`TileArgs`]'s
/// contract with `FULL` saying whether the tile is a whole one.
#[inline(always)]
// dcst-hot
unsafe fn tile<V: Lanes, const RV: usize, const NR: usize, const FULL: bool>(t: TileArgs) {
    let mut masks = [V::mask(0); RV];
    for (r, m) in masks.iter_mut().enumerate() {
        *m = V::mask(t.mr.saturating_sub(r * V::N));
    }
    // A masked-off register may start past the end of the operand, where
    // `add` itself would be out of bounds; `wrapping_add` only forms the
    // address, and a fully masked access touches nothing.
    let mut acc = [[V::splat(0.0); RV]; NR];
    for p in 0..t.kc {
        let ap = t.a.add(p * t.lda);
        let mut av = [V::splat(0.0); RV];
        for (r, v) in av.iter_mut().enumerate() {
            *v = if FULL {
                V::load(ap.add(r * V::N))
            } else {
                V::load_masked(ap.wrapping_add(r * V::N), masks[r])
            };
        }
        for (j, accj) in acc.iter_mut().enumerate() {
            let bj = V::splat(*t.bp.add(p * NR + j));
            for (r, x) in accj.iter_mut().enumerate() {
                *x = V::madd(av[r], bj, *x);
            }
        }
    }
    let alpha = V::splat(t.alpha);
    for (j, accj) in acc.iter().enumerate() {
        if FULL || j < t.nr {
            let col = t.c.add(j * t.ldc);
            for (r, &x) in accj.iter().enumerate() {
                if FULL {
                    let p = col.add(r * V::N);
                    V::store(p, V::madd(alpha, x, V::load(p)));
                } else {
                    let p = col.wrapping_add(r * V::N);
                    let old = V::load_masked(p, masks[r]);
                    V::store_masked(p, masks[r], V::madd(alpha, x, old));
                }
            }
        }
    }
}

/// Whole-or-edge dispatch shared by the three entry points.
///
/// # Safety
/// As for [`tile`].
#[inline(always)]
// dcst-hot
unsafe fn tile_any<V: Lanes, const RV: usize, const NR: usize>(t: TileArgs) {
    if t.mr == RV * V::N && t.nr == NR {
        tile::<V, RV, NR, true>(t)
    } else {
        tile::<V, RV, NR, false>(t)
    }
}

// The entry points: the one body compiled per ISA. Safety as for [`tile`].

// dcst-hot
unsafe fn tile_scalar(t: TileArgs) {
    tile_any::<f64, 8, 2>(t)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
// dcst-hot
unsafe fn tile_avx2(t: TileArgs) {
    tile_any::<__m256d, 2, 6>(t)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
// dcst-hot
unsafe fn tile_avx512(t: TileArgs) {
    tile_any::<__m512d, 3, 8>(t)
}

/// One row of the variant table: a micro-kernel and the blocking it wants.
#[derive(Clone, Copy)]
pub(crate) struct MicroKernel {
    /// The ISA `run` was compiled for.
    pub level: SimdLevel,
    /// Register tile, rows × columns.
    pub mr: usize,
    pub nr: usize,
    /// Rows of A swept per cache block; a multiple of `mr`, so only the
    /// last block of a product has a ragged panel.
    pub mc: usize,
    run: unsafe fn(TileArgs),
}

/// The micro-kernel compiled for `level` (the scalar one where this target
/// has nothing wider). Whether the CPU can *run* it is
/// [`crate::simd::cpu_supports`]'s question.
pub(crate) fn variant(level: SimdLevel) -> MicroKernel {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => MicroKernel {
            level,
            mr: 24,
            nr: 8,
            mc: 192,
            run: tile_avx512,
        },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => MicroKernel {
            level,
            mr: 8,
            nr: 6,
            mc: 192,
            run: tile_avx2,
        },
        _ => MicroKernel {
            level: SimdLevel::Scalar,
            mr: 8,
            nr: 2,
            mc: 192,
            run: tile_scalar,
        },
    }
}

/// Pack `B[0..kc, 0..nc]` (column-major, ld `ldb`) into `nr`-wide column
/// panels: panel `j` holds columns `j*nr..` stored as `kc` consecutive
/// groups of `nr` values, zero-padded on the right edge.
// dcst-hot
fn pack_b(nr: usize, kc: usize, nc: usize, b: &[f64], ldb: usize, dst: &mut [f64]) {
    debug_assert!(dst.len() >= kc * nc.next_multiple_of(nr));
    let mut offset = 0;
    let mut jr = 0;
    while jr < nc {
        let qr = nr.min(nc - jr);
        for p in 0..kc {
            let out = &mut dst[offset + p * nr..offset + (p + 1) * nr];
            for (c, o) in out.iter_mut().enumerate().take(qr) {
                *o = b[p + (jr + c) * ldb];
            }
            out[qr..].fill(0.0);
        }
        offset += kc * nr;
        jr += nr;
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

/// The blocked driver, `C = alpha·A·B + beta·C`, for any row of the variant
/// table.
///
/// # Safety
/// The CPU must support `uk.level`. `a` must be valid for reads at
/// `a[i + p·lda]` for `i < m`, `p < k` — `(k−1)·lda + m` elements — and is
/// read through the raw pointer with no further check; `c` must be valid
/// for reads and writes at `c[i + j·ldc]` for `i < m`, `j < n`, and no
/// other thread may access those elements concurrently. `b` (`k × n`, ld
/// `ldb`) is a slice and stays bounds-checked.
// dcst-hot
pub(crate) unsafe fn gemm_raw(
    uk: MicroKernel,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: *mut f64,
    ldc: usize,
) {
    debug_assert!(crate::simd::cpu_supports(uk.level));
    if m == 0 || n == 0 {
        return;
    }
    scale_c(m, n, beta, c, ldc);
    if k == 0 || alpha == 0.0 {
        return;
    }
    with_workspace(|ws| {
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                let b_pack = ws.panel(kc * nc.next_multiple_of(uk.nr));
                pack_b(uk.nr, kc, nc, &b[pc + jc * ldb..], ldb, b_pack);
                for ic in (0..m).step_by(uk.mc) {
                    let mc = uk.mc.min(m - ic);
                    for jr in (0..nc).step_by(uk.nr) {
                        let nr = uk.nr.min(nc - jr);
                        // Panel `jr / nr` starts at `(jr / nr)·kc·nr`.
                        let bp = b_pack[jr * kc..].as_ptr();
                        for ir in (0..mc).step_by(uk.mr) {
                            let mr = uk.mr.min(mc - ir);
                            let (i, j) = (ic + ir, jc + jr);
                            (uk.run)(TileArgs {
                                kc,
                                alpha,
                                a: a.add(i + pc * lda),
                                lda,
                                bp,
                                c: c.add(i + j * ldc),
                                ldc,
                                mr,
                                nr,
                            });
                        }
                    }
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::tests::gemm_naive;
    use crate::simd::cpu_supports;

    const LEVELS: [SimdLevel; 3] = [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512];

    /// The variant for `level`, if this build has one and the CPU runs it.
    fn runnable(level: SimdLevel) -> Option<MicroKernel> {
        let uk = variant(level);
        (uk.level == level && cpu_supports(level)).then_some(uk)
    }

    /// Deterministic fill in [-1, 1): the sweep below is a table, not a
    /// property test, so a failure names its case.
    fn fill(len: usize, seed: usize) -> Vec<f64> {
        (0..len)
            .map(|i| ((i * 7919 + seed * 104_729) % 2003) as f64 / 1001.5 - 1.0)
            .collect()
    }

    /// Run the full driver with `uk` on an `m × n × k` product whose
    /// operands sit at odd offsets inside larger buffers with slack leading
    /// dimensions, and compare with the naive oracle: every element of the
    /// C buffer — the product, the slack rows and the margins around the
    /// block — must match, the untouched ones bitwise.
    fn check(uk: MicroKernel, m: usize, n: usize, k: usize, alpha: f64, beta: f64, case: usize) {
        let (lda, ldb, ldc) = (m + case % 3, k + (case / 3) % 3, m + (case / 9) % 3);
        let (oa, ob, oc) = (1 + 2 * (case % 2), 1, 3);
        let a = fill(oa + (k - 1) * lda + m, case);
        let b = fill(ob + (n - 1) * ldb + k, case + 1);
        let c0 = fill(oc + (n - 1) * ldc + m + 5, case + 2);
        let mut c = c0.clone();
        let mut cref = c0;
        // SAFETY: the CPU supports `uk.level` (the caller checked); `a[oa..]`
        // holds (k-1)*lda + m elements and `c[oc..]` at least (n-1)*ldc + m.
        unsafe {
            let (ap, cp) = (a[oa..].as_ptr(), c[oc..].as_mut_ptr());
            gemm_raw(uk, m, n, k, alpha, ap, lda, &b[ob..], ldb, beta, cp, ldc);
        }
        gemm_naive(
            m,
            n,
            k,
            alpha,
            &a[oa..],
            lda,
            &b[ob..],
            ldb,
            beta,
            &mut cref[oc..],
            ldc,
        );
        let tol = 1e-12 * k as f64;
        for (idx, (&x, &y)) in c.iter().zip(&cref).enumerate() {
            let inside = idx >= oc && (idx - oc) % ldc < m && (idx - oc) / ldc < n;
            let ok = if inside {
                (x - y).abs() < tol
            } else {
                x.to_bits() == y.to_bits()
            };
            assert!(
                ok,
                "{:?} {}x{}: C[{idx}] = {x} vs {y} (inside = {inside}; m={m} n={n} k={k} \
                 lda={lda} ldb={ldb} ldc={ldc} alpha={alpha} beta={beta})",
                uk.level, uk.mr, uk.nr
            );
        }
    }

    /// Every micro-kernel this CPU can run — not only the one `simd_level()`
    /// dispatches — through the one driver, against the naive oracle, over
    /// its own tile and cache-block boundaries. Prints which variants ran:
    /// a green run on a host without AVX-512 is not coverage of that kernel.
    #[test]
    fn every_variant_matches_naive() {
        const COEFF: [f64; 3] = [0.0, 1.0, -0.5];
        for level in LEVELS {
            let uk = variant(level);
            let name = format!("{level:?} {}x{}", uk.mr, uk.nr).to_lowercase();
            if runnable(level).is_none() {
                println!("gemm variant {name}: skipped (no CPU support)");
                continue;
            }
            assert_eq!(uk.mc % uk.mr, 0, "{name}: mc must be a multiple of mr");
            let mut dims = vec![
                1,
                uk.mr - 1,
                uk.mr,
                uk.mr + 1,
                uk.nr - 1,
                uk.nr + 1,
                2 * uk.mc + 3,
            ];
            dims.sort_unstable();
            dims.dedup();
            let mut case = 0;
            for &m in &dims {
                for &n in &dims {
                    for &k in &dims {
                        // Nine (alpha, beta) pairs cycle against the 27
                        // slack patterns `check` derives from `case`.
                        let (alpha, beta) = (COEFF[case % 3], COEFF[(case / 3 + case / 27) % 3]);
                        check(uk, m, n, k, alpha, beta, case);
                        case += 1;
                    }
                }
            }
            // One product deeper than KC and wider than NC.
            check(uk, uk.mr + 1, NC + uk.nr + 1, KC + 1, 1.0, 1.0, 5);
            println!("gemm variant {name}: ran ({case} shapes)");
        }
    }

    /// A NaN anywhere in A or B must reach C — the `nan-gemm` failpoint and
    /// the eigenvector update's finite scan rely on the product not hiding
    /// one (behind a masked lane, a padded panel column or a zero in B).
    #[test]
    fn nan_in_either_operand_reaches_c() {
        for level in LEVELS {
            let Some(uk) = runnable(level) else { continue };
            let (m, n, k) = (uk.mr + 3, uk.nr + 1, 5);
            for (in_a, idx) in [(true, 0), (true, m * k - 1), (false, 0), (false, k * n - 1)] {
                let mut a = vec![1.0; m * k];
                let mut b = vec![0.0; k * n];
                if in_a {
                    a[idx] = f64::NAN;
                } else {
                    b[idx] = f64::NAN;
                }
                let mut c = vec![0.0; m * n];
                // SAFETY: supported level; a is m*k = (k-1)*m + m long and
                // c is m*n = (n-1)*m + m.
                unsafe {
                    gemm_raw(
                        uk,
                        m,
                        n,
                        k,
                        1.0,
                        a.as_ptr(),
                        m,
                        &b,
                        k,
                        0.0,
                        c.as_mut_ptr(),
                        m,
                    )
                };
                // NaN in A[i, ·] poisons row i; NaN in B[·, j] column j.
                let hit = if in_a { idx % m } else { (idx / k) * m };
                assert!(c[hit].is_nan(), "{level:?}: in_a={in_a} idx={idx}");
            }
        }
    }

    #[test]
    fn pack_b_pads_ragged_panels() {
        // 2x5 block, ldb = 3: two panels of width 4.
        let ldb = 3;
        let b: Vec<f64> = (0..ldb * 5).map(|x| x as f64).collect();
        let mut dst = vec![-1.0; 2 * 8];
        pack_b(4, 2, 5, &b, ldb, &mut dst);
        // Panel 0, p=0: row 0 of columns 0..4.
        assert_eq!(&dst[0..4], &[0.0, 3.0, 6.0, 9.0]);
        // Panel 0, p=1: row 1 of columns 0..4.
        assert_eq!(&dst[4..8], &[1.0, 4.0, 7.0, 10.0]);
        // Panel 1, p=0: row 0 of column 4, padded.
        assert_eq!(&dst[8..12], &[12.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn microkernel_edge_write_respects_bounds() {
        // One k-step of a 2 × (nr−1) edge tile on every variant. A is
        // exactly mr = 2 long, so a read past row mr would leave the
        // buffer; the B panel's last column is non-zero, so only the `nr`
        // argument keeps it out of C.
        for level in LEVELS {
            let Some(uk) = runnable(level) else { continue };
            let a = [1.0, 2.0];
            let bp: Vec<f64> = (0..uk.nr).map(|j| 3.0 + j as f64).collect();
            let (ldc, nr) = (3, uk.nr - 1);
            let mut c = vec![10.0; ldc * uk.nr];
            // SAFETY: supported level; a holds (kc-1)*lda + mr = 2 elements,
            // bp holds kc*nr, and c spans ldc*uk.nr >= (nr-1)*ldc + mr, the
            // extent the micro-kernel may write.
            unsafe {
                (uk.run)(TileArgs {
                    kc: 1,
                    alpha: 1.0,
                    a: a.as_ptr(),
                    lda: 7,
                    bp: bp.as_ptr(),
                    c: c.as_mut_ptr(),
                    ldc,
                    mr: 2,
                    nr,
                })
            };
            for j in 0..nr {
                assert_eq!(c[j * ldc], 10.0 + bp[j], "{level:?}");
                assert_eq!(c[j * ldc + 1], 10.0 + 2.0 * bp[j], "{level:?}");
                assert_eq!(c[j * ldc + 2], 10.0, "{level:?}: row past mr untouched");
            }
            assert!(
                c[nr * ldc..].iter().all(|&x| x == 10.0),
                "{level:?}: column past nr untouched"
            );
        }
    }
}
