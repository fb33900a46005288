//! Vectorized inner loops of the secular stage (AVX2/FMA, runtime
//! dispatch, scalar fallback).
//!
//! Once the eigenvector-update GEMMs are fast, the merge phase is
//! dominated by these O(k²) sweeps: the secular-function/derivative
//! evaluation inside every root-finder iteration (one kernel,
//! [`secular_sweep`], for the midpoint evaluation, the rational steps and
//! the bisection rescue alike), the Gu–Eisenstat per-column products of
//! `local_w_products`, the per-column normalization of `assemble_vectors`,
//! and the values-only path's fused boundary-row pass ([`row_sums`]). Each
//! kernel here comes in two forms:
//!
//! * a **scalar** body — the original seed loops, bit-for-bit, retained as
//!   the property-test oracle and the `DCST_FORCE_SCALAR=1` path;
//! * an **AVX2+FMA** body behind `#[target_feature]`, selected at runtime
//!   through the workspace-wide dispatcher
//!   [`dcst_matrix::simd::simd_level`] (AVX-512-capable CPUs also take the
//!   AVX2 body: these loops are division-bound, and 256-bit divides at
//!   doubled issue width already saturate the divider).
//!
//! The SIMD secular sweep uses the reciprocal-form rewrite `r = z/δ`,
//! `t = z·r`, `t′ = r²` — one division per term instead of two — and
//! four-lane accumulators, so its sums differ from the scalar ones by
//! normal rounding-order noise. The iteration tolerances absorb that; the
//! `local_w` kernel performs only element-wise operations and is exactly
//! identical to its scalar oracle.

#[cfg(target_arch = "x86_64")]
use dcst_matrix::{simd_level, SimdLevel};

/// True when the dispatched kernels should take the vector path.
#[inline]
pub(crate) fn use_simd() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        simd_level() >= SimdLevel::Avx2
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Sums produced by one fused sweep over the `k` secular terms at the
/// current iterate μ.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SweepSums {
    /// `Σ zᵢ²/δᵢ` (the secular sum; `f = 1 + ρ·val`).
    pub val: f64,
    /// `Σ |zᵢ²/δᵢ|` (for the convergence tolerance; `fabs = 1 + ρ·abs`).
    pub abs: f64,
    /// `Σ_{i<split} zᵢ²/δᵢ²` (ψ′ side of the rational model).
    pub psi_p: f64,
    /// `Σ_{i≥split} zᵢ²/δᵢ²` (φ′ side).
    pub phi_p: f64,
}

/// Sums of one fused pass over a secular eigenvector `xᵢ = ẑᵢ/δᵢ` that
/// is never stored: its squared norm and its dots with two carried rows.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct RowSums {
    /// `Σ xᵢ²`.
    pub nrm2: f64,
    /// `Σ wfᵢ·xᵢ`.
    pub first: f64,
    /// `Σ wlᵢ·xᵢ`.
    pub last: f64,
}

// ---------------------------------------------------------------- scalar

/// Scalar oracle: fill `delta[i] = (d[i] − origin) − μ` — the pole
/// distances in coordinates shifted to the origin pole, two subtractions
/// and no cancellation — and accumulate all four sums with the seed's
/// exact operation order (`t = z²/δ`, `t′ = t/δ`).
// dcst-hot
pub(crate) fn secular_sweep_scalar(
    d: &[f64],
    origin: f64,
    mu: f64,
    z: &[f64],
    split: usize,
    delta: &mut [f64],
) -> SweepSums {
    let mut s = SweepSums::default();
    for i in 0..d.len() {
        let de = (d[i] - origin) - mu;
        delta[i] = de;
        let t = z[i] * z[i] / de;
        s.val += t;
        s.abs += t.abs();
        let tp = t / de;
        if i < split {
            s.psi_p += tp;
        } else {
            s.phi_p += tp;
        }
    }
    s
}

/// Scalar oracle for the fused boundary-row pass: with
/// `δᵢ = (d[i] − origin) − μ` rebuilt from a stored root, one division per
/// term gives `xᵢ = ẑᵢ/δᵢ` and the three sums.
// dcst-hot
pub(crate) fn row_sums_scalar(
    d: &[f64],
    origin: f64,
    mu: f64,
    zhat: &[f64],
    wf: &[f64],
    wl: &[f64],
) -> RowSums {
    let mut s = RowSums::default();
    for i in 0..d.len() {
        let x = zhat[i] / ((d[i] - origin) - mu);
        s.nrm2 += x * x;
        s.first += wf[i] * x;
        s.last += wl[i] * x;
    }
    s
}

/// Scalar oracle for one Gu–Eisenstat column:
/// `out[i] *= col[i] / (dlamda[i] − dlamda[j])` for `i ≠ j`,
/// `out[j] *= col[j]`.
// dcst-hot
pub(crate) fn local_w_col_scalar(dlamda: &[f64], col: &[f64], j: usize, out: &mut [f64]) {
    let dj = dlamda[j];
    for i in 0..out.len() {
        if i == j {
            out[i] *= col[i];
        } else {
            out[i] *= col[i] / (dlamda[i] - dj);
        }
    }
}

/// Scalar oracle for one assembly column: `tmp[i] = zhat[i] / col[i]`,
/// returning `Σ tmpᵢ²`.
// dcst-hot
pub(crate) fn assemble_col_scalar(zhat: &[f64], col: &[f64], tmp: &mut [f64]) -> f64 {
    let mut nrm2 = 0.0;
    for i in 0..zhat.len() {
        let x = zhat[i] / col[i];
        tmp[i] = x;
        nrm2 += x * x;
    }
    nrm2
}

/// Scalar oracle for the deflation scans: `max |xᵢ|` (0 for empty input).
// dcst-hot
pub fn max_abs_scalar(x: &[f64]) -> f64 {
    x.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
}

// ------------------------------------------------------------------ AVX2

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{RowSums, SweepSums};
    use core::arch::x86_64::*;

    /// Horizontal sum of a 4-lane double vector.
    ///
    /// # Safety
    /// Requires AVX.
    #[target_feature(enable = "avx2")]
    unsafe fn hsum(v: __m256d) -> f64 {
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), v);
        (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
    }

    /// Sweep one index segment `[lo, hi)`: fill `delta`, return
    /// `(Σ z²/δ, Σ |z²/δ|, Σ z²/δ²)` for the segment.
    ///
    /// # Safety
    /// Requires AVX2+FMA; `lo ≤ hi ≤ len` of all three slices.
    #[target_feature(enable = "avx2,fma")]
    // dcst-hot
    #[allow(clippy::too_many_arguments)]
    unsafe fn sweep_segment(
        d: &[f64],
        origin: f64,
        mu: f64,
        z: &[f64],
        delta: &mut [f64],
        lo: usize,
        hi: usize,
    ) -> (f64, f64, f64) {
        let vorigin = _mm256_set1_pd(origin);
        let vmu = _mm256_set1_pd(mu);
        let sign = _mm256_set1_pd(-0.0);
        let mut vval = _mm256_setzero_pd();
        let mut vabs = _mm256_setzero_pd();
        let mut vder = _mm256_setzero_pd();
        let mut i = lo;
        while i + 4 <= hi {
            let vd = _mm256_loadu_pd(d.as_ptr().add(i));
            let vz = _mm256_loadu_pd(z.as_ptr().add(i));
            let vde = _mm256_sub_pd(_mm256_sub_pd(vd, vorigin), vmu);
            _mm256_storeu_pd(delta.as_mut_ptr().add(i), vde);
            let vr = _mm256_div_pd(vz, vde); // z/δ
            let vt = _mm256_mul_pd(vz, vr); // z²/δ
            vval = _mm256_add_pd(vval, vt);
            vabs = _mm256_add_pd(vabs, _mm256_andnot_pd(sign, vt));
            vder = _mm256_fmadd_pd(vr, vr, vder); // (z/δ)²
            i += 4;
        }
        let (mut val, mut abs, mut der) = (hsum(vval), hsum(vabs), hsum(vder));
        while i < hi {
            let de = (d[i] - origin) - mu;
            delta[i] = de;
            let r = z[i] / de;
            let t = z[i] * r;
            val += t;
            abs += t.abs();
            der += r * r;
            i += 1;
        }
        (val, abs, der)
    }

    /// # Safety
    /// Requires AVX2+FMA; `split ≤ k` and all slices have length `k`.
    #[target_feature(enable = "avx2,fma")]
    // dcst-hot
    pub(super) unsafe fn secular_sweep(
        d: &[f64],
        origin: f64,
        mu: f64,
        z: &[f64],
        split: usize,
        delta: &mut [f64],
    ) -> SweepSums {
        let k = d.len();
        let (v1, a1, psi_p) = sweep_segment(d, origin, mu, z, delta, 0, split);
        let (v2, a2, phi_p) = sweep_segment(d, origin, mu, z, delta, split, k);
        SweepSums {
            val: v1 + v2,
            abs: a1 + a2,
            psi_p,
            phi_p,
        }
    }

    /// # Safety
    /// Requires AVX2+FMA; all five slices have equal length.
    #[target_feature(enable = "avx2,fma")]
    // dcst-hot
    pub(super) unsafe fn row_sums(
        d: &[f64],
        origin: f64,
        mu: f64,
        zhat: &[f64],
        wf: &[f64],
        wl: &[f64],
    ) -> RowSums {
        let k = d.len();
        let vorigin = _mm256_set1_pd(origin);
        let vmu = _mm256_set1_pd(mu);
        let mut vn = _mm256_setzero_pd();
        let mut vf = _mm256_setzero_pd();
        let mut vl = _mm256_setzero_pd();
        let mut i = 0;
        while i + 4 <= k {
            let vd = _mm256_loadu_pd(d.as_ptr().add(i));
            let vde = _mm256_sub_pd(_mm256_sub_pd(vd, vorigin), vmu);
            let vx = _mm256_div_pd(_mm256_loadu_pd(zhat.as_ptr().add(i)), vde);
            vn = _mm256_fmadd_pd(vx, vx, vn);
            vf = _mm256_fmadd_pd(_mm256_loadu_pd(wf.as_ptr().add(i)), vx, vf);
            vl = _mm256_fmadd_pd(_mm256_loadu_pd(wl.as_ptr().add(i)), vx, vl);
            i += 4;
        }
        let mut s = RowSums {
            nrm2: hsum(vn),
            first: hsum(vf),
            last: hsum(vl),
        };
        while i < k {
            let x = zhat[i] / ((d[i] - origin) - mu);
            s.nrm2 += x * x;
            s.first += wf[i] * x;
            s.last += wl[i] * x;
            i += 1;
        }
        s
    }

    /// Multiply `out[i] *= col[i] / (dlamda[i] − dj)` over `[lo, hi)`.
    ///
    /// # Safety
    /// Requires AVX2+FMA; `lo ≤ hi ≤ len` of all slices.
    #[target_feature(enable = "avx2,fma")]
    // dcst-hot
    unsafe fn local_w_segment(
        dlamda: &[f64],
        col: &[f64],
        dj: f64,
        out: &mut [f64],
        lo: usize,
        hi: usize,
    ) {
        let vdj = _mm256_set1_pd(dj);
        let mut i = lo;
        while i + 4 <= hi {
            let vd = _mm256_loadu_pd(dlamda.as_ptr().add(i));
            let vc = _mm256_loadu_pd(col.as_ptr().add(i));
            let vo = _mm256_loadu_pd(out.as_ptr().add(i));
            let vq = _mm256_div_pd(vc, _mm256_sub_pd(vd, vdj));
            _mm256_storeu_pd(out.as_mut_ptr().add(i), _mm256_mul_pd(vo, vq));
            i += 4;
        }
        while i < hi {
            out[i] *= col[i] / (dlamda[i] - dj);
            i += 1;
        }
    }

    /// # Safety
    /// Requires AVX2+FMA; all slices have equal length `k` and `j < k`.
    #[target_feature(enable = "avx2,fma")]
    // dcst-hot
    pub(super) unsafe fn local_w_col(dlamda: &[f64], col: &[f64], j: usize, out: &mut [f64]) {
        let k = out.len();
        let dj = dlamda[j];
        local_w_segment(dlamda, col, dj, out, 0, j);
        out[j] *= col[j];
        local_w_segment(dlamda, col, dj, out, j + 1, k);
    }

    /// # Safety
    /// Requires AVX2+FMA; all slices have equal length.
    #[target_feature(enable = "avx2,fma")]
    // dcst-hot
    pub(super) unsafe fn assemble_col(zhat: &[f64], col: &[f64], tmp: &mut [f64]) -> f64 {
        let k = zhat.len();
        let mut vn = _mm256_setzero_pd();
        let mut i = 0;
        while i + 4 <= k {
            let vz = _mm256_loadu_pd(zhat.as_ptr().add(i));
            let vc = _mm256_loadu_pd(col.as_ptr().add(i));
            let vx = _mm256_div_pd(vz, vc);
            _mm256_storeu_pd(tmp.as_mut_ptr().add(i), vx);
            vn = _mm256_fmadd_pd(vx, vx, vn);
            i += 4;
        }
        let mut nrm2 = hsum(vn);
        while i < k {
            let x = zhat[i] / col[i];
            tmp[i] = x;
            nrm2 += x * x;
            i += 1;
        }
        nrm2
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    // dcst-hot
    pub(super) unsafe fn max_abs(x: &[f64]) -> f64 {
        let sign = _mm256_set1_pd(-0.0);
        let mut vm = _mm256_setzero_pd();
        let mut i = 0;
        while i + 4 <= x.len() {
            let v = _mm256_loadu_pd(x.as_ptr().add(i));
            vm = _mm256_max_pd(vm, _mm256_andnot_pd(sign, v));
            i += 4;
        }
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), vm);
        let mut m = lanes[0].max(lanes[1]).max(lanes[2].max(lanes[3]));
        while i < x.len() {
            m = m.max(x[i].abs());
            i += 1;
        }
        m
    }
}

// ------------------------------------------------------------- dispatch

/// Fused secular sweep at μ: fill `delta[i] = (d[i] − origin) − μ` and
/// return the four sums. `scalar` forces the oracle body (the dispatched
/// entry points pass `!use_simd()`).
#[inline]
// dcst-hot
pub(crate) fn secular_sweep(
    scalar: bool,
    d: &[f64],
    origin: f64,
    mu: f64,
    z: &[f64],
    split: usize,
    delta: &mut [f64],
) -> SweepSums {
    #[cfg(target_arch = "x86_64")]
    if !scalar {
        // SAFETY: use_simd() verified AVX2+FMA support.
        return unsafe { avx2::secular_sweep(d, origin, mu, z, split, delta) };
    }
    let _ = scalar;
    secular_sweep_scalar(d, origin, mu, z, split, delta)
}

/// Fused boundary-row pass for the root stored as `(origin, μ)`: one
/// division per term, nothing written. All five slices have one length
/// (asserted by the public caller, `secular_row_entries`).
#[inline]
// dcst-hot
pub(crate) fn row_sums(
    scalar: bool,
    d: &[f64],
    origin: f64,
    mu: f64,
    zhat: &[f64],
    wf: &[f64],
    wl: &[f64],
) -> RowSums {
    #[cfg(target_arch = "x86_64")]
    if !scalar {
        // SAFETY: use_simd() verified AVX2+FMA support.
        return unsafe { avx2::row_sums(d, origin, mu, zhat, wf, wl) };
    }
    let _ = scalar;
    row_sums_scalar(d, origin, mu, zhat, wf, wl)
}

/// One Gu–Eisenstat column product (element-wise; SIMD is bit-identical
/// to the scalar oracle).
#[inline]
// dcst-hot
pub(crate) fn local_w_col(scalar: bool, dlamda: &[f64], col: &[f64], j: usize, out: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if !scalar {
        // SAFETY: use_simd() verified AVX2+FMA support.
        unsafe { avx2::local_w_col(dlamda, col, j, out) };
        return;
    }
    let _ = scalar;
    local_w_col_scalar(dlamda, col, j, out)
}

/// One assembly column: `tmp[i] = zhat[i]/col[i]`, returns `Σ tmp²`.
#[inline]
// dcst-hot
pub(crate) fn assemble_col(scalar: bool, zhat: &[f64], col: &[f64], tmp: &mut [f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if !scalar {
        // SAFETY: use_simd() verified AVX2+FMA support.
        return unsafe { avx2::assemble_col(zhat, col, tmp) };
    }
    let _ = scalar;
    assemble_col_scalar(zhat, col, tmp)
}

/// `max |xᵢ|` over a slice (0 for empty input), dispatched. Used by the
/// deflation tolerance scans; max is order-independent, so both paths
/// return identical values.
// dcst-hot
pub fn max_abs(x: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if use_simd() {
        // SAFETY: use_simd() verified AVX2 support.
        return unsafe { avx2::max_abs(x) };
    }
    max_abs_scalar(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem(k: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        // Pole grid with ORIGIN + MU strictly inside (d[0], d[1]).
        let d: Vec<f64> = (0..k).map(|i| i as f64 * 1.25).collect();
        let z: Vec<f64> = (0..k).map(|i| 0.3 + 0.05 * (i % 7) as f64).collect();
        let delta = vec![0.0; k];
        (d, z, delta)
    }

    const ORIGIN: f64 = 0.5;
    const MU: f64 = 0.117;

    #[test]
    fn sweep_simd_matches_scalar() {
        for k in [1usize, 2, 3, 4, 5, 7, 8, 9, 16, 31, 257] {
            let (d, z, mut da) = problem(k);
            let mut db = da.clone();
            let split = k.div_ceil(2);
            let a = secular_sweep(false, &d, ORIGIN, MU, &z, split, &mut da);
            let b = secular_sweep(true, &d, ORIGIN, MU, &z, split, &mut db);
            assert_eq!(db[0], (d[0] - ORIGIN) - MU, "two subtractions, in order");
            assert_eq!(da, db, "delta fill differs at k={k}");
            for (x, y) in [
                (a.val, b.val),
                (a.abs, b.abs),
                (a.psi_p, b.psi_p),
                (a.phi_p, b.phi_p),
            ] {
                assert!(
                    (x - y).abs() <= 1e-12 * y.abs().max(1.0),
                    "k={k}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn row_sums_simd_matches_scalar() {
        for k in [1usize, 3, 4, 5, 8, 31, 257] {
            let (d, zhat, _) = problem(k);
            let wf: Vec<f64> = (0..k).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
            let wl: Vec<f64> = (0..k).map(|i| 0.5 - ((i * 3) % 4) as f64).collect();
            let a = row_sums(false, &d, ORIGIN, MU, &zhat, &wf, &wl);
            let b = row_sums(true, &d, ORIGIN, MU, &zhat, &wf, &wl);
            let scale = b.nrm2.sqrt() * (k as f64).sqrt();
            for (x, y) in [(a.nrm2, b.nrm2), (a.first, b.first), (a.last, b.last)] {
                assert!(
                    (x - y).abs() <= 1e-14 * scale.max(y.abs()),
                    "k={k}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn local_w_col_is_bit_identical() {
        for k in [1usize, 3, 4, 8, 31] {
            let (dl, col, _) = problem(k);
            for j in [0, k / 2, k - 1] {
                let mut a = vec![1.5f64; k];
                let mut b = a.clone();
                local_w_col(false, &dl, &col, j, &mut a);
                local_w_col(true, &dl, &col, j, &mut b);
                assert_eq!(a, b, "k={k} j={j}");
            }
        }
    }

    #[test]
    fn assemble_col_matches_scalar() {
        for k in [1usize, 4, 7, 8, 33] {
            let (zh, col, mut ta) = problem(k);
            let mut tb = ta.clone();
            let a = assemble_col(false, &zh, &col, &mut ta);
            let b = assemble_col(true, &zh, &col, &mut tb);
            assert_eq!(ta, tb);
            assert!((a - b).abs() <= 1e-12 * b.max(1.0));
        }
    }

    #[test]
    fn max_abs_handles_edges() {
        assert_eq!(max_abs(&[]), 0.0);
        assert_eq!(max_abs(&[-3.0]), 3.0);
        let v: Vec<f64> = (0..101).map(|i| ((i as f64) - 50.0) * 0.1).collect();
        assert_eq!(max_abs(&v), max_abs_scalar(&v));
        assert_eq!(max_abs(&v), 5.0);
    }
}
