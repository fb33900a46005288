//! Vectorized inner loops of the secular stage: one generic body per
//! k-term kernel, compiled per ISA and dispatched at runtime, beside the
//! scalar oracles.
//!
//! Once the eigenvector-update GEMMs are fast, the merge phase is
//! dominated by these O(k²) loops: the secular-function/derivative sweep
//! inside every root-finder iteration (one kernel, [`sweep_segment`], for
//! a root's first sweep, the rational steps and the bisection rescue
//! alike; a sweep is two segments either side of the root's interval, or
//! three around the window of poles the step keeps exact), the
//! Gu–Eisenstat per-column products of `local_w_products`
//! ([`local_w_segment`]), the per-column normalization of
//! `assemble_vectors` ([`assemble_col`]) and the values-only path's fused
//! boundary-row pass ([`row_sums`]). Each issues one quotient per term and
//! little else. A [`SecularKernels`] row holds the four for one level:
//!
//! | level   | register  | quotient `a/b`                                       | a segment's last `n < N` terms |
//! |---------|-----------|------------------------------------------------------|--------------------------------|
//! | AVX-512 | `__m512d` | `a·r`, `r = vrcp14pd(b)` refined by two Newton steps | one masked register            |
//! | AVX2    | `__m256d` | `vdivpd`                                             | scalar, `/`                    |
//! | scalar  | `f64`     | `/`: the seed loops, bit for bit — the test oracle and the `DCST_FORCE_SCALAR=1` path | — |
//!
//! The two vector rows are the same generic bodies instantiated over a
//! register type ([`Lanes`]), the way `dcst_matrix`'s GEMM tile is, and
//! [`dcst_matrix::simd::simd_level`] picks the row. A loop with a divide
//! per term runs at divider throughput, and on an AVX-512 host the
//! divider is the limit at both widths: the sweep at k = 1808 measured
//! 0.675 ns/term with 256-bit `vdivpd`, 0.685 with 512-bit `vdivpd`, and
//! 0.468 with `vrcp14pd` plus two Newton steps `r ← r + r·(1 − b·r)`,
//! which run on the FMA ports (EXPERIMENTS.md "PR 25"). The refined `r`
//! is within about half an ulp of `1/b`, so `a·r` is within 2 ulp of
//! `a/b` — where `vrcp14pd` meets its 2⁻¹⁴ bound. Where it cannot (`1/b`
//! overflows or is flushed to zero, `b` is ±0, ±∞ or NaN) the second
//! Newton residual is NaN, ±∞ or 1 instead of ≤ 2⁻²⁸. A body sums the
//! residuals' squares over its whole registers, one *pass*, and redoes a
//! pass whose sum is not small with `vdivpd`; so every lane has the class
//! and sign division gives it, and the check costs one FMA per register.
//! Local-W updates `out` in place, so each of its registers is a pass.
//! The masked last register keeps scalar divisions out of short segments
//! too: below k ≈ 48 the fixed cost of a sweep (two segments' horizontal
//! sums and guard checks) outweighs the saving, above it the AVX-512 row
//! is ahead (0.64 against 0.79 ns/term at k = 64).
//!
//! The vector sweep uses the reciprocal-form rewrite `r = z/δ`, `t = z·r`,
//! `t′ = r²` — one quotient per term instead of two — and `N`-lane
//! accumulators, so its sums differ from the scalar ones by normal
//! rounding-order noise; the iteration tolerances absorb that. The AVX2
//! local-W and assembly quotients are the scalar ones, bit for bit; the
//! AVX-512 ones are within 2 ulp each, and a local-W product of `m`
//! factors within `2m` ulp (`tests/simd_oracle.rs` checks both bounds per
//! instance).

use dcst_matrix::simd::{cpu_supports, simd_level, SimdLevel};
use std::ops::Range;

/// Sums produced by one fused sweep over the `k` secular terms at the
/// current iterate μ. The sweep's *window* `[lo, hi)` is the index range
/// whose terms the rational step keeps exact; the ψ and φ sums are the far
/// sides below and above it (with an empty window at `split`, the two
/// sides of `split`).
#[derive(Clone, Copy, Debug, Default)]
pub struct SweepSums {
    /// `Σ zᵢ²/δᵢ` (the secular sum; `f = 1 + ρ·val`).
    pub val: f64,
    /// `Σ |zᵢ²/δᵢ|` (for the convergence tolerance; `fabs = 1 + ρ·abs`).
    pub abs: f64,
    /// `Σ_{i<lo} zᵢ²/δᵢ` (far ψ side).
    pub psi: f64,
    /// `Σ_{i<lo} zᵢ²/δᵢ²` (ψ′ side of the rational model).
    pub psi_p: f64,
    /// `Σ_{i≥hi} zᵢ²/δᵢ` (far φ side).
    pub phi: f64,
    /// `Σ_{i≥hi} zᵢ²/δᵢ²` (φ′ side).
    pub phi_p: f64,
}

/// Sums of one fused pass over a secular eigenvector `xᵢ = ẑᵢ/δᵢ` that
/// is never stored: its squared norm and its dots with two carried rows.
#[derive(Clone, Copy, Debug, Default)]
pub struct RowSums {
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
/// and no cancellation — and accumulate the sums with the seed's exact
/// operation order (`t = z²/δ`, `t′ = t/δ`).
// dcst-hot
pub(crate) fn secular_sweep_scalar(
    d: &[f64],
    origin: f64,
    mu: f64,
    z: &[f64],
    window: Range<usize>,
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
        if i < window.start {
            s.psi += t;
            s.psi_p += tp;
        } else if i >= window.end {
            s.phi += t;
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
/// returning `Σ tmpᵢ²` and `false` (a division has no pass to redo).
// dcst-hot
pub(crate) fn assemble_col_scalar(zhat: &[f64], col: &[f64], tmp: &mut [f64]) -> (f64, bool) {
    let mut nrm2 = 0.0;
    for i in 0..zhat.len() {
        let x = zhat[i] / col[i];
        tmp[i] = x;
        nrm2 += x * x;
    }
    (nrm2, false)
}

/// Scalar oracle for one quotient.
// dcst-hot
pub(crate) fn quot_scalar(a: f64, b: f64) -> f64 {
    a / b
}

/// Scalar oracle for the deflation scans: `max |xᵢ|` (0 for empty input).
// dcst-hot
pub fn max_abs_scalar(x: &[f64]) -> f64 {
    x.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
}

// ---------------------------------------------------------- vector bodies

/// One register of `f64` lanes, as the kernel bodies use it. Every method
/// is `#[inline(always)]`, so each `#[target_feature]` entry point below
/// compiles the one generic body with its ISA.
///
/// A body runs a segment's whole registers — and, where the level has
/// `MASKED_TAIL`, its last `n < N` terms as one partial register — as one
/// pass of [`Lanes::quot`] with a guard that starts at zero, and redoes
/// the pass with [`Lanes::div`] if [`Lanes::clear`] says a lane needed it.
/// Without `MASKED_TAIL` the last terms take a scalar tail, which divides.
///
/// # Safety
/// Every method requires that the running CPU supports the implementing
/// type's ISA; `load`/`store` additionally require `N` valid elements and
/// the `_tail` forms `n < N`, with `n` valid elements.
#[cfg(target_arch = "x86_64")]
trait Lanes: Copy {
    /// Lanes per register.
    const N: usize;
    /// Whether a segment's last `n < N` terms run as a partial register.
    const MASKED_TAIL: bool;
    unsafe fn splat(x: f64) -> Self;
    unsafe fn load(p: *const f64) -> Self;
    unsafe fn store(p: *mut f64, v: Self);
    /// The first `n` lanes from `p`, the rest `+0.0`.
    unsafe fn load_tail(p: *const f64, n: usize) -> Self;
    /// The first `n` lanes of `v` to `p`; nothing past them is touched.
    unsafe fn store_tail(p: *mut f64, n: usize, v: Self);
    /// `v` with the lanes from `n` on replaced by `x`.
    unsafe fn fill_tail(v: Self, n: usize, x: f64) -> Self;
    unsafe fn add(a: Self, b: Self) -> Self;
    unsafe fn sub(a: Self, b: Self) -> Self;
    unsafe fn mul(a: Self, b: Self) -> Self;
    /// `a * b + c`, fused.
    unsafe fn madd(a: Self, b: Self, c: Self) -> Self;
    unsafe fn abs(a: Self) -> Self;
    /// `a / b`, correctly rounded (`vdivpd`).
    unsafe fn div(a: Self, b: Self) -> Self;
    /// `a / b` as the level's fast path computes it (the module table),
    /// marking in `guard` every lane the fast path cannot serve.
    unsafe fn quot(a: Self, b: Self, guard: &mut Self) -> Self;
    /// Whether no lane of the pass `guard` watched needs [`Lanes::div`].
    unsafe fn clear(guard: Self) -> bool;
    /// Sum of the lanes, in a fixed order.
    unsafe fn hsum(v: Self) -> f64;
}

#[cfg(target_arch = "x86_64")]
mod lanes {
    use super::Lanes;
    use core::arch::x86_64::*;

    /// `vdivpd` and a scalar tail: the operations and order AVX2 hosts
    /// have always run.
    impl Lanes for __m256d {
        const N: usize = 4;
        const MASKED_TAIL: bool = false;
        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            _mm256_set1_pd(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            _mm256_loadu_pd(p)
        }
        #[inline(always)]
        unsafe fn store(p: *mut f64, v: Self) {
            _mm256_storeu_pd(p, v)
        }
        #[inline(always)]
        unsafe fn load_tail(p: *const f64, n: usize) -> Self {
            _mm256_maskload_pd(p, mask(n))
        }
        #[inline(always)]
        unsafe fn store_tail(p: *mut f64, n: usize, v: Self) {
            _mm256_maskstore_pd(p, mask(n), v)
        }
        #[inline(always)]
        unsafe fn fill_tail(v: Self, n: usize, x: f64) -> Self {
            _mm256_blendv_pd(_mm256_set1_pd(x), v, _mm256_castsi256_pd(mask(n)))
        }
        #[inline(always)]
        unsafe fn add(a: Self, b: Self) -> Self {
            _mm256_add_pd(a, b)
        }
        #[inline(always)]
        unsafe fn sub(a: Self, b: Self) -> Self {
            _mm256_sub_pd(a, b)
        }
        #[inline(always)]
        unsafe fn mul(a: Self, b: Self) -> Self {
            _mm256_mul_pd(a, b)
        }
        #[inline(always)]
        unsafe fn madd(a: Self, b: Self, c: Self) -> Self {
            _mm256_fmadd_pd(a, b, c)
        }
        #[inline(always)]
        unsafe fn abs(a: Self) -> Self {
            _mm256_andnot_pd(_mm256_set1_pd(-0.0), a)
        }
        #[inline(always)]
        unsafe fn div(a: Self, b: Self) -> Self {
            _mm256_div_pd(a, b)
        }
        #[inline(always)]
        unsafe fn quot(a: Self, b: Self, _guard: &mut Self) -> Self {
            _mm256_div_pd(a, b)
        }
        #[inline(always)]
        unsafe fn clear(_guard: Self) -> bool {
            true
        }
        #[inline(always)]
        unsafe fn hsum(v: Self) -> f64 {
            let mut l = [0.0f64; 4];
            _mm256_storeu_pd(l.as_mut_ptr(), v);
            (l[0] + l[1]) + (l[2] + l[3])
        }
    }

    /// Lanes `0..n` set.
    #[inline(always)]
    unsafe fn mask(n: usize) -> __m256i {
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(n as i64), _mm256_setr_epi64x(0, 1, 2, 3))
    }

    /// Bound on a pass's guard, `Σ e²` over the second Newton residuals
    /// `e = 1 − b·r₁`. Where `vrcp14pd` meets its 2⁻¹⁴ bound, `|e| ≤ 2⁻²⁸`
    /// and the refined `r₁(1 + e)` is within `e² + ½` ulp of `1/b`; a pass
    /// of fewer than 2³⁶ such lanes stays below the bound. Where it cannot
    /// — `1/b` overflows or is flushed to zero, `b` is ±0, ±∞ or NaN — `e`
    /// is NaN, ±∞ or 1, and so is the guard.
    const GUARD_MAX: f64 = 1.0 / (1u64 << 20) as f64;

    /// `a·r` with `r = 1/b` from `vrcp14pd` and two Newton steps.
    impl Lanes for __m512d {
        const N: usize = 8;
        const MASKED_TAIL: bool = true;
        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            _mm512_set1_pd(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            _mm512_loadu_pd(p)
        }
        #[inline(always)]
        unsafe fn store(p: *mut f64, v: Self) {
            _mm512_storeu_pd(p, v)
        }
        #[inline(always)]
        unsafe fn load_tail(p: *const f64, n: usize) -> Self {
            _mm512_maskz_loadu_pd(mask8(n), p)
        }
        #[inline(always)]
        unsafe fn store_tail(p: *mut f64, n: usize, v: Self) {
            _mm512_mask_storeu_pd(p, mask8(n), v)
        }
        #[inline(always)]
        unsafe fn fill_tail(v: Self, n: usize, x: f64) -> Self {
            _mm512_mask_blend_pd(mask8(n), _mm512_set1_pd(x), v)
        }
        #[inline(always)]
        unsafe fn add(a: Self, b: Self) -> Self {
            _mm512_add_pd(a, b)
        }
        #[inline(always)]
        unsafe fn sub(a: Self, b: Self) -> Self {
            _mm512_sub_pd(a, b)
        }
        #[inline(always)]
        unsafe fn mul(a: Self, b: Self) -> Self {
            _mm512_mul_pd(a, b)
        }
        #[inline(always)]
        unsafe fn madd(a: Self, b: Self, c: Self) -> Self {
            _mm512_fmadd_pd(a, b, c)
        }
        #[inline(always)]
        unsafe fn abs(a: Self) -> Self {
            _mm512_abs_pd(a)
        }
        #[inline(always)]
        unsafe fn div(a: Self, b: Self) -> Self {
            _mm512_div_pd(a, b)
        }
        #[inline(always)]
        unsafe fn quot(a: Self, b: Self, guard: &mut Self) -> Self {
            let one = _mm512_set1_pd(1.0);
            let r0 = _mm512_rcp14_pd(b);
            let r1 = _mm512_fmadd_pd(r0, _mm512_fnmadd_pd(b, r0, one), r0);
            let e = _mm512_fnmadd_pd(b, r1, one);
            *guard = _mm512_fmadd_pd(e, e, *guard);
            _mm512_mul_pd(a, _mm512_fmadd_pd(r1, e, r1))
        }
        #[inline(always)]
        unsafe fn clear(guard: Self) -> bool {
            _mm512_cmp_pd_mask::<_CMP_LT_OQ>(guard, _mm512_set1_pd(GUARD_MAX)) == 0xff
        }
        #[inline(always)]
        unsafe fn hsum(v: Self) -> f64 {
            let h = _mm256_add_pd(_mm512_castpd512_pd256(v), _mm512_extractf64x4_pd::<1>(v));
            let q = _mm_add_pd(_mm256_castpd256_pd128(h), _mm256_extractf128_pd::<1>(h));
            _mm_cvtsd_f64(_mm_add_sd(q, _mm_unpackhi_pd(q, q)))
        }
    }

    /// Lanes `0..n` set.
    #[inline(always)]
    fn mask8(n: usize) -> __mmask8 {
        ((1u32 << n) - 1) as __mmask8
    }
}

/// The quotient of a pass: the level's fast form, or, when `EXACT`, the
/// true division a pass whose guard tripped is redone with.
///
/// # Safety
/// `V`'s ISA.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
// dcst-hot
unsafe fn quot<V: Lanes, const EXACT: bool>(a: V, b: V, guard: &mut V) -> V {
    if EXACT {
        V::div(a, b)
    } else {
        V::quot(a, b, guard)
    }
}

/// Where a segment `[lo, hi)`'s pass ends: after its whole registers, or,
/// with `MASKED_TAIL`, at `hi`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn pass_end<V: Lanes>(lo: usize, hi: usize) -> usize {
    if V::MASKED_TAIL {
        hi
    } else {
        hi - (hi - lo) % V::N
    }
}

/// One register of the sweep: the lane sums of `z²/δ`, `|z²/δ|`, `z²/δ²`.
///
/// # Safety
/// `V`'s ISA.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
// dcst-hot
unsafe fn sweep_step<V: Lanes, const EXACT: bool>(vz: V, vde: V, acc: &mut [V; 3], guard: &mut V) {
    let vr = quot::<V, EXACT>(vz, vde, guard); // z/δ
    let vt = V::mul(vz, vr); // z²/δ
    acc[0] = V::add(acc[0], vt);
    acc[1] = V::add(acc[1], V::abs(vt));
    acc[2] = V::madd(vr, vr, acc[2]); // (z/δ)²
}

/// The pass of one sweep segment, `[lo, end)`: fill `delta`, return the
/// lane sums of `z²/δ`, `|z²/δ|` and `z²/δ²`. A partial last register
/// divides its dead lanes' `0` by `1`.
///
/// # Safety
/// `V`'s ISA; `lo ≤ end ≤` the length of all three slices, and
/// `end − lo` a multiple of `N` unless `V::MASKED_TAIL`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(clippy::too_many_arguments)]
// dcst-hot
unsafe fn sweep_pass<V: Lanes, const EXACT: bool>(
    d: &[f64],
    origin: f64,
    mu: f64,
    z: &[f64],
    delta: &mut [f64],
    lo: usize,
    end: usize,
    guard: &mut V,
) -> [V; 3] {
    let (vorigin, vmu) = (V::splat(origin), V::splat(mu));
    let mut acc = [V::splat(0.0); 3];
    let whole = end - (end - lo) % V::N;
    for i in (lo..whole).step_by(V::N) {
        let vde = V::sub(V::sub(V::load(d.as_ptr().add(i)), vorigin), vmu);
        V::store(delta.as_mut_ptr().add(i), vde);
        sweep_step::<V, EXACT>(V::load(z.as_ptr().add(i)), vde, &mut acc, guard);
    }
    if V::MASKED_TAIL && whole < end {
        let (i, n) = (whole, end - whole);
        let vde = V::sub(V::sub(V::load_tail(d.as_ptr().add(i), n), vorigin), vmu);
        V::store_tail(delta.as_mut_ptr().add(i), n, vde);
        let vz = V::load_tail(z.as_ptr().add(i), n);
        sweep_step::<V, EXACT>(vz, V::fill_tail(vde, n, 1.0), &mut acc, guard);
    }
    acc
}

/// Sweep one index segment `[lo, hi)`: fill `delta`, return
/// `(Σ z²/δ, Σ |z²/δ|, Σ z²/δ²)` for the segment.
///
/// # Safety
/// `V`'s ISA; `lo ≤ hi ≤` the length of all three slices.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
// dcst-hot
unsafe fn sweep_segment<V: Lanes>(
    d: &[f64],
    origin: f64,
    mu: f64,
    z: &[f64],
    delta: &mut [f64],
    lo: usize,
    hi: usize,
) -> (f64, f64, f64) {
    let end = pass_end::<V>(lo, hi);
    let mut guard = V::splat(0.0);
    let mut v = sweep_pass::<V, false>(d, origin, mu, z, delta, lo, end, &mut guard);
    if !V::clear(guard) {
        v = sweep_pass::<V, true>(d, origin, mu, z, delta, lo, end, &mut guard);
    }
    let (mut val, mut abs, mut der) = (V::hsum(v[0]), V::hsum(v[1]), V::hsum(v[2]));
    for i in end..hi {
        let de = (d[i] - origin) - mu;
        delta[i] = de;
        let r = z[i] / de;
        let t = z[i] * r;
        val += t;
        abs += t.abs();
        der += r * r;
    }
    (val, abs, der)
}

/// Three segments — far ψ side, window, far φ side — with no pass for an
/// empty window, so a sweep at one `split` runs the two segments it always
/// has.
///
/// # Safety
/// `V`'s ISA; `window.start ≤ window.end ≤ k` and all slices have length
/// `k`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
// dcst-hot
unsafe fn secular_sweep<V: Lanes>(
    d: &[f64],
    origin: f64,
    mu: f64,
    z: &[f64],
    window: Range<usize>,
    delta: &mut [f64],
) -> SweepSums {
    let k = d.len();
    let (lo, hi) = (window.start, window.end);
    let (psi, a1, psi_p) = sweep_segment::<V>(d, origin, mu, z, delta, 0, lo);
    let (vw, aw) = if lo < hi {
        let (v, a, _) = sweep_segment::<V>(d, origin, mu, z, delta, lo, hi);
        (v, a)
    } else {
        (0.0, 0.0)
    };
    let (phi, a2, phi_p) = sweep_segment::<V>(d, origin, mu, z, delta, hi, k);
    SweepSums {
        val: psi + vw + phi,
        abs: a1 + aw + a2,
        psi,
        psi_p,
        phi,
        phi_p,
    }
}

/// One register of the row pass: the lane sums of `x²`, `wf·x`, `wl·x`
/// with `x = ẑ/δ`.
///
/// # Safety
/// `V`'s ISA.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
// dcst-hot
unsafe fn row_step<V: Lanes, const EXACT: bool>(
    [vz, vde, vwf, vwl]: [V; 4],
    acc: &mut [V; 3],
    guard: &mut V,
) {
    let vx = quot::<V, EXACT>(vz, vde, guard);
    acc[0] = V::madd(vx, vx, acc[0]);
    acc[1] = V::madd(vwf, vx, acc[1]);
    acc[2] = V::madd(vwl, vx, acc[2]);
}

/// The pass `[0, end)` of the row kernel: lane sums of `x²`, `wf·x` and
/// `wl·x` with `x = ẑ/δ`.
///
/// # Safety
/// `V`'s ISA; `end ≤` the length of all slices, a multiple of `N` unless
/// `V::MASKED_TAIL`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(clippy::too_many_arguments)]
// dcst-hot
unsafe fn row_pass<V: Lanes, const EXACT: bool>(
    d: &[f64],
    origin: f64,
    mu: f64,
    zhat: &[f64],
    wf: &[f64],
    wl: &[f64],
    end: usize,
    guard: &mut V,
) -> [V; 3] {
    let (vorigin, vmu) = (V::splat(origin), V::splat(mu));
    let mut acc = [V::splat(0.0); 3];
    let whole = end - end % V::N;
    for i in (0..whole).step_by(V::N) {
        let vde = V::sub(V::sub(V::load(d.as_ptr().add(i)), vorigin), vmu);
        let [vz, vwf, vwl] = [zhat, wf, wl].map(|s| V::load(s.as_ptr().add(i)));
        row_step::<V, EXACT>([vz, vde, vwf, vwl], &mut acc, guard);
    }
    if V::MASKED_TAIL && whole < end {
        let (i, n) = (whole, end - whole);
        let vde = V::sub(V::sub(V::load_tail(d.as_ptr().add(i), n), vorigin), vmu);
        let [vz, vwf, vwl] = [zhat, wf, wl].map(|s| V::load_tail(s.as_ptr().add(i), n));
        row_step::<V, EXACT>([vz, V::fill_tail(vde, n, 1.0), vwf, vwl], &mut acc, guard);
    }
    acc
}

/// # Safety
/// `V`'s ISA; all six slices have equal length.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
// dcst-hot
unsafe fn row_sums<V: Lanes>(
    d: &[f64],
    origin: f64,
    mu: f64,
    zhat: &[f64],
    wf: &[f64],
    wl: &[f64],
) -> RowSums {
    let k = d.len();
    let end = pass_end::<V>(0, k);
    let mut guard = V::splat(0.0);
    let mut v = row_pass::<V, false>(d, origin, mu, zhat, wf, wl, end, &mut guard);
    if !V::clear(guard) {
        v = row_pass::<V, true>(d, origin, mu, zhat, wf, wl, end, &mut guard);
    }
    let mut s = RowSums {
        nrm2: V::hsum(v[0]),
        first: V::hsum(v[1]),
        last: V::hsum(v[2]),
    };
    for i in end..k {
        let x = zhat[i] / ((d[i] - origin) - mu);
        s.nrm2 += x * x;
        s.first += wf[i] * x;
        s.last += wl[i] * x;
    }
    s
}

/// `out *= col / den` on one register: its own pass, since `out` is
/// updated in place and cannot be redone.
///
/// # Safety
/// `V`'s ISA.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
// dcst-hot
unsafe fn local_w_step<V: Lanes>(vo: V, vc: V, den: V) -> V {
    let mut guard = V::splat(0.0);
    let mut vq = V::quot(vc, den, &mut guard);
    if !V::clear(guard) {
        vq = V::div(vc, den);
    }
    V::mul(vo, vq)
}

/// Multiply `out[i] *= col[i] / (dlamda[i] − dj)` over `[lo, hi)`.
///
/// # Safety
/// `V`'s ISA; `lo ≤ hi ≤ len` of all slices.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
// dcst-hot
unsafe fn local_w_segment<V: Lanes>(
    dlamda: &[f64],
    col: &[f64],
    dj: f64,
    out: &mut [f64],
    lo: usize,
    hi: usize,
) {
    let vdj = V::splat(dj);
    let end = pass_end::<V>(lo, hi);
    let whole = end - (end - lo) % V::N;
    for i in (lo..whole).step_by(V::N) {
        let [vd, vc, vo] = [dlamda, col, &*out].map(|s| V::load(s.as_ptr().add(i)));
        let vo = local_w_step(vo, vc, V::sub(vd, vdj));
        V::store(out.as_mut_ptr().add(i), vo);
    }
    if V::MASKED_TAIL && whole < end {
        let (i, n) = (whole, end - whole);
        let [vd, vc, vo] = [dlamda, col, &*out].map(|s| V::load_tail(s.as_ptr().add(i), n));
        let vo = local_w_step(vo, vc, V::fill_tail(V::sub(vd, vdj), n, 1.0));
        V::store_tail(out.as_mut_ptr().add(i), n, vo);
    }
    for i in end..hi {
        out[i] *= col[i] / (dlamda[i] - dj);
    }
}

/// # Safety
/// `V`'s ISA; all slices have equal length `k` and `j < k`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
// dcst-hot
unsafe fn local_w_col<V: Lanes>(dlamda: &[f64], col: &[f64], j: usize, out: &mut [f64]) {
    let k = out.len();
    let dj = dlamda[j];
    local_w_segment::<V>(dlamda, col, dj, out, 0, j);
    out[j] *= col[j];
    local_w_segment::<V>(dlamda, col, dj, out, j + 1, k);
}

/// The pass `[0, end)` of one assembly column: `tmp = ẑ/col`, returning
/// the lane sums of `tmp²`.
///
/// # Safety
/// `V`'s ISA; `end ≤` the length of all slices, a multiple of `N` unless
/// `V::MASKED_TAIL`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
// dcst-hot
unsafe fn assemble_pass<V: Lanes, const EXACT: bool>(
    zhat: &[f64],
    col: &[f64],
    tmp: &mut [f64],
    end: usize,
    guard: &mut V,
) -> V {
    let mut vn = V::splat(0.0);
    let whole = end - end % V::N;
    for i in (0..whole).step_by(V::N) {
        let [vz, vc] = [zhat, col].map(|s| V::load(s.as_ptr().add(i)));
        let vx = quot::<V, EXACT>(vz, vc, guard);
        V::store(tmp.as_mut_ptr().add(i), vx);
        vn = V::madd(vx, vx, vn);
    }
    if V::MASKED_TAIL && whole < end {
        let (i, n) = (whole, end - whole);
        let [vz, vc] = [zhat, col].map(|s| V::load_tail(s.as_ptr().add(i), n));
        let vx = quot::<V, EXACT>(vz, V::fill_tail(vc, n, 1.0), guard);
        V::store_tail(tmp.as_mut_ptr().add(i), n, vx);
        vn = V::madd(vx, vx, vn);
    }
    vn
}

/// # Safety
/// `V`'s ISA; all slices have equal length.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
// dcst-hot
unsafe fn assemble_col<V: Lanes>(zhat: &[f64], col: &[f64], tmp: &mut [f64]) -> (f64, bool) {
    let k = zhat.len();
    let end = pass_end::<V>(0, k);
    let mut guard = V::splat(0.0);
    let mut vn = assemble_pass::<V, false>(zhat, col, tmp, end, &mut guard);
    let redone = !V::clear(guard);
    if redone {
        vn = assemble_pass::<V, true>(zhat, col, tmp, end, &mut guard);
    }
    let mut nrm2 = V::hsum(vn);
    for i in end..k {
        let x = zhat[i] / col[i];
        tmp[i] = x;
        nrm2 += x * x;
    }
    (nrm2, redone)
}

/// `a/b` as a pass of `V` that was not redone computes it: one lane of
/// [`Lanes::quot`], which is element-wise, so the lane equals the one the
/// pass wrote.
///
/// # Safety
/// `V`'s ISA.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
// dcst-hot
unsafe fn quot_lane<V: Lanes>(a: f64, b: f64) -> f64 {
    let mut guard = V::splat(0.0);
    let mut q = 0.0;
    V::store_tail(&mut q, 1, V::quot(V::splat(a), V::splat(b), &mut guard));
    q
}

// The entry points: each generic body compiled per ISA. Safety as for the
// body, on a CPU with the named features.

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{RowSums, SweepSums};
    use core::arch::x86_64::__m256d;
    use std::ops::Range;

    #[target_feature(enable = "avx2,fma")]
    // dcst-hot
    pub(super) unsafe fn secular_sweep(
        d: &[f64],
        origin: f64,
        mu: f64,
        z: &[f64],
        window: Range<usize>,
        delta: &mut [f64],
    ) -> SweepSums {
        super::secular_sweep::<__m256d>(d, origin, mu, z, window, delta)
    }

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
        super::row_sums::<__m256d>(d, origin, mu, zhat, wf, wl)
    }

    #[target_feature(enable = "avx2,fma")]
    // dcst-hot
    pub(super) unsafe fn local_w_col(dlamda: &[f64], col: &[f64], j: usize, out: &mut [f64]) {
        super::local_w_col::<__m256d>(dlamda, col, j, out)
    }

    #[target_feature(enable = "avx2,fma")]
    // dcst-hot
    pub(super) unsafe fn assemble_col(zhat: &[f64], col: &[f64], tmp: &mut [f64]) -> (f64, bool) {
        super::assemble_col::<__m256d>(zhat, col, tmp)
    }

    #[target_feature(enable = "avx2,fma")]
    // dcst-hot
    pub(super) unsafe fn quot(a: f64, b: f64) -> f64 {
        super::quot_lane::<__m256d>(a, b)
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{RowSums, SweepSums};
    use core::arch::x86_64::__m512d;
    use std::ops::Range;

    #[target_feature(enable = "avx512f,fma")]
    // dcst-hot
    pub(super) unsafe fn secular_sweep(
        d: &[f64],
        origin: f64,
        mu: f64,
        z: &[f64],
        window: Range<usize>,
        delta: &mut [f64],
    ) -> SweepSums {
        super::secular_sweep::<__m512d>(d, origin, mu, z, window, delta)
    }

    #[target_feature(enable = "avx512f,fma")]
    // dcst-hot
    pub(super) unsafe fn row_sums(
        d: &[f64],
        origin: f64,
        mu: f64,
        zhat: &[f64],
        wf: &[f64],
        wl: &[f64],
    ) -> RowSums {
        super::row_sums::<__m512d>(d, origin, mu, zhat, wf, wl)
    }

    #[target_feature(enable = "avx512f,fma")]
    // dcst-hot
    pub(super) unsafe fn local_w_col(dlamda: &[f64], col: &[f64], j: usize, out: &mut [f64]) {
        super::local_w_col::<__m512d>(dlamda, col, j, out)
    }

    #[target_feature(enable = "avx512f,fma")]
    // dcst-hot
    pub(super) unsafe fn assemble_col(zhat: &[f64], col: &[f64], tmp: &mut [f64]) -> (f64, bool) {
        super::assemble_col::<__m512d>(zhat, col, tmp)
    }

    #[target_feature(enable = "avx512f,fma")]
    // dcst-hot
    pub(super) unsafe fn quot(a: f64, b: f64) -> f64 {
        super::quot_lane::<__m512d>(a, b)
    }
}

// ------------------------------------------------------------- dispatch

/// `(d, origin, μ, z, window, delta) → sums`: [`SecularKernels::sweep`].
type SweepFn = unsafe fn(&[f64], f64, f64, &[f64], Range<usize>, &mut [f64]) -> SweepSums;
/// `(d, origin, μ, ẑ, wf, wl) → sums`: [`SecularKernels::row_sums`].
type RowSumsFn = unsafe fn(&[f64], f64, f64, &[f64], &[f64], &[f64]) -> RowSums;
/// `(ẑ, δ, tmp) → (Σ tmp², redone)`: [`SecularKernels::assemble_col`].
type AssembleFn = unsafe fn(&[f64], &[f64], &mut [f64]) -> (f64, bool);

/// One row of the instance table: the four k-term kernels compiled for
/// one [`SimdLevel`], and its one-lane quotient. A value exists only for a level the running CPU
/// supports — [`Self::SCALAR`], [`Self::dispatched`] (what
/// [`simd_level`] picked) or [`Self::runnable`] — which is what makes the
/// methods safe. Every method checks the slice lengths its vector body
/// reads through raw pointers.
#[derive(Clone, Copy)]
pub struct SecularKernels {
    level: SimdLevel,
    sweep: SweepFn,
    row_sums: RowSumsFn,
    local_w_col: unsafe fn(&[f64], &[f64], usize, &mut [f64]),
    assemble_col: AssembleFn,
    quot: unsafe fn(f64, f64) -> f64,
}

impl SecularKernels {
    /// The scalar oracles.
    pub const SCALAR: Self = SecularKernels {
        level: SimdLevel::Scalar,
        sweep: secular_sweep_scalar,
        row_sums: row_sums_scalar,
        local_w_col: local_w_col_scalar,
        assemble_col: assemble_col_scalar,
        quot: quot_scalar,
    };

    /// The row compiled for `level` (the scalar one where this target has
    /// nothing wider). Whether the CPU can run it is the caller's question.
    fn variant(level: SimdLevel) -> Self {
        match level {
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 => SecularKernels {
                level,
                sweep: avx512::secular_sweep,
                row_sums: avx512::row_sums,
                local_w_col: avx512::local_w_col,
                assemble_col: avx512::assemble_col,
                quot: avx512::quot,
            },
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => SecularKernels {
                level,
                sweep: avx2::secular_sweep,
                row_sums: avx2::row_sums,
                local_w_col: avx2::local_w_col,
                assemble_col: avx2::assemble_col,
                quot: avx2::quot,
            },
            _ => Self::SCALAR,
        }
    }

    /// The row every dispatched kernel of this process uses.
    #[inline]
    pub fn dispatched() -> Self {
        Self::variant(simd_level())
    }

    /// The row compiled for `level`, if this build has one and the CPU
    /// runs it — whatever `DCST_FORCE_SCALAR` says, so a test can drive
    /// every instance the machine has, not only the dispatched one.
    pub fn runnable(level: SimdLevel) -> Option<Self> {
        let row = Self::variant(level);
        (row.level == level && cpu_supports(level)).then_some(row)
    }

    /// The level this row was compiled for.
    pub fn level(&self) -> SimdLevel {
        self.level
    }

    /// Fused secular sweep at μ: fill `delta[i] = (d[i] − origin) − μ` and
    /// return the sums, the ψ side being the terms below `window` and the
    /// φ side those above it.
    #[inline]
    // dcst-hot
    pub fn sweep(
        &self,
        d: &[f64],
        origin: f64,
        mu: f64,
        z: &[f64],
        window: Range<usize>,
        delta: &mut [f64],
    ) -> SweepSums {
        let k = d.len();
        assert!(window.start <= window.end && window.end <= k);
        assert!(z.len() == k && delta.len() == k);
        // SAFETY: the row's level runs on this CPU (type invariant), and
        // the lengths are the ones the body reads.
        unsafe { (self.sweep)(d, origin, mu, z, window, delta) }
    }

    /// Fused boundary-row pass for the root stored as `(origin, μ)`: one
    /// quotient per term, nothing written.
    #[inline]
    // dcst-hot
    pub fn row_sums(
        &self,
        d: &[f64],
        origin: f64,
        mu: f64,
        zhat: &[f64],
        wf: &[f64],
        wl: &[f64],
    ) -> RowSums {
        let k = d.len();
        assert!(zhat.len() == k && wf.len() == k && wl.len() == k);
        // SAFETY: the row's level runs on this CPU (type invariant), and
        // the lengths are the ones the body reads.
        unsafe { (self.row_sums)(d, origin, mu, zhat, wf, wl) }
    }

    /// One Gu–Eisenstat column product, in place on `out`.
    #[inline]
    // dcst-hot
    pub fn local_w_col(&self, dlamda: &[f64], col: &[f64], j: usize, out: &mut [f64]) {
        let k = out.len();
        assert!(j < k && dlamda.len() == k && col.len() == k);
        // SAFETY: the row's level runs on this CPU (type invariant), and
        // the lengths are the ones the body reads.
        unsafe { (self.local_w_col)(dlamda, col, j, out) }
    }

    /// One assembly column: `tmp[i] = zhat[i]/col[i]`. Returns `Σ tmp²`,
    /// and whether the pass was redone with the division — then every
    /// `tmp[i]` is `zhat[i]/col[i]` exactly; otherwise each is
    /// [`Self::quot`]`(zhat[i], col[i])`.
    #[inline]
    // dcst-hot
    pub fn assemble_col(&self, zhat: &[f64], col: &[f64], tmp: &mut [f64]) -> (f64, bool) {
        let k = zhat.len();
        assert!(col.len() == k && tmp.len() == k);
        // SAFETY: the row's level runs on this CPU (type invariant), and
        // the lengths are the ones the body reads.
        unsafe { (self.assemble_col)(zhat, col, tmp) }
    }

    /// `a/b` as this row's fast quotient forms it, on one lane: the value a
    /// kernel pass that was not redone computes for those operands.
    #[inline]
    pub fn quot(&self, a: f64, b: f64) -> f64 {
        // SAFETY: the row's level runs on this CPU (type invariant).
        unsafe { (self.quot)(a, b) }
    }
}

/// `max |xᵢ|` over a slice (0 for empty input), dispatched. Used by the
/// deflation tolerance scans; max is order-independent, so both paths
/// return identical values.
// dcst-hot
pub fn max_abs(x: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if simd_level() >= SimdLevel::Avx2 {
        // SAFETY: simd_level() verified AVX2 support.
        return unsafe { max_abs_avx2(x) };
    }
    max_abs_scalar(x)
}

/// # Safety
/// Requires AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// dcst-hot
unsafe fn max_abs_avx2(x: &[f64]) -> f64 {
    use core::arch::x86_64::*;
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Every vector instance this CPU runs, with its name.
    fn vector_rows() -> Vec<(&'static str, SecularKernels)> {
        [("avx2", SimdLevel::Avx2), ("avx512", SimdLevel::Avx512)]
            .into_iter()
            .filter_map(|(name, level)| SecularKernels::runnable(level).map(|r| (name, r)))
            .collect()
    }

    /// Distance in units in the last place, across zero.
    fn ulps(a: f64, b: f64) -> u64 {
        let key = |x: f64| {
            let b = x.to_bits() as i64;
            if b < 0 {
                i64::MIN - b
            } else {
                b
            }
        };
        key(a).abs_diff(key(b))
    }

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
        for (name, row) in vector_rows() {
            for k in [1usize, 2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 257] {
                let (d, z, mut da) = problem(k);
                let mut db = da.clone();
                let split = k.div_ceil(2);
                for window in [split..split, k / 4..split, split..k] {
                    let a = row.sweep(&d, ORIGIN, MU, &z, window.clone(), &mut da);
                    let b = SecularKernels::SCALAR.sweep(&d, ORIGIN, MU, &z, window, &mut db);
                    assert_eq!(db[0], (d[0] - ORIGIN) - MU, "two subtractions, in order");
                    assert_eq!(da, db, "{name}: delta fill differs at k={k}");
                    for (x, y) in [
                        (a.val, b.val),
                        (a.abs, b.abs),
                        (a.psi, b.psi),
                        (a.psi_p, b.psi_p),
                        (a.phi, b.phi),
                        (a.phi_p, b.phi_p),
                    ] {
                        assert!(
                            (x - y).abs() <= 1e-12 * y.abs().max(1.0),
                            "{name} k={k}: {x} vs {y}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn row_sums_simd_matches_scalar() {
        for (name, row) in vector_rows() {
            for k in [1usize, 3, 4, 5, 8, 17, 31, 257] {
                let (d, zhat, _) = problem(k);
                let wf: Vec<f64> = (0..k).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
                let wl: Vec<f64> = (0..k).map(|i| 0.5 - ((i * 3) % 4) as f64).collect();
                let a = row.row_sums(&d, ORIGIN, MU, &zhat, &wf, &wl);
                let b = SecularKernels::SCALAR.row_sums(&d, ORIGIN, MU, &zhat, &wf, &wl);
                let scale = b.nrm2.sqrt() * (k as f64).sqrt();
                for (x, y) in [(a.nrm2, b.nrm2), (a.first, b.first), (a.last, b.last)] {
                    assert!(
                        (x - y).abs() <= 1e-14 * scale.max(y.abs()),
                        "{name} k={k}: {x} vs {y}"
                    );
                }
            }
        }
    }

    /// AVX2 performs the scalar element-wise operations, so its products
    /// are the scalar ones bit for bit; AVX-512's quotients are within 2
    /// ulp, so one column's factor moves a product by at most 2 ulp.
    #[test]
    fn local_w_col_is_bit_identical() {
        for (name, row) in vector_rows() {
            for k in [1usize, 3, 4, 8, 17, 31] {
                let (dl, col, _) = problem(k);
                for j in [0, k / 2, k - 1] {
                    let mut a = vec![1.5f64; k];
                    let mut b = a.clone();
                    SecularKernels::SCALAR.local_w_col(&dl, &col, j, &mut a);
                    row.local_w_col(&dl, &col, j, &mut b);
                    if row.level() == SimdLevel::Avx2 {
                        assert_eq!(a, b, "{name} k={k} j={j}");
                    }
                    for (x, y) in a.iter().zip(&b) {
                        assert!(ulps(*x, *y) <= 2, "{name} k={k} j={j}: {x:e} vs {y:e}");
                    }
                }
            }
        }
    }

    /// The assembly `tmp`: bit-identical on AVX2, within 2 ulp on AVX-512.
    #[test]
    fn assemble_col_matches_scalar() {
        for (name, row) in vector_rows() {
            for k in [1usize, 4, 7, 8, 17, 33] {
                let (zh, col, mut ta) = problem(k);
                let mut tb = ta.clone();
                let (a, _) = SecularKernels::SCALAR.assemble_col(&zh, &col, &mut ta);
                let (b, _) = row.assemble_col(&zh, &col, &mut tb);
                if row.level() == SimdLevel::Avx2 {
                    assert_eq!(ta, tb, "{name} k={k}");
                }
                for (x, y) in ta.iter().zip(&tb) {
                    assert!(ulps(*x, *y) <= 2, "{name} k={k}: {x:e} vs {y:e}");
                }
                assert!((a - b).abs() <= 1e-12 * b.max(1.0), "{name} k={k}");
            }
        }
    }

    #[test]
    fn dispatched_row_is_the_simd_level() {
        let row = SecularKernels::dispatched();
        assert_eq!(row.level(), simd_level());
        assert!(SecularKernels::runnable(row.level()).is_some());
        assert!(SecularKernels::runnable(SimdLevel::Scalar).is_some());
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
