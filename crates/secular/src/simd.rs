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
//! ([`local_w_segment`], from a stored pole-distance column or from the
//! root `(origin, μ)` it was written from), the per-column normalization
//! of `assemble_vectors` ([`assemble_col`]) and the values-only path's
//! fused boundary-row pass ([`row_sums`]). Each issues one quotient per
//! term and little else. A [`SecularKernels`] row holds the four for one
//! level, and the root step's one 16-term pass ([`window_sums`]):
//!
//! | level   | register  | quotient `a/b`                                       | a segment's last `n < N` terms |
//! |---------|-----------|------------------------------------------------------|--------------------------------|
//! | AVX-512 | `__m512d` | `a·r`, `r = vrcp14pd(b)` refined by two Newton steps | one masked register            |
//! | AVX2    | `__m256d` | `vdivpd`                                             | scalar, `/`                    |
//! | scalar  | `f64`     | `/`: the seed loops (a windowed sweep's far moments in the vector form) — the test oracle and the `set_simd_level(Scalar)` path | — |
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
//! rounding-order noise; the iteration tolerances absorb that. A segment
//! is one of three kinds. A far side of a sweep with an empty window sums
//! `t` and `t′`; the window sums `t` and `|t|`; and a far side of a
//! windowed sweep sums its four moments `Σ z²/δⁿ⁺¹` from `r = 1/δ`,
//! `zr = z·r`, `t = z·zr`, `t′ = zr²` and one more `·r` each. No far side
//! sums `|t|`: its terms share one sign, so `Σ|t|` is `|Σ t|` — LAPACK
//! `dlaed4`'s `ERRETM` form, which [`SweepSums::abs`] is on every row
//! (the scalar oracle included): bit for bit `Σ|t|`, summed segment by
//! segment, wherever the solver sweeps. The AVX2
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
/// sides of `split`). Each far side's sums are its moments
/// `Mₙ = Σ zᵢ²/δᵢⁿ⁺¹`: `M₀`, `M₁` always, `M₂`, `M₃` for a non-empty
/// window only (0 otherwise), so that side at `μ + h` is
/// `Σₙ Mₙ·hⁿ` — the Taylor series the root finder certifies a root with.
#[derive(Clone, Copy, Debug, Default)]
pub struct SweepSums {
    /// `Σ zᵢ²/δᵢ` (the secular sum; `f = 1 + ρ·val`).
    pub val: f64,
    /// `|ψ| + Σ_{lo≤i<hi} |zᵢ²/δᵢ| + |φ|`, LAPACK `dlaed4`'s `ERRETM` form
    /// (for the convergence tolerance; `fabs = 1 + ρ·abs`). Where each far
    /// side is one-signed — every sweep the root finder makes: d is
    /// ascending and μ lies inside the root's interval — it is `Σ |zᵢ²/δᵢ|`
    /// summed segment by segment in the order of `val`, bit for bit.
    pub abs: f64,
    /// `Σ_{i<lo} zᵢ²/δᵢ` (far ψ side, `M₀`).
    pub psi: f64,
    /// `Σ_{i<lo} zᵢ²/δᵢ²` (ψ′ side of the rational model, `M₁`).
    pub psi_p: f64,
    /// `Σ_{i<lo} zᵢ²/δᵢ³` (`M₂` of the ψ side).
    pub psi_2: f64,
    /// `Σ_{i<lo} zᵢ²/δᵢ⁴` (`M₃` of the ψ side).
    pub psi_3: f64,
    /// `Σ_{i≥hi} zᵢ²/δᵢ` (far φ side, `M₀`).
    pub phi: f64,
    /// `Σ_{i≥hi} zᵢ²/δᵢ²` (φ′ side, `M₁`).
    pub phi_p: f64,
    /// `Σ_{i≥hi} zᵢ²/δᵢ³` (`M₂` of the φ side).
    pub phi_2: f64,
    /// `Σ_{i≥hi} zᵢ²/δᵢ⁴` (`M₃` of the φ side).
    pub phi_3: f64,
}

impl SweepSums {
    /// The far sides' moments `[M₀, M₁, M₂, M₃]`, ψ side first.
    pub fn moments(&self) -> [[f64; 4]; 2] {
        [
            [self.psi, self.psi_p, self.psi_2, self.psi_3],
            [self.phi, self.phi_p, self.phi_2, self.phi_3],
        ]
    }
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
/// and no cancellation — and accumulate the sums. With an empty window
/// every term has the seed's exact operation order (`t = z²/δ`,
/// `t′ = t/δ`); a windowed sweep's far terms are the vector bodies'
/// moment form (`r = 1/δ`, `t = z·(z·r)`, each next moment one more `·r`).
// dcst-hot
pub(crate) fn secular_sweep_scalar(
    d: &[f64],
    origin: f64,
    mu: f64,
    z: &[f64],
    window: Range<usize>,
    delta: &mut [f64],
) -> SweepSums {
    let moments = !window.is_empty();
    let (mut val, mut aw) = (0.0, 0.0);
    let mut side = [[0.0f64; 4]; 2];
    for i in 0..d.len() {
        let de = (d[i] - origin) - mu;
        delta[i] = de;
        let far = if i < window.start {
            &mut side[0]
        } else if i >= window.end {
            &mut side[1]
        } else {
            let t = z[i] * z[i] / de;
            val += t;
            aw += t.abs();
            continue;
        };
        if moments {
            let r = 1.0 / de;
            let zr = z[i] * r;
            let t = z[i] * zr;
            let t1 = zr * zr;
            let t2 = t1 * r;
            val += t;
            for (m, x) in far.iter_mut().zip([t, t1, t2, t2 * r]) {
                *m += x;
            }
        } else {
            let t = z[i] * z[i] / de;
            val += t;
            far[0] += t;
            far[1] += t / de;
        }
    }
    let [[psi, psi_p, psi_2, psi_3], [phi, phi_p, phi_2, phi_3]] = side;
    SweepSums {
        val,
        abs: psi.abs() + aw + phi.abs(),
        psi,
        psi_p,
        psi_2,
        psi_3,
        phi,
        phi_p,
        phi_2,
        phi_3,
    }
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

/// The numerators of one Gu–Eisenstat column: root j's pole distances,
/// stored, or rebuilt from the root `(d_origin, μ)` as the solver wrote
/// them — `(dlamda[i] − d_origin) − μ`, the same bits.
#[derive(Clone, Copy, Debug)]
pub(crate) enum WCol<'a> {
    Stored(&'a [f64]),
    Root { origin: f64, mu: f64 },
}

impl WCol<'_> {
    /// Numerator `i`.
    #[inline(always)]
    fn at(&self, dlamda: &[f64], i: usize) -> f64 {
        match *self {
            WCol::Stored(col) => col[i],
            WCol::Root { origin, mu } => (dlamda[i] - origin) - mu,
        }
    }
}

/// Scalar oracle for one Gu–Eisenstat column:
/// `out[i] *= col[i] / (dlamda[i] − dlamda[j])` for `i ≠ j`,
/// `out[j] *= col[j]`.
// dcst-hot
pub(crate) fn local_w_col_scalar(dlamda: &[f64], col: WCol<'_>, j: usize, out: &mut [f64]) {
    let dj = dlamda[j];
    for i in 0..out.len() {
        let c = col.at(dlamda, i);
        if i == j {
            out[i] *= c;
        } else {
            out[i] *= c / (dlamda[i] - dj);
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

/// Lanes of a root-step model's window: `2·WINDOW` poles of `roots.rs`,
/// a multiple of every register width.
pub(crate) const WINDOW_LANES: usize = 16;

/// Scalar oracle for a step model's window at μ: with `u = min(1/(q−μ), 0)`
/// and `v = max(1/(q−μ), 0)` per pole, `[Σ w·u, Σ w·u², Σ w·v, Σ w·v²]`.
/// Poles below μ have `u = 1/(q − μ)`, `v = 0`, and those above the
/// reverse, so these are the value and slope sums of the window's two
/// sides, split by μ with no index. A padding lane (`q = ∞`, `w = 0`)
/// adds zeros.
// dcst-hot
pub(crate) fn window_sums_scalar(
    q: &[f64; WINDOW_LANES],
    w: &[f64; WINDOW_LANES],
    mu: f64,
) -> [f64; 4] {
    let mut s = [0.0; 4];
    for t in 0..WINDOW_LANES {
        let inv = 1.0 / (q[t] - mu);
        let (u, v) = (inv.min(0.0), inv.max(0.0));
        let (wu, wv) = (w[t] * u, w[t] * v);
        s[0] += wu;
        s[1] += wu * u;
        s[2] += wv;
        s[3] += wv * v;
    }
    s
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
    /// Lane-wise `min(a, b)` and `max(a, b)` (`b` where a lane is NaN).
    unsafe fn min(a: Self, b: Self) -> Self;
    unsafe fn max(a: Self, b: Self) -> Self;
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
        unsafe fn min(a: Self, b: Self) -> Self {
            _mm256_min_pd(a, b)
        }
        #[inline(always)]
        unsafe fn max(a: Self, b: Self) -> Self {
            _mm256_max_pd(a, b)
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
        unsafe fn min(a: Self, b: Self) -> Self {
            _mm512_min_pd(a, b)
        }
        #[inline(always)]
        unsafe fn max(a: Self, b: Self) -> Self {
            _mm512_max_pd(a, b)
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

/// What a sweep segment sums: a far side of a sweep with an empty window
/// (`Σ z²/δ`, `Σ z²/δ²`), a far side of a windowed one (its four moments
/// `Σ z²/δⁿ⁺¹`), or the window (`Σ z²/δ`, `Σ |z²/δ|`).
#[cfg(target_arch = "x86_64")]
const FAR: u8 = 0;
#[cfg(target_arch = "x86_64")]
const MOMENTS: u8 = 1;
#[cfg(target_arch = "x86_64")]
const WINDOW_SUMS: u8 = 2;

/// One register of a sweep segment of kind `KIND`, into the lane sums
/// `acc` (only the first two for `FAR` and `WINDOW_SUMS`). `FAR` and
/// `WINDOW_SUMS` take `r = z/δ`, `t = z·r`, `t′ = r²`; `MOMENTS` takes
/// `r = 1/δ`, `zr = z·r`, `t = z·zr`, `t′ = zr²` and one more `·r` per
/// moment — one quotient per term either way.
///
/// # Safety
/// `V`'s ISA.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
// dcst-hot
unsafe fn sweep_step<V: Lanes, const EXACT: bool, const KIND: u8>(
    vz: V,
    vde: V,
    acc: &mut [V; 4],
    guard: &mut V,
) {
    if KIND == MOMENTS {
        let vr = quot::<V, EXACT>(V::splat(1.0), vde, guard); // 1/δ
        let vzr = V::mul(vz, vr); // z/δ
        acc[0] = V::madd(vz, vzr, acc[0]); // z²/δ
        let t1 = V::mul(vzr, vzr); // z²/δ²
        acc[1] = V::add(acc[1], t1);
        let t2 = V::mul(t1, vr); // z²/δ³
        acc[2] = V::add(acc[2], t2);
        acc[3] = V::madd(t2, vr, acc[3]); // z²/δ⁴
    } else {
        let vr = quot::<V, EXACT>(vz, vde, guard); // z/δ
        let vt = V::mul(vz, vr); // z²/δ
        acc[0] = V::add(acc[0], vt);
        acc[1] = if KIND == FAR {
            V::madd(vr, vr, acc[1]) // (z/δ)²
        } else {
            V::add(acc[1], V::abs(vt))
        };
    }
}

/// The pass of one sweep segment, `[lo, end)`: fill `delta`, return the
/// lane sums of `KIND`. A partial last register divides its dead lanes'
/// `0` by `1`.
///
/// # Safety
/// `V`'s ISA; `lo ≤ end ≤` the length of all three slices, and
/// `end − lo` a multiple of `N` unless `V::MASKED_TAIL`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(clippy::too_many_arguments)]
// dcst-hot
unsafe fn sweep_pass<V: Lanes, const EXACT: bool, const KIND: u8>(
    d: &[f64],
    origin: f64,
    mu: f64,
    z: &[f64],
    delta: &mut [f64],
    lo: usize,
    end: usize,
    guard: &mut V,
) -> [V; 4] {
    let (vorigin, vmu) = (V::splat(origin), V::splat(mu));
    let mut acc = [V::splat(0.0); 4];
    let whole = end - (end - lo) % V::N;
    for i in (lo..whole).step_by(V::N) {
        let vde = V::sub(V::sub(V::load(d.as_ptr().add(i)), vorigin), vmu);
        V::store(delta.as_mut_ptr().add(i), vde);
        sweep_step::<V, EXACT, KIND>(V::load(z.as_ptr().add(i)), vde, &mut acc, guard);
    }
    if V::MASKED_TAIL && whole < end {
        let (i, n) = (whole, end - whole);
        let vde = V::sub(V::sub(V::load_tail(d.as_ptr().add(i), n), vorigin), vmu);
        V::store_tail(delta.as_mut_ptr().add(i), n, vde);
        let vz = V::load_tail(z.as_ptr().add(i), n);
        sweep_step::<V, EXACT, KIND>(vz, V::fill_tail(vde, n, 1.0), &mut acc, guard);
    }
    acc
}

/// Sweep one index segment `[lo, hi)`: fill `delta`, return the segment's
/// sums of `KIND` (see [`sweep_step`]; unused entries 0).
///
/// # Safety
/// `V`'s ISA; `lo ≤ hi ≤` the length of all three slices.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
// dcst-hot
unsafe fn sweep_segment<V: Lanes, const KIND: u8>(
    d: &[f64],
    origin: f64,
    mu: f64,
    z: &[f64],
    delta: &mut [f64],
    lo: usize,
    hi: usize,
) -> [f64; 4] {
    let end = pass_end::<V>(lo, hi);
    let mut guard = V::splat(0.0);
    let mut v = sweep_pass::<V, false, KIND>(d, origin, mu, z, delta, lo, end, &mut guard);
    if !V::clear(guard) {
        v = sweep_pass::<V, true, KIND>(d, origin, mu, z, delta, lo, end, &mut guard);
    }
    // No closure here: it would not inherit the caller's target features.
    let mut s = [V::hsum(v[0]), V::hsum(v[1]), V::hsum(v[2]), V::hsum(v[3])];
    for i in end..hi {
        let de = (d[i] - origin) - mu;
        delta[i] = de;
        if KIND == MOMENTS {
            let r = 1.0 / de;
            let zr = z[i] * r;
            let t1 = zr * zr;
            let t2 = t1 * r;
            for (m, x) in s.iter_mut().zip([z[i] * zr, t1, t2, t2 * r]) {
                *m += x;
            }
        } else {
            let r = z[i] / de;
            let t = z[i] * r;
            s[0] += t;
            s[1] += if KIND == FAR { r * r } else { t.abs() };
        }
    }
    s
}

/// Three segments — far ψ side, window, far φ side — with no pass for an
/// empty window, so a sweep at one `split` runs the two segments it always
/// has. Only a windowed sweep's far sides pay for the moments `M₂`, `M₃`;
/// no far side sums `|t|` (see [`SweepSums::abs`]).
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
    let (psi, phi, vw, aw) = if lo < hi {
        let psi = sweep_segment::<V, MOMENTS>(d, origin, mu, z, delta, 0, lo);
        let [vw, aw, ..] = sweep_segment::<V, WINDOW_SUMS>(d, origin, mu, z, delta, lo, hi);
        let phi = sweep_segment::<V, MOMENTS>(d, origin, mu, z, delta, hi, k);
        (psi, phi, vw, aw)
    } else {
        let psi = sweep_segment::<V, FAR>(d, origin, mu, z, delta, 0, lo);
        let phi = sweep_segment::<V, FAR>(d, origin, mu, z, delta, hi, k);
        (psi, phi, 0.0, 0.0)
    };
    let ([psi, psi_p, psi_2, psi_3], [phi, phi_p, phi_2, phi_3]) = (psi, phi);
    SweepSums {
        val: psi + vw + phi,
        abs: psi.abs() + aw + phi.abs(),
        psi,
        psi_p,
        psi_2,
        psi_3,
        phi,
        phi_p,
        phi_2,
        phi_3,
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

/// Multiply `out[i] *= col[i] / (dlamda[i] − dj)` over `[lo, hi)`, the
/// numerators loaded from `col` (`STORED`) or rebuilt from the root
/// `(origin, μ)` out of the `dlamda` register already loaded.
///
/// # Safety
/// `V`'s ISA; `lo ≤ hi ≤ len` of `dlamda` and `out`, and of `col` if
/// `STORED`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(clippy::too_many_arguments)]
// dcst-hot
unsafe fn local_w_segment<V: Lanes, const STORED: bool>(
    dlamda: &[f64],
    col: &[f64],
    (origin, mu): (f64, f64),
    dj: f64,
    out: &mut [f64],
    lo: usize,
    hi: usize,
) {
    let (vdj, vorigin, vmu) = (V::splat(dj), V::splat(origin), V::splat(mu));
    let end = pass_end::<V>(lo, hi);
    let whole = end - (end - lo) % V::N;
    for i in (lo..whole).step_by(V::N) {
        let [vd, vo] = [dlamda, &*out].map(|s| V::load(s.as_ptr().add(i)));
        let vc = if STORED {
            V::load(col.as_ptr().add(i))
        } else {
            V::sub(V::sub(vd, vorigin), vmu)
        };
        let vo = local_w_step(vo, vc, V::sub(vd, vdj));
        V::store(out.as_mut_ptr().add(i), vo);
    }
    if V::MASKED_TAIL && whole < end {
        let (i, n) = (whole, end - whole);
        let [vd, vo] = [dlamda, &*out].map(|s| V::load_tail(s.as_ptr().add(i), n));
        let vc = if STORED {
            V::load_tail(col.as_ptr().add(i), n)
        } else {
            V::sub(V::sub(vd, vorigin), vmu)
        };
        let vo = local_w_step(vo, vc, V::fill_tail(V::sub(vd, vdj), n, 1.0));
        V::store_tail(out.as_mut_ptr().add(i), n, vo);
    }
    for i in end..hi {
        let c = if STORED {
            col[i]
        } else {
            (dlamda[i] - origin) - mu
        };
        out[i] *= c / (dlamda[i] - dj);
    }
}

/// # Safety
/// `V`'s ISA; `dlamda` and `out` have equal length `k`, as has a stored
/// `col`, and `j < k`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
// dcst-hot
unsafe fn local_w_col<V: Lanes>(dlamda: &[f64], col: WCol<'_>, j: usize, out: &mut [f64]) {
    let k = out.len();
    let dj = dlamda[j];
    let cj = col.at(dlamda, j);
    match col {
        WCol::Stored(c) => {
            local_w_segment::<V, true>(dlamda, c, (0.0, 0.0), dj, out, 0, j);
            out[j] *= cj;
            local_w_segment::<V, true>(dlamda, c, (0.0, 0.0), dj, out, j + 1, k);
        }
        WCol::Root { origin, mu } => {
            local_w_segment::<V, false>(dlamda, &[], (origin, mu), dj, out, 0, j);
            out[j] *= cj;
            local_w_segment::<V, false>(dlamda, &[], (origin, mu), dj, out, j + 1, k);
        }
    }
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

/// [`window_sums_scalar`] in one pass of whole registers, dividing with
/// `vdivpd` (a padding lane's `1/∞` is exact, where a reciprocal's guard
/// would trip).
///
/// # Safety
/// `V`'s ISA; `WINDOW_LANES` a multiple of `N`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
// dcst-hot
unsafe fn window_sums<V: Lanes>(
    q: &[f64; WINDOW_LANES],
    w: &[f64; WINDOW_LANES],
    mu: f64,
) -> [f64; 4] {
    let (one, zero, vmu) = (V::splat(1.0), V::splat(0.0), V::splat(mu));
    let mut acc = [zero; 4];
    for t in (0..WINDOW_LANES).step_by(V::N) {
        let inv = V::div(one, V::sub(V::load(q.as_ptr().add(t)), vmu));
        let (u, v) = (V::min(inv, zero), V::max(inv, zero));
        let vw = V::load(w.as_ptr().add(t));
        let (wu, wv) = (V::mul(vw, u), V::mul(vw, v));
        acc[0] = V::add(acc[0], wu);
        acc[1] = V::madd(wu, u, acc[1]);
        acc[2] = V::add(acc[2], wv);
        acc[3] = V::madd(wv, v, acc[3]);
    }
    [
        V::hsum(acc[0]),
        V::hsum(acc[1]),
        V::hsum(acc[2]),
        V::hsum(acc[3]),
    ]
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
    use super::{RowSums, SweepSums, WCol, WINDOW_LANES};
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
    pub(super) unsafe fn local_w_col(dlamda: &[f64], col: WCol<'_>, j: usize, out: &mut [f64]) {
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

    #[target_feature(enable = "avx2,fma")]
    // dcst-hot
    pub(super) unsafe fn window_sums(
        q: &[f64; WINDOW_LANES],
        w: &[f64; WINDOW_LANES],
        mu: f64,
    ) -> [f64; 4] {
        super::window_sums::<__m256d>(q, w, mu)
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{RowSums, SweepSums, WCol, WINDOW_LANES};
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
    pub(super) unsafe fn local_w_col(dlamda: &[f64], col: WCol<'_>, j: usize, out: &mut [f64]) {
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

    #[target_feature(enable = "avx512f,fma")]
    // dcst-hot
    pub(super) unsafe fn window_sums(
        q: &[f64; WINDOW_LANES],
        w: &[f64; WINDOW_LANES],
        mu: f64,
    ) -> [f64; 4] {
        super::window_sums::<__m512d>(q, w, mu)
    }
}

// ------------------------------------------------------------- dispatch

/// `(d, origin, μ, z, window, delta) → sums`: [`SecularKernels::sweep`].
type SweepFn = unsafe fn(&[f64], f64, f64, &[f64], Range<usize>, &mut [f64]) -> SweepSums;
/// `(d, origin, μ, ẑ, wf, wl) → sums`: [`SecularKernels::row_sums`].
type RowSumsFn = unsafe fn(&[f64], f64, f64, &[f64], &[f64], &[f64]) -> RowSums;
/// `(ẑ, δ, tmp) → (Σ tmp², redone)`: [`SecularKernels::assemble_col`].
type AssembleFn = unsafe fn(&[f64], &[f64], &mut [f64]) -> (f64, bool);
/// `(q, w, μ) → sums`: [`SecularKernels::window_sums`].
type WindowFn = unsafe fn(&[f64; WINDOW_LANES], &[f64; WINDOW_LANES], f64) -> [f64; 4];

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
    local_w_col: unsafe fn(&[f64], WCol<'_>, usize, &mut [f64]),
    assemble_col: AssembleFn,
    quot: unsafe fn(f64, f64) -> f64,
    window_sums: WindowFn,
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
        window_sums: window_sums_scalar,
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
                window_sums: avx512::window_sums,
            },
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => SecularKernels {
                level,
                sweep: avx2::secular_sweep,
                row_sums: avx2::row_sums,
                local_w_col: avx2::local_w_col,
                assemble_col: avx2::assemble_col,
                quot: avx2::quot,
                window_sums: avx2::window_sums,
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
    /// runs it — whatever level is pinned, so a test can drive every
    /// instance the machine has, not only the dispatched one.
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

    /// One Gu–Eisenstat column product, in place on `out`, from root
    /// `j`'s stored pole-distance column.
    #[inline]
    // dcst-hot
    pub fn local_w_col(&self, dlamda: &[f64], col: &[f64], j: usize, out: &mut [f64]) {
        assert!(col.len() == out.len());
        self.local_w(dlamda, WCol::Stored(col), j, out)
    }

    /// [`Self::local_w_col`] with the column rebuilt from the root
    /// `(d_origin, μ)` inside the pass: the same products, bit for bit, as
    /// from the column the solver wrote, and no column stored.
    #[inline]
    // dcst-hot
    pub fn local_w_root(&self, dlamda: &[f64], origin: f64, mu: f64, j: usize, out: &mut [f64]) {
        self.local_w(dlamda, WCol::Root { origin, mu }, j, out)
    }

    #[inline]
    // dcst-hot
    fn local_w(&self, dlamda: &[f64], col: WCol<'_>, j: usize, out: &mut [f64]) {
        let k = out.len();
        assert!(j < k && dlamda.len() == k);
        // SAFETY: the row's level runs on this CPU (type invariant), and
        // the lengths are the ones the body reads (a stored column's
        // checked by the caller).
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

    /// A root-step model's window at μ: the value and slope sums of the
    /// poles below μ, then of those above it (see [`window_sums_scalar`]).
    #[inline]
    // dcst-hot
    pub(crate) fn window_sums(
        &self,
        q: &[f64; WINDOW_LANES],
        w: &[f64; WINDOW_LANES],
        mu: f64,
    ) -> [f64; 4] {
        // SAFETY: the row's level runs on this CPU (type invariant); the
        // arrays are the lanes the body reads.
        unsafe { (self.window_sums)(q, w, mu) }
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
                        (a.psi_2, b.psi_2),
                        (a.psi_3, b.psi_3),
                        (a.phi, b.phi),
                        (a.phi_p, b.phi_p),
                        (a.phi_2, b.phi_2),
                        (a.phi_3, b.phi_3),
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

    /// Where each far side is one-signed — μ inside `(d[s − 1], d[s])`,
    /// the window around `s` — the `ERRETM` form `|ψ| + Σ_w|t| + |φ|` of
    /// the scalar oracle is a literal `Σ|t|`, summed side by side in the
    /// oracle's order, bit for bit; every vector row's is within rounding.
    #[test]
    fn abs_is_the_literal_sum_of_magnitudes_for_one_signed_sides() {
        let k = 257;
        let (d, z, mut delta) = problem(k);
        for s in [1usize, 2, 9, 100, 200, 256] {
            // Origin d[s − 1], μ a third of the way to d[s].
            let (origin, mu) = (d[s - 1], (d[s] - d[s - 1]) / 3.0);
            for window in [s..s, s.saturating_sub(8)..(s + 8).min(k)] {
                let moments = !window.is_empty();
                let term = |i: usize| {
                    let de = (d[i] - origin) - mu;
                    if moments && !window.contains(&i) {
                        z[i] * (z[i] * (1.0 / de))
                    } else {
                        z[i] * z[i] / de
                    }
                };
                assert!((0..window.start).all(|i| term(i) < 0.0));
                assert!((window.end..k).all(|i| term(i) > 0.0));
                let literal = |r: Range<usize>| r.fold(0.0f64, |acc, i| acc + term(i).abs());
                let want =
                    literal(0..window.start) + literal(window.clone()) + literal(window.end..k);
                let b =
                    SecularKernels::SCALAR.sweep(&d, origin, mu, &z, window.clone(), &mut delta);
                assert_eq!(b.abs.to_bits(), want.to_bits(), "scalar s={s} {window:?}");
                for (name, row) in vector_rows() {
                    let a = row.sweep(&d, origin, mu, &z, window.clone(), &mut delta);
                    assert!(
                        (a.abs - b.abs).abs() <= 1e-14 * b.abs,
                        "{name} s={s} {window:?}"
                    );
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

    /// A column rebuilt from the root `(d_origin, μ)` inside the pass gives
    /// the products the stored column gives, bit for bit, on every row.
    #[test]
    fn local_w_root_is_the_stored_column() {
        let rows = [("scalar", SecularKernels::SCALAR)]
            .into_iter()
            .chain(vector_rows());
        for (name, row) in rows {
            for k in [1usize, 3, 4, 8, 17, 31, 257] {
                let (dl, _, _) = problem(k);
                for (j, origin) in [(0, 0), (k / 2, (k / 2 + 1).min(k - 1)), (k - 1, k - 1)] {
                    let mu = if origin == j { 0.4 } else { -0.4 };
                    let col: Vec<f64> = dl.iter().map(|&d| (d - dl[origin]) - mu).collect();
                    let mut a = vec![1.5f64; k];
                    let mut b = a.clone();
                    row.local_w_col(&dl, &col, j, &mut a);
                    row.local_w_root(&dl, dl[origin], mu, j, &mut b);
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&a), bits(&b), "{name} k={k} j={j}");
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
