//! Eigenvalue bisection: on the tridiagonal (Sturm counts) and on an
//! `LDLᵀ` representation (stationary qds counts, for relative accuracy).

use crate::rrr::{sturm_count_ldl, Rrr};
use crate::{concat, in_chunks, MrrrError};
use dcst_runtime::Runtime;
use dcst_tridiag::{sturm_counts_batch, SymTridiag};
use std::sync::Arc;

/// The eigenvalues with (0-based, ascending) indices in `range`, to
/// absolute accuracy ~`ε‖T‖` — Θ(n·|range|) work, the subset property the
/// paper credits MRRR with — with index chunks run as one task per worker
/// of `rt`. Returns [`MrrrError::InvalidRange`] when the range reaches
/// past `n`.
pub fn bisect_range(
    t: &SymTridiag,
    range: std::ops::Range<usize>,
    rt: &Runtime,
) -> Result<Vec<f64>, MrrrError> {
    if range.end > t.n() {
        return Err(MrrrError::InvalidRange {
            il: range.start,
            iu: range.end.saturating_sub(1),
            n: t.n(),
        });
    }
    let k = range.len();
    if k == 0 {
        return Ok(vec![]);
    }
    let (gl, gu) = bracket(t);
    let t = Arc::new(t.clone());
    let k0 = range.start;
    Ok(concat(in_chunks(rt, "MrrrBisect", k, move |c| {
        let mut lam = vec![0.0f64; c.len()];
        bisect_batch(&t, k0 + c.start, &mut lam, gl, gu);
        lam
    })))
}

/// Eigenvalues `k0` and `k0 + 1` of `t`, bisected on the calling thread:
/// the neighbours a subset window cuts between, too few for a task each.
pub(crate) fn bisect_pair(t: &SymTridiag, k0: usize) -> [f64; 2] {
    let (gl, gu) = bracket(t);
    let mut pair = [0.0f64; 2];
    bisect_batch(t, k0, &mut pair, gl, gu);
    pair
}

/// The Gershgorin interval of `t` with scale-relative padding. The bounds
/// already enclose the spectrum; the pad only has to absorb the rounding
/// error of computing them, so a few ulps of the bound magnitudes suffice.
/// (An earlier absolute `1e-6` widening swamped tiny-norm spectra: for a
/// matrix scaled to ~1e-60 the bracket started ~1e54 times wider than
/// every eigenvalue and no fixed iteration budget could close it.)
fn bracket(t: &SymTridiag) -> (f64, f64) {
    let (gl, gu) = t.gershgorin_bounds();
    let scale = gl.abs().max(gu.abs()).max(f64::MIN_POSITIVE);
    let pad = 4.0 * f64::EPSILON * scale + f64::MIN_POSITIVE;
    (gl - pad, gu + pad)
}

/// Eigenvalues `k0..k0 + out.len()` of `t` by lockstep bisection: every
/// sweep evaluates all still-active midpoints with one batched Sturm pass
/// ([`sturm_counts_batch`]), whose per-row pivot divisions pipeline across
/// lanes instead of serializing on division latency as one-at-a-time
/// bisection does. Per-lane bracket updates and exits are exactly the
/// scalar algorithm's, so the results match one-at-a-time bisection bit
/// for bit.
fn bisect_batch(t: &SymTridiag, k0: usize, out: &mut [f64], gl: f64, gu: f64) {
    let m = out.len();
    let mut lo = vec![gl; m];
    let mut hi = vec![gu; m];
    // Invariant per lane j: count(lo) <= k0+j < count(hi). Iterate until
    // the bracket collapses — to relative width ~2ε, or to adjacent floats
    // (midpoint degeneracy, which also bounds brackets straddling zero:
    // they shrink into the denormals within ~2100 halvings). The cap is a
    // safety net far above either exit, not a convergence criterion: a
    // fixed small budget cannot close brackets that start many orders of
    // magnitude wider than the eigenvalue.
    let mut active: Vec<usize> = (0..m).collect();
    let mut mids = Vec::with_capacity(m);
    let mut counts = vec![0usize; m];
    for _ in 0..4096 {
        active.retain(|&j| {
            if hi[j] - lo[j] <= 2.0 * f64::EPSILON * lo[j].abs().max(hi[j].abs()) {
                return false;
            }
            let mid = 0.5 * (lo[j] + hi[j]);
            mid > lo[j] && mid < hi[j]
        });
        if active.is_empty() {
            break;
        }
        mids.clear();
        mids.extend(active.iter().map(|&j| 0.5 * (lo[j] + hi[j])));
        sturm_counts_batch(t, &mids, &mut counts);
        for (a, &j) in active.iter().enumerate() {
            if counts[a] > k0 + j {
                hi[j] = mids[a];
            } else {
                lo[j] = mids[a];
            }
        }
    }
    for j in 0..m {
        out[j] = 0.5 * (lo[j] + hi[j]);
    }
}

/// Refine the `k`-th eigenvalue of the representation `rep` (already known
/// to be ≈ `approx` in the representation's local coordinates) to high
/// *relative* accuracy using qds Sturm counts.
pub fn bisect_refine_ldl(rep: &Rrr, k: usize, approx: f64, norm: f64) -> f64 {
    // Establish a bracket around the approximate value.
    let mut radius = (approx.abs() * 1e-10).max(8.0 * f64::EPSILON * norm);
    let (mut lo, mut hi);
    loop {
        lo = approx - radius;
        hi = approx + radius;
        let clo = sturm_count_ldl(rep, lo);
        let chi = sturm_count_ldl(rep, hi);
        if clo <= k && k < chi {
            break;
        }
        radius *= 8.0;
        if radius > 4.0 * norm + approx.abs() {
            // Degenerate bracket (should not happen); keep the input.
            return approx;
        }
    }
    for _ in 0..128 {
        if hi - lo <= 2.0 * f64::EPSILON * lo.abs().max(hi.abs()) {
            break;
        }
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break;
        }
        if sturm_count_ldl(rep, mid) > k {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rrr::ldl_factor;

    fn rt() -> Runtime {
        Runtime::new(2)
    }

    /// Every eigenvalue of `t`, ascending.
    fn all(t: &SymTridiag, rt: &Runtime) -> Vec<f64> {
        bisect_range(t, 0..t.n(), rt).unwrap()
    }

    #[test]
    fn bisect_matches_closed_form() {
        let n = 16;
        let t = SymTridiag::toeplitz121(n);
        let lam = all(&t, &rt());
        for (k, &l) in lam.iter().enumerate() {
            let want = 2.0 - 2.0 * ((k + 1) as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos();
            assert!((l - want).abs() < 1e-12, "{l} vs {want}");
        }
    }

    #[test]
    fn runtime_does_not_change_results() {
        let t = dcst_tridiag::gen::MatrixType::Type6.generate(33, 4);
        let a = all(&t, &Runtime::inline(0));
        let b = all(&t, &Runtime::new(4));
        assert_eq!(a, b);
    }

    #[test]
    fn out_of_range_is_a_typed_error() {
        let t = SymTridiag::toeplitz121(8);
        let err = bisect_range(&t, 4..9, &rt()).unwrap_err();
        assert_eq!(err, MrrrError::InvalidRange { il: 4, iu: 8, n: 8 });
        // The full range and an empty range are both fine.
        assert_eq!(bisect_range(&t, 0..8, &rt()).unwrap().len(), 8);
        assert!(bisect_range(&t, 3..3, &rt()).unwrap().is_empty());
    }

    /// Relative accuracy on a tiny-norm spectrum (the 1e-60 DMPV regime):
    /// the old absolute 1e-6 bracket padding left every eigenvalue with
    /// relative error ~1e15 here.
    #[test]
    fn tiny_scale_keeps_relative_accuracy() {
        let n = 24;
        let base = SymTridiag::toeplitz121(n);
        let t = SymTridiag::new(
            base.d.iter().map(|x| x * 1e-60).collect(),
            base.e.iter().map(|x| x * 1e-60).collect(),
        );
        let lam = all(&t, &rt());
        for (k, &l) in lam.iter().enumerate() {
            let want = 1e-60
                * (2.0 - 2.0 * ((k + 1) as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos());
            assert!(
                (l - want).abs() < 1e-12 * want.abs(),
                "eig {k}: {l} vs {want} (rel {})",
                ((l - want) / want).abs()
            );
        }
    }

    /// Huge-norm spectra must stay accurate too (scale symmetry).
    #[test]
    fn huge_scale_keeps_relative_accuracy() {
        let n = 24;
        let base = SymTridiag::toeplitz121(n);
        let t = SymTridiag::new(
            base.d.iter().map(|x| x * 1e150).collect(),
            base.e.iter().map(|x| x * 1e150).collect(),
        );
        let lam = all(&t, &rt());
        for (k, &l) in lam.iter().enumerate() {
            let want = 1e150
                * (2.0 - 2.0 * ((k + 1) as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos());
            assert!(
                (l - want).abs() < 1e-12 * want.abs(),
                "eig {k}: {l} vs {want}"
            );
        }
    }

    #[test]
    fn zero_matrix_converges() {
        let t = SymTridiag::new(vec![0.0; 6], vec![0.0; 5]);
        let lam = all(&t, &rt());
        for l in lam {
            assert!(l.abs() < 1e-300, "{l}");
        }
    }

    #[test]
    fn ldl_refinement_improves_relative_accuracy() {
        let t = SymTridiag::toeplitz121(12);
        let (gl, _) = t.gershgorin_bounds();
        let sigma = gl - 0.1;
        let rep = ldl_factor(&t, sigma);
        // Smallest eigenvalue in representation coordinates.
        let lam0 = 2.0 - 2.0 * (std::f64::consts::PI / 13.0).cos() - sigma;
        let rough = lam0 * (1.0 + 1e-7);
        let refined = bisect_refine_ldl(&rep, 0, rough, t.max_norm());
        assert!(
            (refined - lam0).abs() < 1e-12 * lam0.abs(),
            "refined {refined} vs {lam0}"
        );
    }
}
