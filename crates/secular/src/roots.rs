//! The secular equation solver (`dlaed4` analogue).
//!
//! For the rank-one update `D + ρ z zᵀ` (D = diag(d), d strictly
//! ascending, ρ > 0, z fully non-deflated) the eigenvalues are the roots of
//!
//! ```text
//! f(λ) = 1 + ρ Σᵢ zᵢ² / (dᵢ − λ)          (the paper's Eq. (7))
//! ```
//!
//! Root `j` lies in `(d_j, d_{j+1})` (and the last in
//! `(d_{k−1}, d_{k−1} + ρ‖z‖²)`). All arithmetic happens in coordinates
//! shifted to the closest pole, so the returned pole distances
//! `delta[i] = d_i − λ` are computed as `(d_i − d_K) − μ` without
//! cancellation — the property eigenvector orthogonality rests on.

use crate::simd::SecularKernels;
use dcst_matrix::metrics;
use dcst_matrix::util::EPS;

/// Failure of the root finder.
#[derive(Debug, Clone, PartialEq)]
pub enum SecularError {
    /// Iteration did not reach the convergence criterion (returns the best
    /// bracket midpoint anyway in practice; this signals a numerical bug).
    NoConvergence { root: usize },
    /// Invalid input (non-positive rho, unsorted d, zero z entry, or a
    /// non-finite value in any of them).
    InvalidInput(&'static str),
}

impl std::fmt::Display for SecularError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SecularError::NoConvergence { root } => {
                write!(f, "secular root {root} did not converge")
            }
            SecularError::InvalidInput(msg) => write!(f, "invalid secular input: {msg}"),
        }
    }
}

impl std::error::Error for SecularError {}

impl SecularError {
    /// Translate a merge-local root index to global coordinates by adding
    /// the merge node's row offset (drivers report errors in global rows).
    pub fn with_offset(self, off: usize) -> Self {
        match self {
            SecularError::NoConvergence { root } => {
                SecularError::NoConvergence { root: root + off }
            }
            other => other,
        }
    }
}

/// Evaluate `f(λ)` directly (for tests and diagnostics; the solver itself
/// works in shifted coordinates).
pub fn secular_function(d: &[f64], z: &[f64], rho: f64, lambda: f64) -> f64 {
    1.0 + rho
        * d.iter()
            .zip(z)
            .map(|(&di, &zi)| zi * zi / (di - lambda))
            .sum::<f64>()
}

/// `f` and bookkeeping evaluated in shifted coordinates: `delta[i]`
/// already holds `(d_i − d_K) − μ`. Returns `(f, Σ|terms|)`.
fn eval_shifted(z: &[f64], rho: f64, delta: &[f64]) -> (f64, f64) {
    let mut val = 0.0;
    let mut abs = 0.0;
    for (&zi, &de) in z.iter().zip(delta) {
        let t = zi * zi / de;
        val += t;
        abs += t.abs();
    }
    (1.0 + rho * val, 1.0 + rho * abs)
}

/// A secular problem `D + ρzzᵀ`, validated once: ρ positive and finite,
/// the poles `d` finite and strictly ascending, every `z` entry finite and
/// non-zero (deflation removes the zero ones before a solver sees them).
/// A panel task builds one and solves its roots against it, so nothing
/// here is re-checked or re-summed per root.
#[derive(Clone, Copy, Debug)]
pub struct SecularProblem<'a> {
    d: &'a [f64],
    z: &'a [f64],
    rho: f64,
    znorm2: f64,
}

/// One solved secular root, in the coordinates it was solved in:
/// `λ = d[origin] + μ`, with `origin` the pole closest to the root. The
/// pair is the whole state a pole-distance column can be rebuilt from —
/// `delta[i] = (d[i] − d[origin]) − μ`, bit for bit what the solver wrote.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SecularRoot {
    pub lambda: f64,
    pub mu: f64,
    pub origin: usize,
}

impl<'a> SecularProblem<'a> {
    /// Validate `(d, z, ρ)`; `d` and `z` must have one length.
    pub fn new(d: &'a [f64], z: &'a [f64], rho: f64) -> Result<Self, SecularError> {
        assert_eq!(d.len(), z.len(), "one z entry per pole");
        if !(rho > 0.0 && rho.is_finite()) {
            return Err(SecularError::InvalidInput("rho must be positive"));
        }
        if !d.iter().all(|x| x.is_finite()) {
            return Err(SecularError::InvalidInput("poles must be finite"));
        }
        // `all(<)`, not `any(>=)`: no ordering of a NaN passes either.
        if !d.windows(2).all(|w| w[0] < w[1]) {
            return Err(SecularError::InvalidInput(
                "poles must be strictly ascending",
            ));
        }
        if !z.iter().all(|&x| x.is_finite() && x != 0.0) {
            return Err(SecularError::InvalidInput(
                "z entries must be finite and non-zero",
            ));
        }
        let znorm2 = z.iter().map(|x| x * x).sum();
        Ok(SecularProblem { d, z, rho, znorm2 })
    }

    /// Solve for root `j` (0-based). `delta` (length k) is filled with the
    /// accurately-computed distances `d_i − λ_j`.
    ///
    /// The per-iteration k-term sweeps run through the runtime-dispatched
    /// SIMD kernels in [`crate::simd`]; [`Self::solve_root_scalar`] pins
    /// the scalar bodies and serves as the oracle.
    pub fn solve_root(&self, j: usize, delta: &mut [f64]) -> Result<SecularRoot, SecularError> {
        self.solve(j, delta, SecularKernels::dispatched(), MAXIT)
    }

    /// [`Self::solve_root`] forced onto the scalar kernel bodies. Retained
    /// as the property-test oracle and for SIMD-vs-scalar benchmarking
    /// within one process.
    pub fn solve_root_scalar(
        &self,
        j: usize,
        delta: &mut [f64],
    ) -> Result<SecularRoot, SecularError> {
        self.solve(j, delta, SecularKernels::SCALAR, MAXIT)
    }

    fn solve(
        &self,
        j: usize,
        delta: &mut [f64],
        kernels: SecularKernels,
        maxit: usize,
    ) -> Result<SecularRoot, SecularError> {
        let (d, z, rho) = (self.d, self.z, self.rho);
        let k = d.len();
        assert!(j < k && delta.len() == k);
        if dcst_matrix::failpoints::fire("laed4") {
            return Err(SecularError::NoConvergence { root: j });
        }

        if k == 1 {
            // 1 + ρ z₀²/(d₀ − λ) = 0  ⇒  λ = d₀ + ρ z₀².
            let mu = rho * z[0] * z[0];
            delta[0] = -mu;
            metrics::add("secular.root_solves", 1);
            return Ok(SecularRoot {
                lambda: d[0] + mu,
                mu,
                origin: 0,
            });
        }

        let last = j == k - 1;
        // Terms below `split` are the ψ side, the rest the φ side; the two
        // model poles — the interval endpoints, for the last root the last
        // two poles — are the ones either side of it.
        let split = if last { k - 1 } else { j + 1 };

        // ---- origin pole K and bracket for μ = λ − d_K. Every root starts
        // at origin d_j in the middle of its interval: (d_j, d_{j+1}) for an
        // interior root, (d_{k−1}, d_{k−1} + ρ‖z‖²] for the last. The first
        // sweep below evaluates f there; for an interior root its sign also
        // picks the closer endpoint as the origin.
        let mut origin = j;
        let mut lo = 0.0;
        let mut hi = if last {
            rho * self.znorm2
        } else {
            d[j + 1] - d[j]
        };
        let mut mu = 0.5 * hi;

        // The (origin, μ) `delta` was last filled at.
        let mut swept = (usize::MAX, 0.0);
        let mut converged = false;
        let mut iters = 0u64;
        // The midpoint sweep, then up to `maxit` rational-model steps.
        for it in 0..=maxit {
            iters += 1;
            // Fused sweep: fill delta[i] = (d_i − d_K) − μ and accumulate
            // the secular sum, its absolute-value companion, and both
            // side-wise derivative sums in one dispatched pass over the k
            // terms.
            let sums = kernels.sweep(d, d[origin], mu, z, split, delta);
            swept = (origin, mu);
            let f = 1.0 + rho * sums.val;
            let fabs = 1.0 + rho * sums.abs;
            let tol = 8.0 * EPS * (k as f64) * fabs;
            if f.abs() <= tol {
                converged = true;
                break;
            }
            // Distances of the two model poles at this iterate.
            let (a, b) = (delta[split - 1], delta[split]);
            if it == 0 && !last && f < 0.0 {
                // Root in the upper half: origin d_{j+1}, where the
                // midpoint is μ = −gap/2 and the bracket [−gap/2, 0).
                origin = j + 1;
                mu = -mu;
                lo = mu;
                hi = 0.0;
            } else if f > 0.0 {
                hi = mu;
            } else {
                lo = mu;
            }
            // --- rational model step: f̃(μ̂) = C + A/(a − μ̂) + B/(b − μ̂)
            // with the ψ/φ split across the two model poles, matching f
            // and the side-wise derivatives ψ′/φ′.
            let a_coef = rho * sums.psi_p * a * a;
            let b_coef = rho * sums.phi_p * b * b;
            let c_coef = f - rho * sums.psi_p * a - rho * sums.phi_p * b;
            // Solve C + A/(a − η) + B/(b − η) = 0 for the step η (shift
            // μ̂ = μ + η): quadratic
            //   C(a−η)(b−η) + A(b−η) + B(a−η) = 0.
            let qa = c_coef;
            let qb = -(c_coef * (a + b) + a_coef + b_coef);
            let qc = c_coef * a * b + a_coef * b + b_coef * a;
            let eta = solve_quadratic_closest_to_zero(qa, qb, qc);
            let mut next = match eta {
                Some(eta) if (lo < mu + eta) && (mu + eta < hi) => mu + eta,
                _ => 0.5 * (lo + hi),
            };
            if next == mu {
                next = 0.5 * (lo + hi);
            }
            mu = next;
            // Bracket exhausted to rounding: accept.
            if hi - lo <= 2.0 * EPS * (lo.abs().max(hi.abs())) {
                converged = true;
                break;
            }
        }
        let rescued = !converged;
        if !converged {
            // Safeguarded-bisection rescue: the rational model can stagnate
            // on extreme pole configurations, but the sign-tested bracket
            // [lo, hi] survives every iteration above, so bisecting it
            // converges unconditionally (up to rounding) at ~1 bit per
            // sweep. This is the dlaed4 lineage's safeguard: failure should
            // become reportable only when the bracket itself is numerically
            // exhausted.
            for _ in 0..200 {
                let mid = 0.5 * (lo + hi);
                if mid <= lo || mid >= hi {
                    break;
                }
                iters += 1;
                let sums = kernels.sweep(d, d[origin], mid, z, split, delta);
                mu = mid;
                swept = (origin, mu);
                let f = 1.0 + rho * sums.val;
                let fabs = 1.0 + rho * sums.abs;
                if f.abs() <= 8.0 * EPS * (k as f64) * fabs {
                    converged = true;
                    break;
                }
                if f > 0.0 {
                    hi = mid;
                } else {
                    lo = mid;
                }
                if hi - lo <= 2.0 * EPS * (lo.abs().max(hi.abs())) {
                    converged = true;
                    break;
                }
            }
        }
        // One batched registry update per root solve (never per sweep).
        metrics::add("secular.root_solves", 1);
        metrics::add("secular.iters", iters);
        if rescued {
            metrics::add("secular.bisection_rescues", 1);
        }
        // Delta refresh at the accepted μ, unless the last sweep ran there
        // (it wrote these very values).
        if swept != (origin, mu) {
            for (de, &di) in delta.iter_mut().zip(d) {
                *de = (di - d[origin]) - mu;
            }
        }
        if !converged {
            let (f, fabs) = eval_shifted(z, rho, delta);
            // Accept if the bracket is as tight as representable.
            if f.abs() > 1e3 * EPS * (k as f64) * fabs
                && hi - lo > 4.0 * EPS * (lo.abs().max(hi.abs()) + EPS)
            {
                return Err(SecularError::NoConvergence { root: j });
            }
        }
        Ok(SecularRoot {
            lambda: d[origin] + mu,
            mu,
            origin,
        })
    }
}

/// Solve for root `j` (0-based) of the secular equation: validate the
/// problem, solve, return `λ_j` with `delta` filled — one call of
/// [`SecularProblem::new`] and [`SecularProblem::solve_root`]. A caller
/// with more than one root to solve builds the problem once instead.
pub fn solve_secular_root(
    j: usize,
    d: &[f64],
    z: &[f64],
    rho: f64,
    delta: &mut [f64],
) -> Result<f64, SecularError> {
    Ok(SecularProblem::new(d, z, rho)?.solve_root(j, delta)?.lambda)
}

/// Test hook: run the root finder with an explicit rational-iteration
/// budget, so the safeguarded-bisection rescue can be exercised directly
/// (a zero budget leaves only the midpoint sweep that picks the origin).
#[doc(hidden)]
pub fn solve_secular_root_with_maxit(
    j: usize,
    d: &[f64],
    z: &[f64],
    rho: f64,
    delta: &mut [f64],
    maxit: usize,
) -> Result<f64, SecularError> {
    let root =
        SecularProblem::new(d, z, rho)?.solve(j, delta, SecularKernels::dispatched(), maxit)?;
    Ok(root.lambda)
}

/// [`solve_secular_root`] forced onto the scalar kernel bodies (the test
/// oracle).
pub fn solve_secular_root_scalar(
    j: usize,
    d: &[f64],
    z: &[f64],
    rho: f64,
    delta: &mut [f64],
) -> Result<f64, SecularError> {
    let root = SecularProblem::new(d, z, rho)?.solve_root_scalar(j, delta)?;
    Ok(root.lambda)
}

/// Rational-model iterations before the safeguarded-bisection rescue
/// takes over (LAPACK's dlaed4 uses 30; the bracket makes more harmless).
const MAXIT: usize = 100;

/// Smaller-magnitude real root of `qa η² + qb η + qc = 0`, computed with
/// the stable formula; `None` when no real root exists.
fn solve_quadratic_closest_to_zero(qa: f64, qb: f64, qc: f64) -> Option<f64> {
    if qa == 0.0 {
        if qb == 0.0 {
            return None;
        }
        return Some(-qc / qb);
    }
    let disc = qb * qb - 4.0 * qa * qc;
    if disc < 0.0 {
        return None;
    }
    let sq = disc.sqrt();
    let q = -0.5 * (qb + if qb >= 0.0 { sq } else { -sq });
    let r1 = q / qa;
    let r2 = if q != 0.0 { qc / q } else { f64::INFINITY };
    Some(if r1.abs() < r2.abs() { r1 } else { r2 })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force reference root by bisection on f (monotone per interval).
    fn reference_root(j: usize, d: &[f64], z: &[f64], rho: f64) -> f64 {
        let k = d.len();
        let znorm2: f64 = z.iter().map(|x| x * x).sum();
        let (mut lo, mut hi) = if j + 1 < k {
            (d[j], d[j + 1])
        } else {
            (d[k - 1], d[k - 1] + rho * znorm2 + 1.0)
        };
        for _ in 0..200 {
            let m = 0.5 * (lo + hi);
            if m <= lo || m >= hi {
                break;
            }
            if secular_function(d, z, rho, m) > 0.0 {
                hi = m;
            } else {
                lo = m;
            }
        }
        0.5 * (lo + hi)
    }

    fn check_all_roots(d: &[f64], z: &[f64], rho: f64, tol: f64) -> Vec<f64> {
        let k = d.len();
        let mut delta = vec![0.0; k];
        let mut roots = Vec::with_capacity(k);
        for j in 0..k {
            let lam = solve_secular_root(j, d, z, rho, &mut delta).unwrap();
            let rref = reference_root(j, d, z, rho);
            let scale = d[k - 1] - d[0] + rho;
            assert!(
                (lam - rref).abs() <= tol * scale.max(1.0),
                "root {j}: {lam} vs reference {rref}"
            );
            // Interlacing.
            assert!(lam > d[j], "root {j} below its pole");
            if j + 1 < k {
                assert!(lam < d[j + 1], "root {j} above next pole");
            }
            // delta consistency: d_i − λ.
            for i in 0..k {
                let direct = d[i] - lam;
                assert!(
                    (delta[i] - direct).abs() <= 1e-8 * direct.abs().max(1e-300) + 1e-18,
                    "delta[{i}] inconsistent at root {j}: {} vs {direct}",
                    delta[i]
                );
            }
            roots.push(lam);
        }
        roots
    }

    #[test]
    fn single_pole_closed_form() {
        let mut delta = [0.0];
        let lam = solve_secular_root(0, &[2.0], &[0.5], 4.0, &mut delta).unwrap();
        assert!((lam - 3.0).abs() < 1e-15);
        assert!((delta[0] + 1.0).abs() < 1e-15);
    }

    #[test]
    fn two_poles_match_2x2_eigenvalues() {
        // D + ρzzᵀ with D = diag(0, 1), z = (1,1)/√2, ρ = 1:
        // matrix [[0.5, 0.5], [0.5, 1.5]], eigenvalues 1 ± √2/2.
        let d = [0.0, 1.0];
        let s = 0.5f64.sqrt();
        let z = [s, s];
        let roots = check_all_roots(&d, &z, 1.0, 1e-12);
        assert!((roots[0] - (1.0 - s)).abs() < 1e-13, "{}", roots[0]);
        assert!((roots[1] - (1.0 + s)).abs() < 1e-13, "{}", roots[1]);
    }

    #[test]
    fn random_problems_match_bisection() {
        use rand::prelude::*;
        use rand_chacha::ChaCha8Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        for trial in 0..20 {
            let k = rng.gen_range(2..30);
            let mut d: Vec<f64> = (0..k).map(|_| rng.gen_range(-5.0..5.0)).collect();
            d.sort_by(|a, b| a.partial_cmp(b).unwrap());
            // Enforce separation.
            for i in 1..k {
                if d[i] - d[i - 1] < 1e-3 {
                    d[i] = d[i - 1] + 1e-3;
                }
            }
            let mut z: Vec<f64> = (0..k).map(|_| rng.gen_range(0.1..1.0)).collect();
            let zn: f64 = z.iter().map(|x| x * x).sum::<f64>().sqrt();
            z.iter_mut().for_each(|x| *x /= zn);
            let rho = rng.gen_range(0.1..4.0);
            check_all_roots(&d, &z, rho, 1e-10);
            let _ = trial;
        }
    }

    #[test]
    fn close_poles_stress() {
        // Poles clustered to within 1e-12: the shifted representation must
        // still produce interlacing roots and consistent deltas.
        let d = [1.0, 1.0 + 1e-12, 1.0 + 2e-12, 2.0];
        let z = [0.5, 0.5, 0.5, 0.5];
        let mut delta = vec![0.0; 4];
        for j in 0..4 {
            let lam = solve_secular_root(j, &d, &z, 1.0, &mut delta).unwrap();
            assert!(lam > d[j]);
            if j + 1 < 4 {
                assert!(lam < d[j + 1]);
            }
            // The nearby pole distance keeps full relative precision.
            assert!(delta[j] < 0.0, "delta at own pole must be negative");
        }
    }

    #[test]
    fn tiny_z_component_gives_root_near_pole() {
        let d = [0.0, 1.0, 2.0];
        let z = [1e-9, 1.0, 1e-9];
        let mut delta = vec![0.0; 3];
        let lam0 = solve_secular_root(0, &d, &z, 1.0, &mut delta).unwrap();
        assert!(lam0 - d[0] < 1e-14, "root glued to pole: {}", lam0 - d[0]);
        let lam2 = solve_secular_root(2, &d, &z, 1.0, &mut delta).unwrap();
        assert!(lam2 - d[2] > 0.0 && lam2 - d[2] < 1e-6);
    }

    #[test]
    fn sum_rule_trace() {
        // Σ λ_j = Σ d_i + ρ‖z‖² (trace of D + ρzzᵀ).
        let d = [-1.0, 0.0, 0.5, 3.0];
        let z = [0.6, 0.2, 0.4, 0.3];
        let rho = 2.0;
        let zn2: f64 = z.iter().map(|x| x * x).sum();
        let mut delta = vec![0.0; 4];
        let sum: f64 = (0..4)
            .map(|j| solve_secular_root(j, &d, &z, rho, &mut delta).unwrap())
            .sum();
        let want = d.iter().sum::<f64>() + rho * zn2;
        assert!((sum - want).abs() < 1e-10, "{sum} vs {want}");
    }

    #[test]
    fn zero_newton_budget_is_rescued_by_bisection() {
        // With no rational-model iterations at all, the safeguarded
        // bisection must still land every root to reference accuracy.
        let d = [-1.0, 0.0, 0.5, 3.0];
        let z = [0.6, 0.2, 0.4, 0.3];
        let rho = 2.0;
        let mut delta = vec![0.0; 4];
        for j in 0..4 {
            let lam = solve_secular_root_with_maxit(j, &d, &z, rho, &mut delta, 0).unwrap();
            let rref = reference_root(j, &d, &z, rho);
            assert!((lam - rref).abs() < 1e-10, "root {j}: {lam} vs {rref}");
            assert!(lam > d[j]);
            if j + 1 < 4 {
                assert!(lam < d[j + 1]);
            }
        }
    }

    #[test]
    fn rescue_handles_clustered_poles() {
        let d = [1.0, 1.0 + 1e-12, 1.0 + 2e-12, 2.0];
        let z = [0.5, 0.5, 0.5, 0.5];
        let mut delta = vec![0.0; 4];
        for j in 0..4 {
            let lam = solve_secular_root_with_maxit(j, &d, &z, 1.0, &mut delta, 0).unwrap();
            assert!(lam > d[j]);
            if j + 1 < 4 {
                assert!(lam < d[j + 1]);
            }
            assert!(delta[j] < 0.0);
        }
    }

    #[test]
    fn offset_translation_maps_root_index() {
        let err = SecularError::NoConvergence { root: 3 };
        assert_eq!(
            err.with_offset(40),
            SecularError::NoConvergence { root: 43 }
        );
        let inv = SecularError::InvalidInput("x");
        assert_eq!(inv.clone().with_offset(40), inv);
    }

    fn invalid(d: &[f64], z: &[f64], rho: f64) -> &'static str {
        match SecularProblem::new(d, z, rho) {
            Err(SecularError::InvalidInput(msg)) => msg,
            other => panic!("expected InvalidInput, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_rho() {
        for rho in [-1.0, 0.0, f64::NAN, f64::INFINITY] {
            assert_eq!(
                invalid(&[0.0, 1.0], &[0.5, 0.5], rho),
                "rho must be positive"
            );
        }
        // The one-call form validates too.
        let mut delta = vec![0.0; 2];
        assert!(matches!(
            solve_secular_root(0, &[0.0, 1.0], &[0.5, 0.5], -1.0, &mut delta),
            Err(SecularError::InvalidInput(_))
        ));
    }

    #[test]
    fn rejects_unsorted_or_equal_poles() {
        let z = [0.5, 0.5, 0.5];
        for d in [[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]] {
            assert_eq!(invalid(&d, &z, 1.0), "poles must be strictly ascending");
        }
    }

    #[test]
    fn rejects_non_finite_poles() {
        // A NaN pole compares false both ways: `w[0] >= w[1]` let it pass.
        let z = [0.5, 0.5, 0.5];
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in 0..3 {
                let mut d = [0.0, 1.0, 2.0];
                d[at] = bad;
                assert_eq!(invalid(&d, &z, 1.0), "poles must be finite");
            }
        }
        assert_eq!(invalid(&[f64::NAN], &[0.5], 1.0), "poles must be finite");
    }

    #[test]
    fn rejects_zero_or_non_finite_z() {
        let d = [0.0, 1.0, 2.0];
        for bad in [0.0, -0.0, f64::NAN, f64::INFINITY] {
            let msg = invalid(&d, &[0.5, bad, 0.5], 1.0);
            assert_eq!(msg, "z entries must be finite and non-zero");
        }
    }

    #[test]
    fn stored_root_rebuilds_the_delta_column() {
        let d = [-1.0, 0.0, 0.5, 3.0];
        let z = [0.6, 0.2, 0.4, 0.3];
        let problem = SecularProblem::new(&d, &z, 2.0).unwrap();
        let mut delta = vec![0.0; 4];
        for j in 0..4 {
            let root = problem.solve_root(j, &mut delta).unwrap();
            assert!(root.origin == j || root.origin == j + 1);
            assert_eq!(root.lambda, d[root.origin] + root.mu);
            for i in 0..4 {
                assert_eq!(delta[i], (d[i] - d[root.origin]) - root.mu);
            }
        }
    }

    #[test]
    fn quadratic_helper() {
        // η² − 3η + 2 = 0 → roots 1, 2 → closest to zero is 1.
        assert_eq!(solve_quadratic_closest_to_zero(1.0, -3.0, 2.0), Some(1.0));
        // Linear.
        assert_eq!(solve_quadratic_closest_to_zero(0.0, 2.0, -4.0), Some(2.0));
        // No real root.
        assert_eq!(solve_quadratic_closest_to_zero(1.0, 0.0, 1.0), None);
    }
}
