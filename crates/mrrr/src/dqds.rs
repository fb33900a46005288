//! The dqds eigenvalue algorithm (`dlasq` family, simplified).
//!
//! MR³-SMP computes its initial eigenvalue approximations with dqds, which
//! is an order of magnitude faster than Sturm bisection: each sweep of the
//! *differential quotient-difference with shifts* transform
//!
//! ```text
//! d ← q₀ − τ
//! for i:  q'ᵢ = d + eᵢ ;  t = qᵢ₊₁/q'ᵢ ;  e'ᵢ = eᵢ·t ;  d = d·t − τ
//! ```
//!
//! maps the qd representation of a positive-definite `L D Lᵀ` to that of
//! `L'D'L'ᵀ = LDLᵀ − τI` in ~4n flops with *high relative accuracy* (all
//! quantities stay positive when `τ < λ_min`). Eigenvalues deflate off the
//! bottom as trailing `e` entries underflow; the accumulated shifts σ plus
//! the deflated `q` give the eigenvalues.
//!
//! Shift strategy: aggressive `τ = 0.9·dmin` with halving retries on a
//! failed sweep (a negative intermediate `d`), which keeps the transform
//! valid without LAPACK's elaborate `dlasq4` case analysis. A per-block
//! sweep budget guards convergence; on exhaustion the caller falls back to
//! bisection.

use crate::rrr::ldl_factor;
use dcst_tridiag::SymTridiag;

/// Outcome of the dqds driver on one positive-definite qd array.
enum BlockResult {
    Converged(Vec<f64>),
    GaveUp,
}

/// One dqds sweep with shift `tau`. Returns `Some(dmin)` on success
/// (writing the new arrays into `(qo, eo)`), `None` if a transformed
/// pivot went negative or non-finite (shift too aggressive).
fn dqds_sweep(q: &[f64], e: &[f64], tau: f64, qo: &mut [f64], eo: &mut [f64]) -> Option<f64> {
    let n = q.len();
    let mut d = q[0] - tau;
    let mut dmin = d;
    for i in 0..n - 1 {
        let qi = d + e[i];
        if qi <= 0.0 || !qi.is_finite() {
            return None;
        }
        let t = q[i + 1] / qi;
        qo[i] = qi;
        eo[i] = e[i] * t;
        d = d * t - tau;
        if !d.is_finite() {
            return None;
        }
        dmin = dmin.min(d);
    }
    if d < 0.0 {
        return None;
    }
    qo[n - 1] = d;
    Some(dmin.max(0.0))
}

/// Eigenvalues of the positive-definite qd array `(q, e)`, ascending,
/// with `sigma` already accumulated.
fn dqds_block(mut q: Vec<f64>, mut e: Vec<f64>, mut sigma: f64, budget: &mut usize) -> BlockResult {
    let mut out = Vec::with_capacity(q.len());
    let mut qn = vec![0.0f64; q.len()];
    let mut en = vec![0.0f64; e.len()];
    // Conservative first shift until a sweep establishes dmin.
    let mut dmin = 0.0f64;

    loop {
        let n = q.len();
        // --- endgames.
        if n == 0 {
            break;
        }
        if n == 1 {
            out.push(q[0] + sigma);
            break;
        }
        if n == 2 {
            // Eigenvalues of the 2x2 block with trace q0+q1+e0, det q0·q1.
            let tr = q[0] + q[1] + e[0];
            let det = q[0] * q[1];
            let disc = (tr * tr - 4.0 * det).max(0.0).sqrt();
            let big = 0.5 * (tr + disc);
            let small = if big > 0.0 { det / big } else { 0.0 };
            out.push(small + sigma);
            out.push(big + sigma);
            break;
        }
        // --- deflation at the bottom.
        let tol = 100.0 * f64::EPSILON;
        if e[n - 2] <= tol * tol * (sigma + q[n - 1]) || e[n - 2] <= f64::MIN_POSITIVE {
            out.push(q[n - 1] + sigma);
            q.truncate(n - 1);
            e.truncate(n - 2);
            qn.truncate(n - 1);
            en.truncate(n.saturating_sub(2));
            continue;
        }
        // --- split at a negligible interior e (process the tail first).
        if let Some(split) = (0..n - 2)
            .rev()
            .find(|&i| e[i] <= tol * tol * (sigma + q[i]))
        {
            let q_tail = q.split_off(split + 1);
            let mut e_tail = e.split_off(split + 1);
            e.pop(); // the negligible coupling itself
            let _ = &mut e_tail;
            match dqds_block(q_tail, e_tail, sigma, budget) {
                BlockResult::Converged(vals) => out.extend(vals),
                BlockResult::GaveUp => return BlockResult::GaveUp,
            }
            qn.truncate(q.len());
            en.truncate(e.len());
            continue;
        }
        // --- one shifted sweep.
        if *budget == 0 {
            return BlockResult::GaveUp;
        }
        *budget -= 1;
        let mut tau = 0.9 * dmin;
        let mut done = false;
        for _ in 0..60 {
            match dqds_sweep(&q, &e, tau, &mut qn, &mut en) {
                Some(new_dmin) => {
                    sigma += tau;
                    dmin = new_dmin;
                    std::mem::swap(&mut q, &mut qn);
                    std::mem::swap(&mut e, &mut en);
                    done = true;
                    break;
                }
                None => {
                    // Shift too aggressive; back off (τ = 0 always works
                    // for a positive-definite array).
                    tau = if tau > f64::MIN_POSITIVE {
                        tau * 0.25
                    } else {
                        0.0
                    };
                }
            }
        }
        if !done {
            return BlockResult::GaveUp;
        }
    }
    out.sort_by(|a, b| a.partial_cmp(b).unwrap());
    BlockResult::Converged(out)
}

/// All eigenvalues of the symmetric tridiagonal `t`, ascending, by dqds.
/// Returns `None` when the iteration fails to converge within the sweep
/// budget (callers fall back to bisection).
pub fn dqds_eigenvalues(t: &SymTridiag) -> Option<Vec<f64>> {
    let n = t.n();
    if n == 0 {
        return Some(vec![]);
    }
    if n == 1 {
        return Some(vec![t.d[0]]);
    }
    // Positive-definite shift below the spectrum.
    let (gl, gu) = t.gershgorin_bounds();
    let span = (gu - gl).max(f64::MIN_POSITIVE);
    let sigma0 = gl - 1e-3 * span - f64::MIN_POSITIVE;
    let rep = ldl_factor(t, sigma0);
    if rep.d.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return None; // factorization not positive definite (shouldn't happen)
    }
    // qd arrays: q_i = D_i, e_i = D_i · L_i².
    let q: Vec<f64> = rep.d.clone();
    let e: Vec<f64> = (0..n - 1).map(|i| rep.d[i] * rep.l[i] * rep.l[i]).collect();
    let mut budget = 30 * n;
    match dqds_block(q, e, 0.0, &mut budget) {
        BlockResult::Converged(mut vals) => {
            for v in &mut vals {
                *v += sigma0;
            }
            vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
            Some(vals)
        }
        BlockResult::GaveUp => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcst_tridiag::gen::MatrixType;

    fn bisect_reference(t: &SymTridiag) -> Vec<f64> {
        crate::bisect::bisect_range(t, 0..t.n(), &dcst_runtime::Runtime::inline(0)).unwrap()
    }

    #[test]
    fn toeplitz_closed_form() {
        let n = 32;
        let t = SymTridiag::toeplitz121(n);
        let vals = dqds_eigenvalues(&t).expect("dqds converges");
        assert_eq!(vals.len(), n);
        for (k, &l) in vals.iter().enumerate() {
            let want = 2.0 - 2.0 * ((k + 1) as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos();
            assert!((l - want).abs() < 1e-11, "eig {k}: {l} vs {want}");
        }
    }

    #[test]
    fn matches_bisection_on_table3_types() {
        for ty in [
            MatrixType::Type3,
            MatrixType::Type4,
            MatrixType::Type6,
            MatrixType::Type10,
            MatrixType::Type13,
            MatrixType::Type14,
        ] {
            let t = ty.generate(80, 17);
            let vals = dqds_eigenvalues(&t).expect("dqds converges");
            let reference = bisect_reference(&t);
            for (i, (a, b)) in vals.iter().zip(&reference).enumerate() {
                assert!(
                    (a - b).abs() < 1e-10 * t.max_norm().max(1.0),
                    "type {} eig {i}: {a} vs {b}",
                    ty.index()
                );
            }
        }
    }

    #[test]
    fn clustered_spectrum() {
        let t = MatrixType::Type2.generate(60, 3);
        if let Some(vals) = dqds_eigenvalues(&t) {
            let reference = bisect_reference(&t);
            for (a, b) in vals.iter().zip(&reference) {
                assert!((a - b).abs() < 1e-10);
            }
        } // GaveUp is acceptable (bisection fallback)
    }

    #[test]
    fn wilkinson_close_pairs() {
        let t = dcst_tridiag::gen::wilkinson(41);
        let vals = dqds_eigenvalues(&t).expect("dqds converges");
        let reference = bisect_reference(&t);
        for (i, (a, b)) in vals.iter().zip(&reference).enumerate() {
            assert!((a - b).abs() < 1e-10 * t.max_norm(), "eig {i}: {a} vs {b}");
        }
    }

    #[test]
    fn graded_matrix() {
        // Type 7: eigenvalues spanning 16 orders of magnitude.
        let t = MatrixType::Type7.generate(50, 7);
        let vals = dqds_eigenvalues(&t).expect("dqds converges");
        let reference = bisect_reference(&t);
        for (i, (a, b)) in vals.iter().zip(&reference).enumerate() {
            assert!(
                (a - b).abs() < 1e-12 * t.max_norm().max(1.0),
                "eig {i}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn tiny_sizes() {
        assert_eq!(
            dqds_eigenvalues(&SymTridiag::new(vec![], vec![])).unwrap(),
            Vec::<f64>::new()
        );
        assert_eq!(
            dqds_eigenvalues(&SymTridiag::new(vec![7.0], vec![])).unwrap(),
            vec![7.0]
        );
        let t = SymTridiag::new(vec![2.0, 0.0], vec![1.0]);
        let vals = dqds_eigenvalues(&t).unwrap();
        assert!((vals[0] - (1.0 - 2.0f64.sqrt())).abs() < 1e-12);
        assert!((vals[1] - (1.0 + 2.0f64.sqrt())).abs() < 1e-12);
    }
}
