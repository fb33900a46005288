//! Relatively robust representations: `LDLᵀ` factorizations, differential
//! stationary qds transforms, qds Sturm counts, and twisted-factorization
//! eigenvectors.

use dcst_tridiag::SymTridiag;

/// A bidiagonal factorization `L D Lᵀ` (unit lower bidiagonal `L` with
/// multipliers `l`, diagonal `d`) representing `T − origin·I`.
#[derive(Clone, Debug)]
pub struct Rrr {
    pub d: Vec<f64>,
    pub l: Vec<f64>,
}

impl Rrr {
    pub fn n(&self) -> usize {
        self.d.len()
    }
}

/// Guard against exactly-zero pivots (dlar1v-style perturbation).
#[inline]
fn guard(x: f64) -> f64 {
    if x == 0.0 {
        -f64::MIN_POSITIVE
    } else {
        x
    }
}

/// Factor `T − σI = L D Lᵀ`.
pub fn ldl_factor(t: &SymTridiag, sigma: f64) -> Rrr {
    let n = t.n();
    let mut d = vec![0.0f64; n];
    let mut l = vec![0.0f64; n.saturating_sub(1)];
    if n == 0 {
        return Rrr { d, l };
    }
    d[0] = guard(t.d[0] - sigma);
    for i in 0..n - 1 {
        l[i] = t.e[i] / d[i];
        d[i + 1] = guard((t.d[i + 1] - sigma) - l[i] * t.e[i]);
    }
    Rrr { d, l }
}

/// Differential stationary qds transform: compute `L⁺D⁺L⁺ᵀ = LDLᵀ − τI`.
pub fn stqds_shift(rep: &Rrr, tau: f64) -> Rrr {
    stqds_shift_checked(rep, tau).0
}

/// [`stqds_shift`] plus an element-growth measure: the ratio of the
/// child's largest |pivot| to the parent's (∞ when the transform hit a
/// non-finite value). `dlarrf` uses the same quantity to accept or retry
/// candidate shifts — large growth means the child is not a relatively
/// robust representation.
pub fn stqds_shift_checked(rep: &Rrr, tau: f64) -> (Rrr, f64) {
    let n = rep.n();
    let mut d = vec![0.0f64; n];
    let mut l = vec![0.0f64; n.saturating_sub(1)];
    let mut s = -tau;
    let mut broke = false;
    let mut max_child = 0.0f64;
    for i in 0..n {
        d[i] = guard(s + rep.d[i]);
        max_child = max_child.max(d[i].abs());
        if i + 1 < n {
            l[i] = rep.d[i] * rep.l[i] / d[i];
            s = l[i] * rep.l[i] * s - tau;
            if !s.is_finite() || !l[i].is_finite() {
                broke = true;
                s = -tau; // damped restart after an overflowed pivot chain
                l[i] = 0.0;
            }
        }
    }
    let max_parent = rep.d.iter().fold(f64::MIN_POSITIVE, |m, &x| m.max(x.abs()));
    let growth = if broke {
        f64::INFINITY
    } else {
        max_child / max_parent
    };
    (Rrr { d, l }, growth)
}

/// Number of eigenvalues of `LDLᵀ` strictly below `x`, by the stationary
/// qds count (signs of `D⁺`).
pub fn sturm_count_ldl(rep: &Rrr, x: f64) -> usize {
    let n = rep.n();
    let mut count = 0usize;
    let mut s = -x;
    for i in 0..n {
        let dplus = guard(s + rep.d[i]);
        if dplus < 0.0 {
            count += 1;
        }
        if i + 1 < n {
            s = (rep.d[i] * rep.l[i]) * rep.l[i] * (s / dplus) - x;
            if !s.is_finite() {
                s = -x;
            }
        }
    }
    count
}

/// Eigenvector of `LDLᵀ` for the (approximate) eigenvalue `lam`, by the
/// twisted factorization at the index of the smallest |γ|:
///
/// * forward dstqds sweep → `D⁺`, `L⁺`, `s`;
/// * backward dqds sweep → `D⁻`, `U⁻`, `p`;
/// * `γ_r = s_r + p_r + λ`; twist at `argmin |γ_r|`;
/// * solve `N_r z = γ_r e_r` by the two substitution recurrences,
///   normalize.
///
/// Writes the normalized vector into `out` (length n).
pub fn twisted_vector(rep: &Rrr, lam: f64, out: &mut [f64]) {
    twisted_vector_ranked(rep, lam, 0, out)
}

/// Like [`twisted_vector`] but twisting at the position of the
/// `rank`-th smallest |γ| instead of the smallest.
///
/// For a numerically multiple eigenvalue the twisted solves at different
/// twist positions produce different vectors *within the eigenspace*, so
/// ranks 0, 1, … followed by Gram–Schmidt yield an orthonormal basis of
/// the cluster's invariant subspace — the fallback the driver uses when a
/// cluster cannot be separated by shifting.
pub fn twisted_vector_ranked(rep: &Rrr, lam: f64, rank: usize, out: &mut [f64]) {
    let n = rep.n();
    debug_assert_eq!(out.len(), n);
    if n == 1 {
        out[0] = 1.0;
        return;
    }

    // Forward: D+[i] = s_i + d_i ; L+[i] = d_i l_i / D+[i] ;
    //          s_{i+1} = L+[i] l_i s_i − λ.
    let mut lplus = vec![0.0f64; n - 1];
    let mut svec = vec![0.0f64; n];
    let mut s = -lam;
    for i in 0..n - 1 {
        svec[i] = s;
        let dplus = guard(s + rep.d[i]);
        lplus[i] = rep.d[i] * rep.l[i] / dplus;
        s = lplus[i] * rep.l[i] * s - lam;
        if !s.is_finite() {
            s = -lam;
        }
    }
    svec[n - 1] = s;

    // Backward: p_{n−1} = d_{n−1} − λ ; D−[i+1] = p_{i+1} + d_i l_i² ;
    //           U−[i] = d_i l_i / D−[i+1] ; p_i = p_{i+1} d_i / D−[i+1] − λ.
    let mut uminus = vec![0.0f64; n - 1];
    let mut pvec = vec![0.0f64; n];
    let mut p = rep.d[n - 1] - lam;
    pvec[n - 1] = p;
    for i in (0..n - 1).rev() {
        let dminus = guard(p + rep.d[i] * rep.l[i] * rep.l[i]);
        uminus[i] = rep.d[i] * rep.l[i] / dminus;
        p = p * rep.d[i] / dminus - lam;
        if !p.is_finite() {
            p = -lam;
        }
        pvec[i] = p;
    }

    // γ_r = s_r + p_r + λ; pick the twist with the rank-th smallest |γ|.
    let mut gammas: Vec<(f64, usize)> = (0..n)
        .map(|i| ((svec[i] + pvec[i] + lam).abs(), i))
        .collect();
    gammas.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let r = gammas[rank.min(n - 1)].1;

    // Solve N_r z = γ_r e_r: z_r = 1; upward z_i = −L+[i] z_{i+1};
    // downward z_{i+1} = −U−[i] z_i.
    out[r] = 1.0;
    for i in (0..r).rev() {
        out[i] = -lplus[i] * out[i + 1];
        if !out[i].is_finite() {
            out[i] = 0.0;
        }
    }
    for i in r..n - 1 {
        out[i + 1] = -uminus[i] * out[i];
        if !out[i + 1].is_finite() {
            out[i + 1] = 0.0;
        }
    }
    let nrm = dcst_matrix::nrm2(out);
    if nrm > 0.0 {
        let inv = 1.0 / nrm;
        out.iter_mut().for_each(|x| *x *= inv);
    } else {
        out[r] = 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcst_tridiag::sturm_count;

    fn reconstruct(rep: &Rrr) -> SymTridiag {
        // LDLᵀ back to tridiagonal entries.
        let n = rep.n();
        let mut d = vec![0.0; n];
        let mut e = vec![0.0; n.saturating_sub(1)];
        for i in 0..n {
            d[i] = rep.d[i]
                + if i > 0 {
                    rep.l[i - 1] * rep.l[i - 1] * rep.d[i - 1]
                } else {
                    0.0
                };
            if i + 1 < n {
                e[i] = rep.l[i] * rep.d[i];
            }
        }
        SymTridiag::new(d, e)
    }

    #[test]
    fn ldl_roundtrip() {
        let t = SymTridiag::new(vec![4.0, 5.0, 6.0], vec![1.0, 2.0]);
        let rep = ldl_factor(&t, 1.0);
        let back = reconstruct(&rep);
        for i in 0..3 {
            assert!((back.d[i] - (t.d[i] - 1.0)).abs() < 1e-13);
        }
        for i in 0..2 {
            assert!((back.e[i] - t.e[i]).abs() < 1e-13);
        }
    }

    #[test]
    fn stqds_shift_preserves_spectrum_shift() {
        let t = SymTridiag::toeplitz121(10);
        let rep = ldl_factor(&t, -1.0); // T + I, positive definite
        let shifted = stqds_shift(&rep, 0.5);
        let back = reconstruct(&shifted);
        let orig = reconstruct(&rep);
        for i in 0..10 {
            assert!((back.d[i] - (orig.d[i] - 0.5)).abs() < 1e-11, "d[{i}]");
        }
        for i in 0..9 {
            assert!((back.e[i] - orig.e[i]).abs() < 1e-11, "e[{i}]");
        }
    }

    #[test]
    fn qds_count_matches_tridiagonal_count() {
        let t = SymTridiag::toeplitz121(14);
        let sigma = -0.5;
        let rep = ldl_factor(&t, sigma);
        for x in [-0.3, 0.1, 0.9, 2.0, 3.7, 4.6] {
            // count of (T - σ) below x == count of T below x + σ.
            assert_eq!(
                sturm_count_ldl(&rep, x),
                sturm_count(&t, x + sigma),
                "x={x}"
            );
        }
    }

    #[test]
    fn twisted_vector_is_an_eigenvector() {
        let n = 20;
        let t = SymTridiag::toeplitz121(n);
        let (gl, _) = t.gershgorin_bounds();
        let sigma = gl - 0.1;
        let rep = ldl_factor(&t, sigma);
        for k in [0usize, 7, 19] {
            let lam = 2.0 - 2.0 * ((k + 1) as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos();
            let mut z = vec![0.0; n];
            twisted_vector(&rep, lam - sigma, &mut z);
            // Residual ‖T z − λ z‖ small.
            let mut y = vec![0.0; n];
            t.matvec(&z, &mut y);
            for i in 0..n {
                assert!(
                    (y[i] - lam * z[i]).abs() < 1e-10,
                    "k={k} row {i}: {}",
                    y[i] - lam * z[i]
                );
            }
        }
    }

    #[test]
    fn zero_pivot_guard() {
        // T - σI singular at σ = eigenvalue: factorization still finite.
        let t = SymTridiag::new(vec![1.0, 1.0], vec![0.0]);
        let rep = ldl_factor(&t, 1.0);
        assert!(rep.d.iter().all(|x| x.is_finite()));
        let mut z = vec![0.0; 2];
        twisted_vector(&rep, 0.0, &mut z);
        assert!(dcst_matrix::nrm2(&z) > 0.9);
    }
}
