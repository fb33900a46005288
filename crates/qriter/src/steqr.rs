//! The implicit-shift QR sweep and its driver.

use dcst_matrix::failpoints::{self, Site};
use dcst_matrix::util::{lapy2, EPS, SAFE_MIN};
use dcst_matrix::Matrix;
use dcst_tridiag::SymTridiag;

/// Maximum QR sweeps per eigenvalue before giving up (LAPACK uses 30).
const MAXIT_PER_EIG: usize = 30;

/// Error from the QR iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QrError {
    /// Input contained NaN or infinity.
    NonFinite,
    /// An unreduced block failed to converge within `30·n` sweeps.
    NoConvergence {
        block_start: usize,
        block_end: usize,
    },
}

impl std::fmt::Display for QrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QrError::NonFinite => write!(f, "matrix contains NaN or infinite entries"),
            QrError::NoConvergence {
                block_start,
                block_end,
            } => {
                write!(
                    f,
                    "QR iteration failed to converge on block {block_start}..={block_end}"
                )
            }
        }
    }
}

impl std::error::Error for QrError {}

impl QrError {
    /// Translate a block-local failure to global matrix coordinates by
    /// adding the leaf's row offset (drivers report errors in global rows).
    pub fn with_offset(self, off: usize) -> Self {
        match self {
            QrError::NonFinite => QrError::NonFinite,
            QrError::NoConvergence {
                block_start,
                block_end,
            } => QrError::NoConvergence {
                block_start: block_start + off,
                block_end: block_end + off,
            },
        }
    }
}

/// A column-major eigenvector block with leading dimension `ld`: the
/// iteration updates `nrows` rows of columns `0..ncols` of `buf`.
///
/// For a standalone solve this is a whole `n x n` matrix; inside D&C it is
/// the leaf's diagonal block of the global eigenvector matrix.
pub struct ZBlock<'a> {
    pub buf: &'a mut [f64],
    pub ld: usize,
    pub nrows: usize,
}

impl ZBlock<'_> {
    #[inline]
    fn rotate_cols(&mut self, j: usize, c: f64, s: f64) {
        // [col_j, col_{j+1}] ← [col_j, col_{j+1}] · [[c, s], [-s, c]]
        let (a, b) = self.buf.split_at_mut((j + 1) * self.ld);
        let colj = &mut a[j * self.ld..j * self.ld + self.nrows];
        let colj1 = &mut b[..self.nrows];
        for (x, y) in colj.iter_mut().zip(colj1.iter_mut()) {
            let (xv, yv) = (*x, *y);
            *x = c * xv - s * yv;
            *y = s * xv + c * yv;
        }
    }

    fn swap_cols(&mut self, i: usize, j: usize) {
        if i == j {
            return;
        }
        let (i, j) = (i.min(j), i.max(j));
        let (a, b) = self.buf.split_at_mut(j * self.ld);
        a[i * self.ld..i * self.ld + self.nrows].swap_with_slice(&mut b[..self.nrows]);
    }
}

/// Givens pair `(c, s)` with `c·x − s·z = r ≥ |x|`-ish and `s·x + c·z = 0`.
#[inline]
fn givens(x: f64, z: f64) -> (f64, f64, f64) {
    if z == 0.0 {
        return (1.0, 0.0, x);
    }
    let r = lapy2(x, z);
    (x / r, -z / r, r)
}

/// Wilkinson shift for the trailing 2×2 `[[a, b], [b, c]]`: the eigenvalue
/// of the block closer to `c`.
#[inline]
fn wilkinson_shift(a: f64, b: f64, c: f64) -> f64 {
    let delta = 0.5 * (a - c);
    if delta == 0.0 && b == 0.0 {
        return c;
    }
    let denom = delta.abs() + lapy2(delta, b);
    let sgn = if delta >= 0.0 { 1.0 } else { -1.0 };
    c - sgn * b * b / denom
}

/// One implicit QR sweep with shift `mu` on the unreduced block `l..=m`.
fn qr_sweep(d: &mut [f64], e: &mut [f64], l: usize, m: usize, mu: f64, z: &mut Option<ZBlock<'_>>) {
    let mut x = d[l] - mu;
    let mut bulge = e[l];
    for k in l..m {
        let (c, s, r) = givens(x, bulge);
        if k > l {
            e[k - 1] = r;
        }
        // Two-sided rotation on rows/cols (k, k+1).
        let (dk, dk1, ek) = (d[k], d[k + 1], e[k]);
        d[k] = c * c * dk - 2.0 * c * s * ek + s * s * dk1;
        d[k + 1] = s * s * dk + 2.0 * c * s * ek + c * c * dk1;
        e[k] = c * s * (dk - dk1) + (c * c - s * s) * ek;
        if k + 1 < m {
            bulge = -s * e[k + 1];
            e[k + 1] *= c;
        }
        x = e[k];
        if let Some(zb) = z.as_mut() {
            zb.rotate_cols(k, c, s);
        }
    }
}

/// Negligibility threshold for `e[i]` between `d[i]` and `d[i+1]`
/// (LAPACK's geometric-mean test).
#[inline]
fn negligible(e: f64, di: f64, di1: f64) -> bool {
    let tst = e.abs();
    tst * tst <= EPS * EPS * di.abs() * di1.abs() + SAFE_MIN
}

/// In-place QR iteration on `(d, e)`; on success `d` holds eigenvalues
/// ascending and `e` is destroyed. If `z` is given, its columns are
/// transformed by the accumulated rotations and permuted with the final
/// sort — pass identity to obtain the eigenvectors of the tridiagonal.
///
/// A block that exhausts its Wilkinson-shift sweep budget is retried once
/// with a fresh budget under an exceptional-shift strategy (à la `dlahqr`)
/// before `NoConvergence` is reported.
pub fn steqr_mut(d: &mut [f64], e: &mut [f64], z: Option<ZBlock<'_>>) -> Result<(), QrError> {
    steqr_mut_with_budget(d, e, z, MAXIT_PER_EIG, true)
}

/// Test hook: run the iteration with an explicit per-eigenvalue sweep
/// budget and the rescue retry toggled, so starvation and rescue can be
/// exercised without a pathological input.
#[doc(hidden)]
pub fn steqr_mut_with_budget(
    d: &mut [f64],
    e: &mut [f64],
    mut z: Option<ZBlock<'_>>,
    maxit_per_eig: usize,
    rescue: bool,
) -> Result<(), QrError> {
    let n = d.len();
    assert!(
        e.len() + 1 == n || (n == 0 && e.is_empty()),
        "off-diagonal length mismatch"
    );
    if let Some(zb) = &z {
        assert!(zb.ld >= zb.nrows && zb.buf.len() >= n.saturating_sub(1) * zb.ld + zb.nrows);
    }
    if d.iter().chain(e.iter()).any(|x| !x.is_finite()) {
        return Err(QrError::NonFinite);
    }
    if n <= 1 {
        return Ok(());
    }
    if failpoints::fire(Site::Steqr) {
        return Err(QrError::NoConvergence {
            block_start: 0,
            block_end: n - 1,
        });
    }

    // Global scaling keeps squared quantities representable.
    let anorm = d
        .iter()
        .chain(e.iter())
        .fold(0.0f64, |a, &x| a.max(x.abs()));
    let mut scale = 1.0;
    if anorm > 0.0 {
        if anorm > 1e145 {
            scale = 1e145 / anorm;
        } else if anorm < 1e-145 {
            scale = 1e-145 / anorm;
        }
    }
    if scale != 1.0 {
        d.iter_mut().for_each(|x| *x *= scale);
        e.iter_mut().for_each(|x| *x *= scale);
    }

    let mut maxit = maxit_per_eig * n;
    let mut iters = 0usize;
    // Once the Wilkinson budget is exhausted the block gets a single fresh
    // budget under a different shift strategy: every fourth sweep uses an
    // exceptional shift (a deliberate perturbation off the trailing 2×2's
    // eigenvalue, as dlahqr does) to break shift-cycling stagnation.
    let mut rescuing = false;
    let mut m = n - 1; // current active bottom index
    while m > 0 {
        // Deflate converged bottom eigenvalues.
        if negligible(e[m - 1], d[m - 1], d[m]) {
            e[m - 1] = 0.0;
            m -= 1;
            continue;
        }
        // Find the top of the unreduced block ending at m.
        let mut l = m - 1;
        while l > 0 && !negligible(e[l - 1], d[l - 1], d[l]) {
            l -= 1;
        }
        if iters >= maxit {
            if rescue && !rescuing {
                rescuing = true;
                maxit = iters + MAXIT_PER_EIG * n;
            } else {
                return Err(QrError::NoConvergence {
                    block_start: l,
                    block_end: m,
                });
            }
        }
        iters += 1;
        let mu = if rescuing && iters.is_multiple_of(4) {
            d[m] - 0.75 * e[m - 1].abs()
        } else {
            wilkinson_shift(d[m - 1], e[m - 1], d[m])
        };
        qr_sweep(d, e, l, m, mu, &mut z);
    }

    // One batched registry update per successful call (never per sweep).
    dcst_matrix::metrics::add("steqr.sweeps", iters as u64);
    if rescuing {
        dcst_matrix::metrics::add("steqr.exceptional_rescues", 1);
    }

    if scale != 1.0 {
        let inv = 1.0 / scale;
        d.iter_mut().for_each(|x| *x *= inv);
    }

    // Sort eigenvalues ascending, permuting eigenvector columns in step
    // (selection sort with column swaps, as in dsteqr).
    for i in 0..n - 1 {
        let mut kmin = i;
        for j in i + 1..n {
            if d[j] < d[kmin] {
                kmin = j;
            }
        }
        if kmin != i {
            d.swap(i, kmin);
            if let Some(zb) = z.as_mut() {
                zb.swap_cols(i, kmin);
            }
        }
    }
    // NaN-corruption site: models a silent kernel breakdown that produces
    // garbage instead of an error, for testing downstream detection.
    failpoints::poke_nan(Site::NanSteqr, d);
    Ok(())
}

/// Full eigen-decomposition of `t`: values ascending plus the orthogonal
/// eigenvector matrix.
pub fn steqr(t: &SymTridiag) -> Result<(Vec<f64>, Matrix), QrError> {
    let n = t.n();
    let mut d = t.d.clone();
    let mut e = t.e.clone();
    let mut v = Matrix::identity(n);
    {
        let z = ZBlock {
            buf: v.as_mut_slice(),
            ld: n.max(1),
            nrows: n,
        };
        steqr_mut(&mut d, &mut e, Some(z))?;
    }
    Ok((d, v))
}

/// Eigenvalues only, ascending (root-free `dsterf` analogue).
pub fn eigenvalues(t: &SymTridiag) -> Result<Vec<f64>, QrError> {
    let mut d = t.d.clone();
    let mut e = t.e.clone();
    steqr_mut(&mut d, &mut e, None)?;
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcst_matrix::{orthogonality_error, residual_error};
    use dcst_tridiag::gen::MatrixType;

    fn check_eigen(t: &SymTridiag, lam: &[f64], v: &Matrix, tol_scale: f64) {
        let n = t.n();
        let orth = orthogonality_error(v);
        assert!(orth < tol_scale * 1e-15, "orthogonality {orth}");
        let res = residual_error(n, |x, y| t.matvec(x, y), lam, v, t.max_norm());
        assert!(res < tol_scale * 1e-15, "residual {res}");
        assert!(lam.windows(2).all(|w| w[0] <= w[1]), "values sorted");
    }

    #[test]
    fn solves_known_2x2() {
        let t = SymTridiag::new(vec![2.0, 0.0], vec![1.0]);
        let (lam, v) = steqr(&t).unwrap();
        // Eigenvalues of [[2,1],[1,0]] are 1 ± sqrt(2).
        assert!((lam[0] - (1.0 - 2.0f64.sqrt())).abs() < 1e-14);
        assert!((lam[1] - (1.0 + 2.0f64.sqrt())).abs() < 1e-14);
        check_eigen(&t, &lam, &v, 10.0);
    }

    #[test]
    fn solves_toeplitz_exactly() {
        let n = 24;
        let t = SymTridiag::toeplitz121(n);
        let (lam, v) = steqr(&t).unwrap();
        for (k, &l) in lam.iter().enumerate() {
            let want = 2.0 - 2.0 * ((k + 1) as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos();
            assert!((l - want).abs() < 1e-13, "eig {k}: {l} vs {want}");
        }
        check_eigen(&t, &lam, &v, 10.0);
    }

    #[test]
    fn diagonal_matrix_is_only_sorted() {
        let t = SymTridiag::new(vec![3.0, 1.0, 2.0], vec![0.0, 0.0]);
        let (lam, v) = steqr(&t).unwrap();
        assert_eq!(lam, vec![1.0, 2.0, 3.0]);
        // Eigenvectors are permuted unit vectors.
        assert_eq!(v.col(0)[1], 1.0);
        assert_eq!(v.col(1)[2], 1.0);
        assert_eq!(v.col(2)[0], 1.0);
    }

    #[test]
    fn all_table3_types_small() {
        for ty in MatrixType::ALL {
            let t = ty.generate(60, 42);
            let (lam, v) = steqr(&t).unwrap();
            check_eigen(&t, &lam, &v, 100.0);
        }
    }

    #[test]
    fn wilkinson_has_close_pairs() {
        let t = dcst_tridiag::gen::wilkinson(21);
        let (lam, v) = steqr(&t).unwrap();
        check_eigen(&t, &lam, &v, 100.0);
        // The top pair of W21+ agrees to ~1e-15 relative.
        let gap = lam[20] - lam[19];
        assert!(gap < 1e-12, "top Wilkinson pair gap {gap}");
    }

    #[test]
    fn eigenvalues_match_full_solve() {
        let t = MatrixType::Type6.generate(50, 3);
        let only = eigenvalues(&t).unwrap();
        let (lam, _) = steqr(&t).unwrap();
        for (a, b) in only.iter().zip(&lam) {
            assert!((a - b).abs() < 1e-12 * t.max_norm());
        }
    }

    #[test]
    fn starved_budget_fails_without_rescue_but_recovers_with_it() {
        let t = MatrixType::Type4.generate(40, 7);
        // One sweep per eigenvalue is far too few for a dense-spectrum
        // matrix: without the rescue path the block must report failure.
        let mut d = t.d.clone();
        let mut e = t.e.clone();
        let err = steqr_mut_with_budget(&mut d, &mut e, None, 1, false).unwrap_err();
        assert!(matches!(err, QrError::NoConvergence { .. }));
        // The rescue grants a fresh budget under the exceptional-shift
        // strategy and must converge to the same spectrum as the normal
        // solver.
        let mut d = t.d.clone();
        let mut e = t.e.clone();
        steqr_mut_with_budget(&mut d, &mut e, None, 1, true).unwrap();
        let want = eigenvalues(&t).unwrap();
        for (a, b) in d.iter().zip(&want) {
            assert!((a - b).abs() < 1e-12 * t.max_norm(), "{a} vs {b}");
        }
    }

    #[test]
    fn rescue_preserves_eigenvectors() {
        let t = MatrixType::Type5.generate(32, 11);
        let n = t.n();
        let mut d = t.d.clone();
        let mut e = t.e.clone();
        let mut v = Matrix::identity(n);
        {
            let z = ZBlock {
                buf: v.as_mut_slice(),
                ld: n,
                nrows: n,
            };
            steqr_mut_with_budget(&mut d, &mut e, Some(z), 1, true).unwrap();
        }
        check_eigen(&t, &d, &v, 100.0);
    }

    #[test]
    fn offset_translation_maps_block_coordinates() {
        let err = QrError::NoConvergence {
            block_start: 2,
            block_end: 5,
        };
        assert_eq!(
            err.with_offset(100),
            QrError::NoConvergence {
                block_start: 102,
                block_end: 105,
            }
        );
        assert_eq!(QrError::NonFinite.with_offset(7), QrError::NonFinite);
    }

    #[test]
    fn rejects_non_finite() {
        let t = SymTridiag::new(vec![1.0, f64::NAN], vec![1.0]);
        assert_eq!(steqr(&t).unwrap_err(), QrError::NonFinite);
    }

    #[test]
    fn empty_and_singleton() {
        let (lam, _) = steqr(&SymTridiag::new(vec![], vec![])).unwrap();
        assert!(lam.is_empty());
        let (lam, v) = steqr(&SymTridiag::new(vec![5.0], vec![])).unwrap();
        assert_eq!(lam, vec![5.0]);
        assert_eq!(v.as_slice(), &[1.0]);
    }

    #[test]
    fn scaling_handles_extreme_norms() {
        let t = SymTridiag::new(vec![1e200, -1e200, 5e199], vec![1e199, 2e199]);
        let (lam, v) = steqr(&t).unwrap();
        check_eigen(&t, &lam, &v, 100.0);
        let t = SymTridiag::new(vec![1e-200, -1e-200, 5e-201], vec![1e-201, 2e-201]);
        let (lam, v) = steqr(&t).unwrap();
        check_eigen(&t, &lam, &v, 100.0);
    }

    #[test]
    fn zblock_with_offset_ld() {
        // Solve a 3x3 leaf writing into the middle block of a 7x7 matrix.
        let t = SymTridiag::new(vec![1.0, 2.0, 3.0], vec![0.5, 0.5]);
        let n = 3;
        let big = 7usize;
        let mut v = Matrix::zeros(big, big);
        // Identity block at (2, 2).
        for i in 0..n {
            v[(2 + i, 2 + i)] = 1.0;
        }
        let mut d = t.d.clone();
        let mut e = t.e.clone();
        {
            let off = 2 + 2 * big;
            let z = ZBlock {
                buf: &mut v.as_mut_slice()[off..],
                ld: big,
                nrows: n,
            };
            steqr_mut(&mut d, &mut e, Some(z)).unwrap();
        }
        // The 3x3 block must be the leaf's eigenvectors; rest untouched.
        let (lam_ref, v_ref) = steqr(&t).unwrap();
        for (a, b) in d.iter().zip(&lam_ref) {
            assert!((a - b).abs() < 1e-14);
        }
        for j in 0..n {
            for i in 0..n {
                assert!((v[(2 + i, 2 + j)].abs() - v_ref[(i, j)].abs()).abs() < 1e-12);
            }
        }
        assert_eq!(v[(0, 0)], 0.0);
        assert_eq!(v[(6, 6)], 0.0);
    }
}
