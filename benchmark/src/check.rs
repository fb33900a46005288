//! Output checks: the DMPV accuracy contract, computed by code that shares
//! nothing with the solver's kernels (plain loops, no GEMM).
//!
//! Gated quantities, in units of machine epsilon (LAPACK testing
//! conventions, the same the repository's `accuracy_gates` test uses):
//!
//! * residual       `max_i ‖T vᵢ − λᵢ vᵢ‖₂ / (‖T‖·n·ε)` over **all** columns;
//! * orthogonality  `max |vₛᵀvⱼ − δₛⱼ| / (n·ε)` for a seeded sample of
//!   columns `s` against **all** columns `j`;
//! * eigenvalues ascending, and two solvers' eigenvalues within
//!   `GATE·n·ε·‖T‖` of each other;
//! * for values-only results, which carry no vectors to test: Sturm counts
//!   at a seeded sample of the returned eigenvalues bracket each index.

use crate::Rng;
use dcst_matrix::Matrix;
use dcst_tridiag::{sturm_count, SymTridiag};

/// Shared gate, in units of ε.
pub const GATE: f64 = 50.0;
/// Seeded columns the orthogonality gate tests against all columns.
pub const ORTH_COLUMNS: usize = 256;
const EPS: f64 = f64::EPSILON;

/// Absolute eigenvalue tolerance `GATE·n·ε·‖T‖` for `t`.
pub fn value_tol(t: &SymTridiag) -> f64 {
    GATE * t.n() as f64 * EPS * t.max_norm().max(f64::MIN_POSITIVE)
}

/// True unless `x` is a number no greater than `limit`: a NaN is over
/// every limit, so a check that produced one fails.
pub fn over(x: f64, limit: f64) -> bool {
    x.is_nan() || x > limit
}

pub fn ascending(values: &[f64]) -> bool {
    values.windows(2).all(|w| w[0] <= w[1])
}

/// Largest `|a[i] − b[i]|` (infinite when the lengths differ).
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Residual gate over all columns of `v`, in ε units. O(n) per column.
pub fn residual_neps(t: &SymTridiag, values: &[f64], v: &Matrix) -> f64 {
    let n = t.n();
    let denom = t.max_norm().max(f64::MIN_POSITIVE) * n as f64 * EPS;
    let mut worst = 0.0f64;
    for (j, &lam) in values.iter().enumerate() {
        let x = v.col(j);
        let mut sum = 0.0;
        for i in 0..n {
            let mut y = (t.d[i] - lam) * x[i];
            if i > 0 {
                y += t.e[i - 1] * x[i - 1];
            }
            if i + 1 < n {
                y += t.e[i] * x[i + 1];
            }
            sum += y * y;
        }
        worst = worst.max(sum.sqrt());
    }
    worst / denom
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    // Four independent partial sums so the loop vectorizes.
    let mut acc = [0.0f64; 4];
    let (ca, cb) = (a.chunks_exact(4), b.chunks_exact(4));
    let tail: f64 = ca
        .remainder()
        .iter()
        .zip(cb.remainder())
        .map(|(x, y)| x * y)
        .sum();
    for (x, y) in ca.zip(cb) {
        for l in 0..4 {
            acc[l] += x[l] * y[l];
        }
    }
    acc.iter().sum::<f64>() + tail
}

/// Orthogonality gate in ε units: up to `sample` seeded columns against all
/// columns, split across `threads` scoped threads.
pub fn orthogonality_neps(v: &Matrix, sample: usize, seed: u64, threads: usize) -> f64 {
    let (n, cols) = (v.rows(), v.cols());
    if cols == 0 {
        return 0.0;
    }
    let mut rng = Rng::new(seed ^ 0x6f72_7468);
    let picks: Vec<usize> = if cols <= sample {
        (0..cols).collect()
    } else {
        (0..sample)
            .map(|_| rng.below(cols as u64) as usize)
            .collect()
    };
    let threads = threads.clamp(1, picks.len());
    let worst = std::thread::scope(|scope| {
        let handles: Vec<_> = picks
            .chunks(picks.len().div_ceil(threads))
            .map(|chunk| {
                scope.spawn(move || {
                    let mut worst = 0.0f64;
                    for &s in chunk {
                        let vs = v.col(s);
                        for j in 0..cols {
                            let g = dot(vs, v.col(j)) - if j == s { 1.0 } else { 0.0 };
                            worst = worst.max(g.abs());
                        }
                    }
                    worst
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("orthogonality check thread"))
            .fold(0.0, f64::max)
    });
    worst / (n as f64 * EPS)
}

/// Measured gates of one full decomposition.
#[derive(Clone, Copy, Debug, Default)]
pub struct Gates {
    pub resid_neps: f64,
    pub orth_neps: f64,
}

/// Check one full decomposition; returns the gates and what failed (empty
/// when the result is correct).
pub fn check_full(
    t: &SymTridiag,
    values: &[f64],
    vectors: &Matrix,
    sample: usize,
    seed: u64,
    threads: usize,
) -> (Gates, Vec<String>) {
    let mut failures = Vec::new();
    if values.len() != t.n() || vectors.rows() != t.n() || vectors.cols() != t.n() {
        failures.push(format!(
            "shape: {} values, {}x{} vectors for n = {}",
            values.len(),
            vectors.rows(),
            vectors.cols(),
            t.n()
        ));
        return (Gates::default(), failures);
    }
    if !ascending(values) {
        failures.push("eigenvalues not ascending".to_string());
    }
    let gates = Gates {
        resid_neps: residual_neps(t, values, vectors),
        orth_neps: orthogonality_neps(vectors, sample, seed, threads),
    };
    if over(gates.resid_neps, GATE) {
        failures.push(format!(
            "residual {:.1} n·eps (gate {GATE})",
            gates.resid_neps
        ));
    }
    if over(gates.orth_neps, GATE) {
        failures.push(format!(
            "orthogonality {:.1} n·eps (gate {GATE})",
            gates.orth_neps
        ));
    }
    (gates, failures)
}

/// Check a values-only result: ascending, and at up to `sample` seeded
/// indices `i` the Sturm counts just below and just above `λᵢ` bracket
/// `i` (so `λᵢ` is the i-th eigenvalue of `t` to within the tolerance).
pub fn check_values(t: &SymTridiag, values: &[f64], sample: usize, seed: u64) -> Vec<String> {
    let n = t.n();
    let mut failures = Vec::new();
    if values.len() != n {
        failures.push(format!("{} values for n = {n}", values.len()));
        return failures;
    }
    if !ascending(values) {
        failures.push("eigenvalues not ascending".to_string());
    }
    let tol = value_tol(t);
    let mut rng = Rng::new(seed ^ 0x7374_726d);
    for _ in 0..sample.min(n) {
        let i = rng.below(n as u64) as usize;
        let (below, above) = (
            sturm_count(t, values[i] - tol),
            sturm_count(t, values[i] + tol),
        );
        if !(below <= i && i < above) {
            failures.push(format!(
                "eigenvalue {i} = {:e}: Sturm counts {below}..{above} do not bracket it",
                values[i]
            ));
            break;
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcst_core::{DcOptions, SequentialDc, TridiagEigensolver};

    fn solved(n: usize) -> (SymTridiag, dcst_core::Eigen) {
        let t = SymTridiag::toeplitz121(n);
        let eig = SequentialDc::new(DcOptions {
            threads: 1,
            ..DcOptions::default()
        })
        .solve(&t)
        .unwrap();
        (t, eig)
    }

    #[test]
    fn a_correct_decomposition_passes() {
        let (t, eig) = solved(96);
        let (gates, failures) = check_full(&t, &eig.values, &eig.vectors, 256, 1, 2);
        assert!(failures.is_empty(), "{failures:?}");
        assert!(gates.resid_neps < 5.0 && gates.orth_neps < 5.0);
        assert!(check_values(&t, &eig.values, 64, 1).is_empty());
    }

    #[test]
    fn a_corrupted_vector_fails_both_gates() {
        let (t, mut eig) = solved(96);
        eig.vectors.col_mut(17)[3] += 1e-6;
        let (_, failures) = check_full(&t, &eig.values, &eig.vectors, 256, 1, 2);
        assert!(failures.iter().any(|f| f.starts_with("residual")));
        assert!(failures.iter().any(|f| f.starts_with("orthogonality")));
    }

    #[test]
    fn a_shifted_or_swapped_eigenvalue_fails() {
        let (t, eig) = solved(64);
        let mut shifted = eig.values.clone();
        for x in &mut shifted {
            *x += 1e-6;
        }
        assert!(!check_values(&t, &shifted, 64, 3).is_empty());
        let mut swapped = eig.values.clone();
        swapped.swap(10, 11);
        assert!(!ascending(&swapped));
        assert!(max_abs_diff(&eig.values, &swapped) > 0.0);
        assert_eq!(max_abs_diff(&[1.0], &[1.0, 2.0]), f64::INFINITY);
    }
}
