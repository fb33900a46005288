//! Test-matrix generators: the fifteen types of the paper's Table III and
//! the "application-like" matrices of Figure 10.

mod application;
mod rkpw;

pub use application::{application_suite, glued_wilkinson, ApplicationMatrix};
pub use rkpw::jacobi_from_spectrum;

use crate::SymTridiag;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Condition-like parameter `k` from the paper's testing environment.
pub const K_PARAM: f64 = 1.0e6;

/// The paper's `ulp` (relative unit in the last place, `dlamch('P')`).
pub const ULP: f64 = f64::EPSILON;

/// The fifteen matrix types of Table III.
///
/// Types 1–9 prescribe the spectrum (built via [`jacobi_from_spectrum`]
/// with random eigenvector weights); types 10–15 are directly-defined
/// matrices.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MatrixType {
    /// λ₁ = 1, λᵢ = 1/k.
    Type1,
    /// λᵢ = 1 for i < n, λₙ = 1/k. (~100 % deflation in D&C.)
    Type2,
    /// λᵢ = k^{−(i−1)/(n−1)} — geometric. (~50 % deflation.)
    Type3,
    /// λᵢ = 1 − ((i−1)/(n−1))(1 − 1/k) — arithmetic. (~20 % deflation.)
    Type4,
    /// n random numbers with uniformly distributed logarithm.
    Type5,
    /// n uniform random numbers.
    Type6,
    /// λᵢ = ulp·i for i < n, λₙ = 1.
    Type7,
    /// λ₁ = ulp, λᵢ = 1 + i·√ulp, λₙ = 2.
    Type8,
    /// λ₁ = 1, λᵢ = λᵢ₋₁ + 100·ulp.
    Type9,
    /// The (1,2,1) Toeplitz matrix.
    Type10,
    /// Wilkinson matrix W⁺.
    Type11,
    /// Clement matrix.
    Type12,
    /// Legendre (Jacobi) matrix.
    Type13,
    /// Laguerre (Jacobi) matrix.
    Type14,
    /// Hermite (Jacobi) matrix.
    Type15,
}

impl MatrixType {
    /// All fifteen types in Table III order.
    pub const ALL: [MatrixType; 15] = [
        MatrixType::Type1,
        MatrixType::Type2,
        MatrixType::Type3,
        MatrixType::Type4,
        MatrixType::Type5,
        MatrixType::Type6,
        MatrixType::Type7,
        MatrixType::Type8,
        MatrixType::Type9,
        MatrixType::Type10,
        MatrixType::Type11,
        MatrixType::Type12,
        MatrixType::Type13,
        MatrixType::Type14,
        MatrixType::Type15,
    ];

    /// 1-based index used by the paper.
    pub fn index(self) -> usize {
        MatrixType::ALL.iter().position(|&t| t == self).unwrap() + 1
    }

    /// Parse from the paper's 1-based index.
    pub fn from_index(idx: usize) -> Option<MatrixType> {
        MatrixType::ALL.get(idx.checked_sub(1)?).copied()
    }

    /// One-line description matching Table III.
    pub fn description(self) -> &'static str {
        match self {
            MatrixType::Type1 => "lambda_1 = 1, lambda_i = 1/k",
            MatrixType::Type2 => "lambda_i = 1 (i < n), lambda_n = 1/k",
            MatrixType::Type3 => "lambda_i = k^{-(i-1)/(n-1)}",
            MatrixType::Type4 => "lambda_i = 1 - ((i-1)/(n-1))(1 - 1/k)",
            MatrixType::Type5 => "random, log-uniform",
            MatrixType::Type6 => "random, uniform",
            MatrixType::Type7 => "lambda_i = ulp*i (i < n), lambda_n = 1",
            MatrixType::Type8 => "lambda_1 = ulp, lambda_i = 1 + i*sqrt(ulp), lambda_n = 2",
            MatrixType::Type9 => "lambda_1 = 1, lambda_i = lambda_{i-1} + 100*ulp",
            MatrixType::Type10 => "(1,2,1) Toeplitz",
            MatrixType::Type11 => "Wilkinson W+",
            MatrixType::Type12 => "Clement",
            MatrixType::Type13 => "Legendre",
            MatrixType::Type14 => "Laguerre",
            MatrixType::Type15 => "Hermite",
        }
    }

    /// The prescribed spectrum (ascending), if this type has one
    /// (types 1–9; `None` for the directly-defined matrices 10–15).
    pub fn prescribed_spectrum(self, n: usize, seed: u64) -> Option<Vec<f64>> {
        assert!(n >= 1);
        let k = K_PARAM;
        let nf = n as f64;
        let mut lam: Vec<f64> = match self {
            MatrixType::Type1 => {
                let mut v = vec![1.0 / k; n];
                v[n - 1] = 1.0; // store ascending: the single 1 is largest
                v
            }
            MatrixType::Type2 => {
                let mut v = vec![1.0; n];
                v[0] = 1.0 / k;
                v
            }
            MatrixType::Type3 => (0..n)
                .map(|i| k.powf(-(i as f64) / ((nf - 1.0).max(1.0))))
                .rev()
                .collect(),
            MatrixType::Type4 => (0..n)
                .map(|i| 1.0 - (i as f64 / (nf - 1.0).max(1.0)) * (1.0 - 1.0 / k))
                .rev()
                .collect(),
            MatrixType::Type5 => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed_0005);
                let lnlo = (1.0 / k).ln();
                let mut v: Vec<f64> = (0..n)
                    .map(|_| (rng.gen_range(lnlo..0.0f64)).exp())
                    .collect();
                v.sort_by(|a, b| a.partial_cmp(b).unwrap());
                v
            }
            MatrixType::Type6 => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed_0006);
                let mut v: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                v.sort_by(|a, b| a.partial_cmp(b).unwrap());
                v
            }
            MatrixType::Type7 => {
                let mut v: Vec<f64> = (1..n).map(|i| ULP * i as f64).collect();
                v.push(1.0);
                v
            }
            MatrixType::Type8 => {
                let mut v = Vec::with_capacity(n);
                v.push(ULP);
                let s = ULP.sqrt();
                v.extend((2..n).map(|i| 1.0 + i as f64 * s));
                if n > 1 {
                    v.push(2.0);
                }
                v
            }
            MatrixType::Type9 => (0..n).map(|i| 1.0 + 100.0 * ULP * i as f64).collect(),
            _ => return None,
        };
        lam.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Some(lam)
    }

    /// The nodes and eigenvector weights [`MatrixType::generate`] hands to
    /// [`jacobi_from_spectrum`] (types 1–9; `None` for types 10–15).
    pub(crate) fn spectral_data(self, n: usize, seed: u64) -> Option<(Vec<f64>, Vec<f64>)> {
        let lam = self.prescribed_spectrum(n, seed)?;
        let mut rng = ChaCha8Rng::seed_from_u64(
            seed.wrapping_mul(0x9e37_79b9)
                .wrapping_add(self.index() as u64),
        );
        // Random positive weights bounded away from zero so the
        // reconstruction stays well conditioned.
        let weights: Vec<f64> = (0..n)
            .map(|_| rng.gen_range(0.05..1.0f64))
            .map(|u| u * u)
            .collect();
        Some((lam, weights))
    }

    /// Generate an `n × n` instance. `seed` controls both random spectra
    /// and the random eigenvector weights of the prescribed-spectrum types.
    pub fn generate(self, n: usize, seed: u64) -> SymTridiag {
        assert!(n >= 1, "matrix dimension must be positive");
        if let Some((lam, weights)) = self.spectral_data(n, seed) {
            return jacobi_from_spectrum(&lam, &weights);
        }
        match self {
            MatrixType::Type10 => SymTridiag::toeplitz121(n),
            MatrixType::Type11 => wilkinson(n),
            MatrixType::Type12 => clement(n),
            MatrixType::Type13 => legendre(n),
            MatrixType::Type14 => laguerre(n),
            MatrixType::Type15 => hermite(n),
            _ => unreachable!("prescribed-spectrum types handled above"),
        }
    }
}

/// Wilkinson matrix W⁺: diagonal `|i − (n−1)/2|` descending to 0 in the
/// middle, unit off-diagonals. Famous for its pairs of nearly-equal
/// eigenvalues.
pub fn wilkinson(n: usize) -> SymTridiag {
    let m = (n as f64 - 1.0) / 2.0;
    let d = (0..n).map(|i| (i as f64 - m).abs()).collect();
    SymTridiag::new(d, vec![1.0; n.saturating_sub(1)])
}

/// Clement matrix: zero diagonal, `e_i = sqrt((i+1)(n−1−i))`. Spectrum is
/// exactly `±(n−1), ±(n−3), …` (0 included for odd n).
pub fn clement(n: usize) -> SymTridiag {
    let e = (0..n.saturating_sub(1))
        .map(|i| (((i + 1) * (n - 1 - i)) as f64).sqrt())
        .collect();
    SymTridiag::new(vec![0.0; n], e)
}

/// Jacobi matrix of the Legendre polynomials: zero diagonal,
/// `e_i = i/sqrt(4i² − 1)`. Eigenvalues are the Gauss–Legendre nodes.
pub fn legendre(n: usize) -> SymTridiag {
    let e = (1..n)
        .map(|i| {
            let i = i as f64;
            i / (4.0 * i * i - 1.0).sqrt()
        })
        .collect();
    SymTridiag::new(vec![0.0; n], e)
}

/// Jacobi matrix of the Laguerre polynomials: `d_i = 2i + 1`, `e_i = i`.
/// Eigenvalues are the (positive) Gauss–Laguerre nodes.
pub fn laguerre(n: usize) -> SymTridiag {
    let d = (0..n).map(|i| 2.0 * i as f64 + 1.0).collect();
    let e = (1..n).map(|i| i as f64).collect();
    SymTridiag::new(d, e)
}

/// Jacobi matrix of the Hermite polynomials: zero diagonal,
/// `e_i = sqrt(i/2)`. Eigenvalues are the Gauss–Hermite nodes.
pub fn hermite(n: usize) -> SymTridiag {
    let e = (1..n).map(|i| (i as f64 / 2.0).sqrt()).collect();
    SymTridiag::new(vec![0.0; n], e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sturm_count;

    #[test]
    fn all_types_generate_finite_matrices() {
        for t in MatrixType::ALL {
            let m = t.generate(40, 1);
            assert_eq!(m.n(), 40, "type {}", t.index());
            assert!(!m.has_non_finite(), "type {}", t.index());
        }
    }

    #[test]
    fn index_roundtrip() {
        for t in MatrixType::ALL {
            assert_eq!(MatrixType::from_index(t.index()), Some(t));
        }
        assert_eq!(MatrixType::from_index(0), None);
        assert_eq!(MatrixType::from_index(16), None);
    }

    #[test]
    fn prescribed_types_have_their_spectrum() {
        // Sturm counts on the generated matrix must locate every
        // prescribed eigenvalue (allowing clustered types a tolerance).
        for t in [MatrixType::Type3, MatrixType::Type4, MatrixType::Type6] {
            let n = 30;
            let m = t.generate(n, 3);
            let lam = t.prescribed_spectrum(n, 3).unwrap();
            for (k, &l) in lam.iter().enumerate() {
                let tol = 1e-8 * l.abs().max(1.0);
                assert!(
                    sturm_count(&m, l - tol) <= k && sturm_count(&m, l + tol) > k,
                    "type {} eigenvalue {k} = {l}",
                    t.index()
                );
            }
        }
    }

    #[test]
    fn clement_spectrum_is_exact_integers() {
        let n = 9;
        let m = clement(n);
        // Spectrum = {-8, -6, ..., 6, 8}.
        for k in 0..n {
            let lam = -8.0 + 2.0 * k as f64;
            assert_eq!(sturm_count(&m, lam - 1e-9), k);
            assert_eq!(sturm_count(&m, lam + 1e-9), k + 1);
        }
    }

    #[test]
    fn wilkinson_is_symmetric_about_middle() {
        let m = wilkinson(21);
        assert_eq!(m.d[0], 10.0);
        assert_eq!(m.d[10], 0.0);
        assert_eq!(m.d[20], 10.0);
        assert!(m.e.iter().all(|&x| x == 1.0));
    }

    #[test]
    fn legendre_nodes_lie_in_unit_interval() {
        let m = legendre(16);
        let (lo, hi) = m.gershgorin_bounds();
        assert!(lo >= -1.1 && hi <= 1.1);
        assert_eq!(sturm_count(&m, 1.0), 16);
        assert_eq!(sturm_count(&m, -1.0), 0);
    }

    #[test]
    fn laguerre_nodes_are_positive() {
        let m = laguerre(12);
        assert_eq!(sturm_count(&m, 0.0), 0);
    }

    #[test]
    fn type2_clusters_force_tiny_offdiagonals() {
        let m = MatrixType::Type2.generate(50, 9);
        let tiny = m.e.iter().filter(|x| x.abs() < 1e-6).count();
        assert!(
            tiny > 30,
            "expected massive near-reducibility, got {tiny} tiny entries"
        );
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = MatrixType::Type6.generate(20, 5);
        let b = MatrixType::Type6.generate(20, 5);
        let c = MatrixType::Type6.generate(20, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
