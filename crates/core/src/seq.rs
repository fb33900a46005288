//! The three comparator drivers, each a scheduling discipline over the one
//! merge graph `crate::taskflow` builds: [`SequentialDc`] (LAPACK `dstedc`
//! shape), [`ForkJoinDc`] (MKL shape: threaded BLAS under a sequential
//! driver), and [`LevelParallelDc`] (ScaLAPACK shape: parallel subproblems
//! with level barriers). The kernels, their order within a merge, and so
//! every bit of the result are the task-flow solver's.

use crate::taskflow::{Discipline, TaskFlowDc};
use crate::{DcError, DcOptions, DcStats, Eigen, TridiagEigensolver};
use dcst_runtime::{RuntimeMetrics, Trace};
use dcst_tridiag::SymTridiag;

macro_rules! driver {
    ($name:ident, $discipline:expr, $label:literal, $doc:literal) => {
        #[doc = $doc]
        pub struct $name(TaskFlowDc);

        impl $name {
            pub fn new(opts: DcOptions) -> Self {
                $name(TaskFlowDc::with_discipline(opts, $discipline))
            }

            /// Solve and also return per-merge statistics.
            pub fn solve_with_stats(&self, t: &SymTridiag) -> Result<(Eigen, DcStats), DcError> {
                self.0.solve_with_stats(t)
            }

            /// Solve with the execution trace and scheduler counters of the
            /// run, as [`TaskFlowDc::solve_observed`].
            #[allow(clippy::type_complexity)]
            pub fn solve_observed(
                &self,
                t: &SymTridiag,
            ) -> Result<(Eigen, DcStats, Trace, RuntimeMetrics), DcError> {
                self.0.solve_observed(t)
            }
        }

        impl TridiagEigensolver for $name {
            fn solve(&self, t: &SymTridiag) -> Result<Eigen, DcError> {
                self.0.solve(t)
            }

            fn name(&self) -> &'static str {
                $label
            }
        }
    };
}

driver!(
    SequentialDc,
    Discipline::Sequential,
    "dc-sequential",
    "Pure sequential D&C — the LAPACK `dstedc` shape: the task flow run inline, every body on the calling thread in submission order (`threads` is ignored). When several blocks fail, the reported error is the first in submission order, i.e. the lowest block offset."
);
driver!(
    ForkJoinDc,
    Discipline::ForkJoin,
    "dc-forkjoin",
    "Sequential D&C with multithreaded update GEMMs — the \"LAPACK + threaded MKL BLAS\" comparator of the paper's Figure 6: the task flow run inline, except that each merge's GEMM panel groups (`UpdateVect`, `StructBasis`) fork across `threads` executors (the caller and `threads − 1` workers) and join before the flow continues. Errors are reported as by [`SequentialDc`]."
);
driver!(
    LevelParallelDc,
    Discipline::LevelParallel,
    "dc-levelparallel",
    "Level-parallel D&C with barriers between tree levels — the ScaLAPACK `pdstedc` comparator of the paper's Figure 7: the task flow on `threads` workers with a barrier after the leaves and after every tree level, so a level's subproblems (and, within each, its LAED4/local-W/GEMM panels, as in `pdlaed3`) run in parallel. Error contract as [`TaskFlowDc`]: when several blocks fail, the typed error of whichever failed first is reported."
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolveMode;
    use dcst_matrix::{orthogonality_error, residual_error};

    fn check(t: &SymTridiag, eig: &Eigen, tol: f64) {
        let n = t.n();
        assert!(eig.values.windows(2).all(|w| w[0] <= w[1]), "sorted");
        let orth = orthogonality_error(&eig.vectors);
        assert!(orth < tol, "orthogonality {orth}");
        let res = residual_error(
            n,
            |x, y| t.matvec(x, y),
            &eig.values,
            &eig.vectors,
            t.max_norm(),
        );
        assert!(res < tol, "residual {res}");
    }

    fn opts(min_part: usize, threads: usize) -> DcOptions {
        DcOptions {
            min_part,
            nb: 16,
            threads,
            use_gatherv: true,
            mode: SolveMode::Full,
        }
    }

    #[test]
    fn sequential_solves_toeplitz() {
        let n = 120;
        let t = SymTridiag::toeplitz121(n);
        let eig = SequentialDc::new(opts(16, 1)).solve(&t).unwrap();
        check(&t, &eig, 1e-13);
        for (k, &l) in eig.values.iter().enumerate() {
            let want = 2.0 - 2.0 * ((k + 1) as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos();
            assert!((l - want).abs() < 1e-12, "eig {k}: {l} vs {want}");
        }
    }

    #[test]
    fn matches_qr_iteration() {
        let t = dcst_tridiag::gen::MatrixType::Type6.generate(90, 17);
        let eig = SequentialDc::new(opts(20, 1)).solve(&t).unwrap();
        let lam_ref = dcst_qriter::eigenvalues(&t).unwrap();
        for (a, b) in eig.values.iter().zip(&lam_ref) {
            assert!((a - b).abs() < 1e-12 * t.max_norm(), "{a} vs {b}");
        }
        check(&t, &eig, 1e-13);
    }

    #[test]
    fn all_matrix_types_small() {
        for ty in dcst_tridiag::gen::MatrixType::ALL {
            let t = ty.generate(70, 5);
            let eig = SequentialDc::new(opts(12, 1)).solve(&t).unwrap();
            check(&t, &eig, 1e-12);
        }
    }

    #[test]
    fn forkjoin_matches_sequential() {
        let t = dcst_tridiag::gen::MatrixType::Type4.generate(100, 9);
        let a = SequentialDc::new(opts(16, 1)).solve(&t).unwrap();
        let b = ForkJoinDc::new(opts(16, 2)).solve(&t).unwrap();
        for (x, y) in a.values.iter().zip(&b.values) {
            assert!((x - y).abs() < 1e-13);
        }
        check(&t, &b, 1e-13);
    }

    #[test]
    fn levelparallel_matches_sequential() {
        let t = dcst_tridiag::gen::MatrixType::Type3.generate(100, 9);
        let a = SequentialDc::new(opts(16, 1)).solve(&t).unwrap();
        let b = LevelParallelDc::new(opts(16, 2)).solve(&t).unwrap();
        for (x, y) in a.values.iter().zip(&b.values) {
            assert!((x - y).abs() < 1e-13);
        }
        check(&t, &b, 1e-13);
    }

    #[test]
    fn deflation_statistics_match_matrix_character() {
        // Type 2 (massive clustering) must deflate far more than type 4.
        let t2 = dcst_tridiag::gen::MatrixType::Type2.generate(128, 3);
        let t4 = dcst_tridiag::gen::MatrixType::Type4.generate(128, 3);
        let (_, s2) = SequentialDc::new(opts(16, 1))
            .solve_with_stats(&t2)
            .unwrap();
        let (_, s4) = SequentialDc::new(opts(16, 1))
            .solve_with_stats(&t4)
            .unwrap();
        assert!(
            s2.overall_deflation() > s4.overall_deflation() + 0.2,
            "type2 {} vs type4 {}",
            s2.overall_deflation(),
            s4.overall_deflation()
        );
    }

    #[test]
    fn single_leaf_problem() {
        let t = SymTridiag::toeplitz121(10);
        let eig = SequentialDc::new(opts(32, 1)).solve(&t).unwrap();
        check(&t, &eig, 1e-13);
    }

    #[test]
    fn rejects_non_finite() {
        let t = SymTridiag::new(vec![1.0, f64::NAN, 0.0], vec![0.1, 0.1]);
        assert!(matches!(
            SequentialDc::new(opts(4, 1)).solve(&t),
            Err(DcError::NonFinite)
        ));
    }

    #[test]
    fn empty_matrix() {
        let t = SymTridiag::new(vec![], vec![]);
        let eig = SequentialDc::new(DcOptions::default()).solve(&t).unwrap();
        assert!(eig.values.is_empty());
    }

    #[test]
    fn scaling_extreme_norm() {
        let t = SymTridiag::new(
            vec![1e200, 2e200, -1e200, 5e199],
            vec![1e199, -2e199, 3e198],
        );
        let eig = SequentialDc::new(opts(2, 1)).solve(&t).unwrap();
        check(&t, &eig, 1e-12);
    }
}
