//! Solve-mode conformance: values-only and subset solves must agree with
//! the full-solve oracle across every DMPV matrix type and every driver.

use dcst_core::{
    DcError, DcOptions, ForkJoinDc, LevelParallelDc, SequentialDc, SolveMode, TaskFlowDc,
    TridiagEigensolver,
};
use dcst_matrix::{orthogonality_error, residual_error};
use dcst_tridiag::gen::MatrixType;
use dcst_tridiag::{sturm_count, SymTridiag};
use proptest::prelude::*;

fn opts(mode: SolveMode) -> DcOptions {
    DcOptions {
        min_part: 16,
        nb: 16,
        threads: 3,
        mode,
        ..DcOptions::default()
    }
}

/// All four drivers as trait objects for a given mode.
fn drivers(mode: SolveMode) -> Vec<Box<dyn TridiagEigensolver>> {
    vec![
        Box::new(SequentialDc::new(opts(mode))),
        Box::new(ForkJoinDc::new(opts(mode))),
        Box::new(LevelParallelDc::new(opts(mode))),
        Box::new(TaskFlowDc::new(opts(mode))),
    ]
}

/// |a - b| within `mult · nε·‖T‖` — the workspace's DMPV-gate shape.
fn values_close(a: &[f64], b: &[f64], n: usize, norm: f64, mult: f64) {
    assert_eq!(a.len(), b.len());
    let tol = mult * n as f64 * f64::EPSILON * norm.max(1.0);
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!((x - y).abs() <= tol, "value {i}: {x} vs {y} (tol {tol})");
    }
}

#[test]
fn values_only_matches_full_all_types_all_drivers() {
    let n = 80;
    for ty in MatrixType::ALL {
        let t = ty.generate(n, 7);
        let oracle = SequentialDc::new(opts(SolveMode::Full)).solve(&t).unwrap();
        for s in drivers(SolveMode::ValuesOnly) {
            let eig = s.solve(&t).unwrap();
            assert_eq!(eig.vectors.cols(), 0, "{}: no vectors", s.name());
            assert_eq!(eig.vectors.rows(), n);
            values_close(&eig.values, &oracle.values, n, t.max_norm(), 50.0);
        }
    }
}

#[test]
fn values_only_brackets_sturm_counts_at_n_1000() {
    // Values mode at a size whose merges span many panels, against an
    // oracle that shares nothing with the merge kernels: every returned
    // eigenvalue sits between Sturm counts that bracket its index.
    let n = 1000;
    let solver = TaskFlowDc::new(DcOptions {
        threads: 2,
        mode: SolveMode::ValuesOnly,
        ..DcOptions::default()
    });
    for ty in MatrixType::ALL {
        let t = ty.generate(n, 7);
        let eig = solver.solve(&t).unwrap();
        assert_eq!(eig.values.len(), n, "{ty:?}");
        assert!(
            eig.values.windows(2).all(|w| w[0] <= w[1]),
            "{ty:?}: sorted"
        );
        let tol = 50.0 * n as f64 * f64::EPSILON * t.max_norm().max(f64::MIN_POSITIVE);
        for (i, &lam) in eig.values.iter().enumerate() {
            let (below, above) = (sturm_count(&t, lam - tol), sturm_count(&t, lam + tol));
            assert!(
                below <= i && i < above,
                "{ty:?}: eigenvalue {i} = {lam:e}, Sturm counts {below}..{above}"
            );
        }
    }
}

#[test]
fn subset_matches_full_all_types_all_drivers() {
    let n = 80;
    // Wide subset (D&C pruned root) and narrow subset (MRRR fallback).
    for (il, iu) in [(10usize, 69usize), (38, 41)] {
        for ty in MatrixType::ALL {
            let t = ty.generate(n, 3);
            let oracle = SequentialDc::new(opts(SolveMode::Full)).solve(&t).unwrap();
            for s in drivers(SolveMode::Subset { il, iu }) {
                let eig = s.solve(&t).unwrap();
                assert_eq!(eig.values.len(), iu - il + 1, "{}", s.name());
                assert_eq!(eig.vectors.cols(), iu - il + 1);
                assert_eq!(eig.vectors.rows(), n);
                values_close(&eig.values, &oracle.values[il..=iu], n, t.max_norm(), 50.0);
                // The returned columns must be genuine eigenvectors of T
                // for the returned values.
                let res = residual_error(
                    n,
                    |x, y| t.matvec(x, y),
                    &eig.values,
                    &eig.vectors,
                    t.max_norm(),
                );
                assert!(res < 1e-10, "{} {ty:?} residual {res}", s.name());
                // Unit columns.
                for c in 0..eig.vectors.cols() {
                    let nrm: f64 = eig.vectors.col(c).iter().map(|x| x * x).sum::<f64>().sqrt();
                    assert!((nrm - 1.0).abs() < 1e-8, "col {c} norm {nrm}");
                }
            }
        }
    }
}

#[test]
fn narrow_subset_cutting_a_split_cluster() {
    // Regression (MRRR fallback): type 2 at n = 128 is a 127-fold cluster
    // at 1 that MRRR splits into 126 blocks; for these seeds the window cut
    // for indices 0..=3 fell inside the cluster and the fallback failed
    // typed `numerical` although the input is supported.
    let (n, il, iu) = (128usize, 0usize, 3usize);
    for seed in [160118888415, 661053094284] {
        let t = MatrixType::Type2.generate(n, seed);
        let eig = TaskFlowDc::new(opts(SolveMode::Subset { il, iu }))
            .solve(&t)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!((eig.values.len(), eig.vectors.cols()), (4, 4));
        let oracle = SequentialDc::new(opts(SolveMode::Full)).solve(&t).unwrap();
        values_close(&eig.values, &oracle.values[il..=iu], n, t.max_norm(), 50.0);
        // DMPV gates, both in units of nε (orthogonality_error divides by
        // the column count, the gate by n).
        let gate = 50.0 * f64::EPSILON;
        let orth = orthogonality_error(&eig.vectors) * 4.0 / n as f64;
        let res = residual_error(
            n,
            |x, y| t.matvec(x, y),
            &eig.values,
            &eig.vectors,
            t.max_norm(),
        );
        assert!(orth < gate && res < gate, "seed {seed}: {orth:e} {res:e}");
    }
}

#[test]
fn subset_full_range_matches_full_solve() {
    let t = MatrixType::Type6.generate(64, 11);
    let full = SequentialDc::new(opts(SolveMode::Full)).solve(&t).unwrap();
    let sub = SequentialDc::new(opts(SolveMode::Subset { il: 0, iu: 63 }))
        .solve(&t)
        .unwrap();
    assert_eq!(sub.values.len(), 64);
    values_close(&sub.values, &full.values, 64, t.max_norm(), 50.0);
    let res = residual_error(
        64,
        |x, y| t.matvec(x, y),
        &sub.values,
        &sub.vectors,
        t.max_norm(),
    );
    assert!(res < 1e-12, "residual {res}");
}

#[test]
fn invalid_subset_ranges_are_typed_errors() {
    let t = SymTridiag::toeplitz121(32);
    for (il, iu) in [(5usize, 4usize), (0, 32), (40, 50)] {
        for s in drivers(SolveMode::Subset { il, iu }) {
            match s.solve(&t) {
                Err(DcError::InvalidRange {
                    il: el,
                    iu: eu,
                    n: en,
                }) => {
                    assert_eq!((el, eu, en), (il, iu, 32), "{}", s.name());
                }
                other => panic!(
                    "{} with ({il},{iu}): expected InvalidRange, got {other:?}",
                    s.name()
                ),
            }
        }
    }
}

#[test]
fn values_only_extreme_scales() {
    // The 1e-60 / 1e150 regimes that motivated the bisection fix must also
    // survive the boundary-row path end to end.
    for scale in [1e-60, 1.0, 1e150] {
        let base = SymTridiag::toeplitz121(48);
        let t = SymTridiag::new(
            base.d.iter().map(|x| x * scale).collect(),
            base.e.iter().map(|x| x * scale).collect(),
        );
        let full = SequentialDc::new(opts(SolveMode::Full)).solve(&t).unwrap();
        let vals = SequentialDc::new(opts(SolveMode::ValuesOnly))
            .solve(&t)
            .unwrap();
        values_close(&vals.values, &full.values, 48, t.max_norm(), 50.0);
    }
}

#[test]
fn values_only_single_leaf_and_tiny() {
    // Root-is-leaf (n <= min_part) and degenerate sizes.
    for n in [1usize, 2, 3, 15] {
        let t = MatrixType::Type8.generate(n, 5);
        let full = SequentialDc::new(opts(SolveMode::Full)).solve(&t).unwrap();
        for s in drivers(SolveMode::ValuesOnly) {
            let eig = s.solve(&t).unwrap();
            values_close(&eig.values, &full.values, n.max(1), t.max_norm(), 50.0);
        }
    }
}

#[test]
fn subset_single_leaf_tree() {
    // n <= min_part: the "root merge" never happens; gather still works.
    let t = MatrixType::Type4.generate(12, 2);
    let full = SequentialDc::new(opts(SolveMode::Full)).solve(&t).unwrap();
    for s in drivers(SolveMode::Subset { il: 2, iu: 9 }) {
        let eig = s.solve(&t).unwrap();
        values_close(&eig.values, &full.values[2..=9], 12, t.max_norm(), 50.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Random type/size/seed: values-only agrees with the full oracle on
    /// every driver.
    #[test]
    fn prop_values_only_matches_full(
        ty_idx in 0usize..15,
        n in 24usize..100,
        seed in 0u64..1000,
    ) {
        let t = MatrixType::ALL[ty_idx].generate(n, seed);
        let oracle = SequentialDc::new(opts(SolveMode::Full)).solve(&t).unwrap();
        for s in drivers(SolveMode::ValuesOnly) {
            let eig = s.solve(&t).unwrap();
            values_close(&eig.values, &oracle.values, n, t.max_norm(), 50.0);
        }
    }

    /// Random subset ranges: selected values agree with the oracle slice
    /// and the vectors have small residuals, on every driver.
    #[test]
    fn prop_subset_matches_full(
        ty_idx in 0usize..15,
        n in 24usize..100,
        seed in 0u64..1000,
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
    ) {
        let t = MatrixType::ALL[ty_idx].generate(n, seed);
        let il = (a * (n - 1) as f64) as usize;
        let iu = il + (b * (n - 1 - il) as f64) as usize;
        let oracle = SequentialDc::new(opts(SolveMode::Full)).solve(&t).unwrap();
        for s in drivers(SolveMode::Subset { il, iu }) {
            let eig = s.solve(&t).unwrap();
            prop_assert_eq!(eig.values.len(), iu - il + 1);
            values_close(&eig.values, &oracle.values[il..=iu], n, t.max_norm(), 50.0);
            let res = residual_error(
                n,
                |x, y| t.matvec(x, y),
                &eig.values,
                &eig.vectors,
                t.max_norm(),
            );
            prop_assert!(res < 1e-8, "{} residual {}", s.name(), res);
        }
    }
}
