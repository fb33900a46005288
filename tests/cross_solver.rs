//! Cross-crate integration tests: every solver must agree on eigenvalues
//! and produce numerically orthogonal eigenvectors with small residuals,
//! across the paper's full matrix-type suite.

use dcst::prelude::*;
use dcst::tridiag::MatrixType as MT;

fn check_decomposition(t: &SymTridiag, lam: &[f64], v: &dcst::matrix::Matrix, tol: f64, who: &str) {
    assert!(
        lam.windows(2).all(|w| w[0] <= w[1]),
        "{who}: values not sorted"
    );
    let orth = orthogonality_error(v);
    assert!(orth < tol, "{who}: orthogonality {orth:e}");
    let res = residual_error(t.n(), |x, y| t.matvec(x, y), lam, v, t.max_norm());
    assert!(res < tol, "{who}: residual {res:e}");
}

fn assert_same_values(a: &[f64], b: &[f64], scale: f64, who: &str) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() <= 1e-11 * scale,
            "{who}: eigenvalue {i}: {x} vs {y}"
        );
    }
}

fn opts(threads: usize) -> DcOptions {
    DcOptions {
        min_part: 24,
        nb: 32,
        threads,
        ..DcOptions::default()
    }
}

#[test]
fn all_solvers_agree_on_every_matrix_type() {
    let n = 120;
    let rt = Runtime::new(2);
    for ty in MT::ALL {
        let t = ty.generate(n, 99);
        let scale = t.max_norm().max(1.0);

        let reference = QrIteration.solve(&t).expect("qr");
        check_decomposition(&t, &reference.0, &reference.1, 1e-11, "qr");

        for solver in [
            Box::new(SequentialDc::new(opts(1))) as Box<dyn TridiagEigensolver>,
            Box::new(ForkJoinDc::new(opts(2))),
            Box::new(LevelParallelDc::new(opts(2))),
            Box::new(TaskFlowDc::new(opts(2))),
        ] {
            let eig = solver
                .solve(&t)
                .unwrap_or_else(|e| panic!("{} on type {}: {e}", solver.name(), ty.index()));
            check_decomposition(&t, &eig.values, &eig.vectors, 1e-12, solver.name());
            assert_same_values(&reference.0, &eig.values, scale, solver.name());
        }

        let (lam, v) = MrrrSolver::new(&rt)
            .solve(&t)
            .unwrap_or_else(|e| panic!("mrrr on type {}: {e}", ty.index()));
        check_decomposition(&t, &lam, &v, 1e-9, "mrrr");
        assert_same_values(&reference.0, &lam, scale, "mrrr");
    }
}

#[test]
fn dc_is_more_accurate_than_mrrr_on_average() {
    // The paper's Figure 9 claim, asserted as an aggregate.
    let n = 150;
    let mut dc_worse = 0usize;
    let mut cases = 0usize;
    let rt = Runtime::new(2);
    for ty in MT::ALL {
        let t = ty.generate(n, 5);
        let eig = TaskFlowDc::new(opts(2)).solve(&t).unwrap();
        let (lam, v) = MrrrSolver::new(&rt).solve(&t).unwrap();
        let o_dc = orthogonality_error(&eig.vectors);
        let o_mr = orthogonality_error(&v);
        let _ = lam;
        if o_dc > o_mr {
            dc_worse += 1;
        }
        cases += 1;
    }
    assert!(
        dc_worse * 3 <= cases,
        "D&C worse on {dc_worse}/{cases} types"
    );
}

#[test]
fn full_dense_pipeline_roundtrip() {
    use dcst::tridiag::{apply_q, dense_with_spectrum, tridiagonalize};
    let spectrum: Vec<f64> = (0..80).map(|i| (i as f64).cos() * 5.0).collect();
    let a = dense_with_spectrum(&spectrum, 31);
    let (t, q) = tridiagonalize(&a);
    let eig = TaskFlowDc::new(opts(2)).solve(&t).unwrap();
    let mut v = eig.vectors;
    apply_q(&q, &mut v);
    let res = dcst::matrix::symmetric_residual_error(&a, &eig.values, &v);
    let orth = orthogonality_error(&v);
    assert!(res < 1e-13, "pipeline residual {res:e}");
    assert!(orth < 1e-13, "pipeline orthogonality {orth:e}");
    let mut want = spectrum;
    want.sort_by(|a, b| a.partial_cmp(b).unwrap());
    for (got, want) in eig.values.iter().zip(&want) {
        assert!((got - want).abs() < 1e-10, "{got} vs {want}");
    }
}

#[test]
fn large_min_part_and_tiny_min_part_agree() {
    let t = MT::Type3.generate(100, 12);
    let big = TaskFlowDc::new(DcOptions {
        min_part: 100,
        nb: 16,
        threads: 2,
        use_gatherv: true,
        mode: SolveMode::Full,
    })
    .solve(&t)
    .unwrap();
    let small = TaskFlowDc::new(DcOptions {
        min_part: 4,
        nb: 16,
        threads: 2,
        use_gatherv: true,
        mode: SolveMode::Full,
    })
    .solve(&t)
    .unwrap();
    for (a, b) in big.values.iter().zip(&small.values) {
        assert!((a - b).abs() < 1e-11);
    }
}

#[test]
fn glued_wilkinson_all_solvers() {
    let t = dcst::tridiag::gen::glued_wilkinson(11, 4, 1e-10);
    let eig = TaskFlowDc::new(opts(2)).solve(&t).unwrap();
    check_decomposition(&t, &eig.values, &eig.vectors, 1e-12, "taskflow/glued");
    let (lam, v) = MrrrSolver::new(&Runtime::new(2)).solve(&t).unwrap();
    check_decomposition(&t, &lam, &v, 1e-8, "mrrr/glued");
    assert_same_values(&eig.values, &lam, t.max_norm(), "glued wilkinson");
}

#[test]
fn application_suite_through_taskflow() {
    for app in dcst::tridiag::gen::application_suite(&[60, 90]) {
        let eig = TaskFlowDc::new(opts(2)).solve(&app.matrix).unwrap();
        check_decomposition(&app.matrix, &eig.values, &eig.vectors, 1e-11, &app.name);
    }
}

/// One merge graph, four scheduling disciplines: whatever the execution
/// shape, every driver runs the same kernels on the same operands in the
/// same per-merge order, so their eigenvalues agree to the last bit — in
/// every solve mode. QR iteration, which shares none of that code, is the
/// independent reference for what the bits should be close to.
#[test]
fn disciplines_are_bit_identical() {
    let n = 150;
    let modes = [
        ("full", SolveMode::Full),
        ("values", SolveMode::ValuesOnly),
        // 16·k > n: the graph runs with the root merge pruned.
        ("subset-pruned", SolveMode::Subset { il: 40, iu: 99 }),
        // 16·k ≤ n: the MRRR fallback task.
        ("subset-mrrr", SolveMode::Subset { il: 70, iu: 75 }),
    ];
    for ty in MT::ALL {
        let t = ty.generate(n, 42);
        let scale = t.max_norm().max(1.0);
        let reference = QrIteration.solve(&t).expect("qr").0;
        for (mode_name, mode) in modes {
            let want = match mode {
                SolveMode::Subset { il, iu } => &reference[il..=iu],
                _ => &reference[..],
            };
            for threads in [1, 2] {
                let o = DcOptions {
                    min_part: 10,
                    nb: 8,
                    threads,
                    mode,
                    ..DcOptions::default()
                };
                let drivers: [Box<dyn TridiagEigensolver>; 4] = [
                    Box::new(TaskFlowDc::new(o)),
                    Box::new(SequentialDc::new(o)),
                    Box::new(ForkJoinDc::new(o)),
                    Box::new(LevelParallelDc::new(o)),
                ];
                let who = |d: &dyn TridiagEigensolver| {
                    format!("{} type {} {mode_name} T={threads}", d.name(), ty.index())
                };
                let eigs: Vec<Eigen> = drivers
                    .iter()
                    .map(|d| {
                        d.solve(&t)
                            .unwrap_or_else(|e| panic!("{}: {e}", who(d.as_ref())))
                    })
                    .collect();
                for (d, eig) in drivers.iter().zip(&eigs) {
                    assert_same_values(want, &eig.values, scale, &who(d.as_ref()));
                    for (i, (a, b)) in eigs[0].values.iter().zip(&eig.values).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{} vs taskflow: eigenvalue {i}: {b:e} vs {a:e}",
                            who(d.as_ref())
                        );
                    }
                    let same_vectors = eigs[0]
                        .vectors
                        .as_slice()
                        .iter()
                        .zip(eig.vectors.as_slice())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(same_vectors, "{} vs taskflow: vectors", who(d.as_ref()));
                }
            }
        }
    }
}
