//! Solver-behavior coverage beyond the unit tests: tree shapes, dynamic
//! deflation accounting, option interactions, DAG/trace invariants, error
//! surfaces.

use dcst_core::*;
use dcst_tridiag::gen::MatrixType;
use dcst_tridiag::SymTridiag;

fn opts(min_part: usize, nb: usize, threads: usize) -> DcOptions {
    DcOptions {
        min_part,
        nb,
        threads,
        use_gatherv: true,
        mode: SolveMode::Full,
    }
}

fn spectrum_close(a: &[f64], b: &[f64], tol: f64) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert!((x - y).abs() < tol, "{x} vs {y}");
    }
}

#[test]
fn odd_sizes_and_prime_sizes() {
    for n in [2usize, 3, 5, 7, 31, 97, 101] {
        let t = MatrixType::Type6.generate(n, n as u64);
        let eig = TaskFlowDc::new(opts(4, 4, 2)).solve(&t).unwrap();
        assert_eq!(eig.values.len(), n);
        let r = dcst_matrix::residual_error(
            n,
            |x, y| t.matvec(x, y),
            &eig.values,
            &eig.vectors,
            t.max_norm(),
        );
        assert!(r < 1e-12, "n = {n}: {r}");
    }
}

#[test]
fn all_four_variants_identical_spectra() {
    let t = MatrixType::Type5.generate(90, 4);
    let o = opts(16, 8, 2);
    let a = SequentialDc::new(DcOptions { threads: 1, ..o })
        .solve(&t)
        .unwrap();
    let b = ForkJoinDc::new(o).solve(&t).unwrap();
    let c = LevelParallelDc::new(o).solve(&t).unwrap();
    let d = TaskFlowDc::new(o).solve(&t).unwrap();
    spectrum_close(&a.values, &b.values, 1e-13);
    spectrum_close(&a.values, &c.values, 1e-13);
    spectrum_close(&a.values, &d.values, 1e-13);
}

#[test]
fn stats_sizes_sum_to_merge_tree() {
    let n = 120;
    let t = MatrixType::Type4.generate(n, 9);
    let o = opts(16, 16, 2);
    let (_, stats) = TaskFlowDc::new(o).solve_with_stats(&t).unwrap();
    let tree = PartitionTree::build(n, 16);
    assert_eq!(stats.merges.len(), tree.merges_postorder().len());
    // Each merge's n equals the corresponding node size.
    let mut node_sizes: Vec<usize> = tree
        .merges_postorder()
        .iter()
        .map(|&m| tree.nodes[m].n)
        .collect();
    let mut stat_sizes: Vec<usize> = stats.merges.iter().map(|s| s.n).collect();
    node_sizes.sort_unstable();
    stat_sizes.sort_unstable();
    assert_eq!(node_sizes, stat_sizes);
    // k never exceeds the merge size.
    assert!(stats.merges.iter().all(|s| s.k <= s.n));
}

#[test]
fn deflation_ordering_across_types() {
    // Deflation: type2 >= type3 >= type4 (the Figure 5/6/7 legend).
    let n = 200;
    let solver = TaskFlowDc::new(opts(25, 32, 2));
    let d2 = solver
        .solve_with_stats(&MatrixType::Type2.generate(n, 7))
        .unwrap()
        .1
        .overall_deflation();
    let d3 = solver
        .solve_with_stats(&MatrixType::Type3.generate(n, 7))
        .unwrap()
        .1
        .overall_deflation();
    let d4 = solver
        .solve_with_stats(&MatrixType::Type4.generate(n, 7))
        .unwrap()
        .1
        .overall_deflation();
    assert!(d2 > d3 + 0.2, "type2 {d2} vs type3 {d3}");
    assert!(d3 > d4, "type3 {d3} vs type4 {d4}");
}

#[test]
fn trace_busy_time_bounded_by_makespan_times_workers() {
    let t = MatrixType::Type3.generate(100, 3);
    let (_, _, trace, _) = TaskFlowDc::new(opts(16, 8, 2)).solve_observed(&t).unwrap();
    assert!(trace.busy_us() <= trace.makespan_us() * 2 + 1000);
    assert!(trace.idle_fraction() >= 0.0 && trace.idle_fraction() <= 1.0);
}

#[test]
fn dag_size_scales_with_panels() {
    let t = MatrixType::Type4.generate(64, 1);
    let solver_coarse = TaskFlowDc::new(opts(16, 64, 2));
    let solver_fine = TaskFlowDc::new(opts(16, 8, 2));
    let (_, _, coarse, _) = solver_coarse.solve_observed(&t).unwrap();
    let (_, _, fine, _) = solver_fine.solve_observed(&t).unwrap();
    assert!(
        fine.records.len() > coarse.records.len(),
        "finer panels ⇒ more tasks: {} vs {}",
        fine.records.len(),
        coarse.records.len()
    );
}

/// LAED4, steqr and GEMM counters move across one `TaskFlowDc` solve.
/// The registry is process-global and other tests add concurrently, so
/// assert presence, not equality.
#[test]
fn kernel_counters_move_across_a_solve() {
    let before = dcst_matrix::metrics::snapshot();
    let t = SymTridiag::toeplitz121(96);
    TaskFlowDc::new(opts(24, 16, 2)).solve(&t).unwrap();
    let d = dcst_matrix::metrics::snapshot().delta(&before);
    assert!(d.get("secular.root_solves") > 0, "LAED4 ran");
    assert!(d.get("secular.iters") >= d.get("secular.root_solves") / 2);
    assert!(d.get("steqr.sweeps") > 0, "leaf solver ran");
    assert!(d.get("gemm.calls") > 0, "UpdateVect ran");
    assert!(d.get("gemm.flops") >= d.get("gemm.calls"));
}

#[test]
fn cost_model_tracks_deflation() {
    let n = 128;
    let solver = TaskFlowDc::new(opts(16, 16, 1));
    let (_, s_hi) = solver
        .solve_with_stats(&MatrixType::Type2.generate(n, 3))
        .unwrap();
    let (_, s_lo) = solver
        .solve_with_stats(&MatrixType::Type4.generate(n, 3))
        .unwrap();
    let (hi_cost, hi_worst) = solve_cost_model(&s_hi.merges);
    let (lo_cost, lo_worst) = solve_cost_model(&s_lo.merges);
    assert_eq!(hi_worst, lo_worst, "same tree ⇒ same worst case");
    assert!(
        hi_cost * 4 < lo_cost,
        "deflation saves ops: {hi_cost} vs {lo_cost}"
    );
}

#[test]
fn identical_diagonal_matrix() {
    // All diagonal, all equal: everything deflates everywhere.
    let t = SymTridiag::new(vec![5.0; 40], vec![0.0; 39]);
    let (eig, stats) = TaskFlowDc::new(opts(8, 8, 2)).solve_with_stats(&t).unwrap();
    assert!(eig.values.iter().all(|&l| (l - 5.0).abs() < 1e-14));
    assert!(stats.overall_deflation() > 0.99);
    assert!(dcst_matrix::orthogonality_error(&eig.vectors) < 1e-15);
}

#[test]
fn negated_matrix_mirrors_spectrum() {
    let t = MatrixType::Type6.generate(70, 21);
    let neg = SymTridiag::new(t.d.iter().map(|x| -x).collect(), t.e.clone());
    let solver = TaskFlowDc::new(opts(16, 8, 2));
    let a = solver.solve(&t).unwrap();
    let b = solver.solve(&neg).unwrap();
    for (x, y) in a.values.iter().zip(b.values.iter().rev()) {
        assert!((x + y).abs() < 1e-11, "{x} vs {y}");
    }
}

#[test]
fn shift_invariance() {
    // T + cI shifts the spectrum by exactly c (D&C operates on scaled data).
    let t = MatrixType::Type6.generate(60, 2);
    let c = 37.5;
    let shifted = SymTridiag::new(t.d.iter().map(|x| x + c).collect(), t.e.clone());
    let solver = TaskFlowDc::new(opts(16, 8, 2));
    let a = solver.solve(&t).unwrap();
    let b = solver.solve(&shifted).unwrap();
    for (x, y) in a.values.iter().zip(&b.values) {
        assert!((x + c - y).abs() < 1e-10, "{x}+{c} vs {y}");
    }
}

#[test]
fn errors_render_helpfully() {
    let t = SymTridiag::new(vec![f64::INFINITY, 1.0], vec![0.5]);
    let err = TaskFlowDc::new(opts(4, 4, 1)).solve(&t).unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains("NaN") || msg.contains("infinite"), "{msg}");
}

#[test]
fn tiny_nb_and_threads_mismatch() {
    // nb = 1 (a task per column) still works, as does threads > n.
    let t = MatrixType::Type3.generate(24, 6);
    let eig = TaskFlowDc::new(opts(6, 1, 8)).solve(&t).unwrap();
    let reference = SequentialDc::new(opts(6, 1, 1)).solve(&t).unwrap();
    spectrum_close(&eig.values, &reference.values, 1e-12);
}
