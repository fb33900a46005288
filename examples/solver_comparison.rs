//! Compare every tridiagonal eigensolver in the workspace on one matrix:
//! the four D&C variants (sequential / fork-join / level-parallel /
//! task-flow) plus MRRR and plain QR iteration, with timing and the
//! paper's two accuracy metrics.
//!
//! ```text
//! cargo run --release --example solver_comparison -- 4 800
//! #                                                  ^type ^size
//! ```

use dcst::prelude::*;
use dcst::tridiag::MatrixType as MT;
use std::time::Instant;

fn report(name: &str, secs: f64, t: &SymTridiag, lam: &[f64], v: &dcst::matrix::Matrix) {
    let orth = orthogonality_error(v);
    let resid = residual_error(t.n(), |x, y| t.matvec(x, y), lam, v, t.max_norm());
    println!(
        "{name:<18} {:>9.1}ms   orth {orth:.2e}   resid {resid:.2e}",
        secs * 1e3
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    let ty =
        MT::from_index(args.next().and_then(|s| s.parse().ok()).unwrap_or(4)).expect("type 1..15");
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(800);
    let threads = dcst::runtime::cpu_count();
    let t = ty.generate(n, 5);
    println!(
        "matrix: type {} ({}), n = {n}, {threads} threads\n",
        ty.index(),
        ty.description()
    );

    let opts = DcOptions {
        threads,
        ..DcOptions::default()
    };
    let dcs: Vec<(&str, Box<dyn TridiagEigensolver>)> = vec![
        (
            "dc-sequential",
            Box::new(SequentialDc::new(DcOptions { threads: 1, ..opts })),
        ),
        ("dc-forkjoin", Box::new(ForkJoinDc::new(opts))),
        ("dc-levelparallel", Box::new(LevelParallelDc::new(opts))),
        ("dc-taskflow", Box::new(TaskFlowDc::new(opts))),
    ];
    for (name, solver) in &dcs {
        let start = Instant::now();
        let eig = solver.solve(&t).expect("solve failed");
        report(
            name,
            start.elapsed().as_secs_f64(),
            &t,
            &eig.values,
            &eig.vectors,
        );
    }

    let rt = Runtime::new(threads);
    let mrrr = MrrrSolver::new(&rt);
    let start = Instant::now();
    let (lam, v) = mrrr.solve(&t).expect("mrrr failed");
    report("mrrr", start.elapsed().as_secs_f64(), &t, &lam, &v);

    if n <= 1200 {
        let start = Instant::now();
        let (lam, v) = QrIteration.solve(&t).expect("qr failed");
        report("qr-iteration", start.elapsed().as_secs_f64(), &t, &lam, &v);
    }
}
