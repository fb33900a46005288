//! Subset computation (the paper's Section I: MRRR's main asset is the
//! Θ(n·k) subset solve, "such an option was not included within the
//! classical D&C implementations").
//!
//! Times MRRR computing k of n eigenpairs against both the full MRRR
//! solve and the full task-flow D&C solve: the crossover shows when the
//! subset capability makes MRRR the right choice even where full-spectrum
//! D&C wins.
//!
//! ```text
//! cargo run --release -p dcst-bench --bin subset -- --n 1024
//! ```

use dcst_bench::{fmt_s, time_taskflow, Args, Table};
use dcst_mrrr::MrrrSolver;
use dcst_runtime::Runtime;
use dcst_tridiag::gen::MatrixType;
use std::time::Instant;

fn main() {
    let args = Args::parse();
    let n = args.usize_or("--n", 1024);
    let threads = args.usize_or("--threads", dcst_bench::max_threads());
    let t = MatrixType::Type4.generate(n, 55);
    let rt = Runtime::new(threads);
    let mrrr = MrrrSolver::new(&rt);

    let start = Instant::now();
    let _ = mrrr.solve(&t).expect("full mrrr");
    let t_full_mrrr = start.elapsed().as_secs_f64();
    let (t_dc, _, _) = time_taskflow(threads, &t);

    println!(
        "type 4 matrix, n = {n}: full MRRR {} | full task-flow D&C {}\n",
        fmt_s(t_full_mrrr),
        fmt_s(t_dc)
    );
    let mut table = Table::new(&[
        "k (subset size)",
        "t_mrrr(k of n)",
        "vs full MRRR",
        "vs full D&C",
    ]);
    for frac in [1usize, 5, 10, 25, 50] {
        let k = (n * frac / 100).max(1);
        let start = Instant::now();
        let (vals, vecs) = mrrr.solve_range_exact(&t, 0, k - 1).expect("subset mrrr");
        let tk = start.elapsed().as_secs_f64();
        assert!(vals.len() == k && vecs.cols() == k);
        table.row(vec![
            format!("{k} ({frac}%)"),
            fmt_s(tk),
            format!("{:.1}x faster", t_full_mrrr / tk),
            format!("{:.1}x vs D&C", t_dc / tk),
        ]);
    }
    table.print();
}
