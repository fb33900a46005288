//! Figures 6–8: the task-flow solver against one of the paper's three
//! comparators, chosen with `--against`:
//!
//! * `lapack` (Figure 6) — [`ForkJoinDc`], the "LAPACK + threaded BLAS"
//!   model of MKL `dstedc`: a sequential D&C driver in which only the
//!   eigenvector-update GEMMs are multithreaded. The paper reports 4–6×
//!   for high-deflation matrices and smaller factors when GEMM dominates.
//! * `scalapack` (Figure 7) — [`LevelParallelDc`], the structure of MKL
//!   `pdstedc`: the subproblems of one tree level solved concurrently, a
//!   full barrier between levels. The paper reports ~2× for ≥20 %
//!   deflation rising to ~4× near 100 % — smaller than Figure 6 because
//!   the comparator already parallelizes the tree.
//! * `mrrr` (Figure 8) — MR³ over all fifteen Table III types. The paper
//!   finds D&C ahead on most types (up to 25×, driven by deflation) and
//!   MRRR ahead on a few well-separated spectra (at most ~2×).
//!
//! The shape (higher deflation ⇒ larger win; matrix-dependent winner
//! against MRRR) is the reproduced quantity.
//!
//! ```text
//! cargo run --release -p dcst-bench --bin fig6_8_comparators -- --against lapack > results/fig6.txt
//! cargo run --release -p dcst-bench --bin fig6_8_comparators -- --against scalapack > results/fig7.txt
//! cargo run --release -p dcst-bench --bin fig6_8_comparators -- --against mrrr > results/fig8.txt
//! ```

use dcst_bench::{fmt_s, opts, time_mrrr, time_solve, time_taskflow, Args, Table};
use dcst_core::{ForkJoinDc, LevelParallelDc};
use dcst_tridiag::gen::MatrixType;
use dcst_tridiag::SymTridiag;

const DEFLATION_LADDER: [MatrixType; 3] = [MatrixType::Type2, MatrixType::Type3, MatrixType::Type4];

fn main() {
    let args = Args::parse();
    let threads = args.usize_or("--threads", dcst_bench::max_threads());
    let against = args.value("--against");
    let vs_mrrr = against == Some("mrrr");
    // Per comparator: its time column, generator seed, matrix types, default
    // sizes and how to time it.
    type TimeFn = Box<dyn Fn(&SymTridiag) -> f64>;
    let (column, seed, types, sizes, time_other): (_, _, &[MatrixType], &[usize], TimeFn) =
        match against {
            Some("lapack") => (
                "t_forkjoin(MKL model)",
                101,
                &DEFLATION_LADDER,
                &[512, 1024, 2048],
                Box::new(move |t| time_solve(&ForkJoinDc::new(opts(threads)), t).0),
            ),
            Some("scalapack") => (
                "t_levelpar(ScaLAPACK model)",
                202,
                &DEFLATION_LADDER,
                &[512, 1024, 2048],
                Box::new(move |t| time_solve(&LevelParallelDc::new(opts(threads)), t).0),
            ),
            Some("mrrr") => (
                "t_mrrr",
                303,
                &MatrixType::ALL,
                &[512, 1024],
                Box::new(move |t| time_mrrr(threads, t).0),
            ),
            _ => {
                eprintln!("usage: fig6_8_comparators --against lapack|scalapack|mrrr [--sizes N,..] [--threads K]");
                std::process::exit(2);
            }
        };

    let mut table = if vs_mrrr {
        Table::new(&[
            "type",
            "n",
            "deflation",
            column,
            "t_dc",
            "t_mrrr/t_dc",
            "winner",
        ])
    } else {
        Table::new(&["type", "n", "deflation", column, "t_taskflow", "speedup"])
    };
    let sizes = args.sizes_or(sizes);
    for ty in types {
        for &n in &sizes {
            let t = ty.generate(n, seed);
            let t_other = time_other(&t);
            let (t_tf, _, stats) = time_taskflow(threads, &t);
            let ratio = t_other / t_tf;
            let mut row = vec![
                format!("type{}", ty.index()),
                n.to_string(),
                format!("{:.0}%", 100.0 * stats.overall_deflation()),
                fmt_s(t_other),
                fmt_s(t_tf),
            ];
            if vs_mrrr {
                row.push(format!("{ratio:.2}"));
                row.push(if ratio >= 1.0 { "D&C" } else { "MRRR" }.to_string());
            } else {
                row.push(format!("{ratio:.2}x"));
            }
            table.row(row);
        }
    }
    table.print();
}
