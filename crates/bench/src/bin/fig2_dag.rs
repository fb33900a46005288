//! Figure 2: the task DAG of the D&C tridiagonal eigensolver.
//!
//! Reproduces the paper's configuration — a problem of size 1000 with a
//! minimal partition size of 300 (four leaves of 250) and a panel size of
//! 500 — and writes the traced task graph in Graphviz DOT to stdout;
//! summary statistics go to stderr.
//!
//! ```text
//! cargo run --release -p dcst-bench --bin fig2_dag > dag.dot
//! dot -Tsvg dag.dot -o dag.svg
//! ```

use dcst_bench::Args;
use dcst_core::{DcOptions, SolveMode, TaskFlowDc};
use dcst_tridiag::gen::MatrixType;

fn main() {
    let args = Args::parse();
    let n = args.usize_or("--n", 1000);
    let min_part = args.usize_or("--min-part", 300);
    let nb = args.usize_or("--nb", 500);

    let t = MatrixType::Type4.generate(n, 7);
    let solver = TaskFlowDc::new(DcOptions {
        min_part,
        nb,
        threads: 2,
        use_gatherv: true,
        mode: SolveMode::Full,
    });
    let (_, _, dag, _) = solver.solve_observed(&t).expect("solve failed");

    eprintln!(
        "DAG for n = {n}, min_part = {min_part}, nb = {nb}: {} tasks, {} edges, critical path {} tasks",
        dag.records.len(),
        dag.edges.len(),
        dag.critical_path_len()
    );
    println!("{}", dag.to_dot());
}
