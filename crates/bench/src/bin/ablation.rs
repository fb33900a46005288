//! Ablation studies of the design choices DESIGN.md calls out:
//!
//! * panel width `nb` (task granularity — the paper's §IV tuning knob);
//! * minimal partition size (leaf size of the merge tree);
//! * the GATHERV qualifier against serialized (INOUT) panel tasks.
//!
//! ```text
//! cargo run --release -p dcst-bench --bin ablation -- --n 1500
//! ```

use dcst_bench::{fmt_s, Args, Table};
use dcst_core::{DcOptions, SolveMode, TaskFlowDc, TridiagEigensolver};
use dcst_tridiag::gen::MatrixType;
use std::time::Instant;

fn run(t: &dcst_tridiag::SymTridiag, opts: DcOptions) -> f64 {
    let solver = TaskFlowDc::new(opts);
    let start = Instant::now();
    solver.solve(t).expect("solve failed");
    start.elapsed().as_secs_f64()
}

fn main() {
    let args = Args::parse();
    let n = args.usize_or("--n", 1500);
    let threads = args.usize_or("--threads", dcst_bench::max_threads());
    let t = MatrixType::Type4.generate(n, 77);

    println!("Ablation on type 4 (low deflation), n = {n}, {threads} threads.\n");

    println!("Panel width nb (min_part = 64):");
    let mut tb = Table::new(&["nb", "time"]);
    for nb in [16, 32, 64, 128, 256, n] {
        let time = run(
            &t,
            DcOptions {
                min_part: 64,
                nb,
                threads,
                use_gatherv: true,
                mode: SolveMode::Full,
            },
        );
        tb.row(vec![nb.to_string(), fmt_s(time)]);
    }
    tb.print();

    println!("\nMinimal partition size (nb = 64):");
    let mut tb = Table::new(&["min_part", "leaves", "time"]);
    for mp in [16, 32, 64, 128, 300] {
        let leaves = dcst_core::PartitionTree::build(n, mp).leaves().len();
        let time = run(
            &t,
            DcOptions {
                min_part: mp,
                nb: 64,
                threads,
                use_gatherv: true,
                mode: SolveMode::Full,
            },
        );
        tb.row(vec![mp.to_string(), leaves.to_string(), fmt_s(time)]);
    }
    tb.print();

    println!("\nGATHERV qualifier (the paper's QUARK extension) vs serialized panels:");
    let mut tb = Table::new(&["panel dependency mode", "time"]);
    for (label, gatherv) in [("INOUT (serialized)", false), ("GATHERV (paper)", true)] {
        let time = run(
            &t,
            DcOptions {
                min_part: 64,
                nb: 64,
                threads,
                use_gatherv: gatherv,
                mode: SolveMode::Full,
            },
        );
        tb.row(vec![label.to_string(), fmt_s(time)]);
    }
    tb.print();

    // Sanity: every configuration yields the same spectrum.
    let base = TaskFlowDc::new(DcOptions {
        min_part: 64,
        nb: 64,
        threads,
        use_gatherv: true,
        mode: SolveMode::Full,
    })
    .solve(&t)
    .unwrap();
    let alt = TaskFlowDc::new(DcOptions {
        min_part: 300,
        nb: 16,
        threads,
        use_gatherv: true,
        mode: SolveMode::Full,
    })
    .solve(&t)
    .unwrap();
    let max_diff = base
        .values
        .iter()
        .zip(&alt.values)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("\nmax |lambda difference| across configurations: {max_diff:.2e}");
}
