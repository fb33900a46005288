//! Table I: operation costs of the merge steps (and Figure 1's tree).
//!
//! Runs the task-flow solver on a low-deflation matrix and prints the
//! paper's cost model instantiated per merge (the columns of Table I) next
//! to the measured per-kernel totals of the execution trace; with `--tree`
//! also prints the merge tree of Figure 1. The merge-bucket timings, the
//! dense-vs-structured update ratio and the secular kernel costs are the
//! `secular.*`, `core.copy_busy_ms` and `matrix.*` metrics of
//! `dcst-bench run` (`BENCHMARK.json`), not this program's.
//!
//! ```text
//! cargo run --release -p dcst-bench --bin table1_merge_costs -- --n 1000 --tree
//! ```

use dcst_bench::{Args, Table};
use dcst_core::{merge_cost_model, DcOptions, PartitionTree, SolveMode, TaskFlowDc};
use dcst_tridiag::gen::MatrixType;

fn main() {
    let args = Args::parse();
    let n = args.usize_or("--n", 1000);
    let min_part = args.usize_or("--min-part", 300);
    let nb = args.usize_or("--nb", 128);
    let threads = args.usize_or("--threads", dcst_bench::max_threads());

    if args.flag("--tree") {
        let tree = PartitionTree::build(n, min_part);
        println!("Figure 1 — merge tree for n = {n}, minimal partition {min_part}:");
        for (h, level) in tree.merge_levels().iter().enumerate() {
            let descr: Vec<String> = level
                .iter()
                .map(|&m| {
                    let node = &tree.nodes[m];
                    format!(
                        "[{}..{}) = {}+{}",
                        node.off,
                        node.off + node.n,
                        node.n1,
                        node.n - node.n1
                    )
                })
                .collect();
            println!(
                "  level {} ({} merges): {}",
                h + 1,
                level.len(),
                descr.join("  ")
            );
        }
        println!();
    }

    // Low deflation (type 4) exercises every step of the model.
    let t = MatrixType::Type4.generate(n, 42);
    let solver = TaskFlowDc::new(DcOptions {
        min_part,
        nb,
        threads,
        use_gatherv: true,
        mode: SolveMode::Full,
    });
    let (_, stats, trace) = solver.solve_traced(&t).expect("solve failed");

    println!("Table I — merge-step cost model (type 4 matrix, n = {n}):");
    let mut table = Table::new(&[
        "merge n",
        "k (non-defl)",
        "deflation",
        "permute",
        "secular",
        "stabilize",
        "copy-back",
        "compute X",
        "update V=VX",
        "total",
    ]);
    for stat in &stats.merges {
        let c = merge_cost_model(stat);
        table.row(vec![
            stat.n.to_string(),
            stat.k.to_string(),
            format!("{:.0}%", 100.0 * stat.deflation_ratio()),
            c.permute.to_string(),
            c.secular.to_string(),
            c.stabilize.to_string(),
            c.copy_back.to_string(),
            c.compute_vect.to_string(),
            c.update_vect.to_string(),
            c.total().to_string(),
        ]);
    }
    table.print();

    println!("\nMeasured kernel totals (execution trace, {threads} threads):");
    let mut meas = Table::new(&["kernel", "tasks", "total time (us)", "share"]);
    let kstats = trace.kernel_stats();
    let total: u64 = kstats.iter().map(|k| k.total_us).sum();
    for k in &kstats {
        meas.row(vec![
            k.name.to_string(),
            k.count.to_string(),
            k.total_us.to_string(),
            format!("{:.1}%", 100.0 * k.total_us as f64 / total.max(1) as f64),
        ]);
    }
    meas.print();
}
