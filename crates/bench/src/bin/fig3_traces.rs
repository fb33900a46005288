//! Figures 3 and 4: execution traces of the task-flow solver.
//!
//! The paper shows three optimization stages on a type-4 matrix (few
//! deflations — Figure 3) and one trace on a type-5 matrix (~100 %
//! deflation — Figure 4). Here the stages are reproduced as solver
//! configurations:
//!
//! * (a) "multithreaded vector update only": one panel per merge
//!   (`nb = n`), so only the tree's task parallelism exists — GEMMs are
//!   effectively the only overlappable work, like LAPACK+threaded BLAS;
//! * (b) "+ multithreaded merge operations": panel width `nb` default, but
//!   a single-leaf tree (`min_part = n/2`) so merges cannot overlap;
//! * (c) "full task flow": panels and tree overlap both enabled.
//!
//! Each stage prints makespan, idle fraction, a per-kernel breakdown, and
//! an ASCII timeline (one row per worker). `--json <prefix>` additionally
//! dumps the raw trace records, `--svg <prefix>` renders the colored
//! timeline figures (the paper's actual Fig. 3/4 visualization), and
//! `--chrome <prefix>` writes Chrome trace-event files (open in
//! `chrome://tracing` or Perfetto for the interactive version with
//! dependency-edge flow arrows).
//!
//! ```text
//! cargo run --release -p dcst-bench --bin fig3_traces -- --n 2000
//! cargo run --release -p dcst-bench --bin fig3_traces -- --matrix-type 5   # Figure 4
//! ```

use dcst_bench::{fmt_s, Args};
use dcst_core::{DcOptions, SolveMode, TaskFlowDc};
use dcst_tridiag::gen::MatrixType;

fn main() {
    let args = Args::parse();
    let n = args.usize_or("--n", 1500);
    let ty = MatrixType::from_index(args.usize_or("--matrix-type", 4)).expect("matrix type 1..15");
    let threads = args.usize_or("--threads", dcst_bench::max_threads());
    let t = ty.generate(n, 11);

    let stages: [(&str, DcOptions); 3] = [
        (
            "(a) multithreaded update only (nb = n)",
            DcOptions {
                min_part: 64,
                nb: n,
                threads,
                use_gatherv: true,
                mode: SolveMode::Full,
            },
        ),
        (
            "(b) + parallel merge kernels (single branch)",
            DcOptions {
                min_part: n / 2,
                nb: 64,
                threads,
                use_gatherv: true,
                mode: SolveMode::Full,
            },
        ),
        (
            "(c) full task flow (panels + tree overlap)",
            DcOptions {
                min_part: 64,
                nb: 64,
                threads,
                use_gatherv: true,
                mode: SolveMode::Full,
            },
        ),
    ];

    println!(
        "Execution traces — type {} matrix, n = {n}, {threads} threads (paper Fig. {}):\n",
        ty.index(),
        if ty.index() == 5 { 4 } else { 3 }
    );
    for (label, opts) in stages {
        let solver = TaskFlowDc::new(opts);
        let (_, stats, trace) = solver
            .solve_traced(&t)
            .unwrap_or_else(|e| panic!("stage '{label}' failed: {e}"));
        println!("--- {label}");
        println!(
            "    makespan {}   busy {}   idle {:.1}%   overall deflation {:.0}%",
            fmt_s(trace.makespan_us() as f64 * 1e-6),
            fmt_s(trace.busy_us() as f64 * 1e-6),
            100.0 * trace.idle_fraction(),
            100.0 * stats.overall_deflation(),
        );
        let kstats = trace.kernel_stats();
        let total: u64 = kstats.iter().map(|k| k.total_us).sum();
        let breakdown: Vec<String> = kstats
            .iter()
            .take(5)
            .map(|k| {
                format!(
                    "{} {:.0}%",
                    k.name,
                    100.0 * k.total_us as f64 / total.max(1) as f64
                )
            })
            .collect();
        println!("    top kernels: {}", breakdown.join(", "));
        println!("{}\n", trace.ascii_timeline(100));
        if let Some(path) = args.value("--json") {
            let file = format!("{path}.{}.json", label.chars().nth(1).unwrap());
            std::fs::write(&file, trace.to_json()).expect("write trace json");
            println!("    raw trace written to {file}\n");
        }
        if let Some(path) = args.value("--svg") {
            let file = format!("{path}.{}.svg", label.chars().nth(1).unwrap());
            std::fs::write(&file, trace.to_svg(1200, 24)).expect("write trace svg");
            println!("    svg timeline written to {file}\n");
        }
        if let Some(path) = args.value("--chrome") {
            let file = format!("{path}.{}.trace.json", label.chars().nth(1).unwrap());
            std::fs::write(&file, trace.to_chrome_json()).expect("write chrome trace");
            println!(
                "    chrome trace written to {file} ({} tasks, {} edges)\n",
                trace.records.len(),
                trace.edges.len()
            );
        }
    }
}
