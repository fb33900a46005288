//! Shared helpers for the figure/table regenerators in `src/bin/`, which
//! rewrite `results/*.txt` in the shape of the paper's evaluation. They time
//! one cold solve per cell and are read for who-wins shapes only: every
//! performance number the repository quotes comes from `dcst-bench run`
//! (`benchmark/`, `BENCHMARK.json`), which imports [`sched::storm`] and
//! [`max_threads`] from here.

pub mod sched;

use dcst_core::{DcOptions, DcStats, Eigen, TaskFlowDc, TridiagEigensolver};
use dcst_mrrr::MrrrSolver;
use dcst_runtime::Runtime;
use dcst_tridiag::SymTridiag;
use std::time::Instant;

/// Simple `--key value` / `--flag` argument access.
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    pub fn parse() -> Self {
        Args {
            raw: std::env::args().skip(1).collect(),
        }
    }

    pub fn flag(&self, name: &str) -> bool {
        self.raw.iter().any(|a| a == name)
    }

    pub fn value(&self, name: &str) -> Option<&str> {
        self.raw
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.raw.get(i + 1))
            .map(|s| s.as_str())
    }

    /// `name`'s value, or `default` without the flag; exits 2, naming the
    /// flag, when it is present with a missing or unparsable value.
    pub fn usize_or(&self, name: &str, default: usize) -> usize {
        self.try_usize(name, default).unwrap_or_else(|e| usage(&e))
    }

    /// Comma-separated size list, e.g. `--sizes 512,1024,2048`, or
    /// `default` without the flag; exits 2 on a malformed list.
    pub fn sizes_or(&self, default: &[usize]) -> Vec<usize> {
        self.try_sizes(default).unwrap_or_else(|e| usage(&e))
    }

    /// `name`'s value when the flag is given. A flag given without a
    /// value, or with one that does not parse, is an error naming it:
    /// running on the default instead would regenerate a figure for the
    /// wrong input without saying so.
    fn given(&self, name: &str) -> Result<Option<&str>, String> {
        match self.value(name) {
            None if self.flag(name) => Err(format!("{name} needs a value")),
            value => Ok(value),
        }
    }

    fn try_usize(&self, name: &str, default: usize) -> Result<usize, String> {
        let Some(v) = self.given(name)? else {
            return Ok(default);
        };
        v.parse()
            .map_err(|_| format!("{name} wants a non-negative integer, got '{v}'"))
    }

    /// The `--sizes` list, or `default` without the flag; every entry must
    /// parse.
    fn try_sizes(&self, default: &[usize]) -> Result<Vec<usize>, String> {
        let Some(v) = self.given("--sizes")? else {
            return Ok(default.to_vec());
        };
        let size = |s: &str| {
            let s = s.trim();
            s.parse()
                .map_err(|_| format!("--sizes wants non-negative integers, got '{s}'"))
        };
        v.split(',').map(size).collect()
    }
}

/// A usage error: the message on stderr and exit status 2, as `dcst`'s.
fn usage(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

/// Number of hardware threads available.
pub fn max_threads() -> usize {
    dcst_runtime::cpu_count()
}

/// Default options at a given thread count.
pub fn opts(threads: usize) -> DcOptions {
    DcOptions {
        threads,
        ..DcOptions::default()
    }
}

/// Wall-clock one solve, returning seconds and the result.
pub fn time_solve<S: TridiagEigensolver + ?Sized>(solver: &S, t: &SymTridiag) -> (f64, Eigen) {
    let start = Instant::now();
    let eig = solver
        .solve(t)
        .unwrap_or_else(|e| panic!("{} failed: {e}", solver.name()));
    (start.elapsed().as_secs_f64(), eig)
}

/// Wall-clock the task-flow solver with statistics.
pub fn time_taskflow(threads: usize, t: &SymTridiag) -> (f64, Eigen, DcStats) {
    let solver = TaskFlowDc::new(opts(threads));
    let start = Instant::now();
    let (eig, stats) = solver.solve_with_stats(t).expect("taskflow solve failed");
    (start.elapsed().as_secs_f64(), eig, stats)
}

/// Wall-clock the MRRR solver.
pub fn time_mrrr(threads: usize, t: &SymTridiag) -> (f64, Vec<f64>, dcst_matrix::Matrix) {
    let rt = Runtime::new(threads);
    let solver = MrrrSolver::new(&rt);
    let start = Instant::now();
    let (lam, v) = solver.solve(t).expect("mrrr solve failed");
    (start.elapsed().as_secs_f64(), lam, v)
}

/// Accuracy metrics `(orthogonality, residual)` of a decomposition of `t`.
pub fn accuracy(t: &SymTridiag, values: &[f64], vectors: &dcst_matrix::Matrix) -> (f64, f64) {
    let orth = dcst_matrix::orthogonality_error(vectors);
    let res =
        dcst_matrix::residual_error(t.n(), |x, y| t.matvec(x, y), values, vectors, t.max_norm());
    (orth, res)
}

/// Markdown-style table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: vec![],
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let body: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            println!("| {} |", body.join(" | "));
        };
        line(&self.headers);
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        println!("|-{}-|", sep.join("-|-"));
        for row in &self.rows {
            line(row);
        }
    }
}

/// Format seconds compactly.
pub fn fmt_s(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{s:.3}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_prints_aligned() {
        let mut t = Table::new(&["a", "bbbb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.print(); // smoke test: no panic
    }

    fn args(raw: &[&str]) -> Args {
        Args {
            raw: raw.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn usize_flags_parse_or_name_the_flag() {
        assert_eq!(args(&[]).try_usize("--threads", 3), Ok(3));
        assert_eq!(args(&["--threads", "2"]).try_usize("--threads", 3), Ok(2));
        assert_eq!(
            args(&["--threads", "abc"]).try_usize("--threads", 3),
            Err("--threads wants a non-negative integer, got 'abc'".to_string())
        );
        assert_eq!(
            args(&["--n", "1000", "--threads"]).try_usize("--threads", 3),
            Err("--threads needs a value".to_string())
        );
    }

    #[test]
    fn size_lists_parse_every_entry() {
        assert_eq!(args(&[]).try_sizes(&[512]), Ok(vec![512]));
        let sizes = args(&["--sizes", "512, 1024,2048"]).try_sizes(&[1]);
        assert_eq!(sizes, Ok(vec![512, 1024, 2048]));
        assert_eq!(
            args(&["--sizes", "512,1O24"]).try_sizes(&[1]),
            Err("--sizes wants non-negative integers, got '1O24'".to_string())
        );
        assert_eq!(
            args(&["--sizes", "512,"]).try_sizes(&[1]),
            Err("--sizes wants non-negative integers, got ''".to_string())
        );
        assert_eq!(
            args(&["--sizes"]).try_sizes(&[1]),
            Err("--sizes needs a value".to_string())
        );
    }

    #[test]
    fn fmt_scales() {
        assert!(fmt_s(0.5e-4).ends_with("us"));
        assert!(fmt_s(0.5).ends_with("ms"));
        assert!(fmt_s(2.0).ends_with('s'));
    }
}
