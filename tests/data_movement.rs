//! The vector payload moves O(n·k) elements per merge, not O(n²), and
//! every mode solves each secular root once: exact counts of the
//! `copy.elems` and `secular.root_solves` counters.
//!
//! The counter registry is process-global, so exact deltas need a process
//! with no other solve in it: this file holds a single `#[test]`.

use dcst::core::DcStats;
use dcst::matrix::metrics;
use dcst::prelude::*;

type Solve = fn(DcOptions, &SymTridiag) -> (Eigen, DcStats);

const DISCIPLINES: [(&str, Solve); 4] = [
    ("taskflow", |o, t| {
        TaskFlowDc::new(o).solve_with_stats(t).unwrap()
    }),
    ("sequential", |o, t| {
        SequentialDc::new(o).solve_with_stats(t).unwrap()
    }),
    ("forkjoin", |o, t| {
        ForkJoinDc::new(o).solve_with_stats(t).unwrap()
    }),
    ("levelparallel", |o, t| {
        LevelParallelDc::new(o).solve_with_stats(t).unwrap()
    }),
];

/// Solve and return the merge statistics with the solve's delta of `counter`.
fn counted(solve: Solve, mode: SolveMode, t: &SymTridiag, counter: &str) -> (DcStats, u64) {
    let opts = DcOptions {
        threads: 2,
        mode,
        ..DcOptions::default()
    };
    let before = metrics::snapshot();
    let (_, stats) = solve(opts, t);
    let count = metrics::snapshot().delta(&before).get(counter);
    (stats, count)
}

/// Solve and return the merge statistics with the elements the solve copied.
fn copied(solve: Solve, mode: SolveMode, t: &SymTridiag) -> (DcStats, u64) {
    counted(solve, mode, t, "copy.elems")
}

#[test]
fn copies_are_proportional_to_k() {
    let _q = dcst::matrix::failpoints::quiet();
    let n = 512;
    let sq = (n * n) as u64;

    // Type 2 deflates completely: no merge gathers or scatters a column, so
    // a full solve moves the root sort's n² and a subset solve only its own
    // columns (16·k > n keeps it off the MRRR fallback).
    let t = MatrixType::Type2.generate(n, 3);
    let (il, iu) = (100, 299);
    for (name, solve) in DISCIPLINES {
        let (stats, moved) = copied(solve, SolveMode::Full, &t);
        assert!(stats.merges.iter().all(|m| m.k == 0), "{name}: k = 0");
        assert_eq!(moved, sq, "{name}: full solve moves the sort only");
        let (_, moved) = copied(solve, SolveMode::Subset { il, iu }, &t);
        assert_eq!(moved, (n * (iu - il + 1)) as u64, "{name}: subset gather");
    }

    // With deflation partial, a merge scatters n_m·k_m elements and gathers
    // at most as many (Top/Bottom slots carry half-height columns).
    for ty in [MatrixType::Type3, MatrixType::Type4, MatrixType::Type5] {
        let (stats, moved) = copied(DISCIPLINES[0].1, SolveMode::Full, &ty.generate(n, 3));
        let scattered: u64 = stats.merges.iter().map(|m| (m.n * m.k) as u64).sum();
        assert!(scattered > 0, "{ty:?} does not deflate completely");
        assert!(
            (scattered + sq..=2 * scattered + sq).contains(&moved),
            "{ty:?}: moved {moved}, scatter {scattered}, sort {sq}"
        );
    }

    // One solve per secular root, whatever the mode: a values-only solve of
    // a partially deflating matrix runs the root finder Σ k_m times — the
    // non-root merges' row updates rebuild their deltas from the stored
    // (μ, origin) instead of solving again — which on this matrix is also
    // what the full solve runs.
    let t = MatrixType::Type4.generate(n, 3);
    let secular = |stats: &DcStats| stats.merges.iter().map(|m| m.k as u64).sum::<u64>();
    let (full_stats, full_solves) =
        counted(DISCIPLINES[0].1, SolveMode::Full, &t, "secular.root_solves");
    assert!(secular(&full_stats) > 0, "type 4 keeps secular work");
    assert_eq!(full_solves, secular(&full_stats), "full solve");
    for (name, solve) in DISCIPLINES {
        let (stats, solves) = counted(solve, SolveMode::ValuesOnly, &t, "secular.root_solves");
        let deflated = stats.merges.iter().any(|m| m.k < m.n);
        assert!(deflated, "{name}: type 4 deflates partially");
        assert_eq!(solves, secular(&stats), "{name}: one solve per root");
        assert_eq!(
            solves, full_solves,
            "{name}: values-only solves what full does"
        );
    }
}
