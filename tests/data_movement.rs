//! The vector payload moves O(n·k) elements per merge and the root sort
//! only each column's row support, not O(n²), and every mode solves each
//! secular root once: exact counts of the `copy.elems` and
//! `secular.root_solves` counters.
//!
//! The counter registry is process-global, so exact deltas need a process
//! with no other solve in it: this file holds a single solving `#[test]`.
//! Its other test checks that a debug build watches every task borrow.

use dcst::core::DcStats;
use dcst::matrix::metrics;
use dcst::prelude::*;
use dcst::runtime::{DataKey, SharedData};

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

/// The sort writes a column over its support only, into a workspace the
/// merges gathered into: two type-4 halves glued so weakly that the root
/// deflates everything, each eigenvector living in one half — and landing,
/// sorted, on a workspace column that either half's merge may have dirtied
/// over its own rows.
fn sort_clears_what_the_children_gathered() {
    let half = 300;
    let (a, b) = (
        MatrixType::Type4.generate(half, 3),
        MatrixType::Type4.generate(half, 5),
    );
    let glue = 1e-20 * a.max_norm().max(b.max_norm());
    let d = [a.d, b.d].concat();
    let e = [a.e, vec![glue], b.e].concat();
    let t = SymTridiag::new(d, e);
    let n = t.n();

    let mut reference: Option<Eigen> = None;
    for (name, solve) in DISCIPLINES {
        for threads in [1, 2] {
            let opts = DcOptions {
                threads,
                ..DcOptions::default()
            };
            let (eig, stats) = solve(opts, &t);
            let root = stats.merges.last().unwrap();
            assert_eq!((root.n, root.k), (n, 0), "{name}: the root deflates");
            let children = stats.merges.iter().filter(|m| m.n == half);
            assert!(children.clone().count() == 2 && children.clone().all(|m| m.k > 0));

            // Every later result is compared with the first bit for bit,
            // so the first is the one to gate.
            let bits = |e: &Eigen| -> Vec<u64> {
                let all = e.values.iter().chain(e.vectors.as_slice());
                all.map(|x| x.to_bits()).collect()
            };
            let Some(first) = &reference else {
                let eps = f64::EPSILON;
                let orth = orthogonality_error(&eig.vectors) / eps;
                let (norm, mv) = (t.max_norm(), |x: &[f64], y: &mut [f64]| t.matvec(x, y));
                let res = residual_error(n, mv, &eig.values, &eig.vectors, norm) / eps;
                assert!(
                    orth < 50.0 && res < 50.0,
                    "{name}: {orth:.1} / {res:.1} eps"
                );
                // An eigenvector of one half is exactly zero over the other.
                for j in 0..n {
                    let (top, bottom) = eig.vectors.col(j).split_at(half);
                    let clean = |rows: &[f64]| rows.iter().all(|x| x.to_bits() == 0);
                    assert!(clean(top) || clean(bottom), "{name}: column {j}");
                }
                reference = Some(eig);
                continue;
            };
            assert!(bits(first) == bits(&eig), "{name} × {threads}");
        }
    }
}

#[test]
fn copies_are_proportional_to_k() {
    let _q = dcst::matrix::failpoints::quiet();
    let n = 512;
    let sq = (n * n) as u64;
    // n halves down to 16 leaves of min_part = 32 rows: Σ n_leaf².
    let leaf = DcOptions::default().min_part;
    let leaves_sq = (n * leaf) as u64;

    // Type 2 deflates completely: no merge gathers, scatters or rotates a
    // column, so every column still has its leaf's rows as its support — a
    // full solve moves Σ n_leaf² in the root sort and a subset solve only
    // its own columns' supports (16·k > n keeps it off the MRRR fallback).
    let t = MatrixType::Type2.generate(n, 3);
    let (il, iu) = (100, 299);
    for (name, solve) in DISCIPLINES {
        let (stats, moved) = copied(solve, SolveMode::Full, &t);
        assert!(stats.merges.iter().all(|m| m.k == 0), "{name}: k = 0");
        assert_eq!(moved, leaves_sq, "{name}: full solve moves the supports");
        let (_, moved) = copied(solve, SolveMode::Subset { il, iu }, &t);
        assert_eq!(
            moved,
            (leaf * (iu - il + 1)) as u64,
            "{name}: subset gather"
        );
    }

    // With deflation partial, a merge scatters n_m·k_m elements and gathers
    // at most as many (Top/Bottom slots carry half-height columns); the
    // sort moves at least a leaf's rows of every column and at most all.
    for ty in [MatrixType::Type3, MatrixType::Type4, MatrixType::Type5] {
        let (stats, moved) = copied(DISCIPLINES[0].1, SolveMode::Full, &ty.generate(n, 3));
        let scattered: u64 = stats.merges.iter().map(|m| (m.n * m.k) as u64).sum();
        assert!(scattered > 0, "{ty:?} does not deflate completely");
        assert!(
            (scattered + leaves_sq..=2 * scattered + sq).contains(&moved),
            "{ty:?}: moved {moved}, scatter {scattered}, sort {leaves_sq}..={sq}"
        );
    }

    sort_clears_what_the_children_gathered();

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

/// A debug build checks every task's declared footprint, so every plain
/// `cargo test` of the solver runs with the shadow tracker live: a task
/// that borrows a key-bound buffer it declared no access to fails its
/// scope. A release build compiles the check out. Solves nothing, so the
/// counters above stay exact.
#[test]
fn debug_builds_check_task_footprints() {
    let rt = Runtime::new(2);
    let scope = rt.scope();
    let buf = SharedData::new(vec![0.0f64; 8]);
    buf.bind_keys(&[DataKey::new(1, 0)]);
    let b = buf.clone();
    scope.task("Undeclared").spawn(move || {
        // SAFETY: the scope's only task, so no other borrow is live.
        unsafe { b.range_mut(0..8) }.fill(1.0);
    });
    assert_eq!(scope.wait().is_err(), cfg!(debug_assertions));
}
