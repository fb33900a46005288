//! Determinism and concurrency guarantees of the public API.

use dcst::prelude::*;

fn opts() -> DcOptions {
    DcOptions {
        min_part: 16,
        nb: 16,
        threads: 2,
        ..DcOptions::default()
    }
}

#[test]
fn taskflow_is_bitwise_deterministic_across_runs() {
    // Panel partials are combined in a fixed order, so the result must be
    // bitwise identical no matter how the scheduler interleaved the tasks.
    let _q = dcst::matrix::failpoints::quiet();
    let t = MatrixType::Type3.generate(100, 77);
    let solver = TaskFlowDc::new(opts());
    let a = solver.solve(&t).unwrap();
    for _ in 0..3 {
        let b = solver.solve(&t).unwrap();
        assert_eq!(a.values, b.values, "eigenvalues bitwise equal");
        assert_eq!(
            a.vectors.as_slice(),
            b.vectors.as_slice(),
            "vectors bitwise equal"
        );
    }
}

#[test]
fn taskflow_matches_sequential_bitwise() {
    // Same kernels, same order ⇒ the parallel schedule cannot change a
    // single bit relative to the one-thread run.
    let _q = dcst::matrix::failpoints::quiet();
    let t = MatrixType::Type6.generate(90, 13);
    let par = TaskFlowDc::new(opts()).solve(&t).unwrap();
    let one = TaskFlowDc::new(DcOptions {
        threads: 1,
        ..opts()
    })
    .solve(&t)
    .unwrap();
    assert_eq!(par.values, one.values);
    assert_eq!(par.vectors.as_slice(), one.vectors.as_slice());
}

/// The graph works on T scaled to unit max-norm, and a power-of-two factor
/// leaves that scaled matrix bit-identical: 2^±500·T gives exactly 2^±500
/// times T's eigenvalues and T's eigenvectors bit for bit — in every mode
/// that runs the merge graph, and on a single-leaf tree, which has no
/// merge. (The small-subset MRRR fallback is left out: its bisection has
/// absolute thresholds, so its results need not scale exactly.)
#[test]
fn power_of_two_scaling_is_exact_in_every_mode() {
    let _q = dcst::matrix::failpoints::quiet();
    let n = 120;
    let modes = [
        SolveMode::Full,
        SolveMode::ValuesOnly,
        // Wide enough (16·k > n) to run the pruned-root graph.
        SolveMode::Subset { il: 30, iu: 60 },
    ];
    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for ty in [MatrixType::Type4, MatrixType::Type2] {
        let t = ty.generate(n, 7);
        for factor in [2f64.powi(500), 2f64.powi(-500)] {
            let scaled = SymTridiag::new(
                t.d.iter().map(|x| x * factor).collect(),
                t.e.iter().map(|x| x * factor).collect(),
            );
            // min_part = n: one leaf, the whole matrix.
            for (mode, min_part) in modes.iter().flat_map(|&m| [(m, 16), (m, n)]) {
                let o = DcOptions {
                    mode,
                    min_part,
                    ..opts()
                };
                let solvers: [Box<dyn TridiagEigensolver>; 2] =
                    [Box::new(TaskFlowDc::new(o)), Box::new(SequentialDc::new(o))];
                for solver in &solvers {
                    let who = format!(
                        "{ty:?} ×{factor:e} {mode:?} min_part {min_part} {}",
                        solver.name()
                    );
                    let base = solver.solve(&t).unwrap();
                    let eig = solver.solve(&scaled).unwrap();
                    let want: Vec<f64> = base.values.iter().map(|x| x * factor).collect();
                    assert_eq!(bits(&eig.values), bits(&want), "{who}: values");
                    assert_eq!(
                        bits(eig.vectors.as_slice()),
                        bits(base.vectors.as_slice()),
                        "{who}: vectors"
                    );
                }
            }
        }
    }
}

#[test]
fn solvers_are_shareable_across_threads() {
    // &TaskFlowDc is Sync: several user threads may solve concurrently.
    let _q = dcst::matrix::failpoints::quiet();
    let solver = std::sync::Arc::new(TaskFlowDc::new(opts()));
    let results: Vec<Vec<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let solver = solver.clone();
                s.spawn(move || {
                    let t = MatrixType::Type4.generate(60, i);
                    solver.solve(&t).unwrap().values
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Each seed gives a different matrix but the same count.
    assert!(results.iter().all(|v| v.len() == 60));
    assert_ne!(results[0], results[1]);
}

#[test]
fn generators_and_solver_roundtrip_is_reproducible() {
    // Full reproducibility chain: seed → matrix → spectrum.
    let _q = dcst::matrix::failpoints::quiet();
    let a = TaskFlowDc::new(opts())
        .solve(&MatrixType::Type5.generate(80, 5))
        .unwrap();
    let b = TaskFlowDc::new(opts())
        .solve(&MatrixType::Type5.generate(80, 5))
        .unwrap();
    assert_eq!(a.values, b.values);
}

/// When *every* leaf fails (`steqr:1+`), the inline drivers report the
/// failure with the lowest block offset by construction: bodies run in
/// submission order, leaves are submitted by ascending offset, and the
/// first failure latches. `LevelParallelDc` runs the leaves on the pool,
/// so — like `TaskFlowDc` — it reports the typed error of whichever
/// failing leaf got there first.
#[test]
fn multi_failure_reports_lowest_offset_block() {
    use dcst::core::DcError;
    use dcst::matrix::failpoints::{self as fp, Site, Trigger};
    use dcst::qriter::QrError;
    let t = MatrixType::Type4.generate(96, 5);
    let leaf_offsets: Vec<usize> = {
        let tree = dcst::core::PartitionTree::build(t.n(), opts().min_part);
        tree.leaves().iter().map(|&l| tree.nodes[l].off).collect()
    };
    let solvers: Vec<(&str, Box<dyn TridiagEigensolver>)> = vec![
        (
            "sequential",
            Box::new(SequentialDc::new(DcOptions {
                threads: 1,
                ..opts()
            })) as Box<_>,
        ),
        ("forkjoin", Box::new(ForkJoinDc::new(opts())) as Box<_>),
        ("levelpar", Box::new(LevelParallelDc::new(opts())) as Box<_>),
    ];
    for (name, solver) in &solvers {
        // Repeat: a scheduling-order-dependent report would flake here.
        for run in 0..8 {
            let _armed = fp::exclusive(Site::Steqr, Trigger::FromHit(1));
            match solver.solve(&t) {
                Err(DcError::Leaf(QrError::NoConvergence { block_start, .. })) => {
                    if *name == "levelpar" {
                        assert!(
                            leaf_offsets.contains(&block_start),
                            "{name} run {run}: block {block_start} is not a leaf offset"
                        );
                    } else {
                        assert_eq!(block_start, 0, "{name} run {run}: lowest-offset block");
                    }
                }
                other => panic!("{name} run {run}: expected Leaf(NoConvergence), got {other:?}"),
            }
        }
    }
}

#[test]
fn mrrr_bits_do_not_depend_on_the_runtime() {
    // Bisection runs in lockstep per eigenvalue and each vector depends
    // only on its own job, so neither the worker count nor the inline
    // discipline may move a bit. Glued Wilkinson takes the Gram–Schmidt
    // fallback groups.
    let bits = |(values, vectors): (Vec<f64>, dcst::matrix::Matrix)| -> Vec<u64> {
        values
            .iter()
            .chain(vectors.as_slice())
            .map(|x| x.to_bits())
            .collect()
    };
    for t in [
        MatrixType::Type4.generate(70, 31),
        dcst::tridiag::gen::glued_wilkinson(11, 4, 1e-10),
    ] {
        let n = t.n();
        let runs: Vec<_> = [Runtime::inline(0), Runtime::new(1), Runtime::new(3)]
            .iter()
            .map(|rt| {
                let s = MrrrSolver::new(rt);
                let full = bits(s.solve(&t).unwrap());
                let subset = bits(s.solve_range_exact(&t, n / 4, n / 2).unwrap());
                (full, subset)
            })
            .collect();
        assert!(runs.iter().all(|r| *r == runs[0]), "n = {n}");
    }
}
