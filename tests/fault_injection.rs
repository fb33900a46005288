//! Fault-injection tests: every failpoint site, through every solver.
//!
//! Each test arms a site through [`failpoints::exclusive`], which
//! serializes arming tests against each other (and against any
//! [`failpoints::quiet`] holder) via a process-wide RwLock — the registry
//! is global state shared by all solver runs in this binary.

use dcst::core::DcError;
use dcst::matrix::failpoints::{self as fp, Site, Trigger};
use dcst::prelude::*;
use dcst::qriter::QrError;
use dcst::secular::SecularError;
use dcst::tridiag::gen::MatrixType;
use proptest::prelude::*;

fn opts() -> DcOptions {
    DcOptions {
        min_part: 16,
        nb: 8,
        threads: 2,
        use_gatherv: true,
        mode: SolveMode::Full,
    }
}

/// All four D&C drivers over the same kernels. `min_part = 16` with
/// `n >= 48` guarantees at least two leaves, so every injected leaf fault
/// has a parent merge to surface in.
fn solvers() -> Vec<(&'static str, Box<dyn TridiagEigensolver>)> {
    let o = opts();
    vec![
        (
            "sequential",
            Box::new(SequentialDc::new(DcOptions { threads: 1, ..o })) as Box<_>,
        ),
        ("forkjoin", Box::new(ForkJoinDc::new(o)) as Box<_>),
        ("levelpar", Box::new(LevelParallelDc::new(o)) as Box<_>),
        ("taskflow", Box::new(TaskFlowDc::new(o)) as Box<_>),
    ]
}

fn test_matrix() -> SymTridiag {
    MatrixType::Type4.generate(64, 3)
}

#[test]
fn steqr_failure_is_typed_from_every_solver() {
    let t = test_matrix();
    for (name, solver) in solvers() {
        let _armed = fp::exclusive(Site::Steqr, Trigger::AtHit(1));
        match solver.solve(&t) {
            Err(DcError::Leaf(QrError::NoConvergence { .. })) => {}
            other => panic!("{name}: expected Leaf(NoConvergence), got {other:?}"),
        }
        assert_eq!(fp::fired(Site::Steqr), 1, "{name}");
    }
}

#[test]
fn laed4_failure_is_typed_from_every_solver() {
    let t = test_matrix();
    for (name, solver) in solvers() {
        let _armed = fp::exclusive(Site::Laed4, Trigger::AtHit(1));
        match solver.solve(&t) {
            Err(DcError::Secular(SecularError::NoConvergence { .. })) => {}
            other => panic!("{name}: expected Secular(NoConvergence), got {other:?}"),
        }
        assert_eq!(fp::fired(Site::Laed4), 1, "{name}");
    }
}

#[test]
fn gemm_failure_is_typed_from_every_solver() {
    let t = test_matrix();
    for (name, solver) in solvers() {
        let _armed = fp::exclusive(Site::Gemm, Trigger::AtHit(1));
        match solver.solve(&t) {
            Err(DcError::Breakdown { stage: "gemm", .. }) => {}
            other => panic!("{name}: expected Breakdown(gemm), got {other:?}"),
        }
        assert_eq!(fp::fired(Site::Gemm), 1, "{name}");
    }
}

#[test]
fn nan_from_a_leaf_is_caught_at_the_parent_merge() {
    // `nan-steqr` poisons a leaf's eigenvalue block *after* the leaf solve
    // succeeded — the corruption must be caught by the parent merge's input
    // scan, never panic, never leak into an Ok result.
    let t = test_matrix();
    for (name, solver) in solvers() {
        let _armed = fp::exclusive(Site::NanSteqr, Trigger::AtHit(1));
        match solver.solve(&t) {
            Err(DcError::Breakdown {
                stage: "deflate", ..
            }) => {}
            other => panic!("{name}: expected Breakdown(deflate), got {other:?}"),
        }
        assert_eq!(fp::fired(Site::NanSteqr), 1, "{name}");
    }
}

#[test]
fn nan_from_a_gemm_is_caught_by_the_output_scan() {
    let t = test_matrix();
    for (name, solver) in solvers() {
        let _armed = fp::exclusive(Site::NanGemm, Trigger::AtHit(1));
        match solver.solve(&t) {
            Err(DcError::Breakdown {
                stage: "update-vect",
                ..
            }) => {}
            other => panic!("{name}: expected Breakdown(update-vect), got {other:?}"),
        }
        assert_eq!(fp::fired(Site::NanGemm), 1, "{name}");
    }
}

#[test]
fn trigger_count_is_respected() {
    // A trigger beyond the number of site hits never fires: the solve must
    // succeed as if nothing were armed.
    let t = test_matrix();
    let _armed = fp::exclusive(Site::Steqr, Trigger::AtHit(999));
    let eig = TaskFlowDc::new(opts()).solve(&t).unwrap();
    assert_eq!(fp::fired(Site::Steqr), 0);
    assert!(fp::hits(Site::Steqr) >= 2, "several leaves hit the site");
    assert!(eig.values.iter().all(|v| v.is_finite()));
}

#[test]
fn second_hit_trigger_spares_the_first_site() {
    let t = test_matrix();
    let _armed = fp::exclusive(Site::Steqr, Trigger::AtHit(2));
    match SequentialDc::new(opts()).solve(&t) {
        // Leaves solve in ascending offset order sequentially, so the
        // second leaf is the one that fails.
        Err(DcError::Leaf(QrError::NoConvergence { block_start, .. })) => {
            assert!(block_start >= 16, "second leaf starts past min_part");
        }
        other => panic!("expected Leaf(NoConvergence), got {other:?}"),
    }
    assert_eq!(fp::hits(Site::Steqr), 2);
}

#[test]
fn solver_is_reusable_after_an_injected_failure() {
    let t = test_matrix();
    let solver = TaskFlowDc::new(opts());
    {
        let _armed = fp::exclusive(Site::Laed4, Trigger::AtHit(1));
        assert!(solver.solve(&t).is_err());
    }
    let _q = fp::quiet();
    let eig = solver.solve(&t).unwrap();
    let res = dcst::matrix::residual_error(
        t.n(),
        |x, y| t.matvec(x, y),
        &eig.values,
        &eig.vectors,
        t.max_norm(),
    );
    assert!(res < 1e-12, "clean solve after failure: residual {res}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// A NaN injected anywhere in the merge tree yields `Err`, never a
    /// panic and never a silently wrong `Ok` — for all four solvers.
    #[test]
    fn injected_nan_never_panics_or_corrupts_ok(
        ty in 1usize..=15,
        n in 48usize..=96,
        seed in 0u64..1000,
        site_idx in 0usize..2,
        trigger in 1usize..6,
    ) {
        let site = [Site::NanSteqr, Site::NanGemm][site_idx];
        let t = MatrixType::from_index(ty).unwrap().generate(n, seed);
        for (name, solver) in solvers() {
            let _armed = fp::exclusive(site, Trigger::AtHit(trigger));
            let result = solver.solve(&t);
            let fired = fp::fired(site);
            match result {
                Ok(eig) => {
                    prop_assert_eq!(fired, 0, "{}: Ok but {:?} fired", name, site);
                    prop_assert!(
                        eig.values.iter().all(|v| v.is_finite()),
                        "{}: non-finite eigenvalue in Ok result", name
                    );
                    prop_assert!(
                        eig.vectors.as_slice().iter().all(|v| v.is_finite()),
                        "{}: non-finite eigenvector entry in Ok result", name
                    );
                }
                Err(DcError::Breakdown { .. }) => {
                    prop_assert!(fired > 0, "{}: Breakdown without a fired site", name);
                }
                Err(other) => {
                    return Err(TestCaseError::fail(format!(
                        "{name}: unexpected error variant {other:?}"
                    )));
                }
            }
        }
    }
}
