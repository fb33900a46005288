//! Oracle suite for the rank-structured eigenvector update: the dense
//! `UpdateVect` path is the pinned oracle, and the ACA-compressed path must
//! agree with it through the DMPV accuracy gates — across the fifteen
//! Table III generators, the glued-Wilkinson stress case, random
//! tridiagonals (proptest), and every D&C solver variant.
//!
//! The update policy knob is process-global, so every test here serializes
//! on one mutex; tests never leave a forced policy behind.

use dcst::core::DcError;
use dcst::matrix::failpoints::{self as fp, Site, Trigger};
use dcst::matrix::{set_update_policy, UpdatePolicy};
use dcst::prelude::*;
use dcst::secular;
use dcst::tridiag::gen::glued_wilkinson;
use dcst::tridiag::MatrixType as MT;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Shared DMPV gate in units of ε (see tests/accuracy_gates.rs).
const GATE: f64 = 50.0;
const EPS: f64 = f64::EPSILON;

/// Serializes every test in this binary around the global policy knob and
/// restores `Auto` when the guard drops.
struct PolicyLock {
    _guard: MutexGuard<'static, ()>,
}

impl PolicyLock {
    fn take(p: UpdatePolicy) -> Self {
        static LOCK: Mutex<()> = Mutex::new(());
        let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_update_policy(p);
        PolicyLock { _guard: guard }
    }
}

impl Drop for PolicyLock {
    fn drop(&mut self) {
        set_update_policy(UpdatePolicy::Auto);
    }
}

fn opts(threads: usize) -> DcOptions {
    DcOptions {
        min_part: 16,
        nb: 24,
        threads,
        ..DcOptions::default()
    }
}

fn solvers() -> Vec<Box<dyn TridiagEigensolver>> {
    vec![
        Box::new(SequentialDc::new(opts(1))),
        Box::new(ForkJoinDc::new(opts(2))),
        Box::new(LevelParallelDc::new(opts(2))),
        Box::new(TaskFlowDc::new(opts(2))),
    ]
}

/// Solve under the already-set policy and assert both DMPV gates.
fn gated_solve(t: &SymTridiag, solver: &dyn TridiagEigensolver, who: &str) -> Eigen {
    let eig = solver
        .solve(t)
        .unwrap_or_else(|e| panic!("{who}: solve failed: {e}"));
    let orth = orthogonality_error(&eig.vectors) / EPS;
    assert!(
        orth < GATE,
        "{who}: orthogonality gate: {orth:.1} eps (limit {GATE})"
    );
    let res = residual_error(
        t.n(),
        |x, y| t.matvec(x, y),
        &eig.values,
        &eig.vectors,
        t.max_norm(),
    ) / EPS;
    assert!(
        res < GATE,
        "{who}: residual gate: {res:.1} eps (limit {GATE})"
    );
    eig
}

/// Forced-structured and forced-dense solves must both pass the gates and
/// agree on the spectrum to rounding.
fn assert_structured_matches_dense(t: &SymTridiag, solver: &dyn TridiagEigensolver, who: &str) {
    let dense = {
        let _p = PolicyLock::take(UpdatePolicy::ForceDense);
        gated_solve(t, solver, &format!("{who} [dense]"))
    };
    let structured = {
        let _p = PolicyLock::take(UpdatePolicy::ForceStructured);
        gated_solve(t, solver, &format!("{who} [structured]"))
    };
    let scale = t.max_norm().max(1.0);
    for (i, (a, b)) in dense.values.iter().zip(&structured.values).enumerate() {
        assert!(
            (a - b).abs() < 1e-11 * scale,
            "{who}: eigenvalue {i} diverges: dense {a} vs structured {b}"
        );
    }
}

#[test]
fn table_iii_types_agree_with_dense_oracle() {
    let n = 72;
    let before = dcst::matrix::metrics::snapshot();
    for ty in MT::ALL {
        let t = ty.generate(n, 42);
        for solver in solvers() {
            let who = format!("type {} / {}", ty.index(), solver.name());
            assert_structured_matches_dense(&t, solver.as_ref(), &who);
        }
    }
    // The forced arm really took the compressed path — and the counter the
    // Auto test below pins to zero is a live one.
    let delta = dcst::matrix::metrics::snapshot().delta(&before);
    assert!(
        delta.get("update.structured_merges") > 0,
        "forced-structured solves never planned a structured merge"
    );
}

#[test]
fn glued_wilkinson_agrees_with_dense_oracle() {
    let t = glued_wilkinson(11, 5, 1e-9);
    for solver in solvers() {
        let who = format!("glued-wilkinson / {}", solver.name());
        assert_structured_matches_dense(&t, solver.as_ref(), &who);
    }
}

/// A full-rank block must drive the sampled ACA probe to its cap, which
/// the auto-switch rule (`2·rank > k/2` → dense) then rejects: the
/// "clustered spectrum, zero deflation, maximal rank" adversary can never
/// route through the compressed path.
#[test]
fn full_rank_block_trips_the_auto_switch_to_dense() {
    let k = 128;
    // A deterministic full-rank "X": decaying diagonal dominance plus a
    // dense pseudo-random tail — no off-diagonal decay for ACA to exploit.
    let mut x = vec![0.0f64; k * k];
    let mut state = 0x9e3779b97f4a7c15u64;
    for j in 0..k {
        for i in 0..k {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
            x[j * k + i] = noise + if i == j { 2.0 } else { 0.0 };
        }
    }
    let tol = secular::rank_tolerance(k, k);
    let est = secular::estimate_offdiag_rank(k, &|i, j| x[j * k + i], tol);
    assert!(
        2 * est > k / 2,
        "full-rank block estimated at rank {est}: the auto switch would wrongly compress"
    );
}

/// End-to-end guard on the cost rule: a clustered-spectrum, essentially
/// undeflated matrix whose merges are all below the auto threshold must
/// never plan a structured update — the compressed counters stay flat
/// while the dense path solves it through the gates.
#[test]
fn small_zero_deflation_merges_never_structure_under_auto() {
    let _p = PolicyLock::take(UpdatePolicy::Auto);
    // Glued Wilkinson blocks: tightly clustered eigenvalue pairs, glue
    // small enough to keep the spectrum clustered but large enough that
    // nothing deflates. n = 5·17 = 85 keeps every merge far below the
    // auto threshold (k = 512), where tiling can only lose.
    let t = glued_wilkinson(17, 5, 1e-4);
    let before = dcst::matrix::metrics::snapshot();
    for solver in solvers() {
        let who = format!("auto clustered / {}", solver.name());
        gated_solve(&t, solver.as_ref(), &who);
    }
    let delta = dcst::matrix::metrics::snapshot().delta(&before);
    assert_eq!(
        delta.get("update.structured_merges"),
        0,
        "auto policy structured a merge whose estimated cost exceeds dense"
    );
}

/// The other side of the cost rule: a low-deflation matrix whose root merge
/// clears the auto threshold (type 4 at n = 640 keeps k ≈ 0.9·n ≥ 512 at the
/// root, and no other merge has 512 rows) is structured there and only
/// there, passes the gates, and agrees with the dense oracle.
#[test]
fn large_low_deflation_root_structures_under_auto() {
    let n = 640;
    let t = MT::Type4.generate(n, 42);
    let solver = TaskFlowDc::new(opts(2));
    let dense = {
        let _p = PolicyLock::take(UpdatePolicy::ForceDense);
        gated_solve(&t, &solver, "auto large [dense]")
    };
    let (auto, structured) = {
        let _p = PolicyLock::take(UpdatePolicy::Auto);
        let before = dcst::matrix::metrics::snapshot();
        let eig = gated_solve(&t, &solver, "auto large [auto]");
        let delta = dcst::matrix::metrics::snapshot().delta(&before);
        (eig, delta.get("update.structured_merges"))
    };
    let merges = dcst::core::PartitionTree::build(n, opts(2).min_part)
        .merges_postorder()
        .len() as u64;
    assert!(
        0 < structured && structured < merges,
        "auto structured {structured} of {merges} merges: the root must clear the \
         threshold and the small merges must not"
    );
    let scale = t.max_norm().max(1.0);
    for (i, (a, b)) in dense.values.iter().zip(&auto.values).enumerate() {
        assert!(
            (a - b).abs() < 1e-11 * scale,
            "eigenvalue {i} diverges: dense {a} vs auto {b}"
        );
    }
}

/// `copy.elems` and `update.structured_merges` of one gated solve of `t`
/// under policy `p`, the lock held from snapshot to delta so no other
/// solve of this binary adds to the process counters meanwhile.
fn copies_under(p: UpdatePolicy, t: &SymTridiag, solver: &dyn TridiagEigensolver) -> (u64, u64) {
    let _p = PolicyLock::take(p);
    let before = dcst::matrix::metrics::snapshot();
    gated_solve(t, solver, &format!("copies [{p:?}]"));
    let delta = dcst::matrix::metrics::snapshot().delta(&before);
    (
        delta.get("copy.elems"),
        delta.get("update.structured_merges"),
    )
}

/// A structured merge reads Q where it lies when each operand's slots are
/// one consecutive run, and gathers it — counted in `copy.elems` — only
/// when they are not. Type 4 at n = 640 structures its root under `Auto`
/// without Full slots: it moves exactly what its `ForceDense` solve moves.
/// Type 7's merges have Full slots in secular order between Top ones, so a
/// `ForceStructured` solve gathers and moves more than its dense one.
#[test]
fn q_is_gathered_only_where_the_slots_are_not_consecutive() {
    let solver = TaskFlowDc::new(opts(2));
    let t = MT::Type4.generate(640, 42);
    let (dense, _) = copies_under(UpdatePolicy::ForceDense, &t, &solver);
    let (auto, structured) = copies_under(UpdatePolicy::Auto, &t, &solver);
    assert!(structured > 0, "type 4 at n = 640 structures no merge");
    assert_eq!(auto, dense, "a merge without Full slots gathered Q");
    let t = MT::Type7.generate(200, 42);
    let (dense, _) = copies_under(UpdatePolicy::ForceDense, &t, &solver);
    let (forced, structured) = copies_under(UpdatePolicy::ForceStructured, &t, &solver);
    assert!(structured > 0, "type 7 at n = 200 structures no merge");
    assert!(
        forced > dense,
        "forced {forced} vs dense {dense}: merges with Full slots gathered nothing"
    );
}

/// The `gemm` and `nan-gemm` sites of the structured multiply
/// (`StructuredUpdate::update_panel`) are reached only by a structured
/// merge: under `ForceStructured` each fault still comes back as a typed
/// error from every solver.
#[test]
fn structured_update_faults_are_typed_from_every_solver() {
    let _p = PolicyLock::take(UpdatePolicy::ForceStructured);
    // Type 4 deflates little: every merge of n = 64 over 16-row leaves
    // has k ≥ 16 and is structured, so the first GEMM hit is in the
    // structured multiply.
    let t = MT::Type4.generate(64, 3);
    let merges = dcst::core::PartitionTree::build(t.n(), opts(2).min_part)
        .merges_postorder()
        .len() as u64;
    let before = dcst::matrix::metrics::snapshot();
    gated_solve(&t, &TaskFlowDc::new(opts(2)), "unarmed [structured]");
    let delta = dcst::matrix::metrics::snapshot().delta(&before);
    assert_eq!(delta.get("update.structured_merges"), merges);
    for (site, want) in [(Site::Gemm, "gemm"), (Site::NanGemm, "update-vect")] {
        for solver in solvers() {
            let who = format!("{} / {}", site.name(), solver.name());
            let before = dcst::matrix::metrics::snapshot();
            let _armed = fp::exclusive(site, Trigger::AtHit(1));
            match solver.solve(&t) {
                Err(DcError::Breakdown { stage, .. }) if stage == want => {}
                other => panic!("{who}: expected Breakdown({want}), got {other:?}"),
            }
            assert_eq!(fp::fired(site), 1, "{who}");
            let delta = dcst::matrix::metrics::snapshot().delta(&before);
            assert!(delta.get("update.structured_merges") > 0, "{who}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Random tridiagonals: the structured update agrees with the dense
    /// oracle on the spectrum and passes both gates on the task-flow
    /// solver (forced structured exercises compressed tiles from k = 16).
    #[test]
    fn random_tridiagonals_agree_with_dense_oracle(
        n in 24usize..96,
        seed in 0u64..1u64 << 16,
    ) {
        let d: Vec<f64> = (0..n)
            .map(|i| ((seed.wrapping_mul(i as u64 + 1) % 1000) as f64) / 100.0 - 5.0)
            .collect();
        let e: Vec<f64> = (0..n - 1)
            .map(|i| ((seed.wrapping_mul(2 * i as u64 + 3) % 900) as f64) / 100.0 - 4.5)
            .collect();
        let t = SymTridiag::new(d, e);
        let solver = TaskFlowDc::new(opts(2));
        let dense = {
            let _p = PolicyLock::take(UpdatePolicy::ForceDense);
            gated_solve(&t, &solver, "proptest [dense]")
        };
        let structured = {
            let _p = PolicyLock::take(UpdatePolicy::ForceStructured);
            gated_solve(&t, &solver, "proptest [structured]")
        };
        let scale = t.max_norm().max(1.0);
        for (a, b) in dense.values.iter().zip(&structured.values) {
            prop_assert!((a - b).abs() < 1e-11 * scale, "{a} vs {b}");
        }
    }
}
