//! DMPV accuracy gates across the configuration lattice: the normalized
//! accuracy metrics of the paper's Figure 9 expressed in units of machine
//! epsilon, asserted below a shared threshold for every input of this file
//! in **every** configuration the process can run:
//!
//! * SIMD level — each [`SimdLevel`] the CPU supports, pinned through
//!   [`set_simd_level`] (printed as `lattice <level>: ran|skipped`, with
//!   the level's wall time);
//! * update policy — `Auto` and `ForceStructured` for full and subset
//!   solves (values mode and the MRRR fallback never reach the update, so
//!   they run once per level);
//! * mode — `bit_hash`'s four: full, subset `n/4..=n/2`, values, and the
//!   fallback subset `0..=n/32 − 1` the solvers route to MRRR;
//! * solver — the four D&C disciplines × threads {1, 2}.
//!
//! The gated quantities are the LAPACK testing conventions
//!
//! * orthogonality  `‖VᵀV − I‖_max / (n·ε)`
//! * residual       `max_i ‖T v_i − λ_i v_i‖₂ / (‖T‖·n·ε)`
//!
//! which [`orthogonality_error`] / [`residual_error`] already compute up to
//! the `1/ε` factor. A healthy solver sits at O(1) in these units; the gate
//! is deliberately roomy at 50 so it only trips on genuine accuracy
//! regressions (a lost digit is a factor ~10), never on noise. Beside the
//! gates, every configuration asserts that its eight solves are
//! bit-identical, that its values and subset eigenvalues agree with its
//! full solve, and that each mode's eigenvalues agree across levels and
//! policies within `1e-11·‖T‖`.
//!
//! The level and the policy are process-wide, so every test of this binary
//! holds one lock around them ([`Knobs`]), and no other test binary
//! changes the level.

use dcst::matrix::metrics;
use dcst::matrix::simd::cpu_supports;
use dcst::matrix::{set_simd_level, set_update_policy, simd_level, SimdLevel, UpdatePolicy};
use dcst::prelude::*;
use dcst::secular::SecularKernels;
use dcst::tridiag::gen::{application_suite, glued_wilkinson};
use dcst::tridiag::{sturm_count, MatrixType as MT};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Shared gate for both metrics, in units of ε (see module docs).
const GATE: f64 = 50.0;

const EPS: f64 = f64::EPSILON;

/// Cross-configuration eigenvalue agreement, in units of ‖T‖: the bound
/// `tests/structured_update.rs` holds the structured update to.
const AGREE: f64 = 1e-11;

/// Every level, narrowest first.
const LEVELS: [SimdLevel; 3] = [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512];

/// The lock around the process-wide SIMD level and update policy. Dropping
/// it restores the widest level and `Auto`.
struct Knobs {
    _guard: MutexGuard<'static, ()>,
}

impl Knobs {
    fn take() -> Self {
        static LOCK: Mutex<()> = Mutex::new(());
        Knobs {
            _guard: LOCK.lock().unwrap_or_else(|e| e.into_inner()),
        }
    }

    fn set(&self, level: SimdLevel, policy: UpdatePolicy) {
        assert!(set_simd_level(level), "{level:?} refused");
        set_update_policy(policy);
    }
}

impl Drop for Knobs {
    fn drop(&mut self) {
        let widest = LEVELS.into_iter().rev().find(|&l| cpu_supports(l));
        self.set(widest.unwrap(), UpdatePolicy::Auto);
    }
}

fn level_name(level: SimdLevel) -> String {
    format!("{level:?}").to_lowercase()
}

/// Run `body` at each level the CPU has, printing `lattice <level>: ran`
/// with the level's wall time, or `skipped`, so a green run says which
/// levels it covered.
fn each_level(what: &str, mut body: impl FnMut(SimdLevel)) {
    for level in LEVELS {
        if !cpu_supports(level) {
            println!("lattice {}: skipped ({what})", level_name(level));
            continue;
        }
        let start = Instant::now();
        body(level);
        let secs = start.elapsed().as_secs_f64();
        println!("lattice {}: ran ({what}, {secs:.1} s)", level_name(level));
    }
}

/// `bit_hash`'s four modes at order `n`.
fn modes(n: usize) -> [(&'static str, SolveMode); 4] {
    [
        ("full", SolveMode::Full),
        (
            "subset",
            SolveMode::Subset {
                il: n / 4,
                iu: n / 2,
            },
        ),
        ("values", SolveMode::ValuesOnly),
        (
            "fallback",
            SolveMode::Subset {
                il: 0,
                iu: (n / 32).max(1) - 1,
            },
        ),
    ]
}

fn same_bits(a: &Eigen, b: &Eigen) -> bool {
    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    a.vectors.rows() == b.vectors.rows()
        && a.vectors.cols() == b.vectors.cols()
        && bits(&a.values) == bits(&b.values)
        && bits(a.vectors.as_slice()) == bits(b.vectors.as_slice())
}

/// The eight solves of one configuration — the four disciplines × threads
/// {1, 2} — asserted bit-identical; returns the first.
fn solve_all(t: &SymTridiag, mode: SolveMode, who: &str) -> Eigen {
    let mut first: Option<Eigen> = None;
    for threads in [1, 2] {
        let o = DcOptions {
            min_part: 16,
            nb: 24,
            threads,
            mode,
            ..DcOptions::default()
        };
        let solvers: [Box<dyn TridiagEigensolver>; 4] = [
            Box::new(SequentialDc::new(o)),
            Box::new(ForkJoinDc::new(o)),
            Box::new(LevelParallelDc::new(o)),
            Box::new(TaskFlowDc::new(o)),
        ];
        for solver in solvers {
            let who = format!("{who} / {} t={threads}", solver.name());
            let eig = solver
                .solve(t)
                .unwrap_or_else(|e| panic!("{who}: solve failed: {e}"));
            match &first {
                None => first = Some(eig),
                Some(f) => assert!(same_bits(f, &eig), "{who}: bits differ from the first"),
            }
        }
    }
    first.unwrap()
}

/// Assert both DMPV gates for one solve's eigenpairs.
fn assert_gates(t: &SymTridiag, eig: &Eigen, who: &str) {
    // orthogonality_error = ‖VᵀV − I‖_max / n, so ÷ε gives the gated form.
    let orth = orthogonality_error(&eig.vectors) / EPS;
    assert!(
        orth < GATE,
        "{who}: orthogonality gate: {orth:.1} eps (limit {GATE})"
    );
    // residual_error = max_i ‖Tv−λv‖₂ / (‖T‖·n), so ÷ε gives the gated form.
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
}

fn assert_close(got: &[f64], want: &[f64], tol: f64, who: &str) {
    assert_eq!(got.len(), want.len(), "{who}");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert!(
            (a - b).abs() <= tol,
            "{who}: eigenvalue {i}: {a:e} vs {b:e}"
        );
    }
}

/// Every input through every configuration of the lattice (module docs).
fn run_lattice(what: &str, inputs: &[(String, SymTridiag)]) {
    let knobs = Knobs::take();
    // Per input, each mode's eigenvalues in the first configuration that
    // ran it.
    let mut reference = vec![<[Option<Vec<f64>>; 4]>::default(); inputs.len()];
    each_level(what, |level| {
        for ((name, t), reference) in inputs.iter().zip(&mut reference) {
            let n = t.n();
            let mode_tol = GATE * n as f64 * EPS * t.max_norm();
            for policy in [UpdatePolicy::Auto, UpdatePolicy::ForceStructured] {
                knobs.set(level, policy);
                let mut full: Option<Vec<f64>> = None;
                for (m, (label, mode)) in modes(n).into_iter().enumerate() {
                    if policy != UpdatePolicy::Auto && matches!(label, "values" | "fallback") {
                        continue;
                    }
                    let who = format!("{name} [{}, {policy:?}, {label}]", level_name(level));
                    let eig = solve_all(t, mode, &who);
                    if label != "values" {
                        assert_gates(t, &eig, &who);
                    }
                    let full = full.get_or_insert_with(|| eig.values.clone());
                    let want = match mode {
                        SolveMode::Subset { il, iu } => &full[il..=iu],
                        _ => &full[..],
                    };
                    assert_close(&eig.values, want, mode_tol, &format!("{who} vs full"));
                    let first = reference[m].get_or_insert_with(|| eig.values.clone());
                    assert_close(
                        &eig.values,
                        first,
                        AGREE * t.max_norm(),
                        &format!("{who} vs the first configuration"),
                    );
                }
            }
        }
    });
}

#[test]
fn table_iii_types_pass_the_gates_on_every_solver() {
    let inputs: Vec<_> = MT::ALL
        .into_iter()
        .map(|ty| (format!("type {}", ty.index()), ty.generate(96, 42)))
        .collect();
    run_lattice("table III", &inputs);
}

#[test]
fn application_matrices_pass_the_gates_on_every_solver() {
    let inputs: Vec<_> = application_suite(&[72])
        .into_iter()
        .map(|app| (app.name, app.matrix))
        .collect();
    run_lattice("application suite", &inputs);
}

#[test]
fn glued_wilkinson_passes_the_gates_on_every_solver() {
    // Clustered spectrum with near-reducible glue: the classic stress case
    // for eigenvector orthogonality.
    let t = glued_wilkinson(11, 5, 1e-9);
    run_lattice("glued wilkinson", &[("glued-wilkinson".to_string(), t)]);
}

#[test]
fn gates_are_scale_invariant() {
    // The normalized metrics must not move when the matrix is scaled: gate
    // a badly-scaled copy of a prescribed-spectrum type.
    let t = MT::Type4.generate(64, 7);
    let scaled = SymTridiag::new(
        t.d.iter().map(|x| x * 1e150).collect(),
        t.e.iter().map(|x| x * 1e150).collect(),
    );
    run_lattice("scaled type 4", &[("scaled type 4".to_string(), scaled)]);
}

/// Type 6 at n = 1100 has a root merge with k ≥ 512, so its roots take the
/// windowed step (the only one that certifies a root without a closing
/// sweep) at every level. The values are bracketed by Sturm counts, an
/// oracle that shares nothing with the merge kernels.
#[test]
fn windowed_values_solve_brackets_sturm_counts_at_every_level() {
    let knobs = Knobs::take();
    let n = 1100;
    let t = MT::Type6.generate(n, 42);
    let tol = GATE * n as f64 * EPS * t.max_norm();
    let mut first: Option<Vec<f64>> = None;
    each_level("type 6 values, n = 1100", |level| {
        knobs.set(level, UpdatePolicy::Auto);
        let who = format!("type 6 n={n} [{}, values]", level_name(level));
        let before = metrics::snapshot();
        let eig = solve_all(&t, SolveMode::ValuesOnly, &who);
        let certified = metrics::snapshot().delta(&before).get("secular.certified");
        assert!(certified > 0, "{who}: no root took the windowed step");
        assert!(eig.values.windows(2).all(|w| w[0] <= w[1]), "{who}: sorted");
        for (i, &lam) in eig.values.iter().enumerate() {
            let (below, above) = (sturm_count(&t, lam - tol), sturm_count(&t, lam + tol));
            assert!(
                below <= i && i < above,
                "{who}: eigenvalue {i} = {lam:e}, Sturm counts {below}..{above}"
            );
        }
        let first = first.get_or_insert_with(|| eig.values.clone());
        assert_close(&eig.values, first, AGREE * t.max_norm(), &who);
    });
}

/// `set_simd_level` pins every supported level — GEMM and the secular
/// kernels dispatch on it — and refuses, without effect, one the CPU lacks.
#[test]
fn simd_level_setter_round_trips() {
    let _knobs = Knobs::take();
    for level in LEVELS {
        let before = simd_level();
        if cpu_supports(level) {
            assert!(set_simd_level(level), "{level:?} refused");
            assert_eq!(simd_level(), level);
            assert_eq!(SecularKernels::dispatched().level(), level);
        } else {
            assert!(!set_simd_level(level), "{level:?} accepted");
            assert_eq!(simd_level(), before);
        }
    }
}
