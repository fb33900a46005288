//! How many k-term sweeps a secular root costs, solved the way a merge's
//! `LAED4` panels solve them: runs of 64 roots in ascending order, each
//! run's first root cold and the rest warm-started from the root before.
//!
//! The counts come from the process-global `secular.*` counters, which is
//! why this file is its own binary and its tests take [`COUNTERS`] in
//! turn: no other test's roots reach them. Run with `--nocapture` to see
//! sweeps per root per instance, and how many roots were certified
//! without a closing sweep.

use dcst_matrix::metrics;
use dcst_secular::{SecularKernels, SecularProblem, SecularRoot};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::sync::Mutex;

/// Held by each test for its whole run, so the counters it reads are its own.
static COUNTERS: Mutex<()> = Mutex::new(());

/// Roots per run, as `DcOptions::default().nb` panels them.
const NB: usize = 64;

/// A secular problem `(d, z, ρ)`.
type Problem = (Vec<f64>, Vec<f64>, f64);

/// A secular problem shaped like a merge of a random-spectrum matrix: k
/// poles uniform in [0, 1), ρ in [0.1, 0.5), and a unit z of mixed signs
/// whose weight sits in the middle of the spectrum and decays towards its
/// ends, fastest over the last five poles each side — so the last root is
/// glued to the top pole, as in those merges.
fn problem(k: usize, seed: u64) -> Problem {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut d: Vec<f64> = (0..k).map(|_| rng.gen_range(0.0..1.0)).collect();
    d.sort_by(f64::total_cmp);
    let mut z: Vec<f64> = (0..k)
        .map(|i| {
            let u = (2.0 * i as f64 / (k - 1) as f64 - 1.0).abs();
            let edge = i.min(k - 1 - i) as i32;
            let taper = 10f64.powf(-3.0 * u.powi(8) + 2.0 * (edge - 5).min(0) as f64);
            taper * rng.gen_range(0.1..1.0) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 }
        })
        .collect();
    let nrm = z.iter().map(|x| x * x).sum::<f64>().sqrt();
    z.iter_mut().for_each(|x| *x /= nrm);
    (d, z, rng.gen_range(0.1..0.5))
}

/// `(secular.iters, secular.bisection_rescues, secular.certified)` spent
/// by one root.
type Counts = (u64, u64, u64);

/// Solve every root of `p`, a problem of `k` poles, in panel order — runs
/// of [`NB`], on the dispatched or the `scalar` kernels — and hand each to
/// `each` with the counters its solve moved.
fn panel_order(
    p: &SecularProblem<'_>,
    k: usize,
    scalar: bool,
    mut each: impl FnMut(usize, SecularRoot, Counts),
) {
    let mut delta = vec![0.0; k];
    for run in (0..k).step_by(NB) {
        let mut roots = if scalar { p.panel_scalar() } else { p.panel() };
        for j in run..(run + NB).min(k) {
            let before = metrics::snapshot();
            let root = roots.solve_root(j, &mut delta).unwrap();
            let spent = metrics::snapshot().delta(&before);
            let counts = (
                spent.get("secular.iters"),
                spent.get("secular.bisection_rescues"),
                spent.get("secular.certified"),
            );
            each(j, root, counts);
        }
    }
}

/// Mean sweeps per root, interior roots and the last root apart, over
/// four seeds per k, on the dispatched and on the scalar kernels: the
/// interior ones at most 1.25 and the last at most 5, with no bisection
/// rescue. A cold midpoint start and the two-pole step take 4.4 and 6.8–7.8
/// on these problems; stepping on the window and each far side's Taylor
/// cubic, every root starting from the previous root's model, ≈ 1.02 and
/// ≈ 2.3.
#[test]
fn panel_roots_take_few_sweeps() {
    let _counters = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    for (name, scalar) in [("dispatched", false), ("scalar", true)] {
        for k in [1031usize, 2048] {
            let (mut interior, mut last, mut rescues, mut seeds) = (0, 0, 0, 0);
            for seed in 0..4u64 {
                let (d, z, rho) = problem(k, 0x5eed ^ (k as u64) << 8 ^ seed);
                let p = SecularProblem::new(&d, &z, rho).unwrap();
                panel_order(&p, k, scalar, |j, _, (iters, rescued, _)| {
                    if j + 1 == k {
                        last += iters;
                    } else {
                        interior += iters;
                    }
                    rescues += rescued;
                });
                seeds += 1;
            }
            let roots = (seeds * (k - 1)) as f64;
            let (interior, last) = (interior as f64 / roots, last as f64 / seeds as f64);
            println!(
                "sweeps per root {name} k={k}: interior {interior:.3}, last {last:.2}, \
                 bisection rescues {rescues}"
            );
            assert!(interior <= 1.25, "{name} k={k}: interior {interior:.3}");
            assert!(last <= 5.0, "{name} k={k}: last {last:.2}");
            assert_eq!(rescues, 0, "{name} k={k}");
        }
    }
}

/// This file's k = 1031 problem with its poles and ρ scaled together —
/// the same roots, scaled — to where a far side's moments `Σ z²/δⁿ⁺¹`
/// leave the normal range: at 1e-80 `M₃` overflows, at 1e150 `M₂` and
/// `M₃` underflow, at 1e200 `M₁` does too. A side with such a moment
/// still steers the step but certifies nothing. No solve reaches these
/// scales — the drivers scale T to unit max-norm before they split it —
/// so this guards the root finder alone: no bisection rescue, and mean
/// sweeps per root at most 3, or 16 at 1e200 (where the far sides' slopes
/// are lost, and the model steps on the window's alone).
#[test]
fn panel_roots_at_extreme_scales() {
    let _counters = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let k = 1031;
    let (d, z, rho) = problem(k, 0x5eed ^ (k as u64) << 8);
    for (name, scalar) in [("dispatched", false), ("scalar", true)] {
        for scale in [1e-80, 1e-60, 1e150, 1e200] {
            let d: Vec<f64> = d.iter().map(|x| x * scale).collect();
            let p = SecularProblem::new(&d, &z, rho * scale).unwrap();
            let (mut iters, mut rescues, mut certified) = (0, 0, 0);
            panel_order(&p, k, scalar, |_, _, (i, r, c)| {
                iters += i;
                rescues += r;
                certified += c;
            });
            let per_root = iters as f64 / k as f64;
            println!(
                "sweeps per root {name} k={k} scale={scale:e}: {per_root:.3}, \
                 certified {certified}, bisection rescues {rescues}"
            );
            let bound = if scale > 1e180 { 16.0 } else { 3.0 };
            assert!(per_root <= bound, "{name} scale={scale:e}: {per_root:.3}");
            assert_eq!(rescues, 0, "{name} scale={scale:e}");
        }
    }
}

/// Secular problems in two of `simd_oracle.rs`'s gap regimes, the poles
/// at O(1): `graded` — each gap log-uniform over 15 decades below the
/// running sum it is added to (at least 1), ρ log-uniform in
/// `[1e-3, 1e3]` — or clustered pairs (gaps alternate 1 and 1e-13, ρ in
/// `[0.5, 2)`); z unit-norm, bounded away from 0, of mixed signs.
fn regime_problem(k: usize, graded: bool, seed: u64) -> Problem {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut d = Vec::with_capacity(k);
    let mut acc: f64 = rng.gen_range(-1.0..1.0);
    for i in 0..k {
        d.push(acc);
        acc += if graded {
            10f64.powf(rng.gen_range(-15.0..0.0)) * acc.abs().max(1.0)
        } else if i % 2 == 0 {
            1.0
        } else {
            1e-13
        };
    }
    let rho = if graded {
        10f64.powf(rng.gen_range(-3.0..3.0))
    } else {
        rng.gen_range(0.5..2.0)
    };
    let mut z: Vec<f64> = (0..k)
        .map(|_| rng.gen_range(0.1..1.0) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
        .collect();
    let nrm = z.iter().map(|x| x * x).sum::<f64>().sqrt();
    z.iter_mut().for_each(|x| *x /= nrm);
    (d, z, rho)
}

/// The certification oracle. Every root a panel accepts without a closing
/// sweep (`secular.certified`) must pass the test a sweep would have put
/// it to: a scalar-oracle sweep at its `(origin, μ)` gives
/// `|f| ≤ 8·ε·k·fabs`. Over this file's problems at k ∈ {1031, 2048} on
/// the dispatched and the scalar panels, and one graded and one clustered
/// problem at k = 1031. Prints, per row, the certified and swept roots,
/// the mean sweeps per root, and the worst `|f|/tol` among the certified.
/// A swept root is not a slow one: most clustered roots converge at the
/// first sweep their warm start makes.
#[test]
fn certified_roots_pass_a_direct_sweep() {
    let _counters = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let mut cases: Vec<(String, Problem)> = Vec::new();
    for k in [1031usize, 2048] {
        for seed in 0..4u64 {
            let name = format!("k={k} seed={seed}");
            cases.push((name, problem(k, 0x5eed ^ (k as u64) << 8 ^ seed)));
        }
    }
    cases.push(("graded k=1031".into(), regime_problem(1031, true, 0x6ead)));
    cases.push((
        "clustered k=1031".into(),
        regime_problem(1031, false, 0xc105),
    ));
    for (name, scalar) in [("dispatched", false), ("scalar", true)] {
        for (case, (d, z, rho)) in &cases {
            let (k, rho) = (d.len(), *rho);
            let p = SecularProblem::new(d, z, rho).unwrap();
            let (mut certified, mut swept, mut sweeps, mut worst) = (0, 0, 0, 0.0f64);
            let mut check = vec![0.0; k];
            panel_order(&p, k, scalar, |j, root, (iters, _, was_certified)| {
                sweeps += iters;
                if was_certified == 0 {
                    swept += 1;
                    return;
                }
                certified += 1;
                let split = if j + 1 == k { k - 1 } else { j + 1 };
                let s = SecularKernels::SCALAR.sweep(
                    d,
                    d[root.origin],
                    root.mu,
                    z,
                    split..split,
                    &mut check,
                );
                let (f, fabs) = (1.0 + rho * s.val, 1.0 + rho * s.abs);
                let ratio = f.abs() / (8.0 * f64::EPSILON * k as f64 * fabs);
                assert!(ratio <= 1.0, "{name} {case} root {j}: |f|/tol = {ratio:.3}");
                worst = worst.max(ratio);
            });
            println!(
                "certification {name} {case}: certified {certified} / swept {swept}, \
                 sweeps per root {:.3}, worst |f|/tol {worst:.3}",
                sweeps as f64 / k as f64
            );
        }
    }
}
