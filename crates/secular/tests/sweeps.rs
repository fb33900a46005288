//! How many k-term sweeps a secular root costs, solved the way a merge's
//! `LAED4` panels solve them: runs of 64 roots in ascending order, each
//! run's first root cold and the rest warm-started from the root before.
//!
//! The counts come from the process-global `secular.*` counters, which is
//! why this file holds one test: its own binary, so no other test's roots
//! reach them. Run with `--nocapture` to see sweeps per root per instance.

use dcst_matrix::metrics;
use dcst_secular::SecularProblem;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Roots per run, as `DcOptions::default().nb` panels them.
const NB: usize = 64;

/// A secular problem shaped like a merge of a random-spectrum matrix: k
/// poles uniform in [0, 1), ρ in [0.1, 0.5), and a unit z of mixed signs
/// whose weight sits in the middle of the spectrum and decays towards its
/// ends, fastest over the last five poles each side — so the last root is
/// glued to the top pole, as in those merges.
fn problem(k: usize, seed: u64) -> (Vec<f64>, Vec<f64>, f64) {
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

/// `(secular.iters, secular.bisection_rescues)` spent by `f`.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    let before = metrics::snapshot();
    f();
    let spent = metrics::snapshot().delta(&before);
    (
        spent.get("secular.iters"),
        spent.get("secular.bisection_rescues"),
    )
}

/// Mean sweeps per root, interior roots and the last root apart, over
/// four seeds per k, on the dispatched and on the scalar kernels: the
/// interior ones at most 3.2 and the last at most 5, with no bisection
/// rescue. A cold midpoint start and the two-pole step take 4.4 and 6.8–7.8
/// on these problems.
#[test]
fn panel_roots_take_few_sweeps() {
    for (name, scalar) in [("dispatched", false), ("scalar", true)] {
        for k in [1031usize, 2048] {
            let (mut interior, mut last, mut rescues, mut seeds) = (0, 0, 0, 0);
            for seed in 0..4u64 {
                let (d, z, rho) = problem(k, 0x5eed ^ (k as u64) << 8 ^ seed);
                let p = SecularProblem::new(&d, &z, rho).unwrap();
                let mut delta = vec![0.0; k];
                for run in (0..k).step_by(NB) {
                    let mut roots = if scalar { p.panel_scalar() } else { p.panel() };
                    for j in run..(run + NB).min(k) {
                        let (iters, rescued) = counted(|| {
                            roots.solve_root(j, &mut delta).unwrap();
                        });
                        if j + 1 == k {
                            last += iters;
                        } else {
                            interior += iters;
                        }
                        rescues += rescued;
                    }
                }
                seeds += 1;
            }
            let roots = (seeds * (k - 1)) as f64;
            let (interior, last) = (interior as f64 / roots, last as f64 / seeds as f64);
            println!(
                "sweeps per root {name} k={k}: interior {interior:.3}, last {last:.2}, \
                 bisection rescues {rescues}"
            );
            assert!(interior <= 3.2, "{name} k={k}: interior {interior:.3}");
            assert!(last <= 5.0, "{name} k={k}: last {last:.2}");
            assert_eq!(rescues, 0, "{name} k={k}");
        }
    }
}
