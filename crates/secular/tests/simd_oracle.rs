//! The secular kernels against the retained scalar oracles: the
//! dispatched path through the public API (property tests), and every
//! instance this CPU runs — AVX2 and AVX-512, not only the dispatched one —
//! called directly through [`SecularKernels::runnable`].
//!
//! Sizes sweep the edge cases around the 4- and 8-lane widths
//! (`k ∈ {1, 3, 4, 7, 8, 9, 16, 17, 31, 257}`: sub-vector, exact multiples,
//! tails) and one size, 1031, above the crossover where the root finder's
//! step keeps the poles around a root exact and a panel's roots start from
//! the root before. The pole configurations include clustered,
//! denormal-scale and huge-magnitude `dlamda` gaps — the regimes where a
//! vectorized rewrite of the sweeps could diverge from the scalar bodies.
//!
//! Per instance: the AVX2 local-W products and assembly quotients are the
//! scalar ones bit for bit (it divides, element-wise, as the scalar body
//! does). AVX-512 forms each quotient as `a·r` with a refined reciprocal,
//! within [`QUOT_ULPS`] of the division, so its assembly quotients stay
//! within that and a local-W product of `m` factors within
//! `QUOT_ULPS · m` ulp. Sweep and row sums of both reassociate, within
//! 1e-12 relative. `every_k_and_regime_covered` prints
//! `secular kernels <level>: ran|skipped` per instance: a green run on a
//! host without AVX-512 is not coverage of that instance.

use dcst_matrix::SimdLevel;
use dcst_secular::*;
use proptest::prelude::*;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Dispatch edge cases around the 4- and 8-lane vector widths, one size
/// big enough that every unrolled segment of the kernels is exercised, and
/// one above the root finder's windowed-step crossover.
const K_SET: [usize; 11] = [1, 3, 4, 7, 8, 9, 16, 17, 31, 257, 1031];

const REGIMES: usize = 5;

/// The case past [`REGIMES`] that only the stored-roots test runs: regime
/// 0 with its last root replaced by one 2⁻¹⁰³⁰ above its pole (the root a
/// far smaller ρ would give), whose δ at that pole is subnormal — `1/δ`
/// overflows, so the column's AVX-512 assembly pass trips the reciprocal
/// guard and is redone with `vdivpd`.
const GUARD_REGIME: usize = REGIMES;

/// Bound, in ulp, on one AVX-512 quotient against the division.
const QUOT_ULPS: u64 = 2;

/// The vector instances by name, each with its row if this CPU runs it.
fn instances() -> [(&'static str, Option<SecularKernels>); 2] {
    [
        ("avx2", SecularKernels::runnable(SimdLevel::Avx2)),
        ("avx512", SecularKernels::runnable(SimdLevel::Avx512)),
    ]
}

/// The instances this CPU runs, the scalar row first.
fn runnable_rows() -> Vec<(&'static str, SecularKernels)> {
    let mut rows = vec![("scalar", SecularKernels::SCALAR)];
    rows.extend(
        instances()
            .into_iter()
            .filter_map(|(n, r)| r.map(|r| (n, r))),
    );
    rows
}

/// Whether a row's quotients are the division's, bit for bit.
fn divides(row: &SecularKernels) -> bool {
    row.level() != SimdLevel::Avx512
}

/// Distance in units in the last place, across zero (±0 are one value).
fn ulps(a: f64, b: f64) -> u64 {
    let key = |x: f64| {
        let b = x.to_bits() as i64;
        if b < 0 {
            i64::MIN - b
        } else {
            b
        }
    };
    key(a).abs_diff(key(b))
}

/// A secular problem `D + ρzzᵀ` in one of five gap regimes:
///
/// 0. uniform O(1) gaps with jitter, ρ log-uniform in `[1e-6, 1e6]`;
/// 1. clustered pairs — gaps alternate `1.0` and `1e-13`;
/// 2. tiny scale — the whole spectrum (gaps and ρ) scaled by `1e-60`,
///    pushing the ψ′/φ′ sweep terms to ~1e119 while keeping their
///    products finite;
/// 3. huge scale — scaled by `1e150`, driving the derivative terms
///    `z²/δ²` down to denormals;
/// 4. mixed — gap magnitudes log-uniform across 15 decades below the
///    running sum they are added to (at least 1), so that no gap is
///    absorbed by the pole before it.
fn gen_problem(k: usize, regime: usize, seed: u64) -> (Vec<f64>, Vec<f64>, f64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (gaps, rho): (Vec<f64>, f64) = match regime {
        0 => (
            (0..k).map(|_| rng.gen_range(0.2..2.0)).collect(),
            10f64.powf(rng.gen_range(-6.0..6.0)),
        ),
        1 => (
            (0..k)
                .map(|i| if i % 2 == 0 { 1.0 } else { 1e-13 })
                .collect(),
            rng.gen_range(0.5..2.0),
        ),
        2 => (
            (0..k).map(|_| rng.gen_range(0.2..2.0) * 1e-60).collect(),
            rng.gen_range(0.5..2.0) * 1e-60,
        ),
        3 => (
            (0..k).map(|_| rng.gen_range(0.2..2.0) * 1e150).collect(),
            rng.gen_range(0.5..2.0) * 1e150,
        ),
        // Relative exponents here; the loop below scales them.
        _ => (
            (0..k).map(|_| rng.gen_range(-15.0..0.0)).collect(),
            10f64.powf(rng.gen_range(-3.0..3.0)),
        ),
    };
    // The first pole at the regime's own scale: an O(1) start would absorb
    // every 1e-60 gap and hand the solver k equal poles, which it rejects.
    let scale = match regime {
        2 => 1e-60,
        3 => 1e150,
        _ => 1.0,
    };
    let mut d = Vec::with_capacity(k);
    let mut acc: f64 = rng.gen_range(-1.0..1.0) * scale;
    for g in gaps {
        d.push(acc);
        acc += if regime == 4 {
            10f64.powf(g) * acc.abs().max(1.0)
        } else {
            g
        };
    }
    // Unit-norm z bounded away from 0 (deflation would have removed
    // small components before the solver ever sees them).
    let mut z: Vec<f64> = (0..k)
        .map(|_| rng.gen_range(0.1..1.0) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
        .collect();
    let nrm = z.iter().map(|x| x * x).sum::<f64>().sqrt();
    for x in &mut z {
        *x /= nrm;
    }
    (d, z, rho)
}

/// Bit patterns of a float slice, for NaN-safe exact-equality checks.
fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// Width of the bracketing interval for root `j` (the secular roots
/// interlace the poles; the last root lives in `(d_{k-1}, d_{k-1} + ρ‖z‖²]`).
fn bracket_width(j: usize, d: &[f64], rho: f64) -> f64 {
    if j + 1 < d.len() {
        d[j + 1] - d[j]
    } else {
        rho // ‖z‖ = 1
    }
}

/// Solve all roots of one problem, dispatched and scalar, and fill the two
/// column-major delta buffers. Returns `(lam_simd, lam_scalar)`;
/// `None` entries mean both paths failed identically.
#[allow(clippy::type_complexity)]
fn solve_both(
    d: &[f64],
    z: &[f64],
    rho: f64,
    da: &mut [f64],
    db: &mut [f64],
) -> Result<(Vec<Option<f64>>, Vec<Option<f64>>), TestCaseError> {
    let k = d.len();
    let mut la = vec![None; k];
    let mut lb = vec![None; k];
    for j in 0..k {
        let ra = solve_secular_root(j, d, z, rho, &mut da[j * k..(j + 1) * k]);
        let rb = SecularProblem::new(d, z, rho)
            .and_then(|p| p.solve_root_scalar(j, &mut db[j * k..(j + 1) * k]))
            .map(|root| root.lambda);
        prop_assert_eq!(
            ra.is_ok(),
            rb.is_ok(),
            "root {} convergence differs: simd {:?} vs scalar {:?}",
            j,
            ra,
            rb
        );
        la[j] = ra.ok();
        lb[j] = rb.ok();
    }
    Ok((la, lb))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The dispatched LAED4 agrees with the scalar oracle: same
    /// convergence outcome, interlaced roots, and pole distances matching
    /// to far better than the secular stopping tolerance.
    #[test]
    fn laed4_matches_scalar_oracle(
        ki in 0usize..K_SET.len(),
        regime in 0usize..REGIMES,
        seed in 0u64..1 << 32,
    ) {
        let k = K_SET[ki];
        let (d, z, rho) = gen_problem(k, regime, seed);
        let mut da = vec![0.0f64; k * k];
        let mut db = vec![0.0f64; k * k];
        let (la, lb) = solve_both(&d, &z, rho, &mut da, &mut db)?;
        for j in 0..k {
            let (Some(lam_a), Some(lam_b)) = (la[j], lb[j]) else {
                continue;
            };
            let width = bracket_width(j, &d, rho);
            // Interlacing: both roots sit strictly above their pole and
            // within the bracket (tiny slack for the last rounding).
            for (tag, lam) in [("simd", lam_a), ("scalar", lam_b)] {
                prop_assert!(
                    lam >= d[j] && lam <= d[j] + width * (1.0 + 1e-12) + 1e-300,
                    "{} root {} escapes its bracket: lam={:e} d[j]={:e} width={:e}",
                    tag, j, lam, d[j], width
                );
            }
            // Pole distances: delta columns differ by at most the root
            // difference, which both solvers pin far below the bracket.
            let tol = 1e-8 * width + 1e-13 * lam_b.abs() + 1e-300;
            for i in 0..k {
                let (a, b) = (da[j * k + i], db[j * k + i]);
                if !a.is_finite() && !b.is_finite() {
                    continue; // both paths overflowed the same way
                }
                prop_assert!(
                    (a - b).abs() <= tol,
                    "delta[{}] of root {} differs: simd {:e} scalar {:e} tol {:e} (k={}, regime={})",
                    i, j, a, b, tol, k, regime
                );
            }
        }
    }

    /// Every instance's Gu–Eisenstat partial products against the scalar
    /// ones — bit-identical on AVX2, within `QUOT_ULPS` per factor on
    /// AVX-512 — for the full range and for panels handed in as offset
    /// column slices; and the dispatched `local_w_products` is its
    /// instance's column loop, bit for bit.
    #[test]
    fn local_w_bit_identical(
        ki in 0usize..K_SET.len(),
        regime in 0usize..REGIMES,
        seed in 0u64..1 << 32,
    ) {
        let k = K_SET[ki];
        let (d, z, rho) = gen_problem(k, regime, seed);
        let mut deltas = vec![0.0f64; k * k];
        let mut db = vec![0.0f64; k * k];
        solve_both(&d, &z, rho, &mut deltas, &mut db)?;
        let dispatched = SecularKernels::dispatched();
        prop_assert_eq!(
            bits(&local_w_products(&d, &deltas, k, 0, 0..k)),
            bits(&products(&dispatched, &d, &deltas, 0, 0..k))
        );
        // Panel split with a column-offset buffer, as the task flow does.
        let h = k / 2;
        let panels = [(&deltas[..], 0, 0..k), (&deltas[..h * k], 0, 0..h), (&deltas[h * k..], h, h..k)];
        for (name, row) in runnable_rows() {
            for (cols, col0, range) in panels.clone() {
                let m = range.len();
                let want = products(&SecularKernels::SCALAR, &d, cols, col0, range.clone());
                let got = products(&row, &d, cols, col0, range);
                if let Some(msg) = products_mismatch(&row, &got, &want, m) {
                    prop_assert!(false, "{} k={} regime={}: {}", name, k, regime, msg);
                }
            }
        }
        let hi = local_w_products(&d, &deltas[h * k..], k, h, h..k);
        prop_assert_eq!(bits(&hi), bits(&products(&dispatched, &d, &deltas[h * k..], h, h..k)));
    }

    /// Assembled eigenvector columns match the scalar oracle to a few
    /// ulps (the SIMD norm reduction reassociates the sum) and stay unit
    /// norm, under an arbitrary slot permutation.
    #[test]
    fn assemble_matches_scalar_oracle(
        ki in 0usize..K_SET.len(),
        regime in 0usize..REGIMES,
        seed in 0u64..1 << 32,
    ) {
        let k = K_SET[ki];
        let (d, z, rho) = gen_problem(k, regime, seed);
        let mut deltas = vec![0.0f64; k * k];
        let mut db = vec![0.0f64; k * k];
        let (la, _) = solve_both(&d, &z, rho, &mut deltas, &mut db)?;
        if la.iter().any(|l| l.is_none()) {
            return Ok(()); // both solvers gave up on this configuration
        }
        let partials = vec![local_w_products(&d, &deltas, k, 0, 0..k)];
        let zhat = reduce_w(&z, &partials);
        // Random slot permutation (Fisher–Yates).
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xa55a);
        let mut sec_to_slot: Vec<usize> = (0..k).collect();
        for i in (1..k).rev() {
            sec_to_slot.swap(i, rng.gen_range(0..i + 1));
        }
        let mut cols_simd = deltas.clone();
        let mut cols_scalar = deltas.clone();
        assemble_vectors(&zhat, &mut cols_simd, k, 0, 0..k, &sec_to_slot);
        assemble_vectors_scalar(&zhat, &mut cols_scalar, k, 0, 0..k, &sec_to_slot);
        for j in 0..k {
            let mut nrm2 = 0.0;
            let mut finite = true;
            for i in 0..k {
                let (a, b) = (cols_simd[j * k + i], cols_scalar[j * k + i]);
                if !a.is_finite() && !b.is_finite() {
                    finite = false; // both paths overflowed the same way
                    continue;
                }
                prop_assert!(
                    (a - b).abs() <= 1e-12 * b.abs() + 1e-300,
                    "column {} row {} differs: simd {:e} scalar {:e} (k={}, regime={})",
                    j, i, a, b, k, regime
                );
                nrm2 += a * a;
            }
            prop_assert!(
                !finite || (nrm2.sqrt() - 1.0).abs() < 1e-12,
                "column {} not unit norm: {:e}",
                j,
                nrm2.sqrt()
            );
        }
    }

    /// The vectorized max-|x| reduction is exact — including over
    /// denormals, signed zeros and huge magnitudes.
    #[test]
    fn max_abs_matches_scalar_exactly(
        len in 0usize..600,
        seed in 0u64..1 << 32,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let x: Vec<f64> = (0..len)
            .map(|_| {
                let m = rng.gen_range(-1.0..1.0);
                match rng.gen_range(0usize..5) {
                    0 => m * 1e-310,           // denormal
                    1 => m * f64::MAX * 0.5,   // near-overflow
                    2 => 0.0 * m.signum(),     // signed zero
                    3 => m * 1e-160,
                    _ => m,
                }
            })
            .collect();
        prop_assert_eq!(max_abs(&x), max_abs_scalar(&x));
    }
}

/// Gu–Eisenstat partial products over the roots `range` on one row: the
/// column loop of `local_w_products`, with column `j` at `cols[(j −
/// col0)·k..]`.
fn products(
    row: &SecularKernels,
    d: &[f64],
    cols: &[f64],
    col0: usize,
    range: std::ops::Range<usize>,
) -> Vec<f64> {
    let k = d.len();
    let mut out = vec![1.0f64; k];
    for j in range {
        let c = (j - col0) * k;
        row.local_w_col(d, &cols[c..c + k], j, &mut out);
    }
    out
}

/// Why a row's products of `m` factors are not the scalar ones `want`:
/// a dividing row must match bit for bit, AVX-512 to `QUOT_ULPS · m` ulp.
fn products_mismatch(row: &SecularKernels, got: &[f64], want: &[f64], m: usize) -> Option<String> {
    let bound = if divides(row) {
        0
    } else {
        QUOT_ULPS * m as u64
    };
    got.iter()
        .zip(want)
        .enumerate()
        .find(|(_, (g, w))| ulps(**g, **w) > bound)
        .map(|(i, (g, w))| {
            format!(
                "product {i}: {g:e} vs {w:e} ({} ulp > {bound})",
                ulps(*g, *w)
            )
        })
}

/// `|got − want| ≤ 1e-12 · scale`, plus a subnormal's worth for sums whose
/// terms underflow; both non-finite passes.
fn close(got: f64, want: f64, scale: f64) -> bool {
    (!got.is_finite() && !want.is_finite())
        || (got - want).abs() <= 1e-12 * scale.abs() + f64::MIN_POSITIVE
}

/// Each kernel of `row` on one problem, against the scalar row, fed with
/// the scalar solver's roots and pole distances: the sweep at every root,
/// the local-W products, the assembly quotients and norms, the row sums.
fn check_row(name: &str, row: &SecularKernels, d: &[f64], z: &[f64], rho: f64, case: &str) {
    let k = d.len();
    let scalar = SecularKernels::SCALAR;
    let problem = SecularProblem::new(d, z, rho).unwrap();
    let mut deltas = vec![0.0f64; k * k];
    let mut roots = Vec::with_capacity(k);
    for (j, col) in deltas.chunks_exact_mut(k).enumerate() {
        let Ok(root) = problem.solve_root_scalar(j, col) else {
            return; // no oracle to compare with
        };
        roots.push(root);
    }
    for (j, root) in roots.iter().enumerate() {
        let split = if j + 1 == k { k - 1 } else { j + 1 };
        let (mut da, mut db) = (vec![0.0; k], vec![0.0; k]);
        let a = row.sweep(d, d[root.origin], root.mu, z, split..split, &mut da);
        let b = scalar.sweep(d, d[root.origin], root.mu, z, split..split, &mut db);
        assert_eq!(bits(&da), bits(&db), "{name} {case} root {j}: delta fill");
        for (what, x, y, scale) in [
            ("val", a.val, b.val, b.abs),
            ("abs", a.abs, b.abs, b.abs),
            ("psi_p", a.psi_p, b.psi_p, b.psi_p),
            ("phi_p", a.phi_p, b.phi_p, b.phi_p),
        ] {
            assert!(
                close(x, y, scale),
                "{name} {case} root {j}: {what} {x:e} vs {y:e}"
            );
        }
    }

    let want = products(&scalar, d, &deltas, 0, 0..k);
    let got = products(row, d, &deltas, 0, 0..k);
    if let Some(msg) = products_mismatch(row, &got, &want, k) {
        panic!("{name} {case}: {msg}");
    }

    let zhat = reduce_w(z, &[want]);
    let (mut ta, mut tb) = (vec![0.0; k], vec![0.0; k]);
    let bound = if divides(row) { 0 } else { QUOT_ULPS };
    for (j, col) in deltas.chunks_exact(k).enumerate() {
        let (a, _) = row.assemble_col(&zhat, col, &mut ta);
        let (b, _) = scalar.assemble_col(&zhat, col, &mut tb);
        for (i, (x, y)) in ta.iter().zip(&tb).enumerate() {
            assert!(
                ulps(*x, *y) <= bound,
                "{name} {case} column {j} row {i}: {x:e} vs {y:e} ({} ulp)",
                ulps(*x, *y)
            );
        }
        assert!(
            close(a, b, b),
            "{name} {case} column {j}: norm² {a:e} vs {b:e}"
        );
    }

    let mut rng = ChaCha8Rng::seed_from_u64(k as u64 ^ 0x726f77);
    let wf: Vec<f64> = (0..k).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let wl: Vec<f64> = (0..k).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let norm = |w: &[f64]| w.iter().map(|x| x * x).sum::<f64>().sqrt();
    for (j, root) in roots.iter().enumerate() {
        let a = row.row_sums(d, d[root.origin], root.mu, &zhat, &wf, &wl);
        let b = scalar.row_sums(d, d[root.origin], root.mu, &zhat, &wf, &wl);
        let x = b.nrm2.sqrt();
        for (what, g, w, scale) in [
            ("nrm2", a.nrm2, b.nrm2, b.nrm2),
            ("first", a.first, b.first, norm(&wf) * x),
            ("last", a.last, b.last, norm(&wl) * x),
        ] {
            assert!(
                close(g, w, scale),
                "{name} {case} root {j}: {what} {g:e} vs {w:e}"
            );
        }
    }
}

/// Deterministic spot-check: every k in the edge set gets one case per
/// regime regardless of how the proptest rng samples, so a lane/tail bug
/// cannot hide behind sampling luck. Every generated problem is a valid
/// one. The dispatched solver converges where the scalar one does, cold
/// and in panel order; a panel's warm-started roots are the cold ones to
/// the oracle's tolerance and rebuild their pole distances from
/// `(μ, origin)` bit for bit. Every instance this CPU runs passes
/// `check_row` — the local-W products bit-identical on AVX2, within
/// `QUOT_ULPS · k` on AVX-512. Prints which instances ran.
#[test]
fn every_k_and_regime_covered() {
    for (ki, &k) in K_SET.iter().enumerate() {
        for regime in 0..REGIMES {
            let (d, z, rho) = gen_problem(k, regime, (ki * REGIMES + regime) as u64);
            let case = format!("k={k} regime={regime}");
            let problem = SecularProblem::new(&d, &z, rho)
                .unwrap_or_else(|e| panic!("{case}: generated an invalid problem: {e}"));
            let mut da = vec![0.0f64; k * k];
            let mut db = vec![0.0f64; k * k];
            for j in 0..k {
                let ra = solve_secular_root(j, &d, &z, rho, &mut da[j * k..(j + 1) * k]);
                let rb = problem.solve_root_scalar(j, &mut db[j * k..(j + 1) * k]);
                assert_eq!(ra.is_ok(), rb.is_ok(), "{case} root {j}");
            }
            // Panel order, runs of 64 as a merge's LAED4 tasks solve them.
            let mut col = vec![0.0f64; k];
            for (tag, cold) in [("simd", &da), ("scalar", &db)] {
                for run in (0..k).step_by(64) {
                    let mut roots = if tag == "simd" {
                        problem.panel()
                    } else {
                        problem.panel_scalar()
                    };
                    for j in run..(run + 64).min(k) {
                        let root = roots.solve_root(j, &mut col).unwrap();
                        let rebuilt: Vec<f64> = d
                            .iter()
                            .map(|&di| (di - d[root.origin]) - root.mu)
                            .collect();
                        assert_eq!(bits(&rebuilt), bits(&col), "{tag} {case} root {j}");
                        // λ_j from the cold column: d_j − δ_j.
                        let want = d[j] - cold[j * k + j];
                        let tol = 1e-8 * bracket_width(j, &d, rho) + 1e-13 * want.abs();
                        assert!(
                            (root.lambda - want).abs() <= tol,
                            "{tag} {case} root {j}: panel {:e} vs cold {want:e}",
                            root.lambda
                        );
                    }
                }
            }
        }
    }
    for (name, row) in instances() {
        let Some(row) = row else {
            println!("secular kernels {name}: skipped (no CPU support)");
            continue;
        };
        let mut cases = 0;
        for (ki, &k) in K_SET.iter().enumerate() {
            for regime in 0..REGIMES {
                let (d, z, rho) = gen_problem(k, regime, (ki * REGIMES + regime) as u64);
                check_row(name, &row, &d, &z, rho, &format!("k={k} regime={regime}"));
                cases += 1;
            }
        }
        println!("secular kernels {name}: ran ({cases} problems)");
    }
}

/// `δ` for the guard test: two full 8-lane registers and a one-lane tail,
/// `special` in the odd lanes of the registers and ordinary poles between.
fn guard_deltas(special: [f64; 8]) -> Vec<f64> {
    (0..17)
        .map(|i| {
            if i % 2 == 1 && i < 16 {
                special[i / 2]
            } else {
                (0.5 + 0.37 * i as f64) * if i % 4 == 0 { 1.0 } else { -1.0 }
            }
        })
        .collect()
}

/// The pole distances where `vrcp14pd` cannot serve: `1/δ` overflows
/// (2⁻¹⁰³⁰, the subnormal 2⁻¹⁰⁷⁴), is near the top of the range (1e-300)
/// or near the bottom (2¹⁰²⁰), or — the second set — is subnormal and
/// flushed to zero (2¹⁰²², 2¹⁰²³, `f64::MAX`), with `MIN_POSITIVE` beside.
/// Every instance must give each quotient lane the class and sign the
/// division gives it (finite, +∞ or −∞) and, where finite, a value within
/// `QUOT_ULPS`; its sweep and row sums must stay finite wherever the
/// scalar oracle's are.
#[test]
fn reciprocal_guard_keeps_division_classes() {
    let p = |e: i32| 2f64.powi(e);
    let sets = [
        [
            p(-1030),
            -p(-1030),
            1e-300,
            -1e-300,
            p(-1074),
            -p(-1074),
            p(1020),
            -p(1020),
        ],
        [
            p(1022),
            -p(1022),
            p(1023),
            -p(1023),
            f64::MAX,
            -f64::MAX,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
        ],
    ];
    let class = |x: f64| match x {
        _ if x.is_nan() => 2,
        _ if x.is_finite() => 0,
        _ => x.signum() as i32,
    };
    let scalar = SecularKernels::SCALAR;
    for (name, row) in runnable_rows() {
        for special in sets {
            let delta = guard_deltas(special);
            let k = delta.len();
            // Quotient lanes: numerators that overflow against the tiny
            // poles (1) and ones that keep every quotient finite (2⁻⁶⁰).
            for num in [1.0, p(-60)] {
                let zhat: Vec<f64> = (0..k)
                    .map(|i| if i % 3 == 0 { -num } else { num })
                    .collect();
                let (mut ta, mut tb) = (vec![0.0; k], vec![0.0; k]);
                row.assemble_col(&zhat, &delta, &mut ta);
                scalar.assemble_col(&zhat, &delta, &mut tb);
                // local-W against pole 16 at 0: out[i] = zhat[i]/δ[i].
                let mut dl = delta.clone();
                dl[16] = 0.0;
                let (mut wa, mut wb) = (vec![1.0; k], vec![1.0; k]);
                row.local_w_col(&dl, &zhat, 16, &mut wa);
                scalar.local_w_col(&dl, &zhat, 16, &mut wb);
                for (what, a, b) in [("assemble", &ta, &tb), ("local_w", &wa, &wb)] {
                    for i in 0..k {
                        let (x, y) = (a[i], b[i]);
                        assert_eq!(
                            class(x),
                            class(y),
                            "{name} {what} lane {i} (δ={:e}): {x:e} vs {y:e}",
                            delta[i]
                        );
                        assert!(
                            !y.is_finite()
                                || (x.is_sign_negative() == y.is_sign_negative()
                                    && ulps(x, y) <= QUOT_ULPS),
                            "{name} {what} lane {i} (δ={:e}): {x:e} vs {y:e}",
                            delta[i]
                        );
                    }
                }
            }
            // Sums: z keeps z²/δ representable in both the scalar form and
            // the vector's (z/δ)·z; split 8 puts each register on one side.
            let z: Vec<f64> = (0..k)
                .map(|i| if i % 2 == 1 && i < 16 { p(-530) } else { 0.3 })
                .collect();
            let (mut da, mut db) = (vec![0.0; k], vec![0.0; k]);
            let a = row.sweep(&delta, 0.0, 0.0, &z, 8..8, &mut da);
            let b = scalar.sweep(&delta, 0.0, 0.0, &z, 8..8, &mut db);
            assert_eq!(bits(&da), bits(&delta), "{name}: (δ − 0) − 0 = δ");
            // The sides here are not one-signed, so `abs` (|ψ| + |φ|) is not
            // Σ|t|: the reassociation scale is Σ|t| itself.
            let sum_abs: f64 = (0..k).map(|i| (z[i] * z[i] / delta[i]).abs()).sum();
            for (what, x, y, scale) in [
                ("val", a.val, b.val, sum_abs),
                ("abs", a.abs, b.abs, sum_abs),
                ("psi_p", a.psi_p, b.psi_p, b.psi_p),
                ("phi_p", a.phi_p, b.phi_p, b.phi_p),
            ] {
                assert!(
                    !y.is_finite() || close(x, y, scale),
                    "{name} sweep {what}: {x:e} vs {y:e}"
                );
            }
            // A windowed sweep of the same terms: the far sides' moments
            // M₀…M₃, each against Σ|z²/δⁿ⁺¹| over its side.
            let (a, b) = (
                row.sweep(&delta, 0.0, 0.0, &z, 8..9, &mut da),
                scalar.sweep(&delta, 0.0, 0.0, &z, 8..9, &mut db),
            );
            let moment_abs = |n: i32, side: std::ops::Range<usize>| -> f64 {
                side.map(|i| (z[i] * z[i] / delta[i].powi(n + 1)).abs())
                    .sum()
            };
            for (s, (ma, mb)) in a.moments().iter().zip(b.moments()).enumerate() {
                let side = if s == 0 { 0..8 } else { 9..k };
                for n in 0..4 {
                    let (x, y) = (ma[n], mb[n]);
                    assert!(
                        !y.is_finite() || close(x, y, moment_abs(n as i32, side.clone())),
                        "{name} sweep side {s} M{n}: {x:e} vs {y:e}"
                    );
                }
            }
            let w: Vec<f64> = (0..k).map(|i| 1.0 - 0.1 * i as f64).collect();
            let a = row.row_sums(&delta, 0.0, 0.0, &z, &w, &w);
            let b = scalar.row_sums(&delta, 0.0, 0.0, &z, &w, &w);
            let scale = b.nrm2.sqrt() * w.iter().map(|x| x * x).sum::<f64>().sqrt();
            for (what, x, y, scale) in [
                ("nrm2", a.nrm2, b.nrm2, b.nrm2),
                ("first", a.first, b.first, scale),
            ] {
                assert!(
                    !y.is_finite() || close(x, y, scale),
                    "{name} row {what}: {x:e} vs {y:e}"
                );
            }
        }
    }
}

/// X as the vector payload used to store it: `row`'s assembly of the
/// solver's delta columns, rows permuted by `sec_to_slot` — the loop of
/// `assemble_vectors`, on any instance.
fn assemble_on(
    row: &SecularKernels,
    zhat: &[f64],
    deltas: &[f64],
    sec_to_slot: &[usize],
) -> Vec<f64> {
    let k = zhat.len();
    let mut x = deltas.to_vec();
    let mut tmp = vec![0.0; k];
    for col in x.chunks_exact_mut(k) {
        let (nrm2, _) = row.assemble_col(zhat, col, &mut tmp);
        let inv = 1.0 / nrm2.sqrt();
        for i in 0..k {
            col[sec_to_slot[i]] = tmp[i] * inv;
        }
    }
    x
}

/// What a merge keeps of a root is `(μ, origin)`: over the same grid, on
/// the dispatched and the scalar path, that pair rebuilds the solver's
/// delta column bit for bit, and the fused row kernel fed with it agrees
/// with assembling the vector (`assemble_vectors_scalar`) and taking plain
/// dots, to a few ulp·√k — SIMD against scalar likewise.
///
/// And on every instance, over the grid plus [`GUARD_REGIME`]: the block
/// [`SecularGenerators::assemble`] makes of a panel of stored roots is bit
/// for bit the solver's delta columns assembled (`assemble_vectors` itself
/// on the dispatched instance), and every [`GeneratedX::entry`] `(i, j)` is
/// that block's `(sec_to_slot[i], j)` — including in the columns whose
/// AVX-512 pass was redone with the division.
#[test]
fn stored_roots_rebuild_deltas_and_row_entries() {
    let mut redone = 0;
    for (ki, &k) in K_SET.iter().enumerate() {
        for regime in 0..=GUARD_REGIME {
            let cell = (ki * REGIMES + regime) as u64;
            let (d, z, rho) = gen_problem(k, regime % GUARD_REGIME, cell);
            let problem = SecularProblem::new(&d, &z, rho).unwrap();
            let mut deltas = vec![0.0f64; k * k];
            let mut col = vec![0.0f64; k];
            let mut roots: Vec<SecularRoot> = Vec::with_capacity(k);
            for j in 0..k {
                let rebuilt = |r: &SecularRoot| -> Vec<f64> {
                    d.iter().map(|&di| (di - d[r.origin]) - r.mu).collect()
                };
                let scalar = problem.solve_root_scalar(j, &mut col).unwrap();
                assert_eq!(
                    bits(&rebuilt(&scalar)),
                    bits(&col),
                    "scalar k={k} regime={regime} root {j}"
                );
                let delta = &mut deltas[j * k..(j + 1) * k];
                let root = problem.solve_root(j, delta).unwrap();
                assert_eq!(
                    bits(&rebuilt(&root)),
                    bits(delta),
                    "simd k={k} regime={regime} root {j}"
                );
                assert_eq!(root.lambda, d[root.origin] + root.mu);
                roots.push(root);
            }

            let zhat = reduce_w(&z, &[local_w_products(&d, &deltas, k, 0, 0..k)]);
            if regime == GUARD_REGIME {
                let last = &mut roots[k - 1];
                (last.mu, last.origin) = (2f64.powi(-1030), k - 1);
                for (de, &di) in deltas[(k - 1) * k..].iter_mut().zip(&d) {
                    *de = (di - d[k - 1]) - last.mu;
                }
            }
            let mu: Vec<f64> = roots.iter().map(|r| r.mu).collect();
            let origin: Vec<u32> = roots.iter().map(|r| r.origin as u32).collect();
            let mut rng = ChaCha8Rng::seed_from_u64(cell ^ 0x51075);
            let mut sec_to_slot: Vec<usize> = (0..k).collect();
            for i in (1..k).rev() {
                sec_to_slot.swap(i, rng.gen_range(0..i + 1));
            }
            let dispatched = SecularKernels::dispatched().level();
            for (name, row) in runnable_rows() {
                let case = format!("{name} k={k} regime={regime}");
                let want = assemble_on(&row, &zhat, &deltas, &sec_to_slot);
                if row.level() == dispatched {
                    let mut x = deltas.clone();
                    assemble_vectors(&zhat, &mut x, k, 0, 0..k, &sec_to_slot);
                    assert_eq!(bits(&x), bits(&want), "{case}: assemble_vectors");
                }
                // Two panels, as the update's panel tasks split the roots.
                let h = k / 2;
                for cols in [0..h, h..k] {
                    let panel = SecularGenerators {
                        dlamda: &d,
                        zhat: &zhat,
                        mu: &mu[cols.clone()],
                        origin: &origin[cols.clone()],
                    };
                    let mut block = vec![f64::NAN; k * cols.len()];
                    panel.assemble(&row, &sec_to_slot, &mut block, k);
                    assert_eq!(
                        bits(&block),
                        bits(&want[cols.start * k..cols.end * k]),
                        "{case}: panel {cols:?}"
                    );
                }
                let generators = SecularGenerators {
                    dlamda: &d,
                    zhat: &zhat,
                    mu: &mu,
                    origin: &origin,
                };
                let norms = generators.norms(row);
                let x = generators.entries(&norms);
                for j in 0..k {
                    for i in 0..k {
                        let (got, want) = (x.entry(i, j), want[j * k + sec_to_slot[i]]);
                        assert_eq!(got.to_bits(), want.to_bits(), "{case}: entry ({i}, {j})");
                    }
                }
                if row.level() == SimdLevel::Avx512 {
                    let mut tmp = vec![0.0; k];
                    redone += deltas
                        .chunks_exact(k)
                        .filter(|col| row.assemble_col(&zhat, col, &mut tmp).1)
                        .count();
                }
            }

            if regime == GUARD_REGIME {
                continue; // the replaced root solves no secular equation
            }
            let mut rng = ChaCha8Rng::seed_from_u64(k as u64 ^ 0x726f77);
            let wf: Vec<f64> = (0..k).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let wl: Vec<f64> = (0..k).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let ident: Vec<usize> = (0..k).collect();
            assemble_vectors_scalar(&zhat, &mut deltas, k, 0, 0..k, &ident);
            let norm = |w: &[f64]| w.iter().map(|x| x * x).sum::<f64>().sqrt();
            let tol = 8.0 * f64::EPSILON * (k as f64).sqrt();
            for (j, root) in roots.iter().enumerate() {
                let x = &deltas[j * k..(j + 1) * k];
                if !x.iter().all(|v| v.is_finite()) {
                    continue; // the oracle overflowed
                }
                let dot = |w: &[f64]| w.iter().zip(x).map(|(a, b)| a * b).sum::<f64>();
                let want = (dot(&wf), dot(&wl));
                let simd = secular_row_entries(&d, root.origin, root.mu, &zhat, &wf, &wl);
                let scalar = secular_row_entries_scalar(&d, root.origin, root.mu, &zhat, &wf, &wl);
                for (tag, got) in [("simd", simd), ("scalar", scalar)] {
                    for (g, w, scale) in [(got.0, want.0, norm(&wf)), (got.1, want.1, norm(&wl))] {
                        assert!(
                            (g - w).abs() <= tol * scale,
                            "{tag} k={k} regime={regime} root {j}: {g:e} vs {w:e}"
                        );
                    }
                }
            }
        }
    }
    if SecularKernels::runnable(SimdLevel::Avx512).is_some() {
        assert!(redone > 0, "no AVX-512 assembly pass tripped the guard");
        println!("stored roots: {redone} AVX-512 assembly columns redone with vdivpd");
    }
}
