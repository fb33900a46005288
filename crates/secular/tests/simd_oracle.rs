//! Property tests pitting the dispatched (SIMD on capable hosts) secular
//! kernels against the retained scalar oracles.
//!
//! Sizes sweep the dispatch edge cases around the 4-lane AVX2 width
//! (`k ∈ {1, 3, 4, 7, 8, 31, 257}`: sub-vector, exact multiples, tails)
//! and the pole configurations include clustered, denormal-scale and
//! huge-magnitude `dlamda` gaps — the regimes where a vectorized rewrite
//! of the sweeps could diverge from the scalar bodies. On hosts without
//! AVX2 (or under `DCST_FORCE_SCALAR=1`) both paths resolve to the same
//! scalar body and the comparisons are trivially exact — the tests stay
//! meaningful as oracle self-checks.

use dcst_secular::*;
use proptest::prelude::*;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Dispatch edge cases around the 4-lane vector width, plus one size big
/// enough that every unrolled segment of the kernels is exercised.
const K_SET: [usize; 7] = [1, 3, 4, 7, 8, 31, 257];

const REGIMES: usize = 5;

/// A secular problem `D + ρzzᵀ` in one of five gap regimes:
///
/// 0. uniform O(1) gaps with jitter, ρ log-uniform in `[1e-6, 1e6]`;
/// 1. clustered pairs — gaps alternate `1.0` and `1e-13`;
/// 2. tiny scale — the whole spectrum (gaps and ρ) scaled by `1e-60`,
///    pushing the ψ′/φ′ sweep terms to ~1e119 while keeping their
///    products finite;
/// 3. huge scale — scaled by `1e150`, driving the derivative terms
///    `z²/δ²` down to denormals;
/// 4. mixed — gap magnitudes log-uniform across 15 decades.
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
        _ => (
            (0..k)
                .map(|_| 10f64.powf(rng.gen_range(-13.0..2.0)))
                .collect(),
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
    let mut acc = rng.gen_range(-1.0..1.0) * scale;
    for g in gaps {
        d.push(acc);
        acc += g;
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
        let rb = solve_secular_root_scalar(j, d, z, rho, &mut db[j * k..(j + 1) * k]);
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

    /// The SIMD local-W kernel performs the identical element-wise
    /// operations as the scalar body, so the Gu–Eisenstat partial
    /// products are bit-identical — for the full range and for panels
    /// handed in as offset column slices.
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
        let full_simd = local_w_products(&d, &deltas, k, 0, 0..k);
        let full_scalar = local_w_products_scalar(&d, &deltas, k, 0, 0..k);
        prop_assert_eq!(bits(&full_simd), bits(&full_scalar));
        // Panel split with a column-offset buffer, as the task flow does.
        let h = k / 2;
        if h > 0 {
            let lo = local_w_products(&d, &deltas[..h * k], k, 0, 0..h);
            let lo_ref = local_w_products_scalar(&d, &deltas[..h * k], k, 0, 0..h);
            prop_assert_eq!(bits(&lo), bits(&lo_ref));
            let hi = local_w_products(&d, &deltas[h * k..], k, h, h..k);
            let hi_ref = local_w_products_scalar(&d, &deltas[h * k..], k, h, h..k);
            prop_assert_eq!(bits(&hi), bits(&hi_ref));
        }
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

/// Deterministic spot-check: every k in the dispatch edge set gets at
/// least one exercised case per regime regardless of how the proptest rng
/// samples, so a lane/tail bug cannot hide behind sampling luck.
#[test]
fn every_k_and_regime_covered() {
    for (ki, &k) in K_SET.iter().enumerate() {
        for regime in 0..REGIMES {
            let (d, z, rho) = gen_problem(k, regime, (ki * REGIMES + regime) as u64);
            let mut da = vec![0.0f64; k * k];
            let mut db = vec![0.0f64; k * k];
            for j in 0..k {
                let ra = solve_secular_root(j, &d, &z, rho, &mut da[j * k..(j + 1) * k]);
                let rb = solve_secular_root_scalar(j, &d, &z, rho, &mut db[j * k..(j + 1) * k]);
                assert_eq!(ra.is_ok(), rb.is_ok(), "k={k} regime={regime} root {j}");
            }
            assert_eq!(
                bits(&local_w_products(&d, &da, k, 0, 0..k)),
                bits(&local_w_products_scalar(&d, &da, k, 0, 0..k)),
                "k={k} regime={regime}"
            );
        }
    }
}

/// What values mode keeps of a root is `(μ, origin)`: over the same grid,
/// on the dispatched and the scalar path, that pair rebuilds the solver's
/// delta column bit for bit, and the fused row kernel fed with it agrees
/// with assembling the vector (`assemble_vectors_scalar`) and taking plain
/// dots, to a few ulp·√k — SIMD against scalar likewise.
#[test]
fn stored_roots_rebuild_deltas_and_row_entries() {
    for (ki, &k) in K_SET.iter().enumerate() {
        for regime in 0..REGIMES {
            // The mixed regime can round two poles together: take the
            // first seed of the cell whose problem is a valid one.
            let cell = (ki * REGIMES + regime) as u64;
            let (d, z, rho) = (0u64..)
                .map(|s| gen_problem(k, regime, 1000 * s + cell))
                .find(|(d, z, rho)| SecularProblem::new(d, z, *rho).is_ok())
                .unwrap();
            let problem = SecularProblem::new(&d, &z, rho).unwrap();
            let mut deltas = vec![0.0f64; k * k];
            let mut col = vec![0.0f64; k];
            let mut roots = Vec::with_capacity(k);
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
}
