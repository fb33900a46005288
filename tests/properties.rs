//! Property-based tests (proptest) on the workspace's core invariants.

use dcst::prelude::*;
use dcst::secular;
use dcst::tridiag::gen::jacobi_from_spectrum;
use proptest::prelude::*;

/// Strategy: a random symmetric tridiagonal with entries in [-scale, scale].
fn arb_tridiag(max_n: usize) -> impl Strategy<Value = SymTridiag> {
    (2usize..max_n).prop_flat_map(|n| {
        (
            proptest::collection::vec(-10.0f64..10.0, n),
            proptest::collection::vec(-10.0f64..10.0, n - 1),
        )
            .prop_map(|(d, e)| SymTridiag::new(d, e))
    })
}

/// Strategy: strictly ascending poles plus unit-ish z for secular problems.
fn arb_secular(max_k: usize) -> impl Strategy<Value = (Vec<f64>, Vec<f64>, f64)> {
    (2usize..max_k).prop_flat_map(|k| {
        (
            proptest::collection::vec(0.01f64..1.0, k),
            proptest::collection::vec(0.05f64..1.0, k),
            0.1f64..4.0,
        )
            .prop_map(|(gaps, mut z, rho)| {
                let mut d = Vec::with_capacity(gaps.len());
                let mut acc = 0.0;
                for g in gaps {
                    acc += g;
                    d.push(acc);
                }
                let nrm: f64 = z.iter().map(|x| x * x).sum::<f64>().sqrt();
                z.iter_mut().for_each(|x| *x /= nrm);
                (d, z, rho)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The task-flow solver always produces a sorted spectrum, orthogonal
    /// vectors and small residuals on random tridiagonals.
    #[test]
    fn taskflow_decomposes_random_tridiagonals(t in arb_tridiag(60)) {
        let opts = DcOptions { min_part: 8, nb: 8, threads: 2, use_gatherv: true, mode: SolveMode::Full };
        let eig = TaskFlowDc::new(opts).solve(&t).unwrap();
        prop_assert!(eig.values.windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(orthogonality_error(&eig.vectors) < 1e-12);
        let res = residual_error(t.n(), |x, y| t.matvec(x, y), &eig.values, &eig.vectors, t.max_norm());
        prop_assert!(res < 1e-12);
    }

    /// D&C and QR iteration agree on the spectrum of random tridiagonals.
    #[test]
    fn taskflow_matches_qr_spectrum(t in arb_tridiag(50)) {
        let eig = TaskFlowDc::new(DcOptions { min_part: 8, nb: 8, threads: 2, use_gatherv: true, mode: SolveMode::Full })
            .solve(&t).unwrap();
        let lam_qr = QrIteration.solve_values(&t).unwrap();
        for (a, b) in eig.values.iter().zip(&lam_qr) {
            prop_assert!((a - b).abs() < 1e-11 * t.max_norm().max(1.0), "{a} vs {b}");
        }
    }

    /// Eigenvalue count below x from Sturm sequences matches the number of
    /// computed eigenvalues below x.
    #[test]
    fn sturm_count_consistent_with_spectrum(t in arb_tridiag(40), x in -40.0f64..40.0) {
        let lam = QrIteration.solve_values(&t).unwrap();
        let direct = lam.iter().filter(|&&l| l < x).count();
        let counted = dcst::tridiag::sturm_count(&t, x);
        // Ties at x within rounding can differ by the multiplicity at x.
        let at_x = lam.iter().filter(|&&l| (l - x).abs() < 1e-9 * t.max_norm().max(1.0)).count();
        prop_assert!(counted.abs_diff(direct) <= at_x, "count {counted} vs direct {direct}");
    }

    /// Secular roots strictly interlace the poles and the trace identity
    /// Σλ = Σd + ρ‖z‖² holds.
    #[test]
    fn secular_roots_interlace_and_sum((d, z, rho) in arb_secular(24)) {
        let k = d.len();
        let mut delta = vec![0.0; k];
        let mut sum = 0.0;
        for j in 0..k {
            let lam = secular::solve_secular_root(j, &d, &z, rho, &mut delta).unwrap();
            prop_assert!(lam > d[j], "root {j} below pole");
            if j + 1 < k {
                prop_assert!(lam < d[j + 1], "root {j} above next pole");
            }
            sum += lam;
        }
        let zn2: f64 = z.iter().map(|x| x * x).sum();
        let want = d.iter().sum::<f64>() + rho * zn2;
        prop_assert!((sum - want).abs() < 1e-9 * want.abs().max(1.0), "{sum} vs {want}");
    }

    /// The Gu–Eisenstat pipeline yields orthonormal secular eigenvectors.
    #[test]
    fn secular_vectors_orthonormal((d, z, rho) in arb_secular(16)) {
        let k = d.len();
        let mut deltas = vec![0.0; k * k];
        for j in 0..k {
            secular::solve_secular_root(j, &d, &z, rho, &mut deltas[j * k..(j + 1) * k]).unwrap();
        }
        let parts = vec![secular::local_w_products(&d, &deltas, k, 0, 0..k)];
        let zhat = secular::reduce_w(&z, &parts);
        let ident: Vec<usize> = (0..k).collect();
        secular::assemble_vectors(&zhat, &mut deltas, k, 0, 0..k, &ident);
        for a in 0..k {
            for b in 0..=a {
                let g: f64 = (0..k).map(|i| deltas[a * k + i] * deltas[b * k + i]).sum();
                let want = if a == b { 1.0 } else { 0.0 };
                prop_assert!((g - want).abs() < 1e-10, "gram({a},{b}) = {g}");
            }
        }
    }

    /// The RKPW inverse eigenvalue construction reproduces its prescribed
    /// spectrum (checked through QR iteration).
    #[test]
    fn rkpw_reproduces_prescribed_spectrum(
        gaps in proptest::collection::vec(0.05f64..1.0, 2..20),
        seedw in 1u64..1000,
    ) {
        let mut lam = Vec::with_capacity(gaps.len());
        let mut acc = 0.0;
        for g in &gaps {
            acc += g;
            lam.push(acc);
        }
        let weights: Vec<f64> = (0..lam.len())
            .map(|i| 0.05 + ((seedw.wrapping_mul(i as u64 + 1) % 97) as f64) / 100.0)
            .collect();
        let t = jacobi_from_spectrum(&lam, &weights);
        let got = QrIteration.solve_values(&t).unwrap();
        for (a, b) in got.iter().zip(&lam) {
            prop_assert!((a - b).abs() < 1e-10 * acc.max(1.0), "{a} vs {b}");
        }
    }

    /// Deflation output is always a bijection whose secular poles are
    /// strictly ascending and whose groups partition the columns.
    #[test]
    fn deflation_invariants(t in arb_tridiag(40)) {
        // Build a realistic merge input from a solved pair of halves.
        let n = t.n();
        if n < 4 { return Ok(()); }
        let n1 = n / 2;
        let t1 = SymTridiag::new(t.d[..n1].to_vec(), t.e[..n1 - 1].to_vec());
        let t2 = SymTridiag::new(t.d[n1..].to_vec(), t.e[n1..].to_vec());
        let (lam1, v1) = QrIteration.solve(&t1).unwrap();
        let (lam2, v2) = QrIteration.solve(&t2).unwrap();
        let beta = t.e[n1 - 1];
        let mut d = lam1.clone();
        d.extend(&lam2);
        let mut z: Vec<f64> = (0..n1).map(|j| v1[(n1 - 1, j)] * std::f64::consts::FRAC_1_SQRT_2).collect();
        z.extend((0..n - n1).map(|j| v2[(0, j)] * std::f64::consts::FRAC_1_SQRT_2));
        let idxq: Vec<usize> = (0..n).collect();
        let out = secular::deflate(&secular::DeflationInput { d: &d, z: &z, beta, n1, idxq: &idxq });

        let mut perm = out.perm.clone();
        perm.sort_unstable();
        prop_assert_eq!(perm, (0..n).collect::<Vec<_>>(), "perm is a bijection");
        prop_assert!(out.dlamda.windows(2).all(|w| w[0] < w[1]), "poles strictly ascending");
        prop_assert_eq!(out.k + out.d_deflated.len(), n);
        prop_assert_eq!(out.ctot.iter().sum::<usize>(), n);
        let mut slots = out.sec_to_slot.clone();
        slots.sort_unstable();
        prop_assert_eq!(slots, (0..out.k).collect::<Vec<_>>(), "slot map is a bijection");
    }
}
