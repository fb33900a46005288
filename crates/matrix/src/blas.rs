//! BLAS-like kernels on `(slice, leading-dimension)` pairs, column-major.
//!
//! [`gemm`] checks the operand extents and hands the product to the blocked
//! driver in [`crate::kernel`] with the micro-kernel dispatched for this
//! process's [`crate::simd_level`]: an explicit-FMA register tile (24 × 8 on
//! AVX-512, 8 × 6 on AVX2, an autovectorised 8 × 2 otherwise) that reads A
//! in place and B from `nr`-wide packed panels. The packing buffer is
//! recycled through a per-thread workspace, so steady-state GEMM performs
//! zero heap allocation. [`gemm_par`] is a reference path for the benchmark:
//! scoped threads over contiguous column panels of C above a flop
//! threshold, [`gemm`] below it. The tests' oracle is a naive triple loop.

// BLAS-shaped signatures (m, n, k, alpha, a, lda, …) throughout.
#![allow(clippy::too_many_arguments)]

/// `y += alpha * x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Dot product.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// `x *= alpha`.
#[inline]
pub fn scal(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Euclidean norm with scaling to avoid overflow/underflow (dnrm2 style).
pub fn nrm2(x: &[f64]) -> f64 {
    let mut scale = 0.0f64;
    let mut ssq = 1.0f64;
    for &xi in x {
        if xi != 0.0 {
            let a = xi.abs();
            if scale < a {
                ssq = 1.0 + ssq * (scale / a) * (scale / a);
                scale = a;
            } else {
                ssq += (a / scale) * (a / scale);
            }
        }
    }
    scale * ssq.sqrt()
}

/// `y = alpha * A * x + beta * y` where A is `m x n` column-major with
/// leading dimension `lda`.
pub fn gemv(
    m: usize,
    n: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    x: &[f64],
    beta: f64,
    y: &mut [f64],
) {
    debug_assert!(a.len() >= if n == 0 { 0 } else { (n - 1) * lda + m });
    debug_assert!(x.len() >= n && y.len() >= m);
    let y = &mut y[..m];
    if beta == 0.0 {
        y.fill(0.0);
    } else if beta != 1.0 {
        scal(beta, y);
    }
    for j in 0..n {
        let t = alpha * x[j];
        if t != 0.0 {
            axpy(t, &a[j * lda..j * lda + m], y);
        }
    }
}

/// `C = alpha * A * B + beta * C` via the register-tiled driver.
///
/// `A` is `m x k` (ld `lda`), `B` is `k x n` (ld `ldb`), `C` is `m x n`
/// (ld `ldc`), all column-major. After one call at a given problem size,
/// repeated calls perform zero heap allocation (the packing buffer is
/// per-thread and grow-once; see [`crate::workspace_growth_events`]).
///
/// # Panics
/// If `a`, `b` or `c` is shorter than its `(cols − 1)·ld + rows` extent, or
/// `ldc < m`. The kernel reads A through a raw pointer at a stride, so these
/// checks are what keeps a short operand a panic instead of an
/// out-of-bounds load; they hold in release builds.
pub fn gemm(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    assert!(
        m == 0 || k == 0 || a.len() >= (k - 1) * lda + m,
        "gemm: a is shorter than (k-1)*lda + m"
    );
    assert!(
        n == 0 || k == 0 || b.len() >= (n - 1) * ldb + k,
        "gemm: b is shorter than (n-1)*ldb + k"
    );
    assert!(
        m == 0 || n == 0 || c.len() >= (n - 1) * ldc + m,
        "gemm: c is shorter than (n-1)*ldc + m"
    );
    assert!(ldc >= m.max(1), "gemm: ldc < m");
    let uk = crate::kernel::variant(crate::simd::simd_level());
    // SAFETY: `simd_level` only reports what the CPU supports, and `variant`
    // returns a kernel compiled for at most that level. `a` covers
    // (k-1)*lda + m elements and `c` is an exclusive slice covering
    // (n-1)*ldc + m (both asserted above), so every strided read of A and
    // every tile written through the raw C pointer stays inside its borrow;
    // `b` is passed as a slice and stays bounds-checked.
    unsafe {
        crate::kernel::gemm_raw(
            uk,
            m,
            n,
            k,
            alpha,
            a.as_ptr(),
            lda,
            b,
            ldb,
            beta,
            c.as_mut_ptr(),
            ldc,
        )
    }
}

/// Flop count below which `gemm_par` runs the sequential kernel: `2·256³`.
/// Spawning the scoped threads costs tens of µs, which a product this size
/// wins back; `matrix.gemm_par_speedup` in `BENCHMARK.json` is the measured
/// 2-thread gain above it (the root merge's own products, k ≈ 490 and
/// k ≈ 1800).
const PAR_THRESHOLD_FLOPS: usize = 1 << 25;

/// Parallel GEMM, the reference path the benchmark compares [`gemm`] against:
/// C is cut into `num_threads` contiguous column panels, each multiplied by
/// [`gemm`] on its own scoped thread. No solver calls this — the D&C
/// drivers parallelise one level up, by forking `UpdateVect` panel tasks
/// onto the runtime's workers — and this crate owns no threads.
pub fn gemm_par(
    num_threads: usize,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    let cols = n.div_ceil(num_threads.max(1));
    if m == 0 || cols >= n || 2 * m * n * k < PAR_THRESHOLD_FLOPS {
        return gemm(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
    }
    // The last panel may be short — fewer columns, and a buffer that ends
    // right after the last column's m-th row — which `gemm` accepts.
    let panels = c.chunks_mut(cols * ldc).take(n.div_ceil(cols));
    std::thread::scope(|s| {
        for (p, cp) in panels.enumerate() {
            let (j0, nc) = (p * cols, cols.min(n - p * cols));
            s.spawn(move || gemm(m, nc, k, alpha, a, lda, &b[j0 * ldb..], ldb, beta, cp, ldc));
        }
    });
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    /// Naive `C = alpha*A*B + beta*C` with explicit leading dimensions — the
    /// independent oracle (no blocking, no packing, no unrolling, no FMA).
    pub(crate) fn gemm_naive(
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        a: &[f64],
        lda: usize,
        b: &[f64],
        ldb: usize,
        beta: f64,
        c: &mut [f64],
        ldc: usize,
    ) {
        for j in 0..n {
            for i in 0..m {
                let mut acc = 0.0;
                for l in 0..k {
                    acc += a[i + l * lda] * b[l + j * ldb];
                }
                c[i + j * ldc] = alpha * acc + beta * c[i + j * ldc];
            }
        }
    }

    fn rand_vec(rng: &mut impl Rng, len: usize) -> Vec<f64> {
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn gemm_matches_naive_various_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        for &(m, n, k) in &[
            (1, 1, 1),
            (3, 5, 2),
            (8, 8, 8),
            (17, 13, 29),
            (64, 5, 300),
            (5, 64, 300),
            (1, 1, 50),
            (8, 4, 256),
            (9, 5, 257),
            (33, 12, 64),
        ] {
            let a = rand_vec(&mut rng, m * k);
            let b = rand_vec(&mut rng, k * n);
            let mut c = vec![0.0; m * n];
            let mut cref = vec![0.0; m * n];
            gemm(m, n, k, 1.0, &a, m, &b, k, 0.0, &mut c, m);
            gemm_naive(m, n, k, 1.0, &a, m, &b, k, 0.0, &mut cref, m);
            for (x, y) in c.iter().zip(&cref) {
                assert!((x - y).abs() < 1e-12 * (k as f64), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn gemm_alpha_beta() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let (m, n, k) = (7, 6, 5);
        let a = rand_vec(&mut rng, m * k);
        let b = rand_vec(&mut rng, k * n);
        let c0 = rand_vec(&mut rng, m * n);
        let mut c = c0.clone();
        let mut cref = c0;
        gemm(m, n, k, 2.0, &a, m, &b, k, -0.5, &mut c, m);
        gemm_naive(m, n, k, 2.0, &a, m, &b, k, -0.5, &mut cref, m);
        for (x, y) in c.iter().zip(&cref) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
    }

    #[test]
    fn gemm_with_submatrix_ld() {
        // Multiply the top-left 2x2 blocks of 4x4 matrices using ld = 4.
        let a: Vec<f64> = (0..16).map(|x| x as f64).collect();
        let b: Vec<f64> = (0..16).map(|x| (x * x) as f64).collect();
        let mut c = vec![0.0; 4];
        gemm(2, 2, 2, 1.0, &a, 4, &b, 4, 0.0, &mut c, 2);
        // A2 = [[0,4],[1,5]]; B2 = [[0,16],[1,25]]
        assert_eq!(c, vec![4.0, 5.0, 100.0, 141.0]);
    }

    // The kernel reads A through a raw pointer, so an undersized operand
    // must be refused up front — by `assert!`, in release builds too (CI
    // runs this crate's tests with `--release`).
    #[test]
    #[should_panic(expected = "a is shorter")]
    fn gemm_short_a_panics() {
        let (a, b, mut c) = (vec![0.0; 8 * 3 - 1], vec![0.0; 12], vec![0.0; 32]);
        gemm(8, 4, 3, 1.0, &a, 8, &b, 3, 0.0, &mut c, 8);
    }

    #[test]
    #[should_panic(expected = "b is shorter")]
    fn gemm_short_b_panics() {
        let (a, b, mut c) = (vec![0.0; 24], vec![0.0; 3 * 4 - 1], vec![0.0; 32]);
        gemm(8, 4, 3, 1.0, &a, 8, &b, 3, 0.0, &mut c, 8);
    }

    #[test]
    #[should_panic(expected = "c is shorter")]
    fn gemm_short_c_panics() {
        let (a, b, mut c) = (vec![0.0; 24], vec![0.0; 12], vec![0.0; 8 * 4 - 1]);
        gemm(8, 4, 3, 1.0, &a, 8, &b, 3, 0.0, &mut c, 8);
    }

    #[test]
    fn gemm_par_matches_seq() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        // Below and above the flop threshold (sequential / scoped threads).
        for (m, n, k) in [(31, 23, 17), (256, 250, 270)] {
            let a = rand_vec(&mut rng, m * k);
            let b = rand_vec(&mut rng, k * n);
            let c0 = rand_vec(&mut rng, m * n);
            let mut c1 = c0.clone();
            gemm(m, n, k, 1.5, &a, m, &b, k, -0.5, &mut c1, m);
            for nt in [1, 2, 3, 8] {
                let mut c2 = c0.clone();
                gemm_par(nt, m, n, k, 1.5, &a, m, &b, k, -0.5, &mut c2, m);
                for (x, y) in c1.iter().zip(&c2) {
                    assert!((x - y).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn gemm_par_with_ldc_subblock() {
        // Write a 3x4 product into the top-left of a 5-row buffer.
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let (m, n, k, ldc) = (3, 4, 6, 5);
        let a = rand_vec(&mut rng, m * k);
        let b = rand_vec(&mut rng, k * n);
        let mut c = vec![7.0; ldc * n];
        gemm_par(3, m, n, k, 1.0, &a, m, &b, k, 0.0, &mut c, ldc);
        let mut cref = vec![0.0; m * n];
        gemm(m, n, k, 1.0, &a, m, &b, k, 0.0, &mut cref, m);
        for j in 0..n {
            for i in 0..ldc {
                if i < m {
                    assert!((c[i + j * ldc] - cref[i + j * m]).abs() < 1e-13);
                } else {
                    assert_eq!(c[i + j * ldc], 7.0, "padding rows untouched");
                }
            }
        }
    }

    #[test]
    fn gemm_par_last_panel_short_buffer_ldc_gt_m() {
        // Regression: C's buffer ends right after the last column's m-th
        // row ((n-1)*ldc + m elements, ldc > m) and n is not divisible by
        // the thread count, with the problem large enough to take the
        // parallel path. The seed's column-strip splitter miscomputed the
        // last panel's length for exactly this shape class.
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let (m, n, k, ldc, nt) = (64, 23, 12000, 71, 4);
        assert!(
            2 * m * n * k >= super::PAR_THRESHOLD_FLOPS,
            "must exercise the parallel path"
        );
        assert_eq!(n % nt, 3, "n must not divide evenly across threads");
        let a = rand_vec(&mut rng, m * k);
        let b = rand_vec(&mut rng, k * n);
        let mut c = vec![7.0; (n - 1) * ldc + m];
        gemm_par(nt, m, n, k, 1.0, &a, m, &b, k, 0.0, &mut c, ldc);
        let mut cref = vec![0.0; m * n];
        gemm_naive(m, n, k, 1.0, &a, m, &b, k, 0.0, &mut cref, m);
        for j in 0..n {
            for i in 0..ldc {
                let idx = i + j * ldc;
                if i < m {
                    let err = (c[idx] - cref[i + j * m]).abs();
                    assert!(err < 1e-10, "C[{i},{j}] off by {err}");
                } else if idx < c.len() {
                    assert_eq!(c[idx], 7.0, "padding row {i} of column {j} clobbered");
                }
            }
        }
    }

    #[test]
    fn gemm_steady_state_allocates_nothing() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let (m, n, k) = (100, 90, 300);
        let a = rand_vec(&mut rng, m * k);
        let b = rand_vec(&mut rng, k * n);
        let mut c = vec![0.0; m * n];
        let mut ct = vec![0.0; n * m];
        // Warm-up grows this thread's packing buffers to their high-water
        // mark for both shapes.
        gemm(m, n, k, 1.0, &a, m, &b, k, 0.0, &mut c, m);
        gemm(n, m, k, 1.0, &b, n, &a, k, 0.0, &mut ct, n);
        let snapshot = crate::workspace_growth_events();
        for _ in 0..5 {
            gemm(m, n, k, 1.0, &a, m, &b, k, 0.5, &mut c, m);
            gemm(n, m, k, -0.5, &b, n, &a, k, 1.0, &mut ct, n);
        }
        assert_eq!(
            crate::workspace_growth_events(),
            snapshot,
            "packed GEMM must not grow workspace buffers after warm-up"
        );
    }

    #[test]
    fn gemv_matches_gemm() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let (m, n) = (9, 11);
        let a = rand_vec(&mut rng, m * n);
        let x = rand_vec(&mut rng, n);
        let mut y1 = rand_vec(&mut rng, m);
        let mut y2 = y1.clone();
        gemv(m, n, 1.5, &a, m, &x, 0.25, &mut y1);
        gemm(m, 1, n, 1.5, &a, m, &x, n, 0.25, &mut y2, m);
        for (u, v) in y1.iter().zip(&y2) {
            assert!((u - v).abs() < 1e-13);
        }
    }

    #[test]
    fn nrm2_is_robust_to_scale() {
        let x = vec![3e300, 4e300];
        assert!((nrm2(&x) - 5e300).abs() < 1e287);
        let y = vec![3e-300, 4e-300];
        assert!((nrm2(&y) - 5e-300).abs() < 1e-313);
        assert_eq!(nrm2(&[]), 0.0);
    }

    #[test]
    fn dot_axpy_scal_basics() {
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![1.0, 1.0, 1.0];
        assert_eq!(dot(&x, &y), 6.0);
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![3.0, 5.0, 7.0]);
        scal(0.5, &mut y);
        assert_eq!(y, vec![1.5, 2.5, 3.5]);
    }

    // Property tests pitting `gemm` (and its scoped-thread parallel form)
    // against the naive triple loop across adversarial shapes: every
    // dimension drawn from the dispatched micro-kernel's tile and
    // cache-block boundaries, operands embedded in larger buffers with slack
    // leading dimensions, alpha/beta from {0, 1, -0.5}. The sweep over
    // *every* variant the CPU can run is `kernel::tests`.

    fn dim() -> impl Strategy<Value = usize> {
        let uk = crate::kernel::variant(crate::simd_level());
        (0usize..5).prop_map(move |i| [1, uk.mr - 1, uk.mr, uk.mr + 1, 2 * uk.mc + 3][i])
    }

    fn coeff() -> impl Strategy<Value = f64> {
        (0usize..3).prop_map(|i| [0.0, 1.0, -0.5][i])
    }

    struct Case {
        m: usize,
        n: usize,
        k: usize,
        lda: usize,
        ldb: usize,
        ldc: usize,
        alpha: f64,
        beta: f64,
        a: Vec<f64>,
        b: Vec<f64>,
        c0: Vec<f64>,
    }

    fn arb_case() -> impl Strategy<Value = Case> {
        (
            dim(),
            dim(),
            dim(),
            0usize..4,
            0usize..4,
            0usize..4,
            coeff(),
            coeff(),
        )
            .prop_flat_map(|(m, n, k, sa, sb, sc, alpha, beta)| {
                // Slack pads the leading dimension, embedding each operand as
                // a sub-matrix of a taller buffer.
                let (lda, ldb, ldc) = (m + sa, k + sb, m + sc);
                (
                    proptest::collection::vec(-1.0f64..1.0, (k - 1) * lda + m),
                    proptest::collection::vec(-1.0f64..1.0, (n - 1) * ldb + k),
                    proptest::collection::vec(-1.0f64..1.0, (n - 1) * ldc + m),
                )
                    .prop_map(move |(a, b, c0)| Case {
                        m,
                        n,
                        k,
                        lda,
                        ldb,
                        ldc,
                        alpha,
                        beta,
                        a,
                        b,
                        c0,
                    })
            })
    }

    fn tolerance(k: usize) -> f64 {
        1e-12 * (k as f64).max(1.0)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        #[test]
        fn packed_gemm_matches_naive(case in arb_case()) {
            let Case { m, n, k, lda, ldb, ldc, alpha, beta, a, b, c0 } = case;
            let mut c = c0.clone();
            let mut cref = c0.clone();
            gemm(m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c, ldc);
            gemm_naive(m, n, k, alpha, &a, lda, &b, ldb, beta, &mut cref, ldc);
            for j in 0..n {
                for i in 0..m {
                    let (x, y) = (c[i + j * ldc], cref[i + j * ldc]);
                    prop_assert!((x - y).abs() < tolerance(k),
                        "C[{i},{j}] = {x} vs naive {y} (m={m} n={n} k={k} lda={lda} alpha={alpha} beta={beta})");
                }
            }
            // Slack rows between columns must never be written.
            for j in 0..n {
                for i in m..ldc {
                    let idx = i + j * ldc;
                    if idx < c.len() {
                        prop_assert_eq!(c[idx], c0[idx]);
                    }
                }
            }
            return Ok(());
        }

        #[test]
        fn parallel_gemm_matches_sequential(case in arb_case(), nt in 1usize..5) {
            let Case { m, n, k, lda, ldb, ldc, alpha, beta, a, b, c0 } = case;
            let mut cpar = c0.clone();
            let mut cseq = c0.clone();
            gemm_par(nt, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut cpar, ldc);
            gemm(m, n, k, alpha, &a, lda, &b, ldb, beta, &mut cseq, ldc);
            for j in 0..n {
                for i in 0..m {
                    let (x, y) = (cpar[i + j * ldc], cseq[i + j * ldc]);
                    prop_assert!((x - y).abs() < tolerance(k),
                        "C[{i},{j}] = {x} (par, nt={nt}) vs {y} (seq)");
                }
            }
            return Ok(());
        }
    }
}
