//! BLAS-like kernels on `(slice, leading-dimension)` pairs, column-major.
//!
//! [`gemm`] is a packed, register-tiled implementation (see
//! [`crate::kernel`]): A is packed into `MR`-tall row panels and B into
//! `NR`-wide column panels per `MC x KC x NC` cache block, and an
//! `8 x 4` / `4 x 4` micro-kernel (chosen by problem shape) performs the
//! innermost rank-KC update from the packed panels. Packing buffers are
//! recycled through a per-thread workspace, so steady-state GEMM performs
//! zero heap allocation; depths below the packing break-even take an
//! unpacked AXPY fast path. [`gemm_par`] is a reference path for the
//! benches: scoped threads over contiguous column panels of C above a flop
//! threshold, [`gemm`] below it. The seed register-blocked AXPY GEMM
//! survives as [`gemm_axpy_ref`]: it is the correctness oracle in tests
//! and the baseline the GEMM benchmarks compare against.

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

/// Inner kernel: one block-column update of GEMM over a k-range, with the
/// C-column loop unrolled by 4 so each A column is loaded once per 4 C
/// columns.
fn gemm_block(
    m: usize,
    n: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    krange: std::ops::Range<usize>,
    c: &mut [f64],
    ldc: usize,
) {
    let mut j = 0;
    while j + 4 <= n {
        // Split the four target columns out of C so the inner loop writes
        // through independent slices.
        let (c0, rest) = c[j * ldc..].split_at_mut(ldc);
        let (c1, rest) = rest.split_at_mut(ldc);
        let (c2, rest) = rest.split_at_mut(ldc);
        // The buffer may end right after the last column's m-th row.
        let c3 = &mut rest[..m];
        let (c0, c1, c2, c3) = (&mut c0[..m], &mut c1[..m], &mut c2[..m], &mut c3[..m]);
        for l in krange.clone() {
            let acol = &a[l * lda..l * lda + m];
            let t0 = alpha * b[l + j * ldb];
            let t1 = alpha * b[l + (j + 1) * ldb];
            let t2 = alpha * b[l + (j + 2) * ldb];
            let t3 = alpha * b[l + (j + 3) * ldb];
            for i in 0..m {
                let ai = acol[i];
                c0[i] += t0 * ai;
                c1[i] += t1 * ai;
                c2[i] += t2 * ai;
                c3[i] += t3 * ai;
            }
        }
        j += 4;
    }
    while j < n {
        let cj = &mut c[j * ldc..j * ldc + m];
        for l in krange.clone() {
            let t = alpha * b[l + j * ldb];
            if t != 0.0 {
                axpy(t, &a[l * lda..l * lda + m], cj);
            }
        }
        j += 1;
    }
}

/// `C = alpha * A * B + beta * C` via the packed micro-kernel driver.
///
/// `A` is `m x k` (ld `lda`), `B` is `k x n` (ld `ldb`), `C` is `m x n`
/// (ld `ldc`), all column-major. After one call at a given problem size,
/// repeated calls perform zero heap allocation (packing buffers are
/// per-thread and grow-once; see [`crate::workspace_growth_events`]).
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
    debug_assert!(m == 0 || k == 0 || a.len() >= (k - 1) * lda + m);
    debug_assert!(n == 0 || k == 0 || b.len() >= (n - 1) * ldb + k);
    debug_assert!(m == 0 || n == 0 || c.len() >= (n - 1) * ldc + m);
    debug_assert!(ldc >= m.max(1));
    // SAFETY: `c` is an exclusive slice covering (n-1)*ldc + m elements
    // (asserted above), so every column the kernel writes through the raw
    // pointer stays inside the borrow; a/b are only read within the
    // extents implied by (m, n, k, lda, ldb).
    unsafe {
        crate::kernel::gemm_packed_raw(m, n, k, alpha, a, lda, b, ldb, beta, c.as_mut_ptr(), ldc)
    }
}

/// Reference GEMM: the register-blocked AXPY scheme this crate shipped
/// before the packed micro-kernel rewrite (C swept four columns at a time,
/// k-loop blocked for cache). Kept as the independent correctness oracle
/// for the packed kernel's property tests and as the baseline the GEMM
/// throughput benchmarks report speedups against. Semantics are identical
/// to [`gemm`].
pub fn gemm_axpy_ref(
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
    if m == 0 || n == 0 {
        return;
    }
    // Apply beta once up front.
    for j in 0..n {
        let cj = &mut c[j * ldc..j * ldc + m];
        if beta == 0.0 {
            cj.fill(0.0);
        } else if beta != 1.0 {
            scal(beta, cj);
        }
    }
    if k == 0 || alpha == 0.0 {
        return;
    }
    // Cache blocking: KC k-steps × MC rows. The A block (MC × KC ≈ 256 KiB)
    // stays in L2 across the whole column sweep, so DRAM traffic for A is
    // paid once instead of once per 4-column group.
    const KC: usize = 256;
    const MC: usize = 512;
    let mut l0 = 0;
    while l0 < k {
        let l1 = (l0 + KC).min(k);
        let mut i0 = 0;
        while i0 < m {
            let i1 = (i0 + MC).min(m);
            gemm_block(
                i1 - i0,
                n,
                alpha,
                &a[i0..],
                lda,
                b,
                ldb,
                l0..l1,
                &mut c[i0..],
                ldc,
            );
            i0 = i1;
        }
        l0 = l1;
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
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    fn gemm_naive(m: usize, n: usize, k: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut c = vec![0.0; m * n];
        for j in 0..n {
            for l in 0..k {
                for i in 0..m {
                    c[i + j * m] += a[i + l * m] * b[l + j * k];
                }
            }
        }
        c
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
        ] {
            let a = rand_vec(&mut rng, m * k);
            let b = rand_vec(&mut rng, k * n);
            let mut c = vec![0.0; m * n];
            gemm(m, n, k, 1.0, &a, m, &b, k, 0.0, &mut c, m);
            let cref = gemm_naive(m, n, k, &a, &b);
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
        gemm(m, n, k, 2.0, &a, m, &b, k, -0.5, &mut c, m);
        let prod = gemm_naive(m, n, k, &a, &b);
        for i in 0..m * n {
            let expect = 2.0 * prod[i] - 0.5 * c0[i];
            assert!((c[i] - expect).abs() < 1e-12, "{} vs {}", c[i], expect);
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
        gemm_axpy_ref(m, n, k, 1.0, &a, m, &b, k, 0.0, &mut cref, m);
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
    fn gemm_matches_axpy_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        for &(m, n, k) in &[
            (1, 1, 50),
            (7, 4, 9),
            (8, 4, 256),
            (9, 5, 257),
            (33, 12, 64),
        ] {
            let a = rand_vec(&mut rng, m * k);
            let b = rand_vec(&mut rng, k * n);
            let c0 = rand_vec(&mut rng, m * n);
            let mut c1 = c0.clone();
            let mut c2 = c0.clone();
            gemm(m, n, k, 1.5, &a, m, &b, k, -0.5, &mut c1, m);
            gemm_axpy_ref(m, n, k, 1.5, &a, m, &b, k, -0.5, &mut c2, m);
            for (x, y) in c1.iter().zip(&c2) {
                assert!((x - y).abs() < 1e-11 * (k as f64).max(1.0), "{x} vs {y}");
            }
        }
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
}
