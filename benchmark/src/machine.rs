//! Machine probes: what this box can do, measured in the same process as
//! the kernels, so kernel rates can be read as a fraction of a roofline.

use dcst_matrix::SimdLevel;
use std::hint::black_box;
use std::time::Instant;

/// Independent accumulators: enough to cover FMA latency × two ports.
const ROWS: usize = 10;

/// `iters` rounds of `ROWS` independent 8-lane fused multiply-adds held in
/// registers. Explicit intrinsics: the autovectorizer does not reliably
/// keep a portable loop at the wanted width.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
fn fma_avx512(iters: u64) -> f64 {
    use std::arch::x86_64::*;
    let a = _mm512_set1_pd(black_box(1.000_000_1));
    let b = _mm512_set1_pd(black_box(1e-9));
    let mut acc = [_mm512_set1_pd(1.0); ROWS];
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = _mm512_fmadd_pd(*x, a, b);
        }
    }
    acc.into_iter().map(|x| _mm512_reduce_add_pd(x)).sum()
}

/// The 4-lane twin of [`fma_avx512`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fma_avx2(iters: u64) -> f64 {
    use std::arch::x86_64::*;
    let a = _mm256_set1_pd(black_box(1.000_000_1));
    let b = _mm256_set1_pd(black_box(1e-9));
    let mut acc = [_mm256_set1_pd(1.0); ROWS];
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = _mm256_fmadd_pd(*x, a, b);
        }
    }
    let mut lanes = [0.0f64; 4];
    let mut sum = 0.0;
    for x in acc {
        // SAFETY: `lanes` is 4 f64 = 32 writable bytes; storeu has no
        // alignment requirement.
        unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), x) };
        sum += lanes.iter().sum::<f64>();
    }
    sum
}

/// Scalar fallback: plain multiply-add (no `mul_add`, which without the
/// FMA feature is a libm call).
fn fma_scalar(iters: u64) -> f64 {
    let mut acc = [1.0f64; ROWS];
    let (a, b) = (black_box(1.000_000_1f64), black_box(1e-9f64));
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = *x * a + b;
        }
    }
    acc.iter().sum()
}

/// Peak fused-multiply-add rate of one thread at the SIMD width the
/// solver's kernels dispatch to, in GF/s (2 flops per lane per FMA).
/// Best of three bursts of `iters` rounds each.
pub fn peak_fma_gflops(iters: u64) -> f64 {
    let level = dcst_matrix::simd_level();
    let lanes = match level {
        SimdLevel::Avx512 => 8,
        SimdLevel::Avx2 => 4,
        SimdLevel::Scalar => 1,
    };
    let flops = 2.0 * (ROWS * lanes) as f64 * iters as f64;
    let mut best = 0.0f64;
    for _ in 0..3 {
        let start = Instant::now();
        let sink = match level {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: simd_level() reports Avx512 only after
            // is_x86_feature_detected!("avx512f") and ("fma") both held.
            SimdLevel::Avx512 => unsafe { fma_avx512(iters) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: simd_level() reports Avx2 only after
            // is_x86_feature_detected!("avx2") and ("fma") both held.
            SimdLevel::Avx2 => unsafe { fma_avx2(iters) },
            _ => fma_scalar(iters),
        };
        black_box(sink);
        best = best.max(flops / start.elapsed().as_secs_f64() / 1e9);
    }
    best
}

/// Result of the stream-triad probe.
#[derive(Clone, Copy, Debug)]
pub struct Triad {
    /// Sustained bandwidth, GB/s (best pass; 3 × 8 bytes per element).
    pub gbs: f64,
    /// Bytes in each of the three arrays.
    pub array_bytes: u64,
}

/// Most a triad array may take: first-touching memory costs microseconds
/// per page on a virtual machine, and the probe runs once per process.
pub const TRIAD_MAX_ARRAY_BYTES: u64 = 256 << 20;

/// Bytes per triad array: `4 × llc` when that fits, but the three arrays
/// together never more than a quarter of `mem_available`, and no array
/// above [`TRIAD_MAX_ARRAY_BYTES`]. The report prints the size used next
/// to the LLC size, so a reader sees when the arrays are below `4 × llc`.
pub fn triad_array_bytes(llc: u64, mem_available: u64) -> u64 {
    let want = (4 * llc).max(32 << 20);
    let cap = (mem_available / 4 / 3).max(1 << 20);
    want.min(cap).min(TRIAD_MAX_ARRAY_BYTES)
}

/// `a[i] = b[i] + s·c[i]` over arrays of `array_bytes` each: one untimed
/// first-touch pass, then `passes` timed ones.
pub fn stream_triad(array_bytes: u64, passes: usize) -> Triad {
    let n = (array_bytes / 8).max(1024) as usize;
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let s = black_box(3.0f64);
    let mut best = 0.0f64;
    for pass in 0..=passes.max(1) {
        let start = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = *y + s * *z;
        }
        black_box(&mut a);
        if pass > 0 {
            best = best.max(24.0 * n as f64 / start.elapsed().as_secs_f64() / 1e9);
        }
    }
    Triad {
        gbs: best,
        array_bytes: 8 * n as u64,
    }
}

/// A fixed dependent scalar chain (~`iters` multiply-adds); its wall time
/// in ms. Run once per round, the max/min of these says whether the box
/// held one speed through the run.
pub fn calib_ms(iters: u64) -> f64 {
    let start = Instant::now();
    let mut x = black_box(1.0f64);
    for i in 0..iters {
        x = x * 1.000_000_1 + (i & 1) as f64 * 1e-20;
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triad_size_respects_both_limits() {
        // 4×LLC when memory allows…
        assert_eq!(triad_array_bytes(8 << 20, 64 << 30), 32 << 20);
        assert_eq!(triad_array_bytes(60 << 20, 64 << 30), 240 << 20);
        // …never above the per-array ceiling…
        assert_eq!(
            triad_array_bytes(260 << 20, 64 << 30),
            TRIAD_MAX_ARRAY_BYTES
        );
        // …and three arrays stay within a quarter of what is free.
        assert_eq!(triad_array_bytes(260 << 20, 1200 << 20), 100 << 20);
    }

    #[test]
    fn probes_return_positive_rates() {
        assert!(peak_fma_gflops(10_000) > 0.0);
        let t = stream_triad(1 << 20, 1);
        assert!(t.gbs > 0.0 && t.array_bytes >= 1 << 20);
        assert!(calib_ms(10_000) > 0.0);
    }
}
