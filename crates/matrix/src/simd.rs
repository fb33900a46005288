//! Shared runtime SIMD dispatch for the workspace's vectorized kernels.
//!
//! Every crate that compiles a kernel body at several vector widths
//! (`dcst-matrix`'s GEMM micro-kernels, `dcst-secular`'s secular-equation
//! sweeps) selects the variant through this single detector, so the whole
//! workspace agrees on one answer and one override knob:
//!
//! * detection runs once (`is_x86_feature_detected!`) and is cached in an
//!   atomic — dispatch on a hot path costs one relaxed load;
//! * setting the environment variable `DCST_FORCE_SCALAR=1` (read at first
//!   query) pins the level to [`SimdLevel::Scalar`], which CI uses to keep
//!   the portable fallback paths built and tested on every push.
//!
//! Non-x86 targets always report `Scalar`; the scalar kernel bodies are the
//! portable implementations (and the test oracles), not a degraded mode.

use std::sync::atomic::{AtomicU8, Ordering};

/// Vector ISA level selected for this process, widest first.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum SimdLevel {
    /// Portable scalar/autovectorized code (also the forced-fallback mode).
    Scalar = 1,
    /// 256-bit AVX2 + FMA.
    Avx2 = 2,
    /// 512-bit AVX-512F + FMA.
    Avx512 = 3,
}

/// 0 = not yet detected.
static LEVEL: AtomicU8 = AtomicU8::new(0);

/// Whether the running CPU can execute kernels compiled for `level`,
/// whatever `DCST_FORCE_SCALAR` says: what lets a test drive every variant
/// the machine has, not only the dispatched one.
pub fn cpu_supports(level: SimdLevel) -> bool {
    match level {
        SimdLevel::Scalar => true,
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => {
            std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => false,
    }
}

#[cold]
fn detect() -> u8 {
    if std::env::var_os("DCST_FORCE_SCALAR").is_some_and(|v| v != "0" && !v.is_empty()) {
        return SimdLevel::Scalar as u8;
    }
    let widest = [SimdLevel::Avx512, SimdLevel::Avx2]
        .into_iter()
        .find(|&l| cpu_supports(l));
    widest.unwrap_or(SimdLevel::Scalar) as u8
}

/// The SIMD level all dispatched kernels in this process use. Detected on
/// first call (honouring `DCST_FORCE_SCALAR`), then cached.
pub fn simd_level() -> SimdLevel {
    let mut level = LEVEL.load(Ordering::Relaxed);
    if level == 0 {
        level = detect();
        LEVEL.store(level, Ordering::Relaxed);
    }
    match level {
        3 => SimdLevel::Avx512,
        2 => SimdLevel::Avx2,
        _ => SimdLevel::Scalar,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_is_stable_across_calls() {
        let a = simd_level();
        let b = simd_level();
        assert_eq!(a, b);
    }

    #[test]
    fn level_matches_cpu_features() {
        let level = simd_level();
        if std::env::var_os("DCST_FORCE_SCALAR").is_some_and(|v| v != "0" && !v.is_empty()) {
            assert_eq!(level, SimdLevel::Scalar);
            return;
        }
        #[cfg(target_arch = "x86_64")]
        {
            let fma = std::arch::is_x86_feature_detected!("fma");
            if std::arch::is_x86_feature_detected!("avx512f") && fma {
                assert_eq!(level, SimdLevel::Avx512);
            } else if std::arch::is_x86_feature_detected!("avx2") && fma {
                assert_eq!(level, SimdLevel::Avx2);
            } else {
                assert_eq!(level, SimdLevel::Scalar);
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(level, SimdLevel::Scalar);
    }
}
