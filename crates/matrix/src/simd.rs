//! Shared runtime SIMD dispatch for the workspace's vectorized kernels.
//!
//! Every crate that compiles a kernel body at several vector widths
//! (`dcst-matrix`'s GEMM micro-kernels, `dcst-secular`'s secular-equation
//! sweeps) selects the variant through this single level, so the whole
//! workspace agrees on one answer:
//!
//! * detection asks only the CPU (`is_x86_feature_detected!`), once, and
//!   caches the widest level it runs in an atomic — dispatch on a hot path
//!   costs one relaxed load;
//! * [`set_simd_level`] pins a narrower level (or back to the widest) for
//!   the whole process, and refuses one the CPU cannot run. The library
//!   reads no environment: the `dcst` CLI maps `DCST_FORCE_SCALAR=1` onto
//!   it, and the accuracy lattice (`tests/accuracy_gates.rs`) walks every
//!   level the host has in one process.
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
/// whatever level is pinned: what lets a test drive every variant the
/// machine has, not only the dispatched one.
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
    let widest = [SimdLevel::Avx512, SimdLevel::Avx2]
        .into_iter()
        .find(|&l| cpu_supports(l));
    widest.unwrap_or(SimdLevel::Scalar) as u8
}

/// The SIMD level all dispatched kernels in this process use: the widest
/// the CPU runs, detected on first call, unless [`set_simd_level`] pinned
/// another.
pub fn simd_level() -> SimdLevel {
    let mut level = LEVEL.load(Ordering::Relaxed);
    if level == 0 {
        let detected = detect();
        // A concurrent `set_simd_level` wins over the detected default.
        level = match LEVEL.compare_exchange(0, detected, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => detected,
            Err(pinned) => pinned,
        };
    }
    match level {
        3 => SimdLevel::Avx512,
        2 => SimdLevel::Avx2,
        _ => SimdLevel::Scalar,
    }
}

/// Pin the level every dispatched kernel of this process uses — GEMM's
/// micro-kernel and `dcst-secular`'s `SecularKernels::dispatched()` — from
/// the next kernel call on. Returns `false` and leaves the level as it was
/// when the CPU cannot run `level`, so no caller can select an instruction
/// the machine lacks. A solve running while the level changes may mix
/// levels; callers pin it between solves.
#[must_use]
pub fn set_simd_level(level: SimdLevel) -> bool {
    if !cpu_supports(level) {
        return false;
    }
    LEVEL.store(level as u8, Ordering::Relaxed);
    true
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
        // No test in this binary pins the level, so it is the detected one.
        let level = simd_level();
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
