//! Jacobi-matrix reconstruction from spectral data.
//!
//! Given nodes `λ` and positive weights `w`, the RKPW algorithm
//! (Rutishauser–Kahan–Pal–Walker, as stabilized by Gragg & Harrod 1984 and
//! popularized by Gautschi's OPQ `lanczos.m`) reconstructs in O(n²) the
//! unique symmetric tridiagonal (Jacobi) matrix whose eigenvalues are `λ`
//! and whose eigenvector first components squared are `w / Σw`.
//!
//! This is how the prescribed-spectrum test matrices of the paper's
//! Table III (types 1–9) are built: the spectrum is exact by construction
//! and the random weights randomize the eigenvector structure, at O(n²)
//! cost instead of the O(n³) dense `dlatms` route (which exists in
//! [`crate::dense_with_spectrum`] and is used to cross-validate this one).

use crate::SymTridiag;

/// Sweeps run together as one wavefront. One sweep is a serial chain of
/// dependent divisions; twelve independent chains in flight keep the
/// core's divider busy. Types 3–9 at n = 4000 on a 2-vCPU AVX-512 Xeon
/// take ≈ 34 / 23 / 23 ms with 8 / 12 / 16 sweeps, ≈ 165 ms one sweep at
/// a time.
const SWEEPS: usize = 12;

/// Reconstruct the Jacobi matrix with eigenvalues `nodes` and first-row
/// eigenvector weights proportional to `weights`.
///
/// Panics if lengths differ, if fewer than one node is given, or if any
/// weight is non-positive.
///
/// The sweeps meet subnormals (1.6 % of type 2's cells), so they run with
/// gradual underflow whatever the caller's floating-point mode: the same
/// input gives the same bits on a thread that flushes subnormals.
pub fn jacobi_from_spectrum(nodes: &[f64], weights: &[f64]) -> SymTridiag {
    #[cfg(target_arch = "x86_64")]
    let _mode = mxcsr::GradualUnderflow::enter();
    jacobi_wavefront::<SWEEPS>(nodes, weights)
}

/// [`jacobi_from_spectrum`] with `S` sweeps to a wavefront.
///
/// Sweep k absorbs node/weight pair k + 1 into entries 0..=k + 1 of `p0`
/// and `p1`, in order, and entry j of sweep k reads only what sweep k − 1
/// wrote there. So a group of `S` consecutive sweeps runs skewed: at step
/// τ, sweep k0 + s absorbs entry τ − s. Within a step the sweeps touch
/// distinct entries and carry independent state, and every entry still
/// sees the same cells in the same order as one sweep after another —
/// the result is bit-identical for any `S`.
fn jacobi_wavefront<const S: usize>(nodes: &[f64], weights: &[f64]) -> SymTridiag {
    let n = nodes.len();
    assert_eq!(n, weights.len(), "nodes/weights length mismatch");
    assert!(n >= 1, "need at least one node");
    assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");

    // p0 holds the evolving diagonal (initialized with the nodes);
    // p1 holds [total weight, β₁, β₂, …] with β the *squared*
    // off-diagonals. One node/weight pair is absorbed per sweep.
    let mut p0: Vec<f64> = nodes.to_vec();
    let mut p1: Vec<f64> = vec![0.0; n];
    p1[0] = weights[0];

    let mut k0 = 0;
    while k0 + 1 < n {
        let m = S.min(n - 1 - k0);
        // The last group may have fewer than S sweeps; its spare slots never run.
        let mut sweeps = [Sweep::new(0.0, 0.0); S];
        for (sw, (&node, &weight)) in sweeps
            .iter_mut()
            .zip(nodes[k0 + 1..].iter().zip(&weights[k0 + 1..]))
        {
            *sw = Sweep::new(node, weight);
        }
        // Sweep k0 + s absorbs entry τ − s at step τ, for τ in s..=k0 + 2s + 1;
        // all S are active from step S − 1 through step k0 + 1.
        let last = k0 + 2 * m - 1;
        let full = if m == S {
            S - 1..(k0 + 2).max(S - 1)
        } else {
            0..0
        };
        for tau in 0..full.start {
            guarded_step(&mut sweeps[..m], k0, tau, &mut p0, &mut p1);
        }
        for tau in full.clone() {
            let w0: &mut [f64; S] = (&mut p0[tau + 1 - S..=tau]).try_into().expect("S entries");
            let w1: &mut [f64; S] = (&mut p1[tau + 1 - S..=tau]).try_into().expect("S entries");
            for s in 0..S {
                sweeps[s].cell(&mut w0[S - 1 - s], &mut w1[S - 1 - s]);
            }
        }
        for tau in full.end..=last {
            guarded_step(&mut sweeps[..m], k0, tau, &mut p0, &mut p1);
        }
        k0 += m;
    }

    let d = p0;
    // p1[0] is the total weight; β_i = p1[i] for i ≥ 1 are squared
    // off-diagonals (non-negative up to rounding).
    let e: Vec<f64> = p1[1..].iter().map(|&b| b.max(0.0).sqrt()).collect();
    SymTridiag::new(d, e)
}

/// Step τ of a group whose first sweep is k0, when not all of its sweeps
/// are active: sweep k0 + s absorbs entry τ − s if s ≤ τ ≤ k0 + 2s + 1.
#[inline(always)]
fn guarded_step(sweeps: &mut [Sweep], k0: usize, tau: usize, p0: &mut [f64], p1: &mut [f64]) {
    let first = tau.saturating_sub(k0) / 2;
    let last = tau.min(sweeps.len() - 1);
    for s in first..=last {
        sweeps[s].cell(&mut p0[tau - s], &mut p1[tau - s]);
    }
}

/// One sweep's running state: the node it absorbs (`xlam`) and the
/// recurrence it carries from each entry to the next.
#[derive(Clone, Copy)]
struct Sweep {
    xlam: f64,
    pn: f64,
    gam: f64,
    sig: f64,
    t: f64,
}

impl Sweep {
    fn new(node: f64, weight: f64) -> Self {
        Sweep {
            xlam: node,
            pn: weight,
            gam: 1.0,
            sig: 0.0,
            t: 0.0,
        }
    }

    /// Absorb one entry (`p0[j]`, `p1[j]`) into this sweep.
    #[inline(always)]
    fn cell(&mut self, p0: &mut f64, p1: &mut f64) {
        let rho = *p1 + self.pn;
        let tmp = self.gam * rho;
        let tsig = self.sig;
        if rho <= 0.0 {
            self.gam = 1.0;
            self.sig = 0.0;
        } else {
            self.gam = *p1 / rho;
            self.sig = self.pn / rho;
        }
        let tk = self.sig * (*p0 - self.xlam) - self.gam * self.t;
        *p0 -= tk - self.t;
        self.t = tk;
        self.pn = if self.sig <= 0.0 {
            tsig * *p1
        } else {
            (self.t * self.t) / self.sig
        };
        *p1 = tmp;
    }
}

/// The SSE control register, which sets how this thread's scalar and
/// vector `f64` arithmetic rounds and whether it flushes subnormals.
#[cfg(target_arch = "x86_64")]
mod mxcsr {
    use std::arch::asm;

    /// Flush to zero: a subnormal result is written as zero.
    pub(super) const FTZ: u32 = 1 << 15;
    /// Denormals are zero: a subnormal operand is read as zero.
    pub(super) const DAZ: u32 = 1 << 6;

    pub(super) fn get() -> u32 {
        let mut csr = 0u32;
        // SAFETY: `stmxcsr` writes the 4-byte MXCSR to the address of a
        // live local `u32`, and touches nothing else.
        unsafe { asm!("stmxcsr [{}]", in(reg) &mut csr, options(nostack, preserves_flags)) };
        csr
    }

    pub(super) fn set(csr: u32) {
        // Bits 16 and up are reserved: loading one set would fault.
        let csr = csr & 0xffff;
        // SAFETY: `ldmxcsr` reads 4 bytes from the address of a live local
        // `u32`, whose reserved bits the mask above cleared.
        unsafe { asm!("ldmxcsr [{}]", in(reg) &csr, options(nostack, readonly, preserves_flags)) };
    }

    /// Clears FTZ and DAZ while alive; dropping it (also as a panic
    /// unwinds) gives the thread back the MXCSR it had.
    pub(super) struct GradualUnderflow(u32);

    impl GradualUnderflow {
        pub(super) fn enter() -> Self {
            let saved = get();
            if saved & (FTZ | DAZ) != 0 {
                set(saved & !(FTZ | DAZ));
            }
            GradualUnderflow(saved)
        }
    }

    impl Drop for GradualUnderflow {
        fn drop(&mut self) {
            if self.0 & (FTZ | DAZ) != 0 {
                set(self.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::MatrixType;

    /// The one-sweep-at-a-time loop the wavefront replaced: the oracle.
    fn reference(nodes: &[f64], weights: &[f64]) -> SymTridiag {
        let n = nodes.len();
        let mut p0: Vec<f64> = nodes.to_vec();
        let mut p1: Vec<f64> = vec![0.0; n];
        p1[0] = weights[0];
        for k in 0..n - 1 {
            let mut pn = weights[k + 1];
            let xlam = nodes[k + 1];
            let mut gam = 1.0f64;
            let mut sig = 0.0f64;
            let mut t = 0.0f64;
            for j in 0..=k + 1 {
                let rho = p1[j] + pn;
                let tmp = gam * rho;
                let tsig = sig;
                if rho <= 0.0 {
                    gam = 1.0;
                    sig = 0.0;
                } else {
                    gam = p1[j] / rho;
                    sig = pn / rho;
                }
                let tk = sig * (p0[j] - xlam) - gam * t;
                p0[j] -= tk - t;
                t = tk;
                pn = if sig <= 0.0 {
                    tsig * p1[j]
                } else {
                    (t * t) / sig
                };
                p1[j] = tmp;
            }
        }
        let e = p1[1..].iter().map(|&b| b.max(0.0).sqrt()).collect();
        SymTridiag::new(p0, e)
    }

    fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// A thread that flushes subnormals gets the matrix a default-mode
    /// thread gets: type 2 meets subnormals at n = 512 (seed 7), and the
    /// flushed sweep would round them away. The caller's mode comes back
    /// after the call, and after a call that panics.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn generation_ignores_the_callers_subnormal_flushing() {
        let want = MatrixType::Type2.generate(512, 7);
        let default_mode = mxcsr::get();
        let flushing = default_mode | mxcsr::FTZ | mxcsr::DAZ;
        mxcsr::set(flushing);
        let got = MatrixType::Type2.generate(512, 7);
        let after = mxcsr::get();
        let panicked =
            std::panic::catch_unwind(|| jacobi_from_spectrum(&[1.0, 2.0], &[1.0, -1.0])).is_err();
        let after_panic = mxcsr::get();
        mxcsr::set(default_mode);
        assert!(same_bits(&got.d, &want.d) && same_bits(&got.e, &want.e));
        assert_eq!(after, flushing);
        assert!(panicked);
        assert_eq!(after_panic, flushing);
    }

    /// Every Table III spectrum through the wavefront and through the
    /// one-sweep oracle: `(d, e)` must agree bit for bit, at every group
    /// edge (n = SWEEPS, SWEEPS + 1, 2·SWEEPS + 1) and for a narrower
    /// wavefront too.
    #[test]
    fn rkpw_wavefront_matches_the_one_sweep_oracle() {
        let mut sizes: Vec<usize> = (1..=40).collect();
        sizes.extend([63, 64, 65, 257, 1000, SWEEPS, SWEEPS + 1, 2 * SWEEPS + 1]);
        let (mut compared, mut mismatches) = (0usize, Vec::new());
        for ty in &MatrixType::ALL[..9] {
            for &n in &sizes {
                for seed in [0u64, 1, 99] {
                    let (nodes, weights) = ty.spectral_data(n, seed).unwrap();
                    let want = reference(&nodes, &weights);
                    let got = [
                        jacobi_from_spectrum(&nodes, &weights),
                        jacobi_wavefront::<3>(&nodes, &weights),
                    ];
                    for (width, t) in [SWEEPS, 3].into_iter().zip(got) {
                        compared += 1;
                        if !(same_bits(&t.d, &want.d) && same_bits(&t.e, &want.e)) {
                            mismatches.push((ty.index(), n, seed, width));
                        }
                    }
                }
            }
        }
        println!(
            "rkpw wavefront vs one-sweep oracle: {compared} comparisons, {} mismatches",
            mismatches.len()
        );
        assert!(
            mismatches.is_empty(),
            "(type, n, seed, sweeps): {mismatches:?}"
        );
    }

    /// Eigen-decomposition of the (1,2,1) Toeplitz matrix in closed form:
    /// λ_k = 2 − 2cos(kπ/(n+1)), v_k(0) ∝ sin(kπ/(n+1)).
    fn toeplitz_spectral_data(n: usize) -> (Vec<f64>, Vec<f64>) {
        let h = std::f64::consts::PI / (n as f64 + 1.0);
        let nodes = (1..=n).map(|k| 2.0 - 2.0 * (k as f64 * h).cos()).collect();
        // First eigenvector components: sqrt(2/(n+1)) sin(k h); weights are
        // their squares.
        let weights = (1..=n)
            .map(|k| 2.0 / (n as f64 + 1.0) * (k as f64 * h).sin().powi(2))
            .collect();
        (nodes, weights)
    }

    #[test]
    fn recovers_the_toeplitz_matrix() {
        for n in [1usize, 2, 3, 8, 25] {
            let (nodes, weights) = toeplitz_spectral_data(n);
            let t = jacobi_from_spectrum(&nodes, &weights);
            for i in 0..n {
                assert!((t.d[i] - 2.0).abs() < 1e-10, "n={n} d[{i}]={}", t.d[i]);
            }
            for i in 0..n - 1 {
                assert!(
                    (t.e[i].abs() - 1.0).abs() < 1e-10,
                    "n={n} e[{i}]={}",
                    t.e[i]
                );
            }
        }
    }

    #[test]
    fn trace_matches_node_sum() {
        let nodes = vec![0.1, 0.5, 2.0, 7.0];
        let weights = vec![0.2, 0.3, 0.4, 0.1];
        let t = jacobi_from_spectrum(&nodes, &weights);
        let trace: f64 = t.d.iter().sum();
        assert!((trace - 9.6).abs() < 1e-12);
    }

    #[test]
    fn frobenius_matches_node_square_sum() {
        let nodes = vec![-1.0, 0.25, 1.5];
        let weights = vec![1.0, 2.0, 3.0];
        let t = jacobi_from_spectrum(&nodes, &weights);
        let fro2: f64 =
            t.d.iter().map(|x| x * x).sum::<f64>() + 2.0 * t.e.iter().map(|x| x * x).sum::<f64>();
        let want: f64 = nodes.iter().map(|x| x * x).sum();
        assert!((fro2 - want).abs() < 1e-12);
    }

    #[test]
    fn sturm_counts_confirm_spectrum() {
        let nodes = vec![-2.0, -0.5, 0.0, 1.0, 3.5];
        let weights = vec![0.1, 0.3, 0.2, 0.25, 0.15];
        let t = jacobi_from_spectrum(&nodes, &weights);
        for (k, &lam) in nodes.iter().enumerate() {
            assert_eq!(crate::sturm_count(&t, lam - 1e-8), k);
            assert_eq!(crate::sturm_count(&t, lam + 1e-8), k + 1);
        }
    }

    #[test]
    fn repeated_nodes_yield_near_reducible_matrix() {
        // Repeated eigenvalues cannot belong to an unreduced tridiagonal;
        // the reconstruction must push some off-diagonal to ~0.
        let nodes = vec![1.0, 1.0, 1.0, 2.0];
        let weights = vec![0.25, 0.25, 0.25, 0.25];
        let t = jacobi_from_spectrum(&nodes, &weights);
        let min_e = t.e.iter().fold(f64::INFINITY, |m, &x| m.min(x.abs()));
        assert!(min_e < 1e-7, "min off-diagonal {min_e}");
        let trace: f64 = t.d.iter().sum();
        assert!((trace - 5.0).abs() < 1e-12);
    }

    #[test]
    fn singleton() {
        let t = jacobi_from_spectrum(&[42.0], &[1.0]);
        assert_eq!(t.d, vec![42.0]);
        assert!(t.e.is_empty());
    }
}
