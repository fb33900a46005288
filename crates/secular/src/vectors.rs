//! Gu–Eisenstat stabilization and eigenvector assembly (`dlaed3` analogue).
//!
//! Computing eigenvectors of `D + ρzzᵀ` directly from the computed roots
//! loses orthogonality when roots are close. Gu & Eisenstat's fix: find the
//! vector ẑ for which the *computed* λ's are the exact secular roots,
//!
//! ```text
//! ẑᵢ² = (λ_{k−1} − dᵢ) · Π_{j<k−1} (λ_j − dᵢ)/(d_j − dᵢ)   (j ≠ i terms)
//! ```
//!
//! and assemble eigenvectors from ẑ — they are then orthogonal to working
//! precision regardless of root clustering. The product over roots `j`
//! splits into independent per-panel partial products: the paper's
//! `ComputeLocalW` (per panel, folded into the `LAED4` pass that solves the
//! panel's roots) and `ReduceW` (join) tasks.
//!
//! A merge never stores its secular eigenvector matrix X: each root keeps
//! the `(μ, origin)` its solve accepted, and [`SecularGenerators`] rebuilds
//! from those and ẑ whatever part of X a consumer needs — a block of
//! columns ([`SecularGenerators::assemble`]) or single entries
//! ([`GeneratedX::entry`]) — bit for bit what assembling the solver's delta
//! columns would have written.

use crate::roots::SecularRoot;
use crate::simd::SecularKernels;
use dcst_matrix::util::sign;
use std::ops::Range;

/// Partial Gu–Eisenstat products over the root panel `jrange`.
///
/// `col0` is the column index stored at offset 0 of `deltas` (pass 0 when
/// the buffer holds all k columns; pass the panel start when handing in a
/// panel slice).
///
/// `deltas` is a column-major buffer with leading dimension `ld ≥ k` whose
/// column `j` holds `delta_j[i] = d_i − λ_j` as produced by
/// [`solve_secular_root`](crate::solve_secular_root). Returns
/// `out[i] = Π_{j ∈ jrange} tᵢⱼ` with `tᵢᵢ = delta_i[i]` and
/// `tᵢⱼ = delta_j[i] / (dlamda_i − dlamda_j)` otherwise.
pub fn local_w_products(
    dlamda: &[f64],
    deltas: &[f64],
    ld: usize,
    col0: usize,
    jrange: Range<usize>,
) -> Vec<f64> {
    let k = dlamda.len();
    debug_assert!(ld >= k);
    let kernels = SecularKernels::dispatched();
    let mut out = vec![1.0f64; k];
    for j in jrange {
        let col = &deltas[(j - col0) * ld..(j - col0) * ld + k];
        kernels.local_w_col(dlamda, col, j, &mut out);
    }
    out
}

/// Multiply root `j`'s Gu–Eisenstat factors into a running partial
/// product, in place: `acc[i] *= tᵢⱼ` with `tᵢⱼ` as in
/// [`local_w_products`], root `j`'s pole distances rebuilt from the stored
/// `root` inside the pass. For a caller that keeps roots, not columns;
/// starting from ones, the result is bit-identical to `local_w_products`
/// over the same roots' columns.
pub fn local_w_accumulate(dlamda: &[f64], root: &SecularRoot, j: usize, acc: &mut [f64]) {
    SecularKernels::dispatched().local_w_root(dlamda, dlamda[root.origin], root.mu, j, acc);
}

/// Combine panel partial products into ẑ, restoring the sign of the
/// original `w`. Each product must be the element-wise product of the
/// panels covering all `k` roots exactly once.
pub fn reduce_w(w: &[f64], partials: &[Vec<f64>]) -> Vec<f64> {
    let k = w.len();
    let mut acc = vec![1.0f64; k];
    for p in partials {
        debug_assert_eq!(p.len(), k);
        for (a, &x) in acc.iter_mut().zip(p) {
            *a *= x;
        }
    }
    acc.iter()
        .zip(w)
        .map(|(&prod, &wi)| sign((-prod).max(0.0).sqrt(), wi))
        .collect()
}

/// Overwrite delta columns `jrange` of the buffer (leading dimension `ld`)
/// with the normalized eigenvectors of the secular problem, rows permuted
/// to workspace storage order by `sec_to_slot`.
///
/// Column `j` becomes `x` with `x[sec_to_slot[i]] = (ẑᵢ / delta_j[i]) / ‖·‖`.
pub fn assemble_vectors(
    zhat: &[f64],
    deltas: &mut [f64],
    ld: usize,
    col0: usize,
    jrange: Range<usize>,
    sec_to_slot: &[usize],
) {
    assemble_impl(
        zhat,
        deltas,
        ld,
        col0,
        jrange,
        sec_to_slot,
        SecularKernels::dispatched(),
    )
}

/// [`assemble_vectors`] forced onto the scalar kernel body (the test
/// oracle). The SIMD path vectorizes the quotient and the norm
/// accumulation, so normalized columns can differ by rounding-order noise
/// within a few ulps.
pub fn assemble_vectors_scalar(
    zhat: &[f64],
    deltas: &mut [f64],
    ld: usize,
    col0: usize,
    jrange: Range<usize>,
    sec_to_slot: &[usize],
) {
    assemble_impl(
        zhat,
        deltas,
        ld,
        col0,
        jrange,
        sec_to_slot,
        SecularKernels::SCALAR,
    )
}

fn assemble_impl(
    zhat: &[f64],
    deltas: &mut [f64],
    ld: usize,
    col0: usize,
    jrange: Range<usize>,
    sec_to_slot: &[usize],
    kernels: SecularKernels,
) {
    let k = zhat.len();
    debug_assert!(ld >= k);
    debug_assert_eq!(sec_to_slot.len(), k);
    let mut tmp = vec![0.0f64; k];
    for j in jrange {
        let col = &mut deltas[(j - col0) * ld..(j - col0) * ld + k];
        let (nrm2, _) = kernels.assemble_col(zhat, col, &mut tmp);
        let inv = 1.0 / nrm2.sqrt();
        // Scatter through the slot permutation stays scalar: the indices
        // are arbitrary, and k writes are cheap next to the k divisions.
        for i in 0..k {
            col[sec_to_slot[i]] = tmp[i] * inv;
        }
    }
}

/// A merge's secular eigenvector matrix X held as its generators: the poles
/// `dlamda`, Gu–Eisenstat's `zhat` (both in secular order) and, per column
/// `c`, the root's accepted `(mu[c], origin[c])` (a
/// [`SecularRoot`](crate::SecularRoot)) — 12 bytes a column instead of k
/// entries. Column `c` of X is the normalized `(ẑᵢ/δᵢ)ᵢ` with
/// `δᵢ = (dlamda[i] − dlamda[origin[c]]) − mu[c]`, the pole distances the
/// solve wrote, rebuilt bit for bit.
#[derive(Clone, Copy)]
pub struct SecularGenerators<'a> {
    pub dlamda: &'a [f64],
    pub zhat: &'a [f64],
    pub mu: &'a [f64],
    pub origin: &'a [u32],
}

impl<'a> SecularGenerators<'a> {
    /// Column `c`'s pole distances into `delta` (length k).
    fn delta(&self, c: usize, delta: &mut [f64]) {
        let (pole, mu) = (self.dlamda[self.origin[c] as usize], self.mu[c]);
        for (de, &d) in delta.iter_mut().zip(self.dlamda) {
            *de = (d - pole) - mu;
        }
    }

    /// Assemble every column into `block` (column `c` at `c·ld`, rows
    /// `0..k`) with `kernels`' assembly, rows permuted to storage order by
    /// `sec_to_slot` — bit for bit what [`assemble_vectors`] on that
    /// instance makes of the solver's delta columns.
    pub fn assemble(
        &self,
        kernels: &SecularKernels,
        sec_to_slot: &[usize],
        block: &mut [f64],
        ld: usize,
    ) {
        let k = self.dlamda.len();
        debug_assert!(ld >= k && sec_to_slot.len() == k && self.zhat.len() == k);
        let mut tmp = vec![0.0f64; k];
        for c in 0..self.mu.len() {
            let col = &mut block[c * ld..c * ld + k];
            self.delta(c, col);
            let (nrm2, _) = kernels.assemble_col(self.zhat, col, &mut tmp);
            let inv = 1.0 / nrm2.sqrt();
            for (&s, &x) in sec_to_slot.iter().zip(&tmp) {
                col[s] = x * inv;
            }
        }
    }

    /// Each column's `1/‖·‖`, formed with `kernels`' assembly: O(k) per
    /// column, once per merge however many readers [`entries`](Self::entries)
    /// makes.
    pub fn norms(&self, kernels: SecularKernels) -> ColumnNorms {
        let k = self.dlamda.len();
        let (mut delta, mut tmp) = (vec![0.0f64; k], vec![0.0f64; k]);
        let (inv, redone) = (0..self.mu.len())
            .map(|c| {
                self.delta(c, &mut delta);
                let (nrm2, redone) = kernels.assemble_col(self.zhat, &delta, &mut tmp);
                (1.0 / nrm2.sqrt(), redone)
            })
            .unzip();
        ColumnNorms {
            kernels,
            inv,
            redone,
        }
    }

    /// The entry-by-entry view of X, in secular order, over these
    /// generators' [`norms`](Self::norms).
    pub fn entries(self, norms: &'a ColumnNorms) -> GeneratedX<'a> {
        debug_assert_eq!(norms.inv.len(), self.mu.len());
        GeneratedX { gen: self, norms }
    }
}

/// Each column of X's `1/‖·‖` and whether its assembly pass was redone
/// with the division, with the kernels that formed them: what
/// [`GeneratedX`] needs beyond the generators. Owned, so the tasks that
/// read one merge's X share one copy.
pub struct ColumnNorms {
    kernels: SecularKernels,
    inv: Vec<f64>,
    redone: Vec<bool>,
}

/// X in secular order, read one entry at a time from its generators — what
/// the structured update compresses. Entry `(i, j)` is what
/// [`SecularGenerators::assemble`] writes to row `sec_to_slot[i]` of column
/// `j`, bit for bit: the instance's quotient on one lane (or the division,
/// where the column's assembly pass was redone with it) times the column's
/// `1/‖·‖`.
pub struct GeneratedX<'a> {
    gen: SecularGenerators<'a>,
    norms: &'a ColumnNorms,
}

impl GeneratedX<'_> {
    /// Entry `(i, j)` in secular order.
    #[inline]
    pub fn entry(&self, i: usize, j: usize) -> f64 {
        let (g, nm) = (&self.gen, self.norms);
        let de = (g.dlamda[i] - g.dlamda[g.origin[j] as usize]) - g.mu[j];
        let q = if nm.redone[j] {
            g.zhat[i] / de
        } else {
            nm.kernels.quot(g.zhat[i], de)
        };
        q * nm.inv[j]
    }
}

/// The two boundary-row entries a merge's secular root contributes, for a
/// root stored as `(origin, μ)` (a [`SecularRoot`](crate::SecularRoot)):
/// with `δᵢ = (dlamda[i] − dlamda[origin]) − μ` rebuilt as the solver wrote
/// it and `x = (ẑᵢ/δᵢ)ᵢ` the root's unnormalized eigenvector, returns
/// `(wf·x, wl·x) / ‖x‖` — what assembling, normalizing and dotting the
/// vector would give, in one division pass and without storing it. `wf`
/// and `wl` are in secular order, like `dlamda` and `zhat`.
pub fn secular_row_entries(
    dlamda: &[f64],
    origin: usize,
    mu: f64,
    zhat: &[f64],
    wf: &[f64],
    wl: &[f64],
) -> (f64, f64) {
    row_entries_impl(
        dlamda,
        origin,
        mu,
        zhat,
        wf,
        wl,
        SecularKernels::dispatched(),
    )
}

/// [`secular_row_entries`] forced onto the scalar kernel body (the test
/// oracle); the SIMD body reassociates the three sums.
pub fn secular_row_entries_scalar(
    dlamda: &[f64],
    origin: usize,
    mu: f64,
    zhat: &[f64],
    wf: &[f64],
    wl: &[f64],
) -> (f64, f64) {
    row_entries_impl(dlamda, origin, mu, zhat, wf, wl, SecularKernels::SCALAR)
}

fn row_entries_impl(
    dlamda: &[f64],
    origin: usize,
    mu: f64,
    zhat: &[f64],
    wf: &[f64],
    wl: &[f64],
    kernels: SecularKernels,
) -> (f64, f64) {
    let s = kernels.row_sums(dlamda, dlamda[origin], mu, zhat, wf, wl);
    let nrm = s.nrm2.sqrt();
    (s.first / nrm, s.last / nrm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve_secular_root;

    /// Solve the whole k × k secular problem and return (λ, X) with X in
    /// secular row order (identity slot map).
    fn full_solve(d: &[f64], z: &[f64], rho: f64) -> (Vec<f64>, Vec<f64>) {
        let k = d.len();
        let mut deltas = vec![0.0; k * k];
        let mut lam = vec![0.0; k];
        for j in 0..k {
            lam[j] = solve_secular_root(j, d, z, rho, &mut deltas[j * k..(j + 1) * k]).unwrap();
        }
        let partials = vec![
            local_w_products(d, &deltas, k, 0, 0..k / 2),
            local_w_products(d, &deltas, k, 0, k / 2..k),
        ];
        let zhat = reduce_w(z, &partials);
        let ident: Vec<usize> = (0..k).collect();
        assemble_vectors(&zhat, &mut deltas, k, 0, 0..k, &ident);
        (lam, deltas)
    }

    fn rank_one_apply(d: &[f64], z: &[f64], rho: f64, x: &[f64], y: &mut [f64]) {
        let zx: f64 = z.iter().zip(x).map(|(a, b)| a * b).sum();
        for i in 0..d.len() {
            y[i] = d[i] * x[i] + rho * z[i] * zx;
        }
    }

    fn check_eigenpairs(d: &[f64], z: &[f64], rho: f64, lam: &[f64], x: &[f64], tol: f64) {
        let k = d.len();
        let mut y = vec![0.0; k];
        for j in 0..k {
            let col = &x[j * k..(j + 1) * k];
            rank_one_apply(d, z, rho, col, &mut y);
            for i in 0..k {
                assert!(
                    (y[i] - lam[j] * col[i]).abs() < tol,
                    "residual root {j} row {i}: {} vs {}",
                    y[i],
                    lam[j] * col[i]
                );
            }
        }
        // Orthonormality.
        for a in 0..k {
            for b in 0..=a {
                let g: f64 = (0..k).map(|i| x[a * k + i] * x[b * k + i]).sum();
                let want = if a == b { 1.0 } else { 0.0 };
                assert!((g - want).abs() < tol, "gram ({a},{b}) = {g}");
            }
        }
    }

    #[test]
    fn small_problem_full_pipeline() {
        let d = [0.0, 1.0, 2.5, 4.0];
        let z = [0.5, 0.5, 0.5, 0.5];
        let rho = 1.5;
        let (lam, x) = full_solve(&d, &z, rho);
        check_eigenpairs(&d, &z, rho, &lam, &x, 1e-12);
    }

    #[test]
    fn zhat_close_to_z_for_well_separated_problem() {
        let d = [0.0, 10.0, 20.0, 30.0];
        let z = [0.3, -0.4, 0.5, 0.2];
        let rho = 1.0;
        let k = 4;
        let mut deltas = vec![0.0; k * k];
        for j in 0..k {
            solve_secular_root(j, &d, &z, rho, &mut deltas[j * k..(j + 1) * k]).unwrap();
        }
        let partials = vec![local_w_products(&d, &deltas, k, 0, 0..k)];
        let zhat = reduce_w(&z, &partials);
        for (a, b) in zhat.iter().zip(&z) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
            assert_eq!(a.signum(), b.signum());
        }
    }

    #[test]
    fn clustered_poles_still_orthogonal() {
        // The whole point of Gu–Eisenstat: tight pole clusters must not
        // destroy orthogonality.
        let d = [0.0, 1e-13, 2e-13, 1.0, 1.0 + 1e-13, 2.0];
        let z = {
            let raw: [f64; 6] = [0.3, 0.35, 0.4, 0.45, 0.5, 0.55];
            let n: f64 = raw.iter().map(|x| x * x).sum::<f64>().sqrt();
            [
                raw[0] / n,
                raw[1] / n,
                raw[2] / n,
                raw[3] / n,
                raw[4] / n,
                raw[5] / n,
            ]
        };
        let rho = 0.7;
        let (lam, x) = full_solve(&d, &z, rho);
        check_eigenpairs(&d, &z, rho, &lam, &x, 1e-10);
        assert!(lam.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn panel_split_is_associative() {
        let d = [0.0, 0.5, 1.5, 3.0, 6.0];
        let z = [0.4, 0.4, 0.4, 0.4, 0.6];
        let rho = 2.0;
        let k = 5;
        let mut deltas = vec![0.0; k * k];
        for j in 0..k {
            solve_secular_root(j, &d, &z, rho, &mut deltas[j * k..(j + 1) * k]).unwrap();
        }
        let one = vec![local_w_products(&d, &deltas, k, 0, 0..k)];
        let many: Vec<Vec<f64>> = (0..k)
            .map(|j| local_w_products(&d, &deltas, k, 0, j..j + 1))
            .collect();
        let za = reduce_w(&z, &one);
        let zb = reduce_w(&z, &many);
        for (a, b) in za.iter().zip(&zb) {
            assert!((a - b).abs() <= 1e-12 * a.abs().max(1.0));
        }
    }

    #[test]
    fn slot_permutation_places_rows() {
        let d = [0.0, 1.0, 3.0];
        let z = [0.6, 0.6, 0.529_150_262_212_918_2]; // unit-ish
        let rho = 1.0;
        let k = 3;
        let mut deltas = vec![0.0; k * k];
        let mut lam = vec![0.0; k];
        for j in 0..k {
            lam[j] = solve_secular_root(j, &d, &z, rho, &mut deltas[j * k..(j + 1) * k]).unwrap();
        }
        let zhat = reduce_w(&z, &[local_w_products(&d, &deltas, k, 0, 0..k)]);
        let mut permuted = deltas.clone();
        let slot_map = [2usize, 0, 1];
        assemble_vectors(&zhat, &mut deltas, k, 0, 0..k, &[0, 1, 2]);
        assemble_vectors(&zhat, &mut permuted, k, 0, 0..k, &slot_map);
        for j in 0..k {
            for i in 0..k {
                assert_eq!(permuted[j * k + slot_map[i]], deltas[j * k + i]);
            }
        }
    }
}
