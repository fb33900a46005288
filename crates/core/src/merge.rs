//! The merge-phase kernels shared by every D&C variant.
//!
//! All kernels operate in *block-local* coordinates: slices are assumed to
//! start at the merge block's origin element `(off, off)` (or at a column
//! within it, as documented per function) of a column-major buffer with
//! leading dimension `ld` (the global problem size). This lets the task
//! bodies hand in disjoint [`SharedData`](dcst_runtime::SharedData) ranges
//! without any coordinate translation inside the kernels.

use crate::DcError;
use dcst_matrix::{gemm, merge_perm};
use dcst_secular::{
    assemble_vectors, deflate, local_w_products, solve_secular_root, Deflation, DeflationInput,
    GivensRot, SlotType,
};
use std::ops::Range;

/// Statistics of one merge node.
#[derive(Clone, Copy, Debug)]
pub struct MergeStat {
    /// Merge size (`n1 + n2`).
    pub n: usize,
    /// Left-child size.
    pub n1: usize,
    /// Non-deflated count (secular problem size).
    pub k: usize,
}

impl MergeStat {
    /// Fraction deflated in this merge.
    pub fn deflation_ratio(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.n - self.k) as f64 / self.n as f64
        }
    }
}

/// `1/√2`, the z-vector normalization of the paper's Eq. (6).
const FRAC_1_SQRT_2: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// Build the rank-one vector `z` (physical order): the last row of the
/// left child's eigenvector block and the first row of the right child's,
/// scaled to unit norm. `v_block` starts at `(off, off)`.
pub(crate) fn build_z(v_block: &[f64], ld: usize, nm: usize, n1: usize) -> Vec<f64> {
    let mut z = Vec::with_capacity(nm);
    for j in 0..n1 {
        z.push(v_block[j * ld + (n1 - 1)] * FRAC_1_SQRT_2);
    }
    for j in n1..nm {
        z.push(v_block[j * ld + n1] * FRAC_1_SQRT_2);
    }
    z
}

/// `ComputeDeflation`, payload-independent part: validate the merge's
/// numerical inputs (the block diagonal and the rank-one vector `z`), join
/// the children's sorting permutations and deflate. Leaves deliver finite
/// data on success, so non-finite values here mean an upstream kernel
/// broke down silently (e.g. overflow in a rotation) — report it as a
/// typed breakdown instead of letting NaN propagate into a garbage `Eigen`.
pub(crate) fn deflate_block(
    d_block: &[f64],
    z: &[f64],
    beta: f64,
    n1: usize,
    off: usize,
    idxq_l: &[usize],
    idxq_r: &[usize],
) -> Result<Deflation, DcError> {
    if !d_block.iter().chain(z).all(|x| x.is_finite()) {
        return Err(DcError::Breakdown {
            stage: "deflate",
            off,
        });
    }
    let mut idxq = idxq_l.to_vec();
    idxq.extend(idxq_r.iter().map(|&r| r + n1));
    Ok(deflate(&DeflationInput {
        d: d_block,
        z,
        beta,
        n1,
        idxq: &idxq,
    }))
}

/// Apply the deflation Givens rotations to eigenvector columns (block rows
/// only — columns are zero outside them). BLAS `drot` convention, matching
/// [`GivensRot`]'s contract.
pub(crate) fn apply_givens(v_block: &mut [f64], ld: usize, nm: usize, rots: &[GivensRot]) {
    for r in rots {
        let (a, b) = (r.col_a, r.col_b);
        debug_assert!(a != b && a < nm && b < nm);
        let (lo, hi) = (a.min(b), a.max(b));
        let (first, second) = v_block.split_at_mut(hi * ld);
        let ca = &mut first[lo * ld..lo * ld + nm];
        let cb = &mut second[..nm];
        let (ca, cb) = if a < b { (ca, cb) } else { (cb, ca) };
        for (x, y) in ca.iter_mut().zip(cb.iter_mut()) {
            let (xv, yv) = (*x, *y);
            *x = r.c * xv + r.s * yv;
            *y = -r.s * xv + r.c * yv;
        }
    }
}

/// Row span (block-local) of a slot's stored data.
#[inline]
pub(crate) fn slot_rows(t: SlotType, nm: usize, n1: usize) -> (usize, usize) {
    match t {
        SlotType::Top => (0, n1),
        SlotType::Bottom => (n1, nm),
        SlotType::Full | SlotType::Deflated => (0, nm),
    }
}

/// `PermuteV`: copy source columns into the compressed workspace for the
/// storage slots in `slots`. `v_block` starts at `(off, off)`; `ws_cols`
/// starts at `(off, off + slots.start)`.
///
/// When the block spans the full column height (`ld == nm`, i.e. the root
/// merge, where half the total copy traffic lives) runs of full-height
/// slots with consecutive source columns collapse into single spanning
/// `copy_from_slice` calls instead of per-column slicing. With `ld > nm`
/// the rows between columns belong to other blocks, so a spanning copy
/// would clobber them — those blocks keep the per-slot row-span copies.
pub(crate) fn permute_slots(
    v_block: &[f64],
    ws_cols: &mut [f64],
    ld: usize,
    nm: usize,
    n1: usize,
    defl: &Deflation,
    slots: Range<usize>,
) {
    let s0 = slots.start;
    if ld == nm {
        let mut s = slots.start;
        while s < slots.end {
            let src = defl.perm[s];
            let (r0, r1) = slot_rows(defl.slot_type[s], nm, n1);
            if (r0, r1) == (0, nm) {
                let mut len = 1;
                while s + len < slots.end
                    && defl.perm[s + len] == src + len
                    && slot_rows(defl.slot_type[s + len], nm, n1) == (0, nm)
                {
                    len += 1;
                }
                ws_cols[(s - s0) * ld..(s - s0 + len) * ld]
                    .copy_from_slice(&v_block[src * ld..(src + len) * ld]);
                s += len;
            } else {
                ws_cols[(s - s0) * ld + r0..(s - s0) * ld + r1]
                    .copy_from_slice(&v_block[src * ld + r0..src * ld + r1]);
                s += 1;
            }
        }
        return;
    }
    for s in slots.clone() {
        let src = defl.perm[s];
        let (r0, r1) = slot_rows(defl.slot_type[s], nm, n1);
        let dst = &mut ws_cols[(s - s0) * ld + r0..(s - s0) * ld + r1];
        dst.copy_from_slice(&v_block[src * ld + r0..src * ld + r1]);
    }
}

/// `LAED4`: solve secular roots `jrange`, writing delta columns into
/// `x_cols` (starting at `(off, off + jrange.start)`, rows `0..k` of each
/// column) and eigenvalues into `lam_out[j - jrange.start]`.
pub(crate) fn solve_roots_panel(
    defl: &Deflation,
    x_cols: &mut [f64],
    ld: usize,
    jrange: Range<usize>,
    lam_out: &mut [f64],
) -> Result<(), DcError> {
    let k = defl.k;
    for j in jrange.clone() {
        let col = &mut x_cols[(j - jrange.start) * ld..(j - jrange.start) * ld + k];
        lam_out[j - jrange.start] = solve_secular_root(j, &defl.dlamda, &defl.w, defl.rho, col)?;
    }
    Ok(())
}

/// `ComputeLocalW` for a root panel: partial Gu–Eisenstat products.
/// `x_cols` starts at `(off, off + jrange.start)`.
pub(crate) fn local_w_panel(
    defl: &Deflation,
    x_cols: &[f64],
    ld: usize,
    jrange: Range<usize>,
) -> Vec<f64> {
    local_w_products(&defl.dlamda, x_cols, ld, jrange.start, jrange)
}

/// `ComputeVect`: overwrite delta columns `jrange` with slot-permuted,
/// normalized secular eigenvectors. `x_cols` starts at
/// `(off, off + jrange.start)`.
pub(crate) fn compute_vect_panel(
    defl: &Deflation,
    zhat: &[f64],
    x_cols: &mut [f64],
    ld: usize,
    jrange: Range<usize>,
) {
    assemble_vectors(zhat, x_cols, ld, jrange.start, jrange, &defl.sec_to_slot);
}

/// `UpdateVect`: the two structured GEMMs producing the merged
/// eigenvectors for secular columns `jrange`.
///
/// * `ws_block` starts at `(off, off)` (all `k` compressed columns);
/// * `x_cols` starts at `(off, off + jrange.start)`;
/// * `v_cols` starts at `(0, off + jrange.start)` — **full column height**,
///   with `row_off = off` giving the block's first row within the column.
#[allow(clippy::too_many_arguments)]
pub(crate) fn update_vect_panel(
    ws_block: &[f64],
    x_cols: &[f64],
    xld: usize,
    v_cols: &mut [f64],
    ld: usize,
    row_off: usize,
    nm: usize,
    n1: usize,
    defl: &Deflation,
    jrange: Range<usize>,
) -> Result<(), DcError> {
    let ncols = jrange.len();
    if ncols == 0 {
        return Ok(());
    }
    if dcst_matrix::failpoints::fire("gemm") {
        return Err(DcError::Breakdown {
            stage: "gemm",
            off: row_off,
        });
    }
    let n2 = nm - n1;
    let c1 = defl.ctot[0];
    let c2 = defl.ctot[1];
    let c3 = defl.ctot[2];
    // GEMM volume for the metrics registry, batched into one update below.
    let mut gemm_calls = 0u64;
    let mut gemm_flops = 0u64;
    // Top rows: A = [Top | Full] columns (n1 × (c1+c2)).
    if n1 > 0 {
        if c1 + c2 > 0 {
            gemm_calls += 1;
            gemm_flops += 2 * (n1 * ncols * (c1 + c2)) as u64;
            gemm(
                n1,
                ncols,
                c1 + c2,
                1.0,
                ws_block,
                ld,
                x_cols,
                xld,
                0.0,
                &mut v_cols[row_off..],
                ld,
            );
        } else {
            for j in 0..ncols {
                v_cols[j * ld + row_off..j * ld + row_off + n1].fill(0.0);
            }
        }
    }
    // Bottom rows: A = [Full | Bottom] columns (n2 × (c2+c3)), starting at
    // workspace column c1, row n1; B rows start at c1.
    if n2 > 0 {
        if c2 + c3 > 0 {
            gemm_calls += 1;
            gemm_flops += 2 * (n2 * ncols * (c2 + c3)) as u64;
            gemm(
                n2,
                ncols,
                c2 + c3,
                1.0,
                &ws_block[c1 * ld + n1..],
                ld,
                &x_cols[c1..],
                xld,
                0.0,
                &mut v_cols[row_off + n1..],
                ld,
            );
        } else {
            for j in 0..ncols {
                v_cols[j * ld + row_off + n1..j * ld + row_off + nm].fill(0.0);
            }
        }
    }
    if gemm_calls > 0 {
        dcst_matrix::metrics::add("gemm.calls", gemm_calls);
        dcst_matrix::metrics::add("gemm.flops", gemm_flops);
    }
    // NaN-corruption site: models a GEMM that silently produced garbage.
    dcst_matrix::failpoints::poke_nan("nan-gemm", &mut v_cols[row_off..]);
    // Always-on finite scan of the freshly written block rows: O(nm·ncols)
    // against the GEMMs' O(nm·ncols·k), so ~1/k of the kernel's cost. This
    // is where mid-tree corruption (from any upstream kernel feeding the
    // update) is converted into a typed error instead of a wrong answer.
    for j in 0..ncols {
        let col = &v_cols[j * ld + row_off..j * ld + row_off + nm];
        if !col.iter().all(|x| x.is_finite()) {
            return Err(DcError::Breakdown {
                stage: "update-vect",
                off: row_off,
            });
        }
    }
    Ok(())
}

/// `CopyBackDeflated`: copy deflated workspace columns back into V.
/// Both slices start at `(off, off + slot0)`; `count` columns are copied
/// over the full block height.
///
/// With `ld == nm` (root merge) the columns are contiguous and the whole
/// panel moves in one `copy_from_slice`; smaller blocks keep the strided
/// per-column copies so the rows owned by neighbouring blocks stay
/// untouched.
pub(crate) fn copy_back_panel(
    ws_cols: &[f64],
    v_cols: &mut [f64],
    ld: usize,
    nm: usize,
    count: usize,
) {
    if ld == nm {
        v_cols[..count * ld].copy_from_slice(&ws_cols[..count * ld]);
        return;
    }
    for s in 0..count {
        v_cols[s * ld..s * ld + nm].copy_from_slice(&ws_cols[s * ld..s * ld + nm]);
    }
}

/// Storage-slot spans selected by a subset of *sorted* positions: given
/// the slots `idxq[il..=iu]`, return the secular span and the deflated
/// span they occupy. Both are contiguous because the sorting permutation
/// merges two ascending runs (secular eigenvalues in slots `0..k`,
/// deflated ones in `k..nm`) — any window of sorted positions draws a
/// prefix-free contiguous chunk from each run.
pub(crate) fn subset_slot_spans(
    slots: &[usize],
    k: usize,
    nm: usize,
) -> (Range<usize>, Range<usize>) {
    let (mut sec, mut defl) = (k..k, nm..nm);
    for &s in slots {
        let span = if s < k { &mut sec } else { &mut defl };
        *span = if Range::is_empty(span) {
            s..s + 1
        } else {
            span.start.min(s)..span.end.max(s + 1)
        };
    }
    debug_assert_eq!(
        sec.len() + defl.len(),
        slots.len(),
        "subset slots must form two contiguous spans"
    );
    (sec, defl)
}

/// Finalize a merge: write the block's new diagonal (secular eigenvalues
/// then deflated ones) and return the permutation sorting it ascending.
pub(crate) fn finalize_d(defl: &Deflation, lam_sec: &[f64], d_block: &mut [f64]) -> Vec<usize> {
    let k = defl.k;
    debug_assert_eq!(lam_sec.len(), k);
    d_block[..k].copy_from_slice(lam_sec);
    d_block[k..defl.n].copy_from_slice(&defl.d_deflated);
    merge_perm(&d_block[..defl.n], k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcst_matrix::Matrix;

    #[test]
    fn build_z_extracts_rows() {
        // 4x4 block, n1 = 2: z = [V[1,0], V[1,1], V[2,2], V[2,3]] / √2.
        let mut v = Matrix::zeros(4, 4);
        v[(1, 0)] = 1.0;
        v[(1, 1)] = 2.0;
        v[(2, 2)] = 3.0;
        v[(2, 3)] = 4.0;
        let z = build_z(v.as_slice(), 4, 4, 2);
        let s = FRAC_1_SQRT_2;
        assert_eq!(z, vec![s, 2.0 * s, 3.0 * s, 4.0 * s]);
    }

    #[test]
    fn givens_rotation_preserves_norms() {
        let mut v = Matrix::from_fn(3, 3, |i, j| (i + j) as f64 + 1.0);
        let before: f64 = v.as_slice().iter().map(|x| x * x).sum();
        let th = 0.3f64;
        apply_givens(
            v.as_mut_slice(),
            3,
            3,
            &[GivensRot {
                col_a: 0,
                col_b: 2,
                c: th.cos(),
                s: th.sin(),
            }],
        );
        let after: f64 = v.as_slice().iter().map(|x| x * x).sum();
        assert!((before - after).abs() < 1e-12);
    }

    #[test]
    fn slot_rows_by_type() {
        assert_eq!(slot_rows(SlotType::Top, 10, 4), (0, 4));
        assert_eq!(slot_rows(SlotType::Bottom, 10, 4), (4, 10));
        assert_eq!(slot_rows(SlotType::Full, 10, 4), (0, 10));
        assert_eq!(slot_rows(SlotType::Deflated, 10, 4), (0, 10));
    }

    #[test]
    fn finalize_d_sorts_two_runs() {
        // Fake a deflation result with k = 2 secular values and 2 deflated.
        let d = [0.0, 1.0, 0.5, 2.0];
        let z = [0.5, 0.5, 1e-30, 1e-30];
        let idxq = [0usize, 1, 2, 3];
        let defl = deflate(&DeflationInput {
            d: &d,
            z: &z,
            beta: 0.25,
            n1: 2,
            idxq: &idxq,
        });
        assert_eq!(defl.k, 2);
        let mut d_block = [0.0; 4];
        let lam = [0.4, 1.4];
        let perm = finalize_d(&defl, &lam, &mut d_block);
        // New d = [0.4, 1.4, 0.5, 2.0]; ascending = indices [0, 2, 1, 3].
        assert_eq!(perm, vec![0, 2, 1, 3]);
    }
}
