//! Eigenvalue-only D&C kernels (the [`SolveMode::ValuesOnly`] path).
//!
//! Cuppen's merge only consumes two *rows* of each child's eigenvector
//! matrix: the left child's last row and the right child's first row form
//! the rank-one vector `z` (Eq. (6) of the paper). When no eigenvectors
//! are requested there is therefore no reason to accumulate n×n matrices —
//! following Zhan–Zhang's state-reduced eigenvalue-only D&C, every node
//! propagates just its own boundary rows ([`BoundaryRows`]: the first and
//! last row of the node's eigenvector matrix, `O(n)` numbers), and each
//! merge updates them from the secular eigenvectors it would otherwise
//! have assembled into columns. Internal state drops from `O(n²)` to
//! `O(n)` per node, which is what makes large values-only solves fit in
//! cache-sized memory (`peak_alloc_mb` on the `values_t6_n4000` workload
//! of `BENCHMARK.json`, bound 0.05).
//!
//! Each secular root is **solved once**, in two passes over the merge's
//! roots. Pass 1 (`LAED4`, [`crate::merge::laed4_panel`], the vector
//! payload's too) solves the secular equation for the eigenvalue,
//! multiplies the root's factors into the running Gu–Eisenstat `local_w`
//! partial (one k-length delta column, reused; the partial joins the
//! merge's product in panel order when the panel ends) and keeps the
//! accepted `(μ, origin)` — 12 bytes per root, O(k) per merge, inside the mode's
//! O(n) budget. Pass 2 (`RowUpdate`, once ẑ is known) rebuilds each root's
//! pole distances from that pair, `δᵢ = (dᵢ − d_origin) − μ`, bit for bit
//! what the solver wrote, and in the same division pass forms
//! `xᵢ = ẑᵢ/δᵢ`, its norm and its dots with the carried boundary rows: the
//! vector is never stored. The root merge, whose output rows nobody reads,
//! solves for its eigenvalues and keeps nothing.
//!
//! [`SolveMode::ValuesOnly`]: crate::SolveMode::ValuesOnly

use crate::merge::{slot_rows, PanelRoots};
use crate::DcError;
use dcst_qriter::{steqr_mut, ZBlock};
use dcst_secular::{secular_row_entries, Deflation};

/// The first and last row of a node's (never materialized) eigenvector
/// matrix, indexed by the node's physical column order.
#[derive(Clone, Debug, Default)]
pub(crate) struct BoundaryRows {
    pub first: Vec<f64>,
    pub last: Vec<f64>,
}

/// Leaf solve for the values-only path: QR iteration on the block, with
/// rotations accumulated into a 2×nm row block instead of an identity
/// matrix — rows 0 and nm−1 of the identity seed exactly the first/last
/// rows of the leaf's eigenvector matrix.
pub(crate) fn solve_leaf_values(
    d: &mut [f64],
    e: &mut [f64],
    off: usize,
) -> Result<BoundaryRows, DcError> {
    let nm = d.len();
    let mut rows = vec![0.0f64; 2 * nm];
    rows[0] = 1.0; // row 0 of the identity: e₀ᵀ
    rows[(nm - 1) * 2 + 1] = 1.0; // row nm−1: e_{nm−1}ᵀ
    let z = ZBlock {
        buf: &mut rows,
        ld: 2,
        nrows: 2,
    };
    steqr_mut(d, e, Some(z)).map_err(|err| DcError::Leaf(err.with_offset(off)))?;
    let first = (0..nm).map(|j| rows[2 * j]).collect();
    let last = (0..nm).map(|j| rows[2 * j + 1]).collect();
    Ok(BoundaryRows { first, last })
}

/// The merge's rank-one vector from the children's boundary rows:
/// `z = [left.last | right.first] / √2` — what `build_z` reads out of the
/// vector payload's V block.
pub(crate) fn rows_z(rows_l: &BoundaryRows, rows_r: &BoundaryRows) -> Vec<f64> {
    let s2 = std::f64::consts::FRAC_1_SQRT_2;
    let (l, r) = (&rows_l.last, &rows_r.first);
    l.iter().chain(r).map(|x| x * s2).collect()
}

/// Carry the merged block's boundary rows through the deflation rotations
/// into storage-slot order, masked to each slot's row span — the row
/// analogue of `apply_givens` + `PermuteV`. Returns `(rows, w)`: `rows`
/// over all `nm` slots, in which the deflated ones (`k..`) are final and
/// the pass-2 panels overwrite `0..k`; and `w`, those `k` pre-update
/// entries gathered into secular order, which is what pass 2 multiplies.
pub(crate) fn carry_rows(
    defl: &Deflation,
    rows_l: &BoundaryRows,
    rows_r: &BoundaryRows,
) -> (BoundaryRows, BoundaryRows) {
    let (nm, n1) = (defl.n, defl.n1);
    debug_assert_eq!(rows_l.first.len(), n1);
    debug_assert_eq!(rows_r.first.len(), nm - n1);
    // The merged block's boundary rows over its physical (pre-permute)
    // columns: its first row lives entirely in the left child (right-child
    // columns are zero there), its last row in the right child.
    let mut first_cat = vec![0.0f64; nm];
    let mut last_cat = vec![0.0f64; nm];
    first_cat[..n1].copy_from_slice(&rows_l.first);
    last_cat[n1..].copy_from_slice(&rows_r.last);
    // Deflation rotations: 2-element column pairs of each row.
    for r in &defl.givens {
        for row in [&mut first_cat, &mut last_cat] {
            let (xv, yv) = (row[r.col_a], row[r.col_b]);
            row[r.col_a] = r.c * xv + r.s * yv;
            row[r.col_b] = -r.s * xv + r.c * yv;
        }
    }
    // Permute to storage-slot order, masking entries outside a slot's row
    // span: the full path's update GEMMs read Top slots only for the top
    // rows and Bottom slots only for the bottom rows, so a Bottom slot
    // contributes nothing to the first row (and Top nothing to the last).
    let mut rows = BoundaryRows {
        first: vec![0.0f64; nm],
        last: vec![0.0f64; nm],
    };
    for s in 0..nm {
        let src = defl.perm[s];
        let (r0, r1) = slot_rows(defl.slot_type[s], nm, n1);
        if r0 == 0 {
            rows.first[s] = first_cat[src];
        }
        if r1 == nm {
            rows.last[s] = last_cat[src];
        }
    }
    let secular = |row: &[f64]| defl.sec_to_slot.iter().map(|&s| row[s]).collect();
    let w = BoundaryRows {
        first: secular(&rows.first),
        last: secular(&rows.last),
    };
    (rows, w)
}

/// Pass 2 over the secular roots of one panel, whose pass-1 record is
/// `roots`: per root one fused division pass rebuilds the pole distances
/// from the stored `(μ, origin)`, forms the normalized secular
/// eigenvector's dots with the secular-order boundary rows `w`
/// ([`carry_rows`]) — the 1×k row analogue of the full path's two
/// structured GEMMs — and stores neither. Returns the new `(first, last)`
/// row entries for the panel's columns.
pub(crate) fn row_update_panel(
    defl: &Deflation,
    w: &BoundaryRows,
    zhat: &[f64],
    roots: &PanelRoots,
    row_off: usize,
) -> Result<(Vec<f64>, Vec<f64>), DcError> {
    let mut first = Vec::with_capacity(roots.mu.len());
    let mut last = Vec::with_capacity(roots.mu.len());
    for (&mu, &origin) in roots.mu.iter().zip(&roots.origin) {
        let (fr, lr) =
            secular_row_entries(&defl.dlamda, origin as usize, mu, zhat, &w.first, &w.last);
        if !(fr.is_finite() && lr.is_finite()) {
            return Err(DcError::Breakdown {
                stage: "row-update",
                off: row_off,
            });
        }
        first.push(fr);
        last.push(lr);
    }
    Ok((first, last))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcst_tridiag::SymTridiag;

    /// Leaf boundary rows must equal the first/last rows of the full
    /// leaf eigenvector matrix.
    #[test]
    fn leaf_rows_match_full_leaf() {
        let n = 12;
        let t = SymTridiag::toeplitz121(n);
        // Full leaf solve.
        let mut d_full = t.d.clone();
        let mut e_full = t.e.clone();
        let mut v = vec![0.0f64; n * n];
        for j in 0..n {
            v[j * n + j] = 1.0;
        }
        steqr_mut(
            &mut d_full,
            &mut e_full,
            Some(ZBlock {
                buf: &mut v,
                ld: n,
                nrows: n,
            }),
        )
        .unwrap();
        // Values-only leaf solve.
        let mut d_rows = t.d.clone();
        let rows = solve_leaf_values(&mut d_rows, &mut t.e.clone(), 0).unwrap();
        assert_eq!(d_rows, d_full);
        for j in 0..n {
            assert!((rows.first[j] - v[j * n]).abs() < 1e-14);
            assert!((rows.last[j] - v[j * n + n - 1]).abs() < 1e-14);
        }
    }

    #[test]
    fn single_row_leaf() {
        let mut d = vec![3.0];
        let rows = solve_leaf_values(&mut d, &mut [], 0).unwrap();
        assert_eq!(rows.first, vec![1.0]);
        assert_eq!(rows.last, vec![1.0]);
    }
}
