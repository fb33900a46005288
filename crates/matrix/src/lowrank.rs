//! Low-rank tile compression and the structured GEMM it feeds.
//!
//! The merge phase's eigenvector update multiplies the accumulated basis
//! `Q` by the secular eigenvector matrix `X`. In ascending-pole order `X`
//! is Cauchy-like — `x̃_ij = ẑ_i / (d_i − λ_j) / ‖·‖_j` — so its
//! off-diagonal blocks have rapidly decaying singular values and admit a
//! low-rank factorization `A ≈ U Vᵀ` at any fixed tolerance. This module
//! provides the pieces that are pure dense linear algebra and know nothing
//! about the secular problem:
//!
//! * [`aca`] — adaptive cross approximation with partial pivoting: builds
//!   `U Vᵀ` one rank-1 cross at a time reading only O((m+n)·r) entries of
//!   the block through a caller-supplied entry closure;
//! * [`StructuredMatrix`] — a flat list of disjoint [`Tile`]s (dense or
//!   low-rank) covering a logical `rows × cols` operand;
//! * [`gemm_structured`] — `C(:, jrange) = Q · S(:, jrange)`, routing dense
//!   tiles through the packed GEMM and low-rank tiles through a skinny
//!   GEMM against the precomputed `Q·U` basis product;
//! * [`update_policy`] — the process-wide dense/structured switch, `Auto`
//!   until [`set_update_policy`] pins a path. The library reads no
//!   environment: the `dcst` CLI maps `DCST_FORCE_DENSE` /
//!   `DCST_FORCE_STRUCTURED` onto the setter, as it maps
//!   `DCST_FORCE_SCALAR` onto [`crate::simd::set_simd_level`].
//!
//! Rank estimation, block partitioning and the accuracy-budget tolerance
//! live in `dcst-secular`, which owns the Cauchy-like entry generator.

#![allow(clippy::too_many_arguments)]

use crate::blas::gemm;
use std::sync::atomic::{AtomicU8, Ordering};

/// Which eigenvector-update path the merge phase may take.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UpdatePolicy {
    /// Rank-estimate each merge and pick the cheaper path (the default).
    Auto,
    /// Always run the dense two-GEMM oracle (the CLI's `DCST_FORCE_DENSE=1`).
    ForceDense,
    /// Always attempt the structured path when the merge is large enough
    /// to partition (the CLI's `DCST_FORCE_STRUCTURED=1`); individual
    /// blocks that refuse to compress still fall back to dense tiles.
    ForceStructured,
}

static POLICY: AtomicU8 = AtomicU8::new(UpdatePolicy::Auto as u8);

/// The eigenvector-update policy for this process: `Auto` until
/// [`set_update_policy`] pins another (benches toggle paths inside one
/// process). One relaxed load, read once per merge.
pub fn update_policy() -> UpdatePolicy {
    match POLICY.load(Ordering::Relaxed) {
        x if x == UpdatePolicy::ForceDense as u8 => UpdatePolicy::ForceDense,
        x if x == UpdatePolicy::ForceStructured as u8 => UpdatePolicy::ForceStructured,
        _ => UpdatePolicy::Auto,
    }
}

/// Pin the update policy for this process.
pub fn set_update_policy(p: UpdatePolicy) {
    POLICY.store(p as u8, Ordering::Relaxed);
}

/// A rank-`r` factorization `A ≈ U Vᵀ` of an `m × n` block.
#[derive(Clone, Debug)]
pub struct LowRank {
    /// Achieved rank (0 for a numerically zero block).
    pub rank: usize,
    /// `m × rank`, column-major with leading dimension `m`.
    pub u: Vec<f64>,
    /// `rank × n`, column-major with leading dimension `rank`, so the
    /// column sub-range `j0..j1` is the contiguous slice
    /// `vt[j0*rank..j1*rank]`.
    pub vt: Vec<f64>,
}

/// Adaptive cross approximation with partial pivoting.
///
/// Reads the block only through `entry(i, j)` and returns `Some(LowRank)`
/// with `‖A − U Vᵀ‖_F ≲ rel_tol · ‖A‖_F` (the Frobenius norm is estimated
/// on the fly from the accumulated crosses), or `None` if `max_rank`
/// crosses did not reach the tolerance — the caller then keeps the block
/// dense. Cost: O((m+n)·r) entry evaluations and O((m+n)·r²) flops.
pub fn aca(
    rows: usize,
    cols: usize,
    entry: &mut dyn FnMut(usize, usize) -> f64,
    rel_tol: f64,
    max_rank: usize,
) -> Option<LowRank> {
    let empty = LowRank {
        rank: 0,
        u: Vec::new(),
        vt: Vec::new(),
    };
    if rows == 0 || cols == 0 {
        return Some(empty);
    }
    let max_rank = max_rank.min(rows).min(cols);
    // Crosses stored flat and rank-major (cross t = us[t·rows..], vs[t·cols..])
    // so the residual updates below run as contiguous axpy/dot sweeps the
    // compiler can vectorize, instead of strided walks over per-cross Vecs.
    let mut us: Vec<f64> = Vec::new();
    let mut vs: Vec<f64> = Vec::new();
    let mut rank = 0usize;
    let mut row_used = vec![false; rows];
    let mut frob2 = 0.0f64; // ‖UVᵀ‖_F² accumulated cross by cross
    let mut pivot = 0usize;
    let mut row = vec![0.0f64; cols];
    loop {
        // Residual row at the pivot: r_j = a(i*, j) − Σ_t u_t[i*] v_t[j].
        // A numerically zero residual row does not prove convergence (the
        // row may just be outside the block's column space), so retry a
        // bounded number of other unused rows before concluding.
        let mut retries = rows.min(32);
        let jmax = loop {
            for (j, r) in row.iter_mut().enumerate() {
                *r = entry(pivot, j);
            }
            for t in 0..rank {
                let coef = us[t * rows + pivot];
                if coef != 0.0 {
                    for (r, &v) in row.iter_mut().zip(&vs[t * cols..(t + 1) * cols]) {
                        *r -= coef * v;
                    }
                }
            }
            let jmax = (0..cols).max_by(|&a, &b| row[a].abs().total_cmp(&row[b].abs()));
            match jmax {
                Some(j) if row[j] != 0.0 => break Some(j),
                _ => {
                    row_used[pivot] = true;
                    retries -= 1;
                    match row_used.iter().position(|&u| !u) {
                        Some(next) if retries > 0 => pivot = next,
                        _ => break None,
                    }
                }
            }
        };
        let Some(jmax) = jmax else {
            // Every probed row is in the span of the crosses so far.
            break;
        };
        if rank == max_rank {
            return None;
        }
        // New cross: v = row / pivot entry (so v[jmax] = 1), u = residual
        // column at jmax.
        let piv = row[jmax];
        let v_new: Vec<f64> = row.iter().map(|&r| r / piv).collect();
        let mut u_new = vec![0.0f64; rows];
        for (i, u) in u_new.iter_mut().enumerate() {
            *u = entry(i, jmax);
        }
        for t in 0..rank {
            let coef = vs[t * cols + jmax];
            if coef != 0.0 {
                for (u, &w) in u_new.iter_mut().zip(&us[t * rows..(t + 1) * rows]) {
                    *u -= coef * w;
                }
            }
        }
        row_used[pivot] = true;
        // Frobenius bookkeeping: ‖S + uvᵀ‖² = ‖S‖² + ‖u‖²‖v‖² + 2Σ(u·uₜ)(v·vₜ).
        let unrm2: f64 = u_new.iter().map(|x| x * x).sum();
        let vnrm2: f64 = v_new.iter().map(|x| x * x).sum();
        let mut cross_term = 0.0;
        for t in 0..rank {
            let uu: f64 = u_new
                .iter()
                .zip(&us[t * rows..(t + 1) * rows])
                .map(|(a, b)| a * b)
                .sum();
            let vv: f64 = v_new
                .iter()
                .zip(&vs[t * cols..(t + 1) * cols])
                .map(|(a, b)| a * b)
                .sum();
            cross_term += uu * vv;
        }
        frob2 = (frob2 + unrm2 * vnrm2 + 2.0 * cross_term).max(0.0);
        let step = (unrm2 * vnrm2).sqrt();
        us.extend_from_slice(&u_new);
        vs.extend_from_slice(&v_new);
        rank += 1;
        if step <= rel_tol * frob2.sqrt() {
            break;
        }
        // Next pivot row: largest residual-column magnitude over unused rows.
        let last_u = &us[(rank - 1) * rows..rank * rows];
        match (0..rows)
            .filter(|&i| !row_used[i])
            .max_by(|&a, &b| last_u[a].abs().total_cmp(&last_u[b].abs()))
        {
            Some(next) => pivot = next,
            None => break,
        }
    }
    // Pack the crosses into column-major factors: `us` is already the
    // column-major U; Vᵀ needs the transpose of `vs`.
    let mut vt = vec![0.0f64; rank * cols];
    for t in 0..rank {
        for (j, &v) in vs[t * cols..(t + 1) * cols].iter().enumerate() {
            vt[j * rank + t] = v;
        }
    }
    Some(LowRank { rank, u: us, vt })
}

/// Payload of one tile of a [`StructuredMatrix`].
#[derive(Clone, Debug)]
pub enum TileKind {
    /// Materialized `(r1−r0) × (c1−c0)` block, column-major, leading
    /// dimension `r1−r0`.
    Dense(Vec<f64>),
    /// Compressed block.
    LowRank(LowRank),
}

/// One disjoint block `[r0, r1) × [c0, c1)` of the structured operand.
#[derive(Clone, Debug)]
pub struct Tile {
    pub r0: usize,
    pub r1: usize,
    pub c0: usize,
    pub c1: usize,
    pub kind: TileKind,
}

/// A `rows × cols` matrix stored as a flat list of disjoint tiles that
/// together cover every entry.
#[derive(Clone, Debug, Default)]
pub struct StructuredMatrix {
    pub rows: usize,
    pub cols: usize,
    pub tiles: Vec<Tile>,
}

impl StructuredMatrix {
    /// Number of low-rank tiles.
    pub fn compressed_tiles(&self) -> usize {
        self.tiles
            .iter()
            .filter(|t| matches!(t.kind, TileKind::LowRank(_)))
            .count()
    }

    /// Sum of achieved ranks over the low-rank tiles.
    pub fn total_rank(&self) -> usize {
        self.tiles
            .iter()
            .map(|t| match &t.kind {
                TileKind::LowRank(lr) => lr.rank,
                TileKind::Dense(_) => 0,
            })
            .sum()
    }

    /// Flops of `Q · S` for a `m × rows` left operand, including the
    /// per-tile `Q·U` basis products.
    pub fn multiply_flops(&self, m: usize) -> u64 {
        let m = m as u64;
        self.tiles
            .iter()
            .map(|t| {
                let (tr, tc) = ((t.r1 - t.r0) as u64, (t.c1 - t.c0) as u64);
                match &t.kind {
                    TileKind::Dense(_) => 2 * m * tr * tc,
                    TileKind::LowRank(lr) => 2 * m * (lr.rank as u64) * (tr + tc),
                }
            })
            .sum()
    }
}

/// Precompute the basis product `Q(:, r0..r1) · U` (`m × rank`) for one
/// low-rank tile; returns an empty vector for dense or rank-0 tiles. `q`
/// is `m × sm.rows` column-major with leading dimension `ldq`.
pub fn structured_basis(m: usize, q: &[f64], ldq: usize, tile: &Tile) -> Vec<f64> {
    let TileKind::LowRank(lr) = &tile.kind else {
        return Vec::new();
    };
    if lr.rank == 0 || m == 0 {
        return Vec::new();
    }
    let tr = tile.r1 - tile.r0;
    let mut qu = vec![0.0f64; m * lr.rank];
    gemm(
        m,
        lr.rank,
        tr,
        1.0,
        &q[tile.r0 * ldq..],
        ldq,
        &lr.u,
        tr,
        0.0,
        &mut qu,
        m,
    );
    qu
}

/// `C(:, 0..jrange.len()) = Q · S(:, jrange)` for a tiled operand.
///
/// `q` is `m × sm.rows` (ld `ldq`); `c` receives the `m × jrange.len()`
/// result (ld `ldc`), column 0 of `c` corresponding to structured column
/// `jrange.start`. `qu` must hold one entry per tile of `sm`, the
/// precomputed [`structured_basis`] product (empty slices for dense
/// tiles). Dense tiles run through the packed GEMM; low-rank tiles through
/// one skinny GEMM against their basis product.
pub fn gemm_structured(
    m: usize,
    q: &[f64],
    ldq: usize,
    sm: &StructuredMatrix,
    qu: &[&[f64]],
    jrange: std::ops::Range<usize>,
    c: &mut [f64],
    ldc: usize,
) {
    debug_assert_eq!(qu.len(), sm.tiles.len());
    debug_assert!(jrange.end <= sm.cols);
    let ncols = jrange.len();
    if m == 0 || ncols == 0 {
        return;
    }
    for j in 0..ncols {
        c[j * ldc..j * ldc + m].fill(0.0);
    }
    for (tile, &qu_t) in sm.tiles.iter().zip(qu) {
        let j0 = tile.c0.max(jrange.start);
        let j1 = tile.c1.min(jrange.end);
        if j0 >= j1 {
            continue;
        }
        let jc = j1 - j0;
        let tr = tile.r1 - tile.r0;
        let cpanel = &mut c[(j0 - jrange.start) * ldc..];
        match &tile.kind {
            TileKind::Dense(data) => {
                if tr == 0 {
                    continue;
                }
                gemm(
                    m,
                    jc,
                    tr,
                    1.0,
                    &q[tile.r0 * ldq..],
                    ldq,
                    &data[(j0 - tile.c0) * tr..],
                    tr,
                    1.0,
                    cpanel,
                    ldc,
                );
            }
            TileKind::LowRank(lr) => {
                if lr.rank == 0 {
                    continue;
                }
                debug_assert_eq!(qu_t.len(), m * lr.rank);
                gemm(
                    m,
                    jc,
                    lr.rank,
                    1.0,
                    qu_t,
                    m,
                    &lr.vt[(j0 - tile.c0) * lr.rank..],
                    lr.rank,
                    1.0,
                    cpanel,
                    ldc,
                );
            }
        }
    }
}

/// Materialize a dense tile from an entry closure (helper for tile
/// builders and for ACA fallback).
pub fn materialize(
    rows: usize,
    cols: usize,
    entry: &mut dyn FnMut(usize, usize) -> f64,
) -> Vec<f64> {
    let mut data = vec![0.0f64; rows * cols];
    for j in 0..cols {
        for i in 0..rows {
            data[j * rows + i] = entry(i, j);
        }
    }
    data
}

/// Dense reference multiply for tests: reconstruct `S` tile by tile and
/// multiply densely.
#[doc(hidden)]
pub fn reconstruct(sm: &StructuredMatrix) -> Vec<f64> {
    let mut a = vec![0.0f64; sm.rows * sm.cols];
    for tile in &sm.tiles {
        let tr = tile.r1 - tile.r0;
        for j in tile.c0..tile.c1 {
            for i in tile.r0..tile.r1 {
                let v = match &tile.kind {
                    TileKind::Dense(d) => d[(j - tile.c0) * tr + (i - tile.r0)],
                    TileKind::LowRank(lr) => (0..lr.rank)
                        .map(|t| lr.u[t * tr + (i - tile.r0)] * lr.vt[(j - tile.c0) * lr.rank + t])
                        .sum(),
                };
                a[j * sm.rows + i] = v;
            }
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::gemm;

    fn cauchy(i: usize, j: usize) -> f64 {
        1.0 / (1.0 + (i as f64 - j as f64).abs() + i as f64 + j as f64)
    }

    #[test]
    fn aca_recovers_exact_low_rank() {
        // A = x yᵀ + w zᵀ has rank 2; ACA must terminate at rank ≤ 3 and
        // reproduce every entry to near machine precision.
        let (m, n) = (40, 31);
        let x: Vec<f64> = (0..m).map(|i| (i as f64 * 0.37).sin()).collect();
        let y: Vec<f64> = (0..n).map(|j| (j as f64 * 0.11).cos()).collect();
        let w: Vec<f64> = (0..m).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let z: Vec<f64> = (0..n).map(|j| (j as f64).sqrt()).collect();
        let mut entry = |i: usize, j: usize| x[i] * y[j] + w[i] * z[j];
        let lr = aca(m, n, &mut entry, 1e-13, 10).expect("rank-2 block must compress");
        assert!(lr.rank >= 2 && lr.rank <= 3, "rank {}", lr.rank);
        for j in 0..n {
            for i in 0..m {
                let got: f64 = (0..lr.rank)
                    .map(|t| lr.u[t * m + i] * lr.vt[j * lr.rank + t])
                    .sum();
                assert!((got - entry(i, j)).abs() < 1e-10, "({i},{j})");
            }
        }
    }

    #[test]
    fn aca_cauchy_block_compresses_below_full_rank() {
        let (m, n) = (64, 64);
        let mut entry = |i: usize, j: usize| cauchy(i, j + n); // off-diagonal shift
        let lr = aca(m, n, &mut entry, 1e-12, 32).expect("smooth Cauchy block compresses");
        assert!(lr.rank < 20, "rank {}", lr.rank);
        let mut worst = 0.0f64;
        for j in 0..n {
            for i in 0..m {
                let got: f64 = (0..lr.rank)
                    .map(|t| lr.u[t * m + i] * lr.vt[j * lr.rank + t])
                    .sum();
                worst = worst.max((got - entry(i, j)).abs());
            }
        }
        assert!(worst < 1e-10, "worst entry error {worst}");
    }

    #[test]
    fn aca_zero_block_is_rank_zero() {
        let lr = aca(10, 8, &mut |_, _| 0.0, 1e-12, 5).expect("zero block");
        assert_eq!(lr.rank, 0);
    }

    #[test]
    fn aca_full_rank_block_hits_cap() {
        // An identity-like block has no low-rank structure: the cap trips
        // and the caller falls back to a dense tile.
        let n = 16;
        let mut entry = |i: usize, j: usize| if i == j { 1.0 } else { 0.0 };
        assert!(aca(n, n, &mut entry, 1e-12, n / 2).is_none());
    }

    #[test]
    fn structured_multiply_matches_dense() {
        // 2x2 tiling of a 30x30 Cauchy-like matrix: diagonal tiles dense,
        // off-diagonal compressed; Q·S must match the dense product.
        let k = 30;
        let half = k / 2;
        let mut entry_full = |i: usize, j: usize| cauchy(i, j);
        let mut tiles = Vec::new();
        for (r0, r1, c0, c1) in [(0, half, 0, half), (half, k, half, k)] {
            let mut e = |i: usize, j: usize| cauchy(i + r0, j + c0);
            tiles.push(Tile {
                r0,
                r1,
                c0,
                c1,
                kind: TileKind::Dense(materialize(r1 - r0, c1 - c0, &mut e)),
            });
        }
        for (r0, r1, c0, c1) in [(0, half, half, k), (half, k, 0, half)] {
            let mut e = |i: usize, j: usize| cauchy(i + r0, j + c0);
            let lr = aca(r1 - r0, c1 - c0, &mut e, 1e-13, half).expect("compresses");
            assert!(lr.rank > 0 && lr.rank < half);
            tiles.push(Tile {
                r0,
                r1,
                c0,
                c1,
                kind: TileKind::LowRank(lr),
            });
        }
        let sm = StructuredMatrix {
            rows: k,
            cols: k,
            tiles,
        };
        let m = 25;
        let q: Vec<f64> = (0..m * k)
            .map(|t| ((t * 7919 % 101) as f64 - 50.0) / 50.0)
            .collect();
        let qu: Vec<Vec<f64>> = sm
            .tiles
            .iter()
            .map(|t| structured_basis(m, &q, m, t))
            .collect();
        let qu_refs: Vec<&[f64]> = qu.iter().map(|v| v.as_slice()).collect();
        // Dense reference.
        let a = materialize(k, k, &mut entry_full);
        let mut cref = vec![0.0f64; m * k];
        gemm(m, k, k, 1.0, &q, m, &a, k, 0.0, &mut cref, m);
        // Full range and a strict sub-range.
        for jrange in [0..k, 5..k - 3] {
            let ncols = jrange.len();
            let mut c = vec![f64::NAN; m * ncols];
            gemm_structured(m, &q, m, &sm, &qu_refs, jrange.clone(), &mut c, m);
            for j in 0..ncols {
                for i in 0..m {
                    let want = cref[(jrange.start + j) * m + i];
                    let got = c[j * m + i];
                    assert!(
                        (got - want).abs() < 1e-9,
                        "col {j} row {i}: {got} vs {want}"
                    );
                }
            }
        }
        assert!(sm.multiply_flops(m) < 2 * (m * k * k) as u64);
    }

    #[test]
    fn policy_setter_overrides() {
        let prev = update_policy();
        set_update_policy(UpdatePolicy::ForceDense);
        assert_eq!(update_policy(), UpdatePolicy::ForceDense);
        set_update_policy(UpdatePolicy::Auto);
        assert_eq!(update_policy(), UpdatePolicy::Auto);
        set_update_policy(prev);
    }
}
