//! The merge-phase kernels shared by every D&C variant.
//!
//! All kernels operate in *block-local* coordinates: slices are assumed to
//! start at the merge block's origin element `(off, off)` (or at a column
//! within it, as documented per function) of a column-major buffer with
//! leading dimension `ld` (the global problem size). This lets the task
//! bodies hand in disjoint [`SharedData`](dcst_runtime::SharedData) ranges
//! without any coordinate translation inside the kernels.
//!
//! Storage *slots* and physical *columns* are distinct: a node's slot `s`
//! (the index its `d` entry and its `idxq` use) lives in block-local column
//! `col[s]` of V. [`column_map`] derives a merge's map from its children's,
//! renaming the deflated columns in place, so the vector kernels of
//! `ComputeDeflation → {PermuteV, LAED4}ₚ → ReduceW → {UpdateVect}ₚ` move
//! only the `k` non-deflated columns.
//!
//! No merge stores its k×k secular eigenvector matrix X. [`laed4_panel`],
//! the one `LAED4` body of both payloads, keeps each root's `(μ, origin)`
//! ([`PanelRoots`]); every consumer rebuilds from those and ẑ the part of X
//! it needs ([`dcst_secular::SecularGenerators`]).
//!
//! A renamed column keeps the rows it was last written over, so every slot
//! also carries a [`RowSpan`], its *row support*: the block-local rows that
//! hold its vector, which is `+0.0` on the block's other rows. Outside the
//! support, V holds whatever it held before — a solver reuses V across
//! solves, so that is not zero — and no pass reads there: the z row, the
//! root sort and the subset gather touch only the support, and a writer
//! that extends a support writes the `+0.0` itself (the leaf clears its
//! block, [`apply_givens`] the rows a rotation adds, [`permute_slots`] the
//! slot rows a gathered column lacks). [`join_supports`], [`apply_givens`]
//! and [`column_map`] derive a merge's supports from its children's.

use crate::DcError;
use dcst_matrix::failpoints::{self, Site};
use dcst_matrix::{gemm, merge_perm};
use dcst_secular::{
    deflate, local_w_accumulate, Deflation, DeflationInput, GivensRot, SecularGenerators,
    SecularProblem, SlotType,
};
use std::cell::RefCell;
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

/// A slot's row support: the half-open block-local row span of the slot's
/// column of V that holds its vector, which is bitwise `+0.0` on the
/// block's other rows — where V itself holds whatever it held before. Two
/// `u32`s — a column of an n×n `f64` matrix that fits in memory has far
/// fewer than 2³² rows.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct RowSpan {
    lo: u32,
    hi: u32,
}

impl RowSpan {
    pub(crate) fn new(rows: Range<usize>) -> Self {
        let row = |r| u32::try_from(r).expect("an n×n f64 matrix in memory has n < 2³²");
        RowSpan {
            lo: row(rows.start),
            hi: row(rows.end),
        }
    }

    pub(crate) fn rows(self) -> Range<usize> {
        self.lo as usize..self.hi as usize
    }
}

/// Join two children's row supports into one over the merge's block, in
/// child slot order: the left child's, then the right child's shifted down
/// by `n1` rows.
pub(crate) fn join_supports(left: &[RowSpan], right: &[RowSpan]) -> Vec<RowSpan> {
    let n1 = left.len();
    left.iter()
        .copied()
        .chain(right.iter().map(|r| {
            let rows = r.rows();
            RowSpan::new(rows.start + n1..rows.end + n1)
        }))
        .collect()
}

/// Join two children's block-local index maps into one over the merge's
/// block: the left child's entries, then the right child's shifted by `n1`.
/// Of the children's column maps this makes the merge's *source* map —
/// child slot `j` lives in block-local column `src[j]`.
pub(crate) fn join_children(left: &[usize], right: &[usize]) -> Vec<usize> {
    let n1 = left.len();
    left.iter()
        .copied()
        .chain(right.iter().map(|&r| r + n1))
        .collect()
}

/// The merge's column map from the source map `src`, the deflation's slot
/// permutation `perm` and its non-deflated count `k`, with the merged
/// slots' row supports from the (rotated, see [`apply_givens`]) source
/// supports `src_support`: returns `(from, col, support)`.
///
/// `from[s] = src[perm[s]]` is the column slot `s` is read from. A deflated
/// slot (`s ≥ k`) keeps that column — `col[s] = from[s]`, a rename — and
/// with it that column's support. The `k` non-deflated sources are gathered
/// into the workspace, which vacates their columns; the `k` updated vectors
/// land there in ascending order, so a merge without deflation maps slot
/// `s` to column `s`, each written over the whole block.
pub(crate) fn column_map(
    src: &[usize],
    src_support: &[RowSpan],
    perm: &[usize],
    k: usize,
) -> (Vec<usize>, Vec<usize>, Vec<RowSpan>) {
    let from: Vec<usize> = perm.iter().map(|&p| src[p]).collect();
    let mut col = from.clone();
    col[..k].sort_unstable();
    let block = RowSpan::new(0..src.len());
    let slot_support = |(s, &p): (usize, &usize)| if s < k { block } else { src_support[p] };
    let support = perm.iter().enumerate().map(slot_support).collect();
    (from, col, support)
}

/// Build the rank-one vector `z` (child slot order): the last row of the
/// left child's eigenvector block and the first row of the right child's,
/// scaled to unit norm. `v_block` starts at `(off, off)`; child slot `j`
/// is read from column `src[j]`, or is zero without a load when the row
/// lies outside its support `support[j]`.
pub(crate) fn build_z(
    v_block: &[f64],
    ld: usize,
    n1: usize,
    src: &[usize],
    support: &[RowSpan],
) -> Vec<f64> {
    src.iter()
        .zip(support)
        .enumerate()
        .map(|(j, (&c, span))| {
            let row = if j < n1 { n1 - 1 } else { n1 };
            if span.rows().contains(&row) {
                v_block[c * ld + row] * FRAC_1_SQRT_2
            } else {
                0.0
            }
        })
        .collect()
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
    Ok(deflate(&DeflationInput {
        d: d_block,
        z,
        beta,
        n1,
        idxq: &join_children(idxq_l, idxq_r),
    }))
}

/// Apply the deflation Givens rotations to eigenvector columns; a rotation
/// names child slots, which live in columns `src[·]` with row supports
/// `support[·]`. A rotation runs over the whole block's rows, so the block
/// becomes the support of both its slots: each column first gets `+0.0`
/// over the rows outside its old support, the value its vector has there.
/// BLAS `drot` convention, matching [`GivensRot`]'s contract.
pub(crate) fn apply_givens(
    v_block: &mut [f64],
    ld: usize,
    src: &[usize],
    support: &mut [RowSpan],
    rots: &[GivensRot],
) {
    let nm = src.len();
    let block = RowSpan::new(0..nm);
    for r in rots {
        let (a, b) = (src[r.col_a], src[r.col_b]);
        debug_assert!(a != b && a < nm && b < nm);
        for (slot, c) in [(r.col_a, a), (r.col_b, b)] {
            let rows = support[slot].rows();
            let column = &mut v_block[c * ld..c * ld + nm];
            column[..rows.start].fill(0.0);
            column[rows.end..].fill(0.0);
            support[slot] = block;
        }
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

/// `PermuteV`: gather the source columns of the non-deflated storage slots
/// `slots ⊂ 0..k` into the compressed workspace, each over its slot type's
/// rows — the rows the update reads. Slot `s` is read from column
/// `gather[s].0`, whose row support `gather[s].1` is copied; the rest of
/// the slot's rows are written `+0.0`, so nothing outside a support is
/// read. `v_block` starts at `(off, off)`; `ws_cols` starts at
/// `(off, off + slots.start)`.
pub(crate) fn permute_slots(
    v_block: &[f64],
    ws_cols: &mut [f64],
    ld: usize,
    defl: &Deflation,
    gather: &[(usize, RowSpan)],
    slots: Range<usize>,
) {
    let mut moved = 0;
    for (t, s) in slots.enumerate() {
        let (r0, r1) = slot_rows(defl.slot_type[s], defl.n, defl.n1);
        let (c, support) = gather[s];
        let rows = support.rows();
        let (lo, hi) = (rows.start.clamp(r0, r1), rows.end.clamp(r0, r1));
        let dst = &mut ws_cols[t * ld..t * ld + r1];
        dst[r0..lo].fill(0.0);
        dst[lo..hi].copy_from_slice(&v_block[c * ld + lo..c * ld + hi]);
        dst[hi..].fill(0.0);
        moved += hi - lo;
    }
    dcst_matrix::metrics::add("copy.elems", moved as u64);
}

/// What a `LAED4` panel keeps of its secular roots: the accepted
/// `(μ, origin)` of each, 12 bytes a root — the generators of the panel's
/// columns of X.
pub(crate) struct PanelRoots {
    pub mu: Vec<f64>,
    pub origin: Vec<u32>,
}

impl PanelRoots {
    /// The roots of consecutive panels, in order, as one record.
    pub(crate) fn concat<'a>(panels: impl Iterator<Item = &'a PanelRoots>) -> PanelRoots {
        let mut all = PanelRoots {
            mu: Vec::new(),
            origin: Vec::new(),
        };
        for p in panels {
            all.mu.extend_from_slice(&p.mu);
            all.origin.extend_from_slice(&p.origin);
        }
        all
    }

    /// The generators of the columns `cols` (indices into this record) of
    /// the merge's X.
    pub(crate) fn generators<'a>(
        &'a self,
        defl: &'a Deflation,
        zhat: &'a [f64],
        cols: Range<usize>,
    ) -> SecularGenerators<'a> {
        SecularGenerators {
            dlamda: &defl.dlamda,
            zhat,
            mu: &self.mu[cols.clone()],
            origin: &self.origin[cols],
        }
    }
}

/// `LAED4`, both payloads: solve secular roots `jrange`, eigenvalues into
/// `lam_out` (one entry per root: the panel's slots of the merge's `d`
/// block, which [`finalize_d`] completes). The roots are solved in order, each
/// warm-started from the one before ([`dcst_secular::SecularPanel`]); a
/// panel's first root starts cold, so the roots depend on `nb` and on
/// nothing the discipline or T chooses. With `carry` — the merge's X or
/// rows have a reader — also returns the panel's running Gu–Eisenstat
/// local-W partial and its [`PanelRoots`]. One k-length column of
/// per-thread scratch serves the root finder's sweeps, so transient memory
/// is O(k) whatever the panel width; nothing reads it after a root, since
/// local-W rebuilds each root's pole distances from `(origin, μ)`.
pub(crate) fn laed4_panel(
    defl: &Deflation,
    jrange: Range<usize>,
    lam_out: &mut [f64],
    row_off: usize,
    carry: bool,
) -> Result<Option<(Vec<f64>, PanelRoots)>, DcError> {
    let k = defl.k;
    let at_off = |e: dcst_secular::SecularError| DcError::Secular(e.with_offset(row_off));
    let problem = SecularProblem::new(&defl.dlamda, &defl.w, defl.rho).map_err(at_off)?;
    let mut kept = carry.then(|| {
        let roots = PanelRoots {
            mu: Vec::with_capacity(jrange.len()),
            origin: Vec::with_capacity(jrange.len()),
        };
        (vec![1.0f64; k], roots)
    });
    let mut solver = problem.panel();
    with_scratch(k, |col| -> Result<(), DcError> {
        for (lam, j) in lam_out.iter_mut().zip(jrange) {
            let root = solver.solve_root_scratch(j, col).map_err(at_off)?;
            *lam = root.lambda;
            if let Some((partial, roots)) = &mut kept {
                local_w_accumulate(&defl.dlamda, &root, j, partial);
                roots.mu.push(root.mu);
                roots
                    .origin
                    .push(u32::try_from(root.origin).expect("merge order fits u32"));
            }
        }
        Ok(())
    })?;
    Ok(kept)
}

thread_local! {
    /// This thread's staging buffer (`UpdateVect`'s block of X and its
    /// product, `LAED4`'s delta column); grow-only, like the GEMM packing
    /// workspace, so the steady state allocates nothing.
    static SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` on `len` elements of this thread's staging buffer. The contents
/// are whatever the previous user left: `f` must write before it reads.
pub(crate) fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    SCRATCH.with(|scratch| {
        let mut buf = scratch.borrow_mut();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        f(&mut buf[..len])
    })
}

/// `UpdateVect`: the two structured GEMMs producing the merged
/// eigenvectors for secular columns `jrange`.
///
/// * `ws_block` starts at `(off, off)` (all `k` compressed columns, ld `ld`);
/// * `x_cols` holds columns `jrange` of the merge's X (ld `xld`);
/// * `out` receives the `nm × jrange.len()` product, ld `nm` — the caller
///   scatters its columns to where the merge's column map puts them;
/// * `off` is the merge's row offset, for error attribution.
#[allow(clippy::too_many_arguments)]
pub(crate) fn update_vect_panel(
    ws_block: &[f64],
    ld: usize,
    x_cols: &[f64],
    xld: usize,
    out: &mut [f64],
    off: usize,
    nm: usize,
    n1: usize,
    defl: &Deflation,
    jrange: Range<usize>,
) -> Result<(), DcError> {
    let ncols = jrange.len();
    if ncols == 0 {
        return Ok(());
    }
    if failpoints::fire(Site::Gemm) {
        return Err(DcError::Breakdown { stage: "gemm", off });
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
                out,
                nm,
            );
        } else {
            for j in 0..ncols {
                out[j * nm..j * nm + n1].fill(0.0);
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
                &mut out[n1..],
                nm,
            );
        } else {
            for j in 0..ncols {
                out[j * nm + n1..(j + 1) * nm].fill(0.0);
            }
        }
    }
    if gemm_calls > 0 {
        dcst_matrix::metrics::add("gemm.calls", gemm_calls);
        dcst_matrix::metrics::add("gemm.flops", gemm_flops);
    }
    // NaN-corruption site: models a GEMM that silently produced garbage.
    failpoints::poke_nan(Site::NanGemm, out);
    // Always-on finite scan of the freshly written columns: O(nm·ncols)
    // against the GEMMs' O(nm·ncols·k), so ~1/k of the kernel's cost. This
    // is where mid-tree corruption (from any upstream kernel feeding the
    // update) is converted into a typed error instead of a wrong answer.
    if !out.iter().all(|x| x.is_finite()) {
        return Err(DcError::Breakdown {
            stage: "update-vect",
            off,
        });
    }
    Ok(())
}

/// The secular storage-slot span (`⊂ 0..k`) selected by a subset of
/// *sorted* positions, given the slots `idxq[il..=iu]`. It is contiguous
/// because the sorting permutation merges two ascending runs (secular
/// eigenvalues in slots `0..k`, deflated ones in `k..nm`) — any window of
/// sorted positions draws a contiguous chunk from each run. The deflated
/// slots of the window need no work: their columns already hold the result.
pub(crate) fn subset_secular_span(slots: &[usize], k: usize) -> Range<usize> {
    let mut span = k..k;
    for &s in slots.iter().filter(|&&s| s < k) {
        span = if span.is_empty() {
            s..s + 1
        } else {
            span.start.min(s)..span.end.max(s + 1)
        };
    }
    debug_assert_eq!(
        span.len(),
        slots.iter().filter(|&&s| s < k).count(),
        "secular subset slots must form one contiguous span"
    );
    span
}

/// Finalize a merge: complete the block's new diagonal — the `LAED4`
/// panels wrote the secular eigenvalues into `d_block[..k]`, the deflated
/// ones follow — and return the permutation sorting it ascending.
pub(crate) fn finalize_d(defl: &Deflation, d_block: &mut [f64]) -> Vec<usize> {
    let k = defl.k;
    d_block[k..defl.n].copy_from_slice(&defl.d_deflated);
    merge_perm(&d_block[..defl.n], k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcst_matrix::Matrix;

    fn spans(rows: &[Range<usize>]) -> Vec<RowSpan> {
        rows.iter().cloned().map(RowSpan::new).collect()
    }

    #[test]
    fn build_z_extracts_rows() {
        // 4x4 block, n1 = 2, child slots 0..4 living in columns [1, 0, 3, 2]:
        // z = [V[1,1], V[1,0], V[2,3], V[2,2]] / √2.
        let mut v = Matrix::zeros(4, 4);
        v[(1, 0)] = 1.0;
        v[(1, 1)] = 2.0;
        v[(2, 2)] = 3.0;
        v[(2, 3)] = 4.0;
        let src = [1, 0, 3, 2];
        let z = build_z(v.as_slice(), 4, 2, &src, &spans(&[0..2, 0..2, 2..4, 2..4]));
        let s = FRAC_1_SQRT_2;
        assert_eq!(z, vec![2.0 * s, s, 4.0 * s, 3.0 * s]);
        // A slot whose support misses the boundary row contributes zero.
        let z = build_z(v.as_slice(), 4, 2, &src, &spans(&[0..1, 0..2, 3..4, 2..4]));
        assert_eq!(z, vec![0.0, s, 0.0, 3.0 * s]);
    }

    #[test]
    fn join_supports_shifts_the_right_child() {
        let joined = join_supports(&spans(&[0..2, 1..2]), &spans(&[0..3, 2..3, 0..1]));
        assert_eq!(joined, spans(&[0..2, 1..2, 2..5, 4..5, 2..3]));
    }

    fn rot(col_a: usize, col_b: usize, th: f64) -> GivensRot {
        GivensRot {
            col_a,
            col_b,
            c: th.cos(),
            s: th.sin(),
        }
    }

    /// `v` with `outside` on every row of column `c` that `rows(c)` leaves
    /// out.
    fn fill_outside(v: &Matrix, rows: impl Fn(usize) -> Range<usize>, outside: f64) -> Matrix {
        Matrix::from_fn(v.rows(), v.cols(), |i, c| {
            if rows(c).contains(&i) {
                v[(i, c)]
            } else {
                outside
            }
        })
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn givens_rotation_preserves_norms() {
        // Slots 0 and 2 live in columns 1 and 2 over supports 0..1 and 1..3;
        // V holds NaN outside the supports, as a reused V may. The rotation
        // writes +0.0 over the rows it adds to each support and turns the
        // same bits as on a V that is +0.0 there; column 0, slot 1's, does
        // not move, NaN included.
        let src = [1, 0, 2];
        let old = spans(&[0..1, 1..2, 1..3]);
        let rows = |c: usize| old[src.iter().position(|&x| x == c).unwrap()].rows();
        let values = Matrix::from_fn(3, 3, |i, j| (i + j) as f64 + 1.0);
        let clean = fill_outside(&values, rows, 0.0);
        let rotated = |mut v: Matrix, th: f64| {
            let mut support = old.clone();
            apply_givens(v.as_mut_slice(), 3, &src, &mut support, &[rot(0, 2, th)]);
            assert_eq!(support, spans(&[0..3, 1..2, 0..3]));
            v
        };
        let v = rotated(fill_outside(&values, rows, f64::NAN), 0.3);
        assert_eq!(
            bits(v.col(0)),
            bits(fill_outside(&values, rows, f64::NAN).col(0))
        );
        let want = rotated(clean.clone(), 0.3);
        assert_eq!(bits(&v.as_slice()[3..]), bits(&want.as_slice()[3..]));
        let norm2 = |x: &[f64]| x.iter().map(|x| x * x).sum::<f64>();
        assert!((norm2(&clean.as_slice()[3..]) - norm2(&v.as_slice()[3..])).abs() < 1e-12);
        // Rotating by zero writes the +0.0 and moves nothing else.
        let v = rotated(fill_outside(&values, rows, f64::NAN), 0.0);
        assert_eq!(bits(&v.as_slice()[3..]), bits(&clean.as_slice()[3..]));
    }

    #[test]
    fn rows_outside_the_supports_are_never_read() {
        // Two 4-slot children; child slot j lives in column src[j] over
        // support[j], and V holds NaN outside the supports. The z row and
        // the rotations must come out bit for bit as on a V that is +0.0
        // there, and leave the NaN outside the rotated supports where it
        // was.
        let src = join_children(&[2, 0, 3, 1], &[1, 3, 0, 2]);
        let support = join_supports(
            &spans(&[0..2, 2..4, 0..4, 3..4]),
            &spans(&[0..1, 0..4, 2..4, 0..2]),
        );
        let rows_of = |support: &[RowSpan], c: usize| {
            support[src.iter().position(|&x| x == c).unwrap()].rows()
        };
        let values = Matrix::from_fn(8, 8, |i, c| (1 + i + 8 * c) as f64 / 7.0);
        let block = |outside: f64| fill_outside(&values, |c| rows_of(&support, c), outside);
        let z_bits = |v: Matrix| bits(&build_z(v.as_slice(), 8, 4, &src, &support));
        assert_eq!(z_bits(block(0.0)), z_bits(block(f64::NAN)));
        // A chain within the left child, one within the right, one across:
        // the rotated slots end with the whole block, slots 2 and 5 keep
        // their supports and the NaN outside them.
        let rots = [
            rot(0, 1, 0.4),
            rot(1, 3, 1.1),
            rot(4, 7, 0.2),
            rot(3, 6, 0.9),
        ];
        let mut clean = block(0.0);
        let mut after = support.clone();
        apply_givens(clean.as_mut_slice(), 8, &src, &mut after, &rots);
        assert_eq!(after[..4], spans(&[0..8, 0..8, 0..4, 0..8])[..]);
        assert_eq!(after[4..], spans(&[0..8, 4..8, 0..8, 0..8])[..]);
        let mut poisoned = block(f64::NAN);
        apply_givens(
            poisoned.as_mut_slice(),
            8,
            &src,
            &mut support.clone(),
            &rots,
        );
        for c in 0..8 {
            for i in 0..8 {
                let (x, y) = (clean[(i, c)], poisoned[(i, c)]);
                if rows_of(&after, c).contains(&i) {
                    assert_eq!(x.to_bits(), y.to_bits(), "({i}, {c})");
                } else {
                    assert!(x.to_bits() == 0 && y.is_nan(), "({i}, {c})");
                }
            }
        }
    }

    #[test]
    fn permute_slots_writes_zero_over_the_rows_a_support_lacks() {
        // A merge of 4 + 4 rows with k = 4 gathered slots — Top, Full,
        // Bottom, Bottom — read from columns whose supports cover some of
        // their slot rows; V holds NaN outside the supports. The gathered
        // rows match V's over the supports bit for bit and are +0.0 over
        // the rest of the slot's rows; rows outside the slot's stay as the
        // workspace held them.
        use dcst_secular::SlotType::{Bottom, Deflated, Full, Top};
        let (nm, n1, k) = (8, 4, 4);
        let slot_type = vec![
            Top, Full, Bottom, Bottom, Deflated, Deflated, Deflated, Deflated,
        ];
        let defl = Deflation {
            k,
            n: nm,
            n1,
            rho: 1.0,
            dlamda: vec![0.0; k],
            w: vec![0.0; k],
            d_deflated: vec![0.0; nm - k],
            perm: (0..nm).collect(),
            slot_type,
            sec_to_slot: (0..k).collect(),
            givens: Vec::new(),
            ctot: [1, 1, 2, 4],
        };
        let gather =
            [(5, 1..3), (0, 0..8), (6, 4..6), (2, 6..8)].map(|(c, rows)| (c, RowSpan::new(rows)));
        let values = Matrix::from_fn(nm, nm, |i, c| (1 + i + nm * c) as f64 / 3.0);
        let rows = |c: usize| {
            let gathered = gather.iter().find(|&&(from, _)| from == c);
            gathered.map_or(0..0, |(_, support)| support.rows())
        };
        let v = fill_outside(&values, rows, f64::NAN);
        let mut ws = vec![-1.0f64; nm * k];
        permute_slots(v.as_slice(), &mut ws[nm..], nm, &defl, &gather, 1..k);
        for (s, column) in ws.chunks_exact(nm).enumerate() {
            let (r0, r1) = slot_rows(defl.slot_type[s], nm, n1);
            let (c, support) = gather[s];
            for (i, x) in column.iter().enumerate() {
                let want = if s == 0 || !(r0..r1).contains(&i) {
                    -1.0
                } else if support.rows().contains(&i) {
                    values[(i, c)]
                } else {
                    0.0
                };
                assert_eq!(x.to_bits(), want.to_bits(), "slot {s}, row {i}");
            }
        }
    }

    /// The invariants of one merge's column map and row supports.
    fn check_column_map(
        src: &[usize],
        src_support: &[RowSpan],
        perm: &[usize],
        k: usize,
    ) -> (Vec<usize>, Vec<RowSpan>) {
        let nm = src.len();
        let (from, col, support) = column_map(src, src_support, perm, k);
        for s in 0..nm {
            assert_eq!(from[s], src[perm[s]]);
        }
        let mut seen = col.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..nm).collect::<Vec<_>>(), "col is a permutation");
        assert_eq!(col[k..], from[k..], "deflated slots keep their column");
        let mut vacated = from[..k].to_vec();
        vacated.sort_unstable();
        assert_eq!(
            col[..k],
            vacated[..],
            "updates fill the vacated columns ascending"
        );
        for s in 0..nm {
            let want = if s < k {
                RowSpan::new(0..nm)
            } else {
                src_support[perm[s]]
            };
            assert_eq!(support[s], want, "slot {s} of {nm}, k = {k}");
        }
        (col, support)
    }

    #[test]
    fn column_map_renames_deflated_slots() {
        // Children of 2 and 3 slots; the right child's columns and rows are
        // shifted.
        let src = join_children(&[1, 0], &[2, 0, 1]);
        assert_eq!(src, vec![1, 0, 4, 2, 3]);
        let src_support = join_supports(&spans(&[0..2, 1..2]), &spans(&[0..3, 0..1, 1..3]));
        // Slots 0..2 are non-deflated, read from columns 4 and 0, and end
        // up written over the whole block; slots 2..5 are deflated and stay
        // in columns 2, 1, 3 over the rows those held.
        let (col, support) = check_column_map(&src, &src_support, &[2, 1, 3, 0, 4], 2);
        assert_eq!(col, vec![0, 4, 2, 1, 3]);
        assert_eq!(support[..], spans(&[0..5, 0..5, 2..3, 0..2, 3..5])[..]);
        // No deflation, whatever the slot order: the identity map.
        let (col, support) = check_column_map(&src, &src_support, &[4, 2, 0, 3, 1], 5);
        assert_eq!(col, vec![0, 1, 2, 3, 4]);
        assert_eq!(support[..], [RowSpan::new(0..5); 5]);
    }

    proptest::proptest! {
        /// Bijectivity, and the supports' inheritance, survive a random
        /// tree of merges, each with a random slot permutation and
        /// deflation count.
        #[test]
        fn column_map_survives_a_random_tree(
            leaves in proptest::collection::vec(1usize..7, 2..10),
            seed in 0u64..u64::MAX,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut level: Vec<(Vec<usize>, Vec<RowSpan>)> = leaves
                .iter()
                .map(|&n| ((0..n).collect(), vec![RowSpan::new(0..n); n]))
                .collect();
            while level.len() > 1 {
                level = level
                    .chunks(2)
                    .map(|pair| {
                        let [l, r] = pair else { return pair[0].clone() };
                        let src = join_children(&l.0, &r.0);
                        let src_support = join_supports(&l.1, &r.1);
                        let mut perm: Vec<usize> = (0..src.len()).collect();
                        for i in (1..perm.len()).rev() {
                            perm.swap(i, rng.gen_range(0..i + 1));
                        }
                        let k = rng.gen_range(0..src.len() + 1);
                        check_column_map(&src, &src_support, &perm, k)
                    })
                    .collect();
            }
        }
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
        // The LAED4 panels left the secular values in d_block[..k].
        let mut d_block = [0.4, 1.4, 0.0, 0.0];
        let perm = finalize_d(&defl, &mut d_block);
        // New d = [0.4, 1.4, 0.5, 2.0]; ascending = indices [0, 2, 1, 3].
        assert_eq!(perm, vec![0, 2, 1, 3]);
    }
}
