//! Rank-structured view of the secular eigenvector matrix.
//!
//! In ascending-pole (secular) order the eigenvector matrix of
//! `D + ρzzᵀ` is Cauchy-like,
//!
//! ```text
//! x̃_ij = (ẑᵢ / (dᵢ − λⱼ)) / ‖·‖ⱼ ,
//! ```
//!
//! and interlacing (`dᵢ < λᵢ < dᵢ₊₁`) confines the singular band to
//! `i ≈ j`: off-diagonal blocks are smooth and admit low-rank compression
//! (Li–Liao–Liu–Jiang, arXiv:1510.04591). Nothing here reads a stored X:
//! the probe and the tiling take X in secular order entry by entry, and
//! the merge feeds them from its generators ([`GeneratedX`]: ẑ, the poles
//! and each root's `(μ, origin)`), so X is never formed — only the dense
//! tiles and the ACA crosses are.
//!
//! This module owns the secular-specific policy pieces:
//!
//! * [`rank_tolerance`] — compression tolerance derived from the DMPV
//!   accuracy budget (residual + orthogonality < 50 nε);
//! * [`estimate_offdiag_rank`] — a cheap sampled-ACA probe of the level-1
//!   off-diagonal block, used by the per-merge auto-switch;
//! * [`TileLayout`] — HSS-style two-level (recursing further for large
//!   merges) block partitioning into a top and a bottom operand that
//!   mirror the dense path's two GEMMs: the top operand holds the
//!   Top∪Full rows, the bottom operand the Full∪Bottom rows, each in
//!   ascending secular order with diagonal tiles dense and off-diagonal
//!   tiles ACA-compressed (falling back to dense tiles when a block
//!   refuses to compress). The layout is entry-free; its tiles are
//!   compressed one at a time ([`TileLayout::compress_tile`]), by the
//!   merge's panel tasks or serially by [`compress_secular_x`].

use crate::deflate::{Deflation, SlotType};
use crate::vectors::GeneratedX;
use dcst_matrix::lowrank::{aca, materialize, StructuredMatrix, Tile, TileKind};
use std::ops::Range;

/// A `k × k` matrix in secular order, entry `(i, j)` at a time.
type Entry<'e> = &'e dyn Fn(usize, usize) -> f64;

/// Compression tolerance for a merge of size `k` inside a global problem
/// of size `n`.
///
/// The accuracy gates bound `‖VᵀV − I‖_max / (nε)` and the scaled residual
/// by 50. A per-tile relative Frobenius tolerance `τ` perturbs the secular
/// eigenvector matrix by `‖E‖_F ≤ τ·‖X̃‖_F = τ·√k` (X̃ has orthonormal
/// columns), and the update multiplies by an orthogonal `Q`, so the
/// vectors move by at most `τ·√k` — keeping `τ·√k ≤ 4nε` leaves the gates
/// an order of magnitude of headroom above the dense baseline.
pub fn rank_tolerance(n: usize, k: usize) -> f64 {
    (4.0 * n as f64 * f64::EPSILON / (k.max(1) as f64).sqrt()).max(1e-15)
}

/// Sampled-ACA probe of the level-1 off-diagonal block (secular rows
/// `0..k/2` × columns `k/2..k`) of the `k × k` matrix `x` on a strided
/// `sample × sample` subgrid. Returns the achieved rank of the sample, or
/// `sample` when even the subgrid refuses to compress — the auto-switch
/// treats that as "high rank, stay dense". Cost: O(sample²·r) entry reads.
pub fn estimate_offdiag_rank(k: usize, x: Entry<'_>, tol: f64) -> usize {
    let half = k / 2;
    let sample = half.min(40);
    if sample == 0 {
        return 0;
    }
    let mut entry = |a: usize, b: usize| {
        let i = a * half / sample; // row in 0..half
        let j = half + b * (k - half) / sample; // col in half..k
        x(i, j)
    };
    match aca(sample, sample, &mut entry, tol, sample) {
        Some(lr) => lr.rank,
        None => sample,
    }
}

/// The compressed secular eigenvector matrix, split the way the dense
/// update splits its two GEMMs.
pub struct StructuredX {
    /// Top∪Full rows (`ctot[0]+ctot[1]` of them) × k columns.
    pub top: StructuredMatrix,
    /// Full∪Bottom rows (`ctot[1]+ctot[2]` of them) × k columns.
    pub bot: StructuredMatrix,
    /// Storage slot of each top row, ascending secular order — the column
    /// of the workspace block to gather for that row of the top operand.
    pub top_slots: Vec<usize>,
    /// Storage slot of each bottom row, ascending secular order.
    pub bot_slots: Vec<usize>,
}

impl StructuredX {
    /// Compressed (low-rank) tiles across both operands.
    pub fn compressed_tiles(&self) -> usize {
        self.top.compressed_tiles() + self.bot.compressed_tiles()
    }

    /// Sum of achieved ranks across both operands.
    pub fn total_rank(&self) -> usize {
        self.top.total_rank() + self.bot.total_rank()
    }

    /// Flops of the structured update for top/bottom output heights
    /// `n1` / `n2` (including the `Q·U` basis products).
    pub fn multiply_flops(&self, n1: usize, n2: usize) -> u64 {
        self.top.multiply_flops(n1) + self.bot.multiply_flops(n2)
    }
}

/// One rectangle of a merge's tiling: operand rows `r0..r1` × secular
/// columns `c0..c1`, materialized dense (`aca == false`: a diagonal leaf)
/// or ACA-compressed (an off-diagonal block, dense only if the rank cap
/// `min(dims)/2` trips).
#[derive(Clone, Copy)]
struct TileRect {
    r0: usize,
    r1: usize,
    c0: usize,
    c1: usize,
    aca: bool,
}

/// The tiling of one merge's two update operands, without an entry of X:
/// the rectangles the hierarchical partition recurses to depend only on
/// `k`, the leaf size and each operand's row → secular map. The tiles
/// themselves ([`compress_tile`](Self::compress_tile)) are each a pure
/// function of (X, rows, rectangle, tolerance), so they may be compressed
/// in any order, on any thread, and come out bit for bit the same.
pub struct TileLayout {
    k: usize,
    /// Secular index of each top / bottom operand row, ascending.
    top_sec: Vec<usize>,
    bot_sec: Vec<usize>,
    /// Storage slot of each top / bottom operand row (see [`StructuredX`]).
    pub top_slots: Vec<usize>,
    pub bot_slots: Vec<usize>,
    /// The top operand's rectangles, then the bottom's, each in the order
    /// the partition emits them — the order the update accumulates them.
    rects: Vec<TileRect>,
    ntop: usize,
}

impl TileLayout {
    /// Split the merge's slots into the Top∪Full and Full∪Bottom operands
    /// and tile each: columns split at their midpoint, rows at the matching
    /// secular value, recursively while the column span exceeds `2·leaf`
    /// and the row strip 8 rows; the two off-diagonal blocks of every split
    /// are ACA rectangles, the diagonal leaves dense ones.
    pub fn new(defl: &Deflation, leaf: usize) -> Self {
        let k = defl.k;
        let full_lo = defl.ctot[0];
        let full_hi = defl.ctot[0] + defl.ctot[1];
        let mut top_slots = Vec::with_capacity(full_hi);
        let mut top_sec = Vec::with_capacity(full_hi);
        let mut bot_slots = Vec::with_capacity(defl.ctot[1] + defl.ctot[2]);
        let mut bot_sec = Vec::with_capacity(defl.ctot[1] + defl.ctot[2]);
        for i in 0..k {
            let slot = defl.sec_to_slot[i];
            debug_assert!(matches!(
                defl.slot_type[slot],
                SlotType::Top | SlotType::Full | SlotType::Bottom
            ));
            if slot < full_hi {
                top_slots.push(slot);
                top_sec.push(i);
            }
            if slot >= full_lo {
                bot_slots.push(slot);
                bot_sec.push(i);
            }
        }
        let leaf = leaf.max(2);
        let mut rects = Vec::new();
        split(&top_sec, 0..top_sec.len(), 0..k, leaf, &mut rects);
        let ntop = rects.len();
        split(&bot_sec, 0..bot_sec.len(), 0..k, leaf, &mut rects);
        TileLayout {
            k,
            top_sec,
            bot_sec,
            top_slots,
            bot_slots,
            rects,
            ntop,
        }
    }

    /// Tiles across both operands.
    pub fn len(&self) -> usize {
        self.rects.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// Whether tile `t` belongs to the top operand (tiles `0..ntop`).
    pub fn in_top(&self, t: usize) -> bool {
        t < self.ntop
    }

    /// Compress tile `t` of the layout, reading X from its generators.
    pub fn compress_tile(&self, x: &GeneratedX<'_>, t: usize, tol: f64) -> Tile {
        self.compress(&|i, j| x.entry(i, j), t, tol)
    }

    /// [`compress_tile`](Self::compress_tile) over any source of the
    /// entries of X.
    fn compress(&self, x: Entry<'_>, t: usize, tol: f64) -> Tile {
        let r = self.rects[t];
        let rows_sec = if self.in_top(t) {
            &self.top_sec
        } else {
            &self.bot_sec
        };
        let (tr, tc) = (r.r1 - r.r0, r.c1 - r.c0);
        let mut entry = |i: usize, j: usize| x(rows_sec[r.r0 + i], r.c0 + j);
        let compressed = if r.aca {
            aca(tr, tc, &mut entry, tol, (tr.min(tc) / 2).max(1))
        } else {
            None
        };
        let kind = match compressed {
            Some(lr) => TileKind::LowRank(lr),
            None => TileKind::Dense(materialize(tr, tc, &mut entry)),
        };
        Tile {
            r0: r.r0,
            r1: r.r1,
            c0: r.c0,
            c1: r.c1,
            kind,
        }
    }

    /// The two operands, from every tile of the layout in layout order.
    pub fn into_operands(self, tiles: Vec<Tile>) -> StructuredX {
        assert_eq!(tiles.len(), self.len(), "one tile per rectangle");
        let mut top = tiles;
        let bot = top.split_off(self.ntop);
        let operand = |rows: usize, tiles| StructuredMatrix {
            rows,
            cols: self.k,
            tiles,
        };
        StructuredX {
            top: operand(self.top_sec.len(), top),
            bot: operand(self.bot_sec.len(), bot),
            top_slots: self.top_slots,
            bot_slots: self.bot_slots,
        }
    }
}

/// Partition the operand block `rows × cols` (operand rows, secular
/// columns) into `rects`. Recursion depth is governed by the column span
/// (the row span of a split operand is roughly half of it, since only
/// every other secular row survives into the top/bottom subset); a
/// near-empty row strip is cheapest dense.
fn split(
    rows_sec: &[usize],
    rows: Range<usize>,
    cols: Range<usize>,
    leaf: usize,
    rects: &mut Vec<TileRect>,
) {
    let (a0, a1, c0, c1) = (rows.start, rows.end, cols.start, cols.end);
    if a0 == a1 || c0 == c1 {
        return;
    }
    let rect = |r0, r1, c0, c1, aca| TileRect {
        r0,
        r1,
        c0,
        c1,
        aca,
    };
    if c1 - c0 <= 2 * leaf || a1 - a0 <= 8 {
        rects.push(rect(a0, a1, c0, c1, false));
        return;
    }
    let cmid = (c0 + c1) / 2;
    let amid = a0 + rows_sec[a0..a1].partition_point(|&s| s < cmid);
    // The two off-diagonal blocks of this split: smooth Cauchy-like
    // regions.
    for (r0, r1, cc0, cc1) in [(a0, amid, cmid, c1), (amid, a1, c0, cmid)] {
        if r0 != r1 && cc0 != cc1 {
            rects.push(rect(r0, r1, cc0, cc1, true));
        }
    }
    // Recurse on the two diagonal blocks.
    split(rows_sec, a0..amid, c0..cmid, leaf, rects);
    split(rows_sec, amid..a1, cmid..c1, leaf, rects);
}

/// Compress the full secular eigenvector matrix of one merge into the
/// top/bottom operand pair of the structured update, reading it entry by
/// entry from its generators: [`TileLayout::compress_tile`] over every
/// tile of the layout, in order.
pub fn compress_secular_x(
    x: &GeneratedX<'_>,
    defl: &Deflation,
    tol: f64,
    leaf: usize,
) -> StructuredX {
    compress_all(&|i, j| x.entry(i, j), defl, tol, leaf)
}

/// [`compress_secular_x`] over any source of the entries of X.
fn compress_all(x: Entry<'_>, defl: &Deflation, tol: f64, leaf: usize) -> StructuredX {
    let layout = TileLayout::new(defl, leaf);
    let tiles = (0..layout.len())
        .map(|t| layout.compress(x, t, tol))
        .collect();
    layout.into_operands(tiles)
}

/// Leaf size for the hierarchical partition: a sixteenth of the merge,
/// clamped so leaves stay big enough to hit the packed GEMM's efficient
/// regime but small enough that dense diagonal work shrinks. The `force`
/// variant (gate testing on tiny merges) splits much finer so even k≈16
/// exercises compressed tiles.
pub fn leaf_size(k: usize, force: bool) -> usize {
    if force {
        (k / 16).max(2)
    } else {
        (k / 16).clamp(32, 128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        assemble_vectors, local_w_products, reduce_w, SecularGenerators, SecularKernels,
        SecularProblem,
    };
    use dcst_matrix::lowrank::reconstruct;

    /// One solved k × k secular problem with well-interlaced poles: its
    /// roots' generators, and — the oracle — X assembled from the solver's
    /// delta columns with rows permuted to storage order by `sec_to_slot`.
    struct Solved {
        d: Vec<f64>,
        zhat: Vec<f64>,
        mu: Vec<f64>,
        origin: Vec<u32>,
        x: Vec<f64>,
    }

    impl Solved {
        fn new(k: usize, sec_to_slot: &[usize]) -> Self {
            let d: Vec<f64> = (0..k)
                .map(|i| i as f64 + 0.3 * ((i * 7 % 5) as f64) / 5.0)
                .collect();
            let mut z: Vec<f64> = (0..k).map(|i| 0.5 + ((i * 13 % 7) as f64) / 7.0).collect();
            let n: f64 = z.iter().map(|x| x * x).sum::<f64>().sqrt();
            z.iter_mut().for_each(|x| *x /= n);
            let problem = SecularProblem::new(&d, &z, 1.0).unwrap();
            let mut x = vec![0.0; k * k];
            let (mut mu, mut origin) = (Vec::new(), Vec::new());
            for (j, col) in x.chunks_exact_mut(k).enumerate() {
                let root = problem.solve_root(j, col).unwrap();
                mu.push(root.mu);
                origin.push(root.origin as u32);
            }
            let zhat = reduce_w(&z, &[local_w_products(&d, &x, k, 0, 0..k)]);
            assemble_vectors(&zhat, &mut x, k, 0, 0..k, sec_to_slot);
            Solved {
                d,
                zhat,
                mu,
                origin,
                x,
            }
        }

        fn generators(&self) -> SecularGenerators<'_> {
            SecularGenerators {
                dlamda: &self.d,
                zhat: &self.zhat,
                mu: &self.mu,
                origin: &self.origin,
            }
        }
    }

    fn identity(k: usize) -> Vec<usize> {
        (0..k).collect()
    }

    /// Every tile's shape, and its dense entries or factors bit for bit.
    fn tile_bits(sm: &StructuredMatrix) -> Vec<(usize, usize, usize, usize, usize, Vec<u64>)> {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        sm.tiles
            .iter()
            .map(|t| {
                let (rank, data) = match &t.kind {
                    TileKind::Dense(a) => (usize::MAX, bits(a)),
                    TileKind::LowRank(lr) => (lr.rank, [bits(&lr.u), bits(&lr.vt)].concat()),
                };
                (t.r0, t.r1, t.c0, t.c1, rank, data)
            })
            .collect()
    }

    /// A deflation record over `s`'s poles and ẑ: storage slot
    /// `sec_to_slot[i]` for secular index `i`, and the Top | Full | Bottom
    /// grouping `ctot` of the slots.
    fn deflation(s: &Solved, sec_to_slot: &[usize], ctot: [usize; 4]) -> Deflation {
        let k = sec_to_slot.len();
        let slot_type = (0..k)
            .map(|slot| match slot {
                _ if slot < ctot[0] => SlotType::Top,
                _ if slot < ctot[0] + ctot[1] => SlotType::Full,
                _ => SlotType::Bottom,
            })
            .collect();
        Deflation {
            k,
            n: k,
            n1: k / 2,
            rho: 1.0,
            dlamda: s.d.clone(),
            w: s.zhat.clone(),
            d_deflated: vec![],
            perm: identity(k),
            slot_type,
            sec_to_slot: sec_to_slot.to_vec(),
            givens: vec![],
            ctot,
        }
    }

    /// A deterministic scramble of `0..k`.
    fn scramble(k: usize) -> Vec<usize> {
        let mut perm = identity(k);
        for i in 0..k {
            perm.swap(i, (i * 37 + 11) % k);
        }
        perm
    }

    #[test]
    #[ignore = "manual profiling helper"]
    fn profile_compress_k1000() {
        let k = 1000;
        let s = Solved::new(k, &identity(k));
        let defl = deflation(&s, &identity(k), [0, k, 0, 0]);
        let tol = rank_tolerance(k, k);
        let leaf = leaf_size(k, false);
        for _ in 0..3 {
            let t0 = std::time::Instant::now();
            let norms = s.generators().norms(SecularKernels::dispatched());
            let x = s.generators().entries(&norms);
            let t1 = std::time::Instant::now();
            let est = estimate_offdiag_rank(k, &|i, j| x.entry(i, j), tol);
            let t2 = std::time::Instant::now();
            let layout = TileLayout::new(&defl, leaf);
            let t3 = std::time::Instant::now();
            let tiles = (0..layout.len())
                .map(|t| layout.compress_tile(&x, t, tol))
                .collect();
            let sx = layout.into_operands(tiles);
            let t4 = std::time::Instant::now();
            let dense_entries: usize = sx
                .top
                .tiles
                .iter()
                .filter(|t| matches!(t.kind, TileKind::Dense(_)))
                .map(|t| (t.r1 - t.r0) * (t.c1 - t.c0))
                .sum();
            eprintln!(
                "k={k}: norms {:?} probe {:?} (est={est}) layout {:?} tiles {:?}: \
                 tiles={} lowrank={} rank={} dense_entries={}",
                t1 - t0,
                t2 - t1,
                t3 - t2,
                t4 - t3,
                sx.top.tiles.len(),
                sx.top.compressed_tiles(),
                sx.top.total_rank(),
                dense_entries
            );
        }
    }

    #[test]
    fn tolerance_scales_with_budget() {
        assert!(rank_tolerance(1000, 1000) < 1e-12);
        assert!(rank_tolerance(1000, 1000) > 1e-15);
        assert!(rank_tolerance(100, 100) >= 1e-15);
    }

    #[test]
    fn offdiag_rank_is_low_for_interlaced_poles() {
        let k = 96;
        let s = Solved::new(k, &identity(k));
        let tol = rank_tolerance(k, k);
        let est = estimate_offdiag_rank(k, &|i, j| s.x[j * k + i], tol);
        assert!(est > 0 && est < 24, "estimated rank {est}");
        let norms = s.generators().norms(SecularKernels::dispatched());
        let x = s.generators().entries(&norms);
        assert_eq!(estimate_offdiag_rank(k, &|i, j| x.entry(i, j), tol), est);
    }

    #[test]
    fn tiles_reconstruct_x() {
        let k = 96;
        let s = Solved::new(k, &identity(k));
        let tol = rank_tolerance(k, k);
        // All slots Full: the top operand is all of X.
        let defl = deflation(&s, &identity(k), [0, k, 0, 0]);
        let sm = compress_all(&|i, j| s.x[j * k + i], &defl, tol, 12).top;
        assert!(sm.compressed_tiles() > 0, "expected compressed tiles");
        // Every entry covered exactly once and accurately.
        let a = reconstruct(&sm);
        let mut worst = 0.0f64;
        for j in 0..k {
            for i in 0..k {
                worst = worst.max((a[j * k + i] - s.x[j * k + i]).abs());
            }
        }
        assert!(worst < 1e-11, "worst reconstruction error {worst}");
        // The compression must actually save multiply flops.
        assert!(sm.multiply_flops(k) < 2 * (k * k * k) as u64);
    }

    /// The oracle is X as assembly stores it, rows scrambled into storage
    /// order: compressing from the generators instead must give the same
    /// tiles, ranks and factors, bit for bit, and the same gather maps.
    #[test]
    fn generators_compress_like_the_materialized_x() {
        for (k, leaf) in [(96, 6), (130, 4), (257, 8)] {
            let perm = scramble(k);
            let s = Solved::new(k, &perm);
            let defl = deflation(&s, &perm, [k / 3, k / 3, k - 2 * (k / 3), 0]);
            let tol = 1e-12;
            let stored = compress_all(&|i, j| s.x[j * k + perm[i]], &defl, tol, leaf);
            let norms = s.generators().norms(SecularKernels::dispatched());
            let x = s.generators().entries(&norms);
            let generated = compress_secular_x(&x, &defl, tol, leaf);
            assert!(stored.compressed_tiles() > 0, "k={k}: nothing compressed");
            assert_eq!(generated.top_slots, stored.top_slots, "k={k}");
            assert_eq!(generated.bot_slots, stored.bot_slots, "k={k}");
            assert_eq!(generated.total_rank(), stored.total_rank(), "k={k}");
            for (g, w) in [(&generated.top, &stored.top), (&generated.bot, &stored.bot)] {
                assert!(tile_bits(g) == tile_bits(w), "k={k}: tiles differ");
            }
        }
    }

    /// The merge's panel tasks compress the tiles `t ≡ p (mod npanels)` in
    /// whatever order the workers reach them: chunks taken last to first,
    /// each walked backwards, must give `compress_secular_x`'s tiles bit for
    /// bit — with identity slots and with a scramble that has Full slots.
    #[test]
    fn tiles_compress_the_same_in_any_order() {
        let (k, leaf, npanels) = (257, 8, 5);
        let cases = [
            (identity(k), [k / 2, 0, k - k / 2, 0]),
            (scramble(k), [k / 3, k / 3, k - 2 * (k / 3), 0]),
        ];
        for (perm, ctot) in cases {
            let s = Solved::new(k, &perm);
            let defl = deflation(&s, &perm, ctot);
            let tol = 1e-12;
            let norms = s.generators().norms(SecularKernels::dispatched());
            let x = s.generators().entries(&norms);
            let layout = TileLayout::new(&defl, leaf);
            let mut tiles: Vec<Option<Tile>> = vec![None; layout.len()];
            for p in (0..npanels).rev() {
                let chunk: Vec<usize> = (p..layout.len()).step_by(npanels).collect();
                for &t in chunk.iter().rev() {
                    tiles[t] = Some(layout.compress_tile(&x, t, tol));
                }
            }
            let tiles = tiles.into_iter().map(Option::unwrap).collect();
            let fanned = layout.into_operands(tiles);
            let serial = compress_secular_x(&x, &defl, tol, leaf);
            assert!(
                serial.compressed_tiles() > 0,
                "{ctot:?}: nothing compressed"
            );
            assert_eq!(fanned.top_slots, serial.top_slots, "{ctot:?}");
            assert_eq!(fanned.bot_slots, serial.bot_slots, "{ctot:?}");
            for (f, w) in [(&fanned.top, &serial.top), (&fanned.bot, &serial.bot)] {
                assert!(tile_bits(f) == tile_bits(w), "{ctot:?}: tiles differ");
            }
        }
    }
}
