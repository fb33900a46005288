//! The rank-structured eigenvector update: per-merge planning, tile
//! compression fanned out over the merge's panel tasks, and the structured
//! multiply.
//!
//! The dense `UpdateVect` computes `V = Q·X` with two GEMMs exploiting the
//! Top/Full/Bottom column support. This module replaces those GEMMs — when
//! a cheap rank probe says it pays — by a tiled multiply against the
//! ACA-compressed secular matrix ([`dcst_secular::structured`]): dense
//! diagonal tiles keep the packed GEMM, off-diagonal tiles run two skinny
//! GEMMs through their `U·Vᵀ` factors. The dense path remains the pinned
//! oracle: [`plan_update`] returns `None` (→ dense) when the probe says the
//! merge is high-rank, [`PlannedUpdate::finish`] when the measured
//! structured cost is not strictly cheaper, and
//! [`UpdatePolicy::ForceDense`] (the CLI's `DCST_FORCE_DENSE=1`) pins it.
//!
//! One merge's plan is built in three steps, one per task kind:
//!
//! * `CompressW` ([`plan_update`], serial): the policy check, X's column
//!   norms, the rank probe and the entry-free [`TileLayout`];
//! * `StructBasis` ([`PlannedUpdate::compress_chunk`], one per panel):
//!   compresses the tiles `t ≡ p (mod npanels)` and forms each one's `Q·U`
//!   basis product at once;
//! * `StructJoin` ([`PlannedUpdate::finish`], serial): the measured-flops
//!   rule, and the plan the `UpdateVect` panels multiply through.
//!
//! Layout note: no merge stores `X`; the tiles are built from its
//! generators, entry by entry in secular order ([`dcst_secular::GeneratedX`]).
//! `Q` is the workspace block's columns of each operand's slots (top rows
//! of the Top∪Full slots, bottom rows of the Full∪Bottom slots). When each
//! operand's slots are one consecutive run — every merge without Full
//! slots — the products read them in place at the block's leading
//! dimension ([`QSource::InPlace`]); otherwise they are gathered once per
//! merge, O(nm·k) traffic counted in `copy.elems`.

use crate::merge::PanelRoots;
use crate::DcError;
use dcst_matrix::failpoints::{self, Site};
use dcst_matrix::lowrank::{gemm_structured, structured_basis, StructuredMatrix, Tile, TileKind};
use dcst_matrix::{update_policy, UpdatePolicy};
use dcst_secular::{
    estimate_offdiag_rank, leaf_size, rank_tolerance, ColumnNorms, Deflation, SecularKernels,
    StructuredX, TileLayout,
};
use std::ops::Range;
use std::sync::OnceLock;

/// Smallest merge the auto policy will rank-probe. Fitted against *time*,
/// not flops (DESIGN.md "Rank-structured merge"): ACA compression and the
/// skinny products run far below the dense kernel's rate, so below this the
/// structured path loses on the clock even where it wins the flop count.
const MIN_K_AUTO: usize = 512;
/// Smallest merge the forced-structured policy will tile, so the accuracy
/// gates exercise compressed tiles even on toy problem sizes.
const MIN_K_FORCED: usize = 16;

/// Where a structured merge's products read `Q`.
enum QSource {
    /// Each operand's slots are one consecutive run, so its rows of the
    /// workspace block are its `Q` as they lie: the top operand's from
    /// offset `top_at` of the block, the bottom's from `bot_at`, both at
    /// the block's leading dimension `ld`.
    InPlace {
        top_at: usize,
        bot_at: usize,
        ld: usize,
    },
    /// Gathered copies: top `n1 × rows`, bottom `n2 × rows`, each at the
    /// leading dimension of its height.
    Gathered { qt: Vec<f64>, qb: Vec<f64> },
}

impl QSource {
    /// Read each operand's rows of `ws_block` (leading dimension `ld`,
    /// the merge's first column at offset 0) in place when its slots allow,
    /// or gather both.
    fn new(ws_block: &[f64], ld: usize, n1: usize, nm: usize, layout: &TileLayout) -> Self {
        let run_start = |slots: &[usize]| {
            let run = slots.windows(2).all(|w| w[1] == w[0] + 1);
            run.then(|| slots.first().copied().unwrap_or(0))
        };
        if let (Some(top), Some(bot)) = (run_start(&layout.top_slots), run_start(&layout.bot_slots))
        {
            return QSource::InPlace {
                top_at: top * ld,
                bot_at: bot * ld + n1,
                ld,
            };
        }
        // Top operand rows are Top∪Full slots (stored rows 0..n1 valid),
        // bottom rows are Full∪Bottom slots (rows n1..nm valid) — exactly
        // each slot's support, so no zero-fill.
        let gather = |slots: &[usize], rows: Range<usize>| {
            let mut q = Vec::with_capacity(rows.len() * slots.len());
            for &slot in slots {
                q.extend_from_slice(&ws_block[slot * ld..][rows.clone()]);
            }
            q
        };
        let (qt, qb) = (
            gather(&layout.top_slots, 0..n1),
            gather(&layout.bot_slots, n1..nm),
        );
        dcst_matrix::metrics::add("copy.elems", (qt.len() + qb.len()) as u64);
        QSource::Gathered { qt, qb }
    }

    /// The top (`top`) or bottom operand's `Q`, `m` rows tall, and its
    /// leading dimension; `ws_block` as given to [`new`](Self::new).
    fn operand<'a>(&'a self, ws_block: &'a [f64], top: bool, m: usize) -> (&'a [f64], usize) {
        match self {
            QSource::InPlace { top_at, bot_at, ld } => {
                (&ws_block[if top { *top_at } else { *bot_at }..], *ld)
            }
            QSource::Gathered { qt, qb } => (if top { qt } else { qb }, m.max(1)),
        }
    }
}

/// One merge's structured update between `CompressW` and `StructJoin`:
/// the tile layout and what compressing its tiles reads, and the tiles as
/// the `StructBasis` panels finish them.
pub(crate) struct PlannedUpdate {
    layout: TileLayout,
    /// The merge's roots and X's column norms: with the merge's deflation
    /// record and ẑ, the generators every tile is compressed from.
    roots: PanelRoots,
    norms: ColumnNorms,
    tol: f64,
    force: bool,
    q: QSource,
    /// Per tile of the layout: the compressed tile and its `Q·U` basis
    /// product, set by the one `StructBasis` panel that owns the tile.
    tiles: Vec<OnceLock<(Tile, Vec<f64>)>>,
    n1: usize,
    n2: usize,
    /// Dense-oracle flop count this plan must beat under `Auto`.
    flops_dense: u64,
}

/// One merge's compressed update operands, shared by the merge's
/// `UpdateVect` panels.
pub(crate) struct StructuredUpdate {
    sx: StructuredX,
    q: QSource,
    /// Per-tile `Q·U` basis products (top operand then bottom), empty for
    /// dense tiles.
    qu: Vec<Vec<f64>>,
    n1: usize,
    n2: usize,
}

/// Dense-path flop count of one merge's eigenvector update.
pub(crate) fn dense_update_flops(defl: &Deflation, nm: usize, n1: usize) -> u64 {
    let k = defl.k as u64;
    let (c1, c2, c3) = (
        defl.ctot[0] as u64,
        defl.ctot[1] as u64,
        defl.ctot[2] as u64,
    );
    let n2 = (nm - n1) as u64;
    2 * (n1 as u64) * k * (c1 + c2) + 2 * n2 * k * (c2 + c3)
}

/// Decide whether one merge may take the structured path and, when it
/// may, lay out its tiles and place `Q` — everything but the tiles.
///
/// * `ws_block` starts at `(off, off)` of the compressed workspace (all
///   `k` non-deflated columns live), leading dimension `n`, the global
///   order, which also scales the accuracy-budget tolerance;
/// * `roots` are the merge's `k` roots and `zhat` its ẑ: with `defl`, the
///   generators of its `k × k` secular eigenvector matrix.
///
/// Returns `None` for the dense path. The auto policy goes dense unless
/// the sampled off-diagonal rank satisfies `2·rank ≤ k/2` (and later,
/// in [`PlannedUpdate::finish`], unless the compressed operands' measured
/// flop count beats the dense oracle's); forced-structured skips the probe
/// but still requires `k` large enough to partition.
pub(crate) fn plan_update(
    ws_block: &[f64],
    roots: PanelRoots,
    zhat: &[f64],
    n: usize,
    nm: usize,
    n1: usize,
    defl: &Deflation,
) -> Option<PlannedUpdate> {
    let k = defl.k;
    let policy = update_policy();
    let force = policy == UpdatePolicy::ForceStructured;
    let min_k = if force { MIN_K_FORCED } else { MIN_K_AUTO };
    if policy == UpdatePolicy::ForceDense || k < min_k {
        return None;
    }
    // X's k column norms: O(k²), so formed only once a plan is possible.
    let generators = roots.generators(defl, zhat, 0..k);
    let norms = generators.norms(SecularKernels::dispatched());
    let tol = rank_tolerance(n, k);
    if !force {
        // Sampled-ACA probe of the level-1 off-diagonal block: dense
        // whenever the estimated rank doubled exceeds the block size k/2.
        let x = generators.entries(&norms);
        let est = estimate_offdiag_rank(k, &|i, j| x.entry(i, j), tol);
        if 2 * est > k / 2 {
            return None;
        }
    }
    let layout = TileLayout::new(defl, leaf_size(k, force));
    let q = QSource::new(ws_block, n, n1, nm, &layout);
    Some(PlannedUpdate {
        tiles: (0..layout.len()).map(|_| OnceLock::new()).collect(),
        layout,
        roots,
        norms,
        tol,
        force,
        q,
        n1,
        n2: nm - n1,
        flops_dense: dense_update_flops(defl, nm, n1),
    })
}

impl PlannedUpdate {
    /// Compress the tiles `t ≡ chunk (mod nchunks)` and form their `Q·U`
    /// basis products; `ws_block`, `defl` and `zhat` as given to
    /// [`plan_update`]. Chunks are disjoint, so concurrent calls with
    /// distinct `chunk` values never contend on a tile, and each tile is a
    /// pure function of X, its rectangle and the tolerance: the plan comes
    /// out the same whichever worker runs which chunk when.
    pub(crate) fn compress_chunk(
        &self,
        ws_block: &[f64],
        defl: &Deflation,
        zhat: &[f64],
        chunk: usize,
        nchunks: usize,
    ) {
        let x = self
            .roots
            .generators(defl, zhat, 0..defl.k)
            .entries(&self.norms);
        let (mut calls, mut flops) = (0u64, 0u64);
        for t in (chunk..self.tiles.len()).step_by(nchunks.max(1)) {
            let tile = self.layout.compress_tile(&x, t, self.tol);
            let top = self.layout.in_top(t);
            let m = if top { self.n1 } else { self.n2 };
            if let TileKind::LowRank(lr) = &tile.kind {
                if lr.rank > 0 && m > 0 {
                    calls += 1;
                    flops += 2 * (m * (tile.r1 - tile.r0) * lr.rank) as u64;
                }
            }
            let (q, ldq) = self.q.operand(ws_block, top, m);
            let qu = structured_basis(m, q, ldq, &tile);
            assert!(
                self.tiles[t].set((tile, qu)).is_ok(),
                "tile compressed twice"
            );
        }
        if calls > 0 {
            dcst_matrix::metrics::add("gemm.calls", calls);
            dcst_matrix::metrics::add("gemm.flops", flops);
        }
    }

    /// Once every chunk is compressed: the structured update, or `None`
    /// (→ dense) when under `Auto` its measured flop count, basis products
    /// included, does not beat the dense oracle's.
    pub(crate) fn finish(self) -> Option<StructuredUpdate> {
        let (tiles, qu): (Vec<Tile>, Vec<Vec<f64>>) = self
            .tiles
            .into_iter()
            .map(|t| t.into_inner().expect("a StructBasis chunk never ran"))
            .unzip();
        let sx = self.layout.into_operands(tiles);
        let flops_structured = sx.multiply_flops(self.n1, self.n2);
        if !self.force && flops_structured >= self.flops_dense {
            // Compression did not pay (ranks came out high): dense oracle.
            return None;
        }
        dcst_matrix::metrics::add("update.structured_merges", 1);
        dcst_matrix::metrics::add("update.structured_blocks", sx.compressed_tiles() as u64);
        dcst_matrix::metrics::add("update.structured_rank", sx.total_rank() as u64);
        dcst_matrix::metrics::add(
            "update.flops_saved",
            self.flops_dense.saturating_sub(flops_structured),
        );
        Some(StructuredUpdate {
            sx,
            q: self.q,
            qu,
            n1: self.n1,
            n2: self.n2,
        })
    }
}

impl StructuredUpdate {
    /// Flops of the panel multiplies for secular columns `jrange`
    /// (excluding the basis products, which are accounted per tile when
    /// computed).
    fn panel_flops(&self, jrange: &Range<usize>) -> u64 {
        let per = |sm: &StructuredMatrix, m: usize| -> u64 {
            sm.tiles
                .iter()
                .map(|t| {
                    let jc = t.c1.min(jrange.end).saturating_sub(t.c0.max(jrange.start)) as u64;
                    let inner = match &t.kind {
                        TileKind::Dense(_) => (t.r1 - t.r0) as u64,
                        TileKind::LowRank(lr) => lr.rank as u64,
                    };
                    2 * m as u64 * inner * jc
                })
                .sum()
        };
        per(&self.sx.top, self.n1) + per(&self.sx.bot, self.n2)
    }

    /// The structured `UpdateVect` for secular columns `jrange`: same
    /// contract (`out` is `nm × jrange.len()`, ld `nm`), failpoints and
    /// finite scan as the dense `update_vect_panel`, with both row strips
    /// multiplied through the compressed operands. `ws_block` as given to
    /// [`plan_update`].
    pub(crate) fn update_panel(
        &self,
        ws_block: &[f64],
        out: &mut [f64],
        off: usize,
        nm: usize,
        jrange: Range<usize>,
    ) -> Result<(), DcError> {
        if jrange.is_empty() {
            return Ok(());
        }
        if failpoints::fire(Site::Gemm) {
            return Err(DcError::Breakdown { stage: "gemm", off });
        }
        let (n1, n2) = (self.n1, self.n2);
        let ntop = self.sx.top.tiles.len();
        let qu: Vec<&[f64]> = self.qu.iter().map(Vec::as_slice).collect();
        if n1 > 0 {
            let (q, ldq) = self.q.operand(ws_block, true, n1);
            gemm_structured(
                n1,
                q,
                ldq,
                &self.sx.top,
                &qu[..ntop],
                jrange.clone(),
                out,
                nm,
            );
        }
        if n2 > 0 {
            let (q, ldq) = self.q.operand(ws_block, false, n2);
            let out = &mut out[n1..];
            gemm_structured(
                n2,
                q,
                ldq,
                &self.sx.bot,
                &qu[ntop..],
                jrange.clone(),
                out,
                nm,
            );
        }
        dcst_matrix::metrics::add("gemm.calls", 2);
        dcst_matrix::metrics::add("gemm.flops", self.panel_flops(&jrange));
        failpoints::poke_nan(Site::NanGemm, out);
        if !out.iter().all(|x| x.is_finite()) {
            return Err(DcError::Breakdown {
                stage: "update-vect",
                off,
            });
        }
        Ok(())
    }
}

/// Serializes the crate's tests that pin the process-wide update policy.
#[cfg(test)]
pub(crate) static POLICY_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use dcst_matrix::set_update_policy;
    use dcst_secular::{local_w_products, reduce_w, SecularProblem, SlotType};

    /// An undeflated merge of size `k` with identity slot maps, its slots
    /// grouped `ctot`, and its roots: interlaced poles, so the secular
    /// matrix compresses well.
    fn synthetic_merge(k: usize, ctot: [usize; 4]) -> (Deflation, PanelRoots) {
        let d: Vec<f64> = (0..k)
            .map(|i| i as f64 + 0.3 * ((i * 7 % 5) as f64) / 5.0)
            .collect();
        let mut z: Vec<f64> = (0..k).map(|i| 0.5 + ((i * 13 % 7) as f64) / 7.0).collect();
        let nrm: f64 = z.iter().map(|x| x * x).sum::<f64>().sqrt();
        z.iter_mut().for_each(|x| *x /= nrm);
        let problem = SecularProblem::new(&d, &z, 1.0).unwrap();
        let mut deltas = vec![0.0; k * k];
        let (mut mu, mut origin) = (Vec::new(), Vec::new());
        for (j, col) in deltas.chunks_exact_mut(k).enumerate() {
            let root = problem.solve_root(j, col).unwrap();
            mu.push(root.mu);
            origin.push(root.origin as u32);
        }
        let zhat = reduce_w(&z, &[local_w_products(&d, &deltas, k, 0, 0..k)]);
        let ident: Vec<usize> = (0..k).collect();
        let slot_type = (0..k)
            .map(|slot| match slot {
                _ if slot < ctot[0] => SlotType::Top,
                _ if slot < ctot[0] + ctot[1] => SlotType::Full,
                _ => SlotType::Bottom,
            })
            .collect();
        let defl = Deflation {
            k,
            n: k,
            n1: k / 2,
            rho: 1.0,
            dlamda: d,
            w: zhat,
            d_deflated: vec![],
            perm: ident.clone(),
            slot_type,
            sec_to_slot: ident,
            givens: vec![],
            ctot,
        };
        (defl, PanelRoots { mu, origin })
    }

    /// A workspace block for a merge of `k` columns and `nm` rows at
    /// leading dimension `ld`: distinct, deterministic entries.
    fn workspace(k: usize, nm: usize, ld: usize) -> Vec<f64> {
        (0..(k - 1) * ld + nm)
            .map(|t| ((t * 7919 % 1009) as f64 - 504.0) / 504.0)
            .collect()
    }

    /// Every chunk of `plan` compressed, last chunk first.
    fn compress_all(plan: &PlannedUpdate, ws: &[f64], defl: &Deflation, chunks: usize) {
        for c in (0..chunks).rev() {
            plan.compress_chunk(ws, defl, &defl.w, c, chunks);
        }
    }

    /// Plan the all-`Full` [`synthetic_merge`] of size `k` under the
    /// current policy.
    fn plan(k: usize) -> (Option<PlannedUpdate>, Deflation, Vec<f64>) {
        let (defl, roots) = synthetic_merge(k, [0, k, 0, 0]);
        let ws = workspace(k, k, k);
        let plan = plan_update(&ws, roots, &defl.w.clone(), k, k, k / 2, &defl);
        (plan, defl, ws)
    }

    // One test body: the policy knob is process-global, so the three
    // planner scenarios must not interleave with each other under the
    // parallel test runner.
    #[test]
    fn planner_policy_decisions() {
        let _policy = POLICY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Auto beats the dense oracle on an interlaced merge at the threshold.
        let k = MIN_K_AUTO;
        set_update_policy(UpdatePolicy::Auto);
        let (planned, defl, ws) = plan(k);
        let planned = planned.expect("auto policy must probe interlaced poles as low-rank");
        assert_eq!(planned.flops_dense, dense_update_flops(&defl, k, k / 2));
        assert!(matches!(planned.q, QSource::InPlace { .. }));
        compress_all(&planned, &ws, &defl, 7);
        let su = planned
            .finish()
            .expect("auto policy must take the structured path on interlaced poles");
        assert!(su.sx.compressed_tiles() > 0);

        // ForceDense pins the oracle.
        set_update_policy(UpdatePolicy::ForceDense);
        assert!(plan(k).0.is_none());
        set_update_policy(UpdatePolicy::Auto);

        // One below the threshold the same merge stays dense under auto.
        assert!(
            plan(MIN_K_AUTO - 1).0.is_none(),
            "k < MIN_K_AUTO must not tile"
        );
    }

    /// Reading Q where it lies and reading a gathered copy give the same
    /// update bit for bit: the GEMM kernel's arithmetic does not depend on
    /// the leading dimension. A merge with Full slots has to gather.
    #[test]
    fn q_in_place_and_gathered_give_the_same_bits() {
        let _policy = POLICY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_update_policy(UpdatePolicy::ForceStructured);
        let (k, nm, n1, ld) = (96, 96, 48, 101);
        let ws = workspace(k, nm, ld);
        let (defl, roots) = synthetic_merge(k, [k / 3, k / 3, k - 2 * (k / 3), 0]);
        let planned = |roots| plan_update(&ws, roots, &defl.w, ld, nm, n1, &defl).unwrap();
        let in_place = planned(PanelRoots {
            mu: roots.mu.clone(),
            origin: roots.origin.clone(),
        });
        assert!(matches!(in_place.q, QSource::InPlace { .. }));
        let mut gathered = planned(roots);
        let layout = &gathered.layout;
        let gather = |slots: &[usize], rows: Range<usize>| -> Vec<f64> {
            slots
                .iter()
                .flat_map(|&s| ws[s * ld..][rows.clone()].to_vec())
                .collect()
        };
        let (qt, qb) = (
            gather(&layout.top_slots, 0..n1),
            gather(&layout.bot_slots, n1..nm),
        );
        gathered.q = QSource::Gathered { qt, qb };
        let update = |plan: PlannedUpdate| {
            compress_all(&plan, &ws, &defl, 5);
            let su = plan.finish().unwrap();
            let mut out = vec![f64::NAN; nm * k];
            su.update_panel(&ws, &mut out, 0, nm, 0..k).unwrap();
            out.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        let bits = update(in_place);
        assert!(bits == update(gathered), "in-place and gathered Q differ");

        // A Bottom slot first and a Top slot last in secular order break
        // both runs.
        let (mut defl, roots) = synthetic_merge(k, [k / 3, k / 3, k - 2 * (k / 3), 0]);
        defl.sec_to_slot.swap(0, k - 1);
        let plan = plan_update(&ws, roots, &defl.w, ld, nm, n1, &defl).unwrap();
        set_update_policy(UpdatePolicy::Auto);
        assert!(matches!(plan.q, QSource::Gathered { .. }));
    }
}
