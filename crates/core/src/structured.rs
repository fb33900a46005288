//! The rank-structured eigenvector update: per-merge planning, the
//! secular-order gather of `Q`, and the structured multiply.
//!
//! The dense `UpdateVect` computes `V = Q·X` with two GEMMs exploiting the
//! Top/Full/Bottom column support. This module replaces those GEMMs — when
//! a cheap rank probe says it pays — by a tiled multiply against the
//! ACA-compressed secular matrix ([`dcst_secular::structured`]): dense
//! diagonal tiles keep the packed GEMM, off-diagonal tiles run two skinny
//! GEMMs through their `U·Vᵀ` factors. The dense path remains the pinned
//! oracle; [`plan_update`] returns `None` (→ dense) whenever the estimated
//! or the measured structured cost is not strictly cheaper, or when
//! [`UpdatePolicy::ForceDense`] pins it (the CLI's `DCST_FORCE_DENSE=1`).
//!
//! Layout note: no merge stores `X`; the compressed operands are built
//! from its generators, entry by entry in secular order
//! ([`dcst_secular::GeneratedX`]), and the matching columns of the
//! compressed workspace `Q` are gathered (top rows of the Top∪Full slots,
//! bottom rows of the Full∪Bottom slots) into dense panels once per merge —
//! O(nm·k) traffic, the same order as the existing copy bucket.

use crate::DcError;
use dcst_matrix::failpoints::{self, Site};
use dcst_matrix::lowrank::{gemm_structured, structured_basis, StructuredMatrix, TileKind};
use dcst_matrix::{update_policy, UpdatePolicy};
use dcst_secular::{
    compress_secular_x, estimate_offdiag_rank, leaf_size, rank_tolerance, Deflation,
    SecularGenerators, SecularKernels, StructuredX,
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

/// One merge's compressed update operands, shared by the merge's
/// `StructBasis` and `UpdateVect` tasks.
pub(crate) struct StructuredUpdate {
    /// Compressed top/bottom operands and their gather maps.
    pub sx: StructuredX,
    /// Gathered `Q` for the top product: `n1 × sx.top.rows`, ld `n1`.
    qt: Vec<f64>,
    /// Gathered `Q` for the bottom product: `n2 × sx.bot.rows`, ld `n2`.
    qb: Vec<f64>,
    /// Per-tile `Q·U` basis products (top operand then bottom), filled by
    /// [`compute_basis_chunk`](Self::compute_basis_chunk) before any panel
    /// multiply runs.
    qu: Vec<OnceLock<Vec<f64>>>,
    n1: usize,
    n2: usize,
    /// Dense-oracle flop count this plan replaces (diagnostics + planner
    /// tests; production reads go through the metrics counters).
    #[allow(dead_code)]
    pub flops_dense: u64,
    /// Structured flop count (basis products included).
    #[allow(dead_code)]
    pub flops_structured: u64,
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

/// Decide the update path for one merge and, when structured wins, build
/// the compressed operands and gather `Q`.
///
/// * `ws_block` starts at `(off, off)` of the compressed workspace (all
///   `k` non-deflated columns live), leading dimension `ld`;
/// * `x` generates the merge's `k × k` secular eigenvector matrix — all
///   `k` roots;
/// * `n_global` scales the accuracy-budget tolerance.
///
/// Returns `None` for the dense path. The auto policy goes dense unless
/// the sampled off-diagonal rank satisfies `2·rank ≤ k/2` **and** the
/// compressed operands' measured flop count beats the dense oracle's;
/// forced-structured skips the probe but still requires `k` large enough
/// to partition.
pub(crate) fn plan_update(
    ws_block: &[f64],
    x: SecularGenerators<'_>,
    ld: usize,
    nm: usize,
    n1: usize,
    defl: &Deflation,
    n_global: usize,
) -> Option<StructuredUpdate> {
    let k = defl.k;
    let policy = update_policy();
    let force = policy == UpdatePolicy::ForceStructured;
    let min_k = if force { MIN_K_FORCED } else { MIN_K_AUTO };
    if policy == UpdatePolicy::ForceDense || k < min_k {
        return None;
    }
    // X's k column norms: O(k²), so formed only once a plan is possible.
    let x = x.entries(SecularKernels::dispatched());
    let tol = rank_tolerance(n_global, k);
    if !force {
        // Sampled-ACA probe of the level-1 off-diagonal block: dense
        // whenever the estimated rank doubled exceeds the block size k/2.
        let est = estimate_offdiag_rank(k, &|i, j| x.entry(i, j), tol);
        if 2 * est > k / 2 {
            return None;
        }
    }
    let sx = compress_secular_x(&x, defl, tol, leaf_size(k, force));
    let n2 = nm - n1;
    let flops_dense = dense_update_flops(defl, nm, n1);
    let flops_structured = sx.multiply_flops(n1, n2);
    if !force && flops_structured >= flops_dense {
        // Compression did not pay (ranks came out high): dense oracle.
        return None;
    }
    // Gather Q in secular row order. Top operand rows are Top∪Full slots
    // (stored rows 0..n1 valid), bottom rows are Full∪Bottom slots (rows
    // n1..nm valid) — exactly each slot's support, so no zero-fill.
    let mut qt = vec![0.0f64; n1 * sx.top_slots.len()];
    for (a, &slot) in sx.top_slots.iter().enumerate() {
        qt[a * n1..(a + 1) * n1].copy_from_slice(&ws_block[slot * ld..slot * ld + n1]);
    }
    let mut qb = vec![0.0f64; n2 * sx.bot_slots.len()];
    for (a, &slot) in sx.bot_slots.iter().enumerate() {
        qb[a * n2..(a + 1) * n2].copy_from_slice(&ws_block[slot * ld + n1..slot * ld + nm]);
    }
    let qu = (0..sx.top.tiles.len() + sx.bot.tiles.len())
        .map(|_| OnceLock::new())
        .collect();
    dcst_matrix::metrics::add("update.structured_merges", 1);
    dcst_matrix::metrics::add("update.structured_blocks", sx.compressed_tiles() as u64);
    dcst_matrix::metrics::add("update.structured_rank", sx.total_rank() as u64);
    dcst_matrix::metrics::add(
        "update.flops_saved",
        flops_dense.saturating_sub(flops_structured),
    );
    Some(StructuredUpdate {
        sx,
        qt,
        qb,
        qu,
        n1,
        n2,
        flops_dense,
        flops_structured,
    })
}

impl StructuredUpdate {
    /// Total basis-product chunks (one per tile across both operands);
    /// callers fan these out round-robin over a fixed task count.
    #[allow(dead_code)] // read by the planner tests
    pub(crate) fn num_tiles(&self) -> usize {
        self.qu.len()
    }

    /// Compute the `Q·U` basis products for tiles `t ≡ chunk (mod
    /// nchunks)`. Chunks are disjoint, so concurrent calls with distinct
    /// `chunk` values never contend on a cell.
    pub(crate) fn compute_basis_chunk(&self, chunk: usize, nchunks: usize) {
        let ntop = self.sx.top.tiles.len();
        let (mut calls, mut flops) = (0u64, 0u64);
        for t in (chunk..self.qu.len()).step_by(nchunks.max(1)) {
            let (m, q, tile) = if t < ntop {
                (self.n1, &self.qt, &self.sx.top.tiles[t])
            } else {
                (self.n2, &self.qb, &self.sx.bot.tiles[t - ntop])
            };
            if let TileKind::LowRank(lr) = &tile.kind {
                if lr.rank > 0 && m > 0 {
                    calls += 1;
                    flops += 2 * (m * (tile.r1 - tile.r0) * lr.rank) as u64;
                }
            }
            let qu = structured_basis(m, q, m.max(1), tile);
            let _ = self.qu[t].set(qu);
        }
        if calls > 0 {
            dcst_matrix::metrics::add("gemm.calls", calls);
            dcst_matrix::metrics::add("gemm.flops", flops);
        }
    }

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
    /// multiplied through the compressed operands. All basis products must
    /// already be computed.
    pub(crate) fn update_panel(
        &self,
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
        let qu_refs: Vec<&[f64]> = self
            .qu
            .iter()
            .map(|c| c.get().expect("basis products computed").as_slice())
            .collect();
        if n1 > 0 {
            gemm_structured(
                n1,
                &self.qt,
                n1,
                &self.sx.top,
                &qu_refs[..ntop],
                jrange.clone(),
                out,
                nm,
            );
        }
        if n2 > 0 {
            gemm_structured(
                n2,
                &self.qb,
                n2,
                &self.sx.bot,
                &qu_refs[ntop..],
                jrange.clone(),
                &mut out[n1..],
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

    /// An undeflated all-`Full` merge of size `k` with identity slot maps
    /// and its roots' `(μ, origin)`: interlaced poles, so the secular matrix
    /// compresses well.
    fn synthetic_merge(k: usize) -> (Deflation, Vec<f64>, Vec<u32>) {
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
        let defl = Deflation {
            k,
            n: k,
            n1: k / 2,
            rho: 1.0,
            dlamda: d,
            w: zhat,
            d_deflated: vec![],
            perm: ident.clone(),
            slot_type: vec![SlotType::Full; k],
            sec_to_slot: ident,
            givens: vec![],
            ctot: [0, k, 0, 0],
        };
        (defl, mu, origin)
    }

    /// Plan the [`synthetic_merge`] of size `k` under the current policy.
    fn plan(k: usize) -> (Option<StructuredUpdate>, Deflation) {
        let (defl, mu, origin) = synthetic_merge(k);
        let x = SecularGenerators {
            dlamda: &defl.dlamda,
            zhat: &defl.w,
            mu: &mu,
            origin: &origin,
        };
        (
            plan_update(&vec![1.0; k * k], x, k, k, k / 2, &defl, k),
            defl,
        )
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
        let (su, defl) = plan(k);
        let su = su.expect("auto policy must take the structured path on interlaced poles");
        assert!(su.num_tiles() > 0);
        assert!(
            su.flops_structured < su.flops_dense,
            "structured {} !< dense {}",
            su.flops_structured,
            su.flops_dense
        );
        assert_eq!(su.flops_dense, dense_update_flops(&defl, k, k / 2));

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
}
