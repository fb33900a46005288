//! MRRR (Multiple Relatively Robust Representations) tridiagonal
//! eigensolver — the MR³-SMP-shaped comparator of the paper's Figure 8.
//!
//! Algorithm (after Dhillon; simplified but structurally faithful):
//!
//! 1. all eigenvalues by Sturm-count **bisection** (one task per index
//!    chunk);
//! 2. a **root representation** `T − σI = L D Lᵀ` with σ outside the
//!    spectrum, so the factorization is positive definite and
//!    componentwise robust;
//! 3. a **representation tree**: eigenvalue groups with small relative
//!    gaps are re-shifted (`L'D'L'ᵀ = LDLᵀ − τI` via the differential
//!    stationary qds transform) until each eigenvalue is relatively well
//!    separated within its representation;
//! 4. each eigenvector from a **twisted factorization** at the position of
//!    the smallest γ (one task per chunk of eigenvectors);
//! 5. stubborn clusters (depth limit, or numerically identical
//!    eigenvalues) fall back to Gram–Schmidt within the cluster — the
//!    pragmatic safety net MR³ implementations also carry.
//!
//! Accuracy is O(n·ε) on orthogonality/residual — one to two digits worse
//! than D&C's O(√n·ε), exactly the contrast the paper's Figure 9 shows.
//!
//! The crate owns no threads: the two parallel phases run as tasks on the
//! [`Runtime`] the caller lends [`MrrrSolver`] (or [`bisect_range`]), one
//! per worker, and every output is bit-identical whatever that runtime is —
//! bisection runs in lockstep per eigenvalue and each eigenvector depends
//! only on its own job.

mod bisect;
mod dqds;
mod rrr;
mod tstein;

pub use bisect::{bisect_range, bisect_refine_ldl};
pub use dqds::dqds_eigenvalues;
pub use rrr::{
    ldl_factor, stqds_shift, sturm_count_ldl, twisted_vector, twisted_vector_ranked, Rrr,
};
pub use tstein::{lu_factor, solve_u, TridiagLu};

use dcst_matrix::Matrix;
use dcst_runtime::Runtime;
use dcst_tridiag::SymTridiag;
use std::ops::Range;
use std::sync::{mpsc, Arc};

/// Errors from the MRRR driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MrrrError {
    NonFinite,
    /// The representation tree failed to separate a cluster and the
    /// fallback also failed (should not happen in practice).
    ClusterFailure {
        first: usize,
        last: usize,
    },
    /// A requested eigenvalue index range is empty or out of bounds —
    /// user input, so a recoverable error rather than an assertion.
    InvalidRange {
        il: usize,
        iu: usize,
        n: usize,
    },
}

impl std::fmt::Display for MrrrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MrrrError::NonFinite => write!(f, "matrix contains NaN or infinite entries"),
            MrrrError::ClusterFailure { first, last } => {
                write!(f, "failed to resolve eigenvalue cluster {first}..={last}")
            }
            MrrrError::InvalidRange { il, iu, n } => {
                write!(
                    f,
                    "eigenvalue index range {il}:{iu} invalid for matrix of order {n} \
                     (need il <= iu < n, 0-based)"
                )
            }
        }
    }
}

impl std::error::Error for MrrrError {}

/// Relative gap below which neighbouring eigenvalues form a cluster.
const RELTOL: f64 = 1e-3;
/// Maximum representation-tree depth before the Gram–Schmidt fallback.
const MAX_DEPTH: usize = 8;

/// The MRRR solver, running its parallel phases on a borrowed runtime.
/// Pass [`Runtime::inline`] to run them as tasks on the calling thread.
pub struct MrrrSolver<'rt> {
    rt: &'rt Runtime,
}

/// One leaf work item: compute eigenvector `idx` from `rep` at the
/// representation-local eigenvalue `lam_local`.
struct VecJob {
    rep: Arc<Rrr>,
    idx: usize,
    lam_local: f64,
    /// Shift of `rep` relative to the original T.
    total_shift: f64,
    /// Gram–Schmidt group id (`usize::MAX` = none).
    gs_group: usize,
    /// Twist rank: members of a fallback group use distinct twists so the
    /// vectors span the cluster's eigenspace.
    twist_rank: usize,
}

/// Split `0..k` (k ≥ 1) into at most `max(1, rt.num_threads())`
/// contiguous chunks, run `f` on each as one task named `name` in a fresh
/// scope of `rt`, and return the results in chunk order. A panicking task
/// re-panics here, as a scoped thread's panic would. `rt` must not be the
/// runtime whose worker is calling: the wait would hold that worker.
fn in_chunks<T, F>(rt: &Runtime, name: &'static str, k: usize, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(Range<usize>) -> T + Send + Sync + 'static,
{
    let chunk = k.div_ceil(rt.num_threads().clamp(1, k));
    let f = Arc::new(f);
    let (tx, rx) = mpsc::channel();
    let scope = rt.scope();
    for (c, start) in (0..k).step_by(chunk).enumerate() {
        let (f, tx) = (f.clone(), tx.clone());
        scope.task(name).spawn(move || {
            let _ = tx.send((c, f(start..k.min(start + chunk))));
        });
    }
    if let Err(e) = scope.wait() {
        panic!("{e}");
    }
    let mut parts: Vec<(usize, T)> = rx.try_iter().collect();
    parts.sort_unstable_by_key(|&(c, _)| c);
    parts.into_iter().map(|(_, part)| part).collect()
}

/// The chunk results of [`in_chunks`] end to end; a lone chunk moves.
fn concat(mut parts: Vec<Vec<f64>>) -> Vec<f64> {
    if parts.len() == 1 {
        parts.pop().expect("one chunk")
    } else {
        parts.concat()
    }
}

/// The irreducible blocks of `t` as `(row offset, block)`: the matrix split
/// at negligible off-diagonals (`dlarra` analogue).
fn split_blocks(t: &SymTridiag) -> Vec<(usize, SymTridiag)> {
    let n = t.n();
    let mut starts = vec![0usize];
    for i in 0..n.saturating_sub(1) {
        let tol = f64::EPSILON * (t.d[i].abs() * t.d[i + 1].abs()).sqrt() + f64::MIN_POSITIVE;
        if t.e[i].abs() <= tol {
            starts.push(i + 1);
        }
    }
    starts.push(n);
    let block = |w: &[usize]| {
        let (b0, b1) = (w[0], w[1]);
        let e = t.e[b0..b1.saturating_sub(1).max(b0)].to_vec();
        (b0, SymTridiag::new(t.d[b0..b1].to_vec(), e))
    };
    starts.windows(2).map(block).collect()
}

/// Eigenvalues below `x`, counted block by block. Dropping a negligible
/// coupling moves eigenvalues by O(ε‖T‖), so where `x` cuts through a
/// tight cluster this can differ from the Sturm count of the unsplit
/// matrix — and it is the blocks that get solved.
fn split_count(blocks: &[(usize, SymTridiag)], x: f64) -> usize {
    let count = |(_, sub): &(usize, SymTridiag)| dcst_tridiag::sturm_count(sub, x);
    blocks.iter().map(count).sum()
}

/// The block-local index range of the eigenvalues in `[lo, hi)`, by Sturm
/// counts: what [`MrrrSolver::solve_window`] selects from each block.
fn window(lo: f64, hi: f64) -> impl Fn(&SymTridiag) -> Range<usize> {
    move |sub| dcst_tridiag::sturm_count(sub, lo)..dcst_tridiag::sturm_count(sub, hi)
}

impl<'rt> MrrrSolver<'rt> {
    pub fn new(rt: &'rt Runtime) -> Self {
        MrrrSolver { rt }
    }

    pub fn name(&self) -> &'static str {
        "mrrr"
    }

    /// Full eigen-decomposition: values ascending, orthonormal vectors.
    ///
    /// The matrix is first split into irreducible blocks at negligible
    /// off-diagonals (`dlarra` analogue) — numerically identical
    /// eigenvalues then live in different blocks, whose eigenvectors are
    /// orthogonal by disjoint support.
    pub fn solve(&self, t: &SymTridiag) -> Result<(Vec<f64>, Matrix), MrrrError> {
        if t.has_non_finite() {
            return Err(MrrrError::NonFinite);
        }
        self.solve_blocks(&split_blocks(t), t.n(), |sub| 0..sub.n())
    }

    /// Eigenpairs whose eigenvalues lie in the half-open window
    /// `[lo, hi)`: values ascending plus an `n × k` vector matrix. This is
    /// the subset computation the paper names as MRRR's main asset —
    /// Θ(n·k) instead of Θ(n²) work.
    pub fn solve_window(
        &self,
        t: &SymTridiag,
        lo: f64,
        hi: f64,
    ) -> Result<(Vec<f64>, Matrix), MrrrError> {
        let n = t.n();
        if t.has_non_finite() {
            return Err(MrrrError::NonFinite);
        }
        if n == 0 || hi <= lo {
            return Ok((vec![], Matrix::zeros(n, 0)));
        }
        self.solve_blocks(&split_blocks(t), n, window(lo, hi))
    }

    /// Solve each irreducible block of a split matrix for the block-local
    /// index range `select` picks, and merge the pairs ascending across
    /// blocks into eigenvectors of `n` rows. A lone part that spans every
    /// row moves without a copy.
    fn solve_blocks(
        &self,
        blocks: &[(usize, SymTridiag)],
        n: usize,
        select: impl Fn(&SymTridiag) -> Range<usize>,
    ) -> Result<(Vec<f64>, Matrix), MrrrError> {
        let mut parts: Vec<(usize, Vec<f64>, Matrix)> = Vec::new();
        for (b0, sub) in blocks {
            let range = select(sub);
            if !range.is_empty() {
                let (vals, vecs) = self.solve_block_range(sub, range)?;
                parts.push((*b0, vals, vecs));
            }
        }
        if let [(0, _, vecs)] = parts.as_slice() {
            if vecs.rows() == n {
                let (_, vals, vecs) = parts.pop().expect("one part");
                return Ok((vals, vecs));
            }
        }
        // Merge ascending across blocks.
        let total: usize = parts.iter().map(|(_, vals, _)| vals.len()).sum();
        let mut order: Vec<(usize, usize)> = Vec::with_capacity(total);
        for (pi, (_, vals, _)) in parts.iter().enumerate() {
            order.extend((0..vals.len()).map(|c| (pi, c)));
        }
        order
            .sort_by(|&(pa, ca), &(pb, cb)| parts[pa].1[ca].partial_cmp(&parts[pb].1[cb]).unwrap());
        let mut values = Vec::with_capacity(total);
        let mut v = vec![0.0f64; n * total];
        for (slot, &(pi, c)) in order.iter().enumerate() {
            let (b0, vals, vecs) = &parts[pi];
            values.push(vals[c]);
            let nb = vecs.rows();
            v[slot * n + b0..slot * n + b0 + nb].copy_from_slice(vecs.col(c));
        }
        Ok((values, Matrix::from_vec(n, total, v)))
    }

    /// Eigenpairs with (0-based, ascending) indices `il..=iu`, exactly
    /// `iu − il + 1` of them. Built on [`solve_window`](Self::solve_window)
    /// with cuts at the midpoints to the neighbouring eigenvalues; when a
    /// boundary eigenvalue belongs to a numerically degenerate multiplet
    /// the window admits the whole multiplet, so this counts how many
    /// extra eigenvalues it admitted below `il` (one Sturm count) and
    /// slices them off both ends. The D&C subset fallback needs the
    /// exact-count contract.
    pub fn solve_range_exact(
        &self,
        t: &SymTridiag,
        il: usize,
        iu: usize,
    ) -> Result<(Vec<f64>, Matrix), MrrrError> {
        if il > iu || iu >= t.n() {
            return Err(MrrrError::InvalidRange { il, iu, n: t.n() });
        }
        if t.has_non_finite() {
            return Err(MrrrError::NonFinite);
        }
        let blocks = split_blocks(t);
        let (lo, hi) = self.range_window(t, &blocks, il, iu);
        let (vals, vecs) = self.solve_blocks(&blocks, t.n(), window(lo, hi))?;
        let kreq = iu - il + 1;
        if vals.len() < kreq {
            return Err(MrrrError::ClusterFailure {
                first: il,
                last: iu,
            });
        }
        // Eigenvalues strictly below the window have index < il, so the
        // window's first pair sits `il - count(lo)` slots before λ_il.
        let lead = il
            .saturating_sub(split_count(&blocks, lo))
            .min(vals.len() - kreq);
        let values = vals[lead..lead + kreq].to_vec();
        let n = t.n();
        let mut v = vec![0.0f64; n * kreq];
        for (c, col) in v.chunks_mut(n).enumerate() {
            col.copy_from_slice(vecs.col(lead + c));
        }
        Ok((values, Matrix::from_vec(n, kreq, v)))
    }

    /// The half-open eigenvalue window `[lo, hi)` containing exactly the
    /// spectrum's indices `il..=iu` (plus any boundary multiplets), with
    /// cuts at the midpoints to the neighbouring eigenvalues. The cuts are
    /// validated with [`split_count`] on `blocks`, the count the window
    /// solve itself selects by.
    fn range_window(
        &self,
        t: &SymTridiag,
        blocks: &[(usize, SymTridiag)],
        il: usize,
        iu: usize,
    ) -> (f64, f64) {
        let n = t.n();
        let (gl, gu) = t.gershgorin_bounds();
        let span = (gu - gl).max(1.0);
        let mut lo = if il == 0 {
            gl - 1e-3 * span
        } else {
            let below = bisect::bisect_pair(t, il - 1);
            0.5 * (below[0] + below[1])
        };
        // Boundary-multiplet safeguard: when λ_{il−1} and λ_il are
        // numerically coincident the midpoint can land at-or-above λ_il
        // and the window would miss it. Walk lo down until at most il
        // eigenvalues lie strictly below it; the extra low eigenvalues a
        // wider window admits are trimmed by the caller.
        let mut step = 1e-3 * span;
        while il > 0 && split_count(blocks, lo) > il {
            lo -= step;
            step *= 2.0;
        }
        let mut hi = if iu + 1 == n {
            gu + 1e-3 * span
        } else {
            let above = bisect::bisect_pair(t, iu);
            0.5 * (above[0] + above[1])
        };
        // The half-open window needs hi strictly above λ_iu — note that
        // an absolute nudge (`+ MIN_POSITIVE`) is a no-op for |hi| away
        // from the denormal range, so verify with a Sturm count and walk
        // hi up until at least iu+1 eigenvalues sit below it.
        let mut step = 1e-3 * span;
        while split_count(blocks, hi) <= iu {
            hi += step;
            step *= 2.0;
        }
        (lo, hi)
    }

    /// Eigenpairs of one irreducible block for the (block-local) index
    /// `range` only — Θ(n·k) work for k selected pairs, the subset
    /// property the paper credits MRRR with. Returns `k` ascending values
    /// and an `n x k` vector matrix.
    fn solve_block_range(
        &self,
        t: &SymTridiag,
        range: Range<usize>,
    ) -> Result<(Vec<f64>, Matrix), MrrrError> {
        let n = t.n();
        let k = range.len();
        if n == 0 || k == 0 {
            return Ok((vec![], Matrix::zeros(n, 0)));
        }
        if n == 1 {
            return Ok((vec![t.d[0]], Matrix::identity(1)));
        }
        let col0 = range.start;

        // 1. the selected eigenvalues of T: dqds for the full spectrum
        // (with bisection fallback), bisection for proper subsets where
        // its Θ(n·k) cost wins.
        let mut lam = vec![0.0f64; n];
        let mut have = false;
        if k == n {
            if let Some(vals) = dqds::dqds_eigenvalues(t) {
                lam.copy_from_slice(&vals);
                have = true;
            }
        }
        if !have {
            let lam_sel = bisect_range(t, range.clone(), self.rt)?;
            lam[range.clone()].copy_from_slice(&lam_sel);
        }

        // 2. root representation: shift below the spectrum.
        let (gl, gu) = t.gershgorin_bounds();
        let span = (gu - gl).max(f64::MIN_POSITIVE);
        let sigma = gl - 1e-3 * span;
        let root = Arc::new(ldl_factor(t, sigma));

        // 3. representation tree (sequential — cheap relative to phase 4),
        // producing one VecJob per eigenvector.
        let norm = t.max_norm().max(f64::MIN_POSITIVE);
        let mut jobs: Vec<VecJob> = Vec::with_capacity(n);
        let mut gs_groups = 0usize;
        let lam_local: Vec<f64> = lam.iter().map(|l| l - sigma).collect();
        self.descend(
            root,
            sigma,
            range.clone(),
            &lam_local,
            norm,
            0,
            &mut jobs,
            &mut gs_groups,
        )?;

        // 4. eigenvectors, one task per chunk of columns. The descent
        // covers `range` in ascending order, so job `c` is column `c`.
        debug_assert!(jobs.iter().enumerate().all(|(c, job)| job.idx == col0 + c));
        let jobs: Arc<[VecJob]> = jobs.into();
        let parts = in_chunks(self.rt, "MrrrVectors", k, {
            let jobs = jobs.clone();
            move |cols: Range<usize>| {
                let mut v = vec![0.0f64; n * cols.len()];
                let mut values = Vec::with_capacity(cols.len());
                for (job, col) in jobs[cols].iter().zip(v.chunks_mut(n)) {
                    twisted_vector_ranked(&job.rep, job.lam_local, job.twist_rank, col);
                    values.push(job.lam_local + job.total_shift);
                }
                (values, v)
            }
        });
        let (values, v): (Vec<_>, Vec<_>) = parts.into_iter().unzip();
        let (mut values, mut v) = (concat(values), concat(v));

        // 5. Resolve fallback groups (numerically multiple eigenvalues):
        // keep the twisted vector for the first member, then build the
        // rest of the eigenspace basis by inverse iteration orthogonalized
        // against the earlier members (DSTEIN-style).
        if gs_groups > 0 {
            // Groups hold v column indices.
            let mut groups: Vec<Vec<usize>> = vec![Vec::new(); gs_groups];
            for (c, job) in jobs.iter().enumerate() {
                if job.gs_group != usize::MAX {
                    groups[job.gs_group].push(c);
                }
            }
            for group in groups {
                for (c, &idx) in group.iter().enumerate() {
                    if c == 0 {
                        continue; // twisted vector already in place
                    }
                    let job = &jobs[idx];
                    // Inverse iteration on T itself with a partially
                    // pivoted LU — robust through the multiplet's several
                    // near-singular pivots (dstein's approach).
                    // Perturb each member's shift by a few ulps (dstein's
                    // PERTOL): every member then sits at a comparable
                    // distance from the whole multiplet, so the solve
                    // amplifies the full eigenspace instead of letting one
                    // direction dominate and the orthogonalized remainder
                    // collapse.
                    let base = job.lam_local + job.total_shift;
                    let pertol = 16.0 * f64::EPSILON * base.abs().max(1e-3 * norm);
                    let lam_t = base + c as f64 * pertol;
                    let lu = tstein::lu_factor(t, lam_t);
                    // Deterministic pseudo-random start.
                    let mut b: Vec<f64> = (0..n)
                        .map(|i| ((i * 2654435761 + idx * 40503) % 1000) as f64 / 1000.0 - 0.5)
                        .collect();
                    for _ in 0..4 {
                        tstein::solve_u(&lu, &mut b);
                        // Orthogonalize AFTER the solve: the solve
                        // re-amplifies any residual component along the
                        // earlier members, so projecting beforehand is not
                        // enough (this is what DSTEIN does too).
                        for &jb in &group[..c] {
                            let dot = dcst_matrix::dot(&b, &v[jb * n..jb * n + n]);
                            for (x, y) in b.iter_mut().zip(&v[jb * n..jb * n + n]) {
                                *x -= dot * y;
                            }
                        }
                        let nrm = dcst_matrix::nrm2(&b);
                        let inv = 1.0 / nrm.max(f64::MIN_POSITIVE);
                        b.iter_mut().for_each(|x| *x *= inv);
                    }
                    v[idx * n..idx * n + n].copy_from_slice(&b);
                }
                // Final polish: modified Gram-Schmidt over the group.
                gram_schmidt_columns(&mut v, n, &group);
            }
        }

        // 6. Safety net: a cluster can straddle the singleton/cluster
        // boundary, leaving vectors of nearly-identical eigenvalues
        // computed by *different* tree paths correlated. Those vectors
        // all lie in the multiplet's invariant subspace, so Gram–Schmidt
        // over each near-degenerate run restores orthogonality without
        // hurting residuals.
        {
            let scale = norm;
            let mut run = vec![0usize];
            for j in 1..=k {
                let close = j < k
                    && (values[j] - values[j - 1]).abs()
                        <= 1e4 * f64::EPSILON * values[j].abs().max(1e-3 * scale);
                if close {
                    run.push(j);
                } else {
                    if run.len() > 1 {
                        gram_schmidt_columns(&mut v, n, &run);
                    }
                    run.clear();
                    if j < k {
                        run.push(j);
                    }
                }
            }
        }

        // Refinement against per-cluster representations can reorder
        // near-degenerate values by an ulp; restore ascending order.
        if values.windows(2).any(|w| w[0] > w[1]) {
            let mut order: Vec<usize> = (0..k).collect();
            order.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).unwrap());
            let mut sv = Vec::with_capacity(k);
            let mut swv = vec![0.0f64; n * k];
            for (slot, &src) in order.iter().enumerate() {
                sv.push(values[src]);
                swv[slot * n..(slot + 1) * n].copy_from_slice(&v[src * n..(src + 1) * n]);
            }
            values = sv;
            v = swv;
        }

        Ok((values, Matrix::from_vec(n, k, v)))
    }

    /// Recursive representation-tree descent over the eigenvalue index
    /// range `range` of representation `rep` (eigenvalues `lam_local`,
    /// relative to `rep`'s origin; `total_shift` maps back to T).
    #[allow(clippy::too_many_arguments)]
    fn descend(
        &self,
        rep: Arc<Rrr>,
        total_shift: f64,
        range: Range<usize>,
        lam_local: &[f64],
        norm: f64,
        depth: usize,
        jobs: &mut Vec<VecJob>,
        gs_groups: &mut usize,
    ) -> Result<(), MrrrError> {
        // A cluster with no relatively robust child becomes one fallback
        // group: twisted vectors at slightly spread eigenvalues, then
        // Gram–Schmidt (step 5 of `solve_block_range`).
        let fallback = |i: usize, j: usize, jobs: &mut Vec<VecJob>, gs_groups: &mut usize| {
            let group = *gs_groups;
            *gs_groups += 1;
            for (c, idx) in (i..=j).enumerate() {
                // Refine against THIS representation with the count-based
                // bracket: each index lands on its own side even when
                // T-bisection returned identical values for the pair.
                let refined = bisect_refine_ldl(&rep, idx, lam_local[idx], norm);
                jobs.push(VecJob {
                    rep: rep.clone(),
                    idx,
                    lam_local: refined,
                    total_shift,
                    gs_group: group,
                    twist_rank: c,
                });
            }
        };
        // Partition `range` into singletons and clusters by relative gap.
        let mut i = range.start;
        while i < range.end {
            let mut j = i;
            while j + 1 < range.end {
                let gap = lam_local[j + 1] - lam_local[j];
                let scale = lam_local[j + 1]
                    .abs()
                    .max(lam_local[j].abs())
                    .max(64.0 * f64::EPSILON * norm);
                if gap > RELTOL * scale {
                    break;
                }
                j += 1;
            }
            if j == i {
                // Singleton: refine to high relative accuracy against this
                // representation, then emit a job.
                let lam = bisect_refine_ldl(&rep, i, lam_local[i], norm);
                jobs.push(VecJob {
                    rep: rep.clone(),
                    idx: i,
                    lam_local: lam,
                    total_shift,
                    gs_group: usize::MAX,
                    twist_rank: 0,
                });
            } else {
                // Cluster i..=j.
                let width = lam_local[j] - lam_local[i];
                let tiny_cluster =
                    width <= 4.0 * f64::EPSILON * lam_local[j].abs().max(f64::EPSILON * norm);
                if depth >= MAX_DEPTH || tiny_cluster {
                    fallback(i, j, jobs, gs_groups);
                } else {
                    // Shift to just below (or, failing that, just above)
                    // the cluster, keeping the candidate with the least
                    // element growth (`dlarrf`-style shift selection).
                    let margin = width.max(1e-6 * lam_local[i].abs()).max(f64::MIN_POSITIVE);
                    let candidates = [
                        lam_local[i] - margin,
                        lam_local[i] - 4.0 * margin,
                        lam_local[j] + margin,
                        lam_local[i] - 16.0 * margin,
                    ];
                    let mut best: Option<(Rrr, f64, f64)> = None;
                    for &tau in &candidates {
                        let (child, growth) = crate::rrr::stqds_shift_checked(&rep, tau);
                        if best.as_ref().map(|(_, _, g)| growth < *g).unwrap_or(true) {
                            let acceptable = growth < 64.0 * (j - i + 1) as f64;
                            best = Some((child, tau, growth));
                            if acceptable {
                                break;
                            }
                        }
                    }
                    let (child, tau, growth) = best.expect("candidate list is non-empty");
                    if !growth.is_finite() || growth > 1e8 {
                        // No relatively robust child exists: treat the
                        // cluster as a numerical multiplet.
                        fallback(i, j, jobs, gs_groups);
                        i = j + 1;
                        continue;
                    }
                    let child = Arc::new(child);
                    let mut refined: Vec<f64> = lam_local.iter().map(|l| l - tau).collect();
                    #[allow(clippy::needless_range_loop)]
                    for idx in i..=j {
                        refined[idx] = bisect_refine_ldl(&child, idx, refined[idx], norm);
                    }
                    self.descend(
                        child,
                        total_shift + tau,
                        i..j + 1,
                        &refined,
                        norm,
                        depth + 1,
                        jobs,
                        gs_groups,
                    )?;
                }
            }
            i = j + 1;
        }
        Ok(())
    }
}

/// Modified Gram–Schmidt over the given (ascending) columns of `v` (ld = n).
fn gram_schmidt_columns(v: &mut [f64], n: usize, cols: &[usize]) {
    for (a, &ja) in cols.iter().enumerate() {
        for &jb in &cols[..a] {
            debug_assert!(jb < ja);
            let dot = {
                let cb = &v[jb * n..jb * n + n];
                let ca = &v[ja * n..ja * n + n];
                dcst_matrix::dot(ca, cb)
            };
            let (head, tail) = v.split_at_mut(ja * n);
            let ca = &mut tail[..n];
            let cb = &head[jb * n..jb * n + n];
            for (x, y) in ca.iter_mut().zip(cb) {
                *x -= dot * y;
            }
        }
        let nrm = dcst_matrix::nrm2(&v[ja * n..ja * n + n]);
        if nrm > 1e-6 {
            let inv = 1.0 / nrm;
            v[ja * n..ja * n + n].iter_mut().for_each(|x| *x *= inv);
        } else {
            // The column collapsed (numerically identical eigenvectors):
            // re-seed with a deterministic vector orthogonalized against
            // the group so the basis stays complete.
            for (i, x) in v[ja * n..ja * n + n].iter_mut().enumerate() {
                *x = ((i * 2654435761 + a * 40503) % 1000) as f64 / 1000.0 - 0.5;
            }
            for &jb in &cols[..a] {
                let dot = {
                    let cb = &v[jb * n..jb * n + n];
                    let ca = &v[ja * n..ja * n + n];
                    dcst_matrix::dot(ca, cb)
                };
                let (head, tail) = v.split_at_mut(ja * n);
                for (x, y) in tail[..n].iter_mut().zip(&head[jb * n..jb * n + n]) {
                    *x -= dot * y;
                }
            }
            let nrm = dcst_matrix::nrm2(&v[ja * n..ja * n + n]);
            let inv = 1.0 / nrm.max(f64::MIN_POSITIVE);
            v[ja * n..ja * n + n].iter_mut().for_each(|x| *x *= inv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcst_matrix::{orthogonality_error, residual_error};
    use dcst_tridiag::gen::MatrixType;

    fn check(t: &SymTridiag, lam: &[f64], v: &Matrix, tol: f64) {
        assert!(lam.windows(2).all(|w| w[0] <= w[1]), "sorted");
        let orth = orthogonality_error(v);
        assert!(orth < tol, "orthogonality {orth}");
        let res = residual_error(t.n(), |x, y| t.matvec(x, y), lam, v, t.max_norm());
        assert!(res < tol, "residual {res}");
    }

    fn solver() -> MrrrSolver<'static> {
        static RT: std::sync::OnceLock<Runtime> = std::sync::OnceLock::new();
        MrrrSolver::new(RT.get_or_init(|| Runtime::new(2)))
    }

    #[test]
    fn solves_toeplitz() {
        let n = 60;
        let t = SymTridiag::toeplitz121(n);
        let (lam, v) = solver().solve(&t).unwrap();
        check(&t, &lam, &v, 1e-11);
        for (k, &l) in lam.iter().enumerate() {
            let want = 2.0 - 2.0 * ((k + 1) as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos();
            assert!((l - want).abs() < 1e-11, "eig {k}: {l} vs {want}");
        }
    }

    #[test]
    fn well_separated_types() {
        for ty in [
            MatrixType::Type4,
            MatrixType::Type6,
            MatrixType::Type13,
            MatrixType::Type14,
        ] {
            let t = ty.generate(64, 5);
            let (lam, v) = solver().solve(&t).unwrap();
            check(&t, &lam, &v, 1e-10);
        }
    }

    #[test]
    fn clustered_types() {
        for ty in [MatrixType::Type1, MatrixType::Type2, MatrixType::Type7] {
            let t = ty.generate(48, 5);
            let (lam, v) = solver().solve(&t).unwrap();
            check(&t, &lam, &v, 1e-8);
        }
    }

    #[test]
    fn wilkinson_close_pairs() {
        let t = dcst_tridiag::gen::wilkinson(31);
        let (lam, v) = solver().solve(&t).unwrap();
        check(&t, &lam, &v, 1e-10);
    }

    #[test]
    fn glued_wilkinson_fallback_path() {
        let t = dcst_tridiag::gen::glued_wilkinson(9, 3, 1e-9);
        let (lam, v) = solver().solve(&t).unwrap();
        check(&t, &lam, &v, 1e-8);
    }

    #[test]
    fn trivial_sizes() {
        let (lam, v) = solver().solve(&SymTridiag::new(vec![3.0], vec![])).unwrap();
        assert_eq!(lam, vec![3.0]);
        assert_eq!(v.as_slice(), &[1.0]);
        let (lam, _) = solver().solve(&SymTridiag::new(vec![], vec![])).unwrap();
        assert!(lam.is_empty());
    }

    #[test]
    fn subset_window_matches_full_solve() {
        let t = MatrixType::Type6.generate(90, 31);
        let (full, vfull) = solver().solve(&t).unwrap();
        let (lo, hi) = (full[20] - 1e-9, full[49] + 1e-9);
        let (vals, vecs) = solver().solve_window(&t, lo, hi).unwrap();
        assert_eq!(vals.len(), 30);
        assert_eq!(vecs.cols(), 30);
        for (i, &l) in vals.iter().enumerate() {
            assert!((l - full[20 + i]).abs() < 1e-10 * t.max_norm(), "{l}");
            // Same vector up to sign.
            let dot: f64 = (0..t.n()).map(|r| vecs[(r, i)] * vfull[(r, 20 + i)]).sum();
            assert!(dot.abs() > 1.0 - 1e-8, "column {i} alignment {dot}");
        }
    }

    #[test]
    fn subset_range_by_index() {
        let n = 80;
        let t = SymTridiag::toeplitz121(n);
        let (vals, vecs) = solver().solve_range_exact(&t, 10, 19).unwrap();
        assert_eq!(vals.len(), 10);
        let h = std::f64::consts::PI / (n as f64 + 1.0);
        for (i, &l) in vals.iter().enumerate() {
            let want = 2.0 - 2.0 * ((11 + i) as f64 * h).cos();
            assert!((l - want).abs() < 1e-11, "{l} vs {want}");
        }
        // Orthonormal subset with small residuals.
        for a in 0..10 {
            for b in 0..=a {
                let g: f64 = (0..n).map(|r| vecs[(r, a)] * vecs[(r, b)]).sum();
                let want = if a == b { 1.0 } else { 0.0 };
                assert!((g - want).abs() < 1e-11);
            }
            let mut y = vec![0.0; n];
            let col: Vec<f64> = (0..n).map(|r| vecs[(r, a)]).collect();
            t.matvec(&col, &mut y);
            for r in 0..n {
                assert!((y[r] - vals[a] * col[r]).abs() < 1e-11);
            }
        }
    }

    #[test]
    fn subset_spanning_blocks() {
        // A reducible matrix: the window must collect pairs across blocks.
        let t = MatrixType::Type2.generate(60, 9);
        let (full, _) = solver().solve(&t).unwrap();
        let (vals, vecs) = solver().solve_window(&t, 0.5, 1.5).unwrap();
        let expect = full.iter().filter(|&&l| (0.5..1.5).contains(&l)).count();
        assert_eq!(vals.len(), expect);
        assert_eq!(vecs.cols(), expect);
        assert!(vals.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn empty_window() {
        let t = SymTridiag::toeplitz121(12);
        let (vals, vecs) = solver().solve_window(&t, 100.0, 200.0).unwrap();
        assert!(vals.is_empty());
        assert_eq!(vecs.cols(), 0);
    }

    #[test]
    fn rejects_non_finite() {
        let t = SymTridiag::new(vec![f64::NAN, 1.0], vec![0.5]);
        assert_eq!(solver().solve(&t).unwrap_err(), MrrrError::NonFinite);
    }
}
