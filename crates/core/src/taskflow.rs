//! The paper's solver: D&C as a sequential task flow.
//!
//! The master thread submits the complete task graph up front — one
//! `STEDC` task per leaf and, per merge node, the pipeline
//!
//! ```text
//! ComputeDeflation → {PermuteV, LAED4}ₚ → ReduceW → CompressW
//!                  → {StructBasis}ₚ → StructJoin → {UpdateVect}ₚ
//! ```
//!
//! with `p` ranging over `⌈n_m / nb⌉` panels. Panel tasks carry a GATHERV
//! access on the merge's node key (commuting writers), the join tasks an
//! INOUT access, and a parent's `ComputeDeflation` reads both child node
//! keys — every task has a *constant* number of declared dependencies,
//! the property the paper added GATHERV to QUARK for. Since the deflation
//! count `k` is only known at run time, every panel task is submitted
//! regardless and computes its actual (possibly empty) work range from the
//! shared deflation state — the paper's "matrix-independent DAG".
//!
//! The partition tree is the graph's one key family: every task declares
//! only node keys, and every shared buffer is bound to them alone. What is
//! not a node's work stays out of the graph — the matrix is scaled to unit
//! max-norm and torn at every cut when the graph is built, and
//! [`Graph::collect`] scales the eigenvalues back, as LAPACK's `dstedc`
//! does in its driver. Keys are names within the submission's [`Scope`],
//! which owns its dependency domain: every solve declares the same keys on
//! its own buffers, and solves sharing a runtime never order against each
//! other.
//!
//! One builder, [`TaskFlowDc::submit_graph`], states that graph for every
//! solve mode. The spine — `STEDC`, `ComputeDeflation`, `LAED4`, `ReduceW`,
//! `SortEigenvalues` — is submitted from one chain each. `LAED4` is one
//! body for every mode: it solves its panel's roots and writes them into
//! its slots of the merge's block of `d` (which nothing reads between
//! `ComputeDeflation` and `ReduceW`), folds their local-W factors into the
//! panel's partial product, which joins the merge's product in panel order
//! ([`LocalW`]), and keeps each root's `(μ, origin)` ([`PanelRoots`]) — the
//! generators of the merge's secular eigenvectors X, which no merge
//! stores. What a node carries between the spine's tasks is the graph's
//! *payload*:
//!
//! * the **vector payload** ([`Vectors`]; full and subset solves): the
//!   node's eigenvector block in the n×n `v`, addressed through the node's
//!   slot→column map ([`NodeCell::col`]) so that a deflated column is
//!   renamed, never moved, and keeps the rows it was last written over as
//!   its row support ([`NodeCell::support`]); and the n×n `ws` the `k`
//!   non-deflated columns are gathered into. It adds `PermuteV` to the
//!   first panel group, the whole second group and the final column sort,
//!   the one pass that applies the map, each column over its support `r`:
//!   `ws[r, t] ← v[r, col[idxq[t]]]`. The second group is the update
//!   `V = WS·X`: `CompressW` decides serially whether the merge may take
//!   the rank-structured path and lays out its tiles, the `StructBasis`
//!   panels compress those tiles and form their `Q·U` products on every
//!   worker, `StructJoin` keeps the plan if it pays, and each `UpdateVect`
//!   panel multiplies its columns — through the plan, or densely after
//!   assembling its own columns of X from their generators — reading WS
//!   in place;
//! * the **row payload** (values-only solves, `crate::values`): the node's
//!   two boundary rows, O(n) per node and nothing n×n. Its only own task,
//!   `RowUpdate`, takes each root's `(μ, origin)` from `LAED4`, so no root
//!   is solved twice.
//!
//! Data is shared through [`SharedData`] buffers held by one [`Graph`]
//! context that every task body reaches through a single `Arc`; each body
//! borrows only the disjoint range its declared access covers (see
//! `dcst_runtime::share` for the aliasing contract). A node's own state,
//! its [`NodeCell`], lives as long as the tasks that read it: each holds an
//! `Arc` of it, and the graph only the root's, so a merge's state is freed
//! when its parent's `ComputeDeflation` retires.
//!
//! The graph is the only statement of the algorithm: the comparator
//! drivers in `crate::seq` submit this same flow under a different
//! [`Discipline`].

use crate::merge::{
    apply_givens, build_z, column_map, deflate_block, finalize_d, join_children, join_supports,
    laed4_panel, permute_slots, subset_secular_span, update_vect_panel, with_scratch, MergeStat,
    PanelRoots, RowSpan,
};
use crate::structured::{plan_update, PlannedUpdate, StructuredUpdate};
use crate::tree::PartitionTree;
use crate::values::{carry_rows, row_update_panel, rows_z, solve_leaf_values, BoundaryRows};
use crate::{DcError, DcOptions, DcStats, Eigen, SolveMode, TridiagEigensolver};
use dcst_matrix::Matrix;
use dcst_qriter::{steqr_mut, ZBlock};
use dcst_runtime::{
    CancelHandle, DataKey, Runtime, RuntimeMetrics, Scope, SharedData, TaskBuilder, Trace,
};
use dcst_secular::{Deflation, SecularKernels};
use dcst_tridiag::SymTridiag;
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};

const OBJ_NODE: u64 = 1;

/// Tree node `id`: its block of every buffer, and its [`NodeCell`] — the
/// graph's only key family.
fn key_node(id: usize) -> DataKey {
    DataKey::new(OBJ_NODE, id as u64)
}

/// How a driver executes the one merge graph — the paper's framing of its
/// comparators (Figs. 6–7): same kernels, same flow, different scheduling.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Discipline {
    /// Out of order on the worker pool: the paper's solver.
    TaskFlow,
    /// Inline, in submission order, on the calling thread (LAPACK shape).
    Sequential,
    /// Inline, except that the GEMM panel groups fork onto a pool and join
    /// before the flow continues (sequential code over a threaded BLAS).
    ForkJoin,
    /// On the pool, with a barrier after the leaves and after every tree
    /// level (ScaLAPACK shape).
    LevelParallel,
}

impl Discipline {
    fn runtime(self, threads: usize) -> Runtime {
        match self {
            Discipline::Sequential => Runtime::inline(0),
            // The calling thread is one of the `threads` executors.
            Discipline::ForkJoin => Runtime::inline(threads.saturating_sub(1)),
            Discipline::LevelParallel | Discipline::TaskFlow => Runtime::new(threads),
        }
    }
}

/// Start a panel task: GATHERV on the node key (the paper's commuting
/// qualifier) normally, or a serializing INOUT in the ablation mode
/// without the runtime extension.
fn panel_task<'s>(
    scope: &'s Scope<'_>,
    name: &'static str,
    node: DataKey,
    use_gatherv: bool,
) -> TaskBuilder<'s> {
    if use_gatherv {
        scope.task(name).gatherv(node)
    } else {
        scope.task(name).read_write(node)
    }
}

/// The `nb`-wide panels `(p, s0, s1)` covering `0..len`.
fn panels(len: usize, nb: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    (0..len.div_ceil(nb)).map(move |p| (p, p * nb, ((p + 1) * nb).min(len)))
}

/// Panel `s0..s1` clipped to `span` — the part of a panel task's slots
/// that holds work, known only once the node's deflation count is.
fn clip(s0: usize, s1: usize, span: Range<usize>) -> Range<usize> {
    s0.max(span.start)..s1.min(span.end)
}

/// A tree node's diagonal block within the column-major n×n buffers.
#[derive(Clone, Copy)]
struct Block {
    n: usize,
    off: usize,
    nm: usize,
    n1: usize,
}

impl Block {
    /// Buffer range of block-local columns `c`, block rows `0..rows`.
    fn cols(self, c: Range<usize>, rows: usize) -> Range<usize> {
        (self.off + c.start) * self.n + self.off..(self.off + c.end - 1) * self.n + self.off + rows
    }
}

/// Per-node state, held by the tasks that read it: each slot is published
/// once by one spine task and read by tasks the runtime orders after it
/// (node-key epochs), so the interior mutability never races. The parent's
/// `ComputeDeflation` runs after every task of the node has retired (and
/// dropped its handle), so it holds the last one and frees the cell.
#[derive(Default)]
struct NodeCell {
    defl: OnceLock<Deflation>,
    zhat: OnceLock<Vec<f64>>,
    idxq: OnceLock<Vec<usize>>,
    /// Vector payload: the slot→column map, a permutation of `0..nm` —
    /// slot `s` (the index `d` and `idxq` use) lives in block-local column
    /// `col[s]` of V. Identity at a leaf; at a merge, `column_map` of the
    /// children's maps, published by `ComputeDeflation`.
    col: OnceLock<Vec<usize>>,
    /// Vector payload: what `PermuteV` gathers, per non-deflated slot
    /// `s < k` — the column the slot is read *from*, and that column's row
    /// support before this merge: the rows it copies, writing `+0.0` over
    /// the rest of the slot's rows.
    gather: OnceLock<Vec<(usize, RowSpan)>>,
    /// Vector payload: per slot, the block-local rows of column `col[s]`
    /// of V that hold the slot's vector — all of them at a leaf and for an
    /// updated slot, the renamed column's own for a deflated one. Outside
    /// them the column holds whatever V held before: no pass reads there.
    /// Published with `col`.
    support: OnceLock<Vec<RowSpan>>,
    /// The merge's local-W product, which every `LAED4` panel folds its
    /// partial into and `ReduceW` takes.
    local_w: Mutex<LocalW>,
    /// Per panel, the roots its `LAED4` solved: the generators of the
    /// panel's columns of X, which the vector payload's `CompressW` and
    /// `UpdateVect` and the row payload's `RowUpdate` read.
    panel_roots: Box<[OnceLock<PanelRoots>]>,
    /// Vector payload: the structured update while it is built — set by
    /// `CompressW` when the probe lets the merge try the structured path,
    /// its tiles filled by the `StructBasis` panels, taken by `StructJoin`.
    /// A reader clones the `Arc` out, so the lock is not held while the
    /// plan works.
    planned: Mutex<Option<Arc<PlannedUpdate>>>,
    /// Vector payload: rank-structured update plan for this merge; unset
    /// means the dense path (either the auto-switch chose it or `StructJoin`
    /// hasn't run — the node-key epochs guarantee the latter never races
    /// `UpdateVect`).
    structured: OnceLock<StructuredUpdate>,
    /// Vector payload: subset pruning plan for the root merge of a
    /// `SolveMode::Subset` solve, published by `ReduceW` — the secular
    /// storage-slot span that lands in the requested sorted positions.
    /// Unset everywhere else.
    subset_plan: OnceLock<Range<usize>>,
    /// Row payload: the node's boundary rows in slot order, taking the
    /// place of the vector payload's eigenvector block. Seeded by the leaf
    /// or by `ComputeDeflation` (empty until then), overwritten per secular
    /// panel by `RowUpdate`, read by the parent's `ComputeDeflation`.
    rows: Mutex<BoundaryRows>,
    /// Row payload: the `k` pre-update row entries `RowUpdate` multiplies,
    /// in secular order (the row analogue of the compressed workspace).
    w: OnceLock<BoundaryRows>,
}

impl NodeCell {
    /// The empty cell of a node with `npanels` secular panels.
    fn new(npanels: usize) -> Arc<Self> {
        Arc::new(NodeCell {
            local_w: Mutex::new(LocalW::new(npanels)),
            panel_roots: (0..npanels).map(|_| OnceLock::new()).collect(),
            ..NodeCell::default()
        })
    }

    fn defl(&self) -> &Deflation {
        self.defl.get().expect("deflation state not yet computed")
    }

    fn zhat(&self) -> &[f64] {
        self.zhat.get().expect("zhat not yet computed")
    }

    fn idxq(&self) -> &[usize] {
        self.idxq.get().expect("idxq not yet computed")
    }

    fn col(&self) -> &[usize] {
        self.col.get().expect("column map not yet computed")
    }

    fn support(&self) -> &[RowSpan] {
        self.support.get().expect("row supports not yet computed")
    }

    fn panel_roots(&self, p: usize) -> &PanelRoots {
        self.panel_roots[p].get().expect("roots not yet solved")
    }

    /// The secular slot span (`⊂ 0..k`) whose columns the second panel
    /// group produces: all of it, or on a subset-pruned root the span
    /// `ReduceW` planned.
    fn span(&self, k: usize) -> Range<usize> {
        self.subset_plan.get().cloned().unwrap_or(0..k)
    }
}

/// A merge's Gu–Eisenstat local-W product, folded from the `LAED4`
/// panels' partials in panel order as they finish: `((p₀·p₁)·p₂)·…`, the
/// order and so the bits of one `reduce_w` over all of them. A partial
/// that finishes ahead of a lower panel waits; the rest are folded and
/// dropped at once, so the merge holds about one k-length product instead
/// of one per panel, and how many it holds at a time no longer depends on
/// how the workers interleave the panels of two merges. The bound leans
/// on the pool starting a merge's panels in panel order: run backwards,
/// every panel but the lowest would wait with its partial.
#[derive(Default)]
struct LocalW {
    /// The product of panels `..next`; `None` until one has a partial.
    product: Option<Vec<f64>>,
    next: usize,
    /// Per panel from `next` on: `Some` once finished, holding its partial
    /// (`None` for a panel without roots).
    done: Vec<Option<Option<Vec<f64>>>>,
}

impl LocalW {
    fn new(npanels: usize) -> Self {
        LocalW {
            product: None,
            next: 0,
            done: vec![None; npanels],
        }
    }

    /// Panel `p` finished with `partial`: fold every finished panel from
    /// `next` on.
    fn fold(&mut self, p: usize, partial: Option<Vec<f64>>) {
        self.done[p] = Some(partial);
        while let Some(partial) = self.done.get_mut(self.next).and_then(Option::take) {
            match (&mut self.product, partial) {
                // 1·p₀ = p₀ exactly: the first partial is the product.
                (None, partial) => self.product = partial,
                (Some(acc), Some(partial)) => {
                    acc.iter_mut().zip(&partial).for_each(|(a, x)| *a *= x);
                }
                (Some(_), None) => {}
            }
            self.next += 1;
        }
    }

    /// The product of all panels; `ReduceW` runs after every `LAED4`.
    fn take(&mut self) -> Option<Vec<f64>> {
        debug_assert_eq!(self.next, self.done.len(), "a LAED4 panel never folded");
        self.product.take()
    }
}

/// Publish a spine task's result in its node's cell.
fn publish<T>(slot: &OnceLock<T>, value: T) {
    assert!(slot.set(value).is_ok(), "node state published twice");
}

/// The vector payload's n×n buffers: the eigenvector matrix under
/// construction, and the compressed workspace `PermuteV` gathers into —
/// which the final sort fills with the result — with the solver's spare
/// slot, which V goes back to once the graph is collected.
struct Vectors {
    v: SharedData<f64>,
    ws: SharedData<f64>,
    spare: Spare,
}

/// A solver's n×n V between its vector solves: `submit_graph` takes it,
/// [`Graph::collect`] puts it back, and dropping the solver frees it — the
/// caller-held workspace LAPACK's `dstedc` asks for, so a repeated solve
/// neither maps nor faults its working matrix afresh.
type Spare = Arc<Mutex<Option<Vec<f64>>>>;

/// Everything one submission's task bodies share, built once and reached
/// through a single `Arc` per task.
struct Graph {
    n: usize,
    /// Panel width: panel tasks cover `nb` columns (or secular roots) each.
    nb: usize,
    /// The factor `collect` scales the eigenvalues back by: `orgnrm`, when
    /// the graph works on T scaled by `1 / orgnrm` to unit max-norm.
    scale_back: Option<f64>,
    tree: PartitionTree,
    /// Signed β per internal node, of the scaled matrix.
    betas: Vec<f64>,
    /// The scaled diagonal, torn at every cut: the leaves' input, then
    /// each merge's eigenvalues in slot order, then the sorted result.
    d: SharedData<f64>,
    /// The scaled off-diagonal, which the leaves read.
    e: SharedData<f64>,
    /// `Some` = vector payload, `None` = row payload.
    vectors: Option<Vectors>,
    /// Requested sorted positions of a subset solve.
    subset: Option<(usize, usize)>,
    /// The root's cell, which `collect` and the final sort read: the one
    /// node whose state outlives the merges.
    root: Arc<NodeCell>,
    /// Per node, its merge's statistics, published by its `ReduceW`.
    stats: Vec<OnceLock<MergeStat>>,
}

impl Graph {
    fn block(&self, id: usize) -> Block {
        let node = &self.tree.nodes[id];
        Block {
            n: self.n,
            off: node.off,
            nm: node.n,
            n1: node.n1,
        }
    }

    /// The subset range where it prunes work: at the root merge of a subset
    /// solve, whose `ReduceW` plans the slot spans the second panel group is
    /// clamped to. `None` on every other node and in every other mode.
    fn pruned(&self, m: usize) -> Option<(usize, usize)> {
        self.subset.filter(|_| m == self.tree.root)
    }

    fn vp(&self) -> &Vectors {
        self.vectors.as_ref().expect("vector-payload task")
    }

    /// Row payload: whether merge `m`'s boundary rows have a reader — every
    /// merge's but the root's, which therefore carries no rows, no ẑ and no
    /// `RowUpdate` group. A size-dependent (not matrix-dependent)
    /// asymmetry, like the panel counts.
    fn rows_have_reader(&self, m: usize) -> bool {
        m != self.tree.root
    }

    /// Whether merge `m`'s roots have a reader past `LAED4` — X under the
    /// vector payload, the boundary rows under the row payload: then its
    /// `LAED4` keeps them, and `ReduceW` forms ẑ.
    fn carries_roots(&self, m: usize) -> bool {
        self.vectors.is_some() || self.rows_have_reader(m)
    }

    /// Vector payload, once every merge has run: the rows of workspace
    /// column `t` a `PermuteV` may have written. Merge `m` gathers into its
    /// block's rows of columns `off_m..off_m + k_m`, and the blocks holding
    /// column `t` are nested, so the span is the block of the highest such
    /// merge over `t` — empty when none gathered into it.
    fn ws_dirty_rows(&self, t: usize) -> Range<usize> {
        let mut m = self.tree.root;
        loop {
            let node = &self.tree.nodes[m];
            let Some((lc, rc)) = node.children else {
                return 0..0;
            };
            let k = self.stats[m].get().expect("merge not yet reduced").k;
            if t - node.off < k {
                return node.off..node.off + node.n;
            }
            m = if t < node.off + node.n1 { lc } else { rc };
        }
    }

    /// Unwrap a drained graph into its result. The workers' handles died
    /// with their tasks (garbage collected by `wait`), so the master's is
    /// the last one, and the graph's handle is the root cell's last.
    fn collect(self: Arc<Self>) -> (Eigen, DcStats) {
        let Ok(g) = Arc::try_unwrap(self) else {
            panic!("graph still shared after wait")
        };
        debug_assert_eq!(Arc::strong_count(&g.root), 1, "root cell shared after wait");
        let unwrap = |buf: SharedData<f64>| buf.try_unwrap().ok().expect("sole handle");
        let values = unwrap(g.d);
        let n = g.n;
        let merges = g.tree.merges_postorder();
        let stats = DcStats {
            merges: merges
                .iter()
                .filter_map(|&m| g.stats[m].get().copied())
                .collect(),
        };
        let (mut values, vectors) = match (g.vectors, g.subset) {
            (None, _) => (values, Matrix::zeros(n, 0)),
            // The sort left the result in ws; a single-leaf tree has no
            // sort, and its leaf wrote the result into V, which then
            // leaves with it.
            (Some(Vectors { v, ws, spare }), None) => {
                let out = if g.tree.nodes[g.tree.root].is_leaf() {
                    v
                } else {
                    *spare.lock().unwrap() = Some(unwrap(v));
                    ws
                };
                (values, Matrix::from_vec(n, n, unwrap(out)))
            }
            (Some(Vectors { v, ws, spare }), Some((il, iu))) => {
                drop(ws);
                let v = unwrap(v);
                // d and V are still in slot order (the sort tasks were
                // skipped); gather the requested values/columns directly,
                // each column over its support only.
                let slots = &g.root.idxq()[il..=iu];
                let (col, support) = (g.root.col(), g.root.support());
                let mut vsub = vec![0.0f64; n * slots.len()];
                let mut moved = 0;
                for (dst, &s) in vsub.chunks_exact_mut(n).zip(slots) {
                    let rows = support[s].rows();
                    dst[rows.clone()].copy_from_slice(&v[col[s] * n..][rows.clone()]);
                    moved += rows.len();
                }
                dcst_matrix::metrics::add("copy.elems", moved as u64);
                *spare.lock().unwrap() = Some(v);
                let vals = slots.iter().map(|&s| values[s]).collect();
                (vals, Matrix::from_vec(n, slots.len(), vsub))
            }
        };
        // Scale back, as `dstedc` does in its driver.
        if let Some(orgnrm) = g.scale_back {
            values.iter_mut().for_each(|x| *x *= orgnrm);
        }
        (Eigen { values, vectors }, stats)
    }
}

/// A solve whose task graph has been submitted to a (possibly shared)
/// [`Runtime`] but not yet waited on.
///
/// This is the submit/collect split behind the `dcst serve` daemon: the
/// graph lives in its own runtime [`Scope`], so many requests can be in
/// flight on one worker pool at once, each independently cancellable
/// ([`PendingSolve::cancel_handle`]) and each failing without poisoning
/// its neighbours. [`PendingSolve::wait`] blocks until this submission's
/// tasks drain, then assembles the result exactly as the one-shot
/// [`TaskFlowDc::solve_with_stats`] path does.
pub struct PendingSolve<'rt> {
    scope: Scope<'rt>,
    kind: PendingKind,
}

enum PendingKind {
    /// `n == 0`: nothing was submitted.
    Empty,
    /// The merge graph, under either payload.
    Graph(Arc<Graph>),
    /// Small-subset MRRR fallback, run as a single task so it occupies one
    /// worker slot and stays cancellable before it starts.
    Fallback(Arc<Mutex<Option<Result<Eigen, DcError>>>>),
}

impl<'rt> PendingSolve<'rt> {
    /// The scope this submission's tasks run in.
    pub fn scope(&self) -> &Scope<'rt> {
        &self.scope
    }

    /// A detached handle that cancels this solve from any thread: queued
    /// tasks are skipped and [`PendingSolve::wait`] reports
    /// [`DcError::Cancelled`] (unless a real failure already won the
    /// scope's first-failure slot).
    pub fn cancel_handle(&self) -> CancelHandle {
        self.scope.cancel_handle()
    }

    /// Cancel this solve in place.
    pub fn cancel(&self) {
        self.scope.cancel();
    }

    /// Block until the submission drains, then collect the result.
    pub fn wait(self) -> Result<(Eigen, DcStats), DcError> {
        self.scope.wait()?;
        match self.kind {
            PendingKind::Empty => Ok((
                Eigen {
                    values: vec![],
                    vectors: Matrix::zeros(0, 0),
                },
                DcStats::default(),
            )),
            PendingKind::Graph(g) => Ok(g.collect()),
            PendingKind::Fallback(slot) => {
                let res = slot
                    .lock()
                    .unwrap()
                    .take()
                    .expect("fallback task ran to completion");
                res.map(|eig| (eig, DcStats::default()))
            }
        }
    }
}

/// The task-flow Divide & Conquer eigensolver (the paper's contribution).
///
/// A solver keeps the n×n eigenvector matrix V of its last vector solve
/// for its next one of the same order, so a repeated solve does not map and
/// fault its working matrix afresh; dropping the solver frees it.
pub struct TaskFlowDc {
    opts: DcOptions,
    discipline: Discipline,
    spare: Spare,
}

impl TaskFlowDc {
    pub fn new(opts: DcOptions) -> Self {
        Self::with_discipline(opts, Discipline::TaskFlow)
    }

    pub(crate) fn with_discipline(opts: DcOptions, discipline: Discipline) -> Self {
        TaskFlowDc {
            opts,
            discipline,
            spare: Spare::default(),
        }
    }

    /// V for an n×n solve: the spare one when it has that order, else a
    /// fresh one. A reused V is not zero — every writer clears what it
    /// extends a column's support over — and a debug build fills it with
    /// NaN, so that a read of a row this solve did not write fails the
    /// gates. A spare of another order is freed before V is allocated.
    fn take_v(&self, n: usize) -> Vec<f64> {
        let spare = self.spare.lock().unwrap().take();
        match spare.filter(|v| v.len() == n * n) {
            Some(mut v) => {
                if cfg!(debug_assertions) {
                    v.fill(f64::NAN);
                }
                v
            }
            None => vec![0.0f64; n * n],
        }
    }

    /// Solve and return per-merge statistics.
    pub fn solve_with_stats(&self, t: &SymTridiag) -> Result<(Eigen, DcStats), DcError> {
        let rt = self.discipline.runtime(self.opts.threads);
        let pending = self.submit(t, rt.scope())?;
        pending.wait()
    }

    /// Solve with full observability: the execution trace — one record per
    /// task plus the dependency edges (Figures 2, 3 and 4) — and the
    /// pool's scheduler counters, taken from the same run so the metrics
    /// reconcile with the trace (executed-task count == record count).
    #[allow(clippy::type_complexity)]
    pub fn solve_observed(
        &self,
        t: &SymTridiag,
    ) -> Result<(Eigen, DcStats, Trace, RuntimeMetrics), DcError> {
        let rt = self.discipline.runtime(self.opts.threads);
        rt.enable_tracing();
        let (eig, stats) = self.submit(t, rt.scope())?.wait()?;
        let trace = rt.take_trace();
        let metrics = rt.runtime_metrics();
        Ok((eig, stats, trace, metrics))
    }

    /// Fused batch solve on a caller-provided (shared) runtime: submit
    /// every problem's graph, each in its own scope, before waiting on any
    /// of them, so panel tasks from different problems interleave in the
    /// pool's ready queue and the per-problem GEMM/LAED4 panels fill
    /// worker idle gaps left by their neighbours' spines.
    pub fn solve_batch_on(
        &self,
        ts: &[SymTridiag],
        rt: &Runtime,
    ) -> Vec<Result<(Eigen, DcStats), DcError>> {
        let pending: Vec<Result<PendingSolve<'_>, DcError>> =
            ts.iter().map(|t| self.submit(t, rt.scope())).collect();
        pending.into_iter().map(|p| p?.wait()).collect()
    }

    /// The merge submission order: one postorder sweep, or — under
    /// [`Discipline::LevelParallel`] — one group per tree level, each
    /// closed by [`level_barrier`](Self::level_barrier).
    fn merge_groups(&self, tree: &PartitionTree) -> Vec<Vec<usize>> {
        if self.discipline == Discipline::LevelParallel {
            tree.merge_levels()
        } else {
            vec![tree.merges_postorder()]
        }
    }

    /// Under [`Discipline::LevelParallel`], block until everything
    /// submitted so far has run; a failure ends the submission there.
    fn level_barrier(&self, scope: &Scope<'_>) -> Result<(), DcError> {
        if self.discipline == Discipline::LevelParallel {
            scope.wait()?;
        }
        Ok(())
    }

    /// Submit this solve's task graph into `scope` without waiting: the
    /// daemon path. The caller opens the scope — [`Runtime::scope`], or
    /// [`Runtime::priority_scope`] for the service's priority class — and
    /// the solve owns it from here, so any number of submissions coexist
    /// on one runtime, each independently cancellable and collecting its
    /// own failure.
    pub fn submit<'rt>(
        &self,
        t: &SymTridiag,
        scope: Scope<'rt>,
    ) -> Result<PendingSolve<'rt>, DcError> {
        let n = t.n();
        if t.has_non_finite() {
            return Err(DcError::NonFinite);
        }
        if n == 0 {
            return Ok(PendingSolve {
                scope,
                kind: PendingKind::Empty,
            });
        }
        // Mode dispatch: a small subset routes to MRRR; everything else is
        // the merge graph — row payload for values-only, vector payload
        // otherwise, with root-merge pruning for a large subset.
        let subset = match self.opts.mode {
            SolveMode::Full | SolveMode::ValuesOnly => None,
            SolveMode::Subset { il, iu } => {
                crate::validate_subset(il, iu, n)?;
                if crate::subset_uses_fallback(il, iu, n) {
                    // One task keeps the MRRR fallback inside the scope
                    // discipline (cancellable before it starts, counted by
                    // admission control) and on one worker: MRRR runs
                    // sequentially inside it.
                    let slot = Arc::new(Mutex::new(None));
                    let out = slot.clone();
                    let t = t.clone();
                    scope.task("SubsetFallback").spawn(move || {
                        *out.lock().unwrap() = Some(crate::subset_fallback(&t, il, iu));
                    });
                    return Ok(PendingSolve {
                        scope,
                        kind: PendingKind::Fallback(slot),
                    });
                }
                Some((il, iu))
            }
        };
        let g = self.submit_graph(t, &scope, subset)?;
        Ok(PendingSolve {
            scope,
            kind: PendingKind::Graph(g),
        })
    }

    /// Submit the merge graph: the spine every solve mode shares, stated
    /// once, with the payload's own tasks slotted in where they run.
    fn submit_graph(
        &self,
        t: &SymTridiag,
        scope: &Scope<'_>,
        subset: Option<(usize, usize)>,
    ) -> Result<Arc<Graph>, DcError> {
        let n = t.n();
        let use_gatherv = self.opts.use_gatherv;
        let orgnrm = t.max_norm();
        let scale = if orgnrm > 0.0 { 1.0 / orgnrm } else { 1.0 };
        let tree = PartitionTree::build(n, self.opts.min_part);
        // The matrix the graph works on: T at unit max-norm, torn at every
        // cut in postorder — the order of the two subtractions a one-row
        // leaf between two cuts takes.
        let mut d: Vec<f64> = t.d.iter().map(|x| x * scale).collect();
        let e: Vec<f64> = t.e.iter().map(|x| x * scale).collect();
        let mut betas = vec![0.0f64; tree.nodes.len()];
        for &m in &tree.merges_postorder() {
            let c = tree.nodes[m].off + tree.nodes[m].n1;
            betas[m] = e[c - 1];
            let b = betas[m].abs();
            d[c - 1] -= b;
            d[c] -= b;
        }
        // The row payload has no n×n state at all: per node it carries two
        // O(n) rows plus the deflation record, until its parent's
        // ComputeDeflation — the memory reduction that `peak_alloc_mb` on
        // the `values_t6_n4000` workload measures.
        let vectors = (self.opts.mode != SolveMode::ValuesOnly).then(|| Vectors {
            v: SharedData::new(self.take_v(n)),
            ws: SharedData::new(vec![0.0f64; n * n]),
            spare: self.spare.clone(),
        });
        let nb = self.opts.nb.max(1);
        // The builder's handles: a node's moves into its parent's
        // ComputeDeflation when that task is submitted — an inline
        // discipline runs it there and then, and frees the node with it.
        const PARENT_TAKES: &str = "a node's cell is taken by its parent, submitted after it";
        let mut cells: Vec<Option<Arc<NodeCell>>> = (tree.nodes.iter())
            .map(|node| Some(NodeCell::new(node.n.div_ceil(nb))))
            .collect();
        let g = Arc::new(Graph {
            n,
            nb,
            scale_back: (scale != 1.0).then_some(orgnrm),
            betas,
            d: SharedData::new(d),
            e: SharedData::new(e),
            vectors,
            subset,
            root: cells[tree.root].clone().expect("the root has no parent"),
            stats: tree.nodes.iter().map(|_| OnceLock::new()).collect(),
            tree,
        });
        let root = g.tree.root;

        // Bind each buffer to the keys tasks declare when touching it, so
        // a debug build's shadow tracker validates every borrow in the
        // graph below against the declared footprint. A release build
        // skips building the key lists.
        #[cfg(debug_assertions)]
        {
            let node_keys: Vec<DataKey> = (0..g.tree.nodes.len()).map(key_node).collect();
            g.d.bind_keys(&node_keys);
            g.e.bind_keys(&node_keys);
            if let Some(vp) = &g.vectors {
                vp.v.bind_keys(&node_keys);
                vp.ws.bind_keys(&node_keys);
            }
        }

        // ---- leaves: STEDC (QR iteration), accumulating the rotations
        // into the diagonal block of V or into the 2×nm boundary rows.
        for l in g.tree.leaves() {
            let (g, cell) = (g.clone(), cells[l].clone().expect(PARENT_TAKES));
            scope
                .task("STEDC")
                .high_priority()
                .write(key_node(l))
                .spawn_try(move || -> Result<(), DcError> {
                    let b @ Block { n, off, nm, .. } = g.block(l);
                    // SAFETY: exclusive block ranges per leaf, ordered before
                    // the parent merge by N(l).
                    let db = unsafe { g.d.range_mut(off..off + nm) };
                    // SAFETY: as for d.
                    let eb = unsafe { g.e.range_mut(off..off + nm - 1) };
                    match &g.vectors {
                        Some(vp) => {
                            // SAFETY: this leaf's diagonal block of V, as for d.
                            let vb = unsafe { vp.v.range_mut(b.cols(0..nm, nm)) };
                            // V may be reused: clear the block, then set
                            // its identity.
                            for j in 0..nm {
                                let column = &mut vb[j * n..j * n + nm];
                                column.fill(0.0);
                                column[j] = 1.0;
                            }
                            let z = ZBlock {
                                buf: vb,
                                ld: n,
                                nrows: nm,
                            };
                            steqr_mut(db, eb, Some(z))
                                .map_err(|err| DcError::Leaf(err.with_offset(off)))?;
                            publish(&cell.col, (0..nm).collect());
                            publish(&cell.support, vec![RowSpan::new(0..nm); nm]);
                        }
                        None => {
                            let rows = solve_leaf_values(db, eb, off)?;
                            *cell.rows.lock().unwrap() = rows;
                        }
                    }
                    publish(&cell.idxq, (0..nm).collect());
                    Ok(())
                });
        }

        self.level_barrier(scope)?;

        // ---- merges, bottom-up.
        for level in self.merge_groups(&g.tree) {
            for &m in &level {
                let Block { off, nm, .. } = g.block(m);
                let (lc, rc) = g.tree.nodes[m].children.unwrap();
                let cell = cells[m].clone().expect(PARENT_TAKES);

                // ComputeDeflation: the only task reading the children's
                // state, and the last to hold it. The merge spine
                // (deflation → … → ReduceW) gates every panel task of this
                // node and of all ancestors: schedule it through the
                // runtime's priority lane.
                {
                    let (g, cell) = (g.clone(), cell.clone());
                    let mut take = |id: usize| cells[id].take().expect(PARENT_TAKES);
                    let (left, right) = (take(lc), take(rc));
                    scope
                        .task("ComputeDeflation")
                        .high_priority()
                        .read(key_node(lc))
                        .read(key_node(rc))
                        .read_write(key_node(m))
                        .spawn_try(move || -> Result<(), DcError> {
                            let b @ Block { n, off, nm, n1 } = g.block(m);
                            // Every task of the children has retired and
                            // dropped its handle: theirs go with this one.
                            debug_assert_eq!([&left, &right].map(Arc::strong_count), [1, 1]);
                            // SAFETY: epoch-exclusive access to the block.
                            let db = unsafe { g.d.range_mut(off..off + nm) };
                            let deflate = |z: &[f64]| {
                                deflate_block(db, z, g.betas[m], n1, off, left.idxq(), right.idxq())
                            };
                            let defl = match &g.vectors {
                                Some(vp) => {
                                    // SAFETY: epoch-exclusive access to the block.
                                    let vb = unsafe { vp.v.range_mut(b.cols(0..nm, nm)) };
                                    let src = join_children(left.col(), right.col());
                                    let mut support =
                                        join_supports(left.support(), right.support());
                                    let defl = deflate(&build_z(vb, n, n1, &src, &support))?;
                                    apply_givens(vb, n, &src, &mut support, &defl.givens);
                                    let (from, col, merged) =
                                        column_map(&src, &support, &defl.perm, defl.k);
                                    let gather = from.iter().zip(&defl.perm).take(defl.k);
                                    let gather = gather.map(|(&c, &p)| (c, support[p])).collect();
                                    publish(&cell.gather, gather);
                                    publish(&cell.col, col);
                                    publish(&cell.support, merged);
                                    defl
                                }
                                None => {
                                    let rows_l = left.rows.lock().unwrap();
                                    let rows_r = right.rows.lock().unwrap();
                                    let defl = deflate(&rows_z(&rows_l, &rows_r))?;
                                    if g.rows_have_reader(m) {
                                        // Deflated slots pass their row
                                        // entries through unchanged; RowUpdate
                                        // overwrites the secular ones.
                                        let (rows, w) = carry_rows(&defl, &rows_l, &rows_r);
                                        *cell.rows.lock().unwrap() = rows;
                                        publish(&cell.w, w);
                                    }
                                    defl
                                }
                            };
                            publish(&cell.defl, defl);
                            Ok(())
                        });
                }

                // First panel group: secular roots and the local-W partials
                // (plus, under the vector payload, the column permutation).
                for (p, s0, s1) in panels(nm, g.nb) {
                    if g.vectors.is_some() {
                        let (g, cell) = (g.clone(), cell.clone());
                        panel_task(scope, "PermuteV", key_node(m), use_gatherv).spawn(move || {
                            let b @ Block { n, nm, .. } = g.block(m);
                            let vp = g.vp();
                            let defl = cell.defl();
                            let j = clip(s0, s1, 0..defl.k);
                            if j.is_empty() {
                                return;
                            }
                            // SAFETY: reads the whole block (shared, no writer
                            // in this phase), writes only columns j of ws.
                            let vb = unsafe { vp.v.range(b.cols(0..nm, nm)) };
                            // SAFETY: columns j of ws belong to this panel alone.
                            let wcols = unsafe { vp.ws.range_mut(b.cols(j.clone(), nm)) };
                            let gather = cell.gather.get().expect("column map not yet computed");
                            permute_slots(vb, wcols, n, defl, gather, j);
                        });
                    }
                    let (g, cell) = (g.clone(), cell.clone());
                    panel_task(scope, "LAED4", key_node(m), use_gatherv).spawn_try(
                        move || -> Result<(), DcError> {
                            let defl = cell.defl();
                            let j = clip(s0, s1, 0..defl.k);
                            if j.is_empty() {
                                cell.local_w.lock().unwrap().fold(p, None);
                                return Ok(());
                            }
                            // SAFETY: the panel's own slots of the d block; no
                            // task reads d between ComputeDeflation, which
                            // copied what it needs into `defl`, and ReduceW.
                            let lo = unsafe { g.d.range_mut(off + j.start..off + j.end) };
                            let kept = laed4_panel(defl, j, lo, off, g.carries_roots(m))?;
                            let partial = kept.map(|(partial, roots)| {
                                publish(&cell.panel_roots[p], roots);
                                partial
                            });
                            cell.local_w.lock().unwrap().fold(p, partial);
                            Ok(())
                        },
                    );
                }

                // ReduceW: join, build ẑ, finalize the block diagonal.
                {
                    let (g, cell) = (g.clone(), cell.clone());
                    scope
                        .task("ReduceW")
                        .high_priority()
                        .read_write(key_node(m))
                        .spawn(move || {
                            let Block { off, nm, n1, .. } = g.block(m);
                            let defl = cell.defl();
                            let k = defl.k;
                            // ẑ feeds the second panel group: the row
                            // payload's root has none.
                            if k > 0 && g.carries_roots(m) {
                                let product = cell.local_w.lock().unwrap().take();
                                let parts = Vec::from_iter(product);
                                publish(&cell.zhat, dcst_secular::reduce_w(&defl.w, &parts));
                            }
                            // SAFETY: epoch-exclusive d block.
                            let db = unsafe { g.d.range_mut(off..off + nm) };
                            let idxq = finalize_d(defl, db);
                            if let Some((il, iu)) = g.pruned(m) {
                                publish(&cell.subset_plan, subset_secular_span(&idxq[il..=iu], k));
                            }
                            publish(&cell.idxq, idxq);
                            publish(&g.stats[m], MergeStat { n: nm, n1, k });
                        });
                }

                // Second panel group: what the payload does with the secular
                // eigenvectors. The root's boundary rows have no reader, so
                // its whole RowUpdate group is elided.
                if g.vectors.is_some() {
                    self.submit_vector_update(&g, &cell, scope, m);
                } else if g.rows_have_reader(m) {
                    self.submit_row_update(&g, &cell, scope, m);
                }
            }
            self.level_barrier(scope)?;
        }

        // ---- final sort on the root. A subset solve gathers
        // its k values and columns on the main thread after the graph
        // drains — no sort at all.
        if !g.tree.nodes[root].is_leaf() && subset.is_none() {
            {
                let g = g.clone();
                scope
                    .task("SortEigenvalues")
                    .high_priority()
                    .read_write(key_node(root))
                    .spawn(move || {
                        let idxq = g.root.idxq();
                        // SAFETY: epoch-exclusive d.
                        let ds = unsafe { g.d.slice_mut() };
                        let tmp: Vec<f64> = idxq.iter().map(|&s| ds[s]).collect();
                        ds.copy_from_slice(&tmp);
                    });
            }
            if g.vectors.is_some() {
                self.submit_vector_sort(&g, scope);
            }
        }
        Ok(g)
    }

    /// Vector payload, second panel group of merge `m`: the eigenvector
    /// update `WS·X` (dense or rank-structured, with X rebuilt from its
    /// generators) scattered to the columns the gather vacated. The
    /// deflated columns stay where they are.
    fn submit_vector_update(
        &self,
        g: &Arc<Graph>,
        cell: &Arc<NodeCell>,
        scope: &Scope<'_>,
        m: usize,
    ) {
        let use_gatherv = self.opts.use_gatherv;
        let npanels = g.block(m).nm.div_ceil(g.nb);

        // CompressW: once ReduceW has formed ẑ, the serial part of the
        // structured plan (crate::structured): X's column norms, the rank
        // probe, the tile layout, and Q placed — read in place, or gathered
        // when the slots are not consecutive. The INOUT access on the node
        // key orders it after ReduceW and before the StructBasis group; its
        // borrow (the ws block, read) is covered by the node key the buffer
        // is bound to, so the shadow tracker validates the footprint.
        {
            let (g, cell) = (g.clone(), cell.clone());
            scope
                .task("CompressW")
                .high_priority()
                .read_write(key_node(m))
                .spawn(move || {
                    if g.pruned(m).is_some() {
                        // Subset-pruned root: the panels update only a column
                        // slice, for which the dense GEMMs are already
                        // minimal — rank-probing the full secular matrix
                        // would cost more than it saves.
                        return;
                    }
                    let b @ Block { n, nm, n1, .. } = g.block(m);
                    let defl = cell.defl();
                    let k = defl.k;
                    if k == 0 {
                        return;
                    }
                    // SAFETY: node-key epoch excludes every writer of the
                    // block; ws is read-shared here.
                    let wb = unsafe { g.vp().ws.range(b.cols(0..k, nm)) };
                    let roots =
                        PanelRoots::concat(cell.panel_roots.iter().filter_map(OnceLock::get));
                    if let Some(plan) = plan_update(wb, roots, cell.zhat(), n, nm, n1, defl) {
                        *cell.planned.lock().unwrap() = Some(Arc::new(plan));
                    }
                });
        }
        // StructBasis: the tiles, compressed and multiplied into their Q·U
        // basis products at once, fanned out round-robin over a fixed
        // panel-count of commuting tasks (the DAG stays matrix-independent;
        // each is a no-op on dense merges). Each reads the ws block shared
        // under the node key. A GEMM group: forked under the fork/join
        // discipline.
        for p in 0..npanels {
            let (g, cell) = (g.clone(), cell.clone());
            panel_task(scope, "StructBasis", key_node(m), use_gatherv)
                .fork()
                .spawn(move || {
                    let plan = cell.planned.lock().unwrap().clone();
                    if let Some(plan) = plan {
                        let b @ Block { nm, .. } = g.block(m);
                        let defl = cell.defl();
                        // SAFETY: the ws block is read-shared in this phase.
                        let wb = unsafe { g.vp().ws.range(b.cols(0..defl.k, nm)) };
                        plan.compress_chunk(wb, defl, cell.zhat(), p, npanels);
                    }
                });
        }
        // StructJoin: every tile is in place; keep the plan if it pays
        // (always under ForceStructured), else the merge goes dense.
        {
            let cell = cell.clone();
            scope
                .task("StructJoin")
                .high_priority()
                .read_write(key_node(m))
                .spawn(move || {
                    let Some(plan) = cell.planned.lock().unwrap().take() else {
                        return;
                    };
                    let plan = Arc::into_inner(plan).expect("a StructBasis task kept its plan");
                    if let Some(su) = plan.finish() {
                        publish(&cell.structured, su);
                    }
                });
        }

        // UpdateVect (dense: this panel's columns of X assembled from their
        // generators, then both structured GEMMs; structured: the
        // compressed multiply for its columns).
        for (p, s0, s1) in panels(g.block(m).nm, g.nb) {
            let (g, cell) = (g.clone(), cell.clone());
            panel_task(scope, "UpdateVect", key_node(m), use_gatherv)
                .fork()
                .spawn_try(move || -> Result<(), DcError> {
                    let b @ Block { n, off, nm, n1 } = g.block(m);
                    let vp = g.vp();
                    let defl = cell.defl();
                    let k = defl.k;
                    let j = clip(s0, s1, cell.span(k));
                    if j.is_empty() {
                        return Ok(());
                    }
                    // SAFETY: the ws block is read-shared in this phase.
                    let wb = unsafe { vp.ws.range(b.cols(0..k, nm)) };
                    // One scratch buffer (a nested borrow would panic): the
                    // panel's k × |j| block of X, then its nm × |j| product.
                    with_scratch((k + nm) * j.len(), |buf| {
                        let (xc, out) = buf.split_at_mut(k * j.len());
                        if let Some(su) = cell.structured.get() {
                            // Relabel this record so traces show the
                            // structured and dense variants distinctly.
                            dcst_runtime::set_task_trace_name("UpdateVectStructured");
                            su.update_panel(wb, out, off, nm, j.clone())?;
                        } else {
                            // The panel's roots start at column s0.
                            let roots = cell.panel_roots(p);
                            let x = roots.generators(defl, cell.zhat(), j.start - s0..j.end - s0);
                            x.assemble(&SecularKernels::dispatched(), &defl.sec_to_slot, xc, k);
                            update_vect_panel(wb, n, xc, k, out, off, nm, n1, defl, j.clone())?;
                        }
                        for (&c, vec) in cell.col()[j].iter().zip(out.chunks_exact(nm)) {
                            // SAFETY: column col[s] belongs to slot s alone,
                            // hence to this panel.
                            unsafe { vp.v.range_mut(b.cols(c..c + 1, nm)) }.copy_from_slice(vec);
                        }
                        dcst_matrix::metrics::add("copy.elems", out.len() as u64);
                        Ok(())
                    })
                });
        }
    }

    /// Row payload, second panel group of merge `m`: update the merged
    /// boundary rows from the roots `LAED4` solved (pass 2 of the scheme in
    /// `crate::values`).
    fn submit_row_update(&self, g: &Arc<Graph>, cell: &Arc<NodeCell>, scope: &Scope<'_>, m: usize) {
        let Block { off, nm, .. } = g.block(m);
        for (p, s0, s1) in panels(nm, g.nb) {
            let cell = cell.clone();
            panel_task(scope, "RowUpdate", key_node(m), self.opts.use_gatherv).spawn_try(
                move || -> Result<(), DcError> {
                    let defl = cell.defl();
                    let j = clip(s0, s1, 0..defl.k);
                    if j.is_empty() {
                        return Ok(());
                    }
                    // No shared-buffer borrows: the kernel rebuilds each
                    // root's pole distances from the node's own deflation
                    // state and the (μ, origin) its LAED4 panel left here.
                    let w = cell.w.get().expect("secular-order rows not yet computed");
                    let roots = cell.panel_roots(p);
                    let (f, l) = row_update_panel(defl, w, cell.zhat(), roots, off)?;
                    let mut rows = cell.rows.lock().unwrap();
                    rows.first[j.clone()].copy_from_slice(&f);
                    rows.last[j].copy_from_slice(&l);
                    Ok(())
                },
            );
        }
    }

    /// Vector payload, after the root's `SortEigenvalues`: the one pass
    /// that applies the root's column map and sorting permutation, V's
    /// columns into ascending order in the workspace — the result. A column
    /// moves over its row support only; the workspace is zero elsewhere
    /// once the rows a `PermuteV` dirtied are cleared.
    fn submit_vector_sort(&self, g: &Arc<Graph>, scope: &Scope<'_>) {
        let (n, root) = (g.n, g.tree.root);
        for (_, r0, r1) in panels(n, g.nb) {
            let g = g.clone();
            panel_task(scope, "SortCopy", key_node(root), self.opts.use_gatherv).spawn(move || {
                let (cell, vp) = (&g.root, g.vp());
                let (idxq, col, support) = (cell.idxq(), cell.col(), cell.support());
                // SAFETY: v fully read-shared.
                let vs = unsafe { vp.v.slice() };
                // SAFETY: ws target columns exclusive per panel.
                let wt = unsafe { vp.ws.range_mut(r0 * n..r1 * n) };
                let mut moved = 0;
                for (t, dst) in (r0..r1).zip(wt.chunks_exact_mut(n)) {
                    // The result column is V's over its support and zero
                    // elsewhere — which ws already is, except where a
                    // PermuteV gathered.
                    let s = idxq[t];
                    let rows = support[s].rows();
                    let dirty = g.ws_dirty_rows(t);
                    let clamp = |r: usize| r.clamp(dirty.start, dirty.end);
                    dst[dirty.start..clamp(rows.start)].fill(0.0);
                    dst[clamp(rows.end)..dirty.end].fill(0.0);
                    dst[rows.clone()].copy_from_slice(&vs[col[s] * n..][rows.clone()]);
                    moved += rows.len();
                }
                dcst_matrix::metrics::add("copy.elems", moved as u64);
            });
        }
    }
}

impl TridiagEigensolver for TaskFlowDc {
    fn solve(&self, t: &SymTridiag) -> Result<Eigen, DcError> {
        self.solve_with_stats(t).map(|(e, _)| e)
    }

    fn name(&self) -> &'static str {
        "dc-taskflow"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcst_matrix::{orthogonality_error, residual_error};
    use dcst_tridiag::gen::MatrixType;

    fn opts(min_part: usize, nb: usize, threads: usize) -> DcOptions {
        DcOptions {
            min_part,
            nb,
            threads,
            use_gatherv: true,
            mode: SolveMode::Full,
        }
    }

    fn check(t: &SymTridiag, eig: &Eigen, tol: f64) {
        assert!(eig.values.windows(2).all(|w| w[0] <= w[1]), "values sorted");
        let orth = orthogonality_error(&eig.vectors);
        assert!(orth < tol, "orthogonality {orth}");
        let res = residual_error(
            t.n(),
            |x, y| t.matvec(x, y),
            &eig.values,
            &eig.vectors,
            t.max_norm(),
        );
        assert!(res < tol, "residual {res}");
    }

    #[test]
    fn matches_sequential_driver() {
        let t = MatrixType::Type6.generate(100, 21);
        let seq = crate::SequentialDc::new(opts(16, 8, 1)).solve(&t).unwrap();
        let tf = TaskFlowDc::new(opts(16, 8, 2)).solve(&t).unwrap();
        for (a, b) in seq.values.iter().zip(&tf.values) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
        check(&t, &tf, 1e-13);
    }

    #[test]
    fn all_types_through_taskflow() {
        for ty in MatrixType::ALL {
            let t = ty.generate(72, 7);
            let eig = TaskFlowDc::new(opts(12, 10, 2)).solve(&t).unwrap();
            check(&t, &eig, 1e-12);
        }
    }

    #[test]
    fn panel_width_does_not_change_results() {
        let t = MatrixType::Type4.generate(80, 3);
        let a = TaskFlowDc::new(opts(16, 4, 2)).solve(&t).unwrap();
        let b = TaskFlowDc::new(opts(16, 80, 2)).solve(&t).unwrap();
        for (x, y) in a.values.iter().zip(&b.values) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn single_leaf_matrix() {
        let t = SymTridiag::toeplitz121(20);
        let eig = TaskFlowDc::new(opts(32, 8, 2)).solve(&t).unwrap();
        check(&t, &eig, 1e-13);
    }

    #[test]
    fn subset_fallback_is_one_task() {
        let n = 128;
        let mut o = opts(16, 8, 2);
        o.mode = SolveMode::Subset {
            il: 0,
            iu: n / 32 - 1,
        };
        let (eig, _, trace, _) = TaskFlowDc::new(o)
            .solve_observed(&MatrixType::Type4.generate(n, 5))
            .unwrap();
        assert_eq!(eig.values.len(), n / 32);
        let names: Vec<&str> = trace.records.iter().map(|r| r.name).collect();
        assert_eq!(names, ["SubsetFallback"]);
    }

    /// The three graph-building modes at the pinned shape: full, values-only
    /// and a subset wide enough (16·k > n) to run the pruned-root graph.
    const DAG_MODES: [SolveMode; 3] = [
        SolveMode::Full,
        SolveMode::ValuesOnly,
        SolveMode::Subset { il: 10, iu: 40 },
    ];

    fn dag_shape(ty: MatrixType, mode: SolveMode) -> (usize, usize) {
        let mut o = opts(16, 8, 2);
        o.mode = mode;
        let (_, _, trace, _) = TaskFlowDc::new(o)
            .solve_observed(&ty.generate(64, 3))
            .unwrap();
        (trace.records.len(), trace.edges.len())
    }

    #[test]
    fn dag_is_matrix_independent() {
        // Same size, very different deflation behaviour → identical DAG,
        // whichever payload the graph carries.
        for mode in DAG_MODES {
            assert_eq!(
                dag_shape(MatrixType::Type2, mode),
                dag_shape(MatrixType::Type4, mode),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn dag_shape_is_pinned() {
        // (nodes, edges) at n = 64, min_part = 16, nb = 8 — two 4-panel
        // merges under one 8-panel root. An edit that changes the graph's
        // shape has to change these. A vector merge is ComputeDeflation,
        // PermuteV and LAED4 panels, ReduceW, CompressW, StructBasis panels,
        // StructJoin and UpdateVect panels; a row merge has LAED4 panels and,
        // below the root, RowUpdate panels.
        let pinned = [(89, 143), (35, 53), (80, 127)];
        for (mode, want) in DAG_MODES.into_iter().zip(pinned) {
            assert_eq!(dag_shape(MatrixType::Type4, mode), want, "{mode:?}");
        }
    }

    #[test]
    fn gatherv_off_matches_gatherv_on() {
        // The ablation mode (serializing panel tasks) must be numerically
        // identical — only slower.
        let t = MatrixType::Type3.generate(80, 13);
        let mut o = opts(16, 8, 2);
        let a = TaskFlowDc::new(o).solve(&t).unwrap();
        o.use_gatherv = false;
        let b = TaskFlowDc::new(o).solve(&t).unwrap();
        for (x, y) in a.values.iter().zip(&b.values) {
            assert!((x - y).abs() < 1e-12);
        }
        check(&t, &b, 1e-12);
    }

    #[test]
    fn a_reused_v_is_read_only_inside_the_row_supports() {
        // A subset solve has no sort, so V survives the drain as the merges
        // left it. One solver starts from a fresh V, the other from a spare
        // one full of NaN: over the root's support of every requested slot,
        // both V's hold the same bits and no NaN — what the subset gather
        // reads — and outside it the fresh one is +0.0. Both solves run
        // under one update policy: the knob is process-global.
        let _policy = crate::structured::POLICY_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let (n, il, iu) = (300, 75, 150);
        let mut o = opts(16, 8, 2);
        o.mode = SolveMode::Subset { il, iu };
        let rt = Runtime::new(2);
        for ty in MatrixType::ALL {
            let t = ty.generate(n, 3);
            let fresh = TaskFlowDc::new(o);
            let reused = TaskFlowDc::new(o);
            *reused.spare.lock().unwrap() = Some(vec![f64::NAN; n * n]);
            let [a, b] = [&fresh, &reused].map(|solver| {
                let pending = solver.submit(&t, rt.scope()).unwrap();
                pending.scope.wait().unwrap();
                let PendingKind::Graph(g) = pending.kind else {
                    panic!("{ty:?}: a wide subset runs the merge graph")
                };
                g
            });
            let (col, support) = (a.root.col(), a.root.support());
            assert_eq!(col, b.root.col(), "{ty:?}");
            assert_eq!(support, b.root.support(), "{ty:?}");
            // SAFETY: both graphs have drained; no task borrows V.
            let (va, vb) = unsafe { (a.vp().v.slice(), b.vp().v.slice()) };
            let slots = &a.root.idxq()[il..=iu];
            let mut poisoned = 0;
            for &s in slots {
                let (rows, column) = (support[s].rows(), col[s] * n..(col[s] + 1) * n);
                for (i, (x, y)) in va[column.clone()].iter().zip(&vb[column]).enumerate() {
                    let at = || format!("{ty:?}: slot {s}, row {i}");
                    if rows.contains(&i) {
                        assert!(x.to_bits() == y.to_bits() && !y.is_nan(), "{}", at());
                    } else {
                        assert_eq!(x.to_bits(), 0, "{}", at());
                        poisoned += usize::from(y.is_nan());
                    }
                }
            }
            if ty == MatrixType::Type2 {
                // Fully deflated: no column ever left its leaf's rows, and
                // no pass wrote outside them.
                assert!(support.iter().all(|span| span.rows().len() <= 16));
                let inside: usize = slots.iter().map(|&s| support[s].rows().len()).sum();
                assert_eq!(poisoned, n * slots.len() - inside);
            }
        }
    }

    #[test]
    fn collect_hands_v_back_to_the_solver() {
        let spare = |solver: &TaskFlowDc| solver.spare.lock().unwrap().as_ref().map(Vec::len);
        let t = MatrixType::Type4.generate(100, 3);
        let mut o = opts(16, 8, 2);
        // Full and subset solves hand V back; values-only has none.
        for (mode, kept) in [
            (SolveMode::Full, Some(100 * 100)),
            (SolveMode::Subset { il: 10, iu: 60 }, Some(100 * 100)),
            (SolveMode::ValuesOnly, None),
        ] {
            o.mode = mode;
            let solver = TaskFlowDc::new(o);
            solver.solve(&t).unwrap();
            assert_eq!(spare(&solver), kept, "{mode:?}");
        }
        // A V of another order is freed, and the new one kept.
        o.mode = SolveMode::Full;
        let solver = TaskFlowDc::new(o);
        *solver.spare.lock().unwrap() = Some(vec![0.0; 7]);
        solver.solve(&t).unwrap();
        assert_eq!(spare(&solver), Some(100 * 100));
        // A single-leaf tree's V is the result, so it leaves with it.
        let small = SymTridiag::toeplitz121(20);
        let solver = TaskFlowDc::new(opts(32, 8, 2));
        *solver.spare.lock().unwrap() = Some(vec![0.0; 20 * 20]);
        let eig = solver.solve(&small).unwrap();
        check(&small, &eig, 1e-13);
        assert_eq!(spare(&solver), None);
    }

    #[test]
    fn local_w_is_one_reduce_w_whatever_order_the_panels_finish() {
        // Six panels, the third without roots; the first partial is
        // negative so the product under the square root is positive.
        let k = 9;
        let partials: Vec<Option<Vec<f64>>> = (0..6)
            .map(|p| {
                let sign = if p == 0 { -1.0 } else { 1.0 };
                let f = |i: usize| sign * (1.0 + 0.3 * ((p * k + i) as f64).sin());
                (p != 2).then(|| (0..k).map(f).collect())
            })
            .collect();
        let w: Vec<f64> = (0..k)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let all: Vec<Vec<f64>> = partials.iter().flatten().cloned().collect();
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let expect = bits(&dcst_secular::reduce_w(&w, &all));
        // The inputs tell the orders apart: folded last panel first, the
        // same partials round to other bits.
        let reversed: Vec<Vec<f64>> = all.iter().rev().cloned().collect();
        assert_ne!(bits(&dcst_secular::reduce_w(&w, &reversed)), expect);
        for order in [[0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0], [3, 0, 5, 1, 4, 2]] {
            let mut local_w = LocalW::new(6);
            for p in order {
                local_w.fold(p, partials[p].clone());
            }
            let parts = Vec::from_iter(local_w.take());
            assert_eq!(parts.len(), 1, "order {order:?}");
            assert_eq!(bits(&dcst_secular::reduce_w(&w, &parts)), expect);
        }
        // In order, nothing waits: each partial is folded on arrival.
        let mut local_w = LocalW::new(6);
        for (p, partial) in partials.iter().enumerate() {
            local_w.fold(p, partial.clone());
            assert!(local_w.done.iter().all(Option::is_none));
        }
    }

    #[test]
    fn only_the_root_keeps_its_plan_and_roots() {
        // Type 4 at n = 1111 (seed 7) is the smallest size at which the
        // auto policy structures three merges — the root and both its
        // children. Every merge keeps its roots, X's generators, and its
        // plan until its parent's ComputeDeflation, which holds the last
        // handle to the merge's cell (it asserts so). After the drain no
        // task is left, and the graph holds the only handle to the root's
        // cell: the one node state still alive, with its plan and roots.
        let _policy = crate::structured::POLICY_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let policy = dcst_matrix::update_policy();
        dcst_matrix::set_update_policy(dcst_matrix::UpdatePolicy::Auto);
        let before = dcst_matrix::metrics::snapshot();
        let rt = Runtime::new(2);
        let t = MatrixType::Type4.generate(1111, 7);
        let pending = TaskFlowDc::new(opts(32, 64, 2))
            .submit(&t, rt.scope())
            .unwrap();
        pending.scope.wait().unwrap();
        let delta = dcst_matrix::metrics::snapshot().delta(&before);
        dcst_matrix::set_update_policy(policy);
        // At least: a test running beside this one under a forced
        // structured policy adds its own plans to the process counter.
        let planned = delta.get("update.structured_merges");
        assert!(planned >= 3, "{planned} structured merges");
        let PendingKind::Graph(g) = &pending.kind else {
            panic!("a full solve runs the merge graph")
        };
        assert_eq!(Arc::strong_count(g), 1, "a task outlived the drain");
        assert_eq!(Arc::strong_count(&g.root), 1);
        let root = &g.root;
        assert!(root.structured.get().is_some(), "the root keeps its plan");
        assert!(
            root.planned.lock().unwrap().is_none(),
            "StructJoin takes every plan it finishes"
        );
        let k = root.defl().k;
        let solved = root.panel_roots.iter().filter(|r| r.get().is_some());
        assert_eq!(solved.count(), k.div_ceil(64), "the root keeps its roots");
    }

    #[test]
    fn stats_report_deflation() {
        let t = MatrixType::Type2.generate(128, 3);
        let (_, stats) = TaskFlowDc::new(opts(16, 16, 2))
            .solve_with_stats(&t)
            .unwrap();
        assert!(
            stats.overall_deflation() > 0.8,
            "type 2 deflates heavily: {}",
            stats.overall_deflation()
        );
    }

    #[test]
    fn pending_submissions_share_one_runtime() {
        let rt = Runtime::new(2);
        let solver = TaskFlowDc::new(opts(16, 8, 2));
        let t1 = MatrixType::Type4.generate(80, 3);
        let t2 = MatrixType::Type2.generate(96, 5);
        let p1 = solver.submit(&t1, rt.scope()).unwrap();
        let p2 = solver.submit(&t2, rt.priority_scope()).unwrap();
        let (e2, _) = p2.wait().unwrap();
        let (e1, _) = p1.wait().unwrap();
        check(&t1, &e1, 1e-12);
        check(&t2, &e2, 1e-12);
    }

    #[test]
    fn cancelled_pending_reports_cancelled() {
        // One worker, blocked by a decoy task in a scope of its own: the
        // solve's tasks cannot start, so cancel() must skip all of them.
        let rt = Runtime::new(1);
        let decoy = rt.scope();
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        decoy.task("decoy").spawn(move || {
            rx.recv().unwrap();
        });
        let solver = TaskFlowDc::new(opts(16, 8, 1));
        let t = MatrixType::Type4.generate(64, 9);
        let pending = solver.submit(&t, rt.scope()).unwrap();
        let handle = pending.cancel_handle();
        handle.cancel();
        tx.send(()).unwrap();
        match pending.wait() {
            Err(DcError::Cancelled) => {}
            other => panic!("expected DcError::Cancelled, got {:?}", other.map(|_| ())),
        }
        decoy.wait().unwrap();
    }

    #[test]
    fn batch_values_are_bit_identical_to_solo() {
        let solver = TaskFlowDc::new(opts(12, 8, 2));
        let ts: Vec<SymTridiag> = (0..4)
            .map(|i| MatrixType::Type4.generate(48 + 8 * i, 3 + i as u64))
            .collect();
        let batch = solver.solve_batch_on(&ts, &Runtime::new(2));
        for (t, res) in ts.iter().zip(batch) {
            let (eig, _) = res.unwrap();
            let solo = solver.solve(t).unwrap();
            for (a, b) in solo.values.iter().zip(&eig.values) {
                assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
            }
            check(t, &eig, 1e-12);
        }
    }

    #[test]
    fn one_poisoned_submission_leaves_neighbours_intact() {
        let rt = Runtime::new(2);
        let solver = TaskFlowDc::new(opts(16, 8, 2));
        let good = MatrixType::Type4.generate(80, 11);
        let mut bad = MatrixType::Type4.generate(80, 12);
        bad.d[40] = f64::NAN;
        let pg = solver.submit(&good, rt.scope()).unwrap();
        // NaN input is rejected at validation (before submission)...
        assert!(matches!(
            solver.submit(&bad, rt.scope()).map(|_| ()),
            Err(DcError::NonFinite)
        ));
        // ...and the concurrent good submission is unaffected.
        let (eig, _) = pg.wait().unwrap();
        check(&good, &eig, 1e-12);
    }
}
