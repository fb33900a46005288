//! The paper's solver: D&C as a sequential task flow.
//!
//! The master thread submits the complete task graph up front — one
//! `STEDC` task per leaf and, per merge node, the pipeline
//!
//! ```text
//! ComputeDeflation → {PermuteV, LAED4, ComputeLocalW}ₚ → ReduceW
//!                  → {CopyBackDeflated, ComputeVect, UpdateVect}ₚ
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
//! Data is shared through [`SharedData`] buffers; each closure borrows
//! only the disjoint range its declared access covers (see
//! `dcst_runtime::share` for the aliasing contract).
//!
//! The graph is the only statement of the algorithm: the comparator
//! drivers in `crate::seq` submit this same flow under a different
//! [`Discipline`].

use crate::merge::{
    apply_givens, build_z, compute_vect_panel, copy_back_panel, ensure_finite_merge_inputs,
    finalize_d, local_w_panel, permute_slots, solve_roots_panel, update_vect_panel, MergeStat,
};
use crate::tree::PartitionTree;
use crate::values::{
    deflate_rows, row_update_panel, secular_rows_panel, solve_leaf_values, BoundaryRows,
    RowDeflation,
};
use crate::{DcError, DcOptions, DcStats, Eigen, SolveMode, TridiagEigensolver};
use dcst_matrix::Matrix;
use dcst_qriter::{steqr_mut, ZBlock};
use dcst_runtime::{
    CancelHandle, DagRecorder, DataKey, Runtime, RuntimeMetrics, Scope, SharedData, TaskBuilder,
    Trace,
};
use dcst_secular::Deflation;
use dcst_tridiag::SymTridiag;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const OBJ_NODE: u64 = 1;
const OBJ_X: u64 = 2;
const OBJ_SCALE: u64 = 3;

/// The dependency tracker's key namespace is global to a [`Runtime`], so
/// concurrent submissions onto a *shared* runtime (the service path) must
/// not reuse object ids. Each submission claims a fresh 38-bit block of
/// the 40-bit object-id space from a process-global counter and derives
/// its three object ids from it; the first submission of a process gets
/// the historic `OBJ_NODE`/`OBJ_X`/`OBJ_SCALE` ids.
#[derive(Clone, Copy)]
struct KeySpace {
    node: u64,
    x: u64,
    scale: u64,
}

static KEY_SEQ: AtomicU64 = AtomicU64::new(0);

impl KeySpace {
    fn fresh() -> Self {
        let seq = KEY_SEQ.fetch_add(1, Ordering::Relaxed);
        let base = (seq & ((1u64 << 38) - 1)) << 2;
        KeySpace {
            node: base | OBJ_NODE,
            x: base | OBJ_X,
            scale: base | OBJ_SCALE,
        }
    }
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
fn panel_task<'rt>(
    scope: &Scope<'rt>,
    name: &'static str,
    node: DataKey,
    use_gatherv: bool,
) -> TaskBuilder<'rt> {
    if use_gatherv {
        scope.task(name).gatherv(node)
    } else {
        scope.task(name).read_write(node)
    }
}

/// Per-node state shared between the node's tasks. Interior mutability is
/// safe because the runtime orders writers before readers (node-key
/// epochs).
#[derive(Default)]
struct NodeCell {
    defl: Mutex<Option<Arc<Deflation>>>,
    zhat: Mutex<Option<Arc<Vec<f64>>>>,
    idxq: Mutex<Option<Arc<Vec<usize>>>>,
    partials: Mutex<Vec<Option<Vec<f64>>>>,
    stat: Mutex<Option<MergeStat>>,
    /// Rank-structured update plan for this merge; `None` means the dense
    /// path (either the auto-switch chose it or `CompressW` hasn't run —
    /// the node-key epochs guarantee the latter never races `UpdateVect`).
    structured: Mutex<Option<Arc<crate::structured::StructuredUpdate>>>,
    /// Subset pruning plan `(jlo, jhi, dlo, dhi)` for the root merge of a
    /// `SolveMode::Subset` solve, published by `ReduceW` (which the
    /// node-key epochs order before every phase-2 panel): the secular and
    /// deflated storage-slot spans that land in the requested sorted
    /// positions. `None` everywhere else.
    subset_plan: Mutex<Option<(usize, usize, usize, usize)>>,
}

impl NodeCell {
    fn defl(&self) -> Arc<Deflation> {
        self.defl
            .lock()
            .unwrap()
            .clone()
            .expect("deflation state not yet computed")
    }
    fn zhat(&self) -> Arc<Vec<f64>> {
        self.zhat
            .lock()
            .unwrap()
            .clone()
            .expect("zhat not yet computed")
    }
    fn idxq(&self) -> Arc<Vec<usize>> {
        self.idxq
            .lock()
            .unwrap()
            .clone()
            .expect("idxq not yet computed")
    }
}

/// Per-node state of the values-only graph ([`TaskFlowDc::submit_values`]):
/// the node's boundary rows take the place of the full path's eigenvector
/// block, so the whole solve carries O(n) state per node.
#[derive(Default)]
struct ValueCell {
    rd: Mutex<Option<Arc<RowDeflation>>>,
    zhat: Mutex<Option<Arc<Vec<f64>>>>,
    idxq: Mutex<Option<Arc<Vec<usize>>>>,
    partials: Mutex<Vec<Option<Vec<f64>>>>,
    rows: Mutex<Option<BoundaryRows>>,
    stat: Mutex<Option<MergeStat>>,
}

impl ValueCell {
    fn rd(&self) -> Arc<RowDeflation> {
        self.rd
            .lock()
            .unwrap()
            .clone()
            .expect("deflation state not yet computed")
    }
    fn zhat(&self) -> Arc<Vec<f64>> {
        self.zhat
            .lock()
            .unwrap()
            .clone()
            .expect("zhat not yet computed")
    }
    fn idxq(&self) -> Arc<Vec<usize>> {
        self.idxq
            .lock()
            .unwrap()
            .clone()
            .expect("idxq not yet computed")
    }
    fn take_rows(&self) -> BoundaryRows {
        self.rows
            .lock()
            .unwrap()
            .take()
            .expect("boundary rows not yet computed")
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
    /// The full eigenvector graph (also used, pruned, for large subsets).
    Full(FullPending),
    /// The values-only boundary-row graph.
    Values(ValuesPending),
    /// Small-subset MRRR fallback, run as a single task so it occupies one
    /// worker slot and stays cancellable before it starts.
    Fallback(Arc<Mutex<Option<Result<Eigen, DcError>>>>),
}

/// Collect-phase state of a full (eigenvector) submission: the handles the
/// master must keep to unwrap results after the scope drains. Worker-side
/// clones are released when the scope's finished tasks are garbage
/// collected by `wait`, so `try_unwrap` succeeds.
struct FullPending {
    n: usize,
    subset: Option<(usize, usize)>,
    tree: Arc<PartitionTree>,
    cells: Arc<Vec<NodeCell>>,
    d: SharedData<f64>,
    v: SharedData<f64>,
}

/// Collect-phase state of a values-only submission.
struct ValuesPending {
    n: usize,
    tree: Arc<PartitionTree>,
    cells: Arc<Vec<ValueCell>>,
    d: SharedData<f64>,
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
            PendingKind::Full(st) => st.collect(),
            PendingKind::Values(st) => st.collect(),
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

impl FullPending {
    fn collect(self) -> Result<(Eigen, DcStats), DcError> {
        let FullPending {
            n,
            subset,
            tree,
            cells,
            d,
            v,
        } = self;
        let values = d
            .try_unwrap()
            .unwrap_or_else(|_| panic!("d buffer still shared after wait"));
        let vectors = v
            .try_unwrap()
            .unwrap_or_else(|_| panic!("v buffer still shared after wait"));
        let mut stats = DcStats::default();
        for &m in &tree.merges_postorder() {
            if let Some(stat) = cells[m].stat.lock().unwrap().take() {
                stats.merges.push(stat);
            }
        }
        if let Some((il, iu)) = subset {
            // d is still in physical slot order (the sort tasks were
            // skipped); gather the k requested values/columns directly.
            let idxq = cells[tree.root].idxq();
            let ksub = iu - il + 1;
            let mut vals = Vec::with_capacity(ksub);
            let mut vsub = vec![0.0f64; n * ksub];
            for (c, p) in (il..=iu).enumerate() {
                let src = idxq[p];
                vals.push(values[src]);
                vsub[c * n..(c + 1) * n].copy_from_slice(&vectors[src * n..(src + 1) * n]);
            }
            return Ok((
                Eigen {
                    values: vals,
                    vectors: Matrix::from_vec(n, ksub, vsub),
                },
                stats,
            ));
        }
        Ok((
            Eigen {
                values,
                vectors: Matrix::from_vec(n, n, vectors),
            },
            stats,
        ))
    }
}

impl ValuesPending {
    fn collect(self) -> Result<(Eigen, DcStats), DcError> {
        let ValuesPending { n, tree, cells, d } = self;
        let values = d
            .try_unwrap()
            .unwrap_or_else(|_| panic!("d buffer still shared after wait"));
        let mut stats = DcStats::default();
        for &m in &tree.merges_postorder() {
            if let Some(stat) = cells[m].stat.lock().unwrap().take() {
                stats.merges.push(stat);
            }
        }
        Ok((
            Eigen {
                values,
                vectors: Matrix::zeros(n, 0),
            },
            stats,
        ))
    }
}

/// The task-flow Divide & Conquer eigensolver (the paper's contribution).
pub struct TaskFlowDc {
    opts: DcOptions,
    discipline: Discipline,
}

impl TaskFlowDc {
    pub fn new(opts: DcOptions) -> Self {
        Self::with_discipline(opts, Discipline::TaskFlow)
    }

    pub(crate) fn with_discipline(opts: DcOptions, discipline: Discipline) -> Self {
        TaskFlowDc { opts, discipline }
    }

    /// Solve and return per-merge statistics.
    pub fn solve_with_stats(&self, t: &SymTridiag) -> Result<(Eigen, DcStats), DcError> {
        let rt = self.discipline.runtime(self.opts.threads);
        let pending = self.submit(t, &rt)?;
        pending.wait()
    }

    /// Solve while recording an execution trace (Figures 3 and 4).
    pub fn solve_traced(&self, t: &SymTridiag) -> Result<(Eigen, DcStats, Trace), DcError> {
        let rt = self.discipline.runtime(self.opts.threads);
        rt.enable_tracing();
        let (eig, stats) = self.submit(t, &rt)?.wait()?;
        Ok((eig, stats, rt.take_trace()))
    }

    /// Solve with full observability: execution trace plus the pool's
    /// scheduler counters, taken from the same run so the metrics
    /// reconcile with the trace (executed-task count == record count;
    /// counters are all zeros unless built with the `metrics` feature).
    #[allow(clippy::type_complexity)]
    pub fn solve_observed(
        &self,
        t: &SymTridiag,
    ) -> Result<(Eigen, DcStats, Trace, RuntimeMetrics), DcError> {
        let rt = self.discipline.runtime(self.opts.threads);
        rt.enable_tracing();
        let (eig, stats) = self.submit(t, &rt)?.wait()?;
        let trace = rt.take_trace();
        let metrics = rt.runtime_metrics();
        Ok((eig, stats, trace, metrics))
    }

    /// Solve while recording the task DAG (Figure 2).
    pub fn solve_with_dag(&self, t: &SymTridiag) -> Result<(Eigen, DagRecorder), DcError> {
        let rt = Runtime::new(self.opts.threads);
        rt.enable_dag_recording();
        let (eig, _) = self.submit(t, &rt)?.wait()?;
        Ok((eig, rt.take_dag().expect("dag recording was enabled")))
    }

    /// Submit this solve's task graph onto `rt` without waiting: the
    /// daemon path. The graph runs in its own [`Scope`], so any number of
    /// submissions can coexist on one runtime; each is independently
    /// cancellable and collects its own failure.
    pub fn submit<'rt>(
        &self,
        t: &SymTridiag,
        rt: &'rt Runtime,
    ) -> Result<PendingSolve<'rt>, DcError> {
        self.submit_scoped(t, rt.scope())
    }

    /// [`TaskFlowDc::submit`], but every task of the graph rides the
    /// pool's high-priority injector lane — the service's priority class.
    pub fn submit_priority<'rt>(
        &self,
        t: &SymTridiag,
        rt: &'rt Runtime,
    ) -> Result<PendingSolve<'rt>, DcError> {
        self.submit_scoped(t, rt.priority_scope())
    }

    /// Fused batch solve: submit every problem's graph before waiting on
    /// any of them, so panel tasks from different problems interleave in
    /// the shared pool's ready queue and the per-problem GEMM/LAED4
    /// panels fill worker idle gaps left by their neighbours' spines.
    pub fn solve_batch(&self, ts: &[SymTridiag]) -> Vec<Result<(Eigen, DcStats), DcError>> {
        let rt = Runtime::new(self.opts.threads);
        self.solve_batch_on(ts, &rt)
    }

    /// [`TaskFlowDc::solve_batch`] on a caller-provided (shared) runtime.
    pub fn solve_batch_on(
        &self,
        ts: &[SymTridiag],
        rt: &Runtime,
    ) -> Vec<Result<(Eigen, DcStats), DcError>> {
        let pending: Vec<Result<PendingSolve<'_>, DcError>> =
            ts.iter().map(|t| self.submit(t, rt)).collect();
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

    fn submit_scoped<'rt>(
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
        // Mode dispatch: values-only takes the boundary-row graph, a small
        // subset routes to MRRR, and a large subset runs the full graph
        // with root-merge pruning.
        let subset = match self.opts.mode {
            SolveMode::Full => None,
            SolveMode::ValuesOnly => {
                let st = self.submit_values(t, &scope, KeySpace::fresh())?;
                return Ok(PendingSolve {
                    scope,
                    kind: PendingKind::Values(st),
                });
            }
            SolveMode::Subset { il, iu } => {
                crate::validate_subset(il, iu, n)?;
                if crate::subset_uses_fallback(il, iu, n) {
                    // One worker-slot task keeps the MRRR fallback inside
                    // the scope discipline (cancellable before it starts,
                    // counted by admission control) — MRRR brings its own
                    // internal parallelism.
                    let slot = Arc::new(Mutex::new(None));
                    let out = slot.clone();
                    let t = t.clone();
                    let threads = match self.discipline {
                        Discipline::Sequential => 1,
                        _ => self.opts.threads,
                    };
                    scope.task("SubsetFallback").spawn(move || {
                        *out.lock().unwrap() = Some(crate::subset_fallback(&t, il, iu, threads));
                    });
                    return Ok(PendingSolve {
                        scope,
                        kind: PendingKind::Fallback(slot),
                    });
                }
                Some((il, iu))
            }
        };
        let st = self.submit_full(t, &scope, KeySpace::fresh(), subset)?;
        Ok(PendingSolve {
            scope,
            kind: PendingKind::Full(st),
        })
    }

    fn submit_full(
        &self,
        t: &SymTridiag,
        scope: &Scope<'_>,
        ks: KeySpace,
        subset: Option<(usize, usize)>,
    ) -> Result<FullPending, DcError> {
        let n = t.n();
        let nb = self.opts.nb.max(1);
        let orgnrm = t.max_norm();
        let scale = if orgnrm > 0.0 { 1.0 / orgnrm } else { 1.0 };

        let tree = Arc::new(PartitionTree::build(n, self.opts.min_part));
        // Signed β per internal node, computed from the unscaled input.
        let mut betas = vec![0.0f64; tree.nodes.len()];
        for &m in &tree.merges_postorder() {
            let node = &tree.nodes[m];
            betas[m] = t.e[node.off + node.n1 - 1] * scale;
        }
        let cuts: Vec<usize> = tree.cuts();

        let d = SharedData::new(t.d.clone());
        let e = SharedData::new(t.e.clone());
        let v = SharedData::new(vec![0.0f64; n * n]);
        let ws = SharedData::new(vec![0.0f64; n * n]);
        let x = SharedData::new(vec![0.0f64; n * n]);
        let lam = SharedData::new(vec![0.0f64; n]);
        let cells: Arc<Vec<NodeCell>> =
            Arc::new((0..tree.nodes.len()).map(|_| NodeCell::default()).collect());

        let key_node = move |id: usize| DataKey::new(ks.node, id as u64);
        let use_gatherv = self.opts.use_gatherv;
        let key_x = move |col: usize| DataKey::new(ks.x, col as u64);
        let key_scale = DataKey::new(ks.scale, 0);

        // Bind each buffer to the keys tasks declare when touching it, so
        // the `access-check` shadow tracker can validate every borrow in
        // the graph below against the declared footprint.
        #[cfg(feature = "access-check")]
        {
            let node_keys: Vec<DataKey> = (0..tree.nodes.len()).map(key_node).collect();
            let mut scale_and_nodes = vec![key_scale];
            scale_and_nodes.extend_from_slice(&node_keys);
            d.bind_keys(&scale_and_nodes);
            e.bind_keys(&scale_and_nodes);
            v.bind_keys(&node_keys);
            ws.bind_keys(&node_keys);
            let mut cols_and_nodes: Vec<DataKey> = (0..n).map(key_x).collect();
            cols_and_nodes.extend_from_slice(&node_keys);
            x.bind_keys(&cols_and_nodes);
            lam.bind_keys(&cols_and_nodes);
        }

        // ---- Scale T: bring the matrix to unit max-norm and apply the
        // rank-one tears at every cut.
        {
            let (d, e) = (d.clone(), e.clone());
            let cuts = cuts.clone();
            scope
                .task("Scale")
                .high_priority()
                .write(key_scale)
                .spawn(move || {
                    // SAFETY: first task to touch d/e; leaves wait on the key.
                    let ds = unsafe { d.slice_mut() };
                    let es = unsafe { e.slice_mut() };
                    if scale != 1.0 {
                        ds.iter_mut().for_each(|v| *v *= scale);
                        es.iter_mut().for_each(|v| *v *= scale);
                    }
                    for &c in &cuts {
                        let b = es[c - 1].abs();
                        ds[c - 1] -= b;
                        ds[c] -= b;
                    }
                });
        }

        // ---- leaves: STEDC (QR iteration) into the diagonal block of V.
        for &l in &tree.leaves() {
            let node = &tree.nodes[l];
            let (off, nm) = (node.off, node.n);
            let (d, e, v) = (d.clone(), e.clone(), v.clone());
            let cells = cells.clone();
            scope
                .task("STEDC")
                .high_priority()
                .read(key_scale)
                .write(key_node(l))
                .spawn_try(move || -> Result<(), DcError> {
                    // SAFETY: exclusive block ranges per leaf; ordered after
                    // Scale by the key and before the parent merge by N(l).
                    let db = unsafe { d.range_mut(off..off + nm) };
                    let eb = unsafe { e.range_mut(off..off + nm - 1) };
                    let ld = d.len();
                    let vcols = unsafe { v.range_mut(off * ld..(off + nm) * ld) };
                    for j in 0..nm {
                        vcols[j * ld + off + j] = 1.0;
                    }
                    let z = ZBlock {
                        buf: &mut vcols[off..],
                        ld,
                        nrows: nm,
                    };
                    steqr_mut(db, eb, Some(z))
                        .map_err(|err| DcError::Leaf(err.with_offset(off)))?;
                    *cells[l].idxq.lock().unwrap() = Some(Arc::new((0..nm).collect()));
                    Ok(())
                });
        }

        self.level_barrier(scope)?;

        // ---- merges, bottom-up.
        for level in self.merge_groups(&tree) {
            for &m in &level {
                let node = &tree.nodes[m];
                let (off, nm, n1) = (node.off, node.n, node.n1);
                let (lc, rc) = node.children.unwrap();
                let beta = betas[m];
                let npanels = nm.div_ceil(nb);
                let block_end = move |cols: usize| (off + cols - 1) * n + off + nm;
                // Root merge of a subset solve: ReduceW publishes the pruning
                // plan and the phase-2 panels clamp their ranges to it.
                let node_subset = if m == tree.root { subset } else { None };

                // ComputeDeflation: the only task reading the children's state.
                {
                    let (d, v) = (d.clone(), v.clone());
                    let cells = cells.clone();
                    // The merge spine (deflation → … → ReduceW) gates every
                    // panel task of this node and of all ancestors: schedule it
                    // through the runtime's priority lane.
                    scope
                        .task("ComputeDeflation")
                        .high_priority()
                        .read(key_node(lc))
                        .read(key_node(rc))
                        .read_write(key_node(m))
                        .spawn_try(move || -> Result<(), DcError> {
                            // SAFETY: epoch-exclusive access to the block.
                            let db = unsafe { d.range_mut(off..off + nm) };
                            let vb = unsafe { v.range_mut(off * n + off..block_end(nm)) };
                            let z = build_z(vb, n, nm, n1);
                            ensure_finite_merge_inputs(db, &z, off)?;
                            let idxq_l = cells[lc].idxq();
                            let idxq_r = cells[rc].idxq();
                            let mut idxq: Vec<usize> = idxq_l.to_vec();
                            idxq.extend(idxq_r.iter().map(|&r| r + n1));
                            let defl = dcst_secular::deflate(&dcst_secular::DeflationInput {
                                d: db,
                                z: &z,
                                beta,
                                n1,
                                idxq: &idxq,
                            });
                            apply_givens(vb, n, nm, &defl.givens);
                            *cells[m].partials.lock().unwrap() = vec![None; npanels];
                            *cells[m].defl.lock().unwrap() = Some(Arc::new(defl));
                            Ok(())
                        });
                }

                // Phase 1 panels.
                for p in 0..npanels {
                    let s0 = p * nb;
                    let s1 = ((p + 1) * nb).min(nm);
                    // PermuteV
                    {
                        let (v, ws) = (v.clone(), ws.clone());
                        let cells = cells.clone();
                        let mut task = panel_task(scope, "PermuteV", key_node(m), use_gatherv);
                        if !self.opts.extra_workspace {
                            // Without extra workspace the paper serializes the
                            // permute with the panel's LAED4 (shared staging).
                            task = task.write(key_x(off + s0));
                        }
                        task.spawn(move || {
                            let defl = cells[m].defl();
                            // SAFETY: reads the whole block (shared, no writer
                            // in this phase), writes only columns s0..s1 of ws.
                            let vb = unsafe { v.range(off * n + off..block_end(nm)) };
                            let wcols = unsafe {
                                ws.range_mut((off + s0) * n + off..(off + s1 - 1) * n + off + nm)
                            };
                            permute_slots(vb, wcols, n, nm, n1, &defl, s0..s1);
                        });
                    }
                    // LAED4
                    {
                        let (x, lam) = (x.clone(), lam.clone());
                        let cells = cells.clone();
                        panel_task(scope, "LAED4", key_node(m), use_gatherv)
                            .write(key_x(off + s0))
                            .spawn_try(move || {
                                let defl = cells[m].defl();
                                let k = defl.k;
                                let j0 = s0.min(k);
                                let j1 = s1.min(k);
                                if j0 >= j1 {
                                    return Ok(());
                                }
                                // SAFETY: exclusive column range of X and of lam.
                                let xc = unsafe {
                                    x.range_mut((off + j0) * n + off..(off + j1 - 1) * n + off + k)
                                };
                                let lo = unsafe { lam.range_mut(off + j0..off + j1) };
                                solve_roots_panel(&defl, xc, n, j0..j1, lo)
                                    .map_err(|err| err.with_offset(off))
                            });
                    }
                    // ComputeLocalW
                    {
                        let x = x.clone();
                        let cells = cells.clone();
                        panel_task(scope, "ComputeLocalW", key_node(m), use_gatherv)
                            .read(key_x(off + s0))
                            .spawn(move || {
                                let defl = cells[m].defl();
                                let k = defl.k;
                                let j0 = s0.min(k);
                                let j1 = s1.min(k);
                                if j0 >= j1 {
                                    return;
                                }
                                // SAFETY: shared read of this panel's X columns.
                                let xc = unsafe {
                                    x.range((off + j0) * n + off..(off + j1 - 1) * n + off + k)
                                };
                                let part = local_w_panel(&defl, xc, n, j0..j1);
                                cells[m].partials.lock().unwrap()[p] = Some(part);
                            });
                    }
                }

                // ReduceW: join, build ẑ, finalize the block diagonal.
                {
                    let (d, lam) = (d.clone(), lam.clone());
                    let cells = cells.clone();
                    scope
                        .task("ReduceW")
                        .high_priority()
                        .read_write(key_node(m))
                        .spawn(move || {
                            let defl = cells[m].defl();
                            let k = defl.k;
                            if k > 0 {
                                let parts: Vec<Vec<f64>> = cells[m]
                                    .partials
                                    .lock()
                                    .unwrap()
                                    .iter_mut()
                                    .filter_map(|p| p.take())
                                    .collect();
                                let zhat = dcst_secular::reduce_w(&defl.w, &parts);
                                *cells[m].zhat.lock().unwrap() = Some(Arc::new(zhat));
                            }
                            // SAFETY: epoch-exclusive d block; lam is read-only now.
                            let db = unsafe { d.range_mut(off..off + nm) };
                            let ls = unsafe { lam.range(off..off + k) };
                            let idxq = finalize_d(&defl, ls, db);
                            if let Some((il, iu)) = node_subset {
                                *cells[m].subset_plan.lock().unwrap() =
                                    Some(crate::merge::subset_slot_spans(&idxq[il..=iu], k, nm));
                            }
                            *cells[m].idxq.lock().unwrap() = Some(Arc::new(idxq));
                            *cells[m].stat.lock().unwrap() = Some(MergeStat { n: nm, n1, k });
                        });
                }

                // Phase 2a panels (CopyBackDeflated + ComputeVect).
                for p in 0..npanels {
                    let s0 = p * nb;
                    let s1 = ((p + 1) * nb).min(nm);
                    // CopyBackDeflated
                    {
                        let (v, ws) = (v.clone(), ws.clone());
                        let cells = cells.clone();
                        let mut task =
                            panel_task(scope, "CopyBackDeflated", key_node(m), use_gatherv);
                        if !self.opts.extra_workspace {
                            task = task.write(key_x(off + s0));
                        }
                        task.spawn(move || {
                            let defl = cells[m].defl();
                            let k = defl.k;
                            let mut c0 = s0.max(k);
                            let mut c1 = s1.max(k);
                            if let Some((_, _, dlo, dhi)) = *cells[m].subset_plan.lock().unwrap() {
                                c0 = c0.max(dlo);
                                c1 = c1.min(dhi);
                            }
                            if c0 >= c1 {
                                return;
                            }
                            // SAFETY: disjoint deflated column ranges.
                            let wc = unsafe {
                                ws.range((off + c0) * n + off..(off + c1 - 1) * n + off + nm)
                            };
                            let vc = unsafe {
                                v.range_mut((off + c0) * n + off..(off + c1 - 1) * n + off + nm)
                            };
                            copy_back_panel(wc, vc, n, nm, c1 - c0);
                        });
                    }
                    // ComputeVect
                    {
                        let x = x.clone();
                        let cells = cells.clone();
                        panel_task(scope, "ComputeVect", key_node(m), use_gatherv)
                            .read_write(key_x(off + s0))
                            .spawn(move || {
                                let defl = cells[m].defl();
                                let k = defl.k;
                                let mut j0 = s0.min(k);
                                let mut j1 = s1.min(k);
                                if let Some((jlo, jhi, _, _)) =
                                    *cells[m].subset_plan.lock().unwrap()
                                {
                                    j0 = j0.max(jlo);
                                    j1 = j1.min(jhi);
                                }
                                if j0 >= j1 {
                                    return;
                                }
                                let zhat = cells[m].zhat();
                                // SAFETY: exclusive column range of X.
                                let xc = unsafe {
                                    x.range_mut((off + j0) * n + off..(off + j1 - 1) * n + off + k)
                                };
                                compute_vect_panel(&defl, &zhat, xc, n, j0..j1);
                            });
                    }
                }

                // CompressW: once every ComputeVect epoch retires, rank-probe
                // the secular matrix and build the compressed operands +
                // gathered Q when the structured path wins (crate::structured).
                // The INOUT access on the node key orders it after the phase-2a
                // GATHERV writers and before the UpdateVect group; its borrows
                // (whole ws/X block, read) are covered by the node key the
                // buffers are bound to, so the access-check tracker validates
                // the footprint.
                {
                    let (ws, x) = (ws.clone(), x.clone());
                    let cells = cells.clone();
                    scope
                        .task("CompressW")
                        .high_priority()
                        .read_write(key_node(m))
                        .spawn(move || {
                            if node_subset.is_some() {
                                // Subset-pruned root: the panels update only a
                                // column slice, for which the dense GEMMs are
                                // already minimal — rank-probing the full
                                // secular matrix would cost more than it saves.
                                return;
                            }
                            let defl = cells[m].defl();
                            let k = defl.k;
                            if k == 0 {
                                return;
                            }
                            // SAFETY: node-key epoch excludes every writer of
                            // the block; ws and X are read-shared here.
                            let wb = unsafe { ws.range(off * n + off..block_end(k)) };
                            let xb = unsafe { x.range(off * n + off..block_end(k)) };
                            let plan =
                                crate::structured::plan_update(wb, xb, n, n, nm, n1, &defl, n);
                            if let Some(su) = plan {
                                *cells[m].structured.lock().unwrap() = Some(Arc::new(su));
                            }
                        });
                }
                // StructBasis: the per-tile Q·U products, fanned out
                // round-robin over a fixed panel-count of commuting tasks (the
                // DAG stays matrix-independent; each is a no-op on dense
                // merges). They touch only plan-owned buffers, so the node key
                // is their whole footprint. A GEMM group: forked under the
                // fork/join discipline.
                for p in 0..npanels {
                    let cells = cells.clone();
                    panel_task(scope, "StructBasis", key_node(m), use_gatherv)
                        .fork()
                        .spawn(move || {
                            let su = cells[m].structured.lock().unwrap().clone();
                            if let Some(su) = su {
                                su.compute_basis_chunk(p, npanels);
                            }
                        });
                }
                // StructJoin: epoch barrier so every basis product is in place
                // before the first UpdateVect reads them.
                scope
                    .task("StructJoin")
                    .high_priority()
                    .read_write(key_node(m))
                    .spawn(|| {});

                // Phase 2b panels: the eigenvector update itself.
                for p in 0..npanels {
                    let s0 = p * nb;
                    let s1 = ((p + 1) * nb).min(nm);
                    // UpdateVect (dense: both structured GEMMs for this panel;
                    // structured: the compressed multiply for its columns).
                    {
                        let (v, ws, x) = (v.clone(), ws.clone(), x.clone());
                        let cells = cells.clone();
                        panel_task(scope, "UpdateVect", key_node(m), use_gatherv)
                            .read(key_x(off + s0))
                            .fork()
                            .spawn_try(move || {
                                let defl = cells[m].defl();
                                let k = defl.k;
                                let mut j0 = s0.min(k);
                                let mut j1 = s1.min(k);
                                if let Some((jlo, jhi, _, _)) =
                                    *cells[m].subset_plan.lock().unwrap()
                                {
                                    j0 = j0.max(jlo);
                                    j1 = j1.min(jhi);
                                }
                                if j0 >= j1 {
                                    return Ok(());
                                }
                                if let Some(su) = cells[m].structured.lock().unwrap().clone() {
                                    // Relabel this record so traces show the
                                    // structured and dense variants distinctly.
                                    dcst_runtime::set_task_trace_name("UpdateVectStructured");
                                    // SAFETY: V columns j0..j1 (full height)
                                    // are exclusive to this panel; the plan
                                    // owns its operands.
                                    let vc = unsafe { v.range_mut((off + j0) * n..(off + j1) * n) };
                                    return su.update_panel(vc, n, off, nm, j0..j1);
                                }
                                // SAFETY: ws block is read-shared in this phase; V
                                // columns j0..j1 (full height) are exclusive.
                                let wb = unsafe { ws.range(off * n + off..block_end(k)) };
                                let xc = unsafe {
                                    x.range((off + j0) * n + off..(off + j1 - 1) * n + off + k)
                                };
                                let vc = unsafe { v.range_mut((off + j0) * n..(off + j1) * n) };
                                update_vect_panel(wb, xc, n, vc, n, off, nm, n1, &defl, j0..j1)
                            });
                    }
                }
            }
            self.level_barrier(scope)?;
        }

        // ---- final sort + scale back on the root.
        let root = tree.root;
        let nroot_panels = n.div_ceil(nb);
        // A subset solve gathers its k columns on the main thread after
        // the graph drains — no full column sort.
        if !tree.nodes[root].is_leaf() && subset.is_none() {
            {
                let d = d.clone();
                let cells = cells.clone();
                scope
                    .task("SortEigenvalues")
                    .high_priority()
                    .read_write(key_node(root))
                    .spawn(move || {
                        let idxq = cells[root].idxq();
                        // SAFETY: epoch-exclusive d.
                        let ds = unsafe { d.slice_mut() };
                        let tmp: Vec<f64> = idxq.iter().map(|&s| ds[s]).collect();
                        ds.copy_from_slice(&tmp);
                    });
            }
            for p in 0..nroot_panels {
                let r0 = p * nb;
                let r1 = ((p + 1) * nb).min(n);
                let (v, ws) = (v.clone(), ws.clone());
                let cells = cells.clone();
                panel_task(scope, "SortCopy", key_node(root), use_gatherv).spawn(move || {
                    let idxq = cells[root].idxq();
                    // SAFETY: v fully read-shared; ws target columns
                    // exclusive per panel.
                    let vs = unsafe { v.slice() };
                    let wt = unsafe { ws.range_mut(r0 * n..r1 * n) };
                    // Full-height columns: batch runs of consecutive
                    // sources into single spanning copies.
                    let cols = r1 - r0;
                    let mut t = 0;
                    while t < cols {
                        let src = idxq[r0 + t];
                        let mut len = 1;
                        while t + len < cols && idxq[r0 + t + len] == src + len {
                            len += 1;
                        }
                        wt[t * n..(t + len) * n].copy_from_slice(&vs[src * n..(src + len) * n]);
                        t += len;
                    }
                });
            }
            scope
                .task("SortBarrier")
                .high_priority()
                .read_write(key_node(root))
                .spawn(|| {});
            for p in 0..nroot_panels {
                let r0 = p * nb;
                let r1 = ((p + 1) * nb).min(n);
                let (v, ws) = (v.clone(), ws.clone());
                panel_task(scope, "SortCopyBack", key_node(root), use_gatherv).spawn(move || {
                    // SAFETY: ws read-shared, v target columns exclusive.
                    let wsrc = unsafe { ws.range(r0 * n..r1 * n) };
                    let vt = unsafe { v.range_mut(r0 * n..r1 * n) };
                    vt.copy_from_slice(wsrc);
                });
            }
        }
        {
            let d = d.clone();
            scope
                .task("ScaleBack")
                .high_priority()
                .read_write(key_node(root))
                .spawn(move || {
                    if scale != 1.0 {
                        // SAFETY: epoch-exclusive d.
                        let ds = unsafe { d.slice_mut() };
                        ds.iter_mut().for_each(|x| *x *= orgnrm);
                    }
                });
        }

        // Submission done: the master drops its e/ws/x/lam handles here;
        // the workers' clones die with their tasks' GC at wait, so the
        // collect phase can unwrap d and v.
        Ok(FullPending {
            n,
            subset,
            tree,
            cells,
            d,
            v,
        })
    }

    /// The values-only task graph ([`SolveMode::ValuesOnly`]): the same
    /// matrix-independent DAG discipline as the full solve, but built on
    /// boundary-row propagation (`crate::values`), so the three n×n
    /// V/WS/X buffers disappear entirely — per-node state is two O(n)
    /// rows plus the deflation record. This is the memory reduction the
    /// `BENCH_modes.json` high-water gate measures.
    fn submit_values(
        &self,
        t: &SymTridiag,
        scope: &Scope<'_>,
        ks: KeySpace,
    ) -> Result<ValuesPending, DcError> {
        let n = t.n();
        let nb = self.opts.nb.max(1);
        let orgnrm = t.max_norm();
        let scale = if orgnrm > 0.0 { 1.0 / orgnrm } else { 1.0 };

        let tree = Arc::new(PartitionTree::build(n, self.opts.min_part));
        let mut betas = vec![0.0f64; tree.nodes.len()];
        for &m in &tree.merges_postorder() {
            let node = &tree.nodes[m];
            betas[m] = t.e[node.off + node.n1 - 1] * scale;
        }
        let cuts: Vec<usize> = tree.cuts();

        let d = SharedData::new(t.d.clone());
        let e = SharedData::new(t.e.clone());
        let lam = SharedData::new(vec![0.0f64; n]);
        let cells: Arc<Vec<ValueCell>> = Arc::new(
            (0..tree.nodes.len())
                .map(|_| ValueCell::default())
                .collect(),
        );

        let key_node = move |id: usize| DataKey::new(ks.node, id as u64);
        let use_gatherv = self.opts.use_gatherv;
        let key_x = move |col: usize| DataKey::new(ks.x, col as u64);
        let key_scale = DataKey::new(ks.scale, 0);

        #[cfg(feature = "access-check")]
        {
            let node_keys: Vec<DataKey> = (0..tree.nodes.len()).map(key_node).collect();
            let mut scale_and_nodes = vec![key_scale];
            scale_and_nodes.extend_from_slice(&node_keys);
            d.bind_keys(&scale_and_nodes);
            e.bind_keys(&scale_and_nodes);
            let mut cols_and_nodes: Vec<DataKey> = (0..n).map(key_x).collect();
            cols_and_nodes.extend_from_slice(&node_keys);
            lam.bind_keys(&cols_and_nodes);
        }

        // ---- Scale T + rank-one tears (identical to the full graph).
        {
            let (d, e) = (d.clone(), e.clone());
            let cuts = cuts.clone();
            scope
                .task("Scale")
                .high_priority()
                .write(key_scale)
                .spawn(move || {
                    // SAFETY: first task to touch d/e; leaves wait on the key.
                    let ds = unsafe { d.slice_mut() };
                    let es = unsafe { e.slice_mut() };
                    if scale != 1.0 {
                        ds.iter_mut().for_each(|v| *v *= scale);
                        es.iter_mut().for_each(|v| *v *= scale);
                    }
                    for &c in &cuts {
                        let b = es[c - 1].abs();
                        ds[c - 1] -= b;
                        ds[c] -= b;
                    }
                });
        }

        // ---- leaves: QR iteration accumulating only the 2×nm row block.
        for &l in &tree.leaves() {
            let node = &tree.nodes[l];
            let (off, nm) = (node.off, node.n);
            let (d, e) = (d.clone(), e.clone());
            let cells = cells.clone();
            scope
                .task("STEDC")
                .high_priority()
                .read(key_scale)
                .write(key_node(l))
                .spawn_try(move || -> Result<(), DcError> {
                    // SAFETY: exclusive d block per leaf; the e block is
                    // copied out under a shared read (no writer after
                    // Scale).
                    let db = unsafe { d.range_mut(off..off + nm) };
                    let eb = unsafe { e.range(off..off + nm - 1) }.to_vec();
                    let rows = solve_leaf_values(db, eb, off)?;
                    *cells[l].rows.lock().unwrap() = Some(rows);
                    *cells[l].idxq.lock().unwrap() = Some(Arc::new((0..nm).collect()));
                    Ok(())
                });
        }

        self.level_barrier(scope)?;

        // ---- merges, bottom-up: deflation → pass-1 panels → ReduceW →
        // pass-2 row-update panels.
        for level in self.merge_groups(&tree) {
            for &m in &level {
                let node = &tree.nodes[m];
                let (off, nm, n1) = (node.off, node.n, node.n1);
                let (lc, rc) = node.children.unwrap();
                let beta = betas[m];
                let npanels = nm.div_ceil(nb);

                // ComputeDeflation: consumes the children's boundary rows.
                {
                    let d = d.clone();
                    let cells = cells.clone();
                    scope
                        .task("ComputeDeflation")
                        .high_priority()
                        .read(key_node(lc))
                        .read(key_node(rc))
                        .read_write(key_node(m))
                        .spawn_try(move || -> Result<(), DcError> {
                            // SAFETY: epoch-exclusive access to the d block.
                            let db = unsafe { d.range_mut(off..off + nm) };
                            let rows_l = cells[lc].take_rows();
                            let rows_r = cells[rc].take_rows();
                            let idxq_l = cells[lc].idxq();
                            let idxq_r = cells[rc].idxq();
                            let rd = deflate_rows(
                                db, n1, beta, off, &rows_l, &rows_r, &idxq_l, &idxq_r,
                            )?;
                            // Deflated slots pass their row entries through
                            // unchanged; the pass-2 panels overwrite j < k.
                            *cells[m].rows.lock().unwrap() = Some(BoundaryRows {
                                first: rd.w_first.clone(),
                                last: rd.w_last.clone(),
                            });
                            *cells[m].partials.lock().unwrap() = vec![None; npanels];
                            *cells[m].rd.lock().unwrap() = Some(Arc::new(rd));
                            Ok(())
                        });
                }

                // Pass-1 panels: secular roots + running local-W partial.
                for p in 0..npanels {
                    let s0 = p * nb;
                    let s1 = ((p + 1) * nb).min(nm);
                    let lam = lam.clone();
                    let cells = cells.clone();
                    panel_task(scope, "LAED4", key_node(m), use_gatherv)
                        .write(key_x(off + s0))
                        .spawn_try(move || -> Result<(), DcError> {
                            let rd = cells[m].rd();
                            let k = rd.defl.k;
                            let j0 = s0.min(k);
                            let j1 = s1.min(k);
                            if j0 >= j1 {
                                return Ok(());
                            }
                            // SAFETY: exclusive lam range per panel.
                            let lo = unsafe { lam.range_mut(off + j0..off + j1) };
                            let part = secular_rows_panel(&rd.defl, j0..j1, lo, off)?;
                            cells[m].partials.lock().unwrap()[p] = Some(part);
                            Ok(())
                        });
                }

                // ReduceW: join partials into ẑ, finalize the block diagonal.
                {
                    let (d, lam) = (d.clone(), lam.clone());
                    let cells = cells.clone();
                    scope
                        .task("ReduceW")
                        .high_priority()
                        .read_write(key_node(m))
                        .spawn(move || {
                            let rd = cells[m].rd();
                            let k = rd.defl.k;
                            if k > 0 {
                                let parts: Vec<Vec<f64>> = cells[m]
                                    .partials
                                    .lock()
                                    .unwrap()
                                    .iter_mut()
                                    .filter_map(|p| p.take())
                                    .collect();
                                let zhat = dcst_secular::reduce_w(&rd.defl.w, &parts);
                                *cells[m].zhat.lock().unwrap() = Some(Arc::new(zhat));
                            }
                            // SAFETY: epoch-exclusive d block; lam read-only now.
                            let db = unsafe { d.range_mut(off..off + nm) };
                            let ls = unsafe { lam.range(off..off + k) };
                            let idxq = finalize_d(&rd.defl, ls, db);
                            *cells[m].idxq.lock().unwrap() = Some(Arc::new(idxq));
                            *cells[m].stat.lock().unwrap() = Some(MergeStat { n: nm, n1, k });
                        });
                }

                // Pass-2 panels: update the merged boundary rows. The root's
                // rows have no reader, so its whole group is elided — a
                // size-dependent (not matrix-dependent) asymmetry, like the
                // panel counts themselves.
                if m != tree.root {
                    for p in 0..npanels {
                        let s0 = p * nb;
                        let s1 = ((p + 1) * nb).min(nm);
                        let cells = cells.clone();
                        panel_task(scope, "RowUpdate", key_node(m), use_gatherv).spawn_try(
                            move || -> Result<(), DcError> {
                                let rd = cells[m].rd();
                                let k = rd.defl.k;
                                let j0 = s0.min(k);
                                let j1 = s1.min(k);
                                if j0 >= j1 {
                                    return Ok(());
                                }
                                let zhat = cells[m].zhat();
                                // No shared-buffer borrows: the kernel re-solves
                                // the secular roots from the node's own deflation
                                // state (pass 2 of the two-pass scheme).
                                let (f, l) = row_update_panel(&rd, &zhat, j0..j1, off)?;
                                let mut rows = cells[m].rows.lock().unwrap();
                                let rows = rows.as_mut().expect("rows initialized by deflation");
                                rows.first[j0..j1].copy_from_slice(&f);
                                rows.last[j0..j1].copy_from_slice(&l);
                                Ok(())
                            },
                        );
                    }
                }
            }
            self.level_barrier(scope)?;
        }

        // ---- final sort + scale back (values only: a gather on d).
        let root = tree.root;
        if !tree.nodes[root].is_leaf() {
            let d = d.clone();
            let cells = cells.clone();
            scope
                .task("SortEigenvalues")
                .high_priority()
                .read_write(key_node(root))
                .spawn(move || {
                    let idxq = cells[root].idxq();
                    // SAFETY: epoch-exclusive d.
                    let ds = unsafe { d.slice_mut() };
                    let tmp: Vec<f64> = idxq.iter().map(|&s| ds[s]).collect();
                    ds.copy_from_slice(&tmp);
                });
        }
        {
            let d = d.clone();
            scope
                .task("ScaleBack")
                .high_priority()
                .read_write(key_node(root))
                .spawn(move || {
                    if scale != 1.0 {
                        // SAFETY: epoch-exclusive d.
                        let ds = unsafe { d.slice_mut() };
                        ds.iter_mut().for_each(|x| *x *= orgnrm);
                    }
                });
        }

        Ok(ValuesPending { n, tree, cells, d })
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
            extra_workspace: true,
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
    fn trace_contains_expected_kernels() {
        let t = MatrixType::Type4.generate(96, 5);
        let (eig, _stats, trace) = TaskFlowDc::new(opts(16, 8, 2)).solve_traced(&t).unwrap();
        check(&t, &eig, 1e-12);
        let names: std::collections::HashSet<&str> = trace.records.iter().map(|r| r.name).collect();
        for expect in [
            "Scale",
            "STEDC",
            "ComputeDeflation",
            "PermuteV",
            "LAED4",
            "ComputeLocalW",
            "ReduceW",
            "CopyBackDeflated",
            "ComputeVect",
            "ScaleBack",
        ] {
            assert!(names.contains(expect), "missing kernel {expect}");
        }
        // The update shows up under its dense name or, when the policy
        // picks the compressed path, the structured rename.
        assert!(
            names.contains("UpdateVect") || names.contains("UpdateVectStructured"),
            "missing kernel UpdateVect(Structured)"
        );
    }

    #[test]
    fn dag_is_matrix_independent() {
        // Same size, very different deflation behaviour → identical DAG.
        let t2 = MatrixType::Type2.generate(64, 3);
        let t4 = MatrixType::Type4.generate(64, 3);
        let solver = TaskFlowDc::new(opts(16, 8, 2));
        let (_, dag2) = solver.solve_with_dag(&t2).unwrap();
        let (_, dag4) = solver.solve_with_dag(&t4).unwrap();
        assert_eq!(dag2.num_nodes(), dag4.num_nodes());
        assert_eq!(dag2.num_edges(), dag4.num_edges());
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
    fn extra_workspace_toggle_is_equivalent() {
        let t = MatrixType::Type3.generate(90, 11);
        let mut o = opts(16, 8, 2);
        let a = TaskFlowDc::new(o).solve(&t).unwrap();
        o.extra_workspace = false;
        let b = TaskFlowDc::new(o).solve(&t).unwrap();
        for (x, y) in a.values.iter().zip(&b.values) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn pending_submissions_share_one_runtime() {
        let rt = Runtime::new(2);
        let solver = TaskFlowDc::new(opts(16, 8, 2));
        let t1 = MatrixType::Type4.generate(80, 3);
        let t2 = MatrixType::Type2.generate(96, 5);
        let p1 = solver.submit(&t1, &rt).unwrap();
        let p2 = solver.submit_priority(&t2, &rt).unwrap();
        let (e2, _) = p2.wait().unwrap();
        let (e1, _) = p1.wait().unwrap();
        check(&t1, &e1, 1e-12);
        check(&t2, &e2, 1e-12);
    }

    #[test]
    fn cancelled_pending_reports_cancelled() {
        // One worker, blocked by a decoy task in the default scope: the
        // solve's tasks cannot start, so cancel() must skip all of them.
        let rt = Runtime::new(1);
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        rt.task("decoy").spawn(move || {
            rx.recv().unwrap();
        });
        let solver = TaskFlowDc::new(opts(16, 8, 1));
        let t = MatrixType::Type4.generate(64, 9);
        let pending = solver.submit(&t, &rt).unwrap();
        let handle = pending.cancel_handle();
        handle.cancel();
        tx.send(()).unwrap();
        match pending.wait() {
            Err(DcError::Cancelled) => {}
            other => panic!("expected DcError::Cancelled, got {:?}", other.map(|_| ())),
        }
        rt.wait().unwrap();
    }

    #[test]
    fn batch_values_are_bit_identical_to_solo() {
        let solver = TaskFlowDc::new(opts(12, 8, 2));
        let ts: Vec<SymTridiag> = (0..4)
            .map(|i| MatrixType::Type4.generate(48 + 8 * i, 3 + i as u64))
            .collect();
        let batch = solver.solve_batch(&ts);
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
        let pg = solver.submit(&good, &rt).unwrap();
        // NaN input is rejected at validation (before submission)...
        assert!(matches!(
            solver.submit(&bad, &rt).map(|_| ()),
            Err(DcError::NonFinite)
        ));
        // ...and the concurrent good submission is unaffected.
        let (eig, _) = pg.wait().unwrap();
        check(&good, &eig, 1e-12);
    }
}
