//! Task-flow Divide & Conquer symmetric tridiagonal eigensolver.
//!
//! This crate is the paper's contribution: Cuppen's divide & conquer
//! algorithm expressed as a *sequential task flow* over panel-granular
//! tasks — `ComputeDeflation → {PermuteV | LAED4}ₚ → ReduceW →
//! {UpdateVect}ₚ` per merge, no merge keeping its k×k secular eigenvector
//! matrix — scheduled out of order by the [`dcst_runtime`] QUARK-analogue,
//! so independent merges of
//! the tree overlap and the quadratic kernels (secular equation,
//! stabilization) parallelize alongside the cubic ones (eigenvector update
//! GEMMs). A merge moves only its `k` non-deflated eigenvector columns: a
//! deflated column is renamed through the node's slot→column map, and the
//! map is applied once, by the root's column sort.
//!
//! The algorithm is stated once, as that task graph. The four solver
//! variants are four *scheduling disciplines* over it — the paper's own
//! framing of its comparators — so they share not only the kernels but
//! every operand and operation order, and agree to the last bit:
//!
//! * [`TaskFlowDc`] — the paper's solver: the graph out of order on the
//!   worker pool;
//! * [`SequentialDc`] — LAPACK `dstedc` shape: the graph run *inline*,
//!   each task body on the calling thread at submission (a sequential
//!   task flow executed in submission order is the sequential algorithm);
//! * [`ForkJoinDc`] — "LAPACK + multithreaded BLAS" shape (the Intel MKL
//!   comparator): inline, except that each merge's GEMM panel groups fork
//!   onto the pool and join before the flow continues;
//! * [`LevelParallelDc`] — ScaLAPACK `pdstedc` shape: the graph on the
//!   pool with a barrier after the leaves and after every tree level.
//!
//! ```
//! use dcst_core::{DcOptions, TaskFlowDc, TridiagEigensolver};
//! use dcst_tridiag::SymTridiag;
//!
//! let t = SymTridiag::toeplitz121(64);
//! let eig = TaskFlowDc::new(DcOptions::default()).solve(&t).unwrap();
//! assert_eq!(eig.values.len(), 64);
//! ```

mod merge;
mod opcount;
mod seq;
mod structured;
mod taskflow;
mod tree;
mod values;

pub use merge::MergeStat;
pub use opcount::{merge_cost_model, solve_cost_model, MergeCosts};
pub use seq::{ForkJoinDc, LevelParallelDc, SequentialDc};
pub use taskflow::{PendingSolve, TaskFlowDc};
pub use tree::{PartitionTree, TreeNode};

use dcst_matrix::Matrix;
use dcst_mrrr::{MrrrError, MrrrSolver};
use dcst_qriter::QrError;
use dcst_runtime::{Runtime, RuntimeError};
use dcst_secular::SecularError;
use dcst_tridiag::SymTridiag;

/// Eigen-decomposition `T = V Λ Vᵀ`: `values` ascending, `vectors` columns
/// in matching order.
#[derive(Clone, Debug)]
pub struct Eigen {
    pub values: Vec<f64>,
    pub vectors: Matrix,
}

/// What part of the eigen-decomposition a solve computes.
///
/// * [`Full`](SolveMode::Full) — values and the complete n×n eigenvector
///   matrix (the default; unchanged behaviour).
/// * [`ValuesOnly`](SolveMode::ValuesOnly) — eigenvalues only. Instead of
///   accumulating n×n eigenvector matrices the D&C drivers propagate two
///   O(n) boundary rows per node (first and last row of the node's
///   eigenvector matrix — exactly what the parent merge's z-vector needs),
///   cutting internal state from O(n²) to O(n)-class. `Eigen::vectors`
///   comes back as an `n × 0` matrix.
/// * [`Subset`](SolveMode::Subset) — all eigenvalues plus eigenvectors for
///   the ascending (0-based, inclusive) index range `il..=iu` only: the
///   root merge's assembly/GEMM/back-transform are pruned to those k
///   columns, and when `k ≪ n` the driver falls back to the MRRR crate's
///   Θ(n·k) subset computation. `Eigen::values` then holds the k selected
///   values and `Eigen::vectors` is n×k.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SolveMode {
    #[default]
    Full,
    ValuesOnly,
    Subset {
        il: usize,
        iu: usize,
    },
}

/// A subset solve falls back to MRRR bisection when `16·k ≤ n`: below
/// that, pruning only the root merge cannot beat Θ(n·k) bisection.
pub(crate) const SUBSET_FALLBACK_RATIO: usize = 16;

/// Tuning options shared by every D&C variant.
#[derive(Clone, Copy, Debug)]
pub struct DcOptions {
    /// Maximum leaf size before the recursion stops (the paper's minimal
    /// partition size; LAPACK's `smlsiz` is 25, the paper demos 300).
    pub min_part: usize,
    /// Panel width `nb`: tasks operate on `nb`-column panels.
    pub nb: usize,
    /// Worker threads (task-flow, fork-join GEMMs, level-parallel).
    pub threads: usize,
    /// Use the paper's GATHERV qualifier for panel tasks (default). When
    /// false, panel tasks declare INOUT on the merge's node key instead,
    /// which serializes them — the fork/join behaviour the paper's runtime
    /// extension removes. Exposed for the ablation bench.
    pub use_gatherv: bool,
    /// What to compute: full decomposition, eigenvalues only, or an
    /// eigenvector subset. See [`SolveMode`].
    pub mode: SolveMode,
}

impl Default for DcOptions {
    fn default() -> Self {
        DcOptions {
            min_part: 32,
            nb: 64,
            threads: dcst_runtime::cpu_count(),
            use_gatherv: true,
            mode: SolveMode::Full,
        }
    }
}

/// Errors from the D&C drivers.
#[derive(Debug)]
pub enum DcError {
    /// Input contained NaN/Inf.
    NonFinite,
    /// The QR-iteration leaf solver failed.
    Leaf(QrError),
    /// The secular-equation solver failed.
    Secular(SecularError),
    /// A kernel produced non-finite values mid-computation: `stage` names
    /// the merge kernel that detected the corruption, `off` the global row
    /// offset of the merge node it happened in.
    Breakdown { stage: &'static str, off: usize },
    /// A task failed inside the runtime in a way the solver could not
    /// attribute to a numerical kernel (e.g. a panic).
    Task(RuntimeError),
    /// A [`SolveMode::Subset`] index range is empty or out of bounds —
    /// user input, reported rather than asserted.
    InvalidRange { il: usize, iu: usize, n: usize },
    /// The MRRR fallback for a small subset failed.
    Subset(MrrrError),
    /// The solve was cancelled before it completed (a pending solve's
    /// [`taskflow::PendingSolve`] scope was cancelled mid-flight).
    Cancelled,
}

impl std::fmt::Display for DcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DcError::NonFinite => write!(f, "matrix contains NaN or infinite entries"),
            DcError::Leaf(e) => write!(f, "leaf solver failed: {e}"),
            DcError::Secular(e) => write!(f, "secular solver failed: {e}"),
            DcError::Breakdown { stage, off } => write!(
                f,
                "non-finite values mid-computation in '{stage}' at merge offset {off}"
            ),
            DcError::Task(e) => write!(f, "task failure: {e}"),
            DcError::InvalidRange { il, iu, n } => write!(
                f,
                "eigenvalue index range {il}:{iu} invalid for matrix of order {n} \
                 (need il <= iu < n, 0-based)"
            ),
            DcError::Subset(e) => write!(f, "subset fallback failed: {e}"),
            DcError::Cancelled => write!(f, "solve cancelled"),
        }
    }
}

impl std::error::Error for DcError {}

impl DcError {
    /// Translate block-local coordinates (leaf rows, merge root indices) to
    /// global matrix coordinates by adding the node's row offset.
    pub fn with_offset(self, off: usize) -> Self {
        match self {
            DcError::Leaf(e) => DcError::Leaf(e.with_offset(off)),
            DcError::Secular(e) => DcError::Secular(e.with_offset(off)),
            other => other,
        }
    }
}

impl From<QrError> for DcError {
    fn from(e: QrError) -> Self {
        DcError::Leaf(e)
    }
}

impl From<SecularError> for DcError {
    fn from(e: SecularError) -> Self {
        DcError::Secular(e)
    }
}

impl From<RuntimeError> for DcError {
    fn from(e: RuntimeError) -> Self {
        // A task body that failed with a typed DcError (spawn_try in the
        // graph builders) surfaces as that error; anything else — a panic
        // or a foreign error type — stays wrapped with the task name
        // attached.
        if e.is_cancelled() {
            return DcError::Cancelled;
        }
        match e.downcast::<DcError>() {
            Ok((_task, err)) => err,
            Err(e) => DcError::Task(e),
        }
    }
}

/// Validate a [`SolveMode::Subset`] range against the matrix order.
pub(crate) fn validate_subset(il: usize, iu: usize, n: usize) -> Result<(), DcError> {
    if il > iu || iu >= n {
        return Err(DcError::InvalidRange { il, iu, n });
    }
    Ok(())
}

/// True when a subset solve should route to the MRRR fallback: pruning
/// eigenvector work at the root merge only saves about half the vector
/// flops, so once `16·k ≤ n` MRRR's Θ(n·k) subset path wins outright.
pub(crate) fn subset_uses_fallback(il: usize, iu: usize, n: usize) -> bool {
    let k = iu - il + 1;
    SUBSET_FALLBACK_RATIO * k <= n
}

/// Solve the subset `il..=iu` via MRRR bisection + twisted factorizations
/// (exact-count contract), packaging the result as an [`Eigen`].
///
/// MRRR runs under the sequential discipline: its tasks execute on the
/// calling thread, so the one task that calls this uses exactly the worker
/// it was scheduled on.
pub(crate) fn subset_fallback(t: &SymTridiag, il: usize, iu: usize) -> Result<Eigen, DcError> {
    let rt = Runtime::inline(0);
    let solver = MrrrSolver::new(&rt);
    let (values, vectors) = solver.solve_range_exact(t, il, iu).map_err(|e| match e {
        MrrrError::NonFinite => DcError::NonFinite,
        MrrrError::InvalidRange { il, iu, n } => DcError::InvalidRange { il, iu, n },
        other => DcError::Subset(other),
    })?;
    Ok(Eigen { values, vectors })
}

/// Common interface over every tridiagonal eigensolver in the workspace.
pub trait TridiagEigensolver {
    /// Compute the full eigen-decomposition.
    fn solve(&self, t: &SymTridiag) -> Result<Eigen, DcError>;

    /// Human-readable solver name for experiment tables.
    fn name(&self) -> &'static str;
}

/// Per-solve statistics: one entry per merge node, bottom-up.
#[derive(Clone, Debug, Default)]
pub struct DcStats {
    pub merges: Vec<MergeStat>,
}

impl DcStats {
    /// Weighted average deflation ratio across merges (weights = merge
    /// sizes), the paper's matrix-dependence headline number.
    pub fn overall_deflation(&self) -> f64 {
        let tot: usize = self.merges.iter().map(|m| m.n).sum();
        if tot == 0 {
            return 0.0;
        }
        let defl: usize = self.merges.iter().map(|m| m.n - m.k).sum();
        defl as f64 / tot as f64
    }
}
