//! Umbrella crate for the task-flow Divide & Conquer symmetric tridiagonal
//! eigensolver workspace (IPDPS 2015 reproduction).
//!
//! Re-exports the public API of every sub-crate so downstream users can
//! depend on a single crate:
//!
//! ```
//! use dcst::prelude::*;
//!
//! let t = SymTridiag::toeplitz121(32);
//! let eig = TaskFlowDc::new(DcOptions::default()).solve(&t).unwrap();
//! assert_eq!(eig.values.len(), 32);
//! ```

pub use dcst_core as core;
pub use dcst_matrix as matrix;
pub use dcst_mrrr as mrrr;
pub use dcst_qriter as qriter;
pub use dcst_runtime as runtime;
pub use dcst_secular as secular;
pub use dcst_serve as serve;
pub use dcst_tridiag as tridiag;

/// The most common imports in one place.
pub mod prelude {
    pub use dcst_core::{
        DcOptions, Eigen, ForkJoinDc, LevelParallelDc, SequentialDc, SolveMode, TaskFlowDc,
        TridiagEigensolver,
    };
    pub use dcst_matrix::{orthogonality_error, residual_error, Matrix};
    pub use dcst_mrrr::MrrrSolver;
    pub use dcst_qriter::QrIteration;
    pub use dcst_runtime::Runtime;
    pub use dcst_tridiag::{MatrixType, SymTridiag};
}
