//! Rank-one-update kernels for the divide & conquer merge phase.
//!
//! A merge combines two solved subproblems `T₁ = V₁D₁V₁ᵀ`, `T₂ = V₂D₂V₂ᵀ`
//! into the eigenproblem of `D + ρ z zᵀ` (the paper's Eq. (6)). This crate
//! provides the scalar/vector kernels of that reduction, mirroring LAPACK:
//!
//! * [`deflate`] — deflation detection, Givens pairing and 4-group
//!   permutation (`dlaed2` analogue);
//! * [`SecularProblem::solve_root`] — one root of a once-validated secular
//!   equation with accurately-computed pole distances (`dlaed4` analogue;
//!   [`solve_secular_root`] is the one-call form), and [`SecularPanel`],
//!   a run of roots solved in order, each warm-started from the one before;
//! * [`local_w_products`] / [`reduce_w`] — the Gu–Eisenstat ẑ
//!   recomputation, split the way the paper's `ComputeLocalW`/`ReduceW`
//!   tasks split it (`dlaed3` analogue);
//! * [`assemble_vectors`] — stable eigenvector assembly for a panel of
//!   secular roots; [`SecularGenerators`] does the same from the stored
//!   roots alone, a block of columns or ([`GeneratedX`]) one entry at a
//!   time, so a merge never keeps its k × k eigenvector matrix;
//! * [`secular_row_entries`] — what a values-only merge needs of such a
//!   vector (two dots over its norm), from the stored root alone.
//!
//! Everything here is sequential by design: the *parallelism* lives in
//! `dcst-core`, which calls these kernels from panel tasks.
//!
//! The O(k²) inner loops (secular sweeps, local-W column products, vector
//! normalization, the values-only row pass) are vectorized behind
//! [`SecularKernels`]: one generic body per kernel, compiled for AVX2 and
//! AVX-512 and picked through the workspace-wide `dcst_matrix::simd_level`
//! detector (the table's rows are what the conformance tests drive one by
//! one); the `*_scalar` entry points pin the original scalar bodies and
//! serve as test oracles and as the path `set_simd_level(Scalar)` selects
//! (the CLI's `DCST_FORCE_SCALAR=1`).

mod deflate;
mod roots;
mod simd;
pub mod structured;
mod vectors;

pub use deflate::{deflate, Deflation, DeflationInput, GivensRot, SlotType};
pub use roots::{
    secular_function, solve_secular_root, SecularError, SecularPanel, SecularProblem, SecularRoot,
};
pub use simd::{max_abs, max_abs_scalar};
#[doc(hidden)]
pub use simd::{RowSums, SecularKernels, SweepSums};
pub use structured::{
    compress_secular_x, estimate_offdiag_rank, leaf_size, rank_tolerance, StructuredX, TileLayout,
};
pub use vectors::{
    assemble_vectors, assemble_vectors_scalar, local_w_accumulate, local_w_products, reduce_w,
    secular_row_entries, secular_row_entries_scalar, ColumnNorms, GeneratedX, SecularGenerators,
};
