//! Dense column-major linear-algebra kernels built from scratch.
//!
//! This crate is the BLAS-like substrate of the workspace: a column-major
//! [`Matrix`] container plus free functions operating on `(slice, leading
//! dimension)` pairs in the LAPACK style, so sub-matrices can be addressed
//! without a dedicated view type. The GEMM is register-tiled with one
//! explicit-FMA micro-kernel per SIMD level (`kernel`): A is read in
//! place, only B is packed, into a per-thread recycled buffer
//! ([`workspace_growth_events`] exposes the allocation counter). The crate
//! owns no threads: the solvers parallelise by running [`gemm`] inside
//! forked panel tasks of the runtime, and [`gemm_par`] — scoped threads
//! over column panels of C — exists only as the benchmark's reference path.

mod blas;
mod check;
pub mod failpoints;
mod kernel;
pub mod lowrank;
mod matrix;
mod merge;
pub mod metrics;
pub mod simd;
pub mod util;
mod workspace;

pub use blas::{axpy, dot, gemm, gemm_par, gemv, nrm2, scal};
pub use check::{orthogonality_error, residual_error, symmetric_residual_error};
pub use lowrank::{set_update_policy, update_policy, UpdatePolicy};
pub use matrix::Matrix;
pub use merge::merge_perm;
pub use simd::{set_simd_level, simd_level, SimdLevel};
pub use workspace::workspace_growth_events;
