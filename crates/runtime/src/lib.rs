//! A QUARK-like sequential-task-flow (STF) runtime.
//!
//! The IPDPS'15 divide-and-conquer eigensolver is expressed as a *sequential
//! flow of tasks*: a master thread submits tasks in program order, each task
//! declaring how it accesses named data regions ([`DataKey`]s) — `INPUT`,
//! `OUTPUT`, `INOUT`, or the paper's `GATHERV` extension. The runtime infers
//! inter-task dependencies from those declarations (sequential-consistency
//! semantics) and executes tasks out of order on a work-stealing worker pool
//! as soon as their dependencies are satisfied.
//!
//! `GATHERV` is the qualifier the paper added to QUARK: several concurrent
//! writers to the *same* key that the programmer guarantees touch disjoint
//! parts of it. GatherV accesses commute with each other (no mutual
//! dependencies) but act as writers against everything before and after the
//! group, so a panel fan-out followed by a join needs only a constant number
//! of declared dependencies per task.
//!
//! A submitter states its flow through a [`Scope`] opened on the runtime:
//! the scope is the flow's dependency domain — keys are names within it —
//! and its failure/cancellation domain, and [`Scope::wait`] reports its
//! first failure. Any number of scopes share one worker pool.
//!
//! ```
//! use dcst_runtime::{DataKey, Runtime};
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use std::sync::Arc;
//!
//! let rt = Runtime::new(2);
//! let scope = rt.scope();
//! let k = DataKey::new(0, 0);
//! let hits = Arc::new(AtomicUsize::new(0));
//! for _ in 0..4 {
//!     let hits = hits.clone();
//!     // Four commuting partial writers...
//!     scope.task("partial").gatherv(k).spawn(move || {
//!         hits.fetch_add(1, Ordering::SeqCst);
//!     });
//! }
//! let hits2 = hits.clone();
//! // ...joined by one reader that sees all of them.
//! scope.task("join").read(k).spawn(move || {
//!     assert_eq!(hits2.load(Ordering::SeqCst), 4);
//! });
//! scope.wait().unwrap();
//! ```

#[cfg(debug_assertions)]
mod check;
mod dcst_sync;
mod deps;
pub mod jsonv;
mod metrics;
mod pool;
mod share;
mod trace;

pub use deps::{Access, AccessMode, DataKey};
pub use metrics::{RuntimeMetrics, WorkerMetrics};
pub use pool::{
    set_task_trace_name, BoxError, CancelHandle, FailureKind, Runtime, RuntimeError, Scope,
    TaskBuilder,
};
pub use share::SharedData;
pub use trace::{KernelStat, TaskRecord, Trace, WorkerTimeline};

/// The number of hardware threads this process may use, asked of the OS
/// once: `std::thread::available_parallelism` reads the affinity mask and
/// the cgroup quota on every call, tens of microseconds. Every default
/// thread count in the workspace comes from here.
pub fn cpu_count() -> usize {
    static COUNT: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *COUNT.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}
