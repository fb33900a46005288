//! Eigensolver-as-a-service: the `dcst serve` batch daemon.
//!
//! A long-lived server owning ONE persistent task-flow
//! `dcst_runtime::Runtime`: clients connect over TCP and exchange
//! line-delimited JSON — one request object per line in, one response
//! object per line out, parsed with the workspace's own `jsonv` (no
//! external dependencies). Each solve request is submitted as an
//! independent task graph in its own runtime scope
//! ([`dcst_core::PendingSolve`]), so concurrent requests interleave on
//! the shared worker pool, a failed or cancelled request never poisons
//! its neighbours, and a `cancel` verb maps onto the scope's
//! DAG-cancellation latch.
//!
//! The service layer adds what a solver library cannot: **admission
//! control** (a request that cannot run — a bad spec, an order over
//! `max_n`, an unrecordable trace — is refused on the connection's reader
//! before it is admitted; then a bounded in-flight count plus the pool's
//! ready-queue high-water gauge shed load with a typed `busy` error
//! instead of queueing unboundedly), **priority classes** (a `"priority": "high"`
//! request rides the pool's high-priority injector lane end to end),
//! a **fused batch verb** (many small problems submitted before any is
//! waited on, so their panel tasks share the worker stream; a `solve` is
//! a one-problem batch with a one-envelope reply, run by the same job
//! body), a
//! **metrics verb** exposing the scheduler-counter and kernel-counter
//! registries, and optional **per-request Chrome traces**.
//!
//! See `DESIGN.md` ("Service layer") for the protocol grammar and
//! `tests/serve_protocol.rs` for the concurrency/fault harness.

mod client;
pub mod protocol;
mod server;

pub use client::Client;
pub use server::{Server, ServerConfig};
