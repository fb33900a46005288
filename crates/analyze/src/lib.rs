//! `dcst-analyze` — the workspace's own static analyzer.
//!
//! A dependency-free lexer + item-level parser for Rust source, and a
//! rule engine with one entry point, [`rules::run_full`]: the per-file
//! lint rules (unsafe-safety, static-mut, sleep-poll, pool-sync —
//! [`rules::legacy`]) plus the three analysis passes: atomic-ordering
//! manifest conformance ([`rules::orderings`]), hot-path purity
//! ([`rules::hotpath`]), and the static task-footprint lint
//! ([`rules::footprint`]).
//!
//! The tree is walked and parsed exactly once ([`workspace::Workspace`]);
//! every rule reads the same shared [`parser::ParsedFile`]s. `xtask`
//! drives it (`cargo run -p xtask -- analyze`).

pub mod lexer;
pub mod manifest;
pub mod parser;
pub mod rules;
pub mod workspace;

pub use rules::{run_full, Violation};
pub use workspace::Workspace;
