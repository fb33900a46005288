//! `dcst-analyze` — the workspace's own static analyzer.
//!
//! A dependency-free lexer + item-level parser for Rust source, and a
//! rule engine with one entry point, [`rules::run_full`]: the per-file
//! lint rules (static-mut, pool-sync — [`rules::legacy`])
//! plus the two analysis passes: atomic-ordering manifest conformance
//! ([`rules::orderings`]) and hot-path purity ([`rules::hotpath`]).
//!
//! What clippy and the runtime already check is not repeated here: a
//! `// SAFETY:` comment on every `unsafe` block and impl is clippy's
//! `undocumented_unsafe_blocks` (denied workspace-wide), sleep-based
//! polling in the runtime is clippy's `disallowed-methods`
//! (`crates/runtime/clippy.toml`), and every buffer borrow a task takes is
//! checked against its declared accesses at run time by the runtime's
//! shadow tracker, which every debug build runs.
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
