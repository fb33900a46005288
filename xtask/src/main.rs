//! Workspace maintenance tasks — a thin driver over the `dcst-analyze`
//! static-analysis crate (which owns the lexer, parser, and all rules).
//!
//! * `cargo run -p xtask -- analyze` — the unsafe-audit lint rules
//!   (unsafe-safety, static-mut, sleep-poll, pool-sync) plus the three
//!   analysis passes (atomic-ordering manifest conformance against
//!   `specs/orderings.toml`, hot-path purity for `// dcst-hot` fns, and
//!   the static task-footprint lint). Options:
//!   * `--report FILE` — also write the violation list to FILE (always
//!     written, even when empty, so CI can upload it as an artifact).
//!   * `--emit-orderings` — print a manifest skeleton for every atomic
//!     site currently in scope, for classifying new sites.
//!
//! The tree is parsed exactly once; any violation exits non-zero. Waive a violation on line N with `xtask-lint:
//! allow(<rule>)` in a comment on line N or N-1 — sparingly, with
//! justification (the hot-path rule demands one).

use dcst_analyze::rules::orderings;
use dcst_analyze::{rules, Violation, Workspace};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => run(&args[1..]),
        _ => {
            eprintln!("usage: cargo run -p xtask -- analyze [--report FILE] [--emit-orderings]");
            ExitCode::from(2)
        }
    }
}

fn run(opts: &[String]) -> ExitCode {
    let mut report: Option<PathBuf> = None;
    let mut emit_orderings = false;
    let mut it = opts.iter();
    while let Some(opt) = it.next() {
        match opt.as_str() {
            "--report" => match it.next() {
                Some(p) => report = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--report needs a file argument");
                    return ExitCode::from(2);
                }
            },
            "--emit-orderings" => emit_orderings = true,
            other => {
                eprintln!("unknown option `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let root = workspace_root();
    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    if emit_orderings {
        print!("{}", orderings::emit_skeleton(&ws));
        return ExitCode::SUCCESS;
    }

    let manifest_path = root.join(orderings::MANIFEST_PATH);
    let manifest = std::fs::read_to_string(&manifest_path)
        .map_err(|e| format!("{}: {e}", manifest_path.display()));
    let violations = rules::run_full(&ws, manifest.as_deref().map_err(String::clone));

    if let Some(path) = &report {
        if let Err(e) = write_report(path, &violations) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    if violations.is_empty() {
        println!("xtask analyze: {} files scanned, clean", ws.files.len());
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("{v}");
        }
        eprintln!(
            "xtask analyze: {} violation(s) in {} files scanned",
            violations.len(),
            ws.files.len()
        );
        ExitCode::FAILURE
    }
}

fn write_report(path: &std::path::Path, violations: &[Violation]) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut f = std::fs::File::create(path)?;
    for v in violations {
        writeln!(f, "{v}")?;
    }
    writeln!(f, "total: {} violation(s)", violations.len())?;
    Ok(())
}

fn workspace_root() -> PathBuf {
    // xtask lives at <root>/xtask, so the workspace root is one level up.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask has a parent directory")
        .to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The real tree must stay clean under the full rule set — the same
    /// check CI runs, kept as a test so `cargo test -p xtask` fails fast
    /// on a violation introduced anywhere in the workspace.
    #[test]
    fn workspace_is_clean_under_full_analysis() {
        let root = workspace_root();
        let ws = Workspace::load(&root).expect("workspace loads");
        assert!(
            ws.files
                .iter()
                .any(|f| f.rel == "crates/runtime/src/pool.rs"),
            "walker must see the runtime pool"
        );
        let manifest =
            std::fs::read_to_string(root.join(orderings::MANIFEST_PATH)).map_err(|e| e.to_string());
        let violations = rules::run_full(&ws, manifest.as_deref().map_err(String::clone));
        assert!(
            violations.is_empty(),
            "workspace has violations:\n{}",
            violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    /// The orderings manifest must stay in lock-step with the tree: the
    /// scope must actually contain atomic sites (else the rule is
    /// vacuous) and the checked-in manifest must parse.
    #[test]
    fn orderings_manifest_parses_and_scope_is_nonempty() {
        let root = workspace_root();
        let ws = Workspace::load(&root).expect("workspace loads");
        let text = std::fs::read_to_string(root.join(orderings::MANIFEST_PATH))
            .expect("specs/orderings.toml exists");
        let sites = dcst_analyze::manifest::parse(&text).expect("manifest parses");
        assert!(!sites.is_empty(), "manifest must not be empty");
        assert!(
            !orderings::find_sites(&ws).is_empty(),
            "scope must contain atomic sites (runtime + vendored deque)"
        );
    }
}
