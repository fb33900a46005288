//! The per-file lint rules, running on the lexer-backed stripper (which
//! fixed the raw-string / truncated-literal mishandling of the regex-era
//! state machine):
//!
//! * **static-mut** — `static mut` items are banned outright. rustc's
//!   `static_mut_refs` lint flags only references to a `static mut`, not
//!   its declaration or a use by value, and no lint bans the declaration,
//!   so this rule stays.
//! * **pool-sync** — `crates/runtime/src/pool.rs` must obtain every sync
//!   primitive through `crate::dcst_sync` so loom-lite can swap them out.
//!   Clippy's `disallowed-types` cannot say this: `dcst_sync` `pub use`s
//!   `parking_lot::Mutex` and the other primitives, so the type a routed
//!   import names is the banned type itself.
//!
//! Sleep-based polling in the runtime is clippy's `disallowed-methods`
//! (`crates/runtime/clippy.toml`), which resolves paths.

use super::{allowed, Violation};
use crate::workspace::SourceFile;

pub fn check_file(file: &SourceFile) -> Vec<Violation> {
    let rel = file.rel.as_str();
    let raw = &file.parsed.raw_lines;
    let stripped = &file.parsed.stripped;
    debug_assert_eq!(raw.len(), stripped.len());
    let mut out = Vec::new();

    // --- static-mut (workspace-wide) ---
    for (i, code) in stripped.iter().enumerate() {
        let line = i as u32 + 1;
        if has_static_mut(code) && !allowed(raw, "static-mut", line) {
            out.push(Violation {
                file: rel.to_string(),
                line,
                rule: "static-mut",
                message: "`static mut` is banned (use atomics or a lock)".into(),
            });
        }
    }

    // --- pool-sync (the worker pool must route sync through dcst_sync) ---
    if rel == "crates/runtime/src/pool.rs" {
        const BANNED: &[&str] = &[
            "parking_lot::",
            "crossbeam_deque::",
            "std::sync::Mutex",
            "std::sync::Condvar",
            "std::sync::RwLock",
            "std::sync::atomic",
        ];
        for (i, code) in stripped.iter().enumerate() {
            let line = i as u32 + 1;
            for pat in BANNED {
                if code.contains(pat) && !allowed(raw, "pool-sync", line) {
                    out.push(Violation {
                        file: rel.to_string(),
                        line,
                        rule: "pool-sync",
                        message: format!(
                            "direct `{pat}` use in the pool; import it from \
                             `crate::dcst_sync` so the model checker can instrument it"
                        ),
                    });
                }
            }
        }
    }

    out
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn has_static_mut(code: &str) -> bool {
    let mut pos = 0;
    while let Some(off) = code[pos..].find("static") {
        let start = pos + off;
        let end = start + "static".len();
        let bytes = code.as_bytes();
        let left_ok = start == 0 || (!is_ident_byte(bytes[start - 1]) && bytes[start - 1] != b'\'');
        let right_is_mut =
            code[end..].trim_start().starts_with("mut ") || code[end..].trim_start() == "mut";
        if left_ok && right_is_mut {
            return true;
        }
        pos = end;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(rel: &str, src: &str) -> Vec<String> {
        check_file(&SourceFile::from_source(rel, src))
            .into_iter()
            .map(|v| format!("{}:{}", v.rule, v.line))
            .collect()
    }

    #[test]
    fn static_mut_in_comments_and_strings_is_ignored() {
        let src = "// this static mut X is prose\nlet s = \"static mut X\";\n";
        assert!(lint("a.rs", src).is_empty());
    }

    #[test]
    fn static_mut_in_raw_strings_and_char_quotes_is_ignored() {
        // Regression: raw strings and quote-bearing char literals must not
        // desynchronize the stripper.
        let src = "let a = r#\"static mut X\"#;\nlet b = '\"';\nstatic mut C: u8 = 0;\n";
        assert_eq!(lint("a.rs", src), vec!["static-mut:3"]);
        let src2 = "let a = r##\"static mut\"##;\nlet b = br#\"static mut\"#;\n";
        assert!(lint("a.rs", src2).is_empty());
    }

    #[test]
    fn truncated_literal_does_not_shift_line_numbers() {
        // Regression: the old stripper swallowed the newline of an
        // unterminated `'\` escape, shifting every later violation line.
        let src = "let a = '\\\nstatic mut X: u8 = 0;\n";
        assert_eq!(lint("a.rs", src), vec!["static-mut:2"]);
    }

    #[test]
    fn static_mut_is_flagged_but_static_lifetime_is_not() {
        assert_eq!(
            lint("a.rs", "static mut X: u32 = 0;\n"),
            vec!["static-mut:1"]
        );
        assert!(lint("a.rs", "fn f(x: &'static mut u32) {}\n").is_empty());
        assert!(lint("a.rs", "static X: u32 = 0;\n").is_empty());
    }

    #[test]
    fn pool_sync_primitives_must_come_from_dcst_sync() {
        let src = "use parking_lot::Mutex;\nuse std::sync::Arc;\n";
        assert_eq!(lint("crates/runtime/src/pool.rs", src), vec!["pool-sync:1"]);
        assert!(lint("crates/runtime/src/share.rs", src).is_empty());
    }

    #[test]
    fn allow_marker_waives_a_violation() {
        let src = "// xtask-lint: allow(static-mut) — FFI shim\nstatic mut X: u32 = 0;\n";
        assert!(lint("a.rs", src).is_empty());
    }
}
