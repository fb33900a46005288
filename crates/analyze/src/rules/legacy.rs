//! The per-file lint rules, running on the lexer-backed stripper (which
//! fixed the raw-string / truncated-literal mishandling of the regex-era
//! state machine):
//!
//! * **unsafe-safety** — every `unsafe` block and `unsafe impl` must carry
//!   a `// SAFETY:` comment, trailing or in the window of lines above.
//!   `unsafe fn` declarations are exempt (the obligation sits at call
//!   sites; `clippy::missing_safety_doc` polices public ones).
//! * **static-mut** — `static mut` items are banned outright.
//! * **sleep-poll** — `sleep`-based polling is banned in `crates/runtime`
//!   (the scheduler must park on condvars, never poll).
//! * **pool-sync** — `crates/runtime/src/pool.rs` must obtain every sync
//!   primitive through `crate::dcst_sync` so loom-lite can swap them out.

use super::{allowed, Violation};
use crate::workspace::SourceFile;

pub fn check_file(file: &SourceFile) -> Vec<Violation> {
    let rel = file.rel.as_str();
    let raw = &file.parsed.raw_lines;
    let stripped = &file.parsed.stripped;
    debug_assert_eq!(raw.len(), stripped.len());
    let mut out = Vec::new();

    // --- unsafe-safety + static-mut (workspace-wide) ---
    for (i, code) in stripped.iter().enumerate() {
        let line = i as u32 + 1;
        for kind in unsafe_uses(code, stripped, i) {
            if kind == UnsafeKind::Fn {
                continue; // declarations carry a `# Safety` doc contract
            }
            if !has_safety_comment(raw, i) && !allowed(raw, "unsafe-safety", line) {
                out.push(Violation {
                    file: rel.to_string(),
                    line,
                    rule: "unsafe-safety",
                    message: format!(
                        "`unsafe {}` without a `// SAFETY:` comment (same line or \
                         within the few lines above)",
                        if kind == UnsafeKind::Impl {
                            "impl"
                        } else {
                            "block"
                        }
                    ),
                });
            }
        }
        if has_static_mut(code) && !allowed(raw, "static-mut", line) {
            out.push(Violation {
                file: rel.to_string(),
                line,
                rule: "static-mut",
                message: "`static mut` is banned (use atomics or a lock)".into(),
            });
        }
    }

    // --- sleep-poll (crates/runtime only) ---
    if rel.starts_with("crates/runtime/") {
        for (i, code) in stripped.iter().enumerate() {
            let line = i as u32 + 1;
            if has_word_call(code, "sleep") && !allowed(raw, "sleep-poll", line) {
                out.push(Violation {
                    file: rel.to_string(),
                    line,
                    rule: "sleep-poll",
                    message: "sleep-based polling is banned in the runtime; park on a \
                              condvar instead"
                        .into(),
                });
            }
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UnsafeKind {
    Block,
    Impl,
    Fn,
}

/// Classify each `unsafe` keyword on stripped line `i` by its following
/// token (which may sit on a later line).
fn unsafe_uses(code: &str, stripped: &[String], i: usize) -> Vec<UnsafeKind> {
    let mut found = Vec::new();
    let bytes = code.as_bytes();
    let mut pos = 0;
    while let Some(off) = code[pos..].find("unsafe") {
        let start = pos + off;
        let end = start + "unsafe".len();
        let left_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let right_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if left_ok && right_ok {
            let tail = next_token(&code[end..], stripped, i);
            found.push(match tail.as_deref() {
                Some("fn") => UnsafeKind::Fn,
                Some("impl") => UnsafeKind::Impl,
                _ => UnsafeKind::Block,
            });
        }
        pos = end;
    }
    found
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// First word-or-symbol token in `rest`, falling through to later stripped
/// lines when the current one ends.
fn next_token(rest: &str, stripped: &[String], i: usize) -> Option<String> {
    let mut sources: Vec<&str> = vec![rest];
    for line in stripped.iter().skip(i + 1).take(3) {
        sources.push(line);
    }
    for src in sources {
        let trimmed = src.trim_start();
        if trimmed.is_empty() {
            continue;
        }
        let word: String = trimmed
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if word.is_empty() {
            return Some(trimmed.chars().take(1).collect());
        }
        return Some(word);
    }
    None
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

fn has_word_call(code: &str, word: &str) -> bool {
    let mut pos = 0;
    while let Some(off) = code[pos..].find(word) {
        let start = pos + off;
        let end = start + word.len();
        let bytes = code.as_bytes();
        let left_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let right_is_call = code[end..].trim_start().starts_with('(');
        if left_ok && right_is_call {
            return true;
        }
        pos = end;
    }
    false
}

/// True when line `i` (0-based, raw text) carries a `SAFETY:` marker on
/// the same line or within the window of lines directly above it. The
/// window (rather than strict contiguity) lets one comment cover several
/// adjacent `unsafe` borrows it jointly justifies.
fn has_safety_comment(raw: &[String], i: usize) -> bool {
    const WINDOW: usize = 8;
    let lo = i.saturating_sub(WINDOW);
    raw[lo..=i].iter().any(|l| l.contains("SAFETY:"))
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
    fn unsafe_block_requires_safety_comment() {
        let bad = "fn f() {\n    let x = unsafe { g() };\n}\n";
        assert_eq!(lint("a.rs", bad), vec!["unsafe-safety:2"]);
        let good = "fn f() {\n    // SAFETY: g is fine here.\n    let x = unsafe { g() };\n}\n";
        assert!(lint("a.rs", good).is_empty());
        let trailing = "fn f() {\n    let x = unsafe { g() }; // SAFETY: fine.\n}\n";
        assert!(lint("a.rs", trailing).is_empty());
    }

    #[test]
    fn unsafe_impl_requires_comment_but_unsafe_fn_is_exempt() {
        assert_eq!(
            lint("a.rs", "unsafe impl Send for X {}\n"),
            vec!["unsafe-safety:1"]
        );
        assert!(lint(
            "a.rs",
            "// SAFETY: no interior refs.\nunsafe impl Send for X {}\n"
        )
        .is_empty());
        assert!(lint("a.rs", "pub unsafe fn f() {}\n").is_empty());
        assert!(lint("a.rs", "type F = unsafe fn(usize);\n").is_empty());
    }

    #[test]
    fn unsafe_in_comments_and_strings_is_ignored() {
        let src = "// this unsafe { } is prose\nlet s = \"unsafe { }\";\n";
        assert!(lint("a.rs", src).is_empty());
    }

    #[test]
    fn unsafe_in_raw_strings_and_char_quotes_is_ignored() {
        // Regression (satellite bugfix): raw strings and quote-bearing
        // char literals must not desynchronize the stripper.
        let src = "let a = r#\"unsafe { }\"#;\nlet b = '\"';\nlet c = unsafe { g() };\n";
        assert_eq!(lint("a.rs", src), vec!["unsafe-safety:3"]);
        let src2 = "let a = r##\"static mut\"##;\nlet b = br#\"unsafe\"#;\n";
        assert!(lint("a.rs", src2).is_empty());
    }

    #[test]
    fn truncated_literal_does_not_shift_line_numbers() {
        // Regression: the old stripper swallowed the newline of an
        // unterminated `'\` escape, shifting every later violation line.
        let src = "let a = '\\\nfn f() { let x = unsafe { g() }; }\n";
        assert_eq!(lint("a.rs", src), vec!["unsafe-safety:2"]);
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
    fn sleep_is_scoped_to_runtime() {
        let src = "fn f() { std::thread::sleep(d); }\n";
        assert_eq!(
            lint("crates/runtime/src/pool.rs", src),
            vec!["sleep-poll:1"]
        );
        assert!(lint("crates/matrix/src/pool.rs", src).is_empty());
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

    #[test]
    fn multiline_unsafe_classification() {
        // `unsafe` at end of line, `impl` on the next one.
        let src = "unsafe\nimpl Send for X {}\n";
        assert_eq!(lint("a.rs", src), vec!["unsafe-safety:1"]);
    }
}
