//! Rule engine: the violation type, suppression markers, and the drivers
//! that run every pass over a parsed [`Workspace`].
//!
//! Suppressions follow the established lint convention: a violation on
//! line N is waived by `xtask-lint: allow(<rule>)` in a comment on line N
//! or N-1. The hot-path rule additionally demands a justification after
//! the marker (see [`hotpath`]).

pub mod hotpath;
pub mod legacy;
pub mod orderings;

use crate::workspace::Workspace;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// `xtask-lint: allow(<rule>)` on raw line `line` (1-based) or the line
/// above waives a violation reported at `line`.
pub fn allowed(raw_lines: &[String], rule: &str, line: u32) -> bool {
    let marker = format!("xtask-lint: allow({rule})");
    let i = line as usize;
    let at = |n: usize| n >= 1 && raw_lines.get(n - 1).is_some_and(|l| l.contains(&marker));
    at(i) || at(i.saturating_sub(1))
}

/// Like [`allowed`], but returns the justification text following the
/// marker — `None` when no marker is present, `Some("")`-ish when the
/// marker carries no justification. Used by rules that require a reason.
pub fn allow_justification<'a>(raw_lines: &'a [String], rule: &str, line: u32) -> Option<&'a str> {
    let marker = format!("xtask-lint: allow({rule})");
    let i = line as usize;
    for n in [i, i.saturating_sub(1)] {
        if n >= 1 {
            if let Some(l) = raw_lines.get(n - 1) {
                if let Some(pos) = l.find(&marker) {
                    let rest = &l[pos + marker.len()..];
                    return Some(
                        rest.trim_start_matches([')', ':', '-', ' ', '\u{2014}', '\u{2013}'])
                            .trim(),
                    );
                }
            }
        }
    }
    None
}

/// Everything: the per-file lint rules ([`legacy`]: static-mut,
/// pool-sync) plus the two analysis passes. `manifest`
/// carries the contents of `specs/orderings.toml`, or an explanation of
/// why it could not be read (which becomes a violation — an unreadable
/// manifest must fail the run, not weaken it).
pub fn run_full(ws: &Workspace, manifest: Result<&str, String>) -> Vec<Violation> {
    let mut out: Vec<Violation> = ws.files.iter().flat_map(legacy::check_file).collect();
    match manifest {
        Ok(text) => match crate::manifest::parse(text) {
            Ok(sites) => out.extend(orderings::check(ws, &sites)),
            Err(e) => out.push(Violation {
                file: orderings::MANIFEST_PATH.to_string(),
                line: 0,
                rule: orderings::RULE,
                message: format!("manifest parse error: {e}"),
            }),
        },
        Err(e) => out.push(Violation {
            file: orderings::MANIFEST_PATH.to_string(),
            line: 0,
            rule: orderings::RULE,
            message: format!("cannot read orderings manifest: {e}"),
        }),
    }
    out.extend(hotpath::check(ws));
    sort(&mut out);
    out
}

fn sort(out: &mut [Violation]) {
    out.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_justification_extracts_reason() {
        let lines: Vec<String> = vec![
            "// xtask-lint: allow(hot-path) — init-once cold path".into(),
            "let x = pool();".into(),
            "// xtask-lint: allow(hot-path)".into(),
            "let y = pool();".into(),
        ];
        assert_eq!(
            allow_justification(&lines, "hot-path", 2),
            Some("init-once cold path")
        );
        assert_eq!(allow_justification(&lines, "hot-path", 4), Some(""));
        assert_eq!(
            allow_justification(&lines, "hot-path", 1),
            Some("init-once cold path")
        );
        assert!(allow_justification(&lines, "orderings", 2).is_none());
    }
}
