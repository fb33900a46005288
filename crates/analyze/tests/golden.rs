//! Golden-violation fixtures: one checked-in file per rule under
//! `tests/fixtures/` (a directory the workspace walker skips), annotated
//! ui-test style with `//~ ERROR <rule>: <substring>` on the line each
//! violation must be reported at. The harness fails on a missing expected
//! violation AND on any unexpected one, pinning both rule behaviour and
//! report locations.

use dcst_analyze::rules::{footprint, hotpath, orderings};
use dcst_analyze::{Violation, Workspace};

struct Expect {
    line: u32,
    rule: String,
    substr: String,
}

/// Parse `//~ ERROR <rule>: <substring>` markers out of a fixture.
fn expectations(src: &str) -> Vec<Expect> {
    let mut out = Vec::new();
    for (idx, text) in src.lines().enumerate() {
        let Some(pos) = text.find("//~ ERROR ") else {
            continue;
        };
        let rest = &text[pos + "//~ ERROR ".len()..];
        let (rule, substr) = rest.split_once(':').expect("marker is `rule: substring`");
        out.push(Expect {
            line: idx as u32 + 1,
            rule: rule.trim().to_string(),
            substr: substr.trim().to_string(),
        });
    }
    assert!(!out.is_empty(), "fixture has no //~ ERROR markers");
    out
}

fn assert_matches(fixture: &str, src: &str, violations: &[Violation]) {
    let expects = expectations(src);
    for e in &expects {
        assert!(
            violations
                .iter()
                .any(|v| v.line == e.line && v.rule == e.rule && v.message.contains(&e.substr)),
            "{fixture}: expected [{}] at line {} containing {:?}; got:\n{}",
            e.rule,
            e.line,
            e.substr,
            render(violations),
        );
    }
    assert_eq!(
        violations.len(),
        expects.len(),
        "{fixture}: unexpected extra violations:\n{}",
        render(violations),
    );
}

fn render(vs: &[Violation]) -> String {
    vs.iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn golden_hotpath() {
    let src = include_str!("fixtures/hotpath.rs");
    let ws = Workspace::from_sources(&[("crates/matrix/src/golden.rs", src)]);
    assert_matches("hotpath.rs", src, &hotpath::check(&ws));
}

#[test]
fn golden_footprint() {
    let src = include_str!("fixtures/footprint.rs");
    let ws = Workspace::from_sources(&[("crates/dcst/src/golden.rs", src)]);
    assert_matches("footprint.rs", src, &footprint::check(&ws));
}

#[test]
fn golden_orderings() {
    let src = include_str!("fixtures/orderings.rs");
    let ws = Workspace::from_sources(&[("crates/runtime/src/golden.rs", src)]);
    // Checked against an empty manifest: the one site must be unclassified.
    assert_matches("orderings.rs", src, &orderings::check(&ws, &[]));
}
