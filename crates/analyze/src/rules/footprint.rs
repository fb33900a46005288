//! Static task-footprint lint: inside a taskflow spawn body, every
//! `range_mut` / `slice_mut` access (the unsafe mutable views handed out
//! by `runtime::share`) must be covered by a write-class access
//! declaration — `.write(key)`, `.read_write(key)`, or `.gatherv(node)` —
//! somewhere in the same builder chain:
//!
//! ```text
//! scope.task("STEDC").read(a).write(key_node(l)).spawn_try(move || {
//!     let db = unsafe { d.range_mut(off..off + nm) };   // covered
//!     …
//! })
//! ```
//!
//! A spawn whose body takes a mutable view while its chain declares only
//! reads is exactly the data-race shape the access-mode checker catches at
//! runtime — this rule catches it at lint time, before a scheduler run.
//!
//! The chain is recovered syntactically: from `.spawn(` / `.spawn_try(`
//! the receiver is walked backwards through `.method(…)` links to a head,
//! which is either a direct `scope.task(…)` chain, a builder-helper call
//! (a crate-local fn whose own body contains `.task(` — e.g.
//! `panel_task`, which declares `gatherv`/`read_write` internally), or a
//! local `TaskBuilder` variable (resolved by scanning earlier statements
//! of the enclosing fn for its construction and reassignments; a variable
//! that `.task(` is called *on* is a runtime or scope and ends the walk).
//! Non-taskflow spawns (`thread::Builder::spawn`) never look like a `task`
//! chain and are ignored.

use super::{allowed, Violation};
use crate::lexer::TokKind;
use crate::parser::ParsedFile;
use crate::workspace::Workspace;
use std::collections::{HashMap, HashSet};

pub const RULE: &str = "footprint";

const WRITE_CLASS: &[&str] = &["write", "read_write", "gatherv"];
const MUT_ACCESS: &[&str] = &["range_mut", "slice_mut"];

pub fn check(ws: &Workspace) -> Vec<Violation> {
    // Crate-local builder helpers: free fns whose body routes through
    // `.task(`; remember whether the helper itself declares a write-class
    // access (panel_task declares gatherv/read_write).
    let mut helpers: HashMap<String, HashMap<&str, bool>> = HashMap::new();
    for file in &ws.files {
        if file.is_test_file() {
            continue;
        }
        let pf = &file.parsed;
        let ck = crate_key(&file.rel);
        for f in &pf.fns {
            if f.owner.is_some() || pf.fn_in_test(f) {
                continue;
            }
            let Some((open, close)) = f.body else {
                continue;
            };
            if contains_method_call(pf, open, close, &["task"]) {
                helpers
                    .entry(ck.clone())
                    .or_default()
                    .insert(&f.name, contains_method_call(pf, open, close, WRITE_CLASS));
            }
        }
    }

    let mut out = Vec::new();
    for file in &ws.files {
        if !file.is_test_file() && file.rel.starts_with("crates/") {
            let empty = HashMap::new();
            let local = helpers.get(&crate_key(&file.rel)).unwrap_or(&empty);
            check_file(file.rel.as_str(), &file.parsed, local, &mut out);
        }
    }
    out
}

fn crate_key(rel: &str) -> String {
    rel.split('/').take(2).collect::<Vec<_>>().join("/")
}

/// Any `.name(` with `name` in `names` inside sig range `(open, close)`.
fn contains_method_call(pf: &ParsedFile, open: usize, close: usize, names: &[&str]) -> bool {
    (open + 1..close.saturating_sub(1)).any(|i| {
        pf.text(i) == "."
            && names.contains(&pf.text(i + 1))
            && i + 2 < close
            && pf.text(i + 2) == "("
    })
}

fn check_file(rel: &str, pf: &ParsedFile, helpers: &HashMap<&str, bool>, out: &mut Vec<Violation>) {
    // close → open, for walking receiver chains backwards.
    let rev: HashMap<usize, usize> = pf.brackets.iter().map(|(&o, &c)| (c, o)).collect();
    let n = pf.sig.len();
    for i in 0..n {
        if pf.text(i) != "."
            || i + 2 >= n
            || !matches!(pf.text(i + 1), "spawn" | "spawn_try")
            || pf.text(i + 2) != "("
        {
            continue;
        }
        if pf.enclosing_fn(i).is_some_and(|f| pf.fn_in_test(f)) {
            continue;
        }
        let chain = walk_chain(pf, &rev, i);
        let is_task_chain = chain.methods.iter().any(|m| m == "task")
            || chain
                .head_calls
                .iter()
                .any(|h| helpers.contains_key(h.as_str()));
        if !is_task_chain {
            continue;
        }
        let writes_declared = chain
            .methods
            .iter()
            .any(|m| WRITE_CLASS.contains(&m.as_str()))
            || chain
                .head_calls
                .iter()
                .any(|h| helpers.get(h.as_str()).copied().unwrap_or(false));
        if writes_declared {
            continue;
        }
        // Scan the spawn arguments for mutable share-views.
        let close = pf.brackets.get(&(i + 2)).copied().unwrap_or(n - 1);
        for j in i + 3..close {
            if pf.text(j) == "."
                && j + 2 < close
                && MUT_ACCESS.contains(&pf.text(j + 1))
                && pf.text(j + 2) == "("
            {
                let line = pf.line(j + 1);
                if !allowed(&pf.raw_lines, RULE, line) {
                    out.push(Violation {
                        file: rel.to_string(),
                        line,
                        rule: RULE,
                        message: format!(
                            "spawn body takes a mutable view via `.{}(…)` but its task \
                             chain declares no write-class access — add `.write(key)`, \
                             `.read_write(key)`, or `.gatherv(node)` to the builder chain",
                            pf.text(j + 1)
                        ),
                    });
                }
            }
        }
    }
}

struct Chain {
    /// Method names linked with `.` between the head and `spawn`.
    methods: Vec<String>,
    /// Call heads that could have built the receiver: the direct head
    /// call (`panel_task(…).spawn(…)`) or, for a variable head, the RHS
    /// heads of its construction/reassignments.
    head_calls: Vec<String>,
}

/// Walk backwards from the `.` of `.spawn(` through `.method(…)` links.
fn walk_chain(pf: &ParsedFile, rev: &HashMap<usize, usize>, dot: usize) -> Chain {
    let mut chain = Chain {
        methods: Vec::new(),
        head_calls: Vec::new(),
    };
    let mut cur = dot; // always at a `.` whose receiver ends at cur-1
    loop {
        if cur == 0 {
            return chain;
        }
        if pf.text(cur - 1) == ")" {
            let Some(&open) = rev.get(&(cur - 1)) else {
                return chain;
            };
            if open >= 1 && pf.kind(open - 1) == TokKind::Ident {
                let name = pf.text(open - 1).to_string();
                if open >= 2 && pf.text(open - 2) == "." {
                    chain.methods.push(name);
                    cur = open - 2;
                    continue;
                }
                // Head is a direct call; qualified paths (`thread::spawn`)
                // keep the bare fn-name — helper lookup won't match them.
                chain.head_calls.push(name);
            }
            return chain;
        }
        // Variable head. A chain that contains `.task(` itself starts at a
        // runtime/scope (`scope.task("B")…`): it is complete as walked,
        // and folding in the *other* chains hanging off that variable
        // would lend this one their write declarations. Otherwise the
        // variable is a `TaskBuilder`: resolve its construction within the
        // enclosing fn, before this use.
        if pf.kind(cur - 1) == TokKind::Ident && !chain.methods.iter().any(|m| m == "task") {
            resolve_var(pf, pf.text(cur - 1), cur - 1, &mut chain);
        }
        return chain;
    }
}

/// Scan the enclosing fn's body before `use_pos` for `var.method(…)`
/// uses and `var = <rhs>` (re)assignments, accumulating chain methods
/// and RHS head-call names.
fn resolve_var(pf: &ParsedFile, var: &str, use_pos: usize, chain: &mut Chain) {
    let Some((start, _)) = pf.enclosing_fn(use_pos).and_then(|f| f.body) else {
        return;
    };
    let mut seen_methods: HashSet<String> = HashSet::new();
    for i in start + 1..use_pos {
        if pf.text(i) != var || pf.kind(i) != TokKind::Ident {
            continue;
        }
        if i + 1 < use_pos && pf.text(i + 1) == "." {
            // `var.method(…)…` — collect the forward chain.
            let mut j = i + 1;
            while j + 2 < use_pos && pf.text(j) == "." && pf.kind(j + 1) == TokKind::Ident {
                if pf.text(j + 2) == "(" {
                    seen_methods.insert(pf.text(j + 1).to_string());
                    let close = pf.brackets.get(&(j + 2)).copied().unwrap_or(use_pos);
                    j = close + 1;
                } else {
                    break; // field access, stop
                }
            }
        } else if i + 1 < use_pos && pf.text(i + 1) == "=" && pf.text(i + 2) != "=" {
            // `var = <rhs>;` / `let … var = <rhs>;`
            let mut j = i + 2;
            while j < use_pos && pf.text(j) != ";" {
                match pf.text(j) {
                    "(" | "[" | "{" => {
                        if j >= 1 && pf.kind(j - 1) == TokKind::Ident {
                            let name = pf.text(j - 1).to_string();
                            if j >= 2 && pf.text(j - 2) == "." {
                                seen_methods.insert(name);
                            } else {
                                chain.head_calls.push(name);
                            }
                        }
                        j = pf.brackets.get(&j).copied().unwrap_or(use_pos);
                    }
                    _ => {}
                }
                j += 1;
            }
        }
    }
    chain.methods.extend(seen_methods);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutation_mut_view_without_write_class_is_reported() {
        // Seeded violation: read-only chain, mutable view in the body.
        let src = "\
fn build(scope: &Scope, d: Share<f64>) {
    scope.task(\"Scale\")
        .read(key_input)
        .spawn(move || {
            let ds = unsafe { d.slice_mut() };
            ds[0] = 1.0;
        });
}
";
        let ws = Workspace::from_sources(&[("crates/dcst/src/plan.rs", src)]);
        let vs = check(&ws);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, "footprint");
        assert_eq!(vs[0].file, "crates/dcst/src/plan.rs");
        assert_eq!(vs[0].line, 5);
        assert!(vs[0].message.contains("slice_mut"), "{}", vs[0].message);
    }

    #[test]
    fn declared_write_passes() {
        let src = "\
fn build(scope: &Scope, d: Share<f64>) {
    scope.task(\"STEDC\")
        .read(a)
        .write(key_node(l))
        .spawn_try(move || {
            let db = unsafe { d.range_mut(off..off + nm) };
            Ok(())
        });
}
";
        let ws = Workspace::from_sources(&[("crates/dcst/src/plan.rs", src)]);
        assert!(check(&ws).is_empty());
    }

    #[test]
    fn helper_with_internal_write_class_passes() {
        // panel_task declares gatherv/read_write in its own body.
        let src = "\
fn panel_task(scope: &Scope, name: &str) -> TaskBuilder {
    if wide { scope.task(name).gatherv(node) } else { scope.task(name).read_write(node) }
}
fn build(scope: &Scope, v: Share<f64>) {
    panel_task(scope, \"PermuteV\").spawn(move || {
        let ws = unsafe { v.range_mut(a..b) };
    });
}
";
        let ws = Workspace::from_sources(&[("crates/dcst/src/plan.rs", src)]);
        assert!(check(&ws).is_empty(), "{:?}", check(&ws));
    }

    #[test]
    fn variable_head_resolves_reassignments() {
        let good = "\
fn panel_task(scope: &Scope, name: &str) -> TaskBuilder { scope.task(name).read(node) }
fn build(scope: &Scope, v: Share<f64>) {
    let mut task = panel_task(scope, \"LAED4\");
    task = task.write(key_x(s0));
    task.spawn(move || {
        let xs = unsafe { v.range_mut(a..b) };
    });
}
";
        let ws = Workspace::from_sources(&[("crates/dcst/src/plan.rs", good)]);
        assert!(check(&ws).is_empty(), "{:?}", check(&ws));

        let bad = "\
fn build(scope: &Scope, v: Share<f64>) {
    let t = scope.task(\"X\").read(node);
    t.spawn(move || {
        let xs = unsafe { v.range_mut(a..b) };
    });
}
";
        let ws = Workspace::from_sources(&[("crates/dcst/src/plan.rs", bad)]);
        let vs = check(&ws);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].line, 4);
    }

    #[test]
    fn mutation_earlier_chain_does_not_lend_its_write() {
        // Two chains off one scope in one fn: the first declares a write,
        // the second is read-only with a mutable view — exactly one
        // violation, on the second.
        let src = "\
fn build(scope: &Scope, d: Share<f64>) {
    scope.task(\"A\").write(k).spawn(move || {
        let ds = unsafe { d.range_mut(a..b) };
    });
    scope.task(\"B\").read(k).spawn(move || {
        let ds = unsafe { d.range_mut(a..b) };
    });
}
";
        let ws = Workspace::from_sources(&[("crates/dcst/src/plan.rs", src)]);
        let vs = check(&ws);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].line, 6);
    }

    #[test]
    fn thread_spawns_are_not_task_chains() {
        let src = "\
fn start(d: Share<f64>) {
    std::thread::Builder::new()
        .name(\"worker\".into())
        .spawn(move || {
            let ds = unsafe { d.slice_mut() };
        })
        .unwrap();
}
";
        let ws = Workspace::from_sources(&[("crates/runtime/src/pool.rs", src)]);
        assert!(check(&ws).is_empty());
    }

    #[test]
    fn allow_marker_waives() {
        let src = "\
fn build(scope: &Scope, d: Share<f64>) {
    scope.task(\"Gather\").read(a).spawn(move || {
        // xtask-lint: allow(footprint) — disjoint per-task slices, proven by partition
        let ds = unsafe { d.slice_mut() };
    });
}
";
        let ws = Workspace::from_sources(&[("crates/dcst/src/plan.rs", src)]);
        assert!(check(&ws).is_empty(), "{:?}", check(&ws));
    }
}
