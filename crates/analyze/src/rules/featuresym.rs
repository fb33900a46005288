//! Feature-gate symmetry: the two-`mod imp` idiom (`failpoints` in
//! `dcst-matrix`, `dcst_sync` in `dcst-runtime` — the pairs that remain)
//! compiles exactly one of two same-named modules depending on a cfg
//! predicate:
//!
//! ```text
//! #[cfg(feature = "failpoints")]      mod imp { pub fn hit(site: &str) { … } }
//! #[cfg(not(feature = "failpoints"))] mod imp { pub fn hit(_site: &str) {} }
//! ```
//!
//! The idiom only works if both variants expose the same `pub fn`
//! surface; a fn added to one side silently breaks the other feature
//! combination — usually discovered much later by a CI matrix job. This
//! rule pairs same-named sibling mods whose cfg predicates are mutual
//! complements (`P` / `not(P)`) and diffs their pub fn signatures
//! (patterns dropped, types kept, lifetimes normalized out of receivers).

use super::{allowed, Violation};
use crate::lexer::TokKind;
use crate::parser::{FnItem, ParsedFile};
use crate::workspace::{SourceFile, Workspace};
use std::collections::BTreeMap;

pub const RULE: &str = "feature-sym";

pub fn check(ws: &Workspace) -> Vec<Violation> {
    let mut out = Vec::new();
    for file in &ws.files {
        if !file.is_test_file() {
            check_file(file, &mut out);
        }
    }
    out
}

fn check_file(file: &SourceFile, out: &mut Vec<Violation>) {
    let pf = &file.parsed;
    // Group sibling mods by (parent, name); only cfg-carrying ones can
    // form an on/off pair.
    let mut groups: BTreeMap<(Option<usize>, &str), Vec<usize>> = BTreeMap::new();
    for (id, m) in pf.mods.iter().enumerate() {
        if !m.cfgs.is_empty() && !m.in_test {
            groups
                .entry((m.parent, m.name.as_str()))
                .or_default()
                .push(id);
        }
    }
    for ids in groups.values() {
        for (xi, &a) in ids.iter().enumerate() {
            for &b in &ids[xi + 1..] {
                if complementary(&pf.mods[a].cfgs, &pf.mods[b].cfgs) {
                    diff_pair(file, a, b, out);
                }
            }
        }
    }
}

/// `P` vs `not(P)` in either direction (predicates are
/// whitespace-normalized by the parser).
fn complementary(a: &[String], b: &[String]) -> bool {
    let negates = |p: &String, q: &String| q == &format!("not({p})");
    a.iter().any(|p| b.iter().any(|q| negates(p, q)))
        || b.iter().any(|p| a.iter().any(|q| negates(p, q)))
}

fn diff_pair(file: &SourceFile, a: usize, b: usize, out: &mut Vec<Violation>) {
    let pf = &file.parsed;
    let surface = |m: usize| -> BTreeMap<(String, String), (String, u32)> {
        let mut map = BTreeMap::new();
        for f in &pf.fns {
            if f.is_pub && !pf.fn_in_test(f) && in_mod(pf, f, m) {
                map.insert(
                    (f.owner.clone().unwrap_or_default(), f.name.clone()),
                    (norm_sig(pf, f), f.line),
                );
            }
        }
        map
    };
    let sa = surface(a);
    let sb = surface(b);
    let describe = |m: usize| {
        let md = &pf.mods[m];
        format!(
            "mod `{}` (line {}, cfg {})",
            md.name,
            md.line,
            md.cfgs.join(", ")
        )
    };
    for (dir_a, dir_b, sx, sy) in [(a, b, &sa, &sb), (b, a, &sb, &sa)] {
        for ((owner, name), (sig, line)) in sx {
            let qual = if owner.is_empty() {
                name.clone()
            } else {
                format!("{owner}::{name}")
            };
            match sy.get(&(owner.clone(), name.clone())) {
                None => {
                    if !allowed(&pf.raw_lines, RULE, *line) {
                        out.push(Violation {
                            file: file.rel.clone(),
                            line: *line,
                            rule: RULE,
                            message: format!(
                                "pub fn `{qual}` exists in {} but is missing from its \
                                 counterpart {} — the two variants must expose the same \
                                 surface",
                                describe(dir_a),
                                describe(dir_b),
                            ),
                        });
                    }
                }
                // Mismatches are reported once, from the first variant.
                Some((other_sig, other_line)) if other_sig != sig && dir_a == a => {
                    if !allowed(&pf.raw_lines, RULE, *line) {
                        out.push(Violation {
                            file: file.rel.clone(),
                            line: *line,
                            rule: RULE,
                            message: format!(
                                "pub fn `{qual}` differs between the cfg variants: \
                                 `{sig}` here vs `{other_sig}` at line {other_line}"
                            ),
                        });
                    }
                }
                Some(_) => {}
            }
        }
    }
}

/// Is fn `f` inside mod `m` (directly, or via nested mods / impl blocks)?
fn in_mod(pf: &ParsedFile, f: &FnItem, m: usize) -> bool {
    let mut cur = f.mod_id;
    while let Some(id) = cur {
        if id == m {
            return true;
        }
        cur = pf.mods[id].parent;
    }
    false
}

/// Normalized comparable signature: `(type, type, …) -> ret` with
/// parameter patterns dropped (`_n: u64` and `n: u64` compare equal),
/// receiver lifetimes erased (`&'a self` == `&self`), generics kept
/// verbatim.
fn norm_sig(pf: &ParsedFile, f: &FnItem) -> String {
    let (open, close) = f.params;
    let generics = norm_generics(pf, f.sig_range.0 + 2, open);
    let mut params: Vec<String> = Vec::new();
    let mut cur: Vec<usize> = Vec::new();
    let mut angle = 0i32;
    let mut i = open + 1;
    while i < close {
        match pf.text(i) {
            "<" => {
                angle += 1;
                cur.push(i);
            }
            ">" if i > 0 && pf.text(i - 1) != "-" => {
                angle -= 1;
                cur.push(i);
            }
            "(" | "[" | "{" => {
                let c = pf.brackets.get(&i).copied().unwrap_or(close).min(close);
                cur.extend(i..=c.min(close - 1));
                i = c;
            }
            "," if angle == 0 => {
                params.push(norm_param(pf, &cur));
                cur.clear();
            }
            _ => cur.push(i),
        }
        i += 1;
    }
    if !cur.is_empty() {
        params.push(norm_param(pf, &cur));
    }
    let mut ret_toks = Vec::new();
    for i in close + 1..f.sig_range.1 {
        if pf.text(i) == "where" {
            break;
        }
        ret_toks.push(i);
    }
    let ret = join_type(pf, &ret_toks);
    let mut s = String::new();
    if !generics.is_empty() {
        s.push_str(&generics);
        s.push(' ');
    }
    s.push_str(&format!("({})", params.join(", ")));
    if !ret.is_empty() {
        s.push(' ');
        s.push_str(&ret);
    }
    s
}

/// One parameter: receivers normalize to `self`/`&self`/`&mut self`;
/// everything else reduces to its type (text after the top-level `:`).
fn norm_param(pf: &ParsedFile, toks: &[usize]) -> String {
    let is_self = toks.iter().any(|&i| pf.text(i) == "self")
        && !toks
            .windows(2)
            .any(|w| pf.text(w[0]) == ":" && pf.text(w[1]) != ":");
    if is_self {
        let mut s = String::new();
        for &i in toks {
            match pf.text(i) {
                "&" => s.push('&'),
                "mut" if s.starts_with('&') => s.push_str("mut "),
                "self" => s.push_str("self"),
                _ => {} // lifetimes, leading `mut` on by-value self
            }
        }
        return s;
    }
    // Type position: after the first top-level `:` that is not part of a
    // `::` path separator.
    let mut split = None;
    let mut k = 0;
    while k < toks.len() {
        if pf.text(toks[k]) == ":" {
            if k + 1 < toks.len() && pf.text(toks[k + 1]) == ":" {
                k += 2;
                continue;
            }
            split = Some(k + 1);
            break;
        }
        k += 1;
    }
    join_type(pf, &toks[split.unwrap_or(0)..])
}

/// Join type tokens, erasing reference lifetimes (`&'a T` == `&T`).
fn join_type(pf: &ParsedFile, toks: &[usize]) -> String {
    let mut s = String::new();
    for &i in toks {
        if pf.kind(i) == TokKind::Lifetime && s.ends_with('&') {
            continue;
        }
        if !s.is_empty() && !s.ends_with('&') {
            s.push(' ');
        }
        s.push_str(pf.text(i));
    }
    s
}

/// Generic parameter list `[a, b)` (including the `<`/`>` delimiters)
/// with lifetime parameters dropped: `<'a>` compares equal to nothing,
/// `<'a, T>` to `<T>`.
fn norm_generics(pf: &ParsedFile, a: usize, b: usize) -> String {
    if a >= b {
        return String::new();
    }
    let mut segments: Vec<Vec<usize>> = vec![Vec::new()];
    let mut angle = 0i32;
    let mut i = a;
    while i < b {
        match pf.text(i) {
            "<" if angle == 0 => angle = 1, // outer delimiter
            ">" if angle == 1 && pf.text(i.saturating_sub(1)) != "-" => angle = 0,
            "<" => {
                angle += 1;
                segments.last_mut().expect("nonempty").push(i);
            }
            ">" if pf.text(i.saturating_sub(1)) != "-" => {
                angle -= 1;
                segments.last_mut().expect("nonempty").push(i);
            }
            "," if angle == 1 => segments.push(Vec::new()),
            _ => segments.last_mut().expect("nonempty").push(i),
        }
        i += 1;
    }
    let kept: Vec<String> = segments
        .iter()
        .filter(|seg| {
            !seg.first()
                .is_some_and(|&t| pf.kind(t) == TokKind::Lifetime)
        })
        .filter(|seg| !seg.is_empty())
        .map(|seg| join_type(pf, seg))
        .collect();
    if kept.is_empty() {
        String::new()
    } else {
        format!("<{}>", kept.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutation_missing_fn_is_reported_with_file_and_line() {
        // Seeded violation: the off-variant lacks `flush`.
        let src = "\
#[cfg(feature = \"metrics\")]
mod imp {
    pub fn add(n: u64) {}
    pub fn flush() {}
}
#[cfg(not(feature = \"metrics\"))]
mod imp {
    pub fn add(_n: u64) {}
}
";
        let ws = Workspace::from_sources(&[("crates/matrix/src/metrics.rs", src)]);
        let vs = check(&ws);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, "feature-sym");
        assert_eq!(vs[0].file, "crates/matrix/src/metrics.rs");
        assert_eq!(vs[0].line, 4);
        assert!(vs[0].message.contains("`flush`"), "{}", vs[0].message);
    }

    #[test]
    fn mutation_signature_mismatch_reports_both_lines() {
        let src = "\
#[cfg(feature = \"metrics\")]
mod imp {
    pub fn add(n: u64) -> u64 { n }
}
#[cfg(not(feature = \"metrics\"))]
mod imp {
    pub fn add(_n: u64) {}
}
";
        let ws = Workspace::from_sources(&[("crates/x/src/m.rs", src)]);
        let vs = check(&ws);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].line, 3);
        assert!(vs[0].message.contains("differs"), "{}", vs[0].message);
        assert!(vs[0].message.contains("line 7"), "{}", vs[0].message);
    }

    #[test]
    fn symmetric_variants_pass_despite_pattern_and_lifetime_noise() {
        let src = "\
struct M;
#[cfg(feature = \"metrics\")]
mod imp {
    pub struct H;
    impl H {
        pub fn record(&mut self, worker: usize, n: u64) {}
    }
    pub fn fmt<'a>(buf: &'a mut String) -> &'a str { buf }
}
#[cfg(not(feature = \"metrics\"))]
mod imp {
    pub struct H;
    impl H {
        pub fn record(&mut self, _worker: usize, _n: u64) {}
    }
    pub fn fmt(_buf: &mut String) -> &str { \"\" }
}
";
        let ws = Workspace::from_sources(&[("crates/x/src/m.rs", src)]);
        assert!(check(&ws).is_empty(), "{:?}", check(&ws));
    }

    #[test]
    fn model_check_cfg_pairs_too() {
        let src = "\
#[cfg(dcst_model_check)]
mod imp {
    pub fn park() {}
}
#[cfg(not(dcst_model_check))]
mod imp {
    pub fn park() {}
    pub fn extra() {}
}
";
        let ws = Workspace::from_sources(&[("crates/runtime/src/s.rs", src)]);
        let vs = check(&ws);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].message.contains("`extra`"));
    }

    #[test]
    fn unrelated_cfg_mods_are_not_paired() {
        let src = "\
#[cfg(feature = \"a\")]
mod imp {
    pub fn f() {}
}
#[cfg(feature = \"b\")]
mod imp {
    pub fn g() {}
}
";
        let ws = Workspace::from_sources(&[("crates/x/src/m.rs", src)]);
        assert!(check(&ws).is_empty());
    }

    #[test]
    fn allow_marker_waives() {
        let src = "\
#[cfg(feature = \"metrics\")]
mod imp {
    // xtask-lint: allow(feature-sym) — debug-only helper
    pub fn debug_dump() {}
    pub fn add(n: u64) {}
}
#[cfg(not(feature = \"metrics\"))]
mod imp {
    pub fn add(_n: u64) {}
}
";
        let ws = Workspace::from_sources(&[("crates/x/src/m.rs", src)]);
        assert!(check(&ws).is_empty(), "{:?}", check(&ws));
    }
}
