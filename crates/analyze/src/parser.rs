//! Lightweight item-level recursive-descent parser.
//!
//! This is not a full Rust grammar — it recovers exactly the structure the
//! rules need from the lossless token stream: every `fn` item (name, owner
//! `impl`/`trait` type, signature and body token ranges, `#[cfg(test)]`
//! classification, `// dcst-hot` marking), every inline `mod` (for the
//! `#[cfg(test)]` classification of the items inside it), and
//! balanced-bracket maps for expression-level scans. Items it
//! does not understand are skipped by bracket/semicolon balancing, so an
//! unparseable construct degrades to "no items found there", never a
//! panic.

use crate::lexer::{lex, strip_source, Token};
use std::collections::HashMap;

/// A parsed `.rs` file: the token stream plus recovered item structure.
/// Positions used throughout are indices into `sig` (the significant,
/// non-trivia token list); `sig[i]` indexes into `tokens`.
pub struct ParsedFile {
    pub src: String,
    pub raw_lines: Vec<String>,
    pub stripped: Vec<String>,
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of every non-trivia token.
    pub sig: Vec<usize>,
    /// Open→close matching over `sig` positions for `()`, `[]`, `{}`.
    pub brackets: HashMap<usize, usize>,
    pub fns: Vec<FnItem>,
    pub mods: Vec<ModItem>,
}

#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// Base ident of the enclosing `impl` self-type or `trait`, if any.
    pub owner: Option<String>,
    pub line: u32,
    /// `sig` positions of the body braces, if the fn has a body.
    pub body: Option<(usize, usize)>,
    /// Under `#[cfg(test)]` (own attrs or any enclosing mod/impl).
    pub in_test: bool,
    /// Carries a `// dcst-hot` marker in the comment run directly above.
    pub hot: bool,
    /// Innermost enclosing named mod, as an index into `ParsedFile::mods`.
    pub mod_id: Option<usize>,
}

#[derive(Debug, Clone)]
pub struct ModItem {
    pub parent: Option<usize>,
    pub in_test: bool,
}

impl ParsedFile {
    pub fn new(src: &str) -> ParsedFile {
        let tokens = lex(src);
        let sig: Vec<usize> = (0..tokens.len())
            .filter(|&i| !tokens[i].kind.is_trivia())
            .collect();
        let brackets = match_brackets(&tokens, &sig, src);
        let mut pf = ParsedFile {
            raw_lines: src.lines().map(str::to_string).collect(),
            stripped: strip_source(src),
            src: src.to_string(),
            tokens,
            sig,
            brackets,
            fns: Vec::new(),
            mods: Vec::new(),
        };
        let end = pf.sig.len();
        Parser { f: &mut pf }.items(0, end, None, None, false);
        pf
    }

    /// Text of the significant token at `sig` position `i`.
    pub fn text(&self, i: usize) -> &str {
        self.tokens[self.sig[i]].text(&self.src)
    }

    pub fn line(&self, i: usize) -> u32 {
        self.tokens[self.sig[i]].line
    }

    pub fn kind(&self, i: usize) -> crate::lexer::TokKind {
        self.tokens[self.sig[i]].kind
    }

    /// Innermost fn whose body contains `sig` position `i`.
    pub fn enclosing_fn(&self, i: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter(|f| f.body.is_some_and(|(o, c)| o < i && i < c))
            .max_by_key(|f| f.body.unwrap().0)
    }

    /// True when the fn or any ancestor mod is `#[cfg(test)]`.
    pub fn fn_in_test(&self, f: &FnItem) -> bool {
        if f.in_test {
            return true;
        }
        let mut m = f.mod_id;
        while let Some(id) = m {
            if self.mods[id].in_test {
                return true;
            }
            m = self.mods[id].parent;
        }
        false
    }
}

fn match_brackets(tokens: &[Token], sig: &[usize], src: &str) -> HashMap<usize, usize> {
    let mut map = HashMap::new();
    let mut stack: Vec<(usize, char)> = Vec::new();
    for (pos, &ti) in sig.iter().enumerate() {
        let t = tokens[ti].text(src);
        match t {
            "(" | "[" | "{" => stack.push((pos, t.chars().next().unwrap_or('('))),
            ")" | "]" | "}" => {
                let want = match t {
                    ")" => '(',
                    "]" => '[',
                    _ => '{',
                };
                // Pop through mismatched openers (malformed input) so one
                // stray bracket can't wedge the whole map.
                while let Some((open, c)) = stack.pop() {
                    if c == want {
                        map.insert(open, pos);
                        break;
                    }
                }
            }
            _ => {}
        }
    }
    map
}

struct Parser<'a> {
    f: &'a mut ParsedFile,
}

impl Parser<'_> {
    fn text(&self, i: usize) -> &str {
        self.f.tokens[self.f.sig[i]].text(&self.f.src)
    }

    fn close_of(&self, open: usize, end: usize) -> usize {
        self.f.brackets.get(&open).copied().unwrap_or(end)
    }

    /// Parse the items in `sig` range `[i, end)`.
    fn items(
        &mut self,
        mut i: usize,
        end: usize,
        owner: Option<&str>,
        mod_id: Option<usize>,
        in_test: bool,
    ) {
        while i < end {
            let item_start = i;
            let mut attrs: Vec<String> = Vec::new();
            // Outer/inner attributes.
            while i < end && self.text(i) == "#" {
                let mut j = i + 1;
                if j < end && self.text(j) == "!" {
                    j += 1;
                }
                if j < end && self.text(j) == "[" {
                    let close = self.close_of(j, end);
                    attrs.push(self.attr_text(i, close.min(end - 1)));
                    i = close.saturating_add(1).min(end);
                } else {
                    i += 1;
                }
            }
            if i >= end {
                return;
            }
            let item_test = in_test || attrs.iter().any(|a| is_test_attr(a));
            // Modifiers before the item keyword.
            loop {
                if i >= end {
                    return;
                }
                match self.text(i) {
                    "pub" => {
                        i += 1;
                        if i < end && self.text(i) == "(" {
                            i = self.close_of(i, end) + 1;
                        }
                    }
                    "unsafe" | "const" | "async" | "default" => {
                        // `const` as a modifier (`const fn`) vs a `const`
                        // item: only treat it as a modifier when an item
                        // keyword follows.
                        if self.text(i) == "const"
                            && !matches!(
                                self.text((i + 1).min(end - 1)),
                                "fn" | "unsafe" | "extern" | "async"
                            )
                        {
                            break;
                        }
                        i += 1;
                    }
                    "extern" => {
                        // `extern "C" fn` modifier or `extern "C" { … }` /
                        // `extern crate` item — decide by lookahead.
                        let next = if i + 1 < end { self.text(i + 1) } else { "" };
                        if next.starts_with('"') {
                            let after = if i + 2 < end { self.text(i + 2) } else { "" };
                            if after == "fn" {
                                i += 2;
                                continue;
                            }
                        }
                        break;
                    }
                    _ => break,
                }
            }
            if i >= end {
                return;
            }
            match self.text(i) {
                "fn" => i = self.fn_item(i, end, owner, mod_id, item_test, item_start),
                "mod" => i = self.mod_item(i, end, mod_id, item_test),
                "impl" => i = self.impl_like(i, end, mod_id, item_test, ImplKind::Impl),
                "trait" => i = self.impl_like(i, end, mod_id, item_test, ImplKind::Trait),
                "struct" | "enum" | "union" => i = self.skip_struct_like(i, end),
                "static" | "const" | "type" | "use" => i = self.skip_to_semi(i, end),
                "extern" => i = self.skip_extern(i, end),
                "macro_rules" => i = self.skip_macro_rules(i, end),
                _ => i += 1,
            }
        }
    }

    fn attr_text(&self, a: usize, b: usize) -> String {
        let mut s = String::new();
        for i in a..=b.min(self.f.sig.len() - 1) {
            s.push_str(self.text(i));
        }
        s
    }

    /// Parse one `fn` item with `i` at the `fn` keyword; returns the
    /// position just past the item.
    fn fn_item(
        &mut self,
        i: usize,
        end: usize,
        owner: Option<&str>,
        mod_id: Option<usize>,
        in_test: bool,
        item_start: usize,
    ) -> usize {
        if i + 1 >= end {
            return end;
        }
        let name = self.text(i + 1).to_string();
        let mut j = i + 2;
        if j < end && self.text(j) == "<" {
            j = self.skip_angles(j, end);
        }
        if j >= end || self.text(j) != "(" {
            return i + 1; // not a fn shape we understand; resync
        }
        j = self.close_of(j, end) + 1;
        // Find the body `{` or the terminating `;`, skipping balanced
        // groups (so braces inside `[u8; { N }]` return types stay inert).
        let mut body = None;
        while j < end {
            match self.text(j) {
                "(" | "[" => j = self.close_of(j, end) + 1,
                "{" => {
                    body = Some((j, self.close_of(j, end)));
                    break;
                }
                ";" => break,
                _ => j += 1,
            }
        }
        let hot = self.hot_marker_above(item_start) || self.hot_marker_between(item_start, i);
        self.f.fns.push(FnItem {
            name,
            owner: owner.map(str::to_string),
            line: self.f.tokens[self.f.sig[i]].line,
            body,
            in_test,
            hot,
            mod_id,
        });
        match body {
            Some((_, close)) => close + 1,
            None => (j + 1).min(end),
        }
    }

    /// Scan the raw token stream backwards from the item's first token
    /// (attribute or keyword) through the contiguous trivia run above; a
    /// plain `// dcst-hot` line comment marks the fn hot. Doc comments
    /// merely *mentioning* the marker in prose do not count.
    fn hot_marker_above(&self, item_start_sig: usize) -> bool {
        let Some(&first) = self.f.sig.get(item_start_sig) else {
            return false;
        };
        let mut k = first;
        while k > 0 {
            k -= 1;
            let t = &self.f.tokens[k];
            if !t.kind.is_trivia() {
                return false;
            }
            if t.kind.is_comment() && is_hot_marker(t.text(&self.f.src)) {
                return true;
            }
        }
        false
    }

    /// A `// dcst-hot` marker may also sit between the item's attributes
    /// or modifiers and the `fn` keyword (e.g. below `#[inline]`).
    fn hot_marker_between(&self, a_sig: usize, b_sig: usize) -> bool {
        let (Some(&a), Some(&b)) = (self.f.sig.get(a_sig), self.f.sig.get(b_sig)) else {
            return false;
        };
        self.f.tokens[a..b]
            .iter()
            .any(|t| t.kind.is_comment() && is_hot_marker(t.text(&self.f.src)))
    }

    fn mod_item(&mut self, i: usize, end: usize, parent: Option<usize>, in_test: bool) -> usize {
        if i + 1 >= end {
            return end;
        }
        if i + 2 < end && self.text(i + 2) == "{" {
            let open = i + 2;
            let close = self.close_of(open, end);
            let id = self.f.mods.len();
            self.f.mods.push(ModItem { parent, in_test });
            // A mod does not change the impl owner.
            self.items(open + 1, close, None, Some(id), in_test);
            close + 1
        } else {
            (i + 2).min(end) + 1 // `mod name;`
        }
    }

    /// `impl …` / `trait …` blocks: recover the owner name and recurse
    /// into the body so methods get attributed.
    fn impl_like(
        &mut self,
        i: usize,
        end: usize,
        mod_id: Option<usize>,
        in_test: bool,
        kind: ImplKind,
    ) -> usize {
        let mut j = i + 1;
        if j < end && self.text(j) == "<" {
            j = self.skip_angles(j, end);
        }
        // Collect header tokens up to the body `{` (or `;` for
        // `trait Foo = …;` style aliases we just skip).
        let header_start = j;
        let mut body_open = None;
        while j < end {
            match self.text(j) {
                "(" | "[" => j = self.close_of(j, end) + 1,
                "<" => j = self.skip_angles(j, end),
                "{" => {
                    body_open = Some(j);
                    break;
                }
                ";" => break,
                _ => j += 1,
            }
        }
        let Some(open) = body_open else {
            return (j + 1).min(end);
        };
        let owner = self.owner_from_header(header_start, open, kind);
        let close = self.close_of(open, end);
        self.items(open + 1, close, owner.as_deref(), mod_id, in_test);
        close + 1
    }

    /// Base ident of the implemented-on type: the last top-level ident
    /// after `for` if present (`impl Debug for Worker<T>` → `Worker`),
    /// else of the whole header (`impl Worker<T>` → `Worker`).
    fn owner_from_header(&self, a: usize, b: usize, kind: ImplKind) -> Option<String> {
        if kind == ImplKind::Trait {
            return (a < b).then(|| self.text(a).to_string());
        }
        let mut start = a;
        for i in a..b {
            if self.text(i) == "for" {
                start = i + 1;
            }
            if self.text(i) == "where" {
                break;
            }
        }
        let mut last = None;
        let mut i = start;
        while i < b {
            match self.text(i) {
                "<" => i = self.skip_angles(i, b),
                "where" => break,
                "dyn" | "mut" | "&" | "*" | "'" => i += 1,
                t if self.f.kind(i) == crate::lexer::TokKind::Ident => {
                    last = Some(t.to_string());
                    i += 1;
                }
                _ => i += 1,
            }
        }
        last
    }

    /// Skip a balanced `<…>` group starting at `i` (pointing at `<`);
    /// `->` arrows inside do not close the group. Returns the position
    /// after the matching `>`, or a safe resync point.
    fn skip_angles(&self, i: usize, end: usize) -> usize {
        let mut depth = 0i32;
        let mut j = i;
        while j < end {
            match self.text(j) {
                "<" => depth += 1,
                ">" => {
                    if j > 0 && self.text(j - 1) == "-" {
                        // `->` arrow: not a closer.
                    } else {
                        depth -= 1;
                        if depth == 0 {
                            return j + 1;
                        }
                    }
                }
                "(" | "[" => {
                    j = self.close_of(j, end);
                }
                "{" | ";" => return j, // runaway generics: resync
                _ => {}
            }
            j += 1;
        }
        end
    }

    fn skip_struct_like(&self, i: usize, end: usize) -> usize {
        let mut j = i + 1;
        while j < end {
            match self.text(j) {
                "(" | "[" => j = self.close_of(j, end) + 1,
                "<" => j = self.skip_angles(j, end),
                "{" => return self.close_of(j, end) + 1,
                ";" => return j + 1,
                _ => j += 1,
            }
        }
        end
    }

    fn skip_to_semi(&self, i: usize, end: usize) -> usize {
        let mut j = i + 1;
        while j < end {
            match self.text(j) {
                "(" | "[" | "{" => j = self.close_of(j, end) + 1,
                ";" => return j + 1,
                _ => j += 1,
            }
        }
        end
    }

    fn skip_extern(&self, i: usize, end: usize) -> usize {
        // `extern crate foo;` or `extern "C" { … }`.
        let mut j = i + 1;
        while j < end {
            match self.text(j) {
                "{" => return self.close_of(j, end) + 1,
                ";" => return j + 1,
                _ => j += 1,
            }
        }
        end
    }

    fn skip_macro_rules(&self, i: usize, end: usize) -> usize {
        // `macro_rules ! name { … }` (any delimiter accepted).
        let mut j = i + 1;
        while j < end {
            match self.text(j) {
                "{" | "(" | "[" => return self.close_of(j, end) + 1,
                ";" => return j + 1,
                _ => j += 1,
            }
        }
        end
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum ImplKind {
    Impl,
    Trait,
}

/// A marker comment is a plain `//` (not `///` or `//!`) whose content
/// starts with `dcst-hot`.
fn is_hot_marker(comment: &str) -> bool {
    let Some(rest) = comment.strip_prefix("//") else {
        return false;
    };
    if rest.starts_with('/') || rest.starts_with('!') {
        return false;
    }
    rest.trim_start().starts_with("dcst-hot")
}

fn is_test_attr(attr: &str) -> bool {
    attr.starts_with("#[cfg(") && attr.contains("test")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_free_and_method_fns() {
        let src = "\
fn free(a: u32) -> u32 { a }
struct W;
impl W {
    pub fn method(&self) {}
}
impl std::fmt::Debug for W {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }
}
";
        let pf = ParsedFile::new(src);
        let names: Vec<(Option<&str>, &str)> = pf
            .fns
            .iter()
            .map(|f| (f.owner.as_deref(), f.name.as_str()))
            .collect();
        assert_eq!(
            names,
            vec![(None, "free"), (Some("W"), "method"), (Some("W"), "fmt"),]
        );
    }

    #[test]
    fn cfg_test_marks_items_transitively() {
        let src = "\
fn live() {}
#[cfg(test)]
mod tests {
    fn helper() {}
    #[test]
    fn case() {}
}
";
        let pf = ParsedFile::new(src);
        let by_name = |n: &str| pf.fns.iter().find(|f| f.name == n).unwrap();
        assert!(!pf.fn_in_test(by_name("live")));
        assert!(pf.fn_in_test(by_name("helper")));
        assert!(pf.fn_in_test(by_name("case")));
    }

    #[test]
    fn hot_marker_is_detected_through_attrs_and_docs() {
        let src = "\
/// Docs.
// dcst-hot
#[inline(always)]
pub unsafe fn kernel(p: *mut f64) {}

pub fn cold() {}

#[allow(clippy::too_many_arguments)]
// dcst-hot
pub fn below_attr() {}

/// Prose merely mentioning dcst-hot does not mark.
pub fn prose() {}
";
        let pf = ParsedFile::new(src);
        let hot = |n: &str| pf.fns.iter().find(|f| f.name == n).unwrap().hot;
        assert!(hot("kernel"));
        assert!(!hot("cold"));
        assert!(hot("below_attr"));
        assert!(!hot("prose"));
    }

    #[test]
    fn generic_fns_with_angle_arrows_parse() {
        let src = "fn apply<F: Fn(u32) -> u32, const N: usize>(f: F) -> [u32; N] { todo!() }";
        let pf = ParsedFile::new(src);
        assert_eq!(pf.fns.len(), 1);
        assert_eq!(pf.fns[0].name, "apply");
        assert!(pf.fns[0].body.is_some());
    }

    #[test]
    fn enclosing_fn_is_innermost() {
        let src = "\
fn outer() {
    let x = 1;
}
fn second() { let y = 2; }
";
        let pf = ParsedFile::new(src);
        let x_pos = (0..pf.sig.len()).find(|&i| pf.text(i) == "x").unwrap();
        assert_eq!(pf.enclosing_fn(x_pos).unwrap().name, "outer");
        let y_pos = (0..pf.sig.len()).find(|&i| pf.text(i) == "y").unwrap();
        assert_eq!(pf.enclosing_fn(y_pos).unwrap().name, "second");
    }
}
