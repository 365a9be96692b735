//! A hand-rolled item parser on top of the lexer.
//!
//! The call-graph rules (R6 `panic-reachability`, R8
//! `executor-isolation`) and the RNG rule (R7 `rng-stream-discipline`)
//! need more structure than a flat token stream: which `fn` a token
//! belongs to, and where each item's body starts and ends. This module
//! recovers exactly that — fn / struct /
//! enum / trait / mod boundaries with body token spans — from the token
//! stream with a single bracket-depth pass. It is *not* a Rust parser:
//! expressions are never interpreted, and malformed input degrades to
//! fewer (never wrong-span) items. Like the lexer, it must never panic
//! on arbitrary token soup (pinned by a proptest).

use crate::lexer::Token;

/// What kind of item a definition is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    Fn,
    Struct,
    Enum,
    Trait,
    Mod,
    Const,
    Static,
    TypeAlias,
}

/// One `fn` definition with its body span.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare name (`drive_shard`).
    pub name: String,
    /// Display name with its impl/mod context (`StepPipeline::run_step`).
    pub qualified: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Last line of the item (close brace, or the `;` of a bodyless
    /// declaration).
    pub end_line: u32,
    /// Token index range `[start, end)` of the body including braces;
    /// `None` for bodyless declarations (trait methods).
    pub body: Option<(usize, usize)>,
}

impl FnItem {
    /// True if `line` falls lexically inside this fn (signature to
    /// close brace).
    pub fn contains_line(&self, line: u32) -> bool {
        self.line <= line && line <= self.end_line
    }
}

/// One non-fn item definition (only the name and line matter to the
/// rules: R7 checks shard-payload structs).
#[derive(Debug, Clone)]
pub struct TypeItem {
    pub kind: ItemKind,
    pub name: String,
    /// Line of the introducing keyword.
    pub line: u32,
    pub end_line: u32,
    /// Token index range of the body including braces, when present
    /// (struct with named fields, enum, trait, mod).
    pub body: Option<(usize, usize)>,
}

/// Everything the parser recovered from one file.
#[derive(Debug, Default)]
pub struct ItemSet {
    pub fns: Vec<FnItem>,
    pub types: Vec<TypeItem>,
}

impl ItemSet {
    /// The innermost fn whose lexical extent contains `line` (nested
    /// fns win over their enclosing fn).
    pub fn enclosing_fn(&self, line: u32) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, f) in self.fns.iter().enumerate() {
            if f.contains_line(line) {
                let tighter = match best {
                    None => true,
                    Some(b) => {
                        let cur = &self.fns[b];
                        (f.end_line - f.line) < (cur.end_line - cur.line)
                    }
                };
                if tighter {
                    best = Some(i);
                }
            }
        }
        best
    }
}

/// Keywords that can never be item or call names.
pub(crate) fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "as" | "break"
            | "const"
            | "continue"
            | "crate"
            | "dyn"
            | "else"
            | "enum"
            | "extern"
            | "false"
            | "fn"
            | "for"
            | "if"
            | "impl"
            | "in"
            | "let"
            | "loop"
            | "match"
            | "mod"
            | "move"
            | "mut"
            | "pub"
            | "ref"
            | "return"
            | "self"
            | "Self"
            | "static"
            | "struct"
            | "super"
            | "trait"
            | "true"
            | "type"
            | "unsafe"
            | "use"
            | "where"
            | "while"
            | "async"
            | "await"
            | "union"
    )
}

/// One entry on the scope stack while parsing.
struct Scope {
    /// Context label contributed to qualified names (impl type, mod
    /// name); empty for anonymous braces.
    label: String,
    /// Index into the pending item lists if this scope is an item body.
    fn_idx: Option<usize>,
    type_idx: Option<usize>,
    /// Token index of the opening `{`.
    open: usize,
}

/// Parses the token stream into an [`ItemSet`]. Single forward pass:
/// item keywords open pending items, brace tokens maintain a scope
/// stack, and the matching close brace finalizes each item's span.
/// Never panics; unbalanced braces simply close whatever is open at
/// EOF.
pub fn parse(tokens: &[Token]) -> ItemSet {
    let mut out = ItemSet::default();
    let mut scopes: Vec<Scope> = Vec::new();
    let mut i = 0usize;

    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('#') {
            // skip attributes wholesale so `#[derive(...)]` contents
            // never look like items
            i = skip_attribute(tokens, i);
            continue;
        }
        if t.is_punct('{') {
            scopes.push(Scope {
                label: String::new(),
                fn_idx: None,
                type_idx: None,
                open: i,
            });
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            if let Some(s) = scopes.pop() {
                close_scope(&mut out, s, i, tokens);
            }
            i += 1;
            continue;
        }
        if t.is_ident("fn") {
            i = parse_fn(tokens, i, &mut out, &mut scopes);
            continue;
        }
        if t.is_ident("struct") || t.is_ident("enum") || t.is_ident("trait") || t.is_ident("union")
        {
            let kind = match t.text.as_str() {
                "struct" | "union" => ItemKind::Struct,
                "enum" => ItemKind::Enum,
                _ => ItemKind::Trait,
            };
            i = parse_type_item(tokens, i, kind, &mut out, &mut scopes);
            continue;
        }
        if t.is_ident("mod") {
            i = parse_mod(tokens, i, &mut out, &mut scopes);
            continue;
        }
        if t.is_ident("impl") {
            i = parse_impl(tokens, i, &mut scopes);
            continue;
        }
        if t.is_ident("const") || t.is_ident("static") || t.is_ident("type") {
            // `const NAME: T = ...;` / `static NAME` / `type NAME =`;
            // skip `const fn` (handled by the fn arm on the next token)
            // and `impl Trait for` type positions by requiring an
            // ident immediately after.
            if let Some(n) = tokens.get(i + 1) {
                if n.kind == crate::lexer::TokenKind::Ident && !is_keyword(&n.text) {
                    let kind = match t.text.as_str() {
                        "const" => ItemKind::Const,
                        "static" => ItemKind::Static,
                        _ => ItemKind::TypeAlias,
                    };
                    out.types.push(TypeItem {
                        kind,
                        name: n.text.clone(),
                        line: t.line,
                        end_line: n.line,
                        body: None,
                    });
                }
            }
            i += 1;
            continue;
        }
        i += 1;
    }
    // unbalanced input: close remaining scopes at EOF
    let eof = tokens.len();
    while let Some(s) = scopes.pop() {
        close_scope(&mut out, s, eof.saturating_sub(1), tokens);
    }
    out
}

/// Finalizes the item (if any) owning a scope that just closed at token
/// index `close`.
fn close_scope(out: &mut ItemSet, s: Scope, close: usize, tokens: &[Token]) {
    let end_line = tokens.get(close).map(|t| t.line).unwrap_or(u32::MAX);
    if let Some(fi) = s.fn_idx {
        if let Some(f) = out.fns.get_mut(fi) {
            f.body = Some((s.open, close + 1));
            f.end_line = end_line;
        }
    }
    if let Some(ti) = s.type_idx {
        if let Some(t) = out.types.get_mut(ti) {
            t.body = Some((s.open, close + 1));
            t.end_line = end_line;
        }
    }
}

/// Skips an attribute `#[...]` / `#![...]` starting at `i` (the `#`).
fn skip_attribute(tokens: &[Token], i: usize) -> usize {
    let mut j = i + 1;
    if tokens.get(j).is_some_and(|t| t.is_punct('!')) {
        j += 1;
    }
    if !tokens.get(j).is_some_and(|t| t.is_punct('[')) {
        return i + 1;
    }
    let mut depth = 0i32;
    while j < tokens.len() {
        if tokens[j].is_punct('[') {
            depth += 1;
        } else if tokens[j].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    tokens.len()
}

/// The enclosing context label for qualified names (`Type::` or
/// `mod::`).
fn context_label(scopes: &[Scope]) -> String {
    let mut label = String::new();
    for s in scopes {
        if !s.label.is_empty() {
            if !label.is_empty() {
                label.push_str("::");
            }
            label.push_str(&s.label);
        }
    }
    label
}

/// Parses `fn NAME ... ;` or `fn NAME ... { body }` starting at the
/// `fn` keyword. Returns the index to continue from (just past the
/// signature: the body is walked by the main loop so nested items are
/// seen).
fn parse_fn(tokens: &[Token], at: usize, out: &mut ItemSet, scopes: &mut Vec<Scope>) -> usize {
    let Some(name_tok) = tokens.get(at + 1) else {
        return at + 1;
    };
    if name_tok.kind != crate::lexer::TokenKind::Ident || is_keyword(&name_tok.text) {
        return at + 1;
    }
    let name = name_tok.text.clone();
    let ctx = context_label(scopes);
    let qualified = if ctx.is_empty() {
        name.clone()
    } else {
        format!("{ctx}::{name}")
    };
    // scan the signature for its body `{` or terminating `;`; generic
    // bounds and where clauses contain no braces, so the first `{` at
    // signature level opens the body. Track parens/brackets so closure
    // types in params don't confuse the `;` check.
    let mut j = at + 2;
    let mut paren = 0i32;
    let mut bracket = 0i32;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('[') {
            bracket += 1;
        } else if t.is_punct(']') {
            bracket -= 1;
        } else if t.is_punct(';') && paren <= 0 && bracket <= 0 {
            // bodyless declaration (trait method, extern)
            out.fns.push(FnItem {
                name,
                qualified,
                line: tokens[at].line,
                end_line: t.line,
                body: None,
            });
            return j + 1;
        } else if t.is_punct('{') && paren <= 0 && bracket <= 0 {
            let idx = out.fns.len();
            out.fns.push(FnItem {
                name: name.clone(),
                qualified,
                line: tokens[at].line,
                end_line: t.line,
                body: None,
            });
            scopes.push(Scope {
                label: name,
                fn_idx: Some(idx),
                type_idx: None,
                open: j,
            });
            return j + 1;
        }
        j += 1;
    }
    // EOF inside a signature: record what we saw
    out.fns.push(FnItem {
        name,
        qualified,
        line: tokens[at].line,
        end_line: tokens.last().map(|t| t.line).unwrap_or(tokens[at].line),
        body: None,
    });
    tokens.len()
}

/// Parses `struct/enum/trait/union NAME ...` to its body or `;`.
fn parse_type_item(
    tokens: &[Token],
    at: usize,
    kind: ItemKind,
    out: &mut ItemSet,
    scopes: &mut Vec<Scope>,
) -> usize {
    let Some(name_tok) = tokens.get(at + 1) else {
        return at + 1;
    };
    if name_tok.kind != crate::lexer::TokenKind::Ident || is_keyword(&name_tok.text) {
        return at + 1;
    }
    let name = name_tok.text.clone();
    let mut j = at + 2;
    let mut paren = 0i32;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct(';') && paren <= 0 {
            // unit or tuple struct
            out.types.push(TypeItem {
                kind,
                name,
                line: tokens[at].line,
                end_line: t.line,
                body: None,
            });
            return j + 1;
        } else if t.is_punct('{') && paren <= 0 {
            let idx = out.types.len();
            out.types.push(TypeItem {
                kind,
                name: name.clone(),
                line: tokens[at].line,
                end_line: t.line,
                body: None,
            });
            scopes.push(Scope {
                label: String::new(),
                fn_idx: None,
                type_idx: Some(idx),
                open: j,
            });
            return j + 1;
        }
        j += 1;
    }
    tokens.len()
}

/// Skips `mod NAME;` (an out-of-line declaration) or parses
/// `mod NAME { ... }` (scope push).
fn parse_mod(tokens: &[Token], at: usize, out: &mut ItemSet, scopes: &mut Vec<Scope>) -> usize {
    let Some(name_tok) = tokens.get(at + 1) else {
        return at + 1;
    };
    if name_tok.kind != crate::lexer::TokenKind::Ident || is_keyword(&name_tok.text) {
        return at + 1;
    }
    match tokens.get(at + 2) {
        Some(t) if t.is_punct(';') => at + 3,
        Some(t) if t.is_punct('{') => {
            let idx = out.types.len();
            out.types.push(TypeItem {
                kind: ItemKind::Mod,
                name: name_tok.text.clone(),
                line: tokens[at].line,
                end_line: t.line,
                body: None,
            });
            scopes.push(Scope {
                label: name_tok.text.clone(),
                fn_idx: None,
                type_idx: Some(idx),
                open: at + 2,
            });
            at + 3
        }
        _ => at + 2,
    }
}

/// Parses an `impl` header to its `{`, pushing a scope labelled with
/// the self type: `impl Foo` → `Foo`, `impl Trait for Foo` → `Foo`.
fn parse_impl(tokens: &[Token], at: usize, scopes: &mut Vec<Scope>) -> usize {
    let mut j = at + 1;
    let mut after_for: Option<String> = None;
    let mut first_ident: Option<String> = None;
    let mut angle = 0i32;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if t.is_ident("for") && angle <= 0 {
            after_for = Some(String::new()); // armed: next ident is the self type
        } else if t.kind == crate::lexer::TokenKind::Ident && !is_keyword(&t.text) && angle <= 0 {
            match &mut after_for {
                Some(ty) if ty.is_empty() => *ty = t.text.clone(),
                _ => {
                    if first_ident.is_none() {
                        first_ident = Some(t.text.clone());
                    }
                }
            }
        } else if t.is_punct('{') {
            let label = after_for
                .filter(|s| !s.is_empty())
                .or(first_ident)
                .unwrap_or_default();
            scopes.push(Scope {
                label,
                fn_idx: None,
                type_idx: None,
                open: j,
            });
            return j + 1;
        } else if t.is_punct(';') {
            // `impl Foo;` is not Rust, but never loop past it
            return j + 1;
        }
        j += 1;
    }
    tokens.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn items(src: &str) -> ItemSet {
        parse(&lex(src).tokens)
    }

    #[test]
    fn fns_get_names_spans_and_bodies() {
        let src = "fn a() { x(); }\nfn b(v: u32) -> u32 {\n  v\n}\n";
        let set = items(src);
        assert_eq!(set.fns.len(), 2);
        assert_eq!(set.fns[0].name, "a");
        assert_eq!((set.fns[0].line, set.fns[0].end_line), (1, 1));
        assert_eq!(set.fns[1].name, "b");
        assert_eq!((set.fns[1].line, set.fns[1].end_line), (2, 4));
        assert!(set.fns[1].body.is_some());
    }

    #[test]
    fn impl_methods_are_qualified_by_self_type() {
        let src = "impl Display for Engine { fn fmt(&self) {} }\nimpl Engine { fn run(&mut self) { self.fmt() } }";
        let set = items(src);
        let names: Vec<&str> = set.fns.iter().map(|f| f.qualified.as_str()).collect();
        assert_eq!(names, vec!["Engine::fmt", "Engine::run"]);
    }

    #[test]
    fn nested_fns_and_enclosing_lookup() {
        let src = "fn outer() {\n  fn inner() {\n    x();\n  }\n  inner();\n}";
        let set = items(src);
        assert_eq!(set.fns.len(), 2);
        let inner = set.enclosing_fn(3).map(|i| set.fns[i].name.clone());
        assert_eq!(inner.as_deref(), Some("inner"));
        let outer = set.enclosing_fn(5).map(|i| set.fns[i].name.clone());
        assert_eq!(outer.as_deref(), Some("outer"));
    }

    #[test]
    fn trait_methods_without_bodies_are_declarations() {
        let src = "trait Obs {\n  fn on_probe(&mut self, t: f64);\n  fn on_batch(&mut self) {}\n}";
        let set = items(src);
        assert_eq!(set.fns.len(), 2);
        assert!(set.fns[0].body.is_none());
        assert!(set.fns[1].body.is_some());
        assert_eq!(set.types.len(), 1);
        assert_eq!(set.types[0].name, "Obs");
    }

    #[test]
    fn structs_enums_mods_and_consts_are_recorded() {
        let src = "struct ShardJob { hosts: Vec<Host> }\nenum Kind { A, B }\nmod telemetry;\nmod inline { fn f() {} }\nconst SALT: u64 = 1;\nstatic X: u32 = 0;\ntype Alias = u32;";
        let set = items(src);
        let type_names: Vec<&str> = set.types.iter().map(|t| t.name.as_str()).collect();
        assert!(type_names.contains(&"ShardJob"));
        assert!(type_names.contains(&"Kind"));
        assert!(type_names.contains(&"inline"));
        assert!(type_names.contains(&"SALT"));
        assert!(type_names.contains(&"X"));
        assert!(type_names.contains(&"Alias"));
        assert!(!type_names.contains(&"telemetry"), "`mod x;` is no item");
        assert_eq!(set.fns.len(), 1);
        assert_eq!(set.fns[0].qualified, "inline::f");
    }

    #[test]
    fn attribute_contents_are_not_items() {
        let src = "#[derive(Debug, Clone)]\n#[cfg(feature = \"telemetry\")]\nstruct S { x: u32 }";
        let set = items(src);
        assert_eq!(set.types.len(), 1);
        assert_eq!(set.types[0].name, "S");
    }

    #[test]
    fn closures_in_params_do_not_end_signatures() {
        let src = "fn apply(f: impl Fn(u32) -> u32) -> u32 { f(1) }\nfn next() {}";
        let set = items(src);
        assert_eq!(set.fns.len(), 2);
        assert_eq!(set.fns[0].name, "apply");
        assert_eq!(set.fns[1].name, "next");
    }

    #[test]
    fn unbalanced_braces_never_panic() {
        for src in [
            "fn a() { {",
            "} } fn b() {}",
            "impl {",
            "fn",
            "struct",
            "mod",
            "impl Foo for",
            "fn f(",
        ] {
            let _ = items(src);
        }
    }
}
