//! A conservative intra-workspace call graph.
//!
//! Nodes are the `fn` items the [item parser](crate::items) recovered;
//! edges come from syntactic call sites (`name(...)`, `.name(...)`,
//! `Path::name(...)`) resolved by *name*: a call to `name` gets an edge
//! to **every** workspace fn called `name`. That over-approximation is
//! deliberate — without type information it is the only sound choice
//! for reachability rules (R6 certification, R8 executor isolation):
//! it can produce spurious reachability (a same-named fn in an
//! unrelated crate) but never misses a real intra-workspace call by
//! static name. What it *cannot* see: calls through closure values and
//! fn pointers (the call site names the variable, not the target),
//! macro-generated calls, and calls into std/vendored code (no nodes
//! there). DESIGN.md §6 records these caveats.

use std::collections::{BTreeMap, BTreeSet};

use crate::items::{is_keyword, FnItem, ItemSet};
use crate::lexer::{Token, TokenKind};

/// One syntactic call site inside a fn body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The called name (method or fn; the last path segment).
    pub name: String,
    /// For `Path::name(...)` calls, the qualifying segment (`Arc` in
    /// `Arc::make_mut`); empty otherwise.
    pub qualifier: String,
    pub line: u32,
    /// True for `.name(...)` method-call syntax.
    pub is_method: bool,
}

/// Extracts the call sites lexically inside `body` (a token index range
/// from a [`FnItem`]).
pub fn call_sites(tokens: &[Token], body: (usize, usize)) -> Vec<CallSite> {
    let (start, end) = body;
    let end = end.min(tokens.len());
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        let t = &tokens[i];
        if t.kind == TokenKind::Ident && !is_keyword(&t.text) {
            // a call is `ident (`; macro invocations `ident ! (` are
            // not calls here (D5 covers the panicking ones), and
            // `fn ident (` is a definition, not a call.
            let next_is_paren = tokens.get(i + 1).is_some_and(|n| n.is_punct('('));
            let prev = i.checked_sub(1).and_then(|p| tokens.get(p));
            let is_def = prev.is_some_and(|p| p.is_ident("fn"));
            if next_is_paren && !is_def {
                let is_method = prev.is_some_and(|p| p.is_punct('.'));
                // `Path::name(` — look back across `::`
                let qualifier = if !is_method
                    && i >= 3
                    && tokens[i - 1].is_punct(':')
                    && tokens[i - 2].is_punct(':')
                    && tokens[i - 3].kind == TokenKind::Ident
                {
                    tokens[i - 3].text.clone()
                } else {
                    String::new()
                };
                out.push(CallSite {
                    name: t.text.clone(),
                    qualifier,
                    line: t.line,
                    is_method,
                });
            }
        }
        i += 1;
    }
    out
}

/// A fn node in the workspace graph: which file it came from plus its
/// parsed item.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Index of the owning file in the analysis list.
    pub file: usize,
    pub item: FnItem,
    pub calls: Vec<CallSite>,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub nodes: Vec<FnNode>,
    /// name → node indices of every fn with that name.
    by_name: BTreeMap<String, Vec<usize>>,
}

impl CallGraph {
    /// Builds the graph from per-file item sets and token streams.
    /// `files` pairs each file's tokens with its parsed items, in
    /// analysis order.
    pub fn build(files: &[(&[Token], &ItemSet)]) -> CallGraph {
        let mut g = CallGraph::default();
        for (file_idx, (tokens, items)) in files.iter().enumerate() {
            for f in &items.fns {
                let calls = f.body.map(|b| call_sites(tokens, b)).unwrap_or_default();
                let idx = g.nodes.len();
                g.nodes.push(FnNode {
                    file: file_idx,
                    item: f.clone(),
                    calls,
                });
                g.by_name.entry(f.name.clone()).or_default().push(idx);
            }
        }
        g
    }

    /// All nodes whose fn is named `name`.
    pub fn named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Breadth-first forward reachability from `seeds` (node indices),
    /// following name-resolved call edges, optionally restricted to
    /// nodes for which `admit` returns true. Seeds are always included.
    pub fn reachable(&self, seeds: &[usize], admit: impl Fn(usize) -> bool) -> BTreeSet<usize> {
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let mut queue: Vec<usize> = Vec::new();
        for &s in seeds {
            if s < self.nodes.len() && seen.insert(s) {
                queue.push(s);
            }
        }
        while let Some(n) = queue.pop() {
            for call in &self.nodes[n].calls {
                for &callee in self.named(&call.name) {
                    if admit(callee) && seen.insert(callee) {
                        queue.push(callee);
                    }
                }
            }
        }
        seen
    }

    /// Finds one call path (as a list of node indices, seed first) from
    /// any seed to any node in `targets`, for diagnostics. Returns
    /// `None` when unreachable.
    pub fn find_path(
        &self,
        seeds: &[usize],
        targets: &BTreeSet<usize>,
        admit: impl Fn(usize) -> bool,
    ) -> Option<Vec<usize>> {
        let mut prev: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<usize> = Default::default();
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        for &s in seeds {
            if s < self.nodes.len() && seen.insert(s) {
                queue.push_back(s);
            }
        }
        while let Some(n) = queue.pop_front() {
            if targets.contains(&n) {
                let mut path = vec![n];
                let mut cur = n;
                while let Some(&p) = prev.get(&cur) {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            for call in &self.nodes[n].calls {
                for &callee in self.named(&call.name) {
                    if admit(callee) && seen.insert(callee) {
                        prev.insert(callee, n);
                        queue.push_back(callee);
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse;
    use crate::lexer::lex;

    fn graph(src: &str) -> (CallGraph, crate::lexer::Lexed, ItemSet) {
        let lexed = lex(src);
        let items = parse(&lexed.tokens);
        let g = CallGraph::build(&[(&lexed.tokens, &items)]);
        (g, lexed, items)
    }

    #[test]
    fn direct_method_and_path_calls_are_edges() {
        let src = "fn a() { b(); x.c(); Arc::make_mut(&mut y); }\nfn b() {}\nfn c() {}";
        let (g, _, _) = graph(src);
        let a = g.named("a")[0];
        let names: Vec<&str> = g.nodes[a].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["b", "c", "make_mut"]);
        assert_eq!(g.nodes[a].calls[2].qualifier, "Arc");
        assert!(g.nodes[a].calls[1].is_method);
    }

    #[test]
    fn reachability_follows_chains_and_name_fallback() {
        let src = "fn top() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\nfn island() {}";
        let (g, _, _) = graph(src);
        let top = g.named("top")[0];
        let reach = g.reachable(&[top], |_| true);
        assert!(reach.contains(&g.named("leaf")[0]));
        assert!(!reach.contains(&g.named("island")[0]));
    }

    #[test]
    fn find_path_reports_a_chain() {
        let src = "fn top() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}";
        let (g, _, _) = graph(src);
        let top = g.named("top")[0];
        let leaf = g.named("leaf")[0];
        let targets: BTreeSet<usize> = [leaf].into_iter().collect();
        let path = g.find_path(&[top], &targets, |_| true).expect("reachable");
        let names: Vec<&str> = path
            .iter()
            .map(|&n| g.nodes[n].item.name.as_str())
            .collect();
        assert_eq!(names, vec!["top", "mid", "leaf"]);
    }

    #[test]
    fn macro_invocations_and_definitions_are_not_calls() {
        let src = "fn a() { panic!(\"x\"); }\nfn b() {}";
        let (g, _, _) = graph(src);
        let a = g.named("a")[0];
        assert!(g.nodes[a].calls.is_empty());
    }
}
