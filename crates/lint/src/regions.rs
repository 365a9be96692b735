//! Attribute-scoped regions: which lines are `#[cfg(test)]` code.
//!
//! The lexer produces a flat token stream, so regions are recovered
//! with a bracket-depth heuristic: an attribute's target runs to the
//! close of its first depth-0 brace group (items, gated expression
//! blocks) or to the first depth-0 `;` (statements, `mod x;`,
//! trait-method declarations). That covers every gating pattern the
//! workspace uses — `#[cfg(test)] mod tests { … }`, gated `let`
//! bindings, gated `{ … }` expression blocks, gated functions — without
//! needing a real parser.

use crate::lexer::{Token, TokenKind};

/// A closed, 1-based line range `[start, end]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineRange {
    pub start: u32,
    pub end: u32,
}

impl LineRange {
    /// True if `line` falls inside this range.
    pub fn contains(&self, line: u32) -> bool {
        self.start <= line && line <= self.end
    }
}

/// The gated regions of one file.
#[derive(Debug, Default)]
pub struct Regions {
    /// `#[cfg(test)]` / `#[cfg(any(test, …))]` targets, plus whole
    /// files gated with an inner `#![cfg(test)]`.
    pub test: Vec<LineRange>,
}

impl Regions {
    /// True if `line` is inside test-gated code.
    pub fn in_test(&self, line: u32) -> bool {
        self.test.iter().any(|r| r.contains(line))
    }
}

/// Scans the token stream for test-gating cfg attributes and computes
/// their target line ranges.
pub fn analyze(tokens: &[Token]) -> Regions {
    let mut regions = Regions::default();
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is_punct('#') {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        let inner = j < tokens.len() && tokens[j].is_punct('!');
        if inner {
            j += 1;
        }
        if j >= tokens.len() || !tokens[j].is_punct('[') {
            i += 1;
            continue;
        }
        // collect the attribute group to its matching `]`
        let attr_start = j + 1;
        let mut depth = 1i32;
        let mut k = attr_start;
        while k < tokens.len() && depth > 0 {
            if tokens[k].is_punct('[') {
                depth += 1;
            } else if tokens[k].is_punct(']') {
                depth -= 1;
            }
            k += 1;
        }
        let attr = &tokens[attr_start..k.saturating_sub(1).max(attr_start)];
        let after = k; // first token past `]`
        let gates_test = attr.first().is_some_and(|t| t.is_ident("cfg"))
            && attr.iter().any(|t| t.is_ident("test"));
        if !gates_test {
            i = after;
            continue;
        }
        let range = if inner {
            // inner attribute: gates the whole enclosing file/module
            LineRange {
                start: 1,
                end: u32::MAX,
            }
        } else {
            target_range(tokens, after)
        };
        regions.test.push(range);
        i = after;
    }
    regions
}

/// The line range of the item/statement an outer attribute at token
/// position `from` applies to.
fn target_range(tokens: &[Token], from: usize) -> LineRange {
    let start_line = tokens
        .get(from)
        .map(|t| t.line)
        .unwrap_or(u32::MAX.saturating_sub(1));
    let mut i = from;
    // skip any stacked attributes between this one and the target
    while i + 1 < tokens.len() && tokens[i].is_punct('#') {
        let mut j = i + 1;
        if tokens[j].is_punct('!') {
            j += 1;
        }
        if !tokens[j].is_punct('[') {
            break;
        }
        let mut depth = 1i32;
        j += 1;
        while j < tokens.len() && depth > 0 {
            if tokens[j].is_punct('[') {
                depth += 1;
            } else if tokens[j].is_punct(']') {
                depth -= 1;
            }
            j += 1;
        }
        i = j;
    }
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut brace = 0i32;
    let mut last_line = start_line;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind == TokenKind::Punct {
            match t.text.as_bytes().first().copied() {
                Some(b'(') => paren += 1,
                Some(b')') => paren -= 1,
                Some(b'[') => bracket += 1,
                Some(b']') => bracket -= 1,
                Some(b'{') => {
                    brace += 1;
                }
                Some(b'}') => {
                    // an *unmatched* close belongs to the enclosing
                    // item — the target (a gated field or variant)
                    // ended before it
                    if brace == 0 && paren == 0 && bracket == 0 {
                        return LineRange {
                            start: start_line,
                            end: last_line,
                        };
                    }
                    brace -= 1;
                    // close of a depth-0 brace group ends an item
                    // (fn/mod/impl body, gated expression block)
                    if brace == 0 && paren == 0 && bracket == 0 {
                        return LineRange {
                            start: start_line,
                            end: t.line,
                        };
                    }
                }
                // a depth-0 `;` ends a gated statement; a depth-0 `,`
                // ends a gated struct field, enum variant, or match arm
                Some(b';') | Some(b',') if paren == 0 && bracket == 0 && brace == 0 => {
                    return LineRange {
                        start: start_line,
                        end: t.line,
                    };
                }
                _ => {}
            }
        }
        last_line = t.line;
        i += 1;
    }
    LineRange {
        start: start_line,
        end: last_line,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn regions(src: &str) -> Regions {
        analyze(&lex(src).tokens)
    }

    #[test]
    fn cfg_test_mod_is_a_test_region() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn t() {}\n}\nfn after() {}";
        let r = regions(src);
        assert!(!r.in_test(1));
        assert!(r.in_test(3));
        assert!(r.in_test(4));
        assert!(r.in_test(5));
        assert!(!r.in_test(6));
    }

    #[test]
    fn gated_let_statement_ends_at_semicolon() {
        let src = "#[cfg(test)]\nlet probe = helper();\nlet x = 1;";
        let r = regions(src);
        assert!(r.in_test(2));
        assert!(!r.in_test(3));
    }

    #[test]
    fn gated_expression_block_spans_to_close() {
        let src = "#[cfg(test)]\n{\n  a += check(x);\n  b += check(y);\n}\nafter();";
        let r = regions(src);
        assert!(r.in_test(3));
        assert!(r.in_test(4));
        assert!(!r.in_test(6));
    }

    #[test]
    fn any_predicate_with_test_counts_as_test() {
        let src = "#[cfg(any(test, feature = \"slow\"))]\nfn helper() {\n  x\n}\nfn live() {}";
        let r = regions(src);
        assert!(r.in_test(2));
        assert!(r.in_test(3));
        assert!(!r.in_test(5));
    }

    #[test]
    fn inner_cfg_gates_whole_file() {
        let src = "#![cfg(test)]\nfn anything() {}";
        let r = regions(src);
        assert!(r.in_test(1));
        assert!(r.in_test(2));
    }

    #[test]
    fn stacked_attributes_reach_the_item() {
        let src = "#[cfg(test)]\n#[derive(Debug)]\nstruct S {\n  x: u32,\n}\nfn live() {}";
        let r = regions(src);
        assert!(r.in_test(4));
        assert!(!r.in_test(6));
    }

    #[test]
    fn non_cfg_attributes_gate_nothing() {
        let src = "#[derive(Debug)]\nstruct S;\n#[inline]\nfn f() {}";
        let r = regions(src);
        assert!(r.test.is_empty());
    }

    #[test]
    fn braces_inside_parens_do_not_end_items() {
        let src = "#[cfg(test)]\nfn f() {\n  call(|| { inner() });\n  tail();\n}\nfn live() {}";
        let r = regions(src);
        assert!(r.in_test(4));
        assert!(!r.in_test(6));
    }
}
