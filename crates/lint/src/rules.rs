//! The rule families and their token-level checks.
//!
//! Each rule protects one invariant the reproduction's claims rest on
//! (see `DESIGN.md` §6):
//!
//! | id | name                  | invariant                                   |
//! |----|-----------------------|---------------------------------------------|
//! | D1 | `no-clock`            | one clock: hot-path crates time only        |
//! |    |                       | through `hotspots-telemetry`                |
//! | D2 | `unordered-iteration` | stable-order reports: no `HashMap`/`HashSet`|
//! |    |                       | in code that feeds rendered/JSONL output    |
//! | D3 | `ambient-entropy`     | full randomness accounting: all RNG flows   |
//! |    |                       | from id-keyed SplitMix64 streams            |
//! | D4 | `forbid-unsafe`       | every library crate forbids `unsafe`        |
//! | D5 | `panic-path`          | library code fails through `Result`, not    |
//! |    |                       | `unwrap`/`expect`/`panic!`                  |

use std::fmt;
use std::path::Path;

use crate::lexer::{Lexed, Token, TokenKind};
use crate::regions::Regions;

/// Stable rule identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    NoClock,
    UnorderedIteration,
    AmbientEntropy,
    ForbidUnsafe,
    PanicPath,
    /// R6: interprocedural panic reachability / certification checks.
    PanicReachability,
    /// R7: SplitMix64 domain-separation discipline for RNG streams.
    RngStreamDiscipline,
    /// R8: executor race rules (shard isolation, channel pairing).
    ExecutorIsolation,
    /// A malformed `hotspots-lint:` pragma (never waivable).
    BadPragma,
}

impl RuleId {
    /// All enforceable rules, in report order.
    pub const ALL: [RuleId; 9] = [
        RuleId::NoClock,
        RuleId::UnorderedIteration,
        RuleId::AmbientEntropy,
        RuleId::ForbidUnsafe,
        RuleId::PanicPath,
        RuleId::PanicReachability,
        RuleId::RngStreamDiscipline,
        RuleId::ExecutorIsolation,
        RuleId::BadPragma,
    ];

    /// Short id (`D1`…`D5`, `R6`…`R8`).
    pub fn id(self) -> &'static str {
        match self {
            RuleId::NoClock => "D1",
            RuleId::UnorderedIteration => "D2",
            RuleId::AmbientEntropy => "D3",
            RuleId::ForbidUnsafe => "D4",
            RuleId::PanicPath => "D5",
            RuleId::PanicReachability => "R6",
            RuleId::RngStreamDiscipline => "R7",
            RuleId::ExecutorIsolation => "R8",
            RuleId::BadPragma => "D0",
        }
    }

    /// Long name (`no-clock`…`executor-isolation`).
    pub fn name(self) -> &'static str {
        match self {
            RuleId::NoClock => "no-clock",
            RuleId::UnorderedIteration => "unordered-iteration",
            RuleId::AmbientEntropy => "ambient-entropy",
            RuleId::ForbidUnsafe => "forbid-unsafe",
            RuleId::PanicPath => "panic-path",
            RuleId::PanicReachability => "panic-reachability",
            RuleId::RngStreamDiscipline => "rng-stream-discipline",
            RuleId::ExecutorIsolation => "executor-isolation",
            RuleId::BadPragma => "bad-pragma",
        }
    }

    /// Parses an id (`d1`) or name (`no-clock`), case-insensitive.
    /// `bad-pragma` is deliberately unparseable: it cannot be waived.
    pub fn parse(s: &str) -> Option<RuleId> {
        let s = s.trim().to_ascii_lowercase();
        RuleId::ALL
            .into_iter()
            .filter(|r| *r != RuleId::BadPragma)
            .find(|r| s == r.id().to_ascii_lowercase() || s == r.name())
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.id(), self.name())
    }
}

/// The documentation record for one rule: the single source of truth
/// shared by `--explain`, the SARIF rule metadata, and the DESIGN.md §6
/// table (a test asserts each `guarantee` sentence appears verbatim in
/// DESIGN.md, so the CLI and the docs cannot drift).
#[derive(Debug, Clone, Copy)]
pub struct RuleDoc {
    pub rule: RuleId,
    /// One-sentence statement of the invariant the rule protects.
    pub guarantee: &'static str,
    /// A minimal violating snippet.
    pub example: &'static str,
    /// The waiver (or certification) form that silences it.
    pub waiver: &'static str,
}

impl RuleId {
    /// This rule's documentation record.
    pub fn doc(self) -> RuleDoc {
        // index math instead of a second match: ALL and DOCS share order
        RULE_DOCS[RuleId::ALL.iter().position(|r| *r == self).unwrap_or(0)]
    }
}

/// One entry per `RuleId::ALL` member, same order.
pub const RULE_DOCS: [RuleDoc; 9] = [
    RuleDoc {
        rule: RuleId::NoClock,
        guarantee: "no direct clock reads in hot-path crates; timing goes through `hotspots-telemetry`",
        example: "let t0 = Instant::now(); // in crates/sim/src; use hotspots_telemetry::Timer::start()",
        waiver: "// hotspots-lint: allow(no-clock) reason=\"…\"",
    },
    RuleDoc {
        rule: RuleId::UnorderedIteration,
        guarantee: "no hash-ordered collections in report-feeding code, so JSONL reports and rendered tables are byte-stable run to run",
        example: "let m: HashMap<u32, u32> = … // in crates/experiments/src",
        waiver: "// hotspots-lint: allow(unordered-iteration) reason=\"…\"",
    },
    RuleDoc {
        rule: RuleId::AmbientEntropy,
        guarantee: "no ambient entropy anywhere (tests included), so every random draw replays from the spec seed",
        example: "let mut rng = thread_rng();",
        waiver: "// hotspots-lint: allow(ambient-entropy) reason=\"…\"",
    },
    RuleDoc {
        rule: RuleId::ForbidUnsafe,
        guarantee: "every library crate's lib.rs carries #![forbid(unsafe_code)], so memory-safety review never reopens",
        example: "a lib.rs missing the forbid attribute",
        waiver: "// hotspots-lint: allow(forbid-unsafe) reason=\"…\"",
    },
    RuleDoc {
        rule: RuleId::PanicPath,
        guarantee: "library code fails through Result, not unwrap/expect/panic!, so callers decide failure policy",
        example: "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }",
        waiver: "// hotspots-lint: allow(panic-path) reason=\"…\" — or certify the whole fn: // hotspots-lint: certifies(panic-free) reason=\"…\"",
    },
    RuleDoc {
        rule: RuleId::PanicReachability,
        guarantee: "a fn certified panic-free must not reach an unwaived panic site through any call chain, and every certification must suppress at least one site",
        example: "// hotspots-lint: certifies(panic-free) reason=\"…\"\nfn f() { helper() } // where helper() contains a bare .unwrap()",
        waiver: "// hotspots-lint: allow(panic-reachability) reason=\"…\"",
    },
    RuleDoc {
        rule: RuleId::RngStreamDiscipline,
        guarantee: "every RNG in sim/targeting is constructed from an id-keyed stream helper and no RNG state crosses a shard boundary or hides in an Arc without re-keying",
        example: "let g = SplitMix::new(42); // literal seed, not host_seed/derive_seed",
        waiver: "// hotspots-lint: allow(rng-stream-discipline) reason=\"…\"",
    },
    RuleDoc {
        rule: RuleId::ExecutorIsolation,
        guarantee: "code reachable from drive_shard/worker_loop never mutates observable state (observers, engine flags) directly, and every channel Sender<T> has a matching Receiver<T>",
        example: "fn drive_shard(…) { observer.on_probe_batch(…) }",
        waiver: "// hotspots-lint: allow(executor-isolation) reason=\"…\"",
    },
    RuleDoc {
        rule: RuleId::BadPragma,
        guarantee: "every waiver pragma is well-formed and carries a reason; a malformed pragma is itself a violation and can never waive anything",
        example: "// hotspots-lint: allow(panic-path)   (missing reason)",
        waiver: "not waivable — fix the pragma",
    },
];

/// How a file participates in the workspace — decides which rules
/// apply to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileRole {
    /// `src/**` of a crate, excluding `src/bin` and `src/main.rs`.
    Lib,
    /// Binary sources: `src/bin/**`, `src/main.rs`.
    Bin,
    /// `tests/**`, `benches/**`, `examples/**`.
    Support,
}

/// Per-file context the rules see.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// The crate the file belongs to (`sim`, `ipspace`, …; the root
    /// package is `"."`).
    pub crate_name: String,
    pub role: FileRole,
}

/// Crates on the measured hot path. They read no clock themselves:
/// every timestamp is a `hotspots_telemetry::Timer` read, so the
/// number and place of clock reads stay in one reviewable crate.
pub const HOT_PATH_CRATES: [&str; 5] = ["sim", "targeting", "netmodel", "ipspace", "prng"];

/// Files/directories whose output feeds reports, JSONL, or rendered
/// tables — iteration order there must be deterministic, so hash-based
/// collections are banned in favour of `BTreeMap`/sorted vectors.
pub const REPORT_PATHS: [&str; 5] = [
    "crates/experiments/src/",
    "crates/telemetry/src/",
    "crates/telescope/src/",
    "crates/scenario/src/run.rs",
    "crates/sim/src/observers.rs",
];

/// Identifiers that smuggle ambient (unseeded, unaccounted) entropy.
const ENTROPY_IDENTS: [&str; 5] = [
    "thread_rng",
    "from_entropy",
    "OsRng",
    "ThreadRng",
    "RandomState",
];

/// One violation.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub rule: RuleId,
    pub path: String,
    pub line: u32,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.id(),
            self.message
        )
    }
}

impl FileCtx {
    fn in_report_path(&self) -> bool {
        REPORT_PATHS.iter().any(|p| self.path.starts_with(p))
    }

    fn in_hot_crate(&self) -> bool {
        HOT_PATH_CRATES.contains(&self.crate_name.as_str())
    }
}

/// Runs every applicable rule over one lexed file. `is_lib_root` marks
/// `src/lib.rs` (rule D4's anchor). Pragmas are applied by the caller.
pub fn check_file(
    ctx: &FileCtx,
    lexed: &Lexed,
    regions: &Regions,
    is_lib_root: bool,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let toks = &lexed.tokens;

    // D1 — no direct clock reads in hot-path crates.
    if ctx.in_hot_crate() && ctx.role == FileRole::Lib {
        for (i, t) in toks.iter().enumerate() {
            if regions.in_test(t.line) {
                continue;
            }
            let clock =
                (t.is_ident("Instant") && path_call(toks, i, "now")) || t.is_ident("SystemTime");
            if clock {
                out.push(Diagnostic {
                    rule: RuleId::NoClock,
                    path: ctx.path.clone(),
                    line: t.line,
                    message: format!(
                        "`{}` in hot-path crate `{}`: take timestamps through \
                         `hotspots_telemetry::Timer`",
                        if t.is_ident("SystemTime") {
                            "SystemTime"
                        } else {
                            "Instant::now"
                        },
                        ctx.crate_name
                    ),
                });
            }
        }
    }

    // D2 — no hash-ordered collections in report-feeding code.
    if ctx.in_report_path() && ctx.role == FileRole::Lib {
        for t in toks {
            if regions.in_test(t.line) {
                continue;
            }
            if t.is_ident("HashMap") || t.is_ident("HashSet") {
                out.push(Diagnostic {
                    rule: RuleId::UnorderedIteration,
                    path: ctx.path.clone(),
                    line: t.line,
                    message: format!(
                        "`{}` in report-feeding code: iteration order is nondeterministic, \
                         use `BTreeMap`/`BTreeSet` or sort before output",
                        t.text
                    ),
                });
            }
        }
    }

    // D3 — no ambient entropy anywhere (tests included: a test seeded
    // from the environment cannot pin determinism).
    for t in toks {
        if t.kind == TokenKind::Ident && ENTROPY_IDENTS.contains(&t.text.as_str()) {
            out.push(Diagnostic {
                rule: RuleId::AmbientEntropy,
                path: ctx.path.clone(),
                line: t.line,
                message: format!(
                    "`{}` draws ambient entropy; all randomness must flow from the id-keyed \
                     SplitMix64 streams (seeded `StdRng`/`SplitMix64`)",
                    t.text
                ),
            });
        }
    }

    // D4 — library crates must forbid unsafe code at the root.
    if is_lib_root {
        let has_forbid = toks.windows(7).any(|w| {
            w[0].is_punct('#')
                && w[1].is_punct('!')
                && w[2].is_punct('[')
                && w[3].is_ident("forbid")
                && w[4].is_punct('(')
                && w[5].is_ident("unsafe_code")
                && w[6].is_punct(')')
        });
        if !has_forbid {
            out.push(Diagnostic {
                rule: RuleId::ForbidUnsafe,
                path: ctx.path.clone(),
                line: 1,
                message: format!(
                    "library crate `{}` is missing `#![forbid(unsafe_code)]` in its lib.rs",
                    ctx.crate_name
                ),
            });
        }
    }

    // D5 — no panicking escape hatches in library code.
    if ctx.role == FileRole::Lib {
        for (i, t) in toks.iter().enumerate() {
            if regions.in_test(t.line) {
                continue;
            }
            let method_call = |name: &str| {
                t.is_ident(name)
                    && i > 0
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            };
            let bang_macro =
                |name: &str| t.is_ident(name) && toks.get(i + 1).is_some_and(|n| n.is_punct('!'));
            let hit = if method_call("unwrap") {
                Some("`.unwrap()` panics on the failure path")
            } else if method_call("expect") {
                Some("`.expect(…)` panics on the failure path")
            } else if bang_macro("panic") {
                Some("`panic!` in library code")
            } else if bang_macro("todo") || bang_macro("unimplemented") {
                Some("unimplemented code path in library code")
            } else {
                None
            };
            if let Some(what) = hit {
                out.push(Diagnostic {
                    rule: RuleId::PanicPath,
                    path: ctx.path.clone(),
                    line: t.line,
                    message: format!(
                        "{what}; return a `Result`, handle the `None`, or waive with \
                         `// hotspots-lint: allow(panic-path) reason=\"…\"`"
                    ),
                });
            }
        }
    }

    out
}

/// True if tokens at `i` start the path-call `X::name(` (with `X` at
/// `i`): used for `Instant::now(…)`.
fn path_call(toks: &[Token], i: usize, name: &str) -> bool {
    toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 3).is_some_and(|t| t.is_ident(name))
}

/// Classifies a workspace-relative path into its crate and role.
/// Returns `None` for paths the linter does not check (vendored
/// stand-ins, fixtures, generated output).
pub fn classify(rel_path: &str) -> Option<FileCtx> {
    let p = Path::new(rel_path);
    if !rel_path.ends_with(".rs") {
        return None;
    }
    // vendored dependency stand-ins are external code; fixtures are
    // deliberately violating corpora
    if rel_path.starts_with("vendor/") || rel_path.contains("/fixtures/") {
        return None;
    }
    if rel_path.starts_with("target/") {
        return None;
    }
    let (crate_name, within): (String, &str) = if let Some(rest) = rel_path.strip_prefix("crates/")
    {
        let mut parts = rest.splitn(2, '/');
        let name = parts.next()?.to_owned();
        (name, parts.next().unwrap_or(""))
    } else {
        (".".to_owned(), rel_path)
    };
    let file_name = p.file_name()?.to_str()?;
    let role = if within.starts_with("tests/")
        || within.starts_with("benches/")
        || within.starts_with("examples/")
    {
        FileRole::Support
    } else if within.starts_with("src/bin/") || within == "src/main.rs" {
        FileRole::Bin
    } else if within.starts_with("src/") {
        FileRole::Lib
    } else if file_name == "build.rs" {
        FileRole::Bin
    } else {
        FileRole::Support
    };
    Some(FileCtx {
        path: rel_path.to_owned(),
        crate_name,
        role,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::regions;

    fn check(path: &str, src: &str) -> Vec<Diagnostic> {
        let ctx = classify(path).expect("classifiable");
        let lexed = lex(src);
        let regs = regions::analyze(&lexed.tokens);
        let is_lib_root = path.ends_with("src/lib.rs");
        check_file(&ctx, &lexed, &regs, is_lib_root)
    }

    #[test]
    fn classify_roles() {
        assert_eq!(
            classify("crates/sim/src/engine.rs").unwrap().role,
            FileRole::Lib
        );
        assert_eq!(
            classify("crates/experiments/src/bin/fig1.rs").unwrap().role,
            FileRole::Bin
        );
        assert_eq!(
            classify("crates/sim/tests/x.rs").unwrap().role,
            FileRole::Support
        );
        assert_eq!(classify("src/lib.rs").unwrap().crate_name, ".");
        assert!(classify("vendor/rand/src/lib.rs").is_none());
        assert!(classify("crates/lint/tests/fixtures/d1/bad.rs").is_none());
        assert!(classify("README.md").is_none());
    }

    #[test]
    fn d1_flags_ungated_clock_in_hot_crate_only() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(check("crates/sim/src/x.rs", src).len(), 1);
        // telemetry crate is not a hot-path crate: Instant is its job
        assert!(check(
            "crates/telemetry/src/metrics.rs",
            "fn f() { Instant::now(); }"
        )
        .iter()
        .all(|d| d.rule != RuleId::NoClock));
    }

    #[test]
    fn d1_exempts_test_code_but_no_feature_gate() {
        let gated = "fn f() {\n#[cfg(feature = \"telemetry\")]\nlet t = Instant::now();\n}";
        assert_eq!(check("crates/sim/src/x.rs", gated).len(), 1);
        let test = "#[cfg(test)]\nmod tests {\n fn t() { let t = Instant::now(); }\n}";
        assert!(check("crates/sim/src/x.rs", test).is_empty());
    }

    #[test]
    fn d2_flags_hash_collections_in_report_paths_only() {
        let src = "use std::collections::HashMap;\nfn f(m: HashMap<u32, u32>) {}";
        assert_eq!(check("crates/experiments/src/render.rs", src).len(), 2);
        assert!(check("crates/netmodel/src/environment.rs", src).is_empty());
    }

    #[test]
    fn d3_flags_ambient_entropy_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n fn t() { let mut r = thread_rng(); }\n}";
        let diags = check("crates/stats/src/summary.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RuleId::AmbientEntropy);
    }

    #[test]
    fn d4_wants_forbid_unsafe_in_lib_root() {
        assert!(check(
            "crates/sim/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}"
        )
        .is_empty());
        let diags = check("crates/sim/src/lib.rs", "pub fn f() {}");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RuleId::ForbidUnsafe);
    }

    #[test]
    fn d5_flags_panics_in_lib_but_not_bins_tests() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert_eq!(check("crates/stats/src/summary.rs", src).len(), 1);
        assert!(check("crates/experiments/src/bin/fig1.rs", src).is_empty());
        assert!(check("crates/stats/tests/t.rs", src).is_empty());
        let gated = "#[cfg(test)]\nmod tests { fn t() { None::<u32>.unwrap(); } }";
        assert!(check("crates/stats/src/summary.rs", gated).is_empty());
    }

    #[test]
    fn d5_distinguishes_method_calls_from_fields() {
        // unwrap_or is a different identifier; a field named expect is
        // not a call
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) + s.expect }";
        assert!(check("crates/stats/src/summary.rs", src).is_empty());
    }

    #[test]
    fn string_contents_never_trip_rules() {
        let src = "pub fn f() -> &'static str { \"Instant::now HashMap thread_rng panic!\" }";
        assert!(check("crates/sim/src/x.rs", src).is_empty());
    }
}
