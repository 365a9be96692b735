//! The call-graph and workspace-level rule families R6–R8.
//!
//! The token rules (D1–D5) judge each line in isolation; the rules here
//! need the structure the [item parser](crate::items) and the
//! [call graph](crate::graph) recover:
//!
//! * **R6 `panic-reachability`** — checks `certifies(panic-free)`
//!   pragmas against the graph: a certified fn must not reach an
//!   unwaived, uncertified D5 site through any call chain, and a
//!   certification that suppresses nothing (and reaches no panic site
//!   at all) is itself a violation, so certifications rot as loudly as
//!   waivers do.
//! * **R7 `rng-stream-discipline`** — every RNG construction in
//!   sim/targeting library code must be fed from an id-keyed seed
//!   (`host_seed`, `derive_seed(…)`, `rng_seed`, …), and RNG state must
//!   not ride in `ShardJob`/`ShardDone` payloads or hide in an `Arc`.
//! * **R8 `executor-isolation`** — code reachable from
//!   `drive_shard`/`worker_loop` must not call observable-state
//!   mutators (observer dispatch, `Arc::make_mut` on engine flags);
//!   merging happens on the coordinator after `ShardDone`. Every
//!   channel `Sender<T>` needs a type-paired `Receiver<T>` in the same
//!   crate.
//!
//! All passes are deterministic: files are visited in analysis order,
//! and every set/map used is ordered (`BTreeMap`/`BTreeSet`).

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::CallGraph;
use crate::items::ItemSet;
use crate::lexer::{Token, TokenKind};
use crate::pragma::PragmaKind;
use crate::regions::Regions;
use crate::rules::{Diagnostic, FileCtx, FileRole, RuleId, HOT_PATH_CRATES};
use crate::scan::FileAnalysis;

/// RNG state types the workspace constructs (R7's subjects).
const RNG_TYPES: [&str; 6] = [
    "SplitMix",
    "StdRng",
    "Lcg32",
    "Prng32",
    "SlammerPrng",
    "MsvcrtRand",
];

/// Constructor names that seed an RNG.
const RNG_CTORS: [&str; 3] = ["new", "seed_from_u64", "from_seed"];

/// Crates where R7's construction discipline applies (the simulation
/// core; the `prng` crate *implements* the generators and is exempt).
const RNG_SCOPE: [&str; 2] = ["sim", "targeting"];

/// Observer/engine mutators banned on the shard execution path (R8).
/// Observer dispatch and shared-flag mutation belong to the
/// coordinator's merge phase, after `ShardDone` lands.
const SHARD_BANNED_METHODS: [&str; 1] = ["on_probe_batch"];

/// Fns whose bodies (and transitive callees) form the shard execution
/// path.
const SHARD_ENTRY_FNS: [&str; 2] = ["drive_shard", "worker_loop"];

// ---------------------------------------------------------------------
// R7 rng-stream-discipline (per-file; pure, so it parallelizes)
// ---------------------------------------------------------------------

/// Runs R7 over one file. Library code in sim/targeting only; test
/// regions and the seed-derivation helpers themselves are exempt.
pub fn check_rng_streams(
    ctx: &FileCtx,
    tokens: &[Token],
    regions: &Regions,
    items: &ItemSet,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if ctx.role != FileRole::Lib || !RNG_SCOPE.contains(&ctx.crate_name.as_str()) {
        return out;
    }

    // seed-derivation helpers construct RNGs from raw key material by
    // design: exempt fns whose name names the stream contract
    let in_seed_helper = |line: u32| {
        items
            .enclosing_fn(line)
            .map(|i| {
                let name = items.fns[i].name.to_ascii_lowercase();
                name.contains("seed") || name.contains("stream")
            })
            .unwrap_or(false)
    };

    for (i, t) in tokens.iter().enumerate() {
        if regions.in_test(t.line) {
            continue;
        }
        // `Rng::ctor( args )` — the args must name an id-keyed seed
        if t.kind == TokenKind::Ident
            && RNG_TYPES.contains(&t.text.as_str())
            && tokens.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && tokens
                .get(i + 3)
                .is_some_and(|n| RNG_CTORS.contains(&n.text.as_str()))
            && tokens.get(i + 4).is_some_and(|n| n.is_punct('('))
            && !in_seed_helper(t.line)
            && !ctor_args_are_seeded(tokens, i + 4)
        {
            out.push(Diagnostic {
                rule: RuleId::RngStreamDiscipline,
                path: ctx.path.clone(),
                line: t.line,
                message: format!(
                    "`{}::{}` is not fed from an id-keyed seed (expected `host_seed`, \
                     `derive_seed(…)`, or another `*seed*` value); ad-hoc seeds break the \
                     SplitMix64 domain-separation contract",
                    t.text,
                    tokens[i + 3].text
                ),
            });
        }
        // `Arc< Rng …` — shared RNG state cannot be re-keyed per shard
        if t.is_ident("Arc")
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('<'))
            && tokens
                .get(i + 2)
                .is_some_and(|n| RNG_TYPES.contains(&n.text.as_str()))
        {
            out.push(Diagnostic {
                rule: RuleId::RngStreamDiscipline,
                path: ctx.path.clone(),
                line: t.line,
                message: format!(
                    "`Arc<{}>` shares RNG state across owners without re-keying; derive a \
                     fresh id-keyed stream per consumer instead",
                    tokens[i + 2].text
                ),
            });
        }
    }

    // RNG state inside shard channel payloads crosses the shard
    // boundary: per-host streams must be re-derived from host ids on
    // the receiving side, never shipped
    for ty in &items.types {
        if ty.name != "ShardJob" && ty.name != "ShardDone" {
            continue;
        }
        let Some((start, end)) = ty.body else {
            continue;
        };
        for t in tokens[start..end.min(tokens.len())].iter() {
            if t.kind == TokenKind::Ident && RNG_TYPES.contains(&t.text.as_str()) {
                out.push(Diagnostic {
                    rule: RuleId::RngStreamDiscipline,
                    path: ctx.path.clone(),
                    line: t.line,
                    message: format!(
                        "RNG state (`{}`) in shard payload `{}` crosses the shard boundary; \
                         carry host ids and re-derive the stream on arrival",
                        t.text, ty.name
                    ),
                });
            }
        }
    }
    out
}

/// True when any argument of the call opening at `open_paren` names a
/// seed-carrying value (`host_seed`, `derive_seed`, `rng_seed`, …).
fn ctor_args_are_seeded(tokens: &[Token], open_paren: usize) -> bool {
    let mut depth = 0i32;
    let mut j = open_paren;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return false;
            }
        } else if t.kind == TokenKind::Ident && t.text.to_ascii_lowercase().contains("seed") {
            return true;
        }
        j += 1;
    }
    false
}

// ---------------------------------------------------------------------
// R6 panic-reachability (workspace; needs the call graph)
// ---------------------------------------------------------------------

/// What the certification pass decided.
#[derive(Debug, Default)]
pub struct CertOutcome {
    /// R6 violations: unattached pragmas, certified fns that reach live
    /// panic sites, stale certifications.
    pub diags: Vec<Diagnostic>,
    /// `(file index, raw-diagnostic index)` of every D5 site a
    /// certification suppresses.
    pub suppressed: BTreeSet<(usize, usize)>,
    /// `(file index, pragma index, certified fn, sites suppressed)` for
    /// every attached certification — the report's inventory.
    pub cert_uses: Vec<(usize, usize, String, u32)>,
}

/// Runs R6 over the analyzed workspace. `graph` must have been built
/// from `files` in order (node indices follow file order).
pub fn check_certifications(files: &[FileAnalysis], graph: &CallGraph) -> CertOutcome {
    let mut out = CertOutcome::default();

    // node index of (file, fn_idx): files contribute nodes in order
    let mut node_offset = Vec::with_capacity(files.len());
    let mut acc = 0usize;
    for f in files {
        node_offset.push(acc);
        acc += f.items.fns.len();
    }

    // attach each certifies(panic-free) pragma to its fn
    let mut certs: Vec<(usize, usize, usize)> = Vec::new(); // (file, pragma, fn)
    for (fi, f) in files.iter().enumerate() {
        for (pi, p) in f.pragmas.iter().enumerate() {
            if p.kind != PragmaKind::Certify {
                continue;
            }
            match attach_cert(&f.items, p.line, p.anchor_line()) {
                Some(k) => certs.push((fi, pi, k)),
                None => out.diags.push(Diagnostic {
                    rule: RuleId::PanicReachability,
                    path: f.rel_path.clone(),
                    line: p.line,
                    message: "`certifies(panic-free)` does not precede a fn item; attach it \
                              to the fn it certifies"
                        .to_owned(),
                }),
            }
        }
    }

    // suppress D5 sites lexically inside certified fns; tally per cert
    let mut cert_count = vec![0u32; certs.len()];
    for (fi, f) in files.iter().enumerate() {
        for (di, d) in f.raw.iter().enumerate() {
            if d.rule != RuleId::PanicPath {
                continue;
            }
            // innermost certified fn containing the site wins the tally
            let mut best: Option<(usize, u32)> = None; // (cert idx, span)
            for (ci, &(cf, _, k)) in certs.iter().enumerate() {
                if cf != fi {
                    continue;
                }
                let item = &files[cf].items.fns[k];
                if item.contains_line(d.line) {
                    let span = item.end_line - item.line;
                    let tighter = match best {
                        None => true,
                        Some((_, s)) => span < s,
                    };
                    if tighter {
                        best = Some((ci, span));
                    }
                }
            }
            if let Some((ci, _)) = best {
                cert_count[ci] += 1;
                out.suppressed.insert((fi, di));
            }
        }
    }

    // classify every D5 site's owning graph node: live sites (neither
    // waived nor certified) are what a certification must not reach
    let mut live_nodes: BTreeSet<usize> = BTreeSet::new();
    let mut any_nodes: BTreeSet<usize> = BTreeSet::new();
    for (fi, f) in files.iter().enumerate() {
        for (di, d) in f.raw.iter().enumerate() {
            if d.rule != RuleId::PanicPath {
                continue;
            }
            let Some(k) = f.items.enclosing_fn(d.line) else {
                continue;
            };
            let node = node_offset[fi] + k;
            any_nodes.insert(node);
            let waived = f.pragmas.iter().any(|p| {
                p.rule() == Some(RuleId::PanicPath) && p.effective_lines.contains(&d.line)
            });
            if !waived && !out.suppressed.contains(&(fi, di)) {
                live_nodes.insert(node);
            }
        }
    }

    // check each certification against the graph
    for (ci, &(fi, pi, k)) in certs.iter().enumerate() {
        let f = &files[fi];
        let item = &f.items.fns[k];
        let node = node_offset[fi] + k;
        let reach = graph.reachable(&[node], |_| true);
        let hits: BTreeSet<usize> = reach.intersection(&live_nodes).copied().collect();
        if !hits.is_empty() {
            let chain = graph
                .find_path(&[node], &hits, |_| true)
                .map(|path| {
                    path.iter()
                        .map(|&n| graph.nodes[n].item.qualified.clone())
                        .collect::<Vec<_>>()
                        .join(" → ")
                })
                .unwrap_or_default();
            let target = hits.iter().next().copied().unwrap_or(node);
            out.diags.push(Diagnostic {
                rule: RuleId::PanicReachability,
                path: f.rel_path.clone(),
                line: item.line,
                message: format!(
                    "`{}` is certified panic-free but can reach a panic site in `{}` \
                     ({}:{}); guard the call, certify the callee, or waive the site",
                    item.qualified,
                    graph.nodes[target].item.qualified,
                    files[graph.nodes[target].file].rel_path,
                    graph.nodes[target].item.line,
                ),
            });
            if !chain.is_empty() {
                if let Some(d) = out.diags.last_mut() {
                    d.message.push_str(&format!(" [via {chain}]"));
                }
            }
        } else if cert_count[ci] == 0 && reach.intersection(&any_nodes).next().is_none() {
            out.diags.push(Diagnostic {
                rule: RuleId::PanicReachability,
                path: f.rel_path.clone(),
                line: f.pragmas[pi].line,
                message: format!(
                    "stale certification: `{}` contains no panic site and reaches none — \
                     remove the `certifies(panic-free)` pragma",
                    item.qualified
                ),
            });
        }
        out.cert_uses
            .push((fi, pi, item.qualified.clone(), cert_count[ci]));
    }
    out
}

/// Finds the fn a certification at `pragma_line`/`anchor` certifies:
/// the fn whose signature starts on the anchor line, or (when
/// attributes sit between the pragma and the fn) the next fn below with
/// no other item in between.
fn attach_cert(items: &ItemSet, pragma_line: u32, anchor: u32) -> Option<usize> {
    // trailing form or pragma directly above the signature: the anchor
    // line falls inside the fn
    if let Some(k) = items.enclosing_fn(anchor) {
        if items.fns[k].line >= pragma_line {
            return Some(k);
        }
        // the anchor is inside an *earlier* fn's body: misplaced
        return None;
    }
    // the anchor is an attribute line between pragma and fn: take the
    // nearest fn below, unless a non-fn item intervenes
    let next = items
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| f.line > anchor)
        .min_by_key(|(_, f)| f.line)?;
    let intervening = items
        .types
        .iter()
        .any(|t| t.line > anchor && t.line < next.1.line);
    if intervening || next.1.line - anchor > 8 {
        return None;
    }
    Some(next.0)
}

// ---------------------------------------------------------------------
// R8 executor-isolation (workspace)
// ---------------------------------------------------------------------

/// Runs R8: channel pairing per crate, then mutator reachability from
/// the shard entry fns.
pub fn check_executor_isolation(files: &[FileAnalysis], graph: &CallGraph) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // ---- channel pairing: every Sender<T> needs a Receiver<T> in the
    // same crate (and vice versa) ----
    type FirstSeen = BTreeMap<String, (usize, u32)>;
    let mut senders: BTreeMap<String, FirstSeen> = BTreeMap::new();
    let mut receivers: BTreeMap<String, FirstSeen> = BTreeMap::new();
    for (fi, f) in files.iter().enumerate() {
        let Some(ctx) = &f.ctx else { continue };
        if ctx.role != FileRole::Lib {
            continue;
        }
        let toks = &f.lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            if f.regions.in_test(t.line) {
                continue;
            }
            let side = if t.is_ident("Sender") || t.is_ident("SyncSender") {
                Some(&mut senders)
            } else if t.is_ident("Receiver") {
                Some(&mut receivers)
            } else {
                None
            };
            let Some(map) = side else { continue };
            // `Sender< T` — key the pairing on the payload's head type
            if toks.get(i + 1).is_some_and(|n| n.is_punct('<')) {
                if let Some(ty) = toks.get(i + 2).filter(|n| n.kind == TokenKind::Ident) {
                    map.entry(ctx.crate_name.clone())
                        .or_default()
                        .entry(ty.text.clone())
                        .or_insert((fi, t.line));
                }
            }
        }
    }
    let crates: BTreeSet<&String> = senders.keys().chain(receivers.keys()).collect();
    for krate in crates {
        let empty = FirstSeen::new();
        let s = senders.get(krate).unwrap_or(&empty);
        let r = receivers.get(krate).unwrap_or(&empty);
        for (ty, &(fi, line)) in s {
            if !r.contains_key(ty) {
                out.push(Diagnostic {
                    rule: RuleId::ExecutorIsolation,
                    path: files[fi].rel_path.clone(),
                    line,
                    message: format!(
                        "`Sender<{ty}>` has no matching `Receiver<{ty}>` in crate `{krate}`: \
                         every channel send needs a type-paired recv"
                    ),
                });
            }
        }
        for (ty, &(fi, line)) in r {
            if !s.contains_key(ty) {
                out.push(Diagnostic {
                    rule: RuleId::ExecutorIsolation,
                    path: files[fi].rel_path.clone(),
                    line,
                    message: format!(
                        "`Receiver<{ty}>` has no matching `Sender<{ty}>` in crate `{krate}`: \
                         every channel recv needs a type-paired send"
                    ),
                });
            }
        }
    }

    // ---- mutator reachability: the shard execution path must not
    // touch observers or shared engine flags ----
    let in_hot_lib = |n: usize| {
        let f = &files[graph.nodes[n].file];
        f.ctx.as_ref().is_some_and(|c| {
            c.role == FileRole::Lib && HOT_PATH_CRATES.contains(&c.crate_name.as_str())
        }) && !f.regions.in_test(graph.nodes[n].item.line)
    };
    let mut seeds = Vec::new();
    for (i, n) in graph.nodes.iter().enumerate() {
        if SHARD_ENTRY_FNS.contains(&n.item.name.as_str())
            && files[n.file]
                .ctx
                .as_ref()
                .is_some_and(|c| c.crate_name == "sim")
            && in_hot_lib(i)
        {
            seeds.push(i);
        }
    }
    for n in graph.reachable(&seeds, in_hot_lib) {
        let node = &graph.nodes[n];
        for call in &node.calls {
            let banned_method =
                call.is_method && SHARD_BANNED_METHODS.contains(&call.name.as_str());
            let banned_path = call.qualifier == "Arc" && call.name == "make_mut";
            if banned_method || banned_path {
                out.push(Diagnostic {
                    rule: RuleId::ExecutorIsolation,
                    path: files[node.file].rel_path.clone(),
                    line: call.line,
                    message: format!(
                        "`{}{}` inside `{}`, which is reachable from the shard execution \
                         path ({}): observable state must change only through the \
                         ShardDone merge on the coordinator",
                        if banned_path { "Arc::" } else { "." },
                        call.name,
                        node.item.qualified,
                        SHARD_ENTRY_FNS.join("/"),
                    ),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::fs;
    use std::path::Path;

    use super::{RNG_TYPES, SHARD_BANNED_METHODS};
    use crate::lexer::{lex, TokenKind};
    use crate::scan::{collect_rs, find_workspace_root};

    /// Names a `fn`, `struct`, `enum`, `trait` or `type` item defines
    /// anywhere under `crates/` or `vendor/` (lint fixtures excluded:
    /// they are inputs, not definitions).
    fn defined_names() -> BTreeSet<String> {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("lint crate sits inside the workspace");
        let mut files = Vec::new();
        collect_rs(&root.join("crates"), &mut files);
        collect_rs(&root.join("vendor"), &mut files);
        let mut names = BTreeSet::new();
        for f in files
            .iter()
            .filter(|f| !f.components().any(|c| c.as_os_str() == "fixtures"))
        {
            let tokens = lex(&fs::read_to_string(f).expect("readable source")).tokens;
            for pair in tokens.windows(2) {
                if ["fn", "struct", "enum", "trait", "type"]
                    .iter()
                    .any(|kw| pair[0].is_ident(kw))
                    && pair[1].kind == TokenKind::Ident
                {
                    names.insert(pair[1].text.clone());
                }
            }
        }
        names
    }

    #[test]
    fn rule_lists_name_only_defined_items() {
        let defined = defined_names();
        let missing: Vec<&str> = RNG_TYPES
            .iter()
            .chain(&SHARD_BANNED_METHODS)
            .copied()
            .filter(|name| !defined.contains(*name))
            .collect();
        assert!(
            missing.is_empty(),
            "R7/R8 lists name undefined items: {missing:?}"
        );
    }
}
