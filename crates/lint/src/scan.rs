//! File discovery, the two-phase scan pipeline, pragma application,
//! and report assembly.
//!
//! The scan has two phases. The **per-file phase** is pure — lex,
//! region recovery, item parsing, and every local rule (D1–D5, R7).
//! The **workspace phase** ([`finalize`]) builds the call graph over
//! every file, runs the graph rules (R6, R8), applies the waiver
//! pragmas, and sorts every finding by `(path, line, rule)`.

use std::fs;
use std::path::{Path, PathBuf};

use hotspots_telemetry::json::write_str;

use crate::graph::CallGraph;
use crate::items::{self, ItemSet};
use crate::lexer::{self, Lexed};
use crate::pragma::{self, BadPragma, Pragma, PragmaKind};
use crate::regions::{self, Regions};
use crate::rules::{self, Diagnostic, FileCtx, RuleId};
use crate::{invariants, sarif};

/// Everything the per-file phase recovers from one source file — the
/// input the workspace phase consumes.
#[derive(Debug)]
pub struct FileAnalysis {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// `None` for files the linter does not check (they still count as
    /// scanned and still contribute nothing to the graph).
    pub ctx: Option<FileCtx>,
    pub lexed: Lexed,
    pub regions: Regions,
    pub items: ItemSet,
    /// Local-rule diagnostics before pragma application.
    pub raw: Vec<Diagnostic>,
    pub pragmas: Vec<Pragma>,
    pub bad: Vec<BadPragma>,
}

impl FileAnalysis {
    fn empty(rel_path: &str) -> FileAnalysis {
        FileAnalysis {
            rel_path: rel_path.to_owned(),
            ctx: None,
            lexed: Lexed::default(),
            regions: Regions::default(),
            items: ItemSet::default(),
            raw: Vec::new(),
            pragmas: Vec::new(),
            bad: Vec::new(),
        }
    }
}

/// The pure per-file phase: everything that needs only this one file.
pub fn analyze_source(rel_path: &str, src: &str) -> FileAnalysis {
    let Some(ctx) = rules::classify(rel_path) else {
        return FileAnalysis::empty(rel_path);
    };
    let lexed = lexer::lex(src);
    let regs = regions::analyze(&lexed.tokens);
    let items = items::parse(&lexed.tokens);
    let is_lib_root = rel_path.ends_with("src/lib.rs");
    let mut raw = rules::check_file(&ctx, &lexed, &regs, is_lib_root);
    raw.extend(invariants::check_rng_streams(
        &ctx,
        &lexed.tokens,
        &regs,
        &items,
    ));
    let (pragmas, bad) = pragma::collect(&lexed.comments, &lexed.tokens);
    FileAnalysis {
        rel_path: rel_path.to_owned(),
        ctx: Some(ctx),
        lexed,
        regions: regs,
        items,
        raw,
        pragmas,
        bad,
    }
}

/// The outcome of linting one file (the single-file API the fixture
/// tests drive; `finalize` produces the same data workspace-wide).
#[derive(Debug, Default)]
pub struct FileReport {
    /// Violations that survived pragma filtering.
    pub diagnostics: Vec<Diagnostic>,
    /// Pragmas that actually waived at least one violation.
    pub used_pragmas: Vec<(Pragma, u32)>,
    /// Pragmas that waived nothing (stale waivers — reported, so they
    /// get cleaned up when the violation disappears).
    pub unused_pragmas: Vec<Pragma>,
    /// `certifies(panic-free)` pragmas with the certified fn and how
    /// many D5 sites each suppressed.
    pub certifications: Vec<(Pragma, String, u32)>,
}

/// Lints one in-memory source file under the given workspace-relative
/// path, treating it as a one-file workspace (the graph rules see only
/// this file). The CLI single-file mode and the fixture tests share it.
pub fn lint_source(rel_path: &str, src: &str) -> FileReport {
    let ws = finalize(vec![analyze_source(rel_path, src)]);
    FileReport {
        diagnostics: ws.diagnostics,
        used_pragmas: ws
            .used_pragmas
            .into_iter()
            .map(|(p, _, n)| (p, n))
            .collect(),
        unused_pragmas: ws.unused_pragmas.into_iter().map(|(p, _)| p).collect(),
        certifications: ws
            .certifications
            .into_iter()
            .map(|(p, _, f, n)| (p, f, n))
            .collect(),
    }
}

/// The whole run: every file's surviving diagnostics plus the waiver
/// and certification inventory.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    pub diagnostics: Vec<Diagnostic>,
    pub used_pragmas: Vec<(Pragma, String, u32)>,
    pub unused_pragmas: Vec<(Pragma, String)>,
    /// `(pragma, path, certified fn, D5 sites suppressed)`.
    pub certifications: Vec<(Pragma, String, String, u32)>,
    pub files_scanned: usize,
}

/// The serial workspace phase: graph rules, pragma application,
/// deterministic ordering.
pub fn finalize(analyses: Vec<FileAnalysis>) -> WorkspaceReport {
    let mut report = WorkspaceReport {
        files_scanned: analyses.len(),
        ..WorkspaceReport::default()
    };

    // graph rules need every file's items at once
    let graph_input: Vec<(&[lexer::Token], &ItemSet)> = analyses
        .iter()
        .map(|a| (a.lexed.tokens.as_slice(), &a.items))
        .collect();
    let graph = CallGraph::build(&graph_input);
    let cert = invariants::check_certifications(&analyses, &graph);
    let r8 = invariants::check_executor_isolation(&analyses, &graph);

    // group the workspace-rule findings by file for pragma application
    let mut extra: Vec<Vec<Diagnostic>> = vec![Vec::new(); analyses.len()];
    let by_path: std::collections::BTreeMap<&str, usize> = analyses
        .iter()
        .enumerate()
        .map(|(i, a)| (a.rel_path.as_str(), i))
        .collect();
    for d in cert.diags.into_iter().chain(r8) {
        match by_path.get(d.path.as_str()) {
            Some(&i) => extra[i].push(d),
            None => report.diagnostics.push(d),
        }
    }

    for (fi, a) in analyses.iter().enumerate() {
        let mut waived_by = vec![0u32; a.pragmas.len()];
        let cert_suppressed = |di: usize| cert.suppressed.contains(&(fi, di));
        let all = a
            .raw
            .iter()
            .enumerate()
            .filter(|(di, _)| !cert_suppressed(*di))
            .map(|(_, d)| d.clone())
            .chain(extra[fi].drain(..));
        for d in all {
            let waiver = a
                .pragmas
                .iter()
                .position(|p| p.rule() == Some(d.rule) && p.effective_lines.contains(&d.line));
            match waiver {
                Some(i) => waived_by[i] += 1,
                None => report.diagnostics.push(d),
            }
        }
        for b in &a.bad {
            report.diagnostics.push(Diagnostic {
                rule: RuleId::BadPragma,
                path: a.rel_path.clone(),
                line: b.line,
                message: b.message.clone(),
            });
        }
        for (pi, (p, count)) in a.pragmas.iter().zip(waived_by).enumerate() {
            match p.kind {
                PragmaKind::Allow(_) => {
                    if count > 0 {
                        report
                            .used_pragmas
                            .push((p.clone(), a.rel_path.clone(), count));
                    } else {
                        report.unused_pragmas.push((p.clone(), a.rel_path.clone()));
                    }
                }
                PragmaKind::Certify => {
                    if let Some((_, _, name, n)) = cert
                        .cert_uses
                        .iter()
                        .find(|(cf, cp, _, _)| *cf == fi && *cp == pi)
                    {
                        report.certifications.push((
                            p.clone(),
                            a.rel_path.clone(),
                            name.clone(),
                            *n,
                        ));
                    }
                    // unattached certs already produced an R6 diagnostic
                }
            }
        }
    }

    // deterministic emit order whatever the scan order was
    report
        .diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.rule.id()).cmp(&(&b.path, b.line, b.rule.id())));
    report
        .used_pragmas
        .sort_by(|a, b| (&a.1, a.0.line).cmp(&(&b.1, b.0.line)));
    report
        .unused_pragmas
        .sort_by(|a, b| (&a.1, a.0.line).cmp(&(&b.1, b.0.line)));
    report
        .certifications
        .sort_by(|a, b| (&a.1, a.0.line).cmp(&(&b.1, b.0.line)));
    report
}

impl WorkspaceReport {
    /// Violations per rule, in `RuleId::ALL` order (zeros skipped).
    pub fn counts_by_rule(&self) -> Vec<(RuleId, usize)> {
        RuleId::ALL
            .into_iter()
            .map(|r| (r, self.diagnostics.iter().filter(|d| d.rule == r).count()))
            .filter(|(_, n)| *n > 0)
            .collect()
    }

    /// The human-readable summary (diagnostics, then pragma inventory).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        if !self.diagnostics.is_empty() {
            out.push('\n');
        }
        out.push_str(&format!(
            "hotspots-lint: {} file(s) scanned, {} violation(s)",
            self.files_scanned,
            self.diagnostics.len()
        ));
        for (rule, n) in self.counts_by_rule() {
            out.push_str(&format!("\n  {rule}: {n}"));
        }
        out.push('\n');
        if !self.used_pragmas.is_empty() {
            out.push_str(&format!(
                "\n{} waiver(s) in effect (review these periodically):\n",
                self.used_pragmas.len()
            ));
            for (p, path, n) in &self.used_pragmas {
                let rule = p.rule().unwrap_or(RuleId::BadPragma);
                out.push_str(&format!(
                    "  {path}:{}: allow({}) ×{n} — {}\n",
                    p.line,
                    rule.name(),
                    p.reason
                ));
            }
        }
        if !self.certifications.is_empty() {
            out.push_str(&format!(
                "\n{} fn(s) certified panic-free (checked against the call graph):\n",
                self.certifications.len()
            ));
            for (p, path, fn_name, n) in &self.certifications {
                out.push_str(&format!(
                    "  {path}:{}: certifies(panic-free) `{fn_name}` ×{n} — {}\n",
                    p.line, p.reason
                ));
            }
        }
        if !self.unused_pragmas.is_empty() {
            out.push_str(&format!(
                "\n{} stale waiver(s) (no longer matching any violation — remove):\n",
                self.unused_pragmas.len()
            ));
            for (p, path) in &self.unused_pragmas {
                let rule = p.rule().unwrap_or(RuleId::BadPragma);
                out.push_str(&format!("  {path}:{}: allow({})\n", p.line, rule.name()));
            }
        }
        out
    }

    /// The machine-readable report: one JSON object with `violations`,
    /// `waivers`, and `certifications` arrays, hand-assembled; strings
    /// escape through the workspace's one JSON string writer.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"files_scanned\":");
        out.push_str(&self.files_scanned.to_string());
        out.push_str(",\"violations\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"rule\":");
            write_str(&mut out, d.rule.id());
            out.push_str(",\"name\":");
            write_str(&mut out, d.rule.name());
            out.push_str(",\"file\":");
            write_str(&mut out, &d.path);
            out.push_str(&format!(",\"line\":{},\"message\":", d.line));
            write_str(&mut out, &d.message);
            out.push('}');
        }
        out.push_str("],\"waivers\":[");
        for (i, (p, path, n)) in self.used_pragmas.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let rule = p.rule().unwrap_or(RuleId::BadPragma);
            out.push_str("{\"rule\":");
            write_str(&mut out, rule.id());
            out.push_str(",\"file\":");
            write_str(&mut out, path);
            out.push_str(&format!(",\"line\":{},\"waived\":{n},\"reason\":", p.line));
            write_str(&mut out, &p.reason);
            out.push('}');
        }
        out.push_str("],\"certifications\":[");
        for (i, (p, path, fn_name, n)) in self.certifications.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"file\":");
            write_str(&mut out, path);
            out.push_str(&format!(",\"line\":{},\"fn\":", p.line));
            write_str(&mut out, fn_name);
            out.push_str(&format!(",\"suppressed\":{n},\"reason\":"));
            write_str(&mut out, &p.reason);
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// The SARIF 2.1.0 report (CI uploads this for PR annotations).
    pub fn render_sarif(&self) -> String {
        sarif::render(self)
    }

    /// Exit status: nonzero iff violations survived.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Finds the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Collects the `.rs` files a `--workspace` run scans: `crates/*/src`
/// recursively plus the root package's `src/`. Vendored stand-ins,
/// fixtures, tests/benches/examples are out of scope (rules D1–D5 are
/// library-code invariants; `classify` would skip most of them anyway).
pub fn workspace_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates_dir) {
        let mut dirs: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for d in dirs {
            collect_rs(&d.join("src"), &mut out);
        }
    }
    collect_rs(&root.join("src"), &mut out);
    out.sort();
    out
}

pub(crate) fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// One file's per-file phase, reading from disk.
fn analyze_path(root: &Path, f: &Path) -> FileAnalysis {
    let rel = f
        .strip_prefix(root)
        .unwrap_or(f)
        .to_string_lossy()
        .replace('\\', "/");
    match fs::read_to_string(f) {
        Ok(src) => analyze_source(&rel, &src),
        Err(_) => {
            let mut a = FileAnalysis::empty(&rel);
            a.raw.push(Diagnostic {
                rule: RuleId::BadPragma,
                path: rel,
                line: 0,
                message: "unreadable file".to_owned(),
            });
            a
        }
    }
}

/// Lints the given files (absolute or root-relative), reporting paths
/// relative to `root`.
pub fn lint_files(root: &Path, files: &[PathBuf]) -> WorkspaceReport {
    finalize(files.iter().map(|f| analyze_path(root, f)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pragma_waives_exactly_its_rule_and_line() {
        let src = "pub fn f(x: Option<u32>) -> u32 {\n    // hotspots-lint: allow(panic-path) reason=\"caller checked\"\n    x.unwrap()\n}\n";
        let r = lint_source("crates/stats/src/x.rs", src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.used_pragmas.len(), 1);
        assert_eq!(r.used_pragmas[0].1, 1);
    }

    #[test]
    fn pragma_for_wrong_rule_waives_nothing() {
        let src = "pub fn f(x: Option<u32>) -> u32 {\n    // hotspots-lint: allow(no-clock) reason=\"misfiled\"\n    x.unwrap()\n}\n";
        let r = lint_source("crates/stats/src/x.rs", src);
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.unused_pragmas.len(), 1);
    }

    #[test]
    fn trailing_pragma_waives_same_line() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() } // hotspots-lint: allow(panic-path) reason=\"demo\"\n";
        let r = lint_source("crates/stats/src/x.rs", src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn certification_suppresses_body_sites_and_is_counted() {
        let src = "// hotspots-lint: certifies(panic-free) reason=\"idx bounded\"\npub fn f(v: &[u32]) -> u32 { v.first().copied().map(|x| x).unwrap() }\n";
        let r = lint_source("crates/stats/src/x.rs", src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.certifications.len(), 1);
        assert_eq!(r.certifications[0].1, "f");
        assert_eq!(r.certifications[0].2, 1);
    }

    #[test]
    fn json_report_is_assembled_and_escaped() {
        let src = "pub fn f() { panic!(\"quote \\\" here\") }";
        let ws = finalize(vec![analyze_source("crates/stats/src/x.rs", src)]);
        let json = ws.render_json();
        assert!(json.contains("\"rule\":\"D5\""));
        assert!(json.contains("\"violations\":["));
        assert!(json.contains("\"certifications\":["));
        assert!(!ws.is_clean());
    }

    #[test]
    fn bad_pragma_cannot_waive_itself() {
        let src = "// hotspots-lint: allow(bad-pragma) reason=\"nope\"\nfn f() {}\n";
        let r = lint_source("crates/stats/src/x.rs", src);
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].rule, RuleId::BadPragma);
    }

    #[test]
    fn diagnostics_come_out_sorted_by_path_line_rule() {
        let a = analyze_source(
            "crates/stats/src/b.rs",
            "pub fn f() { panic!(\"x\") }\npub fn g() { panic!(\"y\") }\n",
        );
        let b = analyze_source("crates/stats/src/a.rs", "pub fn h() { panic!(\"z\") }\n");
        let ws = finalize(vec![a, b]);
        let keys: Vec<(String, u32)> = ws
            .diagnostics
            .iter()
            .map(|d| (d.path.clone(), d.line))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(keys[0].0, "crates/stats/src/a.rs");
    }
}
