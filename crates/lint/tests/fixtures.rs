//! Fixture corpus harness.
//!
//! Each fixture under `tests/fixtures/` is a small Rust source that
//! declares, in its first line, the workspace path it should be linted
//! *as* (`// lint-as: crates/sim/src/engine.rs`), since rule scoping
//! depends on crate and role. Expected diagnostics are marked inline
//! with `//~ <rule-id>` on the offending line; a file without markers
//! must lint clean. The harness compares the (line, rule) multiset the
//! linter produces against the markers — both missing and spurious
//! diagnostics fail.

use std::fs;
use std::path::{Path, PathBuf};

use hotspots_lint::scan::{lint_source, FileReport};

/// (fixture file, lint-as path, report, expected (line, rule-id)).
struct Case {
    name: String,
    report: FileReport,
    expected: Vec<(u32, String)>,
}

fn load_cases() -> Vec<Case> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut files = Vec::new();
    collect(&dir, &mut files);
    files.sort();
    assert!(
        files.len() >= 23,
        "fixture corpus went missing: found only {} files",
        files.len()
    );
    files
        .into_iter()
        .map(|f| {
            let src = fs::read_to_string(&f).expect("fixture readable");
            let name = f
                .strip_prefix(&dir)
                .expect("under fixtures dir")
                .to_string_lossy()
                .replace('\\', "/");
            let lint_as = src
                .lines()
                .next()
                .and_then(|l| l.split("lint-as:").nth(1))
                .and_then(|rest| rest.split_whitespace().next())
                .unwrap_or_else(|| panic!("{name}: first line must declare `// lint-as: <path>`"))
                .to_owned();
            let mut expected: Vec<(u32, String)> = Vec::new();
            for (i, line) in src.lines().enumerate() {
                if let Some(marks) = line.split("//~").nth(1) {
                    for rule in marks.split_whitespace() {
                        expected.push((i as u32 + 1, rule.to_owned()));
                    }
                }
            }
            expected.sort();
            Case {
                name,
                report: lint_source(&lint_as, &src),
                expected,
            }
        })
        .collect()
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("fixtures dir exists") {
        let p = entry.expect("dir entry").path();
        if p.is_dir() {
            collect(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

#[test]
fn every_fixture_produces_exactly_its_marked_diagnostics() {
    for case in load_cases() {
        let mut actual: Vec<(u32, String)> = case
            .report
            .diagnostics
            .iter()
            .map(|d| (d.line, d.rule.id().to_owned()))
            .collect();
        actual.sort();
        assert_eq!(
            actual, case.expected,
            "{}: diagnostics (left) differ from `//~` markers (right); full report: {:#?}",
            case.name, case.report.diagnostics
        );
    }
}

#[test]
fn waived_fixture_reports_both_pragma_forms_as_used() {
    let cases = load_cases();
    let waived = cases
        .iter()
        .find(|c| c.name == "pragma/waived.rs")
        .expect("waived fixture present");
    assert_eq!(waived.report.used_pragmas.len(), 2, "standalone + trailing");
    assert!(waived.report.unused_pragmas.is_empty());
    assert!(waived
        .report
        .used_pragmas
        .iter()
        .all(|(p, n)| !p.reason.is_empty() && *n == 1));
}

#[test]
fn stale_fixture_reports_its_pragma_as_unused() {
    let cases = load_cases();
    let stale = cases
        .iter()
        .find(|c| c.name == "pragma/stale.rs")
        .expect("stale fixture present");
    assert!(stale.report.diagnostics.is_empty());
    assert!(stale.report.used_pragmas.is_empty());
    assert_eq!(stale.report.unused_pragmas.len(), 1);
}

#[test]
fn fixture_paths_themselves_are_exempt_from_scanning() {
    // The corpus deliberately violates every rule; a workspace scan
    // must skip it (classify returns None for /fixtures/ paths).
    let src =
        fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/d5/bad.rs"))
            .expect("fixture readable");
    let report = lint_source("crates/lint/tests/fixtures/d5/bad.rs", &src);
    assert!(report.diagnostics.is_empty());
}
