//! Run-to-run determinism: two invocations of `hotspots run fig2
//! --quick` must produce byte-identical output, modulo the fields that
//! measure host wall time. This is the regression guard for the
//! hash-iteration fixes enforced by lint rule D2 (unordered-iteration):
//! a `HashMap` leaking into report code shows up here as line churn.

use hotspots_scenario::value::{self, Value};
use std::process::Command;

fn run_stdout(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .env_remove("HOTSPOTS_RUN_REPORT")
        .output()
        .unwrap_or_else(|e| panic!("failed to run {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} {args:?} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Strips wall-time fields from a JSONL run report so the rest can be
/// compared exactly (same normalization as `scripts/check_goldens.sh`).
fn normalized(line: &str) -> String {
    let mut report = value::from_json(line).unwrap_or_else(|e| panic!("bad JSONL: {e}\n{line}"));
    if let Value::Table(entries) = &mut report {
        entries.retain(|(k, _)| {
            !matches!(k.as_str(), "wall_seconds" | "peak_step_seconds" | "phases")
        });
    }
    value::to_json(&report)
}

#[test]
fn fig2_slammer_quick_is_byte_identical_across_runs() {
    let bin = env!("CARGO_BIN_EXE_hotspots");
    let a = run_stdout(bin, &["run", "fig2", "--quick"]);
    let b = run_stdout(bin, &["run", "fig2", "--quick"]);
    let (a_lines, b_lines): (Vec<&str>, Vec<&str>) = (a.lines().collect(), b.lines().collect());
    assert_eq!(a_lines.len(), b_lines.len(), "line counts diverge");
    for (i, (la, lb)) in a_lines.iter().zip(&b_lines).enumerate() {
        if la.starts_with('{') || lb.starts_with('{') {
            assert_eq!(
                normalized(la),
                normalized(lb),
                "line {}: JSONL reports diverge beyond wall-time fields",
                i + 1
            );
        } else {
            assert_eq!(la, lb, "line {}: output diverges between runs", i + 1);
        }
    }
}

#[test]
fn fig2_jsonl_report_carries_stable_key_order() {
    // Key order is part of byte-identity: the report builder must emit
    // fields in insertion order, never hash order.
    let bin = env!("CARGO_BIN_EXE_hotspots");
    let report_line = |s: &str| -> String {
        s.lines()
            .rev()
            .find(|l| l.starts_with('{'))
            .expect("run report present")
            .to_owned()
    };
    let a = report_line(&run_stdout(bin, &["run", "fig2", "--quick"]));
    let b = report_line(&run_stdout(bin, &["run", "fig2", "--quick"]));
    let keys = |line: &str| -> Vec<String> {
        match value::from_json(line).expect("parseable report") {
            Value::Table(entries) => entries.into_iter().map(|(k, _)| k).collect(),
            other => panic!("report is not a table: {other:?}"),
        }
    };
    assert_eq!(keys(&a), keys(&b), "report key order diverges across runs");
}
