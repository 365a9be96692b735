//! The shipped tree must lint clean: this is the same scan the CI
//! `lint-invariants` job runs, wired into `cargo test` so a violation
//! fails locally before it fails remotely.

use std::path::Path;

use hotspots_lint::scan::{find_workspace_root, lint_files, workspace_files};

#[test]
fn workspace_lints_clean() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("lint crate lives inside the workspace");
    let files = workspace_files(&root);
    assert!(
        files.len() >= 50,
        "workspace scan found only {} files — discovery is broken",
        files.len()
    );
    let report = lint_files(&root, &files);
    assert!(
        report.is_clean(),
        "workspace has lint violations:\n{}",
        report.render_text()
    );
    // every waiver in the tree must carry a reason
    for (p, path, _) in &report.used_pragmas {
        assert!(
            !p.reason.trim().is_empty(),
            "{path}:{}: waiver without a reason",
            p.line
        );
    }
    // and none may be stale
    assert!(
        report.unused_pragmas.is_empty(),
        "stale waivers present:\n{}",
        report.render_text()
    );
}

/// Retiring a waiver is one-way. The typed-error hardening of the run
/// path removed the `RunSet` and per-binary runner panic waivers, and the
/// R6 certification burn-down converted 33 more D5 waivers (corpus
/// generation, slammer cycle maps, figure rendering, the ablation
/// runner) into 17 call-graph-checked `certifies(panic-free)` pragmas,
/// and typed NAT-deployment errors retired the `apply_nat` gateway
/// waiver. This pin keeps any retired waiver from silently returning as a new
/// `expect` with a fresh pragma: the count may only fall; raising it
/// takes a deliberate edit here alongside the new waiver's
/// justification.
const WAIVER_CEILING: usize = 24;

#[test]
fn workspace_waiver_count_is_pinned() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("lint crate lives inside the workspace");
    let files = workspace_files(&root);
    let report = lint_files(&root, &files);
    let waivers: Vec<String> = report
        .used_pragmas
        .iter()
        .map(|(p, path, _)| format!("{path}:{}", p.line))
        .collect();
    assert!(
        waivers.len() <= WAIVER_CEILING,
        "workspace waiver count rose above the {WAIVER_CEILING} ceiling; current waivers:\n{}",
        waivers.join("\n")
    );
}

/// The serve crate (PR 10) joined the workspace under the full rule
/// set with **zero** waivers: its library code routes every failure
/// through `Result`, uses logical sequence numbers instead of clocks
/// for LRU ordering, and keeps its channel types paired. This pins
/// both halves — the scan actually covers the crate, and no waiver
/// creeps into it.
#[test]
fn serve_crate_is_scanned_and_waiver_free() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("lint crate lives inside the workspace");
    let files = workspace_files(&root);
    let serve_files: Vec<String> = files
        .iter()
        .filter_map(|f| f.strip_prefix(&root).ok())
        .map(|f| f.to_string_lossy().replace('\\', "/"))
        .filter(|f| f.starts_with("crates/serve/"))
        .collect();
    assert!(
        serve_files.iter().any(|f| f.ends_with("src/lib.rs"))
            && serve_files.iter().any(|f| f.ends_with("src/server.rs")),
        "serve crate missing from the workspace scan: {serve_files:?}"
    );
    let report = lint_files(&root, &files);
    let serve_waivers: Vec<String> = report
        .used_pragmas
        .iter()
        .filter(|(_, path, _)| path.starts_with("crates/serve/"))
        .map(|(p, path, _)| format!("{path}:{}", p.line))
        .collect();
    assert!(
        serve_waivers.is_empty(),
        "the serve crate must stay waiver-free:\n{}",
        serve_waivers.join("\n")
    );
}

/// The burn-down's certifications are load-bearing: each must keep
/// suppressing at least one D5 site (R6 already fails the scan when
/// one goes stale), carry a reason, and stay at or above the count the
/// burn-down landed (removing one means re-adding waivers, which the
/// ceiling above would catch — this pins the other direction).
#[test]
fn certifications_are_present_and_reasoned() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("lint crate lives inside the workspace");
    let files = workspace_files(&root);
    let report = lint_files(&root, &files);
    assert!(
        report.certifications.len() >= 17,
        "expected at least 17 certified fns, found {}",
        report.certifications.len()
    );
    for (p, path, fn_name, suppressed) in &report.certifications {
        assert!(
            !p.reason.trim().is_empty(),
            "{path}:{}: certification without a reason",
            p.line
        );
        assert!(
            *suppressed > 0,
            "{path}:{}: certification of `{fn_name}` suppresses no D5 site",
            p.line
        );
    }
}
