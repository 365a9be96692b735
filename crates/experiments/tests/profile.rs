//! Acceptance contract for `hotspots profile`: the Chrome trace and
//! collapsed-stack artifacts are valid, byte-identical across runs
//! once the timing payloads are masked (the golden-schema guarantee),
//! and `--scaling` writes the [`BenchSummary`] schema with the engine's
//! `merge` phase broken out.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use hotspots_telemetry::{json, BenchSummary, RunReport};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_hotspots")
}

/// A fresh per-test scratch directory under the system tmpdir.
fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hotspots-profile-{}-{label}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `hotspots <args>` with run-report emission pointed nowhere and
/// asserts success.
fn run_ok(args: &[&str]) -> String {
    let out = Command::new(bin())
        .args(args)
        .env_remove("HOTSPOTS_RUN_REPORT")
        .output()
        .expect("spawn hotspots");
    assert!(
        out.status.success(),
        "hotspots {args:?} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Sorted file names in `dir` with the given suffix.
fn artifacts(dir: &Path, suffix: &str) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .expect("read scratch dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf-8 name")
        })
        .filter(|n| n.ends_with(suffix))
        .collect();
    names.sort();
    names
}

/// Masks the `"ts":N` / `"dur":N` payloads — the only fields of the
/// Chrome export allowed to differ between two runs of the same spec.
fn mask_timing(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    while i < bytes.len() {
        let rest = &text[i..];
        if let Some(key) = ["\"ts\":", "\"dur\":"]
            .iter()
            .find(|k| rest.starts_with(**k))
        {
            out.push_str(key);
            out.push('#');
            i += key.len();
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
        } else {
            out.push(bytes[i] as char); // exporter output is ASCII
            i += 1;
        }
    }
    out
}

/// Frame paths of a collapsed-stack dump, weights stripped.
fn folded_paths(text: &str) -> Vec<String> {
    text.lines()
        .map(|l| l.rsplit_once(' ').expect("path weight").0.to_owned())
        .collect()
}

#[test]
fn profile_writes_valid_artifacts_and_phase_table() {
    let dir = scratch("valid");
    let stdout = run_ok(&[
        "profile",
        "bench-slammer",
        "--quick",
        "--out",
        dir.to_str().expect("utf-8 path"),
    ]);

    let traces = artifacts(&dir, ".trace.json");
    let folds = artifacts(&dir, ".folded");
    assert_eq!(traces.len(), 1, "one thread count -> one trace: {traces:?}");
    assert_eq!(
        folds.len(),
        1,
        "one thread count -> one folded dump: {folds:?}"
    );

    let chrome = fs::read_to_string(dir.join(&traces[0])).expect("read trace");
    json::parse(&chrome).expect("chrome trace is valid JSON");
    assert!(
        chrome.contains("\"traceEvents\""),
        "missing traceEvents array"
    );
    assert!(chrome.contains("\"ph\":\"X\""), "missing complete events");

    let folded = fs::read_to_string(dir.join(&folds[0])).expect("read folded");
    let paths = folded_paths(&folded);
    let mut sorted = paths.clone();
    sorted.sort();
    assert_eq!(paths, sorted, "collapsed stacks must be sorted");
    assert!(
        paths.iter().any(|p| p.contains("merge")),
        "merge phase missing from collapsed stacks: {paths:?}"
    );

    // The CLI prints a per-phase breakdown with merge broken out.
    assert!(
        stdout.contains("merge"),
        "phase table lacks merge:\n{stdout}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn profile_artifacts_are_deterministic_modulo_timing() {
    let (a, b) = (scratch("det-a"), scratch("det-b"));
    for dir in [&a, &b] {
        run_ok(&[
            "profile",
            "bench-slammer",
            "--quick",
            "--out",
            dir.to_str().expect("utf-8 path"),
        ]);
    }

    let traces = artifacts(&a, ".trace.json");
    assert_eq!(
        traces,
        artifacts(&b, ".trace.json"),
        "artifact names differ"
    );
    for name in &traces {
        let chrome_a = fs::read_to_string(a.join(name)).expect("read a");
        let chrome_b = fs::read_to_string(b.join(name)).expect("read b");
        assert_eq!(
            mask_timing(&chrome_a),
            mask_timing(&chrome_b),
            "{name}: chrome traces differ beyond ts/dur"
        );
    }

    let folds = artifacts(&a, ".folded");
    assert_eq!(folds, artifacts(&b, ".folded"), "artifact names differ");
    for name in &folds {
        let folded_a = fs::read_to_string(a.join(name)).expect("read a");
        let folded_b = fs::read_to_string(b.join(name)).expect("read b");
        assert_eq!(
            folded_paths(&folded_a),
            folded_paths(&folded_b),
            "{name}: collapsed stacks differ beyond weights"
        );
    }
    let _ = fs::remove_dir_all(&a);
    let _ = fs::remove_dir_all(&b);
}

#[test]
fn scaling_writes_bench_summary_with_merge_phase() {
    let dir = scratch("scaling");
    let bench_json = dir.join("bench.json");
    run_ok(&[
        "profile",
        "bench-slammer",
        "--quick",
        "--scaling",
        "1",
        "--out",
        dir.to_str().expect("utf-8 path"),
        "--bench-json",
        bench_json.to_str().expect("utf-8 path"),
    ]);

    let text = fs::read_to_string(&bench_json).expect("read bench json");
    let summary = BenchSummary::from_json(&text).expect("BenchSummary schema");
    assert_eq!(summary.scaling.len(), 1);
    let point = &summary.scaling[0];
    assert_eq!(point.threads, 1);
    assert!((point.speedup - 1.0).abs() < 1e-9, "serial speedup is 1.0");
    assert!(point.probes_per_sec > 0.0);
    assert!(summary.probes > 0);
    assert!(
        point
            .phase_breakdown
            .iter()
            .any(|(name, _)| name == "merge"),
        "merge phase missing from breakdown: {:?}",
        point.phase_breakdown
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Runs `hotspots profile bench-slammer --quick --threads N` and returns
/// (stdout, canonical run-report bytes).
fn profile_threads(threads: &str, label: &str) -> (String, String) {
    let dir = scratch(label);
    let out = Command::new(bin())
        .args([
            "profile",
            "bench-slammer",
            "--quick",
            "--threads",
            threads,
            "--out",
            dir.to_str().expect("utf-8 path"),
        ])
        .env_remove("HOTSPOTS_RUN_REPORT")
        .output()
        .expect("spawn hotspots");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(
        out.status.success(),
        "exited with {}:\n{stderr}",
        out.status
    );
    let report = stdout
        .lines()
        .find(|l| l.starts_with("{\"kind\":\"run_report\""))
        .expect("run report line");
    let canonical = RunReport::from_jsonl(report)
        .expect("parse run report")
        .canonicalized()
        .to_jsonl();
    let _ = fs::remove_dir_all(&dir);
    (stdout, canonical)
}

/// The default build shards: a 2-thread profile dispatches work to the
/// pool (so the pool-only `park`/`wake` phases appear) and still
/// reports exactly the serial run's canonical bytes.
#[test]
fn two_thread_profile_runs_on_the_pool_and_matches_serial() {
    let (_, serial) = profile_threads("1", "pool-1t");
    let (stdout, pooled) = profile_threads("2", "pool-2t");
    let has_phase = |name: &str| {
        stdout
            .lines()
            .any(|l| l.split_whitespace().next() == Some(name))
    };
    assert!(
        has_phase("park") && has_phase("wake"),
        "2-thread phase table lacks park/wake:\n{stdout}"
    );
    assert_eq!(pooled, serial, "2-thread report differs from serial");
}

/// `--threads 0` means all cores: the profile runs at the machine's
/// available parallelism, and the banner and artifact names carry that
/// resolved count, never the `0`.
#[test]
fn auto_thread_count_is_resolved_before_profiling() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let dir = scratch("auto");
    let out_dir = dir.join("from-flag");
    let stdout = run_ok(&[
        "profile",
        "bench-slammer",
        "--quick",
        "--threads",
        "0",
        "--out",
        out_dir.to_str().expect("utf-8 path"),
    ]);
    assert!(
        stdout.contains(&format!("---- threads = {cores} ----")),
        "banner should name {cores} threads:\n{stdout}"
    );
    assert_eq!(
        artifacts(&out_dir, ".trace.json"),
        [format!("bench-slammer-{cores}t.trace.json")]
    );
    assert_eq!(
        artifacts(&out_dir, ".folded"),
        [format!("bench-slammer-{cores}t.folded")]
    );
    let _ = fs::remove_dir_all(&dir);
}
