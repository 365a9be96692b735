//! `hotspots run <preset> --quick` must emit a parseable `RunReport`
//! JSONL line whose delivery accounting balances (`delivered + Σ dropped
//! = probes_sent`) for every paper artifact: one test per figure or
//! table, named after it.

use std::process::Command;
use std::sync::OnceLock;

use hotspots_telemetry::RunReport;

fn hotspots() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hotspots"))
}

/// Runs one preset at `--quick` scale and returns its parsed report.
fn quick_report(preset: &str) -> RunReport {
    let output = hotspots()
        .args(["run", preset, "--quick"])
        .env_remove(hotspots_telemetry::RUN_REPORT_ENV)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn hotspots run {preset}: {e}"));
    assert!(
        output.status.success(),
        "hotspots run {preset} exited with {:?}\nstderr:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.starts_with("{\"kind\":\"run_report\""))
        .unwrap_or_else(|| panic!("no run_report line in {preset} output:\n{stdout}"));
    RunReport::from_jsonl(line).unwrap_or_else(|e| panic!("{preset}: bad report: {e}"))
}

/// The shared assertions: accounting balances, the scale echo is
/// present, and the report names the binary that ran it.
fn check(name: &str) -> RunReport {
    let report = quick_report(name);
    assert_eq!(report.binary, "hotspots");
    assert_eq!(
        report.accounting_error(),
        None,
        "{name}: {:?}",
        report.accounting_error()
    );
    assert_eq!(
        report.config.iter().find(|(k, _)| k == "scale"),
        Some(&("scale".to_owned(), "quick".to_owned()))
    );
    assert!(report.wall_seconds > 0.0, "{name}: wall clock not stamped");
    report
}

/// Every engine run times its phases, so a report that folds engine
/// runs carries the five serial phase totals and the step peak.
fn assert_engine_phases(name: &str, report: &RunReport) {
    assert!(
        report.peak_step_seconds.is_some(),
        "{name}: no peak_step_seconds"
    );
    for phase in ["target_gen", "routing", "lookup", "observe", "merge"] {
        assert!(
            report.phases.iter().any(|(n, _)| n == phase),
            "{name}: missing phase {phase}: {:?}",
            report.phases
        );
    }
}

/// The measurement studies send their probes through the engine's
/// stages with the scan driver, so their reports carry its three phase
/// totals.
fn assert_scan_phases(name: &str, report: &RunReport) {
    for phase in ["target_gen", "routing", "observe"] {
        assert!(
            report.phases.iter().any(|(n, _)| n == phase),
            "{name}: missing phase {phase}: {:?}",
            report.phases
        );
    }
}

#[test]
fn fig1_blaster_reports() {
    let report = check("fig1");
    assert_eq!(report.probes_sent, 0, "closed-form study routes nothing");
    assert!(report.population > 0);
}

#[test]
fn fig2_slammer_reports() {
    let report = check("fig2");
    assert_eq!(report.probes_sent, 0, "cycle-exact study routes nothing");
    assert!(report.population > 0);
}

#[test]
fn fig3_slammer_hosts_reports() {
    let report = check("fig3");
    assert_eq!(
        report.probes_sent, 0,
        "the host walks stay out of the ledger"
    );
    assert_scan_phases("fig3", &report);
}

#[test]
fn fig4_codered_nat_reports() {
    let report = check("fig4");
    // the NATed population probes private space: drops must appear
    assert!(report.probes_sent > 0);
    assert!(report.dropped_total() > 0, "{:?}", report.dropped);
    assert_scan_phases("fig4", &report);
}

/// Figures 5(a) and 5(b) are two readings of one set of hit-list runs,
/// so their tests share a single `fig5ab` run.
fn fig5ab_report() -> &'static RunReport {
    static REPORT: OnceLock<RunReport> = OnceLock::new();
    REPORT.get_or_init(|| check("fig5ab"))
}

/// Both figures' config keys are echoed by the one `fig5ab` report.
fn assert_config_key(report: &RunReport, key: &str) {
    assert!(
        report.config.iter().any(|(k, _)| k == key),
        "fig5ab: config missing {key}: {:?}",
        report.config
    );
}

#[test]
fn fig5a_hitlist_infection_reports() {
    let report = fig5ab_report();
    assert!(report.probes_sent > 0);
    assert!(report.infections > 0);
    assert!(report.infections_per_sec() > 0.0);
    assert_config_key(report, "seeds");
    assert_engine_phases("fig5ab", report);
}

#[test]
fn fig5b_hitlist_detection_reports() {
    let report = fig5ab_report();
    assert!(report.probes_sent > 0);
    assert!(report.infections > 0);
    assert_config_key(report, "alert_threshold");
    assert_engine_phases("fig5ab", report);
}

#[test]
fn fig5c_nat_detection_reports() {
    let report = check("fig5c");
    assert!(report.probes_sent > 0);
    assert!(report.infections > 0);
    assert_engine_phases("fig5c", &report);
}

#[test]
fn sensitivity_reports() {
    let report = check("sensitivity");
    assert!(report.probes_sent > 0);
    assert_scan_phases("sensitivity", &report);
}

#[test]
fn table1_bot_commands_reports() {
    check("table1");
}

#[test]
fn table2_filtering_reports() {
    let report = check("table2");
    assert!(report.probes_sent > 0);
    // enterprise egress filters must show up in the breakdown
    assert!(
        report
            .dropped
            .iter()
            .any(|(r, n)| r == "egress_filtered" && *n > 0),
        "{:?}",
        report.dropped
    );
    assert_scan_phases("table2", &report);
}

#[test]
fn ablations_reports() {
    let report = check("ablations");
    assert!(report.probes_sent > 0);
    assert_engine_phases("ablations", &report);
}

/// An engine run times its build (population synthesis, host store,
/// environment, worm) as the `build` phase, next to the engine's own.
#[test]
fn bench_million_reports_its_build_phase() {
    let report = check("bench-million");
    assert!(report.population >= 1_000_000, "{}", report.population);
    assert_engine_phases("bench-million", &report);
    let build = report.phases.iter().find(|(n, _)| n == "build");
    assert!(
        build.is_some_and(|&(_, secs)| secs > 0.0),
        "bench-million: no timed build phase: {:?}",
        report.phases
    );
}

#[test]
fn run_report_env_appends_jsonl() {
    let dir = std::env::temp_dir().join(format!("hotspots-run-reports-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("reports.jsonl");
    let _ = std::fs::remove_file(&path);
    for _ in 0..2 {
        let output = hotspots()
            .args(["run", "fig1", "--quick"])
            .env(hotspots_telemetry::RUN_REPORT_ENV, &path)
            .output()
            .expect("spawn");
        assert!(output.status.success());
    }
    let text = std::fs::read_to_string(&path).expect("report file written");
    let reports: Vec<RunReport> = text
        .lines()
        .map(|l| RunReport::from_jsonl(l).expect("each line parses"))
        .collect();
    assert_eq!(reports.len(), 2, "appends, not truncates");
    assert!(reports.iter().all(|r| r.binary == "hotspots"));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}
