//! End-of-run reports: one JSONL line summarizing what a binary did.

use std::fmt::Display;
use std::fs::OpenOptions;
use std::io::Write;
use std::time::Instant;

use crate::json::{self, Json};

/// Environment variable naming a file to append every emitted
/// [`RunReport`] to (JSONL). Unset: reports go to stdout only.
pub const RUN_REPORT_ENV: &str = "HOTSPOTS_RUN_REPORT";

/// What one scenario run or example did: config echo, probe
/// accounting, drop breakdown, infection totals, timings.
///
/// The invariant every emitter must uphold (and the integration tests
/// verify): `delivered + Σ dropped = probes_sent`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Emitting program (binary or example name).
    pub binary: String,
    /// Figure/table/scenario the program regenerates.
    pub scenario: String,
    /// Config echo, in insertion order.
    pub config: Vec<(String, String)>,
    /// Vulnerable population size (0 when not engine-driven).
    pub population: u64,
    /// Probes emitted.
    pub probes_sent: u64,
    /// Probes delivered (publicly or locally).
    pub delivered: u64,
    /// Drop breakdown by reason, in insertion order.
    pub dropped: Vec<(String, u64)>,
    /// Hosts infected.
    pub infections: u64,
    /// Simulated seconds covered.
    pub sim_seconds: f64,
    /// Wall-clock seconds the program ran.
    pub wall_seconds: f64,
    /// Slowest engine step in wall seconds (absent when the run drove
    /// no engine, and in canonicalized reports).
    pub peak_step_seconds: Option<f64>,
    /// Per-phase wall-clock totals in seconds, in insertion order.
    pub phases: Vec<(String, f64)>,
}

impl RunReport {
    /// Total dropped probes (sum of the breakdown).
    pub fn dropped_total(&self) -> u64 {
        self.dropped.iter().map(|(_, n)| n).sum()
    }

    /// Infections per simulated second (0 for empty runs).
    pub fn infections_per_sec(&self) -> f64 {
        if self.sim_seconds > 0.0 {
            self.infections as f64 / self.sim_seconds
        } else {
            0.0
        }
    }

    /// `None` if probe accounting balances; otherwise what is off.
    pub fn accounting_error(&self) -> Option<String> {
        let total = self.delivered + self.dropped_total();
        (total != self.probes_sent).then(|| {
            format!(
                "delivered {} + dropped {} != probes_sent {}",
                self.delivered,
                self.dropped_total(),
                self.probes_sent
            )
        })
    }

    /// The report as one JSONL line (no trailing newline), stable
    /// field order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"kind\":\"run_report\",\"binary\":");
        json::write_str(&mut out, &self.binary);
        out.push_str(",\"scenario\":");
        json::write_str(&mut out, &self.scenario);
        out.push_str(",\"config\":{");
        for (i, (k, v)) in self.config.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, k);
            out.push(':');
            json::write_str(&mut out, v);
        }
        out.push_str("},\"population\":");
        out.push_str(&self.population.to_string());
        out.push_str(",\"probes_sent\":");
        out.push_str(&self.probes_sent.to_string());
        out.push_str(",\"delivered\":");
        out.push_str(&self.delivered.to_string());
        out.push_str(",\"dropped\":{");
        for (i, (reason, n)) in self.dropped.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, reason);
            out.push(':');
            out.push_str(&n.to_string());
        }
        out.push_str("},\"dropped_total\":");
        out.push_str(&self.dropped_total().to_string());
        out.push_str(",\"infections\":");
        out.push_str(&self.infections.to_string());
        out.push_str(",\"sim_seconds\":");
        json::write_f64(&mut out, self.sim_seconds);
        out.push_str(",\"infections_per_sec\":");
        json::write_f64(&mut out, self.infections_per_sec());
        out.push_str(",\"wall_seconds\":");
        json::write_f64(&mut out, self.wall_seconds);
        if let Some(peak) = self.peak_step_seconds {
            out.push_str(",\"peak_step_seconds\":");
            json::write_f64(&mut out, peak);
        }
        out.push_str(",\"phases\":{");
        for (i, (name, secs)) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, name);
            out.push(':');
            json::write_f64(&mut out, *secs);
        }
        out.push_str("}}");
        out
    }

    /// A copy with the host-timing fields zeroed: `wall_seconds`,
    /// `peak_step_seconds`, and `phases` are the only fields the
    /// determinism contract lets vary between identical runs (the same
    /// set `scripts/check_goldens.sh` masks). The canonical form is
    /// what the scenario server stores and serves, so a cached
    /// response is byte-identical to a fresh one.
    #[must_use]
    pub fn canonicalized(&self) -> RunReport {
        let mut report = self.clone();
        report.wall_seconds = 0.0;
        report.peak_step_seconds = None;
        report.phases.clear();
        report
    }

    /// Parses a report back from its JSONL line.
    ///
    /// # Errors
    ///
    /// Returns a message if the line is not valid JSON or not a
    /// `run_report`.
    pub fn from_jsonl(line: &str) -> Result<RunReport, String> {
        let doc = json::parse(line).map_err(|e| e.to_string())?;
        if doc.get("kind").and_then(Json::as_str) != Some("run_report") {
            return Err("not a run_report line".into());
        }
        let str_field = |name: &str| -> Result<String, String> {
            doc.get(name)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("missing string field {name}"))
        };
        let u64_field = |name: &str| -> Result<u64, String> {
            doc.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing u64 field {name}"))
        };
        let f64_field = |name: &str| -> Result<f64, String> {
            doc.get(name)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing f64 field {name}"))
        };
        let str_map = |name: &str| -> Result<Vec<(String, String)>, String> {
            doc.get(name)
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("missing object field {name}"))?
                .iter()
                .map(|(k, v)| {
                    v.as_str()
                        .map(|v| (k.clone(), v.to_owned()))
                        .ok_or_else(|| format!("non-string member {name}.{k}"))
                })
                .collect()
        };
        Ok(RunReport {
            binary: str_field("binary")?,
            scenario: str_field("scenario")?,
            config: str_map("config")?,
            population: u64_field("population")?,
            probes_sent: u64_field("probes_sent")?,
            delivered: u64_field("delivered")?,
            dropped: doc
                .get("dropped")
                .and_then(Json::as_obj)
                .ok_or("missing object field dropped")?
                .iter()
                .map(|(k, v)| {
                    v.as_u64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| format!("non-u64 member dropped.{k}"))
                })
                .collect::<Result<_, _>>()?,
            infections: u64_field("infections")?,
            sim_seconds: f64_field("sim_seconds")?,
            wall_seconds: f64_field("wall_seconds")?,
            peak_step_seconds: doc.get("peak_step_seconds").and_then(Json::as_f64),
            phases: doc
                .get("phases")
                .and_then(Json::as_obj)
                .ok_or("missing object field phases")?
                .iter()
                .map(|(k, v)| {
                    v.as_f64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| format!("non-number member phases.{k}"))
                })
                .collect::<Result<_, _>>()?,
        })
    }
}

/// Accumulates a [`RunReport`] across one program run; the wall clock
/// starts at construction.
#[derive(Debug)]
pub struct ReportBuilder {
    report: RunReport,
    started: Instant,
}

impl ReportBuilder {
    /// Starts a report (and its wall clock) for `binary` regenerating
    /// `scenario`.
    pub fn new(binary: &str, scenario: &str) -> ReportBuilder {
        ReportBuilder {
            report: RunReport {
                binary: binary.to_owned(),
                scenario: scenario.to_owned(),
                config: Vec::new(),
                population: 0,
                probes_sent: 0,
                delivered: 0,
                dropped: Vec::new(),
                infections: 0,
                sim_seconds: 0.0,
                wall_seconds: 0.0,
                peak_step_seconds: None,
                phases: Vec::new(),
            },
            started: Instant::now(),
        }
    }

    /// Echoes one config knob.
    pub fn config(&mut self, key: &str, value: impl Display) -> &mut Self {
        self.report.config.push((key.to_owned(), value.to_string()));
        self
    }

    /// Adds to the population total (sweeps sum their runs).
    pub fn add_population(&mut self, n: u64) -> &mut Self {
        self.report.population += n;
        self
    }

    /// Adds emitted probes.
    pub fn add_probes(&mut self, n: u64) -> &mut Self {
        self.report.probes_sent += n;
        self
    }

    /// Adds delivered probes.
    pub fn add_delivered(&mut self, n: u64) -> &mut Self {
        self.report.delivered += n;
        self
    }

    /// Adds dropped probes under `reason`.
    pub fn add_dropped(&mut self, reason: &str, n: u64) -> &mut Self {
        match self.report.dropped.iter_mut().find(|(r, _)| r == reason) {
            Some((_, total)) => *total += n,
            None => self.report.dropped.push((reason.to_owned(), n)),
        }
        self
    }

    /// Adds infections.
    pub fn add_infections(&mut self, n: u64) -> &mut Self {
        self.report.infections += n;
        self
    }

    /// Adds simulated seconds.
    pub fn add_sim_seconds(&mut self, secs: f64) -> &mut Self {
        self.report.sim_seconds += secs;
        self
    }

    /// Adds per-phase wall seconds under `name`.
    pub fn add_phase_seconds(&mut self, name: &str, secs: f64) -> &mut Self {
        match self.report.phases.iter_mut().find(|(n, _)| n == name) {
            Some((_, total)) => *total += secs,
            None => self.report.phases.push((name.to_owned(), secs)),
        }
        self
    }

    /// Records a step peak (keeps the max across calls).
    pub fn peak_step_seconds(&mut self, secs: f64) -> &mut Self {
        let peak = self.report.peak_step_seconds.get_or_insert(0.0);
        *peak = peak.max(secs);
        self
    }

    /// Finalizes the report (stamps wall-clock elapsed).
    pub fn build(mut self) -> RunReport {
        self.report.wall_seconds = self.started.elapsed().as_secs_f64();
        self.report
    }

    /// Finalizes, appends the JSONL line to the [`RUN_REPORT_ENV`] file
    /// (when set), then prints it to stdout. A failed append is
    /// returned, never swallowed, and nothing is printed.
    ///
    /// # Errors
    ///
    /// Returns an [`EmitError`] naming the report path when the append
    /// fails (unwritable directory, permission denied, …).
    pub fn try_emit(self) -> Result<RunReport, EmitError> {
        let (report, line) = self.try_record()?;
        println!("{line}");
        Ok(report)
    }

    /// Finalizes the report and, when [`RUN_REPORT_ENV`] names a file,
    /// appends its JSONL line there. Prints nothing: the line is
    /// returned for the caller to write wherever its output goes.
    ///
    /// # Errors
    ///
    /// Returns an [`EmitError`] naming the report path when the append
    /// fails (unwritable directory, permission denied, …).
    pub fn try_record(self) -> Result<(RunReport, String), EmitError> {
        let report = self.build();
        let line = report.to_jsonl();
        if let Ok(path) = std::env::var(RUN_REPORT_ENV) {
            if !path.is_empty() {
                let appended = OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)
                    .and_then(|mut f| writeln!(f, "{line}"));
                if let Err(source) = appended {
                    return Err(EmitError { path, source });
                }
            }
        }
        Ok((report, line))
    }
}

/// A run-report append to the [`RUN_REPORT_ENV`] file failed.
#[derive(Debug)]
pub struct EmitError {
    /// The report file that could not be appended to.
    pub path: String,
    /// The underlying I/O error.
    pub source: std::io::Error,
}

impl std::fmt::Display for EmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot append run report to {}: {}",
            self.path, self.source
        )
    }
}

impl std::error::Error for EmitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        let mut b = ReportBuilder::new("fig_test", "Figure 0");
        b.config("scan_rate", 10.0)
            .config("seeds", 25)
            .add_population(5_000)
            .add_probes(1_000)
            .add_delivered(900)
            .add_dropped("unroutable_destination", 60)
            .add_dropped("packet_loss", 40)
            .add_infections(123)
            .add_sim_seconds(50.0)
            .add_phase_seconds("target_gen", 0.25)
            .peak_step_seconds(0.003);
        b.build()
    }

    #[test]
    fn accounting_balances_and_derives() {
        let report = sample();
        assert_eq!(report.dropped_total(), 100);
        assert_eq!(report.accounting_error(), None);
        assert!((report.infections_per_sec() - 123.0 / 50.0).abs() < 1e-12);
        assert!(report.wall_seconds >= 0.0);
    }

    #[test]
    fn imbalance_is_detected() {
        let mut report = sample();
        report.delivered -= 1;
        let err = report.accounting_error().expect("must detect");
        assert!(err.contains("899"), "{err}");
    }

    #[test]
    fn jsonl_round_trips() {
        let report = sample();
        let line = report.to_jsonl();
        assert!(line.starts_with("{\"kind\":\"run_report\","), "{line}");
        let back = RunReport::from_jsonl(&line).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn dropped_and_config_order_is_stable() {
        let line = sample().to_jsonl();
        let unroutable = line.find("unroutable_destination").unwrap();
        let loss = line.find("packet_loss").unwrap();
        assert!(unroutable < loss, "insertion order lost: {line}");
        let scan = line.find("scan_rate").unwrap();
        let seeds = line.find("seeds").unwrap();
        assert!(scan < seeds);
    }

    #[test]
    fn missing_peak_step_is_omitted_and_optional() {
        let mut b = ReportBuilder::new("x", "y");
        b.add_probes(5).add_delivered(5);
        let report = b.build();
        let line = report.to_jsonl();
        assert!(!line.contains("peak_step_seconds"), "{line}");
        let back = RunReport::from_jsonl(&line).unwrap();
        assert_eq!(back.peak_step_seconds, None);
        assert_eq!(back, report);
    }

    #[test]
    fn non_report_lines_are_rejected() {
        assert!(RunReport::from_jsonl("{\"kind\":\"infection\",\"t\":1}").is_err());
        assert!(RunReport::from_jsonl("not json").is_err());
    }
}
