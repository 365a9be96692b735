//! Spans for the traced run, recorded from the benchmark's own code
//! around each call into a layer, kept in memory and written out as a
//! Chrome trace when the run ends. The program itself adds no spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use hotspots_telemetry::json;

use crate::{now, BenchError, Metric};

/// Track of the measured operation spans.
pub const OP_TRACK: u32 = 0;
/// Track of the replayed layer calls.
pub const REPLAY_TRACK: u32 = 1;
/// Track of sub-step probes that re-run part of a layer on their own
/// (not part of the replayed sequence, so not counted as attributed).
pub const PROBE_TRACK: u32 = 2;

/// The replayed layer calls that together make up one operation: the
/// attributed share of its time.
const LAYER_SPANS: [&str; 12] = [
    "serve.parse_request",
    "spec.parse",
    "spec.canonical",
    "spec.hash",
    "serve.store_get",
    "spec.validate",
    "build",
    "engine.new",
    "engine.run",
    "report.fold",
    "report.emit",
    "serve.store_insert",
];

/// The engine phases the shipped build times, as `engine.<phase>_s`.
const PHASES: [&str; 5] = ["target_gen", "routing", "lookup", "observe", "merge"];

/// One span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name.
    pub name: &'static str,
    /// Start, seconds since the recorder began.
    pub start: f64,
    /// End, seconds since the recorder began.
    pub end: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub iteration: u64,
    /// Chrome trace track.
    pub track: u32,
}

/// Spans plus per-run sums of the counters read at the same
/// boundaries (engine phase seconds, probes, bytes).
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    sums: BTreeMap<String, f64>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Recorder {
        Recorder {
            origin: now(),
            spans: Vec::new(),
            sums: BTreeMap::new(),
        }
    }

    /// Records a finished span; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        iteration: u64,
        track: u32,
        (start, end): (Instant, Instant),
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        self.spans.push(Span {
            name,
            start: at(start),
            end: at(end),
            parent,
            iteration,
            track,
        });
        self.spans.len() - 1
    }

    /// Opens a span that ends at [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, iteration: u64) -> usize {
        let t = now();
        self.record(name, parent, iteration, REPLAY_TRACK, (t, t))
    }

    /// Ends a span opened with [`Recorder::open`].
    pub fn close(&mut self, id: usize) {
        let end = now().saturating_duration_since(self.origin).as_secs_f64();
        if let Some(span) = self.spans.get_mut(id) {
            span.end = end;
        }
    }

    /// Times `f` as a replay span under `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        iteration: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        self.span_on(REPLAY_TRACK, name, parent, iteration, f)
    }

    /// Times `f` as a span on `track` under `parent`.
    pub fn span_on<T>(
        &mut self,
        track: u32,
        name: &'static str,
        parent: usize,
        iteration: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = now();
        let out = f();
        self.record(name, Some(parent), iteration, track, (start, now()));
        out
    }

    /// Adds `value` to the counter `key`.
    pub fn add(&mut self, key: &str, value: f64) {
        *self.sums.entry(key.to_owned()).or_insert(0.0) += value;
    }

    fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    fn durations(&self, name: &str) -> impl Iterator<Item = f64> + '_ {
        let name = name.to_owned();
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(|s| s.end - s.start)
    }

    fn total(&self, name: &str) -> f64 {
        self.durations(name).sum()
    }

    /// Per-layer metrics over every operation span named `op`:
    /// the [`PER_LAYER`](crate::PER_LAYER) set, then extras for layers
    /// only some workloads have. `serve` holds the server's final hit,
    /// miss and eviction counts.
    #[must_use]
    pub fn per_layer(&self, op: &str, serve: [u64; 3]) -> (Vec<Metric>, Vec<Metric>) {
        let ops = self.durations(op).count() as u64;
        let per_op = |secs: f64| secs / ops.max(1) as f64;
        let runs = self.sum("engine_runs") as u64;
        let per_run = |key: &str| self.sum(key) / runs.max(1) as f64;
        let time =
            |name: &'static str, span: &str| Metric::new(name, "s", per_op(self.total(span)), ops);
        let phase_total: f64 = self
            .sums
            .iter()
            .filter(|(k, _)| k.starts_with("phase."))
            .map(|(_, v)| v)
            .sum();
        let op_total = self.total(op);
        let attributed: f64 = LAYER_SPANS.iter().map(|s| self.total(s)).sum();
        let unattributed = per_op(op_total - attributed);
        let mut metrics = vec![
            time("spec.parse_s", "spec.parse"),
            time("spec.validate_s", "spec.validate"),
            time("build_s", "build"),
            Metric::new("build.store_bytes", "count", per_run("store_bytes"), runs),
            time("engine.new_s", "engine.new"),
            time("engine.run_s", "engine.run"),
        ];
        for phase in PHASES {
            metrics.push(Metric::new(
                format!("engine.{phase}_s"),
                "s",
                per_op(self.sum(&format!("phase.{phase}"))),
                ops,
            ));
        }
        metrics.extend([
            Metric::new(
                "engine.unattributed_s",
                "s",
                per_op(self.total("engine.run") - phase_total),
                ops,
            ),
            Metric::new("engine.probes", "count", per_run("probes"), runs),
            Metric::new(
                "engine.delivered_share",
                "share",
                self.sum("delivered") / self.sum("probes"),
                runs,
            ),
            Metric::new("engine.infections", "count", per_run("infections"), runs),
            time("report.fold_s", "report.fold"),
            time("report.emit_s", "report.emit"),
            Metric::new("report.bytes", "count", per_run("report_bytes"), runs),
            Metric::new("serve.hits", "count", serve[0] as f64, 1),
            Metric::new("serve.misses", "count", serve[1] as f64, 1),
            Metric::new("serve.evictions", "count", serve[2] as f64, 1),
            Metric::new("unattributed_s", "s", unattributed, ops),
            Metric::new(
                "unattributed_share",
                "share",
                unattributed / per_op(op_total),
                ops,
            ),
        ]);

        // Layers some workloads lack: serve-only spans, population
        // sub-step probes, and phases the shipped build records only
        // sometimes (park/wake need the parallel executor).
        let mut extra = Vec::new();
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            let declared = name == op || ["spec.parse", "spec.validate", "build"].contains(&name);
            if !declared && !name.starts_with("engine.") && !name.starts_with("report.") {
                extra.push(Metric::new(
                    format!("{name}_s"),
                    "s",
                    per_op(self.total(name)),
                    ops,
                ));
            }
        }
        for (key, value) in &self.sums {
            if let Some(phase) = key.strip_prefix("phase.") {
                if !PHASES.contains(&phase) {
                    extra.push(Metric::new(
                        format!("engine.{phase}_s"),
                        "s",
                        per_op(*value),
                        ops,
                    ));
                }
            }
        }
        extra.push(Metric::new("op_s", "s", per_op(op_total), ops));
        (metrics, extra)
    }

    /// The spans as Chrome `trace_event` JSON.
    #[must_use]
    pub fn to_chrome(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json::write_str(&mut out, s.name);
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                ",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{id},\"parent\":{parent},\"iteration\":{}}}}}",
                s.track,
                s.start * 1e6,
                (s.end - s.start) * 1e6,
                s.iteration
            );
        }
        out.push_str("]}\n");
        out
    }

    /// Writes the Chrome trace to `<dir>/<workload>.trace.json`.
    ///
    /// # Errors
    ///
    /// The directory or file cannot be written.
    pub fn write_chrome(&self, dir: &Path, workload: &str) -> Result<PathBuf, BenchError> {
        fs::create_dir_all(dir)
            .map_err(|e| BenchError::io(format!("creating {}", dir.display()), e))?;
        let path = dir.join(format!("{workload}.trace.json"));
        fs::write(&path, self.to_chrome())
            .map_err(|e| BenchError::io(format!("writing {}", path.display()), e))?;
        Ok(path)
    }
}
