//! The repository's benchmark of record.
//!
//! Four workloads drive the shipped layers from outside, through their
//! public functions: three engine workloads turn seed-derived spec text
//! into canonical report bytes (`run_spec`), and `serve-mix` sends a
//! Zipf-popular request stream to an in-process [`hotspots_serve::Server`].
//! Every run times its set-up several times, runs one untimed warm-up,
//! then measures a closed loop for a fixed wall time and checks every
//! output. A traced run (`--trace 1`) replays each traced operation's
//! layer calls under spans kept in memory and reports per-layer metrics.
//! See `README.md` for the workloads, the metrics and how to compare two
//! commits.

#![forbid(unsafe_code)]

pub mod inputs;
pub mod serve;
pub mod simulate;
pub mod trace;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use hotspots_scenario::{HotspotsError, SpecError};
use hotspots_telemetry::json;

/// End-to-end metrics (name, unit), reported by every workload with
/// tracing off, in this order. Tail percentiles are left to the detail
/// line: every engine operation is the same run, so its tail measures
/// the machine, not the program.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_anon_mib", "MiB"),
];

/// Per-layer metrics (name, unit), reported by every workload in a
/// traced run, in this order. Times are seconds per operation; counts
/// prefixed `engine.`/`build.`/`report.` are per engine run.
pub const PER_LAYER: [(&str, &str); 23] = [
    ("spec.parse_s", "s"),
    ("spec.validate_s", "s"),
    ("build_s", "s"),
    ("build.store_bytes", "count"),
    ("engine.new_s", "s"),
    ("engine.run_s", "s"),
    ("engine.target_gen_s", "s"),
    ("engine.routing_s", "s"),
    ("engine.lookup_s", "s"),
    ("engine.observe_s", "s"),
    ("engine.merge_s", "s"),
    ("engine.unattributed_s", "s"),
    ("engine.probes", "count"),
    ("engine.delivered_share", "share"),
    ("engine.infections", "count"),
    ("report.fold_s", "s"),
    ("report.emit_s", "s"),
    ("report.bytes", "count"),
    ("serve.hits", "count"),
    ("serve.misses", "count"),
    ("serve.evictions", "count"),
    ("unattributed_s", "s"),
    ("unattributed_share", "share"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `bench-slammer` at paper scale: the probe pipeline dominates.
    SlammerPipeline,
    /// `bench-million` quick: population synthesis and store build dominate.
    MillionHosts,
    /// `fig5-outage` at paper scale: routing under an active fault schedule.
    OutageDetect,
    /// A cached-scenario request mix against `hotspots serve`.
    ServeMix,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::SlammerPipeline,
        Workload::MillionHosts,
        Workload::OutageDetect,
        Workload::ServeMix,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SlammerPipeline => "slammer-pipeline",
            Workload::MillionHosts => "million-hosts",
            Workload::OutageDetect => "outage-detect",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Looks a workload up by its command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one workload runs.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Wall time of the measured loop, in seconds.
    pub seconds: u64,
    /// Run the traced variant and report [`PER_LAYER`] metrics.
    pub trace: bool,
    /// Fixed, tiny operation counts instead of a timed loop.
    pub smoke: bool,
    /// Where a traced run writes its Chrome trace.
    pub trace_dir: PathBuf,
}

impl Options {
    /// Defaults: untraced, 20 measured seconds, traces under
    /// `.bench_traces` in the working directory.
    #[must_use]
    pub fn new(workload: Workload, seed: u64) -> Options {
        Options {
            workload,
            seed,
            seconds: 20,
            trace: false,
            smoke: false,
            trace_dir: PathBuf::from(".bench_traces"),
        }
    }

    /// True once a measured loop that started at `start` and has
    /// completed `ops` operations should stop; smoke runs stop after
    /// `smoke_ops`.
    pub(crate) fn done(&self, start: Instant, ops: u64, smoke_ops: u64) -> bool {
        if self.smoke {
            ops >= smoke_ops
        } else {
            secs_since(start) >= self.seconds as f64
        }
    }
}

/// A failure that stops a run before it can report: an input the
/// program rejects, or an I/O error around the benchmark's own files.
#[derive(Debug)]
pub enum BenchError {
    /// A generated spec failed to parse, validate or run.
    Spec(String),
    /// A scratch, trace or `/proc` file operation failed.
    Io {
        /// What was being done.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The benchmark's own set-up is inconsistent (missing preset,
    /// colliding inputs, unparsable reference report).
    Setup(String),
}

impl BenchError {
    pub(crate) fn io(context: impl Into<String>, source: std::io::Error) -> BenchError {
        BenchError::Io {
            context: context.into(),
            source,
        }
    }
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Spec(message) | BenchError::Setup(message) => f.write_str(message),
            BenchError::Io { context, source } => write!(f, "{context}: {source}"),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<HotspotsError> for BenchError {
    fn from(e: HotspotsError) -> BenchError {
        BenchError::Spec(e.to_string())
    }
}

impl From<SpecError> for BenchError {
    fn from(e: SpecError) -> BenchError {
        BenchError::Spec(e.to_string())
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// How many samples it summarizes.
    pub samples: u64,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: u64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            samples,
        }
    }
}

/// Operations attempted and checks failed during a run.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or violated a check.
    pub failed: u64,
    /// The first few violation messages.
    pub failures: Vec<String>,
}

impl Checks {
    const KEPT: usize = 20;

    /// Counts one attempted operation.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Counts one violation as a failed operation.
    pub fn fail(&mut self, message: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < Checks::KEPT {
            self.failures.push(message.into());
        }
    }

    /// Fails with `what` when `got != want`.
    pub fn expect_eq<T: PartialEq + fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        if got != want {
            self.fail(format!("{what}: got {got:?}, want {want:?}"));
        }
    }
}

/// The result of one workload run.
#[derive(Debug)]
pub struct Report {
    /// The workload that ran.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// FNV-1a digest of every generated input.
    pub input_digest: u64,
    /// Operations attempted and checks failed.
    pub checks: Checks,
    /// The declared metrics: [`END_TO_END`] untraced, [`PER_LAYER`]
    /// traced, in declared order.
    pub metrics: Vec<Metric>,
    /// Metrics this workload has and others lack.
    pub extra: Vec<Metric>,
}

impl Report {
    /// Assembles a report, failing a check for every declared metric
    /// that is missing, out of order or not finite.
    pub(crate) fn new(
        opts: &Options,
        input_digest: u64,
        mut checks: Checks,
        metrics: Vec<Metric>,
        extra: Vec<Metric>,
    ) -> Report {
        let declared: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
        let names: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name.as_str(), m.unit)).collect();
        checks.expect_eq("reported metrics", names.as_slice(), declared);
        for m in metrics.iter().filter(|m| !m.value.is_finite()) {
            checks.fail(format!("metric {} is not finite", m.name));
        }
        Report {
            workload: opts.workload,
            seed: opts.seed,
            trace: opts.trace,
            input_digest,
            checks,
            metrics,
            extra,
        }
    }

    /// True when every operation and check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.checks.failed == 0
    }

    /// The one-line result: `correct`, `attempted`, `failed` and the
    /// declared metrics by name with value and unit.
    #[must_use]
    pub fn summary_json(&self) -> String {
        summary_json(
            self.correct(),
            self.checks.attempted,
            self.checks.failed,
            self.metrics.iter().map(|m| (m.name.clone(), m)),
        )
    }

    /// Everything this run measured, with sample counts, as one JSON line.
    #[must_use]
    pub fn detail_json(&self) -> String {
        let mut out = String::from("{\"kind\":\"benchmark_detail\",\"workload\":");
        json::write_str(&mut out, self.workload.name());
        out.push_str(&format!(
            ",\"seed\":{},\"trace\":{},\"input_digest\":\"{:016x}\",\"attempted\":{},\"failed\":{},\"failures\":[",
            self.seed, self.trace, self.input_digest, self.checks.attempted, self.checks.failed
        ));
        for (i, failure) in self.checks.failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, failure);
        }
        out.push_str("],\"metrics\":[");
        for (i, m) in self.metrics.iter().chain(&self.extra).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json::write_str(&mut out, &m.name);
            out.push_str(",\"unit\":");
            json::write_str(&mut out, m.unit);
            out.push_str(",\"value\":");
            json::write_f64(&mut out, m.value);
            out.push_str(&format!(",\"samples\":{}}}", m.samples));
        }
        out.push_str("]}");
        out
    }

    /// A text table of every metric, for stderr.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} (seed {}, {}): {} attempted, {} failed\n",
            self.workload.name(),
            self.seed,
            if self.trace { "traced" } else { "untraced" },
            self.checks.attempted,
            self.checks.failed
        );
        for failure in &self.checks.failures {
            out.push_str(&format!("  FAILED: {failure}\n"));
        }
        for m in self.metrics.iter().chain(&self.extra) {
            out.push_str(&format!(
                "  {:<28} {:>16.6} {:<6} n={}\n",
                m.name, m.value, m.unit, m.samples
            ));
        }
        out
    }
}

/// The result line of a run over several workloads: metrics are keyed
/// `<workload>/<metric>`.
#[must_use]
pub fn combined_json(reports: &[Report]) -> String {
    summary_json(
        reports.iter().all(Report::correct),
        reports.iter().map(|r| r.checks.attempted).sum(),
        reports.iter().map(|r| r.checks.failed).sum(),
        reports.iter().flat_map(|r| {
            r.metrics
                .iter()
                .map(move |m| (format!("{}/{}", r.workload.name(), m.name), m))
        }),
    )
}

fn summary_json<'a>(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (String, &'a Metric)>,
) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, (key, m)) in metrics.enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_str(&mut out, &key);
        out.push_str(":{\"value\":");
        json::write_f64(&mut out, m.value);
        out.push_str(",\"unit\":");
        json::write_str(&mut out, m.unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

/// Runs one workload.
///
/// # Errors
///
/// A generated input the program rejects, or an I/O failure around the
/// benchmark's scratch, trace or `/proc` files. Failed operations and
/// checks do not error: they are counted in [`Report::checks`].
pub fn run(opts: &Options) -> Result<Report, BenchError> {
    match opts.workload {
        Workload::ServeMix => serve::run(opts),
        workload => simulate::run(workload, opts),
    }
}

#[allow(clippy::disallowed_methods)] // measuring wall time is this crate's purpose
pub(crate) fn now() -> Instant {
    Instant::now()
}

pub(crate) fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Nearest-rank quantile (`q` in `(0, 1]`); NaN for no samples.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted
        .get(rank.clamp(1, sorted.len().max(1)) - 1)
        .copied()
        .unwrap_or(f64::NAN)
}

/// A fixed computation timed between operations to measure the
/// machine's speed during a run. On a shared box that speed drifts by
/// 10–20% (at times 2×) over minutes, and this kernel slows with it, so
/// timings scaled by [`Reference::NOMINAL_S`] over its median time
/// compare across runs where raw ones do not. The kernel is local to the
/// benchmark and allocates nothing while timed, so no change to the
/// program can move it. One buffer serves a whole run, so it adds 1 MiB
/// to the measured peak resident set.
#[derive(Debug)]
pub struct Reference {
    buf: Vec<u32>,
    samples: Vec<f64>,
    last: Instant,
}

impl Default for Reference {
    fn default() -> Reference {
        Reference::new()
    }
}

/// The reference kernel's median time (seconds) over one phase of a
/// run, and the number of samples.
#[derive(Debug, Clone, Copy)]
pub struct Speed {
    /// Median kernel time in seconds.
    pub median_s: f64,
    /// Samples taken.
    pub samples: u64,
}

impl Speed {
    /// Nominal over measured kernel time: multiply a time by it, or
    /// divide a rate, to express it at the calibration machine's speed.
    #[must_use]
    pub fn factor(self) -> f64 {
        Reference::NOMINAL_S / self.median_s
    }
}

impl Reference {
    /// The kernel's median time on the calibration machine (2-core
    /// Xeon VM), so normalized times read as milliseconds there.
    pub const NOMINAL_S: f64 = 0.005;
    /// Set-up runs for at least this long between two samples: set-up
    /// is short, and its median needs enough samples to be steady.
    pub(crate) const SETUP_INTERVAL_S: f64 = 0.05;
    /// The measured loop runs for at least this long between two samples.
    pub(crate) const LOOP_INTERVAL_S: f64 = 0.25;

    /// A reference with its buffer allocated and no samples yet.
    #[must_use]
    pub fn new() -> Reference {
        Reference {
            buf: vec![0; 1 << 18],
            samples: Vec::new(),
            last: now(),
        }
    }

    /// Times one pass: fill 1 MiB with SplitMix64 output, then sort it.
    pub fn sample(&mut self) {
        let start = now();
        let mut rng = inputs::SplitMix::new(0x5eed);
        for v in &mut self.buf {
            *v = (rng.next_u64() >> 32) as u32;
        }
        self.buf.sort_unstable();
        std::hint::black_box(&self.buf);
        self.samples.push(secs_since(start));
        self.last = now();
    }

    /// Samples if operations have run for `interval_s` since the last
    /// sample.
    pub fn tick(&mut self, interval_s: f64) {
        if secs_since(self.last) >= interval_s {
            self.sample();
        }
    }

    /// The speed over the samples since the last call, which starts the
    /// next phase.
    pub fn phase(&mut self) -> Speed {
        let speed = Speed {
            median_s: quantile(&self.samples, 0.5),
            samples: self.samples.len() as u64,
        };
        self.samples.clear();
        speed
    }
}

/// Operations run back to back are cut into windows of at least this
/// many busy seconds for [`windowed_rate`].
const WINDOW_S: f64 = 1.0;

/// Operations per second: the median rate over consecutive windows of
/// at least [`WINDOW_S`] busy seconds (one shorter window when the run
/// is shorter). `op_times` holds every operation's seconds in the order
/// they ran. A stall that another tenant of the machine causes slows a
/// few windows but not the median one.
#[must_use]
pub fn windowed_rate(op_times: &[f64]) -> f64 {
    let mut rates = Vec::new();
    let (mut ops, mut busy) = (0u32, 0.0);
    for &t in op_times {
        ops += 1;
        busy += t;
        if busy >= WINDOW_S {
            rates.push(f64::from(ops) / busy);
            (ops, busy) = (0, 0.0);
        }
    }
    if rates.is_empty() && ops > 0 {
        rates.push(f64::from(ops) / busy);
    }
    quantile(&rates, 0.5)
}

/// The end-to-end metrics scaled to the calibration machine's speed,
/// plus their raw values and the reference times for the detail line.
/// `setup` holds set-up times, taken at `setup_speed`; `latencies` the
/// latencies (seconds) `latency_ms_p50` is the median of; `op_times`
/// every operation of the measured loop in order, taken at `speed`.
pub(crate) fn end_to_end(
    (setup, setup_speed): (&[f64], Speed),
    latencies: &[f64],
    op_times: &[f64],
    speed: Speed,
) -> Result<(Vec<Metric>, Vec<Metric>), BenchError> {
    let f = speed.factor();
    let n = latencies.len() as u64;
    let ops = op_times.len() as u64;
    let setup_s = quantile(setup, 0.5);
    let p50_ms = quantile(latencies, 0.5) * 1e3;
    let rate = windowed_rate(op_times);
    let metrics = vec![
        Metric::new(
            "setup_s",
            "s",
            setup_s * setup_speed.factor(),
            setup.len() as u64,
        ),
        Metric::new("latency_ms_p50", "ms", p50_ms * f, n),
        Metric::new("ops_per_s", "1/s", rate / f, ops),
        Metric::new("peak_anon_mib", "MiB", peak_anon_mib()?, 1),
    ];
    let raw = vec![
        Metric::new("raw.setup_s", "s", setup_s, setup.len() as u64),
        Metric::new("raw.latency_ms_p50", "ms", p50_ms, n),
        Metric::new("raw.ops_per_s", "1/s", rate, ops),
        Metric::new(
            "setup_reference_ms",
            "ms",
            setup_speed.median_s * 1e3,
            setup_speed.samples,
        ),
        Metric::new("reference_ms", "ms", speed.median_s * 1e3, speed.samples),
        Metric::new("raw.peak_rss_mib", "MiB", status_mib("VmHWM")?, 1),
    ];
    Ok((metrics, raw))
}

/// The process's peak resident set less its file-backed pages, in MiB:
/// `VmHWM` − `RssFile`. File-backed pages are the program's code and
/// libraries; how many of them count depends on what else sits in the
/// host's page cache, and `RssFile` moved by 0.25 MiB between runs of
/// one workload. File-backed pages stop growing once the code has run,
/// so the difference is the peak of the program's own memory.
///
/// # Errors
///
/// `/proc/self/status` is unreadable or lacks either line.
pub fn peak_anon_mib() -> Result<f64, BenchError> {
    Ok(status_mib("VmHWM")? - status_mib("RssFile")?)
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `RssFile`, …) in MiB.
///
/// # Errors
///
/// `/proc/self/status` is unreadable or has no such line.
pub(crate) fn status_mib(field: &str) -> Result<f64, BenchError> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| BenchError::io("reading /proc/self/status", e))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| BenchError::Setup(format!("/proc/self/status has no {field} line")))
}

/// Resets the peak resident set to the current one, so the next
/// workload in the same process reports its own peak. Best effort.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// A directory under `.bench_scratch` in the working directory, removed
/// (with `.bench_scratch`, once empty) on drop.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `.bench_scratch/<label>-<pid>-<n>`, unique within the
    /// process.
    ///
    /// # Errors
    ///
    /// The directory cannot be created.
    pub fn create(label: &str) -> Result<ScratchDir, BenchError> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(".bench_scratch").join(format!("{label}-{}-{n}", std::process::id()));
        fs::create_dir_all(&path)
            .map_err(|e| BenchError::io(format!("creating {}", path.display()), e))?;
        Ok(ScratchDir { path })
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
        if let Some(root) = self.path.parent() {
            let _ = fs::remove_dir(root);
        }
    }
}
