//! The unified scenario runner: every registered preset and any TOML
//! spec file, through one front-end.
//!
//! ```text
//! hotspots run fig2 --quick              # a registry preset
//! hotspots run examples/specs/worm.toml  # a spec file
//! hotspots list --verbose                # presets + paper artifact map
//! hotspots sweep fig4 --quick --param study.nat_fraction=0,0.15,0.5
//! hotspots spec fig5c --quick            # print the preset's TOML
//! ```
//!
//! Determinism contract: a spec names everything that affects the
//! result and nothing else, so the same spec + seed produces the same
//! run report at any `--threads` count.

use std::io::{ErrorKind, Write};
use std::process::exit;

use hotspots_experiments::{
    banner, find_preset, presets, render, run_spec, table, HotspotsError, Outcome, RunContext,
    Scale,
};
use hotspots_scenario::cli::{parse_flags, usage, ArgError, FlagSpec, ParsedArgs};
use hotspots_scenario::spec::SpecError;
use hotspots_scenario::value::Value;
use hotspots_scenario::{ScenarioRun, ScenarioSpec, RUN_REPORT_ENV};
use hotspots_serve::{ServeConfig, Server};
use hotspots_telemetry::{json, BenchSummary, MemoryStats, ScalingPoint};

const COMMANDS: &str = "commands:
  run <name|spec.toml>     execute a preset or spec file
  list                     list registered presets (--verbose: paper mapping)
  sweep <name|spec.toml>   rerun per value of --param (or the spec's [sweep])
  spec <name>              print a preset's spec as TOML
  profile <name|spec.toml> run under span tracing; write a Chrome trace,
                           a collapsed-stack file, and a phase table
                           (engine-path scenarios only)
  serve                    JSONL scenario server over stdio with a
                           content-addressed result cache
                           (--check: re-run and byte-diff every entry)

examples:
  hotspots run fig2 --quick
  hotspots sweep fig4 --quick --param study.nat_fraction=0,0.15,0.5
  hotspots run examples/specs/table1.toml --report out.jsonl
  hotspots profile bench-slammer --scaling 1,2,4,8
  hotspots serve --cache-dir results/cache --max-entries 32
";

/// The flags each command reads (`--help` works everywhere). Any other
/// flag is a usage error naming the flag and the command, so a flag is
/// never silently ignored.
const COMMAND_FLAGS: [(&str, &[&str]); 6] = [
    ("run", &["quick", "paper", "threads", "report"]),
    ("list", &["verbose"]),
    ("sweep", &["quick", "paper", "threads", "report", "param"]),
    ("spec", &["quick", "paper"]),
    (
        "profile",
        &[
            "quick",
            "paper",
            "threads",
            "report",
            "scaling",
            "out",
            "bench-json",
        ],
    ),
    (
        "serve",
        &[
            "threads",
            "cache-dir",
            "max-entries",
            "workers",
            "queue-depth",
            "check",
        ],
    ),
];

fn flags() -> Vec<FlagSpec> {
    vec![
        FlagSpec {
            name: "quick",
            short: Some("q"),
            takes_value: false,
            repeatable: false,
            help: "reduced scale (seconds instead of minutes)",
        },
        FlagSpec {
            name: "paper",
            short: None,
            takes_value: false,
            repeatable: false,
            help: "full paper scale (the default)",
        },
        FlagSpec {
            name: "threads",
            short: None,
            takes_value: true,
            repeatable: false,
            help: "worker threads; 0 = all cores (default: engine 1, study all cores)",
        },
        FlagSpec {
            name: "report",
            short: None,
            takes_value: true,
            repeatable: false,
            help: "append JSONL run reports to this file",
        },
        FlagSpec {
            name: "param",
            short: None,
            takes_value: true,
            repeatable: true,
            help: "sweep parameter: dotted.path=v1,v2,... (repeatable; sweep only)",
        },
        FlagSpec {
            name: "scaling",
            short: None,
            takes_value: true,
            repeatable: false,
            help: "profile: thread counts to sweep, e.g. 1,2,4,8 (writes BENCH json)",
        },
        FlagSpec {
            name: "out",
            short: None,
            takes_value: true,
            repeatable: false,
            help: "profile: directory for trace artifacts (default: .)",
        },
        FlagSpec {
            name: "bench-json",
            short: None,
            takes_value: true,
            repeatable: false,
            help: "profile --scaling: scaling-curve output file (default: BENCH_engine.json)",
        },
        FlagSpec {
            name: "verbose",
            short: Some("v"),
            takes_value: false,
            repeatable: false,
            help: "list: include the paper artifact mapping",
        },
        FlagSpec {
            name: "cache-dir",
            short: None,
            takes_value: true,
            repeatable: false,
            help: "serve: result-cache root (default: .hotspots-cache)",
        },
        FlagSpec {
            name: "max-entries",
            short: None,
            takes_value: true,
            repeatable: false,
            help: "serve: LRU bound on cached entries (default: 64)",
        },
        FlagSpec {
            name: "workers",
            short: None,
            takes_value: true,
            repeatable: false,
            help: "serve: run-pool worker threads (default: 1; 0 = reject all)",
        },
        FlagSpec {
            name: "queue-depth",
            short: None,
            takes_value: true,
            repeatable: false,
            help: "serve: bound on queued jobs before backpressure (default: 16)",
        },
        FlagSpec {
            name: "check",
            short: None,
            takes_value: false,
            repeatable: false,
            help: "serve: re-run every cached entry and diff byte-for-byte",
        },
        FlagSpec {
            name: "help",
            short: Some("h"),
            takes_value: false,
            repeatable: false,
            help: "print this help",
        },
    ]
}

fn die(message: &str) -> ! {
    eprintln!(
        "error: {message}\n\n{}",
        usage("hotspots", &flags(), COMMANDS)
    );
    exit(2);
}

/// Reports a run-path failure and exits with its typed code — without
/// the usage dump, since the invocation itself was fine.
fn fail(e: &HotspotsError) -> ! {
    eprintln!("error: {e}");
    exit(e.exit_code());
}

/// Exit status when stdout's reader goes away early (`hotspots run
/// fig2 | head -1`): the status a shell reports for a process killed by
/// SIGPIPE. `hotspots_scenario::error` documents it beside 1 and 2.
const EXIT_BROKEN_PIPE: i32 = 141;

/// Writes `text` to stdout: every command's output goes through here,
/// except the `serve` session, which streams responses through the
/// server's own writer. A closed pipe ends the process quietly with
/// [`EXIT_BROKEN_PIPE`]; any other write failure is a runtime error.
/// Run reports are appended to their file before their text reaches
/// here, so they survive either way.
fn out(text: &str) {
    let mut stdout = std::io::stdout().lock();
    if let Err(source) = stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        if source.kind() == ErrorKind::BrokenPipe {
            exit(EXIT_BROKEN_PIPE);
        }
        fail(&HotspotsError::Io {
            context: "writing to stdout".to_owned(),
            source,
        });
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse_flags(&args, &flags()) {
        Ok(p) => p,
        Err(e) => die(&e.to_string()),
    };
    if parsed.has("help") || parsed.positional.is_empty() {
        out(&usage("hotspots", &flags(), COMMANDS));
        exit(if parsed.has("help") { 0 } else { 2 });
    }
    let command = parsed.positional[0].as_str();
    let Some((_, accepted)) = COMMAND_FLAGS.iter().find(|(name, _)| *name == command) else {
        die(&format!("unknown command {command:?}"));
    };
    if let Some(flag) = parsed.names().find(|flag| !accepted.contains(flag)) {
        let reads: Vec<String> = accepted.iter().map(|f| format!("--{f}")).collect();
        die(&format!(
            "{command} does not take --{flag} (it reads {})",
            reads.join(", ")
        ));
    }
    if let Some(path) = parsed.value("report") {
        std::env::set_var(RUN_REPORT_ENV, path);
    }
    let scale = match Scale::from_parsed(&parsed) {
        Ok(scale) => scale,
        Err(e) => die(&e.to_string()),
    };
    // 0 is legal: all cores (`RunContext::threads_for` resolves it)
    let threads = parsed.value("threads").map(|t| match t.parse::<usize>() {
        Ok(n) => n,
        _ => die("--threads needs a non-negative integer (0 = all cores)"),
    });

    match command {
        "run" => cmd_run(&parsed, scale, threads),
        "list" => cmd_list(&parsed),
        "sweep" => cmd_sweep(&parsed, scale, threads),
        "spec" => cmd_spec(&parsed, scale),
        "profile" => cmd_profile(&parsed, scale, threads),
        "serve" => cmd_serve(&parsed, threads),
        other => unreachable!("{other:?} has a COMMAND_FLAGS row but no handler"),
    }
}

/// Resolves `run`/`sweep`/`spec`/`profile`'s target: a registry preset
/// name, or a path to a TOML spec file. A spec file states its own
/// sizes, so `--quick`/`--paper` on one is an error, not ignored.
///
/// Failure modes keep their typed exit codes: an unreadable spec file
/// is an I/O failure (exit 1), while a malformed spec, a scale flag on
/// a spec file or an unknown target is a mistake the caller can fix
/// (exit 2).
fn resolve_spec(
    target: &str,
    parsed: &ParsedArgs,
    scale: Scale,
) -> Result<ScenarioSpec, HotspotsError> {
    if let Some(preset) = find_preset(target) {
        return Ok(preset.spec(scale));
    }
    if target.ends_with(".toml") || std::path::Path::new(target).exists() {
        if let Some(flag) = ["quick", "paper"].into_iter().find(|f| parsed.has(f)) {
            return Err(ArgError::new(format!(
                "--{flag} picks a preset's scale; the spec file {target} states its own sizes"
            ))
            .into());
        }
        let text = std::fs::read_to_string(target).map_err(|e| HotspotsError::Io {
            context: format!("reading {target}"),
            source: e,
        })?;
        return ScenarioSpec::from_toml(&text)
            .map_err(|e| SpecError::new(format!("{target} {}", e.field), e.message).into());
    }
    Err(ArgError::new(format!(
        "{target:?} is neither a registered preset (see `hotspots list`) nor a spec file"
    ))
    .into())
}

/// `resolve_spec` for commands that exit on failure.
fn resolve_spec_or_exit(target: &str, parsed: &ParsedArgs, scale: Scale) -> ScenarioSpec {
    match resolve_spec(target, parsed, scale) {
        Ok(spec) => spec,
        Err(e) => fail(&e),
    }
}

fn context(threads: Option<usize>) -> RunContext {
    let ctx = RunContext::new("hotspots");
    match threads {
        Some(t) => ctx.with_threads(t),
        None => ctx,
    }
}

/// The run banner; only a preset target has a scale.
fn spec_banner(target: &str, spec: &ScenarioSpec, scale: Scale) -> String {
    let artifact = spec.meta.artifact.as_deref().unwrap_or(&spec.meta.name);
    let title = spec
        .meta
        .title
        .as_deref()
        .or(spec.meta.scenario.as_deref())
        .unwrap_or("scenario");
    banner(artifact, title, find_preset(target).map(|_| scale))
}

/// Runs `spec` and returns its rendered output followed by the report
/// line, after appending the report to the report file (if any).
fn run_and_render(spec: &ScenarioSpec, threads: Option<usize>) -> String {
    let run = run_spec(spec, &context(threads)).unwrap_or_else(|e| fail(&e));
    let mut text = render::render(&run.outcome);
    text.push_str(&record(run));
    text
}

/// Records `run`'s report (see [`ScenarioRun::record_report`]) and
/// returns its JSONL line, newline-terminated.
fn record(run: ScenarioRun) -> String {
    match run.record_report() {
        Ok(line) => line + "\n",
        Err(e) => fail(&e),
    }
}

fn cmd_run(parsed: &ParsedArgs, scale: Scale, threads: Option<usize>) {
    let [_, target] = &parsed.positional[..] else {
        die("run takes exactly one target: a preset name or spec file");
    };
    let spec = resolve_spec_or_exit(target, parsed, scale);
    out(&spec_banner(target, &spec, scale));
    out(&run_and_render(&spec, threads));
}

fn cmd_list(parsed: &ParsedArgs) {
    if parsed.positional.len() > 1 {
        die("list takes no arguments");
    }
    let verbose = parsed.has("verbose");
    let mut text = String::new();
    let mut family = "";
    for preset in presets() {
        if preset.family != family {
            family = preset.family;
            text += &format!("{}{family}:\n", if verbose { "\n" } else { "" });
        }
        text += &format!("  {:<22} {}\n", preset.name, preset.title);
        if verbose {
            text += &format!("  {:<22}   reproduces: {}\n", "", preset.paper);
            text += &format!("  {:<22}   scenario: {}\n", "", preset.scenario);
        }
    }
    out(&text);
}

fn cmd_spec(parsed: &ParsedArgs, scale: Scale) {
    let [_, target] = &parsed.positional[..] else {
        die("spec takes exactly one target: a preset name or spec file");
    };
    out(&resolve_spec_or_exit(target, parsed, scale).to_toml());
}

/// File stem for profile artifacts: the scenario name with anything
/// path-hostile mapped to `-`.
fn artifact_stem(spec: &ScenarioSpec) -> String {
    spec.meta
        .name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

/// One traced engine run: throughput, phase breakdown, and the two
/// exporter outputs.
struct ProfilePoint {
    threads: usize,
    probes: u64,
    probes_per_sec: f64,
    run_seconds: f64,
    phase_breakdown: Vec<(String, f64)>,
    chrome: String,
    folded: String,
}

/// Runs `spec` traced at `threads`; returns the point and the run's
/// recorded report line.
fn profile_once(spec: &ScenarioSpec, threads: usize) -> (ProfilePoint, String) {
    let ctx = RunContext::new("hotspots")
        .with_threads(threads)
        .with_trace();
    let run = match run_spec(spec, &ctx) {
        Ok(run) => run,
        Err(e) => fail(&e),
    };
    let point = {
        let Outcome::Engine { result, .. } = &run.outcome else {
            die("profile needs an engine-path scenario");
        };
        let tel = &result.telemetry;
        let Some(trace) = tel.trace.as_ref() else {
            die("engine returned no trace (trace not requested)");
        };
        let run_seconds = trace
            .spans()
            .first()
            .filter(|s| s.name == "run")
            .map_or(0.0, |s| s.dur_micros as f64 / 1e6);
        let probes_per_sec = if run_seconds > 0.0 {
            result.probes_sent as f64 / run_seconds
        } else {
            0.0
        };
        ProfilePoint {
            threads,
            probes: result.probes_sent,
            probes_per_sec,
            run_seconds,
            phase_breakdown: tel
                .phases
                .iter()
                .map(|(name, total, _)| (name.to_owned(), total.as_secs_f64()))
                .collect(),
            chrome: trace.to_chrome_trace(),
            folded: trace.to_collapsed(),
        }
    };
    (point, record(run))
}

fn phase_table(point: &ProfilePoint) -> String {
    let phase_total: f64 = point.phase_breakdown.iter().map(|(_, s)| s).sum();
    let mut rows: Vec<Vec<String>> = point
        .phase_breakdown
        .iter()
        .map(|(name, secs)| {
            vec![
                name.clone(),
                format!("{secs:.4}"),
                if phase_total > 0.0 {
                    format!("{:.1}%", 100.0 * secs / phase_total)
                } else {
                    "-".to_owned()
                },
            ]
        })
        .collect();
    rows.push(vec![
        "(run wall)".to_owned(),
        format!("{:.4}", point.run_seconds),
        String::new(),
    ]);
    format!(
        "{}throughput: {:.1}M probes/s ({} probes in {:.3}s)\n",
        table(&["phase", "seconds", "share"], &rows),
        point.probes_per_sec / 1e6,
        point.probes,
        point.run_seconds
    )
}

fn write_artifact(path: &str, contents: &str) {
    if let Err(source) = std::fs::write(path, contents) {
        fail(&HotspotsError::Io {
            context: format!("writing {path}"),
            source,
        });
    }
}

/// Parses `--scaling`'s comma-separated thread counts. Duplicates are
/// skipped (first occurrence wins — profiling the same count twice
/// would only overwrite its own artifacts); malformed entries reject
/// the whole list with a typed [`HotspotsError::Args`], so the exit
/// code says "fix the invocation".
fn parse_scaling(list: &str) -> Result<Vec<usize>, HotspotsError> {
    let mut counts: Vec<usize> = Vec::new();
    for part in list.split(',') {
        let n = part.trim().parse::<usize>().ok().filter(|&n| n >= 1);
        let Some(n) = n else {
            return Err(HotspotsError::Args(ArgError::new(format!(
                "--scaling needs comma-separated positive thread counts, \
                 e.g. 1,2,4,8 (rejected {part:?} in {list:?})"
            ))));
        };
        if !counts.contains(&n) {
            counts.push(n);
        }
    }
    Ok(counts)
}

fn cmd_profile(parsed: &ParsedArgs, scale: Scale, threads: Option<usize>) {
    let [_, target] = &parsed.positional[..] else {
        die("profile takes exactly one target: a preset name or spec file");
    };
    let spec = resolve_spec_or_exit(target, parsed, scale);
    if spec.study.is_some() {
        die(&format!(
            "{target:?} is a study preset; profile traces engine-path scenarios \
             (worm + population) only. A study that routes probes reports its \
             per-phase totals in the .phases of its run report: \
             hotspots run {target} --report <file.jsonl>"
        ));
    }
    // --scaling sets the thread counts itself, and only its curve is
    // written to --bench-json: each flag is read only in its own mode
    match (
        parsed.has("scaling"),
        parsed.has("threads"),
        parsed.has("bench-json"),
    ) {
        (true, true, _) => die("profile reads --threads only without --scaling"),
        (false, _, true) => die("profile reads --bench-json only with --scaling"),
        _ => {}
    }
    let counts: Vec<usize> = match parsed.value("scaling") {
        Some(list) => match parse_scaling(list) {
            Ok(counts) => counts,
            Err(e) => fail(&e),
        },
        // resolved here so the banner and artifact names carry the
        // count the run uses, never `--threads 0`
        None => vec![context(threads).threads_for(&spec)],
    };
    let out_dir = parsed.value("out").unwrap_or(".").to_owned();
    if let Err(source) = std::fs::create_dir_all(&out_dir) {
        fail(&HotspotsError::Io {
            context: format!("creating {out_dir}"),
            source,
        });
    }
    out(&spec_banner(target, &spec, scale));
    let stem = artifact_stem(&spec);

    let mut points: Vec<ProfilePoint> = Vec::new();
    for &t in &counts {
        let (point, report_line) = profile_once(&spec, t);
        let chrome_path = format!("{out_dir}/{stem}-{t}t.trace.json");
        let folded_path = format!("{out_dir}/{stem}-{t}t.folded");
        write_artifact(&chrome_path, &point.chrome);
        write_artifact(&folded_path, &point.folded);
        out(&format!(
            "\n---- threads = {t} ----\n{report_line}{}\
             chrome trace: {chrome_path} (chrome://tracing, ui.perfetto.dev)\n\
             flamegraph:   {folded_path} (speedscope.app, flamegraph.pl)\n",
            phase_table(&point)
        ));
        points.push(point);
    }

    if parsed.value("scaling").is_some() {
        let bench_path = parsed.value("bench-json").unwrap_or("BENCH_engine.json");
        // Carry the seed baseline forward so the headline speedup stays
        // comparable across PRs (also reads the pre-scaling schema).
        let seed = std::fs::read_to_string(bench_path)
            .ok()
            .and_then(|text| BenchSummary::from_json(&text).ok())
            .and_then(|old| old.seed_probes_per_sec);
        let probes = points.first().map_or(0, |p| p.probes);
        let mut summary = BenchSummary::from_points(
            format!("{stem}_{}", scale.label()),
            probes,
            seed,
            points
                .iter()
                .map(|p| ScalingPoint {
                    threads: p.threads as u64,
                    probes_per_sec: p.probes_per_sec,
                    speedup: 0.0,
                    phase_breakdown: p.phase_breakdown.clone(),
                })
                .collect(),
        );
        let mut text = String::new();
        // Population memory accounting: store bytes from a fresh build
        // (deterministic), and the process's peak resident set, which
        // covers the runs above.
        if let Ok(built) = spec.build() {
            let memory = MemoryStats {
                hosts: built.population.len() as u64,
                store_bytes: built.population.store_bytes() as u64,
                dense_store_bytes: built.population.dense_equivalent_bytes() as u64,
                resident_bytes: hotspots_telemetry::resident_bytes(),
            };
            text += &format!(
                "population memory: {} hosts, {} store bytes \
                 ({:.1}% of dense-equivalent {})\n",
                memory.hosts,
                memory.store_bytes,
                100.0 * memory.store_bytes as f64 / memory.dense_store_bytes.max(1) as f64,
                memory.dense_store_bytes,
            );
            summary = summary.with_memory(memory);
        }
        write_artifact(bench_path, &summary.to_json());
        text += &format!("\nscaling curve -> {bench_path}\n");
        let rows: Vec<Vec<String>> = summary
            .scaling
            .iter()
            .map(|p| {
                vec![
                    p.threads.to_string(),
                    format!("{:.1}", p.probes_per_sec / 1e6),
                    format!("{:.3}x", p.speedup),
                    format!(
                        "{:.4}",
                        p.phase_breakdown
                            .iter()
                            .find(|(n, _)| n == "merge")
                            .map_or(0.0, |(_, s)| *s)
                    ),
                ]
            })
            .collect();
        text += &table(&["threads", "Mprobes/s", "speedup", "merge s"], &rows);
        out(&text);
    }
}

/// Parses a sweep value the way the TOML reader would: int, then float,
/// then bool, else string.
fn parse_sweep_value(s: &str) -> Value {
    if let Ok(i) = s.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(f) = s.parse::<f64>() {
        return Value::Float(f);
    }
    match s {
        "true" => Value::Bool(true),
        "false" => Value::Bool(false),
        _ => Value::Str(s.to_owned()),
    }
}

/// Parses a non-negative integer serve flag, defaulting when absent.
fn parse_count(parsed: &ParsedArgs, name: &str, default: usize) -> Result<usize, HotspotsError> {
    match parsed.value(name) {
        None => Ok(default),
        Some(v) => v.parse::<usize>().map_err(|_| {
            ArgError::new(format!("--{name} needs a non-negative integer, got {v:?}")).into()
        }),
    }
}

fn serve_config(parsed: &ParsedArgs, threads: Option<usize>) -> Result<ServeConfig, HotspotsError> {
    let defaults = ServeConfig::default();
    Ok(ServeConfig {
        cache_dir: parsed
            .value("cache-dir")
            .map_or(defaults.cache_dir, std::path::PathBuf::from),
        max_entries: parse_count(parsed, "max-entries", defaults.max_entries)?,
        workers: parse_count(parsed, "workers", defaults.workers)?,
        queue_depth: parse_count(parsed, "queue-depth", defaults.queue_depth)?,
        threads: threads.unwrap_or(defaults.threads),
    })
}

/// `hotspots serve`: the JSONL scenario server over stdio (responses
/// on stdout, diagnostics on stderr), or — with `--check` — the cache
/// verification pass: re-run every cached entry and byte-diff it
/// against the stored report.
fn cmd_serve(parsed: &ParsedArgs, threads: Option<usize>) {
    if parsed.positional.len() > 1 {
        die("serve takes no positional arguments");
    }
    let config = match serve_config(parsed, threads) {
        Ok(config) => config,
        Err(e) => fail(&e),
    };
    if parsed.has("check") {
        let outcomes = match hotspots_serve::check(&config) {
            Ok(outcomes) => outcomes,
            Err(e) => fail(&e),
        };
        let mut diverged = 0usize;
        let mut text = String::new();
        for outcome in &outcomes {
            let mut line = format!("{{\"hash\":\"{}\",\"name\":", outcome.hash);
            json::write_str(&mut line, &outcome.name);
            line.push_str(",\"ok\":");
            match &outcome.failure {
                None => line.push_str("true}"),
                Some(why) => {
                    diverged += 1;
                    line.push_str("false,\"error\":");
                    json::write_str(&mut line, why);
                    line.push('}');
                }
            }
            text += &line;
            text.push('\n');
        }
        out(&text);
        eprintln!(
            "serve --check: {} entries verified, {diverged} diverged",
            outcomes.len()
        );
        if diverged > 0 {
            fail(&HotspotsError::worker(format!(
                "re-verifying the result cache: {diverged} entries diverged from their re-runs"
            )));
        }
        return;
    }
    let server = match Server::open(&config) {
        Ok(server) => server,
        Err(e) => fail(&e),
    };
    eprintln!(
        "hotspots serve: cache {} ({} workers, queue depth {}, max {} entries); \
         JSONL on stdin, responses on stdout",
        config.cache_dir.display(),
        config.workers,
        config.queue_depth,
        config.max_entries,
    );
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    if let Err(e) = server.serve(stdin.lock(), stdout.lock()) {
        fail(&HotspotsError::Io {
            context: "serving the stdio session".to_owned(),
            source: e,
        });
    }
}

/// Parses the sweep axes from repeated `--param dotted.path=v1,v2,...`
/// flags, falling back to the spec's own `[sweep]` section. Mirrors
/// `parse_scaling`: every malformed value is a typed usage error, so
/// the front-end exits 2 per `HotspotsError::exit_code`.
fn parse_axes(
    params: &[&str],
    base: &ScenarioSpec,
) -> Result<Vec<(String, Vec<Value>)>, HotspotsError> {
    let mut axes: Vec<(String, Vec<Value>)> = Vec::new();
    for p in params {
        let Some((path, list)) = p.split_once('=') else {
            return Err(ArgError::new(format!(
                "--param {p:?} needs the form dotted.path=v1,v2,..."
            ))
            .into());
        };
        if path.is_empty() {
            return Err(
                ArgError::new(format!("--param {p:?} names an empty parameter path")).into(),
            );
        }
        if list.is_empty() {
            return Err(ArgError::new(format!("--param {path} needs at least one value")).into());
        }
        let values: Vec<Value> = list.split(',').map(parse_sweep_value).collect();
        axes.push((path.to_owned(), values));
    }
    if axes.is_empty() {
        match &base.sweep {
            Some(sweep) => axes.push((sweep.param.clone(), sweep.values.clone())),
            None => {
                return Err(
                    ArgError::new("sweep needs --param (the spec has no [sweep] section)").into(),
                )
            }
        }
    }
    if let Some((path, _)) = axes.iter().find(|(_, values)| values.is_empty()) {
        return Err(ArgError::new(format!("sweep axis {path} has no values")).into());
    }
    Ok(axes)
}

fn cmd_sweep(parsed: &ParsedArgs, scale: Scale, threads: Option<usize>) {
    let [_, target] = &parsed.positional[..] else {
        die("sweep takes exactly one target: a preset name or spec file");
    };
    let base = resolve_spec_or_exit(target, parsed, scale);
    // every --param occurrence is its own sweep axis, run in order;
    // without any, fall back to the spec's [sweep] section
    let axes = match parse_axes(&parsed.values("param"), &base) {
        Ok(axes) => axes,
        Err(e) => fail(&e),
    };
    let scenario = base
        .meta
        .scenario
        .clone()
        .unwrap_or_else(|| base.meta.name.clone());
    // every point of every axis is built and validated before the first
    // one runs, so a bad value fails the sweep up front
    let mut points: Vec<Vec<ScenarioSpec>> = Vec::with_capacity(axes.len());
    for (param, values) in &axes {
        let mut axis = Vec::with_capacity(values.len());
        for value in values {
            let mut tree = base.to_value();
            if let Err(e) = tree.set_path(param, value.clone()) {
                fail(&ArgError::new(format!("--param {param}: {e}")).into());
            }
            let mut spec = match ScenarioSpec::from_value(&tree) {
                Ok(s) => s,
                Err(e) => fail(
                    &SpecError::new(e.field, format!("with {param} = {value}: {}", e.message))
                        .into(),
                ),
            };
            // one report per point, distinguished by the scenario label
            spec.meta.scenario = Some(format!("{scenario} [{param}={value}]"));
            spec.sweep = None;
            if let Err(e) = spec.validate() {
                fail(&e.into());
            }
            axis.push(spec);
        }
        points.push(axis);
    }
    out(&spec_banner(target, &base, scale));
    for ((param, values), axis) in axes.iter().zip(&points) {
        out(&format!(
            "\nsweeping {param} over {} values: {}\n\n",
            values.len(),
            values
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ));
        for (value, spec) in values.iter().zip(axis) {
            out(&format!(
                "---- {param} = {value} ----\n{}\n",
                run_and_render(spec, threads)
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_lists_dedupe_in_first_seen_order() {
        assert_eq!(parse_scaling("1,2,4,8").unwrap(), [1, 2, 4, 8]);
        assert_eq!(parse_scaling("4,1,4,2,1").unwrap(), [4, 1, 2]);
        assert_eq!(parse_scaling(" 2 , 2 ").unwrap(), [2]);
    }

    #[test]
    fn malformed_scaling_lists_are_typed_usage_errors() {
        for bad in ["1,,4", "", "0", "1,0", "one", "2,4,"] {
            let err = parse_scaling(bad).expect_err(bad);
            assert!(matches!(err, HotspotsError::Args(_)), "{bad}: {err}");
            assert_eq!(err.exit_code(), 2, "{bad}");
        }
    }
}
