//! The engine workloads: spec text in, canonical report bytes out,
//! through `ScenarioSpec::from_toml` → `run_spec` →
//! `report.build().canonicalized().to_jsonl()`.

use std::hint::black_box;

use hotspots_scenario::{fold_sim_result, run_spec, PopSpec, RunContext, ScenarioSpec};
use hotspots_sim::{zipf_slash8_population, Engine, FieldObserver, NullObserver, Population};
use hotspots_telemetry::{ReportBuilder, RunReport};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::{Recorder, OP_TRACK, PROBE_TRACK};
use crate::{
    end_to_end, inputs, now, quantile, reset_peak_rss, secs_since, BenchError, Checks, Metric,
    Options, Reference, Report, Workload,
};

const BINARY: &str = "hotspots-benchmark";

/// Set-up repeats at least this many times and for at least this long;
/// its median is reported. The first builds of a fresh process are cold
/// (heap growth), so enough repeats keep the median on warm ones.
const SETUP_MIN_REPS: usize = 11;
const SETUP_MIN_SECONDS: f64 = 1.0;

/// Operations per thread count in a smoke run.
const SMOKE_OPS: u64 = 3;

/// The seed whose counters are pinned in [`pinned`].
pub const PIN_SEED: u64 = 2006;

/// `probes_sent`, `delivered`, `dropped_total` and `infections` of each
/// engine workload at [`PIN_SEED`].
fn pinned(workload: Workload) -> Option<[u64; 4]> {
    match workload {
        Workload::SlammerPipeline => Some([15_000_000, 13_143_126, 1_856_874, 25]),
        Workload::MillionHosts => Some([129_400, 109_584, 19_816, 67]),
        Workload::OutageDetect => Some([384_140, 191_782, 192_358, 1_900]),
        Workload::ServeMix => None,
    }
}

fn counters(report: &RunReport) -> [u64; 4] {
    [
        report.probes_sent,
        report.delivered,
        report.dropped_total(),
        report.infections,
    ]
}

/// One measured operation.
fn operate(text: &str, threads: usize) -> Result<String, BenchError> {
    let spec = ScenarioSpec::from_toml(text)?;
    let run = run_spec(&spec, &RunContext::new(BINARY).with_threads(threads))?;
    Ok(run.report.build().canonicalized().to_jsonl())
}

/// Set-up: the time to parse the spec and build a ready engine, with
/// the machine's speed sampled alongside.
fn setup(text: &str, opts: &Options, speed: &mut Reference) -> Result<Vec<f64>, BenchError> {
    let reps = if opts.smoke { 2 } else { SETUP_MIN_REPS };
    speed.sample();
    let start = now();
    let mut times = Vec::new();
    while times.len() < reps || (!opts.smoke && secs_since(start) < SETUP_MIN_SECONDS) {
        let t = now();
        let built = ScenarioSpec::from_toml(text)?.build()?;
        black_box(Engine::new(
            built.config,
            built.population,
            built.environment,
            built.worm,
        ));
        times.push(secs_since(t));
        speed.tick(Reference::SETUP_INTERVAL_S);
    }
    Ok(times)
}

/// Runs one engine workload.
pub(crate) fn run(workload: Workload, opts: &Options) -> Result<Report, BenchError> {
    let text = inputs::engine_spec(workload, opts.seed)?;
    let digest = inputs::digest([text.as_str()]);
    let mut speed = Reference::new();
    let setup = setup(&text, opts, &mut speed)?;
    let setup_speed = speed.phase();
    // slammer-pipeline alternates 1 and 2 engine threads; with the
    // shipped feature set both run serially until `parallel` ships
    let threads: &[usize] = if workload == Workload::SlammerPipeline {
        &[1, 2]
    } else {
        &[1]
    };

    // the untimed warm-up is also the reference every iteration must
    // reproduce byte for byte
    let reference = operate(&text, 1)?;
    let expected = RunReport::from_jsonl(&reference).map_err(BenchError::Setup)?;
    let mut checks = Checks::default();
    if let Some(error) = expected.accounting_error() {
        checks.fail(error);
    }
    if opts.seed == PIN_SEED {
        if let Some(pin) = pinned(workload) {
            checks.expect_eq("counters at the pinned seed", counters(&expected), pin);
        }
    }

    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); threads.len()];
    let mut op_times = Vec::new();
    let mut recorder = opts.trace.then(Recorder::new);
    let per_round = threads.len() as u64 * if opts.trace { 2 } else { 1 };
    speed.sample();
    reset_peak_rss();
    let start = now();
    let mut i = 0u64;
    loop {
        let slot = (i % threads.len() as u64) as usize;
        let t = threads.get(slot).copied().unwrap_or(1);
        let traced = (i / threads.len() as u64) % 2 == 1;
        checks.attempt();
        let t0 = now();
        let out = operate(&text, t);
        let t1 = now();
        match &out {
            Ok(bytes) if *bytes == reference => {}
            Ok(_) => checks.fail(format!(
                "iteration {i} ({t} threads): report bytes differ from the warm-up's"
            )),
            Err(e) => checks.fail(format!("iteration {i}: {e}")),
        }
        match recorder.as_mut() {
            Some(rec) if traced => {
                let parent = rec.record("run_spec", None, i, OP_TRACK, (t0, t1));
                if let Err(e) = replay(&text, t, &expected, rec, parent, i) {
                    checks.fail(format!("iteration {i} replay: {e}"));
                }
            }
            _ => {
                let seconds = (t1 - t0).as_secs_f64();
                op_times.push(seconds);
                if let Some(samples) = latencies.get_mut(slot) {
                    samples.push(seconds);
                }
            }
        }
        i += 1;
        if opts.done(start, i, SMOKE_OPS * per_round) {
            break;
        }
        speed.tick(Reference::LOOP_INTERVAL_S);
    }

    let serial = latencies.first().map(Vec::as_slice).unwrap_or(&[]);
    let n = serial.len() as u64;
    if let Some(rec) = recorder {
        let path = rec.write_chrome(&opts.trace_dir, workload.name())?;
        eprintln!("hotspots-benchmark: wrote {}", path.display());
        let (metrics, extra) = rec.per_layer("run_spec", [0; 3]);
        return Ok(Report::new(opts, digest, checks, metrics, extra));
    }
    let p50 = quantile(serial, 0.5);
    let (metrics, mut extra) = end_to_end((&setup, setup_speed), serial, &op_times, speed.phase())?;
    extra.extend([
        Metric::new("raw.latency_ms_p90", "ms", quantile(serial, 0.9) * 1e3, n),
        Metric::new(
            "raw.probes_per_s",
            "1/s",
            expected.probes_sent as f64 / p50,
            n,
        ),
    ]);
    if let Some(two) = latencies.get(1) {
        let p50_2t = quantile(two, 0.5);
        extra.push(Metric::new(
            "raw.latency_ms_p50_2t",
            "ms",
            p50_2t * 1e3,
            two.len() as u64,
        ));
        extra.push(Metric::new(
            "speedup_2t",
            "ratio",
            p50 / p50_2t,
            two.len() as u64,
        ));
    }
    Ok(Report::new(opts, digest, checks, metrics, extra))
}

/// Replays one operation's layer calls as spans under `parent`.
fn replay(
    text: &str,
    threads: usize,
    expected: &RunReport,
    rec: &mut Recorder,
    parent: usize,
    iteration: u64,
) -> Result<(), String> {
    let spec = rec
        .span("spec.parse", parent, iteration, || {
            ScenarioSpec::from_toml(text)
        })
        .map_err(|e| e.to_string())?;
    replay_run(&spec, threads, expected, rec, parent, iteration)
}

/// Replays what `run_spec` does with a parsed engine spec — validate,
/// build, `Engine::new`, `Engine::run` with the observer `run_spec`
/// picks, `fold_sim_result`, emit — timing each call as a span under
/// `parent`, and checks that the replay's probe, ledger and infection
/// counters equal `expected`'s.
pub(crate) fn replay_run(
    spec: &ScenarioSpec,
    threads: usize,
    expected: &RunReport,
    rec: &mut Recorder,
    parent: usize,
    iteration: u64,
) -> Result<(), String> {
    rec.span("spec.validate", parent, iteration, || spec.validate())
        .map_err(|e| e.to_string())?;
    if let Some(PopSpec::Zipf {
        size,
        slash8s,
        seed,
        store,
    }) = &spec.population
    {
        // the build's population sub-steps, timed by calling the same
        // functions with the spec's arguments
        let size = usize::try_from(*size).map_err(|e| e.to_string())?;
        let slash8s = usize::try_from(*slash8s).map_err(|e| e.to_string())?;
        let addrs = rec.span_on(
            PROBE_TRACK,
            "build.population_synth",
            parent,
            iteration,
            || zipf_slash8_population(size, slash8s, &mut StdRng::seed_from_u64(*seed)),
        );
        if store == "compressed" {
            let population = rec.span_on(
                PROBE_TRACK,
                "build.population_store",
                parent,
                iteration,
                || Population::try_compressed_from_public(&addrs),
            );
            black_box(population.map_err(|e| e.to_string())?);
        }
    }
    let mut built = rec
        .span("build", parent, iteration, || spec.build())
        .map_err(|e| e.to_string())?;
    built.config.threads = threads;
    let store_bytes = built.population.store_bytes();
    let service = built.worm.service();
    let detector = built.detector.take();
    let mut engine = rec.span("engine.new", parent, iteration, || {
        Engine::new(
            built.config,
            built.population,
            built.environment,
            built.worm,
        )
    });
    let result = rec.span("engine.run", parent, iteration, || match detector {
        Some(field) => engine.run(&mut FieldObserver::with_service(field, service)),
        None => engine.run(&mut NullObserver),
    });
    let scenario = spec.meta.scenario.as_deref().unwrap_or(&spec.meta.name);
    let mut folded = ReportBuilder::new(BINARY, scenario);
    rec.span("report.fold", parent, iteration, || {
        fold_sim_result(&mut folded, &result);
    });
    let (report, line) = rec.span("report.emit", parent, iteration, || {
        let report = folded.build();
        let line = report.canonicalized().to_jsonl();
        (report, line)
    });

    for (name, seconds) in &report.phases {
        rec.add(&format!("phase.{name}"), *seconds);
    }
    rec.add("engine_runs", 1.0);
    rec.add("probes", report.probes_sent as f64);
    rec.add("delivered", report.delivered as f64);
    rec.add("infections", report.infections as f64);
    rec.add("store_bytes", store_bytes as f64);
    rec.add("report_bytes", line.len() as f64);
    if counters(&report) != counters(expected) || report.dropped != expected.dropped {
        return Err(format!(
            "replayed counters {:?} {:?} differ from the timed run's {:?} {:?}",
            counters(&report),
            report.dropped,
            counters(expected),
            expected.dropped
        ));
    }
    Ok(())
}
