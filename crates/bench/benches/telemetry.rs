//! Telemetry overhead guard: full probe-stream accounting
//! (`TelemetryObserver` over a `NullSink`) must stay cheap relative to
//! the free observer (`NullObserver`) on a fixed Slammer run, and so
//! must the engine's span trace (`SimConfig::trace` on vs off).
//!
//! Besides the criterion groups, this bench prints an explicit
//! `overhead:` line comparing median step throughput (target < 15%).
//! The target was < 5% against the pre-batching engine; the batched
//! pipeline made the null baseline ~2× faster (and `NullObserver` now
//! skips probe iteration entirely via the batch hook), so the same
//! absolute per-probe accounting cost — one /8 landing count; the
//! verdict ledger merges O(1) per batch — is a larger fraction of a
//! smaller denominator.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use hotspots_ipspace::Ip;
use hotspots_netmodel::Environment;
use hotspots_sim::{Engine, NullObserver, Population, SimConfig, SlammerWorm, TelemetryObserver};
use hotspots_telemetry::{MemorySink, Timer};

/// The fixed workload: 25 Slammer seeds scanning the whole v4 space at
/// 400 probes/s for 100 simulated seconds (~1M routed probes — large
/// enough that the batched engine's ~millisecond runs median out over
/// scheduler noise).
fn slammer_engine() -> Engine {
    slammer_engine_with(false)
}

/// Same workload with `SimConfig::trace` requested. Phase timing runs
/// either way, so comparing against the plain run measures what
/// recording the span trace costs.
fn slammer_engine_with(trace: bool) -> Engine {
    let config = SimConfig {
        scan_rate: 400.0,
        seeds: 25,
        dt: 1.0,
        max_time: 100.0,
        stop_at_fraction: None,
        rng_seed: 20_030_125, // Slammer's release date, for flavor
        trace,
        ..SimConfig::default()
    };
    let pop = Population::from_public((0..2_000u32).map(|i| Ip::new(0x0b00_0000 + i * 61)));
    Engine::new(config, pop, Environment::new(), Box::new(SlammerWorm))
}

fn observers(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry");
    group.sample_size(10);

    group.bench_function("slammer_run_null_observer", |b| {
        b.iter_batched(
            slammer_engine,
            |mut engine| black_box(engine.run(&mut NullObserver)),
            BatchSize::PerIteration,
        );
    });

    group.bench_function("slammer_run_telemetry_nullsink", |b| {
        b.iter_batched(
            slammer_engine,
            |mut engine| {
                let mut telemetry = TelemetryObserver::disabled();
                black_box(engine.run(&mut telemetry));
                black_box(telemetry.ledger().probes())
            },
            BatchSize::PerIteration,
        );
    });

    group.bench_function("slammer_run_trace_on", |b| {
        b.iter_batched(
            || slammer_engine_with(true),
            |mut engine| black_box(engine.run(&mut NullObserver)),
            BatchSize::PerIteration,
        );
    });

    group.bench_function("slammer_run_telemetry_memorysink", |b| {
        b.iter_batched(
            slammer_engine,
            |mut engine| {
                let mut telemetry = TelemetryObserver::new(MemorySink::new());
                black_box(engine.run(&mut telemetry));
                black_box(telemetry.into_sink().events().len())
            },
            BatchSize::PerIteration,
        );
    });

    group.finish();
}

/// Medians a few wall-clock samples of `run`.
fn median_secs(mut run: impl FnMut() -> u64, samples: usize) -> (f64, u64) {
    let mut times: Vec<Duration> = Vec::with_capacity(samples);
    let mut probes = 0;
    for _ in 0..samples {
        let start = Timer::start();
        probes = run();
        times.push(start.elapsed());
    }
    times.sort();
    (times[samples / 2].as_secs_f64(), probes)
}

/// The guard proper: prints the measured overhead so the bench output
/// documents the invariant (`TelemetryObserver(NullSink)` and a traced
/// run each within 15% of an untraced `NullObserver` run).
fn overhead_guard() {
    const SAMPLES: usize = 7;
    let (null_secs, null_probes) = median_secs(
        || {
            let mut engine = slammer_engine();
            black_box(engine.run(&mut NullObserver)).probes_sent
        },
        SAMPLES,
    );
    let (telemetry_secs, telemetry_probes) = median_secs(
        || {
            let mut engine = slammer_engine();
            let mut telemetry = TelemetryObserver::disabled();
            black_box(engine.run(&mut telemetry));
            telemetry.ledger().probes()
        },
        SAMPLES,
    );
    let (trace_secs, trace_probes) = median_secs(
        || {
            let mut engine = slammer_engine_with(true);
            black_box(engine.run(&mut NullObserver)).probes_sent
        },
        SAMPLES,
    );
    assert_eq!(null_probes, telemetry_probes, "identical fixed workloads");
    assert_eq!(
        null_probes, trace_probes,
        "trace flag must not change results"
    );
    let overhead = 100.0 * (telemetry_secs - null_secs) / null_secs;
    let trace_overhead = 100.0 * (trace_secs - null_secs) / null_secs;
    println!(
        "telemetry/overhead_guard: {null_probes} probes, null {:.2} ms, \
         telemetry(NullSink) {:.2} ms — overhead: {overhead:+.2}% (target < 15%)",
        null_secs * 1e3,
        telemetry_secs * 1e3,
    );
    println!(
        "telemetry/overhead_guard: trace on vs off {:.2} ms — \
         overhead: {trace_overhead:+.2}% (target < 15%)",
        trace_secs * 1e3,
    );
}

fn guard(_c: &mut Criterion) {
    overhead_guard();
}

criterion_group!(benches, observers, guard);
criterion_main!(benches);
