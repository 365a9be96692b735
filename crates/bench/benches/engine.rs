//! Outbreak engine throughput.
//!
//! The workloads are the `bench-*` registry presets from
//! `hotspots-scenario` (at paper scale), so the exact configurations
//! being timed are inspectable (`hotspots spec bench-slammer`) and stay
//! in lockstep with what `hotspots run` executes. Besides the usual
//! Criterion groups, the custom `main` times a fixed Slammer outbreak
//! at each thread count and writes the scaling curve to `BENCH_engine.json` at
//! the repository root, in the same [`BenchSummary`] schema the
//! `hotspots profile --scaling` harness writes, plus a memory block
//! recording the `bench-million` compressed store against its
//! dense-equivalent bytes. Overrides:
//! `HOTSPOTS_BENCH_BASELINE=<probes/sec>` records a pre-batching seed
//! baseline (else the existing file's baseline is carried forward);
//! `HOTSPOTS_BENCH_THREADS=2,4,8` picks the parallel points.

use criterion::{black_box, criterion_group, BatchSize, Criterion};
use hotspots_ipspace::Ip;
use hotspots_scenario::{find_preset, Scale};
use hotspots_sim::{Engine, FieldObserver, NullObserver, Outbreak};
use hotspots_telemetry::{BenchSummary, MemoryStats, ScalingPoint, Timer};
use hotspots_telescope::DetectorField;

/// Builds a bench preset fresh (engines are consumed per run).
fn built(preset: &str) -> Outbreak {
    find_preset(preset)
        .expect("registered bench preset")
        .spec(Scale::Paper)
        .build()
        .expect("bench presets build")
}

fn engine_from(b: Outbreak) -> Engine {
    Engine::new(b.config, b.population, b.environment, b.worm)
}

fn outbreak(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);

    group.bench_function("run_5k_hosts_100s_null_observer", |b| {
        b.iter_batched(
            || engine_from(built("bench-hitlist")),
            |mut engine| black_box(engine.run(&mut NullObserver)),
            BatchSize::PerIteration,
        );
    });

    group.bench_function("run_5k_hosts_100s_detector_field", |b| {
        let sensors: Vec<hotspots_ipspace::Prefix> = (0..1_000u32)
            .map(|i| hotspots_ipspace::Prefix::containing(Ip::new(0x0b00_0000 + i * 4096), 24))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        b.iter_batched(
            || {
                let engine = engine_from(built("bench-hitlist"));
                let field = DetectorField::new(sensors.clone(), 5);
                let observer = FieldObserver::with_service(field, engine.worm().service());
                (engine, observer)
            },
            |(mut engine, mut observer)| black_box(engine.run(&mut observer)),
            BatchSize::PerIteration,
        );
    });
    group.finish();
}

criterion_group!(benches, outbreak);

/// One timed Slammer outbreak (the `bench-slammer` preset): 25 seeds
/// LCG-walking the full IPv4 space over a 5k-host population.
/// Infections are rare (the population is a ~1e-6 sliver of the scanned
/// space), so the measurement is dominated by the probe pipeline —
/// exactly the path the batched engine restructures. Best of three;
/// the best run's phase breakdown rides along.
fn slammer_run(threads: usize) -> ScalingPoint {
    let mut point = ScalingPoint {
        threads: threads as u64,
        probes_per_sec: 0.0,
        speedup: 0.0,
        phase_breakdown: Vec::new(),
    };
    for _ in 0..3 {
        let mut b = built("bench-slammer");
        b.config.threads = threads;
        let mut engine = engine_from(b);
        let start = Timer::start();
        let result = black_box(engine.run(&mut NullObserver));
        let secs = start.elapsed().as_secs_f64();
        let rate = result.probes_sent as f64 / secs;
        if rate > point.probes_per_sec {
            point.probes_per_sec = rate;
            point.phase_breakdown = result
                .telemetry
                .phases
                .iter()
                .map(|(name, total, _)| (name.to_owned(), total.as_secs_f64()))
                .collect();
        }
    }
    point
}

/// Probes one `bench-slammer` run emits (bit-identical at any thread
/// count, so one cheap serial run suffices).
fn slammer_probes() -> u64 {
    let mut engine = engine_from(built("bench-slammer"));
    engine.run(&mut NullObserver).probes_sent
}

fn main() {
    benches();

    let serial = slammer_run(1);
    println!(
        "slammer_throughput/serial              {:>12.0} probes/sec",
        serial.probes_per_sec
    );
    let serial_rate = serial.probes_per_sec;
    let mut points = vec![serial];

    let counts: Vec<usize> = match std::env::var("HOTSPOTS_BENCH_THREADS") {
        Ok(list) => list
            .split(',')
            .filter_map(|part| part.trim().parse().ok())
            .filter(|&n| n > 1)
            .collect(),
        Err(_) => {
            let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
            [2usize, 4, 8, 16]
                .into_iter()
                .filter(|&n| n <= (2 * cores).max(2))
                .collect()
        }
    };
    for threads in counts {
        let point = slammer_run(threads);
        println!(
            "slammer_throughput/parallel x{threads:<2}         {:>12.0} probes/sec (speedup {:.2}x)",
            point.probes_per_sec,
            point.probes_per_sec / serial_rate
        );
        points.push(point);
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    // Seed baseline: the env override wins, else carry the existing
    // file's baseline forward across rewrites.
    let seed = std::env::var("HOTSPOTS_BENCH_BASELINE")
        .ok()
        .and_then(|raw| raw.parse::<f64>().ok())
        .or_else(|| {
            std::fs::read_to_string(path)
                .ok()
                .and_then(|text| BenchSummary::from_json(&text).ok())
                .and_then(|old| old.seed_probes_per_sec)
        });
    // The memory block tracks the million-host compressed store (the
    // scaling curve's 5k-host population is noise next to it).
    let population = &built("bench-million").population;
    let summary = BenchSummary::from_points("bench-slammer_paper", slammer_probes(), seed, points)
        .with_memory(MemoryStats {
            hosts: population.len() as u64,
            store: population.store_label().to_owned(),
            store_bytes: population.store_bytes() as u64,
            dense_store_bytes: population.dense_equivalent_bytes() as u64,
            resident_bytes: hotspots_telemetry::resident_bytes(),
        });
    std::fs::write(path, summary.to_json()).expect("write BENCH_engine.json");
    println!("wrote {path}");
}
