//! Self-tests: smoke runs pass every check, generated inputs depend on
//! the seed alone, the client LRU model matches the server's counters,
//! and the output names exactly the metrics BENCHMARK.json declares.

use std::path::Path;

use hotspots_benchmark::inputs::{self, ZipfStream};
use hotspots_benchmark::serve::{prepare, Session};
use hotspots_benchmark::{
    quantile, run, windowed_rate, Checks, Options, Report, ScratchDir, Workload, END_TO_END,
    PER_LAYER,
};
use hotspots_telemetry::json::{self, Json};

fn scratch(label: &str) -> ScratchDir {
    ScratchDir::create(label).expect("scratch dir")
}

fn smoke(workload: Workload, seed: u64, trace: bool, trace_dir: &Path) -> Report {
    let opts = Options {
        smoke: true,
        trace,
        trace_dir: trace_dir.to_path_buf(),
        ..Options::new(workload, seed)
    };
    let report = run(&opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert!(
        report.correct(),
        "{} seed {seed} trace {trace}: {:?}",
        workload.name(),
        report.checks.failures
    );
    report
}

/// Untraced at the pinned seed (counters checked), traced at another.
fn smoke_both(workload: Workload) {
    let traces = scratch("traces");
    smoke(workload, 2006, false, traces.path());
    smoke(workload, 7, true, traces.path());
    let trace = traces
        .path()
        .join(format!("{}.trace.json", workload.name()));
    let text = std::fs::read_to_string(&trace).expect("trace written");
    assert!(
        json::parse(&text).is_ok(),
        "{} is not JSON",
        trace.display()
    );
}

#[test]
fn slammer_pipeline_smoke() {
    smoke_both(Workload::SlammerPipeline);
}

#[test]
fn million_hosts_smoke() {
    smoke_both(Workload::MillionHosts);
}

#[test]
fn outage_detect_smoke() {
    smoke_both(Workload::OutageDetect);
}

#[test]
fn serve_mix_smoke() {
    smoke_both(Workload::ServeMix);
}

#[test]
fn inputs_are_a_function_of_the_seed() {
    for workload in Workload::ALL {
        let digest = |seed| inputs::workload_digest(workload, seed).expect("inputs");
        assert_eq!(digest(2006), digest(2006), "{}", workload.name());
        assert_ne!(digest(2006), digest(7), "{}", workload.name());
    }
}

#[test]
fn lru_model_agrees_with_server_stats_under_eviction() {
    let specs = inputs::serve_specs(11, 8).expect("specs");
    let prepared = prepare(&specs).expect("distinct specs");
    let dir = scratch("lru");
    let mut session = Session::open(&dir.path().join("cache"), 3).expect("server");
    let mut checks = Checks::default();
    let mut stream = ZipfStream::new(prepared.len());
    for _ in 0..40 {
        let key = stream.next_rank();
        session.submit(key, &prepared[key], &mut checks);
    }
    let [hits, misses, evictions] = session.check_stats(&mut checks);
    assert!(checks.failures.is_empty(), "{:?}", checks.failures);
    assert_eq!(hits + misses, 40);
    assert!(
        hits > 0 && evictions > 0,
        "hits {hits}, evictions {evictions}"
    );
}

fn declared(manifest: &Json, key: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(items)) = manifest.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    items
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit");
            (field("name").to_owned(), field("unit").to_owned())
        })
        .collect()
}

fn owned(metrics: &[(&str, &str)]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
        .collect()
}

#[test]
fn output_names_exactly_the_declared_metrics() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json");
    let manifest = json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(declared(&manifest, "end_to_end"), owned(&END_TO_END));
    assert_eq!(declared(&manifest, "per_layer"), owned(&PER_LAYER));
    let Some(Json::Arr(workloads)) = manifest.get("workloads") else {
        panic!("BENCHMARK.json has no workloads list");
    };
    let names: Vec<&str> = workloads
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, expected);

    let traces = scratch("drift");
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let report = smoke(Workload::OutageDetect, 2006, trace, traces.path());
        let line = json::parse(&report.summary_json()).expect("result line parses");
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("result line has no metrics object");
        };
        let printed: Vec<(String, String)> = metrics
            .iter()
            .map(|(name, m)| {
                let unit = m
                    .get("unit")
                    .and_then(Json::as_str)
                    .expect("every metric has a unit");
                (name.clone(), unit.to_owned())
            })
            .collect();
        assert_eq!(printed, declared(&manifest, key));
    }
}

#[test]
fn ops_per_s_is_the_median_window_rate() {
    // 30 s of 0.1 s operations at 10/s, one of them stalled for 3 s
    let mut times = vec![0.1; 300];
    times[5] = 3.0;
    assert!((windowed_rate(&times) - 10.0).abs() < 1e-6);
    // a run shorter than one window is one window
    assert!((windowed_rate(&[0.2, 0.2]) - 5.0).abs() < 1e-6);
}

#[test]
fn quantiles_are_nearest_rank() {
    let samples: Vec<f64> = (1..=10).rev().map(f64::from).collect();
    assert_eq!(quantile(&samples, 0.5), 5.0);
    assert_eq!(quantile(&samples, 0.9), 9.0);
    assert_eq!(quantile(&samples, 1.0), 10.0);
    assert!(quantile(&[], 0.5).is_nan());
}
