//! Why quorum detection misses targeted worms (Figure 5, reduced scale).
//!
//! Runs a hit-list outbreak against a distributed field of threshold
//! sensors and shows the paper's core operational finding: the worm can
//! finish infecting its targets while the overwhelming majority of
//! sensors — and therefore any quorum rule over them — stay silent.
//!
//! Both halves are expressed as declarative [`ScenarioSpec`] studies and
//! executed through the same [`run_spec`] path as the `hotspots` CLI, so
//! the exact configuration is printable (`ScenarioSpec::to_toml`) and
//! reproducible from a file.
//!
//! Run with: `cargo run --release --example outbreak_detection`

use hotspots::scenarios::detection::DetectionStudy;
use hotspots_scenario::spec::StudySpec;
use hotspots_scenario::{run_spec, Outcome, RunContext, ScenarioSpec};
use hotspots_telescope::QuorumPolicy;

/// The shared reduced-scale detection study (Figure 5 at 20k hosts).
fn detection() -> DetectionStudy {
    DetectionStudy {
        population: 20_000,
        slash8s: 30,
        max_time: 6_000.0,
        stop_at_fraction: 0.9,
        rng_seed: 5,
        ..DetectionStudy::default()
    }
}

fn main() {
    let ctx = RunContext::new("outbreak_detection");

    println!("== Hit-list outbreaks vs distributed detection ==");
    let mut spec = ScenarioSpec::named("outbreak-detection-hitlist");
    spec.meta.scenario = Some("Figure 5 reduced scale (hit-list sizes)".to_owned());
    spec.study = Some(StudySpec::HitList {
        detection: detection(),
        sizes: vec![Some(10), Some(100), None],
    });
    let run = run_spec(&spec, &ctx).expect("study spec runs");
    let Outcome::HitList { runs, .. } = &run.outcome else {
        unreachable!("hit-list study");
    };
    println!(
        "{:>10} {:>9} {:>10} {:>12} {:>14}",
        "hit-list", "coverage", "infected", "sensors", "alerted"
    );
    for r in runs {
        println!(
            "{:>10} {:>8.1}% {:>9.1}% {:>12} {:>8} ({:.1}%)",
            r.list_size,
            100.0 * r.coverage,
            100.0 * r.result.infected_fraction(),
            r.sensors,
            r.sensors_alerted,
            100.0 * r.sensors_alerted as f64 / r.sensors as f64,
        );
    }
    let quorum = QuorumPolicy::new(0.5).expect("valid quorum");
    for r in runs {
        let fraction = r.sensors_alerted as f64 / r.sensors as f64;
        if fraction < quorum.quorum {
            println!(
                "  → {}-prefix worm: a 50% quorum detector NEVER fires \
                 (only {:.1}% of sensors alerted)",
                r.list_size,
                100.0 * fraction
            );
        }
    }
    if let Err(e) = run.report.try_emit() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }

    println!("\n== Placement against a NAT-biased worm ==");
    let mut spec = ScenarioSpec::named("outbreak-detection-placement");
    spec.meta.scenario = Some("Figure 5 reduced scale (sensor placement)".to_owned());
    spec.study = Some(StudySpec::NatDetection {
        detection: detection(),
        nat_fraction: 0.15,
        sensors: 500,
        top_k_slash8s: 20,
    });
    let run = run_spec(&spec, &ctx).expect("study spec runs");
    let Outcome::NatDetection { runs, .. } = &run.outcome else {
        unreachable!("placement study");
    };
    for r in runs {
        println!(
            "  {:?}: {} sensors, {:.1}% alerted when 20% of hosts were infected",
            r.placement,
            r.sensors,
            100.0 * r.alerted_at_20pct_infected
        );
    }
    println!("  → knowing the hotspot beats 500 blind sensors with just 255.");
    if let Err(e) = run.report.try_emit() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
