//! The CodeRedII / NAT hotspot (Figure 4), end to end.
//!
//! Reproduces the paper's quarantine experiment: the same worm run from
//! a public host and from a NATed `192.168.0.100` host, plus the
//! aggregate mixed-population view with its M-block spike. The whole
//! study is one declarative [`ScenarioSpec`], executed through the same
//! [`run_spec`] path as the `hotspots` CLI; this example then renders
//! the outcome its own way.
//!
//! Run with: `cargo run --release --example nat_hotspot`

use hotspots::scenarios::codered::CodeRedStudy;
use hotspots::scenarios::totals_by_block;
use hotspots_ipspace::{ims_deployment, Prefix};
use hotspots_scenario::run::QuarantineTrace;
use hotspots_scenario::spec::StudySpec;
use hotspots_scenario::{run_spec, Outcome, RunContext, ScenarioSpec};

fn main() {
    let probes = 2_000_000u64;
    let mut spec = ScenarioSpec::named("nat-hotspot");
    spec.meta.scenario = Some("Figure 4 quarantine + mix".to_owned());
    spec.study = Some(StudySpec::CodeRedNat {
        study: CodeRedStudy {
            hosts: 4_000,
            probes_per_host: 10_000,
            rng_seed: 99,
            ..CodeRedStudy::default()
        },
        quarantine_probes_public: probes,
        quarantine_probes_natted: probes,
        quarantine_seed: 7,
    });

    let run = run_spec(&spec, &RunContext::new("nat_hotspot")).expect("study spec runs");
    let Outcome::CodeRedNat {
        study,
        rows,
        quarantines,
    } = &run.outcome
    else {
        unreachable!("CodeRedII study");
    };

    let m_prefix: Prefix = "192.40.16.0/22".parse().expect("M block prefix");
    let m_hits = |q: &QuarantineTrace| -> u64 {
        q.hist
            .iter()
            .filter(|(b, _)| m_prefix.contains(b.first_ip()))
            .map(|(_, c)| c)
            .sum()
    };

    println!("== Quarantine runs ({probes} probes each) ==");
    for q in quarantines {
        println!(
            "  {}: {} sensor hits total, {} at the M block",
            q.label,
            q.hist.total(),
            m_hits(q)
        );
    }
    println!("  → the NATed instance's /8 preference leaks straight into public 192/8");

    println!("\n== Mixed population (Fig 4a, reduced scale) ==");
    let blocks = ims_deployment();
    println!(
        "  mean unique CodeRedII sources per monitored /24 ({:.0}% of hosts NATed):",
        100.0 * study.nat_fraction
    );
    for (label, total) in totals_by_block(rows) {
        let block = blocks.iter().find(|b| b.label() == label).expect("label");
        let slash24s = (block.size() / 256).max(1) as f64;
        let rate = total as f64 / slash24s;
        let bar = "#".repeat(((rate * 2.0) as usize).min(60));
        println!("  {label:>2}: {rate:>8.2}  {bar}");
    }
    println!("  → M spikes despite being a tiny /22; that is the hotspot.");

    if let Err(e) = run.report.try_emit() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
