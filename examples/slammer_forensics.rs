//! Slammer forensics: why a broken LCG makes some blocks dark.
//!
//! Walks through the paper's Slammer analysis with the library API:
//! the three flawed increments, the exact 64-cycle decomposition, a
//! short-cycle instance behaving like a targeted DoS, and the
//! cycle-traversal asymmetry between the D, H, and I sensor blocks.
//!
//! Run with: `cargo run --release --example slammer_forensics`

use hotspots::scenarios::slammer;
use hotspots_ipspace::{ims_deployment, Deployment};
use hotspots_prng::cycles::AffineMap;
use hotspots_prng::{SqlsortDll, SLAMMER_SEED_XOR};
use hotspots_targeting::{SlammerScanner, TargetGenerator};

fn main() {
    // cycle arithmetic and closed-form coverage: nothing is routed
    let mut report =
        hotspots_telemetry::ReportBuilder::new("slammer_forensics", "Slammer LCG forensics");
    println!("== The OR-for-XOR bug ==");
    for dll in SqlsortDll::ALL {
        println!(
            "  {dll}: intended b = {SLAMMER_SEED_XOR:#010x}, shipped b = {:#010x}",
            dll.increment()
        );
    }

    println!("\n== Cycle decomposition (Fig 3c) ==");
    let bands = slammer::cycle_bands(SqlsortDll::Gold);
    let total_cycles: u64 = bands.iter().map(|b| b.num_cycles).sum();
    println!("  {total_cycles} cycles total; per valuation band:");
    for band in bands.iter().take(8) {
        println!(
            "    v={:2}: {} cycle(s) of period {}",
            band.valuation, band.num_cycles, band.cycle_length
        );
    }
    println!(
        "    … down to {} period-1 fixed points",
        bands
            .iter()
            .filter(|b| b.cycle_length == 1)
            .map(|b| b.num_cycles)
            .sum::<u64>()
    );

    println!("\n== A short-cycle instance is a targeted DoS ==");
    let map = AffineMap::slammer(SqlsortDll::Gold);
    let fixed = map.fixed_point().expect("4 | b");
    let seed = fixed.wrapping_add(1 << 28); // period-4 cycle
    let mut worm = SlammerScanner::new(SqlsortDll::Gold, seed);
    let targets: std::collections::BTreeSet<_> = (0..1000).map(|_| worm.next_target()).collect();
    println!(
        "  seed {seed:#010x} → {} distinct targets over 1000 probes:",
        targets.len()
    );
    for t in &targets {
        println!("    {t}");
    }

    println!("\n== Block traversal asymmetry (the H deficit) ==");
    let blocks: Vec<_> = ims_deployment()
        .into_iter()
        .filter(|b| ["D", "H", "I"].contains(&b.label()))
        .collect();
    for (label, sum) in slammer::block_cycle_length_sums(&blocks) {
        println!("  block {label}: Σ traversing cycle lengths = {sum:.2} ×2^26");
    }

    println!("\n== Aggregate observation (Fig 2, reduced scale) ==");
    let study = slammer::SlammerStudy {
        hosts: 30_000,
        m_block_filter: true,
        rng_seed: 1,
    };
    let blocks = ims_deployment();
    let unique = slammer::unique_sources_per_block(&study, &blocks);
    let rows = slammer::sources_by_block(&study, &blocks);
    println!(
        "  {:>5} {:>15} {:>22}",
        "block", "unique sources", "mean sources per /24"
    );
    for (label, total) in unique {
        let block = blocks.by_label(&label).expect("label");
        let per_row: Vec<u64> = rows
            .iter()
            .filter(|r| r.block == label)
            .map(|r| r.unique_sources)
            .collect();
        let mean = per_row.iter().sum::<u64>() as f64 / per_row.len() as f64;
        let _ = block;
        println!("  {label:>5} {total:>15} {mean:>22.0}");
    }
    println!("  (M is dark: its upstream filters UDP/1434; H trails D and I per /24)");
    report
        .config("hosts", study.hosts)
        .config("m_block_filter", study.m_block_filter)
        .add_population(study.hosts as u64);
    if let Err(e) = report.try_emit() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
