//! End-to-end integration tests: each paper case study at reduced scale,
//! exercised through the public APIs of every crate in the stack.

use hotspots::scenarios::{blaster, codered, detection, filtering, slammer, totals_by_block};
use hotspots::HotspotReport;
use hotspots_botnet::corpus;
use hotspots_ipspace::{ims_deployment, Ip};
use hotspots_netmodel::OrgKind;
use hotspots_prng::SqlsortDll;

fn per_slash24_rates(rows: &[hotspots::scenarios::CoverageRow]) -> Vec<(String, f64)> {
    let blocks = ims_deployment();
    totals_by_block(rows)
        .into_iter()
        .map(|(label, total)| {
            let block = blocks.iter().find(|b| b.label() == label).expect("label");
            let slash24s = (block.size() / 256).max(1) as f64;
            (label, total as f64 / slash24s)
        })
        .collect()
}

#[test]
fn table1_bot_commands_restrict_ranges() {
    let commands = corpus::table1();
    let report = corpus::hit_list_report(&commands, Ip::from_octets(141, 20, 9, 9));
    assert_eq!(report.len(), 16);
    let restricted = report
        .iter()
        .filter(|(_, _, size)| *size < (1u64 << 32))
        .count();
    assert!(restricted >= 8, "most bot commands carry hit-lists");
}

#[test]
fn fig1_blaster_pipeline_produces_hotspots_with_plausible_seeds() {
    let study = blaster::BlasterStudy {
        hosts: 4_000,
        window_secs: 7.0 * 24.0 * 3600.0,
        scan_rate: 11.0,
        reboot_fraction: 0.5,
        rng_seed: 2024,
    };
    let rows = blaster::sources_by_block(&study, &ims_deployment());
    // equal-size /24 rows only: interval coverage does not scale with
    // cell size, so the /16 Z rows follow a different null
    let counts: Vec<u64> = rows
        .iter()
        .filter(|r| r.prefix.len() == 24)
        .map(|r| r.unique_sources)
        .collect();
    assert!(HotspotReport::from_counts(&counts).is_hotspot());

    // forensics: take the hottest /24 row and check that candidate seeds
    // exist and imply plausible boot times (the paper's correlation)
    let hottest = rows
        .iter()
        .max_by_key(|r| r.unique_sources)
        .expect("rows are non-empty");
    let summary = hotspots::seed_inference::summarize_block(
        60_000..1_200_000, // 1..20 minutes of uptime
        Ip::from_octets(7, 7, 7, 7),
        study.scan_len(),
        hottest.prefix,
    );
    assert!(summary.candidates > 0, "no seeds explain the hottest row");
    assert!(
        summary.plausible_fraction > 0.9,
        "hot-row seeds imply implausible boot times"
    );
}

#[test]
fn fig2_slammer_pipeline_h_deficit_and_m_dark() {
    let study = slammer::SlammerStudy {
        hosts: 12_000,
        m_block_filter: true,
        rng_seed: 5,
    };
    let rows = slammer::sources_by_block(&study, &ims_deployment());
    let rates: std::collections::HashMap<String, f64> =
        per_slash24_rates(&rows).into_iter().collect();
    assert_eq!(rates["M"], 0.0, "upstream-filtered M must be dark");
    assert!(rates["H"] < 0.8 * rates["D"]);
    assert!(rates["H"] < 0.8 * rates["I"]);
}

#[test]
fn fig3_per_host_slammer_variance() {
    // Host A: a seed whose cycle misses most of the telescope.
    // Host B: a seed on the Z-block cycle, hammering it.
    let blocks = ims_deployment();
    let z_seed = Ip::from_octets(96, 1, 2, 3).to_le_state();
    let (host_b, _) = slammer::host_histogram(SqlsortDll::Gold, z_seed, 100_000, &blocks);
    assert!(
        host_b.total() > 30_000,
        "Z-cycle host should pour probes into the telescope, saw {}",
        host_b.total()
    );
    // a short-cycle host: nearly nothing reaches the telescope
    let map = hotspots_prng::cycles::AffineMap::slammer(SqlsortDll::Gold);
    let short_seed = map
        .fixed_point()
        .expect("fixed point exists")
        .wrapping_add(1 << 28);
    let (host_a, _) = slammer::host_histogram(SqlsortDll::Gold, short_seed, 100_000, &blocks);
    assert!(
        host_a.total() < host_b.total() / 100,
        "short-cycle host ({}) should see orders of magnitude less than \
         the Z-cycle host ({})",
        host_a.total(),
        host_b.total()
    );
}

#[test]
fn fig4_codered_nat_hotspot_at_m() {
    let study = codered::CodeRedStudy {
        hosts: 1_200,
        nat_fraction: 0.15,
        probes_per_host: 8_000,
        rng_seed: 31,
    };
    let (rows, _) = codered::sources_by_block(&study, &ims_deployment()).expect("public hosts");
    let rates: std::collections::HashMap<String, f64> =
        per_slash24_rates(&rows).into_iter().collect();
    let background: f64 = ["A", "C", "D", "E", "F", "H", "I"]
        .iter()
        .map(|l| rates[*l])
        .sum::<f64>()
        / 7.0;
    assert!(
        rates["M"] > 5.0 * background.max(0.05),
        "M rate {} vs background {}",
        rates["M"],
        background
    );
}

#[test]
fn fig5_detection_gap_and_placement() {
    let study = detection::DetectionStudy {
        population: 2_000,
        slash8s: 10,
        paper_profile: false,
        seeds: 10,
        scan_rate: 25.0,
        alert_threshold: 5,
        max_time: 2_000.0,
        stop_at_fraction: 0.9,
        rng_seed: 12,
    };
    // (a)+(b): a narrow hit-list infects its coverage but leaves most
    // sensors silent
    let run = detection::hitlist_run(&study, Some(2)).expect("seeds fit the population");
    assert!(run.result.infected_fraction() >= 0.8 * run.coverage);
    assert!(
        (run.sensors_alerted as f64) < 0.5 * run.sensors as f64,
        "{}/{} sensors alerted",
        run.sensors_alerted,
        run.sensors
    );
    // (c): hotspot-aware placement dominates random placement
    let shared = detection::NatTopology::Shared;
    let random = detection::Placement::Random { sensors: 250 };
    let random = detection::nat_run(&study, 0.25, random, shared).expect("NATed hosts fit");
    let inside = detection::nat_run(&study, 0.25, detection::Placement::Inside192, shared)
        .expect("NATed hosts fit");
    assert!(inside.alerted_at_20pct_infected > random.alerted_at_20pct_infected);
}

#[test]
fn table2_filtering_asymmetry() {
    let study = filtering::FilteringStudy {
        infected_per_enterprise: 40,
        infected_per_isp: 150,
        probes_per_host: 2_500,
        blaster_scan_len: (30.0 * 24.0 * 3600.0 * 11.0) as u64,
        rng_seed: 9,
    };
    let (rows, _) = filtering::table2(&study);
    for row in rows {
        match row.kind {
            OrgKind::Enterprise => {
                assert_eq!(
                    row.crii_observed + row.slammer_observed + row.blaster_observed,
                    0
                );
            }
            _ => {
                assert!(
                    row.crii_observed + row.slammer_observed + row.blaster_observed > 0,
                    "{} shows no infections at all",
                    row.org
                );
            }
        }
    }
}

#[test]
fn uniform_worm_is_the_null_model() {
    // The baseline sanity check behind every claim above: uniform
    // scanning observed at figure granularity stays consistent with the
    // weighted uniform null.
    use hotspots_prng::SplitMix;
    use hotspots_targeting::{TargetGenerator, UniformScanner};
    use hotspots_telescope::BlockIndex;

    let cells = hotspots::scenarios::figure_buckets(&ims_deployment());
    let index = BlockIndex::new(cells.iter().map(|(_, p)| *p).collect());
    let mut counts = vec![0u64; cells.len()];
    let mut worm = UniformScanner::new(SplitMix::new(2));
    for _ in 0..2_000_000 {
        if let Some(i) = index.find(worm.next_target()) {
            counts[i] += 1;
        }
    }
    let weights: Vec<f64> = cells.iter().map(|(_, p)| p.size() as f64).collect();
    let report = HotspotReport::from_weighted_counts(&counts, &weights);
    assert!(!report.is_hotspot(), "{report}");
}
