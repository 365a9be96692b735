//! Placement sensitivity: the reproduction's conclusions must not hinge
//! on the default synthetic sensor bases (DESIGN.md §2's promise).
//!
//! Each case study reruns over several randomized IMS-like deployments
//! (same block sizes; random disjoint routable bases; M structurally
//! inside 192/8).

use hotspots::scenarios::{blaster, codered, slammer, totals_by_block, CoverageRow};
use hotspots_ipspace::{random_ims_deployment, AddressBlock};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn per_slash24_rates(
    rows: &[CoverageRow],
    blocks: &[AddressBlock],
) -> std::collections::HashMap<String, f64> {
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
fn codered_m_spike_survives_random_placement() {
    // The NAT hotspot is a topology fact: wherever the M-labelled /22
    // lands inside public 192/8, it must spike relative to the other
    // small blocks.
    let mut rng = StdRng::seed_from_u64(0x5e15);
    let mut spikes = 0;
    let trials = 4;
    for trial in 0..trials {
        let blocks = random_ims_deployment(&mut rng);
        let study = codered::CodeRedStudy {
            hosts: 1_200,
            nat_fraction: 0.15,
            probes_per_host: 8_000,
            rng_seed: 100 + trial,
        };
        let (rows, _) = codered::sources_by_block(&study, &blocks).expect("public hosts");
        let rates = per_slash24_rates(&rows, &blocks);
        let background: f64 = ["A", "B", "C", "D", "E", "F", "H", "I"]
            .iter()
            .map(|l| rates[*l])
            .sum::<f64>()
            / 8.0;
        if rates["M"] > 3.0 * background.max(0.05) {
            spikes += 1;
        }
    }
    assert!(
        spikes >= trials - 1,
        "M spiked in only {spikes}/{trials} random placements"
    );
}

#[test]
fn slammer_nonuniformity_survives_random_placement() {
    // The cycle structure guarantees *some* blocks see far fewer unique
    // sources per /24 than others, whatever the placement: the spread
    // (max/min rate across same-deployment blocks) stays large.
    let mut rng = StdRng::seed_from_u64(0x5e16);
    for trial in 0..3 {
        let blocks = random_ims_deployment(&mut rng);
        let study = slammer::SlammerStudy {
            hosts: 10_000,
            rng_seed: 200 + trial,
            ..slammer::SlammerStudy::default()
        };
        let rows = slammer::sources_by_block(&study, &blocks);
        let rates = per_slash24_rates(&rows, &blocks);
        // compare the small (non-Z) blocks on equal footing
        let small: Vec<f64> = rates
            .iter()
            .filter(|(l, _)| l.as_str() != "Z")
            .map(|(_, &r)| r)
            .collect();
        let max = small.iter().cloned().fold(f64::MIN, f64::max);
        let min = small.iter().cloned().fold(f64::MAX, f64::min).max(1.0);
        assert!(
            max / min >= 1.5,
            "trial {trial}: Slammer per-/24 rates suspiciously even \
             (max {max}, min {min}) — the cycle structure should spread them"
        );
    }
}

#[test]
fn blaster_seed_correlation_survives_random_placement() {
    // Whatever /24s the sensors monitor, the hottest rows must be
    // explained by boot-band seeds more than the coldest rows.
    let mut rng = StdRng::seed_from_u64(0x5e17);
    let blocks = random_ims_deployment(&mut rng);
    let study = blaster::BlasterStudy {
        hosts: 6_000,
        window_secs: 7.0 * 24.0 * 3600.0,
        scan_rate: 11.0,
        reboot_fraction: 0.5,
        rng_seed: 300,
    };
    let rows = blaster::sources_by_block(&study, &blocks);
    let hosts = blaster::draw_hosts(&study);
    let mut sorted: Vec<&CoverageRow> = rows.iter().filter(|r| r.prefix.len() == 24).collect();
    sorted.sort_by_key(|r| std::cmp::Reverse(r.unique_sources));
    let boot_band_share = |row: &CoverageRow| -> f64 {
        let covering: Vec<u32> = hosts
            .iter()
            .filter(|h| {
                hotspots::seed_inference::scan_covers(h.start, study.scan_len(), row.prefix)
            })
            .map(|h| h.tick)
            .collect();
        if covering.is_empty() {
            return 0.0;
        }
        covering
            .iter()
            .filter(|&&t| (25_000..=35_000).contains(&t))
            .count() as f64
            / covering.len() as f64
    };
    let hot = boot_band_share(sorted[0]);
    let cold = boot_band_share(sorted.last().expect("rows exist"));
    assert!(
        hot > cold + 0.1,
        "hot rows not better explained by boot-band seeds: hot {hot} vs cold {cold}"
    );
}
