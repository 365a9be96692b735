//! One micro-bench per paper table/figure: a scaled-down version of each
//! regeneration pipeline, so regressions in any experiment path show up
//! in `cargo bench`. (The full-scale regenerations are the
//! `hotspots-experiments` binaries.)

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hotspots::scenarios::{blaster, codered, detection, filtering, slammer};
use hotspots_botnet::corpus;
use hotspots_ipspace::{ims_deployment, Ip};
use hotspots_prng::SqlsortDll;

fn tables(c: &mut Criterion) {
    let mut group = c.benchmark_group("tables");
    group.sample_size(10);
    group.bench_function("table1_parse_and_extract", |b| {
        b.iter(|| {
            let cmds = corpus::table1();
            black_box(corpus::hit_list_report(
                &cmds,
                Ip::from_octets(141, 20, 0, 1),
            ))
        });
    });
    group.bench_function("table2_filtering_micro", |b| {
        let study = filtering::FilteringStudy {
            infected_per_enterprise: 10,
            infected_per_isp: 40,
            probes_per_host: 500,
            ..filtering::FilteringStudy::default()
        };
        b.iter(|| black_box(filtering::table2(&study)));
    });
    group.finish();
}

fn figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures");
    group.sample_size(10);
    group.bench_function("fig1_blaster_micro", |b| {
        let study = blaster::BlasterStudy {
            hosts: 1_000,
            window_secs: 86_400.0,
            ..blaster::BlasterStudy::default()
        };
        b.iter(|| black_box(blaster::sources_by_block(&study)));
    });
    group.bench_function("fig2_slammer_micro", |b| {
        let study = slammer::SlammerStudy {
            hosts: 2_000,
            ..slammer::SlammerStudy::default()
        }
        .with_m_block_filter();
        b.iter(|| black_box(slammer::sources_by_block(&study)));
    });
    group.bench_function("fig3_host_histogram_micro", |b| {
        let blocks = ims_deployment();
        let seed = Ip::from_octets(96, 1, 2, 3).to_le_state();
        b.iter(|| {
            black_box(slammer::host_histogram(
                SqlsortDll::Gold,
                seed,
                50_000,
                &blocks,
            ))
        });
    });
    group.bench_function("fig3c_cycle_bands", |b| {
        b.iter(|| black_box(slammer::cycle_bands(SqlsortDll::Sp2)));
    });
    group.bench_function("fig4_quarantine_micro", |b| {
        let blocks = ims_deployment();
        b.iter(|| {
            black_box(codered::quarantine_run(
                Ip::from_octets(192, 168, 0, 100),
                100_000,
                &blocks,
                4,
            ))
        });
    });
    group.bench_function("fig5a_hitlist_micro", |b| {
        let study = detection::DetectionStudy {
            population: 1_000,
            slash8s: 8,
            max_time: 500.0,
            stop_at_fraction: 0.8,
            ..detection::DetectionStudy::default()
        };
        b.iter(|| black_box(detection::hitlist_run(&study, Some(3))));
    });
    group.bench_function("fig5c_nat_micro", |b| {
        let study = detection::DetectionStudy {
            population: 1_000,
            slash8s: 8,
            max_time: 500.0,
            stop_at_fraction: 0.8,
            ..detection::DetectionStudy::default()
        };
        b.iter(|| {
            black_box(detection::nat_run(
                &study,
                0.15,
                detection::Placement::Inside192,
                detection::NatTopology::Shared,
            ))
        });
    });
    group.finish();
}

criterion_group!(benches, tables, figures);
criterion_main!(benches);
