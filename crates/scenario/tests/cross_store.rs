//! Cross-store determinism: the dense and compressed population stores
//! must produce bit-identical outbreaks — same infection log (hosts,
//! times and order), same ledger, same curve — on every cross-mode
//! preset and at every thread count.
//!
//! Host ids are the population's RNG-stream keys, so the comparison
//! fixes one canonical id assignment (sorted public addresses first,
//! then private hosts in input order — the compressed store's native
//! layout) and builds *both* stores from it via
//! [`hotspots_sim::canonical_parts`]. Any divergence between the stores'
//! `find_public` / `find_private` / `locus` answers shows up as a
//! different outbreak.

use hotspots_netmodel::Locus;
use hotspots_scenario::{find_preset, presets, Scale, ScenarioSpec};
use hotspots_sim::{canonical_parts, Engine, NullObserver, Population, SimResult};

/// Runs `spec` with its population rebuilt in canonical order on the
/// chosen store.
fn run_store(spec: &ScenarioSpec, threads: usize, compressed: bool) -> SimResult {
    let mut built = spec.build().expect("cross-store specs build");
    built.config.threads = threads;
    let loci: Vec<Locus> = (0..built.population.len())
        .map(|i| built.population.locus(i))
        .collect();
    let (public, private) = canonical_parts(&loci);
    let population = if compressed {
        Population::try_compressed_from_parts(&public, private.iter().copied())
            .expect("canonical parts feed the compressed store")
    } else {
        Population::try_from_loci(
            public.iter().copied().map(Locus::Public).chain(
                private
                    .iter()
                    .map(|&(realm, ip)| Locus::Private { realm, ip }),
            ),
        )
        .expect("canonical loci feed the dense store")
    };
    assert_eq!(
        population.store_bytes(),
        Population::try_compressed_from_parts(&public, private.iter().copied())
            .expect("canonical parts feed the compressed store")
            .store_bytes()
    );
    let mut engine = Engine::new(built.config, population, built.environment, built.worm);
    engine.run(&mut NullObserver)
}

fn assert_stores_identical(spec: &ScenarioSpec, label: &str) {
    for threads in [1, 2, 4, 64] {
        let dense = run_store(spec, threads, false);
        let compressed = run_store(spec, threads, true);
        assert!(dense.probes_sent > 0, "{label}: run emitted no probes");
        assert_eq!(
            dense.infections, compressed.infections,
            "{label}: infection logs diverge across stores at {threads} threads"
        );
        assert_eq!(
            dense.probes_sent, compressed.probes_sent,
            "{label}: probe count diverges across stores at {threads} threads"
        );
        assert_eq!(
            dense.ledger, compressed.ledger,
            "{label}: ledger diverges across stores at {threads} threads"
        );
        assert_eq!(dense.infected, compressed.infected, "{label} @ {threads}");
        assert_eq!(dense.removed, compressed.removed, "{label} @ {threads}");
        assert_eq!(dense.elapsed, compressed.elapsed, "{label} @ {threads}");
        let dense_curve: Vec<(f64, f64)> = dense.infection_curve.iter().collect();
        let compressed_curve: Vec<(f64, f64)> = compressed.infection_curve.iter().collect();
        assert_eq!(
            dense_curve, compressed_curve,
            "{label}: infection curve diverges across stores at {threads} threads"
        );
    }
}

/// Every cross-mode preset — uniform, Blaster + loss, Slammer +
/// dispersion, CodeRedII + NAT realms, hit-list, latency + removal, and
/// both fault schedules — at threads 1/2/4/64 on both stores.
#[test]
fn every_cross_mode_preset_is_store_invariant() {
    let mut covered = 0;
    for preset in presets() {
        if preset.family != "cross-mode" {
            continue;
        }
        covered += 1;
        assert_stores_identical(&preset.spec(Scale::Quick), preset.name);
    }
    assert!(
        covered >= 8,
        "expected the full xmode family, got {covered}"
    );
}

/// The Zipf population the million-host presets use, shrunk to a size
/// the debug-mode suite can run at every thread count: the run must not
/// depend on which store the spec's `store` knob picked.
#[test]
fn zipf_population_is_store_invariant() {
    let mut spec = find_preset("bench-million")
        .expect("registered preset")
        .spec(Scale::Quick);
    let Some(hotspots_scenario::PopSpec::Zipf { size, .. }) = &mut spec.population else {
        panic!("bench-million must carry a zipf population");
    };
    *size = 30_000;
    spec.sim.max_time = 10.0;
    assert_stores_identical(&spec, "bench-million@30k");
}

/// The spec-level `store` knob itself: building `bench-million` as-is
/// yields the compressed store, and flipping the knob to dense yields
/// the identical outbreak.
#[test]
fn store_knob_selects_equivalent_stores() {
    let mut spec = find_preset("bench-million")
        .expect("registered preset")
        .spec(Scale::Quick);
    let Some(hotspots_scenario::PopSpec::Zipf { size, .. }) = &mut spec.population else {
        panic!("bench-million must carry a zipf population");
    };
    *size = 20_000;
    spec.sim.max_time = 10.0;
    let compressed = spec.build().expect("builds compressed");

    let Some(hotspots_scenario::PopSpec::Zipf { store, .. }) = &mut spec.population else {
        unreachable!()
    };
    *store = "dense".to_owned();
    let dense = spec.build().expect("builds dense");
    assert_eq!(
        dense.population.store_bytes(),
        compressed.population.store_bytes()
    );

    // same addresses, same ids, either way
    assert_eq!(dense.population.len(), compressed.population.len());
    for i in 0..dense.population.len() {
        assert_eq!(dense.population.locus(i), compressed.population.locus(i));
    }
}
