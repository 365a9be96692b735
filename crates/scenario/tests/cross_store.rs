//! The `population.store` knob: every population is numbered the same
//! way (sorted public addresses first, then NATed hosts in input
//! order), so both accepted values must build the identical
//! population, NAT'd hosts included.

use hotspots_scenario::spec::NatSpec;
use hotspots_scenario::{find_preset, Scale};

/// The spec-level `store` knob itself: building `bench-million` as-is
/// and with the knob flipped to dense yields the identical population,
/// with a shared NAT realm interleaving private hosts.
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
    spec.environment.nat = Some(NatSpec {
        fraction: 0.15,
        topology: "shared".to_owned(),
        seed: 5,
    });
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
