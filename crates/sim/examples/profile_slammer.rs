//! Ad-hoc phase profile of the Slammer bench workload.

use hotspots_ipspace::Ip;
use hotspots_netmodel::Environment;
use hotspots_sim::{Engine, NullObserver, Population, SimConfig, SlammerWorm};
use hotspots_telemetry::Timer;

fn main() {
    let config = SimConfig {
        scan_rate: 2_000.0,
        seeds: 25,
        dt: 1.0,
        max_time: 300.0,
        stop_at_fraction: None,
        rng_seed: 7,
        ..SimConfig::default()
    };
    let mut engine = Engine::new(
        config,
        Population::from_public((0..5_000u32).map(|i| Ip::new(0x0b00_0000 + i * 37))),
        Environment::new(),
        Box::new(SlammerWorm),
    );
    let start = Timer::start();
    let result = engine.run(&mut NullObserver);
    let secs = start.elapsed().as_secs_f64();
    println!(
        "{} probes in {secs:.3}s = {:.0} probes/sec",
        result.probes_sent,
        result.probes_sent as f64 / secs
    );
    for (name, d, calls) in result.telemetry.phases.iter() {
        println!("  {name:<12} {:.3}s  ({calls} windows)", d.as_secs_f64());
    }
}
