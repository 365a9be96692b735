//! A botnet campaign end-to-end: captured command → drone scanning →
//! what the telescope does (and doesn't) see.
//!
//! The paper's Table 1 commands restrict drones to chosen subnets. This
//! example extracts a command from a noisy IRC capture, describes the
//! whole campaign as a declarative [`ScenarioSpec`] — the bot worm, the
//! half-in/half-out population, the sensor field — and runs it through
//! the same [`run_spec`] path as the `hotspots` CLI. The detection
//! consequence: the hit-list confines all probe traffic, so only sensors
//! inside the targeted range ever see anything — the algorithmic hotspot
//! in its most deliberate form.
//!
//! Run with: `cargo run --release --example bot_campaign`

use hotspots_botnet::log_scanner;
use hotspots_ipspace::Ip;
use hotspots_scenario::spec::{PlacementSpec, PopSpec, SimSpec, TelescopeSpec, WormSpec};
use hotspots_scenario::{run_spec, Outcome, RunContext, ScenarioSpec};

fn main() {
    // 1. "Capture" the controller's channel and extract the command.
    let capture = [
        "PING :irc.backbone.example".to_owned(),
        ":dr0ne7!u@h JOIN ##rbot".to_owned(),
        ":b0ss!u@h PRIVMSG ##rbot :.advscan dcom2 150 3 0 -r -s".to_owned(),
        ":b0ss!u@h PRIVMSG ##rbot :ipscan 20.40.x.x dcom2 -s".to_owned(),
    ];
    let hits = log_scanner::scan_lines(capture);
    println!("extracted {} command(s) from the capture:", hits.len());
    for hit in &hits {
        println!("  line {}: {}", hit.line, hit.command);
    }
    let command = hits
        .last()
        .expect("capture contains commands")
        .command
        .to_string();
    println!("\nrunning the campaign for: {command}\n");

    // 2. A vulnerable population: half inside the targeted 20.40/16
    //    (an academic-network-style cluster), half elsewhere.
    let addrs: Vec<String> = (0..1_500u32)
        .flat_map(|i| {
            [
                Ip::new(0x1428_0000 | (i * 7 % 0x1_0000)), // 20.40.x.x
                Ip::new(0x3700_0000 | (i * 7 % 0x1_0000)), // 55.0.x.x
            ]
        })
        .map(|ip| ip.to_string())
        .collect();

    // 3. The campaign as a spec: bot worm, explicit hosts, sensors
    //    inside and outside the targeted range.
    let sensors: Vec<String> = (0..8u32)
        .map(|i| format!("20.40.{}.0/24", 1 + i * 31))
        .chain((0..8u32).map(|i| format!("55.0.{}.0/24", 1 + i * 31)))
        .collect();
    let mut spec = ScenarioSpec::named("bot-campaign");
    spec.meta.scenario = Some("botnet campaign".to_owned());
    spec.worm = Some(WormSpec::Bot {
        command: command.clone(),
    });
    spec.population = Some(PopSpec::Hosts { addrs });
    spec.telescope = TelescopeSpec::Field {
        placement: PlacementSpec::Prefixes { prefixes: sensors },
        alert_threshold: 5,
        mode: "active".to_owned(),
    };
    spec.sim = SimSpec {
        scan_rate: 20.0,
        seeds: 10,
        max_time: 3_000.0,
        stop_at_fraction: None,
        ..SimSpec::default()
    };

    let mut run = run_spec(&spec, &RunContext::new("bot_campaign")).expect("spec runs");
    let Outcome::Engine { result, field } = &run.outcome else {
        unreachable!("engine-path spec");
    };
    let field = field.as_ref().expect("spec deploys a sensor field");

    // 4. The asymmetry.
    println!(
        "infected {:.1}% of the population ({} probes sent)",
        100.0 * result.infected_fraction(),
        result.probes_sent
    );
    let mut in_range = 0;
    let mut out_of_range = 0;
    for (i, sensor) in field.blocks().iter().enumerate() {
        let alerted = field.alert_time(i).is_some();
        if sensor.base().octets()[0] == 20 {
            // inside the targeted 20.40/16
            in_range += usize::from(alerted);
        } else {
            out_of_range += usize::from(alerted);
        }
    }
    println!("sensors inside 20.40/16 alerted:  {in_range}/8");
    println!("sensors outside the range alerted: {out_of_range}/8");
    println!(
        "\n→ the hit-list confines every probe: hosts outside the range are never \
         infected and\n  out-of-range sensors never alert — a detection \
         system watching anywhere else\n  concludes nothing is happening."
    );

    run.report.config("command", &command);
    if let Err(e) = run.report.try_emit() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
