//! The declarative scenario schema.
//!
//! A [`ScenarioSpec`] is a plain data tree describing everything the
//! repository can simulate: the worm targeting model, the network
//! environment (loss, latency, NAT, filtering), the vulnerable
//! population, the telescope deployment, the engine configuration, and
//! — for the paper's figures and tables — a higher-level *study* that
//! encapsulates a whole multi-run experiment. Specs round-trip through
//! TOML and JSON via [`value::Value`], and every deserialization or
//! validation error names the offending field by dotted path.
//!
//! Each table of the schema is written once, as a `walk!` body below:
//! its keys in canonical order, each with the field it fills and the
//! rule it must meet. The reader, writer and checker in `fields` run
//! those bodies for `from_value`, `to_value` and `validate`.

use std::fmt;

use hotspots::scenarios::blaster::BlasterStudy;
use hotspots::scenarios::codered::CodeRedStudy;
use hotspots::scenarios::detection::DetectionStudy;
use hotspots::scenarios::filtering::FilteringStudy;
use hotspots::scenarios::slammer::SlammerStudy;
use hotspots_ipspace::{Ip, Prefix};
use hotspots_netmodel::{FaultEvent, FaultKind, FaultWindow, FilterRule, Proto, Service};
use hotspots_sim::{PopulationError, PAPER_CODERED_HOSTS};
use hotspots_targeting::PreferenceEntry;

use crate::build::spec_usize;
use crate::value::{self, Value};

mod fields;

pub(crate) use fields::unknown;
use fields::{
    any, each, ensure, fraction, grammar, non_empty, non_negative, nonempty_each, nonzero, one_of,
    positive, slash8_count, some, u32_count, walk, Check, Checker, Reader, Section, Step, Walker,
    Writer,
};

/// A rejected spec: which field, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Dotted path of the offending field (`"environment.nat.fraction"`).
    pub field: String,
    /// What was wrong with it.
    pub message: String,
}

impl SpecError {
    /// An error naming `field` by dotted path.
    pub fn new(field: impl Into<String>, message: impl Into<String>) -> SpecError {
        SpecError {
            field: field.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.field, self.message)
    }
}

impl std::error::Error for SpecError {}

/// A complete scenario description.
///
/// Exactly one of two shapes is valid (checked by [`validate`]):
///
/// - **engine path**: `worm` and `population` are set; the spec builds
///   into a single [`Engine`](hotspots_sim::Engine) run.
/// - **study path**: `study` is set; the spec wraps one of the paper's
///   figure/table experiments, which construct their own worms and
///   populations internally.
///
/// [`validate`]: ScenarioSpec::validate
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioSpec {
    /// Identity and report labelling.
    pub meta: MetaSpec,
    /// The worm targeting model (engine path only).
    pub worm: Option<WormSpec>,
    /// The network environment (engine path only). Defaults to a
    /// lossless direct internet.
    pub environment: EnvSpec,
    /// Scheduled environmental faults (engine path only). Defaults to
    /// none.
    pub faults: FaultsSpec,
    /// The vulnerable population (engine path only).
    pub population: Option<PopSpec>,
    /// The telescope deployment observing the outbreak (engine path
    /// only).
    pub telescope: TelescopeSpec,
    /// Engine configuration (engine path only; a study carries its own
    /// timing parameters).
    pub sim: SimSpec,
    /// A figure/table study (study path only).
    pub study: Option<StudySpec>,
    /// An optional parameter sweep over this spec.
    pub sweep: Option<SweepSpec>,
}

/// Identity and report labelling for a scenario.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetaSpec {
    /// Short unique name (`"fig2"`, `"xmode-slammer"`).
    pub name: String,
    /// Scenario label echoed in run reports (defaults to `name`).
    pub scenario: Option<String>,
    /// The paper artifact this reproduces (`"Figure 2"`).
    pub artifact: Option<String>,
    /// Human-readable banner title.
    pub title: Option<String>,
    /// Scale label echoed in run reports (`"quick"` / `"paper"`).
    pub scale: Option<String>,
}

/// The worm targeting model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WormSpec {
    /// Uniform random scanning (Code Red I v2 style), TCP/80.
    Uniform,
    /// Slammer's flawed LCG walk, with per-host `sqlsort.dll` versions.
    Slammer,
    /// CodeRedII's 1/8–4/8–3/8 local-preference scheme.
    CodeRed2,
    /// Blaster's sequential /20 walk seeded from boot-time entropy.
    Blaster {
        /// Hardware generation: `"pentium-ii"`, `"pentium-iii"`,
        /// `"pentium-iv"`.
        hardware: String,
        /// Seed model: `"reboot"` (fresh reboot) or `"population"`
        /// (mixed uptime).
        model: String,
    },
    /// Hit-list scanning over explicit prefixes.
    HitList {
        /// The hit-list prefixes (`"11.0.0.0/12"`).
        prefixes: Vec<String>,
        /// Probed service (`"tcp/80"`); defaults to TCP/80.
        service: Option<String>,
    },
    /// Generalized local preference with an explicit weight table.
    LocalPreference {
        /// Entries as `"<dotted-mask>*<weight>"` (`"255.0.0.0*4"`).
        entries: Vec<String>,
        /// Probed service; defaults to TCP/80.
        service: Option<String>,
    },
    /// A botnet scan command (the paper's command-language factor).
    Bot {
        /// The command in the bot's scan grammar.
        command: String,
    },
}

/// The network environment between infected hosts and their targets.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EnvSpec {
    /// Uniform packet loss rate in `[0, 1]` (`None` = lossless).
    pub loss: Option<f64>,
    /// Filter rules as `"<direction> <prefix> <service>"` strings, e.g.
    /// `"egress 163.37.8.0/22 udp/1434"`; service `"*"` matches any.
    pub filters: Vec<String>,
    /// Propagation delay model (`None` = instantaneous).
    pub latency: Option<LatencySpec>,
    /// NAT deployment over the population (`None` = all public).
    pub nat: Option<NatSpec>,
}

/// Scheduled environmental faults (sensor outages, upstream blackholes,
/// flapping filters, degraded-path windows).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultsSpec {
    /// Schedule entries, one fault each:
    ///
    /// - `"outage <prefix> <t0> <t1>"` — the destination block goes dark;
    /// - `"blackhole <prefix> <t0> <t1>"` — all traffic from or to the
    ///   prefix is discarded upstream;
    /// - `"flap <direction> <prefix> <service> <t0> <t1> <period> <duty>"`
    ///   — a filter rule toggling on a duty cycle (service `"*"` matches
    ///   any);
    /// - `"degraded <prefix> <t0> <t1> <rate>"` — extra Bernoulli loss at
    ///   `rate` for traffic from or to the prefix.
    ///
    /// Windows are half-open `[t0, t1)` in simulation seconds.
    pub schedule: Vec<String>,
}

/// Propagation delay: `base + U(0, jitter)` seconds per probe.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LatencySpec {
    /// Fixed per-probe delay in seconds.
    pub base_secs: f64,
    /// Uniform jitter bound in seconds (default 0).
    pub jitter_secs: f64,
}

/// NAT deployment over an engine-path population.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NatSpec {
    /// Fraction of hosts moved behind NAT, in `[0, 1]`.
    pub fraction: f64,
    /// `"isolated"` (one realm per host) or `"shared"` (hosts pool into
    /// multi-host realms).
    pub topology: String,
    /// RNG seed for selecting which hosts are NATted.
    pub seed: u64,
}

/// The vulnerable population (engine path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PopSpec {
    /// `count` public hosts at `base + i * stride`.
    Range {
        /// First address, dotted quad.
        base: String,
        /// Number of hosts.
        count: u64,
        /// Address increment between consecutive hosts (default 1).
        stride: u64,
    },
    /// The knob-tunable synthetic CodeRedII-style population.
    Synthetic {
        /// Number of hosts.
        size: u64,
        /// Number of occupied /8 networks.
        slash8s: u64,
        /// RNG seed for the draw.
        seed: u64,
    },
    /// The paper-calibrated 134,586-host CodeRedII population.
    Paper {
        /// RNG seed for the draw.
        seed: u64,
    },
    /// Explicit public host addresses (e.g. derived from a capture).
    Hosts {
        /// Dotted-quad addresses; duplicates are collapsed.
        addrs: Vec<String>,
    },
    /// An Internet-scale population: `size` hosts Zipf-distributed over
    /// `slash8s` /8 networks with per-/16 clustering (Chen & Ji's
    /// measured shape). Scales to millions of hosts: the draw comes out
    /// sorted, so it streams straight into the population's `HostSet`.
    Zipf {
        /// Number of hosts (may exceed a million).
        size: u64,
        /// Number of occupied /8 networks.
        slash8s: u64,
        /// RNG seed for the draw.
        seed: u64,
        /// `"compressed"` (default) or `"dense"`. Both build the same
        /// population, numbered canonically (sorted public addresses,
        /// then NATed hosts in draw order); the field is kept because it
        /// is part of the spec schema and its content hash.
        store: String,
    },
}

/// The telescope deployment observing the outbreak.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TelescopeSpec {
    /// No telescope.
    #[default]
    None,
    /// A distributed sensor field with an alert threshold.
    Field {
        /// Where the sensor /24s sit.
        placement: PlacementSpec,
        /// Probes a sensor must see before alerting (default 5).
        alert_threshold: u64,
        /// `"active"` (default) or `"passive"`.
        mode: String,
    },
}

/// Sensor placement for [`TelescopeSpec::Field`]. The default, an
/// empty prefix list, is what a `[telescope]` table reads into before
/// its required `placement` replaces it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementSpec {
    /// Explicit sensor prefixes.
    Prefixes {
        /// The sensor blocks (`"66.66.0.0/24"`).
        prefixes: Vec<String>,
    },
    /// `sensors` random /24s drawn with `seed`.
    Random {
        /// Number of sensor /24s.
        sensors: u64,
        /// RNG seed for the draw.
        seed: u64,
    },
}

impl Default for PlacementSpec {
    fn default() -> PlacementSpec {
        PlacementSpec::Prefixes {
            prefixes: Vec::new(),
        }
    }
}

/// The outbreak's model parameters: the fields of
/// [`hotspots_sim::SimConfig`] that change a result. `stop_at_fraction`
/// defaults to `None` (a spec says so explicitly when it wants early
/// stopping). How a run executes — its thread count and span tracing —
/// is not part of the scenario: it comes from the
/// [`RunContext`](crate::run::RunContext).
#[derive(Debug, Clone, PartialEq)]
pub struct SimSpec {
    /// Mean probes per second per infected host.
    pub scan_rate: f64,
    /// Log-normal dispersion of per-host scan rates.
    pub scan_rate_sigma: f64,
    /// Initial infected host count.
    pub seeds: u64,
    /// Simulation step in seconds.
    pub dt: f64,
    /// Hard stop time in seconds.
    pub max_time: f64,
    /// Optional early stop at this ever-infected fraction.
    pub stop_at_fraction: Option<f64>,
    /// Removal (patching) rate per second.
    pub removal_rate: f64,
    /// Master seed.
    pub rng_seed: u64,
}

impl Default for SimSpec {
    fn default() -> SimSpec {
        SimSpec {
            scan_rate: 10.0,
            scan_rate_sigma: 0.0,
            seeds: 25,
            dt: 1.0,
            max_time: 10_000.0,
            stop_at_fraction: None,
            removal_rate: 0.0,
            rng_seed: 0x4d53_2006,
        }
    }
}

/// Default seed of Figure 4's quarantine traces.
pub(crate) const QUARANTINE_SEED: u64 = 4;
/// Default share of Figure 5(c)'s population behind NAT.
pub(crate) const NAT_DETECTION_FRACTION: f64 = 0.15;
/// Default `k` of Figure 5(c)'s top-/8s sensor placement.
pub(crate) const TOP_K_SLASH8S: u64 = 20;
/// Default seed of Table 1's synthetic command corpus.
pub(crate) const CORPUS_SEED: u64 = 0x7ab1e;
/// Default master seed of the sensitivity suite's deployment draws.
pub(crate) const SENSITIVITY_SEED: u64 = 0x5ee0;

/// A figure/table study: a whole multi-run experiment as data. The
/// paper studies carry their core parameter structs, so a `[study]`
/// key left out takes the struct's `Default`.
#[derive(Debug, Clone, PartialEq)]
pub enum StudySpec {
    /// Figure 1: Blaster scan coverage by monitored block.
    BlasterCoverage(BlasterStudy),
    /// Figure 2: Slammer scan density per monitored /24.
    SlammerCoverage(SlammerStudy),
    /// Figure 3: two individual Slammer hosts' probe footprints.
    SlammerHosts {
        /// Probes drawn per host.
        probes_per_host: u64,
    },
    /// Figure 4: CodeRedII sources under NAT, plus the two quarantined
    /// host traces.
    CodeRedNat {
        /// The mixed-population study behind Figure 4(a).
        study: CodeRedStudy,
        /// Quarantine trace length for the public host.
        quarantine_probes_public: u64,
        /// Quarantine trace length for the NATted host.
        quarantine_probes_natted: u64,
        /// Seed for the quarantine traces.
        quarantine_seed: u64,
    },
    /// Figures 5a and 5b: infection speed and telescope alert speed vs
    /// hit-list size, both read from one set of runs.
    HitList {
        /// The detection study each hit-list run shares.
        detection: DetectionStudy,
        /// Hit-list sizes; `None` (TOML `"full"`) = the whole population.
        sizes: Vec<Option<u64>>,
    },
    /// Figure 5c: sensor placement vs NAT-heavy populations.
    NatDetection {
        /// The detection study each placement run shares.
        detection: DetectionStudy,
        /// Fraction of hosts behind NAT.
        nat_fraction: f64,
        /// Sensor count for the random/top-k placements.
        sensors: u64,
        /// `k` for the top-/8s placement.
        top_k_slash8s: u64,
    },
    /// Table 1: bot command-language hit-list audit.
    BotCommands {
        /// Synthetic commands to generate on top of the fixed corpus.
        synthetic_commands: u64,
        /// Seed for the synthetic corpus draw.
        corpus_seed: u64,
        /// The drone's own address, dotted quad.
        drone: String,
    },
    /// Table 2: egress/upstream filtering at enterprise vs ISP scale.
    Filtering(FilteringStudy),
    /// The ablation suite: NAT topology, sensor mode, reboot fraction.
    Ablations {
        /// Population for the NAT-topology ablation.
        nat_population: u64,
        /// Stop time for the NAT-topology ablation.
        nat_max_time: f64,
        /// Population for the sensor-mode ablation.
        sensor_hosts: u64,
        /// Stop time for the sensor-mode ablation.
        sensor_max_time: f64,
        /// Population for the reboot-fraction ablation.
        reboot_hosts: u64,
    },
    /// Sensitivity of the hotspot findings to telescope placement.
    Sensitivity {
        /// Randomized deployments per worm.
        trials: u64,
        /// CodeRed hosts per trial.
        codered_hosts: u64,
        /// CodeRed probes per host per trial.
        codered_probes_per_host: u64,
        /// Slammer hosts per trial.
        slammer_hosts: u64,
        /// Master seed for deployment draws.
        rng_seed: u64,
    },
}

/// A parameter sweep: rerun the scenario once per value with the dotted
/// `param` path overridden.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepSpec {
    /// Dotted path into the spec (`"sim.scan_rate"`).
    pub param: String,
    /// The values to substitute, in order.
    pub values: Vec<Value>,
}

// ---------------------------------------------------------------------------
// Table-specific rules and cross-field checks
// ---------------------------------------------------------------------------

/// At least one hit-list size, and none zero.
fn hit_list_sizes<T: AsRef<[Option<u64>]>>(sizes: &T) -> Check {
    non_empty(sizes)?;
    match sizes.as_ref().iter().position(|s| *s == Some(0)) {
        Some(i) => Err(SpecError::new(format!("[{i}]"), "must be positive")),
        None => Ok(()),
    }
}

/// The sensor-mode ablation hosts are distinct addresses in one /16.
fn one_slash16(hosts: &u64) -> Check {
    nonzero(hosts)?;
    let message = format_args!("{hosts} exceeds the 65536 addresses of one /16");
    ensure(*hosts <= 1 << 16, "", message)
}

/// Rejects more seed hosts than the population holds, in the engine's
/// own words, before anything runs.
fn check_seeds(field: &str, seeds: usize, hosts: usize) -> Check {
    let e = PopulationError::FewerHostsThanSeeds { hosts, seeds };
    ensure(seeds <= hosts, field, format_args!("{e}"))
}

fn latency_sign(lat: &LatencySpec) -> Check {
    let ok = lat.base_secs >= 0.0 && lat.jitter_secs >= 0.0;
    ensure(ok, "", format_args!("delays must be non-negative"))
}

/// Each /8 holds at most 2^24 addresses.
fn zipf_capacity(size: u64, n: u64) -> Check {
    let message = format_args!("{size} hosts exceed the capacity of {n} /8s");
    ensure(size <= n << 24, ".size", message)
}

/// Both Figure 5(c) placements need `sensors` disjoint /24s. The top-k
/// one draws them from at most k of the population's /8s (the random
/// one from all routable space, which is larger).
fn sensor_capacity(detection: &DetectionStudy, sensors: u64, top_k: u64) -> Check {
    let occupied = if detection.paper_profile {
        hotspots_sim::PAPER_CODERED_SLASH8S
    } else {
        detection.slash8s
    };
    let k = top_k.min(occupied as u64);
    let capacity = k << 16;
    let message = format_args!("{sensors} exceeds the {capacity} disjoint /24s of the top {k} /8s");
    ensure(sensors <= capacity, ".sensors", message)
}

/// The NAT-topology outbreaks seed `DetectionStudy`'s default count; the
/// sensor-mode ones seed `ABLATION_SENSOR_SEEDS`.
fn ablation_seeds(nat_population: u64, sensor_hosts: u64) -> Check {
    let hosts = |n: u64| usize::try_from(n).unwrap_or(usize::MAX);
    let nat_seeds = DetectionStudy::default().seeds;
    check_seeds(".nat_population", nat_seeds, hosts(nat_population))?;
    let sensor_seeds = crate::run::ABLATION_SENSOR_SEEDS;
    check_seeds(".sensor_hosts", sensor_seeds, hosts(sensor_hosts))
}

impl PopSpec {
    /// The number of distinct hosts the population states.
    fn hosts(&self) -> Result<usize, SpecError> {
        match self {
            PopSpec::Range { count, .. } => spec_usize("population.count", *count),
            PopSpec::Synthetic { size, .. } | PopSpec::Zipf { size, .. } => {
                spec_usize("population.size", *size)
            }
            PopSpec::Paper { .. } => Ok(PAPER_CODERED_HOSTS),
            PopSpec::Hosts { addrs } => parse_hosts(addrs).map(|ips| ips.len()),
        }
    }
}

/// Parses [`PopSpec::Hosts`] addresses, sorted, duplicates collapsed.
pub(crate) fn parse_hosts(addrs: &[String]) -> Result<Vec<Ip>, SpecError> {
    let parse = |a: &String| parse_ip("population.addrs", a);
    let mut ips = addrs.iter().map(parse).collect::<Result<Vec<Ip>, _>>()?;
    ips.sort_unstable();
    ips.dedup();
    Ok(ips)
}

// ---------------------------------------------------------------------------
// The schema: one walk per table, with its kind table for an enum
// ---------------------------------------------------------------------------

walk! { MetaSpec, |meta, w| {
    let MetaSpec { name, scenario, artifact, title, scale } = meta;
    w.req("name", name, non_empty)?;
    w.field("scenario", scenario, any)?;
    w.field("artifact", artifact, any)?;
    w.field("title", title, any)?;
    w.field("scale", scale, any)
}}

walk! { WormSpec: "worm kind", listed = true, |w| {
    "uniform" => Uniform {} => Ok(()),
    "slammer" => Slammer {} => Ok(()),
    "codered2" => CodeRed2 {} => Ok(()),
    "blaster" => Blaster { hardware, model } => {
        let generations = &["pentium-ii", "pentium-iii", "pentium-iv"];
        w.req("hardware", hardware, one_of("generation", generations))?;
        w.req("model", model, one_of("seed model", &["reboot", "population"]))
    },
    "hit-list" => HitList { prefixes, service } => {
        w.field("prefixes", prefixes, nonempty_each(parse_prefix))?;
        w.field("service", service, some(grammar(parse_service)))
    },
    "local-preference" => LocalPreference { entries, service } => {
        w.field("entries", entries, nonempty_each(parse_preference_entry))?;
        w.field("service", service, some(grammar(parse_service)))
    },
    "bot" => Bot { command } => w.req("command", command, grammar(parse_bot_command)),
}}

walk! { EnvSpec, |env, w| {
    let EnvSpec { loss, filters, latency, nat } = env;
    w.field("loss", loss, some(fraction))?;
    w.field("filters", filters, each(parse_filter_entry))?;
    w.field("latency", latency, any)?;
    w.field("nat", nat, any)
}}

walk! { LatencySpec, |latency, w| {
    let LatencySpec { base_secs, jitter_secs } = latency;
    w.req("base_secs", base_secs, any)?;
    w.field("jitter_secs", jitter_secs, any)?;
    w.cross(|| latency_sign(latency))
}}

walk! { NatSpec, |nat, w| {
    let NatSpec { fraction: share, topology, seed } = nat;
    w.req("fraction", share, fraction)?;
    w.req("topology", topology, one_of("topology", &["isolated", "shared"]))?;
    w.req("seed", seed, any)
}}

walk! { FaultsSpec, |faults, w| {
    let FaultsSpec { schedule } = faults;
    w.field("schedule", schedule, each(parse_fault))
}}

walk! { PopSpec: "population kind", listed = true, |w| {
    "range" => Range { base, count, stride } => {
        w.req("base", base, grammar(parse_ip))?;
        w.req("count", count, u32_count)?;
        w.field_or("stride", stride, 1u64, u32_count)
    },
    "synthetic" => Synthetic { size, slash8s, seed } => {
        w.req("size", size, nonzero)?;
        w.req("slash8s", slash8s, slash8_count)?;
        w.req("seed", seed, any)
    },
    "paper" => Paper { seed } => w.req("seed", seed, any),
    // `PopSpec::hosts` parses the addresses, naming the list
    "hosts" => Hosts { addrs } => w.field("addrs", addrs, non_empty),
    "zipf" => Zipf { size, slash8s, seed, store } => {
        w.req("size", size, nonzero)?;
        w.req("slash8s", slash8s, slash8_count)?;
        w.req("seed", seed, any)?;
        w.field_or("store", store, "compressed", one_of("store", &["dense", "compressed"]))?;
        w.cross(|| zipf_capacity(*size, *slash8s))
    },
}}

walk! { TelescopeSpec: "telescope kind", listed = true, |w| {
    "none" => None {} => Ok(()),
    "field" => Field { placement, alert_threshold, mode } => {
        w.field_or("alert_threshold", alert_threshold, 5u64, nonzero)?;
        w.field_or("mode", mode, "active", one_of("mode", &["active", "passive"]))?;
        w.req("placement", placement, any)
    },
}}

walk! { PlacementSpec: "placement kind", listed = true, |w| {
    "prefixes" => Prefixes { prefixes } => {
        w.field("prefixes", prefixes, nonempty_each(parse_prefix))
    },
    "random" => Random { sensors, seed } => {
        w.req("sensors", sensors, nonzero)?;
        w.req("seed", seed, any)
    },
}}

walk! { SimSpec, |sim, w| {
    let SimSpec {
        scan_rate, scan_rate_sigma, seeds, dt, max_time, stop_at_fraction, removal_rate, rng_seed,
    } = sim;
    w.field("scan_rate", scan_rate, positive)?;
    w.field("scan_rate_sigma", scan_rate_sigma, non_negative)?;
    w.field("seeds", seeds, nonzero)?;
    w.field("dt", dt, positive)?;
    w.field("max_time", max_time, any)?;
    w.field("stop_at_fraction", stop_at_fraction, some(fraction))?;
    w.field("removal_rate", removal_rate, non_negative)?;
    w.field("rng_seed", rng_seed, any)?;
    w.cross(|| ensure(sim.max_time >= sim.dt, ".max_time", format_args!("shorter than one step")))
}}

walk! { DetectionStudy, |d, w| {
    let DetectionStudy {
        population, slash8s, paper_profile, seeds, scan_rate, alert_threshold, max_time,
        stop_at_fraction, rng_seed,
    } = d;
    w.req("population", population, nonzero)?;
    w.field("slash8s", slash8s, slash8_count)?;
    w.field("paper_profile", paper_profile, any)?;
    w.field("seeds", seeds, nonzero)?;
    w.field("scan_rate", scan_rate, positive)?;
    w.field("alert_threshold", alert_threshold, nonzero)?;
    w.req("max_time", max_time, positive)?;
    w.field("stop_at_fraction", stop_at_fraction, fraction)?;
    w.field("rng_seed", rng_seed, any)?;
    w.cross(|| check_seeds(".seeds", d.seeds, d.population_size()))
}}

walk! { BlasterStudy, |b, w| {
    let BlasterStudy { hosts, window_secs, scan_rate, reboot_fraction, rng_seed } = b;
    w.req("hosts", hosts, nonzero)?;
    w.req("window_secs", window_secs, positive)?;
    w.field("scan_rate", scan_rate, positive)?;
    w.field("reboot_fraction", reboot_fraction, fraction)?;
    w.field("rng_seed", rng_seed, any)
}}

walk! { SlammerStudy, |s, w| {
    let SlammerStudy { hosts, m_block_filter, rng_seed } = s;
    w.req("hosts", hosts, nonzero)?;
    w.field("m_block_filter", m_block_filter, any)?;
    w.field("rng_seed", rng_seed, any)
}}

walk! { CodeRedStudy, |c, w| {
    let CodeRedStudy { hosts, nat_fraction, probes_per_host, rng_seed } = c;
    w.req("hosts", hosts, nonzero)?;
    w.req("probes_per_host", probes_per_host, nonzero)?;
    w.field("nat_fraction", nat_fraction, fraction)?;
    w.field("rng_seed", rng_seed, any)
}}

walk! { FilteringStudy, |f, w| {
    let FilteringStudy {
        infected_per_enterprise, infected_per_isp, probes_per_host, blaster_scan_len, rng_seed,
    } = f;
    w.req("infected_per_enterprise", infected_per_enterprise, nonzero)?;
    w.req("infected_per_isp", infected_per_isp, nonzero)?;
    w.req("probes_per_host", probes_per_host, nonzero)?;
    w.field("blaster_scan_len", blaster_scan_len, any)?;
    w.field("rng_seed", rng_seed, any)
}}

walk! { StudySpec: "study kind", listed = false, |w| {
    "blaster-coverage" => BlasterCoverage { 0: blaster } => w.flatten(blaster),
    "slammer-coverage" => SlammerCoverage { 0: slammer } => w.flatten(slammer),
    "slammer-hosts" => SlammerHosts { probes_per_host } => {
        w.req("probes_per_host", probes_per_host, nonzero)
    },
    "codered-nat" => CodeRedNat {
        study, quarantine_probes_public, quarantine_probes_natted, quarantine_seed,
    } => {
        w.flatten(study)?;
        w.req("quarantine_probes_public", quarantine_probes_public, any)?;
        w.req("quarantine_probes_natted", quarantine_probes_natted, any)?;
        w.field_or("quarantine_seed", quarantine_seed, QUARANTINE_SEED, any)
    },
    "hitlist" => HitList { detection, sizes } => {
        w.req("sizes", sizes, hit_list_sizes)?;
        w.req("detection", detection, any)
    },
    "nat-detection" => NatDetection { detection, nat_fraction, sensors, top_k_slash8s } => {
        w.field_or("nat_fraction", nat_fraction, NAT_DETECTION_FRACTION, fraction)?;
        w.req("sensors", sensors, nonzero)?;
        w.field_or("top_k_slash8s", top_k_slash8s, TOP_K_SLASH8S, nonzero)?;
        w.req("detection", detection, any)?;
        w.cross(|| sensor_capacity(detection, *sensors, *top_k_slash8s))
    },
    "bot-commands" => BotCommands { synthetic_commands, corpus_seed, drone } => {
        w.req("synthetic_commands", synthetic_commands, any)?;
        w.field_or("corpus_seed", corpus_seed, CORPUS_SEED, any)?;
        w.req("drone", drone, grammar(parse_ip))
    },
    "filtering" => Filtering { 0: filtering } => w.flatten(filtering),
    "ablations" => Ablations {
        nat_population, nat_max_time, sensor_hosts, sensor_max_time, reboot_hosts,
    } => {
        w.req("nat_population", nat_population, nonzero)?;
        w.req("nat_max_time", nat_max_time, positive)?;
        w.req("sensor_hosts", sensor_hosts, one_slash16)?;
        w.req("sensor_max_time", sensor_max_time, positive)?;
        w.req("reboot_hosts", reboot_hosts, nonzero)?;
        w.cross(|| ablation_seeds(*nat_population, *sensor_hosts))
    },
    "sensitivity" => Sensitivity {
        trials, codered_hosts, codered_probes_per_host, slammer_hosts, rng_seed,
    } => {
        w.req("trials", trials, nonzero)?;
        w.req("codered_hosts", codered_hosts, nonzero)?;
        w.req("codered_probes_per_host", codered_probes_per_host, nonzero)?;
        w.req("slammer_hosts", slammer_hosts, nonzero)?;
        w.field_or("rng_seed", rng_seed, SENSITIVITY_SEED, any)
    },
}}

walk! { SweepSpec, |sweep, w| {
    let SweepSpec { param, values } = sweep;
    w.req("param", param, any)?;
    w.req("values", values, non_empty)
}}

// ---------------------------------------------------------------------------
// The root table
// ---------------------------------------------------------------------------

impl ScenarioSpec {
    /// A minimal spec named `name`: default environment, no worm, no
    /// population, no telescope, default sim, no study.
    pub fn named(name: impl Into<String>) -> ScenarioSpec {
        let mut spec = ScenarioSpec::default();
        spec.meta.name = name.into();
        spec
    }

    /// Serializes to the generic value tree (tables keep scalar keys
    /// before sub-tables so TOML emission is stable). A section at its
    /// default is omitted, except that an engine spec always spells out
    /// its `[sim]`; so a valid study spec emits only `[meta]`, `[study]`
    /// and `[sweep]`.
    pub fn to_value(&self) -> Value {
        let mut w = Writer::default();
        w.put("meta", &self.meta);
        w.put("worm", &self.worm);
        if self.environment != EnvSpec::default() {
            w.put("environment", &self.environment);
        }
        if self.faults != FaultsSpec::default() {
            w.put("faults", &self.faults);
        }
        w.put("population", &self.population);
        if self.telescope != TelescopeSpec::None {
            w.put("telescope", &self.telescope);
        }
        if self.study.is_none() || self.sim != SimSpec::default() {
            w.put("sim", &self.sim);
        }
        w.put("study", &self.study);
        w.put("sweep", &self.sweep);
        w.finish()
    }

    /// Deserializes from the generic value tree. Unknown keys anywhere
    /// in the tree are errors naming the field.
    pub fn from_value(v: &Value) -> Result<ScenarioSpec, SpecError> {
        let mut r = Reader::new("", v)?;
        let mut spec = ScenarioSpec::default();
        r.req("meta", &mut spec.meta, any)?;
        r.field("worm", &mut spec.worm, any)?;
        r.field("environment", &mut spec.environment, any)?;
        r.field("faults", &mut spec.faults, any)?;
        r.field("population", &mut spec.population, any)?;
        r.field("telescope", &mut spec.telescope, any)?;
        r.field("sim", &mut spec.sim, any)?;
        r.field("study", &mut spec.study, any)?;
        r.field("sweep", &mut spec.sweep, any)?;
        r.finish()?;
        Ok(spec)
    }

    /// Serializes to TOML.
    pub fn to_toml(&self) -> String {
        value::to_toml(&self.to_value())
    }

    /// Parses and validates a TOML spec.
    pub fn from_toml(text: &str) -> Result<ScenarioSpec, SpecError> {
        let v = value::from_toml(text)
            .map_err(|e| SpecError::new(format!("(toml line {})", e.line), e.message))?;
        let spec = ScenarioSpec::from_value(&v)?;
        spec.validate()?;
        Ok(spec)
    }

    /// The canonical serialized form: the normalized TOML the writer
    /// emits from the value tree. Two specs that parse to the same
    /// `ScenarioSpec` — whatever their source formatting, key order,
    /// comments, or explicit defaults — share one canonical form, so
    /// it is the memoization key for the scenario server's result
    /// cache (DESIGN.md §5i).
    #[must_use]
    pub fn canonical_toml(&self) -> String {
        self.to_toml()
    }

    /// The stable content hash of [`ScenarioSpec::canonical_toml`]
    /// (64-bit FNV-1a). Equal for equal specs across processes and
    /// platforms; the scenario server names cache entries with it.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        hotspots_telemetry::hash::fnv1a_64(self.canonical_toml().as_bytes())
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> String {
        value::to_json(&self.to_value())
    }

    /// Parses and validates a JSON spec.
    pub fn from_json(text: &str) -> Result<ScenarioSpec, SpecError> {
        let v = value::from_json(text)
            .map_err(|e| SpecError::new(format!("(json line {})", e.line), e.message))?;
        let spec = ScenarioSpec::from_value(&v)?;
        spec.validate()?;
        Ok(spec)
    }

    /// Semantic validation: shape (engine path vs study path), each
    /// key's rule, the checks spanning several keys, and every embedded
    /// mini-grammar (prefixes, services, preference entries, filter
    /// rules, faults). Errors name the offending field.
    pub fn validate(&self) -> Result<(), SpecError> {
        let mut c = Checker::default();
        c.req("meta", &self.meta, any)?;
        match (&self.worm, &self.study) {
            (Some(_), Some(_)) => {
                return Err(SpecError::new(
                    "study",
                    "study scenarios define their own worm; remove [worm]",
                ));
            }
            (None, None) => {
                return Err(SpecError::new(
                    "worm",
                    "spec needs either [worm] + [population] or [study]",
                ));
            }
            (Some(_), None) => {
                if self.population.is_none() {
                    return Err(SpecError::new("population", "required when [worm] is set"));
                }
            }
            (None, Some(_)) => {
                // A study builds its own population, network and timing,
                // so an engine section would be ignored yet still hashed.
                let engine_sections = [
                    ("population", self.population.is_some()),
                    ("environment", self.environment != EnvSpec::default()),
                    ("faults", self.faults != FaultsSpec::default()),
                    ("telescope", self.telescope != TelescopeSpec::None),
                    ("sim", self.sim != SimSpec::default()),
                ];
                if let Some((section, _)) = engine_sections.iter().find(|(_, set)| *set) {
                    return Err(SpecError::new(
                        *section,
                        format!("a study scenario reads only [study]; remove [{section}]"),
                    ));
                }
            }
        }
        c.field("worm", &self.worm, any)?;
        c.field("environment", &self.environment, any)?;
        c.field("faults", &self.faults, any)?;
        c.field("population", &self.population, any)?;
        let hosts = self.population.as_ref().map(PopSpec::hosts).transpose()?;
        c.field("telescope", &self.telescope, any)?;
        c.field("sim", &self.sim, any)?;
        if let Some(hosts) = hosts {
            check_seeds("sim.seeds", spec_usize("sim.seeds", self.sim.seeds)?, hosts)?;
        }
        c.field("study", &self.study, any)?;
        c.field("sweep", &self.sweep, any)?;
        if let Some(sweep) = &self.sweep {
            if self.to_value().get_path(&sweep.param).is_none() {
                return Err(SpecError::new(
                    "sweep.param",
                    format!("path {:?} not present in this spec", sweep.param),
                ));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Embedded mini-grammars (prefixes, services, filters, preference entries)
// ---------------------------------------------------------------------------

/// Parses `"tcp/80"` / `"udp/1434"`.
pub fn parse_service(field: &str, s: &str) -> Result<Service, SpecError> {
    let (proto, port) = s
        .split_once('/')
        .ok_or_else(|| SpecError::new(field, format!("expected \"proto/port\", got {s:?}")))?;
    let proto = match proto {
        "tcp" => Proto::Tcp,
        "udp" => Proto::Udp,
        other => {
            return Err(SpecError::new(
                field,
                format!("unknown protocol {other:?} (expected tcp or udp)"),
            ));
        }
    };
    let port: u16 = port
        .parse()
        .map_err(|_| SpecError::new(field, format!("bad port {port:?}")))?;
    Ok(Service::new(proto, port))
}

/// Parses a CIDR prefix (`"11.0.0.0/12"`).
pub fn parse_prefix(field: &str, s: &str) -> Result<Prefix, SpecError> {
    s.parse::<Prefix>()
        .map_err(|e| SpecError::new(field, format!("bad prefix {s:?}: {e}")))
}

/// Parses a dotted-quad address.
pub fn parse_ip(field: &str, s: &str) -> Result<Ip, SpecError> {
    s.parse::<Ip>()
        .map_err(|e| SpecError::new(field, format!("bad address {s:?}: {e}")))
}

/// Parses a preference entry `"<dotted-mask>*<weight>"` (`"255.0.0.0*4"`).
pub fn parse_preference_entry(field: &str, s: &str) -> Result<PreferenceEntry, SpecError> {
    let (mask, weight) = s
        .split_once('*')
        .ok_or_else(|| SpecError::new(field, format!("expected \"<mask>*<weight>\", got {s:?}")))?;
    let mask = parse_ip(field, mask)?.value();
    let weight: u32 = weight
        .parse()
        .map_err(|_| SpecError::new(field, format!("bad weight {weight:?}")))?;
    ensure(weight > 0, field, format_args!("weight must be positive"))?;
    Ok(PreferenceEntry { mask, weight })
}

/// Parses a bot scan command.
pub(crate) fn parse_bot_command(
    field: &str,
    s: &str,
) -> Result<hotspots_botnet::BotCommand, SpecError> {
    s.parse().map_err(|e| SpecError::new(field, format!("{e}")))
}

/// Parses a filter rule from its `<direction> <prefix> <service>`
/// tokens (`egress 163.37.8.0/22 udp/1434`); service `*` matches any.
/// Filter lists and flapping faults share it.
pub fn parse_filter(
    field: &str,
    direction: &str,
    prefix: &str,
    service: &str,
) -> Result<FilterRule, SpecError> {
    let rule = match direction {
        "egress" => FilterRule::egress,
        "ingress" => FilterRule::ingress,
        other => {
            let directions = Some(&["egress", "ingress"][..]);
            return Err(SpecError::new(
                field,
                unknown("direction", other, directions),
            ));
        }
    };
    let prefix = parse_prefix(field, prefix)?;
    let service = if service == "*" {
        None
    } else {
        Some(parse_service(field, service)?)
    };
    Ok(rule(prefix, service))
}

/// Parses one [`EnvSpec::filters`] entry,
/// `"<direction> <prefix> <service>"`.
pub fn parse_filter_entry(field: &str, s: &str) -> Result<FilterRule, SpecError> {
    match s.split_whitespace().collect::<Vec<_>>().as_slice() {
        [direction, prefix, service] => parse_filter(field, direction, prefix, service),
        _ => Err(SpecError::new(
            field,
            format!("expected \"<direction> <prefix> <service>\", got {s:?}"),
        )),
    }
}

fn parse_time(field: &str, role: &str, s: &str) -> Result<f64, SpecError> {
    let x: f64 = s
        .parse()
        .map_err(|_| SpecError::new(field, format!("{role} {s:?} is not a number")))?;
    ensure(x.is_finite(), field, format_args!("{role} must be finite"))?;
    Ok(x)
}

fn parse_fault_window(field: &str, t0: &str, t1: &str) -> Result<FaultWindow, SpecError> {
    let t0 = parse_time(field, "t0", t0)?;
    let t1 = parse_time(field, "t1", t1)?;
    ensure(
        t0 >= 0.0,
        field,
        format_args!("t0 must be non-negative, got {t0}"),
    )?;
    let empty = format_args!("window must be non-empty: t1 ({t1}) must exceed t0 ({t0})");
    ensure(t1 > t0, field, empty)?;
    Ok(FaultWindow::new(t0, t1))
}

/// Parses one fault-schedule entry (see [`FaultsSpec::schedule`] for the
/// grammar) into a netmodel [`FaultEvent`].
pub fn parse_fault(field: &str, s: &str) -> Result<FaultEvent, SpecError> {
    let parts: Vec<&str> = s.split_whitespace().collect();
    let (kind, t0, t1) = match parts.as_slice() {
        ["outage", prefix, t0, t1] => {
            let block = parse_prefix(field, prefix)?;
            (FaultKind::SensorOutage { block }, t0, t1)
        }
        ["blackhole", prefix, t0, t1] => {
            let prefix = parse_prefix(field, prefix)?;
            (FaultKind::Blackhole { prefix }, t0, t1)
        }
        ["flap", direction, prefix, service, t0, t1, period, duty] => {
            let rule = parse_filter(field, direction, prefix, service)?;
            let period = parse_time(field, "period", period)?;
            let message = format_args!("period must be positive, got {period}");
            ensure(period > 0.0, field, message)?;
            let duty = parse_time(field, "duty", duty)?;
            let message = format_args!("duty must be in (0, 1], got {duty}");
            ensure(duty > 0.0 && duty <= 1.0, field, message)?;
            (FaultKind::FilterFlap { rule, period, duty }, t0, t1)
        }
        ["degraded", prefix, t0, t1, rate] => {
            let rate = parse_time(field, "rate", rate)?;
            fraction(&rate).map_err(|e| SpecError::new(field, e.message))?;
            let prefix = parse_prefix(field, prefix)?;
            (FaultKind::DegradedLoss { prefix, rate }, t0, t1)
        }
        _ => {
            return Err(SpecError::new(
                field,
                format!(
                    "expected \"outage <prefix> <t0> <t1>\", \"blackhole <prefix> <t0> <t1>\", \
                     \"flap <direction> <prefix> <service> <t0> <t1> <period> <duty>\", or \
                     \"degraded <prefix> <t0> <t1> <rate>\", got {s:?}"
                ),
            ));
        }
    };
    Ok(FaultEvent::new(kind, parse_fault_window(field, t0, t1)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine_spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::named("test");
        spec.meta.artifact = Some("Figure X".into());
        spec.worm = Some(WormSpec::HitList {
            prefixes: vec!["11.11.0.0/16".into()],
            service: Some("udp/1434".into()),
        });
        spec.environment = EnvSpec {
            loss: Some(0.1),
            filters: vec!["egress 163.37.8.0/22 udp/1434".into()],
            latency: Some(LatencySpec {
                base_secs: 0.5,
                jitter_secs: 2.0,
            }),
            nat: Some(NatSpec {
                fraction: 0.5,
                topology: "isolated".into(),
                seed: 7,
            }),
        };
        spec.faults = FaultsSpec {
            schedule: vec![
                "outage 66.66.0.0/16 100 300".into(),
                "blackhole 12.0.0.0/8 50 150".into(),
                "flap ingress 77.0.0.0/8 udp/1434 0 400 10 0.5".into(),
                "degraded 88.0.0.0/8 0 200 0.3".into(),
            ],
        };
        spec.population = Some(PopSpec::Range {
            base: "11.11.0.0".into(),
            count: 300,
            stride: 3,
        });
        spec.telescope = TelescopeSpec::Field {
            placement: PlacementSpec::Random {
                sensors: 100,
                seed: 9,
            },
            alert_threshold: 5,
            mode: "active".into(),
        };
        spec.sim.scan_rate = 30.0;
        spec.sim.stop_at_fraction = Some(0.9);
        spec
    }

    fn study_spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::named("fig5ab-test");
        spec.study = Some(StudySpec::HitList {
            detection: DetectionStudy {
                population: 10_000,
                max_time: 4_000.0,
                ..DetectionStudy::default()
            },
            sizes: vec![Some(10), Some(100), Some(1000), None],
        });
        spec
    }

    #[test]
    fn toml_round_trips() {
        for spec in [engine_spec(), study_spec()] {
            spec.validate().expect("valid");
            let toml = spec.to_toml();
            let back = ScenarioSpec::from_toml(&toml).expect("parses");
            assert_eq!(spec, back, "TOML:\n{toml}");
        }
    }

    #[test]
    fn json_round_trips() {
        for spec in [engine_spec(), study_spec()] {
            let back = ScenarioSpec::from_json(&spec.to_json()).expect("parses");
            assert_eq!(spec, back);
        }
    }

    #[test]
    fn spec_json_is_strict() {
        // each is one defect in an otherwise valid document
        let good = ScenarioSpec::from_json(&engine_spec().to_json());
        assert!(good.is_ok());
        for bad in [
            r#"{"x": nan}"#,
            r#"{"x": -inf}"#,
            r#"{"a":1 "b":2}"#,
            r#"{"x": [1,,2]}"#,
            r#"{"a":1,}"#,
            r#"{"a":1 "b":[1,,2,],}"#,
            r#"{"meta": {"title": null}}"#,
        ] {
            let err = ScenarioSpec::from_json(bad).unwrap_err();
            assert_eq!(err.field, "(json line 1)", "{bad}: {err}");
        }
        let err = ScenarioSpec::from_json("{\n  \"meta\": {},\n  \"sim\": [1,,2]\n}").unwrap_err();
        assert_eq!(err.field, "(json line 3)", "{err}");
    }

    #[test]
    fn deep_nesting_is_a_typed_spec_error() {
        let deep = "[".repeat(200_000);
        let err = ScenarioSpec::from_toml(&format!("x = {deep}")).unwrap_err();
        assert_eq!(err.field, "(toml line 1)");
        assert!(err.message.contains("nesting deeper than"), "{err}");
        let err = ScenarioSpec::from_json(&format!("{{\"x\": {deep}")).unwrap_err();
        assert_eq!(err.field, "(json line 1)");
        assert!(err.message.contains("nesting deeper than"), "{err}");
    }

    #[test]
    fn unknown_keys_are_named() {
        // a typo, and the run options a spec does not hold: the thread
        // count and tracing come from the run context
        for (key, value) in [
            ("scna_rate", Value::Float(3.0)),
            ("threads", Value::Int(1)),
            ("trace", Value::Bool(true)),
        ] {
            let path = format!("sim.{key}");
            let mut tree = engine_spec().to_value();
            tree.set_path(&path, value.clone()).expect("sim is a table");
            let err = ScenarioSpec::from_toml(&value::to_toml(&tree)).unwrap_err();
            assert_eq!(err.field, path);
            let err = ScenarioSpec::from_json(&value::to_json(&tree)).unwrap_err();
            assert_eq!(err.field, path);
        }
    }

    #[test]
    fn omitted_study_keys_take_the_core_defaults() {
        let study = |body: &str| {
            let text = format!("[meta]\nname = \"defaults\"\n\n[study]\n{body}");
            ScenarioSpec::from_toml(&text)
                .expect("required keys suffice")
                .study
                .expect("a study spec")
        };
        assert_eq!(
            study("kind = \"blaster-coverage\"\nhosts = 7\nwindow_secs = 60.0\n"),
            StudySpec::BlasterCoverage(BlasterStudy {
                hosts: 7,
                window_secs: 60.0,
                ..BlasterStudy::default()
            })
        );
        assert_eq!(
            study("kind = \"slammer-coverage\"\nhosts = 7\n"),
            StudySpec::SlammerCoverage(SlammerStudy {
                hosts: 7,
                ..SlammerStudy::default()
            })
        );
        let StudySpec::CodeRedNat { study: codered, .. } = study(
            "kind = \"codered-nat\"\nhosts = 7\nprobes_per_host = 9\n\
             quarantine_probes_public = 1\nquarantine_probes_natted = 1\n",
        ) else {
            panic!("a codered-nat study");
        };
        assert_eq!(
            codered,
            CodeRedStudy {
                hosts: 7,
                probes_per_host: 9,
                ..CodeRedStudy::default()
            }
        );
        let detection = DetectionStudy {
            population: 700,
            max_time: 60.0,
            ..DetectionStudy::default()
        };
        let detection_table = "[study.detection]\npopulation = 700\nmax_time = 60.0\n";
        assert_eq!(
            study(&format!(
                "kind = \"hitlist\"\nsizes = [\"full\"]\n\n{detection_table}"
            )),
            StudySpec::HitList {
                detection,
                sizes: vec![None],
            }
        );
        let StudySpec::NatDetection { detection: nat, .. } = study(&format!(
            "kind = \"nat-detection\"\nsensors = 3\n\n{detection_table}"
        )) else {
            panic!("a nat-detection study");
        };
        assert_eq!(nat, detection);
        assert_eq!(
            study(
                "kind = \"filtering\"\ninfected_per_enterprise = 7\n\
                 infected_per_isp = 8\nprobes_per_host = 9\n"
            ),
            StudySpec::Filtering(FilteringStudy {
                infected_per_enterprise: 7,
                infected_per_isp: 8,
                probes_per_host: 9,
                ..FilteringStudy::default()
            })
        );
    }

    #[test]
    fn validation_names_fields() {
        let mut spec = engine_spec();
        spec.environment.nat.as_mut().unwrap().fraction = 1.5;
        let err = spec.validate().unwrap_err();
        assert_eq!(err.field, "environment.nat.fraction");

        let mut spec = engine_spec();
        spec.worm = Some(WormSpec::HitList {
            prefixes: vec!["11.0.0.0/33".into()],
            service: None,
        });
        let err = spec.validate().unwrap_err();
        assert_eq!(err.field, "worm.prefixes[0]");

        let mut spec = engine_spec();
        spec.population = None;
        let err = spec.validate().unwrap_err();
        assert_eq!(err.field, "population");

        // duplicate addresses collapse before the seed count is checked
        let mut spec = engine_spec();
        spec.population = Some(PopSpec::Hosts {
            addrs: vec!["11.11.0.1".into(), "11.11.0.1".into()],
        });
        spec.sim.seeds = 2;
        let err = spec.validate().unwrap_err();
        assert_eq!(
            err.to_string(),
            "sim.seeds: 2 seed hosts exceed the population of 1"
        );
    }

    #[test]
    fn shape_is_exclusive() {
        let mut both = engine_spec();
        both.study = study_spec().study;
        assert_eq!(both.validate().unwrap_err().field, "study");

        let neither = ScenarioSpec::named("empty");
        assert_eq!(neither.validate().unwrap_err().field, "worm");

        // a study reads only [study]: each engine section is named
        let engine = engine_spec();
        let mut with_sim = study_spec();
        with_sim.sim.seeds = 7;
        let mut with_environment = study_spec();
        with_environment.environment.loss = Some(0.9);
        let mut with_faults = study_spec();
        with_faults.faults = engine.faults.clone();
        let mut with_telescope = study_spec();
        with_telescope.telescope = engine.telescope.clone();
        let mut with_population = study_spec();
        with_population.population = engine.population.clone();
        for (spec, section) in [
            (with_sim, "sim"),
            (with_environment, "environment"),
            (with_faults, "faults"),
            (with_telescope, "telescope"),
            (with_population, "population"),
        ] {
            assert_eq!(spec.validate().unwrap_err().field, section);
            // the section survives serialization, so the text fails too
            let err = ScenarioSpec::from_toml(&spec.to_toml()).unwrap_err();
            assert_eq!(err.field, section);
        }
        assert!(!study_spec().to_toml().contains("[sim]"));
    }

    #[test]
    fn sizes_encode_full_as_string() {
        let spec = study_spec();
        let toml = spec.to_toml();
        assert!(toml.contains("\"full\""), "TOML:\n{toml}");
    }

    #[test]
    fn sweep_param_must_resolve() {
        let mut spec = engine_spec();
        spec.sweep = Some(SweepSpec {
            param: "sim.scan_rte".into(),
            values: vec![Value::Float(1.0)],
        });
        assert_eq!(spec.validate().unwrap_err().field, "sweep.param");

        spec.sweep = Some(SweepSpec {
            param: "sim.scan_rate".into(),
            values: vec![Value::Float(1.0), Value::Float(2.0)],
        });
        spec.validate().expect("valid sweep");
    }

    #[test]
    fn filter_grammar_parses() {
        let f = parse_filter_entry("x", "egress 163.37.8.0/22 udp/1434").unwrap();
        assert!(
            f.src.is_some() && f.dst.is_none(),
            "egress matches the source"
        );
        assert_eq!(f.service, Some(Service::SLAMMER_SQL));
        let f = parse_filter_entry("x", "ingress 10.0.0.0/8 *").unwrap();
        assert!(
            f.src.is_none() && f.dst.is_some(),
            "ingress matches the destination"
        );
        assert!(f.service.is_none());
        assert!(parse_filter_entry("x", "sideways 10.0.0.0/8 *").is_err());
        assert!(parse_filter_entry("x", "egress 10.0.0.0/8").is_err());
    }

    #[test]
    fn fault_grammar_parses() {
        let e = parse_fault("x", "outage 66.66.0.0/16 100 300").unwrap();
        assert!(matches!(e.kind, FaultKind::SensorOutage { .. }));
        assert_eq!(e.window, FaultWindow::new(100.0, 300.0));

        let e = parse_fault("x", "blackhole 12.0.0.0/8 0 50").unwrap();
        assert!(matches!(e.kind, FaultKind::Blackhole { .. }));

        let e = parse_fault("x", "flap egress 10.0.0.0/8 * 0 100 5 0.25").unwrap();
        match e.kind {
            FaultKind::FilterFlap { rule, period, duty } => {
                assert!(rule.src.is_some() && rule.dst.is_none());
                assert!(rule.service.is_none());
                assert_eq!(period, 5.0);
                assert_eq!(duty, 0.25);
            }
            other => panic!("unexpected kind {other:?}"),
        }

        let e = parse_fault("x", "degraded 88.0.0.0/8 10 20 0.5").unwrap();
        assert!(matches!(e.kind, FaultKind::DegradedLoss { rate, .. } if rate == 0.5));

        // malformed entries are rejected with the offending detail
        assert!(parse_fault("x", "outage 66.66.0.0/16 100").is_err());
        assert!(parse_fault("x", "outage 66.66.0.0/33 100 300").is_err());
        assert!(parse_fault("x", "outage 66.66.0.0/16 300 100").is_err());
        assert!(parse_fault("x", "outage 66.66.0.0/16 -5 100").is_err());
        assert!(parse_fault("x", "blackhole 12.0.0.0/8 50 50").is_err());
        assert!(parse_fault("x", "flap sideways 10.0.0.0/8 * 0 100 5 0.5").is_err());
        assert!(parse_fault("x", "flap ingress 10.0.0.0/8 * 0 100 0 0.5").is_err());
        assert!(parse_fault("x", "flap ingress 10.0.0.0/8 * 0 100 5 1.5").is_err());
        assert!(parse_fault("x", "degraded 88.0.0.0/8 10 20 1.5").is_err());
        assert!(parse_fault("x", "meteor 88.0.0.0/8 10 20").is_err());
    }

    #[test]
    fn fault_validation_names_schedule_entries() {
        let mut spec = engine_spec();
        spec.faults.schedule.push("outage nonsense 0 10".into());
        let err = spec.validate().unwrap_err();
        assert_eq!(err.field, "faults.schedule[4]");
    }

    #[test]
    fn oversized_range_integers_fail_validation() {
        let mut spec = engine_spec();
        spec.population = Some(PopSpec::Range {
            base: "11.11.0.0".into(),
            count: 300,
            stride: u64::from(u32::MAX) + 1,
        });
        let err = spec.validate().unwrap_err();
        assert_eq!(err.field, "population.stride");

        let mut spec = engine_spec();
        spec.population = Some(PopSpec::Range {
            base: "11.11.0.0".into(),
            count: u64::from(u32::MAX) + 1,
            stride: 1,
        });
        let err = spec.validate().unwrap_err();
        assert_eq!(err.field, "population.count");
    }

    #[test]
    fn nat_detection_sensors_fit_the_top_slash8s() {
        // (slash8s, paper_profile, top_k_slash8s, /8s the sensors fit in):
        // the synthetic population spans `slash8s` /8s, the paper one 47
        for (slash8s, paper_profile, top_k, fit) in [
            (47, false, 20, 20),
            (12, false, 20, 12),
            (12, true, 100, 47),
        ] {
            let mut spec = ScenarioSpec::named("fig5c-test");
            let nat = |sensors| StudySpec::NatDetection {
                detection: DetectionStudy {
                    population: 10_000,
                    slash8s,
                    paper_profile,
                    max_time: 4_000.0,
                    rng_seed: 1,
                    ..DetectionStudy::default()
                },
                nat_fraction: 0.15,
                sensors,
                top_k_slash8s: top_k,
            };
            spec.study = Some(nat(fit << 16));
            spec.validate().expect("sensors at the bound are valid");
            for sensors in [(fit << 16) + 1, 100_000_000] {
                spec.study = Some(nat(sensors));
                let err = spec.validate().unwrap_err();
                assert_eq!(err.field, "study.sensors");
                assert!(err.message.contains(&format!("top {fit} /8s")), "{err}");
            }
        }
    }

    #[test]
    fn preference_entry_grammar_parses() {
        let e = parse_preference_entry("x", "255.0.0.0*4").unwrap();
        assert_eq!(e.mask, 0xff00_0000);
        assert_eq!(e.weight, 4);
        assert!(parse_preference_entry("x", "255.0.0.0*0").is_err());
        assert!(parse_preference_entry("x", "255.0.0.0").is_err());
    }
}
