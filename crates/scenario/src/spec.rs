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
#[derive(Debug, Clone, PartialEq)]
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

impl WormSpec {
    fn kind(&self) -> &'static str {
        match self {
            WormSpec::Uniform => "uniform",
            WormSpec::Slammer => "slammer",
            WormSpec::CodeRed2 => "codered2",
            WormSpec::Blaster { .. } => "blaster",
            WormSpec::HitList { .. } => "hit-list",
            WormSpec::LocalPreference { .. } => "local-preference",
            WormSpec::Bot { .. } => "bot",
        }
    }
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
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySpec {
    /// Fixed per-probe delay in seconds.
    pub base_secs: f64,
    /// Uniform jitter bound in seconds.
    pub jitter_secs: f64,
}

/// NAT deployment over an engine-path population.
#[derive(Debug, Clone, PartialEq)]
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
        /// Address increment between consecutive hosts.
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
    /// measured shape). Scales to millions of hosts; pairs with the
    /// compressed rank-indexed population store.
    Zipf {
        /// Number of hosts (may exceed a million).
        size: u64,
        /// Number of occupied /8 networks.
        slash8s: u64,
        /// RNG seed for the draw.
        seed: u64,
        /// Population store: `"compressed"` (default) or `"dense"`.
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
        /// Probes a sensor must see before alerting.
        alert_threshold: u64,
        /// `"active"` or `"passive"`.
        mode: String,
    },
}

/// Sensor placement for [`TelescopeSpec::Field`].
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

impl StudySpec {
    fn kind(&self) -> &'static str {
        match self {
            StudySpec::BlasterCoverage(_) => "blaster-coverage",
            StudySpec::SlammerCoverage(_) => "slammer-coverage",
            StudySpec::SlammerHosts { .. } => "slammer-hosts",
            StudySpec::CodeRedNat { .. } => "codered-nat",
            StudySpec::HitList { .. } => "hitlist",
            StudySpec::NatDetection { .. } => "nat-detection",
            StudySpec::BotCommands { .. } => "bot-commands",
            StudySpec::Filtering(_) => "filtering",
            StudySpec::Ablations { .. } => "ablations",
            StudySpec::Sensitivity { .. } => "sensitivity",
        }
    }
}

/// A parameter sweep: rerun the scenario once per value with the dotted
/// `param` path overridden.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Dotted path into the spec (`"sim.scan_rate"`).
    pub param: String,
    /// The values to substitute, in order.
    pub values: Vec<Value>,
}

// ---------------------------------------------------------------------------
// Field-tracking table reader
// ---------------------------------------------------------------------------

/// Reads one `Value::Table`, tracking which keys were consumed so
/// unknown keys (typos) become errors naming the field.
struct Fields<'a> {
    path: String,
    entries: &'a [(String, Value)],
    used: Vec<bool>,
}

impl<'a> Fields<'a> {
    fn new(path: &str, v: &'a Value) -> Result<Fields<'a>, SpecError> {
        match v {
            Value::Table(entries) => Ok(Fields {
                path: path.to_owned(),
                entries,
                used: vec![false; entries.len()],
            }),
            other => Err(SpecError::new(
                path,
                format!("expected a table, found {}", other.type_name()),
            )),
        }
    }

    /// Dotted path of `key` under this table.
    fn sub(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_owned()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    fn take(&mut self, key: &str) -> Option<&'a Value> {
        for (i, (k, v)) in self.entries.iter().enumerate() {
            if k == key {
                self.used[i] = true;
                return Some(v);
            }
        }
        None
    }

    fn req(&mut self, key: &str) -> Result<&'a Value, SpecError> {
        let path = self.sub(key);
        self.take(key)
            .ok_or_else(|| SpecError::new(path, "missing required field"))
    }

    fn str(&mut self, key: &str) -> Result<String, SpecError> {
        let path = self.sub(key);
        as_str(&path, self.req(key)?)
    }

    fn opt_str(&mut self, key: &str) -> Result<Option<String>, SpecError> {
        let path = self.sub(key);
        self.take(key).map(|v| as_str(&path, v)).transpose()
    }

    fn u64(&mut self, key: &str) -> Result<u64, SpecError> {
        let path = self.sub(key);
        as_u64(&path, self.req(key)?)
    }

    fn u64_or(&mut self, key: &str, default: u64) -> Result<u64, SpecError> {
        let path = self.sub(key);
        match self.take(key) {
            Some(v) => as_u64(&path, v),
            None => Ok(default),
        }
    }

    fn usize(&mut self, key: &str) -> Result<usize, SpecError> {
        let path = self.sub(key);
        as_usize(&path, self.req(key)?)
    }

    fn usize_or(&mut self, key: &str, default: usize) -> Result<usize, SpecError> {
        let path = self.sub(key);
        match self.take(key) {
            Some(v) => as_usize(&path, v),
            None => Ok(default),
        }
    }

    fn f64(&mut self, key: &str) -> Result<f64, SpecError> {
        let path = self.sub(key);
        as_f64(&path, self.req(key)?)
    }

    fn f64_or(&mut self, key: &str, default: f64) -> Result<f64, SpecError> {
        let path = self.sub(key);
        match self.take(key) {
            Some(v) => as_f64(&path, v),
            None => Ok(default),
        }
    }

    fn opt_f64(&mut self, key: &str) -> Result<Option<f64>, SpecError> {
        let path = self.sub(key);
        self.take(key).map(|v| as_f64(&path, v)).transpose()
    }

    fn bool_or(&mut self, key: &str, default: bool) -> Result<bool, SpecError> {
        let path = self.sub(key);
        match self.take(key) {
            Some(v) => v.as_bool().ok_or_else(|| {
                SpecError::new(&path, format!("expected a bool, found {}", v.type_name()))
            }),
            None => Ok(default),
        }
    }

    fn str_array(&mut self, key: &str) -> Result<Vec<String>, SpecError> {
        let path = self.sub(key);
        match self.take(key) {
            Some(v) => {
                let arr = v.as_array().ok_or_else(|| {
                    SpecError::new(&path, format!("expected an array, found {}", v.type_name()))
                })?;
                arr.iter()
                    .enumerate()
                    .map(|(i, item)| as_str(&format!("{path}[{i}]"), item))
                    .collect()
            }
            None => Ok(Vec::new()),
        }
    }

    /// Errors on any key never consumed — the typo catcher.
    fn finish(self) -> Result<(), SpecError> {
        for (i, (k, _)) in self.entries.iter().enumerate() {
            if !self.used[i] {
                return Err(SpecError::new(self.sub(k), "unknown field"));
            }
        }
        Ok(())
    }
}

fn as_str(path: &str, v: &Value) -> Result<String, SpecError> {
    v.as_str()
        .map(str::to_owned)
        .ok_or_else(|| SpecError::new(path, format!("expected a string, found {}", v.type_name())))
}

fn as_u64(path: &str, v: &Value) -> Result<u64, SpecError> {
    match v.as_int() {
        Some(i) if i >= 0 => Ok(i as u64),
        Some(i) => Err(SpecError::new(
            path,
            format!("must be non-negative, got {i}"),
        )),
        None => Err(SpecError::new(
            path,
            format!("expected an integer, found {}", v.type_name()),
        )),
    }
}

fn as_usize(path: &str, v: &Value) -> Result<usize, SpecError> {
    spec_usize(path, as_u64(path, v)?)
}

fn as_f64(path: &str, v: &Value) -> Result<f64, SpecError> {
    v.as_float()
        .ok_or_else(|| SpecError::new(path, format!("expected a number, found {}", v.type_name())))
}

fn int(v: u64) -> Value {
    Value::Int(i64::try_from(v).expect("spec integer exceeds i64")) // hotspots-lint: allow(panic-path) reason="spec integers are validated to fit i64 on ingest"
}

fn strs(items: &[String]) -> Value {
    Value::Array(items.iter().map(|s| Value::Str(s.clone())).collect())
}

// ---------------------------------------------------------------------------
// (De)serialization
// ---------------------------------------------------------------------------

impl ScenarioSpec {
    /// A minimal spec named `name`: default environment, no worm, no
    /// population, no telescope, default sim, no study.
    pub fn named(name: impl Into<String>) -> ScenarioSpec {
        ScenarioSpec {
            meta: MetaSpec {
                name: name.into(),
                ..MetaSpec::default()
            },
            worm: None,
            environment: EnvSpec::default(),
            faults: FaultsSpec::default(),
            population: None,
            telescope: TelescopeSpec::None,
            sim: SimSpec::default(),
            study: None,
            sweep: None,
        }
    }

    /// Serializes to the generic value tree (tables keep scalar keys
    /// before sub-tables so TOML emission is stable). A section at its
    /// default is omitted, except that an engine spec always spells out
    /// its `[sim]`; so a valid study spec emits only `[meta]`, `[study]`
    /// and `[sweep]`.
    pub fn to_value(&self) -> Value {
        let mut root = Value::table();
        root.set("meta", meta_to_value(&self.meta));
        if let Some(worm) = &self.worm {
            root.set("worm", worm_to_value(worm));
        }
        if self.environment != EnvSpec::default() {
            root.set("environment", env_to_value(&self.environment));
        }
        if !self.faults.schedule.is_empty() {
            let mut t = Value::table();
            t.set("schedule", strs(&self.faults.schedule));
            root.set("faults", t);
        }
        if let Some(pop) = &self.population {
            root.set("population", pop_to_value(pop));
        }
        if self.telescope != TelescopeSpec::None {
            root.set("telescope", telescope_to_value(&self.telescope));
        }
        if self.study.is_none() || self.sim != SimSpec::default() {
            root.set("sim", sim_to_value(&self.sim));
        }
        if let Some(study) = &self.study {
            root.set("study", study_to_value(study));
        }
        if let Some(sweep) = &self.sweep {
            let mut t = Value::table();
            t.set("param", Value::Str(sweep.param.clone()));
            t.set("values", Value::Array(sweep.values.clone()));
            root.set("sweep", t);
        }
        root
    }

    /// Deserializes from the generic value tree. Unknown keys anywhere
    /// in the tree are errors naming the field.
    pub fn from_value(v: &Value) -> Result<ScenarioSpec, SpecError> {
        let mut root = Fields::new("", v)?;
        let meta = meta_from_value(root.req("meta")?)?;
        let worm = root.take("worm").map(worm_from_value).transpose()?;
        let environment = match root.take("environment") {
            Some(v) => env_from_value(v)?,
            None => EnvSpec::default(),
        };
        let faults = match root.take("faults") {
            Some(v) => {
                let mut f = Fields::new("faults", v)?;
                let spec = FaultsSpec {
                    schedule: f.str_array("schedule")?,
                };
                f.finish()?;
                spec
            }
            None => FaultsSpec::default(),
        };
        let population = root.take("population").map(pop_from_value).transpose()?;
        let telescope = match root.take("telescope") {
            Some(v) => telescope_from_value(v)?,
            None => TelescopeSpec::None,
        };
        let sim = match root.take("sim") {
            Some(v) => sim_from_value(v)?,
            None => SimSpec::default(),
        };
        let study = root.take("study").map(study_from_value).transpose()?;
        let sweep = match root.take("sweep") {
            Some(v) => {
                let mut f = Fields::new("sweep", v)?;
                let param = f.str("param")?;
                let values = f
                    .req("values")?
                    .as_array()
                    .ok_or_else(|| SpecError::new("sweep.values", "expected an array"))?
                    .to_vec();
                f.finish()?;
                Some(SweepSpec { param, values })
            }
            None => None,
        };
        root.finish()?;
        Ok(ScenarioSpec {
            meta,
            worm,
            environment,
            faults,
            population,
            telescope,
            sim,
            study,
            sweep,
        })
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

    /// Semantic validation: shape (engine path vs study path), ranges,
    /// and every embedded mini-grammar (prefixes, services, preference
    /// entries, filter rules). Errors name the offending field.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.meta.name.is_empty() {
            return Err(SpecError::new("meta.name", "must be non-empty"));
        }
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
        if let Some(worm) = &self.worm {
            validate_worm(worm)?;
        }
        validate_env(&self.environment)?;
        validate_faults(&self.faults)?;
        let hosts = self.population.as_ref().map(validate_pop).transpose()?;
        validate_telescope(&self.telescope)?;
        validate_sim(&self.sim)?;
        if let Some(hosts) = hosts {
            check_seeds("sim.seeds", spec_usize("sim.seeds", self.sim.seeds)?, hosts)?;
        }
        if let Some(study) = &self.study {
            validate_study(study)?;
        }
        if let Some(sweep) = &self.sweep {
            if sweep.values.is_empty() {
                return Err(SpecError::new("sweep.values", "must be non-empty"));
            }
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

fn meta_to_value(meta: &MetaSpec) -> Value {
    let mut t = Value::table();
    t.set("name", Value::Str(meta.name.clone()));
    if let Some(s) = &meta.scenario {
        t.set("scenario", Value::Str(s.clone()));
    }
    if let Some(s) = &meta.artifact {
        t.set("artifact", Value::Str(s.clone()));
    }
    if let Some(s) = &meta.title {
        t.set("title", Value::Str(s.clone()));
    }
    if let Some(s) = &meta.scale {
        t.set("scale", Value::Str(s.clone()));
    }
    t
}

fn meta_from_value(v: &Value) -> Result<MetaSpec, SpecError> {
    let mut f = Fields::new("meta", v)?;
    let meta = MetaSpec {
        name: f.str("name")?,
        scenario: f.opt_str("scenario")?,
        artifact: f.opt_str("artifact")?,
        title: f.opt_str("title")?,
        scale: f.opt_str("scale")?,
    };
    f.finish()?;
    Ok(meta)
}

fn worm_to_value(worm: &WormSpec) -> Value {
    let mut t = Value::table();
    t.set("kind", Value::Str(worm.kind().to_owned()));
    match worm {
        WormSpec::Uniform | WormSpec::Slammer | WormSpec::CodeRed2 => {}
        WormSpec::Blaster { hardware, model } => {
            t.set("hardware", Value::Str(hardware.clone()));
            t.set("model", Value::Str(model.clone()));
        }
        WormSpec::HitList { prefixes, service } => {
            t.set("prefixes", strs(prefixes));
            if let Some(s) = service {
                t.set("service", Value::Str(s.clone()));
            }
        }
        WormSpec::LocalPreference { entries, service } => {
            t.set("entries", strs(entries));
            if let Some(s) = service {
                t.set("service", Value::Str(s.clone()));
            }
        }
        WormSpec::Bot { command } => {
            t.set("command", Value::Str(command.clone()));
        }
    }
    t
}

fn worm_from_value(v: &Value) -> Result<WormSpec, SpecError> {
    let mut f = Fields::new("worm", v)?;
    let kind = f.str("kind")?;
    let worm = match kind.as_str() {
        "uniform" => WormSpec::Uniform,
        "slammer" => WormSpec::Slammer,
        "codered2" => WormSpec::CodeRed2,
        "blaster" => WormSpec::Blaster {
            hardware: f.str("hardware")?,
            model: f.str("model")?,
        },
        "hit-list" => WormSpec::HitList {
            prefixes: f.str_array("prefixes")?,
            service: f.opt_str("service")?,
        },
        "local-preference" => WormSpec::LocalPreference {
            entries: f.str_array("entries")?,
            service: f.opt_str("service")?,
        },
        "bot" => WormSpec::Bot {
            command: f.str("command")?,
        },
        other => {
            return Err(SpecError::new(
                "worm.kind",
                format!(
                    "unknown worm kind {other:?} (expected uniform, slammer, codered2, \
                     blaster, hit-list, local-preference, or bot)"
                ),
            ));
        }
    };
    f.finish()?;
    Ok(worm)
}

fn env_to_value(env: &EnvSpec) -> Value {
    let mut t = Value::table();
    if let Some(loss) = env.loss {
        t.set("loss", Value::Float(loss));
    }
    if !env.filters.is_empty() {
        t.set("filters", strs(&env.filters));
    }
    if let Some(lat) = &env.latency {
        let mut l = Value::table();
        l.set("base_secs", Value::Float(lat.base_secs));
        l.set("jitter_secs", Value::Float(lat.jitter_secs));
        t.set("latency", l);
    }
    if let Some(nat) = &env.nat {
        let mut n = Value::table();
        n.set("fraction", Value::Float(nat.fraction));
        n.set("topology", Value::Str(nat.topology.clone()));
        n.set("seed", int(nat.seed));
        t.set("nat", n);
    }
    t
}

fn env_from_value(v: &Value) -> Result<EnvSpec, SpecError> {
    let mut f = Fields::new("environment", v)?;
    let loss = f.opt_f64("loss")?;
    let filters = f.str_array("filters")?;
    let latency = match f.take("latency") {
        Some(v) => {
            let mut l = Fields::new("environment.latency", v)?;
            let lat = LatencySpec {
                base_secs: l.f64("base_secs")?,
                jitter_secs: l.f64_or("jitter_secs", 0.0)?,
            };
            l.finish()?;
            Some(lat)
        }
        None => None,
    };
    let nat = match f.take("nat") {
        Some(v) => {
            let mut n = Fields::new("environment.nat", v)?;
            let nat = NatSpec {
                fraction: n.f64("fraction")?,
                topology: n.str("topology")?,
                seed: n.u64("seed")?,
            };
            n.finish()?;
            Some(nat)
        }
        None => None,
    };
    f.finish()?;
    Ok(EnvSpec {
        loss,
        filters,
        latency,
        nat,
    })
}

fn pop_to_value(pop: &PopSpec) -> Value {
    let mut t = Value::table();
    match pop {
        PopSpec::Range {
            base,
            count,
            stride,
        } => {
            t.set("kind", Value::Str("range".into()));
            t.set("base", Value::Str(base.clone()));
            t.set("count", int(*count));
            t.set("stride", int(*stride));
        }
        PopSpec::Synthetic {
            size,
            slash8s,
            seed,
        } => {
            t.set("kind", Value::Str("synthetic".into()));
            t.set("size", int(*size));
            t.set("slash8s", int(*slash8s));
            t.set("seed", int(*seed));
        }
        PopSpec::Paper { seed } => {
            t.set("kind", Value::Str("paper".into()));
            t.set("seed", int(*seed));
        }
        PopSpec::Hosts { addrs } => {
            t.set("kind", Value::Str("hosts".into()));
            t.set("addrs", strs(addrs));
        }
        PopSpec::Zipf {
            size,
            slash8s,
            seed,
            store,
        } => {
            t.set("kind", Value::Str("zipf".into()));
            t.set("size", int(*size));
            t.set("slash8s", int(*slash8s));
            t.set("seed", int(*seed));
            t.set("store", Value::Str(store.clone()));
        }
    }
    t
}

fn pop_from_value(v: &Value) -> Result<PopSpec, SpecError> {
    let mut f = Fields::new("population", v)?;
    let kind = f.str("kind")?;
    let pop = match kind.as_str() {
        "range" => PopSpec::Range {
            base: f.str("base")?,
            count: f.u64("count")?,
            stride: f.u64_or("stride", 1)?,
        },
        "synthetic" => PopSpec::Synthetic {
            size: f.u64("size")?,
            slash8s: f.u64("slash8s")?,
            seed: f.u64("seed")?,
        },
        "paper" => PopSpec::Paper {
            seed: f.u64("seed")?,
        },
        "hosts" => PopSpec::Hosts {
            addrs: f.str_array("addrs")?,
        },
        "zipf" => PopSpec::Zipf {
            size: f.u64("size")?,
            slash8s: f.u64("slash8s")?,
            seed: f.u64("seed")?,
            store: f.opt_str("store")?.unwrap_or_else(|| "compressed".into()),
        },
        other => {
            return Err(SpecError::new(
                "population.kind",
                format!(
                    "unknown population kind {other:?} (expected range, synthetic, paper, hosts, or zipf)"
                ),
            ));
        }
    };
    f.finish()?;
    Ok(pop)
}

fn telescope_to_value(t: &TelescopeSpec) -> Value {
    let mut out = Value::table();
    match t {
        TelescopeSpec::None => {
            out.set("kind", Value::Str("none".into()));
        }
        TelescopeSpec::Field {
            placement,
            alert_threshold,
            mode,
        } => {
            out.set("kind", Value::Str("field".into()));
            out.set("alert_threshold", int(*alert_threshold));
            out.set("mode", Value::Str(mode.clone()));
            let mut p = Value::table();
            match placement {
                PlacementSpec::Prefixes { prefixes } => {
                    p.set("kind", Value::Str("prefixes".into()));
                    p.set("prefixes", strs(prefixes));
                }
                PlacementSpec::Random { sensors, seed } => {
                    p.set("kind", Value::Str("random".into()));
                    p.set("sensors", int(*sensors));
                    p.set("seed", int(*seed));
                }
            }
            out.set("placement", p);
        }
    }
    out
}

fn telescope_from_value(v: &Value) -> Result<TelescopeSpec, SpecError> {
    let mut f = Fields::new("telescope", v)?;
    let kind = f.str("kind")?;
    let t = match kind.as_str() {
        "none" => TelescopeSpec::None,
        "field" => {
            let alert_threshold = f.u64_or("alert_threshold", 5)?;
            let mode = f.opt_str("mode")?.unwrap_or_else(|| "active".into());
            let mut p = Fields::new("telescope.placement", f.req("placement")?)?;
            let pkind = p.str("kind")?;
            let placement = match pkind.as_str() {
                "prefixes" => PlacementSpec::Prefixes {
                    prefixes: p.str_array("prefixes")?,
                },
                "random" => PlacementSpec::Random {
                    sensors: p.u64("sensors")?,
                    seed: p.u64("seed")?,
                },
                other => {
                    return Err(SpecError::new(
                        "telescope.placement.kind",
                        format!("unknown placement kind {other:?} (expected prefixes or random)"),
                    ));
                }
            };
            p.finish()?;
            TelescopeSpec::Field {
                placement,
                alert_threshold,
                mode,
            }
        }
        other => {
            return Err(SpecError::new(
                "telescope.kind",
                format!("unknown telescope kind {other:?} (expected none or field)"),
            ));
        }
    };
    f.finish()?;
    Ok(t)
}

fn sim_to_value(sim: &SimSpec) -> Value {
    let mut t = Value::table();
    t.set("scan_rate", Value::Float(sim.scan_rate));
    t.set("scan_rate_sigma", Value::Float(sim.scan_rate_sigma));
    t.set("seeds", int(sim.seeds));
    t.set("dt", Value::Float(sim.dt));
    t.set("max_time", Value::Float(sim.max_time));
    if let Some(f) = sim.stop_at_fraction {
        t.set("stop_at_fraction", Value::Float(f));
    }
    t.set("removal_rate", Value::Float(sim.removal_rate));
    t.set("rng_seed", int(sim.rng_seed));
    t
}

fn sim_from_value(v: &Value) -> Result<SimSpec, SpecError> {
    let mut f = Fields::new("sim", v)?;
    let d = SimSpec::default();
    let sim = SimSpec {
        scan_rate: f.f64_or("scan_rate", d.scan_rate)?,
        scan_rate_sigma: f.f64_or("scan_rate_sigma", d.scan_rate_sigma)?,
        seeds: f.u64_or("seeds", d.seeds)?,
        dt: f.f64_or("dt", d.dt)?,
        max_time: f.f64_or("max_time", d.max_time)?,
        stop_at_fraction: f.opt_f64("stop_at_fraction")?,
        removal_rate: f.f64_or("removal_rate", d.removal_rate)?,
        rng_seed: f.u64_or("rng_seed", d.rng_seed)?,
    };
    f.finish()?;
    Ok(sim)
}

fn detection_to_value(d: &DetectionStudy) -> Value {
    let mut t = Value::table();
    t.set("population", int(d.population as u64));
    t.set("slash8s", int(d.slash8s as u64));
    t.set("paper_profile", Value::Bool(d.paper_profile));
    t.set("seeds", int(d.seeds as u64));
    t.set("scan_rate", Value::Float(d.scan_rate));
    t.set("alert_threshold", int(d.alert_threshold));
    t.set("max_time", Value::Float(d.max_time));
    t.set("stop_at_fraction", Value::Float(d.stop_at_fraction));
    t.set("rng_seed", int(d.rng_seed));
    t
}

fn detection_from_value(path: &str, v: &Value) -> Result<DetectionStudy, SpecError> {
    let mut f = Fields::new(path, v)?;
    let d = DetectionStudy::default();
    let study = DetectionStudy {
        population: f.usize("population")?,
        slash8s: f.usize_or("slash8s", d.slash8s)?,
        paper_profile: f.bool_or("paper_profile", d.paper_profile)?,
        seeds: f.usize_or("seeds", d.seeds)?,
        scan_rate: f.f64_or("scan_rate", d.scan_rate)?,
        alert_threshold: f.u64_or("alert_threshold", d.alert_threshold)?,
        max_time: f.f64("max_time")?,
        stop_at_fraction: f.f64_or("stop_at_fraction", d.stop_at_fraction)?,
        rng_seed: f.u64_or("rng_seed", d.rng_seed)?,
    };
    f.finish()?;
    Ok(study)
}

/// TOML encoding of hit-list sizes: integers, with `"full"` for the
/// whole population.
fn sizes_to_value(sizes: &[Option<u64>]) -> Value {
    Value::Array(
        sizes
            .iter()
            .map(|s| match s {
                Some(n) => int(*n),
                None => Value::Str("full".into()),
            })
            .collect(),
    )
}

fn sizes_from_value(path: &str, v: &Value) -> Result<Vec<Option<u64>>, SpecError> {
    let arr = v.as_array().ok_or_else(|| {
        SpecError::new(path, format!("expected an array, found {}", v.type_name()))
    })?;
    arr.iter()
        .enumerate()
        .map(|(i, item)| {
            let path = format!("{path}[{i}]");
            if let Some(s) = item.as_str() {
                if s == "full" {
                    Ok(None)
                } else {
                    Err(SpecError::new(
                        path,
                        format!("expected an integer or \"full\", got {s:?}"),
                    ))
                }
            } else {
                as_u64(&path, item).map(Some)
            }
        })
        .collect()
}

fn study_to_value(study: &StudySpec) -> Value {
    let mut t = Value::table();
    t.set("kind", Value::Str(study.kind().to_owned()));
    match study {
        StudySpec::BlasterCoverage(b) => {
            t.set("hosts", int(b.hosts as u64));
            t.set("window_secs", Value::Float(b.window_secs));
            t.set("scan_rate", Value::Float(b.scan_rate));
            t.set("reboot_fraction", Value::Float(b.reboot_fraction));
            t.set("rng_seed", int(b.rng_seed));
        }
        StudySpec::SlammerCoverage(sl) => {
            t.set("hosts", int(sl.hosts as u64));
            t.set("m_block_filter", Value::Bool(sl.m_block_filter));
            t.set("rng_seed", int(sl.rng_seed));
        }
        StudySpec::SlammerHosts { probes_per_host } => {
            t.set("probes_per_host", int(*probes_per_host));
        }
        StudySpec::CodeRedNat {
            study,
            quarantine_probes_public,
            quarantine_probes_natted,
            quarantine_seed,
        } => {
            t.set("hosts", int(study.hosts as u64));
            t.set("probes_per_host", int(study.probes_per_host));
            t.set("nat_fraction", Value::Float(study.nat_fraction));
            t.set("rng_seed", int(study.rng_seed));
            t.set("quarantine_probes_public", int(*quarantine_probes_public));
            t.set("quarantine_probes_natted", int(*quarantine_probes_natted));
            t.set("quarantine_seed", int(*quarantine_seed));
        }
        StudySpec::HitList { detection, sizes } => {
            t.set("sizes", sizes_to_value(sizes));
            t.set("detection", detection_to_value(detection));
        }
        StudySpec::NatDetection {
            detection,
            nat_fraction,
            sensors,
            top_k_slash8s,
        } => {
            t.set("nat_fraction", Value::Float(*nat_fraction));
            t.set("sensors", int(*sensors));
            t.set("top_k_slash8s", int(*top_k_slash8s));
            t.set("detection", detection_to_value(detection));
        }
        StudySpec::BotCommands {
            synthetic_commands,
            corpus_seed,
            drone,
        } => {
            t.set("synthetic_commands", int(*synthetic_commands));
            t.set("corpus_seed", int(*corpus_seed));
            t.set("drone", Value::Str(drone.clone()));
        }
        StudySpec::Filtering(fl) => {
            t.set(
                "infected_per_enterprise",
                int(fl.infected_per_enterprise as u64),
            );
            t.set("infected_per_isp", int(fl.infected_per_isp as u64));
            t.set("probes_per_host", int(fl.probes_per_host));
            t.set("blaster_scan_len", int(fl.blaster_scan_len));
            t.set("rng_seed", int(fl.rng_seed));
        }
        StudySpec::Ablations {
            nat_population,
            nat_max_time,
            sensor_hosts,
            sensor_max_time,
            reboot_hosts,
        } => {
            t.set("nat_population", int(*nat_population));
            t.set("nat_max_time", Value::Float(*nat_max_time));
            t.set("sensor_hosts", int(*sensor_hosts));
            t.set("sensor_max_time", Value::Float(*sensor_max_time));
            t.set("reboot_hosts", int(*reboot_hosts));
        }
        StudySpec::Sensitivity {
            trials,
            codered_hosts,
            codered_probes_per_host,
            slammer_hosts,
            rng_seed,
        } => {
            t.set("trials", int(*trials));
            t.set("codered_hosts", int(*codered_hosts));
            t.set("codered_probes_per_host", int(*codered_probes_per_host));
            t.set("slammer_hosts", int(*slammer_hosts));
            t.set("rng_seed", int(*rng_seed));
        }
    }
    t
}

fn study_from_value(v: &Value) -> Result<StudySpec, SpecError> {
    let mut f = Fields::new("study", v)?;
    let kind = f.str("kind")?;
    let study = match kind.as_str() {
        "blaster-coverage" => {
            let d = BlasterStudy::default();
            StudySpec::BlasterCoverage(BlasterStudy {
                hosts: f.usize("hosts")?,
                window_secs: f.f64("window_secs")?,
                scan_rate: f.f64_or("scan_rate", d.scan_rate)?,
                reboot_fraction: f.f64_or("reboot_fraction", d.reboot_fraction)?,
                rng_seed: f.u64_or("rng_seed", d.rng_seed)?,
            })
        }
        "slammer-coverage" => {
            let d = SlammerStudy::default();
            StudySpec::SlammerCoverage(SlammerStudy {
                hosts: f.usize("hosts")?,
                m_block_filter: f.bool_or("m_block_filter", d.m_block_filter)?,
                rng_seed: f.u64_or("rng_seed", d.rng_seed)?,
            })
        }
        "slammer-hosts" => StudySpec::SlammerHosts {
            probes_per_host: f.u64("probes_per_host")?,
        },
        "codered-nat" => {
            let d = CodeRedStudy::default();
            StudySpec::CodeRedNat {
                study: CodeRedStudy {
                    hosts: f.usize("hosts")?,
                    probes_per_host: f.u64("probes_per_host")?,
                    nat_fraction: f.f64_or("nat_fraction", d.nat_fraction)?,
                    rng_seed: f.u64_or("rng_seed", d.rng_seed)?,
                },
                quarantine_probes_public: f.u64("quarantine_probes_public")?,
                quarantine_probes_natted: f.u64("quarantine_probes_natted")?,
                quarantine_seed: f.u64_or("quarantine_seed", 4)?,
            }
        }
        "hitlist" => StudySpec::HitList {
            detection: detection_from_value("study.detection", f.req("detection")?)?,
            sizes: sizes_from_value("study.sizes", f.req("sizes")?)?,
        },
        "nat-detection" => StudySpec::NatDetection {
            detection: detection_from_value("study.detection", f.req("detection")?)?,
            nat_fraction: f.f64_or("nat_fraction", 0.15)?,
            sensors: f.u64("sensors")?,
            top_k_slash8s: f.u64_or("top_k_slash8s", 20)?,
        },
        "bot-commands" => StudySpec::BotCommands {
            synthetic_commands: f.u64("synthetic_commands")?,
            corpus_seed: f.u64_or("corpus_seed", 0x7ab1e)?,
            drone: f.str("drone")?,
        },
        "filtering" => {
            let d = FilteringStudy::default();
            StudySpec::Filtering(FilteringStudy {
                infected_per_enterprise: f.usize("infected_per_enterprise")?,
                infected_per_isp: f.usize("infected_per_isp")?,
                probes_per_host: f.u64("probes_per_host")?,
                blaster_scan_len: f.u64_or("blaster_scan_len", d.blaster_scan_len)?,
                rng_seed: f.u64_or("rng_seed", d.rng_seed)?,
            })
        }
        "ablations" => StudySpec::Ablations {
            nat_population: f.u64("nat_population")?,
            nat_max_time: f.f64("nat_max_time")?,
            sensor_hosts: f.u64("sensor_hosts")?,
            sensor_max_time: f.f64("sensor_max_time")?,
            reboot_hosts: f.u64("reboot_hosts")?,
        },
        "sensitivity" => StudySpec::Sensitivity {
            trials: f.u64("trials")?,
            codered_hosts: f.u64("codered_hosts")?,
            codered_probes_per_host: f.u64("codered_probes_per_host")?,
            slammer_hosts: f.u64("slammer_hosts")?,
            rng_seed: f.u64_or("rng_seed", 0x5ee0)?,
        },
        other => {
            return Err(SpecError::new(
                "study.kind",
                format!("unknown study kind {other:?}"),
            ));
        }
    };
    f.finish()?;
    Ok(study)
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
    if weight == 0 {
        return Err(SpecError::new(field, "weight must be positive"));
    }
    Ok(PreferenceEntry { mask, weight })
}

/// A parsed filter rule string.
pub struct ParsedFilter {
    /// `"egress"` or `"ingress"`.
    pub direction: String,
    /// The filtered prefix.
    pub prefix: Prefix,
    /// `None` = any service.
    pub service: Option<Service>,
}

/// Parses `"<direction> <prefix> <service>"` (`"egress 163.37.8.0/22
/// udp/1434"`); service `"*"` matches any.
pub fn parse_filter(field: &str, s: &str) -> Result<ParsedFilter, SpecError> {
    let parts: Vec<&str> = s.split_whitespace().collect();
    let [direction, prefix, service] = parts.as_slice() else {
        return Err(SpecError::new(
            field,
            format!("expected \"<direction> <prefix> <service>\", got {s:?}"),
        ));
    };
    if *direction != "egress" && *direction != "ingress" {
        return Err(SpecError::new(
            field,
            format!("unknown direction {direction:?} (expected egress or ingress)"),
        ));
    }
    let prefix = parse_prefix(field, prefix)?;
    let service = if *service == "*" {
        None
    } else {
        Some(parse_service(field, service)?)
    };
    Ok(ParsedFilter {
        direction: (*direction).to_owned(),
        prefix,
        service,
    })
}

fn parse_time(field: &str, role: &str, s: &str) -> Result<f64, SpecError> {
    let x: f64 = s
        .parse()
        .map_err(|_| SpecError::new(field, format!("{role} {s:?} is not a number")))?;
    if !x.is_finite() {
        return Err(SpecError::new(field, format!("{role} must be finite")));
    }
    Ok(x)
}

fn parse_fault_window(field: &str, t0: &str, t1: &str) -> Result<FaultWindow, SpecError> {
    let t0 = parse_time(field, "t0", t0)?;
    let t1 = parse_time(field, "t1", t1)?;
    if t0 < 0.0 {
        return Err(SpecError::new(
            field,
            format!("t0 must be non-negative, got {t0}"),
        ));
    }
    if t1 <= t0 {
        return Err(SpecError::new(
            field,
            format!("window must be non-empty: t1 ({t1}) must exceed t0 ({t0})"),
        ));
    }
    Ok(FaultWindow::new(t0, t1))
}

/// Parses one fault-schedule entry (see [`FaultsSpec::schedule`] for the
/// grammar) into a netmodel [`FaultEvent`].
pub fn parse_fault(field: &str, s: &str) -> Result<FaultEvent, SpecError> {
    let parts: Vec<&str> = s.split_whitespace().collect();
    match parts.as_slice() {
        ["outage", prefix, t0, t1] => Ok(FaultEvent::new(
            FaultKind::SensorOutage {
                block: parse_prefix(field, prefix)?,
            },
            parse_fault_window(field, t0, t1)?,
        )),
        ["blackhole", prefix, t0, t1] => Ok(FaultEvent::new(
            FaultKind::Blackhole {
                prefix: parse_prefix(field, prefix)?,
            },
            parse_fault_window(field, t0, t1)?,
        )),
        ["flap", direction, prefix, service, t0, t1, period, duty] => {
            let prefix = parse_prefix(field, prefix)?;
            let service = if *service == "*" {
                None
            } else {
                Some(parse_service(field, service)?)
            };
            let rule = match *direction {
                "egress" => FilterRule::egress(prefix, service),
                "ingress" => FilterRule::ingress(prefix, service),
                other => {
                    return Err(SpecError::new(
                        field,
                        format!("unknown direction {other:?} (expected egress or ingress)"),
                    ));
                }
            };
            let period = parse_time(field, "period", period)?;
            if period <= 0.0 {
                return Err(SpecError::new(
                    field,
                    format!("period must be positive, got {period}"),
                ));
            }
            let duty = parse_time(field, "duty", duty)?;
            if !(duty > 0.0 && duty <= 1.0) {
                return Err(SpecError::new(
                    field,
                    format!("duty must be in (0, 1], got {duty}"),
                ));
            }
            Ok(FaultEvent::new(
                FaultKind::FilterFlap { rule, period, duty },
                parse_fault_window(field, t0, t1)?,
            ))
        }
        ["degraded", prefix, t0, t1, rate] => {
            let rate = parse_time(field, "rate", rate)?;
            validate_fraction(field, rate)?;
            Ok(FaultEvent::new(
                FaultKind::DegradedLoss {
                    prefix: parse_prefix(field, prefix)?,
                    rate,
                },
                parse_fault_window(field, t0, t1)?,
            ))
        }
        _ => Err(SpecError::new(
            field,
            format!(
                "expected \"outage <prefix> <t0> <t1>\", \"blackhole <prefix> <t0> <t1>\", \
                 \"flap <direction> <prefix> <service> <t0> <t1> <period> <duty>\", or \
                 \"degraded <prefix> <t0> <t1> <rate>\", got {s:?}"
            ),
        )),
    }
}

// ---------------------------------------------------------------------------
// Semantic validation
// ---------------------------------------------------------------------------

fn validate_fraction(field: &str, x: f64) -> Result<(), SpecError> {
    if (0.0..=1.0).contains(&x) {
        Ok(())
    } else {
        Err(SpecError::new(field, format!("must be in [0, 1], got {x}")))
    }
}

fn validate_positive(field: &str, x: f64) -> Result<(), SpecError> {
    if x > 0.0 && x.is_finite() {
        Ok(())
    } else {
        Err(SpecError::new(field, format!("must be positive, got {x}")))
    }
}

/// Rejects more seed hosts than the population holds, in the engine's
/// own words, before anything runs.
fn check_seeds(field: &str, seeds: usize, hosts: usize) -> Result<(), SpecError> {
    if seeds > hosts {
        let e = PopulationError::FewerHostsThanSeeds { hosts, seeds };
        return Err(SpecError::new(field, e.to_string()));
    }
    Ok(())
}

fn validate_worm(worm: &WormSpec) -> Result<(), SpecError> {
    match worm {
        WormSpec::Uniform | WormSpec::Slammer | WormSpec::CodeRed2 => Ok(()),
        WormSpec::Blaster { hardware, model } => {
            if !matches!(
                hardware.as_str(),
                "pentium-ii" | "pentium-iii" | "pentium-iv"
            ) {
                return Err(SpecError::new(
                    "worm.hardware",
                    format!(
                        "unknown generation {hardware:?} (expected pentium-ii, pentium-iii, \
                         or pentium-iv)"
                    ),
                ));
            }
            if !matches!(model.as_str(), "reboot" | "population") {
                return Err(SpecError::new(
                    "worm.model",
                    format!("unknown seed model {model:?} (expected reboot or population)"),
                ));
            }
            Ok(())
        }
        WormSpec::HitList { prefixes, service } => {
            if prefixes.is_empty() {
                return Err(SpecError::new("worm.prefixes", "must be non-empty"));
            }
            for (i, p) in prefixes.iter().enumerate() {
                parse_prefix(&format!("worm.prefixes[{i}]"), p)?;
            }
            if let Some(s) = service {
                parse_service("worm.service", s)?;
            }
            Ok(())
        }
        WormSpec::LocalPreference { entries, service } => {
            if entries.is_empty() {
                return Err(SpecError::new("worm.entries", "must be non-empty"));
            }
            for (i, e) in entries.iter().enumerate() {
                parse_preference_entry(&format!("worm.entries[{i}]"), e)?;
            }
            if let Some(s) = service {
                parse_service("worm.service", s)?;
            }
            Ok(())
        }
        WormSpec::Bot { command } => {
            command
                .parse::<hotspots_botnet::BotCommand>()
                .map_err(|e| SpecError::new("worm.command", format!("{e}")))?;
            Ok(())
        }
    }
}

fn validate_env(env: &EnvSpec) -> Result<(), SpecError> {
    if let Some(loss) = env.loss {
        validate_fraction("environment.loss", loss)?;
    }
    for (i, rule) in env.filters.iter().enumerate() {
        parse_filter(&format!("environment.filters[{i}]"), rule)?;
    }
    if let Some(lat) = &env.latency {
        if lat.base_secs < 0.0 || lat.jitter_secs < 0.0 {
            return Err(SpecError::new(
                "environment.latency",
                "delays must be non-negative",
            ));
        }
    }
    if let Some(nat) = &env.nat {
        validate_fraction("environment.nat.fraction", nat.fraction)?;
        if !matches!(nat.topology.as_str(), "isolated" | "shared") {
            return Err(SpecError::new(
                "environment.nat.topology",
                format!(
                    "unknown topology {:?} (expected isolated or shared)",
                    nat.topology
                ),
            ));
        }
    }
    Ok(())
}

fn validate_faults(faults: &FaultsSpec) -> Result<(), SpecError> {
    for (i, entry) in faults.schedule.iter().enumerate() {
        parse_fault(&format!("faults.schedule[{i}]"), entry)?;
    }
    Ok(())
}

/// Validates `pop` and returns the number of hosts it states.
fn validate_pop(pop: &PopSpec) -> Result<usize, SpecError> {
    match pop {
        PopSpec::Range {
            base,
            count,
            stride,
        } => {
            parse_ip("population.base", base)?;
            if *count == 0 {
                return Err(SpecError::new("population.count", "must be positive"));
            }
            if u32::try_from(*count).is_err() {
                return Err(SpecError::new(
                    "population.count",
                    format!("{count} exceeds 2^32 - 1"),
                ));
            }
            if *stride == 0 {
                return Err(SpecError::new("population.stride", "must be positive"));
            }
            if u32::try_from(*stride).is_err() {
                return Err(SpecError::new(
                    "population.stride",
                    format!("{stride} exceeds 2^32 - 1"),
                ));
            }
            spec_usize("population.count", *count)
        }
        PopSpec::Synthetic { size, slash8s, .. } => {
            if *size == 0 {
                return Err(SpecError::new("population.size", "must be positive"));
            }
            if !(1..=200).contains(slash8s) {
                return Err(SpecError::new(
                    "population.slash8s",
                    format!("must be in [1, 200], got {slash8s}"),
                ));
            }
            spec_usize("population.size", *size)
        }
        PopSpec::Paper { .. } => Ok(PAPER_CODERED_HOSTS),
        PopSpec::Hosts { addrs } => {
            if addrs.is_empty() {
                return Err(SpecError::new("population.addrs", "must be non-empty"));
            }
            let mut ips = addrs
                .iter()
                .map(|a| parse_ip("population.addrs", a))
                .collect::<Result<Vec<Ip>, SpecError>>()?;
            ips.sort_unstable();
            ips.dedup();
            Ok(ips.len())
        }
        PopSpec::Zipf {
            size,
            slash8s,
            store,
            ..
        } => {
            if *size == 0 {
                return Err(SpecError::new("population.size", "must be positive"));
            }
            if !(1..=200).contains(slash8s) {
                return Err(SpecError::new(
                    "population.slash8s",
                    format!("must be in [1, 200], got {slash8s}"),
                ));
            }
            // each /8 holds at most 2^24 addresses
            if *size > slash8s * (1 << 24) {
                return Err(SpecError::new(
                    "population.size",
                    format!("{size} hosts exceed the capacity of {slash8s} /8s"),
                ));
            }
            if !matches!(store.as_str(), "dense" | "compressed") {
                return Err(SpecError::new(
                    "population.store",
                    format!("unknown store {store:?} (expected dense or compressed)"),
                ));
            }
            spec_usize("population.size", *size)
        }
    }
}

fn validate_telescope(t: &TelescopeSpec) -> Result<(), SpecError> {
    match t {
        TelescopeSpec::None => Ok(()),
        TelescopeSpec::Field {
            placement,
            alert_threshold,
            mode,
        } => {
            if *alert_threshold == 0 {
                return Err(SpecError::new(
                    "telescope.alert_threshold",
                    "must be positive",
                ));
            }
            if !matches!(mode.as_str(), "active" | "passive") {
                return Err(SpecError::new(
                    "telescope.mode",
                    format!("unknown mode {mode:?} (expected active or passive)"),
                ));
            }
            match placement {
                PlacementSpec::Prefixes { prefixes } => {
                    if prefixes.is_empty() {
                        return Err(SpecError::new(
                            "telescope.placement.prefixes",
                            "must be non-empty",
                        ));
                    }
                    for (i, p) in prefixes.iter().enumerate() {
                        parse_prefix(&format!("telescope.placement.prefixes[{i}]"), p)?;
                    }
                }
                PlacementSpec::Random { sensors, .. } => {
                    if *sensors == 0 {
                        return Err(SpecError::new(
                            "telescope.placement.sensors",
                            "must be positive",
                        ));
                    }
                }
            }
            Ok(())
        }
    }
}

fn validate_sim(sim: &SimSpec) -> Result<(), SpecError> {
    validate_positive("sim.scan_rate", sim.scan_rate)?;
    if sim.scan_rate_sigma < 0.0 || !sim.scan_rate_sigma.is_finite() {
        return Err(SpecError::new(
            "sim.scan_rate_sigma",
            "must be non-negative",
        ));
    }
    if sim.seeds == 0 {
        return Err(SpecError::new("sim.seeds", "must be positive"));
    }
    validate_positive("sim.dt", sim.dt)?;
    if sim.max_time < sim.dt {
        return Err(SpecError::new("sim.max_time", "shorter than one step"));
    }
    if let Some(f) = sim.stop_at_fraction {
        validate_fraction("sim.stop_at_fraction", f)?;
    }
    if sim.removal_rate < 0.0 || !sim.removal_rate.is_finite() {
        return Err(SpecError::new("sim.removal_rate", "must be non-negative"));
    }
    Ok(())
}

fn validate_detection(d: &DetectionStudy) -> Result<(), SpecError> {
    if d.population == 0 {
        return Err(SpecError::new(
            "study.detection.population",
            "must be positive",
        ));
    }
    if !(1..=200).contains(&d.slash8s) {
        return Err(SpecError::new(
            "study.detection.slash8s",
            format!("must be in [1, 200], got {}", d.slash8s),
        ));
    }
    if d.seeds == 0 {
        return Err(SpecError::new("study.detection.seeds", "must be positive"));
    }
    check_seeds("study.detection.seeds", d.seeds, d.population_size())?;
    if d.alert_threshold == 0 {
        return Err(SpecError::new(
            "study.detection.alert_threshold",
            "must be positive",
        ));
    }
    validate_positive("study.detection.scan_rate", d.scan_rate)?;
    validate_positive("study.detection.max_time", d.max_time)?;
    validate_fraction("study.detection.stop_at_fraction", d.stop_at_fraction)?;
    Ok(())
}

fn validate_study(study: &StudySpec) -> Result<(), SpecError> {
    match study {
        StudySpec::BlasterCoverage(b) => {
            if b.hosts == 0 {
                return Err(SpecError::new("study.hosts", "must be positive"));
            }
            validate_positive("study.window_secs", b.window_secs)?;
            validate_positive("study.scan_rate", b.scan_rate)?;
            validate_fraction("study.reboot_fraction", b.reboot_fraction)?;
        }
        StudySpec::SlammerCoverage(sl) => {
            if sl.hosts == 0 {
                return Err(SpecError::new("study.hosts", "must be positive"));
            }
        }
        StudySpec::SlammerHosts { probes_per_host } => {
            if *probes_per_host == 0 {
                return Err(SpecError::new("study.probes_per_host", "must be positive"));
            }
        }
        StudySpec::CodeRedNat { study, .. } => {
            if study.hosts == 0 {
                return Err(SpecError::new("study.hosts", "must be positive"));
            }
            if study.probes_per_host == 0 {
                return Err(SpecError::new("study.probes_per_host", "must be positive"));
            }
            validate_fraction("study.nat_fraction", study.nat_fraction)?;
        }
        StudySpec::HitList { detection, sizes } => {
            validate_detection(detection)?;
            if sizes.is_empty() {
                return Err(SpecError::new("study.sizes", "must be non-empty"));
            }
            if let Some(i) = sizes.iter().position(|s| *s == Some(0)) {
                return Err(SpecError::new(
                    format!("study.sizes[{i}]"),
                    "must be positive",
                ));
            }
        }
        StudySpec::NatDetection {
            detection,
            nat_fraction,
            sensors,
            top_k_slash8s,
        } => {
            validate_detection(detection)?;
            validate_fraction("study.nat_fraction", *nat_fraction)?;
            if *sensors == 0 {
                return Err(SpecError::new("study.sensors", "must be positive"));
            }
            if *top_k_slash8s == 0 {
                return Err(SpecError::new("study.top_k_slash8s", "must be positive"));
            }
            // Both sensor placements need `sensors` disjoint /24s. The
            // top-k one draws them from at most k of the population's /8s
            // (the random one from all routable space, which is larger).
            let slash8s = if detection.paper_profile {
                hotspots_sim::PAPER_CODERED_SLASH8S
            } else {
                detection.slash8s
            };
            let capacity = (*top_k_slash8s).min(slash8s as u64) << 16;
            if *sensors > capacity {
                return Err(SpecError::new(
                    "study.sensors",
                    format!(
                        "{sensors} exceeds the {capacity} disjoint /24s of the top {} /8s",
                        capacity >> 16
                    ),
                ));
            }
        }
        StudySpec::BotCommands { drone, .. } => {
            parse_ip("study.drone", drone)?;
        }
        StudySpec::Filtering(fl) => {
            if fl.infected_per_enterprise == 0 {
                return Err(SpecError::new(
                    "study.infected_per_enterprise",
                    "must be positive",
                ));
            }
            if fl.infected_per_isp == 0 {
                return Err(SpecError::new("study.infected_per_isp", "must be positive"));
            }
            if fl.probes_per_host == 0 {
                return Err(SpecError::new("study.probes_per_host", "must be positive"));
            }
        }
        StudySpec::Ablations {
            nat_population,
            nat_max_time,
            sensor_hosts,
            sensor_max_time,
            reboot_hosts,
        } => {
            if *nat_population == 0 {
                return Err(SpecError::new("study.nat_population", "must be positive"));
            }
            if *sensor_hosts == 0 {
                return Err(SpecError::new("study.sensor_hosts", "must be positive"));
            }
            if *reboot_hosts == 0 {
                return Err(SpecError::new("study.reboot_hosts", "must be positive"));
            }
            // the sensor-mode hosts are distinct addresses in one /16
            if *sensor_hosts > 1 << 16 {
                return Err(SpecError::new(
                    "study.sensor_hosts",
                    format!("{sensor_hosts} exceeds the 65536 addresses of one /16"),
                ));
            }
            // the NAT-topology outbreaks seed `DetectionStudy`'s default
            // count; the sensor-mode ones seed `ABLATION_SENSOR_SEEDS`
            check_seeds(
                "study.nat_population",
                DetectionStudy::default().seeds,
                usize::try_from(*nat_population).unwrap_or(usize::MAX),
            )?;
            check_seeds(
                "study.sensor_hosts",
                crate::run::ABLATION_SENSOR_SEEDS,
                usize::try_from(*sensor_hosts).unwrap_or(usize::MAX),
            )?;
            validate_positive("study.nat_max_time", *nat_max_time)?;
            validate_positive("study.sensor_max_time", *sensor_max_time)?;
        }
        StudySpec::Sensitivity {
            trials,
            codered_hosts,
            codered_probes_per_host,
            slammer_hosts,
            ..
        } => {
            if *trials == 0 {
                return Err(SpecError::new("study.trials", "must be positive"));
            }
            if *codered_hosts == 0 {
                return Err(SpecError::new("study.codered_hosts", "must be positive"));
            }
            if *slammer_hosts == 0 {
                return Err(SpecError::new("study.slammer_hosts", "must be positive"));
            }
            if *codered_probes_per_host == 0 {
                return Err(SpecError::new(
                    "study.codered_probes_per_host",
                    "must be positive",
                ));
            }
        }
    }
    Ok(())
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
        let f = parse_filter("x", "egress 163.37.8.0/22 udp/1434").unwrap();
        assert_eq!(f.direction, "egress");
        assert_eq!(f.service, Some(Service::SLAMMER_SQL));
        let f = parse_filter("x", "ingress 10.0.0.0/8 *").unwrap();
        assert!(f.service.is_none());
        assert!(parse_filter("x", "sideways 10.0.0.0/8 *").is_err());
        assert!(parse_filter("x", "egress 10.0.0.0/8").is_err());
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
