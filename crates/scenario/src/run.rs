//! Executing a [`ScenarioSpec`]: one entry point shared by the
//! `hotspots` CLI, the scenario server, and the test suites.
//!
//! [`run_spec`] performs the scenario's computation and folds its
//! accounting into a telemetry [`ReportBuilder`] in a fixed order, so a
//! spec produces the *same* run report no matter which front-end runs
//! it. Rendering (tables, bar charts, curves) is separate: the returned
//! [`Outcome`] carries the raw results for the presentation layer in
//! `hotspots-experiments`.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use hotspots::scenarios::blaster::{self, BlasterStudy};
use hotspots::scenarios::codered::{self, quarantine_run, CodeRedStudy};
use hotspots::scenarios::detection::{
    hitlist_run, nat_run, DetectionStudy, HitListRun, NatRun, NatRunError, NatTopology, Placement,
};
use hotspots::scenarios::filtering::{table2, FilteringStudy, Table2Row};
use hotspots::scenarios::slammer::{
    self, block_cycle_length_sums, host_histogram, unique_sources_per_block, SlammerStudy,
};
use hotspots::scenarios::CoverageRow;
use hotspots::HotspotReport;
use hotspots_botnet::corpus;
use hotspots_ipspace::{ims_deployment, random_ims_deployment, AddressBlock, Bucket24, Ip, Prefix};
use hotspots_netmodel::{DeliveryLedger, Environment, Service};
use hotspots_prng::cycles::AffineMap;
use hotspots_prng::SqlsortDll;
use hotspots_sim::{
    HitListWorm, Outbreak, Population, PopulationError, ScanResult, SimConfig, SimResult,
};
use hotspots_stats::CountHistogram;
use hotspots_targeting::HitList;
use hotspots_telemetry::{PhaseTimes, ReportBuilder, Timer};
use hotspots_telescope::{DetectorField, SensorMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::build::{spec_u32, spec_usize};
use crate::error::HotspotsError;
use crate::spec::{parse_ip, ScenarioSpec, SpecError, StudySpec, NAT_DETECTION_FRACTION};

/// How a front-end runs a spec: the binary name stamped into the run
/// report, and the run options a spec does not hold — the worker-thread
/// count and span tracing. Neither option changes a result.
#[derive(Debug, Clone)]
pub struct RunContext {
    /// The `binary` field of the emitted run report.
    pub binary: String,
    /// Worker threads: the engine's shards on the engine path, the run
    /// set's workers on the study path. `None` keeps the defaults (a
    /// serial engine; a study on all cores); `Some(0)` means all cores.
    /// Results are bit-identical at any count, so no report records it.
    pub threads: Option<usize>,
    /// Record a span trace of an engine run. Used by `hotspots profile`.
    pub trace: bool,
}

impl RunContext {
    /// A context emitting under `binary` with default threading.
    pub fn new(binary: impl Into<String>) -> RunContext {
        RunContext {
            binary: binary.into(),
            threads: None,
            trace: false,
        }
    }

    /// Overrides the worker-thread count (`0` = all cores).
    pub fn with_threads(mut self, threads: usize) -> RunContext {
        self.threads = Some(threads);
        self
    }

    /// Turns span tracing on for engine runs.
    pub fn with_trace(mut self) -> RunContext {
        self.trace = true;
        self
    }

    /// The worker-thread count a run of `spec` uses under this context
    /// (at least 1): the one place a thread count is decided.
    pub fn threads_for(&self, spec: &ScenarioSpec) -> usize {
        let all_cores = || std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        match self.threads {
            Some(0) => all_cores(),
            Some(threads) => threads,
            None if spec.study.is_some() => all_cores(),
            None => 1,
        }
    }
}

/// One executed scenario: the accumulated report (finish with
/// [`ScenarioRun::record_report`]) plus the raw results for rendering.
pub struct ScenarioRun {
    /// The run report, fully folded; not yet emitted.
    pub report: ReportBuilder,
    /// The scenario's results.
    pub outcome: Outcome,
}

impl ScenarioRun {
    /// Finalizes the run report, appends it to the
    /// `HOTSPOTS_RUN_REPORT` file (if set), and returns its JSONL line
    /// for the caller to print. Append failures surface as
    /// [`HotspotsError::Io`], so a bad report path fails the run loudly
    /// instead of being swallowed.
    ///
    /// # Errors
    ///
    /// Returns [`HotspotsError::Io`] when the report file append fails.
    pub fn record_report(self) -> Result<String, HotspotsError> {
        match self.report.try_record() {
            Ok((_, line)) => Ok(line),
            Err(e) => Err(HotspotsError::Io {
                context: format!("appending run report to {}", e.path),
                source: e.source,
            }),
        }
    }
}

/// A single host's probe trace for the Figure 3 study.
pub struct SlammerHostTrace {
    /// Display name (`"Host A"`).
    pub name: &'static str,
    /// The host's `sqlsort.dll` variant.
    pub dll: SqlsortDll,
    /// The host's LCG seed.
    pub seed: u32,
    /// The period of the cycle the seed sits on.
    pub cycle_len: u64,
    /// Telescope hits per /24.
    pub hist: CountHistogram<Bucket24>,
}

/// One quarantined-host trace for the Figure 4 study.
pub struct QuarantineTrace {
    /// Row label (`"4(b) public 57.20.3.9"`).
    pub label: String,
    /// Probes drawn.
    pub probes: u64,
    /// Telescope hits per /24.
    pub hist: CountHistogram<Bucket24>,
}

/// One engine run of the sensor-mode ablation.
pub struct SensorModeRun {
    /// Worm transport label (`"TCP worm (CodeRed-style)"`).
    pub transport: String,
    /// Sensor mode under test.
    pub mode: SensorMode,
    /// Sensors that alerted.
    pub alerted: usize,
    /// Total sensors.
    pub sensors: usize,
}

/// One randomized-deployment CodeRedII trial of the sensitivity study.
pub struct CodeRedTrial {
    /// Trial index.
    pub trial: u64,
    /// The randomized deployment.
    pub blocks: Vec<AddressBlock>,
    /// Infected host count.
    pub hosts: usize,
    /// Per-prefix unique sources.
    pub rows: Vec<CoverageRow>,
}

/// One randomized-deployment Slammer trial of the sensitivity study.
pub struct SlammerTrial {
    /// Trial index.
    pub trial: u64,
    /// The randomized deployment.
    pub blocks: Vec<AddressBlock>,
    /// Per-prefix unique sources.
    pub rows: Vec<CoverageRow>,
}

/// The raw results of a scenario, for the presentation layer.
pub enum Outcome {
    /// An engine-path run: one outbreak.
    Engine {
        /// The engine's result.
        result: Box<SimResult>,
        /// The detector field after the run, if the spec deployed one.
        field: Option<DetectorField>,
    },
    /// Figure 1.
    BlasterCoverage {
        /// The study configuration.
        study: BlasterStudy,
        /// Per-prefix unique sources.
        rows: Vec<CoverageRow>,
    },
    /// Figure 2.
    SlammerCoverage {
        /// The study configuration.
        study: SlammerStudy,
        /// Per-prefix unique sources.
        rows: Vec<CoverageRow>,
        /// Per-block unique source totals.
        unique: Vec<(String, u64)>,
        /// The paper's D/H/I cycle-length comparison.
        cycle_sums: Vec<(String, f64)>,
    },
    /// Figure 3.
    SlammerHosts {
        /// Probes drawn per host.
        probes: u64,
        /// The two hosts' traces.
        hosts: Vec<SlammerHostTrace>,
    },
    /// Figure 4.
    CodeRedNat {
        /// The study configuration.
        study: CodeRedStudy,
        /// Per-prefix unique sources (mixed population).
        rows: Vec<CoverageRow>,
        /// The 4(b)/4(c) quarantine traces.
        quarantines: Vec<QuarantineTrace>,
    },
    /// Figures 5(a) and 5(b), read from the same runs.
    HitList {
        /// The study configuration.
        study: DetectionStudy,
        /// One run per hit-list size.
        runs: Vec<HitListRun>,
    },
    /// Figure 5(c).
    NatDetection {
        /// The study configuration.
        study: DetectionStudy,
        /// Fraction of hosts behind NAT.
        nat_fraction: f64,
        /// One run per placement.
        runs: Vec<NatRun>,
    },
    /// Table 1.
    BotCommands {
        /// The observing drone's address.
        drone: Ip,
        /// The paper's verbatim commands: (command, range, addresses).
        paper: Vec<(String, String, u64)>,
        /// The synthetic capture's report rows.
        synthetic: Vec<(String, String, u64)>,
        /// Synthetic commands generated.
        synthetic_commands: u64,
        /// Commands restricting propagation below full IPv4.
        restricted: u64,
    },
    /// Table 2.
    Filtering {
        /// The study configuration.
        study: FilteringStudy,
        /// The table rows.
        rows: Vec<Table2Row>,
    },
    /// The ablation suite.
    Ablations {
        /// NAT-topology runs, in `[Shared, Isolated]` order.
        nat: Vec<(NatTopology, NatRun)>,
        /// Sensor-mode engine runs.
        sensor: Vec<SensorModeRun>,
        /// Reboot-fraction sweep: (fraction, hotspot score).
        reboot: Vec<(f64, HotspotReport)>,
    },
    /// The placement-sensitivity sweep.
    Sensitivity {
        /// CodeRedII trials.
        codered: Vec<CodeRedTrial>,
        /// Slammer trials.
        slammer: Vec<SlammerTrial>,
    },
}

// ---------------------------------------------------------------------------
// Report folds (moved here from hotspots-experiments so every front-end
// shares one accounting path)
// ---------------------------------------------------------------------------

/// Folds an engine [`SimResult`] into a report: probe accounting,
/// population, infections, simulated time, and the engine's per-phase
/// timings and step peak.
pub fn fold_sim_result(report: &mut ReportBuilder, result: &SimResult) {
    fold_ledger(report, &result.ledger);
    report
        .add_population(result.population as u64)
        .add_infections(result.infected as u64)
        .add_sim_seconds(result.elapsed);
    fold_phases(report, &result.telemetry.phases);
    report.peak_step_seconds(result.telemetry.peak_step_seconds);
}

/// Folds a study's [`ScanResult`] into a report: its probe accounting
/// and its per-phase timings.
fn fold_scan(report: &mut ReportBuilder, scan: &ScanResult) {
    fold_ledger(report, &scan.ledger);
    fold_phases(report, &scan.phases);
}

/// Adds per-phase wall totals to the report's `.phases`.
fn fold_phases(report: &mut ReportBuilder, phases: &PhaseTimes) {
    for (name, total, _) in phases.iter() {
        report.add_phase_seconds(name, total.as_secs_f64());
    }
}

/// Folds a verdict ledger into a report: probes, deliveries, and the
/// per-reason drop breakdown under stable `snake_case` labels
/// (zero-count reasons omitted).
fn fold_ledger(report: &mut ReportBuilder, ledger: &DeliveryLedger) {
    report
        .add_probes(ledger.probes())
        .add_delivered(ledger.delivered());
    for (reason, count) in ledger.drops() {
        if count > 0 {
            report.add_dropped(reason.snake_label(), count);
        }
    }
}

/// Runs a set of independent experiment configurations across threads,
/// returning results in input order.
///
/// Each input is handed to the job exactly once, workers pull from a
/// shared queue, and results land in their input's slot — so the output
/// is deterministic (input order) no matter how the OS schedules the
/// workers. Jobs must be independently seeded (as every sweep behind
/// [`run_spec`] is); `RunSet` adds no randomness of its own.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunSet {
    threads: usize,
}

impl RunSet {
    /// A run set with `threads` workers (at least 1).
    pub(crate) fn new(threads: usize) -> RunSet {
        RunSet {
            threads: threads.max(1),
        }
    }

    /// Runs `job` over every input, in parallel, returning the results
    /// in input order.
    ///
    /// Poisoned slot mutexes are recovered rather than unwrapped — each
    /// slot holds a plain `Option` that stays valid whatever happened on
    /// another thread — and a slot that still has no result after every
    /// worker joined surfaces as [`HotspotsError::Worker`] instead of a
    /// panic of our own.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any job when the worker scope joins.
    pub(crate) fn run<I, R, F>(&self, inputs: Vec<I>, job: F) -> Result<Vec<R>, HotspotsError>
    where
        I: Send,
        R: Send,
        F: Fn(I) -> R + Sync,
    {
        let n = inputs.len();
        if self.threads <= 1 || n <= 1 {
            return Ok(inputs.into_iter().map(job).collect());
        }
        let slots: Vec<Mutex<Option<I>>> =
            inputs.into_iter().map(|i| Mutex::new(Some(i))).collect();
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(n) {
                scope.spawn(|| loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= n {
                        break;
                    }
                    // each index is claimed by exactly one worker, so a
                    // vacant slot (impossible today) is simply skipped
                    let input = slots[idx]
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .take();
                    let Some(input) = input else { continue };
                    let out = job(input);
                    *results[idx].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
                });
            }
        });
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .ok_or_else(|| HotspotsError::worker("a parallel run set"))
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// The runner
// ---------------------------------------------------------------------------

/// Executes a validated spec, folding its accounting into a fresh
/// report. The report's `binary` comes from `ctx`; its `scenario` is
/// `meta.scenario` (default: `meta.name`); `meta.scale`, when present,
/// is echoed as the first config entry — matching the experiment
/// binaries' reports field for field.
pub fn run_spec(spec: &ScenarioSpec, ctx: &RunContext) -> Result<ScenarioRun, HotspotsError> {
    spec.validate()?;
    let scenario = spec.meta.scenario.as_deref().unwrap_or(&spec.meta.name);
    let mut report = ReportBuilder::new(&ctx.binary, scenario);
    if let Some(scale) = &spec.meta.scale {
        report.config("scale", scale);
    }
    let threads = ctx.threads_for(spec);
    let outcome = match &spec.study {
        None => run_engine(spec, threads, ctx.trace, &mut report)?,
        Some(study) => run_study(study, &RunSet::new(threads), &mut report)?,
    };
    Ok(ScenarioRun { report, outcome })
}

fn run_engine(
    spec: &ScenarioSpec,
    threads: usize,
    trace: bool,
    report: &mut ReportBuilder,
) -> Result<Outcome, HotspotsError> {
    // population synthesis, the host store, the environment and the worm
    let build = Timer::start();
    let mut outbreak = spec.build()?;
    report.add_phase_seconds("build", build.elapsed().as_secs_f64());
    outbreak.config.threads = threads;
    outbreak.config.trace = trace;
    report
        .config("worm", outbreak.worm.name())
        .config("hosts", outbreak.population.len())
        .config("scan_rate", outbreak.config.scan_rate)
        .config("seeds", outbreak.config.seeds)
        .config("max_time", outbreak.config.max_time)
        .config("rng_seed", outbreak.config.rng_seed);
    if let Some(det) = &outbreak.detector {
        report.config("sensors", det.len());
    }
    let (result, field) = outbreak
        .run()
        .map_err(|e| SpecError::new("sim.seeds", e.to_string()))?;
    fold_sim_result(report, &result);
    Ok(Outcome::Engine {
        result: Box::new(result),
        field,
    })
}

fn run_study(
    study: &StudySpec,
    runset: &RunSet,
    out: &mut ReportBuilder,
) -> Result<Outcome, HotspotsError> {
    match study {
        StudySpec::BlasterCoverage(study) => {
            let study = *study;
            // interval-coverage study: closed form, nothing routed
            out.config("hosts", study.hosts)
                .config("window_days", study.window_secs / 86_400.0)
                .config("reboot_fraction", study.reboot_fraction)
                .add_population(study.hosts as u64)
                .add_sim_seconds(study.window_secs);
            let rows = blaster::sources_by_block(&study, &ims_deployment());
            Ok(Outcome::BlasterCoverage { study, rows })
        }
        StudySpec::SlammerCoverage(study) => {
            let study = *study;
            // cycle-exact closed form: per-block coverage comes from the
            // LCG cycle structure, no probes are routed
            out.config("hosts", study.hosts)
                .config("m_block_filter", study.m_block_filter)
                .add_population(study.hosts as u64);
            let blocks = ims_deployment();
            let rows = slammer::sources_by_block(&study, &blocks);
            let unique = unique_sources_per_block(&study, &blocks);
            let dhi: Vec<AddressBlock> = blocks
                .iter()
                .filter(|b| ["D", "H", "I"].contains(&b.label()))
                .cloned()
                .collect();
            let cycle_sums = block_cycle_length_sums(&dhi);
            Ok(Outcome::SlammerCoverage {
                study,
                rows,
                unique,
                cycle_sums,
            })
        }
        StudySpec::SlammerHosts { probes_per_host } => {
            let probes = *probes_per_host;
            // two single-host walks through an empty environment: the
            // report takes their phase times, not their probe accounting
            out.config("probes_per_host", probes).add_population(2);
            let blocks = ims_deployment();
            // Host A: a seed on I's cycle; Host B: on the Z-block cycle —
            // the paper's pair of extreme per-host footprints.
            let host_a_seed = Ip::from_octets(199, 77, 10, 1).to_le_state();
            let host_b_seed = Ip::from_octets(96, 50, 60, 70).to_le_state();
            let hosts = [
                ("Host A", SqlsortDll::Sp2, host_a_seed),
                ("Host B", SqlsortDll::Gold, host_b_seed),
            ]
            .into_iter()
            .map(|(name, dll, seed)| {
                let cycle_len = AffineMap::slammer(dll)
                    .cycle_length(seed)
                    .expect("fixed point exists"); // hotspots-lint: allow(panic-path) reason="every Slammer-parameter map has a fixed point"
                let (hist, walk) = host_histogram(dll, seed, probes, &blocks);
                fold_phases(out, &walk.phases);
                SlammerHostTrace {
                    name,
                    dll,
                    seed,
                    cycle_len,
                    hist,
                }
            })
            .collect();
            Ok(Outcome::SlammerHosts { probes, hosts })
        }
        StudySpec::CodeRedNat {
            study,
            quarantine_probes_public,
            quarantine_probes_natted,
            quarantine_seed,
        } => {
            let study = *study;
            out.config("hosts", study.hosts)
                .config("probes_per_host", study.probes_per_host)
                .config("nat_fraction", study.nat_fraction)
                .add_population(study.hosts as u64);
            let blocks = ims_deployment();
            let (rows, scan) = codered::sources_by_block(&study, &blocks)
                .map_err(|e| SpecError::new("study.hosts", e.to_string()))?;
            fold_scan(out, &scan);
            // the quarantine runs are single-host walks through an empty
            // environment: only the mixed run's probes are ledgered, but
            // every walk's phase times are folded
            let quarantines = [
                (
                    "4(b) public 57.20.3.9",
                    Ip::from_octets(57, 20, 3, 9),
                    *quarantine_probes_public,
                ),
                (
                    "4(c) NATed 192.168.0.100",
                    Ip::from_octets(192, 168, 0, 100),
                    *quarantine_probes_natted,
                ),
            ]
            .into_iter()
            .map(|(label, source, probes)| {
                let (hist, walk) = quarantine_run(source, probes, &blocks, *quarantine_seed);
                fold_phases(out, &walk.phases);
                QuarantineTrace {
                    label: label.to_owned(),
                    probes,
                    hist,
                }
            })
            .collect();
            Ok(Outcome::CodeRedNat {
                study,
                rows,
                quarantines,
            })
        }
        StudySpec::HitList { detection, sizes } => {
            let study = *detection;
            let runs = hitlist_sweep(&study, sizes, runset)?;
            out.config("population", study.population_size())
                .config("seeds", study.seeds)
                .config("scan_rate", study.scan_rate)
                .config("alert_threshold", study.alert_threshold)
                .config("hit_list_sizes", size_labels(sizes));
            for run in &runs {
                fold_sim_result(out, &run.result);
            }
            Ok(Outcome::HitList { study, runs })
        }
        StudySpec::NatDetection {
            detection,
            nat_fraction,
            sensors,
            top_k_slash8s,
        } => {
            let study = *detection;
            let sensors = spec_usize("study.sensors", *sensors)?;
            let placements = vec![
                Placement::Random { sensors },
                Placement::TopSlash8s {
                    sensors,
                    k: spec_usize("study.top_k_slash8s", *top_k_slash8s)?,
                },
                Placement::Inside192,
            ];
            let runs = runset
                .run(placements, |p| {
                    nat_run(&study, *nat_fraction, p, NatTopology::Shared)
                })?
                .into_iter()
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| match e {
                    NatRunError::Population(e) => detection_error(e, "study.nat_fraction"),
                    NatRunError::Placement(_) => SpecError::new("study.sensors", e.to_string()),
                })?;
            out.config("population", study.population_size())
                .config("nat_fraction", nat_fraction)
                .config("placements", "Random,TopSlash8s,Inside192");
            for run in &runs {
                fold_sim_result(out, &run.result);
            }
            Ok(Outcome::NatDetection {
                study,
                nat_fraction: *nat_fraction,
                runs,
            })
        }
        StudySpec::BotCommands {
            synthetic_commands,
            corpus_seed,
            drone,
        } => {
            let drone = parse_ip("study.drone", drone)?;
            // grammar/corpus analysis: no probes, no environment
            let paper = corpus::hit_list_report(&corpus::table1(), drone);
            let n = spec_usize("study.synthetic_commands", *synthetic_commands)?;
            let mut rng = StdRng::seed_from_u64(*corpus_seed);
            let commands = corpus::generate(n, &mut rng);
            let synthetic = corpus::hit_list_report(&commands, drone);
            let restricted = synthetic
                .iter()
                .filter(|(_, _, size)| *size < (1u64 << 32))
                .count();
            out.config("synthetic_commands", n)
                .config("restricted", restricted);
            Ok(Outcome::BotCommands {
                drone,
                paper,
                synthetic,
                synthetic_commands: n as u64,
                restricted: restricted as u64,
            })
        }
        StudySpec::Filtering(study) => {
            let study = *study;
            out.config("infected_per_enterprise", study.infected_per_enterprise)
                .config("infected_per_isp", study.infected_per_isp)
                .config("probes_per_host", study.probes_per_host);
            let (rows, scan) = table2(&study);
            fold_scan(out, &scan);
            out.add_population(rows.iter().map(|r| r.infected_inside).sum::<u64>());
            Ok(Outcome::Filtering { study, rows })
        }
        StudySpec::Ablations {
            nat_population,
            nat_max_time,
            sensor_hosts,
            sensor_max_time,
            reboot_hosts,
        } => run_ablations(
            spec_usize("study.nat_population", *nat_population)?,
            *nat_max_time,
            spec_u32("study.sensor_hosts", *sensor_hosts)?,
            *sensor_max_time,
            spec_usize("study.reboot_hosts", *reboot_hosts)?,
            out,
        ),
        StudySpec::Sensitivity {
            trials,
            codered_hosts,
            codered_probes_per_host,
            slammer_hosts,
            rng_seed,
        } => {
            let trials = *trials;
            let codered_hosts = spec_usize("study.codered_hosts", *codered_hosts)?;
            let slammer_hosts = spec_usize("study.slammer_hosts", *slammer_hosts)?;
            let mut rng = StdRng::seed_from_u64(*rng_seed);
            out.config("trials", trials);
            let mut ledger = DeliveryLedger::new();
            // Deployments are drawn sequentially from one stream; the
            // independently seeded trials then run across threads.
            let codered_deployments: Vec<(u64, Vec<AddressBlock>)> = (0..trials)
                .map(|trial| (trial, random_ims_deployment(&mut rng)))
                .collect();
            let slammer_deployments: Vec<(u64, Vec<AddressBlock>)> = (0..trials)
                .map(|trial| (trial, random_ims_deployment(&mut rng)))
                .collect();
            let codered_runs = runset.run(codered_deployments, |(trial, blocks)| {
                let study = CodeRedStudy {
                    hosts: codered_hosts,
                    probes_per_host: *codered_probes_per_host,
                    rng_seed: 1_000 + trial,
                    ..CodeRedStudy::default()
                };
                let accounted = codered::sources_by_block(&study, &blocks);
                (trial, blocks, study.hosts, accounted)
            })?;
            let mut codered = Vec::new();
            for (trial, blocks, hosts, accounted) in codered_runs {
                let (rows, scan) =
                    accounted.map_err(|e| SpecError::new("study.codered_hosts", e.to_string()))?;
                ledger.merge(&scan.ledger);
                fold_phases(out, &scan.phases);
                out.add_population(hosts as u64);
                codered.push(CodeRedTrial {
                    trial,
                    blocks,
                    hosts,
                    rows,
                });
            }
            let slammer = runset
                .run(slammer_deployments, |(trial, blocks)| {
                    let study = SlammerStudy {
                        hosts: slammer_hosts,
                        rng_seed: 2_000 + trial,
                        ..SlammerStudy::default()
                    };
                    let rows = slammer::sources_by_block(&study, &blocks);
                    (trial, blocks, rows)
                })?
                .into_iter()
                .map(|(trial, blocks, rows)| SlammerTrial {
                    trial,
                    blocks,
                    rows,
                })
                .collect();
            // Slammer trials are cycle-exact (nothing routed); only the
            // CodeRedII trials contribute delivery accounting
            fold_ledger(out, &ledger);
            Ok(Outcome::Sensitivity { codered, slammer })
        }
    }
}

fn hitlist_sweep(
    study: &DetectionStudy,
    sizes: &[Option<u64>],
    runset: &RunSet,
) -> Result<Vec<HitListRun>, HotspotsError> {
    let sizes: Vec<Option<usize>> = sizes
        .iter()
        .map(|s| s.map(|n| spec_usize("study.sizes", n)).transpose())
        .collect::<Result<_, _>>()?;
    // the sweep is embarrassingly parallel: one engine per hit-list size
    runset
        .run(sizes, |size| hitlist_run(study, size))?
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e| detection_error(e, "study.detection.seeds").into())
}

/// Names the spec field a detection study's [`PopulationError`] is
/// about: the population size, the seed count, or else `other` (the
/// field that placed hosts behind NATs).
fn detection_error(e: PopulationError, other: &'static str) -> SpecError {
    let field = match e {
        PopulationError::Slash8Overfull { .. } => "study.detection.population",
        PopulationError::FewerHostsThanSeeds { .. } => "study.detection.seeds",
        _ => other,
    };
    SpecError::new(field, e.to_string())
}

fn size_labels(sizes: &[Option<u64>]) -> String {
    sizes
        .iter()
        .map(|s| s.map_or_else(|| "full".to_owned(), |n| n.to_string()))
        .collect::<Vec<_>>()
        .join(",")
}

/// Seed hosts of each sensor-mode ablation outbreak; `validate`
/// checks `study.sensor_hosts` against it before anything runs.
pub(crate) const ABLATION_SENSOR_SEEDS: usize = 10;

// hotspots-lint: certifies(panic-free) reason="sensor prefixes and hit-list entries are literals that parse"
fn run_ablations(
    nat_population: usize,
    nat_max_time: f64,
    sensor_hosts: u32,
    sensor_max_time: f64,
    reboot_hosts: usize,
    out: &mut ReportBuilder,
) -> Result<Outcome, HotspotsError> {
    // 1. NAT topology: shared 192.168/16 vs isolated home NATs.
    let nat_study = DetectionStudy {
        population: nat_population,
        slash8s: 20,
        max_time: nat_max_time,
        ..DetectionStudy::default()
    };
    let (mut nat, nat_fraction) = (Vec::new(), NAT_DETECTION_FRACTION);
    for topology in [NatTopology::Shared, NatTopology::Isolated] {
        let run = nat_run(&nat_study, nat_fraction, Placement::Inside192, topology)
            .map_err(|e| SpecError::new("study.nat_population", e.to_string()))?;
        fold_sim_result(out, &run.result);
        nat.push((topology, run));
    }

    // 2. Sensor mode: active (SYN-ACK responder) vs passive capture.
    // The address set is bespoke (a random BTreeSet inside 66.67/16), so
    // these outbreaks are assembled here rather than behind a PopSpec.
    let addrs: Vec<Ip> = {
        let mut rng = StdRng::seed_from_u64(21);
        let mut set = std::collections::BTreeSet::new();
        while (set.len() as u32) < sensor_hosts {
            set.insert(Ip::new(0x4242_0000 | rng.gen::<u32>() & 0xffff));
        }
        set.into_iter().collect()
    };
    let sensors: Vec<Prefix> = (0..16u32)
        .map(|i| format!("66.66.{}.0/24", i * 16).parse().expect("valid"))
        .collect();
    let mut sensor = Vec::new();
    for (proto_name, service) in [
        ("TCP worm (CodeRed-style)", Service::CODERED_HTTP),
        ("UDP worm (Slammer-style)", Service::SLAMMER_SQL),
    ] {
        for mode in [SensorMode::Active, SensorMode::Passive] {
            // worm targets 66.66/16 (where hosts are NOT — pure noise
            // toward the sensors) plus the host /16
            let both = HitList::new(vec![
                "66.66.0.0/16".parse().expect("valid"),
                "66.67.0.0/16".parse().expect("valid"),
            ])
            .expect("non-empty hit-list");
            let (result, field) = Outbreak {
                config: SimConfig {
                    scan_rate: 20.0,
                    seeds: ABLATION_SENSOR_SEEDS,
                    max_time: sensor_max_time,
                    stop_at_fraction: Some(0.9),
                    ..SimConfig::default()
                },
                population: Population::from_public(
                    addrs.iter().map(|ip| Ip::new(ip.value() | 0x0001_0000)),
                ),
                environment: Environment::new(),
                worm: Box::new(HitListWorm::new(both).with_service(service)),
                detector: Some(DetectorField::with_mode(sensors.clone(), 5, mode)),
            }
            .run()
            .map_err(|e| SpecError::new("study.sensor_hosts", e.to_string()))?;
            fold_sim_result(out, &result);
            let (alerted, deployed) = field.map_or((0, 0), |f| (f.alerted(), f.len()));
            sensor.push(SensorModeRun {
                transport: proto_name.to_owned(),
                mode,
                alerted,
                sensors: deployed,
            });
        }
    }

    // 3. Blaster reboot fraction vs Figure 1 hotspot strength.
    let mut reboot = Vec::new();
    for reboot_fraction in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let study = BlasterStudy {
            hosts: reboot_hosts,
            window_secs: 7.0 * 24.0 * 3600.0,
            reboot_fraction,
            ..BlasterStudy::default()
        };
        let rows = blaster::sources_by_block(&study, &ims_deployment());
        // score over the /24 rows only: interval-coverage counts do not
        // scale with cell size, so mixing the Z block's /16 rows in would
        // bias the uniform null (see DESIGN.md)
        let counts: Vec<u64> = rows
            .iter()
            .filter(|r| r.prefix.len() == 24)
            .map(|r| r.unique_sources)
            .collect();
        reboot.push((reboot_fraction, HotspotReport::from_counts(&counts)));
    }
    // interval-coverage sweep: closed form, nothing routed
    out.config("reboot_fractions", "0,0.25,0.5,0.75,1");
    Ok(Outcome::Ablations {
        nat,
        sensor,
        reboot,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{NatSpec, PopSpec, SimSpec, WormSpec};

    fn tiny_engine_spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::named("tiny");
        spec.worm = Some(WormSpec::Uniform);
        spec.population = Some(PopSpec::Range {
            base: "11.11.0.1".to_owned(),
            count: 120,
            stride: 1,
        });
        spec.sim = SimSpec {
            scan_rate: 40.0,
            seeds: 6,
            max_time: 30.0,
            stop_at_fraction: None,
            rng_seed: 5,
            ..SimSpec::default()
        };
        spec
    }

    #[test]
    fn run_set_preserves_input_order() {
        let set = RunSet::new(4);
        let out = set.run((0..64).collect(), |i| i * 2).expect("runs");
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn run_set_single_thread_and_empty_inputs() {
        let out = RunSet::new(1).run(vec![3, 1], |i| i + 1).unwrap();
        assert_eq!(out, [4, 2]);
        let empty: Vec<i32> = RunSet::new(8).run(Vec::new(), |i: i32| i).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn engine_path_runs_and_reports() {
        let spec = tiny_engine_spec();
        let run = run_spec(&spec, &RunContext::new("test")).expect("runs");
        match run.outcome {
            Outcome::Engine { result, field } => {
                assert!(result.probes_sent > 0);
                assert!(field.is_none());
            }
            _ => panic!("expected engine outcome"),
        }
        let report = run.report.build();
        assert_eq!(report.binary, "test");
        assert_eq!(report.population, 120);
        // Every engine run times its serial phases.
        for phase in ["target_gen", "routing", "lookup", "observe", "merge"] {
            assert!(
                report.phases.iter().any(|(name, _)| name == phase),
                "missing phase {phase}: {:?}",
                report.phases
            );
        }
        assert!(report.peak_step_seconds.is_some());
    }

    #[test]
    fn nat_deployments_that_do_not_fit_fail_typed() {
        // (topology, base, hosts, expected message): 70 000 hosts overfill
        // the one shared 192.168/16 realm; a 10/8 host cannot be a gateway
        for (topology, base, count, expected) in [
            ("shared", "11.0.0.0", 70_000, "70000 NATed hosts"),
            ("isolated", "10.0.0.0", 100, "host 10.0.0.0"),
        ] {
            let mut spec = tiny_engine_spec();
            spec.population = Some(PopSpec::Range {
                base: base.to_owned(),
                count,
                stride: 1,
            });
            spec.environment.nat = Some(NatSpec {
                fraction: 1.0,
                topology: topology.to_owned(),
                seed: 1,
            });
            let Err(err) = run_spec(&spec, &RunContext::new("t")) else {
                panic!("{topology} NAT over {count} hosts at {base} must not build");
            };
            let msg = err.to_string();
            assert!(msg.starts_with("environment.nat: "), "got: {msg}");
            assert!(msg.contains(expected), "got: {msg}");
            assert_eq!(err.exit_code(), 2);
        }
    }

    #[test]
    fn overfull_nat_detection_study_fails_typed() {
        let mut spec = crate::find_preset("fig5c")
            .expect("preset")
            .spec(crate::Scale::Quick);
        let Some(StudySpec::NatDetection {
            detection,
            nat_fraction,
            ..
        }) = spec.study.as_mut()
        else {
            panic!("fig5c is a nat-detection study");
        };
        detection.population = 70_000;
        detection.paper_profile = false;
        *nat_fraction = 1.0;
        let Err(err) = run_spec(&spec, &RunContext::new("t")) else {
            panic!("70 000 hosts cannot share one 192.168/16 realm");
        };
        let msg = err.to_string();
        assert!(msg.contains("study.nat_fraction"), "got: {msg}");
        assert!(msg.contains("70000 NATed hosts"), "got: {msg}");
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn engine_path_is_thread_count_invariant() {
        let spec = tiny_engine_spec();
        let base = run_spec(&spec, &RunContext::new("t"))
            .expect("runs")
            .report
            .build();
        // 0 = all cores; no count, resolved or not, enters the report
        for threads in [0, 2, 4] {
            let report = run_spec(&spec, &RunContext::new("t").with_threads(threads))
                .expect("runs")
                .report
                .build();
            assert_eq!(report.probes_sent, base.probes_sent);
            assert_eq!(report.infections, base.infections);
            assert_eq!(report.config, base.config);
        }
    }

    #[test]
    fn the_context_alone_decides_the_thread_count() {
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let engine = tiny_engine_spec();
        let mut study = ScenarioSpec::named("study");
        study.study = Some(StudySpec::SlammerHosts {
            probes_per_host: 10,
        });
        let ctx = RunContext::new("t");
        assert_eq!(ctx.threads_for(&engine), 1);
        assert_eq!(ctx.threads_for(&study), cores);
        for spec in [&engine, &study] {
            assert_eq!(ctx.clone().with_threads(0).threads_for(spec), cores);
            assert_eq!(ctx.clone().with_threads(3).threads_for(spec), 3);
        }
    }

    #[test]
    fn study_path_slammer_hosts_reports() {
        let mut spec = ScenarioSpec::named("fig3-test");
        spec.study = Some(StudySpec::SlammerHosts {
            probes_per_host: 2_000,
        });
        let run = run_spec(&spec, &RunContext::new("t")).expect("runs");
        match run.outcome {
            Outcome::SlammerHosts { probes, hosts } => {
                assert_eq!(probes, 2_000);
                assert_eq!(hosts.len(), 2);
                assert!(hosts.iter().all(|h| h.cycle_len > 0));
            }
            _ => panic!("expected slammer-hosts outcome"),
        }
        let report = run.report.build();
        assert_eq!(report.population, 2);
    }

    #[test]
    fn oversized_study_integers_fail_typed() {
        // 65 537 distinct hosts cannot fit the one /16 the sensor-mode
        // ablation draws them from; 2^32 does not even fit a u32
        for sensor_hosts in [1 << 16 | 1, 1 << 32] {
            let mut spec = ScenarioSpec::named("abl");
            spec.study = Some(StudySpec::Ablations {
                nat_population: 10,
                nat_max_time: 1.0,
                sensor_hosts,
                sensor_max_time: 1.0,
                reboot_hosts: 10,
            });
            let Err(err) = run_spec(&spec, &RunContext::new("t")) else {
                panic!("expected an oversized-integer error for {sensor_hosts}");
            };
            assert!(err.to_string().contains("study.sensor_hosts"), "got: {err}");
            assert_eq!(err.exit_code(), 2);
        }
    }

    #[test]
    fn meta_scale_is_echoed_first() {
        let mut spec = tiny_engine_spec();
        spec.meta.scale = Some("QUICK".to_owned());
        let run = run_spec(&spec, &RunContext::new("t")).expect("runs");
        let report = run.report.build();
        assert_eq!(
            report.config.first().map(|(k, _)| k.as_str()),
            Some("scale")
        );
    }
}
