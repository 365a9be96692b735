//! The discrete-time outbreak engine.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Duration;

use hotspots_netmodel::{DeliveryLedger, Environment};
use hotspots_prng::SplitMix;
use hotspots_stats::TimeSeries;
use hotspots_telemetry::{PhaseTimes, Timer, TraceSink};
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::{Rng, SeedableRng};

use crate::bitset::HostBits;
use crate::executor::{InfectedHost, ShardExecutor, StepCtx, StepPipeline};
use crate::observers::SimObserver;
use crate::population::Population;
use crate::worms::WormModel;

/// Engine configuration. Defaults mirror the paper's simulation platform:
/// 10 probes/second per infected host, 25 seed hosts, no removal, no
/// rate dispersion.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Mean probes per second per infected host.
    pub scan_rate: f64,
    /// Log-normal dispersion (σ of log) of per-host scan rates around
    /// `scan_rate`, mean-preserving. `0.0` = every host scans at exactly
    /// `scan_rate`; Slammer-style bandwidth-limited populations are
    /// better described by σ ≈ 1.
    pub scan_rate_sigma: f64,
    /// Initial infected host count (sampled uniformly from the
    /// population).
    pub seeds: usize,
    /// Simulation step in seconds.
    pub dt: f64,
    /// Hard stop time in seconds.
    pub max_time: f64,
    /// Optional early stop once this ever-infected fraction is reached.
    pub stop_at_fraction: Option<f64>,
    /// Removal (patching/cleaning) rate: each infected host becomes
    /// permanently immune with this per-second probability — the paper's
    /// third host population. `0.0` disables removal (pure SI dynamics).
    pub removal_rate: f64,
    /// Master seed: two runs with equal configs and inputs are
    /// bit-identical.
    pub rng_seed: u64,
    /// Worker threads for the probe phase. `1` (the default) runs the
    /// staged pipeline serially; larger values shard active hosts across
    /// a persistent worker pool. Every RNG stream is keyed by
    /// host id and shard results merge in fixed order, so this is a pure
    /// throughput knob: results are bit-identical at any setting.
    pub threads: usize,
    /// Record a span trace of the run (run → step → phase spans with
    /// per-shard attribution) into [`EngineTelemetry::trace`]. Off, no
    /// span is opened; phase timing is collected either way.
    pub trace: bool,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            scan_rate: 10.0,
            scan_rate_sigma: 0.0,
            seeds: 25,
            dt: 1.0,
            max_time: 10_000.0,
            stop_at_fraction: Some(0.999),
            removal_rate: 0.0,
            rng_seed: 0x4d53_2006,
            threads: 1,
            trace: false,
        }
    }
}

impl SimConfig {
    fn validate(&self) {
        assert!(self.scan_rate > 0.0, "scan_rate must be positive");
        assert!(
            self.scan_rate_sigma >= 0.0 && self.scan_rate_sigma.is_finite(),
            "scan_rate_sigma must be non-negative"
        );
        assert!(self.seeds > 0, "need at least one seed host");
        assert!(self.dt > 0.0, "dt must be positive");
        assert!(self.max_time >= self.dt, "max_time shorter than one step");
        assert!(
            self.removal_rate >= 0.0 && self.removal_rate.is_finite(),
            "removal_rate must be non-negative"
        );
        if let Some(f) = self.stop_at_fraction {
            assert!((0.0..=1.0).contains(&f), "stop fraction out of range");
        }
        assert!(self.threads >= 1, "threads must be at least 1");
    }
}

/// Wall-clock accounting for one run's engine phases, collected in
/// every run. All clock reads go through [`Timer`].
#[derive(Debug, Clone)]
pub struct EngineTelemetry {
    /// Per-phase wall totals: `target_gen` (drawing targets), `routing`
    /// (environment verdicts), `lookup` (victim resolution), `observe`
    /// (observer dispatch), `merge` (the serial tail of every step:
    /// ledger merge, infection bookkeeping, and host spawning — the
    /// prime suspect for parallel slowdown). Together they cover the
    /// whole probe path. With `threads > 1`, the first three sum across
    /// worker threads (CPU time, not wall time); `observe` and `merge`
    /// are always serial wall time. Runs that actually dispatched shards
    /// to pool workers also report `park` (worker idle time between
    /// jobs) and `wake` (dispatch-to-pickup latency); effectively serial
    /// runs omit both.
    pub phases: PhaseTimes,
    /// Slowest single step in wall seconds.
    pub peak_step_seconds: f64,
    /// Span trace of the run (only when [`SimConfig::trace`] was set):
    /// run → step spans on track 0, per-shard phase leaves on tracks
    /// `shard + 1`. Span IDs are deterministic; only `dur_micros`
    /// carries wall time.
    pub trace: Option<TraceSink>,
}

/// The result of one outbreak run.
#[derive(Debug)]
pub struct SimResult {
    /// Fraction of the vulnerable population ever infected, vs time
    /// (monotone; removal does not decrease it).
    pub infection_curve: TimeSeries,
    /// Hosts ever infected (seeds included; removed hosts still count).
    pub infected: usize,
    /// Hosts removed (patched/cleaned — the immune population).
    pub removed: usize,
    /// Population size.
    pub population: usize,
    /// Total probes emitted.
    pub probes_sent: u64,
    /// Every probe's verdict: deliveries (public/local) and drops by
    /// reason. `ledger.probes() == probes_sent` always.
    pub ledger: DeliveryLedger,
    /// Infection time per host id (`None` = never infected). With
    /// latency, this is the *activation* time.
    pub infection_times: Vec<Option<f64>>,
    /// Simulated seconds elapsed.
    pub elapsed: f64,
    /// Engine phase timings.
    pub telemetry: EngineTelemetry,
}

impl SimResult {
    /// Final ever-infected fraction.
    pub fn infected_fraction(&self) -> f64 {
        if self.population == 0 {
            0.0
        } else {
            self.infected as f64 / self.population as f64
        }
    }

    /// Time until `fraction` of the population was infected, if reached.
    pub fn time_to_fraction(&self, fraction: f64) -> Option<f64> {
        self.infection_curve.time_to_reach(fraction)
    }
}

// Domain-separation salts: each per-host stream family is keyed by
// (master seed, salt, host id), so streams never collide across families
// and never depend on infection order or thread count.
const HOST_STREAM_SALT: u64 = 0x7072_6f62_6573_7472;
const GENERATOR_SALT: u64 = 0x5eed_5eed_5eed_5eed;
const LATENCY_SALT: u64 = 0x6c61_7465_6e63_7921;

/// Derives an independent 64-bit seed from the master seed, a stream
/// salt, and a counter, via one SplitMix64 finalizer pass.
fn derive_seed(master: u64, salt: u64, counter: u64) -> u64 {
    let mut mix = SplitMix::new(master ^ salt ^ counter.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    mix.next_u64()
}

/// The outbreak engine: drives infected hosts' generators through the
/// environment into the population and the observers.
///
/// # Examples
///
/// See the crate-level example.
pub struct Engine {
    config: SimConfig,
    population: Arc<Population>,
    env: Arc<Environment>,
    worm: Box<dyn WormModel>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .field("population", &self.population.len())
            .field("worm", &self.worm.name())
            .finish()
    }
}

impl Engine {
    /// Creates an engine.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid, the population is empty, or there
    /// are fewer hosts than seeds.
    pub fn new(
        config: SimConfig,
        population: Population,
        env: Environment,
        worm: Box<dyn WormModel>,
    ) -> Engine {
        config.validate();
        assert!(!population.is_empty(), "population must be non-empty");
        assert!(
            population.len() >= config.seeds,
            "population smaller than seed count"
        );
        Engine {
            config,
            population: Arc::new(population),
            env: Arc::new(env),
            worm,
        }
    }

    /// Per-host probes per step: the mean rate, optionally log-normally
    /// dispersed (mean-preserving).
    fn host_rate<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let base = self.config.scan_rate * self.config.dt;
        if self.config.scan_rate_sigma == 0.0 {
            return base;
        }
        let sigma = self.config.scan_rate_sigma;
        // mean-preserving log-normal: E[exp(σZ − σ²/2)] = 1
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        base * (sigma * z - sigma * sigma / 2.0).exp()
    }

    /// Builds the engine-side state for a newly infected host. All of
    /// the host's randomness comes from streams keyed by its id, so it
    /// behaves identically regardless of infection order or thread
    /// count.
    fn spawn_host(&self, id: usize) -> InfectedHost {
        let locus = self.population.locus(id);
        let mut rng = StdRng::seed_from_u64(derive_seed(
            self.config.rng_seed,
            HOST_STREAM_SALT,
            id as u64,
        ));
        let probes_per_step = self.host_rate(&mut rng);
        InfectedHost {
            id,
            locus,
            generator: self.worm.generator(
                locus,
                derive_seed(self.config.rng_seed, GENERATOR_SALT, id as u64),
            ),
            rng,
            probes_per_step,
            probe_credit: 0.0,
        }
    }

    /// Runs the outbreak to completion, feeding every delivered probe to
    /// `observer`.
    ///
    /// The probe path is a staged pipeline: each host draws a step's
    /// worth of targets in one batch
    /// ([`hotspots_targeting::TargetGenerator::fill_targets`]), the
    /// environment verdicts the whole slice, writing the delivered
    /// probes straight into the records observers read and counting
    /// every verdict, drops included, in the ledger
    /// ([`Environment::route_batch`]), victims are resolved in one pass
    /// over those records, and the batch reaches the observer via
    /// [`SimObserver::on_probe_batch`].
    /// With [`SimConfig::threads`] > 1, active hosts are sharded across
    /// a pool of persistent workers the run creates (a spawn failure
    /// degrades to fewer shards) and results merge in fixed shard
    /// order; because every RNG stream is keyed by host id, the run is
    /// bit-identical to a serial one (only observer batch boundaries
    /// vary with thread count).
    pub fn run<O: SimObserver>(&mut self, observer: &mut O) -> SimResult {
        let mut executor = ShardExecutor::new(self.config.threads);
        let n = self.population.len();
        let service = self.worm.service();
        let latency = self.env.latency();
        let removal_prob = self.config.removal_rate * self.config.dt;
        let mut rng = StdRng::seed_from_u64(self.config.rng_seed);
        // Latency draws happen at the serial merge, in candidate order,
        // from a dedicated stream — the same sequence whether the probe
        // phase ran on one thread or many.
        let mut lat_rng = StdRng::seed_from_u64(derive_seed(self.config.rng_seed, LATENCY_SALT, 0));

        // Packed infection-state bits: the whole per-host state of a
        // 1M-host run is ~375 KB across the three sets, streamed from
        // cache by the batched lookup/merge phases. Wrapped in `Arc` so
        // the step fan-out can hand workers a snapshot without copying;
        // every worker clone is dropped before the merge starts, so the
        // serial mutation sites below (`Arc::make_mut`) always find a
        // unique Arc and mutate in place.
        let mut infected_flags = Arc::new(HostBits::new(n));
        let mut removed_flags = Arc::new(HostBits::new(n));
        let mut pending_flags = Arc::new(HostBits::new(n));
        let mut infection_times: Vec<Option<f64>> = vec![None; n];
        let mut active: Vec<InfectedHost> = Vec::new();
        // pending activations ordered by time (microseconds for total order)
        let mut pending: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        let mut curve = TimeSeries::new(format!("{} infected fraction", self.worm.name()));
        let mut ever_infected = 0usize;
        let mut removed = 0usize;
        let mut ledger = DeliveryLedger::new();

        let (mut tel_target, mut tel_route, mut tel_lookup, mut tel_observe, mut tel_merge) = (
            Duration::ZERO,
            Duration::ZERO,
            Duration::ZERO,
            Duration::ZERO,
            Duration::ZERO,
        );
        let mut peak_step = Duration::ZERO;
        let run_start = Timer::start();
        let mut trace = self.config.trace.then(TraceSink::new);
        let run_span = trace.as_mut().map(|t| t.open("run", 0, 0, 0));
        let mut step_index: u64 = 0;

        // Seed hosts.
        for idx in sample(&mut rng, n, self.config.seeds) {
            Arc::make_mut(&mut infected_flags).set(idx);
            infection_times[idx] = Some(0.0);
            ever_infected += 1;
            active.push(self.spawn_host(idx));
        }
        curve.push(0.0, ever_infected as f64 / n as f64);

        let mut pipeline = StepPipeline::new(self.config.threads);

        let mut time = 0.0;
        let mut newly_infected: Vec<usize> = Vec::new();

        while time < self.config.max_time {
            time += self.config.dt;
            let step_start = Timer::start();

            // Activate pending (latency-delayed) infections due by now.
            let mut activated = false;
            while let Some(&Reverse((due_us, idx))) = pending.peek() {
                let due = due_us as f64 / 1e6;
                if due > time {
                    break;
                }
                pending.pop();
                Arc::make_mut(&mut pending_flags).clear(idx);
                if infected_flags.get(idx) || removed_flags.get(idx) {
                    continue;
                }
                Arc::make_mut(&mut infected_flags).set(idx);
                infection_times[idx] = Some(due);
                ever_infected += 1;
                activated = true;
                active.push(self.spawn_host(idx));
            }

            if let Some(stop) = self.config.stop_at_fraction {
                if ever_infected as f64 / n as f64 >= stop {
                    break;
                }
            }
            // The outbreak can die out entirely under removal.
            if active.is_empty() && pending.is_empty() {
                break;
            }

            // Opened only after the break checks above so every step
            // span is closed; its duration still covers the whole step
            // (measured from `step_start`).
            let step_span = trace.as_mut().map(|t| t.open("step", step_index, 0, 0));
            let mut step_merge = Duration::ZERO;

            // Removal: infected hosts get patched/cleaned and turn
            // immune. Each host draws from its own stream, so outcomes
            // are independent of iteration interleaving.
            if removal_prob > 0.0 {
                let flags = Arc::make_mut(&mut removed_flags);
                active.retain_mut(|host| {
                    if host.rng.gen::<f64>() < removal_prob {
                        flags.set(host.id);
                        removed += 1;
                        false
                    } else {
                        true
                    }
                });
            }

            // Stages 1–3 (target-gen / routing / victim lookup), sharded
            // across the persistent pool when `threads > 1`. The ctx and
            // all its Arc clones are consumed inside `run_step`, so the
            // flag Arcs are unique again when the merge below mutates
            // them.
            let shard_count = {
                let ctx = StepCtx {
                    env: Arc::clone(&self.env),
                    population: Arc::clone(&self.population),
                    service,
                    time,
                    infected: Arc::clone(&infected_flags),
                    removed: Arc::clone(&removed_flags),
                    pending: Arc::clone(&pending_flags),
                };
                pipeline.run_step(&mut executor, ctx, &mut active)
            };

            // Stage 4 (observe) and infection bookkeeping: serial merge
            // in fixed shard order. Observers get the delivered records;
            // drops reach the run only through the batch ledgers.
            newly_infected.clear();
            for (shard, batch) in pipeline.batches_mut()[..shard_count].iter_mut().enumerate() {
                let t_batch = Timer::start();
                ledger.merge(&batch.ledger);
                tel_target += batch.target_gen;
                tel_route += batch.routing;
                tel_lookup += batch.lookup;
                if let Some(t) = trace.as_mut() {
                    let (s, lane) = (shard as u32, shard as u32 + 1);
                    t.leaf("target_gen", step_index, s, lane, batch.target_gen);
                    t.leaf("routing", step_index, s, lane, batch.routing);
                    t.leaf("lookup", step_index, s, lane, batch.lookup);
                }
                batch.target_gen = Duration::ZERO;
                batch.routing = Duration::ZERO;
                batch.lookup = Duration::ZERO;
                let t_obs = Timer::start();
                observer.on_probe_batch(time, &batch.probes);
                let obs_dur = t_obs.elapsed();
                tel_observe += obs_dur;
                if let Some(t) = trace.as_mut() {
                    t.leaf("observe", step_index, shard as u32, 0, obs_dur);
                }
                batch.ledger = DeliveryLedger::new();
                batch.probes.clear();

                // Candidates carry start-of-step flag state; re-check
                // against live flags so duplicates collapse exactly as
                // in a fully serial probe loop.
                for &v in &batch.candidates {
                    if infected_flags.get(v) || removed_flags.get(v) || pending_flags.get(v) {
                        continue;
                    }
                    let delay = latency.sample(&mut lat_rng);
                    if delay <= 0.0 {
                        Arc::make_mut(&mut infected_flags).set(v);
                        infection_times[v] = Some(time);
                        ever_infected += 1;
                        newly_infected.push(v);
                    } else {
                        Arc::make_mut(&mut pending_flags).set(v);
                        let due_us = ((time + delay) * 1e6) as u64;
                        pending.push(Reverse((due_us, v)));
                    }
                }
                batch.candidates.clear();
                // Everything in the batch body except the observer call
                // is merge work: ledger fold, candidate re-check,
                // latency draws, scratch resets.
                step_merge += t_batch.elapsed().saturating_sub(obs_dur);
            }

            let t_spawn = Timer::start();
            for &idx in &newly_infected {
                active.push(self.spawn_host(idx));
            }
            if !newly_infected.is_empty() || activated || curve.is_empty() {
                curve.push(time, ever_infected as f64 / n as f64);
            }
            // Host spawning and curve bookkeeping are part of the serial
            // merge tail.
            step_merge += t_spawn.elapsed();
            tel_merge += step_merge;
            let step = step_start.elapsed();
            peak_step = peak_step.max(step);
            if let Some(t) = trace.as_mut() {
                t.leaf("merge", step_index, 0, 0, step_merge);
                if let Some(span) = step_span {
                    t.close(span, step);
                }
            }
            step_index += 1;
        }
        curve.push(time, ever_infected as f64 / n as f64);
        if let Some(t) = trace.as_mut() {
            if let Some(span) = run_span {
                t.close(span, run_start.elapsed());
            }
        }

        SimResult {
            infected: ever_infected,
            removed,
            population: n,
            infection_curve: curve,
            probes_sent: ledger.probes(),
            ledger,
            infection_times,
            elapsed: time,
            telemetry: {
                let mut phases = PhaseTimes::new();
                phases.record("target_gen", tel_target);
                phases.record("routing", tel_route);
                phases.record("lookup", tel_lookup);
                phases.record("observe", tel_observe);
                phases.record("merge", tel_merge);
                // Pool-only phases, absent in effectively-serial runs:
                // how long workers sat parked between jobs, and the
                // dispatch-to-pickup wake latency.
                if let Some((park, wake)) = pipeline.pool_phases() {
                    phases.record("park", park);
                    phases.record("wake", wake);
                }
                EngineTelemetry {
                    phases,
                    peak_step_seconds: peak_step.as_secs_f64(),
                    trace,
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observers::NullObserver;
    use crate::population::apply_nat;
    use crate::worms::{CodeRed2Worm, HitListWorm, UniformWorm};
    use hotspots_ipspace::Ip;
    use hotspots_netmodel::{Delivery, DropReason, LatencyModel};
    use hotspots_targeting::HitList;

    /// A dense population inside one /16 so uniform worms still make
    /// progress at test scale.
    fn dense_population(n: u32) -> Population {
        Population::from_public((0..n).map(|i| Ip::new(0x0b0b_0000 + i)))
    }

    fn hitlist_config() -> SimConfig {
        SimConfig {
            scan_rate: 10.0,
            seeds: 5,
            dt: 1.0,
            max_time: 2_000.0,
            stop_at_fraction: Some(0.95),
            rng_seed: 99,
            ..SimConfig::default()
        }
    }

    fn hitlist() -> HitList {
        HitList::new(vec!["11.11.0.0/16".parse().unwrap()]).unwrap()
    }

    #[test]
    fn hitlist_outbreak_infects_population() {
        let pop = dense_population(400);
        let mut engine = Engine::new(
            hitlist_config(),
            pop,
            Environment::new(),
            Box::new(HitListWorm::new(hitlist())),
        );
        let result = engine.run(&mut NullObserver);
        assert!(
            result.infected_fraction() >= 0.95,
            "only {} infected",
            result.infected_fraction()
        );
        let first = result.infection_curve.iter().next().unwrap();
        assert!((first.1 - 5.0 / 400.0).abs() < 1e-9);
        let pts: Vec<(f64, f64)> = result.infection_curve.iter().collect();
        for w in pts.windows(2) {
            assert!(w[1].1 >= w[0].1, "curve not monotone");
        }
        assert_eq!(result.removed, 0, "no removal configured");
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let mut engine = Engine::new(
                hitlist_config(),
                dense_population(300),
                Environment::new(),
                Box::new(HitListWorm::new(hitlist())),
            );
            engine.run(&mut NullObserver)
        };
        let a = run();
        let b = run();
        assert_eq!(a.probes_sent, b.probes_sent);
        assert_eq!(a.infected, b.infected);
        assert_eq!(a.infection_times, b.infection_times);
    }

    #[test]
    fn stop_fraction_halts_early() {
        let config = SimConfig {
            stop_at_fraction: Some(0.5),
            ..hitlist_config()
        };
        let mut engine = Engine::new(
            config,
            dense_population(400),
            Environment::new(),
            Box::new(HitListWorm::new(hitlist())),
        );
        let result = engine.run(&mut NullObserver);
        assert!(result.infected_fraction() >= 0.5);
        assert!(result.elapsed < 2_000.0, "did not stop early");
    }

    #[test]
    fn max_time_bounds_run() {
        let pop = dense_population(50);
        let config = SimConfig {
            scan_rate: 1.0,
            seeds: 1,
            dt: 1.0,
            max_time: 20.0,
            stop_at_fraction: None,
            rng_seed: 1,
            ..SimConfig::default()
        };
        let mut engine = Engine::new(config, pop, Environment::new(), Box::new(UniformWorm));
        let result = engine.run(&mut NullObserver);
        assert!((result.elapsed - 20.0).abs() < 1.5);
        assert_eq!(result.probes_sent, 20);
    }

    #[test]
    fn fractional_scan_rates_accumulate() {
        let pop = dense_population(50);
        let config = SimConfig {
            scan_rate: 0.25,
            seeds: 1,
            dt: 1.0,
            max_time: 40.0,
            stop_at_fraction: None,
            rng_seed: 1,
            ..SimConfig::default()
        };
        let mut engine = Engine::new(config, pop, Environment::new(), Box::new(UniformWorm));
        let result = engine.run(&mut NullObserver);
        assert_eq!(result.probes_sent, 10);
    }

    #[test]
    fn loss_injection_slows_infection() {
        let run = |loss: f64| {
            let mut env = Environment::new();
            env.set_loss(hotspots_netmodel::LossModel::new(loss).unwrap());
            let config = SimConfig {
                stop_at_fraction: Some(0.9),
                ..hitlist_config()
            };
            let mut engine = Engine::new(
                config,
                dense_population(300),
                env,
                Box::new(HitListWorm::new(hitlist())),
            );
            let result = engine.run(&mut NullObserver);
            result.time_to_fraction(0.9).unwrap_or(f64::INFINITY)
        };
        let clean = run(0.0);
        let lossy = run(0.8);
        assert!(
            lossy > clean * 1.5,
            "80% loss should clearly slow the outbreak: clean={clean} lossy={lossy}"
        );
    }

    #[test]
    fn blackhole_window_stalls_outbreak_and_is_accounted() {
        use hotspots_netmodel::{FaultEvent, FaultKind, FaultPlan, FaultWindow};
        let run = |blackhole_until: f64| {
            let mut env = Environment::new();
            if blackhole_until > 0.0 {
                let mut plan = FaultPlan::new();
                plan.push(FaultEvent::new(
                    FaultKind::Blackhole {
                        prefix: "11.11.0.0/16".parse().unwrap(),
                    },
                    FaultWindow::new(0.0, blackhole_until),
                ));
                env.set_faults(plan);
            }
            let config = SimConfig {
                stop_at_fraction: Some(0.9),
                ..hitlist_config()
            };
            let mut engine = Engine::new(
                config,
                dense_population(300),
                env,
                Box::new(HitListWorm::new(hitlist())),
            );
            engine.run(&mut NullObserver)
        };
        let clean = run(0.0);
        let faulted = run(40.0);
        // while the population prefix is blackholed nothing spreads, so
        // reaching 90% takes most of the window longer (the scanners'
        // generator state still advances during it)
        let clean_t = clean.time_to_fraction(0.9).unwrap();
        let faulted_t = faulted.time_to_fraction(0.9).unwrap();
        assert!(
            faulted_t >= clean_t + 30.0,
            "blackhole window should stall the outbreak: clean={clean_t} faulted={faulted_t}"
        );
        // every probe the blackhole consumed is filed under its verdict
        assert_eq!(
            clean
                .ledger
                .dropped(hotspots_netmodel::DropReason::UpstreamBlackhole),
            0
        );
        assert!(
            faulted
                .ledger
                .dropped(hotspots_netmodel::DropReason::UpstreamBlackhole)
                > 0
        );
        assert_eq!(
            faulted.ledger.delivered() + faulted.ledger.dropped_total(),
            faulted.ledger.probes()
        );
    }

    #[test]
    fn latency_delays_the_outbreak() {
        let run = |base: f64| {
            let mut env = Environment::new();
            env.set_latency(LatencyModel::new(base, 0.0).unwrap());
            let mut engine = Engine::new(
                hitlist_config(),
                dense_population(300),
                env,
                Box::new(HitListWorm::new(hitlist())),
            );
            let result = engine.run(&mut NullObserver);
            (
                result.time_to_fraction(0.5).unwrap_or(f64::INFINITY),
                result.infected_fraction(),
            )
        };
        let (instant, frac_a) = run(0.0);
        let (delayed, frac_b) = run(10.0);
        assert!(
            delayed > instant + 5.0,
            "10s infection latency should shift the curve: {instant} vs {delayed}"
        );
        // but not stop it
        assert!(frac_a >= 0.95 && frac_b >= 0.95);
    }

    #[test]
    fn latency_never_double_infects() {
        let mut env = Environment::new();
        env.set_latency(LatencyModel::new(0.5, 3.0).unwrap());
        let mut engine = Engine::new(
            hitlist_config(),
            dense_population(200),
            env,
            Box::new(HitListWorm::new(hitlist())),
        );
        let result = engine.run(&mut NullObserver);
        let count = result.infection_times.iter().flatten().count();
        assert_eq!(count, result.infected);
        assert!(result.infected <= 200);
    }

    #[test]
    fn removal_above_threshold_kills_the_outbreak() {
        // R0 = (scan_rate·N/Ω) / γ: with γ large the epidemic dies early.
        let run = |removal_rate: f64| {
            let config = SimConfig {
                removal_rate,
                stop_at_fraction: None,
                max_time: 3_000.0,
                ..hitlist_config()
            };
            let mut engine = Engine::new(
                config,
                dense_population(400),
                Environment::new(),
                Box::new(HitListWorm::new(hitlist())),
            );
            engine.run(&mut NullObserver)
        };
        let no_removal = run(0.0);
        assert!(no_removal.infected_fraction() > 0.9);

        // β·N = 10/65536·400 ≈ 0.061/s; γ = 0.6 → R0 ≈ 0.1 ≪ 1
        let heavy = run(0.6);
        assert!(
            heavy.infected_fraction() < 0.2,
            "super-critical removal failed to contain: {}",
            heavy.infected_fraction()
        );
        assert!(heavy.removed > 0);
        assert!(
            heavy.elapsed < 3_000.0,
            "run should end when the outbreak dies"
        );

        // sub-critical removal slows but does not stop it
        let light = run(0.005);
        assert!(light.infected_fraction() > 0.5);
        assert!(light.removed > 0);
    }

    #[test]
    fn heterogeneous_rates_preserve_determinism() {
        let run = |sigma: f64| {
            let config = SimConfig {
                scan_rate_sigma: sigma,
                ..hitlist_config()
            };
            let mut engine = Engine::new(
                config,
                dense_population(300),
                Environment::new(),
                Box::new(HitListWorm::new(hitlist())),
            );
            engine.run(&mut NullObserver)
        };
        let a = run(1.0);
        let b = run(1.0);
        assert_eq!(a.probes_sent, b.probes_sent, "dispersed runs must replay");
        assert!(a.infected_fraction() > 0.9, "dispersion should not stall");
    }

    #[test]
    fn chunked_steps_keep_the_outbreak() {
        use crate::executor::CHUNK;
        use hotspots_netmodel::{FaultEvent, FaultKind, FaultPlan, FaultWindow, LossModel};
        // Dispersed rates put bursts above a whole chunk next to many
        // small ones; loss, an outage on the other hit-list /16 and a
        // blackhole cutting the population's /16 send probes down both
        // routing lanes and the mixed-/16 fallback.
        let config = SimConfig {
            scan_rate: 800.0,
            scan_rate_sigma: 1.2,
            seeds: 5,
            max_time: 12.0,
            stop_at_fraction: Some(0.9),
            rng_seed: 4_096,
            ..SimConfig::default()
        };
        let run = |threads: usize| {
            let mut env = Environment::new();
            env.set_loss(LossModel::new(0.1).unwrap());
            let mut plan = FaultPlan::new();
            plan.push(FaultEvent::new(
                FaultKind::SensorOutage {
                    block: "66.66.0.0/16".parse().unwrap(),
                },
                FaultWindow::new(0.0, 6.0),
            ));
            plan.push(FaultEvent::new(
                FaultKind::Blackhole {
                    prefix: "11.11.1.0/24".parse().unwrap(),
                },
                FaultWindow::new(3.0, 9.0),
            ));
            env.set_faults(plan);
            let list = HitList::new(vec![
                "11.11.0.0/16".parse().unwrap(),
                "66.66.0.0/16".parse().unwrap(),
            ])
            .unwrap();
            let mut engine = Engine::new(
                SimConfig { threads, ..config },
                dense_population(400),
                env,
                Box::new(HitListWorm::new(list)),
            );
            let bursts: Vec<f64> = (0..400)
                .map(|id| engine.spawn_host(id).probes_per_step)
                .collect();
            assert!(bursts.iter().any(|&b| b > CHUNK as f64));
            assert!(bursts.iter().filter(|&&b| b < 100.0).count() > 20);
            engine.run(&mut NullObserver)
        };
        let result = run(1);
        // FNV-1a over every host's infection time (u64::MAX: never)
        let digest = result
            .infection_times
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, t| {
                (h ^ t.map_or(u64::MAX, f64::to_bits)).wrapping_mul(0x0100_0000_01b3)
            });
        // the per-burst step before chunking produced exactly these
        let ledger = &result.ledger;
        assert_eq!(ledger.probes(), 886_838);
        assert_eq!(ledger.delivered_public(), 676_566);
        assert_eq!(ledger.dropped(DropReason::PacketLoss), 74_898);
        assert_eq!(ledger.dropped(DropReason::SensorOutage), 79_446);
        assert_eq!(ledger.dropped(DropReason::UpstreamBlackhole), 55_928);
        assert_eq!(ledger.dropped_total(), 210_272);
        assert_eq!(result.infected, 369);
        assert_eq!(digest, 0x8c29_69e1_0fa7_9484);
        let pooled = run(2);
        assert_eq!(pooled.ledger, result.ledger);
        assert_eq!(pooled.infection_times, result.infection_times);
    }

    #[test]
    fn nat_blocks_external_infection_but_allows_internal() {
        let mut env = Environment::new();
        let mut nat_rng = StdRng::seed_from_u64(5);
        let publics: Vec<Ip> = (0..50u32).map(|i| Ip::new(0x0c0c_0000 + i)).collect();
        let loci = apply_nat(&mut env, &publics, 1.0, &mut nat_rng).unwrap();
        let pop = Population::from_loci(loci);
        let config = SimConfig {
            scan_rate: 50.0,
            seeds: 1,
            dt: 1.0,
            max_time: 400.0,
            stop_at_fraction: None,
            rng_seed: 3,
            ..SimConfig::default()
        };
        let mut engine = Engine::new(config, pop, env, Box::new(CodeRed2Worm));
        let result = engine.run(&mut NullObserver);
        assert_eq!(result.infected, 1);
        assert!(result.ledger.dropped(DropReason::UnroutableDestination) > 0);
    }

    #[test]
    fn infection_times_are_consistent() {
        let mut engine = Engine::new(
            hitlist_config(),
            dense_population(200),
            Environment::new(),
            Box::new(HitListWorm::new(hitlist())),
        );
        let result = engine.run(&mut NullObserver);
        let infected_count = result
            .infection_times
            .iter()
            .filter(|t| t.is_some())
            .count();
        assert_eq!(infected_count, result.infected);
        let zeros = result
            .infection_times
            .iter()
            .filter(|t| **t == Some(0.0))
            .count();
        assert_eq!(zeros, 5);
    }

    #[test]
    #[should_panic(expected = "population smaller than seed count")]
    fn seed_count_validated() {
        let _ = Engine::new(
            SimConfig {
                seeds: 100,
                ..SimConfig::default()
            },
            dense_population(10),
            Environment::new(),
            Box::new(UniformWorm),
        );
    }

    #[test]
    #[should_panic(expected = "removal_rate")]
    fn negative_removal_rate_rejected() {
        let _ = Engine::new(
            SimConfig {
                removal_rate: -0.1,
                ..SimConfig::default()
            },
            dense_population(30),
            Environment::new(),
            Box::new(UniformWorm),
        );
    }

    #[test]
    fn ledger_accounts_for_every_probe() {
        let mut env = Environment::new();
        env.set_loss(hotspots_netmodel::LossModel::new(0.3).unwrap());
        let mut engine = Engine::new(
            hitlist_config(),
            dense_population(200),
            env,
            Box::new(HitListWorm::new(hitlist())),
        );
        let result = engine.run(&mut NullObserver);
        assert_eq!(result.ledger.probes(), result.probes_sent);
        assert_eq!(
            result.ledger.delivered() + result.ledger.dropped_total(),
            result.probes_sent
        );
        assert!(result.ledger.dropped(DropReason::PacketLoss) > 0);
    }

    #[test]
    fn every_run_collects_phase_times() {
        let mut engine = Engine::new(
            hitlist_config(),
            dense_population(200),
            Environment::new(),
            Box::new(HitListWorm::new(hitlist())),
        );
        let result = engine.run(&mut NullObserver);
        let tel = &result.telemetry;
        for phase in ["target_gen", "routing", "lookup", "observe", "merge"] {
            assert_eq!(tel.phases.spans(phase), 1, "{phase} missing");
        }
        assert!(tel.peak_step_seconds > 0.0);
        assert!(tel.trace.is_none(), "no trace unless SimConfig::trace");
    }

    #[test]
    fn trace_spans_are_balanced_and_deterministic() {
        let run_once = || {
            let mut engine = Engine::new(
                SimConfig {
                    trace: true,
                    ..hitlist_config()
                },
                dense_population(200),
                Environment::new(),
                Box::new(HitListWorm::new(hitlist())),
            );
            engine.run(&mut NullObserver)
        };
        let a = run_once();
        let b = run_once();
        let ta = a.telemetry.trace.as_ref().expect("trace requested");
        let tb = b.telemetry.trace.as_ref().expect("trace requested");
        assert!(ta.is_balanced(), "open/close spans must balance");
        assert!(!ta.is_empty());
        let names: Vec<&str> = ta.spans().iter().map(|s| s.name).collect();
        for expected in [
            "run",
            "step",
            "target_gen",
            "routing",
            "lookup",
            "observe",
            "merge",
        ] {
            assert!(names.contains(&expected), "missing {expected} span");
        }
        // Determinism contract: identical runs produce identical span
        // sequences — IDs, names, coordinates — differing only in the
        // dur_micros timing fields.
        let shape = |t: &hotspots_telemetry::TraceSink| {
            t.spans()
                .iter()
                .map(|s| (s.id, s.name, s.step, s.shard, s.track, s.depth, s.parent))
                .collect::<Vec<_>>()
        };
        assert_eq!(shape(ta), shape(tb));
    }

    #[test]
    fn trace_attributes_shards_in_parallel_runs() {
        let mut engine = Engine::new(
            SimConfig {
                trace: true,
                threads: 4,
                ..hitlist_config()
            },
            dense_population(200),
            Environment::new(),
            Box::new(HitListWorm::new(hitlist())),
        );
        let result = engine.run(&mut NullObserver);
        let trace = result.telemetry.trace.as_ref().expect("trace requested");
        assert!(trace.is_balanced());
        let shards: std::collections::BTreeSet<u32> = trace
            .spans()
            .iter()
            .filter(|s| s.name == "target_gen")
            .map(|s| s.shard)
            .collect();
        assert!(
            shards.len() > 1,
            "expected multi-shard attribution, got {shards:?}"
        );
        assert!(result.telemetry.phases.total("merge") > Duration::ZERO);
    }

    #[test]
    fn observer_sees_every_delivered_probe() {
        #[derive(Default)]
        struct Counter(u64);
        impl SimObserver for Counter {
            fn on_probe_batch(&mut self, _t: f64, probes: &[(Ip, Delivery)]) {
                for &(_, delivery) in probes {
                    assert!(!matches!(delivery, Delivery::Dropped(_)), "{delivery:?}");
                }
                self.0 += probes.len() as u64;
            }
        }
        let pop = dense_population(50);
        let config = SimConfig {
            scan_rate: 3.0,
            seeds: 2,
            dt: 1.0,
            max_time: 10.0,
            stop_at_fraction: None,
            rng_seed: 8,
            ..SimConfig::default()
        };
        let mut engine = Engine::new(config, pop, Environment::new(), Box::new(UniformWorm));
        let mut counter = Counter::default();
        let result = engine.run(&mut counter);
        assert_eq!(counter.0, result.ledger.delivered());
        // uniform targets hit unroutable space, so some probes dropped
        assert!(counter.0 < result.probes_sent);
    }
}
