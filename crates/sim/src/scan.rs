//! The scan driver: one scanning host's probes through the engine's
//! probe stages, for the measurement studies.
//!
//! The Figure 3, Figure 4 and Table 2 studies watch hosts scan into a
//! telescope instead of running an outbreak: nothing gets infected, so
//! the engine's victim lookup and merge have nothing to do. The probe
//! path is the same, though. [`Scan`] runs stages 1–2 with the chunk
//! size and the fill and route steps `drive_shard` runs (draw targets,
//! then route them: delivered probes into records, every verdict into
//! the ledger), then hands each chunk's delivered records to the
//! observer through [`SimObserver::on_probe_batch`], as the engine's
//! stage 4 does. Drops live in the ledger alone. Its phase totals carry
//! the engine's names.

use std::time::Duration;

use hotspots_netmodel::{DeliveryLedger, Environment, Locus, Service};
use hotspots_targeting::TargetGenerator;
use hotspots_telemetry::{PhaseTimes, Timer};
use rand::Rng;

use crate::executor::{ProbeBatch, CHUNK};
use crate::observers::SimObserver;

/// Drives scanning hosts' probes through the engine's stages at
/// simulation time 0, accumulating every verdict and phase time across
/// [`Scan::run`] calls.
///
/// # Examples
///
/// ```
/// use hotspots_ipspace::Ip;
/// use hotspots_netmodel::{Environment, Locus, Service};
/// use hotspots_prng::SplitMix;
/// use hotspots_sim::{NullObserver, Scan};
/// use hotspots_targeting::UniformScanner;
/// use rand::SeedableRng;
///
/// let mut scan = Scan::new();
/// let mut worm = UniformScanner::new(SplitMix::new(7));
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let host = Locus::Public(Ip::from_octets(57, 20, 3, 9));
/// let env = Environment::new();
/// scan.run(&env, host, &mut worm, Service::CODERED_HTTP, 10_000, &mut rng, &mut NullObserver);
/// let result = scan.finish();
/// assert_eq!(result.ledger.probes(), 10_000);
/// assert_eq!(result.phases.spans("routing"), 1);
/// ```
#[derive(Debug, Default)]
pub struct Scan {
    batch: ProbeBatch,
    observe: Duration,
}

impl Scan {
    /// A driver with an empty ledger and zero phase times.
    pub fn new() -> Scan {
        Scan::default()
    }

    /// Sends `probes` probes from the host at `locus`, drawn from
    /// `generator`, through `env` on `service`: the delivered ones reach
    /// `observer`, and every verdict is filed in the scan's ledger.
    ///
    /// `rng` is the stream routing draws loss from; an environment
    /// without loss or faults draws nothing from it.
    #[allow(clippy::too_many_arguments)] // the probe context the engine's burst step takes, plus the observer
    pub fn run<G, R, O>(
        &mut self,
        env: &Environment,
        locus: Locus,
        generator: &mut G,
        service: Service,
        probes: u64,
        rng: &mut R,
        observer: &mut O,
    ) where
        G: TargetGenerator + ?Sized,
        R: Rng + ?Sized,
        O: SimObserver + ?Sized,
    {
        let mut left = probes;
        while left > 0 {
            let n = left.min(CHUNK as u64);
            left -= n;
            self.batch.probes.clear();
            let timer = Timer::start();
            self.batch.targets.clear();
            let burst = self.batch.fill(generator, n as usize);
            let t_gen = timer.elapsed();
            self.batch.route(env, locus, service, 0.0, burst, rng);
            let t_route = timer.elapsed();
            self.batch.add_stage_times(t_gen, t_route);
            observer.on_probe_batch(0.0, &self.batch.probes);
            self.observe += timer.elapsed().saturating_sub(t_route);
        }
    }

    /// Ends the scan: the verdict ledger over every probe routed and
    /// the `target_gen`, `routing` and `observe` wall totals.
    pub fn finish(self) -> ScanResult {
        let mut phases = PhaseTimes::new();
        phases.record("target_gen", self.batch.target_gen);
        phases.record("routing", self.batch.routing);
        phases.record("observe", self.observe);
        ScanResult {
            ledger: self.batch.ledger,
            phases,
        }
    }
}

/// What a [`Scan`] accounted: the study-side counterpart of
/// [`crate::SimResult`]'s ledger and phase times.
#[derive(Debug, Clone)]
pub struct ScanResult {
    /// Every probe's verdict.
    pub ledger: DeliveryLedger,
    /// Wall totals of the `target_gen`, `routing` and `observe` stages.
    pub phases: PhaseTimes,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::apply_nat;
    use hotspots_ipspace::{ims_deployment, Ip};
    use hotspots_netmodel::{
        Delivery, DropReason, FaultEvent, FaultKind, FaultPlan, FaultWindow, FilterRule, LossModel,
    };
    use hotspots_prng::{SplitMix, SqlsortDll};
    use hotspots_targeting::{CodeRed2Scanner, SlammerScanner};
    use hotspots_telescope::Observatory;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The scalar loop the studies ran before the driver existed, kept
    /// as the reference: one target, one verdict, one observation.
    #[allow(clippy::too_many_arguments)]
    fn scalar_scan(
        env: &Environment,
        locus: Locus,
        generator: &mut dyn TargetGenerator,
        service: Service,
        probes: u64,
        rng: &mut StdRng,
        observatory: &mut Observatory,
        ledger: &mut DeliveryLedger,
    ) {
        let src = locus.public_source(env);
        for _ in 0..probes {
            let verdict = env.route(locus, generator.next_target(), service, 0.0, rng);
            ledger.record(verdict);
            if let Delivery::Public(dst) = verdict {
                observatory.observe(0.0, src, dst);
            }
        }
    }

    /// A CodeRedII and a Slammer scanner for the host at `locus`.
    fn scanners(locus: Locus, mix: &mut SplitMix) -> [(Box<dyn TargetGenerator>, Service); 2] {
        let crii = CodeRed2Scanner::new(locus.local_address(), SplitMix::new(mix.next_u64()));
        let dll = SqlsortDll::ALL[(mix.next_u64() % 3) as usize];
        let slam = SlammerScanner::new(dll, mix.next_u64() as u32);
        [
            (Box::new(crii), Service::CODERED_HTTP),
            (Box::new(slam), Service::SLAMMER_SQL),
        ]
    }

    /// Keeps every record it is handed, in order.
    #[derive(Default)]
    struct Records(Vec<(Ip, Delivery)>);

    impl SimObserver for Records {
        fn on_probe_batch(&mut self, _time: f64, probes: &[(Ip, Delivery)]) {
            self.0.extend_from_slice(probes);
        }
    }

    proptest! {
        #[test]
        fn scan_hands_its_observer_the_delivered_probes(
            seed in any::<u64>(),
            probes in CHUNK as u64 / 2..3 * CHUNK as u64,
        ) {
            // Egress filters and faults in effect at the scan's time 0,
            // once without and once with base loss: each drop class is
            // filed in the ledger, and the observer gets exactly the
            // delivered verdicts `Environment::route` gives, in order.
            let mut env = Environment::new();
            let mut nat_rng = StdRng::seed_from_u64(seed);
            let natted = [Ip::from_octets(57, 20, 3, 9)];
            let public = [Ip::from_octets(57, 31, 0, 200), Ip::from_octets(130, 10, 1, 1)];
            let mut loci = apply_nat(&mut env, &natted, 1.0, &mut nat_rng).unwrap();
            loci.extend(apply_nat(&mut env, &public, 0.0, &mut nat_rng).unwrap());
            env.filters_mut()
                .push(FilterRule::egress("57.0.0.0/8".parse().unwrap(), None));
            let mut faults = FaultPlan::new();
            for kind in [
                FaultKind::Blackhole { prefix: "200.0.0.0/5".parse().unwrap() },
                // Both halves of the public scanner's own /16, where its
                // CodeRedII scanner aims 3 probes in 8.
                FaultKind::SensorOutage { block: "130.10.0.0/17".parse().unwrap() },
                FaultKind::DegradedLoss { prefix: "130.10.128.0/17".parse().unwrap(), rate: 0.5 },
            ] {
                faults.push(FaultEvent::new(kind, FaultWindow::new(0.0, 1.0)));
            }
            env.set_faults(faults);
            for loss in [0.0, 0.2] {
                env.set_loss(LossModel::new(loss).unwrap());
                let mut want = Vec::new();
                let mut want_ledger = DeliveryLedger::new();
                let mut want_rng = StdRng::seed_from_u64(seed ^ 1);
                let mut seen = Records::default();
                let mut scan = Scan::new();
                let mut rng = StdRng::seed_from_u64(seed ^ 1);
                let (mut mix_a, mut mix_b) = (SplitMix::new(seed), SplitMix::new(seed));
                for &locus in &loci {
                    let src = locus.public_source(&env);
                    let pairs = scanners(locus, &mut mix_a).into_iter().zip(scanners(locus, &mut mix_b));
                    for ((mut scalar, service), (mut batched, _)) in pairs {
                        for _ in 0..probes {
                            let verdict =
                                env.route(locus, scalar.next_target(), service, 0.0, &mut want_rng);
                            want_ledger.record(verdict);
                            if !matches!(verdict, Delivery::Dropped(_)) {
                                want.push((src, verdict));
                            }
                        }
                        scan.run(&env, locus, batched.as_mut(), service, probes, &mut rng, &mut seen);
                    }
                }
                let result = scan.finish();
                prop_assert_eq!(seen.0.len() as u64, result.ledger.delivered());
                prop_assert_eq!(&seen.0, &want);
                prop_assert_eq!(result.ledger, want_ledger);
                prop_assert_eq!(rng.gen::<u64>(), want_rng.gen::<u64>());
                prop_assert!(result.ledger.delivered() < result.ledger.probes());
                prop_assert!(result.ledger.dropped(DropReason::EgressFiltered) > 0);
                for reason in [
                    DropReason::UpstreamBlackhole,
                    DropReason::SensorOutage,
                    DropReason::DegradedLoss,
                ] {
                    prop_assert!(result.ledger.dropped(reason) > 0, "no {} drops", reason);
                }
                prop_assert!(result.ledger.delivered_local() > 0);
            }
        }

        #[test]
        fn scan_matches_the_scalar_study_loop(
            seed in any::<u64>(),
            whole_chunks in 0u64..3,
            rest in 1u64..CHUNK as u64,
        ) {
            // Never a multiple of the chunk size: the last chunk is short.
            let probes = whole_chunks * CHUNK as u64 + rest;
            // Two hosts behind home NATs at 192.168.x.y and two public
            // ones; an egress filter over the 57/8 enterprise holds one
            // of each.
            let mut env = Environment::new();
            let mut nat_rng = StdRng::seed_from_u64(seed);
            let natted = [Ip::from_octets(57, 20, 3, 9), Ip::from_octets(8, 8, 4, 4)];
            let public = [Ip::from_octets(57, 31, 0, 200), Ip::from_octets(130, 10, 1, 1)];
            let mut loci = apply_nat(&mut env, &natted, 1.0, &mut nat_rng).unwrap();
            loci.extend(apply_nat(&mut env, &public, 0.0, &mut nat_rng).unwrap());
            env.filters_mut()
                .push(FilterRule::egress("57.0.0.0/8".parse().unwrap(), None));

            let mut reference = Observatory::new(ims_deployment());
            let mut reference_ledger = DeliveryLedger::new();
            let mut reference_rng = StdRng::seed_from_u64(seed ^ 1);
            let mut observatory = Observatory::new(ims_deployment());
            let mut scan = Scan::new();
            let mut rng = StdRng::seed_from_u64(seed ^ 1);
            let (mut mix_a, mut mix_b) = (SplitMix::new(seed), SplitMix::new(seed));
            for &locus in &loci {
                let pairs = scanners(locus, &mut mix_a).into_iter().zip(scanners(locus, &mut mix_b));
                for ((mut scalar, service), (mut batched, _)) in pairs {
                    scalar_scan(
                        &env,
                        locus,
                        scalar.as_mut(),
                        service,
                        probes,
                        &mut reference_rng,
                        &mut reference,
                        &mut reference_ledger,
                    );
                    scan.run(
                        &env,
                        locus,
                        batched.as_mut(),
                        service,
                        probes,
                        &mut rng,
                        &mut observatory,
                    );
                }
            }
            let result = scan.finish();
            prop_assert_eq!(result.ledger, reference_ledger);
            prop_assert_eq!(result.ledger.probes(), probes * 2 * loci.len() as u64);
            // the environment's NAT and egress arms are exercised
            prop_assert!(result.ledger.delivered_local() > 0);
            prop_assert!(result.ledger.dropped(DropReason::EgressFiltered) > 0);
            for ((_, log), (_, want)) in observatory.iter().zip(reference.iter()) {
                prop_assert_eq!(log, want);
            }
            // both routing streams were drawn alike
            prop_assert_eq!(rng.gen::<u64>(), reference_rng.gen::<u64>());
        }
    }
}
