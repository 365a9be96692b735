//! Figure 4: CodeRedII, NATs, and the 192/8 hotspot.

use hotspots_ipspace::{ims_deployment, special, AddressBlock, Deployment, Ip};
use hotspots_netmodel::{Delivery, DeliveryLedger, Environment, Locus, Service};
use hotspots_prng::SplitMix;
use hotspots_sim::{apply_nat, PopulationError};
use hotspots_stats::CountHistogram;
use hotspots_targeting::{CodeRed2Scanner, TargetGenerator};
use hotspots_telescope::Observatory;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::scenarios::{figure_buckets, CoverageRow};

/// Configuration for the CodeRedII measurement study.
#[derive(Debug, Clone, Copy)]
pub struct CodeRedStudy {
    /// Number of persistently infected hosts.
    pub hosts: usize,
    /// Fraction of hosts behind home NATs at `192.168.x.y`
    /// (the paper's estimate: 15%).
    pub nat_fraction: f64,
    /// Probes each host sends during the observation window.
    pub probes_per_host: u64,
    /// Master seed.
    pub rng_seed: u64,
}

impl Default for CodeRedStudy {
    fn default() -> CodeRedStudy {
        CodeRedStudy {
            hosts: 12_000,
            nat_fraction: 0.15,
            probes_per_host: 20_000,
            rng_seed: 0xc0de_4ed2,
        }
    }
}

/// Draws the study's public host addresses and moves `nat_fraction` of
/// them behind home NATs. Returns the environment holding the realms,
/// the hosts' loci, and the stream positioned after the draw.
///
/// Every drawn address is globally routable, so the NAT deployment's
/// gateway check cannot fail here; its error is passed on, not assumed
/// away.
fn natted_hosts(
    study: &CodeRedStudy,
) -> Result<(Environment, Vec<Locus>, StdRng), PopulationError> {
    let mut rng = StdRng::seed_from_u64(study.rng_seed);
    let mut addrs = Vec::with_capacity(study.hosts);
    while addrs.len() < study.hosts {
        let ip = Ip::new(rng.gen());
        if special::is_globally_routable(ip) {
            addrs.push(ip);
        }
    }
    let mut env = Environment::new();
    let loci = apply_nat(&mut env, &addrs, study.nat_fraction, &mut rng)?;
    Ok((env, loci, rng))
}

/// Runs the study: a mixed public/NATed CodeRedII population scans
/// through the environment into an observatory over `blocks`; returns
/// the Figure 4(a) rows (unique sources per monitored /24, /16 for Z;
/// pass [`ims_deployment`] for the paper's setup) and the verdict
/// ledger over every probe the population routed (NAT-leaked local
/// deliveries and unroutable private-space drops included).
///
/// # Errors
///
/// The NAT deployment's [`PopulationError`] (see [`apply_nat`]).
pub fn sources_by_block(
    study: &CodeRedStudy,
    blocks: &[AddressBlock],
) -> Result<(Vec<CoverageRow>, DeliveryLedger), PopulationError> {
    let mut ledger = DeliveryLedger::new();
    assert!(
        (0.0..=1.0).contains(&study.nat_fraction),
        "NAT fraction out of range"
    );
    let (env, loci, mut rng) = natted_hosts(study)?;

    let mut observatory = Observatory::new(blocks.to_vec());
    let mut mix = SplitMix::new(study.rng_seed ^ 0xfeed);
    for locus in &loci {
        let mut worm = CodeRed2Scanner::new(locus.local_address(), SplitMix::new(mix.next_u64()));
        let public_src = locus.public_source(&env);
        for _ in 0..study.probes_per_host {
            let target = worm.next_target();
            let verdict = env.route(*locus, target, Service::CODERED_HTTP, 0.0, &mut rng);
            ledger.record(verdict);
            if let Delivery::Public(dst) = verdict {
                observatory.observe(0.0, public_src, dst);
            }
        }
    }

    // Read the per-bucket unique-source counts out of the observatory.
    let per_block: std::collections::HashMap<&str, CountHistogram<hotspots_ipspace::Bucket24>> =
        observatory
            .iter()
            .map(|(b, log)| (b.label(), log.sources_by_bucket24()))
            .collect();
    let rows = figure_buckets(blocks)
        .into_iter()
        .map(|(block, prefix)| {
            let hist = &per_block[block.as_str()];
            // /16 rows aggregate their /24 buckets; /24 rows are direct
            let unique_sources = if prefix.len() >= 24 {
                hist.count(&hotspots_ipspace::Bucket24::of(prefix.base()))
            } else {
                hist.iter()
                    .filter(|(bucket, _)| prefix.contains(bucket.first_ip()))
                    .map(|(_, c)| c)
                    .sum()
            };
            CoverageRow {
                block,
                prefix,
                unique_sources,
            }
        })
        .collect();
    Ok((rows, ledger))
}

/// The paper's per-host observation: "propagation distributions from
/// individual CodeRedII infected hosts reveal two classes of behavior: a
/// uniform scanning behavior, and a scanning behavior with a large bias
/// for the M block."
#[derive(Debug, Clone)]
pub struct BehaviorClassification {
    /// Observed sources whose telescope traffic is M-block-heavy (the
    /// NATed class).
    pub m_biased: Vec<Ip>,
    /// Observed sources with telescope-wide (uniform-ish) traffic.
    pub uniformish: Vec<Ip>,
    /// Ground truth: the public source addresses (gateways) of the hosts
    /// the study actually placed behind NATs.
    pub truly_natted: std::collections::HashSet<Ip>,
}

impl BehaviorClassification {
    /// Fraction of classified sources whose class matches the ground
    /// truth.
    pub fn accuracy(&self) -> f64 {
        let correct = self
            .m_biased
            .iter()
            .filter(|ip| self.truly_natted.contains(ip))
            .count()
            + self
                .uniformish
                .iter()
                .filter(|ip| !self.truly_natted.contains(ip))
                .count();
        let total = self.m_biased.len() + self.uniformish.len();
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }
}

/// Classifies observed CodeRedII sources by their M-block share, exactly
/// as the paper infers NATed hosts from scan-profile bias. A source is
/// `m_biased` when more than `m_share_threshold` of its telescope hits
/// land in the M block (a NATed host's /8-preference probes reach M at
/// ~1000× the rate a public host's random probes do).
///
/// Only sources with at least 5 telescope hits are classified (the paper
/// could not classify barely-seen hosts either).
///
/// # Errors
///
/// As [`sources_by_block`].
pub fn classify_sources(
    study: &CodeRedStudy,
    m_share_threshold: f64,
) -> Result<BehaviorClassification, PopulationError> {
    assert!(
        (0.0..1.0).contains(&m_share_threshold),
        "threshold out of range"
    );
    let blocks = ims_deployment();
    let m_prefix = blocks
        .by_label("M")
        .expect("IMS deployment has an M block") // hotspots-lint: allow(panic-path) reason="IMS deployment has an M block"
        .prefix();
    let (env, loci, mut rng) = natted_hosts(study)?;
    let truly_natted: std::collections::HashSet<Ip> = loci
        .iter()
        .filter(|l| matches!(l, Locus::Private { .. }))
        .map(|l| l.public_source(&env))
        .collect();

    let index = hotspots_telescope::BlockIndex::new(blocks.iter().map(|b| b.prefix()).collect());
    let mut mix = SplitMix::new(study.rng_seed ^ 0xfeed);
    let mut m_biased = Vec::new();
    let mut uniformish = Vec::new();
    for locus in &loci {
        let mut worm = CodeRed2Scanner::new(locus.local_address(), SplitMix::new(mix.next_u64()));
        let mut m_hits = 0u64;
        let mut total_hits = 0u64;
        for _ in 0..study.probes_per_host {
            if let Delivery::Public(dst) = env.route(
                *locus,
                worm.next_target(),
                Service::CODERED_HTTP,
                0.0,
                &mut rng,
            ) {
                if index.find(dst).is_some() {
                    total_hits += 1;
                    if m_prefix.contains(dst) {
                        m_hits += 1;
                    }
                }
            }
        }
        if total_hits < 5 {
            continue; // unclassifiable, like the paper's barely-seen hosts
        }
        let source = locus.public_source(&env);
        if m_hits as f64 / total_hits as f64 > m_share_threshold {
            m_biased.push(source);
        } else {
            uniformish.push(source);
        }
    }
    Ok(BehaviorClassification {
        m_biased,
        uniformish,
        truly_natted,
    })
}

/// Figure 4(b)/(c): the quarantine experiment — one captured CodeRedII
/// instance in a honeypot with the given source address, run for
/// `probes` infection attempts; returns probe counts per monitored /24.
///
/// The paper ran 7,567,093 attempts from a non-192/8 host (4b) and
/// 7,567,361 from `192.168.0.100` (4c).
pub fn quarantine_run(
    source: Ip,
    probes: u64,
    blocks: &[AddressBlock],
    rng_seed: u64,
) -> CountHistogram<hotspots_ipspace::Bucket24> {
    let index = hotspots_telescope::BlockIndex::new(blocks.iter().map(|b| b.prefix()).collect());
    let mut worm = CodeRed2Scanner::new(source, SplitMix::new(rng_seed));
    let mut hist = CountHistogram::new();
    for _ in 0..probes {
        let t = worm.next_target();
        if index.find(t).is_some() {
            hist.record(t.bucket24());
        }
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::totals_by_block;

    fn small_study() -> CodeRedStudy {
        CodeRedStudy {
            hosts: 1_500,
            nat_fraction: 0.15,
            probes_per_host: 6_000,
            rng_seed: 11,
        }
    }

    #[test]
    fn accounted_ledger_balances_and_sees_nat_leakage() {
        let study = small_study();
        let (_, ledger) = sources_by_block(&study, &ims_deployment()).unwrap();
        assert_eq!(ledger.probes(), study.hosts as u64 * study.probes_per_host);
        assert_eq!(ledger.delivered() + ledger.dropped_total(), ledger.probes());
        // NATed hosts' /8-preferring probes hit their own private realm
        // (local deliveries) and foreign private space (unroutable)
        assert!(ledger.delivered_local() > 0);
        assert!(ledger.dropped(hotspots_netmodel::DropReason::UnroutableDestination) > 0);
    }

    #[test]
    fn m_block_is_the_hotspot() {
        // Figure 4a: the M block (inside 192/8) sees far more unique
        // sources per monitored /24 than comparable blocks, because
        // NATed hosts' /8-preference probes leak into public 192/8.
        let (rows, _) = sources_by_block(&small_study(), &ims_deployment()).unwrap();
        let totals: std::collections::HashMap<String, u64> =
            totals_by_block(&rows).into_iter().collect();
        // per-/24 normalization (M is a /22 = 4 /24s)
        let m = totals["M"] as f64 / 4.0;
        for (label, slash24s) in [("D", 16.0), ("E", 8.0), ("F", 4.0), ("H", 64.0)] {
            let other = totals[label] as f64 / slash24s;
            assert!(
                m > 3.0 * other.max(0.1),
                "M per-/24 rate {m} not clearly above {label} rate {other}"
            );
        }
    }

    #[test]
    fn without_nat_no_m_hotspot() {
        let study = CodeRedStudy {
            nat_fraction: 0.0,
            ..small_study()
        };
        let (rows, _) = sources_by_block(&study, &ims_deployment()).unwrap();
        let totals: std::collections::HashMap<String, u64> =
            totals_by_block(&rows).into_iter().collect();
        let m = totals["M"] as f64 / 4.0;
        let d = totals["D"] as f64 / 16.0;
        // with no NATed hosts, M behaves like any other block
        assert!(
            m < 3.0 * (d + 1.0),
            "M rate {m} suspiciously hot without NAT (D rate {d})"
        );
    }

    #[test]
    fn quarantine_192_168_source_spikes_m() {
        // Figure 4b vs 4c at reduced probe count.
        let blocks = ims_deployment();
        let outside = quarantine_run(Ip::from_octets(57, 20, 3, 9), 400_000, &blocks, 5);
        let natted = quarantine_run(Ip::from_octets(192, 168, 0, 100), 400_000, &blocks, 5);
        let m_prefix: hotspots_ipspace::Prefix = "192.40.16.0/22".parse().unwrap();
        let m_hits = |h: &CountHistogram<hotspots_ipspace::Bucket24>| -> u64 {
            h.iter()
                .filter(|(b, _)| m_prefix.contains(b.first_ip()))
                .map(|(_, c)| c)
                .sum()
        };
        let outside_m = m_hits(&outside);
        let natted_m = m_hits(&natted);
        assert!(
            natted_m > 10 * (outside_m + 1),
            "192.168 quarantine M hits {natted_m} vs outside {outside_m}"
        );
    }

    #[test]
    fn quarantine_outside_source_rarely_reaches_sensors() {
        // Figure 4b's text: 7.5M attempts, yet "only a small number of
        // attempts reach the monitored blocks" (local preference).
        let blocks = ims_deployment();
        let hist = quarantine_run(Ip::from_octets(57, 20, 3, 9), 200_000, &blocks, 9);
        let rate = hist.total() as f64 / 200_000.0;
        // 1/8 random probes × ~0.4% monitored space ≈ 5e-4, far below 1%
        assert!(rate < 0.01, "sensor hit rate {rate} too high");
    }

    #[test]
    fn behavior_classes_recover_the_natted_hosts() {
        // long per-host observation so the per-source M-share is
        // statistically meaningful
        let study = CodeRedStudy {
            hosts: 250,
            nat_fraction: 0.2,
            probes_per_host: 150_000,
            rng_seed: 77,
        };
        let classes = classify_sources(&study, 0.02).unwrap();
        assert!(!classes.m_biased.is_empty(), "no biased class found");
        assert!(!classes.uniformish.is_empty(), "no uniform class found");
        let acc = classes.accuracy();
        assert!(acc > 0.85, "classification accuracy {acc}");
        // the two classes exist, as the paper observed
        let biased_natted = classes
            .m_biased
            .iter()
            .filter(|ip| classes.truly_natted.contains(ip))
            .count();
        assert!(
            biased_natted * 2 > classes.m_biased.len(),
            "biased class should be dominated by NATed gateways"
        );
    }

    #[test]
    fn study_is_deterministic() {
        let a = sources_by_block(&small_study(), &ims_deployment()).unwrap();
        let b = sources_by_block(&small_study(), &ims_deployment()).unwrap();
        assert_eq!(a, b);
    }
}
