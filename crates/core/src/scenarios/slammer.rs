//! Figures 2 and 3: Slammer's cycle-driven hotspots.
//!
//! Over an observation window much longer than a cycle traversal (the
//! paper observed for over a month while Slammer scanned thousands of
//! probes per second), an infected host is seen at a monitored /24 **iff
//! its PRNG cycle passes through that /24**. That turns the unique-source
//! figure into exact set arithmetic over the algebraic cycle
//! decomposition — no probe loop: classify every monitored bucket's
//! cycles once, bucket the host population by (DLL, cycle), and join.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use hotspots_ipspace::{ims_deployment, AddressBlock, Bucket24, Deployment, Ip, Prefix};
use hotspots_netmodel::{Environment, Locus, Service};
use hotspots_prng::cycles::{AffineMap, CycleBand, CycleId};
use hotspots_prng::{SplitMix, SqlsortDll};
use hotspots_sim::{BucketHits, Scan, ScanResult};
use hotspots_stats::CountHistogram;
use hotspots_targeting::SlammerScanner;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::scenarios::{figure_buckets, CoverageRow};

/// Configuration for the Slammer measurement study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlammerStudy {
    /// Number of persistently infected Slammer hosts (the paper observed
    /// tens of thousands of unique sources).
    pub hosts: usize,
    /// Apply the paper's upstream block: the M block's provider drops
    /// UDP/1434 toward it, so the telescope sees no Slammer there.
    pub m_block_filter: bool,
    /// Master seed.
    pub rng_seed: u64,
}

impl Default for SlammerStudy {
    fn default() -> SlammerStudy {
        SlammerStudy {
            hosts: 75_000,
            m_block_filter: false,
            rng_seed: 0x51a3_3e12,
        }
    }
}

impl SlammerStudy {
    /// The prefix the upstream filter hides, if the study installs it:
    /// the IMS deployment's M block.
    // hotspots-lint: certifies(panic-free) reason="the IMS deployment literal always carries an M block"
    fn filtered_prefix(&self) -> Option<Prefix> {
        self.m_block_filter.then(|| {
            ims_deployment()
                .by_label("M")
                .expect("IMS deployment has an M block")
                .prefix()
        })
    }
}

/// The population keyed the way the mathematics wants it: how many hosts
/// run each DLL variant on each cycle.
pub type CyclePopulation = HashMap<(SqlsortDll, CycleId), u64>;

/// Draws `hosts` infected hosts (uniform DLL mix, uniform 32-bit seeds)
/// and buckets them by the cycle their trajectory lives on.
// hotspots-lint: certifies(panic-free) reason="slammer maps support every cycle id they enumerate"
pub fn draw_cycle_population(study: &SlammerStudy) -> CyclePopulation {
    let maps: Vec<(SqlsortDll, AffineMap)> = SqlsortDll::ALL
        .iter()
        .map(|&dll| (dll, AffineMap::slammer(dll)))
        .collect();
    let mut mix = SplitMix::new(study.rng_seed);
    let mut pop: CyclePopulation = HashMap::new();
    for _ in 0..study.hosts {
        let (dll, map) = &maps[(mix.next_u64() % 3) as usize];
        let seed = mix.next_u64() as u32;
        // the trajectory enters its cycle at the first step
        let id = map
            .cycle_id(map.apply(seed))
            .expect("slammer maps support cycle ids");
        *pop.entry((*dll, id)).or_insert(0) += 1;
    }
    pop
}

/// The set of cycles (per DLL) whose target addresses enter `prefix`.
// hotspots-lint: certifies(panic-free) reason="the cycle map covers every 32-bit state"
pub fn cycles_through(prefix: Prefix) -> BTreeMap<SqlsortDll, BTreeSet<CycleId>> {
    let mut out = BTreeMap::new();
    for dll in SqlsortDll::ALL {
        let map = AffineMap::slammer(dll);
        // A /24 (or /16) pins the low state bits, so the valuation — and
        // with it the cycle id — is constant across almost the whole
        // bucket; sampling a spread of addresses plus exhaustive /24
        // handling keeps this both fast and exact.
        let ids: BTreeSet<CycleId> = if prefix.size() <= 256 {
            prefix
                .iter()
                .map(|ip| map.cycle_id(ip.to_le_state()).expect("valid map"))
                .collect()
        } else {
            // sample boundaries and a stride; valuations can only differ
            // at addresses whose low-bit offset degenerates, which the
            // stride + boundary sample catches in practice (verified
            // against exhaustive /24 scans in tests)
            let step = (prefix.size() / 512).max(1);
            (0..prefix.size())
                .step_by(step as usize)
                .chain([prefix.size() - 1])
                .map(|i| {
                    map.cycle_id(prefix.nth(i).to_le_state())
                        .expect("valid map")
                })
                .collect()
        };
        out.insert(dll, ids);
    }
    out
}

/// Runs the study: unique Slammer sources per monitored bucket, with
/// filtering applied (Figure 2; pass [`ims_deployment`] for the paper's
/// setup).
pub fn sources_by_block(study: &SlammerStudy, blocks: &[AddressBlock]) -> Vec<CoverageRow> {
    let pop = draw_cycle_population(study);
    let filtered = study.filtered_prefix();
    figure_buckets(blocks)
        .into_iter()
        .map(|(block, prefix)| {
            // upstream ingress filter kills observation entirely
            let unique_sources = if filtered.is_some_and(|f| f.contains(prefix.base())) {
                0
            } else {
                cycles_through(prefix)
                    .iter()
                    .flat_map(|(dll, ids)| {
                        ids.iter()
                            .map(|id| pop.get(&(*dll, *id)).copied().unwrap_or(0))
                    })
                    .sum()
            };
            CoverageRow {
                block,
                prefix,
                unique_sources,
            }
        })
        .collect()
}

/// Block-level unique Slammer sources: the number of hosts whose cycle
/// enters the block *anywhere* (each host counted once per block, unlike
/// the per-/24 rows of [`sources_by_block`], where one host legitimately
/// appears under many /24s).
pub fn unique_sources_per_block(
    study: &SlammerStudy,
    blocks: &[AddressBlock],
) -> Vec<(String, u64)> {
    let pop = draw_cycle_population(study);
    let filtered = study.filtered_prefix();
    blocks
        .iter()
        .map(|block| {
            if filtered.is_some_and(|f| f.contains(block.prefix().base())) {
                return (block.label().to_owned(), 0);
            }
            let mut ids: BTreeMap<SqlsortDll, BTreeSet<CycleId>> = BTreeMap::new();
            let sub_len = 24.max(block.prefix().len());
            for sub in block.prefix().subnets(sub_len) {
                for (dll, set) in cycles_through(sub) {
                    ids.entry(dll).or_default().extend(set);
                }
            }
            let unique: u64 = ids
                .iter()
                .flat_map(|(dll, set)| {
                    set.iter()
                        .map(|id| pop.get(&(*dll, *id)).copied().unwrap_or(0))
                })
                .sum();
            (block.label().to_owned(), unique)
        })
        .collect()
}

/// The paper's testable prediction: "we can predict the relative number
/// of Slammer observations at different addresses based on the length of
/// the PRNG cycles that traverse each address". Per block: the fraction
/// of random seeds whose cycle ever enters the block, averaged over the
/// three DLL variants.
// hotspots-lint: certifies(panic-free) reason="slammer maps have fixed points and every member is a valid state"
pub fn predicted_observation_fraction(blocks: &[AddressBlock]) -> Vec<(String, f64)> {
    blocks
        .iter()
        .map(|block| {
            let mut fraction = 0.0;
            for dll in SqlsortDll::ALL {
                let map = AffineMap::slammer(dll);
                let mut ids: BTreeMap<CycleId, u64> = BTreeMap::new();
                let sub_len = 24.max(block.prefix().len());
                for sub in block.prefix().subnets(sub_len) {
                    for id in cycles_through(sub).remove(&dll).expect("dll present") {
                        if let std::collections::btree_map::Entry::Vacant(e) = ids.entry(id) {
                            let c = map.fixed_point().expect("fixed point exists");
                            let len = if id.valuation >= 32 {
                                1
                            } else {
                                let u: u32 = if id.sign_class { 3 } else { 1 };
                                map.cycle_length(c.wrapping_add(u << id.valuation))
                                    .expect("member valid")
                            };
                            e.insert(len);
                        }
                    }
                }
                let total: u64 = ids.values().sum();
                fraction += total as f64 / 2f64.powi(32);
            }
            (block.label().to_owned(), fraction / 3.0)
        })
        .collect()
}

/// Figure 3a/3b: one host's probes, histogrammed per monitored /24 by
/// actually walking its generator `probes` steps, and the [`Scan`]
/// accounting. The probes route through an empty [`Environment`], which
/// delivers every probe aimed at globally routable space.
pub fn host_histogram(
    dll: SqlsortDll,
    seed: u32,
    probes: u64,
    blocks: &[AddressBlock],
) -> (CountHistogram<Bucket24>, ScanResult) {
    let mut worm = SlammerScanner::new(dll, seed);
    let mut hits = BucketHits::new(blocks);
    let mut scan = Scan::new();
    // An empty environment draws nothing from the routing stream, and
    // Slammer's targets do not depend on its own address.
    let mut rng = StdRng::seed_from_u64(u64::from(seed));
    scan.run(
        &Environment::new(),
        Locus::Public(Ip::MIN),
        &mut worm,
        Service::SLAMMER_SQL,
        probes,
        &mut rng,
        &mut hits,
    );
    (hits.into_histogram(), scan.finish())
}

/// Figure 3c: the exact period of every cycle of the Slammer LCG for one
/// increment variant.
// hotspots-lint: certifies(panic-free) reason="slammer maps have fixed points"
pub fn cycle_bands(dll: SqlsortDll) -> Vec<CycleBand> {
    AffineMap::slammer(dll)
        .cycle_structure()
        .expect("slammer maps have fixed points")
}

/// The paper's D/H/I comparison: per block, the total length of all
/// cycles that traverse it, summed over the three DLL variants and
/// normalized by 2^26 (the paper's reporting unit).
// hotspots-lint: certifies(panic-free) reason="slammer maps have fixed points and every member is a valid state"
pub fn block_cycle_length_sums(blocks: &[AddressBlock]) -> Vec<(String, f64)> {
    blocks
        .iter()
        .map(|block| {
            let mut total: u128 = 0;
            for dll in SqlsortDll::ALL {
                let map = AffineMap::slammer(dll);
                // collect distinct cycles through the block via its /24s
                let mut seen: BTreeSet<CycleId> = BTreeSet::new();
                let sub_len = 24.max(block.prefix().len());
                for sub in block.prefix().subnets(sub_len) {
                    for ids in cycles_through(sub).values() {
                        seen.extend(ids.iter().copied());
                    }
                }
                for id in seen {
                    // recover a member to measure the cycle length
                    let c = map.fixed_point().expect("fixed point exists");
                    let len = if id.valuation >= 32 {
                        1
                    } else {
                        let u: u32 = if id.sign_class { 3 } else { 1 };
                        let y = u << id.valuation;

                        map.cycle_length(c.wrapping_add(y)).expect("valid member")
                    };
                    total += u128::from(len);
                }
            }
            (
                block.label().to_owned(),
                total as f64 / f64::from(1u32 << 26),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::totals_by_block;
    use hotspots_targeting::TargetGenerator;

    fn small_study() -> SlammerStudy {
        SlammerStudy {
            hosts: 8_000,
            rng_seed: 7,
            ..SlammerStudy::default()
        }
    }

    #[test]
    fn cycles_through_sampling_matches_exhaustive_on_slash24() {
        // the /16 sampling shortcut must agree with exhaustive
        // enumeration at /24 granularity
        let p24: Prefix = "131.107.3.0/24".parse().unwrap();
        let exhaustive = cycles_through(p24);
        for dll in SqlsortDll::ALL {
            let map = AffineMap::slammer(dll);
            let direct: BTreeSet<CycleId> = p24
                .iter()
                .map(|ip| map.cycle_id(ip.to_le_state()).unwrap())
                .collect();
            assert_eq!(exhaustive[&dll], direct);
        }
    }

    #[test]
    fn population_mass_is_conserved() {
        let study = small_study();
        let pop = draw_cycle_population(&study);
        let total: u64 = pop.values().sum();
        assert_eq!(total, study.hosts as u64);
    }

    #[test]
    fn h_block_sees_fewer_sources_than_d_and_i() {
        // Figure 2's headline: the H block shows markedly fewer unique
        // Slammer sources than D or I, because fewer long cycles
        // traverse it.
        let rows = sources_by_block(&small_study(), &ims_deployment());
        let totals: std::collections::HashMap<String, u64> =
            totals_by_block(&rows).into_iter().collect();
        // normalize per /24 monitored (blocks differ in size)
        let per24 = |label: &str, slash24s: f64| totals[label] as f64 / slash24s;
        let d = per24("D", 16.0);
        let h = per24("H", 64.0);
        let i = per24("I", 128.0);
        assert!(h < 0.8 * d, "H {h} not clearly below D {d}");
        assert!(h < 0.8 * i, "H {h} not clearly below I {i}");
    }

    #[test]
    fn m_block_is_dark_with_upstream_filter() {
        let rows = sources_by_block(
            &SlammerStudy {
                m_block_filter: true,
                ..small_study()
            },
            &ims_deployment(),
        );
        let m_total: u64 = rows
            .iter()
            .filter(|r| r.block == "M")
            .map(|r| r.unique_sources)
            .sum();
        assert_eq!(m_total, 0, "upstream filter must blank the M block");
        // and without the filter it is not dark
        let rows = sources_by_block(&small_study(), &ims_deployment());
        let m_total: u64 = rows
            .iter()
            .filter(|r| r.block == "M")
            .map(|r| r.unique_sources)
            .sum();
        assert!(m_total > 0);
    }

    #[test]
    fn host_histogram_short_cycle_hammered() {
        // A host seeded on a period-4 cycle hits at most 4 addresses.
        let map = AffineMap::slammer(SqlsortDll::Gold);
        let c = map.fixed_point().unwrap();
        let seed = c.wrapping_add(1 << 28);
        // monitor the whole space the cycle lives in: build blocks from
        // the 4 targets
        let mut worm = SlammerScanner::new(SqlsortDll::Gold, seed);
        let targets: BTreeSet<Ip> = (0..8).map(|_| worm.next_target()).collect();
        assert!(targets.len() <= 4);
        let blocks: Vec<AddressBlock> = targets
            .iter()
            .map(|t| Prefix::containing(*t, 24))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .enumerate()
            .map(|(i, p)| AddressBlock::new(format!("S{i}"), p))
            .collect();
        // Gold's short cycles sit next to its fixed point, in 0/8: the
        // walk routes, so every probe dies unroutable at the first router
        // and the blocks over the cycle's own targets see none of them.
        assert!(targets.iter().all(|t| t.octets()[0] == 0));
        let (hist, walk) = host_histogram(SqlsortDll::Gold, seed, 1000, &blocks);
        assert_eq!(hist.total(), 0, "unroutable probes reached the telescope");
        let unroutable = hotspots_netmodel::DropReason::UnroutableDestination;
        assert_eq!(walk.ledger.dropped(unroutable), 1000);
    }

    #[test]
    fn cycle_bands_match_structure() {
        let bands = cycle_bands(SqlsortDll::Sp2);
        let cycles: u64 = bands.iter().map(|b| b.num_cycles).sum();
        assert_eq!(cycles, 64);
    }

    #[test]
    fn block_cycle_sums_explain_h_deficit() {
        let blocks: Vec<AddressBlock> = ims_deployment()
            .into_iter()
            .filter(|b| ["D", "H", "I"].contains(&b.label()))
            .collect();
        let sums: std::collections::HashMap<String, f64> =
            block_cycle_length_sums(&blocks).into_iter().collect();
        assert!(
            sums["H"] < sums["D"],
            "H sum {} not below D sum {}",
            sums["H"],
            sums["D"]
        );
        assert!(sums["H"] < sums["I"]);
    }

    #[test]
    fn prediction_matches_measurement() {
        // The paper's cross-check, quantified: predicted per-block
        // observation fractions must rank-correlate with the measured
        // unique-source counts.
        let blocks: Vec<AddressBlock> = ims_deployment()
            .into_iter()
            .filter(|b| b.label() != "M" && b.label() != "Z") // M filtered; Z /16-granular
            .collect();
        let study = small_study();
        let measured: Vec<f64> = unique_sources_per_block(&study, &blocks)
            .into_iter()
            .map(|(_, v)| v as f64)
            .collect();
        let predicted: Vec<f64> = predicted_observation_fraction(&blocks)
            .into_iter()
            .map(|(_, v)| v * study.hosts as f64)
            .collect();
        let rho = hotspots_stats::spearman(&measured, &predicted).expect("correlation defined");
        assert!(rho > 0.8, "prediction/measurement rank correlation {rho}");
        // and the absolute counts agree within sampling noise
        for (m, p) in measured.iter().zip(&predicted) {
            assert!(
                (m - p).abs() / p.max(1.0) < 0.15,
                "measured {m} vs predicted {p}"
            );
        }
    }

    #[test]
    fn closed_form_agrees_with_probe_walk() {
        // The figure pipeline claims: host observed at a bucket ⇔ its
        // cycle passes through the bucket. Validate by walking an entire
        // (medium) cycle and comparing the buckets actually hit with the
        // closed-form traversal sets.
        let blocks = ims_deployment();
        // find a (dll, monitored /24) pair on a walkable (≤ 2^23) cycle
        // and seed the host right on it
        let (dll, seed) = SqlsortDll::ALL
            .into_iter()
            .find_map(|dll| {
                let map = AffineMap::slammer(dll);
                blocks
                    .iter()
                    .flat_map(|b| b.prefix().subnets(24.max(b.prefix().len())))
                    .map(|sub| sub.base().to_le_state())
                    .find(|&state| map.cycle_length(state).unwrap() <= 1 << 23)
                    .map(|state| (dll, state))
            })
            .expect("some monitored bucket lies on a walkable cycle");
        let map = AffineMap::slammer(dll);
        let cycle_len = map.cycle_length(seed).unwrap();
        let host_id = map.cycle_id(seed).unwrap();
        let (hist, _) = host_histogram(dll, seed, cycle_len, &blocks);
        let hit_buckets: BTreeSet<Prefix> = hist
            .iter()
            .map(|(bucket, _)| Prefix::containing(bucket.first_ip(), 24))
            .collect();
        // closed form: buckets whose traversal set contains this cycle
        let mut predicted: BTreeSet<Prefix> = BTreeSet::new();
        for block in &blocks {
            let sub_len = 24.max(block.prefix().len());
            for sub in block.prefix().subnets(sub_len) {
                if cycles_through(sub)[&dll].contains(&host_id) {
                    for p24 in sub.subnets(24.max(sub.len())) {
                        predicted.insert(Prefix::containing(p24.base(), 24));
                    }
                }
            }
        }
        assert_eq!(
            hit_buckets, predicted,
            "probe walk and closed form disagree on visited /24s"
        );
        assert!(
            !hit_buckets.is_empty(),
            "degenerate test: cycle misses telescope"
        );
    }

    #[test]
    fn study_is_deterministic() {
        let a = sources_by_block(&small_study(), &ims_deployment());
        let b = sources_by_block(&small_study(), &ims_deployment());
        assert_eq!(a, b);
    }
}
