//! The hotspot factor taxonomy (Section 3 of the paper).

use std::fmt;

/// Host-centric, programmatic influences on propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AlgorithmicFactor {
    /// Pre-programmed target address lists (bot `advscan`/`ipscan`
    /// ranges, flash-worm lists).
    HitList,
    /// A broken generator function (Slammer's OR-corrupted LCG
    /// increment).
    PrngFlaw,
    /// A sound generator seeded from a low-entropy source (Blaster's
    /// `GetTickCount()`).
    PoorEntropySeed,
    /// Deliberate bias toward nearby addresses (CodeRedII's /8 + /16
    /// mask table).
    LocalPreference,
}

impl AlgorithmicFactor {
    /// All algorithmic factors studied in the paper.
    pub const ALL: [AlgorithmicFactor; 4] = [
        AlgorithmicFactor::HitList,
        AlgorithmicFactor::PrngFlaw,
        AlgorithmicFactor::PoorEntropySeed,
        AlgorithmicFactor::LocalPreference,
    ];

    /// One-line description with the paper's exemplar threat.
    pub fn describe(self) -> &'static str {
        match self {
            AlgorithmicFactor::HitList => {
                "pre-programmed target ranges restrict scanning to chosen subnets (botnets)"
            }
            AlgorithmicFactor::PrngFlaw => {
                "a defective generator partitions the space into uneven cycles (Slammer)"
            }
            AlgorithmicFactor::PoorEntropySeed => {
                "a predictable seed collapses trajectories onto few start points (Blaster)"
            }
            AlgorithmicFactor::LocalPreference => {
                "deliberate nearby-address bias concentrates probes (CodeRedII)"
            }
        }
    }
}

impl fmt::Display for AlgorithmicFactor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AlgorithmicFactor::HitList => "hit-list",
            AlgorithmicFactor::PrngFlaw => "PRNG flaw",
            AlgorithmicFactor::PoorEntropySeed => "poor entropy seed",
            AlgorithmicFactor::LocalPreference => "local preference",
        })
    }
}

/// External, network-level influences on propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EnvironmentalFactor {
    /// Routing and filtering policy: enterprise egress filters, upstream
    /// provider blocks.
    RoutingAndFiltering,
    /// Failures and misconfiguration: dropped and mangled packets.
    FailuresAndMisconfiguration,
    /// Topology: NATs, private address space, reachability structure.
    NetworkTopology,
}

impl EnvironmentalFactor {
    /// All environmental factors studied in the paper.
    pub const ALL: [EnvironmentalFactor; 3] = [
        EnvironmentalFactor::RoutingAndFiltering,
        EnvironmentalFactor::FailuresAndMisconfiguration,
        EnvironmentalFactor::NetworkTopology,
    ];

    /// One-line description with the paper's exemplar.
    pub fn describe(self) -> &'static str {
        match self {
            EnvironmentalFactor::RoutingAndFiltering => {
                "border policy hides or blocks probes (Fortune-100 egress, M-block upstream)"
            }
            EnvironmentalFactor::FailuresAndMisconfiguration => {
                "loss and misconfiguration cut infection success along the path"
            }
            EnvironmentalFactor::NetworkTopology => {
                "NAT/private addressing breaks reachability and redirects local preference (192/8)"
            }
        }
    }
}

impl fmt::Display for EnvironmentalFactor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EnvironmentalFactor::RoutingAndFiltering => "routing & filtering policy",
            EnvironmentalFactor::FailuresAndMisconfiguration => "failures & misconfiguration",
            EnvironmentalFactor::NetworkTopology => "network topology",
        })
    }
}

/// A root cause of a hotspot: one of the two factor classes.
///
/// Note the paper's caveat: factors carry *no intentionality* — a hit-list
/// hotspot is designed, Slammer's cycles are a bug, and both classes mix
/// intended and accidental members.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HotspotFactor {
    /// Host-level, programmatic.
    Algorithmic(AlgorithmicFactor),
    /// Network-level, external.
    Environmental(EnvironmentalFactor),
}

impl HotspotFactor {
    /// Every factor in the taxonomy.
    pub fn all() -> Vec<HotspotFactor> {
        AlgorithmicFactor::ALL
            .into_iter()
            .map(HotspotFactor::Algorithmic)
            .chain(
                EnvironmentalFactor::ALL
                    .into_iter()
                    .map(HotspotFactor::Environmental),
            )
            .collect()
    }

    /// One-line description.
    pub fn describe(self) -> &'static str {
        match self {
            HotspotFactor::Algorithmic(f) => f.describe(),
            HotspotFactor::Environmental(f) => f.describe(),
        }
    }
}

impl fmt::Display for HotspotFactor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HotspotFactor::Algorithmic(x) => write!(f, "algorithmic: {x}"),
            HotspotFactor::Environmental(x) => write!(f, "environmental: {x}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_is_complete() {
        let all = HotspotFactor::all();
        assert_eq!(all.len(), 7);
        let algorithmic = all
            .iter()
            .filter(|f| matches!(f, HotspotFactor::Algorithmic(_)))
            .count();
        assert_eq!(algorithmic, 4);
    }

    #[test]
    fn descriptions_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for f in HotspotFactor::all() {
            assert!(seen.insert(f.describe()), "duplicate description for {f}");
        }
    }

    #[test]
    fn display_names_readable() {
        assert_eq!(
            HotspotFactor::Algorithmic(AlgorithmicFactor::PrngFlaw).to_string(),
            "algorithmic: PRNG flaw"
        );
        assert_eq!(
            HotspotFactor::Environmental(EnvironmentalFactor::NetworkTopology).to_string(),
            "environmental: network topology"
        );
    }
}
