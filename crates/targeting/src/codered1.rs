//! The original CodeRed (v1) scanner: the static-seed blunder.

use hotspots_ipspace::Ip;
use hotspots_prng::{MsvcrtRand, Prng32};

use crate::TargetGenerator;

/// The first CodeRed variant's target generator. Its author seeded the
/// LCG with a **hard-coded constant**, so every instance on the planet
/// walked the *identical* pseudo-random sequence of targets: the
/// degenerate extreme of the poor-entropy algorithmic factor — adding
/// hosts adds probe *volume* but zero new *coverage*, and the same
/// addresses get hammered worldwide. (The July 19th re-release fixed the
/// seed, which is what let CodeRed v2 actually spread.)
///
/// # Examples
///
/// ```
/// use hotspots_targeting::{CodeRed1Scanner, TargetGenerator};
///
/// let mut anywhere = CodeRed1Scanner::new();
/// let mut elsewhere = CodeRed1Scanner::new();
/// assert_eq!(anywhere.next_target(), elsewhere.next_target());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeRed1Scanner {
    prng: MsvcrtRand,
}

impl CodeRed1Scanner {
    /// The hard-coded seed every instance shares (a representative
    /// constant; the bug is the *sharing*, not the value).
    pub const STATIC_SEED: u32 = 0x12345678;

    /// Creates an instance — necessarily identical to every other one.
    pub fn new() -> CodeRed1Scanner {
        CodeRed1Scanner {
            prng: MsvcrtRand::with_seed(Self::STATIC_SEED),
        }
    }

    /// How many probes this instance has consumed (derivable via state;
    /// exposed for phase-alignment in tests and the simulator).
    pub fn state(&self) -> u32 {
        self.prng.state()
    }
}

impl Default for CodeRed1Scanner {
    fn default() -> CodeRed1Scanner {
        CodeRed1Scanner::new()
    }
}

impl TargetGenerator for CodeRed1Scanner {
    #[inline]
    fn next_target(&mut self) -> Ip {
        Ip::new(self.prng.next_u32())
    }

    fn strategy(&self) -> &'static str {
        "codered1-static-seed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::targets;
    use std::collections::BTreeSet;

    #[test]
    fn every_instance_is_identical() {
        let mut a = CodeRed1Scanner::new();
        let mut b = CodeRed1Scanner::default();
        for _ in 0..256 {
            assert_eq!(a.next_target(), b.next_target());
        }
    }

    #[test]
    fn extra_instances_add_no_coverage() {
        // one instance's first 1000 targets == the union of five
        // instances' first 1000 targets each
        let single: BTreeSet<Ip> = targets(&mut CodeRed1Scanner::new(), 1000)
            .into_iter()
            .collect();
        let mut union = BTreeSet::new();
        for _ in 0..5 {
            union.extend(targets(&mut CodeRed1Scanner::new(), 1000));
        }
        assert_eq!(single, union, "static seed means zero marginal coverage");
    }

    #[test]
    fn sequence_is_spread_but_fixed() {
        // the sequence itself looks random (spread over /8s) — the flaw
        // is invisible to anyone watching a single instance
        let ts = targets(&mut CodeRed1Scanner::new(), 4_096);
        let octets: BTreeSet<u8> = ts.iter().map(|t| t.octets()[0]).collect();
        assert!(
            octets.len() > 200,
            "only {} distinct first octets",
            octets.len()
        );
    }
}
