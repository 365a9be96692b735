//! The dotted octet pattern language of bot scan commands.

use std::fmt;
use std::str::FromStr;

use hotspots_ipspace::{Ip, Prefix};
use hotspots_prng::Prng32;

/// One octet position of a [`ScanPattern`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OctetSpec {
    /// A literal octet value (`192`).
    Literal(u8),
    /// `i` — inherit the bot's own octet (scan near home).
    Local,
    /// `s` — pick a random value once when the scan starts, then stick
    /// with it (each drone picks its own subnet).
    Sticky,
    /// `r` — a fresh random value for every probe.
    Random,
    /// `x` — wildcard, random per probe (synonym of `r` in the wild;
    /// kept distinct so parsed commands print back verbatim).
    Wildcard,
}

impl fmt::Display for OctetSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OctetSpec::Literal(v) => write!(f, "{v}"),
            OctetSpec::Local => f.write_str("i"),
            OctetSpec::Sticky => f.write_str("s"),
            OctetSpec::Random => f.write_str("r"),
            OctetSpec::Wildcard => f.write_str("x"),
        }
    }
}

/// Error parsing a [`ScanPattern`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePatternError {
    input: String,
}

impl fmt::Display for ParsePatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid scan pattern: {:?}", self.input)
    }
}

impl std::error::Error for ParsePatternError {}

/// Error resolving a pattern into a scan range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolveError {
    /// A fixed octet (literal/`i`/`s`) appears after a free octet
    /// (`r`/`x`/omitted), so the reachable set is not a prefix. Such
    /// commands exist but are rare; callers may fall back to counting.
    NotAPrefix,
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::NotAPrefix => {
                f.write_str("pattern fixes an octet after a free octet; range is not a prefix")
            }
        }
    }
}

impl std::error::Error for ResolveError {}

/// A dotted octet pattern such as `192.s.s.s`, `i.i.i.i`, `x.x.x`, or
/// `194.s.s` — between one and four octet positions; omitted trailing
/// positions are swept like `r`.
///
/// # Examples
///
/// ```
/// use hotspots_botnet::ScanPattern;
///
/// let p: ScanPattern = "194.s.s.s".parse().unwrap();
/// assert_eq!(p.to_string(), "194.s.s.s");
/// assert_eq!(p.reachable_addresses(), 1 << 24); // all of 194/8
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScanPattern {
    octets: Vec<OctetSpec>,
}

impl ScanPattern {
    /// Creates a pattern from explicit octet specs.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= octets.len() <= 4`.
    pub fn new(octets: Vec<OctetSpec>) -> ScanPattern {
        assert!(
            (1..=4).contains(&octets.len()),
            "pattern needs 1..=4 octets, got {}",
            octets.len()
        );
        ScanPattern { octets }
    }

    /// The octet specs, leading first.
    pub fn octets(&self) -> &[OctetSpec] {
        &self.octets
    }

    /// Number of distinct addresses the pattern can ever emit, across all
    /// sticky choices and probes (literals and `i` count 1; everything
    /// else counts 256).
    pub fn reachable_addresses(&self) -> u64 {
        let mut total = 1u64;
        for i in 0..4 {
            let spec = self.octets.get(i).copied().unwrap_or(OctetSpec::Random);
            total *= match spec {
                OctetSpec::Literal(_) | OctetSpec::Local => 1,
                OctetSpec::Sticky | OctetSpec::Random | OctetSpec::Wildcard => 256,
            };
        }
        total
    }

    /// Resolves the pattern for one drone's scan session: literals stay,
    /// `i` takes the drone's own octets, `s` draws one sticky random
    /// value per position, and the free tail becomes the scanned range.
    ///
    /// A scan session must sweep *something*, so `i` and `s` in the final
    /// (fourth) octet position are treated as part of the swept range —
    /// `s.s.s.s` means "each drone picks its own /24 and sweeps it", and
    /// `i.i.i.i` means "sweep my own /24", matching observed drone
    /// behavior. Only a literal can pin the last octet.
    ///
    /// Returns the CIDR prefix this drone's scan session covers.
    ///
    /// # Errors
    ///
    /// [`ResolveError::NotAPrefix`] if a fixed octet follows a free one
    /// (e.g. `r.194.x.x`).
    pub fn resolve<P: Prng32>(&self, local: Ip, prng: &mut P) -> Result<Prefix, ResolveError> {
        let local_octets = local.octets();
        let mut fixed: Vec<u8> = Vec::with_capacity(4);
        let mut free_seen = false;
        for (i, &local_octet) in local_octets.iter().enumerate() {
            let spec = self.octets.get(i).copied().unwrap_or(OctetSpec::Random);
            let is_final = i == 3;
            match spec {
                OctetSpec::Literal(v) => {
                    if free_seen {
                        return Err(ResolveError::NotAPrefix);
                    }
                    fixed.push(v);
                }
                OctetSpec::Local if !is_final => {
                    if free_seen {
                        return Err(ResolveError::NotAPrefix);
                    }
                    fixed.push(local_octet);
                }
                OctetSpec::Sticky if !is_final => {
                    if free_seen {
                        return Err(ResolveError::NotAPrefix);
                    }
                    fixed.push((prng.next_u32() >> 24) as u8);
                }
                OctetSpec::Local | OctetSpec::Sticky | OctetSpec::Random | OctetSpec::Wildcard => {
                    free_seen = true;
                }
            }
        }
        let mut base = [0u8; 4];
        base[..fixed.len()].copy_from_slice(&fixed);
        let len = (fixed.len() * 8) as u8;
        Ok(Prefix::containing(Ip::from(base), len))
    }
}

impl fmt::Display for ScanPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, o) in self.octets.iter().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            write!(f, "{o}")?;
        }
        Ok(())
    }
}

impl FromStr for ScanPattern {
    type Err = ParsePatternError;

    fn from_str(s: &str) -> Result<ScanPattern, ParsePatternError> {
        let err = || ParsePatternError {
            input: s.to_owned(),
        };
        let parts: Vec<&str> = s.split('.').collect();
        if parts.is_empty() || parts.len() > 4 {
            return Err(err());
        }
        let mut octets = Vec::with_capacity(parts.len());
        for part in parts {
            let spec = match part {
                "i" => OctetSpec::Local,
                "s" => OctetSpec::Sticky,
                "r" => OctetSpec::Random,
                "x" => OctetSpec::Wildcard,
                lit => {
                    if lit.is_empty() || lit.len() > 3 || !lit.bytes().all(|b| b.is_ascii_digit()) {
                        return Err(err());
                    }
                    OctetSpec::Literal(lit.parse::<u8>().map_err(|_| err())?)
                }
            };
            octets.push(spec);
        }
        Ok(ScanPattern { octets })
    }
}

/// Returns `true` if a token looks like a scan pattern (used by the
/// command parser to distinguish patterns from numeric parameters: a bare
/// number like `150` is a parameter, not a single-octet pattern).
pub(crate) fn looks_like_pattern(token: &str) -> bool {
    token.contains('.') && token.parse::<ScanPattern>().is_ok()
        || matches!(token, "i" | "s" | "r" | "x")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspots_prng::SplitMix;
    use proptest::prelude::*;

    #[test]
    fn parse_table1_shapes() {
        for s in [
            "i.i.i.i",
            "s.s.s.s",
            "r.r.r.r",
            "x.x.x",
            "x.x",
            "s.s",
            "s.s.s",
            "194.s.s.s",
            "192.s.s.s",
            "128.s.s.s",
        ] {
            let p: ScanPattern = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(p.to_string(), s, "round trip failed for {s}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for s in [
            "",
            "....",
            "1.2.3.4.5",
            "256.s.s.s",
            "a.b.c.d",
            "-1.s",
            "1..2",
        ] {
            assert!(s.parse::<ScanPattern>().is_err(), "accepted {s:?}");
        }
    }

    #[test]
    fn literal_pattern_is_single_slash32_family() {
        let p: ScanPattern = "10.1.2.3".parse().unwrap();
        assert_eq!(p.reachable_addresses(), 1);
        let r = p.resolve(Ip::MIN, &mut SplitMix::new(0)).unwrap();
        assert_eq!(r.to_string(), "10.1.2.3/32");
    }

    #[test]
    fn local_pattern_scans_home() {
        let p: ScanPattern = "i.i.x.x".parse().unwrap();
        let home = Ip::from_octets(141, 20, 7, 7);
        let r = p.resolve(home, &mut SplitMix::new(0)).unwrap();
        assert_eq!(r.to_string(), "141.20.0.0/16");
    }

    #[test]
    fn sticky_pattern_fixes_subnet_per_session() {
        let p: ScanPattern = "s.s".parse().unwrap();
        let mut prng = SplitMix::new(9);
        let r1 = p.resolve(Ip::MIN, &mut prng).unwrap();
        let r2 = p.resolve(Ip::MIN, &mut prng).unwrap();
        assert_eq!(r1.len(), 16);
        assert_ne!(r1, r2, "two sessions should pick different /16s");
    }

    #[test]
    fn short_pattern_sweeps_tail() {
        let p: ScanPattern = "194.s.s".parse().unwrap();
        // only 3 positions given: 4th octet swept
        let r = p.resolve(Ip::MIN, &mut SplitMix::new(3)).unwrap();
        assert_eq!(r.len(), 24);
        assert_eq!(r.base().octets()[0], 194);
    }

    #[test]
    fn fixed_after_free_is_not_a_prefix() {
        let p: ScanPattern = "x.194.x.x".parse().unwrap();
        assert_eq!(
            p.resolve(Ip::MIN, &mut SplitMix::new(0)),
            Err(ResolveError::NotAPrefix)
        );
    }

    #[test]
    fn reachable_counts() {
        assert_eq!(
            "192.s.s.s"
                .parse::<ScanPattern>()
                .unwrap()
                .reachable_addresses(),
            1 << 24
        );
        assert_eq!(
            "s.s".parse::<ScanPattern>().unwrap().reachable_addresses(),
            1 << 32
        );
        assert_eq!(
            "i.i.i.i"
                .parse::<ScanPattern>()
                .unwrap()
                .reachable_addresses(),
            1
        );
    }

    #[test]
    #[should_panic(expected = "1..=4")]
    fn new_rejects_wrong_arity() {
        let _ = ScanPattern::new(vec![]);
    }

    proptest! {
        #[test]
        fn display_parse_round_trip(octets in proptest::collection::vec(0u8..=4, 1..=4), lits in proptest::collection::vec(any::<u8>(), 4)) {
            let specs: Vec<OctetSpec> = octets.iter().enumerate().map(|(i, k)| match k {
                0 => OctetSpec::Literal(lits[i]),
                1 => OctetSpec::Local,
                2 => OctetSpec::Sticky,
                3 => OctetSpec::Random,
                _ => OctetSpec::Wildcard,
            }).collect();
            let p = ScanPattern::new(specs);
            let back: ScanPattern = p.to_string().parse().unwrap();
            prop_assert_eq!(p, back);
        }

        #[test]
        fn resolved_prefix_contains_only_reachable(seed in any::<u64>()) {
            let p: ScanPattern = "192.s.x.x".parse().unwrap();
            let r = p.resolve(Ip::MIN, &mut SplitMix::new(seed)).unwrap();
            prop_assert_eq!(r.len(), 16);
            prop_assert_eq!(r.base().octets()[0], 192);
        }
    }
}
