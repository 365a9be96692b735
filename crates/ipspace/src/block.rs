//! Named sensor address blocks and the synthetic IMS deployment.
//!
//! The paper's measurements come from eleven darknet blocks at nine
//! organizations, referred to by anonymized labels that encode their size:
//! `A/23, B/24, C/24, D/20, E/21, F/22, G/25, H/18, I/17, M/22, Z/8`.
//! The real base addresses are not published, so [`ims_deployment`] supplies
//! a synthetic deployment with the same labels and sizes. The bases were
//! chosen deliberately (see `DESIGN.md`):
//!
//! * `M/22` sits inside `192.0.0.0/8` but outside `192.168.0.0/16`, so the
//!   CodeRedII local-preference leak from NATed hosts lands on it, exactly
//!   as the paper hypothesizes for its M block.
//! * `H/18` starts at `128.84.192.0`: its first two octets pin the low
//!   16 bits of the Slammer LCG state to an offset with high 2-adic
//!   valuation from the generator's fixed points, so H is traversed by
//!   fewer long PRNG cycles — reproducing the paper's H-block deficit.
//! * `D/20` and `I/17` have first octets `≡ 3 (mod 4)`, placing them on the
//!   longest cycles for all three flawed Slammer increments.

use std::fmt;

use crate::ip::Ip;
use crate::prefix::Prefix;

/// A labelled darknet block: a [`Prefix`] plus the anonymized name used in
/// the paper's figures (`"A"`, `"B"`, …, `"Z"`).
///
/// # Examples
///
/// ```
/// use hotspots_ipspace::AddressBlock;
///
/// let blocks = hotspots_ipspace::ims_deployment();
/// let h = blocks.iter().find(|b| b.label() == "H").unwrap();
/// assert_eq!(h.prefix().len(), 18);
/// assert_eq!(h.to_string(), "H=128.84.192.0/18");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AddressBlock {
    label: String,
    prefix: Prefix,
}

impl AddressBlock {
    /// Creates a labelled block.
    ///
    /// # Examples
    ///
    /// ```
    /// use hotspots_ipspace::{AddressBlock, Prefix};
    ///
    /// let b = AddressBlock::new("D", "131.107.0.0/20".parse::<Prefix>().unwrap());
    /// assert_eq!(b.label(), "D");
    /// ```
    pub fn new(label: impl Into<String>, prefix: Prefix) -> AddressBlock {
        AddressBlock {
            label: label.into(),
            prefix,
        }
    }

    /// The anonymized label (`"A"`, `"H"`, …).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The block's CIDR prefix.
    pub fn prefix(&self) -> Prefix {
        self.prefix
    }

    /// Number of addresses the block monitors.
    pub fn size(&self) -> u64 {
        self.prefix.size()
    }

    /// Returns `true` if `ip` falls inside the block.
    pub fn contains(&self, ip: Ip) -> bool {
        self.prefix.contains(ip)
    }
}

impl fmt::Display for AddressBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.label, self.prefix)
    }
}

/// Error returned by [`Deployment::by_label`]: the requested label is not
/// in the deployment. Lists what *is* there, so a typo is obvious.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownBlock {
    label: String,
    available: Vec<String>,
}

impl UnknownBlock {
    /// The label that was looked up.
    pub fn label(&self) -> &str {
        &self.label
    }
}

impl fmt::Display for UnknownBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no block labelled {:?} in deployment (available: {})",
            self.label,
            self.available.join(", ")
        )
    }
}

impl std::error::Error for UnknownBlock {}

/// Label-indexed lookup over a sensor deployment.
///
/// Every consumer used to inline
/// `blocks.iter().find(|b| b.label() == label).expect(...)`; this trait
/// gives the idiom one home and a real error.
///
/// # Examples
///
/// ```
/// use hotspots_ipspace::{ims_deployment, Deployment};
///
/// let blocks = ims_deployment();
/// assert_eq!(blocks.by_label("M").unwrap().prefix().len(), 22);
/// assert!(blocks.by_label("Q").is_err());
/// ```
pub trait Deployment {
    /// The block labelled `label`, or an error naming the label and the
    /// labels that exist.
    fn by_label(&self, label: &str) -> Result<&AddressBlock, UnknownBlock>;
}

impl Deployment for [AddressBlock] {
    fn by_label(&self, label: &str) -> Result<&AddressBlock, UnknownBlock> {
        self.iter()
            .find(|b| b.label() == label)
            .ok_or_else(|| UnknownBlock {
                label: label.to_owned(),
                available: self.iter().map(|b| b.label().to_owned()).collect(),
            })
    }
}

/// Returns the synthetic eleven-block IMS deployment
/// (A/23, B/24, C/24, D/20, E/21, F/22, G/25, H/18, I/17, M/22, Z/8).
///
/// Blocks are mutually disjoint and entirely within globally routable
/// space. See the module documentation for why specific bases were chosen.
///
/// # Examples
///
/// ```
/// use hotspots_ipspace::ims_deployment;
///
/// let blocks = ims_deployment();
/// assert_eq!(blocks.len(), 11);
/// let total: u64 = blocks.iter().map(|b| b.size()).sum();
/// assert!(total > (1 << 24)); // dominated by the /8
/// ```
pub fn ims_deployment() -> Vec<AddressBlock> {
    let spec: [(&str, &str); 11] = [
        ("A", "41.10.0.0/23"),
        ("B", "67.55.3.0/24"),
        ("C", "88.120.44.0/24"),
        ("D", "131.107.0.0/20"),
        ("E", "152.200.64.0/21"),
        ("F", "163.37.8.0/22"),
        ("G", "177.12.99.0/25"),
        ("H", "128.84.192.0/18"),
        ("I", "199.77.0.0/17"),
        ("M", "192.40.16.0/22"),
        ("Z", "96.0.0.0/8"),
    ];
    spec.iter()
        .map(|(label, p)| {
            // hotspots-lint: allow(panic-path) reason="deployment prefixes are valid"
            AddressBlock::new(*label, p.parse().expect("deployment prefixes are valid"))
        })
        .collect()
}

/// Generates a randomized IMS-like deployment: the same labels and sizes
/// as [`ims_deployment`], but with uniformly random, mutually disjoint,
/// globally routable base addresses — except for the one *structural*
/// constraint the paper's M-block analysis rests on: **M stays inside
/// `192.0.0.0/8` but outside `192.168.0.0/16`** (that is a topology fact
/// about where NAT leakage lands, not a tuning knob).
///
/// Used by the sensitivity harness to show the reproduction's
/// conclusions do not depend on the default synthetic placement.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let a = hotspots_ipspace::random_ims_deployment(&mut rng);
/// let b = hotspots_ipspace::random_ims_deployment(&mut rng);
/// assert_eq!(a.len(), 11);
/// assert_ne!(a, b, "placements are re-randomized per call");
/// ```
pub fn random_ims_deployment<R: rand::Rng + ?Sized>(rng: &mut R) -> Vec<AddressBlock> {
    let sizes: [(&str, u8); 11] = [
        ("A", 23),
        ("B", 24),
        ("C", 24),
        ("D", 20),
        ("E", 21),
        ("F", 22),
        ("G", 25),
        ("H", 18),
        ("I", 17),
        ("M", 22),
        ("Z", 8),
    ];
    let mut placed: Vec<Prefix> = Vec::with_capacity(11);
    let mut out = Vec::with_capacity(11);
    // place the biggest blocks first so they always find room
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_by_key(|&i| sizes[i].1);
    for idx in order {
        let (label, len) = sizes[idx];
        let prefix = loop {
            let base = if label == "M" {
                // inside 192/8
                Ip::from_octets(192, rng.gen(), rng.gen(), rng.gen())
            } else {
                Ip::new(rng.gen())
            };
            let candidate = Prefix::containing(base, len);
            let routable = crate::special::is_globally_routable(candidate.base())
                && crate::special::is_globally_routable(candidate.last_ip());
            let m_ok = label != "M" || !candidate.overlaps(crate::special::PRIVATE_192);
            // no other block may swallow 192/8 whole, or M could never fit
            let leaves_room_for_m = label == "M"
                || !candidate.contains_prefix(Prefix::containing(Ip::from_octets(192, 0, 0, 0), 8));
            if routable
                && m_ok
                && leaves_room_for_m
                && placed.iter().all(|p| !p.overlaps(candidate))
            {
                break candidate;
            }
        };
        placed.push(prefix);
        out.push((idx, AddressBlock::new(label, prefix)));
    }
    out.sort_by_key(|(idx, _)| *idx);
    out.into_iter().map(|(_, b)| b).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::special;

    #[test]
    fn deployment_has_paper_sizes() {
        let blocks = ims_deployment();
        let sizes: Vec<(String, u8)> = blocks
            .iter()
            .map(|b| (b.label().to_owned(), b.prefix().len()))
            .collect();
        let expected = [
            ("A", 23u8),
            ("B", 24),
            ("C", 24),
            ("D", 20),
            ("E", 21),
            ("F", 22),
            ("G", 25),
            ("H", 18),
            ("I", 17),
            ("M", 22),
            ("Z", 8),
        ];
        for (got, want) in sizes.iter().zip(expected.iter()) {
            assert_eq!(got.0, want.0);
            assert_eq!(got.1, want.1, "block {} has wrong size", want.0);
        }
        // /25 really is 128 addresses, /8 really is 16M, per the paper.
        let g = blocks.iter().find(|b| b.label() == "G").unwrap();
        assert_eq!(g.size(), 128);
        let z = blocks.iter().find(|b| b.label() == "Z").unwrap();
        assert_eq!(z.size(), 1 << 24);
    }

    #[test]
    fn deployment_blocks_are_disjoint() {
        let blocks = ims_deployment();
        for (i, a) in blocks.iter().enumerate() {
            for b in &blocks[i + 1..] {
                assert!(!a.prefix().overlaps(b.prefix()), "{a} overlaps {b}");
            }
        }
    }

    #[test]
    fn deployment_blocks_are_globally_routable() {
        for b in ims_deployment() {
            assert!(
                special::is_globally_routable(b.prefix().base()),
                "{b} is not routable"
            );
            assert!(
                special::is_globally_routable(b.prefix().last_ip()),
                "{b} tail is not routable"
            );
        }
    }

    #[test]
    fn m_block_inside_192_slash_8_outside_private() {
        let blocks = ims_deployment();
        let m = blocks.iter().find(|b| b.label() == "M").unwrap();
        let slash8 = Prefix::containing(Ip::from_octets(192, 0, 0, 0), 8);
        assert!(slash8.contains_prefix(m.prefix()));
        assert!(!special::PRIVATE_192.overlaps(m.prefix()));
    }

    #[test]
    fn random_deployments_satisfy_the_contract() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for _ in 0..10 {
            let blocks = random_ims_deployment(&mut rng);
            assert_eq!(blocks.len(), 11);
            // same labels and sizes as the default deployment, in order
            for (random, fixed) in blocks.iter().zip(ims_deployment()) {
                assert_eq!(random.label(), fixed.label());
                assert_eq!(random.prefix().len(), fixed.prefix().len());
            }
            // disjoint and routable
            for (i, a) in blocks.iter().enumerate() {
                assert!(special::is_globally_routable(a.prefix().base()), "{a}");
                assert!(special::is_globally_routable(a.prefix().last_ip()), "{a}");
                for b in &blocks[i + 1..] {
                    assert!(!a.prefix().overlaps(b.prefix()), "{a} overlaps {b}");
                }
            }
            // the structural M constraint
            let m = blocks.iter().find(|b| b.label() == "M").unwrap();
            assert_eq!(m.prefix().base().octets()[0], 192);
            assert!(!m.prefix().overlaps(special::PRIVATE_192));
        }
    }

    #[test]
    fn random_deployments_are_seed_deterministic() {
        use rand::SeedableRng;
        let a = random_ims_deployment(&mut rand::rngs::StdRng::seed_from_u64(4));
        let b = random_ims_deployment(&mut rand::rngs::StdRng::seed_from_u64(4));
        let c = random_ims_deployment(&mut rand::rngs::StdRng::seed_from_u64(5));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn contains_respects_prefix() {
        let b = AddressBlock::new("X", "10.1.2.0/24".parse().unwrap());
        assert!(b.contains(Ip::from_octets(10, 1, 2, 250)));
        assert!(!b.contains(Ip::from_octets(10, 1, 3, 0)));
    }
}
