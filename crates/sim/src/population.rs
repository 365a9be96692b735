//! Vulnerable populations and their placement in the topology.
//!
//! A [`Population`] holds the vulnerable hosts in one compact layout
//! (its docs describe it); the synthesizers draw the address sets the
//! presets place in it, and the NAT helpers move hosts into realms.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use hotspots_ipspace::{special, HostSet, HostSetError, Ip, Prefix};
use hotspots_netmodel::{Environment, Locus, NatRealm, RealmId};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::ipmap::IpMap;

/// Error returned by the fallible [`Population`] constructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopulationError {
    /// Two hosts share an address (public, or private within one realm).
    Duplicate {
        /// The clashing locus.
        locus: Locus,
    },
    /// [`Population::try_compressed_from_parts`] requires its public
    /// addresses in ascending order; this one was not.
    UnsortedPublic {
        /// The out-of-order address.
        ip: Ip,
    },
    /// More hosts than the 32-bit host-id space.
    TooLarge {
        /// The offending host count.
        hosts: usize,
    },
    /// A host picked for a home NAT has no globally routable address
    /// to serve as its gateway.
    NatGatewayNotPublic {
        /// The host's address.
        ip: Ip,
    },
    /// More hosts picked for the shared NAT than `192.168/16` has
    /// addresses.
    NatRealmFull {
        /// The number of hosts picked.
        hosts: usize,
    },
    /// Fewer hosts than an outbreak's seed count: the engine cannot
    /// pick its initially infected hosts.
    FewerHostsThanSeeds {
        /// The population size.
        hosts: usize,
        /// The requested seed count.
        seeds: usize,
    },
    /// A synthetic population's share of one /8 is larger than the
    /// distinct /16s the generator drew for that /8 can hold.
    Slash8Overfull {
        /// The /8's first octet.
        octet: u8,
        /// Hosts apportioned to the /8.
        hosts: usize,
        /// Distinct /16s drawn for it (65,536 addresses each).
        slash16s: usize,
    },
}

impl fmt::Display for PopulationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PopulationError::Duplicate { locus } => {
                write!(f, "duplicate host address at {locus}")
            }
            PopulationError::UnsortedPublic { ip } => {
                write!(
                    f,
                    "public address {ip} out of sorted order for the compressed store"
                )
            }
            PopulationError::TooLarge { hosts } => {
                write!(f, "{hosts} hosts exceed the 32-bit host-id space")
            }
            PopulationError::NatGatewayNotPublic { ip } => {
                write!(
                    f,
                    "host {ip} cannot sit behind a home NAT: its address is not globally \
                     routable, so it cannot be the gateway"
                )
            }
            PopulationError::NatRealmFull { hosts } => {
                write!(
                    f,
                    "{hosts} NATed hosts exceed the 192.168/16 realm capacity of {}",
                    SHARED_REALM_CAPACITY
                )
            }
            PopulationError::FewerHostsThanSeeds { hosts, seeds } => {
                write!(f, "{seeds} seed hosts exceed the population of {hosts}")
            }
            PopulationError::Slash8Overfull {
                octet,
                hosts,
                slash16s,
            } => {
                write!(
                    f,
                    "{hosts} hosts apportioned to {octet}.0.0.0/8 exceed the {} addresses \
                     of its {slash16s} /16s; use a smaller population or more /8s",
                    slash16s * 65_536
                )
            }
        }
    }
}

impl Error for PopulationError {}

impl From<HostSetError> for PopulationError {
    fn from(e: HostSetError) -> PopulationError {
        match e {
            HostSetError::Duplicate { ip, .. } => PopulationError::Duplicate {
                locus: Locus::Public(ip),
            },
            HostSetError::Unsorted { ip, .. } => PopulationError::UnsortedPublic { ip },
        }
    }
}

/// The vulnerable host population: each host's [`Locus`] plus fast
/// address→host lookup for probe resolution.
///
/// A population has one layout and one numbering. Public hosts sit in
/// a [`HostSet`], which finds an address's rank in sorted address order
/// with a bit test and popcount rank per radix level (no hashing, no
/// search); a public host's id is its rank. Private (NATed) hosts take
/// the ids after the public ones, in input order, and sit in a list of
/// `(realm, address)` pairs, found per NAT realm through a hash index.
/// No per-host id table is kept: ids only key each host's RNG streams,
/// so every constructor numbers hosts this way, whatever the input
/// order.
///
/// # Examples
///
/// ```
/// use hotspots_ipspace::Ip;
/// use hotspots_sim::Population;
///
/// let (high, low) = (Ip::from_octets(10, 0, 0, 9), Ip::from_octets(10, 0, 0, 1));
/// let pop = Population::from_public([high, low]);
/// assert_eq!(pop.len(), 2);
/// assert_eq!(pop.find_public(low), Some(0));
/// ```
#[derive(Debug, Clone)]
pub struct Population {
    /// The public hosts' addresses; a public host's id is its rank in
    /// sorted address order.
    public: HostSet,
    /// The private hosts, in id order: host `public_len() + i` is
    /// `private[i]`.
    private: Vec<(RealmId, Ip)>,
    /// (realm, private ip) → host, keyed by realm in the outer map.
    /// A `BTreeMap` so any iteration over realms is deterministic by
    /// construction.
    realm_index: BTreeMap<RealmId, IpMap>,
}

impl Population {
    /// Builds a population of directly connected public hosts.
    ///
    /// # Panics
    ///
    /// Panics on duplicate addresses; [`Population::try_from_public`]
    /// is the fallible form.
    pub fn from_public<I: IntoIterator<Item = Ip>>(addrs: I) -> Population {
        Population::from_loci(addrs.into_iter().map(Locus::Public))
    }

    /// Builds a population from explicit loci.
    ///
    /// # Panics
    ///
    /// Panics if two hosts share an address (public, or private within
    /// one realm); [`Population::try_from_loci`] is the fallible form.
    pub fn from_loci<I: IntoIterator<Item = Locus>>(loci: I) -> Population {
        match Population::try_from_loci(loci) {
            Ok(pop) => pop,
            Err(e) => panic!("{e}"), // hotspots-lint: allow(panic-path) reason="documented panicking constructor; the scenario build path uses try_from_loci"
        }
    }

    /// Builds a population of public hosts in any order, reporting
    /// duplicates as typed errors. A `Vec` that is already ascending is
    /// built in place, with no copy.
    ///
    /// # Errors
    ///
    /// Returns [`PopulationError::Duplicate`] on address clashes.
    pub fn try_from_public<I: IntoIterator<Item = Ip>>(
        addrs: I,
    ) -> Result<Population, PopulationError> {
        Population::from_input(addrs.into_iter().collect(), Vec::new(), Vec::new())
    }

    /// Builds a population from explicit loci in any order, reporting
    /// duplicates as typed errors.
    ///
    /// # Errors
    ///
    /// Returns [`PopulationError::Duplicate`] naming the first locus, in
    /// input order, that repeats an earlier one (public, or private
    /// within one realm), and [`PopulationError::TooLarge`] past 2³²
    /// hosts.
    pub fn try_from_loci<I: IntoIterator<Item = Locus>>(
        loci: I,
    ) -> Result<Population, PopulationError> {
        let (mut public, mut private, mut private_at) = (Vec::new(), Vec::new(), Vec::new());
        for (at, locus) in loci.into_iter().enumerate() {
            match locus {
                Locus::Public(ip) => public.push(ip),
                Locus::Private { realm, ip } => {
                    private.push((realm, ip));
                    // wraps only past 2³² hosts, which fails the build
                    private_at.push(at as u32);
                }
            }
        }
        Population::from_input(public, private, private_at)
    }

    /// The front-ends' shared step: sorts the public addresses if they
    /// are not ascending and hands them, with the private hosts in input
    /// order, to [`Population::try_compressed_from_parts`]. The input
    /// is `public` in order, with `private[i]` at input position
    /// `private_at[i]`; a duplicate is reported as the first repeat in
    /// that order.
    fn from_input(
        public: Vec<Ip>,
        private: Vec<(RealmId, Ip)>,
        private_at: Vec<u32>,
    ) -> Result<Population, PopulationError> {
        let built = match Population::try_compressed_from_parts(&public, private.iter().copied()) {
            Err(PopulationError::UnsortedPublic { .. }) => {
                let mut sorted = public.clone();
                sorted.sort_unstable();
                Population::try_compressed_from_parts(&sorted, private.iter().copied())
            }
            built => built,
        };
        built.map_err(|e| match e {
            PopulationError::Duplicate { locus } => PopulationError::Duplicate {
                locus: first_repeat(&public, &private, &private_at).unwrap_or(locus),
            },
            e => e,
        })
    }

    /// Builds a population of public hosts from strictly ascending
    /// addresses.
    ///
    /// # Errors
    ///
    /// Returns [`PopulationError::UnsortedPublic`] /
    /// [`PopulationError::Duplicate`] when the input is not strictly
    /// ascending.
    pub fn try_compressed_from_public(public: &[Ip]) -> Result<Population, PopulationError> {
        Population::try_compressed_from_parts(public, [])
    }

    /// Builds a population from strictly ascending public addresses
    /// plus private (NATed) hosts: the one build body every constructor
    /// ends in. Public host ids are ranks `0..public.len()`; private
    /// hosts take the following ids in input order.
    ///
    /// # Errors
    ///
    /// Returns [`PopulationError::TooLarge`] past 2³² hosts,
    /// [`PopulationError::UnsortedPublic`] when `public` is not
    /// ascending, and [`PopulationError::Duplicate`] on any address
    /// clash.
    pub fn try_compressed_from_parts<I: IntoIterator<Item = (RealmId, Ip)>>(
        public: &[Ip],
        private: I,
    ) -> Result<Population, PopulationError> {
        let mut private: Vec<(RealmId, Ip)> = private.into_iter().collect();
        let total = public.len() + private.len();
        if u32::try_from(total).is_err() {
            return Err(PopulationError::TooLarge { hosts: total });
        }
        let set = HostSet::from_sorted_unique(public.iter().copied())?;
        let mut realm_index: BTreeMap<RealmId, IpMap> = BTreeMap::new();
        for (i, &(realm, ip)) in private.iter().enumerate() {
            let clash = realm_index
                .entry(realm)
                .or_insert_with(|| IpMap::with_capacity(16))
                .insert(ip.value(), (public.len() + i) as u32);
            if clash.is_some() {
                return Err(PopulationError::Duplicate {
                    locus: Locus::Private { realm, ip },
                });
            }
        }
        private.shrink_to_fit();
        Ok(Population {
            public: set,
            private,
            realm_index,
        })
    }

    /// Number of vulnerable hosts.
    pub fn len(&self) -> usize {
        self.public_len() + self.private.len()
    }

    /// Returns `true` if the population is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of public (directly connected) hosts.
    pub fn public_len(&self) -> usize {
        self.public.len() as usize
    }

    /// The locus of host `id`: a [`HostSet::select`] or a private-list
    /// read.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn locus(&self, id: usize) -> Locus {
        match id.checked_sub(self.public_len()) {
            None => match self.public.select(id as u32) {
                Some(ip) => Locus::Public(ip),
                None => unreachable!("rank {id} below set length"),
            },
            Some(index) => {
                let (realm, ip) = self.private[index];
                Locus::Private { realm, ip }
            }
        }
    }

    /// Finds the host with public address `ip`, if any.
    #[inline]
    pub fn find_public(&self, ip: Ip) -> Option<usize> {
        self.public.find(ip).map(|rank| rank as usize)
    }

    /// Finds the host with private address `ip` inside `realm`, if any.
    #[inline]
    pub fn find_private(&self, realm: RealmId, ip: Ip) -> Option<usize> {
        self.realm_index
            .get(&realm)
            .and_then(|m| m.get(ip.value()))
            .map(|v| v as usize)
    }

    /// Heap bytes held by the population and its indices. Deterministic
    /// (computed from capacities, no allocator probing) — the number
    /// `BENCH_engine.json` records as `store_bytes`.
    pub fn store_bytes(&self) -> usize {
        let realm_bytes: usize = self.realm_index.values().map(IpMap::heap_bytes).sum();
        self.public.heap_bytes()
            + self.private.capacity() * std::mem::size_of::<(RealmId, Ip)>()
            + realm_bytes
    }

    /// What the same population would cost in a per-host layout: one
    /// [`Locus`] record per host, the public hosts' `HostSet`, and a
    /// rank → id entry per public host. The memory ratio in
    /// `BENCH_engine.json` is `store_bytes / this`, which
    /// `scripts/check_scale.sh` holds to at most 1/4 at a million hosts.
    pub fn dense_equivalent_bytes(&self) -> usize {
        let realm_bytes: usize = self.realm_index.values().map(IpMap::heap_bytes).sum();
        self.len() * std::mem::size_of::<Locus>()
            + self.public.heap_bytes()
            + self.public_len() * std::mem::size_of::<u32>()
            + realm_bytes
    }
}

/// The first locus, in input order, that repeats an earlier one. The
/// input is `public` in order, with `private[i]` placed at input
/// position `private_at[i]`.
fn first_repeat(public: &[Ip], private: &[(RealmId, Ip)], private_at: &[u32]) -> Option<Locus> {
    let mut publics = public.iter().map(|&ip| Locus::Public(ip));
    let mut privates = private.iter().zip(private_at).peekable();
    let mut input = (0u32..).map_while(|at| match privates.next_if(|&(_, &p)| p == at) {
        Some((&(realm, ip), _)) => Some(Locus::Private { realm, ip }),
        None => publics.next(),
    });
    let mut seen = std::collections::HashSet::new();
    input.find(|&locus| !seen.insert(locus))
}

/// Synthesizes a CodeRedII-style vulnerable population: `n` unique public
/// addresses clustered into `slash8s` /8 networks with a Zipf-like
/// weighting (the paper's population: 134,586 addresses in 47 /8s, with
/// the top 20 /8s holding 94% of hosts), and within each /8 clustered
/// into a handful of /16s.
///
/// Returned addresses are globally routable, deduplicated, and sorted.
///
/// # Errors
///
/// [`PopulationError::Slash8Overfull`] when a /8's share of `n` is
/// larger than the distinct /16s drawn for it can hold (each /8 draws
/// 4–40 /16s, so one /8 holds at most 2,621,440 hosts).
///
/// # Panics
///
/// Panics if `n == 0` or `slash8s == 0` or `slash8s > 200`.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let pop = hotspots_sim::synthetic_codered_population(10_000, 47, &mut rng).unwrap();
/// assert_eq!(pop.len(), 10_000);
/// ```
pub fn synthetic_codered_population<R: Rng + ?Sized>(
    n: usize,
    slash8s: usize,
    rng: &mut R,
) -> Result<Vec<Ip>, PopulationError> {
    assert!(n > 0, "population size must be positive");
    assert!((1..=200).contains(&slash8s), "slash8s out of range");

    // Choose distinct routable /8s.
    let mut first_octets: Vec<u8> = (1u8..224)
        .filter(|&o| {
            let probe = Ip::from_octets(o, 1, 0, 0);
            special::is_globally_routable(probe)
        })
        .collect();
    first_octets.shuffle(rng);
    first_octets.truncate(slash8s);

    // Zipf-ish weights: tuned so ~20 of 47 /8s hold ≈94% of hosts.
    const ZIPF_EXPONENT: f64 = 1.9;
    let weights: Vec<f64> = (0..slash8s)
        .map(|i| 1.0 / ((i + 1) as f64).powf(ZIPF_EXPONENT))
        .collect();
    let total_weight: f64 = weights.iter().sum();

    // Each /8 clusters its hosts into a few /16s.
    let mut out: std::collections::BTreeSet<Ip> = std::collections::BTreeSet::new();
    let mut remaining = n;
    for (i, &octet) in first_octets.iter().enumerate() {
        let share = if i + 1 == first_octets.len() {
            remaining
        } else {
            ((n as f64) * weights[i] / total_weight).round() as usize
        };
        let share = share.min(remaining);
        remaining -= share;
        if share == 0 {
            continue;
        }
        let slash16s = rng.gen_range(4..=40usize);
        let subnets: Vec<u8> = (0..slash16s)
            .map(|_| routable_second_octet(octet, rng))
            .collect();
        // Rejection sampling below only ends if the share fits the
        // distinct /16s drawn (the draw may repeat a /16).
        let distinct = subnets
            .iter()
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        if share > distinct * 65_536 {
            return Err(PopulationError::Slash8Overfull {
                octet,
                hosts: share,
                slash16s: distinct,
            });
        }
        let mut placed = 0usize;
        while placed < share {
            let b = *subnets.choose(rng).expect("non-empty"); // hotspots-lint: allow(panic-path) reason="choice list is a non-empty literal"
            let ip = Ip::from_octets(octet, b, rng.gen(), rng.gen());
            if out.insert(ip) {
                placed += 1;
            }
        }
    }
    // Rounding may leave a few unplaced: scatter them in the heaviest /8.
    while out.len() < n {
        let octet = first_octets[0];
        let ip = Ip::from_octets(
            octet,
            routable_second_octet(octet, rng),
            rng.gen(),
            rng.gen(),
        );
        out.insert(ip);
    }
    Ok(out.into_iter().collect())
}

/// Draws a second octet that puts `octet.b.0.0/16` in globally routable
/// space: `172/8` and `192/8` hold private /16s, which are redrawn. On
/// every other routable /8 the first draw stands, so the stream is
/// the one a plain `rng.gen::<u8>()` takes.
fn routable_second_octet<R: Rng + ?Sized>(octet: u8, rng: &mut R) -> u8 {
    loop {
        let b: u8 = rng.gen();
        if special::is_globally_routable(Ip::from_octets(octet, b, 0, 0)) {
            return b;
        }
    }
}

/// Synthesizes an Internet-scale vulnerable population: `n` unique
/// public addresses Zipf-distributed over `slash8s` /8 networks (Chen &
/// Ji's measured shape: a handful of /8s hold most vulnerable hosts)
/// with per-/16 clustering inside each /8.
///
/// Unlike [`synthetic_codered_population`] — which rejection-samples
/// into a dedup set and stalls once a /8's chosen /16s approach
/// saturation — this generator apportions counts up front (largest
/// shares first, capacity-capped), sizes each /8's /16 count to keep
/// fill below ~35%, and draws distinct host offsets without
/// replacement. Every /16's offsets come from one reused 65,536-slot
/// draw table (a dense partial Fisher–Yates), set bits in one
/// 65,536-bit bitmap, and are emitted by walking its set bits straight
/// into the /16's precomputed place in the output. The
/// /8s' and /16s' places follow from the shares and the drawn /16
/// numbers alone, so nothing is sorted or hashed per host: the work is
/// linear in `n` plus 1,024 bitmap words per /16.
///
/// Returned addresses are globally routable, deduplicated by
/// construction, and sorted ascending — exactly the canonical input
/// [`Population::try_compressed_from_public`] wants.
///
/// # Panics
///
/// Panics if `n == 0`, `slash8s` is outside `1..=200`, or `n` exceeds
/// the chosen /8s' total address capacity.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let pop = hotspots_sim::zipf_slash8_population(100_000, 47, &mut rng);
/// assert_eq!(pop.len(), 100_000);
/// assert!(pop.windows(2).all(|w| w[0] < w[1]));
/// ```
pub fn zipf_slash8_population<R: Rng + ?Sized>(n: usize, slash8s: usize, rng: &mut R) -> Vec<Ip> {
    assert!(n > 0, "population size must be positive");
    assert!((1..=200).contains(&slash8s), "slash8s out of range");

    let mut first_octets: Vec<u8> = (1u8..224)
        .filter(|&o| special::is_globally_routable(Ip::from_octets(o, 1, 0, 0)))
        .collect();
    first_octets.shuffle(rng);
    first_octets.truncate(slash8s);
    let slash8s = first_octets.len();

    // A /8 holds 65,536 hosts per routable /16 (fewer than 256 on 172/8
    // and 192/8).
    let cap = |i: usize| routable_slash16s_in(first_octets[i]) * 65_536;
    assert!(
        n <= (0..slash8s).map(cap).sum(),
        "{n} hosts exceed the capacity of {slash8s} /8s"
    );

    // Zipf apportionment over the /8s, capacity-capped, with the
    // rounding remainder dealt round-robin (heaviest /8s first).
    const ZIPF_EXPONENT: f64 = 1.9;
    let weights: Vec<f64> = (0..slash8s)
        .map(|i| 1.0 / ((i + 1) as f64).powf(ZIPF_EXPONENT))
        .collect();
    let total_weight: f64 = weights.iter().sum();
    let mut shares: Vec<usize> = weights
        .iter()
        .enumerate()
        .map(|(i, w)| (((n as f64) * w / total_weight) as usize).min(cap(i)))
        .collect();
    let mut assigned: usize = shares.iter().sum();
    let mut i = 0usize;
    while assigned < n {
        if shares[i] < cap(i) {
            shares[i] += 1;
            assigned += 1;
        }
        i = (i + 1) % slash8s;
    }

    // Per-/16 clustering: enough /16s to keep fill below the load
    // target (so distinct-offset sampling has room), at least 4 when
    // the /8 holds enough hosts to spread.
    const SLASH16_LOAD: f64 = 0.35;

    // Hosts come out ascending, so a /8's hosts start after those of
    // every lower /8, and a /16's after those of every lower /16 in its
    // /8: each place is a prefix sum of counts indexed by octet.
    let mut slash8_start = [0usize; 256];
    for (&octet, &share) in first_octets.iter().zip(&shares) {
        slash8_start[usize::from(octet)] = share;
    }
    counts_to_starts(&mut slash8_start, 0);

    let mut out = vec![Ip::new(0); n];
    let mut table = OffsetTable::new();
    let mut bits = [0u64; 1 << 10];
    for (&octet, &share) in first_octets.iter().zip(&shares) {
        if share == 0 {
            continue;
        }
        let needed = ((share as f64) / (65_536.0 * SLASH16_LOAD)).ceil() as usize;
        let slash16s = needed.clamp(4, routable_slash16s_in(octet)).min(share);
        let mut seconds = rand::seq::index::sample(rng, 256, slash16s).into_vec();
        redraw_private_seconds(octet, &mut seconds, rng);
        let base = share / slash16s;
        let extra = share % slash16s;
        let hosts_in = |j: usize| base + usize::from(j < extra);
        let mut slash16_start = [0usize; 256];
        for (j, &second) in seconds.iter().enumerate() {
            slash16_start[second] = hosts_in(j);
        }
        counts_to_starts(&mut slash16_start, slash8_start[usize::from(octet)]);
        for (j, &second) in seconds.iter().enumerate() {
            let count = hosts_in(j);
            if count == 0 {
                continue;
            }
            for &offset in table.draw(rng, count) {
                bits[usize::from(offset >> 6)] |= 1 << (offset & 63);
            }
            let prefix = (u32::from(octet) << 24) | ((second as u32) << 16);
            let mut place = slash16_start[second];
            for (w, word) in bits.iter_mut().enumerate() {
                let mut set = std::mem::take(word);
                while set != 0 {
                    out[place] = Ip::new(prefix | ((w as u32) << 6) | set.trailing_zeros());
                    place += 1;
                    set &= set - 1;
                }
            }
        }
    }
    out
}

/// The globally routable /16s in `octet.0.0.0/8`: all 256 but on 172/8
/// (240, around 172.16/12) and 192/8 (255, around 192.168/16).
fn routable_slash16s_in(octet: u8) -> usize {
    (0..=u8::MAX)
        .filter(|&b| special::is_globally_routable(Ip::from_octets(octet, b, 0, 0)))
        .count()
}

/// Replaces each second octet in `seconds` (distinct, each below 256)
/// that puts `octet.b.0.0/16` in private space with a fresh routable
/// one not yet among them, in place. A draw with no private /16, which
/// is every draw outside 172/8 and 192/8, takes nothing from `rng`.
fn redraw_private_seconds<R: Rng + ?Sized>(octet: u8, seconds: &mut [usize], rng: &mut R) {
    for k in 0..seconds.len() {
        while !special::is_globally_routable(Ip::from_octets(octet, seconds[k] as u8, 0, 0)) {
            let b = usize::from(routable_second_octet(octet, rng));
            if !seconds.contains(&b) {
                seconds[k] = b;
            }
        }
    }
}

/// Turns per-octet host counts into each octet's first output place,
/// the places counted from `first`.
fn counts_to_starts(counts: &mut [usize; 256], first: usize) {
    let mut next = first;
    for place in counts {
        let hosts = *place;
        *place = next;
        next += hosts;
    }
}

/// A reusable table of the 65,536 offsets in a /16 (or in the shared
/// `192.168/16` realm), from which [`OffsetTable::draw`] takes distinct
/// offsets by a dense partial Fisher–Yates.
///
/// A draw makes the same `gen_range` calls and returns the same offsets
/// in the same order as `rand::seq::index::sample(rng, 1 << 16,
/// count)`, which runs the same shuffle over a hash map of the swapped
/// positions; here every swap is two array writes.
struct OffsetTable {
    /// A permutation of `0..=u16::MAX`, the identity but for the last
    /// draw's swaps; its first `drawn` slots hold that draw.
    slots: Vec<u16>,
    drawn: usize,
}

impl OffsetTable {
    const LEN: usize = 1 << 16;

    fn new() -> OffsetTable {
        OffsetTable {
            slots: (0..=u16::MAX).collect(),
            drawn: 0,
        }
    }

    /// Draws `count` distinct offsets, returned in draw order.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds 65,536.
    fn draw<R: Rng + ?Sized>(&mut self, rng: &mut R, count: usize) -> &[u16] {
        assert!(count <= Self::LEN, "cannot draw {count} of 65,536 offsets");
        self.reset();
        for i in 0..count {
            let j = rng.gen_range(i..Self::LEN);
            self.slots.swap(i, j);
        }
        self.drawn = count;
        &self.slots[..count]
    }

    /// Restores the identity in O(last draw). A slot at or past `drawn`
    /// was ever swapped only if its own offset was drawn, so only the
    /// drawn offsets and the first `drawn` slots need rewriting.
    fn reset(&mut self) {
        let drawn = std::mem::take(&mut self.drawn);
        for i in 0..drawn {
            let offset = self.slots[i];
            if usize::from(offset) >= drawn {
                self.slots[usize::from(offset)] = offset;
            }
        }
        for (i, slot) in self.slots[..drawn].iter_mut().enumerate() {
            *slot = i as u16;
        }
    }
}

/// The /8s [`paper_codered_population`] deals its /16s into.
pub const PAPER_CODERED_SLASH8S: usize = 47;

/// The hosts [`paper_codered_population`] draws.
pub const PAPER_CODERED_HOSTS: usize = 134_586;

/// Synthesizes the CodeRedII vulnerable population calibrated to the
/// paper's published **coverage profile**: 134,586 addresses across
/// 4,481 occupied /16s, where the top-10 /16s hold 10.60% of hosts, the
/// top-100 hold 50.49%, and the top-1000 hold 91.33% (the paper's
/// greedy-hit-list coverages) — with the /16s dealt into 47 /8s so the
/// top-20 /8s hold ≈94% of the population.
///
/// Returned addresses are globally routable, deduplicated, and sorted:
/// a /16 drawn on 172/8 or 192/8 is redrawn if it is private.
///
/// Use this for paper-scale Figure 5 runs;
/// [`synthetic_codered_population`] remains the knob-tunable generator
/// for everything else.
///
/// # Examples
///
/// ```no_run
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let pop = hotspots_sim::paper_codered_population(&mut rng);
/// assert_eq!(pop.len(), 134_586);
/// ```
pub fn paper_codered_population<R: Rng + ?Sized>(rng: &mut R) -> Vec<Ip> {
    // Rank bands with the paper's cumulative coverages at 10/100/1000/4481:
    // hosts are spread evenly within each band, so the greedy top-k
    // coverages match the published numbers exactly by construction.
    const BANDS: [(usize, f64); 4] = [
        (10, 0.1060),   // ranks 1..=10
        (90, 0.3989),   // ranks 11..=100   (0.5049 - 0.1060)
        (900, 0.4084),  // ranks 101..=1000 (0.9133 - 0.5049)
        (3481, 0.0867), // ranks 1001..=4481
    ];
    let mut counts: Vec<usize> = Vec::with_capacity(4_481);
    for (width, mass) in BANDS {
        let band_hosts = (mass * PAPER_CODERED_HOSTS as f64).round() as usize;
        let base = band_hosts / width;
        let extra = band_hosts % width;
        for i in 0..width {
            counts.push((base + usize::from(i < extra)).max(1));
        }
    }
    // rounding fix-up to land on the exact host count, adjusting the tail band
    let mut total: isize = counts.iter().sum::<usize>() as isize;
    let mut i = counts.len();
    while total != PAPER_CODERED_HOSTS as isize {
        i = if i == 0 { counts.len() - 1 } else { i - 1 };
        let adjust: isize = if total > PAPER_CODERED_HOSTS as isize {
            -1
        } else {
            1
        };
        if counts[i] as isize + adjust >= 1 {
            counts[i] = (counts[i] as isize + adjust) as usize;
            total += adjust;
        }
    }

    // choose 47 routable /8s and deal the ranked /16s into them with a
    // Zipf weighting so the heavy /16s concentrate in the top /8s
    let mut first_octets: Vec<u8> = (1u8..224)
        .filter(|&o| special::is_globally_routable(Ip::from_octets(o, 1, 0, 0)))
        .collect();
    first_octets.shuffle(rng);
    first_octets.truncate(PAPER_CODERED_SLASH8S);
    let weights: Vec<f64> = (0..PAPER_CODERED_SLASH8S)
        .map(|i| 1.0 / ((i + 1) as f64).powf(1.3))
        .collect();
    let weight_sum: f64 = weights.iter().sum();
    // track used second octets per /8 to keep /16s distinct, up to the
    // /8's routable /16s
    let mut used: Vec<std::collections::HashSet<u8>> = (0..PAPER_CODERED_SLASH8S)
        .map(|_| std::collections::HashSet::new())
        .collect();

    let mut out: std::collections::BTreeSet<Ip> = std::collections::BTreeSet::new();
    for count in counts {
        // weighted /8 pick with room for another /16
        let slot = loop {
            let mut draw = rng.gen::<f64>() * weight_sum;
            let mut pick = 0usize;
            for (k, w) in weights.iter().enumerate() {
                draw -= w;
                if draw <= 0.0 {
                    pick = k;
                    break;
                }
            }
            if used[pick].len() < routable_slash16s_in(first_octets[pick]) {
                break pick;
            }
        };
        let second = loop {
            let b = routable_second_octet(first_octets[slot], rng);
            if used[slot].insert(b) {
                break b;
            }
        };
        let mut placed = 0usize;
        while placed < count {
            let ip = Ip::from_octets(first_octets[slot], second, rng.gen(), rng.gen());
            if out.insert(ip) {
                placed += 1;
            }
        }
    }
    out.into_iter().collect()
}

/// Moves a fraction of a public population behind home NATs: each
/// selected host gets a random `192.168.x.y` address in its own
/// single-host realm whose gateway is the host's original public address
/// (Figure 5(c): "we configured 15% of vulnerable hosts as if they were
/// NATed with 192.168/16 addresses").
///
/// Realms are registered into `env`; the returned loci parallel the input
/// order.
///
/// # Errors
///
/// Returns [`PopulationError::NatGatewayNotPublic`] if a selected host's
/// address is not globally routable (realms registered before the
/// failing host stay in `env`).
///
/// # Panics
///
/// Panics if `fraction` is outside `0.0..=1.0`.
pub fn apply_nat<R: Rng + ?Sized>(
    env: &mut Environment,
    public_addrs: &[Ip],
    fraction: f64,
    rng: &mut R,
) -> Result<Vec<Locus>, PopulationError> {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "NAT fraction {fraction} out of [0, 1]"
    );
    public_addrs
        .iter()
        .map(|&ip| {
            if rng.gen::<f64>() < fraction {
                let home = NatRealm::home_192_168(ip)
                    .map_err(|_| PopulationError::NatGatewayNotPublic { ip })?;
                let realm = env.add_realm(home);
                let private = Ip::from_octets(192, 168, rng.gen(), rng.gen());
                Ok(Locus::Private { realm, ip: private })
            } else {
                Ok(Locus::Public(ip))
            }
        })
        .collect()
}

/// Private addresses in the one `192.168/16` realm [`apply_nat_shared`]
/// fills.
const SHARED_REALM_CAPACITY: usize = 1 << 16;

/// Moves a fraction of a public population into **one shared** private
/// space: every selected host gets a distinct random `192.168.x.y`
/// address inside a single realm.
///
/// This is the topology the paper's Figure 5(c) simulation implies: the
/// NATed 15% of the vulnerable population live together in `192.168/16`,
/// so a NATed instance's /16-preferring probes can infect other NATed
/// hosts (igniting the private cluster whose /8 probes then flood public
/// `192/8`). Use [`apply_nat`] instead to model strictly isolated
/// per-home NATs — the stricter-isolation ablation.
///
/// # Errors
///
/// Returns [`PopulationError::NatRealmFull`] if the selected host count
/// exceeds the realm's 65,536 private addresses; `env` is then left
/// untouched.
///
/// # Panics
///
/// Panics if `fraction` is out of `0.0..=1.0`.
pub fn apply_nat_shared<R: Rng + ?Sized>(
    env: &mut Environment,
    public_addrs: &[Ip],
    fraction: f64,
    rng: &mut R,
) -> Result<Vec<Locus>, PopulationError> {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "NAT fraction {fraction} out of [0, 1]"
    );
    let selected: Vec<bool> = public_addrs
        .iter()
        .map(|_| rng.gen::<f64>() < fraction)
        .collect();
    let count = selected.iter().filter(|&&s| s).count();
    if count > SHARED_REALM_CAPACITY {
        return Err(PopulationError::NatRealmFull { hosts: count });
    }
    // The shared realm's gateway: a documentation-range public address
    // (sources of NATed probes are irrelevant to the detection studies
    // this topology serves).
    let realm = env.add_realm(
        NatRealm::home_192_168(Ip::from_octets(198, 51, 100, 1))
            .expect("documentation gateway is public"), // hotspots-lint: allow(panic-path) reason="documentation gateway is public"
    );
    // distinct private addresses without replacement
    let mut table = OffsetTable::new();
    let slots = table.draw(rng, count);
    let mut next = 0;
    Ok(public_addrs
        .iter()
        .zip(selected)
        .map(|(&ip, natted)| {
            if natted {
                // `count` slots, one per NATed host, in draw order
                let [hi, lo] = slots[next].to_be_bytes();
                next += 1;
                let private = Ip::from_octets(192, 168, hi, lo);
                Locus::Private { realm, ip: private }
            } else {
                Locus::Public(ip)
            }
        })
        .collect())
}

/// Convenience: the /16 prefixes occupied by at least one population
/// address (the sensor-placement input for Figure 5(b)).
pub fn occupied_slash16s(addrs: &[Ip]) -> Vec<Prefix> {
    let mut set: std::collections::BTreeSet<Prefix> = std::collections::BTreeSet::new();
    for &ip in addrs {
        set.insert(ip.bucket16().prefix());
    }
    set.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspots_ipspace::Bucket8;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_public_addresses_rejected() {
        let ip = Ip::from_octets(1, 2, 3, 4);
        let _ = Population::from_public([ip, ip]);
    }

    #[test]
    fn duplicate_addresses_are_typed_errors() {
        let ip = Ip::from_octets(1, 2, 3, 4);
        let err = Population::try_from_public([ip, ip]).unwrap_err();
        assert_eq!(
            err,
            PopulationError::Duplicate {
                locus: Locus::Public(ip)
            }
        );
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn duplicate_error_names_the_first_repeat_in_input_order() {
        let mut env = Environment::new();
        let realm = env.add_realm(NatRealm::home_192_168(Ip::from_octets(9, 0, 0, 1)).unwrap());
        let low = Locus::Public(Ip::from_octets(9, 0, 0, 1));
        let high = Locus::Public(Ip::from_octets(9, 0, 0, 9));
        let private = Locus::Private {
            realm,
            ip: Ip::from_octets(192, 168, 0, 1),
        };
        // `high` sorts after `low` but repeats first; the private copy
        // repeats between them, or first, or last.
        let cases = [
            (vec![high, low, high, low], high),
            (vec![high, low, low, high], low),
            (vec![private, high, low, high, private, low], high),
            (vec![private, high, low, private, high, low], private),
            (vec![high, private, low, low, private, high], low),
        ];
        for (loci, first_repeat) in cases {
            let err = Population::try_from_loci(loci.iter().copied()).unwrap_err();
            assert_eq!(
                err,
                PopulationError::Duplicate {
                    locus: first_repeat
                },
                "{loci:?}"
            );
        }
    }

    #[test]
    fn compressed_store_requires_sorted_publics() {
        let a = Ip::from_octets(9, 0, 0, 1);
        let b = Ip::from_octets(9, 0, 0, 2);
        assert!(Population::try_compressed_from_public(&[a, b]).is_ok());
        let err = Population::try_compressed_from_public(&[b, a]).unwrap_err();
        assert_eq!(err, PopulationError::UnsortedPublic { ip: a });
        let err = Population::try_compressed_from_public(&[a, a]).unwrap_err();
        assert!(matches!(err, PopulationError::Duplicate { .. }));
    }

    #[test]
    fn compressed_store_lookups_match_dense() {
        let addrs: Vec<Ip> = (0..500u32).map(|i| Ip::new(0x0b0b_0000 + i * 7)).collect();
        let dense = Population::from_public(addrs.iter().copied());
        let compressed = Population::try_compressed_from_public(&addrs).unwrap();
        assert_eq!(dense.len(), compressed.len());
        assert_eq!(dense.public_len(), compressed.public_len());
        for (id, &ip) in addrs.iter().enumerate() {
            assert_eq!(dense.find_public(ip), Some(id));
            assert_eq!(compressed.find_public(ip), Some(id));
            assert_eq!(dense.locus(id), compressed.locus(id));
        }
        assert_eq!(compressed.find_public(Ip::new(0x0b0b_0001)), None);
    }

    #[test]
    fn compressed_store_with_private_hosts() {
        let mut env = Environment::new();
        let realm = env.add_realm(NatRealm::home_192_168(Ip::from_octets(9, 0, 0, 1)).unwrap());
        let publics = [Ip::from_octets(9, 0, 0, 2), Ip::from_octets(9, 0, 0, 3)];
        let private = Ip::from_octets(192, 168, 1, 1);
        let pop = Population::try_compressed_from_parts(&publics, [(realm, private)]).unwrap();
        assert_eq!(pop.len(), 3);
        assert_eq!(pop.public_len(), 2);
        assert_eq!(pop.find_private(realm, private), Some(2));
        assert_eq!(pop.locus(2), Locus::Private { realm, ip: private });
        // duplicate private in the same realm is a typed error
        let err =
            Population::try_compressed_from_parts(&publics, [(realm, private), (realm, private)])
                .unwrap_err();
        assert!(matches!(err, PopulationError::Duplicate { .. }));
    }

    #[test]
    fn compressed_store_memory_is_far_below_dense() {
        let addrs: Vec<Ip> = (0..100_000u32)
            .map(|i| Ip::new(0x0b00_0000 + i * 11))
            .collect();
        let compressed = Population::try_compressed_from_public(&addrs).unwrap();
        assert!(
            compressed.store_bytes() * 4 <= compressed.dense_equivalent_bytes(),
            "compressed {} vs dense-equivalent {}",
            compressed.store_bytes(),
            compressed.dense_equivalent_bytes()
        );
        // sorted or shuffled, the input builds the same population:
        // no id table, whatever the order
        let sorted = Population::from_public(addrs.iter().copied());
        assert_eq!(sorted.store_bytes(), compressed.store_bytes());
        let mut shuffled = addrs.clone();
        shuffled.shuffle(&mut StdRng::seed_from_u64(3));
        let shuffled = Population::from_public(shuffled);
        assert_eq!(shuffled.store_bytes(), compressed.store_bytes());
    }

    #[test]
    fn loci_are_numbered_sorted_publics_then_privates_in_order() {
        let mut env = Environment::new();
        let realm = env.add_realm(NatRealm::home_192_168(Ip::from_octets(9, 0, 0, 1)).unwrap());
        let loci = [
            Locus::Public(Ip::from_octets(9, 0, 0, 5)),
            Locus::Private {
                realm,
                ip: Ip::from_octets(192, 168, 0, 2),
            },
            Locus::Public(Ip::from_octets(9, 0, 0, 1)),
            Locus::Private {
                realm,
                ip: Ip::from_octets(192, 168, 0, 1),
            },
        ];
        let pop = Population::from_loci(loci);
        let ids: Vec<Locus> = (0..pop.len()).map(|id| pop.locus(id)).collect();
        assert_eq!(ids, [loci[2], loci[0], loci[1], loci[3]]);
        assert_eq!(pop.find_public(Ip::from_octets(9, 0, 0, 5)), Some(1));
        assert_eq!(
            pop.find_private(realm, Ip::from_octets(192, 168, 0, 2)),
            Some(2)
        );
    }

    #[test]
    fn private_lookup_is_realm_scoped() {
        let mut env = Environment::new();
        let ra = env.add_realm(NatRealm::home_192_168(Ip::from_octets(7, 0, 0, 1)).unwrap());
        let rb = env.add_realm(NatRealm::home_192_168(Ip::from_octets(7, 0, 0, 2)).unwrap());
        let shared_private = Ip::from_octets(192, 168, 1, 1);
        let pop = Population::from_loci([
            Locus::Private {
                realm: ra,
                ip: shared_private,
            },
            Locus::Private {
                realm: rb,
                ip: shared_private,
            },
        ]);
        assert_eq!(pop.find_private(ra, shared_private), Some(0));
        assert_eq!(pop.find_private(rb, shared_private), Some(1));
        assert_eq!(pop.find_public(shared_private), None);
    }

    #[test]
    fn synthetic_population_is_clustered_like_the_paper() {
        let mut rng = StdRng::seed_from_u64(2006);
        let pop = synthetic_codered_population(50_000, 47, &mut rng).unwrap();
        assert_eq!(pop.len(), 50_000);
        // all unique (BTreeSet) and routable
        assert!(pop.iter().all(|&ip| special::is_globally_routable(ip)));
        // occupies ≤ 47 /8s, and the top 20 hold ~94%
        let mut per8: std::collections::HashMap<Bucket8, u64> = std::collections::HashMap::new();
        for &ip in &pop {
            *per8.entry(ip.bucket8()).or_insert(0) += 1;
        }
        assert!(per8.len() <= 47);
        let mut counts: Vec<u64> = per8.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top20: u64 = counts.iter().take(20).sum();
        let share = top20 as f64 / 50_000.0;
        assert!(
            (0.88..=0.99).contains(&share),
            "top-20 /8 share {share} outside the paper's ~94% ballpark"
        );
    }

    #[test]
    fn synthetic_population_rejects_an_overfull_slash8() {
        // One /8 draws at most 40 /16s (2,621,440 addresses): a larger
        // share is a typed error, not an endless rejection loop.
        let mut rng = StdRng::seed_from_u64(1);
        match synthetic_codered_population(3_000_000, 1, &mut rng) {
            Err(PopulationError::Slash8Overfull {
                hosts, slash16s, ..
            }) => {
                assert_eq!(hosts, 3_000_000);
                assert!((1..=40).contains(&slash16s));
            }
            other => panic!("expected Slash8Overfull, got {:?}", other.map(|p| p.len())),
        }
    }

    #[test]
    fn zipf_population_is_sorted_unique_and_clustered() {
        let mut rng = StdRng::seed_from_u64(2006);
        let pop = zipf_slash8_population(200_000, 47, &mut rng);
        assert_eq!(pop.len(), 200_000);
        assert!(
            pop.windows(2).all(|w| w[0] < w[1]),
            "sorted and deduplicated by construction"
        );
        assert!(pop.iter().all(|&ip| special::is_globally_routable(ip)));
        // Zipf over /8s: heavy concentration in the top blocks.
        let mut per8: std::collections::BTreeMap<u8, u64> = std::collections::BTreeMap::new();
        for &ip in &pop {
            *per8.entry(ip.octets()[0]).or_insert(0) += 1;
        }
        assert!(per8.len() <= 47);
        let mut counts: Vec<u64> = per8.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top5: u64 = counts.iter().take(5).sum();
        assert!(
            top5 as f64 / 200_000.0 > 0.80,
            "Zipf 1.9 should concentrate the top-5 /8s, got {top5}"
        );
        // per-/16 clustering: hosts sit in few /16s relative to spread
        let slash16s: std::collections::BTreeSet<u32> =
            pop.iter().map(|ip| ip.value() >> 16).collect();
        assert!(
            slash16s.len() < 2_000,
            "expected clustering, got {} /16s",
            slash16s.len()
        );
    }

    #[test]
    fn zipf_population_feeds_the_compressed_store() {
        let mut rng = StdRng::seed_from_u64(1);
        let pop = zipf_slash8_population(50_000, 20, &mut rng);
        let compressed = Population::try_compressed_from_public(&pop).unwrap();
        assert_eq!(compressed.len(), 50_000);
        assert_eq!(compressed.find_public(pop[499]), Some(499));
    }

    #[test]
    fn paper_profile_matches_published_coverages() {
        let mut rng = StdRng::seed_from_u64(2006);
        let pop = paper_codered_population(&mut rng);
        assert_eq!(pop.len(), 134_586);
        // occupied /16 count matches the paper
        let mut per16: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        let mut per8: std::collections::HashMap<u8, u64> = std::collections::HashMap::new();
        for &ip in &pop {
            *per16.entry(ip.value() >> 16).or_insert(0) += 1;
            *per8.entry(ip.octets()[0]).or_insert(0) += 1;
        }
        assert_eq!(per16.len(), 4_481, "occupied /16s");
        assert!(per8.len() <= 47);
        // greedy top-k coverages within 2 points of the paper's numbers
        let mut counts: Vec<u64> = per16.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total = 134_586f64;
        let cov = |k: usize| counts.iter().take(k).sum::<u64>() as f64 / total;
        assert!((cov(10) - 0.1060).abs() < 0.02, "top10 {}", cov(10));
        assert!((cov(100) - 0.5049).abs() < 0.02, "top100 {}", cov(100));
        assert!((cov(1000) - 0.9133).abs() < 0.02, "top1000 {}", cov(1000));
        // top-20 /8s hold ~94%
        let mut c8: Vec<u64> = per8.values().copied().collect();
        c8.sort_unstable_by(|a, b| b.cmp(a));
        let top20 = c8.iter().take(20).sum::<u64>() as f64 / total;
        assert!((0.85..=1.0).contains(&top20), "top-20 /8 share {top20}");
    }

    /// The paper-calibrated generator's addresses are globally
    /// routable for several seeds.
    #[test]
    fn paper_population_is_globally_routable() {
        for seed in [1, 2006, 7, 42, 99] {
            let pop = paper_codered_population(&mut StdRng::seed_from_u64(seed));
            let stray = pop.iter().find(|&&ip| !special::is_globally_routable(ip));
            assert_eq!(stray, None, "seed {seed}");
        }
    }

    #[test]
    fn apply_nat_fraction_and_realms() {
        let mut env = Environment::new();
        let mut rng = StdRng::seed_from_u64(15);
        let addrs: Vec<Ip> = (0..2000u32).map(|i| Ip::new(0x0101_0000 + i)).collect();
        let loci = apply_nat(&mut env, &addrs, 0.15, &mut rng).unwrap();
        let natted = loci
            .iter()
            .filter(|l| matches!(l, Locus::Private { .. }))
            .count();
        let frac = natted as f64 / loci.len() as f64;
        assert!((0.10..0.20).contains(&frac), "NAT fraction {frac}");
        assert_eq!(env.realm_count(), natted);
        for locus in &loci {
            if let Locus::Private { ip, .. } = locus {
                assert!(special::PRIVATE_192.contains(*ip));
            }
        }
    }

    #[test]
    fn apply_nat_zero_and_one() {
        let mut env = Environment::new();
        let mut rng = StdRng::seed_from_u64(1);
        let addrs = vec![Ip::from_octets(1, 1, 1, 1), Ip::from_octets(2, 2, 2, 2)];
        let none = apply_nat(&mut env, &addrs, 0.0, &mut rng).unwrap();
        assert!(none.iter().all(|l| matches!(l, Locus::Public(_))));
        let all = apply_nat(&mut env, &addrs, 1.0, &mut rng).unwrap();
        assert!(all.iter().all(|l| matches!(l, Locus::Private { .. })));
    }

    #[test]
    fn apply_nat_shared_one_realm_distinct_addresses() {
        let mut env = Environment::new();
        let mut rng = StdRng::seed_from_u64(8);
        let addrs: Vec<Ip> = (0..5000u32).map(|i| Ip::new(0x1716_0000 + i)).collect();
        let loci = apply_nat_shared(&mut env, &addrs, 0.3, &mut rng).unwrap();
        assert_eq!(env.realm_count(), 1, "shared topology uses one realm");
        let mut privates = std::collections::HashSet::new();
        let mut natted = 0usize;
        for locus in &loci {
            if let Locus::Private { ip, .. } = locus {
                natted += 1;
                assert!(special::PRIVATE_192.contains(*ip));
                assert!(privates.insert(*ip), "duplicate private address {ip}");
            }
        }
        let frac = natted as f64 / loci.len() as f64;
        assert!((0.25..0.35).contains(&frac), "NAT fraction {frac}");
        // the population indexes cleanly (no collisions)
        let pop = Population::from_loci(loci);
        assert_eq!(pop.len(), 5000);
    }

    #[test]
    fn apply_nat_rejects_a_private_gateway() {
        let mut env = Environment::new();
        let mut rng = StdRng::seed_from_u64(1);
        let addrs = vec![Ip::from_octets(1, 1, 1, 1), Ip::from_octets(10, 0, 0, 1)];
        let err = apply_nat(&mut env, &addrs, 1.0, &mut rng).unwrap_err();
        assert_eq!(
            err,
            PopulationError::NatGatewayNotPublic {
                ip: Ip::from_octets(10, 0, 0, 1)
            }
        );
        assert!(err.to_string().contains("10.0.0.1"), "{err}");
    }

    #[test]
    fn apply_nat_shared_rejects_an_overfull_realm() {
        let mut env = Environment::new();
        let mut rng = StdRng::seed_from_u64(2);
        let addrs: Vec<Ip> = (0..70_000u32).map(|i| Ip::new(0x0b00_0000 + i)).collect();
        let err = apply_nat_shared(&mut env, &addrs, 1.0, &mut rng).unwrap_err();
        assert_eq!(err, PopulationError::NatRealmFull { hosts: 70_000 });
        assert!(err.to_string().contains("65536"), "{err}");
        assert_eq!(env.realm_count(), 0, "no realm registered on failure");
        // exactly full is fine
        let loci = apply_nat_shared(&mut env, &addrs[..65_536], 1.0, &mut rng).unwrap();
        assert_eq!(loci.len(), 65_536);
    }

    #[test]
    fn occupied_slash16s_deduplicates() {
        let addrs = vec![
            Ip::from_octets(10, 1, 0, 1),
            Ip::from_octets(10, 1, 200, 1),
            Ip::from_octets(10, 2, 0, 1),
        ];
        let subs = occupied_slash16s(&addrs);
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[0].to_string(), "10.1.0.0/16");
    }

    /// `zipf_slash8_population` as it was written before the draw table:
    /// `index::sample` per /16, then one sort over every host.
    fn zipf_reference(n: usize, slash8s: usize, rng: &mut StdRng) -> Vec<Ip> {
        let mut first_octets: Vec<u8> = (1u8..224)
            .filter(|&o| special::is_globally_routable(Ip::from_octets(o, 1, 0, 0)))
            .collect();
        first_octets.shuffle(rng);
        first_octets.truncate(slash8s);
        let slash8s = first_octets.len();
        const SLASH8_CAP: usize = 256 * 65_536;
        let weights: Vec<f64> = (0..slash8s)
            .map(|i| 1.0 / ((i + 1) as f64).powf(1.9))
            .collect();
        let total_weight: f64 = weights.iter().sum();
        let mut shares: Vec<usize> = weights
            .iter()
            .map(|w| (((n as f64) * w / total_weight) as usize).min(SLASH8_CAP))
            .collect();
        let mut assigned: usize = shares.iter().sum();
        let mut i = 0usize;
        while assigned < n {
            if shares[i] < SLASH8_CAP {
                shares[i] += 1;
                assigned += 1;
            }
            i = (i + 1) % slash8s;
        }
        let mut out: Vec<Ip> = Vec::with_capacity(n);
        for (&octet, &share) in first_octets.iter().zip(&shares) {
            if share == 0 {
                continue;
            }
            let needed = ((share as f64) / (65_536.0 * 0.35)).ceil() as usize;
            let slash16s = needed.clamp(4, 256).min(share);
            let mut seconds = rand::seq::index::sample(rng, 256, slash16s).into_vec();
            redraw_private_seconds(octet, &mut seconds, rng);
            let base = share / slash16s;
            let extra = share % slash16s;
            for (j, &second) in seconds.iter().enumerate() {
                let count = base + usize::from(j < extra);
                for offset in rand::seq::index::sample(rng, 1 << 16, count).iter() {
                    out.push(Ip::from_octets(
                        octet,
                        second as u8,
                        (offset >> 8) as u8,
                        (offset & 0xff) as u8,
                    ));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// `apply_nat_shared`'s private slots as `index::sample` drew them.
    fn nat_shared_reference(
        env: &mut Environment,
        public_addrs: &[Ip],
        fraction: f64,
        rng: &mut StdRng,
    ) -> Result<Vec<Locus>, PopulationError> {
        let selected: Vec<bool> = public_addrs
            .iter()
            .map(|_| rng.gen::<f64>() < fraction)
            .collect();
        let count = selected.iter().filter(|&&s| s).count();
        if count > SHARED_REALM_CAPACITY {
            return Err(PopulationError::NatRealmFull { hosts: count });
        }
        let realm =
            env.add_realm(NatRealm::home_192_168(Ip::from_octets(198, 51, 100, 1)).unwrap());
        let mut slots = rand::seq::index::sample(rng, SHARED_REALM_CAPACITY, count).into_iter();
        Ok(public_addrs
            .iter()
            .zip(selected)
            .map(|(&ip, natted)| match natted {
                true => {
                    let slot = slots.next().unwrap();
                    let ip = Ip::from_octets(192, 168, (slot >> 8) as u8, slot as u8);
                    Locus::Private { realm, ip }
                }
                false => Locus::Public(ip),
            })
            .collect())
    }

    #[test]
    fn offset_table_draws_match_index_sample_across_reuse() {
        let mut table = OffsetTable::new();
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        for count in [0, 1, 65_536, 3, 40_000, 65_535, 2, 0, 7] {
            let want = rand::seq::index::sample(&mut b, 1 << 16, count).into_vec();
            let got: Vec<usize> = table
                .draw(&mut a, count)
                .iter()
                .map(|&o| usize::from(o))
                .collect();
            assert_eq!(got, want, "count {count}");
        }
        table.reset();
        assert!(table
            .slots
            .iter()
            .enumerate()
            .all(|(i, &o)| usize::from(o) == i));
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "streams stay in step");
    }

    proptest::proptest! {
        /// The draw-table synthesis emits exactly what `index::sample`
        /// per /16 plus a sort did, and leaves the stream in step.
        #[test]
        fn zipf_population_matches_the_index_sample_reference(
            scale in 1usize..=200_000,
            shift in 0u32..=17,
            slash8s in 1usize..=60,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let n = (scale >> shift).max(1);
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            let got = zipf_slash8_population(n, slash8s, &mut a);
            proptest::prop_assert_eq!(got, zipf_reference(n, slash8s, &mut b));
            proptest::prop_assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }

        /// The shared realm's slots come from the draw table in
        /// `index::sample`'s order.
        #[test]
        fn nat_shared_loci_match_the_index_sample_reference(
            hosts in 0usize..=20_000,
            fraction in 0.0..1.0,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let public: Vec<Ip> = (0..hosts as u32).map(|i| Ip::new(0x0b00_0000 + 7 * i)).collect();
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            let got = apply_nat_shared(&mut Environment::new(), &public, fraction, &mut a);
            let want = nat_shared_reference(&mut Environment::new(), &public, fraction, &mut b);
            proptest::prop_assert_eq!(got, want);
            proptest::prop_assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }

        /// Every constructor numbers hosts canonically, sorted public
        /// addresses first and then private hosts in input order, and
        /// answers `len` / `find_public` / `find_private` / `locus` as a
        /// `BTreeMap` from locus to canonical position does, for
        /// shuffled and canonical mixes of public and private hosts
        /// across up to 3 realms; rank ids round-trip through the
        /// /8→/16→/24 hierarchy. Whatever the input order, the build
        /// costs exactly what `try_compressed_from_parts` does.
        #[test]
        fn stores_agree_for_arbitrary_populations(
            raw in proptest::collection::vec(proptest::prelude::any::<u32>(), 1..400),
            realm_count in 1u32..=3,
            shuffled in proptest::prelude::any::<bool>(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            use proptest::prop_assert_eq;
            use std::collections::BTreeSet;

            let mut env = Environment::new();
            let realms: Vec<RealmId> = (0..realm_count)
                .map(|i| env.add_realm(NatRealm::home_192_168(Ip::new(0x0700_0001 + i)).unwrap()))
                .collect();
            let mut public: BTreeSet<Ip> = BTreeSet::new();
            let mut private: Vec<(RealmId, Ip)> = Vec::new();
            for (i, &v) in raw.iter().enumerate() {
                if i % 3 == 0 {
                    let realm = realms[(v >> 16) as usize % realms.len()];
                    let ip = Ip::from_octets(192, 168, (v >> 8) as u8, v as u8);
                    if !private.contains(&(realm, ip)) {
                        private.push((realm, ip));
                    }
                } else {
                    // scatter publics across several /8s and /16s
                    public.insert(Ip::new(0x0900_0000 | (v & 0x03ff_ffff)));
                }
            }
            let public: Vec<Ip> = public.into_iter().collect();
            let canonical: Vec<Locus> = public
                .iter()
                .copied()
                .map(Locus::Public)
                .chain(private.iter().map(|&(realm, ip)| Locus::Private { realm, ip }))
                .collect();
            let mut loci = canonical.clone();
            if shuffled {
                // shuffling keeps the private hosts' relative order
                loci.shuffle(&mut StdRng::seed_from_u64(seed));
                let mut in_order = private.iter();
                for locus in &mut loci {
                    if let Locus::Private { .. } = locus {
                        let &(realm, ip) = in_order.next().unwrap();
                        *locus = Locus::Private { realm, ip };
                    }
                }
            }
            let pop = Population::try_from_loci(loci.iter().copied()).unwrap();
            let compressed =
                Population::try_compressed_from_parts(&public, private.iter().copied()).unwrap();
            let mut public_model: BTreeMap<Ip, usize> = BTreeMap::new();
            let mut private_model: BTreeMap<(RealmId, Ip), usize> = BTreeMap::new();
            for (id, &locus) in canonical.iter().enumerate() {
                match locus {
                    Locus::Public(ip) => public_model.insert(ip, id),
                    Locus::Private { realm, ip } => private_model.insert((realm, ip), id),
                };
            }
            for pop in [&pop, &compressed] {
                for (id, &locus) in canonical.iter().enumerate() {
                    prop_assert_eq!(pop.locus(id), locus);
                }
                prop_assert_eq!(pop.len(), canonical.len());
                prop_assert_eq!(pop.public_len(), public.len());
                // members and near misses: public addresses one bit
                // away, and every private address asked of every realm
                let near = public.iter().flat_map(|ip| [*ip, Ip::new(ip.value() ^ 1)]);
                for probe in near.chain(private.iter().map(|&(_, ip)| ip)) {
                    prop_assert_eq!(pop.find_public(probe), public_model.get(&probe).copied());
                }
                for &(_, ip) in &private {
                    for &realm in &realms {
                        let want = private_model.get(&(realm, ip)).copied();
                        prop_assert_eq!(pop.find_private(realm, ip), want);
                    }
                }
            }
            prop_assert_eq!(pop.store_bytes(), compressed.store_bytes());
        }

        /// Every address the CodeRedII generator draws is globally
        /// routable. With up to 200 /8s it draws 172/8 and 192/8,
        /// whose private /16s (172.16/12, 192.168/16) it must skip.
        #[test]
        fn synthetic_population_is_globally_routable(
            n in 1usize..=20_000,
            slash8s in 1usize..=200,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let pop = synthetic_codered_population(n, slash8s, &mut rng).unwrap();
            let stray = pop.iter().find(|&&ip| !special::is_globally_routable(ip));
            proptest::prop_assert_eq!(stray, None);
        }

        /// The same for the Zipf generator.
        #[test]
        fn zipf_population_is_globally_routable(
            n in 1usize..=200_000,
            slash8s in 1usize..=200,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let pop = zipf_slash8_population(n, slash8s, &mut rng);
            let stray = pop.iter().find(|&&ip| !special::is_globally_routable(ip));
            proptest::prop_assert_eq!(stray, None);
        }

        /// `try_from_public` numbers shuffled public addresses by rank:
        /// `find_public` answers as a `BTreeMap` from address to sorted
        /// position does, for members and for probes that miss.
        #[test]
        fn dense_store_finds_shuffled_publics(
            raw in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..400),
            probes in proptest::collection::vec(proptest::prelude::any::<u32>(), 64),
            seed in proptest::prelude::any::<u64>(),
        ) {
            use proptest::prop_assert_eq;

            let addrs: Vec<Ip> = raw
                .iter()
                .map(|&v| Ip::new(v))
                .collect::<std::collections::BTreeSet<Ip>>()
                .into_iter()
                .collect();
            let want: BTreeMap<Ip, usize> = addrs.iter().enumerate().map(|(id, &ip)| (ip, id)).collect();
            let mut shuffled = addrs.clone();
            shuffled.shuffle(&mut StdRng::seed_from_u64(seed));
            let pop = Population::try_from_public(shuffled).unwrap();
            prop_assert_eq!(pop.public_len(), addrs.len());
            for (id, &ip) in addrs.iter().enumerate() {
                prop_assert_eq!(pop.find_public(ip), Some(id));
                prop_assert_eq!(pop.locus(id), Locus::Public(ip));
            }
            // probes uniform, and inside members' /24s and /16s
            let near = addrs.iter().zip(&probes).flat_map(|(ip, &p)| {
                let v = ip.value();
                [(v & !0xff) | (p & 0xff), (v & !0xffff) | (p & 0xffff)]
            });
            for v in probes.iter().copied().chain(near) {
                let ip = Ip::new(v);
                prop_assert_eq!(pop.find_public(ip), want.get(&ip).copied());
            }
        }
    }
}
