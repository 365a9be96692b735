//! Sensor placement strategies (Figure 5's three deployments).
//!
//! Hotspots make placement matter: the paper shows that 10,000 randomly
//! placed /24 sensors detect a NAT-biased worm far more slowly than 255
//! sensors placed inside the hotspot's /8. These builders produce the
//! compared deployments as lists of disjoint /24 prefixes ready for a
//! [`DetectorField`](crate::DetectorField).

use std::collections::BTreeSet;
use std::fmt;

use hotspots_ipspace::{special, Bucket8, Ip, Prefix};
use rand::Rng;

/// Why a deployment of disjoint /24 sensors could not be placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementError {
    /// More sensors than the space they may occupy has /24s.
    OverCapacity {
        /// Sensors asked for.
        requested: usize,
        /// Disjoint /24s the space holds.
        capacity: usize,
    },
    /// The draw budget (100 draws per sensor) ran out first: an avoid
    /// list left too little of the space.
    Exhausted {
        /// Sensors asked for.
        requested: usize,
        /// Sensors placed before the budget ran out.
        placed: usize,
    },
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::OverCapacity {
                requested,
                capacity,
            } => write!(
                f,
                "{requested} sensors exceed the {capacity} disjoint /24s they may occupy"
            ),
            PlacementError::Exhausted { requested, placed } => write!(
                f,
                "placed only {placed} of {requested} disjoint /24 sensors before the draw budget ran out"
            ),
        }
    }
}

impl std::error::Error for PlacementError {}

/// Draws `n` distinct /24s from `draw` (which may reject a draw with
/// `None`) in a space of `capacity` /24s. A request above `capacity`
/// fails before any draw; otherwise the draws give up after 100·n (at
/// least 10,000).
fn distinct_slash24s(
    n: usize,
    capacity: usize,
    mut draw: impl FnMut() -> Option<Prefix>,
) -> Result<Vec<Prefix>, PlacementError> {
    if n > capacity {
        return Err(PlacementError::OverCapacity {
            requested: n,
            capacity,
        });
    }
    let mut chosen: BTreeSet<Prefix> = BTreeSet::new();
    let mut out = Vec::with_capacity(n);
    let max_attempts = n.saturating_mul(100).max(10_000);
    for _ in 0..max_attempts {
        if out.len() == n {
            break;
        }
        if let Some(p) = draw() {
            if chosen.insert(p) {
                out.push(p);
            }
        }
    }
    if out.len() < n {
        return Err(PlacementError::Exhausted {
            requested: n,
            placed: out.len(),
        });
    }
    Ok(out)
}

/// `n` distinct /24 sensors placed uniformly at random in globally
/// routable space, skipping any /24 overlapping `avoid`.
///
/// # Errors
///
/// [`PlacementError::OverCapacity`] when `n` exceeds the routable /24s,
/// checked before any draw; [`PlacementError::Exhausted`] when `n`
/// distinct /24s outside `avoid` are not found in 100·n draws.
///
/// # Examples
///
/// ```
/// use hotspots_telescope::placement;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let sensors = placement::random_slash24s(100, &[], &mut rng)?;
/// assert_eq!(sensors.len(), 100);
/// # Ok::<(), placement::PlacementError>(())
/// ```
pub fn random_slash24s<R: Rng + ?Sized>(
    n: usize,
    avoid: &[Prefix],
    rng: &mut R,
) -> Result<Vec<Prefix>, PlacementError> {
    distinct_slash24s(n, special::routable_slash16s() << 8, || {
        let ip = Ip::new(rng.gen::<u32>());
        let p = Prefix::containing(ip, 24);
        (special::is_globally_routable(ip) && !avoid.iter().any(|a| a.overlaps(p))).then_some(p)
    })
}

/// One randomly positioned /24 sensor inside each given /16 — the
/// Figure 5(b) deployment ("we randomly placed a /24 detector in each of
/// the 4481 /16 networks with at least one vulnerable host").
///
/// # Panics
///
/// Panics if any input prefix is longer than /16 (it must be able to
/// contain a /24... i.e. length ≤ 24) — in practice the inputs are /16s.
pub fn one_per_prefix<R: Rng + ?Sized>(prefixes: &[Prefix], rng: &mut R) -> Vec<Prefix> {
    prefixes
        .iter()
        .map(|p| {
            assert!(p.len() <= 24, "cannot place a /24 inside {p}");
            let slots = 1u64 << (24 - p.len());
            let slot = rng.gen_range(0..slots);
            Prefix::containing(p.nth(slot << 8), 24)
        })
        .collect()
}

/// `n` /24 sensors placed uniformly inside the `k` /8 networks holding
/// the most members of `population` — Figure 5(c)'s "collaboratively
/// determined" placement.
///
/// # Errors
///
/// [`PlacementError::OverCapacity`] when `n` exceeds the 65,536 /24s of
/// each chosen /8 (fewer than `k` when `population` spans fewer /8s),
/// checked before any draw; [`PlacementError::Exhausted`] when `n`
/// distinct /24s are not found in 100·n draws.
pub fn inside_top_slash8s<R: Rng + ?Sized>(
    population: &[Ip],
    k: usize,
    n: usize,
    rng: &mut R,
) -> Result<Vec<Prefix>, PlacementError> {
    let mut counts: std::collections::BTreeMap<Bucket8, u64> = std::collections::BTreeMap::new();
    for &ip in population {
        *counts.entry(ip.bucket8()).or_insert(0) += 1;
    }
    let mut by_count: Vec<(Bucket8, u64)> = counts.into_iter().collect();
    by_count.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let top: Vec<Prefix> = by_count.iter().take(k).map(|(b, _)| b.prefix()).collect();
    distinct_slash24s(n, top.len() << 16, || {
        let slash8 = top[rng.gen_range(0..top.len())];
        let slot = rng.gen_range(0..(1u64 << 16));
        Some(Prefix::containing(slash8.nth(slot << 8), 24))
    })
}

/// One /24 sensor in each public /16 of `192.0.0.0/8`, skipping
/// `192.168.0.0/16` — the 255-sensor hotspot-exploiting deployment of
/// Figure 5(c)'s third experiment.
pub fn inside_192_per_slash16<R: Rng + ?Sized>(rng: &mut R) -> Vec<Prefix> {
    let slash8 = Prefix::containing(Ip::from_octets(192, 0, 0, 0), 8);
    let publics: Vec<Prefix> = slash8
        .subnets(16)
        .filter(|s| !s.overlaps(special::PRIVATE_192))
        .collect();
    one_per_prefix(&publics, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn random_sensors_are_distinct_routable_slash24s() {
        let sensors = random_slash24s(500, &[], &mut rng()).unwrap();
        assert_eq!(sensors.len(), 500);
        let set: BTreeSet<Prefix> = sensors.iter().copied().collect();
        assert_eq!(set.len(), 500);
        for s in &sensors {
            assert_eq!(s.len(), 24);
            assert!(special::is_globally_routable(s.base()), "{s}");
        }
    }

    #[test]
    fn random_sensors_respect_avoid_list() {
        let avoid: Vec<Prefix> = vec!["0.0.0.0/1".parse().unwrap()];
        let sensors = random_slash24s(200, &avoid, &mut rng()).unwrap();
        for s in &sensors {
            assert!(s.base().octets()[0] >= 128, "{s} inside avoided half");
        }
    }

    #[test]
    fn one_per_prefix_places_inside_each() {
        let parents: Vec<Prefix> = vec![
            "10.1.0.0/16".parse().unwrap(),
            "10.2.0.0/16".parse().unwrap(),
        ];
        let sensors = one_per_prefix(&parents, &mut rng());
        assert_eq!(sensors.len(), 2);
        for (parent, sensor) in parents.iter().zip(&sensors) {
            assert!(parent.contains_prefix(*sensor), "{sensor} outside {parent}");
            assert_eq!(sensor.len(), 24);
        }
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn one_per_prefix_rejects_tiny_parents() {
        let parents: Vec<Prefix> = vec!["10.1.2.0/25".parse().unwrap()];
        let _ = one_per_prefix(&parents, &mut rng());
    }

    #[test]
    fn top_slash8_placement_lands_in_populated_space() {
        // population: heavy in 57/8, light in 90/8
        let mut pop = Vec::new();
        for i in 0..1000u32 {
            pop.push(Ip::new(0x3900_0000 + i * 97));
        }
        for i in 0..10u32 {
            pop.push(Ip::new(0x5a00_0000 + i));
        }
        let sensors = inside_top_slash8s(&pop, 1, 50, &mut rng()).unwrap();
        assert_eq!(sensors.len(), 50);
        for s in &sensors {
            assert_eq!(s.base().octets()[0], 57, "{s} outside top /8");
        }
    }

    #[test]
    fn placements_beyond_their_space_fail_before_drawing() {
        let routable_24s = special::routable_slash16s() << 8;
        assert_eq!(
            random_slash24s(routable_24s + 1, &[], &mut rng()),
            Err(PlacementError::OverCapacity {
                requested: routable_24s + 1,
                capacity: routable_24s,
            })
        );
        let pop = vec![Ip::from_octets(57, 1, 2, 3), Ip::from_octets(57, 9, 9, 9)];
        // one populated /8 holds 65,536 /24s however large k is
        for k in [1, 20] {
            assert_eq!(
                inside_top_slash8s(&pop, k, 65_537, &mut rng()),
                Err(PlacementError::OverCapacity {
                    requested: 65_537,
                    capacity: 65_536,
                })
            );
        }
        assert_eq!(
            inside_top_slash8s(&pop, 0, 1, &mut rng()),
            Err(PlacementError::OverCapacity {
                requested: 1,
                capacity: 0,
            })
        );
        assert_eq!(
            inside_top_slash8s(&[], 3, 1, &mut rng()),
            Err(PlacementError::OverCapacity {
                requested: 1,
                capacity: 0,
            })
        );
    }

    #[test]
    fn placement_that_runs_out_of_draws_fails_typed() {
        let everything: Vec<Prefix> = vec!["0.0.0.0/0".parse().unwrap()];
        let err = random_slash24s(3, &everything, &mut rng()).unwrap_err();
        assert_eq!(
            err,
            PlacementError::Exhausted {
                requested: 3,
                placed: 0,
            }
        );
        assert!(err.to_string().contains("placed only 0 of 3"), "{err}");
    }

    #[test]
    fn inside_192_deployment_is_255_public_slash16s() {
        let sensors = inside_192_per_slash16(&mut rng());
        assert_eq!(sensors.len(), 255);
        let mut slash16s = BTreeSet::new();
        for s in &sensors {
            assert_eq!(s.base().octets()[0], 192);
            assert_ne!(s.base().octets()[1], 168, "sensor in private /16");
            slash16s.insert(s.base().octets()[1]);
        }
        assert_eq!(slash16s.len(), 255, "one sensor per public /16");
    }

    #[test]
    fn placements_are_deterministic_per_seed() {
        let a = random_slash24s(50, &[], &mut StdRng::seed_from_u64(7)).unwrap();
        let b = random_slash24s(50, &[], &mut StdRng::seed_from_u64(7)).unwrap();
        assert_eq!(a, b);
    }
}
