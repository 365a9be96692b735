//! Worm target-generation strategies (the paper's *algorithmic factors*).
//!
//! Every self-propagating threat must answer one question per probe:
//! *which address next?* This crate implements the answers studied in the
//! paper, all behind the [`TargetGenerator`] trait:
//!
//! | Strategy | Paper role |
//! |---|---|
//! | [`UniformScanner`] | the null model every hotspot deviates from |
//! | [`HitListScanner`] | botnet-style targeted scanning (Table 1, Fig 5a/5b) |
//! | [`LocalPreference`] | generic mask/weight preference tables |
//! | [`CodeRed2Scanner`] | CodeRedII's 1/8–4/8–3/8 table (Fig 4, Fig 5c) |
//! | [`BlasterScanner`] | sequential scan from a PRNG-chosen start (Fig 1) |
//! | [`SlammerScanner`] | the flawed LCG walk (Fig 2, Fig 3) |
//!
//! Each strategy is reached from a `WormSpec` variant in
//! `hotspots-scenario`; a new strategy enters the same way, with a preset
//! that runs it. Generators are deterministic given their PRNG seed, so
//! every experiment in this workspace is reproducible bit-for-bit.
//!
//! # Examples
//!
//! ```
//! use hotspots_prng::SplitMix;
//! use hotspots_targeting::{TargetGenerator, UniformScanner};
//!
//! let mut worm = UniformScanner::new(SplitMix::new(1));
//! let a = worm.next_target();
//! let b = worm.next_target();
//! assert_ne!(a, b);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod blaster;
mod codered2;
mod hitlist;
mod local_preference;
mod slammer;
mod uniform;

pub use blaster::BlasterScanner;
pub use codered2::CodeRed2Scanner;
pub use hitlist::{HitList, HitListError, HitListScanner};
pub use local_preference::{LocalPreference, PreferenceEntry};
pub use slammer::SlammerScanner;
pub use uniform::UniformScanner;

use hotspots_ipspace::Ip;

/// A source of probe target addresses.
///
/// Implementations model one infected host's targeting behavior; the
/// simulator drives one generator per infected host.
pub trait TargetGenerator {
    /// Produces the next target address.
    fn next_target(&mut self) -> Ip;

    /// Appends the next `n` targets to `out`.
    ///
    /// The batch **must** be the exact sequence `n` calls to
    /// [`TargetGenerator::next_target`] would produce (the simulator
    /// relies on this for replay determinism across batch sizes). The
    /// default implementation loops `next_target`; hot generators
    /// override it so the per-probe virtual dispatch and PRNG state
    /// round-trips collapse into one monomorphized loop.
    fn fill_targets(&mut self, n: usize, out: &mut Vec<Ip>) {
        out.reserve(n);
        for _ in 0..n {
            out.push(self.next_target());
        }
    }

    /// A short human-readable strategy name (for experiment output).
    fn strategy(&self) -> &'static str;
}

/// Convenience: collect the next `n` targets from a generator.
///
/// # Examples
///
/// ```
/// use hotspots_prng::SplitMix;
/// use hotspots_targeting::{targets, UniformScanner};
///
/// let mut g = UniformScanner::new(SplitMix::new(9));
/// assert_eq!(targets(&mut g, 5).len(), 5);
/// ```
pub fn targets<G: TargetGenerator + ?Sized>(generator: &mut G, n: usize) -> Vec<Ip> {
    (0..n).map(|_| generator.next_target()).collect()
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use hotspots_prng::{SplitMix, SqlsortDll};
    use proptest::prelude::*;

    /// Every overridden `fill_targets` must emit exactly the sequence the
    /// scalar `next_target` loop would — including when the batch is
    /// split at an arbitrary point (state carries across batches).
    fn assert_batch_equals_scalar<G>(generator: &G, n: usize, split: usize)
    where
        G: TargetGenerator + Clone + std::fmt::Debug,
    {
        let mut scalar = generator.clone();
        let expected = targets(&mut scalar, n);

        let mut batched = generator.clone();
        let mut out = Vec::new();
        let split = split.min(n);
        batched.fill_targets(split, &mut out);
        batched.fill_targets(n - split, &mut out);
        assert_eq!(out, expected, "{} batch diverges", generator.strategy());
    }

    proptest! {
        #[test]
        fn fill_targets_matches_next_target(seed in any::<u64>(), n in 0usize..200, split in 0usize..200) {
            let src = Ip::from_octets(192, 168, 0, 99);
            assert_batch_equals_scalar(&UniformScanner::new(SplitMix::new(seed)), n, split);
            assert_batch_equals_scalar(&SlammerScanner::new(SqlsortDll::Gold, seed as u32), n, split);
            assert_batch_equals_scalar(&CodeRed2Scanner::new(src, SplitMix::new(seed)), n, split);
            let list = HitList::new(vec![
                "10.0.0.0/24".parse().unwrap(),
                "203.0.113.0/28".parse().unwrap(),
            ])
            .unwrap();
            assert_batch_equals_scalar(&HitListScanner::new(list, SplitMix::new(seed)), n, split);
            let prefs = vec![
                PreferenceEntry { mask: 0xffff_0000, weight: 3 },
                PreferenceEntry { mask: 0xff00_0000, weight: 4 },
                PreferenceEntry { mask: 0, weight: 1 },
            ];
            assert_batch_equals_scalar(&LocalPreference::new(src, prefs, SplitMix::new(seed)), n, split);
        }

        #[test]
        fn kernelized_generators_match_across_chunk_boundaries(
            seed in any::<u64>(),
            n in 200usize..700,
            split in 0usize..700,
        ) {
            // The lane kernels work in fixed chunks (256 states for the
            // LCG/uniform paths, 128 attempts for CodeRedII); batches
            // larger than one chunk — and splits landing mid-chunk — must
            // still replay the scalar sequence exactly.
            let src = Ip::from_octets(192, 168, 0, 99);
            assert_batch_equals_scalar(&UniformScanner::new(SplitMix::new(seed)), n, split);
            assert_batch_equals_scalar(&SlammerScanner::new(SqlsortDll::Sp2, seed as u32), n, split);
            assert_batch_equals_scalar(&CodeRed2Scanner::new(src, SplitMix::new(seed)), n, split);
        }

        #[test]
        fn default_fill_targets_appends(seed in any::<u64>(), n in 0usize..64) {
            // a generator with no override still satisfies the contract
            let mut a = BlasterScanner::from_tick_count(Ip::from_octets(4, 4, 4, 4), seed as u32);
            let mut b = a;
            let mut out = vec![Ip::MIN]; // pre-existing content survives
            a.fill_targets(n, &mut out);
            prop_assert_eq!(out.len(), n + 1);
            prop_assert_eq!(&out[1..], &targets(&mut b, n)[..]);
        }
    }
}
