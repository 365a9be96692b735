//! Exact cycle analysis of affine maps `x ← a·x + b (mod 2^n)`.
//!
//! When the multiplier `a` is odd, an LCG is a *permutation* of `Z/2^n`,
//! so the state space decomposes into disjoint cycles and every seeded
//! instance walks exactly one of them forever. Slammer's flawed increments
//! make this decomposition extremely uneven — a handful of giant cycles
//! plus many tiny ones — which is the root cause of both per-host Slammer
//! hotspots (an instance stuck on a short cycle) and aggregate hotspots
//! (address blocks traversed by fewer/shorter cycles see fewer unique
//! sources).
//!
//! Brute-force enumeration of the 2^32 state space is possible but slow;
//! this module instead computes the structure *algebraically*:
//!
//! 1. If `gcd(a−1, 2^n) | b` the map has a fixed point `c`; substituting
//!    `y = x − c` conjugates the map to pure multiplication `y ← a·y`.
//! 2. Writing `y = 2^v·u` with `u` odd, multiplication by `a` preserves the
//!    2-adic valuation `v`, so the cycle containing `y` has length
//!    `ord(a mod 2^(n−v))` — the multiplicative order, computed in
//!    O(n) squarings because the unit group is a 2-group.
//! 3. Orbits within one valuation band are classified via the
//!    decomposition `u = (−1)^s · 5^e` of units modulo `2^j`
//!    ([`decompose_unit`]), giving a canonical [`CycleId`] without any
//!    iteration.
//!
//! For Slammer's parameters (`a = 214013 ≡ 5 (mod 8)`, all three flawed
//! `b`s divisible by 4) this yields exactly **64 cycles**: two per
//! valuation 0..=29 with lengths `2^30 … 2`, plus four fixed points —
//! matching the count reported in the paper.
//!
//! # Examples
//!
//! ```
//! use hotspots_prng::cycles::AffineMap;
//! use hotspots_prng::SqlsortDll;
//!
//! let map = AffineMap::slammer(SqlsortDll::Gold);
//! let bands = map.cycle_structure().unwrap();
//! let total_cycles: u64 = bands.iter().map(|b| b.num_cycles).sum();
//! assert_eq!(total_cycles, 64);
//! ```

use std::collections::BTreeMap;
use std::fmt;

use hotspots_ipspace::{Ip, Prefix};

use crate::slammer::{SqlsortDll, SLAMMER_MULTIPLIER};

/// Errors from affine-map construction and analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleError {
    /// The multiplier was even, so the map is not a permutation and cycle
    /// analysis does not apply.
    EvenMultiplier {
        /// The offending multiplier.
        a: u32,
    },
    /// Modulus bits outside `1..=32`.
    BitsOutOfRange {
        /// The offending bit count.
        bits: u8,
    },
    /// The map has no fixed point (`gcd(a−1, 2^n) ∤ b`), so the conjugation
    /// trick behind the algebraic analysis is unavailable. Iterative
    /// methods ([`AffineMap::iterated_cycle_length`]) still work.
    NoFixedPoint,
    /// Canonical cycle identification currently requires `a ≡ 1 (mod 4)`
    /// (true for every generator in this workspace; see module docs).
    UnsupportedMultiplierClass {
        /// The offending multiplier.
        a: u32,
    },
}

impl fmt::Display for CycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CycleError::EvenMultiplier { a } => {
                write!(f, "multiplier {a:#x} is even: the map is not a permutation")
            }
            CycleError::BitsOutOfRange { bits } => {
                write!(f, "modulus bits {bits} out of range (expected 1..=32)")
            }
            CycleError::NoFixedPoint => {
                write!(f, "map has no fixed point; algebraic analysis unavailable")
            }
            CycleError::UnsupportedMultiplierClass { a } => {
                write!(f, "cycle identification requires a ≡ 1 (mod 4); got {a:#x}")
            }
        }
    }
}

impl std::error::Error for CycleError {}

/// A canonical identifier for one cycle of an affine permutation.
///
/// Two states map to the same `CycleId` iff they lie on the same cycle.
/// The identifier is `(valuation, sign_class)` where `valuation` is the
/// 2-adic valuation of `state − fixed_point` (with `valuation == n`
/// reserved for the fixed point itself) and `sign_class` distinguishes the
/// two orbits (`u ≡ 1` vs `u ≡ 3 (mod 4)`) within a valuation band.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CycleId {
    /// 2-adic valuation band (0..=n; `n` means the fixed point `y = 0`).
    pub valuation: u8,
    /// Orbit class within the band: `false` for `u ≡ 1 (mod 4)`, `true`
    /// for `u ≡ 3 (mod 4)`. Always `false` for bands where only one orbit
    /// exists (valuation ≥ n−1).
    pub sign_class: bool,
}

impl fmt::Display for CycleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle(v={}, {})",
            self.valuation,
            if self.sign_class { "u≡3" } else { "u≡1" }
        )
    }
}

/// One band of the cycle decomposition: all cycles whose elements share a
/// 2-adic valuation, which forces them to share a length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleBand {
    /// The shared 2-adic valuation of `state − fixed_point`.
    pub valuation: u8,
    /// Length of every cycle in the band.
    pub cycle_length: u64,
    /// Number of distinct cycles in the band.
    pub num_cycles: u64,
}

/// An affine permutation `x ← a·x + b (mod 2^bits)` with odd `a`.
///
/// # Examples
///
/// ```
/// use hotspots_prng::cycles::AffineMap;
///
/// // A toy 8-bit map: exhaustively verifiable.
/// let map = AffineMap::new(5, 4, 8).unwrap();
/// assert_eq!(map.apply(3), (5 * 3 + 4) % 256);
/// let algebraic = map.cycle_length(17).unwrap();
/// let iterated = map.iterated_cycle_length(17, 1 << 16).unwrap();
/// assert_eq!(algebraic, iterated);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AffineMap {
    a: u32,
    b: u32,
    bits: u8,
}

impl AffineMap {
    /// Creates the map `x ← a·x + b (mod 2^bits)`.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError::EvenMultiplier`] if `a` is even (not a
    /// permutation) and [`CycleError::BitsOutOfRange`] unless
    /// `1 <= bits <= 32`.
    pub fn new(a: u32, b: u32, bits: u8) -> Result<AffineMap, CycleError> {
        if !(1..=32).contains(&bits) {
            return Err(CycleError::BitsOutOfRange { bits });
        }
        let a = a & mask(bits);
        if a.is_multiple_of(2) {
            return Err(CycleError::EvenMultiplier { a });
        }
        Ok(AffineMap {
            a,
            b: b & mask(bits),
            bits,
        })
    }

    /// The full-width (2^32) map for a Slammer instance with the given DLL
    /// version.
    pub fn slammer(dll: SqlsortDll) -> AffineMap {
        AffineMap::new(SLAMMER_MULTIPLIER, dll.increment(), 32)
            .expect("slammer parameters are a valid permutation") // hotspots-lint: allow(panic-path) reason="slammer parameters are a valid permutation"
    }

    /// The multiplier `a`.
    pub const fn a(&self) -> u32 {
        self.a
    }

    /// The increment `b`.
    pub const fn b(&self) -> u32 {
        self.b
    }

    /// The modulus width in bits.
    pub const fn bits(&self) -> u8 {
        self.bits
    }

    /// Applies the map once.
    #[inline]
    pub fn apply(&self, x: u32) -> u32 {
        x.wrapping_mul(self.a).wrapping_add(self.b) & mask(self.bits)
    }

    /// Applies the map `n` times in O(log n) via recursive doubling on
    /// `(a^k, Σ a^i)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use hotspots_prng::cycles::AffineMap;
    /// let m = AffineMap::new(214013, 0x88215000, 32).unwrap();
    /// let mut x = 12345;
    /// for _ in 0..1000 { x = m.apply(x); }
    /// assert_eq!(m.jump(12345, 1000), x);
    /// ```
    pub fn jump(&self, x: u32, n: u64) -> u32 {
        // (a_pow, s) represent the n-step map y ← a_pow·y + s·b
        let mut a_pow: u32 = 1;
        let mut s: u32 = 0;
        let mut base_a = self.a;
        let mut base_s: u32 = 1; // Σ over one step of base map
        let mut k = n;
        while k > 0 {
            if k & 1 == 1 {
                s = s.wrapping_mul(base_a).wrapping_add(base_s);
                a_pow = a_pow.wrapping_mul(base_a);
            }
            base_s = base_s.wrapping_mul(base_a).wrapping_add(base_s);
            base_a = base_a.wrapping_mul(base_a);
            k >>= 1;
        }
        (x.wrapping_mul(a_pow).wrapping_add(s.wrapping_mul(self.b))) & mask(self.bits)
    }

    /// Returns a fixed point `c` with `a·c + b ≡ c`, if one exists.
    ///
    /// A fixed point exists iff `gcd(a−1, 2^bits)` divides `b`. All of
    /// Slammer's flawed increments satisfy this (they are ≡ 0 mod 4 while
    /// `gcd(214013−1, 2^32) = 4`).
    pub fn fixed_point(&self) -> Option<u32> {
        let m = self.bits as u32;
        let a1 = u64::from(self.a.wrapping_sub(1) & mask(self.bits));
        if a1 == 0 {
            // identity multiplier: fixed points exist iff b == 0
            return if self.b == 0 { Some(0) } else { None };
        }
        let t = a1.trailing_zeros().min(m); // gcd(a-1, 2^m) = 2^t
        if t >= m {
            return if self.b & mask(self.bits) == 0 {
                Some(0)
            } else {
                None
            };
        }
        if u64::from(self.b) % (1u64 << t) != 0 {
            return None;
        }
        // Solve (a-1)/2^t · c ≡ -b/2^t (mod 2^(m-t)); odd coefficient.
        let coeff = (a1 >> t) as u32;
        let rhs = (self.b >> t).wrapping_neg();
        let sub_bits = (m - t) as u8;
        let inv = inverse_mod_pow2(coeff, sub_bits);
        let c0 = rhs.wrapping_mul(inv) & mask(sub_bits);
        // Lift: any solution mod 2^(m-t) works as a representative; verify.
        for j in 0..(1u32 << t.min(8)) {
            let cand = (c0.wrapping_add(j << (m - t))) & mask(self.bits);
            if self.apply(cand) == cand {
                return Some(cand);
            }
        }
        None
    }

    /// Cycle length of the cycle containing `x`, computed algebraically.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError::NoFixedPoint`] if the map has no fixed point;
    /// use [`AffineMap::iterated_cycle_length`] in that case.
    pub fn cycle_length(&self, x: u32) -> Result<u64, CycleError> {
        let c = self.fixed_point().ok_or(CycleError::NoFixedPoint)?;
        let y = x.wrapping_sub(c) & mask(self.bits);
        if y == 0 {
            return Ok(1);
        }
        let v = y.trailing_zeros() as u8;
        let j = self.bits - v;
        Ok(order_mod_pow2(self.a, j))
    }

    /// Canonical identifier of the cycle containing `x`.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError::NoFixedPoint`] for maps without fixed points
    /// and [`CycleError::UnsupportedMultiplierClass`] unless
    /// `a ≡ 1 (mod 4)` (all workspace generators satisfy this).
    pub fn cycle_id(&self, x: u32) -> Result<CycleId, CycleError> {
        if self.a % 4 != 1 {
            return Err(CycleError::UnsupportedMultiplierClass { a: self.a });
        }
        let c = self.fixed_point().ok_or(CycleError::NoFixedPoint)?;
        let y = x.wrapping_sub(c) & mask(self.bits);
        if y == 0 {
            return Ok(CycleId {
                valuation: self.bits,
                sign_class: false,
            });
        }
        let v = y.trailing_zeros() as u8;
        let j = self.bits - v;
        let u = (y >> v) & mask(j);
        // For a ≡ 1 (mod 4), ⟨a⟩ ⊆ {u ≡ 1 (mod 4)}, and when a has maximal
        // order (a ≡ 5 mod 8) the two orbits in band v are exactly the two
        // classes u mod 4 ∈ {1, 3}. For a ≡ 1 (mod 8) orbits are finer;
        // we still expose the mod-4 class, which is a sound cycle id for
        // the maximal-order generators this workspace uses, and verified
        // against brute force in tests.
        let sign_class = j >= 2 && (u & 3) == 3;
        Ok(CycleId {
            valuation: v,
            sign_class,
        })
    }

    /// Full cycle decomposition as per-valuation bands.
    ///
    /// The invariant `Σ num_cycles · cycle_length == 2^bits` always holds.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError::NoFixedPoint`] if the map has no fixed point.
    pub fn cycle_structure(&self) -> Result<Vec<CycleBand>, CycleError> {
        self.fixed_point().ok_or(CycleError::NoFixedPoint)?;
        let n = self.bits;
        let mut bands = Vec::with_capacity(n as usize + 1);
        for v in 0..n {
            let j = n - v; // band elements are 2^v · u with u odd mod 2^j
            let elements = 1u64 << (j - 1);
            let len = order_mod_pow2(self.a, j);
            bands.push(CycleBand {
                valuation: v,
                cycle_length: len,
                num_cycles: elements / len,
            });
        }
        // the fixed point y = 0
        bands.push(CycleBand {
            valuation: n,
            cycle_length: 1,
            num_cycles: 1,
        });
        Ok(bands)
    }

    /// Cycle length measured by brute-force iteration (ground truth for
    /// tests and for maps without fixed points). Returns `None` if the
    /// cycle is longer than `cap` steps.
    pub fn iterated_cycle_length(&self, x: u32, cap: u64) -> Option<u64> {
        let start = x & mask(self.bits);
        let mut cur = self.apply(start);
        let mut steps: u64 = 1;
        while cur != start {
            if steps >= cap {
                return None;
            }
            cur = self.apply(cur);
            steps += 1;
        }
        Some(steps)
    }

    /// The set of distinct cycles that pass through any of the given
    /// states, with each cycle's length.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`AffineMap::cycle_id`].
    pub fn cycles_through_states<I>(&self, states: I) -> Result<BTreeMap<CycleId, u64>, CycleError>
    where
        I: IntoIterator<Item = u32>,
    {
        let mut out = BTreeMap::new();
        for s in states {
            let id = self.cycle_id(s)?;
            if let std::collections::btree_map::Entry::Vacant(e) = out.entry(id) {
                e.insert(self.cycle_length(s)?);
            }
        }
        Ok(out)
    }

    /// The set of distinct cycles whose *target addresses* fall inside an
    /// IP prefix, for full-width (32-bit) generators that emit addresses
    /// little-endian like Slammer does ([`Ip::from_le_state`]).
    ///
    /// This is the quantity the paper computes for its D/H/I comparison:
    /// blocks traversed by fewer/shorter cycles observe fewer unique
    /// Slammer sources.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`AffineMap::cycle_id`]; also returns
    /// [`CycleError::BitsOutOfRange`] if the map is not 32-bit wide.
    pub fn cycles_through_block(
        &self,
        block: Prefix,
    ) -> Result<BTreeMap<CycleId, u64>, CycleError> {
        if self.bits != 32 {
            return Err(CycleError::BitsOutOfRange { bits: self.bits });
        }
        self.cycles_through_states(block.iter().map(Ip::to_le_state))
    }

    /// The probability that a uniformly random seed lands on a cycle that
    /// eventually visits one of `cycles`' members — i.e. the fraction of
    /// state space covered by the given cycles.
    pub fn traversal_fraction(&self, cycles: &BTreeMap<CycleId, u64>) -> f64 {
        let total: u64 = cycles.values().sum();
        total as f64 / (1u64 << self.bits) as f64
    }
}

#[inline]
fn mask(bits: u8) -> u32 {
    if bits >= 32 {
        u32::MAX
    } else {
        (1u32 << bits) - 1
    }
}

/// Multiplicative order of odd `a` modulo `2^j`, computed by repeated
/// squaring (the unit group is a 2-group, so the order is a power of two).
///
/// # Panics
///
/// Panics if `a` is even or `j == 0` or `j > 32`.
///
/// # Examples
///
/// ```
/// use hotspots_prng::cycles::order_mod_pow2;
///
/// // 5 generates the maximal cyclic subgroup: order 2^(j-2).
/// assert_eq!(order_mod_pow2(5, 10), 1 << 8);
/// // 214013 ≡ 5 (mod 8) has maximal order too.
/// assert_eq!(order_mod_pow2(214013, 32), 1 << 30);
/// ```
pub fn order_mod_pow2(a: u32, j: u8) -> u64 {
    assert!(a % 2 == 1, "order is defined for odd residues only");
    assert!((1..=32).contains(&j), "modulus bits {j} out of range");
    let m = mask(j);
    let mut t = a & m;
    let mut order: u64 = 1;
    while t != 1 {
        t = t.wrapping_mul(t) & m;
        order *= 2;
        debug_assert!(order <= 1 << 31, "order overflow: group is a 2-group");
    }
    order
}

/// Inverse of odd `x` modulo `2^bits` by Newton–Hensel iteration.
///
/// # Panics
///
/// Panics if `x` is even.
pub fn inverse_mod_pow2(x: u32, bits: u8) -> u32 {
    assert!(x % 2 == 1, "only odd residues are invertible mod 2^n");
    let mut inv: u32 = 1;
    // 6 iterations give > 32 bits of precision.
    for _ in 0..6 {
        inv = inv.wrapping_mul(2u32.wrapping_sub(x.wrapping_mul(inv)));
    }
    inv & mask(bits)
}

/// Decomposes an odd unit `u` modulo `2^j` as `(−1)^s · 5^e`
/// (`s ∈ {0,1}`, `e ∈ [0, 2^(j−2))` for `j ≥ 3`).
///
/// This is the standard structure theorem for `(Z/2^j)^*` and underlies
/// canonical cycle identification.
///
/// # Panics
///
/// Panics if `u` is even (not a unit) or `j` is out of `1..=32`.
///
/// # Examples
///
/// ```
/// use hotspots_prng::cycles::decompose_unit;
///
/// let (s, e) = decompose_unit(25, 8); // 25 = 5^2
/// assert_eq!((s, e), (false, 2));
/// let (s, _) = decompose_unit(255, 8); // 255 ≡ −1
/// assert!(s);
/// ```
pub fn decompose_unit(u: u32, j: u8) -> (bool, u32) {
    assert!(u % 2 == 1, "unit decomposition needs an odd residue");
    assert!((1..=32).contains(&j), "modulus bits {j} out of range");
    let m = mask(j);
    let u = u & m;
    if j == 1 {
        return (false, 0);
    }
    if j == 2 {
        return (u == 3, 0);
    }
    let s = u & 3 == 3;
    let w = if s { u.wrapping_neg() & m } else { u };
    // Find e with 5^e ≡ w (mod 2^j) by bit-lifting: e is determined
    // modulo 2^(j-2).
    let mut e: u32 = 0;
    let mut pow5: u32 = 1; // 5^e mod 2^j
    let mut step_pow: u32 = 5; // 5^(2^k) mod 2^j
    for k in 0..(j - 2) as u32 {
        let bit_mod = mask((k + 3).min(u32::from(j)) as u8);
        if pow5 & bit_mod != w & bit_mod {
            e |= 1 << k;
            pow5 = pow5.wrapping_mul(step_pow) & m;
        }
        step_pow = step_pow.wrapping_mul(step_pow) & m;
    }
    debug_assert_eq!(pow5, w, "discrete log failed");
    (s, e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn order_of_small_generators() {
        assert_eq!(order_mod_pow2(1, 8), 1);
        assert_eq!(order_mod_pow2(3, 3), 2); // 3^2 = 9 ≡ 1 mod 8
        assert_eq!(order_mod_pow2(5, 3), 2);
        assert_eq!(order_mod_pow2(5, 8), 64);
        assert_eq!(order_mod_pow2(7, 3), 2); // 7 ≡ −1 (mod 8)
        assert_eq!(order_mod_pow2(7, 8), 32);
    }

    #[test]
    fn order_definition_brute_force() {
        // cross-check order_mod_pow2 against direct search for tiny moduli
        for j in 1..=10u8 {
            let m = mask(j);
            for a in (1u32..64).step_by(2) {
                let fast = order_mod_pow2(a, j);
                let mut t = a & m;
                let mut n = 1u64;
                while t != 1 {
                    t = t.wrapping_mul(a) & m;
                    n += 1;
                }
                assert_eq!(fast, n, "a={a} j={j}");
            }
        }
    }

    #[test]
    fn inverse_is_inverse() {
        for bits in [4u8, 8, 16, 32] {
            for x in [1u32, 3, 5, 214013, 0xdeadbeef | 1] {
                let inv = inverse_mod_pow2(x, bits);
                assert_eq!(x.wrapping_mul(inv) & mask(bits), 1, "x={x} bits={bits}");
            }
        }
    }

    #[test]
    fn decompose_unit_round_trip_8bit() {
        let j = 8u8;
        let m = mask(j);
        for u in (1u32..256).step_by(2) {
            let (s, e) = decompose_unit(u, j);
            // recompute (−1)^s 5^e
            let mut val: u32 = 1;
            for _ in 0..e {
                val = val.wrapping_mul(5) & m;
            }
            if s {
                val = val.wrapping_neg() & m;
            }
            assert_eq!(val, u, "u={u}");
        }
    }

    #[test]
    fn new_rejects_even_multiplier_and_bad_bits() {
        assert!(matches!(
            AffineMap::new(2, 0, 8),
            Err(CycleError::EvenMultiplier { .. })
        ));
        assert!(matches!(
            AffineMap::new(5, 0, 0),
            Err(CycleError::BitsOutOfRange { .. })
        ));
        assert!(matches!(
            AffineMap::new(5, 0, 33),
            Err(CycleError::BitsOutOfRange { .. })
        ));
    }

    #[test]
    fn fixed_point_exists_for_slammer_variants() {
        for dll in SqlsortDll::ALL {
            let map = AffineMap::slammer(dll);
            let c = map.fixed_point().expect("4 | b guarantees a fixed point");
            assert_eq!(map.apply(c), c, "{dll}");
        }
    }

    #[test]
    fn fixed_point_absent_when_gcd_does_not_divide_b() {
        // a-1 = 4 → gcd 4; b = 2 not divisible by 4 → no fixed point.
        let map = AffineMap::new(5, 2, 8).unwrap();
        assert_eq!(map.fixed_point(), None);
        assert!(matches!(map.cycle_length(0), Err(CycleError::NoFixedPoint)));
    }

    #[test]
    fn slammer_structure_has_64_cycles() {
        for dll in SqlsortDll::ALL {
            let map = AffineMap::slammer(dll);
            let bands = map.cycle_structure().unwrap();
            let cycles: u64 = bands.iter().map(|b| b.num_cycles).sum();
            assert_eq!(cycles, 64, "{dll}");
            let total: u128 = bands
                .iter()
                .map(|b| u128::from(b.num_cycles) * u128::from(b.cycle_length))
                .sum();
            assert_eq!(total, 1u128 << 32, "{dll} does not cover the space");
            // longest band: 2 cycles of 2^30
            assert_eq!(bands[0].cycle_length, 1 << 30);
            assert_eq!(bands[0].num_cycles, 2);
        }
    }

    #[test]
    fn slammer_has_exactly_four_period_one_cycles() {
        // The algebra gives 4 fixed points per flawed increment. (The
        // paper's figure 3c reads "seven" off a log plot; EXPERIMENTS.md
        // records the discrepancy.)
        for dll in SqlsortDll::ALL {
            let map = AffineMap::slammer(dll);
            let ones: u64 = map
                .cycle_structure()
                .unwrap()
                .iter()
                .filter(|b| b.cycle_length == 1)
                .map(|b| b.num_cycles)
                .sum();
            assert_eq!(ones, 4, "{dll}");
        }
    }

    #[test]
    fn jump_matches_iteration() {
        let map = AffineMap::slammer(SqlsortDll::Sp2);
        let mut x = 0xfeed_f00d;
        for _ in 0..123 {
            x = map.apply(x);
        }
        assert_eq!(map.jump(0xfeed_f00d, 123), x);
        assert_eq!(map.jump(x, 0), x);
    }

    #[test]
    fn cycle_length_agrees_with_iteration_16bit() {
        // Exhaustive ground truth on a 16-bit Slammer-alike.
        let map = AffineMap::new(214013, 0x5000, 16).unwrap();
        for x in (0..0x1_0000u32).step_by(97) {
            let alg = map.cycle_length(x).unwrap();
            let it = map.iterated_cycle_length(x, 1 << 17).unwrap();
            assert_eq!(alg, it, "x={x:#x}");
        }
    }

    #[test]
    fn cycle_id_constant_along_cycle_and_distinct_across() {
        let map = AffineMap::new(214013, 0x5000, 12).unwrap();
        // Walk one full cycle: id must not change.
        let start = 5u32;
        let id = map.cycle_id(start).unwrap();
        let len = map.cycle_length(start).unwrap();
        let mut x = start;
        for _ in 0..len {
            x = map.apply(x);
            assert_eq!(map.cycle_id(x).unwrap(), id);
        }
        assert_eq!(x, start);
    }

    #[test]
    fn cycle_ids_partition_exactly_12bit() {
        // For a maximal-order multiplier, the (valuation, mod-4 class)
        // labels must partition the space into exactly the algebraic
        // number of cycles, with matching sizes.
        let map = AffineMap::new(214013, 0x50, 12).unwrap();
        let mut by_id: BTreeMap<CycleId, u64> = BTreeMap::new();
        for x in 0..(1u32 << 12) {
            *by_id.entry(map.cycle_id(x).unwrap()).or_insert(0) += 1;
        }
        let bands = map.cycle_structure().unwrap();
        let expected_cycles: u64 = bands.iter().map(|b| b.num_cycles).sum();
        assert_eq!(by_id.len() as u64, expected_cycles);
        // each id's population equals its cycle length (ids = single cycles)
        for (id, count) in &by_id {
            let some_member = (0..(1u32 << 12))
                .find(|&x| map.cycle_id(x).unwrap() == *id)
                .unwrap();
            assert_eq!(*count, map.cycle_length(some_member).unwrap(), "{id}");
        }
    }

    #[test]
    fn cycles_through_block_requires_32_bits() {
        let map = AffineMap::new(5, 4, 8).unwrap();
        let block: Prefix = "10.0.0.0/24".parse().unwrap();
        assert!(matches!(
            map.cycles_through_block(block),
            Err(CycleError::BitsOutOfRange { .. })
        ));
    }

    #[test]
    fn little_endian_mapping_pins_h_block_onto_one_cycle() {
        // The byte-order ablation: read as little-endian LCG states (the
        // way Slammer emits addresses), every address of the H block
        // (128.84.192.0/18) lies on a single cycle of the Gold map; the
        // naive big-endian reading spreads the same block over 28.
        use hotspots_ipspace::Deployment;
        let map = AffineMap::slammer(SqlsortDll::Gold);
        let h = hotspots_ipspace::ims_deployment()
            .by_label("H")
            .unwrap()
            .prefix();
        assert_eq!(map.cycles_through_block(h).unwrap().len(), 1);
        let big_endian = map.cycles_through_states(h.iter().map(Ip::value)).unwrap();
        assert_eq!(big_endian.len(), 28);
    }

    #[test]
    fn traversal_fraction_of_everything_is_one() {
        let map = AffineMap::new(214013, 0x50, 10).unwrap();
        let all = map.cycles_through_states(0..(1u32 << 10)).unwrap();
        let f = map.traversal_fraction(&all);
        assert!((f - 1.0).abs() < 1e-12);
    }

    #[test]
    fn h_block_deficit_mechanism() {
        // The design claim: the H block (128.84.192.0/18) pins the LCG
        // state's low 16 bits to an offset with *higher* 2-adic valuation
        // from the fixed point than D (131.107.0.0/20) or I (199.77.0.0/17),
        // so fewer seeds ever reach H.
        let deployment = hotspots_ipspace::ims_deployment();
        let find = |l: &str| deployment.iter().find(|b| b.label() == l).unwrap().prefix();
        let mut frac = BTreeMap::new();
        for label in ["D", "H", "I"] {
            let mut f = 0.0;
            for dll in SqlsortDll::ALL {
                let map = AffineMap::slammer(dll);
                // sample the block sparsely: valuation is constant per block
                let block = find(label);
                let states = (0..64u64).map(|i| {
                    let idx = i * (block.size() / 64);
                    block.nth(idx).to_le_state()
                });
                let cycles = map.cycles_through_states(states).unwrap();
                f += map.traversal_fraction(&cycles);
            }
            frac.insert(label, f / 3.0);
        }
        assert!(
            frac["H"] < 0.7 * frac["D"],
            "H fraction {} not clearly below D fraction {}",
            frac["H"],
            frac["D"]
        );
        assert!(frac["H"] < 0.7 * frac["I"]);
    }

    proptest! {
        #[test]
        fn algebraic_equals_iterated_cycle_length(
            x in any::<u32>(),
            b4 in any::<u32>(),
            bits in 8u8..=16,
        ) {
            // multiplier ≡ 5 mod 8 with fixed point (b ≡ 0 mod 4)
            let map = AffineMap::new(214013, (b4 & mask(bits)) & !3, bits).unwrap();
            let x = x & mask(bits);
            let alg = map.cycle_length(x).unwrap();
            let it = map.iterated_cycle_length(x, 1 << 17).unwrap();
            prop_assert_eq!(alg, it);
        }

        #[test]
        fn cycle_id_invariant_under_map(x in any::<u32>(), steps in 0u64..5000) {
            let map = AffineMap::slammer(SqlsortDll::Gold);
            let id0 = map.cycle_id(x).unwrap();
            let idn = map.cycle_id(map.jump(x, steps)).unwrap();
            prop_assert_eq!(id0, idn);
        }

        #[test]
        fn structure_covers_space(bits in 4u8..=20, b in any::<u32>()) {
            let map = AffineMap::new(214013, b & !3, bits).unwrap();
            let bands = map.cycle_structure().unwrap();
            let total: u128 = bands.iter()
                .map(|bd| u128::from(bd.num_cycles) * u128::from(bd.cycle_length))
                .sum();
            prop_assert_eq!(total, 1u128 << bits);
        }
    }
}
