//! Parametric 32-bit linear congruential generators.

/// A source of 32-bit pseudo-random words.
///
/// All malware generators in this workspace implement this trait, so the
/// targeting strategies in `hotspots-targeting` can be generic over the
/// PRNG driving them.
pub trait Prng32 {
    /// Produces the next 32-bit word and advances the generator.
    fn next_u32(&mut self) -> u32;

    /// Produces a value uniformly below `bound` using the generator's full
    /// 32-bit output (multiply-shift reduction; slightly biased for huge
    /// bounds, exactly like the worm code it models).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    fn next_below(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "bound must be non-zero");
        ((u64::from(self.next_u32()) * u64::from(bound)) >> 32) as u32
    }

    /// Fills `out` with the exact word sequence `out.len()` calls to
    /// [`next_u32`](Prng32::next_u32) would produce, leaving the generator
    /// in the same final state.
    ///
    /// The default implementation is the scalar loop; generators with
    /// jumpable or counter-based state override it with branch-free lane
    /// kernels that the compiler can autovectorize. Overrides must be
    /// bit-identical to the scalar sequence — the batch engine path relies
    /// on it.
    fn fill_u32(&mut self, out: &mut [u32]) {
        for slot in out {
            *slot = self.next_u32();
        }
    }
}

/// A linear congruential generator over `Z/2^32`:
/// `state ← mul · state + inc (mod 2^32)`.
///
/// This is the raw machinery behind both the msvcrt `rand()` Blaster uses
/// and Slammer's hand-rolled generator. When `mul` is odd the map is a
/// permutation of the full 32-bit space; its cycle structure is analyzed in
/// [`crate::cycles`].
///
/// # Examples
///
/// ```
/// use hotspots_prng::{Lcg32, Prng32};
///
/// // Slammer's multiplier with the intended (never-shipped) increment.
/// let mut lcg = Lcg32::new(214013, 0xffd9613c, 0x12345678);
/// let s0 = lcg.state();
/// let s1 = lcg.next_u32();
/// assert_eq!(s1, s0.wrapping_mul(214013).wrapping_add(0xffd9613c));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lcg32 {
    mul: u32,
    inc: u32,
    state: u32,
}

impl Lcg32 {
    /// Creates a generator with multiplier `mul`, increment `inc`, and
    /// initial state `seed`.
    pub const fn new(mul: u32, inc: u32, seed: u32) -> Lcg32 {
        Lcg32 {
            mul,
            inc,
            state: seed,
        }
    }

    /// The multiplier `a`.
    pub const fn mul(&self) -> u32 {
        self.mul
    }

    /// The increment `b`.
    pub const fn inc(&self) -> u32 {
        self.inc
    }

    /// The current state (which is also the last output).
    pub const fn state(&self) -> u32 {
        self.state
    }

    /// Advances one step and returns the new state.
    #[inline]
    pub fn step(&mut self) -> u32 {
        self.state = self.state.wrapping_mul(self.mul).wrapping_add(self.inc);
        self.state
    }

    /// Number of independent output lanes the batch kernel interleaves.
    ///
    /// Eight `u32` lanes fill one AVX2 register; on SSE-only and scalar
    /// targets the compiler still unrolls the loop profitably.
    pub const LANES: usize = 8;

    /// Writes the next `out.len()` states into `out` (bit-identical to
    /// calling [`step`](Lcg32::step) repeatedly) using a jump-ahead lane
    /// kernel.
    ///
    /// The k-step composition of `s ← a·s + c` is `s ← a^k·s + c_k` with
    /// `c_{k+1} = a·c_k + c`, all mod 2^32 — exact in wrapping arithmetic.
    /// Each of the [`LANES`](Lcg32::LANES) lanes starts offset by one step
    /// and advances by the `LANES`-step jump, so a chunk of consecutive
    /// outputs is produced per iteration with no loop-carried dependency
    /// between lanes.
    pub fn fill_states(&mut self, out: &mut [u32]) {
        const LANES: usize = Lcg32::LANES;
        let split = out.len() - out.len() % LANES;
        let (chunks, tail) = out.split_at_mut(split);
        if !chunks.is_empty() {
            // Lane i holds the output of step base+i+1; while seeding the
            // lanes we also build the LANES-step jump constants
            // (a^LANES, c_LANES) by the same recurrence.
            let mut lanes = [0u32; LANES];
            let (mut jump_mul, mut jump_inc) = (1u32, 0u32);
            let mut s = self.state;
            for lane in &mut lanes {
                s = s.wrapping_mul(self.mul).wrapping_add(self.inc);
                *lane = s;
                jump_inc = jump_inc.wrapping_mul(self.mul).wrapping_add(self.inc);
                jump_mul = jump_mul.wrapping_mul(self.mul);
            }
            for chunk in chunks.chunks_exact_mut(LANES) {
                chunk.copy_from_slice(&lanes);
                for lane in &mut lanes {
                    *lane = lane.wrapping_mul(jump_mul).wrapping_add(jump_inc);
                }
            }
            // The state *is* the last output for an LCG.
            self.state = chunks[chunks.len() - 1];
        }
        for slot in tail {
            *slot = self.step();
        }
    }
}

impl Prng32 for Lcg32 {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        self.step()
    }

    #[inline]
    fn fill_u32(&mut self, out: &mut [u32]) {
        self.fill_states(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn step_matches_definition() {
        let mut lcg = Lcg32::new(214013, 2531011, 1);
        assert_eq!(lcg.step(), 1u32.wrapping_mul(214013).wrapping_add(2531011));
    }

    #[test]
    fn next_below_respects_bound() {
        let mut lcg = Lcg32::new(214013, 2531011, 99);
        for _ in 0..1000 {
            let v = lcg.next_below(20);
            assert!(v < 20);
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn next_below_zero_panics() {
        let mut lcg = Lcg32::new(214013, 2531011, 99);
        let _ = lcg.next_below(0);
    }

    proptest! {
        #[test]
        fn fill_states_matches_scalar_steps(
            seed in any::<u32>(),
            inc in any::<u32>(),
            len in 0usize..100,
        ) {
            // The lane kernel must be bit-identical to the scalar walk and
            // leave the generator in the same state, across lengths that
            // cover empty, sub-chunk, exact-chunk, and ragged-tail cases.
            let mut scalar = Lcg32::new(214013, inc, seed);
            let mut batch = scalar;
            let expect: Vec<u32> = (0..len).map(|_| scalar.step()).collect();
            let mut got = vec![0u32; len];
            batch.fill_states(&mut got);
            prop_assert_eq!(got, expect);
            prop_assert_eq!(batch.state(), scalar.state());
        }

        #[test]
        fn odd_multiplier_is_injective_one_step(seed_a in any::<u32>(), seed_b in any::<u32>(), inc in any::<u32>()) {
            // For odd multipliers the map is a bijection, so distinct states
            // must step to distinct states.
            prop_assume!(seed_a != seed_b);
            let mut x = Lcg32::new(214013, inc, seed_a);
            let mut y = Lcg32::new(214013, inc, seed_b);
            prop_assert_ne!(x.step(), y.step());
        }

        #[test]
        fn next_below_uniformish_extremes(seed in any::<u32>()) {
            let mut lcg = Lcg32::new(214013, 2531011, seed);
            let v = lcg.next_below(1);
            prop_assert_eq!(v, 0);
        }
    }
}
