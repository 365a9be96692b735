//! Pseudo-random number generation substrate for the hotspots reproduction.
//!
//! The paper's *algorithmic factors* are mostly PRNG stories:
//!
//! * **Blaster** seeds the msvcrt LCG ([`MsvcrtRand`]) with
//!   `GetTickCount()`, a terrible entropy source because worms launched at
//!   boot see only a narrow band of tick values ([`entropy`]).
//! * **Slammer** rolls its own linear congruential generator
//!   ([`SlammerPrng`]) whose increment was corrupted by an `OR`-instead-of-
//!   `XOR` bug, leaving three possible increments depending on the victim's
//!   `sqlsort.dll` version ([`SqlsortDll`]). The resulting permutations of
//!   32-bit space decompose into 64 cycles of wildly uneven length — the
//!   mechanism behind per-host and aggregate Slammer hotspots. The exact
//!   cycle structure is computed algebraically in [`cycles`].
//!
//! Everything here is bit-faithful to the published algorithms; the `rand`
//! crate is used only for *workload* randomness (e.g. sampling boot times),
//! never for the malware arithmetic itself.
//!
//! # Examples
//!
//! ```
//! use hotspots_prng::{MsvcrtRand, Prng32};
//!
//! // The classic MSVC rand() sequence for srand(1).
//! let mut r = MsvcrtRand::with_seed(1);
//! assert_eq!(r.rand15(), 41);
//! assert_eq!(r.rand15(), 18467);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod cycles;
pub mod entropy;
mod lcg;
mod msvcrt;
mod slammer;
mod splitmix;

pub use lcg::{Lcg32, Prng32};
pub use msvcrt::{recover_seeds, MsvcrtRand};
pub use slammer::{SlammerPrng, SqlsortDll, SLAMMER_MULTIPLIER, SLAMMER_SEED_XOR};
pub use splitmix::SplitMix;
