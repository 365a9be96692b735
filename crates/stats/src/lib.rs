//! Statistics substrate for the hotspots reproduction.
//!
//! "Hotspot" is a *statistical* claim: an observed traffic distribution
//! deviates from what uniform propagation would produce. This crate holds
//! the machinery for making that claim precise:
//!
//! * [`CountHistogram`] — counting observations per key (per /24 bucket,
//!   per sensor block, per organization…),
//! * [`uniformity`] — deviation-from-uniform metrics: Gini coefficient,
//!   normalized Shannon entropy, χ² uniformity test, KL divergence, and
//!   the max/median "orders of magnitude" ratio,
//! * [`Summary`] — basic descriptive statistics with quantiles,
//! * [`spearman`] — rank correlation for prediction-vs-measurement
//!   claims,
//! * [`TimeSeries`] — infection/alert curves over simulated time.
//!
//! # Examples
//!
//! ```
//! use hotspots_stats::{uniformity, CountHistogram};
//!
//! let mut h = CountHistogram::new();
//! for k in ["a", "a", "a", "b"] {
//!     h.record(k);
//! }
//! let counts = h.counts();
//! assert!(uniformity::gini(&counts) > 0.0); // not uniform
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod correlation;
mod histogram;
mod summary;
mod timeseries;
pub mod uniformity;

pub use correlation::spearman;
pub use histogram::CountHistogram;
pub use summary::Summary;
pub use timeseries::TimeSeries;
