//! **hotspots** — a reproduction of *"Hotspots: The Root Causes of
//! Non-Uniformity in Self-Propagating Malware"* (Cooke, Mao, Jahanian —
//! DSN 2006).
//!
//! A *hotspot* is a deviation from uniform malware propagation: one
//! address (or block) observes orders of magnitude more — or less — worm
//! traffic than another. The paper decomposes the root causes into
//!
//! * **algorithmic factors** (host-level, programmatic): hit-lists,
//!   flawed PRNGs, bad entropy sources, deliberate local preference;
//! * **environmental factors** (network-level, external): NAT/private
//!   address topology, routing & filtering policy, failures;
//!
//! and shows that the resulting hotspots blind distributed, quorum-based
//! detection systems.
//!
//! This crate is the top of the reproduction stack. It provides:
//!
//! * [`HotspotReport`] — deviation-from-uniform metrics over observed
//!   per-block counts,
//! * [`seed_inference`] — the Blaster forensics pipeline (hot /24s →
//!   candidate `GetTickCount()` seeds → implied boot times),
//! * [`scenarios`] — one configurable builder per case study / figure of
//!   the paper, shared by the scenario registry, the examples, and the
//!   integration tests,
//! * [`epidemic`] — the classical logistic baseline used to validate the
//!   probe-level engine,
//! * [`detection_gap`] — the alert-vs-infection race quantified.
//!
//! The substrates live in sibling crates: `hotspots-ipspace`,
//! `hotspots-prng`, `hotspots-stats`, `hotspots-targeting`,
//! `hotspots-netmodel`, `hotspots-telescope`, `hotspots-botnet`, and
//! `hotspots-sim`.
//!
//! # Examples
//!
//! Quantify how non-uniform a per-/24 observation vector is:
//!
//! ```
//! use hotspots::HotspotReport;
//!
//! let uniform = HotspotReport::from_counts(&[10, 11, 9, 10, 10, 11, 9, 10]);
//! assert!(!uniform.is_hotspot());
//!
//! let spiked = HotspotReport::from_counts(&[10, 11, 9, 10, 900, 11, 9, 10]);
//! assert!(spiked.is_hotspot());
//! assert!(spiked.gini > uniform.gini);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod detection_gap;
pub mod epidemic;
mod metrics;
pub mod scenarios;
pub mod seed_inference;

pub use metrics::HotspotReport;
