//! Discrete-time worm outbreak engine with per-probe fidelity.
//!
//! Hotspots are per-address phenomena, so this simulator models every
//! probe individually instead of integrating an epidemic ODE: each
//! infected host owns a faithful target generator
//! (`hotspots-targeting`), every generated target is routed through the
//! network environment (`hotspots-netmodel`), and an observer — a
//! detector field (`hotspots-telescope`) — sees exactly the probes a
//! real deployment would.
//!
//! Every report is derived from the one record a run keeps, its
//! [`SimResult`]: the verdict ledger counts each probe once, and
//! `infections` logs every infection, in the order the run committed
//! it.
//!
//! The measurement studies, which watch hosts scan into a telescope
//! without an outbreak, send their probes through the same target-gen
//! and routing stages with [`Scan`], into an observer such as an
//! [`hotspots_telescope::Observatory`] or [`BucketHits`].
//!
//! The paper's Figure 5 parameters are the defaults: 10 probes/second per
//! infected host, 25 random seed hosts.
//!
//! # Examples
//!
//! ```
//! use hotspots_sim::{Engine, NullObserver, Population, SimConfig, UniformWorm};
//!
//! // A toy uniform outbreak over a dense /16: every probe that lands in
//! // the population infects.
//! let pop = Population::from_public(
//!     (0..500u32).map(|i| hotspots_ipspace::Ip::new(0x0a00_0000 + i * 131)),
//! );
//! let config = SimConfig {
//!     scan_rate: 10.0,
//!     seeds: 5,
//!     max_time: 50.0,
//!     ..SimConfig::default()
//! };
//! let mut engine = Engine::new(config, pop, Default::default(), Box::new(UniformWorm));
//! let result = engine.run(&mut NullObserver);
//! assert!(result.probes_sent > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod bitset;
mod engine;
mod executor;
mod ipmap;
mod observers;
mod outbreak;
mod population;
mod scan;
mod worms;

pub use bitset::HostBits;
pub use engine::{Engine, EngineTelemetry, SimConfig, SimResult};
pub use observers::{BucketHits, FieldObserver, NullObserver, SimObserver};
pub use outbreak::Outbreak;
pub use population::{
    apply_nat, apply_nat_shared, occupied_slash16s, paper_codered_population,
    synthetic_codered_population, zipf_slash8_population, Population, PopulationError,
    PAPER_CODERED_HOSTS, PAPER_CODERED_SLASH8S,
};
pub use scan::{Scan, ScanResult};
pub use worms::{
    BlasterWorm, BotWorm, CodeRed2Worm, HitListWorm, LocalPreferenceWorm, SlammerWorm, UniformWorm,
    WormModel,
};
