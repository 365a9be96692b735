//! Environment substrate (the paper's *environmental factors*).
//!
//! Worm probes do not teleport: they traverse a network whose topology,
//! policy, and reliability shape what arrives where. This crate models the
//! three environmental factor classes the paper identifies:
//!
//! * **Network topology** — [`nat`]: NAT realms and RFC 1918 private
//!   address space, which break bidirectional reachability and (combined
//!   with CodeRedII's local preference) leak probe floods into public
//!   `192/8`.
//! * **Routing & filtering policy** — [`filtering`]: ordered deny rules
//!   over (source, destination, service), modelling enterprise egress
//!   filters and upstream provider blocks.
//! * **Failures & misconfiguration** — [`loss`]: steady-state Bernoulli
//!   packet loss, plus [`fault`]: a deterministic schedule of transient
//!   failures (sensor outages, upstream blackholes, flapping filters,
//!   degraded-path windows).
//!
//! [`Environment::route`] composes all three into a single verdict for
//! each probe, which is the only entry point the simulator needs.
//!
//! # Examples
//!
//! ```
//! use hotspots_ipspace::Ip;
//! use hotspots_netmodel::{Delivery, Environment, Locus, Service};
//! use rand::SeedableRng;
//!
//! let env = Environment::new();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let verdict = env.route(
//!     Locus::Public(Ip::from_octets(198, 51, 100, 1)),
//!     Ip::from_octets(203, 0, 113, 9),
//!     Service::CODERED_HTTP,
//!     0.0,
//!     &mut rng,
//! );
//! assert_eq!(verdict, Delivery::Public(Ip::from_octets(203, 0, 113, 9)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod environment;
pub mod fault;
pub mod filtering;
pub mod latency;
mod ledger;
pub mod loss;
pub mod nat;
pub mod orgs;
mod route_table;
mod service;

pub use environment::{Delivery, DropReason, Environment, Locus};
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultView, FaultWindow};
pub use filtering::{FilterRule, FilterTable};
pub use latency::LatencyModel;
pub use ledger::DeliveryLedger;
pub use loss::LossModel;
pub use nat::{NatRealm, RealmId};
pub use orgs::{OrgKind, OrgRegistry, Organization};
pub use route_table::RouteTables;
pub use service::{Proto, Service};
