//! Scenario server: memoized runs behind a line-delimited protocol.
//!
//! The scenario layer makes every run a pure function of its canonical
//! spec — same spec + seed, same report bytes at any thread count — so
//! results are cacheable *and the cache is verifiable*: any entry can
//! be re-derived and compared byte-for-byte. This crate turns that
//! contract into a long-running service (DESIGN.md §5i):
//!
//! 1. **Canonicalize.** A submitted spec (TOML or JSON text) round-trips
//!    through [`hotspots_scenario::ScenarioSpec`] to its normalized
//!    TOML, erasing formatting, key order, and explicit defaults.
//! 2. **Hash.** The canonical bytes are keyed with 64-bit FNV-1a
//!    ([`hotspots_telemetry::hash`]); the key is stable across
//!    processes and platforms.
//! 3. **Memoize.** A content-addressed [`store::ResultStore`] keeps one
//!    directory per spec hash (`spec.toml` + `report.jsonl`), written
//!    via temp-file + atomic rename, indexed by a versioned
//!    `manifest.jsonl`, and bounded by an LRU policy over logical
//!    sequence numbers (no wall clocks — the determinism lint's no-clock
//!    rule holds here too).
//! 4. **Run.** Cache misses queue onto a bounded [`pool::RunPool`]
//!    (the PR 8 executor discipline: named workers, ownership transfer
//!    over channels, panics captured and shipped back); identical
//!    in-flight submissions share one run.
//! 5. **Verify.** [`server::check`] re-runs every cached entry and
//!    diffs the stored report byte-for-byte — the determinism audit as
//!    a first-class operation (`hotspots serve --check`).
//!
//! The wire protocol is JSONL over stdio (see [`protocol`]).

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod pool;
pub mod protocol;
pub mod server;
pub mod store;

pub use pool::{RunPool, RunSlot};
pub use protocol::{ErrorKind, Request, SpecFormat};
pub use server::{check, CheckOutcome, ServeConfig, Server, MAX_REQUEST_BYTES};
pub use store::ResultStore;
