//! Observability core for the hotspots engine: phase timers, span
//! traces, and end-of-run reports.
//!
//! Design rules (see `DESIGN.md`, "Observability"):
//!
//! * **Dependency-free.** This crate sits underneath the probe hot
//!   path; it pulls in nothing, and its JSON emission is hand-rolled
//!   with a stable field order so run reports diff cleanly.
//! * **The only clock.** Every engine timestamp is a [`Timer`] read,
//!   a fixed number per host burst and per shard merge; hot-path
//!   crates read no clock of their own (`hotspots-lint` rule D1).
//! * **Aggregate per probe, report per run.** Per-probe work is
//!   counter arithmetic only; a run is summarised once, when it ends,
//!   by a [`ReportBuilder`] fold of the engine's result.
//!
//! # Examples
//!
//! ```
//! use hotspots_telemetry::{PhaseTimes, Timer};
//!
//! let mut phases = PhaseTimes::new();
//! for _ in 0..3 {
//!     let span = Timer::start();
//!     std::hint::black_box((0..1000u64).sum::<u64>());
//!     span.stop(&mut phases, "work");
//! }
//! assert_eq!(phases.spans("work"), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]
// Timing is this crate's purpose: the workspace-wide clippy.toml ban
// on clock reads (backing hotspots-lint rule D1) stops at its border.
#![allow(clippy::disallowed_methods)]

pub mod bench;
pub mod hash;
pub mod json;
mod memory;
mod metrics;
mod report;
mod trace;

pub use bench::{BenchSummary, MemoryStats, ScalingPoint};
pub use memory::resident_bytes;
pub use metrics::{PhaseTimes, Timer};
pub use report::{EmitError, ReportBuilder, RunReport, RUN_REPORT_ENV};
pub use trace::{stable_span_id, SpanRecord, SpanToken, TraceSink};
