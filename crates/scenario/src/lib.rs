//! Declarative scenario layer for the hotspots reproduction.
//!
//! Everything the repository can simulate — worm targeting models,
//! network environments, populations, telescope deployments, the
//! figure/table studies — is describable as a [`ScenarioSpec`]: a plain
//! data tree that round-trips through TOML and JSON, validates with
//! errors naming the offending field, and builds into the concrete
//! engine or study types. A [`registry`] of named presets covers every
//! paper artifact (`fig1`…`fig5c`, `table1`, `table2`, the cross-mode
//! determinism scenarios, the bench workloads), and [`run::run_spec`]
//! executes any spec through the telemetry [`ReportBuilder`] so the
//! `hotspots` CLI, the server, and the test suites all share one
//! execution path.
//!
//! The determinism contract: the same spec and seed produce the same
//! run report at any thread count (per-host SplitMix64 streams plus
//! input-order result collection — see `DESIGN.md` §5d).

#![forbid(unsafe_code)]

pub mod build;
pub mod cli;
pub mod error;
pub mod registry;
pub mod run;
pub mod spec;
pub mod value;

pub use build::BuildError;
pub use cli::{parse_flags, usage, ArgError, FlagSpec, ParsedArgs, Scale};
pub use error::HotspotsError;
pub use registry::{find_preset, presets, Preset};
pub use run::{fold_sim_result, run_spec, Outcome, RunContext, ScenarioRun};
pub use spec::{
    EnvSpec, FaultsSpec, MetaSpec, PopSpec, ScenarioSpec, SimSpec, SpecError, StudySpec, SweepSpec,
    TelescopeSpec, WormSpec,
};
pub use value::{ParseError, Value};

pub use hotspots_telemetry::{ReportBuilder, RunReport, RUN_REPORT_ENV};
