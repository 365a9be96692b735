//! The typed error hierarchy for the run path.
//!
//! Everything between a command line and an emitted run report reports
//! failure as a [`HotspotsError`]: spec problems keep their dotted-path
//! [`SpecError`], argument problems keep their [`ArgError`], and the
//! runner's own failures (a worker that never produced its result, an
//! I/O failure while emitting) get typed variants instead of panics.
//! Front-ends map an error to a process exit status with
//! [`HotspotsError::exit_code`] — usage and spec mistakes exit 2 (the
//! caller can fix the invocation), runtime failures exit 1. One exit is
//! not an error: when stdout's reader goes away early (`hotspots run
//! fig2 | head -1`), the `hotspots` CLI stops quietly with status 141,
//! what a shell reports for a process killed by SIGPIPE, after any run
//! report it finished has been appended to its report file.

use std::fmt;

use crate::cli::ArgError;
use crate::spec::SpecError;

/// A failure anywhere on the run path: spec handling, argument
/// parsing, or the runner itself.
#[derive(Debug)]
pub enum HotspotsError {
    /// A spec failed to parse, validate, or build; carries the
    /// dotted-path field that caused it.
    Spec(SpecError),
    /// A rejected command line.
    Args(ArgError),
    /// A worker thread failed to produce its result.
    Worker {
        /// What the workers were running when the result went missing.
        context: String,
    },
    /// An I/O failure, e.g. while reading a spec file or appending a
    /// run report.
    Io {
        /// What was being read or written.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
}

impl HotspotsError {
    /// A [`HotspotsError::Worker`] with the given context.
    pub fn worker(context: impl Into<String>) -> HotspotsError {
        HotspotsError::Worker {
            context: context.into(),
        }
    }

    /// The process exit status this error maps to: 2 for mistakes the
    /// caller can fix (bad flags, bad specs), 1 for runtime failures.
    pub fn exit_code(&self) -> i32 {
        match self {
            HotspotsError::Spec(_) | HotspotsError::Args(_) => 2,
            HotspotsError::Worker { .. } | HotspotsError::Io { .. } => 1,
        }
    }
}

impl fmt::Display for HotspotsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HotspotsError::Spec(e) => e.fmt(f),
            HotspotsError::Args(e) => e.fmt(f),
            HotspotsError::Worker { context } => {
                write!(f, "worker failed without a result while {context}")
            }
            HotspotsError::Io { context, source } => write!(f, "{context}: {source}"),
        }
    }
}

impl std::error::Error for HotspotsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HotspotsError::Spec(e) => Some(e),
            HotspotsError::Args(e) => Some(e),
            HotspotsError::Worker { .. } => None,
            HotspotsError::Io { source, .. } => Some(source),
        }
    }
}

impl From<SpecError> for HotspotsError {
    fn from(e: SpecError) -> HotspotsError {
        HotspotsError::Spec(e)
    }
}

impl From<ArgError> for HotspotsError {
    fn from(e: ArgError) -> HotspotsError {
        HotspotsError::Args(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_split_usage_from_runtime() {
        let spec: HotspotsError = SpecError::new("sim.seeds", "too large").into();
        assert_eq!(spec.exit_code(), 2);
        assert_eq!(HotspotsError::worker("a sweep").exit_code(), 1);
        let io = HotspotsError::Io {
            context: "reading spec.toml".to_owned(),
            source: std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        };
        assert_eq!(io.exit_code(), 1);
    }

    #[test]
    fn display_keeps_the_inner_message() {
        let e: HotspotsError = SpecError::new("faults.schedule[0]", "bad window").into();
        let text = e.to_string();
        assert!(text.contains("faults.schedule[0]"), "got: {text}");
        let w = HotspotsError::worker("the hit-list sweep");
        assert!(w.to_string().contains("the hit-list sweep"));
    }
}
