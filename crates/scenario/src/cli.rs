//! The tiny command-line parser behind the `hotspots` CLI.
//!
//! [`parse_flags`] is strict: unknown flags are errors, so a typo like
//! `--quik` is a usage error instead of a silent full paper-scale run.

use std::fmt;

/// Experiment scale, selected by the `--quick` command-line flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced scale for smoke runs (seconds).
    Quick,
    /// Paper scale (may take minutes).
    Paper,
}

impl Scale {
    /// Resolves the scale from already-parsed flags: `--quick` selects
    /// [`Scale::Quick`], `--paper` (or neither) selects [`Scale::Paper`],
    /// and giving both is an error — they contradict each other.
    pub fn from_parsed(parsed: &ParsedArgs) -> Result<Scale, ArgError> {
        if parsed.has("quick") && parsed.has("paper") {
            return Err(ArgError(
                "--quick and --paper are mutually exclusive".to_owned(),
            ));
        }
        Ok(if parsed.has("quick") {
            Scale::Quick
        } else {
            Scale::Paper
        })
    }

    /// Picks `quick` or `paper` by scale.
    pub fn pick<T>(self, quick: T, paper: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Paper => paper,
        }
    }

    /// The scale's name as echoed in run reports.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        }
    }
}

/// One accepted flag.
#[derive(Debug, Clone, Copy)]
pub struct FlagSpec {
    /// Long name without dashes (`"quick"`).
    pub name: &'static str,
    /// Optional short form without dash (`"q"`).
    pub short: Option<&'static str>,
    /// Whether the flag takes a value (`--report out.jsonl`).
    pub takes_value: bool,
    /// Whether the flag may be given more than once (every occurrence
    /// is kept, in order — see [`ParsedArgs::values`]). Repeating a
    /// non-repeatable flag is an error rather than a silent
    /// first-one-wins.
    pub repeatable: bool,
    /// One-line help text.
    pub help: &'static str,
}

/// Parsed command line: positional arguments plus recognized flags.
#[derive(Debug, Clone, Default)]
pub struct ParsedArgs {
    /// Non-flag arguments, in order.
    pub positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl ParsedArgs {
    /// Whether `name` (long form) was given.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// The value of `name`, if the flag was given with one.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The long names of the flags given, in command-line order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.flags.iter().map(|(n, _)| n.as_str())
    }

    /// Every value of `name`, in command-line order — the accessor for
    /// repeatable flags like the sweep CLI's `--param`.
    pub fn values(&self, name: &str) -> Vec<&str> {
        self.flags
            .iter()
            .filter(|(n, _)| n == name)
            .filter_map(|(_, v)| v.as_deref())
            .collect()
    }
}

/// A rejected command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(String);

impl ArgError {
    /// An argument-rejection error with the given message. Front-ends
    /// use this to report flag *values* they reject (the parser itself
    /// only rejects flag *shapes*) through the same typed exit path.
    pub fn new(message: impl Into<String>) -> ArgError {
        ArgError(message.into())
    }
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

/// Parses `args` against `spec`. Unknown flags are errors; `--flag=value`
/// and `--flag value` are both accepted for value-taking flags.
pub fn parse_flags(args: &[String], spec: &[FlagSpec]) -> Result<ParsedArgs, ArgError> {
    let mut out = ParsedArgs::default();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        if !arg.starts_with('-') || arg == "-" {
            out.positional.push(arg.clone());
            continue;
        }
        let (name_part, inline_value) = match arg.split_once('=') {
            Some((n, v)) => (n, Some(v.to_owned())),
            None => (arg.as_str(), None),
        };
        let flag = spec.iter().find(|f| {
            name_part.strip_prefix("--") == Some(f.name)
                || (name_part.len() == 2 && name_part.strip_prefix('-') == f.short)
        });
        let Some(flag) = flag else {
            return Err(ArgError(format!("unrecognized flag {arg:?}")));
        };
        let value = if flag.takes_value {
            match inline_value {
                Some(v) => Some(v),
                None => match iter.next() {
                    Some(v) => Some(v.clone()),
                    None => {
                        return Err(ArgError(format!("flag --{} needs a value", flag.name)));
                    }
                },
            }
        } else {
            if inline_value.is_some() {
                return Err(ArgError(format!("flag --{} takes no value", flag.name)));
            }
            None
        };
        if !flag.repeatable && out.has(flag.name) {
            return Err(ArgError(format!(
                "flag --{} given more than once",
                flag.name
            )));
        }
        out.flags.push((flag.name.to_owned(), value));
    }
    Ok(out)
}

/// Renders a usage message for `binary` over `spec`. `extra` (possibly
/// empty) is appended verbatim — subcommand summaries, examples.
pub fn usage(binary: &str, spec: &[FlagSpec], extra: &str) -> String {
    let binary = binary.rsplit('/').next().unwrap_or(binary);
    let mut out = format!("usage: {binary} [flags]\n\nflags:\n");
    for f in spec {
        let short = f.short.map(|s| format!("-{s}, ")).unwrap_or_default();
        let value = if f.takes_value { " <value>" } else { "" };
        out.push_str(&format!(
            "  {:<26} {}\n",
            format!("{short}--{}{value}", f.name),
            f.help
        ));
    }
    if !extra.is_empty() {
        out.push('\n');
        out.push_str(extra);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    fn scale_flags() -> Vec<FlagSpec> {
        let flag = |name, short| FlagSpec {
            name,
            short,
            takes_value: false,
            repeatable: false,
            help: "",
        };
        vec![
            flag("quick", Some("q")),
            flag("paper", None),
            flag("help", Some("h")),
        ]
    }

    #[test]
    fn known_flags_parse() {
        let spec = scale_flags();
        let p = parse_flags(&args(&["--quick"]), &spec).unwrap();
        assert!(p.has("quick"));
        let p = parse_flags(&args(&["-q"]), &spec).unwrap();
        assert!(p.has("quick"));
        let p = parse_flags(&args(&[]), &spec).unwrap();
        assert!(!p.has("quick") && p.positional.is_empty());
    }

    #[test]
    fn unknown_flags_are_errors() {
        let spec = scale_flags();
        assert!(parse_flags(&args(&["--quik"]), &spec).is_err());
        assert!(parse_flags(&args(&["-x"]), &spec).is_err());
        assert!(parse_flags(&args(&["--quick=yes"]), &spec).is_err());
    }

    #[test]
    fn value_flags_accept_both_forms() {
        let spec = vec![FlagSpec {
            name: "report",
            short: None,
            takes_value: true,
            repeatable: false,
            help: "",
        }];
        let p = parse_flags(&args(&["--report", "out.jsonl"]), &spec).unwrap();
        assert_eq!(p.value("report"), Some("out.jsonl"));
        let p = parse_flags(&args(&["--report=out.jsonl"]), &spec).unwrap();
        assert_eq!(p.value("report"), Some("out.jsonl"));
        assert!(parse_flags(&args(&["--report"]), &spec).is_err());
    }

    #[test]
    fn repeatable_flags_append_in_order() {
        let spec = vec![FlagSpec {
            name: "param",
            short: None,
            takes_value: true,
            repeatable: true,
            help: "",
        }];
        let p = parse_flags(&args(&["--param", "a=1", "--param=b=2"]), &spec).unwrap();
        assert_eq!(p.values("param"), vec!["a=1", "b=2"]);
        // `value` keeps its first-occurrence contract for single-use callers
        assert_eq!(p.value("param"), Some("a=1"));
    }

    #[test]
    fn repeated_scalar_flag_is_an_error_naming_the_flag() {
        let spec = vec![
            FlagSpec {
                name: "threads",
                short: None,
                takes_value: true,
                repeatable: false,
                help: "",
            },
            FlagSpec {
                name: "quick",
                short: Some("q"),
                takes_value: false,
                repeatable: false,
                help: "",
            },
        ];
        let err = parse_flags(&args(&["--threads", "2", "--threads", "4"]), &spec).unwrap_err();
        assert!(err.to_string().contains("--threads"), "got: {err}");
        let err = parse_flags(&args(&["--quick", "-q"]), &spec).unwrap_err();
        assert!(err.to_string().contains("--quick"), "got: {err}");
    }

    #[test]
    fn quick_and_paper_together_are_rejected() {
        let spec = scale_flags();
        let p = parse_flags(&args(&["--quick", "--paper"]), &spec).unwrap();
        let err = Scale::from_parsed(&p).unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"), "got: {err}");
        let p = parse_flags(&args(&["--paper"]), &spec).unwrap();
        assert_eq!(Scale::from_parsed(&p).unwrap(), Scale::Paper);
        let p = parse_flags(&args(&["--quick"]), &spec).unwrap();
        assert_eq!(Scale::from_parsed(&p).unwrap(), Scale::Quick);
    }

    #[test]
    fn positionals_pass_through() {
        let spec = scale_flags();
        let p = parse_flags(&args(&["fig2", "--quick"]), &spec).unwrap();
        assert_eq!(p.positional, vec!["fig2"]);
    }

    #[test]
    fn usage_mentions_every_flag() {
        let text = usage("hotspots", &scale_flags(), "");
        for f in scale_flags() {
            assert!(text.contains(f.name), "usage missing --{}", f.name);
        }
    }
}
