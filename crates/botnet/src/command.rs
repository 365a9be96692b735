//! The `advscan` / `ipscan` command grammar.

use std::fmt;
use std::str::FromStr;

use hotspots_ipspace::{Ip, Prefix};
use hotspots_prng::Prng32;
use hotspots_targeting::{HitList, HitListScanner};

use crate::modules::ExploitModule;
use crate::pattern::{looks_like_pattern, ScanPattern};

/// Which command family a parsed command belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommandKind {
    /// `advscan <module> [threads [delay [count]]] [pattern] [-flags]`
    /// (Agobot/rbot style).
    Advscan,
    /// `ipscan <pattern> <module> [-flags]` (SDBot/Ghost-Bot style).
    Ipscan,
}

impl fmt::Display for CommandKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CommandKind::Advscan => "advscan",
            CommandKind::Ipscan => "ipscan",
        })
    }
}

/// Error parsing a [`BotCommand`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseCommandError {
    /// The first token was not a known command verb.
    UnknownVerb(String),
    /// A required element (pattern or module) was missing.
    Missing(&'static str),
    /// A token could not be interpreted.
    BadToken(String),
}

impl fmt::Display for ParseCommandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseCommandError::UnknownVerb(v) => write!(f, "unknown command verb: {v:?}"),
            ParseCommandError::Missing(what) => write!(f, "command is missing its {what}"),
            ParseCommandError::BadToken(t) => write!(f, "unparseable token: {t:?}"),
        }
    }
}

impl std::error::Error for ParseCommandError {}

/// A parsed bot propagation command.
///
/// # Examples
///
/// ```
/// use hotspots_botnet::{BotCommand, CommandKind};
///
/// let cmd: BotCommand = "advscan dcom2 150 3 9999 x.x.x.x -r -b -s".parse().unwrap();
/// assert_eq!(cmd.kind(), CommandKind::Advscan);
/// assert_eq!(cmd.module().name(), "dcom2");
/// assert_eq!(cmd.threads(), Some(150));
/// assert!(cmd.flags().contains(&'b'));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BotCommand {
    kind: CommandKind,
    module: ExploitModule,
    pattern: Option<ScanPattern>,
    params: Vec<u32>,
    flags: Vec<char>,
}

impl BotCommand {
    /// The command family.
    pub fn kind(&self) -> CommandKind {
        self.kind
    }

    /// The exploit module to scan with.
    pub fn module(&self) -> &ExploitModule {
        &self.module
    }

    /// The octet pattern, if the command carries one (`advscan` without a
    /// pattern scans everywhere).
    pub fn pattern(&self) -> Option<&ScanPattern> {
        self.pattern.as_ref()
    }

    /// Numeric parameters in order (threads, delay, count for `advscan`).
    pub fn params(&self) -> &[u32] {
        &self.params
    }

    /// Thread count (first numeric parameter), if present.
    pub fn threads(&self) -> Option<u32> {
        self.params.first().copied()
    }

    /// Single-letter flags (`-r -b -s` → `['r', 'b', 's']`).
    pub fn flags(&self) -> &[char] {
        &self.flags
    }

    /// The address range a drone at `local` will scan under this command:
    /// the resolved pattern prefix, or the whole space when no pattern is
    /// given.
    ///
    /// # Errors
    ///
    /// Propagates [`ResolveError`](crate::ResolveError) for non-prefix
    /// patterns.
    pub fn target_range<P: Prng32>(
        &self,
        local: Ip,
        prng: &mut P,
    ) -> Result<Prefix, crate::pattern::ResolveError> {
        match &self.pattern {
            Some(p) => p.resolve(local, prng),
            None => Ok(Prefix::ALL),
        }
    }

    /// Builds a live scanner for a drone at `local`: the command's
    /// hit-list restriction driving a
    /// [`HitListScanner`].
    ///
    /// # Errors
    ///
    /// Propagates pattern-resolution errors.
    pub fn scanner<P: Prng32>(
        &self,
        local: Ip,
        mut prng: P,
    ) -> Result<HitListScanner<P>, crate::pattern::ResolveError> {
        let range = self.target_range(local, &mut prng)?;
        let list = HitList::new(vec![range]).expect("single prefix list is valid"); // hotspots-lint: allow(panic-path) reason="single prefix list is valid"
        Ok(HitListScanner::new(list, prng))
    }
}

impl fmt::Display for BotCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)?;
        match self.kind {
            CommandKind::Ipscan => {
                if let Some(p) = &self.pattern {
                    write!(f, " {p}")?;
                }
                write!(f, " {}", self.module.name())?;
            }
            CommandKind::Advscan => {
                write!(f, " {}", self.module.name())?;
                for p in &self.params {
                    write!(f, " {p}")?;
                }
                if let Some(p) = &self.pattern {
                    write!(f, " {p}")?;
                }
            }
        }
        for flag in &self.flags {
            write!(f, " -{flag}")?;
        }
        Ok(())
    }
}

impl FromStr for BotCommand {
    type Err = ParseCommandError;

    fn from_str(s: &str) -> Result<BotCommand, ParseCommandError> {
        let mut tokens = s.split_whitespace();
        let verb = tokens.next().ok_or(ParseCommandError::Missing("verb"))?;
        let kind = match verb {
            "advscan" | ".advscan" => CommandKind::Advscan,
            "ipscan" | ".ipscan" => CommandKind::Ipscan,
            other => return Err(ParseCommandError::UnknownVerb(other.to_owned())),
        };
        let rest: Vec<&str> = tokens.collect();

        let mut module: Option<ExploitModule> = None;
        let mut pattern: Option<ScanPattern> = None;
        let mut params: Vec<u32> = Vec::new();
        let mut flags: Vec<char> = Vec::new();

        for token in rest {
            if let Some(stripped) = token.strip_prefix('-') {
                if stripped.len() == 1 && stripped.chars().all(|c| c.is_ascii_alphabetic()) {
                    flags.push(stripped.chars().next().expect("len checked")); // hotspots-lint: allow(panic-path) reason="length checked on the previous line"
                    continue;
                }
                return Err(ParseCommandError::BadToken(token.to_owned()));
            }
            if looks_like_pattern(token) && pattern.is_none() {
                pattern = Some(
                    token
                        .parse()
                        .map_err(|_| ParseCommandError::BadToken(token.to_owned()))?,
                );
                continue;
            }
            if token.bytes().all(|b| b.is_ascii_digit()) {
                params.push(
                    token
                        .parse()
                        .map_err(|_| ParseCommandError::BadToken(token.to_owned()))?,
                );
                continue;
            }
            if module.is_none() {
                module = Some(ExploitModule::named(token));
                continue;
            }
            return Err(ParseCommandError::BadToken(token.to_owned()));
        }

        Ok(BotCommand {
            kind,
            module: module.ok_or(ParseCommandError::Missing("module"))?,
            pattern,
            params,
            flags,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspots_prng::SplitMix;
    use hotspots_targeting::TargetGenerator;

    #[test]
    fn parse_ipscan_forms() {
        let cmd: BotCommand = "ipscan s.s.s.s dcom2 -s".parse().unwrap();
        assert_eq!(cmd.kind(), CommandKind::Ipscan);
        assert_eq!(cmd.module().name(), "dcom2");
        assert_eq!(cmd.pattern().unwrap().to_string(), "s.s.s.s");
        assert_eq!(cmd.flags(), ['s']);
    }

    #[test]
    fn parse_advscan_with_params_and_pattern() {
        let cmd: BotCommand = "advscan dcass 150 3 9999 x.x.x -b -s".parse().unwrap();
        assert_eq!(cmd.kind(), CommandKind::Advscan);
        assert_eq!(cmd.module().name(), "dcass");
        assert_eq!(cmd.params(), [150, 3, 9999]);
        assert_eq!(cmd.pattern().unwrap().to_string(), "x.x.x");
        assert_eq!(cmd.flags(), ['b', 's']);
    }

    #[test]
    fn parse_advscan_without_pattern() {
        let cmd: BotCommand = "advscan wkssvceng 100 5 0 -r -s".parse().unwrap();
        assert!(cmd.pattern().is_none());
        assert_eq!(cmd.threads(), Some(100));
        let range = cmd.target_range(Ip::MIN, &mut SplitMix::new(0)).unwrap();
        assert_eq!(range, Prefix::ALL);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            "frobnicate 1.2.3.4".parse::<BotCommand>(),
            Err(ParseCommandError::UnknownVerb(_))
        ));
        assert!(matches!(
            "ipscan s.s.s.s".parse::<BotCommand>(),
            Err(ParseCommandError::Missing("module"))
        ));
        assert!(matches!(
            "advscan dcom2 --verbose".parse::<BotCommand>(),
            Err(ParseCommandError::BadToken(_))
        ));
    }

    #[test]
    fn display_round_trip() {
        for s in [
            "ipscan i.i.i.i dcom2 -s",
            "advscan wkssvceng 100 5 0 -r -s",
            "ipscan 192.s.s.s dcom2 -s",
            "advscan dcass 150 3 9999 x.x.x -b -s",
            "ipscan s.s dcom2",
        ] {
            let cmd: BotCommand = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(cmd.to_string(), s);
            let again: BotCommand = cmd.to_string().parse().unwrap();
            assert_eq!(cmd, again);
        }
    }

    #[test]
    fn dotted_prefix_verbs_accepted() {
        let cmd: BotCommand = ".advscan lsass 200 5 0 -r".parse().unwrap();
        assert_eq!(cmd.module().name(), "lsass");
    }

    #[test]
    fn literal_octet_pattern_restricts_scanner() {
        let cmd: BotCommand = "ipscan 128.s.s.s dcom2 -s".parse().unwrap();
        let mut scanner = cmd
            .scanner(Ip::from_octets(141, 20, 0, 1), SplitMix::new(5))
            .unwrap();
        for _ in 0..1000 {
            assert_eq!(scanner.next_target().octets()[0], 128);
        }
    }

    #[test]
    fn local_pattern_scans_drone_home_network() {
        let cmd: BotCommand = "ipscan i.i.x.x dcom2 -s".parse().unwrap();
        let home = Ip::from_octets(141, 21, 0, 1);
        let range = cmd.target_range(home, &mut SplitMix::new(0)).unwrap();
        assert_eq!(range.to_string(), "141.21.0.0/16");
    }
}
