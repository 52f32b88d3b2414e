//! The one command-line reader behind `simulate`, `simulate sweep`,
//! `repro` and `netrs-analyze`, and the config builder of the first three.
//!
//! Argv is read once into a [`Cli`]: each flag at most once (unless its
//! synopsis lets it repeat), with its value, and the bare words as files.
//! The run's [`SimConfig`] is then built in one pass: one base (the
//! caller's default, `--small` or `--config FILE`), every override in a
//! fixed order, then `finalize().validate()`. So the order of flags on the
//! command line never changes the experiment.
//!
//! ```
//! use netrs_sim::cli::{Cli, SIMULATE};
//! use netrs_sim::{Scheme, SimConfig};
//!
//! let args = ["--scheme", "netrs-ilp", "--seed", "5", "--small"].map(String::from);
//! let cli = Cli::parse(&args, &SIMULATE).unwrap();
//! let cfg = cli.config(SimConfig::paper(), SimConfig::small()).unwrap();
//! assert_eq!((cfg.arity, cfg.scheme, cfg.seed), (4, Scheme::NetRsIlp, 5));
//! ```

use std::fmt::Display;
use std::str::FromStr;

use crate::config::SimConfig;
use netrs_faults::FaultPlan;
use netrs_netdev::HotCacheConfig;

/// A command: where its messages come from and which flags it accepts.
///
/// The flags come from the program's usage text, so the text and the
/// parser cannot disagree: a `--flag` followed by a placeholder (`--seed N`,
/// `[--config FILE]`) takes a value, one followed by `]` or `|` does not;
/// one whose synopsis ends in `...]` may repeat. Any other word after the
/// subcommand's name is a file (`sweep FILE`, `[LABEL=]FILE [[LABEL=]FILE
/// ...]`), which a bare argument fills. A flag or file outside every
/// `[...]` must be given.
pub struct Command<'a> {
    /// Prefix of every message about a misused flag (`simulate`, `repro`).
    pub prog: &'a str,
    /// The subcommand named when a flag does not apply to it.
    pub name: &'a str,
    /// Every synopsis line of the program, printed as its usage; a flag in
    /// none of them is unknown.
    pub synopses: &'a [&'a str],
    /// The index of this command's line in `synopses`.
    pub synopsis: usize,
}

/// `simulate`'s usage: one run, then a sweep.
const SIMULATE_SYNOPSES: &[&str] = &[
    "simulate [--small | --config FILE] [--scheme clirs|clirs-r95|netrs-tor|netrs-ilp] \
     [--requests N] [--clients N] [--utilization F] [--skew F] [--seed N] [--faults FILE] \
     [--write-fraction F] [--consistency all|quorum:W|chain] [--hot-cache CAP] \
     [--cache-admission lru|freq:N] [--cache-write invalidate|through] \
     [--emit-config] [--json] [--trace FILE] [--trace-hops] [--timeseries FILE] \
     [--sample-every-us N] [--devices FILE] [--control FILE] [--perf FILE] \
     [--perf-stride N] [--progress] [--shards N] [--threads N] [--lookahead-mult N]",
    "simulate sweep [--out FILE] [--small | --config FILE] [--schemes all|s1,s2,...] \
     [--seeds s1,s2,...] [--requests N] [--utilization F] [--threads N] [--baseline]",
];

/// `simulate`: one run.
pub const SIMULATE: Command<'static> = Command {
    prog: "simulate",
    name: "simulate",
    synopses: SIMULATE_SYNOPSES,
    synopsis: 0,
};

/// `simulate sweep`: a scheme × seed grid of one config.
pub const SWEEP: Command<'static> = Command {
    prog: "simulate",
    name: "sweep",
    synopses: SIMULATE_SYNOPSES,
    synopsis: 1,
};

impl Command<'_> {
    /// The usage text: every synopsis line.
    #[must_use]
    pub fn usage(&self) -> String {
        format!("usage: {}", self.synopses.join("\n       "))
    }
}

/// What a synopsis line lets one argument be.
struct Slot<'a> {
    /// The flag (`--seed`), or `None` for a file.
    flag: Option<&'a str>,
    /// The flag takes a value.
    valued: bool,
    /// It may be given again: its synopsis ends in `...]`.
    repeats: bool,
    /// It must be given: it stands outside every `[...]`.
    required: bool,
}

/// The slots of a synopsis line, after the program's name and the
/// subcommand's (a second word that is no flag).
fn slots(line: &str) -> Vec<Slot<'_>> {
    let mut words = line.split_whitespace().skip(1).peekable();
    words.next_if(|w| !w.starts_with(['[', '-']));
    let mut slots: Vec<Slot> = Vec::new();
    let (mut depth, mut value) = (0, false);
    while let Some(word) = words.next() {
        // How deep in `[...]` the word itself sits: `[LABEL=]FILE` is
        // required, `[[LABEL=]FILE` is not.
        let name = word.trim_end_matches(']');
        let at = depth + name.matches('[').count() - name.matches(']').count();
        depth = depth + word.matches('[').count() - word.matches(']').count();
        let name = name.trim_start_matches('[');
        if std::mem::take(&mut value) || name == "|" {
            continue;
        }
        if name == "..." {
            let last = slots.last().expect("`...` follows a slot").flag;
            for slot in slots.iter_mut().filter(|s| s.flag == last) {
                slot.repeats = true;
            }
            continue;
        }
        let flag = name.starts_with('-').then_some(name);
        value = flag.is_some() && !word.ends_with(']') && words.peek() != Some(&"|");
        slots.push(Slot {
            flag,
            valued: value,
            repeats: false,
            required: at == 0,
        });
    }
    slots
}

/// Why a command line cannot run, and the exit code that says so: 2 for
/// a misused flag, 1 for a file or configuration the run cannot use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// The process exit code.
    pub code: i32,
    /// The stderr text.
    pub message: String,
}

impl CliError {
    /// A misused flag: exit 2.
    #[must_use]
    pub fn misuse(message: String) -> CliError {
        CliError { code: 2, message }
    }

    /// A file or configuration the run cannot use: exit 1.
    #[must_use]
    pub fn invalid(message: String) -> CliError {
        CliError { code: 1, message }
    }

    /// Prints the message and exits with the code.
    pub fn exit(&self) -> ! {
        eprintln!("{}", self.message);
        std::process::exit(self.code)
    }
}

/// One command line: every flag given, with its value, and the files.
pub struct Cli {
    prog: String,
    given: Vec<(String, Option<String>)>,
    files: Vec<String>,
}

impl Cli {
    /// Reads `args` (without the program and subcommand names) against
    /// `cmd`'s flags.
    ///
    /// # Errors
    ///
    /// Exit 2 naming the flag when it is unknown (after the usage text),
    /// not one of `cmd`'s, repeated without a `...]`, or missing its value,
    /// and naming what `cmd` needs when a required flag or file is missing.
    pub fn parse(args: &[String], cmd: &Command) -> Result<Cli, CliError> {
        let (prog, name) = (cmd.prog, cmd.name);
        let accepted = slots(cmd.synopses[cmd.synopsis]);
        let file_slots = accepted.iter().filter(|s| s.flag.is_none());
        let max_files = match file_slots.clone().any(|s| s.repeats) {
            true => usize::MAX,
            false => file_slots.clone().count(),
        };
        let mut given: Vec<(String, Option<String>)> = Vec::new();
        let mut files = Vec::new();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            if !flag.starts_with('-') && files.len() < max_files {
                files.push(flag.clone());
                continue;
            }
            let named = |s: &Slot| s.flag == Some(flag.as_str());
            let Some(slot) = accepted.iter().find(|s| named(s)) else {
                let known = cmd.synopses.iter().any(|l| slots(l).iter().any(named));
                return Err(CliError::misuse(match known {
                    true => format!("{prog}: {flag} does not apply to `{name}`"),
                    false => format!("{}\n{prog}: unknown flag {flag:?}", cmd.usage()),
                }));
            };
            if !slot.repeats && given.iter().any(|(f, _)| f == flag) {
                return Err(CliError::misuse(format!("{prog}: {flag} given twice")));
            }
            let missing = || CliError::misuse(format!("{prog}: {flag} needs a value"));
            let value = match slot.valued {
                true => Some(args.next().ok_or_else(missing)?.clone()),
                false => None,
            };
            given.push((flag.clone(), value));
        }
        let needs = |what: &str| CliError::misuse(format!("{prog}: `{name}` needs {what}"));
        let absent = |flag: &&str| !given.iter().any(|(f, _)| f == flag);
        let required = accepted.iter().filter(|s| s.required);
        if let Some(flag) = required.clone().filter_map(|s| s.flag).find(absent) {
            return Err(needs(flag));
        }
        if files.len() < required.filter(|s| s.flag.is_none()).count() {
            return Err(needs("a file"));
        }
        Ok(Cli {
            prog: prog.to_string(),
            given,
            files,
        })
    }

    /// Whether `flag` was given.
    #[must_use]
    pub fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(f, _)| f == flag)
    }

    /// The value given to `flag`, if any.
    #[must_use]
    pub fn str(&self, flag: &str) -> Option<&str> {
        let (_, value) = self.given.iter().find(|(f, _)| f == flag)?;
        value.as_deref()
    }

    /// Every value given to `flag`, in order: more than one only for a
    /// flag whose synopsis ends in `...]`.
    pub fn all<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> {
        let values = self.given.iter().filter(move |(f, _)| f == flag);
        values.filter_map(|(_, value)| value.as_deref())
    }

    /// The files given, in order.
    #[must_use]
    pub fn files(&self) -> &[String] {
        &self.files
    }

    /// `flag`'s value parsed as `T`.
    ///
    /// # Errors
    ///
    /// Exit 2 naming the flag and quoting a value that does not parse.
    pub fn get<T: FromStr>(&self, flag: &str) -> Result<Option<T>, CliError>
    where
        T::Err: Display,
    {
        self.str(flag)
            .map(|v| self.parse_value(flag, v))
            .transpose()
    }

    /// `flag`'s comma-separated value, each item parsed as `T`.
    ///
    /// # Errors
    ///
    /// As [`Cli::get`].
    pub fn list<T: FromStr>(&self, flag: &str) -> Result<Option<Vec<T>>, CliError>
    where
        T::Err: Display,
    {
        let items = |v: &str| {
            v.split(',')
                .map(|item| self.parse_value(flag, item))
                .collect()
        };
        self.str(flag).map(items).transpose()
    }

    fn parse_value<T: FromStr>(&self, flag: &str, v: &str) -> Result<T, CliError>
    where
        T::Err: Display,
    {
        v.parse()
            .map_err(|e| CliError::misuse(format!("{}: bad {flag} {v:?}: {e}", self.prog)))
    }

    /// Overwrites `slot` with `flag`'s value, if given.
    fn set<T: FromStr>(&self, slot: &mut T, flag: &str) -> Result<(), CliError>
    where
        T::Err: Display,
    {
        if let Some(value) = self.get(flag)? {
            *slot = value;
        }
        Ok(())
    }

    /// Exit 2 if both `a` and `b` were given.
    fn clash(&self, a: &str, b: &str, why: &str) -> Result<(), CliError> {
        if self.has(a) && self.has(b) {
            return Err(CliError::misuse(format!(
                "{}: {a} and {b} {why}",
                self.prog
            )));
        }
        Ok(())
    }

    /// Builds the run's configuration: the base, then every override in
    /// a fixed order, then `finalize().validate()`. The config returned
    /// is not finalized, so a caller that varies it (a figure's points)
    /// derives each point's finalized values from that point.
    ///
    /// # Errors
    ///
    /// Exit 2 on two bases, `--requests` with `--paper-scale`, `--hot-cache
    /// 0` with a cache policy flag, or a value that does not parse; exit 1
    /// on a `--config` or `--faults` file that cannot be read or parsed,
    /// and on an invalid config.
    pub fn config(&self, default: SimConfig, small: SimConfig) -> Result<SimConfig, CliError> {
        self.clash(
            "--small",
            "--config",
            "both choose the base config; give one",
        )?;
        self.clash(
            "--requests",
            "--paper-scale",
            "both set the request count; give one",
        )?;
        if self.get::<usize>("--hot-cache")? == Some(0) {
            let off = "conflict: --hot-cache 0 turns the cache off";
            self.clash("--hot-cache", "--cache-admission", off)?;
            self.clash("--hot-cache", "--cache-write", off)?;
        }
        let mut cfg = match self.str("--config") {
            Some(path) => serde_json::from_str(&read(path)?)
                .map_err(|e| CliError::invalid(format!("cannot parse {path}: {e}")))?,
            None if self.has("--small") => small,
            None => default,
        };
        self.set(&mut cfg.scheme, "--scheme")?;
        self.set(&mut cfg.requests, "--requests")?;
        if self.has("--paper-scale") {
            cfg.requests = 6_000_000;
        }
        self.set(&mut cfg.clients, "--clients")?;
        self.set(&mut cfg.utilization, "--utilization")?;
        if let Some(skew) = self.get("--skew")? {
            cfg.demand_skew = Some(skew);
        }
        self.set(&mut cfg.seed, "--seed")?;
        if let Some(path) = self.str("--faults") {
            let plan = FaultPlan::from_json(&read(path)?)
                .map_err(|e| CliError::invalid(format!("cannot parse fault plan {path}: {e}")))?;
            cfg.faults = Some(plan);
        }
        self.set(&mut cfg.write_fraction, "--write-fraction")?;
        self.set(&mut cfg.write_consistency, "--consistency")?;
        if let Some(capacity) = self.get("--hot-cache")? {
            cfg.hot_cache = match capacity {
                0 => None,
                _ => Some(HotCacheConfig {
                    capacity,
                    ..cfg.hot_cache.unwrap_or_default()
                }),
            };
        }
        if self.has("--cache-admission") || self.has("--cache-write") {
            let cache = cfg.hot_cache.get_or_insert_with(HotCacheConfig::default);
            self.set(&mut cache.admission, "--cache-admission")?;
            self.set(&mut cache.write_policy, "--cache-write")?;
        }
        cfg.clone()
            .finalize()
            .validate()
            .map_err(|msg| CliError::invalid(format!("invalid configuration: {msg}")))?;
        Ok(cfg)
    }
}

fn read(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::invalid(format!("cannot read {path}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The three shapes of `netrs-analyze`'s synopses: a repeated
    /// required flag, one file, and a list of labelled files.
    const TOOL: Command<'static> = Command {
        prog: "tool",
        name: "report",
        synopses: &[
            "tool report --in [LABEL=]FILE [--in [LABEL=]FILE ...] [--top N]",
            "tool sweep FILE",
            "tool list [LABEL=]FILE [[LABEL=]FILE ...] [--all]",
        ],
        synopsis: 0,
    };

    fn parse(args: &[&str], synopsis: usize) -> Result<Cli, CliError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let name = ["report", "sweep", "list"][synopsis];
        Cli::parse(
            &args,
            &Command {
                name,
                synopsis,
                ..TOOL
            },
        )
    }

    #[test]
    fn synopsis_words_say_what_repeats_what_is_a_file_and_what_is_required() {
        // `...]` lets a flag repeat and a file slot take any number.
        let cli = parse(&["--in", "x=1", "--top", "3", "--in", "2"], 0).unwrap();
        assert_eq!(cli.all("--in").collect::<Vec<_>>(), ["x=1", "2"]);
        assert!(cli.files().is_empty());
        assert_eq!(cli.get::<u32>("--top"), Ok(Some(3)));
        assert_eq!(parse(&["a.json"], 1).unwrap().files(), ["a.json"]);
        let cli = parse(&["a", "--all", "b", "c"], 2).unwrap();
        assert_eq!(cli.files(), ["a", "b", "c"]);
        assert!(cli.has("--all"));
        // `FILE` takes exactly one; anything else is misuse.
        for (args, synopsis, named) in [
            (&["a", "b"][..], 1, "unknown flag \"b\""),
            (&[], 1, "`sweep` needs a file"),
            (&["--in", "1", "a"], 0, "unknown flag \"a\""),
            (&["--top", "1"], 0, "`report` needs --in"),
            (&["--all"], 2, "`list` needs a file"),
            (
                &["--in", "1", "--top", "1", "--top", "2"],
                0,
                "--top given twice",
            ),
            (
                &["--in", "1", "--all"],
                0,
                "--all does not apply to `report`",
            ),
            (&["--in", "1", "--top"], 0, "--top needs a value"),
        ] {
            let err = parse(args, synopsis).err().expect("misuse");
            assert_eq!(err.code, 2, "{args:?}");
            assert!(err.message.contains(named), "{args:?}: {}", err.message);
        }
    }
}
