//! Argument parsing and command dispatch (no external CLI crate is
//! available offline, so this is a small hand-rolled `--key value`
//! parser plus a subcommand table).

use std::collections::HashMap;
use std::fmt;

use crate::commands;

/// Usage text printed on errors.
pub const USAGE: &str = "\
usage:
  dbscout detect   --input <csv|bin> --eps <f64> --min-pts <usize>
                   [--engine native|distributed] [--labeled]
                   [--output <csv>] [--threads <usize>]
                   [--from-binary] [--batch-size <usize>]
                   [--max-task-retries <usize>] [--permissive-ingest]
                   [--trace-out <json>] [--report-json <json>] [--progress]
  dbscout generate --dataset blobs|circles|moons|cluto-t4|cluto-t5|cluto-t7|cluto-t8|cure-t2|geolife|osm
                   --output <path> [--n <usize>] [--seed <u64>] [--labeled]
                   [--format csv|binary]
  dbscout kdist    --input <csv> [--k <usize>]
  dbscout info     --input <csv> [--eps <f64>]
  dbscout sweep    --input <csv> [--min-pts <usize>] [--from <f64> --to <f64>]
                   [--steps <usize>] [--labeled]
  dbscout compare  --input <labeled csv> [--eps <f64>] [--min-pts <usize>] [--k <usize>]
  dbscout serve    --input <csv|bin> --eps <f64> --min-pts <usize>
                   [--from-binary] [--labeled] [--batch-size <usize>]
                   [--socket <path>]
                   [--trace-out <json>] [--report-json <json>]";

/// What went wrong, at the granularity callers (and shell scripts)
/// care about. Each kind maps to a distinct process exit code so
/// pipelines can tell a typo from a corrupt file from an engine fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Bad flags / unknown subcommand — exit code 1.
    Usage,
    /// The input data could not be read or parsed — exit code 2.
    Data,
    /// The detection engine itself failed (task retries exhausted,
    /// internal error) — exit code 3.
    Engine,
}

/// A CLI error with a human-readable message and an [`ErrorKind`].
#[derive(Debug, PartialEq, Eq)]
pub struct CliError {
    /// Which failure class this is.
    pub kind: ErrorKind,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

impl CliError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        Self {
            kind: ErrorKind::Usage,
            message: msg.into(),
        }
    }

    pub(crate) fn data(msg: impl Into<String>) -> Self {
        Self {
            kind: ErrorKind::Data,
            message: msg.into(),
        }
    }

    pub(crate) fn engine(msg: impl Into<String>) -> Self {
        Self {
            kind: ErrorKind::Engine,
            message: msg.into(),
        }
    }

    /// The process exit code for this error: 1 usage, 2 data, 3 engine.
    pub fn exit_code(&self) -> u8 {
        match self.kind {
            ErrorKind::Usage => 1,
            ErrorKind::Data => 2,
            ErrorKind::Engine => 3,
        }
    }
}

/// Parsed `--key value` flags of one subcommand invocation.
#[derive(Debug, Default)]
pub struct Flags {
    values: HashMap<String, String>,
}

impl Flags {
    /// Parses `args`, rejecting any `--key` not in `accepted` so a typo
    /// or a retired flag fails loudly instead of being ignored.
    fn parse(args: &[String], accepted: &[&str]) -> Result<Self, CliError> {
        let mut values = HashMap::new();
        let mut iter = args.iter().peekable();
        while let Some(a) = iter.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(CliError::new(format!("unexpected argument {a:?}")));
            };
            if !accepted.contains(&key) {
                return Err(CliError::new(format!("unknown flag --{key}")));
            }
            match iter.peek() {
                Some(v) if !v.starts_with("--") => {
                    values.insert(key.to_string(), (*v).clone());
                    iter.next();
                }
                _ => {
                    values.insert(key.to_string(), "true".to_string());
                }
            }
        }
        Ok(Self { values })
    }

    /// A required typed flag.
    pub fn require<T: std::str::FromStr>(&self, key: &str) -> Result<T, CliError> {
        let raw = self
            .values
            .get(key)
            .ok_or_else(|| CliError::new(format!("missing required flag --{key}")))?;
        raw.parse()
            .map_err(|_| CliError::new(format!("invalid value for --{key}: {raw:?}")))
    }

    /// An optional typed flag with a default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.values.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| CliError::new(format!("invalid value for --{key}: {raw:?}"))),
        }
    }

    /// A boolean presence flag.
    pub fn has(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }
}

/// Parses `args` and runs the selected subcommand, returning its report.
/// Each subcommand names the flags it reads; any other flag is a usage
/// error raised before the subcommand does any work.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let (cmd, rest) = args
        .split_first()
        .ok_or_else(|| CliError::new("no subcommand given"))?;
    type Command = fn(&Flags) -> Result<String, CliError>;
    let (accepted, command): (&[&str], Command) = match cmd.as_str() {
        "detect" => (
            &[
                "input",
                "eps",
                "min-pts",
                "engine",
                "labeled",
                "output",
                "threads",
                "from-binary",
                "batch-size",
                "max-task-retries",
                "permissive-ingest",
                "trace-out",
                "report-json",
                "progress",
            ],
            commands::detect,
        ),
        "generate" => (
            &["dataset", "output", "n", "seed", "labeled", "format"],
            commands::generate,
        ),
        "kdist" => (&["input", "k", "labeled"], commands::kdist),
        "info" => (&["input", "eps", "labeled"], commands::info),
        "sweep" => (
            &["input", "min-pts", "from", "to", "steps", "labeled"],
            commands::sweep,
        ),
        "compare" => (&["input", "eps", "min-pts", "k"], commands::compare),
        "serve" => (
            &[
                "input",
                "eps",
                "min-pts",
                "from-binary",
                "labeled",
                "batch-size",
                "socket",
                "trace-out",
                "report-json",
            ],
            crate::serve::serve,
        ),
        other => return Err(CliError::new(format!("unknown subcommand {other:?}"))),
    };
    command(&Flags::parse(rest, accepted)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    const ACCEPTED: &[&str] = &["eps", "min-pts", "labeled", "output"];

    #[test]
    fn flags_parse_pairs_and_presence() {
        let f = Flags::parse(
            &argv(&["--eps", "0.5", "--labeled", "--min-pts", "5"]),
            ACCEPTED,
        )
        .unwrap();
        assert_eq!(f.require::<f64>("eps").unwrap(), 0.5);
        assert_eq!(f.require::<usize>("min-pts").unwrap(), 5);
        assert!(f.has("labeled"));
        assert!(!f.has("output"));
    }

    #[test]
    fn missing_required_flag_is_an_error() {
        let f = Flags::parse(&[], ACCEPTED).unwrap();
        let e = f.require::<f64>("eps").unwrap_err();
        assert!(e.to_string().contains("--eps"));
    }

    #[test]
    fn invalid_value_is_an_error() {
        let f = Flags::parse(&argv(&["--eps", "abc"]), ACCEPTED).unwrap();
        assert!(f.require::<f64>("eps").is_err());
        assert!(f.get::<f64>("eps", 1.0).is_err());
    }

    #[test]
    fn positional_arguments_rejected() {
        assert!(Flags::parse(&argv(&["stray"]), ACCEPTED).is_err());
    }

    #[test]
    fn unknown_subcommand_rejected() {
        assert!(run(&argv(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
    }

    /// Runs `args` and returns the usage error it must raise.
    fn usage_error(args: &[&str]) -> CliError {
        let e = run(&argv(args)).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage, "{e}");
        e
    }

    #[test]
    fn detect_rejects_retired_backend_flags() {
        let base = [
            "detect",
            "--input",
            "/nonexistent.bin",
            "--from-binary",
            "--eps",
            "1",
            "--min-pts",
            "5",
        ];
        // Without the extra flags the run gets as far as the missing
        // input; with them it must stop before doing any work.
        assert_eq!(run(&argv(&base)).unwrap_err().kind, ErrorKind::Data);
        let e = usage_error(&[&base[..], &["--backend", "process", "--workers", "2"]].concat());
        assert!(e.message.contains("--backend"), "{e}");
    }

    #[test]
    fn detect_rejects_a_misspelled_flag() {
        let e = usage_error(&[
            "detect",
            "--input",
            "/nonexistent.bin",
            "--eps",
            "1",
            "--min-pts",
            "5",
            "--thraeds",
            "2",
        ]);
        assert!(e.message.contains("--thraeds"), "{e}");
    }

    #[test]
    fn serve_rejects_an_unknown_flag() {
        let e = usage_error(&[
            "serve",
            "--input",
            "/nonexistent.csv",
            "--eps",
            "1",
            "--min-pts",
            "5",
            "--bogus-flag",
            "3",
        ]);
        assert!(e.message.contains("--bogus-flag"), "{e}");
    }

    #[test]
    fn error_kinds_map_to_distinct_exit_codes() {
        assert_eq!(CliError::new("x").exit_code(), 1);
        assert_eq!(CliError::data("x").exit_code(), 2);
        assert_eq!(CliError::engine("x").exit_code(), 3);
        // A usage error (unknown subcommand) carries the Usage kind.
        let e = run(&argv(&["frobnicate"])).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage);
        // A missing input file is a data error.
        let e = run(&argv(&[
            "detect",
            "--input",
            "/nonexistent.csv",
            "--eps",
            "1",
            "--min-pts",
            "5",
        ]))
        .unwrap_err();
        assert_eq!(e.kind, ErrorKind::Data);
    }
}
