//! Hand-rolled argument parsing (the build environment is offline, so no
//! `clap`): positionals, `--key value` / `--key=value` options and boolean
//! flags, with strict rejection of anything undeclared.

use std::collections::HashMap;

use crate::error::CliError;

/// Checks a `--scheduler` option or wire `scheduler` field. The parallel
/// engine has a single scheduling policy, so the value has no effect; the
/// three historical names stay accepted so scripts and clients keep working,
/// and anything else is still rejected.
pub(crate) fn check_scheduler(name: &str) -> Result<(), String> {
    match name {
        "dynamic" | "static" | "splitting" => Ok(()),
        other => Err(format!(
            "unknown scheduler '{other}' (expected dynamic, static or splitting)"
        )),
    }
}

/// Parsed arguments of one subcommand.
#[derive(Debug, Default)]
pub struct ParsedArgs {
    positionals: Vec<String>,
    options: HashMap<&'static str, String>,
    flags: Vec<&'static str>,
}

impl ParsedArgs {
    /// Parses `args` against the declared option/flag names.
    ///
    /// `value_opts` take a value (`--threads 4` or `--threads=4`);
    /// `bool_flags` do not. Unknown `--…` tokens and missing values are usage
    /// errors; everything else is collected as a positional. A literal `-` is
    /// a positional (stdin/stdout placeholder).
    pub fn parse(
        args: &[String],
        value_opts: &'static [&'static str],
        bool_flags: &'static [&'static str],
    ) -> Result<ParsedArgs, CliError> {
        let mut parsed = ParsedArgs::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if arg == "-" || !arg.starts_with("--") {
                parsed.positionals.push(arg.clone());
                continue;
            }
            let (name, inline_value) = match arg.split_once('=') {
                Some((n, v)) => (n, Some(v.to_string())),
                None => (arg.as_str(), None),
            };
            if let Some(&canonical) = value_opts.iter().find(|&&o| o == name) {
                let value = match inline_value {
                    Some(v) => v,
                    None => it
                        .next()
                        .cloned()
                        .ok_or_else(|| CliError::usage(format!("{name} requires a value")))?,
                };
                parsed.options.insert(canonical, value);
            } else if let Some(&canonical) = bool_flags.iter().find(|&&o| o == name) {
                if inline_value.is_some() {
                    return Err(CliError::usage(format!("{name} does not take a value")));
                }
                parsed.flags.push(canonical);
            } else {
                return Err(CliError::usage(format!("unknown option '{name}'")));
            }
        }
        Ok(parsed)
    }

    /// The `i`-th positional argument, if present.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// Number of positional arguments.
    pub fn positional_count(&self) -> usize {
        self.positionals.len()
    }

    /// Errors when more than `max` positionals were given.
    pub fn reject_extra_positionals(&self, max: usize) -> Result<(), CliError> {
        if self.positionals.len() > max {
            return Err(CliError::usage(format!(
                "unexpected argument '{}'",
                self.positionals[max]
            )));
        }
        Ok(())
    }

    /// The raw value of a `--key value` option.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// Whether a boolean flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.contains(&name)
    }

    /// Parses an option as a `usize` within `[min, max]`, with a default.
    pub fn usize_value(
        &self,
        name: &str,
        default: usize,
        min: usize,
        max: usize,
    ) -> Result<usize, CliError> {
        let Some(raw) = self.value(name) else {
            return Ok(default);
        };
        let parsed: usize = raw
            .parse()
            .map_err(|_| CliError::usage(format!("{name}: '{raw}' is not a number")))?;
        if parsed < min || parsed > max {
            return Err(CliError::usage(format!(
                "{name} must be in {min}..={max} (got {parsed})"
            )));
        }
        Ok(parsed)
    }

    /// Parses an option as a `u64`, with a default.
    pub fn u64_value(&self, name: &str, default: u64) -> Result<u64, CliError> {
        let Some(raw) = self.value(name) else {
            return Ok(default);
        };
        raw.parse()
            .map_err(|_| CliError::usage(format!("{name}: '{raw}' is not a number")))
    }

    /// Parses an option as a `u64`, distinguishing "absent" from a value.
    pub fn opt_u64(&self, name: &str) -> Result<Option<u64>, CliError> {
        let Some(raw) = self.value(name) else {
            return Ok(None);
        };
        raw.parse()
            .map(Some)
            .map_err(|_| CliError::usage(format!("{name}: '{raw}' is not a number")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_vec(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    const VALUES: &[&str] = &["--threads", "--format"];
    const FLAGS: &[&str] = &["--quiet"];

    #[test]
    fn parses_positionals_options_and_flags() {
        let p = ParsedArgs::parse(
            &to_vec(&["graph.txt", "--threads", "4", "--quiet", "-"]),
            VALUES,
            FLAGS,
        )
        .unwrap();
        assert_eq!(p.positional(0), Some("graph.txt"));
        assert_eq!(p.positional(1), Some("-"));
        assert_eq!(p.value("--threads"), Some("4"));
        assert!(p.flag("--quiet"));
        assert_eq!(p.positional_count(), 2);
    }

    #[test]
    fn equals_syntax_is_supported() {
        let p = ParsedArgs::parse(&to_vec(&["--threads=8"]), VALUES, FLAGS).unwrap();
        assert_eq!(p.value("--threads"), Some("8"));
    }

    #[test]
    fn unknown_option_is_usage_error() {
        let e = ParsedArgs::parse(&to_vec(&["--bogus"]), VALUES, FLAGS).unwrap_err();
        assert_eq!(e.exit_code(), 2);
        assert!(e.to_string().contains("--bogus"));
    }

    #[test]
    fn missing_value_is_usage_error() {
        let e = ParsedArgs::parse(&to_vec(&["--threads"]), VALUES, FLAGS).unwrap_err();
        assert!(e.to_string().contains("requires a value"));
    }

    #[test]
    fn flag_with_value_is_usage_error() {
        let e = ParsedArgs::parse(&to_vec(&["--quiet=yes"]), VALUES, FLAGS).unwrap_err();
        assert!(e.to_string().contains("does not take a value"));
    }

    #[test]
    fn usize_range_is_enforced() {
        let p = ParsedArgs::parse(&to_vec(&["--threads", "0"]), VALUES, FLAGS).unwrap();
        assert!(p.usize_value("--threads", 1, 1, 1024).is_err());
        let p = ParsedArgs::parse(&to_vec(&["--threads", "7"]), VALUES, FLAGS).unwrap();
        assert_eq!(p.usize_value("--threads", 1, 1, 1024).unwrap(), 7);
        let p = ParsedArgs::parse(&to_vec(&[]), VALUES, FLAGS).unwrap();
        assert_eq!(p.usize_value("--threads", 3, 1, 1024).unwrap(), 3);
    }

    #[test]
    fn extra_positionals_are_rejected() {
        let p = ParsedArgs::parse(&to_vec(&["a", "b"]), VALUES, FLAGS).unwrap();
        assert!(p.reject_extra_positionals(1).is_err());
        assert!(p.reject_extra_positionals(2).is_ok());
    }
}
