//! # mce-cli — command-line driver for the HBBMC enumeration pipeline
//!
//! The `mce` binary exposes the whole workspace as subcommands:
//!
//! * [`enumerate`](mod@enumerate) — stream the maximal cliques of a graph
//!   file (or stdin) through one of five output sinks (`count`, `text`,
//!   `ndjson`, `histogram`, `max`), at any thread count, with byte-identical
//!   output regardless of parallelism (the golden-corpus determinism gate),
//!   optionally bounded by `--limit` / `--max-steps`.
//! * [`query`](mod@query) — budgeted, cancellable queries over the unified
//!   engine: anchored enumeration (`--anchor`), top-k by size (`--top`),
//!   counting (`--count`) and k-clique listing (`--kclique`), each with a
//!   `complete` / `truncated` outcome on `--stats`.
//! * [`gen`](mod@gen) — write any named `mce-gen` preset to a graph file.
//! * [`stats`](mod@stats) — Table-I style graph and degeneracy summary.
//! * [`verify`](mod@verify) — re-check an enumeration output against the
//!   naive reference solver.
//! * [`convert`](mod@convert) — translate edge-list ↔ DIMACS ↔ the `.mcg`
//!   binary CSR container (see `docs/FORMAT.md`).
//! * [`serve`](mod@serve) — a newline-delimited-JSON-over-TCP daemon:
//!   named-graph registry, concurrent budgeted query sessions with
//!   admission control and per-client quotas, aggregate metrics and
//!   graceful shutdown.
//!
//! The argument parser is hand-rolled ([`args`]): the build environment is
//! fully offline, so no `clap`. Every failure path returns a [`CliError`]
//! that the binary maps to a one-line stderr message and a non-zero exit
//! code (1 for runtime failures, 2 for usage errors) — no panic is reachable
//! from malformed user input.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod convert;
pub mod enumerate;
pub mod error;
pub mod gen;
pub mod io;
pub mod query;
// The daemon must never bring itself down on a recoverable fault: panicking
// unwrap/expect are denied throughout the serve tree (tests are allow-listed
// locally), so every lock uses poison recovery and every fallible path
// returns a typed frame instead.
#[deny(clippy::unwrap_used, clippy::expect_used)]
pub mod serve;
pub mod stats;
pub mod verify;

pub use error::CliError;

/// Top-level usage text.
pub const USAGE: &str = "mce — maximal clique enumeration (HBBMC, ICDE 2025)

usage: mce <command> [options]

commands:
  enumerate [GRAPH]    enumerate maximal cliques of a graph file or stdin
  query [GRAPH]        budgeted / anchored / top-k / count queries
  gen PRESET           generate a synthetic graph from a named preset
  stats [GRAPH]        print graph + degeneracy statistics
  verify GRAPH [OUT]   check an enumeration output against the naive solver
  convert [IN [OUT]]   convert between edge-list, DIMACS and binary .mcg
  serve                serve queries over TCP (newline-delimited JSON)
  help [COMMAND]       show this message, or a command's options

run 'mce help <command>' or 'mce <command> --help' for command options";

fn help_for(command: &str) -> Option<&'static str> {
    match command {
        "enumerate" => Some(enumerate::HELP),
        "query" => Some(query::HELP),
        "gen" => Some(gen::HELP),
        "stats" => Some(stats::HELP),
        "verify" => Some(verify::HELP),
        "convert" => Some(convert::HELP),
        "serve" => Some(serve::HELP),
        _ => None,
    }
}

/// Dispatches a full argument vector (without the program name).
///
/// Returns `Ok(())` on success; the caller maps [`CliError`] to an exit code.
pub fn run(args: &[String]) -> Result<(), CliError> {
    let Some(command) = args.first().map(String::as_str) else {
        return Err(CliError::usage(USAGE));
    };
    let rest = &args[1..];
    if matches!(command, "--help" | "-h" | "help") {
        match rest.first().map(String::as_str) {
            Some(sub) => match help_for(sub) {
                Some(help) => println!("{help}"),
                None => {
                    return Err(CliError::usage(format!(
                        "unknown command '{sub}'\n\n{USAGE}"
                    )))
                }
            },
            None => println!("{USAGE}"),
        }
        return Ok(());
    }
    // `mce <command> --help` prints the command help and exits 0.
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        match help_for(command) {
            Some(help) => {
                println!("{help}");
                return Ok(());
            }
            None => {
                return Err(CliError::usage(format!(
                    "unknown command '{command}'\n\n{USAGE}"
                )))
            }
        }
    }
    match command {
        "enumerate" => enumerate::run(rest),
        "query" => query::run(rest),
        "gen" => gen::run(rest),
        "stats" => stats::run(rest),
        "verify" => verify::run(rest),
        "convert" => convert::run(rest),
        "serve" => serve::run(rest),
        other => Err(CliError::usage(format!(
            "unknown command '{other}'\n\n{USAGE}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_vec(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn no_arguments_is_usage_error() {
        let e = run(&[]).unwrap_err();
        assert_eq!(e.exit_code(), 2);
        assert!(e.to_string().contains("usage"));
    }

    #[test]
    fn unknown_command_is_usage_error() {
        let e = run(&to_vec(&["launch"])).unwrap_err();
        assert!(e.to_string().contains("launch"));
    }

    #[test]
    fn help_succeeds() {
        run(&to_vec(&["help"])).unwrap();
        run(&to_vec(&["--help"])).unwrap();
        run(&to_vec(&["help", "enumerate"])).unwrap();
        run(&to_vec(&["gen", "--help"])).unwrap();
        assert!(run(&to_vec(&["help", "warp"])).is_err());
    }

    #[test]
    fn every_command_has_help() {
        for c in [
            "enumerate",
            "query",
            "gen",
            "stats",
            "verify",
            "convert",
            "serve",
        ] {
            assert!(help_for(c).is_some(), "{c}");
            assert!(help_for(c).unwrap().contains("usage: mce"), "{c}");
        }
    }
}
