//! `mce serve` — a zero-dependency enumeration daemon speaking
//! newline-delimited JSON over TCP.
//!
//! One request per line, one or more single-line JSON response frames per
//! request. Clients `load` named graphs into a registry, then run
//! concurrent budgeted `query` sessions against them; every query maps onto
//! the unified query engine ([`hbbmc::ExecSession`]), so a truncated
//! response's clique bytes are an exact prefix of the complete response at
//! any thread count. See the README's wire-protocol
//! reference for the full request/response vocabulary.
//!
//! Module layout:
//! - [`json`]: hand-rolled JSON (parse with a depth cap, order-preserving
//!   render) in the same no-dependency idiom as the CLI argument parser;
//! - [`protocol`]: request parsing and response-frame builders;
//! - [`registry`]: the named-graph registry (`Arc`-pinned entries, so
//!   `evict` never races in-flight queries);
//! - [`metrics`]: server-wide aggregate counters;
//! - [`server`]: listener, connection threads, admission control, graceful
//!   shutdown;
//! - [`testkit`]: in-process harness for the integration tests.

pub mod json;
pub mod metrics;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod testkit;

use crate::args::check_scheduler;
use crate::args::ParsedArgs;
use crate::error::CliError;

pub use server::{ServeConfig, Server, ServerHandle};

/// Per-command help text.
pub const HELP: &str = "usage: mce serve [options]

Serves enumeration queries over TCP, one newline-delimited JSON request per
line. Clients load named graphs into a registry and run concurrent budgeted
query sessions against them; streamed cliques are deterministic, so any
truncated response is an exact byte-prefix of the complete one. See the
README's wire-protocol reference for the request/response vocabulary.

options:
  --addr HOST:PORT         listen address (default: 127.0.0.1:7171;
                           port 0 picks a free port)
  --max-sessions N         concurrently running query sessions, 1..=1024
                           (default: 4); excess queries fail fast with a
                           'capacity' error unless they set \"queue\":true
  --threads N              default worker threads per query (default: 1)
  --max-threads N          cap on per-query worker threads (default: 8)
  --default-max-steps N    step budget for queries without 'max_steps'
  --client-max-steps N     per-connection branch-step quota
  --client-max-cliques N   per-connection clique quota
  --scheduler dynamic|static|splitting   accepted, no effect (one parallel
                           engine; the wire 'scheduler' field likewise)
  --preset NAME            default solver preset (default: HBBMC++)
  --max-line-bytes N       request-line length cap (default: 1048576)
  --idle-timeout-secs N    close connections with no request for N seconds
                           (default: 300; 0 disables reaping)
  --write-timeout-secs N   fail a response write the client has not drained
                           for N seconds, cancelling its session
                           (default: 30; 0 waits forever)
  --default-deadline-ms N  wall-clock deadline for queries without
                           'deadline_ms'; truncated responses stay exact
                           byte-prefixes of the complete ones
  --degrade-high-water N   with N sessions already running, admit new ones
                           with a degraded (step-clamped) budget instead of
                           queueing them; end frames carry \"degraded\":true
                           (default: off)
  --degrade-max-steps N    step clamp for degraded sessions (default: 10000)";

const VALUE_OPTS: &[&str] = &[
    "--addr",
    "--max-sessions",
    "--threads",
    "--max-threads",
    "--default-max-steps",
    "--client-max-steps",
    "--client-max-cliques",
    "--scheduler",
    "--preset",
    "--max-line-bytes",
    "--idle-timeout-secs",
    "--write-timeout-secs",
    "--default-deadline-ms",
    "--degrade-high-water",
    "--degrade-max-steps",
];
const BOOL_FLAGS: &[&str] = &[];

/// Builds the [`ServeConfig`] from parsed flags.
fn parse_config(p: &ParsedArgs) -> Result<ServeConfig, CliError> {
    if let Some(name) = p.value("--scheduler") {
        check_scheduler(name).map_err(CliError::usage)?;
    }
    let defaults = ServeConfig::default();
    // Timeout flags use 0 to mean "disabled" so the CLI has no bool flags.
    let secs_or_off = |value: u64| (value > 0).then(|| std::time::Duration::from_secs(value));
    Ok(ServeConfig {
        addr: p.value("--addr").unwrap_or(&defaults.addr).to_string(),
        max_sessions: p.usize_value("--max-sessions", defaults.max_sessions, 1, 1024)?,
        default_threads: p.usize_value("--threads", defaults.default_threads, 1, 1024)?,
        max_threads: p.usize_value("--max-threads", defaults.max_threads, 1, 1024)?,
        default_max_steps: p.opt_u64("--default-max-steps")?,
        client_max_steps: p.opt_u64("--client-max-steps")?,
        client_max_cliques: p.opt_u64("--client-max-cliques")?,
        preset: p.value("--preset").unwrap_or(&defaults.preset).to_string(),
        max_line_bytes: p.usize_value("--max-line-bytes", defaults.max_line_bytes, 64, 1 << 30)?,
        idle_timeout: secs_or_off(p.u64_value("--idle-timeout-secs", 300)?),
        write_timeout: secs_or_off(p.u64_value("--write-timeout-secs", 30)?),
        default_deadline_ms: p.opt_u64("--default-deadline-ms")?,
        degrade_high_water: p
            .opt_u64("--degrade-high-water")?
            .map(|high_water| high_water as usize),
        degrade_max_steps: p.u64_value("--degrade-max-steps", defaults.degrade_max_steps)?,
        chaos_panic_graph: None,
        chaos_panic_after: 0,
    })
}

/// Runs the subcommand: binds, announces the address on stderr and serves
/// until a client sends `shutdown`.
pub fn run(args: &[String]) -> Result<(), CliError> {
    let p = ParsedArgs::parse(args, VALUE_OPTS, BOOL_FLAGS)?;
    p.reject_extra_positionals(0)?;
    let config = parse_config(&p)?;
    let server =
        Server::bind(config).map_err(|e| CliError::runtime(format!("binding listener: {e}")))?;
    eprintln!("mce serve: listening on {}", server.local_addr());
    server
        .serve()
        .map_err(|e| CliError::runtime(format!("serving: {e}")))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn parse(args: &[&str]) -> Result<ServeConfig, CliError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_config(&ParsedArgs::parse(&args, VALUE_OPTS, BOOL_FLAGS)?)
    }

    #[test]
    fn defaults_match_serve_config() {
        let config = parse(&[]).unwrap();
        assert_eq!(config.addr, "127.0.0.1:7171");
        assert_eq!(config.max_sessions, 4);
        assert_eq!(config.default_threads, 1);
        assert_eq!(config.max_threads, 8);
        assert_eq!(config.default_max_steps, None);
        assert_eq!(config.preset, "HBBMC++");
        assert_eq!(config.max_line_bytes, 1 << 20);
        assert_eq!(config.idle_timeout, Some(Duration::from_secs(300)));
        assert_eq!(config.write_timeout, Some(Duration::from_secs(30)));
        assert_eq!(config.default_deadline_ms, None);
        assert_eq!(config.degrade_high_water, None);
        assert_eq!(config.degrade_max_steps, 10_000);
        assert_eq!(config.chaos_panic_graph, None);
    }

    #[test]
    fn robustness_flags_parse_and_zero_disables_timeouts() {
        let config = parse(&[
            "--idle-timeout-secs",
            "7",
            "--write-timeout-secs",
            "0",
            "--default-deadline-ms",
            "1500",
            "--degrade-high-water",
            "3",
            "--degrade-max-steps",
            "250",
        ])
        .unwrap();
        assert_eq!(config.idle_timeout, Some(Duration::from_secs(7)));
        assert_eq!(config.write_timeout, None);
        assert_eq!(config.default_deadline_ms, Some(1500));
        assert_eq!(config.degrade_high_water, Some(3));
        assert_eq!(config.degrade_max_steps, 250);

        let off = parse(&["--idle-timeout-secs", "0"]).unwrap();
        assert_eq!(off.idle_timeout, None);
    }

    #[test]
    fn flags_override_defaults() {
        let config = parse(&[
            "--addr",
            "0.0.0.0:0",
            "--max-sessions",
            "2",
            "--threads",
            "4",
            "--default-max-steps",
            "1000",
            "--client-max-cliques",
            "50",
            "--scheduler",
            "splitting",
            "--max-line-bytes",
            "4096",
        ])
        .unwrap();
        assert_eq!(config.addr, "0.0.0.0:0");
        assert_eq!(config.max_sessions, 2);
        assert_eq!(config.default_threads, 4);
        assert_eq!(config.default_max_steps, Some(1000));
        assert_eq!(config.client_max_cliques, Some(50));
        assert_eq!(config.max_line_bytes, 4096);
    }

    #[test]
    fn bad_flags_are_usage_errors() {
        assert!(parse(&["--max-sessions", "0"]).is_err());
        assert!(parse(&["--scheduler", "fifo"]).is_err());
        assert!(parse(&["--port", "1"]).is_err());
    }
}
