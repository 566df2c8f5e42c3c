//! CLI error type: every failure path maps to a one-line stderr message and a
//! conventional exit code (no panic is reachable from bad user input).

use std::fmt;

use hbbmc::{ConfigError, EngineError, QueryError};
use mce_graph::GraphError;

/// An error surfaced by the `mce` binary.
#[derive(Debug)]
pub enum CliError {
    /// The command line itself was malformed (unknown flag, missing value,
    /// out-of-range number). Exit code 2, mirroring conventional CLIs.
    Usage(String),
    /// The invocation was well-formed but the work failed (unreadable file,
    /// parse error, verification mismatch). Exit code 1.
    Runtime(String),
}

impl CliError {
    /// Builds a usage error.
    pub fn usage(message: impl Into<String>) -> Self {
        CliError::Usage(message.into())
    }

    /// Builds a runtime error.
    pub fn runtime(message: impl Into<String>) -> Self {
        CliError::Runtime(message.into())
    }

    /// The process exit code this error maps to.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Runtime(_) => 1,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Runtime(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<GraphError> for CliError {
    fn from(e: GraphError) -> Self {
        CliError::Runtime(e.to_string())
    }
}

impl From<ConfigError> for CliError {
    fn from(e: ConfigError) -> Self {
        CliError::Usage(e.to_string())
    }
}

impl From<QueryError> for CliError {
    fn from(e: QueryError) -> Self {
        CliError::Usage(e.to_string())
    }
}

/// A contained worker panic is a runtime failure of the command.
impl From<EngineError> for CliError {
    fn from(e: EngineError) -> Self {
        CliError::Runtime(e.to_string())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Runtime(format!("i/o error: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_follow_convention() {
        assert_eq!(CliError::usage("x").exit_code(), 2);
        assert_eq!(CliError::runtime("x").exit_code(), 1);
    }

    #[test]
    fn conversions_preserve_messages() {
        let e: CliError = GraphError::TooManyVertices { n: 7, limit: 5 }.into();
        assert!(e.to_string().contains('7'));
        assert_eq!(e.exit_code(), 1);
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: CliError = io.into();
        assert!(e.to_string().contains("gone"));
    }
}
