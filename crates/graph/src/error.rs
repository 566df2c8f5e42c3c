//! Error type shared across the graph substrate.

use std::fmt;

/// Errors raised while constructing or parsing graphs.
#[derive(Debug)]
pub enum GraphError {
    /// A vertex identifier referenced an index outside the declared range.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: u64,
        /// The number of vertices in the graph.
        n: usize,
    },
    /// A line of an input file could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Human readable description of the problem.
        message: String,
    },
    /// An underlying I/O error.
    Io(std::io::Error),
    /// A graph or header declares more vertices than a limit allows: the
    /// 32-bit vertex id space, or a loader's cap on declared counts.
    TooManyVertices {
        /// The vertex count that was asked for.
        n: u64,
        /// The largest vertex count allowed.
        limit: u64,
    },
    /// A graph or header declares more edges than its `u32` CSR slots can
    /// address ([`crate::graph::MAX_EDGES`]).
    TooManyEdges {
        /// The edge count that was asked for.
        m: u64,
        /// The largest edge count allowed.
        limit: u64,
    },
    /// A binary `.mcg` input did not start with the format magic.
    BadMagic,
    /// A binary `.mcg` input declares a format version this build cannot read.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Highest version this build supports.
        supported: u32,
    },
    /// A binary `.mcg` section's checksum did not match its decoded bytes.
    ChecksumMismatch {
        /// Name of the failing section.
        section: &'static str,
    },
    /// Structurally invalid graph data: violated CSR invariants, truncated
    /// or inconsistent binary sections, malformed headers.
    InvalidData {
        /// Human readable description of the problem.
        message: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, n } => {
                write!(
                    f,
                    "vertex id {vertex} out of range for graph with {n} vertices"
                )
            }
            GraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            GraphError::Io(e) => write!(f, "i/o error: {e}"),
            GraphError::TooManyVertices { n, limit } => {
                write!(
                    f,
                    "graph with {n} vertices exceeds the limit of {limit} vertices"
                )
            }
            GraphError::TooManyEdges { m, limit } => {
                write!(f, "graph with {m} edges exceeds the limit of {limit} edges")
            }
            GraphError::BadMagic => {
                write!(f, "not an mcg file: bad magic bytes")
            }
            GraphError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported mcg format version {found} (this build reads up to {supported})"
                )
            }
            GraphError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in mcg section '{section}'")
            }
            GraphError::InvalidData { message } => {
                write!(f, "invalid graph data: {message}")
            }
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_vertex_out_of_range() {
        let e = GraphError::VertexOutOfRange { vertex: 10, n: 5 };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("5"));
    }

    #[test]
    fn display_parse() {
        let e = GraphError::Parse {
            line: 3,
            message: "bad token".into(),
        };
        assert!(e.to_string().contains("line 3"));
        assert!(e.to_string().contains("bad token"));
    }

    #[test]
    fn io_error_converts_and_sources() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let e: GraphError = io.into();
        assert!(e.to_string().contains("missing"));
        use std::error::Error;
        assert!(e.source().is_some());
    }

    #[test]
    fn too_many_vertices_display() {
        let e = GraphError::TooManyVertices {
            n: 5_000_000_000,
            limit: u32::MAX as u64,
        };
        assert!(e.to_string().contains("5000000000"));
        assert!(e.to_string().contains("4294967295"));
    }

    #[test]
    fn too_many_edges_display() {
        let e = GraphError::TooManyEdges {
            m: 1 << 31,
            limit: crate::graph::MAX_EDGES,
        };
        assert_eq!(
            e.to_string(),
            "graph with 2147483648 edges exceeds the limit of 2147483647 edges"
        );
    }

    #[test]
    fn binary_format_errors_display() {
        assert!(GraphError::BadMagic.to_string().contains("magic"));
        let e = GraphError::UnsupportedVersion {
            found: 9,
            supported: 1,
        };
        assert!(e.to_string().contains('9') && e.to_string().contains('1'));
        let e = GraphError::ChecksumMismatch {
            section: "adjacency",
        };
        assert!(e.to_string().contains("adjacency"));
        let e = GraphError::InvalidData {
            message: "bad offsets".into(),
        };
        assert!(e.to_string().contains("bad offsets"));
    }
}
