//! Graph I/O: edge-list and DIMACS text formats plus the `.mcg` binary.
//!
//! Real-world MCE datasets (networkrepository / SNAP) are distributed as
//! whitespace-separated edge lists, sometimes with `#`/`%` comment lines, or
//! as DIMACS `.col`/`.clq` files (`p edge n m` header followed by `e u v`
//! lines with 1-based vertices). Both are supported here so a user can run
//! the library on the paper's original inputs when they have them locally.
//! The [`crate::mcg`] binary format (`.mcg`) is dispatched through the same
//! [`GraphFormat`] surface: it stores the CSR arrays verbatim, so loading it
//! is a streamed `O(n + m)` copy instead of a parse (see `docs/FORMAT.md`).

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::builder::GraphBuilder;
use crate::error::GraphError;
use crate::graph::{Graph, VertexId};
use crate::mcg;

/// The graph file formats understood by this module.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphFormat {
    /// Whitespace-separated `u v` pairs, `#`/`%`/`//` comments.
    EdgeList,
    /// DIMACS `.col`/`.clq`: `p edge n m` header, `e u v` records, 1-based ids.
    Dimacs,
    /// The `.mcg` binary CSR container (see [`crate::mcg`] and `docs/FORMAT.md`).
    Mcg,
}

impl GraphFormat {
    /// Guesses the format from a *recognised* file extension: `.col`, `.clq`,
    /// `.dimacs` → DIMACS; `.txt`, `.edges`, `.el`, `.edgelist` → edge list;
    /// `.mcg` → binary CSR. Returns `None` for anything else (including no
    /// extension), so callers can fall back to content sniffing.
    pub fn from_extension(path: &Path) -> Option<GraphFormat> {
        let ext = path.extension()?.to_str()?.to_ascii_lowercase();
        match ext.as_str() {
            "col" | "clq" | "dimacs" => Some(GraphFormat::Dimacs),
            "txt" | "edges" | "el" | "edgelist" => Some(GraphFormat::EdgeList),
            "mcg" => Some(GraphFormat::Mcg),
            _ => None,
        }
    }

    /// Sniffs the format from raw file bytes: the `.mcg` magic wins outright
    /// (it starts with a non-ASCII byte precisely so no text file can collide),
    /// anything else is treated as text and dispatched by [`GraphFormat::sniff`].
    pub fn sniff_bytes(content: &[u8]) -> GraphFormat {
        if mcg::is_mcg(content) {
            return GraphFormat::Mcg;
        }
        GraphFormat::sniff(&String::from_utf8_lossy(content))
    }

    /// Sniffs the format from file content: the first line whose leading token
    /// is `p` or `e` marks DIMACS; the first line that parses as `u v` marks
    /// an edge list. Defaults to edge list when nothing decides.
    pub fn sniff(content: &str) -> GraphFormat {
        for line in content.lines() {
            let trimmed = line.trim();
            if trimmed.is_empty()
                || trimmed.starts_with('#')
                || trimmed.starts_with('%')
                || trimmed.starts_with("//")
            {
                continue;
            }
            let mut it = trimmed.split_whitespace();
            match it.next() {
                Some("p") | Some("e") | Some("c") => return GraphFormat::Dimacs,
                Some(tok) if tok.parse::<u64>().is_ok() => return GraphFormat::EdgeList,
                _ => return GraphFormat::EdgeList,
            }
        }
        GraphFormat::EdgeList
    }
}

/// Parses `content` as `format`.
///
/// The text formats accept any `&str`; [`GraphFormat::Mcg`] is a binary
/// container, so prefer [`read_graph_bytes`] when the input may be `.mcg` —
/// this wrapper only works for it when the caller's string round-tripped the
/// raw bytes losslessly.
pub fn read_graph_str(content: &str, format: GraphFormat) -> Result<Graph, GraphError> {
    read_graph_bytes(content.as_bytes(), format)
}

/// Parses raw file bytes as `format`. This is the dispatch point that treats
/// all three formats uniformly; use [`GraphFormat::sniff_bytes`] first when
/// the format is unknown.
pub fn read_graph_bytes(content: &[u8], format: GraphFormat) -> Result<Graph, GraphError> {
    match format {
        GraphFormat::EdgeList => read_edge_list(content),
        GraphFormat::Dimacs => read_dimacs(content),
        GraphFormat::Mcg => mcg::read_mcg(content),
    }
}

/// Reads a whitespace-separated edge list from `reader`.
///
/// Lines starting with `#`, `%` or `//` and blank lines are ignored. Vertex
/// labels may be arbitrary non-negative integers; they are densely relabelled
/// in first-seen order.
pub fn read_edge_list<R: Read>(reader: R) -> Result<Graph, GraphError> {
    let mut builder = GraphBuilder::new();
    let buf = BufReader::new(reader);
    for (lineno, line) in buf.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty()
            || trimmed.starts_with('#')
            || trimmed.starts_with('%')
            || trimmed.starts_with("//")
        {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let u = parse_token(it.next(), lineno + 1)?;
        let v = parse_token(it.next(), lineno + 1)?;
        builder.add_edge(u, v);
    }
    builder.build()
}

/// Reads an edge list from a file path. See [`read_edge_list`].
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<Graph, GraphError> {
    read_edge_list(File::open(path)?)
}

/// The largest vertex count a DIMACS `p edge n m` header may declare: 2^25.
///
/// A header may declare isolated vertices, so `n` is not bounded by the
/// input's size. Building the graph allocates about 32 bytes per declared
/// vertex, so this cap keeps that allocation near 1 GiB.
pub const MAX_DIMACS_VERTICES: u64 = 1 << 25;

/// Reads a DIMACS `.col` / `.clq` graph (`p edge n m` header, `e u v` edges,
/// 1-based vertex ids).
///
/// # Errors
/// [`GraphError::TooManyVertices`] if the header declares more than
/// [`MAX_DIMACS_VERTICES`] vertices; [`GraphError::VertexOutOfRange`] for an
/// edge endpoint above the declared count.
pub fn read_dimacs<R: Read>(reader: R) -> Result<Graph, GraphError> {
    let buf = BufReader::new(reader);
    let mut n: Option<usize> = None;
    let mut edges: Vec<(u64, u64)> = Vec::new();
    for (lineno, line) in buf.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('c') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        match it.next() {
            Some("p") => {
                let _format = it.next();
                let nv = parse_token(it.next(), lineno + 1)?;
                if nv > MAX_DIMACS_VERTICES {
                    return Err(GraphError::TooManyVertices {
                        n: nv,
                        limit: MAX_DIMACS_VERTICES,
                    });
                }
                n = Some(nv as usize);
            }
            Some("e") => {
                let u = parse_token(it.next(), lineno + 1)?;
                let v = parse_token(it.next(), lineno + 1)?;
                if u == 0 || v == 0 {
                    return Err(GraphError::Parse {
                        line: lineno + 1,
                        message: "DIMACS vertices are 1-based; found 0".into(),
                    });
                }
                edges.push((u - 1, v - 1));
            }
            Some(other) => {
                return Err(GraphError::Parse {
                    line: lineno + 1,
                    message: format!("unexpected record type '{other}'"),
                })
            }
            None => continue,
        }
    }
    let n = n.ok_or(GraphError::Parse {
        line: 0,
        message: "missing 'p edge n m' header".into(),
    })?;
    // The ids are already dense after the `- 1`, so no relabelling is
    // needed; check the range before narrowing to `VertexId`.
    if let Some(vertex) = edges
        .iter()
        .map(|&(u, v)| u.max(v))
        .find(|&w| w >= n as u64)
    {
        return Err(GraphError::VertexOutOfRange { vertex, n });
    }
    Graph::from_edges(
        n,
        edges
            .into_iter()
            .map(|(u, v)| (u as VertexId, v as VertexId)),
    )
}

/// Reads a DIMACS graph from a file path. See [`read_dimacs`].
pub fn read_dimacs_file<P: AsRef<Path>>(path: P) -> Result<Graph, GraphError> {
    read_dimacs(File::open(path)?)
}

/// Writes `g` as a whitespace-separated edge list (one `u v` pair per line).
pub fn write_edge_list<W: Write>(g: &Graph, writer: W) -> Result<(), GraphError> {
    let mut out = BufWriter::new(writer);
    writeln!(out, "# {} vertices, {} edges", g.n(), g.m())?;
    for (u, v) in g.edges() {
        writeln!(out, "{u} {v}")?;
    }
    out.flush()?;
    Ok(())
}

/// Writes `g` as an edge list to a file path. See [`write_edge_list`].
pub fn write_edge_list_file<P: AsRef<Path>>(g: &Graph, path: P) -> Result<(), GraphError> {
    write_edge_list(g, File::create(path)?)
}

/// Writes `g` in DIMACS format (`p edge n m` header, 1-based `e u v` lines).
///
/// Unlike the edge-list format, DIMACS declares the vertex count in its
/// header, so isolated vertices survive a round trip through this writer.
pub fn write_dimacs<W: Write>(g: &Graph, writer: W) -> Result<(), GraphError> {
    let mut out = BufWriter::new(writer);
    writeln!(out, "c generated by mce-graph")?;
    writeln!(out, "p edge {} {}", g.n(), g.m())?;
    for (u, v) in g.edges() {
        writeln!(out, "e {} {}", u + 1, v + 1)?;
    }
    out.flush()?;
    Ok(())
}

/// Writes `g` in DIMACS format to a file path. See [`write_dimacs`].
pub fn write_dimacs_file<P: AsRef<Path>>(g: &Graph, path: P) -> Result<(), GraphError> {
    write_dimacs(g, File::create(path)?)
}

/// Writes `g` as `format` to `writer`.
pub fn write_graph<W: Write>(g: &Graph, writer: W, format: GraphFormat) -> Result<(), GraphError> {
    match format {
        GraphFormat::EdgeList => write_edge_list(g, writer),
        GraphFormat::Dimacs => write_dimacs(g, writer),
        GraphFormat::Mcg => mcg::write_mcg(g, writer),
    }
}

fn parse_token(token: Option<&str>, line: usize) -> Result<u64, GraphError> {
    let token = token.ok_or_else(|| GraphError::Parse {
        line,
        message: "missing field".into(),
    })?;
    token.parse::<u64>().map_err(|_| GraphError::Parse {
        line,
        message: format!("'{token}' is not a vertex id"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_edge_list_with_comments_and_blank_lines() {
        let text = "# a comment\n\n0 1\n1 2\n% other comment\n// c style\n2 0\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert!(g.is_clique(&[0, 1, 2]));
    }

    #[test]
    fn edge_list_relabels_sparse_ids() {
        let text = "1000 2000\n2000 3000\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        let err = read_edge_list("0 x\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
        let err = read_edge_list("0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn reads_dimacs_triangle() {
        let text = "c sample\np edge 4 3\ne 1 2\ne 2 3\ne 1 3\n";
        let g = read_dimacs(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 3);
        assert!(g.is_clique(&[0, 1, 2]));
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn dimacs_requires_header() {
        let err = read_dimacs("e 1 2\n".as_bytes()).unwrap_err();
        // Edge before header still parses the edge, but missing n fails at the end
        // or the edge is out of range; either way it's an error.
        assert!(matches!(
            err,
            GraphError::Parse { .. } | GraphError::VertexOutOfRange { .. }
        ));
    }

    #[test]
    fn dimacs_rejects_zero_based_vertices() {
        let err = read_dimacs("p edge 3 1\ne 0 1\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }));
    }

    #[test]
    fn dimacs_rejects_unknown_records() {
        let err = read_dimacs("p edge 3 1\nq 1 2\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }));
    }

    #[test]
    fn dimacs_rejects_out_of_range_vertex() {
        let err = read_dimacs("p edge 2 1\ne 1 5\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::VertexOutOfRange { .. }));
        // An id past the u32 range is rejected, not narrowed into range.
        let err = read_dimacs("p edge 2 1\ne 1 4294967297\n".as_bytes()).unwrap_err();
        assert!(matches!(
            err,
            GraphError::VertexOutOfRange {
                vertex: 4294967296,
                n: 2
            }
        ));
    }

    #[test]
    fn dimacs_header_above_the_cap_is_rejected_before_allocating() {
        for n in [MAX_DIMACS_VERTICES + 1, 3_000_000_000, 5_000_000_000] {
            let text = format!("p edge {n} 1\ne 1 2\n");
            let err = read_dimacs(text.as_bytes()).unwrap_err();
            match &err {
                GraphError::TooManyVertices { n: got, limit } => {
                    assert_eq!((*got, *limit), (n, MAX_DIMACS_VERTICES));
                }
                other => panic!("expected TooManyVertices, got {other:?}"),
            }
            let message = err.to_string();
            assert!(message.contains(&n.to_string()), "{message}");
            assert!(message.contains("33554432"), "{message}");
        }
    }

    #[test]
    fn edge_list_round_trip() {
        let g = Graph::complete(5);
        let mut bytes = Vec::new();
        write_edge_list(&g, &mut bytes).unwrap();
        let g2 = read_edge_list(bytes.as_slice()).unwrap();
        assert_eq!(g2.n(), 5);
        assert_eq!(g2.m(), 10);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir();
        let path = dir.join("mce_graph_io_roundtrip_test.txt");
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        write_edge_list_file(&g, &path).unwrap();
        let g2 = read_edge_list_file(&path).unwrap();
        assert_eq!(g2.m(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_edge_list_file("/definitely/not/a/path.txt").unwrap_err();
        assert!(matches!(err, GraphError::Io(_)));
    }

    #[test]
    fn dimacs_round_trip_preserves_isolated_vertices() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (0, 2), (4, 5)]).unwrap();
        let mut bytes = Vec::new();
        write_dimacs(&g, &mut bytes).unwrap();
        let g2 = read_dimacs(bytes.as_slice()).unwrap();
        assert_eq!(g, g2);
        assert_eq!(g2.degree(3), 0);
    }

    #[test]
    fn sniff_detects_dimacs_and_edge_list() {
        assert_eq!(
            GraphFormat::sniff("c comment\np edge 3 1\ne 1 2\n"),
            GraphFormat::Dimacs
        );
        assert_eq!(GraphFormat::sniff("# hello\n0 1\n"), GraphFormat::EdgeList);
        assert_eq!(GraphFormat::sniff(""), GraphFormat::EdgeList);
        // DIMACS without a leading comment still sniffs via the 'p' header.
        assert_eq!(
            GraphFormat::sniff("p edge 2 1\ne 1 2\n"),
            GraphFormat::Dimacs
        );
    }

    #[test]
    fn format_from_extension() {
        use std::path::Path;
        assert_eq!(
            GraphFormat::from_extension(Path::new("g.col")),
            Some(GraphFormat::Dimacs)
        );
        assert_eq!(
            GraphFormat::from_extension(Path::new("g.CLQ")),
            Some(GraphFormat::Dimacs)
        );
        assert_eq!(
            GraphFormat::from_extension(Path::new("g.txt")),
            Some(GraphFormat::EdgeList)
        );
        assert_eq!(GraphFormat::from_extension(Path::new("graph")), None);
        // Unrecognised extensions defer to content sniffing.
        assert_eq!(GraphFormat::from_extension(Path::new("g.dat")), None);
    }

    #[test]
    fn read_graph_str_dispatches_on_format() {
        let g = read_graph_str("0 1\n1 2\n", GraphFormat::EdgeList).unwrap();
        assert_eq!(g.m(), 2);
        let g = read_graph_str("p edge 3 1\ne 1 3\n", GraphFormat::Dimacs).unwrap();
        assert_eq!(g.n(), 3);
        assert!(g.has_edge(0, 2));
    }

    #[test]
    fn write_graph_dispatches_on_format() {
        let g = Graph::complete(3);
        let mut el = Vec::new();
        write_graph(&g, &mut el, GraphFormat::EdgeList).unwrap();
        assert!(String::from_utf8(el).unwrap().contains("0 1"));
        let mut dm = Vec::new();
        write_graph(&g, &mut dm, GraphFormat::Dimacs).unwrap();
        assert!(String::from_utf8(dm).unwrap().contains("p edge 3 3"));
    }

    #[test]
    fn mcg_dispatches_through_graph_format() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)]).unwrap();
        let mut bytes = Vec::new();
        write_graph(&g, &mut bytes, GraphFormat::Mcg).unwrap();
        assert_eq!(GraphFormat::sniff_bytes(&bytes), GraphFormat::Mcg);
        let g2 = read_graph_bytes(&bytes, GraphFormat::Mcg).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn sniff_bytes_falls_back_to_text_sniffing() {
        assert_eq!(
            GraphFormat::sniff_bytes(b"0 1\n1 2\n"),
            GraphFormat::EdgeList
        );
        assert_eq!(
            GraphFormat::sniff_bytes(b"p edge 3 1\ne 1 2\n"),
            GraphFormat::Dimacs
        );
        assert_eq!(GraphFormat::sniff_bytes(b""), GraphFormat::EdgeList);
        // Arbitrary binary junk that is not the magic does not panic.
        assert_eq!(
            GraphFormat::sniff_bytes(&[0xff, 0xfe, 0x00, 0x01]),
            GraphFormat::EdgeList
        );
    }

    #[test]
    fn mcg_extension_is_recognised() {
        use std::path::Path;
        assert_eq!(
            GraphFormat::from_extension(Path::new("g.mcg")),
            Some(GraphFormat::Mcg)
        );
        assert_eq!(
            GraphFormat::from_extension(Path::new("g.MCG")),
            Some(GraphFormat::Mcg)
        );
    }
}
