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
//!
//! Both text formats are parsed from bytes by one tokenizer: lines end at
//! `\n`, and tokens are separated by the ASCII bytes that
//! [`char::is_whitespace`] accepts (space, tab, `\n`, VT, FF and `\r`, so a
//! CRLF line end is a separator too). Ids are parsed in place with exactly
//! the grammar of `u64::from_str`: an optional `+`, then decimal digits.
//! The readers over [`Read`] collect their input first; [`read_graph_bytes`]
//! parses a buffer the caller already holds without a copy.

use std::fs::File;
use std::io::{self, Read, Write};
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
    /// (it starts with a non-ASCII byte precisely so no text file can collide).
    /// Otherwise the first line that is neither blank nor an edge-list comment
    /// decides, read with the loaders' tokenizer: a leading token `p`, `e` or
    /// `c` marks DIMACS, anything else an edge list. Defaults to edge list
    /// when nothing decides. Only the bytes up to the deciding line are read,
    /// and nothing is allocated.
    pub fn sniff_bytes(content: &[u8]) -> GraphFormat {
        if mcg::is_mcg(content) {
            return GraphFormat::Mcg;
        }
        let mut tokens = Tokens::new(content);
        while let Some(line) = tokens.next_line() {
            if is_edge_list_comment(line) {
                tokens.skip_line();
                continue;
            }
            return match tokens.token() {
                b"p" | b"e" | b"c" => GraphFormat::Dimacs,
                _ => GraphFormat::EdgeList,
            };
        }
        GraphFormat::EdgeList
    }

    /// Sniffs the format from file content; see [`GraphFormat::sniff_bytes`].
    pub fn sniff(content: &str) -> GraphFormat {
        GraphFormat::sniff_bytes(content.as_bytes())
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
/// the format is unknown. The text formats are parsed in place.
pub fn read_graph_bytes(content: &[u8], format: GraphFormat) -> Result<Graph, GraphError> {
    match format {
        GraphFormat::EdgeList => parse_edge_list(content),
        GraphFormat::Dimacs => parse_dimacs(content),
        GraphFormat::Mcg => mcg::read_mcg(content),
    }
}

/// Reads a whitespace-separated edge list from `reader`.
///
/// Lines whose first token starts with `#`, `%` or `//` and blank lines are
/// ignored, and so are the tokens after the first two of a line. Vertex
/// labels may be arbitrary non-negative integers; they are densely
/// relabelled in first-seen order. The input is read to its end and then
/// parsed like [`read_graph_bytes`] does.
pub fn read_edge_list<R: Read>(mut reader: R) -> Result<Graph, GraphError> {
    let mut content = Vec::new();
    reader.read_to_end(&mut content)?;
    parse_edge_list(&content)
}

/// Reads an edge list from a file path. See [`read_edge_list`].
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<Graph, GraphError> {
    parse_edge_list(&std::fs::read(path)?)
}

/// The largest vertex count a DIMACS `p edge n m` header may declare: 2^25.
///
/// A header may declare isolated vertices, so `n` is not bounded by the
/// input's size. Building the graph allocates an 8-byte offset per declared
/// vertex, so this cap keeps that allocation at 256 MiB.
pub const MAX_DIMACS_VERTICES: u64 = 1 << 25;

/// Reads a DIMACS `.col` / `.clq` graph (`p edge n m` header, `e u v` edges,
/// 1-based vertex ids). Lines whose first token starts with `c` are
/// comments. The input is read to its end and then parsed like
/// [`read_graph_bytes`] does.
///
/// # Errors
/// [`GraphError::TooManyVertices`] if the header declares more than
/// [`MAX_DIMACS_VERTICES`] vertices; [`GraphError::VertexOutOfRange`] for an
/// edge endpoint above the declared count.
pub fn read_dimacs<R: Read>(mut reader: R) -> Result<Graph, GraphError> {
    let mut content = Vec::new();
    reader.read_to_end(&mut content)?;
    parse_dimacs(&content)
}

fn parse_edge_list(content: &[u8]) -> Result<Graph, GraphError> {
    let mut builder = GraphBuilder::with_label_table(content.len());
    let mut tokens = Tokens::new(content);
    while let Some(line) = tokens.next_line() {
        if is_edge_list_comment(line) {
            tokens.skip_line();
            continue;
        }
        let u = tokens.id()?;
        let v = tokens.id()?;
        builder.add_edge(u, v);
        tokens.end_line()?;
    }
    builder.build()
}

fn parse_dimacs(content: &[u8]) -> Result<Graph, GraphError> {
    let mut n: Option<usize> = None;
    let mut edges: Vec<(u64, u64)> = Vec::new();
    let mut tokens = Tokens::new(content);
    while let Some(line) = tokens.next_line() {
        if line[0] == b'c' {
            tokens.skip_line();
            continue;
        }
        match tokens.token() {
            b"p" => {
                let _format = tokens.token();
                let nv = tokens.id()?;
                if nv > MAX_DIMACS_VERTICES {
                    return Err(tokens.fail(GraphError::TooManyVertices {
                        n: nv,
                        limit: MAX_DIMACS_VERTICES,
                    }));
                }
                n = Some(nv as usize);
            }
            b"e" => {
                let u = tokens.id()?;
                let v = tokens.id()?;
                if u == 0 || v == 0 {
                    return Err(tokens.parse_error("DIMACS vertices are 1-based; found 0".into()));
                }
                edges.push((u - 1, v - 1));
            }
            other => {
                let message = format!(
                    "unexpected record type '{}'",
                    String::from_utf8_lossy(other)
                );
                return Err(tokens.parse_error(message));
            }
        }
        tokens.end_line()?;
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

/// Whether an edge-list line, starting at its first token, is a comment.
fn is_edge_list_comment(line: &[u8]) -> bool {
    matches!(line[0], b'#' | b'%') || line.starts_with(b"//")
}

/// Whether `byte` separates tokens: the ASCII bytes that
/// [`char::is_whitespace`] accepts. Unlike [`u8::is_ascii_whitespace`],
/// this includes VT (`0x0B`).
#[inline]
fn is_separator(byte: u8) -> bool {
    byte == b' ' || (b'\t'..=b'\r').contains(&byte)
}

/// The tokenizer of the text loaders: a cursor over the input bytes that
/// hands out the tokens of one line at a time and numbers the lines from 1,
/// as `BufRead::lines` did.
///
/// Comment lines are skipped without looking at their bytes. Every other
/// line must be UTF-8, as it had to be when the loaders read `String`
/// lines: [`Tokens::end_line`] and [`Tokens::fail`] check it when the line
/// holds a non-ASCII byte, and report an invalid line as that I/O error.
struct Tokens<'a> {
    text: &'a [u8],
    pos: usize,
    /// Where the current line starts.
    line_start: usize,
    /// The current line's number.
    line: usize,
}

impl<'a> Tokens<'a> {
    fn new(text: &'a [u8]) -> Self {
        Tokens {
            text,
            pos: 0,
            line_start: 0,
            line: 1,
        }
    }

    /// Moves to the first token of the next line that holds one and
    /// returns the input from there on; `None` at the end of the input.
    fn next_line(&mut self) -> Option<&'a [u8]> {
        while let Some(&byte) = self.text.get(self.pos) {
            if !is_separator(byte) {
                return Some(&self.text[self.pos..]);
            }
            self.pos += 1;
            if byte == b'\n' {
                self.line += 1;
                self.line_start = self.pos;
            }
        }
        None
    }

    /// Moves to the current line's next token; false at the line's end.
    fn at_token(&mut self) -> bool {
        while let Some(&byte) = self.text.get(self.pos) {
            if !is_separator(byte) {
                return true;
            }
            if byte == b'\n' {
                return false;
            }
            self.pos += 1;
        }
        false
    }

    /// The current line's next token; empty at the line's end.
    fn token(&mut self) -> &'a [u8] {
        self.at_token();
        let start = self.pos;
        while self.pos < self.text.len() && !is_separator(self.text[self.pos]) {
            self.pos += 1;
        }
        &self.text[start..self.pos]
    }

    /// Parses the current line's next token as a vertex id, with exactly
    /// the grammar of `u64::from_str`: an optional `+`, then decimal digits,
    /// with no overflow. The digits are read in place; a token that is not
    /// an id is read again, by [`Tokens::token`], to name it in the error.
    fn id(&mut self) -> Result<u64, GraphError> {
        if self.at_token() {
            let text = self.text;
            let start = self.pos + usize::from(text[self.pos] == b'+');
            let mut end = start;
            let mut value = 0u64;
            while let Some(digit) = text.get(end).map(|byte| byte.wrapping_sub(b'0')) {
                if digit > 9 {
                    break;
                }
                match value
                    .checked_mul(10)
                    .and_then(|v| v.checked_add(digit as u64))
                {
                    Some(v) => value = v,
                    None => break,
                }
                end += 1;
            }
            if end > start && text.get(end).map_or(true, |&byte| is_separator(byte)) {
                self.pos = end;
                return Ok(value);
            }
        }
        let message = match self.token() {
            b"" => "missing field".to_string(),
            token => format!("'{}' is not a vertex id", String::from_utf8_lossy(token)),
        };
        Err(self.parse_error(message))
    }

    /// Skips the rest of the current line and returns the whole line.
    fn skip_line(&mut self) -> &'a [u8] {
        let end = self.text[self.pos..]
            .iter()
            .position(|&byte| byte == b'\n')
            .map_or(self.text.len(), |i| self.pos + i);
        self.pos = end;
        &self.text[self.line_start..end]
    }

    /// Skips the rest of a parsed line, ignoring its extra tokens; the I/O
    /// error if the line is not UTF-8.
    fn end_line(&mut self) -> Result<(), GraphError> {
        let line = self.skip_line();
        if line.is_ascii() || std::str::from_utf8(line).is_ok() {
            return Ok(());
        }
        // The error `BufRead::lines` gives for a line that is not UTF-8.
        Err(GraphError::Io(io::Error::new(
            io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        )))
    }

    /// `error` for the current line, unless the line is not UTF-8: then
    /// the I/O error that reading it as a `String` line gave.
    fn fail(&mut self, error: GraphError) -> GraphError {
        self.end_line().err().unwrap_or(error)
    }

    /// A parse error naming the current line; see [`Tokens::fail`].
    fn parse_error(&mut self, message: String) -> GraphError {
        let line = self.line;
        self.fail(GraphError::Parse { line, message })
    }
}

/// Writes `g` as a whitespace-separated edge list (one `u v` pair per line).
pub fn write_edge_list<W: Write>(g: &Graph, writer: W) -> Result<(), GraphError> {
    let header = format!("# {} vertices, {} edges\n", g.n(), g.m());
    write_edge_lines(g, writer, header, b"", 0)
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
    let header = format!("c generated by mce-graph\np edge {} {}\n", g.n(), g.m());
    write_edge_lines(g, writer, header, b"e ", 1)
}

/// Bytes the text writers gather before each write to their sink.
const WRITE_CHUNK: usize = 64 * 1024;

/// Writes `header`, then one `{prefix}{u + base} {v + base}` line per edge
/// `(u, v)`, `u < v`, in [`Graph::edges`] order, and flushes `writer`.
fn write_edge_lines<W: Write>(
    g: &Graph,
    mut writer: W,
    header: String,
    prefix: &[u8],
    base: u64,
) -> Result<(), GraphError> {
    let mut buf = header.into_bytes();
    buf.reserve(WRITE_CHUNK);
    for (u, v) in g.edges() {
        buf.extend_from_slice(prefix);
        push_decimal(&mut buf, u as u64 + base);
        buf.push(b' ');
        push_decimal(&mut buf, v as u64 + base);
        buf.push(b'\n');
        if buf.len() >= WRITE_CHUNK {
            writer.write_all(&buf)?;
            buf.clear();
        }
    }
    writer.write_all(&buf)?;
    writer.flush()?;
    Ok(())
}

/// Appends the decimal digits of `value` to `out`: the bytes that
/// `write!(out, "{value}")` writes, without going through `core::fmt`.
/// The edge-list and DIMACS writers write their ids with this, and so do
/// the text and NDJSON clique lines of `hbbmc`'s `WriterReporter`.
#[inline]
pub fn push_decimal(out: &mut Vec<u8>, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

/// Writes `g` as `format` to `writer`.
pub fn write_graph<W: Write>(g: &Graph, writer: W, format: GraphFormat) -> Result<(), GraphError> {
    match format {
        GraphFormat::EdgeList => write_edge_list(g, writer),
        GraphFormat::Dimacs => write_dimacs(g, writer),
        GraphFormat::Mcg => mcg::write_mcg(g, writer),
    }
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
    fn sniff_bytes_decides_on_the_first_deciding_line() {
        // Bytes after the deciding line are never read, so they need not
        // be UTF-8.
        assert_eq!(
            GraphFormat::sniff_bytes(b"% header\n0 1\n\xff\xfe 2\n"),
            GraphFormat::EdgeList
        );
        assert_eq!(
            GraphFormat::sniff_bytes(b"\r\n\tp edge 3 1\n\xe9\n"),
            GraphFormat::Dimacs
        );
        // Comment lines are skipped whatever their bytes.
        assert_eq!(
            GraphFormat::sniff_bytes(b"# caf\xe9\n// \xff\ne 1 2\n"),
            GraphFormat::Dimacs
        );
    }

    #[test]
    fn push_decimal_writes_what_display_writes() {
        let mut values = vec![0, 1, 9, 10, 99, 100, 4_294_967_295, u64::MAX - 1, u64::MAX];
        values.extend((0..64).map(|shift| 1u64 << shift));
        values.extend((1..20).map(|digits| 10u64.pow(digits) - 1));
        let mut out = b"x".to_vec();
        for v in values {
            out.truncate(1);
            push_decimal(&mut out, v);
            assert_eq!(out, format!("x{v}").into_bytes());
        }
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
