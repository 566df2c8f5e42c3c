//! Round-trip property tests for the text I/O formats.
//!
//! DIMACS declares its vertex count, so `write → read` must reproduce the
//! graph *exactly* (isolated vertices included). The edge-list format carries
//! no vertex universe and relabels in first-seen order, so its round trip is
//! exact up to that documented relabelling: replaying the writer's edge
//! sequence through the same first-seen rule must reproduce the read graph.
//! Comment lines, blank lines and the 1-based DIMACS indexing are fuzzed in.

use std::collections::{BTreeSet, HashMap};
use std::io::{BufRead, BufReader};
use std::mem::Discriminant;

use mce_graph::io::{
    read_dimacs, read_edge_list, read_graph_bytes, read_graph_str, write_dimacs, write_edge_list,
    MAX_DIMACS_VERTICES,
};
use mce_graph::GraphError;
use mce_graph::{Graph, GraphFormat, VertexId};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (1usize..40).prop_flat_map(|n| {
        let max_edges = n * n.saturating_sub(1) / 2;
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_edges.min(160))
            .prop_map(move |edges| Graph::from_edges(n, edges).expect("endpoints in range"))
    })
}

/// Interleaves comment and blank lines into serialized graph text, exercising
/// the reader's skip logic. `style` selects the comment flavour per line.
fn salt_with_comments(text: &str, style: usize) -> String {
    let comments = ["# comment", "% comment", "// comment", ""];
    let mut salted = String::new();
    for (i, line) in text.lines().enumerate() {
        if i % 3 == 0 {
            salted.push_str(comments[(style + i) % comments.len()]);
            salted.push('\n');
        }
        salted.push_str(line);
        salted.push('\n');
    }
    salted
}

/// The edge-list reader's documented relabelling: dense ids in first-seen
/// order over the written edge sequence.
fn first_seen_relabel(g: &Graph) -> (Vec<(VertexId, VertexId)>, usize) {
    let mut map: HashMap<VertexId, VertexId> = HashMap::new();
    let mut edges = Vec::new();
    for (u, v) in g.edges() {
        let next = map.len() as VertexId;
        let iu = *map.entry(u).or_insert(next);
        let next = map.len() as VertexId;
        let iv = *map.entry(v).or_insert(next);
        edges.push((iu, iv));
    }
    (edges, map.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dimacs_round_trip_is_exact(g in arb_graph()) {
        let mut bytes = Vec::new();
        write_dimacs(&g, &mut bytes).unwrap();
        let g2 = read_dimacs(bytes.as_slice()).unwrap();
        prop_assert_eq!(&g, &g2);
    }

    #[test]
    fn dimacs_round_trip_survives_comments_and_blank_lines(g in arb_graph(), style in 0usize..4) {
        let mut bytes = Vec::new();
        write_dimacs(&g, &mut bytes).unwrap();
        // DIMACS comments are 'c' lines; blanks are legal everywhere.
        let mut salted = String::new();
        for (i, line) in String::from_utf8(bytes).unwrap().lines().enumerate() {
            if i % 2 == style % 2 {
                salted.push_str(if style < 2 { "c noise\n" } else { "\n" });
            }
            salted.push_str(line);
            salted.push('\n');
        }
        let g2 = read_dimacs(salted.as_bytes()).unwrap();
        prop_assert_eq!(&g, &g2);
    }

    #[test]
    fn dimacs_indices_on_the_wire_are_one_based(g in arb_graph()) {
        let mut bytes = Vec::new();
        write_dimacs(&g, &mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        for line in text.lines().filter(|l| l.starts_with('e')) {
            let mut it = line.split_whitespace().skip(1);
            let u: usize = it.next().unwrap().parse().unwrap();
            let v: usize = it.next().unwrap().parse().unwrap();
            prop_assert!(u >= 1 && v >= 1, "{line} must be 1-based");
            prop_assert!(u <= g.n() && v <= g.n());
        }
    }

    #[test]
    fn edge_list_round_trip_matches_first_seen_relabelling(g in arb_graph(), style in 0usize..4) {
        let mut bytes = Vec::new();
        write_edge_list(&g, &mut bytes).unwrap();
        let salted = salt_with_comments(&String::from_utf8(bytes).unwrap(), style);
        let g2 = read_edge_list(salted.as_bytes()).unwrap();

        let (edges, seen) = first_seen_relabel(&g);
        let expected = Graph::from_edges(seen, edges).unwrap();
        prop_assert_eq!(&expected, &g2);
        // Invariants that hold regardless of the relabelling.
        prop_assert_eq!(g.m(), g2.m());
        let mut degrees: Vec<usize> = g.vertices().map(|v| g.degree(v)).filter(|&d| d > 0).collect();
        let mut degrees2: Vec<usize> = g2.vertices().map(|v| g2.degree(v)).filter(|&d| d > 0).collect();
        degrees.sort_unstable();
        degrees2.sort_unstable();
        prop_assert_eq!(degrees, degrees2);
    }

    #[test]
    fn sniffing_recovers_the_written_format(g in arb_graph()) {
        let mut dimacs = Vec::new();
        write_dimacs(&g, &mut dimacs).unwrap();
        let dimacs = String::from_utf8(dimacs).unwrap();
        prop_assert_eq!(GraphFormat::sniff(&dimacs), GraphFormat::Dimacs);
        let roundtrip = read_graph_str(&dimacs, GraphFormat::sniff(&dimacs)).unwrap();
        prop_assert_eq!(&g, &roundtrip);

        if g.m() > 0 {
            let mut el = Vec::new();
            write_edge_list(&g, &mut el).unwrap();
            let el = String::from_utf8(el).unwrap();
            prop_assert_eq!(GraphFormat::sniff(&el), GraphFormat::EdgeList);
        }
    }
}

// ----------------------------------------------------------------------
// The byte tokenizer against the line-based loaders it replaced
// ----------------------------------------------------------------------

/// What a loader produced: the vertex count and the sorted edge set.
#[derive(Debug, PartialEq)]
struct Loaded {
    n: usize,
    edges: Vec<(VertexId, VertexId)>,
}

fn loaded(g: &Graph) -> Loaded {
    Loaded {
        n: g.n(),
        edges: g.edges().collect(),
    }
}

/// A load's outcome in comparable form: the graph, or the error's variant
/// and its text (which carries the line and the message).
fn outcome(
    result: Result<Loaded, GraphError>,
) -> Result<Loaded, (Discriminant<GraphError>, String)> {
    result.map_err(|e| (std::mem::discriminant(&e), e.to_string()))
}

/// The id rule of the line-based loaders: `u64::from_str` on the next
/// `split_whitespace` token.
fn model_id(token: Option<&str>, line: usize) -> Result<u64, GraphError> {
    let token = token.ok_or_else(|| GraphError::Parse {
        line,
        message: "missing field".into(),
    })?;
    token.parse::<u64>().map_err(|_| GraphError::Parse {
        line,
        message: format!("'{token}' is not a vertex id"),
    })
}

/// The edge-list loader as it was before the byte tokenizer, kept as the
/// model: `BufRead::lines`, `trim`, `split_whitespace`, `u64::from_str`
/// and first-seen relabelling.
fn model_edge_list(bytes: &[u8]) -> Result<Loaded, GraphError> {
    let mut ids: HashMap<u64, VertexId> = HashMap::new();
    let mut edges = BTreeSet::new();
    for (lineno, line) in BufReader::new(bytes).lines().enumerate() {
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
        let u = model_id(it.next(), lineno + 1)?;
        let v = model_id(it.next(), lineno + 1)?;
        let mut intern = |label: u64| {
            let next = ids.len() as VertexId;
            *ids.entry(label).or_insert(next)
        };
        let (iu, iv) = (intern(u), intern(v));
        if iu != iv {
            edges.insert((iu.min(iv), iu.max(iv)));
        }
    }
    Ok(Loaded {
        n: ids.len(),
        edges: edges.into_iter().collect(),
    })
}

/// The DIMACS loader as it was before the byte tokenizer, kept as the model.
fn model_dimacs(bytes: &[u8]) -> Result<Loaded, GraphError> {
    let mut n: Option<usize> = None;
    let mut edges: Vec<(u64, u64)> = Vec::new();
    for (lineno, line) in BufReader::new(bytes).lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('c') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        match it.next() {
            Some("p") => {
                let _format = it.next();
                let nv = model_id(it.next(), lineno + 1)?;
                if nv > MAX_DIMACS_VERTICES {
                    return Err(GraphError::TooManyVertices {
                        n: nv,
                        limit: MAX_DIMACS_VERTICES,
                    });
                }
                n = Some(nv as usize);
            }
            Some("e") => {
                let u = model_id(it.next(), lineno + 1)?;
                let v = model_id(it.next(), lineno + 1)?;
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
    if let Some(vertex) = edges
        .iter()
        .map(|&(u, v)| u.max(v))
        .find(|&w| w >= n as u64)
    {
        return Err(GraphError::VertexOutOfRange { vertex, n });
    }
    let edges: BTreeSet<(VertexId, VertexId)> = edges
        .into_iter()
        .filter(|&(u, v)| u != v)
        .map(|(u, v)| (u.min(v) as VertexId, u.max(v) as VertexId))
        .collect();
    Ok(Loaded {
        n,
        edges: edges.into_iter().collect(),
    })
}

/// The format sniffer as it was before it read bytes, kept as the model.
fn model_sniff(bytes: &[u8]) -> GraphFormat {
    for line in String::from_utf8_lossy(bytes).lines() {
        let trimmed = line.trim();
        if trimmed.is_empty()
            || trimmed.starts_with('#')
            || trimmed.starts_with('%')
            || trimmed.starts_with("//")
        {
            continue;
        }
        return match trimmed.split_whitespace().next() {
            Some("p") | Some("e") | Some("c") => GraphFormat::Dimacs,
            _ => GraphFormat::EdgeList,
        };
    }
    GraphFormat::EdgeList
}

/// SplitMix64: a seeded source for the random inputs, so that a failing
/// input is named by its seed.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// True with probability `1 / odds`.
    fn one_in(&mut self, odds: u64) -> bool {
        self.below(odds) == 0
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len() as u64) as usize]
    }
}

/// Tokens that are not vertex ids: each is an error where an id is due.
const NOT_IDS: &[&str] = &[
    "a", "-2", "-0", "+", "++1", "+-1", "1a", "0x1", "1.0", "1,2", "/", "/x",
];

/// One or more separators: the ASCII whitespace `char::is_whitespace`
/// accepts, VT and FF included, space most often.
fn push_separator(out: &mut String, rng: &mut SplitMix) {
    for _ in 0..1 + rng.below(2) {
        out.push_str(rng.pick(&[" ", " ", " ", "\t", "\x0B", "\x0C", "\r"]));
    }
}

/// A vertex id as a file may spell it, or rarely a token that is not one.
/// Small labels land in the interner's table; labels above the input's
/// length and near `u64::MAX` land in its map.
fn push_id(out: &mut String, rng: &mut SplitMix, largest: u64) {
    match rng.below(40) {
        0 => out.push_str(rng.pick(NOT_IDS)),
        1 => out.push_str(rng.pick(&["18446744073709551616", "99999999999999999999"])),
        2 | 3 => out.push_str(&(u64::MAX - rng.below(3)).to_string()),
        4..=6 => out.push_str(&(1_000_000 + rng.below(1_000_000_000)).to_string()),
        7..=9 => out.push_str(&format!("+{}", rng.below(largest + 1))),
        10 | 11 => out.push_str(&format!("00{}", rng.below(largest + 1))),
        _ => out.push_str(&rng.below(largest + 1).to_string()),
    }
}

/// Ends a line with `\n` or CRLF; the input's last line may have neither.
fn push_line_end(out: &mut String, rng: &mut SplitMix, last: bool) {
    if last && rng.one_in(3) {
        return;
    }
    out.push_str(if rng.one_in(3) { "\r\n" } else { "\n" });
}

/// Leading or trailing separators, or nothing.
fn maybe_separator(out: &mut String, rng: &mut SplitMix) {
    if rng.one_in(3) {
        push_separator(out, rng);
    }
}

/// Comment text: printable ASCII and separators.
fn push_comment_text(out: &mut String, rng: &mut SplitMix) {
    for _ in 0..rng.below(12) {
        if rng.one_in(5) {
            push_separator(out, rng);
        } else {
            out.push((b'!' + rng.below(94) as u8) as char);
        }
    }
}

/// A random edge list in the grammar's corners: all three comment styles,
/// blank and whitespace-only lines, CRLF, tabs, VT and FF, `+` and leading
/// zeros, extra columns, self-loops and duplicates in both orientations.
fn random_edge_list(rng: &mut SplitMix) -> String {
    let mut out = String::new();
    let lines = rng.below(24);
    let largest = 2 + rng.below(12);
    let mut written: Vec<(String, String)> = Vec::new();
    for i in 0..lines {
        maybe_separator(&mut out, rng);
        match rng.below(40) {
            0..=3 => {
                out.push_str(rng.pick(&["#", "%", "//"]));
                push_comment_text(&mut out, rng);
            }
            4..=6 => {}
            7 => out.push_str(rng.pick(NOT_IDS)),
            8 => push_id(&mut out, rng, largest),
            9..=12 if !written.is_empty() => {
                // A duplicate, in either orientation.
                let (u, v) = written[rng.below(written.len() as u64) as usize].clone();
                let (u, v) = if rng.one_in(2) { (v, u) } else { (u, v) };
                out.push_str(&u);
                push_separator(&mut out, rng);
                out.push_str(&v);
            }
            _ => {
                let start = out.len();
                push_id(&mut out, rng, largest);
                let u = out[start..].to_string();
                push_separator(&mut out, rng);
                let start = out.len();
                if rng.one_in(8) {
                    out.push_str(&u.clone()); // a self-loop
                } else {
                    push_id(&mut out, rng, largest);
                }
                let v = out[start..].to_string();
                if rng.one_in(5) {
                    // Extra columns are ignored, whatever they hold.
                    for _ in 0..1 + rng.below(2) {
                        push_separator(&mut out, rng);
                        if rng.one_in(3) {
                            out.push_str(rng.pick(NOT_IDS));
                        } else {
                            push_id(&mut out, rng, largest);
                        }
                    }
                }
                written.push((u, v));
            }
        }
        maybe_separator(&mut out, rng);
        push_line_end(&mut out, rng, i + 1 == lines);
    }
    out
}

/// A random DIMACS file: `c` comments (also words that start with `c`),
/// blank lines, headers before, after, twice or never, 0-based and
/// out-of-range ids, unknown records, and the same separators and line
/// ends as [`random_edge_list`].
fn random_dimacs(rng: &mut SplitMix) -> String {
    let mut out = String::new();
    let lines = rng.below(20);
    let n = 1 + rng.below(14);
    let header_at = if rng.one_in(12) {
        u64::MAX
    } else {
        rng.below(3)
    };
    for i in 0..lines {
        maybe_separator(&mut out, rng);
        if i == header_at || rng.one_in(40) {
            out.push('p');
            push_separator(&mut out, rng);
            out.push_str(rng.pick(&["edge", "col", "edges"]));
            push_separator(&mut out, rng);
            match rng.below(30) {
                0 => out.push_str(&(MAX_DIMACS_VERTICES + 1 + rng.below(9)).to_string()),
                1 => out.push_str(rng.pick(NOT_IDS)),
                2 => out.push_str(&format!("+{n}")),
                _ => out.push_str(&n.to_string()),
            }
            if !rng.one_in(10) {
                push_separator(&mut out, rng);
                out.push_str(&rng.below(30).to_string());
            }
        } else {
            match rng.below(16) {
                0 | 1 => {
                    out.push_str(rng.pick(&["c", "c", "cat", "col"]));
                    push_comment_text(&mut out, rng);
                }
                2 => {}
                3 if rng.one_in(3) => out.push_str(rng.pick(&["q 1 2", "# x", "E 1 2", "1 2"])),
                _ => {
                    out.push('e');
                    for _ in 0..2 {
                        push_separator(&mut out, rng);
                        match rng.below(90) {
                            0 => out.push('0'),
                            1 => out.push_str(&(n + 1 + rng.below(3)).to_string()),
                            2 => out.push_str(rng.pick(NOT_IDS)),
                            3 => out.push_str(&format!("+{}", 1 + rng.below(n.max(1)))),
                            _ => out.push_str(&(1 + rng.below(n.max(1))).to_string()),
                        }
                    }
                    if rng.one_in(6) {
                        push_separator(&mut out, rng);
                        out.push_str(rng.pick(&["1", "w", "-1"]));
                    }
                }
            }
        }
        maybe_separator(&mut out, rng);
        push_line_end(&mut out, rng, i + 1 == lines);
    }
    out
}

/// Checks every loader entry point on `input` against `model`, and the
/// sniffer against its model.
fn check_against_model(
    input: &str,
    model: fn(&[u8]) -> Result<Loaded, GraphError>,
    format: GraphFormat,
) -> bool {
    let bytes = input.as_bytes();
    let want = outcome(model(bytes));
    let from_reader = match format {
        GraphFormat::Dimacs => read_dimacs(bytes),
        _ => read_edge_list(bytes),
    };
    assert_eq!(outcome(from_reader.map(|g| loaded(&g))), want, "{input:?}");
    let in_place = read_graph_bytes(bytes, format);
    assert_eq!(outcome(in_place.map(|g| loaded(&g))), want, "{input:?}");
    assert_eq!(
        GraphFormat::sniff_bytes(bytes),
        model_sniff(bytes),
        "{input:?}"
    );
    want.is_ok()
}

#[test]
fn edge_list_tokenizer_matches_the_line_model() {
    let mut loads = 0;
    for seed in 0..4_000u64 {
        let input = random_edge_list(&mut SplitMix(seed));
        loads += usize::from(check_against_model(
            &input,
            model_edge_list,
            GraphFormat::EdgeList,
        ));
    }
    // Both outcomes are well represented.
    assert!((1_000..3_000).contains(&loads), "{loads} of 4000 loaded");
}

#[test]
fn dimacs_tokenizer_matches_the_line_model() {
    let mut loads = 0;
    for seed in 0..4_000u64 {
        let input = random_dimacs(&mut SplitMix(seed));
        loads += usize::from(check_against_model(
            &input,
            model_dimacs,
            GraphFormat::Dimacs,
        ));
    }
    assert!((1_000..3_000).contains(&loads), "{loads} of 4000 loaded");
}

/// The parse error `text` gives, as (line, message).
fn parse_error(text: &[u8]) -> (usize, String) {
    match read_edge_list(text) {
        Err(GraphError::Parse { line, message }) => (line, message),
        other => panic!("{text:?}: expected a parse error, got {other:?}"),
    }
}

#[test]
fn edge_list_errors_name_the_line_and_the_token() {
    for (text, line, message) in [
        ("a b\n", 1, "'a' is not a vertex id"),
        ("1 -2\n", 1, "'-2' is not a vertex id"),
        ("1\n", 1, "missing field"),
        ("1 \t\r\n", 1, "missing field"),
        ("0 1\n\n# c\n5\n", 4, "missing field"),
        ("+ 1\n", 1, "'+' is not a vertex id"),
        ("1 2x\n", 1, "'2x' is not a vertex id"),
        (
            "18446744073709551616 1\n",
            1,
            "'18446744073709551616' is not a vertex id",
        ),
        (
            "1 184467440737095516150\n",
            1,
            "'184467440737095516150' is not a vertex id",
        ),
    ] {
        assert_eq!(
            parse_error(text.as_bytes()),
            (line, message.to_string()),
            "{text:?}"
        );
        assert_eq!(
            outcome(model_edge_list(text.as_bytes())),
            outcome(read_edge_list(text.as_bytes()).map(|g| loaded(&g))),
            "{text:?}"
        );
    }
    // The largest id still loads, through the interner's map.
    let g = read_edge_list("18446744073709551615 +0\n".as_bytes()).unwrap();
    assert_eq!((g.n(), g.m()), (2, 1));
}

#[test]
fn non_ascii_whitespace_no_longer_separates_ids() {
    // `split_whitespace` split at U+00A0; the byte tokenizer separates
    // only at ASCII whitespace, so the line is one token that is no id.
    for text in ["0 1\n1\u{a0}2\n", "0 1\n1 2\u{a0}\n", "0 1\n\u{2003}1 2\n"] {
        assert!(model_edge_list(text.as_bytes()).is_ok(), "{text:?}");
        let (line, message) = parse_error(text.as_bytes());
        assert_eq!(line, 2, "{text:?}");
        assert!(message.ends_with("is not a vertex id"), "{message}");
    }
}

#[test]
fn invalid_utf8_fails_only_outside_comment_lines() {
    // A comment line is skipped without reading its bytes.
    for bytes in [
        &b"# caf\xe9\n0 1\n"[..],
        b"% \xff\xfe\n0 1\n",
        b"0 1\n// \xc3",
    ] {
        assert!(
            matches!(model_edge_list(bytes), Err(GraphError::Io(_))),
            "{bytes:?}"
        );
        assert_eq!(read_edge_list(bytes).unwrap().m(), 1, "{bytes:?}");
    }
    let dimacs = b"c \xe9t\xe9\np edge 2 1\ne 1 2\n";
    assert!(matches!(model_dimacs(dimacs), Err(GraphError::Io(_))));
    assert_eq!(read_dimacs(&dimacs[..]).unwrap().m(), 1);
    // Any other line must still be UTF-8: it is the I/O error it was,
    // also where the line holds a parse error or ids that parse.
    for bytes in [
        &b"0 1\n1 2 \xff\n"[..],
        b"0 1\n1 \xff\n",
        b"0 1\n\xc3 1\n",
        b"p edge 2 1\ne 1 2 \xe9\n",
    ] {
        let (model, read) = if bytes[0] == b'p' {
            (model_dimacs(bytes), read_dimacs(bytes))
        } else {
            (model_edge_list(bytes), read_edge_list(bytes))
        };
        let model = model.unwrap_err().to_string();
        match read {
            Err(err @ GraphError::Io(_)) => assert_eq!(err.to_string(), model),
            other => panic!("{bytes:?}: expected an I/O error, got {other:?}"),
        }
    }
}
