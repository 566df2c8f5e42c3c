//! `mce query` — budgeted, cancellable, anchored enumeration queries.
//!
//! The serving-shaped front end of the unified query engine
//! ([`hbbmc::query`]): one subcommand admits a `QuerySpec × Budget` plan,
//! streams its deterministic result and reports the outcome (`complete` or
//! `truncated (...)`) on `--stats`. Exit code 0 covers truncated runs — a
//! budget stop is a successful, clean prefix, not an error.

use std::io::Write;

use hbbmc::{
    CountReporter, ExecSession, Query, QueryResult, QuerySpec, QueryValue, SolverConfig, VertexId,
};
use mce_graph::Graph;

use crate::args::ParsedArgs;
use crate::enumerate::{parse_budget, print_stats, stream, write_clique, OutputMode};
use crate::error::CliError;
use crate::io::{load_graph, open_sink, FormatArg};

/// Per-command help text.
pub const HELP: &str = "usage: mce query [GRAPH] [options]

Runs one budgeted enumeration query over GRAPH (a file path, or stdin for
'-' / no argument). Streaming output is deterministic: a budget-truncated
run emits an exact prefix of the unbudgeted stream at any --threads.
Exit code 0 covers truncated runs; the outcome (complete /
truncated) is reported by --stats.

query modes (choose at most one; default: stream every maximal clique):
  --anchor V1,V2,...   only the maximal cliques containing every listed
                       vertex (runs on the anchor's common-neighbourhood
                       subgraph — no full enumeration)
  --top K              the K largest maximal cliques, ranked by size with
                       ties broken by stream order; printed one per line
  --count              count maximal cliques (prints 'cliques N')
  --max-clique         one maximum clique via dedicated branch and bound
                       (greedy lower bound, core-number and coloring
                       pruning — no full enumeration); prints the canonical
                       winner: the lexicographically smallest sorted member
                       list among all maximum cliques. With --stats, also
                       reports which bound ended the search; a truncated
                       run prints the best clique found without claiming
                       it is maximum
  --kclique K          stream every clique of exactly K vertices

budget options:
  --limit N            stop after N cliques of the deterministic stream
  --max-steps N        abort after N branch steps across all workers
  --deadline-ms N      abort after N milliseconds of wall-clock time

options:
  --format edge-list|dimacs|mcg|auto  input format (default: auto)
  --preset NAME                    solver preset, e.g. HBBMC++ (default)
  --threads N                      worker threads, 1..=1024 (default: 1;
                                   anchored/kclique queries run sequentially)
  --min-size K                     only report cliques with >= K vertices
                                   (streaming modes; applied after --limit)
  --output text|ndjson|count       streaming output mode (default: text)
  --out FILE                       write to FILE instead of stdout
  --stats                          print run statistics and the outcome to
                                   stderr";

const VALUE_OPTS: &[&str] = &[
    "--anchor",
    "--top",
    "--kclique",
    "--limit",
    "--max-steps",
    "--deadline-ms",
    "--format",
    "--preset",
    "--threads",
    "--min-size",
    "--output",
    "--out",
];
const BOOL_FLAGS: &[&str] = &["--count", "--max-clique", "--stats"];

/// Parses `--anchor 3,17,42` into a vertex list (range-checked later, at
/// session admission).
fn parse_anchor(raw: &str) -> Result<Vec<VertexId>, CliError> {
    let mut vertices = Vec::new();
    for token in raw.split(',') {
        let token = token.trim();
        if token.is_empty() {
            continue;
        }
        let v: VertexId = token
            .parse()
            .map_err(|_| CliError::usage(format!("--anchor: '{token}' is not a vertex id")))?;
        vertices.push(v);
    }
    if vertices.is_empty() {
        return Err(CliError::usage(
            "--anchor requires at least one vertex id (comma-separated)",
        ));
    }
    Ok(vertices)
}

/// Parses `--output`: the sinks of the streaming query modes.
fn parse_stream_mode(raw: Option<&str>) -> Result<OutputMode, CliError> {
    match raw {
        None | Some("text") => Ok(OutputMode::Text),
        Some("ndjson") => Ok(OutputMode::Ndjson),
        Some("count") => Ok(OutputMode::Count),
        Some(other) => Err(CliError::usage(format!(
            "unknown output mode '{other}' (expected text, ndjson or count)"
        ))),
    }
}

/// Builds the [`QuerySpec`] from the mode flags, rejecting combinations.
fn parse_spec(p: &ParsedArgs) -> Result<QuerySpec, CliError> {
    let mut specs: Vec<QuerySpec> = Vec::new();
    if let Some(raw) = p.value("--anchor") {
        specs.push(QuerySpec::Anchored {
            vertices: parse_anchor(raw)?,
        });
    }
    if let Some(raw) = p.value("--top") {
        let k: usize = raw
            .parse()
            .map_err(|_| CliError::usage(format!("--top: '{raw}' is not a number")))?;
        specs.push(QuerySpec::TopKBySize { k });
    }
    if p.flag("--count") {
        specs.push(QuerySpec::Count);
    }
    if p.flag("--max-clique") {
        specs.push(QuerySpec::MaximumClique);
    }
    if let Some(raw) = p.value("--kclique") {
        let k: usize = raw
            .parse()
            .map_err(|_| CliError::usage(format!("--kclique: '{raw}' is not a number")))?;
        if k == 0 {
            return Err(CliError::usage("--kclique requires K >= 1"));
        }
        specs.push(QuerySpec::KClique { k });
    }
    match specs.len() {
        0 => Ok(QuerySpec::Enumerate),
        1 => Ok(specs.pop().expect("one spec")),
        _ => Err(CliError::usage(
            "choose at most one of --anchor, --top, --count, --max-clique, --kclique",
        )),
    }
}

/// Runs the subcommand.
pub fn run(args: &[String]) -> Result<(), CliError> {
    let p = ParsedArgs::parse(args, VALUE_OPTS, BOOL_FLAGS)?;
    p.reject_extra_positionals(1)?;
    let spec = parse_spec(&p)?;
    let config = SolverConfig::preset_by_name(p.value("--preset").unwrap_or("HBBMC++"))?;
    let threads = p.usize_value("--threads", 1, 1, 1024)?;
    let min_size = p.usize_value("--min-size", 1, 1, usize::MAX)?;
    let budget = parse_budget(&p)?;
    let mode = parse_stream_mode(p.value("--output"))?;
    let streaming = spec.streams();
    if p.value("--output").is_some() && !streaming {
        return Err(CliError::usage(
            "--output only applies to streaming queries (default, --anchor, --kclique)",
        ));
    }
    if p.value("--min-size").is_some() && !streaming {
        return Err(CliError::usage(
            "--min-size only applies to streaming queries (default, --anchor, --kclique)",
        ));
    }
    let format = FormatArg::parse(p.value("--format"))?;
    let graph = load_graph(p.positional(0), format)?;
    let mut sink = open_sink(p.value("--out"))?;

    let maximum = spec == QuerySpec::MaximumClique;
    let query = Query {
        spec,
        config,
        threads,
        budget,
    };
    let result = answer(&graph, query, mode, min_size, &mut sink)?;
    sink.flush()?;
    if p.flag("--stats") {
        print_stats(&result);
        if maximum {
            eprintln!("terminated by: {}", result.terminating_bound());
        }
    }
    Ok(())
}

/// Runs `query` over `graph` and writes its answer to `sink`: a streaming
/// spec's cliques of at least `min_size` vertices as `mode`, or a value
/// spec's value. A worker panic is a runtime error.
fn answer(
    graph: &Graph,
    query: Query,
    mode: OutputMode,
    min_size: usize,
    sink: &mut (dyn Write + Send),
) -> Result<QueryResult, CliError> {
    let streaming = query.spec.streams();
    let session = ExecSession::new(graph, query)?;
    if streaming {
        return stream(session, mode, min_size, sink);
    }
    let result = session.try_run(&mut CountReporter::new())?;
    match &result.value {
        QueryValue::TopK(cliques) => {
            for clique in cliques {
                write_clique(sink, clique)?;
            }
        }
        QueryValue::Count(count) => writeln!(sink, "cliques {count}")?,
        QueryValue::Maximum(clique) => write_clique(sink, clique)?,
        QueryValue::Stream => unreachable!("streaming specs are answered above"),
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbbmc::{naive_maximal_cliques, Budget};

    fn diamond() -> Graph {
        Graph::from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3), (2, 3)]).unwrap()
    }

    fn stream_to_string(
        g: &Graph,
        query: Query,
        min_size: usize,
        mode: OutputMode,
    ) -> (String, QueryResult) {
        let mut sink: Vec<u8> = Vec::new();
        let result = answer(g, query, mode, min_size, &mut sink).unwrap();
        (String::from_utf8(sink).unwrap(), result)
    }

    #[test]
    fn anchor_parsing() {
        assert_eq!(parse_anchor("3,1, 2").unwrap(), vec![3, 1, 2]);
        assert_eq!(parse_anchor("7").unwrap(), vec![7]);
        assert!(parse_anchor("").is_err());
        assert!(parse_anchor("a,b").is_err());
    }

    #[test]
    fn spec_parsing_rejects_combined_modes() {
        let p = ParsedArgs::parse(
            &["--anchor".into(), "1".into(), "--count".into()],
            VALUE_OPTS,
            BOOL_FLAGS,
        )
        .unwrap();
        assert!(parse_spec(&p).is_err());
        let p = ParsedArgs::parse(&[], VALUE_OPTS, BOOL_FLAGS).unwrap();
        assert_eq!(parse_spec(&p).unwrap(), QuerySpec::Enumerate);
        let p =
            ParsedArgs::parse(&["--kclique".into(), "0".into()], VALUE_OPTS, BOOL_FLAGS).unwrap();
        assert!(parse_spec(&p).is_err());
    }

    #[test]
    fn max_clique_flag_parses_to_spec() {
        let p = ParsedArgs::parse(&["--max-clique".into()], VALUE_OPTS, BOOL_FLAGS).unwrap();
        assert_eq!(parse_spec(&p).unwrap(), QuerySpec::MaximumClique);
        let p = ParsedArgs::parse(
            &["--max-clique".into(), "--count".into()],
            VALUE_OPTS,
            BOOL_FLAGS,
        )
        .unwrap();
        assert!(parse_spec(&p).is_err());
    }

    #[test]
    fn anchored_stream_lists_only_containing_cliques() {
        let g = diamond();
        let (out, result) = stream_to_string(
            &g,
            Query::new(QuerySpec::Anchored { vertices: vec![1] }),
            1,
            OutputMode::Text,
        );
        assert_eq!(out, "0 1 2\n");
        assert!(!result.outcome.is_truncated());
    }

    #[test]
    fn enumerate_stream_matches_reference() {
        let g = diamond();
        let (out, _) = stream_to_string(&g, Query::new(QuerySpec::Enumerate), 1, OutputMode::Text);
        let mut lines: Vec<&str> = out.lines().collect();
        lines.sort_unstable();
        let expected: Vec<String> = naive_maximal_cliques(&g)
            .iter()
            .map(|c| {
                c.iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect();
        assert_eq!(lines, expected);
    }

    #[test]
    fn count_stream_mode_prints_summary() {
        let g = diamond();
        let (out, _) = stream_to_string(&g, Query::new(QuerySpec::Enumerate), 1, OutputMode::Count);
        assert!(out.starts_with("cliques 2\n"), "{out}");
    }

    #[test]
    fn limit_truncates_the_stream() {
        let g = diamond();
        let query = Query::new(QuerySpec::Enumerate).with_budget(Budget::cliques(1));
        let (out, result) = stream_to_string(&g, query, 1, OutputMode::Text);
        assert_eq!(out.lines().count(), 1);
        assert!(result.outcome.is_truncated());
    }

    #[test]
    fn stream_mode_parsing() {
        assert_eq!(parse_stream_mode(None).unwrap(), OutputMode::Text);
        assert_eq!(
            parse_stream_mode(Some("ndjson")).unwrap(),
            OutputMode::Ndjson
        );
        assert!(parse_stream_mode(Some("histogram")).is_err());
    }

    /// A sink whose every write panics: a fault inside the reporter the
    /// query drives.
    struct PanickingSink;

    impl Write for PanickingSink {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            panic!("injected sink fault")
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn worker_panic_is_a_runtime_error() {
        let g = diamond();
        for threads in [1usize, 2] {
            for spec in [
                QuerySpec::Enumerate,
                QuerySpec::Anchored { vertices: vec![0] },
                QuerySpec::KClique { k: 2 },
            ] {
                let query = Query::new(spec.clone()).with_threads(threads);
                let err = answer(&g, query, OutputMode::Text, 1, &mut PanickingSink).unwrap_err();
                assert_eq!(err.exit_code(), 1, "{spec:?} x{threads}");
                let CliError::Runtime(message) = err else {
                    panic!("{spec:?} x{threads}: expected a runtime error, got {err:?}");
                };
                assert_eq!(
                    message, "enumeration worker panicked: injected sink fault",
                    "{spec:?} x{threads}"
                );
            }
        }
    }
}
