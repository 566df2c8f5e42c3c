//! Inputs and reference answers for the end-to-end benchmark run.
//!
//! ```text
//! perfbench-oracle gen-er N M SEED OUT          G(n, m) edge list from mce_gen::erdos_renyi
//! perfbench-oracle reference GRAPH.mcg OUT|-    RDegen answer: sorted clique lines to OUT,
//!                                               a JSON summary on stdout
//! perfbench-oracle anchors GRAPH.mcg SEED COUNT anchored-query pool, one anchor per line
//! perfbench-oracle check-serve GRAPH.mcg FILE   recompute served answers in process
//! ```
//!
//! Only long-standing public entry points are used here (`.mcg` I/O,
//! `enumerate`, `run_query`), so the end-to-end run keeps building while
//! the layer APIs that `perfbench-layers` probes change.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::process::ExitCode;

use hbbmc::{
    run_query, CollectReporter, CountReporter, Query, QuerySpec, QueryValue, SolverConfig, VertexId,
};
use mce_graph::Graph;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let words: Vec<&str> = args.iter().map(String::as_str).collect();
    let result = match words.as_slice() {
        ["gen-er", n, m, seed, out] => gen_er(n, m, seed, out),
        ["reference", graph, out] => reference(graph, out),
        ["anchors", graph, seed, count] => anchors(graph, seed, count),
        ["check-serve", graph, file] => check_serve(graph, file),
        _ => Err("usage: perfbench-oracle gen-er|reference|anchors|check-serve ...".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench-oracle: {message}");
            ExitCode::FAILURE
        }
    }
}

fn number<T: std::str::FromStr>(raw: &str) -> Result<T, String> {
    raw.parse().map_err(|_| format!("'{raw}' is not a number"))
}

fn load(path: &str) -> Result<Graph, String> {
    mce_graph::mcg::read_mcg_file(path).map_err(|e| format!("reading {path}: {e}"))
}

fn gen_er(n: &str, m: &str, seed: &str, out: &str) -> Result<(), String> {
    let g = mce_gen::erdos_renyi(number(n)?, number(m)?, number(seed)?);
    mce_graph::io::write_edge_list_file(&g, out).map_err(|e| format!("writing {out}: {e}"))
}

/// The text line `mce enumerate --output text` prints for a sorted clique.
fn text_line(clique: &[VertexId]) -> String {
    let members: Vec<String> = clique.iter().map(u32::to_string).collect();
    members.join(" ")
}

/// Solves the graph with RDegen, a different preset from the one the CLI
/// runs. Writes the clique lines in byte order (so any output with the same
/// set of lines sorts to the same bytes) and prints the `--output count`
/// summary the CLI must match.
fn reference(graph: &str, out: &str) -> Result<(), String> {
    let g = load(graph)?;
    let mut collect = CollectReporter::new();
    hbbmc::enumerate(&g, &SolverConfig::r_degen(), &mut collect);
    let mut count = CountReporter::new();
    for clique in &collect.cliques {
        hbbmc::CliqueReporter::report(&mut count, clique);
    }
    if out != "-" {
        let mut lines: Vec<String> = collect.cliques.iter().map(|c| text_line(c)).collect();
        lines.sort_unstable();
        let mut w = BufWriter::new(File::create(out).map_err(|e| format!("{out}: {e}"))?);
        for line in &lines {
            writeln!(w, "{line}").map_err(|e| format!("{out}: {e}"))?;
        }
        w.flush().map_err(|e| format!("{out}: {e}"))?;
    }
    println!(
        "{{\"n\":{},\"m\":{},\"cliques\":{},\"count_summary\":\
         \"cliques {}\\nmax_size {}\\navg_size {:.4}\\n\"}}",
        g.n(),
        g.m(),
        count.count,
        count.count,
        count.max_size,
        count.average_size(),
    );
    Ok(())
}

/// SplitMix64: a tiny seeded generator, so the anchor pool depends on
/// nothing but the seed and the graph.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// Alternates a uniform random vertex and both endpoints of a uniform random
/// edge. Ids are the loaded graph's own, which is what the server sees: the
/// edge-list reader relabels vertices, so ids cannot come from the text file.
fn anchors(graph: &str, seed: &str, count: &str) -> Result<(), String> {
    let g = load(graph)?;
    let mut rng = SplitMix64(number(seed)?);
    let count: usize = number(count)?;
    let (offsets, adjacency) = (g.csr_offsets(), g.csr_adjacency());
    if g.n() == 0 {
        return Err("graph has no vertices".into());
    }
    let mut out = BufWriter::new(std::io::stdout().lock());
    for i in 0..count {
        let line = if i % 2 == 1 && !adjacency.is_empty() {
            let slot = rng.below(adjacency.len());
            let u = offsets.partition_point(|&o| o <= slot) - 1;
            format!("{u} {}", adjacency[slot])
        } else {
            rng.below(g.n()).to_string()
        };
        writeln!(out, "{line}").map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())
}

/// The answer `mce serve` must give for one request header (`anchored V..`,
/// `top K` or `maximum`), from the same spec run in process with the
/// server's default preset and one thread.
fn expected(g: &Graph, header: &str) -> Result<Vec<Vec<VertexId>>, String> {
    let words: Vec<&str> = header.split_whitespace().collect();
    let spec = match words.as_slice() {
        ["anchored", rest @ ..] => QuerySpec::Anchored {
            vertices: rest.iter().map(|v| number(v)).collect::<Result<_, _>>()?,
        },
        ["top", k] => QuerySpec::TopKBySize { k: number(k)? },
        ["maximum"] => QuerySpec::MaximumClique,
        _ => return Err(format!("unknown request '{header}'")),
    };
    let mut collect = CollectReporter::new();
    let result = run_query(g, Query::new(spec), &mut collect).map_err(|e| e.to_string())?;
    Ok(match result.value {
        QueryValue::TopK(cliques) => cliques,
        QueryValue::Maximum(clique) if clique.is_empty() => Vec::new(),
        QueryValue::Maximum(clique) => vec![clique],
        // Anchored results are compared as sets.
        _ => collect.into_sorted(),
    })
}

/// Reads blocks of `> HEADER` followed by the served clique lines (members
/// space-separated, in the order served) and compares each block with the
/// in-process answer: anchored results as sets, `top` and `maximum`
/// exactly. Prints the number of blocks checked and the indices of those
/// that differ.
fn check_serve(graph: &str, file: &str) -> Result<(), String> {
    let g = load(graph)?;
    let reader = BufReader::new(File::open(file).map_err(|e| format!("{file}: {e}"))?);
    let mut blocks: Vec<(String, Vec<Vec<VertexId>>)> = Vec::new();
    for line in reader.lines() {
        let line = line.map_err(|e| format!("{file}: {e}"))?;
        if let Some(header) = line.strip_prefix("> ") {
            blocks.push((header.to_string(), Vec::new()));
        } else if let Some((_, cliques)) = blocks.last_mut() {
            let clique = line
                .split_whitespace()
                .map(number)
                .collect::<Result<_, _>>()?;
            cliques.push(clique);
        } else {
            return Err(format!("{file}: clique line before any header"));
        }
    }
    let checked = blocks.len();
    let mut cache: HashMap<String, Vec<Vec<VertexId>>> = HashMap::new();
    let mut mismatched = Vec::new();
    for (i, (header, mut served)) in blocks.into_iter().enumerate() {
        if !cache.contains_key(&header) {
            let answer = expected(&g, &header)?;
            cache.insert(header.clone(), answer);
        }
        if header.starts_with("anchored") {
            served.sort_unstable();
        }
        if cache[&header] != served {
            mismatched.push(i.to_string());
        }
    }
    println!(
        "{{\"checked\":{checked},\"mismatched\":[{}]}}",
        mismatched.join(",")
    );
    Ok(())
}
