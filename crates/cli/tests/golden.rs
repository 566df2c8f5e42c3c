//! The golden-corpus determinism gate.
//!
//! Replays `mce enumerate` and `mce query` over every checked-in corpus
//! graph at 1/2/4 threads (donated sub-branches must resequence exactly) and
//! asserts the output is byte-identical to the committed golden file — "same
//! cliques regardless of parallelism" as an executable contract rather than
//! a test-only property. Regenerate the goldens with
//! `crates/cli/tests/corpus/regen.sh` after an intentional format change.

use std::path::{Path, PathBuf};
use std::process::Command;

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn mce() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mce"))
}

/// Runs `mce COMMAND` (`enumerate` or `query`) on a corpus graph and
/// returns stdout bytes; `output: None` leaves the command's default mode.
fn run_on(
    command: &str,
    graph: &str,
    output: Option<&str>,
    preset: Option<&str>,
    threads: usize,
) -> Vec<u8> {
    let mut cmd = mce();
    cmd.arg(command)
        .arg(corpus_dir().join(graph))
        .args(["--threads", &threads.to_string()]);
    if let Some(output) = output {
        cmd.args(["--output", output]);
    }
    if let Some(p) = preset {
        cmd.args(["--preset", p]);
    }
    let out = cmd.output().expect("spawning mce");
    assert!(
        out.status.success(),
        "mce {command} {graph} --output {output:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// The replay matrix of one golden file through `mce COMMAND`.
fn replay_command(
    command: &str,
    graph: &str,
    output: Option<&str>,
    preset: Option<&str>,
    golden: &str,
) {
    let expected = std::fs::read(corpus_dir().join(golden))
        .unwrap_or_else(|e| panic!("reading {golden}: {e}"));
    assert!(!expected.is_empty(), "{golden} must not be empty");
    for threads in [1usize, 2, 4] {
        let got = run_on(command, graph, output, preset, threads);
        assert_eq!(
            got, expected,
            "mce {command} {graph} --output {output:?} (preset {preset:?}) differs from \
             {golden} at {threads} threads"
        );
    }
}

/// The replay matrix of one golden file through `mce enumerate`.
fn replay(graph: &str, output: &str, preset: Option<&str>, golden: &str) {
    replay_command("enumerate", graph, Some(output), preset, golden);
}

/// Every corpus golden of one `mce enumerate` output mode, as
/// `(graph, preset, golden)`: `STEM[.rdegen].MODE.golden` was generated from
/// `STEM.txt` (or `STEM.col`), under the RDegen preset for `.rdegen`.
fn goldens_of(mode: &str) -> Vec<(String, Option<&'static str>, String)> {
    let suffix = format!(".{mode}.golden");
    let mut found = Vec::new();
    for entry in std::fs::read_dir(corpus_dir()).expect("listing the corpus") {
        let golden = entry.unwrap().file_name().into_string().unwrap();
        let Some(stem) = golden.strip_suffix(&suffix) else {
            continue;
        };
        let (stem, preset) = match stem.strip_suffix(".rdegen") {
            Some(stem) => (stem, Some("RDegen")),
            None => (stem, None),
        };
        let text = format!("{stem}.txt");
        let graph = if corpus_dir().join(&text).exists() {
            text
        } else {
            format!("{stem}.col")
        };
        found.push((graph, preset, golden));
    }
    found.sort();
    assert!(!found.is_empty(), "no *{suffix} in the corpus");
    found
}

#[test]
fn text_outputs_match_goldens_across_threads() {
    for stem in [
        "planted-60",
        "er-sparse-48",
        "moon-moser-12",
        "ba-40",
        "turan-30",
        "plex-28",
    ] {
        let graph = if stem == "turan-30" {
            format!("{stem}.col")
        } else {
            format!("{stem}.txt")
        };
        replay(&graph, "text", None, &format!("{stem}.text.golden"));
    }
}

#[test]
fn count_outputs_match_goldens_across_threads() {
    for stem in [
        "planted-60",
        "er-sparse-48",
        "moon-moser-12",
        "ba-40",
        "turan-30",
        "plex-28",
    ] {
        let graph = if stem == "turan-30" {
            format!("{stem}.col")
        } else {
            format!("{stem}.txt")
        };
        replay(&graph, "count", None, &format!("{stem}.count.golden"));
    }
}

#[test]
fn remaining_sinks_match_goldens() {
    replay("planted-60.txt", "ndjson", None, "planted-60.ndjson.golden");
    replay(
        "planted-60.txt",
        "histogram",
        None,
        "planted-60.histogram.golden",
    );
    replay("moon-moser-12.txt", "max", None, "moon-moser-12.max.golden");
}

#[test]
fn vertex_oriented_preset_matches_golden() {
    replay(
        "planted-60.txt",
        "text",
        Some("RDegen"),
        "planted-60.rdegen.text.golden",
    );
}

/// Runs an arbitrary `mce` invocation on a corpus graph and returns stdout.
fn run_mce(args: &[&str]) -> Vec<u8> {
    let out = mce().args(args).output().expect("spawning mce");
    assert!(
        out.status.success(),
        "mce {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// `mce query`'s default stream is `mce enumerate`'s: replayed in full
/// against every text and count golden, and the ndjson one.
#[test]
fn query_stream_matches_the_enumerate_goldens_across_threads() {
    for (graph, preset, golden) in goldens_of("text") {
        replay_command("query", &graph, None, preset, &golden);
    }
    for (graph, preset, golden) in goldens_of("count") {
        replay_command("query", &graph, Some("count"), preset, &golden);
    }
    replay_command(
        "query",
        "planted-60.txt",
        Some("ndjson"),
        None,
        "planted-60.ndjson.golden",
    );
}

#[test]
fn query_anchored_golden_matches_across_threads() {
    let graph = corpus_dir().join("planted-60.txt");
    let graph = graph.to_str().unwrap();
    let expected = std::fs::read(corpus_dir().join("planted-60.anchor27.golden")).unwrap();
    assert!(!expected.is_empty());
    for threads in [1usize, 2, 4] {
        let got = run_mce(&[
            "query",
            graph,
            "--anchor",
            "27",
            "--output",
            "text",
            "--threads",
            &threads.to_string(),
        ]);
        assert_eq!(got, expected, "anchored query differs at {threads} threads");
    }
}

#[test]
fn query_top_k_golden_matches_across_threads() {
    let graph = corpus_dir().join("planted-60.txt");
    let graph = graph.to_str().unwrap();
    let expected = std::fs::read(corpus_dir().join("planted-60.top3.golden")).unwrap();
    assert_eq!(expected.iter().filter(|&&b| b == b'\n').count(), 3);
    for threads in [1usize, 2, 4] {
        let got = run_mce(&[
            "query",
            graph,
            "--top",
            "3",
            "--threads",
            &threads.to_string(),
        ]);
        assert_eq!(got, expected, "top-3 query differs at {threads} threads");
    }
}

#[test]
fn query_max_clique_goldens_match_across_threads() {
    // The branch-and-bound search is sequential, but the winner is part of
    // the determinism contract: the canonical (lex-smallest sorted) maximum
    // clique must come back byte-identical at every thread count, on a
    // dense text graph and on a binary .mcg one — and on
    // moon-moser-12 it must equal the enumeration-riding `--output max`
    // golden, which ranks ties by the same canonical rule.
    for (graph, golden) in [
        ("planted-60.txt", "planted-60.maxclique.golden"),
        ("er-sparse-48.mcg", "er-sparse-48.maxclique.golden"),
        ("moon-moser-12.txt", "moon-moser-12.max.golden"),
    ] {
        let path = corpus_dir().join(graph);
        let expected = std::fs::read(corpus_dir().join(golden))
            .unwrap_or_else(|e| panic!("reading {golden}: {e}"));
        assert!(!expected.is_empty(), "{golden} must not be empty");
        for threads in [1usize, 2, 4] {
            let got = run_mce(&[
                "query",
                path.to_str().unwrap(),
                "--max-clique",
                "--threads",
                &threads.to_string(),
            ]);
            assert_eq!(
                got, expected,
                "{graph} --max-clique differs from {golden} at {threads} threads"
            );
        }
    }
}

#[test]
fn query_count_matches_the_count_golden() {
    let graph = corpus_dir().join("planted-60.txt");
    let count_golden =
        std::fs::read_to_string(corpus_dir().join("planted-60.count.golden")).unwrap();
    let expected_count = count_golden
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cliques "))
        .expect("count golden starts with 'cliques N'");
    let got = run_mce(&["query", graph.to_str().unwrap(), "--count"]);
    assert_eq!(
        String::from_utf8(got).unwrap(),
        format!("cliques {expected_count}\n")
    );
}

/// The golden-corpus prefix gate: `--limit N` must emit exactly the first N
/// lines of the committed full text golden, at 1/2/4 threads, for both
/// `enumerate` and `query`.
#[test]
fn limit_emits_the_exact_golden_prefix_across_threads() {
    let graph = corpus_dir().join("planted-60.txt");
    let graph = graph.to_str().unwrap();
    let full = std::fs::read_to_string(corpus_dir().join("planted-60.text.golden")).unwrap();
    let prefix: String = full.lines().take(10).map(|l| format!("{l}\n")).collect();
    assert_eq!(prefix.lines().count(), 10, "corpus graph has > 10 cliques");
    for threads in [1usize, 2, 4] {
        let threads_s = threads.to_string();
        let enumerate_args = [
            "enumerate",
            graph,
            "--output",
            "text",
            "--limit",
            "10",
            "--threads",
            &threads_s,
        ];
        let query_args = ["query", graph, "--limit", "10", "--threads", &threads_s];
        for args in [&enumerate_args[..], &query_args[..]] {
            let got = run_mce(args);
            assert_eq!(
                String::from_utf8(got).unwrap(),
                prefix,
                "{args:?}: --limit 10 must be the exact 10-line golden prefix"
            );
        }
    }
}

#[test]
fn golden_text_outputs_pass_mce_verify() {
    for (graph, golden) in [
        ("planted-60.txt", "planted-60.text.golden"),
        ("moon-moser-12.txt", "moon-moser-12.text.golden"),
        ("ba-40.txt", "ba-40.text.golden"),
    ] {
        let out = mce()
            .arg("verify")
            .arg(corpus_dir().join(graph))
            .arg(corpus_dir().join(golden))
            .output()
            .expect("spawning mce");
        assert!(
            out.status.success(),
            "verify {graph} against {golden}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("OK:"));
    }
}

#[test]
fn corpus_graphs_regenerate_from_their_presets() {
    // The graphs themselves are deterministic gen outputs; pin the exact
    // (preset, n, seed) triples so regen.sh and the checked-in files agree.
    for (args, file) in [
        (
            vec!["planted", "--n", "60", "--seed", "5"],
            "planted-60.txt",
        ),
        (
            vec!["er-sparse", "--n", "48", "--seed", "11"],
            "er-sparse-48.txt",
        ),
        (vec!["moon-moser", "--n", "12"], "moon-moser-12.txt"),
        (vec!["ba", "--n", "40", "--seed", "3"], "ba-40.txt"),
        (vec!["plex", "--n", "28", "--seed", "27"], "plex-28.txt"),
        (
            vec!["turan", "--n", "30", "--format", "dimacs"],
            "turan-30.col",
        ),
    ] {
        let out = mce().arg("gen").args(&args).output().expect("spawning mce");
        assert!(out.status.success());
        let expected = std::fs::read(corpus_dir().join(file)).unwrap();
        assert_eq!(out.stdout, expected, "{file} drifted from its generator");
    }
}

#[test]
fn mcg_corpus_goldens_replay_byte_for_byte() {
    // The .mcg encoding is canonical (docs/FORMAT.md): converting the same
    // source graph must reproduce the committed binary exactly, and the
    // binary graph must enumerate to the same golden as its text source.
    for (source, mcg, text_golden) in [
        (
            "er-sparse-48.txt",
            "er-sparse-48.mcg",
            "er-sparse-48.text.golden",
        ),
        ("turan-30.col", "turan-30.mcg", "turan-30.text.golden"),
    ] {
        let src = corpus_dir().join(source);
        let converted = run_mce(&["convert", src.to_str().unwrap(), "--to", "mcg"]);
        let expected =
            std::fs::read(corpus_dir().join(mcg)).unwrap_or_else(|e| panic!("reading {mcg}: {e}"));
        assert_eq!(
            converted, expected,
            "{mcg} drifted from `mce convert {source}`"
        );
        replay(mcg, "text", None, text_golden);
    }
}
