//! Golden wire corpus for `mce serve`: replays a checked-in request script
//! against an in-process server and compares the full response byte stream
//! against a checked-in golden, at every server thread count. The serve
//! determinism contract — truncated responses are exact byte-prefixes of
//! complete ones, frames carry no scheduling-dependent fields — makes one
//! golden file cover every thread count.
//!
//! On mismatch, set `SERVE_REPLAY_DIR` to a directory to get the actual
//! bytes written there (CI uploads them as an artifact). Regenerate the
//! golden with:
//!
//! ```text
//! cargo test -p mce-cli --test serve_golden -- --ignored regen
//! ```

use std::path::{Path, PathBuf};

use mce_cli::serve::testkit::TestServer;
use mce_cli::serve::ServeConfig;

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn serve_corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/serve_corpus")
}

/// The request lines, with `$CORPUS` expanded.
fn requests() -> Vec<String> {
    let corpus = corpus_dir();
    let corpus = corpus.to_str().expect("corpus path is valid UTF-8");
    let script = std::fs::read_to_string(serve_corpus_dir().join("requests.txt"))
        .expect("read serve_corpus/requests.txt");
    script
        .lines()
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| line.replace("$CORPUS", corpus))
        .collect()
}

/// Replays the corpus against a fresh server and returns the concatenated
/// response frames (one per line, trailing newline).
fn replay(default_threads: usize) -> String {
    let server = TestServer::start(ServeConfig {
        default_threads,
        ..ServeConfig::default()
    })
    .expect("start server");
    let mut client = server.connect().expect("connect");
    let mut out = String::new();
    for request in requests() {
        for frame in client.roundtrip(&request).expect("roundtrip") {
            out.push_str(&frame);
            out.push('\n');
        }
    }
    out
}

#[test]
fn corpus_is_byte_identical_across_threads() {
    let golden_path = serve_corpus_dir().join("responses.golden");
    let golden = std::fs::read_to_string(&golden_path).expect(
        "read serve_corpus/responses.golden (regenerate with \
         `cargo test -p mce-cli --test serve_golden -- --ignored regen`)",
    );
    for threads in [1usize, 2, 4] {
        let actual = replay(threads);
        if actual != golden {
            if let Ok(dir) = std::env::var("SERVE_REPLAY_DIR") {
                let dir = PathBuf::from(dir);
                std::fs::create_dir_all(&dir).ok();
                let name = format!("responses.actual.t{threads}.txt");
                std::fs::write(dir.join(name), &actual).ok();
            }
            // Locate the first differing line for a readable failure.
            let mismatch = golden
                .lines()
                .zip(actual.lines())
                .enumerate()
                .find(|(_, (g, a))| g != a);
            panic!(
                "serve golden mismatch at {threads} threads: \
                 first differing line {:?} (golden {:?} vs actual {:?}); \
                 golden {} lines, actual {} lines",
                mismatch.map(|(i, _)| i + 1),
                mismatch.map(|(_, (g, _))| g),
                mismatch.map(|(_, (_, a))| a),
                golden.lines().count(),
                actual.lines().count(),
            );
        }
    }
}

/// `cargo test -p mce-cli --test serve_golden -- --ignored regen`
#[test]
#[ignore = "regenerates the golden file"]
fn regen() {
    let actual = replay(1);
    std::fs::write(serve_corpus_dir().join("responses.golden"), actual).expect("write golden");
}
