//! Error-path contract of the `mce` binary: every reachable bad-input path
//! exits non-zero with a one-line stderr message — never a panic.

use std::process::Command;

fn mce(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_mce"))
        .args(args)
        .output()
        .expect("spawning mce")
}

/// Asserts exit code, a non-empty single-line stderr, and no panic traceback.
fn assert_clean_failure(args: &[&str], expected_code: i32) {
    let out = mce(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(expected_code),
        "{args:?}: stderr = {stderr}"
    );
    assert!(!stderr.trim().is_empty(), "{args:?} must explain itself");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert!(
        stderr.starts_with("mce: "),
        "{args:?} stderr must be prefixed: {stderr}"
    );
}

#[test]
fn no_arguments_is_usage() {
    assert_clean_failure(&[], 2);
}

#[test]
fn unknown_command_is_usage() {
    assert_clean_failure(&["launch-missiles"], 2);
}

#[test]
fn unknown_option_is_usage() {
    assert_clean_failure(&["enumerate", "--warp", "9"], 2);
    // The removed word-kernel backend switch and the removed no-op scheduler
    // option are rejected like any other unknown option.
    for (args, option) in [
        (
            &["enumerate", "--kernel", "scalar", "/dev/null"][..],
            "--kernel",
        ),
        (&["query", "--kernel", "scalar", "/dev/null"], "--kernel"),
        (&["serve", "--kernel", "scalar"], "--kernel"),
        (
            &["enumerate", "--scheduler", "dynamic", "/dev/null"],
            "--scheduler",
        ),
        (
            &["query", "--scheduler", "static", "/dev/null"],
            "--scheduler",
        ),
        (&["serve", "--scheduler", "splitting"], "--scheduler"),
    ] {
        let out = mce(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("mce: unknown option '{option}'\n"),
            "{args:?}"
        );
    }
}

#[test]
fn missing_file_is_runtime() {
    assert_clean_failure(&["enumerate", "/no/such/graph.txt"], 1);
    assert_clean_failure(&["stats", "/no/such/graph.txt"], 1);
}

#[test]
fn malformed_graph_is_runtime() {
    let dir = std::env::temp_dir().join("mce_cli_errors_test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.txt");
    std::fs::write(&bad, "0 frog\n").unwrap();
    assert_clean_failure(&["enumerate", bad.to_str().unwrap()], 1);
    let bad_dimacs = dir.join("bad.col");
    std::fs::write(&bad_dimacs, "p edge 2 1\ne 0 1\n").unwrap();
    assert_clean_failure(&["enumerate", bad_dimacs.to_str().unwrap()], 1);
    std::fs::remove_file(&bad).ok();
    std::fs::remove_file(&bad_dimacs).ok();
}

#[test]
fn oversized_dimacs_header_is_a_typed_error() {
    let dir = std::env::temp_dir().join("mce_cli_errors_test");
    std::fs::create_dir_all(&dir).unwrap();
    // 26 bytes that once made `mce` abort while allocating for 3e9 vertices.
    for n in ["3000000000", "5000000000"] {
        let path = dir.join(format!("huge-{n}.col"));
        std::fs::write(&path, format!("p edge {n} 1\ne 1 2\n")).unwrap();
        let args = ["enumerate", path.to_str().unwrap(), "--format", "dimacs"];
        assert_clean_failure(&args, 1);
        let stderr = String::from_utf8_lossy(&mce(&args).stderr).into_owned();
        assert!(stderr.contains(n), "message must name n: {stderr}");
        assert!(
            stderr.contains("33554432"),
            "message must name the cap: {stderr}"
        );
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
        std::fs::remove_file(&path).ok();
    }
    // Below the cap a header may still declare isolated vertices.
    let path = dir.join("isolated-1m.col");
    std::fs::write(&path, "p edge 1000000 0\n").unwrap();
    let out = mce(&[
        "enumerate",
        path.to_str().unwrap(),
        "--format",
        "dimacs",
        "--output",
        "count",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cliques 1000000\n"), "{stdout}");
    assert!(stdout.contains("max_size 1\n"), "{stdout}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn out_of_range_thread_count_is_usage() {
    assert_clean_failure(&["enumerate", "--threads", "0", "/dev/null"], 2);
    assert_clean_failure(&["enumerate", "--threads", "1025", "/dev/null"], 2);
    assert_clean_failure(&["enumerate", "--threads", "many", "/dev/null"], 2);
}

#[test]
fn unknown_enumerate_preset_is_usage() {
    assert_clean_failure(&["enumerate", "--preset", "HBBMC--", "/dev/null"], 2);
}

#[test]
fn unknown_gen_preset_is_usage() {
    assert_clean_failure(&["gen", "heawood"], 2);
    assert_clean_failure(&["gen"], 2);
}

#[test]
fn gen_above_a_preset_cap_is_usage() {
    // The presets with about n²/2 edges stop at 8192 vertices; above that
    // the usage check fires before anything is allocated. Nothing is built
    // at the cap itself.
    for preset in [
        "bipartite",
        "complete",
        "moon-moser",
        "planted-hub",
        "plex",
        "turan",
    ] {
        let args = ["gen", preset, "--n", "8193"];
        assert_clean_failure(&args, 2);
        let stderr = String::from_utf8_lossy(&mce(&args).stderr).into_owned();
        assert!(
            stderr.contains("--n must be in 1..=8192 (got 8193)"),
            "{preset}: {stderr}"
        );
    }
    // Once an abort under a 2 GB address-space limit.
    let args = ["gen", "complete", "--n", "200000"];
    assert_clean_failure(&args, 2);
    let stderr = String::from_utf8_lossy(&mce(&args).stderr).into_owned();
    assert!(
        stderr.contains("8192"),
        "message must name the cap: {stderr}"
    );
    // The linear presets keep the 50,000,000 cap.
    assert_clean_failure(&["gen", "planted", "--n", "50000001"], 2);
}

#[test]
fn verify_requires_distinct_inputs() {
    assert_clean_failure(&["verify", "-"], 2);
    assert_clean_failure(&["verify"], 2);
}

#[test]
fn verify_detects_a_wrong_enumeration() {
    let dir = std::env::temp_dir().join("mce_cli_errors_test");
    std::fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("tri.txt");
    let cliques = dir.join("tri.cliques");
    std::fs::write(&graph, "0 1\n1 2\n0 2\n").unwrap();
    std::fs::write(&cliques, "0 1\n").unwrap(); // non-maximal
    assert_clean_failure(
        &["verify", graph.to_str().unwrap(), cliques.to_str().unwrap()],
        1,
    );
    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&cliques).ok();
}

#[test]
fn query_rejects_bad_flag_combinations() {
    // All of these fail during flag validation, before any input is read.
    assert_clean_failure(&["query", "-", "--count", "--top", "2"], 2);
    assert_clean_failure(&["query", "-", "--anchor", "x"], 2);
    assert_clean_failure(&["query", "-", "--kclique", "0"], 2);
    assert_clean_failure(&["query", "-", "--count", "--output", "text"], 2);
    assert_clean_failure(&["query", "-", "--top", "2", "--min-size", "3"], 2);
    assert_clean_failure(&["query", "-", "--limit", "abc"], 2);
}

#[test]
fn verify_step_budget_guards_naive_blowup() {
    let dir = std::env::temp_dir().join("mce_cli_errors_test");
    std::fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("dense.txt");
    // A 12-clique: the naive reference run cannot finish inside 10 branch
    // steps, so verification must fail cleanly via the shared budget instead
    // of succeeding or hanging.
    let mut text = String::new();
    for u in 0..12u32 {
        for v in (u + 1)..12 {
            text.push_str(&format!("{u} {v}\n"));
        }
    }
    std::fs::write(&graph, text).unwrap();
    let cliques = dir.join("dense.cliques");
    std::fs::write(&cliques, "0 1 2 3 4 5 6 7 8 9 10 11\n").unwrap();
    assert_clean_failure(
        &[
            "verify",
            graph.to_str().unwrap(),
            cliques.to_str().unwrap(),
            "--max-steps",
            "10",
        ],
        1,
    );
    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&cliques).ok();
}

#[test]
fn help_paths_exit_zero() {
    for args in [
        vec!["help"],
        vec!["--help"],
        vec!["help", "enumerate"],
        vec!["enumerate", "--help"],
        vec!["gen", "--list"],
    ] {
        let out = mce(&args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(!out.stdout.is_empty(), "{args:?}");
    }
}
