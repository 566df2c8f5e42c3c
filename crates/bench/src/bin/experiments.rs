//! Experiment harness binary: regenerates the paper's tables and figures and
//! records solver hot-path measurements.
//!
//! ```text
//! cargo run -p mce-bench --release --bin experiments -- \
//!     [--quick] [--threads N] [--json PATH] [--variant NAME] <experiment>...
//!
//! experiments: table1 table2 table3 table4 table5 table6 fig5a fig5b fig5c
//!              fig5d ext1 solver all
//! ```
//!
//! The `solver` experiment runs the hot-path matrix of
//! [`mce_bench::hotpath`]; with `--json PATH` each measurement is appended to
//! the JSON trajectory file (the workspace keeps one in `BENCH_solver.json`),
//! so perf history accumulates across code changes without editing code.
//! `--threads N` measures the parallel driver instead of the sequential
//! solver (it only affects `solver`).

use std::path::PathBuf;
use std::time::Instant;

use mce_bench::experiments::{
    ext_et_orthogonality, fig5_density, fig5_scalability, table1, table2, table3, table4, table5,
    table6, ExperimentScale, SyntheticModel,
};
use mce_bench::hotpath::{append_records, run_hotpath, HotpathOptions};
use mce_bench::query::{
    append_records as append_query_records, run_query_bench, QueryBenchOptions,
};

const USAGE: &str = "usage: experiments [--quick] [--threads N] [--json PATH] [--variant NAME] <experiment>...\n\
                     experiments: table1 table2 table3 table4 table5 table6 fig5a fig5b fig5c fig5d ext1 solver query all\n\
                     (--threads/--json/--variant apply to the 'solver' and 'query' experiments)";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut threads = 1usize;
    let mut variant = String::from("experiments");
    let mut json_path: Option<PathBuf> = None;
    let mut requested: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" | "-q" => quick = true,
            "--threads" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => threads = n,
                _ => usage(),
            },
            "--json" => match iter.next() {
                Some(p) => json_path = Some(PathBuf::from(p)),
                None => usage(),
            },
            "--variant" => match iter.next() {
                Some(v) => variant = v,
                None => usage(),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => requested.push(other.to_ascii_lowercase()),
        }
    }
    if requested.is_empty() {
        usage();
    }
    if requested.iter().any(|r| r == "all") {
        // Every paper experiment plus the ext1 extension; the `solver` perf
        // matrix appends to the trajectory file and only runs when named.
        requested = vec![
            "table1", "table2", "table3", "table4", "table5", "table6", "fig5a", "fig5b", "fig5c",
            "fig5d", "ext1",
        ]
        .into_iter()
        .map(String::from)
        .collect();
    }

    let scale = if quick {
        ExperimentScale::quick()
    } else {
        ExperimentScale::full()
    };
    println!(
        "# HBBMC reproduction experiments ({} scale)\n",
        if quick { "quick" } else { "full" }
    );

    for experiment in requested {
        let start = Instant::now();
        if experiment == "solver" {
            run_solver_experiment(quick, threads, &variant, json_path.as_deref());
            println!("(generated in {:.1}s)\n", start.elapsed().as_secs_f64());
            continue;
        }
        if experiment == "query" {
            run_query_experiment(quick, &variant, json_path.as_deref());
            println!("(generated in {:.1}s)\n", start.elapsed().as_secs_f64());
            continue;
        }
        let table = match experiment.as_str() {
            "table1" => table1(&scale),
            "table2" => table2(&scale),
            "table3" => table3(&scale),
            "table4" => table4(&scale),
            "table5" => table5(&scale),
            "table6" => table6(&scale),
            "fig5a" => fig5_scalability(SyntheticModel::ErdosRenyi, &scale),
            "fig5b" => fig5_scalability(SyntheticModel::BarabasiAlbert, &scale),
            "fig5c" => fig5_density(SyntheticModel::ErdosRenyi, &scale),
            "fig5d" => fig5_density(SyntheticModel::BarabasiAlbert, &scale),
            "ext1" => ext_et_orthogonality(&scale),
            other => {
                eprintln!("unknown experiment '{other}'");
                usage();
            }
        };
        println!("{table}");
        println!("(generated in {:.1}s)\n", start.elapsed().as_secs_f64());
    }
}

/// The `query` experiment: anchored queries vs. full enumeration, recorded
/// counter-first (the host may expose a single CPU), optionally appended to
/// the perf trajectory file.
fn run_query_experiment(quick: bool, variant: &str, json_path: Option<&std::path::Path>) {
    let options = QueryBenchOptions {
        variant: variant.to_string(),
        quick,
        repeats: 2,
    };
    println!(
        "## anchored queries (variant={variant}, {} matrix)",
        if quick { "quick" } else { "full" }
    );
    let records = run_query_bench(&options);
    if let Some(path) = json_path {
        match append_query_records(path, variant, &records) {
            Ok(total) => println!(
                "appended {} records to {} ({} query records total, validated)",
                records.len(),
                path.display(),
                total
            ),
            Err(e) => {
                eprintln!("experiments: JSON emission failed: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// The `solver` experiment: the hot-path matrix, optionally appended to the
/// perf trajectory file.
fn run_solver_experiment(
    quick: bool,
    threads: usize,
    variant: &str,
    json_path: Option<&std::path::Path>,
) {
    let options = HotpathOptions {
        variant: variant.to_string(),
        threads,
        quick,
        repeats: 2,
    };
    println!(
        "## solver hot path (variant={variant}, threads={threads}, {} matrix)",
        if quick { "quick" } else { "full" }
    );
    let records = run_hotpath(&options);
    if let Some(path) = json_path {
        match append_records(path, variant, &records) {
            Ok(total) => println!(
                "appended {} records to {} ({} total, validated)",
                records.len(),
                path.display(),
                total
            ),
            Err(e) => {
                eprintln!("experiments: JSON emission failed: {e}");
                std::process::exit(1);
            }
        }
    }
}
