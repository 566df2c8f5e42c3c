//! Experiment harness binary: regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run -p mce-bench --release --bin experiments -- [--quick] <experiment>...
//!
//! experiments: table1 table2 table3 table4 table5 table6 fig5a fig5b fig5c
//!              fig5d ext1 memwall all
//! ```
//!
//! `all` runs the paper's tables and figures plus `ext1`; `memwall` builds a
//! 1M-vertex graph at full scale, so it only runs when named.

use std::time::Instant;

use mce_bench::experiments::{
    ext_et_orthogonality, fig5_density, fig5_scalability, memwall, table1, table2, table3, table4,
    table5, table6, ExperimentScale, SyntheticModel,
};

const USAGE: &str = "usage: experiments [--quick] <experiment>...\n\
                     experiments: table1 table2 table3 table4 table5 table6 fig5a fig5b fig5c fig5d ext1 memwall all\n\
                     ('all' runs everything except memwall)";

/// What `all` expands to: every experiment except `memwall`.
const ALL: [&str; 11] = [
    "table1", "table2", "table3", "table4", "table5", "table6", "fig5a", "fig5b", "fig5c", "fig5d",
    "ext1",
];

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut requested = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" | "-q" => quick = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown option '{other}'");
                usage();
            }
            other => requested.push(other.to_ascii_lowercase()),
        }
    }
    if requested.is_empty() {
        usage();
    }
    if let Some(other) = requested
        .iter()
        .find(|r| *r != "all" && *r != "memwall" && !ALL.contains(&r.as_str()))
    {
        eprintln!("unknown experiment '{other}'");
        usage();
    }
    let requested: Vec<String> = requested
        .into_iter()
        .flat_map(|r| match r.as_str() {
            "all" => ALL.iter().map(|s| s.to_string()).collect(),
            _ => vec![r],
        })
        .collect();

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
            "memwall" => memwall(&scale),
            other => unreachable!("experiment names are checked before any runs: {other}"),
        };
        println!("{table}");
        println!("(generated in {:.1}s)\n", start.elapsed().as_secs_f64());
    }
}
