//! `mce gen` — write a synthetic graph from a named `mce-gen` preset.

use std::io::Write;

use mce_gen::{gen_preset_by_name, GEN_PRESETS};
use mce_graph::io::write_graph;

use crate::args::ParsedArgs;
use crate::error::CliError;
use crate::io::{open_sink, FormatArg};

/// Per-command help text.
pub const HELP: &str = "usage: mce gen PRESET [options]
       mce gen --list

Generates a synthetic graph from a named preset and writes it to stdout or
--out. Generation is deterministic: the same (PRESET, --n, --seed) triple
always produces the same graph.

options:
  --n N                            target vertex count (default: 100; at most
                                   8192 for presets with ~n^2/2 edges, else 50000000)
  --seed S                         RNG seed (default: 42)
  --format edge-list|dimacs|mcg|auto  output format (default: by --out extension)
  --out FILE                       write to FILE instead of stdout
  --list                           list available presets and exit";

const VALUE_OPTS: &[&str] = &["--n", "--seed", "--format", "--out"];
const BOOL_FLAGS: &[&str] = &["--list"];

/// Runs the subcommand.
pub fn run(args: &[String]) -> Result<(), CliError> {
    let p = ParsedArgs::parse(args, VALUE_OPTS, BOOL_FLAGS)?;
    if p.flag("--list") {
        let mut out = std::io::stdout();
        for preset in GEN_PRESETS {
            writeln!(out, "{:12} {}", preset.name, preset.description)?;
        }
        return Ok(());
    }
    p.reject_extra_positionals(1)?;
    let name = p
        .positional(0)
        .ok_or_else(|| CliError::usage("gen requires a preset name (see mce gen --list)"))?;
    let preset = gen_preset_by_name(name).ok_or_else(|| {
        let names: Vec<&str> = GEN_PRESETS.iter().map(|p| p.name).collect();
        CliError::usage(format!(
            "unknown generator preset '{name}' (expected one of: {})",
            names.join(", ")
        ))
    })?;
    let n = p.usize_value("--n", 100, 1, preset.max_n)?;
    let seed = p.u64_value("--seed", 42)?;
    let format = FormatArg::parse(p.value("--format"))?;
    let out_spec = p.value("--out");
    let out_format = format.resolve_for_output(out_spec.unwrap_or("-"));

    let graph = preset.build(n, seed);
    let sink = open_sink(out_spec)?;
    write_graph(&graph, sink, out_format)
        .map_err(|e| CliError::runtime(format!("writing graph: {e}")))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_vec(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn missing_preset_is_usage_error() {
        let e = run(&to_vec(&[])).unwrap_err();
        assert_eq!(e.exit_code(), 2);
    }

    #[test]
    fn unknown_preset_is_usage_error() {
        let e = run(&to_vec(&["warp-core"])).unwrap_err();
        assert!(e.to_string().contains("warp-core"));
        assert!(e.to_string().contains("er-sparse"));
    }

    #[test]
    fn generates_to_file_deterministically() {
        let dir = std::env::temp_dir().join("mce_cli_gen_test");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.txt");
        let b = dir.join("b.txt");
        for path in [&a, &b] {
            run(&to_vec(&[
                "er-sparse",
                "--n",
                "30",
                "--seed",
                "9",
                "--out",
                path.to_str().unwrap(),
            ]))
            .unwrap();
        }
        assert_eq!(
            std::fs::read_to_string(&a).unwrap(),
            std::fs::read_to_string(&b).unwrap()
        );
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
    }

    #[test]
    fn dimacs_extension_selects_dimacs_output() {
        let dir = std::env::temp_dir().join("mce_cli_gen_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.col");
        run(&to_vec(&[
            "complete",
            "--n",
            "4",
            "--out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("p edge 4 6"), "{content}");
        std::fs::remove_file(&path).ok();
    }
}
