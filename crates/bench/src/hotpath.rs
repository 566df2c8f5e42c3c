//! The solver hot-path benchmark matrix behind `cargo bench --bench
//! bench_hotpath` and `experiments solver`.
//!
//! Unlike the criterion microbenchmarks (which time substrate pieces), this
//! module measures the *end-to-end enumeration hot path* — graphs × presets ×
//! thread counts — and records each measurement as a flat JSON object in the
//! workspace-level `BENCH_solver.json` trajectory file. Successive PRs append
//! runs under a new `variant` label, so the file accumulates a performance
//! history that later changes can be regressed against.
//!
//! The graph matrix deliberately includes **dense-branch microbenchmarks**
//! (Moon–Moser and a dense G(n, m) instance, where the per-branch `C ∩ N(v)`
//! refinement dominates) alongside clique-community and sparse instances, so
//! both the word-parallel kernels and the parallel engine are exercised.

use std::path::Path;

use hbbmc::{par_count_maximal_cliques, SolverConfig};
use mce_gen::{barabasi_albert, erdos_renyi, moon_moser, planted_communities, PlantedConfig};
use mce_graph::Graph;

use crate::json::{append_runs, JsonValue};
use crate::runner::measure;

/// Schema tag stamped on every run record.
pub const SCHEMA: &str = "hbbmc-bench-solver/v1";

/// Options of one `bench_hotpath` invocation.
#[derive(Clone, Debug)]
pub struct HotpathOptions {
    /// Label identifying the code state being measured (e.g. `scratch-arena`).
    pub variant: String,
    /// Worker threads; `1` measures the sequential solver.
    pub threads: usize,
    /// Use the tiny graph matrix (CI smoke runs).
    pub quick: bool,
    /// Timed repetitions per cell; the best (minimum) time is recorded.
    pub repeats: usize,
}

impl Default for HotpathOptions {
    fn default() -> Self {
        HotpathOptions {
            variant: "unnamed".into(),
            threads: 1,
            quick: false,
            repeats: 2,
        }
    }
}

/// One measured cell of the matrix.
#[derive(Clone, Debug)]
pub struct HotpathRecord {
    /// Graph name.
    pub graph: String,
    /// Vertex count of the instance.
    pub n: usize,
    /// Edge count of the instance.
    pub m: usize,
    /// Preset name (paper algorithm name).
    pub preset: String,
    /// Worker threads used.
    pub threads: usize,
    /// Best wall-clock seconds over the repetitions.
    pub seconds: f64,
    /// Number of maximal cliques found.
    pub cliques: u64,
}

impl HotpathRecord {
    /// Enumeration throughput in maximal cliques per second.
    pub fn cliques_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.cliques as f64 / self.seconds
        } else {
            0.0
        }
    }

    /// The flat JSON object appended to the trajectory file.
    pub fn to_json(&self, variant: &str) -> JsonValue {
        JsonValue::obj(vec![
            ("schema", JsonValue::Str(SCHEMA.into())),
            ("variant", JsonValue::Str(variant.into())),
            ("graph", JsonValue::Str(self.graph.clone())),
            ("n", JsonValue::Num(self.n as f64)),
            ("m", JsonValue::Num(self.m as f64)),
            ("preset", JsonValue::Str(self.preset.clone())),
            ("threads", JsonValue::Num(self.threads as f64)),
            ("seconds", JsonValue::Num(self.seconds)),
            ("cliques", JsonValue::Num(self.cliques as f64)),
            ("cliques_per_sec", JsonValue::Num(self.cliques_per_sec())),
        ])
    }
}

/// The benchmark graph matrix. The first two instances are the dense-branch
/// microbenchmarks; the rest cover community-structured and sparse regimes.
pub fn hotpath_graphs(quick: bool) -> Vec<(&'static str, Graph)> {
    if quick {
        vec![
            ("mm_k5", moon_moser(5)),
            ("dense_er_n80", erdos_renyi(80, 1_200, 11)),
            (
                "planted_n200",
                planted_communities(&PlantedConfig {
                    n: 200,
                    communities: 24,
                    background_edges: 400,
                    ..PlantedConfig::default()
                }),
            ),
        ]
    } else {
        vec![
            ("mm_k8", moon_moser(8)),
            ("dense_er_n200", erdos_renyi(200, 6_000, 11)),
            (
                "planted_n1000",
                planted_communities(&PlantedConfig::default()),
            ),
            ("ba_n2000_k12", barabasi_albert(2_000, 12, 5)),
            ("er_n4000_rho10", erdos_renyi(4_000, 40_000, 3)),
        ]
    }
}

/// The presets measured by the hot-path matrix.
pub fn hotpath_presets() -> Vec<(&'static str, SolverConfig)> {
    vec![
        ("HBBMC++", SolverConfig::hbbmc_pp()),
        ("HBBMC+", SolverConfig::hbbmc_plus()),
        ("RDegen", SolverConfig::r_degen()),
        ("RRcd", SolverConfig::r_rcd()),
    ]
}

/// Measures one (graph, preset) cell: best of `repeats` timed runs.
pub fn measure_cell(
    name: &str,
    g: &Graph,
    preset: &str,
    config: &SolverConfig,
    threads: usize,
    repeats: usize,
) -> HotpathRecord {
    let mut best = f64::INFINITY;
    let mut cliques = 0u64;
    for _ in 0..repeats.max(1) {
        let (count, stats) = if threads > 1 {
            par_count_maximal_cliques(g, config, threads)
        } else {
            let m = measure(g, config);
            (m.cliques, m.stats)
        };
        cliques = count;
        let secs = stats.elapsed.as_secs_f64();
        if secs < best {
            best = secs;
        }
    }
    HotpathRecord {
        graph: name.to_string(),
        n: g.n(),
        m: g.m(),
        preset: preset.to_string(),
        threads,
        seconds: best,
        cliques,
    }
}

/// Runs the full matrix, printing one line per cell.
pub fn run_hotpath(options: &HotpathOptions) -> Vec<HotpathRecord> {
    let mut records = Vec::new();
    let presets = hotpath_presets();
    for (graph_name, g) in hotpath_graphs(options.quick) {
        for (preset_name, config) in &presets {
            let record = measure_cell(
                graph_name,
                &g,
                preset_name,
                config,
                options.threads,
                options.repeats,
            );
            println!(
                "{:<16} {:<9} threads={} {:>9.4}s {:>12} cliques {:>12.0} cliques/s",
                record.graph,
                record.preset,
                record.threads,
                record.seconds,
                record.cliques,
                record.cliques_per_sec()
            );
            records.push(record);
        }
    }
    records
}

/// Appends every record to the trajectory file and re-validates it.
pub fn append_records(
    path: &Path,
    variant: &str,
    records: &[HotpathRecord],
) -> Result<usize, String> {
    append_runs(path, records.iter().map(|r| r.to_json(variant)).collect())?;
    // Re-read and parse so a broken emitter fails loudly (this is the check
    // the CI smoke job relies on).
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("re-reading {}: {e}", path.display()))?;
    let parsed = crate::json::parse(&text)?;
    let runs = parsed
        .as_array()
        .ok_or_else(|| format!("{} is not a JSON array", path.display()))?;
    for run in runs {
        for key in ["schema", "variant", "graph", "preset", "seconds", "cliques"] {
            if run.get(key).is_none() {
                return Err(format!("run record missing key '{key}'"));
            }
        }
    }
    Ok(runs.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_matrix_measures_and_serialises() {
        let options = HotpathOptions {
            variant: "test".into(),
            threads: 1,
            quick: true,
            repeats: 1,
        };
        let records = run_hotpath(&options);
        assert_eq!(
            records.len(),
            hotpath_graphs(true).len() * hotpath_presets().len()
        );
        for r in &records {
            assert!(r.cliques > 0, "{} found no cliques", r.graph);
            let json = r.to_json("test");
            assert_eq!(json.get("schema").and_then(JsonValue::as_str), Some(SCHEMA));
        }
    }

    #[test]
    fn presets_agree_on_counts_per_graph() {
        for (name, g) in hotpath_graphs(true) {
            let counts: Vec<u64> = hotpath_presets()
                .iter()
                .map(|(_, c)| measure_cell(name, &g, "x", c, 1, 1).cliques)
                .collect();
            assert!(
                counts.windows(2).all(|w| w[0] == w[1]),
                "{name}: presets disagree: {counts:?}"
            );
        }
    }

    #[test]
    fn append_records_validates_output() {
        let dir = std::env::temp_dir().join("mce_bench_hotpath_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_solver.json");
        let _ = std::fs::remove_file(&path);
        let record = HotpathRecord {
            graph: "toy".into(),
            n: 4,
            m: 6,
            preset: "HBBMC++".into(),
            threads: 1,
            seconds: 0.001,
            cliques: 1,
        };
        let total = append_records(&path, "test", &[record.clone(), record]).unwrap();
        assert_eq!(total, 2);
        let _ = std::fs::remove_file(&path);
    }
}
