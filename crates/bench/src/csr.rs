//! The CSR memory-wall benchmark behind `cargo bench --bench bench_csr`.
//!
//! Measures the resource profile that motivated the hybrid global layer: for
//! each `er-scale`-shaped instance (Erdős–Rényi with `m = 10n`) it records
//!
//! * the **actual CSR footprint** of the loaded graph (`8(n+1) + 4·2m` bytes,
//!   measured from the live arrays), next to the **analytic dense footprint**
//!   (`n · ⌈n/64⌉ · 8` bytes) an `AdjMatrix` global layer would need — the
//!   `O(n²/64)` wall this layout removes;
//! * load time from the text edge list versus the `.mcg` binary container
//!   (the binary path skips tokenising, relabelling and re-sorting — it is a
//!   checksummed `O(n + m)` copy);
//! * end-to-end enumeration time, clique count and branch counters through
//!   the CSR global layer, plus the process peak RSS (`VmHWM`) where the
//!   platform exposes it.
//!
//! Records are appended to the workspace `BENCH_solver.json` trajectory under
//! the `hybrid-csr` variant, alongside the hot-path/scheduler/query/serve
//! schemas.

use std::path::Path;
use std::time::Instant;

use hbbmc::{par_count_maximal_cliques, SolverConfig};
use mce_gen::erdos_renyi;
use mce_graph::io::{read_graph_bytes, write_graph, GraphFormat};
use mce_graph::Graph;

use crate::json::{append_runs, parse, JsonValue};

/// Schema tag stamped on every CSR run record.
pub const SCHEMA: &str = "hbbmc-bench-csr/v1";

/// Options of one `bench_csr` invocation.
#[derive(Clone, Debug)]
pub struct CsrBenchOptions {
    /// Label identifying the code state being measured (e.g. `hybrid-csr`).
    pub variant: String,
    /// Worker threads for the enumeration leg.
    pub threads: usize,
    /// Use the tiny instance (CI smoke runs).
    pub quick: bool,
    /// Timed repetitions per cell; the best (minimum) time is recorded.
    pub repeats: usize,
}

impl Default for CsrBenchOptions {
    fn default() -> Self {
        CsrBenchOptions {
            variant: "hybrid-csr".into(),
            threads: 1,
            quick: false,
            repeats: 1,
        }
    }
}

/// One measured instance.
#[derive(Clone, Debug)]
pub struct CsrRecord {
    /// Instance name.
    pub graph: String,
    /// Vertex count.
    pub n: usize,
    /// Edge count.
    pub m: usize,
    /// Solver preset used for the enumeration leg.
    pub preset: String,
    /// Worker threads used.
    pub threads: usize,
    /// Measured bytes of the live CSR arrays (`8(n+1) + 4·2m`).
    pub csr_bytes: u64,
    /// Analytic bytes of a dense `n × n` bitmap global layer
    /// (`n · ⌈n/64⌉ · 8`).
    pub dense_bytes: u64,
    /// On-disk size of the `.mcg` encoding.
    pub mcg_file_bytes: u64,
    /// Best seconds to parse the text edge list back into a [`Graph`].
    pub text_load_seconds: f64,
    /// Best seconds to load the same graph from its `.mcg` bytes.
    pub mcg_load_seconds: f64,
    /// Best end-to-end enumeration seconds through the CSR global layer.
    pub seconds: f64,
    /// Number of maximal cliques found.
    pub cliques: u64,
    /// Root branches planned (vertex- or edge-oriented).
    pub initial_branches: u64,
    /// Recursive branching calls.
    pub recursive_calls: u64,
    /// Process peak RSS in bytes (`VmHWM` on Linux), if readable.
    pub peak_rss_bytes: Option<u64>,
}

impl CsrRecord {
    /// How many times smaller the CSR global layer is than the dense bitmap.
    pub fn dense_over_csr(&self) -> f64 {
        if self.csr_bytes > 0 {
            self.dense_bytes as f64 / self.csr_bytes as f64
        } else {
            0.0
        }
    }

    /// The flat JSON object appended to the trajectory file.
    pub fn to_json(&self, variant: &str) -> JsonValue {
        let mut fields = vec![
            ("schema", JsonValue::Str(SCHEMA.into())),
            ("variant", JsonValue::Str(variant.into())),
            ("graph", JsonValue::Str(self.graph.clone())),
            ("n", JsonValue::Num(self.n as f64)),
            ("m", JsonValue::Num(self.m as f64)),
            ("preset", JsonValue::Str(self.preset.clone())),
            ("threads", JsonValue::Num(self.threads as f64)),
            ("csr_bytes", JsonValue::Num(self.csr_bytes as f64)),
            ("dense_bytes", JsonValue::Num(self.dense_bytes as f64)),
            ("dense_over_csr", JsonValue::Num(self.dense_over_csr())),
            ("mcg_file_bytes", JsonValue::Num(self.mcg_file_bytes as f64)),
            ("text_load_seconds", JsonValue::Num(self.text_load_seconds)),
            ("mcg_load_seconds", JsonValue::Num(self.mcg_load_seconds)),
            ("seconds", JsonValue::Num(self.seconds)),
            ("cliques", JsonValue::Num(self.cliques as f64)),
            (
                "initial_branches",
                JsonValue::Num(self.initial_branches as f64),
            ),
            (
                "recursive_calls",
                JsonValue::Num(self.recursive_calls as f64),
            ),
        ];
        if let Some(rss) = self.peak_rss_bytes {
            fields.push(("peak_rss_bytes", JsonValue::Num(rss as f64)));
        }
        JsonValue::obj(fields)
    }
}

/// The benchmark instances: `er-scale`-shaped graphs (`m = 10n`).
///
/// Quick mode uses a small instance so CI smoke stays fast; the full matrix
/// walks up to the 1M-vertex / 10M-edge acceptance shape, whose dense bitmap
/// would need ~125 GB while the CSR arrays stay under 100 MB.
pub fn csr_instances(quick: bool) -> Vec<(&'static str, usize)> {
    if quick {
        vec![("er_scale_n5k", 5_000)]
    } else {
        vec![("er_scale_n100k", 100_000), ("er_scale_n1m", 1_000_000)]
    }
}

/// Live bytes of the graph's CSR arrays.
pub fn csr_bytes(g: &Graph) -> u64 {
    (std::mem::size_of_val(g.csr_offsets()) + std::mem::size_of_val(g.csr_adjacency())) as u64
}

/// Analytic bytes of a dense `n × n` adjacency bitmap with 64-bit rows.
pub fn dense_bytes(n: usize) -> u64 {
    (n as u64) * (n as u64).div_ceil(64) * 8
}

/// Reads the process peak resident-set size (`VmHWM`) in bytes, if the
/// platform exposes `/proc/self/status`.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

fn best_of<T>(repeats: usize, mut run: impl FnMut() -> (f64, T)) -> (f64, T) {
    let (mut best, mut value) = run();
    for _ in 1..repeats.max(1) {
        let (secs, v) = run();
        if secs < best {
            best = secs;
            value = v;
        }
    }
    (best, value)
}

/// Measures one instance end to end.
pub fn measure_instance(name: &str, n: usize, options: &CsrBenchOptions) -> CsrRecord {
    let seed = 7;
    let g = erdos_renyi(n, 10 * n, seed);

    // Serialise once to both formats, then time loading each back.
    let mut text = Vec::new();
    write_graph(&g, &mut text, GraphFormat::EdgeList).expect("edge-list encode");
    let mut mcg = Vec::new();
    write_graph(&g, &mut mcg, GraphFormat::Mcg).expect("mcg encode");

    let (text_load_seconds, from_text) = best_of(options.repeats, || {
        let start = Instant::now();
        let loaded = read_graph_bytes(&text, GraphFormat::EdgeList).expect("edge-list load");
        (start.elapsed().as_secs_f64(), loaded)
    });
    let (mcg_load_seconds, from_mcg) = best_of(options.repeats, || {
        let start = Instant::now();
        let loaded = read_graph_bytes(&mcg, GraphFormat::Mcg).expect("mcg load");
        (start.elapsed().as_secs_f64(), loaded)
    });
    // The text round trip drops isolated vertices (edge lists cannot name
    // them), so compare edge counts; the binary round trip must be exact.
    assert_eq!(from_text.m(), g.m(), "{name}: text round trip lost edges");
    assert_eq!(from_mcg, g, "{name}: mcg round trip differs");
    drop(from_text);
    drop(from_mcg);

    let preset = "HBBMC++";
    let config = SolverConfig::hbbmc_pp();
    let (seconds, (cliques, stats)) = best_of(options.repeats, || {
        let start = Instant::now();
        let counted = par_count_maximal_cliques(&g, &config, options.threads);
        (start.elapsed().as_secs_f64(), counted)
    });

    CsrRecord {
        graph: name.to_string(),
        n: g.n(),
        m: g.m(),
        preset: preset.to_string(),
        threads: options.threads,
        csr_bytes: csr_bytes(&g),
        dense_bytes: dense_bytes(g.n()),
        mcg_file_bytes: mcg.len() as u64,
        text_load_seconds,
        mcg_load_seconds,
        seconds,
        cliques,
        initial_branches: stats.initial_branches,
        recursive_calls: stats.recursive_calls,
        peak_rss_bytes: peak_rss_bytes(),
    }
}

/// Runs the instance matrix, printing one line per cell.
pub fn run_csr_bench(options: &CsrBenchOptions) -> Vec<CsrRecord> {
    let mut records = Vec::new();
    for (name, n) in csr_instances(options.quick) {
        let r = measure_instance(name, n, options);
        println!(
            "{:<16} n={:<9} m={:<10} csr={:>12}B dense={:>16}B ({:>8.0}x) \
             load text={:.3}s mcg={:.3}s enumerate={:.3}s cliques={} rss={}",
            r.graph,
            r.n,
            r.m,
            r.csr_bytes,
            r.dense_bytes,
            r.dense_over_csr(),
            r.text_load_seconds,
            r.mcg_load_seconds,
            r.seconds,
            r.cliques,
            r.peak_rss_bytes
                .map(|b| format!("{}MB", b / (1024 * 1024)))
                .unwrap_or_else(|| "n/a".into()),
        );
        records.push(r);
    }
    records
}

/// Appends every record to the trajectory file and re-validates it,
/// including the CSR-specific fields (the check the CI smoke job relies on).
pub fn append_records(path: &Path, variant: &str, records: &[CsrRecord]) -> Result<usize, String> {
    append_runs(path, records.iter().map(|r| r.to_json(variant)).collect())?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("re-reading {}: {e}", path.display()))?;
    let parsed = parse(&text)?;
    let runs = parsed
        .as_array()
        .ok_or_else(|| format!("{} is not a JSON array", path.display()))?;
    let mut csr_runs = 0usize;
    for run in runs {
        for key in ["schema", "variant", "graph", "preset", "seconds", "cliques"] {
            if run.get(key).is_none() {
                return Err(format!("run record missing key '{key}'"));
            }
        }
        if run.get("schema").and_then(JsonValue::as_str) == Some(SCHEMA) {
            csr_runs += 1;
            for key in [
                "csr_bytes",
                "dense_bytes",
                "dense_over_csr",
                "mcg_file_bytes",
                "text_load_seconds",
                "mcg_load_seconds",
                "initial_branches",
                "recursive_calls",
            ] {
                if run.get(key).is_none() {
                    return Err(format!("csr record missing key '{key}'"));
                }
            }
        }
    }
    Ok(csr_runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_instance_measures_and_serialises() {
        let options = CsrBenchOptions {
            variant: "test".into(),
            threads: 1,
            quick: true,
            repeats: 1,
        };
        let records = run_csr_bench(&options);
        assert_eq!(records.len(), csr_instances(true).len());
        let r = &records[0];
        assert_eq!(r.m, 10 * r.n);
        assert!(r.cliques > 0);
        assert!(r.csr_bytes < r.dense_bytes, "CSR must beat dense at m=10n");
        assert!(r.mcg_file_bytes > 0);
        let json = r.to_json("test");
        assert_eq!(json.get("schema").and_then(JsonValue::as_str), Some(SCHEMA));
        assert!(json.get("csr_bytes").is_some());
    }

    #[test]
    fn byte_accounting_matches_formulas() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        // 5 offsets × 8 bytes + 6 directed entries × 4 bytes.
        assert_eq!(csr_bytes(&g), 5 * 8 + 6 * 4);
        assert_eq!(dense_bytes(64), 64 * 8);
        assert_eq!(dense_bytes(65), 65 * 2 * 8);
        assert_eq!(dense_bytes(0), 0);
    }

    #[test]
    fn append_records_validates_csr_fields() {
        let dir = std::env::temp_dir().join("mce_bench_csr_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_csr.json");
        let _ = std::fs::remove_file(&path);
        let record = CsrRecord {
            graph: "toy".into(),
            n: 40,
            m: 400,
            preset: "HBBMC++".into(),
            threads: 1,
            csr_bytes: 328 + 3200,
            dense_bytes: 320,
            mcg_file_bytes: 4000,
            text_load_seconds: 0.001,
            mcg_load_seconds: 0.0005,
            seconds: 0.01,
            cliques: 5,
            initial_branches: 40,
            recursive_calls: 100,
            peak_rss_bytes: None,
        };
        let total = append_records(&path, "test", &[record]).unwrap();
        assert_eq!(total, 1);
        let _ = std::fs::remove_file(&path);
    }
}
