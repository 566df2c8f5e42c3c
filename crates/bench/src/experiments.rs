//! The experiment implementations: one function per table / figure of the
//! paper. Each returns a [`Table`] in the same row/column shape as the paper,
//! which the `experiments` binary prints.

use hbbmc::SolverConfig;
use mce_gen::{barabasi_albert, erdos_renyi, gen_preset_by_name};
use mce_graph::{Graph, GraphStats};

use crate::algorithms::{ablation_algorithms, baseline_algorithms, ordering_algorithms};
use crate::datasets::{all_datasets, Dataset};
use crate::runner::{format_count, measure};
use crate::table::Table;

/// Scale factor applied to every surrogate dataset (1.0 = the registry's sizes).
/// The `--quick` flag of the binary uses a smaller value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExperimentScale {
    /// Multiplier for dataset sizes (0 < scale ≤ 1).
    pub dataset_scale: f64,
    /// Vertex counts for the Figure 5 scalability sweep.
    pub fig5_vertex_counts: &'static [usize],
    /// Edge densities for the Figure 5 density sweep.
    pub fig5_densities: &'static [usize],
    /// Vertex count for the density sweep.
    pub fig5_density_n: usize,
    /// Vertex counts for the `er-scale` memory-wall table.
    pub memwall_vertex_counts: &'static [usize],
}

impl ExperimentScale {
    /// The default scale: full surrogate sizes.
    pub fn full() -> Self {
        ExperimentScale {
            dataset_scale: 1.0,
            fig5_vertex_counts: &[1_000, 2_000, 4_000, 8_000, 16_000],
            fig5_densities: &[5, 10, 20, 30, 40],
            fig5_density_n: 4_000,
            memwall_vertex_counts: &[100_000, 1_000_000],
        }
    }

    /// A quick scale for smoke runs and CI.
    pub fn quick() -> Self {
        ExperimentScale {
            dataset_scale: 0.25,
            fig5_vertex_counts: &[500, 1_000, 2_000],
            fig5_densities: &[5, 10, 20],
            fig5_density_n: 1_000,
            memwall_vertex_counts: &[5_000],
        }
    }

    fn build(&self, dataset: &Dataset) -> Graph {
        dataset.build_scaled(self.dataset_scale)
    }
}

/// Table I: surrogate dataset statistics (|V|, |E|, δ, τ, ρ) and whether the
/// complexity condition `δ ≥ max{3, τ + 3lnρ/ln3}` holds.
pub fn table1(scale: &ExperimentScale) -> Table {
    let mut table = Table::new(
        "Table I — surrogate dataset statistics",
        &[
            "Graph",
            "Paper name",
            "Category",
            "|V|",
            "|E|",
            "δ",
            "τ",
            "ρ",
            "δ≥max{3,τ+3lnρ/ln3}",
        ],
    );
    for dataset in all_datasets() {
        let g = scale.build(&dataset);
        let stats = GraphStats::compute(&g);
        table.add_row(vec![
            dataset.short.to_string(),
            dataset.paper_name.to_string(),
            dataset.category.to_string(),
            stats.n.to_string(),
            stats.m.to_string(),
            stats.degeneracy.to_string(),
            stats.tau.to_string(),
            format!("{:.1}", stats.rho),
            if stats.hbbmc_condition_holds() {
                "yes".into()
            } else {
                "no".into()
            },
        ]);
    }
    table
}

/// Table II: running time of `HBBMC++` against the four baselines.
pub fn table2(scale: &ExperimentScale) -> Table {
    let algorithms = baseline_algorithms();
    let mut header: Vec<&str> = vec!["Graph"];
    header.extend(algorithms.iter().map(|a| a.name));
    header.push("#cliques");
    let mut table = Table::new("Table II — comparison with baselines (seconds)", &header);
    for dataset in all_datasets() {
        let g = scale.build(&dataset);
        let mut row = vec![dataset.short.to_string()];
        let mut cliques = 0u64;
        for algo in &algorithms {
            let m = measure(&g, &algo.config);
            cliques = m.cliques;
            row.push(format!("{:.3}", m.seconds));
        }
        row.push(cliques.to_string());
        table.add_row(row);
    }
    table
}

/// Table III: ablation (`HBBMC++`, `HBBMC+`, `RDegen`) and the hybrid framework
/// with alternative VBBMC recursions (`Ref++`, `Rcd++`, `Fac++`).
pub fn table3(scale: &ExperimentScale) -> Table {
    let algorithms = ablation_algorithms();
    let mut header: Vec<&str> = vec!["Graph"];
    header.extend(algorithms.iter().map(|a| a.name));
    let mut table = Table::new(
        "Table III — ablation & hybrid framework implementations (seconds)",
        &header,
    );
    for dataset in all_datasets() {
        let g = scale.build(&dataset);
        let mut row = vec![dataset.short.to_string()];
        for algo in &algorithms {
            let m = measure(&g, &algo.config);
            row.push(format!("{:.3}", m.seconds));
        }
        table.add_row(row);
    }
    table
}

/// Table IV: effect of the depth `d` at which the hybrid framework switches
/// from edge-oriented to vertex-oriented branching.
pub fn table4(scale: &ExperimentScale) -> Table {
    let depths = [1usize, 2, 3];
    let mut table = Table::new(
        "Table IV — hybrid switch depth d (seconds / #Calls)",
        &[
            "Graph",
            "d=1 time",
            "d=1 #Calls",
            "d=2 time",
            "d=2 #Calls",
            "d=3 time",
            "d=3 #Calls",
        ],
    );
    for dataset in all_datasets() {
        let g = scale.build(&dataset);
        let mut row = vec![dataset.short.to_string()];
        for &d in &depths {
            let m = measure(&g, &SolverConfig::hbbmc_pp_depth(d));
            row.push(format!("{:.3}", m.seconds));
            row.push(format_count(m.stats.recursive_calls));
        }
        table.add_row(row);
    }
    table
}

/// Table V: effect of the early-termination level `t ∈ {0, 1, 2, 3}`.
pub fn table5(scale: &ExperimentScale) -> Table {
    let mut table = Table::new(
        "Table V — early-termination level t (seconds / #Calls / ratio)",
        &[
            "Graph",
            "t=0 time",
            "t=0 #Calls",
            "t=1 time",
            "t=1 #Calls",
            "t=1 ratio",
            "t=2 time",
            "t=2 #Calls",
            "t=2 ratio",
            "t=3 time",
            "t=3 #Calls",
            "t=3 ratio",
        ],
    );
    for dataset in all_datasets() {
        let g = scale.build(&dataset);
        let mut row = vec![dataset.short.to_string()];
        for t in 0..=3usize {
            let m = measure(&g, &SolverConfig::hbbmc_pp_et(t));
            row.push(format!("{:.3}", m.seconds));
            row.push(format_count(m.stats.recursive_calls));
            if t > 0 {
                row.push(format!("{:.1}%", 100.0 * m.stats.et_ratio()));
            }
        }
        table.add_row(row);
    }
    table
}

/// Table VI: effect of the truss-based edge ordering against the degeneracy
/// vertex ordering and the two alternative edge orderings.
pub fn table6(scale: &ExperimentScale) -> Table {
    let algorithms = ordering_algorithms();
    let mut header: Vec<&str> = vec!["Graph"];
    header.extend(algorithms.iter().map(|a| a.name));
    let mut table = Table::new(
        "Table VI — effect of the truss-based edge ordering (seconds)",
        &header,
    );
    for dataset in all_datasets() {
        let g = scale.build(&dataset);
        let mut row = vec![dataset.short.to_string()];
        for algo in &algorithms {
            let m = measure(&g, &algo.config);
            row.push(format!("{:.3}", m.seconds));
        }
        table.add_row(row);
    }
    table
}

/// Extension experiment (not a paper table): the early-termination technique
/// applied to the vertex-oriented baselines, demonstrating the paper's remark
/// that ET is orthogonal to the branching framework.
pub fn ext_et_orthogonality(scale: &ExperimentScale) -> Table {
    let pairs = [
        ("RDegen", SolverConfig::r_degen()),
        ("RDegen+ET", SolverConfig::r_degen_et()),
        ("RRcd", SolverConfig::r_rcd()),
        ("RRcd+ET", SolverConfig::r_rcd_et()),
        ("HBBMC+", SolverConfig::hbbmc_plus()),
        ("HBBMC++", SolverConfig::hbbmc_pp()),
    ];
    let mut header: Vec<&str> = vec!["Graph"];
    header.extend(pairs.iter().map(|(n, _)| *n));
    let mut table = Table::new(
        "Extension — early termination applied to every framework (seconds)",
        &header,
    );
    for dataset in all_datasets() {
        let g = scale.build(&dataset);
        let mut row = vec![dataset.short.to_string()];
        for (_, config) in &pairs {
            let m = measure(&g, config);
            row.push(format!("{:.3}", m.seconds));
        }
        table.add_row(row);
    }
    table
}

/// Which synthetic model a Figure 5 panel uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyntheticModel {
    /// Erdős–Rényi `G(n, m)`.
    ErdosRenyi,
    /// Barabási–Albert preferential attachment.
    BarabasiAlbert,
}

fn synthesize(model: SyntheticModel, n: usize, rho: usize, seed: u64) -> Graph {
    match model {
        SyntheticModel::ErdosRenyi => erdos_renyi(n, n * rho, seed),
        SyntheticModel::BarabasiAlbert => barabasi_albert(n, rho, seed),
    }
}

/// Figure 5(a)/(b): scalability in the number of vertices at fixed density ρ = 20.
pub fn fig5_scalability(model: SyntheticModel, scale: &ExperimentScale) -> Table {
    let algorithms = baseline_algorithms();
    let title = match model {
        SyntheticModel::ErdosRenyi => "Figure 5(a) — scalability, ER model (seconds, ρ=20)",
        SyntheticModel::BarabasiAlbert => "Figure 5(b) — scalability, BA model (seconds, ρ=20)",
    };
    let mut header: Vec<&str> = vec!["n"];
    header.extend(algorithms.iter().map(|a| a.name));
    header.push("δ");
    header.push("τ");
    let mut table = Table::new(title, &header);
    for &n in scale.fig5_vertex_counts {
        let g = synthesize(model, n, 20, 42 + n as u64);
        let stats = GraphStats::compute(&g);
        let mut row = vec![n.to_string()];
        for algo in &algorithms {
            let m = measure(&g, &algo.config);
            row.push(format!("{:.3}", m.seconds));
        }
        row.push(stats.degeneracy.to_string());
        row.push(stats.tau.to_string());
        table.add_row(row);
    }
    table
}

/// Figure 5(c)/(d): effect of the edge density ρ at a fixed vertex count.
pub fn fig5_density(model: SyntheticModel, scale: &ExperimentScale) -> Table {
    let algorithms = baseline_algorithms();
    let title = match model {
        SyntheticModel::ErdosRenyi => "Figure 5(c) — varying density, ER model (seconds)",
        SyntheticModel::BarabasiAlbert => "Figure 5(d) — varying density, BA model (seconds)",
    };
    let mut header: Vec<&str> = vec!["rho"];
    header.extend(algorithms.iter().map(|a| a.name));
    header.push("δ");
    header.push("τ");
    let mut table = Table::new(title, &header);
    for &rho in scale.fig5_densities {
        let g = synthesize(model, scale.fig5_density_n, rho, 77 + rho as u64);
        let stats = GraphStats::compute(&g);
        let mut row = vec![rho.to_string()];
        for algo in &algorithms {
            let m = measure(&g, &algo.config);
            row.push(format!("{:.3}", m.seconds));
        }
        row.push(stats.degeneracy.to_string());
        row.push(stats.tau.to_string());
        table.add_row(row);
    }
    table
}

/// Bytes of the graph's live CSR arrays (offsets plus adjacency).
fn csr_bytes(g: &Graph) -> u64 {
    (std::mem::size_of_val(g.csr_offsets()) + std::mem::size_of_val(g.csr_adjacency())) as u64
}

/// Bytes a dense `n × n` adjacency bitmap with 64-bit words would need.
fn dense_bytes(n: usize) -> u64 {
    (n as u64) * (n as u64).div_ceil(64) * 8
}

/// The process's peak resident set (`VmHWM`) in bytes, where
/// `/proc/self/status` exists.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

const MIB: f64 = 1024.0 * 1024.0;

/// Memory wall (not a paper table): `er-scale` graphs (`m = 10n`) held in
/// the CSR global layer, against the analytic size of the dense bitmap the
/// layer replaces, with an `HBBMC++` run and the process's peak RSS.
pub fn memwall(scale: &ExperimentScale) -> Table {
    let preset = gen_preset_by_name("er-scale").expect("er-scale is a registered preset");
    let mut table = Table::new(
        "Memory wall — er-scale (m = 10n) in the CSR global layer",
        &[
            "n",
            "m",
            "CSR MiB",
            "dense MiB",
            "dense/CSR",
            "HBBMC++ s",
            "#cliques",
            "VmHWM MiB",
        ],
    );
    table.set_note(
        "VmHWM is the peak resident set of the whole process so far: the generator, \
         the graph, the solver and every earlier row or experiment of the run.",
    );
    for &n in scale.memwall_vertex_counts {
        let g = preset.build(n, 7);
        let (csr, dense) = (csr_bytes(&g), dense_bytes(g.n()));
        let m = measure(&g, &SolverConfig::hbbmc_pp());
        table.add_row(vec![
            g.n().to_string(),
            g.m().to_string(),
            format!("{:.1}", csr as f64 / MIB),
            format!("{:.0}", dense as f64 / MIB),
            format!("{:.0}×", dense as f64 / csr as f64),
            format!("{:.3}", m.seconds),
            m.cliques.to_string(),
            peak_rss_bytes().map_or_else(|| "n/a".into(), |b| format!("{:.0}", b as f64 / MIB)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> ExperimentScale {
        ExperimentScale {
            dataset_scale: 0.04,
            fig5_vertex_counts: &[400, 800],
            fig5_densities: &[5, 10],
            fig5_density_n: 500,
            memwall_vertex_counts: &[1_000],
        }
    }

    #[test]
    fn table1_lists_all_surrogates() {
        let t = table1(&tiny_scale());
        assert_eq!(t.len(), 16);
    }

    #[test]
    fn table2_produces_a_row_per_dataset() {
        let t = table2(&tiny_scale());
        assert_eq!(t.len(), 16);
        assert!(t.render().contains("HBBMC++"));
    }

    #[test]
    fn table4_and_5_have_expected_columns() {
        let t4 = table4(&tiny_scale());
        assert!(t4.render().contains("d=3 #Calls"));
        let t5 = table5(&tiny_scale());
        assert!(t5.render().contains("t=3 ratio"));
    }

    #[test]
    fn fig5_tables_have_one_row_per_point() {
        let s = tiny_scale();
        assert_eq!(fig5_scalability(SyntheticModel::ErdosRenyi, &s).len(), 2);
        assert_eq!(fig5_density(SyntheticModel::BarabasiAlbert, &s).len(), 2);
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
    fn memwall_has_one_row_per_size_with_csr_below_dense() {
        let t = memwall(&tiny_scale());
        assert_eq!(t.len(), 1);
        let text = t.render();
        assert!(text.contains("VmHWM MiB"));
        assert!(text.contains("whole process"));
        let g = gen_preset_by_name("er-scale").unwrap().build(1_000, 7);
        assert_eq!(g.m(), 10 * g.n());
        assert!(
            csr_bytes(&g) < dense_bytes(g.n()),
            "CSR must beat dense at m=10n"
        );
    }
}
