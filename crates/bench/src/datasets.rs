//! Surrogate datasets standing in for the paper's Table I graphs.
//!
//! The original evaluation uses 16 real-world graphs from
//! networkrepository.com (54K–3M vertices, up to 106M edges). They cannot be
//! bundled here and exceed the intended laptop scale, so each one is replaced
//! by a synthetic surrogate that preserves the *regime* relevant to the
//! paper's claims rather than the absolute size:
//!
//! * the edge density ρ = m/n is matched approximately,
//! * social / collaboration graphs (clique-rich, large δ−τ gap) become
//!   planted-community graphs,
//! * web graphs and meshes become Barabási–Albert or Erdős–Rényi graphs with
//!   comparable density,
//! * the surrogate sizes are a few thousand vertices so the full table
//!   (5–6 algorithms × 16 datasets) runs in minutes.
//!
//! Each surrogate reports its own measured |V|, |E|, δ, τ and ρ via
//! `experiments table1`, so the paper's condition `δ ≥ max{3, τ + 3lnρ/ln3}`
//! can be checked per graph exactly as in the original Table I.

use mce_gen::{barabasi_albert, erdos_renyi, planted_communities, PlantedConfig};
use mce_graph::Graph;

/// The generator family behind a surrogate dataset.
#[derive(Clone, Debug, PartialEq)]
pub enum DatasetSpec {
    /// Erdős–Rényi `G(n, m)` with `m = n · rho`.
    ErdosRenyi {
        /// Number of vertices.
        n: usize,
        /// Edge density ρ = m/n.
        rho: f64,
    },
    /// Barabási–Albert with attachment parameter `k` (ρ ≈ k).
    BarabasiAlbert {
        /// Number of vertices.
        n: usize,
        /// Edges added per new vertex.
        k: usize,
    },
    /// Overlapping planted communities over a sparse background.
    Planted(PlantedConfig),
}

/// A named surrogate dataset.
#[derive(Clone, Debug, PartialEq)]
pub struct Dataset {
    /// Short name used in the paper's tables (e.g. `NA`, `FB`).
    pub short: &'static str,
    /// Full dataset name in the paper (e.g. `nasasrb`).
    pub paper_name: &'static str,
    /// Category reported in Table I.
    pub category: &'static str,
    /// Generator specification of the surrogate.
    pub spec: DatasetSpec,
    /// RNG seed (fixed for reproducibility).
    pub seed: u64,
}

impl Dataset {
    /// Instantiates the surrogate graph.
    pub fn build(&self) -> Graph {
        build_scaled(self, 1.0)
    }

    /// Instantiates a scaled-down version of the surrogate (`scale ≤ 1`
    /// shrinks the vertex count); `experiments --quick` uses it to keep
    /// smoke runs short.
    pub fn build_scaled(&self, scale: f64) -> Graph {
        build_scaled(self, scale)
    }
}

fn build_scaled(dataset: &Dataset, scale: f64) -> Graph {
    let scale = scale.clamp(0.01, 1.0);
    match &dataset.spec {
        DatasetSpec::ErdosRenyi { n, rho } => {
            let n = ((*n as f64) * scale).round().max(16.0) as usize;
            // Keep the *relative* density sane when the surrogate is scaled
            // down (ρ is defined against the full-size n): an ER graph with a
            // quarter of all possible edges is already far denser than any of
            // the paper's graphs and explodes the clique count.
            let possible = n * n.saturating_sub(1) / 2;
            let m = ((n as f64 * rho).round() as usize).min(possible / 4);
            erdos_renyi(n, m, dataset.seed)
        }
        DatasetSpec::BarabasiAlbert { n, k } => {
            let n = ((*n as f64) * scale).round().max(16.0) as usize;
            barabasi_albert(n, *k, dataset.seed)
        }
        DatasetSpec::Planted(config) => {
            let mut config = config.clone();
            config.n = ((config.n as f64) * scale).round().max(16.0) as usize;
            config.communities = ((config.communities as f64) * scale).round().max(1.0) as usize;
            config.background_edges = ((config.background_edges as f64) * scale).round() as usize;
            config.seed = dataset.seed;
            planted_communities(&config)
        }
    }
}

fn planted(
    n: usize,
    communities: usize,
    min_size: usize,
    max_size: usize,
    intra: f64,
    background: usize,
) -> DatasetSpec {
    DatasetSpec::Planted(PlantedConfig {
        n,
        communities,
        min_size,
        max_size,
        intra_probability: intra,
        background_edges: background,
        seed: 0, // overridden by Dataset::seed at build time
    })
}

/// The 16 surrogate datasets mirroring the paper's Table I, in the same order.
pub fn all_datasets() -> Vec<Dataset> {
    vec![
        Dataset {
            short: "NA",
            paper_name: "nasasrb",
            category: "Social Network",
            spec: DatasetSpec::ErdosRenyi {
                n: 2_200,
                rho: 24.0,
            },
            seed: 101,
        },
        Dataset {
            short: "FB",
            paper_name: "fbwosn",
            category: "Social Network",
            spec: planted(3_600, 650, 5, 14, 0.92, 18_000),
            seed: 102,
        },
        Dataset {
            short: "WE",
            paper_name: "websk",
            category: "Web Graph",
            spec: DatasetSpec::BarabasiAlbert { n: 5_000, k: 3 },
            seed: 103,
        },
        Dataset {
            short: "WK",
            paper_name: "wikitrust",
            category: "Web Graph",
            spec: planted(4_200, 450, 4, 11, 0.9, 14_000),
            seed: 104,
        },
        Dataset {
            short: "SH",
            paper_name: "shipsec5",
            category: "Social Network",
            spec: DatasetSpec::ErdosRenyi {
                n: 3_200,
                rho: 12.0,
            },
            seed: 105,
        },
        Dataset {
            short: "ST",
            paper_name: "stanford",
            category: "Social Network",
            spec: DatasetSpec::BarabasiAlbert { n: 5_000, k: 7 },
            seed: 106,
        },
        Dataset {
            short: "DB",
            paper_name: "dblp",
            category: "Collaboration",
            spec: planted(5_000, 1_100, 3, 8, 1.0, 6_000),
            seed: 107,
        },
        Dataset {
            short: "DE",
            paper_name: "dielfilter",
            category: "Other",
            spec: DatasetSpec::ErdosRenyi {
                n: 2_000,
                rho: 38.0,
            },
            seed: 108,
        },
        Dataset {
            short: "DG",
            paper_name: "digg",
            category: "Social Network",
            spec: planted(6_000, 750, 6, 18, 0.93, 26_000),
            seed: 109,
        },
        Dataset {
            short: "YO",
            paper_name: "youtube",
            category: "Social Network",
            spec: DatasetSpec::BarabasiAlbert { n: 8_000, k: 3 },
            seed: 110,
        },
        Dataset {
            short: "PO",
            paper_name: "pokec",
            category: "Social Network",
            spec: planted(6_000, 600, 5, 13, 0.9, 40_000),
            seed: 111,
        },
        Dataset {
            short: "SK",
            paper_name: "skitter",
            category: "Web Graph",
            spec: DatasetSpec::BarabasiAlbert { n: 7_000, k: 6 },
            seed: 112,
        },
        Dataset {
            short: "CN",
            paper_name: "wikicn",
            category: "Web Graph",
            spec: planted(7_000, 650, 4, 12, 0.92, 22_000),
            seed: 113,
        },
        Dataset {
            short: "BA",
            paper_name: "baidu",
            category: "Web Graph",
            spec: DatasetSpec::BarabasiAlbert { n: 6_500, k: 8 },
            seed: 114,
        },
        Dataset {
            short: "OR",
            paper_name: "orkut",
            category: "Social Network",
            spec: planted(4_500, 850, 8, 20, 0.9, 36_000),
            seed: 115,
        },
        Dataset {
            short: "SO",
            paper_name: "socfba",
            category: "Social Network",
            spec: planted(6_500, 800, 5, 12, 0.92, 24_000),
            seed: 116,
        },
    ]
}

/// Looks up a dataset by its short name (case-insensitive).
pub fn dataset_by_name(short: &str) -> Option<Dataset> {
    all_datasets()
        .into_iter()
        .find(|d| d.short.eq_ignore_ascii_case(short))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_datasets_matching_table1_order() {
        let d = all_datasets();
        assert_eq!(d.len(), 16);
        assert_eq!(d[0].short, "NA");
        assert_eq!(d[15].short, "SO");
        let names: Vec<&str> = d.iter().map(|x| x.short).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 16, "short names are unique");
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(dataset_by_name("db").unwrap().paper_name, "dblp");
        assert!(dataset_by_name("nope").is_none());
    }

    #[test]
    fn scaled_build_shrinks_graph() {
        let d = dataset_by_name("WE").unwrap();
        let full = d.build_scaled(0.2);
        let small = d.build_scaled(0.05);
        assert!(small.n() < full.n());
        assert!(small.n() >= 16);
    }

    #[test]
    fn builds_are_deterministic() {
        let d = dataset_by_name("NA").unwrap();
        let a = d.build_scaled(0.1);
        let b = d.build_scaled(0.1);
        assert_eq!(a, b);
    }

    #[test]
    fn surrogates_have_positive_density() {
        // Use a small scale to keep the test fast; density is scale-invariant enough.
        for d in all_datasets() {
            let g = d.build_scaled(0.08);
            assert!(g.m() > 0, "{} surrogate has edges", d.short);
            assert!(g.edge_density() > 0.5, "{} surrogate density", d.short);
        }
    }
}
