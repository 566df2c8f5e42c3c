//! Named generator presets: a string → generator registry for drivers.
//!
//! Every generator family of this crate is reachable through a flat
//! `(name, n, seed)` interface so binaries (the `mce gen` subcommand, future
//! harnesses) can expose "write me a graph of roughly n vertices from model X"
//! without hard-coding each generator's parameter shape. Parameters other
//! than the size are fixed to representative defaults; callers needing full
//! control use the underlying functions directly.

use mce_graph::Graph;

use crate::ba::barabasi_albert;
use crate::er::erdos_renyi;
use crate::hub::planted_hub;
use crate::moon_moser::moon_moser;
use crate::planted::{planted_communities, PlantedConfig};
use crate::plex::random_t_plex;
use crate::structured::{complete_bipartite, cycle_graph, path_graph, star_graph, turan_graph};

/// The largest `n` a preset with `O(n)` edges accepts.
pub const LINEAR_MAX_N: usize = 50_000_000;

/// The largest `n` a preset with about n²/2 edges accepts. At this size such
/// a graph has up to 33.5M edges, and building it peaks at a few hundred MiB,
/// inside the budget that `mce_graph::io::MAX_DIMACS_VERTICES` sets for a
/// loaded graph.
pub const QUADRATIC_MAX_N: usize = 8_192;

/// A named graph generator with a uniform `(n, seed)` interface.
pub struct GenPreset {
    /// Stable lookup name (lowercase, hyphenated).
    pub name: &'static str,
    /// One-line human description shown by `mce gen --list`.
    pub description: &'static str,
    /// The largest `n` the preset accepts: [`LINEAR_MAX_N`], or
    /// [`QUADRATIC_MAX_N`] when the edge count grows as n². Drivers reject a
    /// larger `n` before building anything.
    pub max_n: usize,
    build: fn(usize, u64) -> Graph,
}

impl GenPreset {
    /// Builds a graph of roughly `n` vertices from `seed`. Deterministic:
    /// identical `(n, seed)` always yields an identical graph.
    pub fn build(&self, n: usize, seed: u64) -> Graph {
        (self.build)(n, seed)
    }
}

fn build_er_sparse(n: usize, seed: u64) -> Graph {
    erdos_renyi(n, 4 * n, seed)
}

fn build_er_scale(n: usize, seed: u64) -> Graph {
    // m = 10n: the memory-wall acceptance shape (1M vertices / 10M edges at
    // --n 1000000). A dense n×n bitmap of that graph would need ~125 GB;
    // the CSR layer holds it in 8(n+1) + 8m bytes ≈ 88 MB.
    erdos_renyi(n, 10 * n, seed)
}

fn build_er_dense(n: usize, seed: u64) -> Graph {
    let possible = n * n.saturating_sub(1) / 2;
    erdos_renyi(n, (16 * n).min(possible / 4), seed)
}

fn build_ba(n: usize, seed: u64) -> Graph {
    barabasi_albert(n, 4, seed)
}

fn build_moon_moser(n: usize, _seed: u64) -> Graph {
    moon_moser((n / 3).max(1))
}

fn build_planted(n: usize, seed: u64) -> Graph {
    planted_communities(&PlantedConfig {
        n,
        communities: (n / 8).max(1),
        min_size: 4,
        max_size: 10,
        intra_probability: 0.9,
        background_edges: 2 * n,
        seed,
    })
}

fn build_planted_hub(n: usize, _seed: u64) -> Graph {
    planted_hub(n, 4)
}

fn build_plex(n: usize, seed: u64) -> Graph {
    random_t_plex(n, 3, seed)
}

fn build_path(n: usize, _seed: u64) -> Graph {
    path_graph(n)
}

fn build_cycle(n: usize, _seed: u64) -> Graph {
    cycle_graph(n)
}

fn build_star(n: usize, _seed: u64) -> Graph {
    star_graph(n)
}

fn build_complete(n: usize, _seed: u64) -> Graph {
    Graph::complete(n)
}

fn build_bipartite(n: usize, _seed: u64) -> Graph {
    complete_bipartite(n / 2, n - n / 2)
}

fn build_turan(n: usize, _seed: u64) -> Graph {
    turan_graph(n, 4)
}

/// All named presets, alphabetically by name.
pub const GEN_PRESETS: &[GenPreset] = &[
    GenPreset {
        name: "ba",
        description: "Barabási–Albert preferential attachment, 4 edges per new vertex",
        max_n: LINEAR_MAX_N,
        build: build_ba,
    },
    GenPreset {
        name: "bipartite",
        description: "complete bipartite graph K_{n/2,n-n/2}",
        max_n: QUADRATIC_MAX_N,
        build: build_bipartite,
    },
    GenPreset {
        name: "complete",
        description: "complete graph K_n (one maximal clique)",
        max_n: QUADRATIC_MAX_N,
        build: build_complete,
    },
    GenPreset {
        name: "cycle",
        description: "cycle graph C_n",
        max_n: LINEAR_MAX_N,
        build: build_cycle,
    },
    GenPreset {
        name: "er-dense",
        description: "Erdős–Rényi G(n, m) with m = min(16n, n(n-1)/8)",
        max_n: LINEAR_MAX_N,
        build: build_er_dense,
    },
    GenPreset {
        name: "er-scale",
        description: "Erdős–Rényi G(n, m) with m = 10n (bounded-memory CSR stress shape)",
        max_n: LINEAR_MAX_N,
        build: build_er_scale,
    },
    GenPreset {
        name: "er-sparse",
        description: "Erdős–Rényi G(n, m) with m = 4n",
        max_n: LINEAR_MAX_N,
        build: build_er_sparse,
    },
    GenPreset {
        name: "moon-moser",
        description: "Moon–Moser graph K_{3,3,…,3} on ~n vertices (3^(n/3) maximal cliques)",
        max_n: QUADRATIC_MAX_N,
        build: build_moon_moser,
    },
    GenPreset {
        name: "path",
        description: "path graph P_n",
        max_n: LINEAR_MAX_N,
        build: build_path,
    },
    GenPreset {
        name: "planted",
        description: "overlapping planted communities over a sparse background",
        max_n: LINEAR_MAX_N,
        build: build_planted,
    },
    GenPreset {
        name: "planted-hub",
        description: "hub vertex over a K_{4,4,…} core: every maximal clique contains the hub (parallel-engine stress case)",
        max_n: QUADRATIC_MAX_N,
        build: build_planted_hub,
    },
    GenPreset {
        name: "plex",
        description: "random 3-plex (complement has max degree 2)",
        max_n: QUADRATIC_MAX_N,
        build: build_plex,
    },
    GenPreset {
        name: "star",
        description: "star graph S_n (hub plus n-1 leaves)",
        max_n: LINEAR_MAX_N,
        build: build_star,
    },
    GenPreset {
        name: "turan",
        description: "Turán graph T(n, 4) (complete 4-partite)",
        max_n: QUADRATIC_MAX_N,
        build: build_turan,
    },
];

/// Looks up a preset by name, case-insensitively.
pub fn gen_preset_by_name(name: &str) -> Option<&'static GenPreset> {
    GEN_PRESETS
        .iter()
        .find(|p| p.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_sorted_and_lowercase() {
        let names: Vec<&str> = GEN_PRESETS.iter().map(|p| p.name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(names, sorted, "presets sorted and unique");
        for n in names {
            assert_eq!(n, n.to_ascii_lowercase());
        }
    }

    #[test]
    fn every_preset_builds_deterministically() {
        for p in GEN_PRESETS {
            let a = p.build(24, 7);
            let b = p.build(24, 7);
            assert_eq!(a, b, "{} deterministic", p.name);
            assert!(a.n() >= 1, "{} nonempty", p.name);
        }
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert_eq!(gen_preset_by_name("ER-SPARSE").unwrap().name, "er-sparse");
        assert!(gen_preset_by_name("nope").is_none());
    }

    #[test]
    fn quadratic_presets_carry_the_quadratic_cap() {
        // At n = 256 the linear presets emit at most 16n edges and the
        // quadratic ones several times that, so the measured growth decides
        // which cap each preset must declare.
        let n = 256;
        for p in GEN_PRESETS {
            let quadratic = p.build(n, 7).m() > 16 * n;
            let expected = if quadratic {
                QUADRATIC_MAX_N
            } else {
                LINEAR_MAX_N
            };
            assert_eq!(p.max_n, expected, "{}", p.name);
        }
    }

    #[test]
    fn seed_changes_random_models() {
        let a = gen_preset_by_name("er-sparse").unwrap().build(40, 1);
        let b = gen_preset_by_name("er-sparse").unwrap().build(40, 2);
        assert_ne!(a, b);
    }
}
