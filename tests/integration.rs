//! Cross-crate integration tests: generators → graph substrate → enumeration
//! frameworks → verification, exercised end-to-end the way a downstream user
//! would combine the crates.

use hbbmc::{
    count_maximal_cliques, enumerate, enumerate_collect, naive_maximal_cliques,
    par_count_maximal_cliques, verify_cliques, CollectReporter, CountReporter, MinSizeFilter,
    SolverConfig,
};
use mce_gen::{
    barabasi_albert, erdos_renyi, moon_moser, planted_communities, random_t_plex, turan_graph,
    PlantedConfig,
};
use mce_graph::{io, GraphStats};

#[test]
fn all_named_presets_agree_on_a_realistic_community_graph() {
    let graph = planted_communities(&PlantedConfig {
        n: 300,
        communities: 45,
        min_size: 4,
        max_size: 9,
        intra_probability: 0.9,
        background_edges: 800,
        seed: 31,
    });
    let reference = count_maximal_cliques(&graph, &SolverConfig::r_degen()).0;
    assert!(
        reference > 100,
        "workload should be non-trivial, got {reference}"
    );
    for (name, config) in SolverConfig::named_presets() {
        if name == "BK" || name == "EBBMC" {
            // The unpruned variants are exponential-ish; keep them to the small tests.
            continue;
        }
        let (count, stats) = count_maximal_cliques(&graph, &config);
        assert_eq!(count, reference, "{name} disagrees");
        assert_eq!(stats.maximal_cliques, reference, "{name} stats disagree");
    }
}

#[test]
fn enumeration_output_is_verified_on_er_and_ba_graphs() {
    for graph in [erdos_renyi(300, 2_400, 5), barabasi_albert(300, 6, 5)] {
        let (cliques, stats) = enumerate_collect(&graph, &SolverConfig::hbbmc_pp());
        assert_eq!(cliques.len() as u64, stats.maximal_cliques);
        assert!(verify_cliques(&graph, &cliques).is_empty());
        // Every vertex is covered by at least one maximal clique.
        for v in graph.vertices() {
            assert!(cliques.iter().any(|c| c.contains(&v)));
        }
    }
}

#[test]
fn moon_moser_worst_case_counts() {
    for k in 1..=6usize {
        let g = moon_moser(k);
        let (count, _) = count_maximal_cliques(&g, &SolverConfig::hbbmc_pp());
        assert_eq!(count, 3u64.pow(k as u32), "Moon–Moser k={k}");
    }
    // Turán graph with unequal parts still matches the reference.
    let g = turan_graph(10, 3);
    let (got, _) = enumerate_collect(&g, &SolverConfig::hbbmc_pp());
    assert_eq!(got, naive_maximal_cliques(&g));
}

#[test]
fn io_round_trip_preserves_clique_structure() {
    let graph = planted_communities(&PlantedConfig {
        n: 200,
        communities: 30,
        min_size: 3,
        max_size: 7,
        intra_probability: 1.0,
        background_edges: 300,
        seed: 77,
    });
    let mut bytes = Vec::new();
    io::write_edge_list(&graph, &mut bytes).unwrap();
    let reloaded = io::read_edge_list(bytes.as_slice()).unwrap();
    // Vertex ids may be relabelled (isolated vertices are dropped by the edge
    // list format), but the number of maximal cliques containing an edge must
    // be preserved.
    let original = count_maximal_cliques(&graph, &SolverConfig::hbbmc_pp()).0;
    let isolated = graph.vertices().filter(|&v| graph.degree(v) == 0).count() as u64;
    let reloaded_count = count_maximal_cliques(&reloaded, &SolverConfig::hbbmc_pp()).0;
    assert_eq!(reloaded_count, original - isolated);
}

#[test]
fn t_plex_generators_trigger_early_termination() {
    // Kept at a modest size: the *reference* enumerator (no pivoting) explores
    // ~2^n branches on near-complete graphs, so n must stay small here; the
    // optimised frameworks handle much larger plexes.
    for t in 1..=3usize {
        let g = random_t_plex(18, t, 9);
        assert!(g.complement().max_degree() < t);
        let (cliques, stats) = enumerate_collect(&g, &SolverConfig::hbbmc_pp());
        assert_eq!(cliques, naive_maximal_cliques(&g));
        if t > 1 {
            assert!(
                stats.maximal_cliques > 1,
                "t={t} plexes have multiple maximal cliques"
            );
        }
    }
}

#[test]
fn reporters_compose_with_the_solver() {
    let graph = planted_communities(&PlantedConfig {
        n: 300,
        communities: 50,
        min_size: 4,
        max_size: 8,
        intra_probability: 0.95,
        background_edges: 500,
        seed: 13,
    });
    let mut counter = CountReporter::new();
    let stats = enumerate(&graph, &SolverConfig::hbbmc_pp(), &mut counter);
    assert_eq!(counter.count, stats.maximal_cliques);
    assert_eq!(counter.max_size, stats.max_clique_size);

    let mut filtered = MinSizeFilter::new(CollectReporter::new(), 4);
    enumerate(&graph, &SolverConfig::hbbmc_pp(), &mut filtered);
    let big = filtered.into_inner().into_sorted();
    assert!(big.iter().all(|c| c.len() >= 4));
    assert!(big.len() as u64 <= counter.count);
    assert!(
        !big.is_empty(),
        "the planted communities contain cliques of size >= 4"
    );
}

#[test]
fn parallel_and_sequential_agree_on_medium_graphs() {
    let graph = erdos_renyi(500, 5_000, 21);
    let (seq, _) = count_maximal_cliques(&graph, &SolverConfig::hbbmc_pp());
    for threads in [2usize, 4] {
        let (par, stats) = par_count_maximal_cliques(&graph, &SolverConfig::hbbmc_pp(), threads);
        assert_eq!(par, seq);
        assert_eq!(stats.maximal_cliques, seq);
    }
}

#[test]
fn graph_stats_summarise_the_surrogate_regime() {
    let graph = planted_communities(&PlantedConfig {
        n: 500,
        communities: 80,
        min_size: 5,
        max_size: 10,
        intra_probability: 0.95,
        background_edges: 1_000,
        seed: 3,
    });
    let stats = GraphStats::compute(&graph);
    assert_eq!(stats.n, 500);
    assert!(
        stats.degeneracy >= 4,
        "planted communities force a non-trivial core"
    );
    assert!(stats.tau <= stats.degeneracy);
    assert!(stats.rho > 1.0);
}
