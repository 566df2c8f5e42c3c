//! Property-based tests: every framework configuration must agree with the
//! reference enumerator on randomly generated graphs, and the structural
//! invariants of the output (clique-ness, maximality, uniqueness) must hold.

use hbbmc::{
    enumerate_collect, naive_maximal_cliques, par_count_maximal_cliques, run_query, verify_cliques,
    CliqueLineFormat, CliqueReporter, CollectReporter, Query, QuerySpec, SolverConfig,
    WriterReporter,
};
use mce_gen::{
    barabasi_albert, erdos_renyi, erdos_renyi_gnp, moon_moser, planted_communities, planted_hub,
    planted_hub_clique_count, random_t_plex, PlantedConfig,
};
use mce_graph::Graph;
use proptest::prelude::*;

/// Streams the full ordered enumeration of `g` under `cfg` into `reporter`.
fn ordered_into(
    g: &Graph,
    cfg: &SolverConfig,
    threads: usize,
    reporter: &mut (impl CliqueReporter + Send),
) {
    let query = Query::new(QuerySpec::Enumerate)
        .with_config(*cfg)
        .with_threads(threads);
    run_query(g, query, reporter).expect("valid config");
}

/// Renders the full ordered stream of `g` under `cfg` to text bytes.
fn ordered_text(g: &Graph, cfg: &SolverConfig, threads: usize) -> Vec<u8> {
    let mut reporter = WriterReporter::new(Vec::new(), CliqueLineFormat::Text);
    ordered_into(g, cfg, threads, &mut reporter);
    reporter.finish().expect("in-memory sink")
}

/// Strategy: a random graph given as (n, edge list) with n ≤ 28.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..28).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_edges.min(120))
            .prop_map(move |edges| Graph::from_edges(n, edges).expect("endpoints in range"))
    })
}

/// The configurations exercised by the agreement properties (kept to the most
/// structurally distinct ones so the property tests stay fast).
fn core_configs() -> Vec<(&'static str, SolverConfig)> {
    vec![
        ("HBBMC++", SolverConfig::hbbmc_pp()),
        ("HBBMC+", SolverConfig::hbbmc_plus()),
        ("HBBMC d=2", SolverConfig::hbbmc_pp_depth(2)),
        ("EBBMC", SolverConfig::ebbmc()),
        ("RRef", SolverConfig::r_ref()),
        ("RDegen", SolverConfig::r_degen()),
        ("RRcd", SolverConfig::r_rcd()),
        ("RFac", SolverConfig::r_fac()),
        ("BK", SolverConfig::bk_plain()),
        ("BK_Degree", SolverConfig::bk_degree()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_frameworks_agree_with_reference_on_random_graphs(g in arb_graph()) {
        let expected = naive_maximal_cliques(&g);
        for (name, config) in core_configs() {
            let (got, stats) = enumerate_collect(&g, &config);
            prop_assert_eq!(&got, &expected, "{} on n={} m={}", name, g.n(), g.m());
            prop_assert_eq!(stats.maximal_cliques as usize, expected.len());
        }
    }

    #[test]
    fn output_invariants_hold_on_random_graphs(g in arb_graph()) {
        let (got, _) = enumerate_collect(&g, &SolverConfig::hbbmc_pp());
        prop_assert!(verify_cliques(&g, &got).is_empty());
        // Every vertex belongs to at least one maximal clique.
        for v in g.vertices() {
            prop_assert!(got.iter().any(|c| c.contains(&v)), "vertex {} uncovered", v);
        }
    }

    #[test]
    fn parallel_enumeration_matches_sequential(g in arb_graph(), threads in 1usize..5) {
        let (seq, _) = enumerate_collect(&g, &SolverConfig::hbbmc_pp());
        let mut par = CollectReporter::new();
        ordered_into(&g, &SolverConfig::hbbmc_pp(), threads, &mut par);
        prop_assert_eq!(seq, par.into_sorted());
    }

    #[test]
    fn early_termination_levels_are_equivalent(g in arb_graph()) {
        let baseline = enumerate_collect(&g, &SolverConfig::hbbmc_pp_et(0)).0;
        for t in 1..=3usize {
            let (got, _) = enumerate_collect(&g, &SolverConfig::hbbmc_pp_et(t));
            prop_assert_eq!(&got, &baseline, "t = {}", t);
        }
    }

    #[test]
    fn graph_reduction_does_not_change_the_result(g in arb_graph()) {
        let with_gr = enumerate_collect(&g, &SolverConfig::hbbmc_pp()).0;
        let mut cfg = SolverConfig::hbbmc_pp();
        cfg.graph_reduction = false;
        let without_gr = enumerate_collect(&g, &cfg).0;
        prop_assert_eq!(with_gr, without_gr);
    }

    #[test]
    fn random_er_graphs_agree(n in 10usize..60, density in 1usize..8, seed in 0u64..1000) {
        let g = erdos_renyi(n, n * density, seed);
        let expected = naive_maximal_cliques(&g);
        let (got, _) = enumerate_collect(&g, &SolverConfig::hbbmc_pp());
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn all_presets_agree_on_gnp_graphs(n in 8usize..36, p in 0.05f64..0.6, seed in 0u64..1000) {
        let g = erdos_renyi_gnp(n, p, seed);
        let expected = naive_maximal_cliques(&g);
        for (name, config) in SolverConfig::named_presets() {
            let (got, _) = enumerate_collect(&g, &config);
            prop_assert_eq!(&got, &expected, "{} on G({}, {:.2})", name, n, p);
        }
    }

    #[test]
    fn all_presets_agree_on_planted_clique_graphs(
        n in 16usize..48,
        communities in 2usize..6,
        seed in 0u64..500,
    ) {
        let g = planted_communities(&PlantedConfig {
            n,
            communities,
            min_size: 3,
            max_size: 8,
            intra_probability: 1.0, // planted cliques, not near-cliques
            background_edges: n,
            seed,
        });
        let expected = naive_maximal_cliques(&g);
        for (name, config) in SolverConfig::named_presets() {
            let (got, _) = enumerate_collect(&g, &config);
            prop_assert_eq!(&got, &expected, "{} on planted n={}", name, n);
        }
    }

    #[test]
    fn thread_counts_are_deterministic(n in 10usize..50, density in 1usize..6, seed in 0u64..500) {
        // The same clique count must come out of 1/2/4/8 workers.
        let g = erdos_renyi(n, n * density, seed);
        let expected = naive_maximal_cliques(&g).len() as u64;
        for threads in [1usize, 2, 4, 8] {
            let (count, stats) = par_count_maximal_cliques(&g, &SolverConfig::hbbmc_pp(), threads);
            prop_assert_eq!(count, expected, "x{}", threads);
            prop_assert_eq!(stats.maximal_cliques, expected);
        }
    }

    #[test]
    fn splitting_ordered_stream_matches_sequential_on_ba_graphs(
        n in 10usize..44,
        k in 1usize..6,
        seed in 0u64..500,
    ) {
        // The ordered stream must be byte-identical to the sequential one at
        // any thread count, even when sub-branches are donated mid-recursion.
        let g = barabasi_albert(n, k, seed);
        for cfg in [SolverConfig::hbbmc_pp(), SolverConfig::r_degen()] {
            let baseline = ordered_text(&g, &cfg, 1);
            for threads in [1usize, 2, 4, 8] {
                prop_assert_eq!(
                    ordered_text(&g, &cfg, threads),
                    baseline.clone(),
                    "BA n={} k={} seed={} x{}", n, k, seed, threads
                );
            }
        }
    }

    #[test]
    fn splitting_ordered_stream_matches_sequential_on_planted_hub(
        parts in 2usize..5,
        part_size in 2usize..5,
    ) {
        // Planted-hub graphs put the whole recursion tree under one root —
        // the maximum-skew case where the engine does the most donation work
        // and must still resequence exactly.
        let g = planted_hub(1 + parts * part_size, part_size);
        let expected = planted_hub_clique_count(g.n(), part_size);
        for cfg in [SolverConfig::bk_pivot(), SolverConfig::hbbmc_plus()] {
            let baseline = ordered_text(&g, &cfg, 1);
            for threads in [1usize, 2, 4, 8] {
                prop_assert_eq!(
                    ordered_text(&g, &cfg, threads),
                    baseline.clone(),
                    "hub parts={} size={} x{}", parts, part_size, threads
                );
            }
            let (count, _) = par_count_maximal_cliques(&g, &cfg, 4);
            prop_assert_eq!(count, expected);
        }
    }

    #[test]
    fn random_ba_graphs_agree(n in 10usize..60, k in 1usize..6, seed in 0u64..1000) {
        let g = barabasi_albert(n, k, seed);
        let expected = naive_maximal_cliques(&g);
        let (got, _) = enumerate_collect(&g, &SolverConfig::r_rcd());
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn random_plexes_agree_and_exercise_early_termination(
        n in 4usize..16,
        t in 1usize..4,
        seed in 0u64..500,
    ) {
        let g = random_t_plex(n, t, seed);
        let expected = naive_maximal_cliques(&g);
        let (got, _) = enumerate_collect(&g, &SolverConfig::hbbmc_pp());
        prop_assert_eq!(got, expected);
    }
}

#[test]
fn moon_moser_counts_match_formula_for_all_main_algorithms() {
    for k in 1..=5usize {
        let g = moon_moser(k);
        let expected = 3u64.pow(k as u32);
        for (name, config) in core_configs() {
            let (got, stats) = enumerate_collect(&g, &config);
            assert_eq!(got.len() as u64, expected, "{name} on Moon–Moser k={k}");
            assert_eq!(stats.maximal_cliques, expected, "{name} stats on k={k}");
        }
    }
}
