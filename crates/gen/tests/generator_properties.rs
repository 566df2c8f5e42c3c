//! Property-based tests for the synthetic generators: structural guarantees
//! that the benchmark harness and the paper's synthetic experiments rely on.

use mce_gen::{
    barabasi_albert, complete_bipartite, cycle_graph, erdos_renyi, erdos_renyi_gnp, moon_moser,
    path_graph, planted_communities, random_t_plex, star_graph, turan_graph, PlantedConfig,
};
use mce_graph::{degeneracy_ordering, truss_ordering};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn er_gnm_has_requested_edges(n in 2usize..200, density in 0usize..10, seed in 0u64..500) {
        let m = n * density;
        let g = erdos_renyi(n, m, seed);
        let possible = n * (n - 1) / 2;
        prop_assert_eq!(g.n(), n);
        prop_assert_eq!(g.m(), m.min(possible));
    }

    #[test]
    fn er_gnp_respects_probability_bounds(n in 2usize..60, p in 0.0f64..1.0, seed in 0u64..500) {
        let g = erdos_renyi_gnp(n, p, seed);
        prop_assert!(g.m() <= n * (n - 1) / 2);
        if p == 0.0 {
            prop_assert_eq!(g.m(), 0);
        }
    }

    #[test]
    fn ba_graph_is_connected_and_has_expected_size(n in 2usize..200, k in 1usize..8, seed in 0u64..500) {
        let g = barabasi_albert(n, k, seed);
        prop_assert_eq!(g.n(), n);
        // Connectivity via BFS from 0.
        let mut seen = vec![false; n];
        let mut stack = vec![0u32];
        seen[0] = true;
        while let Some(v) = stack.pop() {
            for &u in g.neighbors(v) {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    stack.push(u);
                }
            }
        }
        prop_assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn random_plexes_satisfy_their_plex_level(n in 1usize..30, t in 1usize..4, seed in 0u64..500) {
        let g = random_t_plex(n, t, seed);
        prop_assert!(g.complement().max_degree() < t);
    }

    #[test]
    fn planted_graphs_are_deterministic_and_within_bounds(
        n in 10usize..200,
        communities in 0usize..30,
        background in 0usize..300,
        seed in 0u64..100,
    ) {
        let cfg = PlantedConfig {
            n,
            communities,
            min_size: 3,
            max_size: 8,
            intra_probability: 0.9,
            background_edges: background,
            seed,
        };
        let a = planted_communities(&cfg);
        let b = planted_communities(&cfg);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.n(), n);
        prop_assert!(a.m() <= n * (n - 1) / 2);
    }

    #[test]
    fn moon_moser_tau_delta_relationship(k in 1usize..6) {
        // Moon–Moser graphs: δ = 3k−3 and τ = 3k−6 for k ≥ 2 (complete
        // multipartite structure), both strictly below the vertex count.
        let g = moon_moser(k);
        let delta = degeneracy_ordering(&g).degeneracy;
        let tau = truss_ordering(&g).tau;
        prop_assert_eq!(delta, 3 * k - 3);
        if k >= 2 {
            prop_assert_eq!(tau, 3 * k - 6);
        }
        prop_assert!(tau <= delta);
    }

    #[test]
    fn structured_graph_sizes(n in 1usize..100, a in 1usize..30, b in 1usize..30, r in 1usize..8) {
        prop_assert_eq!(path_graph(n).m(), n.saturating_sub(1));
        if n >= 3 {
            prop_assert_eq!(cycle_graph(n).m(), n);
        }
        prop_assert_eq!(star_graph(n).m(), n.saturating_sub(1));
        prop_assert_eq!(complete_bipartite(a, b).m(), a * b);
        let t = turan_graph(n, r);
        prop_assert_eq!(t.n(), n);
    }
}
