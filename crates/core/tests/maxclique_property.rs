//! Property tests for the branch-and-bound maximum-clique engine: the B&B
//! winner must be byte-identical to the enumeration-derived canonical winner
//! on every generator family, at every thread count, and a
//! budget-truncated search must never claim optimality.

use hbbmc::{
    maximum_clique_bb, maximum_clique_bb_with_state, run_query, Budget, CountReporter,
    MaxCliqueState, MaximumCliqueReporter, Query, QuerySpec, QueryValue, TerminatingBound,
};
use mce_gen::{barabasi_albert, erdos_renyi_gnp, planted_communities, planted_hub, PlantedConfig};
use mce_graph::Graph;
use proptest::prelude::*;

/// The enumeration-derived reference: the canonical maximum clique the
/// [`MaximumCliqueReporter`] extracts from the full deterministic stream,
/// with the recursive calls that stream took.
fn enumeration_winner(g: &Graph) -> (Vec<u32>, u64) {
    let mut best = MaximumCliqueReporter::new();
    let result =
        run_query(g, Query::new(QuerySpec::Enumerate), &mut best).expect("valid enumeration");
    (best.best, result.stats.recursive_calls)
}

/// Asserts the B&B engine agrees with the enumeration reference, directly
/// and through the query layer at 1/2/4 threads. Returns the recursive calls
/// of the B&B search and of the enumeration.
fn assert_bb_matches_enumeration(g: &Graph, label: &str) -> (u64, u64) {
    let (expected, enumeration_calls) = enumeration_winner(g);
    let (via_csr, stats) = maximum_clique_bb(g);
    assert_eq!(via_csr, expected, "{label}: CSR B&B vs enumeration winner");
    assert_eq!(stats.max_clique_size, expected.len(), "{label}: size stat");
    for threads in [1usize, 2, 4] {
        let mut sink = CountReporter::new();
        let result = run_query(
            g,
            Query::new(QuerySpec::MaximumClique).with_threads(threads),
            &mut sink,
        )
        .expect("valid max-clique query");
        assert!(!result.outcome.is_truncated(), "{label} x{threads}");
        assert_eq!(
            result.value,
            QueryValue::Maximum(expected.clone()),
            "{label} x{threads}: query winner"
        );
        assert_ne!(result.terminating_bound(), TerminatingBound::Budget);
    }
    (stats.recursive_calls, enumeration_calls)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn bb_matches_enumeration_on_gnp(
        n in 4usize..32,
        p in 0.05f64..0.8,
        seed in 0u64..1000,
    ) {
        let g = erdos_renyi_gnp(n, p, seed);
        // No call bound here: on sparse G(n, p) the reductions can finish
        // the enumeration with zero recursive calls, while B&B opens one.
        assert_bb_matches_enumeration(&g, "gnp");
    }

    #[test]
    fn bb_matches_enumeration_on_ba(
        n in 8usize..40,
        k in 2usize..6,
        seed in 0u64..500,
    ) {
        let g = barabasi_albert(n, k, seed);
        let (bb, enumeration) = assert_bb_matches_enumeration(&g, "ba");
        prop_assert!(
            bb <= enumeration,
            "ba: B&B made {} calls, enumeration {}",
            bb,
            enumeration
        );
    }

    #[test]
    fn bb_matches_enumeration_on_planted(
        n in 16usize..40,
        communities in 2usize..5,
        seed in 0u64..500,
    ) {
        let g = planted_communities(&PlantedConfig {
            n,
            communities,
            min_size: 3,
            max_size: 8,
            intra_probability: 1.0,
            background_edges: n,
            seed,
        });
        let (bb, enumeration) = assert_bb_matches_enumeration(&g, "planted");
        prop_assert!(
            bb <= enumeration,
            "planted: B&B made {} calls, enumeration {}",
            bb,
            enumeration
        );
    }

    #[test]
    fn bb_matches_enumeration_on_planted_hub(
        parts in 2usize..5,
        part_size in 2usize..5,
    ) {
        let g = planted_hub(parts * part_size + 1, part_size);
        let (bb, enumeration) = assert_bb_matches_enumeration(&g, "planted-hub");
        prop_assert!(
            bb <= enumeration,
            "planted-hub: B&B made {} calls, enumeration {}",
            bb,
            enumeration
        );
    }

    /// A step-budgeted search never claims optimality it cannot prove: a
    /// truncated outcome reports budget termination and returns a valid
    /// clique no larger than the true maximum; a complete outcome returns
    /// exactly the canonical winner.
    #[test]
    fn budgeted_bb_never_overclaims(
        n in 6usize..28,
        p in 0.2f64..0.7,
        seed in 0u64..500,
        max_steps in 0u64..60,
    ) {
        let g = erdos_renyi_gnp(n, p, seed);
        let (expected, _) = enumeration_winner(&g);
        let mut sink = CountReporter::new();
        let result = run_query(
            &g,
            Query::new(QuerySpec::MaximumClique).with_budget(Budget::steps(max_steps)),
            &mut sink,
        )
        .expect("valid budgeted query");
        let QueryValue::Maximum(best) = result.value.clone() else {
            panic!("expected Maximum value");
        };
        prop_assert!(g.is_clique(&best), "returned set must be a clique");
        prop_assert!(best.len() <= expected.len(), "never larger than the maximum");
        if result.outcome.is_truncated() {
            prop_assert!(result.stats.terminated_by_budget >= 1);
            prop_assert_eq!(result.terminating_bound(), TerminatingBound::Budget);
        } else {
            prop_assert_eq!(&best, &expected, "complete runs return the canonical winner");
        }
        // Same budget, same truncation point: the result is deterministic.
        let mut sink = CountReporter::new();
        let replay = run_query(
            &g,
            Query::new(QuerySpec::MaximumClique).with_budget(Budget::steps(max_steps)),
            &mut sink,
        )
        .expect("valid budgeted query");
        prop_assert_eq!(replay.value, QueryValue::Maximum(best));
        prop_assert_eq!(replay.outcome, result.outcome);
    }

    /// Reusing one [`MaxCliqueState`] across different graphs returns the
    /// same winners as fresh state (no cross-run contamination).
    #[test]
    fn state_reuse_across_graphs_is_clean(
        n in 4usize..24,
        p in 0.1f64..0.7,
        seed in 0u64..300,
    ) {
        let a = erdos_renyi_gnp(n, p, seed);
        let b = erdos_renyi_gnp(n.max(6) - 2, 1.0 - p * 0.5, seed + 1);
        let mut state = MaxCliqueState::new();
        let first = maximum_clique_bb_with_state(&a, &mut state).0;
        let second = maximum_clique_bb_with_state(&b, &mut state).0;
        prop_assert_eq!(first, maximum_clique_bb(&a).0);
        prop_assert_eq!(second, maximum_clique_bb(&b).0);
    }
}
