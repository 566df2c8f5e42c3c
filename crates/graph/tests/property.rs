//! Property-based tests for the graph substrate: ordering invariants, the
//! τ < δ relationship the paper's complexity argument relies on, and model
//! checks of the bitset against a reference set.

use std::collections::BTreeSet;

use mce_graph::degeneracy::degeneracy_ordering;
use mce_graph::ordering::{edge_ordering, EdgeOrdering};
use mce_graph::triangles::{edge_supports, triangle_count};
use mce_graph::truss::truss_ordering;
use mce_graph::{AdjMatrix, BitSet, BitsMut, BitsRef, EdgeOrderingKind, Graph, GraphStats};
use proptest::prelude::*;

/// Word vectors biased toward the edge cases of the unrolled word loops:
/// all-zero words (empty rows), all-one words (full rows) and arbitrary bit
/// soup, at every length from empty through several 4-word chunks plus a
/// ragged tail.
fn arb_words() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec((0u32..9, any::<u64>()), 0..=21).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, soup)| match kind {
                0 | 1 => 0u64,
                2 | 3 => !0u64,
                _ => soup,
            })
            .collect()
    })
}

const EDGE_ORDERINGS: [EdgeOrderingKind; 3] = [
    EdgeOrderingKind::Truss,
    EdgeOrderingKind::DegeneracyLex,
    EdgeOrderingKind::MinDegree,
];

/// The `later` flags Eq. (2)'s candidate rule yields for the `rank`-th edge.
fn later_flags(g: &Graph, eo: &EdgeOrdering, rank: usize) -> Vec<(u32, bool)> {
    let mut flags = Vec::new();
    eo.for_each_common_neighbor(g, rank, |w, later| flags.push((w, later)));
    flags
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..40).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_edges.min(200))
            .prop_map(move |edges| Graph::from_edges(n, edges).expect("endpoints in range"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn degeneracy_ordering_is_valid_peeling(g in arb_graph()) {
        let d = degeneracy_ordering(&g);
        // The ordering is a permutation.
        let mut sorted = d.order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..g.n() as u32).collect::<Vec<_>>());
        // Every vertex has at most δ neighbours later in the ordering.
        for v in g.vertices() {
            let later = g
                .neighbors(v)
                .iter()
                .filter(|&&u| d.position[u as usize] > d.position[v as usize])
                .count();
            prop_assert!(later <= d.degeneracy);
        }
        // δ is tight: some vertex attains it… unless the graph is edgeless.
        if g.m() > 0 {
            prop_assert!(d.degeneracy >= 1);
        } else {
            prop_assert_eq!(d.degeneracy, 0);
        }
    }

    #[test]
    fn truss_parameter_is_below_degeneracy(g in arb_graph()) {
        let tau = truss_ordering(&g).tau;
        let delta = degeneracy_ordering(&g).degeneracy;
        // τ ≤ δ always; strictly smaller whenever the graph has an edge
        // (matches the paper's τ < δ claim: a degeneracy-δ graph has an edge
        // whose endpoints share at most δ − 1 neighbours).
        prop_assert!(tau <= delta);
        if g.m() > 0 {
            prop_assert!(tau < delta.max(1) || delta == 0 || tau < delta,
                "tau={} delta={}", tau, delta);
        }
    }

    #[test]
    fn truss_peeling_supports_bound_remaining_supports(g in arb_graph()) {
        // An edge's support when it is peeled is its count of common
        // neighbours whose triangle edges are both peeled later, so the
        // largest count is exactly tau.
        let t = truss_ordering(&g);
        let eo = edge_ordering(&g, EdgeOrderingKind::Truss);
        prop_assert_eq!(&eo.order, &t.edges);
        let largest = (0..eo.order.len())
            .map(|rank| later_flags(&g, &eo, rank).iter().filter(|f| f.1).count())
            .max()
            .unwrap_or(0);
        prop_assert_eq!(largest, t.tau);
    }

    #[test]
    fn edge_support_sum_is_three_times_triangles(g in arb_graph()) {
        let supports = edge_supports(&g);
        let sum: u64 = g.edges().map(|(u, v)| supports[g.slot(u, v).unwrap()] as u64).sum();
        prop_assert_eq!(sum, 3 * triangle_count(&g));
        for (u, v) in g.edges() {
            prop_assert_eq!(supports[g.slot(u, v).unwrap()], supports[g.slot(v, u).unwrap()]);
        }
    }

    #[test]
    fn reverse_slots_pair_the_two_directions(g in arb_graph()) {
        let reverse = g.reverse_slots();
        let adjacency = g.csr_adjacency();
        prop_assert_eq!(reverse.len(), adjacency.len());
        for u in g.vertices() {
            for &v in g.neighbors(u) {
                let s = g.slot(u, v).unwrap();
                // An involution that swaps the two directions of an edge …
                prop_assert_eq!(reverse[reverse[s] as usize] as usize, s);
                prop_assert_eq!(reverse[s] as usize, g.slot(v, u).unwrap());
                // … so the reverse slot names the vertex whose list holds s.
                prop_assert_eq!(adjacency[reverse[s] as usize], u);
            }
        }
    }

    #[test]
    fn common_neighbor_merge_yields_the_slots_of_both_triangle_edges(g in arb_graph()) {
        let mut expected = Vec::new();
        for (u, v) in g.edges() {
            g.common_neighbors_into(u, v, &mut expected);
            let naive: Vec<u32> = g
                .neighbors(u)
                .iter()
                .copied()
                .filter(|&w| g.has_edge(v, w))
                .collect();
            prop_assert_eq!(&expected, &naive);
            let mut seen = Vec::new();
            g.for_each_common_neighbor(u, v, |w, su, sv| seen.push((w, su, sv)));
            let want: Vec<_> = expected
                .iter()
                .map(|&w| (w, g.slot(u, w).unwrap(), g.slot(v, w).unwrap()))
                .collect();
            prop_assert_eq!(seen, want);
        }
    }

    #[test]
    fn edge_orderings_hold_each_rank_at_both_slots(g in arb_graph()) {
        for kind in EDGE_ORDERINGS {
            let eo = edge_ordering(&g, kind);
            prop_assert_eq!(eo.order.len(), g.m());
            prop_assert_eq!(eo.position.len(), 2 * g.m());
            let mut sorted = eo.order.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, g.edges().collect::<Vec<_>>());
            for (rank, &(u, v)) in eo.order.iter().enumerate() {
                prop_assert_eq!(eo.position[g.slot(u, v).unwrap()] as usize, rank);
                prop_assert_eq!(eo.position[g.slot(v, u).unwrap()] as usize, rank);
            }
        }
    }

    #[test]
    fn later_flag_reads_the_rank_of_both_triangle_edges(g in arb_graph()) {
        for kind in EDGE_ORDERINGS {
            let eo = edge_ordering(&g, kind);
            let rank_of = |a: u32, b: u32| eo.position[g.slot(a, b).unwrap()] as usize;
            for (rank, &(u, v)) in eo.order.iter().enumerate() {
                let want: Vec<(u32, bool)> = g
                    .neighbors(u)
                    .iter()
                    .copied()
                    .filter(|&w| g.has_edge(v, w))
                    .map(|w| (w, rank_of(u, w) > rank && rank_of(v, w) > rank))
                    .collect();
                prop_assert_eq!(later_flags(&g, &eo, rank), want);
            }
        }
    }

    #[test]
    fn complement_involution_on_small_graphs(g in arb_graph()) {
        if g.n() <= 20 {
            prop_assert_eq!(g.complement().complement(), g);
        }
    }

    #[test]
    fn stats_condition_is_consistent(g in arb_graph()) {
        let s = GraphStats::compute(&g);
        prop_assert_eq!(s.n, g.n());
        prop_assert_eq!(s.m, g.m());
        prop_assert!(s.tau <= s.degeneracy);
        let threshold = s.condition_threshold();
        prop_assert!(threshold >= 3.0 - 1e-9);
        prop_assert_eq!(s.hbbmc_condition_holds(), s.degeneracy as f64 >= threshold - 1e-12);
    }

    #[test]
    fn bitset_behaves_like_btreeset(ops in proptest::collection::vec((0usize..128, any::<bool>()), 0..200)) {
        let mut bits = BitSet::with_capacity(128);
        let mut model = BTreeSet::new();
        for (value, insert) in ops {
            if insert {
                prop_assert_eq!(bits.insert(value), model.insert(value));
            } else {
                prop_assert_eq!(bits.remove(value), model.remove(&value));
            }
        }
        prop_assert_eq!(bits.len(), model.len());
        prop_assert_eq!(bits.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
    }

    #[test]
    fn unrolled_word_kernels_match_scalar_reference(
        words_a in proptest::collection::vec(any::<u64>(), 0..=9),
        mask in proptest::collection::vec(any::<u64>(), 0..=9),
    ) {
        // The 4×-unrolled kernels must be bit-identical to the plain
        // one-word-at-a-time definitions on every ragged tail length:
        // 0..=9 words covers empty, sub-chunk, exact-chunk and
        // chunk-plus-tail shapes on both sides, including every mismatched
        // (self longer / mask longer) combination.
        let mut a = BitSet::with_capacity(words_a.len() * 64);
        for (wi, &w) in words_a.iter().enumerate() {
            for b in 0..64 {
                if w >> b & 1 == 1 {
                    a.insert(wi * 64 + b);
                }
            }
        }
        prop_assert_eq!(a.words(), words_a.as_slice());
        let shared = words_a.len().min(mask.len());

        // intersection_len_words == Σ popcount(a & m) over shared words.
        let expected_len: usize = (0..shared)
            .map(|i| (words_a[i] & mask[i]).count_ones() as usize)
            .sum();
        prop_assert_eq!(a.intersection_len_words(&mask), expected_len);

        // intersect_into: a & m on shared words, zero tail, same word count.
        let mut expected_inter: Vec<u64> =
            (0..shared).map(|i| words_a[i] & mask[i]).collect();
        expected_inter.resize(words_a.len(), 0);
        let mut out = BitSet::default();
        a.intersect_into(&mask, &mut out);
        prop_assert_eq!(out.words(), expected_inter.as_slice());
        prop_assert_eq!(out.capacity(), a.capacity());

        // intersect_into_count: same words, and the count is the popcount.
        let count = a.intersect_into_count(&mask, &mut out);
        prop_assert_eq!(out.words(), expected_inter.as_slice());
        prop_assert_eq!(count, expected_len);

        // difference_into: a & !m on shared words, verbatim tail copy.
        let mut expected_diff: Vec<u64> =
            (0..shared).map(|i| words_a[i] & !mask[i]).collect();
        expected_diff.extend_from_slice(&words_a[shared..]);
        a.difference_into(&mask, &mut out);
        prop_assert_eq!(out.words(), expected_diff.as_slice());

        // and_not_collect: identical element stream to and_not_iter.
        let mut collected = Vec::new();
        a.and_not_collect(&mask, &mut collected);
        prop_assert_eq!(collected, a.and_not_iter(&mask).collect::<Vec<_>>());
    }

    #[test]
    fn bitset_intersection_matches_model(
        a in proptest::collection::btree_set(0usize..96, 0..60),
        b in proptest::collection::btree_set(0usize..96, 0..60),
    ) {
        let mut sa = BitSet::with_capacity(96);
        for &v in &a { sa.insert(v); }
        let mut sb = BitSet::with_capacity(96);
        for &v in &b { sb.insert(v); }
        let expected: Vec<usize> = a.intersection(&b).copied().collect();
        prop_assert_eq!(sa.intersection_len(&sb), expected.len());
        let mut inter = sa.clone();
        inter.intersect_with(&sb);
        prop_assert_eq!(inter.iter().collect::<Vec<_>>(), expected);
        let mut diff = sa.clone();
        diff.difference_with(&sb);
        let expected_diff: Vec<usize> = a.difference(&b).copied().collect();
        prop_assert_eq!(diff.iter().collect::<Vec<_>>(), expected_diff);
    }

    /// The word loops on equal-length rows, through the borrowed views: every
    /// result is the one-word-at-a-time definition, for empty, full and
    /// arbitrary words at every chunk/tail shape.
    #[test]
    fn word_kernels_match_per_word_model_on_equal_rows(a in arb_words(), b in arb_words()) {
        let shared = a.len().min(b.len());
        let (a, b) = (&a[..shared], &b[..shared]);
        let view = BitsRef::new(a, shared * 64);
        let and: Vec<u64> = (0..shared).map(|i| a[i] & b[i]).collect();
        let and_not: Vec<u64> = (0..shared).map(|i| a[i] & !b[i]).collect();

        let mut dst = vec![!0u64; shared];
        let count = BitsMut::new(&mut dst, shared * 64).assign_and_count(view, b);
        prop_assert_eq!(count, popcount(&and));
        prop_assert_eq!(&dst, &and);
        prop_assert_eq!(view.intersection_len_words(b), popcount(&and));
        let mut dst = vec![!0u64; shared];
        BitsMut::new(&mut dst, shared * 64).assign_difference(view, b);
        prop_assert_eq!(&dst, &and_not);
        let mut bits = vec![usize::MAX]; // non-empty: appends must preserve
        view.and_not_collect(b, &mut bits);
        let mut want = vec![usize::MAX];
        want.extend(bit_positions(&and_not));
        prop_assert_eq!(bits, want);
        prop_assert_eq!(view.len(), popcount(a));
    }

    /// The fused `BitSet` operations on ragged rows (different word counts)
    /// over a capacity that need not be word-aligned: each result is the
    /// per-word model with the module's tail rules (missing row words count
    /// as zero).
    #[test]
    fn fused_kernels_match_per_word_model_at_any_capacity(
        a_words in arb_words(),
        row in arb_words(),
        slack in 0usize..64,
    ) {
        let cap = (a_words.len() * 64).saturating_sub(slack);
        let mut a = BitSet::with_capacity(cap);
        for (wi, &w) in a_words.iter().enumerate() {
            for bit in 0..64 {
                let idx = wi * 64 + bit;
                if idx < cap && w >> bit & 1 == 1 {
                    a.insert(idx);
                }
            }
        }
        let words = a.words();
        let row_word = |i: usize| row.get(i).copied().unwrap_or(0);
        let and: Vec<u64> = (0..words.len()).map(|i| words[i] & row_word(i)).collect();
        let and_not: Vec<u64> = (0..words.len()).map(|i| words[i] & !row_word(i)).collect();

        prop_assert_eq!(a.len(), popcount(words));
        prop_assert_eq!(a.intersection_len_words(&row), popcount(&and));
        let mut inter = BitSet::default();
        prop_assert_eq!(a.intersect_into_count(&row, &mut inter), popcount(&and));
        prop_assert_eq!(inter.words(), and.as_slice());
        prop_assert_eq!(inter.capacity(), cap);
        let mut diff = BitSet::default();
        a.difference_into(&row, &mut diff);
        prop_assert_eq!(diff.words(), and_not.as_slice());
        prop_assert_eq!(diff.capacity(), cap);
        let mut bits = Vec::new();
        a.and_not_collect(&row, &mut bits);
        prop_assert_eq!(bits, bit_positions(&and_not));
    }

    /// The word loops on real adjacency data, both representations: each
    /// dense `AdjMatrix` row has popcount == degree, and a bitset built from
    /// the sparse CSR neighbour list of `v` meets the dense rows of `v` and of
    /// vertex `(v + 1) mod n` exactly as the per-word model says.
    #[test]
    fn dense_rows_match_csr_neighbourhoods(g in arb_graph()) {
        let n = g.n();
        let mut dense = AdjMatrix::new(n);
        for v in g.vertices() {
            for &u in g.neighbors(v) {
                dense.insert(v as usize, u as usize);
            }
        }
        for v in g.vertices() {
            let degree = g.neighbors(v).len();
            prop_assert_eq!(dense.row_len(v as usize), degree);
            prop_assert_eq!(BitsRef::new(dense.row(v as usize), n).len(), degree);
            let mut csr_row = BitSet::with_capacity(n);
            for &u in g.neighbors(v) {
                csr_row.insert(u as usize);
            }
            for w in [v as usize, (v as usize + 1) % n] {
                let dense_row = dense.row(w);
                let csr = csr_row.words();
                let and: Vec<u64> = (0..csr.len()).map(|i| csr[i] & dense_row[i]).collect();
                let and_not: Vec<u64> =
                    (0..csr.len()).map(|i| csr[i] & !dense_row[i]).collect();
                prop_assert_eq!(csr_row.intersection_len_words(dense_row), popcount(&and));
                let mut branch = Vec::new();
                csr_row.and_not_collect(dense_row, &mut branch);
                prop_assert_eq!(branch, bit_positions(&and_not));
            }
        }
    }
}

/// Per-word model of a popcount.
fn popcount(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// Per-word model of bit-position collection: word `i`, bit `b` → `i * 64 + b`.
fn bit_positions(words: &[u64]) -> Vec<usize> {
    (0..words.len() * 64)
        .filter(|&idx| words[idx / 64] >> (idx % 64) & 1 == 1)
        .collect()
}
