//! Property-based tests for the graph substrate: ordering invariants, the
//! τ < δ relationship the paper's complexity argument relies on, and model
//! checks of the bitset against a reference set.

use std::collections::BTreeSet;

use mce_graph::degeneracy::degeneracy_ordering;
use mce_graph::ordering::{edge_ordering, EdgeOrdering};
use mce_graph::triangles::{edge_supports, triangle_count};
use mce_graph::truss::{truss_ordering, TrussPeel};
use mce_graph::{AdjMatrix, BitSet, EdgeOrderingKind, Graph, GraphError, GraphStats};
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
    let mut mark = vec![u32::MAX; g.n()];
    eo.for_each_common_neighbor(g, rank, &mut mark, |w, later| flags.push((w, later)));
    flags
}

/// Peels `g` one edge at a time and checks every step against the whole
/// truss ordering: the same edge, the same rank at both of its slots, the
/// `later` flags the finished ordering gives at that rank, and the same τ.
fn check_truss_peel(g: &Graph) {
    let whole = truss_ordering(g);
    let full = edge_ordering(g, EdgeOrderingKind::Truss);
    let eo = EdgeOrdering::unranked(g);
    let mut peel = TrussPeel::new(g);
    for (rank, &edge) in whole.edges.iter().enumerate() {
        assert_eq!(peel.steps(), rank);
        let mut flags = Vec::new();
        let peeled = peel.next(&eo, |w, later| flags.push((w, later)));
        assert_eq!(peeled, Some(edge));
        assert_eq!(eo.edge(rank), edge);
        let (u, v) = edge;
        assert_eq!(eo.rank(g.slot(u, v).unwrap()) as usize, rank);
        assert_eq!(eo.rank(g.slot(v, u).unwrap()) as usize, rank);
        assert_eq!(flags, later_flags(g, &full, rank));
    }
    assert_eq!(peel.next(&eo, |_, _| {}), None);
    assert_eq!(peel.tau(), whole.tau);
    for s in 0..2 * g.m() {
        assert_eq!(eo.rank(s), full.rank(s));
    }
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..40).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_edges.min(200))
            .prop_map(move |edges| Graph::from_edges(n, edges).expect("endpoints in range"))
    })
}

/// A sparse random graph plus a hub 0 joined to a random subset of the
/// other vertices: lists of very different lengths meet, so the walk's
/// skewed-list search runs as well as its marked scan.
fn arb_hub_graph() -> impl Strategy<Value = Graph> {
    (70usize..160).prop_flat_map(|n| {
        (
            proptest::collection::vec((1..n as u32, 1..n as u32), 0..2 * n),
            proptest::collection::vec(0u32..4, n),
        )
            .prop_map(move |(edges, hub)| {
                let spokes = (1..n as u32)
                    .filter(|&v| hub[v as usize] > 0)
                    .map(|v| (0, v));
                Graph::from_edges(n, edges.into_iter().chain(spokes)).expect("endpoints in range")
            })
    })
}

/// Checks [`Graph::for_each_common_neighbor`] on every edge of `g`, in both
/// argument orders, against `has_edge` and `slot`, and that the mark array
/// is all-`u32::MAX` after each call.
fn check_common_neighbor_walk(g: &Graph) {
    let mut mark = vec![u32::MAX; g.n()];
    // Each edge in both argument orders, so each side is the shorter
    // (marked) list in one of them whenever the degrees differ.
    for (u, v) in g.edges().flat_map(|(u, v)| [(u, v), (v, u)]) {
        let want: Vec<_> = g
            .vertices()
            .filter(|&w| g.has_edge(u, w) && g.has_edge(v, w))
            .map(|w| (w, g.slot(u, w).unwrap(), g.slot(v, w).unwrap()))
            .collect();
        let mut seen = Vec::new();
        g.for_each_common_neighbor(u, v, &mut mark, |w, su, sv| seen.push((w, su, sv)));
        assert_eq!(seen, want, "({u}, {v})");
        assert!(mark.iter().all(|&m| m == u32::MAX), "mark array left dirty");
    }
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
        prop_assert_eq!(eo.edges().collect::<Vec<_>>(), t.edges.clone());
        let largest = (0..eo.len())
            .map(|rank| later_flags(&g, &eo, rank).iter().filter(|f| f.1).count())
            .max()
            .unwrap_or(0);
        prop_assert_eq!(largest, t.tau);
    }

    #[test]
    fn edge_support_sum_is_three_times_triangles(g in arb_graph()) {
        let supports = edge_supports(&g);
        let sum: u64 = g.edges().map(|(u, v)| supports[g.slot(u, v).unwrap()] as u64).sum();
        // Vertex triples by brute force, independent of the supports.
        let n = g.n() as u32;
        let mut triangles = 0u64;
        for a in 0..n {
            for b in a + 1..n {
                for c in b + 1..n {
                    triangles += u64::from(g.has_edge(a, b) && g.has_edge(b, c) && g.has_edge(a, c));
                }
            }
        }
        prop_assert_eq!(sum, 3 * triangles);
        prop_assert_eq!(triangle_count(&g), triangles);
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
    fn marked_common_neighbor_walk_yields_the_slots_of_both_triangle_edges(g in arb_graph()) {
        check_common_neighbor_walk(&g);
    }

    #[test]
    fn common_neighbor_walk_handles_hub_lists(g in arb_hub_graph()) {
        check_common_neighbor_walk(&g);
    }

    #[test]
    fn edge_orderings_hold_each_rank_at_both_slots(g in arb_graph()) {
        for kind in EDGE_ORDERINGS {
            let eo = edge_ordering(&g, kind);
            prop_assert_eq!(eo.len(), g.m());
            let mut sorted: Vec<_> = eo.edges().collect();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, g.edges().collect::<Vec<_>>());
            for (rank, (u, v)) in eo.edges().enumerate() {
                prop_assert_eq!(eo.rank(g.slot(u, v).unwrap()) as usize, rank);
                prop_assert_eq!(eo.rank(g.slot(v, u).unwrap()) as usize, rank);
            }
        }
    }

    #[test]
    fn later_flag_reads_the_rank_of_both_triangle_edges(g in arb_graph()) {
        for kind in EDGE_ORDERINGS {
            let eo = edge_ordering(&g, kind);
            let rank_of = |a: u32, b: u32| eo.rank(g.slot(a, b).unwrap()) as usize;
            for (rank, (u, v)) in eo.edges().enumerate() {
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
    fn truss_peel_steps_match_the_whole_ordering(g in arb_graph()) {
        check_truss_peel(&g);
    }

    #[test]
    fn truss_peel_steps_match_the_whole_ordering_on_hub_graphs(g in arb_hub_graph()) {
        check_truss_peel(&g);
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
        let a = bitset_of(&words_a);
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
        prop_assert_eq!(sa.intersection_len_words(sb.words()), expected.len());
        let mut inter = sa.clone();
        inter.intersect_with_words(sb.words());
        prop_assert_eq!(inter.iter().collect::<Vec<_>>(), expected);
        let mut diff = sa.clone();
        diff.difference_with_words(sb.words());
        let expected_diff: Vec<usize> = a.difference(&b).copied().collect();
        prop_assert_eq!(diff.iter().collect::<Vec<_>>(), expected_diff);
        let mut union = sa.clone();
        union.union_with_words(sb.words());
        let expected_union: Vec<usize> = a.union(&b).copied().collect();
        prop_assert_eq!(union.iter().collect::<Vec<_>>(), expected_union);
    }

    /// The word loops on equal-length rows: every result is the
    /// one-word-at-a-time definition, for empty, full and arbitrary words at
    /// every chunk/tail shape.
    #[test]
    fn word_kernels_match_per_word_model_on_equal_rows(a in arb_words(), b in arb_words()) {
        let shared = a.len().min(b.len());
        let (a, b) = (&a[..shared], &b[..shared]);
        let set = bitset_of(a);
        let and: Vec<u64> = (0..shared).map(|i| a[i] & b[i]).collect();
        let and_not: Vec<u64> = (0..shared).map(|i| a[i] & !b[i]).collect();

        // A destination full of stale bits over a larger universe.
        let mut dst = bitset_of(&vec![!0u64; shared + 1]);
        let count = set.intersect_into_count(b, &mut dst);
        prop_assert_eq!(count, popcount(&and));
        prop_assert_eq!(dst.words(), and.as_slice());
        prop_assert_eq!(dst.capacity(), shared * 64);
        prop_assert_eq!(set.intersection_len_words(b), popcount(&and));
        let mut bits = vec![usize::MAX]; // non-empty: appends must preserve
        set.and_not_collect(b, &mut bits);
        let mut want = vec![usize::MAX];
        want.extend(bit_positions(&and_not));
        prop_assert_eq!(bits, want);
        prop_assert_eq!(set.len(), popcount(a));
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
            prop_assert_eq!(popcount(dense.row(v as usize)), degree);
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

/// The bit set over `0..words.len() * 64` whose words are `words`.
fn bitset_of(words: &[u64]) -> BitSet {
    let mut set = BitSet::with_capacity(words.len() * 64);
    for idx in bit_positions(words) {
        set.insert(idx);
    }
    set
}

/// The symmetry rule `Graph::from_csr_parts` applied before its one-pass
/// check, kept as the model: every entry `(u, v)` finds `u` in N(v) by
/// binary search.
fn symmetric_by_search(lists: &[Vec<u32>]) -> bool {
    lists.iter().enumerate().all(|(u, list)| {
        list.iter()
            .all(|&v| lists[v as usize].binary_search(&(u as u32)).is_ok())
    })
}

/// Changes one entry of strictly increasing adjacency lists and keeps them
/// strictly increasing and free of self-loops: `kind` 0 drops the entry
/// numbered `pick`, 1 moves it to another list, 2 copies it into another
/// list (`target` picks the list among those that can take it). Returns
/// false, changing nothing, where no entry or no list fits.
fn mutate_entry(lists: &mut [Vec<u32>], kind: u32, pick: u64, target: u64) -> bool {
    let entries: usize = lists.iter().map(Vec::len).sum();
    if entries == 0 {
        return false;
    }
    let mut k = (pick % entries as u64) as usize;
    let mut u = 0;
    while k >= lists[u].len() {
        k -= lists[u].len();
        u += 1;
    }
    let v = lists[u][k];
    if kind > 0 {
        let targets: Vec<usize> = (0..lists.len())
            .filter(|&w| w != u && w != v as usize && lists[w].binary_search(&v).is_err())
            .collect();
        if targets.is_empty() {
            return false;
        }
        let w = targets[(target % targets.len() as u64) as usize];
        let at = lists[w].binary_search(&v).unwrap_err();
        lists[w].insert(at, v);
    }
    if kind < 2 {
        lists[u].remove(k);
    }
    true
}

/// The CSR arrays of `lists`.
fn csr_of(lists: &[Vec<u32>]) -> (Vec<usize>, Vec<u32>) {
    let mut offsets = vec![0];
    let mut adjacency = Vec::new();
    for list in lists {
        adjacency.extend_from_slice(list);
        offsets.push(adjacency.len());
    }
    (offsets, adjacency)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `from_csr_parts` accepts exactly the CSRs the binary-search rule
    /// calls symmetric: valid graphs, and lists after up to three dropped,
    /// moved or copied entries (two can cancel out); one alone never does.
    #[test]
    fn csr_symmetry_check_matches_the_search_model(
        g in arb_graph(),
        mutations in proptest::collection::vec((0u32..3, any::<u64>(), any::<u64>()), 1..=3),
    ) {
        let mut lists: Vec<Vec<u32>> = g.vertices().map(|v| g.neighbors(v).to_vec()).collect();
        prop_assert!(symmetric_by_search(&lists));
        let (offsets, adjacency) = csr_of(&lists);
        prop_assert_eq!(&Graph::from_csr_parts(offsets, adjacency).unwrap(), &g);

        let mut applied = 0;
        for &(kind, pick, target) in &mutations {
            applied += usize::from(mutate_entry(&mut lists, kind, pick, target));
            let symmetric = symmetric_by_search(&lists);
            if applied == 1 {
                prop_assert!(!symmetric, "one changed entry left {lists:?} symmetric");
            }
            let (offsets, adjacency) = csr_of(&lists);
            match Graph::from_csr_parts(offsets, adjacency) {
                Ok(_) => prop_assert!(symmetric, "accepted {lists:?}"),
                Err(GraphError::InvalidData { .. }) => {
                    prop_assert!(!symmetric, "rejected {lists:?}")
                }
                Err(other) => panic!("{lists:?}: {other}"),
            }
        }
    }
}
