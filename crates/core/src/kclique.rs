//! k-clique listing with edge-oriented branching (EBBkC-style).
//!
//! The paper's edge-oriented branching strategy originates from the k-clique
//! listing problem (Wang, Yu & Long, SIGMOD'24) and Section III-B contrasts
//! the two problems at length. This module provides the k-clique side as a
//! companion feature: listing/counting all cliques of exactly `k` vertices
//! using the same truss-ordered edge branching as the MCE root phase, with the
//! candidate subgraph of each edge branch restricted to edges ordered after
//! the branching edge (so every k-clique is produced exactly once, at its
//! earliest edge).

use mce_graph::ordering::EdgeOrdering;
use mce_graph::truss::TrussPeel;
use mce_graph::{BitSet, Graph, VertexId};

use crate::budget::{Budget, BudgetState};
use crate::local::LocalGraph;

/// Counts the k-cliques of `g` without materialising them.
pub fn count_k_cliques(g: &Graph, k: usize) -> u64 {
    let mut count = 0u64;
    for_each_k_clique(g, k, |_| count += 1);
    count
}

/// Counts the cliques of every size `1..=max_k`; index `i` of the returned
/// vector holds the number of `(i+1)`-cliques.
pub fn k_clique_census(g: &Graph, max_k: usize) -> Vec<u64> {
    (1..=max_k).map(|k| count_k_cliques(g, k)).collect()
}

/// Streams every k-clique to `visit` exactly once.
pub fn for_each_k_clique<F: FnMut(&[VertexId])>(g: &Graph, k: usize, mut visit: F) {
    let state = BudgetState::new(&Budget::unlimited());
    let _ = for_each_k_clique_with_state(g, k, &state, &mut |clique| visit(clique));
}

/// The shared driver: streams k-cliques under an existing session
/// [`BudgetState`] (the query layer passes its own so the session's cancel
/// token applies). Returns the number of branching frames abandoned because
/// the budget tripped — 0 on a complete run — so the query layer can fill
/// `EnumerationStats::terminated_by_budget` honestly.
pub(crate) fn for_each_k_clique_with_state(
    g: &Graph,
    k: usize,
    state: &BudgetState,
    visit: &mut dyn FnMut(&[VertexId]),
) -> u64 {
    let mut gated = |clique: &[VertexId]| {
        if state.try_emit() {
            visit(clique);
        }
    };
    match k {
        0 => return 0,
        1 => {
            for v in g.vertices() {
                if state.should_stop() {
                    return 1;
                }
                gated(&[v]);
            }
            return 0;
        }
        2 => {
            for (u, v) in g.edges() {
                if state.should_stop() {
                    return 1;
                }
                gated(&[u, v]);
            }
            return 0;
        }
        _ => {}
    }

    let mut aborted = 0u64;
    // Each root's candidates come from the truss peel's own walk as it
    // removes the root's edge: the common neighbours whose edges to both
    // endpoints are still unpeeled, i.e. come after the branching edge.
    let eo = EdgeOrdering::unranked(g);
    let mut peel = TrussPeel::new(g);
    let mut candidates = Vec::new();
    let mut lg = LocalGraph::new();
    // The local-id map of every rebuild.
    let mut position = vec![u32::MAX; g.n()];
    // One candidate set per depth below the root edge, and the partial
    // clique: reused across all roots. Both are sized by the first root that
    // can hold a k-clique, where `k <= |C| + 2 <= n + 2`; a `k` no root
    // reaches allocates nothing.
    let mut levels = Vec::new();
    let mut partial = Vec::new();
    for rank in 0..eo.len() {
        if state.note_step() {
            return aborted + 1;
        }
        candidates.clear();
        let (u, v) = peel
            .next(&eo, |w, later| {
                if later {
                    candidates.push(w);
                }
            })
            .expect("the peel ranks every edge");
        if candidates.len() + 2 < k {
            continue;
        }
        if levels.len() < k - 1 {
            levels.resize(k - 1, BitSet::default());
        }
        // Inside the branch only edges ordered after the branching edge count,
        // so a k-clique is visited exactly once: at its earliest edge. The
        // edges the peel has not reached yet read as later.
        let rank = rank as u32;
        let later = |s, _, _| eo.rank(s) > rank;
        lg.rebuild(g, &candidates, &[], later, &mut position);
        let root = &mut levels[0];
        root.reset(lg.len());
        for i in 0..lg.len() {
            root.insert(i);
        }
        partial.clear();
        partial.extend([u, v]);
        aborted += extend_clique(&lg, &mut levels, 0, k - 2, &mut partial, state, &mut gated);
    }
    aborted
}

/// Extends the partial clique by `remaining` vertices chosen from
/// `levels[0]`, only considering local ids `>= from` so each combination is
/// produced once; each child's candidate set is written into `levels[1]`.
/// Returns the number of frames abandoned to a tripped budget.
fn extend_clique<F: FnMut(&[VertexId])>(
    lg: &LocalGraph,
    levels: &mut [BitSet],
    from: usize,
    remaining: usize,
    partial: &mut Vec<VertexId>,
    state: &BudgetState,
    visit: &mut F,
) -> u64 {
    if remaining == 0 {
        visit(partial);
        return 0;
    }
    let (c, deeper) = levels
        .split_first_mut()
        .expect("one level per vertex still to choose");
    if c.len() < remaining {
        return 0;
    }
    let mut aborted = 0u64;
    for v in c.iter() {
        if v < from {
            continue;
        }
        if state.note_step() {
            return aborted + 1;
        }
        c.intersect_into(lg.cand(v), &mut deeper[0]);
        partial.push(lg.orig[v]);
        aborted += extend_clique(lg, deeper, v + 1, remaining - 1, partial, state, visit);
        partial.pop();
    }
    aborted
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force reference: all k-subsets that induce cliques (tiny graphs only).
    fn brute_force(g: &Graph, k: usize) -> Vec<Vec<VertexId>> {
        let n = g.n();
        let mut out = Vec::new();
        if k == 0 || k > n {
            return out;
        }
        let mut indices: Vec<usize> = (0..k).collect();
        loop {
            let set: Vec<VertexId> = indices.iter().map(|&i| i as VertexId).collect();
            if g.is_clique(&set) {
                out.push(set);
            }
            // next combination
            let mut i = k;
            loop {
                if i == 0 {
                    return out;
                }
                i -= 1;
                if indices[i] != i + n - k {
                    indices[i] += 1;
                    for j in i + 1..k {
                        indices[j] = indices[j - 1] + 1;
                    }
                    break;
                }
            }
        }
    }

    fn sample() -> Graph {
        // K5 plus a tail and a disjoint triangle.
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                edges.push((u, v));
            }
        }
        edges.extend([(4, 5), (5, 6), (7, 8), (8, 9), (7, 9)]);
        Graph::from_edges(10, edges).unwrap()
    }

    #[test]
    fn trivial_sizes() {
        let g = sample();
        assert_eq!(count_k_cliques(&g, 0), 0);
        assert_eq!(count_k_cliques(&g, 1), 10);
        assert_eq!(count_k_cliques(&g, 2), g.m() as u64);
    }

    #[test]
    fn triangle_count_matches_substrate() {
        let g = sample();
        assert_eq!(count_k_cliques(&g, 3), mce_graph::triangle_count(&g));
    }

    #[test]
    fn listing_matches_brute_force_for_all_k() {
        let g = sample();
        for k in 1..=6usize {
            let mut got = Vec::new();
            for_each_k_clique(&g, k, |clique| {
                let mut c = clique.to_vec();
                c.sort_unstable();
                got.push(c);
            });
            got.sort();
            let want = brute_force(&g, k);
            assert_eq!(got, want, "k = {k}");
        }
    }

    #[test]
    fn complete_graph_counts_are_binomials() {
        let g = Graph::complete(7);
        // C(7, k)
        let binom = [7u64, 21, 35, 35, 21, 7, 1];
        for (i, &expected) in binom.iter().enumerate() {
            assert_eq!(count_k_cliques(&g, i + 1), expected, "k = {}", i + 1);
        }
        assert_eq!(count_k_cliques(&g, 8), 0);
        // No root reaches these, so nothing may be sized by k.
        assert_eq!(count_k_cliques(&g, 1 << 40), 0);
        assert_eq!(count_k_cliques(&g, usize::MAX), 0);
    }

    #[test]
    fn census_accumulates_counts() {
        let g = sample();
        let census = k_clique_census(&g, 5);
        assert_eq!(census.len(), 5);
        assert_eq!(census[0], 10);
        assert_eq!(census[1], g.m() as u64);
        assert_eq!(census[4], 1, "exactly one 5-clique");
    }

    #[test]
    fn moon_moser_k_cliques() {
        // K_{3,3,3}: number of 3-cliques = 27 (one vertex per part).
        let mut edges = Vec::new();
        for u in 0..9u32 {
            for v in (u + 1)..9 {
                if u / 3 != v / 3 {
                    edges.push((u, v));
                }
            }
        }
        let g = Graph::from_edges(9, edges).unwrap();
        assert_eq!(count_k_cliques(&g, 3), 27);
        assert_eq!(count_k_cliques(&g, 4), 0);
    }

    #[test]
    fn empty_graph_has_no_cliques_of_positive_size() {
        let g = Graph::empty(4);
        assert_eq!(count_k_cliques(&g, 1), 4);
        assert_eq!(count_k_cliques(&g, 2), 0);
        assert_eq!(count_k_cliques(&g, 3), 0);
    }
}
