//! Reference enumerator used as ground truth by the test-suite.
//!
//! A textbook Bron–Kerbosch recursion without pivoting, orderings or any of
//! the paper's optimisations, operating directly on sorted vertex vectors.
//! Deliberately simple and structurally unrelated to the optimised engine so
//! that agreement between the two is meaningful evidence of correctness.
//! Only intended for small graphs (tests use ≲ 60 vertices).

use mce_graph::{Graph, VertexId};

use crate::budget::{Budget, BudgetState, Outcome, TruncationReason};

/// Enumerates all maximal cliques of `g` with the unoptimised reference
/// algorithm. Returns them in canonical order (each clique sorted, cliques
/// sorted lexicographically).
pub fn naive_maximal_cliques(g: &Graph) -> Vec<Vec<VertexId>> {
    naive_maximal_cliques_budgeted(g, &Budget::unlimited())
        .expect("unlimited budget cannot truncate")
}

/// [`naive_maximal_cliques`] under a [`Budget`]: counts one branch step per
/// recursion-loop iteration and one emission per clique, and returns the
/// reason when a bound trips. A truncated reference result would be useless
/// for a completeness check, so no partial output is returned.
///
/// This is the shared budget path `mce verify` uses instead of a private
/// vertex-count cap: the exponential reference run is bounded by actual work
/// done, not by a proxy on the input size.
pub fn naive_maximal_cliques_budgeted(
    g: &Graph,
    budget: &Budget,
) -> Result<Vec<Vec<VertexId>>, TruncationReason> {
    if g.n() == 0 {
        return Ok(Vec::new());
    }
    let state = BudgetState::new(budget);
    let mut out = Vec::new();
    let candidates: Vec<VertexId> = g.vertices().collect();
    let mut partial = Vec::new();
    recurse(g, &mut partial, candidates, Vec::new(), &state, &mut out)?;
    match state.outcome() {
        Outcome::Complete => {
            out.sort();
            Ok(out)
        }
        // A token cancelled after the last step still truncates the result.
        Outcome::Truncated { reason } => Err(reason),
    }
}

fn emit(partial: &[VertexId], state: &BudgetState, out: &mut Vec<Vec<VertexId>>) -> bool {
    if !state.try_emit() {
        return false;
    }
    let mut clique = partial.to_vec();
    clique.sort_unstable();
    out.push(clique);
    true
}

fn recurse(
    g: &Graph,
    partial: &mut Vec<VertexId>,
    mut candidates: Vec<VertexId>,
    mut excluded: Vec<VertexId>,
    state: &BudgetState,
    out: &mut Vec<Vec<VertexId>>,
) -> Result<(), TruncationReason> {
    let truncated = || match state.outcome() {
        Outcome::Truncated { reason } => reason,
        Outcome::Complete => unreachable!("stop observed without a tripped bound"),
    };
    if candidates.is_empty() && excluded.is_empty() {
        if !emit(partial, state, out) {
            return Err(truncated());
        }
        return Ok(());
    }
    while let Some(v) = candidates.last().copied() {
        if state.note_step() {
            return Err(truncated());
        }
        let next_candidates: Vec<VertexId> = candidates
            .iter()
            .copied()
            .filter(|&u| g.has_edge(u, v))
            .collect();
        let next_excluded: Vec<VertexId> = excluded
            .iter()
            .copied()
            .filter(|&u| g.has_edge(u, v))
            .collect();
        partial.push(v);
        let result = recurse(g, partial, next_candidates, next_excluded, state, out);
        partial.pop();
        result?;
        candidates.pop();
        excluded.push(v);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_has_no_cliques() {
        assert!(naive_maximal_cliques(&Graph::empty(0)).is_empty());
    }

    #[test]
    fn edgeless_graph_has_singleton_cliques() {
        let cliques = naive_maximal_cliques(&Graph::empty(3));
        assert_eq!(cliques, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn complete_graph_has_one_clique() {
        let cliques = naive_maximal_cliques(&Graph::complete(5));
        assert_eq!(cliques, vec![vec![0, 1, 2, 3, 4]]);
    }

    #[test]
    fn path_has_edge_cliques() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let cliques = naive_maximal_cliques(&g);
        assert_eq!(cliques, vec![vec![0, 1], vec![1, 2], vec![2, 3]]);
    }

    #[test]
    fn diamond_graph() {
        // Two triangles sharing the edge (0,2).
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3), (2, 3)]).unwrap();
        let cliques = naive_maximal_cliques(&g);
        assert_eq!(cliques, vec![vec![0, 1, 2], vec![0, 2, 3]]);
    }

    #[test]
    fn moon_moser_count() {
        // K_{3,3,3} has 27 maximal cliques.
        let mut edges = Vec::new();
        for u in 0..9u32 {
            for v in (u + 1)..9 {
                if u / 3 != v / 3 {
                    edges.push((u, v));
                }
            }
        }
        let g = Graph::from_edges(9, edges).unwrap();
        assert_eq!(naive_maximal_cliques(&g).len(), 27);
    }

    #[test]
    fn budgeted_naive_truncates_and_completes() {
        let g = Graph::complete(6);
        assert_eq!(
            naive_maximal_cliques_budgeted(&g, &Budget::steps(2)),
            Err(TruncationReason::StepLimit)
        );
        assert_eq!(
            naive_maximal_cliques_budgeted(&g, &Budget::steps(1_000_000)).unwrap(),
            naive_maximal_cliques(&g)
        );
        // A clique cap below the result size also truncates.
        let path = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(
            naive_maximal_cliques_budgeted(&path, &Budget::cliques(1)),
            Err(TruncationReason::CliqueLimit)
        );
        // A pre-cancelled token truncates immediately.
        let token = crate::budget::CancelToken::new();
        token.cancel();
        assert_eq!(
            naive_maximal_cliques_budgeted(&g, &Budget::unlimited().with_cancel(token)),
            Err(TruncationReason::Cancelled)
        );
    }

    #[test]
    fn all_outputs_are_maximal_cliques() {
        let g = Graph::from_edges(
            7,
            [
                (0, 1),
                (1, 2),
                (0, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (4, 6),
                (2, 4),
            ],
        )
        .unwrap();
        let cliques = naive_maximal_cliques(&g);
        for clique in &cliques {
            assert!(g.is_clique(clique));
            for v in g.vertices() {
                if !clique.contains(&v) {
                    assert!(!clique.iter().all(|&c| g.has_edge(c, v)));
                }
            }
        }
        // Every vertex is covered by at least one maximal clique.
        for v in g.vertices() {
            assert!(cliques.iter().any(|c| c.contains(&v)));
        }
    }
}
